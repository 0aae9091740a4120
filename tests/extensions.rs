//! Integration tests for the extension features: non-uniform cliques,
//! adaptive routing, Opera frozen-epoch simulation, live schedule
//! updates, and diurnal tracking.

use sorn::routing::{GeneralSornRouter, Grouping, OperaModel, OperaShortRouter, SornRouter};
use sorn::sim::{Engine, Flow, FlowId, SimConfig};
use sorn::topology::builders::{
    nonuniform_sorn_schedule, round_robin, sorn_schedule, SornScheduleParams,
};
use sorn::topology::{CliqueId, CliqueMap, NodeId, Ratio};
use sorn::traffic::{DiurnalPattern, DiurnalWorkload, FlowSizeDist};

fn mesh(n: u32, bytes: u64) -> Vec<Flow> {
    let mut flows = Vec::new();
    let mut id = 0;
    for s in 0..n {
        for d in 0..n {
            if s != d {
                flows.push(Flow {
                    id: FlowId(id),
                    src: NodeId(s),
                    dst: NodeId(d),
                    size_bytes: bytes,
                    arrival_ns: id * 25,
                });
                id += 1;
            }
        }
    }
    flows
}

#[test]
fn nonuniform_cliques_full_mesh_within_three_hops() {
    // Sizes 6/3/3 over 12 nodes.
    let c = |x: u32| CliqueId(x);
    let assignment: Vec<CliqueId> = (0..12)
        .map(|v| {
            if v < 6 {
                c(0)
            } else if v < 9 {
                c(1)
            } else {
                c(2)
            }
        })
        .collect();
    let map = CliqueMap::from_assignment(&assignment);
    let sched = nonuniform_sorn_schedule(&map, Ratio::integer(2), 0, 1 << 20).unwrap();
    let router = GeneralSornRouter::new(map);
    let mut eng = Engine::new(SimConfig::default(), &sched, &router);
    let flows = mesh(12, 2500);
    let count = flows.len();
    eng.add_flows(flows).unwrap();
    assert!(eng.run_until_drained(2_000_000).unwrap());
    assert_eq!(eng.metrics().flows.len(), count);
    for f in &eng.metrics().flows {
        assert!(f.max_hops <= 3);
    }
}

#[test]
fn adaptive_sorn_never_worse_hop_bound_and_lower_tax() {
    let map = CliqueMap::contiguous(16, 4);
    let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(4))).unwrap();
    let plain = SornRouter::new(map.clone());
    let adaptive = SornRouter::direct_first(Grouping::Cliques(map.clone()), 8);

    let run = |router: &dyn sorn::sim::Router| {
        let mut eng = Engine::new(SimConfig::default(), &sched, router);
        eng.add_flows(mesh(16, 1250)).unwrap();
        assert!(eng.run_until_drained(2_000_000).unwrap());
        (eng.metrics().mean_hops(), eng.metrics().flows.len())
    };
    let (hops_plain, n1) = run(&plain);
    let (hops_adaptive, n2) = run(&adaptive);
    assert_eq!(n1, n2);
    assert!(
        hops_adaptive < hops_plain,
        "adaptive {hops_adaptive} should beat plain {hops_plain}"
    );
}

#[test]
fn opera_frozen_epoch_short_flows_have_low_latency() {
    // Opera's pitch: short flows see an always-available expander path.
    // At a frozen epoch, single-cell flows complete within (diameter x
    // one active cycle) with no schedule-period wait.
    let om = OperaModel::new(64, 8, 0.75, 4, 9).unwrap();
    let sched = om.frozen_schedule(0, 4).unwrap();
    let router = OperaShortRouter::new(&om, 0, 4).expect("connected");
    let mut eng = Engine::new(SimConfig::default(), &sched, &router);
    let flows: Vec<Flow> = (0..32u32)
        .map(|i| Flow {
            id: FlowId(i as u64),
            src: NodeId(i % 64),
            dst: NodeId((i + 31) % 64),
            size_bytes: 1,
            arrival_ns: i as u64 * 10,
        })
        .collect();
    eng.add_flows(flows).unwrap();
    assert!(eng.run_until_drained(100_000).unwrap());
    let worst_fct = eng
        .metrics()
        .flows
        .iter()
        .map(|f| f.fct_ns())
        .max()
        .unwrap();
    // diameter hops, each waiting at most the 6-slot active cycle.
    let bound = router.diameter() as u64 * (6 * 100 + 500) + 100;
    assert!(worst_fct <= bound, "worst {worst_fct} > bound {bound}");

    // Contrast: the same flows on a 1D round robin wait for the direct
    // circuit — worst case near the full 63-slot period.
    let rr = round_robin(64).unwrap();
    let vlb = SornRouter::flat();
    let mut eng2 = Engine::new(SimConfig::default(), &rr, &vlb);
    eng2.add_flows(
        (0..32u32)
            .map(|i| Flow {
                id: FlowId(i as u64),
                src: NodeId(i % 64),
                dst: NodeId((i + 31) % 64),
                size_bytes: 1,
                arrival_ns: i as u64 * 10,
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert!(eng2.run_until_drained(100_000).unwrap());
    let worst_vlb = eng2
        .metrics()
        .flows
        .iter()
        .map(|f| f.fct_ns())
        .max()
        .unwrap();
    assert!(
        worst_fct < worst_vlb,
        "frozen-expander short flows ({worst_fct}) should beat 1D VLB ({worst_vlb})"
    );
}

#[test]
fn live_update_from_flat_to_cliques_keeps_traffic_flowing() {
    // §5 end-to-end at packet level: start on a flat round robin with
    // VLB, then the operator installs a clique schedule whose router has
    // a different class set — so the drain procedure is: quiesce (run
    // down in-flight), swap schedule+router via a new engine, re-inject
    // leftovers. Here we exercise the supported in-place path: same
    // router classes, new schedule (a q rebalance).
    let map = CliqueMap::contiguous(16, 4);
    let s_q4 = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(4))).unwrap();
    let s_q1 = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(1))).unwrap();
    let router = SornRouter::new(map.clone());
    let mut eng = Engine::new(SimConfig::default(), &s_q4, &router);
    eng.add_flows(mesh(16, 5 * 1250)).unwrap();
    eng.run_slots(50).unwrap();
    let before = eng.metrics().delivered_cells;
    // Install the rebalanced schedule mid-run; routing decisions stay
    // valid (same cliques), so no reroute is strictly needed — but run
    // it anyway to exercise the path.
    eng.install_schedule(&s_q1);
    eng.reroute_queued().unwrap();
    assert!(eng.run_until_drained(2_000_000).unwrap());
    assert!(eng.metrics().delivered_cells > before);
    assert_eq!(eng.metrics().flows.len(), 16 * 15);
}

#[test]
fn diurnal_windows_feed_the_estimator_consistently() {
    let map = CliqueMap::contiguous(16, 4);
    let wl = DiurnalWorkload {
        cliques: map.clone(),
        pattern: DiurnalPattern {
            period_ns: 1_000_000,
            mean_load: 0.3,
            amplitude: 0.5,
            locality_peak: 0.8,
            locality_trough: 0.2,
        },
        sizes: FlowSizeDist::fixed(4_000),
        node_bandwidth_bytes_per_ns: 12.5,
        duration_ns: 1_000_000,
        seed: 23,
    };
    let flows = wl.generate();
    let windows = wl.windows(&flows, 250_000);
    assert_eq!(windows.len(), 4);
    let total: usize = windows.iter().map(|w| w.len()).sum();
    assert_eq!(total, flows.len(), "windowing must not lose flows");

    let mut est = sorn::control::PatternEstimator::new(16, 1.0);
    for w in &windows {
        est.observe_flows(w);
    }
    est.end_epoch();
    let total_bytes: f64 = flows.iter().map(|f| f.size_bytes as f64).sum();
    assert!((est.total() - total_bytes).abs() < 1e-6);
}
