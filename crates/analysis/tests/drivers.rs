//! Integration tests for the experiments' computations — exercising
//! them the way the `sorn-cli` commands do, with assertions on the
//! shapes the paper claims.

use sorn_analysis::ablation_routing::{find_saturation, LoadedWorkload};
use sorn_analysis::adaptation::run_with_decisions;
use sorn_analysis::blast_radius::blast_radius;
use sorn_analysis::fct::{bucketed_slowdown, ideal_fct_ns, DEFAULT_BUCKETS};
use sorn_analysis::sync_domains::{flat_sync, sorn_sync, SyncModel};
use sorn_analysis::table1::{generate, Table1Params};
use sorn_base::rng::Rng;
use sorn_control::ControlConfig;
use sorn_routing::{SornPaths, SornRouter, VlbPaths};
use sorn_sim::{Flow, FlowId, SimConfig};
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, NodeId, Ratio};

#[test]
fn blast_radius_shrinks_monotonically_with_clique_count() {
    let n = 64;
    let mut last = blast_radius(n, &VlbPaths::new(n)).mean_exposure;
    for nc in [4usize, 8, 16] {
        let r = blast_radius(n, &SornPaths::new(CliqueMap::contiguous(n, nc)));
        assert!(
            r.mean_exposure < last,
            "Nc={nc}: exposure {} did not shrink from {last}",
            r.mean_exposure
        );
        last = r.mean_exposure;
    }
}

#[test]
fn sync_efficiency_improves_monotonically_with_modularity() {
    let m = SyncModel::default();
    let mut last = flat_sync(4096, &m).efficiency;
    for nc in [16usize, 32, 64, 128] {
        let s = sorn_sync(4096, nc, 4.0, &m);
        assert!(s.efficiency > last, "Nc={nc}");
        last = s.efficiency;
    }
}

#[test]
fn table1_is_internally_consistent() {
    // Throughput and BW cost are reciprocals in every row; latency is
    // monotone in delta_m for rows sharing slot time.
    let rows = generate(&Table1Params::default());
    for r in &rows {
        assert!(
            (r.throughput * r.bw_cost - 1.0).abs() < 1e-6,
            "{}: thpt {} x bw {} != 1",
            r.system,
            r.throughput,
            r.bw_cost
        );
        assert!(r.min_latency_ns > 0.0);
    }
}

/// Deterministic clique-local single-cell workload.
struct TestWorkload {
    map: CliqueMap,
    duration_ns: u64,
}

impl LoadedWorkload for TestWorkload {
    fn flows_at(&self, load: f64) -> Vec<Flow> {
        use sorn_traffic::spatial::{CliqueLocal, SpatialModel};
        let mut rng = Rng::seed_from_u64(5);
        let spatial = CliqueLocal::new(self.map.clone(), 0.5);
        let slots = self.duration_ns / 100;
        let mut flows = Vec::new();
        let mut id = 0u64;
        for s in 0..self.map.n() as u32 {
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.gen::<f64>().max(1e-300);
                t += -u.ln() / load;
                if t as u64 >= slots {
                    break;
                }
                flows.push(Flow {
                    id: FlowId(id),
                    src: NodeId(s),
                    dst: spatial.pick_dst(NodeId(s), &mut rng),
                    size_bytes: 1250,
                    arrival_ns: (t as u64) * 100,
                });
                id += 1;
            }
        }
        flows.sort_by_key(|f| f.arrival_ns);
        flows
    }
    fn duration_ns(&self) -> u64 {
        self.duration_ns
    }
}

#[test]
fn sorn_saturation_brackets_the_model_prediction() {
    // x = 0.5 => r* = 0.4; the measured saturation must land near it.
    let map = CliqueMap::contiguous(16, 4);
    let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(4))).unwrap();
    let router = SornRouter::new(map.clone());
    let wl = TestWorkload {
        map,
        duration_ns: 300_000,
    };
    let res = find_saturation(&sched, &router, SimConfig::default(), &wl, 0.15, 0.9, 4, 60);
    assert!(
        res.stable_load > 0.25 && res.stable_load < 0.55,
        "saturation {} far from the r* = 0.4 prediction",
        res.stable_load
    );
    assert!(res.unstable_load.is_some());
}

#[test]
fn slowdown_buckets_cover_all_flows() {
    let cfg = SimConfig::default();
    let flows: Vec<sorn_sim::FlowRecord> = (0..50)
        .map(|i| sorn_sim::FlowRecord {
            id: FlowId(i),
            size_bytes: 500 * (i + 1),
            arrival_ns: 0,
            completion_ns: ideal_fct_ns(500 * (i + 1), &cfg) * 2,
            max_hops: 2,
        })
        .collect();
    let buckets = bucketed_slowdown(&flows, &cfg, &DEFAULT_BUCKETS);
    let total: usize = buckets.iter().map(|b| b.flows).sum();
    assert_eq!(total, 50);
    for b in buckets.iter().filter(|b| b.flows > 0) {
        // Every flow was built with exactly 2x slowdown.
        assert!((b.mean_slowdown - 2.0).abs() < 1e-9, "{b:?}");
    }
}

#[test]
fn adaptation_driver_respects_no_lookahead() {
    // Epoch 0's adaptive score must equal the static score (both start
    // from the same configuration; the loop cannot see epoch 0's traffic
    // before scoring it).
    let n = 16;
    let mut flows = Vec::new();
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s != d {
                flows.push(Flow {
                    id: FlowId(0),
                    src: NodeId(s),
                    dst: NodeId(d),
                    size_bytes: if s % 4 == d % 4 { 9_000 } else { 300 },
                    arrival_ns: 0,
                });
            }
        }
    }
    let mut cfg = ControlConfig::default();
    cfg.allowed_sizes = vec![4];
    cfg.alpha = 1.0;
    let (epochs, _) = run_with_decisions(n, 4, Ratio::integer(2), cfg, &[(2, flows)]).unwrap();
    assert_eq!(epochs.len(), 2);
    assert!(
        (epochs[0].adaptive_throughput - epochs[0].static_throughput).abs() < 1e-12,
        "epoch 0 must not benefit from lookahead"
    );
    assert!(epochs[1].adaptive_throughput >= epochs[0].adaptive_throughput);
}
