//! Reproduction assertions: the key quantitative claims of the paper
//! must hold on this implementation (shape and, where printed, values).

use sorn::analysis::blast_radius::blast_radius;
use sorn::analysis::fig2f::{generate, Fig2fParams};
use sorn::analysis::table1::{generate as table1, Table1Params};
use sorn::core::{model, SornConfig, SornNetwork};
use sorn::routing::{SornPaths, VlbPaths, VlbRouter};
use sorn::sim::{Engine, Flow, FlowId, Router, SimConfig};
use sorn::topology::builders::round_robin;
use sorn::topology::{CircuitSchedule, CliqueMap, NodeId};

#[test]
fn table1_values_match_the_paper() {
    let rows = table1(&Table1Params::default());
    let find = |sys: &str, var: Option<&str>| {
        rows.iter()
            .find(|r| r.system.contains(sys) && r.variant.as_deref() == var)
            .unwrap_or_else(|| panic!("missing row {sys}/{var:?}"))
    };

    // 1D ORN (Sirius): 2 hops, δm 4095, 26.59 µs, 50%, 2x.
    let sirius = find("1D", None);
    assert_eq!(sirius.max_hops, 2);
    assert_eq!(sirius.delta_m as u64, 4095);
    assert!((sirius.min_latency_ns / 1000.0 - 26.59).abs() < 0.01);
    assert_eq!(sirius.throughput, 0.5);

    // Opera: short 4 hops / δm 0 / 2 µs; bulk 2 hops / δm 4095 /
    // 23,034 µs; both 31.25% and 3.2x.
    let short = find("Opera", Some("short flows"));
    assert_eq!((short.max_hops, short.delta_m as u64), (4, 0));
    assert!((short.min_latency_ns / 1000.0 - 2.0).abs() < 1e-9);
    assert!((short.throughput - 0.3125).abs() < 1e-9);
    let bulk = find("Opera", Some("bulk"));
    assert_eq!(bulk.delta_m as u64, 4095);
    assert!((bulk.min_latency_ns / 1000.0 - 23_034.4).abs() < 1.0);

    // 2D ORN: 4 hops, δm 252, 3.57 µs, 25%, 4x.
    let d2 = find("2D", None);
    assert_eq!((d2.max_hops, d2.delta_m as u64), (4, 252));
    assert!((d2.min_latency_ns / 1000.0 - 3.575).abs() < 0.01);
    assert_eq!(d2.throughput, 0.25);

    // SORN Nc=64: intra 77 slots / 1.48 µs, inter 364 / 3.77 µs,
    // 40.98%, 2.44x. SORN Nc=32: 155 / 1.97 µs, 296 / 3.35 µs.
    let s64i = find("Nc=64", Some("intra-clique"));
    assert_eq!(s64i.delta_m.ceil() as u64, 77);
    assert!((s64i.min_latency_ns / 1000.0 - 1.48).abs() < 0.01);
    assert!((s64i.throughput - 0.4098).abs() < 1e-3);
    assert!((s64i.bw_cost - 2.44).abs() < 1e-9);
    let s64e = find("Nc=64", Some("inter-clique"));
    assert_eq!(s64e.delta_m.ceil() as u64, 364);
    assert!((s64e.min_latency_ns / 1000.0 - 3.77).abs() < 0.01);
    let s32i = find("Nc=32", Some("intra-clique"));
    assert_eq!(s32i.delta_m.ceil() as u64, 155);
    assert!((s32i.min_latency_ns / 1000.0 - 1.97).abs() < 0.01);
    let s32e = find("Nc=32", Some("inter-clique"));
    assert_eq!(s32e.delta_m.ceil() as u64, 296);
    assert!((s32e.min_latency_ns / 1000.0 - 3.35).abs() < 0.01);
}

#[test]
fn table1_shape_who_wins_where() {
    let rows = table1(&Table1Params::default());
    let by = |sys: &str, var: Option<&str>| {
        rows.iter()
            .find(|r| r.system.contains(sys) && r.variant.as_deref() == var)
            .unwrap()
    };
    // Ordering claims from §4's discussion of the table:
    // SORN cuts latency by an order of magnitude vs the 1D ORN.
    assert!(
        by("Nc=64", Some("intra-clique")).min_latency_ns * 10.0 <= by("1D", None).min_latency_ns
    );
    // SORN intra beats both the 2D ORN and Opera bulk.
    assert!(by("Nc=64", Some("intra-clique")).min_latency_ns < by("2D", None).min_latency_ns);
    // Throughput: 1D > SORN > Opera > 2D.
    assert!(by("1D", None).throughput > by("Nc=64", Some("intra-clique")).throughput);
    assert!(by("Nc=64", Some("intra-clique")).throughput > by("Opera", Some("bulk")).throughput);
    assert!(by("Opera", Some("bulk")).throughput > by("2D", None).throughput);
    // Bandwidth cost: inverse ordering.
    assert!(by("1D", None).bw_cost < by("Nc=64", Some("intra-clique")).bw_cost);
    assert!(by("Nc=64", Some("intra-clique")).bw_cost < by("Opera", Some("bulk")).bw_cost);
    assert!(by("Opera", Some("bulk")).bw_cost < by("2D", None).bw_cost);
}

#[test]
fn fig2f_series_reproduces_the_paper_shape() {
    // Full paper-scale figure: 128 nodes, 8 cliques.
    let pts = generate(&Fig2fParams::default()).expect("figure");
    assert_eq!(pts.len(), 10);
    for p in &pts {
        // The constructed schedule achieves (at least) the theory curve.
        assert!(
            (p.simulated - p.theory).abs() < 0.02,
            "x={}: sim {} vs theory {}",
            p.x,
            p.simulated,
            p.theory
        );
    }
    // r bounded between 1/3 and 1/2, increasing in x (§4).
    assert!((pts[0].simulated - 1.0 / 3.0).abs() < 0.01);
    assert!(pts.last().unwrap().simulated < 0.5);
    for w in pts.windows(2) {
        assert!(w[1].simulated > w[0].simulated);
    }
    // At the production median x = 0.56 the model gives ~41%.
    let r56 = model::optimal_throughput(0.56);
    assert!((r56 - 0.4098).abs() < 1e-3);
}

#[test]
fn modularity_shrinks_blast_radius() {
    let n = 64;
    let flat = blast_radius(n, &VlbPaths::new(n));
    let sorn8 = blast_radius(n, &SornPaths::new(CliqueMap::contiguous(n, 8)));
    // §6: modular designs reduce failure exposure significantly.
    assert!(sorn8.mean_exposure * 3.0 < flat.mean_exposure);
}

/// Sends one single-cell flow between every ordered pair of `n` nodes
/// (flow `i` is the `i`-th pair) with link 0 -> 1 failed for the whole
/// run, and returns the flows still incomplete after 20 000 slots.
fn stuck_with_link_0_1_failed(
    n: u32,
    schedule: &CircuitSchedule,
    router: &dyn Router,
) -> Vec<Flow> {
    let flows: Vec<Flow> = (0..n)
        .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
        .enumerate()
        .map(|(i, (s, d))| Flow {
            id: FlowId(i as u64),
            src: NodeId(s),
            dst: NodeId(d),
            size_bytes: 1250,
            arrival_ns: 0,
        })
        .collect();
    let mut eng = Engine::new(SimConfig::default(), schedule, router);
    eng.add_flows(flows.clone()).unwrap();
    eng.failures_mut().fail_link(NodeId(0), NodeId(1));
    eng.run_until_drained(20_000).unwrap();
    let done: std::collections::HashSet<FlowId> =
        eng.metrics().flows.iter().map(|f| f.id).collect();
    flows
        .into_iter()
        .filter(|f| !done.contains(&f.id))
        .collect()
}

#[test]
fn a_failed_link_strands_only_flows_of_its_clique() {
    // §6, in the packet simulator: with link 0 -> 1 down, the flows a
    // modular SORN leaves stuck all start or end in the failed link's
    // clique (nodes 0..8 of 32 in 4 cliques). EXPERIMENTS.md records
    // the counts: 1 flow stuck under flat VLB, 4 under SORN.
    let n = 32;
    let flat = stuck_with_link_0_1_failed(n, &round_robin(n as usize).unwrap(), &VlbRouter::new());
    assert_eq!(flat.len(), 1, "flat VLB: {flat:?}");

    let net = SornNetwork::build(SornConfig::small(n as usize, 4, 0.5)).unwrap();
    let sorn = stuck_with_link_0_1_failed(n, net.schedule(), net.router());
    assert!(!sorn.is_empty(), "the failed link must strand some flow");
    for f in &sorn {
        assert!(f.src.0 < 8 || f.dst.0 < 8, "{f:?} is outside clique 0");
    }
    assert_eq!(sorn.len(), 4, "SORN: {sorn:?}");
}

#[test]
fn ideal_q_maximizes_throughput() {
    // §4: q* = 2/(1-x) balances intra and inter bounds. Check it is the
    // argmax over a grid for several localities.
    for &x in &[0.0, 0.3, 0.56, 0.8] {
        let q_star = model::ideal_q(x);
        let best = model::throughput(q_star, x);
        for i in 1..100 {
            let q = i as f64 * 0.25;
            assert!(
                model::throughput(q, x) <= best + 1e-12,
                "q={q} beats q*={q_star} at x={x}"
            );
        }
    }
}
