//! Serial/parallel equivalence: `SimConfig::engine_threads` must never
//! change a single observable bit of a run.
//!
//! The sharded engine's determinism argument (per-node RNG streams,
//! node-owned queue mutations, canonical node-ordered merges — see
//! DESIGN.md §10) is checked here end to end: every scenario runs at
//! 1, 2, 3, and 4 threads and the full [`Metrics`] structs — flow
//! records in order, latency histograms, link matrices — must compare
//! equal, along with the queue and stranded counters.
//!
//! Two layers:
//!
//! - seeded `#[test]` sweeps that always run (a fixed grid of sizes,
//!   uplink counts, loads, fault scripts, and a mid-run schedule swap);
//! - a `proptest` that draws whole scenarios — topology size, workload,
//!   outages, thread count — at random.

use proptest::prelude::*;
use sorn_sim::{
    Cell, ClassId, Engine, Flow, FlowId, Metrics, NodeRng, RouteDecision, Router, SimConfig,
};
use sorn_topology::builders::round_robin;
use sorn_topology::NodeId;

/// A two-hop spray router that consumes the per-node RNG stream and
/// exercises both queue kinds: each cell flips a coin between going
/// direct (`ToNode`) and riding the spray class over whatever circuit
/// comes up first. Decision order therefore matters — any reordering
/// of `decide` calls at a node shows up as a different run.
struct CoinSprayRouter;

const SPRAY: ClassId = ClassId(0);

impl Router for CoinSprayRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, rng: &mut NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        if cell.tag == 0 {
            cell.tag = 1;
            if rng.gen_range(2) == 0 {
                return RouteDecision::ToClass(SPRAY);
            }
        }
        RouteDecision::ToNode(cell.dst)
    }

    fn class_admits(&self, _class: ClassId, cell: &Cell, from: NodeId, to: NodeId) -> bool {
        to != from && to != cell.src
    }

    fn classes(&self) -> &[ClassId] {
        std::slice::from_ref(&SPRAY)
    }

    fn max_hops(&self) -> u8 {
        4
    }

    fn name(&self) -> &str {
        "coin-spray"
    }
}

/// One fully-specified scenario; everything a run depends on.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    uplinks: usize,
    seed: u64,
    flows: Vec<Flow>,
    /// `(src, dst, from_ns, until_ns)` link outages.
    outages: Vec<(u32, u32, u64, u64)>,
    /// Node taken down for a window, if any: `(node, from_ns, until_ns)`.
    node_outage: Option<(u32, u64, u64)>,
    /// Swap to a fresh schedule + reroute after this many slots.
    swap_after_slots: Option<u64>,
}

/// Generates a seeded workload without any external RNG: the simulator's
/// own counter-based stream doubles as the scenario generator.
fn seeded_flows(n: usize, seed: u64, count: usize) -> Vec<Flow> {
    let mut rng = NodeRng::for_node(seed, u32::MAX);
    (0..count)
        .map(|i| {
            let src = rng.gen_range(n as u64) as u32;
            let mut dst = rng.gen_range(n as u64) as u32;
            if dst == src {
                dst = (dst + 1) % n as u32;
            }
            Flow {
                id: FlowId(i as u64),
                src: NodeId(src),
                dst: NodeId(dst),
                size_bytes: (1 + rng.gen_range(6)) * 1250,
                arrival_ns: rng.gen_range(2_000),
            }
        })
        .collect()
}

/// Runs the scenario at the given thread count and returns everything
/// observable: final metrics, queued cells, in-flight cells, stranded
/// count.
fn run(sc: &Scenario, threads: usize) -> (Metrics, usize, usize, u64) {
    let sched = round_robin(sc.n).unwrap();
    let swap_sched = round_robin(sc.n).unwrap();
    let router = CoinSprayRouter;
    let cfg = SimConfig {
        uplinks: sc.uplinks,
        seed: sc.seed,
        engine_threads: threads,
        ..SimConfig::default()
    };
    let mut eng = Engine::new(cfg, &sched, &router);
    eng.add_flows(sc.flows.clone()).unwrap();
    let mut plan = sorn_sim::FaultPlan::new();
    for &(s, d, from, until) in &sc.outages {
        plan.link_outage(NodeId(s), NodeId(d), from, until);
    }
    if let Some((v, from, until)) = sc.node_outage {
        plan.node_outage(NodeId(v), from, until);
    }
    eng.set_fault_plan(plan);
    if let Some(slots) = sc.swap_after_slots {
        eng.run_slots(slots).unwrap();
        eng.install_schedule(&swap_sched);
        eng.reroute_queued().unwrap();
    }
    eng.run_until_drained(100_000).unwrap();
    let queued = eng.total_queued();
    let inflight = eng.inflight_cells();
    let stranded = eng.count_stranded();
    (eng.metrics().clone(), queued, inflight, stranded)
}

/// Asserts bit-identical outcomes at 1, 2, 3, and 4 engine threads.
fn assert_thread_invariant(sc: &Scenario) {
    let serial = run(sc, 1);
    for threads in [2, 3, 4] {
        let par = run(sc, threads);
        assert_eq!(
            serial, par,
            "threads={threads} diverged from serial on {sc:?}"
        );
    }
}

#[test]
fn healthy_runs_match_at_any_thread_count() {
    for (n, uplinks, flows, seed) in [
        (4, 1, 30, 1u64),
        (8, 2, 80, 2),
        (12, 3, 150, 3),
        (16, 4, 250, 4),
        // The engine shards in whole 64-node occupancy words, so only a
        // fabric above 64 nodes runs more than one shard: 200 nodes are
        // four shards at four threads, the last one short.
        (200, 2, 1_500, 9),
    ] {
        assert_thread_invariant(&Scenario {
            n,
            uplinks,
            seed,
            flows: seeded_flows(n, seed, flows),
            outages: vec![],
            node_outage: None,
            swap_after_slots: None,
        });
    }
}

#[test]
fn faulted_runs_match_at_any_thread_count() {
    for (n, flows, seed, node_outage) in [
        (10, 120, 5u64, None),
        (10, 120, 6, Some((3u32, 300u64, 2_500u64))),
        // Multi-shard, as in the healthy sweep: cells for the failed
        // links and node strand at senders in all four shards.
        (200, 1_500, 8, Some((3, 300, 2_500))),
    ] {
        assert_thread_invariant(&Scenario {
            n,
            uplinks: 2,
            seed,
            flows: seeded_flows(n, seed, flows),
            outages: vec![(0, 1, 100, 2_000), (2, 5, 400, 1_500), (7, 3, 0, 3_000)],
            node_outage,
            swap_after_slots: None,
        });
    }
}

#[test]
fn schedule_swap_runs_match_at_any_thread_count() {
    assert_thread_invariant(&Scenario {
        n: 12,
        uplinks: 2,
        seed: 7,
        flows: seeded_flows(12, 7, 140),
        outages: vec![(1, 2, 200, 1_800)],
        node_outage: Some((5, 250, 1_000)),
        swap_after_slots: Some(8),
    });
}

proptest! {
    /// Any scenario this strategy can draw — topology size, uplink
    /// count, workload, outage script, optional node outage, optional
    /// mid-run schedule swap — produces identical metrics at every
    /// thread count.
    #[test]
    fn serial_equals_parallel_for_random_scenarios(
        n in 4usize..14,
        uplinks in 1usize..4,
        seed in 0u64..1_000,
        flow_count in 10usize..120,
        outages in proptest::collection::vec(
            (0u32..14, 0u32..14, 0u64..2_000, 1u64..3_000), 0..5),
        node_outage in proptest::option::of((0u32..14, 0u64..1_000, 1u64..2_500)),
        swap_after in proptest::option::of(1u64..16),
        threads in 2usize..6,
    ) {
        let sc = Scenario {
            n,
            uplinks,
            seed,
            flows: seeded_flows(n, seed, flow_count),
            outages: outages
                .into_iter()
                .filter(|&(s, d, _, _)| s != d && (s as usize) < n && (d as usize) < n)
                .map(|(s, d, from, len)| (s, d, from, from + len))
                .collect(),
            node_outage: node_outage
                .filter(|&(v, _, _)| (v as usize) < n)
                .map(|(v, from, len)| (v, from, from + len)),
            swap_after_slots: swap_after,
        };
        prop_assert_eq!(run(&sc, 1), run(&sc, threads));
    }
}
