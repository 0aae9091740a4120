//! Engine-level equivalence of the two admission paths.
//!
//! A router that answers `Router::circuit_admits` has its class queues
//! popped or skipped whole; one that leaves the default `None` has them
//! scanned cell by cell with `class_admits`. `PerCellOnly` hides the
//! former behind the latter — which is also what any forwarding wrapper
//! written before `circuit_admits` existed does — so a run through it
//! must produce the same `Metrics`, field for field, as the bare router,
//! and the same at two engine threads as at one.

use sorn_routing::{Grouping, HierarchicalRouter, SornRouter};
use sorn_sim::{
    Cell, ClassId, Engine, FaultPlan, FaultStorm, Flow, FlowId, LinkHealth, Metrics, NodeRng,
    RouteDecision, Router, SimConfig,
};
use sorn_topology::builders::{
    hierarchical_schedule, round_robin, sorn_schedule, HierarchySpec, SornScheduleParams,
};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio};

/// Forwards everything except `circuit_admits`, which keeps the trait's
/// default: "ask per cell".
struct PerCellOnly<R>(R);

impl<R: Router> Router for PerCellOnly<R> {
    fn decide(&self, node: NodeId, cell: &mut Cell, rng: &mut NodeRng) -> RouteDecision {
        self.0.decide(node, cell, rng)
    }
    fn class_admits(&self, class: ClassId, cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.0.class_admits(class, cell, from, to)
    }
    fn on_transmit(&self, cell: &mut Cell, from: NodeId, to: NodeId) {
        self.0.on_transmit(cell, from, to)
    }
    fn classes(&self) -> &[ClassId] {
        self.0.classes()
    }
    fn max_hops(&self) -> u8 {
        self.0.max_hops()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A few hundred flows with a heavy tail, so that some class queues run
/// hundreds of cells deep while most hold a handful; `locality` of them
/// stay inside the source's clique of `clique_size` consecutive nodes.
fn flows(n: u32, clique_size: u32, locality: f64, count: u64, seed: u64) -> Vec<Flow> {
    let mut rng = NodeRng::for_node(seed, 0);
    (0..count)
        .map(|id| {
            let src = rng.gen_range(n as u64) as u32;
            let dst = loop {
                let d = if rng.gen_f64() < locality {
                    src / clique_size * clique_size + rng.gen_range(clique_size as u64) as u32
                } else {
                    rng.gen_range(n as u64) as u32
                };
                if d != src {
                    break d;
                }
            };
            let cells = if rng.gen_range(10) == 0 {
                200 + rng.gen_range(400)
            } else {
                1 + rng.gen_range(12)
            };
            Flow {
                id: FlowId(id),
                src: NodeId(src),
                dst: NodeId(dst),
                size_bytes: cells * 1250,
                arrival_ns: rng.gen_range(200_000),
            }
        })
        .collect()
}

/// What a run needs besides the router: a fault plan with the health
/// view the router reads, and how many plain slots to run before
/// draining so that the plan plays out in full.
type Faults = Option<(FaultPlan, LinkHealth, u64)>;

fn run(
    schedule: &CircuitSchedule,
    router: &dyn Router,
    flows: &[Flow],
    threads: usize,
    faults: Faults,
) -> Metrics {
    let cfg = SimConfig {
        seed: 7,
        engine_threads: threads,
        ..SimConfig::default()
    };
    let mut eng = Engine::new(cfg, schedule, router);
    eng.add_flows(flows.to_vec()).unwrap();
    if let Some((plan, health, storm_slots)) = faults {
        eng.set_health_mirror(health);
        eng.set_fault_plan(plan);
        eng.run_slots(storm_slots).unwrap();
    }
    assert!(eng.run_until_drained(2_000_000).unwrap(), "did not drain");
    eng.metrics().clone()
}

/// Runs the router `make` builds bare and behind `PerCellOnly`, at one
/// and two engine threads, and requires identical `Metrics`. `make` is
/// called once per run so that every engine gets its own health view and
/// router state. Returns the bare metrics for scenario-specific checks.
fn assert_paths_agree<R: Router>(
    what: &str,
    schedule: &CircuitSchedule,
    flows: &[Flow],
    make: impl Fn() -> (R, Faults),
) -> Metrics {
    let mut first = None;
    for threads in [1, 2] {
        let (router, faults) = make();
        let bare = run(schedule, &router, flows, threads, faults);
        let (router, faults) = make();
        let wrapped = run(schedule, &PerCellOnly(router), flows, threads, faults);
        // Named fields first, so a failure says where the runs parted.
        assert_eq!(bare.slots, wrapped.slots, "{what} x{threads}: slots");
        assert_eq!(
            bare.hop_histogram, wrapped.hop_histogram,
            "{what} x{threads}: hop histogram"
        );
        assert!(
            bare.cell_latency == wrapped.cell_latency,
            "{what} x{threads}: latency histogram"
        );
        assert!(
            bare.link_transmissions == wrapped.link_transmissions,
            "{what} x{threads}: link matrix"
        );
        assert!(bare.flows == wrapped.flows, "{what} x{threads}: flows");
        assert!(bare == wrapped, "{what} x{threads}: metrics");
        assert!(
            *first.get_or_insert(bare.clone()) == bare,
            "{what}: x{threads} != x1"
        );
    }
    first.expect("ran at least once")
}

#[test]
fn sorn_on_the_fig2f_fabric() {
    // 128 nodes, 8 cliques, x = 0.56, q = q*(x) with the figure's
    // denominator cap.
    let map = CliqueMap::contiguous(128, 8);
    let q = Ratio::approximate(2.0 / (1.0 - 0.56), 64);
    let schedule = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
    let offered = flows(128, 16, 0.56, 400, 1);
    let bare = assert_paths_agree("sorn", &schedule, &offered, || {
        (SornRouter::new(map.clone()), None)
    });
    assert!(
        bare.peak_queue_depth > 100,
        "queues too shallow to tell a scan from a pop: {}",
        bare.peak_queue_depth
    );
}

#[test]
fn flat_vlb_on_two_shards() {
    // 200 nodes span four 64-node words, which 2 engine threads split
    // into two shards.
    let schedule = round_robin(200).unwrap();
    let offered = flows(200, 200, 0.0, 400, 4);
    let bare = assert_paths_agree("vlb", &schedule, &offered, || (SornRouter::flat(), None));
    assert!(bare.peak_queue_depth > 100, "{}", bare.peak_queue_depth);
}

#[test]
fn direct_first_in_both_groupings() {
    let schedule = round_robin(200).unwrap();
    let offered = flows(200, 200, 0.0, 400, 5);
    assert_paths_agree("adaptive vlb", &schedule, &offered, || {
        (SornRouter::direct_first(Grouping::Flat, 4), None)
    });
    let map = CliqueMap::contiguous(200, 8);
    let schedule = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
    let offered = flows(200, 25, 0.6, 400, 6);
    assert_paths_agree("adaptive sorn", &schedule, &offered, || {
        (
            SornRouter::direct_first(Grouping::Cliques(map.clone()), 4),
            None,
        )
    });
}

#[test]
fn fault_aware_sorn_under_a_storm() {
    let map = CliqueMap::contiguous(64, 4);
    let schedule = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
    let offered = flows(64, 16, 0.7, 300, 2);
    let plan = FaultPlan::storm(&FaultStorm {
        seed: 3,
        horizon_ns: 300_000,
        mtbf_ns: 50_000.0,
        mttr_ns: 10_000.0,
        links: (0..8u32)
            .map(|k| (NodeId(k * 8), NodeId(k * 8 + 1)))
            .collect(),
        nodes: vec![NodeId(9)],
    });
    let storm_slots = 300_000 / SimConfig::default().slot_ns;
    let bare = assert_paths_agree("fault-aware sorn", &schedule, &offered, || {
        let health = LinkHealth::new();
        (
            SornRouter::fault_aware(Grouping::Cliques(map.clone()), health.clone()),
            Some((plan.clone(), health, storm_slots)),
        )
    });
    assert!(
        bare.failure_slots > 0,
        "the storm never degraded the fabric"
    );
}

#[test]
fn hierarchical_three_levels() {
    let spec = HierarchySpec::new(vec![4, 4, 4], vec![6, 2, 1]).unwrap();
    let schedule = hierarchical_schedule(&spec, 1 << 20).unwrap();
    let offered = flows(64, 4, 0.5, 300, 3);
    assert_paths_agree("hierarchical", &schedule, &offered, || {
        (HierarchicalRouter::new(spec.clone()), None)
    });
}
