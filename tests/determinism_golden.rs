//! Determinism golden test for the simulation hot path.
//!
//! A fixed 32-node scenario is pushed through two routing schemes and
//! the resulting metrics — `delivered_cells`, `cell_latency_sum_ns`,
//! `transmissions`, and every per-flow `completion_ns` — are compared
//! against snapshotted constants. Any hot-path change (queue layout,
//! arrival calendar, flow bookkeeping) must reproduce these values
//! bit-for-bit: same configuration in, identical `Metrics` out.
//!
//! Both schemes are RNG-free (the engine only touches its seeded RNG
//! inside `Router::decide`), so the constants are independent of the
//! RNG implementation and hold on every platform.
//!
//! To regenerate after an *intentional* semantic change, run
//!
//! ```text
//! cargo test --test determinism_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed tables over the constants below.

use sorn_routing::HierarchicalRouter;
use sorn_sim::{
    Cell, ClassId, DirectRouter, Engine, Flow, FlowId, Metrics, NodeRng, RouteDecision, Router,
    SimConfig,
};
use sorn_topology::builders::{clique_of_cliques, round_robin, HierarchySpec};
use sorn_topology::{CliqueMap, NodeId};
use sorn_traffic::{spatial::CliqueLocal, FlowSizeDist, PoissonWorkload};

const N: usize = 32;
const FLOWS: usize = 16;
const MAX_SLOTS: u64 = 100_000;

/// The fixed workload: 16 flows with staggered arrivals, 1–5 cells each.
fn golden_flows() -> Vec<Flow> {
    (0..FLOWS as u64)
        .map(|i| Flow {
            id: FlowId(i),
            src: NodeId(((7 * i) % N as u64) as u32),
            dst: NodeId(((7 * i + 11) % N as u64) as u32),
            size_bytes: (i % 5 + 1) * 1250,
            arrival_ns: i * 230,
        })
        .collect()
}

/// A deterministic two-hop VLB-style scheme: the first hop sprays onto
/// whatever circuit is up (class queue), the second must be the direct
/// circuit to the destination. Never consults the RNG.
struct DetVlb;

const SPRAY: ClassId = ClassId(0);

impl Router for DetVlb {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut NodeRng) -> RouteDecision {
        if node == cell.dst {
            RouteDecision::Deliver
        } else {
            RouteDecision::ToClass(SPRAY)
        }
    }
    fn class_admits(&self, _class: ClassId, cell: &Cell, _from: NodeId, to: NodeId) -> bool {
        cell.hops == 0 || to == cell.dst
    }
    fn classes(&self) -> &[ClassId] {
        &[SPRAY]
    }
    fn max_hops(&self) -> u8 {
        2
    }
    fn name(&self) -> &str {
        "det-vlb"
    }
}

fn run_scheme(router: &dyn Router) -> Metrics {
    run_scheme_threaded(router, 1)
}

fn run_scheme_threaded(router: &dyn Router, engine_threads: usize) -> Metrics {
    let schedule = round_robin(N).expect("schedule");
    let cfg = SimConfig {
        engine_threads,
        ..SimConfig::default()
    };
    let mut eng = Engine::new(cfg, &schedule, router);
    eng.add_flows(golden_flows()).expect("flows in range");
    assert!(
        eng.run_until_drained(MAX_SLOTS).expect("run"),
        "golden scenario must drain"
    );
    eng.metrics().clone()
}

struct Golden {
    delivered_cells: u64,
    cell_latency_sum_ns: u128,
    transmissions: u64,
    /// `(flow id, completion_ns)` in completion order.
    completions: &'static [(u64, u64)],
}

fn check(metrics: &Metrics, want: &Golden, scheme: &str) {
    assert_eq!(
        metrics.delivered_cells, want.delivered_cells,
        "{scheme}: delivered_cells"
    );
    assert_eq!(
        metrics.cell_latency_sum_ns, want.cell_latency_sum_ns,
        "{scheme}: cell_latency_sum_ns"
    );
    assert_eq!(
        metrics.transmissions, want.transmissions,
        "{scheme}: transmissions"
    );
    let got: Vec<(u64, u64)> = metrics
        .flows
        .iter()
        .map(|f| (f.id.0, f.completion_ns))
        .collect();
    assert_eq!(got, want.completions, "{scheme}: per-flow completions");
}

const GOLDEN_DIRECT: Golden = Golden {
    delivered_cells: 46,
    cell_latency_sum_ns: 264700,
    transmissions: 46,
    completions: &[
        (0, 1600),
        (5, 4700),
        (10, 4700),
        (1, 4700),
        (15, 4700),
        (6, 7800),
        (11, 7800),
        (2, 7800),
        (3, 10900),
        (7, 10900),
        (12, 10900),
        (8, 14000),
        (13, 14000),
        (4, 14000),
        (9, 17100),
        (14, 17100),
    ],
};

const GOLDEN_SPRAY: Golden = Golden {
    delivered_cells: 46,
    cell_latency_sum_ns: 130500,
    transmissions: 90,
    completions: &[
        (0, 1500),
        (6, 3300),
        (5, 3500),
        (4, 3600),
        (3, 3900),
        (2, 4100),
        (1, 4300),
        (12, 5000),
        (11, 5200),
        (10, 5500),
        (9, 5700),
        (8, 5900),
        (7, 6000),
        (15, 7300),
        (13, 7500),
        (14, 7500),
    ],
};

#[test]
fn direct_scheme_matches_golden_metrics() {
    check(&run_scheme(&DirectRouter), &GOLDEN_DIRECT, "direct");
}

#[test]
fn spray_scheme_matches_golden_metrics() {
    check(&run_scheme(&DetVlb), &GOLDEN_SPRAY, "spray");
}

/// The parallel engine must reproduce the same golden constants — not
/// just match the serial run, but hit the identical committed snapshot
/// at every thread count.
#[test]
fn parallel_engine_matches_golden_metrics() {
    for threads in [2, 4] {
        check(
            &run_scheme_threaded(&DirectRouter, threads),
            &GOLDEN_DIRECT,
            &format!("direct@{threads}t"),
        );
        check(
            &run_scheme_threaded(&DetVlb, threads),
            &GOLDEN_SPRAY,
            &format!("spray@{threads}t"),
        );
    }
}

/// The warehouse fabric — 16 384 nodes, 128 racks of 128, hierarchical
/// routing — is 256 occupancy words, so two engine threads are two
/// 8 192-node shards where every input above is one. A 2 µs injection
/// window keeps the run short; the node count is what it is for. The
/// serial and sharded runs must agree on the whole `Metrics`.
#[test]
fn warehouse_fabric_matches_across_shards() {
    const RADICES: [usize; 2] = [128, 128];
    const DURATION_NS: u64 = 2_000;
    let n: usize = RADICES.iter().product();
    let flows = PoissonWorkload {
        n,
        load: 0.15,
        node_bandwidth_bytes_per_ns: 12.5,
        duration_ns: DURATION_NS,
        seed: 7,
    }
    .generate(
        &FlowSizeDist::fixed(10 * 1250),
        &CliqueLocal::new(CliqueMap::contiguous(n, n / RADICES[0]), 0.5),
    );
    let schedule = clique_of_cliques(RADICES.to_vec(), 1 << 20).expect("schedule");
    let spec = HierarchySpec::new(RADICES.to_vec(), vec![1; RADICES.len()]).expect("spec");
    let router = HierarchicalRouter::new(spec);
    let run = |engine_threads: usize| {
        let cfg = SimConfig {
            engine_threads,
            ..SimConfig::default()
        };
        // Each targeted hop can wait a full rotation for its circuit.
        let max_slots = DURATION_NS / cfg.slot_ns + 12 * schedule.period() as u64;
        let mut eng = Engine::new(cfg, &schedule, &router);
        eng.add_flows(flows.clone()).expect("flows in range");
        assert!(eng.run_until_drained(max_slots).expect("run"), "must drain");
        eng.metrics().clone()
    };
    let serial = run(1);
    assert!(serial.delivered_cells > 10_000, "a real workload ran");
    assert!(serial == run(2), "engine_threads=2 diverged from serial");
}

/// Regeneration helper: prints the golden constants for the current
/// engine. Ignored in normal runs.
#[test]
#[ignore = "generator for the constants above"]
fn print_golden_constants() {
    for (name, router) in [
        ("GOLDEN_DIRECT", &DirectRouter as &dyn Router),
        ("GOLDEN_SPRAY", &DetVlb as &dyn Router),
    ] {
        let m = run_scheme(router);
        println!("const {name}: Golden = Golden {{");
        println!("    delivered_cells: {},", m.delivered_cells);
        println!("    cell_latency_sum_ns: {},", m.cell_latency_sum_ns);
        println!("    transmissions: {},", m.transmissions);
        println!("    completions: &[");
        for f in &m.flows {
            println!("        ({}, {}),", f.id.0, f.completion_ns);
        }
        println!("    ],");
        println!("}};");
    }
}
