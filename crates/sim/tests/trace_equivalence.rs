//! Serial/parallel equivalence for the observability surface: traced
//! flow spans and flight-recorder contents must be byte-identical at
//! every `SimConfig::engine_threads` setting.
//!
//! `par_equivalence.rs` checks the *metrics* side of the determinism
//! argument (DESIGN.md §10); this file checks the *event* side added in
//! §11: per-shard hop events merged in canonical node order, flow
//! sampling keyed off a pure hash that never consumes routing RNG, and
//! recorder entries appended only from the merged (deterministic)
//! engine stream. Each scenario renders [`FlowTraceCollector`] spans
//! and [`FlightRecorder`] JSONL at 1, 2, 3, and 4 threads and compares
//! the bytes, plus one golden scenario pinned against a committed
//! fixture so the byte format itself cannot drift silently.

use sorn_base::rng::cases;
use sorn_sim::{
    Cell, ClassId, Engine, FaultPlan, Flow, FlowId, NodeRng, RouteDecision, Router, SimConfig,
};
use sorn_telemetry::{
    FlightRecorder, FlowTraceCollector, IntervalSampler, MemorySink, TraceEvent, DEFAULT_CAPACITY,
};
use sorn_topology::builders::round_robin;
use sorn_topology::{CircuitSchedule, NodeId};

/// Same two-hop spray router as `par_equivalence.rs`: consumes the
/// per-node RNG stream and exercises both queue kinds, so any decision
/// reordering shows up in the traced spans.
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

/// One fully-specified scenario; everything a traced run depends on.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    uplinks: usize,
    seed: u64,
    /// `Engine` samples one flow in this many for tracing (1 = all).
    trace_one_in: u64,
    flows: Vec<Flow>,
    /// `(src, dst, from_ns, until_ns)` link outages.
    outages: Vec<(u32, u32, u64, u64)>,
}

/// Seeded workload drawn from the simulator's own counter-based stream
/// (same generator as `par_equivalence.rs`).
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

/// Runs the scenario at the given thread count and returns the rendered
/// trace spans and the flight-recorder JSONL dump, byte for byte.
fn run_traced(sc: &Scenario, threads: usize) -> (String, String) {
    let sched = round_robin(sc.n).unwrap();
    let router = CoinSprayRouter;
    let cfg = SimConfig {
        uplinks: sc.uplinks,
        seed: sc.seed,
        engine_threads: threads,
        trace_one_in: sc.trace_one_in,
        ..SimConfig::default()
    };
    let probe = (
        FlowTraceCollector::new(cfg.slot_ns),
        FlightRecorder::new(DEFAULT_CAPACITY),
    );
    let mut eng = Engine::with_probe(cfg, &sched, &router, probe);
    eng.add_flows(sc.flows.clone()).unwrap();
    let mut plan = FaultPlan::new();
    for &(s, d, from, until) in &sc.outages {
        plan.link_outage(NodeId(s), NodeId(d), from, until);
    }
    eng.set_fault_plan(plan);
    eng.run_until_drained(100_000).unwrap();
    let (collector, recorder) = eng.finish();
    (collector.render_all(), recorder.dump_string())
}

/// Asserts byte-identical trace + recorder output at 1..=4 threads and
/// returns the serial rendering for golden checks.
fn assert_trace_invariant(sc: &Scenario) -> (String, String) {
    let serial = run_traced(sc, 1);
    assert!(
        !serial.0.is_empty(),
        "scenario traced nothing — not a useful equivalence check: {sc:?}"
    );
    for threads in [2, 3, 4] {
        let par = run_traced(sc, threads);
        assert_eq!(
            serial, par,
            "threads={threads} trace/recorder bytes diverged on {sc:?}"
        );
    }
    serial
}

#[test]
fn traced_spans_match_at_any_thread_count() {
    for (n, uplinks, flows, seed, one_in) in [
        (4, 1, 30, 1u64, 1u64),
        (8, 2, 80, 2, 2),
        (12, 3, 150, 3, 1),
        (16, 4, 250, 4, 4),
        // Above 64 nodes the engine runs more than one shard (four at
        // four threads, the last one short): hop events then merge
        // across shards, which no smaller fabric exercises.
        (200, 2, 1_500, 9, 8),
    ] {
        assert_trace_invariant(&Scenario {
            n,
            uplinks,
            seed,
            trace_one_in: one_in,
            flows: seeded_flows(n, seed, flows),
            outages: vec![],
        });
    }
}

#[test]
fn faulted_traced_runs_match_at_any_thread_count() {
    // Outages make the recorder non-trivial: fault events and drop
    // spikes must land in the ring in the same order at every thread
    // count, not just the hop spans.
    assert_trace_invariant(&Scenario {
        n: 10,
        uplinks: 2,
        seed: 6,
        trace_one_in: 1,
        flows: seeded_flows(10, 6, 120),
        outages: vec![(0, 1, 100, 2_000), (2, 5, 400, 1_500), (7, 3, 0, 3_000)],
    });
}

/// The golden scenario: pinned bytes so the span format (and sampling
/// keying) cannot drift without the fixture being regenerated on
/// purpose. Regenerate with:
/// `cargo test -p sorn-sim --test trace_equivalence -- --ignored regenerate`
#[test]
fn golden_trace_bytes_are_stable() {
    let sc = golden_scenario();
    let (spans, flight) = assert_trace_invariant(&sc);
    assert_eq!(
        spans,
        include_str!("golden/trace_small_spans.txt"),
        "traced span bytes drifted from the committed golden fixture"
    );
    assert_eq!(
        flight,
        include_str!("golden/trace_small_flight.jsonl"),
        "flight-recorder bytes drifted from the committed golden fixture"
    );
}

fn golden_scenario() -> Scenario {
    Scenario {
        n: 6,
        uplinks: 2,
        seed: 42,
        trace_one_in: 2,
        flows: seeded_flows(6, 42, 24),
        outages: vec![(1, 4, 200, 1_200)],
    }
}

/// `CoinSprayRouter` that also sheds: a cell whose `(flow + seq) % 13`
/// equals its hop count is dropped by the router instead of routed, so
/// router drops happen both at injection (hop 0) and on arrival.
struct SheddingRouter;

impl Router for SheddingRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, rng: &mut NodeRng) -> RouteDecision {
        if node != cell.dst && (cell.flow.0 + cell.seq) % 13 == u64::from(cell.hops) {
            return RouteDecision::Drop;
        }
        CoinSprayRouter.decide(node, cell, rng)
    }

    fn class_admits(&self, class: ClassId, cell: &Cell, from: NodeId, to: NodeId) -> bool {
        CoinSprayRouter.class_admits(class, cell, from, to)
    }

    fn classes(&self) -> &[ClassId] {
        CoinSprayRouter.classes()
    }

    fn max_hops(&self) -> u8 {
        CoinSprayRouter.max_hops()
    }

    fn name(&self) -> &str {
        "coin-spray-shed"
    }
}

const SHED_N: usize = 200;
/// Slot at which the shedding scenario installs the reversed schedule
/// and re-routes every queued cell.
const SHED_SWAP_SLOT: u64 = 12;

/// The shedding scenario at `threads` engine threads: 200 nodes (so
/// routing and transmit run several shards), a 3-cell queue cap that
/// drops cells at injection and on arrival, router drops,
/// link and node outages, a mid-run schedule swap with re-route, and
/// every flow traced. Returns the rendered spans, the flight-recorder
/// dump and the interval sampler's event stream as JSONL.
fn run_shedding(threads: usize) -> (String, String, String) {
    let base = round_robin(SHED_N).unwrap();
    let reversed =
        CircuitSchedule::from_matchings(base.matchings().iter().rev().cloned().collect()).unwrap();
    let cfg = SimConfig {
        uplinks: 3,
        seed: 17,
        engine_threads: threads,
        trace_one_in: 1,
        node_queue_cap: 3,
        ..SimConfig::default()
    };
    let probe = (
        FlowTraceCollector::new(cfg.slot_ns),
        (
            FlightRecorder::new(DEFAULT_CAPACITY),
            IntervalSampler::new(MemorySink::new(), 500),
        ),
    );
    let mut eng = Engine::with_probe(cfg, &base, &SheddingRouter, probe);
    // Arrivals squeezed into the first two slots: enough cells land
    // per slot for the arrival pass to shard too.
    let flows = seeded_flows(SHED_N, 17, 200).into_iter().map(|f| Flow {
        arrival_ns: f.arrival_ns / 10,
        ..f
    });
    eng.add_flows(flows).unwrap();
    let mut plan = FaultPlan::new();
    plan.link_outage(NodeId(3), NodeId(150), 200, 2_500)
        .link_outage(NodeId(90), NodeId(7), 0, 1_800)
        .node_outage(NodeId(64), 600, 1_400);
    eng.set_fault_plan(plan);
    eng.run_slots(SHED_SWAP_SLOT).unwrap();
    eng.install_schedule(&reversed);
    assert!(
        eng.reroute_queued().unwrap() > 0,
        "nothing queued at the swap"
    );
    assert!(eng.run_until_drained(100_000).unwrap());
    let (collector, (recorder, sampler)) = eng.finish();
    let events = sampler.into_sink().events;
    let shed_at = |injection: bool| {
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::Drop { hops, .. } if (*hops == 0) == injection))
    };
    assert!(
        shed_at(true) && shed_at(false),
        "no drops at injection or on arrival"
    );
    let sampled: String = events.iter().map(|e| e.to_json() + "\n").collect();
    (collector.render_all(), recorder.dump_string(), sampled)
}

/// The shedding scenario is byte-identical at 1–4 engine threads and
/// matches its committed fixture: spans, flight recorder and sampler
/// stream, so the order of hops, drops and flow finishes out of every
/// routing pass (injection, arrivals, re-route) is pinned.
#[test]
fn shedding_trace_bytes_are_stable() {
    let serial = run_shedding(1);
    for threads in [2, 3, 4] {
        assert_eq!(serial, run_shedding(threads), "threads={threads} diverged");
    }
    let (spans, flight, sampled) = serial;
    assert_eq!(spans, include_str!("golden/trace_shed_spans.txt"));
    assert_eq!(flight, include_str!("golden/trace_shed_flight.jsonl"));
    assert_eq!(sampled, include_str!("golden/trace_shed_sampler.jsonl"));
}

/// Not a test: rewrites the golden fixtures from the current tree.
#[test]
#[ignore = "fixture regenerator, run explicitly"]
fn regenerate_golden_fixtures() {
    let (spans, flight) = run_traced(&golden_scenario(), 1);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("trace_small_spans.txt"), spans).unwrap();
    std::fs::write(dir.join("trace_small_flight.jsonl"), flight).unwrap();
    let (spans, flight, sampled) = run_shedding(1);
    std::fs::write(dir.join("trace_shed_spans.txt"), spans).unwrap();
    std::fs::write(dir.join("trace_shed_flight.jsonl"), flight).unwrap();
    std::fs::write(dir.join("trace_shed_sampler.jsonl"), sampled).unwrap();
}

/// Any scenario the loop can draw produces byte-identical
/// traced spans and flight-recorder dumps at every thread count.
#[test]
fn serial_equals_parallel_trace_bytes_for_random_scenarios() {
    cases(256, |rng| {
        let n = rng.gen_range(4usize..14);
        let uplinks = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..1_000);
        let one_in = rng.gen_range(1u64..5);
        let flow_count = rng.gen_range(10usize..120);
        let outages = rng.vec(0..4, |rng| {
            (
                rng.gen_range(0u32..14),
                rng.gen_range(0u32..14),
                rng.gen_range(0u64..2_000),
                rng.gen_range(1u64..3_000),
            )
        });
        let threads = rng.gen_range(2usize..6);
        let sc = Scenario {
            n,
            uplinks,
            seed,
            trace_one_in: one_in,
            flows: seeded_flows(n, seed, flow_count),
            outages: outages
                .into_iter()
                .filter(|&(s, d, _, _)| s != d && (s as usize) < n && (d as usize) < n)
                .map(|(s, d, from, len)| (s, d, from, from + len))
                .collect(),
        };
        assert_eq!(run_traced(&sc, 1), run_traced(&sc, threads));
    });
}
