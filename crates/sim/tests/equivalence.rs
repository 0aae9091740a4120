//! The engine's self-equivalence harness: one scenario type, one
//! observer stack and one driver. Every run is compared with the
//! *reference* drive — one engine thread, one [`Engine::step`] per slot,
//! no interruption — and a variant [`Drive`] changes one axis of it:
//!
//! - **threads**: `SimConfig::engine_threads` 2–5. Per-node RNG streams,
//!   node-owned queue mutations and canonical node-ordered merges of
//!   hop events, deliveries and drops (DESIGN.md §10, §11) make the
//!   shard count invisible;
//! - **advance**: [`Engine::run_until_drained`] between driver
//!   boundaries, which jumps quiet gaps whole through
//!   [`Engine::advance_to`] (DESIGN.md §15);
//! - **resume**: stop at a slot, checkpoint with the observers' state as
//!   blobs, write and reload the snapshot through the fault-injecting
//!   in-memory store (full byte round trip), restore at a possibly
//!   different thread count and finish (DESIGN.md §12).
//!
//! A variant must reproduce the reference's [`RunOutput`] exactly:
//! metrics (flow records in order, histograms, link matrices), the
//! queued, in-flight and stranded counts, the rendered trace spans, the
//! flight-recorder dump, the weather report as text and JSON, the
//! interval sampler's events, and the final checkpoint bytes (engine
//! state, calendar head included). Named scenarios pin the inputs each
//! property was first written for, goldens pin the trace, flight and
//! checkpoint byte formats, and one seeded loop draws whole scenarios
//! and checks every axis on each.

use sorn_base::rng::{cases, Rng};
use sorn_sim::{
    Cell, CheckpointError, CheckpointFaultFs, CheckpointStore, ClassId, DirectRouter, Engine,
    FaultPlan, FaultStorm, Flow, FlowId, Metrics, NodeRng, RouteDecision, Router, SimConfig,
    Snapshot, WriteFault, FORMAT_VERSION,
};
use sorn_telemetry::{
    CountingProbe, FlightRecorder, FlowTraceCollector, IntervalSampler, MemorySink, Observers,
    TraceEvent, WeatherProbe, DEFAULT_CAPACITY,
};
use sorn_topology::builders::round_robin;
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId};

/// A two-hop spray router that consumes the per-node RNG stream and
/// exercises both queue kinds: each cell flips a coin between going
/// direct (`ToNode`) and riding the spray class over whatever circuit
/// comes up first. Any reordering of `decide` calls at a node, or an RNG
/// counter a restore gets wrong, shows up as a different run.
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

/// The router a scenario runs.
#[derive(Debug, Clone, Copy)]
enum Routing {
    CoinSpray,
    Shedding,
    /// The library's one-hop router: no RNG, no spray class.
    Direct,
}

impl Routing {
    fn router(self) -> &'static dyn Router {
        match self {
            Routing::CoinSpray => &CoinSprayRouter,
            Routing::Shedding => &SheddingRouter,
            Routing::Direct => &DirectRouter,
        }
    }
}

/// One fully specified scenario: everything a run depends on.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    uplinks: usize,
    seed: u64,
    /// `SimConfig::trace_one_in`: trace one flow in this many (0 = none).
    trace_one_in: u64,
    /// `SimConfig::node_queue_cap` (0 = unbounded).
    node_queue_cap: usize,
    routing: Routing,
    flows: Vec<Flow>,
    /// `(src, dst, from_ns, until_ns)` scripted link outages.
    outages: Vec<(u32, u32, u64, u64)>,
    /// `(node, from_ns, until_ns)` scripted node outages.
    node_outages: Vec<(u32, u64, u64)>,
    /// Adds a seeded MTBF/MTTR `FaultStorm` over the low links and nodes.
    storm: bool,
    /// Installs the reversed schedule, and re-routes every queued cell,
    /// when this slot starts.
    reconfigure_at: Option<u64>,
    /// `(cliques, top_k)` of a `WeatherProbe`; `None` runs without one.
    weather: Option<(usize, usize)>,
    /// Attaches the flow-trace collector and the flight recorder.
    recorders: bool,
    /// Attaches an `IntervalSampler` at this interval (ns) when > 0.
    sample_interval_ns: u64,
}

/// Coin-spray routing over `per_burst` seeded flows per burst start,
/// traced in full, with the trace collector and flight recorder
/// attached and nothing else.
fn scenario(n: usize, uplinks: usize, seed: u64, bursts: &[u64], per_burst: usize) -> Scenario {
    Scenario {
        n,
        uplinks,
        seed,
        trace_one_in: 1,
        node_queue_cap: 0,
        routing: Routing::CoinSpray,
        flows: seeded_flows(n, seed, bursts, per_burst),
        outages: vec![],
        node_outages: vec![],
        storm: false,
        reconfigure_at: None,
        weather: None,
        recorders: true,
        sample_interval_ns: 0,
    }
}

/// A seeded workload drawn from the simulator's own counter-based
/// stream: `per_burst` flows per burst start, each arriving within 2 µs
/// of it. A single burst at 0 is the plain workload.
fn seeded_flows(n: usize, seed: u64, bursts: &[u64], per_burst: usize) -> Vec<Flow> {
    let mut rng = NodeRng::for_node(seed, u32::MAX);
    let mut flows = Vec::new();
    for &burst_at in bursts {
        for _ in 0..per_burst {
            let src = rng.gen_range(n as u64) as u32;
            let mut dst = rng.gen_range(n as u64) as u32;
            if dst == src {
                dst = (dst + 1) % n as u32;
            }
            flows.push(Flow {
                id: FlowId(flows.len() as u64),
                src: NodeId(src),
                dst: NodeId(dst),
                size_bytes: (1 + rng.gen_range(6)) * 1250,
                arrival_ns: burst_at + rng.gen_range(2_000),
            });
        }
    }
    flows
}

/// Absolute drain cap for every run.
const MAX_SLOTS: u64 = 100_000;

/// The observer stack every run carries: interval sampler, flow trace,
/// weather and flight recorder. A `None` slot is one the scenario runs
/// without.
type Obs = Observers<MemorySink>;

/// The base round robin and the reversed schedule a reconfiguration
/// installs.
fn schedules(n: usize) -> (CircuitSchedule, CircuitSchedule) {
    let base = round_robin(n).unwrap();
    let reversed =
        CircuitSchedule::from_matchings(base.matchings().iter().rev().cloned().collect()).unwrap();
    (base, reversed)
}

fn plan(sc: &Scenario) -> FaultPlan {
    let mut plan = if sc.storm {
        FaultPlan::storm(&FaultStorm {
            seed: 7,
            horizon_ns: 20_000,
            mtbf_ns: 3_000.0,
            mttr_ns: 800.0,
            links: vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))],
            nodes: vec![NodeId(1)],
        })
    } else {
        FaultPlan::new()
    };
    for &(s, d, from, until) in &sc.outages {
        plan.link_outage(NodeId(s), NodeId(d), from, until);
    }
    for &(v, from, until) in &sc.node_outages {
        plan.node_outage(NodeId(v), from, until);
    }
    plan
}

/// `sc`'s checkpointed observers, fresh: weather, flow trace and
/// flight recorder as the scenario asks, no sampler.
fn observers(sc: &Scenario) -> Obs {
    Obs {
        trace: sc
            .recorders
            .then(|| FlowTraceCollector::new(SimConfig::default().slot_ns)),
        weather: sc
            .weather
            .map(|(cliques, k)| WeatherProbe::new(CliqueMap::contiguous(sc.n, cliques), k)),
        flight: sc.recorders.then(|| FlightRecorder::new(DEFAULT_CAPACITY)),
        ..Observers::none()
    }
}

/// A fresh engine for `sc` at `threads` engine threads: flows added,
/// fault plan set, observers attached.
fn start<'a>(sc: &Scenario, base: &'a CircuitSchedule, threads: usize) -> Engine<'a, Obs> {
    let cfg = SimConfig {
        uplinks: sc.uplinks,
        seed: sc.seed,
        engine_threads: threads,
        trace_one_in: sc.trace_one_in,
        node_queue_cap: sc.node_queue_cap,
        ..SimConfig::default()
    };
    let probe = Obs {
        sampler: (sc.sample_interval_ns > 0)
            .then(|| IntervalSampler::new(MemorySink::new(), sc.sample_interval_ns)),
        ..observers(sc)
    };
    let mut eng = Engine::with_probe(cfg, base, sc.routing.router(), probe);
    eng.add_flows(sc.flows.clone()).unwrap();
    eng.set_fault_plan(plan(sc));
    eng
}

/// How a drive moves the engine between driver boundaries.
#[derive(Debug, Clone, Copy)]
enum Stepping {
    /// One [`Engine::step`] per slot.
    Step,
    /// [`Engine::run_until_drained`] up to the next boundary, jumping
    /// quiet gaps, as a real run does.
    Advance,
}

/// Drives `eng` until it drains or reaches slot `stop`, installing the
/// reversed schedule (and re-routing) when `sc.reconfigure_at` starts.
/// The reconfiguration slot and `stop` are the driver's boundaries: an
/// `Advance` stretch never runs past either.
fn drive<'a>(
    eng: &mut Engine<'a, Obs>,
    sc: &Scenario,
    reversed: &'a CircuitSchedule,
    stepping: Stepping,
    stop: u64,
) {
    while !eng.is_drained() && eng.now_slot() < stop {
        let now = eng.now_slot();
        if sc.reconfigure_at == Some(now) {
            eng.install_schedule(reversed);
            eng.reroute_queued().unwrap();
        }
        match stepping {
            Stepping::Step => eng.step().unwrap(),
            Stepping::Advance => {
                let target = match sc.reconfigure_at {
                    Some(r) if now < r => stop.min(r),
                    _ => stop,
                };
                eng.run_until_drained(target - now).unwrap();
            }
        }
    }
}

/// The engine's checkpoint with the observers' state as blobs and
/// `engine_threads` pinned to 1, so byte comparisons across thread
/// counts see only real state divergence.
fn snapshot(eng: &Engine<'_, Obs>) -> Snapshot {
    let mut snap = eng.checkpoint();
    snap.set_engine_threads(1);
    eng.probe().save(&mut snap);
    snap
}

/// Rebuilds `sc`'s engine and observers from `snap` at `threads` engine
/// threads; the live `sampler` is handed over as it is.
fn restore<'a>(
    sc: &Scenario,
    mut snap: Snapshot,
    threads: usize,
    base: &'a CircuitSchedule,
    reversed: &'a CircuitSchedule,
    sampler: Option<IntervalSampler<MemorySink>>,
) -> Engine<'a, Obs> {
    snap.set_engine_threads(threads);
    let mut probe = Obs {
        sampler,
        ..observers(sc)
    };
    probe.restore(&snap).unwrap();
    // A reconfiguration strictly before the checkpoint is part of the
    // snapshotted state; the caller re-supplies the schedule installed
    // at checkpoint time.
    let current = match sc.reconfigure_at {
        Some(t) if snap.slot() > t => reversed,
        _ => base,
    };
    Engine::restore_with_probe(&snap, current, sc.routing.router(), probe).unwrap()
}

/// Everything a run produces that every drive must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct RunOutput {
    metrics: Metrics,
    queued: usize,
    inflight: usize,
    stranded: u64,
    spans: String,
    flight: String,
    weather_txt: String,
    weather_json: String,
    samples: Vec<TraceEvent>,
    /// [`snapshot`] bytes at the end of the run: engine *state*, not
    /// just outputs.
    final_snapshot: Vec<u8>,
}

fn finish(eng: Engine<'_, Obs>) -> RunOutput {
    let final_snapshot = snapshot(&eng).to_bytes();
    let metrics = eng.metrics().clone();
    let (queued, inflight) = (eng.total_queued(), eng.inflight_cells());
    let stranded = eng.count_stranded();
    let Observers {
        sampler,
        trace,
        weather,
        flight,
    } = eng.finish();
    let render = |f: fn(&WeatherProbe, &str) -> String| {
        weather.as_ref().map_or_else(String::new, |w| f(w, "equiv"))
    };
    RunOutput {
        metrics,
        queued,
        inflight,
        stranded,
        spans: trace.map_or_else(String::new, |t| t.render_all()),
        flight: flight.map_or_else(String::new, |f| f.dump_string()),
        weather_txt: render(WeatherProbe::render_txt),
        weather_json: render(WeatherProbe::render_json),
        samples: sampler.map_or_else(Vec::new, |s| s.into_sink().events),
        final_snapshot,
    }
}

/// How a run is driven: the axes a variant may change.
#[derive(Debug, Clone, Copy)]
struct Drive {
    threads: usize,
    stepping: Stepping,
    /// `(slot, restore_threads)`: stop at `slot`, checkpoint through the
    /// store and finish on an engine restored at `restore_threads`.
    resume: Option<(u64, usize)>,
}

/// The drive every variant is compared with.
const REFERENCE: Drive = Drive {
    threads: 1,
    stepping: Stepping::Step,
    resume: None,
};

/// The threads axis: an advancing run at `threads` engine threads.
fn threads(threads: usize) -> Drive {
    Drive {
        threads,
        stepping: Stepping::Advance,
        resume: None,
    }
}

/// The resume axis: every `(run, restore)` pairing of 1 and 4 threads
/// at each of `stops`.
fn resumes(stops: &[u64], stepping: Stepping) -> Vec<Drive> {
    let pairs = [(1, 1), (1, 4), (4, 1), (4, 4)];
    (stops.iter())
        .flat_map(|&stop| {
            pairs.map(|(threads, restore)| Drive {
                threads,
                stepping,
                resume: Some((stop, restore)),
            })
        })
        .collect()
}

fn run(sc: &Scenario, d: Drive) -> RunOutput {
    let (base, reversed) = schedules(sc.n);
    let mut eng = start(sc, &base, d.threads);
    if let Some((stop, restore_threads)) = d.resume {
        drive(&mut eng, sc, &reversed, d.stepping, stop);
        let snap = snapshot(&eng);
        let sampler = eng.probe_mut().sampler.take();
        drop(eng);
        let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
        store.write(&snap).unwrap();
        let loaded = store.load_latest().unwrap();
        assert!(loaded.skipped.is_empty(), "clean write reported corruption");
        eng = restore(
            sc,
            loaded.snapshot,
            restore_threads,
            &base,
            &reversed,
            sampler,
        );
    }
    drive(&mut eng, sc, &reversed, d.stepping, MAX_SLOTS);
    finish(eng)
}

/// Runs the reference and each of `variants` on `sc`, asserts every
/// variant reproduces the reference exactly, and returns the reference.
fn assert_equivalent(sc: &Scenario, variants: &[Drive]) -> RunOutput {
    let reference = run(sc, REFERENCE);
    for &d in variants {
        assert!(
            reference == run(sc, d),
            "{d:?} diverged from the reference on {sc:?}"
        );
    }
    reference
}

/// The threads axis over a grid of sizes and uplink counts, traced and
/// untraced. Only a fabric above 64 nodes runs more than one shard (the
/// engine shards in whole 64-node occupancy words): 200 nodes are four
/// shards at four threads, the last one short, and push enough cells
/// through a slot for the arrival pass to run on the worker pool.
#[test]
fn threads_match_the_reference_on_healthy_fabrics() {
    for (n, uplinks, count, seed, one_in) in [
        (4, 1, 30, 1, 1),
        (8, 2, 80, 2, 2),
        (12, 3, 150, 3, 1),
        (16, 4, 250, 4, 4),
        (200, 2, 1_500, 9, 8),
    ] {
        for trace_one_in in [0, one_in] {
            let sc = Scenario {
                trace_one_in,
                weather: Some((2, 4)),
                ..scenario(n, uplinks, seed, &[0], count)
            };
            let reference = assert_equivalent(&sc, &[threads(2), threads(3), threads(4)]);
            assert_eq!(reference.spans.is_empty(), trace_one_in == 0, "{sc:?}");
            if n > 64 && trace_one_in == 0 {
                // Cells sent in one slot land in one later slot, so a
                // slot of ≥ 64 sends feeds one arrival pass the worker
                // pool shards (its cutover is 64 cells).
                let (base, _) = schedules(n);
                let mut eng = start(&sc, &base, 1);
                let mut peak = 0;
                while !eng.is_drained() {
                    let sent = eng.metrics().transmissions;
                    eng.step().unwrap();
                    peak = peak.max(eng.metrics().transmissions - sent);
                }
                assert!(peak >= 64, "at most {peak} sends in a slot");
            }
        }
    }
}

/// The threads axis under link and node outages: fault events, drops
/// and stranded cells land in the same order at every thread count,
/// with cells stranded at senders in all four shards of the 200-node
/// fabric.
#[test]
fn threads_match_the_reference_under_outages() {
    for (n, count, seed, one_in, node_outage) in [
        (10, 120, 5, 0, None),
        (10, 120, 6, 1, None),
        (10, 120, 6, 0, Some((3, 300, 2_500))),
        (200, 1_500, 8, 0, Some((3, 300, 2_500))),
    ] {
        let sc = Scenario {
            trace_one_in: one_in,
            outages: vec![(0, 1, 100, 2_000), (2, 5, 400, 1_500), (7, 3, 0, 3_000)],
            node_outages: node_outage.into_iter().collect(),
            ..scenario(n, 2, seed, &[0], count)
        };
        assert_equivalent(&sc, &[threads(2), threads(3), threads(4)]);
    }
}

#[test]
fn threads_match_the_reference_across_a_schedule_swap() {
    let sc = Scenario {
        trace_one_in: 0,
        outages: vec![(1, 2, 200, 1_800)],
        node_outages: vec![(5, 250, 1_000)],
        reconfigure_at: Some(8),
        ..scenario(12, 2, 7, &[0], 140)
    };
    assert_equivalent(&sc, &[threads(2), threads(3), threads(4)]);
}

/// The small golden scenario, shared by the trace and checkpoint
/// goldens.
fn golden_scenario() -> Scenario {
    Scenario {
        trace_one_in: 2,
        outages: vec![(1, 4, 200, 1_200)],
        ..scenario(6, 2, 42, &[0], 24)
    }
}

/// Pinned span and flight-recorder bytes, so the span format and the
/// sampling keying cannot drift without regenerating the fixtures on
/// purpose (`regenerate_golden_fixtures`).
#[test]
fn golden_trace_bytes_are_stable() {
    let reference = assert_equivalent(&golden_scenario(), &[threads(2), threads(3), threads(4)]);
    assert_eq!(
        reference.spans,
        include_str!("golden/trace_small_spans.txt")
    );
    assert_eq!(
        reference.flight,
        include_str!("golden/trace_small_flight.jsonl")
    );
}

/// The shedding scenario: 200 nodes (so routing and transmit run
/// several shards), arrivals squeezed into the first two slots (so the
/// arrival pass shards too), a 3-cell queue cap that drops cells at
/// injection and on arrival, router drops, link and node outages, a
/// schedule swap with re-route at slot 12, every flow traced and a
/// sampler mark every 500 ns.
fn shedding_scenario() -> Scenario {
    let flows = seeded_flows(200, 17, &[0], 200).into_iter().map(|f| Flow {
        arrival_ns: f.arrival_ns / 10,
        ..f
    });
    Scenario {
        node_queue_cap: 3,
        routing: Routing::Shedding,
        flows: flows.collect(),
        outages: vec![(3, 150, 200, 2_500), (90, 7, 0, 1_800)],
        node_outages: vec![(64, 600, 1_400)],
        reconfigure_at: Some(12),
        sample_interval_ns: 500,
        ..scenario(200, 3, 17, &[], 0)
    }
}

fn sampler_jsonl(events: &[TraceEvent]) -> String {
    events.iter().map(|e| e.to_json() + "\n").collect()
}

/// The shedding scenario matches the reference at 2–4 threads and its
/// committed fixtures: spans, flight recorder and sampler stream, so the
/// order of hops, drops and flow finishes out of every routing pass
/// (injection, arrivals, re-route) is pinned.
#[test]
fn shedding_trace_bytes_are_stable() {
    let sc = shedding_scenario();
    let (base, reversed) = schedules(sc.n);
    let mut eng = start(&sc, &base, 1);
    drive(&mut eng, &sc, &reversed, Stepping::Step, 12);
    assert!(eng.total_queued() > 0, "nothing queued at the swap");
    drop(eng);

    let reference = assert_equivalent(&sc, &[threads(2), threads(3), threads(4)]);
    assert!(
        reference.queued == 0 && reference.inflight == 0,
        "not drained"
    );
    let shed_at = |injection: bool| {
        (reference.samples.iter())
            .any(|e| matches!(e, TraceEvent::Drop { hops, .. } if (*hops == 0) == injection))
    };
    assert!(
        shed_at(true) && shed_at(false),
        "no drops at injection or on arrival"
    );
    assert_eq!(reference.spans, include_str!("golden/trace_shed_spans.txt"));
    assert_eq!(
        reference.flight,
        include_str!("golden/trace_shed_flight.jsonl")
    );
    assert_eq!(
        sampler_jsonl(&reference.samples),
        include_str!("golden/trace_shed_sampler.jsonl")
    );
}

/// Uninterrupted runs at 4 threads and resumed runs at every thread
/// pairing and each checkpoint slot, all stepped slot by slot.
fn assert_resumes(sc: &Scenario, stops: &[u64]) {
    let mut variants = resumes(stops, Stepping::Step);
    variants.push(Drive {
        threads: 4,
        ..REFERENCE
    });
    let reference = assert_equivalent(sc, &variants);
    assert!(!reference.spans.is_empty(), "traced nothing: {sc:?}");
}

#[test]
fn plain_run_resumes_identically() {
    assert_resumes(&scenario(8, 2, 3, &[0], 80), &[1, 4, 11]);
}

#[test]
fn faultstorm_run_resumes_identically() {
    // The storm keeps failure state, repair calendars and fault-plan
    // cursors live across the checkpoint; scripted outages overlap it.
    let sc = Scenario {
        outages: vec![(4, 7, 100, 2_000), (5, 2, 400, 1_500)],
        storm: true,
        ..scenario(10, 2, 6, &[0], 100)
    };
    assert_resumes(&sc, &[2, 8]);
}

#[test]
fn high_node_failures_resume_identically() {
    // 200 nodes: failed nodes and links sit in the second, third and
    // fourth words of the failure bitset at every checkpoint slot, and
    // the restored failure set must equal the live one.
    let sc = Scenario {
        trace_one_in: 8,
        outages: vec![(130, 131, 100, 3_000), (199, 70, 0, 2_500)],
        node_outages: vec![(64, 200, 2_500), (150, 0, 1_800), (199, 400, 900)],
        ..scenario(200, 2, 12, &[0], 300)
    };
    let (base, reversed) = schedules(sc.n);
    let mut eng = start(&sc, &base, 1);
    for stop_at in [3, 9] {
        drive(&mut eng, &sc, &reversed, Stepping::Step, stop_at);
        let failed = eng.failures().failed_node_ids();
        assert!(failed.contains(&NodeId(64)) && failed.contains(&NodeId(150)));
        let snap = Snapshot::from_bytes(&snapshot(&eng).to_bytes()).unwrap();
        let restored = restore(&sc, snap, 1, &base, &reversed, None);
        assert_eq!(restored.failures(), eng.failures());
    }
    drop(eng);
    assert_resumes(&sc, &[3, 9]);
}

#[test]
fn midrun_reconfiguration_resumes_identically() {
    // Checkpoint slots straddle the swap at slot 6: stop at 3 restores
    // onto the base schedule and replays the swap, stop at 10 restores
    // directly onto the reversed schedule.
    let sc = Scenario {
        outages: vec![(0, 3, 200, 1_800)],
        reconfigure_at: Some(6),
        ..scenario(8, 1, 9, &[0], 90)
    };
    assert_resumes(&sc, &[3, 10]);
}

/// Two real snapshots of the golden scenario, at slots 4 and 8.
fn checkpoint_pair() -> (Snapshot, Snapshot) {
    let sc = golden_scenario();
    let (base, reversed) = schedules(sc.n);
    let mut eng = start(&sc, &base, 1);
    drive(&mut eng, &sc, &reversed, Stepping::Step, 4);
    let older = snapshot(&eng);
    drive(&mut eng, &sc, &reversed, Stepping::Step, 8);
    (older, snapshot(&eng))
}

/// A store holding `older` whose write of `newer` is hit by `fault`.
/// Returns the store and whether that write reported an error.
fn faulted_store(
    older: &Snapshot,
    newer: &Snapshot,
    fault: WriteFault,
) -> (CheckpointStore<CheckpointFaultFs>, bool) {
    let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
    store.write(older).unwrap();
    store.fs_mut().arm(fault);
    let failed = store.write(newer).is_err();
    (store, failed)
}

/// A single corrupted byte anywhere in the newest generation is
/// detected (CRC-64 catches every one-byte error), skipped with a
/// reason, and the older valid generation loads: never a panic, never a
/// silently wrong snapshot.
#[test]
fn corrupt_byte_at_every_offset_falls_back_without_panicking() {
    let (older, newer) = checkpoint_pair();
    for offset in 0..newer.to_bytes().len() {
        let (store, _) = faulted_store(&older, &newer, WriteFault::CorruptByte { offset });
        let out = store
            .load_latest()
            .unwrap_or_else(|e| panic!("offset {offset}: no valid generation: {e}"));
        assert_eq!(out.snapshot.slot(), older.slot(), "offset {offset}");
        assert_eq!(out.skipped.len(), 1, "offset {offset}");
    }
}

/// A write torn at any length (power loss mid-`write`) is reported at
/// write time, and the loader skips the torn prefix likewise.
#[test]
fn torn_write_at_every_length_falls_back_without_panicking() {
    let (older, newer) = checkpoint_pair();
    for keep in 0..newer.to_bytes().len() {
        let (store, failed) = faulted_store(&older, &newer, WriteFault::Torn { keep });
        assert!(failed, "keep {keep}: torn write not reported");
        let out = store
            .load_latest()
            .unwrap_or_else(|e| panic!("keep {keep}: no valid generation: {e}"));
        assert_eq!(out.snapshot.slot(), older.slot(), "keep {keep}");
    }
}

/// A failed atomic rename leaves no new generation at all; the store
/// reports the error on write and still serves the older snapshot.
#[test]
fn failed_rename_keeps_the_older_generation() {
    let (older, newer) = checkpoint_pair();
    let (store, failed) = faulted_store(&older, &newer, WriteFault::FailRename);
    assert!(failed, "rename fault not surfaced");
    let out = store.load_latest().unwrap();
    assert_eq!(out.snapshot.slot(), older.slot());
    assert!(out.skipped.is_empty());
}

/// The golden checkpoint: the golden scenario's snapshot at slot 8 is
/// pinned byte for byte, so the on-disk format cannot drift without
/// regenerating the fixture on purpose, and the committed bytes still
/// restore and finish to the reference outcome.
#[test]
fn golden_checkpoint_bytes_restore_and_match() {
    let (_, snap) = checkpoint_pair();
    let golden: &[u8] = include_bytes!("golden/checkpoint_small.sorn");
    assert_eq!(snap.to_bytes(), golden, "checkpoint byte format drifted");

    let sc = golden_scenario();
    let (base, reversed) = schedules(sc.n);
    let snap = Snapshot::from_bytes(golden).unwrap();
    let mut eng = restore(&sc, snap, 1, &base, &reversed, None);
    drive(&mut eng, &sc, &reversed, Stepping::Step, MAX_SLOTS);
    assert!(finish(eng) == run(&sc, REFERENCE));
}

/// A generation written under another format version is refused with
/// both versions named, and a store holding only such a file reports
/// it rather than loading anything.
#[test]
fn golden_with_another_version_is_refused_by_name() {
    let mut bytes = include_bytes!("golden/checkpoint_small.sorn").to_vec();
    let older = FORMAT_VERSION - 1;
    bytes[8..12].copy_from_slice(&older.to_le_bytes());
    let reason = match Snapshot::from_bytes(&bytes) {
        Err(CheckpointError::Corrupt { reason }) => reason,
        other => panic!("expected Corrupt, got {other:?}"),
    };
    let want = format!("format version {older} (this build reads {FORMAT_VERSION})");
    assert_eq!(reason, want);

    let dir = std::path::PathBuf::from("/mem");
    let path = dir.join("ckpt-00000001-slot8.sorn");
    let mut fs = CheckpointFaultFs::new();
    fs.put(&path, bytes);
    match CheckpointStore::with_fs(&dir, fs, 2).load_latest() {
        Err(CheckpointError::NoValidCheckpoint { skipped, .. }) => {
            assert_eq!(skipped.len(), 1);
            assert_eq!(skipped[0].0, path);
            assert!(skipped[0].1.contains(&want), "{}", skipped[0].1);
        }
        other => panic!("expected NoValidCheckpoint, got {other:?}"),
    }
}

/// Not a test: rewrites every golden fixture from the current tree.
#[test]
#[ignore = "fixture regenerator, run explicitly"]
fn regenerate_golden_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, bytes: &[u8]| std::fs::write(dir.join(name), bytes).unwrap();
    let small = run(&golden_scenario(), REFERENCE);
    write("trace_small_spans.txt", small.spans.as_bytes());
    write("trace_small_flight.jsonl", small.flight.as_bytes());
    let shed = run(&shedding_scenario(), REFERENCE);
    write("trace_shed_spans.txt", shed.spans.as_bytes());
    write("trace_shed_flight.jsonl", shed.flight.as_bytes());
    write(
        "trace_shed_sampler.jsonl",
        sampler_jsonl(&shed.samples).as_bytes(),
    );
    write("checkpoint_small.sorn", &checkpoint_pair().1.to_bytes());
}

/// The advance axis at 1 and 4 threads on a scenario with a long quiet
/// gap, which must really be there.
fn assert_advances(sc: &Scenario) {
    let advance = |threads| Drive {
        threads,
        stepping: Stepping::Advance,
        resume: None,
    };
    let reference = assert_equivalent(sc, &[advance(1), advance(4)]);
    assert!(!reference.spans.is_empty(), "traced nothing: {sc:?}");
    assert!(
        reference.metrics.slots_skipped > 1_000,
        "no real quiet gap ({} skipped): {sc:?}",
        reference.metrics.slots_skipped
    );
}

/// Two bursts of flows 1.5 ms apart with every observer but the
/// sampler attached.
fn gap_scenario() -> Scenario {
    Scenario {
        weather: Some((2, 4)),
        ..scenario(8, 2, 3, &[0, 1_500_000], 40)
    }
}

#[test]
fn plain_gap_run_is_bit_identical() {
    assert_advances(&gap_scenario());
}

#[test]
fn faults_inside_the_gap_are_bit_identical() {
    // A scripted outage in the middle of the gap plus an early storm:
    // jumps stop at every fault boundary, and failure accounting
    // (failure slots, episodes, recovery times) matches.
    assert_advances(&Scenario {
        weather: Some((2, 4)),
        outages: vec![(4, 7, 500_000, 700_000), (5, 2, 400, 1_500)],
        storm: true,
        ..scenario(10, 2, 6, &[0, 2_000_000], 50)
    });
}

#[test]
fn midgap_reconfiguration_is_bit_identical() {
    // The swap at slot 7000 lies deep inside the gap: the driver bounds
    // the jump there, and the weather timeline attributes the swap to
    // the right epoch.
    assert_advances(&Scenario {
        weather: Some((2, 4)),
        outages: vec![(0, 3, 200, 1_800)],
        reconfigure_at: Some(7_000),
        ..scenario(8, 1, 9, &[0, 3_000_000], 45)
    });
}

#[test]
fn interval_sampler_marks_are_bit_identical() {
    // A mark every 7700 ns (77 slots, off the schedule period): every
    // jump is bounded by `next_boundary_ns`, so the sampler emits the
    // per-slot stream, idle and utilisation counters inside the gap
    // included.
    assert_advances(&Scenario {
        trace_one_in: 2,
        weather: Some((2, 4)),
        outages: vec![(1, 5, 300_000, 320_000)],
        sample_interval_ns: 7_700,
        ..scenario(8, 2, 12, &[0, 900_000], 40)
    });
}

/// A fault event scheduled inside a quiet gap terminates the gap:
/// per-slot stepping applies it at exactly slot `ceil(at_ns / slot_ns)`,
/// and a jump aimed far past it stops at that slot.
#[test]
fn fault_event_inside_quiet_gap_terminates_the_gap() {
    let sc = Scenario {
        outages: vec![(2, 5, 50_000, 60_000)],
        ..scenario(8, 2, 4, &[0], 30)
    };
    let (base, reversed) = schedules(sc.n);
    let fault_slot = 50_000_u64.div_ceil(SimConfig::default().slot_ns); // = 500

    // Per slot: quiet stepping keeps the fault plan's cursor in view,
    // so the fault fires at `fault_slot` though every slot around it is
    // quiet.
    let mut eng = start(&sc, &base, 1);
    while eng.now_slot() < fault_slot {
        assert!(
            eng.failures().is_empty(),
            "fault applied early at slot {}",
            eng.now_slot()
        );
        eng.step().unwrap();
    }
    assert_eq!(eng.metrics().failure_slots, 0);
    eng.step().unwrap();
    assert!(!eng.failures().is_empty(), "fault missed slot {fault_slot}");
    assert_eq!(eng.metrics().failure_slots, 1);

    // Jumping: the jump stops at the fault slot with the outage not yet
    // applied; the next advance is the one busy slot that applies it.
    let mut eng = start(&sc, &base, 1);
    drive(&mut eng, &sc, &reversed, Stepping::Advance, 40); // drain the burst
    assert!(eng.is_drained());
    let from = eng.now_slot();
    let skipped = eng.advance_to(MAX_SLOTS).unwrap();
    assert_eq!(eng.now_slot(), fault_slot, "jump overshot the fault");
    assert_eq!(skipped, fault_slot - from);
    assert!(eng.failures().is_empty(), "jump applied the fault itself");
    assert_eq!(
        eng.advance_to(MAX_SLOTS).unwrap(),
        1,
        "jumped into an outage"
    );
    assert!(!eng.failures().is_empty());
    assert_eq!(eng.metrics().failure_slots, 1);
}

/// Checkpoints in the middle of a gap: a jumping run stopped at `stop`
/// snapshots the same bytes as a stepped one, and resuming it (at 1 or
/// 4 threads, gaps jumped) lands on the reference. Stops fall inside
/// the first burst, deep inside the gap, and just before the second
/// burst.
#[test]
fn midgap_checkpoints_are_bit_identical_and_resume_exactly() {
    let sc = Scenario {
        outages: vec![(1, 6, 600_000, 640_000)],
        ..gap_scenario()
    };
    let (base, reversed) = schedules(sc.n);
    let snapshot_at = |stepping, stop| {
        let mut eng = start(&sc, &base, 1);
        drive(&mut eng, &sc, &reversed, stepping, stop);
        snapshot(&eng).to_bytes()
    };
    let stops = [10, 4_000, 14_999];
    for stop in stops {
        assert!(
            snapshot_at(Stepping::Step, stop) == snapshot_at(Stepping::Advance, stop),
            "checkpoint bytes at slot {stop} diverged"
        );
    }
    let variants = resumes(&stops, Stepping::Advance);
    assert_equivalent(&sc, &variants[..]);
}

/// Gap jumping needs no switch: a plain engine driven by
/// `run_until_drained` covers a quiet gap in batched spans, and the
/// slots its probe counts one by one plus those in spans are every slot
/// the run advanced.
#[test]
fn a_plain_run_jumps_quiet_gaps() {
    let sc = gap_scenario();
    let (base, _) = schedules(sc.n);
    let cfg = SimConfig {
        uplinks: sc.uplinks,
        seed: sc.seed,
        trace_one_in: sc.trace_one_in,
        ..SimConfig::default()
    };
    let mut eng = Engine::with_probe(cfg, &base, &CoinSprayRouter, CountingProbe::new());
    eng.add_flows(sc.flows).unwrap();
    assert!(eng.run_until_drained(MAX_SLOTS).unwrap());
    let slots = eng.metrics().slots;
    let probe = eng.finish();
    assert!(probe.skip_spans >= 1, "the gap was stepped slot by slot");
    assert_eq!(probe.slots + probe.skipped_slots, slots);
}

/// The weather report's scenario: 200 nodes in four cliques, one-hop
/// routing, clique-local and cross-clique flows with staggered
/// arrivals — enough traffic for the sketches, the matrices and the
/// decimated timeline — and no other observer.
fn weather_scenario() -> Scenario {
    let n = 200;
    let mut flows = Vec::new();
    for s in 0..n as u32 {
        for off in [1, 5, 9] {
            flows.push(Flow {
                id: FlowId(flows.len() as u64 + 1),
                src: NodeId(s),
                dst: NodeId((s + off) % n as u32),
                size_bytes: 1250 * (1 + u64::from(s) % 4),
                arrival_ns: 100 * u64::from(s),
            });
        }
    }
    Scenario {
        trace_one_in: 0,
        routing: Routing::Direct,
        flows,
        weather: Some((4, 8)),
        recorders: false,
        ..scenario(n, 1, 0, &[], 0)
    }
}

/// The weather report's text and JSON renderings match the reference at
/// 2–4 threads and across a checkpoint at slot 40, resumed serially and
/// resharded.
#[test]
fn weather_reports_match_across_threads_and_resume() {
    let resume = |restore| Drive {
        resume: Some((40, restore)),
        ..threads(1)
    };
    let variants = [threads(2), threads(3), threads(4), resume(1), resume(2)];
    let reference = assert_equivalent(&weather_scenario(), &variants);
    assert!(
        reference.queued == 0 && reference.inflight == 0,
        "not drained"
    );
    assert!(!reference.weather_json.is_empty());
}

/// Draws one scenario from the union of every named scenario's domain:
/// 4–13 nodes or (one case in 32) 200, optional quiet gap, outages,
/// node outage, storm, schedule swap, queue cap, any router, any subset
/// of observers.
fn draw(rng: &mut Rng) -> Scenario {
    let n = if rng.gen_range(0u32..32) == 0 {
        200
    } else {
        rng.gen_range(4usize..14)
    };
    let uplinks = rng.gen_range(1usize..4);
    let seed = rng.gen_range(0u64..1_000);
    // One case in eight has a second burst after a quiet gap; outages,
    // the swap and checkpoint stops then spread over the gap too.
    let gap_ns = (rng.gen_range(0u32..8) == 0).then(|| rng.gen_range(100_000u64..2_000_000));
    let (horizon_ns, per_burst) = match gap_ns {
        Some(gap) => (gap, rng.gen_range(10usize..40)),
        None if n > 64 => (2_000, rng.gen_range(100usize..400)),
        None => (2_000, rng.gen_range(10usize..120)),
    };
    let node = |rng: &mut Rng| rng.gen_range(0..n as u32);
    let outages = rng.vec(0..5, |rng| {
        let (s, d) = (node(rng), node(rng));
        let from = rng.gen_range(0..horizon_ns);
        (
            s,
            d,
            from,
            from + rng.gen_range(1..3_000.max(horizon_ns / 10)),
        )
    });
    let node_outages = rng.vec(0..2, |rng| {
        let (v, from) = (node(rng), rng.gen_range(0..horizon_ns / 2));
        (v, from, from + rng.gen_range(1u64..2_500))
    });
    let swap_slots = (horizon_ns / 100).min(5_000);
    let routing = [
        Routing::CoinSpray,
        Routing::CoinSpray,
        Routing::Shedding,
        Routing::Direct,
    ][rng.gen_range(0usize..4)];
    let cliques = if n % 2 == 0 { 2 } else { 1 };
    Scenario {
        n,
        uplinks,
        seed,
        trace_one_in: rng.gen_range(0u64..5),
        node_queue_cap: [0, 0, 0, rng.gen_range(2usize..6)][rng.gen_range(0usize..4)],
        routing,
        flows: seeded_flows(
            n,
            seed,
            &[0].into_iter().chain(gap_ns).collect::<Vec<_>>(),
            per_burst,
        ),
        outages: outages.into_iter().filter(|&(s, d, _, _)| s != d).collect(),
        node_outages,
        storm: rng.gen(),
        reconfigure_at: rng
            .gen::<bool>()
            .then(|| rng.gen_range(1..swap_slots.max(16))),
        weather: rng.gen::<bool>().then_some((cliques, 4)),
        recorders: rng.gen_range(0u32..4) != 0,
        sample_interval_ns: [0, rng.gen_range(1_000u64..20_000)][rng.gen_range(0usize..2)],
    }
}

/// Any scenario the loop can draw matches the reference on every axis:
/// an advancing run at 2–5 threads (threads and advance at once), and a
/// run checkpointed at a random slot (inside the gap when there is one)
/// and resumed at a random thread pairing, stepped or advancing.
#[test]
fn every_axis_matches_the_reference_for_random_scenarios() {
    cases(256, |rng| {
        let sc = draw(rng);
        let last = sc.flows.last().map_or(0, |f| f.arrival_ns / 100);
        let stop = rng.gen_range(1..last.max(14) + 1);
        let resume = Drive {
            threads: rng.gen_range(1usize..5),
            stepping: [Stepping::Step, Stepping::Advance][rng.gen_range(0usize..2)],
            resume: Some((stop, rng.gen_range(1usize..5))),
        };
        let variants = [threads(rng.gen_range(2usize..6)), resume];
        assert_equivalent(&sc, &variants);
    });
}
