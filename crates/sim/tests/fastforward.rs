//! Fast-forward equivalence: `Engine::advance_to`, which jumps quiet
//! gaps whole, must be bit-identical to calling `Engine::step` slot by
//! slot (DESIGN.md §15).
//!
//! Every scenario here has long quiescent gaps — bursty workloads with
//! hundreds of thousands of empty slots between them — plus the things
//! that must *terminate* a gap: scripted fault events, fault storms,
//! pending flow activations, mid-run `install_schedule` boundaries, and
//! an interval sampler's marks. Each scenario runs once driven by
//! `step` (quiet slots jumped one at a time) and once by `advance_to`,
//! at 1–4 engine threads, and the complete observable state must match:
//! `Metrics` (including `slots_skipped`), rendered trace spans,
//! flight-recorder dumps, WEATHER reports (text and JSON), sampler
//! event streams, and checkpoint bytes — including runs interrupted by
//! a checkpoint/restore in the middle of a gap.

use sorn_base::rng::cases;
use sorn_sim::{
    Cell, ClassId, Engine, FaultPlan, FaultStorm, Flow, FlowId, Metrics, NodeRng, RouteDecision,
    Router, SimConfig, Snapshot,
};
use sorn_telemetry::{
    CountingProbe, FlightRecorder, FlowTraceCollector, IntervalSampler, MemorySink, TraceEvent,
    WeatherProbe, DEFAULT_CAPACITY,
};
use sorn_topology::builders::round_robin;
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId};

/// Same two-hop spray router as `checkpoint_equivalence.rs`: consumes
/// the per-node RNG stream, so any divergence in what the busy slots
/// around a gap see shows up immediately.
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

/// One fully-specified long-horizon scenario.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    uplinks: usize,
    seed: u64,
    trace_one_in: u64,
    /// Burst start times (ns); each burst holds `burst_flows` flows
    /// arriving within 2 µs of its start, with quiet gaps between.
    bursts: Vec<u64>,
    burst_flows: usize,
    /// `(src, dst, from_ns, until_ns)` scripted link outages (often in
    /// the middle of an otherwise-quiet gap).
    outages: Vec<(u32, u32, u64, u64)>,
    /// Adds a seeded MTBF/MTTR `FaultStorm` over the low links/nodes.
    storm: bool,
    /// Installs a rotated schedule (plus reroute) when this slot starts.
    reconfigure_at: Option<u64>,
    /// Attaches an `IntervalSampler` at this interval (ns) when > 0.
    sample_interval_ns: u64,
}

/// Absolute drain cap for every run.
const MAX_SLOTS: u64 = 1_000_000;

/// Seeded bursty workload: `burst_flows` flows per burst, each burst's
/// arrivals within 2 µs of its start time.
fn seeded_flows(sc: &Scenario) -> Vec<Flow> {
    let mut rng = NodeRng::for_node(sc.seed, u32::MAX);
    let mut flows = Vec::new();
    for &burst_at in &sc.bursts {
        for _ in 0..sc.burst_flows {
            let src = rng.gen_range(sc.n as u64) as u32;
            let mut dst = rng.gen_range(sc.n as u64) as u32;
            if dst == src {
                dst = (dst + 1) % sc.n as u32;
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

/// The full probe stack: weather + causal tracing + flight recorder +
/// (optionally) an interval sampler, so a single equivalence check
/// covers every batching path at once.
type Obs = (
    WeatherProbe,
    (
        FlowTraceCollector,
        (FlightRecorder, Option<IntervalSampler<MemorySink>>),
    ),
);

fn config(sc: &Scenario, threads: usize) -> SimConfig {
    SimConfig {
        uplinks: sc.uplinks,
        seed: sc.seed,
        engine_threads: threads,
        trace_one_in: sc.trace_one_in,
        ..SimConfig::default()
    }
}

fn fresh_probe(sc: &Scenario, cfg: &SimConfig) -> Obs {
    (
        WeatherProbe::new(CliqueMap::contiguous(sc.n, 2), 4),
        (
            FlowTraceCollector::new(cfg.slot_ns),
            (
                FlightRecorder::new(DEFAULT_CAPACITY),
                (sc.sample_interval_ns > 0)
                    .then(|| IntervalSampler::new(MemorySink::new(), sc.sample_interval_ns)),
            ),
        ),
    )
}

fn schedules(sc: &Scenario) -> (CircuitSchedule, CircuitSchedule) {
    let base = round_robin(sc.n).unwrap();
    let rotated =
        CircuitSchedule::from_matchings(base.matchings().iter().rev().cloned().collect()).unwrap();
    (base, rotated)
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
    plan
}

/// Steps (or jumps) to the end. The `advance_to` target is the next
/// *driver* boundary — the reconfiguration slot or the run bound —
/// exactly as a real driver would pass it; without `fast_forward` every
/// slot is one `step`.
fn drive_to_end<'a>(
    eng: &mut Engine<'a, Obs>,
    sc: &Scenario,
    rotated: &'a CircuitSchedule,
    fast_forward: bool,
) {
    drive_until(eng, sc, rotated, MAX_SLOTS, fast_forward);
}

fn drive_until<'a>(
    eng: &mut Engine<'a, Obs>,
    sc: &Scenario,
    rotated: &'a CircuitSchedule,
    stop_at: u64,
    fast_forward: bool,
) {
    while !eng.is_drained() && eng.now_slot() < stop_at {
        if sc.reconfigure_at == Some(eng.now_slot()) {
            eng.install_schedule(rotated);
            eng.reroute_queued().unwrap();
        }
        let target = match sc.reconfigure_at {
            Some(r) if eng.now_slot() < r => stop_at.min(r),
            _ => stop_at,
        };
        if fast_forward {
            eng.advance_to(target).unwrap();
        } else {
            eng.step().unwrap();
        }
    }
}

/// Everything a run produces that fast-forward must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct RunOutput {
    metrics: Metrics,
    spans: String,
    flight: String,
    weather_txt: String,
    weather_json: String,
    samples: Vec<TraceEvent>,
    /// Checkpoint bytes at the end of the run (probe blobs included),
    /// pinning engine *state* — calendar head included — not just
    /// outputs.
    final_snapshot: Vec<u8>,
}

fn finish(eng: Engine<'_, Obs>) -> RunOutput {
    let snapshot = snapshot_with_blobs(&eng);
    let metrics = eng.metrics().clone();
    let (weather, (collector, (recorder, sampler))) = eng.finish();
    RunOutput {
        metrics,
        spans: collector.render_all(),
        flight: recorder.dump_string(),
        weather_txt: weather.render_txt("ff"),
        weather_json: weather.render_json("ff"),
        samples: sampler.map_or_else(Vec::new, |s| s.into_sink().events),
        final_snapshot: snapshot.to_bytes(),
    }
}

fn snapshot_with_blobs(eng: &Engine<'_, Obs>) -> Snapshot {
    let mut snap = eng.checkpoint();
    // The snapshot embeds `engine_threads`; pin it so byte comparisons
    // across thread counts see only real state divergence.
    snap.set_engine_threads(1);
    let (weather, (collector, (recorder, _))) = eng.probe();
    snap.attach_blob("weather", weather.to_bytes());
    snap.attach_blob("trace", collector.to_bytes());
    snap.attach_blob("flight", recorder.to_bytes());
    snap
}

fn build<'a>(
    sc: &Scenario,
    base: &'a CircuitSchedule,
    router: &'a CoinSprayRouter,
    threads: usize,
) -> Engine<'a, Obs> {
    let cfg = config(sc, threads);
    let probe = fresh_probe(sc, &cfg);
    let mut eng = Engine::with_probe(cfg, base, router, probe);
    eng.add_flows(seeded_flows(sc)).unwrap();
    eng.set_fault_plan(plan(sc));
    eng
}

fn run(sc: &Scenario, threads: usize, fast_forward: bool) -> RunOutput {
    let (base, rotated) = schedules(sc);
    let router = CoinSprayRouter;
    let mut eng = build(sc, &base, &router, threads);
    drive_to_end(&mut eng, sc, &rotated, fast_forward);
    finish(eng)
}

/// The core sweep: per-slot stepping at 1 thread is the reference;
/// fast-forward must match it bit-for-bit at 1 and 4 threads, and must
/// actually have skipped a significant span (or the scenario isn't
/// exercising anything).
fn assert_fast_forward_equivalence(sc: &Scenario) {
    let reference = run(sc, 1, false);
    assert!(
        !reference.spans.is_empty(),
        "scenario traced nothing — not a useful equivalence check: {sc:?}"
    );
    for threads in [1, 4] {
        let ff = run(sc, threads, true);
        assert_eq!(
            reference, ff,
            "fast-forward at {threads} threads diverged on {sc:?}"
        );
    }
    // The gap really was jumped: the per-slot reference counts the same
    // quiet slots one at a time (so metrics agree), but the ff run must
    // have covered most of them in batched spans.
    assert!(
        reference.metrics.slots_skipped > 1_000,
        "scenario had no real quiet gap ({} skipped): {sc:?}",
        reference.metrics.slots_skipped
    );
}

fn gap_scenario() -> Scenario {
    Scenario {
        n: 8,
        uplinks: 2,
        seed: 3,
        trace_one_in: 1,
        bursts: vec![0, 1_500_000],
        burst_flows: 40,
        outages: vec![],
        storm: false,
        reconfigure_at: None,
        sample_interval_ns: 0,
    }
}

#[test]
fn plain_gap_run_is_bit_identical() {
    assert_fast_forward_equivalence(&gap_scenario());
}

#[test]
fn faults_inside_the_gap_are_bit_identical() {
    // A scripted outage in the middle of the long gap plus an early
    // storm: jumps must stop at every fault boundary and failure
    // accounting (failure_slots, episodes, recovery times) must match.
    assert_fast_forward_equivalence(&Scenario {
        n: 10,
        uplinks: 2,
        seed: 6,
        trace_one_in: 1,
        bursts: vec![0, 2_000_000],
        burst_flows: 50,
        outages: vec![(4, 7, 500_000, 700_000), (5, 2, 400, 1_500)],
        storm: true,
        reconfigure_at: None,
        sample_interval_ns: 0,
    });
}

#[test]
fn midgap_reconfiguration_is_bit_identical() {
    // install_schedule at slot 7000 — deep inside the quiet gap. The
    // driver bounds the jump at the reconfiguration slot, and the
    // weather timeline must attribute the reconfig to the right epoch.
    assert_fast_forward_equivalence(&Scenario {
        n: 8,
        uplinks: 1,
        seed: 9,
        trace_one_in: 1,
        bursts: vec![0, 3_000_000],
        burst_flows: 45,
        outages: vec![(0, 3, 200, 1_800)],
        storm: false,
        reconfigure_at: Some(7_000),
        sample_interval_ns: 0,
    });
}

#[test]
fn interval_sampler_marks_are_bit_identical() {
    // A sampler mark every 7700 ns (77 slots, deliberately off the
    // schedule period): every jump is bounded by `next_boundary_ns`, so
    // the sampler emits exactly the per-slot snapshot stream —
    // including the varying idle/utilization counters inside the gap.
    assert_fast_forward_equivalence(&Scenario {
        n: 8,
        uplinks: 2,
        seed: 12,
        trace_one_in: 2,
        bursts: vec![0, 900_000],
        burst_flows: 40,
        outages: vec![(1, 5, 300_000, 320_000)],
        storm: false,
        reconfigure_at: None,
        sample_interval_ns: 7_700,
    });
}

/// Regression (pinned *before* the gap jump was built on top): a fault
/// event scheduled inside a quiet gap must terminate the gap. Per-slot stepping must apply the event at exactly slot
/// `ceil(at_ns / slot_ns)`, and a fast-forward jump must stop at that
/// slot rather than leaping over the outage.
#[test]
fn fault_event_inside_quiet_gap_terminates_the_gap() {
    let sc = Scenario {
        n: 8,
        uplinks: 2,
        seed: 4,
        trace_one_in: 1,
        bursts: vec![0],
        burst_flows: 30,
        outages: vec![(2, 5, 50_000, 60_000)],
        storm: false,
        reconfigure_at: None,
        sample_interval_ns: 0,
    };
    let (base, rotated) = schedules(&sc);
    let router = CoinSprayRouter;
    let fault_slot = 50_000_u64.div_ceil(config(&sc, 1).slot_ns); // = 500

    // Per-slot: quiet stepping keeps the fault plan's cursor in view,
    // so the fault fires at exactly `fault_slot` even though every slot
    // around it is quiet.
    let mut eng = build(&sc, &base, &router, 1);
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
    assert!(
        !eng.failures().is_empty(),
        "fault did not apply at slot {fault_slot}"
    );
    assert_eq!(eng.metrics().failure_slots, 1);

    // Fast-forward: a jump aimed far past the fault must stop at the
    // fault slot with the outage not yet applied; the next advance is
    // the one busy slot that applies it.
    let mut eng = build(&sc, &base, &router, 1);
    drive_until(&mut eng, &sc, &rotated, 40, true); // drain the burst
    assert!(eng.is_drained());
    let from = eng.now_slot();
    let skipped = eng.advance_to(MAX_SLOTS).unwrap();
    assert_eq!(
        eng.now_slot(),
        fault_slot,
        "jump overshot the fault boundary"
    );
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

/// Checkpointing in the middle of a gap: a fast-forward run stopped at
/// slot `stop_at` must produce byte-identical checkpoint bytes to the
/// per-slot run stopped there, and resuming (at any thread count, with
/// gaps jumped) must land on the same final output.
fn assert_checkpoint_equivalence(sc: &Scenario, stops: &[u64]) {
    let (base, rotated) = schedules(sc);
    let router = CoinSprayRouter;
    let reference = run(sc, 1, false);
    for &stop_at in stops {
        let mut slow = build(sc, &base, &router, 1);
        drive_until(&mut slow, sc, &rotated, stop_at, false);
        let slow_snap = snapshot_with_blobs(&slow);
        drop(slow);

        let mut fast = build(sc, &base, &router, 1);
        drive_until(&mut fast, sc, &rotated, stop_at, true);
        let fast_snap = snapshot_with_blobs(&fast);
        drop(fast);
        assert_eq!(
            slow_snap.to_bytes(),
            fast_snap.to_bytes(),
            "checkpoint bytes at slot {stop_at} diverged on {sc:?}"
        );

        for restore_threads in [1, 4] {
            let mut snap = Snapshot::from_bytes(&fast_snap.to_bytes()).unwrap();
            snap.set_engine_threads(restore_threads);
            let cliques = CliqueMap::contiguous(sc.n, 2);
            let weather = WeatherProbe::from_bytes(snap.blob("weather").unwrap(), cliques).unwrap();
            let collector = FlowTraceCollector::from_bytes(snap.blob("trace").unwrap()).unwrap();
            let recorder = FlightRecorder::from_bytes(snap.blob("flight").unwrap()).unwrap();
            let current = match sc.reconfigure_at {
                Some(t) if snap.slot() > t => &rotated,
                _ => &base,
            };
            let probe: Obs = (weather, (collector, (recorder, None)));
            let mut eng = Engine::restore_with_probe(&snap, current, &router, probe).unwrap();
            drive_to_end(&mut eng, sc, &rotated, true);
            let resumed = finish(eng);
            assert_eq!(
                reference, resumed,
                "resume at slot {stop_at} ({restore_threads} threads) diverged on {sc:?}"
            );
        }
    }
}

#[test]
fn midgap_checkpoints_are_bit_identical_and_resume_exactly() {
    // Stops inside the first burst, deep inside the gap, and just
    // before the second burst lands.
    assert_checkpoint_equivalence(
        &Scenario {
            n: 8,
            uplinks: 2,
            seed: 3,
            trace_one_in: 1,
            bursts: vec![0, 1_500_000],
            burst_flows: 40,
            outages: vec![(1, 6, 600_000, 640_000)],
            storm: false,
            reconfigure_at: None,
            sample_interval_ns: 0,
        },
        &[10, 4_000, 14_999],
    );
}

/// Any scenario the loop can draw — random burst layouts,
/// outages, an optional storm, an optional mid-gap reconfiguration
/// — is bit-identical with fast-forward on, at 1–4 threads.
#[test]
fn fast_forward_is_bit_identical_for_random_scenarios() {
    cases(16, |rng| {
        let n = rng.gen_range(4usize..7);
        let uplinks = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..500);
        let one_in = rng.gen_range(1u64..4);
        let burst_flows = rng.gen_range(10usize..40);
        let gap_ns = rng.gen_range(100_000u64..2_000_000);
        let storm = rng.gen::<bool>();
        let reconfigure = rng.gen::<bool>().then(|| rng.gen_range(100u64..5_000));
        let sample = rng.gen::<bool>().then(|| rng.gen_range(1_000u64..20_000));
        let threads = rng.gen_range(1usize..5);
        let outages = rng.vec(0..3, |rng| {
            (
                rng.gen_range(0u32..6),
                rng.gen_range(0u32..6),
                rng.gen_range(0u64..1_500_000),
                rng.gen_range(1u64..200_000),
            )
        });
        let n = n * 2; // CliqueMap::contiguous(n, 2) needs even n
        let sc = Scenario {
            n,
            uplinks,
            seed,
            trace_one_in: one_in,
            bursts: vec![0, gap_ns],
            burst_flows,
            outages: outages
                .into_iter()
                .filter(|&(s, d, _, _)| s != d && (s as usize) < n && (d as usize) < n)
                .map(|(s, d, from, len)| (s, d, from, from + len))
                .collect(),
            storm,
            reconfigure_at: reconfigure,
            sample_interval_ns: sample.unwrap_or(0),
        };
        assert_eq!(run(&sc, 1, false), run(&sc, threads, true));
    });
}

/// Gap jumping needs no switch: a plain engine driven by `run_until_drained`
/// covers a quiet gap in batched spans, and the slots its probe counts
/// one by one plus those in spans are every slot the run advanced.
#[test]
fn a_plain_run_jumps_quiet_gaps() {
    let sc = gap_scenario();
    let (base, _) = schedules(&sc);
    let router = CoinSprayRouter;
    let mut eng = Engine::with_probe(config(&sc, 1), &base, &router, CountingProbe::new());
    eng.add_flows(seeded_flows(&sc)).unwrap();
    assert!(eng.run_until_drained(MAX_SLOTS).unwrap());
    let slots = eng.metrics().slots;
    let probe = eng.finish();
    assert!(
        probe.skip_spans >= 1,
        "the quiet gap was stepped slot by slot"
    );
    assert_eq!(probe.slots + probe.skipped_slots, slots);
}
