//! Restore-equals-uninterrupted equivalence for the checkpoint system
//! (DESIGN.md §12).
//!
//! Every scenario is run twice: once straight through, and once
//! interrupted at a slot boundary — snapshot, serialize through the
//! fault-injecting in-memory store (full `to_bytes`/`from_bytes` round
//! trip included), restore, and continue. Final metrics, rendered trace
//! spans, and flight-recorder dumps must be byte-identical, at every
//! combination of 1–4 engine threads before and after the restore, for
//! plain runs, runs under an active seeded `FaultStorm`, and runs with
//! a mid-run `install_schedule` reconfiguration on either side of the
//! checkpoint. A committed golden checkpoint pins the on-disk byte
//! format, and a sweep over every byte offset of a corrupted generation
//! proves the loader falls back to the older valid one without ever
//! panicking.

use sorn_base::rng::cases;
use sorn_sim::{
    Cell, CheckpointError, CheckpointFaultFs, CheckpointStore, ClassId, Engine, FaultPlan,
    FaultStorm, Flow, FlowId, Metrics, NodeRng, RouteDecision, Router, SimConfig, Snapshot,
    WriteFault, FORMAT_VERSION,
};
use sorn_telemetry::{FlightRecorder, FlowTraceCollector, DEFAULT_CAPACITY};
use sorn_topology::builders::round_robin;
use sorn_topology::{CircuitSchedule, NodeId};

/// Same two-hop spray router as `trace_equivalence.rs`: consumes the
/// per-node RNG stream and exercises both queue kinds, so restore must
/// reproduce RNG counters and class queues exactly.
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

/// One fully-specified scenario; everything a checkpointed run depends on.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    uplinks: usize,
    seed: u64,
    trace_one_in: u64,
    flows: Vec<Flow>,
    /// `(src, dst, from_ns, until_ns)` scripted link outages.
    outages: Vec<(u32, u32, u64, u64)>,
    /// `(node, from_ns, until_ns)` scripted node outages.
    node_outages: Vec<(u32, u64, u64)>,
    /// Adds a seeded MTBF/MTTR `FaultStorm` over the low links/nodes.
    storm: bool,
    /// Installs a rotated schedule (plus reroute) when this slot starts.
    reconfigure_at: Option<u64>,
}

/// Absolute drain cap for every run.
const MAX_SLOTS: u64 = 100_000;

/// Seeded workload drawn from the simulator's own counter-based stream.
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

type Obs = (FlowTraceCollector, FlightRecorder);

fn config(sc: &Scenario, threads: usize) -> SimConfig {
    SimConfig {
        uplinks: sc.uplinks,
        seed: sc.seed,
        engine_threads: threads,
        trace_one_in: sc.trace_one_in,
        ..SimConfig::default()
    }
}

fn fresh_probe(cfg: &SimConfig) -> Obs {
    (
        FlowTraceCollector::new(cfg.slot_ns),
        FlightRecorder::new(DEFAULT_CAPACITY),
    )
}

/// The run's two schedules: the base round robin and the rotated
/// variant a mid-run reconfiguration swaps in.
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
    for &(v, from, until) in &sc.node_outages {
        plan.node_outage(NodeId(v), from, until);
    }
    plan
}

fn maybe_reconfigure<'a>(eng: &mut Engine<'a, Obs>, sc: &Scenario, rotated: &'a CircuitSchedule) {
    if sc.reconfigure_at == Some(eng.now_slot()) {
        eng.install_schedule(rotated);
        eng.reroute_queued().unwrap();
    }
}

fn drive_to_end<'a>(eng: &mut Engine<'a, Obs>, sc: &Scenario, rotated: &'a CircuitSchedule) {
    while !eng.is_drained() && eng.now_slot() < MAX_SLOTS {
        maybe_reconfigure(eng, sc, rotated);
        eng.step().unwrap();
    }
}

/// Everything a run produces that restore must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct RunOutput {
    metrics: Metrics,
    spans: String,
    flight: String,
}

fn finish(eng: Engine<'_, Obs>) -> RunOutput {
    let metrics = eng.metrics().clone();
    let (collector, recorder) = eng.finish();
    RunOutput {
        metrics,
        spans: collector.render_all(),
        flight: recorder.dump_string(),
    }
}

fn run_uninterrupted(sc: &Scenario, threads: usize) -> RunOutput {
    let (base, rotated) = schedules(sc);
    let router = CoinSprayRouter;
    let cfg = config(sc, threads);
    let probe = fresh_probe(&cfg);
    let mut eng = Engine::with_probe(cfg, &base, &router, probe);
    eng.add_flows(sc.flows.clone()).unwrap();
    eng.set_fault_plan(plan(sc));
    drive_to_end(&mut eng, sc, &rotated);
    finish(eng)
}

/// Runs to `stop_at`, checkpoints (probe state riding along as blobs),
/// round-trips the snapshot through the in-memory store — serialized
/// bytes, generation files, `load_latest` — and finishes the run on a
/// freshly restored engine at `restore_threads`.
fn run_interrupted(
    sc: &Scenario,
    threads: usize,
    stop_at: u64,
    restore_threads: usize,
) -> RunOutput {
    let (base, rotated) = schedules(sc);
    let router = CoinSprayRouter;
    let cfg = config(sc, threads);
    let probe = fresh_probe(&cfg);
    let mut eng = Engine::with_probe(cfg, &base, &router, probe);
    eng.add_flows(sc.flows.clone()).unwrap();
    eng.set_fault_plan(plan(sc));
    while !eng.is_drained() && eng.now_slot() < stop_at {
        maybe_reconfigure(&mut eng, sc, &rotated);
        eng.step().unwrap();
    }

    let mut snap = eng.checkpoint();
    let (collector, recorder) = eng.probe();
    snap.attach_blob("trace", collector.to_bytes());
    snap.attach_blob("flight", recorder.to_bytes());
    drop(eng);

    let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
    store.write(&snap).unwrap();
    let out = store.load_latest().unwrap();
    assert!(out.skipped.is_empty(), "clean write reported corruption");
    let mut snap = out.snapshot;
    snap.set_engine_threads(restore_threads);

    let collector = FlowTraceCollector::from_bytes(snap.blob("trace").unwrap()).unwrap();
    let recorder = FlightRecorder::from_bytes(snap.blob("flight").unwrap()).unwrap();
    // A reconfiguration strictly before the checkpoint is already part
    // of the snapshotted state; the caller re-supplies the schedule that
    // was installed at checkpoint time.
    let current = match sc.reconfigure_at {
        Some(t) if snap.slot() > t => &rotated,
        _ => &base,
    };
    let mut eng =
        Engine::restore_with_probe(&snap, current, &router, (collector, recorder)).unwrap();
    drive_to_end(&mut eng, sc, &rotated);
    finish(eng)
}

/// The seeded sweep: uninterrupted at `threads` must equal interrupted
/// runs at every (run, restore) thread pairing over 1 and 4 threads and
/// at several checkpoint slots.
fn assert_resume_equivalence(sc: &Scenario, stops: &[u64]) {
    let reference = run_uninterrupted(sc, 1);
    assert!(
        !reference.spans.is_empty(),
        "scenario traced nothing — not a useful equivalence check: {sc:?}"
    );
    assert_eq!(
        reference,
        run_uninterrupted(sc, 4),
        "uninterrupted runs diverged across thread counts on {sc:?}"
    );
    for &stop_at in stops {
        for (threads, restore_threads) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
            let resumed = run_interrupted(sc, threads, stop_at, restore_threads);
            assert_eq!(
                reference, resumed,
                "restore at slot {stop_at} ({threads} -> {restore_threads} threads) \
                 diverged on {sc:?}"
            );
        }
    }
}

#[test]
fn plain_run_resumes_identically() {
    assert_resume_equivalence(
        &Scenario {
            n: 8,
            uplinks: 2,
            seed: 3,
            trace_one_in: 1,
            flows: seeded_flows(8, 3, 80),
            outages: vec![],
            node_outages: vec![],
            storm: false,
            reconfigure_at: None,
        },
        &[1, 4, 11],
    );
}

#[test]
fn faultstorm_run_resumes_identically() {
    // The storm keeps failure state, repair calendars, and fault-plan
    // cursors live across the checkpoint; scripted outages overlap it.
    assert_resume_equivalence(
        &Scenario {
            n: 10,
            uplinks: 2,
            seed: 6,
            trace_one_in: 1,
            flows: seeded_flows(10, 6, 100),
            outages: vec![(4, 7, 100, 2_000), (5, 2, 400, 1_500)],
            node_outages: vec![],
            storm: true,
            reconfigure_at: None,
        },
        &[2, 8],
    );
}

#[test]
fn high_node_failures_resume_identically() {
    // 200 nodes: failed nodes and links sit in the second, third and
    // fourth words of the failure bitset at every checkpoint slot, and
    // the restored failure set must equal the live one before the run
    // resumes.
    let sc = Scenario {
        n: 200,
        uplinks: 2,
        seed: 12,
        trace_one_in: 8,
        flows: seeded_flows(200, 12, 300),
        outages: vec![(130, 131, 100, 3_000), (199, 70, 0, 2_500)],
        node_outages: vec![(64, 200, 2_500), (150, 0, 1_800), (199, 400, 900)],
        storm: false,
        reconfigure_at: None,
    };
    let (base, _) = schedules(&sc);
    let router = CoinSprayRouter;
    let mut eng = Engine::new(config(&sc, 1), &base, &router);
    eng.add_flows(sc.flows.clone()).unwrap();
    eng.set_fault_plan(plan(&sc));
    for stop_at in [3, 9] {
        while eng.now_slot() < stop_at {
            eng.step().unwrap();
        }
        let failed = eng.failures().failed_node_ids();
        assert!(failed.contains(&NodeId(64)) && failed.contains(&NodeId(150)));
        let snap = Snapshot::from_bytes(&eng.checkpoint().to_bytes()).unwrap();
        let restored = Engine::restore(&snap, &base, &router).unwrap();
        assert_eq!(restored.failures(), eng.failures());
    }
    assert_resume_equivalence(&sc, &[3, 9]);
}

#[test]
fn midrun_reconfiguration_resumes_identically() {
    // Checkpoint slots straddle the install_schedule at slot 6: stop at
    // 3 restores onto the base schedule and replays the swap, stop at
    // 10 restores directly onto the rotated schedule.
    assert_resume_equivalence(
        &Scenario {
            n: 8,
            uplinks: 1,
            seed: 9,
            trace_one_in: 1,
            flows: seeded_flows(8, 9, 90),
            outages: vec![(0, 3, 200, 1_800)],
            node_outages: vec![],
            storm: false,
            reconfigure_at: Some(6),
        },
        &[3, 10],
    );
}

/// A single corrupted byte anywhere in the newest generation must be
/// detected (CRC-64 catches all one-byte errors), skipped with a
/// structured reason, and fall back to the older valid generation —
/// never a panic, never a silently-wrong snapshot.
#[test]
fn corrupt_byte_at_every_offset_falls_back_without_panicking() {
    let (older, newer) = checkpoint_pair();
    let len = {
        let mut probe = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
        let (_, bytes) = probe.write(&newer).unwrap();
        bytes
    };
    for offset in 0..len {
        let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
        store.write(&older).unwrap();
        store.fs_mut().arm(WriteFault::CorruptByte { offset });
        store.write(&newer).unwrap();
        let out = store
            .load_latest()
            .unwrap_or_else(|e| panic!("offset {offset}: no valid generation: {e}"));
        assert_eq!(
            out.snapshot.slot(),
            older.slot(),
            "offset {offset}: corrupt newest generation was not skipped"
        );
        assert_eq!(out.skipped.len(), 1, "offset {offset}");
    }
}

/// A write torn at any length (power loss mid-`write`) must likewise
/// fall back to the previous generation.
#[test]
fn torn_write_at_every_length_falls_back_without_panicking() {
    let (older, newer) = checkpoint_pair();
    let len = {
        let mut probe = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
        let (_, bytes) = probe.write(&newer).unwrap();
        bytes
    };
    for keep in 0..len {
        let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
        store.write(&older).unwrap();
        store.fs_mut().arm(WriteFault::Torn { keep });
        // The crash is reported at write time; the torn prefix is on
        // "disk" regardless, and the loader must still skip past it.
        assert!(store.write(&newer).is_err(), "keep {keep}");
        let out = store
            .load_latest()
            .unwrap_or_else(|e| panic!("keep {keep}: no valid generation: {e}"));
        assert_eq!(
            out.snapshot.slot(),
            older.slot(),
            "keep {keep}: torn newest generation was not skipped"
        );
    }
}

/// A failed atomic rename leaves no new generation at all; the store
/// reports the error on write and still serves the older snapshot.
#[test]
fn failed_rename_keeps_the_older_generation() {
    let (older, newer) = checkpoint_pair();
    let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
    store.write(&older).unwrap();
    store.fs_mut().arm(WriteFault::FailRename);
    assert!(store.write(&newer).is_err(), "rename fault not surfaced");
    let out = store.load_latest().unwrap();
    assert_eq!(out.snapshot.slot(), older.slot());
    assert!(out.skipped.is_empty());
}

/// Two real snapshots of the golden scenario a few slots apart.
fn checkpoint_pair() -> (Snapshot, Snapshot) {
    let sc = golden_scenario();
    let (base, rotated) = schedules(&sc);
    let router = CoinSprayRouter;
    let cfg = config(&sc, 1);
    let probe = fresh_probe(&cfg);
    let mut eng = Engine::with_probe(cfg, &base, &router, probe);
    eng.add_flows(sc.flows.clone()).unwrap();
    eng.set_fault_plan(plan(&sc));
    while eng.now_slot() < 4 {
        maybe_reconfigure(&mut eng, &sc, &rotated);
        eng.step().unwrap();
    }
    let older = snapshot_with_blobs(&eng);
    while eng.now_slot() < 8 {
        maybe_reconfigure(&mut eng, &sc, &rotated);
        eng.step().unwrap();
    }
    (older, snapshot_with_blobs(&eng))
}

fn snapshot_with_blobs(eng: &Engine<'_, Obs>) -> Snapshot {
    let mut snap = eng.checkpoint();
    let (collector, recorder) = eng.probe();
    snap.attach_blob("trace", collector.to_bytes());
    snap.attach_blob("flight", recorder.to_bytes());
    snap
}

fn golden_scenario() -> Scenario {
    Scenario {
        n: 6,
        uplinks: 2,
        seed: 42,
        trace_one_in: 2,
        flows: seeded_flows(6, 42, 24),
        outages: vec![(1, 4, 200, 1_200)],
        node_outages: vec![],
        storm: false,
        reconfigure_at: None,
    }
}

/// The golden checkpoint: the serialized snapshot of the golden
/// scenario at slot 8 is pinned byte-for-byte, so the on-disk format
/// cannot drift without regenerating the fixture on purpose, and the
/// committed bytes must still restore and finish to the uninterrupted
/// outcome. Regenerate with:
/// `cargo test -p sorn-sim --test checkpoint_equivalence -- --ignored regenerate`
#[test]
fn golden_checkpoint_bytes_restore_and_match() {
    let (_, snap) = checkpoint_pair();
    let golden: &[u8] = include_bytes!("golden/checkpoint_small.sorn");
    assert_eq!(
        snap.to_bytes(),
        golden,
        "checkpoint byte format drifted from the committed golden fixture"
    );

    let sc = golden_scenario();
    let (base, rotated) = schedules(&sc);
    let router = CoinSprayRouter;
    let snap = Snapshot::from_bytes(golden).unwrap();
    let collector = FlowTraceCollector::from_bytes(snap.blob("trace").unwrap()).unwrap();
    let recorder = FlightRecorder::from_bytes(snap.blob("flight").unwrap()).unwrap();
    let mut eng = Engine::restore_with_probe(&snap, &base, &router, (collector, recorder)).unwrap();
    drive_to_end(&mut eng, &sc, &rotated);
    assert_eq!(finish(eng), run_uninterrupted(&sc, 1));
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

/// Not a test: rewrites the golden fixture from the current tree.
#[test]
#[ignore = "fixture regenerator, run explicitly"]
fn regenerate_golden_fixtures() {
    let (_, snap) = checkpoint_pair();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("checkpoint_small.sorn"), snap.to_bytes()).unwrap();
}

/// Any scenario the loop can draw — random workloads, outages,
/// an optional storm, an optional mid-run reconfiguration, and any
/// checkpoint slot / thread pairing — restores to the uninterrupted
/// outcome exactly.
#[test]
fn restore_equals_uninterrupted_for_random_scenarios() {
    cases(256, |rng| {
        let n = rng.gen_range(4usize..12);
        let uplinks = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..500);
        let one_in = rng.gen_range(1u64..4);
        let flow_count = rng.gen_range(10usize..90);
        let storm = rng.gen::<bool>();
        let reconfigure = rng.gen::<bool>().then(|| rng.gen_range(1u64..12));
        let stop_at = rng.gen_range(1u64..15);
        let threads = rng.gen_range(1usize..5);
        let restore_threads = rng.gen_range(1usize..5);
        let outages = rng.vec(0..3, |rng| {
            (
                rng.gen_range(0u32..12),
                rng.gen_range(0u32..12),
                rng.gen_range(0u64..2_000),
                rng.gen_range(1u64..3_000),
            )
        });
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
            node_outages: vec![],
            storm,
            reconfigure_at: reconfigure,
        };
        assert_eq!(
            run_interrupted(&sc, threads, stop_at, restore_threads),
            run_uninterrupted(&sc, threads)
        );
    });
}
