//! The one run path of every packet run in `sorn-analysis`: [`open`]
//! a run before any output — its checkpoint store and newest checkpoint
//! when it keeps them, its observers, and its `--trace-out` file — then
//! [`Opened::drive`] the engine to its goal (through periodic
//! checkpoints, graceful stop and resume when it has a store) and write
//! the observers' reports. Nothing else in the crate builds or advances
//! an engine.

use crate::autopsy::TailAutopsy;
use crate::timeseries::snapshots_of;
use crate::CheckpointOpts;
use sorn_sim::{
    CheckpointError, CheckpointFs, CheckpointStore, Engine, FaultPlan, Flow, LinkHealth,
    LoadOutcome, Metrics, Router, SimConfig,
};
use sorn_telemetry::{
    read_jsonl, EventSink, IntervalSampler, JsonlTraceSink, Observers, Snapshot, WeatherProbe,
};
use sorn_topology::CircuitSchedule;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Exit code for a run interrupted by SIGINT/SIGTERM after writing a
/// final checkpoint: distinct from success (0) and usage errors (2) so
/// wrappers can tell "stopped cleanly, resume me" apart from both.
const EXIT_INTERRUPTED: i32 = 3;

static STOP_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn record_stop_signal(_signum: i32) {
    STOP_FLAG.store(true, Ordering::SeqCst);
}

/// The stop flag a run polls.
///
/// With `checkpointing`, SIGINT/SIGTERM handlers are installed that set
/// the flag instead of killing the process: [`Opened::drive`]
/// polls it at slot boundaries, so on the first signal the current slot
/// finishes, a final checkpoint is written, sinks are flushed, and the
/// process exits with [`EXIT_INTERRUPTED`]. Installing twice is
/// harmless; non-unix targets get the flag without handlers. Without
/// checkpointing the flag is one nothing sets, so a signal ends a plain
/// run the default way.
fn stop_flag(checkpointing: bool) -> &'static AtomicBool {
    static NEVER: AtomicBool = AtomicBool::new(false);
    if !checkpointing {
        return &NEVER;
    }
    #[cfg(unix)]
    {
        // Raw libc signal(2) via FFI keeps this std-only: the handler
        // merely stores to a static atomic, which is async-signal-safe.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` takes a valid signal number and a handler
        // address; `record_stop_signal` is an `extern "C" fn(i32)` that
        // lives for the whole program and does nothing but an atomic
        // store, so it is safe to run at any point of any thread.
        unsafe {
            signal(SIGINT, record_stop_signal as *const () as usize);
            signal(SIGTERM, record_stop_signal as *const () as usize);
        }
    }
    &STOP_FLAG
}

/// How far a run drives its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Run until the engine's absolute slot counter reaches this value
    /// (so a resumed engine continues to the same end slot).
    UntilSlot(u64),
    /// Run until the engine drains, giving up at this absolute slot.
    UntilDrained(u64),
}

/// The slot budget of every run driven [`RunMode::UntilDrained`]
/// (`simulate --max-slots` defaults to it). Every experiment's run
/// drains long before it, so the budget shows in no output.
pub const DRAIN_SLOTS: u64 = 10_000_000;

/// The observer stack every driven run carries; its sampler writes a
/// `--trace-out` JSONL file.
pub type Stack = Observers<JsonlTraceSink>;

/// What a run simulates, beyond its [`SimConfig`].
pub struct Run<'a> {
    /// The circuit schedule.
    pub schedule: &'a CircuitSchedule,
    /// The router.
    pub router: &'a dyn Router,
    /// The workload.
    pub flows: Vec<Flow>,
    /// Scripted failures (empty for a healthy fabric).
    pub faults: FaultPlan,
    /// The link-health view a fault-aware router reads, if any.
    pub health: Option<LinkHealth>,
    /// How far to run.
    pub mode: RunMode,
}

impl<'a> Run<'a> {
    /// `flows` on a healthy fabric, run until drained within
    /// [`DRAIN_SLOTS`].
    pub fn new(schedule: &'a CircuitSchedule, router: &'a dyn Router, flows: Vec<Flow>) -> Self {
        Run {
            schedule,
            router,
            flows,
            faults: FaultPlan::new(),
            health: None,
            mode: RunMode::UntilDrained(DRAIN_SLOTS),
        }
    }
}

/// A finished run.
pub struct Finished {
    /// Its metrics, stranded cells counted.
    pub metrics: Metrics,
    /// Whether the engine drained.
    pub drained: bool,
    /// Cells still queued in the nodes at the end.
    pub queued: usize,
    /// Events written to the `--trace-out` file (0 without one).
    pub events: u64,
    /// That trace's snapshot series as read back, in order; the last is
    /// the run's end.
    pub snapshots: Vec<Snapshot>,
    /// The weather roll-up, if attached; its report files are written.
    pub weather: Option<WeatherProbe>,
    /// Lines for stdout: the run trace written, the tail autopsy, the
    /// weather report files and the flight-recorder dump.
    pub notes: Vec<String>,
}

/// `WEATHER_<name>.txt` and `WEATHER_<name>.json`.
pub fn weather_paths(name: &str) -> [PathBuf; 2] {
    ["txt", "json"].map(|ext| PathBuf::from(format!("WEATHER_{name}.{ext}")))
}

/// One run's store, newest checkpoint, observers and trace file:
/// [`open`] makes it before anything reaches stdout, [`Opened::drive`]
/// runs it.
pub struct Opened {
    /// Store subdirectory and `WEATHER_` / `FLIGHT_` report suffix.
    name: String,
    /// Prefix of errors and stdout notes: `"[sorn] "`, or empty.
    tag: String,
    /// Prefix of stderr notes: `"resilience: [sorn] "`.
    log: String,
    cfg: SimConfig,
    store: Option<CheckpointStore>,
    every_slots: u64,
    resumed: Option<LoadOutcome>,
    observers: Stack,
    /// The `--trace-out` file the stack's sampler writes.
    trace_out: Option<PathBuf>,
}

/// Opens run `name`'s store (`<dir>/<name>/`) and, with `--resume`,
/// loads its newest valid checkpoint and restores `observers` from it;
/// the flight recorder, if any, dumps to `FLIGHT_<name>.jsonl`. No
/// checkpoint yet is a fresh start (a run may have finished before the
/// interruption; rerunning it is deterministic), but a store whose
/// every generation is corrupt, or whose newest was written with other
/// observers or another [`SimConfig`] (`engine_threads` aside), is
/// refused naming the reason or the flag — before any output. A run
/// that starts fresh with `trace_out` creates that JSONL file (and its
/// directory) for a sampler snapshotting every given nanoseconds of
/// simulated time; a resumed one never does.
pub fn open(
    ckpt: &CheckpointOpts,
    name: &str,
    (tag, log): (&str, &str),
    cfg: SimConfig,
    mut observers: Stack,
    trace_out: Option<(&Path, u64)>,
) -> Result<Opened, String> {
    let dump = format!("FLIGHT_{name}.jsonl");
    observers.flight = observers.flight.take().map(|f| f.with_dump_path(dump));
    let mut store = None;
    let mut resumed = None;
    if let Some(dir) = &ckpt.dir {
        let opened = CheckpointStore::open(dir.join(name)).map_err(|e| format!("{tag}{e}"))?;
        resumed = match ckpt.resume.then(|| opened.load_latest()) {
            None => None,
            Some(Ok(out)) => Some(out),
            Some(Err(CheckpointError::NoValidCheckpoint { skipped, .. })) if skipped.is_empty() => {
                None
            }
            Some(Err(e)) => return Err(format!("{tag}cannot resume: {e}")),
        };
        store = Some(opened);
    }
    if let Some(out) = &resumed {
        let refuse = |e: String| format!("{tag}cannot resume from {}: {e}", out.path.display());
        let saved = SimConfig {
            engine_threads: cfg.engine_threads,
            ..out.snapshot.config()
        };
        let differs = [
            (saved.uplinks != cfg.uplinks, "--uplinks"),
            (saved.seed != cfg.seed, "--seed"),
            (saved.trace_one_in != cfg.trace_one_in, "--trace-flows"),
            (saved != cfg, "the engine configuration"),
        ];
        if let Some((_, flag)) = differs.into_iter().find(|(differs, _)| *differs) {
            let why = format!("{flag} differs: checkpointed {saved:?}, this run {cfg:?}");
            return Err(refuse(why));
        }
        observers.restore(&out.snapshot).map_err(refuse)?;
    }
    let trace_out = trace_out.filter(|_| resumed.is_none());
    if let Some((path, interval_ns)) = trace_out {
        observers.sampler = Some(trace_sampler(path, interval_ns)?);
    }
    Ok(Opened {
        name: name.to_string(),
        tag: tag.to_string(),
        log: log.to_string(),
        cfg,
        store,
        every_slots: ckpt.every_slots,
        resumed,
        observers,
        trace_out: trace_out.map(|(path, _)| path.to_path_buf()),
    })
}

/// [`open`]s a run of `cfg` that keeps no checkpoints and carries no
/// observer but the `trace_out` sampler, if any.
pub fn plain(cfg: SimConfig, trace_out: Option<(&Path, u64)>) -> Result<Opened, String> {
    let no_store = CheckpointOpts {
        dir: None,
        every_slots: 1,
        resume: false,
    };
    open(&no_store, "", ("", ""), cfg, Observers::none(), trace_out)
}

/// A sampler writing the JSONL trace at `path` (its directory created
/// if missing), one snapshot every `interval_ns` of simulated time.
fn trace_sampler(path: &Path, interval_ns: u64) -> Result<IntervalSampler<JsonlTraceSink>, String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| {
            format!(
                "cannot create --trace-out directory {}: {e}",
                parent.display()
            )
        })?;
    }
    let sink = JsonlTraceSink::create(path).map_err(trace_file(path))?;
    Ok(IntervalSampler::new(sink, interval_ns))
}

/// The error message of an I/O failure on the trace file at `path`.
fn trace_file(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("--trace-out file {}: {e}", path.display())
}

impl Opened {
    /// The one run path. Builds `run`'s engine fresh, or restores it
    /// from the checkpoint (flows, fault plan and failure state come
    /// from the snapshot) at the configured engine threads, and runs it
    /// to `run.mode` with periodic checkpoints and graceful stop when
    /// it has a store. The flight recorder notes the restore before the
    /// run and the checkpoints written after it, so the checkpoint
    /// cadence never shows in its engine events. At the end the run
    /// trace is read back and checked against the metrics (every event
    /// written, the final snapshot's delivered cells), and the weather
    /// reports and flight dump are written.
    ///
    /// A signal that stopped this run (its final checkpoint is on disk)
    /// or an earlier one ends the process with [`EXIT_INTERRUPTED`].
    pub fn drive(mut self, run: Run<'_>) -> Result<Finished, String> {
        let (tag, log) = (&self.tag, &self.log);
        let stop = stop_flag(self.store.is_some());
        if stop.load(Ordering::SeqCst) {
            std::process::exit(EXIT_INTERRUPTED);
        }
        let mut eng = if let Some(out) = &mut self.resumed {
            for (path, reason) in &out.skipped {
                eprintln!(
                    "{log}skipped corrupt checkpoint {}: {reason}",
                    path.display()
                );
            }
            out.snapshot.set_engine_threads(self.cfg.engine_threads);
            let path = out.path.display();
            let eng =
                Engine::restore_with_probe(&out.snapshot, run.schedule, run.router, self.observers)
                    .map_err(|e| {
                        format!("{tag}checkpoint {path} does not fit this scenario: {e}")
                    })?;
            eprintln!("{log}resumed from {path} at slot {}", out.snapshot.slot());
            eng
        } else {
            let mut eng = Engine::with_probe(self.cfg, run.schedule, run.router, self.observers);
            eng.set_fault_plan(run.faults);
            eng.add_flows(run.flows).map_err(|e| format!("{tag}{e}"))?;
            eng
        };
        if let Some(health) = run.health {
            eng.set_health_mirror(health);
        }
        if let (Some(out), Some(recorder)) = (&self.resumed, &mut eng.probe_mut().flight) {
            for (path, reason) in &out.skipped {
                recorder.note_checkpoint_corrupt_skipped(&path.display().to_string(), reason);
            }
            recorder.note_checkpoint_restored(out.snapshot.slot(), &out.path.display().to_string());
        }
        let (drained, written) = drive_checkpointed(
            &mut eng,
            run.mode,
            self.store.as_mut(),
            self.every_slots,
            stop,
        )
        .map_err(|e| format!("{tag}{e}"))?;
        if let Some(recorder) = &mut eng.probe_mut().flight {
            for (slot, path, bytes) in &written {
                recorder.note_checkpoint_written(*slot, *bytes as u64, &path.display().to_string());
            }
        }
        let Some(drained) = drained else {
            let wrote =
                (written.last()).map_or(String::new(), |w| format!("; wrote {}", w.1.display()));
            eprintln!(
                "{log}interrupted at slot {}{wrote}; rerun with --resume",
                eng.now_slot()
            );
            std::process::exit(EXIT_INTERRUPTED);
        };

        let queued = eng.total_queued();
        let mut metrics = eng.metrics().clone();
        metrics.stranded_cells = eng.count_stranded();
        let Observers {
            sampler,
            trace,
            weather,
            flight,
        } = eng.finish();
        let mut notes = Vec::new();
        let (mut events, mut snapshots) = (0, Vec::new());
        if let (Some(sampler), Some(path)) = (sampler, &self.trace_out) {
            events = sampler.into_sink().finish().map_err(trace_file(path))?;
            let read = read_jsonl(path).map_err(trace_file(path))?;
            snapshots = snapshots_of(&read);
            let delivered = snapshots.last().map(|s| s.delivered_cells);
            if read.len() as u64 != events || delivered != Some(metrics.delivered_cells) {
                return Err(format!(
                    "--trace-out file {}: read back {} of {events} events, final snapshot \
                     delivered {delivered:?} cells, the run {}",
                    path.display(),
                    read.len(),
                    metrics.delivered_cells
                ));
            }
            notes.push(format!(
                "{tag}wrote {events} trace events to {}",
                path.display()
            ));
        }
        if let Some(c) = trace {
            notes.push(format!("{tag}traced {} hop events", c.len()));
            let autopsy = TailAutopsy::from_breakdowns(&c.cell_breakdowns(), 5).render();
            notes.extend(autopsy.lines().map(|line| format!("  {line}")));
        }
        if let Some(w) = &weather {
            let (name, [txt, json]) = (&self.name, weather_paths(&self.name));
            std::fs::write(&txt, w.render_txt(name))
                .and_then(|()| std::fs::write(&json, w.render_json(name)))
                .map_err(|e| format!("{tag}writing weather report: {e}"))?;
            notes.push(format!(
                "{tag}weather: {} and {}",
                txt.display(),
                json.display()
            ));
        }
        if let Some(mut recorder) = flight {
            let dumped = recorder.dump_if_anomalous();
            if let Some(path) = dumped.map_err(|e| format!("{tag}flight-recorder dump: {e}"))? {
                notes.push(format!(
                    "{tag}flight recorder: anomaly -> {}",
                    path.display()
                ));
            }
        }
        Ok(Finished {
            metrics,
            drained,
            queued,
            events,
            snapshots,
            weather,
            notes,
        })
    }
}

/// A checkpoint written: slot, file, encoded bytes.
type Written = (u64, PathBuf, usize);

/// Runs `engine` to `mode`'s goal, honoring `stop`, and — given a
/// `store` — checkpointing it with its observers' blobs every
/// `every_slots` slots and when `stop` is raised: the slot loop of
/// [`Opened::drive`]. Returns whether the engine drained, or `None`
/// when `stop` ended the run (after the current slot and the final
/// checkpoint), with every checkpoint written as `(slot, path, bytes)`.
/// Without a store the loop advances exactly like `Engine::run_slots`
/// / `Engine::run_until_drained`. Quiet gaps are jumped, but never past
/// a checkpoint boundary, so the checkpoints written are those of the
/// slot-by-slot loop.
fn drive_checkpointed<S: EventSink, FS: CheckpointFs>(
    engine: &mut Engine<'_, Observers<S>>,
    mode: RunMode,
    mut store: Option<&mut CheckpointStore<FS>>,
    every_slots: u64,
    stop: &AtomicBool,
) -> Result<(Option<bool>, Vec<Written>), String> {
    let (goal, until_drained) = match mode {
        RunMode::UntilSlot(end) => (end, false),
        RunMode::UntilDrained(max_slot) => (max_slot, true),
    };
    let every = every_slots.max(1);
    let mut next_ckpt = match store {
        Some(_) => engine.now_slot().saturating_add(every),
        None => u64::MAX,
    };
    let mut written = Vec::new();
    let mut write = |engine: &Engine<'_, Observers<S>>, store: &mut CheckpointStore<FS>| {
        let mut snap = engine.checkpoint();
        engine.probe().save(&mut snap);
        let (path, bytes) = store
            .write(&snap)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        written.push((engine.now_slot(), path, bytes));
        Ok::<_, String>(())
    };
    loop {
        let drained = engine.is_drained();
        if engine.now_slot() >= goal || (until_drained && drained) {
            return Ok((Some(drained), written));
        }
        if stop.load(Ordering::SeqCst) {
            if let Some(store) = store {
                write(engine, store)?;
            }
            return Ok((None, written));
        }
        engine
            .advance_to(goal.min(next_ckpt))
            .map_err(|e| format!("simulation failed: {e}"))?;
        if let Some(store) = store.as_deref_mut() {
            if engine.now_slot() >= next_ckpt {
                write(engine, store)?;
                next_ckpt = engine.now_slot().saturating_add(every);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{CheckpointFaultFs, DirectRouter, FlowId};
    use sorn_telemetry::{FlightRecorder, MemorySink};
    use sorn_topology::builders::round_robin;
    use sorn_topology::NodeId;

    fn seeded_flows(n: u32, count: u64) -> Vec<Flow> {
        let flow = |i: u64| Flow {
            id: FlowId(i + 1),
            src: NodeId((i as u32 * 7) % n),
            dst: NodeId((i as u32 * 13 + 3) % n),
            size_bytes: 1250 * (1 + i % 5),
            arrival_ns: 40 * i,
        };
        (0..count).map(flow).filter(|f| f.src != f.dst).collect()
    }

    #[test]
    fn stop_flag_installs_once_and_starts_lowered() {
        let flag = stop_flag(true);
        assert!(!flag.load(Ordering::SeqCst));
        assert!(std::ptr::eq(flag, stop_flag(true)), "idempotent");
        assert!(!std::ptr::eq(flag, stop_flag(false)));
    }

    type Observed<'a> = Engine<'a, Observers<MemorySink>>;

    /// One `drive_checkpointed` call checkpointing every 2 slots:
    /// whether the engine drained (`None`: stopped), and the number of
    /// checkpoints written.
    fn drive(
        engine: &mut Observed<'_>,
        mode: RunMode,
        store: Option<&mut CheckpointStore<CheckpointFaultFs>>,
        stop: &AtomicBool,
    ) -> (Option<bool>, usize) {
        let (drained, written) = drive_checkpointed(engine, mode, store, 2, stop).unwrap();
        (drained, written.len())
    }

    /// Interrupt mid-run, resume from the written checkpoint (observer
    /// state included), and land on exactly the metrics and flight
    /// recorder of an uninterrupted run — with a store, and without one
    /// (where the same engine simply carries on).
    #[test]
    fn drive_checkpointed_interrupt_then_resume_matches_uninterrupted() {
        let sched = round_robin(8).unwrap();
        let router = DirectRouter;
        let flows = seeded_flows(8, 40);
        let observers = || Observers {
            flight: Some(FlightRecorder::new(64)),
            ..Observers::none()
        };
        let fresh = || {
            let mut engine = Engine::with_probe(SimConfig::default(), &sched, &router, observers());
            engine.add_flows(flows.clone()).unwrap();
            engine
        };
        let (all, end) = (RunMode::UntilDrained(100_000), RunMode::UntilSlot(5));
        let dump = |engine: Observed<'_>| engine.finish().flight.unwrap().dump_string();

        // Reference: run to drain, no interruptions.
        let mut reference = fresh();
        assert!(reference.run_until_drained(100_000).unwrap());
        let want = reference.metrics().clone();
        let want_dump = dump(reference);

        // Checkpointed run: a few slots, then the flag is raised as if a
        // signal landed.
        let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
        let stop = AtomicBool::new(false);
        let mut engine = fresh();
        let (drained, writes) = drive(&mut engine, end, Some(&mut store), &stop);
        assert_eq!((drained, engine.now_slot()), (Some(false), 5));
        assert_eq!(writes, 2, "at slots 2 and 4");
        stop.store(true, Ordering::SeqCst);
        let stopped = drive(&mut engine, all, Some(&mut store), &stop);
        assert_eq!(
            (stopped, engine.now_slot()),
            ((None, 1), 5),
            "final checkpoint"
        );
        drop(engine);

        // Resume from the store and finish.
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.snapshot.slot(), 5);
        let mut restored = observers();
        restored.restore(&loaded.snapshot).unwrap();
        let mut resumed =
            Engine::restore_with_probe(&loaded.snapshot, &sched, &router, restored).unwrap();
        stop.store(false, Ordering::SeqCst);
        assert_eq!(
            drive(&mut resumed, all, Some(&mut store), &stop).0,
            Some(true)
        );
        assert_eq!(resumed.metrics(), &want);
        assert_eq!(dump(resumed), want_dump);

        // No store: the stop flag still ends the run at a slot boundary,
        // nothing is written, and the same engine carries on to the
        // uninterrupted metrics.
        let mut plain = fresh();
        assert_eq!(drive(&mut plain, end, None, &stop).1, 0);
        stop.store(true, Ordering::SeqCst);
        assert_eq!(drive(&mut plain, all, None, &stop), (None, 0));
        assert_eq!(plain.now_slot(), 5);
        stop.store(false, Ordering::SeqCst);
        assert_eq!(drive(&mut plain, all, None, &stop).0, Some(true));
        assert_eq!(plain.metrics(), &want);
    }
}
