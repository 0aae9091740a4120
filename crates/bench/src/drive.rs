//! The one run loop every simulating command drives its engine with:
//! optional periodic checkpoints, graceful stop, and resume.

use sorn_sim::{
    CheckpointError, CheckpointFs, CheckpointStore, Engine, LoadOutcome, Probe, Profiler, Snapshot,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Exit code for a run interrupted by SIGINT/SIGTERM after writing a
/// final checkpoint: distinct from success (0) and usage errors (2) so
/// wrappers can tell "stopped cleanly, resume me" apart from both.
pub const EXIT_INTERRUPTED: i32 = 3;

static STOP_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn record_stop_signal(_signum: i32) {
    STOP_FLAG.store(true, Ordering::SeqCst);
}

/// The stop flag a run polls.
///
/// With `checkpointing`, SIGINT/SIGTERM handlers are installed that set
/// the flag instead of killing the process: [`drive_checkpointed`]
/// polls it at slot boundaries, so on the first signal the current slot
/// finishes, a final checkpoint is written, sinks are flushed, and the
/// process exits with [`EXIT_INTERRUPTED`]. Installing twice is
/// harmless; non-unix targets get the flag without handlers. Without
/// checkpointing the flag is one nothing sets, so a signal ends a plain
/// run the default way.
pub fn stop_flag(checkpointing: bool) -> &'static AtomicBool {
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

/// Loads the newest valid checkpoint for a resuming run. `Ok(None)`
/// means "not resuming" or "no checkpoint written yet — start fresh"
/// (a scenario may have finished before the interruption; rerunning it
/// is deterministic). A directory whose every generation is corrupt is
/// an error, never a silent fresh start.
pub fn load_resume(store: &CheckpointStore, resume: bool) -> Result<Option<LoadOutcome>, String> {
    if !resume {
        return Ok(None);
    }
    match store.load_latest() {
        Ok(out) => Ok(Some(out)),
        Err(CheckpointError::NoValidCheckpoint { ref skipped, .. }) if skipped.is_empty() => {
            Ok(None)
        }
        Err(e) => Err(format!("cannot resume: {e}")),
    }
}

/// How far [`drive_checkpointed`] should run the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Run until the engine's absolute slot counter reaches this value
    /// (so a resumed engine continues to the same end slot).
    UntilSlot(u64),
    /// Run until the engine drains, giving up at this absolute slot.
    UntilDrained(u64),
}

/// What ended a [`drive_checkpointed`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveOutcome {
    /// The run mode's goal was reached.
    Completed {
        /// Whether the engine had drained when the goal was reached.
        drained: bool,
    },
    /// The stop flag was raised; the current slot was finished and,
    /// with a store, a final checkpoint written to `path`.
    Interrupted {
        /// Slot the run stopped at.
        slot: u64,
        /// Where the final checkpoint landed; `None` without a store.
        path: Option<PathBuf>,
    },
}

/// Runs `engine` to `mode`'s goal, honoring `stop`, and — given a
/// `store` — checkpointing it. This is the one slot loop behind every
/// command's plain and `--checkpoint-*` runs.
///
/// With a store, every `every_slots` slots (and when `stop` is raised)
/// the engine is snapshotted at a slot boundary, `decorate` may attach
/// sidecar blobs (probe state such as trace or flight-recorder bytes),
/// the snapshot goes through `store`, and `on_written(slot, path,
/// bytes)` fires so the caller can log or publish telemetry. Without
/// one nothing is written and the loop steps exactly like
/// `Engine::run_slots` / `Engine::run_until_drained`. When `stop` is
/// observed the current slot is already complete; the final checkpoint
/// (if any) is written and [`DriveOutcome::Interrupted`] returned. An
/// error says whether the simulation or a checkpoint write failed.
///
/// When the engine has batched fast-forward enabled
/// (`Engine::set_fast_forward`), quiet gaps are jumped in one step —
/// bounded by the next checkpoint boundary, so the snapshot cadence
/// (and therefore every written checkpoint) is identical to the
/// slot-by-slot loop.
#[allow(clippy::too_many_arguments)]
pub fn drive_checkpointed<P, F, FS>(
    engine: &mut Engine<'_, P, F>,
    mode: RunMode,
    mut store: Option<&mut CheckpointStore<FS>>,
    every_slots: u64,
    stop: &AtomicBool,
    mut decorate: impl FnMut(&Engine<'_, P, F>, &mut Snapshot),
    mut on_written: impl FnMut(u64, &Path, usize),
) -> Result<DriveOutcome, String>
where
    P: Probe,
    F: Profiler,
    FS: CheckpointFs,
{
    let every = every_slots.max(1);
    let goal = match mode {
        RunMode::UntilSlot(end) => end,
        RunMode::UntilDrained(max_slot) => max_slot,
    };
    let mut next_ckpt = match store {
        Some(_) => engine.now_slot().saturating_add(every),
        None => u64::MAX,
    };
    let mut write = |engine: &Engine<'_, P, F>, store: &mut CheckpointStore<FS>| {
        let mut snap = engine.checkpoint();
        decorate(engine, &mut snap);
        let (path, bytes) = store
            .write(&snap)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        on_written(engine.now_slot(), &path, bytes);
        Ok::<_, String>(path)
    };
    loop {
        let done = match mode {
            RunMode::UntilSlot(end) => (engine.now_slot() >= end).then(|| engine.is_drained()),
            RunMode::UntilDrained(max_slot) => {
                let drained = engine.is_drained();
                (drained || engine.now_slot() >= max_slot).then_some(drained)
            }
        };
        if let Some(drained) = done {
            return Ok(DriveOutcome::Completed { drained });
        }
        if stop.load(Ordering::SeqCst) {
            let slot = engine.now_slot();
            let path = match store.as_deref_mut() {
                Some(store) => Some(write(engine, store)?),
                None => None,
            };
            return Ok(DriveOutcome::Interrupted { slot, path });
        }
        // Fast-forward quiet gaps (a no-op unless the engine has
        // `set_fast_forward(true)`), but never past the run goal or the
        // next checkpoint boundary — checkpoint cadence must be
        // identical to the slot-by-slot loop so a resumed run replays
        // the same snapshot sequence.
        if engine.fast_forward_to(goal.min(next_ckpt)) == 0 {
            engine
                .step()
                .map_err(|e| format!("simulation failed: {e}"))?;
        }
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
    use sorn_sim::{CheckpointFaultFs, DirectRouter, Flow, FlowId, SimConfig};
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

    /// One `drive_checkpointed` call that tags every snapshot it takes;
    /// returns the outcome and the number of checkpoints written.
    fn drive(
        engine: &mut Engine<'_>,
        mode: RunMode,
        store: Option<&mut CheckpointStore<CheckpointFaultFs>>,
        stop: &AtomicBool,
    ) -> (DriveOutcome, usize) {
        let mut writes = 0;
        let tag = |_: &Engine<'_>, snap: &mut Snapshot| snap.attach_blob("marker", b"x".to_vec());
        let outcome = drive_checkpointed(engine, mode, store, 2, stop, tag, |_, _, _| writes += 1);
        (outcome.unwrap(), writes)
    }

    /// Interrupt mid-run, resume from the written checkpoint, and land
    /// on exactly the metrics of an uninterrupted run — with a store,
    /// and without one (where the same engine simply carries on).
    #[test]
    fn drive_checkpointed_interrupt_then_resume_matches_uninterrupted() {
        let sched = round_robin(8).unwrap();
        let router = DirectRouter;
        let flows = seeded_flows(8, 40);
        let fresh = || {
            let mut engine = Engine::new(SimConfig::default(), &sched, &router);
            engine.add_flows(flows.clone()).unwrap();
            engine
        };
        let (all, end) = (RunMode::UntilDrained(100_000), RunMode::UntilSlot(5));

        // Reference: run to drain, no interruptions.
        let mut reference = fresh();
        assert!(reference.run_until_drained(100_000).unwrap());
        let want = reference.metrics().clone();

        // Checkpointed run: a few slots, then the flag is raised as if a
        // signal landed.
        let mut store = CheckpointStore::with_fs("ckpt", CheckpointFaultFs::new(), 2);
        let stop = AtomicBool::new(false);
        let mut engine = fresh();
        let (outcome, writes) = drive(&mut engine, end, Some(&mut store), &stop);
        assert_eq!(outcome, DriveOutcome::Completed { drained: false });
        assert!(writes > 0);
        stop.store(true, Ordering::SeqCst);
        let (outcome, _) = drive(&mut engine, all, Some(&mut store), &stop);
        assert!(
            matches!(
                outcome,
                DriveOutcome::Interrupted {
                    slot: 5,
                    path: Some(_)
                }
            ),
            "{outcome:?}"
        );
        drop(engine);

        // Resume from the store and finish.
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.snapshot.blob("marker"), Some(&b"x"[..]));
        assert_eq!(loaded.snapshot.slot(), 5);
        let mut resumed = Engine::restore(&loaded.snapshot, &sched, &router).unwrap();
        stop.store(false, Ordering::SeqCst);
        let (outcome, _) = drive(&mut resumed, all, Some(&mut store), &stop);
        assert_eq!(outcome, DriveOutcome::Completed { drained: true });
        assert_eq!(resumed.metrics(), &want);

        // No store: the stop flag still ends the run at a slot boundary,
        // nothing is written, and the same engine carries on to the
        // uninterrupted metrics.
        let mut plain = fresh();
        assert_eq!(drive(&mut plain, end, None, &stop).1, 0);
        stop.store(true, Ordering::SeqCst);
        let stopped = DriveOutcome::Interrupted {
            slot: 5,
            path: None,
        };
        assert_eq!(drive(&mut plain, all, None, &stop), (stopped, 0));
        stop.store(false, Ordering::SeqCst);
        let (outcome, _) = drive(&mut plain, all, None, &stop);
        assert_eq!(outcome, DriveOutcome::Completed { drained: true });
        assert_eq!(plain.metrics(), &want);
    }
}
