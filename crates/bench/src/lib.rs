//! # sorn-bench
//!
//! Every experiment of the reproduction, and the command-line front end
//! that runs them. `sorn-cli <name> [--flag value]...` looks `name` up in
//! [`COMMANDS`] — one entry per paper table or figure (a module under
//! [`experiments`]), plus the `analyze`/`schedule`/`gen-trace`/`simulate`
//! tools — parses the rest of the line into [`Args`], and calls the
//! entry's `run`. `sorn-cli list` prints the table. (The simulator is
//! timed by the repository benchmark, `benchmark/run.sh`.)
//!
//! Shared pieces: [`Args`] and the flag groups several commands read
//! ([`TelemetryOpts`], [`WeatherOpts`], [`CheckpointOpts`]);
//! [`drive_checkpointed`], the one slot loop for plain and
//! checkpointed runs; and [`run_jobs`] for `--jobs`.

mod args;
mod drive;
pub mod experiments;

pub use args::{Args, CheckpointOpts, TelemetryOpts, WeatherOpts};
pub use drive::{
    drive_checkpointed, load_resume, stop_flag, DriveOutcome, RunMode, EXIT_INTERRUPTED,
};
pub use experiments::{dispatch, Command, COMMANDS};

/// Prints a paper-artifact section header.
pub fn header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Packet-simulates `flows` on `schedule` under `router` (default
/// `SimConfig`, at most 100 000 slots to drain) and writes the run's
/// JSONL trace to `path`, sampled every `interval_ns`; returns the
/// number of events written. The `--trace-out` companion run of the
/// analytical experiments.
pub fn trace_packet_run(
    path: &std::path::Path,
    interval_ns: u64,
    schedule: &sorn_topology::CircuitSchedule,
    router: &dyn sorn_sim::Router,
    flows: Vec<sorn_sim::Flow>,
) -> Result<u64, String> {
    let file = |e: std::io::Error| format!("--trace-out file {}: {e}", path.display());
    let sink = sorn_telemetry::JsonlTraceSink::create(path).map_err(file)?;
    let sampler = sorn_telemetry::IntervalSampler::new(sink, interval_ns);
    let mut eng = sorn_sim::Engine::with_probe(Default::default(), schedule, router, sampler);
    eng.add_flows(flows).map_err(|e| e.to_string())?;
    eng.run_until_drained(100_000).map_err(|e| e.to_string())?;
    eng.finish().into_sink().finish().map_err(file)
}

/// A unit of work for [`run_jobs`]: boxed so heterogeneous scenario
/// closures fit one task list.
pub type Task<T> = Box<dyn FnOnce() -> T + Send>;

/// Runs `tasks` on up to `jobs` worker threads (std only, no external
/// thread pool), returning results in the tasks' original order.
///
/// `jobs <= 1` — or a single task — runs everything inline on the
/// caller's thread, in order, so a `--jobs 1` run is trivially the
/// sequential one. Workers pull tasks from a shared queue, so uneven
/// task durations still keep all threads busy.
pub fn run_jobs<T: Send>(jobs: usize, tasks: Vec<Task<T>>) -> Vec<T> {
    if jobs <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let n = tasks.len();
    let queue: std::sync::Mutex<std::collections::VecDeque<(usize, Task<T>)>> =
        std::sync::Mutex::new(tasks.into_iter().enumerate().collect());
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                // Pop under the lock, run with it released.
                let next = queue.lock().expect("task queue poisoned").pop_front();
                let Some((i, task)) = next else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(task());
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    fn squares(jobs: usize) -> Vec<usize> {
        let tasks: Vec<super::Task<usize>> = (0..16)
            .map(|i| -> super::Task<usize> { Box::new(move || i * i) })
            .collect();
        super::run_jobs(jobs, tasks)
    }

    #[test]
    fn run_jobs_preserves_task_order() {
        let want: Vec<usize> = (0..16).map(|i| i * i).collect();
        assert_eq!(squares(1), want);
        assert_eq!(squares(4), want);
        // More workers than tasks is fine.
        assert_eq!(squares(64), want);
    }
}
