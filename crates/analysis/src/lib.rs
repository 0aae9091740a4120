//! # sorn-analysis
//!
//! Every experiment of the reproduction, and the command-line front end
//! that runs them. `sorn-cli <name> [--flag value]...` looks `name` up in
//! [`COMMANDS`], parses the rest of the line into [`Args`], and calls the
//! entry's `run`; `sorn-cli list` prints the table. Each command is one
//! module holding both its computation and its `run`:
//!
//! - [`table1`], [`table1_sim_validation`]: the Table 1 comparison for a
//!   4096-rack DCN, and its latency column re-measured in the packet
//!   simulator.
//! - [`fig1_schedule`], [`fig2_topologies`], [`fig2f`]: Figure 1, Figure
//!   2(a,b,d,e) and the Figure 2(f) throughput-vs-locality series.
//! - [`expressivity`], [`adaptation`], [`nonuniform_cliques`]: §5.
//! - [`blast_radius`], [`resilience`], [`sync_domains`],
//!   [`diurnal_tracking`]: §6.
//! - [`hierarchy`], [`adversarial`], [`ablation_routing`]: extensions and
//!   ablations.
//! - [`tools`] (`analyze`, `schedule`, `gen-trace`) and [`simulate`]: the
//!   single-configuration tools.
//!
//! Shared pieces: [`render`] (text tables), [`fct`] (slowdown buckets),
//! [`timeseries`] (JSONL run-trace summaries), [`autopsy`]
//! (tail-latency attribution); [`Args`] and the flag groups several
//! commands read (`TelemetryOpts`, `WeatherOpts`); the one run path of
//! every packet run (`drive`: before any output, open the `--trace-out`
//! file and the observer stack; then build the engine, run it, read the
//! trace back, and write the observers' reports — a command only
//! describes its run); and [`run_jobs`] for `--jobs`. Every run is
//! deterministic and finishes in seconds, so none is checkpointed: a
//! run is re-run, not resumed. (The simulator is timed by the
//! repository benchmark, `benchmark/run.sh`.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod drive;

pub mod ablation_routing;
pub mod adaptation;
pub mod adversarial;
pub mod autopsy;
pub mod blast_radius;
pub mod diurnal_tracking;
pub mod expressivity;
pub mod fct;
pub mod fig1_schedule;
pub mod fig2_topologies;
pub mod fig2f;
pub mod hierarchy;
pub mod nonuniform_cliques;
pub mod render;
pub mod resilience;
pub mod simulate;
pub mod sync_domains;
pub mod table1;
pub mod table1_sim_validation;
pub mod timeseries;
pub mod tools;

pub use args::Args;
use args::{TelemetryOpts, WeatherOpts};
use drive::{open, plain, weather_paths, Finished, Run, RunMode, Stack, DRAIN_SLOTS};

/// One `sorn-cli` command.
pub struct Command {
    /// What follows `sorn-cli` on the command line.
    pub name: &'static str,
    /// The paper artifact it reproduces, or what the tool does.
    pub artifact: &'static str,
    /// Reads its flags from the [`Args`], rejects the rest, and runs.
    pub run: fn(&mut Args) -> Result<(), String>,
}

/// Every command, in paper order, then the tools.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "table1", artifact: "Table 1 — systems comparison for a 4096-rack DCN", run: table1::run },
    Command { name: "table1_sim_validation", artifact: "Table 1's latency column re-measured in the packet simulator", run: table1_sim_validation::run },
    Command { name: "fig1_schedule", artifact: "Figure 1 — round-robin ORN schedule", run: fig1_schedule::run },
    Command { name: "fig2_topologies", artifact: "Figure 2(a,b,d,e) — matchings and topologies A/B", run: fig2_topologies::run },
    Command { name: "fig2f", artifact: "Figure 2(f) — throughput vs locality (theory + simulated)", run: fig2f::run },
    Command { name: "expressivity", artifact: "§5 — realizable clique sizes on the reference AWGR setup", run: expressivity::run },
    Command { name: "adaptation", artifact: "§5 — static vs adaptive across a pattern shift", run: adaptation::run },
    Command { name: "nonuniform_cliques", artifact: "§5 — non-uniform clique sizes vs forced-uniform", run: nonuniform_cliques::run },
    Command { name: "blast_radius", artifact: "§6 — failure blast radius, flat vs modular", run: blast_radius::run },
    Command { name: "resilience", artifact: "§6 — one failure storm on flat VLB and modular SORN", run: resilience::run },
    Command { name: "sync_domains", artifact: "§6 — synchronization-domain guard times and efficiency", run: sync_domains::run },
    Command { name: "diurnal_tracking", artifact: "§6 — q-retuning across a diurnal locality swing", run: diurnal_tracking::run },
    Command { name: "hierarchy", artifact: "multi-level (pods/clusters/blocks) SORN vs two-level", run: hierarchy::run },
    Command { name: "adversarial", artifact: "worst-demand search: the semi-oblivious price & gravity remedy", run: adversarial::run },
    Command { name: "ablation_routing", artifact: "routing ablation: VLB / adaptive / SORN tax & saturation", run: ablation_routing::run },
    Command { name: "analyze", artifact: "tool: §4 closed forms for one configuration", run: tools::analyze },
    Command { name: "schedule", artifact: "tool: one configuration's circuit schedule", run: tools::schedule },
    Command { name: "gen-trace", artifact: "tool: record a Poisson workload as a JSON trace", run: tools::gen_trace },
    Command { name: "simulate", artifact: "tool: replay a JSON trace in the packet simulator", run: simulate::run },
];

/// The command table, as `sorn-cli list` prints it.
fn list() -> String {
    let mut out = String::from("usage: sorn-cli <command> [--flag value]...\n\n");
    for c in COMMANDS {
        out += &format!("  {:<22} {}\n", c.name, c.artifact);
    }
    out
}

/// Runs one command line, `argv = [command, flags...]`. Every error —
/// an unknown command or flag, a bad value, a failed run — comes back
/// as the message `sorn-cli` prints before exiting 2.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(list());
    };
    let mut args = Args::parse(rest).map_err(|e| format!("sorn-cli {name}: {e}"))?;
    if name == "list" {
        args.reject_unknown()?;
        print!("{}", list());
        return Ok(());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("unknown command `{name}`\n{}", list()));
    };
    (cmd.run)(&mut args).map_err(|e| format!("sorn-cli {name}: {e}"))
}

/// Prints a paper-artifact section header.
fn header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
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
