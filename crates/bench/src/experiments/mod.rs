//! One module per experiment, each exposing `run(&mut Args)`, and
//! [`COMMANDS`], the table `sorn-cli` dispatches through.

pub mod ablation_routing;
pub mod adaptation;
pub mod adversarial;
pub mod blast_radius;
pub mod diurnal_tracking;
pub mod expressivity;
pub mod fig1_schedule;
pub mod fig2_topologies;
pub mod fig2f;
pub mod hierarchy;
pub mod nonuniform_cliques;
pub mod resilience;
pub mod simulate;
pub mod sync_domains;
pub mod table1;
pub mod table1_sim_validation;
pub mod tools;

use crate::Args;

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
pub fn list() -> String {
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
