//! Regenerates the §5 adaptation ablation: a macro-pattern shift hits a
//! static SORN and an adaptive SORN (control loop enabled); we track the
//! exact flow-level throughput of each system's installed configuration
//! per epoch, plus update costs.

use crate::{header, Args};
use sorn_analysis::adaptation::run_with_decisions;
use sorn_analysis::render::TextTable;
use sorn_control::ControlConfig;
use sorn_sim::{Flow, FlowId};
use sorn_topology::{NodeId, Ratio};

fn community_flows(n: u32, group: impl Fn(u32) -> u32, heavy: u64, light: u64) -> Vec<Flow> {
    let mut flows = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            flows.push(Flow {
                id: FlowId(0),
                src: NodeId(s),
                dst: NodeId(d),
                size_bytes: if group(s) == group(d) { heavy } else { light },
                arrival_ns: 0,
            });
        }
    }
    flows
}

/// `sorn-cli adaptation [--trace-out <path>]`: the trace is the control
/// plane's decision log, one JSONL record per epoch.
pub fn run(args: &mut Args) -> Result<(), String> {
    let trace_out: Option<std::path::PathBuf> = args.opt("trace-out")?;
    args.reject_unknown()?;
    header("§5 — adapting the topology: static vs adaptive across a pattern shift");
    let n = 64u32;
    let mut control = ControlConfig::default();
    control.allowed_sizes = vec![4, 8, 16];
    control.alpha = 0.5;

    // Phase 1 matches the deployed contiguous cliques of 8; phase 2
    // scrambles communities to i mod 8; phase 3 shifts the locality
    // strength rather than the grouping.
    let phases = vec![
        (3usize, community_flows(n, |v| v / 8, 50_000, 500)),
        (8usize, community_flows(n, |v| v % 8, 50_000, 500)),
        (4usize, community_flows(n, |v| v % 8, 10_000, 2_000)),
    ];

    let (epochs, decisions) =
        run_with_decisions(n as usize, 8, Ratio::integer(4), control, &phases).expect("experiment");

    let mut t = TextTable::new(&[
        "epoch",
        "static thpt",
        "adaptive thpt",
        "updated",
        "drained cells",
        "install (ms)",
    ]);
    for e in &epochs {
        t.row(vec![
            e.epoch.to_string(),
            format!("{:.3}", e.static_throughput),
            format!("{:.3}", e.adaptive_throughput),
            if e.updated { "yes".into() } else { "-".into() },
            e.drained_cells.to_string(),
            if e.updated {
                format!("{:.0}", e.installation_ns as f64 / 1e6)
            } else {
                "-".into()
            },
        ]);
    }
    println!("{}", t.render());

    let post_shift: Vec<_> = epochs.iter().skip(5).take(6).collect();
    let adaptive_mean: f64 = post_shift
        .iter()
        .map(|e| e.adaptive_throughput)
        .sum::<f64>()
        / post_shift.len() as f64;
    let static_mean: f64 =
        post_shift.iter().map(|e| e.static_throughput).sum::<f64>() / post_shift.len() as f64;
    println!(
        "post-shift steady state: adaptive {:.3} vs static {:.3} ({:.1}x)",
        adaptive_mean,
        static_mean,
        adaptive_mean / static_mean.max(1e-9)
    );
    println!("(updates are installed in seconds-scale control-plane time and the");
    println!(" EWMA+hysteresis keeps the loop from chasing noise — §5, §6)");

    if let Some(path) = &trace_out {
        decisions
            .write_jsonl(path)
            .map_err(|e| format!("cannot write --trace-out file {}: {e}", path.display()))?;
        let outcome_count = |o: &str| decisions.records.iter().filter(|r| r.outcome == o).count();
        println!(
            "\ndecision log: {} epochs ({} updated, {} held, {} no-plan) -> {}",
            decisions.len(),
            outcome_count("updated"),
            outcome_count("held"),
            outcome_count("no_plan"),
            path.display()
        );
    }
    Ok(())
}
