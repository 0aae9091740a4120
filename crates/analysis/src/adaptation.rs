//! The §5 adaptation experiment: does periodic reconfiguration pay off
//! across a macro-pattern shift, and what does an update cost?
//!
//! A workload's community structure shifts between phases. A static SORN
//! keeps its initial cliques; an adaptive SORN runs the control loop each
//! epoch. We score both with the exact flow-level throughput of their
//! installed configuration against each epoch's true demand.
//!
//! `sorn-cli adaptation` runs it at 64 nodes across three phases and
//! prints each epoch's scores plus update costs.

use crate::render::TextTable;
use crate::{header, Args};
use sorn_control::{ControlConfig, ControlLoop, DecisionLog, EpochOutcome};
use sorn_core::CoreError;
use sorn_routing::{evaluate, DemandMatrix, SornPaths};
use sorn_sim::{Flow, FlowId};
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio};

/// One epoch of the adaptation experiment.
#[derive(Debug, Clone)]
pub struct AdaptationEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Throughput of the static configuration against this epoch's
    /// demand.
    pub static_throughput: f64,
    /// Throughput of the adaptive configuration.
    pub adaptive_throughput: f64,
    /// Whether the control loop installed an update this epoch.
    pub updated: bool,
    /// Cells reported drained by the update (0 when none).
    pub drained_cells: u64,
    /// Modeled installation time in nanoseconds (0 when none).
    pub installation_ns: u64,
}

/// Runs the experiment: `phases` is a list of `(epochs, flows)` — each
/// phase repeats its flow pattern for that many epochs. Returns one
/// [`AdaptationEpoch`] per epoch and the control loop's per-epoch
/// [`DecisionLog`] — the estimated inter-clique demand, candidate plans,
/// and installed schedule diffs behind each epoch's outcome.
///
/// Both systems start from the same contiguous layout; the demand each
/// epoch is the empirical matrix of the phase's flows.
pub fn run_with_decisions(
    n: usize,
    initial_cliques: usize,
    q0: Ratio,
    control: ControlConfig,
    phases: &[(usize, Vec<Flow>)],
) -> Result<(Vec<AdaptationEpoch>, DecisionLog), CoreError> {
    let static_map = CliqueMap::contiguous(n, initial_cliques);
    let static_sched = sorn_schedule(&static_map, &SornScheduleParams::with_q(q0))?;

    let mut ctl = ControlLoop::new(control, static_map.clone(), q0, static_sched.clone());

    let score = |sched: &CircuitSchedule, map: &CliqueMap, demand: &DemandMatrix| -> f64 {
        let topo = sched.logical_topology();
        let model = SornPaths::new(map.clone());
        evaluate(&topo, &model, demand)
            .map(|r| r.throughput)
            .unwrap_or(0.0)
    };

    let mut out = Vec::new();
    let mut epoch_idx = 0;
    for (epochs, flows) in phases {
        let demand = empirical_demand(flows, n)?;
        // Neither the static configuration nor the demand changes inside
        // a phase: one score serves all its epochs.
        let static_throughput = score(&static_sched, &static_map, &demand);
        for _ in 0..*epochs {
            // The adaptive system is scored with the configuration that
            // was installed *before* observing this epoch (no lookahead).
            let adaptive_throughput = score(ctl.schedule(), ctl.cliques(), &demand);

            ctl.observe(flows);
            let outcome = ctl.end_epoch()?;
            let (updated, drained, install) = match outcome {
                EpochOutcome::Updated { update, .. } => {
                    (true, update.total_drained, update.installation_ns)
                }
                _ => (false, 0, 0),
            };
            out.push(AdaptationEpoch {
                epoch: epoch_idx,
                static_throughput,
                adaptive_throughput,
                updated,
                drained_cells: drained,
                installation_ns: install,
            });
            epoch_idx += 1;
        }
    }
    Ok((out, ctl.decisions().clone()))
}

/// Builds a normalized demand matrix from a flow list.
fn empirical_demand(flows: &[Flow], n: usize) -> Result<DemandMatrix, CoreError> {
    let rows = sorn_traffic::empirical_matrix(flows, n);
    DemandMatrix::from_rows(rows)
        .map_err(|e| CoreError::InvalidConfig(format!("bad empirical demand: {e}")))
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(src: u32, dst: u32, bytes: u64) -> Flow {
        Flow {
            id: FlowId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: bytes,
            arrival_ns: 0,
        }
    }

    /// Community structure i % k with heavy intra traffic.
    fn scrambled(n: usize, k: usize) -> Vec<Flow> {
        let mut flows = Vec::new();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s == d {
                    continue;
                }
                let w = if s as usize % k == d as usize % k {
                    20_000
                } else {
                    200
                };
                flows.push(flow(s, d, w));
            }
        }
        flows
    }

    #[test]
    fn adaptive_beats_static_after_shift() {
        let n = 16;
        let mut cfg = ControlConfig::default();
        cfg.allowed_sizes = vec![4];
        cfg.alpha = 1.0; // adopt each epoch fully: fast test convergence
        let phases = vec![(3usize, scrambled(n, 4))];
        let (epochs, _) = run_with_decisions(n, 4, Ratio::integer(2), cfg, &phases).unwrap();
        assert_eq!(epochs.len(), 3);
        // Epoch 0: both systems are misconfigured for the scrambled
        // pattern (equal scores). After the first update, the adaptive
        // system pulls ahead.
        let last = epochs.last().unwrap();
        assert!(
            last.adaptive_throughput > last.static_throughput + 0.05,
            "adaptive {} vs static {}",
            last.adaptive_throughput,
            last.static_throughput
        );
        assert!(epochs.iter().any(|e| e.updated));
    }

    #[test]
    fn update_costs_are_reported() {
        let n = 16;
        let mut cfg = ControlConfig::default();
        cfg.allowed_sizes = vec![4];
        cfg.alpha = 1.0;
        let phases = vec![(2usize, scrambled(n, 4))];
        let (epochs, _) = run_with_decisions(n, 4, Ratio::integer(2), cfg, &phases).unwrap();
        let updated: Vec<_> = epochs.iter().filter(|e| e.updated).collect();
        assert!(!updated.is_empty());
        for e in updated {
            assert!(e.installation_ns > 0);
        }
    }

    #[test]
    fn decision_log_mirrors_epoch_outcomes() {
        let n = 16;
        let mut cfg = ControlConfig::default();
        cfg.allowed_sizes = vec![4];
        cfg.alpha = 1.0;
        let phases = vec![(3usize, scrambled(n, 4))];
        let (epochs, log) = run_with_decisions(n, 4, Ratio::integer(2), cfg, &phases).unwrap();
        assert_eq!(log.len(), epochs.len(), "one decision per epoch");
        for (e, d) in epochs.iter().zip(&log.records) {
            assert_eq!(e.updated, d.outcome == "updated");
            assert_eq!(e.updated, d.schedule_diff.is_some());
        }
        assert!(log.records.iter().all(|d| d.total_estimated_bytes > 0.0));
    }
}
