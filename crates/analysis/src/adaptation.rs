//! The §5 adaptation experiment: does periodic reconfiguration pay off
//! across a macro-pattern shift, and what does an update cost?
//!
//! A workload's community structure shifts between phases. A static SORN
//! keeps its initial cliques; an adaptive SORN runs the control loop each
//! epoch. We score both with the exact flow-level throughput of their
//! installed configuration against each epoch's true demand.

use sorn_control::{ControlConfig, ControlLoop, DecisionLog, EpochOutcome};
use sorn_core::CoreError;
use sorn_routing::{evaluate, DemandMatrix, SornPaths};
use sorn_sim::Flow;
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, Ratio};

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
/// phase repeats its flow pattern for that many epochs.
///
/// Both systems start from the same contiguous layout; the demand each
/// epoch is the empirical matrix of the phase's flows.
pub fn run(
    n: usize,
    initial_cliques: usize,
    q0: Ratio,
    control: ControlConfig,
    phases: &[(usize, Vec<Flow>)],
) -> Result<Vec<AdaptationEpoch>, CoreError> {
    run_with_decisions(n, initial_cliques, q0, control, phases).map(|(epochs, _)| epochs)
}

/// Like [`run`], but also returns the control loop's per-epoch
/// [`DecisionLog`] — the estimated inter-clique demand, candidate plans,
/// and installed schedule diffs behind each epoch's outcome.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::FlowId;
    use sorn_topology::NodeId;

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
        let epochs = run(n, 4, Ratio::integer(2), cfg, &phases).unwrap();
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
        let epochs = run(n, 4, Ratio::integer(2), cfg, &phases).unwrap();
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
