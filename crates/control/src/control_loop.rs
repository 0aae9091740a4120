//! The periodic control loop: estimate → optimize → decide → install.
//!
//! §5's control plane runs on the order of minutes or hours. Each epoch
//! it folds observed traffic into the [`PatternEstimator`], asks the
//! [`optimizer`](crate::optimizer) for the best clique plan, and installs
//! it only when the modeled throughput gain clears a hysteresis threshold
//! — §6 notes the design "does not require precise predictions,
//! maintaining guarantees within a healthy estimation error margin", and
//! hysteresis is what keeps estimation noise from thrashing the fabric.

use crate::decision::{DecisionLog, DecisionRecord, FailureResponse, ScheduleDiff};
use crate::estimator::PatternEstimator;
use crate::optimizer::{self, OptimizedPlan};
use crate::updater::{ScheduleUpdater, UpdatePlan, UpdateTiming};
use sorn_core::model;
use sorn_core::nic::NicState;
use sorn_sim::{FailureSet, Flow};
use sorn_topology::{CircuitSchedule, CliqueId, CliqueMap, Ratio, TopologyError};

/// Control loop configuration.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// EWMA weight of the newest epoch.
    pub alpha: f64,
    /// Clique sizes the physical layer can realize (from
    /// `sorn_topology::awgr::Expressivity`).
    pub allowed_sizes: Vec<usize>,
    /// Minimum modeled-throughput gain before an update is installed.
    pub hysteresis: f64,
    /// Cap on the locality used to derive `q` (keeps `q` finite).
    pub max_locality: f64,
    /// Installation timing model.
    pub timing: UpdateTiming,
    /// Total installation attempts per epoch before the loop gives up
    /// and keeps the old schedule (must be at least 1).
    pub max_install_attempts: u32,
    /// Modeled backoff before the first installation retry; doubles per
    /// further retry.
    pub retry_backoff_ns: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            alpha: 0.3,
            allowed_sizes: vec![2, 4, 8, 16, 32, 64],
            hysteresis: 0.02,
            max_locality: 0.9,
            timing: UpdateTiming::default(),
            max_install_attempts: 3,
            retry_backoff_ns: 50_000_000,
        }
    }
}

/// What the loop did at the end of an epoch.
// One value per control epoch, returned by value: its size is not worth
// a `Box` in every caller's pattern.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum EpochOutcome {
    /// No observation yet or no realizable plan.
    NoPlan,
    /// The best plan did not beat the current one by the hysteresis.
    Held {
        /// Modeled throughput of the current configuration.
        current: f64,
        /// Modeled throughput of the best candidate.
        candidate: f64,
    },
    /// A new schedule was installed.
    Updated {
        /// The installed plan's modeled throughput.
        throughput: f64,
        /// The installation diff.
        update: UpdatePlan,
    },
    /// Installation kept failing mid-reconfiguration; after the bounded
    /// retries the loop kept the old schedule.
    InstallFailed {
        /// Attempts made (equals the configured maximum).
        attempts: u32,
        /// Modeled throughput of the abandoned candidate.
        candidate: f64,
    },
}

/// A failure-response record with nothing reported yet — the starting
/// point when only installation trouble (not data-plane failures) needs
/// recording.
fn empty_response() -> FailureResponse {
    FailureResponse {
        failed_nodes: Vec::new(),
        failed_links: Vec::new(),
        masked_demand_fraction: 0.0,
        install_attempts: 0,
        install_backoff_ns: 0,
        gave_up: false,
    }
}

/// The periodic semi-oblivious control loop.
pub struct ControlLoop {
    config: ControlConfig,
    estimator: PatternEstimator,
    updater: ScheduleUpdater,
    cliques: CliqueMap,
    q: Ratio,
    schedule: CircuitSchedule,
    nics: Vec<NicState>,
    decisions: DecisionLog,
    health: FailureSet,
    forced_install_failures: u32,
}

impl ControlLoop {
    /// Starts the loop from an initial deployment.
    pub fn new(
        config: ControlConfig,
        cliques: CliqueMap,
        q: Ratio,
        schedule: CircuitSchedule,
    ) -> Self {
        let nics = ScheduleUpdater::bootstrap_nics(&schedule);
        let n = cliques.n();
        ControlLoop {
            estimator: PatternEstimator::new(n, config.alpha),
            updater: ScheduleUpdater::new(config.timing),
            config,
            cliques,
            q,
            schedule,
            nics,
            decisions: DecisionLog::new(),
            health: FailureSet::none(),
            forced_install_failures: 0,
        }
    }

    /// Replaces the loop's view of data-plane health. Call when the
    /// fabric reports failures (e.g. from a [`sorn_sim::LinkHealth`]
    /// snapshot); demand touching failed nodes is masked out of the next
    /// optimization.
    pub fn report_failures(&mut self, failures: &FailureSet) {
        self.health = failures.clone();
    }

    /// The loop's current view of data-plane health.
    pub fn health(&self) -> &FailureSet {
        &self.health
    }

    /// Forces the next `count` installation attempts to fail — a test
    /// and chaos-drill hook exercising the bounded retry/backoff path.
    pub fn inject_install_failures(&mut self, count: u32) {
        self.forced_install_failures = count;
    }

    /// The per-epoch decision log.
    pub fn decisions(&self) -> &DecisionLog {
        &self.decisions
    }

    /// The currently installed schedule.
    pub fn schedule(&self) -> &CircuitSchedule {
        &self.schedule
    }

    /// The current clique assignment.
    pub fn cliques(&self) -> &CliqueMap {
        &self.cliques
    }

    /// The current oversubscription ratio.
    pub fn q(&self) -> Ratio {
        self.q
    }

    /// Records observed flows for the current epoch.
    pub fn observe(&mut self, flows: &[Flow]) {
        self.estimator.observe_flows(flows);
    }

    /// Modeled throughput of the configuration currently installed,
    /// against the current estimate.
    pub fn current_modeled_throughput(&self) -> f64 {
        let x = self
            .estimator
            .locality(&self.cliques)
            .min(self.config.max_locality);
        model::throughput(self.q.to_f64(), x)
    }

    /// Ends the epoch: folds observations, optimizes, and installs a new
    /// schedule when it clears the hysteresis.
    pub fn end_epoch(&mut self) -> Result<EpochOutcome, TopologyError> {
        self.estimator.end_epoch();
        let mut record = DecisionRecord {
            epoch: self.estimator.epochs_seen(),
            outcome: "no_plan".to_string(),
            total_estimated_bytes: self.estimator.total(),
            inter_clique_demand: self.estimator.clique_matrix(&self.cliques),
            current_throughput: self.current_modeled_throughput(),
            candidate_throughput: None,
            candidate_locality: None,
            candidate_q: None,
            candidate_clique_sizes: None,
            schedule_diff: None,
            failure_response: None,
        };
        // Mask demand touching failed nodes out of the optimizer's input:
        // a dead node contributes no deliverable traffic, and planning
        // cliques around it would chase demand that cannot flow.
        let n = self.estimator.n();
        let mut demand = self.estimator.matrix().to_vec();
        if !self.health.is_empty() {
            let total: f64 = demand.iter().sum();
            for node in self.health.failed_node_ids() {
                let i = node.0 as usize;
                if i >= n {
                    continue;
                }
                for j in 0..n {
                    demand[i * n + j] = 0.0;
                    demand[j * n + i] = 0.0;
                }
            }
            let masked_total: f64 = demand.iter().sum();
            record.failure_response = Some(FailureResponse {
                failed_nodes: self.health.failed_node_ids().iter().map(|v| v.0).collect(),
                failed_links: self
                    .health
                    .failed_link_ids()
                    .iter()
                    .map(|&(a, b)| [a.0, b.0])
                    .collect(),
                masked_demand_fraction: if total > 0.0 {
                    (total - masked_total) / total
                } else {
                    0.0
                },
                install_attempts: 0,
                install_backoff_ns: 0,
                gave_up: false,
            });
        }
        if self.estimator.total() == 0.0 {
            self.decisions.push(record);
            return Ok(EpochOutcome::NoPlan);
        }
        let Some(plan): Option<OptimizedPlan> = optimizer::optimize(
            &demand,
            n,
            &self.config.allowed_sizes,
            self.config.max_locality,
        ) else {
            self.decisions.push(record);
            return Ok(EpochOutcome::NoPlan);
        };

        record.candidate_throughput = Some(plan.throughput);
        record.candidate_locality = Some(plan.locality);
        record.candidate_q = Some([plan.q.num(), plan.q.den()]);
        record.candidate_clique_sizes = Some(
            (0..plan.cliques.cliques())
                .map(|c| plan.cliques.clique_size(CliqueId(c as u32)))
                .collect(),
        );

        let current = self.current_modeled_throughput();
        if plan.throughput <= current + self.config.hysteresis {
            record.outcome = "held".to_string();
            self.decisions.push(record);
            return Ok(EpochOutcome::Held {
                current,
                candidate: plan.throughput,
            });
        }

        let period_before = self.schedule.period();
        // Installation can fail mid-reconfiguration (a straggler NIC, a
        // lost control message). Retry with exponential backoff, and give
        // up — keeping the old, still-consistent schedule — after the
        // configured attempt budget.
        let max_attempts = self.config.max_install_attempts.max(1);
        let mut attempts = 0u32;
        let mut backoff_ns = 0u64;
        let update = loop {
            attempts += 1;
            if self.forced_install_failures > 0 {
                self.forced_install_failures -= 1;
                if attempts >= max_attempts {
                    record.outcome = "install_failed".to_string();
                    let fr = record.failure_response.get_or_insert_with(empty_response);
                    fr.install_attempts = attempts;
                    fr.install_backoff_ns = backoff_ns;
                    fr.gave_up = true;
                    self.decisions.push(record);
                    return Ok(EpochOutcome::InstallFailed {
                        attempts,
                        candidate: plan.throughput,
                    });
                }
                backoff_ns += self.config.retry_backoff_ns << (attempts - 1);
                continue;
            }
            break self
                .updater
                .prepare(&mut self.nics, &plan.cliques, plan.q)?;
        };
        record.outcome = "updated".to_string();
        if attempts > 1 || record.failure_response.is_some() {
            let fr = record.failure_response.get_or_insert_with(empty_response);
            fr.install_attempts = attempts;
            fr.install_backoff_ns = backoff_ns;
        }
        record.schedule_diff = Some(ScheduleDiff {
            period_before,
            period_after: update.schedule.period(),
            nics_changed: update
                .reports
                .iter()
                .filter(|r| !r.is_rebalance_only())
                .count(),
            drained_cells: update.total_drained,
            rebalance_only: update.rebalance_only,
            // Retries delay the rollout; fold the backoff into the
            // modeled installation time.
            installation_ns: update.installation_ns + backoff_ns,
        });
        self.decisions.push(record);
        self.cliques = plan.cliques;
        self.q = plan.q;
        self.schedule = update.schedule.clone();
        Ok(EpochOutcome::Updated {
            throughput: plan.throughput,
            update,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::FlowId;
    use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
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

    fn start_loop(n: usize, cliques: usize) -> ControlLoop {
        let map = CliqueMap::contiguous(n, cliques);
        let q = Ratio::integer(2);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
        let mut cfg = ControlConfig::default();
        cfg.allowed_sizes = vec![2, 4];
        ControlLoop::new(cfg, map, q, sched)
    }

    /// Updates installed so far: the epochs the decision log records as
    /// `updated`.
    fn installed(l: &ControlLoop) -> usize {
        l.decisions()
            .records
            .iter()
            .filter(|r| r.outcome == "updated")
            .count()
    }

    /// Traffic concentrated in non-contiguous groups (i % 4).
    fn scrambled_flows(n: usize) -> Vec<Flow> {
        let mut flows = Vec::new();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s != d && s % 4 == d % 4 {
                    flows.push(flow(s, d, 10_000));
                } else if s != d {
                    flows.push(flow(s, d, 100));
                }
            }
        }
        flows
    }

    #[test]
    fn empty_epoch_is_no_plan() {
        let mut l = start_loop(8, 2);
        assert!(matches!(l.end_epoch().unwrap(), EpochOutcome::NoPlan));
    }

    #[test]
    fn loop_regroups_to_match_scrambled_traffic() {
        let mut l = start_loop(16, 4);
        l.observe(&scrambled_flows(16));
        let outcome = l.end_epoch().unwrap();
        let EpochOutcome::Updated { throughput, .. } = outcome else {
            panic!("expected an update, got {outcome:?}");
        };
        assert!(throughput > 0.45, "modeled throughput {throughput}");
        assert_eq!(installed(&l), 1);
        // The new cliques group the i%4 communities.
        let map = l.cliques();
        for com in 0..4u32 {
            let c = map.clique_of(NodeId(com));
            for j in 1..4u32 {
                assert_eq!(map.clique_of(NodeId(com + 4 * j)), c);
            }
        }
    }

    #[test]
    fn hysteresis_holds_when_already_optimal() {
        let mut l = start_loop(16, 4);
        l.observe(&scrambled_flows(16));
        l.end_epoch().unwrap();
        // Same pattern again: the installed config is already right.
        l.observe(&scrambled_flows(16));
        let outcome = l.end_epoch().unwrap();
        assert!(
            matches!(outcome, EpochOutcome::Held { .. }),
            "expected Held, got {outcome:?}"
        );
        assert_eq!(installed(&l), 1);
    }

    #[test]
    fn decision_log_records_every_epoch() {
        let mut l = start_loop(16, 4);
        // Epoch 1: nothing observed.
        l.end_epoch().unwrap();
        // Epoch 2: scrambled traffic forces an update.
        l.observe(&scrambled_flows(16));
        l.end_epoch().unwrap();
        // Epoch 3: same pattern is held.
        l.observe(&scrambled_flows(16));
        l.end_epoch().unwrap();

        let log = l.decisions();
        assert_eq!(log.len(), 3, "one record per epoch");
        assert_eq!(log.records[0].outcome, "no_plan");
        assert_eq!(log.records[0].total_estimated_bytes, 0.0);
        assert_eq!(log.records[1].outcome, "updated");
        assert_eq!(log.records[2].outcome, "held");

        let updated = &log.records[1];
        // Demand was aggregated over the 4 cliques installed at the time.
        assert_eq!(updated.inter_clique_demand.len(), 4);
        let q = updated.candidate_q.expect("candidate existed");
        assert!(q[1] > 0);
        assert_eq!(
            updated.candidate_clique_sizes.as_deref(),
            Some(&[4, 4, 4, 4][..])
        );
        let diff = updated.schedule_diff.as_ref().expect("installed");
        // SORN's fixed neighbor superset makes regrouping a pure
        // bandwidth rebalance: no NIC gains or loses a queue.
        assert_eq!(diff.nics_changed, 0);
        assert!(diff.rebalance_only);
        assert!(diff.period_after > 0);
        // Held and no-plan epochs carry no diff.
        assert!(log.records[0].schedule_diff.is_none());
        assert!(log.records[2].schedule_diff.is_none());
    }

    #[test]
    fn failed_nodes_are_masked_from_optimization() {
        let mut l = start_loop(16, 4);
        // The dominant demand touches node 0; a smaller pair doesn't.
        l.observe(&[flow(0, 8, 10_000), flow(1, 4, 5_000)]);
        let mut failures = FailureSet::none();
        failures.fail_node(NodeId(0));
        l.report_failures(&failures);
        let outcome = l.end_epoch().unwrap();
        assert!(
            matches!(outcome, EpochOutcome::Updated { .. }),
            "expected an update, got {outcome:?}"
        );
        // With node 0's demand masked, the optimizer plans around the
        // surviving 1<->4 pair.
        let map = l.cliques();
        assert_eq!(map.clique_of(NodeId(1)), map.clique_of(NodeId(4)));

        let record = l.decisions().records.last().unwrap();
        let fr = record.failure_response.as_ref().expect("failures reported");
        assert_eq!(fr.failed_nodes, vec![0]);
        assert!(fr.failed_links.is_empty());
        // 10_000 of 15_000 bytes were masked.
        assert!((fr.masked_demand_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(fr.install_attempts, 1, "clean install");
        assert_eq!(fr.install_backoff_ns, 0);
        assert!(!fr.gave_up);
    }

    #[test]
    fn install_failure_retries_then_succeeds() {
        let mut l = start_loop(16, 4);
        l.observe(&scrambled_flows(16));
        l.inject_install_failures(2);
        let outcome = l.end_epoch().unwrap();
        assert!(
            matches!(outcome, EpochOutcome::Updated { .. }),
            "expected an update after retries, got {outcome:?}"
        );
        assert_eq!(installed(&l), 1);

        let record = l.decisions().records.last().unwrap();
        assert_eq!(record.outcome, "updated");
        let fr = record.failure_response.as_ref().expect("retries recorded");
        assert_eq!(fr.install_attempts, 3, "two failures + one success");
        // Exponential backoff: 50ms + 100ms.
        assert_eq!(fr.install_backoff_ns, 150_000_000);
        assert!(!fr.gave_up);
        let diff = record.schedule_diff.as_ref().expect("installed");
        assert!(diff.installation_ns >= fr.install_backoff_ns);
    }

    #[test]
    fn install_failure_gives_up_after_bounded_retries() {
        let mut l = start_loop(16, 4);
        let period_before = l.schedule().period();
        l.observe(&scrambled_flows(16));
        l.inject_install_failures(5);
        let outcome = l.end_epoch().unwrap();
        let EpochOutcome::InstallFailed {
            attempts,
            candidate,
        } = outcome
        else {
            panic!("expected InstallFailed, got {outcome:?}");
        };
        assert_eq!(attempts, 3);
        assert!(candidate > 0.0);
        assert_eq!(installed(&l), 0, "old schedule kept");
        assert_eq!(l.schedule().period(), period_before);

        let record = l.decisions().records.last().unwrap();
        assert_eq!(record.outcome, "install_failed");
        assert!(record.schedule_diff.is_none());
        let fr = record.failure_response.as_ref().expect("give-up recorded");
        assert_eq!(fr.install_attempts, 3);
        assert!(fr.gave_up);

        // The epoch after the storm recovers: the two leftover forced
        // failures are absorbed by the retry budget.
        l.observe(&scrambled_flows(16));
        let outcome = l.end_epoch().unwrap();
        assert!(
            matches!(outcome, EpochOutcome::Updated { .. }),
            "expected recovery, got {outcome:?}"
        );
        assert_eq!(installed(&l), 1);
        let record = l.decisions().records.last().unwrap();
        let fr = record.failure_response.as_ref().expect("retries recorded");
        assert_eq!(fr.install_attempts, 3);
        assert!(!fr.gave_up);
    }

    #[test]
    fn shift_in_pattern_triggers_reconfiguration() {
        let mut l = start_loop(16, 4);
        // Phase 1: contiguous locality — matches the initial layout.
        let mut phase1 = Vec::new();
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s != d && s / 4 == d / 4 {
                    phase1.push(flow(s, d, 10_000));
                } else if s != d {
                    phase1.push(flow(s, d, 100));
                }
            }
        }
        l.observe(&phase1);
        let first = l.end_epoch().unwrap();
        // Initial q=2 is not locality-optimal, so the loop may retune.
        let installed_after_phase1 = installed(&l);
        drop(first);
        // Phase 2: pattern shifts to scrambled communities; repeat epochs
        // until the EWMA follows.
        for _ in 0..6 {
            l.observe(&scrambled_flows(16));
            l.end_epoch().unwrap();
        }
        assert!(
            installed(&l) > installed_after_phase1,
            "loop never adapted to the shifted pattern"
        );
        let map = l.cliques();
        assert_eq!(map.clique_of(NodeId(0)), map.clique_of(NodeId(4)));
    }
}
