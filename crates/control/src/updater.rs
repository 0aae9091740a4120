//! Schedule installation (§5 "Adapting the Topology").
//!
//! Updates are infrequent (minutes to hours) and installed by a logically
//! centralized control plane within seconds (Orion-style [9]). The
//! updater builds the new schedule, diffs every node's NIC state against
//! it (Figure 2(c)), and reports the cost: whether the update was a pure
//! bandwidth rebalance over the fixed neighbor superset, how many queued
//! cells sat toward removed neighbors, and a simple installation-time
//! model (per-node state write plus a synchronization barrier).

use sorn_core::nic::{NicState, NicUpdateReport};
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio, TopologyError};

/// Timing model for an update installation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateTiming {
    /// Time to write one node's schedule state (wavelength table +
    /// routing entries), nanoseconds.
    pub per_node_ns: u64,
    /// Fabric-wide synchronization barrier, nanoseconds.
    pub barrier_ns: u64,
    /// Nodes updated in parallel per control-plane round.
    pub parallelism: usize,
}

impl Default for UpdateTiming {
    fn default() -> Self {
        UpdateTiming {
            per_node_ns: 1_000_000,  // 1 ms per node state write
            barrier_ns: 100_000_000, // 100 ms synchronization
            parallelism: 64,
        }
    }
}

/// A prepared schedule update.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// The schedule to install.
    pub schedule: CircuitSchedule,
    /// The clique map it was built for.
    pub cliques: CliqueMap,
    /// The oversubscription ratio it realizes.
    pub q: Ratio,
    /// Per-node NIC diffs.
    pub reports: Vec<NicUpdateReport>,
    /// Total cells queued toward neighbors that lost all slots: the sum
    /// of the reports' `drained_cells`.
    ///
    /// Always 0 in a run: queue depths reach the control plane only
    /// through `NicState::set_queue_depth`, which no command calls.
    pub total_drained: u64,
    /// True when every node's update was a pure rebalance (the cheap
    /// path §5 designs for).
    pub rebalance_only: bool,
    /// Modeled installation time in nanoseconds.
    pub installation_ns: u64,
}

/// Builds and diffs schedule updates.
#[derive(Debug, Clone)]
pub struct ScheduleUpdater {
    timing: UpdateTiming,
}

impl ScheduleUpdater {
    /// An updater with the given timing model.
    pub fn new(timing: UpdateTiming) -> Self {
        ScheduleUpdater { timing }
    }

    /// Prepares an update from `old` (with live NIC queue state) to a new
    /// SORN schedule over `cliques` at ratio `q`, mutating the given NIC
    /// states as the install would.
    pub fn prepare(
        &self,
        nics: &mut [NicState],
        cliques: &CliqueMap,
        q: Ratio,
    ) -> Result<UpdatePlan, TopologyError> {
        let schedule = sorn_schedule(cliques, &SornScheduleParams::with_q(q))?;
        let mut reports = Vec::with_capacity(nics.len());
        let mut total_drained = 0;
        let mut rebalance_only = true;
        for nic in nics.iter_mut() {
            let r = nic.apply_update(&schedule);
            total_drained += r.drained_cells;
            rebalance_only &= r.is_rebalance_only();
            reports.push(r);
        }
        let n = nics.len().max(1);
        let rounds = n.div_ceil(self.timing.parallelism) as u64;
        let installation_ns = rounds * self.timing.per_node_ns + self.timing.barrier_ns;
        Ok(UpdatePlan {
            schedule,
            cliques: cliques.clone(),
            q,
            reports,
            total_drained,
            rebalance_only,
            installation_ns,
        })
    }

    /// Extracts fresh NIC states from a schedule (deployment bootstrap).
    pub fn bootstrap_nics(schedule: &CircuitSchedule) -> Vec<NicState> {
        (0..schedule.n())
            .map(|v| NicState::from_schedule(schedule, NodeId(v as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(q: u64, cliques: usize) -> (CircuitSchedule, CliqueMap) {
        let map = CliqueMap::contiguous(8, cliques);
        let s = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(q))).unwrap();
        (s, map)
    }

    #[test]
    fn rebalance_update_is_cheap() {
        let (old, map) = build(3, 2);
        let mut nics = ScheduleUpdater::bootstrap_nics(&old);
        nics[0].set_queue_depth(NodeId(1), 42);
        let updater = ScheduleUpdater::new(UpdateTiming::default());
        // Same cliques, new q: pure rebalance.
        let plan = updater.prepare(&mut nics, &map, Ratio::integer(1)).unwrap();
        assert!(plan.rebalance_only);
        assert_eq!(plan.total_drained, 0);
        assert_eq!(plan.reports.len(), 8);
        // Queue state survived.
        assert_eq!(nics[0].neighbor(NodeId(1)).unwrap().queued_cells, 42);
    }

    #[test]
    fn regrouping_reports_drains() {
        let (old, _) = build(3, 2);
        let mut nics = ScheduleUpdater::bootstrap_nics(&old);
        // Node 0 has cells queued toward its inter neighbor 4.
        nics[0].set_queue_depth(NodeId(4), 9);
        // New grouping: 4 cliques of 2; node 0's neighbors change.
        let new_map = CliqueMap::contiguous(8, 4);
        let updater = ScheduleUpdater::new(UpdateTiming::default());
        let plan = updater
            .prepare(&mut nics, &new_map, Ratio::integer(1))
            .unwrap();
        assert!(!plan.rebalance_only);
        // Neighbor 4 survives in the new topology (0 and 4 share intra
        // index 0 across cliques 0 and 2): check drain accounting against
        // the actual report rather than assuming.
        let drained: u64 = plan.reports.iter().map(|r| r.drained_cells).sum();
        assert_eq!(plan.total_drained, drained);
    }

    #[test]
    fn installation_time_scales_with_rounds() {
        let (old, map) = build(3, 2);
        let mut nics = ScheduleUpdater::bootstrap_nics(&old);
        let timing = UpdateTiming {
            per_node_ns: 1_000,
            barrier_ns: 10_000,
            parallelism: 4,
        };
        let updater = ScheduleUpdater::new(timing);
        let plan = updater.prepare(&mut nics, &map, Ratio::integer(2)).unwrap();
        // 8 nodes / 4 parallel = 2 rounds * 1000 + 10000 barrier.
        assert_eq!(plan.installation_ns, 12_000);
    }

    #[test]
    fn bootstrap_covers_all_nodes() {
        let (old, _) = build(3, 2);
        let nics = ScheduleUpdater::bootstrap_nics(&old);
        assert_eq!(nics.len(), 8);
        for (i, nic) in nics.iter().enumerate() {
            assert_eq!(nic.node(), NodeId(i as u32));
            assert!(nic.neighbor_count() > 0);
        }
    }
}
