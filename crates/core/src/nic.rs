//! Node (NIC) hardware state and schedule updates — Figure 2(c), §5.
//!
//! In a Sirius-like deployment the circuit schedule lives entirely at the
//! nodes: each NIC cycles through the wavelengths of the installed
//! schedule and keeps per-neighbor queues. What an update has to get
//! right at a node is the *neighbor set* and each neighbor's *share of
//! the period*, so that is what this model holds: per neighbor, how many
//! slots of the period reach it and how much traffic is queued toward
//! it. The slot order itself stays in the [`CircuitSchedule`]. §5 argues
//! updates are cheap because the semi-oblivious abstraction keeps a
//! *fixed superset of neighbors* per node and only rebalances how many
//! slots each neighbor gets; queues never need to be created or destroyed
//! for rebalance-only updates, and drain work is limited to neighbors
//! whose slot share went to zero.

use sorn_topology::{CircuitSchedule, NodeId};
use std::collections::BTreeMap;

/// Per-neighbor NIC state: how many slots of the schedule reach it and
/// how much traffic is queued toward it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborState {
    /// Number of slots in the schedule period whose circuit goes to this
    /// neighbor (at least 1).
    pub slot_count: u64,
    /// Cells currently queued for this neighbor.
    pub queued_cells: u64,
}

/// What a schedule update did to one node's NIC state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicUpdateReport {
    /// Neighbors that gained a queue (violate the fixed-superset goal).
    pub added: Vec<NodeId>,
    /// Neighbors whose slot share dropped to zero.
    pub removed: Vec<NodeId>,
    /// Neighbors present before and after.
    pub retained: usize,
    /// Cells that were queued toward removed neighbors and must drain or
    /// re-route.
    ///
    /// Always 0 in a run: queue depths reach the control plane only
    /// through [`NicState::set_queue_depth`], which no command calls.
    pub drained_cells: u64,
}

impl NicUpdateReport {
    /// True when the update only rebalanced bandwidth over the existing
    /// neighbor superset — the cheap case §5 designs for.
    pub fn is_rebalance_only(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// The schedule-related state of one node's NIC (Figure 2(c)): its
/// neighbor set with per-neighbor slot counts and queue depths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicState {
    node: NodeId,
    /// Schedule version, bumped on every applied update.
    version: u64,
    period: u32,
    neighbors: BTreeMap<u32, NeighborState>,
}

impl NicState {
    /// Extracts the NIC state of `node` from a schedule: one pass over
    /// the schedule's matching pool, whatever its period.
    pub fn from_schedule(schedule: &CircuitSchedule, node: NodeId) -> Self {
        let mut neighbors: BTreeMap<u32, NeighborState> = BTreeMap::new();
        for (m, &count) in schedule
            .matchings()
            .iter()
            .zip(schedule.matching_slot_counts())
        {
            // A pool matching no slot selects reaches nobody.
            if count == 0 {
                continue;
            }
            if let Some(d) = m.dst_of(node) {
                neighbors
                    .entry(d.0)
                    .or_insert(NeighborState {
                        slot_count: 0,
                        queued_cells: 0,
                    })
                    .slot_count += count;
            }
        }
        NicState {
            node,
            version: 0,
            period: schedule.period() as u32,
            neighbors,
        }
    }

    /// The node this state belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current schedule version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Schedule period this state was built against.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Number of neighbors with at least one slot.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Neighbor state, if present.
    pub fn neighbor(&self, n: NodeId) -> Option<&NeighborState> {
        self.neighbors.get(&n.0)
    }

    /// Records queued traffic toward a neighbor (test/telemetry hook;
    /// the simulator keeps its own authoritative queues).
    pub fn set_queue_depth(&mut self, n: NodeId, cells: u64) {
        if let Some(s) = self.neighbors.get_mut(&n.0) {
            s.queued_cells = cells;
        }
    }

    /// Applies a new schedule, returning what changed. Queue depths carry
    /// over for retained neighbors; drained cells are counted for
    /// removed ones.
    pub fn apply_update(&mut self, new_schedule: &CircuitSchedule) -> NicUpdateReport {
        let fresh = NicState::from_schedule(new_schedule, self.node);
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let mut retained = 0;
        let mut drained = 0;

        for (&n, old) in &self.neighbors {
            if fresh.neighbors.contains_key(&n) {
                retained += 1;
            } else {
                removed.push(NodeId(n));
                drained += old.queued_cells;
            }
        }
        for &n in fresh.neighbors.keys() {
            if !self.neighbors.contains_key(&n) {
                added.push(NodeId(n));
            }
        }

        // Install, carrying queue depths for retained neighbors.
        let mut installed = fresh.neighbors;
        for (n, s) in &mut installed {
            if let Some(old) = self.neighbors.get(n) {
                s.queued_cells = old.queued_cells;
            }
        }
        self.neighbors = installed;
        self.period = new_schedule.period() as u32;
        self.version += 1;

        NicUpdateReport {
            added,
            removed,
            retained,
            drained_cells: drained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
    use sorn_topology::{CliqueMap, Ratio};

    fn topology(q: u64) -> CircuitSchedule {
        let map = CliqueMap::contiguous(8, 2);
        sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(q))).unwrap()
    }

    #[test]
    fn state_reflects_schedule_slots() {
        let s = topology(3);
        let nic = NicState::from_schedule(&s, NodeId(0));
        // Topology A: neighbors 1,2,3 (intra) and 4 (inter), 1 slot each.
        assert_eq!(nic.neighbor_count(), 4);
        assert_eq!(nic.period(), 4);
        for n in [1u32, 2, 3, 4] {
            assert_eq!(nic.neighbor(NodeId(n)).unwrap().slot_count, 1);
        }
        assert!(nic.neighbor(NodeId(6)).is_none());
    }

    #[test]
    fn rebalance_keeps_neighbor_superset() {
        // q=3 -> q=1 over the same cliques only rebalances slot shares.
        let mut nic = NicState::from_schedule(&topology(3), NodeId(0));
        nic.set_queue_depth(NodeId(1), 10);
        let report = nic.apply_update(&topology(1));
        assert!(report.is_rebalance_only(), "{report:?}");
        assert_eq!(report.retained, 4);
        assert_eq!(report.drained_cells, 0);
        // Queue depth carried over; version bumped.
        assert_eq!(nic.neighbor(NodeId(1)).unwrap().queued_cells, 10);
        assert_eq!(nic.version(), 1);
        // q=1 topology: intra 3 slots over shifts 1..3 plus inter 3 slots
        // => share of each intra neighbor 1/6... intra total = inter total.
        let slots = |n| nic.neighbor(NodeId(n)).unwrap().slot_count;
        let intra: u64 = (1..4).map(slots).sum();
        assert_eq!(intra, slots(4));
    }

    #[test]
    fn restructure_reports_added_and_removed() {
        // Moving from 2 cliques of 4 to the flat round robin adds the
        // neighbors node 0 never had (5, 6, 7).
        let mut nic = NicState::from_schedule(&topology(3), NodeId(0));
        nic.set_queue_depth(NodeId(4), 7);
        let flat = round_robin(8).unwrap();
        let report = nic.apply_update(&flat);
        assert!(!report.is_rebalance_only());
        assert_eq!(report.added, vec![NodeId(5), NodeId(6), NodeId(7)]);
        assert!(report.removed.is_empty());
        assert_eq!(report.retained, 4);
        assert_eq!(report.drained_cells, 0);
        assert_eq!(nic.neighbor_count(), 7);
    }

    #[test]
    fn removed_neighbors_count_drained_cells() {
        // Flat -> cliques: node 0 loses neighbors 5..7.
        let flat = round_robin(8).unwrap();
        let mut nic = NicState::from_schedule(&flat, NodeId(0));
        nic.set_queue_depth(NodeId(6), 5);
        nic.set_queue_depth(NodeId(2), 3);
        let report = nic.apply_update(&topology(3));
        assert_eq!(report.removed, vec![NodeId(5), NodeId(6), NodeId(7)]);
        assert_eq!(report.drained_cells, 5);
        // Retained neighbor keeps its queue.
        assert_eq!(nic.neighbor(NodeId(2)).unwrap().queued_cells, 3);
    }
}
