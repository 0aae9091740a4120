//! Circuit schedules: periodic sequences of matchings.
//!
//! Nodes and switches synchronously cycle through a predetermined schedule
//! of circuits to create a fixed logical topology (§2). A schedule here is
//! a period of *slots*; each slot selects one [`Matching`] out of the set
//! the physical layer can realize. If a circuit `src → dst` appears in a
//! fraction `l` of the slots, it implements a virtual edge of bandwidth
//! `b·l` where `b` is the node's aggregate bandwidth (§4 "Topology").

use crate::error::{invalid, Result, TopologyError};
use crate::matching::Matching;
use crate::node::NodeId;

/// A periodic circuit schedule over `n` nodes.
///
/// Stores a pool of distinct matchings (the realizable "wavelengths") and a
/// periodic slot sequence indexing into the pool. Slot `t` of global time
/// uses `slots[t mod period]`. It also keeps how many slots of the period
/// use each pool matching, so a circuit's bandwidth share costs a walk over
/// the pool, not over the period.
///
/// ```
/// use sorn_topology::builders::round_robin;
/// use sorn_topology::NodeId;
///
/// let s = round_robin(5).unwrap(); // Figure 1
/// assert_eq!(s.period(), 4);
/// // Node 0 reaches node 3 in slot 2 (matching m3).
/// assert_eq!(s.next_circuit(NodeId(0), NodeId(3), 0), Some(2));
/// // Each pair holds 1/4 of a node's bandwidth.
/// let topo = s.logical_topology();
/// assert!((topo.capacity(NodeId(0), NodeId(3)) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSchedule {
    n: usize,
    matchings: Vec<Matching>,
    slots: Vec<usize>,
    /// `slot_counts[i]` = number of entries of `slots` equal to `i`.
    slot_counts: Vec<u64>,
}

impl CircuitSchedule {
    /// Builds a schedule from a matching pool and a slot sequence.
    pub fn new(matchings: Vec<Matching>, slots: Vec<usize>) -> Result<Self> {
        if slots.is_empty() {
            return Err(TopologyError::EmptySchedule);
        }
        let n = matchings.first().ok_or(TopologyError::EmptySchedule)?.n();
        for m in &matchings {
            if m.n() != n {
                return Err(TopologyError::SizeMismatch {
                    expected: n,
                    actual: m.n(),
                });
            }
        }
        let mut slot_counts = vec![0u64; matchings.len()];
        for &s in &slots {
            match slot_counts.get_mut(s) {
                Some(count) => *count += 1,
                None => {
                    return Err(TopologyError::UnknownMatching {
                        index: s,
                        available: matchings.len(),
                    })
                }
            }
        }
        Ok(CircuitSchedule {
            n,
            matchings,
            slots,
            slot_counts,
        })
    }

    /// Builds a schedule where each slot is its own matching, in order.
    pub fn from_matchings(matchings: Vec<Matching>) -> Result<Self> {
        let slots = (0..matchings.len()).collect();
        CircuitSchedule::new(matchings, slots)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Schedule period, in slots.
    #[inline]
    pub fn period(&self) -> usize {
        self.slots.len()
    }

    /// The distinct matchings this schedule draws from.
    #[inline]
    pub fn matchings(&self) -> &[Matching] {
        &self.matchings
    }

    /// The slot sequence (indices into [`CircuitSchedule::matchings`]).
    #[inline]
    pub fn slot_indices(&self) -> &[usize] {
        &self.slots
    }

    /// How many slots of the period use each matching of the pool
    /// (parallel to [`CircuitSchedule::matchings`]; sums to the period,
    /// zero for a pool matching no slot selects).
    #[inline]
    pub fn matching_slot_counts(&self) -> &[u64] {
        &self.slot_counts
    }

    /// The matching active at global slot `t`.
    #[inline]
    pub fn matching_at(&self, t: u64) -> &Matching {
        &self.matchings[self.slots[(t % self.period() as u64) as usize]]
    }

    /// Destination of `src` at global slot `t` (`None` when idle).
    #[inline]
    pub fn dst_at(&self, t: u64, src: NodeId) -> Option<NodeId> {
        self.matching_at(t).dst_of(src)
    }

    /// First global slot `>= from` at which the circuit `src → dst` is up.
    ///
    /// Returns `None` if the schedule never connects the pair.
    pub fn next_circuit(&self, src: NodeId, dst: NodeId, from: u64) -> Option<u64> {
        let p = self.period() as u64;
        (0..p)
            .map(|off| from + off)
            .find(|&t| self.matching_at(t).connects(src, dst))
    }

    /// Slots to wait from `from` until `src → dst` is next available.
    pub fn wait_slots(&self, src: NodeId, dst: NodeId, from: u64) -> Option<u64> {
        self.next_circuit(src, dst, from).map(|t| t - from)
    }

    /// Worst-case wait (in slots) for the circuit `src → dst`, over all
    /// possible start slots within a period.
    ///
    /// This is the per-hop component of the paper's *intrinsic latency*
    /// `δm` (§4 "Latency"): the number of circuits a packet may have to
    /// cycle through before its next hop comes up.
    pub fn max_wait(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let p = self.period() as u64;
        let ups: Vec<u64> = (0..p)
            .filter(|&t| self.matching_at(t).connects(src, dst))
            .collect();
        if ups.is_empty() {
            return None;
        }
        // Max gap between consecutive occurrences, wrapping around the
        // period; a packet arriving just after slot `u_i` waits until
        // `u_{i+1}`.
        let mut max_gap = 0u64;
        for (i, &u) in ups.iter().enumerate() {
            let next = if i + 1 < ups.len() {
                ups[i + 1]
            } else {
                ups[0] + p
            };
            max_gap = max_gap.max(next - u - 1);
        }
        Some(max_gap)
    }

    /// Fraction of slots in which the circuit `src → dst` is up.
    ///
    /// This is the `l` of §4: the virtual edge `src → dst` has bandwidth
    /// `b·l`.
    pub fn circuit_fraction(&self, src: NodeId, dst: NodeId) -> f64 {
        let ups: u64 = self
            .matchings
            .iter()
            .zip(&self.slot_counts)
            .filter(|(m, _)| m.connects(src, dst))
            .map(|(_, &count)| count)
            .sum();
        ups as f64 / self.period() as f64
    }

    /// Extracts the logical topology: every virtual edge and its capacity
    /// fraction.
    ///
    /// Costs one pass over the circuits of each pool matching in use plus
    /// a sort of each node's row, whatever the period.
    pub fn logical_topology(&self) -> LogicalTopology {
        let mut rows: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); self.n];
        for (m, &count) in self.matchings.iter().zip(&self.slot_counts) {
            if count > 0 {
                for (s, d) in m.circuits() {
                    rows[s.index()].push((d, count));
                }
            }
        }
        let p = self.period() as f64;
        let adj = rows
            .into_iter()
            .map(|mut row| {
                row.sort_unstable_by_key(|&(d, _)| d);
                // Two pool matchings may carry the same circuit: fold their
                // slot counts into one edge before dividing.
                row.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 += later.1;
                    }
                    same
                });
                row.into_iter().map(|(d, c)| (d, c as f64 / p)).collect()
            })
            .collect();
        LogicalTopology { n: self.n, adj }
    }

    /// Checks every slot is a valid matching of the right size.
    ///
    /// `CircuitSchedule::new` already guarantees this; the method exists so
    /// property tests and downstream builders can re-assert the invariant
    /// after transformations.
    pub fn validate(&self) -> Result<()> {
        for m in &self.matchings {
            if m.n() != self.n {
                return Err(TopologyError::SizeMismatch {
                    expected: self.n,
                    actual: m.n(),
                });
            }
            // Re-validate permutation structure.
            Matching::from_permutation(m.as_slice().to_vec())?;
        }
        if self.slots.is_empty() {
            return Err(TopologyError::EmptySchedule);
        }
        Ok(())
    }

    /// Renders the schedule as a paper-style table (Figure 1): one row per
    /// time slot, one column per node, entries are the connected peer
    /// (`-` when idle).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "slot");
        for i in 0..self.n {
            let _ = write!(out, "\t{i}");
        }
        out.push('\n');
        for t in 0..self.period() as u64 {
            let _ = write!(out, "{}", t + 1);
            let m = self.matching_at(t);
            for i in 0..self.n as u32 {
                match m.dst_of(NodeId(i)) {
                    Some(d) => {
                        let _ = write!(out, "\t{}", d.0);
                    }
                    None => {
                        let _ = write!(out, "\t-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A node with `u` uplinks following `u` phase-staggered copies of a base
/// schedule.
///
/// Sirius-style deployments give each rack `u` uplinks into independent
/// OCS planes; staggering the same schedule by `period/u` across planes
/// divides the worst-case circuit wait by `u`. Table 1 uses 16 uplinks,
/// which is why a 4095-slot round robin waits only `4095/16` slots.
#[derive(Debug, Clone)]
pub struct StaggeredSchedule {
    base: CircuitSchedule,
    uplinks: usize,
}

impl StaggeredSchedule {
    /// Wraps `base` with `u >= 1` staggered uplinks.
    pub fn new(base: CircuitSchedule, uplinks: usize) -> Result<Self> {
        if uplinks == 0 {
            return Err(invalid("uplinks", "must be at least 1"));
        }
        Ok(StaggeredSchedule { base, uplinks })
    }

    /// The underlying single-plane schedule.
    pub fn base(&self) -> &CircuitSchedule {
        &self.base
    }

    /// Number of uplinks (planes).
    pub fn uplinks(&self) -> usize {
        self.uplinks
    }

    /// Phase offset (in slots) of uplink `j`.
    pub fn offset_of(&self, uplink: usize) -> u64 {
        (uplink * self.base.period() / self.uplinks) as u64
    }

    /// Destination of `src` on uplink `j` at global slot `t`.
    pub fn dst_at(&self, t: u64, uplink: usize, src: NodeId) -> Option<NodeId> {
        self.base.dst_at(t + self.offset_of(uplink), src)
    }

    /// Minimum wait over all uplinks for the circuit `src → dst` from slot
    /// `from`.
    pub fn wait_slots(&self, src: NodeId, dst: NodeId, from: u64) -> Option<u64> {
        (0..self.uplinks)
            .filter_map(|j| self.base.wait_slots(src, dst, from + self.offset_of(j)))
            .min()
    }

    /// Worst-case wait in slots across start times, with all uplinks
    /// available.
    ///
    /// For an evenly staggered schedule this is about `max_wait / u`.
    pub fn max_wait(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let p = self.base.period() as u64;
        let mut worst = None;
        for from in 0..p {
            match self.wait_slots(src, dst, from) {
                Some(w) => {
                    let cur = worst.get_or_insert(0);
                    *cur = (*cur).max(w);
                }
                None => return None,
            }
        }
        worst
    }
}

/// The logical topology implied by a schedule: directed virtual edges with
/// capacity fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalTopology {
    n: usize,
    /// For each source, sorted `(dst, fraction-of-slots)` pairs.
    adj: Vec<Vec<(NodeId, f64)>>,
}

impl LogicalTopology {
    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Out-neighbors of `src` with their capacity fractions, sorted by
    /// neighbor with no neighbor repeated.
    #[inline]
    pub fn neighbors(&self, src: NodeId) -> &[(NodeId, f64)] {
        &self.adj[src.index()]
    }

    /// Capacity fraction of the virtual edge `src → dst` (0 when absent).
    pub fn capacity(&self, src: NodeId, dst: NodeId) -> f64 {
        self.adj[src.index()]
            .iter()
            .find(|(d, _)| *d == dst)
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    }

    /// Out-degree of `src` (number of distinct virtual edges).
    pub fn degree(&self, src: NodeId) -> usize {
        self.adj[src.index()].len()
    }

    /// Total outgoing capacity fraction of `src` (≤ 1).
    pub fn total_capacity(&self, src: NodeId) -> f64 {
        self.adj[src.index()].iter().map(|(_, c)| c).sum()
    }

    /// Iterates over every directed virtual edge `(src, dst, fraction)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(s, row)| row.iter().map(move |(d, c)| (NodeId(s as u32), *d, *c)))
    }

    /// Builds a logical topology directly from weighted edges.
    ///
    /// Used by analytical models that never materialize slot sequences.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>) -> Self {
        let mut adj: Vec<std::collections::BTreeMap<u32, f64>> =
            vec![std::collections::BTreeMap::new(); n];
        for (s, d, c) in edges {
            *adj[s.index()].entry(d.0).or_insert(0.0) += c;
        }
        LogicalTopology {
            n,
            adj: adj
                .into_iter()
                .map(|row| row.into_iter().map(|(d, c)| (NodeId(d), c)).collect())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_robin(n: usize) -> CircuitSchedule {
        let ms = (1..n).map(|k| Matching::cyclic(n, k)).collect();
        CircuitSchedule::from_matchings(ms).unwrap()
    }

    #[test]
    fn round_robin_period_and_connectivity() {
        // Figure 1: 5 nodes, 4 slots, full connectivity.
        let s = round_robin(5);
        assert_eq!(s.period(), 4);
        for src in 0..5u32 {
            for dst in 0..5u32 {
                if src != dst {
                    assert!(s.next_circuit(NodeId(src), NodeId(dst), 0).is_some());
                }
            }
        }
    }

    #[test]
    fn figure1_table_layout() {
        let s = round_robin(5);
        let table = s.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 slots
                                    // Slot 1 row: A->B, B->C, ... (0->1, 1->2, 2->3, 3->4, 4->0)
        assert_eq!(lines[1], "1\t1\t2\t3\t4\t0");
        // Slot 4 row: 0->4, 1->0, ...
        assert_eq!(lines[4], "4\t4\t0\t1\t2\t3");
    }

    #[test]
    fn wait_and_max_wait_on_round_robin() {
        let s = round_robin(8);
        // Circuit 0->1 is up in slot 0 (matching m1 first).
        assert_eq!(s.wait_slots(NodeId(0), NodeId(1), 0), Some(0));
        // From slot 1, 0->1 next appears at slot 7 (one full period later).
        assert_eq!(s.wait_slots(NodeId(0), NodeId(1), 1), Some(6));
        // Worst case wait for any pair in a round robin is period-1 slots.
        assert_eq!(s.max_wait(NodeId(0), NodeId(1)), Some(6));
        assert_eq!(s.max_wait(NodeId(3), NodeId(2)), Some(6));
        // Never-connected pair (self) is None.
        assert_eq!(s.max_wait(NodeId(3), NodeId(3)), None);
    }

    #[test]
    fn circuit_fraction_uniform_in_round_robin() {
        let s = round_robin(6);
        for src in 0..6u32 {
            for dst in 0..6u32 {
                if src != dst {
                    let f = s.circuit_fraction(NodeId(src), NodeId(dst));
                    assert!((f - 1.0 / 5.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn logical_topology_of_round_robin_is_uniform_clique() {
        let s = round_robin(5);
        let t = s.logical_topology();
        assert_eq!(t.n(), 5);
        for src in 0..5u32 {
            assert_eq!(t.degree(NodeId(src)), 4);
            assert!((t.total_capacity(NodeId(src)) - 1.0).abs() < 1e-12);
            for (_, c) in t.neighbors(NodeId(src)) {
                assert!((c - 0.25).abs() < 1e-12);
            }
        }
        assert_eq!(t.edges().count(), 20);
    }

    #[test]
    fn schedule_rejects_bad_inputs() {
        assert!(matches!(
            CircuitSchedule::new(vec![], vec![]),
            Err(TopologyError::EmptySchedule)
        ));
        let ms = vec![Matching::cyclic(4, 1)];
        assert!(matches!(
            CircuitSchedule::new(ms.clone(), vec![1]),
            Err(TopologyError::UnknownMatching { .. })
        ));
        let mixed = vec![Matching::cyclic(4, 1), Matching::cyclic(5, 1)];
        assert!(matches!(
            CircuitSchedule::new(mixed, vec![0, 1]),
            Err(TopologyError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn repeated_slots_change_fractions() {
        // Give m1 three slots and m2 one slot: 0->1 gets 75% capacity.
        let ms = vec![Matching::cyclic(4, 1), Matching::cyclic(4, 2)];
        let s = CircuitSchedule::new(ms, vec![0, 0, 0, 1]).unwrap();
        assert!((s.circuit_fraction(NodeId(0), NodeId(1)) - 0.75).abs() < 1e-12);
        assert!((s.circuit_fraction(NodeId(0), NodeId(2)) - 0.25).abs() < 1e-12);
        let t = s.logical_topology();
        assert!((t.capacity(NodeId(0), NodeId(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn staggered_schedule_divides_wait() {
        let s = round_robin(17); // period 16
        let st = StaggeredSchedule::new(s, 4).unwrap();
        assert_eq!(st.offset_of(0), 0);
        assert_eq!(st.offset_of(1), 4);
        // Worst-case wait drops from 15 to at most 3 with 4 planes.
        let w = st.max_wait(NodeId(0), NodeId(5)).unwrap();
        assert!(w <= 4, "staggered wait {w} too large");
    }

    #[test]
    fn staggered_rejects_zero_uplinks() {
        let s = round_robin(4);
        assert!(StaggeredSchedule::new(s, 0).is_err());
    }

    #[test]
    fn logical_topology_from_edges_merges_duplicates() {
        let t = LogicalTopology::from_edges(
            3,
            vec![
                (NodeId(0), NodeId(1), 0.25),
                (NodeId(0), NodeId(1), 0.25),
                (NodeId(0), NodeId(2), 0.5),
            ],
        );
        assert!((t.capacity(NodeId(0), NodeId(1)) - 0.5).abs() < 1e-12);
        assert_eq!(t.degree(NodeId(0)), 2);
    }
}
