//! Matchings: single-slot circuit configurations of the OCS layer.
//!
//! In a wavelength-routed optical circuit switch (paper §4, Figure 2(a)),
//! each wavelength `λi` implements a *matching* `mi` between input and
//! output ports: a permutation that connects every source node to exactly
//! one destination node for the duration of a time slot. A node mapped to
//! itself holds no circuit in that slot (it is idle).

use crate::error::{Result, TopologyError};
use crate::node::NodeId;

/// A matching between `n` nodes: a permutation `src -> dst`.
///
/// Entries with `dst == src` denote an idle port (no circuit). The paper's
/// example setup (Figure 2(b)) uses the *cyclic* family
/// `m_k(s) = (s + k) mod n`, which wavelength-routed AWGRs provide
/// naturally; arbitrary permutations are supported for generality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Matching {
    dst: Vec<u32>,
}

impl Matching {
    /// Builds a matching from an explicit destination vector.
    ///
    /// `dst[i]` is the node that node `i` connects to. The vector must be a
    /// permutation of `0..dst.len()`.
    pub fn from_permutation(dst: Vec<u32>) -> Result<Self> {
        let n = dst.len();
        let mut seen = vec![false; n];
        for &d in &dst {
            if (d as usize) >= n || seen[d as usize] {
                return Err(TopologyError::NotAPermutation { n, dup: d });
            }
            seen[d as usize] = true;
        }
        Ok(Matching { dst })
    }

    /// The cyclic matching `m_k`: node `i` connects to `(i + k) mod n`.
    ///
    /// `k = 0` is the identity matching (all ports idle). The round-robin
    /// schedule of Figure 1 cycles `k` through `1..n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn cyclic(n: usize, k: usize) -> Self {
        assert!(n > 0, "matching needs at least one node");
        let dst = (0..n).map(|i| ((i + k) % n) as u32).collect();
        Matching { dst }
    }

    /// The identity matching (every port idle).
    pub fn identity(n: usize) -> Self {
        Matching::cyclic(n, 0)
    }

    /// Number of nodes (ports).
    #[inline]
    pub fn n(&self) -> usize {
        self.dst.len()
    }

    /// Destination of `src` under this matching.
    ///
    /// Returns `None` when the port is idle (mapped to itself).
    #[inline]
    pub fn dst_of(&self, src: NodeId) -> Option<NodeId> {
        let d = self.dst[src.index()];
        if d as usize == src.index() {
            None
        } else {
            Some(NodeId(d))
        }
    }

    /// Destination of `src`, treating an idle port as a self-loop.
    #[inline]
    pub fn raw_dst(&self, src: NodeId) -> NodeId {
        NodeId(self.dst[src.index()])
    }

    /// True when this matching connects `src` to `dst`.
    #[inline]
    pub fn connects(&self, src: NodeId, dst: NodeId) -> bool {
        src != dst && self.dst[src.index()] == dst.0
    }

    /// Iterates over active circuits `(src, dst)` (idle ports skipped).
    pub fn circuits(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.dst
            .iter()
            .enumerate()
            .filter(|(s, &d)| *s != d as usize)
            .map(|(s, &d)| (NodeId(s as u32), NodeId(d)))
    }

    /// True when no port is idle.
    pub fn is_perfect(&self) -> bool {
        self.dst.iter().enumerate().all(|(s, &d)| s != d as usize)
    }

    /// Raw destination slice (`dst[i]` = destination of node `i`).
    pub fn as_slice(&self) -> &[u32] {
        &self.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_matchings_match_paper_figure_2b() {
        // Figure 2(b): for 8 nodes, matching m1 sends node s to s+1, etc.
        let n = 8;
        for k in 1..=5 {
            let m = Matching::cyclic(n, k);
            for s in 0..n as u32 {
                assert_eq!(
                    m.dst_of(NodeId(s)),
                    Some(NodeId(((s as usize + k) % n) as u32))
                );
            }
            assert!(m.is_perfect());
        }
    }

    #[test]
    fn identity_is_all_idle() {
        let m = Matching::identity(5);
        assert!(!m.is_perfect());
        assert_eq!(m.circuits().count(), 0);
        assert_eq!(m.dst_of(NodeId(2)), None);
    }

    #[test]
    fn from_permutation_rejects_duplicates_and_range() {
        assert!(Matching::from_permutation(vec![0, 0, 2]).is_err());
        assert!(Matching::from_permutation(vec![0, 5, 2]).is_err());
        assert!(Matching::from_permutation(vec![2, 0, 1]).is_ok());
    }

    #[test]
    fn connects_is_directional_and_ignores_self() {
        let m = Matching::cyclic(4, 1);
        assert!(m.connects(NodeId(0), NodeId(1)));
        assert!(!m.connects(NodeId(1), NodeId(0)));
        let id = Matching::identity(4);
        assert!(!id.connects(NodeId(2), NodeId(2)));
    }

    #[test]
    fn circuits_enumerates_active_pairs() {
        let m = Matching::cyclic(3, 1);
        let pairs: Vec<_> = m.circuits().collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(0))
            ]
        );
    }
}
