//! Failure injection: dead nodes and links.
//!
//! §6 ("Practicality benefits") argues that modular semi-oblivious designs
//! shrink the blast radius of failures compared to flat designs with many
//! random indirect hops. The engine consults a [`FailureSet`] before every
//! transmission: circuits touching a failed node or failed (directed) link
//! carry nothing.
//!
//! The set is asked far more often than it changes — once per scheduled
//! circuit a degraded slot walks, and up to three times per fault-aware
//! routing decision — so a question costs bit tests, not hashing. Failed
//! nodes are a bitset (one `u64` word per 64 node ids) with a count, so
//! `node_failed` is one word load. Failed directed links are a hash set
//! keyed `src << 32 | dst` under the engine's unkeyed multiply hasher
//! ([`crate::hash`]), and `circuit_up` skips it without hashing while it
//! is empty; with no failed node either, the answer is two compares.
//! Equality is semantic (the bitset is kept trimmed of zero words), and
//! the id lists come out sorted, so checkpoints stay byte-identical.

use crate::hash::FastHashBuilder;
use sorn_topology::NodeId;
use std::collections::HashSet;

/// The set of currently failed elements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSet {
    /// Bit `v % 64` of word `v / 64` is set while node `v` is failed.
    /// Never ends in a zero word, so equal sets compare equal.
    node_words: Vec<u64>,
    /// Set bits in `node_words`.
    nodes: usize,
    /// Failed directed links, keyed by [`link_key`].
    links: HashSet<u64, FastHashBuilder>,
}

/// The hash-set key of the directed link `src → dst`.
#[inline]
fn link_key(src: NodeId, dst: NodeId) -> u64 {
    u64::from(src.0) << 32 | u64::from(dst.0)
}

impl FailureSet {
    /// No failures.
    pub const fn none() -> Self {
        FailureSet {
            node_words: Vec::new(),
            nodes: 0,
            links: HashSet::with_hasher(FastHashBuilder),
        }
    }

    /// Marks a node failed (all its circuits die).
    pub fn fail_node(&mut self, node: NodeId) {
        let w = node.index() / 64;
        if w >= self.node_words.len() {
            self.node_words.resize(w + 1, 0);
        }
        let bit = 1u64 << (node.0 % 64);
        if self.node_words[w] & bit == 0 {
            self.node_words[w] |= bit;
            self.nodes += 1;
        }
    }

    /// Marks the directed link `src → dst` failed.
    pub fn fail_link(&mut self, src: NodeId, dst: NodeId) {
        self.links.insert(link_key(src, dst));
    }

    /// Marks both directions of a link failed.
    pub fn fail_link_bidir(&mut self, a: NodeId, b: NodeId) {
        self.fail_link(a, b);
        self.fail_link(b, a);
    }

    /// Restores a node.
    pub fn restore_node(&mut self, node: NodeId) {
        let bit = 1u64 << (node.0 % 64);
        let Some(word) = self.node_words.get_mut(node.index() / 64) else {
            return;
        };
        if *word & bit != 0 {
            *word &= !bit;
            self.nodes -= 1;
            while self.node_words.last() == Some(&0) {
                self.node_words.pop();
            }
        }
    }

    /// Restores a directed link.
    pub fn restore_link(&mut self, src: NodeId, dst: NodeId) {
        self.links.remove(&link_key(src, dst));
    }

    /// True when the circuit `src → dst` is usable.
    #[inline]
    pub fn circuit_up(&self, src: NodeId, dst: NodeId) -> bool {
        if self.nodes != 0 && (self.node_failed(src) || self.node_failed(dst)) {
            return false;
        }
        self.links.is_empty() || !self.links.contains(&link_key(src, dst))
    }

    /// True when nothing has failed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes == 0 && self.links.is_empty()
    }

    /// Count of failed nodes.
    pub fn failed_nodes(&self) -> usize {
        self.nodes
    }

    /// Count of failed directed links.
    pub fn failed_links(&self) -> usize {
        self.links.len()
    }

    /// True when `node` itself is failed.
    #[inline]
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.node_words
            .get(node.index() / 64)
            .is_some_and(|w| w >> (node.0 % 64) & 1 != 0)
    }

    /// The failed nodes, sorted by id.
    pub fn failed_node_ids(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.nodes);
        for (w, &word) in self.node_words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                v.push(NodeId((w * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        v
    }

    /// The failed directed links, sorted by (src, dst).
    pub fn failed_link_ids(&self) -> Vec<(NodeId, NodeId)> {
        let mut keys: Vec<u64> = self.links.iter().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (NodeId((k >> 32) as u32), NodeId(k as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_base::rng::cases;
    use std::collections::BTreeSet;

    #[test]
    fn node_failure_kills_all_its_circuits() {
        let mut f = FailureSet::none();
        f.fail_node(NodeId(3));
        assert!(!f.circuit_up(NodeId(3), NodeId(1)));
        assert!(!f.circuit_up(NodeId(1), NodeId(3)));
        assert!(f.circuit_up(NodeId(1), NodeId(2)));
        f.restore_node(NodeId(3));
        assert!(f.circuit_up(NodeId(3), NodeId(1)));
    }

    #[test]
    fn link_failure_is_directional() {
        let mut f = FailureSet::none();
        f.fail_link(NodeId(0), NodeId(1));
        assert!(!f.circuit_up(NodeId(0), NodeId(1)));
        assert!(f.circuit_up(NodeId(1), NodeId(0)));
        f.fail_link_bidir(NodeId(4), NodeId(5));
        assert!(!f.circuit_up(NodeId(4), NodeId(5)));
        assert!(!f.circuit_up(NodeId(5), NodeId(4)));
        f.restore_link(NodeId(0), NodeId(1));
        assert!(f.circuit_up(NodeId(0), NodeId(1)));
    }

    #[test]
    fn emptiness_and_counts() {
        let mut f = FailureSet::none();
        assert!(f.is_empty());
        f.fail_node(NodeId(1));
        f.fail_link(NodeId(2), NodeId(3));
        assert!(!f.is_empty());
        assert_eq!(f.failed_nodes(), 1);
        assert_eq!(f.failed_links(), 1);
    }

    /// Random fail/restore/bidir sequences over node ids spanning five
    /// bitset words, against a `BTreeSet` model: every query, both counts,
    /// both sorted id lists, emptiness, `==` against a set built from the
    /// model alone, and `== none()` once everything is restored (so a
    /// failed-then-restored node 200 leaves no trace in the bitset).
    #[test]
    fn matches_a_btreeset_model() {
        cases(64, |rng| {
            let ids = rng.gen_range(2u32..300);
            let mut f = FailureSet::none();
            let mut nodes: BTreeSet<u32> = BTreeSet::new();
            let mut links: BTreeSet<(u32, u32)> = BTreeSet::new();
            for _ in 0..rng.gen_range(1usize..400) {
                let a = rng.gen_range(0..ids);
                let b = rng.gen_range(0..ids);
                match rng.gen_range(0u32..6) {
                    0 => {
                        f.fail_node(NodeId(a));
                        nodes.insert(a);
                    }
                    1 => {
                        f.restore_node(NodeId(a));
                        nodes.remove(&a);
                    }
                    2 => {
                        f.fail_link(NodeId(a), NodeId(b));
                        links.insert((a, b));
                    }
                    3 => {
                        f.restore_link(NodeId(a), NodeId(b));
                        links.remove(&(a, b));
                    }
                    4 => {
                        f.fail_link_bidir(NodeId(a), NodeId(b));
                        links.insert((a, b));
                        links.insert((b, a));
                    }
                    _ => {
                        // Double fail: the count must not move.
                        f.fail_node(NodeId(a));
                        f.fail_node(NodeId(a));
                        nodes.insert(a);
                    }
                }
                assert_eq!(f.failed_nodes(), nodes.len());
                assert_eq!(f.failed_links(), links.len());
                assert_eq!(f.is_empty(), nodes.is_empty() && links.is_empty());
                for _ in 0..8 {
                    let (s, d) = (rng.gen_range(0..ids), rng.gen_range(0..ids));
                    assert_eq!(f.node_failed(NodeId(s)), nodes.contains(&s));
                    let up = !nodes.contains(&s) && !nodes.contains(&d) && !links.contains(&(s, d));
                    assert_eq!(f.circuit_up(NodeId(s), NodeId(d)), up, "{s} -> {d}");
                }
            }
            let node_ids: Vec<u32> = f.failed_node_ids().iter().map(|n| n.0).collect();
            assert_eq!(node_ids, nodes.iter().copied().collect::<Vec<_>>());
            let link_ids: Vec<(u32, u32)> = f
                .failed_link_ids()
                .iter()
                .map(|&(a, b)| (a.0, b.0))
                .collect();
            assert_eq!(link_ids, links.iter().copied().collect::<Vec<_>>());
            let mut rebuilt = FailureSet::none();
            for &v in nodes.iter().rev() {
                rebuilt.fail_node(NodeId(v));
            }
            for &(a, b) in &links {
                rebuilt.fail_link(NodeId(a), NodeId(b));
            }
            assert_eq!(f, rebuilt);
            // Restoring everything the model holds leaves `none()`.
            for &v in &nodes {
                f.restore_node(NodeId(v));
            }
            for &(a, b) in &links {
                f.restore_link(NodeId(a), NodeId(b));
            }
            assert_eq!(f, FailureSet::none());
        });
    }
}
