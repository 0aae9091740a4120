//! The routing contract between the engine and routing schemes.
//!
//! Oblivious and semi-oblivious schemes share a queueing structure: at
//! every node, a cell either waits for a *specific* next hop (a direct or
//! targeted circuit) or for *any* circuit in a *class* (a load-balancing
//! spray hop — "the first available intra-clique link" of §4). The engine
//! keeps one virtual output queue per specific next hop plus one queue per
//! class, and asks the router three questions:
//!
//! 1. [`Router::decide`] — when a cell arrives at a node: deliver it,
//!    queue it for a specific neighbor, or queue it into a class.
//! 2. [`Router::circuit_admits`] — when a circuit to `to` comes up: may
//!    *every* cell of a class use it, may *none*, or does it depend on
//!    the cell? In the paper's schemes the spray hop is defined by the
//!    circuit alone, so a whole class queue is served from its head or
//!    skipped without looking at a cell.
//! 3. [`Router::class_admits`] — only when the answer to 2 was "it
//!    depends": may this queued class cell use the circuit?

use crate::cell::Cell;
use crate::rng::NodeRng;
use sorn_topology::NodeId;

/// Identifier of a router-defined spray class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u8);

/// Where a cell should go next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The cell has reached its destination.
    Deliver,
    /// Queue for a circuit to this specific node.
    ToNode(NodeId),
    /// Queue into a spray class; any circuit admitted by
    /// [`Router::class_admits`] may carry it.
    ToClass(ClassId),
    /// Shed the cell at this node — used by failure-aware routers when
    /// the destination is known dead. Counted as a drop, not a delivery.
    Drop,
}

/// A routing scheme.
///
/// Implementations must be deterministic given the RNG: the engine
/// passes the deciding node's own counter-based [`NodeRng`] stream, so a
/// decision depends only on `(seed, node, decisions made at that node)`
/// and runs reproduce exactly — serial or sharded across threads.
///
/// `Sync` is a supertrait because the engine calls `decide`,
/// `circuit_admits`, `class_admits`, and `on_transmit` from worker
/// threads when `SimConfig::engine_threads > 1`. Routers with interior
/// mutable state must key it by the acting node (the engine shards work
/// by node), so a `Mutex` around per-node state stays deterministic.
pub trait Router: Sync {
    /// Decides the next step for `cell` arriving at `node`, possibly
    /// updating the cell's router-owned `tag`.
    ///
    /// Called once when the cell is injected at its source and once per
    /// intermediate hop. Must return [`RouteDecision::Deliver`] when
    /// `node == cell.dst`.
    fn decide(&self, node: NodeId, cell: &mut Cell, rng: &mut NodeRng) -> RouteDecision;

    /// Whether a cell queued in `class` at node `from` may ride a circuit
    /// to `to`.
    fn class_admits(&self, class: ClassId, cell: &Cell, from: NodeId, to: NodeId) -> bool;

    /// The cell-independent form of [`Router::class_admits`]: `Some(b)`
    /// when `class_admits(class, cell, from, to) == b` for *every* cell
    /// that can be queued in `class`, `None` (the default) when the
    /// answer depends on the cell. The transmit path asks this once per
    /// non-empty class queue and only falls back to scanning cells with
    /// `class_admits` on `None`, so a router that can answer here never
    /// has a queued cell touched by a circuit that will not carry it.
    fn circuit_admits(&self, class: ClassId, from: NodeId, to: NodeId) -> Option<bool> {
        let _ = (class, from, to);
        None
    }

    /// Hook invoked when a cell is put on a circuit `from → to`, before it
    /// propagates. Routers that need per-cell state keyed to *which*
    /// circuit a spray hop used (e.g. the dimension bitmask of an
    /// h-dimensional ORN) update `cell.tag` here. Default: no-op.
    fn on_transmit(&self, cell: &mut Cell, from: NodeId, to: NodeId) {
        let _ = (cell, from, to);
    }

    /// The classes this scheme uses, in transmission priority order
    /// (checked after the specific queue for the circuit's endpoint).
    fn classes(&self) -> &[ClassId];

    /// Upper bound on hops any cell takes; the engine treats exceeding it
    /// as a routing bug.
    fn max_hops(&self) -> u8;

    /// Human-readable scheme name for reports.
    fn name(&self) -> &str;
}

/// A trivial router for tests and single-hop networks: every cell waits
/// for the direct circuit to its destination.
#[derive(Debug, Clone, Default)]
pub struct DirectRouter;

impl Router for DirectRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut NodeRng) -> RouteDecision {
        if node == cell.dst {
            RouteDecision::Deliver
        } else {
            RouteDecision::ToNode(cell.dst)
        }
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, _from: NodeId, _to: NodeId) -> Option<bool> {
        Some(false) // no classes: nothing ever sprays
    }

    fn classes(&self) -> &[ClassId] {
        &[]
    }

    fn max_hops(&self) -> u8 {
        1
    }

    fn name(&self) -> &str {
        "direct"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, FlowId};

    fn cell(src: u32, dst: u32) -> Cell {
        Cell {
            flow: FlowId(0),
            seq: 0,
            src: NodeId(src),
            dst: NodeId(dst),
            injected_ns: 0,
            hops: 0,
            tag: 0,
        }
    }

    #[test]
    fn direct_router_targets_destination() {
        let r = DirectRouter;
        let mut rng = NodeRng::for_node(0, 0);
        let mut c = cell(0, 3);
        assert_eq!(
            r.decide(NodeId(0), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(3))
        );
        assert_eq!(
            r.decide(NodeId(3), &mut c, &mut rng),
            RouteDecision::Deliver
        );
        assert!(r.classes().is_empty());
        assert_eq!(r.max_hops(), 1);
    }
}
