//! Per-node virtual output queues.
//!
//! Each node keeps one FIFO per *specific* next hop plus one FIFO per
//! router-defined *class* (spray queues). When a circuit to `w` comes up,
//! the node serves the specific queue for `w` first — targeted traffic has
//! strict priority, as in RotorLB-style designs — then tries the class
//! queues in the router's priority order, touching a queued cell only
//! when the router cannot answer for the circuit alone.
//!
//! Specific queues are *sparse*: a node only ever queues toward the
//! handful of next hops its schedule connects it to, so holding one
//! `VecDeque` slot per node in the network is quadratic across the
//! fleet (16k nodes → 256M deque headers). Instead each node keeps a
//! short `(next-hop, FIFO)` list sorted by next-hop id and binary
//! searches it; emptied FIFOs stay in place so their capacity is
//! reused. Class pushes go through a precomputed `ClassId → index`
//! table — the transmit hot path never hashes and never scans for a
//! class.

use crate::cell::Cell;
use crate::router::{ClassId, Router};
use sorn_topology::NodeId;
use std::collections::VecDeque;

/// Sentinel in the class-index table for undeclared classes.
const NO_CLASS: u16 = u16::MAX;

/// The queue set of one node.
#[derive(Debug, Clone)]
pub struct NodeQueues {
    /// Nonempty-or-recycled FIFOs keyed by specific next hop, sorted by
    /// next-hop id. Emptied deques stay in the list so their capacity
    /// is reused on the next push toward the same hop.
    specific: Vec<(u32, VecDeque<Cell>)>,
    class: Vec<(ClassId, VecDeque<Cell>)>,
    /// Maps `ClassId.0` to an index into `class`; `NO_CLASS` when
    /// undeclared.
    class_index: Vec<u16>,
    depth: usize,
}

impl NodeQueues {
    /// Creates queues for a node, with one class FIFO per router class.
    /// Specific next-hop FIFOs materialize on first push.
    pub fn new(classes: &[ClassId]) -> Self {
        let table_len = classes.iter().map(|c| c.0 as usize + 1).max().unwrap_or(0);
        let mut class_index = vec![NO_CLASS; table_len];
        for (i, c) in classes.iter().enumerate() {
            class_index[c.0 as usize] = i as u16;
        }
        NodeQueues {
            specific: Vec::new(),
            class: classes.iter().map(|&c| (c, VecDeque::new())).collect(),
            class_index,
            depth: 0,
        }
    }

    /// Total queued cells at this node.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Enqueues a cell destined for a specific next hop.
    pub fn push_specific(&mut self, next: NodeId, cell: Cell) {
        let key = next.0;
        match self.specific.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.specific[i].1.push_back(cell),
            Err(i) => {
                let mut q = VecDeque::new();
                q.push_back(cell);
                self.specific.insert(i, (key, q));
            }
        }
        self.depth += 1;
    }

    /// Enqueues a cell into a spray class.
    ///
    /// # Panics
    /// Panics if the router never declared `class` — that is a scheme bug.
    pub fn push_class(&mut self, class: ClassId, cell: Cell) {
        let idx = self
            .class_index
            .get(class.0 as usize)
            .copied()
            .filter(|&i| i != NO_CLASS)
            .unwrap_or_else(|| panic!("router routed into undeclared class {class:?}"));
        self.class[idx as usize].1.push_back(cell);
        self.depth += 1;
    }

    /// Pops the cell to transmit on a circuit `from → to`, if any.
    ///
    /// Each non-empty class queue is first asked about as a whole
    /// ([`Router::circuit_admits`]): a circuit that serves none of its
    /// cells skips it in O(1), one that serves all of them pops its head.
    /// Only when the answer depends on the cell is the queue scanned, in
    /// place, for the first cell [`Router::class_admits`] accepts;
    /// `scan_limit` bounds how deep that scan goes (`0` = unbounded).
    /// Head-of-line cells whose constraints reject `to` are skipped, not
    /// dropped, and keep their order.
    pub fn pop_for_circuit<R: Router + ?Sized>(
        &mut self,
        router: &R,
        from: NodeId,
        to: NodeId,
        scan_limit: usize,
    ) -> Option<Cell> {
        if self.depth == 0 {
            return None; // nothing queued anywhere on this node
        }
        if let Ok(i) = self.specific.binary_search_by_key(&to.0, |&(k, _)| k) {
            if let Some(cell) = self.specific[i].1.pop_front() {
                self.depth -= 1;
                return Some(cell);
            }
        }
        for (class, q) in &mut self.class {
            if q.is_empty() {
                continue;
            }
            let cell = match router.circuit_admits(*class, from, to) {
                Some(false) => None,
                Some(true) => q.pop_front(),
                None => {
                    let limit = if scan_limit == 0 { q.len() } else { scan_limit };
                    q.iter()
                        .take(limit)
                        .position(|cell| router.class_admits(*class, cell, from, to))
                        .and_then(|i| q.remove(i))
                }
            };
            if cell.is_some() {
                self.depth -= 1;
                return cell;
            }
        }
        None
    }

    /// Drains every queued cell (used when re-routing after a schedule
    /// update); returns the cells in an arbitrary but deterministic order.
    pub fn drain_all(&mut self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.depth);
        for (_, q) in &mut self.specific {
            out.extend(q.drain(..));
        }
        for (_, q) in &mut self.class {
            out.extend(q.drain(..));
        }
        self.depth = 0;
        out
    }

    /// Iterates every queued cell together with the specific next hop it
    /// waits for (`None` for class-queued cells). Order is unspecified;
    /// use for whole-queue accounting, not replay.
    pub fn iter_cells(&self) -> impl Iterator<Item = (Option<NodeId>, &Cell)> {
        self.specific
            .iter()
            .flat_map(|(k, q)| q.iter().map(move |c| (Some(NodeId(*k)), c)))
            .chain(
                self.class
                    .iter()
                    .flat_map(|(_, q)| q.iter().map(|c| (None, c))),
            )
    }

    /// Exports every FIFO's contents for checkpointing: nonempty
    /// specific queues as `(next-hop id, cells front-to-back)` in
    /// ascending next-hop order, and nonempty class queues as
    /// `(class id, cells front-to-back)` in declaration order. A
    /// restore replays the cells through `push_specific`/`push_class`
    /// in this order, which reproduces each FIFO byte-for-byte.
    #[allow(clippy::type_complexity)]
    pub(crate) fn export_cells(&self) -> (Vec<(u32, Vec<Cell>)>, Vec<(u16, Vec<Cell>)>) {
        let specific = self
            .specific
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|&(next, ref q)| (next, q.iter().copied().collect()))
            .collect();
        let class = self
            .class
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(c, q)| (c.0 as u16, q.iter().copied().collect()))
            .collect();
        (specific, class)
    }

    /// Number of cells queued for a specific next hop.
    pub fn specific_depth(&self, next: NodeId) -> usize {
        match self.specific.binary_search_by_key(&next.0, |&(k, _)| k) {
            Ok(i) => self.specific[i].1.len(),
            Err(_) => 0,
        }
    }

    /// Number of cells queued in a class.
    pub fn class_depth(&self, class: ClassId) -> usize {
        self.class_index
            .get(class.0 as usize)
            .copied()
            .filter(|&i| i != NO_CLASS)
            .map_or(0, |i| self.class[i as usize].1.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::FlowId;

    fn cell(dst: u32) -> Cell {
        Cell {
            flow: FlowId(0),
            seq: 0,
            src: NodeId(0),
            dst: NodeId(dst),
            injected_ns: 0,
            hops: 0,
            tag: 0,
        }
    }

    /// A router whose single class admits only even-numbered targets.
    struct EvenClassRouter;
    impl Router for EvenClassRouter {
        fn decide(
            &self,
            _node: NodeId,
            _cell: &mut Cell,
            _rng: &mut crate::rng::NodeRng,
        ) -> crate::router::RouteDecision {
            crate::router::RouteDecision::ToClass(ClassId(0))
        }
        fn class_admits(&self, _c: ClassId, _cell: &Cell, _from: NodeId, to: NodeId) -> bool {
            to.0.is_multiple_of(2)
        }
        fn classes(&self) -> &[ClassId] {
            &[ClassId(0)]
        }
        fn max_hops(&self) -> u8 {
            4
        }
        fn name(&self) -> &str {
            "even"
        }
    }

    #[test]
    fn specific_queue_has_priority() {
        let r = EvenClassRouter;
        let mut q = NodeQueues::new(r.classes());
        q.push_class(ClassId(0), cell(9));
        q.push_specific(NodeId(2), cell(7));
        assert_eq!(q.depth(), 2);
        // Circuit to node 2: specific cell (dst 7) wins over class cell.
        let got = q.pop_for_circuit(&r, NodeId(0), NodeId(2), 0).unwrap();
        assert_eq!(got.dst, NodeId(7));
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn class_scan_skips_inadmissible_heads() {
        let r = EvenClassRouter;
        let mut q = NodeQueues::new(r.classes());
        q.push_class(ClassId(0), cell(1)); // any cell; admissibility is on `to`
                                           // Circuit to odd node: class rejects.
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3), 0).is_none());
        // Circuit to even node: admitted.
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(4), 0).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn scan_limit_bounds_search() {
        /// Admits only cells whose dst equals the circuit target.
        struct PickyRouter;
        impl Router for PickyRouter {
            fn decide(
                &self,
                _n: NodeId,
                _c: &mut Cell,
                _r: &mut crate::rng::NodeRng,
            ) -> crate::router::RouteDecision {
                crate::router::RouteDecision::ToClass(ClassId(0))
            }
            fn class_admits(&self, _c: ClassId, cell: &Cell, _f: NodeId, to: NodeId) -> bool {
                cell.dst == to
            }
            fn classes(&self) -> &[ClassId] {
                &[ClassId(0)]
            }
            fn max_hops(&self) -> u8 {
                4
            }
            fn name(&self) -> &str {
                "picky"
            }
        }
        let r = PickyRouter;
        let mut q = NodeQueues::new(r.classes());
        q.push_class(ClassId(0), cell(5));
        q.push_class(ClassId(0), cell(6));
        // With scan limit 1 only the head (dst 5) is considered.
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(6), 1).is_none());
        // Unbounded scan finds the second cell.
        let got = q.pop_for_circuit(&r, NodeId(0), NodeId(6), 0).unwrap();
        assert_eq!(got.dst, NodeId(6));
    }

    #[test]
    fn skipped_heads_keep_their_order() {
        let r = EvenClassRouter;
        let mut q = NodeQueues::new(r.classes());
        // Only `to` matters for admission, so track order via dst.
        for d in [1, 3, 5, 7] {
            q.push_class(ClassId(0), cell(d));
        }
        // Admissible circuit: the head (dst 1) pops first...
        let got = q.pop_for_circuit(&r, NodeId(0), NodeId(2), 0).unwrap();
        assert_eq!(got.dst, NodeId(1));
        // ...and an inadmissible circuit in between must not reorder.
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3), 0).is_none());
        for want in [3, 5, 7] {
            let got = q.pop_for_circuit(&r, NodeId(0), NodeId(2), 0).unwrap();
            assert_eq!(got.dst, NodeId(want));
        }
        assert!(q.is_empty());
    }

    /// The class scan as it was before `Router::circuit_admits`: pop,
    /// test with `class_admits`, push the skipped heads back. Kept as
    /// the reference `pop_for_circuit` is compared against.
    fn reference_pop<R: Router>(
        q: &mut NodeQueues,
        router: &R,
        from: NodeId,
        to: NodeId,
        scan_limit: usize,
    ) -> Option<Cell> {
        if let Ok(i) = q.specific.binary_search_by_key(&to.0, |&(k, _)| k) {
            if let Some(cell) = q.specific[i].1.pop_front() {
                q.depth -= 1;
                return Some(cell);
            }
        }
        let mut scratch = Vec::new();
        for (class, fifo) in &mut q.class {
            let limit = if scan_limit == 0 {
                fifo.len()
            } else {
                scan_limit.min(fifo.len())
            };
            let mut admitted = None;
            for _ in 0..limit {
                let cell = fifo.pop_front().expect("limit <= len");
                if router.class_admits(*class, &cell, from, to) {
                    admitted = Some(cell);
                    break;
                }
                scratch.push(cell);
            }
            for cell in scratch.drain(..).rev() {
                fifo.push_front(cell);
            }
            if admitted.is_some() {
                q.depth -= 1;
                return admitted;
            }
        }
        None
    }

    /// Class 0 rides any circuit, class 1 any circuit to an even node,
    /// class 2 only the circuit to the cell's own destination — one
    /// class per `circuit_admits` answer shape. Counts `class_admits`.
    #[derive(Default)]
    struct ThreeShapeRouter {
        per_cell_calls: std::sync::atomic::AtomicUsize,
    }
    impl Router for ThreeShapeRouter {
        fn decide(
            &self,
            _n: NodeId,
            _c: &mut Cell,
            _r: &mut crate::rng::NodeRng,
        ) -> crate::router::RouteDecision {
            crate::router::RouteDecision::ToClass(ClassId(0))
        }
        fn class_admits(&self, class: ClassId, cell: &Cell, from: NodeId, to: NodeId) -> bool {
            self.per_cell_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.circuit_admits(class, from, to)
                .unwrap_or(cell.dst == to)
        }
        fn circuit_admits(&self, class: ClassId, _from: NodeId, to: NodeId) -> Option<bool> {
            match class.0 {
                0 => Some(true),
                1 => Some(to.0.is_multiple_of(2)),
                _ => None,
            }
        }
        fn classes(&self) -> &[ClassId] {
            &[ClassId(2), ClassId(1), ClassId(0)]
        }
        fn max_hops(&self) -> u8 {
            4
        }
        fn name(&self) -> &str {
            "three-shape"
        }
    }

    #[test]
    fn pop_matches_the_rotate_scan_reference_op_for_op() {
        let r = ThreeShapeRouter::default();
        for scan_limit in [0, 1, 3] {
            let mut rng = crate::rng::NodeRng::for_node(0x51DE, scan_limit as u32);
            let mut fast = NodeQueues::new(r.classes());
            let mut slow = NodeQueues::new(r.classes());
            let mut pops = 0;
            for seq in 0..12_000u64 {
                let peer = NodeId(rng.gen_range(8) as u32);
                let mut c = cell(rng.gen_range(8) as u32);
                c.seq = seq;
                match rng.gen_range(20) {
                    0..=8 => {
                        let class = ClassId(rng.gen_range(3) as u8);
                        fast.push_class(class, c);
                        slow.push_class(class, c);
                    }
                    9 => {
                        fast.push_specific(peer, c);
                        slow.push_specific(peer, c);
                    }
                    _ => {
                        let got = fast.pop_for_circuit(&r, NodeId(9), peer, scan_limit);
                        let want = reference_pop(&mut slow, &r, NodeId(9), peer, scan_limit);
                        assert_eq!(got, want, "op {seq}, scan_limit {scan_limit}");
                        pops += got.is_some() as usize;
                    }
                }
                assert_eq!(fast.depth(), slow.depth());
                assert_eq!(fast.export_cells(), slow.export_cells(), "op {seq}");
            }
            assert!(pops > 2_000, "only {pops} pops returned a cell");
        }
    }

    #[test]
    fn answered_circuits_never_touch_a_cell() {
        use std::sync::atomic::Ordering::Relaxed;
        let r = ThreeShapeRouter::default();
        let mut q = NodeQueues::new(r.classes());
        for seq in 0..100_000 {
            let mut c = cell(5);
            c.seq = seq;
            q.push_class(ClassId(1), c);
        }
        // `Some(false)`: the whole queue is skipped.
        for _ in 0..1_000 {
            assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3), 0).is_none());
        }
        // `Some(true)`: the head pops, in order.
        for seq in 0..1_000 {
            let got = q.pop_for_circuit(&r, NodeId(0), NodeId(4), 0).unwrap();
            assert_eq!(got.seq, seq);
        }
        assert_eq!(q.depth(), 99_000);
        assert_eq!(r.per_cell_calls.load(Relaxed), 0);
        // A per-cell class in front of it is still scanned.
        q.push_class(ClassId(2), cell(7));
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3), 0).is_none());
        assert_eq!(r.per_cell_calls.load(Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "undeclared class")]
    fn undeclared_class_panics() {
        let mut q = NodeQueues::new(&[]);
        q.push_class(ClassId(3), cell(1));
    }

    #[test]
    #[should_panic(expected = "undeclared class")]
    fn undeclared_class_below_table_len_panics() {
        // Class 2 is inside the index table (class 3 sizes it) but was
        // never declared — the sentinel must still reject it.
        let mut q = NodeQueues::new(&[ClassId(0), ClassId(3)]);
        q.push_class(ClassId(2), cell(1));
    }

    #[test]
    fn sparse_class_ids_resolve_through_the_table() {
        let classes = [ClassId(7), ClassId(2)];
        let mut q = NodeQueues::new(&classes);
        q.push_class(ClassId(7), cell(1));
        q.push_class(ClassId(2), cell(2));
        q.push_class(ClassId(2), cell(3));
        assert_eq!(q.class_depth(ClassId(7)), 1);
        assert_eq!(q.class_depth(ClassId(2)), 2);
        assert_eq!(q.class_depth(ClassId(0)), 0);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn drain_all_empties_everything() {
        let r = EvenClassRouter;
        let mut q = NodeQueues::new(r.classes());
        q.push_specific(NodeId(1), cell(1));
        q.push_specific(NodeId(2), cell(2));
        q.push_class(ClassId(0), cell(3));
        let drained = q.drain_all();
        assert_eq!(drained.len(), 3);
        assert!(q.is_empty());
        assert_eq!(q.specific_depth(NodeId(1)), 0);
        assert_eq!(q.class_depth(ClassId(0)), 0);
    }
}
