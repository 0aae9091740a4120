//! Per-node virtual output queues.
//!
//! Each node keeps one FIFO per *specific* next hop plus one FIFO per
//! router-defined *class* (spray queues). When a circuit to `w` comes up,
//! the node serves the specific queue for `w` first — targeted traffic has
//! strict priority, as in RotorLB-style designs — then tries the class
//! queues in the router's priority order, touching a queued cell only
//! when the router cannot answer for the circuit alone.
//!
//! The specific half costs what is queued *now*, not what was ever
//! queued. All targeted cells of a node live in one slab (`Vec<Slot>`
//! with a free list) and each next hop's FIFO is a 12-byte
//! `{head, tail, len}` list threaded through it: a FIFO that
//! materialises allocates nothing and the slab is as long as the node's
//! peak targeted depth. The next-hop index is two parallel vectors —
//! sorted `u32` keys beside the FIFO descriptors — so a binary search
//! probes 4-byte keys; a key stays once seen (a node only ever queues
//! toward the handful of next hops its schedule connects it to, and
//! those FIFOs flip empty ↔ non-empty constantly), so entries never
//! move when a FIFO empties. In front of the index sits a 64-bit
//! summary word: bit `summary_bit(next)` is set exactly while some
//! non-empty FIFO hashes to it (a per-bit count of such FIFOs keeps it
//! exact under collisions), so most circuits that have nothing to send
//! are answered from the node header without a search: that test (the
//! summary bit, or any class-queued cell) is the inlined entry of
//! [`NodeQueues::pop_for_circuit`], and the rest of the pop is out of
//! line. The word only ever skips a search that would have found an
//! empty FIFO or none; results never depend on it.
//!
//! Class queues are one `VecDeque` per declared class, found by a
//! linear scan of the one-to-three declared ids.

use crate::cell::Cell;
use crate::router::{ClassId, Router};
use sorn_topology::NodeId;
use std::collections::VecDeque;

/// "No slot": the end of a FIFO and of the free list.
const NIL: u32 = u32::MAX;

/// One slab entry: a queued cell and the slot behind it in its FIFO
/// (or, for a vacant entry, the next vacant one).
#[derive(Debug, Clone, Copy)]
struct Slot {
    cell: Cell,
    next: u32,
}

/// One next hop's FIFO, as a list of slab slots.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// The summary-word bit a next hop maps to (multiplicative hash, top
/// six bits).
#[inline]
fn summary_bit(next: u32) -> usize {
    (next.wrapping_mul(0x9E37_79B1) >> 26) as usize
}

/// The queue set of one node.
#[derive(Debug, Clone)]
pub struct NodeQueues {
    /// Bit `b` is set exactly while `live_per_bit[b] > 0`.
    summary: u64,
    depth: usize,
    /// Cells in class queues; `depth` minus this is the targeted depth.
    class_cells: usize,
    /// Every next hop ever queued toward, ascending.
    hops: Vec<u32>,
    /// `fifos[i]` is the FIFO toward `hops[i]`.
    fifos: Vec<Fifo>,
    slab: Vec<Slot>,
    /// Head of the vacant-slot list through `slab`.
    free: u32,
    class: Vec<(ClassId, VecDeque<Cell>)>,
    /// Non-empty FIFOs per summary bit. A node has at most one FIFO per
    /// other node and node ids are `u32`, so the count cannot wrap.
    live_per_bit: [u32; 64],
}

impl NodeQueues {
    /// Creates queues for a node, with one class FIFO per router class.
    /// Specific next-hop FIFOs materialize on first push.
    pub fn new(classes: &[ClassId]) -> Self {
        NodeQueues {
            summary: 0,
            depth: 0,
            class_cells: 0,
            hops: Vec::new(),
            fifos: Vec::new(),
            slab: Vec::new(),
            free: NIL,
            class: classes.iter().map(|&c| (c, VecDeque::new())).collect(),
            live_per_bit: [0; 64],
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
        let i = match self.hops.binary_search(&next.0) {
            Ok(i) => i,
            Err(i) => {
                self.hops.insert(i, next.0);
                self.fifos.insert(i, Fifo::EMPTY);
                i
            }
        };
        let slot = if self.free != NIL {
            let slot = self.free;
            let entry = &mut self.slab[slot as usize];
            self.free = entry.next;
            *entry = Slot { cell, next: NIL };
            slot
        } else {
            assert!(
                self.slab.len() < NIL as usize,
                "more targeted cells queued at one node than slot indices"
            );
            self.slab.push(Slot { cell, next: NIL });
            (self.slab.len() - 1) as u32
        };
        let fifo = &mut self.fifos[i];
        if fifo.len == 0 {
            fifo.head = slot;
            let bit = summary_bit(next.0);
            self.live_per_bit[bit] += 1;
            self.summary |= 1 << bit;
        } else {
            self.slab[fifo.tail as usize].next = slot;
        }
        fifo.tail = slot;
        fifo.len += 1;
        self.depth += 1;
    }

    /// Enqueues a cell into a spray class.
    ///
    /// # Panics
    /// Panics if the router never declared `class` — that is a scheme bug.
    pub fn push_class(&mut self, class: ClassId, cell: Cell) {
        let (_, q) = self
            .class
            .iter_mut()
            .find(|(c, _)| *c == class)
            .unwrap_or_else(|| panic!("router routed into undeclared class {class:?}"));
        q.push_back(cell);
        self.class_cells += 1;
        self.depth += 1;
    }

    /// Pops the head of the FIFO toward `next`, whose summary bit is
    /// `bit`, if it holds a cell.
    #[inline]
    fn pop_specific(&mut self, next: u32, bit: usize) -> Option<Cell> {
        let i = self.hops.binary_search(&next).ok()?;
        let fifo = &mut self.fifos[i];
        if fifo.len == 0 {
            return None;
        }
        let slot = fifo.head;
        let entry = &mut self.slab[slot as usize];
        let cell = entry.cell;
        fifo.head = entry.next;
        fifo.len -= 1;
        entry.next = self.free;
        self.free = slot;
        if fifo.len == 0 {
            fifo.tail = NIL;
            self.live_per_bit[bit] -= 1;
            if self.live_per_bit[bit] == 0 {
                self.summary &= !(1 << bit);
            }
        }
        self.depth -= 1;
        Some(cell)
    }

    /// The header test: false when the node provably has nothing for a
    /// circuit to `to` — the summary bit for `to` is clear and no cell is
    /// class-queued — answered from the node header alone.
    #[inline]
    fn may_serve(&self, to: NodeId) -> bool {
        self.summary >> summary_bit(to.0) & 1 != 0 || self.class_cells != 0
    }

    /// Pops the cell to transmit on a circuit `from → to`, if any.
    ///
    /// The inlined entry is the header test: a circuit the node has
    /// nothing for returns `None` there, without a search or a router
    /// call. The rest is out of line. Each non-empty class queue is first
    /// asked about as a whole ([`Router::circuit_admits`]): a circuit that
    /// serves none of its cells skips it in O(1), one that serves all of
    /// them pops its head. Only when the answer depends on the cell is the
    /// queue scanned, in place, for the first cell
    /// [`Router::class_admits`] accepts. Head-of-line cells whose
    /// constraints reject `to` are skipped, not dropped, and keep their
    /// order.
    #[inline]
    pub fn pop_for_circuit<R: Router + ?Sized>(
        &mut self,
        router: &R,
        from: NodeId,
        to: NodeId,
    ) -> Option<Cell> {
        if !self.may_serve(to) {
            return None; // nothing for this circuit, no router call made
        }
        self.pop_served(router, from, to)
    }

    /// The body of [`NodeQueues::pop_for_circuit`] past the header test.
    #[inline(never)]
    fn pop_served<R: Router + ?Sized>(
        &mut self,
        router: &R,
        from: NodeId,
        to: NodeId,
    ) -> Option<Cell> {
        let bit = summary_bit(to.0);
        if self.summary >> bit & 1 != 0 {
            if let Some(cell) = self.pop_specific(to.0, bit) {
                return Some(cell);
            }
        }
        if self.class_cells == 0 {
            return None;
        }
        for (class, q) in &mut self.class {
            if q.is_empty() {
                continue;
            }
            let cell = match router.circuit_admits(*class, from, to) {
                Some(false) => None,
                Some(true) => q.pop_front(),
                None => q
                    .iter()
                    .position(|cell| router.class_admits(*class, cell, from, to))
                    .and_then(|i| q.remove(i)),
            };
            if cell.is_some() {
                self.class_cells -= 1;
                self.depth -= 1;
                return cell;
            }
        }
        None
    }

    /// The cells of one specific FIFO, front to back.
    fn fifo_cells(&self, fifo: &Fifo) -> impl Iterator<Item = &Cell> {
        let mut at = fifo.head;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let entry = &self.slab[at as usize];
            at = entry.next;
            Some(&entry.cell)
        })
    }

    /// Drains every queued cell (used when re-routing after a schedule
    /// update). The order is part of the contract — the caller re-routes
    /// in it and draws from the node's RNG per cell: specific FIFOs in
    /// ascending next-hop order, each front to back, then class queues
    /// in declaration order, each front to back.
    pub fn drain_all(&mut self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.depth);
        for fifo in &self.fifos {
            out.extend(self.fifo_cells(fifo).copied());
        }
        self.fifos.fill(Fifo::EMPTY);
        self.slab.clear();
        self.free = NIL;
        self.summary = 0;
        self.live_per_bit = [0; 64];
        for (_, q) in &mut self.class {
            out.extend(q.drain(..));
        }
        self.class_cells = 0;
        self.depth = 0;
        out
    }

    /// Iterates every queued cell together with the specific next hop it
    /// waits for (`None` for class-queued cells). Order is unspecified;
    /// use for whole-queue accounting, not replay.
    pub fn iter_cells(&self) -> impl Iterator<Item = (Option<NodeId>, &Cell)> {
        self.hops
            .iter()
            .zip(&self.fifos)
            .flat_map(|(&k, fifo)| self.fifo_cells(fifo).map(move |c| (Some(NodeId(k)), c)))
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
    /// in this order, which reproduces each FIFO byte-for-byte (and
    /// rebuilds the slab, index and summary word, none of which is
    /// checkpointed).
    #[allow(clippy::type_complexity)]
    pub(crate) fn export_cells(&self) -> (Vec<(u32, Vec<Cell>)>, Vec<(u16, Vec<Cell>)>) {
        let specific = self
            .hops
            .iter()
            .zip(&self.fifos)
            .filter(|(_, fifo)| fifo.len != 0)
            .map(|(&next, fifo)| (next, self.fifo_cells(fifo).copied().collect()))
            .collect();
        let class = self
            .class
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(c, q)| (c.0 as u16, q.iter().copied().collect()))
            .collect();
        (specific, class)
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
        let got = q.pop_for_circuit(&r, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(got.dst, NodeId(7));
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn class_scan_skips_inadmissible_heads() {
        let r = EvenClassRouter;
        let mut q = NodeQueues::new(r.classes());
        q.push_class(ClassId(0), cell(1)); // any cell; admissibility is on `to`
                                           // Circuit to odd node: class rejects.
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3)).is_none());
        // Circuit to even node: admitted.
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(4)).is_some());
        assert!(q.is_empty());
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
        let got = q.pop_for_circuit(&r, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(got.dst, NodeId(1));
        // ...and an inadmissible circuit in between must not reorder.
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3)).is_none());
        for want in [3, 5, 7] {
            let got = q.pop_for_circuit(&r, NodeId(0), NodeId(2)).unwrap();
            assert_eq!(got.dst, NodeId(want));
        }
        assert!(q.is_empty());
    }

    /// The queue set as it was before the slab: one `VecDeque` per next
    /// hop in a sorted `(next-hop, FIFO)` list whose emptied entries
    /// stay, and the class scan as it was before
    /// `Router::circuit_admits` (pop, test with `class_admits`, push the
    /// skipped heads back). Kept as the reference `NodeQueues` is
    /// compared against op for op.
    struct RefQueues {
        specific: Vec<(u32, VecDeque<Cell>)>,
        class: Vec<(ClassId, VecDeque<Cell>)>,
        depth: usize,
    }

    impl RefQueues {
        fn new(classes: &[ClassId]) -> Self {
            RefQueues {
                specific: Vec::new(),
                class: classes.iter().map(|&c| (c, VecDeque::new())).collect(),
                depth: 0,
            }
        }

        fn push_specific(&mut self, next: NodeId, cell: Cell) {
            match self.specific.binary_search_by_key(&next.0, |&(k, _)| k) {
                Ok(i) => self.specific[i].1.push_back(cell),
                Err(i) => self.specific.insert(i, (next.0, VecDeque::from([cell]))),
            }
            self.depth += 1;
        }

        fn push_class(&mut self, class: ClassId, cell: Cell) {
            let (_, q) = self.class.iter_mut().find(|(c, _)| *c == class).unwrap();
            q.push_back(cell);
            self.depth += 1;
        }

        fn pop_for_circuit<R: Router>(
            &mut self,
            router: &R,
            from: NodeId,
            to: NodeId,
        ) -> Option<Cell> {
            if let Ok(i) = self.specific.binary_search_by_key(&to.0, |&(k, _)| k) {
                if let Some(cell) = self.specific[i].1.pop_front() {
                    self.depth -= 1;
                    return Some(cell);
                }
            }
            let mut scratch = Vec::new();
            for (class, fifo) in &mut self.class {
                let mut admitted = None;
                for _ in 0..fifo.len() {
                    let cell = fifo.pop_front().expect("within len");
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
                    self.depth -= 1;
                    return admitted;
                }
            }
            None
        }

        fn drain_all(&mut self) -> Vec<Cell> {
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

        #[allow(clippy::type_complexity)]
        fn export_cells(&self) -> (Vec<(u32, Vec<Cell>)>, Vec<(u16, Vec<Cell>)>) {
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

        /// `(next hop, seq)` of every queued cell, sorted: `seq` is
        /// unique in these tests, so this is the cells as a multiset.
        fn cell_multiset(&self) -> Vec<(Option<u32>, u64)> {
            let mut all: Vec<_> = self
                .specific
                .iter()
                .flat_map(|(k, q)| q.iter().map(move |c| (Some(*k), c.seq)))
                .chain(
                    self.class
                        .iter()
                        .flat_map(|(_, q)| q.iter().map(|c| (None, c.seq))),
                )
                .collect();
            all.sort_unstable();
            all
        }
    }

    /// Class 0 rides any circuit, class 1 any circuit to an even node,
    /// class 2 only the circuit to the cell's own destination — one
    /// class per `circuit_admits` answer shape. Counts `class_admits`
    /// and `circuit_admits` calls apart.
    #[derive(Default)]
    struct ThreeShapeRouter {
        per_cell_calls: std::sync::atomic::AtomicUsize,
        circuit_calls: std::sync::atomic::AtomicUsize,
    }
    impl ThreeShapeRouter {
        /// Every call the router has seen, of either kind.
        fn calls(&self) -> usize {
            use std::sync::atomic::Ordering::Relaxed;
            self.per_cell_calls.load(Relaxed) + self.circuit_calls.load(Relaxed)
        }
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
            self.circuit_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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

    /// Drives `NodeQueues` and the `VecDeque`-per-next-hop reference
    /// with the same random pushes, pops and drains toward `hops`, and
    /// compares every observable after every op, over three random
    /// streams. Before every pop it checks the header test against the
    /// pop: a "no" pops nothing and calls no router, and a pop that
    /// returns a cell was a "yes". Returns how many pops the header
    /// test answered "no".
    fn drive_against_reference(hops: &[u32], ops_per_stream: u64) -> usize {
        let r = ThreeShapeRouter::default();
        let mut header_nos = 0;
        for stream in [0, 1, 3] {
            let mut rng = crate::rng::NodeRng::for_node(0x51DE, stream);
            let mut fast = NodeQueues::new(r.classes());
            let mut slow = RefQueues::new(r.classes());
            let mut pops = 0;
            let mut peak = 0;
            for seq in 0..ops_per_stream {
                let peer = NodeId(hops[rng.gen_range(hops.len() as u64) as usize]);
                // Destinations among the first hops, so the per-cell
                // class (2) has circuits that admit.
                let mut c = cell(hops[rng.gen_range(8) as usize]);
                c.seq = seq;
                match rng.gen_range(1_000) {
                    0..=149 => {
                        fast.push_specific(peer, c);
                        slow.push_specific(peer, c);
                    }
                    150..=229 => {
                        let class = ClassId(rng.gen_range(3) as u8);
                        fast.push_class(class, c);
                        slow.push_class(class, c);
                    }
                    230 => assert_eq!(fast.drain_all(), slow.drain_all(), "op {seq}"),
                    _ => {
                        let header = fast.may_serve(peer);
                        let calls = r.calls();
                        let got = fast.pop_for_circuit(&r, NodeId(9), peer);
                        if !header {
                            assert_eq!(got, None, "op {seq}: header said no");
                            assert_eq!(r.calls(), calls, "op {seq}: header said no");
                            header_nos += 1;
                        }
                        let want = slow.pop_for_circuit(&r, NodeId(9), peer);
                        assert_eq!(got, want, "op {seq}, stream {stream}");
                        pops += got.is_some() as usize;
                    }
                }
                assert_eq!(fast.depth(), slow.depth);
                assert_eq!(fast.export_cells(), slow.export_cells(), "op {seq}");
                let mut cells: Vec<_> = fast
                    .iter_cells()
                    .map(|(next, c)| (next.map(|n| n.0), c.seq))
                    .collect();
                cells.sort_unstable();
                assert_eq!(cells, slow.cell_multiset(), "op {seq}");
                peak = peak.max(fast.depth() - fast.class_cells);
                assert!(
                    fast.slab.len() <= peak,
                    "slab outgrew the peak targeted depth"
                );
            }
            assert!(
                pops > ops_per_stream as usize / 8,
                "only {pops} pops returned a cell"
            );
        }
        header_nos
    }

    #[test]
    fn pop_matches_the_rotate_scan_reference_op_for_op() {
        // 224 next hops over 64 summary bits: several share each bit.
        let hops: Vec<u32> = (0..224).collect();
        drive_against_reference(&hops, 35_000);
    }

    #[test]
    fn results_do_not_depend_on_the_summary_word() {
        // Every next hop on one summary bit: the word never says "no"
        // while anything targeted is queued, and the pops are the same.
        let hops: Vec<u32> = (0..).filter(|&h| summary_bit(h) == 17).take(200).collect();
        drive_against_reference(&hops, 8_000);
    }

    #[test]
    fn the_header_test_agrees_with_the_pop() {
        // Next hops spread over the whole id range, so the summary word
        // holds a mix of set and clear bits; the drive checks the header
        // test before every pop against all three answer shapes.
        let hops: Vec<u32> = (0..96u32).map(|i| i.wrapping_mul(44_739_243)).collect();
        let nos = drive_against_reference(&hops, 20_000);
        assert!(nos > 1_000, "only {nos} pops answered by the header");
    }

    #[test]
    fn a_shared_summary_bit_clears_only_with_its_last_fifo() {
        let r = EvenClassRouter;
        let (a, b) = (
            0u32,
            (1..).find(|&h| summary_bit(h) == summary_bit(0)).unwrap(),
        );
        let bit = 1u64 << summary_bit(a);
        let mut q = NodeQueues::new(r.classes());
        q.push_specific(NodeId(a), cell(1));
        q.push_specific(NodeId(b), cell(2));
        assert_eq!(q.summary, bit);
        // One of the two empties: the bit stays and the other still pops.
        assert_eq!(
            q.pop_for_circuit(&r, NodeId(9), NodeId(a)).unwrap().dst,
            NodeId(1)
        );
        assert!(q.pop_for_circuit(&r, NodeId(9), NodeId(a)).is_none());
        assert_eq!(q.summary, bit);
        assert_eq!(
            q.pop_for_circuit(&r, NodeId(9), NodeId(b)).unwrap().dst,
            NodeId(2)
        );
        assert_eq!(q.summary, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_are_reused() {
        let r = EvenClassRouter;
        let mut rng = crate::rng::NodeRng::for_node(0x51AB, 0);
        let mut q = NodeQueues::new(r.classes());
        let mut peak = 0;
        for seq in 0..1_000_000u64 {
            let hop = NodeId(rng.gen_range(48) as u32);
            if q.depth() < 32 && rng.gen_range(2) == 0 {
                let mut c = cell(0);
                c.seq = seq;
                q.push_specific(hop, c);
                peak = peak.max(q.depth());
            } else {
                q.pop_for_circuit(&r, NodeId(99), hop);
            }
        }
        assert!(peak >= 16, "peak depth {peak}: the cycle never filled");
        assert!(
            q.slab.len() <= peak,
            "{} slots for peak depth {peak}",
            q.slab.len()
        );
    }

    #[test]
    fn drain_all_order_is_next_hop_then_fifo_then_class_declaration() {
        let classes = [ClassId(7), ClassId(2)];
        let mut q = NodeQueues::new(&classes);
        // (queue, dst) pushed in an order that differs from drain order
        // on every axis: hops descending, classes against declaration.
        q.push_class(ClassId(2), cell(60));
        q.push_specific(NodeId(9), cell(30));
        q.push_class(ClassId(7), cell(50));
        q.push_specific(NodeId(4), cell(10));
        q.push_specific(NodeId(9), cell(31));
        q.push_specific(NodeId(4), cell(11));
        q.push_class(ClassId(2), cell(61));
        q.push_specific(NodeId(6), cell(20));
        // A pop and a push in between, so slab order ≠ FIFO order.
        let r = EvenClassRouter;
        assert_eq!(
            q.pop_for_circuit(&r, NodeId(0), NodeId(4)).unwrap().dst,
            NodeId(10)
        );
        q.push_specific(NodeId(4), cell(12));
        let order: Vec<u32> = q.drain_all().iter().map(|c| c.dst.0).collect();
        assert_eq!(order, [11, 12, 20, 30, 31, 50, 60, 61]);
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
            assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3)).is_none());
        }
        // `Some(true)`: the head pops, in order.
        for seq in 0..1_000 {
            let got = q.pop_for_circuit(&r, NodeId(0), NodeId(4)).unwrap();
            assert_eq!(got.seq, seq);
        }
        assert_eq!(q.depth(), 99_000);
        assert_eq!(r.per_cell_calls.load(Relaxed), 0);
        // A per-cell class in front of it is still scanned.
        q.push_class(ClassId(2), cell(7));
        assert!(q.pop_for_circuit(&r, NodeId(0), NodeId(3)).is_none());
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
    fn undeclared_class_between_declared_ids_panics() {
        // Class 2 sits between the declared ids 0 and 3 but was never
        // declared itself.
        let mut q = NodeQueues::new(&[ClassId(0), ClassId(3)]);
        q.push_class(ClassId(2), cell(1));
    }

    #[test]
    fn sparse_class_ids_resolve_by_scan() {
        let classes = [ClassId(7), ClassId(2)];
        let mut q = NodeQueues::new(&classes);
        q.push_class(ClassId(7), cell(1));
        q.push_class(ClassId(2), cell(2));
        q.push_class(ClassId(2), cell(3));
        let (_, class) = q.export_cells();
        let depths: Vec<(u16, usize)> = class.iter().map(|(c, q)| (*c, q.len())).collect();
        assert_eq!(depths, vec![(7, 1), (2, 2)]);
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
        assert_eq!(q.export_cells(), (vec![], vec![]));
    }
}
