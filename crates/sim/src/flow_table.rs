//! Struct-of-arrays storage for active flows.
//!
//! Each flow field is its own `Vec` indexed by slot — the transmit and
//! delivery walks touch only the columns they need — with a `u64`-word
//! liveness bitset. The `FlowId → slot` index, hit once per delivered
//! cell, is a dense direct-mapped table for the simulation-assigned id
//! range (hash spill only for outliers).
//!
//! Slots are allocated LIFO through an explicit free list. The
//! checkpoint's `FLW` section carries the slot layout and the free list
//! verbatim ([`FlowTable::encode`] / [`FlowTable::decode`]), so a
//! restored run allocates exactly the slots the uninterrupted run does.

use crate::cell::{Cell, Flow, FlowId};
use crate::config::Nanos;
use crate::engine::SimError;
use crate::hash::FastHashBuilder;
use crate::metrics::FlowRecord;
use sorn_base::bytes::{Reader, Writer};
use sorn_topology::NodeId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Flow ids below this go through the dense direct-mapped index (grown
/// on demand to the highest id seen); larger ids spill to a hash map so
/// a hostile id cannot allocate an absurd table.
const DENSE_ID_LIMIT: u64 = 1 << 22;

/// Dense-index sentinel: this id is not an active flow.
const NO_SLOT: u32 = u32::MAX;

/// Encoded bytes of one live slot in the checkpoint's `FLW` section.
const LIVE_SLOT_BYTES: usize = 57;

/// Active flows as parallel columns indexed by slot.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    ids: Vec<FlowId>,
    srcs: Vec<NodeId>,
    dsts: Vec<NodeId>,
    sizes: Vec<u64>,
    arrivals: Vec<Nanos>,
    totals: Vec<u64>,
    injected: Vec<u64>,
    delivered: Vec<u64>,
    max_hops: Vec<u8>,
    /// One bit per slot: set while the slot holds a live flow.
    live: Vec<u64>,
    /// Vacant slots, reused LIFO.
    free: Vec<u32>,
    /// `id → slot` for ids below [`DENSE_ID_LIMIT`].
    dense: Vec<u32>,
    /// `id → slot` for ids at or above [`DENSE_ID_LIMIT`].
    spill: HashMap<u64, u32, FastHashBuilder>,
    live_count: usize,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of live (indexed) flows.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    pub(crate) fn is_live(&self, slot: usize) -> bool {
        self.live
            .get(slot / 64)
            .is_some_and(|w| w & (1u64 << (slot % 64)) != 0)
    }

    fn index_get(&self, id: FlowId) -> Option<usize> {
        if id.0 < DENSE_ID_LIMIT {
            match self.dense.get(id.0 as usize) {
                Some(&s) if s != NO_SLOT => Some(s as usize),
                _ => None,
            }
        } else {
            self.spill.get(&id.0).map(|&s| s as usize)
        }
    }

    /// Points `id` at `slot`; returns `false`, changing nothing, when
    /// the id already names a live flow.
    fn index_set(&mut self, id: FlowId, slot: u32) -> bool {
        if id.0 < DENSE_ID_LIMIT {
            let i = id.0 as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, NO_SLOT);
            }
            if self.dense[i] != NO_SLOT {
                return false;
            }
            self.dense[i] = slot;
            true
        } else {
            match self.spill.entry(id.0) {
                Entry::Occupied(_) => false,
                Entry::Vacant(e) => {
                    e.insert(slot);
                    true
                }
            }
        }
    }

    fn index_remove(&mut self, id: FlowId) {
        if id.0 < DENSE_ID_LIMIT {
            if let Some(s) = self.dense.get_mut(id.0 as usize) {
                *s = NO_SLOT;
            }
        } else {
            self.spill.remove(&id.0);
        }
    }

    /// Appends one vacant slot to every column.
    fn push_vacant(&mut self) {
        let s = self.ids.len();
        self.ids.push(FlowId(0));
        self.srcs.push(NodeId(0));
        self.dsts.push(NodeId(0));
        self.sizes.push(0);
        self.arrivals.push(0);
        self.totals.push(0);
        self.injected.push(0);
        self.delivered.push(0);
        self.max_hops.push(0);
        if s / 64 == self.live.len() {
            self.live.push(0);
        }
    }

    /// Admits a newly arrived flow; returns its slot (reused LIFO from
    /// the free list, else appended). An id may be reused once its
    /// flow has completed, but not while it is live.
    pub fn insert(&mut self, flow: &Flow, total_cells: u64) -> Result<usize, SimError> {
        let slot = self.free.last().map_or(self.ids.len(), |&s| s as usize);
        if !self.index_set(flow.id, slot as u32) {
            return Err(SimError::DuplicateFlowId { flow: flow.id });
        }
        if self.free.pop().is_none() {
            self.push_vacant();
        }
        self.ids[slot] = flow.id;
        self.srcs[slot] = flow.src;
        self.dsts[slot] = flow.dst;
        self.sizes[slot] = flow.size_bytes;
        self.arrivals[slot] = flow.arrival_ns;
        self.totals[slot] = total_cells;
        self.injected[slot] = 0;
        self.delivered[slot] = 0;
        self.max_hops[slot] = 0;
        self.live[slot / 64] |= 1u64 << (slot % 64);
        self.live_count += 1;
        Ok(slot)
    }

    /// Builds the next cell of the flow in `slot` (injection path);
    /// returns it with `true` when this was the flow's last cell.
    #[inline]
    pub fn next_cell(&mut self, slot: usize, now: Nanos) -> (Cell, bool) {
        debug_assert!(self.is_live(slot), "injecting from a vacant slot");
        let cell = Cell {
            flow: self.ids[slot],
            seq: self.injected[slot],
            src: self.srcs[slot],
            dst: self.dsts[slot],
            injected_ns: now,
            hops: 0,
            tag: 0,
        };
        self.injected[slot] += 1;
        (cell, self.injected[slot] >= self.totals[slot])
    }

    /// Counts one delivered cell against its flow; returns the
    /// completion record when this delivery finished the flow (the slot
    /// is freed and the id unindexed). `None` for unknown ids (a cell
    /// of an already-completed or never-admitted flow) and for flows
    /// still in progress, exactly like the map lookup it replaces.
    #[inline]
    pub fn record_delivery(&mut self, id: FlowId, hops: u8, now: Nanos) -> Option<FlowRecord> {
        let slot = self.index_get(id)?;
        self.delivered[slot] += 1;
        self.max_hops[slot] = self.max_hops[slot].max(hops);
        if self.delivered[slot] < self.totals[slot] {
            return None;
        }
        self.live[slot / 64] &= !(1u64 << (slot % 64));
        self.free.push(slot as u32);
        self.index_remove(id);
        self.live_count -= 1;
        Some(FlowRecord {
            id,
            size_bytes: self.sizes[slot],
            arrival_ns: self.arrivals[slot],
            completion_ns: now,
            max_hops: self.max_hops[slot],
        })
    }

    /// Live flows' `(id, src, dst)`, in slot order.
    pub(crate) fn endpoints(&self) -> impl Iterator<Item = (FlowId, NodeId, NodeId)> + '_ {
        (0..self.ids.len())
            .filter(|&s| self.is_live(s))
            .map(|s| (self.ids[s], self.srcs[s], self.dsts[s]))
    }

    /// Writes the table as the checkpoint's `FLW` table: the slot count,
    /// the free list (stack bottom first), then every live slot's
    /// columns in slot order. Vacant slots are exactly the free list.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64(self.ids.len() as u64);
        out.put_u64(self.free.len() as u64);
        for &s in &self.free {
            out.put_u32(s);
        }
        for s in (0..self.ids.len()).filter(|&s| self.is_live(s)) {
            out.put_u64(self.ids[s].0);
            out.put_u32(self.srcs[s].0);
            out.put_u32(self.dsts[s].0);
            out.put_u64(self.sizes[s]);
            out.put_u64(self.arrivals[s]);
            out.put_u64(self.totals[s]);
            out.put_u64(self.injected[s]);
            out.put_u64(self.delivered[s]);
            out.put_u8(self.max_hops[s]);
        }
    }

    /// The inverse of [`FlowTable::encode`]. Rejects a free list that
    /// names a slot twice or out of range, and two live slots with one
    /// id; the rebuilt table allocates exactly as the encoded one did.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<FlowTable, String> {
        let slots = r.u64()?;
        let free = r.vec("FLW free list", 4, Reader::u32)?;
        let live = slots
            .checked_sub(free.len() as u64)
            .ok_or_else(|| format!("FLW: {} free slots of {slots}", free.len()))?;
        if live > (r.remaining() / LIVE_SLOT_BYTES) as u64 {
            return Err(format!("FLW: {live} live slots exceed the bytes remaining"));
        }
        let mut table = FlowTable::default();
        for s in 0..slots as usize {
            table.push_vacant();
            table.live[s / 64] |= 1u64 << (s % 64);
        }
        for &s in &free {
            if !table.is_live(s as usize) {
                return Err(format!("FLW: free-list entry {s} is not a vacant slot"));
            }
            table.live[s as usize / 64] &= !(1u64 << (s % 64));
        }
        table.free = free;
        for s in 0..slots as usize {
            if !table.is_live(s) {
                continue;
            }
            let id = FlowId(r.u64()?);
            if !table.index_set(id, s as u32) {
                return Err(format!("FLW: flow {id:?} occupies two slots"));
            }
            table.ids[s] = id;
            table.srcs[s] = NodeId(r.u32()?);
            table.dsts[s] = NodeId(r.u32()?);
            table.sizes[s] = r.u64()?;
            table.arrivals[s] = r.u64()?;
            table.totals[s] = r.u64()?;
            table.injected[s] = r.u64()?;
            table.delivered[s] = r.u64()?;
            table.max_hops[s] = r.u8()?;
        }
        table.live_count = live as usize;
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(id: u64) -> Flow {
        Flow {
            id: FlowId(id),
            src: NodeId(1),
            dst: NodeId(2),
            size_bytes: 2500,
            arrival_ns: 7,
        }
    }

    #[test]
    fn slots_recycle_lifo_and_records_are_per_flow() {
        let mut t = FlowTable::new();
        let s0 = t.insert(&flow(10), 2).unwrap();
        assert_eq!(s0, 0);
        assert_eq!(t.live_count(), 1);
        let (c, done) = t.next_cell(s0, 100);
        assert_eq!((c.flow, c.seq, done), (FlowId(10), 0, false));
        let (c, done) = t.next_cell(s0, 200);
        assert_eq!((c.seq, done), (1, true));
        assert!(t.record_delivery(FlowId(10), 1, 300).is_none());
        let rec = t.record_delivery(FlowId(10), 3, 400).expect("complete");
        assert_eq!(
            (rec.id, rec.completion_ns, rec.max_hops),
            (FlowId(10), 400, 3)
        );
        assert_eq!(t.live_count(), 0);
        // The freed slot is reused for the next flow, LIFO.
        assert_eq!(t.insert(&flow(20), 1), Ok(0));
        // Unknown / completed ids are ignored, not misattributed.
        assert!(t.record_delivery(FlowId(10), 1, 500).is_none());
    }

    #[test]
    fn a_live_id_is_refused_and_a_completed_one_reused() {
        for id in [5, DENSE_ID_LIMIT + 5] {
            let mut t = FlowTable::new();
            let s = t.insert(&flow(id), 1).unwrap();
            let dup = SimError::DuplicateFlowId { flow: FlowId(id) };
            assert_eq!(t.insert(&flow(id), 1), Err(dup));
            assert_eq!(t.live_count(), 1, "the refused flow took no slot");
            t.next_cell(s, 0);
            t.record_delivery(FlowId(id), 1, 9).expect("complete");
            assert_eq!(t.insert(&flow(id), 1), Ok(s));
        }
    }

    #[test]
    fn spill_ids_resolve_like_dense_ones() {
        let mut t = FlowTable::new();
        let big = DENSE_ID_LIMIT + 17;
        let s = t.insert(&flow(big), 1).unwrap();
        t.next_cell(s, 0);
        let rec = t.record_delivery(FlowId(big), 2, 9).expect("complete");
        assert_eq!(rec.id, FlowId(big));
        assert_eq!(t.live_count(), 0);
    }

    fn encoded(t: &FlowTable) -> Vec<u8> {
        let mut out = Vec::new();
        t.encode(&mut out);
        out
    }

    fn decoded(bytes: &[u8]) -> Result<FlowTable, String> {
        let mut r = Reader::new(bytes);
        let t = FlowTable::decode(&mut r)?;
        r.finish("FLW")?;
        Ok(t)
    }

    #[test]
    fn flw_round_trip_preserves_layout() {
        let mut t = FlowTable::new();
        for id in 1..=66 {
            t.insert(&flow(id), 4).unwrap();
        }
        for id in [2, 65] {
            let s = t.index_get(FlowId(id)).unwrap();
            for _ in 0..4 {
                t.next_cell(s, 0);
                t.record_delivery(FlowId(id), 1, 50);
            }
        }
        let bytes = encoded(&t);
        let mut rebuilt = decoded(&bytes).unwrap();
        assert_eq!(rebuilt.live_count(), 64);
        assert_eq!(encoded(&rebuilt), bytes, "re-encoding is byte-stable");
        assert_eq!(rebuilt.endpoints().count(), 64);
        assert!(!rebuilt.is_live(64) && rebuilt.is_live(65) && !rebuilt.is_live(66));
        // The rebuilt table allocates the vacant slots next, LIFO.
        assert_eq!(rebuilt.insert(&flow(90), 1), Ok(64));
        assert_eq!(rebuilt.insert(&flow(91), 1), Ok(1));
        assert_eq!(rebuilt.insert(&flow(92), 1), Ok(66));
        assert_eq!(rebuilt.index_get(FlowId(66)), Some(65));
    }

    #[test]
    fn flw_rejects_a_bad_free_list_or_a_shared_id() {
        let mut t = FlowTable::new();
        for id in [1, 2, 3] {
            t.insert(&flow(id), 4).unwrap();
        }
        let bytes = encoded(&t);
        // slots 3 | free count 0 | three live slots of 57 bytes.
        let first_id = 16;
        let mut shared = bytes.clone();
        shared[first_id + 57] = 1;
        let err = decoded(&shared).unwrap_err();
        assert!(err.contains("occupies two slots"), "{err}");
        // One free entry naming a live slot twice over, and one out of
        // range: the counts are rewritten so only the entry is wrong.
        for entry in [1u32, 7] {
            let mut out = Vec::new();
            out.put_u64(4);
            out.put_u64(2);
            out.put_u32(entry);
            out.put_u32(1);
            out.extend_from_slice(&bytes[first_id..first_id + 2 * 57]);
            let err = decoded(&out).unwrap_err();
            assert!(err.contains("not a vacant slot"), "{err}");
        }
        for len in 0..bytes.len() {
            assert!(decoded(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }
}
