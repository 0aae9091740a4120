//! A probe that counts hook invocations.

use sorn_sim::{Cell, FaultView, Flow, FlowRecord, Nanos, Probe, SkipView, SlotView};
use sorn_topology::NodeId;

/// Counts every probe callback — the cheapest way to verify that the
/// engine fires its hooks (tests) or to sanity-check event volumes
/// before attaching a real trace sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// `on_slot_end` invocations.
    pub slots: u64,
    /// `on_delivery` invocations.
    pub deliveries: u64,
    /// `on_drop` invocations.
    pub drops: u64,
    /// `on_flow_start` invocations.
    pub flow_starts: u64,
    /// `on_flow_finish` invocations.
    pub flow_finishes: u64,
    /// `on_reconfiguration` invocations.
    pub reconfigurations: u64,
    /// `on_fault` invocations.
    pub faults: u64,
    /// `on_run_end` invocations.
    pub run_ends: u64,
    /// `on_slots_skipped` invocations (batched quiet spans).
    pub skip_spans: u64,
    /// Slots covered by those spans; `slots + skipped_slots` is every
    /// slot the run advanced.
    pub skipped_slots: u64,
}

impl CountingProbe {
    /// A probe with all counters at zero.
    pub fn new() -> Self {
        CountingProbe::default()
    }
}

impl Probe for CountingProbe {
    fn on_slot_end(&mut self, _view: &SlotView<'_>) {
        self.slots += 1;
    }
    fn on_delivery(&mut self, _cell: &Cell, _latency_ns: Nanos, _now_ns: Nanos) {
        self.deliveries += 1;
    }
    fn on_drop(&mut self, _cell: &Cell, _node: NodeId, _now_ns: Nanos) {
        self.drops += 1;
    }
    fn on_flow_start(&mut self, _flow: &Flow, _now_ns: Nanos) {
        self.flow_starts += 1;
    }
    fn on_flow_finish(&mut self, _record: &FlowRecord, _now_ns: Nanos) {
        self.flow_finishes += 1;
    }
    fn on_reconfiguration(&mut self, _slot: u64, _now_ns: Nanos) {
        self.reconfigurations += 1;
    }
    fn on_fault(&mut self, _view: &FaultView<'_>) {
        self.faults += 1;
    }
    fn on_run_end(&mut self, _view: &SlotView<'_>) {
        self.run_ends += 1;
    }
    fn on_slots_skipped(&mut self, view: &SkipView<'_>) {
        self.skip_spans += 1;
        self.skipped_slots += view.skipped;
    }
}
