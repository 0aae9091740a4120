//! Instrumentation hooks for the simulation engine.
//!
//! The engine is generic over a [`Probe`] — a set of callbacks invoked at
//! the interesting points of a run: slot boundaries, cell delivery and
//! drop, flow start and finish, and schedule reconfiguration. The default
//! probe is [`NoopProbe`], whose empty inlined methods compile away
//! entirely, so uninstrumented simulations pay nothing for the hooks.
//!
//! Concrete probes (samplers, trace writers) live in `sorn-telemetry`;
//! this module only defines the contract so the engine stays free of any
//! serialization dependency.

use crate::cell::{Cell, Flow};
use crate::config::Nanos;
use crate::fault::FaultView;
use crate::metrics::{FlowRecord, Metrics};
use crate::queues::NodeQueues;
use crate::trace::HopEvent;
use sorn_topology::NodeId;

/// A read-only view of engine state handed to slot-boundary hooks.
///
/// The view borrows the engine's live [`Metrics`], so a probe can sample
/// any aggregate counter without the engine copying state it may not
/// need.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    /// The slot that just completed (1-based: after the first slot this
    /// is 1, matching [`Metrics::slots`]).
    pub slot: u64,
    /// Start time of the slot that just completed.
    pub now_ns: Nanos,
    /// Aggregate metrics as of the end of the slot.
    pub metrics: &'a Metrics,
    /// Cells sitting in node queues right now.
    pub total_queued: usize,
    /// Cells propagating on circuits right now.
    pub inflight_cells: usize,
    /// Flows started but not yet fully delivered.
    pub active_flows: usize,
    /// Per-node queue sets, indexed by node id, for probes that need
    /// depth at finer grain than `total_queued`. May be empty when a
    /// view is synthesized outside the engine (tests, adapters).
    pub queues: &'a [NodeQueues],
}

/// A batch of provably-quiet slots the engine fast-forwarded over in
/// one jump (see `Engine::advance_to`).
///
/// `end` is exactly the [`SlotView`] the final slot of the span would
/// have produced through [`Probe::on_slot_end`]. The earlier slots in
/// the span were identical except for their slot number and start time:
/// slot `s` (for `s` in `end.slot - skipped + 1 ..= end.slot`) would
/// have seen `slot: s, now_ns: (s - 1) * slot_ns` and the same metrics
/// save for `slots`, `slots_skipped`, and `idle_circuit_slots`. A probe
/// that needs per-slot resolution can reconstruct every intermediate
/// view from these three fields without the engine walking the gap.
#[derive(Debug, Clone, Copy)]
pub struct SkipView<'a> {
    /// The view of the last slot in the skipped span, as
    /// [`Probe::on_slot_end`] would have delivered it.
    pub end: SlotView<'a>,
    /// How many slots the span covered (≥ 2; single quiet slots still go
    /// through [`Probe::on_slot_end`]).
    pub skipped: u64,
    /// Slot duration, for reconstructing intermediate `now_ns` values.
    pub slot_ns: Nanos,
}

/// Callbacks invoked by the engine as a simulation runs.
///
/// Every method has an empty default body, so a probe implements only
/// the events it cares about. The engine is monomorphized per probe
/// type; with [`NoopProbe`] the calls vanish at compile time.
///
/// **Hook order.** Each routing pass — the arrivals of a slot, its
/// injections, and `Engine::reroute_queued` — fires its hooks after
/// routing, shard by shard in node order: the shard's
/// [`Probe::on_hop`] events, then its [`Probe::on_delivery`] calls,
/// then its [`Probe::on_drop`] calls; once every shard has merged,
/// [`Probe::on_flow_finish`] for the flows the pass completed. A slot
/// runs: fault events ([`Probe::on_fault`]), the arrival pass, flow
/// starts ([`Probe::on_flow_start`]), the injection pass, the transmit
/// walk ([`Probe::on_hop`] then [`Probe::on_transmit`] per shard), and
/// the slot end ([`Probe::on_slot_end`], or
/// [`Probe::on_slots_skipped`] for a quiet gap of two or more slots).
pub trait Probe {
    /// Called at the end of every slot, after transmission and metric
    /// updates for that slot have completed.
    fn on_slot_end(&mut self, _view: &SlotView<'_>) {}

    /// Called instead of per-slot [`Probe::on_slot_end`] when the engine
    /// fast-forwards a span of quiet slots in one jump. The default
    /// delivers only the span's final view, which is exact for probes
    /// that sample the latest state; probes that accumulate per-slot
    /// state must override this to account for the whole span (every
    /// intermediate view is reconstructible from the [`SkipView`]).
    fn on_slots_skipped(&mut self, view: &SkipView<'_>) {
        self.on_slot_end(&view.end);
    }

    /// The next simulated time at which this probe must observe a slot
    /// boundary individually rather than as part of a batched span —
    /// e.g. an interval sampler's next mark. `Engine::advance_to`
    /// never jumps past the first slot whose end view reaches this
    /// time, so a probe returning its mark here sees exactly the views
    /// per-slot stepping would have delivered at every mark. `None`
    /// (the default) means any span may be batched.
    fn next_boundary_ns(&self) -> Option<Nanos> {
        None
    }

    /// Called when a cell reaches its destination. `latency_ns` is the
    /// injection-to-delivery time of the cell.
    fn on_delivery(&mut self, _cell: &Cell, _latency_ns: Nanos, _now_ns: Nanos) {}

    /// Called when a cell is dropped at `node` because the node's queues
    /// are at the configured cap.
    fn on_drop(&mut self, _cell: &Cell, _node: NodeId, _now_ns: Nanos) {}

    /// Called once per cell transmission: `cell` left `from` on the
    /// circuit to `to` during the slot starting at `now_ns`. Fires on
    /// the merge thread in the engine's canonical `(node, uplink)`
    /// order, so the stream is byte-identical at any thread count.
    /// Unlike [`Probe::on_hop`] this fires for *every* cell, not just
    /// traced ones — it is the feed for link/port accounting probes.
    fn on_transmit(&mut self, _cell: &Cell, _from: NodeId, _to: NodeId, _now_ns: Nanos) {}

    /// Called when a flow arrives and begins injecting cells.
    fn on_flow_start(&mut self, _flow: &Flow, _now_ns: Nanos) {}

    /// Called when the last cell of a flow is delivered.
    fn on_flow_finish(&mut self, _record: &FlowRecord, _now_ns: Nanos) {}

    /// Called when a new circuit schedule is installed mid-run (the §5
    /// update operation). `slot` is the slot at which the swap happens.
    fn on_reconfiguration(&mut self, _slot: u64, _now_ns: Nanos) {}

    /// Called when a scripted [`FaultEvent`](crate::FaultEvent) from the
    /// engine's fault plan takes effect at a slot boundary.
    fn on_fault(&mut self, _view: &FaultView<'_>) {}

    /// Called once when the driver declares the run over (see
    /// `Engine::finish`). Probes that buffer state should emit their
    /// final snapshot here.
    fn on_run_end(&mut self, _view: &SlotView<'_>) {}

    /// Called for every span of a traced cell's journey when causal
    /// flow tracing is on (`SimConfig::trace_one_in > 0`). Events
    /// arrive in the engine's canonical order — node-ascending within
    /// each pass — so the stream is byte-identical at any thread count.
    /// Never called when tracing is off.
    fn on_hop(&mut self, _event: &HopEvent) {}
}

/// The default probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// Forwarding impl so callers can hand the engine `&mut probe` and keep
/// ownership (e.g. to inspect the probe after the run without
/// `Engine::finish`).
impl<P: Probe> Probe for &mut P {
    fn on_slot_end(&mut self, view: &SlotView<'_>) {
        (**self).on_slot_end(view);
    }
    fn on_slots_skipped(&mut self, view: &SkipView<'_>) {
        (**self).on_slots_skipped(view);
    }
    fn next_boundary_ns(&self) -> Option<Nanos> {
        (**self).next_boundary_ns()
    }
    fn on_delivery(&mut self, cell: &Cell, latency_ns: Nanos, now_ns: Nanos) {
        (**self).on_delivery(cell, latency_ns, now_ns);
    }
    fn on_drop(&mut self, cell: &Cell, node: NodeId, now_ns: Nanos) {
        (**self).on_drop(cell, node, now_ns);
    }
    fn on_transmit(&mut self, cell: &Cell, from: NodeId, to: NodeId, now_ns: Nanos) {
        (**self).on_transmit(cell, from, to, now_ns);
    }
    fn on_flow_start(&mut self, flow: &Flow, now_ns: Nanos) {
        (**self).on_flow_start(flow, now_ns);
    }
    fn on_flow_finish(&mut self, record: &FlowRecord, now_ns: Nanos) {
        (**self).on_flow_finish(record, now_ns);
    }
    fn on_reconfiguration(&mut self, slot: u64, now_ns: Nanos) {
        (**self).on_reconfiguration(slot, now_ns);
    }
    fn on_fault(&mut self, view: &FaultView<'_>) {
        (**self).on_fault(view);
    }
    fn on_run_end(&mut self, view: &SlotView<'_>) {
        (**self).on_run_end(view);
    }
    fn on_hop(&mut self, event: &HopEvent) {
        (**self).on_hop(event);
    }
}

/// Pairs two probes into one: every hook fires on `A` first, then `B`.
/// Nest tuples to stack any number of observers on one engine without a
/// bespoke combinator type — `(live, (tracer, recorder))`.
impl<A: Probe, B: Probe> Probe for (A, B) {
    fn on_slot_end(&mut self, view: &SlotView<'_>) {
        self.0.on_slot_end(view);
        self.1.on_slot_end(view);
    }
    fn on_slots_skipped(&mut self, view: &SkipView<'_>) {
        self.0.on_slots_skipped(view);
        self.1.on_slots_skipped(view);
    }
    fn next_boundary_ns(&self) -> Option<Nanos> {
        match (self.0.next_boundary_ns(), self.1.next_boundary_ns()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
    fn on_delivery(&mut self, cell: &Cell, latency_ns: Nanos, now_ns: Nanos) {
        self.0.on_delivery(cell, latency_ns, now_ns);
        self.1.on_delivery(cell, latency_ns, now_ns);
    }
    fn on_drop(&mut self, cell: &Cell, node: NodeId, now_ns: Nanos) {
        self.0.on_drop(cell, node, now_ns);
        self.1.on_drop(cell, node, now_ns);
    }
    fn on_transmit(&mut self, cell: &Cell, from: NodeId, to: NodeId, now_ns: Nanos) {
        self.0.on_transmit(cell, from, to, now_ns);
        self.1.on_transmit(cell, from, to, now_ns);
    }
    fn on_flow_start(&mut self, flow: &Flow, now_ns: Nanos) {
        self.0.on_flow_start(flow, now_ns);
        self.1.on_flow_start(flow, now_ns);
    }
    fn on_flow_finish(&mut self, record: &FlowRecord, now_ns: Nanos) {
        self.0.on_flow_finish(record, now_ns);
        self.1.on_flow_finish(record, now_ns);
    }
    fn on_reconfiguration(&mut self, slot: u64, now_ns: Nanos) {
        self.0.on_reconfiguration(slot, now_ns);
        self.1.on_reconfiguration(slot, now_ns);
    }
    fn on_fault(&mut self, view: &FaultView<'_>) {
        self.0.on_fault(view);
        self.1.on_fault(view);
    }
    fn on_run_end(&mut self, view: &SlotView<'_>) {
        self.0.on_run_end(view);
        self.1.on_run_end(view);
    }
    fn on_hop(&mut self, event: &HopEvent) {
        self.0.on_hop(event);
        self.1.on_hop(event);
    }
}
