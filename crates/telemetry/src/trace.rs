//! Causal flow tracing: collection, latency attribution, and Chrome
//! `trace_event` export.
//!
//! The engine emits [`HopEvent`]s for a deterministic sampled subset of
//! flows (see `SimConfig::trace_one_in`); [`FlowTraceCollector`] buffers
//! them in arrival order — which is the engine's canonical order, so the
//! buffer is byte-identical at any `engine_threads`. From the buffer it
//! derives:
//!
//! - per-cell latency attribution ([`CellBreakdown`]): how much of each
//!   traced cell's life was *reconfiguration wait* (the schedule-implied
//!   minimum until the chosen circuit came up), *queueing* (extra time
//!   in queue beyond that — contention), and *transmission*
//!   (slot + propagation per hop);
//! - a Chrome `trace_event` JSON document
//!   ([`FlowTraceCollector::chrome_trace_json`]) loadable in
//!   `chrome://tracing` / Perfetto, one process per flow, one track per
//!   cell;
//!
//! All serialization is hand-rolled integer formatting, so the exported
//! bytes are identical across platforms and runs.

use sorn_base::bytes::{Reader, Writer};
use sorn_sim::{FlowId, HopEvent, HopKind, Nanos, Probe, CIRCUIT_NEVER};
use sorn_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Latency attribution of one traced cell, summed over its hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellBreakdown {
    /// The flow the cell belongs to.
    pub flow: u64,
    /// Cell sequence number within the flow.
    pub seq: u64,
    /// Injection time.
    pub injected_ns: Nanos,
    /// Injection-to-delivery latency; `None` for cells still in flight
    /// or dropped when the run ended.
    pub latency_ns: Option<Nanos>,
    /// Time spent queued beyond the schedule-implied minimum
    /// (contention with other traffic).
    pub queue_ns: Nanos,
    /// Schedule-implied wait for chosen circuits to come up — the
    /// reconfiguration tax of the rotation.
    pub reconfig_wait_ns: Nanos,
    /// Time on the wire (delivery latency minus the two waits).
    pub transmit_ns: Nanos,
    /// Hops taken.
    pub hops: u8,
    /// True when the cell was dropped.
    pub dropped: bool,
}

/// A probe that buffers the hop events of traced flows.
///
/// `slot_ns` must match the simulation's `SimConfig::slot_ns`; it
/// converts the schedule's slot-denominated circuit waits into
/// nanoseconds during attribution.
#[derive(Debug, Clone, Default)]
pub struct FlowTraceCollector {
    slot_ns: Nanos,
    events: Vec<HopEvent>,
}

impl FlowTraceCollector {
    /// A collector for a run with the given slot length.
    pub fn new(slot_ns: Nanos) -> Self {
        FlowTraceCollector {
            slot_ns,
            events: Vec::new(),
        }
    }

    /// The buffered events, in the engine's canonical emission order.
    pub fn events(&self) -> &[HopEvent] {
        &self.events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One line per event in [`HopEvent::render`] form — the byte
    /// format the determinism tests golden-compare across thread
    /// counts.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }

    /// Serializes the collector (slot length + buffered events, in
    /// order) so a resumed process reproduces every rendering —
    /// `render_all`, breakdowns, Chrome JSON — byte-for-byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 40);
        out.put_u64(self.slot_ns);
        out.put_u64(self.events.len() as u64);
        for ev in &self.events {
            out.put_u64(ev.flow.0);
            out.put_u64(ev.seq);
            out.put_u32(ev.node.0);
            out.put_u64(ev.at_ns);
            out.put_u64(ev.injected_ns);
            out.put_u8(ev.hops);
            match ev.kind {
                HopKind::Enqueue {
                    next,
                    depth,
                    circuit_wait_slots,
                } => {
                    out.put_u8(0);
                    out.put_bool(next.is_some());
                    out.put_u32(next.map_or(0, |n| n.0));
                    out.put_u64(depth as u64);
                    out.put_u32(circuit_wait_slots);
                }
                HopKind::Transmit { to, depth_after } => {
                    out.put_u8(1);
                    out.put_u32(to.0);
                    out.put_u64(depth_after as u64);
                }
                HopKind::Deliver { latency_ns } => {
                    out.put_u8(2);
                    out.put_u64(latency_ns);
                }
                HopKind::Drop => out.put_u8(3),
            }
        }
        out
    }

    /// Rebuilds a collector from [`FlowTraceCollector::to_bytes`]
    /// output. Returns a description of the problem on malformed input
    /// (never panics).
    pub fn from_bytes(bytes: &[u8]) -> Result<FlowTraceCollector, String> {
        Self::decode(&mut Reader::new(bytes)).map_err(|e| format!("trace blob {e}"))
    }

    fn decode(r: &mut Reader<'_>) -> Result<FlowTraceCollector, String> {
        let slot_ns = r.u64()?;
        let events = r.vec("event", 30, |r| {
            Ok(HopEvent {
                flow: FlowId(r.u64()?),
                seq: r.u64()?,
                node: NodeId(r.u32()?),
                at_ns: r.u64()?,
                injected_ns: r.u64()?,
                hops: r.u8()?,
                kind: match r.u8()? {
                    0 => {
                        let has_next = r.bool()?;
                        let next = NodeId(r.u32()?);
                        HopKind::Enqueue {
                            next: has_next.then_some(next),
                            depth: r.u64()? as usize,
                            circuit_wait_slots: r.u32()?,
                        }
                    }
                    1 => HopKind::Transmit {
                        to: NodeId(r.u32()?),
                        depth_after: r.u64()? as usize,
                    },
                    2 => HopKind::Deliver {
                        latency_ns: r.u64()?,
                    },
                    3 => HopKind::Drop,
                    tag => return Err(format!("has unknown hop tag {tag}")),
                },
            })
        })?;
        r.finish("payload")?;
        Ok(FlowTraceCollector { slot_ns, events })
    }

    /// Per-cell latency attribution, keyed `(flow, seq)` in ascending
    /// order.
    ///
    /// Per hop: the wall between enqueue and transmit is split into the
    /// schedule-implied minimum (`circuit_wait_slots × slot_ns`, capped
    /// by the actual wall — reconfiguration wait) and the remainder
    /// (queueing). A delivered cell's transmission time is its total
    /// latency minus both waits.
    pub fn cell_breakdowns(&self) -> Vec<CellBreakdown> {
        #[derive(Default)]
        struct Agg {
            injected_ns: Nanos,
            pending_enqueue: Option<(Nanos, u32)>,
            queue_ns: Nanos,
            reconfig_ns: Nanos,
            latency_ns: Option<Nanos>,
            hops: u8,
            dropped: bool,
        }
        let mut cells: BTreeMap<(u64, u64), Agg> = BTreeMap::new();
        for ev in &self.events {
            let agg = cells.entry((ev.flow.0, ev.seq)).or_default();
            agg.injected_ns = ev.injected_ns;
            agg.hops = agg.hops.max(ev.hops);
            match ev.kind {
                HopKind::Enqueue {
                    circuit_wait_slots, ..
                } => agg.pending_enqueue = Some((ev.at_ns, circuit_wait_slots)),
                HopKind::Transmit { .. } => {
                    if let Some((enq_ns, wait_slots)) = agg.pending_enqueue.take() {
                        let wall = ev.at_ns.saturating_sub(enq_ns);
                        let reconfig = if wait_slots == CIRCUIT_NEVER {
                            wall
                        } else {
                            (wait_slots as Nanos * self.slot_ns).min(wall)
                        };
                        agg.reconfig_ns += reconfig;
                        agg.queue_ns += wall - reconfig;
                    }
                }
                HopKind::Deliver { latency_ns } => agg.latency_ns = Some(latency_ns),
                HopKind::Drop => agg.dropped = true,
            }
        }
        cells
            .into_iter()
            .map(|((flow, seq), a)| {
                let transmit_ns = a
                    .latency_ns
                    .map(|l| l.saturating_sub(a.queue_ns + a.reconfig_ns))
                    .unwrap_or(0);
                CellBreakdown {
                    flow,
                    seq,
                    injected_ns: a.injected_ns,
                    latency_ns: a.latency_ns,
                    queue_ns: a.queue_ns,
                    reconfig_wait_ns: a.reconfig_ns,
                    transmit_ns,
                    hops: a.hops,
                    dropped: a.dropped,
                }
            })
            .collect()
    }

    /// Renders the buffered spans as a Chrome `trace_event` JSON
    /// document (load in `chrome://tracing` or Perfetto). One "process"
    /// per flow, one track per cell; queue waits are complete (`X`)
    /// events carrying depth and circuit-wait args, link traversals are
    /// `X` events spanning slot + propagation, deliveries and drops are
    /// instants. Byte-deterministic: timestamps are integer-formatted
    /// microseconds with fixed three-digit fractions.
    pub fn chrome_trace_json(&self, propagation_ns: Nanos) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        // Track the open enqueue per cell to close it at transmit:
        // (enqueue time, hop index, depth, circuit wait) per (flow, seq).
        type OpenEnqueue = (Nanos, usize, u32, Option<u32>);
        let mut pending: BTreeMap<(u64, u64), OpenEnqueue> = BTreeMap::new();
        for ev in &self.events {
            let key = (ev.flow.0, ev.seq);
            match ev.kind {
                HopKind::Enqueue {
                    next,
                    depth,
                    circuit_wait_slots,
                } => {
                    pending.insert(
                        key,
                        (ev.at_ns, depth, circuit_wait_slots, next.map(|n| n.0)),
                    );
                }
                HopKind::Transmit { to, depth_after } => {
                    if let Some((enq_ns, depth, wait, next)) = pending.remove(&key) {
                        let dur = ev.at_ns.saturating_sub(enq_ns);
                        push_event(&mut out, &mut first, &format!(
                            "{{\"name\":\"queue@n{}\",\"cat\":\"queue\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"depth\":{},\"circuit_wait_slots\":{},\"next\":{}}}}}",
                            ev.node.0,
                            us(enq_ns),
                            us(dur),
                            ev.flow.0,
                            ev.seq,
                            depth,
                            wait,
                            next.map_or("null".to_string(), |n| n.to_string()),
                        ));
                    }
                    push_event(&mut out, &mut first, &format!(
                        "{{\"name\":\"link n{}->n{}\",\"cat\":\"link\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"depth_after\":{},\"hop\":{}}}}}",
                        ev.node.0,
                        to.0,
                        us(ev.at_ns),
                        us(self.slot_ns + propagation_ns),
                        ev.flow.0,
                        ev.seq,
                        depth_after,
                        ev.hops,
                    ));
                }
                HopKind::Deliver { latency_ns } => {
                    push_event(&mut out, &mut first, &format!(
                        "{{\"name\":\"deliver\",\"cat\":\"cell\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"latency_ns\":{}}}}}",
                        us(ev.at_ns),
                        ev.flow.0,
                        ev.seq,
                        latency_ns,
                    ));
                }
                HopKind::Drop => {
                    push_event(&mut out, &mut first, &format!(
                        "{{\"name\":\"drop\",\"cat\":\"cell\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{}}}",
                        us(ev.at_ns),
                        ev.flow.0,
                        ev.seq,
                    ));
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

/// Chrome trace timestamps are microseconds; keep nanosecond precision
/// with a fixed three-digit fraction so output is byte-deterministic.
fn us(ns: Nanos) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_event(out: &mut String, first: &mut bool, ev: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(out, "{ev}");
}

impl Probe for FlowTraceCollector {
    fn on_hop(&mut self, event: &HopEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{FlowId, HopEvent, HopKind};
    use sorn_topology::NodeId;

    fn ev(seq: u64, node: u32, at: Nanos, kind: HopKind) -> HopEvent {
        HopEvent {
            flow: FlowId(1),
            seq,
            node: NodeId(node),
            at_ns: at,
            injected_ns: 0,
            hops: 0,
            kind,
        }
    }

    #[test]
    fn attribution_splits_wait_into_reconfig_and_queueing() {
        let mut c = FlowTraceCollector::new(100);
        // Enqueued at 0 with a 2-slot schedule wait, transmitted at 500:
        // 200 ns is unavoidable (reconfig), 300 ns is contention.
        c.on_hop(&ev(
            0,
            0,
            0,
            HopKind::Enqueue {
                next: Some(NodeId(1)),
                depth: 3,
                circuit_wait_slots: 2,
            },
        ));
        c.on_hop(&ev(
            0,
            0,
            500,
            HopKind::Transmit {
                to: NodeId(1),
                depth_after: 2,
            },
        ));
        c.on_hop(&ev(0, 1, 1100, HopKind::Deliver { latency_ns: 1100 }));
        let b = c.cell_breakdowns();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].reconfig_wait_ns, 200);
        assert_eq!(b[0].queue_ns, 300);
        assert_eq!(b[0].latency_ns, Some(1100));
        assert_eq!(b[0].transmit_ns, 600);
        assert!(!b[0].dropped);
    }

    #[test]
    fn never_scheduled_circuit_charges_everything_to_reconfig() {
        let mut c = FlowTraceCollector::new(100);
        c.on_hop(&ev(
            0,
            0,
            0,
            HopKind::Enqueue {
                next: Some(NodeId(1)),
                depth: 1,
                circuit_wait_slots: sorn_sim::CIRCUIT_NEVER,
            },
        ));
        c.on_hop(&ev(
            0,
            0,
            900,
            HopKind::Transmit {
                to: NodeId(1),
                depth_after: 0,
            },
        ));
        let b = c.cell_breakdowns();
        assert_eq!(b[0].reconfig_wait_ns, 900);
        assert_eq!(b[0].queue_ns, 0);
    }

    #[test]
    fn chrome_trace_is_valid_shaped_json() {
        let mut c = FlowTraceCollector::new(100);
        c.on_hop(&ev(
            0,
            0,
            0,
            HopKind::Enqueue {
                next: Some(NodeId(1)),
                depth: 1,
                circuit_wait_slots: 0,
            },
        ));
        c.on_hop(&ev(
            0,
            0,
            100,
            HopKind::Transmit {
                to: NodeId(1),
                depth_after: 0,
            },
        ));
        c.on_hop(&ev(0, 1, 700, HopKind::Deliver { latency_ns: 700 }));
        let json = c.chrome_trace_json(500);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"queue@n0\""));
        assert!(json.contains("\"name\":\"link n0->n1\""));
        assert!(json.contains("\"name\":\"deliver\""));
        // 100 ns -> "0.100" µs; braces balance.
        assert!(json.contains("\"ts\":0.100"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Byte-deterministic: a second render is identical.
        assert_eq!(json, c.chrome_trace_json(500));
    }

    #[test]
    fn render_all_is_one_line_per_event() {
        let mut c = FlowTraceCollector::new(100);
        c.on_hop(&ev(0, 1, 700, HopKind::Deliver { latency_ns: 700 }));
        c.on_hop(&ev(1, 1, 800, HopKind::Drop));
        let text = c.render_all();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn dropped_cells_are_flagged() {
        let mut c = FlowTraceCollector::new(100);
        c.on_hop(&ev(0, 2, 300, HopKind::Drop));
        let b = c.cell_breakdowns();
        assert!(b[0].dropped);
        assert_eq!(b[0].latency_ns, None);
    }
}
