//! The flight recorder: an always-on, fixed-size ring of recent engine
//! events.
//!
//! [`FlightRecorder`] is a [`Probe`] that keeps the last `capacity`
//! noteworthy events — drops, fault transitions, reconfigurations,
//! stranded-cell onsets, per-slot drop spikes — in a preallocated ring.
//! Memory is strictly bounded by the capacity regardless of run length
//! or network size, so it is safe to leave attached on any fabric.
//!
//! Every recorded event is derived from *simulated* state (slots,
//! simulated time, deterministic counters), so the ring contents are
//! byte-identical at any `engine_threads`.
//!
//! When an anomaly watchdog fires (a drop spike or a stranded onset),
//! the recorder arms itself; drivers check [`FlightRecorder::anomaly`]
//! at the end of a run and dump the ring with
//! [`FlightRecorder::dump_jsonl`]. If the process panics mid-run
//! while a dump path is configured, the recorder writes the dump from
//! its `Drop` impl — the black-box survives the crash.

use sorn_base::bytes::{Reader, Writer};
use sorn_base::json::quote;
use sorn_sim::{Cell, FaultAction, FaultTarget, FaultView, Nanos, Probe, SkipView, SlotView};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::PathBuf;

/// Default ring capacity: enough recent history to diagnose a spike
/// without meaningful memory cost (entries are small and fixed-size).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Default drop-spike threshold: this many drops within one slot arms
/// the anomaly flag.
pub const DEFAULT_DROP_SPIKE: u64 = 64;

/// One recorded engine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordedEvent {
    /// A cell was dropped (queue cap or router decision).
    Drop {
        /// Simulated time of the drop.
        at_ns: Nanos,
        /// Dropping node.
        node: u32,
        /// Flow of the dropped cell.
        flow: u64,
        /// Cell sequence number within the flow.
        seq: u64,
    },
    /// A scripted fault event took effect.
    Fault {
        /// Simulated time of the transition.
        at_ns: Nanos,
        /// Slot at whose boundary it applied.
        slot: u64,
        /// `"fail"` or `"restore"`.
        action: &'static str,
        /// Affected element, rendered (`"node 3"`, `"link 0->1"`).
        target: String,
        /// Failed-node count after the event.
        failed_nodes: usize,
        /// Failed directed-link count after the event.
        failed_links: usize,
    },
    /// A new circuit schedule was installed mid-run.
    Reconfiguration {
        /// Simulated time of the swap.
        at_ns: Nanos,
        /// Slot of the swap.
        slot: u64,
    },
    /// Queued cells became stranded (the count left zero).
    StrandedOnset {
        /// Simulated time at the end of the slot that stranded them.
        at_ns: Nanos,
        /// The slot.
        slot: u64,
        /// Stranded-cell count observed.
        stranded: u64,
    },
    /// More than the configured threshold of drops landed in one slot.
    DropSpike {
        /// Simulated time at the end of the spiking slot.
        at_ns: Nanos,
        /// The slot.
        slot: u64,
        /// Drops within that slot.
        drops: u64,
    },
    /// The run driver wrote a checkpoint generation.
    CheckpointWritten {
        /// Slot the checkpoint captured.
        slot: u64,
        /// Encoded size in bytes.
        bytes: u64,
        /// Generation file path.
        path: String,
    },
    /// The run driver restored state from a checkpoint.
    CheckpointRestored {
        /// Slot the run resumed from.
        slot: u64,
        /// Generation file path it loaded.
        path: String,
    },
    /// A corrupt checkpoint generation was skipped during load.
    CheckpointCorruptSkipped {
        /// The rejected file.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl RecordedEvent {
    /// Hand-rolled single-line JSON rendering (fixed member order, so
    /// dumps are deterministic).
    pub fn to_json(&self) -> String {
        match self {
            RecordedEvent::Drop {
                at_ns,
                node,
                flow,
                seq,
            } => format!(
                "{{\"type\":\"drop\",\"at_ns\":{at_ns},\"node\":{node},\"flow\":{flow},\"seq\":{seq}}}"
            ),
            RecordedEvent::Fault {
                at_ns,
                slot,
                action,
                target,
                failed_nodes,
                failed_links,
            } => format!(
                "{{\"type\":\"fault\",\"at_ns\":{at_ns},\"slot\":{slot},\"action\":\"{action}\",\"target\":{},\"failed_nodes\":{failed_nodes},\"failed_links\":{failed_links}}}",
                quote(target)
            ),
            RecordedEvent::Reconfiguration { at_ns, slot } => {
                format!("{{\"type\":\"reconfiguration\",\"at_ns\":{at_ns},\"slot\":{slot}}}")
            }
            RecordedEvent::StrandedOnset {
                at_ns,
                slot,
                stranded,
            } => format!(
                "{{\"type\":\"stranded_onset\",\"at_ns\":{at_ns},\"slot\":{slot},\"stranded\":{stranded}}}"
            ),
            RecordedEvent::DropSpike { at_ns, slot, drops } => format!(
                "{{\"type\":\"drop_spike\",\"at_ns\":{at_ns},\"slot\":{slot},\"drops\":{drops}}}"
            ),
            RecordedEvent::CheckpointWritten { slot, bytes, path } => format!(
                "{{\"type\":\"checkpoint_written\",\"slot\":{slot},\"bytes\":{bytes},\"path\":{}}}",
                quote(path)
            ),
            RecordedEvent::CheckpointRestored { slot, path } => format!(
                "{{\"type\":\"checkpoint_restored\",\"slot\":{slot},\"path\":{}}}",
                quote(path)
            ),
            RecordedEvent::CheckpointCorruptSkipped { path, reason } => format!(
                "{{\"type\":\"checkpoint_corrupt_skipped\",\"path\":{},\"reason\":{}}}",
                quote(path),
                quote(reason)
            ),
        }
    }
}

/// The always-on bounded event ring. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<RecordedEvent>,
    capacity: usize,
    /// Index of the next write (ring is full once `total >= capacity`).
    head: usize,
    /// Events recorded over the whole run (not just those retained).
    total: u64,
    drop_spike_threshold: u64,
    last_dropped: u64,
    last_stranded: u64,
    anomaly: Option<String>,
    /// Dump target for the panic-path `Drop` impl and
    /// [`FlightRecorder::dump_if_anomalous`].
    dump_path: Option<PathBuf>,
    dumped: bool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs a positive capacity");
        FlightRecorder {
            ring: Vec::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity,
            head: 0,
            total: 0,
            drop_spike_threshold: DEFAULT_DROP_SPIKE,
            last_dropped: 0,
            last_stranded: 0,
            anomaly: None,
            dump_path: None,
            dumped: false,
        }
    }

    /// Configures where [`FlightRecorder::dump_if_anomalous`] — and the
    /// panic-path `Drop` impl — write the JSONL dump.
    pub fn with_dump_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.dump_path = Some(path.into());
        self
    }

    /// Events recorded over the whole run (including ones the ring has
    /// since overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// The retained events, oldest first.
    pub fn entries(&self) -> Vec<&RecordedEvent> {
        if self.ring.len() < self.capacity {
            self.ring.iter().collect()
        } else {
            self.ring[self.head..]
                .iter()
                .chain(self.ring[..self.head].iter())
                .collect()
        }
    }

    /// The first anomaly the watchdogs saw, if any.
    pub fn anomaly(&self) -> Option<&str> {
        self.anomaly.as_deref()
    }

    /// Writes the ring as JSON Lines: a header object, then one event
    /// per line, oldest first.
    pub fn dump_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "{{\"type\":\"flight_recorder\",\"retained\":{},\"total\":{},\"capacity\":{}",
            self.ring.len(),
            self.total,
            self.capacity
        );
        match &self.anomaly {
            Some(a) => {
                let _ = write!(head, ",\"anomaly\":{}}}", quote(a));
            }
            None => head.push_str(",\"anomaly\":null}"),
        }
        writeln!(w, "{head}")?;
        for ev in self.entries() {
            writeln!(w, "{}", ev.to_json())?;
        }
        Ok(())
    }

    /// The dump as a string (tests).
    pub fn dump_string(&self) -> String {
        let mut buf = Vec::new();
        self.dump_jsonl(&mut buf).expect("vec write cannot fail");
        String::from_utf8(buf).expect("dump is ASCII")
    }

    /// If an anomaly was flagged and a dump path is configured, writes
    /// the dump there. Returns the path written, if any.
    pub fn dump_if_anomalous(&mut self) -> io::Result<Option<PathBuf>> {
        if self.anomaly.is_none() || self.dumped {
            return Ok(None);
        }
        let Some(path) = self.dump_path.clone() else {
            return Ok(None);
        };
        let mut f = std::fs::File::create(&path)?;
        self.dump_jsonl(&mut f)?;
        f.flush()?;
        self.dumped = true;
        Ok(Some(path))
    }

    /// Records that the run driver wrote a checkpoint generation.
    /// Driver-fired (never engine-fired), so engine-level restore
    /// equivalence is unaffected by checkpointing cadence.
    pub fn note_checkpoint_written(&mut self, slot: u64, bytes: u64, path: &str) {
        self.record(RecordedEvent::CheckpointWritten {
            slot,
            bytes,
            path: path.to_string(),
        });
    }

    /// Records that the run driver restored from a checkpoint.
    pub fn note_checkpoint_restored(&mut self, slot: u64, path: &str) {
        self.record(RecordedEvent::CheckpointRestored {
            slot,
            path: path.to_string(),
        });
    }

    /// Records that a corrupt checkpoint generation was skipped.
    pub fn note_checkpoint_corrupt_skipped(&mut self, path: &str, reason: &str) {
        self.record(RecordedEvent::CheckpointCorruptSkipped {
            path: path.to_string(),
            reason: reason.to_string(),
        });
    }

    /// Serializes the recorder's deterministic state (ring, counters,
    /// anomaly flag) so a resumed process reproduces the dump
    /// byte-for-byte. The dump path is not captured — the restoring
    /// driver reconfigures it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u64(self.capacity as u64);
        out.put_u64(self.total);
        out.put_u64(self.drop_spike_threshold);
        out.put_u64(self.last_dropped);
        out.put_u64(self.last_stranded);
        out.put_str(self.anomaly.as_deref().unwrap_or(""));
        out.put_bool(self.anomaly.is_some());
        let entries = self.entries();
        out.put_u64(entries.len() as u64);
        for ev in entries {
            encode_event(&mut out, ev);
        }
        out
    }

    /// Rebuilds a recorder from [`FlightRecorder::to_bytes`] output.
    /// Returns a description of the problem on malformed input (never
    /// panics).
    pub fn from_bytes(bytes: &[u8]) -> Result<FlightRecorder, String> {
        Self::decode(&mut Reader::new(bytes)).map_err(|e| format!("recorder blob {e}"))
    }

    fn decode(r: &mut Reader<'_>) -> Result<FlightRecorder, String> {
        let capacity = r.u64()? as usize;
        if capacity == 0 {
            return Err("has zero capacity".to_string());
        }
        let total = r.u64()?;
        let drop_spike_threshold = r.u64()?;
        let last_dropped = r.u64()?;
        let last_stranded = r.u64()?;
        let anomaly_text = r.str("anomaly text")?;
        let has_anomaly = r.bool()?;
        let ring = r.vec("event", MIN_EVENT_BYTES, decode_event)?;
        if ring.len() > capacity {
            return Err("retains more events than its capacity".to_string());
        }
        r.finish("payload")?;
        Ok(FlightRecorder {
            ring,
            capacity,
            // Oldest-first storage means index 0 is the next overwrite
            // target once full — exactly `record`'s convention.
            head: 0,
            total,
            drop_spike_threshold,
            last_dropped,
            last_stranded,
            anomaly: has_anomaly.then_some(anomaly_text),
            dump_path: None,
            dumped: false,
        })
    }

    fn record(&mut self, ev: RecordedEvent) {
        self.total += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn flag(&mut self, anomaly: String) {
        if self.anomaly.is_none() {
            self.anomaly = Some(anomaly);
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        // The black-box survives a crash: on panic, write the dump if a
        // path was configured and nothing was written yet.
        if std::thread::panicking() && !self.dumped {
            if let Some(path) = self.dump_path.clone() {
                if let Ok(mut f) = std::fs::File::create(&path) {
                    let _ = self.dump_jsonl(&mut f);
                    eprintln!(
                        "sorn-telemetry: flight recorder dumped to {} (panic)",
                        path.display()
                    );
                }
            }
        }
    }
}

/// Bytes in the shortest encoded event (a tag and two `u64`s).
const MIN_EVENT_BYTES: usize = 17;

/// Binary event encoding behind [`FlightRecorder::to_bytes`]: a tag
/// byte, then the fields little-endian (strings length-prefixed).
fn encode_event(out: &mut Vec<u8>, ev: &RecordedEvent) {
    match ev {
        RecordedEvent::Drop {
            at_ns,
            node,
            flow,
            seq,
        } => {
            out.put_u8(0);
            out.put_u64(*at_ns);
            out.put_u64(*node as u64);
            out.put_u64(*flow);
            out.put_u64(*seq);
        }
        RecordedEvent::Fault {
            at_ns,
            slot,
            action,
            target,
            failed_nodes,
            failed_links,
        } => {
            out.put_u8(1);
            out.put_u64(*at_ns);
            out.put_u64(*slot);
            out.put_bool(*action == "restore");
            out.put_str(target);
            out.put_u64(*failed_nodes as u64);
            out.put_u64(*failed_links as u64);
        }
        RecordedEvent::Reconfiguration { at_ns, slot } => {
            out.put_u8(2);
            out.put_u64(*at_ns);
            out.put_u64(*slot);
        }
        RecordedEvent::StrandedOnset {
            at_ns,
            slot,
            stranded,
        } => {
            out.put_u8(3);
            out.put_u64(*at_ns);
            out.put_u64(*slot);
            out.put_u64(*stranded);
        }
        RecordedEvent::DropSpike { at_ns, slot, drops } => {
            out.put_u8(4);
            out.put_u64(*at_ns);
            out.put_u64(*slot);
            out.put_u64(*drops);
        }
        RecordedEvent::CheckpointWritten { slot, bytes, path } => {
            out.put_u8(6);
            out.put_u64(*slot);
            out.put_u64(*bytes);
            out.put_str(path);
        }
        RecordedEvent::CheckpointRestored { slot, path } => {
            out.put_u8(7);
            out.put_u64(*slot);
            out.put_str(path);
        }
        RecordedEvent::CheckpointCorruptSkipped { path, reason } => {
            out.put_u8(8);
            out.put_str(path);
            out.put_str(reason);
        }
    }
}

/// Inverse of [`encode_event`]; bounds-checked, never panics.
fn decode_event(r: &mut Reader<'_>) -> Result<RecordedEvent, String> {
    Ok(match r.u8()? {
        0 => RecordedEvent::Drop {
            at_ns: r.u64()?,
            node: r.u64()? as u32,
            flow: r.u64()?,
            seq: r.u64()?,
        },
        1 => RecordedEvent::Fault {
            at_ns: r.u64()?,
            slot: r.u64()?,
            action: if r.u8()? == 1 { "restore" } else { "fail" },
            target: r.str("fault target")?,
            failed_nodes: r.u64()? as usize,
            failed_links: r.u64()? as usize,
        },
        2 => RecordedEvent::Reconfiguration {
            at_ns: r.u64()?,
            slot: r.u64()?,
        },
        3 => RecordedEvent::StrandedOnset {
            at_ns: r.u64()?,
            slot: r.u64()?,
            stranded: r.u64()?,
        },
        4 => RecordedEvent::DropSpike {
            at_ns: r.u64()?,
            slot: r.u64()?,
            drops: r.u64()?,
        },
        6 => RecordedEvent::CheckpointWritten {
            slot: r.u64()?,
            bytes: r.u64()?,
            path: r.str("checkpoint path")?,
        },
        7 => RecordedEvent::CheckpointRestored {
            slot: r.u64()?,
            path: r.str("checkpoint path")?,
        },
        8 => RecordedEvent::CheckpointCorruptSkipped {
            path: r.str("checkpoint path")?,
            reason: r.str("skip reason")?,
        },
        tag => return Err(format!("has unknown event tag {tag}")),
    })
}

impl Probe for FlightRecorder {
    fn on_drop(&mut self, cell: &Cell, node: sorn_topology::NodeId, now_ns: Nanos) {
        self.record(RecordedEvent::Drop {
            at_ns: now_ns,
            node: node.0,
            flow: cell.flow.0,
            seq: cell.seq,
        });
    }

    fn on_fault(&mut self, view: &FaultView<'_>) {
        let action = match view.event.action {
            FaultAction::Fail => "fail",
            FaultAction::Restore => "restore",
        };
        let target = match view.event.target {
            FaultTarget::Node(v) => format!("node {}", v.0),
            FaultTarget::Link(a, b) => format!("link {}->{}", a.0, b.0),
            FaultTarget::LinkBidir(a, b) => format!("link {}<->{}", a.0, b.0),
        };
        self.record(RecordedEvent::Fault {
            at_ns: view.now_ns,
            slot: view.slot,
            action,
            target,
            failed_nodes: view.failed_nodes,
            failed_links: view.failed_links,
        });
    }

    fn on_reconfiguration(&mut self, slot: u64, now_ns: Nanos) {
        self.record(RecordedEvent::Reconfiguration {
            at_ns: now_ns,
            slot,
        });
    }

    fn on_slot_end(&mut self, view: &SlotView<'_>) {
        let dropped = view.metrics.dropped_cells;
        let slot_drops = dropped.saturating_sub(self.last_dropped);
        self.last_dropped = dropped;
        if slot_drops >= self.drop_spike_threshold {
            self.record(RecordedEvent::DropSpike {
                at_ns: view.now_ns,
                slot: view.slot,
                drops: slot_drops,
            });
            self.flag(format!(
                "drop spike: {slot_drops} drops in slot {}",
                view.slot
            ));
        }
        let stranded = view.metrics.stranded_cells;
        if stranded > 0 && self.last_stranded == 0 {
            self.record(RecordedEvent::StrandedOnset {
                at_ns: view.now_ns,
                slot: view.slot,
                stranded,
            });
            self.flag(format!(
                "stranded onset: {stranded} cells in slot {}",
                view.slot
            ));
        }
        self.last_stranded = stranded;
    }

    fn on_slots_skipped(&mut self, view: &SkipView<'_>) {
        let end = &view.end;
        let first_slot = end.slot - view.skipped + 1;
        let first_now = end.now_ns - (view.skipped - 1) * view.slot_ns;
        // Counters are frozen across a quiet span, so only its first
        // slot can carry a nonzero drop delta (a recorder attached
        // mid-run); every later slot's delta is zero.
        let dropped = end.metrics.dropped_cells;
        let slot_drops = dropped.saturating_sub(self.last_dropped);
        self.last_dropped = dropped;
        if slot_drops >= self.drop_spike_threshold {
            self.record(RecordedEvent::DropSpike {
                at_ns: first_now,
                slot: first_slot,
                drops: slot_drops,
            });
            self.flag(format!(
                "drop spike: {slot_drops} drops in slot {first_slot}"
            ));
            if self.drop_spike_threshold == 0 {
                // Degenerate threshold: per-slot stepping records a
                // zero-drop spike every slot. Reproduce the span in
                // O(capacity) — only the last `capacity` events survive
                // the ring, so older ones just bump the total.
                let extra = view.skipped - 1;
                let synth = extra.min(self.capacity as u64);
                self.total += extra - synth;
                for slot in (end.slot - synth + 1)..=end.slot {
                    self.record(RecordedEvent::DropSpike {
                        at_ns: end.now_ns - (end.slot - slot) * view.slot_ns,
                        slot,
                        drops: 0,
                    });
                }
            }
        }
        let stranded = end.metrics.stranded_cells;
        if stranded > 0 && self.last_stranded == 0 {
            self.record(RecordedEvent::StrandedOnset {
                at_ns: first_now,
                slot: first_slot,
                stranded,
            });
            self.flag(format!(
                "stranded onset: {stranded} cells in slot {first_slot}"
            ));
        }
        self.last_stranded = stranded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{FlowId, Metrics};
    use sorn_topology::NodeId;

    fn cell(flow: u64, seq: u64) -> Cell {
        Cell {
            flow: FlowId(flow),
            seq,
            src: NodeId(0),
            dst: NodeId(1),
            injected_ns: 0,
            hops: 0,
            tag: 0,
        }
    }

    fn view(metrics: &Metrics, slot: u64) -> SlotView<'_> {
        SlotView {
            slot,
            now_ns: slot * 100,
            metrics,
            total_queued: 0,
            inflight_cells: 0,
            active_flows: 0,
            queues: &[],
        }
    }

    #[test]
    fn ring_is_strictly_bounded_and_keeps_the_newest() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.on_drop(&cell(i, 0), NodeId(0), i * 10);
        }
        assert_eq!(r.total_recorded(), 10);
        let entries = r.entries();
        assert_eq!(entries.len(), 4);
        // Oldest-first: drops of flows 6..10 remain.
        match entries[0] {
            RecordedEvent::Drop { flow, .. } => assert_eq!(*flow, 6),
            other => panic!("unexpected {other:?}"),
        }
        match entries[3] {
            RecordedEvent::Drop { flow, .. } => assert_eq!(*flow, 9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drop_spike_watchdog_flags_anomaly() {
        let mut r = FlightRecorder::new(16);
        let mut m = Metrics::default();
        m.dropped_cells = 2;
        r.on_slot_end(&view(&m, 1));
        assert!(r.anomaly().is_none());
        m.dropped_cells = 2 + DEFAULT_DROP_SPIKE; // a threshold's worth in slot 2
        r.on_slot_end(&view(&m, 2));
        assert!(r.anomaly().unwrap().contains("drop spike"));
        assert!(r.entries().iter().any(|e| matches!(
            e,
            RecordedEvent::DropSpike {
                drops: DEFAULT_DROP_SPIKE,
                slot: 2,
                ..
            }
        )));
    }

    #[test]
    fn stranded_onset_recorded_once_per_episode() {
        let mut r = FlightRecorder::new(16);
        let mut m = Metrics::default();
        m.stranded_cells = 5;
        r.on_slot_end(&view(&m, 1));
        r.on_slot_end(&view(&m, 2)); // still stranded: no new entry
        m.stranded_cells = 0;
        r.on_slot_end(&view(&m, 3));
        m.stranded_cells = 2;
        r.on_slot_end(&view(&m, 4)); // new episode
        let onsets = r
            .entries()
            .iter()
            .filter(|e| matches!(e, RecordedEvent::StrandedOnset { .. }))
            .count();
        assert_eq!(onsets, 2);
    }

    #[test]
    fn dump_is_one_json_object_per_line() {
        let mut r = FlightRecorder::new(8);
        r.on_drop(&cell(3, 7), NodeId(2), 400);
        r.on_reconfiguration(5, 500);
        let dump = r.dump_string();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 events
        assert!(lines[0].contains("\"type\":\"flight_recorder\""));
        assert!(lines[0].contains("\"retained\":2"));
        assert!(lines[1].contains("\"type\":\"drop\""));
        assert!(lines[2].contains("\"type\":\"reconfiguration\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }

    #[test]
    fn dump_if_anomalous_writes_only_on_anomaly() {
        let path = std::env::temp_dir().join(format!("sorn-fr-{}.jsonl", std::process::id()));
        let mut r = FlightRecorder::new(8).with_dump_path(&path);
        assert_eq!(r.dump_if_anomalous().unwrap(), None);
        let mut m = Metrics::default();
        m.dropped_cells = DEFAULT_DROP_SPIKE + 1;
        r.on_slot_end(&view(&m, 1));
        assert_eq!(r.dump_if_anomalous().unwrap(), Some(path.clone()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("drop spike"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_round_trip_reproduces_the_dump() {
        let mut r = FlightRecorder::new(4);
        for i in 0..6 {
            r.on_drop(&cell(i, 0), NodeId(1), i * 10);
        }
        let mut m = Metrics::default();
        m.dropped_cells = DEFAULT_DROP_SPIKE;
        r.on_slot_end(&view(&m, 2)); // arms the anomaly, wraps the ring
        r.note_checkpoint_written(2, 123, "/tmp/ckpt-1.sorn");
        r.note_checkpoint_restored(2, "/tmp/ckpt-1.sorn");
        r.note_checkpoint_corrupt_skipped("/tmp/ckpt-2.sorn", "checksum \"mismatch\"");
        let bytes = r.to_bytes();
        let back = FlightRecorder::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.dump_string(), r.dump_string());
        assert_eq!(back.total_recorded(), r.total_recorded());
        assert_eq!(back.to_bytes(), bytes, "re-encoding is byte-stable");
    }

    #[test]
    fn recorder_blob_truncations_never_panic() {
        let mut r = FlightRecorder::new(4);
        r.on_drop(&cell(3, 1), NodeId(2), 40);
        r.on_reconfiguration(5, 500);
        r.note_checkpoint_written(1, 99, "/tmp/x.sorn");
        r.note_checkpoint_corrupt_skipped("/tmp/y.sorn", "crc");
        let bytes = r.to_bytes();
        for len in 0..bytes.len() {
            assert!(FlightRecorder::from_bytes(&bytes[..len]).is_err());
        }
        // Any byte forced to 0x00 or 0xFF decodes to Ok or Err, never a
        // panic.
        for i in 0..bytes.len() {
            for v in [0x00, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] = v;
                let _ = FlightRecorder::from_bytes(&bad);
            }
        }
        // Tag 5 is unassigned: a hostile blob holding one retained
        // event with that tag (and a well-formed 16-byte body) is an
        // error, not a panic.
        let mut hostile = FlightRecorder::new(4).to_bytes();
        let count_at = hostile.len() - 8;
        hostile[count_at..].copy_from_slice(&1u64.to_le_bytes());
        hostile.push(5);
        hostile.extend_from_slice(&[0; 16]);
        let err = FlightRecorder::from_bytes(&hostile).unwrap_err();
        assert!(err.contains("unknown event tag 5"), "{err}");
    }

    #[test]
    fn fault_entries_render_targets() {
        use sorn_sim::FaultEvent;
        let mut r = FlightRecorder::new(8);
        let event = FaultEvent {
            at_ns: 100,
            action: FaultAction::Fail,
            target: FaultTarget::Link(NodeId(0), NodeId(1)),
        };
        r.on_fault(&FaultView {
            event: &event,
            slot: 1,
            now_ns: 100,
            failed_nodes: 0,
            failed_links: 1,
        });
        let dump = r.dump_string();
        assert!(dump.contains("\"action\":\"fail\""));
        assert!(dump.contains("\"target\":\"link 0->1\""));
    }

    #[test]
    fn dump_escapes_control_characters_in_paths_and_reasons() {
        let mut r = FlightRecorder::new(8);
        let path = "/tmp/a\nb\u{1}.sorn";
        r.note_checkpoint_written(1, 9, path);
        r.note_checkpoint_corrupt_skipped(path, "bad\tcrc \"x\"");
        let dump = r.dump_string();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3, "a newline in a path must not split a line");
        assert!(
            lines[1].contains("\"path\":\"/tmp/a\\nb\\u0001.sorn\""),
            "{}",
            lines[1]
        );
        for line in &lines {
            sorn_base::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let skipped = sorn_base::json::parse(lines[2]).unwrap();
        assert_eq!(skipped.field::<String>("path").unwrap(), path);
        assert_eq!(skipped.field::<String>("reason").unwrap(), "bad\tcrc \"x\"");
    }
}
