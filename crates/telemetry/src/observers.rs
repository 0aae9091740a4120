//! The observer stack every run carries, and the one place that maps
//! its observers to checkpoint blobs.

use crate::recorder::FlightRecorder;
use crate::sampler::IntervalSampler;
use crate::sink::EventSink;
use crate::trace::FlowTraceCollector;
use crate::weather::WeatherProbe;
use sorn_sim::{
    Cell, FaultView, Flow, FlowRecord, HopEvent, Nanos, Probe, SkipView, SlotView, Snapshot,
};
use sorn_topology::NodeId;

/// Blob names, in the order [`Observers::save`] attaches them.
const TRACE: &str = "trace";
const WEATHER: &str = "weather";
const FLIGHT: &str = "flight";

/// Every observer a run may attach, each optional, as one [`Probe`].
///
/// [`Observers::save`] and [`Observers::restore`] are the blob protocol
/// of a checkpointed run: the trace collector, the weather roll-up and
/// the flight recorder travel in the snapshot as the `trace`, `weather`
/// and `flight` blobs, so a resumed run's reports are byte-identical
/// to an uninterrupted one's. The interval sampler streams to its sink
/// as the run goes and is never saved.
///
/// Hooks fire on the sampler, the trace collector, the weather probe
/// and the flight recorder, in that order; each observes the engine
/// alone, so the order changes no output.
pub struct Observers<S: EventSink> {
    /// A run trace sampled at a fixed simulated-time interval.
    pub sampler: Option<IntervalSampler<S>>,
    /// Causal hop spans of the traced flows.
    pub trace: Option<FlowTraceCollector>,
    /// The clique-level network-weather roll-up.
    pub weather: Option<WeatherProbe>,
    /// The bounded ring of recent anomalous events.
    pub flight: Option<FlightRecorder>,
}

impl<S: EventSink> Observers<S> {
    /// A stack with no observer attached.
    pub fn none() -> Self {
        Observers {
            sampler: None,
            trace: None,
            weather: None,
            flight: None,
        }
    }

    /// Attaches each present observer's state to `snap`: `trace`,
    /// `weather`, `flight`, in that order.
    pub fn save(&self, snap: &mut Snapshot) {
        if let Some(t) = &self.trace {
            snap.attach_blob(TRACE, t.to_bytes());
        }
        if let Some(w) = &self.weather {
            snap.attach_blob(WEATHER, w.to_bytes());
        }
        if let Some(f) = &self.flight {
            snap.attach_blob(FLIGHT, f.to_bytes());
        }
    }

    /// Replaces each present observer with its state from `snap`. The
    /// weather probe keeps this stack's clique map and the flight
    /// recorder its dump path; the sampler is left as it is.
    ///
    /// Refuses, naming the flag that sets the observer, a snapshot that
    /// carries a blob for an observer this stack lacks or lacks one for
    /// an observer it has, whose weather probe keeps another top-k, or
    /// whose flight recorder rings another capacity. A snapshot is
    /// input: restored into a stack that observes something else, it
    /// would yield reports that mix two runs.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), String> {
        if let Some((bytes, _)) = paired(snap, TRACE, self.trace.as_ref(), "--trace-flows")? {
            self.trace = Some(FlowTraceCollector::from_bytes(bytes)?);
        }
        if let Some((bytes, mine)) = paired(snap, WEATHER, self.weather.as_ref(), "--weather")? {
            let w = WeatherProbe::from_bytes(bytes, mine.cliques().clone())?;
            same("--weather-topk", "heavy hitters", w.topk(), mine.topk())?;
            self.weather = Some(w);
        }
        if let Some((bytes, mine)) = paired(snap, FLIGHT, self.flight.as_ref(), "--flight-ring")? {
            let mut f = FlightRecorder::from_bytes(bytes)?;
            same("--flight-ring", "ring slots", f.capacity(), mine.capacity())?;
            f.dump_path = mine.dump_path.clone();
            self.flight = Some(f);
        }
        Ok(())
    }
}

/// `snap`'s blob `name` with this stack's observer `mine`, or `None`
/// when neither has it; an error naming `flag` when only one does.
fn paired<'a, T>(
    snap: &'a Snapshot,
    name: &str,
    mine: Option<&'a T>,
    flag: &str,
) -> Result<Option<(&'a [u8], &'a T)>, String> {
    match (snap.blob(name), mine) {
        (Some(bytes), Some(mine)) => Ok(Some((bytes, mine))),
        (None, None) => Ok(None),
        (saved, _) => Err(format!(
            "{flag} differs: the checkpointed run {} a {name} observer, this run {}",
            if saved.is_some() { "kept" } else { "had no" },
            if saved.is_some() {
                "has none"
            } else {
                "has one"
            },
        )),
    }
}

/// An error naming `flag` when the checkpointed value differs.
fn same(flag: &str, what: &str, saved: usize, mine: usize) -> Result<(), String> {
    if saved == mine {
        return Ok(());
    }
    Err(format!(
        "{flag} differs: the checkpointed run kept {saved} {what}, this run {mine}"
    ))
}

/// Hands each listed hook to every attached observer, in field order.
macro_rules! to_each {
    ($($hook:ident($($arg:ident: $ty:ty),*);)*) => {$(
        fn $hook(&mut self, $($arg: $ty),*) {
            if let Some(p) = &mut self.sampler { p.$hook($($arg),*); }
            if let Some(p) = &mut self.trace { p.$hook($($arg),*); }
            if let Some(p) = &mut self.weather { p.$hook($($arg),*); }
            if let Some(p) = &mut self.flight { p.$hook($($arg),*); }
        }
    )*};
}

impl<S: EventSink> Probe for Observers<S> {
    to_each! {
        on_slot_end(view: &SlotView<'_>);
        on_slots_skipped(view: &SkipView<'_>);
        on_delivery(cell: &Cell, latency_ns: Nanos, now_ns: Nanos);
        on_drop(cell: &Cell, node: NodeId, now_ns: Nanos);
        on_transmit(cell: &Cell, from: NodeId, to: NodeId, now_ns: Nanos);
        on_flow_start(flow: &Flow, now_ns: Nanos);
        on_flow_finish(record: &FlowRecord, now_ns: Nanos);
        on_reconfiguration(slot: u64, now_ns: Nanos);
        on_fault(view: &FaultView<'_>);
        on_run_end(view: &SlotView<'_>);
        on_hop(event: &HopEvent);
    }

    fn next_boundary_ns(&self) -> Option<Nanos> {
        let bounds = [
            self.sampler.as_ref().and_then(Probe::next_boundary_ns),
            self.trace.as_ref().and_then(Probe::next_boundary_ns),
            self.weather.as_ref().and_then(Probe::next_boundary_ns),
            self.flight.as_ref().and_then(Probe::next_boundary_ns),
        ];
        bounds.into_iter().flatten().min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use sorn_sim::{DirectRouter, Engine, FlowId, SimConfig};
    use sorn_topology::builders::round_robin;
    use sorn_topology::CliqueMap;

    type Stack = Observers<MemorySink>;

    /// Trace, weather (top-k `topk`) and flight (ring `ring`) as asked.
    fn stack(trace: bool, topk: Option<usize>, ring: Option<usize>) -> Stack {
        Observers {
            trace: trace.then(|| FlowTraceCollector::new(SimConfig::default().slot_ns)),
            weather: topk.map(|k| WeatherProbe::new(CliqueMap::contiguous(8, 2), k)),
            flight: ring.map(|r| FlightRecorder::new(r).with_dump_path("FLIGHT_x.jsonl")),
            ..Observers::none()
        }
    }

    /// Everything the stack's observers render, as one string.
    fn renders(observers: &Stack) -> String {
        let Observers {
            trace,
            weather,
            flight,
            ..
        } = observers;
        let weather = weather
            .as_ref()
            .map(|w| w.render_txt("x") + &w.render_json("x"));
        [
            trace.as_ref().map(FlowTraceCollector::render_all),
            weather,
            flight.as_ref().map(FlightRecorder::dump_string),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// A short fully traced run that overflows its node queues and
    /// reinstalls its schedule midway, observed by `observers` (the
    /// flight recorder also notes a checkpoint written): its checkpoint
    /// with their blobs, and [`renders`].
    fn observed_run(observers: Stack) -> (Snapshot, String) {
        let sched = round_robin(8).unwrap();
        let cfg = SimConfig {
            trace_one_in: 1,
            node_queue_cap: 2,
            ..SimConfig::default()
        };
        let mut eng = Engine::with_probe(cfg, &sched, &DirectRouter, observers);
        let flow = |i: u32| Flow {
            id: FlowId(i.into()),
            src: NodeId(i % 2),
            dst: NodeId(i % 7 + 1),
            size_bytes: 5_000,
            arrival_ns: 10 * u64::from(i),
        };
        eng.add_flows((0..12).map(flow)).unwrap();
        eng.run_slots(10).unwrap();
        eng.install_schedule(&sched);
        eng.run_slots(10).unwrap();
        if let Some(f) = &mut eng.probe_mut().flight {
            f.note_checkpoint_written(20, 99, "ck/2.sorn");
        }
        let mut snap = eng.checkpoint();
        eng.probe().save(&mut snap);
        (snap, renders(eng.probe()))
    }

    #[test]
    fn save_then_restore_round_trips_every_blob_and_keeps_local_settings() {
        let (snap, want) = observed_run(stack(true, Some(4), Some(16)));
        assert!(
            want.contains(" DROP") && want.contains("\"type\":\"reconfiguration\""),
            "{want}"
        );
        let mut back = stack(true, Some(4), Some(16));
        back.restore(&snap).unwrap();
        assert_eq!(renders(&back), want);
        let flight = back.flight.as_ref().unwrap();
        assert_eq!(flight.dump_path, Some("FLIGHT_x.jsonl".into()));
        let mut again = Snapshot::default();
        back.save(&mut again);
        for name in [TRACE, WEATHER, FLIGHT] {
            assert_eq!(again.blob(name), snap.blob(name), "{name} re-encodes");
        }

        // Nothing attached, nothing saved, nothing to restore.
        let (bare, _) = observed_run(Observers::none());
        assert!([TRACE, WEATHER, FLIGHT]
            .iter()
            .all(|n| bare.blob(n).is_none()));
        Stack::none().restore(&bare).unwrap();
    }

    /// Every prefix of each blob is refused, and any byte forced to
    /// 0x00 or 0xFF restores or is refused: never a panic.
    #[test]
    fn observer_blob_truncations_and_flips_never_panic() {
        let (snap, _) = observed_run(stack(true, Some(4), Some(16)));
        for name in [TRACE, WEATHER, FLIGHT] {
            let bytes = snap.blob(name).unwrap();
            let restore = |blob: &[u8]| {
                let mut hurt = Snapshot::default();
                for n in [TRACE, WEATHER, FLIGHT] {
                    hurt.attach_blob(n, snap.blob(n).unwrap().to_vec());
                }
                hurt.attach_blob(name, blob.to_vec());
                stack(true, Some(4), Some(16)).restore(&hurt)
            };
            for len in 0..bytes.len() {
                assert!(restore(&bytes[..len]).is_err(), "{name}: {len}-byte prefix");
            }
            for i in 0..bytes.len() {
                for v in [0x00, 0xFF] {
                    let mut bad = bytes.to_vec();
                    bad[i] = v;
                    let _ = restore(&bad);
                }
            }
        }
    }
}
