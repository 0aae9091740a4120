//! # sorn-telemetry
//!
//! Observability for the SORN simulator: concrete [`sorn_sim::Probe`]
//! implementations and a structured trace format.
//!
//! The simulation engine exposes instrumentation hooks (slot
//! boundaries, deliveries, drops, flow lifecycle, reconfigurations)
//! that default to a zero-cost no-op. This crate supplies the probes
//! that make those hooks useful:
//!
//! - [`TraceEvent`] / [`Snapshot`] — the event model for run traces,
//!   one JSON object per event;
//! - [`EventSink`], [`MemorySink`], [`JsonlTraceSink`] — where events
//!   go (an in-memory buffer for tests, a JSON-Lines file for tools);
//! - [`IntervalSampler`] — a probe that emits a [`Snapshot`] of queue
//!   depths, utilization, and delivery counters at a fixed simulated-
//!   time interval, and forwards discrete events as they happen;
//! - [`CountingProbe`] — counts hook invocations, for tests and smoke
//!   checks;
//! - [`FlowTraceCollector`] — collects the engine's causal hop spans
//!   for sampled flows and exports Chrome `trace_event` JSON plus
//!   per-cell latency breakdowns (queueing vs transmission vs
//!   reconfiguration wait);
//! - [`FlightRecorder`] — an always-on bounded ring of recent anomalous
//!   events (drops, faults, stranded onsets, drop spikes) that dumps to
//!   JSON Lines when a watchdog fires;
//! - [`WeatherProbe`] — bounded-memory "network weather": per-clique
//!   demand/goodput matrices, [`SpaceSaving`] heavy-hitter sketches for
//!   flows/links/ports, and an [`EpochSeries`] decimated timeline, with
//!   deterministic text/JSON run reports;
//! - [`Observers`] — the sampler, trace collector, weather probe and
//!   flight recorder as one optional-each probe stack that saves its
//!   state to checkpoint blobs and restores it on resume.
//!
//! Every probe's output is a pure function of the engine's event
//! stream: nothing here reads a clock, opens a socket or spawns a
//! thread, so a finished run's files are its whole telemetry.
//!
//! ## Example
//!
//! ```
//! use sorn_sim::{Engine, SimConfig, Flow, FlowId, DirectRouter};
//! use sorn_telemetry::{IntervalSampler, MemorySink, TraceEvent};
//! use sorn_topology::{builders::round_robin, NodeId};
//!
//! let schedule = round_robin(4).unwrap();
//! let router = DirectRouter;
//! let sampler = IntervalSampler::new(MemorySink::new(), 1_000);
//! let mut engine = Engine::with_probe(SimConfig::default(), &schedule, &router, sampler);
//! engine.add_flows([Flow {
//!     id: FlowId(1),
//!     src: NodeId(0),
//!     dst: NodeId(1),
//!     size_bytes: 5000,
//!     arrival_ns: 0,
//! }]).unwrap();
//! engine.run_until_drained(1_000).unwrap();
//! let sink = engine.finish().into_sink();
//! assert!(matches!(sink.events.last(), Some(TraceEvent::Snapshot(_))));
//! ```

#![warn(missing_docs)]

mod counting;
mod event;
mod observers;
mod recorder;
mod sampler;
mod sink;
mod trace;
mod weather;

pub use counting::CountingProbe;
pub use event::{Snapshot, TraceEvent};
pub use observers::Observers;
pub use recorder::{FlightRecorder, RecordedEvent, DEFAULT_CAPACITY, DEFAULT_DROP_SPIKE};
pub use sampler::IntervalSampler;
pub use sink::{parse_jsonl, read_jsonl, EventSink, JsonlTraceSink, MemorySink};
pub use trace::{CellBreakdown, FlowTraceCollector};
pub use weather::{
    EpochSeries, SketchEntry, SpaceSaving, WeatherBucket, WeatherProbe, DEFAULT_SERIES_BUDGET,
    DEFAULT_TOPK, MAX_TOPK,
};
