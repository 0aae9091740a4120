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
//! - [`TraceEvent`] / [`Snapshot`] — a serde event model for run
//!   traces, one JSON object per event;
//! - [`EventSink`], [`MemorySink`], [`JsonlTraceSink`] — where events
//!   go (an in-memory buffer for tests, a JSON-Lines file for tools);
//! - [`IntervalSampler`] — a probe that emits a [`Snapshot`] of queue
//!   depths, utilization, and delivery counters at a fixed simulated-
//!   time interval, and forwards discrete events as they happen;
//! - [`CountingProbe`] — counts hook invocations, for tests and smoke
//!   checks;
//! - [`MetricRegistry`] — named counters/gauges/histograms with
//!   Prometheus text export and a JSON snapshot;
//! - [`FlowTraceCollector`] — collects the engine's causal hop spans
//!   for sampled flows and exports Chrome `trace_event` JSON plus
//!   per-cell latency breakdowns (queueing vs transmission vs
//!   reconfiguration wait);
//! - [`FlightRecorder`] — an always-on bounded ring of recent anomalous
//!   events (drops, faults, stranded onsets, drop spikes) that dumps to
//!   JSON Lines when a watchdog fires;
//! - [`MetricsServer`] / [`LiveMetricsProbe`] — a std-only background
//!   HTTP listener serving `/metrics`, `/health`, `/progress`, and
//!   `/weather` from snapshots published at slot boundaries;
//! - [`WeatherProbe`] — bounded-memory "network weather": per-clique
//!   demand/goodput matrices, [`SpaceSaving`] heavy-hitter sketches for
//!   flows/links/ports, and an [`EpochSeries`] decimated timeline, with
//!   deterministic text/JSON run reports.
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
mod recorder;
mod registry;
mod sampler;
mod serve;
mod sink;
mod trace;
mod weather;

pub use counting::CountingProbe;
pub use event::{Snapshot, TraceEvent};
pub use recorder::{FlightRecorder, RecordedEvent, DEFAULT_CAPACITY, DEFAULT_DROP_SPIKE};
pub use registry::{HistogramMetric, MetricRegistry};
pub use sampler::IntervalSampler;
pub use serve::{LiveMetricsProbe, MetricsPublisher, MetricsServer};
pub use sink::{parse_jsonl, read_jsonl, EventSink, JsonlTraceSink, MemorySink};
pub use trace::{CellBreakdown, FlowTraceCollector};
pub use weather::{
    EpochSeries, SketchEntry, SpaceSaving, WeatherBucket, WeatherProbe, DEFAULT_SERIES_BUDGET,
    DEFAULT_TOPK,
};
