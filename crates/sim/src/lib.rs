//! # sorn-sim
//!
//! A deterministic, slot-synchronous packet (cell) simulator for
//! reconfigurable datacenter networks.
//!
//! Fast circuit-switched fabrics (Sirius, RotorNet, SORN) advance in fixed
//! time slots: in each slot every node's uplinks are connected to peers
//! given by a periodic [`sorn_topology::CircuitSchedule`], and one cell
//! can cross each circuit. This crate simulates that model end to end:
//! flow arrivals, line-rate injection, per-next-hop virtual output queues
//! with router-defined spray classes, propagation delay, failure
//! injection, and full metrics (flow completion times, hop counts,
//! bandwidth tax, utilization).
//!
//! Routing is pluggable through the [`Router`] trait; the schemes from the
//! paper (2-hop VLB, h-dimensional ORN routing, SORN's intra/inter-clique
//! routing) live in the `sorn-routing` crate.
//!
//! ## Example
//!
//! ```
//! use sorn_sim::{Engine, SimConfig, Flow, FlowId, DirectRouter};
//! use sorn_topology::{builders::round_robin, NodeId};
//!
//! let schedule = round_robin(8).unwrap();
//! let router = DirectRouter;
//! let mut engine = Engine::new(SimConfig::default(), &schedule, &router);
//! engine.add_flows([Flow {
//!     id: FlowId(1),
//!     src: NodeId(0),
//!     dst: NodeId(5),
//!     size_bytes: 5000,
//!     arrival_ns: 0,
//! }]).unwrap();
//! assert!(engine.run_until_drained(1_000).unwrap());
//! assert_eq!(engine.metrics().flows.len(), 1);
//! ```

#![warn(missing_docs)]

mod calendar;
mod cell;
mod checkpoint;
mod config;
mod engine;
mod failure;
mod fault;
mod flow_table;
mod hash;
mod metrics;
mod par;
mod probe;
mod profiler;
mod queues;
mod rng;
mod router;
mod trace;

pub use cell::{Cell, Flow, FlowId};
pub use checkpoint::{
    crc64, CheckpointError, CheckpointFaultFs, CheckpointFs, CheckpointStore, LoadOutcome,
    RestoreError, Snapshot, StdFs, WriteFault, FORMAT_VERSION, KEEP_GENERATIONS, MAGIC,
};
pub use config::{Nanos, SimConfig};
pub use engine::{Engine, SimError};
pub use failure::FailureSet;
pub use fault::{
    FaultAction, FaultEvent, FaultPlan, FaultStorm, FaultTarget, FaultView, HealthView, LinkHealth,
};
pub use metrics::{FlowRecord, LatencyHistogram, LinkMatrix, Metrics};
pub use par::WorkerPool;
pub use probe::{NoopProbe, Probe, SkipView, SlotView};
pub use profiler::{NoopProfiler, Phase, PhaseSpan, Profiler};
pub use queues::NodeQueues;
pub use rng::NodeRng;
pub use router::{ClassId, DirectRouter, RouteDecision, Router};
pub use trace::{circuit_wait_slots, FlowSampler, HopEvent, HopKind, CIRCUIT_NEVER};
