//! # sorn
//!
//! Umbrella crate for the SORN workspace — a from-scratch implementation
//! of *"Semi-Oblivious Reconfigurable Datacenter Networks"* (HotNets '24)
//! and everything it depends on: circuit schedules, a slot-synchronous
//! packet simulator, oblivious and semi-oblivious routing, workload
//! generators, a macro-pattern control plane, and the full evaluation
//! harness.
//!
//! Re-exports every workspace crate under a stable module name:
//!
//! | module | contents |
//! |---|---|
//! | [`topology`] | matchings, circuit schedules, builders, AWGR model |
//! | [`sim`] | the deterministic slot-synchronous cell simulator |
//! | [`routing`] | VLB / h-dim / SORN routers and flow-level evaluation |
//! | [`traffic`] | pFabric & Facebook-like workloads, traces |
//! | [`core`] | the SORN design: config, model formulas, baselines |
//! | [`control`] | pattern estimation, clique optimization, updates |
//! | [`analysis`] | every experiment (one module per `sorn-cli` command) and the command table |
//!
//! See `examples/quickstart.rs` for a guided tour.

#![forbid(unsafe_code)]

pub use sorn_analysis as analysis;
pub use sorn_control as control;
pub use sorn_core as core;
pub use sorn_routing as routing;
pub use sorn_sim as sim;
pub use sorn_topology as topology;
pub use sorn_traffic as traffic;
