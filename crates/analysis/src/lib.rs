//! # sorn-analysis
//!
//! Experiment drivers and reporting for the paper's evaluation:
//!
//! - [`table1`]: the Table 1 comparison (Sirius 1D ORN, Opera, 2D ORN,
//!   SORN at Nc = 64 and 32 for a 4096-rack DCN) — generation and
//!   paper-style rendering.
//! - [`fig2f`]: the Figure 2(f) throughput-vs-locality series (theory
//!   and constructed-schedule flow-level evaluation, plus packet-level
//!   validation points).
//! - [`blast`]: the §6 failure blast-radius study (flat VLB vs modular
//!   SORN).
//! - [`resilience`]: dynamic failure-storm comparison — degradation and
//!   recovery-time summaries from the engine's metrics.
//! - [`adaptation`]: the §5 reconfiguration experiment (static vs
//!   adaptive across macro-pattern shifts, with update-cost accounting).
//! - [`render`]: plain-text table rendering shared by the `sorn-cli` commands.
//! - [`timeseries`]: percentile summaries and CSV timelines over the
//!   JSONL run traces that `sorn-telemetry` probes produce.
//! - [`autopsy`]: tail-latency attribution tables over the causal flow
//!   traces (`--trace-flows`) — queueing vs transmission vs
//!   reconfiguration wait at p50/p99/p99.9.

#![warn(missing_docs)]

pub mod adaptation;
pub mod autopsy;
pub mod blast;
pub mod fct;
pub mod fig2f;
pub mod render;
pub mod resilience;
pub mod saturation;
pub mod syncdomains;
pub mod table1;
pub mod timeseries;
