//! # sorn-base
//!
//! The plumbing every other SORN crate shares, written against `std`
//! alone so the workspace builds from an empty registry:
//!
//! - [`rng`] — the one seeded generator (xoshiro256++ seeded through
//!   SplitMix64) behind every workload, topology and fault storm, plus
//!   the SplitMix64 finalizer the engine's per-node streams use and the
//!   seeded case loop the property tests run on;
//! - [`json`] — a JSON [`Value`](json::Value) with a writer, a parser
//!   and the string escape every hand-written JSON writer calls;
//! - [`bytes`] — the little-endian writer and bounds-checked reader
//!   behind checkpoints and every probe blob they carry.

#![warn(missing_docs)]

pub mod bytes;
pub mod json;
pub mod rng;
