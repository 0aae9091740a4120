//! # sorn-traffic
//!
//! Datacenter workload generation for SORN experiments.
//!
//! §3 of the paper argues that while individual flows are unpredictable,
//! *macro-scale* structure — spatial locality within cliques, aggregated
//! inter-group traffic matrices, and flow-size mixes — is stable and
//! exploitable. This crate generates workloads with exactly those knobs:
//!
//! - [`FlowSizeDist`]: empirical CDF samplers, including the pFabric
//!   web-search and data-mining workloads used by Figure 2(f).
//! - [`spatial`]: destination models — uniform, and clique-local with a
//!   locality ratio `x`.
//! - [`PoissonWorkload`]: open-loop arrivals at a target offered load.
//! - [`FacebookWorkload`]: the cluster-role workload standing in for the
//!   production trace behind Table 1's constants (x = 0.56, 75% short).
//! - [`Trace`]: JSON record/replay of generated workloads.

#![warn(missing_docs)]

mod dist;
mod diurnal;
mod facebook;
pub mod spatial;
mod trace;
mod workload;

pub use dist::{DistError, FlowSizeDist};
pub use diurnal::{DiurnalPattern, DiurnalWorkload};
pub use facebook::{short_volume_share, ClusterRole, FacebookWorkload};
pub use trace::{Trace, TraceFlow};
pub use workload::{empirical_matrix, measured_locality, stats, PoissonWorkload, WorkloadStats};
