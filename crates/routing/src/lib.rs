//! # sorn-routing
//!
//! Routing schemes for reconfigurable datacenter networks, in two forms:
//!
//! - **Packet routers** implementing [`sorn_sim::Router`], plugged into
//!   the slot-synchronous simulator: [`VlbRouter`] (flat 2-hop VLB, the
//!   Sirius-style 1D ORN), [`HdimRouter`] (2h-hop routing on
//!   h-dimensional ORN schedules), and [`SornRouter`] (the paper's
//!   semi-oblivious intra/inter-clique scheme).
//! - **Path models** implementing [`PathModel`] for exact flow-level
//!   evaluation ([`flowlevel::evaluate`]): the same schemes as fixed path
//!   distributions, plus Opera's expander paths.
//!
//! The flow-level evaluator is what produces Figure 2(f)'s simulated
//! worst-case-throughput series: load every virtual edge with the
//! scheme's path distribution under a clique-local traffic matrix and
//! report `min_edge capacity/load`.

#![warn(missing_docs)]

mod adaptive;
mod adversarial;
mod fault_aware;
pub mod flowlevel;
mod general;
mod hdim;
mod hierarchical;
mod opera;
mod paths;
mod sorn;
mod vlb;

pub use adaptive::{AdaptiveSornRouter, AdaptiveVlbRouter};
pub use adversarial::{worst_demand_search, AdversarialResult};
pub use fault_aware::{FaultAwareSornRouter, FaultAwareVlbRouter};
pub use flowlevel::{evaluate, DemandMatrix, FlowLevelError, PathModel, ThroughputReport};
pub use general::{GeneralSornRouter, GEN_INTER_ANY, GEN_INTRA_SPRAY};
pub use hdim::{HdimRouter, HDIM_CORRECT, HDIM_SPRAY};
pub use hierarchical::{HierarchicalPaths, HierarchicalRouter, HIER_SPRAY};
pub use opera::{ExpanderPaths, OperaModel, OperaShortRouter, OPERA_SHORT};
pub use paths::{DirectPaths, HdimPaths, SornPaths, VlbPaths};
pub use sorn::{SornRouter, INTRA_SPRAY};
pub use vlb::{VlbRouter, VLB_SPRAY};
