//! Timed fault injection: scripted fail/restore events and shared health.
//!
//! A [`FaultPlan`] is an ordered script of [`FaultEvent`]s the engine
//! applies at slot boundaries (see `Engine::set_fault_plan`), turning the
//! static [`FailureSet`](crate::FailureSet) poke-and-look interface into a
//! dynamic failure timeline. Plans are built either explicitly
//! (deterministic outage windows) or stochastically with
//! [`FaultPlan::storm`], which samples exponential time-between-failures
//! and time-to-repair per element from a seed — the MTBF/MTTR model used
//! by the resilience experiments.
//!
//! [`LinkHealth`] is the routing-facing side of the same state: a shared,
//! cheaply clonable snapshot of the current [`FailureSet`] that
//! failure-aware routers consult to detour cells around dead circuits.
//! The engine republishes it whenever its failure set may have changed —
//! a fault event, or a `failures_mut` borrow — before the next slot
//! routes anything.

use crate::config::Nanos;
use crate::failure::FailureSet;
use sorn_base::rng::Rng;
use sorn_topology::NodeId;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// The element a fault event acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A whole node (all its circuits).
    Node(NodeId),
    /// One directed link `src → dst`.
    Link(NodeId, NodeId),
    /// Both directions of a link.
    LinkBidir(NodeId, NodeId),
}

/// Whether the event fails or restores its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The element goes down.
    Fail,
    /// The element comes back.
    Restore,
}

/// One timed fail/restore event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time at which the event takes effect (applied at the
    /// first slot boundary with `slot_start >= at_ns`).
    pub at_ns: Nanos,
    /// Fail or restore.
    pub action: FaultAction,
    /// The element acted on.
    pub target: FaultTarget,
}

impl FaultEvent {
    /// Applies this event to a failure set.
    pub fn apply(&self, failures: &mut FailureSet) {
        match (self.action, self.target) {
            (FaultAction::Fail, FaultTarget::Node(v)) => failures.fail_node(v),
            (FaultAction::Fail, FaultTarget::Link(a, b)) => failures.fail_link(a, b),
            (FaultAction::Fail, FaultTarget::LinkBidir(a, b)) => failures.fail_link_bidir(a, b),
            (FaultAction::Restore, FaultTarget::Node(v)) => failures.restore_node(v),
            (FaultAction::Restore, FaultTarget::Link(a, b)) => failures.restore_link(a, b),
            (FaultAction::Restore, FaultTarget::LinkBidir(a, b)) => {
                failures.restore_link(a, b);
                failures.restore_link(b, a);
            }
        }
    }
}

/// Parameters for a seeded stochastic failure storm.
///
/// Each listed element independently alternates between up and down:
/// up-times are exponential with mean `mtbf_ns`, down-times exponential
/// with mean `mttr_ns`. New failures start only before `horizon_ns`;
/// every failure gets a matching restore event (possibly past the
/// horizon), so a run that continues long enough always ends healthy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStorm {
    /// RNG seed; the generated plan is a pure function of this config.
    pub seed: u64,
    /// No new failures start at or after this time.
    pub horizon_ns: Nanos,
    /// Mean time between failures per element, in nanoseconds.
    pub mtbf_ns: f64,
    /// Mean time to repair per element, in nanoseconds.
    pub mttr_ns: f64,
    /// Links subjected to the storm (failed bidirectionally).
    pub links: Vec<(NodeId, NodeId)>,
    /// Nodes subjected to the storm.
    pub nodes: Vec<NodeId>,
}

/// An ordered script of timed fail/restore events.
///
/// Events are kept sorted by time (stable: ties preserve insertion
/// order), so the engine can apply them with a single cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an event, keeping the script time-sorted (stable on ties).
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        let pos = self.events.partition_point(|e| e.at_ns <= event.at_ns);
        self.events.insert(pos, event);
        self
    }

    /// Schedules a node failure at `at_ns`.
    pub fn fail_node_at(&mut self, at_ns: Nanos, node: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at_ns,
            action: FaultAction::Fail,
            target: FaultTarget::Node(node),
        })
    }

    /// Schedules a node restoration at `at_ns`.
    pub fn restore_node_at(&mut self, at_ns: Nanos, node: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at_ns,
            action: FaultAction::Restore,
            target: FaultTarget::Node(node),
        })
    }

    /// Schedules a directed-link failure at `at_ns`.
    pub fn fail_link_at(&mut self, at_ns: Nanos, src: NodeId, dst: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at_ns,
            action: FaultAction::Fail,
            target: FaultTarget::Link(src, dst),
        })
    }

    /// Schedules a directed-link restoration at `at_ns`.
    pub fn restore_link_at(&mut self, at_ns: Nanos, src: NodeId, dst: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at_ns,
            action: FaultAction::Restore,
            target: FaultTarget::Link(src, dst),
        })
    }

    /// Schedules a directed-link outage over `[from_ns, until_ns)`.
    pub fn link_outage(
        &mut self,
        src: NodeId,
        dst: NodeId,
        from_ns: Nanos,
        until_ns: Nanos,
    ) -> &mut Self {
        self.fail_link_at(from_ns, src, dst)
            .restore_link_at(until_ns, src, dst)
    }

    /// Schedules a node outage over `[from_ns, until_ns)`.
    pub fn node_outage(&mut self, node: NodeId, from_ns: Nanos, until_ns: Nanos) -> &mut Self {
        self.fail_node_at(from_ns, node)
            .restore_node_at(until_ns, node)
    }

    /// The scripted events, time-sorted.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a seeded stochastic failure storm.
    ///
    /// Deterministic: the same [`FaultStorm`] always produces the same
    /// plan. Elements are sampled in listing order from a single RNG
    /// stream derived from `seed`.
    pub fn storm(cfg: &FaultStorm) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let targets: Vec<FaultTarget> = cfg
            .links
            .iter()
            .map(|&(a, b)| FaultTarget::LinkBidir(a, b))
            .chain(cfg.nodes.iter().map(|&v| FaultTarget::Node(v)))
            .collect();
        for target in targets {
            let mut t = 0.0f64;
            loop {
                t += exp_sample(&mut rng, cfg.mtbf_ns);
                if t >= cfg.horizon_ns as f64 {
                    break;
                }
                let down_at = t as Nanos;
                t += exp_sample(&mut rng, cfg.mttr_ns);
                let up_at = t as Nanos;
                plan.push(FaultEvent {
                    at_ns: down_at,
                    action: FaultAction::Fail,
                    target,
                });
                plan.push(FaultEvent {
                    at_ns: up_at.max(down_at + 1),
                    action: FaultAction::Restore,
                    target,
                });
            }
        }
        plan
    }
}

/// Draws an exponential sample with the given mean.
fn exp_sample(rng: &mut Rng, mean_ns: f64) -> f64 {
    // 53 uniform bits in [0, 1).
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    -mean_ns * (1.0 - u).ln()
}

/// A read-only view of a just-applied fault event, handed to
/// [`Probe::on_fault`](crate::Probe::on_fault).
#[derive(Debug, Clone, Copy)]
pub struct FaultView<'a> {
    /// The event that fired.
    pub event: &'a FaultEvent,
    /// The slot at whose boundary the event was applied.
    pub slot: u64,
    /// Simulated time of that boundary.
    pub now_ns: Nanos,
    /// Failed-node count after the event.
    pub failed_nodes: usize,
    /// Failed directed-link count after the event.
    pub failed_links: usize,
}

/// A shared, cheaply clonable view of the current failure state.
///
/// The engine publishes into it (see `Engine::set_health_mirror`); the
/// fault-aware routers in `sorn-routing` read it to steer cells away
/// from dead circuits. This models the paper's §6 observation that
/// recovery needs only local health knowledge: routers see *which*
/// elements are down, not why.
///
/// What a read costs: while the published set is empty, one atomic load
/// of a `degraded` flag and no lock. While it is not, one shared
/// `RwLock` acquisition, after which every question is a
/// [`FailureSet`] bit test. [`LinkHealth::view`] takes that read once so
/// a caller with several questions (a routing decision) pays it once and
/// sees one consistent state; the per-question methods each take their
/// own.
#[derive(Debug, Clone, Default)]
pub struct LinkHealth {
    inner: Arc<HealthState>,
}

#[derive(Debug, Default)]
struct HealthState {
    /// `!failures.is_empty()` as of the last publish, stored under the
    /// write lock after the set itself.
    degraded: AtomicBool,
    failures: RwLock<FailureSet>,
}

/// The failure set a healthy view answers from.
static NO_FAILURES: FailureSet = FailureSet::none();

/// One read of a [`LinkHealth`]: derefs to the published
/// [`FailureSet`], holding the shared lock only when that set was
/// non-empty at the time of the read.
pub struct HealthView<'a>(Option<RwLockReadGuard<'a, FailureSet>>);

impl Deref for HealthView<'_> {
    type Target = FailureSet;

    #[inline]
    fn deref(&self) -> &FailureSet {
        self.0.as_deref().unwrap_or(&NO_FAILURES)
    }
}

impl LinkHealth {
    /// A fully healthy view.
    pub fn new() -> Self {
        LinkHealth::default()
    }

    /// Replaces the published failure state.
    pub fn publish(&self, failures: &FailureSet) {
        let mut set = self.inner.failures.write().expect("health lock");
        set.clone_from(failures);
        self.inner
            .degraded
            .store(!failures.is_empty(), Ordering::Release);
    }

    /// Reads the published state once; see the type docs for the cost.
    #[inline]
    pub fn view(&self) -> HealthView<'_> {
        if self.inner.degraded.load(Ordering::Acquire) {
            HealthView(Some(self.inner.failures.read().expect("health lock")))
        } else {
            HealthView(None)
        }
    }

    /// True when the circuit `src → dst` is believed usable.
    pub fn circuit_up(&self, src: NodeId, dst: NodeId) -> bool {
        self.view().circuit_up(src, dst)
    }

    /// True when `node` is believed failed.
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.view().node_failed(node)
    }

    /// True when nothing is believed failed.
    pub fn is_healthy(&self) -> bool {
        self.view().is_empty()
    }

    /// A copy of the current failure state (for control-plane reports).
    pub fn snapshot(&self) -> FailureSet {
        self.view().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_events_time_sorted() {
        let mut plan = FaultPlan::new();
        plan.fail_link_at(300, NodeId(0), NodeId(1))
            .fail_node_at(100, NodeId(2))
            .restore_node_at(200, NodeId(2));
        let times: Vec<Nanos> = plan.events().iter().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn ties_preserve_insertion_order() {
        let mut plan = FaultPlan::new();
        plan.fail_node_at(100, NodeId(1))
            .restore_node_at(100, NodeId(1));
        assert_eq!(plan.events()[0].action, FaultAction::Fail);
        assert_eq!(plan.events()[1].action, FaultAction::Restore);
    }

    #[test]
    fn events_apply_to_failure_sets() {
        let mut plan = FaultPlan::new();
        plan.node_outage(NodeId(3), 0, 100)
            .link_outage(NodeId(0), NodeId(1), 0, 100);
        let mut fs = FailureSet::none();
        for e in &plan.events()[..2] {
            e.apply(&mut fs);
        }
        assert!(!fs.circuit_up(NodeId(3), NodeId(0)));
        assert!(!fs.circuit_up(NodeId(0), NodeId(1)));
        for e in &plan.events()[2..] {
            e.apply(&mut fs);
        }
        assert!(fs.is_empty());
    }

    #[test]
    fn bidir_restore_clears_both_directions() {
        let mut fs = FailureSet::none();
        FaultEvent {
            at_ns: 0,
            action: FaultAction::Fail,
            target: FaultTarget::LinkBidir(NodeId(4), NodeId(5)),
        }
        .apply(&mut fs);
        assert!(!fs.circuit_up(NodeId(4), NodeId(5)));
        assert!(!fs.circuit_up(NodeId(5), NodeId(4)));
        FaultEvent {
            at_ns: 1,
            action: FaultAction::Restore,
            target: FaultTarget::LinkBidir(NodeId(4), NodeId(5)),
        }
        .apply(&mut fs);
        assert!(fs.is_empty());
    }

    #[test]
    fn storm_is_deterministic_per_seed() {
        let cfg = FaultStorm {
            seed: 9,
            horizon_ns: 1_000_000,
            mtbf_ns: 100_000.0,
            mttr_ns: 20_000.0,
            links: vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))],
            nodes: vec![NodeId(5)],
        };
        let a = FaultPlan::storm(&cfg);
        let b = FaultPlan::storm(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "storm over a long horizon yields events");
        let mut other = cfg.clone();
        other.seed = 10;
        assert_ne!(FaultPlan::storm(&other), a);
    }

    #[test]
    fn storm_pairs_every_failure_with_a_restore() {
        let cfg = FaultStorm {
            seed: 3,
            horizon_ns: 2_000_000,
            mtbf_ns: 50_000.0,
            mttr_ns: 10_000.0,
            links: vec![(NodeId(0), NodeId(1))],
            nodes: vec![],
        };
        let plan = FaultPlan::storm(&cfg);
        let fails = plan
            .events()
            .iter()
            .filter(|e| e.action == FaultAction::Fail)
            .count();
        let restores = plan.len() - fails;
        assert_eq!(fails, restores);
        // Replaying the whole plan leaves everything healthy.
        let mut fs = FailureSet::none();
        for e in plan.events() {
            e.apply(&mut fs);
        }
        assert!(fs.is_empty());
    }

    #[test]
    fn link_health_round_trips_state() {
        let health = LinkHealth::new();
        assert!(health.is_healthy());
        assert!(health.circuit_up(NodeId(0), NodeId(1)));
        let mut fs = FailureSet::none();
        fs.fail_node(NodeId(2));
        fs.fail_link(NodeId(0), NodeId(1));
        health.publish(&fs);
        let clone = health.clone();
        assert!(!clone.circuit_up(NodeId(0), NodeId(1)));
        assert!(clone.node_failed(NodeId(2)));
        assert!(!clone.is_healthy());
        assert_eq!(clone.snapshot(), fs);
        health.publish(&FailureSet::none());
        assert!(clone.is_healthy());
    }

    #[test]
    fn one_view_answers_every_question() {
        let health = LinkHealth::new();
        assert!(health.view().is_empty());
        let mut fs = FailureSet::none();
        fs.fail_node(NodeId(70));
        fs.fail_link(NodeId(1), NodeId(2));
        health.publish(&fs);
        let view = health.view();
        assert!(view.node_failed(NodeId(70)));
        assert!(!view.circuit_up(NodeId(70), NodeId(3)));
        assert!(!view.circuit_up(NodeId(1), NodeId(2)));
        assert!(view.circuit_up(NodeId(2), NodeId(1)));
        assert_eq!(*view, fs);
        drop(view);
        health.publish(&FailureSet::none());
        let view = health.view();
        assert!(view.is_empty() && view.circuit_up(NodeId(1), NodeId(2)));
    }
}
