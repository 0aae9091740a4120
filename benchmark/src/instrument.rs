//! The per-call side of the traced rep: a `sorn_sim::Profiler` that sums
//! the engine's phases and a wrapper that times `Router::decide`.
//!
//! Untraced reps use `NoopProfiler` and the bare router, so none of this
//! code is in their way; the difference between the two kinds of rep is
//! reported as `bench.trace_overhead_frac`.

use sorn_sim::{Cell, ClassId, NodeRng, Phase, Profiler, RouteDecision, Router};
use sorn_topology::NodeId;
use std::cell::Cell as StdCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Calls and total nanoseconds per engine phase. A cheap shared handle,
/// as `Profiler` requires: the engine records through its clone and the
/// workload reads through its own.
#[derive(Clone, Default)]
pub struct PhaseTimes(Rc<[StdCell<(u64, u64)>; Phase::COUNT]>);

impl Profiler for PhaseTimes {
    const ENABLED: bool = true;

    fn record(&self, phase: Phase, nanos: u64) {
        let slot = &self.0[phase.index()];
        let (calls, total) = slot.get();
        slot.set((calls + 1, total + nanos));
    }
}

impl PhaseTimes {
    /// `(phase, calls, nanoseconds)` since the last call, and resets —
    /// so a run driven in chunks can attribute each chunk's phases to it.
    pub fn take(&self) -> Vec<(Phase, u64, u64)> {
        Phase::ALL
            .iter()
            .map(|&p| {
                let (calls, ns) = self.0[p.index()].replace((0, 0));
                (p, calls, ns)
            })
            .collect()
    }
}

/// Wraps the routing scheme the engine calls: times every `decide`,
/// counts every `class_admits` and how many admitted.
///
/// `Router` is `Sync`, so the counters are atomics; the benchmark runs
/// one engine thread, so they are updated with a plain load and store
/// rather than a locked read-modify-write, which would itself be a
/// measurable share of a `class_admits` call.
pub struct TimedRouter<'a> {
    inner: &'a dyn Router,
    decide_calls: AtomicU64,
    decide_ns: AtomicU64,
    source_delivers: AtomicU64,
    admit_calls: AtomicU64,
    admitted: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

/// What a [`TimedRouter`] saw since the last [`TimedRouter::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounts {
    pub decide_calls: u64,
    pub decide_ns: u64,
    /// `decide` calls that returned `Deliver` for a cell that had not
    /// moved. The engine times those under its deliver phase, every
    /// other `decide` under route; the ledger puts all `decide` time
    /// under route, which is exact as long as this stays 0.
    pub source_delivers: u64,
    pub admit_calls: u64,
    pub admitted: u64,
}

impl<'a> TimedRouter<'a> {
    pub fn new(inner: &'a dyn Router) -> TimedRouter<'a> {
        TimedRouter {
            inner,
            decide_calls: AtomicU64::new(0),
            decide_ns: AtomicU64::new(0),
            source_delivers: AtomicU64::new(0),
            admit_calls: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        }
    }

    pub fn take(&self) -> RouterCounts {
        RouterCounts {
            decide_calls: self.decide_calls.swap(0, Relaxed),
            decide_ns: self.decide_ns.swap(0, Relaxed),
            source_delivers: self.source_delivers.swap(0, Relaxed),
            admit_calls: self.admit_calls.swap(0, Relaxed),
            admitted: self.admitted.swap(0, Relaxed),
        }
    }
}

impl Router for TimedRouter<'_> {
    fn decide(&self, node: NodeId, cell: &mut Cell, rng: &mut NodeRng) -> RouteDecision {
        let start = Instant::now();
        let decision = self.inner.decide(node, cell, rng);
        bump(&self.decide_ns, start.elapsed().as_nanos() as u64);
        bump(&self.decide_calls, 1);
        if decision == RouteDecision::Deliver && cell.hops == 0 {
            bump(&self.source_delivers, 1);
        }
        decision
    }

    fn class_admits(&self, class: ClassId, cell: &Cell, from: NodeId, to: NodeId) -> bool {
        let admits = self.inner.class_admits(class, cell, from, to);
        bump(&self.admit_calls, 1);
        bump(&self.admitted, admits as u64);
        admits
    }

    fn on_transmit(&self, cell: &mut Cell, from: NodeId, to: NodeId) {
        self.inner.on_transmit(cell, from, to);
    }

    fn classes(&self) -> &[ClassId] {
        self.inner.classes()
    }

    fn max_hops(&self) -> u8 {
        self.inner.max_hops()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{DirectRouter, FlowId};

    #[test]
    fn phase_times_sum_and_reset() {
        let p = PhaseTimes::default();
        let engine_side = p.clone();
        engine_side.record(Phase::Transmit, 40);
        engine_side.record(Phase::Transmit, 60);
        engine_side.record(Phase::Route, 5);
        let got = p.take();
        assert!(got.contains(&(Phase::Transmit, 2, 100)));
        assert!(got.contains(&(Phase::Route, 1, 5)));
        assert!(p.take().iter().all(|&(_, calls, ns)| calls == 0 && ns == 0));
    }

    #[test]
    fn timed_router_forwards_and_counts() {
        let inner = DirectRouter;
        let timed = TimedRouter::new(&inner);
        let mut rng = NodeRng::for_node(0, 0);
        let mut cell = Cell {
            flow: FlowId(0),
            seq: 0,
            src: NodeId(0),
            dst: NodeId(3),
            injected_ns: 0,
            hops: 0,
            tag: 0,
        };
        assert_eq!(
            timed.decide(NodeId(0), &mut cell, &mut rng),
            RouteDecision::ToNode(NodeId(3))
        );
        cell.hops = 1;
        assert_eq!(
            timed.decide(NodeId(3), &mut cell, &mut rng),
            RouteDecision::Deliver
        );
        assert!(!timed.class_admits(ClassId(0), &cell, NodeId(0), NodeId(3)));
        assert_eq!(timed.max_hops(), 1);
        assert_eq!(timed.name(), "direct");
        let counts = timed.take();
        assert_eq!(
            (
                counts.decide_calls,
                counts.source_delivers,
                counts.admit_calls,
                counts.admitted
            ),
            (2, 0, 1, 0)
        );
        assert_eq!(timed.take(), RouterCounts::default());
    }
}
