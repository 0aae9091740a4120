//! Self-profiling hooks: where does the *simulator's* wall-clock go?
//!
//! The telemetry [`Probe`](crate::Probe) observes simulated behaviour;
//! this module observes the simulator itself. The engine is generic
//! over a [`Profiler`] and brackets each phase of `Engine::step` —
//! routing, flow enqueue, circuit transmission, delivery, schedule
//! reconfiguration, fault application — with a scoped timer. The
//! default [`NoopProfiler`] has `ENABLED = false`, so the timer never
//! reads the clock and the whole mechanism compiles away, mirroring
//! the zero-cost `NoopProbe` contract.
//!
//! This module only defines the contract; whoever times the engine
//! brings the accumulator (the repo benchmark's `PhaseTimes`, in
//! `benchmark/src/instrument.rs`).

use std::time::Instant;

/// The engine phases a [`Profiler`] distinguishes.
///
/// The phases partition `Engine::step` disjointly — no span nests
/// inside another — so summed phase time never exceeds the run's
/// wall-clock time:
///
/// - [`Phase::FaultApply`]: applying due scripted fault events;
/// - [`Phase::Enqueue`]: activating newly arrived flows;
/// - [`Phase::Route`]: a routing pass — every decision over the cells
///   that just arrived off a circuit, or over the cells just injected
///   (or re-routed after a schedule swap), whatever it decides;
/// - [`Phase::Deliver`]: applying one delivered cell to the metrics,
///   the probe and the flow table, once per delivered cell;
/// - [`Phase::Transmit`]: draining queues onto scheduled circuits;
/// - [`Phase::Reconfigure`]: mid-run schedule installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One routing pass over arrivals or injections.
    Route,
    /// Newly arrived flows beginning to inject.
    Enqueue,
    /// Queue drain onto the circuits the schedule has up this slot.
    Transmit,
    /// Applying one delivered cell.
    Deliver,
    /// Mid-run circuit-schedule installation (the §5 update).
    Reconfigure,
    /// Scripted fault events taking effect at a slot boundary.
    FaultApply,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 6] = [
        Phase::Route,
        Phase::Enqueue,
        Phase::Transmit,
        Phase::Deliver,
        Phase::Reconfigure,
        Phase::FaultApply,
    ];

    /// A stable dense index (`0..Phase::COUNT`) for array-backed stores.
    pub fn index(self) -> usize {
        match self {
            Phase::Route => 0,
            Phase::Enqueue => 1,
            Phase::Transmit => 2,
            Phase::Deliver => 3,
            Phase::Reconfigure => 4,
            Phase::FaultApply => 5,
        }
    }

    /// Number of phases.
    pub const COUNT: usize = 6;

    /// The phase's snake_case name, used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Route => "route",
            Phase::Enqueue => "enqueue",
            Phase::Transmit => "transmit",
            Phase::Deliver => "deliver",
            Phase::Reconfigure => "reconfigure",
            Phase::FaultApply => "fault_apply",
        }
    }
}

/// A sink for phase timings, cloned into each [`PhaseSpan`].
///
/// `ENABLED` gates every clock read at compile time: when it is
/// `false` (the [`NoopProfiler`]), spans never call `Instant::now`
/// and `record` is never reached, so the engine's instrumented hot
/// path monomorphizes to exactly the uninstrumented code.
///
/// Implementations use interior mutability (the engine holds the
/// profiler while spans record into clones of it), so `record` takes
/// `&self` and `Clone` is expected to be a cheap handle copy.
pub trait Profiler: Clone {
    /// Whether spans should read the clock at all.
    const ENABLED: bool;

    /// Accepts one completed phase timing.
    fn record(&self, phase: Phase, nanos: u64);

    /// Opens an RAII span: the phase is timed from now until the guard
    /// drops.
    fn span(&self, phase: Phase) -> PhaseSpan<Self> {
        PhaseSpan {
            start: if Self::ENABLED {
                Some(Instant::now())
            } else {
                None
            },
            profiler: self.clone(),
            phase,
        }
    }
}

/// The default profiler: never reads the clock, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProfiler;

impl Profiler for NoopProfiler {
    const ENABLED: bool = false;

    fn record(&self, _phase: Phase, _nanos: u64) {}
}

/// An RAII guard timing one engine phase.
///
/// Created by [`Profiler::span`]; records the elapsed wall-clock time
/// into its profiler on drop. Holds a clone of the profiler rather
/// than a borrow so the engine can keep mutating itself inside the
/// span. For a disabled profiler the guard holds no start time and
/// drops without side effects.
#[derive(Debug)]
pub struct PhaseSpan<F: Profiler> {
    profiler: F,
    phase: Phase,
    start: Option<Instant>,
}

impl<F: Profiler> Drop for PhaseSpan<F> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.profiler
                .record(self.phase, start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectRouter, Engine, Flow, FlowId, NoopProbe, SimConfig};
    use sorn_topology::{builders::round_robin, NodeId};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Clone, Default)]
    struct Recording(Rc<RefCell<Vec<(Phase, u64)>>>);

    impl Profiler for Recording {
        const ENABLED: bool = true;

        fn record(&self, phase: Phase, nanos: u64) {
            self.0.borrow_mut().push((phase, nanos));
        }
    }

    #[test]
    fn span_records_its_phase_on_drop() {
        let p = Recording::default();
        {
            let _span = p.span(Phase::Transmit);
        }
        let log = p.0.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, Phase::Transmit);
    }

    /// The engine's side of the contract, on one real run: spans never
    /// nest (so their sum fits inside the run's wall time), each
    /// delivered cell closes exactly one `Deliver` span — a cell
    /// delivered at its own source included — routing is timed once
    /// per pass rather than once per cell (at most two `Route` spans, one
    /// for arrivals and one for injection, per busy slot), the per-slot
    /// phases all fire, and nothing reconfigures without a swap.
    #[test]
    fn engine_spans_are_disjoint_with_one_deliver_span_per_cell() {
        let schedule = round_robin(8).unwrap();
        let p = Recording::default();
        let start = Instant::now();
        // Seven uplinks inject seven cells per node per slot, but only
        // one of them carries the direct circuit each slot: injected
        // cells far outnumber busy slots.
        let cfg = SimConfig {
            uplinks: 7,
            ..SimConfig::default()
        };
        let mut eng =
            Engine::with_probe_and_profiler(cfg, &schedule, &DirectRouter, NoopProbe, p.clone());
        let flow = |i: u32, src: u32, dst: u32, cells: u64| Flow {
            id: FlowId(i as u64),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: cells * 1250,
            arrival_ns: 0,
        };
        eng.add_flows((0..8u32).map(|i| flow(i, i, (i + 1) % 8, 16)))
            .unwrap();
        eng.add_flows([flow(8, 3, 3, 4)]).unwrap();
        assert!(eng.run_until_drained(100_000).unwrap());
        let wall_ns = start.elapsed().as_nanos() as u64;

        let log = p.0.borrow();
        assert!(log.iter().map(|&(_, ns)| ns).sum::<u64>() <= wall_ns);
        let spans = |phase| log.iter().filter(|&&(p, _)| p == phase).count() as u64;
        let m = eng.metrics();
        assert_eq!(m.delivered_cells, 8 * 16 + 4);
        assert_eq!(spans(Phase::Deliver), m.delivered_cells);
        let busy = m.slots - m.slots_skipped;
        assert!(
            m.injected_cells > 2 * busy,
            "the bound below would be vacuous"
        );
        assert!(
            spans(Phase::Route) <= 2 * busy,
            "{} route spans over {busy} busy slots",
            spans(Phase::Route)
        );
        for phase in [Phase::Transmit, Phase::Enqueue, Phase::Route] {
            assert!(spans(phase) > 0, "{phase:?} never fired");
        }
        assert_eq!(spans(Phase::Reconfigure), 0);
    }

    #[test]
    fn noop_profiler_never_starts_the_clock() {
        let span = NoopProfiler.span(Phase::Route);
        assert!(span.start.is_none());
    }

    #[test]
    fn phase_indices_are_dense_and_names_unique() {
        let mut seen = [false; Phase::COUNT];
        let mut names = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
            assert!(names.insert(p.name()));
        }
        assert!(seen.iter().all(|&s| s));
    }
}
