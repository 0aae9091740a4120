//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json`, the README
//! tables and every later performance change use these and no others; a
//! unit test holds `BENCHMARK.json` to them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The end-to-end rate metric this workload reports.
    pub rate: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "mice128",
        rate: "cells_per_s",
        why: "smallest flows on the Fig. 2(f) fabric: per-flow and per-cell fixed costs dominate, queues stay shallow",
    },
    Workload {
        name: "elephant128",
        rate: "cells_per_s",
        why: "the Fig. 2(f) packet-validation point: web-search flows, deep class queues, transmit is most of the run",
    },
    Workload {
        name: "warehouse16k",
        rate: "cells_per_s",
        why: "16 384 nodes under hierarchical routing: decide cost, sparse occupancy words, set-up, teardown and memory",
    },
    Workload {
        name: "faultstorm128",
        rate: "cells_per_s",
        why: "fault storm on a fault-aware SORN: degraded-fabric transmit walk, fault_apply, detours and shed cells",
    },
    Workload {
        name: "horizon64",
        rate: "slots_per_s",
        why: "10^9 slots of sparse diurnal traffic: isolated busy slots between gap jumps, per-slot overhead dominates",
    },
    Workload {
        name: "adapt96",
        rate: "epochs_per_s",
        why: "the section 5 control loop at 96 nodes, no packet engine: topology rebuilds and flow-level evaluation",
    },
    Workload {
        name: "observed128",
        rate: "cells_per_s",
        why: "mice128's inputs with recorder, weather, 1-in-128 tracing, checkpoints and exports: prices observability",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for metrics that carry no bound.
    pub bound: Option<f64>,
    /// A change of at most this much, in the metric's unit, is no change
    /// whatever share of the median it is: set-up stages of a
    /// millisecond and heaps of a few megabytes move by more than their
    /// bound between identical runs.
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        floor,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        floor: 0.0,
    }
}

/// Host-time end-to-end metrics, medians over reps. The bounds follow
/// the spread ten measured runs on ten seeds showed on the 2-core
/// reference box, twice over: 2 to 7 % for the times and rates in one
/// set, 4 to 14 % in the other, 4 % for the memory of `observed128`. A
/// gate tighter than the host's own drift would reject identical code.
/// Every workload
/// reports `e2e_s`, `setup_s`, `peak_rss_mb` and exactly one of the three
/// rates (see [`Workload::rate`]); `work_per_s` is that rate under one
/// name, for tools that need the same metric on every workload.
pub const END_TO_END: [Metric; 7] = [
    e2e("e2e_s", "s", Better::Lower, 0.25, 0.0),
    e2e("setup_s", "s", Better::Lower, 0.25, 0.02),
    e2e("work_per_s", "1/s", Better::Higher, 0.25, 0.0),
    e2e("cells_per_s", "cells/s", Better::Higher, 0.25, 0.0),
    e2e("slots_per_s", "slots/s", Better::Higher, 0.25, 0.0),
    e2e("epochs_per_s", "epochs/s", Better::Higher, 0.25, 0.0),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15, 2.0),
];

/// The four that exist on every workload: what `BENCHMARK.json` lists.
pub const UNIFORM_END_TO_END: [&str; 4] = ["e2e_s", "setup_s", "work_per_s", "peak_rss_mb"];

/// Simulated results: exact per seed, identical across reps, bound 0.
pub const SIMULATED: [Metric; 5] = [
    e2e("failed_frac", "ratio", Better::Lower, 0.0, 0.0),
    e2e("sim_makespan_slots", "slots", Better::Lower, 0.0, 0.0),
    e2e("sim_fct_p99_us", "us", Better::Lower, 0.0, 0.0),
    e2e("sim_mean_hops", "hops", Better::Lower, 0.0, 0.0),
    e2e("sim_adaptive_thpt", "ratio", Better::Higher, 0.0, 0.0),
];

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced rep. `.busy_s` is wall time inside
/// the named public calls, `.calls` and plain names are counts, `_frac`
/// is useful ÷ attempted.
pub const PER_LAYER: [Metric; 72] = [
    layer("topology.build.busy_s", "s", Lower),
    layer("topology.build.calls", "count", Lower),
    layer("topology.logical_topology.busy_s", "s", Lower),
    layer("topology.logical_topology.calls", "count", Lower),
    layer("topology.period_slots", "slots", Lower),
    layer("traffic.generate.busy_s", "s", Lower),
    layer("traffic.flows", "count", Lower),
    layer("traffic.cells", "count", Lower),
    layer("core.build.busy_s", "s", Lower),
    layer("routing.build.busy_s", "s", Lower),
    layer("routing.decide.busy_s", "s", Lower),
    layer("routing.decide.calls", "count", Lower),
    layer("routing.class_admits.calls", "count", Lower),
    layer("routing.class_admits.admit_frac", "ratio", Higher),
    layer("routing.evaluate.busy_s", "s", Lower),
    layer("routing.evaluate.calls", "count", Lower),
    layer("sim.construct.busy_s", "s", Lower),
    layer("sim.add_flows.busy_s", "s", Lower),
    layer("sim.run.busy_s", "s", Lower),
    layer("sim.route.busy_s", "s", Lower),
    layer("sim.route.calls", "count", Lower),
    layer("sim.enqueue.busy_s", "s", Lower),
    layer("sim.enqueue.calls", "count", Lower),
    layer("sim.transmit.busy_s", "s", Lower),
    layer("sim.transmit.calls", "count", Lower),
    layer("sim.deliver.busy_s", "s", Lower),
    layer("sim.deliver.calls", "count", Lower),
    layer("sim.fault_apply.busy_s", "s", Lower),
    layer("sim.fault_apply.calls", "count", Lower),
    layer("sim.other.busy_s", "s", Lower),
    layer("sim.ns_per_cell", "ns", Lower),
    layer("sim.slots", "slots", Lower),
    layer("sim.slots_skipped", "slots", Higher),
    layer("sim.skip_frac", "ratio", Higher),
    layer("sim.transmissions", "count", Lower),
    layer("sim.circuit_util_frac", "ratio", Higher),
    layer("sim.peak_queue_depth", "cells", Lower),
    layer("sim.dropped_cells", "cells", Lower),
    layer("sim.stranded_cells", "cells", Lower),
    layer("sim.failure_slot_frac", "ratio", Lower),
    layer("sim.checkpoint.snapshot.busy_s", "s", Lower),
    layer("sim.checkpoint.write.busy_s", "s", Lower),
    layer("sim.checkpoint.writes", "count", Lower),
    layer("sim.checkpoint.bytes", "bytes", Lower),
    layer("sim.checkpoint.restore.busy_s", "s", Lower),
    layer("sim.teardown.busy_s", "s", Lower),
    layer("control.observe.busy_s", "s", Lower),
    layer("control.end_epoch.busy_s", "s", Lower),
    layer("control.epochs", "count", Lower),
    layer("control.update_frac", "ratio", Lower),
    layer("telemetry.events", "count", Lower),
    layer("telemetry.hop_events", "count", Lower),
    layer("telemetry.finish.busy_s", "s", Lower),
    layer("telemetry.export.busy_s", "s", Lower),
    layer("telemetry.export.bytes", "bytes", Lower),
    layer("telemetry.overhead_frac", "ratio", Lower),
    layer("analysis.report.busy_s", "s", Lower),
    layer("analysis.report.bytes", "bytes", Lower),
    layer("analysis.autopsy.busy_s", "s", Lower),
    layer("bench.process.busy_s", "s", Lower),
    layer("bench.unattributed_frac", "ratio", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    // The simulated results again, so that a single traced run of one
    // workload carries them too.
    layer("failed_frac", "ratio", Lower),
    layer("sim_makespan_slots", "slots", Lower),
    layer("sim_fct_p99_us", "us", Lower),
    layer("sim_mean_hops", "hops", Lower),
    layer("sim_adaptive_thpt", "ratio", Higher),
    // Stage totals: the coarse rows of the ledger.
    layer("stage.setup.busy_s", "s", Lower),
    layer("stage.run.busy_s", "s", Lower),
    layer("stage.report.busy_s", "s", Lower),
    layer("stage.check.busy_s", "s", Lower),
    layer("stage.teardown.busy_s", "s", Lower),
];

/// Per-layer metrics that need two workloads or two kinds of rep, so a
/// run of a single workload cannot report them; `BENCHMARK.json` leaves
/// them out.
pub const CROSS_RUN: [&str; 2] = ["telemetry.overhead_frac", "bench.trace_overhead_frac"];

/// `bench.unattributed_frac` above this fails the run; above
/// [`UNATTRIBUTED_WARN`] (ROADMAP item 1) it warns.
pub const UNATTRIBUTED_FAIL: f64 = 0.10;
pub const UNATTRIBUTED_WARN: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn names(list: &Json) -> Vec<String> {
        list.items()
            .iter()
            .map(|m| m.str("name").unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(END_TO_END.iter().any(|m| m.name == w.rate));
        }
        for m in SIMULATED {
            assert!(PER_LAYER.iter().any(|l| l.name == m.name), "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_uses_these_names_and_bounds() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(members) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            names(doc.get("workloads").unwrap()),
            WORKLOADS.map(|w| w.name.to_string())
        );
        for (listed, ours) in doc.get("workloads").unwrap().items().iter().zip(&WORKLOADS) {
            assert_eq!(listed.str("why").unwrap(), ours.why);
        }
        assert_eq!(
            names(doc.get("end_to_end").unwrap()),
            UNIFORM_END_TO_END.map(str::to_string)
        );
        for listed in doc.get("end_to_end").unwrap().items() {
            let ours = END_TO_END
                .iter()
                .find(|m| m.name == listed.str("name").unwrap())
                .unwrap();
            assert_eq!(listed.str("unit").unwrap(), ours.unit);
            assert_eq!(listed.str("better").unwrap(), ours.better.as_str());
            assert_eq!(listed.num("bound").unwrap(), ours.bound.unwrap());
        }
        let expected: Vec<String> = PER_LAYER
            .iter()
            .filter(|m| !CROSS_RUN.contains(&m.name))
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names(doc.get("per_layer").unwrap()), expected);
        for listed in doc.get("per_layer").unwrap().items() {
            let ours = PER_LAYER
                .iter()
                .find(|m| m.name == listed.str("name").unwrap())
                .unwrap();
            assert_eq!(listed.str("unit").unwrap(), ours.unit);
            assert_eq!(listed.str("better").unwrap(), ours.better.as_str());
        }
        let seconds = doc.num("run_seconds").unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
