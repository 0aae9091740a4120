//! Routing ablation: what each piece of the design buys.
//!
//! Compares pure 2-hop VLB, queue-adaptive (direct-first) VLB, SORN, and
//! queue-adaptive SORN on the same fabric across three axes DESIGN.md
//! calls out: bandwidth tax at low load, packet-measured saturation
//! load, and worst-case (flow-level) throughput.
//!
//! The saturation column is a packet-level search for the largest
//! offered load a network sustains in steady state. The flow-level
//! evaluator gives exact worst-case throughput; this search measures the
//! *achieved* packet-level counterpart. A load is "sustained" when, over
//! a measurement window following a warmup, the backlog (queued +
//! in-flight cells) stays bounded relative to the arrival rate — the
//! standard open-loop stability criterion. Bisection over the load then
//! brackets the saturation point.

use crate::render::TextTable;
use crate::{header, Args};
use sorn_base::rng::Rng;
use sorn_core::model::ideal_q;
use sorn_routing::{Grouping, SornRouter};
use sorn_sim::{Engine, Flow, FlowId, Router, SimConfig};
use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio};

/// A source of workloads at a given offered load.
pub trait LoadedWorkload {
    /// Generates the flow list for offered load `load` (fraction of node
    /// bandwidth).
    fn flows_at(&self, load: f64) -> Vec<Flow>;
    /// Workload duration in nanoseconds.
    fn duration_ns(&self) -> u64;
}

/// Outcome of one stability probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityProbe {
    /// Offered load tested.
    pub load: f64,
    /// True when the backlog stayed bounded.
    pub stable: bool,
    /// Cells still in the system at the end of the arrival window.
    pub backlog_cells: usize,
    /// Cells delivered during the window.
    pub delivered_cells: u64,
}

/// Result of a saturation search.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationResult {
    /// Largest load measured stable.
    pub stable_load: f64,
    /// Smallest load measured unstable (`None` if every probe was
    /// stable up to the upper bound).
    pub unstable_load: Option<f64>,
    /// All probes, in evaluation order.
    pub probes: Vec<StabilityProbe>,
}

/// Probes whether `load` is sustainable on (`schedule`, `router`).
///
/// Runs the workload's full arrival window and then compares the
/// remaining backlog to `slack` times the per-slot arrival volume: a
/// stable system's backlog is O(queueing noise), an unstable one's grows
/// linearly with the window.
pub fn probe_stability(
    schedule: &CircuitSchedule,
    router: &dyn Router,
    cfg: SimConfig,
    workload: &dyn LoadedWorkload,
    load: f64,
    slack_slots: u64,
) -> StabilityProbe {
    let flows = workload.flows_at(load);
    let duration = workload.duration_ns();
    let mut eng = Engine::new(cfg, schedule, router);
    eng.add_flows(flows)
        .expect("workload within network bounds");
    let slots = duration / cfg.slot_ns;
    eng.run_slots(slots).expect("probe run");

    // Arrival volume per slot ~ load * uplinks cells; allow `slack_slots`
    // worth of backlog before declaring instability.
    let n = schedule.n() as f64;
    let per_slot = load * cfg.uplinks as f64 * n;
    let budget = (per_slot * slack_slots as f64).max(64.0);
    let backlog = eng.total_queued();
    StabilityProbe {
        load,
        stable: (backlog as f64) < budget,
        backlog_cells: backlog,
        delivered_cells: eng.metrics().delivered_cells,
    }
}

/// Bisection search for the saturation load within `[lo, hi]`.
///
/// `iterations` bisection steps after probing both endpoints; each probe
/// simulates the full workload window, so keep workloads short.
#[allow(clippy::too_many_arguments)] // an experiment driver: all knobs are real
pub fn find_saturation(
    schedule: &CircuitSchedule,
    router: &dyn Router,
    cfg: SimConfig,
    workload: &dyn LoadedWorkload,
    lo: f64,
    hi: f64,
    iterations: usize,
    slack_slots: u64,
) -> SaturationResult {
    assert!(lo > 0.0 && lo < hi && hi <= 1.0, "need 0 < lo < hi <= 1");
    let mut probes = Vec::new();
    let mut stable = lo;
    let mut unstable = None;

    let lo_probe = probe_stability(schedule, router, cfg, workload, lo, slack_slots);
    let lo_stable = lo_probe.stable;
    probes.push(lo_probe);
    if !lo_stable {
        return SaturationResult {
            stable_load: 0.0,
            unstable_load: Some(lo),
            probes,
        };
    }
    let hi_probe = probe_stability(schedule, router, cfg, workload, hi, slack_slots);
    let hi_stable = hi_probe.stable;
    probes.push(hi_probe);
    if hi_stable {
        return SaturationResult {
            stable_load: hi,
            unstable_load: None,
            probes,
        };
    }
    let mut lo = lo;
    let mut hi = hi;
    unstable.replace(hi);
    for _ in 0..iterations {
        let mid = (lo + hi) / 2.0;
        let p = probe_stability(schedule, router, cfg, workload, mid, slack_slots);
        let mid_stable = p.stable;
        probes.push(p);
        if mid_stable {
            stable = mid;
            lo = mid;
        } else {
            unstable = Some(mid);
            hi = mid;
        }
    }
    SaturationResult {
        stable_load: stable,
        unstable_load: unstable,
        probes,
    }
}

const N: usize = 32;
const X: f64 = 0.56;

/// Clique-local deterministic workload at a given load.
struct CliqueWorkload {
    cliques: CliqueMap,
    duration_ns: u64,
}

impl LoadedWorkload for CliqueWorkload {
    fn flows_at(&self, load: f64) -> Vec<Flow> {
        use sorn_traffic::spatial::{CliqueLocal, SpatialModel};
        let mut rng = Rng::seed_from_u64(77);
        let spatial = CliqueLocal::new(self.cliques.clone(), X);
        let slots = self.duration_ns / 100;
        let mut flows = Vec::new();
        let mut id = 0u64;
        for s in 0..self.cliques.n() as u32 {
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.gen::<f64>().max(1e-300);
                t += -u.ln() / load;
                if t as u64 >= slots {
                    break;
                }
                flows.push(Flow {
                    id: FlowId(id),
                    src: NodeId(s),
                    dst: spatial.pick_dst(NodeId(s), &mut rng),
                    size_bytes: 1250,
                    arrival_ns: (t as u64) * 100,
                });
                id += 1;
            }
        }
        flows.sort_by_key(|f| f.arrival_ns);
        flows
    }
    fn duration_ns(&self) -> u64 {
        self.duration_ns
    }
}

fn low_load_tax(
    schedule: &CircuitSchedule,
    router: &dyn Router,
    wl: &CliqueWorkload,
) -> (f64, f64) {
    let mut eng = Engine::new(SimConfig::default(), schedule, router);
    eng.add_flows(wl.flows_at(0.1)).unwrap();
    eng.run_until_drained(10_000_000).unwrap();
    (
        eng.metrics().mean_hops(),
        eng.metrics().mean_fct_ns() / 1000.0,
    )
}

/// `sorn-cli ablation_routing` (no flags).
pub fn run(args: &mut Args) -> Result<(), String> {
    args.reject_unknown()?;
    header("Routing ablation: bandwidth tax, latency, and saturation");
    println!("fabric: {N} nodes; clique designs use 4 cliques, x = {X}\n");

    let flat = round_robin(N).unwrap();
    let map = CliqueMap::contiguous(N, 4);
    let q = Ratio::approximate(ideal_q(X), 64);
    let sorn_sched = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
    let wl = CliqueWorkload {
        cliques: map.clone(),
        duration_ns: 300_000,
    };

    let vlb = SornRouter::flat();
    let avlb = SornRouter::direct_first(Grouping::Flat, 4);
    let sorn = SornRouter::new(map.clone());
    let asorn = SornRouter::direct_first(Grouping::Cliques(map.clone()), 4);

    let mut t = TextTable::new(&[
        "scheme",
        "mean hops @ load 0.1",
        "mean FCT (us) @ 0.1",
        "saturation load (measured)",
    ]);

    let cases: Vec<(&str, &CircuitSchedule, &dyn Router)> = vec![
        ("flat + VLB", &flat, &vlb),
        ("flat + adaptive VLB", &flat, &avlb),
        ("SORN", &sorn_sched, &sorn),
        ("SORN + adaptive intra", &sorn_sched, &asorn),
    ];

    for (name, sched, router) in cases {
        let (hops, fct) = low_load_tax(sched, router, &wl);
        let sat = find_saturation(sched, router, SimConfig::default(), &wl, 0.15, 0.85, 4, 60);
        t.row(vec![
            name.into(),
            format!("{hops:.2}"),
            format!("{fct:.1}"),
            format!("{:.2}", sat.stable_load),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: adaptive (direct-first) routing removes the spray tax at");
    println!("low load; SORN's clique schedule turns the locality into throughput;");
    println!("combining both gives the lowest tax without losing the guarantees.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform single-cell flows at a controllable rate.
    struct UniformCells {
        n: usize,
        duration_ns: u64,
    }

    impl LoadedWorkload for UniformCells {
        fn flows_at(&self, load: f64) -> Vec<Flow> {
            // Deterministic arrivals: each node emits one cell every
            // 1/load slots, destinations round-robin.
            let slots = self.duration_ns / 100;
            let gap = (1.0 / load).max(1.0);
            let mut flows = Vec::new();
            let mut id = 0;
            for s in 0..self.n as u32 {
                let mut t = 0.0f64;
                let mut k = 1u32;
                while (t as u64) < slots {
                    let d = (s + k) % self.n as u32;
                    if d != s {
                        flows.push(Flow {
                            id: FlowId(id),
                            src: NodeId(s),
                            dst: NodeId(d),
                            size_bytes: 1250,
                            arrival_ns: (t as u64) * 100,
                        });
                        id += 1;
                    }
                    k = (k % (self.n as u32 - 1)) + 1;
                    t += gap;
                }
            }
            flows
        }
        fn duration_ns(&self) -> u64 {
            self.duration_ns
        }
    }

    #[test]
    fn vlb_saturates_near_one_half() {
        // Uniform traffic on a round robin with 2-hop VLB: theory says
        // loads below ~0.5 are stable and above are not.
        let n = 16;
        let sched = round_robin(n).unwrap();
        let router = SornRouter::flat();
        let wl = UniformCells {
            n,
            duration_ns: 400_000,
        };
        let cfg = SimConfig::default();
        let res = find_saturation(&sched, &router, cfg, &wl, 0.2, 0.9, 4, 40);
        assert!(
            res.stable_load >= 0.35 && res.stable_load <= 0.62,
            "saturation at {} (probes: {:?})",
            res.stable_load,
            res.probes
        );
        assert!(res.unstable_load.is_some());
    }

    #[test]
    fn low_load_probe_is_stable_and_high_load_is_not() {
        let n = 8;
        let sched = round_robin(n).unwrap();
        let router = SornRouter::flat();
        let wl = UniformCells {
            n,
            duration_ns: 300_000,
        };
        let cfg = SimConfig::default();
        let low = probe_stability(&sched, &router, cfg, &wl, 0.2, 40);
        assert!(low.stable, "{low:?}");
        let high = probe_stability(&sched, &router, cfg, &wl, 0.95, 40);
        assert!(!high.stable, "{high:?}");
        assert!(high.backlog_cells > low.backlog_cells);
    }
}
