//! The seven workloads. Each builds its inputs from the seed, drives the
//! crates through their public functions with a span around every call
//! that crosses a layer boundary, writes its report files, checks its
//! outputs and tears down — in five top-level stages whose names the
//! ledger prints: `stage.setup`, `stage.run`, `stage.report`,
//! `stage.check`, `stage.teardown`.
//!
//! Sizes are chosen so one rep takes about 3 s on the 2-core reference
//! box; `--smoke` keeps every shape and shrinks every size.

use crate::digest::{metrics_digest, Fnv};
use crate::instrument::{PhaseTimes, TimedRouter};
use crate::trace::{SpanId, Tracer};
use sorn_analysis::adaptation::{run_with_decisions, AdaptationEpoch};
use sorn_analysis::autopsy::TailAutopsy;
use sorn_analysis::fct::{bucketed_slowdown, DEFAULT_BUCKETS};
use sorn_analysis::render::{fmt_latency, fmt_pct, TextTable};
use sorn_analysis::resilience::{resilience_table, ResilienceRow};
use sorn_control::{ControlConfig, ControlLoop, EpochOutcome};
use sorn_core::{model::ideal_q, SornConfig, SornNetwork};
use sorn_routing::{
    evaluate, DemandMatrix, FaultAwareSornRouter, HierarchicalRouter, SornPaths, VlbRouter,
};
use sorn_sim::{
    CheckpointStore, Engine, FaultPlan, FaultStorm, Flow, FlowId, LinkHealth, Metrics, NoopProbe,
    NoopProfiler, Probe, Profiler, Router, SimConfig,
};
use sorn_telemetry::{FlightRecorder, FlowTraceCollector, WeatherProbe};
use sorn_topology::builders::{
    clique_of_cliques, round_robin, sorn_schedule, HierarchySpec, SornScheduleParams,
};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio};
use sorn_traffic::{
    empirical_matrix, spatial::CliqueLocal, DiurnalPattern, DiurnalWorkload, FlowSizeDist,
    PoissonWorkload,
};
use std::path::PathBuf;

/// One output check: a rep with any `ok == false` is a failed rep.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything a workload needs from, and leaves for, the child process.
pub struct Ctx {
    pub t: Tracer,
    pub seed: u64,
    pub smoke: bool,
    /// Also run the independent reference the workload has, if any
    /// (`adapt96`: the analysis crate's own driver). The driver asks the
    /// first rep of each workload for it; the digests tie the rest to it.
    pub reference: bool,
    /// `Some` in a traced rep.
    pub phases: Option<PhaseTimes>,
    pub out_dir: PathBuf,
    pub checks: Vec<Check>,
    /// Per-layer values that are not span totals.
    pub values: Vec<(&'static str, f64)>,
    /// The workload's parameters, for the provenance block.
    pub params: Vec<(&'static str, String)>,
    /// `VmHWM` read before the check stage, whose allocations belong to
    /// the harness.
    pub peak_rss_mb: f64,
}

impl Ctx {
    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Full size, or the smoke size.
    fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    fn timed<'a>(&self, router: &'a dyn Router) -> Option<TimedRouter<'a>> {
        self.phases.is_some().then(|| TimedRouter::new(router))
    }
}

/// What a rep hands back besides its spans.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Units of work the run stage completed: delivered cells, simulated
    /// slots or control epochs, per the workload's rate metric.
    pub work: u64,
    /// Operations offered (flows, or epochs) and how many did not
    /// complete in the simulation; `failed_frac` is their ratio.
    pub offered: u64,
    pub incomplete: u64,
    pub makespan_slots: u64,
    pub fct_p99_us: f64,
    pub mean_hops: f64,
    pub adaptive_thpt: f64,
    pub digest: u64,
}

pub fn run(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    match ctx.phases.clone() {
        Some(phases) => dispatch(name, ctx, phases),
        None => dispatch(name, ctx, NoopProfiler),
    }
}

fn dispatch<F: Profiler>(name: &str, ctx: &mut Ctx, profiler: F) -> Result<Outcome, String> {
    match name {
        "mice128" => mice128(ctx, profiler),
        "elephant128" => elephant128(ctx, profiler),
        "warehouse16k" => warehouse16k(ctx, profiler),
        "faultstorm128" => faultstorm128(ctx, profiler),
        "horizon64" => horizon64(ctx, profiler),
        "adapt96" => adapt96(ctx),
        "observed128" => observed128(ctx, profiler),
        other => Err(format!("unknown workload '{other}'")),
    }
}

// ---------------------------------------------------------------------
// Shared pieces of the packet-level workloads
// ---------------------------------------------------------------------

/// One uplink at the default 1250-byte cell and 100 ns slot.
const NODE_BANDWIDTH_BYTES_PER_NS: f64 = 12.5;
/// Ten cells: the smallest flow any workload offers.
const MICE_BYTES: u64 = 12_500;

/// A generated flow list and what it offers.
struct Offered {
    flows: Vec<Flow>,
    cells: u64,
}

fn generated(ctx: &mut Ctx, cell_bytes: u32, generate: impl FnOnce() -> Vec<Flow>) -> Offered {
    let flows = ctx.t.time("traffic.generate", generate);
    let cells = flows.iter().map(|f| f.cell_count(cell_bytes)).sum();
    ctx.set("traffic.flows", flows.len() as f64);
    ctx.set("traffic.cells", cells as f64);
    Offered { flows, cells }
}

fn poisson(
    ctx: &mut Ctx,
    map: &CliqueMap,
    load: f64,
    duration_ns: u64,
    sizes: FlowSizeDist,
    locality: f64,
    seed: u64,
) -> Offered {
    let workload = PoissonWorkload {
        n: map.n(),
        load,
        node_bandwidth_bytes_per_ns: NODE_BANDWIDTH_BYTES_PER_NS,
        duration_ns,
        seed,
    };
    let spatial = CliqueLocal::new(map.clone(), locality);
    generated(ctx, SimConfig::default().cell_bytes, || {
        workload.generate(&sizes, &spatial)
    })
}

/// The engine configuration a `SornNetwork` simulates itself with.
fn network_sim_config(net: &SornNetwork, seed: u64) -> SimConfig {
    SimConfig {
        slot_ns: net.config().slot_ns,
        propagation_ns: net.config().propagation_ns,
        uplinks: net.config().uplinks,
        seed,
        ..SimConfig::default()
    }
}

/// Constructs the engine and hands it the flows: the last two calls of
/// every packet workload's set-up stage.
fn build_engine<'a, P: Probe, F: Profiler>(
    ctx: &mut Ctx,
    cfg: SimConfig,
    schedule: &'a CircuitSchedule,
    router: &'a dyn Router,
    flows: Vec<Flow>,
    probe: P,
    profiler: F,
) -> Result<Engine<'a, P, F>, String> {
    assert_eq!(cfg.engine_threads, 1, "the benchmark is single-threaded");
    ctx.set("topology.period_slots", schedule.period() as f64);
    let mut eng = ctx.t.time("sim.construct", || {
        Engine::with_probe_and_profiler(cfg, schedule, router, probe, profiler)
    });
    ctx.t
        .time("sim.add_flows", || eng.add_flows(flows))
        .map_err(|e| format!("add_flows: {e}"))?;
    Ok(eng)
}

/// Times one stretch of engine running as a `sim.run` span and, in a
/// traced rep, lays the phases and the router's `decide` time under it.
fn sim_run<T>(ctx: &mut Ctx, timed: Option<&TimedRouter<'_>>, drive: impl FnOnce() -> T) -> T {
    let span = ctx.t.open("sim.run");
    let out = drive();
    ctx.t.close(span);
    record_phases(ctx, span, timed);
    out
}

fn record_phases(ctx: &mut Ctx, run: SpanId, timed: Option<&TimedRouter<'_>>) {
    let Some(phases) = ctx.phases.clone() else {
        return;
    };
    let mut route = None;
    for (phase, calls, ns) in phases.take() {
        if calls > 0 {
            let id = ctx
                .t
                .aggregate(run, &format!("sim.{}", phase.name()), calls, ns);
            if phase == sorn_sim::Phase::Route {
                route = Some(id);
            }
        }
    }
    if let Some(counts) = timed.map(TimedRouter::take) {
        if let Some(route) = route {
            // The clock reads of the wrapper sit inside the engine's
            // route span but outside the wrapper's own interval, so
            // decide can only come out smaller than route.
            ctx.t.aggregate(
                route,
                "routing.decide",
                counts.decide_calls,
                counts.decide_ns,
            );
        }
        ctx.set("routing.class_admits.calls", counts.admit_calls as f64);
        ctx.set("routing.class_admits.admitted", counts.admitted as f64);
        ctx.set(
            "routing.decide.source_delivers",
            counts.source_delivers as f64,
        );
    }
}

/// The engine's state when the run stage ended, for the conservation
/// check; read while the engine is still alive.
struct EndState {
    queued: usize,
    inflight: usize,
    stranded: u64,
    drained: bool,
}

fn end_state<P: Probe, F: Profiler>(eng: &Engine<'_, P, F>, drained: bool) -> EndState {
    EndState {
        queued: eng.total_queued(),
        inflight: eng.inflight_cells(),
        stranded: eng.count_stranded(),
        drained,
    }
}

fn sim_values(ctx: &mut Ctx, m: &Metrics, end: &EndState) {
    let slots = m.slots.max(1) as f64;
    ctx.set("sim.stranded_cells", end.stranded as f64);
    ctx.set("sim.slots", m.slots as f64);
    ctx.set("sim.slots_skipped", m.slots_skipped as f64);
    ctx.set("sim.skip_frac", m.slots_skipped as f64 / slots);
    ctx.set("sim.transmissions", m.transmissions as f64);
    ctx.set("sim.circuit_util_frac", m.circuit_utilization());
    ctx.set("sim.peak_queue_depth", m.peak_queue_depth as f64);
    ctx.set("sim.dropped_cells", m.dropped_cells as f64);
    ctx.set("sim.failure_slot_frac", m.failure_slots as f64 / slots);
    ctx.set("sim.delivered_cells", m.delivered_cells as f64);
}

/// The run report every packet workload writes: headline numbers and the
/// size-bucketed FCT table, rendered by the analysis crate.
fn write_sim_report(
    ctx: &mut Ctx,
    title: &str,
    m: &Metrics,
    cfg: &SimConfig,
    extra: &str,
) -> Result<(), String> {
    let span = ctx.t.open("analysis.report");
    let mut table = TextTable::new(&[
        "size bucket",
        "flows",
        "mean FCT",
        "p99 FCT",
        "mean slowdown",
        "p99 slowdown",
    ]);
    for b in bucketed_slowdown(&m.flows, cfg, &DEFAULT_BUCKETS) {
        table.row(vec![
            format!("[{}, {})", b.lo, b.hi),
            b.flows.to_string(),
            fmt_latency(b.mean_fct_ns),
            fmt_latency(b.p99_fct_ns as f64),
            format!("{:.2}", b.mean_slowdown),
            format!("{:.2}", b.p99_slowdown),
        ]);
    }
    let text = format!(
        "{title}\n\
         slots {} ({} skipped), flows completed {}, cells delivered {} of {} injected, dropped {}\n\
         mean hops {:.4}, circuit utilization {}, cell latency p50 {} p99 {}\n\n{}\n{extra}",
        m.slots,
        m.slots_skipped,
        m.flows.len(),
        m.delivered_cells,
        m.injected_cells,
        m.dropped_cells,
        m.mean_hops(),
        fmt_pct(m.circuit_utilization()),
        fmt_latency(m.cell_latency_p50_ns().unwrap_or(0) as f64),
        fmt_latency(m.cell_latency_p99_ns().unwrap_or(0) as f64),
        table.render(),
    );
    let wrote = write_file(ctx, "report.txt", text.as_bytes());
    ctx.t.close(span);
    ctx.set("analysis.report.bytes", wrote? as f64);
    Ok(())
}

fn write_file(ctx: &Ctx, name: &str, bytes: &[u8]) -> Result<usize, String> {
    let path = ctx.out_dir.join(name);
    std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(bytes.len())
}

fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1000.0)
}

/// The checks every packet workload passes, faults or not.
fn check_accounting(ctx: &mut Ctx, m: &Metrics, end: &EndState) {
    let accounted = m.delivered_cells + m.dropped_cells + end.queued as u64 + end.inflight as u64;
    ctx.check(
        "cell_conservation",
        m.injected_cells == accounted && end.stranded <= end.queued as u64,
        format!(
            "injected {} = delivered {} + dropped {} + queued {} + in flight {}; stranded {} of queued",
            m.injected_cells, m.delivered_cells, m.dropped_cells, end.queued, end.inflight, end.stranded
        ),
    );
    let by_hops: u64 = m.hop_histogram.iter().sum();
    ctx.check(
        "hop_histogram_sums_to_delivered",
        by_hops == m.delivered_cells,
        format!("histogram {by_hops}, delivered {}", m.delivered_cells),
    );
    ctx.check(
        "skipped_within_slots",
        m.slots_skipped <= m.slots,
        format!("skipped {} of {}", m.slots_skipped, m.slots),
    );
    let source_delivers = ctx
        .values
        .iter()
        .filter(|(name, _)| *name == "routing.decide.source_delivers")
        .fold(0.0, |sum, (_, v)| sum + v);
    ctx.check(
        "decide_time_belongs_under_route",
        source_delivers == 0.0,
        format!("{source_delivers} decide calls delivered at the source"),
    );
}

/// On a healthy fabric every offered flow completes and every offered
/// cell is delivered.
fn check_complete(
    ctx: &mut Ctx,
    m: &Metrics,
    offered_flows: usize,
    offered_cells: u64,
    end: &EndState,
) {
    ctx.check(
        "healthy_run_drains_completely",
        end.drained
            && m.flows.len() == offered_flows
            && m.delivered_cells == offered_cells
            && m.dropped_cells == 0,
        format!(
            "drained {}, flows {} of {offered_flows}, cells {} of {offered_cells}, dropped {}",
            end.drained,
            m.flows.len(),
            m.delivered_cells,
            m.dropped_cells
        ),
    );
}

fn packet_outcome(m: &Metrics, offered_flows: usize, work: u64) -> Outcome {
    Outcome {
        work,
        offered: offered_flows as u64,
        incomplete: (offered_flows - m.flows.len().min(offered_flows)) as u64,
        makespan_slots: m.slots,
        fct_p99_us: m.fct_percentile_ns(99.0).unwrap_or(0) as f64 / 1e3,
        mean_hops: m.mean_hops(),
        adaptive_thpt: 0.0,
        digest: metrics_digest(m),
    }
}

/// How a packet workload drives its engine once it is built.
#[derive(Default)]
struct Drive {
    /// Run exactly this many slots first (the fault storm's horizon).
    slots_first: u64,
    /// Then run until drained, for at most this many more slots.
    drain_budget: u64,
    fast_forward: bool,
    faults: Option<(FaultPlan, LinkHealth)>,
    /// Count simulated slots, not delivered cells, as the unit of work.
    work_is_slots: bool,
}

/// Everything after the inputs exist: engine construction (still inside
/// the caller's open set-up stage), run, report, checks, teardown. Shared
/// by the five workloads that attach no probe.
#[allow(clippy::too_many_arguments)]
fn packet_workload<F: Profiler>(
    ctx: &mut Ctx,
    setup: SpanId,
    title: &str,
    cfg: SimConfig,
    schedule: &CircuitSchedule,
    router: &dyn Router,
    offered: Offered,
    drive: Drive,
    profiler: F,
) -> Result<Outcome, String> {
    let timed = ctx.timed(router);
    let router: &dyn Router = match &timed {
        Some(t) => t,
        None => router,
    };
    let offered_flows = offered.flows.len();
    let healthy = drive.faults.is_none();
    let mut eng = build_engine(
        ctx,
        cfg,
        schedule,
        router,
        offered.flows,
        NoopProbe,
        profiler,
    )?;
    if let Some((plan, health)) = drive.faults {
        eng.set_fault_plan(plan);
        eng.set_health_mirror(health);
    }
    eng.set_fast_forward(drive.fast_forward);
    ctx.t.close(setup);

    let run = ctx.t.open("stage.run");
    let drained = sim_run(ctx, timed.as_ref(), || {
        eng.run_slots(drive.slots_first)?;
        eng.run_until_drained(drive.drain_budget)
    })
    .map_err(|e| format!("engine: {e}"))?;
    ctx.t.close(run);
    let end = end_state(&eng, drained);

    let report = ctx.t.open("stage.report");
    let m = eng.metrics();
    sim_values(ctx, m, &end);
    let extra = if healthy {
        String::new()
    } else {
        resilience_table(&[ResilienceRow::from_metrics(title, m)])
    };
    write_sim_report(ctx, title, m, &cfg, &extra)?;
    ctx.t.close(report);
    ctx.peak_rss_mb = read_peak_rss_mb();

    let check = ctx.t.open("stage.check");
    check_accounting(ctx, m, &end);
    if healthy {
        check_complete(ctx, m, offered_flows, offered.cells, &end);
    } else {
        ctx.check(
            "storm_degrades_and_sheds",
            m.failure_slots > 0 && end.drained,
            format!(
                "{} degraded slots, {} episodes, {} cells dropped, drained {}",
                m.failure_slots, m.failure_episodes, m.dropped_cells, end.drained
            ),
        );
    }
    let work = if drive.work_is_slots {
        m.slots
    } else {
        m.delivered_cells
    };
    let outcome = packet_outcome(m, offered_flows, work);
    ctx.t.close(check);

    let teardown = ctx.t.open("stage.teardown");
    ctx.t.time("sim.teardown", || {
        let _ = eng.finish();
    });
    ctx.t.close(teardown);
    Ok(outcome)
}

// ---------------------------------------------------------------------
// mice128, elephant128: the Fig. 2(f) fabric
// ---------------------------------------------------------------------

const FIG2F_NODES: usize = 128;
const FIG2F_CLIQUES: usize = 8;
const FIG2F_LOCALITY: f64 = 0.56;
/// The seed the `fig2f` binary generates its validation traffic with.
const FIG2F_TRAFFIC_SEED: u64 = 42;

fn fig2f_network(ctx: &mut Ctx, q: Option<Ratio>) -> Result<SornNetwork, String> {
    let mut config = SornConfig::small(FIG2F_NODES, FIG2F_CLIQUES, FIG2F_LOCALITY);
    config.q = q;
    ctx.param(
        "fabric",
        format!("SornConfig::small({FIG2F_NODES}, {FIG2F_CLIQUES}, {FIG2F_LOCALITY})"),
    );
    ctx.param("q", config.effective_q().to_f64());
    ctx.t
        .time("core.build", || SornNetwork::build(config))
        .map_err(|e| format!("network: {e}"))
}

/// `mice128`'s inputs; `observed128` uses the same at half the length.
fn mice_inputs(ctx: &mut Ctx, duration_ns: u64) -> Result<(SornNetwork, Offered), String> {
    ctx.param("load", 0.35);
    ctx.param("flow_bytes", MICE_BYTES);
    ctx.param("duration_ns", duration_ns);
    let net = fig2f_network(ctx, None)?;
    let offered = poisson(
        ctx,
        net.cliques(),
        0.35,
        duration_ns,
        FlowSizeDist::fixed(MICE_BYTES),
        FIG2F_LOCALITY,
        ctx.seed,
    );
    Ok((net, offered))
}

fn mice128<F: Profiler>(ctx: &mut Ctx, profiler: F) -> Result<Outcome, String> {
    let duration_ns: u64 = ctx.size(20_000_000, 1_000_000);
    let setup = ctx.t.open("stage.setup");
    let (net, offered) = mice_inputs(ctx, duration_ns)?;
    let cfg = network_sim_config(&net, ctx.seed);
    let drive = Drive {
        drain_budget: 20 * duration_ns / cfg.slot_ns,
        ..Drive::default()
    };
    packet_workload(
        ctx,
        setup,
        "mice128",
        cfg,
        net.schedule(),
        net.router(),
        offered,
        drive,
        profiler,
    )
}

fn elephant128<F: Profiler>(ctx: &mut Ctx, profiler: F) -> Result<Outcome, String> {
    let duration_ns: u64 = ctx.size(2_000_000, 200_000);
    ctx.param("load", 0.3);
    ctx.param("sizes", "web_search");
    ctx.param("traffic_seed", FIG2F_TRAFFIC_SEED);
    ctx.param("duration_ns", duration_ns);
    let setup = ctx.t.open("stage.setup");
    // The figure's sweep caps the denominator of q to keep schedule
    // periods tractable; the validation point inherits that.
    let q = Ratio::approximate(ideal_q(FIG2F_LOCALITY), 64);
    let net = fig2f_network(ctx, Some(q))?;
    // About 600 draws from a heavy-tailed size distribution: between
    // two seeds the cells offered differ by up to 2x, and with them run
    // time, memory and even the rate (spreads of 41 %, 15 % and 23 % over
    // ten seeds). So the traffic is the figure's own sample, seed 42, and
    // `--seed` drives the engine's routing randomness only.
    let offered = poisson(
        ctx,
        net.cliques(),
        0.3,
        duration_ns,
        FlowSizeDist::web_search(),
        FIG2F_LOCALITY,
        FIG2F_TRAFFIC_SEED,
    );
    let cfg = network_sim_config(&net, ctx.seed);
    let drive = Drive {
        drain_budget: 50 * duration_ns / cfg.slot_ns,
        ..Drive::default()
    };
    packet_workload(
        ctx,
        setup,
        "elephant128",
        cfg,
        net.schedule(),
        net.router(),
        offered,
        drive,
        profiler,
    )
}

// ---------------------------------------------------------------------
// warehouse16k
// ---------------------------------------------------------------------

fn warehouse16k<F: Profiler>(ctx: &mut Ctx, profiler: F) -> Result<Outcome, String> {
    const RADICES: [usize; 2] = [128, 128];
    let duration_ns: u64 = ctx.size(25_000, 2_000);
    let n: usize = RADICES.iter().product();
    ctx.param("fabric", format!("clique_of_cliques({RADICES:?})"));
    ctx.param("load", 0.15);
    ctx.param("flow_bytes", MICE_BYTES);
    ctx.param("duration_ns", duration_ns);
    let setup = ctx.t.open("stage.setup");
    let (map, schedule) = ctx.t.time("topology.build", || {
        (
            CliqueMap::contiguous(n, n / RADICES[0]),
            clique_of_cliques(RADICES.to_vec(), 1 << 20),
        )
    });
    let schedule = schedule.map_err(|e| format!("schedule: {e}"))?;
    let router = ctx.t.time("routing.build", || {
        HierarchySpec::new(RADICES.to_vec(), vec![1; RADICES.len()]).map(HierarchicalRouter::new)
    });
    let router = router.map_err(|e| format!("hierarchy: {e}"))?;
    // Nominal load 0.15 keeps the level-0 channel, which gets half the
    // slots, comfortably below saturation.
    let seed = ctx.seed;
    let offered = poisson(
        ctx,
        &map,
        0.15,
        duration_ns,
        FlowSizeDist::fixed(MICE_BYTES),
        0.5,
        seed,
    );
    let cfg = SimConfig {
        seed: ctx.seed,
        ..SimConfig::default()
    };
    // Each targeted hop can wait a full rotation for its circuit.
    let drive = Drive {
        drain_budget: duration_ns / cfg.slot_ns + 12 * schedule.period() as u64,
        ..Drive::default()
    };
    packet_workload(
        ctx,
        setup,
        "warehouse16k",
        cfg,
        &schedule,
        &router,
        offered,
        drive,
        profiler,
    )
}

// ---------------------------------------------------------------------
// faultstorm128
// ---------------------------------------------------------------------

/// Seeded MTBF/MTTR outages on 16 links and one node over the first
/// three quarters of the run, plus the correlated port-group burst of
/// `perf`'s storm fixture: every cross-clique circuit of four adjacent
/// nodes that is not a same-index pair, down for the third quarter.
fn storm_plan(map: &CliqueMap, duration_ns: u64, seed: u64) -> FaultPlan {
    let n = map.n() as u32;
    let members = n / map.cliques() as u32;
    let mut plan = FaultPlan::storm(&FaultStorm {
        seed,
        horizon_ns: 3 * duration_ns / 4,
        mtbf_ns: duration_ns as f64 / 8.0,
        mttr_ns: duration_ns as f64 / 40.0,
        // Two intra-clique neighbour pairs in every clique.
        links: (0..16u32)
            .map(|k| (NodeId(k * n / 16), NodeId(k * n / 16 + 1)))
            .collect(),
        nodes: vec![NodeId(members / 2 + 1)],
    });
    for src in members..members + 4 {
        for dst in 0..n {
            let cross = map.clique_of(NodeId(src)) != map.clique_of(NodeId(dst));
            if cross && src % members != dst % members {
                plan.link_outage(
                    NodeId(src),
                    NodeId(dst),
                    duration_ns / 2,
                    3 * duration_ns / 4,
                );
            }
        }
    }
    plan
}

fn faultstorm128<F: Profiler>(ctx: &mut Ctx, profiler: F) -> Result<Outcome, String> {
    let duration_ns: u64 = ctx.size(12_000_000, 500_000);
    ctx.param("fabric", "sorn_schedule(128 nodes, 8 cliques, q = 3)");
    ctx.param("load", 0.3);
    ctx.param("locality", 0.7);
    ctx.param("flow_bytes", MICE_BYTES);
    ctx.param("duration_ns", duration_ns);
    let setup = ctx.t.open("stage.setup");
    let (map, schedule) = ctx.t.time("topology.build", || {
        let map = CliqueMap::contiguous(128, 8);
        let schedule = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3)));
        (map, schedule)
    });
    let schedule = schedule.map_err(|e| format!("schedule: {e}"))?;
    let health = LinkHealth::new();
    let router = ctx.t.time("routing.build", || {
        FaultAwareSornRouter::new(map.clone(), health.clone())
    });
    let seed = ctx.seed;
    let offered = poisson(
        ctx,
        &map,
        0.3,
        duration_ns,
        FlowSizeDist::fixed(MICE_BYTES),
        0.7,
        seed,
    );
    let plan = storm_plan(&map, duration_ns, ctx.seed);
    ctx.param("fault_events", plan.len());
    let cfg = SimConfig {
        seed: ctx.seed,
        ..SimConfig::default()
    };
    let drive = Drive {
        slots_first: duration_ns / cfg.slot_ns,
        drain_budget: 20 * duration_ns / cfg.slot_ns,
        faults: Some((plan, health)),
        ..Drive::default()
    };
    packet_workload(
        ctx,
        setup,
        "faultstorm128",
        cfg,
        &schedule,
        &router,
        offered,
        drive,
        profiler,
    )
}

// ---------------------------------------------------------------------
// horizon64
// ---------------------------------------------------------------------

fn horizon64<F: Profiler>(ctx: &mut Ctx, profiler: F) -> Result<Outcome, String> {
    const N: usize = 64;
    const FLOW_BYTES: u64 = 125_000;
    let (horizon_ns, flows_per_node): (u64, f64) =
        ctx.size((100_000_000_000, 500.0), (1_000_000_000, 20.0));
    ctx.param("fabric", "round_robin(64), VlbRouter");
    ctx.param("horizon_ns", horizon_ns);
    ctx.param("flows_per_node", flows_per_node);
    ctx.param("flow_bytes", FLOW_BYTES);
    let setup = ctx.t.open("stage.setup");
    let (map, schedule) = ctx.t.time("topology.build", || {
        (CliqueMap::contiguous(N, 8), round_robin(N))
    });
    let schedule = schedule.map_err(|e| format!("schedule: {e}"))?;
    let router = ctx.t.time("routing.build", VlbRouter::new);
    // Sparse enough that busy episodes are islands in an ocean of quiet
    // slots: about `flows_per_node` flows per source over the horizon.
    let mean_load =
        flows_per_node * FLOW_BYTES as f64 / (NODE_BANDWIDTH_BYTES_PER_NS * horizon_ns as f64);
    let workload = DiurnalWorkload {
        cliques: map,
        pattern: DiurnalPattern {
            period_ns: horizon_ns / 10,
            mean_load,
            amplitude: 0.8,
            locality_peak: 0.7,
            locality_trough: 0.2,
        },
        sizes: FlowSizeDist::fixed(FLOW_BYTES),
        node_bandwidth_bytes_per_ns: NODE_BANDWIDTH_BYTES_PER_NS,
        duration_ns: horizon_ns,
        seed: ctx.seed,
    };
    let cfg = SimConfig {
        seed: ctx.seed,
        ..SimConfig::default()
    };
    let offered = generated(ctx, cfg.cell_bytes, || workload.generate());
    // The last arrivals need at most a few rotations to clear.
    let drive = Drive {
        drain_budget: horizon_ns / cfg.slot_ns + 100 * schedule.period() as u64,
        fast_forward: true,
        work_is_slots: true,
        ..Drive::default()
    };
    packet_workload(
        ctx,
        setup,
        "horizon64",
        cfg,
        &schedule,
        &router,
        offered,
        drive,
        profiler,
    )
}

// ---------------------------------------------------------------------
// adapt96
// ---------------------------------------------------------------------

/// All-to-all flows, `heavy` bytes inside a community and `light` across.
fn community_flows(n: u32, group: impl Fn(u32) -> u32, heavy: u64, light: u64) -> Vec<Flow> {
    let mut flows = Vec::with_capacity((n * (n - 1)) as usize);
    for s in 0..n {
        for d in (0..n).filter(|&d| d != s) {
            flows.push(Flow {
                id: FlowId(0),
                src: NodeId(s),
                dst: NodeId(d),
                size_bytes: if group(s) == group(d) { heavy } else { light },
                arrival_ns: 0,
            });
        }
    }
    flows
}

fn adaptation_digest(epochs: &[AdaptationEpoch]) -> u64 {
    let mut h = Fnv::new();
    for e in epochs {
        h.u64(e.epoch as u64);
        h.f64(e.static_throughput);
        h.f64(e.adaptive_throughput);
        h.u64(e.updated as u64);
        h.u64(e.drained_cells);
        h.u64(e.installation_ns);
    }
    h.finish()
}

fn adapt96(ctx: &mut Ctx) -> Result<Outcome, String> {
    // (nodes, cliques, epochs per phase, clique sizes the optimizer may pick)
    let (n, cliques, counts, sizes): (u32, u32, [usize; 3], Vec<usize>) = ctx.size(
        (96, 8, [3, 8, 4], vec![6, 12, 24]),
        (32, 4, [3, 8, 4], vec![4, 8, 16]),
    );
    let q0 = Ratio::integer(4);
    ctx.param("nodes", n);
    ctx.param("cliques", cliques);
    ctx.param("epochs", format!("{counts:?}"));
    ctx.param("allowed_sizes", format!("{sizes:?}"));
    ctx.param("alpha", 0.5);
    ctx.param("q0", 4);

    let setup = ctx.t.open("stage.setup");
    // Phase 1 matches the deployed contiguous cliques, phase 2 scrambles
    // the communities to `v mod cliques`, phase 3 keeps that grouping and
    // weakens its locality. The seed is not used: the schedule the
    // optimizer installs, and with it the cost of every later epoch,
    // swings several-fold on a 2 % change to these sizes, so seeded
    // inputs would measure the seed.
    let phases: Vec<(usize, Vec<Flow>)> = ctx.t.time("traffic.generate", || {
        let per_clique = n / cliques;
        vec![
            (
                counts[0],
                community_flows(n, |v| v / per_clique, 50_000, 500),
            ),
            (counts[1], community_flows(n, |v| v % cliques, 50_000, 500)),
            (
                counts[2],
                community_flows(n, |v| v % cliques, 10_000, 2_000),
            ),
        ]
    });
    ctx.set(
        "traffic.flows",
        phases.iter().map(|(_, f)| f.len()).sum::<usize>() as f64,
    );
    let demands = phases
        .iter()
        .map(|(_, flows)| DemandMatrix::from_rows(empirical_matrix(flows, n as usize)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("demand: {e}"))?;
    let (static_map, static_sched) = ctx.t.time("topology.build", || {
        let map = CliqueMap::contiguous(n as usize, cliques as usize);
        let schedule = sorn_schedule(&map, &SornScheduleParams::with_q(q0));
        (map, schedule)
    });
    let static_sched = static_sched.map_err(|e| format!("schedule: {e}"))?;
    ctx.set("topology.period_slots", static_sched.period() as f64);
    let control = ControlConfig {
        allowed_sizes: sizes,
        alpha: 0.5,
        ..ControlConfig::default()
    };
    let mut ctl = ControlLoop::new(
        control.clone(),
        static_map.clone(),
        q0,
        static_sched.clone(),
    );
    ctx.t.close(setup);

    // Each epoch is scored as analysis::adaptation scores it: the
    // configuration installed before the epoch against the epoch's true
    // demand, rebuilt from its schedule. The static configuration and a
    // phase's demand do not change, so its score is taken once per phase.
    let run = ctx.t.open("stage.run");
    let mut epochs = Vec::new();
    let mut errors = 0u64;
    let score = |t: &mut Tracer, sched: &CircuitSchedule, map: &CliqueMap, demand| {
        let topo = t.time("topology.logical_topology", || sched.logical_topology());
        let model = SornPaths::new(map.clone());
        t.time("routing.evaluate", || evaluate(&topo, &model, demand))
            .map_or(0.0, |r| r.throughput)
    };
    for ((count, flows), demand) in phases.iter().zip(&demands) {
        let static_throughput = score(&mut ctx.t, &static_sched, &static_map, demand);
        for _ in 0..*count {
            let epoch = ctx.t.open("control.epoch");
            let adaptive_throughput = score(&mut ctx.t, ctl.schedule(), ctl.cliques(), demand);
            ctx.t.time("control.observe", || ctl.observe(flows));
            let outcome = ctx.t.time("control.end_epoch", || ctl.end_epoch());
            let (updated, drained_cells, installation_ns) = match outcome {
                Ok(EpochOutcome::Updated { update, .. }) => {
                    (true, update.total_drained, update.installation_ns)
                }
                Ok(_) => (false, 0, 0),
                Err(_) => {
                    errors += 1;
                    (false, 0, 0)
                }
            };
            epochs.push(AdaptationEpoch {
                epoch: epochs.len(),
                static_throughput,
                adaptive_throughput,
                updated,
                drained_cells,
                installation_ns,
            });
            ctx.t.close(epoch);
        }
    }
    ctx.t.close(run);

    let report = ctx.t.open("stage.report");
    let span = ctx.t.open("analysis.report");
    let mut table = TextTable::new(&[
        "epoch",
        "static thpt",
        "adaptive thpt",
        "updated",
        "drained cells",
        "install (ms)",
    ]);
    for e in &epochs {
        table.row(vec![
            e.epoch.to_string(),
            format!("{:.3}", e.static_throughput),
            format!("{:.3}", e.adaptive_throughput),
            if e.updated { "yes" } else { "-" }.to_string(),
            e.drained_cells.to_string(),
            format!("{:.0}", e.installation_ns as f64 / 1e6),
        ]);
    }
    let wrote = write_file(
        ctx,
        "report.txt",
        format!("adapt96\n{}", table.render()).as_bytes(),
    );
    ctx.t.close(span);
    ctx.set("analysis.report.bytes", wrote? as f64);
    ctx.t.close(report);
    ctx.peak_rss_mb = read_peak_rss_mb();

    let check = ctx.t.open("stage.check");
    let total = epochs.len() as u64;
    let updates = epochs.iter().filter(|e| e.updated).count();
    ctx.set("control.epochs", total as f64);
    ctx.set("control.update_frac", updates as f64 / total as f64);
    let post_shift = &epochs[counts[0]..];
    let mean = |f: fn(&AdaptationEpoch) -> f64| {
        post_shift.iter().map(f).sum::<f64>() / post_shift.len() as f64
    };
    let adaptive = mean(|e| e.adaptive_throughput);
    let fixed = mean(|e| e.static_throughput);
    ctx.check(
        "adaptation_pays_after_the_shift",
        errors == 0 && updates > 0 && adaptive > fixed,
        format!("{updates} updates, {errors} errors, post-shift adaptive {adaptive:.4} vs static {fixed:.4}"),
    );
    let digest = adaptation_digest(&epochs);
    if ctx.reference {
        let reference = run_with_decisions(n as usize, cliques as usize, q0, control, &phases)
            .map_err(|e| format!("reference: {e}"))?
            .0;
        ctx.check(
            "epochs_equal_analysis_driver",
            adaptation_digest(&reference) == digest && reference.len() == epochs.len(),
            format!(
                "{} epochs here, {} from run_with_decisions",
                epochs.len(),
                reference.len()
            ),
        );
    }
    ctx.t.close(check);

    let teardown = ctx.t.open("stage.teardown");
    drop((ctl, phases, demands, static_sched));
    ctx.t.close(teardown);
    Ok(Outcome {
        work: total,
        offered: total,
        incomplete: errors,
        makespan_slots: 0,
        fct_p99_us: 0.0,
        mean_hops: 0.0,
        adaptive_thpt: adaptive,
        digest,
    })
}

// ---------------------------------------------------------------------
// observed128
// ---------------------------------------------------------------------

const BLOB_TRACE: &str = "trace";
const BLOB_WEATHER: &str = "weather";
const BLOB_FLIGHT: &str = "flight";

/// What a user attaches to explain a run.
type Observers = (FlowTraceCollector, (WeatherProbe, FlightRecorder));

fn observed128<F: Profiler>(ctx: &mut Ctx, profiler: F) -> Result<Outcome, String> {
    const TRACE_ONE_IN: u64 = 128;
    const WEATHER_TOPK: usize = 32;
    const FLIGHT_RING: usize = 4096;
    let duration_ns: u64 = ctx.size(10_000_000, 500_000);
    let chunk_slots: u64 = ctx.size(40_000, 2_000);
    ctx.param("trace_one_in", TRACE_ONE_IN);
    ctx.param("weather_topk", WEATHER_TOPK);
    ctx.param("flight_ring", FLIGHT_RING);
    ctx.param("checkpoint_every_slots", chunk_slots);

    let setup = ctx.t.open("stage.setup");
    let (net, offered) = mice_inputs(ctx, duration_ns)?;
    let cfg = SimConfig {
        trace_one_in: TRACE_ONE_IN,
        ..network_sim_config(&net, ctx.seed)
    };
    let timed = ctx.timed(net.router());
    let router: &dyn Router = match &timed {
        Some(t) => t,
        None => net.router(),
    };
    let mut observers: Observers = (
        FlowTraceCollector::new(cfg.slot_ns),
        (
            WeatherProbe::new(net.cliques().clone(), WEATHER_TOPK),
            FlightRecorder::new(FLIGHT_RING),
        ),
    );
    let offered_flows = offered.flows.len();
    let mut eng = build_engine(
        ctx,
        cfg,
        net.schedule(),
        router,
        offered.flows,
        &mut observers,
        profiler,
    )?;
    let mut store = CheckpointStore::open(ctx.out_dir.join("checkpoints"))
        .map_err(|e| format!("checkpoint store: {e}"))?;
    ctx.t.close(setup);

    // Run in chunks, snapshotting engine and observers after each, the
    // way a checkpointed production run does.
    let run = ctx.t.open("stage.run");
    let budget = 20 * duration_ns / cfg.slot_ns;
    let mut written = Vec::new();
    while !eng.is_drained() && eng.now_slot() < budget {
        sim_run(ctx, timed.as_ref(), || eng.run_slots(chunk_slots))
            .map_err(|e| format!("engine: {e}"))?;
        let snapshot = ctx.t.time("sim.checkpoint.snapshot", || {
            let mut snapshot = eng.checkpoint();
            let (trace, (weather, flight)) = &**eng.probe();
            snapshot.attach_blob(BLOB_TRACE, trace.to_bytes());
            snapshot.attach_blob(BLOB_WEATHER, weather.to_bytes());
            snapshot.attach_blob(BLOB_FLIGHT, flight.to_bytes());
            snapshot
        });
        let (path, bytes) = ctx
            .t
            .time("sim.checkpoint.write", || store.write(&snapshot))
            .map_err(|e| format!("checkpoint write: {e}"))?;
        written.push((snapshot.slot(), bytes as u64, path));
    }
    let drained = eng.is_drained();

    // Read beside write: the newest generation comes back, observers and
    // all, and must be the engine that wrote it.
    let restore = ctx.t.open("sim.checkpoint.restore");
    let loaded = store
        .load_latest()
        .map_err(|e| format!("load_latest: {e}"))?;
    let blob = |name: &str| {
        loaded
            .snapshot
            .blob(name)
            .ok_or_else(|| format!("checkpoint has no '{name}' blob"))
    };
    let restored_observers: Observers = (
        FlowTraceCollector::from_bytes(blob(BLOB_TRACE)?)?,
        (
            WeatherProbe::from_bytes(blob(BLOB_WEATHER)?, net.cliques().clone())?,
            FlightRecorder::from_bytes(blob(BLOB_FLIGHT)?)?,
        ),
    );
    let restored = Engine::restore_with_probe(
        &loaded.snapshot,
        net.schedule(),
        net.router(),
        restored_observers,
    )
    .map_err(|e| format!("restore: {e}"))?;
    ctx.t.close(restore);
    let restore_matches = restored.metrics() == eng.metrics()
        && restored.now_slot() == eng.now_slot()
        && restored.total_queued() == eng.total_queued()
        && restored.probe().0.len() == eng.probe().0.len();
    let restore_detail = format!(
        "generation at slot {} of {}: {} flows, {} hop events restored; live engine at slot {} has {} and {}",
        loaded.snapshot.slot(),
        loaded.path.display(),
        restored.metrics().flows.len(),
        restored.probe().0.len(),
        eng.now_slot(),
        eng.metrics().flows.len(),
        eng.probe().0.len(),
    );
    drop((restored, loaded));
    ctx.t.close(run);
    let end = end_state(&eng, drained);

    // Closing the run fires the observers' run-end hooks and frees the
    // engine; the metrics outlive it as a copy, as in `perf`.
    let report = ctx.t.open("stage.report");
    let m = eng.metrics().clone();
    ctx.t.time("telemetry.finish", || {
        let _ = eng.finish();
    });
    let (trace, (weather, mut flight)) = observers;
    for (slot, bytes, path) in &written {
        flight.note_checkpoint_written(*slot, *bytes, &path.display().to_string());
    }
    sim_values(ctx, &m, &end);
    ctx.set("sim.checkpoint.writes", written.len() as f64);
    ctx.set(
        "sim.checkpoint.bytes",
        written.iter().map(|(_, bytes, _)| bytes).sum::<u64>() as f64,
    );
    ctx.set("telemetry.events", flight.total_recorded() as f64);
    ctx.set("telemetry.hop_events", trace.len() as f64);
    write_sim_report(ctx, "observed128", &m, &cfg, "")?;

    // One file at a time, as `perf` does: the Chrome trace alone is
    // over 100 MB of text, and holding the exports together would make
    // the harness, not the crates, set the peak heap.
    let export = ctx.t.open("telemetry.export");
    let mut export_bytes = Vec::new();
    let mut export_file = |ctx: &Ctx, name: &'static str, text: String| {
        write_file(ctx, name, text.as_bytes()).map(|bytes| export_bytes.push((name, bytes)))
    };
    export_file(ctx, "weather.txt", weather.render_txt("observed128"))?;
    export_file(ctx, "weather.json", weather.render_json("observed128"))?;
    export_file(
        ctx,
        "trace.json",
        trace.chrome_trace_json(cfg.propagation_ns),
    )?;
    export_file(ctx, "trace.txt", trace.render_all())?;
    export_file(ctx, "flight.jsonl", flight.dump_string())?;
    ctx.t.close(export);
    ctx.set(
        "telemetry.export.bytes",
        export_bytes.iter().map(|(_, b)| *b).sum::<usize>() as f64,
    );

    let autopsy = ctx.t.open("analysis.autopsy");
    let text = TailAutopsy::from_breakdowns(&trace.cell_breakdowns(), 5).render();
    export_bytes.push((
        "autopsy.txt",
        write_file(ctx, "autopsy.txt", text.as_bytes())?,
    ));
    ctx.t.close(autopsy);
    ctx.t.close(report);
    ctx.peak_rss_mb = read_peak_rss_mb();

    let check = ctx.t.open("stage.check");
    check_accounting(ctx, &m, &end);
    check_complete(ctx, &m, offered_flows, offered.cells, &end);
    ctx.check(
        "restored_engine_equals_live",
        restore_matches,
        restore_detail,
    );
    ctx.check(
        "every_export_is_written",
        export_bytes.iter().all(|(_, bytes)| *bytes > 0) && !written.is_empty(),
        format!("{export_bytes:?}, {} checkpoints", written.len()),
    );
    let outcome = packet_outcome(&m, offered_flows, m.delivered_cells);
    ctx.t.close(check);

    let teardown = ctx.t.open("stage.teardown");
    drop((trace, weather, flight, m, store));
    ctx.t.close(teardown);
    Ok(outcome)
}
