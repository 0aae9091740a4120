//! Resilience under a seeded failure storm (§6 "Practicality
//! benefits"): flat VLB vs modular SORN.
//!
//! The blast-radius study ([`blast_radius`](crate::blast_radius)) argues
//! *statically* that modular SORN confines each flow's failure exposure
//! to its own clique(s). This experiment measures the *dynamic*
//! consequence. Both fabrics carry the *same* workload through the
//! *same* scripted storm (seeded MTBF/MTTR outages over a shared set of
//! links and nodes), with fault-aware routing detouring around dead
//! circuits. The table reports how far goodput degrades while failed
//! and how long each fabric takes to drain its backlog after repairs
//! land, straight from the engine's own degradation counters
//! ([`Metrics`]), so it is consistent with every other report the
//! `sorn-cli` experiments print. Pass `--trace-out <file>` for
//! per-scheme JSONL run traces; `--jobs 2` runs the two fabrics on
//! worker threads (each run is self-contained and seeded, so the table
//! is identical either way); `--engine-threads N` shards the slot phases
//! inside each simulation (also bit-identical at any thread count).
//!
//! A flight recorder always rides along (`--flight-ring N` sizes its
//! ring, a power of two, default 4096); a scheme that trips an anomaly
//! watchdog (the storm's drop spikes usually do) dumps its recent-event
//! ring to `FLIGHT_<scheme>.jsonl` in the working directory.
//!
//! `--trace-flows N` turns on causal flow tracing (roughly one flow in
//! N; 1 traces everything): each scheme prints a tail-autopsy table
//! attributing its slowest traced cells' latency to queueing vs
//! transmission vs reconfiguration wait. `--weather` attaches the
//! bounded-memory network-weather roll-up (per-clique demand/goodput
//! matrices, `--weather-topk K` heavy-hitter sketches, a decimated
//! timeline) and writes `WEATHER_<scheme>.{txt,json}` run reports in
//! the working directory, byte-identical at any `--engine-threads` and
//! across a checkpoint/resume.
//!
//! `--checkpoint-dir DIR` turns on crash-safe checkpointing: both
//! schemes run sequentially, snapshotting engine plus flight-recorder
//! state every `--checkpoint-every N` slots to `DIR/<scheme>/` (two
//! rolling generations). SIGINT/SIGTERM finishes the current slot,
//! writes a final checkpoint, and exits with code 3; `--resume`
//! continues from the newest valid checkpoint and prints the identical
//! table an uninterrupted run would have. Checkpointing composes with
//! `--engine-threads` but not with `--trace-out` (the JSONL sink
//! appends to a file mid-run and cannot be rewound on resume).

use crate::autopsy::TailAutopsy;
use crate::render::{fmt_latency, TextTable};
use crate::{
    drive_checkpointed, header, run_jobs, stop_flag, Args, CheckpointOpts, DriveOutcome, RunMode,
    Task, TelemetryOpts, WeatherOpts, EXIT_INTERRUPTED,
};
use sorn_control::{ControlConfig, ControlLoop, EpochOutcome};
use sorn_routing::{Grouping, SornRouter};
use sorn_sim::{
    Engine, FailureSet, FaultPlan, FaultStorm, Flow, LinkHealth, Metrics, SimConfig, Snapshot,
};
use sorn_telemetry::{
    FlightRecorder, FlowTraceCollector, IntervalSampler, JsonlTraceSink, WeatherProbe,
};
use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio};
use sorn_traffic::{spatial::CliqueLocal, FlowSizeDist, PoissonWorkload};
use std::path::{Path, PathBuf};

/// One scheme's resilience summary, derived from a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// Scheme name (e.g. `"flat-vlb"`, `"sorn"`).
    pub scheme: String,
    /// Cells delivered over the whole run.
    pub delivered: u64,
    /// Cells dropped (queue overflow + shed toward dead destinations).
    pub dropped: u64,
    /// Cells stranded at run end (no route could ever drain them).
    pub stranded: u64,
    /// Distinct failure episodes the run went through.
    pub episodes: u64,
    /// Slots with at least one failed element.
    pub failure_slots: u64,
    /// Goodput while degraded, cells per slot.
    pub goodput_degraded: f64,
    /// Goodput while healthy, cells per slot.
    pub goodput_healthy: f64,
    /// Degraded over healthy goodput (1.0 = unaffected by failures).
    pub degraded_ratio: f64,
    /// Mean time from full repair to backlog drained, when measured.
    pub mean_recovery_ns: Option<f64>,
    /// Worst-case recovery time, when measured.
    pub max_recovery_ns: Option<u64>,
}

impl ResilienceRow {
    /// Summarizes a finished run's metrics under `scheme`.
    pub fn from_metrics(scheme: &str, m: &Metrics) -> Self {
        ResilienceRow {
            scheme: scheme.to_string(),
            delivered: m.delivered_cells,
            dropped: m.dropped_cells,
            stranded: m.stranded_cells,
            episodes: m.failure_episodes,
            failure_slots: m.failure_slots,
            goodput_degraded: m.goodput_during_failure(),
            goodput_healthy: m.goodput_healthy(),
            degraded_ratio: m.degraded_goodput_ratio(),
            mean_recovery_ns: m.mean_recovery_ns(),
            max_recovery_ns: m.max_recovery_ns(),
        }
    }
}

/// Renders rows as the resilience comparison table.
pub fn resilience_table(rows: &[ResilienceRow]) -> String {
    let mut t = TextTable::new(&[
        "scheme",
        "delivered",
        "dropped",
        "stranded",
        "episodes",
        "fail slots",
        "goodput ok",
        "goodput deg",
        "deg ratio",
        "mean recover",
        "max recover",
    ]);
    for r in rows {
        t.row(vec![
            r.scheme.clone(),
            r.delivered.to_string(),
            r.dropped.to_string(),
            r.stranded.to_string(),
            r.episodes.to_string(),
            r.failure_slots.to_string(),
            format!("{:.3}", r.goodput_healthy),
            format!("{:.3}", r.goodput_degraded),
            format!("{:.3}", r.degraded_ratio),
            r.mean_recovery_ns
                .map(fmt_latency)
                .unwrap_or_else(|| "-".to_string()),
            r.max_recovery_ns
                .map(|v| fmt_latency(v as f64))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    t.render()
}

const N: usize = 32;
const CLIQUES: usize = 4;
const DURATION_NS: u64 = 400_000;
const STORM_SEED: u64 = 5;
/// The correlated port-group burst (see [`storm`]).
const BURST_FROM_NS: u64 = 200_000;
const BURST_UNTIL_NS: u64 = 295_000;

/// The per-scheme knobs from the command line.
#[derive(Clone)]
struct Opts {
    /// `--engine-threads`: slot-phase shards inside each simulation.
    engine_threads: usize,
    /// `--weather` / `--weather-topk`: the network-weather roll-up.
    weather: WeatherOpts,
    /// `--flight-ring`: flight-recorder ring capacity (power of two).
    flight_ring: usize,
    /// `--trace-flows`: causal-trace sampling (one flow in N); 0 off.
    trace_flows: u64,
    /// `--trace-out` / `--sample-interval-ns`: per-scheme JSONL traces.
    telemetry: TelemetryOpts,
    /// `--checkpoint-dir` / `--checkpoint-every` / `--resume`.
    ckpt: CheckpointOpts,
}

/// The observers checkpoints carry: an optional causal-trace collector,
/// an optional weather roll-up, and the always-on flight recorder.
type Observers = (
    Option<FlowTraceCollector>,
    (Option<WeatherProbe>, FlightRecorder),
);

/// Builds one scheme's [`Observers`]: fresh, or for a resumed run from
/// the snapshot's sidecar blobs where it has them.
fn observers(
    scheme: &str,
    opts: &Opts,
    map: &CliqueMap,
    snap: Option<&Snapshot>,
) -> Result<Observers, String> {
    let blob = |name| snap.and_then(|s| s.blob(name));
    let bad = |what: &str, e: String| format!("[{scheme}] bad {what} blob in checkpoint: {e}");
    let collector = match blob(BLOB_TRACE) {
        Some(b) => {
            Some(FlowTraceCollector::from_bytes(b).map_err(|e| bad("trace", e.to_string()))?)
        }
        None => {
            (opts.trace_flows > 0).then(|| FlowTraceCollector::new(SimConfig::default().slot_ns))
        }
    };
    let weather = match blob(BLOB_WEATHER) {
        Some(b) => Some(
            WeatherProbe::from_bytes(b, map.clone()).map_err(|e| bad("weather", e.to_string()))?,
        ),
        None => opts
            .weather
            .enabled
            .then(|| WeatherProbe::new(map.clone(), opts.weather.topk)),
    };
    let recorder = match blob(BLOB_FLIGHT) {
        Some(b) => FlightRecorder::from_bytes(b).map_err(|e| bad("flight", e.to_string()))?,
        None => FlightRecorder::new(opts.flight_ring),
    }
    .with_dump_path(format!("FLIGHT_{scheme}.jsonl"));
    Ok((collector, (weather, recorder)))
}

/// Turns one scheme's finished observers into summary messages: the
/// tail-autopsy table for traced runs, the weather run reports, and a
/// pointer to the flight-recorder dump when a watchdog fired.
/// Everything is deterministic at any `--engine-threads`.
fn summarize(scheme: &str, observers: Observers, messages: &mut Vec<String>) {
    let (collector, (weather, mut recorder)) = observers;
    if let Some(c) = collector {
        let autopsy = TailAutopsy::from_breakdowns(&c.cell_breakdowns(), 5);
        messages.push(format!("[{scheme}] traced {} hop events", c.len()));
        for line in autopsy.render().lines() {
            messages.push(format!("  {line}"));
        }
    }
    if let Some(w) = weather {
        let txt_path = PathBuf::from(format!("WEATHER_{scheme}.txt"));
        let json_path = PathBuf::from(format!("WEATHER_{scheme}.json"));
        if let Err(e) = std::fs::write(&txt_path, w.render_txt(scheme))
            .and_then(|()| std::fs::write(&json_path, w.render_json(scheme)))
        {
            eprintln!("resilience: cannot write weather report for {scheme}: {e}");
        } else {
            messages.push(format!(
                "[{scheme}] weather: {} and {}",
                txt_path.display(),
                json_path.display()
            ));
        }
    }
    match recorder.dump_if_anomalous() {
        Ok(Some(path)) => messages.push(format!(
            "[{scheme}] flight recorder: anomaly -> {}",
            path.display()
        )),
        Ok(None) => {}
        Err(e) => eprintln!("resilience: flight-recorder dump for {scheme} failed: {e}"),
    }
}

/// `sorn-cli resilience`; the flags are in the module docs.
pub fn run(args: &mut Args) -> Result<(), String> {
    let jobs: usize = args.count("jobs", 1)?;
    let flight_ring: usize = args.get("flight-ring", sorn_telemetry::DEFAULT_CAPACITY)?;
    if !flight_ring.is_power_of_two() {
        return Err(format!(
            "--flight-ring must be a power of two, got {flight_ring}"
        ));
    }
    let opts = Opts {
        engine_threads: args.count("engine-threads", 1)?,
        weather: WeatherOpts::read(args)?,
        flight_ring,
        trace_flows: args.count("trace-flows", 0)?,
        telemetry: TelemetryOpts::read(args)?,
        ckpt: CheckpointOpts::read(args)?,
    };
    args.reject_unknown()?;
    if opts.ckpt.enabled() && opts.telemetry.trace_out.is_some() {
        return Err("--checkpoint-dir cannot be combined with --trace-out \
                    (the JSONL trace file cannot be rewound on resume)"
            .into());
    }
    header("Resilience: flat VLB vs modular SORN under one failure storm");

    // The per-scheme trace files land next to the `--trace-out` base
    // path; create its directory up front so a fresh results tree
    // doesn't fail deep inside a worker thread.
    if let Some(base) = &opts.telemetry.trace_out {
        if let Some(parent) = base.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create --trace-out directory {}: {e}",
                    parent.display()
                )
            })?;
        }
    }

    let map = CliqueMap::contiguous(N, CLIQUES);
    let q = Ratio::integer(3);
    let flat_sched = round_robin(N).expect("round robin");
    let sorn_sched = sorn_schedule(&map, &SornScheduleParams::with_q(q)).expect("sorn schedule");

    // Sustainable load of short fixed-size flows: with headroom, queues
    // stay shallow while healthy, so the degradation and recovery
    // columns measure the storm rather than a standing backlog.
    let wl = PoissonWorkload {
        n: N,
        load: 0.3,
        node_bandwidth_bytes_per_ns: 12.5,
        duration_ns: DURATION_NS,
        seed: 11,
    };
    let flows = wl.generate(
        &FlowSizeDist::fixed(10 * 1250),
        &CliqueLocal::new(map.clone(), 0.7),
    );
    let plan = storm(&map);
    println!(
        "{N} nodes, {CLIQUES} cliques, {} flows over {DURATION_NS} ns;",
        flows.len()
    );
    println!(
        "storm: {} fail/restore events (seed {STORM_SEED}): clique-0 link + node outages,",
        plan.len()
    );
    println!(
        "plus a correlated port-group burst at 4 clique-2 nodes ({BURST_FROM_NS}-{BURST_UNTIL_NS} ns)\n"
    );

    // Checkpointed runs go sequentially: the two schemes share one stop
    // flag, and a signal mid-suite leaves each scheme's own rolling
    // generations behind for `--resume`.
    let jobs = match &opts.ckpt.dir {
        Some(dir) => {
            if jobs > 1 {
                eprintln!("resilience: --checkpoint-dir runs the schemes sequentially; ignoring --jobs {jobs}");
            }
            eprintln!(
                "resilience: checkpointing to {} every {} slots",
                dir.display(),
                opts.ckpt.every_slots
            );
            1
        }
        None => jobs,
    };
    // Each scheme's closure owns everything it touches (schedule,
    // router, health mirror, flows, plan), so the pair can run on
    // worker threads; messages print after the join, in order.
    let tasks: Vec<Task<_>> = [("flat-vlb", flat_sched), ("sorn", sorn_sched.clone())]
        .into_iter()
        .map(|(scheme, sched)| -> Task<_> {
            let (map, flows, plan, opts) = (map.clone(), flows.clone(), plan.clone(), opts.clone());
            Box::new(move || run_scheme(scheme, &sched, &map, flows, plan, &opts))
        })
        .collect();
    let outcomes = run_jobs(jobs, tasks)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let Some(done) = outcomes.into_iter().collect::<Option<Vec<_>>>() else {
        // Interrupted: the final checkpoint is on disk.
        std::process::exit(EXIT_INTERRUPTED);
    };
    let [(flat, flat_msg), (sorn, sorn_msg)]: [_; 2] =
        done.try_into().expect("one result per scheme");
    for msg in [flat_msg, sorn_msg].into_iter().flatten() {
        println!("{msg}");
    }

    println!(
        "{}",
        resilience_table(&[
            ResilienceRow::from_metrics("flat-vlb", &flat),
            ResilienceRow::from_metrics("sorn", &sorn),
        ])
    );
    println!("Modularity confines the storm: flat VLB sprays through every fabric");
    println!("link, so the port-group burst queues everyone's traffic behind it and");
    println!("goodput visibly dips; SORN never schedules those circuits, keeps its");
    println!("baseline goodput, and drains its (clique-local) backlog far sooner");
    println!("once repairs land.\n");

    control_recovery_demo(&map, q, &sorn_sched, &flows);
    Ok(())
}

/// The shared storm, two parts, both identical for the two fabrics:
///
/// 1. Seeded MTBF/MTTR outages over three clique-0 links (both fabrics
///    schedule them) plus one node.
/// 2. A correlated late burst — four clique-2 nodes lose every uplink
///    toward remote nodes at mismatched intra indices, modeling a
///    failing port group. Flat VLB sprays over all of those circuits,
///    so fabric-wide through-traffic queues behind them; SORN schedules
///    none of them (they are neither intra-clique nor index-matched
///    gateway links), so its exposure is zero by construction.
///
/// How much of one storm each fabric is exposed to is exactly the §6
/// modularity claim, measured dynamically.
fn storm(map: &CliqueMap) -> FaultPlan {
    debug_assert_eq!(map.n(), N);
    let mut plan = FaultPlan::storm(&FaultStorm {
        seed: STORM_SEED,
        horizon_ns: 3 * DURATION_NS / 4,
        mtbf_ns: 100_000.0,
        mttr_ns: 12_000.0,
        links: vec![
            (NodeId(0), NodeId(1)),
            (NodeId(2), NodeId(3)),
            (NodeId(4), NodeId(5)),
        ],
        nodes: vec![NodeId(9)],
    });
    let members = N / CLIQUES;
    for src in 16..20u32 {
        for dst in 0..N as u32 {
            let cross_clique = map.clique_of(NodeId(src)) != map.clique_of(NodeId(dst));
            let index_mismatch = src as usize % members != dst as usize % members;
            if cross_clique && index_mismatch {
                plan.link_outage(NodeId(src), NodeId(dst), BURST_FROM_NS, BURST_UNTIL_NS);
            }
        }
    }
    plan
}

/// Snapshot blob names for the probe state carried across a resume:
/// the causal-trace collector, the weather roll-up, and the flight
/// recorder (so a resumed run's reports and anomaly dump still contain
/// pre-interrupt events).
const BLOB_TRACE: &str = "trace";
const BLOB_WEATHER: &str = "weather";
const BLOB_FLIGHT: &str = "flight";

/// Runs one scheme through the storm, plain or checkpointed to
/// `DIR/<scheme>/` (same metrics either way), and returns its final
/// metrics (stranded count included) plus observer messages to print
/// once every scheme has joined — or `None` when a signal stopped it
/// (its final checkpoint is then on disk) or stopped an earlier scheme.
fn run_scheme(
    scheme: &str,
    schedule: &CircuitSchedule,
    map: &CliqueMap,
    flows: Vec<Flow>,
    plan: FaultPlan,
    opts: &Opts,
) -> Result<Option<(Metrics, Option<String>)>, String> {
    let stop = stop_flag(opts.ckpt.enabled());
    if stop.load(std::sync::atomic::Ordering::SeqCst) {
        return Ok(None);
    }
    let health = LinkHealth::new();
    let grouping = if scheme == "flat-vlb" {
        Grouping::Flat
    } else {
        Grouping::Cliques(map.clone())
    };
    let router = SornRouter::fault_aware(grouping, health.clone());
    let cfg = SimConfig {
        seed: 42,
        engine_threads: opts.engine_threads,
        trace_one_in: opts.trace_flows,
        ..SimConfig::default()
    };
    // Measure exactly the active workload window: letting the run drain
    // to empty would append a low-rate tail of all-healthy slots and
    // skew the healthy-goodput baseline.
    let slots = DURATION_NS / cfg.slot_ns;
    let (mut store, mut resumed) = opts
        .ckpt
        .open(scheme)
        .map_err(|e| format!("[{scheme}] {e}"))?;
    let trace_path = opts
        .telemetry
        .trace_out
        .as_ref()
        .map(|b| suffixed(b, scheme));
    let snap = resumed.as_ref().map(|out| &out.snapshot);
    let observers = observers(scheme, opts, map, snap)?;

    let mut eng = if let Some(out) = &mut resumed {
        // The snapshot carries the flows, the fault plan and the
        // failure state.
        out.snapshot.set_engine_threads(opts.engine_threads);
        Engine::restore_with_probe(&out.snapshot, schedule, &router, (None, observers)).map_err(
            |e| {
                let path = out.path.display();
                format!("[{scheme}] checkpoint {path} does not fit this scenario: {e}")
            },
        )?
    } else {
        let sampler = trace_path
            .as_ref()
            .map(|path| {
                JsonlTraceSink::create(path)
                    .map(|sink| IntervalSampler::new(sink, opts.telemetry.sample_interval_ns))
                    .map_err(|e| format!("cannot create --trace-out file {}: {e}", path.display()))
            })
            .transpose()?;
        let mut eng = Engine::with_probe(cfg, schedule, &router, (sampler, observers));
        eng.set_fault_plan(plan);
        eng.add_flows(flows).expect("flows in range");
        eng
    };
    eng.set_health_mirror(health);
    if let Some(out) = &resumed {
        let (slot, path) = (out.snapshot.slot(), &out.path);
        eprintln!(
            "resilience: [{scheme}] resumed from {} at slot {slot}",
            path.display()
        );
        note_checkpoint_events(
            &mut eng.probe_mut().1,
            Some((slot, path)),
            &out.skipped,
            &[],
        );
    }

    let mut written = Vec::new();
    let outcome = drive_checkpointed(
        &mut eng,
        RunMode::UntilSlot(slots),
        store.as_mut(),
        opts.ckpt.every_slots,
        stop,
        |eng, snap| {
            let (_sampler, (collector, (weather, recorder))) = eng.probe();
            if let Some(c) = collector {
                snap.attach_blob(BLOB_TRACE, c.to_bytes());
            }
            if let Some(w) = weather {
                snap.attach_blob(BLOB_WEATHER, w.to_bytes());
            }
            snap.attach_blob(BLOB_FLIGHT, recorder.to_bytes());
        },
        |slot, path, bytes| written.push((slot, path.to_path_buf(), bytes)),
    )
    .map_err(|e| format!("[{scheme}] {e}"))?;
    note_checkpoint_events(&mut eng.probe_mut().1, None, &[], &written);
    if let DriveOutcome::Interrupted { slot, path } = outcome {
        let wrote = path.map_or(String::new(), |p| format!("; wrote {}", p.display()));
        eprintln!("resilience: [{scheme}] interrupted at slot {slot}{wrote}; rerun with --resume");
        return Ok(None);
    }

    let mut metrics = eng.metrics().clone();
    metrics.stranded_cells = eng.count_stranded();
    let (sampler, observers) = eng.finish();
    let mut messages = Vec::new();
    if let (Some(sampler), Some(path)) = (sampler, &trace_path) {
        let lines = sampler
            .into_sink()
            .finish()
            .map_err(|e| format!("cannot flush --trace-out file {}: {e}", path.display()))?;
        messages.push(format!(
            "[{scheme}] wrote {lines} trace events to {}",
            path.display()
        ));
    }
    summarize(scheme, observers, &mut messages);
    let msg = (!messages.is_empty()).then(|| messages.join("\n"));
    Ok(Some((metrics, msg)))
}

/// Mirrors checkpoint lifecycle events into the flight recorder. Fired
/// by this driver, never by the engine, so the table stays bit-identical
/// with checkpointing on or off.
fn note_checkpoint_events(
    observers: &mut Observers,
    restored: Option<(u64, &Path)>,
    skipped: &[(PathBuf, String)],
    written: &[(u64, PathBuf, usize)],
) {
    let (_collector, (_weather, recorder)) = observers;
    for (path, reason) in skipped {
        recorder.note_checkpoint_corrupt_skipped(&path.display().to_string(), reason);
    }
    if let Some((slot, path)) = restored {
        recorder.note_checkpoint_restored(slot, &path.display().to_string());
    }
    for (slot, path, bytes) in written {
        recorder.note_checkpoint_written(*slot, *bytes as u64, &path.display().to_string());
    }
}

/// `base.jsonl` + `tag` -> `base.<tag>.jsonl`.
fn suffixed(base: &Path, tag: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    base.with_file_name(format!("{stem}.{tag}.{ext}"))
}

/// The control-plane half of recovery: feed the loop the storm's
/// failure set so it masks dead demand out of the optimizer, and force
/// two installation failures to show the bounded retry/backoff path.
fn control_recovery_demo(map: &CliqueMap, q: Ratio, schedule: &CircuitSchedule, flows: &[Flow]) {
    header("Control plane: failure masking + bounded install retries");
    let mut cfg = ControlConfig::default();
    cfg.allowed_sizes = vec![4, 8];
    let mut ctl = ControlLoop::new(cfg, map.clone(), q, schedule.clone());
    ctl.observe(flows);

    let mut failures = FailureSet::none();
    failures.fail_node(NodeId(9));
    failures.fail_link(NodeId(0), NodeId(1));
    ctl.report_failures(&failures);
    ctl.inject_install_failures(2);

    let outcome = ctl.end_epoch().expect("epoch");
    let label = match outcome {
        EpochOutcome::NoPlan => "no plan".to_string(),
        EpochOutcome::Held { current, candidate } => {
            format!("held (current {current:.3}, candidate {candidate:.3})")
        }
        EpochOutcome::Updated { throughput, .. } => {
            format!("updated (modeled throughput {throughput:.3})")
        }
        EpochOutcome::InstallFailed {
            attempts,
            candidate,
        } => format!("install failed after {attempts} attempts (candidate {candidate:.3})"),
    };
    println!("epoch outcome: {label}");
    let record = ctl.decisions().records.last().expect("decision recorded");
    let fr = record
        .failure_response
        .as_ref()
        .expect("failure response recorded");
    println!(
        "failed nodes {:?}, failed links {:?}; {:.1}% of estimated demand masked",
        fr.failed_nodes,
        fr.failed_links,
        fr.masked_demand_fraction * 100.0
    );
    println!(
        "install attempts: {}, modeled retry backoff: {} ns, gave up: {}",
        fr.install_attempts, fr.install_backoff_ns, fr.gave_up
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        let mut m = Metrics::default();
        m.slots = 100;
        m.delivered_cells = 100;
        m.delivered_during_failure = 10;
        m.failure_slots = 20;
        m.failure_episodes = 2;
        m.dropped_cells = 3;
        m.stranded_cells = 4;
        m.recovery_times_ns = vec![1_000, 3_000];
        m
    }

    #[test]
    fn row_mirrors_metrics() {
        let r = ResilienceRow::from_metrics("sorn", &metrics());
        assert_eq!(r.scheme, "sorn");
        assert_eq!(r.delivered, 100);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.stranded, 4);
        assert_eq!(r.episodes, 2);
        assert_eq!(r.failure_slots, 20);
        assert!((r.goodput_healthy - 1.125).abs() < 1e-12);
        assert!((r.goodput_degraded - 0.5).abs() < 1e-12);
        assert!((r.degraded_ratio - 0.5 / 1.125).abs() < 1e-12);
        assert_eq!(r.mean_recovery_ns, Some(2_000.0));
        assert_eq!(r.max_recovery_ns, Some(3_000));
    }

    #[test]
    fn table_renders_all_schemes_and_dashes_when_unmeasured() {
        let healthy = ResilienceRow::from_metrics("flat-vlb", &Metrics::default());
        let degraded = ResilienceRow::from_metrics("sorn", &metrics());
        let text = resilience_table(&[healthy, degraded]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + rule + 2 rows");
        assert!(lines[0].starts_with("scheme"));
        assert!(lines[2].starts_with("flat-vlb"));
        assert!(lines[2].contains("-"), "unmeasured recovery renders as -");
        assert!(lines[3].starts_with("sorn"));
        assert!(lines[3].contains("2.00 us"), "{text}");
    }
}
