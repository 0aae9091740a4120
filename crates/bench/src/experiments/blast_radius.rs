//! Regenerates the §6 blast-radius ablation: per-flow failure exposure
//! and per-link affected-pair fractions, flat VLB vs modular SORN, across
//! clique counts.

use crate::{header, Args, TelemetryOpts};
use sorn_analysis::blast::blast_radius;
use sorn_analysis::render::TextTable;
use sorn_analysis::timeseries;
use sorn_core::{SornConfig, SornNetwork};
use sorn_routing::{SornPaths, VlbPaths};
use sorn_sim::{Engine, FaultPlan, SimConfig};
use sorn_telemetry::{read_jsonl, IntervalSampler, JsonlTraceSink};
use sorn_topology::{CliqueMap, NodeId};
use sorn_traffic::{spatial::CliqueLocal, FlowSizeDist, PoissonWorkload};

/// `sorn-cli blast_radius [--trace-out <path>] [--sample-interval-ns <n>]`.
pub fn run(args: &mut Args) -> Result<(), String> {
    let telemetry = TelemetryOpts::read(args)?;
    args.reject_unknown()?;
    header("§6 — failure blast radius: flat 1D ORN + VLB vs modular SORN");
    let n = 128;
    println!("network: {n} nodes; exposure = links whose failure can touch a flow\n");

    let mut t = TextTable::new(&[
        "scheme",
        "links used",
        "mean exposure",
        "max exposure",
        "mean affected/link",
        "max affected/link",
    ]);

    let flat = blast_radius(n, &VlbPaths::new(n));
    t.row(vec![
        "flat VLB".into(),
        flat.links.to_string(),
        format!("{:.1}", flat.mean_exposure),
        flat.max_exposure.to_string(),
        format!("{:.4}", flat.mean_affected),
        format!("{:.4}", flat.max_affected),
    ]);

    for cliques in [4, 8, 16, 32] {
        let map = CliqueMap::contiguous(n, cliques);
        let r = blast_radius(n, &SornPaths::new(map));
        t.row(vec![
            format!("SORN Nc={cliques}"),
            r.links.to_string(),
            format!("{:.1}", r.mean_exposure),
            r.max_exposure.to_string(),
            format!("{:.4}", r.mean_affected),
            format!("{:.4}", r.max_affected),
        ]);
    }
    println!("{}", t.render());
    println!("More cliques => smaller cliques => each flow is exposed to fewer");
    println!("links, and the affected set of a failure is confined to the failed");
    println!("element's clique(s) — easing diagnosis, as §6 argues.");

    if let Some(path) = &telemetry.trace_out {
        header("Telemetry: packet run with a mid-run link failure");
        trace_failure_run(path, telemetry.sample_interval_ns)?;
    }
    Ok(())
}

/// Packet-simulates a 32-node SORN under steady load with a scripted
/// [`FaultPlan`] that fails the 0 -> 1 intra-clique link for the middle
/// third of the workload, and writes the sampled time series to `path`
/// — queue depth rises while the link is down and drains after
/// restoration, and the trace carries the fault events themselves.
fn trace_failure_run(path: &std::path::Path, sample_interval_ns: u64) -> Result<(), String> {
    let net = SornNetwork::build(SornConfig::small(32, 4, 0.5)).expect("network");
    let duration_ns = 500_000u64;
    let wl = PoissonWorkload {
        n: 32,
        load: 0.2,
        node_bandwidth_bytes_per_ns: 12.5,
        duration_ns,
        seed: 42,
    };
    let flows = wl.generate(
        &FlowSizeDist::web_search(),
        &CliqueLocal::new(net.cliques().clone(), 0.5),
    );

    let cfg = SimConfig {
        slot_ns: net.config().slot_ns,
        propagation_ns: net.config().propagation_ns,
        uplinks: net.config().uplinks,
        seed: 42,
        ..SimConfig::default()
    };
    let slot_ns = cfg.slot_ns;
    let sink = JsonlTraceSink::create(path)
        .map_err(|e| format!("cannot create --trace-out file {}: {e}", path.display()))?;
    let sampler = IntervalSampler::new(sink, sample_interval_ns);
    let mut eng = Engine::with_probe(cfg, net.schedule(), net.router(), sampler);
    eng.add_flows(flows).expect("flows in range");

    let third_ns = duration_ns / 3;
    let mut plan = FaultPlan::new();
    plan.link_outage(NodeId(0), NodeId(1), third_ns, 2 * third_ns);
    eng.set_fault_plan(plan);
    let drained = eng
        .run_until_drained(duration_ns / slot_ns * 50)
        .expect("drain phase");
    let metrics = eng.metrics().clone();
    let lines = eng.finish().into_sink().finish().expect("flush trace");

    let events = read_jsonl(path).expect("trace must parse back");
    assert_eq!(events.len() as u64, lines);
    let snapshots = timeseries::snapshots_of(&events);
    let last = snapshots.last().expect("final snapshot present");
    assert_eq!(last.delivered_cells, metrics.delivered_cells);
    println!(
        "wrote {lines} events to {} (link 0->1 down for the middle third; drained: {drained})\n",
        path.display()
    );
    println!("{}", timeseries::summary_table(&snapshots).render());
    let peak = snapshots.iter().map(|s| s.queued_cells).max().unwrap_or(0);
    println!("peak sampled queue depth: {peak} cells (watch it rise while the link is down)");
    println!(
        "failure slots: {} of {}; degraded-goodput ratio: {:.3}",
        metrics.failure_slots,
        metrics.slots,
        metrics.degraded_goodput_ratio()
    );
    Ok(())
}
