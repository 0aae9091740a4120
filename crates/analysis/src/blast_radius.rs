//! Failure blast radius (§6 "Practicality benefits").
//!
//! Flat oblivious designs spray every flow over every link, so any link
//! failure can touch flows between *any* source-destination pair. A
//! modular semi-oblivious design confines most paths inside cliques,
//! shrinking the set of pairs a single failure affects. This module
//! quantifies that: for each directed virtual link, the fraction of
//! source-destination pairs whose routing path-set uses the link.
//!
//! `sorn-cli blast_radius` prints per-flow exposure and per-link
//! affected-pair fractions, flat VLB vs modular SORN, across clique
//! counts.

use crate::render::TextTable;
use crate::timeseries::{self, trace_run};
use crate::{header, Args, TelemetryOpts};
use sorn_core::{SornConfig, SornNetwork};
use sorn_routing::{PathModel, SornPaths};
use sorn_sim::{Engine, FaultPlan, SimConfig};
use sorn_topology::{CliqueMap, NodeId};
use sorn_traffic::{spatial::CliqueLocal, FlowSizeDist, PoissonWorkload};
use std::collections::HashMap;

/// Blast-radius statistics over all directed virtual links.
#[derive(Debug, Clone, PartialEq)]
pub struct BlastReport {
    /// Scheme name.
    pub scheme: String,
    /// Links observed in any path.
    pub links: usize,
    /// Mean over links of the fraction of pairs using the link.
    pub mean_affected: f64,
    /// Worst-case (max over links) fraction of pairs using a link.
    pub max_affected: f64,
    /// Mean over src-dst pairs of the number of distinct links whose
    /// failure can touch the pair (the pair's failure *exposure*). This
    /// is where modularity shows: a flat VLB flow is exposed to
    /// `~2(n-1)` links anywhere in the fabric, while a SORN flow is
    /// exposed only to links of its own clique(s).
    pub mean_exposure: f64,
    /// Worst-case exposure over pairs.
    pub max_exposure: usize,
}

/// Computes the blast radius of `model` over an `n`-node network: for
/// every ordered pair, mark each directed link appearing in *any* of the
/// pair's paths; report per-link affected-pair fractions.
pub fn blast_radius(n: usize, model: &dyn PathModel) -> BlastReport {
    let mut affected: HashMap<(u32, u32), u64> = HashMap::new();
    let pairs = (n * (n - 1)) as f64;
    let mut edges_of_pair: Vec<(u32, u32)> = Vec::new();
    let mut exposure_sum = 0u64;
    let mut exposure_max = 0usize;
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s == d {
                continue;
            }
            edges_of_pair.clear();
            model.for_each_path(NodeId(s), NodeId(d), &mut |path, _| {
                for w in path.windows(2) {
                    edges_of_pair.push((w[0].0, w[1].0));
                }
            });
            edges_of_pair.sort_unstable();
            edges_of_pair.dedup();
            exposure_sum += edges_of_pair.len() as u64;
            exposure_max = exposure_max.max(edges_of_pair.len());
            for &e in &edges_of_pair {
                *affected.entry(e).or_insert(0) += 1;
            }
        }
    }
    let links = affected.len();
    let mut mean = 0.0;
    let mut max = 0.0f64;
    for &c in affected.values() {
        let f = c as f64 / pairs;
        mean += f;
        max = max.max(f);
    }
    if links > 0 {
        mean /= links as f64;
    }
    BlastReport {
        scheme: model.name().to_string(),
        links,
        mean_affected: mean,
        max_affected: max,
        mean_exposure: exposure_sum as f64 / pairs,
        max_exposure: exposure_max,
    }
}

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

    let flat = blast_radius(n, &SornPaths::flat(n));
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
    let third_ns = duration_ns / 3;
    let mut plan = FaultPlan::new();
    plan.link_outage(NodeId(0), NodeId(1), third_ns, 2 * third_ns);
    let mut drained = false;
    let traced = trace_run(path, sample_interval_ns, |sampler| {
        let mut eng = Engine::with_probe(cfg, net.schedule(), net.router(), sampler);
        eng.add_flows(flows).map_err(|e| e.to_string())?;
        eng.set_fault_plan(plan);
        drained = eng
            .run_until_drained(duration_ns / slot_ns * 50)
            .map_err(|e| e.to_string())?;
        Ok((eng.metrics().clone(), eng.finish()))
    })?;
    let (snapshots, metrics) = (traced.snapshots, traced.metrics);
    println!(
        "wrote {} events to {} (link 0->1 down for the middle third; drained: {drained})\n",
        traced.events,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_vlb_blast_radius_is_total() {
        // With 2-hop VLB over a clique, every link is either the spray or
        // direct hop of many pairs; the worst link affects almost all
        // pairs (every pair sprays over every outgoing link of its
        // source, and every pair can use any direct link).
        let r = blast_radius(16, &SornPaths::flat(16));
        assert_eq!(r.links, 16 * 15);
        // Link (u,v) is used by: all pairs with source u (spray), all
        // pairs with destination v (direct): ~2n pairs of n(n-1).
        let expect = (2.0 * 15.0 - 1.0) / (16.0 * 15.0);
        assert!((r.max_affected - expect).abs() < 0.01, "{r:?}");
    }

    #[test]
    fn sorn_blast_radius_is_smaller() {
        let map = CliqueMap::contiguous(16, 4);
        let flat = blast_radius(16, &SornPaths::flat(16));
        let sorn = blast_radius(16, &SornPaths::new(map));
        assert!(
            sorn.mean_affected < flat.mean_affected,
            "sorn {} vs flat {}",
            sorn.mean_affected,
            flat.mean_affected
        );
        // The modularity claim of §6: each SORN flow is exposed to far
        // fewer links than a flat VLB flow.
        assert!(
            sorn.mean_exposure < flat.mean_exposure / 2.0,
            "sorn exposure {} vs flat {}",
            sorn.mean_exposure,
            flat.mean_exposure
        );
        assert!(sorn.max_exposure < flat.max_exposure);
    }

    #[test]
    fn flat_vlb_exposure_spans_the_fabric() {
        // 2-hop VLB over n nodes: a pair (s,d) can use any of the n-1
        // spray links of s and any of the n-1 direct links into d; the
        // link (s,d) appears in both sets, so exposure = 2(n-1) - 1.
        let n = 12;
        let r = blast_radius(n, &SornPaths::flat(n));
        assert_eq!(r.max_exposure, 2 * (n - 1) - 1);
        assert!((r.mean_exposure - (2.0 * (n as f64 - 1.0) - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn intra_links_affect_only_local_and_transit_pairs() {
        let map = CliqueMap::contiguous(8, 2);
        let sorn = blast_radius(8, &SornPaths::new(map));
        // SORN uses intra links (within both cliques) and inter links:
        // node 0 reaches 1,2,3 intra and 4 inter (gateway by index).
        assert!(sorn.links < 8 * 7, "SORN must not use every possible link");
    }
}
