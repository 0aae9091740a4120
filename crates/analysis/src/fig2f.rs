//! Figure 2(f): worst-case throughput for the semi-oblivious design with
//! varying traffic locality ratios, and `sorn-cli fig2f`.
//!
//! Two series, as in the paper:
//!
//! - **Theory**: `r = 1/(3 − x)` — the closed form at the ideal
//!   oversubscription `q* = 2/(1 − x)`, bounded between 1/3 and 1/2.
//! - **Simulated**: exact flow-level evaluation of the actually
//!   constructed 128-node / 8-clique schedules under a clique-local
//!   demand, plus packet-level validation points driven by pFabric
//!   web-search traffic ("real-world traffic \[2\]").

use crate::render::{to_csv, TextTable};
use crate::timeseries::summary_table;
use crate::{header, plain, run_jobs, Args, Finished, Run, Task, TelemetryOpts};
use sorn_core::{model, CoreError, SornConfig, SornNetwork};
use sorn_traffic::{spatial::CliqueLocal, FlowSizeDist, PoissonWorkload};
use std::path::Path;

/// One point of the Figure 2(f) series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2fPoint {
    /// Locality ratio `x`.
    pub x: f64,
    /// Theoretical `r = 1/(3 − x)`.
    pub theory: f64,
    /// Flow-level throughput of the constructed schedule.
    pub simulated: f64,
    /// Demand-weighted mean hops at this point.
    pub mean_hops: f64,
}

/// Parameters for the figure.
#[derive(Debug, Clone)]
pub struct Fig2fParams {
    /// Network size (paper: 128).
    pub n: usize,
    /// Clique count (paper: 8).
    pub cliques: usize,
    /// Locality ratios to sweep.
    pub xs: Vec<f64>,
}

impl Default for Fig2fParams {
    fn default() -> Self {
        Fig2fParams {
            n: 128,
            cliques: 8,
            xs: (0..10).map(|i| i as f64 / 10.0).collect(),
        }
    }
}

/// Generates both series.
pub fn generate(params: &Fig2fParams) -> Result<Vec<Fig2fPoint>, CoreError> {
    let mut out = Vec::with_capacity(params.xs.len());
    for &x in &params.xs {
        let mut cfg = SornConfig::small(params.n, params.cliques, x);
        // Keep schedule periods tractable across the sweep.
        cfg.q = Some(sorn_topology::Ratio::approximate(model::ideal_q(x), 64));
        let net = SornNetwork::build(cfg)?;
        let rep = net.flow_throughput(x)?;
        out.push(Fig2fPoint {
            x,
            theory: model::optimal_throughput(x),
            simulated: rep.throughput,
            mean_hops: rep.mean_hops,
        });
    }
    Ok(out)
}

/// Result of a packet-level validation run at one locality point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketValidation {
    /// Locality ratio simulated.
    pub x: f64,
    /// Offered load (fraction of node bandwidth).
    pub offered_load: f64,
    /// Whether all traffic drained within the slot budget.
    pub drained: bool,
    /// Mean hops per delivered cell.
    pub mean_hops: f64,
    /// Fraction of transmissions that were final-hop deliveries.
    pub delivery_fraction: f64,
    /// Flows completed.
    pub flows: usize,
}

/// Packet-simulates one Figure 2(f) point with pFabric web-search flows
/// at the given offered load, checking that a load below the predicted
/// throughput drains. `engine_threads` shards the engine's slot phases
/// (`1` = serial path; any value is bit-identical). `trace_out` records
/// the run as a JSONL trace sampled at the given interval; the finished
/// run comes back alongside the validation summary.
#[allow(clippy::too_many_arguments)]
pub fn validate_point(
    n: usize,
    cliques: usize,
    x: f64,
    load: f64,
    duration_ns: u64,
    seed: u64,
    engine_threads: usize,
    trace_out: Option<(&Path, u64)>,
) -> Result<(PacketValidation, Finished), String> {
    let mut cfg = SornConfig::small(n, cliques, x);
    cfg.q = Some(sorn_topology::Ratio::approximate(model::ideal_q(x), 64));
    cfg.engine_threads = engine_threads;
    let net = SornNetwork::build(cfg).expect("valid point config");
    let map = net.cliques().clone();

    // One uplink at the default cell size: 12.5 B/ns line rate.
    let wl = PoissonWorkload {
        n,
        load,
        node_bandwidth_bytes_per_ns: 12.5,
        duration_ns,
        seed,
    };
    let flows = wl.generate(&FlowSizeDist::web_search(), &CliqueLocal::new(map, x));
    let n_flows = flows.len();
    let opened = plain(net.sim_config(seed), trace_out)?;
    let done = opened.drive(Run::new(net.schedule(), net.router(), flows))?;
    let (m, drained) = (&done.metrics, done.drained);
    let validation = PacketValidation {
        x,
        offered_load: load,
        drained,
        mean_hops: m.mean_hops(),
        delivery_fraction: m.delivery_fraction(),
        flows: n_flows.min(m.flows.len()),
    };
    Ok((validation, done))
}

/// `sorn-cli fig2f [--n N] [--cliques C] [--jobs N] [--engine-threads N]
/// [--trace-out <path>] [--sample-interval-ns <n>]`. `--n`/`--cliques`
/// size the flow-level sweep; the packet validation stays at 128 / 8.
pub fn run(args: &mut Args) -> Result<(), String> {
    let mut params = Fig2fParams::default();
    params.n = args.get("n", params.n)?;
    params.cliques = args.get("cliques", params.cliques)?;
    let jobs = args.count("jobs", 1)?;
    let engine_threads = args.count("engine-threads", 1)?;
    let telemetry = TelemetryOpts::read(args)?;
    args.reject_unknown()?;
    // The traced re-run of the x = 0.56 validation point goes first, so
    // its trace file opens before any output; its report prints last.
    let traced = (telemetry.trace())
        .map(|t| validate_point(128, 8, 0.56, 0.3, 2_000_000, 42, engine_threads, Some(t)))
        .transpose()?;
    let pts = generate(&params).map_err(|e| e.to_string())?;

    header("Figure 2(f) — worst-case throughput vs locality ratio");
    println!("network: {} nodes, {} cliques\n", params.n, params.cliques);

    let mut t = TextTable::new(&[
        "x",
        "theory 1/(3-x)",
        &format!("sim ({} nodes, {} cliques)", params.n, params.cliques),
        "mean hops",
    ]);
    let mut csv_rows = Vec::new();
    for p in &pts {
        let row = vec![
            format!("{:.1}", p.x),
            format!("{:.4}", p.theory),
            format!("{:.4}", p.simulated),
            format!("{:.3}", p.mean_hops),
        ];
        csv_rows.push(row.clone());
        t.row(row);
    }
    println!("{}", t.render());
    // Plot-ready data alongside the table.
    let csv = to_csv(&["x", "theory", "simulated", "mean_hops"], &csv_rows);
    if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/fig2f.csv", &csv).is_ok()
    {
        println!("(series written to results/fig2f.csv)\n");
    }

    header("Packet-level validation (pFabric web-search flows)");
    println!("offered load 0.3 per node; a load below r must drain:\n");
    let mut v = TextTable::new(&["x", "flows", "drained", "mean hops", "delivery fraction"]);
    // The packet runs dominate the wall time and are independent seeded
    // simulations — fan them out under --jobs; rows land in x order.
    const POINTS: [f64; 3] = [0.2, 0.56, 0.8];
    let tasks: Vec<Task<PacketValidation>> = POINTS
        .iter()
        .map(|&x| -> Task<PacketValidation> {
            Box::new(move || {
                validate_point(128, 8, x, 0.3, 2_000_000, 42, engine_threads, None)
                    .expect("validation point")
                    .0
            })
        })
        .collect();
    for (x, p) in POINTS.iter().zip(run_jobs(jobs, tasks)) {
        v.row(vec![
            format!("{x:.2}"),
            p.flows.to_string(),
            p.drained.to_string(),
            format!("{:.3}", p.mean_hops),
            format!("{:.3}", p.delivery_fraction),
        ]);
    }
    println!("{}", v.render());
    println!("(delivery fraction ~= 1/mean_hops; mean hops ~= 3 - x, so the");
    println!(" measured packet-level throughput tracks the theory curve)");

    if let (Some((_, done)), Some(path)) = (traced, &telemetry.trace_out) {
        header("Telemetry: traced re-run of the x = 0.56 validation point");
        println!(
            "wrote {} events to {} (sample interval {} ns)",
            done.events,
            path.display(),
            telemetry.sample_interval_ns
        );
        println!(
            "final snapshot: {} delivered cells == metrics aggregate\n",
            done.metrics.delivered_cells
        );
        println!("{}", summary_table(&done.snapshots).render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_matches_theory_shape() {
        // Smaller instance for test speed; same structure as the paper's.
        let params = Fig2fParams {
            n: 32,
            cliques: 4,
            xs: vec![0.0, 0.25, 0.5, 0.75],
        };
        let pts = generate(&params).unwrap();
        assert_eq!(pts.len(), 4);
        for p in &pts {
            // Simulated (exact) throughput is at or above the worst-case
            // closed form, and within a sensible band of it.
            assert!(
                p.simulated >= p.theory - 1e-9,
                "x={}: sim {} < theory {}",
                p.x,
                p.simulated,
                p.theory
            );
            assert!(
                p.simulated < p.theory + 0.12,
                "x={}: sim {}",
                p.x,
                p.simulated
            );
            // Bandwidth tax shrinks with locality.
            assert!(p.mean_hops <= 3.0 - p.x + 1e-9);
        }
        // Monotone increasing in x, bounded by [1/3, 1/2] as the paper
        // highlights.
        for w in pts.windows(2) {
            assert!(w[1].simulated >= w[0].simulated - 1e-9);
        }
        assert!(pts[0].theory >= 1.0 / 3.0 - 1e-12);
        assert!(pts.last().unwrap().theory <= 0.5);
    }

    #[test]
    fn packet_validation_drains_below_capacity() {
        let point = |threads| validate_point(16, 4, 0.5, 0.2, 200_000, 7, threads, None);
        let v = point(1).unwrap().0;
        // The sharded engine must reproduce the serial run bit-for-bit.
        assert_eq!(point(2).unwrap().0, v);
        assert!(v.drained, "load 0.2 below r=0.4 must drain: {v:?}");
        assert!(v.flows > 0);
        assert!(v.mean_hops > 1.0 && v.mean_hops <= 3.0);
        // Delivery fraction ~ 1/mean_hops.
        assert!((v.delivery_fraction * v.mean_hops - 1.0).abs() < 0.05);
    }
}
