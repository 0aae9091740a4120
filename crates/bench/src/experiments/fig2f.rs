//! Regenerates Figure 2(f): worst-case throughput for the semi-oblivious
//! design with varying traffic locality ratios.
//!
//! Series, as in the paper:
//! - theory: `r = 1/(3 - x)` (bounded between 1/3 and 1/2);
//! - simulation of 128 nodes and 8 cliques — exact flow-level evaluation
//!   of the constructed schedules, plus packet-level validation points
//!   driven by pFabric web-search traffic ("real-world traffic \[2\]").

use crate::{header, run_jobs, Args, Task, TelemetryOpts};
use sorn_analysis::fig2f::{
    generate, validate_point, validate_point_traced, Fig2fParams, PacketValidation,
};
use sorn_analysis::render::{to_csv, TextTable};
use sorn_analysis::timeseries;
use sorn_telemetry::{read_jsonl, IntervalSampler, JsonlTraceSink};

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
                validate_point(128, 8, x, 0.3, 2_000_000, 42, engine_threads)
                    .expect("validation point")
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

    if let Some(path) = &telemetry.trace_out {
        header("Telemetry: traced re-run of the x = 0.56 validation point");
        let sink = JsonlTraceSink::create(path)
            .map_err(|e| format!("cannot create --trace-out file {}: {e}", path.display()))?;
        let sampler = IntervalSampler::new(sink, telemetry.sample_interval_ns);
        let (_, metrics, sampler) =
            validate_point_traced(128, 8, 0.56, 0.3, 2_000_000, 42, engine_threads, sampler)
                .expect("traced validation point");
        let lines = sampler.into_sink().finish().expect("flush trace");

        let events = read_jsonl(path).expect("trace must parse back");
        assert_eq!(events.len() as u64, lines);
        let snapshots = timeseries::snapshots_of(&events);
        let last = snapshots.last().expect("final snapshot present");
        assert_eq!(
            last.delivered_cells, metrics.delivered_cells,
            "final snapshot must agree with the run's aggregate metrics"
        );
        println!(
            "wrote {lines} events to {} (sample interval {} ns)",
            path.display(),
            telemetry.sample_interval_ns
        );
        println!(
            "final snapshot: {} delivered cells == metrics aggregate\n",
            last.delivered_cells
        );
        println!("{}", timeseries::summary_table(&snapshots).render());
    }
    Ok(())
}
