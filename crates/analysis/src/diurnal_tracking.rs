//! §6 "Other Structural Patterns" ablation: a diurnal workload swings
//! load and locality over a day; the control plane retunes the
//! oversubscription ratio `q` over fixed cliques as its EWMA estimate
//! follows. Compares a fixed-`q` SORN against the tracking one, scoring
//! each window with the exact flow-level throughput (no lookahead: each
//! window is scored with the configuration installed *before* it).
//!
//! Pass `--trace-out <file>` to also packet-simulate the first busy
//! window on the fixed-q fabric and record a JSONL run trace
//! (`--sample-interval-ns` sets the snapshot cadence).

use crate::render::TextTable;
use crate::{header, plain, Args, Run, TelemetryOpts};
use sorn_control::PatternEstimator;
use sorn_core::model;
use sorn_routing::{evaluate, DemandMatrix, SornPaths, SornRouter};
use sorn_sim::{Flow, SimConfig};
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, Ratio};
use sorn_traffic::{DiurnalPattern, DiurnalWorkload, FlowSizeDist};

/// `sorn-cli diurnal_tracking [--trace-out <path>] [--sample-interval-ns <n>]`.
pub fn run(args: &mut Args) -> Result<(), String> {
    let telemetry = TelemetryOpts::read(args)?;
    args.reject_unknown()?;
    let traced = (telemetry.trace()).map(|t| plain(SimConfig::default(), Some(t)));
    let traced = traced.transpose()?;
    header("§6 — diurnal tracking: fixed q vs control-loop retuning");
    let n = 32usize;
    let cliques = CliqueMap::contiguous(n, 4);
    let pattern = DiurnalPattern {
        period_ns: 8_000_000,
        mean_load: 0.3,
        amplitude: 0.5,
        locality_peak: 0.8,
        locality_trough: 0.2,
    };
    let wl = DiurnalWorkload {
        cliques: cliques.clone(),
        pattern,
        sizes: FlowSizeDist::fixed(4_000),
        node_bandwidth_bytes_per_ns: 12.5,
        duration_ns: 16_000_000, // two days
        seed: 5,
    };
    let flows = wl.generate();
    // 16 control epochs per day — the paper's premise is that macro-
    // patterns drift slowly relative to the control loop, so each epoch
    // sees a nearly stationary locality.
    let windows = wl.windows(&flows, 500_000);

    // Fixed design: q tuned once for the mean locality 0.5.
    let fixed_q = Ratio::integer(4);
    let build = |q: Ratio| -> CircuitSchedule {
        sorn_schedule(&cliques, &SornScheduleParams::with_q(q)).unwrap()
    };
    let fixed_sched = build(fixed_q);

    // Tracking design: same cliques, q re-derived each epoch from the
    // EWMA locality estimate.
    let mut estimator = PatternEstimator::new(n, 0.8);
    let mut track_q = fixed_q;
    let mut track_sched = fixed_sched.clone();

    let path_model = SornPaths::new(cliques.clone());
    let score = |sched: &CircuitSchedule, demand: &DemandMatrix| {
        evaluate(&sched.logical_topology(), &path_model, demand)
            .map(|r| r.throughput)
            .unwrap_or(0.0)
    };

    let mut t = TextTable::new(&[
        "window",
        "locality x(t)",
        "fixed-q thpt",
        "tracking thpt",
        "q in use",
    ]);
    let mut fixed_sum = 0.0;
    let mut track_sum = 0.0;
    let mut scored = 0usize;
    for (i, window) in windows.iter().enumerate() {
        if window.is_empty() {
            continue;
        }
        let rows = sorn_traffic::empirical_matrix(window, n);
        let Ok(demand) = DemandMatrix::from_rows(rows) else {
            continue;
        };
        let x = sorn_traffic::measured_locality(window, &cliques);
        let fixed_score = score(&fixed_sched, &demand);
        let track_score = score(&track_sched, &demand);
        fixed_sum += fixed_score;
        track_sum += track_score;
        scored += 1;
        t.row(vec![
            i.to_string(),
            format!("{x:.2}"),
            format!("{fixed_score:.3}"),
            format!("{track_score:.3}"),
            format!("{:.2}", track_q.to_f64()),
        ]);

        // End of epoch: fold observations, re-derive q for the next one.
        estimator.observe_flows(window);
        estimator.end_epoch();
        let x_hat = estimator.locality(&cliques).clamp(0.0, 0.9);
        let q_new = Ratio::approximate(model::ideal_q(x_hat), 64);
        if (q_new.to_f64() - track_q.to_f64()).abs() / track_q.to_f64() > 0.05 {
            track_q = q_new;
            track_sched = build(track_q);
        }
    }
    println!("{}", t.render());

    // Packet-level companion: trace the first busy window on the fixed-q
    // fabric (arrivals rebased to the window start).
    if let (Some(opened), Some(path)) = (traced, &telemetry.trace_out) {
        if let Some(window) = windows.iter().find(|w| !w.is_empty()) {
            let t0 = window.iter().map(|f| f.arrival_ns).min().unwrap_or(0);
            let flows: Vec<Flow> = window
                .iter()
                .map(|f| Flow {
                    arrival_ns: f.arrival_ns - t0,
                    ..*f
                })
                .collect();
            let router = SornRouter::new(cliques.clone());
            let events = opened.drive(Run::new(&fixed_sched, &router, flows))?.events;
            println!(
                "packet trace of window 0 on the fixed-q fabric: {events} events -> {}\n",
                path.display()
            );
        }
    }

    let gain = (track_sum / fixed_sum - 1.0) * 100.0;
    println!(
        "day-average throughput: fixed q {:.3}, tracking {:.3} ({gain:+.1}%)",
        fixed_sum / scored as f64,
        track_sum / scored as f64,
    );
    if gain > 0.0 {
        println!("(tuning q to the diurnal locality swing recovers bandwidth at both");
        println!(" extremes — the §6 'other structural patterns' idea; the gain grows");
        println!(" as the swing slows relative to the control epoch)");
    } else {
        println!("(at this swing speed the one-epoch estimation lag eats the tuning");
        println!(" gain — §6's premise that patterns must be stable relative to the");
        println!(" control period, demonstrated from the failing side)");
    }
    Ok(())
}
