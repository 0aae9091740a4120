//! One rep: `benchmark child --workload W --seed S --out-dir D
//! [--traced] [--smoke] [--reference]`.
//!
//! Runs the workload in this process, single-threaded, and prints one
//! JSON object as the last line of standard output: stage times, the
//! simulated results and their digest, per-layer values, spans and the
//! output checks. Exit code 0 means every check passed, 1 that one did
//! not (the object is still printed), 2 that the rep could not run.

use crate::instrument::PhaseTimes;
use crate::json::Json;
use crate::spec::{CROSS_RUN, PER_LAYER, SIMULATED};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Ctx, Outcome};
use std::path::PathBuf;
use std::time::Instant;

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub out_dir: PathBuf,
    pub traced: bool,
    pub smoke: bool,
    pub reference: bool,
}

/// Per-layer values of one rep: span totals by name, the workload's
/// explicit values, and the few derived from both. Names the driver
/// fills in (`bench.*`, the cross-run ratios, the simulated results) are
/// left out.
pub fn layer_values(
    spans: &[Span],
    explicit: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64)>, String> {
    let given = |name: &str| -> Option<f64> {
        let mut hits = explicit.iter().filter(|(n, _)| *n == name).peekable();
        hits.peek()?;
        Some(hits.fold(0.0, |sum, (_, v)| sum + v))
    };
    let selfs = trace::self_times(spans)?;
    let (run_s, _) = trace::total(spans, "sim.run");
    let mut out = Vec::new();
    for metric in &PER_LAYER {
        let name = metric.name;
        if name.starts_with("bench.")
            || CROSS_RUN.contains(&name)
            || SIMULATED.iter().any(|m| m.name == name)
        {
            continue;
        }
        let value = match name {
            "sim.other.busy_s" => spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == "sim.run")
                .map(|(_, own)| *own as f64 / 1e9)
                .sum(),
            "sim.ns_per_cell" => match given("sim.delivered_cells") {
                Some(cells) if cells > 0.0 => run_s * 1e9 / cells,
                _ => 0.0,
            },
            "routing.class_admits.admit_frac" => match given("routing.class_admits.calls") {
                Some(calls) if calls > 0.0 => {
                    given("routing.class_admits.admitted").unwrap_or(0.0) / calls
                }
                _ => 0.0,
            },
            _ => match (
                given(name),
                name.strip_suffix(".busy_s"),
                name.strip_suffix(".calls"),
            ) {
                (Some(v), _, _) => v,
                (None, Some(span), _) => trace::total(spans, span).0,
                (None, None, Some(span)) => trace::total(spans, span).1 as f64,
                (None, None, None) => 0.0,
            },
        };
        out.push((name, value));
    }
    Ok(out)
}

fn simulated_values(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let failed_frac = if outcome.offered == 0 {
        0.0
    } else {
        outcome.incomplete as f64 / outcome.offered as f64
    };
    vec![
        ("failed_frac", failed_frac),
        ("sim_makespan_slots", outcome.makespan_slots as f64),
        ("sim_fct_p99_us", outcome.fct_p99_us),
        ("sim_mean_hops", outcome.mean_hops),
        ("sim_adaptive_thpt", outcome.adaptive_thpt),
    ]
}

fn object(pairs: impl IntoIterator<Item = (impl AsRef<str>, Json)>) -> Json {
    let mut obj = Json::obj();
    for (key, value) in pairs {
        obj.set(key.as_ref(), value);
    }
    obj
}

/// Runs the rep and returns the process exit code.
pub fn run(args: &ChildArgs, origin: Instant) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "benchmark child: cannot create {}: {e}",
            args.out_dir.display()
        );
        return 2;
    }
    let mut ctx = Ctx {
        t: Tracer::new(origin),
        seed: args.seed,
        smoke: args.smoke,
        reference: args.reference,
        phases: args.traced.then(PhaseTimes::default),
        out_dir: args.out_dir.clone(),
        checks: Vec::new(),
        values: Vec::new(),
        params: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let outcome = match workloads::run(&args.workload, &mut ctx) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark child: {}: {e}", args.workload);
            return 2;
        }
    };
    let spans = ctx.t.spans();
    let layers = match layer_values(spans, &ctx.values) {
        Ok(layers) => layers,
        Err(e) => {
            eprintln!(
                "benchmark child: {}: trace does not add up: {e}",
                args.workload
            );
            return 2;
        }
    };
    let stage = |name: &str| trace::total(spans, name).0;
    let passed = ctx.checks.iter().all(|c| c.ok);
    for check in ctx.checks.iter().filter(|c| !c.ok) {
        eprintln!(
            "benchmark child: {} seed {}: CHECK FAILED {}: {}",
            args.workload, args.seed, check.name, check.detail
        );
    }

    let mut doc = Json::obj();
    doc.set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("traced", args.traced)
        .set("smoke", args.smoke)
        .set("passed", passed)
        .set("setup_s", stage("stage.setup"))
        .set("run_s", stage("stage.run"))
        .set("check_s", stage("stage.check"))
        .set("peak_rss_mb", ctx.peak_rss_mb)
        .set("work", outcome.work)
        .set("offered", outcome.offered)
        .set("incomplete", outcome.incomplete)
        .set("sim_digest", format!("{:016x}", outcome.digest))
        .set(
            "simulated",
            object(
                simulated_values(&outcome)
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v))),
            ),
        )
        .set(
            "layers",
            object(layers.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        )
        .set(
            "params",
            object(ctx.params.iter().map(|(k, v)| (*k, Json::Str(v.clone())))),
        )
        .set(
            "checks",
            Json::Arr(
                ctx.checks
                    .iter()
                    .map(|c| {
                        object([
                            ("name", Json::from(c.name)),
                            ("ok", Json::from(c.ok)),
                            ("detail", Json::from(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        )
        .set("spans", trace::spans_to_json(spans))
        // Last, so that it covers building this object; printing it and
        // leaving `main` fall to the driver's process row.
        .set("main_s", origin.elapsed().as_secs_f64());
    println!("{}", doc.compact());
    if passed {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, calls: Option<u64>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            calls,
        }
    }

    #[test]
    fn layer_values_come_from_spans_explicit_values_and_both() {
        let spans = vec![
            span("stage.run", 0, 2_000_000_000, None, None),
            span("sim.run", 0, 1_000_000_000, Some(0), None),
            span("sim.transmit", 0, 600_000_000, Some(1), Some(40)),
            span("sim.run", 1_000_000_000, 1_500_000_000, Some(0), None),
            span(
                "sim.transmit",
                1_000_000_000,
                1_400_000_000,
                Some(3),
                Some(10),
            ),
        ];
        let explicit = [
            ("sim.delivered_cells", 1_000.0),
            ("routing.class_admits.calls", 30.0),
            ("routing.class_admits.calls", 10.0),
            ("routing.class_admits.admitted", 10.0),
            ("sim.slots", 50.0),
        ];
        let values = layer_values(&spans, &explicit).unwrap();
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("sim.run.busy_s"), 1.5);
        assert_eq!(get("sim.transmit.busy_s"), 1.0);
        assert_eq!(get("sim.transmit.calls"), 50.0);
        assert!((get("sim.other.busy_s") - 0.5).abs() < 1e-12);
        assert_eq!(get("sim.ns_per_cell"), 1.5e6);
        assert_eq!(get("routing.class_admits.calls"), 40.0);
        assert_eq!(get("routing.class_admits.admit_frac"), 0.25);
        assert_eq!(get("sim.slots"), 50.0);
        assert_eq!(get("stage.run.busy_s"), 2.0);
        assert_eq!(get("control.end_epoch.busy_s"), 0.0);
        assert!(!values
            .iter()
            .any(|(n, _)| n.starts_with("bench.") || *n == "failed_frac"));
    }
}
