//! `simulate`: replays a JSON trace (from `gen-trace`) through the
//! packet simulator on a SORN over the trace's nodes, and prints
//! completion, hop, utilization and FCT figures plus a size-bucketed
//! slowdown table.
//!
//! `--trace <file> --cliques <count> [--locality x] [--uplinks u]
//! [--seed k] [--max-slots m] [--weather] [--weather-topk k]`

use crate::fct::{bucketed_slowdown, DEFAULT_BUCKETS};
use crate::render::{fmt_latency, TextTable};
use crate::{open, weather_paths, Args, Run, RunMode, Stack, WeatherOpts, DRAIN_SLOTS};
use sorn_core::{SornConfig, SornNetwork};
use sorn_telemetry::{Observers, WeatherProbe};
use sorn_traffic::Trace;

/// `sorn-cli simulate`.
pub fn run(args: &mut Args) -> Result<(), String> {
    let path = args.required("trace")?;
    let cliques: usize = args.get("cliques", 0usize)?;
    let locality = args.get("locality", 0.56f64)?;
    let uplinks = args.get("uplinks", 1usize)?;
    let seed: u64 = args.get("seed", 0u64)?;
    let max_slots: u64 = args.get("max-slots", DRAIN_SLOTS)?;
    let weather = WeatherOpts::read(args)?;
    args.reject_unknown()?;

    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = Trace::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    if cliques == 0 {
        return Err("need --cliques".into());
    }
    let mut cfg = SornConfig::small(trace.nodes, cliques, locality);
    cfg.uplinks = uplinks;
    cfg.validate().map_err(|e| e.to_string())?;
    let net = SornNetwork::build(cfg).map_err(|e| e.to_string())?;
    let sim_cfg = net.sim_config(seed);
    let observers = Stack {
        weather: (weather.enabled).then(|| WeatherProbe::new(net.cliques().clone(), weather.topk)),
        ..Observers::none()
    };
    let opened = open("simulate", "", sim_cfg, observers, None)?;
    let flows = trace.replay();
    println!(
        "simulating {} flows ({}) on {} nodes / {} cliques...",
        flows.len(),
        trace.description,
        trace.nodes,
        cliques
    );

    let done = opened.drive(Run {
        mode: RunMode::UntilDrained(max_slots),
        ..Run::new(net.schedule(), net.router(), flows)
    })?;
    let (metrics, drained) = (done.metrics, done.drained);

    let mut rows = vec![
        ("drained", drained.to_string()),
        ("flows completed", metrics.flows.len().to_string()),
        ("cells delivered", metrics.delivered_cells.to_string()),
        ("mean hops", format!("{:.3}", metrics.mean_hops())),
        (
            "delivery fraction",
            format!("{:.3}", metrics.delivery_fraction()),
        ),
        (
            "circuit utilization",
            format!("{:.3}", metrics.circuit_utilization()),
        ),
        ("mean FCT", fmt_latency(metrics.mean_fct_ns())),
    ];
    if let Some(p99) = metrics.fct_percentile_ns(99.0) {
        rows.push(("p99 FCT", fmt_latency(p99 as f64)));
    }
    let mut t = TextTable::new(&["metric", "value"]);
    for (metric, value) in rows {
        t.row(vec![metric.into(), value]);
    }
    print!("{}", t.render());

    // Size-bucketed slowdown (pFabric-style).
    let buckets = bucketed_slowdown(&metrics.flows, &sim_cfg, &DEFAULT_BUCKETS);
    println!("\nFCT slowdown by flow size:");
    let mut bt = TextTable::new(&["size", "flows", "mean slowdown", "p99 slowdown"]);
    for b in buckets {
        if b.flows == 0 {
            continue;
        }
        let label = if b.hi == u64::MAX {
            format!(">= {} KB", b.lo / 1000)
        } else {
            format!("{}-{} KB", b.lo / 1000, b.hi / 1000)
        };
        bt.row(vec![
            label,
            b.flows.to_string(),
            format!("{:.2}", b.mean_slowdown),
            format!("{:.2}", b.p99_slowdown),
        ]);
    }
    print!("{}", bt.render());

    if let Some(w) = done.weather {
        println!();
        print!("{}", w.render_txt("simulate"));
        let [txt, json] = weather_paths("simulate");
        println!("wrote {} and {}", txt.display(), json.display());
    }
    Ok(())
}
