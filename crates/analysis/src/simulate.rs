//! `simulate`: replays a JSON trace (from `gen-trace`) through the
//! packet simulator on a SORN over the trace's nodes, and prints
//! completion, hop, utilization and FCT figures plus a size-bucketed
//! slowdown table.
//!
//! `--trace <file> --cliques <count> [--locality x] [--uplinks u]
//! [--seed k] [--max-slots m] [--weather] [--weather-topk k]
//! [--checkpoint-dir <dir>] [--checkpoint-every <slots>] [--resume]`
//!
//! With `--checkpoint-dir`, full engine state (plus the weather probe,
//! when on) is snapshotted to `dir/simulate/` every `--checkpoint-every`
//! slots (default 10000, two rolling generations). SIGINT/SIGTERM
//! finishes the current slot, writes a final checkpoint, and exits with
//! code 3; `--resume` continues from the newest valid generation and
//! prints the identical tables an uninterrupted run would have.

use crate::fct::{bucketed_slowdown, DEFAULT_BUCKETS};
use crate::render::{fmt_latency, TextTable};
use crate::{
    drive_checkpointed, stop_flag, Args, CheckpointOpts, DriveOutcome, RunMode, WeatherOpts,
    EXIT_INTERRUPTED,
};
use sorn_core::{SornConfig, SornNetwork};
use sorn_sim::{Engine, SimConfig};
use sorn_telemetry::WeatherProbe;
use sorn_traffic::Trace;

/// Snapshot blob name carrying the weather probe's serialized state, so
/// a resumed run's report is byte-identical to an uninterrupted one.
const BLOB_WEATHER: &str = "weather";

/// `sorn-cli simulate`.
pub fn run(args: &mut Args) -> Result<(), String> {
    let path = args.required("trace")?;
    let cliques: usize = args.get("cliques", 0usize)?;
    let locality = args.get("locality", 0.56f64)?;
    let uplinks = args.get("uplinks", 1usize)?;
    let seed: u64 = args.get("seed", 0u64)?;
    let max_slots: u64 = args.get("max-slots", 10_000_000u64)?;
    let weather = WeatherOpts::read(args)?;
    let ckpt = CheckpointOpts::read(args)?;
    args.reject_unknown()?;

    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = Trace::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    if cliques == 0 {
        return Err("need --cliques".into());
    }
    let mut cfg = SornConfig::small(trace.nodes, cliques, locality);
    cfg.uplinks = uplinks;
    cfg.validate().map_err(|e| e.to_string())?;
    let net = SornNetwork::build(cfg.clone()).map_err(|e| e.to_string())?;
    // A refused resume exits before anything reaches stdout.
    let (mut store, resumed) = ckpt.open("simulate")?;
    let weather_blob = resumed
        .as_ref()
        .and_then(|out| out.snapshot.blob(BLOB_WEATHER));
    let probe = match weather_blob {
        Some(b) => Some(
            WeatherProbe::from_bytes(b, net.cliques().clone())
                .map_err(|e| format!("bad weather blob in checkpoint: {e}"))?,
        ),
        None => weather
            .enabled
            .then(|| WeatherProbe::new(net.cliques().clone(), weather.topk)),
    };
    let flows = trace.replay();
    println!(
        "simulating {} flows ({}) on {} nodes / {} cliques...",
        flows.len(),
        trace.description,
        trace.nodes,
        cliques
    );

    let sim_cfg = SimConfig {
        slot_ns: cfg.slot_ns,
        propagation_ns: cfg.propagation_ns,
        uplinks: cfg.uplinks,
        seed,
        engine_threads: cfg.engine_threads,
        trace_one_in: cfg.trace_one_in,
        ..SimConfig::default()
    };
    let mut eng = if let Some(out) = &resumed {
        for (path, reason) in &out.skipped {
            eprintln!(
                "sorn-cli: skipped corrupt checkpoint {}: {reason}",
                path.display()
            );
        }
        let path = out.path.display();
        let eng = Engine::restore_with_probe(&out.snapshot, net.schedule(), net.router(), probe)
            .map_err(|e| format!("checkpoint {path} does not fit this scenario: {e}"))?;
        eprintln!(
            "sorn-cli: resumed from {path} at slot {}",
            out.snapshot.slot()
        );
        eng
    } else {
        let mut eng = Engine::with_probe(sim_cfg, net.schedule(), net.router(), probe);
        eng.add_flows(flows).map_err(|e| e.to_string())?;
        eng
    };
    let outcome = drive_checkpointed(
        &mut eng,
        RunMode::UntilDrained(max_slots),
        store.as_mut(),
        ckpt.every_slots,
        stop_flag(ckpt.enabled()),
        |eng, snap| {
            if let Some(w) = eng.probe() {
                snap.attach_blob(BLOB_WEATHER, w.to_bytes());
            }
        },
        |_, _, _| {},
    )?;
    let drained = match outcome {
        DriveOutcome::Interrupted { slot, path } => {
            let wrote = path.map_or(String::new(), |p| format!("; wrote {}", p.display()));
            eprintln!("sorn-cli: interrupted at slot {slot}{wrote}; rerun with --resume");
            std::process::exit(EXIT_INTERRUPTED);
        }
        DriveOutcome::Completed { drained } => drained,
    };
    let metrics = eng.metrics().clone();
    let weather = eng.finish();

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

    if let Some(w) = weather {
        println!();
        print!("{}", w.render_txt("simulate"));
        let txt_path = "WEATHER_simulate.txt";
        let json_path = "WEATHER_simulate.json";
        std::fs::write(txt_path, w.render_txt("simulate"))
            .and_then(|()| std::fs::write(json_path, w.render_json("simulate")))
            .map_err(|e| format!("writing weather report: {e}"))?;
        println!("wrote {txt_path} and {json_path}");
    }
    Ok(())
}
