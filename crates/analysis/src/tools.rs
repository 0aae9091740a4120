//! The single-configuration tools: `analyze` prints §4's closed forms,
//! `schedule` the circuit schedule, and `gen-trace` records a Poisson
//! workload as a JSON trace for `simulate`. All three read
//!
//! `--n <nodes> --cliques <count> [--locality x] [--uplinks u]
//! [--slot-ns s] [--prop-ns p] [--q a/b]`;
//!
//! `gen-trace` also reads `--out <file> [--load rho] [--duration-us t]
//! [--seed k] [--dist web-search|data-mining|fixed:<bytes>]`.

use crate::render::{fmt_latency, fmt_pct, TextTable};
use crate::Args;
use sorn_core::{SornConfig, SornNetwork};
use sorn_topology::Ratio;
use sorn_traffic::spatial::CliqueLocal;
use sorn_traffic::{FlowSizeDist, PoissonWorkload, Trace};

/// Parses an oversubscription ratio: `3` or `50/11`, positive.
pub fn parse_q(s: &str) -> Result<Ratio, String> {
    if let Some((a, b)) = s.split_once('/') {
        let num: u64 = a.parse().map_err(|_| format!("bad ratio `{s}`"))?;
        let den: u64 = b.parse().map_err(|_| format!("bad ratio `{s}`"))?;
        if num == 0 || den == 0 {
            return Err(format!("ratio `{s}` must be positive"));
        }
        Ok(Ratio::new(num, den))
    } else {
        let v: u64 = s.parse().map_err(|_| format!("bad ratio `{s}`"))?;
        if v == 0 {
            return Err("ratio must be positive".into());
        }
        Ok(Ratio::integer(v))
    }
}

/// Parses a flow-size distribution name: `web-search`, `data-mining`,
/// or `fixed:<bytes>` with a positive byte count.
pub fn parse_dist(s: &str) -> Result<FlowSizeDist, String> {
    match s {
        "web-search" => Ok(FlowSizeDist::web_search()),
        "data-mining" => Ok(FlowSizeDist::data_mining()),
        other => {
            if let Some(bytes) = other.strip_prefix("fixed:") {
                match bytes.parse() {
                    Ok(b) if b > 0 => Ok(FlowSizeDist::fixed(b)),
                    _ => Err(format!("bad size `{bytes}`: need a positive byte count")),
                }
            } else {
                Err(format!("unknown distribution `{other}`"))
            }
        }
    }
}

/// Reads and validates the configuration flags the three tools share.
pub fn build_config(args: &mut Args) -> Result<SornConfig, String> {
    let n: usize = args.get("n", 0usize)?;
    let cliques: usize = args.get("cliques", 0usize)?;
    if n == 0 || cliques == 0 {
        return Err("need --n and --cliques".into());
    }
    let mut cfg = SornConfig::small(n, cliques, args.get("locality", 0.56f64)?);
    cfg.uplinks = args.get("uplinks", 1usize)?;
    cfg.slot_ns = args.get("slot-ns", 100u64)?;
    cfg.propagation_ns = args.get("prop-ns", 500u64)?;
    if let Some(q) = args.opt::<String>("q")? {
        cfg.q = Some(parse_q(&q)?);
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// `sorn-cli analyze`: §4's closed forms for one configuration.
pub fn analyze(args: &mut Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    args.reject_unknown()?;
    let net = SornNetwork::build(cfg).map_err(|e| e.to_string())?;
    let a = net.analysis();
    println!(
        "SORN analysis — {} nodes, {} cliques of {}, x = {}",
        net.config().n,
        net.config().cliques,
        net.config().clique_size(),
        net.config().locality
    );
    let mut t = TextTable::new(&["metric", "value"]);
    for (metric, value) in [
        ("oversubscription q", format!("{:.4}", a.q)),
        (
            "intra delta_m (slots)",
            format!("{:.0}", a.intra_delta_m.ceil()),
        ),
        (
            "inter delta_m (slots)",
            format!("{:.0}", a.inter_delta_m.ceil()),
        ),
        ("intra worst latency", fmt_latency(a.intra_latency_ns)),
        ("inter worst latency", fmt_latency(a.inter_latency_ns)),
        ("worst-case throughput", fmt_pct(a.throughput)),
        ("mean hops / BW cost", format!("{:.2}", a.mean_hops)),
        (
            "schedule period (slots)",
            net.schedule().period().to_string(),
        ),
    ] {
        t.row(vec![metric.into(), value]);
    }
    print!("{}", t.render());
    Ok(())
}

/// `sorn-cli schedule`: one configuration's circuit schedule, one row
/// per slot.
pub fn schedule(args: &mut Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    args.reject_unknown()?;
    let net = SornNetwork::build(cfg).map_err(|e| e.to_string())?;
    print!("{}", net.schedule().render_table());
    Ok(())
}

/// The most flows `gen-trace` plans before refusing: at about 46 bytes
/// a flow, a trace this size is already half a gigabyte of JSON.
const MAX_PLANNED_FLOWS: f64 = 1e7;

/// `sorn-cli gen-trace`: records a Poisson workload over one
/// configuration's cliques as a JSON trace.
pub fn gen_trace(args: &mut Args) -> Result<(), String> {
    let cfg = build_config(args)?;
    let load: f64 = args.get("load", 0.3f64)?;
    if !(load.is_finite() && load > 0.0) {
        return Err(format!("--load must be finite and positive, got {load}"));
    }
    let duration_us: u64 = args.get("duration-us", 500u64)?;
    let seed: u64 = args.get("seed", 0u64)?;
    let out = args.required("out")?;
    let dist = parse_dist(&args.get("dist", "web-search".to_string())?)
        .map_err(|e| format!("--dist: {e}"))?;
    args.reject_unknown()?;

    let Some(duration_ns) = duration_us.checked_mul(1000) else {
        return Err(format!(
            "--duration-us {duration_us} overflows a u64 of nanoseconds"
        ));
    };
    // The expected flow count, `n · load · bandwidth · duration / mean
    // size`, checked before anything is built or generated.
    let bandwidth = 12.5 * cfg.uplinks as f64;
    let planned = cfg.n as f64 * load * bandwidth * duration_ns as f64 / dist.mean_bytes();
    if planned > MAX_PLANNED_FLOWS {
        return Err(format!(
            "--load and --duration-us plan about {planned:.2e} flows; the limit is \
             {MAX_PLANNED_FLOWS:.0e}"
        ));
    }

    let net = SornNetwork::build(cfg.clone()).map_err(|e| e.to_string())?;
    let wl = PoissonWorkload {
        n: cfg.n,
        load,
        node_bandwidth_bytes_per_ns: bandwidth,
        duration_ns,
        seed,
    };
    let flows = wl.generate(
        &dist,
        &CliqueLocal::new(net.cliques().clone(), cfg.locality),
    );
    let trace = Trace::record(
        cfg.n,
        &format!(
            "poisson load={load} x={} dist={} duration={duration_us}us seed={seed}",
            cfg.locality,
            dist.name()
        ),
        &flows,
    );
    std::fs::write(&out, trace.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} flows to {out}", flows.len());
    Ok(())
}
