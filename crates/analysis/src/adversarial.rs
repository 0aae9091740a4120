//! Adversarial demand study: what exactly does "semi-oblivious" give up,
//! and how does the framework win it back?
//!
//! §4's throughput bound assumes the clique-aggregate demand matrix is
//! (roughly) uniform — the macro-pattern §3 argues is stable. A demand
//! concentrating one clique's traffic onto a single destination clique
//! violates that assumption and drives throughput down to
//! `1/((q+1)(Nc−1))`. The remedy is exactly §5's expressivity: re-encode
//! the observed aggregate into the schedule (the gravity builder).
//!
//! Pass `--trace-out <file>` to also packet-simulate the worst found
//! permutation on the uniform schedule and record a JSONL run trace.

use crate::render::TextTable;
use crate::{header, plain, Args, Run, TelemetryOpts};
use sorn_routing::{evaluate, worst_demand_search, DemandMatrix, SornPaths, SornRouter};
use sorn_sim::{Flow, FlowId, SimConfig};
use sorn_topology::builders::{
    gravity_schedule, round_robin, sorn_schedule, GravityWeights, SornScheduleParams,
};
use sorn_topology::{CliqueMap, NodeId, Ratio};

/// `sorn-cli adversarial [--trace-out <path>] [--sample-interval-ns <n>]`.
pub fn run(args: &mut Args) -> Result<(), String> {
    let telemetry = TelemetryOpts::read(args)?;
    args.reject_unknown()?;
    let traced = (telemetry.trace()).map(|t| plain(SimConfig::default(), Some(t)));
    let traced = traced.transpose()?;
    header("Adversarial demands: the price and remedy of semi-obliviousness");
    let n = 24;
    let nc = 4;
    let q = Ratio::integer(2);
    let map = CliqueMap::contiguous(n, nc);
    let uniform_sched = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
    let topo = uniform_sched.logical_topology();
    let model = SornPaths::new(map.clone());

    println!("{n} nodes, {nc} cliques, q = 2 (uniform inter-clique schedule)\n");

    // Baseline guarantees.
    let flat = round_robin(n).unwrap().logical_topology();
    let vlb_res = worst_demand_search(&flat, &SornPaths::flat(n), 400, 4, 17);
    let sorn_res = worst_demand_search(&topo, &model, 600, 6, 17);

    let mut t = TextTable::new(&["scheme", "demand", "throughput"]);
    t.row(vec![
        "flat VLB".into(),
        "adversarial search".into(),
        format!("{:.4} (guarantee 0.5 holds)", vlb_res.worst_throughput),
    ]);
    let assumed = evaluate(&topo, &model, &DemandMatrix::clique_local(&map, 0.0))
        .unwrap()
        .throughput;
    t.row(vec![
        "SORN uniform-inter".into(),
        "uniform aggregate (assumed)".into(),
        format!("{assumed:.4}"),
    ]);
    t.row(vec![
        "SORN uniform-inter".into(),
        "adversarial search".into(),
        format!(
            "{:.4} (= 1/((q+1)(Nc-1)) = {:.4})",
            sorn_res.worst_throughput,
            1.0 / (3.0 * (nc as f64 - 1.0))
        ),
    ]);

    // The remedy: observe the adversarial aggregate, re-encode it as
    // gravity weights, rebuild the schedule.
    let worst = DemandMatrix::permutation(&sorn_res.worst_permutation).unwrap();
    // Clique-aggregate (integer) weights from the worst demand.
    let mut agg = vec![vec![0u64; nc]; nc];
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            let v = worst.get(NodeId(s), NodeId(d));
            if v > 0.0 {
                let a = map.clique_of(NodeId(s)).index();
                let b = map.clique_of(NodeId(d)).index();
                if a != b {
                    agg[a][b] += v.round() as u64;
                }
            }
        }
    }
    match GravityWeights::balanced(agg) {
        Ok(w) => {
            let g = gravity_schedule(&map, q, &w, 1 << 20).unwrap();
            let rg = evaluate(&g.logical_topology(), &model, &worst).unwrap();
            t.row(vec![
                "SORN gravity-matched".into(),
                "same adversarial demand".into(),
                format!("{:.4}", rg.throughput),
            ]);
        }
        Err(e) => {
            // The worst permutation's aggregate may be unbalanced (some
            // clique pair unused); report instead of crashing.
            t.row(vec![
                "SORN gravity-matched".into(),
                "aggregate not balanced".into(),
                format!("({e})"),
            ]);
        }
    }
    println!("{}", t.render());

    // The worst permutation, packet-level: how the aggregate-level
    // collapse actually plays out in the fabric (queue growth is visible
    // in the trace's snapshot events).
    if let (Some(opened), Some(path)) = (traced, &telemetry.trace_out) {
        let flows: Vec<Flow> = sorn_res
            .worst_permutation
            .iter()
            .enumerate()
            .filter(|&(i, &d)| i != d)
            .map(|(i, &d)| Flow {
                id: FlowId(i as u64),
                src: NodeId(i as u32),
                dst: NodeId(d as u32),
                size_bytes: 20 * 1250,
                arrival_ns: 0,
            })
            .collect();
        let router = SornRouter::new(map.clone());
        let events = opened
            .drive(Run::new(&uniform_sched, &router, flows))?
            .events;
        println!(
            "packet trace of the worst permutation: {events} events -> {}\n",
            path.display()
        );
    }

    println!("Reading: semi-oblivious designs trade worst-case coverage of the");
    println!("*inter-clique aggregate* for bandwidth; when the aggregate shifts,");
    println!("the control plane re-encodes it (gravity schedule) and recovers");
    println!("most of the lost throughput — the paper's adaptation story end to");
    println!("end, including its failure mode.");
    Ok(())
}
