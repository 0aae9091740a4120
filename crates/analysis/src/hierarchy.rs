//! Multi-level hierarchy ablation (§3's pods/clusters/blocks, §6's
//! per-level schedules): how does a three-level SORN compare to the
//! paper's two-level design on the same 4096-rack deployment?
//!
//! Analytical comparison at deployment scale plus an end-to-end packet
//! check at 64 nodes. `--radices a,b,c` and `--profile x0,x1,x2` set the
//! three-level design (default 16,16,16 and 0.56,0.24,0.20); its radices
//! must multiply to the same 4096 racks.

use crate::render::{fmt_latency, fmt_pct, TextTable};
use crate::{header, plain, Args, Run};
use sorn_core::{model, HierarchyModel};
use sorn_routing::HierarchicalRouter;
use sorn_sim::{Flow, FlowId, SimConfig};
use sorn_topology::builders::hierarchical_schedule;

/// `sorn-cli hierarchy [--radices a,b,c] [--profile x0,x1,x2]`.
pub fn run(args: &mut Args) -> Result<(), String> {
    let radices: Vec<usize> = args.list("radices", vec![16, 16, 16])?;
    let profile: Vec<f64> = args.list("profile", vec![0.56, 0.24, 0.20])?;
    args.reject_unknown()?;
    let (&[a, b, c], &[pod, cluster, fabric]) = (&radices[..], &profile[..]) else {
        return Err("--radices and --profile take three levels each".into());
    };
    if a.checked_mul(b).and_then(|ab| ab.checked_mul(c)) != Some(4096) {
        return Err(format!("--radices must cover 4096 racks, got {a}x{b}x{c}"));
    }
    let label = if a == b && b == c {
        format!("3-level {a}^3")
    } else {
        format!("3-level {a}x{b}x{c}")
    };
    let three = HierarchyModel::new(radices, profile).map_err(|e| e.to_string())?;

    header("Hierarchical SORN: two vs three levels, 4096 racks");
    let [pod, cluster, fabric] = [pod, cluster, fabric].map(|x| x * 100.0);
    println!("locality split: {pod:.0}% pod-local; remaining traffic split between");
    println!(
        "cluster-local ({cluster:.0}%) and fabric-wide ({fabric:.0}%) for the 3-level design\n"
    );

    let p = sorn_core::baselines::DeploymentParams::paper_reference();
    let lat = |dm: f64, hops: u32| {
        model::min_latency_ns(dm, hops, p.slot_ns, p.propagation_ns, p.uplinks)
    };

    let two = HierarchyModel::two_level(64, 64, 0.56).unwrap();

    let mut t = TextTable::new(&[
        "design",
        "class",
        "delta_m",
        "min latency",
        "thpt",
        "BW cost",
    ]);
    for (name, m) in [("2-level 64x64", &two), (label.as_str(), &three)] {
        for l in 0..m.levels() {
            let dm = m.class_delta_m(l);
            t.row(vec![
                name.into(),
                format!("level-{l} traffic ({} hops)", l + 2),
                format!("{:.0}", dm.ceil()),
                fmt_latency(lat(dm, (l + 2) as u32)),
                fmt_pct(m.optimal_throughput()),
                format!("{:.2}x", m.mean_hops()),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Three levels cut pod-local latency a further order of magnitude");
    println!("(shorter innermost round robin) at a modest throughput cost for");
    println!("the fabric-wide class — the same tradeoff axis as Table 1.\n");

    header("Packet check: 64 nodes as 4x4x4, weighted (6,2,1)");
    let spec = sorn_topology::builders::HierarchySpec::new(vec![4, 4, 4], vec![6, 2, 1]).unwrap();
    let sched = hierarchical_schedule(&spec, 1 << 20).unwrap();
    let router = HierarchicalRouter::new(spec);
    let flows: Vec<Flow> = (0..64u32)
        .flat_map(|s| [(s, (s + 1) % 64), (s, (s + 5) % 64), (s, (s + 21) % 64)])
        .enumerate()
        .map(|(i, (s, d))| Flow {
            id: FlowId(i as u64),
            src: sorn_topology::NodeId(s),
            dst: sorn_topology::NodeId(d),
            size_bytes: 2 * 1250,
            arrival_ns: i as u64 * 30,
        })
        .collect();
    let count = flows.len();
    let done = plain(SimConfig::default(), None)?.drive(Run::new(&sched, &router, flows))?;
    let (m, drained) = (&done.metrics, done.drained);
    println!(
        "flows: {count}, drained: {drained}, completed: {}",
        m.flows.len()
    );
    println!(
        "mean hops: {:.2} (bound {}), mean FCT: {:.2} us",
        m.mean_hops(),
        4,
        m.mean_fct_ns() / 1000.0
    );
    let worst = m.flows.iter().map(|f| f.max_hops).max().unwrap();
    println!("worst hops observed: {worst} (<= levels + 1 = 4)");
    Ok(())
}
