//! Regenerates Figure 2(a,b,d,e): the 8-node wavelength-routed OCS
//! setup, its matchings, and the two logical topologies A and B.

use crate::render::TextTable;
use crate::{header, Args};
use sorn_topology::awgr::AwgrSetup;
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, Matching, NodeId, Ratio};

fn print_matchings_table(n: usize, ks: &[usize]) {
    let mut t = TextTable::new(
        &std::iter::once("src".to_string())
            .chain(ks.iter().map(|k| format!("m{k}")))
            .map(|s| Box::leak(s.into_boxed_str()) as &str)
            .collect::<Vec<_>>(),
    );
    let ms: Vec<Matching> = ks.iter().map(|&k| Matching::cyclic(n, k)).collect();
    for s in 0..n as u32 {
        let mut row = vec![s.to_string()];
        for m in &ms {
            row.push(m.raw_dst(NodeId(s)).0.to_string());
        }
        t.row(row);
    }
    println!("{}", t.render());
}

fn print_schedule(label: &str, sched: &sorn_topology::CircuitSchedule) {
    println!("{label} (rows = slots, columns = nodes, entries = peer):");
    println!("{}", sched.render_table());
    let topo = sched.logical_topology();
    println!("node 0 virtual edges:");
    for (d, c) in topo.neighbors(NodeId(0)) {
        println!("  0 -> {d}: {c:.3} of node bandwidth");
    }
    println!();
}

/// `sorn-cli fig2_topologies` (no flags).
pub fn run(args: &mut Args) -> Result<(), String> {
    args.reject_unknown()?;
    header("Figure 2(a,b) — 8-node wavelength-routed OCS: available matchings");
    println!("wavelength lambda_k implements the cyclic matching m_k (s -> s+k mod 8):\n");
    print_matchings_table(8, &[1, 2, 3, 4, 5]);

    let setup = AwgrSetup {
        nodes: 8,
        ports_per_node: 1,
        grating_ports: 8,
    };
    println!(
        "physical check: every cyclic matching within reach = {}\n",
        (1..8).all(|k| setup.is_realizable(&Matching::cyclic(8, k)))
    );

    header("Figure 2(d) — logical topology A: 2 cliques of 4, q = 3");
    let map_a = CliqueMap::contiguous(8, 2);
    let a = sorn_schedule(&map_a, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
    print_schedule("Topology A", &a);
    println!("Intra-clique bandwidth is 3x the inter-clique bandwidth (q = 3);");
    println!("a flow 0 -> 6 routes e.g. 0 -> 3 -> 7 -> 6 or 0 -> 1 -> 4 -> 6.\n");

    header("Figure 2(e) — logical topology B: 4 cliques of 2");
    let map_b = CliqueMap::contiguous(8, 4);
    let b = sorn_schedule(&map_b, &SornScheduleParams::with_q(Ratio::integer(1))).unwrap();
    print_schedule("Topology B", &b);
    println!("The same physical setup realizes both topologies purely by");
    println!("permuting which matchings appear in the slot schedule (§4).");
    Ok(())
}
