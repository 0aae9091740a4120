//! §5 non-uniform clique sizes: when the workload's communities have
//! unequal sizes, matching the clique sizes to the communities keeps
//! their traffic on 2-hop intra paths instead of splitting a community
//! across cliques and paying 3 hops.
//!
//! Workload: 16 nodes in communities of sizes {8, 4, 4} with heavy
//! intra-community traffic. Design A forces uniform cliques of 4 (the
//! 8-community is split); design B uses non-uniform cliques {8, 4, 4}.

use crate::render::TextTable;
use crate::{header, plain, Args, Finished, Run};
use sorn_routing::{GeneralSornRouter, SornRouter};
use sorn_sim::{Flow, FlowId, Router, SimConfig};
use sorn_topology::builders::{nonuniform_sorn_schedule, sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueId, CliqueMap, NodeId, Ratio};

/// Communities: nodes 0..8 together, 8..12, 12..16.
fn community_of(v: u32) -> u32 {
    match v {
        0..=7 => 0,
        8..=11 => 1,
        _ => 2,
    }
}

fn workload() -> Vec<Flow> {
    let mut flows = Vec::new();
    let mut id = 0u64;
    for rep in 0..4u64 {
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let heavy = community_of(s) == community_of(d);
                flows.push(Flow {
                    id: FlowId(id),
                    src: NodeId(s),
                    dst: NodeId(d),
                    size_bytes: if heavy { 5 * 1250 } else { 1250 },
                    arrival_ns: rep * 40_000 + id % 97 * 53,
                });
                id += 1;
            }
        }
    }
    flows
}

fn drain(sched: &CircuitSchedule, router: &dyn Router) -> Result<Finished, String> {
    plain(SimConfig::default(), None)?.drive(Run::new(sched, router, workload()))
}

/// `sorn-cli nonuniform_cliques` (no flags).
pub fn run(args: &mut Args) -> Result<(), String> {
    args.reject_unknown()?;
    header("§5 — non-uniform clique sizes vs forced-uniform grouping");
    println!("16 nodes; communities of sizes 8/4/4 with 5x intra traffic\n");

    // Design A: uniform cliques of 4 (community 0 split into two).
    let uniform_map = CliqueMap::contiguous(16, 4);
    let uniform_sched =
        sorn_schedule(&uniform_map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
    let uniform_router = SornRouter::new(uniform_map);

    // Design B: cliques matched to the communities.
    let c = |x: u32| CliqueId(x);
    let assignment: Vec<CliqueId> = (0..16).map(|v| c(community_of(v))).collect();
    let matched_map = CliqueMap::from_assignment(&assignment);
    let matched_sched =
        nonuniform_sorn_schedule(&matched_map, Ratio::integer(3), 0, 1 << 20).unwrap();
    let matched_router = GeneralSornRouter::new(matched_map.clone());

    let (u, m) = (
        drain(&uniform_sched, &uniform_router)?,
        drain(&matched_sched, &matched_router)?,
    );
    let (mu, du, mm, dm) = (&u.metrics, u.drained, &m.metrics, m.drained);

    let mut t = TextTable::new(&[
        "design",
        "drained",
        "mean hops",
        "delivery fraction",
        "mean FCT (us)",
    ]);
    t.row(vec![
        "uniform 4x4 (community split)".into(),
        du.to_string(),
        format!("{:.3}", mu.mean_hops()),
        format!("{:.3}", mu.delivery_fraction()),
        format!("{:.1}", mu.mean_fct_ns() / 1000.0),
    ]);
    t.row(vec![
        "non-uniform 8/4/4 (matched)".into(),
        dm.to_string(),
        format!("{:.3}", mm.mean_hops()),
        format!("{:.3}", mm.delivery_fraction()),
        format!("{:.1}", mm.mean_fct_ns() / 1000.0),
    ]);
    println!("{}", t.render());
    println!(
        "matched cliques cut the bandwidth tax {:.1}% (the split community's",
        (1.0 - mm.mean_hops() / mu.mean_hops()) * 100.0
    );
    println!("heavy traffic rides 2-hop intra paths instead of 3-hop inter ones)");
    Ok(())
}
