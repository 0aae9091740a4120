//! Regenerates Figure 1: an oblivious reconfigurable network for 5
//! nodes, with a round-robin schedule of connections.

use crate::{header, Args};
use sorn_topology::builders::round_robin;
use sorn_topology::NodeId;

/// `sorn-cli fig1_schedule` (no flags).
pub fn run(args: &mut Args) -> Result<(), String> {
    args.reject_unknown()?;
    header("Figure 1 — oblivious round-robin schedule, 5 nodes");
    let s = round_robin(5).expect("5-node round robin");
    // The paper labels nodes A..E; print with letters for fidelity.
    let name = |n: NodeId| (b'A' + n.0 as u8) as char;
    print!("Time slot");
    for v in 0..5u32 {
        print!("\t{}", name(NodeId(v)));
    }
    println!();
    for t in 0..s.period() as u64 {
        print!("{}", t + 1);
        for v in 0..5u32 {
            let d = s.dst_at(t, NodeId(v)).expect("round robin never idles");
            print!("\t{}", name(d));
        }
        println!();
    }
    println!();
    println!("Every node cycles through every peer once per period: full");
    println!(
        "uniform connectivity with period N-1 = {} slots.",
        s.period()
    );
    Ok(())
}
