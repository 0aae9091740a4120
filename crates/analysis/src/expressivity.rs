//! Regenerates the §5 "Expressivity" analysis: which clique sizes the
//! reference physical setup (4096 nodes, 16 ports per node, 256-port
//! gratings) can schedule, and how much matching headroom remains.

use crate::render::TextTable;
use crate::{header, Args};
use sorn_topology::awgr::AwgrSetup;

/// `sorn-cli expressivity` (no flags).
pub fn run(args: &mut Args) -> Result<(), String> {
    args.reject_unknown()?;
    header("§5 Expressivity — realizable clique sizes on the reference AWGR setup");
    let setup = AwgrSetup::paper_reference();
    println!(
        "setup: {} nodes, {} ports/node, {}-port gratings (shift coverage {})",
        setup.nodes,
        setup.ports_per_node,
        setup.grating_ports,
        setup.coverage()
    );
    println!("full-mesh capable: {}\n", setup.full_mesh_capable());

    let e = setup.expressivity();
    let sizes = e.clique_sizes();
    println!(
        "clique sizes schedulable (paper: \"1 (flat network) 16, 32, 64 up to 2048\"):\n  {:?}\n",
        sizes
    );

    let mut t = TextTable::new(&[
        "clique size",
        "cliques",
        "intra matchings",
        "inter matchings",
        "spare matchings",
    ]);
    for &c in &sizes {
        let nc = setup.nodes / c;
        let intra = c.saturating_sub(1);
        let inter = nc.saturating_sub(1);
        t.row(vec![
            c.to_string(),
            nc.to_string(),
            intra.to_string(),
            inter.to_string(),
            e.spare_matchings(intra + inter).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Hundreds-to-thousands of spare matchings remain for non-uniform");
    println!("inter-clique connectivity, gravity models, or anti-affinity (§5).");
    Ok(())
}
