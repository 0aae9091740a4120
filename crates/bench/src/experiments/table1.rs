//! Regenerates Table 1: a comparison of latency and throughput between
//! existing oblivious designs and SORN for a 4096-rack DCN.
//!
//! Parameters, as in the paper: 4096 racks, 16 uplinks each, AWGR-based
//! OCS layer, 100 ns time slots, 500 ns propagation per hop, no queuing;
//! 56% locality ratio and 75% short-flow share (production medians); for
//! Opera, 90 µs slots and a quarter of the uplinks reconfiguring.
//!
//! Two Opera parameterizations are printed: the paper-consistent
//! constants, and constants measured from an actually sampled 4096-node
//! rotor expander.

use crate::{header, Args};
use sorn_analysis::table1::{generate, render, Table1Params};
use sorn_core::baselines::measured_opera_params;
use sorn_core::model::InterCliqueLatencyModel;

/// `sorn-cli table1` (no flags).
pub fn run(args: &mut Args) -> Result<(), String> {
    args.reject_unknown()?;
    header("Table 1 — latency/throughput comparison, 4096-rack DCN");
    let params = Table1Params::default();
    println!("{}", render(&generate(&params)));

    println!("Notes:");
    println!("- SORN rows use q* = 2/(1-0.56) = 50/11 and the Table delta_m variant;");
    println!("  the paper's prose formula gives inter delta_m larger by (q+1-q)(Nc-1).");
    println!();

    // Text-variant appendix.
    let mut text = Table1Params::default();
    text.inter_model = InterCliqueLatencyModel::Text;
    header("Appendix — SORN inter-clique rows under the Text delta_m variant");
    let rows = generate(&text);
    println!("{}", render(&rows[4..]));

    // Measured Opera expander statistics at full scale.
    header("Appendix — Opera constants re-derived from a sampled 4096-node expander");
    println!("(sampling 16 uplinks, 1/4 reconfiguring; BFS over the active union)");
    match measured_opera_params(4096, 16, 0.75, 90_000.0, 7) {
        Some(o) => {
            let mean_hops = 0.75 * o.mean_expander_hops + 0.25 * 2.0;
            println!(
                "  measured mean expander path length: {:.3} (paper-consistent: 3.6)",
                o.mean_expander_hops
            );
            println!(
                "  measured max expander hops: {} (paper: 4)",
                o.max_expander_hops
            );
            println!(
                "  resulting throughput: {:.2}% (paper: 31.25%), BW cost {:.2}x (paper: 3.2x)",
                100.0 / mean_hops,
                mean_hops
            );
            let mut measured = Table1Params::default();
            measured.opera = o;
            let rows = generate(&measured);
            println!();
            println!("{}", render(&rows[1..3]));
        }
        None => println!("  expander sampling failed (disconnected sample)"),
    }
    Ok(())
}
