//! Table 1: a comparison of latency and throughput between existing
//! oblivious designs and SORN for a 4096-rack DCN — the rows, their
//! paper-style rendering, and `sorn-cli table1`.
//!
//! Parameters, as in the paper: 4096 racks, 16 uplinks each, AWGR-based
//! OCS layer, 100 ns time slots, 500 ns propagation per hop, no queuing;
//! 56% locality ratio and 75% short-flow share (production medians); for
//! Opera, 90 µs slots and a quarter of the uplinks reconfiguring.
//!
//! Two Opera parameterizations are printed: the paper-consistent
//! constants, and constants measured from an actually sampled 4096-node
//! rotor expander.

use crate::render::{fmt_latency, fmt_pct, TextTable};
use crate::{header, Args};
use sorn_core::baselines::{
    hdim_orn_row, measured_opera_params, opera_rows, sirius_1d, sorn_rows, DeploymentParams,
    OperaParams, SystemRow,
};
use sorn_core::model::InterCliqueLatencyModel;

/// Parameters of the Table 1 comparison.
#[derive(Debug, Clone)]
pub struct Table1Params {
    /// Shared deployment (racks, uplinks, slot, propagation).
    pub deployment: DeploymentParams,
    /// Opera's configuration.
    pub opera: OperaParams,
    /// Locality ratio for the SORN rows (paper: 0.56).
    pub locality: f64,
    /// Clique counts for the SORN rows (paper: 64 and 32).
    pub sorn_clique_counts: Vec<usize>,
    /// Which inter-clique δm variant to print.
    pub inter_model: InterCliqueLatencyModel,
}

impl Default for Table1Params {
    fn default() -> Self {
        Table1Params {
            deployment: DeploymentParams::paper_reference(),
            opera: OperaParams::paper_reference(),
            locality: 0.56,
            sorn_clique_counts: vec![64, 32],
            inter_model: InterCliqueLatencyModel::Table,
        }
    }
}

/// Generates every row of the comparison, in the paper's order.
pub fn generate(params: &Table1Params) -> Vec<SystemRow> {
    let p = &params.deployment;
    let mut rows = vec![sirius_1d(p)];
    rows.extend(opera_rows(p, &params.opera));
    if let Some(r2d) = hdim_orn_row(p, 2) {
        rows.push(r2d);
    }
    for &nc in &params.sorn_clique_counts {
        rows.extend(sorn_rows(p, nc, params.locality, params.inter_model));
    }
    rows
}

/// Renders rows in the paper's column layout.
fn render(rows: &[SystemRow]) -> String {
    let mut t = TextTable::new(&[
        "System",
        "Max hops",
        "delta_m",
        "Min Latency",
        "Thpt.",
        "Norm. BW cost",
    ]);
    for r in rows {
        let name = match &r.variant {
            Some(v) => format!("{} ({v})", r.system),
            None => r.system.clone(),
        };
        t.row(vec![
            name,
            r.max_hops.to_string(),
            format!("{:.0}", r.delta_m.ceil()),
            fmt_latency(r.min_latency_ns),
            fmt_pct(r.throughput),
            format!("{:.2}x", r.bw_cost),
        ]);
    }
    t.render()
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_generates_the_papers_seven_rows() {
        let rows = generate(&Table1Params::default());
        // Sirius, Opera short, Opera bulk, 2D, SORN64 intra/inter,
        // SORN32 intra/inter = 8 rows.
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].system, "Optimal ORN 1D (Sirius)");
        assert_eq!(rows[1].variant.as_deref(), Some("short flows"));
        assert_eq!(rows[3].system, "Optimal ORN 2D");
        assert!(rows[4].system.contains("Nc=64"));
        assert!(rows[7].system.contains("Nc=32"));
    }

    #[test]
    fn rendered_table_contains_paper_values() {
        let s = render(&generate(&Table1Params::default()));
        // Spot-check the printed figures against the paper.
        assert!(s.contains("4095"), "{s}");
        assert!(s.contains("26.59 us"), "{s}");
        assert!(s.contains("252"), "{s}");
        // Exact value is 3.575 us; the paper truncates to 3.57, Rust's
        // formatter rounds to 3.58 — accept either.
        assert!(s.contains("3.57 us") || s.contains("3.58 us"), "{s}");
        assert!(s.contains("40.98%"), "{s}");
        assert!(s.contains("2.44x"), "{s}");
        assert!(s.contains("31.25%"), "{s}");
        assert!(s.contains("77"), "{s}");
        assert!(s.contains("364"), "{s}");
        assert!(s.contains("155"), "{s}");
        assert!(s.contains("296"), "{s}");
    }

    #[test]
    fn text_variant_shifts_inter_rows_only() {
        let mut p = Table1Params::default();
        p.inter_model = InterCliqueLatencyModel::Text;
        let text_rows = generate(&p);
        let table_rows = generate(&Table1Params::default());
        // Intra rows identical.
        assert_eq!(text_rows[4], table_rows[4]);
        // Inter rows larger under the Text variant.
        assert!(text_rows[5].delta_m > table_rows[5].delta_m);
    }

    #[test]
    fn latency_ordering_matches_paper_claims() {
        let rows = generate(&Table1Params::default());
        let lat = |i: usize| rows[i].min_latency_ns;
        // SORN intra (4) beats 2D ORN (3), which beats Sirius (0).
        assert!(lat(4) < lat(3));
        assert!(lat(3) < lat(0));
        // Opera bulk (2) is the worst latency of all.
        for i in [0, 1, 3, 4, 5, 6, 7] {
            assert!(lat(2) > lat(i));
        }
    }
}
