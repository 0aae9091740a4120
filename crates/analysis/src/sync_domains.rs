//! Time-synchronization domains — §6 "Practicality benefits".
//!
//! "Modularity can also relax time-synchronization requirements, as a
//! node participates in independent schedules on each hierarchical
//! level, reducing the diameter of an individual synchronization domain.
//! Smaller schedules may also better tolerate larger time slots and
//! synchronization overheads."
//!
//! Slot-synchronous fabrics pad every slot with a guard interval that
//! absorbs clock skew plus propagation-delay spread across the nodes
//! that must agree on slot boundaries (the *synchronization domain*).
//! A flat design synchronizes the whole fabric; a SORN's intra-clique
//! slots only need clique-local agreement. This module quantifies the
//! resulting guard times and schedule efficiency, and `sorn-cli
//! sync_domains` prints them for a 4096-node fabric.
//!
//! The efficiency model is closed-form; pass `--trace-out <file>` to
//! also record a JSONL reference run of a modular fabric (64 nodes,
//! 8 cliques) whose snapshot events show the slot-by-slot circuit
//! utilization the guard times discount.

use crate::render::TextTable;
use crate::{header, plain, Args, Run, TelemetryOpts};
use sorn_routing::SornRouter;
use sorn_sim::SimConfig;
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, Ratio};
use sorn_traffic::{spatial::CliqueLocal, FlowSizeDist, PoissonWorkload};

/// Physical assumptions for the synchronization model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncModel {
    /// Fiber propagation spread per node of domain "span": we model a
    /// domain of `k` co-located nodes as spanning `span_per_node_m * k`
    /// meters of fiber between its farthest members.
    pub span_per_node_m: f64,
    /// Signal velocity in fiber, meters per nanosecond (~0.2 m/ns).
    pub fiber_m_per_ns: f64,
    /// Residual clock skew between any two synchronized nodes, ns.
    pub clock_skew_ns: f64,
    /// Useful transmit time per slot, ns (guard is added on top).
    pub transmit_ns: f64,
}

impl Default for SyncModel {
    fn default() -> Self {
        SyncModel {
            span_per_node_m: 0.5, // dense racks: half a meter per node
            fiber_m_per_ns: 0.2,
            clock_skew_ns: 5.0,
            transmit_ns: 100.0,
        }
    }
}

impl SyncModel {
    /// Guard time needed by a synchronization domain of `k` nodes:
    /// propagation spread across the domain plus twice the clock skew.
    pub fn guard_ns(&self, domain_size: usize) -> f64 {
        let spread = self.span_per_node_m * domain_size as f64 / self.fiber_m_per_ns;
        spread + 2.0 * self.clock_skew_ns
    }

    /// Slot efficiency for a domain: transmit / (transmit + guard).
    pub fn efficiency(&self, domain_size: usize) -> f64 {
        self.transmit_ns / (self.transmit_ns + self.guard_ns(domain_size))
    }
}

/// Synchronization report for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncReport {
    /// Design label.
    pub design: String,
    /// Domain size of intra-level slots (the whole fabric for flat
    /// designs, one clique for SORN).
    pub intra_domain: usize,
    /// Domain size of inter-level slots (0 when the design has none).
    pub inter_domain: usize,
    /// Guard time for intra-level slots, ns.
    pub intra_guard_ns: f64,
    /// Guard time for inter-level slots, ns.
    pub inter_guard_ns: f64,
    /// Bandwidth-weighted slot efficiency.
    pub efficiency: f64,
}

/// Flat design: one global domain of `n` nodes.
pub fn flat_sync(n: usize, model: &SyncModel) -> SyncReport {
    SyncReport {
        design: format!("flat ORN ({n} nodes)"),
        intra_domain: n,
        inter_domain: 0,
        intra_guard_ns: model.guard_ns(n),
        inter_guard_ns: 0.0,
        efficiency: model.efficiency(n),
    }
}

/// SORN: intra slots synchronize one clique (`c` nodes); inter slots
/// synchronize clique *boundaries* — one representative per clique pair,
/// modeled as a domain of `nc` points spaced at clique granularity.
///
/// `intra_fraction` is the share of slots that are intra-clique
/// (`q/(q+1)`), weighting the efficiency.
pub fn sorn_sync(n: usize, cliques: usize, q: f64, model: &SyncModel) -> SyncReport {
    assert!(cliques >= 1 && n.is_multiple_of(cliques));
    let c = n / cliques;
    // Inter-domain span: nc anchor points, each a clique apart, so the
    // physical spread still covers the hall — but only the nc anchors
    // must agree, and each clique's members only sync locally to their
    // anchor. Effective inter domain spread = cliques * (span of one
    // clique) is the worst case; we model the anchors at clique pitch.
    let intra_fraction = q / (q + 1.0);
    let intra_eff = model.efficiency(c);
    // Inter slots: domain spread spans the whole fabric (anchors sit a
    // clique apart), but skew accumulates over two sync levels.
    let inter_guard = model.guard_ns(n) + 2.0 * model.clock_skew_ns;
    let inter_eff = model.transmit_ns / (model.transmit_ns + inter_guard);
    SyncReport {
        design: format!("SORN ({cliques} cliques of {c})"),
        intra_domain: c,
        inter_domain: cliques,
        intra_guard_ns: model.guard_ns(c),
        inter_guard_ns: inter_guard,
        efficiency: intra_fraction * intra_eff + (1.0 - intra_fraction) * inter_eff,
    }
}

/// `sorn-cli sync_domains [--trace-out <path>] [--sample-interval-ns <n>]`.
pub fn run(args: &mut Args) -> Result<(), String> {
    let telemetry = TelemetryOpts::read(args)?;
    args.reject_unknown()?;
    let traced = (telemetry.trace()).map(|t| plain(SimConfig::default(), Some(t)));
    let traced = traced.transpose()?;
    header("§6 — synchronization domains: flat vs modular slot sync");
    let m = SyncModel::default();
    println!(
        "model: {} m of fiber span per node, {} m/ns, {} ns clock skew, {} ns transmit window\n",
        m.span_per_node_m, m.fiber_m_per_ns, m.clock_skew_ns, m.transmit_ns
    );

    let n = 4096;
    let q = 50.0 / 11.0;
    let mut t = TextTable::new(&[
        "design",
        "intra domain",
        "intra guard (ns)",
        "inter guard (ns)",
        "slot efficiency",
    ]);
    let flat = flat_sync(n, &m);
    t.row(vec![
        flat.design.clone(),
        flat.intra_domain.to_string(),
        format!("{:.0}", flat.intra_guard_ns),
        "-".into(),
        format!("{:.3}", flat.efficiency),
    ]);
    for nc in [16usize, 32, 64, 128] {
        let s = sorn_sync(n, nc, q, &m);
        t.row(vec![
            s.design.clone(),
            s.intra_domain.to_string(),
            format!("{:.0}", s.intra_guard_ns),
            format!("{:.0}", s.inter_guard_ns),
            format!("{:.3}", s.efficiency),
        ]);
    }
    println!("{}", t.render());

    // Packet-level reference run for the modular design: the trace's
    // utilization snapshots show which scheduled circuits actually carry
    // cells — the quantity the guard times above are discounting.
    if let (Some(opened), Some(path)) = (traced, &telemetry.trace_out) {
        let ref_n = 64usize;
        let map = CliqueMap::contiguous(ref_n, 8);
        let schedule =
            sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(4))).expect("schedule");
        let wl = PoissonWorkload {
            n: ref_n,
            load: 0.3,
            node_bandwidth_bytes_per_ns: 12.5,
            duration_ns: 50_000,
            seed: 3,
        };
        let flows = wl.generate(
            &FlowSizeDist::fixed(10 * 1250),
            &CliqueLocal::new(map.clone(), 0.5),
        );
        let router = SornRouter::new(map);
        let events = opened.drive(Run::new(&schedule, &router, flows))?.events;
        println!(
            "reference packet run (n={ref_n}, nc=8): {events} events -> {}\n",
            path.display()
        );
    }

    println!("A flat 4096-node fabric pays a fabric-spanning guard on every slot;");
    println!("a SORN only pays it on the 1/(q+1) inter-clique slots, so usable");
    println!("bandwidth rises sharply with modularity (§6's synchronization claim).");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_grows_with_domain_size() {
        let m = SyncModel::default();
        assert!(m.guard_ns(64) < m.guard_ns(4096));
        // 4096 nodes at 0.5 m/node over 0.2 m/ns = 10240 ns spread.
        assert!((m.guard_ns(4096) - (10_240.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn efficiency_decreases_with_domain_size() {
        let m = SyncModel::default();
        assert!(m.efficiency(64) > m.efficiency(4096));
        assert!(m.efficiency(64) > 0.3);
        assert!(m.efficiency(4096) < 0.05);
    }

    #[test]
    fn sorn_intra_slots_beat_flat_sync() {
        let m = SyncModel::default();
        let flat = flat_sync(4096, &m);
        let sorn = sorn_sync(4096, 64, 50.0 / 11.0, &m);
        // The intra-level domain shrinks from 4096 to 64 nodes.
        assert_eq!(flat.intra_domain, 4096);
        assert_eq!(sorn.intra_domain, 64);
        assert!(sorn.intra_guard_ns * 10.0 < flat.intra_guard_ns);
        // Overall efficiency (bandwidth-weighted) improves a lot: most
        // slots are intra and only need clique-local sync.
        assert!(
            sorn.efficiency > flat.efficiency * 5.0,
            "sorn {} vs flat {}",
            sorn.efficiency,
            flat.efficiency
        );
    }

    #[test]
    fn more_cliques_mean_cheaper_intra_sync() {
        let m = SyncModel::default();
        let s32 = sorn_sync(4096, 32, 4.0, &m);
        let s64 = sorn_sync(4096, 64, 4.0, &m);
        assert!(s64.intra_guard_ns < s32.intra_guard_ns);
        assert!(s64.efficiency > s32.efficiency);
    }

    #[test]
    fn single_clique_degenerates_to_flat() {
        let m = SyncModel::default();
        let s = sorn_sync(256, 1, 4.0, &m);
        assert_eq!(s.intra_domain, 256);
        assert_eq!(s.intra_guard_ns, flat_sync(256, &m).intra_guard_ns);
    }
}
