//! Packet-level validation of Table 1's latency column.
//!
//! Table 1's "Min Latency" is analytical (`δm/uplinks × slot + hops ×
//! propagation`). Here every system is actually run in the packet
//! simulator at a scaled-down 256 nodes (single uplink, no queuing:
//! one single-cell flow at a time, swept over arrival phases to expose
//! the worst-case circuit wait), and the measured worst case is compared
//! to its prediction.

use crate::render::TextTable;
use crate::{header, plain, Args, Run};
use sorn_core::model::{self, InterCliqueLatencyModel};
use sorn_routing::{HdimRouter, OperaModel, OperaShortRouter, SornRouter};
use sorn_sim::{Flow, FlowId, Router, SimConfig};
use sorn_topology::builders::{hdim_orn, round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio};

const N: usize = 256;
const SLOT: u64 = 100;
const PROP: u64 = 500;

/// Worst and mean FCT over (pair, phase) samples for one system.
fn measure(
    sched: &CircuitSchedule,
    router: &dyn Router,
    pairs: &[(u32, u32)],
    phase_stride: u64,
) -> Result<(u64, f64), String> {
    let mut worst = 0u64;
    let mut sum = 0.0;
    let mut count = 0u64;
    let period = sched.period() as u64;
    let mut phase = 0u64;
    while phase < period {
        for &(s, d) in pairs {
            let flow = Flow {
                id: FlowId(0),
                src: NodeId(s),
                dst: NodeId(d),
                size_bytes: 1,
                arrival_ns: phase * SLOT,
            };
            let done =
                plain(SimConfig::default(), None)?.drive(Run::new(sched, router, vec![flow]))?;
            assert!(done.drained);
            let fct = done.metrics.flows[0].fct_ns();
            worst = worst.max(fct);
            sum += fct as f64;
            count += 1;
        }
        phase += phase_stride;
    }
    Ok((worst, sum / count as f64))
}

/// `sorn-cli table1_sim_validation` (no flags).
pub fn run(args: &mut Args) -> Result<(), String> {
    args.reject_unknown()?;
    header("Table 1 latency column, validated in the packet simulator");
    println!("scaled deployment: {N} nodes, 1 uplink, {SLOT} ns slots, {PROP} ns/hop\n");
    let q = Ratio::new(50, 11); // q* for x = 0.56

    let mut t = TextTable::new(&[
        "system",
        "measured worst (us)",
        "predicted worst (us)",
        "measured mean (us)",
    ]);

    let mut row = |system: String, worst: u64, pred_ns: f64, mean: f64| {
        let us = |ns: f64| format!("{:.2}", ns / 1000.0);
        t.row(vec![system, us(worst as f64), us(pred_ns), us(mean)]);
    };
    let pred =
        |delta_m: f64, hops: u32| model::min_latency_ns(delta_m, hops, SLOT as f64, PROP as f64, 1);

    // --- 1D ORN + VLB ---
    let rr = round_robin(N).unwrap();
    let vlb = SornRouter::flat();
    let pairs = [(0u32, 1u32), (3, 130), (7, 200)];
    let (worst, mean) = measure(&rr, &vlb, &pairs, 13)?;
    // delta_m = N-1 slots for the direct hop + up to 1 slot spray wait.
    let pred_1d = pred(model::flat_delta_m(N) + 1.0, 2);
    row("1D ORN (Sirius-style)".into(), worst, pred_1d, mean);

    // --- 2D ORN ---
    let h2 = hdim_orn(N, 2).unwrap();
    let hr = HdimRouter::new(N, 2);
    let (worst2, mean2) = measure(&h2, &hr, &pairs, 1)?;
    // delta_m = h^2 (delta-1) for corrections + ~2h slots of spray.
    let pred2 = pred(model::hdim_delta_m(N, 2).unwrap() + 4.0, 4);
    row("2D ORN".into(), worst2, pred2, mean2);

    // --- SORN Nc=16 (cliques of 16) ---
    let map = CliqueMap::contiguous(N, 16);
    let ss = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
    let sr = SornRouter::new(map.clone());
    // Intra pairs.
    let intra_pairs = [(0u32, 5u32), (2, 9), (17, 30)];
    let (worst_i, mean_i) = measure(&ss, &sr, &intra_pairs, 17)?;
    let qf = q.to_f64();
    let pred_i = pred(model::intra_delta_m(qf, 16) + 2.0, 2);
    row("SORN Nc=16 intra".into(), worst_i, pred_i, mean_i);
    // Inter pairs.
    let inter_pairs = [(0u32, 100u32), (5, 250), (20, 70)];
    let (worst_e, mean_e) = measure(&ss, &sr, &inter_pairs, 17)?;
    let inter_dm = model::inter_delta_m(qf, 16, 16, InterCliqueLatencyModel::Text);
    row(
        "SORN Nc=16 inter".into(),
        worst_e,
        pred(inter_dm + 2.0, 3),
        mean_e,
    );

    // --- Opera short flows on a frozen epoch ---
    let om = OperaModel::new(N, 8, 0.75, 4, 3).unwrap();
    let frozen = om.frozen_schedule(0, 4).unwrap();
    let or = OperaShortRouter::new(&om, 0, 4).expect("connected");
    let (worst_o, mean_o) = measure(&frozen, &or, &pairs, 1)?;
    // Each hop waits at most one active-set cycle (6 slots).
    let pred_o = or.diameter() as f64 * (6.0 * SLOT as f64 + PROP as f64);
    row(
        format!("Opera short (diam {})", or.diameter()),
        worst_o,
        pred_o,
        mean_o,
    );

    println!("{}", t.render());
    println!("Shape check (as in Table 1): SORN intra < 2D ORN < 1D ORN on");
    println!("worst-case latency; measured values sit at or below predictions");
    println!("because the analytical delta_m is a worst case over all phases.");
    assert!(worst_i < worst2, "SORN intra should beat the 2D ORN");
    assert!(worst2 < worst, "2D should beat 1D");
    println!("\nshape assertions passed");
    Ok(())
}
