//! Fabric symmetry as an oracle: a relabelling that maps the fabric
//! onto itself must map a run onto itself.
//!
//! `round_robin(n)` is a circulant (matching i joins v to v + i mod n),
//! `sorn_schedule` over contiguous cliques is unchanged by a shift of a
//! whole clique, and the SORN routers are deterministic
//! (`SornRouter::decide` draws nothing from its RNG). So the answer to a
//! relabelled run is known without a second simulator: it is the
//! original run, relabelled. That catches what self-equivalence cannot,
//! a defect that is the same at every thread count and drive but depends
//! on an absolute node index, flow id or slot number. Occupancy words,
//! shard bases and calendar rings are all indexed that way, so fabrics
//! here reach 130 nodes (two 64-node word boundaries) and run at 1-3
//! engine threads.
//!
//! The relations, each exact under its stated conditions:
//! - **Rotation.** Every flow's endpoints move by k: any k on
//!   `round_robin(n)` with `SornRouter::flat()`, a multiple of the clique
//!   size on `sorn_schedule` with `SornRouter::new`. At 1 uplink the
//!   whole `Metrics` is equal, once the link counts are rotated back and
//!   the flow records listed by id. At 2-3 uplinks only the cell-level
//!   totals are: cells reaching one node in one slot queue in (sender,
//!   uplink) order, which a rotation can change, so a flow may complete
//!   a slot earlier or later.
//! - **Time shift.** Every arrival moves by a whole number of schedule
//!   periods. Each flow's FCT and every cell-level total are equal, at
//!   1-3 uplinks.
//! - **Flow-id relabel.** The flow ids are permuted. Each flow keeps its
//!   FCT and every cell-level total is equal, at 1-3 uplinks.

use sorn_base::rng::{cases, Rng};
use sorn_routing::SornRouter;
use sorn_sim::{Engine, Flow, FlowId, LinkMatrix, Metrics, Router, SimConfig};
use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CircuitSchedule, CliqueMap, NodeId, Ratio};

/// Up to 120 flows of 1-8 cells over `n` nodes, arriving in the first
/// 5 µs, so that small fabrics queue; `local` of them stay inside the
/// source's block of `block` consecutive nodes.
fn flows(rng: &mut Rng, n: u32, block: u32, local: f64) -> Vec<Flow> {
    let count = rng.gen_range(1..=120u64);
    (0..count)
        .map(|id| {
            let src = rng.gen_range(0..n);
            let dst = loop {
                let d = if rng.gen_bool(local) {
                    src / block * block + rng.gen_range(0..block)
                } else {
                    rng.gen_range(0..n)
                };
                if d != src {
                    break d;
                }
            };
            Flow {
                id: FlowId(id),
                src: NodeId(src),
                dst: NodeId(dst),
                size_bytes: 1250 * rng.gen_range(1..=8u64),
                arrival_ns: rng.gen_range(0..=5_000u64),
            }
        })
        .collect()
}

/// Draws per relation: the file runs in about a second in debug.
const CASES: u64 = 48;

/// One drained run.
fn run(
    schedule: &CircuitSchedule,
    router: &dyn Router,
    flows: &[Flow],
    uplinks: usize,
    threads: usize,
) -> Metrics {
    let cfg = SimConfig {
        uplinks,
        engine_threads: threads,
        ..SimConfig::default()
    };
    let mut eng = Engine::new(cfg, schedule, router);
    eng.add_flows(flows.to_vec()).unwrap();
    assert!(eng.run_until_drained(1_000_000).unwrap(), "did not drain");
    eng.metrics().clone()
}

/// `m` with each link count moved back by `k` nodes (mod `n`) and the
/// flow records in id order: what a run rotated by `k` must equal.
fn unrotated(m: &Metrics, n: u32, k: u32) -> Metrics {
    let mut back = m.clone();
    back.link_transmissions = LinkMatrix::with_nodes(n as usize);
    for ((src, dst), count) in m.link_transmissions.iter() {
        let link = ((src + n - k) % n, (dst + n - k) % n);
        back.link_transmissions.insert(link, count);
    }
    back.flows.sort_by_key(|f| f.id);
    back
}

/// The run-level totals a rotation keeps at any uplink count: the
/// cell counts, the hop histogram, the slots and idle circuit-slots,
/// the latency sum, the peak queue, drops and strands.
fn totals(m: &Metrics) -> impl PartialEq + std::fmt::Debug {
    (
        (m.injected_cells, m.delivered_cells, m.delivered_bytes),
        (m.transmissions, m.hop_histogram, m.cell_latency_sum_ns),
        (m.slots, m.idle_circuit_slots, m.peak_queue_depth),
        (m.dropped_cells, m.stranded_cells),
    )
}

/// Runs `flows`, and the same flows rotated by `k` at 1-3 engine
/// threads, and requires the rotation relation.
fn assert_rotation(
    what: &str,
    schedule: &CircuitSchedule,
    router: &dyn Router,
    flows: &[Flow],
    k: u32,
    uplinks: usize,
) {
    let n = schedule.n() as u32;
    let base = unrotated(&run(schedule, router, flows, uplinks, 1), n, 0);
    let rotated: Vec<Flow> = flows
        .iter()
        .map(|f| Flow {
            src: NodeId((f.src.0 + k) % n),
            dst: NodeId((f.dst.0 + k) % n),
            ..*f
        })
        .collect();
    for threads in 1..=3 {
        let got = run(schedule, router, &rotated, uplinks, threads);
        let what = format!("{what}, {n} nodes, k = {k}, {uplinks} uplinks, x{threads}");
        assert_eq!(totals(&got), totals(&base), "{what}");
        if uplinks == 1 {
            let got = unrotated(&got, n, k);
            assert!(got.flows == base.flows, "{what}: flows");
            assert!(got == base, "{what}: metrics");
        }
    }
}

#[test]
fn rotating_a_round_robin_fabric_by_any_k_rotates_the_run() {
    let router = SornRouter::flat();
    cases(CASES, |rng| {
        // Every other case crosses both word boundaries.
        let n = if rng.gen_bool(0.5) {
            rng.gen_range(129..=130u32)
        } else {
            rng.gen_range(3..=128u32)
        };
        let schedule = round_robin(n as usize).unwrap();
        let offered = flows(rng, n, n, 0.0);
        let k = rng.gen_range(1..n);
        let uplinks = rng.gen_range(1..=3usize);
        assert_rotation("flat", &schedule, &router, &offered, k, uplinks);
    });
}

#[test]
fn rotating_a_sorn_fabric_by_whole_cliques_rotates_the_run() {
    cases(CASES, |rng| {
        let cliques = rng.gen_range(2..=5u32);
        let size = rng.gen_range(2..=130 / cliques);
        let n = cliques * size;
        let map = CliqueMap::contiguous(n as usize, cliques as usize);
        let q = Ratio::integer(rng.gen_range(1..=3u64));
        let schedule = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
        let router = SornRouter::new(map);
        let offered = flows(rng, n, size, 0.5);
        let k = size * rng.gen_range(1..cliques);
        let uplinks = rng.gen_range(1..=3usize);
        assert_rotation("sorn", &schedule, &router, &offered, k, uplinks);
    });
}

/// A flat or SORN fabric of up to 130 nodes, its router, and flows on
/// it.
fn any_fabric(rng: &mut Rng) -> (CircuitSchedule, SornRouter, Vec<Flow>) {
    if rng.gen_bool(0.5) {
        let n = rng.gen_range(3..=130u32);
        let offered = flows(rng, n, n, 0.0);
        (
            round_robin(n as usize).unwrap(),
            SornRouter::flat(),
            offered,
        )
    } else {
        let cliques = rng.gen_range(2..=5u32);
        let size = rng.gen_range(2..=130 / cliques);
        let map = CliqueMap::contiguous((cliques * size) as usize, cliques as usize);
        let schedule = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(2)));
        let offered = flows(rng, cliques * size, size, 0.5);
        (schedule.unwrap(), SornRouter::new(map), offered)
    }
}

#[test]
fn shifting_every_arrival_by_whole_periods_shifts_the_run() {
    cases(CASES, |rng| {
        let (schedule, router, offered) = any_fabric(rng);
        let uplinks = rng.gen_range(1..=3usize);
        let threads = rng.gen_range(1..=3usize);
        let slots = rng.gen_range(1..=3u64) * schedule.period() as u64;
        let shift_ns = slots * SimConfig::default().slot_ns;
        let shifted: Vec<Flow> = offered
            .iter()
            .map(|f| Flow {
                arrival_ns: f.arrival_ns + shift_ns,
                ..*f
            })
            .collect();
        // The shifted run is the base run after `slots` quiet slots, in
        // which every scheduled port idles.
        let mut want = run(&schedule, &router, &offered, uplinks, 1);
        want.slots += slots;
        want.slots_skipped += slots;
        want.idle_circuit_slots += slots * (schedule.n() * uplinks) as u64;
        for f in &mut want.flows {
            f.arrival_ns += shift_ns;
            f.completion_ns += shift_ns;
        }
        want.flows.sort_by_key(|f| f.id);
        let mut got = run(&schedule, &router, &shifted, uplinks, threads);
        got.flows.sort_by_key(|f| f.id);
        let what = format!("{} nodes, {uplinks} uplinks, x{threads}", schedule.n());
        assert!(got.flows == want.flows, "{what}: flows");
        assert!(got == want, "{what}: metrics");
    });
}

#[test]
fn permuting_flow_ids_permutes_the_run() {
    cases(CASES, |rng| {
        let (schedule, router, offered) = any_fabric(rng);
        let uplinks = rng.gen_range(1..=3usize);
        let threads = rng.gen_range(1..=3usize);
        // Distinct ids spread over the whole u64 range, shuffled.
        let mut ids: Vec<u64> = (0..offered.len()).map(|_| rng.gen()).collect();
        ids.sort_unstable();
        ids.dedup();
        rng.shuffle(&mut ids);
        let offered = &offered[..ids.len()];
        let relabel = |id: FlowId| FlowId(ids[id.0 as usize]);
        let relabelled: Vec<Flow> = offered
            .iter()
            .map(|f| Flow {
                id: relabel(f.id),
                ..*f
            })
            .collect();
        let mut want = run(&schedule, &router, offered, uplinks, 1);
        for f in &mut want.flows {
            f.id = relabel(f.id);
        }
        want.flows.sort_by_key(|f| f.id);
        let mut got = run(&schedule, &router, &relabelled, uplinks, threads);
        got.flows.sort_by_key(|f| f.id);
        let what = format!("{} nodes, {uplinks} uplinks, x{threads}", schedule.n());
        assert!(got.flows == want.flows, "{what}: flows");
        assert!(got == want, "{what}: metrics");
    });
}
