//! `CircuitSchedule::logical_topology` and `circuit_fraction` read the
//! per-matching slot counts; the references here walk every slot of the
//! period, as both did before the counts existed. The two must agree
//! exactly (`PartialEq` on `f64` capacities, not a tolerance).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sorn_topology::builders::{
    clique_of_cliques, gravity_schedule, hdim_orn, hierarchical_schedule, nonuniform_sorn_schedule,
    round_robin, sorn_schedule, GravityWeights, HierarchySpec, SornScheduleParams,
};
use sorn_topology::{
    CircuitSchedule, CliqueId, CliqueMap, LogicalTopology, Matching, NodeId, Ratio,
};
use std::collections::BTreeMap;

/// Slot-walk reference: one count bump per circuit per slot.
fn slot_walk_topology(s: &CircuitSchedule) -> LogicalTopology {
    let mut counts: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); s.n()];
    for t in 0..s.period() as u64 {
        for (src, dst) in s.matching_at(t).circuits() {
            *counts[src.index()].entry(dst.0).or_insert(0) += 1;
        }
    }
    let p = s.period() as f64;
    let edges = counts.iter().enumerate().flat_map(|(src, row)| {
        row.iter()
            .map(move |(&dst, &c)| (NodeId(src as u32), NodeId(dst), c as f64 / p))
    });
    LogicalTopology::from_edges(s.n(), edges)
}

fn slot_walk_fraction(s: &CircuitSchedule, src: NodeId, dst: NodeId) -> f64 {
    let ups = (0..s.period() as u64)
        .filter(|&t| s.matching_at(t).connects(src, dst))
        .count();
    ups as f64 / s.period() as f64
}

/// Checks the schedule against both references; `rng` picks the pairs
/// whose `circuit_fraction` is compared (each costs a full slot walk).
fn assert_matches_slot_walk(what: &str, s: &CircuitSchedule, rng: &mut StdRng) {
    let counts = s.matching_slot_counts();
    assert_eq!(
        counts.len(),
        s.matchings().len(),
        "{what}: one count per matching"
    );
    assert_eq!(
        counts.iter().sum::<u64>(),
        s.period() as u64,
        "{what}: counts sum to period"
    );
    let mut walked = vec![0u64; counts.len()];
    for &i in s.slot_indices() {
        walked[i] += 1;
    }
    assert_eq!(counts, &walked[..], "{what}: slot counts");

    let topo = s.logical_topology();
    assert_eq!(topo, slot_walk_topology(s), "{what}: logical topology");
    for row in (0..s.n() as u32).map(|v| topo.neighbors(NodeId(v))) {
        assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "{what}: rows sorted, no repeats"
        );
    }

    let n = s.n() as u32;
    for _ in 0..6 {
        let (a, b) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        let f = s.circuit_fraction(a, b);
        assert_eq!(
            f.to_bits(),
            slot_walk_fraction(s, a, b).to_bits(),
            "{what}: fraction {a}->{b}"
        );
        assert_eq!(
            f.to_bits(),
            topo.capacity(a, b).to_bits(),
            "{what}: capacity {a}->{b}"
        );
    }
}

fn map_from_sizes(sizes: &[usize]) -> CliqueMap {
    let assignment: Vec<CliqueId> = sizes
        .iter()
        .enumerate()
        .flat_map(|(c, &s)| vec![CliqueId(c as u32); s])
        .collect();
    CliqueMap::from_assignment(&assignment)
}

#[test]
fn every_builder_matches_the_slot_walk() {
    let mut rng = StdRng::seed_from_u64(19);
    let rng = &mut rng;

    for n in [2, 5, 16, 33] {
        assert_matches_slot_walk(&format!("round_robin({n})"), &round_robin(n).unwrap(), rng);
    }

    let sorn = |n, cliques, q| {
        sorn_schedule(
            &CliqueMap::contiguous(n, cliques),
            &SornScheduleParams::with_q(q),
        )
        .unwrap()
    };
    assert_matches_slot_walk("sorn 8/2 q=3", &sorn(8, 2, Ratio::integer(3)), rng);
    assert_matches_slot_walk("sorn 32/4 q=7/3", &sorn(32, 4, Ratio::new(7, 3)), rng);
    assert_matches_slot_walk("sorn 12/1", &sorn(12, 1, Ratio::integer(2)), rng);
    assert_matches_slot_walk("sorn 6/6", &sorn(6, 6, Ratio::integer(2)), rng);
    // The longest schedule the adapt96 control loop installs: 26 pool
    // matchings, 556 071 slots.
    let long = sorn(96, 4, Ratio::new(7653, 406));
    assert_eq!(long.period(), 556_071);
    assert_eq!(long.matchings().len(), 26);
    assert_matches_slot_walk("sorn 96/4 q=7653/406", &long, rng);

    let uneven = map_from_sizes(&[5, 3, 1, 4]);
    for phase in [0, 7, 1_000_003] {
        let s = nonuniform_sorn_schedule(&uneven, Ratio::new(5, 2), phase, 1 << 22).unwrap();
        assert_matches_slot_walk(&format!("nonuniform phase {phase}"), &s, rng);
    }

    let spec = HierarchySpec::new(vec![4, 3, 2], vec![5, 2, 1]).unwrap();
    let s = hierarchical_schedule(&spec, 1 << 22).unwrap();
    assert_matches_slot_walk("hierarchical [4,3,2] w [5,2,1]", &s, rng);

    let s = clique_of_cliques(vec![16, 16], 1 << 22).unwrap();
    assert_matches_slot_walk("clique_of_cliques [16,16]", &s, rng);

    let weights = GravityWeights::balanced(vec![
        vec![0, 5, 1, 2],
        vec![3, 0, 4, 1],
        vec![2, 2, 0, 6],
        vec![1, 3, 2, 0],
    ])
    .unwrap();
    let s = gravity_schedule(
        &CliqueMap::contiguous(16, 4),
        Ratio::new(3, 2),
        &weights,
        1 << 22,
    )
    .unwrap();
    assert_matches_slot_walk("gravity 16/4", &s, rng);

    assert_matches_slot_walk("hdim_orn(64, 3)", &hdim_orn(64, 3).unwrap(), rng);
    assert_matches_slot_walk("hdim_orn(81, 2)", &hdim_orn(81, 2).unwrap(), rng);
}

/// A matching over `n` nodes in which roughly `idle_pct` percent of the
/// ports hold no circuit: the rest are joined in one random cycle.
fn partial_matching(n: usize, idle_pct: u32, rng: &mut StdRng) -> Matching {
    let mut active: Vec<u32> = (0..n as u32)
        .filter(|_| rng.gen_range(0..100u32) >= idle_pct)
        .collect();
    active.shuffle(rng);
    let mut dst: Vec<u32> = (0..n as u32).collect();
    for (i, &v) in active.iter().enumerate() {
        dst[v as usize] = active[(i + 1) % active.len()];
    }
    Matching::from_permutation(dst).unwrap()
}

#[test]
fn random_schedules_match_the_slot_walk() {
    let mut rng = StdRng::seed_from_u64(0x5107);
    for case in 0..200 {
        let n = rng.gen_range(2..24usize);
        let pool_len = rng.gen_range(1..10usize);
        let idle_pct = [0, 0, 30, 80][rng.gen_range(0..4usize)];
        let mut pool: Vec<Matching> = (0..pool_len)
            .map(|_| partial_matching(n, idle_pct, &mut rng))
            .collect();
        // A pool may name the same matching twice: its circuits must
        // fold into one edge.
        if rng.gen_range(0..3u32) == 0 {
            pool.push(pool[0].clone());
        }
        // Draw slots from a subset of the pool, so some matchings go
        // unused, with a skew that repeats a few indices heavily.
        let used = rng.gen_range(1..=pool.len());
        let period = rng.gen_range(1..400usize);
        let slots: Vec<usize> = (0..period)
            .map(|_| {
                let i = rng.gen_range(0..used);
                if rng.gen_range(0..2u32) == 0 {
                    i / 2
                } else {
                    i
                }
            })
            .collect();
        let s = CircuitSchedule::new(pool, slots).unwrap();
        assert_matches_slot_walk(&format!("random case {case}"), &s, &mut rng);
    }
}

/// 16 384 nodes: rows are built per source from the pool, never as an
/// n × n table, so this finishes in a debug test run.
#[test]
fn logical_topology_at_warehouse_scale() {
    let s = clique_of_cliques(vec![128, 128], 1 << 22).unwrap();
    assert_eq!((s.n(), s.period()), (16_384, 254));
    let topo = s.logical_topology();
    for v in [0u32, 127, 128, 9_000, 16_383] {
        assert_eq!(topo.degree(NodeId(v)), 254);
        assert!((topo.total_capacity(NodeId(v)) - 1.0).abs() < 1e-9);
    }
    assert_eq!(topo.capacity(NodeId(0), NodeId(1)), 1.0 / 254.0);
}
