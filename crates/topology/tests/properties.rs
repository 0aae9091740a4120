//! Property-based tests for the topology substrate.

use sorn_base::rng::cases;
use sorn_topology::builders::{hdim_orn, round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, Matching, NodeId, Ratio};

/// Cyclic matchings are permutations for every (n, k).
#[test]
fn cyclic_matchings_are_permutations() {
    cases(256, |rng| {
        let n = rng.gen_range(1usize..200);
        let k = rng.gen_range(0usize..400);
        let m = Matching::cyclic(n, k);
        // Re-validate by reconstructing from the raw permutation.
        assert!(Matching::from_permutation(m.as_slice().to_vec()).is_ok());
    });
}

/// Round-robin schedules connect every ordered pair exactly once per
/// period.
#[test]
fn round_robin_covers_all_pairs_once() {
    cases(256, |rng| {
        let n = rng.gen_range(2usize..40);
        let s = round_robin(n).unwrap();
        for src in 0..n as u32 {
            for dst in 0..n as u32 {
                if src == dst {
                    continue;
                }
                let count = (0..s.period() as u64)
                    .filter(|&t| s.matching_at(t).connects(NodeId(src), NodeId(dst)))
                    .count();
                assert_eq!(count, 1, "pair {}->{}", src, dst);
            }
        }
    });
}

/// Every slot of a SORN schedule is a valid matching, node bandwidth
/// sums to 1, and the intra/inter split equals q exactly.
#[test]
fn sorn_schedule_invariants() {
    cases(256, |rng| {
        let cliques = rng.gen_range(2usize..6);
        let size = rng.gen_range(2usize..6);
        let qn = rng.gen_range(1u64..8);
        let qd = rng.gen_range(1u64..8);
        let n = cliques * size;
        let map = CliqueMap::contiguous(n, cliques);
        let q = Ratio::new(qn, qd);
        let s = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
        s.validate().unwrap();

        let topo = s.logical_topology();
        for v in 0..n as u32 {
            let v = NodeId(v);
            assert!((topo.total_capacity(v) - 1.0).abs() < 1e-9);
            let mut intra = 0.0;
            let mut inter = 0.0;
            for (d, c) in topo.neighbors(v) {
                if map.same_clique(v, *d) {
                    intra += c;
                } else {
                    inter += c;
                }
            }
            assert!(inter > 0.0);
            assert!(
                (intra / inter - q.to_f64()).abs() < 1e-9,
                "node {}: intra {} inter {} q {}",
                v,
                intra,
                inter,
                q
            );
        }
    });
}

/// SORN schedules connect every ordered pair the routing needs:
/// all intra-clique pairs and all equal-intra-index inter pairs.
#[test]
fn sorn_schedule_routing_connectivity() {
    cases(256, |rng| {
        let cliques = rng.gen_range(2usize..5);
        let size = rng.gen_range(2usize..5);
        let n = cliques * size;
        let map = CliqueMap::contiguous(n, cliques);
        let s = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a == b {
                    continue;
                }
                let (a, b) = (NodeId(a), NodeId(b));
                let needed = map.same_clique(a, b) || map.intra_index(a) == map.intra_index(b);
                if needed {
                    assert!(
                        s.next_circuit(a, b, 0).is_some(),
                        "missing circuit {}->{}",
                        a,
                        b
                    );
                }
            }
        }
    });
}

/// h-dim schedules: every slot changes exactly one digit, and the
/// period is h(delta-1).
#[test]
fn hdim_schedule_structure() {
    cases(256, |rng| {
        let delta = rng.gen_range(2usize..6);
        let h = rng.gen_range(2u32..4);
        let n = delta.pow(h);
        let s = hdim_orn(n, h).unwrap();
        assert_eq!(s.period(), h as usize * (delta - 1));
        for t in 0..s.period() as u64 {
            let m = s.matching_at(t);
            for x in 0..n {
                let d = m.raw_dst(NodeId(x as u32)).index();
                let mut diffs = 0;
                let mut xx = x;
                let mut dd = d;
                for _ in 0..h {
                    if xx % delta != dd % delta {
                        diffs += 1;
                    }
                    xx /= delta;
                    dd /= delta;
                }
                assert_eq!(diffs, 1, "slot {}: {} -> {}", t, x, d);
            }
        }
    });
}

/// Rational approximation recovers exact fractions within the
/// denominator bound.
#[test]
fn ratio_approximation_is_exact_for_small_fractions() {
    cases(256, |rng| {
        let p = rng.gen_range(1u64..500);
        let q = rng.gen_range(1u64..100);
        let r = Ratio::approximate(p as f64 / q as f64, 1000);
        let g = {
            let (mut a, mut b) = (p, q);
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        };
        assert_eq!((r.num(), r.den()), (p / g, q / g));
    });
}

/// Clique maps: node_at inverts (clique_of, intra_index).
#[test]
fn clique_map_round_trip() {
    cases(256, |rng| {
        let cliques = rng.gen_range(1usize..8);
        let size = rng.gen_range(1usize..8);
        let n = cliques * size;
        let map = CliqueMap::contiguous(n, cliques);
        for v in 0..n as u32 {
            let v = NodeId(v);
            assert_eq!(map.node_at(map.clique_of(v), map.intra_index(v)), Some(v));
        }
    });
}

/// max_wait is consistent with wait_slots: no start slot waits more
/// than max_wait.
#[test]
fn max_wait_bounds_every_start() {
    cases(256, |rng| {
        let n = rng.gen_range(2usize..12);
        let s = round_robin(n).unwrap();
        let src = NodeId(0);
        let dst = NodeId(1);
        let max = s.max_wait(src, dst).unwrap();
        for from in 0..s.period() as u64 {
            let w = s.wait_slots(src, dst, from).unwrap();
            assert!(w <= max);
        }
    });
}
