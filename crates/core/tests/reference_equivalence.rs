//! `NicState` reads per-matching slot counts; the reference here is the
//! model it replaced — one entry per slot of the period, slot indices
//! kept per neighbor — driven through the same chains of updates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sorn_core::nic::{NicState, NicUpdateReport};
use sorn_topology::builders::{
    nonuniform_sorn_schedule, round_robin, sorn_schedule, SornScheduleParams,
};
use sorn_topology::{CircuitSchedule, CliqueId, CliqueMap, Matching, NodeId, Ratio};
use std::collections::BTreeMap;

/// Slot-walk reference: per neighbor, the slots that reach it and the
/// queue depth toward it.
struct SlotWalkNic {
    node: NodeId,
    period: usize,
    neighbors: BTreeMap<u32, (Vec<u32>, u64)>,
}

impl SlotWalkNic {
    fn from_schedule(schedule: &CircuitSchedule, node: NodeId) -> Self {
        let mut neighbors: BTreeMap<u32, (Vec<u32>, u64)> = BTreeMap::new();
        for t in 0..schedule.period() as u64 {
            if let Some(d) = schedule.dst_at(t, node) {
                neighbors.entry(d.0).or_default().0.push(t as u32);
            }
        }
        SlotWalkNic {
            node,
            period: schedule.period(),
            neighbors,
        }
    }

    fn set_queue_depth(&mut self, n: NodeId, cells: u64) {
        if let Some(s) = self.neighbors.get_mut(&n.0) {
            s.1 = cells;
        }
    }

    fn apply_update(&mut self, new_schedule: &CircuitSchedule) -> NicUpdateReport {
        let mut fresh = SlotWalkNic::from_schedule(new_schedule, self.node);
        let mut report = NicUpdateReport {
            added: Vec::new(),
            removed: Vec::new(),
            retained: 0,
            drained_cells: 0,
        };
        for (&n, old) in &self.neighbors {
            match fresh.neighbors.get_mut(&n) {
                Some(kept) => {
                    report.retained += 1;
                    kept.1 = old.1;
                }
                None => {
                    report.removed.push(NodeId(n));
                    report.drained_cells += old.1;
                }
            }
        }
        report.added = fresh
            .neighbors
            .keys()
            .filter(|n| !self.neighbors.contains_key(n))
            .map(|&n| NodeId(n))
            .collect();
        *self = fresh;
        report
    }
}

fn assert_same_state(what: &str, nic: &NicState, reference: &SlotWalkNic, n: usize) {
    assert_eq!(nic.node(), reference.node, "{what}: node");
    assert_eq!(nic.period() as usize, reference.period, "{what}: period");
    assert_eq!(
        nic.neighbor_count(),
        reference.neighbors.len(),
        "{what}: neighbor count"
    );
    for v in (0..n as u32).map(NodeId) {
        match (nic.neighbor(v), reference.neighbors.get(&v.0)) {
            (None, None) => assert_eq!(nic.bandwidth_share(v), 0.0, "{what}: share of {v}"),
            (Some(got), Some((slots, queued))) => {
                assert_eq!(got.slot_count, slots.len() as u64, "{what}: slots to {v}");
                assert_eq!(got.queued_cells, *queued, "{what}: queue to {v}");
                let share = slots.len() as f64 / reference.period as f64;
                assert_eq!(
                    nic.bandwidth_share(v).to_bits(),
                    share.to_bits(),
                    "{what}: share of {v}"
                );
            }
            (got, want) => panic!(
                "{what}: neighbor {v} present {} here, {} in the reference",
                got.is_some(),
                want.is_some()
            ),
        }
    }
}

/// A random schedule over `n` nodes: one of the builders the control
/// plane installs, or a raw pool with idle ports, a duplicated matching,
/// unused pool entries and repeated slots.
fn random_schedule(n: usize, rng: &mut StdRng) -> CircuitSchedule {
    match rng.gen_range(0..4u32) {
        0 => round_robin(n).unwrap(),
        1 => {
            let divisors: Vec<usize> = (1..=n).filter(|c| n / c * c == n).collect();
            let cliques = divisors[rng.gen_range(0..divisors.len())];
            let q = Ratio::new(rng.gen_range(1..40u64), rng.gen_range(1..8u64));
            sorn_schedule(
                &CliqueMap::contiguous(n, cliques),
                &SornScheduleParams::with_q(q),
            )
            .unwrap()
        }
        2 => {
            let cliques = rng.gen_range(1..=n.min(4)) as u32;
            // Unequal cliques, each with at least one member.
            let assignment: Vec<CliqueId> = (0..n as u32)
                .map(|v| {
                    CliqueId(if v < cliques {
                        v
                    } else {
                        rng.gen_range(0..cliques)
                    })
                })
                .collect();
            let q = Ratio::new(rng.gen_range(1..9u64), rng.gen_range(1..4u64));
            let phase = rng.gen_range(0..10_000u64);
            nonuniform_sorn_schedule(&CliqueMap::from_assignment(&assignment), q, phase, 1 << 22)
                .unwrap()
        }
        _ => {
            let mut pool: Vec<Matching> = (0..rng.gen_range(1..7usize))
                .map(|_| {
                    // Cyclic shift over a random subset; the rest idle.
                    let mut active: Vec<u32> = (0..n as u32)
                        .filter(|_| rng.gen_range(0..4u32) > 0)
                        .collect();
                    let k = rng.gen_range(0..active.len().max(1));
                    active.rotate_left(k);
                    let mut sorted = active.clone();
                    sorted.sort_unstable();
                    let mut dst: Vec<u32> = (0..n as u32).collect();
                    for (&from, &to) in sorted.iter().zip(&active) {
                        dst[from as usize] = to;
                    }
                    Matching::from_permutation(dst).unwrap()
                })
                .collect();
            pool.push(pool[0].clone());
            let used = rng.gen_range(1..=pool.len());
            let slots = (0..rng.gen_range(1..300usize))
                .map(|_| rng.gen_range(0..used))
                .collect();
            CircuitSchedule::new(pool, slots).unwrap()
        }
    }
}

#[test]
fn update_chains_match_the_slot_walk() {
    let mut rng = StdRng::seed_from_u64(0x1c5);
    for case in 0..60 {
        let n = rng.gen_range(2..20usize);
        let first = random_schedule(n, &mut rng);
        let mut nics: Vec<NicState> = (0..n as u32)
            .map(|v| NicState::from_schedule(&first, NodeId(v)))
            .collect();
        let mut refs: Vec<SlotWalkNic> = (0..n as u32)
            .map(|v| SlotWalkNic::from_schedule(&first, NodeId(v)))
            .collect();
        for (nic, reference) in nics.iter().zip(&refs) {
            assert_same_state(&format!("case {case} bootstrap"), nic, reference, n);
        }

        for step in 0..rng.gen_range(5..9usize) {
            // Queue traffic toward a few nodes (neighbors or not) first,
            // so drains and carried depths are non-zero.
            for _ in 0..2 * n {
                let at = rng.gen_range(0..n);
                let toward = NodeId(rng.gen_range(0..n as u32));
                let cells = rng.gen_range(1..1_000u64);
                nics[at].set_queue_depth(toward, cells);
                refs[at].set_queue_depth(toward, cells);
            }
            let next = random_schedule(n, &mut rng);
            for (nic, reference) in nics.iter_mut().zip(&mut refs) {
                let what = format!("case {case} step {step} node {}", reference.node);
                let got = nic.apply_update(&next);
                let want = reference.apply_update(&next);
                assert_eq!(got, want, "{what}: report");
                assert_eq!(nic.version(), step as u64 + 1, "{what}: version");
                assert_same_state(&what, nic, reference, n);
            }
        }
    }
}

/// The adapt96 control loop's longest install: 96 nodes, 556 071 slots.
#[test]
fn long_period_state_matches_the_slot_walk() {
    let map = CliqueMap::contiguous(96, 4);
    let s = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::new(7653, 406))).unwrap();
    assert_eq!(s.period(), 556_071);
    for v in [0u32, 23, 24, 95] {
        let nic = NicState::from_schedule(&s, NodeId(v));
        let reference = SlotWalkNic::from_schedule(&s, NodeId(v));
        assert_same_state(&format!("node {v}"), &nic, &reference, 96);
    }
}
