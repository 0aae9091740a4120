//! Property-based tests for routing schemes and the flow-level
//! evaluator.

use sorn_base::rng::cases;
use sorn_routing::{evaluate, DemandMatrix, HdimPaths, PathModel, SornPaths, SornRouter};
use sorn_sim::{Engine, Flow, FlowId, Router, SimConfig};
use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, NodeId, Ratio};

fn assert_probs_sum_to_one(model: &dyn PathModel, n: usize) {
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s == d {
                continue;
            }
            let mut p = 0.0;
            model.for_each_path(NodeId(s), NodeId(d), &mut |path, q| {
                assert_eq!(path.first(), Some(&NodeId(s)));
                assert_eq!(path.last(), Some(&NodeId(d)));
                p += q;
            });
            assert!((p - 1.0).abs() < 1e-9, "pair {s}->{d}: total prob {p}");
        }
    }
}

/// Path probabilities sum to one for every pair, every model.
#[test]
fn path_probabilities_normalize() {
    cases(256, |rng| {
        let cliques = rng.gen_range(2usize..5);
        let size = rng.gen_range(2usize..5);
        let n = cliques * size;
        assert_probs_sum_to_one(&SornPaths::flat(n), n);
        assert_probs_sum_to_one(&SornPaths::new(CliqueMap::contiguous(n, cliques)), n);
    });
}

/// Hdim path probabilities normalize for perfect powers.
#[test]
fn hdim_path_probabilities_normalize() {
    cases(256, |rng| {
        let delta = rng.gen_range(2usize..5);
        let h = rng.gen_range(2u32..3);
        let n = delta.pow(h);
        assert_probs_sum_to_one(&HdimPaths::new(n, h), n);
    });
}

/// Every SORN path uses only circuits the SORN schedule provides —
/// evaluate() never reports an unscheduled edge.
#[test]
fn sorn_paths_stay_on_schedule() {
    cases(256, |rng| {
        let cliques = rng.gen_range(2usize..5);
        let size = rng.gen_range(2usize..5);
        let qn = rng.gen_range(1u64..6);
        let qd = rng.gen_range(1u64..4);
        let x = rng.gen_range(0.0f64..1.0);
        let n = cliques * size;
        let map = CliqueMap::contiguous(n, cliques);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::new(qn, qd))).unwrap();
        let topo = sched.logical_topology();
        let model = SornPaths::new(map.clone());
        let demand = DemandMatrix::clique_local(&map, x);
        let rep = evaluate(&topo, &model, &demand);
        assert!(rep.is_ok(), "evaluate failed: {:?}", rep.err());
    });
}

/// VLB on a round robin sustains at least half of any admissible
/// (doubly sub-stochastic) permutation demand — the classic worst
/// case guarantee.
#[test]
fn vlb_guarantees_half_throughput() {
    cases(256, |rng| {
        let n = rng.gen_range(4usize..24);
        let shift = rng.gen_range(1usize..23);
        let shift = 1 + shift % (n - 1);
        let topo = round_robin(n).unwrap().logical_topology();
        let perm: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
        let demand = DemandMatrix::permutation(&perm).unwrap();
        let rep = evaluate(&topo, &SornPaths::flat(n), &demand).unwrap();
        assert!(
            rep.throughput >= 0.5 - 1e-9,
            "throughput {}",
            rep.throughput
        );
    });
}

/// SORN throughput under clique-local demand is monotone-ish in x and
/// always at least the paper's 1/3 lower bound at ideal q.
#[test]
fn sorn_throughput_at_least_one_third() {
    cases(256, |rng| {
        let cliques = rng.gen_range(2usize..5);
        let size = rng.gen_range(2usize..5);
        let xi = rng.gen_range(0usize..10);
        let x = xi as f64 / 10.0;
        let n = cliques * size;
        let map = CliqueMap::contiguous(n, cliques);
        let q = Ratio::approximate((2.0 / (1.0 - x)).min(64.0), 64);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(q)).unwrap();
        let topo = sched.logical_topology();
        let rep = evaluate(
            &topo,
            &SornPaths::new(map.clone()),
            &DemandMatrix::clique_local(&map, x),
        )
        .unwrap();
        assert!(
            rep.throughput >= 1.0 / 3.0 - 1e-9,
            "x={} r={}",
            x,
            rep.throughput
        );
    });
}

/// Packet simulation with the VLB router delivers every injected
/// cell within the hop bound, regardless of the flow pattern.
#[test]
fn vlb_sim_delivers_everything() {
    cases(256, |rng| {
        let n = rng.gen_range(4usize..12);
        let flows = rng.vec(1..20, |rng| {
            (
                rng.gen_range(0u32..12),
                rng.gen_range(0u32..12),
                rng.gen_range(1u64..8000),
            )
        });
        let seed = rng.gen_range(0u64..1000);
        let sched = round_robin(n).unwrap();
        let router = SornRouter::flat();
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut eng = Engine::new(cfg, &sched, &router);
        let flows: Vec<Flow> = flows
            .into_iter()
            .enumerate()
            .filter(|(_, (s, d, _))| (*s as usize) < n && (*d as usize) < n && s != d)
            .map(|(i, (s, d, bytes))| Flow {
                id: FlowId(i as u64),
                src: NodeId(s),
                dst: NodeId(d),
                size_bytes: bytes,
                arrival_ns: (i as u64) * 130,
            })
            .collect();
        let expected = flows.len();
        eng.add_flows(flows).unwrap();
        let drained = eng.run_until_drained(1_000_000).unwrap();
        assert!(drained);
        assert_eq!(eng.metrics().flows.len(), expected);
        for f in &eng.metrics().flows {
            assert!(f.max_hops <= router.max_hops());
        }
    });
}

/// The SORN router delivers everything within 3 hops on matching
/// schedules.
#[test]
fn sorn_sim_respects_hop_bound() {
    cases(256, |rng| {
        let cliques = rng.gen_range(2usize..4);
        let size = rng.gen_range(2usize..5);
        let seed = rng.gen_range(0u64..100);
        let n = cliques * size;
        let map = CliqueMap::contiguous(n, cliques);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(2))).unwrap();
        let router = SornRouter::new(map);
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut eng = Engine::new(cfg, &sched, &router);
        let flows: Vec<Flow> = (0..n as u32)
            .map(|s| Flow {
                id: FlowId(s as u64),
                src: NodeId(s),
                dst: NodeId((s + 1 + seed as u32 % (n as u32 - 1)) % n as u32),
                size_bytes: 2500,
                arrival_ns: s as u64 * 90,
            })
            .filter(|f| f.src != f.dst)
            .collect();
        let expected = flows.len();
        eng.add_flows(flows).unwrap();
        assert!(eng.run_until_drained(1_000_000).unwrap());
        assert_eq!(eng.metrics().flows.len(), expected);
        for f in &eng.metrics().flows {
            assert!(f.max_hops <= 3);
        }
    });
}

/// Flow-level mean hops of VLB equals 2 - 1/(n-1) exactly (spray can
/// land on the destination).
#[test]
fn vlb_mean_hops_closed_form() {
    cases(256, |rng| {
        let n = rng.gen_range(3usize..30);
        let topo = round_robin(n).unwrap().logical_topology();
        let rep = evaluate(&topo, &SornPaths::flat(n), &DemandMatrix::uniform(n)).unwrap();
        let expect = 2.0 - 1.0 / (n as f64 - 1.0);
        assert!((rep.mean_hops - expect).abs() < 1e-9);
    });
}
