//! Property tests for workload generation, each a seeded loop of 256
//! cases.

use sorn_base::rng::cases;
use sorn_topology::{CliqueMap, NodeId};
use sorn_traffic::spatial::{CliqueLocal, SpatialModel, Uniform};
use sorn_traffic::{FlowSizeDist, PoissonWorkload, Trace};

/// Quantiles are monotone in the probability argument.
#[test]
fn quantiles_are_monotone() {
    let ws = FlowSizeDist::web_search();
    cases(256, |rng| {
        let (u1, u2) = (rng.gen::<f64>(), rng.gen::<f64>());
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        assert!(ws.quantile(lo) <= ws.quantile(hi), "{lo} {hi}");
    });
}

/// Samples always fall inside the CDF's support.
#[test]
fn samples_stay_in_support() {
    cases(256, |rng| {
        for dist in [FlowSizeDist::web_search(), FlowSizeDist::data_mining()] {
            for _ in 0..50 {
                let s = dist.sample(rng);
                assert!(s >= 100, "{} from {}", s, dist.name());
                assert!(s <= 1_000_000_000, "{} from {}", s, dist.name());
            }
        }
    });
}

/// Spatial models never return the source itself.
#[test]
fn spatial_models_avoid_self() {
    cases(256, |rng| {
        let n_cliques = rng.gen_range(2usize..5);
        let size = rng.gen_range(1usize..5);
        let x = rng.gen::<f64>();
        let n = n_cliques * size;
        let uni = Uniform::new(n);
        let cl = CliqueLocal::new(CliqueMap::contiguous(n, n_cliques), x);
        for s in 0..n as u32 {
            assert_ne!(uni.pick_dst(NodeId(s), rng), NodeId(s));
            assert_ne!(cl.pick_dst(NodeId(s), rng), NodeId(s));
        }
    });
}

/// Trace record/replay round-trips through JSON bit-exactly.
#[test]
fn trace_round_trips() {
    cases(256, |rng| {
        let n = rng.gen_range(2usize..16);
        let w = PoissonWorkload {
            n,
            load: rng.gen_range(1u32..10) as f64 / 10.0,
            node_bandwidth_bytes_per_ns: 12.5,
            duration_ns: 50_000,
            seed: rng.gen_range(0u64..200),
        };
        let flows = w.generate(&FlowSizeDist::fixed(3000), &Uniform::new(n));
        let t = Trace::record(n, "prop", &flows);
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.replay(), flows);
    });
}

/// Workload arrival times respect the duration bound and flows are
/// sorted.
#[test]
fn workload_respects_duration() {
    cases(256, |rng| {
        let n = rng.gen_range(2usize..10);
        let w = PoissonWorkload {
            n,
            load: 0.5,
            node_bandwidth_bytes_per_ns: 12.5,
            duration_ns: 100_000,
            seed: rng.gen_range(0u64..200),
        };
        let flows = w.generate(&FlowSizeDist::fixed(2000), &Uniform::new(n));
        for pair in flows.windows(2) {
            assert!(pair[0].arrival_ns <= pair[1].arrival_ns);
        }
        for f in &flows {
            assert!(f.arrival_ns < 100_000);
            assert_ne!(f.src, f.dst);
        }
    });
}
