//! `flowlevel::evaluate` keeps edge loads in one vector laid out like the
//! topology's adjacency rows; the reference here is the evaluator it
//! replaced — a `HashMap` keyed by `(src, dst)` and a linear
//! `capacity()` scan per hop. Both add the same terms to each edge in the
//! same order, so every reported number must agree bit for bit.
use sorn_base::rng::Rng;
use sorn_routing::{
    evaluate, DemandMatrix, FlowLevelError, HierarchicalPaths, PathModel, SornPaths,
    ThroughputReport,
};
use sorn_topology::builders::{
    hierarchical_schedule, round_robin, sorn_schedule, HierarchySpec, SornScheduleParams,
};
use sorn_topology::{CliqueMap, LogicalTopology, NodeId, Ratio};
use std::collections::HashMap;

/// Per-edge loads at unit demand scaling, hashed by `(src, dst)`.
type EdgeLoads = HashMap<(u32, u32), f64>;

/// The hash-map evaluator. The original chose its bottleneck in the
/// map's iteration order, so on ties the edge (and its load) it reported
/// was arbitrary; this one scans in `(src, dst)` order so there is one
/// answer to compare with.
fn evaluate_reference(
    topo: &LogicalTopology,
    model: &dyn PathModel,
    demand: &DemandMatrix,
) -> Result<(ThroughputReport, EdgeLoads), FlowLevelError> {
    if demand.n() != topo.n() {
        return Err(FlowLevelError::InvalidDemand(format!(
            "demand is over {} nodes, topology over {}",
            demand.n(),
            topo.n()
        )));
    }
    let n = topo.n();
    let mut load: EdgeLoads = HashMap::new();
    let mut hop_integral = 0.0;
    let mut total_demand = 0.0;
    let mut bad_edge: Option<(NodeId, NodeId)> = None;
    for s in 0..n as u32 {
        for t in 0..n as u32 {
            let (s, t) = (NodeId(s), NodeId(t));
            let dem = demand.get(s, t);
            if dem == 0.0 {
                continue;
            }
            total_demand += dem;
            model.for_each_path(s, t, &mut |path, prob| {
                hop_integral += dem * prob * (path.len() - 1) as f64;
                for w in path.windows(2) {
                    if topo.capacity(w[0], w[1]) <= 0.0 && bad_edge.is_none() {
                        bad_edge = Some((w[0], w[1]));
                    }
                    *load.entry((w[0].0, w[1].0)).or_insert(0.0) += dem * prob;
                }
            });
        }
    }
    if let Some((a, b)) = bad_edge {
        return Err(FlowLevelError::UnscheduledEdge { src: a, dst: b });
    }
    if total_demand == 0.0 {
        return Err(FlowLevelError::EmptyDemand);
    }
    let mut keys: Vec<(u32, u32)> = load.keys().copied().collect();
    keys.sort_unstable();
    let mut throughput = f64::INFINITY;
    let mut bottleneck = (NodeId(0), NodeId(0));
    let mut bottleneck_load = 0.0;
    for (a, b) in keys {
        let l = load[&(a, b)];
        let r = topo.capacity(NodeId(a), NodeId(b)) / l;
        if r < throughput {
            throughput = r;
            bottleneck = (NodeId(a), NodeId(b));
            bottleneck_load = l;
        }
    }
    let report = ThroughputReport {
        throughput,
        bottleneck,
        bottleneck_load,
        mean_hops: hop_integral / total_demand,
    };
    Ok((report, load))
}

fn assert_same_report(
    what: &str,
    topo: &LogicalTopology,
    model: &dyn PathModel,
    demand: &DemandMatrix,
) {
    let got = evaluate(topo, model, demand);
    let want = evaluate_reference(topo, model, demand).map(|(report, _)| report);
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(
                got.throughput.to_bits(),
                want.throughput.to_bits(),
                "{what}: throughput"
            );
            assert_eq!(
                got.bottleneck_load.to_bits(),
                want.bottleneck_load.to_bits(),
                "{what}: bottleneck load"
            );
            assert_eq!(
                got.mean_hops.to_bits(),
                want.mean_hops.to_bits(),
                "{what}: mean hops"
            );
            assert_eq!(got.bottleneck, want.bottleneck, "{what}: bottleneck");
        }
        (got, want) => assert_eq!(got, want, "{what}: error"),
    }
}

/// Uniform, clique-local at two localities, and a few random
/// permutations (fixed points allowed: those rows carry no demand).
fn demands(cliques: &CliqueMap, rng: &mut Rng) -> Vec<(String, DemandMatrix)> {
    let n = cliques.n();
    let mut out = vec![
        ("uniform".to_string(), DemandMatrix::uniform(n)),
        (
            "local 0.3".to_string(),
            DemandMatrix::clique_local(cliques, 0.3),
        ),
        (
            "local 0.9".to_string(),
            DemandMatrix::clique_local(cliques, 0.9),
        ),
    ];
    for k in 0..3 {
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        out.push((
            format!("permutation {k}"),
            DemandMatrix::permutation(&perm).unwrap(),
        ));
    }
    // Sparse random demand with unequal entries.
    let rows = (0..n)
        .map(|s| {
            (0..n)
                .map(|t| {
                    if s != t && rng.gen_range(0..3u32) == 0 {
                        rng.gen_range(0.0..1.0) / n as f64
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    out.push((
        "sparse random".to_string(),
        DemandMatrix::from_rows(rows).unwrap(),
    ));
    out
}

#[test]
fn reports_match_the_hash_map_evaluator() {
    let mut rng = Rng::seed_from_u64(0xf10);

    for (n, cliques, q) in [
        (8, 2, Ratio::integer(3)),
        (24, 4, Ratio::new(7, 3)),
        (32, 8, Ratio::integer(20)),
        (6, 6, Ratio::integer(2)),
        (12, 1, Ratio::integer(2)),
        // An adapt96-sized install: 96 nodes, period 122 107.
        (96, 4, Ratio::new(4736, 573)),
    ] {
        let map = CliqueMap::contiguous(n, cliques);
        let topo = sorn_schedule(&map, &SornScheduleParams::with_q(q))
            .unwrap()
            .logical_topology();
        let model = SornPaths::new(map.clone());
        for (name, demand) in demands(&map, &mut rng) {
            assert_same_report(
                &format!("sorn {n}/{cliques} q={q}, {name}"),
                &topo,
                &model,
                &demand,
            );
        }
    }

    for n in [2, 8, 19] {
        let topo = round_robin(n).unwrap().logical_topology();
        let map = CliqueMap::contiguous(n, 1);
        let model = SornPaths::new(map.clone());
        for (name, demand) in demands(&map, &mut rng) {
            assert_same_report(&format!("vlb {n}, {name}"), &topo, &model, &demand);
        }
    }

    for (radices, weights) in [(vec![4, 4, 4], vec![6, 2, 1]), (vec![3, 5], vec![2, 1])] {
        let spec = HierarchySpec::new(radices.clone(), weights).unwrap();
        let topo = hierarchical_schedule(&spec, 1 << 22)
            .unwrap()
            .logical_topology();
        let model = HierarchicalPaths::new(spec.clone());
        let map = CliqueMap::contiguous(spec.n(), spec.n() / radices[0]);
        for (name, demand) in demands(&map, &mut rng) {
            assert_same_report(
                &format!("hierarchical {radices:?}, {name}"),
                &topo,
                &model,
                &demand,
            );
        }
    }
}

#[test]
fn errors_match_the_hash_map_evaluator() {
    let map = CliqueMap::contiguous(16, 4);
    let topo = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(2)))
        .unwrap()
        .logical_topology();
    let uniform = DemandMatrix::uniform(16);

    // Paths laid out for other cliques than the schedule's: the first
    // hop the schedule lacks, in visit order, is the one reported.
    let wrong = SornPaths::new(CliqueMap::contiguous(16, 2));
    let err = evaluate(&topo, &wrong, &uniform).unwrap_err();
    assert!(
        matches!(err, FlowLevelError::UnscheduledEdge { .. }),
        "{err:?}"
    );
    assert_same_report("wrong cliques", &topo, &wrong, &uniform);
    assert_same_report(
        "vlb over cliques",
        &topo,
        &SornPaths::new(CliqueMap::contiguous(16, 1)),
        &uniform,
    );

    // A virtual edge of zero capacity is as good as absent.
    let ring = |cap01: f64| {
        LogicalTopology::from_edges(
            3,
            [(0, 1, cap01), (1, 2, 0.5), (2, 0, 0.5)].map(|(s, d, c)| (NodeId(s), NodeId(d), c)),
        )
    };
    let clockwise = DemandMatrix::permutation(&[1, 2, 0]).unwrap();
    let direct = sorn_routing::DirectPaths;
    assert_same_report("ring", &ring(0.5), &direct, &clockwise);
    assert_eq!(
        evaluate(&ring(0.0), &direct, &clockwise),
        Err(FlowLevelError::UnscheduledEdge {
            src: NodeId(0),
            dst: NodeId(1)
        })
    );
    assert_same_report("ring with a dead edge", &ring(0.0), &direct, &clockwise);

    let model = SornPaths::new(map);
    let empty = DemandMatrix::from_rows(vec![vec![0.0; 16]; 16]).unwrap();
    assert_eq!(
        evaluate(&topo, &model, &empty),
        Err(FlowLevelError::EmptyDemand)
    );
    assert_same_report("empty demand", &topo, &model, &empty);

    let small = DemandMatrix::uniform(8);
    assert!(matches!(
        evaluate(&topo, &model, &small),
        Err(FlowLevelError::InvalidDemand(_))
    ));
    assert_same_report("shape mismatch", &topo, &model, &small);
}

/// Every edge of a round robin carries the same load under uniform
/// demand and VLB, so all 56 tie for the minimum: the report must name
/// the first of them in `(src, dst)` order, on every call.
#[test]
fn tied_bottleneck_is_the_first_edge_in_canonical_order() {
    let topo = round_robin(8).unwrap().logical_topology();
    let model = SornPaths::new(CliqueMap::contiguous(8, 1));
    let demand = DemandMatrix::uniform(8);

    let (reference, loads) = evaluate_reference(&topo, &model, &demand).unwrap();
    let tied: Vec<(u32, u32)> = topo
        .edges()
        .filter(|&(a, b, cap)| cap / loads[&(a.0, b.0)] == reference.throughput)
        .map(|(a, b, _)| (a.0, b.0))
        .collect();
    assert_eq!(tied.len(), 56, "every edge ties");
    let first = tied
        .iter()
        .min()
        .map(|&(a, b)| (NodeId(a), NodeId(b)))
        .unwrap();
    assert_eq!(first, (NodeId(0), NodeId(1)));

    for call in 0..20 {
        let report = evaluate(&topo, &model, &demand).unwrap();
        assert_eq!(report.bottleneck, first, "call {call}");
        assert_eq!(report, reference, "call {call}");
    }
}
