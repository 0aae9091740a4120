//! The contract of `Router::circuit_admits`: whenever a router answers
//! `Some(b)` for a circuit, `class_admits` must answer `b` for *every*
//! cell on that circuit — the transmit path relies on it to skip or
//! pop a class queue without looking at a cell. Checked over random
//! inputs for every packet router in this crate (`SornRouter` in both
//! groupings and all three modes) plus `DirectRouter`.

use sorn_routing::{
    GeneralSornRouter, Grouping, HdimRouter, HierarchicalRouter, OperaModel, OperaShortRouter,
    SornRouter, GEN_INTER_ANY, INTRA_SPRAY,
};
use sorn_sim::{Cell, ClassId, DirectRouter, FailureSet, FlowId, LinkHealth, NodeRng, Router};
use sorn_topology::builders::HierarchySpec;
use sorn_topology::{CliqueMap, NodeId};

const DRAWS: usize = 20_000;

/// What `circuit_admits` is expected to return over all draws.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answers {
    /// `Some(_)` for every declared class: the scheme never needs a cell.
    Always,
    /// `None` for every class: admission depends on the cell.
    Never,
    /// No expectation; only the implication is checked.
    Unspecified,
}

fn draw(rng: &mut NodeRng, bound: u32) -> u32 {
    rng.gen_range(bound as u64) as u32
}

/// Draws `(class, cell, from, to)` over `n` nodes and checks the
/// implication; classes are the router's own plus one it never declared.
fn check(router: &dyn Router, n: u32, expect: Answers, rng: &mut NodeRng) {
    let mut classes = router.classes().to_vec();
    let declared = classes.len();
    classes.push(ClassId(200));
    let mut answered = 0usize;
    for _ in 0..DRAWS {
        let pick = draw(rng, classes.len() as u32) as usize;
        let class = classes[pick];
        let (from, to) = (NodeId(draw(rng, n)), NodeId(draw(rng, n)));
        let cell = Cell {
            flow: FlowId(rng.next_u64()),
            seq: rng.next_u64(),
            src: NodeId(draw(rng, n)),
            dst: NodeId(draw(rng, n)),
            injected_ns: rng.next_u64(),
            hops: draw(rng, router.max_hops() as u32 + 1) as u8,
            tag: rng.next_u64() as u16,
        };
        let answer = router.circuit_admits(class, from, to);
        if let Some(b) = answer {
            answered += 1;
            assert_eq!(
                router.class_admits(class, &cell, from, to),
                b,
                "{}: circuit_admits({class:?}, {from:?}, {to:?}) = Some({b}) but class_admits \
                 disagrees for {cell:?}",
                router.name()
            );
        }
        if pick < declared {
            match expect {
                Answers::Always => assert!(answer.is_some(), "{}: {class:?}", router.name()),
                Answers::Never => assert!(answer.is_none(), "{}: {class:?}", router.name()),
                Answers::Unspecified => {}
            }
        }
    }
    if expect == Answers::Always && declared > 0 {
        assert!(answered > DRAWS / 4, "{}: vacuous", router.name());
    }
}

/// The two groupings of a `SornRouter` over 32 nodes.
fn groupings() -> [Grouping; 2] {
    [
        Grouping::Flat,
        Grouping::Cliques(CliqueMap::contiguous(32, 4)),
    ]
}

/// A failure set over `n` nodes with a few dead links and one dead node.
fn random_failures(n: u32, rng: &mut NodeRng) -> FailureSet {
    let mut fs = FailureSet::none();
    for _ in 0..n {
        fs.fail_link_bidir(NodeId(draw(rng, n)), NodeId(draw(rng, n)));
    }
    fs.fail_node(NodeId(draw(rng, n)));
    fs
}

#[test]
fn cell_independent_routers_always_answer_and_agree_with_class_admits() {
    let mut rng = NodeRng::for_node(0xC1AC, 0);
    check(&DirectRouter, 32, Answers::Always, &mut rng);
    for grouping in groupings() {
        let oblivious = match grouping.clone() {
            Grouping::Flat => SornRouter::flat(),
            Grouping::Cliques(map) => SornRouter::new(map),
        };
        check(&oblivious, 32, Answers::Always, &mut rng);
        let direct_first = SornRouter::direct_first(grouping, 4);
        check(&direct_first, 32, Answers::Always, &mut rng);
    }
    let spec = HierarchySpec::new(vec![4, 4, 2], vec![4, 2, 1]).unwrap();
    check(
        &HierarchicalRouter::new(spec),
        32,
        Answers::Always,
        &mut rng,
    );
}

#[test]
fn fault_aware_routers_track_link_health() {
    let mut rng = NodeRng::for_node(0xC1AC, 1);
    let health = LinkHealth::new();
    let [vlb, sorn] = groupings().map(|g| SornRouter::fault_aware(g, health.clone()));
    // Healthy, then two different degraded fabrics, then healthy again:
    // the answer must follow the shared view, never a copy of it.
    for round in 0..4 {
        match round {
            0 | 3 => health.publish(&FailureSet::none()),
            _ => health.publish(&random_failures(32, &mut rng)),
        }
        check(&vlb, 32, Answers::Always, &mut rng);
        check(&sorn, 32, Answers::Always, &mut rng);
    }
    // One named link, down and up again.
    let (a, b) = (NodeId(1), NodeId(2)); // same clique
    assert_eq!(vlb.circuit_admits(INTRA_SPRAY, a, b), Some(true));
    assert_eq!(sorn.circuit_admits(INTRA_SPRAY, a, b), Some(true));
    let mut fs = FailureSet::none();
    fs.fail_link(a, b);
    health.publish(&fs);
    assert_eq!(vlb.circuit_admits(INTRA_SPRAY, a, b), Some(false));
    assert_eq!(sorn.circuit_admits(INTRA_SPRAY, a, b), Some(false));
    assert_eq!(vlb.circuit_admits(INTRA_SPRAY, b, a), Some(true));
    fs.restore_link(a, b);
    health.publish(&fs);
    assert_eq!(vlb.circuit_admits(INTRA_SPRAY, a, b), Some(true));
    assert_eq!(sorn.circuit_admits(INTRA_SPRAY, a, b), Some(true));
}

#[test]
fn per_cell_routers_answer_none() {
    let mut rng = NodeRng::for_node(0xC1AC, 2);
    check(&HdimRouter::new(64, 3), 64, Answers::Never, &mut rng);
    let model = OperaModel::new(128, 8, 0.75, 4, 11).unwrap();
    let opera = OperaShortRouter::new(&model, 0, 4).expect("connected expander");
    check(&opera, 128, Answers::Never, &mut rng);

    // The general router's inter-clique class keys on the cell's
    // destination clique, so it must not answer for the circuit.
    let general = GeneralSornRouter::new(CliqueMap::contiguous(32, 4));
    for _ in 0..DRAWS {
        let (from, to) = (NodeId(draw(&mut rng, 32)), NodeId(draw(&mut rng, 32)));
        assert_eq!(general.circuit_admits(GEN_INTER_ANY, from, to), None);
    }
    check(&general, 32, Answers::Unspecified, &mut rng);
}
