//! Routing for multi-level hierarchical SORN schedules.
//!
//! Generalizes the paper's two-level scheme: the first hop sprays within
//! the innermost (level-0) group — "the first available intra-group
//! link" — then the cell corrects its address digits from the *highest*
//! differing level down, one targeted hop per level. With two levels
//! this is exactly §4's routing (spray → inter-clique hop → intra hop);
//! with `L` levels a cell takes at most `L + 1` hops.

use crate::flowlevel::PathModel;
use sorn_sim::{Cell, ClassId, RouteDecision, Router};
use sorn_topology::builders::HierarchySpec;
use sorn_topology::NodeId;

/// The level-0 spray class.
pub const HIER_SPRAY: ClassId = ClassId(0);

/// Router over a hierarchical schedule.
#[derive(Debug, Clone)]
pub struct HierarchicalRouter {
    spec: HierarchySpec,
    classes: [ClassId; 1],
}

impl HierarchicalRouter {
    /// Creates the router for a hierarchy spec.
    pub fn new(spec: HierarchySpec) -> Self {
        HierarchicalRouter {
            spec,
            classes: [HIER_SPRAY],
        }
    }

    /// The hierarchy spec.
    pub fn spec(&self) -> &HierarchySpec {
        &self.spec
    }
}

impl Router for HierarchicalRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut sorn_sim::NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        if cell.hops == 0 {
            // Load-balancing hop within the innermost group.
            return RouteDecision::ToClass(HIER_SPRAY);
        }
        // Correct the highest differing level.
        let l = self
            .spec
            .highest_differing_level(node, cell.dst)
            .expect("node != dst");
        let target = self.spec.with_digit(node, l, self.spec.digit(cell.dst, l));
        RouteDecision::ToNode(target)
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, from: NodeId, to: NodeId) -> Option<bool> {
        // Spray over any level-0 circuit.
        Some(self.spec.highest_differing_level(from, to) == Some(0))
    }

    fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    fn max_hops(&self) -> u8 {
        (self.spec.levels() + 1) as u8
    }

    fn name(&self) -> &str {
        "sorn-hierarchical"
    }
}

/// Flow-level path model mirroring [`HierarchicalRouter`].
#[derive(Debug, Clone)]
pub struct HierarchicalPaths {
    spec: HierarchySpec,
}

impl HierarchicalPaths {
    /// Paths over a hierarchy spec.
    pub fn new(spec: HierarchySpec) -> Self {
        HierarchicalPaths { spec }
    }

    fn corrections(&self, mut cur: NodeId, dst: NodeId, path: &mut Vec<NodeId>) {
        while let Some(l) = self.spec.highest_differing_level(cur, dst) {
            cur = self.spec.with_digit(cur, l, self.spec.digit(dst, l));
            path.push(cur);
        }
    }
}

impl PathModel for HierarchicalPaths {
    fn for_each_path(&self, src: NodeId, dst: NodeId, visit: &mut dyn FnMut(&[NodeId], f64)) {
        let b0 = self.spec.radices[0];
        let prob = 1.0 / (b0 - 1) as f64;
        let d0 = self.spec.digit(src, 0);
        for k in 0..b0 {
            if k == d0 {
                continue;
            }
            let via = self.spec.with_digit(src, 0, k);
            let mut path = vec![src, via];
            self.corrections(via, dst, &mut path);
            // Deduplicate the case where the spray lands on dst.
            visit(&path, prob);
        }
    }

    fn name(&self) -> &str {
        "sorn-hierarchical"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowlevel::{evaluate, DemandMatrix};
    use sorn_sim::{Engine, Flow, FlowId, SimConfig};
    use sorn_topology::builders::hierarchical_schedule;

    fn spec3() -> HierarchySpec {
        HierarchySpec::new(vec![4, 4, 4], vec![6, 2, 1]).unwrap()
    }

    #[test]
    fn full_mesh_within_levels_plus_one_hops() {
        let spec = spec3(); // 64 nodes, 3 levels
        let sched = hierarchical_schedule(&spec, 1 << 20).unwrap();
        let router = HierarchicalRouter::new(spec);
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        let flows: Vec<Flow> = (0..64u32)
            .flat_map(|s| [(s, (s + 1) % 64), (s, (s + 17) % 64), (s, (s + 45) % 64)])
            .enumerate()
            .map(|(i, (s, d))| Flow {
                id: FlowId(i as u64),
                src: NodeId(s),
                dst: NodeId(d),
                size_bytes: 1250,
                arrival_ns: i as u64 * 20,
            })
            .collect();
        let count = flows.len();
        eng.add_flows(flows).unwrap();
        assert!(eng.run_until_drained(2_000_000).unwrap());
        assert_eq!(eng.metrics().flows.len(), count);
        for f in &eng.metrics().flows {
            assert!(f.max_hops <= 4, "flow took {} hops", f.max_hops);
        }
    }

    #[test]
    fn two_level_hierarchy_equals_sorn_routing_hops() {
        // Two levels (4, 2) ~ topology A: intra <= 2 hops, inter <= 3.
        let spec = HierarchySpec::new(vec![4, 2], vec![3, 1]).unwrap();
        let sched = hierarchical_schedule(&spec, 1 << 20).unwrap();
        let router = HierarchicalRouter::new(spec.clone());
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([
            Flow {
                id: FlowId(0),
                src: NodeId(0),
                dst: NodeId(2), // same level-1 digit: intra
                size_bytes: 1250,
                arrival_ns: 0,
            },
            Flow {
                id: FlowId(1),
                src: NodeId(0),
                dst: NodeId(6), // crosses level 1
                size_bytes: 1250,
                arrival_ns: 0,
            },
        ])
        .unwrap();
        assert!(eng.run_until_drained(100_000).unwrap());
        let by_id = |id: u64| {
            eng.metrics()
                .flows
                .iter()
                .find(|f| f.id.0 == id)
                .unwrap()
                .max_hops
        };
        assert!(by_id(0) <= 2);
        assert!(by_id(1) <= 3);
    }

    #[test]
    fn paths_probabilities_normalize_and_stay_scheduled() {
        let spec = spec3();
        let sched = hierarchical_schedule(&spec, 1 << 20).unwrap();
        let topo = sched.logical_topology();
        let model = HierarchicalPaths::new(spec);
        let demand = DemandMatrix::uniform(64);
        let rep = evaluate(&topo, &model, &demand).unwrap();
        // Worst-case mean hops over uniform traffic on 3 levels: most
        // pairs differ at the top level => close to 4 hops.
        assert!(rep.mean_hops > 2.0 && rep.mean_hops < 4.0);
        assert!(rep.throughput > 0.0);
    }

    #[test]
    fn correction_order_is_top_down() {
        let spec = spec3();
        let model = HierarchicalPaths::new(spec.clone());
        model.for_each_path(NodeId(0), NodeId(63), &mut |path, _| {
            // After the spray, each hop's highest-differing level vs the
            // destination strictly decreases.
            let mut last = usize::MAX;
            for v in &path[1..path.len() - 1] {
                let l = spec.highest_differing_level(*v, NodeId(63)).unwrap();
                assert!(l < last || last == usize::MAX, "level order violated");
                last = l;
            }
        });
    }
}
