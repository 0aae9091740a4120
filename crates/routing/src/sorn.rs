//! The paper's semi-oblivious routing scheme (§4 "Routing").
//!
//! Intra-clique traffic is treated as its own little ORN and routed with
//! 2-hop VLB: a load-balancing hop on *the first available intra-clique
//! link*, then the direct intra-clique circuit to the destination.
//! Inter-clique traffic takes 3 hops: the same intra-clique spray, then
//! the inter-clique link from the intermediate to the destination clique
//! (node `(c, j)` owns the inter link to node `(c', j)`), then the direct
//! intra-clique circuit to the final destination. In Figure 2(d)'s
//! topology A a flow 0→6 can go `0 → 3 → 7 → 6` or `0 → 1 → 4 → 6`.

use sorn_sim::{Cell, ClassId, RouteDecision, Router};
use sorn_topology::{CliqueMap, NodeId};

/// The intra-clique spray class.
pub const INTRA_SPRAY: ClassId = ClassId(0);

/// Semi-oblivious clique router.
#[derive(Debug, Clone)]
pub struct SornRouter {
    cliques: CliqueMap,
    classes: [ClassId; 1],
}

impl SornRouter {
    /// Creates the router over a clique assignment. Requires uniform
    /// clique sizes (matching the schedule builder).
    ///
    /// # Panics
    /// Panics when clique sizes differ.
    pub fn new(cliques: CliqueMap) -> Self {
        assert!(
            cliques.is_uniform(),
            "SornRouter requires uniform clique sizes"
        );
        SornRouter {
            cliques,
            classes: [INTRA_SPRAY],
        }
    }

    /// The clique map this router uses.
    pub fn cliques(&self) -> &CliqueMap {
        &self.cliques
    }

    /// The node holding the inter-clique link from `v` to `dst`'s clique:
    /// the member of that clique with `v`'s intra index.
    fn inter_gateway(&self, v: NodeId, dst: NodeId) -> NodeId {
        let target = self.cliques.clique_of(dst);
        self.cliques
            .node_at(target, self.cliques.intra_index(v))
            .expect("uniform cliques: every intra index exists")
    }
}

impl Router for SornRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut sorn_sim::NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        let here = self.cliques.clique_of(node);
        let dest_clique = self.cliques.clique_of(cell.dst);

        if cell.hops == 0 {
            // Load-balancing hop on the first available intra-clique link.
            // Singleton cliques have no intra links: go straight to the
            // inter-clique gateway (which, for size-1 cliques, is the
            // destination itself).
            if self.cliques.clique_size(here) == 1 {
                return RouteDecision::ToNode(self.inter_gateway(node, cell.dst));
            }
            return RouteDecision::ToClass(INTRA_SPRAY);
        }

        if here == dest_clique {
            // Direct intra-clique circuit to the destination.
            RouteDecision::ToNode(cell.dst)
        } else {
            // Inter-clique link from this intermediate to the destination
            // clique.
            RouteDecision::ToNode(self.inter_gateway(node, cell.dst))
        }
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, from: NodeId, to: NodeId) -> Option<bool> {
        // The spray hop may use any intra-clique circuit.
        Some(self.cliques.same_clique(from, to))
    }

    fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    fn max_hops(&self) -> u8 {
        3
    }

    fn name(&self) -> &str {
        "sorn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{Engine, Flow, FlowId, SimConfig};
    use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
    use sorn_topology::Ratio;

    fn cell(src: u32, dst: u32, hops: u8) -> Cell {
        Cell {
            flow: FlowId(0),
            seq: 0,
            src: NodeId(src),
            dst: NodeId(dst),
            injected_ns: 0,
            hops,
            tag: 0,
        }
    }

    fn router8() -> SornRouter {
        SornRouter::new(CliqueMap::contiguous(8, 2))
    }

    #[test]
    fn paper_example_path_0_to_6() {
        // Topology A, flow 0 -> 6: spray inside clique 0, inter link from
        // the intermediate (same intra index in clique 1), intra to 6.
        let r = router8();
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 6, 0);
        assert_eq!(
            r.decide(NodeId(0), &mut c, &mut rng),
            RouteDecision::ToClass(INTRA_SPRAY)
        );
        // Spray landed on 3 (hops = 1): inter gateway is node 7.
        c.hops = 1;
        assert_eq!(
            r.decide(NodeId(3), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(7))
        );
        // At 7 (hops = 2): direct intra hop to 6.
        c.hops = 2;
        assert_eq!(
            r.decide(NodeId(7), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(6))
        );
        assert_eq!(
            r.decide(NodeId(6), &mut c, &mut rng),
            RouteDecision::Deliver
        );
    }

    #[test]
    fn alternate_paper_path_via_node_1() {
        // 0 -> 1 -> 4 -> 6 from the paper.
        let r = router8();
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 6, 1);
        // Spray landed on node 1; its gateway to clique 1 is node 5?
        // intra index of 1 is 1 => member(clique 1, 1) = node 5.
        // The paper's example routes 0->1->4->6: it allows any inter link
        // of the intermediate toward the destination clique. Our scheme
        // pins the same-intra-index gateway, so node 1 uses node 5.
        assert_eq!(
            r.decide(NodeId(1), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(5))
        );
    }

    #[test]
    fn spray_admits_only_intra_clique_circuits() {
        let r = router8();
        let c = cell(0, 6, 0);
        assert!(r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(3)));
        assert!(!r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(4)));
    }

    #[test]
    fn intra_traffic_uses_at_most_two_hops() {
        let map = CliqueMap::contiguous(8, 2);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
        let router = SornRouter::new(map);
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([Flow {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(2),
            size_bytes: 6 * 1250,
            arrival_ns: 0,
        }])
        .unwrap();
        assert!(eng.run_until_drained(10_000).unwrap());
        let m = eng.metrics();
        assert_eq!(m.flows.len(), 1);
        assert!(m.flows[0].max_hops <= 2);
    }

    #[test]
    fn inter_traffic_uses_at_most_three_hops_and_arrives() {
        let map = CliqueMap::contiguous(8, 2);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
        let router = SornRouter::new(map);
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        let flows: Vec<Flow> = (0..8)
            .map(|i| Flow {
                id: FlowId(i),
                src: NodeId((i % 4) as u32),           // clique 0
                dst: NodeId((4 + (i * 3) % 4) as u32), // clique 1
                size_bytes: 3 * 1250,
                arrival_ns: i * 50,
            })
            .collect();
        eng.add_flows(flows).unwrap();
        assert!(eng.run_until_drained(10_000).unwrap());
        let m = eng.metrics();
        assert_eq!(m.flows.len(), 8);
        for f in &m.flows {
            assert!(f.max_hops <= 3, "flow took {} hops", f.max_hops);
            assert!(
                f.max_hops >= 2,
                "inter-clique flow cannot arrive in one hop"
            );
        }
    }

    #[test]
    fn singleton_cliques_route_directly() {
        let map = CliqueMap::contiguous(4, 4);
        let r = SornRouter::new(map);
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 3, 0);
        // Gateway of node 0 toward clique 3 is node 3 itself.
        assert_eq!(
            r.decide(NodeId(0), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(3))
        );
    }

    #[test]
    #[should_panic(expected = "uniform")]
    fn rejects_nonuniform_cliques() {
        use sorn_topology::CliqueId;
        let map = CliqueMap::from_assignment(&[CliqueId(0), CliqueId(0), CliqueId(0), CliqueId(1)]);
        let _ = SornRouter::new(map);
    }
}
