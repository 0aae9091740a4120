//! Two-hop Valiant load balancing on a flat round-robin ORN.
//!
//! The classic oblivious scheme (§2, [31]): every cell first rides *the
//! first available circuit* to a uniformly random intermediate (because
//! circuits cycle round-robin, "first available" is uniform over peers),
//! then waits for the direct circuit to its destination. Worst-case
//! throughput is 50% — every cell crosses the fabric twice.

use sorn_sim::{Cell, ClassId, RouteDecision, Router};
use sorn_topology::NodeId;

/// The spray class: any outgoing circuit is acceptable for the first hop.
pub const VLB_SPRAY: ClassId = ClassId(0);

/// 2-hop VLB router (Sirius-style 1D ORN).
#[derive(Debug, Clone)]
pub struct VlbRouter {
    classes: [ClassId; 1],
}

impl VlbRouter {
    /// Creates the router.
    pub fn new() -> Self {
        VlbRouter {
            classes: [VLB_SPRAY],
        }
    }
}

impl Default for VlbRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl Router for VlbRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut sorn_sim::NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        if cell.hops == 0 {
            // Load-balancing hop: take whatever circuit comes up first.
            RouteDecision::ToClass(VLB_SPRAY)
        } else {
            // Direct hop to the destination.
            RouteDecision::ToNode(cell.dst)
        }
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, _from: NodeId, _to: NodeId) -> Option<bool> {
        // Any circuit load-balances.
        Some(true)
    }

    fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    fn max_hops(&self) -> u8 {
        2
    }

    fn name(&self) -> &str {
        "vlb-1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{Engine, Flow, FlowId, SimConfig};
    use sorn_topology::builders::round_robin;

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

    #[test]
    fn decision_sequence_is_spray_then_direct() {
        let r = VlbRouter::new();
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 5, 0);
        assert_eq!(
            r.decide(NodeId(0), &mut c, &mut rng),
            RouteDecision::ToClass(VLB_SPRAY)
        );
        c.hops = 1;
        assert_eq!(
            r.decide(NodeId(3), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(5))
        );
        assert_eq!(
            r.decide(NodeId(5), &mut c, &mut rng),
            RouteDecision::Deliver
        );
    }

    #[test]
    fn spray_can_land_on_destination_early() {
        let r = VlbRouter::new();
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 5, 1);
        // After the spray hop landed exactly on the destination.
        assert_eq!(
            r.decide(NodeId(5), &mut c, &mut rng),
            RouteDecision::Deliver
        );
    }

    #[test]
    fn all_cells_delivered_within_two_hops() {
        let sched = round_robin(8).unwrap();
        let router = VlbRouter::new();
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        let flows: Vec<Flow> = (0..16)
            .map(|i| Flow {
                id: FlowId(i),
                src: NodeId((i % 8) as u32),
                dst: NodeId(((i * 3 + 1) % 8) as u32),
                size_bytes: 4 * 1250,
                arrival_ns: i * 100,
            })
            .filter(|f| f.src != f.dst)
            .collect();
        let count = flows.len();
        eng.add_flows(flows).unwrap();
        assert!(eng.run_until_drained(10_000).unwrap());
        let m = eng.metrics();
        assert_eq!(m.flows.len(), count);
        for f in &m.flows {
            assert!(f.max_hops <= 2, "flow took {} hops", f.max_hops);
        }
        // Mean hops close to 2 (some sprays land on the destination).
        let mh = m.mean_hops();
        assert!(mh > 1.5 && mh <= 2.0, "mean hops {mh}");
    }
}
