//! Failure-aware wrappers around the VLB and SORN routers.
//!
//! The base schemes are oblivious: a cell pinned on a specific next hop
//! waits forever if that circuit dies. These wrappers consult a shared
//! [`LinkHealth`] view (published by the engine's fault plan, see
//! `Engine::set_health_mirror`) and *detour* instead: when the pinned
//! circuit is down they re-spray the cell through the load-balancing
//! class, buying another chance to reach the destination over live
//! links. Cells whose destination node itself is dead are shed
//! ([`RouteDecision::Drop`]) rather than left to clog queues. Each
//! decision reads the view once ([`LinkHealth::view`]) and asks all of
//! its questions of that one state: no lock at all on a healthy fabric.
//!
//! Detours cost hops, so both wrappers raise the hop bound and stop
//! detouring when the remaining budget only covers the pinned path —
//! a cell out of budget waits (and may strand), it never crashes the
//! run.

use crate::sorn::INTRA_SPRAY;
use crate::vlb::VLB_SPRAY;
use sorn_sim::{Cell, ClassId, LinkHealth, RouteDecision, Router};
use sorn_topology::{CliqueMap, NodeId};

/// Hop bound shared by the fault-aware wrappers: the base schemes need
/// 2–3 hops; the rest is detour budget.
const FAULT_AWARE_MAX_HOPS: u8 = 8;

/// Failure-aware 2-hop VLB: spray, then direct — unless the direct
/// circuit is down, in which case the cell re-sprays to a new
/// intermediate.
#[derive(Debug, Clone)]
pub struct FaultAwareVlbRouter {
    health: LinkHealth,
    classes: [ClassId; 1],
}

impl FaultAwareVlbRouter {
    /// Creates the router over a shared health view.
    pub fn new(health: LinkHealth) -> Self {
        FaultAwareVlbRouter {
            health,
            classes: [VLB_SPRAY],
        }
    }

    /// The health view this router consults.
    pub fn health(&self) -> &LinkHealth {
        &self.health
    }
}

impl Router for FaultAwareVlbRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut sorn_sim::NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        let health = self.health.view();
        if health.node_failed(cell.dst) {
            // The destination itself is dead: delivering is impossible,
            // shed instead of clogging queues.
            return RouteDecision::Drop;
        }
        if cell.hops == 0 {
            return RouteDecision::ToClass(VLB_SPRAY);
        }
        // Direct hop — or a detour re-spray when the direct circuit is
        // down and the hop budget still covers spray + direct.
        if !health.circuit_up(node, cell.dst) && cell.hops + 2 <= self.max_hops() {
            return RouteDecision::ToClass(VLB_SPRAY);
        }
        RouteDecision::ToNode(cell.dst)
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, from: NodeId, to: NodeId) -> Option<bool> {
        // Any *live* circuit load-balances.
        Some(self.health.circuit_up(from, to))
    }

    fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    fn max_hops(&self) -> u8 {
        FAULT_AWARE_MAX_HOPS
    }

    fn name(&self) -> &str {
        "fault-aware-vlb"
    }
}

/// Failure-aware SORN routing: the paper's intra/inter-clique scheme,
/// detouring through the intra-clique spray when a pinned gateway or
/// direct circuit is down. Failures stay confined to the clique that
/// contains them — the §6 blast-radius argument in router form.
#[derive(Debug, Clone)]
pub struct FaultAwareSornRouter {
    cliques: CliqueMap,
    health: LinkHealth,
    classes: [ClassId; 1],
}

impl FaultAwareSornRouter {
    /// Creates the router over a clique assignment and a shared health
    /// view. Requires uniform clique sizes (matching the schedule
    /// builder).
    ///
    /// # Panics
    /// Panics when clique sizes differ.
    pub fn new(cliques: CliqueMap, health: LinkHealth) -> Self {
        assert!(
            cliques.is_uniform(),
            "FaultAwareSornRouter requires uniform clique sizes"
        );
        FaultAwareSornRouter {
            cliques,
            health,
            classes: [INTRA_SPRAY],
        }
    }

    /// The clique map this router uses.
    pub fn cliques(&self) -> &CliqueMap {
        &self.cliques
    }

    /// The health view this router consults.
    pub fn health(&self) -> &LinkHealth {
        &self.health
    }

    /// The node holding the inter-clique link from `v` to `dst`'s
    /// clique: the member of that clique with `v`'s intra index.
    fn inter_gateway(&self, v: NodeId, dst: NodeId) -> NodeId {
        let target = self.cliques.clique_of(dst);
        self.cliques
            .node_at(target, self.cliques.intra_index(v))
            .expect("uniform cliques: every intra index exists")
    }

    /// Whether a detour re-spray is possible at `node` with `budget`
    /// hops still required after the spray hop.
    fn can_respray(&self, node: NodeId, hops: u8, needed_after: u8) -> bool {
        self.cliques.clique_size(self.cliques.clique_of(node)) > 1
            && hops + 1 + needed_after <= self.max_hops()
    }
}

impl Router for FaultAwareSornRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut sorn_sim::NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        let health = self.health.view();
        if health.node_failed(cell.dst) {
            return RouteDecision::Drop;
        }
        let here = self.cliques.clique_of(node);
        let dest_clique = self.cliques.clique_of(cell.dst);

        if cell.hops == 0 {
            // Singleton cliques have no intra links: go straight to the
            // gateway, healthy or not — there is no alternative.
            if self.cliques.clique_size(here) == 1 {
                return RouteDecision::ToNode(self.inter_gateway(node, cell.dst));
            }
            return RouteDecision::ToClass(INTRA_SPRAY);
        }

        if here == dest_clique {
            // Direct intra circuit — or a detour re-spray (spray + direct
            // = 2 more hops) when it is down.
            if !health.circuit_up(node, cell.dst) && self.can_respray(node, cell.hops, 1) {
                return RouteDecision::ToClass(INTRA_SPRAY);
            }
            RouteDecision::ToNode(cell.dst)
        } else {
            // Inter-clique hop through this node's gateway — or a detour
            // re-spray toward a member with a live gateway (spray + inter
            // + intra = 3 more hops).
            let gateway = self.inter_gateway(node, cell.dst);
            // `circuit_up` is false for a dead gateway node too.
            if !health.circuit_up(node, gateway) && self.can_respray(node, cell.hops, 2) {
                return RouteDecision::ToClass(INTRA_SPRAY);
            }
            RouteDecision::ToNode(gateway)
        }
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, from: NodeId, to: NodeId) -> Option<bool> {
        // The spray hop may use any *live* intra-clique circuit.
        Some(self.cliques.same_clique(from, to) && self.health.circuit_up(from, to))
    }

    fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    fn max_hops(&self) -> u8 {
        FAULT_AWARE_MAX_HOPS
    }

    fn name(&self) -> &str {
        "fault-aware-sorn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{Engine, FailureSet, FaultPlan, Flow, FlowId, SimConfig};

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

    fn health_with(f: impl FnOnce(&mut FailureSet)) -> LinkHealth {
        let health = LinkHealth::new();
        let mut fs = FailureSet::none();
        f(&mut fs);
        health.publish(&fs);
        health
    }

    #[test]
    fn vlb_detours_around_a_dead_direct_circuit() {
        let health = health_with(|f| f.fail_link(NodeId(3), NodeId(5)));
        let r = FaultAwareVlbRouter::new(health);
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 5, 1);
        // At node 3 the direct circuit is down: re-spray.
        assert_eq!(
            r.decide(NodeId(3), &mut c, &mut rng),
            RouteDecision::ToClass(VLB_SPRAY)
        );
        // At node 4 the direct circuit is fine: pin it.
        assert_eq!(
            r.decide(NodeId(4), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(5))
        );
        // Out of detour budget: pin even the dead circuit.
        c.hops = r.max_hops() - 1;
        assert_eq!(
            r.decide(NodeId(3), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(5))
        );
    }

    #[test]
    fn dead_destination_is_shed() {
        let health = health_with(|f| f.fail_node(NodeId(5)));
        let r = FaultAwareVlbRouter::new(health);
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 5, 0);
        assert_eq!(r.decide(NodeId(0), &mut c, &mut rng), RouteDecision::Drop);
    }

    #[test]
    fn class_admission_respects_health() {
        let health = health_with(|f| f.fail_link(NodeId(0), NodeId(2)));
        let r = FaultAwareVlbRouter::new(health);
        let c = cell(0, 5, 0);
        assert!(!r.class_admits(VLB_SPRAY, &c, NodeId(0), NodeId(2)));
        assert!(r.class_admits(VLB_SPRAY, &c, NodeId(0), NodeId(3)));
    }

    #[test]
    fn sorn_detours_around_a_dead_gateway() {
        // Cliques {0..3}, {4..7}; node 3's gateway to clique 1 is 7.
        let map = CliqueMap::contiguous(8, 2);
        let health = health_with(|f| f.fail_node(NodeId(7)));
        let r = FaultAwareSornRouter::new(map, health);
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(0, 6, 1);
        // At node 3 the pinned gateway (7) is dead: re-spray in-clique.
        assert_eq!(
            r.decide(NodeId(3), &mut c, &mut rng),
            RouteDecision::ToClass(INTRA_SPRAY)
        );
        // At node 1 the gateway (5) is alive: pin it.
        assert_eq!(
            r.decide(NodeId(1), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(5))
        );
        // Spray admits only live intra circuits.
        assert!(r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(3)));
        assert!(!r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(4)));
    }

    #[test]
    fn sorn_detours_around_a_dead_intra_circuit() {
        let map = CliqueMap::contiguous(8, 2);
        let health = health_with(|f| f.fail_link(NodeId(5), NodeId(6)));
        let r = FaultAwareSornRouter::new(map, health);
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        let mut c = cell(4, 6, 1);
        assert_eq!(
            r.decide(NodeId(5), &mut c, &mut rng),
            RouteDecision::ToClass(INTRA_SPRAY)
        );
        // Healthy direct intra circuit: pinned.
        assert_eq!(
            r.decide(NodeId(7), &mut c, &mut rng),
            RouteDecision::ToNode(NodeId(6))
        );
    }

    /// Runs one flow through a permanently failed element under both the
    /// base router and its fault-aware wrapper, returning whether each
    /// run drained.
    fn drained(router: &dyn sorn_sim::Router, eng_setup: impl FnOnce(&mut Engine<'_>)) -> bool {
        let map = CliqueMap::contiguous(8, 2);
        let sched = sorn_topology::builders::sorn_schedule(
            &map,
            &sorn_topology::builders::SornScheduleParams::with_q(sorn_topology::Ratio::integer(3)),
        )
        .unwrap();
        let mut eng = Engine::new(SimConfig::default(), &sched, router);
        eng_setup(&mut eng);
        eng.add_flows([Flow {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(6),
            size_bytes: 8 * 1250,
            arrival_ns: 0,
        }])
        .unwrap();
        eng.run_until_drained(20_000).unwrap()
    }

    #[test]
    fn detour_drains_where_the_base_router_strands() {
        // Node 7 (node 3's pinned gateway toward clique 1) dies at t=0
        // and never recovers. The oblivious SornRouter strands every
        // cell that sprays onto node 3; the fault-aware wrapper detours
        // them through members with live gateways.
        let mut plan = FaultPlan::new();
        plan.fail_node_at(0, NodeId(7));
        let map = CliqueMap::contiguous(8, 2);

        let base = crate::sorn::SornRouter::new(map.clone());
        let base_drained = drained(&base, |eng| eng.set_fault_plan(plan.clone()));
        assert!(!base_drained, "oblivious routing must strand on node 3");

        let health = LinkHealth::new();
        let aware = FaultAwareSornRouter::new(map, health.clone());
        let aware_drained = drained(&aware, |eng| {
            eng.set_health_mirror(health.clone());
            eng.set_fault_plan(plan.clone());
        });
        assert!(aware_drained, "fault-aware routing must detour and drain");
    }

    #[test]
    fn a_manual_failure_reaches_the_mirror_by_the_next_slot() {
        // Node 7, node 3's pinned gateway toward clique 1, dies through a
        // manual `failures_mut` poke rather than a fault plan. The mirror
        // must carry it into the next slot's decisions; a stale one pins
        // cells on a circuit the engine already refuses, and they strand.
        let map = CliqueMap::contiguous(8, 2);
        let sched = sorn_topology::builders::sorn_schedule(
            &map,
            &sorn_topology::builders::SornScheduleParams::with_q(sorn_topology::Ratio::integer(3)),
        )
        .unwrap();
        let health = LinkHealth::new();
        let router = FaultAwareSornRouter::new(map, health.clone());
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.set_health_mirror(health);
        eng.add_flows([Flow {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(6),
            size_bytes: 8 * 1250,
            arrival_ns: 0,
        }])
        .unwrap();
        eng.step().unwrap();
        eng.failures_mut().fail_node(NodeId(7));
        eng.step().unwrap();
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        assert_eq!(
            router.decide(NodeId(3), &mut cell(0, 6, 1), &mut rng),
            RouteDecision::ToClass(INTRA_SPRAY),
            "the slot after the poke must detour around the dead gateway"
        );
        assert!(eng.run_until_drained(20_000).unwrap());
    }

    #[test]
    fn dead_destination_cells_are_dropped_not_stuck() {
        // The destination itself dies: the fault-aware router sheds the
        // cells so the run still drains, counting them as drops.
        let mut plan = FaultPlan::new();
        plan.fail_node_at(0, NodeId(6));
        let map = CliqueMap::contiguous(8, 2);
        let sched = sorn_topology::builders::sorn_schedule(
            &map,
            &sorn_topology::builders::SornScheduleParams::with_q(sorn_topology::Ratio::integer(3)),
        )
        .unwrap();
        let health = LinkHealth::new();
        let router = FaultAwareSornRouter::new(map, health.clone());
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.set_health_mirror(health);
        eng.set_fault_plan(plan);
        eng.add_flows([Flow {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(6),
            size_bytes: 4 * 1250,
            arrival_ns: 0,
        }])
        .unwrap();
        assert!(eng.run_until_drained(20_000).unwrap());
        assert_eq!(eng.metrics().dropped_cells, 4);
        assert_eq!(eng.metrics().delivered_cells, 0);
    }

    #[test]
    fn healthy_view_reduces_to_base_behavior() {
        let map = CliqueMap::contiguous(8, 2);
        let r = FaultAwareSornRouter::new(map.clone(), LinkHealth::new());
        let base = crate::sorn::SornRouter::new(map);
        let mut rng = sorn_sim::NodeRng::for_node(0, 0);
        for (at, dst, hops) in [(0u32, 6u32, 0u8), (3, 6, 1), (7, 6, 2), (1, 3, 1)] {
            let mut a = cell(0, dst, hops);
            let mut b = cell(0, dst, hops);
            assert_eq!(
                r.decide(NodeId(at), &mut a, &mut rng),
                base.decide(NodeId(at), &mut b, &mut rng),
                "divergence at node {at} hops {hops}"
            );
        }
    }
}
