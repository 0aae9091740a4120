//! The paper's semi-oblivious routing scheme (§4 "Routing") and the
//! oblivious family around it.
//!
//! Intra-clique traffic is treated as its own little ORN and routed with
//! 2-hop VLB: a load-balancing hop on *the first available intra-clique
//! link*, then the direct intra-clique circuit to the destination.
//! Inter-clique traffic takes 3 hops: the same intra-clique spray, then
//! the inter-clique link from the intermediate to the destination clique
//! (node `(c, j)` owns the inter link to node `(c', j)`), then the direct
//! intra-clique circuit to the final destination. In Figure 2(d)'s
//! topology A a flow 0→6 can go `0 → 3 → 7 → 6` or `0 → 1 → 4 → 6`.
//!
//! Flat 2-hop VLB (§2, the Sirius-style 1D ORN) is the same scheme over
//! one clique of every node ([`Grouping::Flat`]): because circuits cycle
//! round-robin, "first available" is uniform over peers, and every cell
//! crosses the fabric twice. It is also the h = 1 point of Amir et al.'s
//! h-dimensional ORN.
//!
//! One [`SornRouter`] covers both groupings in three modes:
//! - *oblivious* — the scheme above;
//! - *fault-aware* — a cell pinned on a dead circuit re-sprays instead of
//!   waiting forever, and a cell whose destination node is dead is shed
//!   ([`RouteDecision::Drop`]). The router reads a shared [`LinkHealth`]
//!   view (published by the engine's fault plan, see
//!   `Engine::set_health_mirror`) once per decision and asks all of its
//!   questions of that one state: no lock at all on a healthy fabric.
//!   Detours cost hops, so the hop bound rises and detouring stops when
//!   the remaining budget only covers the pinned path: a cell out of
//!   budget waits (and may strand), it never crashes the run. Failures
//!   stay confined to the clique that contains them — the §6
//!   blast-radius argument in router form;
//! - *direct-first* (RotorLB-style; cf. Wilson et al. [34], which adjusts
//!   the oblivious *routing*, not the schedule, to congestion) — a fresh
//!   intra-clique cell goes straight to its destination while fewer than
//!   `threshold` cells are pinned on that circuit, and sprays otherwise.
//!   At low load this removes the 2× spray tax; under backlog it degrades
//!   toward the oblivious scheme. Inter-clique hops are already targeted
//!   and stay as they are.

use sorn_sim::{Cell, ClassId, LinkHealth, NodeRng, RouteDecision, Router};
use sorn_topology::{CliqueMap, NodeId};
use std::collections::HashMap;
use std::sync::Mutex;

/// The spray class: the first hop may ride any circuit inside the
/// sender's clique.
pub const INTRA_SPRAY: ClassId = ClassId(0);

/// Hop bound of the fault-aware mode: the scheme itself needs 2–3 hops;
/// the rest is detour budget.
const FAULT_AWARE_MAX_HOPS: u8 = 8;

/// Which nodes share a clique.
#[derive(Debug, Clone)]
pub enum Grouping {
    /// One clique of every node: flat 2-hop VLB.
    Flat,
    /// The paper's cliques. Sizes must be uniform, as `sorn_schedule`
    /// makes them.
    Cliques(CliqueMap),
}

#[derive(Debug, Clone)]
enum Mode {
    Oblivious,
    FaultAware(LinkHealth),
    DirectFirst {
        threshold: u64,
        shadow: ShadowCounts,
    },
}

/// Semi-oblivious clique router: see the module docs.
#[derive(Debug, Clone)]
pub struct SornRouter {
    grouping: Grouping,
    mode: Mode,
}

impl SornRouter {
    /// The paper's oblivious scheme over `cliques`.
    ///
    /// # Panics
    /// Panics when clique sizes differ.
    pub fn new(cliques: CliqueMap) -> Self {
        Self::with_mode(Grouping::Cliques(cliques), Mode::Oblivious)
    }

    /// Flat 2-hop VLB.
    pub fn flat() -> Self {
        Self::with_mode(Grouping::Flat, Mode::Oblivious)
    }

    /// The fault-aware mode over a shared health view.
    ///
    /// # Panics
    /// Panics when clique sizes differ.
    pub fn fault_aware(grouping: Grouping, health: LinkHealth) -> Self {
        Self::with_mode(grouping, Mode::FaultAware(health))
    }

    /// The direct-first mode: fresh intra-clique cells go direct while
    /// fewer than `threshold` cells are pinned on that circuit.
    ///
    /// # Panics
    /// Panics when clique sizes differ.
    pub fn direct_first(grouping: Grouping, threshold: u64) -> Self {
        let shadow = ShadowCounts::default();
        Self::with_mode(grouping, Mode::DirectFirst { threshold, shadow })
    }

    fn with_mode(grouping: Grouping, mode: Mode) -> Self {
        if let Grouping::Cliques(map) = &grouping {
            assert!(map.is_uniform(), "SornRouter requires uniform clique sizes");
        }
        SornRouter { grouping, mode }
    }

    fn same_clique(&self, a: NodeId, b: NodeId) -> bool {
        match &self.grouping {
            Grouping::Flat => true,
            Grouping::Cliques(map) => map.same_clique(a, b),
        }
    }

    /// True when `v` is the only member of its clique, so it has no
    /// intra links to spray on.
    fn alone(&self, v: NodeId) -> bool {
        match &self.grouping {
            Grouping::Flat => false,
            Grouping::Cliques(map) => map.clique_size(map.clique_of(v)) == 1,
        }
    }

    /// The oblivious scheme's step for a cell away from its destination.
    /// It reads the grouping once: flat is the whole of 2-hop VLB.
    #[inline(always)]
    fn oblivious_step(&self, node: NodeId, cell: &Cell) -> RouteDecision {
        let map = match &self.grouping {
            Grouping::Flat if cell.hops == 0 => return RouteDecision::ToClass(INTRA_SPRAY),
            Grouping::Flat => return RouteDecision::ToNode(cell.dst),
            Grouping::Cliques(map) => map,
        };
        let here = map.clique_of(node);
        if cell.hops == 0 {
            // Singleton cliques have no intra links: go straight to the
            // gateway (for size-1 cliques, the destination itself).
            if map.clique_size(here) == 1 {
                return RouteDecision::ToNode(gateway(map, node, cell.dst));
            }
            // Load-balancing hop on the first available intra-clique link.
            return RouteDecision::ToClass(INTRA_SPRAY);
        }
        // The direct circuit inside the destination's clique, else this
        // node's inter-clique link toward it.
        if here == map.clique_of(cell.dst) {
            RouteDecision::ToNode(cell.dst)
        } else {
            RouteDecision::ToNode(gateway(map, node, cell.dst))
        }
    }

    /// The fault-aware step: shed a cell whose destination is dead, and
    /// re-spray one whose pinned circuit (or next node) is down while the
    /// hop budget covers spray + pinned hop + the rest. The first hop of
    /// a singleton clique has no alternative and is kept, healthy or not.
    #[inline(never)]
    fn fault_aware_step(&self, health: &LinkHealth, node: NodeId, cell: &Cell) -> RouteDecision {
        let health = health.view();
        if health.node_failed(cell.dst) {
            // Delivering is impossible: shed instead of clogging queues.
            return RouteDecision::Drop;
        }
        let step = self.oblivious_step(node, cell);
        match step {
            RouteDecision::ToNode(next) if cell.hops > 0 && !health.circuit_up(node, next) => {
                let rest = 2 + u8::from(!self.same_clique(node, cell.dst));
                if !self.alone(node) && cell.hops + rest <= FAULT_AWARE_MAX_HOPS {
                    RouteDecision::ToClass(INTRA_SPRAY)
                } else {
                    step
                }
            }
            _ => step,
        }
    }

    /// The direct-first step: a fresh intra-clique cell goes direct while
    /// fewer than `threshold` cells are pinned on that circuit. A relayed
    /// cell is pinned there anyway and counts whatever the depth.
    #[inline(never)]
    fn direct_first_step(
        &self,
        threshold: u64,
        shadow: &ShadowCounts,
        node: NodeId,
        cell: &mut Cell,
    ) -> RouteDecision {
        if self.same_clique(node, cell.dst) {
            let limit = if cell.hops == 0 { threshold } else { u64::MAX };
            if shadow.try_pin(node, cell, limit) {
                return RouteDecision::ToNode(cell.dst);
            }
        }
        self.oblivious_step(node, cell)
    }
}

impl Router for SornRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        // Only the oblivious step is inlined: the other modes' steps stay
        // out of line, so the path most runs take keeps a small frame.
        match &self.mode {
            Mode::Oblivious => self.oblivious_step(node, cell),
            Mode::FaultAware(health) => self.fault_aware_step(health, node, cell),
            Mode::DirectFirst { threshold, shadow } => {
                self.direct_first_step(*threshold, shadow, node, cell)
            }
        }
    }

    #[inline]
    fn circuit_admits(&self, _class: ClassId, from: NodeId, to: NodeId) -> Option<bool> {
        // The spray hop may use any intra-clique circuit; the fault-aware
        // mode, any live one.
        Some(
            self.same_clique(from, to)
                && match &self.mode {
                    Mode::FaultAware(health) => health.circuit_up(from, to),
                    _ => true,
                },
        )
    }

    fn on_transmit(&self, cell: &mut Cell, from: NodeId, _to: NodeId) {
        if let Mode::DirectFirst { shadow, .. } = &self.mode {
            shadow.release(from, cell);
        }
    }

    fn classes(&self) -> &[ClassId] {
        &[INTRA_SPRAY]
    }

    fn max_hops(&self) -> u8 {
        match (&self.grouping, &self.mode) {
            (_, Mode::FaultAware(_)) => FAULT_AWARE_MAX_HOPS,
            (Grouping::Flat, _) => 2,
            (Grouping::Cliques(_), _) => 3,
        }
    }

    fn name(&self) -> &str {
        match (&self.grouping, &self.mode) {
            (Grouping::Flat, Mode::Oblivious) => "vlb-1d",
            (Grouping::Cliques(_), Mode::Oblivious) => "sorn",
            (Grouping::Flat, Mode::FaultAware(_)) => "fault-aware-vlb",
            (Grouping::Cliques(_), Mode::FaultAware(_)) => "fault-aware-sorn",
            (Grouping::Flat, Mode::DirectFirst { .. }) => "adaptive-vlb",
            (Grouping::Cliques(_), Mode::DirectFirst { .. }) => "adaptive-sorn",
        }
    }
}

/// The node holding the inter-clique link from `v` to `dst`'s clique:
/// the member of that clique with `v`'s intra index.
fn gateway(map: &CliqueMap, v: NodeId, dst: NodeId) -> NodeId {
    map.node_at(map.clique_of(dst), map.intra_index(v))
        .expect("uniform cliques: every intra index exists")
}

/// The [`Cell::tag`] bit of a cell counted in [`ShadowCounts`].
const PINNED: u16 = 1;

/// How many cells the direct-first mode has pinned on each direct
/// circuit `node → dst`.
///
/// The simulator owns the real queues and a router sees cells one at a
/// time, so the router counts what `decide` pins and `on_transmit`
/// releases. A counted cell carries [`PINNED`], so only it is released:
/// a sprayed cell whose spray hop lands on its destination was never
/// counted. Every count is keyed by the acting node (`decide`'s node,
/// `on_transmit`'s sender) and the engine shards work by node, so runs
/// at any `engine_threads` stay deterministic behind the one lock.
///
/// The counts assume `SimConfig::node_queue_cap == 0`. A full queue turns
/// a pinned cell's decision into a drop after `decide` has counted it,
/// and nothing releases that count, so the circuit then sprays for the
/// rest of the run.
#[derive(Debug, Default)]
struct ShadowCounts(Mutex<HashMap<(u32, u32), u64>>);

impl Clone for ShadowCounts {
    fn clone(&self) -> Self {
        ShadowCounts(Mutex::new(self.lock().clone()))
    }
}

impl ShadowCounts {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(u32, u32), u64>> {
        self.0.lock().expect("shadow counts poisoned")
    }

    /// Pins `cell` on `node → cell.dst` unless `limit` cells already are.
    fn try_pin(&self, node: NodeId, cell: &mut Cell, limit: u64) -> bool {
        let mut queued = self.lock();
        let depth = queued.entry((node.0, cell.dst.0)).or_insert(0);
        if *depth >= limit {
            return false;
        }
        if cell.tag & PINNED == 0 {
            cell.tag |= PINNED;
            *depth += 1;
        }
        true
    }

    /// Releases `cell` as it leaves `from`, if it was pinned there.
    fn release(&self, from: NodeId, cell: &mut Cell) {
        if cell.tag & PINNED != 0 {
            cell.tag &= !PINNED;
            if let Some(depth) = self.lock().get_mut(&(from.0, cell.dst.0)) {
                *depth = depth.saturating_sub(1);
            }
        }
    }
}

/// The flat-VLB constructor under its old type name, for the benchmark's
/// workloads; ROADMAP item 2 deletes it. Build [`SornRouter::flat`].
pub enum VlbRouter {}

impl VlbRouter {
    /// [`SornRouter::flat`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> SornRouter {
        SornRouter::flat()
    }
}

/// The fault-aware SORN constructor under its old type name, for the
/// benchmark's workloads; ROADMAP item 2 deletes it. Build
/// [`SornRouter::fault_aware`].
pub enum FaultAwareSornRouter {}

impl FaultAwareSornRouter {
    /// [`SornRouter::fault_aware`] over `cliques`.
    ///
    /// # Panics
    /// Panics when clique sizes differ.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(cliques: CliqueMap, health: LinkHealth) -> SornRouter {
        SornRouter::fault_aware(Grouping::Cliques(cliques), health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{Engine, FailureSet, FaultPlan, Flow, FlowId, Metrics, SimConfig};
    use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
    use sorn_topology::{CircuitSchedule, CliqueId, Ratio};
    use RouteDecision::{Deliver, Drop, ToClass, ToNode};

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

    /// Topology A: cliques {0..3} and {4..7}.
    fn topology_a() -> Grouping {
        Grouping::Cliques(CliqueMap::contiguous(8, 2))
    }

    fn topology_a_schedule() -> CircuitSchedule {
        let map = CliqueMap::contiguous(8, 2);
        sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap()
    }

    fn decide(r: &SornRouter, at: u32, c: &mut Cell) -> RouteDecision {
        r.decide(NodeId(at), c, &mut NodeRng::for_node(0, 0))
    }

    fn health_with(f: impl FnOnce(&mut FailureSet)) -> LinkHealth {
        let health = LinkHealth::new();
        let mut fs = FailureSet::none();
        f(&mut fs);
        health.publish(&fs);
        health
    }

    fn flow(id: u64, src: u32, dst: u32, cells: u64, arrival_ns: u64) -> Flow {
        Flow {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            size_bytes: cells * 1250,
            arrival_ns,
        }
    }

    /// Runs `flows` on `schedule` (with `plan` mirrored into `health`)
    /// and returns whether the run drained within `budget` slots, and its
    /// metrics.
    fn run(
        schedule: &CircuitSchedule,
        router: &SornRouter,
        flows: Vec<Flow>,
        faults: Option<(FaultPlan, LinkHealth)>,
        budget: u64,
    ) -> (bool, Metrics) {
        let mut eng = Engine::new(SimConfig::default(), schedule, router);
        if let Some((plan, health)) = faults {
            eng.set_health_mirror(health);
            eng.set_fault_plan(plan);
        }
        eng.add_flows(flows).unwrap();
        let drained = eng.run_until_drained(budget).unwrap();
        (drained, eng.metrics().clone())
    }

    #[test]
    fn names_and_hop_bounds_follow_grouping_and_mode() {
        let health = LinkHealth::new;
        let cases = [
            (SornRouter::flat(), "vlb-1d", 2),
            (SornRouter::new(CliqueMap::contiguous(8, 2)), "sorn", 3),
            (
                SornRouter::fault_aware(Grouping::Flat, health()),
                "fault-aware-vlb",
                8,
            ),
            (
                SornRouter::fault_aware(topology_a(), health()),
                "fault-aware-sorn",
                8,
            ),
            (
                SornRouter::direct_first(Grouping::Flat, 4),
                "adaptive-vlb",
                2,
            ),
            (
                SornRouter::direct_first(topology_a(), 4),
                "adaptive-sorn",
                3,
            ),
        ];
        for (r, name, hops) in cases {
            assert_eq!((r.name(), r.max_hops()), (name, hops));
        }
    }

    #[test]
    fn flat_sprays_then_goes_direct() {
        let r = SornRouter::flat();
        let mut c = cell(0, 5, 0);
        assert_eq!(decide(&r, 0, &mut c), ToClass(INTRA_SPRAY));
        c.hops = 1;
        assert_eq!(decide(&r, 3, &mut c), ToNode(NodeId(5)));
        // Also after a spray hop that landed on the destination.
        assert_eq!(decide(&r, 5, &mut c), Deliver);
        assert_eq!(
            r.circuit_admits(INTRA_SPRAY, NodeId(0), NodeId(7)),
            Some(true)
        );
    }

    #[test]
    fn paper_example_paths_from_0_to_6() {
        // Topology A, flow 0 -> 6: spray inside clique 0, inter link from
        // the intermediate (same intra index in clique 1), intra to 6.
        let r = SornRouter::new(CliqueMap::contiguous(8, 2));
        let mut c = cell(0, 6, 0);
        assert_eq!(decide(&r, 0, &mut c), ToClass(INTRA_SPRAY));
        c.hops = 1;
        assert_eq!(decide(&r, 3, &mut c), ToNode(NodeId(7)));
        // The paper also allows 0 -> 1 -> 4 -> 6; this scheme pins the
        // same-intra-index gateway, so node 1 uses node 5.
        assert_eq!(decide(&r, 1, &mut c), ToNode(NodeId(5)));
        c.hops = 2;
        assert_eq!(decide(&r, 7, &mut c), ToNode(NodeId(6)));
        assert_eq!(decide(&r, 6, &mut c), Deliver);
        // The spray hop admits only intra-clique circuits.
        assert!(r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(3)));
        assert!(!r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(4)));
    }

    #[test]
    fn singleton_cliques_route_directly() {
        let r = SornRouter::new(CliqueMap::contiguous(4, 4));
        // Gateway of node 0 toward clique 3 is node 3 itself.
        assert_eq!(decide(&r, 0, &mut cell(0, 3, 0)), ToNode(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "uniform")]
    fn rejects_nonuniform_cliques() {
        let map = CliqueMap::from_assignment(&[CliqueId(0), CliqueId(0), CliqueId(1)]);
        let _ = SornRouter::direct_first(Grouping::Cliques(map), 2);
    }

    #[test]
    fn cells_arrive_within_the_hop_bound() {
        // Flat: mean hops just under 2 (some sprays land on the
        // destination).
        let flows =
            (0..16u64).map(|i| flow(i, (i % 8) as u32, ((i * 3 + 1) % 8) as u32, 4, i * 100));
        let (drained, m) = run(
            &round_robin(8).unwrap(),
            &SornRouter::flat(),
            flows.filter(|f| f.src != f.dst).collect(),
            None,
            10_000,
        );
        assert!(drained && m.flows.iter().all(|f| f.max_hops <= 2));
        assert!(
            m.mean_hops() > 1.5 && m.mean_hops() <= 2.0,
            "{}",
            m.mean_hops()
        );

        // Cliques: intra flows take at most 2 hops, inter flows 2 or 3.
        let r = SornRouter::new(CliqueMap::contiguous(8, 2));
        let (drained, m) = run(
            &topology_a_schedule(),
            &r,
            vec![flow(1, 0, 2, 6, 0)],
            None,
            10_000,
        );
        assert!(drained && m.flows[0].max_hops <= 2);
        let flows = (0..8u64).map(|i| flow(i, (i % 4) as u32, (4 + (i * 3) % 4) as u32, 3, i * 50));
        let (drained, m) = run(&topology_a_schedule(), &r, flows.collect(), None, 10_000);
        assert!(drained && m.flows.len() == 8);
        assert!(m.flows.iter().all(|f| (2..=3).contains(&f.max_hops)));
    }

    #[test]
    fn fault_aware_detours_around_dead_circuits() {
        // Flat: at node 3 the direct circuit is down, so re-spray; at
        // node 4 it is up; out of detour budget, pin even the dead one.
        let r = SornRouter::fault_aware(
            Grouping::Flat,
            health_with(|f| f.fail_link(NodeId(3), NodeId(5))),
        );
        let mut c = cell(0, 5, 1);
        assert_eq!(decide(&r, 3, &mut c), ToClass(INTRA_SPRAY));
        assert_eq!(decide(&r, 4, &mut c), ToNode(NodeId(5)));
        c.hops = r.max_hops() - 1;
        assert_eq!(decide(&r, 3, &mut c), ToNode(NodeId(5)));

        // Cliques: node 3's gateway to clique 1 is 7, which is dead; node
        // 1's gateway 5 is alive. Spray admits only live intra circuits.
        let r = SornRouter::fault_aware(topology_a(), health_with(|f| f.fail_node(NodeId(7))));
        let mut c = cell(0, 6, 1);
        assert_eq!(decide(&r, 3, &mut c), ToClass(INTRA_SPRAY));
        assert_eq!(decide(&r, 1, &mut c), ToNode(NodeId(5)));
        assert!(r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(3)));
        assert!(!r.class_admits(INTRA_SPRAY, &c, NodeId(0), NodeId(4)));
        assert!(!r.class_admits(INTRA_SPRAY, &c, NodeId(4), NodeId(7)));

        // A dead intra circuit 5 -> 6; 7 -> 6 is healthy.
        let r = SornRouter::fault_aware(
            topology_a(),
            health_with(|f| f.fail_link(NodeId(5), NodeId(6))),
        );
        let mut c = cell(4, 6, 1);
        assert_eq!(decide(&r, 5, &mut c), ToClass(INTRA_SPRAY));
        assert_eq!(decide(&r, 7, &mut c), ToNode(NodeId(6)));
    }

    #[test]
    fn healthy_view_reduces_to_the_oblivious_scheme() {
        for grouping in [Grouping::Flat, topology_a()] {
            let base = SornRouter::with_mode(grouping.clone(), Mode::Oblivious);
            let r = SornRouter::fault_aware(grouping, LinkHealth::new());
            for (at, dst, hops) in [(0u32, 6u32, 0u8), (3, 6, 1), (7, 6, 2), (1, 3, 1)] {
                assert_eq!(
                    decide(&r, at, &mut cell(0, dst, hops)),
                    decide(&base, at, &mut cell(0, dst, hops)),
                    "{}: at node {at} hops {hops}",
                    r.name()
                );
            }
        }
    }

    #[test]
    fn detour_drains_where_the_oblivious_router_strands() {
        // Node 7, node 3's pinned gateway toward clique 1, dies at t = 0
        // for good. The oblivious router strands every cell sprayed onto
        // node 3; the fault-aware one detours through live gateways.
        let mut plan = FaultPlan::new();
        plan.fail_node_at(0, NodeId(7));
        let flows = || vec![flow(1, 0, 6, 8, 0)];
        let base = SornRouter::new(CliqueMap::contiguous(8, 2));
        let faults = Some((plan.clone(), LinkHealth::new()));
        assert!(!run(&topology_a_schedule(), &base, flows(), faults, 20_000).0);

        let health = LinkHealth::new();
        let aware = SornRouter::fault_aware(topology_a(), health.clone());
        assert!(
            run(
                &topology_a_schedule(),
                &aware,
                flows(),
                Some((plan, health)),
                20_000
            )
            .0
        );
    }

    #[test]
    fn dead_destination_cells_are_dropped_not_stuck() {
        let health = health_with(|f| f.fail_node(NodeId(5)));
        let r = SornRouter::fault_aware(Grouping::Flat, health);
        assert_eq!(decide(&r, 0, &mut cell(0, 5, 0)), Drop);

        // In a run, the cells are shed so that it still drains.
        let mut plan = FaultPlan::new();
        plan.fail_node_at(0, NodeId(6));
        let health = LinkHealth::new();
        let r = SornRouter::fault_aware(topology_a(), health.clone());
        let (drained, m) = run(
            &topology_a_schedule(),
            &r,
            vec![flow(1, 0, 6, 4, 0)],
            Some((plan, health)),
            20_000,
        );
        assert!(drained);
        assert_eq!((m.dropped_cells, m.delivered_cells), (4, 0));
    }

    #[test]
    fn a_manual_failure_reaches_the_mirror_by_the_next_slot() {
        // Node 7 dies through a manual `failures_mut` poke rather than a
        // fault plan. The mirror must carry it into the next slot's
        // decisions; a stale one pins cells on a circuit the engine
        // already refuses, and they strand.
        let schedule = topology_a_schedule();
        let health = LinkHealth::new();
        let router = SornRouter::fault_aware(topology_a(), health.clone());
        let mut eng = Engine::new(SimConfig::default(), &schedule, &router);
        eng.set_health_mirror(health);
        eng.add_flows([flow(1, 0, 6, 8, 0)]).unwrap();
        eng.step().unwrap();
        eng.failures_mut().fail_node(NodeId(7));
        eng.step().unwrap();
        assert_eq!(
            decide(&router, 3, &mut cell(0, 6, 1)),
            ToClass(INTRA_SPRAY),
            "the slot after the poke must detour around the dead gateway"
        );
        assert!(eng.run_until_drained(20_000).unwrap());
    }

    /// Every node sends to its +1 neighbour: a permutation that
    /// oblivious VLB taxes 2x but direct routing serves in one hop.
    fn shift_by_one(n: u32, cells: u64) -> Vec<Flow> {
        (0..n)
            .map(|s| flow(s as u64, s, (s + 1) % n, cells, 0))
            .collect()
    }

    #[test]
    fn direct_first_goes_direct_at_low_load_and_sprays_under_backlog() {
        let rr = round_robin(8).unwrap();
        let low = SornRouter::direct_first(Grouping::Flat, 4);
        let (drained, m) = run(&rr, &low, shift_by_one(8, 2), None, 100_000);
        assert!(
            drained && (m.mean_hops() - 1.0).abs() < 1e-9,
            "{}",
            m.mean_hops()
        );

        // 40 cells to one destination: only a couple go direct at once.
        let backlog = SornRouter::direct_first(Grouping::Flat, 2);
        let (drained, m) = run(&rr, &backlog, shift_by_one(8, 40), None, 1_000_000);
        assert!(drained && m.mean_hops() > 1.0 && m.mean_hops() <= 2.0);

        // Unbounded: one transmission per cell, well under VLB's two.
        let all = SornRouter::direct_first(Grouping::Flat, u64::MAX);
        let (_, direct) = run(&rr, &all, shift_by_one(8, 6), None, 1_000_000);
        let (_, vlb) = run(
            &rr,
            &SornRouter::flat(),
            shift_by_one(8, 6),
            None,
            1_000_000,
        );
        assert_eq!(direct.transmissions, 48);
        assert!(vlb.transmissions > 72, "vlb {}", vlb.transmissions);
    }

    #[test]
    fn direct_first_within_cliques_keeps_the_inter_scheme() {
        let r = SornRouter::direct_first(topology_a(), 2);
        let schedule = topology_a_schedule();
        let (drained, m) = run(&schedule, &r, vec![flow(0, 0, 2, 1, 0)], None, 100_000);
        assert!(drained && m.flows[0].max_hops == 1);
        let (drained, m) = run(&schedule, &r, vec![flow(0, 0, 6, 2, 0)], None, 100_000);
        assert!(drained && (2..=3).contains(&m.flows[0].max_hops));
    }

    #[test]
    fn a_sprayed_cell_landing_on_its_destination_releases_no_pin() {
        // Threshold 1: A is pinned, so B sprays. B's spray hop happens to
        // land on the destination; that must not free A's place.
        let r = SornRouter::direct_first(Grouping::Flat, 1);
        let (mut a, mut b) = (cell(0, 5, 0), cell(0, 5, 0));
        assert_eq!(decide(&r, 0, &mut a), ToNode(NodeId(5)));
        assert_eq!(decide(&r, 0, &mut b), ToClass(INTRA_SPRAY));
        r.on_transmit(&mut b, NodeId(0), NodeId(5));
        assert_eq!(decide(&r, 0, &mut cell(0, 5, 0)), ToClass(INTRA_SPRAY));
        // A leaves: the next fresh cell goes direct.
        r.on_transmit(&mut a, NodeId(0), NodeId(5));
        assert_eq!(decide(&r, 0, &mut cell(0, 5, 0)), ToNode(NodeId(5)));
    }
}
