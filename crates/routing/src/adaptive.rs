//! Queue-adaptive two-hop routing (RotorLB-style; cf. Wilson et al.
//! [34], which adjusts the oblivious *routing* — not the schedule — to
//! congestion).
//!
//! Pure VLB pays the 2x bandwidth tax on every cell even when the
//! network is idle. The adaptive variant sends a cell *directly* when
//! the queue toward its destination is short, and only falls back to a
//! load-balancing spray under backlog. On skewed-but-admissible traffic
//! this recovers much of the taxed bandwidth; worst-case guarantees
//! degrade gracefully toward VLB as queues grow.
//!
//! The same idea applies inside SORN cliques: [`AdaptiveSornRouter`]
//! wraps the paper's scheme with direct-first intra-clique decisions.

use crate::sorn::INTRA_SPRAY;
use crate::vlb::VLB_SPRAY;
use sorn_sim::{Cell, ClassId, RouteDecision, Router};
use sorn_topology::{CliqueMap, NodeId};
use std::collections::HashMap;
use std::sync::Mutex;

/// Tracks in-flight direct-queue occupancy per (node, next-hop).
///
/// The simulator owns the authoritative queues; routers only see cells
/// one at a time, so the adaptive schemes keep a shadow count updated in
/// `decide`/`on_transmit`. Single-threaded by design (the engine is).
#[derive(Debug, Default)]
struct ShadowCounts {
    queued: HashMap<(u32, u32), u64>,
}

impl ShadowCounts {
    fn depth(&self, node: NodeId, next: NodeId) -> u64 {
        *self.queued.get(&(node.0, next.0)).unwrap_or(&0)
    }
    fn inc(&mut self, node: NodeId, next: NodeId) {
        *self.queued.entry((node.0, next.0)).or_insert(0) += 1;
    }
    fn dec(&mut self, node: NodeId, next: NodeId) {
        if let Some(v) = self.queued.get_mut(&(node.0, next.0)) {
            *v = v.saturating_sub(1);
        }
    }
}

/// Flat two-hop router that prefers the direct circuit when its queue is
/// below `threshold` cells.
#[derive(Debug)]
pub struct AdaptiveVlbRouter {
    threshold: u64,
    classes: [ClassId; 1],
    shadow: Mutex<ShadowCounts>,
}

impl AdaptiveVlbRouter {
    /// Creates the router; `threshold` is the direct-queue depth above
    /// which fresh cells spray instead.
    pub fn new(threshold: u64) -> Self {
        AdaptiveVlbRouter {
            threshold,
            classes: [VLB_SPRAY],
            shadow: Mutex::new(ShadowCounts::default()),
        }
    }

    /// The configured direct-queue threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl Router for AdaptiveVlbRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut sorn_sim::NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        if cell.hops == 0 {
            let mut shadow = self.shadow.lock().expect("shadow counts poisoned");
            if shadow.depth(node, cell.dst) < self.threshold {
                shadow.inc(node, cell.dst);
                return RouteDecision::ToNode(cell.dst);
            }
            return RouteDecision::ToClass(VLB_SPRAY);
        }
        let mut shadow = self.shadow.lock().expect("shadow counts poisoned");
        shadow.inc(node, cell.dst);
        RouteDecision::ToNode(cell.dst)
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, _from: NodeId, _to: NodeId) -> Option<bool> {
        Some(true)
    }

    fn on_transmit(&self, cell: &mut Cell, from: NodeId, to: NodeId) {
        // A direct-queue cell leaves `from` toward its destination.
        if to == cell.dst {
            self.shadow
                .lock()
                .expect("shadow counts poisoned")
                .dec(from, cell.dst);
        }
    }

    fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    fn max_hops(&self) -> u8 {
        2
    }

    fn name(&self) -> &str {
        "adaptive-vlb"
    }
}

/// SORN routing with direct-first intra-clique decisions.
///
/// Inter-clique traffic keeps the paper's 3-hop scheme (its inter hop is
/// already targeted); intra-clique traffic goes direct below the queue
/// threshold and VLB-sprays above it.
#[derive(Debug)]
pub struct AdaptiveSornRouter {
    cliques: CliqueMap,
    threshold: u64,
    classes: [ClassId; 1],
    shadow: Mutex<ShadowCounts>,
}

impl AdaptiveSornRouter {
    /// Creates the router over a uniform clique assignment.
    ///
    /// # Panics
    /// Panics when clique sizes differ.
    pub fn new(cliques: CliqueMap, threshold: u64) -> Self {
        assert!(cliques.is_uniform(), "requires uniform cliques");
        AdaptiveSornRouter {
            cliques,
            threshold,
            classes: [INTRA_SPRAY],
            shadow: Mutex::new(ShadowCounts::default()),
        }
    }

    fn gateway(&self, v: NodeId, dst: NodeId) -> NodeId {
        self.cliques
            .node_at(self.cliques.clique_of(dst), self.cliques.intra_index(v))
            .expect("uniform cliques")
    }
}

impl Router for AdaptiveSornRouter {
    fn decide(&self, node: NodeId, cell: &mut Cell, _rng: &mut sorn_sim::NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        let here = self.cliques.clique_of(node);
        let dest = self.cliques.clique_of(cell.dst);

        if cell.hops == 0 {
            if self.cliques.clique_size(here) == 1 {
                return RouteDecision::ToNode(self.gateway(node, cell.dst));
            }
            if here == dest {
                // Direct-first inside the clique.
                let mut shadow = self.shadow.lock().expect("shadow counts poisoned");
                if shadow.depth(node, cell.dst) < self.threshold {
                    shadow.inc(node, cell.dst);
                    return RouteDecision::ToNode(cell.dst);
                }
            }
            return RouteDecision::ToClass(INTRA_SPRAY);
        }
        if here == dest {
            RouteDecision::ToNode(cell.dst)
        } else {
            RouteDecision::ToNode(self.gateway(node, cell.dst))
        }
    }

    fn class_admits(&self, class: ClassId, _cell: &Cell, from: NodeId, to: NodeId) -> bool {
        self.circuit_admits(class, from, to) == Some(true)
    }

    fn circuit_admits(&self, _class: ClassId, from: NodeId, to: NodeId) -> Option<bool> {
        Some(self.cliques.same_clique(from, to))
    }

    fn on_transmit(&self, cell: &mut Cell, from: NodeId, to: NodeId) {
        if to == cell.dst && cell.hops == 0 {
            self.shadow
                .lock()
                .expect("shadow counts poisoned")
                .dec(from, cell.dst);
        }
    }

    fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    fn max_hops(&self) -> u8 {
        3
    }

    fn name(&self) -> &str {
        "adaptive-sorn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorn_sim::{Engine, Flow, FlowId, SimConfig};
    use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
    use sorn_topology::Ratio;

    fn flows_skewed(n: u32, count: u64) -> Vec<Flow> {
        // Every node sends to its +1 neighbor: a permutation that pure
        // VLB taxes 2x but direct routing serves in one hop.
        (0..n)
            .map(|s| Flow {
                id: FlowId(s as u64),
                src: NodeId(s),
                dst: NodeId((s + 1) % n),
                size_bytes: count * 1250,
                arrival_ns: 0,
            })
            .collect()
    }

    #[test]
    fn adaptive_vlb_goes_direct_at_low_load() {
        let sched = round_robin(8).unwrap();
        let router = AdaptiveVlbRouter::new(4);
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows(flows_skewed(8, 2)).unwrap();
        assert!(eng.run_until_drained(100_000).unwrap());
        let m = eng.metrics();
        // Low load: everything goes direct, one hop per cell.
        assert!((m.mean_hops() - 1.0).abs() < 1e-9, "hops {}", m.mean_hops());
        assert!((m.delivery_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_vlb_sprays_under_backlog() {
        let sched = round_robin(8).unwrap();
        let router = AdaptiveVlbRouter::new(2);
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        // 40 cells to one destination: only the first 2 go direct
        // immediately; the rest spray (or go direct later as the shadow
        // count drains).
        eng.add_flows(flows_skewed(8, 40)).unwrap();
        assert!(eng.run_until_drained(1_000_000).unwrap());
        let m = eng.metrics();
        assert!(m.mean_hops() > 1.0, "some cells must have sprayed");
        assert!(m.mean_hops() <= 2.0);
    }

    #[test]
    fn adaptive_halves_bandwidth_tax_on_permutation() {
        // The adaptive win is the bandwidth tax: direct-first traffic
        // consumes one circuit transmission per cell instead of VLB's
        // two. (Multi-cell FCT can go either way — VLB pipelines a
        // flow's cells over many parallel intermediates, while direct
        // cells serialize on one circuit.)
        let sched = round_robin(8).unwrap();
        let run = |adaptive: bool| {
            let vlb = crate::VlbRouter::new();
            let ad = AdaptiveVlbRouter::new(u64::MAX);
            let router: &dyn Router = if adaptive { &ad } else { &vlb };
            let mut eng = Engine::new(SimConfig::default(), &sched, router);
            eng.add_flows(flows_skewed(8, 6)).unwrap();
            eng.run_until_drained(1_000_000).unwrap();
            eng.metrics().transmissions
        };
        let tx_adaptive = run(true);
        let tx_vlb = run(false);
        assert_eq!(tx_adaptive, 48, "one transmission per cell");
        assert!(
            tx_vlb > tx_adaptive + tx_adaptive / 2,
            "adaptive {tx_adaptive} vs vlb {tx_vlb}"
        );
    }

    #[test]
    fn adaptive_sorn_direct_first_within_cliques() {
        let map = CliqueMap::contiguous(8, 2);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
        let router = AdaptiveSornRouter::new(map, 2);
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        // One small intra flow: goes direct, single hop.
        eng.add_flows([Flow {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(2),
            size_bytes: 1250,
            arrival_ns: 0,
        }])
        .unwrap();
        assert!(eng.run_until_drained(100_000).unwrap());
        assert_eq!(eng.metrics().flows[0].max_hops, 1);
    }

    #[test]
    fn adaptive_sorn_keeps_inter_scheme() {
        let map = CliqueMap::contiguous(8, 2);
        let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
        let router = AdaptiveSornRouter::new(map, 2);
        let mut eng = Engine::new(SimConfig::default(), &sched, &router);
        eng.add_flows([Flow {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(6),
            size_bytes: 2500,
            arrival_ns: 0,
        }])
        .unwrap();
        assert!(eng.run_until_drained(100_000).unwrap());
        let f = &eng.metrics().flows[0];
        assert!(f.max_hops >= 2 && f.max_hops <= 3);
    }

    #[test]
    #[should_panic(expected = "uniform")]
    fn adaptive_sorn_rejects_nonuniform() {
        use sorn_topology::CliqueId;
        let map = CliqueMap::from_assignment(&[CliqueId(0), CliqueId(0), CliqueId(1)]);
        let _ = AdaptiveSornRouter::new(map, 2);
    }
}
