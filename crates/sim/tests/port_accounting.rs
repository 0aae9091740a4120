//! Port accounting on degraded fabrics, against an independent replay
//! of the fault plan.
//!
//! In every slot each scheduled (non-self) port of the active matchings
//! is exactly one of idle, transmitting, or down — its circuit touches a
//! failed node or a failed directed link. The engine counts the first two
//! (`Metrics::idle_circuit_slots`, `Metrics::transmissions`) inside its
//! occupancy-word walk, where a word's down ports are subtracted from an
//! idle charge made up front and counted once per failure epoch. This
//! test rebuilds the third from nothing the engine computes: the plan's
//! events replayed into a fresh `FailureSet` at each slot boundary, and
//! the active circuits read through `StaggeredSchedule`. Per slot it
//! checks
//!
//! * Δidle + Δtransmissions + down ports = scheduled ports;
//! * every transmission rode a live circuit;
//! * the stranded gauge equals a recount of the queues.
//!
//! Fabrics have 200 nodes (four occupancy words, multi-shard at four
//! engine threads), random node, link and bidirectional outages at any
//! id, and a router that fills both targeted and class queues.

use sorn_base::rng::{cases, Rng};
use sorn_sim::{
    Cell, ClassId, Engine, FailureSet, FaultEvent, FaultPlan, Flow, FlowId, Nanos, NodeRng, Probe,
    RouteDecision, Router, SimConfig, SlotView,
};
use sorn_topology::builders::round_robin;
use sorn_topology::{NodeId, StaggeredSchedule};

const N: u32 = 200;

/// Fault-oblivious two-hop spray: half the fresh cells take a class hop
/// to any node but their source, the rest (and every second hop) pin
/// the direct circuit — so down circuits hold targeted cells back and
/// dead destinations strand cells in both queue kinds.
struct SprayOrDirect;

const SPRAY: ClassId = ClassId(0);

impl Router for SprayOrDirect {
    fn decide(&self, node: NodeId, cell: &mut Cell, rng: &mut NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        if cell.tag == 0 {
            cell.tag = 1;
            if rng.gen_range(2) == 0 {
                return RouteDecision::ToClass(SPRAY);
            }
        }
        RouteDecision::ToNode(cell.dst)
    }

    fn class_admits(&self, _class: ClassId, cell: &Cell, _from: NodeId, to: NodeId) -> bool {
        to != cell.src
    }

    fn classes(&self) -> &[ClassId] {
        std::slice::from_ref(&SPRAY)
    }

    fn max_hops(&self) -> u8 {
        4
    }

    fn name(&self) -> &str {
        "spray-or-direct"
    }
}

/// The per-slot audit, fed only by probe hooks.
struct PortAudit {
    schedule: StaggeredSchedule,
    events: Vec<FaultEvent>,
    cursor: usize,
    replay: FailureSet,
    last_idle: u64,
    last_tx: u64,
    down_ports: u64,
    degraded_slots: u64,
    degraded_sends: u64,
}

impl PortAudit {
    /// Applies every plan event due by `now`, as the engine does at the
    /// start of the slot beginning at `now`.
    fn advance(&mut self, now: Nanos) {
        while let Some(e) = self.events.get(self.cursor) {
            if e.at_ns > now {
                break;
            }
            e.apply(&mut self.replay);
            self.cursor += 1;
        }
    }
}

impl Probe for PortAudit {
    fn on_transmit(&mut self, _cell: &Cell, from: NodeId, to: NodeId, now: Nanos) {
        self.advance(now);
        assert!(
            self.replay.circuit_up(from, to),
            "t = {now}: transmitted on the down circuit {from} -> {to}"
        );
        self.degraded_sends += u64::from(!self.replay.is_empty());
    }

    fn on_slot_end(&mut self, view: &SlotView<'_>) {
        self.advance(view.now_ns);
        let slot = view.slot - 1;
        let (mut scheduled, mut down) = (0u64, 0u64);
        for uplink in 0..self.schedule.uplinks() {
            for v in (0..N).map(NodeId) {
                if let Some(w) = self.schedule.dst_at(slot, uplink, v) {
                    scheduled += 1;
                    down += u64::from(!self.replay.circuit_up(v, w));
                }
            }
        }
        let idle = view.metrics.idle_circuit_slots - self.last_idle;
        let sent = view.metrics.transmissions - self.last_tx;
        assert_eq!(
            idle + sent + down,
            scheduled,
            "slot {slot}: {idle} idle + {sent} sent + {down} down ports"
        );
        self.last_idle = view.metrics.idle_circuit_slots;
        self.last_tx = view.metrics.transmissions;
        self.down_ports += down;
        if !self.replay.is_empty() {
            self.degraded_slots += 1;
            let mut stranded = 0u64;
            for (v, queues) in view.queues.iter().enumerate() {
                let v = NodeId(v as u32);
                for (next, cell) in queues.iter_cells() {
                    let dead_hop = next.is_some_and(|w| !self.replay.circuit_up(v, w));
                    stranded += u64::from(self.replay.node_failed(cell.dst) || dead_hop);
                }
            }
            assert_eq!(
                view.metrics.stranded_cells, stranded,
                "slot {slot}: stranded gauge vs recount"
            );
        }
    }
}

fn node(rng: &mut Rng) -> NodeId {
    NodeId(rng.gen_range(0..N))
}

/// Random outages of nodes, directed links and link pairs over the first
/// 60 000 ns — three schedule periods, so every matching is walked again
/// under later failure epochs; windows overlap and may fail one element
/// twice.
fn random_plan(rng: &mut Rng) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..rng.gen_range(8usize..40) {
        let from = rng.gen_range(0u64..60_000);
        let until = from + rng.gen_range(100u64..20_000);
        let (a, b) = (node(rng), node(rng));
        match rng.gen_range(0u32..3) {
            0 => plan.node_outage(a, from, until),
            1 => plan.link_outage(a, b, from, until),
            _ => plan
                .link_outage(a, b, from, until)
                .link_outage(b, a, from, until),
        };
    }
    plan
}

#[test]
fn idle_sent_and_down_ports_add_up_to_the_schedule() {
    let base = round_robin(N as usize).unwrap();
    cases(6, |rng| {
        let uplinks = rng.gen_range(1usize..4);
        let seed = rng.next_u64();
        let plan = random_plan(rng);
        let flows: Vec<Flow> = (0..rng.gen_range(200u64..600))
            .map(|i| {
                let src = node(rng);
                let dst = NodeId((src.0 + 1 + rng.gen_range(0..N - 1)) % N);
                Flow {
                    id: FlowId(i),
                    src,
                    dst,
                    size_bytes: rng.gen_range(1u64..8) * 1250,
                    arrival_ns: rng.gen_range(0u64..60_000),
                }
            })
            .collect();
        for threads in [1, 4] {
            let audit = PortAudit {
                schedule: StaggeredSchedule::new(base.clone(), uplinks).unwrap(),
                events: plan.events().to_vec(),
                cursor: 0,
                replay: FailureSet::none(),
                last_idle: 0,
                last_tx: 0,
                down_ports: 0,
                degraded_slots: 0,
                degraded_sends: 0,
            };
            let cfg = SimConfig {
                uplinks,
                seed,
                engine_threads: threads,
                ..SimConfig::default()
            };
            let router = SprayOrDirect;
            let mut eng = Engine::with_probe(cfg, &base, &router, audit);
            eng.add_flows(flows.clone()).unwrap();
            eng.set_fault_plan(plan.clone());
            assert!(eng.run_until_drained(50_000).unwrap(), "run did not drain");
            let audit = eng.finish();
            assert!(
                audit.degraded_slots > 0 && audit.down_ports > 0 && audit.degraded_sends > 0,
                "the plan never degraded a busy slot ({threads} threads)"
            );
        }
    });
}
