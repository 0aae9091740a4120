//! Criterion microbenchmarks for the engine's per-slot hot path.
//!
//! Three costs dominate a slot (see the `sim.*` rows of the traced
//! ledger `benchmark/run.sh` prints):
//! per-cell routing decisions, the transmit walk over `uplinks × nodes`
//! circuits, and the in-flight calendar's push/pop churn. Each gets an
//! isolated bench here so regressions show up attributed, not smeared
//! across an end-to-end run.
//!
//! Run with `cargo bench -p sorn-sim`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sorn_sim::bench_internals::SlotCalendar;
use sorn_sim::{Cell, ClassId, Engine, Flow, FlowId, NodeRng, RouteDecision, Router, SimConfig};
use sorn_topology::builders::round_robin;
use sorn_topology::NodeId;
use std::hint::black_box;

/// A VLB-shaped router whose `decide` consumes the node RNG stream —
/// the realistic per-cell decision cost (branchy, one RNG draw on the
/// spray hop), without pulling the routing crate into this one.
struct SprayBench {
    n: u64,
}

impl Router for SprayBench {
    fn decide(&self, node: NodeId, cell: &mut Cell, rng: &mut NodeRng) -> RouteDecision {
        if node == cell.dst {
            return RouteDecision::Deliver;
        }
        if cell.tag == 0 {
            cell.tag = 1;
            let via = NodeId(rng.gen_range(self.n) as u32);
            if via != node && via != cell.dst {
                return RouteDecision::ToNode(via);
            }
        }
        RouteDecision::ToNode(cell.dst)
    }

    fn class_admits(&self, _class: ClassId, _cell: &Cell, _from: NodeId, _to: NodeId) -> bool {
        false
    }

    fn classes(&self) -> &[ClassId] {
        &[]
    }

    fn max_hops(&self) -> u8 {
        4
    }

    fn name(&self) -> &str {
        "spray-bench"
    }
}

fn bench_cell(seq: u64) -> Cell {
    Cell {
        flow: FlowId(0),
        seq,
        src: NodeId(0),
        dst: NodeId((seq % 63 + 1) as u32),
        injected_ns: 0,
        hops: 0,
        tag: 0,
    }
}

/// Per-cell routing decision rate: the `route_cell` kernel minus queue
/// bookkeeping. One RNG draw + branchy decision per cell.
fn bench_route_cell(c: &mut Criterion) {
    let router = SprayBench { n: 64 };
    let mut g = c.benchmark_group("route_cell");
    const CELLS: u64 = 10_000;
    g.throughput(Throughput::Elements(CELLS));
    g.bench_function("spray_decide", |b| {
        let mut rng = NodeRng::for_node(1, 0);
        b.iter(|| {
            let mut delivered = 0u64;
            for seq in 0..CELLS {
                let mut cell = bench_cell(seq);
                match router.decide(NodeId(0), black_box(&mut cell), &mut rng) {
                    RouteDecision::Deliver => delivered += 1,
                    other => {
                        black_box(other);
                    }
                }
            }
            delivered
        });
    });
    g.finish();
}

/// The transmit walk: a backlogged engine stepping slots, so nearly all
/// time goes to `pop_for_circuit` scans and link-matrix updates across
/// `uplinks × nodes` circuits per slot.
fn bench_transmit_walk(c: &mut Criterion) {
    let mut g = c.benchmark_group("transmit_walk");
    g.sample_size(20);
    for (n, uplinks) in [(64usize, 4usize), (128, 8)] {
        let sched = round_robin(n).unwrap();
        let router = SprayBench { n: n as u64 };
        const SLOTS: u64 = 200;
        g.throughput(Throughput::Elements(SLOTS * n as u64));
        let id = BenchmarkId::from_parameter(format!("{n}x{uplinks}"));
        g.bench_function(id, |b| {
            b.iter(|| {
                let cfg = SimConfig {
                    uplinks,
                    seed: 9,
                    ..SimConfig::default()
                };
                let mut eng = Engine::new(cfg, &sched, &router);
                // Deep standing backlog: every node sends to three peers.
                let flows: Vec<Flow> = (0..3 * n as u64)
                    .map(|i| Flow {
                        id: FlowId(i),
                        src: NodeId((i % n as u64) as u32),
                        dst: NodeId(((i * 7 + 1) % n as u64) as u32),
                        size_bytes: 32 * 1250,
                        arrival_ns: 0,
                    })
                    .filter(|f| f.src != f.dst)
                    .collect();
                eng.add_flows(flows).unwrap();
                eng.run_slots(black_box(SLOTS)).unwrap();
                eng.metrics().transmissions
            });
        });
    }
    g.finish();
}

/// SlotCalendar push/pop churn at the engine's real access pattern:
/// drain everything due, then push the slot's transmissions, advancing
/// one slot per round.
fn bench_calendar_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar_churn");
    for delay in [3u64, 6] {
        const SLOTS: u64 = 5_000;
        const PER_SLOT: u64 = 16;
        g.throughput(Throughput::Elements(SLOTS * PER_SLOT));
        g.bench_function(BenchmarkId::from_parameter(delay), |b| {
            b.iter(|| {
                let mut cal: SlotCalendar<u64> = SlotCalendar::new(delay);
                let mut drained = 0u64;
                for slot in 0..SLOTS {
                    while let Some(item) = cal.pop_due(slot) {
                        drained += black_box(item) & 1;
                    }
                    for i in 0..PER_SLOT {
                        cal.push(slot, slot * PER_SLOT + i);
                    }
                }
                drained
            });
        });
    }
    g.finish();
}

criterion_group!(
    hotpath,
    bench_route_cell,
    bench_transmit_walk,
    bench_calendar_churn
);
criterion_main!(hotpath);
