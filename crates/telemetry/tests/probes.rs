//! Probe hooks exercised against real engine runs.

use sorn_sim::{DirectRouter, Engine, Flow, FlowId, Nanos, SimConfig};
use sorn_telemetry::{
    parse_jsonl, read_jsonl, CountingProbe, IntervalSampler, JsonlTraceSink, MemorySink, Snapshot,
    TraceEvent,
};
use sorn_topology::builders::{round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, NodeId, Ratio};

fn flow(id: u64, src: u32, dst: u32, bytes: u64, at: Nanos) -> Flow {
    Flow {
        id: FlowId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        size_bytes: bytes,
        arrival_ns: at,
    }
}

/// A deterministic run over a 2-clique SORN schedule fires every hook
/// the run exercises, with counts matching the engine's own metrics.
#[test]
fn counting_probe_matches_metrics_on_sorn_schedule() {
    let map = CliqueMap::contiguous(8, 2);
    let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(3))).unwrap();
    let router = DirectRouter;
    let mut eng = Engine::with_probe(SimConfig::default(), &sched, &router, CountingProbe::new());
    eng.add_flows([
        flow(1, 0, 3, 3 * 1250, 0),
        flow(2, 4, 7, 2 * 1250, 0),
        flow(3, 1, 5, 1250, 500),
    ])
    .unwrap();
    assert!(eng.run_until_drained(10_000).unwrap());
    let metrics = eng.metrics().clone();
    let probe = eng.finish();

    // Quiet gaps arrive as spans: per-slot calls plus span slots are
    // every slot the run advanced.
    assert_eq!(probe.slots + probe.skipped_slots, metrics.slots);
    assert_eq!(probe.deliveries, metrics.delivered_cells);
    assert_eq!(probe.deliveries, 6);
    assert_eq!(probe.flow_starts, 3);
    assert_eq!(probe.flow_finishes, 3);
    assert_eq!(probe.drops, 0);
    assert_eq!(probe.reconfigurations, 0);
    assert_eq!(probe.run_ends, 1);
}

#[test]
fn drop_hook_fires_at_queue_cap() {
    let sched = round_robin(4).unwrap();
    let router = DirectRouter;
    let mut cfg = SimConfig::default();
    cfg.node_queue_cap = 2;
    let mut eng = Engine::with_probe(cfg, &sched, &router, CountingProbe::new());
    eng.add_flows([flow(1, 0, 1, 10 * 1250, 0)]).unwrap();
    assert!(eng.run_until_drained(1_000).unwrap());
    let dropped = eng.metrics().dropped_cells;
    let probe = eng.finish();
    assert!(dropped > 0);
    assert_eq!(probe.drops, dropped);
    // A flow with losses never finishes.
    assert_eq!(probe.flow_finishes, 0);
}

#[test]
fn reconfiguration_hook_fires_on_schedule_install() {
    let a = round_robin(4).unwrap();
    let b = round_robin(4).unwrap();
    let router = DirectRouter;
    let mut eng = Engine::with_probe(SimConfig::default(), &a, &router, CountingProbe::new());
    eng.run_slots(3).unwrap();
    eng.install_schedule(&b);
    eng.run_slots(3).unwrap();
    let probe = eng.finish();
    assert_eq!(probe.reconfigurations, 1);
    assert_eq!(probe.slots + probe.skipped_slots, 6);
}

/// Scripted fault events reach both the counting probe and the trace.
#[test]
fn fault_hook_fires_and_is_traced() {
    use sorn_sim::FaultPlan;
    let sched = round_robin(4).unwrap();
    let router = DirectRouter;
    let mut plan = FaultPlan::new();
    plan.link_outage(NodeId(0), NodeId(1), 300, 900);
    plan.node_outage(NodeId(2), 500, 700);

    let mut eng = Engine::with_probe(SimConfig::default(), &sched, &router, CountingProbe::new());
    eng.set_fault_plan(plan.clone());
    eng.run_slots(20).unwrap();
    let probe = eng.finish();
    assert_eq!(probe.faults, 4);

    let sampler = IntervalSampler::new(MemorySink::new(), 10_000);
    let mut eng = Engine::with_probe(SimConfig::default(), &sched, &router, sampler);
    eng.set_fault_plan(plan);
    eng.run_slots(20).unwrap();
    let sink = eng.finish().into_sink();
    let faults: Vec<&TraceEvent> = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Fault { .. }))
        .collect();
    assert_eq!(faults.len(), 4);
    if let TraceEvent::Fault {
        action,
        target,
        a,
        b,
        ..
    } = faults[0]
    {
        assert_eq!(action, "fail");
        assert_eq!(target, "link");
        assert_eq!((*a, *b), (0, Some(1)));
    } else {
        unreachable!();
    }
    // Trace times are monotone and the fail precedes its restore.
    for w in faults.windows(2) {
        assert!(w[1].at_ns() >= w[0].at_ns());
    }
}

/// The sampler's final snapshot must agree with the run's aggregate
/// metrics — the acceptance check for trace consistency.
#[test]
fn final_snapshot_matches_metrics_aggregate() {
    let sched = round_robin(4).unwrap();
    let router = DirectRouter;
    let sampler = IntervalSampler::new(MemorySink::new(), 500);
    let mut eng = Engine::with_probe(SimConfig::default(), &sched, &router, sampler);
    eng.add_flows([flow(1, 0, 1, 5 * 1250, 0), flow(2, 2, 3, 5 * 1250, 0)])
        .unwrap();
    assert!(eng.run_until_drained(10_000).unwrap());
    let metrics = eng.metrics().clone();
    let sink = eng.finish().into_sink();

    let snapshots: Vec<&Snapshot> = sink.events.iter().filter_map(|e| e.snapshot()).collect();
    assert!(snapshots.len() >= 2, "interval + final snapshots expected");
    let last = snapshots.last().unwrap();
    assert_eq!(last.delivered_cells, metrics.delivered_cells);
    assert_eq!(last.injected_cells, metrics.injected_cells);
    assert_eq!(last.transmissions, metrics.transmissions);
    assert_eq!(last.queued_cells, 0);
    assert_eq!(last.inflight_cells, 0);
    // Cumulative counters never decrease along the trace.
    for w in snapshots.windows(2) {
        assert!(w[1].delivered_cells >= w[0].delivered_cells);
        assert!(w[1].at_ns >= w[0].at_ns);
    }
    // Flow lifecycle events came through the sampler.
    let starts = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FlowStart { .. }))
        .count();
    let finishes = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FlowFinish { .. }))
        .count();
    assert_eq!(starts, 2);
    assert_eq!(finishes, 2);
}

/// Write a trace to disk, read it back, get the same events.
#[test]
fn jsonl_sink_round_trips() {
    let dir = std::env::temp_dir().join(format!("sorn-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");

    let sched = round_robin(4).unwrap();
    let router = DirectRouter;
    let sink = JsonlTraceSink::create(&path).unwrap();
    let sampler = IntervalSampler::new(sink, 1_000);
    let mut eng = Engine::with_probe(SimConfig::default(), &sched, &router, sampler);
    eng.add_flows([flow(1, 0, 2, 4 * 1250, 0)]).unwrap();
    assert!(eng.run_until_drained(10_000).unwrap());
    let delivered = eng.metrics().delivered_cells;
    let lines = eng.finish().into_sink().finish().unwrap();
    assert!(lines >= 2);

    let events = read_jsonl(&path).unwrap();
    assert_eq!(events.len() as u64, lines);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(parse_jsonl(&text).unwrap(), events);
    let last = events.last().unwrap().snapshot().expect("final snapshot");
    assert_eq!(last.delivered_cells, delivered);

    std::fs::remove_dir_all(&dir).ok();
}

/// Representation pin: the `event` tag names the variant.
#[test]
fn trace_event_serialization_shape() {
    let e = TraceEvent::Reconfiguration {
        at_ns: 700,
        slot: 7,
    };
    let json = e.to_json();
    assert_eq!(
        json,
        "{\"event\":\"reconfiguration\",\"at_ns\":700,\"slot\":7}"
    );
    assert_eq!(TraceEvent::from_json(&json).unwrap(), e);
}
