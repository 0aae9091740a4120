//! End-to-end determinism for the weather report: the text and JSON
//! renderings (and the headline gauges) are byte-identical at any
//! `engine_threads` count and across a mid-run checkpoint/restore —
//! the contract the CI equivalence jobs enforce on the binaries.

use sorn_sim::{DirectRouter, Engine, Flow, FlowId, SimConfig};
use sorn_telemetry::WeatherProbe;
use sorn_topology::builders::round_robin;
use sorn_topology::{CliqueMap, NodeId};

/// Above 64 nodes, so a threaded run has more than one shard (the
/// engine shards in whole 64-node occupancy words): four at four
/// threads, the last one short.
const N: usize = 200;
const CLIQUES: usize = 4;
const TOPK: usize = 8;
const MAX_SLOTS: u64 = 50_000;

/// A deterministic mixed workload: clique-local and cross-clique flows
/// with staggered arrivals, enough traffic to exercise the sketches,
/// the matrices, and the decimated timeline.
fn flows() -> Vec<Flow> {
    let mut flows = Vec::new();
    let mut id = 0u64;
    for s in 0..N as u32 {
        for off in [1u32, 5, 9] {
            id += 1;
            flows.push(Flow {
                id: FlowId(id),
                src: NodeId(s),
                dst: NodeId((s + off) % N as u32),
                size_bytes: 1250 * (1 + u64::from(s) % 4),
                arrival_ns: 100 * u64::from(s),
            });
        }
    }
    flows
}

fn probe() -> WeatherProbe {
    WeatherProbe::new(CliqueMap::contiguous(N, CLIQUES), TOPK)
}

/// Runs the workload to drain and returns every deterministic rendering.
fn run(threads: usize) -> (String, String) {
    let schedule = round_robin(N).unwrap();
    let router = DirectRouter;
    let cfg = SimConfig {
        engine_threads: threads,
        ..SimConfig::default()
    };
    let mut eng = Engine::with_probe(cfg, &schedule, &router, probe());
    eng.add_flows(flows()).unwrap();
    assert!(eng.run_until_drained(MAX_SLOTS).unwrap());
    let w = eng.finish();
    (w.render_txt("equiv"), w.render_json("equiv"))
}

#[test]
fn reports_are_byte_identical_across_engine_threads() {
    let baseline = run(1);
    for threads in 2..=4 {
        assert_eq!(run(threads), baseline, "engine_threads={threads}");
    }
}

#[test]
fn reports_survive_checkpoint_restore_byte_identically() {
    let uninterrupted = run(1);
    let schedule = round_robin(N).unwrap();
    let router = DirectRouter;

    // Interrupt mid-run: checkpoint the engine with the weather state
    // as a sidecar blob, exactly as the binaries do.
    let mut eng = Engine::with_probe(SimConfig::default(), &schedule, &router, probe());
    eng.add_flows(flows()).unwrap();
    eng.run_slots(40).unwrap();
    let mut snap = eng.checkpoint();
    snap.attach_blob("weather", eng.probe().to_bytes());
    drop(eng);

    // Resume from the blob — once serially, once resharded — and the
    // finished report must match the uninterrupted run byte for byte.
    for threads in [1usize, 2] {
        let mut snap = snap.clone();
        snap.set_engine_threads(threads);
        let restored = WeatherProbe::from_bytes(
            snap.blob("weather").unwrap(),
            CliqueMap::contiguous(N, CLIQUES),
        )
        .unwrap();
        let mut eng = Engine::restore_with_probe(&snap, &schedule, &router, restored).unwrap();
        assert!(eng.run_until_drained(MAX_SLOTS).unwrap());
        let w = eng.finish();
        assert_eq!(
            (w.render_txt("equiv"), w.render_json("equiv")),
            uninterrupted,
            "resumed at engine_threads={threads}"
        );
    }
}
