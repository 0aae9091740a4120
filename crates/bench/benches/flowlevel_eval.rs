//! Criterion benches: flow-level throughput evaluation — the engine
//! behind every Figure 2(f) point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sorn_routing::{evaluate, DemandMatrix, HdimPaths, SornPaths, VlbPaths};
use sorn_topology::builders::{hdim_orn, round_robin, sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, Ratio};
use std::hint::black_box;

fn bench_vlb_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowlevel_vlb");
    for n in [32usize, 128] {
        let topo = round_robin(n).unwrap().logical_topology();
        let model = VlbPaths::new(n);
        let demand = DemandMatrix::uniform(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| evaluate(black_box(&topo), black_box(&model), black_box(&demand)).unwrap());
        });
    }
    g.finish();
}

fn bench_sorn_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowlevel_sorn");
    // The last row is an epoch of the 96-node control loop: 4 cliques of
    // 24 under a `q` the optimizer installed.
    for (n, nc, q) in [
        (32usize, 4usize, Ratio::new(50, 11)),
        (128, 8, Ratio::new(50, 11)),
        (96, 4, Ratio::new(7653, 406)),
    ] {
        let map = CliqueMap::contiguous(n, nc);
        let topo = sorn_schedule(&map, &SornScheduleParams::with_q(q))
            .unwrap()
            .logical_topology();
        let model = SornPaths::new(map.clone());
        let demand = DemandMatrix::clique_local(&map, 0.56);
        g.bench_with_input(BenchmarkId::new("n_nc", format!("{n}_{nc}")), &n, |b, _| {
            b.iter(|| evaluate(black_box(&topo), black_box(&model), black_box(&demand)).unwrap());
        });
    }
    g.finish();
}

fn bench_hdim_eval(c: &mut Criterion) {
    let n = 64;
    let topo = hdim_orn(n, 2).unwrap().logical_topology();
    let model = HdimPaths::new(n, 2);
    let demand = DemandMatrix::uniform(n);
    c.bench_function("flowlevel_hdim_64", |b| {
        b.iter(|| evaluate(black_box(&topo), black_box(&model), black_box(&demand)).unwrap());
    });
}

criterion_group!(benches, bench_vlb_eval, bench_sorn_eval, bench_hdim_eval);
criterion_main!(benches);
