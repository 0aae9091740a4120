//! Criterion benches: control-plane costs — pattern estimation, clique
//! optimization, and schedule-update preparation (§5's per-epoch work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sorn_control::{assign_cliques, PatternEstimator, ScheduleUpdater, UpdateTiming};
use sorn_topology::builders::{sorn_schedule, SornScheduleParams};
use sorn_topology::{CliqueMap, NodeId, Ratio};
use std::hint::black_box;

/// Synthetic block traffic matrix.
fn block_tm(n: usize, c: usize) -> Vec<f64> {
    let mut tm = vec![0.0; n * n];
    for s in 0..n {
        for d in 0..n {
            if s != d {
                tm[s * n + d] = if s / c == d / c { 10.0 } else { 0.1 };
            }
        }
    }
    tm
}

fn bench_estimator(c: &mut Criterion) {
    let mut g = c.benchmark_group("estimator_epoch");
    for n in [64usize, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut e = PatternEstimator::new(n, 0.3);
                for s in 0..n as u32 {
                    for k in 1..8u32 {
                        e.observe(NodeId(s), NodeId((s + k) % n as u32), 10_000);
                    }
                }
                e.end_epoch();
                black_box(e.total())
            });
        });
    }
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let mut g = c.benchmark_group("clique_assignment");
    for n in [64usize, 128] {
        let tm = block_tm(n, 8);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| assign_cliques(black_box(&tm), n, 8));
        });
    }
    g.finish();
}

fn bench_update_preparation(c: &mut Criterion) {
    let n = 128;
    let map = CliqueMap::contiguous(n, 8);
    let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::integer(4))).unwrap();
    c.bench_function("update_prepare_128", |b| {
        b.iter(|| {
            let mut nics = ScheduleUpdater::bootstrap_nics(&sched);
            let updater = ScheduleUpdater::new(UpdateTiming::default());
            updater
                .prepare(&mut nics, black_box(&map), Ratio::integer(2))
                .unwrap()
                .total_drained
        });
    });
    // What the control loop really installs: `q` rounded to a denominator
    // of up to 1000 — here 96 nodes in 4 cliques, from a 556 071-slot
    // schedule to a 291 939-slot one.
    let map = CliqueMap::contiguous(96, 4);
    let long = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::new(7653, 406))).unwrap();
    assert_eq!(long.period(), 556_071);
    c.bench_function("bootstrap_nics_96_period_556071", |b| {
        b.iter(|| ScheduleUpdater::bootstrap_nics(black_box(&long)));
    });
    c.bench_function("update_prepare_96_period_556071", |b| {
        b.iter(|| {
            let mut nics = ScheduleUpdater::bootstrap_nics(&long);
            let updater = ScheduleUpdater::new(UpdateTiming::default());
            updater
                .prepare(&mut nics, black_box(&map), Ratio::new(3831, 400))
                .unwrap()
                .total_drained
        });
    });
}

criterion_group!(
    benches,
    bench_estimator,
    bench_optimizer,
    bench_update_preparation
);
criterion_main!(benches);
