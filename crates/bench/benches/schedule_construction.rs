//! Criterion benches: schedule construction throughput.
//!
//! Building circuit schedules is on the control plane's critical path
//! when the topology adapts (§5): a full reconfiguration recomputes the
//! slot sequence for every node. These benches size that cost across the
//! topology families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sorn_topology::builders::{
    gravity_schedule, hdim_orn, hierarchical_schedule, nonuniform_sorn_schedule, round_robin,
    sorn_schedule, GravityWeights, HierarchySpec, SornScheduleParams,
};
use sorn_topology::{CliqueMap, Ratio};
use std::hint::black_box;

fn bench_round_robin(c: &mut Criterion) {
    let mut g = c.benchmark_group("round_robin");
    for n in [64usize, 256, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| round_robin(black_box(n)).unwrap());
        });
    }
    g.finish();
}

fn bench_hdim(c: &mut Criterion) {
    let mut g = c.benchmark_group("hdim_orn");
    for (n, h) in [(256usize, 2u32), (1024, 2), (4096, 2), (4096, 3)] {
        g.bench_with_input(
            BenchmarkId::new("n_h", format!("{n}_{h}")),
            &(n, h),
            |b, &(n, h)| {
                b.iter(|| hdim_orn(black_box(n), black_box(h)).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_sorn(c: &mut Criterion) {
    let mut g = c.benchmark_group("sorn_schedule");
    for (n, nc) in [(128usize, 8usize), (1024, 32), (4096, 64)] {
        let map = CliqueMap::contiguous(n, nc);
        let params = SornScheduleParams::with_q(Ratio::new(50, 11));
        g.bench_with_input(
            BenchmarkId::new("n_nc", format!("{n}_{nc}")),
            &(map, params),
            |b, (map, params)| {
                b.iter(|| sorn_schedule(black_box(map), black_box(params)).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_gravity(c: &mut Criterion) {
    let map = CliqueMap::contiguous(256, 8);
    let w = GravityWeights::uniform(8, 2).unwrap();
    c.bench_function("gravity_schedule_256x8", |b| {
        b.iter(|| {
            gravity_schedule(
                black_box(&map),
                black_box(Ratio::integer(3)),
                black_box(&w),
                1 << 20,
            )
            .unwrap()
        });
    });
}

fn bench_logical_topology(c: &mut Criterion) {
    let map = CliqueMap::contiguous(1024, 32);
    let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::new(50, 11))).unwrap();
    c.bench_function("logical_topology_1024", |b| {
        b.iter(|| black_box(&sched).logical_topology());
    });
    // What the control loop really installs: `q` rounded to a denominator
    // of up to 1000 — here 96 nodes, 26 pool matchings, 556 071 slots.
    let map = CliqueMap::contiguous(96, 4);
    let sched = sorn_schedule(&map, &SornScheduleParams::with_q(Ratio::new(7653, 406))).unwrap();
    assert_eq!(sched.period(), 556_071);
    c.bench_function("logical_topology_96_period_556071", |b| {
        b.iter(|| black_box(&sched).logical_topology());
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    let spec = HierarchySpec::new(vec![16, 16, 16], vec![9, 3, 1]).unwrap();
    c.bench_function("hierarchical_schedule_16x16x16", |b| {
        b.iter(|| hierarchical_schedule(black_box(&spec), 1 << 22).unwrap());
    });
}

fn bench_nonuniform(c: &mut Criterion) {
    use sorn_topology::CliqueId;
    // 128 nodes: one 64-clique plus four 16-cliques.
    let assignment: Vec<CliqueId> = (0..128u32)
        .map(|v| {
            if v < 64 {
                CliqueId(0)
            } else {
                CliqueId(1 + (v - 64) / 16)
            }
        })
        .collect();
    let map = CliqueMap::from_assignment(&assignment);
    c.bench_function("nonuniform_schedule_128", |b| {
        b.iter(|| {
            nonuniform_sorn_schedule(black_box(&map), Ratio::integer(3), 0, 1 << 22).unwrap()
        });
    });
}

criterion_group!(
    benches,
    bench_round_robin,
    bench_hdim,
    bench_sorn,
    bench_gravity,
    bench_hierarchy,
    bench_nonuniform,
    bench_logical_topology
);
criterion_main!(benches);
