//! Real message-passing transposes on the SPMD runtime: wall-clock cost
//! of the exchange and SPT node programs across cube sizes on the
//! cooperative virtual-node pool, up to n = 16 — 65 536 virtual nodes,
//! the paper's Connection-Machine configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cubelayout::{Assignment, DistMatrix, Encoding, Layout};
use cubetranspose::spmd::{spmd_transpose_exchange, spmd_transpose_spt};

/// A 2^half x 2^half matrix on a (2·half)-cube: one element per node.
fn one_elem_per_node(half: u32) -> (Layout, Layout, DistMatrix<f64>) {
    let before = Layout::square(half, half, half, Assignment::Consecutive, Encoding::Binary);
    let after = before.swapped_shape();
    let m = DistMatrix::from_fn(before.clone(), |u, v| (u * (1 << half) + v) as f64);
    (before, after, m)
}

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmd_exchange_transpose");
    group.sample_size(10);
    for n in [6u32, 8, 10, 12, 14, 16] {
        let (_, after, m) = one_elem_per_node(n / 2);
        group.throughput(Throughput::Elements(1 << n));
        group.bench_with_input(BenchmarkId::new("virtual", n), &m, |b, m| {
            b.iter(|| spmd_transpose_exchange(m, &after))
        });
    }
    group.finish();
}

fn bench_spt(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmd_spt_transpose");
    group.sample_size(20);
    for half in [1u32, 2, 3] {
        let p = 5u32;
        let before = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
        let after = before.swapped_shape();
        let m = DistMatrix::from_fn(before.clone(), |u, v| (u * 32 + v) as f64);
        group.throughput(Throughput::Elements(1 << (2 * p)));
        group.bench_with_input(BenchmarkId::new("virtual", 1 << (2 * half)), &m, |b, m| {
            b.iter(|| spmd_transpose_spt(m, &after))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exchange, bench_spt);
criterion_main!(benches);
