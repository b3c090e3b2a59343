//! Criterion bench: Schur complement and shortcut graph construction
//! (the per-phase derivative-graph cost of §2.4).

use cct_graph::generators;
use cct_linalg::{PMatrix, Repr};
use cct_schur::{
    schur_transition_exact, schur_transition_from_shortcut_p, shortcut_by_squaring, shortcut_exact,
    VertexSubset,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

fn bench_schur(c: &mut Criterion) {
    let mut group = c.benchmark_group("schur");
    group.sample_size(10);
    for n in [32usize, 64, 128] {
        let g = generators::erdos_renyi_connected(
            n,
            0.2,
            &mut rand::rngs::StdRng::seed_from_u64(n as u64),
        );
        let keep: Vec<usize> = (0..n / 2).collect();
        let s = VertexSubset::new(n, &keep);
        group.bench_with_input(BenchmarkId::new("shortcut_exact_solve", n), &n, |b, _| {
            b.iter(|| shortcut_exact(&g, &s));
        });
        group.bench_with_input(BenchmarkId::new("shortcut_squaring", n), &n, |b, _| {
            b.iter(|| shortcut_by_squaring(&g, &s, 1e-10, 64, Repr::Dense));
        });
        group.bench_with_input(BenchmarkId::new("schur_laplacian", n), &n, |b, _| {
            b.iter(|| schur_transition_exact(&g, &s));
        });
        let q = PMatrix::Dense(shortcut_exact(&g, &s));
        group.bench_with_input(BenchmarkId::new("schur_via_corollary3", n), &n, |b, _| {
            b.iter(|| schur_transition_from_shortcut_p(&g, &s, &q));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schur);
criterion_main!(benches);
