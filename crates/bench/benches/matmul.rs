//! Criterion bench: distributed matrix multiplication engines (the
//! dominant per-phase cost, Lemma 5).

use cct_linalg::{normalize_rows, Matrix, PMatrix};
use cct_sim::{Clique, FastOracleEngine, MatMulEngine, SemiringEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

fn random_stochastic(n: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>());
    normalize_rows(&mut m);
    m
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for n in [64usize, 128, 216] {
        let a = random_stochastic(n, 1);
        let b_mat = random_stochastic(n, 2);
        let (a_p, b_p) = (PMatrix::Dense(a.clone()), PMatrix::Dense(b_mat.clone()));
        group.bench_with_input(BenchmarkId::new("local", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b_mat));
        });
        group.bench_with_input(BenchmarkId::new("local_into_scratch", n), &n, |bench, _| {
            // The allocation-free kernel: the scratch buffer lives across
            // iterations, as it does in the power pipelines.
            let mut scratch = Matrix::zeros(n, n);
            bench.iter(|| a.matmul_into(&b_mat, &mut scratch));
        });
        group.bench_with_input(BenchmarkId::new("local_4threads", n), &n, |bench, _| {
            bench.iter(|| a.matmul_parallel(&b_mat, 4));
        });
        group.bench_with_input(BenchmarkId::new("fast_oracle", n), &n, |bench, _| {
            let engine = FastOracleEngine::default();
            bench.iter(|| {
                let mut clique = Clique::new(n);
                engine.multiply(&mut clique, &a_p, &b_p)
            });
        });
        group.bench_with_input(BenchmarkId::new("semiring_simulated", n), &n, |bench, _| {
            let engine = SemiringEngine::new(1);
            bench.iter(|| {
                let mut clique = Clique::new(n);
                engine.multiply(&mut clique, &a_p, &b_p)
            });
        });
    }
    group.finish();
}

/// Micro-benches for the slice-based [`Matrix::transpose`] and
/// [`Matrix::col`] rewrites (formerly `from_fn`/per-element indexing
/// with a bounds check per access).
fn bench_transpose_col(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpose_col");
    for n in [64usize, 256, 512] {
        let a = random_stochastic(n, 3);
        group.bench_with_input(BenchmarkId::new("transpose", n), &n, |bench, _| {
            bench.iter(|| a.transpose());
        });
        group.bench_with_input(BenchmarkId::new("col", n), &n, |bench, _| {
            bench.iter(|| a.col(n / 2));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_transpose_col);
criterion_main!(benches);
