//! Criterion bench: doubling walks (E4/E6 kernels) — balanced vs naive,
//! short vs long walks, and the Corollary 1 tree sampler.

use cct_doubling::{doubling_walks, sample_tree_via_doubling, Balancing};
use cct_graph::generators;
use cct_sim::Clique;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

fn bench_doubling(c: &mut Criterion) {
    let mut group = c.benchmark_group("doubling");
    group.sample_size(10);
    let n = 64;
    let g = generators::random_regular(n, 4, &mut rand::rngs::StdRng::seed_from_u64(1));
    for tau in [16u64, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("balanced", tau), &tau, |b, &tau| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            b.iter(|| {
                let mut clique = Clique::new(n);
                doubling_walks(&mut clique, &g, tau, Balancing::Balanced { c: 1 }, &mut rng)
            });
        });
        group.bench_with_input(BenchmarkId::new("naive", tau), &tau, |b, &tau| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            b.iter(|| {
                let mut clique = Clique::new(n);
                doubling_walks(&mut clique, &g, tau, Balancing::Naive, &mut rng)
            });
        });
    }
    group.bench_function("corollary1_tree_n64", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        b.iter(|| {
            let mut clique = Clique::new(n);
            sample_tree_via_doubling(&mut clique, &g, 2.0, 4000, &mut rng).expect("covered")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_doubling);
criterion_main!(benches);
