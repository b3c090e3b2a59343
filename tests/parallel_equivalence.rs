//! Bit-identical equivalence of the sequential and parallel round
//! engines *and* of the matrix backends: for a fixed seed, every
//! algorithm in the repertoire must produce the same spanning tree and
//! identical `RoundLedger` totals whether machines run on 1, 2, 4, or 8
//! worker threads (the cct-sim determinism contract) and whether the
//! transition matrices live in Dense, Sparse, or Auto storage (the
//! cct-linalg bit-identity contract). Property-tested over random graph
//! specs.

use cct::core::{
    direction4_sample, Backend, CliqueTreeSampler, EngineChoice, SamplerConfig, Variant,
    WalkLength, Workers,
};
use cct::graph::{generators, Graph};
use cct::prelude::{aldous_broder, sample_tree_via_doubling, wilson, Clique};
use cct::walks::random_weight_mst;
use proptest::prelude::*;
use rand::SeedableRng;

/// The worker-thread sweep of the equivalence contract: 1/2/4/8 by
/// default; when `CCT_WORKERS` is set (the CI thread-count matrix), the
/// sweep narrows to {1, max(CCT_WORKERS, 2)} so every matrix leg checks
/// a real sequential-vs-parallel pairing (never 1-vs-1) without
/// repeating the full sweep.
fn worker_sweep() -> Vec<usize> {
    match std::env::var("CCT_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&w| w >= 1)
    {
        Some(w) => vec![1, w.max(2)],
        None => vec![1, 2, 4, 8],
    }
}

/// The matrix-backend sweep: all three by default (local runs); when
/// `CCT_BACKEND` names one (the CI matrix), the sweep narrows —
/// `dense` runs the dense-only pre-backend sweep (the default CI legs,
/// at their pre-backend cost), while any other backend runs the
/// {Dense, that backend} pairing (Dense stays in as the reference leg).
fn backend_sweep() -> Vec<Backend> {
    let named = std::env::var("CCT_BACKEND").ok();
    match Backend::ALL
        .into_iter()
        .find(|b| Some(b.as_str()) == named.as_deref())
    {
        None => vec![Backend::Dense, Backend::Sparse, Backend::Auto],
        Some(Backend::Dense) => vec![Backend::Dense],
        Some(b) => vec![Backend::Dense, b],
    }
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A random small connected graph drawn from a spec id + seed.
fn build_graph(kind: u8, n: usize, seed: u64) -> Graph {
    match kind % 5 {
        0 => generators::erdos_renyi_connected(n, 0.5, &mut rng(seed)),
        1 => generators::complete(n),
        2 => generators::cycle(n.max(3)),
        3 => generators::wheel(n.max(4)),
        _ => generators::complete_bipartite(2, (n - 2).max(1)),
    }
}

fn any_engine() -> impl Strategy<Value = EngineChoice> {
    prop_oneof![
        Just(EngineChoice::UnitCost),
        Just(EngineChoice::Semiring),
        Just(EngineChoice::FastOracle {
            alpha: cct::sim::ALPHA
        }),
    ]
}

/// Runs the phase sampler at a given worker count and backend and
/// returns the (tree, full ledger) pair.
fn run_phase_sampler(
    g: &Graph,
    engine: EngineChoice,
    exact: bool,
    workers: usize,
    backend: Backend,
    seed: u64,
) -> (cct::graph::SpanningTree, cct::sim::RoundLedger) {
    let base = if exact {
        SamplerConfig::exact_variant()
    } else {
        SamplerConfig::new()
    };
    let config = base
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(engine)
        .variant(Variant::LasVegas) // no Monte Carlo breakouts: full coverage
        .workers(Workers::Fixed(workers))
        .backend(backend);
    let report = CliqueTreeSampler::new(config)
        .sample(g, &mut rng(seed))
        .expect("connected input");
    (report.tree, report.rounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1 sampler and the Appendix exact variant: same seed ⇒
    /// same tree and byte-identical ledger at every worker count and
    /// under every matrix backend (the reference leg is Dense at one
    /// worker; every (backend, workers) combination must match it).
    #[test]
    fn phase_samplers_are_worker_and_backend_invariant(
        kind in 0u8..5,
        n in 4usize..=10,
        graph_seed in any::<u64>(),
        sample_seed in any::<u64>(),
        engine in any_engine(),
    ) {
        let g = build_graph(kind, n, graph_seed);
        for exact in [false, true] {
            let reference =
                run_phase_sampler(&g, engine, exact, 1, Backend::Dense, sample_seed);
            for backend in backend_sweep() {
                for workers in worker_sweep() {
                    let got =
                        run_phase_sampler(&g, engine, exact, workers, backend, sample_seed);
                    prop_assert_eq!(
                        &got.0, &reference.0,
                        "tree mismatch: exact={} workers={} backend={}",
                        exact, workers, backend
                    );
                    prop_assert_eq!(
                        &got.1, &reference.1,
                        "ledger mismatch: exact={} workers={} backend={}",
                        exact, workers, backend
                    );
                }
            }
        }
    }

    /// The same contract on the *weighted* axis: integer-weighted
    /// graphs (weights 1..=8, the `-w` spec range) through both
    /// variants must stay bit-identical across worker counts and
    /// matrix backends — the weighted transition matrices `P = w/deg`
    /// ride the identical sharding and storage paths.
    #[test]
    fn weighted_phase_samplers_are_worker_and_backend_invariant(
        kind in 0u8..5,
        n in 4usize..=10,
        graph_seed in any::<u64>(),
        weight_seed in any::<u64>(),
        sample_seed in any::<u64>(),
        engine in any_engine(),
    ) {
        let g = generators::with_random_integer_weights(
            &build_graph(kind, n, graph_seed), 8, &mut rng(weight_seed),
        ).unwrap();
        for exact in [false, true] {
            let reference =
                run_phase_sampler(&g, engine, exact, 1, Backend::Dense, sample_seed);
            for backend in backend_sweep() {
                for workers in worker_sweep() {
                    let got =
                        run_phase_sampler(&g, engine, exact, workers, backend, sample_seed);
                    prop_assert_eq!(
                        &got.0, &reference.0,
                        "weighted tree mismatch: exact={} workers={} backend={}",
                        exact, workers, backend
                    );
                    prop_assert_eq!(
                        &got.1, &reference.1,
                        "weighted ledger mismatch: exact={} workers={} backend={}",
                        exact, workers, backend
                    );
                }
            }
        }
    }

    /// The forced-sparse backend on larger, genuinely sparse inputs
    /// (where Auto also resolves sparse and CSR levels really appear):
    /// byte-identical trees and ledgers to the dense route, cold and
    /// prepared — through the full default pipeline, matching placement
    /// included.
    #[test]
    fn sparse_backend_matches_dense_on_sparse_graphs(
        n in 48usize..=80,
        sample_seed in any::<u64>(),
        use_cycle in any::<bool>(),
    ) {
        let g = if use_cycle {
            generators::cycle(n | 1) // odd: phase 1 takes the top-down route
        } else {
            generators::random_regular(n & !1, 3, &mut rng(n as u64))
        };
        let reference =
            run_phase_sampler(&g, EngineChoice::UnitCost, false, 1, Backend::Dense, sample_seed);
        for backend in [Backend::Sparse, Backend::Auto] {
            let got =
                run_phase_sampler(&g, EngineChoice::UnitCost, false, 1, backend, sample_seed);
            prop_assert_eq!(&got.0, &reference.0, "tree mismatch: backend={}", backend);
            prop_assert_eq!(&got.1, &reference.1, "ledger mismatch: backend={}", backend);
        }
        // Prepared path under the sparse backend reproduces the dense
        // cold path draw for draw.
        let config = SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost)
            .variant(Variant::LasVegas)
            .backend(Backend::Sparse);
        let prepared = CliqueTreeSampler::new(config).prepare(&g).expect("connected");
        let mut r = rng(sample_seed);
        let draw = prepared.sample(&mut r).expect("prepared draw");
        prop_assert_eq!(&draw.tree, &reference.0);
        prop_assert_eq!(&draw.rounds, &reference.1);
    }

    /// The other five algorithms (doubling, direction4, and the three
    /// sequential baselines) take no worker knob — they never touch the
    /// parallel engine, so "sequential vs parallel" is the same code
    /// path and their contract reduces to seed-determinism: repeated
    /// runs must agree exactly on tree (and ledger, where one exists).
    #[test]
    fn remaining_algorithms_are_seed_deterministic(
        kind in 0u8..5,
        n in 4usize..=10,
        graph_seed in any::<u64>(),
        sample_seed in any::<u64>(),
    ) {
        let g = build_graph(kind, n, graph_seed);

        let doubling = || {
            let mut clique = Clique::new(g.n());
            let (tree, _) =
                sample_tree_via_doubling(&mut clique, &g, 2.0, 100_000, &mut rng(sample_seed))
                    .expect("connected");
            (tree, clique.ledger().clone())
        };
        let direction4 = || {
            let report = direction4_sample(&g, 1.0, &mut rng(sample_seed)).expect("connected");
            (report.tree, report.rounds)
        };
        let ab = || aldous_broder(&g, 0, &mut rng(sample_seed)).expect("connected");
        let wi = || wilson(&g, 0, &mut rng(sample_seed)).expect("connected");
        let mst = || random_weight_mst(&g, &mut rng(sample_seed)).expect("connected");

        prop_assert_eq!(doubling(), doubling(), "doubling not seed-deterministic");
        prop_assert_eq!(direction4(), direction4(), "direction4 not seed-deterministic");
        prop_assert_eq!(ab(), ab(), "aldous-broder not seed-deterministic");
        prop_assert_eq!(wi(), wi(), "wilson not seed-deterministic");
        prop_assert_eq!(mst(), mst(), "mst-strawman not seed-deterministic");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The sweeps above use graphs of 4 to 10 vertices, whose parallel
    /// sections all hold fewer than two shards' worth of items, so every
    /// worker count runs them on the caller's thread. Here a random
    /// 4-regular graph on 160 vertices, ρ = n/2 and a 2^12-step walk make
    /// the top-down levels fan out over hundreds of midpoint pairs (at
    /// least 256, two shards' worth, in 79 of 80 measured draws), which
    /// workers 4 and 8 split into shards on spawned threads. Both
    /// samplers must still return the sequential tree and ledger.
    #[test]
    fn phase_samplers_are_worker_invariant_when_fan_outs_shard(
        graph_seed in any::<u64>(),
        sample_seed in any::<u64>(),
    ) {
        let n = 160;
        let g = generators::random_regular(n, 4, &mut rng(graph_seed));
        for exact in [false, true] {
            let run = |workers: usize| {
                let base = if exact {
                    SamplerConfig::exact_variant()
                } else {
                    SamplerConfig::new()
                };
                let config = base
                    .walk_length(WalkLength::Fixed(1 << 12))
                    .rho(n / 2)
                    .variant(Variant::LasVegas)
                    .workers(Workers::Fixed(workers));
                CliqueTreeSampler::new(config)
                    .sample(&g, &mut rng(sample_seed))
                    .expect("connected input")
            };
            let reference = run(1);
            for workers in [4usize, 8] {
                let got = run(workers);
                prop_assert_eq!(
                    &got.tree, &reference.tree,
                    "tree mismatch: exact={} workers={}", exact, workers
                );
                prop_assert_eq!(
                    &got.rounds, &reference.rounds,
                    "ledger mismatch: exact={} workers={}", exact, workers
                );
            }
        }
    }
}
