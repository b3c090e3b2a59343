//! Pinned-seed regression fixtures for the hot-path refactor.
//!
//! The trees and round totals live in `tests/common/fixtures.rs`,
//! shared with `cli_smoke.rs` (which pins the CLI's printed output to
//! the same expectations). The linear-algebra refactor must be
//! bit-transparent: same seed, same tree, same ledger total — on every
//! graph of the standard suite, through both the cold and the prepared
//! path, and under the iterated-squaring Schur route too.
//!
//! If a change legitimately alters the sampled stream (a *semantic*
//! change, not an optimization), the fixtures must be regenerated and
//! the change called out loudly in the PR.

#[path = "common/fixtures.rs"]
mod fixtures;

use cct::core::{CliqueTreeSampler, SchurComputation};
use fixtures::{cli_config, exact_suite, standard_suite};
use rand::SeedableRng;

#[test]
fn thm1_trees_are_byte_identical_to_pre_refactor_fixtures() {
    let sampler = CliqueTreeSampler::new(cli_config());
    for (name, g, tree, rounds) in standard_suite() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let report = sampler.sample(&g, &mut rng).unwrap();
        assert_eq!(report.tree.edges(), &tree[..], "tree changed on {name}");
        assert_eq!(
            report.total_rounds(),
            rounds,
            "round total changed on {name}"
        );
    }
}

#[test]
fn every_backend_reproduces_the_pinned_fixtures() {
    // The backend axis: Dense, Sparse, and Auto must all emit the
    // pre-refactor trees and round totals bit for bit — representation
    // is a memory/speed knob, never a semantic one.
    for backend in fixtures::backends() {
        let sampler = CliqueTreeSampler::new(cli_config().backend(backend));
        for (name, g, tree, rounds) in standard_suite() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let report = sampler.sample(&g, &mut rng).unwrap();
            assert_eq!(
                report.tree.edges(),
                &tree[..],
                "tree changed on {name} under {backend}"
            );
            assert_eq!(
                report.total_rounds(),
                rounds,
                "round total changed on {name} under {backend}"
            );
        }
        // The prepared path too, on one representative fixture.
        let (name, g, tree, rounds) = standard_suite().swap_remove(0);
        let prepared = CliqueTreeSampler::new(cli_config().backend(backend))
            .prepare(&g)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let report = prepared.sample(&mut rng).unwrap();
        assert_eq!(report.tree.edges(), &tree[..], "{name} under {backend}");
        assert_eq!(report.total_rounds(), rounds, "{name} under {backend}");
    }
}

#[test]
fn prepared_path_reproduces_the_same_fixtures() {
    let sampler = CliqueTreeSampler::new(cli_config());
    for (name, g, tree, rounds) in standard_suite() {
        let prepared = sampler.prepare(&g).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let report = prepared.sample(&mut rng).unwrap();
        assert_eq!(report.tree.edges(), &tree[..], "tree changed on {name}");
        assert_eq!(
            report.total_rounds(),
            rounds,
            "round total changed on {name}"
        );
    }
}

#[test]
fn exact_variant_fixtures_hold() {
    let sampler = CliqueTreeSampler::new(cct::core::SamplerConfig::exact_variant().threads(4));
    for (name, g, tree, rounds) in exact_suite() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let report = sampler.sample(&g, &mut rng).unwrap();
        assert_eq!(report.tree.edges(), &tree[..], "tree changed on {name}");
        assert_eq!(
            report.total_rounds(),
            rounds,
            "round total changed on {name}"
        );
    }
}

#[test]
fn weight_one_graphs_reproduce_the_unweighted_fixtures_bit_for_bit() {
    // The weighted-graph degenerate case: rebuilding every fixture
    // graph through `from_weighted_edges` with explicit weight 1.0 must
    // leave the sampled stream untouched — same pinned tree, same round
    // total — across the backend axis and across worker counts. Any
    // drift here means the weighted code path is not a strict
    // generalization of the unweighted one.
    use cct::core::Workers;
    for backend in [cct::core::Backend::Dense, cct::core::Backend::Sparse] {
        for workers in [1usize, 4] {
            let sampler = CliqueTreeSampler::new(
                cli_config()
                    .backend(backend)
                    .workers(Workers::Fixed(workers)),
            );
            for (name, g, tree, rounds) in standard_suite() {
                let wg = fixtures::weight_one(&g);
                let mut rng = rand::rngs::StdRng::seed_from_u64(42);
                let report = sampler.sample(&wg, &mut rng).unwrap();
                assert_eq!(
                    report.tree.edges(),
                    &tree[..],
                    "weight-1 tree drifted on {name} under {backend} with {workers} workers"
                );
                assert_eq!(
                    report.total_rounds(),
                    rounds,
                    "weight-1 rounds drifted on {name} under {backend} with {workers} workers"
                );
            }
        }
    }
    // The exact variant's fixtures hold under weight-1 too.
    let sampler = CliqueTreeSampler::new(cct::core::SamplerConfig::exact_variant().threads(4));
    for (name, g, tree, rounds) in exact_suite() {
        let wg = fixtures::weight_one(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let report = sampler.sample(&wg, &mut rng).unwrap();
        assert_eq!(report.tree.edges(), &tree[..], "exact weight-1 on {name}");
        assert_eq!(report.total_rounds(), rounds, "exact weight-1 on {name}");
    }
}

#[test]
fn benchmark_scale_pins_hold_on_every_backend() {
    // The fixtures above stop at n = 10, below `Backend::AUTO_MIN_N`:
    // these pin Auto's CSR choice, fill-in promotion, and many top-down
    // phases on Schur complements, through the prepared path.
    for (name, g, config, hash, rounds) in fixtures::scale_suite() {
        for backend in fixtures::backends() {
            let prepared = CliqueTreeSampler::new(config.clone().backend(backend))
                .prepare(&g)
                .unwrap();
            let report = prepared
                .sample(&mut rand::rngs::StdRng::seed_from_u64(42))
                .unwrap();
            assert_eq!(
                fixtures::tree_hash(report.tree.edges()),
                hash,
                "tree changed on {name} under {backend}"
            );
            assert_eq!(
                report.total_rounds(),
                rounds,
                "round total changed on {name} under {backend}"
            );
        }
    }
}

#[test]
fn iterated_squaring_route_matches_exact_solve_trees() {
    // The block-squaring rewrite sits on the IteratedSquaring Schur
    // route; at tight tolerance it must sample the same trees as the
    // (numerically clean) exact solve, with identical ledgers.
    for (name, g, _, _) in standard_suite() {
        let exact = CliqueTreeSampler::new(cli_config());
        let squaring = CliqueTreeSampler::new(
            cli_config().schur(SchurComputation::IteratedSquaring { tol: 1e-12 }),
        );
        let mut r1 = rand::rngs::StdRng::seed_from_u64(42);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(42);
        let a = exact.sample(&g, &mut r1).unwrap();
        let b = squaring.sample(&g, &mut r2).unwrap();
        assert_eq!(a.tree, b.tree, "{name}");
        assert_eq!(a.rounds, b.rounds, "{name}");
    }
}
