//! Workspace-level integration tests exercising the public facade across
//! crates: the full sampler pipeline, the doubling sampler, and the
//! baselines, all agreeing with each other on the same inputs.

use cct::core::{EngineChoice, SchurComputation};
use cct::graph::{spanning_tree_count_exact, spanning_tree_distribution};
use cct::prelude::*;
use cct::walks::stats;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn quick_config() -> SamplerConfig {
    SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost)
}

#[test]
fn all_three_samplers_agree_on_exact_distribution() {
    // The distributed sampler, Aldous–Broder, and Wilson must all match
    // the Matrix–Tree law of the same graph.
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
    let exact = spanning_tree_distribution(&g);
    let trials = 12_000;

    let sampler = CliqueTreeSampler::new(quick_config());
    let mut r = rng(1);
    let counts =
        stats::empirical_counts((0..trials).map(|_| sampler.sample(&g, &mut r).unwrap().tree));
    let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
    assert!(stat < crit, "distributed: {stat:.1} ≥ {crit:.1}");

    let mut r = rng(2);
    let counts =
        stats::empirical_counts((0..trials).map(|_| aldous_broder(&g, 0, &mut r).unwrap()));
    let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
    assert!(stat < crit, "aldous-broder: {stat:.1} ≥ {crit:.1}");

    let mut r = rng(3);
    let counts = stats::empirical_counts((0..trials).map(|_| wilson(&g, 0, &mut r).unwrap()));
    let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
    assert!(stat < crit, "wilson: {stat:.1} ≥ {crit:.1}");
}

#[test]
fn sampler_handles_the_full_generator_suite() {
    let mut r = rng(4);
    let sampler = CliqueTreeSampler::new(quick_config());
    let graphs = vec![
        generators::complete(12),
        generators::cycle(11),
        generators::path(10),
        generators::star(12),
        generators::wheel(10),
        generators::grid(3, 4),
        generators::petersen(),
        generators::barbell(6),
        generators::lollipop(6, 5),
        generators::complete_bipartite(4, 5),
        generators::k_dense_irregular(12),
        generators::erdos_renyi_connected(14, 0.35, &mut r),
        generators::random_regular(12, 3, &mut r),
    ];
    for g in graphs {
        let report = sampler.sample(&g, &mut r).unwrap();
        assert!(!report.monte_carlo_failure, "failure on n = {}", g.n());
        assert_eq!(report.tree.n(), g.n());
        for &(u, v) in report.tree.edges() {
            assert!(g.has_edge(u, v));
        }
        // Total first-visit edges = n − 1 across phases.
        let new_total: usize = report.phases.iter().map(|p| p.new_vertices).sum();
        assert_eq!(new_total, g.n() - 1);
    }
}

#[test]
fn schur_route_choice_does_not_change_results() {
    // Exact solve vs iterated squaring: same seed, same tree (the
    // numerics agree far below sampling granularity).
    let mut r1 = rng(5);
    let mut r2 = rng(5);
    let g = generators::erdos_renyi_connected(16, 0.3, &mut rng(6));
    let t1 = CliqueTreeSampler::new(quick_config().schur(SchurComputation::ExactSolve))
        .sample(&g, &mut r1)
        .unwrap();
    let t2 = CliqueTreeSampler::new(
        quick_config().schur(SchurComputation::IteratedSquaring { tol: 1e-12 }),
    )
    .sample(&g, &mut r2)
    .unwrap();
    assert_eq!(t1.tree, t2.tree);
}

#[test]
fn doubling_sampler_matches_exact_distribution() {
    let g = generators::complete(4);
    let exact = spanning_tree_distribution(&g);
    let trials = 8_000;
    let mut r = rng(7);
    let counts = stats::empirical_counts((0..trials).map(|_| {
        let mut clique = Clique::new(4);
        sample_tree_via_doubling(&mut clique, &g, 2.0, 500, &mut r)
            .unwrap()
            .0
    }));
    let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
    assert!(stat < crit, "doubling sampler: {stat:.1} ≥ {crit:.1}");
}

#[test]
fn round_reports_are_consistent() {
    let g = generators::complete(25);
    let sampler = CliqueTreeSampler::new(quick_config());
    let mut r = rng(8);
    let report = sampler.sample(&g, &mut r).unwrap();
    // Phase ledgers sum to the total ledger.
    let phase_sum: u64 = report.phases.iter().map(|p| p.rounds.total_rounds()).sum();
    assert_eq!(phase_sum, report.total_rounds());
    // ρ = 5 on K25 → ceil(24/4) = 6 phases.
    assert_eq!(report.num_phases(), 6);
}

#[test]
fn matrix_tree_agrees_with_known_formulas_via_facade() {
    assert_eq!(
        spanning_tree_count_exact(&generators::complete(6)).unwrap(),
        1296
    );
    assert_eq!(
        spanning_tree_count_exact(&generators::complete_bipartite(3, 4)).unwrap(),
        3i128.pow(3) * 4i128.pow(2)
    );
    // Petersen graph: 2000 spanning trees (classical).
    assert_eq!(
        spanning_tree_count_exact(&generators::petersen()).unwrap(),
        2000
    );
}

#[test]
fn exact_variant_end_to_end() {
    let g = generators::erdos_renyi_connected(20, 0.35, &mut rng(9));
    let config = SamplerConfig::exact_variant()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost);
    let sampler = CliqueTreeSampler::new(config);
    let mut r = rng(10);
    let report = sampler.sample(&g, &mut r).unwrap();
    assert!(!report.monte_carlo_failure);
    assert_eq!(report.tree.edges().len(), 19);
    // Exact variant: more, smaller phases (ρ = n^{1/3}).
    assert!(report.num_phases() >= 9, "{} phases", report.num_phases());
}

#[test]
fn engines_differ_only_in_ledger() {
    let g = generators::erdos_renyi_connected(27, 0.3, &mut rng(11));
    let configs = [
        quick_config(),
        quick_config().engine(EngineChoice::Semiring),
        quick_config().engine(EngineChoice::FastOracle {
            alpha: cct::sim::ALPHA,
        }),
    ];
    let trees: Vec<_> = configs
        .iter()
        .map(|c| {
            let mut r = rng(12);
            CliqueTreeSampler::new(c.clone())
                .sample(&g, &mut r)
                .unwrap()
        })
        .collect();
    assert_eq!(trees[0].tree, trees[1].tree);
    assert_eq!(trees[0].tree, trees[2].tree);
    // But the charged rounds differ (unit < oracle < semiring at n=27).
    assert!(trees[0].total_rounds() < trees[2].total_rounds());
    assert!(trees[2].total_rounds() < trees[1].total_rounds());
}
