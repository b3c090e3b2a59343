//! End-to-end distributional validation of the distributed sampler:
//! Theorem 1 (TVD to uniform), Lemmas 3–4 (matching placement ≡ direct
//! placement), footnote 1 (weighted graphs), and the Appendix exact
//! variant.

use cct_core::{CliqueTreeSampler, PhaseMethod, Placement, SamplerConfig, Variant, WalkLength};
use cct_graph::{generators, spanning_tree_distribution, Graph, SpanningTree};
use cct_walks::stats;
use rand::SeedableRng;
use std::collections::HashMap;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Draws `trials` trees and chi-square-tests them against the exact
/// weighted-uniform distribution.
fn assert_uniform(g: &Graph, config: SamplerConfig, trials: usize, seed: u64, label: &str) {
    let exact = spanning_tree_distribution(g);
    let sampler = CliqueTreeSampler::new(config);
    let mut r = rng(seed);
    let mut counts: HashMap<SpanningTree, usize> = HashMap::new();
    let mut failures = 0usize;
    for _ in 0..trials {
        let report = sampler.sample(g, &mut r).expect("sampling failed");
        if report.monte_carlo_failure {
            failures += 1;
            continue;
        }
        *counts.entry(report.tree).or_insert(0) += 1;
    }
    assert!(
        failures * 100 < trials,
        "{label}: {failures}/{trials} Monte Carlo failures — ℓ too short"
    );
    let effective = trials - failures;
    let (stat, crit) = stats::goodness_of_fit(&counts, &exact, effective);
    assert!(
        stat < crit,
        "{label}: chi² = {stat:.1} ≥ {crit:.1} over {} trees",
        exact.len()
    );
}

fn quick(ell_factor: f64) -> SamplerConfig {
    SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: ell_factor })
        .engine(cct_core::EngineChoice::UnitCost)
}

#[test]
fn uniform_on_k4_with_matching_placement() {
    // K4: 16 spanning trees; ρ = 2.
    assert_uniform(
        &generators::complete(4),
        quick(4.0),
        12_000,
        1000,
        "K4/matching",
    );
}

#[test]
fn uniform_on_k5_with_larger_rho() {
    // ρ = 4 on K5 exercises multi-midpoint levels and the matching
    // machinery hard (budget close to |S|).
    let config = quick(4.0).rho(4);
    assert_uniform(&generators::complete(5), config, 12_000, 1001, "K5/rho4");
}

#[test]
fn uniform_on_cycle_with_chord() {
    // C5 + chord: 11 spanning trees; non-regular, non-vertex-transitive.
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
    assert_uniform(&g, quick(4.0), 12_000, 1002, "C5+chord");
}

#[test]
fn uniform_on_bipartite_graph() {
    // K_{2,3}: 12 spanning trees; bipartite exercises the parity logic
    // and the degenerate-phase fallbacks.
    assert_uniform(
        &generators::complete_bipartite(2, 3),
        quick(4.0),
        12_000,
        1003,
        "K23",
    );
}

#[test]
fn matching_placement_equals_oracle_placement() {
    // Lemmas 3–4: the bandwidth-saving matching placement must not change
    // the output law. Both variants are tested against the same exact
    // distribution with the same trial count; if either deviated the
    // chi-square gate would trip.
    let g = generators::complete(5);
    let config_m = quick(4.0).rho(3).placement(Placement::Matching);
    let config_o = quick(4.0).rho(3).placement(Placement::Oracle);
    assert_uniform(&g, config_m, 10_000, 1004, "K5/matching");
    assert_uniform(&g, config_o, 10_000, 1005, "K5/oracle");
}

#[test]
fn exact_variant_is_uniform() {
    // Appendix §5: Las Vegas + per-pair shuffle, ρ = ⌊n^{1/3}⌋.
    let mut config = SamplerConfig::exact_variant()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(cct_core::EngineChoice::UnitCost);
    config = config.rho(3); // n^{1/3} floors to 2 at n=5; use 3 for coverage
    assert_uniform(
        &generators::complete(5),
        config,
        12_000,
        1006,
        "K5/exact-variant",
    );
}

#[test]
fn weighted_triangle_matches_weighted_uniform() {
    // Footnote 1: integer weights ≤ W; tree probability ∝ Π weights.
    let g = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap();
    assert_uniform(&g, quick(8.0), 12_000, 1007, "weighted-triangle");
}

#[test]
fn weighted_square_with_chord() {
    let g = Graph::from_weighted_edges(
        4,
        &[
            (0, 1, 2.0),
            (1, 2, 1.0),
            (2, 3, 3.0),
            (3, 0, 1.0),
            (0, 2, 2.0),
        ],
    )
    .unwrap();
    assert_uniform(&g, quick(4.0), 12_000, 1008, "weighted-square");
}

#[test]
fn las_vegas_variant_is_uniform() {
    let config = quick(4.0).variant(Variant::LasVegas);
    assert_uniform(
        &generators::complete(4),
        config,
        10_000,
        1009,
        "K4/las-vegas",
    );
}

#[test]
fn sampler_agrees_with_aldous_broder_on_star_plus() {
    // Star + one extra edge: 0 is the hub; extra edge (1, 2).
    let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
    assert_uniform(&g, quick(4.0), 12_000, 1010, "star-plus");
}

/// The paper's `ℓ` (the default `WalkLength`) with `ρ = 2`: every phase
/// adds one vertex, and each phase with `|S| > 2` walks top-down on a
/// table of `log₂ ℓ + 1` levels, most of which lie above the level where
/// the table settles — so the draw reads the settled level far more
/// often than a squared one.
fn assert_uniform_top_down(g: &Graph, trials: usize, seed: u64, label: &str) {
    let config = SamplerConfig::new().rho(2);
    let report = CliqueTreeSampler::new(config.clone())
        .sample(g, &mut rng(seed))
        .expect("sampling failed");
    let top_down = report
        .phases
        .iter()
        .filter(|p| p.method == PhaseMethod::TopDown)
        .count();
    assert!(top_down >= 2, "{label}: only {top_down} top-down phases");
    assert_uniform(g, config, trials, seed, label);
}

#[test]
fn uniform_on_grid_2x3_at_the_paper_length() {
    // 15 spanning trees.
    assert_uniform_top_down(&generators::grid(2, 3), 12_000, 1011, "grid:2x3/paper-ell");
}

#[test]
fn uniform_on_wheel_6_at_the_paper_length() {
    // Hub plus a 5-cycle: 121 spanning trees.
    assert_uniform_top_down(&generators::wheel(6), 12_000, 1012, "wheel:6/paper-ell");
}

#[test]
fn uniform_on_k6_at_the_paper_length() {
    // 6⁴ = 1,296 spanning trees: about 15 expected draws per tree.
    assert_uniform_top_down(&generators::complete(6), 20_000, 1013, "K6/paper-ell");
}
