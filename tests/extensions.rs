//! Integration tests for the beyond-the-paper extensions: Direction 4,
//! the MST strawman negative control, Kirchhoff marginals, and the extra
//! generators — all through the public facade.

use cct::core::direction4_sample;
use cct::core::{CliqueTreeSampler, EngineChoice, SamplerConfig, WalkLength};
use cct::graph::{
    effective_resistance, generators, spanning_tree_distribution, spanning_tree_edge_marginals,
};
use cct::walks::{random_mst_distribution, random_weight_mst, stats};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn direction4_handles_every_generator() {
    let mut r = rng(1);
    for g in [
        generators::hypercube(4),
        generators::torus(3, 4),
        generators::binary_tree(3),
        generators::k_dense_irregular(14),
        generators::wheel(11),
    ] {
        let report = direction4_sample(&g, 1.5, &mut r).unwrap();
        assert_eq!(report.tree.n(), g.n());
        for &(u, v) in report.tree.edges() {
            assert!(g.has_edge(u, v));
        }
    }
}

#[test]
fn main_sampler_on_new_generators() {
    let config = SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost);
    let sampler = CliqueTreeSampler::new(config);
    let mut r = rng(2);
    for g in [
        generators::hypercube(3),
        generators::torus(3, 3),
        generators::binary_tree(3),
    ] {
        let report = sampler.sample(&g, &mut r).unwrap();
        assert!(!report.monte_carlo_failure, "n = {}", g.n());
        assert_eq!(report.tree.edges().len(), g.n() - 1);
    }
}

#[test]
fn strawman_negative_control_via_facade() {
    // The gate passes real samplers and rejects the strawman on the same
    // graph with the same trial count — the methodology's litmus test.
    let g = cct::graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
    let uniform = spanning_tree_distribution(&g);
    let trials = 40_000;

    let mut r = rng(3);
    let counts =
        stats::empirical_counts((0..trials).map(|_| random_weight_mst(&g, &mut r).unwrap()));
    let (stat_straw, crit) = stats::goodness_of_fit(&counts, &uniform, trials);
    assert!(
        stat_straw > crit,
        "strawman not rejected: {stat_straw:.1} ≤ {crit:.1}"
    );

    let mut r = rng(4);
    let counts =
        stats::empirical_counts((0..trials).map(|_| cct::walks::wilson(&g, 0, &mut r).unwrap()));
    let (stat_real, crit) = stats::goodness_of_fit(&counts, &uniform, trials);
    assert!(
        stat_real < crit,
        "wilson rejected: {stat_real:.1} ≥ {crit:.1}"
    );

    // And the strawman matches its own exact law.
    let mst_law = random_mst_distribution(&g);
    let mut r = rng(5);
    let counts =
        stats::empirical_counts((0..trials).map(|_| random_weight_mst(&g, &mut r).unwrap()));
    let (stat, crit) = stats::goodness_of_fit(&counts, &mst_law, trials);
    assert!(stat < crit);
}

#[test]
fn resistance_identities_via_facade() {
    // Hypercube Q3: R between antipodal vertices is 5/6 (classical).
    let q3 = generators::hypercube(3);
    assert!((effective_resistance(&q3, 0, 7) - 5.0 / 6.0).abs() < 1e-10);
    // Foster: Σ marginals = n − 1 on the torus.
    let t = generators::torus(3, 4);
    let total: f64 = spanning_tree_edge_marginals(&t)
        .iter()
        .map(|&(_, _, p)| p)
        .sum();
    assert!((total - 11.0).abs() < 1e-8);
    // The 3×4 torus is vertex- but not edge-transitive: the 12
    // "short-direction" edges share one marginal, the 12 long-direction
    // edges another, and the two classes differ.
    let marginals = spanning_tree_edge_marginals(&t);
    let (mut horiz, mut vert) = (Vec::new(), Vec::new());
    for &(u, v, p) in &marginals {
        if u / 4 == v / 4 {
            horiz.push(p); // same row
        } else {
            vert.push(p);
        }
    }
    assert_eq!(horiz.len(), 12);
    assert_eq!(vert.len(), 12);
    for &p in &horiz {
        assert!((p - horiz[0]).abs() < 1e-9);
    }
    for &p in &vert {
        assert!((p - vert[0]).abs() < 1e-9);
    }
    assert!(
        (horiz[0] - vert[0]).abs() > 1e-6,
        "edge classes should differ"
    );
}

#[test]
fn weighted_paper_walk_length_scales_with_w() {
    // Footnote 1: the ℓ budget must grow with the weight bound W.
    let mut r = rng(7);
    let base = generators::complete(6);
    let heavy = generators::with_random_integer_weights(&base, 32, &mut r).unwrap();
    let sampler = CliqueTreeSampler::new(SamplerConfig::new().engine(EngineChoice::UnitCost));
    let plain = sampler.sample(&base, &mut r).unwrap();
    let weighted = sampler.sample(&heavy, &mut r).unwrap();
    assert!(!plain.monte_carlo_failure && !weighted.monte_carlo_failure);
    let ell_plain = plain.phases[0].ell;
    let ell_weighted = weighted.phases[0].ell;
    assert!(
        ell_weighted > ell_plain,
        "weighted ℓ {ell_weighted} should exceed unweighted {ell_plain}"
    );
}
