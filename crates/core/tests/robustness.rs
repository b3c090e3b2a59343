//! Robustness and edge-case behaviour of the distributed sampler: the
//! corner graphs, budget extremes, and configuration boundaries a
//! downstream user will eventually hit.

use cct_core::{CliqueTreeSampler, EngineChoice, PhaseMethod, SamplerConfig, Variant, WalkLength};
use cct_graph::{generators, Graph};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn quick() -> SamplerConfig {
    SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost)
}

#[test]
fn rho_equal_to_n_covers_in_one_phase() {
    // Budget = n: the whole graph in a single (direct-local) phase.
    let g = generators::complete(9);
    let sampler = CliqueTreeSampler::new(quick().rho(9).variant(Variant::LasVegas));
    let mut r = rng(1);
    let report = sampler.sample(&g, &mut r).unwrap();
    assert_eq!(report.num_phases(), 1);
    assert_eq!(report.phases[0].method, PhaseMethod::DirectLocal);
    assert_eq!(report.phases[0].new_vertices, 8);
}

#[test]
fn rho_larger_than_n_is_clamped() {
    let g = generators::complete(6);
    let sampler = CliqueTreeSampler::new(quick().rho(100));
    let mut r = rng(2);
    let report = sampler.sample(&g, &mut r).unwrap();
    assert_eq!(report.num_phases(), 1);
    assert_eq!(report.phases[0].rho, 6);
}

#[test]
fn minimal_rho_runs_many_phases() {
    // ρ = 2: one new vertex per phase → exactly n − 1 phases.
    let g = generators::complete(8);
    let sampler = CliqueTreeSampler::new(quick().rho(2));
    let mut r = rng(3);
    let report = sampler.sample(&g, &mut r).unwrap();
    assert_eq!(report.num_phases(), 7);
    for p in &report.phases {
        assert_eq!(p.new_vertices, 1);
    }
}

#[test]
fn dense_multigraph_like_weights() {
    // Extreme weight skew (1 vs 10⁶) — the walk all but glues the heavy
    // edge's endpoints together; the sampler must still terminate and
    // include the heavy edge essentially always.
    let g = Graph::from_weighted_edges(
        4,
        &[
            (0, 1, 1e6),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (0, 2, 1.0),
        ],
    )
    .unwrap();
    let sampler = CliqueTreeSampler::new(quick().variant(Variant::LasVegas));
    let mut r = rng(4);
    let mut heavy = 0;
    for _ in 0..50 {
        let report = sampler.sample(&g, &mut r).unwrap();
        if report.tree.contains_edge(0, 1) {
            heavy += 1;
        }
    }
    assert!(heavy >= 48, "heavy edge appeared in only {heavy}/50 trees");
}

#[test]
fn draws_at_the_weight_bound_complete() {
    // grid:8x8 reweighted from 1 to 2²⁰ (the largest ratio the sampler
    // accepts), default config: the Schur phases' shortcut solves leave
    // cancellation residues below zero, which must never reach a row
    // sampler as negative weights.
    const W: [f64; 5] = [1.0, 33.0, 1000.0, 33333.0, 1_048_576.0];
    let edges: Vec<(usize, usize, f64)> = generators::grid(8, 8)
        .edges()
        .iter()
        .map(|&(u, v, _)| (u, v, W[(u + 2 * v) % 5]))
        .collect();
    let g = Graph::from_weighted_edges(64, &edges).unwrap();
    let prepared = CliqueTreeSampler::new(SamplerConfig::new())
        .prepare(&g)
        .unwrap();
    let report = prepared.sample(&mut rng(1)).unwrap();
    assert_eq!(report.tree.edges().len(), 63);
}

#[test]
fn star_graphs_force_bipartite_fallback() {
    // Stars are bipartite with side(centre) = 1: every top-down-eligible
    // phase with start at the centre must detect degeneracy gracefully.
    let g = generators::star(12);
    let sampler = CliqueTreeSampler::new(quick().variant(Variant::LasVegas));
    let mut r = rng(5);
    let report = sampler.sample(&g, &mut r).unwrap();
    assert_eq!(report.tree.edges().len(), 11);
    // The unique spanning tree of a star is the star itself.
    for v in 1..12 {
        assert!(report.tree.contains_edge(0, v));
    }
}

#[test]
fn binary_tree_unique_spanning_tree() {
    let g = generators::binary_tree(3);
    let expect: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
    let sampler = CliqueTreeSampler::new(quick().variant(Variant::LasVegas));
    let mut r = rng(6);
    let report = sampler.sample(&g, &mut r).unwrap();
    assert_eq!(report.tree.edges(), &expect[..]);
}

#[test]
fn very_short_fixed_ell_on_clique_still_works_las_vegas() {
    // ℓ = 2 with Las Vegas: constant extensions, still correct.
    let g = generators::complete(10);
    let config = quick()
        .walk_length(WalkLength::Fixed(2))
        .variant(Variant::LasVegas);
    let sampler = CliqueTreeSampler::new(config);
    let mut r = rng(7);
    let report = sampler.sample(&g, &mut r).unwrap();
    assert!(!report.monte_carlo_failure);
    assert_eq!(report.tree.edges().len(), 9);
}

#[test]
fn phase_tau_counts_are_plausible() {
    let g = generators::lollipop(6, 6);
    let sampler = CliqueTreeSampler::new(quick().variant(Variant::LasVegas));
    let mut r = rng(8);
    let report = sampler.sample(&g, &mut r).unwrap();
    // Each phase walks at least as many steps as it discovers vertices,
    // and the sum of discoveries is n − 1.
    let mut total_new = 0;
    for p in &report.phases {
        assert!(p.tau >= p.new_vertices as u64);
        total_new += p.new_vertices;
    }
    assert_eq!(total_new, g.n() - 1);
}

#[test]
fn report_display_is_informative() {
    let g = generators::complete(6);
    let sampler = CliqueTreeSampler::new(quick());
    let mut r = rng(9);
    let report = sampler.sample(&g, &mut r).unwrap();
    let s = format!("{report}");
    assert!(s.contains("phases"));
    assert!(s.contains("rounds"));
    assert!(s.contains("phase 0"));
}
