//! Property-based tests for the derivative graphs: identities between
//! the Laplacian-elimination route and the shortcut-matrix route, and
//! probabilistic invariants of `Q` and `S`.

use cct_graph::generators;
use cct_linalg::{is_row_stochastic, PMatrix, Repr};
use cct_schur::{
    entry_matrix, schur_laplacian, schur_transition_exact, schur_transition_from_shortcut_p,
    shortcut_by_squaring, shortcut_by_squaring_dense, shortcut_exact, VertexSubset,
};
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a connected graph with a proper subset S of ≥ 2 vertices.
fn graph_and_subset() -> impl Strategy<Value = (cct_graph::Graph, VertexSubset)> {
    (4usize..=12, any::<u64>(), 2usize..=5).prop_map(|(n, seed, s_size)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.5, &mut rng);
        let s_size = s_size.min(n - 1).max(2);
        let vertices: Vec<usize> = (0..s_size).map(|i| (i * 7 + seed as usize) % n).collect();
        let mut s = VertexSubset::new(n, &vertices);
        if s.len() < 2 {
            s = VertexSubset::new(n, &[0, n - 1]);
        }
        (g, s)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn schur_laplacian_is_a_laplacian((g, s) in graph_and_subset()) {
        let l = schur_laplacian(&g, &s);
        for i in 0..s.len() {
            prop_assert!(l.row(i).iter().sum::<f64>().abs() < 1e-8, "row {i} sum");
            for j in 0..s.len() {
                prop_assert!((l[(i, j)] - l[(j, i)]).abs() < 1e-8);
                if i != j {
                    prop_assert!(l[(i, j)] <= 1e-8, "positive off-diagonal");
                }
            }
        }
    }

    #[test]
    fn schur_transition_is_stochastic_no_self_loops((g, s) in graph_and_subset()) {
        let t = schur_transition_exact(&g, &s);
        prop_assert!(is_row_stochastic(&t, 1e-8));
        for i in 0..s.len() {
            prop_assert_eq!(t[(i, i)], 0.0);
        }
    }

    #[test]
    fn corollary3_equals_laplacian_route((g, s) in graph_and_subset()) {
        let exact = schur_transition_exact(&g, &s);
        let q = shortcut_exact(&g, &s);
        let via_q = schur_transition_from_shortcut_p(&g, &s, &PMatrix::Dense(q));
        prop_assert!(exact.max_abs_diff(&via_q) < 1e-8);
    }

    #[test]
    fn shortcut_rows_are_distributions((g, s) in graph_and_subset()) {
        let q = shortcut_exact(&g, &s);
        for u in 0..g.n() {
            let sum: f64 = (0..g.n()).map(|v| q[(u, v)]).sum();
            prop_assert!((sum - 1.0).abs() < 1e-8, "row {u} sums to {sum}");
            prop_assert!((0..g.n()).all(|v| q[(u, v)] >= -1e-10));
        }
    }

    #[test]
    fn squaring_under_approximates_exact((g, s) in graph_and_subset()) {
        let exact = shortcut_exact(&g, &s);
        let approx = shortcut_by_squaring(&g, &s, 1e-10, 64, Repr::Dense).0.into_dense();
        for u in 0..g.n() {
            for v in 0..g.n() {
                prop_assert!(approx[(u, v)] <= exact[(u, v)] + 1e-9);
            }
        }
        prop_assert!(exact.max_abs_diff(&approx) < 1e-7);
    }

    #[test]
    fn block_squaring_agrees_with_dense_2n((g, s) in graph_and_subset()) {
        // The block update (Q, R) → (Q², QR + R) must reproduce the
        // generic dense 2n × 2n squaring of the absorbing chain on random
        // graphs/subsets, at both a loose (fixed-point-scale) and a tight
        // tolerance, with the same squaring count. (The implementation is
        // in fact bit-identical — asserted exactly in the unit suite —
        // but the property pins the contract at the 1e-12 tolerance the
        // sampler's fixed-point pipeline relies on.)
        for tol in [1e-4, 1e-12] {
            let (block, used_b) = shortcut_by_squaring(&g, &s, tol, 64, Repr::Dense);
            let block = block.into_dense();
            let (dense, used_d) = shortcut_by_squaring_dense(&g, &s, tol, 64);
            prop_assert_eq!(used_b, used_d, "squaring counts diverged at tol {}", tol);
            prop_assert!(
                block.max_abs_diff(&dense) <= 1e-12,
                "tol {}: diff {}",
                tol,
                block.max_abs_diff(&dense)
            );
        }
    }

    #[test]
    fn entry_matrix_rows_stochastic((g, s) in graph_and_subset()) {
        let r = entry_matrix(&g, &s);
        for u in 0..g.n() {
            let sum: f64 = (0..g.n()).map(|v| r[(u, v)]).sum();
            prop_assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn schur_of_schur_composes((n, seed) in (6usize..=10, any::<u64>())) {
        // Schur(Schur(G, S1), S2) = Schur(G, S2) for S2 ⊆ S1 — the
        // transitivity that lets phases shrink S incrementally.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.6, &mut rng);
        let s1_list: Vec<usize> = (0..n).filter(|v| v % 2 == 0 || *v < 4).collect();
        let s1 = VertexSubset::new(n, &s1_list);
        let h = cct_schur::schur_graph(&g, &s1).unwrap();
        // S2: the first three vertices of S1 (local ids 0, 1, 2).
        let s2_local = VertexSubset::new(h.n(), &[0, 1, 2]);
        let s2_global = VertexSubset::new(n, &[s1.global(0), s1.global(1), s1.global(2)]);
        let via_h = schur_transition_exact(&h, &s2_local);
        let direct = schur_transition_exact(&g, &s2_global);
        prop_assert!(via_h.max_abs_diff(&direct) < 1e-7);
    }
}
