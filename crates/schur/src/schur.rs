//! The Schur complement graph `Schur(G, S)` — Definitions 1–2,
//! Corollary 3.
//!
//! Walking on `Schur(G, S)` is the same as walking on `G` and watching
//! only the visits to `S` (Theorem 2.4 of Schild \[69\]); the sampler uses
//! it to skip vertices visited in earlier phases. Two constructions:
//!
//! * [`schur_laplacian`] / [`schur_transition_exact`] — Gaussian
//!   elimination on the Laplacian (Definition 1), the sequential
//!   reference;
//! * [`schur_transition_from_shortcut_p`] — the paper's distributed
//!   route (Corollary 3): `S[u,v] ∝ (Q·R)[u,v]` with per-row
//!   normalization `M_u = 1/(1 − (QR)[u,u])`, built from the shortcut
//!   matrix `Q` in either representation.

use crate::VertexSubset;
use cct_graph::{Graph, GraphError};
use cct_linalg::{Lu, Matrix, PMatrix};

/// The Schur complement of the Laplacian onto `S` (Definition 1):
/// `L_SS − L_{S,S̄} · L_{S̄,S̄}^{-1} · L_{S̄,S}`, a `|S| × |S|` Laplacian in
/// the local index order of `s.list()`.
///
/// # Panics
///
/// Panics if `s` is empty, its universe differs from `g.n()`, or
/// `L_{S̄,S̄}` is singular (happens only if some component of `G` avoids
/// `S`; connected inputs are safe).
pub fn schur_laplacian(g: &Graph, s: &VertexSubset) -> Matrix {
    let n = g.n();
    assert_eq!(s.universe(), n, "subset universe must match graph");
    assert!(!s.is_empty(), "S must be non-empty");
    let l = g.laplacian();
    let s_idx = s.list().to_vec();
    let c_idx = s.complement().list().to_vec();
    let l_ss = l.submatrix(&s_idx, &s_idx);
    if c_idx.is_empty() {
        return l_ss;
    }
    let l_sc = l.submatrix(&s_idx, &c_idx);
    let l_cc = l.submatrix(&c_idx, &c_idx);
    let l_cs = l.submatrix(&c_idx, &s_idx);
    let lu = Lu::new(&l_cc).expect("L_{S̄,S̄} invertible for connected G");
    let solved = lu.solve_matrix(&l_cs); // L_cc^{-1} L_cs
    &l_ss - &l_sc.matmul(&solved)
}

/// The Schur complement as a weighted [`Graph`] on `|S|` local vertices
/// (Fact 2.3.6 of \[55\]: the Schur complement of a Laplacian is a
/// Laplacian). Near-zero weights (below `1e-12`) are dropped.
///
/// # Errors
///
/// Propagates [`GraphError`] (cannot occur for a valid Laplacian).
///
/// # Panics
///
/// As [`schur_laplacian`].
pub fn schur_graph(g: &Graph, s: &VertexSubset) -> Result<Graph, GraphError> {
    let l = schur_laplacian(g, s);
    let k = s.len();
    let mut edges = Vec::new();
    for i in 0..k {
        for j in i + 1..k {
            let w = -l[(i, j)];
            if w > 1e-12 {
                edges.push((i, j, w));
            }
        }
    }
    Graph::from_weighted_edges(k, &edges)
}

/// The Schur transition matrix of Definition 2 — `S[u,v]` is the
/// probability that `v` is the first vertex of `S∖{u}` a `G`-walk from
/// `u` visits — computed exactly from the Laplacian Schur complement.
///
/// Indices are local (`s.list()` order); the diagonal is zero.
///
/// # Panics
///
/// As [`schur_laplacian`]; also if `|S| < 2` (no transitions exist).
pub fn schur_transition_exact(g: &Graph, s: &VertexSubset) -> Matrix {
    assert!(s.len() >= 2, "need at least two vertices in S");
    let l = schur_laplacian(g, s);
    let k = s.len();
    Matrix::from_fn(k, k, |i, j| {
        if i == j {
            0.0
        } else {
            let deg = l[(i, i)];
            debug_assert!(deg > 0.0, "vertex {i} has zero Schur degree");
            (-l[(i, j)]).max(0.0) / deg
        }
    })
}

/// The one-step "entry" matrix `R` of Corollary 3:
/// `R[u,v] = w(u,v)/wdeg_S(u)` for `{u,v} ∈ E, v ∈ S`; `R[u,u] = 1` when
/// `u` has no neighbor in `S`.
pub fn entry_matrix(g: &Graph, s: &VertexSubset) -> Matrix {
    let n = g.n();
    let mut r = Matrix::zeros(n, n);
    for u in 0..n {
        let wdeg_s: f64 = g
            .neighbors(u)
            .iter()
            .filter(|&&(v, _)| s.contains(v))
            .map(|&(_, w)| w)
            .sum();
        if wdeg_s == 0.0 {
            r[(u, u)] = 1.0;
            continue;
        }
        for &(v, w) in g.neighbors(u) {
            if s.contains(v) {
                r[(u, v)] = w / wdeg_s;
            }
        }
    }
    r
}

/// Corollary 3: the Schur transition matrix from the shortcut matrix
/// `q` (as produced by [`crate::shortcut_exact`] or
/// [`crate::shortcut_by_squaring`]): rows of `Q·R` restricted to `S`,
/// diagonal dropped, renormalized by `M_u = 1/(1 − (QR)[u,u])`. `q` is
/// in either representation ([`PMatrix`]): a sparse `Q` multiplies the
/// entry matrix through the CSR kernel (bit-identical to the dense
/// product) without densifying `Q` first.
///
/// # Panics
///
/// Panics if `|S| < 2` or a row's self-return mass reaches 1 (impossible
/// when `S∖{u}` is reachable from `u`).
pub fn schur_transition_from_shortcut_p(g: &Graph, s: &VertexSubset, q: &PMatrix) -> Matrix {
    assert!(s.len() >= 2, "need at least two vertices in S");
    let r = entry_matrix(g, s);
    let qr = match q {
        PMatrix::Dense(q) => q.matmul(&r),
        PMatrix::Sparse(q) => q.matmul_dense_rhs(&r, 1),
    };
    schur_transition_from_qr(s, &qr)
}

/// Shared tail of the Corollary-3 construction: restrict `Q·R` to `S`,
/// drop the diagonal, renormalize rows by `M_u = 1/(1 − (QR)[u,u])`.
fn schur_transition_from_qr(s: &VertexSubset, qr: &Matrix) -> Matrix {
    let k = s.len();
    Matrix::from_fn(k, k, |i, j| {
        if i == j {
            return 0.0;
        }
        let (u, v) = (s.global(i), s.global(j));
        let self_mass = qr[(u, u)];
        assert!(
            self_mass < 1.0 - 1e-12,
            "vertex {u} cannot reach S∖{{u}}; M_u diverges"
        );
        qr[(u, v)] / (1.0 - self_mass)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut_exact;
    use cct_graph::generators;
    use cct_linalg::is_row_stochastic;
    use cct_walks::random_step;
    use rand::SeedableRng;

    /// Figure 2: star with centre C (id 2), leaves A=0, B=1, D=3,
    /// S = {A, B, D}.
    fn figure2() -> (Graph, VertexSubset) {
        let g = Graph::from_edges(4, &[(0, 2), (1, 2), (3, 2)]).unwrap();
        let s = VertexSubset::new(4, &[0, 1, 3]);
        (g, s)
    }

    #[test]
    fn figure2_schur_is_uniform() {
        // "The Schur complement graph contains uniform transitions
        //  between every vertex" — S[u,v] = 1/2 for u ≠ v.
        let (g, s) = figure2();
        let t = schur_transition_exact(&g, &s);
        for i in 0..3 {
            assert_eq!(t[(i, i)], 0.0);
            for j in 0..3 {
                if i != j {
                    assert!(
                        (t[(i, j)] - 0.5).abs() < 1e-12,
                        "S[{i},{j}] = {}",
                        t[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn schur_laplacian_is_laplacian() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let g = generators::erdos_renyi_connected(9, 0.4, &mut rng);
        let s = VertexSubset::new(9, &[0, 2, 4, 6, 8]);
        let l = schur_laplacian(&g, &s);
        for i in 0..5 {
            assert!(l.row(i).iter().sum::<f64>().abs() < 1e-9, "row {i} sum");
            for j in 0..5 {
                assert!((l[(i, j)] - l[(j, i)]).abs() < 1e-9, "symmetry {i},{j}");
                if i != j {
                    assert!(l[(i, j)] < 1e-9, "off-diagonal must be ≤ 0");
                }
            }
        }
    }

    #[test]
    fn schur_with_full_s_is_original() {
        let g = generators::petersen();
        let s = VertexSubset::full(10);
        let t = schur_transition_exact(&g, &s);
        assert!(t.max_abs_diff(&g.transition_matrix()) < 1e-12);
        let l = schur_laplacian(&g, &s);
        assert!(l.max_abs_diff(&g.laplacian()) < 1e-12);
    }

    #[test]
    fn transitions_are_stochastic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for _ in 0..5 {
            let g = generators::erdos_renyi_connected(10, 0.4, &mut rng);
            let s = VertexSubset::new(10, &[1, 3, 5, 7]);
            let t = schur_transition_exact(&g, &s);
            assert!(is_row_stochastic(&t, 1e-9));
        }
    }

    #[test]
    fn corollary3_matches_laplacian_route() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let g = generators::erdos_renyi_connected(10, 0.45, &mut rng);
            let s = VertexSubset::new(10, &[0, 3, 6, 9]);
            let exact = schur_transition_exact(&g, &s);
            let q = shortcut_exact(&g, &s);
            let via_q = schur_transition_from_shortcut_p(&g, &s, &PMatrix::Dense(q));
            assert!(
                exact.max_abs_diff(&via_q) < 1e-9,
                "diff {}",
                exact.max_abs_diff(&via_q)
            );
        }
    }

    #[test]
    fn corollary3_on_weighted_graph() {
        let g = Graph::from_weighted_edges(
            5,
            &[
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 3.0),
                (3, 4, 1.0),
                (4, 0, 2.0),
                (1, 3, 1.0),
            ],
        )
        .unwrap();
        let s = VertexSubset::new(5, &[0, 2, 4]);
        let exact = schur_transition_exact(&g, &s);
        let q = shortcut_exact(&g, &s);
        let via_q = schur_transition_from_shortcut_p(&g, &s, &PMatrix::Dense(q));
        assert!(exact.max_abs_diff(&via_q) < 1e-9);
    }

    #[test]
    fn definition2_matches_monte_carlo() {
        // S[u, v] = Pr[v is the first vertex of S∖{u} hit by a G-walk].
        let g = generators::lollipop(4, 3); // 7 vertices
        let s = VertexSubset::new(7, &[0, 4, 6]);
        let t = schur_transition_exact(&g, &s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let trials = 40_000;
        let u_local = 0usize; // global vertex 0
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            let mut cur = s.global(u_local);
            loop {
                cur = random_step(&g, cur, &mut rng);
                if s.contains(cur) && cur != s.global(u_local) {
                    counts[s.local_index(cur).unwrap()] += 1;
                    break;
                }
            }
        }
        for j in 0..3 {
            let emp = counts[j] as f64 / trials as f64;
            let p = t[(u_local, j)];
            let sigma = (p.clamp(1e-9, 1.0) * (1.0 - p).max(0.0) / trials as f64).sqrt();
            assert!(
                (emp - p).abs() < 5.0 * sigma + 0.004,
                "j = {j}: empirical {emp} vs exact {p}"
            );
        }
    }

    #[test]
    fn schur_graph_weights_positive() {
        let g = generators::grid(3, 3);
        let s = VertexSubset::new(9, &[0, 2, 6, 8]); // grid corners
        let h = schur_graph(&g, &s).unwrap();
        assert_eq!(h.n(), 4);
        assert!(h.is_connected());
        assert!(h.edges().iter().all(|&(_, _, w)| w > 0.0));
        // By symmetry of the grid, all corner-to-adjacent-corner weights
        // are equal and corner-to-opposite weights are equal.
        let w_adj = h.edge_weight(0, 1).unwrap();
        assert!((h.edge_weight(2, 3).unwrap() - w_adj).abs() < 1e-9);
    }

    #[test]
    fn entry_matrix_rows_stochastic() {
        let g = generators::petersen();
        let s = VertexSubset::new(10, &[0, 1, 2]);
        let r = entry_matrix(&g, &s);
        for u in 0..10 {
            let sum: f64 = (0..10).map(|v| r[(u, v)]).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {u}");
        }
    }
}
