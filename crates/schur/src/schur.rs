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
//!   matrix `Q` in either representation. Only the `S × S` block of
//!   `Q·R` is read, so only it is computed: `Q`'s `S` rows times `R`'s
//!   `S` columns, at most `|S|²·n` multiply-adds (CSR operands skip
//!   their zeros), not the `n³` of the full product, and bit-identical
//!   to it. [`schur_transition_with_weights`] also returns the Schur
//!   walk's stationary weights, the Schur degrees
//!   `deg(u)·(1 − (QR)[u,u])`, which the sampler's power tables use to
//!   square half of each dense level.

use crate::VertexSubset;
use cct_graph::{Graph, GraphError};
use cct_linalg::{CsrMatrix, Lu, Matrix, PMatrix};

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
    let lu = Lu::new(l_cc).expect("L_{S̄,S̄} invertible for connected G");
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

/// `wdeg_S(u)`: `u`'s weighted degree into `S`, summed in adjacency
/// order. The one expression behind every `wdeg_S` value the crate uses
/// — the entry matrix's normalizer and Algorithm 4's — so all of them
/// hold the same bits.
pub(crate) fn wdeg_s_of(g: &Graph, s: &VertexSubset, u: usize) -> f64 {
    g.neighbors(u)
        .iter()
        .filter(|&&(v, _)| s.contains(v))
        .map(|&(_, w)| w)
        .sum()
}

/// `wdeg_S(u)` for every vertex `u`, in one `O(m)` pass: the per-phase
/// array that [`crate::sample_first_visit_edge`] reads instead of
/// rescanning each neighbor's adjacency list for every new vertex.
pub fn subset_wdeg(g: &Graph, s: &VertexSubset) -> Vec<f64> {
    (0..g.n()).map(|u| wdeg_s_of(g, s, u)).collect()
}

/// The one-step "entry" matrix `R` of Corollary 3:
/// `R[u,v] = w(u,v)/wdeg_S(u)` for `{u,v} ∈ E, v ∈ S`; `R[u,u] = 1` when
/// `u` has no neighbor in `S`.
pub fn entry_matrix(g: &Graph, s: &VertexSubset) -> Matrix {
    let n = g.n();
    let mut r = Matrix::zeros(n, n);
    for u in 0..n {
        let wdeg_s = wdeg_s_of(g, s, u);
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

/// The `S` columns of the entry matrix (`n × |S|`, local column ids):
/// CSR built row by row from the sorted adjacency lists, then run
/// through the fill-in tracker. Every stored entry is the one
/// [`entry_matrix`] holds at `(u, s.global(j))`, bit for bit; the other
/// `n − |S|` columns are the ones Corollary 3 never reads.
fn entry_columns(g: &Graph, s: &VertexSubset) -> PMatrix {
    let mut r = CsrMatrix::builder(g.n(), s.len());
    for u in 0..g.n() {
        let d = wdeg_s_of(g, s, u);
        if d == 0.0 {
            if let Some(i) = s.local_index(u) {
                r.push(i, 1.0);
            }
        } else {
            for &(v, w) in g.neighbors(u) {
                if let Some(j) = s.local_index(v) {
                    r.push(j, w / d);
                }
            }
        }
        r.finish_row();
    }
    PMatrix::Sparse(r.build()).promoted()
}

/// The rows `rows` of `q`, in `q`'s representation.
fn select_rows(q: &PMatrix, rows: &[usize]) -> PMatrix {
    match q {
        PMatrix::Dense(q) => {
            let mut out = Matrix::zeros(rows.len(), q.cols());
            for (i, &u) in rows.iter().enumerate() {
                out.row_mut(i).copy_from_slice(q.row(u));
            }
            PMatrix::Dense(out)
        }
        PMatrix::Sparse(q) => {
            let mut out = CsrMatrix::builder(rows.len(), q.cols());
            for &u in rows {
                let (cols, vals) = q.row(u);
                for (&j, &x) in cols.iter().zip(vals) {
                    out.push(j as usize, x);
                }
                out.finish_row();
            }
            PMatrix::Sparse(out.build())
        }
    }
}

/// Corollary 3: the Schur transition matrix from the shortcut matrix
/// `q` (as produced by [`crate::shortcut_exact`] or
/// [`crate::shortcut_by_squaring`]): rows of `Q·R` restricted to `S`,
/// diagonal dropped, renormalized by `M_u = 1/(1 − (QR)[u,u])`.
///
/// Only the `S × S` block of `Q·R` is ever read, so only that block is
/// computed: `Q`'s `S` rows (`|S| × n`) times the entry matrix's `S`
/// columns (`n × |S|`, CSR until fill-in promotes it), one
/// [`PMatrix::matmul`] of `|S|²·n` multiply-adds at most instead of the
/// `n³` of the full product. `q` is in either representation. Each
/// block entry accumulates the same products in the same order as the
/// full product, so the result is bit-identical to it.
///
/// # Panics
///
/// Panics if `|S| < 2` or a row's self-return mass reaches 1 (impossible
/// when `S∖{u}` is reachable from `u`).
pub fn schur_transition_from_shortcut_p(g: &Graph, s: &VertexSubset, q: &PMatrix) -> Matrix {
    schur_transition_with_weights(g, s, q).0
}

/// [`schur_transition_from_shortcut_p`] together with the Schur walk's
/// stationary weights, the Schur degrees `w_u = deg(u)·(1 − (QR)[u,u])`
/// in `s.list()` order: `deg(u)` is `u`'s weighted degree in `G`, and
/// `1 − (QR)[u,u]` is the chance that the walk from `u` first re-enters
/// `S` away from `u`, so `w_u` is the diagonal of
/// [`schur_laplacian`] and `w_u·T[u,v] = deg(u)·(QR)[u,v]` is the Schur
/// graph's edge weight, symmetric up to rounding (detailed balance).
/// The transition is the same matrix, bit for bit.
///
/// # Panics
///
/// As [`schur_transition_from_shortcut_p`].
pub fn schur_transition_with_weights(
    g: &Graph,
    s: &VertexSubset,
    q: &PMatrix,
) -> (Matrix, Vec<f64>) {
    assert!(s.len() >= 2, "need at least two vertices in S");
    let r_s = entry_columns(g, s);
    let qr = select_rows(q, s.list()).matmul(&r_s, 1);
    let k = s.len();
    let mut t = Matrix::zeros(k, k);
    let mut weights = Vec::with_capacity(k);
    for i in 0..k {
        let (u, self_mass) = (s.global(i), qr.get(i, i));
        assert!(
            self_mass < 1.0 - 1e-12,
            "vertex {u} cannot reach S∖{{u}}; M_u diverges"
        );
        weights.push(g.degree(u) * (1.0 - self_mass));
        let row = t.row_mut(i);
        qr.for_each_in_row(i, |j, x| {
            if j != i {
                row[j] = x / (1.0 - self_mass);
            }
        });
    }
    (t, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shortcut_by_squaring, shortcut_exact};
    use cct_graph::generators;
    use cct_linalg::{is_row_stochastic, Repr};
    use cct_walks::random_step;
    use rand::SeedableRng;

    /// Corollary 3 the dense way: the full `n × n` entry matrix, the
    /// full product `Q·R`, then the `S × S` read with its normalization.
    fn schur_transition_dense_reference(g: &Graph, s: &VertexSubset, q: &PMatrix) -> Matrix {
        let r = entry_matrix(g, s);
        let qr = match q {
            PMatrix::Dense(q) => q.matmul(&r),
            PMatrix::Sparse(q) => q.matmul_dense_rhs(&r, 1),
        };
        let k = s.len();
        Matrix::from_fn(k, k, |i, j| {
            if i == j {
                return 0.0;
            }
            let (u, v) = (s.global(i), s.global(j));
            qr[(u, v)] / (1.0 - qr[(u, u)])
        })
    }

    /// The block route equals the dense reference exactly (not within a
    /// tolerance), for a dense `Q` from the exact solve and a CSR `Q`
    /// from one squaring of the absorbing chain (still sparse).
    fn assert_block_corollary3_is_exact(g: &Graph, s: &VertexSubset) {
        let exact = PMatrix::Dense(shortcut_exact(g, s));
        let (squared, _) = shortcut_by_squaring(g, s, 0.0, 1, Repr::Sparse);
        assert!(squared.is_sparse(), "n = {}: Q was promoted", g.n());
        for q in [exact, squared] {
            assert_eq!(
                schur_transition_from_shortcut_p(g, s, &q),
                schur_transition_dense_reference(g, s, &q),
                "n = {}, S = {:?}, {:?} Q",
                g.n(),
                s.list(),
                q.repr()
            );
        }
    }

    /// `g` reweighted from `1` to `2²⁰`, the largest ratio the sampler
    /// accepts.
    fn spread_weights(g: &Graph) -> Graph {
        const W: [f64; 5] = [1.0, 33.0, 1000.0, 33333.0, 1_048_576.0];
        let edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|&(u, v, _)| (u, v, W[(u + 2 * v) % 5]))
            .collect();
        let h = Graph::from_weighted_edges(g.n(), &edges).unwrap();
        let lightest = edges.iter().map(|e| e.2).fold(f64::INFINITY, f64::min);
        assert_eq!(h.max_weight() / lightest, f64::from(1 << 20));
        h
    }

    #[test]
    fn block_corollary3_equals_full_product() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let er = generators::erdos_renyi_connected(12, 0.35, &mut rng);
        for g in [
            generators::petersen(),
            generators::cycle(10),
            generators::lollipop(5, 4),
            spread_weights(&er),
            spread_weights(&generators::lollipop(5, 4)),
            er,
        ] {
            let n = g.n();
            let mixed: Vec<usize> = (0..n).filter(|v| v % 3 != 1).collect();
            let all_but_one: Vec<usize> = (1..n).collect();
            for list in [mixed, all_but_one, vec![0, n - 1]] {
                assert_block_corollary3_is_exact(&g, &VertexSubset::new(n, &list));
            }
        }
    }

    #[test]
    fn block_corollary3_handles_members_without_neighbors_in_s() {
        // Figure 2's leaves and cycle vertex 0 have no neighbor in S:
        // their entry-matrix row is the self-loop R[x, x] = 1.
        let (g, s) = figure2();
        assert!(s.list().iter().all(|&x| wdeg_s_of(&g, &s, x) == 0.0));
        assert_block_corollary3_is_exact(&g, &s);
        let g = generators::cycle(8);
        let s = VertexSubset::new(8, &[0, 2, 3, 5]);
        assert_eq!(wdeg_s_of(&g, &s, 0), 0.0);
        assert_block_corollary3_is_exact(&g, &s);
    }

    /// Whether `a` and `b` agree to `tol` relative to the larger.
    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs())
    }

    #[test]
    fn corollary3_weights_are_the_schur_degrees_and_balance_the_walk() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let er = generators::erdos_renyi_connected(12, 0.35, &mut rng);
        let regular = cct_graph::spec::parse_spec("regular:64:4", &mut rng).unwrap();
        for base in [
            generators::petersen(),
            generators::lollipop(5, 4),
            er,
            regular,
        ] {
            for (g, tol) in [(spread_weights(&base), 1e-10), (base, 1e-13)] {
                let n = g.n();
                // Vertex 0 and its non-neighbors: 0 has no neighbor in S.
                let lonely: Vec<usize> = (0..n).filter(|&v| v == 0 || !g.has_edge(0, v)).collect();
                let all_but_one: Vec<usize> = (1..n).collect();
                for list in [vec![0, n - 1], all_but_one, lonely] {
                    let s = VertexSubset::new(n, &list);
                    let label = format!("n = {n}, |S| = {}, tol {tol:e}", s.len());
                    let q = PMatrix::Dense(shortcut_exact(&g, &s));
                    let (t, w) = schur_transition_with_weights(&g, &s, &q);
                    let l = schur_laplacian(&g, &s);
                    for i in 0..s.len() {
                        // Both routes subtract from deg(u)-sized numbers
                        // (1 − (QR)[u,u] here, L_uu minus the eliminated
                        // part there), so they agree to ε·deg(u), not to
                        // ε·w_u: on the reweighted lollipop with S = {0, 8}
                        // the walk escapes with chance 9.2e-7 and the two
                        // differ by 6.2e-10 relative.
                        let deg = g.degree(s.global(i));
                        let diff = (w[i] - l[(i, i)]).abs();
                        assert!(diff <= 1e-13 * deg, "{label}: w[{i}] is {diff:e} off");
                        for j in 0..s.len() {
                            let (a, b) = (w[i] * t[(i, j)], w[j] * t[(j, i)]);
                            assert!(close(a, b, tol), "{label}: ({i}, {j}) {a:e} vs {b:e}");
                        }
                    }
                }
            }
        }
    }

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
