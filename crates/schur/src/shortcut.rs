//! The shortcut graph `ShortCut(G, S)` — Definition 3, Corollary 2.
//!
//! `Q[u, v]` is the probability that a walk started at `u` in `G` sits at
//! `v` immediately before its first arrival (at time > 0) in `S`. The
//! sampler uses `Q` to recover *first-visit edges in `G`* from a walk
//! taken on the Schur complement (Algorithm 4).
//!
//! Two constructions are provided:
//! * [`shortcut_exact`] — the fundamental-matrix solve
//!   `Q = (I − T)^{-1} · A`: one LU factorization of `I − T` (`⅔n³`
//!   flops), then one inverse column (about `4n²/3` flops) per column
//!   of `Q` that can be non-zero — the vertices with a neighbor in `S` —
//!   instead of the whole inverse;
//! * [`shortcut_by_squaring`] — the paper's distributed route
//!   (Corollary 2): iterated squaring of the `2n × 2n` absorbing chain
//!   `R`, which converges to `R^∞` with `Q[u,v] = R^∞[u', v'']`. It
//!   squares the chain's two live `n × n` blocks as [`PMatrix`] values in
//!   either representation, and returns the number of multiplications so
//!   the caller (`cct-core`) can charge matrix-multiplication rounds.
//!   [`shortcut_by_squaring_dense`] squares the full `2n × 2n` chain;
//!   it is the reference the block route is tested against.
//!
//! Algorithm 4 ([`sample_first_visit_edge`]) reads `O(deg(v))` entries
//! of `Q` and of a per-phase `wdeg_S` array ([`crate::subset_wdeg`]) per
//! newly visited vertex `v`.

use crate::schur::wdeg_s_of;
use crate::VertexSubset;
use cct_graph::Graph;
use cct_linalg::{CsrMatrix, Lu, Matrix, PMatrix, Repr};

/// Exact shortcut transition matrix via the fundamental matrix:
/// `Q = (I − T)^{-1} A`, where `T[u,v] = P[u,v]·[v ∉ S]` and
/// `A = diag(Σ_{v∈S} P[u,v])`.
///
/// `I − T` and `A` are built from `g`'s adjacency, one `w / deg(u)` per
/// edge — the expression [`Graph::transition_pmatrix`] stores, so the
/// same bits — without building `P`, and [`Lu::new`] factors `I − T` in
/// place. Column `v` of `Q` is column `v` of `(I − T)^{-1}` times
/// `A[v]`, so it is zero unless `v` has a neighbor in `S`: one LU
/// factorization, then [`Lu::inverse_columns`] for just those columns
/// (about `4n²/3` flops each) instead of the whole inverse. Each solved
/// column holds the bits the full inverse holds (the solves treat
/// columns independently); the skipped columns are `+0.0`, where
/// `inverse · 0` could have been `-0.0`.
///
/// `Q` is non-negative: the solve's cancellation can leave residues
/// below zero (down to about `-1e-19` on graphs reweighted toward the
/// `2²⁰` ratio), and each is stored as `+0.0`; `-0.0` stays. So `Q·R`,
/// with the non-negative entry matrix `R`, and Corollary 3's transition
/// are non-negative too, and Algorithm 4 never draws from a negative
/// weight.
///
/// # Panics
///
/// Panics if `s` is empty, its universe differs from `g.n()`, or the
/// system is singular (impossible for non-empty `S` in a connected `G`).
pub fn shortcut_exact(g: &Graph, s: &VertexSubset) -> Matrix {
    let n = g.n();
    assert_eq!(s.universe(), n, "subset universe must match graph");
    assert!(!s.is_empty(), "S must be non-empty");
    // T: transitions that stay outside S; a[u]: one-step absorption mass.
    let mut i_minus_t = Matrix::identity(n);
    let mut a = vec![0.0f64; n];
    for (u, a_u) in a.iter_mut().enumerate() {
        let row = i_minus_t.row_mut(u);
        let d = g.degree(u);
        if d == 0.0 {
            // An isolated vertex keeps `P`'s self-loop.
            if s.contains(u) {
                *a_u = 1.0;
            } else {
                row[u] = 0.0;
            }
            continue;
        }
        for &(v, w) in g.neighbors(u) {
            let p_uv = w / d;
            if s.contains(v) {
                *a_u += p_uv;
            } else {
                row[v] -= p_uv;
            }
        }
    }
    let lu = Lu::new(i_minus_t).expect("I - T is invertible when S is reachable");
    let absorbing: Vec<usize> = (0..n).filter(|&v| a[v] > 0.0).collect();
    let inv_cols = lu.inverse_columns(&absorbing);
    let mut q = Matrix::zeros(n, n);
    for u in 0..n {
        let (q_row, inv_row) = (q.row_mut(u), inv_cols.row(u));
        for (&v, &x) in absorbing.iter().zip(inv_row) {
            let q_uv = x * a[v];
            q_row[v] = if q_uv < 0.0 { 0.0 } else { q_uv };
        }
    }
    q
}

/// The auxiliary absorbing chain of Corollary 2 on `L ∪ R` (two copies of
/// `V`): `R[u', v'] = P[u,v]` for `v ∉ S`, `R[u', u''] = Σ_{v∈S} P[u,v]`,
/// `R[u'', u''] = 1`. Indices: `u' = u`, `u'' = n + u`.
pub fn absorbing_chain(g: &Graph, s: &VertexSubset) -> Matrix {
    let n = g.n();
    assert_eq!(s.universe(), n, "subset universe must match graph");
    let p = g.transition_matrix();
    let mut r = Matrix::zeros(2 * n, 2 * n);
    for u in 0..n {
        r[(n + u, n + u)] = 1.0;
        for v in 0..n {
            if p[(u, v)] == 0.0 {
                continue;
            }
            if s.contains(v) {
                r[(u, n + u)] += p[(u, v)];
            } else {
                r[(u, v)] += p[(u, v)];
            }
        }
    }
    r
}

/// The two live blocks of the Corollary-2 absorbing chain, in `repr`:
/// the transient block `T = R[L, L]` (walk stays outside `S`) and the
/// absorption block `A = R[L, R]` (mass that has arrived in `S`, indexed
/// by the pre-entry vertex). The bottom half `[0, I]` is constant under
/// squaring and never materialized.
///
/// Both blocks are built row by row from the CSR transition matrix —
/// `T` gets one entry per edge leaving `S`, `A` is diagonal — without
/// `n × n` scratch; `Repr::Dense` densifies the result. Every entry is
/// the one [`absorbing_chain`] holds, bit for bit: the same `w/deg`
/// probabilities, summed into `A` in the same increasing-`v` order.
///
/// # Panics
///
/// Panics if the subset universe mismatches the graph.
pub fn absorbing_chain_blocks(g: &Graph, s: &VertexSubset, repr: Repr) -> (PMatrix, PMatrix) {
    let n = g.n();
    assert_eq!(s.universe(), n, "subset universe must match graph");
    let p = g.transition_pmatrix(Repr::Sparse);
    let mut t = CsrMatrix::builder(n, n);
    let mut a = CsrMatrix::builder(n, n);
    for u in 0..n {
        let mut absorb = 0.0f64;
        p.for_each_in_row(u, |v, p_uv| {
            if s.contains(v) {
                absorb += p_uv;
            } else {
                t.push(v, p_uv);
            }
        });
        t.finish_row();
        a.push(u, absorb);
        a.finish_row();
    }
    let (t, a) = (t.build(), a.build());
    match repr {
        Repr::Dense => (PMatrix::Dense(t.to_dense()), PMatrix::Dense(a.to_dense())),
        Repr::Sparse => (PMatrix::Sparse(t), PMatrix::Sparse(a)),
    }
}

/// Corollary 2: computes `Q` by iterated squaring of the absorbing chain
/// until the transient mass drops below `tol` (or `max_squarings` is
/// reached). Returns `(Q, squarings_used)` — the caller charges
/// `squarings_used` matrix multiplications of a `2n × 2n` matrix (the
/// *analytic* figure of the distributed protocol, 4× an `n × n` multiply;
/// see `cct-core`'s ledger charges).
///
/// The chain `R = [[T, A], [0, I]]` is block triangular with a constant
/// bottom half, so `R² = [[T², TA + A], [0, I]]`: each squaring is two
/// `n × n` [`PMatrix`] products — `(T, A) ← (T², TA + A)` — instead of
/// the eight-`n × n`-multiply-equivalent dense `2n × 2n` square. The
/// blocks start in `repr`; a sparse start squares CSR blocks, promoting
/// to dense as fill-in crosses the [`PMatrix`] tracker's break-even, and
/// `Q` comes back in whatever representation it ended in.
///
/// The result is **bit-identical** to [`shortcut_by_squaring_dense`]
/// (kept as the reference) in every representation: every entry
/// accumulates the same products in the same order — the dense kernel
/// accumulates the `T·A` inner products first (inner index `< n`) and the
/// lone `A·I` term last, matched here by the product then
/// [`PMatrix::add_in_place`] — and the convergence check reads the same
/// row sums.
///
/// The result under-approximates the true `Q` by at most the residual
/// transient mass (a subtractive error, as §2.4 requires).
///
/// # Panics
///
/// Panics if `s` is empty or the universe mismatches.
pub fn shortcut_by_squaring(
    g: &Graph,
    s: &VertexSubset,
    tol: f64,
    max_squarings: usize,
    repr: Repr,
) -> (PMatrix, usize) {
    let n = g.n();
    assert!(!s.is_empty(), "S must be non-empty");
    let (mut t, mut a) = absorbing_chain_blocks(g, s, repr);
    let mut used = 0;
    while used < max_squarings {
        // Largest remaining transient mass: max over rows of `T`'s total.
        let worst: f64 = (0..n).map(|u| t.row_sum(u)).fold(0.0, f64::max);
        if worst <= tol {
            break;
        }
        let t_next = t.square(1);
        let mut a_next = t.matmul(&a, 1);
        a_next.add_in_place(&a);
        t = t_next;
        a = a_next;
        used += 1;
    }
    (a, used)
}

/// The pre-block-decomposition reference: dense iterated squaring of the
/// full `2n × 2n` absorbing chain. Kept for the equivalence test suites
/// and the `e18` benchmark; [`shortcut_by_squaring`] returns bit-identical
/// results at a quarter of the flops.
pub fn shortcut_by_squaring_dense(
    g: &Graph,
    s: &VertexSubset,
    tol: f64,
    max_squarings: usize,
) -> (Matrix, usize) {
    let n = g.n();
    let mut r = absorbing_chain(g, s);
    let mut scratch = Matrix::zeros(2 * n, 2 * n);
    let mut used = 0;
    while used < max_squarings {
        // Largest remaining transient mass: max over L-rows of the total
        // probability still on L-columns.
        let worst: f64 = (0..n)
            .map(|u| r.row(u)[..n].iter().sum::<f64>())
            .fold(0.0, f64::max);
        if worst <= tol {
            break;
        }
        r.square_into(&mut scratch);
        std::mem::swap(&mut r, &mut scratch);
        used += 1;
    }
    let q = Matrix::from_fn(n, n, |u, v| r[(u, n + v)]);
    (q, used)
}

/// Samples the first-visit edge `(u, v)` for a vertex `v ∈ S`, given that
/// the walk's previous Schur-visit was `prev ∈ S` — Algorithm 4.
///
/// By Bayes' rule the predecessor `u` is drawn over `N_G(v)` with weight
/// `Q[prev, u] · w(u,v) / wdeg_S(u)`, where `wdeg_S(u)` is `u`'s weighted
/// degree into `S` (for unweighted graphs, `1/deg_S(u)` as in the paper),
/// read from `wdeg_s` — the phase's [`crate::subset_wdeg`] array, built
/// once per phase in `O(m)`, so each draw costs `O(deg(v))`.
///
/// The shortcut matrix comes as a lookup `q(u0, u) = Q[u0, u]` rather
/// than a materialized [`Matrix`]: phase 1 (where `S = V` and `Q` is the
/// identity — a walk's pre-`S` vertex *is* its previous vertex) passes
/// `|u0, u| f64::from(u0 == u)` instead of allocating a dense `n × n`
/// identity it reads `O(deg)` entries of.
///
/// Returns `None` only if the distribution degenerates (inconsistent
/// inputs).
///
/// # Panics
///
/// Panics if `v` has no neighbors or `wdeg_s` is shorter than `g.n()`.
pub fn sample_first_visit_edge<R: rand::Rng + ?Sized>(
    g: &Graph,
    wdeg_s: &[f64],
    q: impl Fn(usize, usize) -> f64,
    prev: usize,
    v: usize,
    rng: &mut R,
) -> Option<(usize, usize)> {
    first_visit_edge(g, |u| wdeg_s[u], q, prev, v, rng)
}

/// [`sample_first_visit_edge`] for a single draw: sums `wdeg_S(u)` over
/// `u`'s adjacency list for each neighbor `u` of `v` (`O(deg²)`) instead
/// of reading a per-phase array. Same weights, same stream, same edge.
///
/// # Panics
///
/// Panics if `v` has no neighbors.
pub fn sample_first_visit_edge_with<R: rand::Rng + ?Sized>(
    g: &Graph,
    s: &VertexSubset,
    q: impl Fn(usize, usize) -> f64,
    prev: usize,
    v: usize,
    rng: &mut R,
) -> Option<(usize, usize)> {
    first_visit_edge(g, |u| wdeg_s_of(g, s, u), q, prev, v, rng)
}

/// Algorithm 4's weight-and-sample body, whatever supplies `wdeg_S`.
fn first_visit_edge<R: rand::Rng + ?Sized>(
    g: &Graph,
    wdeg_s: impl Fn(usize) -> f64,
    q: impl Fn(usize, usize) -> f64,
    prev: usize,
    v: usize,
    rng: &mut R,
) -> Option<(usize, usize)> {
    let weights = first_visit_weights(g, wdeg_s, q, prev, v);
    cct_linalg::sample_index(rng, &weights).map(|idx| (g.neighbors(v)[idx].0, v))
}

/// The Bayes weight `Q[prev, u] · w(u,v) / wdeg_S(u)` of each neighbor
/// `u` of `v`, in adjacency order.
fn first_visit_weights(
    g: &Graph,
    wdeg_s: impl Fn(usize) -> f64,
    q: impl Fn(usize, usize) -> f64,
    prev: usize,
    v: usize,
) -> Vec<f64> {
    let nbrs = g.neighbors(v);
    assert!(!nbrs.is_empty(), "vertex {v} has no neighbors");
    nbrs.iter()
        .map(|&(u, w_uv)| {
            let d = wdeg_s(u);
            if d > 0.0 {
                q(prev, u) * w_uv / d
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subset_wdeg;
    use cct_graph::generators;
    use cct_walks::random_step;
    use rand::{Rng, SeedableRng};

    /// The shortcut matrix through the full inverse: dense `P`, a solve
    /// on every identity column, then `Q[u,v] = inv[u,v]·a[v]`.
    fn shortcut_full_inverse(g: &Graph, s: &VertexSubset) -> Matrix {
        let n = g.n();
        let p = g.transition_matrix();
        let mut i_minus_t = Matrix::identity(n);
        let mut a = vec![0.0f64; n];
        for u in 0..n {
            for v in 0..n {
                if p[(u, v)] == 0.0 {
                    continue;
                }
                if s.contains(v) {
                    a[u] += p[(u, v)];
                } else {
                    i_minus_t[(u, v)] -= p[(u, v)];
                }
            }
        }
        let inv = Lu::new(i_minus_t)
            .unwrap()
            .solve_matrix(&Matrix::identity(n));
        Matrix::from_fn(n, n, |u, v| inv[(u, v)] * a[v])
    }

    #[test]
    fn absorbing_column_solves_equal_the_full_inverse() {
        // `==` on every entry: only the sign of an exact zero may differ.
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let weighted = generators::with_deterministic_integer_weights(
            &generators::erdos_renyi_connected(12, 0.3, &mut rng),
            1 << 20,
            5,
        )
        .unwrap();
        for g in [
            generators::petersen(),
            generators::cycle(9),
            generators::lollipop(5, 4),
            generators::complete(7),
            weighted,
        ] {
            let n = g.n();
            let spread: Vec<usize> = (0..n).filter(|v| v % 4 == 0).collect();
            let all_but_one: Vec<usize> = (1..n).collect();
            for list in [spread, all_but_one, vec![0, n - 1], (0..n).collect()] {
                let s = VertexSubset::new(n, &list);
                assert_eq!(
                    shortcut_exact(&g, &s),
                    shortcut_full_inverse(&g, &s),
                    "n = {n}, S = {list:?}"
                );
            }
        }
    }

    /// Algorithm 4's weights as they read before the per-phase `wdeg_S`
    /// array: each neighbor's degree into `S` summed afresh per draw.
    fn rescan_weights(
        g: &Graph,
        s: &VertexSubset,
        q: impl Fn(usize, usize) -> f64,
        prev: usize,
        v: usize,
    ) -> Vec<f64> {
        g.neighbors(v)
            .iter()
            .map(|&(u, w_uv)| {
                let wdeg_s: f64 = g
                    .neighbors(u)
                    .iter()
                    .filter(|&&(x, _)| s.contains(x))
                    .map(|&(_, w)| w)
                    .sum();
                if wdeg_s > 0.0 {
                    q(prev, u) * w_uv / wdeg_s
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn per_phase_wdeg_matches_the_rescan() {
        // Same weights bit for bit, same edge and same rng state after
        // every (prev, v) draw, with S = V (Q the identity) and with a
        // proper subset (Q solved).
        let k6 =
            generators::with_deterministic_integer_weights(&generators::complete(6), 8, 2).unwrap();
        for g in [generators::petersen(), k6, generators::lollipop(5, 4)] {
            let n = g.n();
            let proper: Vec<usize> = (0..n).filter(|v| v % 3 != 2).collect();
            for list in [(0..n).collect::<Vec<_>>(), proper] {
                let s = VertexSubset::new(n, &list);
                let q = shortcut_exact(&g, &s);
                let wdeg = subset_wdeg(&g, &s);
                let mut rngs = [21u64; 3].map(rand::rngs::StdRng::seed_from_u64);
                let mut drawn = 0;
                for &prev in s.list() {
                    for &v in s.list().iter().filter(|&&v| v != prev) {
                        let qf = |a: usize, b: usize| q[(a, b)];
                        let case = format!("n = {n}, |S| = {}, ({prev}, {v})", s.len());
                        let bits =
                            |w: Vec<f64>| w.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                        let weights = rescan_weights(&g, &s, qf, prev, v);
                        assert_eq!(
                            bits(first_visit_weights(&g, |u| wdeg[u], qf, prev, v)),
                            bits(weights.clone()),
                            "{case}"
                        );
                        let [r0, r1, r2] = &mut rngs;
                        // `None` where no walk from prev enters S at v.
                        let want = cct_linalg::sample_index(r0, &weights)
                            .map(|idx| (g.neighbors(v)[idx].0, v));
                        drawn += usize::from(want.is_some());
                        assert_eq!(
                            sample_first_visit_edge(&g, &wdeg, qf, prev, v, r1),
                            want,
                            "{case}"
                        );
                        assert_eq!(
                            sample_first_visit_edge_with(&g, &s, qf, prev, v, r2),
                            want,
                            "{case}"
                        );
                        let next = r0.gen::<u64>();
                        assert_eq!((r1.gen::<u64>(), r2.gen::<u64>()), (next, next), "{case}");
                    }
                }
                assert!(drawn > 0, "n = {n}, |S| = {}: nothing drawn", s.len());
            }
        }
    }

    /// The paper's Figure 2 graph: a star with centre C and leaves
    /// A, B, D. Vertex ids: A=0, B=1, C=2, D=3; S = {A, B, D}.
    fn figure2() -> (Graph, VertexSubset) {
        let g = Graph::from_edges(4, &[(0, 2), (1, 2), (3, 2)]).unwrap();
        let s = VertexSubset::new(4, &[0, 1, 3]);
        (g, s)
    }

    #[test]
    fn figure2_shortcut_always_points_to_c() {
        let (g, s) = figure2();
        let q = shortcut_exact(&g, &s);
        // "In the shortcut graph every vertex always transitions to C."
        for u in 0..4 {
            assert!((q[(u, 2)] - 1.0).abs() < 1e-12, "Q[{u}, C] = {}", q[(u, 2)]);
            for v in [0usize, 1, 3] {
                assert!(q[(u, v)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn squaring_matches_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for g in [
            generators::complete(6),
            generators::lollipop(4, 3),
            generators::grid(2, 4),
            generators::erdos_renyi_connected(9, 0.45, &mut rng),
        ] {
            let s = VertexSubset::new(g.n(), &[0, 1, 2]);
            let exact = shortcut_exact(&g, &s);
            let (approx, used) = shortcut_by_squaring(&g, &s, 1e-12, 64, Repr::Dense);
            let approx = approx.into_dense();
            assert!(used > 0);
            assert!(
                exact.max_abs_diff(&approx) < 1e-9,
                "n = {}: diff {}",
                g.n(),
                exact.max_abs_diff(&approx)
            );
            // Subtractive: the squared chain never overshoots.
            for u in 0..g.n() {
                for v in 0..g.n() {
                    assert!(approx[(u, v)] <= exact[(u, v)] + 1e-12);
                }
            }
        }
    }

    /// The block route must reproduce the full `2n × 2n` squaring
    /// exactly — same Q bits, same squaring count — whether it starts
    /// sparse (promoting as fill-in grows) or dense.
    fn assert_block_squaring_matches_full_chain(g: &Graph) {
        let s = VertexSubset::new(g.n(), &[0, 1, 2]);
        for tol in [1e-3, 1e-12] {
            let (dense, used_d) = shortcut_by_squaring_dense(g, &s, tol, 64);
            for repr in [Repr::Dense, Repr::Sparse] {
                let (block, used_b) = shortcut_by_squaring(g, &s, tol, 64, repr);
                let case = format!("n = {}, tol = {tol}, {repr:?}", g.n());
                assert_eq!(used_b, used_d, "{case}");
                // Same products, same accumulation order: exactly equal,
                // not merely close.
                assert_eq!(block.to_dense(), dense, "{case}");
            }
        }
    }

    #[test]
    fn block_squaring_is_bit_identical_to_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for g in [
            generators::complete(6),
            generators::lollipop(4, 3),
            generators::grid(2, 4),
            generators::petersen(),
            generators::erdos_renyi_connected(12, 0.4, &mut rng),
        ] {
            assert_block_squaring_matches_full_chain(&g);
        }
    }

    #[test]
    fn pmatrix_squaring_is_bit_identical_in_both_representations() {
        // Sparser graphs than above: a sparse start squares CSR blocks for
        // several rounds before fill-in promotes them.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for g in [
            generators::cycle(24),
            generators::grid(3, 5),
            generators::petersen(),
            generators::erdos_renyi_connected(14, 0.3, &mut rng),
        ] {
            assert_block_squaring_matches_full_chain(&g);
        }
    }

    /// Both block representations must hold, bit for bit, the live
    /// blocks of the full `2n × 2n` chain: `T = R[L, L]`, `A = R[L, R]`,
    /// with the constant bottom half `[0, I]`.
    fn assert_blocks_match_full_chain(g: &Graph, s: &VertexSubset) {
        let full = absorbing_chain(g, s);
        let n = g.n();
        for repr in [Repr::Dense, Repr::Sparse] {
            let (t, a) = absorbing_chain_blocks(g, s, repr);
            assert_eq!((t.repr(), a.repr()), (repr, repr));
            for u in 0..n {
                for v in 0..n {
                    let case = format!("n = {n}, {repr:?}, ({u}, {v})");
                    assert_eq!(t.get(u, v), full[(u, v)], "{case}");
                    assert_eq!(a.get(u, v), full[(u, n + v)], "{case}");
                    assert_eq!(full[(n + u, v)], 0.0);
                    assert_eq!(full[(n + u, n + v)], f64::from(u == v));
                }
            }
        }
    }

    #[test]
    fn sparse_absorbing_blocks_match_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        for g in [
            generators::lollipop(4, 3),
            generators::erdos_renyi_connected(11, 0.4, &mut rng),
        ] {
            let s = VertexSubset::new(g.n(), &[0, 2, 4]);
            assert_blocks_match_full_chain(&g, &s);
        }
    }

    #[test]
    fn absorbing_chain_blocks_match_full_chain() {
        let (g, s) = figure2();
        assert_blocks_match_full_chain(&g, &s);
    }

    #[test]
    fn first_visit_edge_with_identity_matches_matrix() {
        // With S = V, Q = I: the closure form must consume the same rng
        // stream and return the same edges as the materialized identity.
        let g = generators::petersen();
        let s = VertexSubset::full(10);
        let id = Matrix::identity(10);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(21);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(21);
        for prev in 0..10 {
            for &(v, _) in g.neighbors(prev) {
                let a = sample_first_visit_edge_with(&g, &s, |u0, u| id[(u0, u)], prev, v, &mut r1);
                let b = sample_first_visit_edge_with(
                    &g,
                    &s,
                    |u0, u| f64::from(u0 == u),
                    prev,
                    v,
                    &mut r2,
                );
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn q_rows_are_distributions() {
        let g = generators::petersen();
        let s = VertexSubset::new(10, &[0, 4, 7]);
        let q = shortcut_exact(&g, &s);
        for u in 0..10 {
            let sum: f64 = (0..10).map(|v| q[(u, v)]).sum();
            assert!((sum - 1.0).abs() < 1e-10, "row {u} sums to {sum}");
            assert!((0..10).all(|v| q[(u, v)] >= -1e-12));
        }
    }

    #[test]
    fn q_and_the_schur_transition_stay_non_negative_at_the_weight_bound() {
        // grid:8x8 reweighted from 1 to 2²⁰, S = the even vertices: the
        // solve leaves hundreds of residues down to about -1e-19 in Q,
        // and Corollary 3's transition inherits them through Q·R.
        const W: [f64; 5] = [1.0, 33.0, 1000.0, 33333.0, 1_048_576.0];
        let edges: Vec<(usize, usize, f64)> = generators::grid(8, 8)
            .edges()
            .iter()
            .map(|&(u, v, _)| (u, v, W[(u + 2 * v) % 5]))
            .collect();
        let g = Graph::from_weighted_edges(64, &edges).unwrap();
        let s = VertexSubset::new(64, &(0..64).step_by(2).collect::<Vec<_>>());
        let q = shortcut_exact(&g, &s);
        let t = crate::schur_transition_from_shortcut_p(&g, &s, &PMatrix::Dense(q.clone()));
        let negatives = |m: &Matrix| m.as_slice().iter().filter(|&&x| x < 0.0).count();
        assert_eq!(negatives(&q), 0, "Q");
        assert_eq!(negatives(&t), 0, "T");
    }

    #[test]
    fn q_matches_monte_carlo() {
        // Empirically estimate Pr[x_{j-1} = v] and compare with Q.
        let g = generators::lollipop(4, 2); // vertices 0..5
        let s = VertexSubset::new(6, &[0, 5]);
        let q = shortcut_exact(&g, &s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let start = 2usize;
        let trials = 60_000;
        let mut counts = [0usize; 6];
        for _ in 0..trials {
            let mut prev;
            let mut cur = start;
            loop {
                let next = random_step(&g, cur, &mut rng);
                prev = cur;
                cur = next;
                if s.contains(cur) {
                    break;
                }
            }
            counts[prev] += 1;
        }
        for v in 0..6 {
            let emp = counts[v] as f64 / trials as f64;
            let sigma = (q[(start, v)].max(1e-9) * (1.0 - q[(start, v)]) / trials as f64).sqrt();
            assert!(
                (emp - q[(start, v)]).abs() < 5.0 * sigma + 0.005,
                "v = {v}: empirical {emp} vs Q {}",
                q[(start, v)]
            );
        }
    }

    #[test]
    fn s_equals_v_makes_q_identity_like() {
        // With S = V, the first S-visit is the first step, so Q[u, v] is 1
        // iff v = u (the walk is at u just before its first step).
        let g = generators::complete(5);
        let s = VertexSubset::full(5);
        let q = shortcut_exact(&g, &s);
        assert!(q.max_abs_diff(&Matrix::identity(5)) < 1e-12);
        // A lone vertex steps along `P`'s self-loop.
        let one = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(
            shortcut_exact(&one, &VertexSubset::full(1)),
            Matrix::identity(1)
        );
    }

    #[test]
    fn first_visit_edge_sampling_figure2() {
        // On the star, every first-visit edge must be (C, v).
        let (g, s) = figure2();
        let q = shortcut_exact(&g, &s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let e = sample_first_visit_edge_with(&g, &s, |a, b| q[(a, b)], 0, 1, &mut rng).unwrap();
            assert_eq!(e, (2, 1));
        }
    }

    #[test]
    fn first_visit_edge_weights_match_bayes_on_clique() {
        // On K4 with S = V, prev = v's predecessor directly: Q = I, so the
        // only positive-weight neighbor of v is prev itself.
        let g = generators::complete(4);
        let s = VertexSubset::full(4);
        let q = shortcut_exact(&g, &s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let e = sample_first_visit_edge_with(&g, &s, |a, b| q[(a, b)], 3, 1, &mut rng).unwrap();
            assert_eq!(e, (3, 1));
        }
    }
}
