//! Helpers for row-stochastic (transition) matrices and categorical
//! sampling.
//!
//! The paper's notation: `P` is the random-walk transition matrix of the
//! input graph (§1.1); all midpoint distributions are built from entries of
//! powers `P^{2^k}` (Formula 1).

use crate::Matrix;
use rand::Rng;

/// Returns `true` if every entry is non-negative and every row sums to 1
/// within `tol`.
///
/// # Examples
///
/// ```
/// use cct_linalg::{is_row_stochastic, Matrix};
///
/// let p = Matrix::from_rows(&[vec![0.5, 0.5], vec![1.0, 0.0]]);
/// assert!(is_row_stochastic(&p, 1e-12));
/// ```
pub fn is_row_stochastic(m: &Matrix, tol: f64) -> bool {
    (0..m.rows()).all(|i| {
        let row = m.row(i);
        row.iter().all(|&x| x >= -tol) && (row.iter().sum::<f64>() - 1.0).abs() <= tol
    })
}

/// Returns `true` if every entry is non-negative and every row sums to at
/// most `1 + tol`.
///
/// Rounded transition matrices (Lemma 7) are *sub*-stochastic: truncation
/// only removes mass.
pub fn is_row_substochastic(m: &Matrix, tol: f64) -> bool {
    (0..m.rows()).all(|i| {
        let row = m.row(i);
        row.iter().all(|&x| x >= -tol) && row.iter().sum::<f64>() <= 1.0 + tol
    })
}

/// Normalizes each row to sum to 1 in place.
///
/// Rows summing to zero are left untouched.
pub fn normalize_rows(m: &mut Matrix) {
    for i in 0..m.rows() {
        let row = m.row_mut(i);
        let s: f64 = row.iter().sum();
        if s > 0.0 {
            for x in row {
                *x /= s;
            }
        }
    }
}

/// Samples an index from an unnormalized non-negative weight slice.
///
/// This is the workhorse for every categorical draw in the repository:
/// endpoints from `P^ℓ[s,·]`, midpoints from
/// `(P^{δ/2}[p,j]·P^{δ/2}[j,q])_j`, and first-visit edges from
/// `(Q[u₀,u]/deg_S(u))_u`.
///
/// Returns `None` if all weights are zero (or the slice is empty).
///
/// # Examples
///
/// ```
/// use cct_linalg::sample_index;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let idx = sample_index(&mut rng, &[0.0, 3.0, 0.0]).unwrap();
/// assert_eq!(idx, 1);
/// ```
pub fn sample_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    if total.is_nan() || total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        debug_assert!(w >= 0.0, "negative weight {w} at {i}");
        if w > 0.0 {
            last_positive = Some(i);
            if target < w {
                return Some(i);
            }
            target -= w;
        }
    }
    // Floating-point slack: fall back to the last positive weight.
    last_positive
}

/// Computes the total-variation distance `½ Σ |p_i − q_i|` between two
/// distributions given as (possibly unnormalized) weight slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or either sums to zero.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "length mismatch");
    let sp: f64 = p.iter().sum();
    let sq: f64 = q.iter().sum();
    assert!(
        sp > 0.0 && sq > 0.0,
        "distributions must have positive mass"
    );
    0.5 * p
        .iter()
        .zip(q)
        .map(|(a, b)| (a / sp - b / sq).abs())
        .sum::<f64>()
}

/// Computes the powers `M^{2^0}, M^{2^1}, …, M^{2^K}` by iterated squaring.
///
/// `levels = K + 1` matrices are returned; index `k` holds `M^{2^k}`.
/// This is Step 2 of Algorithm 1 ("Initialization Step"), computed exactly;
/// the rounded variant lives in [`crate::rounding::powers_rounded`].
///
/// # Panics
///
/// Panics if `m` is not square or `levels == 0`.
pub fn powers_of_two(m: &Matrix, levels: usize, threads: usize) -> Vec<Matrix> {
    assert!(m.is_square(), "powers require a square matrix");
    assert!(levels > 0, "need at least one level");
    let n = m.rows();
    let mut out = Vec::with_capacity(levels);
    out.push(m.clone());
    for _ in 1..levels {
        // Each table entry is allocated exactly once (it is retained), and
        // the product is written straight into it — no intermediate.
        let mut next = Matrix::zeros(n, n);
        let last = out.last().expect("non-empty");
        last.matmul_parallel_into(last, &mut next, threads);
        out.push(next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PMatrix;
    use rand::SeedableRng;

    fn lazy_walk_2() -> Matrix {
        Matrix::from_rows(&[vec![0.25, 0.75], vec![0.5, 0.5]])
    }

    #[test]
    fn stochastic_checks() {
        assert!(is_row_stochastic(&lazy_walk_2(), 1e-12));
        assert!(is_row_substochastic(&lazy_walk_2(), 1e-12));
        let bad = Matrix::from_rows(&[vec![0.5, 0.6]]);
        assert!(!is_row_stochastic(&bad, 1e-12));
        assert!(!is_row_substochastic(&bad, 1e-12));
        let sub = Matrix::from_rows(&[vec![0.3, 0.3]]);
        assert!(!is_row_stochastic(&sub, 1e-12));
        assert!(is_row_substochastic(&sub, 1e-12));
    }

    #[test]
    fn normalize_rows_makes_stochastic() {
        let mut m = Matrix::from_rows(&[vec![2.0, 2.0], vec![0.0, 5.0], vec![0.0, 0.0]]);
        normalize_rows(&mut m);
        assert_eq!(m.row(0), &[0.5, 0.5]);
        assert_eq!(m.row(1), &[0.0, 1.0]);
        assert_eq!(m.row(2), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn sample_index_respects_zeros() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let i = sample_index(&mut rng, &[0.0, 1.0, 0.0, 2.0]).unwrap();
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn sample_index_empirical_frequencies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let w = [1.0, 2.0, 3.0];
        let mut counts = [0usize; 3];
        let trials = 60_000;
        for _ in 0..trials {
            counts[sample_index(&mut rng, &w).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = w[i] / 6.0 * trials as f64;
            assert!(
                (c as f64 - expect).abs() < 4.0 * expect.sqrt() + 50.0,
                "index {i}: got {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn sample_index_all_zero_is_none() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert_eq!(sample_index(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(sample_index(&mut rng, &[]), None);
    }

    #[test]
    fn tv_distance_basics() {
        assert_eq!(total_variation(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(total_variation(&[1.0, 1.0], &[2.0, 2.0]), 0.0);
        assert!((total_variation(&[3.0, 1.0], &[1.0, 1.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn powers_table_correct() {
        let p = lazy_walk_2();
        let table = powers_of_two(&p, 4, 1);
        assert_eq!(table.len(), 4);
        let p2 = &p * &p;
        let p8 = &(&p2 * &p2) * &(&p2 * &p2);
        assert!(table[1].max_abs_diff(&p2) < 1e-15);
        assert!(table[3].max_abs_diff(&p8) < 1e-14);
        for m in &table {
            assert!(is_row_stochastic(m, 1e-12));
        }
    }

    /// Lazy cycle walk on `n` vertices: tridiagonal-with-wraparound, so
    /// squaring fills in slowly and low levels stay genuinely sparse.
    fn lazy_cycle(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.5
            } else if (i + 1) % n == j || (j + 1) % n == i {
                0.25
            } else {
                0.0
            }
        })
    }

    /// `M, M², M⁴, …` by repeated [`PMatrix::square`], the way the
    /// doubling tables build their levels.
    fn squarings(m: PMatrix, levels: usize) -> Vec<PMatrix> {
        let mut out = vec![m];
        while out.len() < levels {
            let next = out.last().expect("non-empty").square(1);
            out.push(next);
        }
        out
    }

    #[test]
    fn pmatrix_powers_match_dense_bit_for_bit() {
        let p = lazy_cycle(33);
        let dense_table = powers_of_two(&p, 5, 1);
        let sparse_table = squarings(PMatrix::Sparse(crate::CsrMatrix::from_dense(&p)), 5);
        for (d, s) in dense_table.iter().zip(&sparse_table) {
            assert_eq!(&s.to_dense(), d, "level diverged from the dense route");
        }
        // The low levels of a cycle walk must stay CSR: the memory
        // contract, not just the values.
        assert!(sparse_table[0].is_sparse() && sparse_table[1].is_sparse());
        assert!(
            sparse_table[1].resident_bytes() < 33 * 33 * 8,
            "a sparse level must cost less than its dense footprint"
        );
    }

    #[test]
    fn fill_profile_tracks_densification() {
        let table = squarings(
            PMatrix::Sparse(crate::CsrMatrix::from_dense(&lazy_cycle(65))),
            8,
        );
        // Bandwidth of a cycle walk grows with the exponent: nnz is
        // non-decreasing level over level until saturation.
        for w in table.windows(2) {
            assert!(w[1].nnz() >= w[0].nnz(), "fill-in cannot shrink");
        }
        // P itself: 3 entries per row.
        assert_eq!(table[0].nnz(), 3 * 65);
        assert!(table[0].is_sparse() && (table[0].nnz() as f64) / (65.0 * 65.0) < 0.05);
        // P^128 on a 65-cycle is (essentially) full and must have
        // promoted; its resident bytes are the dense footprint.
        let top = table.last().unwrap();
        assert!(!top.is_sparse(), "saturated level must promote");
        assert_eq!(top.resident_bytes(), 65 * 65 * 8);
    }
}
