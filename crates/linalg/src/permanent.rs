//! Matrix permanents — the counting core of weighted perfect-matching
//! sampling (§1.8).
//!
//! The permanent of the biadjacency matrix of an edge-weighted complete
//! bipartite graph equals the total weight of its perfect matchings. The
//! paper invokes the Jerrum–Sinclair–Vigoda FPRAS \[46\]; this repository
//! samples small instances exactly and larger ones by MCMC (see
//! `cct-matching`, whose exact sampler reads its permanents from one
//! table of suffix permanents per instance). The two routes here are the
//! references it is checked against: a naive expansion and Ryser's
//! inclusion–exclusion with Gray-code updates (`O(2^k k)`). Both run in
//! `f64`, and Ryser's alternating sum cancels, so neither is ground truth:
//! [`permanent`] gives the measured errors.

use crate::Matrix;

/// Largest dimension accepted by [`permanent`] (Ryser is `O(2^k·k)`).
pub const MAX_PERMANENT_DIM: usize = 30;

/// Exact permanent by brute-force expansion over all permutations.
///
/// Only sensible for `n ≤ 9`; exists to validate [`permanent`].
///
/// # Panics
///
/// Panics if `a` is not square or `n > 10`.
pub fn permanent_naive(a: &Matrix) -> f64 {
    assert!(a.is_square(), "permanent requires a square matrix");
    let n = a.rows();
    assert!(n <= 10, "naive permanent limited to n ≤ 10");
    if n == 0 {
        return 1.0;
    }
    let mut used = vec![false; n];
    fn rec(a: &Matrix, row: usize, used: &mut [bool]) -> f64 {
        let n = a.rows();
        if row == n {
            return 1.0;
        }
        let mut total = 0.0;
        for j in 0..n {
            if !used[j] && a[(row, j)] != 0.0 {
                used[j] = true;
                total += a[(row, j)] * rec(a, row + 1, used);
                used[j] = false;
            }
        }
        total
    }
    rec(a, 0, &mut used)
}

/// Permanent via Ryser's inclusion–exclusion formula with Gray-code
/// column updates: `perm(A) = (−1)^n Σ_{S⊆[n]} (−1)^{|S|} Π_i Σ_{j∈S} a_ij`.
///
/// The sum runs in `f64`, and its terms of alternating sign cancel, so the
/// result is not exact. Measured on the non-negative matching matrices of
/// `cct-matching`'s tests:
///
/// * up to 2.2e-8 of the total away from the same sum in double-double
///   arithmetic, at 13–17 rows;
/// * up to 1.5e-10 of the total away from [`permanent_naive`], at 9 rows
///   or fewer;
/// * 7e-14 where the permanent is exactly 0 (an infeasible instance), so
///   a zero permanent can read as a small non-zero number.
///
/// It is the matching tests' reference, not ground truth: compare with it
/// at a relative tolerance well above these errors.
///
/// # Panics
///
/// Panics if `a` is not square or larger than [`MAX_PERMANENT_DIM`].
///
/// # Examples
///
/// ```
/// use cct_linalg::{permanent, Matrix};
///
/// // Permanent of the all-ones 3×3 matrix is 3! = 6.
/// let ones = Matrix::from_fn(3, 3, |_, _| 1.0);
/// assert!((permanent(&ones) - 6.0).abs() < 1e-9);
/// ```
pub fn permanent(a: &Matrix) -> f64 {
    assert!(a.is_square(), "permanent requires a square matrix");
    let n = a.rows();
    assert!(
        n <= MAX_PERMANENT_DIM,
        "permanent limited to n ≤ {MAX_PERMANENT_DIM}, got {n}"
    );
    if n == 0 {
        return 1.0;
    }
    // row_sums[i] tracks Σ_{j ∈ S} a[i][j] for the current subset S.
    let mut row_sums = vec![0.0f64; n];
    let mut total = 0.0f64;
    let mut prev_gray: u64 = 0;
    for iter in 1u64..(1u64 << n) {
        let gray = iter ^ (iter >> 1);
        let changed_bit = (gray ^ prev_gray).trailing_zeros() as usize;
        let added = gray & (gray ^ prev_gray) != 0;
        for (i, rs) in row_sums.iter_mut().enumerate() {
            if added {
                *rs += a[(i, changed_bit)];
            } else {
                *rs -= a[(i, changed_bit)];
            }
        }
        prev_gray = gray;
        let prod: f64 = row_sums.iter().product();
        let sign = if (gray.count_ones() as usize).abs_diff(n) % 2 == 0 {
            1.0
        } else {
            -1.0
        };
        total += sign * prod;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_one() {
        assert_eq!(permanent(&Matrix::zeros(0, 0)), 1.0);
        assert_eq!(permanent(&Matrix::from_rows(&[vec![5.0]])), 5.0);
    }

    #[test]
    fn two_by_two() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        // perm = 1*4 + 2*3 = 10
        assert!((permanent(&a) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn all_ones_is_factorial() {
        let mut fact = 1.0;
        for n in 1..=8usize {
            fact *= n as f64;
            let ones = Matrix::from_fn(n, n, |_, _| 1.0);
            assert!((permanent(&ones) - fact).abs() < 1e-6 * fact, "n = {n}");
        }
    }

    #[test]
    fn identity_permanent_is_one() {
        for n in 1..=12usize {
            assert!((permanent(&Matrix::identity(n)) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ryser_matches_naive_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for n in 1..=7usize {
            for _ in 0..5 {
                let a = Matrix::from_fn(n, n, |_, _| rng.gen::<f64>());
                let r = permanent(&a);
                let nv = permanent_naive(&a);
                assert!((r - nv).abs() < 1e-9 * nv.abs().max(1.0), "n = {n}");
            }
        }
    }

    #[test]
    fn permanent_with_zero_row_is_zero() {
        let mut a = Matrix::from_fn(5, 5, |i, j| ((i + j) % 3) as f64 + 1.0);
        for j in 0..5 {
            a[(2, j)] = 0.0;
        }
        assert!(permanent(&a).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn oversized_rejected() {
        let _ = permanent(&Matrix::zeros(31, 31));
    }
}
