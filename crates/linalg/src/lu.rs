//! LU decomposition with partial pivoting: determinants, linear solves,
//! and inverses.
//!
//! Used wherever the repository solves exactly: the Matrix–Tree
//! determinant, the Laplacian-elimination form of the Schur complement
//! (Definition 1), and the fundamental-matrix form `(I−T)^{-1}A` of the
//! shortcut graph (Definition 3). The last one runs in every phase of the
//! sampler under the default `SchurComputation::ExactSolve`, which
//! factors `I − T` once per phase and solves only the absorbing columns
//! (the vertices with a neighbor in `S`; every other column of the
//! shortcut matrix is zero); the paper's iterated squaring (Corollaries
//! 2–3) is the `IteratedSquaring` alternative, and the ledger charges its
//! multiplication count either way.
//!
//! # Row slices
//!
//! Elimination and substitution work on whole row slices:
//! `row_i[k+1..] -= factor · row_k[k+1..]` during factorization, and
//! `y_i -= L[i,k] · y_k` (every right-hand side at once) during the solves.
//! Each entry sees the same operations in the same order as the textbook
//! scalar loops, except that exactly-zero multipliers are skipped: they
//! would only subtract a signed zero. Results therefore equal the scalar
//! route's under `==` (the sign of an exact zero may differ), which the
//! property suite checks against a kept scalar reference.
//! [`Lu::inverse_columns`] also skips, in the forward pass, the rows of
//! each identity column that are still exact zeros; that changes no bit
//! of [`Lu::solve_matrix`]'s result.

use crate::Matrix;

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// # Examples
///
/// ```
/// use cct_linalg::{Lu, Matrix};
///
/// let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 4.0]]);
/// let lu = Lu::new(a).expect("non-singular");
/// assert!((lu.det() - (-6.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row index in slot `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or −1.0).
    sign: f64,
}

/// Error returned when a matrix is singular to working precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError;

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrixError {}

impl Lu {
    /// Factorizes a square matrix in place: `a`'s buffer becomes the
    /// combined factors, so no copy of it is made.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300`
    /// in absolute value is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: Matrix) -> Result<Lu, SingularMatrixError> {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let data = lu.as_mut_slice();
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at or below row
            // k (the first such row on ties).
            let mut piv = k;
            let mut best = data[k * n + k].abs();
            for i in k + 1..n {
                let x = data[i * n + k].abs();
                if x > best {
                    best = x;
                    piv = i;
                }
            }
            if best < 1e-300 {
                return Err(SingularMatrixError);
            }
            if piv != k {
                let (upper, lower) = data.split_at_mut(piv * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, piv);
                sign = -sign;
            }
            let (upper, lower) = data.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n..];
            let pivot = pivot_row[k];
            for row in lower.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if factor == 0.0 {
                    continue;
                }
                for (x, &u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *x -= factor * u;
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factorized (square) matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// The determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        (0..n).fold(self.sign, |acc, i| acc * self.lu[(i, i)])
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut y = Matrix::from_fn(n, 1, |i, _| b[self.perm[i]]);
        self.substitute(&mut y, |_| 1);
        y.as_slice().to_vec()
    }

    /// Solves `A·X = B` for every column of `B` at once.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows()` differs from the matrix dimension.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "rhs row count mismatch");
        let m = b.cols();
        let mut y = Matrix::zeros(n, m);
        for (i, &p) in self.perm.iter().enumerate() {
            y.row_mut(i).copy_from_slice(b.row(p));
        }
        self.substitute(&mut y, |_| m);
        y
    }

    /// The inverse of the factorized matrix: [`Lu::inverse_columns`] of
    /// every column.
    pub fn inverse(&self) -> Matrix {
        let all: Vec<usize> = (0..self.dim()).collect();
        self.inverse_columns(&all)
    }

    /// Columns `cols` of the inverse, in that order: [`Lu::solve_matrix`]
    /// on those columns of the identity, bit for bit (zero signs
    /// included), with the forward substitution cut to the entries that
    /// can be non-zero.
    ///
    /// Column `v`'s right-hand side is a unit entry in the permuted row
    /// `r` with `perm[r] = v`. Forward substitution keeps every row
    /// above `r` at exactly `+0.0` in that column, and subtracting
    /// `l·(+0.0)` from an entry that is `+0.0` or non-zero leaves it
    /// unchanged — every entry it would reach is one of those. So row
    /// `k` updates only the columns whose unit entry lies at or above it.
    /// With the columns solved in order of `r`, those form a prefix of
    /// each row: on average the forward pass does a third of the work,
    /// and the solve two thirds.
    ///
    /// # Panics
    ///
    /// Panics if an entry of `cols` is out of range.
    pub fn inverse_columns(&self, cols: &[usize]) -> Matrix {
        let n = self.dim();
        let mut unit_row = vec![0usize; n];
        for (r, &p) in self.perm.iter().enumerate() {
            unit_row[p] = r;
        }
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_by_key(|&c| unit_row[cols[c]]);
        let m = cols.len();
        let mut y = Matrix::zeros(n, m);
        // live[k]: how many of the ordered columns have their unit entry
        // in row k or above.
        let mut live = vec![0usize; n];
        for (j, &c) in order.iter().enumerate() {
            let r = unit_row[cols[c]];
            y[(r, j)] = 1.0;
            live[r] = j + 1;
        }
        for k in 1..n {
            live[k] = live[k].max(live[k - 1]);
        }
        self.substitute(&mut y, |k| live[k]);
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            let (src, dst) = (y.row(i), out.row_mut(i));
            for (&x, &c) in src.iter().zip(&order) {
                dst[c] = x;
            }
        }
        out
    }

    /// Forward then back substitution on every column of `y` at once;
    /// `y` enters holding the permuted right-hand sides (row `i` is row
    /// `perm[i]` of `B`) and leaves holding `X`. In the forward pass, row
    /// `k` contributes only its first `live(k)` columns: the caller
    /// vouches that the rest are `+0.0` there.
    fn substitute(&self, y: &mut Matrix, live: impl Fn(usize) -> usize) {
        let n = self.dim();
        let m = y.cols();
        if m == 0 {
            return;
        }
        let lu = self.lu.as_slice();
        let y = y.as_mut_slice();
        // L has a unit diagonal: y_i -= L[i,k]·y_k for k < i.
        for i in 0..n {
            let (solved, rest) = y.split_at_mut(i * m);
            let yi = &mut rest[..m];
            for (k, (yk, &l)) in solved
                .chunks_exact(m)
                .zip(&lu[i * n..i * n + i])
                .enumerate()
            {
                if l == 0.0 {
                    continue;
                }
                let w = live(k);
                for (x, &v) in yi[..w].iter_mut().zip(&yk[..w]) {
                    *x -= l * v;
                }
            }
        }
        // y_i -= U[i,k]·y_k for k > i, then y_i /= U[i,i].
        for i in (0..n).rev() {
            let (head, solved) = y.split_at_mut((i + 1) * m);
            let yi = &mut head[i * m..];
            for (yk, &u) in solved.chunks_exact(m).zip(&lu[i * n + i + 1..(i + 1) * n]) {
                if u == 0.0 {
                    continue;
                }
                for (x, &v) in yi.iter_mut().zip(yk) {
                    *x -= u * v;
                }
            }
            let d = lu[i * n + i];
            for x in yi.iter_mut() {
                *x /= d;
            }
        }
    }
}

/// Determinant of a square matrix (LU with partial pivoting).
///
/// Returns `0.0` for singular matrices.
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// # Examples
///
/// ```
/// use cct_linalg::{det, Matrix};
///
/// let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
/// assert_eq!(det(&a), 6.0);
/// ```
pub fn det(a: &Matrix) -> f64 {
    match Lu::new(a.clone()) {
        Ok(lu) => lu.det(),
        Err(SingularMatrixError) => 0.0,
    }
}

/// Inverse of a square matrix.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if the matrix is singular.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn inverse(a: &Matrix) -> Result<Matrix, SingularMatrixError> {
    Ok(Lu::new(a.clone())?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_known_values() {
        assert_eq!(det(&Matrix::identity(5)), 1.0);
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!((det(&a) + 2.0).abs() < 1e-12);
        let b = Matrix::from_rows(&[
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
        ]);
        // det = 2(1*1-0*3) - 0 + 1(1*3-1*0) = 2 + 3 = 5
        assert!((det(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_columns_equal_full_solves_bit_for_bit() {
        // Block-diagonal, sparse, pivoting inputs with negative pivots:
        // the inverse has exact zeros of both signs, and they must match.
        for n in [1usize, 5, 9, 16] {
            let a = Matrix::from_fn(n, n, |i, j| {
                let x = ((i * 7 + j * 13 + 3) % 11) as f64 - 5.0;
                match (i == j, (i + 2 * j) % 3) {
                    _ if (2 * i < n) != (2 * j < n) => 0.0,
                    (true, _) => x - 0.5,
                    (false, 0) => 0.0,
                    (false, _) => x,
                }
            });
            let lu = Lu::new(a).unwrap();
            for cols in [
                (0..n).collect::<Vec<_>>(),
                (0..n).rev().step_by(3).collect(),
            ] {
                let unit = Matrix::from_fn(n, cols.len(), |i, c| f64::from(i == cols[c]));
                let want = lu.solve_matrix(&unit);
                let got = lu.inverse_columns(&cols);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n = {n}, cols = {cols:?}");
            }
        }
    }

    #[test]
    fn det_singular_is_zero() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(det(&a), 0.0);
    }

    #[test]
    fn det_permutation_sign() {
        // A permutation matrix swapping two rows has determinant −1.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!((det(&a) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let x_true = [1.0, -2.0, 0.5];
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        let x = Lu::new(a).unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_fn(6, 6, |i, j| {
            if i == j {
                4.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let inv = inverse(&a).unwrap();
        let prod = &a * &inv;
        assert!(prod.max_abs_diff(&Matrix::identity(6)) < 1e-10);
    }

    #[test]
    fn inverse_of_singular_errors() {
        let a = Matrix::zeros(3, 3);
        assert_eq!(inverse(&a).unwrap_err(), SingularMatrixError);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Leading zero pivot exercises the row-swap path.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]);
        let x = Lu::new(a).unwrap().solve(&[3.0, 4.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }
}
