//! Dense row-major `f64` matrices.
//!
//! Everything in the paper's pipeline manipulates `n × n` transition
//! matrices, their powers, and small submatrices of them, so the needs are
//! simple: construction, arithmetic, a fast multiply, and submatrix
//! extraction. Matrices are stored row-major because the Congested Clique
//! distributes matrices one *row per machine* (§1.6 of the paper), and the
//! simulator hands machine `i` a view of row `i`.

use crate::kernel::{
    matmul_rows_into, matmul_rows_into_ref, matmul_upper_rows_into, steal_row_chunks,
};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use cct_linalg::Matrix;
///
/// let a = Matrix::identity(3);
/// let b = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
/// assert_eq!(&a * &b, b);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a nested array of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let data = rows.iter().flatten().copied().collect();
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "col {j} out of bounds for {} cols",
            self.cols
        );
        // One strided pass over the backing storage — no per-element
        // bounds checks. `get(j..)` keeps zero-row matrices (empty
        // backing store) returning an empty column instead of panicking.
        self.data
            .get(j..)
            .unwrap_or(&[])
            .iter()
            .step_by(self.cols)
            .copied()
            .collect()
    }

    /// Borrows the backing row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the backing row-major storage (row-sharded
    /// kernels split it into per-thread chunks).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Multiplies by a scalar, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Extracts the submatrix with the given row and column index sets,
    /// in the given order.
    ///
    /// This is the `√n × √n` submatrix shipping primitive of §2.1.3: the
    /// leader collects `P^{δ/2}` restricted to the `O(√n)` vertices that
    /// appear in the partial walk.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        Matrix::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }

    /// Largest absolute entry-wise difference `max |a_ij − b_ij|`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Matrix product `self · rhs`, sequential cache-tiled kernel.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs` written into a caller-owned buffer —
    /// the allocation-free kernel beneath every power pipeline in the
    /// workspace. `out` is zeroed and overwritten; reusing one scratch
    /// matrix across a doubling table keeps the hot loop free of `n²`
    /// allocations.
    ///
    /// Numerically identical to [`Matrix::matmul`] (it *is* the same
    /// kernel): every output entry accumulates over the inner index in
    /// increasing order, regardless of cache tiling.
    ///
    /// # Examples
    ///
    /// ```
    /// use cct_linalg::Matrix;
    ///
    /// let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
    /// let mut scratch = Matrix::zeros(3, 3);
    /// a.matmul_into(&a, &mut scratch);
    /// assert_eq!(scratch, a.matmul(&a));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.cols), "output shape mismatch");
        out.data.fill(0.0);
        matmul_rows_into(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.cols,
            rhs.cols,
            0,
            self.rows,
        );
    }

    /// [`Matrix::matmul_into`] through the pre-panel reference kernel —
    /// the tiled loop the register-blocked kernel replaced. Retained for
    /// the bit-identity equivalence suites and as the `e22` bench's
    /// "old f64" timing baseline; not used on any production path.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_into_ref(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.cols), "output shape mismatch");
        out.data.fill(0.0);
        matmul_rows_into_ref(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.cols,
            rhs.cols,
            0,
            self.rows,
        );
    }

    /// Squares the matrix into a caller-owned buffer: `out = self · self`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `out` has a different shape.
    pub fn square_into(&self, out: &mut Matrix) {
        assert!(self.is_square(), "square_into requires a square matrix");
        self.matmul_into(self, out);
    }

    /// Entry-wise in-place addition `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_in_place(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        for (o, &x) in self.data.iter_mut().zip(&rhs.data) {
            *o += x;
        }
    }

    /// Matrix product using scoped threads for large operands.
    ///
    /// Falls back to the sequential kernel below a size threshold. The
    /// result is bit-identical to [`Matrix::matmul`] because each output
    /// row is computed by exactly one thread with the same accumulation
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_parallel(&self, rhs: &Matrix, threads: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_parallel_into(rhs, &mut out, threads);
        out
    }

    /// [`Matrix::matmul_parallel`] into a caller-owned buffer (the
    /// threaded twin of [`Matrix::matmul_into`]): `out` is zeroed and
    /// overwritten, row chunks are claimed by `threads` scoped workers
    /// from a work-stealing queue, and the result is bit-identical at
    /// every thread count (chunks are disjoint and each output row keeps
    /// the sequential kernel's accumulation order).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_parallel_into(&self, rhs: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.cols), "output shape mismatch");
        let (n, k, m) = (self.rows, self.cols, rhs.cols);
        out.data.fill(0.0);
        if threads <= 1 || n < 64 {
            matmul_rows_into(&self.data, &rhs.data, &mut out.data, k, m, 0, n);
            return;
        }
        let a = &self.data;
        let b = &rhs.data;
        steal_row_chunks(&mut out.data, n, m, threads, |lo, chunk| {
            let hi = lo + chunk.len() / m.max(1);
            matmul_rows_into(a, b, chunk, k, m, lo, hi);
        });
    }

    /// `self · self` for a matrix reversible with respect to `weights`
    /// (`w_i·M[i,j] = w_j·M[j,i]`, as every random-walk transition
    /// matrix is for its stationary weights), computing half the
    /// product: the panel kernel computes only the entries on or above
    /// the diagonal, `threads`-way over the same work-stealing row queue
    /// as [`Matrix::matmul_parallel_into`], and the strict lower
    /// triangle is filled by detailed balance, `M²[i,j] = M²[j,i]·w_j/w_i`.
    ///
    /// Every entry on or above the diagonal is the full product's, bit
    /// for bit, and the whole result is bit-identical at every thread
    /// count. A lower entry differs from the full product's only by
    /// rounding: both sides accumulate non-negative terms for a
    /// stochastic `M`, so the two agree to a few `n·ε` relative (the
    /// proptests check `1e-13` at `n ≤ 200`, weights spanning `2²⁰`).
    /// The caller is responsible for `M` being reversible; nothing here
    /// checks it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `weights` has a different
    /// length.
    pub fn square_reversible(&self, weights: &[f64], threads: usize) -> Matrix {
        assert!(
            self.is_square(),
            "square_reversible requires a square matrix"
        );
        let n = self.rows;
        assert_eq!(weights.len(), n, "one weight per row");
        let mut out = Matrix::zeros(n, n);
        let a = &self.data;
        if threads <= 1 || n < 64 {
            matmul_upper_rows_into(a, a, &mut out.data, n, n, 0, n);
        } else {
            steal_row_chunks(&mut out.data, n, n, threads, |lo, chunk| {
                let hi = lo + chunk.len() / n;
                matmul_upper_rows_into(a, a, chunk, n, n, lo, hi);
            });
        }
        for i in 1..n {
            for j in 0..i {
                out.data[i * n + j] = out.data[j * n + i] * weights[j] / weights[i];
            }
        }
        out
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(12) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:9.5} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 12 { "…" } else { "" })?;
        }
        if self.rows > 12 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn col_handles_zero_rows() {
        let m = Matrix::zeros(0, 3);
        assert!(m.col(1).is_empty());
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(5, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(&a * &Matrix::identity(5), a);
        assert_eq!(&Matrix::identity(5) * &a, a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(3, 4, |i, j| (i * j) as f64);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 4));
        // c[1][2] = sum_k a[1][k] * b[k][2] = 1*0 + 2*2 + 3*4 = 16
        assert_eq!(c[(1, 2)], 16.0);
    }

    /// The pre-tiling reference kernel: plain `i-k-j` with the same
    /// zero-skip, used to pin the tiled kernel's bit-exactness.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for kk in 0..a.cols() {
                let aik = a[(i, kk)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += aik * b[(kk, j)];
                }
            }
        }
        out
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_naive() {
        // Sizes straddling the KC = 64 tile and the 16- and 8-lane panel
        // boundaries, including awkward remainders; irrational-ish
        // entries so any reassociation would change low-order bits.
        for n in [1usize, 7, 8, 9, 63, 64, 65, 130, 200] {
            let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0 + 1e-9);
            let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) % 89) as f64 / 89.0);
            assert_eq!(a.matmul(&b), matmul_naive(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn panel_kernel_is_bit_identical_to_reference_kernel() {
        // The register-blocked kernel vs the retained pre-panel kernel:
        // `==` (not approx) across the same size sweep, plus a
        // rectangular case exercising the remainder columns.
        for n in [1usize, 7, 8, 9, 63, 64, 65, 130, 200] {
            let a = Matrix::from_fn(n, n, |i, j| ((i * 29 + j * 23) % 101) as f64 / 101.0 + 1e-9);
            let b = Matrix::from_fn(n, n, |i, j| ((i * 19 + j * 3) % 83) as f64 / 83.0);
            let mut new = Matrix::zeros(n, n);
            let mut old = Matrix::zeros(n, n);
            a.matmul_into(&b, &mut new);
            a.matmul_into_ref(&b, &mut old);
            assert_eq!(new, old, "n = {n}");
        }
        let a = Matrix::from_fn(70, 130, |i, j| ((i * 7 + j) % 53) as f64 / 53.0);
        let b = Matrix::from_fn(130, 77, |i, j| ((i + j * 11) % 41) as f64 / 41.0);
        let mut new = Matrix::zeros(70, 77);
        let mut old = Matrix::zeros(70, 77);
        a.matmul_into(&b, &mut new);
        a.matmul_into_ref(&b, &mut old);
        assert_eq!(new, old);
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(3, 4, |i, j| (i + 2 * j) as f64);
        let mut out = Matrix::from_fn(5, 4, |_, _| 99.0); // stale garbage
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Re-use for a second product: the buffer must be re-zeroed.
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn square_into_matches_matmul() {
        let a = Matrix::from_fn(6, 6, |i, j| ((i * j + 3) % 5) as f64 / 5.0);
        let mut out = Matrix::zeros(6, 6);
        a.square_into(&mut out);
        assert_eq!(out, a.matmul(&a));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn square_into_rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(2, 3);
        a.square_into(&mut out);
    }

    #[test]
    #[should_panic(expected = "output shape")]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 2);
        let mut out = Matrix::zeros(3, 2);
        a.matmul_into(&a.clone(), &mut out);
    }

    #[test]
    fn add_in_place_adds() {
        let mut a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::identity(2);
        let expect = &a + &b;
        a.add_in_place(&b);
        assert_eq!(a, expect);
    }

    #[test]
    fn matmul_parallel_into_matches_and_rezeroes() {
        let a = Matrix::from_fn(97, 97, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
        let seq = a.matmul(&a);
        let mut out = Matrix::from_fn(97, 97, |_, _| -1.0);
        for threads in [1usize, 3, 8] {
            a.matmul_parallel_into(&a, &mut out, threads);
            assert_eq!(out, seq, "threads = {threads}");
        }
    }

    #[test]
    fn matmul_parallel_matches_sequential() {
        let a = Matrix::from_fn(97, 97, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
        let b = Matrix::from_fn(97, 97, |i, j| ((i * 5 + j * 11) % 7) as f64 / 7.0);
        let seq = a.matmul(&b);
        for threads in [2, 3, 8] {
            assert_eq!(a.matmul_parallel(&b, threads), seq);
        }
    }

    #[test]
    fn stealing_and_fixed_shards_agree_with_sequential() {
        let a = Matrix::from_fn(131, 131, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
        let b = Matrix::from_fn(131, 131, |i, j| ((i * 5 + j * 11) % 7) as f64 / 7.0);
        let seq = a.matmul(&b);
        let mut stolen = Matrix::zeros(131, 131);
        for threads in [1usize, 2, 4, 8] {
            a.matmul_parallel_into(&b, &mut stolen, threads);
            assert_eq!(stolen, seq, "stealing, threads = {threads}");
        }
    }

    #[test]
    fn submatrix_extracts() {
        let a = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let s = a.submatrix(&[3, 1], &[0, 2]);
        assert_eq!(s, Matrix::from_rows(&[vec![30.0, 32.0], vec![10.0, 12.0]]));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 1.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        assert_eq!(a.scale(2.0)[(1, 1)], 4.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        let b = Matrix::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b), 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Matrix::zeros(1, 1)).is_empty());
    }
}
