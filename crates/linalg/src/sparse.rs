//! Row-major compressed-sparse-row (CSR) matrices.
//!
//! The Congested Clique distributes every transition matrix one *row per
//! machine* (§1.6 of the paper), and on sparse inputs (ER at
//! `p ~ log n / n`, random-regular graphs, cycles) a row holds `O(deg)`
//! entries, not `n`. [`CsrMatrix`] stores exactly those entries —
//! row-major, columns strictly increasing within a row, no explicit
//! zeros — so a machine's row slice is the `O(deg)`-word object the
//! bandwidth analysis talks about.
//!
//! Every kernel in this module accumulates inner products over a
//! **strictly increasing inner index**, exactly like the dense
//! [`Matrix`] kernels (which skip zero multiplicands): the computed
//! values are bit-identical to the dense route, not merely close. See
//! [`crate::PMatrix`] for the contract and the tests pinning it.
//!
//! Column indices are stored as `u32` (4 bytes): one stored entry costs
//! 12 bytes against the dense layout's 8 per slot, so CSR wins memory
//! below ~2/3 fill — the break-even [`crate::PMatrix`]'s promotion
//! tracker is built on.

use crate::Matrix;

/// A sparse row-major matrix: per row, strictly increasing column
/// indices and their (non-zero) values.
///
/// # Examples
///
/// ```
/// use cct_linalg::{CsrMatrix, Matrix};
///
/// let dense = Matrix::from_rows(&[vec![0.0, 2.0], vec![1.0, 0.0]]);
/// let sparse = CsrMatrix::from_dense(&dense);
/// assert_eq!(sparse.nnz(), 2);
/// assert_eq!(sparse.get(0, 1), 2.0);
/// assert_eq!(sparse.get(0, 0), 0.0);
/// assert_eq!(sparse.to_dense(), dense);
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    /// Column of each stored entry (`u32`: 4 bytes/entry; the simulator
    /// caps `n` far below `u32::MAX`).
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Incremental row-by-row constructor for [`CsrMatrix`].
///
/// Push entries of row 0 in increasing column order, call
/// [`CsrBuilder::finish_row`], continue with row 1, and so on;
/// [`CsrBuilder::build`] closes any remaining (empty) rows.
pub struct CsrBuilder {
    m: CsrMatrix,
    finished_rows: usize,
}

impl CsrBuilder {
    /// Adds an entry to the current row.
    ///
    /// Entries equal to `0.0` (either sign) are dropped — CSR stores
    /// structural non-zeros only.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range, not strictly larger than the
    /// previous column of this row, or all rows are already finished.
    pub fn push(&mut self, col: usize, value: f64) {
        assert!(self.finished_rows < self.m.rows, "all rows already built");
        assert!(col < self.m.cols, "column {col} out of range");
        if self.m.col_idx.len() > self.m.row_ptr[self.finished_rows] {
            let last = *self.m.col_idx.last().expect("non-empty row");
            assert!(
                (last as usize) < col,
                "columns must be strictly increasing within a row"
            );
        }
        if value == 0.0 {
            return;
        }
        self.m.col_idx.push(col as u32);
        self.m.values.push(value);
    }

    /// Closes the current row and moves to the next.
    ///
    /// # Panics
    ///
    /// Panics if all rows are already finished.
    pub fn finish_row(&mut self) {
        assert!(self.finished_rows < self.m.rows, "all rows already built");
        self.finished_rows += 1;
        self.m.row_ptr[self.finished_rows] = self.m.col_idx.len();
    }

    /// Finishes construction; unclosed trailing rows are empty.
    pub fn build(mut self) -> CsrMatrix {
        while self.finished_rows < self.m.rows {
            self.finish_row();
        }
        self.m
    }
}

impl CsrMatrix {
    /// An empty (all-zero) `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `cols` exceeds `u32::MAX + 1`: column ids are stored as
    /// `u32`, and without this guard a column near `2³²` would silently
    /// wrap instead of failing loudly.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(
            cols <= u32::MAX as usize + 1,
            "cols = {cols} exceeds the u32 column-id space"
        );
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// A row-by-row builder.
    pub fn builder(rows: usize, cols: usize) -> CsrBuilder {
        CsrBuilder {
            m: CsrMatrix::zeros(rows, cols),
            finished_rows: 0,
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut b = CsrMatrix::builder(n, n);
        for i in 0..n {
            b.push(i, 1.0);
            b.finish_row();
        }
        b.build()
    }

    /// Compresses a dense matrix, dropping entries equal to `0.0`
    /// (either sign — `-0.0` is normalized away; no pipeline matrix
    /// carries negative zeros).
    pub fn from_dense(m: &Matrix) -> Self {
        let mut b = CsrMatrix::builder(m.rows(), m.cols());
        for i in 0..m.rows() {
            for (j, &x) in m.row(i).iter().enumerate() {
                b.push(j, x);
            }
            b.finish_row();
        }
        b.build()
    }

    /// Expands to a dense [`Matrix`] (absent entries become `0.0`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let row = out.row_mut(i);
            let (cols, vals) = self.row(i);
            for (&j, &x) in cols.iter().zip(vals) {
                row[j as usize] = x;
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `nnz / (rows·cols)`; 0 for empty shapes.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Heap bytes of the CSR storage (12 per entry plus the row table).
    pub fn memory_bytes(&self) -> usize {
        CsrMatrix::bytes_for(self.rows, self.nnz())
    }

    /// [`CsrMatrix::memory_bytes`] of a matrix with `rows` rows and `nnz`
    /// stored entries.
    pub(crate) fn bytes_for(rows: usize, nnz: usize) -> usize {
        nnz * 12 + (rows + 1) * 8
    }

    /// Allocated heap bytes of the CSR storage — [`Self::memory_bytes`]
    /// measured on vector *capacities*, so growth slack from incremental
    /// construction counts. This is the number the byte-accounting
    /// contract (`PMatrix::resident_bytes`, `PreparedSampler`) sums.
    pub fn resident_bytes(&self) -> usize {
        self.col_idx.capacity() * 4 + self.values.capacity() * 8 + self.row_ptr.capacity() * 8
    }

    /// Row `i` as parallel `(columns, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry `(i, j)`, `0.0` if absent.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Sum of row `i`'s entries, in increasing column order.
    ///
    /// Bit-identical to summing the dense row left to right: the skipped
    /// zeros are additive no-ops (partial sums of this pipeline are
    /// never `-0.0`).
    pub fn row_sum(&self, i: usize) -> f64 {
        self.row(i).1.iter().sum()
    }

    /// Applies `f` to every stored value, then drops entries that became
    /// exactly zero (e.g. after fixed-point truncation).
    ///
    /// The zero check rides the mapping pass itself, so the common case
    /// — nothing mapped to zero — costs one flag test per entry and
    /// skips the row-offset rebuild entirely.
    pub fn map_values_retain(&mut self, mut f: impl FnMut(f64) -> f64) {
        let mut dropped = false;
        for v in &mut self.values {
            *v = f(*v);
            dropped |= *v == 0.0;
        }
        if dropped {
            let mut b = CsrMatrix::builder(self.rows, self.cols);
            for i in 0..self.rows {
                let (cols, vals) = self.row(i);
                for (&j, &x) in cols.iter().zip(vals) {
                    b.push(j as usize, x);
                }
                b.finish_row();
            }
            *self = b.build();
        }
    }

    /// Sparse × sparse product via a sparse accumulator.
    ///
    /// For each output row, the stored entries of `self`'s row are
    /// consumed in increasing inner index `k`, scattering `rhs`'s row
    /// `k` — so every output entry accumulates its products over
    /// strictly increasing `k`, exactly like the dense kernel (which
    /// skips zero multiplicands). Entries whose accumulated value is
    /// exactly zero are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let m = rhs.cols;
        let mut acc = vec![0.0f64; m];
        let mut touched: Vec<u32> = Vec::new();
        let mut seen = vec![false; m];
        let mut out = CsrMatrix::builder(self.rows, m);
        for i in 0..self.rows {
            let (a_cols, a_vals) = self.row(i);
            for (&k, &aik) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = rhs.row(k as usize);
                for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                    let j_us = j as usize;
                    if !seen[j_us] {
                        seen[j_us] = true;
                        touched.push(j);
                    }
                    acc[j_us] += aik * bkj;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                let j_us = j as usize;
                out.push(j_us, acc[j_us]);
                acc[j_us] = 0.0;
                seen[j_us] = false;
            }
            touched.clear();
            out.finish_row();
        }
        out.build()
    }

    /// One output row of the sparse × dense product through the panel
    /// sweep of [`crate::kernel::LANES`]-wide panels and a monomorphized
    /// column tail. Per output entry, products are added in stored-entry
    /// order (strictly increasing inner index), so results stay
    /// bit-identical to the dense route.
    fn dense_rhs_row(cols: &[u32], vals: &[f64], b: &[f64], out_row: &mut [f64]) {
        let row = crate::kernel::SparseTerms { cols, vals };
        crate::kernel::sweep_row(&row, b, 0, out_row);
    }

    /// Sparse × dense product into a dense result. Rows are computed by
    /// a register-blocked panel kernel; above the size threshold, row
    /// chunks are claimed by `threads` scoped workers from a
    /// work-stealing queue, so a skewed row (one hub vertex with huge
    /// degree) no longer idles the workers whose fixed shard was cheap.
    /// Bit-identical at every width and claim order.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_dense_rhs(&self, rhs: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, rhs.rows(), "inner dimension mismatch");
        let m = rhs.cols();
        let mut out = Matrix::zeros(self.rows, m);
        if threads <= 1 || self.rows < 64 {
            for i in 0..self.rows {
                let (a_cols, a_vals) = self.row(i);
                CsrMatrix::dense_rhs_row(a_cols, a_vals, rhs.as_slice(), out.row_mut(i));
            }
            return out;
        }
        let rows = self.rows;
        crate::kernel::steal_row_chunks(out.as_mut_slice(), rows, m, threads, |lo, chunk| {
            for (off, out_row) in chunk.chunks_mut(m.max(1)).enumerate() {
                let (a_cols, a_vals) = self.row(lo + off);
                CsrMatrix::dense_rhs_row(a_cols, a_vals, rhs.as_slice(), out_row);
            }
        });
        out
    }

    /// [`CsrMatrix::matmul_dense_rhs`] with the fixed (pre-stealing) row
    /// sharding: rows split into `threads` equal chunks, one scoped
    /// thread each. Retained for the `e22` bench's stealing-vs-fixed
    /// comparison on skewed-degree inputs and the shard-equivalence
    /// tests; production paths always take the work-stealing queue.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_dense_rhs_fixed(&self, rhs: &Matrix, threads: usize) -> Matrix {
        assert_eq!(self.cols, rhs.rows(), "inner dimension mismatch");
        let m = rhs.cols();
        let mut out = Matrix::zeros(self.rows, m);
        if threads <= 1 || self.rows < 64 {
            for i in 0..self.rows {
                let (a_cols, a_vals) = self.row(i);
                CsrMatrix::dense_rhs_row(a_cols, a_vals, rhs.as_slice(), out.row_mut(i));
            }
            return out;
        }
        let chunk = self.rows.div_ceil(threads).max(1);
        let data = out.as_mut_slice();
        std::thread::scope(|scope| {
            for (t, out_chunk) in data.chunks_mut(chunk * m.max(1)).enumerate() {
                let lo = t * chunk;
                scope.spawn(move || {
                    for (off, out_row) in out_chunk.chunks_mut(m.max(1)).enumerate() {
                        let (a_cols, a_vals) = self.row(lo + off);
                        CsrMatrix::dense_rhs_row(a_cols, a_vals, rhs.as_slice(), out_row);
                    }
                });
            }
        });
        out
    }

    /// Dense × sparse product into a dense result: the scatter kernel
    /// (irregular output columns — no contiguous panels to block over),
    /// with row chunks claimed from the work-stealing queue above the
    /// size threshold. Bit-identical at every width and claim order.
    ///
    /// # Panics
    ///
    /// Panics if `lhs.cols() != rhs.rows()`.
    pub fn matmul_dense_lhs(lhs: &Matrix, rhs: &CsrMatrix, threads: usize) -> Matrix {
        assert_eq!(lhs.cols(), rhs.rows, "inner dimension mismatch");
        let m = rhs.cols;
        let mut out = Matrix::zeros(lhs.rows(), m);
        let kernel = |out_row: &mut [f64], i: usize| {
            for (k, &aik) in lhs.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let (b_cols, b_vals) = rhs.row(k);
                for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                    out_row[j as usize] += aik * bkj;
                }
            }
        };
        if threads <= 1 || lhs.rows() < 64 {
            for i in 0..lhs.rows() {
                kernel(out.row_mut(i), i);
            }
            return out;
        }
        let rows = lhs.rows();
        crate::kernel::steal_row_chunks(out.as_mut_slice(), rows, m, threads, |lo, chunk| {
            for (off, out_row) in chunk.chunks_mut(m.max(1)).enumerate() {
                kernel(out_row, lo + off);
            }
        });
        out
    }

    /// Entry-wise sum `self + rhs` (union merge; exact-zero sums are
    /// dropped).
    ///
    /// Where both operands store an entry the result is `a + b` — the
    /// same single addition the dense `add_in_place` performs.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch");
        let mut out = CsrMatrix::builder(self.rows, self.cols);
        for i in 0..self.rows {
            let (ac, av) = self.row(i);
            let (bc, bv) = rhs.row(i);
            let (mut x, mut y) = (0usize, 0usize);
            while x < ac.len() || y < bc.len() {
                let ja = ac.get(x).copied().unwrap_or(u32::MAX);
                let jb = bc.get(y).copied().unwrap_or(u32::MAX);
                if ja < jb {
                    out.push(ja as usize, av[x]);
                    x += 1;
                } else if jb < ja {
                    out.push(jb as usize, bv[y]);
                    y += 1;
                } else {
                    out.push(ja as usize, av[x] + bv[y]);
                    x += 1;
                    y += 1;
                }
            }
            out.finish_row();
        }
        out.build()
    }

    /// Scatter-adds `self`'s entries into a dense accumulator:
    /// `out += self`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_to_dense(&self, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "shape mismatch");
        for i in 0..self.rows {
            let row = out.row_mut(i);
            let (cols, vals) = self.row(i);
            for (&j, &x) in cols.iter().zip(vals) {
                row[j as usize] += x;
            }
        }
    }
}

impl std::fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{} ({} nnz, {:.3} dense)",
            self.rows,
            self.cols,
            self.nnz(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_suite() -> Vec<Matrix> {
        let mut out = Vec::new();
        for n in [1usize, 4, 7, 65, 130] {
            // Mix of sparse (banded) and denser pseudo-random patterns,
            // irrational-ish values so any reassociation changes bits.
            out.push(Matrix::from_fn(n, n, |i, j| {
                if i.abs_diff(j) <= 2 {
                    ((i * 31 + j * 17) % 97) as f64 / 97.0 + 1e-9
                } else {
                    0.0
                }
            }));
            out.push(Matrix::from_fn(n, n, |i, j| {
                if (i * 13 + j * 7) % 5 == 0 {
                    ((i * 7 + j * 3) % 89) as f64 / 89.0
                } else {
                    0.0
                }
            }));
        }
        out
    }

    #[test]
    fn dense_roundtrip_and_get() {
        for d in dense_suite() {
            let s = CsrMatrix::from_dense(&d);
            assert_eq!(s.to_dense(), d);
            for i in 0..d.rows() {
                for j in 0..d.cols() {
                    assert_eq!(s.get(i, j), d[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn matmul_is_bit_identical_to_dense() {
        let suite = dense_suite();
        for pair in suite.chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let dense = a.matmul(b);
            let (sa, sb) = (CsrMatrix::from_dense(a), CsrMatrix::from_dense(b));
            // sparse × sparse
            assert_eq!(sa.matmul(&sb).to_dense(), dense, "n = {}", a.rows());
            // sparse × dense, at several thread widths
            for threads in [1usize, 3] {
                assert_eq!(sa.matmul_dense_rhs(b, threads), dense);
                assert_eq!(CsrMatrix::matmul_dense_lhs(a, &sb, threads), dense);
            }
        }
    }

    #[test]
    fn add_matches_dense() {
        let suite = dense_suite();
        for pair in suite.chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let dense = a + b;
            let (sa, sb) = (CsrMatrix::from_dense(a), CsrMatrix::from_dense(b));
            assert_eq!(sa.add(&sb).to_dense(), dense);
            let mut acc = a.clone();
            sb.add_to_dense(&mut acc);
            assert_eq!(acc, dense);
        }
    }

    #[test]
    fn row_sum_matches_dense_sum() {
        for d in dense_suite() {
            let s = CsrMatrix::from_dense(&d);
            for i in 0..d.rows() {
                assert_eq!(s.row_sum(i), d.row(i).iter().sum::<f64>());
            }
        }
    }

    #[test]
    fn identity_is_noop_factor() {
        let d = Matrix::from_fn(5, 5, |i, j| ((i * j + 1) % 4) as f64);
        let s = CsrMatrix::from_dense(&d);
        let id = CsrMatrix::identity(5);
        assert_eq!(id.matmul(&s).to_dense(), d);
        assert_eq!(s.matmul(&id).to_dense(), d);
        assert_eq!(id.nnz(), 5);
    }

    #[test]
    fn builder_drops_zeros_and_counts_memory() {
        let mut b = CsrMatrix::builder(2, 3);
        b.push(0, 0.5);
        b.push(2, 0.0); // dropped
        b.finish_row();
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.memory_bytes(), 4 + 8 + 3 * 8);
        assert!((m.density() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn builder_rejects_unsorted_columns() {
        let mut b = CsrMatrix::builder(1, 4);
        b.push(2, 1.0);
        b.push(1, 1.0);
    }

    #[test]
    fn map_values_retain_drops_new_zeros() {
        let d = Matrix::from_rows(&[vec![0.6, 0.001], vec![0.0, 0.7]]);
        let mut s = CsrMatrix::from_dense(&d);
        s.map_values_retain(|x| if x < 0.01 { 0.0 } else { x });
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(1, 1), 0.7);
    }

    #[test]
    fn empty_rows_and_isolated_vertices() {
        // Row 1 never receives an entry and column 1 is never referenced
        // — the shape of an isolated vertex in a loaded edge list.
        let mut b = CsrMatrix::builder(3, 3);
        b.push(2, 0.5);
        b.finish_row();
        b.finish_row(); // row 1 empty
        b.push(0, 0.25);
        b.finish_row();
        let m = b.build();
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row_sum(1), 0.0);
        assert_eq!(m.get(1, 1), 0.0);
        // Products and sums through the empty row stay well-formed.
        let sq = m.matmul(&m);
        assert_eq!(sq.row(1), (&[][..], &[][..]));
        assert_eq!(sq.to_dense(), m.to_dense().matmul(&m.to_dense()));
        // Trailing rows left unclosed by build() are empty too.
        let tail = CsrMatrix::builder(4, 2).build();
        assert_eq!(tail.nnz(), 0);
        assert_eq!(tail.row(3), (&[][..], &[][..]));
    }

    #[test]
    fn column_ids_near_u32_max_are_exact() {
        // The widest shape the u32 column space admits: cols = 2³², max
        // column id = u32::MAX. Entries there must read back exactly
        // (no silent wraparound).
        let wide = u32::MAX as usize + 1;
        let mut b = CsrMatrix::builder(2, wide);
        b.push(0, 0.5);
        b.push(wide - 1, 0.25);
        b.finish_row();
        let m = b.build();
        assert_eq!(m.get(0, wide - 1), 0.25);
        assert_eq!(m.get(0, wide - 2), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "u32 column-id space")]
    fn columns_beyond_u32_are_rejected() {
        let _ = CsrMatrix::zeros(1, u32::MAX as usize + 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn builder_rejects_duplicate_columns() {
        // A duplicate edge surviving to the CSR layer trips the same
        // strict-ordering guard as an unsorted push.
        let mut b = CsrMatrix::builder(1, 4);
        b.push(2, 1.0);
        b.push(2, 1.0);
    }

    #[test]
    fn resident_bytes_counts_capacity_and_shrinks() {
        let mut b = CsrMatrix::builder(2, 8);
        for j in 0..4 {
            b.push(j, 1.0 + j as f64);
        }
        b.finish_row();
        let m = b.build();
        assert!(m.resident_bytes() >= m.memory_bytes());
    }

    #[test]
    fn rectangular_shapes_work() {
        let a = Matrix::from_fn(3, 5, |i, j| {
            if (i + j) % 2 == 0 {
                (i + j) as f64
            } else {
                0.0
            }
        });
        let b = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64 / 7.0);
        let sa = CsrMatrix::from_dense(&a);
        let sb = CsrMatrix::from_dense(&b);
        assert_eq!(sa.matmul(&sb).to_dense(), a.matmul(&b));
        assert_eq!(sa.matmul_dense_rhs(&b, 1), a.matmul(&b));
        assert_eq!(CsrMatrix::matmul_dense_lhs(&a, &sb, 1), a.matmul(&b));
    }
}
