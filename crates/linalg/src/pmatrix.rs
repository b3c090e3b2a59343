//! The representation-adaptive transition-matrix type: dense or CSR,
//! with automatic promotion to dense as fill-in grows.
//!
//! # The bit-identity contract
//!
//! Every [`PMatrix`] operation computes **bit-identical** values in both
//! representations: sparse kernels consume stored entries in strictly
//! increasing inner-index order, exactly matching the dense kernels
//! (which skip zero multiplicands without reordering the surviving
//! accumulations), and the skipped explicit zeros are additive no-ops
//! (no pipeline value is `-0.0`). Consequently a pipeline may promote a
//! sparse matrix to dense at *any* point — or never — and every
//! downstream read (`get`, row sampling, row sums, products) returns the
//! same bits. This is what lets the `cct` sampler guarantee that the
//! `Dense`, `Sparse`, and `Auto` backends produce byte-identical trees
//! and round ledgers for the same seed; the workspace test suites
//! (`cct-linalg` unit tests, `tests/parallel_equivalence.rs`, the pinned
//! seed-42 fixtures) enforce it at exact `==`, the same standard as the
//! PR-3 block-squaring refactor.
//!
//! # The weighted contract
//!
//! [`PMatrix`] is weight-agnostic: it stores whatever row-stochastic
//! entries its builder computed, and the bit-identity contract above is
//! stated over *entries*, not over where they came from. What makes
//! weighted graphs work end to end is a discipline upstream builders
//! follow (`Graph::transition_pmatrix` in `cct-graph`, the Schur
//! pipeline in `cct-schur`):
//!
//! * entries are `P[u,v] = w(u,v) / deg(u)` with `deg(u) = Σ_v w(u,v)`
//!   the **weighted** degree, computed with the identical expression on
//!   the dense and the CSR route — so the backend axis stays
//!   bit-identical on weighted inputs too;
//! * a graph whose weights are all exactly `1.0` produces the same
//!   division `1.0 / k` as an unweighted graph of equal topology, hence
//!   the *same bits* in every entry — the weighted path is a strict
//!   generalization, and the pinned seed-42 fixtures must reproduce
//!   byte for byte under a weight-1 rebuild (enforced by
//!   `tests/pinned_trees.rs`);
//! * weights are strictly positive and finite (the loaders and
//!   generators reject anything else), so no entry is `-0.0`, `NaN`, or
//!   a sign-flipping additive term — the promotion no-op argument above
//!   survives unchanged.
//!
//! Sampling a spanning tree from such a matrix draws trees with
//! probability proportional to the product of their edge weights
//! (footnote 1 of the paper); `tests/weighted_uniformity.rs` pins that
//! distribution against the weighted Matrix–Tree oracle.
//!
//! # Promotion
//!
//! Squaring densifies: powers of a sparse transition matrix fill in
//! until CSR bookkeeping costs more than the dense layout it is trying
//! to beat. The tracker promotes a sparse result to dense as soon as its
//! CSR footprint (12 bytes per stored entry plus the row table) reaches
//! the dense footprint (8 bytes per slot) — the exact memory break-even,
//! about 2/3 fill. Promotion is a representation change only; by the
//! contract above it never changes a computed bit.

use crate::{CsrMatrix, FixedPoint, Matrix};
use rand::Rng;

/// A concrete matrix representation, chosen by the backend knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Repr {
    /// Dense row-major `f64` storage.
    Dense,
    /// Row-major CSR storage (promoted to dense on fill-in).
    Sparse,
}

/// A transition matrix in either representation.
///
/// # Examples
///
/// ```
/// use cct_linalg::{CsrMatrix, Matrix, PMatrix};
///
/// let d = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.5, 0.5]]);
/// let dense = PMatrix::Dense(d.clone());
/// let sparse = PMatrix::Sparse(CsrMatrix::from_dense(&d));
/// // Same bits through every op, regardless of representation:
/// assert_eq!(
///     dense.matmul(&dense, 1).to_dense(),
///     sparse.matmul(&sparse, 1).to_dense(),
/// );
/// assert_eq!(dense.get(1, 0), sparse.get(1, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PMatrix {
    /// Dense representation.
    Dense(Matrix),
    /// Sparse (CSR) representation.
    Sparse(CsrMatrix),
}

impl PMatrix {
    /// An all-zero matrix in the given representation.
    pub fn zeros(rows: usize, cols: usize, repr: Repr) -> Self {
        match repr {
            Repr::Dense => PMatrix::Dense(Matrix::zeros(rows, cols)),
            Repr::Sparse => PMatrix::Sparse(CsrMatrix::zeros(rows, cols)),
        }
    }

    /// The `n × n` identity in the given representation.
    pub fn identity(n: usize, repr: Repr) -> Self {
        match repr {
            Repr::Dense => PMatrix::Dense(Matrix::identity(n)),
            Repr::Sparse => PMatrix::Sparse(CsrMatrix::identity(n)),
        }
    }

    /// The representation this value currently uses.
    pub fn repr(&self) -> Repr {
        match self {
            PMatrix::Dense(_) => Repr::Dense,
            PMatrix::Sparse(_) => Repr::Sparse,
        }
    }

    /// Returns `true` for the CSR representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, PMatrix::Sparse(_))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            PMatrix::Dense(m) => m.rows(),
            PMatrix::Sparse(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            PMatrix::Dense(m) => m.cols(),
            PMatrix::Sparse(m) => m.cols(),
        }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows() == self.cols()
    }

    /// Number of structural non-zeros (dense: count of entries `!= 0`).
    pub fn nnz(&self) -> usize {
        match self {
            PMatrix::Dense(m) => m.as_slice().iter().filter(|&&x| x != 0.0).count(),
            PMatrix::Sparse(m) => m.nnz(),
        }
    }

    /// Heap bytes of the backing storage.
    pub fn memory_bytes(&self) -> usize {
        match self {
            PMatrix::Dense(m) => m.as_slice().len() * 8,
            PMatrix::Sparse(m) => m.memory_bytes(),
        }
    }

    /// Allocated heap bytes of the backing storage (sparse capacities
    /// included) — the summand of the repository-wide byte-accounting
    /// contract: a prepared sampler's resident footprint is exactly the
    /// sum of `resident_bytes()` over its matrices, so tests can assert
    /// the `O(nnz · log ℓ)` memory model instead of sampling RSS.
    pub fn resident_bytes(&self) -> usize {
        match self {
            PMatrix::Dense(m) => m.as_slice().len() * 8,
            PMatrix::Sparse(m) => m.resident_bytes(),
        }
    }

    /// Entry `(i, j)` (absent sparse entries read as `0.0`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            PMatrix::Dense(m) => m[(i, j)],
            PMatrix::Sparse(m) => m.get(i, j),
        }
    }

    /// Calls `f(j, value)` for each entry of row `i` the representation
    /// stores, in increasing column order (dense: every slot, including
    /// zeros; callers filter).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn for_each_in_row(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        match self {
            PMatrix::Dense(m) => {
                for (j, &x) in m.row(i).iter().enumerate() {
                    f(j, x);
                }
            }
            PMatrix::Sparse(m) => {
                let (cols, vals) = m.row(i);
                for (&j, &x) in cols.iter().zip(vals) {
                    f(j as usize, x);
                }
            }
        }
    }

    /// Sum of row `i` (bit-identical across representations).
    pub fn row_sum(&self, i: usize) -> f64 {
        match self {
            PMatrix::Dense(m) => m.row(i).iter().sum(),
            PMatrix::Sparse(m) => m.row_sum(i),
        }
    }

    /// Samples a column index from row `i` taken as an unnormalized
    /// weight vector — the [`crate::sample_index`] workhorse, consuming
    /// one `rng.gen::<f64>()` and returning the same index in both
    /// representations (the dense walk skips non-positive entries, which
    /// is exactly what CSR never stores).
    ///
    /// Returns `None` if the row has no positive mass.
    pub fn sample_row<R: Rng + ?Sized>(&self, rng: &mut R, i: usize) -> Option<usize> {
        match self {
            PMatrix::Dense(m) => crate::sample_index(rng, m.row(i)),
            PMatrix::Sparse(m) => {
                let (cols, vals) = m.row(i);
                let total: f64 = vals.iter().sum();
                if total.is_nan() || total <= 0.0 {
                    return None;
                }
                let mut target = rng.gen::<f64>() * total;
                let mut last_positive = None;
                for (&j, &w) in cols.iter().zip(vals) {
                    debug_assert!(w >= 0.0, "negative weight {w} at column {j}");
                    if w > 0.0 {
                        last_positive = Some(j as usize);
                        if target < w {
                            return Some(j as usize);
                        }
                        target -= w;
                    }
                }
                last_positive
            }
        }
    }

    /// A dense copy (cloning when already dense).
    pub fn to_dense(&self) -> Matrix {
        match self {
            PMatrix::Dense(m) => m.clone(),
            PMatrix::Sparse(m) => m.to_dense(),
        }
    }

    /// Converts into the dense representation.
    pub fn into_dense(self) -> Matrix {
        match self {
            PMatrix::Dense(m) => m,
            PMatrix::Sparse(m) => m.to_dense(),
        }
    }

    /// Borrows the dense payload, if this is the dense representation.
    pub fn as_dense(&self) -> Option<&Matrix> {
        match self {
            PMatrix::Dense(m) => Some(m),
            PMatrix::Sparse(_) => None,
        }
    }

    /// The fill-in tracker: promotes a sparse matrix to dense once its
    /// CSR footprint reaches the dense footprint (the memory break-even,
    /// ≈ 2/3 fill). Dense inputs pass through. Values are unchanged bit
    /// for bit.
    pub fn promoted(self) -> PMatrix {
        match self {
            PMatrix::Sparse(m) if m.memory_bytes() >= m.rows() * m.cols() * 8 => {
                PMatrix::Dense(m.to_dense())
            }
            other => other,
        }
    }

    /// Compresses a dense product back to CSR when that is strictly
    /// cheaper (used by pipelines whose operands were sparse but whose
    /// kernel produced a dense buffer). Values unchanged bit for bit.
    /// The decision is made from a count-only scan; the CSR copy is
    /// built only when it actually wins (densified products — the
    /// common case after a couple of squarings — cost no allocation).
    pub fn compacted(self) -> PMatrix {
        match self {
            PMatrix::Dense(m) => {
                let nnz = m.as_slice().iter().filter(|&&x| x != 0.0).count();
                let csr_bytes = nnz * 12 + (m.rows() + 1) * 8;
                if csr_bytes < m.as_slice().len() * 8 {
                    PMatrix::Sparse(CsrMatrix::from_dense(&m))
                } else {
                    PMatrix::Dense(m)
                }
            }
            other => other.promoted(),
        }
    }

    /// Matrix product `self · rhs`, dispatching on the operand
    /// representations: dense×dense runs the cache-tiled dense kernel
    /// (`threads`-way row-sharded), sparse×sparse runs the CSR
    /// accumulator kernel with the result run through the promotion
    /// tracker, and the mixed cases produce dense output directly. All
    /// four routes are bit-identical (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions mismatch.
    pub fn matmul(&self, rhs: &PMatrix, threads: usize) -> PMatrix {
        match (self, rhs) {
            (PMatrix::Dense(a), PMatrix::Dense(b)) => {
                PMatrix::Dense(a.matmul_parallel(b, threads.max(1)))
            }
            (PMatrix::Sparse(a), PMatrix::Sparse(b)) => PMatrix::Sparse(a.matmul(b)).promoted(),
            (PMatrix::Sparse(a), PMatrix::Dense(b)) => {
                PMatrix::Dense(a.matmul_dense_rhs(b, threads.max(1)))
            }
            (PMatrix::Dense(a), PMatrix::Sparse(b)) => {
                PMatrix::Dense(CsrMatrix::matmul_dense_lhs(a, b, threads.max(1)))
            }
        }
    }

    /// `self · self` through [`PMatrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn square(&self, threads: usize) -> PMatrix {
        assert!(self.is_square(), "square requires a square matrix");
        self.matmul(self, threads)
    }

    /// Entry-wise `self += rhs`. A sparse accumulator receiving a dense
    /// right-hand side is promoted first; sparse+sparse merges (and is
    /// run through the promotion tracker).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_in_place(&mut self, rhs: &PMatrix) {
        match (&mut *self, rhs) {
            (PMatrix::Dense(a), PMatrix::Dense(b)) => a.add_in_place(b),
            (PMatrix::Dense(a), PMatrix::Sparse(b)) => b.add_to_dense(a),
            (PMatrix::Sparse(a), PMatrix::Sparse(b)) => {
                *self = PMatrix::Sparse(a.add(b)).promoted();
            }
            (PMatrix::Sparse(a), PMatrix::Dense(b)) => {
                let mut acc = b.clone();
                // Dense + sparse commutes entry-wise to the same single
                // addition per slot.
                a.add_to_dense(&mut acc);
                *self = PMatrix::Dense(acc);
            }
        }
    }

    /// Truncates every entry toward zero (Lemma 7's `round(M)`), in
    /// place; sparse entries truncated to exactly zero are dropped.
    pub fn truncate_inplace(&mut self, fp: FixedPoint) {
        self.round_inplace(crate::Rounding::Fixed(fp));
    }

    /// Applies a [`crate::Rounding`] rule to every entry in place —
    /// the representation-adaptive `round(M)` of the power pipelines.
    /// `Exact` is a no-op; sparse entries rounded to exactly zero are
    /// dropped.
    pub fn round_inplace(&mut self, rounding: crate::Rounding) {
        if rounding.is_exact() {
            return;
        }
        match self {
            PMatrix::Dense(m) => rounding.round_matrix_inplace(m),
            PMatrix::Sparse(m) => m.map_values_retain(|x| rounding.apply(x)),
        }
    }

    /// Largest absolute entry-wise difference to another matrix (used by
    /// tests; representations compare by value).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &PMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        let mut worst = 0.0f64;
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                worst = worst.max((self.get(i, j) - other.get(i, j)).abs());
            }
        }
        worst
    }
}

impl From<Matrix> for PMatrix {
    fn from(m: Matrix) -> Self {
        PMatrix::Dense(m)
    }
}

impl From<CsrMatrix> for PMatrix {
    fn from(m: CsrMatrix) -> Self {
        PMatrix::Sparse(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn banded(n: usize, band: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i.abs_diff(j) <= band {
                ((i * 31 + j * 17) % 97) as f64 / 97.0 + 1e-9
            } else {
                0.0
            }
        })
    }

    #[test]
    fn both_representations_compute_identical_products() {
        for n in [3usize, 16, 65] {
            let d = banded(n, 2);
            let dense = PMatrix::Dense(d.clone());
            let sparse = PMatrix::Sparse(CsrMatrix::from_dense(&d));
            let dd = dense.matmul(&dense, 1).into_dense();
            assert_eq!(sparse.matmul(&sparse, 1).to_dense(), dd, "s*s, n={n}");
            assert_eq!(sparse.matmul(&dense, 2).to_dense(), dd, "s*d, n={n}");
            assert_eq!(dense.matmul(&sparse, 2).to_dense(), dd, "d*s, n={n}");
            assert_eq!(dense.square(3).to_dense(), dd, "square, n={n}");
        }
    }

    #[test]
    fn promotion_triggers_at_memory_breakeven_and_preserves_bits() {
        // A wide band squares to (nearly) full: the sparse square must
        // come back Dense, with the same bits as the dense square.
        let d = banded(32, 12);
        let sparse = PMatrix::Sparse(CsrMatrix::from_dense(&d));
        let sq = sparse.square(1);
        assert!(!sq.is_sparse(), "fill-in must promote");
        assert_eq!(sq.to_dense(), d.matmul(&d));
        // A narrow band stays sparse.
        let narrow = PMatrix::Sparse(CsrMatrix::from_dense(&banded(64, 1)));
        assert!(narrow.square(1).is_sparse());
    }

    #[test]
    fn sample_row_consumes_one_draw_and_matches_dense() {
        let d = banded(20, 3);
        let dense = PMatrix::Dense(d.clone());
        let sparse = PMatrix::Sparse(CsrMatrix::from_dense(&d));
        for i in 0..20 {
            let mut r1 = rand::rngs::StdRng::seed_from_u64(900 + i as u64);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(900 + i as u64);
            assert_eq!(dense.sample_row(&mut r1, i), sparse.sample_row(&mut r2, i));
            // Streams stay aligned after the draw.
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
        let empty = PMatrix::Sparse(CsrMatrix::zeros(2, 2));
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(empty.sample_row(&mut r, 0), None);
    }

    #[test]
    fn add_in_place_matches_dense_in_every_mix() {
        let a = banded(10, 2);
        let b = banded(10, 1);
        let expect = &a + &b;
        for (mut lhs, rhs) in [
            (PMatrix::Dense(a.clone()), PMatrix::Dense(b.clone())),
            (
                PMatrix::Dense(a.clone()),
                PMatrix::Sparse(CsrMatrix::from_dense(&b)),
            ),
            (
                PMatrix::Sparse(CsrMatrix::from_dense(&a)),
                PMatrix::Dense(b.clone()),
            ),
            (
                PMatrix::Sparse(CsrMatrix::from_dense(&a)),
                PMatrix::Sparse(CsrMatrix::from_dense(&b)),
            ),
        ] {
            lhs.add_in_place(&rhs);
            assert_eq!(lhs.to_dense(), expect);
        }
    }

    #[test]
    fn truncation_drops_sparse_zeros() {
        let fp = FixedPoint::new(4);
        let d = Matrix::from_rows(&[vec![0.5, 1.0 / 64.0], vec![0.0, 0.75]]);
        let mut dense = PMatrix::Dense(d.clone());
        let mut sparse = PMatrix::Sparse(CsrMatrix::from_dense(&d));
        dense.truncate_inplace(fp);
        sparse.truncate_inplace(fp);
        assert_eq!(sparse.to_dense(), dense.to_dense());
        assert_eq!(sparse.nnz(), 2, "1/64 truncates to zero at 4 bits");
    }

    #[test]
    fn sample_row_after_truncation_underflow_is_none_in_both_reprs() {
        // A row whose entire mass truncates away (every entry below the
        // fixed-point resolution) must sample to None — and consume zero
        // rng draws — identically in both representations.
        let fp = FixedPoint::new(4);
        let d = Matrix::from_rows(&[vec![1.0 / 64.0, 1.0 / 128.0], vec![0.5, 0.5]]);
        let mut dense = PMatrix::Dense(d.clone());
        let mut sparse = PMatrix::Sparse(CsrMatrix::from_dense(&d));
        dense.truncate_inplace(fp);
        sparse.truncate_inplace(fp);
        assert_eq!(sparse.row_sum(0), 0.0);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        assert_eq!(dense.sample_row(&mut r1, 0), None);
        assert_eq!(sparse.sample_row(&mut r2, 0), None);
        // Neither consumed a draw: the streams are still aligned with a
        // fresh rng.
        let mut fresh = rand::rngs::StdRng::seed_from_u64(5);
        let expect = fresh.gen::<u64>();
        assert_eq!(r1.gen::<u64>(), expect);
        assert_eq!(r2.gen::<u64>(), expect);
        // The surviving row still samples, identically.
        let mut r1 = rand::rngs::StdRng::seed_from_u64(6);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(6);
        assert_eq!(dense.sample_row(&mut r1, 1), sparse.sample_row(&mut r2, 1));
    }

    #[test]
    fn metadata_accessors() {
        let d = banded(8, 1);
        let sparse = PMatrix::Sparse(CsrMatrix::from_dense(&d));
        let dense = PMatrix::Dense(d);
        assert_eq!(sparse.shape(), (8, 8));
        assert!(sparse.is_square() && sparse.is_sparse() && !dense.is_sparse());
        assert_eq!(sparse.nnz(), dense.nnz());
        assert!(sparse.memory_bytes() < dense.memory_bytes());
        assert_eq!(sparse.repr(), Repr::Sparse);
        assert_eq!(dense.repr(), Repr::Dense);
        assert_eq!(dense.max_abs_diff(&sparse), 0.0);
        for i in 0..8 {
            assert_eq!(sparse.row_sum(i), dense.row_sum(i));
        }
        // compacted() round-trips a sparse-worthy dense buffer.
        assert!(PMatrix::Dense(banded(64, 1)).compacted().is_sparse());
    }
}
