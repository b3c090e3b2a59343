//! Fixed-point truncation of probability matrices — Lemma 7 and §2.5.
//!
//! The Congested Clique moves `O(log n)`-bit words, so transition-matrix
//! entries must be truncated to `O(log 1/δ)` bits before they are shipped
//! or squared. Lemma 7: truncating after every squaring yields `M^k` with
//! *subtractive* error at most `β` when `δ = Θ(β / k^c log k)`. Truncation
//! (rounding toward zero) is essential — it keeps every approximation an
//! under-approximation, which §2.5's coupling argument relies on.

use crate::Matrix;

/// A fixed-point precision specification: values are truncated to
/// `fractional_bits` binary digits after the point.
///
/// # Examples
///
/// ```
/// use cct_linalg::FixedPoint;
///
/// let fp = FixedPoint::new(8);
/// assert_eq!(fp.truncate(0.999), 0.99609375); // 255/256
/// assert_eq!(fp.delta(), 1.0 / 256.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FixedPoint {
    fractional_bits: u32,
}

impl FixedPoint {
    /// Creates a spec with the given number of fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `fractional_bits` is 0 or exceeds 52 (the `f64` mantissa).
    pub fn new(fractional_bits: u32) -> Self {
        assert!(
            (1..=52).contains(&fractional_bits),
            "fractional_bits must be in 1..=52, got {fractional_bits}"
        );
        FixedPoint { fractional_bits }
    }

    /// Chooses the precision needed for subtractive error `≤ beta` after
    /// `k`-th powers of an `n × n` transition matrix, per Lemma 7.
    ///
    /// The recurrence `E(k) ≤ (n+1)·E(k/2) + δ` over `log₂ k` squarings
    /// gives `E(k) ≤ δ·(n+1)^{log₂ k} · 2`, so we pick
    /// `δ = beta / (2·(n+1)^{log₂ k})` and convert to bits, clamped to the
    /// representable range.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `(0, 1)` or `k == 0`.
    pub fn for_power_error(n: usize, k: u64, beta: f64) -> Self {
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
        assert!(k > 0, "k must be positive");
        let log_k = (64 - k.leading_zeros()) as f64;
        let delta = beta / (2.0 * ((n as f64) + 1.0).powf(log_k));
        let bits = (-delta.log2()).ceil().clamp(1.0, 52.0) as u32;
        FixedPoint::new(bits)
    }

    /// The truncation unit `δ = 2^{-fractional_bits}`; truncating a
    /// non-negative value loses at most `δ`.
    pub fn delta(&self) -> f64 {
        (0.5f64).powi(self.fractional_bits as i32)
    }

    /// Number of fractional bits.
    pub fn fractional_bits(&self) -> u32 {
        self.fractional_bits
    }

    /// How many `O(log n)`-bit machine words one entry occupies in the
    /// Congested Clique (used by the round ledger).
    pub fn words_per_entry(&self, n: usize) -> usize {
        let word_bits = (usize::BITS - n.max(2).leading_zeros()) as usize;
        (self.fractional_bits as usize).div_ceil(word_bits).max(1)
    }

    /// Truncates a single non-negative value toward zero.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `x` is negative.
    pub fn truncate(&self, x: f64) -> f64 {
        debug_assert!(x >= 0.0, "truncate expects non-negative values, got {x}");
        let scale = (2.0f64).powi(self.fractional_bits as i32);
        (x * scale).floor() / scale
    }

    /// Truncates every entry of a matrix toward zero (the paper's
    /// `round(M)`).
    pub fn truncate_matrix(&self, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        self.truncate_matrix_inplace(&mut out);
        out
    }

    /// Truncates every entry toward zero in place — the allocation-free
    /// twin of [`FixedPoint::truncate_matrix`], used by the power
    /// pipelines so rounding between squarings stops cloning `n²` buffers.
    pub fn truncate_matrix_inplace(&self, m: &mut Matrix) {
        m.map_inplace(|x| self.truncate(x));
    }
}

/// The per-squaring rounding rule of the power pipelines — what
/// `round(M)` means in Algorithm 1 / Lemma 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rounding {
    /// No rounding between squarings (plain `f64`).
    Exact,
    /// Fixed-point truncation toward zero (Lemma 7's `round`).
    Fixed(FixedPoint),
}

impl Rounding {
    /// `true` when no rounding is applied (the default f64 route).
    pub fn is_exact(self) -> bool {
        matches!(self, Rounding::Exact)
    }

    /// Rounds a single non-negative value per the rule.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `x` is negative.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Rounding::Exact => x,
            Rounding::Fixed(fp) => fp.truncate(x),
        }
    }

    /// Rounds every entry of a dense matrix in place.
    pub fn round_matrix_inplace(self, m: &mut Matrix) {
        match self {
            Rounding::Exact => {}
            Rounding::Fixed(fp) => fp.truncate_matrix_inplace(m),
        }
    }

    /// How many `O(log n)`-bit machine words one rounded entry occupies
    /// in the Congested Clique (the round ledger's `words_per_entry`):
    /// exact `f64` entries count as one word by the repo's long-standing
    /// convention, fixed-point entries per [`FixedPoint::words_per_entry`].
    pub fn words_per_entry(self, n: usize) -> usize {
        match self {
            Rounding::Exact => 1,
            Rounding::Fixed(fp) => fp.words_per_entry(n),
        }
    }
}

/// Computes `M'(2^k)` for `k = 0..levels` via rounded iterated squaring:
/// `M'(1) = round(M)`, `M'(2k) = round(M'(k)²)` — exactly the construction
/// in the proof of Lemma 7.
///
/// Every returned matrix under-approximates the true power entry-wise
/// (tested in this module and exercised by experiment E7).
///
/// # Panics
///
/// Panics if `m` is not square or `levels == 0`.
pub fn powers_rounded(m: &Matrix, levels: usize, fp: FixedPoint, threads: usize) -> Vec<Matrix> {
    assert!(m.is_square(), "powers require a square matrix");
    assert!(levels > 0, "need at least one level");
    let n = m.rows();
    let mut out = Vec::with_capacity(levels);
    out.push(fp.truncate_matrix(m));
    for _ in 1..levels {
        // Square into the retained table slot and truncate it in place:
        // one allocation per level (the slot itself), no intermediates.
        let mut next = Matrix::zeros(n, n);
        let last = out.last().expect("non-empty");
        last.matmul_parallel_into(last, &mut next, threads);
        fp.truncate_matrix_inplace(&mut next);
        out.push(next);
    }
    out
}

/// Measures the worst subtractive error `max_k max_ij (M^{2^k} − M'(2^k))`
/// between exact and rounded power tables.
///
/// Returns `(max_error, per_level_errors)`. Used by experiment E7 to
/// validate Lemma 7's bound.
///
/// # Panics
///
/// Panics if the tables have different lengths or shapes.
pub fn subtractive_error(exact: &[Matrix], rounded: &[Matrix]) -> (f64, Vec<f64>) {
    assert_eq!(exact.len(), rounded.len(), "table length mismatch");
    let per: Vec<f64> = exact
        .iter()
        .zip(rounded)
        .map(|(e, r)| {
            assert_eq!(e.shape(), r.shape(), "shape mismatch");
            let mut worst: f64 = 0.0;
            for i in 0..e.rows() {
                for j in 0..e.cols() {
                    let diff = e[(i, j)] - r[(i, j)];
                    assert!(
                        diff >= -1e-12,
                        "rounded power over-approximates at ({i},{j}): {diff}"
                    );
                    worst = worst.max(diff);
                }
            }
            worst
        })
        .collect();
    (per.iter().fold(0.0f64, |a, &b| a.max(b)), per)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::{is_row_substochastic, powers_of_two};

    fn p3() -> Matrix {
        // Walk on a triangle with a pendant: K3 plus leaf on vertex 0.
        Matrix::from_rows(&[
            vec![0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            vec![0.5, 0.0, 0.5, 0.0],
            vec![0.5, 0.5, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ])
    }

    #[test]
    fn truncate_is_floor_at_scale() {
        let fp = FixedPoint::new(4);
        assert_eq!(fp.truncate(0.5), 0.5);
        assert_eq!(fp.truncate(1.0 / 3.0), 5.0 / 16.0);
        assert_eq!(fp.truncate(0.0), 0.0);
        assert_eq!(fp.delta(), 1.0 / 16.0);
    }

    #[test]
    fn truncation_never_increases() {
        let fp = FixedPoint::new(10);
        for i in 0..1000 {
            let x = i as f64 * 0.00317;
            let t = fp.truncate(x);
            assert!(t <= x && x - t < fp.delta());
        }
    }

    #[test]
    #[should_panic(expected = "fractional_bits")]
    fn zero_bits_rejected() {
        let _ = FixedPoint::new(0);
    }

    #[test]
    fn words_per_entry_counts() {
        let fp = FixedPoint::new(40);
        // n = 1024 → 10-bit words (plus sign of ceil) → 40/11 rounded up.
        let w = fp.words_per_entry(1024);
        assert!((3..=4).contains(&w), "got {w}");
        assert_eq!(FixedPoint::new(4).words_per_entry(1 << 20), 1);
    }

    #[test]
    fn rounded_powers_under_approximate() {
        let p = p3();
        let fp = FixedPoint::new(20);
        let exact = powers_of_two(&p, 6, 1);
        let rounded = powers_rounded(&p, 6, fp, 1);
        let (worst, per) = subtractive_error(&exact, &rounded);
        assert!(worst >= 0.0);
        assert_eq!(per.len(), 6);
        for r in &rounded {
            assert!(is_row_substochastic(r, 1e-12));
        }
    }

    #[test]
    fn lemma7_error_bound_holds() {
        // E(2^k) ≤ δ·2·(n+1)^k for every level k (the recurrence used by
        // FixedPoint::for_power_error).
        let p = p3();
        let n = p.rows();
        let fp = FixedPoint::new(30);
        let delta = fp.delta();
        let levels = 6;
        let exact = powers_of_two(&p, levels, 1);
        let rounded = powers_rounded(&p, levels, fp, 1);
        let (_, per) = subtractive_error(&exact, &rounded);
        for (k, &err) in per.iter().enumerate() {
            let bound = 2.0 * delta * ((n as f64) + 1.0).powi(k as i32);
            assert!(err <= bound, "level {k}: {err} > {bound}");
        }
    }

    #[test]
    fn for_power_error_achieves_beta() {
        let p = p3();
        let beta = 1e-6;
        let k = 64u64; // 2^6
        let fp = FixedPoint::for_power_error(p.rows(), k, beta);
        let exact = powers_of_two(&p, 7, 1);
        let rounded = powers_rounded(&p, 7, fp, 1);
        let (worst, _) = subtractive_error(&exact, &rounded);
        assert!(worst <= beta, "worst error {worst} exceeds beta {beta}");
    }

    #[test]
    fn rounding_variants_dispatch() {
        let fp = FixedPoint::new(4);
        assert!(Rounding::Exact.is_exact());
        assert!(!Rounding::Fixed(fp).is_exact());
        assert_eq!(Rounding::Exact.apply(1.0 / 3.0), 1.0 / 3.0);
        assert_eq!(Rounding::Fixed(fp).apply(1.0 / 3.0), 5.0 / 16.0);
        let mut m = Matrix::from_rows(&[vec![1.0 / 3.0, 0.5]]);
        Rounding::Fixed(fp).round_matrix_inplace(&mut m);
        assert_eq!(m[(0, 0)], 5.0 / 16.0);
        assert_eq!(m[(0, 1)], 0.5);
        // Ledger word widths: exact = 1, fixed per its bit width.
        assert_eq!(Rounding::Exact.words_per_entry(1024), 1);
        assert_eq!(
            Rounding::Fixed(fp).words_per_entry(1024),
            fp.words_per_entry(1024)
        );
    }
}
