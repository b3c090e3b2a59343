//! The dense microkernel layer: panel-blocked inner loops shared by the
//! dense and sparse×dense multiplies, plus the work-stealing row queue
//! the threaded kernels shard over.
//!
//! # The bit-identity contract
//!
//! Every kernel here accumulates each output entry over the inner index
//! in strictly increasing order with the `aik == 0.0` zero-skip, so the
//! blocked kernels are **bit-identical** to the plain `i-k-j` loop (and
//! to [`matmul_rows_into_ref`], the pre-panel tiled kernel retained as
//! the equality reference and the `e22` bench baseline). Blocking only
//! changes *where* partial sums live (registers vs memory), never the
//! order they are combined in.
//!
//! # Why panels vectorize
//!
//! The panel kernel keeps [`LANES`] output columns in a fixed-width
//! accumulator array for the whole inner tile. The compiler sees a
//! constant-length innermost loop over independent lanes and lowers it
//! to packed SIMD adds/multiplies with the accumulator in registers —
//! the reference kernel instead read and wrote the output row from
//! memory once per inner-index step, which is the same arithmetic with
//! `KC`× the memory traffic on the output row.
//!
//! A row's columns past its last full panel take one [`HALF_LANES`]
//! panel and then one panel as wide as what is left (`m mod 8` columns),
//! each monomorphized at its width, so even the last few columns keep
//! all their partial sums in registers at once. A scalar loop per tail
//! column would run one dependent add chain per column, one column after
//! another.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Inner-dimension tile: `KC` rows of `B` occupy `KC · m · 8` bytes
/// (≈ 128 KiB at `m = 256`), small enough to stay L2-resident while the
/// tile is swept once per output row.
pub(crate) const KC: usize = 64;

// `step_by(KC)` would panic on a zero step; pin the invariant at
// compile time instead of re-checking per call site.
const _: () = assert!(KC >= 1, "the inner tile must be non-empty");

/// Output-column panel width of the register-blocked kernels. Each
/// inner-index step adds one product into every lane, so a panel keeps
/// `LANES` independent add chains in flight: 16 lanes (eight SSE2
/// registers of partial sums) hide more of the add latency than 8 did.
/// Timed on the half product (release, one thread, medians of 15
/// interleaved rounds on a shared 2-vCPU Xeon VM, equal bits), summed
/// over thm1 phase sizes 12–122 in steps of 11 and 128: 648–660 µs at
/// 16 lanes, 805–810 µs at 8 lanes with the same column tail, 905–921
/// µs at 8 lanes with scalar tail columns. Over exact-variant sizes
/// 4–60 in steps of 4: 80, 90–91 and 121–125 µs. 24 lanes read within
/// 3% of 16; 32 lanes, all sixteen SSE2 registers, read 10–13% slower.
pub(crate) const LANES: usize = 16;

/// Width of the one panel between a row's last full [`LANES`] panel and
/// its tail; the tail then holds fewer than `HALF_LANES` columns, the
/// widths [`sweep_row`] monomorphizes.
const HALF_LANES: usize = LANES / 2;
const _: () = assert!(HALF_LANES == 8, "sweep_row spells out tails of 1-7");

/// How many work-queue chunks each worker gets on average. More chunks
/// mean finer-grained stealing (skewed row costs rebalance better) at
/// the price of more queue claims; 8 keeps the claim overhead invisible
/// next to even a single 64-column row product.
const STEAL_CHUNKS_PER_WORKER: usize = 8;

/// Computes rows `lo..hi` of `A·B` into `out` (which holds those rows
/// only), accumulating in place (`out` must be pre-zeroed).
///
/// `A` is `? × k` row-major, `B` is `k × m` row-major. The kernel is
/// cache-tiled over the inner dimension in [`KC`] chunks and
/// register-blocked over [`LANES`]-wide output panels: within a tile,
/// each panel's partial sums live in a fixed-width accumulator seeded
/// from `out` and stored back once per tile. Per entry, products are
/// still added over strictly increasing inner index (tiles in order,
/// indices within a tile in order), so the result is bit-identical to
/// the untiled `i-k-j` loop and to [`matmul_rows_into_ref`].
pub(crate) fn matmul_rows_into(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
) {
    panel_rows::<false>(a, b, out, k, m, lo, hi);
}

/// [`matmul_rows_into`] restricted to the entries on or above the
/// diagonal: row `i` sweeps its panels from column `i`, so every entry
/// `(i, j ≥ i)` is computed — each one bit for bit the full kernel's,
/// since an entry's accumulation never depends on its neighbors — and
/// the entries below the diagonal are left as they were. The caller
/// fills them (see `Matrix::square_reversible`).
pub(crate) fn matmul_upper_rows_into(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
) {
    panel_rows::<true>(a, b, out, k, m, lo, hi);
}

/// The panel kernel behind [`matmul_rows_into`] (`UPPER = false`: every
/// column) and [`matmul_upper_rows_into`] (`UPPER = true`: row `i` from
/// column `i`).
fn panel_rows<const UPPER: bool>(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
) {
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for i in lo..hi {
            let row = DenseTerms {
                row: &a[i * k + k0..i * k + k1],
                k0,
            };
            let out_row = &mut out[(i - lo) * m..(i - lo + 1) * m];
            sweep_row(&row, b, if UPPER { i } else { 0 }, out_row);
        }
    }
}

/// One row of `A` as the terms a panel consumes: its `(k, a_k)` pairs in
/// strictly increasing inner index `k`, zeros skipped.
pub(crate) trait RowTerms {
    /// Adds `a_k · B[k, j..j + W]` into `acc` for each term in turn (`B`
    /// row-major with `m` columns).
    fn add_panel<const W: usize>(&self, b: &[f64], m: usize, j: usize, acc: &mut [f64; W]);
}

/// A dense row tile `A[i, k0..k0 + row.len()]`; its zero entries are
/// skipped.
struct DenseTerms<'a> {
    row: &'a [f64],
    k0: usize,
}

impl RowTerms for DenseTerms<'_> {
    #[inline(always)]
    fn add_panel<const W: usize>(&self, b: &[f64], m: usize, j: usize, acc: &mut [f64; W]) {
        for (kk, &aik) in self.row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let base = (self.k0 + kk) * m + j;
            for (o, &bkj) in acc.iter_mut().zip(&b[base..base + W]) {
                *o += aik * bkj;
            }
        }
    }
}

/// A CSR row's stored entries, which hold no zeros.
pub(crate) struct SparseTerms<'a> {
    pub(crate) cols: &'a [u32],
    pub(crate) vals: &'a [f64],
}

impl RowTerms for SparseTerms<'_> {
    #[inline(always)]
    fn add_panel<const W: usize>(&self, b: &[f64], m: usize, j: usize, acc: &mut [f64; W]) {
        for (&k, &aik) in self.cols.iter().zip(self.vals) {
            let base = k as usize * m + j;
            for (o, &bkj) in acc.iter_mut().zip(&b[base..base + W]) {
                *o += aik * bkj;
            }
        }
    }
}

/// Adds `Σ_k a_k · B[k, j0..]` into `out_row[j0..]` (`B` row-major with
/// `out_row.len()` columns): [`LANES`]-wide panels, then one
/// [`HALF_LANES`] panel, then the last `m mod 8` columns as one panel of
/// their own width. Every entry takes `row`'s terms in the same order
/// whatever panel holds it, so the split never changes a bit.
pub(crate) fn sweep_row(row: &impl RowTerms, b: &[f64], j0: usize, out_row: &mut [f64]) {
    let m = out_row.len();
    let mut j = j0;
    while j + LANES <= m {
        panel::<LANES>(row, b, j, out_row);
        j += LANES;
    }
    if j + HALF_LANES <= m {
        panel::<HALF_LANES>(row, b, j, out_row);
        j += HALF_LANES;
    }
    match m - j {
        0 => {}
        1 => panel::<1>(row, b, j, out_row),
        2 => panel::<2>(row, b, j, out_row),
        3 => panel::<3>(row, b, j, out_row),
        4 => panel::<4>(row, b, j, out_row),
        5 => panel::<5>(row, b, j, out_row),
        6 => panel::<6>(row, b, j, out_row),
        7 => panel::<7>(row, b, j, out_row),
        _ => unreachable!("the tail is narrower than HALF_LANES"),
    }
}

/// One `W`-column panel of [`sweep_row`]: `out_row[j..j + W]` seeds a
/// fixed-width accumulator that takes every term's products, then is
/// stored back once.
#[inline(always)]
fn panel<const W: usize>(row: &impl RowTerms, b: &[f64], j: usize, out_row: &mut [f64]) {
    let mut acc = [0.0f64; W];
    acc.copy_from_slice(&out_row[j..j + W]);
    row.add_panel(b, out_row.len(), j, &mut acc);
    out_row[j..j + W].copy_from_slice(&acc);
}

/// The pre-panel tiled kernel, retained verbatim as the equality
/// reference for [`matmul_rows_into`] and the `e22` bench's "old f64"
/// timing baseline. Same tiling, same zero-skip, but the output row is
/// read and written from memory on every inner-index step.
pub(crate) fn matmul_rows_into_ref(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    k: usize,
    m: usize,
    lo: usize,
    hi: usize,
) {
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for i in lo..hi {
            let out_row = &mut out[(i - lo) * m..(i - lo + 1) * m];
            let a_row = &a[i * k + k0..i * k + k1];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[(k0 + kk) * m..(k0 + kk + 1) * m];
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
    }
}

/// Shards `out` (a `rows × m` row-major buffer) into row chunks and
/// runs `kernel(first_row, chunk)` over them on `threads` scoped
/// workers claiming chunks from an atomic-counter work queue until it
/// drains — so one expensive chunk (a skewed CSR row) no longer idles
/// the workers that finished their fixed shard early.
///
/// Chunks are disjoint and each is computed by exactly one worker with
/// a deterministic `(first_row, chunk)` pair, so the result is
/// byte-identical at every thread count and claim order — determinism
/// is free, as with the fixed sharding this replaces.
/// One entry in the work queue: the chunk's first row plus the `&mut`
/// slice for it, behind a never-contended mutex (see below).
type StealSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

pub(crate) fn steal_row_chunks<T: Send>(
    out: &mut [T],
    rows: usize,
    m: usize,
    threads: usize,
    kernel: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk_rows = rows
        .div_ceil(threads.max(1) * STEAL_CHUNKS_PER_WORKER)
        .max(1);
    // Each slot is claimed exactly once (the counter hands out each
    // index once), so the per-slot mutexes are never contended; they
    // exist only to move the `&mut` chunk out under safe Rust.
    let slots: Vec<StealSlot<'_, T>> = out
        .chunks_mut((chunk_rows * m).max(1))
        .enumerate()
        .map(|(c, chunk)| Mutex::new(Some((c * chunk_rows, chunk))))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(idx) else { break };
                let (lo, chunk) = slot
                    .lock()
                    .expect("work-queue slot lock")
                    .take()
                    .expect("each queue slot is claimed exactly once");
                kernel(lo, chunk);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, Matrix};

    /// `(rows, k, m)` shapes covering every column remainder of the 16-
    /// and 8-lane panels, both sides of the `KC = 64` tile and of the
    /// panel edges at 64 and 128, plus one shape with `k ≠ m`.
    fn kernel_shapes() -> Vec<(usize, usize, usize)> {
        (1..=40)
            .chain(63..=65)
            .chain(127..=130)
            .chain([200])
            .map(|n| (n, n, n))
            .chain([(5, 70, 37)])
            .collect()
    }

    /// A `rows × cols` operand of hashed fractions with exact zeros
    /// scattered through it (every seventh hash), for the zero-skip.
    fn operand(rows: usize, cols: usize, mul: usize, modulus: usize) -> Vec<f64> {
        (0..rows * cols)
            .map(|x| match (x * mul) % modulus {
                h if h % 7 == 0 => 0.0,
                h => h as f64 / modulus as f64 + 1e-9,
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `A · B` by the scalar CSR × dense loop: each stored entry of row
    /// `i`, in column order, scaled onto `B`'s row.
    fn csr_dense_scalar(a: &CsrMatrix, b: &[f64], m: usize) -> Vec<f64> {
        let mut out = vec![0.0; a.rows() * m];
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            for (&k, &v) in cols.iter().zip(vals) {
                let b_row = &b[k as usize * m..(k as usize + 1) * m];
                for (o, &bkj) in out[i * m..(i + 1) * m].iter_mut().zip(b_row) {
                    *o += v * bkj;
                }
            }
        }
        out
    }

    #[test]
    fn panel_kernel_matches_reference_bitwise() {
        for (rows, k, m) in kernel_shapes() {
            let a = operand(rows, k, 31, 97);
            let b = operand(k, m, 13, 89);
            let mut old = vec![0.0; rows * m];
            matmul_rows_into_ref(&a, &b, &mut old, k, m, 0, rows);
            let mut new = vec![0.0; rows * m];
            matmul_rows_into(&a, &b, &mut new, k, m, 0, rows);
            assert_eq!(bits(&new), bits(&old), "full, {rows}×{k}·{k}×{m}");

            let sparse = CsrMatrix::from_dense(&Matrix::from_fn(rows, k, |i, j| a[i * k + j]));
            let rhs = Matrix::from_fn(k, m, |i, j| b[i * m + j]);
            assert_eq!(
                bits(sparse.matmul_dense_rhs(&rhs, 1).as_slice()),
                bits(&csr_dense_scalar(&sparse, &b, m)),
                "CSR × dense, {rows}×{k}·{k}×{m}"
            );

            if rows == m && k == m {
                // The upper kernel, in two row chunks as the work queue
                // hands them out: every entry (i, j ≥ i) is the full
                // kernel's, and the entries below the diagonal keep the
                // sentinel they were seeded with.
                let sentinel = -3.5;
                let mut upper: Vec<f64> = (0..m * m)
                    .map(|x| if x % m < x / m { sentinel } else { 0.0 })
                    .collect();
                let mid = m / 2;
                let (top, bottom) = upper.split_at_mut(mid * m);
                matmul_upper_rows_into(&a, &b, top, m, m, 0, mid);
                matmul_upper_rows_into(&a, &b, bottom, m, m, mid, m);
                for i in 0..m {
                    for j in 0..m {
                        let want = if j < i { sentinel } else { old[i * m + j] };
                        assert_eq!(
                            upper[i * m + j].to_bits(),
                            want.to_bits(),
                            "upper, n = {m}, entry ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panel_kernel_keeps_the_zero_skip() {
        // Every third column of A is exact zeros and the matching rows of
        // B are NaN: a kernel that multiplied a zero would poison its
        // whole output row, in whatever panel or tail holds the column.
        // Row 0 of A is all zeros, so it must leave `out` untouched bit
        // for bit (the sparse pipeline relies on 0·x never contributing
        // −0.0).
        for (rows, k, m) in kernel_shapes() {
            let skipped = |kk: usize| kk % 3 == 1;
            let a: Vec<f64> = (0..rows * k)
                .map(|x| match (x / k, x % k) {
                    (0, _) => 0.0,
                    (_, kk) if skipped(kk) => 0.0,
                    _ => ((x * 31) % 97) as f64 / 97.0 + 1e-9,
                })
                .collect();
            let b: Vec<f64> = (0..k * m)
                .map(|x| {
                    if skipped(x / m) {
                        f64::NAN
                    } else {
                        -(x as f64) - 1.0
                    }
                })
                .collect();
            let mut full = vec![0.0; rows * m];
            matmul_rows_into(&a, &b, &mut full, k, m, 0, rows);
            assert!(full.iter().all(|x| !x.is_nan()), "full, {rows}×{k}·{k}×{m}");
            assert!(
                full[..m].iter().all(|&x| x.to_bits() == 0),
                "full, zero row"
            );
            let sparse = CsrMatrix::from_dense(&Matrix::from_fn(rows, k, |i, j| a[i * k + j]));
            let rhs = Matrix::from_fn(k, m, |i, j| b[i * m + j]);
            let csr = sparse.matmul_dense_rhs(&rhs, 1);
            assert_eq!(bits(csr.as_slice()), bits(&full), "CSR × dense, {rows}×{k}");
            if rows == m && k == m {
                let mut upper = vec![0.0; m * m];
                matmul_upper_rows_into(&a, &b, &mut upper, m, m, 0, m);
                assert!(upper.iter().all(|x| !x.is_nan()), "upper, n = {m}");
                assert!(
                    upper[..m].iter().all(|&x| x.to_bits() == 0),
                    "upper, zero row"
                );
            }
        }
    }

    #[test]
    fn stealing_covers_every_chunk_once() {
        for rows in [0usize, 1, 5, 64, 97] {
            for threads in [1usize, 2, 4, 8] {
                let m = 3;
                let mut out = vec![0.0; rows * m];
                steal_row_chunks(&mut out, rows, m, threads, |lo, chunk| {
                    for (r, row) in chunk.chunks_mut(m).enumerate() {
                        for (j, x) in row.iter_mut().enumerate() {
                            *x += ((lo + r) * m + j) as f64 + 1.0;
                        }
                    }
                });
                let expect: Vec<f64> = (0..rows * m).map(|x| x as f64 + 1.0).collect();
                assert_eq!(out, expect, "rows = {rows}, threads = {threads}");
            }
        }
    }
}
