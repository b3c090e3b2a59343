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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Inner-dimension tile: `KC` rows of `B` occupy `KC · m · 8` bytes
/// (≈ 128 KiB at `m = 256`), small enough to stay L2-resident while the
/// tile is swept once per output row.
pub(crate) const KC: usize = 64;

// `step_by(KC)` would panic on a zero step; pin the invariant at
// compile time instead of re-checking per call site.
const _: () = assert!(KC >= 1, "the inner tile must be non-empty");

/// Output-column panel width of the register-blocked kernels: 8 lanes
/// fill four SSE2 registers (or two AVX ones) and unroll cleanly.
pub(crate) const LANES: usize = 8;

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

/// [`matmul_rows_into`] restricted to the output panels on or above the
/// diagonal: row `i` starts at the panel holding column `i`, so every
/// entry `(i, j ≥ i)` is computed — each one bit for bit the full
/// kernel's, since an entry's accumulation never depends on its
/// neighbors — and the panels wholly below the diagonal are left as
/// they were. The caller fills them (see `Matrix::square_reversible`).
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
/// panel) and [`matmul_upper_rows_into`] (`UPPER = true`: row `i` from
/// the panel holding column `i`).
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
            let a_row = &a[i * k + k0..i * k + k1];
            let out_row = &mut out[(i - lo) * m..(i - lo + 1) * m];
            let mut j = if UPPER { i / LANES * LANES } else { 0 };
            while j + LANES <= m {
                let mut acc = [0.0f64; LANES];
                acc.copy_from_slice(&out_row[j..j + LANES]);
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_panel = &b[(k0 + kk) * m + j..(k0 + kk) * m + j + LANES];
                    for (o, &bkj) in acc.iter_mut().zip(b_panel) {
                        *o += aik * bkj;
                    }
                }
                out_row[j..j + LANES].copy_from_slice(&acc);
                j += LANES;
            }
            // Remainder columns (m mod LANES): scalar accumulators, same
            // per-entry order.
            for jj in j..m {
                let mut acc = out_row[jj];
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * b[(k0 + kk) * m + jj];
                }
                out_row[jj] = acc;
            }
        }
    }
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

    #[test]
    fn panel_kernel_matches_reference_bitwise() {
        // Sizes straddling both the KC = 64 tile and the LANES = 8 panel
        // boundaries, with awkward remainders.
        for n in [1usize, 7, 8, 9, 63, 64, 65, 130, 200] {
            let a: Vec<f64> = (0..n * n)
                .map(|x| ((x * 31) % 97) as f64 / 97.0 + 1e-9)
                .collect();
            let b: Vec<f64> = (0..n * n).map(|x| ((x * 13) % 89) as f64 / 89.0).collect();
            let mut new = vec![0.0; n * n];
            let mut old = vec![0.0; n * n];
            matmul_rows_into(&a, &b, &mut new, n, n, 0, n);
            matmul_rows_into_ref(&a, &b, &mut old, n, n, 0, n);
            assert_eq!(new, old, "n = {n}");
        }
    }

    #[test]
    fn panel_kernel_keeps_the_zero_skip() {
        // A row of exact zeros must leave `out` untouched bit-for-bit
        // (the sparse pipeline relies on 0·x never contributing −0.0).
        let n = 17;
        let a = vec![0.0; n * n];
        let b: Vec<f64> = (0..n * n).map(|x| -(x as f64) - 1.0).collect();
        let mut out = vec![0.0; n * n];
        matmul_rows_into(&a, &b, &mut out, n, n, 0, n);
        assert!(out.iter().all(|&x| x.to_bits() == 0), "got {out:?}");
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
