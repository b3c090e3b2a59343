//! Property-based tests for `cct-linalg` invariants.

use cct_linalg::{
    det, det_exact, is_row_stochastic, is_row_substochastic, normalize_rows, permanent,
    permanent_naive, powers_of_two, powers_rounded, subtractive_error, total_variation, CsrMatrix,
    FixedPoint, Lu, Matrix,
};
use proptest::prelude::*;

/// Cheap deterministic entry generator for the work-stealing tests: the
/// parallel path only engages at ≥ 64 rows, and a proptest `vec`
/// strategy of 64² floats shrinks painfully — hashing a proptest-drawn
/// seed gives the same case diversity at constant generation cost.
fn hashed_entry(i: usize, j: usize, seed: u64) -> f64 {
    let mut h = (i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((j as u64) << 32)
        .wrapping_add(seed);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h % 1_000_000) as f64 / 1_000_000.0
}

/// A CSR matrix whose row `i` keeps column `j` when the hash says so
/// (density ~1/4), with a guaranteed diagonal so no row is empty.
fn hashed_csr(n: usize, seed: u64) -> CsrMatrix {
    let mut builder = CsrMatrix::builder(n, n);
    for i in 0..n {
        for j in 0..n {
            let keep = hashed_entry(i, j, seed ^ 0xc5) < 0.25 || i == j;
            if keep {
                builder.push(j, hashed_entry(i, j, seed) + 0.001);
            }
        }
        builder.finish_row();
    }
    builder.build()
}

/// The scalar LU the row-slice [`Lu`] replaced, kept as the equality
/// reference: index-by-index elimination over every multiplier, zeros
/// included, and substitution one right-hand-side column at a time.
struct ScalarLu {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

impl ScalarLu {
    fn new(a: &Matrix) -> Option<ScalarLu> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            let mut piv = k;
            let mut best = lu[(k, k)].abs();
            for i in k + 1..n {
                if lu[(i, k)].abs() > best {
                    best = lu[(i, k)].abs();
                    piv = i;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if piv != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(piv, j)];
                    lu[(piv, j)] = tmp;
                }
                perm.swap(k, piv);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let sub = factor * lu[(k, j)];
                    lu[(i, j)] -= sub;
                }
            }
        }
        Some(ScalarLu { lu, perm, sign })
    }

    fn det(&self) -> f64 {
        (0..self.lu.rows()).fold(self.sign, |acc, i| acc * self.lu[(i, i)])
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.lu[(i, k)] * y[k];
            }
        }
        for i in (0..n).rev() {
            for k in i + 1..n {
                let sub = self.lu[(i, k)] * y[k];
                y[i] -= sub;
            }
            y[i] /= self.lu[(i, i)];
        }
        y
    }

    fn solve_matrix(&self, b: &Matrix) -> Matrix {
        let n = self.lu.rows();
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j));
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        out
    }
}

/// Asserts that [`Lu`] and [`ScalarLu`] agree under `==` on `a`: the same
/// singularity verdict, determinant, vector solve, multi-column solve
/// and inverse.
fn assert_lu_matches_scalar(a: &Matrix, rhs: &Matrix) {
    let (fast, reference) = match (Lu::new(a.clone()), ScalarLu::new(a)) {
        (Ok(fast), Some(reference)) => (fast, reference),
        (Err(_), None) => return,
        (fast, reference) => panic!(
            "singularity verdicts differ: row-slice {:?}, scalar {}",
            fast.err(),
            reference.is_some()
        ),
    };
    assert_eq!(fast.det(), reference.det());
    let b = rhs.col(0);
    assert_eq!(fast.solve(&b), reference.solve(&b));
    assert_eq!(fast.solve_matrix(rhs), reference.solve_matrix(rhs));
    let n = a.rows();
    assert_eq!(fast.inverse(), reference.solve_matrix(&Matrix::identity(n)));
    // Every other column of the inverse, in reverse order.
    let cols: Vec<usize> = (0..n).rev().step_by(2).collect();
    let unit_cols = Matrix::from_fn(n, cols.len(), |i, c| f64::from(i == cols[c]));
    assert_eq!(
        fast.inverse_columns(&cols),
        reference.solve_matrix(&unit_cols)
    );
}

/// Strategy: an `n × n` matrix and an `n × m` right-hand side, with each
/// entry zeroed when its draw falls below `zero_below` (so the zero-skip
/// paths run), plus `diag` added on the diagonal.
fn lu_case(max_n: usize, zero_below: f64, diag: f64) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_n, 1usize..=4).prop_flat_map(move |(n, m)| {
        (
            proptest::collection::vec(0.0f64..1.0, n * n),
            proptest::collection::vec(-1.0f64..1.0, n * m),
        )
            .prop_map(move |(a, b)| {
                let a = Matrix::from_fn(n, n, |i, j| {
                    let x = a[i * n + j];
                    let x = if x < zero_below { 0.0 } else { x - 0.5 };
                    x + if i == j { diag * n as f64 } else { 0.0 }
                });
                (a, Matrix::from_fn(n, m, |i, j| b[i * m + j]))
            })
    })
}

/// Strategy: a square matrix with entries in [0, 1).
fn square_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..1.0, n * n)
            .prop_map(move |data| Matrix::from_fn(n, n, |i, j| data[i * n + j]))
    })
}

/// Strategy: a row-stochastic matrix (positive entries, normalized rows).
fn stochastic_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0.01f64..1.0, n * n).prop_map(move |data| {
            let mut m = Matrix::from_fn(n, n, |i, j| data[i * n + j]);
            normalize_rows(&mut m);
            m
        })
    })
}

/// Strategy: a small integer matrix for exact determinant checks.
fn int_matrix(max_n: usize) -> impl Strategy<Value = Vec<Vec<i128>>> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-5i128..=5, n * n)
            .prop_map(move |data| (0..n).map(|i| data[i * n..(i + 1) * n].to_vec()).collect())
    })
}

proptest! {
    #[test]
    fn matmul_associative(a in square_matrix(6), bs in proptest::collection::vec(0.0f64..1.0, 72)) {
        let n = a.rows();
        let b = Matrix::from_fn(n, n, |i, j| bs[(i * n + j) % bs.len()]);
        let c = Matrix::from_fn(n, n, |i, j| bs[(i * 3 + j * 7) % bs.len()]);
        let left = (&(&a * &b)) * &c;
        let right = &a * &(&b * &c);
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn transpose_of_product(a in square_matrix(6)) {
        let b = a.scale(0.5);
        let lhs = (&a * &b).transpose();
        let rhs = &b.transpose() * &a.transpose();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn det_is_multiplicative(a in square_matrix(5)) {
        let b = Matrix::from_fn(a.rows(), a.rows(), |i, j| if i == j { 2.0 } else if (i + j) % 2 == 0 { 0.5 } else { 0.0 });
        let lhs = det(&(&a * &b));
        let rhs = det(&a) * det(&b);
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0));
    }

    #[test]
    fn lu_solve_roundtrip(a in square_matrix(6)) {
        // Diagonally dominate to guarantee non-singularity.
        let n = a.rows();
        let dd = Matrix::from_fn(n, n, |i, j| a[(i, j)] + if i == j { n as f64 + 1.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let x = Lu::new(dd.clone()).unwrap().solve(&b);
        for i in 0..n {
            let recovered: f64 = (0..n).map(|j| dd[(i, j)] * x[j]).sum();
            prop_assert!((recovered - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn row_slice_lu_matches_scalar_on_random_inputs((a, b) in lu_case(9, 0.0, 0.0)) {
        assert_lu_matches_scalar(&a, &b);
    }

    #[test]
    fn row_slice_lu_matches_scalar_on_sparse_inputs((a, b) in lu_case(9, 0.6, 0.0)) {
        // Mostly-zero entries: exact-zero multipliers in both factors.
        assert_lu_matches_scalar(&a, &b);
    }

    #[test]
    fn row_slice_lu_matches_scalar_on_diagonally_dominant_inputs(
        (a, b) in lu_case(12, 0.5, 1.0),
    ) {
        // The shape of `I − T`: no row swaps, sparse multipliers.
        assert_lu_matches_scalar(&a, &b);
    }

    #[test]
    fn row_slice_lu_matches_scalar_when_every_step_pivots(
        (a, b) in lu_case(12, 0.3, 1.0),
    ) {
        // Reversing the rows of a diagonally dominant matrix puts its
        // largest entries on the anti-diagonal: partial pivoting swaps.
        let n = a.rows();
        let reversed = Matrix::from_fn(n, n, |i, j| a[(n - 1 - i, j)]);
        assert_lu_matches_scalar(&reversed, &b);
    }

    #[test]
    fn exact_det_matches_float(m in int_matrix(5)) {
        let n = m.len();
        let exact = det_exact(&m).unwrap() as f64;
        let float = det(&Matrix::from_fn(n, n, |i, j| m[i][j] as f64));
        prop_assert!((exact - float).abs() < 1e-6 * exact.abs().max(1.0));
    }

    #[test]
    fn stochastic_powers_stay_stochastic(p in stochastic_matrix(6)) {
        for m in powers_of_two(&p, 5, 1) {
            prop_assert!(is_row_stochastic(&m, 1e-9));
        }
    }

    #[test]
    fn rounded_powers_are_substochastic_underestimates(p in stochastic_matrix(5)) {
        let fp = FixedPoint::new(24);
        let exact = powers_of_two(&p, 4, 1);
        let rounded = powers_rounded(&p, 4, fp, 1);
        // subtractive_error asserts the under-approximation property internally.
        let (worst, _) = subtractive_error(&exact, &rounded);
        prop_assert!(worst < 1e-3);
        for r in &rounded {
            prop_assert!(is_row_substochastic(r, 1e-12));
        }
    }

    #[test]
    fn permanent_matches_naive(a in square_matrix(5)) {
        let p = permanent(&a);
        let nv = permanent_naive(&a);
        prop_assert!((p - nv).abs() < 1e-8 * nv.abs().max(1.0));
    }

    #[test]
    fn tv_distance_is_metric_like(p in proptest::collection::vec(0.001f64..1.0, 2..12)) {
        let q: Vec<f64> = p.iter().rev().copied().collect();
        let d_pq = total_variation(&p, &q);
        let d_qp = total_variation(&q, &p);
        prop_assert!((d_pq - d_qp).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d_pq));
        prop_assert!(total_variation(&p, &p) < 1e-12);
    }

    #[test]
    fn truncate_subtractive(x in 0.0f64..1000.0, bits in 1u32..=52) {
        let fp = FixedPoint::new(bits);
        let t = fp.truncate(x);
        prop_assert!(t <= x);
        prop_assert!(x - t < fp.delta());
    }

    #[test]
    fn work_stealing_dense_matmul_matches_sequential(
        n in 64usize..=80,
        m in 1usize..=48,
        seed in any::<u64>(),
    ) {
        // The determinism contract: row chunks claimed in any order by
        // any number of workers write the same bits as the sequential
        // kernel, because each output row is computed whole by whoever
        // claims it.
        let a = Matrix::from_fn(n, n, |i, j| hashed_entry(i, j, seed));
        let b = Matrix::from_fn(n, m, |i, j| hashed_entry(i, j, seed ^ 0x9d));
        let sequential = a.matmul_parallel(&b, 1);
        for workers in [2usize, 4, 8] {
            let stolen = a.matmul_parallel(&b, workers);
            prop_assert_eq!(
                sequential.as_slice(), stolen.as_slice(),
                "dense stealing diverged at {} workers", workers
            );
        }
    }

    #[test]
    fn work_stealing_csr_matmul_matches_sequential(
        n in 64usize..=80,
        seed in any::<u64>(),
    ) {
        let a = hashed_csr(n, seed);
        let rhs = Matrix::from_fn(n, 32, |i, j| hashed_entry(i, j, seed ^ 0x3f));
        let sequential = a.matmul_dense_rhs(&rhs, 1);
        for workers in [2usize, 4, 8] {
            let stolen = a.matmul_dense_rhs(&rhs, workers);
            prop_assert_eq!(
                sequential.as_slice(), stolen.as_slice(),
                "CSR stealing diverged at {} workers", workers
            );
            let fixed = a.matmul_dense_rhs_fixed(&rhs, workers);
            prop_assert_eq!(
                sequential.as_slice(), fixed.as_slice(),
                "CSR fixed sharding diverged at {} workers", workers
            );
        }
    }

    #[test]
    fn work_stealing_survives_pathological_row_skew(
        n in 64usize..=80,
        dense_row in 0usize..64,
        seed in any::<u64>(),
    ) {
        // One row carries almost all the work (a hub vertex): fixed
        // shards strand a worker with it, stealing rebalances — either
        // way the product must stay bit-identical to sequential.
        let dense_row = dense_row % n;
        let mut builder = CsrMatrix::builder(n, n);
        for i in 0..n {
            if i == dense_row {
                for j in 0..n {
                    builder.push(j, hashed_entry(i, j, seed) + 0.001);
                }
            } else {
                builder.push(i, hashed_entry(i, i, seed) + 0.001);
            }
            builder.finish_row();
        }
        let a = builder.build();
        let rhs = Matrix::from_fn(n, 24, |i, j| hashed_entry(i, j, seed ^ 0x77));
        let sequential = a.matmul_dense_rhs(&rhs, 1);
        for workers in [2usize, 4, 8] {
            prop_assert_eq!(
                sequential.as_slice(), a.matmul_dense_rhs(&rhs, workers).as_slice(),
                "skewed stealing diverged at {} workers", workers
            );
            prop_assert_eq!(
                sequential.as_slice(), a.matmul_dense_rhs_fixed(&rhs, workers).as_slice(),
                "skewed fixed sharding diverged at {} workers", workers
            );
        }
    }
}

/// Sizes on both sides of the panel kernel's `KC = 64` inner tile and
/// `LANES = 8` output panel, for the half-product properties.
const KERNEL_EDGES: [usize; 14] = [1, 2, 7, 8, 9, 63, 64, 65, 71, 72, 127, 128, 129, 200];

/// A size in `1..=200`, drawn half the time from [`KERNEL_EDGES`].
fn kernel_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        (0..KERNEL_EDGES.len()).prop_map(|i| KERNEL_EDGES[i]),
        1usize..=200
    ]
}

/// A random reversible chain on `n` states: symmetric edge weights on a
/// hashed pattern (density ~1/3, self-loops included, plus a cycle so
/// no row is empty), spread over `2^spread` by a hashed power of two,
/// and `P = D⁻¹W`. Returns `P` and its stationary weights `D`.
fn reversible_chain(n: usize, seed: u64, spread: u32) -> (Matrix, Vec<f64>) {
    let mut w = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let on_cycle = j == (i + 1) % n;
            if on_cycle || hashed_entry(i, j, seed ^ 0x2b) < 0.33 {
                let exp = (hashed_entry(i, j, seed ^ 0x5e) * f64::from(spread)).floor();
                let x = (1.0 + hashed_entry(i, j, seed)) * 2f64.powf(exp);
                w[(i, j)] = x;
                w[(j, i)] = x;
            }
        }
    }
    let deg: Vec<f64> = (0..n).map(|i| w.row(i).iter().sum()).collect();
    let p = Matrix::from_fn(n, n, |i, j| w[(i, j)] / deg[i]);
    (p, deg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn half_product_keeps_the_full_kernels_upper_bits_at_every_thread_count(
        n in kernel_size(),
        seed in any::<u64>(),
    ) {
        // Any square operand (a fifth of its entries exact zeros, for
        // the zero-skip): the upper entries are kernel outputs whatever
        // the weights, and the whole result shards deterministically.
        let a = Matrix::from_fn(n, n, |i, j| {
            let x = hashed_entry(i, j, seed);
            if x < 0.2 { 0.0 } else { x }
        });
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + hashed_entry(i, 0, seed ^ 0x7a)).collect();
        let full = a.matmul_parallel(&a, 1);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let one = a.square_reversible(&weights, 1);
        for i in 0..n {
            for j in i..n {
                prop_assert_eq!(
                    one[(i, j)].to_bits(), full[(i, j)].to_bits(),
                    "n = {}: upper entry ({}, {})", n, i, j
                );
            }
        }
        for threads in [2usize, 4] {
            prop_assert_eq!(
                bits(&a.square_reversible(&weights, threads)), bits(&one),
                "n = {}: {} threads", n, threads
            );
        }
    }

    #[test]
    fn half_product_lower_triangle_matches_the_full_product_on_reversible_chains(
        n in kernel_size(),
        seed in any::<u64>(),
        spread in prop_oneof![Just(20u32), 0u32..=20],
    ) {
        let (p, d) = reversible_chain(n, seed, spread);
        let full = p.matmul_parallel(&p, 1);
        let half = p.square_reversible(&d, 2);
        for i in 0..n {
            for j in 0..i {
                let (x, y) = (half[(i, j)], full[(i, j)]);
                prop_assert!(
                    (x - y).abs() <= 1e-13 * x.abs().max(y.abs()),
                    "n = {}, spread 2^{}: ({}, {}) is {:e}, the full product {:e}",
                    n, spread, i, j, x, y
                );
            }
        }
    }
}
