//! Samplers for weighted perfect matchings / midpoint placements (§1.8).
//!
//! The paper samples a perfect matching of `B` with probability
//! proportional to its weight by combining the Jerrum–Sinclair–Vigoda
//! permanent FPRAS \[46\] with the Jerrum–Valiant–Vazirani
//! counting-to-sampling reduction \[47\]. This module provides:
//!
//! * [`ExactPermanentSampler`] — the JVV self-reduction over *exact*
//!   permanents: perfect samples, used as ground truth and for the small
//!   instances that dominate in practice. One table of suffix permanents
//!   per instance (`O(V · Π(m_j + 1))` to build for `V` distinct values
//!   of multiplicities `m_j`, at most `2^k` entries for `k` slots, so
//!   2 MiB at [`MAX_EXACT_SLOTS`]) gives every slot's weights;
//! * [`SwapChainSampler`] — a Metropolis chain over slot-value
//!   arrangements whose stationary law is exactly the target; the
//!   repository's stand-in for the JSV FPRAS, whose constants make it
//!   impractical to run, validated against the exact sampler in
//!   experiment E9;
//! * [`sample_per_group_shuffle`] — the Appendix §5.3 error-free
//!   placement: each start–end pair's own multiset, uniformly permuted.

use crate::{Assignment, MatchingInstance};
use rand::Rng;

/// Error returned when sampling cannot proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchingError {
    /// No consistent assignment has positive weight.
    Infeasible,
    /// The instance is too large for exact permanent evaluation.
    TooLargeForExact {
        /// Total slot count of the offending instance.
        slots: usize,
    },
}

impl std::fmt::Display for MatchingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchingError::Infeasible => write!(f, "no positive-weight assignment exists"),
            MatchingError::TooLargeForExact { slots } => {
                write!(
                    f,
                    "instance with {slots} slots exceeds exact-permanent limit"
                )
            }
        }
    }
}

impl std::error::Error for MatchingError {}

/// Largest instance (total slots) the exact sampler accepts.
pub const MAX_EXACT_SLOTS: usize = 18;

/// Exact sampler: the JVV self-reduction over one suffix-permanent table.
///
/// Walks the slots `t = 0..k−1` in group order and draws slot `t`'s
/// value with probability proportional to
/// `R_j · w(j, g_t) · perm(rest)`, where `R` counts the copies still
/// unplaced and `rest` is the instance left once one copy of `j` fills
/// slot `t`; the product telescopes to the target `P(assignment) ∝ Π w`.
///
/// Every `perm(rest)` is read from one table per instance, built before
/// the first slot: for each remaining-count vector `r ≤ m` (mixed radix,
/// `Π(m_j + 1) ≤ 2^k` entries), `G[r]` is the permanent of `r`'s copies
/// against the last `|r|` slots, `G[0] = 1` and
/// `G[r] = Σ_{j: r_j>0} r_j · w(j, g_{k−|r|}) · G[r − e_j]`. The build
/// costs `O(V · Π(m_j + 1))` for `V` distinct values, once per instance,
/// and the table takes at most `2^18` floats (2 MiB) at
/// [`MAX_EXACT_SLOTS`]; each slot then reads one entry per candidate. The
/// recurrence adds only non-negative terms, so nothing cancels. Each slot
/// makes one [`cct_linalg::sample_index`] call over the values in index
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactPermanentSampler;

impl ExactPermanentSampler {
    /// Draws a perfect sample.
    ///
    /// # Errors
    ///
    /// [`MatchingError::TooLargeForExact`] above [`MAX_EXACT_SLOTS`]
    /// slots; [`MatchingError::Infeasible`] if all assignments have zero
    /// weight.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        inst: &MatchingInstance,
        rng: &mut R,
    ) -> Result<Assignment, MatchingError> {
        let total = inst.total_slots();
        if total > MAX_EXACT_SLOTS {
            return Err(MatchingError::TooLargeForExact { slots: total });
        }
        let table = SuffixPermanents::new(inst);
        let mut remaining = inst.value_counts().to_vec();
        let mut at = table.full();
        let mut weights = vec![0.0; inst.num_values()];
        let mut per_group = Vec::with_capacity(inst.num_groups());
        for (g, &size) in inst.group_sizes().iter().enumerate() {
            let mut slots = Vec::with_capacity(size);
            for _ in 0..size {
                table.slot_weights(&remaining, at, g, &mut weights);
                let j = cct_linalg::sample_index(rng, &weights).ok_or(MatchingError::Infeasible)?;
                remaining[j] -= 1;
                at -= table.strides[j];
                slots.push(j);
            }
            per_group.push(slots);
        }
        Ok(Assignment { per_group })
    }
}

/// The suffix permanents of one instance: `perms[idx(r)]` is the
/// permanent of the copies counted by `r` against the instance's last
/// `|r|` slots, with `idx(r) = Σ_j r_j · strides[j]`.
struct SuffixPermanents {
    /// `weights[g·V + j] = w(j, g)`, the instance's table flattened.
    weights: Vec<f64>,
    strides: Vec<usize>,
    perms: Vec<f64>,
}

impl SuffixPermanents {
    fn new(inst: &MatchingInstance) -> Self {
        let values = inst.num_values();
        let counts = inst.value_counts();
        let mut weights = Vec::with_capacity(inst.num_groups() * values);
        for g in 0..inst.num_groups() {
            weights.extend((0..values).map(|j| inst.weight(j, g)));
        }
        let mut strides = Vec::with_capacity(values);
        let mut len = 1;
        for &m in counts {
            strides.push(len);
            len *= m + 1;
        }
        // The group of slot `k − d`, the first of the last `d` slots.
        let total = inst.total_slots();
        let mut group_at = vec![0; total + 1];
        let mut slot = 0;
        for (g, &size) in inst.group_sizes().iter().enumerate() {
            for _ in 0..size {
                group_at[total - slot] = g;
                slot += 1;
            }
        }
        let mut perms = vec![0.0; len];
        perms[0] = 1.0;
        // Odometer over `r` in index order, so every `r − e_j` is filled
        // before `r`; `depth = |r|`.
        let mut r = vec![0; values];
        let mut depth = 0;
        for idx in 1..len {
            let mut j = 0;
            while r[j] == counts[j] {
                depth -= r[j];
                r[j] = 0;
                j += 1;
            }
            r[j] += 1;
            depth += 1;
            let row = &weights[group_at[depth] * values..][..values];
            let mut sum = 0.0;
            for (j, (&r_j, &w)) in r.iter().zip(row).enumerate() {
                if r_j > 0 && w != 0.0 {
                    sum += r_j as f64 * w * perms[idx - strides[j]];
                }
            }
            perms[idx] = sum;
        }
        SuffixPermanents {
            weights,
            strides,
            perms,
        }
    }

    /// Index of the whole instance's count vector `m`.
    fn full(&self) -> usize {
        self.perms.len() - 1
    }

    /// The JVV weights of a slot of group `g` when `remaining` (at index
    /// `at`) is still unplaced: `R_j · w(j, g) · G[R − e_j]`, and `0` for
    /// values with no copy left or zero weight.
    fn slot_weights(&self, remaining: &[usize], at: usize, g: usize, out: &mut [f64]) {
        let values = remaining.len();
        let row = &self.weights[g * values..][..values];
        for (j, out_j) in out.iter_mut().enumerate() {
            *out_j = if remaining[j] == 0 || row[j] == 0.0 {
                0.0
            } else {
                remaining[j] as f64 * row[j] * self.perms[at - self.strides[j]]
            };
        }
    }
}

/// Metropolis swap chain over slot arrangements — the JSV substitution.
///
/// State: a consistent assignment. Move: pick two slots uniformly at
/// random and propose swapping their values; accept with probability
/// `min(1, w_after / w_before)`. The proposal is symmetric, so the
/// stationary distribution is exactly `P(assignment) ∝ Π w`; only the
/// mixing *rate* is heuristic (measured in experiment E9).
#[derive(Debug, Clone, Copy)]
pub struct SwapChainSampler {
    /// Number of proposed swaps per slot (total steps =
    /// `steps_per_slot · total_slots`).
    pub steps_per_slot: usize,
}

impl Default for SwapChainSampler {
    fn default() -> Self {
        SwapChainSampler { steps_per_slot: 64 }
    }
}

impl SwapChainSampler {
    /// Runs the chain from `start` (or from a backtracking-found
    /// positive-weight assignment if `None`).
    ///
    /// # Errors
    ///
    /// [`MatchingError::Infeasible`] if no positive-weight start could be
    /// found.
    ///
    /// # Panics
    ///
    /// Panics if a provided `start` is inconsistent with the instance or
    /// has zero weight.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        inst: &MatchingInstance,
        start: Option<Assignment>,
        rng: &mut R,
    ) -> Result<Assignment, MatchingError> {
        let total = inst.total_slots();
        if total == 0 {
            return Ok(Assignment {
                per_group: vec![Vec::new(); inst.num_groups()],
            });
        }
        let mut state = match start {
            Some(a) => {
                assert!(inst.is_consistent(&a), "start assignment inconsistent");
                // Per-slot positivity, not the weight product — products
                // over thousands of slots underflow f64 to zero.
                assert!(
                    inst.is_positive(&a),
                    "start assignment has a zero-weight slot"
                );
                a
            }
            None => inst
                .find_positive_assignment(2_000_000)
                .ok_or(MatchingError::Infeasible)?,
        };
        // Flat view of (group, slot) pairs for uniform slot picking.
        let flat: Vec<(usize, usize)> = (0..inst.num_groups())
            .flat_map(|g| (0..inst.group_sizes()[g]).map(move |s| (g, s)))
            .collect();
        let steps = self.steps_per_slot * total;
        for _ in 0..steps {
            let (g1, s1) = flat[rng.gen_range(0..flat.len())];
            let (g2, s2) = flat[rng.gen_range(0..flat.len())];
            if g1 == g2 {
                // Same group: slots are weight-equivalent; swapping is a
                // distributional no-op but keeps intra-group exchange.
                let v1 = state.per_group[g1][s1];
                state.per_group[g1][s1] = state.per_group[g2][s2];
                state.per_group[g2][s2] = v1;
                continue;
            }
            let v1 = state.per_group[g1][s1];
            let v2 = state.per_group[g2][s2];
            if v1 == v2 {
                continue;
            }
            let before = inst.weight(v1, g1) * inst.weight(v2, g2);
            let after = inst.weight(v2, g1) * inst.weight(v1, g2);
            debug_assert!(before > 0.0, "chain left the positive-weight region");
            // Every weight comparison consumes one uniform, whichever way
            // it goes: two products that are equal in exact arithmetic can
            // differ in their last bits, and the branch they take must not
            // decide how much of the stream the proposal uses.
            let u: f64 = rng.gen();
            let accept = after > 0.0 && (after >= before || u < after / before);
            if accept {
                state.per_group[g1][s1] = v2;
                state.per_group[g2][s2] = v1;
            }
        }
        Ok(state)
    }
}

/// Appendix §5.3: each group `g` has its *own* multiset of midpoints
/// (`per_group_multisets[g]`); within a group every permutation is
/// equally likely (the midpoints were drawn i.i.d. for the same
/// start–end pair), so a uniform shuffle is an error-free placement.
///
/// Returns the shuffled per-group slot assignments.
pub fn sample_per_group_shuffle<R: Rng + ?Sized>(
    per_group_multisets: Vec<Vec<usize>>,
    rng: &mut R,
) -> Assignment {
    let mut per_group = per_group_multisets;
    let mut a = Assignment {
        per_group: std::mem::take(&mut per_group),
    };
    a.shuffle_within_groups(rng);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_linalg::{permanent, permanent_naive, Matrix};
    use cct_walks::stats;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// `perm(rest)`: the permanent of `remaining` copies against
    /// `slots_left` slots of each group.
    type ReducedPermanent = fn(&MatchingInstance, &[usize], &[usize]) -> f64;

    /// The reduced instance's `N × N` biadjacency matrix.
    fn reduced_matrix(
        inst: &MatchingInstance,
        remaining: &[usize],
        slots_left: &[usize],
    ) -> Matrix {
        let rows: Vec<usize> = (0..remaining.len())
            .flat_map(|j| std::iter::repeat_n(j, remaining[j]))
            .collect();
        let cols: Vec<usize> = (0..slots_left.len())
            .flat_map(|g| std::iter::repeat_n(g, slots_left[g]))
            .collect();
        assert_eq!(rows.len(), cols.len());
        Matrix::from_fn(rows.len(), cols.len(), |r, c| inst.weight(rows[r], cols[c]))
    }

    /// The route the suffix table replaced: a fresh Ryser permanent,
    /// clamped at zero because its signed sum can cancel to a tiny
    /// negative float.
    fn ryser(inst: &MatchingInstance, remaining: &[usize], slots_left: &[usize]) -> f64 {
        permanent(&reduced_matrix(inst, remaining, slots_left)).max(0.0)
    }

    fn naive(inst: &MatchingInstance, remaining: &[usize], slots_left: &[usize]) -> f64 {
        permanent_naive(&reduced_matrix(inst, remaining, slots_left))
    }

    /// A double-double `hi + lo`, about 106 significant bits.
    #[derive(Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        fn renormalized(hi: f64, lo: f64) -> Dd {
            let s = hi + lo;
            Dd(s, lo - (s - hi))
        }

        fn add(self, o: Dd) -> Dd {
            let s = self.0 + o.0;
            let v = s - self.0;
            let e = (self.0 - (s - v)) + (o.0 - v);
            Dd::renormalized(s, e + self.1 + o.1)
        }

        fn mul(self, o: Dd) -> Dd {
            let p = self.0 * o.0;
            let e = self.0.mul_add(o.0, -p);
            Dd::renormalized(p, e + (self.0 * o.1 + self.1 * o.0))
        }
    }

    /// [`ryser`] in double-double arithmetic: about 106 bits, where the
    /// signed sum's cancellation at 14–18 slots costs plain Ryser up to
    /// 26 of its 53. The reduced matrix's identical columns (the slots of
    /// one group) and rows (the copies of one value) are grouped: the
    /// subsets taking `x_g` of group `g`'s slots share one term
    /// `Π_j (Σ_g x_g·w(j,g))^{r_j}`, counted `Π_g C(s_g, x_g)` times.
    fn ryser_dd(inst: &MatchingInstance, remaining: &[usize], slots_left: &[usize]) -> f64 {
        let n: usize = remaining.iter().sum();
        let mut x = vec![0usize; slots_left.len()];
        let mut total = Dd(0.0, 0.0);
        loop {
            let taken: usize = x.iter().sum();
            let ways: f64 = x
                .iter()
                .zip(slots_left)
                .map(|(&x_g, &s_g)| {
                    (0..x_g).fold(1.0, |c, i| c * (s_g - i) as f64 / (i + 1) as f64)
                })
                .product();
            let mut term = Dd(if (n - taken) % 2 == 0 { ways } else { -ways }, 0.0);
            for (j, &r_j) in remaining.iter().enumerate() {
                let row = x.iter().enumerate().fold(Dd(0.0, 0.0), |acc, (g, &x_g)| {
                    acc.add(Dd(x_g as f64, 0.0).mul(Dd(inst.weight(j, g), 0.0)))
                });
                for _ in 0..r_j {
                    term = term.mul(row);
                }
            }
            total = total.add(term);
            let Some(g) = (0..x.len()).find(|&g| x[g] < slots_left[g]) else {
                return total.0 + total.1;
            };
            x[..g].fill(0);
            x[g] += 1;
        }
    }

    /// The JVV weights of one slot of group `g` from `perm` — `remaining`
    /// copies, `slots_left` with the current slot already taken out.
    fn reference_slot_weights(
        inst: &MatchingInstance,
        remaining: &mut [usize],
        slots_left: &[usize],
        g: usize,
        perm: ReducedPermanent,
    ) -> Vec<f64> {
        (0..inst.num_values())
            .map(|j| {
                if remaining[j] == 0 || inst.weight(j, g) == 0.0 {
                    return 0.0;
                }
                remaining[j] -= 1;
                let rest = perm(inst, remaining, slots_left);
                remaining[j] += 1;
                remaining[j] as f64 * inst.weight(j, g) * rest
            })
            .collect()
    }

    /// The per-candidate Ryser sampler the table replaced.
    fn reference_sample<R: Rng + ?Sized>(
        inst: &MatchingInstance,
        rng: &mut R,
    ) -> Result<Assignment, MatchingError> {
        let mut remaining = inst.value_counts().to_vec();
        let mut slots_left = inst.group_sizes().to_vec();
        let mut per_group = vec![Vec::new(); inst.num_groups()];
        for g in 0..inst.num_groups() {
            for _ in 0..inst.group_sizes()[g] {
                slots_left[g] -= 1;
                let weights = reference_slot_weights(inst, &mut remaining, &slots_left, g, ryser);
                let j = cct_linalg::sample_index(rng, &weights).ok_or(MatchingError::Infeasible)?;
                remaining[j] -= 1;
                per_group[g].push(j);
            }
        }
        Ok(Assignment { per_group })
    }

    /// A random instance of `lo..=hi` slots over at most `cap` values and
    /// `cap` groups, with repeated values, multi-slot groups and (at rate
    /// `zeros`) zero weights.
    fn random_instance(
        r: &mut rand::rngs::StdRng,
        (lo, hi): (usize, usize),
        cap: usize,
        zeros: f64,
    ) -> MatchingInstance {
        let k = r.gen_range(lo..=hi);
        let values = r.gen_range(1..=k.min(cap));
        let mut counts = vec![1; values];
        for _ in values..k {
            counts[r.gen_range(0..values)] += 1;
        }
        let groups = r.gen_range(1..=k.min(cap));
        let mut sizes = vec![1; groups];
        for _ in groups..k {
            sizes[r.gen_range(0..groups)] += 1;
        }
        let weights = (0..values)
            .map(|_| {
                (0..groups)
                    .map(|_| {
                        if r.gen_bool(zeros) {
                            0.0
                        } else {
                            r.gen_range(0.05..1.0)
                        }
                    })
                    .collect()
            })
            .collect();
        MatchingInstance::new(counts, sizes, weights).unwrap()
    }

    /// The largest difference between two slot weight vectors, relative
    /// to the reference's total.
    fn relative_gap(table: &[f64], reference: &[f64]) -> f64 {
        let total: f64 = reference.iter().sum();
        let gap = table
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        gap / total
    }

    /// Walks `inst`'s slots along the table sampler's draws from `seed`
    /// and returns, per slot, the table's weights and each reference's.
    /// An infeasible instance stops after its first slot.
    fn weights_along_a_draw(
        inst: &MatchingInstance,
        seed: u64,
        refs: &[ReducedPermanent],
    ) -> Vec<(Vec<f64>, Vec<Vec<f64>>)> {
        let table = SuffixPermanents::new(inst);
        let mut r = rng(seed);
        let mut remaining = inst.value_counts().to_vec();
        let mut slots_left = inst.group_sizes().to_vec();
        let mut at = table.full();
        let mut out = Vec::new();
        for g in 0..inst.num_groups() {
            for _ in 0..inst.group_sizes()[g] {
                slots_left[g] -= 1;
                let mut weights = vec![0.0; inst.num_values()];
                table.slot_weights(&remaining, at, g, &mut weights);
                let reference = refs
                    .iter()
                    .map(|&perm| reference_slot_weights(inst, &mut remaining, &slots_left, g, perm))
                    .collect();
                let pick = cct_linalg::sample_index(&mut r, &weights);
                out.push((weights, reference));
                let Some(j) = pick else {
                    return out;
                };
                remaining[j] -= 1;
                at -= table.strides[j];
            }
        }
        out
    }

    /// Normalized exact distribution over assignments.
    fn exact_distribution(inst: &MatchingInstance) -> Vec<(Assignment, f64)> {
        let all = inst.enumerate_assignments();
        let z: f64 = all.iter().map(|(_, w)| w).sum();
        assert!(z > 0.0);
        all.into_iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|(a, w)| (a, w / z))
            .collect()
    }

    fn skewed_instance() -> MatchingInstance {
        MatchingInstance::new(
            vec![2, 1, 1],
            vec![2, 2],
            vec![vec![1.0, 3.0], vec![2.0, 1.0], vec![5.0, 0.5]],
        )
        .unwrap()
    }

    fn run_chi_square<F: FnMut() -> Assignment>(
        inst: &MatchingInstance,
        trials: usize,
        mut draw: F,
    ) -> (f64, f64) {
        let exact = exact_distribution(inst);
        let mut counts: HashMap<Assignment, usize> = HashMap::new();
        for _ in 0..trials {
            let a = draw();
            assert!(inst.is_consistent(&a));
            assert!(inst.assignment_weight(&a) > 0.0);
            *counts.entry(a).or_insert(0) += 1;
        }
        stats::goodness_of_fit(&counts, &exact, trials)
    }

    #[test]
    fn exact_sampler_matches_enumeration() {
        let inst = skewed_instance();
        let sampler = ExactPermanentSampler;
        let mut r = rng(50);
        let (stat, crit) = run_chi_square(&inst, 30_000, || sampler.sample(&inst, &mut r).unwrap());
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn exact_sampler_with_zero_weights() {
        // Value 2 cannot enter group 1.
        let inst = MatchingInstance::new(
            vec![1, 1, 1],
            vec![2, 1],
            vec![vec![1.0, 1.0], vec![2.0, 1.0], vec![1.0, 0.0]],
        )
        .unwrap();
        let sampler = ExactPermanentSampler;
        let mut r = rng(51);
        for _ in 0..200 {
            let a = sampler.sample(&inst, &mut r).unwrap();
            assert!(!a.per_group[1].contains(&2));
        }
        let (stat, crit) = run_chi_square(&inst, 20_000, || sampler.sample(&inst, &mut r).unwrap());
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn exact_sampler_infeasible_detected() {
        let inst = MatchingInstance::new(vec![1, 1], vec![2], vec![vec![0.0], vec![1.0]]).unwrap();
        let mut r = rng(52);
        assert_eq!(
            ExactPermanentSampler.sample(&inst, &mut r).unwrap_err(),
            MatchingError::Infeasible
        );
    }

    #[test]
    fn exact_sampler_size_guard() {
        let inst = MatchingInstance::new(
            vec![MAX_EXACT_SLOTS + 1],
            vec![MAX_EXACT_SLOTS + 1],
            vec![vec![1.0]],
        )
        .unwrap();
        let mut r = rng(53);
        assert!(matches!(
            ExactPermanentSampler.sample(&inst, &mut r),
            Err(MatchingError::TooLargeForExact { .. })
        ));
    }

    #[test]
    fn swap_chain_matches_enumeration() {
        let inst = skewed_instance();
        let sampler = SwapChainSampler {
            steps_per_slot: 200,
        };
        let mut r = rng(54);
        let (stat, crit) = run_chi_square(&inst, 30_000, || {
            sampler.sample(&inst, None, &mut r).unwrap()
        });
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn swap_chain_with_hint_start() {
        let inst = skewed_instance();
        let hint = inst.find_positive_assignment(1_000_000).unwrap();
        let sampler = SwapChainSampler {
            steps_per_slot: 200,
        };
        let mut r = rng(55);
        let (stat, crit) = run_chi_square(&inst, 25_000, || {
            sampler.sample(&inst, Some(hint.clone()), &mut r).unwrap()
        });
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn swap_chain_respects_zero_weights() {
        let inst =
            MatchingInstance::new(vec![2, 2], vec![2, 2], vec![vec![1.0, 0.0], vec![1.0, 1.0]])
                .unwrap();
        let sampler = SwapChainSampler::default();
        let mut r = rng(56);
        for _ in 0..100 {
            let a = sampler.sample(&inst, None, &mut r).unwrap();
            assert!(!a.per_group[1].contains(&0));
            assert!(inst.assignment_weight(&a) > 0.0);
        }
    }

    #[test]
    fn swap_chain_stream_use_ignores_last_bit_noise() {
        // Equal weights accept every swap outright; one weight a last bit
        // lower sends half the compared proposals through the uniform. The
        // chain must consume the same stream either way.
        let flat = MatchingInstance::new(vec![2, 2], vec![2, 2], vec![vec![1.0; 2]; 2]).unwrap();
        let noisy = MatchingInstance::new(
            vec![2, 2],
            vec![2, 2],
            vec![vec![1.0, 1.0 - f64::EPSILON], vec![1.0, 1.0]],
        )
        .unwrap();
        let sampler = SwapChainSampler::default();
        let mut r1 = rng(59);
        let mut r2 = rng(59);
        sampler.sample(&flat, None, &mut r1).unwrap();
        sampler.sample(&noisy, None, &mut r2).unwrap();
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "streams diverged");
    }

    #[test]
    fn empty_instance_samples_trivially() {
        let inst = MatchingInstance::new(vec![], vec![], vec![]).unwrap();
        let mut r = rng(57);
        let a = ExactPermanentSampler.sample(&inst, &mut r).unwrap();
        assert_eq!(a.total_slots(), 0);
        let b = SwapChainSampler::default()
            .sample(&inst, None, &mut r)
            .unwrap();
        assert_eq!(b.total_slots(), 0);
    }

    #[test]
    fn per_group_shuffle_is_uniform() {
        // Group multiset {0, 1, 2}: all 6 orderings equally likely.
        let mut r = rng(58);
        let trials = 18_000;
        let counts =
            stats::empirical_counts((0..trials).map(|_| {
                sample_per_group_shuffle(vec![vec![0, 1, 2]], &mut r).per_group[0].clone()
            }));
        assert_eq!(counts.len(), 6);
        let exact: Vec<(Vec<usize>, f64)> =
            counts.keys().cloned().map(|k| (k, 1.0 / 6.0)).collect();
        let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn single_group_exact_equals_uniform_shuffle() {
        // With one group the weight of every arrangement is identical, so
        // the exact sampler must produce the uniform shuffle law.
        let inst = MatchingInstance::new(
            vec![1, 1, 1],
            vec![3],
            vec![vec![0.3], vec![0.5], vec![0.2]],
        )
        .unwrap();
        let mut r = rng(59);
        let trials = 18_000;
        let counts = stats::empirical_counts(
            (0..trials).map(|_| ExactPermanentSampler.sample(&inst, &mut r).unwrap()),
        );
        assert_eq!(counts.len(), 6);
        let exact: Vec<(Assignment, f64)> =
            counts.keys().cloned().map(|k| (k, 1.0 / 6.0)).collect();
        let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn table_weights_match_per_candidate_ryser_and_naive_permanents() {
        let mut r = rng(60);
        let mut feasible = 0;
        for case in 0..300 {
            let inst = random_instance(&mut r, (1, 10), 10, 0.2);
            let slots = weights_along_a_draw(&inst, case, &[ryser, naive]);
            if slots.len() == inst.total_slots() && slots[0].0.iter().any(|&w| w > 0.0) {
                feasible += 1;
                for (t, (table, reference)) in slots.iter().enumerate() {
                    let (ryser, naive) = (&reference[0], &reference[1]);
                    let exact_gap = relative_gap(table, naive);
                    assert!(
                        exact_gap <= 1e-12,
                        "case {case} slot {t}: naive gap {exact_gap:e}"
                    );
                    // Ryser's signed sum loses up to 1.5e-10 of the total
                    // here; the table sits within that error of it.
                    let ryser_error = relative_gap(ryser, naive);
                    let gap = relative_gap(table, ryser);
                    assert!(
                        gap <= ryser_error + 1e-12,
                        "case {case} slot {t}: ryser gap {gap:e}, its error {ryser_error:e}"
                    );
                    // Zeros are structural in the table and the expansion.
                    for (a, b) in table.iter().zip(naive) {
                        assert_eq!(*a == 0.0, *b == 0.0, "case {case} slot {t}");
                    }
                }
            } else {
                // Infeasible: the table and the expansion are exactly zero
                // at the first slot. Ryser's signed sum can leave noise
                // there (7e-14 on one of these), which the old route drew
                // from before failing at a later slot.
                assert_eq!(slots.len(), 1, "case {case}");
                assert!(slots[0].0.iter().chain(&slots[0].1[1]).all(|&w| w == 0.0));
            }
        }
        assert!(feasible >= 200, "only {feasible} of 300 instances feasible");
    }

    #[test]
    fn table_sampler_draws_the_reference_assignments() {
        let mut r = rng(61);
        for case in 0..300 {
            let inst = random_instance(&mut r, (1, 10), 10, 0.2);
            for seed in 0..20 {
                let (mut a, mut b) = (rng(seed), rng(seed));
                let table = ExactPermanentSampler.sample(&inst, &mut a);
                assert_eq!(
                    table,
                    reference_sample(&inst, &mut b),
                    "case {case} seed {seed}"
                );
                if table.is_ok() {
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "case {case} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn table_weights_match_ryser_at_fourteen_to_eighteen_slots() {
        // Plain Ryser drifts here, up to 2.2e-8 of a slot's weight total
        // on these instances, so the reference runs in double-double
        // arithmetic; the table sat within 3.4e-16 of it.
        let mut r = rng(62);
        for k in 14..=MAX_EXACT_SLOTS {
            for case in 0..2 {
                let inst = loop {
                    let inst = random_instance(&mut r, (k, k), 8, 0.1);
                    if inst.find_positive_assignment(1_000_000).is_some() {
                        break inst;
                    }
                };
                let slots = weights_along_a_draw(&inst, case, &[ryser_dd]);
                assert_eq!(slots.len(), k, "{k} slots, case {case}: stopped early");
                for (t, (table, reference)) in slots.iter().enumerate() {
                    let gap = relative_gap(table, &reference[0]);
                    assert!(
                        gap <= 1e-12,
                        "{k} slots, case {case}, slot {t}: gap {gap:e}"
                    );
                }
            }
        }
    }
}
