//! Samplers for weighted perfect matchings / midpoint placements (§1.8).
//!
//! The paper samples a perfect matching of `B` with probability
//! proportional to its weight by combining the Jerrum–Sinclair–Vigoda
//! permanent FPRAS \[46\] with the Jerrum–Valiant–Vazirani
//! counting-to-sampling reduction \[47\]. This module provides:
//!
//! * [`ExactPermanentSampler`] — the JVV self-reduction driven by *exact*
//!   Ryser permanents: perfect samples, exponential in the instance size,
//!   used as ground truth and for the small instances that dominate in
//!   practice;
//! * [`SwapChainSampler`] — a Metropolis chain over slot-value
//!   arrangements whose stationary law is exactly the target; the
//!   repository's stand-in for the JSV FPRAS, whose constants make it
//!   impractical to run, validated against the exact sampler in
//!   experiment E9;
//! * [`sample_per_group_shuffle`] — the Appendix §5.3 error-free
//!   placement: each start–end pair's own multiset, uniformly permuted.

use crate::{Assignment, MatchingInstance};
use cct_linalg::{permanent, Matrix};
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

/// Exact sampler: the JVV reduction with exact permanents.
///
/// Walks the slots in order; the value for each slot is drawn with
/// probability proportional to
/// `m_j · w(j, g) · perm(remaining instance)`, which telescopes to the
/// target distribution `P(assignment) ∝ Π w`.
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
        if total == 0 {
            return Ok(Assignment {
                per_group: vec![Vec::new(); inst.num_groups()],
            });
        }
        let mut remaining = inst.value_counts().to_vec();
        let mut slots_left = inst.group_sizes().to_vec();
        let mut per_group: Vec<Vec<usize>> = inst
            .group_sizes()
            .iter()
            .map(|&s| Vec::with_capacity(s))
            .collect();
        for g in 0..inst.num_groups() {
            for _ in 0..inst.group_sizes()[g] {
                slots_left[g] -= 1;
                let mut weights = Vec::with_capacity(inst.num_values());
                for j in 0..inst.num_values() {
                    if remaining[j] == 0 || inst.weight(j, g) == 0.0 {
                        weights.push(0.0);
                        continue;
                    }
                    remaining[j] -= 1;
                    let rest = reduced_permanent(inst, &remaining, &slots_left, g);
                    remaining[j] += 1;
                    weights.push(remaining[j] as f64 * inst.weight(j, g) * rest);
                }
                let j = cct_linalg::sample_index(rng, &weights).ok_or(MatchingError::Infeasible)?;
                remaining[j] -= 1;
                per_group[g].push(j);
            }
        }
        Ok(Assignment { per_group })
    }
}

/// Permanent of the reduced instance: remaining value copies × remaining
/// slots (`slots_left[g]` slots of each group `≥ current_g`, all of group
/// `current_g`'s remaining slots counted too).
fn reduced_permanent(
    inst: &MatchingInstance,
    remaining: &[usize],
    slots_left: &[usize],
    _current_g: usize,
) -> f64 {
    let total: usize = remaining.iter().sum();
    debug_assert_eq!(total, slots_left.iter().sum::<usize>());
    if total == 0 {
        return 1.0;
    }
    let mut row_of = Vec::with_capacity(total);
    for (j, &m) in remaining.iter().enumerate() {
        row_of.extend(std::iter::repeat_n(j, m));
    }
    let mut col_of = Vec::with_capacity(total);
    for (g, &s) in slots_left.iter().enumerate() {
        col_of.extend(std::iter::repeat_n(g, s));
    }
    // The permanent of a non-negative matrix is non-negative; Ryser's
    // signed inclusion–exclusion can cancel to a tiny negative float
    // (≈ −1e-16 at a few dozen slots), which would poison the sampling
    // weights downstream. Clamp the noise: for cancellation-free
    // instances `max(0.0)` is a bitwise no-op.
    permanent(&Matrix::from_fn(total, total, |r, c| {
        inst.weight(row_of[r], col_of[c])
    }))
    .max(0.0)
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
    use cct_walks::stats;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
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
}
