//! Statistical machinery for the uniformity experiments: chi-square
//! goodness-of-fit with conservative critical values, and empirical
//! total-variation distance.
//!
//! Every sampler test in the workspace uses fixed RNG seeds and a
//! `p ≈ 10⁻⁶` critical value, so a correct sampler fails with negligible
//! probability while a biased one (e.g. the random-weight MST strawman of
//! §1.4) fails decisively.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Pearson's chi-square statistic `Σ (observed − expected)² / expected`
/// over `(observed_count, expected_probability)` cells given `total`
/// samples.
///
/// # Panics
///
/// Panics if any expected probability is non-positive or `total == 0`.
///
/// # Examples
///
/// ```
/// use cct_walks::stats::chi_square_stat;
///
/// // A perfect 50/50 split has statistic 0.
/// assert_eq!(chi_square_stat(&[(50, 0.5), (50, 0.5)], 100), 0.0);
/// ```
pub fn chi_square_stat(cells: &[(usize, f64)], total: usize) -> f64 {
    assert!(total > 0, "need at least one sample");
    cells
        .iter()
        .map(|&(obs, p)| {
            assert!(p > 0.0, "expected probability must be positive");
            let expect = p * total as f64;
            let d = obs as f64 - expect;
            d * d / expect
        })
        .sum()
}

/// A conservative chi-square critical value at `p ≲ 10⁻⁶` for `df`
/// degrees of freedom, via the Wilson–Hilferty cube approximation
/// `χ² ≈ df · (1 − 2/(9df) + z·√(2/(9df)))³`.
///
/// `z = 5.2` over-covers the `10⁻⁶` normal quantile (≈ 4.75) to absorb
/// the approximation's anti-conservative bias at small `df`; the returned
/// value upper-bounds the true `10⁻⁶` quantile for all `df ≥ 1`.
///
/// # Panics
///
/// Panics if `df == 0`.
pub fn chi_square_critical(df: usize) -> f64 {
    assert!(df > 0, "need at least one degree of freedom");
    let df = df as f64;
    let z = 5.2;
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Builds an empirical count map from samples.
pub fn empirical_counts<K: Eq + Hash, I: IntoIterator<Item = K>>(samples: I) -> HashMap<K, usize> {
    let mut counts = HashMap::new();
    for s in samples {
        *counts.entry(s).or_insert(0usize) += 1;
    }
    counts
}

/// Chi-square test of empirical counts against an exact finite
/// distribution. Returns `(statistic, critical_value)`; the test passes
/// when `statistic < critical_value`.
///
/// Cells missing from `counts` contribute their full expectation. An
/// observed outcome outside `exact`'s support has probability 0, so the
/// statistic is then `f64::INFINITY` and the test fails.
///
/// # Panics
///
/// Panics if `exact` is empty, `total == 0`, or a probability is
/// non-positive.
pub fn goodness_of_fit<K: Eq + Hash>(
    counts: &HashMap<K, usize>,
    exact: &[(K, f64)],
    total: usize,
) -> (f64, f64) {
    assert!(!exact.is_empty(), "need a non-empty support");
    let critical = chi_square_critical(exact.len().saturating_sub(1).max(1));
    let support: HashSet<&K> = exact.iter().map(|(k, _)| k).collect();
    if counts.iter().any(|(k, &c)| c > 0 && !support.contains(k)) {
        return (f64::INFINITY, critical);
    }
    let cells: Vec<(usize, f64)> = exact
        .iter()
        .map(|(k, p)| (counts.get(k).copied().unwrap_or(0), *p))
        .collect();
    (chi_square_stat(&cells, total), critical)
}

/// Empirical total-variation distance between observed counts and an
/// exact distribution: `½ Σ |obs/total − p|`, including mass observed
/// outside the exact support.
///
/// # Panics
///
/// Panics if `total == 0`.
pub fn empirical_tv<K: Eq + Hash + Clone>(
    counts: &HashMap<K, usize>,
    exact: &[(K, f64)],
    total: usize,
) -> f64 {
    assert!(total > 0, "need at least one sample");
    let support: HashMap<&K, f64> = exact.iter().map(|(k, p)| (k, *p)).collect();
    let mut tv = 0.0;
    for (k, p) in exact {
        let obs = counts.get(k).copied().unwrap_or(0) as f64 / total as f64;
        tv += (obs - p).abs();
    }
    // Observed keys outside the exact support count fully.
    for (k, &c) in counts {
        if !support.contains_key(k) {
            tv += c as f64 / total as f64;
        }
    }
    tv / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_fit_is_zero() {
        assert_eq!(chi_square_stat(&[(25, 0.25), (75, 0.75)], 100), 0.0);
    }

    #[test]
    fn bad_fit_is_large() {
        // All mass on a cell expected to get half.
        let stat = chi_square_stat(&[(100, 0.5), (0, 0.5)], 100);
        assert!(stat > chi_square_critical(1));
    }

    #[test]
    fn critical_values_are_sane() {
        // True χ² p=1e-6 quantiles: df=1 ≈ 23.9, df=10 ≈ 52.4, df=100 ≈ 182.
        // Our gate must upper-bound them without being absurdly loose.
        let true_q = [(1usize, 23.9f64), (10, 52.4), (100, 182.0)];
        for (df, q) in true_q {
            let crit = chi_square_critical(df);
            assert!(crit >= q, "df={df}: {crit} below true quantile {q}");
            assert!(crit <= 1.6 * q, "df={df}: {crit} too loose vs {q}");
        }
        // Monotone in df.
        assert!(chi_square_critical(2) > chi_square_critical(1));
    }

    #[test]
    fn counts_builder() {
        let c = empirical_counts(vec!["a", "b", "a", "a"]);
        assert_eq!(c["a"], 3);
        assert_eq!(c["b"], 1);
    }

    #[test]
    fn goodness_of_fit_accepts_fair_die() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let total = 12_000;
        let counts = empirical_counts((0..total).map(|_| rng.gen_range(0..6u8)));
        let exact: Vec<(u8, f64)> = (0..6).map(|k| (k, 1.0 / 6.0)).collect();
        let (stat, crit) = goodness_of_fit(&counts, &exact, total);
        assert!(stat < crit, "{stat} ≥ {crit}");
    }

    #[test]
    fn goodness_of_fit_rejects_loaded_die() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let total = 12_000;
        // Face 0 twice as likely as it should be.
        let counts = empirical_counts((0..total).map(|_| {
            let x = rng.gen_range(0..7u8);
            if x == 6 {
                0
            } else {
                x
            }
        }));
        let exact: Vec<(u8, f64)> = (0..6).map(|k| (k, 1.0 / 6.0)).collect();
        let (stat, crit) = goodness_of_fit(&counts, &exact, total);
        assert!(stat > crit, "loaded die passed: {stat} < {crit}");
    }

    #[test]
    fn goodness_of_fit_rejects_an_outcome_outside_the_support() {
        // A fair coin's counts plus one impossible outcome: the valid
        // cells alone fit perfectly, but the rogue outcome has probability
        // 0, so the test must fail however few such outcomes there are.
        let exact = vec![("heads", 0.5), ("tails", 0.5)];
        let mut counts = HashMap::from([("heads", 500usize), ("tails", 500)]);
        let (stat, crit) = goodness_of_fit(&counts, &exact, 1000);
        assert_eq!(stat, 0.0);
        counts.insert("edge", 1);
        let (stat, crit_rogue) = goodness_of_fit(&counts, &exact, 1001);
        assert_eq!(stat, f64::INFINITY);
        assert_eq!(crit_rogue, crit);
        // A zero count for an outside key is no observation.
        counts.insert("edge", 0);
        assert_eq!(goodness_of_fit(&counts, &exact, 1000).0, 0.0);
    }

    #[test]
    fn tv_detects_off_support_mass() {
        let mut counts = HashMap::new();
        counts.insert("x", 50usize);
        counts.insert("rogue", 50usize);
        let exact = vec![("x", 1.0)];
        let tv = empirical_tv(&counts, &exact, 100);
        assert!((tv - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tv_zero_for_exact_match() {
        let mut counts = HashMap::new();
        counts.insert(0u8, 30usize);
        counts.insert(1u8, 70usize);
        let exact = vec![(0u8, 0.3), (1u8, 0.7)];
        assert!(empirical_tv(&counts, &exact, 100) < 1e-12);
    }
}
