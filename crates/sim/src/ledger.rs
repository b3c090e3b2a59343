//! Round and bandwidth accounting for the simulated Congested Clique.
//!
//! The time complexity of a Congested Clique algorithm is its number of
//! synchronous rounds (§1.6). Every communication primitive in this crate
//! charges rounds to a [`RoundLedger`] under a labeled [`CostCategory`],
//! so experiments can report not just totals but *where* the rounds go
//! (matrix multiplication vs. binary search vs. routing, matching the
//! per-component analysis of Lemmas 5 and 11).

use std::fmt;

/// What a batch of rounds was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum CostCategory {
    /// Distributed matrix multiplication (Algorithm 1 / §2.4).
    MatMul,
    /// General point-to-point routing (Lenzen \[56\]).
    Routing,
    /// One-to-all broadcasts.
    Broadcast,
    /// Many-to-one gathers at the leader.
    Gather,
    /// The distributed binary search for the truncation point (Alg. 3).
    BinarySearch,
    /// Midpoint request/generation traffic (Alg. 2).
    Midpoints,
    /// Multiset collection + submatrix shipping for matching placement.
    Matching,
    /// First-visit edge sampling (Alg. 4).
    FirstVisit,
    /// Doubling-walk merging traffic (§3).
    Doubling,
    /// Anything else (setup, bookkeeping).
    Misc,
}

impl CostCategory {
    /// All categories, for iteration in reports.
    pub const ALL: [CostCategory; 10] = [
        CostCategory::MatMul,
        CostCategory::Routing,
        CostCategory::Broadcast,
        CostCategory::Gather,
        CostCategory::BinarySearch,
        CostCategory::Midpoints,
        CostCategory::Matching,
        CostCategory::FirstVisit,
        CostCategory::Doubling,
        CostCategory::Misc,
    ];

    /// This category's position in [`CostCategory::ALL`], the slot that
    /// holds its counters in a [`RoundLedger`].
    fn index(self) -> usize {
        self as usize
    }
}

// `index` relies on `ALL` listing the variants in declaration order.
const _: () = {
    let mut i = 0;
    while i < CostCategory::ALL.len() {
        assert!(CostCategory::ALL[i] as usize == i);
        i += 1;
    }
};

impl fmt::Display for CostCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CostCategory::MatMul => "matmul",
            CostCategory::Routing => "routing",
            CostCategory::Broadcast => "broadcast",
            CostCategory::Gather => "gather",
            CostCategory::BinarySearch => "binary-search",
            CostCategory::Midpoints => "midpoints",
            CostCategory::Matching => "matching",
            CostCategory::FirstVisit => "first-visit",
            CostCategory::Doubling => "doubling",
            CostCategory::Misc => "misc",
        };
        f.write_str(name)
    }
}

/// Accumulated rounds and words, split by [`CostCategory`].
///
/// Two fixed arrays indexed by category hold the counters, so a ledger
/// owns no heap memory and charging one never allocates. Equality is by
/// value: a category charged zero equals one never charged.
///
/// # Examples
///
/// ```
/// use cct_sim::{CostCategory, RoundLedger};
///
/// let mut ledger = RoundLedger::new();
/// ledger.charge(CostCategory::MatMul, 5);
/// ledger.charge(CostCategory::Routing, 2);
/// ledger.add_words(CostCategory::Routing, 1000);
/// assert_eq!(ledger.total_rounds(), 7);
/// assert_eq!(ledger.rounds(CostCategory::MatMul), 5);
/// assert_eq!(ledger.total_words(), 1000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundLedger {
    rounds: [u64; CostCategory::ALL.len()],
    words: [u64; CostCategory::ALL.len()],
    saturated: bool,
}

/// Saturating accumulate into a counter slot, reporting whether the
/// addition wrapped. Accumulation is overflow-checked everywhere so
/// adversarial `words` declarations can't silently wrap a release-build
/// ledger back toward zero — they pin at `u64::MAX` and raise the
/// [`RoundLedger::saturated`] flag instead.
fn accumulate(slot: &mut u64, amount: u64) -> bool {
    match slot.checked_add(amount) {
        Some(v) => {
            *slot = v;
            false
        }
        None => {
            *slot = u64::MAX;
            true
        }
    }
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Charges `rounds` rounds under `category`. Saturates at `u64::MAX`
    /// (setting [`RoundLedger::saturated`]) instead of wrapping.
    pub fn charge(&mut self, category: CostCategory, rounds: u64) {
        self.saturated |= accumulate(&mut self.rounds[category.index()], rounds);
    }

    /// Records `words` machine-words of traffic under `category` (does not
    /// by itself advance time). Saturates at `u64::MAX` (setting
    /// [`RoundLedger::saturated`]) instead of wrapping.
    pub fn add_words(&mut self, category: CostCategory, words: u64) {
        self.saturated |= accumulate(&mut self.words[category.index()], words);
    }

    /// `true` if any accumulation overflowed and pinned at `u64::MAX` —
    /// the totals are then lower bounds, not exact counts.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Rounds charged under one category.
    pub fn rounds(&self, category: CostCategory) -> u64 {
        self.rounds[category.index()]
    }

    /// Words recorded under one category.
    pub fn words(&self, category: CostCategory) -> u64 {
        self.words[category.index()]
    }

    /// Total rounds across all categories (saturating, like the
    /// per-category accumulation).
    pub fn total_rounds(&self) -> u64 {
        self.rounds.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Total words across all categories (saturating, like the
    /// per-category accumulation).
    pub fn total_words(&self) -> u64 {
        self.words.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Non-zero `(category, rounds)` entries, sorted by category.
    pub fn breakdown(&self) -> Vec<(CostCategory, u64)> {
        CostCategory::ALL
            .into_iter()
            .zip(self.rounds)
            .filter(|&(_, r)| r > 0)
            .collect()
    }

    /// Adds every charge from `other` into `self` (propagating the
    /// saturation flag).
    pub fn merge(&mut self, other: &RoundLedger) {
        for c in CostCategory::ALL {
            self.charge(c, other.rounds(c));
            self.add_words(c, other.words(c));
        }
        self.saturated |= other.saturated;
    }

    /// Resets the ledger to empty and returns the previous contents.
    pub fn take(&mut self) -> RoundLedger {
        std::mem::take(self)
    }
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rounds (", self.total_rounds())?;
        for (i, (c, r)) in self.breakdown().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}: {r}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_zero() {
        let l = RoundLedger::new();
        assert_eq!(l.total_rounds(), 0);
        assert_eq!(l.total_words(), 0);
        assert!(l.breakdown().is_empty());
        assert_eq!(l.rounds(CostCategory::MatMul), 0);
    }

    #[test]
    fn charges_accumulate_per_category() {
        let mut l = RoundLedger::new();
        l.charge(CostCategory::MatMul, 3);
        l.charge(CostCategory::MatMul, 4);
        l.charge(CostCategory::Gather, 1);
        assert_eq!(l.rounds(CostCategory::MatMul), 7);
        assert_eq!(l.total_rounds(), 8);
        assert_eq!(l.breakdown().len(), 2);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = RoundLedger::new();
        a.charge(CostCategory::Routing, 2);
        a.add_words(CostCategory::Routing, 10);
        let mut b = RoundLedger::new();
        b.charge(CostCategory::Routing, 3);
        b.charge(CostCategory::Broadcast, 1);
        b.add_words(CostCategory::Broadcast, 5);
        a.merge(&b);
        assert_eq!(a.rounds(CostCategory::Routing), 5);
        assert_eq!(a.rounds(CostCategory::Broadcast), 1);
        assert_eq!(a.total_words(), 15);
    }

    #[test]
    fn take_resets() {
        let mut l = RoundLedger::new();
        l.charge(CostCategory::Misc, 9);
        let taken = l.take();
        assert_eq!(taken.total_rounds(), 9);
        assert_eq!(l.total_rounds(), 0);
    }

    #[test]
    fn charge_saturates_instead_of_wrapping() {
        let mut l = RoundLedger::new();
        l.charge(CostCategory::Routing, u64::MAX - 1);
        assert!(!l.saturated());
        l.charge(CostCategory::Routing, 5);
        assert!(l.saturated());
        assert_eq!(l.rounds(CostCategory::Routing), u64::MAX);
        // Totals never wrap either, even with several pinned categories.
        l.charge(CostCategory::MatMul, u64::MAX);
        assert_eq!(l.total_rounds(), u64::MAX);
    }

    #[test]
    fn add_words_saturates_instead_of_wrapping() {
        let mut l = RoundLedger::new();
        l.add_words(CostCategory::Gather, u64::MAX);
        l.add_words(CostCategory::Gather, u64::MAX);
        assert!(l.saturated());
        assert_eq!(l.words(CostCategory::Gather), u64::MAX);
        assert_eq!(l.total_words(), u64::MAX);
    }

    #[test]
    fn merge_propagates_saturation() {
        let mut poisoned = RoundLedger::new();
        poisoned.charge(CostCategory::Misc, u64::MAX);
        poisoned.charge(CostCategory::Misc, 1);
        assert!(poisoned.saturated());
        let mut clean = RoundLedger::new();
        clean.charge(CostCategory::Misc, 2);
        clean.merge(&poisoned);
        assert!(clean.saturated());
        assert_eq!(clean.rounds(CostCategory::Misc), u64::MAX);
        // take() carries the flag out and resets it.
        let taken = clean.take();
        assert!(taken.saturated());
        assert!(!clean.saturated());
    }

    #[test]
    fn a_zero_charge_equals_no_charge() {
        let mut l = RoundLedger::new();
        l.charge(CostCategory::MatMul, 0);
        l.add_words(CostCategory::Gather, 0);
        assert_eq!(l, RoundLedger::new());
        assert!(l.breakdown().is_empty());
        assert_eq!(format!("{l}"), format!("{}", RoundLedger::new()));
    }

    #[test]
    fn breakdown_lists_categories_in_declaration_order() {
        let mut l = RoundLedger::new();
        for &c in CostCategory::ALL.iter().rev() {
            l.charge(c, 1);
        }
        let order: Vec<CostCategory> = l.breakdown().into_iter().map(|(c, _)| c).collect();
        assert_eq!(order, CostCategory::ALL);
    }

    #[test]
    fn display_mentions_categories() {
        let mut l = RoundLedger::new();
        l.charge(CostCategory::BinarySearch, 2);
        let s = format!("{l}");
        assert!(s.contains("binary-search"));
        assert!(s.contains('2'));
    }
}
