//! The Congested Clique network simulator (§1.6 of the paper).
//!
//! `n` machines, synchronous rounds, `O(log n)`-bit messages. Following
//! Lenzen's routing theorem \[56\] (and the paper's own convention), a
//! machine may send and receive a total of `O(n)` *words* per round
//! regardless of destinations, so the cost of any communication pattern is
//! `⌈L/n⌉` rounds where `L` is the maximum number of words any single
//! machine sends or receives.
//!
//! All data movement in the workspace goes through [`Clique::route`] (or
//! the convenience wrappers built on it), which actually delivers the
//! payloads *and* charges the measured cost to the [`RoundLedger`] — round
//! counts are derived from real traffic, never asserted.

use crate::{CostCategory, RoundLedger};

/// A message in flight: destination, source, and a payload with a declared
/// size in machine words (one word = `O(log n)` bits ≈ one vertex id or
/// one count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Destination machine.
    pub to: usize,
    /// Source machine (filled in by [`Clique::route`]).
    pub from: usize,
    /// Size in machine words, for bandwidth accounting.
    pub words: usize,
    /// The payload.
    pub payload: T,
}

impl<T> Envelope<T> {
    /// Creates an envelope addressed to `to`; `from` is stamped during
    /// routing.
    pub fn new(to: usize, words: usize, payload: T) -> Self {
        Envelope {
            to,
            from: usize::MAX,
            words,
            payload,
        }
    }
}

/// The simulated `n`-machine Congested Clique.
///
/// # Examples
///
/// ```
/// use cct_sim::{Clique, CostCategory, Envelope};
///
/// let mut clique = Clique::new(4);
/// // Machine 1 sends one word to machine 2.
/// let mut outboxes = vec![Vec::new(); 4];
/// outboxes[1].push(Envelope::new(2, 1, 42u64));
/// let inboxes = clique.route(CostCategory::Routing, outboxes);
/// assert_eq!(inboxes[2][0].payload, 42);
/// assert_eq!(inboxes[2][0].from, 1);
/// assert_eq!(clique.ledger().total_rounds(), 1);
/// ```
#[derive(Debug)]
pub struct Clique {
    n: usize,
    ledger: RoundLedger,
}

impl Clique {
    /// Creates a clique of `n` machines.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a clique needs at least one machine");
        Clique {
            n,
            ledger: RoundLedger::new(),
        }
    }

    /// Number of machines (= number of vertices of the input graph).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The leader machine (machine 0, hosting the walk under
    /// construction).
    pub fn leader(&self) -> usize {
        0
    }

    /// Read access to the accumulated ledger.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Mutable access to the ledger (for engines that charge analytic
    /// costs, e.g. the fast-matmul oracle).
    pub fn ledger_mut(&mut self) -> &mut RoundLedger {
        &mut self.ledger
    }

    /// Resets and returns the ledger (start of a measured region).
    pub fn take_ledger(&mut self) -> RoundLedger {
        self.ledger.take()
    }

    /// Delivers an arbitrary point-to-point message pattern and charges
    /// its measured cost.
    ///
    /// `outboxes[i]` holds machine `i`'s outgoing envelopes. Returns
    /// `inboxes[j]`: the envelopes delivered to machine `j`, with `from`
    /// stamped, in deterministic order (by sender, then send order).
    ///
    /// Cost: `max(1, ⌈max_send/n⌉, ⌈max_recv/n⌉)` rounds, where `max_send`
    /// (`max_recv`) is the largest total word count any machine sends
    /// (receives) — Lenzen routing \[56\].
    ///
    /// # Panics
    ///
    /// Panics if `outboxes.len() != n` or any destination is out of range.
    pub fn route<T>(
        &mut self,
        category: CostCategory,
        outboxes: Vec<Vec<Envelope<T>>>,
    ) -> Vec<Vec<Envelope<T>>> {
        assert_eq!(outboxes.len(), self.n, "need one outbox per machine");
        let mut send_load = vec![0u64; self.n];
        let mut recv_load = vec![0u64; self.n];
        let mut inboxes: Vec<Vec<Envelope<T>>> = (0..self.n).map(|_| Vec::new()).collect();
        let mut total_words = 0u64;
        for (src, outbox) in outboxes.into_iter().enumerate() {
            for mut env in outbox {
                assert!(env.to < self.n, "destination {} out of range", env.to);
                env.from = src;
                send_load[src] += env.words as u64;
                recv_load[env.to] += env.words as u64;
                total_words += env.words as u64;
                inboxes[env.to].push(env);
            }
        }
        let max_send = send_load.iter().copied().max().unwrap_or(0);
        let max_recv = recv_load.iter().copied().max().unwrap_or(0);
        let rounds = Self::rounds_for_load(self.n, max_send.max(max_recv));
        self.ledger.charge(category, rounds);
        self.ledger.add_words(category, total_words);
        inboxes
    }

    /// Rounds needed to move `load` words in/out of one machine:
    /// `max(1, ⌈load/n⌉)`.
    pub fn rounds_for_load(n: usize, load: u64) -> u64 {
        load.div_ceil(n as u64).max(1)
    }

    /// Broadcasts `items` from machine `from` to every machine.
    ///
    /// Implemented as the standard two-step pattern: `from` distributes
    /// the items round-robin across helper machines, then every helper
    /// re-sends its share to everyone. Both steps go through
    /// [`Clique::route`], so the cost is measured, not asserted. Returns
    /// the broadcast items (identical copy at every machine).
    ///
    /// # Panics
    ///
    /// Panics if `from >= n`.
    pub fn broadcast<T: Clone>(
        &mut self,
        category: CostCategory,
        from: usize,
        items: Vec<T>,
        words_per_item: usize,
    ) -> Vec<T> {
        assert!(from < self.n, "broadcast source out of range");
        if items.is_empty() {
            return items;
        }
        // Step 1: round-robin distribution to helpers.
        let mut outboxes: Vec<Vec<Envelope<(usize, T)>>> =
            (0..self.n).map(|_| Vec::new()).collect();
        for (idx, item) in items.iter().enumerate() {
            let helper = idx % self.n;
            outboxes[from].push(Envelope::new(helper, words_per_item, (idx, item.clone())));
        }
        let inboxes = self.route(category, outboxes);
        // Step 2: each helper sends its share to all machines.
        let mut outboxes: Vec<Vec<Envelope<(usize, T)>>> =
            (0..self.n).map(|_| Vec::new()).collect();
        for (helper, inbox) in inboxes.into_iter().enumerate() {
            for env in inbox {
                for dest in 0..self.n {
                    outboxes[helper].push(Envelope::new(dest, words_per_item, env.payload.clone()));
                }
            }
        }
        let inboxes = self.route(category, outboxes);
        // Every machine now holds all items; reconstruct in index order
        // from machine 0's copy.
        let mut received: Vec<(usize, T)> = inboxes
            .into_iter()
            .next()
            .expect("n >= 1")
            .into_iter()
            .map(|e| e.payload)
            .collect();
        received.sort_by_key(|(idx, _)| *idx);
        debug_assert_eq!(received.len(), items.len());
        received.into_iter().map(|(_, item)| item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_delivers_and_stamps_sources() {
        let mut c = Clique::new(3);
        let mut out: Vec<Vec<Envelope<&str>>> = vec![Vec::new(); 3];
        out[0].push(Envelope::new(2, 1, "a"));
        out[1].push(Envelope::new(2, 1, "b"));
        out[2].push(Envelope::new(0, 1, "c"));
        let inboxes = c.route(CostCategory::Routing, out);
        assert_eq!(inboxes[0].len(), 1);
        assert_eq!(inboxes[0][0].from, 2);
        assert_eq!(inboxes[2].len(), 2);
        assert_eq!(inboxes[2][0].payload, "a");
        assert_eq!(inboxes[2][1].payload, "b");
        assert_eq!(inboxes[1].len(), 0);
    }

    #[test]
    fn route_cost_is_ceil_max_load_over_n() {
        let n = 4;
        let mut c = Clique::new(n);
        // Machine 0 sends 9 words to machine 1: ceil(9/4) = 3 rounds.
        let mut out: Vec<Vec<Envelope<u8>>> = vec![Vec::new(); n];
        out[0].push(Envelope::new(1, 9, 0));
        c.route(CostCategory::Routing, out);
        assert_eq!(c.ledger().total_rounds(), 3);
        assert_eq!(c.ledger().total_words(), 9);
    }

    #[test]
    fn route_cost_counts_receive_side() {
        let n = 4;
        let mut c = Clique::new(n);
        // Every machine sends 2 words to machine 0: recv load 8 → 2 rounds.
        let out: Vec<Vec<Envelope<u8>>> = (0..n).map(|_| vec![Envelope::new(0, 2, 0)]).collect();
        c.route(CostCategory::Routing, out);
        assert_eq!(c.ledger().total_rounds(), 2);
    }

    #[test]
    fn empty_route_still_costs_a_round() {
        // A round happens even if nobody speaks (synchronous model).
        let mut c = Clique::new(2);
        let out: Vec<Vec<Envelope<u8>>> = vec![Vec::new(); 2];
        c.route(CostCategory::Misc, out);
        assert_eq!(c.ledger().total_rounds(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_rejects_bad_destination() {
        let mut c = Clique::new(2);
        let mut out: Vec<Vec<Envelope<u8>>> = vec![Vec::new(); 2];
        out[0].push(Envelope::new(5, 1, 0));
        c.route(CostCategory::Routing, out);
    }

    #[test]
    fn broadcast_reaches_everyone_in_order() {
        let mut c = Clique::new(5);
        let items: Vec<u32> = (0..12).collect();
        let got = c.broadcast(CostCategory::Broadcast, 3, items.clone(), 1);
        assert_eq!(got, items);
        // Small broadcast: both steps cost ~1 round each... sender sends 12
        // words (1 round at n=5 is ceil(12/5)=3); helpers send 3*5=15 recv
        // 12 each → a handful of rounds, definitely < 10.
        assert!(c.ledger().total_rounds() <= 10);
    }

    #[test]
    fn broadcast_cost_scales_with_items() {
        let n = 8;
        let mut small = Clique::new(n);
        small.broadcast(CostCategory::Broadcast, 0, vec![0u8; n], 1);
        let small_rounds = small.ledger().total_rounds();
        let mut big = Clique::new(n);
        big.broadcast(CostCategory::Broadcast, 0, vec![0u8; n * 20], 1);
        let big_rounds = big.ledger().total_rounds();
        assert!(big_rounds > small_rounds);
        // n*20 items: step 2 has each helper holding 20 items sending to
        // all n machines → 20n words sent, 20n received → 20 rounds + step1.
        assert!(big_rounds >= 20);
    }

    #[test]
    fn leader_is_machine_zero() {
        assert_eq!(Clique::new(7).leader(), 0);
    }

    #[test]
    fn rounds_for_load_formula() {
        assert_eq!(Clique::rounds_for_load(4, 0), 1);
        assert_eq!(Clique::rounds_for_load(4, 4), 1);
        assert_eq!(Clique::rounds_for_load(4, 5), 2);
        assert_eq!(Clique::rounds_for_load(4, 17), 5);
    }
}
