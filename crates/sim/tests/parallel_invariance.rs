//! Ledger-invariance regression tests for the parallel round engine:
//! the Lenzen routing charge `⌈L/n⌉` for skewed traffic patterns must
//! not depend on how machines are sharded across worker threads, and is
//! pinned here with exact expected round counts.

use cct_sim::{Clique, CostCategory, Envelope, MachineProgram, ParallelClique};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Every machine sends `words` words to the single hot receiver `hot`;
/// returns the resulting ledger.
fn hot_receiver_ledger(n: usize, hot: usize, words: usize, workers: usize) -> cct_sim::RoundLedger {
    let mut clique = Clique::new(n);
    let inboxes = ParallelClique::new(&mut clique, workers).map_route(CostCategory::Routing, |m| {
        vec![Envelope::new(hot, words, m as u64)]
    });
    assert_eq!(inboxes[hot].len(), n, "hot receiver must get every message");
    clique.ledger().clone()
}

#[test]
fn skewed_hot_receiver_costs_ceil_l_over_n_at_any_shard_count() {
    // n = 8 machines each sending 13 words to machine 5: the receive
    // load is L = 8 · 13 = 104 words, so Lenzen routing charges exactly
    // ⌈104/8⌉ = 13 rounds — no matter how the senders were sharded.
    let reference = hot_receiver_ledger(8, 5, 13, 1);
    assert_eq!(reference.total_rounds(), 13);
    assert_eq!(reference.total_words(), 104);
    for workers in WORKER_SWEEP {
        let ledger = hot_receiver_ledger(8, 5, 13, workers);
        assert_eq!(ledger, reference, "workers = {workers}");
    }
}

#[test]
fn hot_receiver_cost_is_exact_across_loads() {
    // Pinned (load → rounds) pairs on a 6-machine clique: each of the 6
    // senders ships `w` words to machine 0, so L = 6w and the charge is
    // ⌈6w/6⌉ = w — exactly, at every worker count.
    for (w, expect) in [(1usize, 1u64), (2, 2), (7, 7), (100, 100)] {
        for workers in WORKER_SWEEP {
            let ledger = hot_receiver_ledger(6, 0, w, workers);
            assert_eq!(
                ledger.rounds(CostCategory::Routing),
                expect,
                "w = {w}, workers = {workers}"
            );
        }
    }
}

#[test]
fn one_hot_sender_matches_send_side_bound() {
    // Inverse skew: machine 3 sends 9 words to everyone on a 4-machine
    // clique. Send load L = 4 · 9 = 36 → ⌈36/4⌉ = 9 rounds.
    for workers in WORKER_SWEEP {
        let mut clique = Clique::new(4);
        ParallelClique::new(&mut clique, workers).map_route(CostCategory::Routing, |m| {
            if m == 3 {
                (0..4).map(|to| Envelope::new(to, 9, 0u8)).collect()
            } else {
                Vec::new()
            }
        });
        assert_eq!(clique.ledger().total_rounds(), 9, "workers = {workers}");
    }
}

// ── Sharded cliques ─────────────────────────────────────────────────
// The cliques above are small enough that every parallel section runs
// on the caller's thread whatever the worker count (a shard takes at
// least 128 machines). The tests below use 512 machines, so workers 2,
// 4 and 8 split the machines into shards on spawned threads, and they
// check that those threads really ran.

const SHARDED_N: usize = 512;

/// Each round every machine folds its inbox into its state, then sends
/// to a target derived from that state, to its ring successor and, from
/// every third machine, a heavy message to the hot machine 0. Every
/// step notes the thread it ran on.
struct Scatter {
    id: usize,
    state: u64,
    threads: Vec<ThreadId>,
}

impl MachineProgram for Scatter {
    type Msg = u64;

    fn round(&mut self, round: usize, inbox: Vec<Envelope<u64>>) -> Vec<Envelope<u64>> {
        self.threads.push(std::thread::current().id());
        for e in &inbox {
            self.state = (self.state ^ e.payload ^ e.from as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(17);
        }
        if round == SCATTER_ROUNDS {
            return Vec::new(); // the terminal round only folds
        }
        let mut out = vec![
            Envelope::new(self.state as usize % SHARDED_N, 1 + round, self.state),
            Envelope::new((self.id + 1) % SHARDED_N, 2, self.id as u64),
        ];
        if self.id % 3 == 0 {
            out.push(Envelope::new(0, 5 + self.id % 7, self.state >> 3));
        }
        out
    }
}

const SCATTER_ROUNDS: usize = 4;

/// Thread ids of a run's steps, apart from the caller's, and whether
/// any step ran on the caller's thread.
fn spawned_threads(threads: impl IntoIterator<Item = ThreadId>) -> (HashSet<ThreadId>, bool) {
    let caller = std::thread::current().id();
    let mut spawned = HashSet::new();
    let mut on_caller = false;
    for id in threads {
        if id == caller {
            on_caller = true;
        } else {
            spawned.insert(id);
        }
    }
    (spawned, on_caller)
}

#[test]
fn sharded_step_and_finish_are_worker_invariant() {
    let run = |workers: usize| {
        let mut clique = Clique::new(SHARDED_N);
        let mut machines: Vec<Scatter> = (0..SHARDED_N)
            .map(|id| Scatter {
                id,
                state: id as u64 * 1_000_003,
                threads: Vec::new(),
            })
            .collect();
        let mut driver = ParallelClique::new(&mut clique, workers);
        let mut inboxes = Vec::new();
        let mut delivered = Vec::new();
        for round in 0..SCATTER_ROUNDS {
            inboxes = driver.step(CostCategory::Routing, &mut machines, round, inboxes);
            delivered.push(inboxes.clone());
        }
        driver.finish(&mut machines, SCATTER_ROUNDS, inboxes);
        let states: Vec<u64> = machines.iter().map(|m| m.state).collect();
        let threads = machines.into_iter().flat_map(|m| m.threads);
        (
            states,
            delivered,
            clique.ledger().clone(),
            spawned_threads(threads),
        )
    };
    let (states1, delivered1, ledger1, (spawned1, on_caller1)) = run(1);
    assert!(
        spawned1.is_empty() && on_caller1,
        "workers = 1 runs on the caller's thread"
    );
    // Every third machine sends 5..=11 words to machine 0, which sets
    // each sending round's charge above 1.
    assert!(ledger1.total_rounds() > SCATTER_ROUNDS as u64);
    for workers in [2usize, 4, 8] {
        let (states, delivered, ledger, (spawned, on_caller)) = run(workers);
        assert_eq!(states, states1, "states, workers = {workers}");
        assert_eq!(delivered, delivered1, "inboxes, workers = {workers}");
        assert_eq!(ledger, ledger1, "ledger, workers = {workers}");
        assert!(
            spawned.len() >= 2 && !on_caller,
            "workers = {workers}: steps ran on {} spawned threads (caller too: {on_caller})",
            spawned.len()
        );
    }
}

#[test]
fn sharded_map_route_is_worker_invariant() {
    let run = |workers: usize| {
        let threads = Mutex::new(Vec::new());
        let mut clique = Clique::new(SHARDED_N);
        let inboxes =
            ParallelClique::new(&mut clique, workers).map_route(CostCategory::Routing, |m| {
                threads.lock().unwrap().push(std::thread::current().id());
                // Machine m sends 1 + m % 5 words to each of (m * 37 + k)
                // mod n, k < 3, and 3 words to the hot machine 7.
                let mut out: Vec<Envelope<usize>> = (0..3)
                    .map(|k| Envelope::new((m * 37 + k) % SHARDED_N, 1 + m % 5, m * 10 + k))
                    .collect();
                out.push(Envelope::new(7, 3, m));
                out
            });
        let threads = threads.into_inner().unwrap();
        (inboxes, clique.ledger().clone(), spawned_threads(threads))
    };
    let (inboxes1, ledger1, (spawned1, on_caller1)) = run(1);
    assert!(
        spawned1.is_empty() && on_caller1,
        "workers = 1 runs on the caller's thread"
    );
    // Hot machine 7 receives 3 words from every machine plus one
    // message per k (37 is invertible mod n), so its load is just over
    // 3n words and the charge is ⌈L/n⌉ = 4 rounds at every worker count.
    assert_eq!(inboxes1[7].len(), SHARDED_N + 3);
    assert_eq!(ledger1.total_rounds(), 4);
    for workers in [2usize, 4, 8] {
        let (inboxes, ledger, (spawned, on_caller)) = run(workers);
        assert_eq!(inboxes, inboxes1, "inboxes, workers = {workers}");
        assert_eq!(ledger, ledger1, "ledger, workers = {workers}");
        assert!(
            spawned.len() >= 2 && !on_caller,
            "workers = {workers}: machines ran on {} spawned threads (caller too: {on_caller})",
            spawned.len()
        );
    }
}
