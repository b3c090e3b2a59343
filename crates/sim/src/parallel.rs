//! The parallel round engine: concurrent per-machine local computation
//! with a single-threaded exchange barrier.
//!
//! The Congested Clique model (§1.6) has all `n` machines compute
//! *concurrently* within a round; only the message exchange synchronizes
//! them. The sequential simulator in [`Clique`] preserves the model's
//! round counts but serializes the local computation, so wall-clock time
//! scales with `n ×` per-machine work instead of `max` per-machine work.
//!
//! This module restores the model's concurrency without touching its
//! accounting:
//!
//! * [`MachineProgram`] — a machine's state plus its per-round step
//!   `inbox → outbox`.
//! * [`ParallelClique`] — a driver that shards the machines of a
//!   [`Clique`] across a `std::thread::scope` worker pool (at most
//!   `workers` shards of at least 128 machines each), runs every
//!   machine's local step concurrently, and then performs the exchange
//!   **single-threaded** through [`Clique::route`] — so every
//!   [`crate::RoundLedger`] charge is byte-for-byte what the sequential
//!   simulator produces.
//! * [`Workers`] — the worker-pool policy (`CCT_WORKERS` overrides
//!   [`Workers::Auto`]).
//! * [`machine_seed`] — the determinism contract for randomized
//!   programs: per-machine RNG streams are derived as
//!   `hash(master_seed, machine_id)`, never dealt out of a shared
//!   stream, so results are identical at every thread count.
//!
//! # Determinism contract
//!
//! For a fixed master seed, a program driven by [`ParallelClique`]
//! produces the same messages, the same ledger, and the same final
//! machine states regardless of the worker count: shard boundaries only
//! decide *which thread* runs a machine, never *what* the machine
//! computes, and outboxes are reassembled in machine order before the
//! exchange.

use crate::{Clique, CostCategory, Envelope};

/// Worker-pool policy for the parallel round engine.
///
/// # Examples
///
/// ```
/// use cct_sim::Workers;
///
/// assert_eq!(Workers::Sequential.resolve(64), 1);
/// assert_eq!(Workers::Fixed(4).resolve(64), 4);
/// // Never more shards than machines.
/// assert_eq!(Workers::Fixed(16).resolve(3), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workers {
    /// One shard: every machine's local step runs on the caller's thread.
    #[default]
    Sequential,
    /// `CCT_WORKERS` if set, else `std::thread::available_parallelism()`.
    Auto,
    /// Exactly this many workers (floored at 1).
    Fixed(usize),
}

impl Workers {
    /// Resolves the policy to a concrete worker count for an `n`-machine
    /// clique. The result is capped at `n`: extra shards would be empty.
    pub fn resolve(self, n: usize) -> usize {
        let raw = match self {
            Workers::Sequential => 1,
            Workers::Fixed(k) => k.max(1),
            Workers::Auto => std::env::var("CCT_WORKERS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&k| k >= 1)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get())),
        };
        raw.min(n.max(1)).max(1)
    }
}

/// Derives machine `machine`'s RNG seed from a master seed.
///
/// This is the determinism contract for every randomized parallel
/// program in the workspace: instead of dealing draws out of one shared
/// stream (whose consumption order would depend on scheduling), each
/// machine seeds its own generator with `machine_seed(master, id)`. The
/// mix is SplitMix64's finalizer over the pair, so nearby ids get
/// decorrelated streams.
///
/// # Examples
///
/// ```
/// use cct_sim::machine_seed;
///
/// // Deterministic, and distinct across machines and masters.
/// assert_eq!(machine_seed(7, 3), machine_seed(7, 3));
/// assert_ne!(machine_seed(7, 3), machine_seed(7, 4));
/// assert_ne!(machine_seed(7, 3), machine_seed(8, 3));
/// ```
pub fn machine_seed(master: u64, machine: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(machine.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-machine program: local state plus one synchronous-round step.
///
/// One value of the implementing type exists per machine; the driver
/// owns the slice and hands each machine its inbox every round. The
/// step must be a pure function of the machine's state and inbox (plus
/// any shared read-only data captured at construction) — that is what
/// makes the sharding thread-count-invariant.
///
/// # Examples
///
/// A one-round "token passing" program where machine `i` forwards a
/// token to machine `(i + 1) % n`:
///
/// ```
/// use cct_sim::{CostCategory, Clique, Envelope, MachineProgram, ParallelClique};
///
/// struct PassRight { id: usize, n: usize, received: Option<u64> }
///
/// impl MachineProgram for PassRight {
///     type Msg = u64;
///     fn round(&mut self, round: usize, inbox: Vec<Envelope<u64>>) -> Vec<Envelope<u64>> {
///         match round {
///             0 => vec![Envelope::new((self.id + 1) % self.n, 1, self.id as u64)],
///             _ => {
///                 self.received = inbox.into_iter().next().map(|e| e.payload);
///                 Vec::new()
///             }
///         }
///     }
/// }
///
/// let mut clique = Clique::new(4);
/// let mut machines: Vec<PassRight> =
///     (0..4).map(|id| PassRight { id, n: 4, received: None }).collect();
/// let mut driver = ParallelClique::new(&mut clique, 2);
/// let inboxes = driver.step(CostCategory::Routing, &mut machines, 0, Vec::new());
/// for (i, (m, inbox)) in machines.iter_mut().zip(inboxes).enumerate() {
///     m.round(1, inbox);
///     assert_eq!(m.received, Some(((i + 3) % 4) as u64));
/// }
/// assert_eq!(clique.ledger().total_rounds(), 1);
/// ```
pub trait MachineProgram: Send {
    /// The message type this program exchanges.
    type Msg: Send;

    /// One local step of this machine: consume the round's inbox,
    /// produce the round's outbox. `round` counts the driver-run rounds
    /// from 0.
    fn round(&mut self, round: usize, inbox: Vec<Envelope<Self::Msg>>) -> Vec<Envelope<Self::Msg>>;
}

/// The parallel round driver: concurrent local steps, sequential
/// exchange/charge barrier.
///
/// Borrows a [`Clique`] so any code holding `&mut Clique` (engines,
/// phase orchestration) can run a parallel section and hand the clique
/// back with its ledger charged exactly as the sequential simulator
/// would have.
///
/// # Examples
///
/// ```
/// use cct_sim::{Clique, CostCategory, Envelope, ParallelClique};
///
/// let mut clique = Clique::new(8);
/// let mut driver = ParallelClique::new(&mut clique, 4);
/// // All-to-leader, computed concurrently, charged sequentially.
/// let inboxes = driver.map_route(CostCategory::Gather, |machine| {
///     vec![Envelope::new(0, 1, machine as u64)]
/// });
/// assert_eq!(inboxes[0].len(), 8);
/// assert_eq!(clique.ledger().total_rounds(), 1);
/// ```
#[derive(Debug)]
pub struct ParallelClique<'c> {
    clique: &'c mut Clique,
    workers: usize,
}

impl<'c> ParallelClique<'c> {
    /// Wraps `clique` with a worker pool of `workers` threads (fewer
    /// when the machines are too few to share out; 0 and 1 both mean
    /// sequential).
    pub fn new(clique: &'c mut Clique, workers: usize) -> Self {
        let workers = resolve_shards(clique.n(), workers);
        ParallelClique { clique, workers }
    }

    /// Runs one synchronous round of `programs`: every machine's
    /// [`MachineProgram::round`] runs concurrently on the worker pool,
    /// then the produced outboxes are exchanged — and the round cost
    /// charged — through the single-threaded [`Clique::route`] barrier.
    ///
    /// `inboxes` is the previous round's delivery (pass `Vec::new()` for
    /// the first round). Returns the new inboxes.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != n`, or if `inboxes` is non-empty but
    /// not of length `n`, or if a worker thread panics.
    pub fn step<P: MachineProgram>(
        &mut self,
        category: CostCategory,
        programs: &mut [P],
        round: usize,
        mut inboxes: Vec<Vec<Envelope<P::Msg>>>,
    ) -> Vec<Vec<Envelope<P::Msg>>> {
        let n = self.clique.n();
        assert_eq!(programs.len(), n, "need one program per machine");
        if inboxes.is_empty() {
            inboxes = (0..n).map(|_| Vec::new()).collect();
        }
        assert_eq!(inboxes.len(), n, "need one inbox per machine");
        let outboxes = shard_round(self.workers, programs, round, inboxes);
        self.clique.route(category, outboxes)
    }

    /// Runs `rounds` consecutive rounds of `programs` starting from
    /// empty inboxes, returning the final round's deliveries.
    pub fn run<P: MachineProgram>(
        &mut self,
        category: CostCategory,
        programs: &mut [P],
        rounds: usize,
    ) -> Vec<Vec<Envelope<P::Msg>>> {
        let mut inboxes = Vec::new();
        for round in 0..rounds {
            inboxes = self.step(category, programs, round, inboxes);
        }
        inboxes
    }

    /// Runs one final local round with **no** exchange: every machine
    /// consumes its inbox concurrently (accumulation/teardown rounds).
    ///
    /// # Panics
    ///
    /// Panics if `programs`/`inboxes` are not of length `n`, or if any
    /// machine produces envelopes — a terminal round must not need to
    /// communicate, and dropping its messages would also skip their
    /// ledger charge.
    pub fn finish<P: MachineProgram>(
        &mut self,
        programs: &mut [P],
        round: usize,
        inboxes: Vec<Vec<Envelope<P::Msg>>>,
    ) {
        let n = self.clique.n();
        assert_eq!(programs.len(), n, "need one program per machine");
        assert_eq!(inboxes.len(), n, "need one inbox per machine");
        let outboxes = shard_round(self.workers, programs, round, inboxes);
        // Unconditional: silently dropping messages here would lose data
        // AND skip the ledger charge, which equivalence tests could miss.
        assert!(
            outboxes.iter().all(|o| o.is_empty()),
            "terminal round tried to send"
        );
    }

    /// Stateless one-round helper: computes machine `i`'s outbox as
    /// `f(i)` concurrently, then exchanges through [`Clique::route`].
    pub fn map_route<T, F>(&mut self, category: CostCategory, f: F) -> Vec<Vec<Envelope<T>>>
    where
        T: Send,
        F: Fn(usize) -> Vec<Envelope<T>> + Sync,
    {
        let outboxes = par_map(self.clique.n(), self.workers, f);
        self.clique.route(category, outboxes)
    }
}

/// Applies `f` to `0..n` on up to `workers` scoped threads, returning
/// the results in index order (identical to a sequential map for any
/// worker count). The workhorse behind every parallel local step.
///
/// # Examples
///
/// ```
/// use cct_sim::par_map;
///
/// let seq = par_map(10, 1, |i| i * i);
/// let par = par_map(10, 4, |i| i * i);
/// assert_eq!(seq, par);
/// ```
pub fn par_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let shards = resolve_shards(n, workers);
    if shards <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(shards);
    let f = &f;
    let mut out: Vec<T> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(n);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
    });
    out
}

/// The fewest work items a shard takes, so a section of fewer than
/// twice this many items runs on the caller's thread. Measured in
/// release on a 2-vCPU x86-64 VM: a scoped thread costs 12–23 µs to
/// spawn and join, and the cheapest items these sections run (a
/// midpoint pair's weights and draws, a Borůvka machine step) about
/// 0.2 µs each, so a shard of 128 carries about one spawn's cost.
const MIN_ITEMS_PER_SHARD: usize = 128;

/// The one shard-count policy: at least 1, at most `workers`, and at
/// least [`MIN_ITEMS_PER_SHARD`] items per shard, so a section of a
/// handful of items degenerates to sequential. Every parallel section
/// resolves through here so the policy can't drift between helpers;
/// shard boundaries never change results (the determinism contract).
fn resolve_shards(n: usize, workers: usize) -> usize {
    workers.clamp(1, (n / MIN_ITEMS_PER_SHARD).max(1))
}

/// Runs one round of every program concurrently, reassembling outboxes
/// in machine order so the subsequent exchange is shard-invariant.
///
/// Threads are spawned per call via `std::thread::scope` — the
/// no-`unsafe`, no-dependency choice. Spawn cost is ~tens of µs per
/// worker, measured at ≤4% of a full n = 512 sample (E17); a persistent
/// pool would shave that at the price of channel plumbing, and can be
/// swapped in here without touching the determinism contract.
fn shard_round<P: MachineProgram>(
    workers: usize,
    programs: &mut [P],
    round: usize,
    inboxes: Vec<Vec<Envelope<P::Msg>>>,
) -> Vec<Vec<Envelope<P::Msg>>> {
    let n = programs.len();
    let shards = resolve_shards(n, workers);
    if shards <= 1 {
        return programs
            .iter_mut()
            .zip(inboxes)
            .map(|(p, inbox)| p.round(round, inbox))
            .collect();
    }
    let chunk = n.div_ceil(shards);
    let mut out: Vec<Vec<Envelope<P::Msg>>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        let mut rest = programs;
        let mut inbox_iter = inboxes.into_iter();
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let shard_inboxes: Vec<_> = inbox_iter.by_ref().take(take).collect();
            handles.push(scope.spawn(move || {
                head.iter_mut()
                    .zip(shard_inboxes)
                    .map(|(p, inbox)| p.round(round, inbox))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            out.extend(h.join().expect("parallel worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn workers_resolution() {
        assert_eq!(Workers::Sequential.resolve(100), 1);
        assert_eq!(Workers::Fixed(0).resolve(100), 1);
        assert_eq!(Workers::Fixed(7).resolve(100), 7);
        assert_eq!(Workers::Fixed(7).resolve(3), 3);
        assert!(Workers::Auto.resolve(1024) >= 1);
        assert_eq!(Workers::default(), Workers::Sequential);
    }

    #[test]
    fn machine_seed_streams_are_decorrelated() {
        // Distinct machines must get distinct streams, and the first
        // draws should not be obviously correlated with the id.
        let mut firsts = std::collections::HashSet::new();
        for id in 0..256u64 {
            let mut r = rand::rngs::StdRng::seed_from_u64(machine_seed(42, id));
            firsts.insert(r.gen::<u64>());
        }
        assert_eq!(firsts.len(), 256);
    }

    #[test]
    fn par_map_matches_sequential_at_every_worker_count() {
        for n in [0usize, 1, 2, 7, 64, 100] {
            let seq: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            for workers in [1usize, 2, 3, 8, 200] {
                assert_eq!(par_map(n, workers, |i| i * 3 + 1), seq, "n={n} w={workers}");
            }
        }
    }

    #[test]
    fn small_sections_run_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for n in [0usize, 1, 4, 2 * MIN_ITEMS_PER_SHARD - 1] {
            let ids = par_map(n, 8, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "n = {n}");
        }
        // Four minimum shards' worth of items make four shards at eight
        // workers, each on a spawned thread.
        let ids = par_map(4 * MIN_ITEMS_PER_SHARD, 8, |_| std::thread::current().id());
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 4);
        assert!(!distinct.contains(&caller));
    }

    #[test]
    fn sharded_par_map_matches_sequential() {
        for n in [2 * MIN_ITEMS_PER_SHARD, 300, 1000, 1031] {
            let seq: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            for workers in [2usize, 3, 8] {
                assert_eq!(par_map(n, workers, |i| i * 3 + 1), seq, "n={n} w={workers}");
            }
        }
    }

    /// Every machine floods every other machine with its id.
    struct Flood {
        id: usize,
        n: usize,
        heard: Vec<usize>,
    }

    impl MachineProgram for Flood {
        type Msg = usize;
        fn round(&mut self, round: usize, inbox: Vec<Envelope<usize>>) -> Vec<Envelope<usize>> {
            if round == 0 {
                (0..self.n)
                    .map(|to| Envelope::new(to, 1, self.id))
                    .collect()
            } else {
                self.heard = inbox.iter().map(|e| e.payload).collect();
                Vec::new()
            }
        }
    }

    #[test]
    fn step_is_thread_count_invariant() {
        let run = |workers: usize| -> (Vec<Vec<usize>>, crate::RoundLedger) {
            let n = 9;
            let mut clique = Clique::new(n);
            let mut machines: Vec<Flood> = (0..n)
                .map(|id| Flood {
                    id,
                    n,
                    heard: Vec::new(),
                })
                .collect();
            let mut driver = ParallelClique::new(&mut clique, workers);
            let inboxes = driver.run(CostCategory::Routing, &mut machines, 2);
            assert!(inboxes.iter().all(|i| i.is_empty()));
            (
                machines.into_iter().map(|m| m.heard).collect(),
                clique.ledger().clone(),
            )
        };
        let (heard1, ledger1) = run(1);
        for workers in [2usize, 4, 8] {
            let (heard, ledger) = run(workers);
            assert_eq!(heard, heard1, "workers = {workers}");
            assert_eq!(ledger, ledger1, "workers = {workers}");
        }
        // All-to-all with n words per machine each way: 1 round; plus the
        // empty second round.
        assert_eq!(ledger1.total_rounds(), 2);
    }

    #[test]
    fn map_route_charges_like_sequential_route() {
        let n = 6;
        let build = |machine: usize| vec![Envelope::new(0, 3, machine)];
        let mut seq = Clique::new(n);
        let out: Vec<Vec<Envelope<usize>>> = (0..n).map(build).collect();
        seq.route(CostCategory::Gather, out);

        let mut par = Clique::new(n);
        ParallelClique::new(&mut par, 4).map_route(CostCategory::Gather, build);
        assert_eq!(par.ledger(), seq.ledger());
        // 6 machines × 3 words at one receiver = 18 words → ⌈18/6⌉ = 3.
        assert_eq!(par.ledger().total_rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "one program per machine")]
    fn step_rejects_wrong_program_count() {
        let mut clique = Clique::new(4);
        let mut machines: Vec<Flood> = Vec::new();
        ParallelClique::new(&mut clique, 2).step(CostCategory::Misc, &mut machines, 0, Vec::new());
    }
}
