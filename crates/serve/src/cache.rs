//! The [`PreparedSampler`] cache: bounded LRU with single-flight
//! preparation.
//!
//! Preparation (graph build + transition matrix + phase-1 power table)
//! is the expensive, per-graph part of serving; draws are cheap. The
//! cache keys prepared state by [`CacheKey`] (algorithm, graph spec) and
//! guarantees:
//!
//! * **Single-flight** — when `k` requests for one absent key arrive
//!   concurrently, exactly one prepares; the rest block on the entry's
//!   condvar and share the result. The per-key prepare counter (exposed
//!   via [`CacheStats`]) is the test hook for this.
//! * **Bounded** — at most `capacity` entries, least-recently-*used*
//!   evicted first (lookups refresh recency). An evicted key is simply
//!   re-prepared on next use; because preparation is a pure function of
//!   the key (see [`crate::spec_seed`]), eviction can never change what
//!   a request returns — only how long it takes.
//! * **No poisoning** — a failed preparation (bad spec, disconnected
//!   graph) is reported to every waiter and then dropped from the
//!   table, so the key is retried rather than cached as broken.

use crate::request::Algorithm;
use cct_core::PreparedSampler;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// How many per-key prepare counters the cache retains before pruning
/// counters of non-resident keys (a floor — see
/// [`PreparedCache::get_or_prepare`]). Bounds the cache's memory on a
/// long-running server fed ever-new specs; orders of magnitude above
/// anything the test suites touch.
const MAX_TRACKED_KEYS: usize = 1024;

/// What a cache entry is keyed by. Two requests share prepared state
/// iff they agree on the algorithm *and* the graph spec string: one
/// prepared sampler per graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// The phase sampler.
    pub algorithm: Algorithm,
    /// The graph spec string (denotes one fixed graph; see
    /// [`crate::spec_seed`]).
    pub graph_spec: String,
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.algorithm, self.graph_spec)
    }
}

/// Per-response cache metadata.
///
/// `hit` depends on arrival order and is therefore *excluded* from the
/// determinism contract — only the draws are; clients comparing replays
/// must compare draws, not this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// `true` if an entry for the key existed when the request arrived
    /// (including one still being prepared by another request).
    pub hit: bool,
    /// How many times this key had been prepared when the request was
    /// admitted (1 on the very first request for a key).
    pub prepares: u64,
}

/// A snapshot of the cache's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that found an entry (ready or in flight).
    pub hits: u64,
    /// Requests that had to start a preparation.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Times each key was prepared; eviction churn shows up as counts
    /// above 1. Counters of long-gone keys are pruned once the map far
    /// exceeds the table (so a key may restart at 1 on a server that
    /// has seen thousands of other specs since).
    pub prepares: BTreeMap<CacheKey, u64>,
    /// Entries currently in the table.
    pub len: usize,
}

impl CacheStats {
    /// The prepare counter of one key (0 if never requested).
    pub fn prepares_for(&self, key: &CacheKey) -> u64 {
        self.prepares.get(key).copied().unwrap_or(0)
    }

    /// Total preparations across all keys.
    pub fn total_prepares(&self) -> u64 {
        self.prepares.values().sum()
    }
}

enum SlotState {
    Pending,
    Ready(Arc<PreparedSampler>),
    Failed(String),
}

/// One cache entry: the preparation's result, plus the condvar waiters
/// block on while the owning request computes it.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    fn wait(&self) -> Result<Arc<PreparedSampler>, String> {
        let mut state = self.state.lock().expect("slot lock");
        loop {
            match &*state {
                SlotState::Pending => state = self.ready.wait(state).expect("slot wait"),
                SlotState::Ready(p) => return Ok(Arc::clone(p)),
                SlotState::Failed(e) => return Err(e.clone()),
            }
        }
    }

    fn fill(&self, result: Result<Arc<PreparedSampler>, String>) {
        let mut state = self.state.lock().expect("slot lock");
        *state = match result {
            Ok(p) => SlotState::Ready(p),
            Err(e) => SlotState::Failed(e),
        };
        drop(state);
        self.ready.notify_all();
    }
}

/// Unwind protection for the owning request's preparation: while armed,
/// dropping the guard (i.e. a panic in `prepare`) fills the slot Failed
/// and removes the entry, releasing every waiter.
struct FillGuard<'a> {
    cache: &'a PreparedCache,
    slot: &'a Arc<Slot>,
    armed: bool,
}

impl FillGuard<'_> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for FillGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.slot.fill(Err("preparation panicked".into()));
            self.cache.drop_entry(self.slot);
        }
    }
}

struct Inner {
    /// LRU order: least recently used first, most recent last.
    entries: Vec<(CacheKey, Arc<Slot>)>,
    prepares: BTreeMap<CacheKey, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The bounded single-flight LRU of prepared samplers.
pub struct PreparedCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PreparedCache {
    /// An empty cache holding at most `capacity` entries (floored at 1).
    pub fn new(capacity: usize) -> Self {
        PreparedCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                prepares: BTreeMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the prepared sampler for `key`, running `prepare` iff no
    /// entry exists — exactly once per admission no matter how many
    /// requests race (single-flight). Blocks while another request's
    /// preparation for the same key is in flight.
    pub fn get_or_prepare(
        &self,
        key: &CacheKey,
        prepare: impl FnOnce() -> Result<PreparedSampler, String>,
    ) -> (Result<Arc<PreparedSampler>, String>, CacheInfo) {
        let (slot, info, owner) = {
            let mut inner = self.inner.lock().expect("cache lock");
            if let Some(pos) = inner.entries.iter().position(|(k, _)| k == key) {
                // Refresh recency: move the entry to the back.
                let entry = inner.entries.remove(pos);
                let slot = Arc::clone(&entry.1);
                inner.entries.push(entry);
                inner.hits += 1;
                let prepares = inner.prepares.get(key).copied().unwrap_or(0);
                (
                    slot,
                    CacheInfo {
                        hit: true,
                        prepares,
                    },
                    false,
                )
            } else {
                let slot = Arc::new(Slot::new());
                inner.entries.push((key.clone(), Arc::clone(&slot)));
                inner.misses += 1;
                let count = inner.prepares.entry(key.clone()).or_insert(0);
                *count += 1;
                let prepares = *count;
                // The counter map must not grow without bound on a
                // long-running server fed ever-new specs: once it far
                // exceeds the table, forget counters for keys no longer
                // resident (their history is unobservable anyway once
                // they re-enter at 1-after-prune).
                if inner.prepares.len() > MAX_TRACKED_KEYS.max(4 * self.capacity) {
                    let resident: Vec<CacheKey> =
                        inner.entries.iter().map(|(k, _)| k.clone()).collect();
                    inner.prepares.retain(|k, _| resident.contains(k));
                }
                if inner.entries.len() > self.capacity {
                    // The front is the oldest; it is never the entry just
                    // pushed because capacity ≥ 1. Evicting an in-flight
                    // entry is safe: its owner and waiters hold their own
                    // Arcs and complete off-table.
                    inner.entries.remove(0);
                    inner.evictions += 1;
                }
                (
                    slot,
                    CacheInfo {
                        hit: false,
                        prepares,
                    },
                    true,
                )
            }
        };
        if !owner {
            return (slot.wait(), info);
        }
        // Prepare outside the table lock so other keys proceed freely.
        // The guard makes the fill unwind-safe: if `prepare` panics, the
        // slot is filled Failed and dropped from the table on the way
        // out, so waiters get an error instead of blocking forever on a
        // Pending that no one will ever fill.
        let guard = FillGuard {
            cache: self,
            slot: &slot,
            armed: true,
        };
        let result = prepare().map(Arc::new);
        guard.disarm();
        slot.fill(result.clone());
        if result.is_err() {
            self.drop_entry(&slot);
        }
        (result, info)
    }

    /// Drops the entry owning `slot` (matched by identity — the key may
    /// have been evicted and re-admitted meanwhile) so the next request
    /// retries instead of inheriting a failure.
    fn drop_entry(&self, slot: &Arc<Slot>) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.entries.retain(|(_, s)| !Arc::ptr_eq(s, slot));
    }

    /// The keys of the ready entries in LRU order (least recently used
    /// first) — what a snapshot persists. In-flight and failed
    /// preparations are skipped: a snapshot captures only keys that
    /// have proven themselves by serving.
    pub fn ready_keys(&self) -> Vec<CacheKey> {
        let inner = self.inner.lock().expect("cache lock");
        inner
            .entries
            .iter()
            .filter_map(|(k, slot)| match &*slot.state.lock().expect("slot lock") {
                SlotState::Ready(_) => Some(k.clone()),
                _ => None,
            })
            .collect()
    }

    /// Installs an already-prepared sampler — the restore half of
    /// snapshot persistence. Counts **neither** a hit, a miss, nor a
    /// preparation: a restored server reports `prepares: 0` until live
    /// traffic forces real work, which is the snapshot round-trip
    /// test's observable. A key that already has an entry is left
    /// alone (live state beats snapshot state); capacity is enforced
    /// as usual, evicting the LRU entry.
    pub fn insert_ready(&self, key: CacheKey, prepared: Arc<PreparedSampler>) {
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.entries.iter().any(|(k, _)| k == &key) {
            return;
        }
        let slot = Arc::new(Slot::new());
        slot.fill(Ok(prepared));
        inner.entries.push((key, slot));
        if inner.entries.len() > self.capacity {
            inner.entries.remove(0);
            inner.evictions += 1;
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            prepares: inner.prepares.clone(),
            len: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_core::{CliqueTreeSampler, EngineChoice, SamplerConfig, WalkLength};
    use cct_graph::generators;

    fn key(spec: &str) -> CacheKey {
        CacheKey {
            algorithm: Algorithm::Thm1,
            graph_spec: spec.into(),
        }
    }

    fn prepare(n: usize) -> Result<PreparedSampler, String> {
        let config = SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost);
        CliqueTreeSampler::new(config)
            .prepare(&generators::complete(n))
            .map_err(|e| e.to_string())
    }

    #[test]
    fn hit_after_miss_and_prepare_counted_once() {
        let cache = PreparedCache::new(4);
        let k = key("complete:8");
        let (r1, i1) = cache.get_or_prepare(&k, || prepare(8));
        assert!(r1.is_ok());
        assert_eq!(
            i1,
            CacheInfo {
                hit: false,
                prepares: 1
            }
        );
        let (r2, i2) = cache.get_or_prepare(&k, || panic!("must not re-prepare"));
        assert!(r2.is_ok());
        assert_eq!(
            i2,
            CacheInfo {
                hit: true,
                prepares: 1
            }
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert_eq!(stats.prepares_for(&k), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_not_least_recently_inserted() {
        let cache = PreparedCache::new(2);
        let (a, b, c) = (key("a"), key("b"), key("c"));
        cache.get_or_prepare(&a, || prepare(4)).0.unwrap();
        cache.get_or_prepare(&b, || prepare(5)).0.unwrap();
        // Touch `a`: now `b` is the LRU entry.
        assert!(cache.get_or_prepare(&a, || panic!("hit")).1.hit);
        cache.get_or_prepare(&c, || prepare(6)).0.unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        // `a` survived, `b` was evicted and re-prepares.
        assert!(cache.get_or_prepare(&a, || panic!("hit")).1.hit);
        let (_, info) = cache.get_or_prepare(&b, || prepare(5));
        assert_eq!(
            info,
            CacheInfo {
                hit: false,
                prepares: 2
            }
        );
    }

    #[test]
    fn failed_preparation_is_reported_and_retried() {
        let cache = PreparedCache::new(2);
        let k = key("bad");
        let (r, _) = cache.get_or_prepare(&k, || Err("boom".into()));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(cache.stats().len, 0, "failed entries are dropped");
        // The retry runs the preparation again (prepares counts it).
        let (r2, i2) = cache.get_or_prepare(&k, || prepare(4));
        assert!(r2.is_ok());
        assert_eq!(
            i2,
            CacheInfo {
                hit: false,
                prepares: 2
            }
        );
    }

    #[test]
    fn panicking_preparation_releases_waiters_instead_of_deadlocking() {
        let cache = PreparedCache::new(2);
        let k = key("explodes");
        let waiter_result = std::thread::scope(|s| {
            let owner = s.spawn(|| {
                let _ = cache.get_or_prepare(&k, || -> Result<PreparedSampler, String> {
                    panic!("preparation blew up")
                });
            });
            // Give the owner time to register the Pending slot, then
            // wait on it from a second thread.
            std::thread::sleep(std::time::Duration::from_millis(10));
            let waiter = s.spawn(|| cache.get_or_prepare(&k, || prepare(4)).0);
            assert!(owner.join().is_err(), "owner thread panicked as staged");
            waiter.join().unwrap()
        });
        // Most schedules: the waiter was blocked on the doomed slot and
        // gets the structured failure. (If it arrived after cleanup it
        // simply re-prepared and succeeded — also fine.)
        if let Err(e) = waiter_result {
            assert!(e.contains("panicked"), "{e}");
        }
        // The key is not poisoned: the next request prepares fresh.
        assert!(cache.get_or_prepare(&k, || prepare(4)).0.is_ok());
    }

    #[test]
    fn prepare_counters_are_pruned_for_long_gone_keys() {
        // A capacity-1 cache fed ever-new keys must not accumulate one
        // counter per key forever.
        let cache = PreparedCache::new(1);
        let total = MAX_TRACKED_KEYS + 80;
        for i in 0..total {
            let k = key(&format!("k{i}"));
            cache.get_or_prepare(&k, || prepare(4)).0.unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, total as u64, "every key was a miss");
        assert!(
            stats.prepares.len() <= MAX_TRACKED_KEYS + 1,
            "counter map grew unbounded: {} entries",
            stats.prepares.len()
        );
    }

    #[test]
    fn insert_ready_restores_without_counting() {
        let cache = PreparedCache::new(2);
        let k = key("restored");
        cache.insert_ready(k.clone(), prepare(6).unwrap().into_shared());
        // The restored entry serves as a plain hit; nothing was ever
        // "prepared" as far as the counters know.
        let (r, info) = cache.get_or_prepare(&k, || panic!("restored entries must hit"));
        assert!(r.is_ok());
        assert_eq!(
            info,
            CacheInfo {
                hit: true,
                prepares: 0
            }
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.len), (0, 1));
        assert_eq!(stats.total_prepares(), 0);
        // ready_keys sees it; a second insert for the same key is a
        // no-op (live state wins).
        assert_eq!(cache.ready_keys(), std::slice::from_ref(&k));
        cache.insert_ready(k, prepare(6).unwrap().into_shared());
        assert_eq!(cache.stats().len, 1);
        // Capacity still bounds restored entries.
        cache.insert_ready(key("b"), prepare(4).unwrap().into_shared());
        cache.insert_ready(key("c"), prepare(5).unwrap().into_shared());
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn single_flight_under_contention() {
        let cache = PreparedCache::new(2);
        let k = key("contended");
        let started = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (r, _) = cache.get_or_prepare(&k, || {
                        started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        // Widen the race window so waiters really wait.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        prepare(6)
                    });
                    assert!(r.is_ok());
                });
            }
        });
        assert_eq!(
            started.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exactly one preparation ran"
        );
        let stats = cache.stats();
        assert_eq!(stats.prepares_for(&k), 1);
        assert_eq!(stats.hits + stats.misses, 8);
        assert_eq!(stats.misses, 1);
    }
}
