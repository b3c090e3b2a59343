//! The in-process service: a `std::thread::scope` worker pool pulling
//! [`SampleRequest`] jobs off a channel, serving draws from the shared
//! [`PreparedCache`].
//!
//! The entry point is [`serve`]: it owns the workers' lifetime, so there
//! is no detached state — when the closure returns and every
//! [`ServeHandle`] clone is dropped, the job channel closes, the workers
//! drain and exit, and the scope joins them.

use crate::cache::{CacheInfo, CacheKey, CacheStats, PreparedCache};
use crate::request::{spec_seed, Algorithm, SampleRequest};
use crate::snapshot;
use crate::stats::ServeStats;
use cct_core::{CliqueTreeSampler, SamplerConfig};
use cct_json::Json;
use cct_sim::{RoundLedger, Workers};
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A request the service could not serve: invalid values, an unknown or
/// unbuildable graph spec, a disconnected graph, or a phase failure.
/// Carried on the wire as `{"ok": false, "error": …}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    message: String,
}

impl ServeError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ServeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

/// One served tree: the draw's derived seed, the sampled edges, and the
/// full round ledger of the run (byte-identical to a cold
/// single-threaded run at [`SampleRequest::draw_seed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Draw {
    /// The derived RNG seed this draw ran with.
    pub draw_seed: u64,
    /// The sampled spanning tree's edges.
    pub edges: Vec<(usize, usize)>,
    /// The run's round/traffic ledger.
    pub ledger: RoundLedger,
    /// Theorem 1's Monte Carlo failure flag (an arbitrary tree was
    /// emitted; probability ≤ ε).
    pub monte_carlo_failure: bool,
}

impl Draw {
    /// The draw's wire value.
    pub fn to_json(&self) -> Json {
        let breakdown = Json::Obj(
            self.ledger
                .breakdown()
                .into_iter()
                .map(|(c, r)| (c.to_string(), Json::Num(r as f64)))
                .collect(),
        );
        let mut fields = vec![
            ("seed".into(), Json::from_u64(self.draw_seed)),
            (
                "edges".into(),
                Json::Arr(
                    self.edges
                        .iter()
                        .map(|&(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
                        .collect(),
                ),
            ),
            (
                "rounds".into(),
                Json::Num(self.ledger.total_rounds() as f64),
            ),
            ("words".into(), Json::Num(self.ledger.total_words() as f64)),
            ("breakdown".into(), breakdown),
        ];
        if self.monte_carlo_failure {
            fields.push(("failure".into(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }
}

/// A served request: the echoed request, cache metadata, and `count`
/// draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResponse {
    /// The request this answers.
    pub request: SampleRequest,
    /// Cache metadata (excluded from the determinism contract — see
    /// [`CacheInfo`]).
    pub cache: CacheInfo,
    /// Resident bytes of the prepared state serving this response
    /// (`PreparedSampler::matrix_bytes`), measured *after* the draws —
    /// so lazily materialized power-table levels are included. Like
    /// `cache`, a point-in-time observation excluded from the
    /// determinism contract (an entry shared with earlier requests may
    /// already be fully materialized).
    pub resident_bytes: usize,
    /// The draws, in draw-index order.
    pub draws: Vec<Draw>,
}

impl SampleResponse {
    /// The response's wire value:
    /// `{"ok": true, "graph": …, "algorithm": …, "seed": …, "cache": …,
    /// "draws": […]}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("graph".into(), Json::Str(self.request.graph_spec.clone())),
            (
                "algorithm".into(),
                Json::Str(self.request.algorithm.as_str().into()),
            ),
            ("seed".into(), Json::from_u64(self.request.seed)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hit".into(), Json::Bool(self.cache.hit)),
                    ("prepares".into(), Json::Num(self.cache.prepares as f64)),
                    (
                        "resident_bytes".into(),
                        Json::Num(self.resident_bytes as f64),
                    ),
                ]),
            ),
            (
                "draws".into(),
                Json::Arr(self.draws.iter().map(Draw::to_json).collect()),
            ),
        ])
    }
}

/// The wire frame for any failed request.
pub fn error_frame(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.into())),
    ])
}

/// Service configuration: worker-pool width, cache capacity, and the
/// sampler configuration behind each [`Algorithm`].
///
/// The default configs match the CLI's sequential `thm1` / `exact`
/// paths, so for *fixed* graph families a served draw replays exactly
/// as `cct <algorithm> --graph <spec> --seed <derived>`. Randomized
/// families (`er:N:P`, `regular:N:D`) still replay bit for bit, but
/// not through that CLI one-liner: the CLI derives the graph from its
/// `--seed` while the service derives it from [`crate::spec_seed`] —
/// rebuild the graph with `parse_spec(spec, StdRng(spec_seed(spec)))`
/// and run `CliqueTreeSampler` at the derived draw seed instead (what
/// the stress suite's cold reference does).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    workers: usize,
    cache_capacity: usize,
    thm1: SamplerConfig,
    exact: SamplerConfig,
    read_timeout: Option<Duration>,
    max_concurrent: usize,
    /// `None` = derive from the final worker count (`4 × workers`), so
    /// a later [`Self::workers`] call moves the default with it.
    max_inflight: Option<usize>,
    drain_grace: Duration,
    snapshot_path: Option<PathBuf>,
}

impl ServeOptions {
    /// Defaults: worker count from `CCT_WORKERS` (else the machine's
    /// parallelism), a 16-entry cache, the CLI's sampler configs, a
    /// 30 s idle read timeout, up to 256 concurrent connections,
    /// `4 × workers` in-flight requests, a 5 s drain grace period, and
    /// no snapshot persistence.
    pub fn new() -> Self {
        let workers = Workers::Auto.resolve(usize::MAX);
        ServeOptions {
            // Reuse the round engine's policy resolution: CCT_WORKERS
            // overrides, hardware parallelism otherwise. The `usize::MAX`
            // argument is the "machine count" cap, irrelevant here.
            workers,
            cache_capacity: 16,
            thm1: SamplerConfig::new().threads(4),
            exact: SamplerConfig::exact_variant().threads(4),
            read_timeout: Some(Duration::from_secs(30)),
            max_concurrent: 256,
            max_inflight: None,
            drain_grace: Duration::from_secs(5),
            snapshot_path: None,
        }
    }

    /// Sets the worker-pool width (floored at 1). Workers parallelize
    /// *across* jobs; each sampler runs its configured (default
    /// sequential) engine, so the pool width never changes any result.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the prepared-sampler cache capacity (floored at 1).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Overrides the sampler configuration behind one algorithm.
    /// Changing a config changes the served streams — it is part of the
    /// determinism contract's "(graph, config) key", fixed per service.
    /// The MST engine takes no sampler configuration (it is
    /// deterministic and walk-free), so an `Mst` override is a no-op.
    pub fn config(mut self, algorithm: Algorithm, config: SamplerConfig) -> Self {
        match algorithm {
            Algorithm::Thm1 => self.thm1 = config,
            Algorithm::Exact => self.exact = config,
            Algorithm::Mst => {}
        }
        self
    }

    /// Sets the idle read timeout the socket front-end applies per
    /// connection: a client that sends nothing for this long (with no
    /// reply in flight toward it) is closed cleanly. `None` disables
    /// the timeout — half-open clients then pin connection slots
    /// forever, which is exactly the bug the default guards against.
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Bounds **concurrent** connections (floored at 1). A connection
    /// arriving at the bound is answered with one structured
    /// `{"ok": false, "error": "overloaded"}` frame and closed — never
    /// silently dropped.
    pub fn max_concurrent(mut self, max: usize) -> Self {
        self.max_concurrent = max.max(1);
        self
    }

    /// Bounds in-flight requests across all connections (floored at 1).
    /// Requests beyond the bound are refused with the `overloaded`
    /// error frame instead of queueing without limit. Unset, the bound
    /// tracks the worker count: `4 × workers`.
    pub fn max_inflight(mut self, max: usize) -> Self {
        self.max_inflight = Some(max.max(1));
        self
    }

    /// Sets the grace period a draining server gives open connections
    /// to read their flushed replies and close before it exits anyway.
    pub fn drain_grace(mut self, grace: Duration) -> Self {
        self.drain_grace = grace;
        self
    }

    /// Enables cache persistence: the prepared-sampler cache is
    /// restored from `path` at startup (corrupted or mismatched
    /// snapshots are rejected and rebuilt cold — see
    /// [`crate::snapshot`]) and written back on graceful shutdown or
    /// on a `{"cmd": "snapshot"}` frame.
    pub fn snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    pub(crate) fn config_for(&self, algorithm: Algorithm) -> &SamplerConfig {
        match algorithm {
            Algorithm::Thm1 => &self.thm1,
            Algorithm::Exact => &self.exact,
            Algorithm::Mst => {
                unreachable!("the MST path never builds a phase sampler")
            }
        }
    }

    pub(crate) fn read_timeout_value(&self) -> Option<Duration> {
        self.read_timeout
    }

    pub(crate) fn max_concurrent_value(&self) -> usize {
        self.max_concurrent
    }

    pub(crate) fn max_inflight_value(&self) -> usize {
        self.max_inflight.unwrap_or(4 * self.workers)
    }

    pub(crate) fn drain_grace_value(&self) -> Duration {
        self.drain_grace
    }

    pub(crate) fn snapshot_path_value(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions::new()
    }
}

struct Job {
    request: SampleRequest,
    reply: mpsc::Sender<Result<SampleResponse, ServeError>>,
}

pub(crate) struct Shared {
    pub(crate) options: ServeOptions,
    pub(crate) cache: PreparedCache,
    pub(crate) stats: ServeStats,
}

/// A client's handle to a running service: submit jobs, read cache
/// stats. Clone freely across client threads — every clone must be
/// dropped before the closure passed to [`serve`] returns, or the
/// worker scope cannot join.
///
/// # Examples
///
/// ```
/// use cct_serve::{serve, SampleRequest, ServeOptions};
///
/// serve(ServeOptions::new().workers(2), |handle| {
///     let response = handle
///         .request(SampleRequest::new("petersen").seed(7).count(2))
///         .unwrap();
///     assert_eq!(response.draws.len(), 2);
///     assert_eq!(response.draws[0].edges.len(), 9);
///     // Same request again: served from cache, identical draws.
///     let replay = handle
///         .request(SampleRequest::new("petersen").seed(7).count(2))
///         .unwrap();
///     assert_eq!(replay.draws, response.draws);
///     assert!(replay.cache.hit);
/// });
/// ```
#[derive(Clone)]
pub struct ServeHandle {
    jobs: mpsc::Sender<Job>,
    shared: Arc<Shared>,
}

/// A submitted job's future response (blocking or polled).
pub struct Pending {
    reply: mpsc::Receiver<Result<SampleResponse, ServeError>>,
}

impl Pending {
    /// Blocks until the job is served.
    ///
    /// # Errors
    ///
    /// [`ServeError`] if the request was invalid or sampling failed.
    pub fn wait(self) -> Result<SampleResponse, ServeError> {
        self.reply
            .recv()
            .unwrap_or_else(|_| Err(ServeError::new("service shut down before replying")))
    }

    /// Polls for the response without blocking — the multiplexed
    /// front-end's shape, where one thread drains many pending replies.
    /// Returns `None` while the job is still running.
    pub fn try_wait(&self) -> Option<Result<SampleResponse, ServeError>> {
        match self.reply.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                Some(Err(ServeError::new("service shut down before replying")))
            }
        }
    }
}

impl ServeHandle {
    /// Enqueues a request without waiting.
    pub fn submit(&self, request: SampleRequest) -> Pending {
        let (tx, rx) = mpsc::channel();
        if let Err(e) = self.jobs.send(Job {
            request,
            reply: tx.clone(),
        }) {
            // The pool is gone (all workers exited); surface that as a
            // served error rather than a panic.
            let _ = tx.send(Err(ServeError::new(format!("service unavailable: {e}"))));
        }
        Pending { reply: rx }
    }

    /// Submits and blocks for the response.
    ///
    /// # Errors
    ///
    /// [`ServeError`] if the request was invalid or sampling failed.
    pub fn request(&self, request: SampleRequest) -> Result<SampleResponse, ServeError> {
        self.submit(request).wait()
    }

    /// A snapshot of the prepared-sampler cache's counters (the
    /// prepare-counter hook the single-flight tests assert on).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The service's observability counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Renders the `{"cmd": "stats"}` response frame: request counts,
    /// error/overload totals, cache counters, and per-algorithm latency
    /// histograms (see [`crate::stats`] for the schema).
    pub fn stats_frame(&self) -> Json {
        self.shared.stats.frame(&self.shared.cache.stats())
    }

    /// Writes the cache's ready entries to `path` as a versioned
    /// snapshot (see [`crate::snapshot`]). Returns the entry count.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for I/O failures.
    pub fn write_snapshot(&self, path: &Path) -> Result<usize, ServeError> {
        snapshot::write_snapshot(
            path,
            &self.shared.cache.ready_entries(),
            &self.shared.options,
        )
        .map_err(ServeError::new)
    }

    /// The snapshot path configured via [`ServeOptions::snapshot`].
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.shared.options.snapshot_path_value()
    }

    /// Serves a `{"cmd": "snapshot"}` frame: writes to the configured
    /// path and reports `{"ok": true, "entries": N}`, or an error frame
    /// when no path is configured / the write failed.
    pub fn snapshot_frame(&self) -> Json {
        match self.snapshot_path() {
            None => error_frame("no snapshot path configured (start with --snapshot PATH)"),
            Some(path) => match self.write_snapshot(path) {
                Ok(entries) => Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("entries".into(), Json::Num(entries as f64)),
                ]),
                Err(e) => error_frame(&e.to_string()),
            },
        }
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }
}

/// Runs a service for the duration of `f`: spawns the worker pool on a
/// [`std::thread::scope`], hands `f` a [`ServeHandle`], and joins every
/// worker when `f` returns (the handle and all clones must be dropped by
/// then). Returns `f`'s result.
///
/// See [`ServeHandle`] for a usage example; the wire layer
/// ([`crate::serve_endpoint`]) is built on this same entry point.
pub fn serve<R>(options: ServeOptions, f: impl FnOnce(ServeHandle) -> R) -> R {
    let cache = PreparedCache::new(options.cache_capacity);
    if let Some(path) = options.snapshot_path_value() {
        // A rejected snapshot is a warm-start opportunity lost, never a
        // startup failure: report it and serve cold.
        match snapshot::load_snapshot(path, &options, &cache) {
            Ok(summary) if summary.skipped > 0 => eprintln!(
                "snapshot {}: restored {}, skipped {} (stale entries rebuild cold)",
                path.display(),
                summary.restored,
                summary.skipped
            ),
            Ok(_) => {}
            Err(e) => eprintln!("snapshot {} rejected, serving cold: {e}", path.display()),
        }
    }
    let workers = options.workers;
    let shared = Arc::new(Shared {
        options,
        cache,
        stats: ServeStats::new(),
    });
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    std::thread::scope(|s| {
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            s.spawn(move || worker_loop(&rx, &shared));
        }
        f(ServeHandle {
            jobs: tx,
            shared: Arc::clone(&shared),
        })
    })
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Job>>, shared: &Shared) {
    loop {
        // Take the next job with the receiver lock released before the
        // (long) sampling work, so other workers keep pulling.
        let job = match rx.lock().expect("job queue lock").recv() {
            Ok(job) => job,
            Err(_) => break, // every handle dropped: drain complete
        };
        let algorithm = job.request.algorithm;
        let started = Instant::now();
        let result = process(shared, job.request);
        shared
            .stats
            .record(algorithm, started.elapsed(), result.is_ok());
        // A client that gave up on its Pending just drops the receiver;
        // the send error is not the worker's problem.
        let _ = job.reply.send(result);
    }
}

/// Builds the graph a spec denotes — a pure function of the spec string
/// (RNG seeded by [`spec_seed`]), with size limits following the
/// requested backend. Shared by the cached phase-sampler path and the
/// uncached MST path so the two can never disagree on what a spec means.
pub(crate) fn build_spec_graph(
    spec: &str,
    backend: cct_core::Backend,
) -> Result<cct_graph::Graph, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec_seed(spec));
    let limits = cct_graph::spec::SpecLimits::from_env()
        .with_sparse_backend(backend == cct_core::Backend::Sparse);
    cct_graph::spec::parse_spec_with_limits(spec, &mut rng, &limits)
        .map_err(|e| format!("bad graph spec: {e}"))
}

/// Serves one MST request: build the graph, run the deterministic
/// Borůvka engine **once**, and emit `count` identical draws. No
/// prepared-sampler cache entry is involved (there is no per-graph
/// preprocessing to reuse), and the request's `seed` is ignored — the
/// draws still carry their derived seeds so the response shape matches
/// the sampler algorithms.
fn process_mst(request: SampleRequest) -> Result<SampleResponse, ServeError> {
    let graph = build_spec_graph(&request.graph_spec, request.backend).map_err(ServeError::new)?;
    let report = cct_core::MstEngine::new()
        .run(&graph)
        .map_err(|e| ServeError::new(e.to_string()))?;
    let draws = (0..request.count)
        .map(|i| Draw {
            draw_seed: request.draw_seed(i),
            edges: report.tree.edges().to_vec(),
            ledger: report.rounds.clone(),
            monte_carlo_failure: false,
        })
        .collect();
    Ok(SampleResponse {
        request,
        cache: CacheInfo {
            hit: false,
            prepares: 0,
        },
        resident_bytes: 0,
        draws,
    })
}

/// Serves one request: resolve the prepared sampler through the cache
/// (single-flight), then draw `count` trees from derived RNG streams.
fn process(shared: &Shared, request: SampleRequest) -> Result<SampleResponse, ServeError> {
    request
        .validate()
        .map_err(|e| ServeError::new(e.to_string()))?;
    if request.algorithm == Algorithm::Mst {
        return process_mst(request);
    }
    let key = CacheKey {
        algorithm: request.algorithm,
        backend: request.backend,
        graph_spec: request.graph_spec.clone(),
    };
    // The request's backend overrides the service config's: the key and
    // the prepared state must agree, and draws are backend-invariant.
    let config = shared
        .options
        .config_for(request.algorithm)
        .clone()
        .backend(request.backend);
    let (prepared, cache) = shared.cache.get_or_prepare(&key, || {
        // The graph is a pure function of the spec string (the cache
        // key's half of the determinism contract).
        let graph = build_spec_graph(&key.graph_spec, key.backend)?;
        CliqueTreeSampler::new(config)
            .prepare(&graph)
            .map_err(|e| e.to_string())
    });
    let prepared = prepared.map_err(ServeError::new)?;
    let mut draws = Vec::with_capacity(request.count as usize);
    for i in 0..request.count {
        let draw_seed = request.draw_seed(i);
        let mut rng = rand::rngs::StdRng::seed_from_u64(draw_seed);
        let report = prepared
            .sample(&mut rng)
            .map_err(|e| ServeError::new(e.to_string()))?;
        draws.push(Draw {
            draw_seed,
            edges: report.tree.edges().to_vec(),
            ledger: report.rounds,
            monte_carlo_failure: report.monte_carlo_failure,
        });
    }
    let resident_bytes = prepared.matrix_bytes();
    Ok(SampleResponse {
        request,
        cache,
        resident_bytes,
        draws,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_core::{EngineChoice, WalkLength};
    use cct_graph::generators;

    fn quick_options() -> ServeOptions {
        let config = SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost);
        ServeOptions::new()
            .workers(2)
            .cache_capacity(4)
            .config(Algorithm::Thm1, config.clone())
            .config(Algorithm::Exact, config)
    }

    #[test]
    fn serves_draws_matching_cold_runs() {
        let options = quick_options();
        let config = options.config_for(Algorithm::Thm1).clone();
        serve(options, |handle| {
            let req = SampleRequest::new("petersen").seed(9).count(3);
            let response = handle.request(req.clone()).unwrap();
            assert_eq!(response.draws.len(), 3);
            let g = generators::petersen();
            let sampler = CliqueTreeSampler::new(config);
            for (i, draw) in response.draws.iter().enumerate() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(req.draw_seed(i as u32));
                let cold = sampler.sample(&g, &mut rng).unwrap();
                assert_eq!(draw.edges, cold.tree.edges(), "draw {i}");
                assert_eq!(draw.ledger, cold.rounds, "draw {i}");
            }
        });
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        serve(quick_options(), |handle| {
            let req = SampleRequest::new("complete:8").seed(1);
            let first = handle.request(req.clone()).unwrap();
            assert!(!first.cache.hit);
            let second = handle.request(req).unwrap();
            assert!(second.cache.hit);
            assert_eq!(first.draws, second.draws);
            let stats = handle.cache_stats();
            assert_eq!(stats.misses, 1);
            assert_eq!(stats.hits, 1);
        });
    }

    #[test]
    fn responses_report_resident_prepared_bytes() {
        serve(quick_options(), |handle| {
            let first = handle
                .request(SampleRequest::new("cycle:64").seed(2))
                .unwrap();
            assert!(first.resident_bytes > 0);
            // A warm repeat serves from the same (possibly further
            // materialized) prepared state — never less resident.
            let second = handle
                .request(SampleRequest::new("cycle:64").seed(3))
                .unwrap();
            assert!(second.cache.hit);
            assert!(second.resident_bytes >= first.resident_bytes);
            // The figure reaches the wire under cache.resident_bytes.
            let json = second.to_json();
            let meta = json.get("cache").unwrap();
            assert_eq!(
                meta.get("resident_bytes"),
                Some(&Json::Num(second.resident_bytes as f64))
            );
        });
    }

    #[test]
    fn errors_are_served_not_panicked() {
        serve(quick_options(), |handle| {
            for (req, needle) in [
                (SampleRequest::new("no-such-family:4"), "bad graph spec"),
                (SampleRequest::new("petersen").count(0), "'count'"),
                (SampleRequest::new(""), "empty"),
            ] {
                let err = handle.request(req).unwrap_err();
                assert!(err.to_string().contains(needle), "{err}");
            }
            // The pool is still alive afterwards.
            assert!(handle.request(SampleRequest::new("petersen")).is_ok());
        });
    }

    #[test]
    fn submit_overlaps_jobs() {
        serve(quick_options(), |handle| {
            let pendings: Vec<Pending> = (0..6u64)
                .map(|i| handle.submit(SampleRequest::new("complete:8").seed(i)))
                .collect();
            let responses: Vec<_> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
            assert_eq!(responses.len(), 6);
            // One preparation served all six (same key).
            assert_eq!(handle.cache_stats().total_prepares(), 1);
        });
    }

    #[test]
    fn backends_serve_identical_draws_from_separate_entries() {
        use cct_core::Backend;
        serve(quick_options(), |handle| {
            let req = |b: Backend| SampleRequest::new("cycle:64").seed(5).count(2).backend(b);
            let dense = handle.request(req(Backend::Dense)).unwrap();
            let sparse = handle.request(req(Backend::Sparse)).unwrap();
            // Separate cache entries (the collision fix)…
            assert_eq!(handle.cache_stats().misses, 2, "distinct keys");
            // …but byte-identical draws (the backend contract).
            assert_eq!(dense.draws, sparse.draws);
        });
    }

    #[test]
    fn mst_serves_identical_deterministic_draws() {
        serve(quick_options(), |handle| {
            let req = SampleRequest::new("grid-w:3x3")
                .algorithm(Algorithm::Mst)
                .seed(7)
                .count(3);
            let response = handle.request(req).unwrap();
            assert_eq!(response.draws.len(), 3);
            // Every draw is the same tree; none is a Monte Carlo failure.
            assert!(response
                .draws
                .iter()
                .all(|d| d.edges == response.draws[0].edges));
            assert!(response.draws.iter().all(|d| !d.monte_carlo_failure));
            // The seed is ignored: a different master seed serves the
            // same tree (with different derived draw seeds).
            let other = handle
                .request(
                    SampleRequest::new("grid-w:3x3")
                        .algorithm(Algorithm::Mst)
                        .seed(8),
                )
                .unwrap();
            assert_eq!(other.draws[0].edges, response.draws[0].edges);
            assert_eq!(other.draws[0].ledger, response.draws[0].ledger);
            // No prepared-cache entry was created for the MST path.
            assert_eq!(handle.cache_stats().total_prepares(), 0);
            // Cold verification: the served tree is the Kruskal MST of
            // the graph the spec denotes.
            let graph = super::build_spec_graph("grid-w:3x3", cct_core::Backend::Auto).unwrap();
            let reference = cct_walks::kruskal_mst(&graph).unwrap();
            assert_eq!(response.draws[0].edges, reference.edges());
        });
    }

    #[test]
    fn algorithms_do_not_share_cache_entries() {
        serve(quick_options(), |handle| {
            let a = handle
                .request(SampleRequest::new("petersen").seed(3))
                .unwrap();
            let b = handle
                .request(
                    SampleRequest::new("petersen")
                        .seed(3)
                        .algorithm(Algorithm::Exact),
                )
                .unwrap();
            assert_eq!(handle.cache_stats().misses, 2, "distinct keys");
            // Same derived seeds, different samplers — and the exact
            // variant can never flag a Monte Carlo failure.
            assert_eq!(a.draws[0].draw_seed, b.draws[0].draw_seed);
            assert!(!b.draws[0].monte_carlo_failure);
        });
    }
}
