//! The phase orchestrator: Theorem 1's `Õ(n^{1/2+α})`-round sampler and
//! the Appendix's exact `Õ(n^{2/3+α})` variant.
//!
//! One loop runs the phases (§2.2). Each phase has `S = {unvisited} ∪
//! {v_f}` and walks until it has seen `ρ` distinct vertices of `S`, on
//! one of three routes:
//!
//! * **top-down**: the shortcut matrix `Q` and the Schur transition
//!   (Corollaries 2–3, charged at the paper's iterated-squaring
//!   multiplication counts), then the top-down truncated walk on
//!   `Schur(G, S)` (Outline 3). Locally, the default `ExactSolve` route
//!   factors `I − T` once and solves only `Q`'s non-zero columns, and
//!   Corollary 3 multiplies only the `S × S` block it reads;
//! * **leader-local**: the leader collects the same Schur transition and
//!   walks it step by step, for final phases (`|S| ≤ ρ`), degenerate
//!   bipartite phase graphs and walks past the grid cap;
//! * **streamed**: out of core, the walk runs step by step on `G` itself
//!   and builds no matrix at all.
//!
//! Every newly visited vertex then gets its first-visit edge in `G`:
//! Algorithm 4 samples it on the Schur routes, reading a `wdeg_S` array
//! built once per phase in `O(m)`, and the streamed walk recorded it
//! directly. The union of first-visit edges across phases is the
//! Aldous–Broder spanning tree.

use crate::config::{EngineChoice, SamplerConfig, SchurComputation, Variant, WalkLength};
use crate::phase::{
    direct_local_phase, is_degenerate_bipartite, streamed_local_phase, top_down_phase, PhaseError,
    PowerTable,
};
use crate::report::{PhaseMethod, PhaseReport, SampleReport};
use cct_graph::{Graph, SpanningTree};
use cct_linalg::{CsrMatrix, Matrix, PMatrix, Repr};
use cct_schur::{
    sample_first_visit_edge, schur_transition_with_weights, shortcut_by_squaring, shortcut_exact,
    subset_wdeg, VertexSubset,
};
use cct_sim::{
    distributed_powers_deferred, BlockEngine, Clique, CostCategory, DeferredPowers,
    FastOracleEngine, MatMulEngine, RoundLedger, SemiringEngine, UnitCostEngine,
};
use rand::Rng;
use std::borrow::Cow;

/// Error returned by [`CliqueTreeSampler::sample`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleTreeError {
    /// The graph has no vertices.
    EmptyGraph,
    /// The graph is disconnected — no spanning tree exists.
    Disconnected,
    /// The largest edge weight is more than `2²⁰` times the smallest.
    /// Schur complements of such graphs lose all precision, so the
    /// sampler refuses them up front.
    WeightRatio,
    /// A phase failed irrecoverably (degenerate precision).
    Phase(PhaseError),
}

impl std::fmt::Display for SampleTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleTreeError::EmptyGraph => write!(f, "graph has no vertices"),
            SampleTreeError::Disconnected => write!(f, "graph is disconnected"),
            SampleTreeError::WeightRatio => write!(
                f,
                "edge weights span more than a 2^20 max/min ratio, \
                 past the sampler's numeric range"
            ),
            SampleTreeError::Phase(e) => write!(f, "phase failure: {e}"),
        }
    }
}

impl std::error::Error for SampleTreeError {}

impl From<PhaseError> for SampleTreeError {
    fn from(e: PhaseError) -> Self {
        SampleTreeError::Phase(e)
    }
}

/// The Congested Clique spanning-tree sampler (the paper's primary
/// contribution).
///
/// # Examples
///
/// ```
/// use cct_core::{CliqueTreeSampler, SamplerConfig, WalkLength};
/// use cct_graph::generators;
/// use rand::SeedableRng;
///
/// let g = generators::complete(8);
/// let sampler = CliqueTreeSampler::new(
///     SamplerConfig::new().walk_length(WalkLength::Fixed(1 << 12)),
/// );
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let report = sampler.sample(&g, &mut rng)?;
/// assert_eq!(report.tree.edges().len(), 7);
/// assert!(!report.monte_carlo_failure);
/// # Ok::<(), cct_core::SampleTreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CliqueTreeSampler {
    config: SamplerConfig,
}

impl CliqueTreeSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: SamplerConfig) -> Self {
        CliqueTreeSampler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Samples a spanning tree of `g`, returning the tree together with
    /// the full round/traffic report: [`CliqueTreeSampler::prepare`] then
    /// one [`PreparedSampler::sample`]. To draw several trees from one
    /// graph, prepare it once.
    ///
    /// # Errors
    ///
    /// [`SampleTreeError::Disconnected`] / [`SampleTreeError::EmptyGraph`]
    /// / [`SampleTreeError::WeightRatio`] for invalid inputs;
    /// [`SampleTreeError::Phase`] if fixed-point precision was configured
    /// too low to keep the distributions alive.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        rng: &mut R,
    ) -> Result<SampleReport, SampleTreeError> {
        self.prepare(g)?.sample(rng)
    }

    /// Preprocesses `g` for repeated sampling: validates the input once,
    /// builds the transition matrix, and precomputes the phase-1 power
    /// table (phase 1 always walks on `G` itself, since
    /// `Schur(G, V) = G`). The returned [`PreparedSampler`] serves
    /// `sample()` calls without redoing any graph-global work; a draw
    /// depends only on the seed, not on how many draws came before it.
    ///
    /// # Errors
    ///
    /// [`SampleTreeError::EmptyGraph`] / [`SampleTreeError::Disconnected`]
    /// / [`SampleTreeError::WeightRatio`] for invalid inputs.
    pub fn prepare(&self, g: &Graph) -> Result<PreparedSampler, SampleTreeError> {
        PreparedSampler::new(self.config.clone(), g)
    }
}

/// The largest max/min edge-weight ratio the sampler accepts. At `10¹⁴`
/// a Schur solve on a triangle with a tail, or on an 8-cycle, with one
/// heavy edge loses every significant bit and fails; at `2²⁰` thm1 and
/// exact draws on those graphs, a 4-cycle and `K₅` complete, the cycles
/// in seconds per draw.
const MAX_WEIGHT_RATIO: f64 = (1u64 << 20) as f64;

/// The input check every walk-based sampler relies on: `g` has a
/// vertex, is connected, and its largest edge weight is at most `2²⁰`
/// times its smallest. [`PreparedSampler::new`] runs it once per graph
/// (so [`CliqueTreeSampler::sample`] once per call), and
/// [`crate::direction4_sample`] per call; callers of the other walk
/// samplers (Corollary 1's doubling, Aldous–Broder, Wilson) run it
/// first, so a lopsided or disconnected input is an error, not a walk
/// that never covers the graph.
///
/// # Errors
///
/// [`SampleTreeError::EmptyGraph`] / [`SampleTreeError::Disconnected`]
/// / [`SampleTreeError::WeightRatio`].
pub fn validate(g: &Graph) -> Result<(), SampleTreeError> {
    if g.n() == 0 {
        return Err(SampleTreeError::EmptyGraph);
    }
    if !g.is_connected() {
        return Err(SampleTreeError::Disconnected);
    }
    let lightest = g.edges().iter().fold(f64::INFINITY, |acc, e| acc.min(e.2));
    if g.max_weight() > MAX_WEIGHT_RATIO * lightest {
        return Err(SampleTreeError::WeightRatio);
    }
    Ok(())
}

/// The config resolved for one graph: [`PreparedSampler::new`] reads it
/// to build the prepared state, and every draw resolves it again.
struct ResolvedConfig {
    workers: usize,
    /// Local worker width for matrix kernels (max of `workers` and the
    /// legacy `threads` knob) — also the width deferred power levels
    /// square with.
    threads: usize,
    engine: Box<dyn MatMulEngine>,
    rounding: cct_linalg::Rounding,
    rho: usize,
    ell0: u64,
    /// Whether every phase takes the streamed route (see
    /// [`table_exceeds_cap`]).
    out_of_core: bool,
    /// The representation of the transition matrix `P` and of the phase
    /// matrices: the backend knob's choice for this input graph, or CSR
    /// out of core, where a dense `P` is exactly the `Θ(n²)` allocation
    /// the regime avoids (memory/speed only — results are
    /// backend-invariant).
    repr: Repr,
}

fn resolve_config(config: &SamplerConfig, g: &Graph) -> ResolvedConfig {
    let n = g.n();
    // `workers` drives every parallel section the round engine owns
    // (the phase fan-out); the matmul engines additionally honor the
    // legacy `threads` knob for their local kernels, which have
    // their own small-size sequential fallback. Results are
    // identical at any width (the cct-sim determinism contract) —
    // only wall-clock changes.
    let workers = config.workers.resolve(n);
    let threads = workers.max(config.threads);
    let engine: Box<dyn MatMulEngine> = match config.engine {
        EngineChoice::FastOracle { alpha } => {
            let wpe = config.precision.rounding().words_per_entry(n);
            Box::new(FastOracleEngine::new(alpha, wpe, threads))
        }
        EngineChoice::Semiring => Box::new(SemiringEngine::new(threads)),
        EngineChoice::UnitCost => Box::new(UnitCostEngine { threads }),
    };
    // Footnote 1: with integer weights ≤ W the cover time is
    // O(W·|V|·|E|), so the paper's ℓ budget scales by W (this is the
    // very reason the weights must be polynomially bounded). The
    // product saturates at 2⁶², as `WalkLength::resolve` does.
    let ell0 = match config.walk_length {
        WalkLength::Paper { .. } => {
            let w = g.max_weight().max(1.0).round() as u64;
            let ell = config.walk_length.resolve(n).saturating_mul(w);
            ell.min(1 << 62).next_power_of_two()
        }
        _ => config.walk_length.resolve(n),
    };
    let out_of_core = n > 1 && table_exceeds_cap(n, ell0, config.max_table_bytes);
    ResolvedConfig {
        workers,
        threads,
        engine,
        rounding: config.precision.rounding(),
        rho: config.resolve_rho(n),
        ell0,
        out_of_core,
        repr: if out_of_core {
            Repr::Sparse
        } else {
            config.backend.resolve(g)
        },
    }
}

/// The out-of-core criterion: `true` when the *dense-equivalent* power
/// table of a phase (`log₂ ℓ + 2` levels of `n² × 8`-byte matrices —
/// the `+2` covers the transition matrix itself and one Las Vegas
/// extension) would exceed the configured cap. Deliberately a function
/// of `n` and `ℓ` only — never of the backend or the realized sparsity —
/// so every backend routes the same graph the same way.
fn table_exceeds_cap(n: usize, ell0: u64, max_table_bytes: usize) -> bool {
    let levels = ell0.trailing_zeros() as u128;
    (levels + 2) * 8 * (n as u128) * (n as u128) > max_table_bytes as u128
}

/// Whether an in-core phase walking the `|S| × |S|` matrix `t0` from
/// `start` takes the top-down route. Otherwise the leader walks it
/// locally: when `|S| ≤ ρ` (the whole matrix fits the `O(1)`-round
/// submatrix budget) or when the phase graph is degenerate bipartite.
/// [`PreparedSampler::new`] asks this of phase 1 (`t0 = P`,
/// `start = 0`), and the phase loop of every later in-core phase.
fn walks_top_down(t0: &PMatrix, start: usize, rho: usize) -> bool {
    let s_len = t0.rows();
    s_len > rho && !is_degenerate_bipartite(t0, start, rho.min(s_len))
}

/// The phase-1 work a [`PreparedSampler`] hoists out of the per-sample
/// loop: the doubling table of `P` (phase 1 walks on `G` itself) and the
/// exact ledger charges its distributed construction incurred, replayed
/// verbatim on every sample, so every draw's ledger bills the table as
/// if the draw had built it.
#[derive(Debug)]
struct Phase1Cache {
    /// The doubling table as a *lazy* [`DeferredPowers`]: the
    /// distributed-construction cost is charged in full at `prepare()`
    /// time (captured in `ledger` below for per-sample replay), but a
    /// level's numeric content materializes only when a walk first
    /// reads it (or [`PreparedSampler::warm`] forces it) — memoized
    /// across samples — and nothing above the table's settled level is
    /// ever computed. On a sparse backend the early levels additionally
    /// stay CSR until fill-in promotes them.
    /// Both effects land in [`PreparedSampler::matrix_bytes`]: a
    /// freshly prepared sampler holds little more than the transition
    /// matrix.
    powers: DeferredPowers,
    ledger: RoundLedger,
}

/// The shortcut matrix `Q` of a phase. Phase 1 has `S = V`, where a
/// walk's pre-`S` vertex is simply its previous vertex: `Q` is the
/// identity, represented symbolically instead of as a dense `n × n`
/// allocation that is read `O(deg)` times. Later phases hold `Q` in
/// either representation; Algorithm 4 reads it entry-wise (CSR rows are
/// never densified for it).
enum PhaseShortcut {
    Identity,
    Mat(PMatrix),
}

impl PhaseShortcut {
    fn weight(&self, u0: usize, u: usize) -> f64 {
        match self {
            PhaseShortcut::Identity => f64::from(u0 == u),
            PhaseShortcut::Mat(q) => q.get(u0, u),
        }
    }
}

/// The phase loop, over the graph-global work `prepared` holds: the
/// transition matrix and, when phase 1 walks top-down, its cached
/// doubling table and ledger charges. Later phases build their Schur
/// transitions and tables per draw.
fn sample_with<R: Rng + ?Sized>(
    prepared: &PreparedSampler,
    rng: &mut R,
) -> Result<SampleReport, SampleTreeError> {
    let PreparedSampler {
        config,
        graph: g,
        p,
        phase1,
    } = prepared;
    let n = g.n();
    let ResolvedConfig {
        workers,
        threads,
        engine,
        rounding,
        rho,
        ell0,
        out_of_core,
        repr,
    } = resolve_config(config, g);
    let rounds_per_mult = engine.rounds_for_multiply(n);

    let mut clique = Clique::new(n);
    if out_of_core && g.m() == n - 1 {
        // A connected graph with n − 1 edges *is* its unique spanning
        // tree: answer exactly in O(m), before any matrix exists.
        return Ok(unique_tree_report(g, rho, ell0, &mut clique));
    }
    let mut visited = vec![false; n];
    visited[0] = true; // W[0] = s: the leader's vertex (§2.1, Alg. 1)
    let mut remaining = n - 1;
    let mut vf = 0usize;
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n - 1);
    let mut phases: Vec<PhaseReport> = Vec::new();
    let mut total = RoundLedger::new();
    let mut failure = false;

    while remaining > 0 {
        let s_size = remaining + 1;
        let rho_phase = rho.min(s_size);
        let new_from = edges.len();
        let walk = if out_of_core {
            // ── Streamed: the walk runs step by step on G itself and
            // records each new vertex's actual entry edge (Aldous–Broder
            // verbatim, so trees stay exactly distributed where the walk
            // covers). The loop counts `remaining` instead of scanning
            // `visited`, so this route keeps O(1) bookkeeping per phase
            // and never builds S.
            let walk = streamed_local_phase(
                &mut clique,
                p,
                &visited,
                vf,
                rho_phase,
                ell0,
                config.variant,
                config.max_grid_len as u64,
                rng,
            )?;
            edges.extend(walk.first_visits.iter().map(|&(v, prev)| (prev, v)));
            walk
        } else {
            let s_vertices: Vec<usize> = (0..n).filter(|&v| !visited[v] || v == vf).collect();
            let s = VertexSubset::new(n, &s_vertices);
            // The phase walks in S's local ids (see `crate::phase`).
            let start = s.local_index(vf).expect("v_f is in S");

            // ── Derivative graphs for this phase (§2.4). Phase 1 uses G
            // itself: Schur(G, V) = G (the transition matrix is
            // borrowed, not cloned) and the shortcut matrix is the
            // symbolic identity (a walk's pre-S vertex is its previous
            // vertex) — phase 1 allocates no n² scratch at all. Later
            // phases also carry the Schur walk's stationary weights for
            // their power table.
            let (t0, q, weights) = if s.len() == n {
                (Cow::Borrowed(p), PhaseShortcut::Identity, None)
            } else {
                let q = match config.schur {
                    SchurComputation::ExactSolve => PMatrix::Dense(shortcut_exact(g, &s)),
                    SchurComputation::IteratedSquaring { tol } => {
                        // Starts in the backend's representation,
                        // promoting per the fill-in tracker; bit-identical
                        // to the dense 2n × 2n route.
                        shortcut_by_squaring(g, &s, tol, 64, repr).0
                    }
                };
                // Corollary 2's chain is 2n × 2n: charge the paper's
                // iterated-squaring count at 4× the n × n multiply cost,
                // and Corollary 3 one more product (Q·R) plus local
                // normalization. These figures are *analytic* (the
                // distributed protocol's published bill), not measured
                // from the local computation: the local route exploits
                // the chain's block structure ([[T, A], [0, I]] squares
                // in two n × n products — see
                // `cct_schur::shortcut_by_squaring`), an optimization of
                // the simulation, not of the simulated network algorithm.
                clique
                    .ledger_mut()
                    .charge(CostCategory::MatMul, schur_rounds(n, rounds_per_mult));
                let (trans_local, weights) = schur_transition_with_weights(g, &s, &q);
                (
                    Cow::Owned(phase_matrix(trans_local, repr)),
                    PhaseShortcut::Mat(q),
                    Some(weights),
                )
            };

            // ── Top-down: phase 1's table is the doubling table of P
            // itself, built once by `prepare()`. Replaying its cached
            // ledger bills this draw what building the table costs, and
            // its levels are *borrowed* (Las Vegas extensions land in the
            // table's transient tail), so a draw allocates no copy of it.
            // Later phases build their table here, weighted by the Schur
            // walk's stationary distribution. Products of the phase's
            // |S| × |S| blocks are billed as the n × n products the
            // distributed protocol performs.
            let block_engine = BlockEngine::new(engine.as_ref(), s.list(), threads);
            let built: Option<DeferredPowers>;
            let table = match weights {
                None => phase1.as_ref().map(|cache| {
                    clique.ledger_mut().merge(&cache.ledger);
                    &cache.powers
                }),
                Some(weights) => {
                    built = walks_top_down(&t0, start, rho).then(|| {
                        distributed_powers_deferred(
                            &mut clique,
                            &block_engine,
                            &t0,
                            ell0.trailing_zeros() as usize + 1,
                            rounding,
                            threads,
                        )
                        .with_stationary_weights(weights)
                    });
                    built.as_ref()
                }
            };
            let top_down = table.map(|base| {
                top_down_phase(
                    &mut clique,
                    &block_engine,
                    &mut PowerTable::new(base),
                    start,
                    rho_phase,
                    ell0,
                    config,
                    workers,
                    rng,
                )
            });
            let walk = match top_down {
                Some(Ok(walk)) => walk,
                // ── Leader-local, also when a top-down walk outgrew the
                // grid cap (after spending its rounds and randomness).
                None | Some(Err(PhaseError::GridCapExceeded)) => direct_local_phase(
                    &mut clique,
                    &t0,
                    start,
                    rho_phase,
                    ell0,
                    config.variant,
                    rng,
                )?,
                Some(Err(e)) => return Err(e.into()),
            }
            .into_global(&s);

            // ── Algorithm 4: sample first-visit edges in G for every
            // newly visited vertex. O(1) rounds: the leader scatters
            // each v's predecessor, machine v polls its neighbors for
            // Q[prev,u]/deg_S(u), and the sampled edges are gathered.
            // Locally, wdeg_S is one O(m) pass per phase.
            let wdeg_s = subset_wdeg(g, &s);
            let fv_words: u64 = walk
                .first_visits
                .iter()
                .map(|&(v, _)| 2 + 2 * g.num_neighbors(v) as u64)
                .sum();
            let ledger = clique.ledger_mut();
            ledger.charge(CostCategory::FirstVisit, 3);
            ledger.add_words(CostCategory::FirstVisit, fv_words);
            for &(v, prev) in &walk.first_visits {
                let (u, vv) =
                    sample_first_visit_edge(g, &wdeg_s, |a, b| q.weight(a, b), prev, v, rng)
                        .ok_or(SampleTreeError::Phase(PhaseError::DegenerateDistribution))?;
                debug_assert_eq!(vv, v);
                edges.push((u, v));
            }
            walk
        };
        debug_assert_eq!(
            walk.distinct,
            walk.first_visits.len() + 1,
            "every distinct non-start vertex must get a first-visit edge"
        );
        for &(_, v) in &edges[new_from..] {
            debug_assert!(!visited[v], "vertex {v} visited twice");
            visited[v] = true;
        }
        remaining -= edges.len() - new_from;
        vf = walk.last;

        let phase_ledger = clique.take_ledger();
        total.merge(&phase_ledger);
        phases.push(PhaseReport {
            s_size,
            rho: rho_phase,
            method: walk.method,
            ell: walk.ell_final,
            tau: walk.tau,
            new_vertices: walk.first_visits.len(),
            extensions: walk.extensions,
            rounds: phase_ledger,
            pi_words: walk.pi_words,
            placement_words: walk.placement_words,
        });
        if !walk.reached {
            debug_assert_eq!(config.variant, Variant::MonteCarlo);
            failure = true;
            break;
        }
    }

    let tree = if failure {
        // Theorem 1's Monte Carlo semantics: emit an arbitrary
        // spanning tree (flagged) when a phase misses its budget.
        bfs_tree(g)
    } else {
        SpanningTree::new(n, edges).expect("first-visit edges of a covering walk span")
    };
    Ok(SampleReport {
        tree,
        rounds: total,
        phases,
        monte_carlo_failure: failure,
    })
}

/// A prepare-once / sample-many handle, and the one draw path: the
/// graph-global preprocessing (input validation, the transition matrix,
/// and the phase-1 power table where `Schur(G, V) = G`) is done once,
/// and every [`PreparedSampler::sample`] call reuses it.
/// [`CliqueTreeSampler::sample`] is a fresh preparation plus one draw,
/// so for the same seed it returns the same tree and round ledger as a
/// draw from a long-lived preparation — the cache replays the exact
/// ledger charges its construction incurred.
///
/// This is the serving-path API. Drawing repeatedly from one preparation
/// measured ×1.03–1.68 draws per second over preparing per draw
/// (experiment `e18`, `BENCH_e18.json`): the gain grows with `n`, and
/// phases 2+ still build their own tables on every draw.
///
/// # Examples
///
/// ```
/// use cct_core::{CliqueTreeSampler, SamplerConfig, WalkLength};
/// use cct_graph::generators;
/// use rand::SeedableRng;
///
/// let g = generators::complete(8);
/// let sampler = CliqueTreeSampler::new(
///     SamplerConfig::new().walk_length(WalkLength::Fixed(1 << 12)),
/// );
/// let prepared = sampler.prepare(&g)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// for _ in 0..3 {
///     let report = prepared.sample(&mut rng)?;
///     assert_eq!(report.tree.edges().len(), 7);
/// }
/// # Ok::<(), cct_core::SampleTreeError>(())
/// ```
#[derive(Debug)]
pub struct PreparedSampler {
    config: SamplerConfig,
    graph: Graph,
    /// The transition matrix `P`, in the representation the backend knob
    /// resolved to (CSR out of core).
    p: PMatrix,
    /// Phase 1's doubling table, when phase 1 walks top-down.
    phase1: Option<Phase1Cache>,
}

impl PreparedSampler {
    /// Validates `g` and hoists the graph-global work out of the sampling
    /// loop. Prefer [`CliqueTreeSampler::prepare`].
    ///
    /// # Errors
    ///
    /// [`SampleTreeError::EmptyGraph`] / [`SampleTreeError::Disconnected`]
    /// / [`SampleTreeError::WeightRatio`] for invalid inputs.
    pub fn new(config: SamplerConfig, g: &Graph) -> Result<Self, SampleTreeError> {
        validate(g)?;
        let rc = resolve_config(&config, g);
        let p = g.transition_pmatrix(rc.repr);
        // Phase 1 has S = V (all vertices unvisited except the leader,
        // which doubles as v_f), so its route is a function of the graph
        // and config alone. When it is top-down, build its doubling
        // table on a scratch clique, capturing the exact ledger charges
        // for per-sample replay. The table is *deferred*: its full
        // distributed cost is charged here, but level contents
        // materialize (memoized) only when a sample first reads them.
        let phase1 = (!rc.out_of_core && walks_top_down(&p, 0, rc.rho)).then(|| {
            let mut scratch = Clique::new(g.n());
            let powers = distributed_powers_deferred(
                &mut scratch,
                rc.engine.as_ref(),
                &p,
                rc.ell0.trailing_zeros() as usize + 1,
                rc.rounding,
                rc.threads,
            )
            // The walk on G is reversible: P = D⁻¹W satisfies detailed
            // balance with G's weighted degrees.
            .with_stationary_weights((0..g.n()).map(|u| g.degree(u)).collect());
            Phase1Cache {
                powers,
                ledger: scratch.take_ledger(),
            }
        });
        Ok(PreparedSampler {
            config,
            graph: g.clone(),
            p,
            phase1,
        })
    }

    /// The prepared graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// The matrix representation the backend knob resolved to for this
    /// graph.
    pub fn repr(&self) -> Repr {
        self.p.repr()
    }

    /// Total resident bytes of the prepared state: the transition
    /// matrix and every **materialized** level of the cached phase-1
    /// doubling table. (The cached ledger delta replayed per draw is two
    /// fixed arrays and owns no heap memory.)
    ///
    /// This is the allocation that pins the practical size cap (a dense
    /// 8192² `f64` matrix is 512 MB, and the table retains `log₂ ℓ` of
    /// them); the sparse backend's memory win is visible here, and
    /// experiments `e19`/`e20` report it as `peak_matrix_bytes` /
    /// `resident_bytes`. The serve layer exposes the same number in its
    /// `/cache` metadata, so the two always agree.
    ///
    /// # The lazy-table contract
    ///
    /// The phase-1 table is a [`cct_sim::DeferredPowers`]: `prepare()`
    /// charges its full distributed construction cost up front (so
    /// ledgers are bit-identical to an eager build — per-category
    /// totals don't care *when* a charge lands), but a level's numeric
    /// content materializes only when a sample first reads it, and is
    /// memoized thereafter. Levels above the table's settled level — the
    /// first level that agrees with the one below it, within the drift
    /// bound `DeferredPowers` documents, or the first dense level at the
    /// stationary row — are that level and are never stored.
    /// Consequently this figure **grows on the first sample**
    /// — from roughly the transition matrix alone after `prepare()` to
    /// the footprint of the levels up to the settled one (all
    /// `log₂ ℓ + 1` of them if the table never settles), which is also
    /// what [`PreparedSampler::warm`] leaves — and is a true
    /// point-in-time resident measurement, not an a-priori capacity
    /// bound.
    pub fn matrix_bytes(&self) -> usize {
        let cache: usize = self
            .phase1
            .as_ref()
            .map_or(0, |c| c.powers.resident_bytes());
        self.p.resident_bytes() + cache
    }

    /// Samples a spanning tree, reusing the prepared graph-global work.
    /// Same seed ⇒ same tree and same ledger, whether this is the
    /// preparation's first draw or its thousandth.
    ///
    /// # Errors
    ///
    /// [`SampleTreeError::Phase`] if fixed-point precision was configured
    /// too low to keep the distributions alive.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SampleReport, SampleTreeError> {
        sample_with(self, rng)
    }

    /// Wraps the prepared state for sharing across threads — the serving
    /// path's shape, where many workers draw from one preparation.
    ///
    /// [`PreparedSampler`] holds only immutable plain data (the config,
    /// the graph, the transition matrix, and the phase-1 power table
    /// with its ledger); `sample` takes `&self` and every per-call
    /// mutation (Las Vegas extensions, scratch cliques) lives in
    /// per-draw state. It is therefore `Send + Sync` by construction — a
    /// compile-time assertion in this crate keeps that true — and
    /// `Arc<PreparedSampler>` can be handed to any number of concurrent
    /// samplers.
    ///
    /// # Examples
    ///
    /// ```
    /// use cct_core::{CliqueTreeSampler, SamplerConfig, WalkLength};
    /// use cct_graph::generators;
    /// use rand::SeedableRng;
    ///
    /// let sampler = CliqueTreeSampler::new(
    ///     SamplerConfig::new().walk_length(WalkLength::Fixed(1 << 12)),
    /// );
    /// let shared = sampler.prepare(&generators::complete(8))?.into_shared();
    /// std::thread::scope(|s| {
    ///     for seed in 0..2u64 {
    ///         let shared = std::sync::Arc::clone(&shared);
    ///         s.spawn(move || {
    ///             let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ///             shared.sample(&mut rng).unwrap()
    ///         });
    ///     }
    /// });
    /// # Ok::<(), cct_core::SampleTreeError>(())
    /// ```
    pub fn into_shared(self) -> std::sync::Arc<PreparedSampler> {
        std::sync::Arc::new(self)
    }

    /// Materializes the cached phase-1 table up to its settled level, or
    /// every level if it never settles: the state a served key reaches
    /// after its first draw, whose phase-1 walk reads the table's top
    /// level. A server restored from a snapshot re-prepares each key and
    /// warms it, so its first draws cost what a warm key's do. A no-op
    /// when phase 1 builds no table.
    pub fn warm(&self) {
        if let Some(cache) = &self.phase1 {
            cache.powers.level(cache.powers.len() - 1);
        }
    }
}

/// Compile-time audit that the prepare-once/sample-many handle stays
/// shareable across threads: adding a `Cell`, `Rc`, or raw pointer to
/// any field (or to `Graph`/`Matrix`/`RoundLedger` below it) breaks this
/// function, not a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedSampler>();
    assert_send_sync::<CliqueTreeSampler>();
    assert_send_sync::<SampleTreeError>();
};

/// The out-of-core answer for tree inputs: a connected graph with
/// `m = n − 1` is its own unique spanning tree, so the sampler answers
/// exactly (every seed yields the same — correct — tree) in `O(m)`
/// local work and `O(1)` rounds. Recognition is one degree gather at
/// the leader plus a broadcast verdict; the tree itself needs no data
/// movement, since every edge is already known to both endpoints.
fn unique_tree_report(g: &Graph, rho: usize, ell0: u64, clique: &mut Clique) -> SampleReport {
    let n = g.n();
    let ledger = clique.ledger_mut();
    ledger.charge(CostCategory::Gather, 1);
    ledger.add_words(CostCategory::Gather, n as u64);
    ledger.charge(CostCategory::Broadcast, 1);
    ledger.add_words(CostCategory::Broadcast, 1);
    let edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
    let tree = SpanningTree::new(n, edges).expect("connected with m = n − 1 is a tree");
    let ledger = clique.take_ledger();
    SampleReport {
        tree,
        rounds: ledger.clone(),
        phases: vec![PhaseReport {
            s_size: n,
            rho: rho.min(n),
            method: PhaseMethod::UniqueTree,
            ell: ell0,
            tau: 0,
            new_vertices: n - 1,
            extensions: 0,
            rounds: ledger,
            pi_words: 0,
            placement_words: 0,
        }],
        monte_carlo_failure: false,
    }
}

/// The iterated-squaring count charged for computing `Q` (Corollary 2):
/// `k = O(n³ log 1/δ)` steps of the absorbing chain need `⌈log₂ k⌉`
/// squarings ≈ `3 log₂ n + 6`.
fn charged_schur_squarings(n: usize) -> u64 {
    (3.0 * (n as f64).log2() + 6.0).ceil() as u64
}

/// The `MatMul` rounds one phase's Schur construction is billed:
/// Corollary 2's `k` squarings of the `2n × 2n` chain at 4× the
/// `n × n` multiply cost, plus Corollary 3's one product `Q·R`, each
/// `n × n` multiply at `rounds_per_mult`. Direction 4 bills its Schur
/// phases by the same rule.
pub(crate) fn schur_rounds(n: usize, rounds_per_mult: u64) -> u64 {
    (4 * charged_schur_squarings(n) + 1) * rounds_per_mult
}

/// A phase's matrix: the `|S| × |S|` Schur transition in local ids,
/// in the backend's representation — CSR for the sparse backends (the
/// fill-in tracker promotes a block too full to gain from it), dense
/// otherwise. Values are identical bit for bit either way.
fn phase_matrix(local: Matrix, repr: Repr) -> PMatrix {
    match repr {
        Repr::Dense => PMatrix::Dense(local),
        Repr::Sparse => PMatrix::Sparse(CsrMatrix::from_dense(&local)).promoted(),
    }
}

/// An arbitrary (BFS) spanning tree — the Monte Carlo failure output.
fn bfs_tree(g: &Graph) -> SpanningTree {
    let n = g.n();
    let mut parent = vec![usize::MAX; n];
    parent[0] = 0;
    let mut queue = std::collections::VecDeque::from([0usize]);
    let mut edges = Vec::with_capacity(n - 1);
    while let Some(u) = queue.pop_front() {
        for &(v, _) in g.neighbors(u) {
            if parent[v] == usize::MAX {
                parent[v] = u;
                edges.push((u, v));
                queue.push_back(v);
            }
        }
    }
    SpanningTree::new(n, edges).expect("connected graph has a BFS tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Placement, WalkLength};
    use crate::report::PhaseMethod;
    use cct_graph::generators;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn quick_config() -> SamplerConfig {
        SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost)
    }

    #[test]
    fn samples_valid_trees_on_suite() {
        let mut r = rng(100);
        for g in [
            generators::complete(9),
            generators::petersen(),
            generators::grid(3, 3),
            generators::lollipop(5, 4),
            generators::cycle(8),
            generators::k_dense_irregular(9),
            generators::wheel(9),
        ] {
            let sampler = CliqueTreeSampler::new(quick_config());
            let report = sampler.sample(&g, &mut r).unwrap();
            assert!(!report.monte_carlo_failure, "failure on n = {}", g.n());
            assert_eq!(report.tree.n(), g.n());
            for &(u, v) in report.tree.edges() {
                assert!(g.has_edge(u, v), "foreign edge ({u},{v})");
            }
            assert!(report.total_rounds() > 0);
            assert!(!report.phases.is_empty());
        }
    }

    /// The embedding phases used before they moved to `|S|` scale, kept
    /// as the reference: the local transition matrix as the `n × n`
    /// `diag(T, I)` in global ids, in the given representation.
    fn pad_to_global(local: &Matrix, s: &VertexSubset, n: usize, repr: Repr) -> PMatrix {
        match repr {
            Repr::Dense => {
                let mut out = Matrix::identity(n);
                for (i, &u) in s.list().iter().enumerate() {
                    out[(u, u)] = 0.0;
                    for (j, &v) in s.list().iter().enumerate() {
                        out[(u, v)] = local[(i, j)];
                    }
                }
                PMatrix::Dense(out)
            }
            Repr::Sparse => {
                let mut b = CsrMatrix::builder(n, n);
                for u in 0..n {
                    match s.local_index(u) {
                        None => b.push(u, 1.0),
                        Some(i) => {
                            for (j, &v) in s.list().iter().enumerate() {
                                b.push(v, local[(i, j)]);
                            }
                        }
                    }
                    b.finish_row();
                }
                PMatrix::Sparse(b.build())
            }
        }
    }

    /// The `S` block of a padded `n × n` matrix.
    fn s_block(m: &PMatrix, s: &VertexSubset) -> Matrix {
        Matrix::from_fn(s.len(), s.len(), |i, j| m.get(s.global(i), s.global(j)))
    }

    #[test]
    fn compact_phase_tables_match_the_padded_tables() {
        // For random graphs and subsets: the doubling table built on the
        // |S| × |S| phase matrix equals the S block of the padded table
        // at every level, with equal ledgers — through every engine,
        // representation and rounding, and through one Las Vegas
        // extension squaring.
        use cct_linalg::{FixedPoint, Rounding};
        use cct_schur::{schur_transition_from_shortcut_p, shortcut_exact};
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut r = rng(600);
        for trial in 0..6 {
            let n = r.gen_range(9..=30);
            let g = generators::erdos_renyi_connected(n, 0.3, &mut r);
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(&mut r);
            let s = VertexSubset::new(n, &ids[..r.gen_range(2..n)]);
            let q = PMatrix::Dense(shortcut_exact(&g, &s));
            let local = schur_transition_from_shortcut_p(&g, &s, &q);
            let engines: [Box<dyn MatMulEngine>; 3] = [
                Box::new(UnitCostEngine { threads: 1 }),
                Box::new(FastOracleEngine::new(cct_sim::ALPHA, 2, 1)),
                Box::new(SemiringEngine::new(1)),
            ];
            for engine in &engines {
                for repr in [Repr::Dense, Repr::Sparse] {
                    for rounding in [Rounding::Exact, Rounding::Fixed(FixedPoint::new(30))] {
                        let case =
                            format!("trial {trial}, {}, {repr:?}, {rounding:?}", engine.name());
                        let padded = pad_to_global(&local, &s, n, repr);
                        let mut padded_clique = Clique::new(n);
                        let padded_table = distributed_powers_deferred(
                            &mut padded_clique,
                            engine.as_ref(),
                            &padded,
                            6,
                            rounding,
                            1,
                        );
                        let block = BlockEngine::new(engine.as_ref(), s.list(), 1);
                        let mut clique = Clique::new(n);
                        let table = distributed_powers_deferred(
                            &mut clique,
                            &block,
                            &phase_matrix(local.clone(), repr),
                            6,
                            rounding,
                            1,
                        );
                        assert_eq!(clique.ledger(), padded_clique.ledger(), "{case}");
                        for k in 0..6 {
                            assert_eq!(
                                table.level(k).to_dense(),
                                s_block(padded_table.level(k), &s),
                                "{case}, level {k}"
                            );
                        }
                        // The extension on fresh cliques: its own ledger,
                        // down to which categories record words at all.
                        let top = padded_table.level(5);
                        let mut padded_clique = Clique::new(n);
                        let padded_ext = engine.multiply(&mut padded_clique, top, top);
                        let mut clique = Clique::new(n);
                        let ext = block.multiply(&mut clique, table.level(5), table.level(5));
                        assert_eq!(clique.ledger(), padded_clique.ledger(), "{case}, ext");
                        assert_eq!(ext.to_dense(), s_block(&padded_ext, &s), "{case}, ext");
                    }
                }
            }
        }
    }

    #[test]
    fn phases_visit_rho_new_vertices() {
        let g = generators::complete(16);
        let sampler = CliqueTreeSampler::new(quick_config());
        let mut r = rng(101);
        let report = sampler.sample(&g, &mut r).unwrap();
        // ρ = 4: every non-final top-down phase contributes 3 new
        // vertices (ρ − 1, since v_f is already visited).
        for p in &report.phases[..report.phases.len() - 1] {
            assert_eq!(p.rho, 4);
            assert_eq!(p.new_vertices, 3, "phase: {p:?}");
        }
        // 15 vertices need first-visit edges in total.
        let total_new: usize = report.phases.iter().map(|p| p.new_vertices).sum();
        assert_eq!(total_new, 15);
    }

    #[test]
    fn prepared_sampler_is_bit_identical_to_cold() {
        // Same seed ⇒ same tree AND same ledger, across graphs, engines,
        // and repeated draws from one prepared handle.
        for engine in [
            EngineChoice::UnitCost,
            EngineChoice::FastOracle {
                alpha: cct_sim::ALPHA,
            },
            EngineChoice::Semiring,
        ] {
            for g in [
                generators::complete(12),
                generators::petersen(),
                generators::lollipop(5, 4),
            ] {
                let config = quick_config().engine(engine);
                let sampler = CliqueTreeSampler::new(config);
                let prepared = sampler.prepare(&g).unwrap();
                let mut r_cold = rng(300);
                let mut r_prep = rng(300);
                for draw in 0..3 {
                    let cold = sampler.sample(&g, &mut r_cold).unwrap();
                    let prep = prepared.sample(&mut r_prep).unwrap();
                    assert_eq!(cold.tree, prep.tree, "{engine:?}, draw {draw}");
                    assert_eq!(cold.rounds, prep.rounds, "{engine:?}, draw {draw}");
                    assert_eq!(
                        cold.phases.len(),
                        prep.phases.len(),
                        "{engine:?}, draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_sampler_works_at_every_worker_count() {
        let g = generators::complete(16);
        let reference = {
            let sampler = CliqueTreeSampler::new(quick_config());
            sampler.sample(&g, &mut rng(301)).unwrap()
        };
        for workers in [1usize, 4] {
            let sampler =
                CliqueTreeSampler::new(quick_config().workers(cct_sim::Workers::Fixed(workers)));
            let prepared = sampler.prepare(&g).unwrap();
            let report = prepared.sample(&mut rng(301)).unwrap();
            assert_eq!(report.tree, reference.tree, "workers = {workers}");
            assert_eq!(report.rounds, reference.rounds, "workers = {workers}");
        }
    }

    #[test]
    fn shared_prepared_sampler_is_bit_identical_across_threads() {
        // One Arc'd preparation, many concurrent samplers: each thread's
        // draw must equal the cold single-threaded run at its own seed.
        let g = generators::complete(12);
        let sampler = CliqueTreeSampler::new(quick_config());
        let shared = sampler.prepare(&g).unwrap().into_shared();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    let shared = std::sync::Arc::clone(&shared);
                    s.spawn(move || shared.sample(&mut rng(400 + i)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, prep) in results.iter().enumerate() {
            let cold = sampler.sample(&g, &mut rng(400 + i as u64)).unwrap();
            assert_eq!(cold.tree, prep.tree, "thread {i}");
            assert_eq!(cold.rounds, prep.rounds, "thread {i}");
        }
    }

    #[test]
    fn prepared_sampler_validates_input() {
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            CliqueTreeSampler::new(quick_config())
                .prepare(&disconnected)
                .unwrap_err(),
            SampleTreeError::Disconnected
        );
        let trivial = Graph::from_edges(1, &[]).unwrap();
        let prepared = CliqueTreeSampler::new(quick_config())
            .prepare(&trivial)
            .unwrap();
        assert!(prepared
            .sample(&mut rng(302))
            .unwrap()
            .tree
            .edges()
            .is_empty());
        assert_eq!(prepared.graph().n(), 1);
    }

    #[test]
    fn prepared_sampler_las_vegas_extensions_match_cold() {
        // Las Vegas phase-1 extensions append to the power table's
        // transient tail, never to the cached table, so the cache stays
        // pristine and results identical.
        let g = generators::complete(12);
        let config = SamplerConfig::new()
            .rho(6)
            .walk_length(WalkLength::Fixed(4))
            .variant(Variant::LasVegas)
            .engine(EngineChoice::UnitCost);
        let sampler = CliqueTreeSampler::new(config);
        let prepared = sampler.prepare(&g).unwrap();
        let mut r_cold = rng(303);
        let mut r_prep = rng(303);
        for _ in 0..2 {
            let cold = sampler.sample(&g, &mut r_cold).unwrap();
            let prep = prepared.sample(&mut r_prep).unwrap();
            assert!(prep.phases.iter().any(|p| p.extensions > 0));
            assert_eq!(cold.tree, prep.tree);
            assert_eq!(cold.rounds, prep.rounds);
        }
    }

    #[test]
    fn weighted_graphs_supported() {
        let mut r = rng(102);
        let g =
            cct_graph::generators::with_random_integer_weights(&generators::complete(7), 5, &mut r)
                .unwrap();
        let sampler = CliqueTreeSampler::new(quick_config());
        let report = sampler.sample(&g, &mut r).unwrap();
        assert!(!report.monte_carlo_failure);
        assert_eq!(report.tree.edges().len(), 6);
    }

    #[test]
    fn weight_ratios_past_the_bound_are_refused() {
        // A triangle with one light edge samples at the bound; at twice
        // the bound the cold and prepared paths refuse it alike.
        let triangle =
            |w: f64| Graph::from_weighted_edges(3, &[(0, 1, w), (1, 2, w), (0, 2, 1.0)]).unwrap();
        let sampler = CliqueTreeSampler::new(SamplerConfig::new());
        let at_bound = triangle(MAX_WEIGHT_RATIO);
        let report = sampler.sample(&at_bound, &mut rng(112)).unwrap();
        assert_eq!(report.tree.edges().len(), 2);
        assert!(sampler.prepare(&at_bound).is_ok());
        let past = triangle(2.0 * MAX_WEIGHT_RATIO);
        assert_eq!(
            sampler.sample(&past, &mut rng(112)).unwrap_err(),
            SampleTreeError::WeightRatio
        );
        assert_eq!(
            sampler.prepare(&past).unwrap_err(),
            SampleTreeError::WeightRatio
        );
    }

    #[test]
    fn huge_uniform_weights_saturate_the_walk_length() {
        // A path whose weights are all 10^18 is the unweighted path
        // scaled: ℓ₀ = ℓ·W saturates at 2⁶² instead of wrapping.
        let edges = [(0, 1, 1e18), (1, 2, 1e18), (2, 3, 1e18)];
        let g = Graph::from_weighted_edges(4, &edges).unwrap();
        let config = SamplerConfig::new();
        assert_eq!(resolve_config(&config, &g).ell0, 1 << 62);
        let report = CliqueTreeSampler::new(config)
            .sample(&g, &mut rng(113))
            .unwrap();
        assert_eq!(report.tree.edges(), &[(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let sampler = CliqueTreeSampler::new(quick_config());
        let mut r = rng(103);
        assert_eq!(
            sampler.sample(&g, &mut r).unwrap_err(),
            SampleTreeError::Disconnected
        );
    }

    #[test]
    fn single_vertex_trivial() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let sampler = CliqueTreeSampler::new(quick_config());
        let mut r = rng(104);
        let report = sampler.sample(&g, &mut r).unwrap();
        assert!(report.tree.edges().is_empty());
        assert_eq!(report.num_phases(), 0);
    }

    #[test]
    fn two_vertex_graph() {
        let g = generators::path(2);
        let sampler = CliqueTreeSampler::new(quick_config());
        let mut r = rng(105);
        let report = sampler.sample(&g, &mut r).unwrap();
        assert_eq!(report.tree.edges(), &[(0, 1)]);
        // |S| = 2 is the degenerate bipartite case → direct-local.
        assert_eq!(report.phases[0].method, PhaseMethod::DirectLocal);
    }

    #[test]
    fn out_of_core_tree_input_is_recognized_exactly() {
        // Forcing a tiny table cap routes even a small path out of core;
        // m = n − 1 → the unique spanning tree, identical for every seed
        // and every backend, no failure flag.
        let g = generators::path(64);
        for backend in crate::config::Backend::ALL {
            let config = quick_config().max_table_bytes(1).backend(backend);
            let sampler = CliqueTreeSampler::new(config);
            let report = sampler.sample(&g, &mut rng(500)).unwrap();
            assert!(!report.monte_carlo_failure, "{backend:?}");
            assert_eq!(report.phases.len(), 1, "{backend:?}");
            assert_eq!(report.phases[0].method, PhaseMethod::UniqueTree);
            assert_eq!(report.phases[0].new_vertices, 63);
            let mut edges: Vec<_> = report.tree.edges().to_vec();
            edges.sort_unstable();
            let expected: Vec<_> = (0..63).map(|i| (i, i + 1)).collect();
            assert_eq!(edges, expected, "{backend:?}");
            assert!(report.total_rounds() > 0);
        }
    }

    #[test]
    fn out_of_core_streamed_route_samples_valid_trees() {
        // A cycle has m = n: no unique-tree shortcut, so the escape takes
        // the streamed Aldous–Broder route. Las Vegas covers fully.
        let g = generators::cycle(48);
        let config = quick_config().max_table_bytes(1).variant(Variant::LasVegas);
        let sampler = CliqueTreeSampler::new(config);
        let report = sampler.sample(&g, &mut rng(501)).unwrap();
        assert!(!report.monte_carlo_failure);
        assert_eq!(report.tree.edges().len(), 47);
        for p in &report.phases {
            assert_eq!(p.method, PhaseMethod::StreamedLocal);
        }
        for &(u, v) in report.tree.edges() {
            assert!(g.has_edge(u, v), "foreign edge ({u},{v})");
        }
        // Monte Carlo with a hopeless budget fails into a flagged tree.
        let config = quick_config()
            .max_table_bytes(1)
            .walk_length(WalkLength::Fixed(4));
        let report = CliqueTreeSampler::new(config)
            .sample(&generators::cycle(48), &mut rng(502))
            .unwrap();
        assert!(report.monte_carlo_failure);
        assert_eq!(report.tree.edges().len(), 47);
    }

    #[test]
    fn out_of_core_prepared_matches_cold() {
        // The escape decision and the streamed walk are identical on the
        // cold and prepared paths: same seed ⇒ same tree, same ledger.
        let g = generators::cycle(32);
        let config = quick_config().max_table_bytes(1).variant(Variant::LasVegas);
        let sampler = CliqueTreeSampler::new(config);
        let prepared = sampler.prepare(&g).unwrap();
        assert_eq!(prepared.repr(), Repr::Sparse, "escape forces CSR");
        let mut r_cold = rng(503);
        let mut r_prep = rng(503);
        for draw in 0..3 {
            let cold = sampler.sample(&g, &mut r_cold).unwrap();
            let prep = prepared.sample(&mut r_prep).unwrap();
            assert_eq!(cold.tree, prep.tree, "draw {draw}");
            assert_eq!(cold.rounds, prep.rounds, "draw {draw}");
        }
        // No phase-1 table is retained for out-of-core graphs: the
        // prepared state is the CSR transition matrix alone.
        assert!(prepared.matrix_bytes() < 32 * 32 * 8);
    }

    #[test]
    fn default_cap_keeps_small_graphs_on_the_matrix_route() {
        let g = generators::petersen();
        let sampler = CliqueTreeSampler::new(quick_config());
        let report = sampler.sample(&g, &mut rng(504)).unwrap();
        for p in &report.phases {
            assert!(
                matches!(p.method, PhaseMethod::TopDown | PhaseMethod::DirectLocal),
                "{:?}",
                p.method
            );
        }
    }

    #[test]
    fn prepared_matrix_bytes_grow_as_the_lazy_table_materializes() {
        // After prepare() only level 0 of the deferred table exists; the
        // first sample walks the table top-down and materializes it.
        let g = generators::complete(24);
        let sampler = CliqueTreeSampler::new(quick_config());
        let prepared = sampler.prepare(&g).unwrap();
        let before = prepared.matrix_bytes();
        prepared.sample(&mut rng(505)).unwrap();
        let after = prepared.matrix_bytes();
        assert!(
            after > before,
            "materialization must show up: {before} → {after}"
        );
        // A second draw reuses the memoized levels.
        prepared.sample(&mut rng(506)).unwrap();
        assert_eq!(prepared.matrix_bytes(), after);
    }

    #[test]
    fn warm_reproduces_the_settled_phase1_table() {
        // Loading a snapshot re-prepares each key and warms it. Default ℓ
        // gives a 20-level phase-1 table that settles within a few levels,
        // on dense (complete:64) and CSR (regular:64:4) levels alike. The
        // warmed sampler must hold what a served original holds after its
        // first draw — the same bytes, nothing above the settled level —
        // and draw the same trees.
        let config = SamplerConfig::new();
        for g in [
            generators::complete(64),
            generators::random_regular(64, 4, &mut rng(506)),
        ] {
            let original = CliqueTreeSampler::new(config.clone()).prepare(&g).unwrap();
            original.sample(&mut rng(507)).unwrap();
            let warmed = PreparedSampler::new(config.clone(), &g).unwrap();
            warmed.warm();
            assert_eq!(warmed.matrix_bytes(), original.matrix_bytes());
            let powers = &warmed.phase1.as_ref().expect("top-down").powers;
            let settled = powers.settled_level().expect("settles");
            assert!(settled + 1 < powers.len());
            assert_eq!(powers.materialized_levels(), settled + 1);
            for seed in 508..511 {
                let want = original.sample(&mut rng(seed)).unwrap();
                let got = warmed.sample(&mut rng(seed)).unwrap();
                assert_eq!(got.tree, want.tree, "seed {seed}");
                assert_eq!(got.rounds, want.rounds, "seed {seed}");
            }
            warmed.warm();
            assert_eq!(warmed.matrix_bytes(), original.matrix_bytes());
        }
    }

    #[test]
    fn monte_carlo_failure_yields_arbitrary_tree() {
        // ℓ = 4 steps cannot cover a 16-path: the failure path must
        // produce a valid (BFS) tree with the flag set.
        let g = generators::path(16);
        let config = SamplerConfig::new()
            .walk_length(WalkLength::Fixed(4))
            .engine(EngineChoice::UnitCost);
        let sampler = CliqueTreeSampler::new(config);
        let mut r = rng(106);
        let report = sampler.sample(&g, &mut r).unwrap();
        assert!(report.monte_carlo_failure);
        assert_eq!(report.tree.edges().len(), 15);
    }

    #[test]
    fn las_vegas_never_fails() {
        // ℓ = 4 steps cannot visit ρ = 6 distinct vertices, so every
        // top-down phase must extend (Appendix §5.1).
        let g = generators::complete(12);
        let config = SamplerConfig::new()
            .rho(6)
            .walk_length(WalkLength::Fixed(4))
            .variant(Variant::LasVegas)
            .engine(EngineChoice::UnitCost);
        let sampler = CliqueTreeSampler::new(config);
        let mut r = rng(107);
        let report = sampler.sample(&g, &mut r).unwrap();
        assert!(!report.monte_carlo_failure);
        assert!(report.phases.iter().any(|p| p.extensions > 0));
        assert_eq!(report.tree.edges().len(), 11);
    }

    #[test]
    fn all_placements_produce_valid_trees() {
        let g = generators::complete(12);
        let mut r = rng(108);
        for placement in [
            Placement::Matching,
            Placement::PerPairShuffle,
            Placement::Oracle,
        ] {
            let sampler = CliqueTreeSampler::new(quick_config().placement(placement));
            let report = sampler.sample(&g, &mut r).unwrap();
            assert!(!report.monte_carlo_failure, "{placement:?}");
            assert_eq!(report.tree.edges().len(), 11, "{placement:?}");
        }
    }

    #[test]
    fn exact_variant_runs() {
        let g = generators::complete(10);
        let config = SamplerConfig::exact_variant()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost);
        let sampler = CliqueTreeSampler::new(config);
        let mut r = rng(109);
        let report = sampler.sample(&g, &mut r).unwrap();
        assert!(!report.monte_carlo_failure);
        assert_eq!(report.tree.edges().len(), 9);
    }

    #[test]
    fn fast_oracle_rounds_exceed_unit_cost() {
        let g = generators::complete(16);
        let mut r1 = rng(110);
        let mut r2 = rng(110);
        let unit = CliqueTreeSampler::new(quick_config())
            .sample(&g, &mut r1)
            .unwrap();
        let oracle = CliqueTreeSampler::new(quick_config().engine(EngineChoice::FastOracle {
            alpha: cct_sim::ALPHA,
        }))
        .sample(&g, &mut r2)
        .unwrap();
        assert!(oracle.total_rounds() > unit.total_rounds());
        // Same seed, same tree: the engine changes only the ledger.
        assert_eq!(unit.tree, oracle.tree);
    }

    #[test]
    fn report_phase_count_matches_sqrt_n_scaling() {
        let g = generators::complete(36);
        let sampler = CliqueTreeSampler::new(quick_config());
        let mut r = rng(111);
        let report = sampler.sample(&g, &mut r).unwrap();
        // ρ = 6 → ~35/5 = 7 phases.
        assert!(
            report.num_phases() >= 5 && report.num_phases() <= 10,
            "{}",
            report.num_phases()
        );
    }
}
