//! Configuration for the phase-based Congested Clique spanning-tree
//! sampler.
//!
//! The defaults reproduce Theorem 1's setting: `ρ = ⌊√n⌋`,
//! `ℓ = ` smallest power of two `≥ log₂(4√n/ε)·n³`, Monte Carlo
//! semantics, matching-based midpoint placement, and the fast-matmul
//! oracle with `α = 0.157`. [`SamplerConfig::exact_variant`] switches to
//! the Appendix §5 setting (`ρ = ⌊n^{1/3}⌋`, Las Vegas, per-pair shuffle
//! placement).

use cct_graph::Graph;
use cct_linalg::{FixedPoint, Repr, Rounding};
use cct_sim::{Workers, ALPHA};

/// Which transition-matrix representation the pipeline uses
/// (`cct_linalg::PMatrix`).
///
/// All three backends produce **byte-identical trees and round
/// ledgers** for the same seed — the sparse kernels accumulate in the
/// same order as the dense ones (the `cct-linalg` bit-identity
/// contract), so the knob trades memory and wall-clock only. `Auto`
/// starts sparse exactly when the input graph is sparse enough for CSR
/// to win.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Pick per input graph: sparse for large low-density inputs,
    /// dense otherwise (the default).
    Auto,
    /// Always dense row-major storage (the pre-backend behavior).
    Dense,
    /// Start in CSR; the fill-in tracker still promotes densified
    /// powers to dense storage at the memory break-even.
    Sparse,
}

impl Backend {
    /// All backends, for sweeps.
    pub const ALL: [Backend; 3] = [Backend::Auto, Backend::Dense, Backend::Sparse];

    /// `Auto` only considers the sparse representation at or above this
    /// vertex count (below it, dense buffers are trivially small).
    pub const AUTO_MIN_N: usize = 64;

    /// The backend's name (`auto` / `dense` / `sparse`), as reports
    /// and the `CCT_BACKEND` test sweep spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::Dense => "dense",
            Backend::Sparse => "sparse",
        }
    }

    /// The representation this backend starts `g`'s pipeline in.
    /// `Auto` goes sparse when `n ≥ `[`Backend::AUTO_MIN_N`] and the
    /// transition matrix's fill (one entry per directed edge plus
    /// isolated-vertex self-loops) is at most 1/8 — comfortably below
    /// CSR's ≈ 2/3 memory break-even, so the choice pays off even after
    /// a level or two of fill-in.
    pub fn resolve(self, g: &Graph) -> Repr {
        match self {
            Backend::Dense => Repr::Dense,
            Backend::Sparse => Repr::Sparse,
            Backend::Auto => {
                let n = g.n();
                let nnz = 2 * g.m() + n; // upper bound: every row gets its degree, +1 slack
                if n >= Backend::AUTO_MIN_N && nnz.saturating_mul(8) <= n * n {
                    Repr::Sparse
                } else {
                    Repr::Dense
                }
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How the target walk length `ℓ` is chosen per phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkLength {
    /// The paper's choice (§2.1): the smallest power of two at least
    /// `log₂(4√n/ε) · n³`, with `ε = 1/n^c` given by `epsilon`.
    Paper {
        /// Total-variation budget `ε` of Theorem 1.
        epsilon: f64,
    },
    /// A fixed power of two (tests and experiments).
    Fixed(u64),
    /// The smallest power of two at least `factor · n³`.
    ScaledCubic {
        /// Multiplier on `n³`.
        factor: f64,
    },
}

impl WalkLength {
    /// Resolves the target length for an `n`-vertex input. Lengths past
    /// `2⁶²` saturate there (still a power of two): they only arise for
    /// inputs far beyond the out-of-core escape, where `ℓ` is never used
    /// to size an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the policy yields a non-finite length or `Fixed` is not
    /// a power of two ≥ 2.
    pub fn resolve(&self, n: usize) -> u64 {
        let raw = match *self {
            WalkLength::Paper { epsilon } => {
                assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
                let n = n as f64;
                (4.0 * n.sqrt() / epsilon).log2().max(1.0) * n.powi(3)
            }
            WalkLength::Fixed(l) => {
                assert!(
                    l >= 2 && l.is_power_of_two(),
                    "Fixed length must be a power of two ≥ 2"
                );
                return l;
            }
            WalkLength::ScaledCubic { factor } => {
                assert!(factor > 0.0, "factor must be positive");
                factor * (n as f64).powi(3)
            }
        };
        assert!(raw.is_finite(), "walk length overflows");
        if raw >= 2.0f64.powi(62) {
            // The paper's ℓ = Θ̃(n³) leaves u64 range near n ≈ 10⁶. Such
            // an ℓ is astronomically past the out-of-core escape, where
            // no doubling table of depth log₂ ℓ is ever materialized and
            // phase budgets only compare against the realized τ — so
            // saturate at the largest representable power of two instead
            // of refusing million-vertex inputs.
            return 1 << 62;
        }
        ((raw.max(2.0)).ceil() as u64).next_power_of_two()
    }
}

/// How the per-phase distinct-vertex budget `ρ` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rho {
    /// `⌊√n⌋`, Theorem 1's budget (the default).
    Sqrt,
    /// `⌊n^{1/3}⌋`, the exact variant's budget (Appendix §5).
    CubeRoot,
    /// A fixed budget (tests and experiments).
    Fixed(usize),
}

impl Rho {
    /// The budget for an `n`-vertex graph, floored at 2.
    pub fn resolve(self, n: usize) -> usize {
        let base = match self {
            Rho::Sqrt => (n as f64).sqrt().floor() as usize,
            Rho::CubeRoot => (n as f64).cbrt().floor() as usize,
            Rho::Fixed(r) => r,
        };
        base.max(2)
    }
}

/// Monte Carlo (Theorem 1) vs. Las Vegas (Appendix §5.1) semantics when a
/// phase's `ℓ`-length walk fails to visit `ρ` distinct vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Output an arbitrary spanning tree and flag the failure (happens
    /// with probability ≤ ε by the choice of `ℓ`).
    MonteCarlo,
    /// Double `ℓ`, sample a fresh endpoint from the current end, and
    /// keep walking until the budget is met.
    LasVegas,
}

/// How the leader places the collected midpoints (§2.1.3 vs. §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// §2.1.3: collect the *multiset* of midpoints and re-sample their
    /// positions via a weighted perfect matching (exact permanent sampler
    /// below [`cct_matching::MAX_EXACT_SLOTS`] slots, Metropolis swap
    /// chain above it).
    Matching,
    /// Appendix §5.3: collect each start–end pair's own multiset and
    /// place it via a uniform within-pair permutation (error-free).
    PerPairShuffle,
    /// Infinite-bandwidth reference: use the midpoint sequences `Π_{p,q}`
    /// directly. Exists to test Lemmas 3–4 (the uniformity test
    /// `matching_placement_equals_oracle_placement`); charges the
    /// bandwidth a real network could not afford.
    Oracle,
}

/// Which distributed matrix-multiplication engine the phases use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineChoice {
    /// The `O(n^α)` algebraic-algorithm cost oracle (paper's setting).
    FastOracle {
        /// Exponent (default [`cct_sim::ALPHA`] = 0.157).
        alpha: f64,
    },
    /// The real `O(n^{1/3})` semiring implementation (slower but fully
    /// simulated data movement).
    Semiring,
    /// One round per multiply (protocol-logic tests).
    UnitCost,
}

/// How Schur/shortcut matrices are computed numerically. Round charges
/// always follow the paper's iterated-squaring count, so the choice
/// changes wall-clock and rounding error but never the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchurComputation {
    /// Exact fundamental-matrix solve (default; fast and numerically
    /// clean — validated against squaring in `cct-schur`).
    ExactSolve,
    /// The paper's iterated squaring of the absorbing chain, run for
    /// real, stopping at transient mass `tol`.
    IteratedSquaring {
        /// Convergence tolerance on the residual transient mass.
        tol: f64,
    },
}

/// Numeric precision of the transition-matrix pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Plain `f64` (default; §2.5 precision effects off).
    Float64,
    /// Fixed-point truncation after every squaring, per Lemma 7.
    Fixed(FixedPoint),
}

impl Precision {
    /// The linalg rounding rule this precision applies between
    /// squarings.
    pub fn rounding(self) -> Rounding {
        match self {
            Precision::Float64 => Rounding::Exact,
            Precision::Fixed(fp) => Rounding::Fixed(fp),
        }
    }
}

/// Full sampler configuration. Construct with [`SamplerConfig::new`] /
/// [`SamplerConfig::exact_variant`] and adjust with the builder methods.
///
/// # Examples
///
/// ```
/// use cct_core::{Placement, SamplerConfig, WalkLength};
///
/// let config = SamplerConfig::new()
///     .walk_length(WalkLength::Fixed(1 << 12))
///     .placement(Placement::Matching);
/// assert_eq!(config.rho.resolve(64), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Distinct-vertex budget per phase.
    pub rho: Rho,
    /// Walk-length policy.
    pub walk_length: WalkLength,
    /// Failure semantics.
    pub variant: Variant,
    /// Midpoint placement strategy.
    pub placement: Placement,
    /// Matrix-multiplication engine.
    pub engine: EngineChoice,
    /// Schur/shortcut numeric route.
    pub schur: SchurComputation,
    /// Precision model.
    pub precision: Precision,
    /// Worker-pool policy for the parallel round engine: per-machine
    /// local computation (matmul rows, midpoint fan-out) is sharded
    /// across this many threads, while the exchange/ledger barrier stays
    /// single-threaded. Same seed ⇒ same tree and same ledger at every
    /// worker count.
    pub workers: Workers,
    /// Local-compute threads for matrix work (the effective thread count
    /// is the max of this and the resolved `workers`).
    pub threads: usize,
    /// Transition-matrix representation backend (memory/speed only —
    /// trees and ledgers are byte-identical across backends).
    pub backend: Backend,
    /// Hard cap on materialized partial-walk entries (safety net; the
    /// degenerate bipartite cases fall back to local simulation first).
    /// A top-down walk that outgrows it falls back to a leader-local
    /// walk. It also caps the steps of a Monte Carlo phase on the
    /// streamed out-of-core route: the sampler passes it as that
    /// route's `step_cap`.
    pub max_grid_len: usize,
    /// Out-of-core threshold on the *dense-equivalent* bytes of one
    /// phase's power table — `(log₂ ℓ + 2)` levels of `n² × 8` bytes.
    /// Above it the sampler abandons the matrix pipeline entirely
    /// (nothing `Θ(n²)` is ever allocated) and takes the streaming
    /// route: tree inputs (`m = n − 1`) are recognized as their own
    /// unique spanning tree in `O(m)`, and other graphs run the phase
    /// walks step by step on `G` itself. The default (2 GiB) is far
    /// above anything the in-core test/bench suite touches, so the
    /// matrix route's bit-exact fixtures are unaffected. Backend-
    /// independent: the criterion is about what the *dense* pipeline
    /// would cost, so the same graph takes the same route under every
    /// backend.
    pub max_table_bytes: usize,
}

impl SamplerConfig {
    /// Theorem 1 defaults.
    pub fn new() -> Self {
        SamplerConfig {
            rho: Rho::Sqrt,
            walk_length: WalkLength::Paper { epsilon: 1e-2 },
            variant: Variant::MonteCarlo,
            placement: Placement::Matching,
            engine: EngineChoice::FastOracle { alpha: ALPHA },
            schur: SchurComputation::ExactSolve,
            precision: Precision::Float64,
            workers: Workers::Sequential,
            threads: 1,
            backend: Backend::Auto,
            max_grid_len: 8_000_000,
            max_table_bytes: 1 << 31,
        }
    }

    /// Appendix §5 defaults: exact sampling (`ρ = ⌊n^{1/3}⌋`, Las Vegas
    /// restarts, error-free per-pair placement).
    pub fn exact_variant() -> Self {
        SamplerConfig {
            rho: Rho::CubeRoot,
            variant: Variant::LasVegas,
            placement: Placement::PerPairShuffle,
            ..SamplerConfig::new()
        }
    }

    /// Fixes the per-phase distinct-vertex budget ([`Rho::Fixed`]).
    pub fn rho(mut self, rho: usize) -> Self {
        assert!(rho >= 2, "rho must be at least 2");
        self.rho = Rho::Fixed(rho);
        self
    }

    /// Sets the walk-length policy.
    pub fn walk_length(mut self, w: WalkLength) -> Self {
        self.walk_length = w;
        self
    }

    /// Sets the failure semantics.
    pub fn variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Sets the placement strategy.
    pub fn placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    /// Sets the matmul engine.
    pub fn engine(mut self, e: EngineChoice) -> Self {
        self.engine = e;
        self
    }

    /// Sets the Schur computation route.
    pub fn schur(mut self, s: SchurComputation) -> Self {
        self.schur = s;
        self
    }

    /// Sets the precision model.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Sets local-compute threads.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// Sets the transition-matrix representation backend. The default,
    /// [`Backend::Auto`], is what the `cct` CLI and a default service
    /// run; forcing `Dense` or `Sparse` is a library and test override
    /// (backend sweeps, memory comparisons) that changes memory and
    /// wall-clock only.
    ///
    /// # Examples
    ///
    /// ```
    /// use cct_core::{Backend, SamplerConfig};
    ///
    /// let config = SamplerConfig::new().backend(Backend::Sparse);
    /// assert_eq!(config.backend, Backend::Sparse);
    /// ```
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Sets the parallel round engine's worker-pool policy.
    ///
    /// # Examples
    ///
    /// ```
    /// use cct_core::{SamplerConfig, Workers};
    ///
    /// let config = SamplerConfig::new().workers(Workers::Fixed(4));
    /// assert_eq!(config.workers, Workers::Fixed(4));
    /// ```
    pub fn workers(mut self, w: Workers) -> Self {
        self.workers = w;
        self
    }

    /// Sets the out-of-core threshold on the dense-equivalent bytes of a
    /// phase power table (see the field docs; tests use tiny values to
    /// force the streaming route on small graphs).
    pub fn max_table_bytes(mut self, bytes: usize) -> Self {
        self.max_table_bytes = bytes;
        self
    }
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_length_paper_scales_cubically() {
        let w = WalkLength::Paper { epsilon: 0.01 };
        let l64 = w.resolve(64);
        let l128 = w.resolve(128);
        assert!(l64.is_power_of_two() && l128.is_power_of_two());
        assert!(l64 >= 64u64.pow(3));
        // Doubling n multiplies ℓ by ~8 (power-of-two rounding allows 4–16).
        assert!(l128 / l64 >= 4 && l128 / l64 <= 32);
    }

    #[test]
    fn walk_length_fixed_passthrough() {
        assert_eq!(WalkLength::Fixed(1024).resolve(99), 1024);
    }

    #[test]
    fn walk_length_saturates_for_million_vertex_inputs() {
        // The paper's ℓ at n = 10⁶ exceeds u64; the resolver saturates
        // at 2⁶² (a power of two) rather than rejecting the input — the
        // out-of-core route never materializes anything of depth log₂ ℓ.
        let l = WalkLength::Paper { epsilon: 0.1 }.resolve(1_000_000);
        assert_eq!(l, 1 << 62);
        // Well-inside-range values are untouched by the saturation arm.
        assert!(WalkLength::Paper { epsilon: 0.1 }.resolve(1024) < 1 << 62);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn walk_length_fixed_rejects_non_power() {
        let _ = WalkLength::Fixed(1000).resolve(10);
    }

    #[test]
    fn rho_resolution() {
        let c = SamplerConfig::new();
        assert_eq!(c.rho.resolve(64), 8);
        assert_eq!(c.rho.resolve(100), 10);
        assert_eq!(c.rho.resolve(3), 2); // floor at 2
        let e = SamplerConfig::exact_variant();
        assert_eq!(e.rho.resolve(64), 4);
        assert_eq!(e.rho.resolve(1000), 10);
        let o = SamplerConfig::new().rho(5);
        assert_eq!(o.rho.resolve(1000), 5);
        // A fixed budget overrides the exact variant's cube root.
        let eo = SamplerConfig::exact_variant().rho(5);
        assert_eq!(eo.rho, Rho::Fixed(5));
        assert_eq!(eo.rho.resolve(1000), 5);
        assert_eq!(Rho::Fixed(1).resolve(1000), 2); // floor at 2
    }

    #[test]
    fn exact_variant_presets() {
        let e = SamplerConfig::exact_variant();
        assert_eq!(e.variant, Variant::LasVegas);
        assert_eq!(e.placement, Placement::PerPairShuffle);
        assert_eq!(e.rho, Rho::CubeRoot);
        assert_eq!(SamplerConfig::new().rho, Rho::Sqrt);
    }

    #[test]
    fn scaled_cubic_resolves() {
        let w = WalkLength::ScaledCubic { factor: 2.0 };
        let l = w.resolve(8);
        assert!(l >= 1024 && l.is_power_of_two());
    }

    #[test]
    fn precision_maps_to_its_rounding() {
        assert_eq!(Precision::Float64.rounding(), Rounding::Exact);
        let fp = FixedPoint::new(8);
        assert_eq!(Precision::Fixed(fp).rounding(), Rounding::Fixed(fp));
    }

    #[test]
    fn backend_resolution_and_names() {
        use cct_graph::generators;
        let names: Vec<&str> = Backend::ALL.iter().map(|b| b.as_str()).collect();
        assert_eq!(names, ["auto", "dense", "sparse"]);
        // Forced backends ignore the graph.
        let k8 = generators::complete(8);
        assert_eq!(Backend::Sparse.resolve(&k8), Repr::Sparse);
        assert_eq!(Backend::Dense.resolve(&k8), Repr::Dense);
        // Auto: small graphs stay dense; large sparse graphs go sparse;
        // large dense graphs stay dense.
        assert_eq!(Backend::Auto.resolve(&generators::cycle(16)), Repr::Dense);
        assert_eq!(Backend::Auto.resolve(&generators::cycle(256)), Repr::Sparse);
        assert_eq!(
            Backend::Auto.resolve(&generators::complete(128)),
            Repr::Dense
        );
    }
}
