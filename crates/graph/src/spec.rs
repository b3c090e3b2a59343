//! Textual graph specs (`complete:16`, `er:64:0.2`, …) — the one parser
//! behind the CLI's `--graph` flag and the sampling service's
//! `graph_spec` request field.
//!
//! A spec names a generator plus its size parameters, separated by `:`.
//! Sizes are validated here (domain checks and the size caps of
//! [`SpecLimits`]) so bad user input becomes a [`SpecError`], never a
//! generator panic. Randomized families (`er:N:P`, `regular:N:D`) draw
//! from the caller-supplied RNG; callers that need a spec to denote
//! *one* fixed graph (the service's cache does) should seed that RNG as
//! a pure function of the spec string.
//!
//! Every generator family also has a weighted twin named by a `-w`
//! suffix (`er-w:64:0.2`, `grid-w:3x4`, `complete-w:9`, `diamond-w`):
//! same topology, but each edge `{u, v}` carries the deterministic
//! integer weight [`generators::deterministic_edge_weight`]`(`
//! [`WEIGHTED_SPEC_STREAM`]`, u, v, `[`WEIGHTED_SPEC_MAX_WEIGHT`]`)` —
//! a pure function of the edge, independent of the RNG, so the
//! spec-denotes-one-graph contract extends to weights.
//!
//! # Size caps
//!
//! The default cap is [`MAX_SPEC_SIZE`] vertices; the `CCT_MAX_N`
//! environment variable overrides it ([`SpecLimits::from_env`]). The
//! algorithm that consumes the graph sets the rest. One that keeps large
//! sparse inputs sparse ([`SpecLimits::keeps_sparse`]) admits the
//! sparse-friendly families — `cycle`, `path`, `star`, and `er` below
//! [`SPARSE_ER_MAX_EXPECTED_DEGREE`] expected degree — up to
//! [`SPARSE_CAP_FACTOR`]× the cap, because their `O(n)`-edge graphs
//! never need the `Θ(n²)` buffers the cap protects against, and it
//! admits `file:` loads of any size.

use crate::{generators, Graph};
use rand::Rng;

/// Default largest size parameter (and largest built graph) a spec may
/// produce. The Congested Clique simulator does `Θ(n²)` work per round
/// and the dense generators allocate `Θ(n²)` edges, so larger requests
/// would stall or exhaust memory rather than fail cleanly. Overridable
/// via `CCT_MAX_N` and relaxed for sparse-friendly specs when the
/// consuming algorithm keeps them sparse ([`SpecLimits`]).
pub const MAX_SPEC_SIZE: usize = 8192;

/// How much further sparse-friendly specs may go when the consuming
/// algorithm keeps them sparse: `sparse cap = dense cap × this factor`.
pub const SPARSE_CAP_FACTOR: usize = 8;

/// `er:N:P` counts as sparse-friendly only while its expected degree
/// `P·N` stays below this bound (edges scale as `N·deg/2`, so a large-N
/// admission must not smuggle in `Θ(n²)` edges through P).
pub const SPARSE_ER_MAX_EXPECTED_DEGREE: f64 = 64.0;

/// Largest integer weight the weighted (`-w`) spec families assign —
/// footnote 1's bounded positive-integer-weight setting. Weights are
/// drawn from `1..=WEIGHTED_SPEC_MAX_WEIGHT`.
pub const WEIGHTED_SPEC_MAX_WEIGHT: u64 = 8;

/// The SplitMix64 stream the `-w` families feed to
/// [`generators::deterministic_edge_weight`] (`"cct_wght"` in ASCII).
/// Weights are a pure function of `(this stream, u, v)` — no RNG state
/// is consumed, so a weighted spec denotes one fixed weighting however
/// the caller seeded the generator RNG, preserving the service's
/// spec-keyed cache contract for the randomized families too.
pub const WEIGHTED_SPEC_STREAM: u64 = 0x6363_745f_7767_6874;

/// The active size caps for spec parsing.
///
/// # Examples
///
/// ```
/// use cct_graph::spec::{parse_spec_with_limits, SpecLimits};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let sparse = SpecLimits {
///     keeps_sparse: true,
///     ..SpecLimits::from_env()
/// };
/// // A cycle past the dense cap builds for an algorithm that keeps it
/// // sparse…
/// let g = parse_spec_with_limits("cycle:10000", &mut rng, &sparse).unwrap();
/// assert_eq!(g.n(), 10_000);
/// // …but a clique of that size is dense-only and stays rejected.
/// assert!(parse_spec_with_limits("complete:10000", &mut rng, &sparse).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecLimits {
    /// Cap for dense-only families, and for every family when the
    /// consuming algorithm holds `Θ(n²)` state.
    pub dense_cap: usize,
    /// `true` when the consuming algorithm keeps large sparse inputs
    /// sparse (`O(m)` memory). It then admits sparse-friendly families
    /// up to [`SpecLimits::sparse_cap`] and `file:` specs without a
    /// family cap.
    pub keeps_sparse: bool,
    /// Cap for graphs loaded via `file:PATH` specs. `None` (the default
    /// when `CCT_MAX_N` is unset) means *uncapped when the algorithm
    /// keeps sparse inputs sparse*: a loaded edge list is an `O(m)`
    /// object, so the `Θ(n²)` rationale behind the family caps does not
    /// apply. An explicitly set `CCT_MAX_N` is the single override that
    /// bounds loaded graphs too.
    pub file_cap: Option<usize>,
}

impl SpecLimits {
    /// The default limits: `CCT_MAX_N` (when set to an integer ≥ 4) or
    /// [`MAX_SPEC_SIZE`] for every family; `file:` specs capped only by
    /// an explicitly set `CCT_MAX_N`.
    pub fn from_env() -> Self {
        let explicit = std::env::var("CCT_MAX_N")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 4);
        SpecLimits {
            dense_cap: explicit.unwrap_or(MAX_SPEC_SIZE),
            keeps_sparse: false,
            file_cap: explicit,
        }
    }

    /// The cap applied to sparse-friendly specs when the algorithm
    /// keeps them sparse.
    pub fn sparse_cap(&self) -> usize {
        self.dense_cap.saturating_mul(SPARSE_CAP_FACTOR)
    }

    fn cap_for(&self, sparse_friendly: bool) -> usize {
        if sparse_friendly && self.keeps_sparse {
            self.sparse_cap()
        } else {
            self.dense_cap
        }
    }
}

impl Default for SpecLimits {
    fn default() -> Self {
        SpecLimits::from_env()
    }
}

/// A malformed or out-of-domain graph spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Unknown family, malformed number, or out-of-domain parameter.
    Invalid(String),
    /// The spec exceeds the cap for its family under the active limits.
    TooLarge {
        /// The offending spec string.
        spec: String,
        /// The requested size (parameter or built-graph vertex count).
        n: usize,
        /// The cap that rejected it.
        cap: usize,
        /// A loaded file's edge count `m`, when the cap is the `m + 1`
        /// vertices a connected graph on those edges can have.
        edges: Option<usize>,
    },
}

impl SpecError {
    fn invalid(message: impl Into<String>) -> Self {
        SpecError::Invalid(message.into())
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Invalid(m) => f.write_str(m),
            SpecError::TooLarge {
                spec,
                n,
                cap,
                edges: None,
            } => write!(
                f,
                "graph '{spec}' asks for {n} vertices — too large for the simulated clique (max {cap})"
            ),
            SpecError::TooLarge {
                spec,
                n,
                cap,
                edges: Some(m),
            } => write!(
                f,
                "graph '{spec}' asks for {n} vertices but has {m} edges — too large to be \
                 connected (max {cap})"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// The spec grammar, for help texts.
pub const SPEC_HELP: &str = "\
complete:N  cycle:N  path:N  star:N  wheel:N
grid:RxC  torus:RxC  hypercube:D  binarytree:D
petersen  diamond  barbell:K  lollipop:K:T  bipartite:AxB
kdense:N  er:N:P  regular:N:D  file:PATH
any family but file takes a -w suffix (er-w:N:P, grid-w:RxC, ...):
same topology, deterministic integer edge weights in 1..=8";

/// Builds the graph a spec describes, under the default [`SpecLimits`]
/// (the dense cap for every family, `CCT_MAX_N`-overridable).
///
/// # Errors
///
/// [`SpecError`] for unknown families, malformed numbers, out-of-domain
/// sizes, anything (including product shapes like `grid:RxC`) exceeding
/// the size cap, and randomized families whose retry budget failed to
/// produce a connected graph.
///
/// # Examples
///
/// ```
/// use cct_graph::spec::parse_spec;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = parse_spec("grid:3x4", &mut rng).unwrap();
/// assert_eq!(g.n(), 12);
/// assert!(parse_spec("grid:0x4", &mut rng).is_err());
/// assert!(parse_spec("no-such-family:3", &mut rng).is_err());
/// ```
pub fn parse_spec<R: Rng + ?Sized>(spec: &str, rng: &mut R) -> Result<Graph, SpecError> {
    parse_spec_with_limits(spec, rng, &SpecLimits::from_env())
}

/// [`parse_spec`] under explicit [`SpecLimits`] (the CLI and service
/// pass the limits of the algorithm that consumes the graph here).
///
/// # Errors
///
/// As [`parse_spec`]; size violations come back as the typed
/// [`SpecError::TooLarge`] variant.
pub fn parse_spec_with_limits<R: Rng + ?Sized>(
    spec: &str,
    rng: &mut R,
    limits: &SpecLimits,
) -> Result<Graph, SpecError> {
    // `file:PATH` is resolved before the `:` split — paths may contain
    // colons, and the family caps do not apply to loaded graphs (see
    // [`SpecLimits::file_cap`]).
    if let Some(path) = spec.strip_prefix("file:") {
        if path.is_empty() {
            return Err(SpecError::invalid("file: needs a path, e.g. file:graph.el"));
        }
        let invalid = |e: crate::io::EdgeListError| SpecError::invalid(format!("'{spec}': {e}"));
        // The caps below are checked before the graph is built: building
        // allocates adjacency for every vertex up to the largest id.
        let list = crate::io::read_edges(path).map_err(invalid)?;
        let (n, m) = (list.n, list.edges.len());
        let too_large = |cap: usize, edges: Option<usize>| SpecError::TooLarge {
            spec: spec.to_string(),
            n,
            cap,
            edges,
        };
        // The single override: an explicitly set CCT_MAX_N bounds loaded
        // graphs for every algorithm.
        if let Some(cap) = limits.file_cap.filter(|&cap| n > cap) {
            return Err(too_large(cap, None));
        }
        if !limits.keeps_sparse && n > limits.dense_cap {
            return Err(too_large(limits.dense_cap, None));
        }
        // No connected graph has n > m + 1, and every consumer refuses a
        // disconnected one: refusing here keeps an uncapped load O(m).
        if n > m.saturating_add(1) {
            return Err(too_large(m + 1, Some(m)));
        }
        return list.into_graph().map_err(invalid);
    }
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<usize, SpecError> {
        s.parse::<usize>()
            .map_err(|_| SpecError::invalid(format!("bad number '{s}'")))
    };
    // Size-cap check, applied *before* any generator allocates. The cap
    // depends on whether this spec's family is sparse-friendly and
    // whether the consuming algorithm keeps sparse inputs sparse.
    let capped = |v: usize, sparse_friendly: bool| -> Result<usize, SpecError> {
        let cap = limits.cap_for(sparse_friendly);
        if v <= cap {
            return Ok(v);
        }
        Err(SpecError::TooLarge {
            spec: spec.to_string(),
            n: v,
            cap,
            edges: None,
        })
    };
    let pair = |s: &str| -> Result<(usize, usize), SpecError> {
        let (a, b) = s
            .split_once('x')
            .ok_or_else(|| SpecError::invalid(format!("expected RxC in '{s}'")))?;
        Ok((capped(num(a)?, false)?, capped(num(b)?, false)?))
    };
    // The generators assert on their domains (library contract); specs
    // check user input up front so bad input becomes an error, not a
    // panic.
    let at_least = |v: usize, min: usize, what: &str| -> Result<usize, SpecError> {
        if v < min {
            Err(SpecError::invalid(format!(
                "{what} must be at least {min}, got {v}"
            )))
        } else {
            Ok(v)
        }
    };
    // A `-w` suffix on any generator family keeps the topology and
    // replaces every weight with a deterministic integer in
    // `1..=WEIGHTED_SPEC_MAX_WEIGHT` (`file:` carries its own weight
    // column and takes no suffix — `file-w` falls through to the
    // unknown-spec error).
    let family = parts.first().copied().unwrap_or("");
    let (family, weighted) = match family.strip_suffix("-w") {
        Some(base) if !base.is_empty() => (base, true),
        _ => (family, false),
    };
    // `(built graph, family is sparse-friendly)`.
    let (g, sparse_friendly) = match (family, parts.get(1), parts.get(2)) {
        ("complete", Some(n), _) => (
            generators::complete(at_least(capped(num(n)?, false)?, 1, "N")?),
            false,
        ),
        ("cycle", Some(n), _) => (
            generators::cycle(at_least(capped(num(n)?, true)?, 3, "N")?),
            true,
        ),
        ("path", Some(n), _) => (
            generators::path(at_least(capped(num(n)?, true)?, 1, "N")?),
            true,
        ),
        ("star", Some(n), _) => (
            generators::star(at_least(capped(num(n)?, true)?, 2, "N")?),
            true,
        ),
        ("wheel", Some(n), _) => (
            generators::wheel(at_least(capped(num(n)?, false)?, 4, "N")?),
            false,
        ),
        ("grid", Some(d), _) => {
            let (r, c) = pair(d)?;
            (
                generators::grid(at_least(r, 1, "R")?, at_least(c, 1, "C")?),
                false,
            )
        }
        ("torus", Some(d), _) => {
            let (r, c) = pair(d)?;
            (
                generators::torus(at_least(r, 3, "R")?, at_least(c, 3, "C")?),
                false,
            )
        }
        ("bipartite", Some(d), _) => {
            let (a, b) = pair(d)?;
            (
                generators::complete_bipartite(at_least(a, 1, "A")?, at_least(b, 1, "B")?),
                false,
            )
        }
        ("hypercube", Some(d), _) => {
            let d = num(d)?;
            if !(1..=20).contains(&d) {
                return Err(SpecError::invalid(format!(
                    "hypercube dimension must be in 1..=20, got {d}"
                )));
            }
            (generators::hypercube(d as u32), false)
        }
        ("binarytree", Some(d), _) => {
            let d = num(d)?;
            if d > 20 {
                return Err(SpecError::invalid(format!(
                    "binary tree depth must be at most 20, got {d}"
                )));
            }
            (generators::binary_tree(d as u32), false)
        }
        ("petersen", _, _) => (generators::petersen(), false),
        // The 4-vertex diamond (K4 minus one edge): the smallest graph
        // with non-uniform tree marginals, used throughout the
        // uniformity suites (8 spanning trees).
        ("diamond", _, _) => (
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
                .expect("the diamond is a fixed valid graph"),
            false,
        ),
        ("barbell", Some(k), _) => (
            generators::barbell(at_least(capped(num(k)?, false)?, 2, "K")?),
            false,
        ),
        ("lollipop", Some(k), Some(t)) => (
            generators::lollipop(
                at_least(capped(num(k)?, false)?, 2, "K")?,
                capped(num(t)?, false)?,
            ),
            false,
        ),
        ("kdense", Some(n), _) => (
            generators::k_dense_irregular(at_least(capped(num(n)?, false)?, 4, "N")?),
            false,
        ),
        ("er", Some(n), Some(p)) => {
            let p: f64 = p
                .parse()
                .map_err(|_| SpecError::invalid(format!("bad probability '{p}'")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(SpecError::invalid(format!(
                    "probability must be in [0,1], got {p}"
                )));
            }
            let n_raw = num(n)?;
            // Sparse-friendly only while the expected degree stays
            // bounded: edges ≈ N·P·N/2, so a large-N admission must not
            // smuggle Θ(n²) edges in through P.
            let sparse_ok = p * (n_raw as f64) <= SPARSE_ER_MAX_EXPECTED_DEGREE;
            let n = at_least(capped(n_raw, sparse_ok)?, 1, "N")?;
            if p == 0.0 && n > 1 {
                return Err(SpecError::invalid(format!(
                    "G({n}, 0) can never be connected; use P > 0"
                )));
            }
            let g = generators::try_erdos_renyi_connected(n, p, rng).ok_or_else(|| {
                SpecError::invalid(format!(
                    "G({n}, {p}) failed to come out connected in 1000 attempts; \
                     P is far below the connectivity threshold ln(N)/N"
                ))
            })?;
            (g, sparse_ok)
        }
        ("regular", Some(n), Some(d)) => {
            let (n, d) = (at_least(capped(num(n)?, false)?, 2, "N")?, num(d)?);
            if d == 0 || d >= n {
                return Err(SpecError::invalid(format!(
                    "regular graph needs 1 ≤ D < N, got D={d}, N={n}"
                )));
            }
            if n.checked_mul(d).is_none_or(|nd| nd % 2 != 0) {
                return Err(SpecError::invalid(format!(
                    "regular graph needs N·D even, got N={n}, D={d}"
                )));
            }
            let g = generators::try_random_regular(n, d, rng).ok_or_else(|| {
                SpecError::invalid(format!(
                    "failed to sample a connected {d}-regular graph on {n} vertices"
                ))
            })?;
            (g, false)
        }
        _ => return Err(SpecError::invalid(format!("unknown graph spec '{spec}'"))),
    };
    // Product (grid:RxC) and exponential (hypercube:D) specs can satisfy
    // the per-parameter cap yet still blow past what the O(n²) simulator
    // can hold — bound the built graph too, before any sampler allocates.
    capped(g.n(), sparse_friendly)?;
    if weighted {
        return Ok(generators::with_deterministic_integer_weights(
            &g,
            WEIGHTED_SPEC_MAX_WEIGHT,
            WEIGHTED_SPEC_STREAM,
        )
        .expect("reweighting a valid graph with positive integers cannot fail"));
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn fixed_families_build() {
        let cases = [
            ("complete:9", 9),
            ("cycle:5", 5),
            ("path:4", 4),
            ("star:6", 6),
            ("wheel:7", 7),
            ("grid:2x5", 10),
            ("torus:3x3", 9),
            ("bipartite:2x3", 5),
            ("hypercube:3", 8),
            ("binarytree:2", 7),
            ("petersen", 10),
            ("diamond", 4),
            ("barbell:3", 6),
            ("lollipop:4:3", 7),
            ("kdense:8", 8),
        ];
        for (spec, n) in cases {
            let g = parse_spec(spec, &mut rng()).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(g.n(), n, "{spec}");
            assert!(g.is_connected(), "{spec}");
        }
    }

    #[test]
    fn diamond_is_k4_minus_an_edge() {
        let g = parse_spec("diamond", &mut rng()).unwrap();
        assert_eq!(g.m(), 5);
        assert!(g.has_edge(0, 2), "the chord is 0-2");
        assert!(!g.has_edge(1, 3), "1-3 is the removed edge");
        assert_eq!(crate::spanning_tree_count_exact(&g).unwrap(), 8);
    }

    #[test]
    fn weighted_families_build_with_deterministic_weights() {
        for (spec, n) in [
            ("complete-w:9", 9),
            ("grid-w:2x5", 10),
            ("cycle-w:5", 5),
            ("diamond-w", 4),
            ("er-w:24:0.3", 24),
        ] {
            let g = parse_spec(spec, &mut rng()).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(g.n(), n, "{spec}");
            assert!(g.has_integer_weights(), "{spec}");
            assert!(
                g.edges()
                    .iter()
                    .all(|&(_, _, w)| (1.0..=WEIGHTED_SPEC_MAX_WEIGHT as f64).contains(&w)),
                "{spec}: weights out of 1..=max range"
            );
            assert!(
                g.edges().iter().any(|&(_, _, w)| w != 1.0),
                "{spec}: all weights 1 — the weighting did not apply"
            );
        }
    }

    #[test]
    fn weighted_twin_keeps_topology_and_is_reproducible() {
        let base = parse_spec("grid:3x4", &mut rng()).unwrap();
        let a = parse_spec("grid-w:3x4", &mut rng()).unwrap();
        let b = parse_spec("grid-w:3x4", &mut rng()).unwrap();
        assert_eq!(a.edges(), b.edges(), "same spec, same weighting");
        assert_eq!(a.unweighted().edges(), base.edges(), "same topology");
        // Per-edge weights match the exported pure function.
        for &(u, v, w) in a.edges() {
            let want = generators::deterministic_edge_weight(
                WEIGHTED_SPEC_STREAM,
                u,
                v,
                WEIGHTED_SPEC_MAX_WEIGHT,
            );
            assert_eq!(w, want as f64, "edge ({u},{v})");
        }
    }

    #[test]
    fn weighted_er_weights_do_not_depend_on_the_rng() {
        // Different RNG seeds can change er-w's topology, but any edge
        // present in both draws must carry the same weight.
        let a = parse_spec("er-w:24:0.4", &mut rand::rngs::StdRng::seed_from_u64(1)).unwrap();
        let b = parse_spec("er-w:24:0.4", &mut rand::rngs::StdRng::seed_from_u64(2)).unwrap();
        for &(u, v, w) in a.edges() {
            if let Some(wb) = b.edge_weight(u, v) {
                assert_eq!(w, wb, "edge ({u},{v}) weight depends on RNG state");
            }
        }
    }

    #[test]
    fn bogus_weighted_specs_rejected() {
        for bad in [
            "file-w:whatever.el",
            "-w",
            "nope-w:3",
            "er-w:8:1.5",
            "grid-w:0x4",
        ] {
            assert!(parse_spec(bad, &mut rng()).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn randomized_families_build_connected() {
        for spec in ["er:24:0.3", "regular:12:3"] {
            let g = parse_spec(spec, &mut rng()).unwrap();
            assert!(g.is_connected(), "{spec}");
        }
    }

    #[test]
    fn bad_specs_error_instead_of_panicking() {
        for bad in [
            "",
            "nope",
            "nope:3",
            "complete:0",
            "complete:abc",
            "complete:9999999",
            "cycle:2",
            "wheel:3",
            "grid:0x4",
            "grid:9",
            "hypercube:0",
            "hypercube:21",
            "binarytree:21",
            "er:8:1.5",
            "er:8:-0.1",
            "er:8:zzz",
            "er:8:0",
            "regular:8:0",
            "regular:8:8",
            "regular:5:3",
        ] {
            assert!(parse_spec(bad, &mut rng()).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn built_graph_size_is_capped_even_when_parameters_pass() {
        // 128 × 128 = 16384 > MAX_SPEC_SIZE although each side is fine.
        let err = parse_spec("grid:128x128", &mut rng()).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
        // 2^13 = 8192 passes exactly; 2^14 would be silly to build here,
        // but the dimension cap (20) already admits it — the n-cap must
        // catch it.
        assert!(parse_spec("hypercube:14", &mut rng()).is_err());
    }

    #[test]
    fn sparse_backend_admits_sparse_families_past_the_dense_cap() {
        // The limits of a Θ(n²) consumer (`base`) and of one that keeps
        // large sparse inputs sparse in the CSR backend (`sparse`).
        let base = SpecLimits {
            dense_cap: MAX_SPEC_SIZE,
            keeps_sparse: false,
            file_cap: None,
        };
        let sparse = SpecLimits {
            keeps_sparse: true,
            ..base
        };
        assert_eq!(sparse.sparse_cap(), MAX_SPEC_SIZE * SPARSE_CAP_FACTOR);
        for spec in ["cycle:20000", "path:20000", "star:20000"] {
            match parse_spec_with_limits(spec, &mut rng(), &base).unwrap_err() {
                SpecError::TooLarge { n, cap, .. } => assert_eq!((n, cap), (20_000, MAX_SPEC_SIZE)),
                other => panic!("{spec}: expected TooLarge, got {other:?}"),
            }
            let g = parse_spec_with_limits(spec, &mut rng(), &sparse).unwrap();
            assert_eq!(g.n(), 20_000, "{spec}");
        }
        // Dense-only families stay capped even for a sparse consumer.
        match parse_spec_with_limits("complete:20000", &mut rng(), &sparse).unwrap_err() {
            SpecError::TooLarge { n, cap, .. } => assert_eq!((n, cap), (20_000, MAX_SPEC_SIZE)),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Beyond even the sparse cap.
        let way_past = MAX_SPEC_SIZE * SPARSE_CAP_FACTOR + 1;
        match parse_spec_with_limits(&format!("cycle:{way_past}"), &mut rng(), &sparse).unwrap_err()
        {
            SpecError::TooLarge { n, cap, .. } => {
                assert_eq!((n, cap), (way_past, sparse.sparse_cap()));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn er_sparse_friendliness_depends_on_expected_degree() {
        let sparse = SpecLimits {
            dense_cap: MAX_SPEC_SIZE,
            keeps_sparse: true,
            file_cap: None,
        };
        // p·n = 0.001·16384 = 16.4 ≤ 64: sparse-friendly, admitted.
        let g = parse_spec_with_limits("er:16384:0.001", &mut rng(), &sparse).unwrap();
        assert_eq!(g.n(), 16_384);
        // p·n = 0.2·16384 ≫ 64: Θ(n·deg) edges too dense — rejected.
        assert!(matches!(
            parse_spec_with_limits("er:16384:0.2", &mut rng(), &sparse).unwrap_err(),
            SpecError::TooLarge { .. }
        ));
    }

    fn write_temp_el(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cct-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn file_spec_loads_an_edge_list() {
        let path = write_temp_el("p4.el", "0 1\n1 2\n2 3\n");
        let spec = format!("file:{}", path.display());
        let g = parse_spec(&spec, &mut rng()).unwrap();
        assert_eq!((g.n(), g.m()), (4, 3));
        assert!(g.is_connected());
    }

    #[test]
    fn file_spec_errors_are_typed_not_panics() {
        assert!(matches!(
            parse_spec("file:", &mut rng()).unwrap_err(),
            SpecError::Invalid(_)
        ));
        assert!(matches!(
            parse_spec("file:/no/such/file.el", &mut rng()).unwrap_err(),
            SpecError::Invalid(_)
        ));
        let bad = write_temp_el("bad.el", "0 zero\n");
        let err = parse_spec(&format!("file:{}", bad.display()), &mut rng()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn file_specs_are_uncapped_under_the_sparse_backend() {
        // A loaded graph past the dense cap: a Θ(n²) consumer refuses
        // it, one that keeps sparse inputs sparse in the CSR backend
        // admits it with no family cap at all.
        let mut text = String::new();
        let n = MAX_SPEC_SIZE + 8;
        for u in 0..n - 1 {
            text.push_str(&format!("{u} {}\n", u + 1));
        }
        let path = write_temp_el("big_path.el", &text);
        let spec = format!("file:{}", path.display());
        let base = SpecLimits {
            dense_cap: MAX_SPEC_SIZE,
            keeps_sparse: false,
            file_cap: None,
        };
        match parse_spec_with_limits(&spec, &mut rng(), &base).unwrap_err() {
            SpecError::TooLarge { n: got, cap, .. } => assert_eq!((got, cap), (n, MAX_SPEC_SIZE)),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let sparse = SpecLimits {
            keeps_sparse: true,
            ..base
        };
        let g = parse_spec_with_limits(&spec, &mut rng(), &sparse).unwrap();
        assert_eq!(g.n(), n);
        // An explicitly set CCT_MAX_N (file_cap) is the single override:
        // it bounds file loads even for a sparse consumer…
        let capped = SpecLimits {
            file_cap: Some(64),
            ..sparse
        };
        assert!(matches!(
            parse_spec_with_limits(&spec, &mut rng(), &capped).unwrap_err(),
            SpecError::TooLarge { cap: 64, .. }
        ));
        // …and a raised one admits the load for a dense consumer too.
        let raised = SpecLimits {
            dense_cap: n,
            keeps_sparse: false,
            file_cap: Some(n),
        };
        assert!(parse_spec_with_limits(&spec, &mut rng(), &raised).is_ok());
    }

    #[test]
    fn file_specs_check_the_vertex_count_before_building() {
        // One edge can name a vertex far past every cap: the caps must
        // reject it before adjacency for all those vertices is allocated.
        let dense = SpecLimits {
            dense_cap: MAX_SPEC_SIZE,
            keeps_sparse: false,
            file_cap: None,
        };
        let path = write_temp_el("huge_id.el", "0 100000000000\n");
        let spec = format!("file:{}", path.display());
        match parse_spec_with_limits(&spec, &mut rng(), &dense).unwrap_err() {
            SpecError::TooLarge { n, cap, .. } => {
                assert_eq!((n, cap), (100_000_000_001, MAX_SPEC_SIZE));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let sparse = SpecLimits {
            keeps_sparse: true,
            ..dense
        };
        let capped = SpecLimits {
            file_cap: Some(64),
            ..sparse
        };
        assert!(matches!(
            parse_spec_with_limits(&spec, &mut rng(), &capped).unwrap_err(),
            SpecError::TooLarge { cap: 64, .. }
        ));
        // Uncapped, a one-edge file can only be a connected graph on two
        // vertices: 50,000,001 or 10^11 + 1 vertices are refused before
        // building, and the message says how many edges the file has.
        let mid = write_temp_el("mid_id.el", "0 50000000\n");
        for (path, n) in [(&path, 100_000_000_001), (&mid, 50_000_001)] {
            let spec = format!("file:{}", path.display());
            let err = parse_spec_with_limits(&spec, &mut rng(), &sparse).unwrap_err();
            assert_eq!(
                err,
                SpecError::TooLarge {
                    spec,
                    n,
                    cap: 2,
                    edges: Some(1)
                }
            );
            let message = err.to_string();
            assert!(message.contains("too large"), "{message}");
            assert!(message.contains("1 edges"), "{message}");
        }
    }

    #[test]
    fn custom_dense_cap_is_honored() {
        let tiny = SpecLimits {
            dense_cap: 16,
            keeps_sparse: false,
            file_cap: None,
        };
        assert!(parse_spec_with_limits("complete:16", &mut rng(), &tiny).is_ok());
        assert!(matches!(
            parse_spec_with_limits("complete:17", &mut rng(), &tiny).unwrap_err(),
            SpecError::TooLarge { n: 17, cap: 16, .. }
        ));
        // A raised cap admits what the default rejects.
        let raised = SpecLimits {
            dense_cap: 10_000,
            keeps_sparse: false,
            file_cap: None,
        };
        assert!(parse_spec_with_limits("path:9000", &mut rng(), &raised).is_ok());
    }
}
