//! The pinned seed-42 fixtures shared by the integration suites.
//!
//! One home for the expectations `pinned_trees.rs` (library-level
//! determinism) and `cli_smoke.rs` (the CLI prints exactly these trees)
//! both assert against, so the pinned trees can never drift apart
//! between the two suites. Captured from `main` before the PR-3 hot-path
//! refactor (CLI: `cct thm1 --graph <spec> --seed 42`, i.e. the default
//! Theorem-1 config with 4 local threads).
//!
//! If a change legitimately alters the sampled stream (a *semantic*
//! change, not an optimization), regenerate these fixtures and call the
//! change out loudly in the PR.

// Each test binary compiles this file independently and uses a subset.
#![allow(dead_code)]

use cct::core::{Backend, SamplerConfig};
use cct::graph::{generators, Graph};

/// The CLI's default thm1 configuration (`src/main.rs` sequential path).
pub fn cli_config() -> SamplerConfig {
    SamplerConfig::new().threads(4)
}

/// The backend axis of the fixture suites: every pinned tree and round
/// total must reproduce bit for bit under each matrix backend (the
/// cct-linalg bit-identity contract — representation is invisible in
/// results).
pub fn backends() -> [Backend; 3] {
    Backend::ALL
}

/// Rebuilds `g` through the *weighted* constructor with every weight
/// explicitly `1.0`. The result must be indistinguishable from the
/// unweighted original everywhere: `P = w/deg` collapses to the
/// unweighted transition matrix bit for bit, so every pinned tree and
/// round total must reproduce exactly (the weight-1 degenerate axis of
/// the weighted-graph contract).
pub fn weight_one(g: &Graph) -> Graph {
    let edges: Vec<(usize, usize, f64)> = g.edges().iter().map(|&(u, v, _)| (u, v, 1.0)).collect();
    Graph::from_weighted_edges(g.n(), &edges).expect("same topology")
}

/// Parses `0-1 2-3 …` into an edge list.
pub fn edges(spec: &str) -> Vec<(usize, usize)> {
    spec.split_whitespace()
        .map(|e| {
            let (u, v) = e.split_once('-').expect("u-v");
            (u.parse().unwrap(), v.parse().unwrap())
        })
        .collect()
}

/// Renders an edge list the way the CLI prints it (`tree: 0-1 2-3 …`).
pub fn tree_line(edges: &[(usize, usize)]) -> String {
    let rendered: Vec<String> = edges.iter().map(|(u, v)| format!("{u}-{v}")).collect();
    format!("tree: {}", rendered.join(" "))
}

/// `(spec, graph, pinned tree at seed 42, pinned total rounds)`.
pub type Fixture = (&'static str, Graph, Vec<(usize, usize)>, u64);

/// The standard suite: every graph's pinned `thm1 --seed 42` tree and
/// round total.
pub fn standard_suite() -> Vec<Fixture> {
    vec![
        (
            "petersen",
            generators::petersen(),
            edges("0-1 0-5 1-2 2-3 3-4 5-7 5-8 6-8 7-9"),
            1625,
        ),
        (
            "complete:9",
            generators::complete(9),
            edges("0-2 1-2 1-7 3-7 3-8 4-8 5-6 6-7"),
            1146,
        ),
        (
            "grid:3x3",
            generators::grid(3, 3),
            edges("0-1 0-3 1-2 2-5 3-6 4-5 4-7 7-8"),
            1159,
        ),
        (
            "lollipop:5:4",
            generators::lollipop(5, 4),
            edges("0-2 0-4 1-2 2-3 4-5 5-6 6-7 7-8"),
            1190,
        ),
        (
            "cycle:8",
            generators::cycle(8),
            edges("0-1 0-7 1-2 2-3 3-4 4-5 5-6"),
            1912,
        ),
        (
            "kdense:9",
            generators::k_dense_irregular(9),
            edges("0-6 0-7 0-8 1-7 2-6 3-7 4-7 5-7"),
            1188,
        ),
        (
            "wheel:9",
            generators::wheel(9),
            edges("0-1 0-8 2-3 3-4 4-5 5-6 6-7 7-8"),
            1134,
        ),
    ]
}

/// FNV-1a over the tree's edge list (each endpoint as a little-endian
/// `u64`): a 64-bit pin for trees too long to spell out.
pub fn tree_hash(edges: &[(usize, usize)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(u, v) in edges {
        for x in [u as u64, v as u64] {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// `(spec, graph, config, tree hash, total rounds)` of one
/// benchmark-scale pin.
pub type ScalePin = (&'static str, Graph, SamplerConfig, u64, u64);

/// Prepared seed-42 draws at the benchmark's scale: `n = 64` is
/// [`Backend::AUTO_MIN_N`], so `Auto` resolves the regular graph to CSR
/// (with fill-in promotion along the doubling tables) and the complete
/// graph to dense, and most phases run top-down on a Schur complement
/// with `|S| < n`. Library defaults (Theorem 1) and the exact variant
/// (Las Vegas extensions, ~20 phases). The regular graph is drawn from
/// a fixed seed. Captured before the per-phase matrix work moved to
/// `|S|` scale.
pub fn scale_suite() -> Vec<ScalePin> {
    use rand::SeedableRng;
    let regular =
        || generators::random_regular(64, 4, &mut rand::rngs::StdRng::seed_from_u64(2025));
    vec![
        (
            "thm1 regular:64:4",
            regular(),
            SamplerConfig::new(),
            0x5abc_4903_feec_400b,
            6326,
        ),
        (
            "thm1 complete:64",
            generators::complete(64),
            SamplerConfig::new(),
            0x7b55_5668_26f6_de1d,
            6270,
        ),
        (
            "exact regular:64:4",
            regular(),
            SamplerConfig::exact_variant(),
            0x6952_d2b2_3bed_005d,
            12256,
        ),
        (
            "exact complete:64",
            generators::complete(64),
            SamplerConfig::exact_variant(),
            0xc012_0058_393a_25e7,
            12260,
        ),
    ]
}

/// The Appendix exact variant at the same seed (CLI:
/// `cct exact --seed 42`).
pub fn exact_suite() -> Vec<Fixture> {
    vec![
        (
            "petersen",
            generators::petersen(),
            edges("0-5 1-2 1-6 2-7 3-4 3-8 4-9 5-7 6-8"),
            2684,
        ),
        (
            "complete:9",
            generators::complete(9),
            edges("0-1 0-4 0-5 1-8 2-4 3-8 6-7 6-8"),
            2244,
        ),
        (
            "grid:3x3",
            generators::grid(3, 3),
            edges("0-1 0-3 1-2 1-4 2-5 5-8 6-7 7-8"),
            2244,
        ),
    ]
}
