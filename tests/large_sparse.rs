//! Large-n sparse smoke: the out-of-core route at sizes where any
//! surviving Θ(n²) allocation would be unmissable (10⁵ vertices dense =
//! 80 GB — the process would die long before an assertion fired). The
//! "RSS" assertions are exact byte accounting via
//! `PreparedSampler::matrix_bytes`, not OS-level sampling, so they are
//! deterministic on every machine.

use cct::core::{Backend, CliqueTreeSampler, SamplerConfig};
use cct::graph::{generators, SpanningTree};
use rand::SeedableRng;
use std::io::Write;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn path_1e5_sparse_backend_stays_csr_resident() {
    // A 10⁵-vertex path in the sparse backend: the default walk length
    // pushes the doubling table far past `max_table_bytes`, so prepare
    // must hold CSR-only state — n² bytes (10 GB dense-equivalent ÷ 8)
    // is the failure line, ~3 MB of CSR the expectation.
    let n = 100_000;
    let g = generators::path(n);
    let sampler = CliqueTreeSampler::new(SamplerConfig::new().backend(Backend::Sparse));
    let prepared = sampler.prepare(&g).expect("connected input");
    let resident = prepared.matrix_bytes();
    assert!(
        resident < n * n / 8,
        "prepared state {resident} bytes is Θ(n²)-class"
    );
    assert!(
        resident < 8 << 20,
        "prepared CSR for a 10⁵-path should be a few MB, got {resident}"
    );
    let report = prepared.sample(&mut rng(7)).expect("prepared sample");
    // m = n − 1: the out-of-core route recognizes the unique tree.
    assert_eq!(report.tree.edges().len(), n - 1);
    assert!(!report.monte_carlo_failure);
    assert!(
        prepared.matrix_bytes() < n * n / 8,
        "sampling must not materialize a dense table out of core"
    );
}

#[test]
fn regular_1e5_streamed_route_is_csr_resident_and_valid() {
    // m = 3n/2: no unique-tree shortcut — this exercises the streamed
    // phase walks end to end at 10⁵ vertices. A bounded-degree expander
    // keeps each step O(1) and the cover time O(n log n), so Las Vegas
    // covers every phase and the tree is a genuine Aldous–Broder
    // sample, not a fallback.
    let n = 100_000;
    let g = generators::random_regular(n, 3, &mut rng(5));
    let sampler = CliqueTreeSampler::new(SamplerConfig::new().backend(Backend::Sparse));
    let prepared = sampler.prepare(&g).expect("connected input");
    let report = prepared.sample(&mut rng(11)).expect("prepared sample");
    assert!(!report.monte_carlo_failure);
    SpanningTree::new_in(&g, report.tree.edges().to_vec()).expect("valid spanning tree");
    assert!(
        prepared.matrix_bytes() < n * n / 8,
        "streamed route leaked a Θ(n²) allocation"
    );
}

#[test]
fn cycle_past_the_table_cap_takes_the_streamed_route_on_every_backend() {
    // n = 4096 with ℓ₀ = 2¹⁵ crosses the default 2 GiB dense-equivalent
    // table cap — small enough that a full Las Vegas cover (Θ(n²) walk
    // steps on a cycle) stays fast, big enough that the escape is real.
    // The decision is backend-independent: dense must produce the same
    // tree from the same CSR state.
    let n = 4096;
    let g = generators::cycle(n);
    let mut trees = Vec::new();
    for backend in [Backend::Sparse, Backend::Dense] {
        let config = SamplerConfig::new()
            .backend(backend)
            .walk_length(cct::core::WalkLength::Fixed(1 << 15))
            .rho(256)
            .variant(cct::core::Variant::LasVegas);
        let prepared = CliqueTreeSampler::new(config)
            .prepare(&g)
            .expect("connected input");
        assert!(
            prepared.matrix_bytes() < n * n / 8,
            "{backend:?}: escape did not force CSR"
        );
        let report = prepared.sample(&mut rng(13)).expect("prepared sample");
        assert!(!report.monte_carlo_failure);
        SpanningTree::new_in(&g, report.tree.edges().to_vec()).expect("valid spanning tree");
        trees.push(report.tree);
    }
    assert_eq!(trees[0], trees[1], "escape route diverged across backends");
}

/// Writes the deterministic million-vertex path edge list the ISSUE's
/// acceptance command reads (`--graph file:tests/data/path_1e6.el`).
/// Generated, not committed: 13 MB of `i i+1` lines compresses to
/// nothing but would bloat every clone; the file is gitignored and this
/// test (and CI) recreate it on demand.
fn ensure_path_1e6(path: &str, n: usize) {
    if let Ok(meta) = std::fs::metadata(path) {
        if meta.len() > 0 {
            return;
        }
    }
    std::fs::create_dir_all("tests/data").expect("tests/data exists");
    let f = std::fs::File::create(path).expect("create path_1e6.el");
    let mut w = std::io::BufWriter::new(f);
    writeln!(w, "# path on {n} vertices: edges i — i+1").unwrap();
    for i in 0..n - 1 {
        writeln!(w, "{i} {}", i + 1).unwrap();
    }
    w.flush().unwrap();
}

#[test]
fn path_1e6_edge_list_loads_and_samples_its_spanning_tree() {
    // The headline acceptance: a million-vertex path through the whole
    // pipeline — streaming loader → spec layer (sparse limits, file
    // uncapped) → out-of-core sampler — with exact-byte residency.
    let n = 1_000_000;
    let file = "tests/data/path_1e6.el";
    ensure_path_1e6(file, n);
    let limits = cct::graph::spec::SpecLimits {
        keeps_sparse: true,
        ..cct::graph::spec::SpecLimits::from_env()
    };
    let g = cct::graph::spec::parse_spec_with_limits(&format!("file:{file}"), &mut rng(1), &limits)
        .expect("file: spec admits a 10⁶-vertex load for a sparse consumer");
    assert_eq!((g.n(), g.m()), (n, n - 1));
    let sampler = CliqueTreeSampler::new(SamplerConfig::new().backend(Backend::Sparse));
    let prepared = sampler.prepare(&g).expect("connected input");
    let report = prepared.sample(&mut rng(42)).expect("prepared sample");
    assert!(!report.monte_carlo_failure);
    // The path *is* its unique spanning tree: check the exact edge set.
    let mut edges = report.tree.edges().to_vec();
    edges.sort_unstable();
    assert!(
        edges
            .iter()
            .enumerate()
            .all(|(i, &(u, v))| (u, v) == (i, i + 1)),
        "tree is not the path's edge set"
    );
    assert!(
        prepared.matrix_bytes() < 64 << 20,
        "10⁶-vertex CSR state should be tens of MB, got {}",
        prepared.matrix_bytes()
    );
}
