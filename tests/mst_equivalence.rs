//! The MST MachineProgram against the sequential ground truth:
//! `MstEngine` (distributed Borůvka over `cct-sim`) must return the
//! exact edge set of Kruskal's algorithm on every weighted graph — with
//! *distinct* weights (unique MST) and with heavily *tied* weights,
//! where both sides resolve ties by the same total order
//! `(w, min(u,v), max(u,v))`. Also pins the determinism contract: the
//! tree AND the round ledger are identical at every worker count.

use cct::core::{MstEngine, Workers};
use cct::graph::{generators, Graph};
use cct::walks::kruskal_mst;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A random small connected topology drawn from a spec id + seed
/// (mirrors `parallel_equivalence.rs`).
fn build_topology(kind: u8, n: usize, seed: u64) -> Graph {
    match kind % 5 {
        0 => generators::erdos_renyi_connected(n, 0.5, &mut rng(seed)),
        1 => generators::complete(n),
        2 => generators::cycle(n.max(3)),
        3 => generators::wheel(n.max(4)),
        _ => generators::complete_bipartite(2, (n - 2).max(1)),
    }
}

/// Reweights `g` with a shuffled permutation of `1..=m`: every weight
/// distinct, so the MST is unique and edge-set equality is forced.
fn with_distinct_weights(g: &Graph, seed: u64) -> Graph {
    let mut weights: Vec<f64> = (1..=g.m()).map(|w| w as f64).collect();
    weights.shuffle(&mut rng(seed));
    let edges: Vec<(usize, usize, f64)> = g
        .edges()
        .iter()
        .zip(weights)
        .map(|(&(u, v, _), w)| (u, v, w))
        .collect();
    Graph::from_weighted_edges(g.n(), &edges).unwrap()
}

/// Reweights `g` from the tiny pool {1, 2, 3}: ties everywhere, so the
/// test only passes if both sides break them identically.
fn with_tied_weights(g: &Graph, seed: u64) -> Graph {
    generators::with_random_integer_weights(g, 3, &mut rng(seed)).unwrap()
}

fn assert_mst_matches_kruskal(g: &Graph, label: &str) {
    let reference = kruskal_mst(g).expect("connected input");
    let report = MstEngine::new().run(g).expect("connected input");
    assert_eq!(
        report.tree.edges(),
        reference.edges(),
        "{label}: Borůvka and Kruskal disagree on the MST edge set"
    );
    let expected: f64 = reference.weight_sum_in(g);
    assert!(
        (report.total_weight - expected).abs() < 1e-9,
        "{label}: reported weight {} ≠ Kruskal weight {expected}",
        report.total_weight
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Distinct weights ⇒ a unique MST; the MachineProgram must find
    /// exactly it.
    #[test]
    fn boruvka_matches_kruskal_on_distinct_weights(
        kind in 0u8..5,
        n in 4usize..14,
        topo_seed in 0u64..1_000,
        weight_seed in 0u64..1_000,
    ) {
        let g = with_distinct_weights(&build_topology(kind, n, topo_seed), weight_seed);
        assert_mst_matches_kruskal(&g, "distinct");
    }

    /// Weights from {1,2,3}: massive tie pressure. Both sides order
    /// edges by `(w, min, max)`, so the edge sets must still agree
    /// exactly.
    #[test]
    fn boruvka_matches_kruskal_on_tied_weights(
        kind in 0u8..5,
        n in 4usize..14,
        topo_seed in 0u64..1_000,
        weight_seed in 0u64..1_000,
    ) {
        let g = with_tied_weights(&build_topology(kind, n, topo_seed), weight_seed);
        assert_mst_matches_kruskal(&g, "tied");
    }

    /// Determinism contract: the MST tree *and* its round ledger are
    /// byte-identical at every worker count (Borůvka uses no RNG, so
    /// even the seed is irrelevant).
    #[test]
    fn mst_is_worker_invariant(
        kind in 0u8..5,
        n in 4usize..14,
        topo_seed in 0u64..1_000,
        weight_seed in 0u64..1_000,
    ) {
        let g = with_tied_weights(&build_topology(kind, n, topo_seed), weight_seed);
        let reference = MstEngine::new()
            .workers(Workers::Fixed(1))
            .run(&g)
            .expect("connected input");
        for workers in [2usize, 4, 8] {
            let report = MstEngine::new()
                .workers(Workers::Fixed(workers))
                .run(&g)
                .expect("connected input");
            prop_assert_eq!(&report.tree, &reference.tree, "workers = {}", workers);
            prop_assert_eq!(&report.rounds, &reference.rounds, "workers = {}", workers);
            prop_assert_eq!(report.phases, reference.phases, "workers = {}", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `mst_is_worker_invariant` runs on graphs of 4 to 13 vertices,
    /// fewer machines than two shards take, so every worker count runs
    /// Borůvka's machine steps on the caller's thread. Random 4-regular
    /// graphs of 256 to 600 vertices split them into two to four shards
    /// on spawned threads at workers 4 and 8.
    #[test]
    fn mst_is_worker_invariant_when_machines_shard(
        n in 256usize..=600,
        topo_seed in 0u64..1_000,
        weight_seed in 0u64..1_000,
    ) {
        let topology = generators::random_regular(n, 4, &mut rng(topo_seed));
        let g = with_tied_weights(&topology, weight_seed);
        let reference = MstEngine::new()
            .workers(Workers::Fixed(1))
            .run(&g)
            .expect("connected input");
        for workers in [4usize, 8] {
            let report = MstEngine::new()
                .workers(Workers::Fixed(workers))
                .run(&g)
                .expect("connected input");
            prop_assert_eq!(&report.tree, &reference.tree, "workers = {}", workers);
            prop_assert_eq!(&report.rounds, &reference.rounds, "workers = {}", workers);
            prop_assert_eq!(report.phases, reference.phases, "workers = {}", workers);
        }
    }
}

/// Weighted `-w` spec families feed the same contract: the MST of
/// `er-w`/`grid-w` spec graphs matches Kruskal, and the weight-1
/// degenerate case (unweighted spec) reduces to a minimum-edge-count
/// tree whose weight equals `n − 1`.
#[test]
fn spec_family_msts_match_kruskal() {
    for spec in ["er-w:24:0.3", "grid-w:4x5", "wheel-w:9", "complete-w:8"] {
        let mut r = rng(cct::serve::spec_seed(spec));
        let g = cct::graph::spec::parse_spec(spec, &mut r).unwrap();
        assert_mst_matches_kruskal(&g, spec);
    }
}

#[test]
fn unit_weight_mst_weighs_n_minus_one() {
    let g = generators::petersen();
    let report = MstEngine::new().run(&g).expect("connected");
    assert_eq!(report.total_weight, (g.n() - 1) as f64);
}
