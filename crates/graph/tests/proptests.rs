//! Property-based tests for `cct-graph` invariants.

use cct_graph::spec::{parse_spec_with_limits, SpecLimits, MAX_SPEC_SIZE};
use cct_graph::{enumerate_spanning_trees, generators, spanning_tree_count_exact, Graph};
use cct_linalg::is_row_stochastic;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a connected random graph described by (n, seed, density).
fn connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..=10, any::<u64>(), 0.3f64..0.9).prop_map(|(n, seed, p)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, p, &mut rng)
    })
}

/// Strategy: the bytes of a would-be edge-list file — byte soup, runs
/// of digits between separators and stray punctuation, or well-formed
/// lines whose ids sit at the edge of `usize`.
fn edge_list_bytes() -> impl Strategy<Value = Vec<u8>> {
    let soup = vec(any::<u8>(), 0..256);
    let pick = |set: &'static [u8]| (0..set.len()).prop_map(move |i| set[i]);
    let token = prop_oneof![
        vec(b'0'..=b'9', 1..24),
        vec(pick(b" \t,\n"), 1..3),
        vec(pick(b"#%/.-e"), 1..2),
    ];
    let digits = vec(token, 0..48).prop_map(|tokens| tokens.concat());
    // Small ids, usize::MAX itself, or usize::MAX - 2 ..= usize::MAX + 1
    // (the last one does not parse as a usize at all).
    let max = usize::MAX as u128;
    let id = move || prop_oneof![0u128..8, Just(max), (max - 2)..=(max + 1)];
    let near_max = (vec((id(), id()), 1..5), any::<bool>()).prop_map(|(pairs, weighted)| {
        let weight = if weighted { " 1.5" } else { "" };
        let lines: String = pairs
            .iter()
            .map(|(u, v)| format!("{u} {v}{weight}\n"))
            .collect();
        lines.into_bytes()
    });
    prop_oneof![soup, digits, near_max]
}

proptest! {
    #[test]
    fn edge_list_loader_returns_typed_errors_never_panics(bytes in edge_list_bytes()) {
        // The default limits, spelled out so CCT_MAX_N cannot change them.
        let limits = SpecLimits {
            dense_cap: MAX_SPEC_SIZE,
            keeps_sparse: false,
            file_cap: None,
        };
        let path = std::env::temp_dir().join(format!("cct-graph-prop-{}.el", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let spec = format!("file:{}", path.display());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        match parse_spec_with_limits(&spec, &mut rng, &limits) {
            Ok(g) => prop_assert!(g.n() <= MAX_SPEC_SIZE),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn handshake_lemma(g in connected_graph()) {
        let deg_sum: f64 = (0..g.n()).map(|v| g.degree(v)).sum();
        prop_assert!((deg_sum - 2.0 * g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn transition_matrix_stochastic(g in connected_graph()) {
        prop_assert!(is_row_stochastic(&g.transition_matrix(), 1e-9));
    }

    #[test]
    fn laplacian_rows_sum_zero_and_symmetric(g in connected_graph()) {
        let l = g.laplacian();
        for i in 0..g.n() {
            prop_assert!(l.row(i).iter().sum::<f64>().abs() < 1e-9);
            for j in 0..g.n() {
                prop_assert!((l[(i, j)] - l[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric(g in connected_graph()) {
        for u in 0..g.n() {
            for &(v, w) in g.neighbors(u) {
                prop_assert_eq!(g.edge_weight(v, u), Some(w));
            }
        }
    }

    #[test]
    fn enumeration_count_matches_matrix_tree(
        (n, seed, p) in (3usize..=7, any::<u64>(), 0.3f64..0.9)
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, p, &mut rng);
        let trees = enumerate_spanning_trees(&g);
        let exact = spanning_tree_count_exact(&g).unwrap();
        prop_assert_eq!(trees.len() as i128, exact);
        // Every enumerated tree uses only graph edges.
        for t in &trees {
            for &(u, v) in t.edges() {
                prop_assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn deleting_any_edge_of_cycle_spans(n in 3usize..=9) {
        let g = generators::cycle(n);
        let trees = enumerate_spanning_trees(&g);
        prop_assert_eq!(trees.len(), n);
    }

    #[test]
    fn induced_subgraph_preserves_weights(g in connected_graph()) {
        let keep: Vec<usize> = (0..g.n()).step_by(2).collect();
        let (sub, map) = g.induced_subgraph(&keep);
        for (new_u, &old_u) in map.iter().enumerate() {
            for &(new_v, w) in sub.neighbors(new_u) {
                prop_assert_eq!(g.edge_weight(old_u, map[new_v]), Some(w));
            }
        }
    }

    #[test]
    fn random_regular_degree(seed in any::<u64>(), d in 2usize..=4) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 12;
        let g = generators::random_regular(n, d, &mut rng);
        for v in 0..n {
            prop_assert_eq!(g.degree(v), d as f64);
        }
    }
}
