//! Property-based tests for walk primitives and the sequential samplers.

use cct_graph::generators;
use cct_walks::{aldous_broder, first_visit_edges, is_valid_walk, random_walk, wilson};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_walks_are_valid(n in 3usize..=20, len in 0usize..=80, seed in any::<u64>()) {
        let mut gr = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.5, &mut gr);
        let w = random_walk(&g, seed as usize % n, len, &mut gr);
        prop_assert_eq!(w.len(), len + 1);
        prop_assert!(is_valid_walk(&g, &w));
    }

    #[test]
    fn first_visit_edges_never_repeat_vertices(n in 3usize..=15, seed in any::<u64>()) {
        let mut gr = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.5, &mut gr);
        let w = random_walk(&g, 0, 200, &mut gr);
        let fv = first_visit_edges(&w);
        let mut seen = std::collections::HashSet::new();
        seen.insert(0usize);
        for (v, (prev, v2)) in fv {
            prop_assert_eq!(v, v2);
            prop_assert!(seen.contains(&prev), "predecessor must already be visited");
            prop_assert!(seen.insert(v), "vertex {} visited twice", v);
        }
    }

    #[test]
    fn ab_and_wilson_trees_valid(n in 2usize..=16, seed in any::<u64>()) {
        let mut gr = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_connected(n, 0.6, &mut gr);
        let t1 = aldous_broder(&g, 0, &mut gr).unwrap();
        let t2 = wilson(&g, n - 1, &mut gr).unwrap();
        for t in [t1, t2] {
            prop_assert_eq!(t.edges().len(), n - 1);
            for &(u, v) in t.edges() {
                prop_assert!(g.has_edge(u, v));
            }
        }
    }
}
