//! The §1.4 strawman: "assign random weights and take the MST".
//!
//! The paper warns that, although an MST can be built in `O(1)` rounds
//! in the Congested Clique, sampling a spanning tree by assigning
//! uniform random weights to the edges and returning the minimum
//! spanning tree does **not** produce the uniform distribution \[39\].
//! This module implements the strawman (plus the Kruskal substrate it
//! needs) so the experiment suite can demonstrate the bias — a negative
//! control proving the statistical gates can tell these distributions
//! apart.

use crate::SampleError;
use cct_graph::{DisjointSet, Graph, SpanningTree};
use rand::Rng;

/// Kruskal's algorithm: the spanning tree greedily built by scanning
/// edges in the order given by `keys` (ascending).
///
/// # Errors
///
/// Returns [`SampleError::Disconnected`] if the edges do not span.
///
/// # Panics
///
/// Panics if `keys.len() != g.m()`.
pub fn kruskal_by_keys(g: &Graph, keys: &[f64]) -> Result<SpanningTree, SampleError> {
    assert_eq!(keys.len(), g.m(), "need one key per edge");
    let n = g.n();
    let mut order: Vec<usize> = (0..g.m()).collect();
    order.sort_by(|&a, &b| {
        keys[a]
            .partial_cmp(&keys[b])
            .expect("keys must be comparable")
    });
    let mut dsu = DisjointSet::new(n);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for idx in order {
        let (u, v, _) = g.edges()[idx];
        if dsu.union(u, v) {
            edges.push((u, v));
            if edges.len() + 1 == n {
                break;
            }
        }
    }
    SpanningTree::new(n, edges).map_err(|_| SampleError::Disconnected)
}

/// The sequential minimum-spanning-tree reference: Kruskal over the
/// graph's *own* edge weights.
///
/// Ties are deterministic: `sort_by` is stable and [`Graph::edges`] is
/// sorted lexicographically by `(u, v)`, so the effective total order is
/// `(w, u, v)` — under which all weights are distinct and the MST is
/// *unique*. The distributed Borůvka engine selects minima under the
/// same order, which is what makes edge-set-for-edge-set cross-validation
/// between the two meaningful even on graphs with tied weights.
///
/// # Errors
///
/// Returns [`SampleError::Disconnected`] if the graph does not span.
pub fn kruskal_mst(g: &Graph) -> Result<SpanningTree, SampleError> {
    let keys: Vec<f64> = g.edges().iter().map(|&(_, _, w)| w).collect();
    kruskal_by_keys(g, &keys)
}

/// The strawman sampler: i.i.d. uniform `\[0, 1\]` edge weights, then the
/// MST. Fast — and *biased* (see [`random_mst_distribution`] and the
/// chi-square negative control `strawman_negative_control_via_facade`).
///
/// # Errors
///
/// Returns [`SampleError::Disconnected`] for disconnected graphs.
pub fn random_weight_mst<R: Rng + ?Sized>(
    g: &Graph,
    rng: &mut R,
) -> Result<SpanningTree, SampleError> {
    let keys: Vec<f64> = (0..g.m()).map(|_| rng.gen::<f64>()).collect();
    kruskal_by_keys(g, &keys)
}

/// The *exact* distribution of [`random_weight_mst`] for a small graph,
/// by enumerating all `m!` edge orderings (i.i.d. continuous weights
/// induce a uniformly random ordering).
///
/// # Panics
///
/// Panics if `m > 9` (9! = 362 880 orderings is the sane limit) or the
/// graph is disconnected.
pub fn random_mst_distribution(g: &Graph) -> Vec<(SpanningTree, f64)> {
    let m = g.m();
    assert!(m <= 9, "enumerating {m}! orderings is unreasonable");
    assert!(g.is_connected(), "no spanning tree exists");
    let mut counts: std::collections::HashMap<SpanningTree, usize> =
        std::collections::HashMap::new();
    let mut perm: Vec<usize> = (0..m).collect();
    let mut total = 0usize;
    permute(&mut perm, 0, &mut |order| {
        let mut keys = vec![0.0f64; m];
        for (rank, &edge) in order.iter().enumerate() {
            keys[edge] = rank as f64;
        }
        let tree = kruskal_by_keys(g, &keys).expect("connected");
        *counts.entry(tree).or_insert(0) += 1;
        total += 1;
    });
    counts
        .into_iter()
        .map(|(t, c)| (t, c as f64 / total as f64))
        .collect()
}

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use cct_graph::{generators, spanning_tree_distribution};
    use cct_linalg::total_variation;
    use rand::SeedableRng;

    #[test]
    fn kruskal_produces_valid_trees() {
        let g = generators::petersen();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let t = random_weight_mst(&g, &mut rng).unwrap();
            assert_eq!(t.edges().len(), 9);
            for &(u, v) in t.edges() {
                assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn kruskal_respects_keys() {
        // Path keys force a specific tree on the triangle.
        let g = generators::cycle(3);
        // Edges sorted: (0,1), (0,2), (1,2); give (0,2) the largest key.
        let t = kruskal_by_keys(&g, &[0.1, 0.9, 0.2]).unwrap();
        assert!(t.contains_edge(0, 1));
        assert!(t.contains_edge(1, 2));
        assert!(!t.contains_edge(0, 2));
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        assert_eq!(
            random_weight_mst(&g, &mut rng).unwrap_err(),
            SampleError::Disconnected
        );
    }

    #[test]
    fn empirical_matches_exact_ordering_law() {
        // The sampler must match its own enumerated law (sanity).
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let exact = random_mst_distribution(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let trials = 20_000;
        let counts =
            stats::empirical_counts((0..trials).map(|_| random_weight_mst(&g, &mut rng).unwrap()));
        let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn strawman_is_provably_biased() {
        // §1.4: the random-weight MST law differs from uniform. On the
        // diamond (C4 + chord) the exact laws are comparably far apart.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let mst_law = random_mst_distribution(&g);
        let uniform = spanning_tree_distribution(&g);
        assert_eq!(mst_law.len(), uniform.len(), "same support");
        // Align the two distributions by tree.
        let map: std::collections::HashMap<_, _> = mst_law.into_iter().collect();
        let p: Vec<f64> = uniform.iter().map(|(t, _)| map[t]).collect();
        let q: Vec<f64> = uniform.iter().map(|(_, pu)| *pu).collect();
        let tv = total_variation(&p, &q);
        assert!(
            tv > 0.02,
            "random-MST law is TV = {tv:.4} from uniform — expected a visible gap"
        );
    }

    #[test]
    fn chi_square_gate_rejects_the_strawman() {
        // The same gate that passes the real samplers must fail this one
        // — the negative control for the whole uniformity methodology.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let uniform = spanning_tree_distribution(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let trials = 40_000;
        let counts =
            stats::empirical_counts((0..trials).map(|_| random_weight_mst(&g, &mut rng).unwrap()));
        let (stat, crit) = stats::goodness_of_fit(&counts, &uniform, trials);
        assert!(
            stat > crit,
            "strawman passed the uniformity gate (chi² = {stat:.1} < {crit:.1})"
        );
    }
}
