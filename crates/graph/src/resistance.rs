//! Effective resistance and Kirchhoff edge marginals.
//!
//! The theory behind the paper (random walks ↔ electrical networks,
//! §1's opening) gives an independent, exact check on any spanning-tree
//! sampler: by Kirchhoff's theorem, the probability that edge `e`
//! appears in a (weighted-)uniform spanning tree equals
//! `w(e) · R_eff(e)`. The experiment suite uses these marginals to
//! validate the distributed sampler on graphs far too large to
//! enumerate.

use crate::Graph;
use cct_linalg::Lu;

/// The effective resistance between `u` and `v` when every edge of
/// weight `w` is a conductor of conductance `w`.
///
/// Computed by grounding vertex 0 and solving the reduced Laplacian
/// system `L̃ x = (e_u − e_v)̃`.
///
/// # Panics
///
/// Panics if the graph is disconnected, `u == v`, or either vertex is
/// out of range.
///
/// # Examples
///
/// ```
/// use cct_graph::{effective_resistance, generators};
///
/// // A 3-edge path is three unit resistors in series.
/// let g = generators::path(4);
/// assert!((effective_resistance(&g, 0, 3) - 3.0).abs() < 1e-10);
/// ```
pub fn effective_resistance(g: &Graph, u: usize, v: usize) -> f64 {
    assert!(u < g.n() && v < g.n(), "vertex out of range");
    assert_ne!(u, v, "resistance between a vertex and itself is 0");
    assert!(
        g.is_connected(),
        "effective resistance needs a connected graph"
    );
    let lu = reduced_laplacian(g);
    resistance_from_factor(&lu, u, v)
}

/// For every edge `e = {u, v, w}`: `(u, v, w·R_eff(u,v))` — the exact
/// probability that `e` belongs to a weighted-uniform spanning tree
/// (Kirchhoff). The marginals of any correct sampler must match these.
///
/// # Panics
///
/// Panics if the graph is disconnected or has fewer than 2 vertices.
pub fn spanning_tree_edge_marginals(g: &Graph) -> Vec<(usize, usize, f64)> {
    assert!(g.n() >= 2, "need at least two vertices");
    assert!(g.is_connected(), "marginals need a connected graph");
    let lu = reduced_laplacian(g);
    g.edges()
        .iter()
        .map(|&(u, v, w)| {
            (
                u,
                v,
                (w * resistance_from_factor(&lu, u, v)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

/// Factorizes the Laplacian with vertex 0 grounded (rows/columns `1..n`).
fn reduced_laplacian(g: &Graph) -> Lu {
    let l = g.laplacian();
    let keep: Vec<usize> = (1..g.n()).collect();
    Lu::new(l.submatrix(&keep, &keep)).expect("reduced Laplacian of a connected graph")
}

/// `R(u,v) = (e_u − e_v)ᵀ L̃⁻¹ (e_u − e_v)` in the grounded coordinates
/// (coordinate `i` represents vertex `i + 1`; vertex 0 is the ground).
fn resistance_from_factor(lu: &Lu, u: usize, v: usize) -> f64 {
    let mut rhs = vec![0.0; lu.dim()];
    if u != 0 {
        rhs[u - 1] += 1.0;
    }
    if v != 0 {
        rhs[v - 1] -= 1.0;
    }
    let x = lu.solve(&rhs);
    let mut r = 0.0;
    if u != 0 {
        r += x[u - 1];
    }
    if v != 0 {
        r -= x[v - 1];
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::spanning_tree_distribution;

    #[test]
    fn series_and_parallel_resistors() {
        // Series: path of k unit edges → R = k.
        for k in 1..=5usize {
            let g = generators::path(k + 1);
            assert!((effective_resistance(&g, 0, k) - k as f64).abs() < 1e-10);
        }
        // Parallel: triangle → R(u,v) = (1 · 2) / (1 + 2) = 2/3.
        let g = generators::cycle(3);
        assert!((effective_resistance(&g, 0, 1) - 2.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn weighted_resistance() {
        // Two parallel conductors of conductance 3 and 1 → R = 1/4.
        let g =
            crate::Graph::from_weighted_edges(3, &[(0, 1, 3.0), (0, 2, 1.0), (1, 2, 1.0)]).unwrap();
        // R(0,1): direct conductance 3 in parallel with the 0-2-1 path
        // (two unit resistors in series = 1/2 conductance) → 1/(3+0.5).
        assert!((effective_resistance(&g, 0, 1) - 1.0 / 3.5).abs() < 1e-10);
    }

    #[test]
    fn complete_graph_resistance() {
        // K_n: R(u,v) = 2/n.
        for n in [3usize, 5, 8] {
            let g = generators::complete(n);
            assert!((effective_resistance(&g, 0, n - 1) - 2.0 / n as f64).abs() < 1e-10);
        }
    }

    #[test]
    fn marginals_sum_to_n_minus_one() {
        // Foster's theorem / Kirchhoff: Σ_e w_e·R_e = n − 1.
        for g in [
            generators::petersen(),
            generators::grid(3, 3),
            generators::lollipop(5, 3),
            crate::Graph::from_weighted_edges(
                4,
                &[
                    (0, 1, 2.0),
                    (1, 2, 1.0),
                    (2, 3, 3.0),
                    (3, 0, 1.0),
                    (0, 2, 2.0),
                ],
            )
            .unwrap(),
        ] {
            let total: f64 = spanning_tree_edge_marginals(&g)
                .iter()
                .map(|&(_, _, p)| p)
                .sum();
            assert!(
                (total - (g.n() as f64 - 1.0)).abs() < 1e-8,
                "n = {}: Σ = {total}",
                g.n()
            );
        }
    }

    #[test]
    fn marginals_match_enumeration() {
        let g = crate::Graph::from_weighted_edges(
            4,
            &[
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 3.0),
                (3, 0, 1.0),
                (0, 2, 2.0),
            ],
        )
        .unwrap();
        let dist = spanning_tree_distribution(&g);
        let marginals = spanning_tree_edge_marginals(&g);
        for &(u, v, p) in &marginals {
            let exact: f64 = dist
                .iter()
                .filter(|(t, _)| t.contains_edge(u, v))
                .map(|(_, q)| q)
                .sum();
            assert!(
                (p - exact).abs() < 1e-9,
                "edge ({u},{v}): Kirchhoff {p} vs enumeration {exact}"
            );
        }
    }

    #[test]
    fn bridge_has_marginal_one() {
        let g = generators::barbell(4);
        let marginals = spanning_tree_edge_marginals(&g);
        // The bridge (3, 4) is in every spanning tree.
        let bridge = marginals
            .iter()
            .find(|&&(u, v, _)| (u, v) == (3, 4))
            .unwrap();
        assert!((bridge.2 - 1.0).abs() < 1e-9);
    }
}
