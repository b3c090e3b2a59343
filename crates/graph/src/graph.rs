//! The input-graph type: simple, undirected, positive edge weights.
//!
//! The paper's main theorem is stated for unweighted graphs, with
//! footnote 1 extending it to positive integer weights bounded by
//! `W = O(n^β)`; [`Graph`] supports both (unweighted graphs simply have
//! all weights 1).

use crate::DisjointSet;
use cct_linalg::{CsrMatrix, Matrix, PMatrix, Repr};
use std::collections::BTreeMap;
use std::fmt;

/// Error returned when a graph construction is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// The number of vertices.
        n: usize,
    },
    /// A self-loop `(u, u)` was supplied.
    SelfLoop(usize),
    /// The same undirected edge was supplied twice.
    DuplicateEdge(usize, usize),
    /// A non-positive or non-finite weight was supplied.
    BadWeight(f64),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for n = {n}")
            }
            GraphError::SelfLoop(u) => write!(f, "self-loop at vertex {u}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::BadWeight(w) => write!(f, "edge weight {w} is not positive and finite"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph with positive edge weights.
///
/// Vertices are `0..n`. Random walks leave a vertex along an incident edge
/// chosen with probability proportional to its weight (§1.1).
///
/// # Examples
///
/// ```
/// use cct_graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.n(), 3);
/// assert_eq!(g.m(), 3);
/// assert!(g.is_connected());
/// assert_eq!(g.degree(0), 2.0);
/// # Ok::<(), cct_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: usize,
    /// Adjacency: `adj[u]` lists `(v, weight)` sorted by `v`.
    adj: Vec<Vec<(usize, f64)>>,
    /// Canonical edge list: `(u, v, w)` with `u < v`, sorted.
    edges: Vec<(usize, usize, f64)>,
}

impl Graph {
    /// Builds an unweighted graph (all weights 1) from an edge list.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for out-of-range endpoints, self-loops, or
    /// duplicate edges.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        let weighted: Vec<(usize, usize, f64)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Graph::from_weighted_edges(n, &weighted)
    }

    /// Builds a weighted graph from `(u, v, weight)` triples.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for out-of-range endpoints, self-loops,
    /// duplicate edges, or non-positive/non-finite weights.
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(usize, usize, f64)],
    ) -> Result<Graph, GraphError> {
        let mut canon: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(u, v, w) in edges {
            for x in [u, v] {
                if x >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: x, n });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if !(w > 0.0 && w.is_finite()) {
                return Err(GraphError::BadWeight(w));
            }
            let key = (u.min(v), u.max(v));
            if canon.insert(key, w).is_some() {
                return Err(GraphError::DuplicateEdge(key.0, key.1));
            }
        }
        let mut adj = vec![Vec::new(); n];
        let mut edge_list = Vec::with_capacity(canon.len());
        for (&(u, v), &w) in &canon {
            adj[u].push((v, w));
            adj[v].push((u, w));
            edge_list.push((u, v, w));
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable_by_key(|a| a.0);
        }
        Ok(Graph {
            n,
            adj,
            edges: edge_list,
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list: `(u, v, w)` with `u < v`, sorted.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Neighbors of `u` as `(v, weight)` pairs, sorted by `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Weighted degree of `u` (sum of incident edge weights).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn degree(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|&(_, w)| w).sum()
    }

    /// Number of neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn num_neighbors(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Returns the weight of edge `{u, v}`, or `None` if absent.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        if u >= self.n || v >= self.n {
            return None;
        }
        self.adj[u]
            .binary_search_by(|probe| probe.0.cmp(&v))
            .ok()
            .map(|idx| self.adj[u][idx].1)
    }

    /// Returns `true` if edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Returns `true` if the graph is connected (vacuously true for
    /// `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut dsu = DisjointSet::new(self.n);
        for &(u, v, _) in &self.edges {
            dsu.union(u, v);
        }
        dsu.components() == 1
    }

    /// The random-walk transition matrix `P` (§1.1): `P[u,v] = w(u,v) /
    /// deg(u)`, zero elsewhere.
    ///
    /// Isolated vertices get a self-transition of 1 so the matrix stays
    /// row-stochastic.
    pub fn transition_matrix(&self) -> Matrix {
        let mut p = Matrix::zeros(self.n, self.n);
        for u in 0..self.n {
            let d = self.degree(u);
            if d == 0.0 {
                p[(u, u)] = 1.0;
                continue;
            }
            for &(v, w) in &self.adj[u] {
                p[(u, v)] = w / d;
            }
        }
        p
    }

    /// [`Graph::transition_matrix`] in the requested representation.
    ///
    /// The sparse route builds CSR **directly from the adjacency lists**
    /// (already sorted by neighbor id, i.e. already in CSR row order)
    /// without ever allocating the `n × n` dense buffer — one row per
    /// machine, `O(deg)` entries per row, exactly the paper's §1.6
    /// distribution. Entry values are computed with the same `w / deg(u)`
    /// arithmetic as the dense route, so the two representations hold
    /// bit-identical probabilities.
    pub fn transition_pmatrix(&self, repr: Repr) -> PMatrix {
        match repr {
            Repr::Dense => PMatrix::Dense(self.transition_matrix()),
            Repr::Sparse => {
                let mut b = CsrMatrix::builder(self.n, self.n);
                for u in 0..self.n {
                    let d = self.degree(u);
                    if d == 0.0 {
                        b.push(u, 1.0);
                    } else {
                        for &(v, w) in &self.adj[u] {
                            b.push(v, w / d);
                        }
                    }
                    b.finish_row();
                }
                PMatrix::Sparse(b.build())
            }
        }
    }

    /// The graph Laplacian `L = D − A` (§1.7).
    pub fn laplacian(&self) -> Matrix {
        let mut l = Matrix::zeros(self.n, self.n);
        for &(u, v, w) in &self.edges {
            l[(u, u)] += w;
            l[(v, v)] += w;
            l[(u, v)] -= w;
            l[(v, u)] -= w;
        }
        l
    }

    /// Returns `true` if every edge weight is a positive integer (within
    /// `1e-9`), as required by footnote 1 for the weighted extension.
    pub fn has_integer_weights(&self) -> bool {
        self.edges
            .iter()
            .all(|&(_, _, w)| (w - w.round()).abs() < 1e-9 && w.round() >= 1.0)
    }

    /// Largest edge weight (`W` in footnote 1); 0 for edgeless graphs.
    pub fn max_weight(&self) -> f64 {
        self.edges.iter().fold(0.0, |acc, &(_, _, w)| acc.max(w))
    }

    /// Total edge weight.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Returns a copy of this graph with all weights replaced by 1.
    pub fn unweighted(&self) -> Graph {
        let edges: Vec<(usize, usize)> = self.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        Graph::from_edges(self.n, &edges).expect("valid by construction")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cct_linalg::is_row_stochastic;

    /// Whether `g` has a proper 2-coloring: a depth-first search from
    /// each uncolored vertex gives every neighbor the other color and
    /// fails on the first edge whose ends share one.
    pub(crate) fn two_colorable(g: &Graph) -> bool {
        let mut color: Vec<Option<bool>> = vec![None; g.n()];
        for start in 0..g.n() {
            if color[start].is_some() {
                continue;
            }
            color[start] = Some(false);
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                let side = color[u].expect("stacked vertices are colored");
                for &(v, _) in g.neighbors(u) {
                    match color[v] {
                        None => {
                            color[v] = Some(!side);
                            stack.push(v);
                        }
                        Some(c) if c == side => return false,
                        Some(_) => {}
                    }
                }
            }
        }
        true
    }

    fn triangle_plus_leaf() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_leaf();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.degree(0), 3.0);
        assert_eq!(g.degree(3), 1.0);
        assert_eq!(g.num_neighbors(0), 3);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 3), None);
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::VertexOutOfRange { vertex: 2, n: 2 })
        );
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge(0, 1))
        );
        assert_eq!(
            Graph::from_weighted_edges(2, &[(0, 1, 0.0)]),
            Err(GraphError::BadWeight(0.0))
        );
        assert!(Graph::from_weighted_edges(2, &[(0, 1, f64::NAN)]).is_err());
    }

    #[test]
    fn connectivity() {
        assert!(triangle_plus_leaf().is_connected());
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert!(Graph::from_edges(1, &[]).unwrap().is_connected());
        assert!(Graph::from_edges(0, &[]).unwrap().is_connected());
    }

    #[test]
    fn bipartiteness() {
        let even_cycle = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(two_colorable(&even_cycle));
        assert!(!two_colorable(&triangle_plus_leaf()));
        // Disconnected graph with one odd component.
        let g = Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4), (4, 2)]).unwrap();
        assert!(!two_colorable(&g));
    }

    #[test]
    fn transition_matrix_is_stochastic() {
        let g = triangle_plus_leaf();
        let p = g.transition_matrix();
        assert!(is_row_stochastic(&p, 1e-12));
        assert_eq!(p[(3, 0)], 1.0);
        assert!((p[(0, 1)] - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(p[(1, 3)], 0.0);
    }

    #[test]
    fn weighted_transition_matrix() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 3.0), (0, 2, 1.0)]).unwrap();
        let p = g.transition_matrix();
        assert_eq!(p[(0, 1)], 0.75);
        assert_eq!(p[(0, 2)], 0.25);
        assert_eq!(p[(1, 0)], 1.0);
    }

    #[test]
    fn laplacian_row_sums_are_zero() {
        let g = triangle_plus_leaf();
        let l = g.laplacian();
        for i in 0..g.n() {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-12);
        }
        assert_eq!(l[(0, 0)], 3.0);
        assert_eq!(l[(0, 1)], -1.0);
    }

    #[test]
    fn integer_weight_detection() {
        let g = Graph::from_weighted_edges(2, &[(0, 1, 4.0)]).unwrap();
        assert!(g.has_integer_weights());
        assert_eq!(g.max_weight(), 4.0);
        let h = Graph::from_weighted_edges(2, &[(0, 1, 0.5)]).unwrap();
        assert!(!h.has_integer_weights());
    }

    #[test]
    fn unweighted_copy() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 5.0), (1, 2, 2.0)]).unwrap();
        let u = g.unweighted();
        assert_eq!(u.edge_weight(0, 1), Some(1.0));
        assert_eq!(u.m(), 2);
    }

    #[test]
    fn isolated_vertex_self_transition() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let p = g.transition_matrix();
        assert_eq!(p[(2, 2)], 1.0);
        assert!(is_row_stochastic(&p, 1e-12));
    }

    #[test]
    fn transition_pmatrix_is_bit_identical_across_representations() {
        let weighted =
            Graph::from_weighted_edges(4, &[(0, 1, 3.0), (0, 2, 1.0), (2, 3, 2.0)]).unwrap();
        for g in [triangle_plus_leaf(), weighted] {
            let dense = g.transition_matrix();
            let sparse = g.transition_pmatrix(Repr::Sparse);
            assert!(sparse.is_sparse());
            assert_eq!(sparse.to_dense(), dense, "sparse CSR build must match");
            assert_eq!(g.transition_pmatrix(Repr::Dense).to_dense(), dense);
        }
        // Isolated vertices keep their self-loop in CSR too.
        let iso = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(iso.transition_pmatrix(Repr::Sparse).get(2, 2), 1.0);
    }
}
