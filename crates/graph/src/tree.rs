//! Validated spanning trees and their canonical encodings.
//!
//! Every sampler in this repository returns a [`SpanningTree`]; the
//! constructor proves the n−1 edges really do span (acyclic + connected via
//! union–find), so downstream statistics can trust the type.

use crate::{DisjointSet, Graph};
use std::fmt;

/// Error returned when an edge set is not a spanning tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Wrong number of edges: a spanning tree of `n` vertices needs `n−1`.
    WrongEdgeCount {
        /// Expected number of edges (`n − 1`).
        expected: usize,
        /// Actual number supplied.
        actual: usize,
    },
    /// An endpoint was `>= n`.
    VertexOutOfRange(usize),
    /// The edges contain a cycle (equivalently, the tree is disconnected).
    CycleOrDisconnected,
    /// An edge is absent from the host graph.
    EdgeNotInGraph(usize, usize),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::WrongEdgeCount { expected, actual } => {
                write!(f, "spanning tree needs {expected} edges, got {actual}")
            }
            TreeError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            TreeError::CycleOrDisconnected => write!(f, "edge set contains a cycle"),
            TreeError::EdgeNotInGraph(u, v) => write!(f, "edge ({u}, {v}) not in host graph"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A validated spanning tree of an `n`-vertex graph.
///
/// Edges are stored canonically: each as `(min, max)`, the list sorted.
/// Two trees compare equal iff they have the same edge set, which makes
/// `SpanningTree` usable directly as a `HashMap` key for empirical
/// distribution tests.
///
/// # Examples
///
/// ```
/// use cct_graph::SpanningTree;
///
/// let t = SpanningTree::new(4, vec![(1, 0), (1, 2), (3, 2)])?;
/// assert_eq!(t.edges(), &[(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(t.n(), 4);
/// # Ok::<(), cct_graph::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanningTree {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl SpanningTree {
    /// Validates and canonicalizes an edge set as a spanning tree on
    /// `0..n`.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if the edge count is not `n−1`, an endpoint
    /// is out of range, or the edges contain a cycle.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Result<SpanningTree, TreeError> {
        let expected = n.saturating_sub(1);
        if edges.len() != expected {
            return Err(TreeError::WrongEdgeCount {
                expected,
                actual: edges.len(),
            });
        }
        let mut dsu = DisjointSet::new(n);
        let mut canon = Vec::with_capacity(edges.len());
        for (u, v) in edges {
            if u >= n {
                return Err(TreeError::VertexOutOfRange(u));
            }
            if v >= n {
                return Err(TreeError::VertexOutOfRange(v));
            }
            if !dsu.union(u, v) {
                return Err(TreeError::CycleOrDisconnected);
            }
            canon.push((u.min(v), u.max(v)));
        }
        canon.sort_unstable();
        Ok(SpanningTree { n, edges: canon })
    }

    /// Like [`SpanningTree::new`], additionally checking that every edge
    /// exists in `g`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::EdgeNotInGraph`] on a foreign edge, plus all
    /// the errors of [`SpanningTree::new`].
    pub fn new_in(g: &Graph, edges: Vec<(usize, usize)>) -> Result<SpanningTree, TreeError> {
        for &(u, v) in &edges {
            if !g.has_edge(u, v) {
                return Err(TreeError::EdgeNotInGraph(u, v));
            }
        }
        SpanningTree::new(g.n(), edges)
    }

    /// Number of vertices spanned.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The canonical sorted edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Returns `true` if `{u, v}` is a tree edge.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        let key = (u.min(v), u.max(v));
        self.edges.binary_search(&key).is_ok()
    }

    /// Product of the host graph's weights over the tree edges — the
    /// unnormalized probability of this tree under the weighted uniform
    /// distribution (footnote 1).
    ///
    /// # Panics
    ///
    /// Panics if a tree edge is missing from `g`.
    pub fn weight_in(&self, g: &Graph) -> f64 {
        self.edges
            .iter()
            .map(|&(u, v)| g.edge_weight(u, v).expect("tree edge must exist in graph"))
            .product()
    }

    /// Sum of the host graph's weights over the tree edges — the
    /// objective a minimum spanning tree minimizes.
    ///
    /// # Panics
    ///
    /// Panics if a tree edge is missing from `g`.
    pub fn weight_sum_in(&self, g: &Graph) -> f64 {
        self.edges
            .iter()
            .map(|&(u, v)| g.edge_weight(u, v).expect("tree edge must exist in graph"))
            .sum()
    }
}

impl fmt::Display for SpanningTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanningTree(n={}, edges=[", self.n)?;
        for (i, (u, v)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}-{v}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::complete;

    #[test]
    fn valid_tree_canonicalizes() {
        let t = SpanningTree::new(3, vec![(2, 1), (0, 2)]).unwrap();
        assert_eq!(t.edges(), &[(0, 2), (1, 2)]);
        assert!(t.contains_edge(1, 2));
        assert!(t.contains_edge(2, 1));
        assert!(!t.contains_edge(0, 1));
    }

    #[test]
    fn trivial_trees() {
        assert!(SpanningTree::new(1, vec![]).is_ok());
        assert!(SpanningTree::new(0, vec![]).is_ok());
    }

    #[test]
    fn wrong_edge_count() {
        assert_eq!(
            SpanningTree::new(3, vec![(0, 1)]),
            Err(TreeError::WrongEdgeCount {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn cycle_detected() {
        assert_eq!(
            SpanningTree::new(4, vec![(0, 1), (1, 2), (2, 0)]),
            Err(TreeError::CycleOrDisconnected)
        );
    }

    #[test]
    fn out_of_range_detected() {
        assert_eq!(
            SpanningTree::new(2, vec![(0, 5)]),
            Err(TreeError::VertexOutOfRange(5))
        );
    }

    #[test]
    fn self_loop_is_cycle() {
        assert_eq!(
            SpanningTree::new(2, vec![(1, 1)]),
            Err(TreeError::CycleOrDisconnected)
        );
    }

    #[test]
    fn new_in_checks_membership() {
        let g = crate::generators::path(3);
        assert!(SpanningTree::new_in(&g, vec![(0, 1), (1, 2)]).is_ok());
        assert_eq!(
            SpanningTree::new_in(&g, vec![(0, 2), (1, 2)]),
            Err(TreeError::EdgeNotInGraph(0, 2))
        );
    }

    #[test]
    fn equality_ignores_edge_order() {
        let a = SpanningTree::new(3, vec![(0, 1), (1, 2)]).unwrap();
        let b = SpanningTree::new(3, vec![(2, 1), (1, 0)]).unwrap();
        assert_eq!(a, b);
        use std::collections::HashMap;
        let mut map = HashMap::new();
        map.insert(a, 1);
        assert_eq!(map.len(), 1);
        assert!(map.contains_key(&b));
    }

    #[test]
    fn weight_product() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 5.0)]).unwrap();
        let t = SpanningTree::new(3, vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(t.weight_in(&g), 6.0);
    }

    #[test]
    fn star_trees_in_complete_graph() {
        let g = complete(4);
        let t = SpanningTree::new_in(&g, vec![(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(t.n(), 4);
    }
}
