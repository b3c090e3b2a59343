//! The `Graph`-typed front end of `cct-sim`'s Borůvka MST protocol: the
//! weighted deterministic workload next to the randomized samplers.
//!
//! # Ledger accounting
//!
//! Each Borůvka phase charges exactly two [`cct_sim::CostCategory`]
//! buckets of the engine's own [`RoundLedger`]:
//!
//! * `Gather` — the candidate collection: every machine sends its
//!   vertex's minimum outgoing edge to the leader as a 3-word
//!   `(w, u, v)` triple, `⌈3n/n⌉ = 3` rounds.
//! * `Broadcast` — the merge scatter (leader → each machine, 1 word, 1
//!   round) and the label relay (each machine re-broadcasts its label
//!   to all `n`, 1 round) that replicate the new component labels.
//!
//! So a run costs `≈ 5` rounds per phase and `≤ ⌈log₂ n⌉ + 1` phases —
//! `O(log n)` rounds total, all measured from real routed traffic, never
//! asserted. The protocol is deterministic (no RNG), so tree, phase
//! count, *and* ledger are identical at every worker count.

use crate::SampleTreeError;
use cct_graph::{Graph, SpanningTree};
use cct_sim::{boruvka_mst, Clique, MstError, RoundLedger, Workers};

/// The result of [`MstEngine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct MstReport {
    /// The minimum spanning tree (unique under the `(w, u, v)` total
    /// order, so ties in the weights are harmless).
    pub tree: SpanningTree,
    /// The rounds the protocol charged, by category.
    pub rounds: RoundLedger,
    /// Number of Borůvka phases (`≤ ⌈log₂ n⌉`).
    pub phases: usize,
    /// Sum of the tree's edge weights.
    pub total_weight: f64,
}

/// The Congested Clique minimum-spanning-tree engine: Borůvka-style
/// merging driven by [`cct_sim::ParallelClique`].
///
/// Unlike the samplers this engine takes no RNG and no
/// [`crate::SamplerConfig`]: its output is a single deterministic tree,
/// reproducible bit-for-bit at any worker count.
///
/// # Examples
///
/// ```
/// use cct_core::MstEngine;
/// use cct_graph::Graph;
///
/// // A triangle with one heavy edge: the MST drops it.
/// let g = Graph::from_weighted_edges(
///     3,
///     &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 5.0)],
/// )
/// .unwrap();
/// let report = MstEngine::new().run(&g).unwrap();
/// assert_eq!(report.tree.edges(), &[(0, 1), (1, 2)]);
/// assert_eq!(report.total_weight, 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MstEngine {
    workers: Workers,
}

impl MstEngine {
    /// An engine with the default (sequential) worker policy.
    pub fn new() -> Self {
        MstEngine::default()
    }

    /// Sets the worker-pool policy for the parallel round engine. The
    /// result never depends on it — only wall-clock time does.
    pub fn workers(mut self, workers: Workers) -> Self {
        self.workers = workers;
        self
    }

    /// Computes the minimum spanning tree of `g` on a simulated
    /// `g.n()`-machine clique.
    ///
    /// # Errors
    ///
    /// [`SampleTreeError::EmptyGraph`] for a vertex-free graph,
    /// [`SampleTreeError::Disconnected`] when no spanning tree exists.
    pub fn run(&self, g: &Graph) -> Result<MstReport, SampleTreeError> {
        let n = g.n();
        if n == 0 {
            return Err(SampleTreeError::EmptyGraph);
        }
        let adjacency: Vec<Vec<(usize, f64)>> = (0..n).map(|u| g.neighbors(u).to_vec()).collect();
        let mut clique = Clique::new(n);
        let workers = self.workers.resolve(n);
        let outcome = boruvka_mst(&mut clique, &adjacency, workers).map_err(|e| match e {
            MstError::Disconnected => SampleTreeError::Disconnected,
            MstError::WrongMachineCount { .. } => {
                unreachable!("adjacency is built from the same graph")
            }
        })?;
        // Summed from +0.0: an empty `f64` sum is -0.0, so a one-vertex
        // graph would weigh `-0`.
        let total_weight = outcome.edges.iter().fold(0.0, |acc, &(_, _, w)| acc + w);
        let tree = SpanningTree::new_in(g, outcome.edges.iter().map(|&(u, v, _)| (u, v)).collect())
            .expect("the protocol returns a spanning tree of g");
        Ok(MstReport {
            tree,
            rounds: clique.take_ledger(),
            phases: outcome.phases,
            total_weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_graph::generators;
    use cct_walks::kruskal_mst;

    #[test]
    fn matches_kruskal_on_fixed_graphs() {
        let weighted =
            generators::with_deterministic_integer_weights(&generators::grid(3, 4), 8, 99).unwrap();
        for g in [generators::petersen(), generators::complete(7), weighted] {
            let report = MstEngine::new().run(&g).unwrap();
            let reference = kruskal_mst(&g).unwrap();
            assert_eq!(report.tree, reference, "n = {}", g.n());
            assert_eq!(
                report.total_weight,
                reference.weight_sum_in(&g),
                "n = {}",
                g.n()
            );
        }
    }

    #[test]
    fn worker_policy_does_not_change_the_report() {
        let g =
            generators::with_deterministic_integer_weights(&generators::wheel(9), 8, 5).unwrap();
        let base = MstEngine::new().run(&g).unwrap();
        for workers in [Workers::Fixed(2), Workers::Fixed(4), Workers::Auto] {
            let report = MstEngine::new().workers(workers).run(&g).unwrap();
            assert_eq!(report, base, "{workers:?}");
        }
    }

    #[test]
    fn errors_are_typed() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            MstEngine::new().run(&g),
            Err(SampleTreeError::Disconnected)
        ));
    }
}
