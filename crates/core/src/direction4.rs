//! "Direction 4" (§1.4): the conceptually simpler `o(n)`-round sampler
//! the paper sketches as future work — and this repository implements.
//!
//! The idea: Theorem 2 builds a length-`Θ(n)` random walk in
//! `O(log² n)` rounds via load-balanced doubling. By Barnes–Feige \[8\], a
//! length-`n` walk visits `Ω(n^{1/3})` distinct vertices, so running one
//! doubling walk per phase on the Schur complement of the unvisited
//! region should cover the graph in `O(n^{2/3})` phases — worse than
//! Theorem 1's `Õ(n^{1/2+α})`, but with no top-down filling, no
//! truncation search, and no matching machinery.
//!
//! The paper's caveat (which this implementation makes measurable): the
//! Barnes–Feige bound is only proven for *unweighted* graphs, and after
//! phase 1 the walk runs on the weighted `Schur(G, S)`. Experiment E14
//! measures the realized distinct-vertex harvest per phase.
//!
//! Correctness needs no truncation at fresh vertices: the concatenated
//! phase walks form one continuous walk on `G` watched on shrinking
//! sets, so the first-visit edges (recovered per phase through the
//! shortcut graph, Algorithm 4) are exactly Aldous–Broder's tree edges.

use crate::sampler::{schur_rounds, validate, SampleTreeError};
use cct_doubling::{doubling_walks, Balancing};
use cct_graph::{Graph, SpanningTree};
use cct_schur::{sample_first_visit_edge, schur_graph, shortcut_exact, subset_wdeg, VertexSubset};
use cct_sim::{Clique, CostCategory, FastOracleEngine, RoundLedger};
use rand::Rng;

/// Report of a Direction-4 run.
#[derive(Debug, Clone)]
pub struct Direction4Report {
    /// The sampled spanning tree.
    pub tree: SpanningTree,
    /// Total rounds charged.
    pub rounds: RoundLedger,
    /// Number of phases (claim: `O(n^{2/3})` if Barnes–Feige held on the
    /// weighted Schur graphs).
    pub phases: usize,
    /// New vertices harvested per phase (the Barnes–Feige quantity).
    pub new_per_phase: Vec<usize>,
}

/// Samples a uniform spanning tree with the Direction-4 strategy: per
/// phase, one length-`⌈walk_factor·|S|⌉` doubling walk on
/// `Schur(G, S)`, first-visit edges through Algorithm 4.
///
/// The walk runs on the clique through the load-balanced doubling of §3
/// (rounds measured); each phase's Schur/shortcut construction is
/// charged by the main sampler's rule — `4k + 1` multiplies,
/// `k = ⌈3 log₂ n + 6⌉`, at the default fast oracle's `⌈n^α⌉` rounds
/// each.
///
/// # Errors
///
/// The input check of [`crate::validate`]: [`SampleTreeError::EmptyGraph`],
/// [`SampleTreeError::Disconnected`] or [`SampleTreeError::WeightRatio`].
///
/// # Panics
///
/// Panics if `walk_factor` is not positive or 64·n phases fail to cover
/// the graph (cannot happen for positive factors).
///
/// # Examples
///
/// ```
/// use cct_core::direction4_sample;
/// use cct_graph::generators;
/// use rand::SeedableRng;
///
/// let g = generators::complete(12);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let report = direction4_sample(&g, 1.0, &mut rng)?;
/// assert_eq!(report.tree.edges().len(), 11);
/// # Ok::<(), cct_core::SampleTreeError>(())
/// ```
pub fn direction4_sample<R: Rng + ?Sized>(
    g: &Graph,
    walk_factor: f64,
    rng: &mut R,
) -> Result<Direction4Report, SampleTreeError> {
    assert!(walk_factor > 0.0, "walk_factor must be positive");
    validate(g)?;
    let n = g.n();
    let mut clique = Clique::new(n);
    if n == 1 {
        return Ok(Direction4Report {
            tree: SpanningTree::new(1, Vec::new()).expect("trivial"),
            rounds: RoundLedger::new(),
            phases: 0,
            new_per_phase: Vec::new(),
        });
    }
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut vf = 0usize;
    let mut edges = Vec::with_capacity(n - 1);
    let mut new_per_phase = Vec::new();
    let mut remaining = n - 1;
    let mut phases = 0usize;
    while remaining > 0 {
        phases += 1;
        assert!(
            phases <= 64 * n,
            "phase cap exceeded — walk_factor too small?"
        );
        let s_vertices: Vec<usize> = (0..n)
            .filter(|&v| !visited[v])
            .chain(std::iter::once(vf))
            .collect();
        let s = VertexSubset::new(n, &s_vertices);

        // Derivative graphs. Phase 1: S = V, the walk is on G itself and
        // the shortcut matrix is the identity (`None`).
        let (phase_graph, q) = if s.len() == n {
            (g.clone(), None)
        } else {
            // Same charging rule as the main sampler. Direction 4 exists
            // to *remove* the per-phase matmul of the walk itself, not of
            // the Schur construction (the paper's Direction 1 discusses
            // that).
            let rounds = schur_rounds(n, FastOracleEngine::default().rounds_per_multiply(n));
            clique.ledger_mut().charge(CostCategory::MatMul, rounds);
            let h = schur_graph(g, &s).expect("Schur of a Laplacian is a graph");
            (h, Some(shortcut_exact(g, &s)))
        };
        let q_at = |a: usize, b: usize| q.as_ref().map_or(f64::from(a == b), |q| q[(a, b)]);

        // One doubling walk of length ~ walk_factor·|S| on the phase
        // graph, run on a |S|-machine sub-clique (machines hosting S).
        let tau = ((walk_factor * s.len() as f64).ceil() as u64).max(2);
        let mut sub = Clique::new(phase_graph.n().max(2));
        let start_local = if s.len() == n {
            vf
        } else {
            s.local_index(vf).expect("vf ∈ S")
        };
        if phase_graph.n() == 1 {
            break; // nothing left to walk to (cannot happen: remaining > 0)
        }
        let (walks, _) = doubling_walks(
            &mut sub,
            &phase_graph,
            tau,
            Balancing::Balanced { c: 1 },
            rng,
        );
        clique.ledger_mut().merge(sub.ledger());
        let walk = &walks[start_local];

        // Algorithm 4 on first visits (global ids), billed as the main
        // sampler bills it: 3 rounds per phase and 2 + 2·deg(v) words per
        // new vertex v. Locally, wdeg_S is one O(m) pass per phase.
        clique.ledger_mut().charge(CostCategory::FirstVisit, 3);
        let wdeg_s = subset_wdeg(g, &s);
        let to_global = |local: usize| if s.len() == n { local } else { s.global(local) };
        let mut fresh = 0usize;
        for w in walk.windows(2) {
            let (prev, v) = (to_global(w[0]), to_global(w[1]));
            if visited[v] {
                continue;
            }
            let (u, vv) = sample_first_visit_edge(g, &wdeg_s, q_at, prev, v, rng).ok_or(
                SampleTreeError::Phase(crate::phase::PhaseError::DegenerateDistribution),
            )?;
            edges.push((u, vv));
            clique
                .ledger_mut()
                .add_words(CostCategory::FirstVisit, 2 + 2 * g.num_neighbors(v) as u64);
            visited[v] = true;
            remaining -= 1;
            fresh += 1;
            if remaining == 0 {
                break;
            }
        }
        new_per_phase.push(fresh);
        vf = to_global(*walk.last().expect("non-empty walk"));
    }
    Ok(Direction4Report {
        tree: SpanningTree::new(n, edges).expect("first-visit edges span"),
        rounds: clique.take_ledger(),
        phases,
        new_per_phase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_graph::generators;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn produces_valid_trees() {
        let mut r = rng(1);
        for g in [
            generators::complete(12),
            generators::petersen(),
            generators::grid(3, 4),
            generators::lollipop(6, 5),
            generators::k_dense_irregular(12),
        ] {
            let report = direction4_sample(&g, 1.0, &mut r).unwrap();
            assert_eq!(report.tree.n(), g.n());
            for &(u, v) in report.tree.edges() {
                assert!(g.has_edge(u, v));
            }
            assert_eq!(report.new_per_phase.iter().sum::<usize>(), g.n() - 1);
            assert!(report.rounds.total_rounds() > 0);
        }
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut r = rng(2);
        assert!(matches!(
            direction4_sample(&g, 1.0, &mut r),
            Err(SampleTreeError::Disconnected)
        ));
    }

    #[test]
    fn uniform_on_k4() {
        use cct_walks::stats;
        let g = generators::complete(4);
        let exact = cct_graph::spanning_tree_distribution(&g);
        let mut r = rng(3);
        let trials = 10_000;
        let counts = stats::empirical_counts(
            (0..trials).map(|_| direction4_sample(&g, 1.0, &mut r).unwrap().tree),
        );
        let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn uniform_on_weighted_triangle() {
        use cct_walks::stats;
        let g = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap();
        let exact = cct_graph::spanning_tree_distribution(&g);
        let mut r = rng(4);
        let trials = 10_000;
        let counts = stats::empirical_counts(
            (0..trials).map(|_| direction4_sample(&g, 2.0, &mut r).unwrap().tree),
        );
        let (stat, crit) = stats::goodness_of_fit(&counts, &exact, trials);
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn schur_phases_are_billed_like_the_main_sampler() {
        // Every phase after the first builds Schur(G, S) and pays
        // (4k + 1) multiplies at ⌈n^α⌉ rounds; phase 1 has S = V and no
        // Schur step. Nothing else in a Direction-4 run charges MatMul.
        // Algorithm 4 costs 3 rounds per phase and 2 + 2·deg(v) words per
        // newly visited vertex v — every vertex but the start, once.
        let g = generators::lollipop(12, 20);
        let n = g.n() as f64;
        let report = direction4_sample(&g, 1.0, &mut rng(6)).unwrap();
        assert!(report.phases >= 2, "{} phases", report.phases);
        let k = (3.0 * n.log2() + 6.0).ceil() as u64;
        let per_multiply = n.powf(cct_sim::ALPHA).ceil() as u64;
        assert_eq!(
            report.rounds.rounds(CostCategory::MatMul),
            (report.phases as u64 - 1) * (4 * k + 1) * per_multiply
        );
        assert_eq!(
            report.rounds.rounds(CostCategory::FirstVisit),
            3 * report.phases as u64
        );
        let words: u64 = (1..g.n()).map(|v| 2 + 2 * g.num_neighbors(v) as u64).sum();
        assert_eq!(report.rounds.words(CostCategory::FirstVisit), words);
    }

    #[test]
    fn phase_count_scales_sublinearly() {
        // Length-|S| walks harvest ≫ 1 vertex per phase, so phases ≪ n.
        let mut r = rng(5);
        let g = generators::random_regular(64, 4, &mut r);
        let report = direction4_sample(&g, 1.0, &mut r).unwrap();
        assert!(
            report.phases <= 24,
            "{} phases for n = 64 — harvest too small",
            report.phases
        );
    }
}
