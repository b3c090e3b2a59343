//! The load-balanced doubling algorithm (§3) and its unbalanced \[7\]
//! ablation.
//!
//! To build length-`τ` walks from every vertex, each vertex starts with
//! `k = 2^⌈log₂ τ⌉` length-1 walks; every iteration pairs prefix walks
//! with suffix walks (index `i` merges with index `k−i+1`, the
//! Bahmani–Chakrabarti–Xin index-based merging), halving the count and
//! doubling the length. The paper's contribution is the *load balancing*:
//! tuples are routed through an `8c log n`-wise independent hash so that
//! every machine receives `O(k log n)` tuples w.h.p. (Lemma 10), instead
//! of the `Ω(nk)` a hub vertex receives in the direct scheme.

use crate::TWiseHash;
use cct_graph::Graph;
use cct_sim::{Clique, CostCategory, Envelope};
use cct_walks::{random_step, SampleError};
use rand::Rng;

/// Routed walk segment: (origin machine, segment index, walk vertices).
type Segment = (usize, usize, Vec<usize>);
/// Merged walk addressed to its origin: (origin machine, walk vertices).
type MergedWalk = (usize, Vec<usize>);

/// Which merging-traffic routing to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balancing {
    /// §3: hash-based load balancing (Theorem 2 / Lemma 10).
    Balanced {
        /// The constant `c` in `t = 8c log n`.
        c: usize,
    },
    /// The direct scheme of \[7\]: prefixes travel to the endpoint's own
    /// machine. Correct, but hub vertices melt (experiment E6).
    Naive,
}

/// Per-iteration load measurements.
#[derive(Debug, Clone, Default)]
pub struct DoublingStats {
    /// Max tuples received by any machine, per iteration (Lemma 10's
    /// quantity).
    pub max_tuples_recv: Vec<u64>,
    /// Max words received by any machine, per iteration.
    pub max_words_recv: Vec<u64>,
    /// Walk-length parameter `k` at the start of each iteration.
    pub k_values: Vec<u64>,
}

/// Runs the doubling algorithm on the clique: every vertex ends up with
/// one random walk of length `k₀ = 2^⌈log₂ τ⌉ ≥ τ` starting at itself.
///
/// Each walk is marginally a correct random walk (walks of different
/// vertices are correlated — the price of index-based merging, as the
/// paper notes). Rounds are charged from the *measured* routed loads.
///
/// # Panics
///
/// Panics if `tau == 0`, the clique size differs from `g.n()`, or the
/// graph has an isolated vertex.
pub fn doubling_walks<R: Rng + ?Sized>(
    clique: &mut Clique,
    g: &Graph,
    tau: u64,
    balancing: Balancing,
    rng: &mut R,
) -> (Vec<Vec<usize>>, DoublingStats) {
    let n = g.n();
    assert_eq!(clique.n(), n, "clique size must match graph");
    assert!(tau >= 1, "tau must be positive");
    let k0 = tau.next_power_of_two() as usize;

    // Initialization: vertex v holds k₀ length-1 walks (random edges).
    let mut walks: Vec<Vec<Vec<usize>>> = (0..n)
        .map(|v| (0..k0).map(|_| vec![v, random_step(g, v, rng)]).collect())
        .collect();

    let mut stats = DoublingStats::default();
    let mut k = k0;
    while k > 1 {
        stats.k_values.push(k as u64);
        // Step 1: machine 1 broadcasts the hash seed (O(log² n) bits).
        let hash = match balancing {
            Balancing::Balanced { c } => {
                let t = TWiseHash::paper_t(n, c);
                let seed = rng.gen::<u64>();
                // The O(log² n)-bit string s is broadcast word by word
                // (O(1) rounds via the two-step pattern); every machine
                // reconstructs the same hash function from it.
                let mut words = vec![0u64; t.div_ceil(4).max(1)];
                words[0] = seed;
                let broadcast = clique.broadcast(CostCategory::Doubling, 0, words, 1);
                Some(TWiseHash::from_seed(broadcast[0], t, n))
            }
            Balancing::Naive => None,
        };

        // Steps 2–3: route prefix and suffix tuples.
        // Tuple payload: (origin, index, walk). 0-based: prefix indices
        // 0..k/2 pair with suffix indices k−1−i.
        let words = walks[0][0].len() + 2;
        let mut outboxes: Vec<Vec<Envelope<Segment>>> = (0..n).map(|_| Vec::new()).collect();
        for (v, vw) in walks.iter_mut().enumerate() {
            // Drain this iteration's walks; they are re-filled below.
            let drained: Vec<Vec<usize>> = std::mem::take(vw);
            for (i, w) in drained.into_iter().enumerate() {
                let dest = if i < k / 2 {
                    let end = *w.last().expect("non-empty walk");
                    match &hash {
                        Some(h) => h.hash(end, k - 1 - i),
                        None => end,
                    }
                } else {
                    match &hash {
                        Some(h) => h.hash(v, i),
                        None => v,
                    }
                };
                outboxes[v].push(Envelope::new(dest, words, (v, i, w)));
            }
        }
        record_loads(&outboxes, n, &mut stats);
        let inboxes = clique.route(CostCategory::Doubling, outboxes);

        // Step 4: merge prefix i (ending at v) with suffix k−1−i of v.
        let mut outboxes: Vec<Vec<Envelope<MergedWalk>>> = (0..n).map(|_| Vec::new()).collect();
        for (machine, inbox) in inboxes.into_iter().enumerate() {
            let mut suffixes: std::collections::HashMap<(usize, usize), Vec<usize>> =
                std::collections::HashMap::new();
            let mut prefixes: Vec<(usize, usize, Vec<usize>)> = Vec::new();
            for env in inbox {
                let (origin, idx, walk) = env.payload;
                if idx < k / 2 {
                    prefixes.push((origin, idx, walk));
                } else {
                    suffixes.insert((origin, idx), walk);
                }
            }
            for (origin, idx, prefix) in prefixes {
                let end = *prefix.last().expect("non-empty walk");
                let suffix = suffixes
                    .get(&(end, k - 1 - idx))
                    .expect("consistent hashing delivers the matching suffix");
                let mut merged = prefix;
                merged.extend_from_slice(&suffix[1..]);
                let out_words = merged.len() + 1;
                outboxes[machine].push(Envelope::new(origin, out_words, (idx, merged)));
            }
        }
        let inboxes = clique.route(CostCategory::Doubling, outboxes);

        // Step 5: walks come home; the iteration halves the count.
        for vw in &mut walks {
            vw.resize(k / 2, Vec::new());
        }
        for (machine, inbox) in inboxes.into_iter().enumerate() {
            for env in inbox {
                let (idx, merged) = env.payload;
                walks[machine][idx] = merged;
            }
        }
        k /= 2;
    }

    let final_walks: Vec<Vec<usize>> = walks
        .into_iter()
        .map(|mut vw| vw.pop().expect("one walk per vertex remains"))
        .collect();
    (final_walks, stats)
}

fn record_loads<T>(outboxes: &[Vec<Envelope<T>>], n: usize, stats: &mut DoublingStats) {
    let mut tuples = vec![0u64; n];
    let mut words = vec![0u64; n];
    for outbox in outboxes {
        for env in outbox {
            tuples[env.to] += 1;
            words[env.to] += env.words as u64;
        }
    }
    stats
        .max_tuples_recv
        .push(tuples.iter().copied().max().unwrap_or(0));
    stats
        .max_words_recv
        .push(words.iter().copied().max().unwrap_or(0));
}

/// Lemma 10's high-probability bound on tuples received per machine:
/// `16·c·k·log₂ n`.
pub fn lemma10_bound(n: usize, k: u64, c: usize) -> u64 {
    let log_n = (usize::BITS - n.max(2).leading_zeros()) as u64;
    16 * c as u64 * k * log_n
}

/// Corollary 1: samples a spanning tree by Aldous–Broder over a walk
/// assembled from doubling segments of length `≈ segment_factor·n·log₂ n`
/// each. Segments continue from the previous endpoint (one continuous
/// walk), so the tree is exactly weighted-uniform.
///
/// Returns the tree and the number of segments used.
///
/// # Errors
///
/// [`SampleError::Disconnected`] for a disconnected graph (its cover
/// time is infinite), and [`SampleError::StepCapExhausted`] when
/// `max_segments` segments leave a vertex unvisited (raise it for
/// graphs with cover time ≫ `n log n`); the cap reported is the steps
/// those segments walked.
pub fn sample_tree_via_doubling<R: Rng + ?Sized>(
    clique: &mut Clique,
    g: &Graph,
    segment_factor: f64,
    max_segments: u32,
    rng: &mut R,
) -> Result<(cct_graph::SpanningTree, u32), SampleError> {
    let n = g.n();
    if !g.is_connected() {
        return Err(SampleError::Disconnected);
    }
    if n == 1 {
        return Ok((
            cct_graph::SpanningTree::new(1, Vec::new()).expect("trivial"),
            0,
        ));
    }
    let seg_len = ((segment_factor * n as f64 * (n as f64).log2()).ceil() as u64).max(2);
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut remaining = n - 1;
    let mut edges = Vec::with_capacity(n - 1);
    let mut cur = 0usize;
    let mut segments = 0u32;
    while remaining > 0 {
        if segments == max_segments {
            // Each segment walks seg_len rounded up to a power of two.
            let cap = u64::from(max_segments).saturating_mul(seg_len.next_power_of_two());
            return Err(SampleError::StepCapExhausted { cap });
        }
        // One doubling run; only the walk of the current endpoint is
        // consumed, so the cross-vertex correlations are irrelevant.
        let (walks, _) = doubling_walks(clique, g, seg_len, Balancing::Balanced { c: 1 }, rng);
        let walk = &walks[cur];
        for w in walk.windows(2) {
            if !visited[w[1]] {
                visited[w[1]] = true;
                remaining -= 1;
                edges.push((w[0], w[1]));
                if remaining == 0 {
                    break;
                }
            }
        }
        cur = *walk.last().expect("non-empty walk");
        segments += 1;
    }
    Ok((
        cct_graph::SpanningTree::new(n, edges).expect("first-visit edges span"),
        segments,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_graph::generators;
    use cct_walks::{is_valid_walk, stats as wstats};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn walks_are_valid_and_correct_length() {
        let g = generators::petersen();
        let mut clique = Clique::new(10);
        let mut r = rng(1);
        for balancing in [Balancing::Balanced { c: 1 }, Balancing::Naive] {
            let (walks, stats) = doubling_walks(&mut clique, &g, 13, balancing, &mut r);
            assert_eq!(walks.len(), 10);
            for (v, w) in walks.iter().enumerate() {
                assert_eq!(w[0], v, "walk must start at its vertex");
                assert_eq!(w.len(), 17, "16 steps = next_power_of_two(13) + 1 vertices");
                assert!(is_valid_walk(&g, w));
            }
            assert_eq!(stats.k_values.len(), 4); // log2(16) iterations
        }
    }

    #[test]
    fn tau_one_needs_no_merging() {
        let g = generators::complete(4);
        let mut clique = Clique::new(4);
        let mut r = rng(2);
        let (walks, stats) = doubling_walks(&mut clique, &g, 1, Balancing::Naive, &mut r);
        assert!(stats.k_values.is_empty());
        assert!(walks.iter().all(|w| w.len() == 2));
    }

    /// Exact distribution over complete `len`-step walks from `start`.
    fn exact_walks(g: &Graph, start: usize, len: usize) -> Vec<(Vec<usize>, f64)> {
        let p = g.transition_matrix();
        let mut out = Vec::new();
        fn rec(
            p: &cct_linalg::Matrix,
            walk: &mut Vec<usize>,
            pr: f64,
            left: usize,
            out: &mut Vec<(Vec<usize>, f64)>,
        ) {
            if left == 0 {
                out.push((walk.clone(), pr));
                return;
            }
            let u = *walk.last().unwrap();
            for v in 0..p.rows() {
                if p[(u, v)] > 0.0 {
                    walk.push(v);
                    rec(p, walk, pr * p[(u, v)], left - 1, out);
                    walk.pop();
                }
            }
        }
        rec(&p, &mut vec![start], 1.0, len, &mut out);
        out
    }

    #[test]
    fn merged_walk_is_marginally_exact() {
        // The walk held by vertex 0 after two doubling iterations must be
        // distributed exactly as a direct 4-step random walk. This is the
        // correctness core of index-based merging.
        let g = cct_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        let exact = exact_walks(&g, 0, 4);
        for balancing in [Balancing::Balanced { c: 1 }, Balancing::Naive] {
            let mut r = rng(3);
            let trials = 30_000;
            let counts = wstats::empirical_counts((0..trials).map(|_| {
                let mut clique = Clique::new(4);
                doubling_walks(&mut clique, &g, 4, balancing, &mut r).0[0].clone()
            }));
            let (stat, crit) = wstats::goodness_of_fit(&counts, &exact, trials);
            assert!(stat < crit, "{balancing:?}: chi² = {stat:.1} ≥ {crit:.1}");
        }
    }

    #[test]
    fn lemma10_load_bound_holds_on_star() {
        // The star is the load-balancing worst case: every walk ends at
        // the hub half the time. Balanced loads must respect Lemma 10.
        let n = 64;
        let g = generators::star(n);
        let mut clique = Clique::new(n);
        let mut r = rng(4);
        let (_, stats) = doubling_walks(
            &mut clique,
            &g,
            n as u64,
            Balancing::Balanced { c: 1 },
            &mut r,
        );
        for (it, (&max_tuples, &k)) in stats
            .max_tuples_recv
            .iter()
            .zip(&stats.k_values)
            .enumerate()
        {
            let bound = lemma10_bound(n, k, 1);
            assert!(
                max_tuples <= bound,
                "iteration {it}: {max_tuples} tuples > bound {bound}"
            );
        }
    }

    #[test]
    fn naive_doubling_overloads_the_hub() {
        // E6's headline: on the star, the hub receives Θ(n·k) tuples in
        // the first naive iteration versus O(k log n) balanced.
        let n = 64;
        let g = generators::star(n);
        let mut r = rng(5);
        let mut c1 = Clique::new(n);
        let (_, naive) = doubling_walks(&mut c1, &g, n as u64, Balancing::Naive, &mut r);
        let mut c2 = Clique::new(n);
        let (_, balanced) =
            doubling_walks(&mut c2, &g, n as u64, Balancing::Balanced { c: 1 }, &mut r);
        assert!(
            naive.max_tuples_recv[0] >= 4 * balanced.max_tuples_recv[0],
            "naive {} vs balanced {}",
            naive.max_tuples_recv[0],
            balanced.max_tuples_recv[0]
        );
        // And the measured rounds reflect it.
        assert!(c1.ledger().total_rounds() > c2.ledger().total_rounds());
    }

    #[test]
    fn rounds_scale_with_tau_over_n() {
        // Theorem 2, long-walk regime: rounds grow roughly linearly in
        // τ/n once τ ≫ n.
        let n = 32;
        let g = generators::random_regular(n, 4, &mut rng(6));
        let mut rounds = Vec::new();
        for tau in [n as u64, 4 * n as u64, 16 * n as u64] {
            let mut clique = Clique::new(n);
            let mut r = rng(7);
            let _ = doubling_walks(&mut clique, &g, tau, Balancing::Balanced { c: 1 }, &mut r);
            rounds.push(clique.ledger().total_rounds());
        }
        assert!(rounds[1] > rounds[0]);
        assert!(
            rounds[2] > 2 * rounds[1],
            "16× τ must cost ≫ 2× the 4× τ rounds"
        );
    }

    #[test]
    fn corollary1_tree_is_valid_on_expander() {
        let n = 24;
        let g = generators::random_regular(n, 4, &mut rng(8));
        let mut clique = Clique::new(n);
        let mut r = rng(9);
        let (tree, segments) = sample_tree_via_doubling(&mut clique, &g, 2.0, 50, &mut r).unwrap();
        assert_eq!(tree.n(), n);
        for &(u, v) in tree.edges() {
            assert!(g.has_edge(u, v));
        }
        assert!(segments >= 1);
    }

    #[test]
    fn corollary1_tree_is_uniform_on_k4() {
        let g = generators::complete(4);
        let exact = cct_graph::spanning_tree_distribution(&g);
        let mut r = rng(10);
        let trials = 10_000;
        let counts = wstats::empirical_counts((0..trials).map(|_| {
            let mut clique = Clique::new(4);
            sample_tree_via_doubling(&mut clique, &g, 2.0, 200, &mut r)
                .unwrap()
                .0
        }));
        let (stat, crit) = wstats::goodness_of_fit(&counts, &exact, trials);
        assert!(stat < crit, "chi² = {stat:.1} ≥ {crit:.1}");
    }

    #[test]
    fn exhausted_segment_budget_and_disconnected_inputs_are_errors() {
        // One 2-step segment cannot cover a 32-vertex path.
        let g = generators::path(32);
        let mut clique = Clique::new(32);
        let result = sample_tree_via_doubling(&mut clique, &g, 0.01, 1, &mut rng(12));
        assert_eq!(result.err(), Some(SampleError::StepCapExhausted { cap: 2 }));
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut clique = Clique::new(4);
        let result = sample_tree_via_doubling(&mut clique, &g, 2.0, 50, &mut rng(13));
        assert_eq!(result.err(), Some(SampleError::Disconnected));
    }

    #[test]
    fn dense_irregular_graph_covers_quickly() {
        // K_{n−√n,√n} has O(n log n) cover time (§1.2): few segments.
        let g = generators::k_dense_irregular(25);
        let mut clique = Clique::new(25);
        let mut r = rng(11);
        let (tree, segments) = sample_tree_via_doubling(&mut clique, &g, 2.0, 60, &mut r).unwrap();
        assert_eq!(tree.n(), 25);
        assert!(segments <= 20, "took {segments} segments");
    }
}
