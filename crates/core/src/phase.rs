//! One phase of the distributed sampler (Outline 3): the top-down
//! truncated walk on the phase graph, built level by level with
//! distributed midpoint generation (Algorithm 2), distributed binary
//! search for the truncation point (Algorithm 3), and matching-based
//! midpoint placement (§2.1.3 / Lemma 3). The leader-local and streamed
//! routes instead walk step by step, through one shared loop.
//!
//! A Schur-route phase walks in its **local** ids: the phase matrix is the `|S| × |S|`
//! Schur transition, row `i` being vertex `s.global(i)`. `s.list()` is
//! sorted, so local order is global order and every row scan, sample and
//! matching sees its candidates in the order global ids would give. The
//! sampler maps `first_visits` and `last` back through `s.global()` once
//! per phase ([`PhaseWalkResult::into_global`]). Round charges stay those
//! of the `n`-machine clique: the distributed protocol works on the
//! `n × n` `diag(T, I)`, whose powers restrict to the `S` block, and the
//! phase's [`cct_sim::BlockEngine`] bills its products at `n`.

use crate::config::{Placement, SamplerConfig, Variant};
use crate::report::PhaseMethod;
use cct_linalg::{sample_index, PMatrix};
use cct_matching::{
    sample_per_group_shuffle, Assignment, ExactPermanentSampler, MatchingInstance,
    SwapChainSampler, MAX_EXACT_SLOTS,
};
use cct_schur::VertexSubset;
use cct_sim::{machine_seed, par_map, Clique, CostCategory, DeferredPowers, MatMulEngine};
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Error surfaced by the phase machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseError {
    /// A conditional distribution had no support — inconsistent power
    /// table (can only happen with extreme fixed-point truncation).
    DegenerateDistribution,
    /// The materialized partial walk exceeded the configured cap (the
    /// caller falls back to leader-local simulation).
    GridCapExceeded,
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseError::DegenerateDistribution => {
                write!(
                    f,
                    "midpoint distribution lost all support (precision too low)"
                )
            }
            PhaseError::GridCapExceeded => write!(f, "partial walk exceeded the grid cap"),
        }
    }
}

impl std::error::Error for PhaseError {}

/// What a phase walk produced.
#[derive(Debug, Clone)]
pub(crate) struct PhaseWalkResult {
    /// `(v, prev)` for each newly visited vertex, chronological, in the
    /// ids of the matrix the phase walked on. `prev` is the walk vertex
    /// immediately before `v`'s first visit (Algorithm 4's `W[i−1]`).
    pub first_visits: Vec<(usize, usize)>,
    /// Final vertex of the phase walk.
    pub last: usize,
    /// Steps taken.
    pub tau: u64,
    /// Distinct vertices in the phase walk.
    pub distinct: usize,
    /// Whether the `ρ` budget was met.
    pub reached: bool,
    /// Las Vegas extensions used.
    pub extensions: u32,
    /// Final target length after extensions.
    pub ell_final: u64,
    /// Words a verbatim `Π` shipment would have cost the leader (E12).
    pub pi_words: u64,
    /// Words actually received for placement.
    pub placement_words: u64,
    /// Which machinery generated the walk.
    pub method: PhaseMethod,
}

impl PhaseWalkResult {
    fn from_walk(
        walk: &[usize],
        rho: usize,
        extensions: u32,
        ell_final: u64,
        pi_words: u64,
        placement_words: u64,
        method: PhaseMethod,
    ) -> Self {
        let mut seen = HashSet::new();
        let mut first_visits = Vec::new();
        seen.insert(walk[0]);
        for w in walk.windows(2) {
            if seen.insert(w[1]) {
                first_visits.push((w[1], w[0]));
            }
        }
        PhaseWalkResult {
            first_visits,
            last: *walk.last().expect("non-empty walk"),
            tau: (walk.len() - 1) as u64,
            distinct: seen.len(),
            reached: seen.len() >= rho,
            extensions,
            ell_final,
            pi_words,
            placement_words,
            method,
        }
    }

    /// Maps the walk's vertices from the phase's local ids to global ids.
    pub(crate) fn into_global(mut self, s: &VertexSubset) -> Self {
        for (v, prev) in &mut self.first_visits {
            *v = s.global(*v);
            *prev = s.global(*prev);
        }
        self.last = s.global(self.last);
        self
    }
}

/// The phase's power table: a borrowed *lazy* base (the prepared
/// phase-1 cache or this phase's freshly built [`DeferredPowers`] —
/// never cloned) plus the transient levels Las Vegas extensions append
/// per walk. Splitting the two keeps phase 1 allocation-free for the
/// common no-extension draw.
///
/// The base is a [`DeferredPowers`] table: its distributed-construction
/// cost was charged in full when it was built (the charge-up-front
/// contract), and reading `level(k)` here materializes the level's
/// *numeric* content on demand, memoized, up to the table's settled
/// level, which stands for every level above it. A phase that never
/// touches the high levels (small `τ`, early truncation, or the
/// out-of-core route skipping the table entirely), or whose table
/// settles, therefore never pays their `Θ(n²)`-or-`Θ(nnz)` storage —
/// while the ledger stays bit-identical to an eager build.
pub(crate) struct PowerTable<'a> {
    base: &'a DeferredPowers,
    extra: Vec<PMatrix>,
}

impl<'a> PowerTable<'a> {
    /// Wraps a borrowed base table.
    pub(crate) fn new(base: &'a DeferredPowers) -> Self {
        PowerTable {
            base,
            extra: Vec::new(),
        }
    }

    /// Level `k` holds `T^{2^k}`, materializing deferred base levels on
    /// first access.
    pub(crate) fn level(&self, k: usize) -> &PMatrix {
        if k < self.base.len() {
            self.base.level(k)
        } else {
            &self.extra[k - self.base.len()]
        }
    }

    /// Total levels (base + extensions).
    pub(crate) fn len(&self) -> usize {
        self.base.len() + self.extra.len()
    }

    /// The highest level.
    pub(crate) fn last(&self) -> &PMatrix {
        self.level(self.len() - 1)
    }

    /// Appends an extension level.
    pub(crate) fn push(&mut self, m: PMatrix) {
        self.extra.push(m);
    }
}

/// Leader-local walk generation after collecting the `|S| × |S|`
/// transition matrix `t0` — used when `|S| ≤ ρ` (final phases; the matrix
/// fits in the same `O(1)`-round budget as the paper's submatrix
/// collection) and as the fallback for degenerate bipartite phase graphs
/// and for top-down walks past the grid cap. Every vertex the walk has
/// not yet seen counts toward `rho`.
pub(crate) fn direct_local_phase<R: Rng + ?Sized>(
    clique: &mut Clique,
    t0: &PMatrix,
    start: usize,
    rho: usize,
    ell: u64,
    variant: Variant,
    rng: &mut R,
) -> Result<PhaseWalkResult, PhaseError> {
    // Leader collects the whole phase matrix.
    let words = (t0.rows() * t0.rows()) as u64;
    let rounds = Clique::rounds_for_load(clique.n(), words);
    let ledger = clique.ledger_mut();
    ledger.charge(CostCategory::Gather, rounds);
    ledger.add_words(CostCategory::Gather, words);
    let mut seen = HashSet::from([start]);
    let is_new = |v| seen.insert(v);
    let walk = local_walk(t0, start, rho, ell, variant, u64::MAX, is_new, rng)?;
    Ok(PhaseWalkResult {
        placement_words: words,
        ..walk
    })
}

/// The out-of-core phase route: the walk runs step by step on `G`
/// itself (the original transition matrix `P`, never a Schur
/// complement), skipping over globally visited vertices' budgets and
/// recording each unvisited vertex's actual entry edge directly — the
/// Aldous–Broder rule applied verbatim. Nothing `Θ(n²)` (or even
/// `Θ(n)`) is allocated per phase: state is the walk head, the phase's
/// new-vertex set, and the recorded edges.
///
/// Cost model: the walk token moves one edge per round (charged under
/// [`CostCategory::Routing`]) — this route trades the paper's sublinear
/// round bound for a memory footprint independent of `ℓ`, which is the
/// point of the out-of-core regime. Monte Carlo failure semantics are
/// unchanged: exhausting `ell` (or the safety `step_cap`) without
/// meeting `rho` reports `reached = false` and the caller emits the
/// flagged arbitrary tree. Las Vegas keeps doubling its budget and
/// walks until the budget is met (no table to extend — extensions are
/// free of matrix work here).
#[allow(clippy::too_many_arguments)]
pub(crate) fn streamed_local_phase<R: Rng + ?Sized>(
    clique: &mut Clique,
    p: &PMatrix,
    visited: &[bool],
    start: usize,
    rho: usize,
    ell: u64,
    variant: Variant,
    step_cap: u64,
    rng: &mut R,
) -> Result<PhaseWalkResult, PhaseError> {
    // `start` (= v_f) counts once toward the phase budget, exactly as
    // the matrix phases count the walk's first vertex; other globally
    // visited vertices the walk passes through do not count, mirroring
    // the Schur complement shortcutting them out of the phase graph.
    let mut seen_new: HashSet<usize> = HashSet::new();
    let is_new = |v: usize| !visited[v] && seen_new.insert(v);
    let walk = local_walk(p, start, rho, ell, variant, step_cap, is_new, rng)?;
    let ledger = clique.ledger_mut();
    ledger.charge(CostCategory::Routing, walk.tau.max(1));
    ledger.add_words(CostCategory::Routing, walk.tau);
    Ok(PhaseWalkResult {
        method: PhaseMethod::StreamedLocal,
        ..walk
    })
}

/// The step-by-step walk of the leader-local and streamed routes: from
/// `start`, sample rows of `t` until `start` plus the vertices `is_new`
/// accepts number `rho`, recording each new vertex with its
/// predecessor. On running past the budget `ell`, Monte Carlo stops
/// unreached and Las Vegas doubles the budget; Monte Carlo also stops
/// after `step_cap` steps. The result is labelled leader-local with no
/// placement words; the callers charge the ledger and amend the rest.
#[allow(clippy::too_many_arguments)]
fn local_walk<R: Rng + ?Sized>(
    t: &PMatrix,
    start: usize,
    rho: usize,
    ell: u64,
    variant: Variant,
    step_cap: u64,
    mut is_new: impl FnMut(usize) -> bool,
    rng: &mut R,
) -> Result<PhaseWalkResult, PhaseError> {
    let mut first_visits: Vec<(usize, usize)> = Vec::new();
    let mut cur = start;
    let mut tau = 0u64;
    let mut budget = ell;
    let mut extensions = 0u32;
    let reached = loop {
        if first_visits.len() + 1 >= rho {
            break true;
        }
        if tau >= budget {
            match variant {
                Variant::MonteCarlo => break false,
                Variant::LasVegas => {
                    budget = budget.saturating_mul(2);
                    extensions += 1;
                }
            }
        }
        if variant == Variant::MonteCarlo && tau >= step_cap {
            break false; // safety net for astronomically large ℓ
        }
        let next = t
            .sample_row(rng, cur)
            .ok_or(PhaseError::DegenerateDistribution)?;
        tau += 1;
        if is_new(next) {
            first_visits.push((next, cur));
        }
        cur = next;
    };
    Ok(PhaseWalkResult {
        distinct: first_visits.len() + 1,
        first_visits,
        last: cur,
        tau,
        reached,
        extensions,
        ell_final: budget,
        pi_words: 0,
        placement_words: 0,
        method: PhaseMethod::DirectLocal,
    })
}

/// Returns `true` if the phase graph `t0` is bipartite with the start
/// vertex's side smaller than `rho` — the degenerate case where the
/// even-granularity levels of the top-down filling can never reach the
/// distinct-vertex budget and the partial walk would balloon.
pub(crate) fn is_degenerate_bipartite(t0: &PMatrix, start: usize, rho: usize) -> bool {
    let n = t0.rows();
    // Undirected support graph: `u ~ v` iff either direction carries
    // mass above the threshold. One pass over the stored entries builds
    // the symmetric adjacency (sparse rows make this O(nnz), not O(n²));
    // the 2-coloring below is traversal-order independent, so this
    // computes exactly the answer of a dense double-sided scan.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for u in 0..n {
        t0.for_each_in_row(u, |v, val| {
            if val > 1e-15 {
                adj[u].push(v);
                if v != u {
                    adj[v].push(u);
                }
            }
        });
    }
    let mut color = vec![u8::MAX; n];
    color[start] = 0;
    let mut stack = vec![start];
    let mut side0 = 1usize;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if color[v] == u8::MAX {
                color[v] = 1 - color[u];
                if color[v] == 0 {
                    side0 += 1;
                }
                stack.push(v);
            } else if color[v] == color[u] {
                return false; // odd cycle (or self-loop): not bipartite
            }
        }
    }
    side0 < rho
}

/// The full distributed top-down truncated walk (Outline 3, steps 4–5),
/// including Las Vegas extensions. `powers.level(k)` must hold the phase
/// matrix's `T^{2^k}` for `k = 0 ..= log₂ ell`; the table is extended
/// (through the engine, charging rounds) when Las Vegas doubles `ℓ`.
/// `workers` is the resolved worker-pool width for the midpoint fan-out
/// (the sampler resolves one width for every parallel section).
#[allow(clippy::too_many_arguments)]
pub(crate) fn top_down_phase<R: Rng + ?Sized>(
    clique: &mut Clique,
    engine: &dyn MatMulEngine,
    powers: &mut PowerTable<'_>,
    start: usize,
    rho: usize,
    ell0: u64,
    config: &SamplerConfig,
    workers: usize,
    rng: &mut R,
) -> Result<PhaseWalkResult, PhaseError> {
    let mut preseen: HashSet<usize> = HashSet::new();
    let mut walk: Vec<usize> = Vec::new();
    let mut seg_start = start;
    let mut ell = ell0;
    let mut extensions = 0u32;
    let mut pi_words = 0u64;
    let mut placement_words = 0u64;
    loop {
        let seg = run_segment(
            clique,
            powers,
            seg_start,
            rho,
            ell,
            &preseen,
            config,
            workers,
            rng,
            &mut pi_words,
            &mut placement_words,
        )?;
        if walk.is_empty() {
            walk.extend_from_slice(&seg);
        } else {
            debug_assert_eq!(walk.last(), seg.first());
            walk.extend_from_slice(&seg[1..]);
        }
        preseen.extend(walk.iter().copied());
        if preseen.len() >= rho {
            break;
        }
        match config.variant {
            Variant::MonteCarlo => break,
            Variant::LasVegas => {
                // Appendix §5.1: double ℓ, sample a fresh endpoint from
                // the current end, continue the walk.
                seg_start = *walk.last().expect("non-empty");
                ell = ell.saturating_mul(2);
                extensions += 1;
                // Extend the power table by one squaring (charged).
                // Extensions land in the table's transient tail — the
                // borrowed base (e.g. the prepared phase-1 cache) is
                // never touched.
                let last = powers.last();
                let mut sq = engine.multiply(clique, last, last);
                sq.round_inplace(config.precision.rounding());
                powers.push(sq);
            }
        }
    }
    Ok(PhaseWalkResult::from_walk(
        &walk,
        rho,
        extensions,
        ell,
        pi_words,
        placement_words,
        PhaseMethod::TopDown,
    ))
}

/// Runs one target-length-`ell` segment of the top-down truncated walk,
/// returning the contiguous walk vertices.
#[allow(clippy::too_many_arguments)]
fn run_segment<R: Rng + ?Sized>(
    clique: &mut Clique,
    powers: &PowerTable<'_>,
    start: usize,
    rho: usize,
    ell: u64,
    preseen: &HashSet<usize>,
    config: &SamplerConfig,
    workers: usize,
    rng: &mut R,
    pi_words: &mut u64,
    placement_words: &mut u64,
) -> Result<Vec<usize>, PhaseError> {
    assert!(
        ell >= 2 && ell.is_power_of_two(),
        "ell must be a power of two ≥ 2"
    );
    let levels = ell.trailing_zeros() as usize;
    assert!(powers.len() > levels, "power table too short");
    let n = clique.n();

    // Step 4 of Outline 3: the leader samples W[ℓ] from T^ℓ[start, ·].
    let endpoint = powers
        .level(levels)
        .sample_row(rng, start)
        .ok_or(PhaseError::DegenerateDistribution)?;
    let mut grid: Vec<usize> = vec![start, endpoint];

    for level in 1..=levels {
        if grid.len() * 2 > config.max_grid_len {
            return Err(PhaseError::GridCapExceeded);
        }
        let th = powers.level(levels - level); // T^{δ/2}, δ = ell / 2^{level-1}

        // ── Algorithm 2: midpoint requests and generation. The leader
        // counts pair occurrences, designates machines M_{p,q} (at most
        // ρ² ≤ n distinct pairs since the partial walk has ≤ ρ distinct
        // vertices), and each M_{p,q} samples its sequence Π_{p,q} from
        // the distribution (T^{δ/2}[p,j]·T^{δ/2}[j,q])_j it acquires from
        // the row/column owners.
        let mut pair_ids: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut pair_of: Vec<usize> = Vec::with_capacity(grid.len() - 1);
        for w in grid.windows(2) {
            let key = (w[0], w[1]);
            let next_id = pair_ids.len();
            let id = *pair_ids.entry(key).or_insert(next_id);
            pair_of.push(id);
        }
        let pairs: Vec<(usize, usize)> = {
            let mut v: Vec<((usize, usize), usize)> =
                pair_ids.iter().map(|(&k, &id)| (k, id)).collect();
            v.sort_by_key(|&(_, id)| id);
            v.into_iter().map(|(k, _)| k).collect()
        };
        let num_pairs = pairs.len();
        // Leader scatters (p, q, c_{p,q}) requests: ≤ n words out of the
        // leader, one in per machine — 1 round by Lenzen routing.
        clique.ledger_mut().charge(
            CostCategory::Midpoints,
            Clique::rounds_for_load(n, 3 * num_pairs as u64),
        );
        clique
            .ledger_mut()
            .add_words(CostCategory::Midpoints, 3 * num_pairs as u64);
        // Each machine j sends T^{δ/2}[p,j]·T^{δ/2}[j,q] to M_{p,q} for
        // every pair: each machine sends ≤ num_pairs ≤ n words and each
        // M_{p,q} receives n — one round of Lenzen routing.
        clique.ledger_mut().charge(
            CostCategory::Midpoints,
            Clique::rounds_for_load(n, (num_pairs.max(n)) as u64),
        );
        clique
            .ledger_mut()
            .add_words(CostCategory::Midpoints, (num_pairs * n) as u64);

        // Generation: Π_{p,q} per pair. Each designated machine M_{p,q}
        // draws from its *own* stream, seeded hash(master, pair id) —
        // never dealt out of the caller's shared stream — so the pair
        // machines run concurrently on the worker pool and the sampled
        // sequences are identical at every worker count (the cct-sim
        // determinism contract). Draws across pairs stay independent.
        let mut pair_counts = vec![0usize; num_pairs];
        for &id in &pair_of {
            pair_counts[id] += 1;
        }
        let fan_seed: u64 = rng.gen();
        let sequences: Vec<Vec<usize>> = par_map(num_pairs, workers, |id| {
            let (p, q) = pairs[id];
            let weights: Vec<f64> = (0..th.rows())
                .map(|j| th.get(p, j) * th.get(j, q))
                .collect();
            let total: f64 = weights.iter().sum();
            if total.is_nan() || total <= 0.0 {
                return Vec::new(); // degenerate — detected below
            }
            let mut machine_rng =
                rand::rngs::StdRng::seed_from_u64(machine_seed(fan_seed, id as u64));
            let mut seq = Vec::with_capacity(pair_counts[id]);
            for _ in 0..pair_counts[id] {
                seq.push(sample_index(&mut machine_rng, &weights).expect("positive total"));
            }
            seq
        });
        if sequences
            .iter()
            .zip(&pair_counts)
            .any(|(seq, &count)| seq.len() != count)
        {
            return Err(PhaseError::DegenerateDistribution);
        }
        // Chronological midpoint values ("true" walk W⁺).
        let mut occ_so_far = vec![0usize; num_pairs];
        let mids: Vec<usize> = pair_of
            .iter()
            .map(|&id| {
                let v = sequences[id][occ_so_far[id]];
                occ_so_far[id] += 1;
                v
            })
            .collect();
        *pi_words += mids.len() as u64;

        // ── Algorithm 3: distributed binary search for the truncation
        // point over the merged index space (even = old entries, odd =
        // new midpoints).
        let merged_len = grid.len() + mids.len();
        let merged = |k: usize| -> usize {
            if k % 2 == 0 {
                grid[k / 2]
            } else {
                mids[(k - 1) / 2]
            }
        };
        let check = |t: usize| -> bool {
            // Dist: distinct vertices of preseen ∪ merged[0..=t]; the
            // prefix is truncatable iff Dist < ρ, or Dist == ρ with the
            // final vertex being the ρ-th distinct vertex's first
            // occurrence.
            let mut seen: HashSet<usize> = preseen.clone();
            let mut last_count = 0usize;
            let last = merged(t);
            for k in 0..=t {
                let v = merged(k);
                seen.insert(v);
                if v == last {
                    last_count += 1;
                }
                if seen.len() > rho {
                    return false;
                }
            }
            seen.len() < rho || (!preseen.contains(&last) && last_count == 1)
        };
        // check(0) always holds (Dist ≤ |preseen| + 1 ≤ ρ since the phase
        // continues only while the budget is unmet).
        let mut lo = 0usize;
        let mut hi = merged_len - 1;
        let mut checks = 0u64;
        if check(hi) {
            lo = hi;
            checks += 1;
        } else {
            checks += 1;
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if check(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
                checks += 1;
            }
        }
        let t_star = lo;
        // Each CheckTruncationPoint costs O(1) rounds: leader scatters
        // c_{p,q}(ℓ′) (1), pair machines send per-vertex counts (1),
        // vertex machines aggregate to the leader (1), plus the W⁺[ℓ′]
        // lookup (1).
        clique
            .ledger_mut()
            .charge(CostCategory::BinarySearch, 4 * checks);
        clique.ledger_mut().add_words(
            CostCategory::BinarySearch,
            checks * (num_pairs as u64 * (n as u64 + 1) + n as u64),
        );

        // ── Midpoint placement (§2.1.3 / §5.3 / oracle reference).
        let n_mids = t_star.div_ceil(2); // odd indices ≤ t_star
        let new_grid_len = t_star + 1;
        let placed: Vec<usize> = if n_mids == 0 {
            Vec::new()
        } else {
            place_midpoints(
                clique,
                th,
                &grid,
                &mids[..n_mids],
                &pair_of[..n_mids],
                &pairs,
                config,
                placement_words,
                rng,
            )?
        };
        let mut next_grid = Vec::with_capacity(new_grid_len);
        for k in 0..new_grid_len {
            if k % 2 == 0 {
                next_grid.push(grid[k / 2]);
            } else {
                next_grid.push(placed[(k - 1) / 2]);
            }
        }
        grid = next_grid;
    }
    Ok(grid)
}

/// Places the truncated prefix's midpoints according to the configured
/// strategy, returning the values for the odd merged indices in
/// chronological order. The chronologically final midpoint is always
/// placed exactly (Lemma 4's requirement).
#[allow(clippy::too_many_arguments)]
fn place_midpoints<R: Rng + ?Sized>(
    clique: &mut Clique,
    th: &PMatrix,
    grid: &[usize],
    mids: &[usize],
    pair_of: &[usize],
    pairs: &[(usize, usize)],
    config: &SamplerConfig,
    placement_words: &mut u64,
    rng: &mut R,
) -> Result<Vec<usize>, PhaseError> {
    let n_mids = mids.len();
    let n = clique.n();
    debug_assert!(n_mids >= 1);
    let final_value = mids[n_mids - 1];
    match config.placement {
        Placement::Oracle => {
            // Infinite-bandwidth reference: the leader receives every
            // Π_{p,q} verbatim (cost recorded, not affordable in the real
            // model).
            let words = n_mids as u64;
            *placement_words += words;
            clique
                .ledger_mut()
                .charge(CostCategory::Matching, Clique::rounds_for_load(n, words));
            clique.ledger_mut().add_words(CostCategory::Matching, words);
            Ok(mids.to_vec())
        }
        Placement::PerPairShuffle => {
            // Appendix §5.3: the leader receives each pair's own multiset
            // (the final midpoint separately) and shuffles within pairs.
            let rest = &mids[..n_mids - 1];
            let rest_pairs = &pair_of[..n_mids - 1];
            let num_groups = pairs.len();
            let mut group_slots: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
            for (&v, &g) in rest.iter().zip(rest_pairs) {
                group_slots[g].push(v);
            }
            let words: u64 = group_slots
                .iter()
                .map(|g| g.iter().collect::<HashSet<_>>().len() as u64)
                .sum::<u64>()
                + 1;
            *placement_words += words;
            clique
                .ledger_mut()
                .charge(CostCategory::Matching, Clique::rounds_for_load(n, words));
            clique.ledger_mut().add_words(CostCategory::Matching, words);
            let shuffled = sample_per_group_shuffle(group_slots, rng);
            Ok(reassemble(rest_pairs, shuffled, final_value))
        }
        Placement::Matching => {
            // §2.1.3: multiset + final midpoint to the leader; weighted
            // perfect matching between M∖{m_f} and the remaining
            // positions.
            let rest = &mids[..n_mids - 1];
            let rest_pairs = &pair_of[..n_mids - 1];
            if rest.is_empty() {
                *placement_words += 1;
                clique.ledger_mut().charge(CostCategory::Matching, 1);
                return Ok(vec![final_value]);
            }
            // Distinct values and multiplicities.
            let mut value_ids: BTreeMap<usize, usize> = BTreeMap::new();
            for &v in rest {
                let next = value_ids.len();
                value_ids.entry(v).or_insert(next);
            }
            let values: Vec<usize> = {
                let mut v: Vec<(usize, usize)> =
                    value_ids.iter().map(|(&k, &id)| (k, id)).collect();
                v.sort_by_key(|&(_, id)| id);
                v.into_iter().map(|(k, _)| k).collect()
            };
            let mut counts = vec![0usize; values.len()];
            for &v in rest {
                counts[value_ids[&v]] += 1;
            }
            // Groups in use (pairs with at least one non-final slot).
            let mut group_ids: BTreeMap<usize, usize> = BTreeMap::new();
            for &g in rest_pairs {
                let next = group_ids.len();
                group_ids.entry(g).or_insert(next);
            }
            let groups: Vec<usize> = {
                let mut v: Vec<(usize, usize)> =
                    group_ids.iter().map(|(&k, &id)| (k, id)).collect();
                v.sort_by_key(|&(_, id)| id);
                v.into_iter().map(|(k, _)| k).collect()
            };
            let mut group_sizes = vec![0usize; groups.len()];
            for &g in rest_pairs {
                group_sizes[group_ids[&g]] += 1;
            }
            let weights: Vec<Vec<f64>> = values
                .iter()
                .map(|&v| {
                    groups
                        .iter()
                        .map(|&g| {
                            let (p, q) = pairs[g];
                            th.get(p, v) * th.get(v, q)
                        })
                        .collect()
                })
                .collect();
            let inst = MatchingInstance::new(counts, group_sizes, weights)
                .expect("counts and slots agree by construction");
            // Bandwidth: the midpoint *multiset* (≤ 2ρ words — this is
            // the compression §2.1.3 buys over shipping Π verbatim),
            // plus the √n × √n submatrix of T^{δ/2} on the relevant
            // vertices (O(n) words → O(1) rounds; charged but not part
            // of the Π-compression comparison, experiment E12).
            let multiset_words = (values.len() * 2 + 1) as u64;
            let svert: HashSet<usize> = grid.iter().chain(rest.iter()).copied().collect();
            let submatrix_words = (svert.len() * svert.len()) as u64;
            *placement_words += multiset_words;
            let words = multiset_words + submatrix_words;
            clique.ledger_mut().charge(
                CostCategory::Matching,
                Clique::rounds_for_load(n, words) + 2,
            );
            clique.ledger_mut().add_words(CostCategory::Matching, words);
            // Sample the assignment: exact below the permanent limit,
            // Metropolis swap chain (warm-started from the true
            // arrangement) above it.
            let assignment = if inst.total_slots() <= MAX_EXACT_SLOTS {
                ExactPermanentSampler
                    .sample(&inst, rng)
                    .expect("true arrangement witnesses feasibility")
            } else {
                let mut hint_slots: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
                for (&v, &g) in rest.iter().zip(rest_pairs) {
                    hint_slots[group_ids[&g]].push(value_ids[&v]);
                }
                let hint = Assignment {
                    per_group: hint_slots,
                };
                SwapChainSampler::default()
                    .sample(&inst, Some(hint), rng)
                    .expect("hinted start is feasible")
            };
            // Map value ids back to vertices and reassemble
            // chronologically.
            let shuffled = Assignment {
                per_group: assignment
                    .per_group
                    .into_iter()
                    .map(|slots| slots.into_iter().map(|id| values[id]).collect())
                    .collect(),
            };
            // Reassembly keys by *local* group ids.
            let local_pairs: Vec<usize> = rest_pairs.iter().map(|&g| group_ids[&g]).collect();
            Ok(reassemble(&local_pairs, shuffled, final_value))
        }
    }
}

/// Distributes per-group slot values back to chronological midpoint
/// positions (group slots are consumed in chronological order) and
/// appends the exactly-placed final midpoint.
fn reassemble(rest_groups: &[usize], assignment: Assignment, final_value: usize) -> Vec<usize> {
    let mut cursors = vec![0usize; assignment.per_group.len()];
    let mut out = Vec::with_capacity(rest_groups.len() + 1);
    for &g in rest_groups {
        out.push(assignment.per_group[g][cursors[g]]);
        cursors[g] += 1;
    }
    out.push(final_value);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cct_graph::generators;
    use cct_sim::UnitCostEngine;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn dense_powers(t0: &cct_linalg::Matrix, levels: usize) -> DeferredPowers {
        DeferredPowers::from_materialized(
            cct_linalg::powers_of_two(t0, levels + 1, 1)
                .into_iter()
                .map(PMatrix::Dense)
                .collect(),
            1,
            cct_linalg::Rounding::Exact,
        )
    }

    #[test]
    fn top_down_phase_reaches_budget_on_clique() {
        let g = generators::complete(8);
        let t0 = g.transition_matrix();
        let ell = 256u64;
        let base = dense_powers(&t0, ell.trailing_zeros() as usize);
        let mut powers = PowerTable::new(&base);
        let mut clique = Clique::new(8);
        let config = SamplerConfig::new();
        let mut r = rng(1);
        let res = top_down_phase(
            &mut clique,
            &UnitCostEngine::default(),
            &mut powers,
            0,
            4,
            ell,
            &config,
            2,
            &mut r,
        )
        .unwrap();
        assert!(res.reached);
        assert_eq!(res.distinct, 4);
        assert_eq!(res.first_visits.len(), 3);
        assert_eq!(res.method, PhaseMethod::TopDown);
        assert!(res.tau >= 3);
        // Rounds were charged in the expected categories.
        assert!(clique.ledger().rounds(CostCategory::BinarySearch) > 0);
        assert!(clique.ledger().rounds(CostCategory::Midpoints) > 0);
    }

    #[test]
    fn direct_local_phase_reaches_budget() {
        let g = generators::complete(6);
        let t0 = PMatrix::Dense(g.transition_matrix());
        let mut clique = Clique::new(6);
        let mut r = rng(2);
        let res =
            direct_local_phase(&mut clique, &t0, 0, 6, 1 << 20, Variant::LasVegas, &mut r).unwrap();
        assert!(res.reached);
        assert_eq!(res.distinct, 6);
        assert_eq!(res.first_visits.len(), 5);
        assert_eq!(res.method, PhaseMethod::DirectLocal);
        assert!(clique.ledger().rounds(CostCategory::Gather) > 0);
    }

    #[test]
    fn monte_carlo_failure_flagged_when_ell_too_small() {
        // A 2-step budget cannot visit 8 distinct vertices of a path.
        let g = generators::path(8);
        let t0 = PMatrix::Dense(g.transition_matrix());
        let mut clique = Clique::new(8);
        let mut r = rng(3);
        let res =
            direct_local_phase(&mut clique, &t0, 0, 8, 2, Variant::MonteCarlo, &mut r).unwrap();
        assert!(!res.reached);
    }

    #[test]
    fn streamed_phase_records_real_entry_edges() {
        let g = generators::complete(8);
        let p = g.transition_pmatrix(cct_linalg::Repr::Sparse);
        let mut visited = vec![false; 8];
        visited[0] = true;
        let mut clique = Clique::new(8);
        let mut r = rng(21);
        let res = streamed_local_phase(
            &mut clique,
            &p,
            &visited,
            0,
            4,
            1 << 16,
            Variant::MonteCarlo,
            u64::MAX,
            &mut r,
        )
        .unwrap();
        assert!(res.reached);
        assert_eq!(res.method, PhaseMethod::StreamedLocal);
        assert_eq!(res.first_visits.len(), 3);
        for &(v, prev) in &res.first_visits {
            assert!(!visited[v]);
            assert!(g.has_edge(prev, v), "({prev},{v}) not a G-edge");
        }
        // Each walk step is one token move: one round, one word.
        assert_eq!(clique.ledger().rounds(CostCategory::Routing), res.tau);
        assert_eq!(clique.ledger().words(CostCategory::Routing), res.tau);
    }

    #[test]
    fn streamed_phase_skips_globally_visited_vertices() {
        // Mark half the cycle visited: only unvisited vertices may appear
        // in first_visits, and the phase budget counts start + new only.
        let g = generators::cycle(8);
        let p = g.transition_pmatrix(cct_linalg::Repr::Sparse);
        let mut visited = vec![false; 8];
        visited[..4].fill(true);
        let mut clique = Clique::new(8);
        let mut r = rng(22);
        let res = streamed_local_phase(
            &mut clique,
            &p,
            &visited,
            0,
            3,
            1 << 20,
            Variant::LasVegas,
            u64::MAX,
            &mut r,
        )
        .unwrap();
        assert!(res.reached);
        assert_eq!(res.distinct, 3);
        assert_eq!(res.first_visits.len(), 2);
        for &(v, _) in &res.first_visits {
            assert!(!visited[v], "{v} was already visited");
        }
    }

    #[test]
    fn streamed_phase_monte_carlo_budget_exhaustion() {
        // 2 steps cannot reach 8 distinct vertices on a path.
        let g = generators::path(8);
        let p = g.transition_pmatrix(cct_linalg::Repr::Sparse);
        let visited = {
            let mut v = vec![false; 8];
            v[0] = true;
            v
        };
        let mut clique = Clique::new(8);
        let mut r = rng(23);
        let res = streamed_local_phase(
            &mut clique,
            &p,
            &visited,
            0,
            8,
            2,
            Variant::MonteCarlo,
            u64::MAX,
            &mut r,
        )
        .unwrap();
        assert!(!res.reached);
        assert_eq!(res.tau, 2);
        // The step cap is a second failure trigger for huge ℓ.
        let mut clique = Clique::new(8);
        let res = streamed_local_phase(
            &mut clique,
            &p,
            &visited,
            0,
            8,
            u64::MAX,
            Variant::MonteCarlo,
            4,
            &mut r,
        )
        .unwrap();
        assert!(!res.reached);
        assert_eq!(res.tau, 4);
    }

    #[test]
    fn degenerate_bipartite_detection() {
        // Path graph: bipartite. From an end vertex, the start side of P4
        // is {0, 2}: degenerate iff rho > 2. Both representations must
        // answer identically.
        let g = generators::path(4);
        for repr in [cct_linalg::Repr::Dense, cct_linalg::Repr::Sparse] {
            let t0 = g.transition_pmatrix(repr);
            assert!(!is_degenerate_bipartite(&t0, 0, 2), "{repr:?}");
            assert!(is_degenerate_bipartite(&t0, 0, 3), "{repr:?}");
        }
        // Triangle: not bipartite, never degenerate.
        let g = generators::complete(3);
        let t0 = PMatrix::Dense(g.transition_matrix());
        assert!(!is_degenerate_bipartite(&t0, 0, 3));
    }

    #[test]
    fn two_vertex_schur_is_degenerate() {
        // |S| = 2: a single edge, bipartite with side(start) = 1 < ρ = 2.
        let t0 = PMatrix::Dense(cct_linalg::Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ]));
        assert!(is_degenerate_bipartite(&t0, 0, 2));
    }

    #[test]
    fn top_down_first_visits_are_walk_consistent() {
        let g = generators::petersen();
        let t0 = g.transition_matrix();
        let ell = 1024u64;
        let base = dense_powers(&t0, ell.trailing_zeros() as usize);
        let config = SamplerConfig::new();
        let mut r = rng(4);
        for _ in 0..10 {
            let mut powers = PowerTable::new(&base);
            let mut clique = Clique::new(10);
            let res = top_down_phase(
                &mut clique,
                &UnitCostEngine::default(),
                &mut powers,
                0,
                3,
                ell,
                &config,
                2,
                &mut r,
            )
            .unwrap();
            assert!(res.reached);
            // Every (v, prev) must be an edge of the phase graph (S = V →
            // the walk is on G itself).
            for &(v, prev) in &res.first_visits {
                assert!(g.has_edge(prev, v), "({prev}, {v}) not an edge");
            }
        }
    }

    #[test]
    fn las_vegas_extends_until_budget() {
        // ℓ = 2 is far too short to see 5 distinct vertices of a path;
        // Las Vegas must extend.
        let g = generators::path(6);
        let t0 = g.transition_matrix();
        let base = dense_powers(&t0, 1);
        let mut powers = PowerTable::new(&base);
        let config = SamplerConfig {
            variant: Variant::LasVegas,
            ..SamplerConfig::new()
        };
        let mut clique = Clique::new(6);
        let mut r = rng(5);
        let res = top_down_phase(
            &mut clique,
            &UnitCostEngine::default(),
            &mut powers,
            0,
            5, // rho
            2, // ell — hopelessly short; extensions required
            &config,
            2,
            &mut r,
        )
        .unwrap();
        assert!(res.reached);
        assert!(res.extensions >= 1, "expected Las Vegas extensions");
        assert!(res.ell_final > 2);
        assert_eq!(res.distinct, 5);
        // The power table was extended once per doubling.
        assert_eq!(powers.len(), 2 + res.extensions as usize);
    }
}
