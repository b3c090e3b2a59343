//! Graph generators used throughout the experiment suite.
//!
//! The families mirror the graphs the paper reasons about: complete graphs
//! and expanders (fast cover), paths and lollipops (slow cover, the
//! `Θ(mn)` worst case motivating the top-down algorithm), Erdős–Rényi
//! `G(n, p)` with `p = Ω(log n / n)` and the dense irregular
//! `K_{n−√n, √n}` (both `O(n log n)` cover time, §1.2 / Corollary 1).

use crate::{Graph, GraphError};
use rand::seq::SliceRandom;
use rand::Rng;

/// The complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "need at least one vertex");
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in u + 1..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// The path `0 — 1 — … — (n−1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "need at least one vertex");
    let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// The cycle `C_n`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// The star `K_{1,n−1}` with centre `0`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least 2 vertices");
    let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// The wheel: a cycle on `n−1` vertices plus a hub adjacent to all.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "a wheel needs at least 4 vertices");
    let hub = n - 1;
    let ring = n - 1;
    let mut edges: Vec<(usize, usize)> = (0..ring).map(|i| (i, (i + 1) % ring)).collect();
    edges.extend((0..ring).map(|i| (i, hub)));
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// The `rows × cols` grid graph.
///
/// # Panics
///
/// Panics if either dimension is 0.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges).expect("valid by construction")
}

/// The complete bipartite graph `K_{a,b}`; side `A` is `0..a`.
///
/// With `a = n − ⌊√n⌋` and `b = ⌊√n⌋` this is the paper's example of a
/// dense, highly irregular graph with `O(n log n)` cover time (§1.2); see
/// [`k_dense_irregular`].
///
/// # Panics
///
/// Panics if either side is empty.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a > 0 && b > 0, "both sides must be non-empty");
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a {
        for v in a..a + b {
            edges.push((u, v));
        }
    }
    Graph::from_edges(a + b, &edges).expect("valid by construction")
}

/// The paper's `K_{n−√n, √n}` (§1.2): dense, highly irregular, yet
/// `O(n log n)` cover time by a coupon-collector argument.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn k_dense_irregular(n: usize) -> Graph {
    assert!(n >= 4, "need n ≥ 4");
    let b = (n as f64).sqrt().floor() as usize;
    complete_bipartite(n - b, b)
}

/// Two `k`-cliques joined by a single bridge edge.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn barbell(k: usize) -> Graph {
    assert!(k >= 2, "cliques need at least 2 vertices");
    let mut edges = Vec::new();
    for u in 0..k {
        for v in u + 1..k {
            edges.push((u, v));
            edges.push((k + u, k + v));
        }
    }
    edges.push((k - 1, k));
    Graph::from_edges(2 * k, &edges).expect("valid by construction")
}

/// A `k`-clique with a path of `tail` extra vertices hanging off vertex
/// `k−1` — the classical worst case for cover time (`Θ(n³)` when
/// `tail ≈ k`).
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    assert!(k >= 2, "clique needs at least 2 vertices");
    let mut edges = Vec::new();
    for u in 0..k {
        for v in u + 1..k {
            edges.push((u, v));
        }
    }
    for t in 0..tail {
        edges.push((k - 1 + t, k + t));
    }
    Graph::from_edges(k + tail, &edges).expect("valid by construction")
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` vertices — a classical
/// expander-adjacent family with `O(n log n)` cover time.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: u32) -> Graph {
    assert!((1..=20).contains(&d), "dimension must be in 1..=20");
    let n = 1usize << d;
    let mut edges = Vec::with_capacity(n * d as usize / 2);
    for u in 0..n {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// The `rows × cols` torus (grid with wraparound) — 4-regular,
/// vertex-transitive.
///
/// # Panics
///
/// Panics if either dimension is below 3 (wraparound would create
/// duplicate edges).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be ≥ 3");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            edges.push((idx(r, c), idx(r, (c + 1) % cols)));
            edges.push((idx(r, c), idx((r + 1) % rows, c)));
        }
    }
    Graph::from_edges(rows * cols, &edges).expect("valid by construction")
}

/// A complete binary tree of the given depth (`2^{depth+1} − 1`
/// vertices, root 0) — a unique-spanning-tree input with long hitting
/// times between leaves.
///
/// # Panics
///
/// Panics if `depth > 20`.
pub fn binary_tree(depth: u32) -> Graph {
    assert!(depth <= 20, "depth must be ≤ 20");
    let n = (1usize << (depth + 1)) - 1;
    let edges: Vec<(usize, usize)> = (1..n).map(|v| ((v - 1) / 2, v)).collect();
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// The Petersen graph (3-regular, 10 vertices, girth 5).
pub fn petersen() -> Graph {
    let mut edges = Vec::new();
    for i in 0..5 {
        edges.push((i, (i + 1) % 5)); // outer pentagon
        edges.push((i, i + 5)); // spokes
        edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
    }
    Graph::from_edges(10, &edges).expect("valid by construction")
}

/// Erdős–Rényi `G(n, p)`: every edge present independently with
/// probability `p`. Not necessarily connected — see
/// [`erdos_renyi_connected`].
///
/// # Panics
///
/// Panics if `p` is not in `\[0, 1\]` or `n == 0`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "need at least one vertex");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("valid by construction")
}

/// Erdős–Rényi conditioned on connectivity: resamples until connected.
///
/// # Panics
///
/// Panics if 1000 attempts fail (i.e. `p` is far below the connectivity
/// threshold `log n / n`). See [`try_erdos_renyi_connected`] for the
/// fallible variant.
pub fn erdos_renyi_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    try_erdos_renyi_connected(n, p, rng).unwrap_or_else(|| {
        panic!("G({n}, {p}) failed to produce a connected graph in 1000 attempts")
    })
}

/// Fallible [`erdos_renyi_connected`]: `None` if 1000 attempts all come
/// out disconnected, so callers with untrusted `p` (e.g. the CLI) can
/// report an error instead of panicking.
///
/// # Panics
///
/// Panics if `p` is not in `\[0, 1\]` or `n == 0`.
pub fn try_erdos_renyi_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Option<Graph> {
    (0..1000)
        .map(|_| erdos_renyi(n, p, rng))
        .find(Graph::is_connected)
}

/// A random `d`-regular graph via the configuration model with rejection
/// (resampled until simple and connected).
///
/// Random regular graphs are expanders with high probability, giving the
/// `O(n log n)` cover times Corollary 1 wants.
///
/// # Panics
///
/// Panics if `n·d` is odd, `d ≥ n`, or 1000 attempts fail. See
/// [`try_random_regular`] for the last case's fallible variant.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    try_random_regular(n, d, rng)
        .unwrap_or_else(|| panic!("failed to sample a connected {d}-regular graph on {n} vertices"))
}

/// Fallible [`random_regular`]: `None` if 1000 configuration-model
/// attempts fail to produce a simple connected graph.
///
/// # Panics
///
/// Panics if `n·d` is odd or `d ≥ n` (domain errors, unlike sampling
/// failures).
pub fn try_random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Option<Graph> {
    assert!(n * d % 2 == 0, "n·d must be even");
    assert!(d >= 1 && d < n, "need 1 ≤ d < n");
    'attempt: for _ in 0..1000 {
        // Stubs: d copies of each vertex, matched uniformly.
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(rng);
        let mut edges = Vec::with_capacity(n * d / 2);
        let mut seen = std::collections::HashSet::new();
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                continue 'attempt;
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                continue 'attempt;
            }
            edges.push(key);
        }
        let g = Graph::from_edges(n, &edges).expect("valid by construction");
        if g.is_connected() {
            return Some(g);
        }
    }
    None
}

/// Replaces every weight with a uniform random integer in `1..=max_weight`
/// (footnote 1's bounded-integer-weight setting).
///
/// # Errors
///
/// Propagates [`GraphError`] (cannot occur for a valid input graph).
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn with_random_integer_weights<R: Rng + ?Sized>(
    g: &Graph,
    max_weight: u64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    assert!(max_weight >= 1, "max_weight must be at least 1");
    let edges: Vec<(usize, usize, f64)> = g
        .edges()
        .iter()
        .map(|&(u, v, _)| (u, v, rng.gen_range(1..=max_weight) as f64))
        .collect();
    Graph::from_weighted_edges(g.n(), &edges)
}

/// SplitMix64's finalizer over a `(master, key)` pair — the same mix as
/// `cct_sim::machine_seed` (replicated here because `cct-graph` sits
/// below `cct-sim` in the dependency order). Used to derive per-edge
/// weights that are a pure function of the edge, independent of any RNG
/// stream.
fn splitmix_pair(master: u64, key: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(key.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic weight the weighted spec families (`er-w`,
/// `grid-w`, …) assign to the edge `{u, v}`: an integer in
/// `1..=max_weight`, a pure function of `(stream, min(u,v), max(u,v))`
/// via two chained SplitMix64 finalizers. No RNG is consumed, so a
/// weighted spec still denotes *one* fixed weighting however the caller
/// seeded the generator RNG — the invariant the sampling service's
/// spec-keyed cache relies on.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn deterministic_edge_weight(stream: u64, u: usize, v: usize, max_weight: u64) -> u64 {
    assert!(max_weight >= 1, "max_weight must be at least 1");
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    1 + splitmix_pair(splitmix_pair(stream, a), b) % max_weight
}

/// Replaces every weight with [`deterministic_edge_weight`]`(stream, u,
/// v, max_weight)` — footnote 1's bounded positive integer weights, but
/// reproducible from the edge alone (no RNG stream to keep in sync).
///
/// # Errors
///
/// Propagates [`GraphError`] (cannot occur for a valid input graph).
///
/// # Panics
///
/// Panics if `max_weight == 0`.
///
/// # Examples
///
/// ```
/// use cct_graph::generators::{complete, with_deterministic_integer_weights};
///
/// let a = with_deterministic_integer_weights(&complete(5), 8, 7).unwrap();
/// let b = with_deterministic_integer_weights(&complete(5), 8, 7).unwrap();
/// assert_eq!(a.edges(), b.edges());
/// assert!(a.has_integer_weights() && a.max_weight() <= 8.0);
/// ```
pub fn with_deterministic_integer_weights(
    g: &Graph,
    max_weight: u64,
    stream: u64,
) -> Result<Graph, GraphError> {
    let edges: Vec<(usize, usize, f64)> = g
        .edges()
        .iter()
        .map(|&(u, v, _)| {
            (
                u,
                v,
                deterministic_edge_weight(stream, u, v, max_weight) as f64,
            )
        })
        .collect();
    Graph::from_weighted_edges(g.n(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::two_colorable;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12345)
    }

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 15);
        assert!(g.is_connected());
        assert!((0..6).all(|v| g.degree(v) == 5.0));
    }

    #[test]
    fn path_and_cycle() {
        let p = path(5);
        assert_eq!(p.m(), 4);
        assert_eq!(p.degree(0), 1.0);
        assert_eq!(p.degree(2), 2.0);
        let c = cycle(5);
        assert_eq!(c.m(), 5);
        assert!((0..5).all(|v| c.degree(v) == 2.0));
        assert!(!two_colorable(&c));
        assert!(two_colorable(&cycle(6)));
    }

    #[test]
    fn star_structure() {
        let s = star(5);
        assert_eq!(s.degree(0), 4.0);
        assert!((1..5).all(|v| s.degree(v) == 1.0));
        assert!(two_colorable(&s));
    }

    #[test]
    fn wheel_structure() {
        let w = wheel(6);
        assert_eq!(w.n(), 6);
        assert_eq!(w.degree(5), 5.0); // hub
        assert!((0..5).all(|v| w.degree(v) == 3.0));
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(two_colorable(&g));
        assert!(g.is_connected());
        assert_eq!(g.degree(0), 2.0); // corner
        assert_eq!(g.degree(5), 4.0); // interior
    }

    #[test]
    fn bipartite_families() {
        let kb = complete_bipartite(3, 4);
        assert_eq!(kb.m(), 12);
        assert!(two_colorable(&kb));
        let kd = k_dense_irregular(16);
        assert_eq!(kd.n(), 16);
        // sides 12 and 4
        assert_eq!(kd.degree(0), 4.0);
        assert_eq!(kd.degree(15), 12.0);
    }

    #[test]
    fn barbell_and_lollipop() {
        let b = barbell(4);
        assert_eq!(b.n(), 8);
        assert_eq!(b.m(), 2 * 6 + 1);
        assert!(b.is_connected());
        let l = lollipop(4, 3);
        assert_eq!(l.n(), 7);
        assert_eq!(l.m(), 6 + 3);
        assert_eq!(l.degree(6), 1.0); // tail end
        assert!(l.is_connected());
    }

    #[test]
    fn hypercube_structure() {
        let q3 = hypercube(3);
        assert_eq!(q3.n(), 8);
        assert_eq!(q3.m(), 12);
        assert!((0..8).all(|v| q3.degree(v) == 3.0));
        assert!(two_colorable(&q3));
        assert!(q3.is_connected());
        assert!(q3.has_edge(0b000, 0b100));
        assert!(!q3.has_edge(0b000, 0b110));
    }

    #[test]
    fn torus_structure() {
        let t = torus(3, 4);
        assert_eq!(t.n(), 12);
        assert_eq!(t.m(), 24);
        assert!((0..12).all(|v| t.degree(v) == 4.0));
        assert!(t.is_connected());
        // Wraparound edges exist.
        assert!(t.has_edge(0, 3)); // row 0: col 0 ↔ col 3
        assert!(t.has_edge(0, 8)); // col 0: row 0 ↔ row 2
    }

    #[test]
    fn binary_tree_structure() {
        let t = binary_tree(3);
        assert_eq!(t.n(), 15);
        assert_eq!(t.m(), 14);
        assert!(t.is_connected());
        assert!(two_colorable(&t));
        assert_eq!(t.degree(0), 2.0); // root
        assert_eq!(t.degree(14), 1.0); // leaf
        assert_eq!(crate::spanning_tree_count_exact(&t).unwrap(), 1);
    }

    #[test]
    fn petersen_is_three_regular() {
        let p = petersen();
        assert_eq!(p.n(), 10);
        assert_eq!(p.m(), 15);
        assert!((0..10).all(|v| p.degree(v) == 3.0));
        assert!(p.is_connected());
        assert!(!two_colorable(&p));
    }

    #[test]
    fn erdos_renyi_edge_count_reasonable() {
        let mut r = rng();
        let g = erdos_renyi(40, 0.5, &mut r);
        let expect = 0.5 * (40.0 * 39.0 / 2.0);
        assert!((g.m() as f64 - expect).abs() < 5.0 * expect.sqrt());
        let empty = erdos_renyi(10, 0.0, &mut r);
        assert_eq!(empty.m(), 0);
        let full = erdos_renyi(10, 1.0, &mut r);
        assert_eq!(full.m(), 45);
    }

    #[test]
    fn erdos_renyi_connected_is_connected() {
        let mut r = rng();
        let g = erdos_renyi_connected(30, 0.3, &mut r);
        assert!(g.is_connected());
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut r = rng();
        for d in [2usize, 3, 4] {
            let n = 20;
            let g = random_regular(n, d, &mut r);
            assert!((0..n).all(|v| g.degree(v) == d as f64), "d = {d}");
            assert!(g.is_connected());
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn random_regular_odd_total_panics() {
        let mut r = rng();
        let _ = random_regular(5, 3, &mut r);
    }

    #[test]
    fn random_weights_are_integer_bounded() {
        let mut r = rng();
        let g = with_random_integer_weights(&complete(6), 7, &mut r).unwrap();
        assert!(g.has_integer_weights());
        assert!(g.max_weight() <= 7.0);
        assert!(g.edges().iter().all(|&(_, _, w)| w >= 1.0));
    }
}
