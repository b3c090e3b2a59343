//! Corollary 1: spanning trees in `Õ(τ/n)` rounds for graphs with cover
//! time `τ` — run on the paper's own examples of `O(n log n)`-cover-time
//! families: a random regular expander, `G(n, p)` above the connectivity
//! threshold, and the dense irregular `K_{n−√n,√n}` (§1.2).
//!
//! ```sh
//! cargo run --release --example cover_time_trees [n]
//! ```

use cct::prelude::*;
use cct::sim::Clique;
use cct::walks::estimate_cover_time;
use rand::SeedableRng;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);

    let p_er = (2.0 * (n as f64).ln() / n as f64).min(0.9);
    let inputs: Vec<(&str, Graph)> = vec![
        (
            "random 4-regular (expander)",
            generators::random_regular(n, 4, &mut rng),
        ),
        (
            "G(n, 2 ln n / n)",
            generators::erdos_renyi_connected(n, p_er, &mut rng),
        ),
        (
            "K_{n-√n, √n} (dense irregular)",
            generators::k_dense_irregular(n),
        ),
        (
            "lollipop (slow cover — contrast)",
            generators::lollipop(n / 2, n / 2),
        ),
    ];

    println!(
        "{:<34} {:>10} {:>10} {:>9} {:>8}",
        "graph", "cover≈", "rounds", "segments", "tree-ok"
    );
    for (name, g) in inputs {
        let cover = estimate_cover_time(&g, 0, 30, 100_000_000, &mut rng);
        let mut clique = Clique::new(g.n());
        let (tree, segments) =
            sample_tree_via_doubling(&mut clique, &g, 2.0, 4000, &mut rng).expect("covered");
        let ok = tree.edges().iter().all(|&(u, v)| g.has_edge(u, v));
        println!(
            "{name:<34} {:>10.0} {:>10} {segments:>9} {:>8}",
            cover.mean,
            clique.ledger().total_rounds(),
            if ok { "yes" } else { "NO" },
        );
    }
    println!(
        "\nCorollary 1: rounds ≈ Õ(cover/n). The O(n log n)-cover families finish in\n\
         polylog-many segments; the lollipop's Θ(n³) cover time shows in its round bill."
    );
}
