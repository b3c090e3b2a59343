//! Reproduces the paper's Figure 2: the Schur complement and shortcut
//! graphs of the 4-vertex star with centre `C` and `S = {A, B, D}`.
//!
//! ```sh
//! cargo run --release --example schur_playground
//! ```

use cct::graph::Graph;
use cct::linalg::PMatrix;
use cct::schur::{
    schur_graph, schur_transition_exact, schur_transition_from_shortcut_p, shortcut_exact,
    VertexSubset,
};

fn main() {
    // Figure 2's graph: A=0, B=1, C=2, D=3; edges A–C, B–C, D–C.
    let names = ["A", "B", "C", "D"];
    let g = Graph::from_edges(4, &[(0, 2), (1, 2), (3, 2)]).expect("valid graph");
    let s = VertexSubset::new(4, &[0, 1, 3]);

    println!("G: star with centre C; S = {{A, B, D}}\n");

    // Schur complement transitions (Definition 2).
    let t = schur_transition_exact(&g, &s);
    println!("Schur(G, S) transition matrix (paper: uniform transitions):");
    print!("      ");
    for &j in s.list() {
        print!("{:>8}", names[j]);
    }
    println!();
    for (i, &u) in s.list().iter().enumerate() {
        print!("  {:>4}", names[u]);
        for j in 0..s.len() {
            print!("{:>8.3}", t[(i, j)]);
        }
        println!();
    }

    // The Schur complement as a weighted graph (Definition 1).
    let h = schur_graph(&g, &s).expect("Schur of a Laplacian is a Laplacian");
    println!("\nSchur(G, S) edge weights (each pair via the centre):");
    for &(u, v, w) in h.edges() {
        println!(
            "  {} — {}  weight {:.4}",
            names[s.global(u)],
            names[s.global(v)],
            w
        );
    }

    // Shortcut graph (Definition 3): every pre-entry vertex is C.
    let q = shortcut_exact(&g, &s);
    println!("\nShortCut(G, S) transition matrix Q (paper: everything → C):");
    print!("      ");
    for name in names {
        print!("{name:>8}");
    }
    println!();
    for (u, name) in names.iter().enumerate() {
        print!("  {name:>4}");
        for v in 0..4 {
            print!("{:>8.3}", q[(u, v)]);
        }
        println!();
    }

    // Corollary 3: rebuilding the Schur transitions from Q agrees.
    let via_q = schur_transition_from_shortcut_p(&g, &s, &PMatrix::Dense(q));
    let diff = t.max_abs_diff(&via_q);
    println!("\nCorollary 3 cross-check: max |S_laplacian − S_shortcut| = {diff:.2e}");
    assert!(diff < 1e-12);
    println!("Figure 2 reproduced ✓");
}
