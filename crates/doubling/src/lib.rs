//! # cct-doubling
//!
//! §3 of Pemmaraju–Roy–Sobel (PODC 2025): **load-balanced doubling** for
//! fast random walks in the Congested Clique.
//!
//! Theorem 2: a length-`τ` walk in `O(log τ)` rounds for
//! `τ = O(n/log n)`, and `O((τ/n)·log τ·log n)` rounds above that —
//! achieved by routing the prefix/suffix walk tuples of each doubling
//! iteration through an `8c log n`-wise independent hash
//! ([`TWiseHash`]), so no machine receives more than `16ck log n` tuples
//! w.h.p. (Lemma 10). The unbalanced ablation ([`Balancing::Naive`], the
//! scheme of Bahmani–Chakrabarti–Xin \[7\]) is included for experiment E6.
//!
//! Corollary 1: for graphs with cover time `τ` (expanders, `G(n,p)`,
//! `K_{n−√n,√n}`), [`sample_tree_via_doubling`] samples a uniform
//! spanning tree in `Õ(τ/n)` rounds by running Aldous–Broder over a walk
//! assembled from doubling segments.
//!
//! # Examples
//!
//! ```
//! use cct_doubling::{doubling_walks, Balancing};
//! use cct_graph::generators;
//! use cct_sim::Clique;
//! use rand::SeedableRng;
//!
//! let g = generators::complete(8);
//! let mut clique = Clique::new(8);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (walks, _) = doubling_walks(&mut clique, &g, 16, Balancing::Balanced { c: 1 }, &mut rng);
//! assert_eq!(walks[3][0], 3);       // walk of vertex 3 starts at 3
//! assert_eq!(walks[3].len(), 17);   // 16 steps
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[allow(clippy::module_inception)]
mod doubling;
mod hash;

pub use doubling::{
    doubling_walks, lemma10_bound, sample_tree_via_doubling, Balancing, DoublingStats,
};
pub use hash::{TWiseHash, FIELD};
