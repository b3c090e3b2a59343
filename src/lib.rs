//! # cct — Sublinear-Time Sampling of Spanning Trees in the Congested Clique
//!
//! A full Rust reproduction of Pemmaraju, Roy & Sobel, *Sublinear-Time
//! Sampling of Spanning Trees in the Congested Clique* (PODC 2025,
//! arXiv:2411.13334): the `Õ(n^{1/2+α})`-round approximate uniform
//! spanning-tree sampler, the exact `Õ(n^{2/3+α})` variant, and the
//! polylogarithmic-round load-balanced doubling walks — together with
//! every substrate they need (a Congested Clique simulator, Schur
//! complement and shortcut graphs, weighted perfect-matching samplers,
//! Matrix–Tree ground truths, and the classical Aldous–Broder / Wilson
//! baselines).
//!
//! # Quickstart
//!
//! ```
//! use cct::core::{CliqueTreeSampler, SamplerConfig, WalkLength};
//! use cct::graph::generators;
//! use rand::SeedableRng;
//!
//! let g = generators::erdos_renyi_connected(
//!     24, 0.3, &mut rand::rngs::StdRng::seed_from_u64(1));
//! let sampler = CliqueTreeSampler::new(
//!     SamplerConfig::new().walk_length(WalkLength::ScaledCubic { factor: 4.0 }));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let report = sampler.sample(&g, &mut rng)?;
//! println!("tree: {}", report.tree);
//! println!("rounds: {}", report.rounds);
//! # Ok::<(), cct::core::SampleTreeError>(())
//! ```
//!
//! # Crate map
//!
//! | module | contents | paper sections |
//! |---|---|---|
//! | [`core`] | the phase-based sampler (primary contribution), with the top-down walk and its walk-law tests | §1.3, §2, Appendix §5 |
//! | [`sim`] | Congested Clique simulator, round ledger, matmul engines | §1.6 |
//! | [`schur`] | Schur complement & shortcut graphs, Algorithm 4 | §1.7, §2.2, §2.4 |
//! | [`matching`] | weighted perfect-matching placement samplers | §1.8, Lemma 3 |
//! | [`doubling`] | load-balanced doubling walks | §3 |
//! | [`walks`] | Aldous–Broder, Wilson, cover times, chi-square statistics, MST strawman | §1.1, §1.4 |
//! | [`graph`] | graphs, generators, Matrix–Tree counting | §1.1, §1.7 |
//! | [`linalg`] | matrices, LU, permanents, fixed-point rounding | §2.4, §2.5 |
//! | [`serve`] | batched sampling service: worker pool, PreparedSampler cache, wire protocol | — |
//! | [`json`] | dependency-free JSON shared by the wire protocol and bench baselines | — |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cct_core as core;
pub use cct_doubling as doubling;
pub use cct_graph as graph;
pub use cct_json as json;
pub use cct_linalg as linalg;
pub use cct_matching as matching;
pub use cct_schur as schur;
pub use cct_serve as serve;
pub use cct_sim as sim;
pub use cct_walks as walks;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use cct_core::{
        CliqueTreeSampler, Placement, SampleReport, SamplerConfig, Variant, WalkLength,
    };
    pub use cct_doubling::{doubling_walks, sample_tree_via_doubling, Balancing};
    pub use cct_graph::{generators, Graph, SpanningTree};
    pub use cct_sim::{Clique, CostCategory};
    pub use cct_walks::{aldous_broder, wilson};
}
