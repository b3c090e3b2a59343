//! # cct-core
//!
//! The primary contribution of Pemmaraju–Roy–Sobel, *Sublinear-Time
//! Sampling of Spanning Trees in the Congested Clique* (PODC 2025): an
//! `Õ(n^{1/2+α})`-round algorithm for sampling an approximately uniform
//! spanning tree, plus the Appendix's exact `Õ(n^{2/3+α})` variant.
//!
//! The sampler implements the Aldous–Broder algorithm phase by phase
//! (Outline 3): each phase takes a top-down-filled, truncated random walk
//! on the Schur complement of the unvisited region (skipping previously
//! visited vertices), discovers its truncation point by distributed
//! binary search (Algorithm 3), re-samples midpoint placements from the
//! collected multiset via weighted perfect matchings (Lemma 3), and
//! recovers first-visit edges in the input graph through the shortcut
//! graph (Algorithm 4). Rounds are charged by the `cct-sim` Congested
//! Clique simulator, with matrix multiplications priced by a pluggable
//! engine (`α = 0.157` fast-matmul oracle by default).
//!
//! # Examples
//!
//! Sampling a tree and inspecting where the rounds went:
//!
//! ```
//! use cct_core::{CliqueTreeSampler, SamplerConfig, WalkLength};
//! use cct_graph::generators;
//! use cct_sim::CostCategory;
//! use rand::SeedableRng;
//!
//! let g = generators::petersen();
//! let sampler = CliqueTreeSampler::new(
//!     SamplerConfig::new().walk_length(WalkLength::Fixed(1 << 12)),
//! );
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let report = sampler.sample(&g, &mut rng)?;
//! assert_eq!(report.tree.edges().len(), 9);
//! assert!(report.rounds.rounds(CostCategory::MatMul) > 0);
//! # Ok::<(), cct_core::SampleTreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod direction4;
mod mst;
mod phase;
mod report;
mod sampler;

pub use cct_sim::Workers;
pub use config::{
    Backend, EngineChoice, Placement, Precision, Rho, SamplerConfig, SchurComputation, Variant,
    WalkLength,
};
pub use direction4::{direction4_sample, Direction4Report};
pub use mst::{MstEngine, MstReport};
pub use phase::PhaseError;
pub use report::{PhaseMethod, PhaseReport, SampleReport};
pub use sampler::{validate, CliqueTreeSampler, PreparedSampler, SampleTreeError};
