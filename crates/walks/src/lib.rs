//! # cct-walks
//!
//! Random-walk primitives and the sequential spanning-tree samplers for
//! the `cct` workspace (Pemmaraju–Roy–Sobel, PODC 2025).
//!
//! * [`random_walk`] / [`first_visit_edges`] — elementary walk operations
//!   on weighted graphs (§1.1);
//! * [`aldous_broder`] — the classical sampler \[1, 12\] the paper
//!   distributes; [`wilson`] — the loop-erased baseline \[73\];
//! * [`estimate_cover_time`] — cover-time measurement (experiments E5,
//!   E11);
//! * [`stats`] — chi-square / TV machinery shared by every uniformity
//!   experiment.
//!
//! The top-down walk (Outline 1 and its truncated form of §2.1.2) has one
//! implementation, the distributed phase in `cct-core`; its tests check
//! the walk's law there, against exact enumeration and the step-by-step
//! walk.
//!
//! # Examples
//!
//! ```
//! use cct_graph::generators;
//! use cct_walks::{aldous_broder, wilson};
//! use rand::SeedableRng;
//!
//! let g = generators::petersen();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let t1 = aldous_broder(&g, 0, &mut rng)?;
//! let t2 = wilson(&g, 0, &mut rng)?;
//! assert_eq!(t1.edges().len(), 9);
//! assert_eq!(t2.edges().len(), 9);
//! # Ok::<(), cct_walks::SampleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aldous_broder;
mod cover;
pub mod stats;
mod strawman;
mod walk;
mod wilson;

pub use aldous_broder::{aldous_broder, aldous_broder_capped, SampleError};
pub use cover::{cover_time_once, estimate_cover_time, CoverTimeStats};
pub use strawman::{kruskal_by_keys, kruskal_mst, random_mst_distribution, random_weight_mst};
pub use walk::{
    distinct_vertices_in_walk, first_visit_edges, is_valid_walk, random_step, random_walk,
    time_to_visit_k_distinct,
};
pub use wilson::wilson;
