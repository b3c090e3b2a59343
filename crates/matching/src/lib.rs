//! # cct-matching
//!
//! Weighted perfect-matching samplers for midpoint placement — §1.8 and
//! Lemma 3 of Pemmaraju–Roy–Sobel (PODC 2025).
//!
//! To stay within bandwidth, the paper's leader machine receives only the
//! *multiset* of generated midpoints and re-samples their positions by
//! drawing a weighted perfect matching of a complete bipartite graph
//! whose edge weights depend only on (midpoint value, start–end pair).
//! [`MatchingInstance`] captures exactly that grouped structure;
//! [`ExactPermanentSampler`] (Ryser + the JVV reduction \[47\]) draws
//! perfect samples on small instances, and [`SwapChainSampler`] is the
//! repository's MCMC stand-in for the Jerrum–Sinclair–Vigoda FPRAS \[46\]:
//! the FPRAS is a polynomial-time approximation scheme whose constants
//! make it impractical to run, while the swap chain has exactly the
//! target law as its stationary distribution (checked against the exact
//! sampler in experiment E9). [`sample_per_group_shuffle`] implements
//! the Appendix §5.3 error-free per-pair placement used by the exact
//! sampler variant.
//!
//! # Examples
//!
//! ```
//! use cct_matching::{ExactPermanentSampler, MatchingInstance};
//! use rand::SeedableRng;
//!
//! // Place 2 copies of midpoint 0 and 1 copy of midpoint 1 into a group
//! // of two positions and a group of one, with skewed weights.
//! let inst = MatchingInstance::new(
//!     vec![2, 1],
//!     vec![2, 1],
//!     vec![vec![1.0, 2.0], vec![3.0, 1.0]],
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let a = ExactPermanentSampler.sample(&inst, &mut rng).unwrap();
//! assert!(inst.is_consistent(&a));
//! # Ok::<(), cct_matching::InstanceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod instance;
mod samplers;

pub use instance::{Assignment, InstanceError, MatchingInstance};
pub use samplers::{
    sample_per_group_shuffle, ExactPermanentSampler, MatchingError, SwapChainSampler,
    MAX_EXACT_SLOTS,
};
