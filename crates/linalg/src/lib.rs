//! # cct-linalg
//!
//! Dense linear algebra for the `cct` workspace — the numerical substrate
//! beneath the Congested Clique spanning-tree sampler of Pemmaraju, Roy
//! and Sobel (PODC 2025).
//!
//! The paper's algorithm is built almost entirely out of operations on the
//! random-walk transition matrix `P` of the input graph:
//!
//! * iterated squaring to obtain `P, P², P⁴, …, P^ℓ` (Algorithm 1),
//!   with the fixed-point truncation of Lemma 7 ([`rounding`]);
//! * categorical sampling from rows and entry products
//!   (Formula 1, [`stochastic`]);
//! * exact determinants for Matrix–Tree ground truths ([`Lu`],
//!   [`det_exact`]);
//! * permanents for weighted perfect-matching sampling (§1.8,
//!   [`permanent`]).
//!
//! # Examples
//!
//! ```
//! use cct_linalg::{powers_of_two, sample_index, Matrix};
//! use rand::SeedableRng;
//!
//! // Transition matrix of a 2-path: 0 — 1.
//! let p = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
//! let table = powers_of_two(&p, 3, 1); // P, P², P⁴
//! assert_eq!(table[2][(0, 0)], 1.0);   // even powers return home
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let next = sample_index(&mut rng, table[0].row(0)).unwrap();
//! assert_eq!(next, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod kernel;
mod lu;
mod matrix;
mod permanent;
mod pmatrix;
pub mod rounding;
mod sparse;
pub mod stochastic;

pub use exact::{det_exact, ExactOverflowError};
pub use lu::{det, inverse, Lu, SingularMatrixError};
pub use matrix::Matrix;
pub use permanent::{permanent, permanent_minor, permanent_naive, MAX_PERMANENT_DIM};
pub use pmatrix::{PMatrix, Repr};
pub use rounding::{powers_rounded, subtractive_error, FixedPoint, Rounding};
pub use sparse::{CsrBuilder, CsrMatrix};
pub use stochastic::{
    is_row_stochastic, is_row_substochastic, normalize_rows, power_from_table, power_from_table_p,
    powers_of_two, powers_of_two_p, sample_index, table_fill_profile, table_resident_bytes,
    total_variation, LevelFill,
};
