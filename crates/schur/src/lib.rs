//! # cct-schur
//!
//! The derivative graphs of §1.7: the **Schur complement**
//! `Schur(G, S)` (walk on `G` watched on `S`; used to skip vertices
//! visited in earlier phases) and the **shortcut graph**
//! `ShortCut(G, S)` (recovers first-visit edges in `G` from a Schur
//! walk), together with the first-visit-edge sampler of Algorithm 4.
//!
//! Both graphs come in two constructions, mirroring the paper: an exact
//! linear-algebra reference (Definition 1 / fundamental matrix) and the
//! distributed iterated-squaring route of Corollaries 2–3 whose
//! multiplication counts the phase engine charges to the round ledger.
//!
//! The worked example of the paper's Figure 2 (star with centre `C`,
//! `S = {A, B, D}`) is reproduced in this crate's tests and in the
//! `schur_playground` example.
//!
//! # Examples
//!
//! ```
//! use cct_graph::Graph;
//! use cct_schur::{schur_transition_exact, VertexSubset};
//!
//! // Figure 2: star with centre C=2 and leaves 0, 1, 3; S = {0, 1, 3}.
//! let g = Graph::from_edges(4, &[(0, 2), (1, 2), (3, 2)])?;
//! let s = VertexSubset::new(4, &[0, 1, 3]);
//! let t = schur_transition_exact(&g, &s);
//! assert!((t[(0, 1)] - 0.5).abs() < 1e-12); // uniform transitions
//! # Ok::<(), cct_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[allow(clippy::module_inception)]
mod schur;
mod shortcut;
mod subset;

pub use schur::{
    entry_matrix, schur_graph, schur_laplacian, schur_transition_exact,
    schur_transition_from_shortcut_p, schur_transition_with_weights, subset_wdeg,
};
pub use shortcut::{
    absorbing_chain, absorbing_chain_blocks, sample_first_visit_edge, sample_first_visit_edge_with,
    shortcut_by_squaring, shortcut_by_squaring_dense, shortcut_exact,
};
pub use subset::VertexSubset;
