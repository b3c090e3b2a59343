//! # cct-sim
//!
//! A simulator for the **Congested Clique** model of distributed
//! computing (§1.6 of Pemmaraju–Roy–Sobel, PODC 2025).
//!
//! The model: `n` machines, one per vertex of the input graph; synchronous
//! rounds; each round every machine may exchange `O(log n)`-bit messages
//! with every other machine, and by Lenzen's routing theorem \[56\] a
//! machine can send and receive `O(n)` words per round regardless of the
//! destination pattern.
//!
//! The simulator runs all machines in one process. Machine-local state
//! lives in the protocol code; *all* cross-machine data movement goes
//! through [`Clique::route`] (or wrappers built on it), which both
//! delivers the payloads and charges the measured round cost — the
//! quantity every experiment reports — to a categorized [`RoundLedger`].
//!
//! Distributed matrix multiplication, the dominant per-phase cost of the
//! paper's algorithm, is provided by pluggable [`MatMulEngine`]s: a real
//! `O(n^{1/3})`-round [`SemiringEngine`] and the `O(n^α)` cost-model
//! [`FastOracleEngine`], which multiplies locally and charges the
//! published round cost instead of simulating the algebraic algorithm.
//! The paper uses that algorithm as a black box, so its analysis needs
//! only the cost.
//!
//! Local computation can run *concurrently* across machines — matching
//! the model, where rounds are synchronous but machines compute in
//! parallel — via the [`MachineProgram`] / [`ParallelClique`] round
//! engine: per-machine steps are sharded over a scoped worker pool, and
//! the exchange (plus every ledger charge) stays single-threaded, so
//! round costs and outputs are identical at any thread count.
//!
//! # Examples
//!
//! ```
//! use cct_sim::{Clique, CostCategory, Envelope};
//!
//! let mut clique = Clique::new(8);
//! // All-to-one: everyone reports a word to the leader.
//! let batches: Vec<Vec<u64>> = (0..8).map(|i| vec![i as u64]).collect();
//! let received = clique.gather(CostCategory::Gather, clique.leader(), batches, 1);
//! assert_eq!(received.len(), 8);
//! assert_eq!(clique.ledger().total_rounds(), 1); // 8 words ≤ n per round
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clique;
mod ledger;
mod matmul;
mod mst;
mod parallel;

pub use clique::{Clique, Envelope};
pub use ledger::{CostCategory, RoundLedger};
pub use matmul::{
    distributed_powers, distributed_powers_deferred, distributed_powers_p, BlockEngine,
    DeferredPowers, FastOracleEngine, MatMulEngine, SemiringEngine, UnitCostEngine, ALPHA,
};
pub use mst::{boruvka_mst, MstError, MstMsg, MstOutcome, MstProgram};
pub use parallel::{machine_seed, par_map, MachineProgram, ParallelClique, Workers};
