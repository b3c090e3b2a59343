//! # cct-bench
//!
//! The experiment harness: one experiment per checked claim (E1, E3–E7,
//! E9–E12, E14, E17–E22, aux). The paper (PODC 2025) is a theory paper
//! with no measurement tables, so the "tables and figures" reproduced
//! here are its theorems, lemmas, and worked examples; each experiment's
//! doc comment in [`experiments`] names the claim its table checks. E2,
//! E8, E13, E15 and E16 repeated chi-square and marginal checks that the
//! workspace tests make; they are gone and their numbers are not reused.
//!
//! Run everything:
//!
//! ```sh
//! cargo run -p cct-bench --release --bin harness -- all
//! ```
//!
//! or a single experiment (`e1`, `e3`–`e7`, `e9`–`e12`, `e14`,
//! `e17`–`e22`, `aux`), with `--quick` for the reduced-size sweep.
//! `e18`–`e22` also write JSON reports, which [`gate`] checks against
//! the committed `BENCH_*.json` baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod util;
