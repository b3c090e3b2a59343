//! # cct-bench
//!
//! The experiment harness: one experiment per checked claim (E1–E22,
//! aux). The paper (PODC 2025) is a theory paper with no measurement
//! tables, so the "tables and figures" reproduced here are its theorems,
//! lemmas, and worked examples; each experiment's doc comment in
//! [`experiments`] names the claim its table checks.
//!
//! Run everything:
//!
//! ```sh
//! cargo run -p cct-bench --release --bin harness -- all
//! ```
//!
//! or a single experiment (`e1`–`e22`, `aux`), with `--quick` for the
//! reduced-size sweep. `e18`–`e22` also write JSON reports, which
//! [`gate`] checks against the committed `BENCH_*.json` baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod util;

// The JSON module grew a second consumer (the `cct-serve` wire protocol)
// and moved to its own crate; this alias keeps `cct_bench::json::Json`
// working for the harness and the baseline-gate callers.
pub use cct_json as json;
