//! # cct-serve
//!
//! A multi-client batched sampling service over the `cct` spanning-tree
//! sampler — the serving layer the ROADMAP's "heavy traffic" north star
//! asks for, built on `cct-core`'s prepare-once/sample-many
//! [`cct_core::PreparedSampler`].
//!
//! Three layers, each usable on its own:
//!
//! * **Protocol** ([`SampleRequest`], [`SampleResponse`]) — a request
//!   names a graph spec, an algorithm (`thm1`/`exact`), a master seed,
//!   and a draw count; a response carries the sampled tree edges, the
//!   full [`cct_sim::RoundLedger`] per draw, and cache-hit metadata. On
//!   the wire both are one line of dependency-free JSON
//!   ([`cct_json::Json`]).
//! * **Service** ([`serve`], [`ServeHandle`], [`ServeOptions`]) — a
//!   `std::thread::scope` worker pool multiplexing jobs over an LRU
//!   cache of prepared samplers with **single-flight** preparation:
//!   concurrent requests for one (algorithm, graph) key prepare it
//!   exactly once ([`PreparedCache`]).
//! * **Wire** ([`serve_endpoint`], [`Client`], [`Endpoint`]) —
//!   line-delimited JSON over a Unix or TCP socket. One listener path
//!   serves both transports through a multiplexed event loop, and a
//!   `{"cmd": "shutdown"}` frame is its one drain trigger; one client
//!   type speaks whole frames to either. Malformed frames get
//!   structured `{"ok": false, "error": …}` responses, never a
//!   disconnect.
//!
//! # Determinism contract
//!
//! For a fixed (master seed, request), the served trees and ledgers are
//! **byte-identical** across worker counts, cache states (cold, warm,
//! evicted), and client arrival orders:
//!
//! * a graph spec denotes one fixed graph — randomized families seed
//!   their generator from [`spec_seed`], a pure function of the spec
//!   string, and `file:` specs, whose content could change under the
//!   same string, are refused;
//! * draw `i` of a request samples from a fresh RNG seeded with
//!   [`SampleRequest::draw_seed`]`(i)` =
//!   [`cct_sim::machine_seed`]`(seed, i)` — streams are derived, never
//!   dealt from shared state;
//! * the prepared path replays its cached ledger charges, so a cache
//!   hit returns the same ledger a cold run would
//!   ([`cct_core::PreparedSampler`]'s own contract).
//!
//! Cache-hit metadata is the one deliberate exception: it reports real
//! cache behavior and varies with arrival order.
//!
//! # Examples
//!
//! ```
//! use cct_serve::{serve, Algorithm, SampleRequest, ServeOptions};
//!
//! serve(ServeOptions::new().workers(2).cache_capacity(4), |handle| {
//!     let response = handle
//!         .request(SampleRequest::new("complete:8").seed(1).count(2))
//!         .unwrap();
//!     assert_eq!(response.draws.len(), 2);
//!     for draw in &response.draws {
//!         assert_eq!(draw.edges.len(), 7); // a spanning tree of K8
//!         assert!(draw.ledger.total_rounds() > 0);
//!     }
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod mux;
mod request;
mod service;
pub mod snapshot;
pub mod stats;
mod wire;

pub use cache::{CacheInfo, CacheKey, CacheStats, PreparedCache};
pub use request::{
    spec_seed, Algorithm, ControlCommand, ProtocolError, SampleRequest, WireFrame, MAX_COUNT,
    MAX_SPEC_LEN,
};
pub use service::{
    error_frame, serve, Draw, Pending, SampleResponse, ServeError, ServeHandle, ServeOptions,
};
pub use snapshot::RestoreSummary;
pub use stats::{LatencyHistogram, ServeStats};
pub use wire::{serve_endpoint, Client, Endpoint, MAX_FRAME_LEN};

// Re-exported so service clients replaying draws cold don't need a
// direct cct-sim dependency for the derivation hash.
pub use cct_sim::machine_seed;
