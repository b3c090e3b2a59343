//! Fingerprints of sampled trees and their round ledgers, for A/B checks
//! of changes that must not move a single draw.
//!
//! ```sh
//! cargo run -q --release --example tree_fingerprints [draws] > fp.txt
//! ```
//!
//! Prints one line per algorithm, graph spec, graph seed and draw seed:
//! an FNV-1a hash of the tree's edges and one of the ledger's
//! per-category rounds and words (by value, so a change in how the
//! ledger is represented or printed is not a false alarm). The graphs
//! and algorithms are the benchmark's four pairs — thm1 on
//! `regular:128:4` and `complete:128`, the exact variant on
//! `regular:64:4` and `complete:64` — at graph seeds 2025 and 77, each
//! drawn through a prepared sampler with draw seeds `0..draws` (200 by
//! default). Run it on two builds and `diff` the outputs: any line that
//! differs is a tree or a ledger that changed.

use cct::core::PreparedSampler;
use cct::graph::spec::parse_spec;
use cct::prelude::*;
use cct::sim::RoundLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAIRS: [(&str, &str); 4] = [
    ("thm1", "regular:128:4"),
    ("thm1", "complete:128"),
    ("exact", "regular:64:4"),
    ("exact", "complete:64"),
];
const GRAPH_SEEDS: [u64; 2] = [2025, 77];

/// FNV-1a, fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn tree_hash(edges: &[(usize, usize)]) -> u64 {
    let mut h = Fnv::new();
    for &(u, v) in edges {
        h.word(u as u64);
        h.word(v as u64);
    }
    h.0
}

fn ledger_hash(ledger: &RoundLedger) -> u64 {
    let mut h = Fnv::new();
    for c in CostCategory::ALL {
        h.word(ledger.rounds(c));
        h.word(ledger.words(c));
    }
    h.word(u64::from(ledger.saturated()));
    h.0
}

fn main() {
    let draws: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("draws must be a count"))
        .unwrap_or(200);
    for (algorithm, spec) in PAIRS {
        let config = match algorithm {
            "thm1" => SamplerConfig::new(),
            _ => SamplerConfig::exact_variant(),
        };
        let sampler = CliqueTreeSampler::new(config);
        for graph_seed in GRAPH_SEEDS {
            let g = parse_spec(spec, &mut StdRng::seed_from_u64(graph_seed)).expect("valid spec");
            let prepared: PreparedSampler = sampler.prepare(&g).expect("connected input");
            for seed in 0..draws {
                let report = prepared
                    .sample(&mut StdRng::seed_from_u64(seed))
                    .expect("draw succeeds");
                println!(
                    "{algorithm} {spec} graph-seed {graph_seed} seed {seed} tree {:016x} ledger {:016x}",
                    tree_hash(report.tree.edges()),
                    ledger_hash(&report.rounds),
                );
            }
        }
    }
}
