//! Concurrency stress of the sampling service: 8 client threads hammer
//! a small (4-entry) LRU cache with 64 mixed requests, and every served
//! draw must be **bit-identical** to a cold single-threaded
//! `CliqueTreeSampler` run at the same derived seed — the service's
//! determinism contract, enforced across worker counts, cache
//! capacities (cold/warm/evicted), and client arrival orders. A second
//! part pins single-flight: with all keys fitting in the cache, each
//! key is prepared exactly once no matter how many clients race
//! (asserted through the cache's prepare counters).

use cct_core::{CliqueTreeSampler, EngineChoice, SamplerConfig, WalkLength};
use cct_graph::spec::parse_spec;
use cct_serve::{serve, spec_seed, Algorithm, CacheKey, Draw, SampleRequest, ServeOptions};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};

/// The stress configuration: cheap walks, unit-cost engine — results
/// still exercise every phase/cache/seed-derivation path.
fn quick_config() -> SamplerConfig {
    SamplerConfig::new()
        .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
        .engine(EngineChoice::UnitCost)
}

fn options(workers: usize, cache_capacity: usize) -> ServeOptions {
    ServeOptions::new()
        .workers(workers)
        .cache_capacity(cache_capacity)
        .config(Algorithm::Thm1, quick_config())
        .config(Algorithm::Exact, quick_config())
}

/// The 64-request mixed workload: 6 distinct graph keys (> the 4-entry
/// cache, so eviction churn is guaranteed), two algorithms, 5 seeds,
/// counts 1–3. Request `i` is a pure function of `i`, so every run of
/// every configuration serves the same multiset.
fn workload() -> Vec<SampleRequest> {
    const SPECS: [&str; 6] = [
        "petersen",
        "complete:9",
        "grid:3x3",
        "cycle:8",
        "wheel:9",
        "kdense:9",
    ];
    (0..64u64)
        .map(|i| {
            let algorithm = if i % 8 == 7 {
                Algorithm::Exact
            } else {
                Algorithm::Thm1
            };
            SampleRequest::new(SPECS[(i as usize) % SPECS.len()])
                .algorithm(algorithm)
                .seed(7000 + i % 5)
                .count(1 + (i % 3) as u32)
        })
        .collect()
}

/// Cold ground truth for one request: a fresh graph from the spec seed
/// and a fresh single-threaded sampler per draw, exactly as the
/// protocol documents.
fn cold_draws(request: &SampleRequest) -> Vec<Draw> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec_seed(&request.graph_spec));
    let graph = parse_spec(&request.graph_spec, &mut rng).expect("workload specs are valid");
    let sampler = CliqueTreeSampler::new(quick_config());
    (0..request.count)
        .map(|i| {
            let draw_seed = request.draw_seed(i);
            let mut rng = rand::rngs::StdRng::seed_from_u64(draw_seed);
            let report = sampler.sample(&graph, &mut rng).expect("samples");
            Draw {
                draw_seed,
                edges: report.tree.edges().to_vec(),
                ledger: report.rounds,
                monte_carlo_failure: report.monte_carlo_failure,
            }
        })
        .collect()
}

/// Runs the workload through a service with 8 client threads and
/// returns the draws per request index.
fn serve_workload(workers: usize, cache_capacity: usize) -> Vec<Vec<Draw>> {
    let requests = workload();
    let results: Mutex<Vec<Option<Vec<Draw>>>> = Mutex::new(vec![None; requests.len()]);
    serve(options(workers, cache_capacity), |handle| {
        std::thread::scope(|s| {
            for client in 0..8usize {
                let handle = handle.clone();
                let requests = &requests;
                let results = &results;
                s.spawn(move || {
                    // Thread `c` serves request indices c, c+8, c+16, …:
                    // all 64 requests covered, arrival order scrambled
                    // by scheduling.
                    for idx in (client..requests.len()).step_by(8) {
                        let response = handle
                            .request(requests[idx].clone())
                            .unwrap_or_else(|e| panic!("request {idx}: {e}"));
                        results.lock().unwrap()[idx] = Some(response.draws);
                    }
                });
            }
        });
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every request served"))
        .collect()
}

#[test]
fn contended_service_matches_cold_singlethreaded_runs() {
    // 8 clients × 4-entry LRU: the canonical stress shape.
    let served = serve_workload(4, 4);
    for (idx, (request, draws)) in workload().iter().zip(&served).enumerate() {
        let cold = cold_draws(request);
        assert_eq!(
            draws, &cold,
            "request {idx} ({}:{} seed {} count {}) diverged from cold",
            request.algorithm, request.graph_spec, request.seed, request.count
        );
    }
}

#[test]
fn determinism_holds_across_workers_and_cache_states() {
    // Same workload through three very different services: sequential
    // with a roomy cache (no eviction), 4 workers with the 4-entry
    // cache (steady churn), 8 workers with a 1-entry cache (every
    // request all but guaranteed to re-prepare). Draws must agree
    // everywhere — the acceptance criterion's worker counts {1, 4, 8}
    // and cache states cold/warm/evicted.
    let reference = serve_workload(1, 16);
    for (workers, capacity) in [(4usize, 4usize), (8, 1)] {
        let served = serve_workload(workers, capacity);
        assert_eq!(
            served, reference,
            "draws changed at workers = {workers}, cache = {capacity}"
        );
    }
}

#[test]
fn determinism_holds_through_snapshot_restore() {
    // The acceptance matrix's third cache state: **restored**. Serve
    // the whole workload, snapshot the prepared cache, restart from
    // the snapshot, and replay — draws must match the cold reference
    // bit for bit, and the restored service must not prepare a single
    // key (12 keys, 16-entry cache, so nothing was evicted from the
    // snapshot).
    let dir = std::env::temp_dir().join(format!("cct-stress-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.snapshot");
    let reference = serve_workload(1, 16);
    serve(options(4, 16), |handle| {
        for request in workload() {
            handle.request(request).unwrap();
        }
        handle.write_snapshot(&path).unwrap();
    });
    serve(options(4, 16).snapshot(&path), |handle| {
        let restored: Vec<Vec<Draw>> = workload()
            .into_iter()
            .map(|request| handle.request(request).unwrap().draws)
            .collect();
        assert_eq!(restored, reference, "restored draws diverged from cold");
        assert_eq!(
            handle.cache_stats().total_prepares(),
            0,
            "restored cache re-prepared a key"
        );
    });
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn single_flight_prepares_each_key_exactly_once() {
    // 4 keys, 4-entry cache, 8 clients racing on a barrier so all
    // first-arrivals pile onto cold keys simultaneously. No evictions
    // are possible, so every key must be prepared exactly once.
    const SPECS: [&str; 4] = ["petersen", "complete:9", "grid:3x3", "cycle:8"];
    let barrier = Barrier::new(8);
    serve(options(4, 4), |handle| {
        std::thread::scope(|s| {
            for client in 0..8usize {
                let handle = handle.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    // Stagger per-thread key order so every key sees
                    // concurrent first requests.
                    for i in 0..SPECS.len() {
                        let spec = SPECS[(i + client) % SPECS.len()];
                        handle
                            .request(SampleRequest::new(spec).seed(client as u64))
                            .unwrap();
                    }
                });
            }
        });
        let stats = handle.cache_stats();
        let expected: BTreeMap<CacheKey, u64> = SPECS
            .iter()
            .map(|&s| {
                (
                    CacheKey {
                        algorithm: Algorithm::Thm1,
                        backend: cct_core::Backend::Auto,
                        graph_spec: s.into(),
                    },
                    1,
                )
            })
            .collect();
        assert_eq!(
            stats.prepares, expected,
            "single-flight violated: some key prepared more than once"
        );
        assert_eq!(stats.misses, 4, "one miss per key");
        assert_eq!(stats.hits, 8 * 4 - 4);
        assert_eq!(stats.evictions, 0);
    });
}

#[test]
fn eviction_churn_still_prepares_deterministically() {
    // 6 keys through a 4-entry cache, twice over: the second pass
    // re-prepares whatever was evicted, and the cache's prepare
    // counters record the churn — but the served draws never change
    // (covered above); here we pin that the counters only ever grow by
    // whole re-preparations, i.e. prepares ≥ 1 per key and
    // misses = total prepares.
    serve(options(2, 4), |handle| {
        for pass in 0..2 {
            for spec in [
                "petersen",
                "complete:9",
                "grid:3x3",
                "cycle:8",
                "wheel:9",
                "kdense:9",
            ] {
                handle.request(SampleRequest::new(spec).seed(pass)).unwrap();
            }
        }
        let stats = handle.cache_stats();
        assert_eq!(stats.prepares.len(), 6);
        assert!(stats.prepares.values().all(|&c| c >= 1));
        assert_eq!(stats.misses, stats.total_prepares());
        assert!(stats.evictions > 0, "6 keys cannot fit in 4 entries");
        assert_eq!(stats.len, 4, "table stays at capacity");
    });
}
