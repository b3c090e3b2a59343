//! `cct` — command-line spanning-tree sampling on the simulated
//! Congested Clique.
//!
//! ```sh
//! cct thm1 --graph er:32:0.3 --seed 7
//! cct doubling --graph kdense:25 --dot
//! cct wilson --graph petersen --trials 3
//! cct --help
//! ```

use cct::core::{direction4_sample, CliqueTreeSampler, SamplerConfig, Workers};
use cct::graph::{Graph, SpanningTree};
use cct::prelude::*;
use cct::sim::Clique;
use rand::SeedableRng;
use std::process::ExitCode;

const HELP: &str = "\
cct — sample spanning trees in the (simulated) Congested Clique

USAGE:
    cct <ALGORITHM> [OPTIONS]
    cct serve --listen ADDR [SERVE OPTIONS]
    cct request --connect ADDR [REQUEST OPTIONS]

ALGORITHMS:
    thm1           the paper's main sampler, Õ(n^{1/2+α}) rounds (default)
    exact          the Appendix exact variant, Õ(n^{2/3+α}) rounds
    mst            Borůvka minimum spanning tree (deterministic,
                   O(log n) rounds; ties break by the (w, u, v) order)
    doubling       Corollary 1: Aldous-Broder over doubling walks
    direction4     the §1.4 'Direction 4' prototype (doubling per phase)
    aldous-broder  sequential baseline
    wilson         sequential loop-erased baseline
    mst-strawman   random-weight MST (BIASED — §1.4's counterexample)

OPTIONS:
    --graph SPEC   input graph (default complete:16). SPECs:
                   complete:N  cycle:N  path:N  star:N  wheel:N
                   grid:RxC  torus:RxC  hypercube:D  binarytree:D
                   petersen  diamond  barbell:K  lollipop:K:T
                   bipartite:AxB  kdense:N  er:N:P  regular:N:D
                   any family but file takes a -w suffix (er-w:N:P,
                   grid-w:RxC, ...): same topology, deterministic
                   integer edge weights in 1..=8; thm1/exact then
                   sample trees with probability ∝ ∏ edge weights
                   file:PATH (streaming edge-list loader — million-
                   vertex graphs; '#' comments; whitespace-separated;
                   vertices are 0-based ids; lines are 'u v' or
                   'u v w' but never a mix)
                   Size caps follow the algorithm (default cap 8192;
                   CCT_MAX_N is the single override for every cap,
                   including file: loads). mst, doubling and direction4
                   hold n^2 state, so every spec is held to the cap.
                   thm1, exact and the sequential baselines keep sparse
                   inputs sparse: cycle, path, star and low-density er
                   go to 8x the cap, and file: loads are uncapped (a
                   file naming more vertices than its edge count + 1
                   cannot be connected and is refused). thm1/exact
                   store the transition matrix in CSR for large sparse
                   inputs and take inputs whose dense doubling table
                   would exceed 2 GiB out of core: CSR-only state,
                   streamed phase walks, no n^2 allocation. Trees and
                   round counts never depend on the representation.
    --seed N       RNG seed (default 2025)
    --trials N     sample N trees (default 1); thm1 and exact prepare
                   the graph once and draw all N from it
    --parallel     run thm1/exact on the parallel round engine (worker
                   count auto-detected; CCT_WORKERS overrides)
    --workers N    parallel round engine with exactly N workers
                   (implies --parallel; same seed gives the same tree
                   and round counts at every worker count)
    --dot          print the tree as Graphviz instead of an edge list
    --help         this text

SERVE OPTIONS (cct serve — the batched sampling service):
    --listen ADDR      unix:PATH or HOST:PORT (port 0 binds ephemerally;
                       the bound address is printed as 'serving on ADDR')
    --workers N        service worker threads (default: CCT_WORKERS or
                       the machine's parallelism)
    --cache N          PreparedSampler LRU capacity (default 16)
    --max-conns N      bound on CONCURRENT connections (default 256);
                       a connection over the bound is answered with one
                       {\"ok\": false, \"error\": \"overloaded\"} frame
                       and closed — the server never self-terminates
    --max-inflight N   bound on queued sampling jobs (default 4x the
                       worker count); a request over the bound gets an
                       'overloaded' error frame in its reply slot
    --read-timeout S   close a connection that has been idle for S
                       seconds (default 30; 0 disables the timeout)
    --snapshot PATH    record the cache's keys in PATH on
                       {\"cmd\": \"snapshot\"} frames and graceful
                       shutdown, and prepare and warm every key in PATH
                       at startup (a corrupt file starts cold)
    --accept-limit N   test valve: stop accepting after N lifetime
                       connections and exit once they all close
    The endpoint also answers control frames on any connection:
    {\"cmd\": \"stats\"} (counters + latency histograms),
    {\"cmd\": \"snapshot\"} (persist the cache now), and
    {\"cmd\": \"shutdown\"} (graceful drain: stop accepting, flush
    every in-flight reply, exit).

REQUEST OPTIONS (cct request — one request against a running service):
    --connect ADDR   unix:PATH or HOST:PORT
    --graph SPEC     graph spec (default complete:16); caps as for the
                     CLI, with mst held to the dense cap. The service
                     refuses file: specs: it never opens a path a
                     client names
    --algorithm A    thm1, exact, or mst (default thm1)
    --seed N         master seed; draw i runs at machine_seed(N, i)
    --count K        trees to draw (default 1)
    --stats          print the server's stats frame as JSON and exit
    --shutdown       ask the server to drain gracefully and exit
    Trees print to stdout ('tree: …' lines, identical across replays);
    rounds and cache metadata print to stderr.
";

/// Builds the graph a `--graph` spec describes; the grammar and all
/// domain/size validation live in [`cct::graph::spec`], shared with the
/// sampling service's `graph_spec` request field. The algorithm sets
/// the size caps: thm1 and exact run large sparse inputs out of core in
/// CSR and the sequential baselines hold O(m) state, so they admit
/// sparse-friendly specs past the dense cap; mst, direction4 and
/// doubling hold Θ(n²) state and keep it.
fn parse_graph(spec: &str, algorithm: &str, rng: &mut rand::rngs::StdRng) -> Result<Graph, String> {
    let limits = cct::graph::spec::SpecLimits {
        keeps_sparse: matches!(
            algorithm,
            "thm1" | "exact" | "wilson" | "aldous-broder" | "mst-strawman"
        ),
        ..cct::graph::spec::SpecLimits::from_env()
    };
    cct::graph::spec::parse_spec_with_limits(spec, rng, &limits)
        .map_err(|e| format!("{e} (see --help)"))
}

fn print_tree(tree: &SpanningTree, dot: bool) {
    if dot {
        println!("graph spanning_tree {{");
        for &(u, v) in tree.edges() {
            println!("  {u} -- {v};");
        }
        println!("}}");
    } else {
        let edges: Vec<String> = tree
            .edges()
            .iter()
            .map(|(u, v)| format!("{u}-{v}"))
            .collect();
        println!("tree: {}", edges.join(" "));
    }
}

/// `cct serve`: bind the endpoint and serve until drained (a
/// `{"cmd": "shutdown"}` frame) or, under the `--accept-limit` test
/// valve, until that many lifetime connections have come and gone.
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut listen: Option<String> = None;
    let mut options = cct::serve::ServeOptions::new();
    let mut accept_limit: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>, what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--listen" => listen = Some(value(&mut it, "--listen")?),
            "--workers" => {
                let k: usize = value(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "bad worker count")?;
                if k == 0 {
                    return Err("--workers must be at least 1".into());
                }
                options = options.workers(k);
            }
            "--cache" => {
                let k: usize = value(&mut it, "--cache")?
                    .parse()
                    .map_err(|_| "bad cache capacity")?;
                if k == 0 {
                    return Err("--cache must be at least 1".into());
                }
                options = options.cache_capacity(k);
            }
            "--max-conns" => {
                let k: usize = value(&mut it, "--max-conns")?
                    .parse()
                    .map_err(|_| "bad connection count")?;
                if k == 0 {
                    return Err("--max-conns must be at least 1".into());
                }
                options = options.max_concurrent(k);
            }
            "--max-inflight" => {
                let k: usize = value(&mut it, "--max-inflight")?
                    .parse()
                    .map_err(|_| "bad in-flight bound")?;
                if k == 0 {
                    return Err("--max-inflight must be at least 1".into());
                }
                options = options.max_inflight(k);
            }
            "--read-timeout" => {
                let secs: u64 = value(&mut it, "--read-timeout")?
                    .parse()
                    .map_err(|_| "bad timeout (whole seconds; 0 disables)")?;
                options = options.read_timeout(if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs))
                });
            }
            "--snapshot" => options = options.snapshot(value(&mut it, "--snapshot")?),
            "--accept-limit" => {
                accept_limit = Some(
                    value(&mut it, "--accept-limit")?
                        .parse()
                        .map_err(|_| "bad connection count")?,
                );
            }
            other => return Err(format!("unknown serve option '{other}' (see --help)")),
        }
    }
    let listen = listen.ok_or("serve needs --listen (see --help)")?;
    let endpoint = cct::serve::Endpoint::parse(&listen).map_err(|e| e.to_string())?;
    cct::serve::serve_endpoint(&endpoint, options, accept_limit, |addr| {
        // Printed on stdout (and flushed by println!'s line buffering)
        // so scripts can scrape the resolved address.
        println!("serving on {addr}");
    })
    .map_err(|e| e.to_string())
}

/// `cct request`: one request/response exchange against a running
/// service. Trees go to stdout (stable across replays); rounds and
/// cache metadata go to stderr.
fn run_request(args: &[String]) -> Result<(), String> {
    let mut connect: Option<String> = None;
    let mut command: Option<cct::serve::ControlCommand> = None;
    let mut request = cct::serve::SampleRequest::new("complete:16");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>, what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value(&mut it, "--connect")?),
            "--graph" => request.graph_spec = value(&mut it, "--graph")?,
            "--algorithm" => {
                let name = value(&mut it, "--algorithm")?;
                request.algorithm = cct::serve::Algorithm::parse(&name)
                    .ok_or(format!("unknown algorithm '{name}' (thm1, exact, or mst)"))?;
            }
            "--seed" => {
                request.seed = value(&mut it, "--seed")?.parse().map_err(|_| "bad seed")?;
            }
            "--count" => {
                request.count = value(&mut it, "--count")?
                    .parse()
                    .map_err(|_| "bad count")?;
            }
            "--stats" => command = Some(cct::serve::ControlCommand::Stats),
            "--shutdown" => command = Some(cct::serve::ControlCommand::Shutdown),
            other => return Err(format!("unknown request option '{other}' (see --help)")),
        }
    }
    let connect = connect.ok_or("request needs --connect (see --help)")?;
    let endpoint = cct::serve::Endpoint::parse(&connect).map_err(|e| e.to_string())?;
    let frame = cct::serve::Client::connect(&endpoint)
        .and_then(|mut client| {
            client.exchange(&command.map_or_else(|| request.to_json(), |c| c.to_json()))
        })
        .map_err(|e| e.to_string())?;
    // Control frames print the server's reply verbatim and exit — they
    // carry no draws to unpack.
    if command.is_some() {
        println!("{}", frame.pretty());
        return Ok(());
    }
    let missing = || "malformed response frame".to_string();
    let draws = frame
        .get("draws")
        .and_then(|d| d.as_arr())
        .ok_or_else(missing)?;
    for draw in draws {
        let edges = draw
            .get("edges")
            .and_then(|e| e.as_arr())
            .ok_or_else(missing)?;
        let rendered: Vec<String> = edges
            .iter()
            .map(|e| {
                let pair = e.as_arr().ok_or_else(missing)?;
                let u = pair.first().and_then(|v| v.as_u64()).ok_or_else(missing)?;
                let v = pair.get(1).and_then(|v| v.as_u64()).ok_or_else(missing)?;
                Ok(format!("{u}-{v}"))
            })
            .collect::<Result<_, String>>()?;
        println!("tree: {}", rendered.join(" "));
        let rounds = draw.get("rounds").and_then(|r| r.as_u64()).unwrap_or(0);
        eprintln!("rounds: {rounds}");
        if draw.get("failure").is_some() {
            eprintln!("WARNING: Monte Carlo failure — arbitrary tree emitted");
        }
    }
    if let Some(cache) = frame.get("cache") {
        eprintln!(
            "cache: hit = {}, prepares = {}",
            cache.get("hit").map_or("?".into(), |h| h.compact()),
            cache.get("prepares").and_then(|p| p.as_u64()).unwrap_or(0)
        );
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return Ok(());
    }
    // The service subcommands have their own option grammars; dispatch
    // before the sampler CLI parses anything.
    match args.first().map(String::as_str) {
        Some("serve") => return run_serve(&args[1..]),
        Some("request") => return run_request(&args[1..]),
        _ => {}
    }
    let mut algorithm = "thm1".to_string();
    let mut graph_spec = "complete:16".to_string();
    let mut seed = 2025u64;
    let mut trials = 1usize;
    let mut dot = false;
    let mut workers = Workers::Sequential;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--graph" => graph_spec = it.next().ok_or("--graph needs a value")?,
            "--parallel" => {
                if workers == Workers::Sequential {
                    workers = Workers::Auto;
                }
            }
            "--workers" => {
                let k: usize = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|_| "bad worker count")?;
                if k == 0 {
                    return Err("--workers must be at least 1".into());
                }
                workers = Workers::Fixed(k);
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad seed")?
            }
            "--trials" => {
                trials = it
                    .next()
                    .ok_or("--trials needs a value")?
                    .parse()
                    .map_err(|_| "bad trial count")?
            }
            "--dot" => dot = true,
            other if !other.starts_with("--") => algorithm = other.to_string(),
            other => return Err(format!("unknown option '{other}' (see --help)")),
        }
    }

    // The parallel round engine backs the phase samplers and the MST
    // engine; reject the flags elsewhere rather than silently running
    // sequentially.
    if workers != Workers::Sequential && !matches!(algorithm.as_str(), "thm1" | "exact" | "mst") {
        return Err(format!(
            "--parallel/--workers only apply to the parallelized engines (thm1, exact, mst); \
             '{algorithm}' is not parallelized (see --help)"
        ));
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let g = parse_graph(&graph_spec, &algorithm, &mut rng)?;
    eprintln!("graph: {} — n = {}, m = {}", graph_spec, g.n(), g.m());

    // thm1 and exact prepare the graph once (input check, transition
    // matrix, phase-1 power table) and draw every trial from it: a draw
    // depends only on the seed stream, so the trees are those of fresh
    // runs. The walk samplers share the input check: a disconnected
    // graph or a weight ratio past 2^20 is an error up front, not a walk
    // that never covers the graph. (mst is exact on any positive
    // weights.)
    let prepared = match algorithm.as_str() {
        "thm1" | "exact" => {
            let config = if algorithm == "exact" {
                SamplerConfig::exact_variant()
            } else {
                SamplerConfig::new()
            };
            // The effective engine width is max(threads, workers): an
            // explicit worker policy must be exact, so only the
            // sequential default keeps the legacy 4-thread matmul.
            let config = match workers {
                Workers::Sequential => config.threads(4),
                _ => config.threads(1),
            };
            let sampler = CliqueTreeSampler::new(config.workers(workers));
            Some(sampler.prepare(&g).map_err(|e| e.to_string())?)
        }
        "doubling" | "aldous-broder" | "wilson" => {
            cct::core::validate(&g).map_err(|e| e.to_string())?;
            None
        }
        _ => None,
    };
    for t in 0..trials {
        if trials > 1 {
            eprintln!("— trial {}", t + 1);
        }
        if let Some(prepared) = &prepared {
            let report = prepared.sample(&mut rng).map_err(|e| e.to_string())?;
            print_tree(&report.tree, dot);
            eprintln!(
                "rounds: {} over {} phases ({})",
                report.total_rounds(),
                report.num_phases(),
                report.rounds
            );
            if report.monte_carlo_failure {
                eprintln!("WARNING: Monte Carlo failure — arbitrary tree emitted");
            }
            continue;
        }
        match algorithm.as_str() {
            "doubling" => {
                let mut clique = Clique::new(g.n());
                let (tree, segments) =
                    sample_tree_via_doubling(&mut clique, &g, 2.0, 100_000, &mut rng)
                        .map_err(|e| e.to_string())?;
                print_tree(&tree, dot);
                eprintln!(
                    "rounds: {} over {segments} doubling segments",
                    clique.ledger().total_rounds()
                );
            }
            "direction4" => {
                let report = direction4_sample(&g, 1.0, &mut rng).map_err(|e| e.to_string())?;
                print_tree(&report.tree, dot);
                eprintln!(
                    "rounds: {} over {} phases; new vertices per phase: {:?}",
                    report.rounds.total_rounds(),
                    report.phases,
                    report.new_per_phase
                );
            }
            "aldous-broder" => {
                let tree = aldous_broder(&g, 0, &mut rng).map_err(|e| e.to_string())?;
                print_tree(&tree, dot);
            }
            "wilson" => {
                let tree = wilson(&g, 0, &mut rng).map_err(|e| e.to_string())?;
                print_tree(&tree, dot);
            }
            "mst" => {
                let report = cct::core::MstEngine::new()
                    .workers(workers)
                    .run(&g)
                    .map_err(|e| e.to_string())?;
                print_tree(&report.tree, dot);
                eprintln!(
                    "rounds: {} over {} Borůvka phases, tree weight {} ({})",
                    report.rounds.total_rounds(),
                    report.phases,
                    report.total_weight,
                    report.rounds
                );
            }
            "mst-strawman" => {
                let tree =
                    cct::walks::random_weight_mst(&g, &mut rng).map_err(|e| e.to_string())?;
                print_tree(&tree, dot);
                eprintln!("NOTE: this sampler is intentionally biased (§1.4)");
            }
            other => return Err(format!("unknown algorithm '{other}' (see --help)")),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
