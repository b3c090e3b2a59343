//! `loadgen` — drive a live `cct serve` endpoint and record
//! throughput, latency quantiles, and the multiplexing speedup.
//!
//! ```sh
//! cct serve --listen unix:/tmp/cct.sock --max-inflight 32 &
//! cargo run -p cct-bench --release --bin loadgen -- \
//!     --connect unix:/tmp/cct.sock --json BENCH_serve.json \
//!     --baseline BENCH_serve.json
//! ```
//!
//! Phases against a **freshly started** server:
//!
//! 1. **cold** — one sequential request per (algorithm, spec) pair in
//!    the workload, timing the prepare-dominated first touches;
//! 2. **replay** — the same request on two fresh connections; the
//!    draws must be byte-identical (the service determinism contract —
//!    a mismatch is a hard failure, not a gate miss);
//! 3. **sequential / warm**, interleaved best-of-[`TRIALS`]:
//!    *sequential* runs cache-hit requests in strict ping-pong on ONE
//!    connection (one round trip per request — the serial floor);
//!    *warm* runs them over `--concurrency` connections, each keeping
//!    a `--window` of requests in flight (pipelined frames).
//!
//! The report's gated metric is `concurrency_speedup`: the median over
//! trial pairs of warm throughput ÷ sequential throughput. Each pair
//! runs back to back on the same machine, so the ratio is
//! machine-independent and robust to load drift; it collapses to ×1
//! if the multiplexed front-end stops overlapping requests (e.g.
//! reads one frame per round trip, or serializes connections).
//! `--baseline` applies its bound from the rule table in
//! `cct_bench::gate`. Throughput and p50/p99 are recorded but not
//! gated (wall-clock is machine-dependent). Requests refused with the
//! server's `overloaded` backpressure frame are re-sent after a short
//! backoff and counted, never dropped.

use cct_bench::{gate, json::Json};
use cct_serve::{exchange, exchange_frame, Algorithm, ControlCommand, Endpoint, SampleRequest};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const HELP: &str = "\
loadgen — drive a live cct-serve endpoint and report throughput/latency

USAGE:
    loadgen --connect ADDR [OPTIONS]

OPTIONS:
    --connect ADDR     unix:PATH or HOST:PORT of a running `cct serve`
                       (start it fresh so the cold phase times
                       first-touch preparation; give it headroom for
                       concurrency × window in-flight requests, e.g.
                       --max-inflight 32)
    --concurrency N    persistent client connections in the warm phase
                       (default 8)
    --window N         requests each warm connection keeps in flight
                       (default 2; 1 = strict ping-pong)
    --requests N       per-trial warm-phase request count (default 256)
    --quick            reduced load: at most 96 requests per trial
    --json PATH        write the machine-readable report to PATH
    --baseline PATH    gate against a committed BENCH_serve.json: exit
                       non-zero when a gated metric moved past its bound
                       (see the rule table RULES in crates/bench/src/gate.rs)
    --help             this text

Exit status: 0 on success, 1 on request failures, a determinism
mismatch, or a baseline regression, 2 on usage errors.
";

/// Interleaved sequential/warm trial pairs. The gated speedup is the
/// **median** of the per-pair ratios: the two phases of a pair run
/// back to back under the same machine load, so the ratio cancels
/// load drift, and the median shakes off a descheduled outlier pair.
const TRIALS: usize = 5;

/// The workload's graph specs — the same small families the serve
/// stress tests contend over. Small on purpose: the gated
/// `concurrency_speedup` contrasts per-request wire+scheduling
/// overhead (what the multiplexed front-end amortizes) against draw
/// compute, and heavy graphs would bury the former in the latter.
const SPECS: &[&str] = &[
    "petersen",
    "complete:9",
    "grid:3x3",
    "cycle:8",
    "wheel:9",
    "kdense:9",
];

/// One persistent client connection (reader half + writer half).
enum Conn {
    Tcp(BufReader<TcpStream>, TcpStream),
    #[cfg(unix)]
    Unix(BufReader<UnixStream>, UnixStream),
}

impl Conn {
    fn open(endpoint: &Endpoint) -> Result<Conn, String> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                Ok(Conn::Tcp(reader, stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)
                    .map_err(|e| format!("connect {}: {e}", path.display()))?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                Ok(Conn::Unix(reader, stream))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err("unix endpoints are not supported on this platform".into()),
        }
    }

    fn exchange(&mut self, request: &SampleRequest) -> Result<Json, String> {
        match self {
            Conn::Tcp(reader, writer) => exchange(reader, writer, request),
            #[cfg(unix)]
            Conn::Unix(reader, writer) => exchange(reader, writer, request),
        }
        .map_err(|e| e.to_string())
    }

    fn exchange_frame(&mut self, frame: &Json) -> Result<Json, String> {
        match self {
            Conn::Tcp(reader, writer) => exchange_frame(reader, writer, frame),
            #[cfg(unix)]
            Conn::Unix(reader, writer) => exchange_frame(reader, writer, frame),
        }
        .map_err(|e| e.to_string())
    }

    /// Writes a request frame without waiting for its reply — the
    /// pipelined half of the warm phase.
    fn send(&mut self, request: &SampleRequest) -> Result<(), String> {
        let line = request.to_json().compact() + "\n";
        let writer: &mut dyn Write = match self {
            Conn::Tcp(_, writer) => writer,
            #[cfg(unix)]
            Conn::Unix(_, writer) => writer,
        };
        writer.write_all(line.as_bytes()).map_err(|e| e.to_string())
    }

    /// Reads the next reply frame (replies arrive in request order).
    fn recv(&mut self) -> Result<Json, String> {
        let reader: &mut dyn BufRead = match self {
            Conn::Tcp(reader, _) => reader,
            #[cfg(unix)]
            Conn::Unix(reader, _) => reader,
        };
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        let frame = Json::parse(line.trim_end()).map_err(|e| format!("bad reply frame: {e}"))?;
        if frame.get("ok") == Some(&Json::Bool(true)) {
            Ok(frame)
        } else {
            Err(frame
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("request failed")
                .to_string())
        }
    }
}

/// Request `i` of the workload — the same shape across the cold and
/// warm phases, so warm requests always hit keys the cold phase
/// prepared. One draw per request: uniform weight keeps the trial
/// throughputs comparable.
fn workload_request(i: u64) -> SampleRequest {
    let mut request = SampleRequest::new(SPECS[(i as usize) % SPECS.len()])
        .seed(7000 + i % 5)
        .count(1);
    if i % 8 == 0 {
        request.algorithm = Algorithm::Exact;
    }
    request
}

/// Exact quantile over a sorted latency sample (nearest-rank).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One trial of one phase.
struct PhaseTrial {
    latencies_us: Vec<u64>,
    elapsed: Duration,
    overload_retries: u64,
    failures: Vec<String>,
}

/// Drives one connection: claims request indices from the shared
/// counter, keeps up to `window` requests in flight, and measures
/// client-observed latency (submit → reply, queueing included). An
/// `overloaded` refusal re-sends that request after a short backoff.
fn drive_conn(
    endpoint: &Endpoint,
    next: &AtomicU64,
    requests: u64,
    window: usize,
) -> (Vec<u64>, u64, Vec<String>) {
    let mut latencies = Vec::new();
    let mut retries = 0u64;
    let mut failures = Vec::new();
    let mut conn = match Conn::open(endpoint) {
        Ok(conn) => conn,
        Err(e) => return (latencies, retries, vec![e]),
    };
    let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut exhausted = false;
    loop {
        while !exhausted && outstanding.len() < window {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= requests {
                exhausted = true;
                break;
            }
            if let Err(e) = conn.send(&workload_request(i)) {
                failures.push(format!("request {i}: send: {e}"));
                return (latencies, retries, failures);
            }
            outstanding.push_back((i, Instant::now()));
        }
        let Some((i, began)) = outstanding.pop_front() else {
            return (latencies, retries, failures);
        };
        match conn.recv() {
            Ok(_) => latencies.push(began.elapsed().as_micros() as u64),
            Err(e) if e.contains("overloaded") => {
                // Backpressure is an invitation to retry, not a
                // failure. Latency keeps the original start: the
                // retry wait is real client-observed time.
                retries += 1;
                std::thread::sleep(Duration::from_millis(2));
                if let Err(e) = conn.send(&workload_request(i)) {
                    failures.push(format!("request {i}: resend: {e}"));
                    return (latencies, retries, failures);
                }
                outstanding.push_back((i, began));
            }
            Err(e) => {
                failures.push(format!("request {i}: {e}"));
                return (latencies, retries, failures);
            }
        }
    }
}

/// One phase trial: `concurrency` threads share a global request
/// counter, each driving its own persistent connection with `window`
/// requests in flight.
fn run_phase(endpoint: &Endpoint, concurrency: usize, requests: u64, window: usize) -> PhaseTrial {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let merged: Vec<(Vec<u64>, u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| s.spawn(|| drive_conn(endpoint, &next, requests, window)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut trial = PhaseTrial {
        latencies_us: Vec::new(),
        elapsed: started.elapsed(),
        overload_retries: 0,
        failures: Vec::new(),
    };
    for (latencies, retries, failures) in merged {
        trial.latencies_us.extend(latencies);
        trial.overload_retries += retries;
        trial.failures.extend(failures);
    }
    trial
}

/// Best-of-trials aggregate of one phase.
struct PhaseAgg {
    requests_per_trial: u64,
    trials: usize,
    best_per_sec: f64,
    total_elapsed: Duration,
    latencies_us: Vec<u64>,
    overload_retries: u64,
    failures: Vec<String>,
}

impl PhaseAgg {
    fn new(requests_per_trial: u64) -> Self {
        PhaseAgg {
            requests_per_trial,
            trials: 0,
            best_per_sec: 0.0,
            total_elapsed: Duration::ZERO,
            latencies_us: Vec::new(),
            overload_retries: 0,
            failures: Vec::new(),
        }
    }

    fn absorb(&mut self, trial: PhaseTrial) {
        self.trials += 1;
        let secs = trial.elapsed.as_secs_f64().max(1e-9);
        self.best_per_sec = self.best_per_sec.max(self.requests_per_trial as f64 / secs);
        self.total_elapsed += trial.elapsed;
        self.latencies_us.extend(trial.latencies_us);
        self.overload_retries += trial.overload_retries;
        self.failures.extend(trial.failures);
    }

    fn to_json(&self) -> Vec<(String, Json)> {
        vec![
            (
                "requests".into(),
                Json::Num((self.requests_per_trial * self.trials as u64) as f64),
            ),
            ("trials".into(), Json::Num(self.trials as f64)),
            (
                "elapsed_ms".into(),
                Json::Num(self.total_elapsed.as_secs_f64() * 1e3),
            ),
            ("best_per_sec".into(), Json::Num(self.best_per_sec)),
        ]
    }
}

fn run() -> i32 {
    let mut connect: Option<String> = None;
    let mut concurrency = 8usize;
    let mut window = 2usize;
    let mut requests = 256u64;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut quick = false;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return 0;
    }
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| match it.next() {
            Some(v) => Ok(v),
            None => Err(format!("{what} needs a value (see --help)")),
        };
        let parsed = match arg.as_str() {
            "--connect" => value("--connect").map(|v| connect = Some(v)),
            "--concurrency" => value("--concurrency").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "bad --concurrency".to_string())
                    .map(|k| concurrency = k.max(1))
            }),
            "--window" => value("--window").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|_| "bad --window".to_string())
                    .map(|k| window = k.max(1))
            }),
            "--requests" => value("--requests").and_then(|v| {
                v.parse::<u64>()
                    .map_err(|_| "bad --requests".to_string())
                    .map(|k| requests = k.max(1))
            }),
            "--json" => value("--json").map(|v| json_path = Some(v)),
            "--baseline" => value("--baseline").map(|v| baseline_path = Some(v)),
            "--quick" => {
                quick = true;
                Ok(())
            }
            other => Err(format!("unknown option '{other}' (see --help)")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return 2;
        }
    }
    if quick {
        // Trim the sample, not the shape: the same connection count and
        // window keep quick's speedup centered on the full run's, so a
        // quick CI measurement gates cleanly against a full baseline.
        requests = requests.min(96);
    }
    let Some(connect) = connect else {
        eprintln!("error: loadgen needs --connect (see --help)");
        return 2;
    };
    let endpoint = match Endpoint::parse(&connect) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    // ---- cold phase: first touch of every (algorithm, spec) key ------
    let mut conn = match Conn::open(&endpoint) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let cold_started = Instant::now();
    let mut cold_requests = 0u64;
    for spec in SPECS {
        for algorithm in [Algorithm::Thm1, Algorithm::Exact] {
            let mut request = SampleRequest::new(*spec).seed(7000).count(1);
            request.algorithm = algorithm;
            if let Err(e) = conn.exchange(&request) {
                eprintln!("error: cold request {algorithm} {spec}: {e}");
                return 1;
            }
            cold_requests += 1;
        }
    }
    let cold_elapsed = cold_started.elapsed();
    let cold_secs = cold_elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "cold: {cold_requests} requests in {:.1} ms",
        cold_secs * 1e3
    );

    // ---- replay phase: the determinism contract at the wire ----------
    let replay = workload_request(1);
    let mut draws = Vec::new();
    for _ in 0..2 {
        let mut fresh = match Conn::open(&endpoint) {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        match fresh.exchange(&replay) {
            Ok(frame) => draws.push(frame.get("draws").map(Json::compact)),
            Err(e) => {
                eprintln!("error: replay request: {e}");
                return 1;
            }
        }
    }
    if draws[0] != draws[1] || draws[0].is_none() {
        eprintln!("error: served draws are not byte-identical across connections");
        return 1;
    }
    eprintln!("replay: draws byte-identical across connections");

    // ---- interleaved sequential/warm trial pairs ---------------------
    // The sequential denominator gets half the warm sample (floored):
    // its trials must be long enough that one favorable scheduling
    // burst can't inflate a whole trial's throughput.
    let seq_requests = (requests / 2).max(32);
    let mut sequential = PhaseAgg::new(seq_requests);
    let mut warm = PhaseAgg::new(requests);
    let mut ratios = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let seq_trial = run_phase(&endpoint, 1, seq_requests, 1);
        let warm_trial = run_phase(&endpoint, concurrency, requests, window);
        let seq_per_sec = seq_requests as f64 / seq_trial.elapsed.as_secs_f64().max(1e-9);
        let warm_per_sec = requests as f64 / warm_trial.elapsed.as_secs_f64().max(1e-9);
        ratios.push(warm_per_sec / seq_per_sec.max(1e-9));
        sequential.absorb(seq_trial);
        warm.absorb(warm_trial);
    }
    for failure in sequential.failures.iter().chain(&warm.failures) {
        eprintln!("error: {failure}");
    }
    eprintln!(
        "sequential: {seq_requests} requests × 1 conn × {TRIALS} trials — best {:.0}/s",
        sequential.best_per_sec
    );
    warm.latencies_us.sort_unstable();
    let p50 = quantile_us(&warm.latencies_us, 0.50);
    let p99 = quantile_us(&warm.latencies_us, 0.99);
    eprintln!(
        "warm: {requests} requests × {concurrency} conns (window {window}) × {TRIALS} trials — \
         best {:.0}/s, p50 {p50} µs, p99 {p99} µs, {} overload retries",
        warm.best_per_sec, warm.overload_retries
    );
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    eprintln!("concurrency speedup (median warm/sequential pair): ×{speedup:.2}");

    // ---- server-side stats (informational) ---------------------------
    let server_stats = conn
        .exchange_frame(&ControlCommand::Stats.to_json())
        .ok()
        .and_then(|frame| frame.get("stats").cloned());

    let mut warm_fields = warm.to_json();
    warm_fields.push(("window".into(), Json::Num(window as f64)));
    warm_fields.push(("p50_us".into(), Json::Num(p50 as f64)));
    warm_fields.push(("p99_us".into(), Json::Num(p99 as f64)));
    warm_fields.push((
        "overload_retries".into(),
        Json::Num(warm.overload_retries as f64),
    ));
    let mut doc = vec![
        ("experiment".into(), Json::Str("serve".into())),
        ("quick".into(), Json::Bool(quick)),
        ("concurrency".into(), Json::Num(concurrency as f64)),
        (
            "cold".into(),
            Json::Obj(vec![
                ("requests".into(), Json::Num(cold_requests as f64)),
                ("elapsed_ms".into(), Json::Num(cold_secs * 1e3)),
                (
                    "per_sec".into(),
                    Json::Num(cold_requests as f64 / cold_secs),
                ),
            ]),
        ),
        ("sequential".into(), Json::Obj(sequential.to_json())),
        ("warm".into(), Json::Obj(warm_fields)),
        ("concurrency_speedup".into(), Json::Num(speedup)),
    ];
    if let Some(stats) = server_stats {
        doc.push(("server_stats".into(), stats));
    }
    let report = Json::Obj(doc);

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.pretty() + "\n") {
            eprintln!("error: write {path}: {e}");
            return 1;
        }
        eprintln!("report written to {path}");
    }

    let mut status = i32::from(!warm.failures.is_empty() || !sequential.failures.is_empty());
    if let Some(path) = &baseline_path {
        if !gate::run_baseline_gate(&report, path) {
            status = 1;
        }
    }
    status
}

fn main() {
    std::process::exit(run());
}
