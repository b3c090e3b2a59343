//! The experiment harness: regenerates the table/series of every
//! experiment in `cct_bench::experiments` (E1, E3–E7, E9–E12, E14,
//! E17–E22, aux).
//!
//! ```sh
//! cargo run -p cct-bench --release --bin harness -- all [--quick]
//! cargo run -p cct-bench --release --bin harness -- e1 e4 e6
//! cargo run -p cct-bench --release --bin harness -- e18 --quick \
//!     --json out.json --baseline BENCH_e18.json
//! ```

use cct_bench::experiments as ex;
use cct_bench::gate;
use cct_json::Json;

const HELP: &str = "\
harness — regenerate the experiment tables (E1, E3–E7, E9–E12, E14,
E17–E22, aux)

USAGE:
    harness [EXPERIMENT...] [OPTIONS]

ARGUMENTS:
    EXPERIMENT    experiments to run: e1, e3–e7, e9–e12, e14, e17–e22,
                  aux, or all (default all)

OPTIONS:
    --quick           reduced-size sweep for fast iteration
    --json PATH       write the machine-readable report to PATH (the
                      file is re-parsed after writing; malformed output
                      is a hard error). e18, e19, e20, e21 and e22 emit
                      JSON; select exactly one of them with this flag
    --baseline PATH   gate the fresh report against a committed
                      BENCH_*.json baseline: exit non-zero when a gated
                      metric moved past its bound on any row both
                      reports share (the metrics and their bounds are
                      the rule table RULES in crates/bench/src/gate.rs)
    --help            this text
";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return 0;
    }
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" | "--baseline" => {
                let Some(path) = it.next().filter(|p| !p.starts_with("--")) else {
                    eprintln!("error: {arg} needs a path (see --help)");
                    return 2;
                };
                if arg == "--json" {
                    json_path = Some(path);
                } else {
                    baseline_path = Some(path);
                }
            }
            other if other.starts_with("--") => {
                eprintln!("error: unknown option '{other}' (see --help)");
                return 2;
            }
            other => selected.push(other.to_string()),
        }
    }
    let run_all = selected.is_empty() || selected.iter().any(|s| s == "all");

    type Experiment = (&'static str, fn(bool));
    let experiments: Vec<Experiment> = vec![
        ("e1", ex::e1),
        ("e3", ex::e3),
        ("e4", ex::e4),
        ("e5", ex::e5),
        ("e6", ex::e6),
        ("e7", ex::e7),
        ("e9", ex::e9),
        ("e10", ex::e10),
        ("e11", ex::e11),
        ("e12", ex::e12),
        ("e14", ex::e14),
        ("e17", ex::e17),
        ("aux", ex::failure_probe),
    ];
    // e18–e22 return reports consumed by --json/--baseline, so they
    // live outside the fn(bool) table.
    type JsonRunner = (&'static str, fn(bool) -> Json);
    let json_runners: Vec<JsonRunner> = vec![
        ("e18", ex::e18),
        ("e19", ex::e19),
        ("e20", ex::e20),
        ("e21", ex::e21),
        ("e22", ex::e22),
    ];
    let known = |s: &str| {
        s == "all"
            || json_runners.iter().any(|(n, _)| *n == s)
            || experiments.iter().any(|(n, _)| *n == s)
    };
    if let Some(bad) = selected.iter().find(|s| !known(s)) {
        eprintln!("error: unknown experiment '{bad}' (see --help)");
        return 2;
    }
    let runs = |name: &str| run_all || selected.iter().any(|s| s == name);
    let flags = json_path.is_some() || baseline_path.is_some();
    if flags && json_runners.iter().filter(|(n, _)| runs(n)).count() != 1 {
        eprintln!("error: --json/--baseline need exactly one of e18–e22 selected (see --help)");
        return 2;
    }

    println!(
        "cct experiment harness — {} mode",
        if quick { "quick" } else { "full" }
    );
    let started = std::time::Instant::now();
    for (name, f) in &experiments {
        if runs(name) {
            let t = std::time::Instant::now();
            f(quick);
            println!("[{name} done in {:.1?}]", t.elapsed());
        }
    }
    // With --json/--baseline exactly one of these runs (checked above).
    let mut gated_report: Option<(&str, Json)> = None;
    for &(name, runner) in &json_runners {
        if !runs(name) {
            continue;
        }
        let t = std::time::Instant::now();
        let report = runner(quick);
        println!("[{name} done in {:.1?}]", t.elapsed());
        if flags {
            gated_report = Some((name, report));
        }
    }
    if let Some((name, report)) = gated_report {
        if let Some(path) = &json_path {
            let text = report.pretty();
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                return 1;
            }
            // Self-check: re-read and re-parse what landed on disk, so a
            // malformed report can never slip into a committed baseline.
            let reread = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot re-read {path}: {e}");
                    return 1;
                }
            };
            if let Err(e) = Json::parse(&reread) {
                eprintln!("error: {path} is malformed JSON: {e}");
                return 1;
            }
            println!("{name} report written to {path}");
        }
        if let Some(path) = &baseline_path {
            if !gate::run_baseline_gate(&report, path) {
                return 1;
            }
        }
    }
    println!(
        "\nall selected experiments finished in {:.1?}",
        started.elapsed()
    );
    0
}
