//! CLI smoke tests: every algorithm listed in `main.rs` must produce a valid
//! spanning tree of the Petersen graph and exit 0 — and the seed-42
//! default runs must print exactly the pinned trees of
//! `tests/common/fixtures.rs` (shared with `pinned_trees.rs`).

#[path = "common/fixtures.rs"]
mod fixtures;

use cct::graph::{generators, Graph, SpanningTree};
use std::process::Command;

/// All algorithms advertised by `cct --help`.
const ALGORITHMS: [&str; 7] = [
    "thm1",
    "exact",
    "doubling",
    "direction4",
    "aldous-broder",
    "wilson",
    "mst-strawman",
];

fn run_cct(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cct"))
        .args(args)
        .output()
        .expect("failed to spawn cct binary")
}

fn run_cct_env(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cct"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("failed to spawn cct binary")
}

/// Parses `tree: 0-1 2-3 …` and checks it is a spanning tree of `g` by
/// round-tripping it through the library's own validating constructor.
fn assert_valid_spanning_tree(stdout: &str, g: &Graph) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("tree: "))
        .unwrap_or_else(|| panic!("no `tree:` line in output:\n{stdout}"));
    let edges: Vec<(usize, usize)> = line["tree: ".len()..]
        .split_whitespace()
        .map(|e| {
            let (u, v) = e
                .split_once('-')
                .unwrap_or_else(|| panic!("bad edge `{e}`"));
            (
                u.parse().expect("bad endpoint"),
                v.parse().expect("bad endpoint"),
            )
        })
        .collect();
    SpanningTree::new_in(g, edges)
        .unwrap_or_else(|e| panic!("CLI printed an invalid spanning tree ({e:?}): {line}"));
}

#[test]
fn every_algorithm_samples_a_valid_tree_on_petersen() {
    let g = generators::petersen();
    for alg in ALGORITHMS {
        let out = run_cct(&[alg, "--graph", "petersen", "--seed", "7"]);
        assert!(
            out.status.success(),
            "`cct {alg} --graph petersen --seed 7` failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_valid_spanning_tree(&String::from_utf8_lossy(&out.stdout), &g);
    }
}

#[test]
fn dot_output_is_graphviz() {
    let out = run_cct(&["wilson", "--graph", "petersen", "--seed", "7", "--dot"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("graph spanning_tree {"),
        "not graphviz: {stdout}"
    );
    assert_eq!(
        stdout.matches(" -- ").count(),
        9,
        "petersen tree has 9 edges"
    );
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn seed42_output_matches_the_shared_pinned_fixtures() {
    // The CLI's stdout is pinned to the same fixtures the library-level
    // pinned_trees suite asserts — the two can never drift apart. The
    // round total is printed on stderr and pinned too.
    for (spec, _, tree, rounds) in fixtures::standard_suite() {
        let out = run_cct(&["thm1", "--graph", spec, "--seed", "42"]);
        assert!(out.status.success(), "thm1 --graph {spec} --seed 42 failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            stdout.trim_end(),
            fixtures::tree_line(&tree),
            "CLI tree drifted from the pinned fixture on {spec}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("rounds: {rounds} over")),
            "CLI round total drifted on {spec}: {stderr}"
        );
    }
}

#[test]
fn trials_draw_the_same_trees_at_every_worker_count() {
    // thm1 prepares the graph once and draws every trial from it;
    // adding `--workers N` must not change the trees.
    let trials = run_cct(&[
        "thm1", "--graph", "petersen", "--seed", "42", "--trials", "3",
    ]);
    assert!(trials.status.success());
    for workers in ["2", "4"] {
        let args = [
            "thm1",
            "--graph",
            "petersen",
            "--seed",
            "42",
            "--trials",
            "3",
            "--workers",
            workers,
        ];
        let out = run_cct(&args);
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, trials.stdout,
            "--workers {workers} changed the trees"
        );
    }
    // And the first tree is the pinned seed-42 fixture.
    let first = fixtures::tree_line(&fixtures::standard_suite()[0].2);
    assert_eq!(
        String::from_utf8_lossy(&trials.stdout).lines().next(),
        Some(first.as_str())
    );
}

#[test]
fn samples_flag_is_an_unknown_option() {
    // `--trials` already prepares the graph once: there is no second
    // flag for drawing from a preparation.
    let out = run_cct(&["thm1", "--samples", "3"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown option"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn seeded_runs_are_reproducible() {
    let a = run_cct(&["thm1", "--graph", "petersen", "--seed", "7"]);
    let b = run_cct(&["thm1", "--graph", "petersen", "--seed", "7"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed must give the same tree");
}

#[test]
fn parallel_flag_gives_the_same_tree_as_sequential() {
    let seq = run_cct(&["thm1", "--graph", "petersen", "--seed", "7"]);
    assert!(seq.status.success());
    for workers in ["1", "2", "4"] {
        let par = run_cct(&[
            "thm1",
            "--graph",
            "petersen",
            "--seed",
            "7",
            "--workers",
            workers,
        ]);
        assert!(
            par.status.success(),
            "--workers {workers} failed: {}",
            String::from_utf8_lossy(&par.stderr)
        );
        assert_eq!(
            par.stdout, seq.stdout,
            "same seed must give the same tree at {workers} workers"
        );
    }
    let auto = run_cct(&["thm1", "--graph", "petersen", "--seed", "7", "--parallel"]);
    assert!(auto.status.success());
    assert_eq!(
        auto.stdout, seq.stdout,
        "--parallel must not change the tree"
    );
}

#[test]
fn workers_zero_is_rejected() {
    let out = run_cct(&["thm1", "--graph", "petersen", "--workers", "0"]);
    assert!(!out.status.success(), "--workers 0 must exit nonzero");
}

#[test]
fn parallel_flag_is_rejected_for_sequential_algorithms() {
    for alg in [
        "wilson",
        "aldous-broder",
        "doubling",
        "direction4",
        "mst-strawman",
    ] {
        let out = run_cct(&[alg, "--graph", "petersen", "--parallel"]);
        assert!(
            !out.status.success(),
            "`{alg} --parallel` must exit nonzero, not run silently sequential"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("only apply"),
            "{alg}: expected a scope error message"
        );
    }
}

#[test]
fn help_exits_zero_and_lists_algorithms() {
    let out = run_cct(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for alg in ALGORITHMS {
        assert!(stdout.contains(alg), "--help must mention `{alg}`");
    }
}

#[test]
fn unknown_algorithm_fails() {
    let out = run_cct(&["not-an-algorithm"]);
    assert!(!out.status.success(), "unknown algorithm must exit nonzero");
}

#[test]
fn backend_flag_is_an_unknown_option() {
    // The matrix representation is internal: naming a backend on the
    // command line is an error, not a silent no-op.
    let out = run_cct(&["thm1", "--backend", "sparse"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown option"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sparse_backend_raises_the_cap_for_sparse_friendly_specs() {
    // Past the dense cap, a sparse-friendly spec is admitted by the
    // algorithms that keep it sparse: thm1 and exact run it in the CSR
    // backend, wilson holds O(m) state.
    let g = generators::star(10_000);
    for alg in ["wilson", "thm1", "exact"] {
        let out = run_cct(&[alg, "--graph", "star:10000", "--seed", "1"]);
        assert!(
            out.status.success(),
            "{alg}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_valid_spanning_tree(&String::from_utf8_lossy(&out.stdout), &g);
    }
    // The algorithms that hold Θ(n²) state keep the dense cap…
    for alg in ["mst", "direction4", "doubling"] {
        let out = run_cct(&[alg, "--graph", "star:10000", "--seed", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{alg}: {stderr}");
        assert!(stderr.contains("too large"), "{alg}: {stderr}");
    }
    // …and dense-only families stay capped for every algorithm.
    let out = run_cct(&["thm1", "--graph", "complete:10000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("too large"));
}

#[test]
fn file_spec_loads_the_edge_list_fixture_and_matches_the_pinned_tree() {
    // `file:` is a first-class graph source: the committed Petersen
    // edge-list fixture describes the same graph as `petersen`, so the
    // seed-42 run must print the exact pinned tree and round total —
    // loading from disk is invisible to the sampler.
    let (_, _, tree, rounds) = fixtures::standard_suite()
        .into_iter()
        .find(|(spec, _, _, _)| *spec == "petersen")
        .expect("petersen is in the pinned suite");
    let out = run_cct(&[
        "thm1",
        "--graph",
        "file:tests/data/petersen.el",
        "--seed",
        "42",
    ]);
    assert!(
        out.status.success(),
        "file: spec failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim_end(),
        fixtures::tree_line(&tree),
        "file:petersen.el drifted from the pinned petersen tree"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&format!("rounds: {rounds} over")),
        "file:petersen.el round total drifted"
    );
    // Malformed paths surface the loader's typed error, not a panic.
    let out = run_cct(&["thm1", "--graph", "file:tests/data/no_such_file.el"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("edge list"),
        "missing file must report the loader error"
    );
}

#[test]
fn edge_lists_naming_huge_ids_are_errors_not_aborts() {
    // One line can name a vertex far past the cap, or one whose id + 1
    // overflows: both must be a clean `error:` exit, not an allocation
    // abort or an overflow panic.
    let dir = std::env::temp_dir();
    for (name, line, needle) in [
        ("huge", "0 100000000000\n".to_string(), "too large"),
        ("max", format!("0 {}\n", usize::MAX), "line 1"),
    ] {
        let path = dir.join(format!("cct-cli-{name}-id-{}.el", std::process::id()));
        std::fs::write(&path, line).unwrap();
        let out = run_cct(&["thm1", "--graph", &format!("file:{}", path.display())]);
        std::fs::remove_file(&path).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("error: "), "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
    }
    // A weight 10^14 or 10^300 times the next line's, or two disjoint
    // triangles, build a graph every walk sampler then refuses: a clean
    // `error:` after the `graph:` line, not a failed Schur solve, a
    // wrapped walk length, a walk that never leaves the heavy edge, or
    // doubling's cover-time assertion.
    for (name, lines, needle) in [
        ("w1e14", "0 1 1e14\n1 2 1\n", "max/min ratio"),
        ("w1e300", "0 1 1e300\n1 2 1\n", "max/min ratio"),
        (
            "two-triangles",
            "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n",
            "graph is disconnected",
        ),
    ] {
        let path = dir.join(format!("cct-cli-{name}-{}.el", std::process::id()));
        std::fs::write(&path, lines).unwrap();
        for algorithm in [
            "thm1",
            "exact",
            "doubling",
            "direction4",
            "aldous-broder",
            "wilson",
        ] {
            let out = run_cct(&[algorithm, "--graph", &format!("file:{}", path.display())]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let last = stderr.lines().last().unwrap_or_default();
            assert_eq!(out.status.code(), Some(1), "{name} {algorithm}: {stderr}");
            assert!(last.starts_with("error: "), "{name} {algorithm}: {stderr}");
            assert!(last.contains(needle), "{name} {algorithm}: {stderr}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn edge_lists_with_uniformly_huge_weights_print_a_tree() {
    // Every weight 10^18 is the unweighted 4-path, scaled: the walk
    // budget ℓ·W saturates at 2^62 instead of wrapping to 0.
    let path = std::env::temp_dir().join(format!("cct-cli-w1e18-{}.el", std::process::id()));
    std::fs::write(&path, "0 1 1e18\n1 2 1e18\n2 3 1e18\n").unwrap();
    for algorithm in ["thm1", "exact"] {
        let out = run_cct(&[algorithm, "--graph", &format!("file:{}", path.display())]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{algorithm}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_valid_spanning_tree(&stdout, &generators::path(4));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cct_max_n_overrides_the_cap() {
    // A lowered cap rejects what the default admits (a path is
    // sparse-friendly, so wilson's cap is 8 × 32 = 256)…
    let out = run_cct_env(
        &["wilson", "--graph", "path:300", "--seed", "1"],
        &[("CCT_MAX_N", "32")],
    );
    assert!(!out.status.success(), "CCT_MAX_N=32 must reject path:300");
    // …and a raised cap admits what the default rejects (a wheel is
    // dense-only; its hub keeps the walk fast).
    let g = generators::wheel(9_000);
    let out = run_cct_env(
        &["wilson", "--graph", "wheel:9000", "--seed", "1"],
        &[("CCT_MAX_N", "10000")],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_valid_spanning_tree(&String::from_utf8_lossy(&out.stdout), &g);
}
