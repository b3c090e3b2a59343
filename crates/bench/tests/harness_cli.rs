//! Harness CLI tests: experiment selection, the `--json`/`--baseline`
//! argument rules, and one cheap end-to-end run of each kind (a table
//! experiment with asserts, and a JSON experiment gated against its
//! committed baseline).

use cct_json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn harness(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("failed to spawn the harness binary")
}

/// A fresh, empty directory per test, so tests running in parallel
/// never see each other's files.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cct-harness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn deleted_experiments_are_unknown() {
    let dir = scratch_dir("deleted");
    for id in ["e2", "e8", "e13", "e15", "e16"] {
        let out = harness(&[id, "--quick"], &dir);
        assert_eq!(out.status.code(), Some(2), "{id}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("unknown experiment"),
            "{id}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_flags_need_exactly_one_json_experiment() {
    let dir = scratch_dir("one-json");
    for args in [
        &["all", "--quick", "--json", "report.json"][..],
        &["e18", "e19", "--quick", "--json", "report.json"],
        &["e1", "--quick", "--json", "report.json"],
    ] {
        let out = harness(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(!dir.join("report.json").exists(), "{args:?} wrote a report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_and_baseline_refuse_a_flag_as_their_path() {
    let dir = scratch_dir("flag-path");
    for (args, flag) in [
        (&["e21", "--quick", "--json", "--baseline"][..], "--json"),
        (
            &["e21", "--json", "report.json", "--baseline", "--quick"],
            "--baseline",
        ),
    ] {
        let out = harness(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("{flag} needs a path")),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(left.is_empty(), "refused runs wrote files: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn e10_reproduces_figure_2() {
    let dir = scratch_dir("e10");
    let out = harness(&["e10"], &dir);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("matches the paper's Figure 2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn e21_report_is_written_and_passes_its_baseline() {
    let dir = scratch_dir("e21");
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_e21.json");
    let baseline = baseline.to_str().expect("utf-8 path");
    let out = harness(
        &[
            "e21",
            "--quick",
            "--json",
            "e21.json",
            "--baseline",
            baseline,
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(dir.join("e21.json")).expect("report written");
    let report = Json::parse(&text).expect("report re-parses");
    assert_eq!(report.get("experiment").and_then(Json::as_str), Some("e21"));
    std::fs::remove_dir_all(&dir).ok();
}
