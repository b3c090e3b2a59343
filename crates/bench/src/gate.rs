//! The baseline gate: compares a fresh experiment report against its
//! committed `BENCH_*.json` baseline.
//!
//! One table, `RULES`, says what is gated: for each experiment, the
//! row array, the fields that identify a row, the metric and its
//! bound. The gate is deliberately loose — machines differ — so
//! every bound allows a [`REGRESSION_FACTOR`]× move the wrong way.
//! Rows only in one report (e.g. a `--quick` run against the full
//! baseline) are skipped; a run that overlaps the baseline nowhere
//! passes vacuously but reports so.

use crate::json::Json;
use Bound::{Ceiling, CeilingFromOne, Floor, Margin, MarginOrFloor};

/// A current value may be at most this factor worse than the baseline.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// How a rule turns a baseline value into the limit a current value
/// must keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// At least `base / REGRESSION_FACTOR`.
    Floor,
    /// At most `base · REGRESSION_FACTOR`.
    Ceiling,
    /// At most `max(base, 1) · REGRESSION_FACTOR`, so a baseline below
    /// ×1 does not tighten the band past "no worse than 2× the
    /// reference".
    CeilingFromOne,
    /// At least `1 + (base − 1) / REGRESSION_FACTOR`: a same-run speedup
    /// keeps half its margin over ×1, the ratio two identical
    /// implementations measure.
    Margin,
    /// [`Bound::Margin`] for a baseline above ×1, else [`Bound::Floor`],
    /// so a row that never was a win still passes at its own value.
    MarginOrFloor,
}

impl Bound {
    /// The limit a current value must keep against `base`.
    fn limit(self, base: f64) -> f64 {
        match self {
            Floor => base / REGRESSION_FACTOR,
            Ceiling => base * REGRESSION_FACTOR,
            CeilingFromOne => base.max(1.0) * REGRESSION_FACTOR,
            Margin => 1.0 + (base - 1.0) / REGRESSION_FACTOR,
            MarginOrFloor if base > 1.0 => Margin.limit(base),
            MarginOrFloor => Floor.limit(base),
        }
    }

    fn is_ceiling(self) -> bool {
        matches!(self, Ceiling | CeilingFromOne)
    }
}

/// One gated metric of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rule {
    /// The reports' `experiment` field.
    experiment: &'static str,
    /// The array whose rows are gated, or `None` to gate the document
    /// itself as a single row.
    section: Option<&'static str>,
    /// The fields that identify a row in both reports.
    key: &'static [&'static str],
    /// The gated field of each row.
    metric: &'static str,
    /// The limit the current value keeps against the baseline's.
    bound: Bound,
}

const fn rule(
    experiment: &'static str,
    section: Option<&'static str>,
    key: &'static [&'static str],
    metric: &'static str,
    bound: Bound,
) -> Rule {
    Rule {
        experiment,
        section,
        key,
        metric,
        bound,
    }
}

/// Every gated metric. Apart from e18's throughput, each is a
/// deterministic count or a ratio measured within one run, so the gate
/// does not depend on the machine. Wall-clock columns are reported in
/// the files but never gated.
#[rustfmt::skip]
const RULES: [Rule; 10] = [
    // Prepared-mode draws per second, the serving-path number.
    rule("e18", Some("throughput"), &["graph", "n", "samples"], "prepared_per_sec", Floor),
    // The sparse backend's resident-matrix saving over dense, and its
    // wall-clock relative to dense.
    rule("e19", Some("rows"), &["family", "n"], "bytes_reduction_sparse", Floor),
    rule("e19", Some("rows"), &["family", "n"], "wall_ratio_sparse", CeilingFromOne),
    // Resident prepared-state bytes, and their growth between adjacent
    // sweep sizes (it has to track nnz·log n, not n²).
    rule("e20", Some("rows"), &["family", "n"], "peak_resident_bytes", Ceiling),
    rule("e20", Some("scaling"), &["family", "n_lo", "n_hi"], "bytes_ratio", Ceiling),
    // Round totals of the Borůvka MST and of weighted Theorem 1.
    rule("e21", Some("rows"), &["family", "n"], "mst_rounds", Ceiling),
    rule("e21", Some("rows"), &["family", "n"], "thm1_rounds", Ceiling),
    // The panel kernels' speedups over the loops they replaced.
    rule("e22", Some("dense"), &["n"], "panel_speedup", MarginOrFloor),
    rule("e22", Some("sparse"), &["n"], "panel_speedup", MarginOrFloor),
    // Pipelined over strictly sequential served throughput.
    rule("serve", None, &[], "concurrency_speedup", Margin),
];

/// Figures printed beside the verdicts but never gated, as
/// `(experiment, object, field)`: work stealing against fixed shards
/// measures thread scheduling, which a loaded or single-core CI box
/// swamps.
const REPORTED: [(&str, &str, &str); 1] = [("e22", "stealing", "steal_ratio")];

/// Result of a baseline comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Human-readable lines, one per compared row and metric.
    pub compared: Vec<String>,
    /// Failures (empty = gate passes).
    pub regressions: Vec<String>,
}

impl GateReport {
    /// `true` when no compared row regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// The rows `rule` gates in `doc`.
fn rows<'a>(doc: &'a Json, rule: &Rule, label: &str) -> Result<&'a [Json], String> {
    match rule.section {
        None => Ok(std::slice::from_ref(doc)),
        Some(section) => doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or(format!("{label} report lacks a {section} array")),
    }
}

/// A row's identity: its key fields, strings as written and numbers
/// truncated to integers. `None` if a field is missing or not a scalar.
fn row_key(row: &Json, fields: &[&str]) -> Option<Vec<Json>> {
    fields
        .iter()
        .map(|field| match row.get(field)? {
            Json::Num(x) => Some(Json::Num(x.trunc())),
            s @ Json::Str(_) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Compares `current` against `baseline` under every rule of their
/// experiment; the two documents must name the same one.
///
/// # Errors
///
/// Returns a description when a document lacks its `experiment` field
/// or a gated array, when the experiments differ or have no rules, when
/// a current row lacks a key field, or when a matched row lacks the
/// metric.
pub fn check_against_baseline(current: &Json, baseline: &Json) -> Result<GateReport, String> {
    let experiment = |doc: &Json, label: &str| {
        doc.get("experiment")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("{label} report lacks an experiment field"))
    };
    let (cur, base) = (
        experiment(current, "current")?,
        experiment(baseline, "baseline")?,
    );
    if cur != base {
        return Err(format!(
            "experiment mismatch: current is {cur}, baseline is {base}"
        ));
    }
    if !RULES.iter().any(|rule| rule.experiment == cur) {
        return Err(format!("no baseline gate for experiment {cur}"));
    }
    let mut report = GateReport::default();
    for rule in RULES.iter().filter(|rule| rule.experiment == cur) {
        let baseline_rows = rows(baseline, rule, "baseline")?;
        for row in rows(current, rule, "current")? {
            let key = row_key(row, rule.key)
                .ok_or(format!("current {cur} row lacks {}", rule.key.join("/")))?;
            let Some(base_row) = baseline_rows
                .iter()
                .find(|b| row_key(b, rule.key).as_ref() == Some(&key))
            else {
                continue; // not in the baseline (e.g. quick vs full sweep)
            };
            let metric = |doc: &Json| {
                doc.get(rule.metric)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{cur} row lacks {}", rule.metric))
            };
            let (now, then) = (metric(row)?, metric(base_row)?);
            let limit = rule.bound.limit(then);
            let mut at = rule.section.unwrap_or(rule.experiment).to_string();
            for (field, value) in rule.key.iter().zip(&key) {
                let value = value
                    .as_str()
                    .map_or_else(|| value.compact(), str::to_string);
                at.push_str(&format!("/{field}={value}"));
            }
            let (kind, regressed) = if rule.bound.is_ceiling() {
                ("ceiling", now > limit)
            } else {
                ("floor", now < limit)
            };
            let line = format!(
                "{at}: {} {} vs baseline {} ({kind} {})",
                rule.metric,
                Json::Num(now).compact(),
                Json::Num(then).compact(),
                Json::Num(limit).compact(),
            );
            if regressed {
                report.regressions.push(line.clone());
            }
            report.compared.push(line);
        }
    }
    if report.compared.is_empty() {
        report
            .compared
            .push(format!("no overlapping {cur} rows — nothing gated"));
    }
    for (_, object, field) in REPORTED.iter().filter(|(e, ..)| *e == cur) {
        if let Some(value) = current.get(object).and_then(|o| o.get(field)) {
            report.compared.push(format!(
                "{object}.{field} {} (reported, not gated)",
                value.compact()
            ));
        }
    }
    Ok(report)
}

/// Gates `report` against the baseline file at `path` and prints the
/// verdict: compared rows on stdout, regressions and errors on stderr.
/// Returns `true` when the gate passed; an unreadable or malformed
/// baseline, or a comparison error, counts as a failure.
pub fn run_baseline_gate(report: &Json, path: &str) -> bool {
    let outcome = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))
        .and_then(|text| {
            Json::parse(&text).map_err(|e| format!("baseline {path} is malformed JSON: {e}"))
        })
        .and_then(|baseline| {
            check_against_baseline(report, &baseline)
                .map_err(|e| format!("baseline comparison failed: {e}"))
        });
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    println!("\nbaseline gate ({path}, {REGRESSION_FACTOR}x band):");
    for line in &result.compared {
        println!("  {line}");
    }
    if result.passed() {
        println!("baseline gate passed");
    } else {
        eprintln!("error: gated metric regressed beyond the {REGRESSION_FACTOR}x band:");
        for line in &result.regressions {
            eprintln!("  {line}");
        }
    }
    result.passed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, f64, f64, f64)]) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::Str("e18".into())),
            (
                "throughput".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(g, n, k, per_sec)| {
                            Json::Obj(vec![
                                ("graph".into(), Json::Str(g.into())),
                                ("n".into(), Json::Num(n)),
                                ("samples".into(), Json::Num(k)),
                                ("prepared_per_sec".into(), Json::Num(per_sec)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn passes_within_band_fails_below() {
        let baseline = report(&[("er", 64.0, 6.0, 100.0)]);
        let ok = check_against_baseline(&report(&[("er", 64.0, 6.0, 51.0)]), &baseline).unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        let bad = check_against_baseline(&report(&[("er", 64.0, 6.0, 49.0)]), &baseline).unwrap();
        assert!(!bad.passed());
        assert_eq!(bad.regressions.len(), 1);
    }

    #[test]
    fn quick_subset_compares_only_overlap() {
        let baseline = report(&[("er", 64.0, 6.0, 100.0), ("er", 256.0, 6.0, 10.0)]);
        let quick = report(&[("er", 64.0, 6.0, 80.0)]);
        let out = check_against_baseline(&quick, &baseline).unwrap();
        assert!(out.passed());
        assert_eq!(out.compared.len(), 1);
    }

    #[test]
    fn disjoint_rows_pass_vacuously() {
        let baseline = report(&[("er", 512.0, 6.0, 1.0)]);
        let out = check_against_baseline(&report(&[("er", 64.0, 6.0, 9.0)]), &baseline).unwrap();
        assert!(out.passed());
        assert!(out.compared[0].contains("nothing gated"));
    }

    #[test]
    fn rejects_non_e18_documents() {
        let good = report(&[]);
        let bad = Json::Obj(vec![("experiment".into(), Json::Str("e1".into()))]);
        assert!(check_against_baseline(&good, &bad).is_err());
        assert!(check_against_baseline(&bad, &good).is_err());
    }

    fn e19_report(rows: &[(&str, f64, f64, f64)]) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::Str("e19".into())),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(fam, n, bytes, wall)| {
                            Json::Obj(vec![
                                ("family".into(), Json::Str(fam.into())),
                                ("n".into(), Json::Num(n)),
                                ("bytes_reduction_sparse".into(), Json::Num(bytes)),
                                ("wall_ratio_sparse".into(), Json::Num(wall)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn e19_gate_checks_bytes_floor_and_wall_ceiling() {
        let baseline = e19_report(&[("cycle", 1025.0, 2.1, 0.8)]);
        // Within band: bytes still ≥ 1.05, wall ≤ 2.0 (ceiling floored at 1×2).
        let ok =
            check_against_baseline(&e19_report(&[("cycle", 1025.0, 1.1, 1.9)]), &baseline).unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // Memory win halved below the floor: regression.
        let bad_bytes =
            check_against_baseline(&e19_report(&[("cycle", 1025.0, 1.0, 0.8)]), &baseline).unwrap();
        assert!(!bad_bytes.passed());
        // Sparse became > 2× slower than dense: regression.
        let bad_wall =
            check_against_baseline(&e19_report(&[("cycle", 1025.0, 2.1, 2.5)]), &baseline).unwrap();
        assert!(!bad_wall.passed());
        // Non-overlapping rows pass vacuously.
        let disjoint =
            check_against_baseline(&e19_report(&[("er", 256.0, 1.2, 1.0)]), &baseline).unwrap();
        assert!(disjoint.passed());
        assert!(disjoint.compared[0].contains("nothing gated"));
    }

    fn e20_report(rows: &[(&str, f64, f64)], scaling: &[(&str, f64, f64, f64)]) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::Str("e20".into())),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(fam, n, peak)| {
                            Json::Obj(vec![
                                ("family".into(), Json::Str(fam.into())),
                                ("n".into(), Json::Num(n)),
                                ("peak_resident_bytes".into(), Json::Num(peak)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "scaling".into(),
                Json::Arr(
                    scaling
                        .iter()
                        .map(|&(fam, lo, hi, ratio)| {
                            Json::Obj(vec![
                                ("family".into(), Json::Str(fam.into())),
                                ("n_lo".into(), Json::Num(lo)),
                                ("n_hi".into(), Json::Num(hi)),
                                ("bytes_ratio".into(), Json::Num(ratio)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn e20_gate_checks_peak_bytes_and_scaling_ceilings() {
        let baseline = e20_report(
            &[("path", 16384.0, 500_000.0)],
            &[("path", 16384.0, 131072.0, 8.0)],
        );
        // Within band: peak below 2× baseline, ratio below 2× baseline.
        let ok = check_against_baseline(
            &e20_report(
                &[("path", 16384.0, 900_000.0)],
                &[("path", 16384.0, 131072.0, 9.5)],
            ),
            &baseline,
        )
        .unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // Resident footprint more than doubled: regression.
        let bad_peak = check_against_baseline(
            &e20_report(
                &[("path", 16384.0, 1_100_000.0)],
                &[("path", 16384.0, 131072.0, 8.0)],
            ),
            &baseline,
        )
        .unwrap();
        assert!(!bad_peak.passed());
        // Scaling ratio blew past 2× the baseline (n² crept back in).
        let bad_ratio = check_against_baseline(
            &e20_report(
                &[("path", 16384.0, 500_000.0)],
                &[("path", 16384.0, 131072.0, 17.0)],
            ),
            &baseline,
        )
        .unwrap();
        assert!(!bad_ratio.passed());
        // Non-overlapping rows pass vacuously.
        let disjoint =
            check_against_baseline(&e20_report(&[("er", 1024.0, 9_000.0)], &[]), &baseline)
                .unwrap();
        assert!(disjoint.passed());
        assert!(disjoint.compared[0].contains("nothing gated"));
    }

    fn e21_report(rows: &[(&str, f64, f64, f64)]) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::Str("e21".into())),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(fam, n, mst, thm1)| {
                            Json::Obj(vec![
                                ("family".into(), Json::Str(fam.into())),
                                ("n".into(), Json::Num(n)),
                                ("mst_rounds".into(), Json::Num(mst)),
                                ("thm1_rounds".into(), Json::Num(thm1)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn e21_gate_checks_both_round_ceilings() {
        let baseline = e21_report(&[("grid-w", 64.0, 40.0, 1_200.0)]);
        // Within band: both round totals below 2× baseline.
        let ok = check_against_baseline(&e21_report(&[("grid-w", 64.0, 75.0, 2_300.0)]), &baseline)
            .unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // MST rounds more than doubled: regression.
        let bad_mst =
            check_against_baseline(&e21_report(&[("grid-w", 64.0, 81.0, 1_200.0)]), &baseline)
                .unwrap();
        assert!(!bad_mst.passed());
        // thm1 rounds more than doubled: regression.
        let bad_thm1 =
            check_against_baseline(&e21_report(&[("grid-w", 64.0, 40.0, 2_500.0)]), &baseline)
                .unwrap();
        assert!(!bad_thm1.passed());
        // Non-overlapping rows pass vacuously.
        let disjoint =
            check_against_baseline(&e21_report(&[("er-w", 128.0, 50.0, 1_000.0)]), &baseline)
                .unwrap();
        assert!(disjoint.passed());
        assert!(disjoint.compared[0].contains("nothing gated"));
    }

    fn e22_report(dense: &[(f64, f64)], sparse: &[(f64, f64)]) -> Json {
        let rows = |data: &[(f64, f64)]| {
            Json::Arr(
                data.iter()
                    .map(|&(n, panel)| {
                        Json::Obj(vec![
                            ("n".into(), Json::Num(n)),
                            ("panel_speedup".into(), Json::Num(panel)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("experiment".into(), Json::Str("e22".into())),
            ("dense".into(), rows(dense)),
            ("sparse".into(), rows(sparse)),
            (
                "stealing".into(),
                Json::Obj(vec![("steal_ratio".into(), Json::Num(1.5))]),
            ),
        ])
    }

    #[test]
    fn e22_gate_holds_both_speedups_to_the_margin_floor() {
        // Baseline: dense panel ×2.0 (floor ×1.5), sparse ×1.8 (floor ×1.4).
        let baseline = e22_report(&[(256.0, 2.0)], &[(1024.0, 1.8)]);
        let ok = check_against_baseline(&e22_report(&[(256.0, 1.6)], &[(1024.0, 1.5)]), &baseline)
            .unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // Dense panel win collapsed below its floor: regression.
        let bad_dense =
            check_against_baseline(&e22_report(&[(256.0, 1.4)], &[(1024.0, 1.8)]), &baseline)
                .unwrap();
        assert!(!bad_dense.passed());
        // Sparse panel win collapsed below its floor: regression.
        let bad_sparse =
            check_against_baseline(&e22_report(&[(256.0, 2.0)], &[(1024.0, 1.3)]), &baseline)
                .unwrap();
        assert!(!bad_sparse.passed());
        // A never-was-a-win baseline (≤ ×1) falls back to base/2: an
        // equal current value passes.
        let flat_base = e22_report(&[(256.0, 0.9)], &[]);
        let flat = check_against_baseline(&flat_base, &flat_base).unwrap();
        assert!(flat.passed(), "{:?}", flat.regressions);
        // Non-overlapping rows pass vacuously; the stealing ratio is
        // reported but never gated.
        let disjoint =
            check_against_baseline(&e22_report(&[(384.0, 0.1)], &[]), &baseline).unwrap();
        assert!(disjoint.passed());
        assert!(disjoint.compared[0].contains("nothing gated"));
        assert!(disjoint.compared[1].contains("not gated"));
    }

    fn serve_report(speedup: f64) -> Json {
        Json::Obj(vec![
            ("experiment".into(), Json::Str("serve".into())),
            ("concurrency_speedup".into(), Json::Num(speedup)),
        ])
    }

    #[test]
    fn serve_gate_checks_the_concurrency_speedup_floor() {
        // The band applies to the margin over ×1: baseline ×3 keeps a
        // ×2 margin, so the floor is ×1 + margin/2 = ×2.
        let baseline = serve_report(3.0);
        let ok = check_against_baseline(&serve_report(2.1), &baseline).unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // The multiplexing win collapsed below the floor: regression.
        let bad = check_against_baseline(&serve_report(1.9), &baseline).unwrap();
        assert!(!bad.passed());
        assert_eq!(bad.regressions.len(), 1);
        // A fully serialized front-end (×1) fails any healthy baseline.
        let flat = check_against_baseline(&serve_report(1.0), &serve_report(1.8)).unwrap();
        assert!(!flat.passed());
        // Malformed documents are hard errors, not silent passes.
        let empty = Json::Obj(vec![("experiment".into(), Json::Str("serve".into()))]);
        assert!(check_against_baseline(&empty, &baseline).is_err());
    }

    #[test]
    fn dispatcher_routes_by_experiment_and_rejects_mismatches() {
        let e18 = report(&[("er", 64.0, 6.0, 100.0)]);
        let e19 = e19_report(&[("cycle", 257.0, 1.8, 1.0)]);
        let e20 = e20_report(
            &[("path", 16384.0, 500_000.0)],
            &[("path", 16384.0, 131072.0, 8.0)],
        );
        let e21 = e21_report(&[("grid-w", 64.0, 40.0, 1_200.0)]);
        let e22 = e22_report(&[(256.0, 2.0)], &[(1024.0, 1.8)]);
        let serve = serve_report(40.0);
        assert!(check_against_baseline(&e18, &e18).unwrap().passed());
        assert!(check_against_baseline(&e19, &e19).unwrap().passed());
        assert!(check_against_baseline(&e20, &e20).unwrap().passed());
        assert!(check_against_baseline(&e21, &e21).unwrap().passed());
        assert!(check_against_baseline(&e22, &e22).unwrap().passed());
        assert!(check_against_baseline(&serve, &serve).unwrap().passed());
        assert!(check_against_baseline(&e18, &e19).is_err());
        assert!(check_against_baseline(&e19, &e18).is_err());
        assert!(check_against_baseline(&e20, &e18).is_err());
        assert!(check_against_baseline(&e21, &e20).is_err());
        assert!(check_against_baseline(&e22, &e21).is_err());
        assert!(check_against_baseline(&serve, &e18).is_err());
    }

    #[test]
    fn every_rule_keeps_its_experiments_threshold() {
        // The formulas each experiment gated with before the table, per
        // (experiment, metric), at baselines below, at and above ×1.
        for base in [0.0_f64, 0.5, 0.9, 1.0, 1.01, 1.5, 2.0, 46.6, 3e6] {
            for rule in &RULES {
                let want = match (rule.experiment, rule.metric) {
                    ("e18", "prepared_per_sec") | ("e19", "bytes_reduction_sparse") => base / 2.0,
                    ("e19", "wall_ratio_sparse") => base.max(1.0) * 2.0,
                    ("e20", _) | ("e21", _) => base * 2.0,
                    ("e22", "panel_speedup") if base > 1.0 => 1.0 + (base - 1.0) / 2.0,
                    ("e22", "panel_speedup") => base / 2.0,
                    ("serve", "concurrency_speedup") => 1.0 + (base - 1.0) / 2.0,
                    other => panic!("no threshold on record for {other:?}"),
                };
                assert_eq!(rule.bound.limit(base), want, "{rule:?} at base {base}");
                let ceiling =
                    matches!(rule.experiment, "e20" | "e21") || rule.metric == "wall_ratio_sparse";
                assert_eq!(rule.bound.is_ceiling(), ceiling, "{rule:?}");
            }
        }
    }

    #[test]
    fn committed_baselines_pass_against_themselves_on_every_row() {
        // A typo in a rule's section, key or metric fails here: every
        // committed file must compare every row of every gated section.
        for text in [
            include_str!("../../../BENCH_e18.json"),
            include_str!("../../../BENCH_e19.json"),
            include_str!("../../../BENCH_e20.json"),
            include_str!("../../../BENCH_e21.json"),
            include_str!("../../../BENCH_e22.json"),
            include_str!("../../../BENCH_serve.json"),
        ] {
            let doc = Json::parse(text).unwrap();
            let experiment = doc.get("experiment").and_then(Json::as_str).unwrap();
            let out = check_against_baseline(&doc, &doc).unwrap();
            assert!(out.passed(), "{experiment}: {:?}", out.regressions);
            let gated: usize = RULES
                .iter()
                .filter(|rule| rule.experiment == experiment)
                .map(|rule| rows(&doc, rule, "committed").unwrap().len())
                .sum();
            let reported = REPORTED.iter().filter(|(e, ..)| *e == experiment).count();
            assert!(gated > 0, "{experiment} has no gated rows");
            assert_eq!(
                out.compared.len(),
                gated + reported,
                "{experiment}: {:?}",
                out.compared
            );
            assert!(
                out.compared
                    .iter()
                    .all(|line| !line.contains("nothing gated")),
                "{experiment}: {:?}",
                out.compared
            );
        }
    }
}
