//! The CI bench-smoke gate: compares a fresh `e18` report against the
//! committed `BENCH_e18.json` baseline.
//!
//! The gate is deliberately loose — machines differ — and fails only when
//! prepared-mode throughput drops more than [`REGRESSION_FACTOR`]× below
//! the baseline for a configuration present in both reports. Rows only in
//! one report (e.g. a `--quick` run against the full baseline) are
//! skipped; a run that overlaps the baseline nowhere passes vacuously but
//! reports so.

use crate::json::Json;

/// A current value may be at most this factor below the baseline.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// Result of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Human-readable lines, one per compared row.
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

/// Row identity in the `throughput` array: `(graph, n, samples)`.
fn throughput_key(row: &Json) -> Option<(String, i64, i64)> {
    Some((
        row.get("graph")?.as_str()?.to_string(),
        row.get("n")?.as_f64()? as i64,
        row.get("samples")?.as_f64()? as i64,
    ))
}

/// Dispatches a baseline comparison on the report's `experiment` field
/// (`e18` or `e19`); the two documents must name the same experiment.
///
/// # Errors
///
/// Returns a description for malformed documents or mismatched
/// experiments.
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
    match cur.as_str() {
        "e18" => check_e18_against_baseline(current, baseline),
        "e19" => check_e19_against_baseline(current, baseline),
        "e20" => check_e20_against_baseline(current, baseline),
        "e21" => check_e21_against_baseline(current, baseline),
        "e22" => check_e22_against_baseline(current, baseline),
        "serve" => check_serve_against_baseline(current, baseline),
        other => Err(format!("no baseline gate for experiment {other}")),
    }
}

/// The floor a same-run speedup ratio must keep against its baseline.
///
/// A speedup has a natural floor at ×1 (an identical kernel measures
/// ×1), so for healthy baselines the band applies to the **margin over
/// ×1**: keep at least `1 / `[`REGRESSION_FACTOR`] of the baseline's
/// margin. A baseline at or below ×1 (the new kernel was never a win on
/// that row) falls back to the plain `base / REGRESSION_FACTOR` floor
/// so an equal current value still passes.
fn speedup_floor(base: f64) -> f64 {
    if base > 1.0 {
        1.0 + (base - 1.0) / REGRESSION_FACTOR
    } else {
        base / REGRESSION_FACTOR
    }
}

/// Compares `current` against `baseline` (both `e22` reports).
///
/// Gated metrics — all **same-run speedup ratios** (new kernel vs the
/// pre-panel loop, timed back to back in one process), so the gate is
/// machine-independent:
///
/// * `dense[].panel_speedup` — the panel microkernel's win over the
///   reference dense loop, per matrix size `n`;
/// * `sparse[].panel_speedup` — the same ratio for the CSR × dense-RHS
///   kernel vs the old scalar loop.
///
/// Each ratio is held to [`speedup_floor`]: keep at least half the
/// baseline's margin over ×1. The `stealing` section (work stealing vs
/// fixed shards) is reported but never gated — thread scheduling on a
/// loaded or single-core CI box swamps the signal.
///
/// # Errors
///
/// Returns a description if either document is not a well-formed `e22`
/// report.
pub fn check_e22_against_baseline(current: &Json, baseline: &Json) -> Result<GateReport, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        if doc.get("experiment").and_then(Json::as_str) != Some("e22") {
            return Err(format!("{label} report is not an e22 document"));
        }
    }
    let mut report = GateReport {
        compared: Vec::new(),
        regressions: Vec::new(),
    };
    for section in ["dense", "sparse"] {
        let arr = |doc: &Json, label: &str| -> Result<Vec<Json>, String> {
            doc.get(section)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or(format!("{label} report lacks a {section} array"))
        };
        let current_rows = arr(current, "current")?;
        let baseline_rows = arr(baseline, "baseline")?;
        for row in &current_rows {
            let Some(n) = row.get("n").and_then(Json::as_f64).map(|n| n as i64) else {
                return Err(format!("current e22 {section} row missing n"));
            };
            let Some(base_row) = baseline_rows
                .iter()
                .find(|b| b.get("n").and_then(Json::as_f64).map(|v| v as i64) == Some(n))
            else {
                continue; // not in the baseline (e.g. quick vs full sweep)
            };
            let metric = |doc: &Json, name: &str| {
                doc.get(name)
                    .and_then(Json::as_f64)
                    .ok_or(format!("e22 {section} row missing {name}"))
            };
            let cur_panel = metric(row, "panel_speedup")?;
            let base_panel = metric(base_row, "panel_speedup")?;
            let panel_floor = speedup_floor(base_panel);
            let line = format!(
                "{section}/n={n}: panel ×{cur_panel:.2} vs baseline ×{base_panel:.2} \
                 (floor ×{panel_floor:.2})"
            );
            if cur_panel < panel_floor {
                report.regressions.push(line.clone());
            }
            report.compared.push(line);
        }
    }
    if report.compared.is_empty() {
        report
            .compared
            .push("no overlapping e22 rows — nothing gated".into());
    }
    if let Some(ratio) = current
        .get("stealing")
        .and_then(|s| s.get("steal_ratio"))
        .and_then(Json::as_f64)
    {
        report.compared.push(format!(
            "stealing: fixed/stealing wall ×{ratio:.2} (reported, not gated)"
        ));
    }
    Ok(report)
}

/// Compares `current` against `baseline` (both `serve` loadgen
/// reports, see the `loadgen` bin).
///
/// Gated metric: `concurrency_speedup` — warm pipelined throughput at
/// the target concurrency divided by strict single-connection
/// sequential throughput, measured in the same run on the same
/// machine, so the ratio is machine-independent. A speedup has a
/// natural floor at ×1 (a front-end that serializes every request
/// still measures ×1), so the band applies to the **margin over ×1**:
/// the current margin must keep at least `1 / `[`REGRESSION_FACTOR`]
/// of the baseline's margin. A serialized front-end (margin ≈ 0)
/// always fails against any healthy baseline.
///
/// The wall-clock columns (`per_sec`, `p50_us`, `p99_us`) are reported
/// but never gated: absolute times are machine-dependent even within a
/// 2× band.
///
/// # Errors
///
/// Returns a description if either document is not a well-formed
/// `serve` report.
pub fn check_serve_against_baseline(current: &Json, baseline: &Json) -> Result<GateReport, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        if doc.get("experiment").and_then(Json::as_str) != Some("serve") {
            return Err(format!("{label} report is not a serve document"));
        }
    }
    let metric = |doc: &Json, label: &str| {
        doc.get("concurrency_speedup")
            .and_then(Json::as_f64)
            .ok_or(format!("{label} report missing concurrency_speedup"))
    };
    let cur = metric(current, "current")?;
    let base = metric(baseline, "baseline")?;
    let floor = 1.0 + (base - 1.0) / REGRESSION_FACTOR;
    let line =
        format!("serve: concurrency speedup ×{cur:.2} vs baseline ×{base:.2} (floor ×{floor:.2})");
    let mut report = GateReport {
        compared: vec![line.clone()],
        regressions: Vec::new(),
    };
    if cur < floor {
        report.regressions.push(line);
    }
    Ok(report)
}

/// Row identity in e21's `rows` array: `(family, n)`.
fn e21_row_key(row: &Json) -> Option<(String, i64)> {
    Some((
        row.get("family")?.as_str()?.to_string(),
        row.get("n")?.as_f64()? as i64,
    ))
}

/// Compares `current` against `baseline` (both `e21` reports).
///
/// Gated metrics — both **deterministic round totals**, so the gate is
/// machine-independent:
///
/// * `rows[].mst_rounds` — the Borůvka MachineProgram's ledger total
///   must not grow past [`REGRESSION_FACTOR`]× the baseline for the
///   same `(family, n)` (the experiment itself already asserts the
///   rounds are worker-invariant and the edge set matches Kruskal);
/// * `rows[].thm1_rounds` — the weight-proportional Theorem 1 sampler's
///   round total under the same ceiling.
///
/// `mst_ms` / `thm1_ms` wall-clock columns are reported but never
/// gated: absolute times are machine-dependent even within a 2× band.
///
/// # Errors
///
/// Returns a description if either document is not a well-formed `e21`
/// report.
pub fn check_e21_against_baseline(current: &Json, baseline: &Json) -> Result<GateReport, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        if doc.get("experiment").and_then(Json::as_str) != Some("e21") {
            return Err(format!("{label} report is not an e21 document"));
        }
    }
    let current_rows = current
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("current report lacks a rows array")?;
    let baseline_rows = baseline
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("baseline report lacks a rows array")?;

    let mut report = GateReport {
        compared: Vec::new(),
        regressions: Vec::new(),
    };
    for row in current_rows {
        let Some(key) = e21_row_key(row) else {
            return Err("current e21 row missing family/n".into());
        };
        let Some(base_row) = baseline_rows
            .iter()
            .find(|b| e21_row_key(b).as_ref() == Some(&key))
        else {
            continue; // not in the baseline (e.g. quick vs full sweep)
        };
        let metric = |doc: &Json, name: &str| {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("e21 row missing {name}"))
        };
        let cur_mst = metric(row, "mst_rounds")?;
        let base_mst = metric(base_row, "mst_rounds")?;
        let cur_thm1 = metric(row, "thm1_rounds")?;
        let base_thm1 = metric(base_row, "thm1_rounds")?;
        let mst_ceiling = base_mst * REGRESSION_FACTOR;
        let thm1_ceiling = base_thm1 * REGRESSION_FACTOR;
        let line = format!(
            "{}/n={}: mst {:.0} rounds vs baseline {:.0} (ceiling {:.0}); thm1 {:.0} vs {:.0} (ceiling {:.0})",
            key.0, key.1, cur_mst, base_mst, mst_ceiling, cur_thm1, base_thm1, thm1_ceiling
        );
        if cur_mst > mst_ceiling || cur_thm1 > thm1_ceiling {
            report.regressions.push(line.clone());
        }
        report.compared.push(line);
    }
    if report.compared.is_empty() {
        report
            .compared
            .push("no overlapping e21 rows — nothing gated".into());
    }
    Ok(report)
}

/// Row identity in e20's `rows` array: `(family, n)`.
fn e20_row_key(row: &Json) -> Option<(String, i64)> {
    Some((
        row.get("family")?.as_str()?.to_string(),
        row.get("n")?.as_f64()? as i64,
    ))
}

/// Entry identity in e20's `scaling` array: `(family, n_lo, n_hi)`.
fn e20_scaling_key(entry: &Json) -> Option<(String, i64, i64)> {
    Some((
        entry.get("family")?.as_str()?.to_string(),
        entry.get("n_lo")?.as_f64()? as i64,
        entry.get("n_hi")?.as_f64()? as i64,
    ))
}

/// Compares `current` against `baseline` (both `e20` reports).
///
/// Gated metrics — both **deterministic byte counts**, so the gate is
/// machine-independent:
///
/// * `rows[].peak_resident_bytes` — the resident prepared-state
///   footprint (transition matrix + materialized doubling levels +
///   cached ledger) must not grow past [`REGRESSION_FACTOR`]× the
///   baseline for the same `(family, n)` — a doubling means some Θ(n²)
///   allocation crept back past the out-of-core escape;
/// * `scaling[].bytes_ratio` — the per-family growth of the peak
///   between adjacent sweep sizes must not exceed
///   [`REGRESSION_FACTOR`]× the baseline ratio (resident state has to
///   keep tracking nnz·log n, not n²).
///
/// Wall-clock columns are reported but not gated: absolute times are
/// machine-dependent even within a 2× band.
///
/// # Errors
///
/// Returns a description if either document is not a well-formed `e20`
/// report.
pub fn check_e20_against_baseline(current: &Json, baseline: &Json) -> Result<GateReport, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        if doc.get("experiment").and_then(Json::as_str) != Some("e20") {
            return Err(format!("{label} report is not an e20 document"));
        }
    }
    let arr = |doc: &Json, label: &str, field: &str| -> Result<Vec<Json>, String> {
        doc.get(field)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or(format!("{label} report lacks a {field} array"))
    };
    let current_rows = arr(current, "current", "rows")?;
    let baseline_rows = arr(baseline, "baseline", "rows")?;
    let current_scaling = arr(current, "current", "scaling")?;
    let baseline_scaling = arr(baseline, "baseline", "scaling")?;

    let mut report = GateReport {
        compared: Vec::new(),
        regressions: Vec::new(),
    };
    for row in &current_rows {
        let Some(key) = e20_row_key(row) else {
            return Err("current e20 row missing family/n".into());
        };
        let Some(base_row) = baseline_rows
            .iter()
            .find(|b| e20_row_key(b).as_ref() == Some(&key))
        else {
            continue; // not in the baseline (e.g. quick vs full sweep)
        };
        let metric = |doc: &Json| {
            doc.get("peak_resident_bytes")
                .and_then(Json::as_f64)
                .ok_or("e20 row missing peak_resident_bytes")
        };
        let cur = metric(row)?;
        let base = metric(base_row)?;
        let ceiling = base * REGRESSION_FACTOR;
        let line = format!(
            "{}/n={}: peak resident {:.0} B vs baseline {:.0} B (ceiling {:.0} B)",
            key.0, key.1, cur, base, ceiling
        );
        if cur > ceiling {
            report.regressions.push(line.clone());
        }
        report.compared.push(line);
    }
    for entry in &current_scaling {
        let Some(key) = e20_scaling_key(entry) else {
            return Err("current e20 scaling entry missing family/n_lo/n_hi".into());
        };
        let Some(base_entry) = baseline_scaling
            .iter()
            .find(|b| e20_scaling_key(b).as_ref() == Some(&key))
        else {
            continue;
        };
        let metric = |doc: &Json| {
            doc.get("bytes_ratio")
                .and_then(Json::as_f64)
                .ok_or("e20 scaling entry missing bytes_ratio")
        };
        let cur = metric(entry)?;
        let base = metric(base_entry)?;
        let ceiling = base * REGRESSION_FACTOR;
        let line = format!(
            "{} scaling {}→{}: bytes ×{:.2} vs baseline ×{:.2} (ceiling ×{:.2})",
            key.0, key.1, key.2, cur, base, ceiling
        );
        if cur > ceiling {
            report.regressions.push(line.clone());
        }
        report.compared.push(line);
    }
    if report.compared.is_empty() {
        report
            .compared
            .push("no overlapping e20 rows — nothing gated".into());
    }
    Ok(report)
}

/// Row identity in e19's `rows` array: `(family, n)`.
fn e19_key(row: &Json) -> Option<(String, i64)> {
    Some((
        row.get("family")?.as_str()?.to_string(),
        row.get("n")?.as_f64()? as i64,
    ))
}

/// Compares `current` against `baseline` (both `e19` reports).
///
/// Gated metrics, both **ratios** (so the gate is machine-independent):
///
/// * `bytes_reduction_sparse` — the sparse backend's resident-matrix
///   saving must stay within [`REGRESSION_FACTOR`]× of the baseline's
///   (the memory win is the tentpole; losing half of it is a
///   regression);
/// * `wall_ratio_sparse` — sparse wall-clock relative to dense must not
///   grow past [`REGRESSION_FACTOR`]× the baseline ratio (floored at 1,
///   so a baseline where sparse was *faster* doesn't tighten the band
///   beyond "no worse than 2× dense").
///
/// # Errors
///
/// Returns a description if either document is not a well-formed `e19`
/// report.
pub fn check_e19_against_baseline(current: &Json, baseline: &Json) -> Result<GateReport, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        if doc.get("experiment").and_then(Json::as_str) != Some("e19") {
            return Err(format!("{label} report is not an e19 document"));
        }
    }
    let current_rows = current
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("current report lacks a rows array")?;
    let baseline_rows = baseline
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("baseline report lacks a rows array")?;

    let mut report = GateReport {
        compared: Vec::new(),
        regressions: Vec::new(),
    };
    for row in current_rows {
        let Some(key) = e19_key(row) else {
            return Err("current e19 row missing family/n".into());
        };
        let Some(base_row) = baseline_rows
            .iter()
            .find(|b| e19_key(b).as_ref() == Some(&key))
        else {
            continue; // not in the baseline (e.g. quick vs full sweep)
        };
        let metric = |doc: &Json, name: &str| {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("e19 row missing {name}"))
        };
        let cur_bytes = metric(row, "bytes_reduction_sparse")?;
        let base_bytes = metric(base_row, "bytes_reduction_sparse")?;
        let cur_wall = metric(row, "wall_ratio_sparse")?;
        let base_wall = metric(base_row, "wall_ratio_sparse")?;
        let bytes_floor = base_bytes / REGRESSION_FACTOR;
        let wall_ceiling = base_wall.max(1.0) * REGRESSION_FACTOR;
        let line = format!(
            "{}/n={}: bytes ÷{:.2} (baseline ÷{:.2}, floor ÷{:.2}); wall ×{:.2} (ceiling ×{:.2})",
            key.0, key.1, cur_bytes, base_bytes, bytes_floor, cur_wall, wall_ceiling
        );
        if cur_bytes < bytes_floor || cur_wall > wall_ceiling {
            report.regressions.push(line.clone());
        }
        report.compared.push(line);
    }
    if report.compared.is_empty() {
        report
            .compared
            .push("no overlapping e19 rows — nothing gated".into());
    }
    Ok(report)
}

/// Compares `current` against `baseline` (both `e18` reports).
///
/// Gated metric: `throughput[].prepared_per_sec` — the serving-path
/// number the tentpole optimizes. The block-squaring rows are reported
/// but not gated (their *ratio* is asserted inside `e18` itself; absolute
/// kernel times are too machine-dependent even for a 2× band).
///
/// # Errors
///
/// Returns a description if either document is not a well-formed `e18`
/// report.
pub fn check_e18_against_baseline(current: &Json, baseline: &Json) -> Result<GateReport, String> {
    for (label, doc) in [("current", current), ("baseline", baseline)] {
        if doc.get("experiment").and_then(Json::as_str) != Some("e18") {
            return Err(format!("{label} report is not an e18 document"));
        }
    }
    let current_rows = current
        .get("throughput")
        .and_then(Json::as_arr)
        .ok_or("current report lacks a throughput array")?;
    let baseline_rows = baseline
        .get("throughput")
        .and_then(Json::as_arr)
        .ok_or("baseline report lacks a throughput array")?;

    let mut report = GateReport {
        compared: Vec::new(),
        regressions: Vec::new(),
    };
    for row in current_rows {
        let Some(key) = throughput_key(row) else {
            return Err("current throughput row missing graph/n/samples".into());
        };
        let Some(base_row) = baseline_rows
            .iter()
            .find(|b| throughput_key(b).as_ref() == Some(&key))
        else {
            continue; // not in the baseline (e.g. quick vs full sweep)
        };
        let cur = row
            .get("prepared_per_sec")
            .and_then(Json::as_f64)
            .ok_or("current row missing prepared_per_sec")?;
        let base = base_row
            .get("prepared_per_sec")
            .and_then(Json::as_f64)
            .ok_or("baseline row missing prepared_per_sec")?;
        let floor = base / REGRESSION_FACTOR;
        let line = format!(
            "{}/n={}/k={}: prepared {:.2}/s vs baseline {:.2}/s (floor {:.2}/s)",
            key.0, key.1, key.2, cur, base, floor
        );
        if cur < floor {
            report.regressions.push(line.clone());
        }
        report.compared.push(line);
    }
    if report.compared.is_empty() {
        report
            .compared
            .push("no overlapping throughput rows — nothing gated".into());
    }
    Ok(report)
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
        let ok =
            check_e18_against_baseline(&report(&[("er", 64.0, 6.0, 51.0)]), &baseline).unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        let bad =
            check_e18_against_baseline(&report(&[("er", 64.0, 6.0, 49.0)]), &baseline).unwrap();
        assert!(!bad.passed());
        assert_eq!(bad.regressions.len(), 1);
    }

    #[test]
    fn quick_subset_compares_only_overlap() {
        let baseline = report(&[("er", 64.0, 6.0, 100.0), ("er", 256.0, 6.0, 10.0)]);
        let quick = report(&[("er", 64.0, 6.0, 80.0)]);
        let out = check_e18_against_baseline(&quick, &baseline).unwrap();
        assert!(out.passed());
        assert_eq!(out.compared.len(), 1);
    }

    #[test]
    fn disjoint_rows_pass_vacuously() {
        let baseline = report(&[("er", 512.0, 6.0, 1.0)]);
        let out =
            check_e18_against_baseline(&report(&[("er", 64.0, 6.0, 9.0)]), &baseline).unwrap();
        assert!(out.passed());
        assert!(out.compared[0].contains("nothing gated"));
    }

    #[test]
    fn rejects_non_e18_documents() {
        let good = report(&[]);
        let bad = Json::Obj(vec![("experiment".into(), Json::Str("e1".into()))]);
        assert!(check_e18_against_baseline(&good, &bad).is_err());
        assert!(check_e18_against_baseline(&bad, &good).is_err());
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
        let ok = check_e19_against_baseline(&e19_report(&[("cycle", 1025.0, 1.1, 1.9)]), &baseline)
            .unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // Memory win halved below the floor: regression.
        let bad_bytes =
            check_e19_against_baseline(&e19_report(&[("cycle", 1025.0, 1.0, 0.8)]), &baseline)
                .unwrap();
        assert!(!bad_bytes.passed());
        // Sparse became > 2× slower than dense: regression.
        let bad_wall =
            check_e19_against_baseline(&e19_report(&[("cycle", 1025.0, 2.1, 2.5)]), &baseline)
                .unwrap();
        assert!(!bad_wall.passed());
        // Non-overlapping rows pass vacuously.
        let disjoint =
            check_e19_against_baseline(&e19_report(&[("er", 256.0, 1.2, 1.0)]), &baseline).unwrap();
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
        let ok = check_e20_against_baseline(
            &e20_report(
                &[("path", 16384.0, 900_000.0)],
                &[("path", 16384.0, 131072.0, 9.5)],
            ),
            &baseline,
        )
        .unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // Resident footprint more than doubled: regression.
        let bad_peak = check_e20_against_baseline(
            &e20_report(
                &[("path", 16384.0, 1_100_000.0)],
                &[("path", 16384.0, 131072.0, 8.0)],
            ),
            &baseline,
        )
        .unwrap();
        assert!(!bad_peak.passed());
        // Scaling ratio blew past 2× the baseline (n² crept back in).
        let bad_ratio = check_e20_against_baseline(
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
            check_e20_against_baseline(&e20_report(&[("er", 1024.0, 9_000.0)], &[]), &baseline)
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
        let ok =
            check_e21_against_baseline(&e21_report(&[("grid-w", 64.0, 75.0, 2_300.0)]), &baseline)
                .unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // MST rounds more than doubled: regression.
        let bad_mst =
            check_e21_against_baseline(&e21_report(&[("grid-w", 64.0, 81.0, 1_200.0)]), &baseline)
                .unwrap();
        assert!(!bad_mst.passed());
        // thm1 rounds more than doubled: regression.
        let bad_thm1 =
            check_e21_against_baseline(&e21_report(&[("grid-w", 64.0, 40.0, 2_500.0)]), &baseline)
                .unwrap();
        assert!(!bad_thm1.passed());
        // Non-overlapping rows pass vacuously.
        let disjoint =
            check_e21_against_baseline(&e21_report(&[("er-w", 128.0, 50.0, 1_000.0)]), &baseline)
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
        let ok =
            check_e22_against_baseline(&e22_report(&[(256.0, 1.6)], &[(1024.0, 1.5)]), &baseline)
                .unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // Dense panel win collapsed below its floor: regression.
        let bad_dense =
            check_e22_against_baseline(&e22_report(&[(256.0, 1.4)], &[(1024.0, 1.8)]), &baseline)
                .unwrap();
        assert!(!bad_dense.passed());
        // Sparse panel win collapsed below its floor: regression.
        let bad_sparse =
            check_e22_against_baseline(&e22_report(&[(256.0, 2.0)], &[(1024.0, 1.3)]), &baseline)
                .unwrap();
        assert!(!bad_sparse.passed());
        // A never-was-a-win baseline (≤ ×1) falls back to base/2: an
        // equal current value passes.
        let flat_base = e22_report(&[(256.0, 0.9)], &[]);
        let flat = check_e22_against_baseline(&flat_base, &flat_base).unwrap();
        assert!(flat.passed(), "{:?}", flat.regressions);
        // Non-overlapping rows pass vacuously; the stealing ratio is
        // reported but never gated.
        let disjoint =
            check_e22_against_baseline(&e22_report(&[(384.0, 0.1)], &[]), &baseline).unwrap();
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
        let ok = check_serve_against_baseline(&serve_report(2.1), &baseline).unwrap();
        assert!(ok.passed(), "{:?}", ok.regressions);
        // The multiplexing win collapsed below the floor: regression.
        let bad = check_serve_against_baseline(&serve_report(1.9), &baseline).unwrap();
        assert!(!bad.passed());
        assert_eq!(bad.regressions.len(), 1);
        // A fully serialized front-end (×1) fails any healthy baseline.
        let flat = check_serve_against_baseline(&serve_report(1.0), &serve_report(1.8)).unwrap();
        assert!(!flat.passed());
        // Malformed documents are hard errors, not silent passes.
        let empty = Json::Obj(vec![("experiment".into(), Json::Str("serve".into()))]);
        assert!(check_serve_against_baseline(&empty, &baseline).is_err());
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
}
