//! `e2e compare <a> <b>`: hold the end-to-end records of two captured
//! outputs against the per-metric bounds, one row per metric × workload.
//!
//! * `ok` — `b`'s median is no worse than `a`'s by more than the bound
//!   (counts that repeat exactly: not worse at all);
//! * `worse` — it is; the exit code is non-zero;
//! * `unresolved` — the run-to-run spread of either side (quartile distance
//!   over median) is wider than the bound and the two sides overlap, so the
//!   runs cannot tell.

use crate::json::{self, Json};
use crate::metrics::{spec, Better};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Side {
    /// metric → one value per run
    values: BTreeMap<String, Vec<f64>>,
    /// seed → digest of the generated inputs
    inputs: BTreeMap<u64, String>,
    failed: u64,
    attempted: u64,
}

/// The untraced records of a captured output, per workload.
fn read_records(text: &str) -> BTreeMap<String, Side> {
    let mut out: BTreeMap<String, Side> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("{\"workload\"")) {
        let Ok(record) = json::parse(line) else { continue };
        let field = |k: &str| record.get(k).and_then(Json::as_f64);
        let (Some(workload), Some(metrics)) = (
            record.get("workload").and_then(Json::as_str),
            record.get("metrics").and_then(Json::as_object),
        ) else {
            continue;
        };
        if field("trace") != Some(0.0) {
            continue; // per-layer records carry no bounds
        }
        let side = out.entry(workload.to_string()).or_default();
        for (name, cell) in metrics {
            if let Some(v) = cell.get("value").and_then(Json::as_f64) {
                side.values.entry(name.clone()).or_default().push(v);
            }
        }
        if let (Some(seed), Some(sha)) =
            (field("seed"), record.get("inputs_sha256").and_then(Json::as_str))
        {
            side.inputs.insert(seed as u64, sha.to_string());
        }
        side.failed += field("failed").unwrap_or(0.0) as u64;
        side.attempted += field("attempted").unwrap_or(0.0) as u64;
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s (negative:
/// better), the wider of the two spreads, and the verdict.
fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, exact: bool) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = if ma == mb { 0.0 } else { sign * (mb - ma) / ma.abs() };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let verdict = if exact {
        if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if spread <= bound {
        if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if b.iter().all(|y| a.iter().all(|x| beats(*y, *x))) {
        Verdict::Ok
    } else if worse_by > bound && b.iter().all(|y| a.iter().all(|x| beats(*x, *y))) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    (worse_by, spread, verdict)
}

/// Compare two captured outputs; returns the report and whether any row
/// reads `worse`.
fn compare(a_text: &str, b_text: &str) -> (String, bool) {
    let (a, b) = (read_records(a_text), read_records(b_text));
    let mut report = format!(
        "{:<12} {:<22} {:>12} {:>12} {:>9} {:>8}  verdict\n",
        "workload", "metric", "a median", "b median", "worse by", "spread"
    );
    let mut any_worse = false;
    let mut row = |w: &str, metric: &str, ma: f64, mb: f64, by: f64, spread: f64, v: Verdict| {
        any_worse |= v == Verdict::Worse;
        report.push_str(&format!(
            "{w:<12} {metric:<22} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>7.2}%  {}\n",
            by * 100.0,
            spread * 100.0,
            v.as_str()
        ));
    };
    for (workload, _) in &spec().workloads {
        let (Some(sa), Some(sb)) = (a.get(workload), b.get(workload)) else { continue };
        // the same seed must have produced the same inputs on both sides
        let same_work =
            sa.inputs.iter().all(|(seed, sha)| sb.inputs.get(seed).is_none_or(|s| s == sha));
        if !same_work {
            row(workload, "inputs_sha256", 0.0, 0.0, 0.0, 0.0, Verdict::Worse);
        }
        for def in &spec().end_to_end {
            let (Some(va), Some(vb)) = (sa.values.get(&def.name), sb.values.get(&def.name)) else {
                continue;
            };
            let bound = def.bound.expect("every end-to-end metric has a bound");
            let (by, spread, v) = judge(va, vb, def.better, bound, def.exact());
            row(workload, &def.name, median(va), median(vb), by, spread, v);
        }
        let share = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
        let v = if sb.failed > 0 { Verdict::Worse } else { Verdict::Ok };
        row(workload, "failed_share", share(sa), share(sb), 0.0, 0.0, v);
    }
    (report, any_worse)
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match (read(a_path), read(b_path)) {
        (Ok(a), Ok(b)) => {
            let (report, any_worse) = compare(&a, &b);
            print!("{report}");
            if report.lines().count() == 1 {
                eprintln!("no workload has end-to-end records in both files");
                return ExitCode::from(2);
            }
            ExitCode::from(u8::from(any_worse))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, sha: &str, hops: f64, wire: f64, failed: u64) -> String {
        format!(
            "noise\n{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": 12, \"trace\": 0, \
             \"inputs_sha256\": \"{sha}\", \"correct\": true, \"attempted\": 10, \"failed\": {failed}, \
             \"metrics\": {{\"hops_per_s\": {{\"value\": {hops}, \"unit\": \"1/s\"}}, \
             \"wire_kb_per_hop\": {{\"value\": {wire}, \"unit\": \"KB\"}}}}}}\n"
        )
    }

    #[test]
    fn within_bound_is_ok_beyond_is_worse() {
        let a = record("fleet_basic", 1, "x", 400.0, 7.5, 0);
        let (report, worse) = compare(&a, &record("fleet_basic", 1, "x", 350.0, 7.5, 0));
        assert!(!worse, "{report}");
        assert!(report.contains("hops_per_s") && report.contains("ok"));
        // hops_per_s is better higher: 30 % fewer is beyond its 25 % bound
        let (report, worse) = compare(&a, &record("fleet_basic", 1, "x", 280.0, 7.5, 0));
        assert!(worse && report.contains("worse"), "{report}");
        // more hops per second is never worse
        let (_, worse) = compare(&a, &record("fleet_basic", 1, "x", 800.0, 7.5, 0));
        assert!(!worse);
    }

    #[test]
    fn counts_are_exact_and_failures_and_other_inputs_are_worse() {
        let a = record("fleet_basic", 1, "x", 400.0, 7.5, 0);
        assert!(compare(&a, &record("fleet_basic", 1, "x", 400.0, 7.5001, 0)).1);
        assert!(!compare(&a, &record("fleet_basic", 1, "x", 400.0, 7.4, 0)).1);
        assert!(compare(&a, &record("fleet_basic", 1, "x", 400.0, 7.5, 1)).1);
        assert!(compare(&a, &record("fleet_basic", 1, "y", 400.0, 7.5, 0)).1);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_do_not_overlap() {
        let runs = |values: &[f64]| -> String {
            values.iter().map(|v| record("chain_deep", 1, "x", *v, 30.0, 0)).collect()
        };
        let a = runs(&[300.0, 400.0, 500.0, 350.0]);
        let (report, worse) = compare(&a, &runs(&[310.0, 390.0, 480.0, 330.0]));
        assert!(!worse && report.contains("unresolved"), "{report}");
        let (report, worse) = compare(&a, &runs(&[510.0, 600.0, 700.0, 650.0]));
        assert!(!worse && !report.contains("unresolved"), "every b beats every a: {report}");
        let (report, worse) = compare(&a, &runs(&[100.0, 200.0, 250.0, 150.0]));
        assert!(worse, "every b loses to every a, far beyond the bound: {report}");
    }
}
