//! # The claim harness
//!
//! Every quantitative claim this repository reproduces — the paper's two
//! tables, its C1–C6 and our C7–C15 extensions — is one entry of
//! [`CLAIMS`]: a
//! function that builds its cells and returns a [`ClaimOutput`] (rows,
//! side files, named verdicts, metric-invariant results). Everything
//! around that function is written once, here:
//!
//! * the row format's writer ([`rows`]);
//! * the actors and instruments a cell hangs its deployment on
//!   ([`crate::rig`]);
//! * the driver ([`reproduce`]): a deterministic claim runs **twice**,
//!   each run on a fresh thread (so thread-local cost counters and memos
//!   start cold, as in a fresh process), every output of the two runs must
//!   be byte-identical, the rows must be byte-identical to the baseline
//!   `perf/BENCH_<name>.baseline.json` (which must exist), every verdict
//!   must hold and no metric invariant may be violated;
//! * the command line ([`main`]): `claim <name>`, `claim all`, `claim list`.
//!
//! A wall-clock claim (`deterministic: false`) runs once and writes no
//! file; its numbers go to stdout.
//!
//! To accept an intended change of a gated number, copy the fresh
//! `BENCH_<name>.json` over its baseline in `perf/` in the same commit.

pub mod rows;

mod crash;
mod dashboard;
mod dos;
mod faults;
mod federation;
mod fleet;
mod fuzz;
mod obs;
mod pool;
mod profile;
mod scalability;
mod scaling;
mod tables;
mod tamper;
mod tfc;

pub use rows::{Row, Rows, Value};

use dra_cloud::{alerts_to_jsonl, check_metric_invariants, Alert};
use dra_obs::MetricsRegistry;
use std::path::Path;
use std::process::ExitCode;

/// One reproducible claim.
pub struct Claim {
    /// The command-line name; outputs are `BENCH_<name>.json`.
    pub name: &'static str,
    /// The claim number in EXPERIMENTS.md.
    pub id: &'static str,
    /// Whether every output is a pure function of the code (virtual time,
    /// seeded schedules, op counters): such a claim is run twice,
    /// byte-compared, written to disk and gated.
    pub deterministic: bool,
    /// Build the cells.
    pub run: fn() -> ClaimOutput,
}

/// Every claim, in EXPERIMENTS.md order.
pub const CLAIMS: [Claim; 16] = [
    Claim { name: "table1", id: "T1", deterministic: true, run: tables::table1 },
    Claim { name: "table2", id: "T2", deterministic: true, run: tables::table2 },
    Claim { name: "scaling", id: "C1/C12", deterministic: true, run: scaling::run },
    Claim { name: "tfc", id: "C2", deterministic: false, run: tfc::run },
    Claim { name: "tamper", id: "C3", deterministic: true, run: tamper::run },
    Claim { name: "scalability", id: "C4", deterministic: false, run: scalability::run },
    Claim { name: "pool", id: "C5", deterministic: true, run: pool::run },
    Claim { name: "dos", id: "C6", deterministic: true, run: dos::run },
    Claim { name: "faults", id: "C7", deterministic: true, run: faults::run },
    Claim { name: "crash", id: "C8", deterministic: true, run: crash::run },
    Claim { name: "obs", id: "C9", deterministic: true, run: obs::run },
    Claim { name: "profile", id: "C10", deterministic: true, run: profile::run },
    Claim { name: "fleet", id: "C11", deterministic: true, run: fleet::run },
    Claim { name: "federation", id: "C13", deterministic: true, run: federation::run },
    Claim { name: "fuzz", id: "C14", deterministic: true, run: fuzz::run },
    Claim { name: "dashboard", id: "C15", deterministic: true, run: dashboard::run },
];

/// What one run of a claim produced.
#[derive(Default)]
pub struct ClaimOutput {
    /// The cells, written to `BENCH_<name>.json`.
    pub rows: Option<Rows>,
    /// Side files (alert JSONL, trace exports, dashboard), `name → bytes`.
    pub files: Vec<(String, String)>,
    /// Named pass/fail statements; the claim holds only if all are true.
    pub verdicts: Vec<(String, bool)>,
    /// Cross-layer metric invariants that did not hold, `cell: reason`.
    pub invariant_violations: Vec<String>,
    /// The alerts the closed cells raised, in cell order.
    pub alerts: Vec<Alert>,
}

impl ClaimOutput {
    /// Record the cells.
    pub fn set_rows(&mut self, rows: Rows) {
        self.rows = Some(rows);
    }

    /// Record a named verdict.
    pub fn verdict(&mut self, name: &str, ok: bool) {
        self.verdicts.push((name.to_string(), ok));
    }

    /// Record a side file.
    pub fn file(&mut self, name: &str, contents: String) {
        self.files.push((name.to_string(), contents));
    }

    /// Record the alert stream of every cell closed so far as a side file.
    pub fn alerts_file(&mut self, name: &str) {
        self.file(name, alerts_to_jsonl(&self.alerts));
    }

    /// Hold `metrics` to the cross-layer accounting invariants; returns
    /// whether they held, for the cell's own row.
    pub fn invariants(&mut self, cell: &str, metrics: &MetricsRegistry) -> bool {
        let result = check_metric_invariants(&metrics.snapshot());
        if let Err(e) = &result {
            self.invariant_violations.push(format!("{cell}: {e}"));
        }
        result.is_ok()
    }

    /// Close a cell run on `fx`: check its books and keep the alerts its
    /// monitor raised. Returns `(invariants held, alerts raised)`.
    pub fn close_cell(&mut self, cell: &str, fx: &crate::rig::Rig) -> (bool, usize) {
        let alerts = fx.monitor.alerts();
        let raised = alerts.len();
        self.alerts.extend(alerts);
        (self.invariants(cell, &fx.metrics), raised)
    }

    /// Every file this output stands for, rendered.
    fn rendered(&self, claim: &Claim) -> Vec<(String, String)> {
        let rows = self.rows.iter().map(|r| (format!("BENCH_{}.json", claim.name), r.write()));
        rows.chain(self.files.iter().cloned()).collect()
    }
}

/// How a cell's row words the outcome of its metric-invariant check.
pub fn held(invariants_ok: bool) -> &'static str {
    if invariants_ok {
        "ok"
    } else {
        "violated"
    }
}

/// A fault's visit or instant drawn from `seed` in `[1, max]` — the one
/// draw the seeded fault sweeps (`claim crash`, `claim federation`) use:
/// `1 + splitmix64(seed) % max`.
fn draw(mut seed: u64, max: u64) -> u64 {
    1 + dra_cloud::delivery::splitmix64(&mut seed) % max
}

/// Run `work(i)` for every `i < total` on `threads` scoped threads pulling
/// indices off one counter: the shared-nothing workload of the wall-clock
/// claims.
fn on_threads(threads: usize, total: usize, work: &(dyn Fn(usize) + Sync)) {
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= total {
                    break;
                }
                work(i);
            });
        }
    });
}

/// Run `run` on a fresh thread with the main thread's stack size; a panic
/// inside the claim becomes an error instead of tearing the harness down.
fn isolated(run: fn() -> ClaimOutput) -> Result<ClaimOutput, String> {
    let handle = std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(run)
        .map_err(|e| format!("could not start the claim thread: {e}"))?;
    handle.join().map_err(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)");
        format!("the claim panicked: {message}")
    })
}

/// Drive one claim end to end, printing as it goes: outputs land in
/// `out_dir`, baselines are read from `perf_dir`. Returns
/// what failed; empty means the claim is reproduced.
pub fn reproduce(claim: &Claim, out_dir: &Path, perf_dir: &Path) -> Vec<String> {
    let runs = if claim.deterministic { 2 } else { 1 };
    println!("== {} {}: {runs} run(s) ==", claim.id, claim.name);
    let mut failures = Vec::new();
    let mut outputs = Vec::new();
    for n in 1..=runs {
        println!("-- run {n}/{runs} --");
        match isolated(claim.run) {
            Ok(output) => outputs.push(output),
            Err(e) => failures.push(format!("run {n}: {e}")),
        }
    }

    if let Some(first) = outputs.first() {
        let rendered = first.rendered(claim);
        if let Some(rows) = &first.rows {
            println!("\n{}", rows.write());
        }
        if let Some(replay) = outputs.get(1) {
            let replayed = replay.rendered(claim);
            if rendered.len() != replayed.len() {
                failures.push("non-deterministic: the two runs produced different files".into());
            }
            for ((name, a), (other, b)) in rendered.iter().zip(&replayed) {
                match name == other && a == b {
                    true => println!("{name}: byte-identical across both runs"),
                    false => {
                        failures.push(format!("non-deterministic: {name} differs between runs"))
                    }
                }
            }
        }
        if claim.deterministic {
            for (name, contents) in &rendered {
                if let Err(e) = std::fs::write(out_dir.join(name), contents) {
                    failures.push(format!("could not write {name}: {e}"));
                }
            }
            if let Some(rows) = &first.rows {
                failures.extend(gate(claim, rows, perf_dir));
            }
        }
        for (name, ok) in &first.verdicts {
            println!("{name}: {ok}");
        }
        println!("metric invariants hold: {}", first.invariant_violations.is_empty());
    }
    for (n, output) in outputs.iter().enumerate() {
        let refuted = output.verdicts.iter().filter(|(_, ok)| !ok);
        failures.extend(refuted.map(|(name, _)| format!("run {}: verdict failed: {name}", n + 1)));
        let violated = output.invariant_violations.iter();
        failures.extend(violated.map(|v| format!("run {}: metric invariants: {v}", n + 1)));
    }

    for failure in &failures {
        eprintln!("FAILED {}: {failure}", claim.name);
    }
    let verdict = if failures.is_empty() { "REPRODUCED" } else { "NOT REPRODUCED" };
    println!("== {} {}: {verdict} ==\n", claim.id, claim.name);
    failures
}

/// Hold `rows` against the claim's checked-in baseline: every number is
/// virtual time or a deterministic counter, so the baseline must exist, hold
/// at least one row and be byte-identical to the output. A mismatch names
/// the first lines that differ.
fn gate(claim: &Claim, rows: &Rows, perf_dir: &Path) -> Vec<String> {
    let file = format!("BENCH_{}.baseline.json", claim.name);
    let Ok(baseline) = std::fs::read_to_string(perf_dir.join(&file)) else {
        return vec![format!(
            "gate: no {file}; to record one, copy BENCH_{}.json to perf/{file}",
            claim.name
        )];
    };
    let mut failures = Vec::new();
    if !baseline.lines().any(|line| line.trim_start().starts_with("{\"")) {
        failures.push(format!("gate: {file} holds no rows"));
    }
    let written = rows.write();
    if written == baseline {
        println!("gate: byte-identical to {file}");
    } else {
        let (old, new): (Vec<&str>, Vec<&str>) =
            (baseline.lines().collect(), written.lines().collect());
        fn line<'a>(side: &[&'a str], n: usize) -> &'a str {
            side.get(n).copied().unwrap_or("(no line)")
        }
        let differing: String = (0..old.len().max(new.len()))
            .filter(|&n| old.get(n) != new.get(n))
            .take(3)
            .map(|n| {
                format!("\n  line {}: baseline {} / new {}", n + 1, line(&old, n), line(&new, n))
            })
            .collect();
        failures.push(format!(
            "gate: output differs from {file}; if the change is intended, copy BENCH_{}.json \
             over it{differing}",
            claim.name
        ));
    }
    failures
}

/// The `claim` command line: `claim <name> | all | list`, run from the
/// repository root (outputs land there, baselines are read from `perf/`).
pub fn main(args: impl Iterator<Item = String>) -> ExitCode {
    let args: Vec<String> = args.collect();
    let selected: Vec<&Claim> = match args.as_slice() {
        [arg] if arg == "list" => {
            CLAIMS.iter().for_each(|c| println!("{}", c.name));
            return ExitCode::SUCCESS;
        }
        [arg] if arg == "all" => CLAIMS.iter().collect(),
        [arg] => CLAIMS.iter().filter(|c| c.name == arg).collect(),
        _ => vec![],
    };
    if selected.is_empty() {
        let names: Vec<&str> = CLAIMS.iter().map(|c| c.name).collect();
        eprintln!("usage: claim <name> | all | list\nclaims: {}", names.join(" "));
        return ExitCode::from(2);
    }
    let failed: Vec<&str> = selected
        .iter()
        .filter(|c| !reproduce(c, Path::new("."), Path::new("perf")).is_empty())
        .map(|c| c.name)
        .collect();
    if selected.len() > 1 {
        println!("{} of {} claims reproduced", selected.len() - failed.len(), selected.len());
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("not reproduced: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const PERF: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perf");
    const BASELINE: &str = "[\n  {\"cell\": \"toy\", \"hops\": 9, \"sha\": \"ab12\"}\n]\n";

    fn steady() -> ClaimOutput {
        let mut out = ClaimOutput::default();
        out.set_rows(Rows::array(vec![Row::new()
            .with("cell", "toy")
            .with("hops", 9u64)
            .with("sha", "ab12")]));
        out.file("BENCH_toy_alerts.jsonl", "{}\n".into());
        out.verdict("toy holds", true);
        out
    }

    fn drifting() -> ClaimOutput {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let mut out = steady();
        out.file("BENCH_toy_trace.jsonl", format!("{}\n", RUNS.fetch_add(1, Ordering::SeqCst)));
        out
    }

    /// Run the toy claim in a scratch directory holding `baseline` (when
    /// given); returns what failed and the `BENCH_toy.json` the run left
    /// behind.
    fn run_toy(
        test: &str,
        baseline: Option<&str>,
        run: fn() -> ClaimOutput,
    ) -> (Vec<String>, Option<String>) {
        let dir = std::env::temp_dir().join(format!("dra-claims-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        if let Some(text) = baseline {
            std::fs::write(dir.join("BENCH_toy.baseline.json"), text).unwrap();
        }
        let failures =
            reproduce(&Claim { name: "toy", id: "T0", deterministic: true, run }, &dir, &dir);
        let written = std::fs::read_to_string(dir.join("BENCH_toy.json")).ok();
        std::fs::remove_dir_all(&dir).unwrap();
        (failures, written)
    }

    #[test]
    fn steady_claim_is_reproduced_and_written() {
        let (failures, written) = run_toy("steady", Some(BASELINE), steady);
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(written.as_deref(), Some(BASELINE));
        // a deterministic claim nobody recorded a baseline for is not held
        // to anything, so it is not reproduced
        let (failures, written) = run_toy("ungated", None, steady);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("gate: no BENCH_toy.baseline.json"), "{failures:?}");
        assert_eq!(written.as_deref(), Some(BASELINE), "the output to record is still written");
    }

    #[test]
    fn non_deterministic_claim_is_a_determinism_failure() {
        let (failures, _) = run_toy("drifting", Some(BASELINE), drifting);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("non-deterministic: BENCH_toy_trace.jsonl"), "{failures:?}");
    }

    #[test]
    fn failed_verdicts_violated_invariants_and_panics_fail_the_claim() {
        fn refuted() -> ClaimOutput {
            let mut out = steady();
            out.verdict("toy refuted", false);
            out.invariant_violations.push("cell-1: books do not balance".into());
            out
        }
        let (failures, _) = run_toy("refuted", Some(BASELINE), refuted);
        assert!(failures.iter().any(|f| f.contains("verdict failed: toy refuted")), "{failures:?}");
        assert!(
            failures.iter().any(|f| f.contains("cell-1: books do not balance")),
            "{failures:?}"
        );

        let (failures, _) = run_toy("panicking", None, || panic!("cell blew up"));
        assert!(failures.iter().any(|f| f.contains("panicked: cell blew up")), "{failures:?}");
    }

    #[test]
    fn a_baseline_that_is_not_the_output_fails_and_names_the_line() {
        let gated = |test: &str, baseline: &str| {
            let failures = run_toy(test, Some(baseline), steady).0;
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("copy BENCH_toy.json over it"), "{failures:?}");
            failures[0].clone()
        };
        let row = BASELINE.lines().nth(1).unwrap();
        // one stale digit, either way, and a stale digest
        for (test, old, new) in [("up", "9", "5"), ("down", "9", "19"), ("digest", "ab12", "ab13")]
        {
            let stale = row.replace(old, new);
            let failure = gated(test, &BASELINE.replace(old, new));
            assert!(
                failure.contains(&format!("line 2: baseline {stale} / new {row}")),
                "{failure}"
            );
        }
        // a key the baseline lacks, a key only the baseline has
        let missing = gated("missing", &BASELINE.replace("\"hops\": 9, ", ""));
        assert!(missing.contains("line 2: baseline   {\"cell\": \"toy\", \"sha\""), "{missing}");
        let extra = gated("extra", &BASELINE.replace("\"hops\": 9", "\"hops\": 9, \"old\": 1"));
        assert!(extra.contains("\"old\": 1, \"sha\": \"ab12\"} / new "), "{extra}");
        // a row the baseline lacks shifts every later line
        let short = gated("short", &BASELINE.replace("[\n", "[\n  {\"cell\": \"gone\"},\n"));
        assert!(short.contains("line 2: baseline   {\"cell\": \"gone\"}, / new "), "{short}");
        assert!(short.contains("line 4: baseline ] / new (no line)"), "{short}");

        // an empty baseline holds nothing, and says so
        let empty = run_toy("empty", Some("[\n]\n"), steady).0;
        assert_eq!(empty.len(), 2, "{empty:?}");
        assert!(empty[0].contains("holds no rows"), "{empty:?}");
        assert!(empty[1].contains(&format!("line 2: baseline ] / new {row}")), "{empty:?}");
    }

    #[test]
    fn ci_matrix_lists_every_claim() {
        let ci = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.github/workflows/ci.yml");
        let ci = std::fs::read_to_string(ci).unwrap();
        let (_, list) = ci.split_once("claim: [").expect("a claim matrix");
        let (list, _) = list.split_once(']').expect("an inline list");
        let matrix: Vec<&str> = list.split(',').map(str::trim).collect();
        let names: Vec<&str> = CLAIMS.iter().map(|c| c.name).collect();
        assert_eq!(matrix, names, "the CI matrix is `claim list`");
    }

    fn read(path: &str) -> String {
        let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The fields of every row line of a baseline, in order: a string
    /// without its quotes, anything else as written. A `"stages"` sub-row
    /// stands on a line of its own, so it is a row here too.
    fn baseline_rows(baseline: &str) -> Vec<Vec<(String, String)>> {
        fn string(s: &str) -> (String, &str) {
            let mut out = String::new();
            let mut chars = s.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => return (out, &s[i + 1..]),
                    '\\' => match chars.next() {
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, escaped)) => out.push(escaped),
                        None => break,
                    },
                    c => out.push(c),
                }
            }
            panic!("unterminated string: {s:?}")
        }
        let lines = baseline.lines().filter_map(|line| line.trim_start().strip_prefix('{'));
        let rows = lines.map(|mut rest| {
            let mut fields = Vec::new();
            while let Some((key, after)) = rest.strip_prefix('"').and_then(|r| r.split_once("\": "))
            {
                let (value, tail) = match after.strip_prefix('"') {
                    Some(quoted) => string(quoted),
                    None if after.starts_with('[') => break,
                    None => {
                        let (value, tail) =
                            after.split_at(after.find([',', '}']).unwrap_or(after.len()));
                        (value.to_string(), tail)
                    }
                };
                fields.push((key.to_string(), value));
                let Some(next) = tail.strip_prefix(", ") else { break };
                rest = next;
            }
            fields
        });
        rows.filter(|fields| !fields.is_empty()).collect()
    }

    /// A cell with the thousands separators between its digits dropped.
    fn ungrouped(cell: &str) -> String {
        let chars: Vec<char> = cell.chars().collect();
        let digit =
            |i: Option<usize>| i.and_then(|i| chars.get(i)).is_some_and(char::is_ascii_digit);
        let separator = |i: usize| {
            matches!(chars[i], ',' | ' ' | '\u{a0}' | '\u{2009}' | '\u{202f}')
                && digit(i.checked_sub(1))
                && digit(Some(i + 1))
        };
        (0..chars.len()).filter(|&i| !separator(i)).map(|i| chars[i]).collect()
    }

    /// A table headed by `<!-- perf/BENCH_<name>.baseline.json: f1 f2 … -->`:
    /// the marker's line, the baseline, its fields (`-` for a column no
    /// baseline holds) and the table's data rows, cell by cell.
    struct Marked {
        line: usize,
        baseline: String,
        fields: Vec<String>,
        rows: Vec<Vec<String>>,
    }

    fn marked_tables(markdown: &str) -> Vec<Marked> {
        let lines: Vec<&str> = markdown.lines().collect();
        let cells = |row: &str| -> Vec<String> {
            let inner = row.trim().trim_start_matches('|').trim_end_matches('|');
            inner.split('|').map(|cell| cell.trim().to_string()).collect()
        };
        let mut tables = Vec::new();
        for (n, line) in lines.iter().enumerate() {
            let Some(marker) =
                line.trim().strip_prefix("<!-- ").and_then(|m| m.strip_suffix("-->"))
            else {
                continue;
            };
            let Some((baseline, fields)) = marker.split_once(':') else { continue };
            if !baseline.starts_with("perf/BENCH_") {
                continue;
            }
            let table: Vec<&str> =
                lines[n + 1..].iter().take_while(|l| l.starts_with('|')).copied().collect();
            let fields: Vec<String> = fields.split_whitespace().map(str::to_string).collect();
            let marked = Marked {
                line: n + 1,
                baseline: baseline.to_string(),
                rows: table.iter().skip(2).map(|row| cells(row)).collect(),
                fields,
            };
            let header = table.first().map(|row| cells(row).len());
            assert_eq!(
                header,
                Some(marked.fields.len()),
                "EXPERIMENTS.md line {}: a marker names one field per column of the table below it",
                marked.line
            );
            tables.push(marked);
        }
        tables
    }

    /// Every table EXPERIMENTS.md heads with a baseline marker is that
    /// baseline: row for row, the baseline's rows that carry the marker's
    /// fields, projected onto them. A `-` column (a wall-clock reading) is
    /// not compared, and thousands separators are ignored. So a count is
    /// typed once, in the baseline the claim is gated against.
    #[test]
    fn experiments_md_tables_are_their_baselines() {
        let tables = marked_tables(&read("EXPERIMENTS.md"));
        for name in ["table1", "table2"] {
            let file = format!("perf/BENCH_{name}.baseline.json");
            assert!(tables.iter().any(|t| t.baseline == file), "EXPERIMENTS.md marks {file}");
        }
        for table in &tables {
            let at = format!("EXPERIMENTS.md line {} ({})", table.line, table.baseline);
            let checked: Vec<usize> =
                (0..table.fields.len()).filter(|&i| table.fields[i] != "-").collect();
            let expected: Vec<Vec<String>> = baseline_rows(&read(&table.baseline))
                .iter()
                .filter_map(|row| {
                    let value = |field: &String| {
                        row.iter().find(|(k, _)| k == field).map(|(_, v)| v.clone())
                    };
                    checked.iter().map(|&i| value(&table.fields[i])).collect()
                })
                .collect();
            assert!(!expected.is_empty(), "{at}: no baseline row carries {:?}", table.fields);
            let found: Vec<Vec<String>> = table
                .rows
                .iter()
                .map(|row| {
                    assert_eq!(row.len(), table.fields.len(), "{at}: a row with a missing cell");
                    checked.iter().map(|&i| ungrouped(&row[i])).collect()
                })
                .collect();
            assert_eq!(found, expected, "{at}: the table is not the baseline's rows");
        }
    }

    #[test]
    fn the_marker_reader_reads_what_the_row_writer_writes() {
        let rows = Rows::object(
            Row::new().with("claim", "C0").fields,
            2,
            vec![
                Row::new()
                    .with("cell", "a \"b\"")
                    .with("n", 1234u64)
                    .stages(vec![Row::new().with("stage", "hop").with("n", 5u64)]),
                Row::new().with("cell", "c").with("x", Value::Fixed(1.5, 2)).with("ok", true),
            ],
        );
        let read = baseline_rows(&rows.write());
        let pairs = |row: &[(&str, &str)]| -> Vec<(String, String)> {
            row.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
        };
        assert_eq!(
            read,
            vec![
                pairs(&[("cell", "a \"b\""), ("n", "1234")]),
                pairs(&[("stage", "hop"), ("n", "5")]),
                pairs(&[("cell", "c"), ("x", "1.50"), ("ok", "true")]),
            ]
        );

        let markdown = "x\n<!-- perf/BENCH_t.baseline.json: cell - n -->\n\
                        | cell | α | n |\n|---|---|---|\n| a | 0.1 | 1,234 |\n| b | 0.2 | 5 678 |\n\ny\n";
        let tables = marked_tables(markdown);
        assert_eq!(tables.len(), 1);
        assert_eq!(
            (tables[0].line, tables[0].baseline.as_str()),
            (2, "perf/BENCH_t.baseline.json")
        );
        assert_eq!(tables[0].fields, ["cell", "-", "n"]);
        assert_eq!(tables[0].rows, [["a", "0.1", "1,234"], ["b", "0.2", "5 678"]]);
        assert_eq!(
            ["1,234", "5 678", "1 000 000", "join fig9a", "8 / 8", "a, b"].map(ungrouped),
            ["1234", "5678", "1000000", "join fig9a", "8 / 8", "a, b"]
        );
    }

    #[test]
    fn claim_names_are_unique_and_own_their_baselines() {
        let mut names: Vec<&str> = CLAIMS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CLAIMS.len(), "claim names are unique");

        // every checked-in baseline belongs to exactly one deterministic
        // claim, and every deterministic claim has one
        let mut baselines = 0;
        for entry in std::fs::read_dir(PERF).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            let Some(name) =
                file.strip_prefix("BENCH_").and_then(|f| f.strip_suffix(".baseline.json"))
            else {
                panic!("perf/ holds baselines only, found {file}");
            };
            let owners: Vec<&Claim> = CLAIMS.iter().filter(|c| c.name == name).collect();
            assert_eq!(owners.len(), 1, "{file} belongs to one claim");
            assert!(owners[0].deterministic, "{file}: only deterministic claims are gated");
            baselines += 1;
        }
        assert_eq!(baselines, CLAIMS.iter().filter(|c| c.deterministic).count());
    }
}
