//! The claim row format and the perf regression gate over it.
//!
//! Every `BENCH_*.json` a claim produces is a list of *rows*: ordered
//! scalar fields (by convention led by a `"cell"` name), optionally
//! followed by a `"stages"` list of sub-rows. This module is the only
//! writer ([`Rows::write`]) and the only reader ([`Rows::read`]) of that
//! format — one row per line, fixed key order, no JSON dependency — in both
//! layouts the checked-in baselines use: a bare array of rows, and an
//! object with header fields and a `"cells"` array.
//!
//! The gate holds a fresh document against a checked-in baseline under
//! explicit tolerances. Claim numbers are *virtual time* and deterministic
//! counters, so a "regression" is a code change that made a stage
//! genuinely cost more (extra hops, extra retries, longer waits), not
//! scheduler noise — which is why the gate can afford to be strict.

use std::collections::BTreeMap;
use std::fmt;

/// One scalar field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An integer counter or virtual-time reading.
    Int(i64),
    /// A fixed-point number and the digits printed after the point.
    Fixed(f64, usize),
    /// `true` / `false`.
    Bool(bool),
    /// A string (names, digests, `"ok"`-style verdict words).
    Str(String),
}

impl Value {
    /// The numeric reading the gate compares, if the value has one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Fixed(x, _) => Some(*x),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(x, digits) => write!(f, "{x:.digits$}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
        }
    }
}

macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Int(i64::try_from(n).expect("claim counters fit an i64"))
            }
        }
    )*};
}
value_from_int!(u32, u64, usize, i64);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// Ordered `key → value` fields, as they appear on one line.
pub type Fields = Vec<(String, Value)>;

/// One row: ordered scalar fields plus an optional `"stages"` sub-list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    /// The scalar fields, in output order.
    pub fields: Fields,
    /// Per-stage sub-rows (latency profiles), written after the fields.
    pub stages: Option<Vec<Row>>,
}

impl Row {
    /// An empty row.
    #[must_use]
    pub fn new() -> Row {
        Row::default()
    }

    /// Append one field.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Row {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Replace the value of an existing field, keeping its position.
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<Value>) -> Row {
        let slot = self.fields.iter_mut().find(|(k, _)| k == key);
        slot.unwrap_or_else(|| panic!("row has no field '{key}' to set")).1 = value.into();
        self
    }

    /// Attach the `"stages"` sub-rows.
    #[must_use]
    pub fn stages(mut self, stages: Vec<Row>) -> Row {
        self.stages = Some(stages);
        self
    }

    /// Look a field up by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The integer under `key`; a claim reading back a counter it did not
    /// write is a bug in the claim.
    #[must_use]
    pub fn int(&self, key: &str) -> i64 {
        match self.get(key) {
            Some(Value::Int(n)) => *n,
            other => panic!("row has no integer '{key}' (found {other:?})"),
        }
    }

    /// The string under `key`, likewise.
    #[must_use]
    pub fn text(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("row has no string '{key}' (found {other:?})"),
        }
    }

    fn write_fields(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!("{sep}\"{key}\": {value}"));
        }
    }
}

/// How the rows are wrapped.
#[derive(Clone, Debug, PartialEq)]
pub enum Layout {
    /// `[ row, row, … ]`, rows indented two spaces.
    Array,
    /// `{ header…, "cells": [ row, … ] }` — header fields one per line at
    /// `indent` spaces, rows at twice that.
    Object {
        /// Fields written before the `"cells"` array.
        header: Fields,
        /// Spaces before each header line.
        indent: usize,
    },
}

/// A whole row document.
#[derive(Clone, Debug, PartialEq)]
pub struct Rows {
    /// The wrapping layout.
    pub layout: Layout,
    /// The rows, in output order.
    pub rows: Vec<Row>,
}

impl Rows {
    /// Rows in the bare-array layout.
    #[must_use]
    pub fn array(rows: Vec<Row>) -> Rows {
        Rows { layout: Layout::Array, rows }
    }

    /// Rows in the object layout.
    #[must_use]
    pub fn object(header: Fields, indent: usize, rows: Vec<Row>) -> Rows {
        Rows { layout: Layout::Object { header, indent }, rows }
    }

    /// Serialize: one row (or stage) per line, byte-deterministic.
    #[must_use]
    pub fn write(&self) -> String {
        let mut out = String::new();
        let (row_pad, close) = match &self.layout {
            Layout::Array => {
                out.push_str("[\n");
                ("  ".to_string(), "]\n".to_string())
            }
            Layout::Object { header, indent } => {
                let pad = " ".repeat(*indent);
                out.push_str("{\n");
                for (key, value) in header {
                    out.push_str(&format!("{pad}\"{key}\": {value},\n"));
                }
                out.push_str(&format!("{pad}\"cells\": [\n"));
                (pad.repeat(2), format!("{pad}]\n}}\n"))
            }
        };
        let comma = |i: usize, len: usize| if i + 1 == len { "" } else { "," };
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&row_pad);
            row.write_fields(&mut out);
            match &row.stages {
                None => out.push('}'),
                Some(stages) => {
                    out.push_str(", \"stages\": [\n");
                    for (j, stage) in stages.iter().enumerate() {
                        out.push_str(&row_pad);
                        stage.write_fields(&mut out);
                        out.push_str(&format!("}}{}\n", comma(j, stages.len())));
                    }
                    out.push_str(&format!("{row_pad}]}}"));
                }
            }
            out.push_str(&format!("{}\n", comma(i, self.rows.len())));
        }
        out.push_str(&close);
        out
    }

    /// Parse a document [`Rows::write`] produced. Strict: anything that is
    /// not exactly that shape is an error, never a silently shorter index.
    pub fn read(text: &str) -> Result<Rows, String> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let mut next = move || lines.next().ok_or_else(|| "unexpected end of document".to_string());
        let at = |n: usize, e: String| format!("line {n}: {e}");

        let layout = match next()?.1.trim() {
            "[" => Layout::Array,
            "{" => {
                let mut header = Fields::new();
                loop {
                    let (n, line) = next()?;
                    if line.trim() == "\"cells\": [" {
                        break Layout::Object {
                            header,
                            indent: line.len() - line.trim_start().len(),
                        };
                    }
                    let wrapped = format!("{{{}}}", line.trim().trim_end_matches(','));
                    header.extend(parse_fields(&wrapped).map_err(|e| at(n, e))?.0);
                }
            }
            other => return Err(format!("line 1: expected '[' or '{{', found '{other}'")),
        };

        let mut rows = Vec::new();
        loop {
            let (n, line) = next()?;
            if line.trim() == "]" {
                break;
            }
            let (fields, opens_stages) = parse_fields(line).map_err(|e| at(n, e))?;
            let stages = if opens_stages {
                let mut stages = Vec::new();
                loop {
                    let (n, line) = next()?;
                    if line.trim().starts_with("]}") {
                        break;
                    }
                    let (fields, nested) = parse_fields(line).map_err(|e| at(n, e))?;
                    if nested {
                        return Err(at(n, "a stage cannot have stages".into()));
                    }
                    stages.push(Row { fields, stages: None });
                }
                Some(stages)
            } else {
                None
            };
            rows.push(Row { fields, stages });
        }
        if matches!(layout, Layout::Object { .. }) && next()?.1.trim() != "}" {
            return Err("expected the closing '}'".into());
        }
        Ok(Rows { layout, rows })
    }
}

/// Parse `{"k": v, "k": v…` up to the closing `}` — or up to `"stages": [`,
/// in which case the second return is `true` and the stage lines follow.
fn parse_fields(line: &str) -> Result<(Fields, bool), String> {
    let mut rest = line.trim().strip_prefix('{').ok_or("expected '{'")?;
    let mut fields = Fields::new();
    loop {
        let (key, after) = parse_string(rest.trim_start())?;
        rest = after.trim_start().strip_prefix(':').ok_or("expected ':'")?.trim_start();
        if key == "stages" && rest.starts_with('[') {
            return Ok((fields, true));
        }
        let (value, after) = parse_value(rest)?;
        fields.push((key, value));
        rest = after.trim_start();
        match rest.strip_prefix(',') {
            Some(more) => rest = more,
            None if rest.starts_with('}') => return Ok((fields, false)),
            None => return Err(format!("expected ',' or '}}' before '{rest}'")),
        }
    }
}

fn parse_string(s: &str) -> Result<(String, &str), String> {
    let mut chars = s.strip_prefix('"').ok_or("expected '\"'")?.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[i + 2..])),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, c)) => out.push(c),
                None => break,
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_value(s: &str) -> Result<(Value, &str), String> {
    if s.starts_with('"') {
        return parse_string(s).map(|(v, rest)| (Value::Str(v), rest));
    }
    for (word, value) in [("true", true), ("false", false)] {
        if let Some(rest) = s.strip_prefix(word) {
            return Ok((Value::Bool(value), rest));
        }
    }
    let end = s.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(s.len());
    let (num, rest) = s.split_at(end);
    let value = match num.split_once('.') {
        Some((_, frac)) => num.parse().map(|x| Value::Fixed(x, frac.len())).ok(),
        None => num.parse().map(Value::Int).ok(),
    };
    value.map(|v| (v, rest)).ok_or_else(|| format!("expected a value, found '{s}'"))
}

/// Per-stage tolerance table: how much a gated number may grow (percent)
/// before the gate fails.
#[derive(Clone, Debug, PartialEq)]
pub struct Tolerances {
    /// Applied to any stage with no explicit entry.
    pub default_pct: f64,
    /// Stage-specific overrides (tighter for hot stages and exact
    /// counters, looser for noisy composites).
    pub stages: BTreeMap<String, f64>,
}

impl Tolerances {
    /// The allowed growth for `stage`, percent.
    #[must_use]
    pub fn for_stage(&self, stage: &str) -> f64 {
        self.stages.get(stage).copied().unwrap_or(self.default_pct)
    }

    /// Parse a tolerance file: `{"default_pct": N, "stages": {"hop": N, …}}`,
    /// one entry per line. Returns `None` when no `default_pct` is present
    /// (malformed file — better to fail the gate than to silently wave
    /// regressions through).
    #[must_use]
    pub fn parse(text: &str) -> Option<Tolerances> {
        let mut default_pct = None;
        let mut stages = BTreeMap::new();
        for line in text.lines() {
            let wrapped = format!("{{{}}}", line.trim().trim_end_matches(','));
            let Ok((fields, _)) = parse_fields(&wrapped) else { continue };
            for (name, value) in fields {
                match value.as_f64() {
                    Some(pct) if name == "default_pct" => default_pct = Some(pct),
                    Some(pct) => {
                        stages.insert(name, pct);
                    }
                    None => {}
                }
            }
        }
        Some(Tolerances { default_pct: default_pct?, stages })
    }
}

/// One gate violation, human-readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// `cell/key` or `cell/stage/key` the violation is in.
    pub key: String,
    /// What went wrong.
    pub detail: String,
}

/// Every gated value of a document: `path → (tolerance name, value)`.
/// Header fields sit under their own key, cell fields under `cell/key`
/// (tolerance looked up by key), stage fields under `cell/stage/key`
/// (tolerance looked up by stage). Rows without a `"cell"` are numbered.
fn index(doc: &Rows) -> BTreeMap<String, (String, &Value)> {
    let id = |row: &Row, key: &str, n: usize| match row.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => format!("#{n}"),
    };
    let mut out = BTreeMap::new();
    if let Layout::Object { header, .. } = &doc.layout {
        out.extend(header.iter().map(|(k, v)| (k.clone(), (k.clone(), v))));
    }
    for (i, row) in doc.rows.iter().enumerate() {
        let cell = id(row, "cell", i);
        for (k, v) in row.fields.iter().filter(|(k, _)| k != "cell") {
            out.insert(format!("{cell}/{k}"), (k.clone(), v));
        }
        for (j, stage_row) in row.stages.iter().flatten().enumerate() {
            let stage = id(stage_row, "stage", j);
            for (k, v) in stage_row.fields.iter().filter(|(k, _)| k != "stage") {
                out.insert(format!("{cell}/{stage}/{k}"), (stage.clone(), v));
            }
        }
    }
    out
}

/// Compare `new` against `baseline` under `tol`. Violations: a baseline
/// value that disappeared (instrumentation silently lost), a value the
/// baseline has never seen (the baseline is stale — regenerate it
/// deliberately), a number that grew beyond its tolerance, or a word or
/// digest that changed at all. Returns the violations and the number of
/// baseline values held.
#[must_use]
pub fn gate(baseline: &Rows, new: &Rows, tol: &Tolerances) -> (Vec<Violation>, usize) {
    let (base, fresh) = (index(baseline), index(new));
    let mut violations = Vec::new();
    let mut violate = |key: &str, detail: String| {
        violations.push(Violation { key: key.to_string(), detail });
    };
    for (key, (stage, base_value)) in &base {
        let Some((_, new_value)) = fresh.get(key) else {
            violate(key, "present in the baseline but missing from the new output".into());
            continue;
        };
        match (base_value.as_f64(), new_value.as_f64()) {
            (Some(b), Some(n)) => {
                let pct = tol.for_stage(stage);
                let allowed = (b * (1.0 + pct / 100.0)).floor();
                if n > allowed {
                    violate(key, format!("regressed: {b} → {n} (allowed ≤ {allowed} at +{pct}%)"));
                }
            }
            _ if base_value != new_value => {
                violate(key, format!("changed: {base_value} → {new_value}"));
            }
            _ => {}
        }
    }
    for key in fresh.keys().filter(|k| !base.contains_key(*k)) {
        violate(key, "present in the new output but missing from the baseline".into());
    }
    (violations, base.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROFILE: &str = r#"{
"claim": "C10",
"seed": 7,
"cells": [
{"cell": "basic/lossless", "steps": 9, "stages": [
{"stage": "deliver", "count": 10, "p50_us": 100, "p95_us": 200, "p99_us": 210},
{"stage": "hop", "count": 9, "p50_us": 1000, "p95_us": 2000, "p99_us": 2100}
]},
{"cell": "tfc/hostile", "steps": 9, "stages": [
{"stage": "hop", "count": 9, "p50_us": 1500, "p95_us": 3000, "p99_us": 3100}
]}
]
}
"#;

    const TOLERANCES: &str = r#"{
  "default_pct": 25,
  "stages": {
    "hop": 10
  }
}"#;

    const SCALING: &str = r#"[
  {"cell": "n=1", "sigs": 2, "seq_ec_ops": 1000, "batch_ec_ops": 700, "canon_bytes": 512, "inc_hash_bytes": 600},
  {"cell": "n=8", "sigs": 9, "seq_ec_ops": 4500, "batch_ec_ops": 1500, "canon_bytes": 2048, "inc_hash_bytes": 600}
]
"#;

    fn read(text: &str) -> Rows {
        Rows::read(text).expect("well-formed test document")
    }

    fn violations(base: &str, new: &str, tol: &Tolerances) -> Vec<Violation> {
        gate(&read(base), &read(new), tol).0
    }

    fn exact() -> Tolerances {
        Tolerances { default_pct: 0.0, stages: BTreeMap::new() }
    }

    #[test]
    fn writer_reader_round_trip_on_both_layouts() {
        for text in [PROFILE, SCALING] {
            assert_eq!(read(text).write(), text, "read → write reproduces the bytes");
        }
        let built = Rows::object(
            Row::new().with("claim", "C9").fields,
            2,
            vec![
                Row::new()
                    .with("cell", "a \"quoted\\\" name\n")
                    .with("crash", true)
                    .with("inflation", Value::Fixed(1.5, 4))
                    .with("depth", -3i64),
                Row::new().with("cell", "b").stages(vec![Row::new().with("stage", "hop")]),
            ],
        );
        assert_eq!(read(&built.write()), built, "write → read reproduces the rows");
        assert!(built.write().contains("\"inflation\": 1.5000"));
    }

    #[test]
    fn reader_rejects_what_the_writer_never_produces() {
        assert!(Rows::read("").is_err());
        assert!(Rows::read("[\n  {\"cell\": \"a\"}\n").is_err(), "no closing bracket");
        assert!(Rows::read("[\n  {\"cell\": }\n]\n").is_err(), "missing value");
        assert!(Rows::read("(\n)\n").is_err());
    }

    #[test]
    fn indexes_cells_stages_and_header() {
        let doc = read(PROFILE);
        let idx = index(&doc);
        let at = |path: &str| (idx[path].0.as_str(), idx[path].1);
        assert_eq!(at("basic/lossless/deliver/p95_us"), ("deliver", &Value::Int(200)));
        assert_eq!(at("tfc/hostile/hop/p95_us"), ("hop", &Value::Int(3000)));
        assert_eq!(at("basic/lossless/steps"), ("steps", &Value::Int(9)));
        assert_eq!(at("seed"), ("seed", &Value::Int(7)));
        assert_eq!(index(&read(SCALING)).len(), 10, "2 cells × 5 counters");
    }

    #[test]
    fn scaling_gate_catches_ec_op_regressions() {
        assert_eq!(violations(SCALING, SCALING, &exact()), vec![]);
        let worse = SCALING.replace("\"batch_ec_ops\": 1500", "\"batch_ec_ops\": 1501");
        let found = violations(SCALING, &worse, &exact());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, "n=8/batch_ec_ops");
    }

    #[test]
    fn parses_tolerances_with_overrides() {
        let tol = Tolerances::parse(TOLERANCES).unwrap();
        assert!((tol.default_pct - 25.0).abs() < f64::EPSILON);
        assert!((tol.for_stage("hop") - 10.0).abs() < f64::EPSILON);
        assert!((tol.for_stage("deliver") - 25.0).abs() < f64::EPSILON);
        assert_eq!(Tolerances::parse("{}"), None, "missing default_pct is malformed");
    }

    #[test]
    fn identical_profiles_pass() {
        let tol = Tolerances::parse(TOLERANCES).unwrap();
        let (found, held) = gate(&read(PROFILE), &read(PROFILE), &tol);
        assert_eq!(found, vec![]);
        assert_eq!(held, 2 + 2 + 3 * 4, "header, cell and stage values");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let tol = Tolerances::parse(TOLERANCES).unwrap();
        // hop tolerance is 10%: 2000 → 2200 is the limit, 2201 must fail
        let ok = PROFILE.replace("\"p95_us\": 2000", "\"p95_us\": 2200");
        assert_eq!(violations(PROFILE, &ok, &tol), vec![]);
        let bad = PROFILE.replace("\"p95_us\": 2000", "\"p95_us\": 2201");
        let found = violations(PROFILE, &bad, &tol);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, "basic/lossless/hop/p95_us");
        assert!(found[0].detail.contains("2201"));
    }

    #[test]
    fn within_default_tolerance_passes() {
        let tol = Tolerances::parse(TOLERANCES).unwrap();
        // deliver has no override: 25% of 200 → up to 250 passes
        let grown = PROFILE.replace("\"p95_us\": 200,", "\"p95_us\": 250,");
        assert_eq!(violations(PROFILE, &grown, &tol), vec![]);
        let too_big = PROFILE.replace("\"p95_us\": 200,", "\"p95_us\": 251,");
        assert_eq!(violations(PROFILE, &too_big, &tol).len(), 1);
    }

    #[test]
    fn missing_stage_fails() {
        let tol = Tolerances::parse(TOLERANCES).unwrap();
        let gone = PROFILE.replace(
            "{\"stage\": \"deliver\", \"count\": 10, \"p50_us\": 100, \"p95_us\": 200, \"p99_us\": 210},\n",
            "",
        );
        let found = violations(PROFILE, &gone, &tol);
        assert_eq!(found.len(), 4, "every value of the lost stage");
        assert!(found.iter().all(|v| v.detail.contains("missing from the new output")));
    }

    #[test]
    fn keys_missing_from_or_extra_to_the_baseline_fail() {
        // a dropped counter (instrumentation lost) …
        let dropped = SCALING.replace(" \"batch_ec_ops\": 1500,", "");
        let found = violations(SCALING, &dropped, &exact());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, "n=8/batch_ec_ops");
        // … and a counter the baseline never saw: the stale-baseline hole
        // that let four new fleet columns go ungated
        let found = violations(&dropped, SCALING, &exact());
        assert_eq!(found.len(), 1);
        assert!(found[0].detail.contains("missing from the baseline"));
    }

    #[test]
    fn changed_words_fail() {
        let base = "[\n  {\"cell\": \"a\", \"sha\": \"00ff\", \"ok\": true}\n]\n";
        assert_eq!(violations(base, base, &exact()), vec![]);
        let found = violations(base, &base.replace("00ff", "00fe"), &exact());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, "a/sha");
        assert_eq!(violations(base, &base.replace("true", "false"), &exact()).len(), 1);
    }
}
