//! The claim row format.
//!
//! Every `BENCH_*.json` a claim produces is a list of *rows*: ordered
//! scalar fields (by convention led by a `"cell"` name), optionally
//! followed by a `"stages"` list of sub-rows. This module is the only
//! writer of that format ([`Rows::write`]) — one row per line, fixed key
//! order, no JSON dependency — in both layouts the checked-in baselines
//! use: a bare array of rows, and an object with header fields and a
//! `"cells"` array. Nothing reads it back: claim numbers are virtual time
//! and deterministic counters, so the harness holds an output against its
//! baseline byte for byte.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_both_layouts_one_row_per_line() {
        let rows = vec![
            Row::new()
                .with("cell", "a \"quoted\\\" name\n")
                .with("crash", true)
                .with("inflation", Value::Fixed(1.5, 4))
                .with("depth", -3i64),
            Row::new().with("cell", "b").stages(vec![
                Row::new().with("stage", "deliver").with("p50_us", 100u64),
                Row::new().with("stage", "hop").with("p50_us", 1000u64),
            ]),
        ];
        let first = r#"{"cell": "a \"quoted\\\" name\n", "crash": true, "inflation": 1.5000, "depth": -3},"#;
        assert_eq!(
            Rows::array(rows.clone()).write(),
            format!(
                "[\n  {first}\n  {{\"cell\": \"b\", \"stages\": [\n  \
                 {{\"stage\": \"deliver\", \"p50_us\": 100}},\n  \
                 {{\"stage\": \"hop\", \"p50_us\": 1000}}\n  ]}}\n]\n"
            )
        );
        let header = Row::new().with("claim", "C9").with("seed", 7u64).fields;
        let object = Rows::object(header, 2, rows).write();
        assert!(object
            .starts_with("{\n  \"claim\": \"C9\",\n  \"seed\": 7,\n  \"cells\": [\n    {\"cell\""));
        assert!(object.ends_with("    ]}\n  ]\n}\n"), "{object}");
        assert_eq!(object.lines().count(), 4 + 5 + 2, "header, rows and stages, closers");
    }

    #[test]
    fn rows_read_back_what_a_claim_wrote_and_set_keeps_the_position() {
        let row = Row::new().with("cell", "n=8").with("sigs", 9u64).with("ok", "yes");
        assert_eq!((row.int("sigs"), row.text("ok")), (9, "yes"));
        assert_eq!(row.get("missing"), None);
        let row = row.set("sigs", 10u64);
        assert_eq!(row.fields[1], ("sigs".to_string(), Value::Int(10)));
    }
}
