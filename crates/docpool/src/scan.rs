//! Typed pool scans: bounded key windows.
//!
//! A [`Scan`] describes *what* to read — a `[from, to)` key window (or a key
//! prefix) and an optional match limit — and [`crate::HTable::query`] hands
//! back the rows in it, in key order, as the handles the table stores.
//!
//! This is the monitoring-path replacement for full-table MapReduce reads:
//! a dashboard query over `meta/` rows examines only `meta/` rows, and the
//! table's cumulative [`crate::HTable::scan_counters`] say how many rows
//! every scan touched, so benches can prove the saving.

use crate::row::Row;
use std::sync::Arc;

/// Declarative description of a pool scan.
#[derive(Clone, Debug)]
pub struct Scan {
    pub(crate) from: String,
    pub(crate) to: Option<String>,
    pub(crate) limit: usize,
}

impl Scan {
    /// Scan the half-open key window `[from, to)`; `None` end = unbounded.
    pub fn range(from: impl Into<String>, to: Option<String>) -> Scan {
        Scan { from: from.into(), to, limit: 0 }
    }

    /// Scan every key starting with `prefix`.
    pub fn prefix(prefix: &str) -> Scan {
        Scan::range(prefix, prefix_end(prefix))
    }

    /// Ignored: a scan hands back whole rows, which it does not copy. Kept
    /// because `crates/e2e` calls it; ROADMAP item 1 removes it.
    pub fn family(self, _family: &str) -> Scan {
        self
    }

    /// Stop after `limit` matching rows (0 = unbounded): the result is the
    /// first `limit` rows of the window in key order.
    pub fn limit(mut self, limit: usize) -> Scan {
        self.limit = limit;
        self
    }

    /// Start the window at `key` if it is later than the current start —
    /// used by cursored readers (e.g. the audit sampler) to resume a prefix
    /// scan mid-keyspace.
    pub fn starting_at(mut self, key: &str) -> Scan {
        if key > self.from.as_str() {
            self.from = key.to_string();
        }
        self
    }
}

/// A scan's rows, in key order.
#[derive(Clone, Debug)]
pub struct ScanResult {
    /// Matching rows as `(key, row)`, ascending by key: the table's own
    /// handles, shared, not copies.
    pub rows: Vec<(Arc<str>, Arc<Row>)>,
}

/// Exclusive upper bound for "every key starting with `prefix`": the prefix
/// with its last char bumped to the next one. Code-point order is UTF-8
/// byte order, so every extension of the prefix sorts below the bound and
/// nothing else does. Trailing `char::MAX`s are popped first, and U+D7FF
/// steps over the surrogates. `None` means the prefix is unbounded above
/// (empty or all `char::MAX`).
pub(crate) fn prefix_end(prefix: &str) -> Option<String> {
    let mut end = prefix.to_string();
    while let Some(last) = end.pop() {
        let next = match last {
            '\u{D7FF}' => Some('\u{E000}'),
            last => char::from_u32(u32::from(last) + 1),
        };
        if let Some(next) = next {
            end.push(next);
            return Some(end);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_end_bumps_the_last_char() {
        assert_eq!(prefix_end("doc/"), Some("doc0".to_string()));
        assert_eq!(prefix_end("meta/"), Some("meta0".to_string()));
        assert_eq!(prefix_end("x\u{FF}"), Some("x\u{100}".to_string()));
        assert_eq!(prefix_end("x\u{D7FF}"), Some("x\u{E000}".to_string()));
        assert_eq!(prefix_end("x\u{10FFFF}"), Some("y".to_string()));
        assert_eq!(prefix_end(""), None);
        assert_eq!(prefix_end("\u{10FFFF}"), None);
    }

    #[test]
    fn builder_accumulates() {
        let s = Scan::prefix("doc/").limit(5);
        assert_eq!(s.from, "doc/");
        assert_eq!(s.to, Some("doc0".to_string()));
        assert_eq!(s.limit, 5);
    }

    #[test]
    fn starting_at_only_moves_forward() {
        let s = Scan::prefix("doc/").starting_at("doc/p/000003");
        assert_eq!(s.from, "doc/p/000003");
        let s = Scan::prefix("doc/").starting_at("abc");
        assert_eq!(s.from, "doc/", "earlier cursor cannot widen the window");
    }
}
