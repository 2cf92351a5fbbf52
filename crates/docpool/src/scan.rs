//! Typed pool scans: bounded key windows with column-family projection and
//! predicate pushdown.
//!
//! A [`Scan`] describes *what* to read — a `[from, to)` key window (or a key
//! prefix), an optional family projection, an optional match limit — and
//! [`crate::HTable::query`] decides *how*:
//! regions wholly outside the window are pruned without being touched, and
//! the surviving regions are walked one after another on the calling thread,
//! in region (= key) order. (A thread per region measured 5–10 × slower than
//! this inline walk on the prefix scans the cloud issues.)
//!
//! This is the monitoring-path replacement for full-table MapReduce reads:
//! a dashboard query over `meta/` rows examines only the regions and rows
//! that can hold `meta/` keys, and the table's cumulative
//! [`crate::HTable::scan_counters`] say how many rows and regions every scan
//! touched, so benches can prove the saving.

/// Declarative description of a pool scan.
#[derive(Clone, Debug)]
pub struct Scan {
    pub(crate) from: String,
    pub(crate) to: Option<String>,
    pub(crate) families: Option<Vec<String>>,
    pub(crate) limit: usize,
}

impl Scan {
    /// Scan the half-open key window `[from, to)`; `None` end = unbounded.
    pub fn range(from: impl Into<String>, to: Option<String>) -> Scan {
        Scan { from: from.into(), to, families: None, limit: 0 }
    }

    /// Scan every key starting with `prefix`.
    pub fn prefix(prefix: &str) -> Scan {
        Scan::range(prefix, prefix_end(prefix))
    }

    /// Project only this column family into the returned snapshots (may be
    /// called repeatedly to keep several families). Rows are still matched
    /// on their full live contents; projection only trims what gets cloned.
    pub fn family(mut self, family: &str) -> Scan {
        self.families.get_or_insert_with(Vec::new).push(family.to_string());
        self
    }

    /// Stop after `limit` matching rows (0 = unbounded). The limit applies
    /// per region and again globally after concatenation, so the result is
    /// the first `limit` matches in key order.
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
    /// Matching rows as `(key, snapshot)`, ascending by key.
    pub rows: Vec<(String, crate::RowSnapshot)>,
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
        let s = Scan::prefix("doc/").family("doc").family("meta").limit(5);
        assert_eq!(s.from, "doc/");
        assert_eq!(s.to, Some("doc0".to_string()));
        assert_eq!(s.families.as_deref(), Some(&["doc".to_string(), "meta".to_string()][..]));
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
