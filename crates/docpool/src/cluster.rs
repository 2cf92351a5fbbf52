//! The table (the "HBase cluster" of the paper's Fig. 7): one ordered map
//! of rows behind one reader-writer lock — point reads and writes, scans and
//! their counters.

use crate::row::Row;
use crate::scan::{Scan, ScanResult};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Ignored, both fields: a table holds one value per column in one map.
/// Kept because `crates/e2e` builds its probe table with it; ROADMAP item 1
/// removes it.
pub struct TableConfig {
    /// Ignored.
    pub max_versions: usize,
    /// Ignored.
    pub max_region_rows: usize,
}

/// The pool of DRA4WfMS documents: rows in key order, one value per column.
///
/// Safe to share: many readers and writers may call it at once. A read
/// takes the lock only long enough to bump the reference counts of the rows
/// it returns, so a caller may read the table again while it holds them.
#[derive(Default)]
pub struct HTable {
    rows: RwLock<BTreeMap<Arc<str>, Arc<Row>>>,
    /// Cumulative rows returned by [`HTable::query`] (monitoring evidence).
    scanned_rows: AtomicUsize,
    /// Cumulative [`HTable::query`] calls.
    scans: AtomicUsize,
}

impl HTable {
    /// An empty table; `config` is ignored (see [`TableConfig`]).
    pub fn new(_config: TableConfig) -> HTable {
        HTable::default()
    }

    /// Set a column of row `key`.
    pub fn put(&self, key: &str, family: &str, qualifier: &str, value: impl Into<Vec<u8>>) {
        self.put_shared(key, family, qualifier, Arc::from(value.into()));
    }

    /// Set a column of row `key` to bytes the caller already shares. A row
    /// a reader still holds is copied first, so the reader's stays as read.
    pub(crate) fn put_shared(&self, key: &str, family: &str, qualifier: &str, value: Arc<[u8]>) {
        let mut rows = self.write();
        match rows.get_mut(key) {
            Some(row) => Arc::make_mut(row).put(family, qualifier, value),
            None => {
                let mut row = Row::default();
                row.put(family, qualifier, value);
                rows.insert(Arc::from(key), Arc::new(row));
            }
        }
    }

    /// A column's value.
    pub fn get(&self, key: &str, family: &str, qualifier: &str) -> Option<Arc<[u8]>> {
        self.read().get(key)?.get(family, qualifier).cloned()
    }

    /// A column's value decoded as UTF-8.
    pub fn get_str(&self, key: &str, family: &str, qualifier: &str) -> Option<String> {
        self.get(key, family, qualifier).map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    /// Delete a row; true if it existed.
    pub fn delete_row(&self, key: &str) -> bool {
        self.write().remove(key).is_some()
    }

    /// Run a [`Scan`]: the rows of its window in key order, up to its limit,
    /// as the handles the table holds — no key or value is copied. Bills the
    /// rows and the scan to [`HTable::scan_counters`].
    pub fn query(&self, scan: &Scan) -> ScanResult {
        let limit = if scan.limit == 0 { usize::MAX } else { scan.limit };
        let to = scan.to.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
        // `BTreeMap::range` panics on a window that ends before it starts
        let empty = matches!(to, Bound::Excluded(to) if to <= scan.from.as_str());
        let rows: Vec<(Arc<str>, Arc<Row>)> = if empty {
            Vec::new()
        } else {
            let all = self.read();
            let window = all.range::<str, _>((Bound::Included(scan.from.as_str()), to));
            window.take(limit).map(|(key, row)| (Arc::clone(key), Arc::clone(row))).collect()
        };
        self.scanned_rows.fetch_add(rows.len(), Ordering::Relaxed);
        self.scans.fetch_add(1, Ordering::Relaxed);
        ScanResult { rows }
    }

    /// Cumulative `(rows returned, scans run)` across every
    /// [`HTable::query`] this table has served — exported as the
    /// `pool.scanned_rows` / `pool.scanned_regions` metric pair.
    pub fn scan_counters(&self) -> (usize, usize) {
        (self.scanned_rows.load(Ordering::Relaxed), self.scans.load(Ordering::Relaxed))
    }

    /// Total row count.
    pub fn row_count(&self) -> usize {
        self.read().len()
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, BTreeMap<Arc<str>, Arc<Row>>> {
        self.rows.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<Arc<str>, Arc<Row>>> {
        self.rows.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let t = HTable::default();
        t.put("doc-1", "doc", "xml", "<a/>");
        assert_eq!(t.get_str("doc-1", "doc", "xml").unwrap(), "<a/>");
        assert_eq!(t.get("missing", "doc", "xml"), None);
    }

    #[test]
    fn a_put_keeps_one_value_per_column() {
        let t = HTable::default();
        t.put("k", "f", "q", "1");
        t.put("k", "f", "q", "2");
        assert_eq!(t.get_str("k", "f", "q").unwrap(), "2");
        let rows = t.query(&Scan::prefix("k")).rows;
        assert_eq!(rows[0].1.columns().count(), 1);
    }

    #[test]
    fn reads_share_the_stored_row_and_a_later_put_leaves_them_as_read() {
        let t = HTable::default();
        t.put("k", "f", "q", "1");
        let (first, second) = (t.query(&Scan::prefix("k")).rows, t.query(&Scan::prefix("k")).rows);
        assert!(Arc::ptr_eq(&first[0].0, &second[0].0), "one key allocation");
        assert!(Arc::ptr_eq(&first[0].1, &second[0].1), "one row allocation");
        t.put("k", "f", "q", "2");
        t.put("k", "f", "r", "3");
        assert_eq!(first[0].1.get_str("f", "q").unwrap(), "1");
        assert!(first[0].1.get("f", "r").is_none());
        assert_eq!(t.query(&Scan::prefix("k")).rows[0].1.get_str("f", "q").unwrap(), "2");
    }

    #[test]
    fn scan_windows_are_half_open() {
        let t = HTable::default();
        for k in ["a", "b", "n", "z"] {
            t.put(k, "f", "q", k);
        }
        let keys = |scan: Scan| -> Vec<String> {
            t.query(&scan).rows.iter().map(|(k, _)| k.to_string()).collect()
        };
        assert_eq!(keys(Scan::range("b", Some("z".to_string()))), ["b", "n"]);
        assert_eq!(keys(Scan::range("n", None)), ["n", "z"]);
        assert!(keys(Scan::range("n", Some("b".to_string()))).is_empty(), "ends before it starts");
        assert!(keys(Scan::range("n", Some("n".to_string()))).is_empty());
    }

    #[test]
    fn prefix_query_works() {
        let t = HTable::default();
        let multi_byte = ["x\u{FF}", "x\u{FF}a", "x\u{100}", "x\u{D7FF}z", "x\u{E000}"];
        for k in
            ["proc-1/doc-1", "proc-1/doc-2", "proc-2/doc-1", "other"].into_iter().chain(multi_byte)
        {
            t.put(k, "f", "q", k);
        }
        let keys = |prefix: &str| -> Vec<String> {
            t.query(&Scan::prefix(prefix)).rows.into_iter().map(|(k, _)| k.to_string()).collect()
        };
        assert_eq!(keys("proc-1/"), ["proc-1/doc-1", "proc-1/doc-2"]);
        // a prefix ending in a multi-byte char selects only its extensions
        assert_eq!(keys("x\u{FF}"), ["x\u{FF}", "x\u{FF}a"]);
        assert_eq!(keys("x\u{D7FF}"), ["x\u{D7FF}z"]);
    }

    fn seeded_table() -> HTable {
        let t = HTable::default();
        for i in 0..30 {
            let key = format!("doc/p{:02}/000000", i % 10);
            t.put(&key, "doc", "xml", format!("<v{i}/>"));
        }
        for i in 0..10 {
            t.put(
                &format!("meta/p{i:02}"),
                "meta",
                "status",
                if i < 4 { "running" } else { "complete" },
            );
            t.put(&format!("meta/p{i:02}"), "meta", "steps", format!("{i}"));
        }
        t
    }

    #[test]
    fn a_query_bills_the_rows_it_returns_and_one_scan() {
        let t = seeded_table();
        let before = t.scan_counters();
        let res = t.query(&Scan::prefix("meta/"));
        assert_eq!(res.rows.len(), 10);
        assert!(res.rows.iter().all(|(k, _)| k.starts_with("meta/")));
        let after = t.scan_counters();
        assert_eq!((after.0 - before.0, after.1 - before.1), (10, 1), "of {}", t.row_count());
        t.query(&Scan::prefix("meta/").limit(3));
        assert_eq!(t.scan_counters().0 - after.0, 3, "a limited scan stops at its limit");
    }

    #[test]
    fn limit_and_cursor_resume() {
        let t = seeded_table();
        assert_eq!(t.query(&Scan::prefix("meta/")).rows.len(), 10);
        let limited = t.query(&Scan::prefix("meta/").limit(3));
        assert_eq!(limited.rows.len(), 3);
        assert_eq!(&*limited.rows[0].0, "meta/p00");
        let resumed = t.query(&Scan::prefix("meta/").starting_at(&limited.rows[2].0).limit(100));
        assert_eq!(resumed.rows.len(), 8, "cursor resume overlaps by one key");
    }

    #[test]
    fn delete_row() {
        let t = HTable::default();
        t.put("k", "f", "q1", "1");
        t.put("k", "f", "q2", "2");
        assert!(t.delete_row("k"));
        assert!(t.get("k", "f", "q2").is_none());
        assert!(!t.delete_row("k"));
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let t = Arc::new(HTable::default());
        let threads = 8;
        let per = 250;
        std::thread::scope(|s| {
            for w in 0..threads {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per {
                        t.put(&format!("w{w}-i{i:04}"), "f", "q", format!("{w}/{i}"));
                        if i % 50 == 0 {
                            assert!(!t.query(&Scan::prefix(&format!("w{w}-"))).rows.is_empty());
                        }
                    }
                });
            }
        });
        assert_eq!(t.row_count(), threads * per);
        for w in 0..threads {
            for i in (0..per).step_by(50) {
                assert_eq!(
                    t.get_str(&format!("w{w}-i{i:04}"), "f", "q").unwrap(),
                    format!("{w}/{i}")
                );
            }
        }
    }
}
