//! The range-partitioned table (the "HBase cluster" of the paper's Fig. 7):
//! routing, automatic region splits, scans and statistics.

use crate::region::{KeyRange, Region};
use crate::row::RowSnapshot;
use crate::scan::{Scan, ScanResult};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One region a scan window intersects, with its clamped `[lo, hi)` bounds.
type ScanWindow = (Arc<Region>, String, Option<String>);

/// Tuning knobs of a table.
#[derive(Clone, Debug)]
pub struct TableConfig {
    /// Maximum stored versions per cell.
    pub max_versions: usize,
    /// A region splits once it holds more rows than this.
    pub max_region_rows: usize,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig { max_versions: 3, max_region_rows: 4096 }
    }
}

/// Aggregate statistics of a table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of regions (grows through splits).
    pub regions: usize,
    /// Total rows.
    pub rows: usize,
    /// Region splits performed.
    pub splits: usize,
}

/// A sharded, versioned table of rows — the pool of DRA4WfMS documents.
///
/// Thread-safe: many readers and writers may operate concurrently; each
/// region has its own reader-writer lock, and the region list itself is
/// read-mostly.
pub struct HTable {
    config: TableConfig,
    /// Regions sorted by start key; ranges tile the keyspace.
    regions: RwLock<Vec<Arc<Region>>>,
    clock: AtomicU64,
    splits: AtomicUsize,
    /// Cumulative rows examined by scan-API queries (monitoring evidence).
    scanned_rows: AtomicUsize,
    /// Cumulative regions visited by scan-API queries.
    scanned_regions: AtomicUsize,
}

impl Default for HTable {
    fn default() -> Self {
        Self::new(TableConfig::default())
    }
}

impl HTable {
    /// Create a table with one region covering the whole keyspace.
    pub fn new(config: TableConfig) -> HTable {
        HTable {
            config,
            regions: RwLock::new(vec![Arc::new(Region::new(KeyRange::all()))]),
            clock: AtomicU64::new(1),
            splits: AtomicUsize::new(0),
            scanned_rows: AtomicUsize::new(0),
            scanned_regions: AtomicUsize::new(0),
        }
    }

    /// Run `f` against the region owning `key`, while holding the region
    /// list's read lock. Mutations MUST go through this: a concurrent split
    /// replaces the region object, and a write that raced past the lookup
    /// would land in the dropped region and be lost. Splits take the list's
    /// write lock, so they serialize with in-flight operations.
    fn with_region<R>(&self, key: &str, f: impl FnOnce(&Region) -> R) -> (R, Arc<Region>) {
        let regions = self.read();
        // binary search over start keys
        let idx = regions.partition_point(|r| r.range.start.as_str() <= key);
        let region = &regions[idx.saturating_sub(1)];
        debug_assert!(region.range.contains(key), "routing invariant");
        let out = f(region);
        (out, region.clone())
    }

    fn region_for(&self, key: &str) -> Arc<Region> {
        self.with_region(key, |_| ()).1
    }

    /// The table configuration.
    pub(crate) fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Store a cell with an explicit timestamp (snapshot restore), which
    /// must be below `u64::MAX`. Advances the logical clock past `ts` so
    /// later puts stay newer.
    pub(crate) fn put_with_timestamp(
        &self,
        key: &str,
        family: &str,
        qualifier: &str,
        value: Arc<[u8]>,
        ts: u64,
    ) {
        self.clock.fetch_max(ts + 1, Ordering::Relaxed);
        self.store(key, family, qualifier, value, ts);
    }

    /// Store a cell. Returns the version timestamp assigned.
    pub fn put(&self, key: &str, family: &str, qualifier: &str, value: impl Into<Vec<u8>>) -> u64 {
        self.put_shared(key, family, qualifier, Arc::from(value.into()))
    }

    fn put_shared(&self, key: &str, family: &str, qualifier: &str, value: Arc<[u8]>) -> u64 {
        let ts = self.clock.fetch_add(1, Ordering::Relaxed);
        self.store(key, family, qualifier, value, ts);
        ts
    }

    fn store(&self, key: &str, family: &str, qualifier: &str, value: Arc<[u8]>, ts: u64) {
        let (needs_split, region) = self.with_region(key, |region| {
            region.put(key, family, qualifier, value, ts, self.config.max_versions);
            region.row_count() > self.config.max_region_rows
        });
        if needs_split {
            self.try_split(&region);
        }
    }

    fn try_split(&self, region: &Arc<Region>) {
        let mut regions = self.write();
        // someone may have split it already — find it by identity
        let Some(pos) = regions.iter().position(|r| Arc::ptr_eq(r, region)) else {
            return;
        };
        if regions[pos].row_count() <= self.config.max_region_rows {
            return;
        }
        if let Some((left, right)) = regions[pos].split() {
            regions[pos] = Arc::new(left);
            regions.insert(pos + 1, Arc::new(right));
            self.splits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Store a cell only if its latest value differs; returns whether a
    /// write happened. This is the journal-replay primitive: re-applying a
    /// batch after a mid-batch crash must not grow phantom versions on the
    /// rows the dying writer already reached.
    pub(crate) fn put_idempotent(
        &self,
        key: &str,
        family: &str,
        qualifier: &str,
        value: &Arc<[u8]>,
    ) -> bool {
        if self.get(key, family, qualifier).as_ref() == Some(value) {
            return false;
        }
        self.put_shared(key, family, qualifier, value.clone());
        true
    }

    /// Latest value of a cell.
    pub fn get(&self, key: &str, family: &str, qualifier: &str) -> Option<Arc<[u8]>> {
        self.region_for(key).get(key, family, qualifier)
    }

    /// Latest value decoded as UTF-8.
    pub fn get_str(&self, key: &str, family: &str, qualifier: &str) -> Option<String> {
        self.get(key, family, qualifier).map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    /// Delete a row; true if it existed.
    pub fn delete_row(&self, key: &str) -> bool {
        self.with_region(key, |r| r.delete_row(key)).0
    }

    /// Clamp a [`Scan`] window to the current region layout: the regions
    /// the window intersects, with per-region `[lo, hi)` bounds.
    fn scan_windows(&self, scan: &Scan) -> Vec<ScanWindow> {
        let regions: Vec<Arc<Region>> = self.read().clone();
        let mut live = Vec::new();
        for region in regions {
            if let Some(t) = &scan.to {
                if region.range.start.as_str() >= t.as_str() {
                    break;
                }
            }
            if let Some(e) = &region.range.end {
                if e.as_str() <= scan.from.as_str() {
                    continue;
                }
            }
            let lo = if scan.from.as_str() > region.range.start.as_str() {
                scan.from.clone()
            } else {
                region.range.start.clone()
            };
            let hi = match (&region.range.end, &scan.to) {
                (Some(e), Some(t)) => Some(if e < t { e.clone() } else { t.clone() }),
                (Some(e), None) => Some(e.clone()),
                (None, Some(t)) => Some(t.clone()),
                (None, None) => None,
            };
            live.push((region, lo, hi));
        }
        live
    }

    /// Walk a scan's regions in key order, each up to the scan's limit,
    /// appending their rows to `out` (or only counting them), and bill the
    /// rows examined and regions visited. The shared engine behind
    /// [`HTable::query`] and [`HTable::query_count`].
    fn walk(&self, scan: &Scan, mut out: Option<&mut Vec<(String, RowSnapshot)>>) -> usize {
        let live = self.scan_windows(scan);
        let families = scan.families.as_deref();
        let mut examined = 0usize;
        for (region, lo, hi) in &live {
            examined +=
                region.scan_select(lo, hi.as_deref(), families, scan.limit, out.as_deref_mut());
        }
        self.scanned_rows.fetch_add(examined, Ordering::Relaxed);
        self.scanned_regions.fetch_add(live.len(), Ordering::Relaxed);
        examined
    }

    /// Run a [`Scan`]: prune regions outside the window, walk the survivors,
    /// and return the matching rows in key order.
    pub fn query(&self, scan: &Scan) -> ScanResult {
        let mut rows = Vec::new();
        self.walk(scan, Some(&mut rows));
        if scan.limit > 0 {
            rows.truncate(scan.limit);
        }
        ScanResult { rows }
    }

    /// Count the rows a [`Scan`] matches without cloning any snapshots.
    pub fn query_count(&self, scan: &Scan) -> usize {
        let examined = self.walk(scan, None);
        match scan.limit {
            0 => examined,
            l => examined.min(l),
        }
    }

    /// Cumulative `(rows examined, regions visited)` across every scan-API
    /// query this table has served — exported as the `pool.scanned_rows` /
    /// `pool.scanned_regions` metric pair.
    pub fn scan_counters(&self) -> (usize, usize) {
        (self.scanned_rows.load(Ordering::Relaxed), self.scanned_regions.load(Ordering::Relaxed))
    }

    /// Total row count.
    pub fn row_count(&self) -> usize {
        self.read().iter().map(|r| r.row_count()).sum()
    }

    /// Cluster statistics.
    pub fn stats(&self) -> PoolStats {
        let regions = self.read();
        PoolStats {
            regions: regions.len(),
            rows: regions.iter().map(|r| r.row_count()).sum(),
            splits: self.splits.load(Ordering::Relaxed),
        }
    }

    /// Clone the current region list (for snapshot export).
    pub(crate) fn regions(&self) -> Vec<Arc<Region>> {
        self.read().clone()
    }

    fn read(&self) -> RwLockReadGuard<'_, Vec<Arc<Region>>> {
        self.regions.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Arc<Region>>> {
        self.regions.write().unwrap_or_else(PoisonError::into_inner)
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
    fn versions_are_assigned_monotonically() {
        let t = HTable::default();
        let t1 = t.put("k", "f", "q", "1");
        let t2 = t.put("k", "f", "q", "2");
        assert!(t2 > t1);
        assert_eq!(t.get_str("k", "f", "q").unwrap(), "2");
        let rows = t.query(&Scan::prefix("k")).rows;
        assert_eq!(rows[0].1.versions("f", "q").len(), 2);
    }

    #[test]
    fn scans_ignore_region_layout_but_see_content() {
        let small = HTable::new(TableConfig { max_versions: 3, max_region_rows: 4 });
        let big = HTable::new(TableConfig { max_versions: 3, max_region_rows: 1_000 });
        for i in 0..50 {
            small.put(&format!("doc/p/{i:03}"), "doc", "xml", format!("<v{i}/>"));
            big.put(&format!("doc/p/{i:03}"), "doc", "xml", format!("<v{i}/>"));
        }
        assert!(small.stats().regions > big.stats().regions, "layouts actually differ");
        let docs = Scan::prefix("doc/");
        assert_eq!(small.query(&docs).rows, big.query(&docs).rows);
        // one diverged cell shows
        big.put("doc/p/007", "doc", "xml", "<tampered/>");
        assert_ne!(small.query(&docs).rows, big.query(&docs).rows);
    }

    #[test]
    fn auto_split_keeps_all_rows_reachable() {
        let t = HTable::new(TableConfig { max_versions: 1, max_region_rows: 8 });
        for i in 0..100 {
            t.put(&format!("row-{i:03}"), "f", "q", format!("v{i}"));
        }
        let stats = t.stats();
        assert!(stats.regions > 1, "splits happened: {stats:?}");
        assert_eq!(stats.rows, 100);
        assert!(stats.splits >= 1);
        for i in 0..100 {
            assert_eq!(
                t.get_str(&format!("row-{i:03}"), "f", "q").unwrap(),
                format!("v{i}"),
                "row {i} reachable after splits"
            );
        }
        // scans still see everything in order
        let all = t.query(&Scan::prefix("row-")).rows;
        assert_eq!(all.len(), 100);
        let keys: Vec<&String> = all.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn scan_window_spans_regions() {
        let t = HTable::new(TableConfig { max_region_rows: 2, ..TableConfig::default() });
        for k in ["a", "b", "n", "z"] {
            t.put(k, "f", "q", k);
        }
        assert!(t.stats().regions > 1);
        let hits = t.query(&Scan::range("b", Some("z".to_string())));
        let keys: Vec<&str> = hits.rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "n"]);
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
            t.query(&Scan::prefix(prefix)).rows.into_iter().map(|(k, _)| k).collect()
        };
        assert_eq!(keys("proc-1/"), ["proc-1/doc-1", "proc-1/doc-2"]);
        // a prefix ending in a multi-byte char selects only its extensions
        assert_eq!(keys("x\u{FF}"), ["x\u{FF}", "x\u{FF}a"]);
        assert_eq!(keys("x\u{D7FF}"), ["x\u{D7FF}z"]);
    }

    fn seeded_table() -> HTable {
        let t = HTable::new(TableConfig { max_region_rows: 8, ..TableConfig::default() });
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
    fn query_prunes_regions_and_projects_families() {
        let t = seeded_table();
        let (rows, regions) = t.scan_counters();
        let res = t.query(&Scan::prefix("meta/").family("meta"));
        assert_eq!(res.rows.len(), 10);
        assert!(res.rows.iter().all(|(k, _)| k.starts_with("meta/")));
        let (rows, regions) = (t.scan_counters().0 - rows, t.scan_counters().1 - regions);
        assert_eq!(rows, 10, "only meta rows touched, of {}", t.row_count());
        assert!(regions < t.stats().regions, "doc-only regions skipped: {regions} visited");
    }

    #[test]
    fn query_count_and_limit() {
        let t = seeded_table();
        assert_eq!(t.query_count(&Scan::prefix("meta/")), 10);
        let limited = t.query(&Scan::prefix("meta/").limit(3));
        assert_eq!(limited.rows.len(), 3);
        assert_eq!(limited.rows[0].0, "meta/p00");
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
        let t = Arc::new(HTable::new(TableConfig { max_versions: 1, max_region_rows: 64 }));
        let threads = 8;
        let per = 250;
        std::thread::scope(|s| {
            for w in 0..threads {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..per {
                        t.put(&format!("w{w}-i{i:04}"), "f", "q", format!("{w}/{i}"));
                    }
                });
            }
        });
        assert_eq!(t.row_count(), threads * per);
        let stats = t.stats();
        assert!(stats.regions > 1, "splits under concurrency: {stats:?}");
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
