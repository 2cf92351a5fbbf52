//! A region: one contiguous row-key range served by one region server.
//!
//! Mirrors HBase's unit of distribution. A region owns a sorted map of rows
//! guarded by a reader-writer lock; the cluster routes each operation to the
//! region whose `[start, end)` range contains the row key and splits regions
//! that grow past a threshold.

use crate::row::{Row, RowSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A half-open row-key range `[start, end)`; `None` end means unbounded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct KeyRange {
    /// Inclusive start key ("" = from the beginning).
    pub start: String,
    /// Exclusive end key; `None` = to the end of the keyspace.
    pub end: Option<String>,
}

impl KeyRange {
    /// The full keyspace.
    pub(crate) fn all() -> KeyRange {
        KeyRange { start: String::new(), end: None }
    }

    /// True when `key` falls inside this range.
    pub(crate) fn contains(&self, key: &str) -> bool {
        key >= self.start.as_str()
            && match &self.end {
                Some(e) => key < e.as_str(),
                None => true,
            }
    }
}

/// One region server's state.
pub(crate) struct Region {
    /// The key range this region owns.
    pub range: KeyRange,
    rows: RwLock<BTreeMap<String, Row>>,
}

impl Region {
    /// Create an empty region over `range`.
    pub(crate) fn new(range: KeyRange) -> Region {
        Region { range, rows: RwLock::new(BTreeMap::new()) }
    }

    /// Insert/overwrite a cell version.
    pub(crate) fn put(
        &self,
        key: &str,
        family: &str,
        qualifier: &str,
        value: Arc<[u8]>,
        timestamp: u64,
        max_versions: usize,
    ) {
        debug_assert!(self.range.contains(key));
        self.write().entry(key.to_string()).or_default().put(
            family,
            qualifier,
            value,
            timestamp,
            max_versions,
        );
    }

    /// Latest value of a cell.
    pub(crate) fn get(&self, key: &str, family: &str, qualifier: &str) -> Option<Arc<[u8]>> {
        self.read().get(key).and_then(|r| r.get(family, qualifier)).map(|c| c.value.clone())
    }

    /// Delete an entire row; true if it existed.
    pub(crate) fn delete_row(&self, key: &str) -> bool {
        self.write().remove(key).is_some()
    }

    /// Number of rows held.
    pub(crate) fn row_count(&self) -> usize {
        self.read().len()
    }

    /// The scan-API primitive: walk `[from, to)` in key order and append
    /// the rows to `out`, projecting only the requested column families.
    ///
    /// * `families: None` keeps every family; `Some(list)` clones only those.
    /// * `limit: 0` means unbounded; otherwise the walk stops after `limit`
    ///   rows (the examined count still reflects rows looked at).
    /// * `out: None` suppresses snapshot construction entirely — callers
    ///   that only need cardinality pay no clone cost.
    ///
    /// Returns the rows examined.
    pub(crate) fn scan_select(
        &self,
        from: &str,
        to: Option<&str>,
        families: Option<&[String]>,
        limit: usize,
        mut out: Option<&mut Vec<(String, RowSnapshot)>>,
    ) -> usize {
        let rows = self.read();
        let mut examined = 0usize;
        for (key, row) in rows.range(from.to_string()..) {
            if let Some(t) = to {
                if key.as_str() >= t {
                    break;
                }
            }
            examined += 1;
            if let Some(out) = out.as_deref_mut() {
                let snap = match families {
                    Some(fams) => row.snapshot_projected(fams),
                    None => row.snapshot(),
                };
                out.push((key.clone(), snap));
            }
            if limit > 0 && examined >= limit {
                break;
            }
        }
        examined
    }

    /// Snapshot every row (for snapshot export).
    pub(crate) fn snapshot_all(&self) -> Vec<(String, RowSnapshot)> {
        let rows = self.read();
        rows.iter().map(|(k, r)| (k.clone(), r.snapshot())).collect()
    }

    /// Split this region at its median key, returning the two halves.
    /// The caller (cluster) replaces this region with the pair.
    pub(crate) fn split(&self) -> Option<(Region, Region)> {
        let rows = self.read();
        if rows.len() < 2 {
            return None;
        }
        let mid_key = rows.keys().nth(rows.len() / 2).cloned()?;
        let left =
            Region::new(KeyRange { start: self.range.start.clone(), end: Some(mid_key.clone()) });
        let right = Region::new(KeyRange { start: mid_key.clone(), end: self.range.end.clone() });
        {
            let mut lw = left.write();
            let mut rw = right.write();
            for (k, v) in rows.iter() {
                if k < &mid_key {
                    lw.insert(k.clone(), v.clone());
                } else {
                    rw.insert(k.clone(), v.clone());
                }
            }
        }
        Some((left, right))
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Row>> {
        self.rows.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Row>> {
        self.rows.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes())
    }

    #[test]
    fn range_containment() {
        let r = KeyRange { start: "b".into(), end: Some("m".into()) };
        assert!(r.contains("b"));
        assert!(r.contains("hello"));
        assert!(!r.contains("m"));
        assert!(!r.contains("a"));
        assert!(KeyRange::all().contains("anything"));
    }

    #[test]
    fn put_get_delete() {
        let r = Region::new(KeyRange::all());
        r.put("k1", "doc", "xml", b("v"), 1, 3);
        assert_eq!(r.get("k1", "doc", "xml"), Some(b("v")));
        assert_eq!(r.get("k2", "doc", "xml"), None);
        assert!(r.delete_row("k1"));
        assert!(!r.delete_row("k1"));
        assert_eq!(r.row_count(), 0);
    }

    #[test]
    fn scan_ordered_and_bounded() {
        let r = Region::new(KeyRange::all());
        for k in ["d", "a", "c", "b"] {
            r.put(k, "f", "q", b(k), 1, 1);
        }
        let mut hits = Vec::new();
        r.scan_select("b", Some("d"), None, 0, Some(&mut hits));
        let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "c"]);
        assert_eq!(r.snapshot_all().len(), 4);
    }

    #[test]
    fn scan_select_projection_and_limit() {
        let r = Region::new(KeyRange::all());
        for i in 0..6 {
            r.put(&format!("k{i}"), "doc", "xml", b("<x/>"), 1, 1);
            let status = if i % 2 == 0 { "running" } else { "complete" };
            r.put(&format!("k{i}"), "meta", "status", b(status), 1, 1);
        }
        let fams = vec!["meta".to_string()];
        let mut rows = Vec::new();
        let examined = r.scan_select("", None, Some(&fams), 0, Some(&mut rows));
        assert_eq!((examined, rows.len()), (6, 6));
        assert!(
            rows.iter().all(|(_, s)| s.get("doc", "xml").is_none()),
            "doc family projected out"
        );
        assert!(rows.iter().all(|(_, s)| s.get_str("meta", "status").is_some()));

        let mut rows2 = Vec::new();
        let examined2 = r.scan_select("", None, None, 2, Some(&mut rows2));
        assert_eq!((rows2.len(), examined2), (2, 2), "limit stops the walk early");

        assert_eq!(r.scan_select("", None, None, 0, None), 6, "counted, no snapshots built");
    }

    #[test]
    fn split_partitions_rows() {
        let r = Region::new(KeyRange::all());
        for i in 0..10 {
            r.put(&format!("k{i:02}"), "f", "q", b("v"), 1, 1);
        }
        let (left, right) = r.split().unwrap();
        assert_eq!(left.row_count() + right.row_count(), 10);
        assert!(left.row_count() >= 4 && right.row_count() >= 4);
        assert_eq!(left.range.end, Some("k05".to_string()));
        assert_eq!(right.range.start, "k05");
        // all left keys < all right keys
        let lmax = left.snapshot_all().last().unwrap().0.clone();
        let rmin = right.snapshot_all().first().unwrap().0.clone();
        assert!(lmax < rmin);
    }

    #[test]
    fn split_refuses_tiny_regions() {
        let r = Region::new(KeyRange::all());
        r.put("only", "f", "q", b("v"), 1, 1);
        assert!(r.split().is_none());
    }
}
