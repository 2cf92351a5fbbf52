//! Rows, column families and versioned cells — the HBase data model.

use std::collections::BTreeMap;
use std::sync::Arc;

/// One stored value with its version timestamp (a logical, monotonically
/// increasing sequence number assigned by the table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Cell {
    /// The stored bytes, shared by every snapshot that holds the cell.
    pub value: Arc<[u8]>,
    /// Logical write timestamp (newer = larger).
    pub timestamp: u64,
}

/// A row: `family -> qualifier -> versions (newest first)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Row {
    families: BTreeMap<String, BTreeMap<String, Vec<Cell>>>,
}

impl Row {
    /// Insert a cell version, keeping at most `max_versions` (newest first).
    pub(crate) fn put(
        &mut self,
        family: &str,
        qualifier: &str,
        value: Arc<[u8]>,
        timestamp: u64,
        max_versions: usize,
    ) {
        let versions = self
            .families
            .entry(family.to_string())
            .or_default()
            .entry(qualifier.to_string())
            .or_default();
        versions.insert(0, Cell { value, timestamp });
        versions.truncate(max_versions.max(1));
    }

    /// Latest value of a qualified column.
    pub(crate) fn get(&self, family: &str, qualifier: &str) -> Option<&Cell> {
        self.families.get(family)?.get(qualifier)?.first()
    }

    /// Immutable snapshot for scans and MapReduce.
    pub(crate) fn snapshot(&self) -> RowSnapshot {
        RowSnapshot { families: self.families.clone() }
    }

    /// Snapshot only the listed column families — the projection half of
    /// the scan API. Families the row does not hold are silently absent;
    /// an empty `families` list means "project nothing" and yields an
    /// empty snapshot (callers wanting everything use [`Row::snapshot`]).
    pub(crate) fn snapshot_projected(&self, families: &[String]) -> RowSnapshot {
        RowSnapshot {
            families: self
                .families
                .iter()
                .filter(|(f, _)| families.iter().any(|want| want == *f))
                .map(|(f, quals)| (f.clone(), quals.clone()))
                .collect(),
        }
    }
}

/// An immutable copy of a row handed to scanners and mappers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowSnapshot {
    families: BTreeMap<String, BTreeMap<String, Vec<Cell>>>,
}

impl RowSnapshot {
    /// Latest value of a qualified column.
    pub fn get(&self, family: &str, qualifier: &str) -> Option<&Arc<[u8]>> {
        Some(&self.families.get(family)?.get(qualifier)?.first()?.value)
    }

    /// Latest value decoded as UTF-8 (lossless only if it was UTF-8).
    pub fn get_str(&self, family: &str, qualifier: &str) -> Option<String> {
        self.get(family, qualifier).map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// All versions of a column, newest first.
    pub(crate) fn versions(&self, family: &str, qualifier: &str) -> &[Cell] {
        self.families.get(family).and_then(|f| f.get(qualifier)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate `(family, qualifier, latest cell)`.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&str, &str, &Cell)> {
        self.families.iter().flat_map(|(f, quals)| {
            quals
                .iter()
                .filter_map(move |(q, cells)| cells.first().map(|c| (f.as_str(), q.as_str(), c)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes())
    }

    #[test]
    fn put_get() {
        let mut r = Row::default();
        r.put("doc", "xml", b("<a/>"), 1, 3);
        assert_eq!(r.get("doc", "xml").unwrap().value, b("<a/>"));
        assert!(r.get("doc", "missing").is_none());
        assert!(r.get("nofam", "xml").is_none());
    }

    #[test]
    fn versions_newest_first_and_capped() {
        let mut r = Row::default();
        for t in 1..=5 {
            r.put("doc", "xml", b(&format!("v{t}")), t, 3);
        }
        let snap = r.snapshot();
        let vs = snap.versions("doc", "xml");
        assert_eq!(vs.len(), 3, "capped at max_versions");
        assert_eq!(vs[0].value, b("v5"));
        assert_eq!(vs[2].value, b("v3"));
        assert_eq!(r.get("doc", "xml").unwrap().timestamp, 5);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut r = Row::default();
        r.put("f", "q", b("1"), 1, 2);
        let snap = r.snapshot();
        r.put("f", "q", b("2"), 2, 2);
        assert_eq!(snap.get("f", "q").unwrap(), &b("1"));
        assert_eq!(snap.get_str("f", "q").unwrap(), "1");
        assert_eq!(r.get("f", "q").unwrap().value, b("2"));
    }

    #[test]
    fn snapshot_columns_iteration() {
        let mut r = Row::default();
        r.put("a", "x", b("1"), 1, 1);
        r.put("b", "y", b("2"), 2, 1);
        let snap = r.snapshot();
        let cols: Vec<(String, String)> =
            snap.columns().map(|(f, q, _)| (f.to_string(), q.to_string())).collect();
        assert_eq!(cols, vec![("a".into(), "x".into()), ("b".into(), "y".into())]);
    }
}
