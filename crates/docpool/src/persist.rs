//! Snapshot persistence for the document pool.
//!
//! In the paper the pool's durability comes from HDFS underneath HBase.
//! Here a table can be serialized to a compact binary snapshot and restored
//! — the recovery path a production deployment would run at restart. The
//! format is the rows in key order, each its key and its columns, and it is
//! length-prefixed throughout, so truncated or corrupted snapshots fail
//! loudly instead of loading partial state.

use crate::cluster::HTable;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"DRAPOOL2";

/// Errors from loading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Wrong magic bytes (not a pool snapshot).
    BadMagic,
    /// The snapshot ended mid-record.
    Truncated,
    /// Bytes remained after the last declared record — the snapshot was
    /// extended or spliced, which length-prefixed parsing would otherwise
    /// silently ignore.
    TrailingGarbage,
    /// A string field was not valid UTF-8.
    BadString,
    /// I/O error text (file operations).
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a document-pool snapshot"),
            PersistError::Truncated => write!(f, "snapshot truncated"),
            PersistError::TrailingGarbage => {
                write!(f, "snapshot has trailing bytes after the last record")
            }
            PersistError::BadString => write!(f, "snapshot contains invalid UTF-8"),
            PersistError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Append `n` big-endian: the byte order of every integer both codecs
/// write.
pub(crate) fn put_u32(buf: &mut Vec<u8>, n: u32) {
    buf.extend_from_slice(&n.to_be_bytes());
}

/// Append `bytes` behind their `u32` length.
pub(crate) fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Split the next `n` bytes off `buf`.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], PersistError> {
    let (head, rest) = buf.split_at_checked(n).ok_or(PersistError::Truncated)?;
    *buf = rest;
    Ok(head)
}

/// Read a big-endian `u32` off `buf`.
pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32, PersistError> {
    let (head, rest) = buf.split_first_chunk().ok_or(PersistError::Truncated)?;
    *buf = rest;
    Ok(u32::from_be_bytes(*head))
}

/// Read a big-endian `u64` off `buf`.
pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64, PersistError> {
    let (head, rest) = buf.split_first_chunk().ok_or(PersistError::Truncated)?;
    *buf = rest;
    Ok(u64::from_be_bytes(*head))
}

/// Read a `u32`-length-prefixed UTF-8 string off `buf`.
pub(crate) fn get_str(buf: &mut &[u8]) -> Result<String, PersistError> {
    let len = get_u32(buf)? as usize;
    let raw = take(buf, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| PersistError::BadString)
}

impl HTable {
    /// Serialize every row, in key order: magic, row count, then per row
    /// its key, its column count and each column's family, qualifier and
    /// value.
    pub fn export_snapshot(&self) -> Vec<u8> {
        let rows = self.read();
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&(rows.len() as u64).to_be_bytes());
        for (key, row) in rows.iter() {
            put_bytes(&mut buf, key.as_bytes());
            put_u32(&mut buf, row.columns().count() as u32);
            for (family, qualifier, value) in row.columns() {
                put_bytes(&mut buf, family.as_bytes());
                put_bytes(&mut buf, qualifier.as_bytes());
                put_bytes(&mut buf, value);
            }
        }
        buf
    }

    /// Restore a table from a snapshot.
    pub fn import_snapshot(data: &[u8]) -> Result<HTable, PersistError> {
        let mut buf = data;
        if take(&mut buf, MAGIC.len())? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let table = HTable::default();
        for _ in 0..get_u64(&mut buf)? {
            let key = get_str(&mut buf)?;
            for _ in 0..get_u32(&mut buf)? {
                let family = get_str(&mut buf)?;
                let qualifier = get_str(&mut buf)?;
                let len = get_u32(&mut buf)? as usize;
                table.put_shared(&key, &family, &qualifier, Arc::from(take(&mut buf, len)?));
            }
        }
        if !buf.is_empty() {
            return Err(PersistError::TrailingGarbage);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> HTable {
        let t = HTable::default();
        for i in 0..50 {
            let key = format!("row-{i:03}");
            t.put(&key, "doc", "xml", format!("<doc v=\"{i}\"/>"));
            t.put(&key, "meta", "status", if i % 2 == 0 { "open" } else { "done" });
        }
        // an overwritten column: only its last value is kept
        for v in 0..5 {
            t.put("row-000", "doc", "xml", format!("version {v}"));
        }
        t
    }

    #[test]
    fn snapshot_roundtrip() {
        let t = sample_table();
        let snap = t.export_snapshot();
        let restored = HTable::import_snapshot(&snap).unwrap();
        assert_eq!(restored.row_count(), t.row_count());
        for i in 0..50 {
            let key = format!("row-{i:03}");
            assert_eq!(
                restored.get_str(&key, "meta", "status"),
                t.get_str(&key, "meta", "status"),
                "{key}"
            );
        }
        assert_eq!(restored.export_snapshot(), snap);
        assert_eq!(restored.get_str("row-000", "doc", "xml").unwrap(), "version 4");
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let snap = sample_table().export_snapshot();
        for cut in [0, 4, 8, 20, snap.len() / 2, snap.len() - 1] {
            let res = HTable::import_snapshot(&snap[..cut]);
            assert!(res.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut snap = sample_table().export_snapshot();
        snap.extend_from_slice(b"junk");
        assert!(matches!(HTable::import_snapshot(&snap), Err(PersistError::TrailingGarbage)));
    }

    #[test]
    fn the_format_is_rows_in_key_order_with_one_value_per_column() {
        let t = HTable::default();
        t.put("k", "f", "q", "old");
        t.put("k", "f", "q", "v");
        let mut want = MAGIC.to_vec();
        want.extend_from_slice(&1u64.to_be_bytes()); // rows
        put_bytes(&mut want, b"k");
        put_u32(&mut want, 1); // columns
        for field in ["f", "q", "v"] {
            put_bytes(&mut want, field.as_bytes());
        }
        assert_eq!(t.export_snapshot(), want);
    }

    #[test]
    fn hostile_counts_are_truncation_not_an_allocation() {
        let mut rows = MAGIC.to_vec();
        rows.extend_from_slice(&u64::MAX.to_be_bytes());
        let mut columns = MAGIC.to_vec();
        columns.extend_from_slice(&1u64.to_be_bytes());
        put_bytes(&mut columns, b"k");
        put_u32(&mut columns, u32::MAX);
        for snap in [rows, columns] {
            assert_eq!(HTable::import_snapshot(&snap).err(), Some(PersistError::Truncated));
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(matches!(HTable::import_snapshot(b"NOTAPOOLxxxxxxx"), Err(PersistError::BadMagic)));
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = HTable::default();
        let restored = HTable::import_snapshot(&t.export_snapshot()).unwrap();
        assert_eq!(restored.row_count(), 0);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn table_from(rows: &[(u8, String)]) -> HTable {
            let t = HTable::default();
            for (k, v) in rows {
                t.put(&format!("row-{k:03}"), "doc", "xml", v.clone());
            }
            t
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Exact bytes round-trip; any truncation or extension fails
            /// loudly instead of loading partial or over-long state.
            #[test]
            fn snapshot_roundtrips_and_rejects_resizing(
                rows in proptest::collection::vec((any::<u8>(), "[a-z<>/\"=]{0,24}"), 0..12),
                cut_seed in 0usize..1_000_000,
                junk in proptest::collection::vec(any::<u8>(), 1..32),
            ) {
                let t = table_from(&rows);
                let snap = t.export_snapshot();

                // exact bytes restore to an equal table
                let restored = HTable::import_snapshot(&snap).unwrap();
                prop_assert_eq!(restored.row_count(), t.row_count());
                for (k, _) in &rows {
                    let key = format!("row-{k:03}");
                    prop_assert_eq!(restored.get_str(&key, "doc", "xml"),
                                    t.get_str(&key, "doc", "xml"));
                }
                prop_assert_eq!(restored.export_snapshot(), snap.clone());

                // any strict prefix is rejected
                let cut = cut_seed % snap.len();
                prop_assert!(HTable::import_snapshot(&snap[..cut]).is_err());

                // any extension is rejected as trailing garbage
                let mut extended = snap.clone();
                extended.extend_from_slice(&junk);
                prop_assert_eq!(HTable::import_snapshot(&extended).err(),
                                Some(PersistError::TrailingGarbage));
            }
        }
    }

    #[test]
    fn restored_table_still_serves() {
        let t = sample_table();
        let restored = HTable::import_snapshot(&t.export_snapshot()).unwrap();
        for i in 50..200 {
            restored.put(&format!("row-{i:03}"), "doc", "xml", "x");
        }
        assert_eq!(restored.query(&crate::Scan::prefix("row-")).rows.len(), 200);
    }
}
