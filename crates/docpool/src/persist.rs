//! Snapshot persistence for the document pool.
//!
//! In the paper the pool's durability comes from HDFS underneath HBase.
//! Here a table can be serialized to a compact binary snapshot and restored
//! — the recovery path a production deployment would run at region-server
//! restart. The format is length-prefixed throughout, so truncated or
//! corrupted snapshots fail loudly instead of loading partial state.

use crate::cluster::{HTable, TableConfig};
use crate::row::Cell;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 8] = b"DRAPOOL1";

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

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

fn get_exact(buf: &mut Bytes, n: usize) -> Result<Bytes, PersistError> {
    if buf.remaining() < n {
        return Err(PersistError::Truncated);
    }
    Ok(buf.split_to(n))
}

fn get_u32(buf: &mut Bytes) -> Result<u32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, PersistError> {
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u64())
}

fn get_str(buf: &mut Bytes) -> Result<String, PersistError> {
    let len = get_u32(buf)? as usize;
    let raw = get_exact(buf, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| PersistError::BadString)
}

impl HTable {
    /// Serialize every row (all regions, all versions) into a snapshot.
    pub fn export_snapshot(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        // config
        buf.put_u32(self.config().max_versions as u32);
        buf.put_u32(self.config().max_region_rows as u32);

        let regions = self.regions();
        let all: Vec<(String, crate::RowSnapshot)> =
            regions.iter().flat_map(|r| r.snapshot_all()).collect();
        buf.put_u64(all.len() as u64);
        for (key, row) in &all {
            put_str(&mut buf, key);
            let cols: Vec<(&str, &str)> = {
                let mut seen = std::collections::BTreeSet::new();
                row.columns().map(|(f, q, _)| (f, q)).filter(|fq| seen.insert(*fq)).collect()
            };
            buf.put_u32(cols.len() as u32);
            for (family, qualifier) in cols {
                put_str(&mut buf, family);
                put_str(&mut buf, qualifier);
                let versions = row.versions(family, qualifier);
                buf.put_u32(versions.len() as u32);
                for Cell { value, timestamp } in versions {
                    buf.put_u64(*timestamp);
                    put_bytes(&mut buf, value);
                }
            }
        }
        buf.to_vec()
    }

    /// Restore a table from a snapshot.
    pub fn import_snapshot(data: &[u8]) -> Result<HTable, PersistError> {
        let mut buf = Bytes::copy_from_slice(data);
        let magic = get_exact(&mut buf, MAGIC.len())?;
        if magic.as_ref() != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let max_versions = get_u32(&mut buf)? as usize;
        let max_region_rows = get_u32(&mut buf)? as usize;
        let table = HTable::new(TableConfig { max_versions, max_region_rows });

        let rows = get_u64(&mut buf)?;
        for _ in 0..rows {
            let key = get_str(&mut buf)?;
            let cols = get_u32(&mut buf)?;
            for _ in 0..cols {
                let family = get_str(&mut buf)?;
                let qualifier = get_str(&mut buf)?;
                let versions = get_u32(&mut buf)? as usize;
                // versions are stored newest-first; insert oldest-first so
                // the restored order matches. The count is input: reserve for
                // no more versions than the bytes left could encode (a
                // timestamp and a length each), whatever it claims
                let mut cells = Vec::with_capacity(versions.min(buf.remaining() / 12));
                for _ in 0..versions {
                    let ts = get_u64(&mut buf)?;
                    let len = get_u32(&mut buf)? as usize;
                    let value = get_exact(&mut buf, len)?;
                    cells.push((ts, value));
                }
                for (ts, value) in cells.into_iter().rev() {
                    table.put_with_timestamp(&key, &family, &qualifier, value, ts);
                }
            }
        }
        if buf.has_remaining() {
            return Err(PersistError::TrailingGarbage);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> HTable {
        let t = HTable::new(TableConfig { max_versions: 3, max_region_rows: 16 });
        for i in 0..50 {
            let key = format!("row-{i:03}");
            t.put(&key, "doc", "xml", format!("<doc v=\"{i}\"/>"));
            t.put(&key, "meta", "status", if i % 2 == 0 { "open" } else { "done" });
        }
        // multiple versions on one row
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
        // every version preserved, timestamps included
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
    fn hostile_version_count_is_truncation_not_an_allocation() {
        // header, one row "k", one column f:q claiming u32::MAX versions
        let mut snap = BytesMut::new();
        snap.put_slice(MAGIC);
        for n in [1, 16] {
            snap.put_u32(n); // max_versions, max_region_rows
        }
        snap.put_u64(1); // rows
        snap.put_slice(b"\0\0\0\x01k");
        snap.put_u32(1); // columns
        snap.put_slice(b"\0\0\0\x01f\0\0\0\x01q");
        snap.put_u32(u32::MAX); // versions
        assert!(matches!(HTable::import_snapshot(&snap), Err(PersistError::Truncated)));
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
            let t = HTable::new(TableConfig { max_versions: 2, max_region_rows: 8 });
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
    fn restored_table_still_splits_and_serves() {
        let t = sample_table();
        let restored = HTable::import_snapshot(&t.export_snapshot()).unwrap();
        // keep writing past the split threshold
        for i in 50..200 {
            restored.put(&format!("row-{i:03}"), "doc", "xml", "x");
        }
        assert!(restored.stats().regions > 1);
        assert_eq!(restored.query_count(&crate::Scan::prefix("row-")), 200);
    }
}
