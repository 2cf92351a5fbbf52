//! The pool's row layout (§4.2) — its one owner. Every key string, column
//! family and key parser of the deployment lives in this file:
//!
//! | row key                                | columns                                      |
//! |----------------------------------------|----------------------------------------------|
//! | `doc/<pid>/<seq:06>`                   | `doc:xml` — one stored version, as a [`Delta`] |
//! | `meta/<pid>`                           | `meta:status`, `meta:steps`, `meta:workflow` |
//! | `todo/<participant>/<pid>/<activity>`  | `meta:seq` — the version that routed it      |
//! | `seen/<sha-256 of the wire bytes>`     | `meta:seq` — the version those bytes became  |
//!
//! Keys are assembled from [`Name`]s only, so no row of one process, or
//! participant, lies under the key prefix of another's.
//!
//! A `doc/` row does not hold the bytes of its version but what the hop
//! appended: a [`Delta`] against the version one `seq` below it.

use dra4wfms_core::prelude::{WfError, WfResult};
use dra_crypto::hex;
use dra_docpool::{FleetViews, HTable, PutOp, RowSnapshot, Scan};
use std::fmt;

/// A process id, participant or activity name fit to be one key segment:
/// not empty, no `/`, no control character.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Name<'a>(&'a str);

impl<'a> Name<'a> {
    pub(crate) fn new(name: &'a str) -> WfResult<Name<'a>> {
        if name.is_empty() || name.chars().any(|c| c == '/' || c.is_control()) {
            return Err(WfError::Malformed(format!(
                "'{}' cannot name a pool row: empty, or holds '/' or a control character",
                name.escape_debug()
            )));
        }
        Ok(Name(name))
    }

    pub(crate) fn as_str(self) -> &'a str {
        self.0
    }
}

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A row key of the pool, typed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RowKey<'a> {
    Doc {
        pid: Name<'a>,
        seq: usize,
    },
    Meta(Name<'a>),
    Todo {
        participant: Name<'a>,
        pid: Name<'a>,
        activity: Name<'a>,
    },
    /// Keyed by the SHA-256 of the admitted wire bytes.
    Seen([u8; 32]),
}

/// The prefix of every `doc/` row: where a sweep over stored versions
/// starts.
pub(crate) const DOC_ROWS: &str = "doc/";

impl fmt::Display for RowKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowKey::Doc { pid, seq } => write!(f, "{DOC_ROWS}{pid}/{seq:06}"),
            RowKey::Meta(pid) => write!(f, "meta/{pid}"),
            RowKey::Todo { participant, pid, activity } => {
                write!(f, "todo/{participant}/{pid}/{activity}")
            }
            RowKey::Seen(digest) => write!(f, "seen/{}", hex::encode(digest)),
        }
    }
}

impl<'a> RowKey<'a> {
    /// The TO-DO row of `activity` of process `pid`, waiting for
    /// `participant`.
    pub(crate) fn todo(participant: &'a str, pid: &'a str, activity: &'a str) -> WfResult<Self> {
        Ok(RowKey::Todo {
            participant: Name::new(participant)?,
            pid: Name::new(pid)?,
            activity: Name::new(activity)?,
        })
    }

    /// The inverse of `Display`; `None` for anything `Display` cannot
    /// have written.
    pub(crate) fn parse(key: &'a str) -> Option<RowKey<'a>> {
        let mut parts = key.split('/');
        let family = parts.next()?;
        let mut name = || Name::new(parts.next()?).ok();
        let parsed = match family {
            "doc" => RowKey::Doc { pid: name()?, seq: name()?.0.parse().ok()? },
            "meta" => RowKey::Meta(name()?),
            "todo" => RowKey::Todo { participant: name()?, pid: name()?, activity: name()? },
            "seen" => RowKey::Seen(hex::decode_array(name()?.0)?),
            _ => return None,
        };
        parts.next().is_none().then_some(parsed)
    }
}

/// One column of the layout.
#[derive(Clone, Copy)]
pub(crate) struct Column {
    family: &'static str,
    qualifier: &'static str,
}

/// `doc:xml`: the [`Delta`] cell of a `doc/` row.
pub(crate) const XML: Column = Column { family: "doc", qualifier: "xml" };
/// `meta:seq` of `seen/` and `todo/` rows.
pub(crate) const SEQ: Column = Column { family: "meta", qualifier: "seq" };
/// `meta:status` of a `meta/` row: `running` or `complete`.
pub(crate) const STATUS: Column = Column { family: "meta", qualifier: "status" };
/// `meta:steps` of a `meta/` row: CERs in the latest version.
pub(crate) const STEPS: Column = Column { family: "meta", qualifier: "steps" };
/// `meta:workflow` of a `meta/` row: the definition's name.
pub(crate) const WORKFLOW: Column = Column { family: "meta", qualifier: "workflow" };

impl Column {
    /// The journaled write of this column of row `key`.
    pub(crate) fn put(self, key: RowKey<'_>, value: impl Into<String>) -> PutOp {
        PutOp::new(key.to_string(), self.family, self.qualifier, value.into())
    }

    /// Write this column of row `key` straight into `pool`, unjournaled.
    pub(crate) fn write(self, pool: &HTable, key: RowKey<'_>, value: &str) {
        pool.put(&key.to_string(), self.family, self.qualifier, value.to_string());
    }

    /// This column of row `key` in `pool`.
    pub(crate) fn get(self, pool: &HTable, key: RowKey<'_>) -> Option<String> {
        pool.get_str(&key.to_string(), self.family, self.qualifier)
    }

    /// This column of a scanned row.
    pub(crate) fn of(self, row: &RowSnapshot) -> Option<String> {
        row.get_str(self.family, self.qualifier)
    }

    /// This column of a scanned row, as the bytes the row shares with the
    /// pool: nothing is copied.
    pub(crate) fn bytes_of(self, row: &RowSnapshot) -> Option<&[u8]> {
        row.get(self.family, self.qualifier).map(|cell| &cell[..])
    }
}

/// What a `doc/<pid>/<seq>` row stores of its version: the version is the
/// first `keep` bytes of the version one `seq` below, followed by `tail`.
/// `keep` is 0 at seq 0, and wherever a row is a full copy. One rule covers
/// an appended CER, the TFC replacing the newest CER, and AND-split siblings
/// that share only a prefix; header and definition are stored once per
/// instance. No parser offset and no CER list is involved.
///
/// The cell is `keep` in decimal, a line feed, then the tail. `keep` is
/// written one way only (digits, no sign, no leading zero), so a delta has
/// one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Delta<'a> {
    pub keep: usize,
    pub tail: &'a str,
}

impl<'a> Delta<'a> {
    /// The cell of this delta.
    pub(crate) fn cell(self) -> String {
        format!("{}\n{}", self.keep, self.tail)
    }

    /// The inverse of [`Delta::cell`]; `None` for anything it cannot have
    /// written. The header is looked for where a `usize` can end, not
    /// through the whole tail.
    pub(crate) fn parse(cell: &'a [u8]) -> Option<Delta<'a>> {
        const LONGEST_KEEP: usize = 20;
        let end = cell.iter().take(LONGEST_KEEP + 1).position(|&b| b == b'\n')?;
        let (keep, tail) = (&cell[..end], &cell[end + 1..]);
        let written_once = match keep {
            [] | [b'0', _, ..] => false,
            digits => digits.iter().all(u8::is_ascii_digit),
        };
        if !written_once {
            return None;
        }
        let keep = std::str::from_utf8(keep).ok()?.parse().ok()?;
        Some(Delta { keep, tail: std::str::from_utf8(tail).ok()? })
    }
}

/// Every stored version of every process, bytes included.
pub(crate) fn all_docs() -> Scan {
    Scan::prefix(DOC_ROWS).family(XML.family)
}

/// The same rows, keys only: projecting a family `doc/` rows do not carry
/// means no XML bytes are cloned.
pub(crate) fn doc_keys() -> Scan {
    Scan::prefix(DOC_ROWS).family(STATUS.family)
}

/// Every process's `meta/` row.
pub(crate) fn all_meta() -> Scan {
    Scan::prefix("meta/").family(STATUS.family)
}

/// A participant's TO-DO rows.
pub(crate) fn todos_of(participant: Name<'_>) -> Scan {
    Scan::prefix(&format!("todo/{participant}/")).family(SEQ.family)
}

/// The stored versions of `pid`, bytes included.
pub(crate) fn versions_of(pid: Name<'_>) -> Scan {
    Scan::prefix(&format!("{DOC_ROWS}{pid}/")).family(XML.family)
}

/// The stored versions of `pid` below `seq`, bytes included: what version
/// `seq` is folded from.
pub(crate) fn versions_below(pid: Name<'_>, seq: usize) -> Scan {
    let end = RowKey::Doc { pid, seq }.to_string();
    Scan::range(format!("{DOC_ROWS}{pid}/"), Some(end)).family(XML.family)
}

/// An applied cell as the views see it: `(row key, qualifier, value)`.
pub(crate) type AppliedCell<'a> = (&'a str, &'a str, &'a [u8]);

/// A journaled put, as an applied cell.
pub(crate) fn applied(op: &PutOp) -> AppliedCell<'_> {
    (&op.key, &op.qualifier, &op.value)
}

/// The one fold "applied cell → fleet views": a stored version advances
/// its process's progress, a `meta:status` cell sets its status, any other
/// cell leaves the views alone. Live commits, journal replay and cold-start
/// seeding all come through here, so the views are exactly as consistent
/// as the pool; `CloudSystem::views_match_scan` checks the result against an
/// independent MapReduce recompute.
pub(crate) fn fold_into_views<'a>(
    views: &FleetViews,
    cells: impl IntoIterator<Item = AppliedCell<'a>>,
) {
    for (key, qualifier, value) in cells {
        match RowKey::parse(key) {
            Some(RowKey::Doc { pid, seq }) => views.record_doc(pid.0, seq as u64),
            Some(RowKey::Meta(pid)) if qualifier == STATUS.qualifier => {
                views.record_status(pid.0, &String::from_utf8_lossy(value));
            }
            _ => {}
        }
    }
}

/// Cold restart: the views are memory, the pool is truth — feed the fold
/// from one bounded scan per view.
pub(crate) fn seed_views(views: &FleetViews, pool: &HTable) {
    let (meta, docs) = (pool.query(&all_meta()).rows, pool.query(&doc_keys()).rows);
    let statuses = meta.iter().filter_map(|(key, row)| {
        Some((key.as_str(), STATUS.qualifier, row.get(STATUS.family, STATUS.qualifier)?.as_ref()))
    });
    let versions = docs.iter().map(|(key, _)| (key.as_str(), XML.qualifier, &[][..]));
    fold_into_views(views, statuses.chain(versions));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn names_reject_what_would_break_a_key() {
        for bad in ["", "P/zzz", "/", "a\nb", "tab\there", "nul\0"] {
            assert!(matches!(Name::new(bad), Err(WfError::Malformed(_))), "{bad:?}");
        }
        for good in ["P", "fig9a-run", "tfc:notary", "ünï cödé", "a b", "000001"] {
            assert_eq!(Name::new(good).unwrap().as_str(), good);
        }
    }

    #[test]
    fn parse_rejects_what_display_never_writes() {
        for key in [
            "",
            "doc",
            "doc/",
            "doc/p",
            "doc/p/x",
            "doc/p/000001/extra",
            "doc//000001",
            "meta/",
            "meta/p/q",
            "todo/alice/p",
            "seen/abcd",
            "initial/p",
            "nope/p",
        ] {
            assert_eq!(RowKey::parse(key), None, "{key:?}");
        }
        let p = Name::new("p").unwrap();
        assert_eq!(RowKey::parse("doc/p/000012"), Some(RowKey::Doc { pid: p, seq: 12 }));
        assert_eq!(RowKey::Doc { pid: p, seq: 12 }.to_string(), "doc/p/000012");
    }

    #[test]
    fn a_delta_has_one_cell_and_parse_reads_nothing_else() {
        let delta = Delta { keep: 1_204, tail: "<CER>é</CER>\n</Doc>" };
        assert_eq!(delta.cell(), "1204\n<CER>é</CER>\n</Doc>");
        assert_eq!(Delta::parse(delta.cell().as_bytes()), Some(delta));
        assert_eq!(Delta::parse(b"0\n"), Some(Delta { keep: 0, tail: "" }));
        let longest = format!("{}\nx", usize::MAX);
        assert_eq!(Delta::parse(longest.as_bytes()).map(|d| d.keep), Some(usize::MAX));
        for cell in [
            &b""[..],
            b"<Doc/>",
            b"\n<Doc/>",
            b"12",
            b"-1\nx",
            b"+1\nx",
            b"01\nx",
            b"1 \nx",
            b"0x10\nx",
            b"99999999999999999999\nx",
            b"000000000000000000001\nx",
            b"7\n\xff",
        ] {
            assert_eq!(Delta::parse(cell), None, "{:?}", String::from_utf8_lossy(cell));
        }
    }

    fn keys_of<'a>(
        pid: Name<'a>,
        other: Name<'a>,
        seq: usize,
        digest: [u8; 32],
    ) -> [RowKey<'a>; 4] {
        [
            RowKey::Doc { pid, seq },
            RowKey::Meta(pid),
            RowKey::Todo { participant: other, pid, activity: other },
            RowKey::Seen(digest),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_codec_round_trips_and_keys_are_prefix_free(
            a in "[ -.0-~]{1,12}",
            b in "[ -.0-~]{1,12}",
            seq in 0usize..2_000_000,
            digest in proptest::array::uniform32(any::<u8>()),
        ) {
            let (pa, pb) = (Name::new(&a).unwrap(), Name::new(&b).unwrap());
            for key in keys_of(pa, pb, seq, digest) {
                let written = key.to_string();
                prop_assert_eq!(RowKey::parse(&written), Some(key));
            }
            if a != b {
                let foreign = versions_of(pb);
                for key in keys_of(pa, pb, seq, digest) {
                    prop_assert!(!key.to_string().starts_with(&format!("{DOC_ROWS}{b}/")));
                }
                // and the scan that serves `b` sees none of `a`'s rows
                let pool = HTable::default();
                for key in keys_of(pa, pb, seq, digest) {
                    pool.put(&key.to_string(), XML.family, XML.qualifier, "x");
                }
                prop_assert!(pool.query(&foreign).rows.is_empty());
            }
        }
    }
}
