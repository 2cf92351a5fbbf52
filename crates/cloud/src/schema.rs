//! The pool's row layout (§4.2) — its one owner. Every key string, column
//! family and key parser of the deployment lives in this file:
//!
//! | row key                                | columns                                      |
//! |----------------------------------------|----------------------------------------------|
//! | `doc/<pid>/<seq:06>`                   | `doc:xml` — one stored version, as a [`Cell`] |
//! | `def/<sha-256 of the bytes>`           | `doc:xml` — a definition's `WorkflowDefinition` and `SecurityDefinition` |
//! | `meta/<pid>`                           | `meta:status`, `meta:steps`, `meta:workflow` |
//! | `todo/<participant>/<pid>/<activity>`  | `meta:seq` — the version that routed it      |
//! | `seen/<sha-256 of the wire bytes>`     | `meta:seq` — the version those bytes became  |
//!
//! Keys are assembled from [`Name`]s only, so no row of one process, or
//! participant, lies under the key prefix of another's.
//!
//! A `doc/` row does not hold the bytes of its version but what the hop
//! added: a [`Cell`] of ranges copied from lower versions of its process or
//! from a `def/` row, and literal bytes. A `def/` row is written once per
//! definition content and shared by every instance of it.

use dra4wfms_core::prelude::{WfError, WfResult};
use dra_crypto::hex;
use dra_docpool::{FleetViews, HTable, PutOp, Row, Scan};
use std::fmt;
use std::sync::Arc;

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
    /// Keyed by the SHA-256 of the definition bytes it holds.
    Def([u8; 32]),
}

/// The prefix of every `doc/` row: where a sweep over stored versions
/// starts.
pub(crate) const DOC_ROWS: &str = "doc/";
/// The prefix of every `def/` row.
pub(crate) const DEF_ROWS: &str = "def/";

impl fmt::Display for RowKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowKey::Doc { pid, seq } => write!(f, "{DOC_ROWS}{pid}/{seq:06}"),
            RowKey::Meta(pid) => write!(f, "meta/{pid}"),
            RowKey::Todo { participant, pid, activity } => {
                write!(f, "todo/{participant}/{pid}/{activity}")
            }
            RowKey::Seen(digest) => write!(f, "seen/{}", hex::encode(digest)),
            RowKey::Def(digest) => write!(f, "{DEF_ROWS}{}", hex::encode(digest)),
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
            "doc" => RowKey::Doc { pid: name()?, seq: seq(name()?.0)? },
            "meta" => RowKey::Meta(name()?),
            "todo" => RowKey::Todo { participant: name()?, pid: name()?, activity: name()? },
            "seen" => RowKey::Seen(hex::decode_array(name()?.0)?),
            "def" => RowKey::Def(hex::decode_array(name()?.0)?),
            _ => return None,
        };
        parts.next().is_none().then_some(parsed)
    }
}

/// A `seq` as `Display` writes it: six digits, zero-padded, or more with no
/// leading zero; `None` for any other spelling.
fn seq(digits: &str) -> Option<usize> {
    let bytes = digits.as_bytes();
    let padded = bytes.len() == 6 || bytes.len() > 6 && bytes[0] != b'0';
    (padded && bytes.iter().all(u8::is_ascii_digit)).then(|| digits.parse().ok())?
}

/// One column of the layout.
#[derive(Clone, Copy)]
pub(crate) struct Column {
    family: &'static str,
    qualifier: &'static str,
}

/// `doc:xml`: the [`Cell`] of a `doc/` row, the bytes of a `def/` row.
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

    /// The bytes of this column of row `key` in `pool`, as the pool holds
    /// them.
    pub(crate) fn bytes(self, pool: &HTable, key: RowKey<'_>) -> Option<Arc<[u8]>> {
        pool.get(&key.to_string(), self.family, self.qualifier)
    }

    /// This column of a scanned row.
    pub(crate) fn of(self, row: &Row) -> Option<String> {
        row.get_str(self.family, self.qualifier)
    }

    /// This column of a scanned row, as the bytes the pool holds: nothing
    /// is copied.
    pub(crate) fn bytes_of(self, row: &Row) -> Option<&[u8]> {
        row.get(self.family, self.qualifier).map(|cell| &cell[..])
    }
}

/// Where a [`Op::Copy`] of a `doc/` cell copies from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Source {
    /// A lower version of the same process, by its `seq`.
    Version(usize),
    /// A `def/` row, by the SHA-256 its key is named by.
    Def([u8; 32]),
}

/// One instruction of a [`Cell`] past its `keep`, in the order the version
/// is assembled (RFC 3284's ADD and COPY).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// The next `len` bytes of the cell's literal.
    Add(usize),
    /// `len` bytes of `source` from byte `at` on.
    Copy { source: Source, at: usize, len: usize },
}

impl Op {
    /// The bytes this op adds to its version.
    pub(crate) fn len(&self) -> usize {
        match self {
            Op::Add(len) | Op::Copy { len, .. } => *len,
        }
    }
}

/// What a `doc/<pid>/<seq>` row stores of its version: the first `keep`
/// bytes of the version one `seq` below, then each of `ops` in turn, then
/// what is left of `literal`. An appended CER, the TFC replacing the newest
/// CER and AND-split siblings that share only a prefix are a `keep` and a
/// literal tail. The initial document adds its header, copies the
/// definition from its `def/` row, and adds its designer's signature. A
/// join copies each branch's CERs from the version that holds them. No
/// parser offset and no CER list is involved.
///
/// The cell is one header line, then the literal. The header is `keep`,
/// then per op a space and `+len` (ADD) or `source:at+len` (COPY), where a
/// source is a `seq` or `#` and the def row's hex digest. Every number is
/// written one way only (digits, no sign, no leading zero), so a cell that
/// is only a `keep` is spelled `keep`, a line feed and the tail, and a cell
/// has one spelling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Cell<'a> {
    pub keep: usize,
    pub ops: Vec<Op>,
    pub literal: &'a str,
}

/// A number as a cell writes it; `None` for any other spelling.
fn number(digits: &[u8]) -> Option<usize> {
    match digits {
        [] | [b'0', _, ..] => None,
        _ if !digits.iter().all(u8::is_ascii_digit) => None,
        _ => std::str::from_utf8(digits).ok()?.parse().ok(),
    }
}

impl<'a> Cell<'a> {
    /// The cell of `keep`, `ops` and the literal `parts` hold, in order.
    pub(crate) fn write(keep: usize, ops: &[Op], parts: &[&str]) -> String {
        let literal = parts.iter().map(|part| part.len()).sum::<usize>();
        let mut cell = String::with_capacity(24 + 80 * ops.len() + literal);
        cell.push_str(&keep.to_string());
        for op in ops {
            cell.push(' ');
            cell.push_str(&match op {
                Op::Add(len) => format!("+{len}"),
                Op::Copy { source: Source::Version(seq), at, len } => format!("{seq}:{at}+{len}"),
                Op::Copy { source: Source::Def(digest), at, len } => {
                    format!("#{}:{at}+{len}", hex::encode(digest))
                }
            });
        }
        cell.push('\n');
        parts.iter().for_each(|part| cell.push_str(part));
        cell
    }

    /// The inverse of [`Cell::write`]; `None` for anything it cannot have
    /// written, and for ADDs that overrun the literal or split one of its
    /// characters.
    pub(crate) fn parse(cell: &'a [u8]) -> Option<Cell<'a>> {
        let end = cell.iter().position(|&b| b == b'\n')?;
        let literal = std::str::from_utf8(&cell[end + 1..]).ok()?;
        let mut tokens = cell[..end].split(|&b| b == b' ');
        let keep = number(tokens.next()?)?;
        let (mut ops, mut added) = (Vec::new(), 0usize);
        for token in tokens {
            let plus = token.iter().rposition(|&b| b == b'+')?;
            let len = number(&token[plus + 1..])?;
            let op = match &token[..plus] {
                [] => {
                    added = added.checked_add(len)?;
                    if !literal.is_char_boundary(added) {
                        return None;
                    }
                    Op::Add(len)
                }
                copy => {
                    let colon = copy.iter().position(|&b| b == b':')?;
                    let source = match &copy[..colon] {
                        [b'#', digest @ ..] => {
                            Source::Def(hex::decode_array(std::str::from_utf8(digest).ok()?)?)
                        }
                        seq => Source::Version(number(seq)?),
                    };
                    Op::Copy { source, at: number(&copy[colon + 1..])?, len }
                }
            };
            ops.push(op);
        }
        Some(Cell { keep, ops, literal })
    }
}

/// Every stored version of every process.
pub(crate) fn all_docs() -> Scan {
    Scan::prefix(DOC_ROWS)
}

/// Every `def/` row.
pub(crate) fn all_defs() -> Scan {
    Scan::prefix(DEF_ROWS)
}

/// Every process's `meta/` row.
pub(crate) fn all_meta() -> Scan {
    Scan::prefix("meta/")
}

/// A participant's TO-DO rows.
pub(crate) fn todos_of(participant: Name<'_>) -> Scan {
    Scan::prefix(&format!("todo/{participant}/"))
}

/// The stored versions of `pid`.
pub(crate) fn versions_of(pid: Name<'_>) -> Scan {
    Scan::prefix(&format!("{DOC_ROWS}{pid}/"))
}

/// The stored versions of `pid` below `seq`: what version `seq` is folded
/// from.
pub(crate) fn versions_below(pid: Name<'_>, seq: usize) -> Scan {
    let end = RowKey::Doc { pid, seq }.to_string();
    Scan::range(format!("{DOC_ROWS}{pid}/"), Some(end))
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
    let (meta, docs) = (pool.query(&all_meta()).rows, pool.query(&all_docs()).rows);
    let statuses = meta.iter().filter_map(|(key, row)| {
        Some((&**key, STATUS.qualifier, row.get(STATUS.family, STATUS.qualifier)?.as_ref()))
    });
    let versions = docs.iter().map(|(key, _)| (&**key, XML.qualifier, &[][..]));
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
            // a `seq` spelled another way than `{seq:06}`
            "doc/p/1",
            "doc/p/00001",
            "doc/p/0000001",
            "doc/p/+00001",
            "doc/p/00000a",
            "doc/p/000001/extra",
            "doc//000001",
            "meta/",
            "meta/p/q",
            "todo/alice/p",
            "seen/abcd",
            "def/abcd",
            "def/",
            "initial/p",
            "nope/p",
        ] {
            assert_eq!(RowKey::parse(key), None, "{key:?}");
        }
        let p = Name::new("p").unwrap();
        assert_eq!(RowKey::parse("doc/p/000012"), Some(RowKey::Doc { pid: p, seq: 12 }));
        assert_eq!(RowKey::Doc { pid: p, seq: 12 }.to_string(), "doc/p/000012");
        assert_eq!(RowKey::parse("doc/p/1000000"), Some(RowKey::Doc { pid: p, seq: 1_000_000 }));
    }

    #[test]
    fn a_cell_has_one_spelling_and_parse_reads_nothing_else() {
        let cell = |keep, ops: &[Op], literal| Cell { keep, ops: ops.to_vec(), literal };
        let kept = cell(1_204, &[], "<CER>é</CER>\n</Doc>");
        assert_eq!(Cell::write(1_204, &[], &[kept.literal]), "1204\n<CER>é</CER>\n</Doc>");
        assert_eq!(Cell::parse(b"1204\n<CER>\xc3\xa9</CER>\n</Doc>"), Some(kept));
        assert_eq!(Cell::parse(b"0\n"), Some(cell(0, &[], "")));
        let longest = format!("{}\nx", usize::MAX);
        assert_eq!(Cell::parse(longest.as_bytes()).map(|c| c.keep), Some(usize::MAX));

        // a join's copies and an initial document's definition round-trip
        let digest = [0xab; 32];
        let ops = [
            Op::Add(3),
            Op::Copy { source: Source::Def(digest), at: 0, len: 1_580 },
            Op::Copy { source: Source::Version(12), at: 977, len: 604 },
        ];
        let written = Cell::write(7, &ops, &["<é>", "tail"]);
        assert_eq!(written, format!("7 +3 #{}:0+1580 12:977+604\n<é>tail", "ab".repeat(32)));
        assert_eq!(Cell::parse(written.as_bytes()), Some(cell(7, &ops, "<é>tail")));

        let def = format!("#{}", "ab".repeat(32));
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
            // ADDs past the literal, or inside its characters
            b"0 +2\nx",
            b"0 +1\n\xc3\xa9",
            // a range spelled another way, or of no source
            b"0 1:01+2\nx",
            b"0 1:1+02\nx",
            b"0 01:1+2\nx",
            b"0 :1+2\nx",
            b"0 1:1\nx",
            b"0 1+2\nx",
            b"0 #ab:0+1\nx",
            b"0 #:0+1\nx",
        ] {
            assert_eq!(Cell::parse(cell), None, "{:?}", String::from_utf8_lossy(cell));
        }
        let upper = format!("0 {}:0+1\nx", def.to_uppercase());
        assert_eq!(Cell::parse(upper.as_bytes()), None, "hex is lowercase only");
        let named = format!("0 {def}:0+1\nx");
        assert!(Cell::parse(named.as_bytes()).is_some());
    }

    fn keys_of<'a>(
        pid: Name<'a>,
        other: Name<'a>,
        seq: usize,
        digest: [u8; 32],
    ) -> [RowKey<'a>; 5] {
        [
            RowKey::Doc { pid, seq },
            RowKey::Meta(pid),
            RowKey::Todo { participant: other, pid, activity: other },
            RowKey::Seen(digest),
            RowKey::Def(digest),
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
