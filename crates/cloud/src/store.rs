//! One member cloud's storage (§4.2): its document pool (HBase in the
//! paper), the write-ahead journal admissions commit through, and the one
//! answer to "is this stored row an honest version?".
//!
//! [`CloudStore`] is the only code of this crate that holds a journal,
//! applies a journaled put, or reads or writes a `doc/`, `seen/` or `todo/`
//! row (the layout is `schema`'s). Four things are written here once:
//!
//! * **the commit path** — [`CloudStore::commit`] is the WAL discipline
//!   (append → apply → crash point → apply → commit) for the primary and
//!   for every replica, and [`CloudStore::replay`] is its recovery twin;
//! * **the write of a version** — a `doc/` row costs what the hop appended,
//!   not the document: [`CloudStore::version_rows`] stores version k as a
//!   `schema::Delta` against version k−1 — the bytes of k−1 it keeps, then
//!   the tail. Version k−1 is the **latest tip**, `pid → (seq, wire)` of the
//!   last version this cloud committed as primary, holding the `Arc` the
//!   sealed document already holds. Tips are derived, the pool is the truth:
//!   any commit that writes a version of a process drops its latest tip,
//!   [`CloudStore::advance`] installs the new one only after the commit
//!   returned and not at all once the route is final, and a miss (restart,
//!   restore, failover to this cloud, a replayed crash) folds the pool's
//!   rows, measuring the bytes kept and hashing nothing. While it is there
//!   [`CloudStore::next_seq`] scans nothing. `advance` also keeps the version
//!   as a **branch head** ([`Heads`], the TFC keeps its own by the same
//!   rules), named by the chain digest `dₖ` its admission's verifier
//!   computed, while a routed target of it has still to run. A delta
//!   hand-off (`delivery`) names the head it extends and the portal rebuilds
//!   the wire from it; heads live in memory only, so after a cold restart,
//!   on a failover, or for a join whose first arrival is no stored version
//!   the sender resends the whole wire. [`CloudStore::cut`] measures an
//!   arriving wire once: against the version it extends — a delta's head, or
//!   for a whole wire the latest tip, compared here — for the `seen/` key,
//!   and against the latest tip for the `doc/` row: the delta's `keep` when
//!   its head *is* the latest version, one comparison otherwise. Every tip
//!   holds the SHA-256 state after `wire[..at]`, where its append ended; a
//!   wire whose first `keep ≥ at` bytes are that version's has that state
//!   after its own first `at` bytes, so absorbing the rest yields
//!   SHA-256(wire) by definition — of bytes read here, nothing sent.
//!   Otherwise (`keep < at`: seq 0, a tip folded from the pool, a whole wire
//!   from an AND-split sibling) the wire is hashed whole, once. The state
//!   dies with the tip, unstored;
//! * **the read path** — a stored version is a [`Stored`]: its `doc/` row
//!   with the bytes of that version, reassembled by a `Fold` over the rows
//!   below it. One prefix query, a buffer reserved once, every tail copied
//!   once; [`CloudStore::sample`] and [`CloudStore::doc_digest`] carry the
//!   buffer from one row of a process to the next instead of refolding. A
//!   read costs the bytes of the version read;
//! * **the verdict** — the bytes of `doc/<pid>/<seq>` are honest iff the
//!   `seen/` row of their digest names that same `<seq>` *and* the document
//!   they parse to proves `<pid>`. A digest no `seen/` row names is decided
//!   by the full signature pass, and the process must still match. A cell
//!   that is no delta against the version below is [`Clause::BrokenLink`].
//!   Anything else is a [`Divergence`] naming the row, the digest and the
//!   clause.
//!
//! **The verdict under a chain.** A row is judged by the bytes it
//! reassembles to, so whoever edits one row edits every later version of
//! that process on that cloud that keeps the edited bytes: the rows above
//! stop matching their own `seen/` rows and fail the signature pass. That
//! is the point — the pool's layout now argues the way the documents in it
//! do — and it is why the serve probe of a federated deployment trips on a
//! forged *history* row, not only on a forged latest one. The auditor
//! attributes: it indicts a failing row whose row below is sound (or that is
//! seq 0) and counts the failing rows above it as tainted, one alert per
//! broken link (`audit`). Nothing on disk serves the attribution.
//!
//! **What the verdict catches of a rollback, and what it does not.** A
//! superuser rewrites `doc/p/k` to reproduce version k−1, every byte of it
//! validly signed. If the `seen/` row of those bytes is left alone it names
//! k−1, and row k is [`Clause::BoundElsewhere`]; if it is repointed to k, row
//! k passes and row k−1 is bound elsewhere instead. Both held before rows
//! were chained. What the chain adds is the case where that `seen/` row is
//! *removed*, so that k−1 and k both pass on their signatures as genuine
//! bytes nobody admitted: row k+1 was cut against the real version k, and
//! its `keep` lands past the end of the shorter k−1 — the row above no
//! longer applies, and is indicted. What the chain cannot add is a row above
//! the last one: the final version of a *finished* process, rolled back with
//! its `seen/` row removed, passes every check of its own cloud. The peer
//! clouds' replicas remain the evidence against it.
//!
//! TO-DO consumption is the one mutation that bypasses the journal: a
//! single-row delete, which the pool applies atomically on its own.

use crate::portal::TodoEntry;
use crate::schema::{self, Delta, Name, RowKey, DOC_ROWS, SEQ, XML};
use dra4wfms_core::prelude::*;
use dra4wfms_core::sealed::Heads;
use dra_crypto::Sha256;
use dra_docpool::{map_reduce_scan, FleetViews, HTable, Journal, PutOp, RowSnapshot, TableConfig};
use dra_obs::Tracer;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// One stored version as the pool holds it: a `doc/` row.
#[derive(Debug)]
pub(crate) struct Stored {
    /// The row key, `doc/<pid>/<seq:06>` on an honest pool.
    pub key: String,
    /// The bytes of that version, or why the row yields none.
    pub xml: Result<String, Clause>,
}

/// Why a [`Stored`] row is not an honest version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Clause {
    /// The key is not `doc/<pid>/<seq>`, or the row has no `doc:xml` cell.
    NotAVersion,
    /// The cell cannot be applied to the version below it.
    BrokenLink(Link),
    /// The `seen/` row of these bytes names another version: a rollback, or
    /// a copy of some other row.
    BoundElsewhere(usize),
    /// The bytes do not parse, or no `seen/` row names them and the full
    /// signature pass rejects them.
    Rejected(Box<WfError>),
    /// The document proves another process than the row claims.
    ForeignProcess(String),
}

/// How a `doc:xml` cell fails to be a delta against the version below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Link {
    /// The cell is not `keep`, a line feed and a UTF-8 tail.
    Unreadable,
    /// `keep` lies past the end of the version below, or inside one of its
    /// characters.
    KeepOutOfRange,
    /// The row keeps bytes of a version whose row is absent or did not
    /// apply itself.
    NoRowBelow,
}

/// The evidence of a failed [`CloudStore::honest`]: which row, which bytes,
/// which clause of the verdict.
#[derive(Debug)]
pub(crate) struct Divergence {
    pub key: String,
    /// SHA-256 of the bytes judged (of nothing, for a row that yields none).
    pub digest: [u8; 32],
    pub clause: Clause,
}

impl From<Divergence> for WfError {
    fn from(d: Divergence) -> WfError {
        let digest = dra_crypto::hex::encode(&d.digest);
        let row = format!("stored row {} (sha-256 {digest}) is not an honest version", d.key);
        WfError::Verify(format!("{row}: {:?}", d.clause))
    }
}

/// Reassembles versions from `doc/` rows met in key order. The bytes of the
/// last version that applied are carried, so the next row of that process
/// costs its tail; a row of another process, or one across a gap, finds
/// nothing below it.
#[derive(Default)]
struct Fold {
    /// Whose version `bytes` holds, and which; no row has applied while
    /// `pid` is empty.
    pid: String,
    seq: usize,
    bytes: String,
}

impl Fold {
    /// A fold with room for whatever `rows` reassemble to: no version is
    /// longer than the tails below and in it.
    fn over(rows: &[(String, RowSnapshot)]) -> Fold {
        let cells = rows.iter().filter_map(|(_, row)| XML.bytes_of(row)).map(<[u8]>::len);
        Fold { bytes: String::with_capacity(cells.sum()), ..Fold::default() }
    }

    /// The bytes of the version stored in `row` under `key`. A row that
    /// yields none leaves nothing below the row above it.
    fn apply(&mut self, key: &str, row: &RowSnapshot) -> Result<&str, Clause> {
        let (Some(RowKey::Doc { pid, seq }), Some(cell)) = (RowKey::parse(key), XML.bytes_of(row))
        else {
            return Err(Clause::NotAVersion);
        };
        let below = self.pid == pid.as_str() && self.seq.checked_add(1) == Some(seq);
        let applied = match Delta::parse(cell) {
            None => Err(Link::Unreadable),
            Some(Delta { keep: 0, tail }) => Ok((0, tail)),
            Some(_) if !below => Err(Link::NoRowBelow),
            // false past the end, too
            Some(Delta { keep, .. }) if !self.bytes.is_char_boundary(keep) => {
                Err(Link::KeepOutOfRange)
            }
            Some(Delta { keep, tail }) => Ok((keep, tail)),
        };
        match applied {
            Ok((keep, tail)) => {
                self.bytes.truncate(keep);
                self.bytes.push_str(tail);
                if !below {
                    self.pid.clear();
                    self.pid.push_str(pid.as_str());
                }
                self.seq = seq;
                Ok(&self.bytes)
            }
            Err(link) => {
                self.pid.clear();
                Err(Clause::BrokenLink(link))
            }
        }
    }
}

/// The bytes of `wire` a delta against `below` keeps: their longest common
/// prefix that ends between two characters.
pub(crate) fn kept(below: &str, wire: &str) -> usize {
    const STRIDE: usize = 128;
    let (a, b) = (below.as_bytes(), wire.as_bytes());
    let same = |(x, y): &(&[u8], &[u8])| x == y;
    let strides = a.chunks_exact(STRIDE).zip(b.chunks_exact(STRIDE)).take_while(same).count();
    let from = strides * STRIDE;
    let mut keep = from + a[from..].iter().zip(&b[from..]).take_while(|(x, y)| x == y).count();
    // equal bytes up to `keep`: a character boundary of one is one of both
    while !wire.is_char_boundary(keep) {
        keep -= 1;
    }
    keep
}

/// A version this cloud committed as primary, with the SHA-256 checkpoint a
/// wire that extends it resumes from.
#[derive(Clone)]
pub(crate) struct Tip {
    seq: usize,
    wire: Arc<String>,
    /// Where this version's append ended: its length less the suffix it
    /// shares with the version below it — the closing tags, which the next
    /// append pushes out. 0 for a tip folded from the pool.
    at: usize,
    /// SHA-256 after `wire[..at]`: what the digest of a wire that keeps
    /// those bytes resumes from.
    state: Sha256,
}

impl AsRef<String> for Tip {
    fn as_ref(&self) -> &String {
        &self.wire
    }
}

/// The tips of one cloud (see the module doc).
#[derive(Default)]
struct Tips {
    /// `pid →` the latest version committed here as primary: what the next
    /// `doc/` row of the process is cut against.
    latest: HashMap<String, Tip>,
    /// Its branch heads: what a delta hand-off is rebuilt from.
    heads: Heads<Tip>,
}

/// What an admission proved of the version it commits.
pub(crate) struct Proved<'a> {
    /// The chain digest its verifier computed: the name of its head.
    pub name: [u8; 32],
    /// The activity its newest CER executed; `None` for the initial document.
    pub executed: Option<&'a str>,
    pub route: &'a Route,
}

/// An arriving wire measured once per admission: duplicate suppression reads
/// the digest, the `doc/` row the bytes of the latest version kept, the next
/// tip the state to resume from.
pub(crate) struct Cut {
    /// SHA-256 of the wire.
    pub digest: [u8; 32],
    /// The `seq` of the latest version and the bytes of it the wire keeps;
    /// `None` until one was there to measure against.
    below: Option<(usize, usize)>,
    /// The [`Tip::at`] and [`Tip::state`] of this wire, were it committed.
    at: usize,
    state: Sha256,
    /// Bytes SHA-256 absorbed and bytes compared to measure the wire.
    pub hashed: usize,
    pub compared: usize,
}

impl Cut {
    /// Measure `wire` against `latest`, the version its `doc/` row is cut
    /// against, and against the version it extends: `base` with the bytes
    /// of it a delta kept, else `latest`.
    fn of(base: Option<(&Tip, usize)>, latest: Option<&Tip>, wire: &str) -> Cut {
        let bytes = wire.as_bytes();
        let mut compared = 0;
        let below = latest.map(|latest| match base {
            Some((base, keep)) if Arc::ptr_eq(&base.wire, &latest.wire) => (latest, keep),
            _ => {
                compared = kept(&latest.wire, wire);
                (latest, compared)
            }
        });
        let (mut hash, from, at) = match base.or(below) {
            Some((base, keep)) => {
                let ends =
                    base.wire.as_bytes()[keep..].iter().rev().zip(bytes[keep..].iter().rev());
                let at = bytes.len() - ends.take_while(|(x, y)| x == y).count();
                // `wire[..keep]` is the base's: up to there its state is this wire's
                let resumed = base.at <= keep;
                let (hash, from) =
                    if resumed { (base.state.clone(), base.at) } else { (Sha256::new(), 0) };
                (hash, from, at)
            }
            None => (Sha256::new(), 0, 0),
        };
        let below = below.map(|(latest, keep)| (latest.seq, keep));
        hash.update(&bytes[from..at]);
        let state = hash.clone();
        hash.update(&bytes[at..]);
        let hashed = bytes.len() - from;
        Cut { digest: hash.finalize(), below, at, state, hashed, compared }
    }
}

/// One member cloud's pool and journal.
pub(crate) struct CloudStore {
    /// Stable cloud name (used in alerts, metrics and outage plans).
    pub name: String,
    pool: Arc<HTable>,
    journal: Journal,
    /// The versions committed here as primary that a later one may extend,
    /// while their process runs (see the module doc).
    tips: Mutex<Tips>,
}

impl CloudStore {
    /// An empty cloud named `name`.
    pub(crate) fn new(name: &str) -> CloudStore {
        let pool = HTable::new(TableConfig { max_versions: 4, max_region_rows: 1024 });
        CloudStore {
            name: name.to_string(),
            pool: Arc::new(pool),
            journal: Journal::new(),
            tips: Mutex::default(),
        }
    }

    /// A cloud restarted cold from [`CloudStore::snapshot`] bytes.
    pub(crate) fn from_snapshot(name: &str, snapshot: &[u8]) -> WfResult<CloudStore> {
        let pool = HTable::import_snapshot(snapshot)
            .map_err(|e| WfError::Malformed(format!("pool snapshot: {e}")))?;
        Ok(CloudStore { pool: Arc::new(pool), ..CloudStore::new(name) })
    }

    /// The raw table, for the pinned public accessors and the `meta/`
    /// statistics scans (a `meta/` row is not a version).
    pub(crate) fn pool(&self) -> &Arc<HTable> {
        &self.pool
    }

    /// Record the journal's commit and replay spans into `tracer`.
    pub(crate) fn set_tracer(&self, tracer: Tracer) {
        self.journal.set_tracer(tracer);
    }

    // -- the commit path -----------------------------------------------------

    /// The WAL discipline: log the intent, apply the first
    /// `applied_before_check` rows, pass the crash point `check`, apply the
    /// rest, commit. A `check` that fails leaves the record uncommitted for
    /// [`CloudStore::replay`]. Either way the tip of a process the batch
    /// writes a version of is dropped: it is no longer the version below the
    /// next one.
    pub(crate) fn commit(
        &self,
        ops: &[PutOp],
        applied_before_check: usize,
        check: impl FnOnce() -> WfResult<()>,
    ) -> WfResult<()> {
        for op in ops.iter().filter(|op| op.key.starts_with(DOC_ROWS)) {
            if let Some(RowKey::Doc { pid, .. }) = RowKey::parse(&op.key) {
                self.tips().latest.remove(pid.as_str());
            }
        }
        let record = self.journal.append(ops.to_vec());
        let (before, after) = ops.split_at(applied_before_check);
        before.iter().for_each(|op| op.apply(&self.pool));
        check()?;
        after.iter().for_each(|op| op.apply(&self.pool));
        self.journal.commit_through(record);
        Ok(())
    }

    /// Restart: idempotently re-apply every uncommitted record, showing
    /// `observe` each row in turn — the rows whose commit never told its
    /// caller it was done. Returns how many records were replayed.
    pub(crate) fn replay(&self, observe: impl FnMut(&PutOp)) -> usize {
        self.journal.replay_into_with(&self.pool, observe)
    }

    /// Records journaled so far: the cloud's commit watermark.
    pub(crate) fn journal_len(&self) -> u64 {
        self.journal.len() as u64
    }

    /// Records replayed by restarts so far.
    pub(crate) fn journal_replays(&self) -> u64 {
        self.journal.replayed_records()
    }

    /// The journal's serialized form ([`Journal::import`] reads it back).
    pub(crate) fn journal_export(&self) -> Vec<u8> {
        self.journal.export()
    }

    // -- stored versions: the write ------------------------------------------

    fn tips(&self) -> std::sync::MutexGuard<'_, Tips> {
        self.tips.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The latest version of `pid`: from memory while this cloud has been
    /// committing the process, else folded from the pool's rows and kept.
    /// A latest row that yields no bytes is a tip of none, so the version
    /// above it is cut against nothing: a full copy.
    fn tip(&self, pid: Name<'_>) -> Option<Tip> {
        if let Some(tip) = self.tips().latest.get(pid.as_str()) {
            return Some(tip.clone());
        }
        let Stored { key, xml } = self.latest(pid)?;
        let RowKey::Doc { seq, .. } = RowKey::parse(&key)? else { return None };
        let tip = Tip { seq, wire: Arc::new(xml.unwrap_or_default()), at: 0, state: Sha256::new() };
        self.tips().latest.insert(pid.as_str().to_string(), tip.clone());
        Some(tip)
    }

    /// What a delta hand-off from `sender` reads as here, with the branch
    /// head it was rebuilt from ([`Heads::arrived`]).
    pub(crate) fn arrived(
        &self,
        delta: (&[u8; 32], usize),
        damaged: Option<&str>,
        sender: &SealedDocument,
    ) -> WfResult<(Tip, SealedDocument)> {
        self.tips().heads.arrived(delta, damaged, sender)
    }

    /// Branch heads held: at most one per live branch of each running
    /// process.
    pub(crate) fn tips_held(&self) -> usize {
        self.tips().heads.held()
    }

    /// Measure an arriving `wire` — a whole copy, or one rebuilt from `base`
    /// keeping `keep` bytes of it — against the latest version this cloud
    /// holds in memory for the process it claims to be of. Nothing is read
    /// from the pool: a wire that may yet be a duplicate or a forgery costs
    /// its bytes.
    pub(crate) fn cut(&self, claimed: &str, wire: &str, base: Option<(&Tip, usize)>) -> Cut {
        let latest = self.tips().latest.get(claimed).cloned();
        Cut::of(base, latest.as_ref(), wire)
    }

    /// The next admission's `seq`, for the wire `cut` measured, now proved to
    /// be of `pid`: one past the latest version stored (parallel AND-split
    /// branches have equal CER counts, so the CER count alone would
    /// collide). A cut that met no latest version in memory measures the
    /// bytes kept of the one the pool's rows fold to, if they hold one; its
    /// digest stands.
    pub(crate) fn next_seq(&self, pid: Name<'_>, cut: &mut Cut, wire: &str) -> usize {
        if cut.below.is_none() {
            if let Some(tip) = self.tip(pid) {
                let keep = kept(&tip.wire, wire);
                cut.compared += keep;
                cut.below = Some((tip.seq, keep));
            }
        }
        cut.below.map_or(0, |(below, _)| below.saturating_add(1))
    }

    /// The two rows a version is, leading an admission's batch: the `seen/`
    /// row binding the whole wire's digest to `seq` (a pool row, not portal
    /// memory, so duplicate suppression survives snapshot/restore and is
    /// shared by every portal), then the `doc/` row: what `wire` adds to the
    /// version below it, as `cut` measured it. The primary applies the first
    /// before its crash point: the worst window is "pool claims stored,
    /// document row missing", exactly what replay repairs.
    pub(crate) fn version_rows(
        &self,
        pid: Name<'_>,
        seq: usize,
        cut: &Cut,
        wire: &str,
    ) -> [PutOp; 2] {
        // seq 0, or a version not one above what was measured against, is cut
        // against nothing
        let keep = match cut.below {
            Some((below, keep)) if below.checked_add(1) == Some(seq) => keep,
            _ => 0,
        };
        let cell = Delta { keep, tail: &wire[keep..] }.cell();
        [
            SEQ.put(RowKey::Seen(cut.digest), seq.to_string()),
            XML.put(RowKey::Doc { pid, seq }, cell),
        ]
    }

    /// `wire`, which `cut` measured, was committed as version `seq` of `pid`,
    /// as `proved`: the version becomes the latest, and a branch head
    /// ([`Heads::advance`]) — unless the route ended there, which drops every
    /// tip of the process.
    pub(crate) fn advance(
        &self,
        pid: Name<'_>,
        seq: usize,
        wire: Arc<String>,
        cut: Cut,
        proved: Proved<'_>,
    ) {
        let Proved { name, executed, route } = proved;
        let mut tips = self.tips();
        let pid = pid.as_str();
        let tip = Tip { seq, wire, at: cut.at, state: cut.state };
        if route.is_final() {
            tips.latest.remove(pid);
        } else {
            tips.latest.insert(pid.to_string(), tip.clone());
        }
        tips.heads.advance(pid, name, executed, route, tip);
    }

    // -- stored versions: the reads ------------------------------------------

    /// The version the wire bytes of SHA-256 `digest` were admitted as, if
    /// they were: what their `seen/` row names.
    pub(crate) fn seq_of(&self, digest: &[u8; 32]) -> Option<usize> {
        SEQ.get(&self.pool, RowKey::Seen(*digest))?.parse().ok()
    }

    /// The row of `pid` that `rows` (its rows from seq 0 on) end with.
    fn last_of(rows: Vec<(String, RowSnapshot)>) -> Option<Stored> {
        let mut fold = Fold::over(&rows);
        let mut last = Err(Clause::NotAVersion);
        for (key, row) in &rows {
            last = fold.apply(key, row).map(|_| ());
        }
        let (key, _) = rows.into_iter().next_back()?;
        Some(Stored { key, xml: last.map(|()| fold.bytes) })
    }

    /// The latest stored version of `pid`.
    pub(crate) fn latest(&self, pid: Name<'_>) -> Option<Stored> {
        Self::last_of(self.pool.query(&schema::versions_of(pid)).rows)
    }

    /// The bytes of version `seq` of `pid`.
    pub(crate) fn version(&self, pid: Name<'_>, seq: usize) -> Option<String> {
        let through = schema::versions_below(pid, seq.checked_add(1)?);
        let stored = Self::last_of(self.pool.query(&through).rows)?;
        if stored.key != (RowKey::Doc { pid, seq }).to_string() {
            return None;
        }
        stored.xml.ok()
    }

    /// Up to `batch` stored versions in key order, from `cursor` on (from
    /// the first one without a cursor) — a bounded, projected scan, plus the
    /// rows below the first one's when the cursor stands inside a process.
    pub(crate) fn sample(&self, cursor: Option<&str>, batch: usize) -> Vec<Stored> {
        let from = cursor.unwrap_or(DOC_ROWS);
        let scan = schema::all_docs().starting_at(from).limit(batch);
        let rows = self.pool.query(&scan).rows;
        let mut fold = Fold::default();
        match rows.first().and_then(|(key, _)| RowKey::parse(key)) {
            Some(RowKey::Doc { pid, seq }) if seq > 0 => {
                for (key, row) in &self.pool.query(&schema::versions_below(pid, seq)).rows {
                    let _ = fold.apply(key, row);
                }
            }
            _ => {}
        }
        let stored = |(key, row): (String, RowSnapshot)| {
            let xml = fold.apply(&key, &row).map(str::to_owned);
            Stored { key, xml }
        };
        rows.into_iter().map(stored).collect()
    }

    /// The verdict of the module doc: the document `stored` holds, or the
    /// clause it fails.
    pub(crate) fn honest(
        &self,
        stored: &Stored,
        directory: &Directory,
    ) -> Result<DraDocument, Divergence> {
        let xml = stored.xml.as_deref();
        let digest = dra_crypto::sha256(xml.unwrap_or_default().as_bytes());
        let fails = |clause| Divergence { key: stored.key.clone(), digest, clause };
        let rejected = |e| fails(Clause::Rejected(Box::new(e)));
        let xml = xml.map_err(|clause| fails(clause.clone()))?;
        let Some(RowKey::Doc { pid, seq }) = RowKey::parse(&stored.key) else {
            return Err(fails(Clause::NotAVersion));
        };
        let vouched = match self.seq_of(&digest) {
            Some(bound) if bound != seq => return Err(fails(Clause::BoundElsewhere(bound))),
            bound => bound.is_some(),
        };
        let doc = DraDocument::parse(xml).map_err(rejected)?;
        if !vouched {
            // every content byte is covered by a signature, so bytes that
            // were never admitted pass only if they are a genuine document
            Verifier::new(directory).run(&doc).map_err(rejected)?;
        }
        match doc.process_id() {
            Ok(proved) if proved == pid.as_str() => Ok(doc),
            Ok(proved) => Err(fails(Clause::ForeignProcess(proved))),
            Err(e) => Err(rejected(e)),
        }
    }

    /// Versions stored per process, recomputed by a key-only MapReduce over
    /// the `doc/` rows — the scan side of `views ≡ scan`.
    pub(crate) fn progress_by_scan(&self) -> BTreeMap<String, u64> {
        map_reduce_scan(
            &self.pool,
            &schema::doc_keys(),
            |key, _| match RowKey::parse(key) {
                Some(RowKey::Doc { pid, seq }) => vec![(pid.as_str().to_string(), seq as u64)],
                _ => vec![],
            },
            |_, seqs| seqs.iter().copied().max().unwrap_or(0) + 1,
        )
    }

    /// SHA-256 over every `doc/` row, key and the bytes of its version, in
    /// key order: the layout does not show in it.
    pub(crate) fn doc_digest(&self) -> String {
        // the typed scan returns rows in key order already
        let (mut fold, mut hash) = (Fold::default(), Sha256::new());
        for (key, row) in &self.pool.query(&schema::all_docs()).rows {
            if let Ok(xml) = fold.apply(key, row) {
                for part in [key.as_bytes(), b"\0", xml.as_bytes(), b"\0"] {
                    hash.update(part);
                }
            }
        }
        dra_crypto::hex::encode(&hash.finalize())
    }

    /// Bytes the `doc/` rows hold: what the stored versions cost.
    pub(crate) fn doc_bytes(&self) -> u64 {
        let rows = self.pool.query(&schema::all_docs()).rows;
        rows.iter().filter_map(|(_, row)| XML.bytes_of(row)).map(|cell| cell.len() as u64).sum()
    }

    /// The whole pool, serialized.
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        self.pool.export_snapshot()
    }

    /// Cold start: the views are memory, the pool is truth.
    pub(crate) fn seed_views(&self, views: &FleetViews) {
        schema::seed_views(views, &self.pool);
    }

    // -- TO-DO rows ----------------------------------------------------------

    /// A participant's TO-DO list.
    pub(crate) fn todos_of(&self, participant: Name<'_>) -> Vec<TodoEntry> {
        let rows = self.pool.query(&schema::todos_of(participant)).rows;
        rows.iter()
            .filter_map(|(key, _)| match RowKey::parse(key)? {
                RowKey::Todo { pid, activity, .. } => Some(TodoEntry {
                    process_id: pid.as_str().to_string(),
                    activity: activity.as_str().to_string(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Whether `todo` is still unconsumed.
    pub(crate) fn todo_pending(&self, todo: RowKey<'_>) -> bool {
        SEQ.get(&self.pool, todo).is_some()
    }

    /// Remove a consumed TO-DO row; whether this cloud held it.
    /// Unjournaled.
    pub(crate) fn remove(&self, row: RowKey<'_>) -> bool {
        self.pool.delete_row(&row.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::NetworkSim;
    use crate::portal::CloudSystem;
    use std::sync::atomic::Ordering;

    impl CloudStore {
        /// Processes whose latest version is in memory.
        fn latest_held(&self) -> usize {
            self.tips().latest.len()
        }

        /// What `wire` would be admitted with as the next version of `pid`:
        /// its `seq` and its two rows.
        fn rows_for(&self, pid: Name<'_>, wire: &str) -> (usize, [PutOp; 2]) {
            let mut cut = self.cut(pid.as_str(), wire, None);
            let seq = self.next_seq(pid, &mut cut, wire);
            (seq, self.version_rows(pid, seq, &cut, wire))
        }
    }

    fn batch() -> Vec<PutOp> {
        let p = Name::new("p").unwrap();
        let (_, version) = CloudStore::new("c").rows_for(p, "<doc/>");
        let mut ops = version.to_vec();
        ops.push(crate::schema::STATUS.put(RowKey::Meta(p), "running"));
        ops.push(SEQ.put(RowKey::todo("alice", "p", "submit").unwrap(), "0"));
        ops
    }

    /// Commit `batch()` on a fresh cloud, dying at the crash point when
    /// `torn_at` says how many rows land first; then restart. Returns the
    /// pool's snapshot and the rows the caller learnt were applied: from the
    /// commit returning `Ok`, or from the replay's observer.
    fn commit_and_restart(torn_at: Option<usize>) -> (Vec<u8>, Vec<PutOp>) {
        let cloud = CloudStore::new("c");
        let crash = || match torn_at {
            Some(_) => Err(WfError::Crash("torn".into())),
            None => Ok(()),
        };
        let done = cloud.commit(&batch(), torn_at.unwrap_or(0), crash);
        assert_eq!(done.is_err(), torn_at.is_some());
        let mut observed = if done.is_ok() { batch() } else { vec![] };
        let replayed = cloud.replay(|op| observed.push(op.clone()));
        assert_eq!(replayed, usize::from(torn_at.is_some()));
        assert_eq!(cloud.replay(|_| panic!("nothing left to replay")), 0);
        assert_eq!(cloud.journal_len(), 1);
        (cloud.snapshot(), observed)
    }

    #[test]
    fn a_torn_commit_replays_to_the_untorn_pool_and_observer_calls() {
        let untorn = commit_and_restart(None);
        assert_eq!(untorn.1, batch());
        assert!(untorn.1[0].key.starts_with("seen/"), "the seen row leads the batch");
        for k in [0, 1] {
            assert_eq!(commit_and_restart(Some(k)), untorn, "torn after {k} rows");
        }
    }

    #[test]
    fn the_verdict_names_the_clause_that_failed() {
        let designer = Credentials::from_seed("designer", "d");
        let alice = Credentials::from_seed("alice", "a");
        let def = WorkflowDefinition::builder("po", "designer")
            .simple_activity("submit", "alice", &["amount"])
            .flow_end("submit")
            .build()
            .unwrap();
        let dir = Directory::from_credentials([&designer, &alice]);
        let sys = CloudSystem::new(dir.clone(), 1, Arc::new(NetworkSim::lan()));
        let pol = SecurityPolicy::public();
        let aea = Aea::new(alice, dir.clone());
        let submit = Route { targets: vec!["submit".into()], ends: false };
        for pid in ["p", "q"] {
            let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, pid).unwrap();
            sys.ingest_wire(0, &doc.to_xml_string(), &submit).unwrap();
            let recv = aea
                .receive(SealedDocument::from_wire(&doc.to_xml_string()).unwrap(), "submit")
                .unwrap();
            let done = aea.complete(&recv, &[("amount".into(), "1".into())]).unwrap();
            sys.ingest_wire(0, &done.document.to_xml_string(), &done.route).unwrap();
        }
        let cloud = &sys.clouds[0];
        let (p, q) = (Name::new("p").unwrap(), Name::new("q").unwrap());
        let clause = |stored: &Stored| cloud.honest(stored, &dir).unwrap_err().clause;
        let at = |key: &str, xml: Option<String>| Stored {
            key: key.to_string(),
            xml: xml.ok_or(Clause::NotAVersion),
        };

        let latest = cloud.latest(p).unwrap();
        assert_eq!(latest.key, "doc/p/000001");
        assert_eq!(cloud.honest(&latest, &dir).unwrap().process_id().unwrap(), "p");

        // p's own version 0 in version 1's row: a rollback
        assert_eq!(clause(&at("doc/p/000001", cloud.version(p, 0))), Clause::BoundElsewhere(0));
        // q's version 1 in p's row: same seq, another process
        let foreign = clause(&at("doc/p/000001", cloud.version(q, 1)));
        assert_eq!(foreign, Clause::ForeignProcess("q".into()));
        // flipped bytes: no seen/ row names them, the signature pass decides
        let bytes = latest.xml.clone().unwrap();
        let flipped = crate::federation::tamper_bytes(&bytes);
        assert!(matches!(clause(&at(&latest.key, Some(flipped))), Clause::Rejected(_)));
        assert_eq!(clause(&at(&latest.key, None)), Clause::NotAVersion);
        assert_eq!(clause(&at("doc/p", Some(bytes))), Clause::NotAVersion);

        // genuine bytes that were never admitted pass on their signatures,
        // under their own process only
        let r = DraDocument::new_initial_with_pid(&def, &pol, &designer, "r").unwrap();
        let unseen = Some(r.to_xml_string());
        assert!(cloud.honest(&at("doc/r/000000", unseen.clone()), &dir).is_ok());
        assert_eq!(clause(&at("doc/p/000002", unseen)), Clause::ForeignProcess("r".into()));

        let err = WfError::from(cloud.honest(&at(&latest.key, None), &dir).unwrap_err());
        assert!(matches!(&err, WfError::Verify(m) if m.contains("doc/p/000001")), "{err}");
    }
    /// A deployment and the three hand-offs of process `p` through `submit`
    /// and `approve` on it, the last one final. The workflow's name puts a
    /// two-byte character into every version.
    fn three_hops() -> (CloudSystem, Vec<(SealedDocument, Route)>) {
        let creds = ["designer", "alice", "bob"].map(|n| Credentials::from_seed(n, n));
        let def = WorkflowDefinition::builder("pö", "designer")
            .simple_activity("submit", "alice", &["amount"])
            .simple_activity("approve", "bob", &["decision"])
            .flow("submit", "approve")
            .flow_end("approve")
            .build()
            .unwrap();
        let dir = Directory::from_credentials(&creds);
        let sys = CloudSystem::new(dir.clone(), 1, Arc::new(NetworkSim::lan()));
        let initial =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &creds[0], "p");
        let submit = Route { targets: vec!["submit".into()], ends: false };
        let mut hops = vec![(SealedDocument::new(initial.unwrap()), submit)];
        for (who, activity, field) in [(1, "submit", "amount"), (2, "approve", "decision")] {
            let aea = Aea::new(creds[who].clone(), dir.clone());
            let received = aea.receive(hops.last().unwrap().0.clone(), activity).unwrap();
            let done = aea.complete(&received, &[(field.into(), "1".into())]).unwrap();
            hops.push((done.document, done.route));
        }
        assert!(hops[2].1.is_final());
        (sys, hops)
    }

    /// [`three_hops`], admitted: three stored versions.
    fn three_versions() -> (CloudSystem, Vec<Arc<String>>) {
        let (sys, hops) = three_hops();
        for (sealed, route) in &hops {
            sys.admit(0, sealed, route).unwrap();
            let held = usize::from(!route.is_final());
            assert_eq!(sys.clouds[0].tips_held(), held, "a running process has a tip");
        }
        (sys, hops.iter().map(|(sealed, _)| sealed.wire()).collect())
    }

    #[test]
    fn a_retransmitted_copy_is_acked_as_the_version_it_became() {
        use crate::portal::StoreAck;
        let (sys, hops) = three_hops();
        let admit = |hop: usize| sys.admit(0, &hops[hop].0, &hops[hop].1).unwrap();
        assert_eq!(admit(0), StoreAck { seq: 0, duplicate: false });
        assert_eq!(admit(1), StoreAck { seq: 1, duplicate: false });
        // the tip's own bytes again (hashed from its checkpoint on), then an
        // older version's (hashed whole): neither moves the tip
        // (a debug build hashes every wire once more, for `admit`'s oracle)
        let hashed = |hop: usize, ack: StoreAck| {
            dra_crypto::sha256_bytes_reset();
            assert_eq!(admit(hop), ack);
            let whole = hops[hop].0.wire().len() as u64;
            (dra_crypto::sha256_bytes() - u64::from(cfg!(debug_assertions)) * whole, whole)
        };
        let (resumed, whole) = hashed(1, StoreAck { seq: 1, duplicate: true });
        assert!(resumed < whole / 2, "{resumed} B of {whole}");
        let (cold, whole) = hashed(0, StoreAck { seq: 0, duplicate: true });
        assert!(cold >= whole, "{cold} B of {whole}");
        assert_eq!(sys.clouds[0].tips().latest["p"].seq, 1);
        assert_eq!(admit(2), StoreAck { seq: 2, duplicate: false });
        assert_eq!(sys.portals[0].duplicates_suppressed.load(Ordering::Relaxed), 2);
    }

    /// Version `n` of a synthetic process: a header, `n` results of 100
    /// bytes, the closing tags. The store reads bytes, not documents.
    fn synthetic(n: usize) -> String {
        let result = |i| format!("<c n=\"{i}\">{}</c>", "x".repeat(100));
        let results = match n {
            0 => "<r/>".to_string(),
            _ => format!("<r>{}</r>", (0..n).map(result).collect::<String>()),
        };
        format!("<d><h>{}</h>{results}</d>", "h".repeat(100))
    }

    /// Admit `wire` as the next version of `p` the way `admit` does, less
    /// the verification. Returns its `seq`, its digest as the cut computed
    /// it and the bytes SHA-256 absorbed for it.
    fn store(cloud: &CloudStore, wire: &str) -> (usize, [u8; 32], u64) {
        let p = Name::new("p").unwrap();
        dra_crypto::sha256_bytes_reset();
        let mut cut = cloud.cut("p", wire, None);
        let seq = cloud.next_seq(p, &mut cut, wire);
        let (digest, hashed) = (cut.digest, dra_crypto::sha256_bytes());
        assert_eq!(hashed, cut.hashed as u64, "the cut counts what it hashed");
        assert!(cut.hashed <= wire.len(), "no admission hashes more bytes than its wire is long");
        cloud.commit(&cloud.version_rows(p, seq, &cut, wire), 1, || Ok(())).unwrap();
        let route = Route { targets: vec!["next".into()], ends: false };
        let proved = Proved { name: digest, executed: Some("next"), route: &route };
        cloud.advance(p, seq, Arc::new(wire.to_string()), cut, proved);
        // the tip's checkpoint is the state after the bytes it says it covers
        let tip = cloud.tips().latest["p"].clone();
        assert_eq!(tip.state.finalize(), dra_crypto::sha256(&wire.as_bytes()[..tip.at]));
        (seq, digest, hashed)
    }

    #[test]
    fn a_digest_is_resumed_only_over_bytes_the_store_compared() {
        let cloud = CloudStore::new("c");
        for n in 0..6 {
            let wire = synthetic(n);
            let (seq, digest, hashed) = store(&cloud, &wire);
            assert_eq!((seq, digest), (n, dra_crypto::sha256(wire.as_bytes())));
            // the first versions find no checkpoint below their own append
            // (none, then one inside tags the next version replaces); from
            // then on a version costs its own result and the closing tags
            let whole = wire.len() as u64;
            assert!(if n < 3 { hashed == whole } else { hashed < 200 }, "{n}: {hashed} B");
        }

        // one byte before the checkpoint differs: nothing of it is used
        let at = cloud.tips().latest["p"].at;
        let mut forked = synthetic(6);
        forked.replace_range(at - 1..at, "y");
        let (seq, digest, hashed) = store(&cloud, &forked);
        assert_eq!((seq, digest), (6, dra_crypto::sha256(forked.as_bytes())));
        assert_eq!(hashed, forked.len() as u64, "hashed whole");
        // … and what follows resumes from the fork's own checkpoint
        let next = forked.replace("</r></d>", "<c>more</c></r></d>");
        let (seq, digest, hashed) = store(&cloud, &next);
        assert_eq!((seq, digest), (7, dra_crypto::sha256(next.as_bytes())));
        assert!(hashed < 200, "{hashed} B");
        assert_eq!(cloud.version(Name::new("p").unwrap(), 7).as_deref(), Some(next.as_str()));
    }

    #[test]
    fn the_checkpoint_lives_and_dies_with_the_tip() {
        let cloud = CloudStore::new("c");
        for n in 0..4 {
            store(&cloud, &synthetic(n));
        }
        assert!(cloud.tips().latest["p"].at > 0);

        // any commit of the process drops the tip, checkpoint and all: the
        // next version is hashed whole, once, and then measured against the
        // pool's rows — no admission hashes more bytes than its wire is long
        let p = Name::new("p").unwrap();
        cloud.commit(&[XML.put(RowKey::Doc { pid: p, seq: 4 }, "0\n<x/>")], 0, || Ok(())).unwrap();
        assert_eq!(cloud.latest_held(), 0);
        let wire = synthetic(5);
        let (seq, digest, hashed) = store(&cloud, &wire);
        assert_eq!((seq, digest), (5, dra_crypto::sha256(wire.as_bytes())));
        assert_eq!(hashed, wire.len() as u64, "hashed once, though the rows were folded after");
        let doc = XML.get(cloud.pool(), RowKey::Doc { pid: p, seq: 5 }).unwrap();
        assert_eq!(doc, format!("1\n{}", &wire[1..]), "cut against the folded version 4, `<x/>`");

        // a snapshot holds rows: a cloud restarted from it has neither
        let restarted = CloudStore::from_snapshot("c", &cloud.snapshot()).unwrap();
        assert_eq!(restarted.latest_held() + restarted.tips_held(), 0);
        assert_eq!(restarted.cut("p", &wire, None).below, None);
        let folded = restarted.tip(p).unwrap();
        assert_eq!((folded.seq, folded.at), (5, 0), "a folded tip resumes from nothing");
        let wire = synthetic(6);
        let (seq, digest, _) = store(&restarted, &wire);
        assert_eq!((seq, digest), (6, dra_crypto::sha256(wire.as_bytes())));
    }

    #[test]
    fn the_tip_spares_the_scan_and_goes_with_the_process() {
        let (sys, wires) = three_versions();
        let (cloud, p) = (&sys.clouds[0], Name::new("p").unwrap());
        assert_eq!(cloud.latest_held(), 0, "dropped with the final route");
        let regions = || cloud.pool.scan_counters().1;

        // a miss folds the pool's rows, once; then the tip answers
        let scans = regions();
        assert_eq!(cloud.rows_for(p, "<x/>").0, 3);
        assert_eq!((regions(), cloud.latest_held()), (scans + 1, 1));
        let (seq, [_, doc]) = cloud.rows_for(p, &format!("{}<more/>", wires[2]));
        assert_eq!((seq, regions()), (3, scans + 1), "no scan while the tip is there");
        assert_eq!(doc.value.as_ref(), format!("{}\n<more/>", wires[2].len()).as_bytes());

        // a read is one prefix query and yields exactly the admitted bytes
        let scans = regions();
        assert_eq!(cloud.latest(p).unwrap().xml.as_ref(), Ok(&*wires[2]));
        assert_eq!(regions(), scans + 1);
        for (seq, wire) in wires.iter().enumerate() {
            assert_eq!(cloud.version(p, seq).as_ref(), Some(&**wire));
        }
        assert_eq!(cloud.version(p, 3), None);

        // a commit that dies mid-batch takes the tip with it
        let crash = || Err(WfError::Crash("torn".into()));
        assert!(cloud
            .commit(&[XML.put(RowKey::Doc { pid: p, seq: 3 }, "0\n<x/>")], 0, crash)
            .is_err());
        assert_eq!(cloud.latest_held(), 0);
        assert_eq!(cloud.rows_for(p, "<x/>").0, 3, "the row never landed");
        assert_eq!(cloud.replay(|_| ()), 1);
        assert_eq!(cloud.latest_held(), 1, "(rebuilt by the miss above …");
        cloud.commit(&[XML.put(RowKey::Doc { pid: p, seq: 3 }, "0\n<x/>")], 0, || Ok(())).unwrap();
        assert_eq!(cloud.latest_held(), 0, "… and dropped by any commit)");
        assert_eq!(cloud.rows_for(p, "<x/>").0, 4);
    }

    /// A Fig. 9A-shaped process over synthetic versions: a chain into the
    /// split `B1, B2`, the join `C`, the end `D` — each admitted the way
    /// `admit` does less the verification, as a delta against its base.
    #[test]
    fn each_sibling_finds_its_own_base_and_a_head_goes_with_its_targets() {
        let cloud = CloudStore::new("c");
        let p = Name::new("p").unwrap();
        // admit `wire` against the head `base`, executing `executed`, routed
        // to `targets` (none: the end); its name, and what its cut cost
        let admit = |wire: &str, base: Option<[u8; 32]>, executed: &str, targets: &[&str]| {
            let tip = base.map(|name| cloud.tips().heads.get(&name).expect("the base").clone());
            let mut cut =
                cloud.cut("p", wire, tip.as_ref().map(|tip| (tip, kept(&tip.wire, wire))));
            assert_eq!(cut.digest, dra_crypto::sha256(wire.as_bytes()));
            let seq = cloud.next_seq(p, &mut cut, wire);
            cloud.commit(&cloud.version_rows(p, seq, &cut, wire), 1, || Ok(())).unwrap();
            let (name, cost) = (dra_crypto::sha256(wire.as_bytes()), (cut.hashed, cut.compared));
            let targets = targets.iter().map(|t| t.to_string()).collect();
            let route = Route { ends: executed == "D", targets };
            let proved =
                Proved { name, executed: Some(executed).filter(|a| !a.is_empty()), route: &route };
            cloud.advance(p, seq, Arc::new(wire.to_string()), cut, proved);
            (name, cost)
        };
        let with = |wire: &str, label: &str| {
            wire.replace("</r></d>", &format!("<c n=\"{label}\">{}</c></r></d>", "y".repeat(100)))
        };
        let (v0, _) = admit(&synthetic(0), None, "", &["A"]);
        let (v1, _) = admit(&synthetic(1), Some(v0), "A", &["A2"]);
        let held = |name| cloud.tips().heads.get(&name).is_some();
        assert_eq!((cloud.tips_held(), held(v0)), (1, false), "A consumed it");
        let (split, _) = admit(&synthetic(2), Some(v1), "A2", &["B1", "B2"]);

        // the siblings extend the same version: each resumes its digest from
        // it; the second cuts its row against the first, the latest
        let (b1, b2) = (with(&synthetic(2), "b1"), with(&synthetic(2), "b2"));
        let (v_b1, (hashed, compared)) = admit(&b1, Some(split), "B1", &["C"]);
        assert!(hashed < 200 && compared == 0, "{hashed} B hashed, {compared} B compared");
        assert_eq!(cloud.tips_held(), 2, "B2 still waits for the split");
        let (_, (hashed, compared)) = admit(&b2, Some(split), "B2", &["C"]);
        assert!(hashed < 200 && compared == kept(&b1, &b2), "{hashed} B, {compared} B");
        assert!(!held(split), "every routed target extended the split");
        assert_eq!(cloud.tips_held(), 2, "one head per live branch");

        // the join names its first arrival; both branches' heads go with it
        let join = with(&with(&b1, "b2"), "c");
        let (v_c, (hashed, _)) = admit(&join, Some(v_b1), "C", &["D"]);
        assert!(hashed < 400, "{hashed} B");
        assert_eq!(cloud.tips_held(), 1);
        admit(&with(&join, "d"), Some(v_c), "D", &[]);
        assert_eq!((cloud.tips_held(), cloud.latest_held()), (0, 0), "gone with the process");
        for seq in 0..7 {
            assert!(cloud.version(p, seq).is_some(), "version {seq} reads back");
        }
    }

    /// Row 1 of `p` holding `cell`: what rows 1 and 2 then fail with. Every
    /// reader runs over the damaged pool; none may panic.
    fn with_row_1(cell: Option<&str>) -> (Clause, Clause) {
        let (sys, _) = three_versions();
        let (cloud, p) = (&sys.clouds[0], Name::new("p").unwrap());
        let row_1 = RowKey::Doc { pid: p, seq: 1 };
        match cell {
            Some(cell) => XML.write(&cloud.pool, row_1, cell),
            None => assert!(cloud.remove(row_1)),
        }
        let sample = cloud.sample(None, usize::MAX);
        assert_eq!(sample.len(), 2 + usize::from(cell.is_some()));
        let clause = |seq: usize| {
            let key = RowKey::Doc { pid: p, seq }.to_string();
            let stored = sample.iter().find(|stored| stored.key == key).unwrap();
            cloud.honest(stored, &sys.directory).unwrap_err().clause
        };
        let clauses = (if cell.is_some() { clause(1) } else { Clause::NotAVersion }, clause(2));

        // the other readers: typed answers, the same verdict, no panic
        let latest = cloud.latest(p).unwrap();
        assert_eq!(cloud.honest(&latest, &sys.directory).unwrap_err().clause, clauses.1);
        assert_eq!(cloud.version(p, 2), latest.xml.ok());
        assert!(cloud.version(p, 0).is_some(), "the row below the damage still reads");
        assert!(matches!(sys.process_status("p"), Err(WfError::Verify(_))));
        assert_eq!(sys.retrieve_latest(0, "p"), cloud.version(p, 2));
        assert_eq!(cloud.doc_digest().len(), 64);
        // and the next version of such a process would be a full copy
        let (seq, [_, doc]) = cloud.rows_for(p, "<x/>");
        assert_eq!(seq, 3);
        if cloud.version(p, 2).is_none() {
            assert_eq!(doc.value.as_ref(), b"0\n<x/>");
        }
        clauses
    }

    #[test]
    fn a_cell_that_does_not_apply_is_a_broken_link_never_a_panic() {
        let (sys, wires) = three_versions();
        let cell =
            XML.get(sys.clouds[0].pool(), RowKey::Doc { pid: Name::new("p").unwrap(), seq: 1 });
        let Delta { keep, tail } = Delta::parse(cell.as_ref().unwrap().as_bytes()).unwrap();
        assert!(keep > 0 && keep < wires[0].len() && wires[1].ends_with(tail));
        let broken = |link| Clause::BrokenLink(link);
        let dangling = broken(Link::NoRowBelow);

        // `keep` missing, negative, too large for a usize
        for header in ["", "-1\n", "99999999999999999999\n"] {
            let clauses = with_row_1(Some(&format!("{header}{tail}")));
            assert_eq!(clauses, (broken(Link::Unreadable), dangling.clone()), "{header:?}");
        }
        // one past the version below, and far past it: nothing is allocated
        for keep in [wires[0].len() + 1, usize::MAX] {
            let clauses = with_row_1(Some(&Delta { keep, tail }.cell()));
            assert_eq!(clauses, (broken(Link::KeepOutOfRange), dangling.clone()), "{keep}");
        }
        // inside the two bytes of the `ö` every version carries
        let inside = wires[0].find('ö').unwrap() + 1;
        assert!(!wires[0].is_char_boundary(inside));
        let clauses = with_row_1(Some(&Delta { keep: inside, tail }.cell()));
        assert_eq!(clauses, (broken(Link::KeepOutOfRange), dangling.clone()));
        // the middle row deleted: the row above it keeps bytes of nothing
        assert_eq!(with_row_1(None), (Clause::NotAVersion, dangling));
        // a tail that applies and reassembles to no document
        let (row_1, row_2) = with_row_1(Some(&Delta { keep, tail: "<oops" }.cell()));
        assert!(matches!(row_1, Clause::Rejected(e) if matches!(*e, WfError::Parse(_))));
        assert_eq!(row_2, broken(Link::KeepOutOfRange), "cut against the longer, real row 1");
        // `keep` = 0 needs no row below: a full copy is the same version
        let (cloud, row_1) = (&sys.clouds[0], RowKey::Doc { pid: Name::new("p").unwrap(), seq: 1 });
        XML.write(cloud.pool(), row_1, &Delta { keep: 0, tail: &wires[1] }.cell());
        let rows = cloud.sample(None, usize::MAX);
        assert!(rows.iter().all(|row| cloud.honest(row, &sys.directory).is_ok()));
    }
}
