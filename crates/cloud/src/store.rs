//! One member cloud's storage (§4.2): its document pool (HBase in the
//! paper), the write-ahead journal admissions commit through, and the one
//! answer to "is this stored row an honest version?".
//!
//! [`CloudStore`] is the only code of this crate that holds a journal,
//! applies a journaled put, or reads or writes a `doc/`, `seen/`, `todo/`
//! or `initial/` row (the layout is `schema`'s). Three things are written
//! here once:
//!
//! * **the commit path** — [`CloudStore::commit`] is the WAL discipline
//!   (append → apply → crash point → apply → commit) for the primary and
//!   for every replica, and [`CloudStore::replay`] is its recovery twin;
//! * **the read path** — a stored version is a [`Stored`]: its `doc/` row,
//!   written together with the `seen/` row of its bytes
//!   ([`CloudStore::version_rows`]) and judged together with it;
//! * **the verdict** — bytes stored at `doc/<pid>/<seq>` are honest iff the
//!   `seen/` row of their digest names that same `<seq>` *and* the document
//!   they parse to proves `<pid>`. A digest no `seen/` row names is decided
//!   by the full signature pass, and the process must still match. Anything
//!   else is a [`Divergence`] naming the row, the digest and the clause.
//!
//! What the verdict does **not** stop: a superuser who rewrites the `seen/`
//! row together with the `doc/` row can still roll a process back to one of
//! its own earlier, validly signed versions. Closing that needs the stored
//! versions chained to each other (ROADMAP item 5); until then the peer
//! clouds' replicas are the evidence against it.
//!
//! TO-DO consumption and the `initial/` upload and removal are the three
//! mutations that bypass the journal: each is a single-row write, which the
//! pool applies atomically on its own.

use crate::portal::TodoEntry;
use crate::schema::{self, Name, RowKey, DOC_ROWS, SEQ, XML};
use dra4wfms_core::prelude::*;
use dra_docpool::{map_reduce_scan, FleetViews, HTable, Journal, PutOp, TableConfig};
use dra_obs::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stored version as the pool holds it: a `doc/` row.
#[derive(Debug)]
pub(crate) struct Stored {
    /// The row key, `doc/<pid>/<seq:06>` on an honest pool.
    pub key: String,
    /// The row's `doc:xml` cell; `None` when the row lacks it.
    pub xml: Option<String>,
}

/// Why a [`Stored`] row is not an honest version.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Clause {
    /// The key is not `doc/<pid>/<seq>`, or the row has no `doc:xml` cell.
    NotAVersion,
    /// The `seen/` row of these bytes names another version: a rollback, or
    /// a copy of some other row.
    BoundElsewhere(usize),
    /// The bytes do not parse, or no `seen/` row names them and the full
    /// signature pass rejects them.
    Rejected(Box<WfError>),
    /// The document proves another process than the row claims.
    ForeignProcess(String),
}

/// The evidence of a failed [`CloudStore::honest`]: which row, which bytes,
/// which clause of the verdict.
#[derive(Debug)]
pub(crate) struct Divergence {
    pub key: String,
    /// SHA-256 of the bytes judged (of nothing, for a missing cell).
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

/// One member cloud's pool and journal.
pub(crate) struct CloudStore {
    /// Stable cloud name (used in alerts, metrics and outage plans).
    pub name: String,
    pool: Arc<HTable>,
    journal: Journal,
}

impl CloudStore {
    /// An empty cloud named `name`.
    pub(crate) fn new(name: &str) -> CloudStore {
        let pool = HTable::new(TableConfig { max_versions: 4, max_region_rows: 1024 });
        CloudStore { name: name.to_string(), pool: Arc::new(pool), journal: Journal::new() }
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
    /// [`CloudStore::replay`].
    pub(crate) fn commit(
        &self,
        ops: &[PutOp],
        applied_before_check: usize,
        check: impl FnOnce() -> WfResult<()>,
    ) -> WfResult<()> {
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

    // -- stored versions -----------------------------------------------------

    /// The two rows a version is, leading an admission's batch: the `seen/`
    /// row binding the wire bytes' `digest` to `seq` (a pool row, not portal
    /// memory, so duplicate suppression survives snapshot/restore and is
    /// shared by every portal), then the `doc/` row. The primary applies
    /// the first before its crash point: the worst window is "pool claims
    /// stored, document row missing", exactly what replay repairs.
    pub(crate) fn version_rows(
        pid: Name<'_>,
        seq: usize,
        digest: [u8; 32],
        wire: &str,
    ) -> [PutOp; 2] {
        [SEQ.put(RowKey::Seen(digest), seq.to_string()), XML.put(RowKey::Doc { pid, seq }, wire)]
    }

    /// The version the wire bytes of SHA-256 `digest` were admitted as, if
    /// they were: what their `seen/` row names.
    pub(crate) fn seq_of(&self, digest: &[u8; 32]) -> Option<usize> {
        SEQ.get(&self.pool, RowKey::Seen(*digest))?.parse().ok()
    }

    /// The next admission's `seq`: the number of versions stored for `pid`
    /// (parallel AND-split branches have equal CER counts, so the CER count
    /// alone would collide); counted without cloning snapshots.
    pub(crate) fn next_seq(&self, pid: Name<'_>) -> usize {
        self.pool.query_count(&schema::versions_of(pid))
    }

    /// The latest stored version of `pid`.
    pub(crate) fn latest(&self, pid: Name<'_>) -> Option<Stored> {
        let (key, row) = self.pool.query(&schema::versions_of(pid)).rows.pop()?;
        Some(Stored { xml: XML.of(&row), key })
    }

    /// The bytes of version `seq` of `pid`.
    pub(crate) fn version(&self, pid: Name<'_>, seq: usize) -> Option<String> {
        XML.get(&self.pool, RowKey::Doc { pid, seq })
    }

    /// Up to `batch` stored versions in key order, from `cursor` on (from
    /// the first one without a cursor) — a bounded, projected scan.
    pub(crate) fn sample(&self, cursor: Option<&str>, batch: usize, threads: usize) -> Vec<Stored> {
        let from = cursor.unwrap_or(DOC_ROWS);
        let scan = schema::all_docs().starting_at(from).limit(batch).threads(threads);
        let rows = self.pool.query(&scan).rows;
        rows.into_iter().map(|(key, row)| Stored { xml: XML.of(&row), key }).collect()
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
        let (Some(RowKey::Doc { pid, seq }), Some(xml)) = (RowKey::parse(&stored.key), xml) else {
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
    pub(crate) fn progress_by_scan(&self, threads: usize) -> BTreeMap<String, u64> {
        map_reduce_scan(
            &self.pool,
            &schema::doc_keys().threads(threads),
            threads,
            |key, _| match RowKey::parse(key) {
                Some(RowKey::Doc { pid, seq }) => vec![(pid.as_str().to_string(), seq as u64)],
                _ => vec![],
            },
            |_, seqs| seqs.iter().copied().max().unwrap_or(0) + 1,
        )
    }

    /// SHA-256 over every `doc/` row, keys and bytes, in key order.
    pub(crate) fn doc_digest(&self) -> String {
        // the typed scan returns rows in key order already
        let mut buf = String::new();
        for (key, row) in self.pool.query(&schema::all_docs()).rows {
            if let Some(xml) = XML.of(&row) {
                buf.push_str(&key);
                buf.push('\0');
                buf.push_str(&xml);
                buf.push('\0');
            }
        }
        dra_crypto::hex::encode(&dra_crypto::sha256(buf.as_bytes()))
    }

    /// Fast content fingerprint of the `doc/` rows.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.pool.fingerprint(DOC_ROWS)
    }

    /// The whole pool, serialized.
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        self.pool.export_snapshot()
    }

    /// Cold start: the views are memory, the pool is truth.
    pub(crate) fn seed_views(&self, views: &FleetViews) {
        schema::seed_views(views, &self.pool);
    }

    // -- TO-DO and initial rows ----------------------------------------------

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

    /// Remove a consumed TO-DO row or a started process's parked initial
    /// document; whether this cloud held it. Unjournaled.
    pub(crate) fn remove(&self, row: RowKey<'_>) -> bool {
        self.pool.delete_row(&row.to_string())
    }

    /// Park an uploaded initial document. Unjournaled.
    pub(crate) fn put_initial(&self, pid: Name<'_>, xml: &str) {
        XML.write(&self.pool, RowKey::Initial(pid), xml);
    }

    /// The parked initial document of `pid`.
    pub(crate) fn initial(&self, pid: Name<'_>) -> Option<String> {
        XML.get(&self.pool, RowKey::Initial(pid))
    }

    /// The processes with a parked initial document.
    pub(crate) fn pending_initials(&self) -> Vec<String> {
        let rows = self.pool.query(&schema::initials()).rows;
        rows.iter()
            .filter_map(|(key, _)| match RowKey::parse(key)? {
                RowKey::Initial(pid) => Some(pid.as_str().to_string()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::NetworkSim;
    use crate::portal::CloudSystem;

    fn batch() -> Vec<PutOp> {
        let p = Name::new("p").unwrap();
        let mut ops =
            CloudStore::version_rows(p, 0, dra_crypto::sha256(b"<doc/>"), "<doc/>").to_vec();
        ops.push(crate::schema::STATUS.put(RowKey::Meta(p), "running"));
        ops.push(SEQ.put(RowKey::todo("alice", "p", "submit").unwrap(), "0"));
        ops
    }

    /// Commit `batch()` on a fresh cloud, dying at the crash point when
    /// `torn_at` says how many rows land first; then restart. Returns the
    /// whole-pool fingerprint and the rows the caller learnt were applied:
    /// from the commit returning `Ok`, or from the replay's observer.
    fn commit_and_restart(torn_at: Option<usize>) -> (u64, Vec<PutOp>) {
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
        (cloud.pool.fingerprint(""), observed)
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
            sys.store_document(0, &doc.to_xml_string(), &submit).unwrap();
            let recv = aea.receive(doc.to_xml_string(), "submit").unwrap();
            let done = aea.complete(&recv, &[("amount".into(), "1".into())]).unwrap();
            sys.store_document(0, &done.document.to_xml_string(), &done.route).unwrap();
        }
        let cloud = &sys.clouds[0];
        let (p, q) = (Name::new("p").unwrap(), Name::new("q").unwrap());
        let clause = |stored: &Stored| cloud.honest(stored, &dir).unwrap_err().clause;
        let at = |key: &str, xml: Option<String>| Stored { key: key.to_string(), xml };

        let latest = cloud.latest(p).unwrap();
        assert_eq!(latest.key, "doc/p/000001");
        assert_eq!(cloud.honest(&latest, &dir).unwrap().process_id().unwrap(), "p");

        // p's own version 0 in version 1's row: a rollback
        assert_eq!(clause(&at("doc/p/000001", cloud.version(p, 0))), Clause::BoundElsewhere(0));
        // q's version 1 in p's row: same seq, another process
        let foreign = clause(&at("doc/p/000001", cloud.version(q, 1)));
        assert_eq!(foreign, Clause::ForeignProcess("q".into()));
        // flipped bytes: no seen/ row names them, the signature pass decides
        let flipped = crate::federation::tamper_bytes(latest.xml.as_deref().unwrap());
        assert!(matches!(clause(&at(&latest.key, Some(flipped))), Clause::Rejected(_)));
        assert_eq!(clause(&at(&latest.key, None)), Clause::NotAVersion);
        assert_eq!(clause(&at("doc/p", latest.xml.clone())), Clause::NotAVersion);

        // genuine bytes that were never admitted pass on their signatures,
        // under their own process only
        let r = DraDocument::new_initial_with_pid(&def, &pol, &designer, "r").unwrap();
        let unseen = Some(r.to_xml_string());
        assert!(cloud.honest(&at("doc/r/000000", unseen.clone()), &dir).is_ok());
        assert_eq!(clause(&at("doc/p/000002", unseen)), Clause::ForeignProcess("r".into()));

        let err = WfError::from(cloud.honest(&at(&latest.key, None), &dir).unwrap_err());
        assert!(matches!(&err, WfError::Verify(m) if m.contains("doc/p/000001")), "{err}");
    }
}
