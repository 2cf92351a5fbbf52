//! A length-prefixed write-ahead journal for multi-row pool updates.
//!
//! A portal's admission writes several rows that must land atomically: the
//! `seen/<digest>` idempotency row, the document row, meta rows and TO-DO
//! notifications. The pool itself (like HBase) only guarantees single-row
//! atomicity, so a portal that dies between two puts would leave the pool
//! claiming "these bytes are stored" while the document row is missing —
//! silent document loss behind a `duplicate` ack.
//!
//! The journal closes that window with the classic WAL discipline:
//!
//! 1. [`Journal::append`] the full batch of puts (the *intent*),
//! 2. apply the puts to the pool in any order, crashes allowed anywhere,
//! 3. [`Journal::commit_through`] the record once every put landed.
//!
//! Recovery ([`Journal::replay_into_with`]) re-applies every record past the
//! committed watermark. Replay is idempotent: a put sets its column to one
//! value ([`PutOp::apply`]), so re-applying one the dying portal already
//! reached leaves the row as it was.
//!
//! The serialized form ([`Journal::export`] / [`Journal::import`]) is
//! length-prefixed throughout, like the pool snapshot format. A torn final
//! record — the bytes a crash cut off mid-append — is dropped on import
//! rather than rejected: an incomplete intent was by definition never
//! applied, so discarding it is the correct recovery.

use crate::cluster::HTable;
use crate::persist::{get_str, get_u32, get_u64, put_bytes, put_u32, take, PersistError};
use dra_obs::{stage, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 8] = b"DRAWAL01";

/// One pending cell write inside a journaled batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PutOp {
    /// Row key.
    pub key: String,
    /// Column family.
    pub family: String,
    /// Column qualifier.
    pub qualifier: String,
    /// Cell value.
    pub value: Arc<[u8]>,
}

impl PutOp {
    /// Build a put operation.
    pub fn new(
        key: impl Into<String>,
        family: impl Into<String>,
        qualifier: impl Into<String>,
        value: impl Into<Vec<u8>>,
    ) -> PutOp {
        PutOp {
            key: key.into(),
            family: family.into(),
            qualifier: qualifier.into(),
            value: Arc::from(value.into()),
        }
    }

    /// Apply this put: set the column to `value`, sharing its bytes.
    pub fn apply(&self, table: &HTable) {
        table.put_shared(&self.key, &self.family, &self.qualifier, Arc::clone(&self.value));
    }
}

struct JournalState {
    records: Vec<Vec<PutOp>>,
    /// Records `[0, committed)` are fully applied to the pool.
    committed: usize,
}

/// The bytes [`Journal::export`] writes for one record of `ops`: its length
/// prefix, its op count, and each op's four length-prefixed fields.
pub fn record_bytes(ops: &[PutOp]) -> usize {
    let op = |op: &PutOp| 16 + op.key.len() + op.family.len() + op.qualifier.len() + op.value.len();
    8 + ops.iter().map(op).sum::<usize>()
}

/// The write-ahead journal: an append-only record log with a committed
/// watermark. Thread-safe; shared by every portal of a deployment the same
/// way the pool is.
pub struct Journal {
    state: Mutex<JournalState>,
    replayed: AtomicU64,
    /// Span recorder for commit/replay events. Interior-mutable because the
    /// journal is shared behind an `Arc` by the time a deployment decides to
    /// trace; set via [`Journal::set_tracer`].
    tracer: Mutex<Tracer>,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal {
            state: Mutex::new(JournalState { records: Vec::new(), committed: 0 }),
            replayed: AtomicU64::new(0),
            tracer: Mutex::new(Tracer::disabled()),
        }
    }

    /// Record `journal:commit` / `journal:replay` spans into `tracer`.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock().unwrap_or_else(|e| e.into_inner()) = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tracer.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Append a batch as one record; returns its index for
    /// [`Journal::commit_through`].
    pub fn append(&self, ops: Vec<PutOp>) -> usize {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.records.push(ops);
        state.records.len() - 1
    }

    /// Mark record `idx` (and everything before it) fully applied.
    pub fn commit_through(&self, idx: usize) {
        {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let next = (idx + 1).min(state.records.len());
            state.committed = state.committed.max(next);
        }
        let mut span = self.tracer().span(stage::JOURNAL_COMMIT).actor("journal");
        span.attr("record", idx);
        span.end();
    }

    /// Total records appended.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records appended but not yet committed — what a restart would replay.
    pub fn uncommitted(&self) -> usize {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.records.len() - state.committed
    }

    /// Total records replayed by [`Journal::replay_into_with`] over this
    /// journal's lifetime.
    pub fn replayed_records(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Recovery: re-apply every uncommitted record, in append
    /// order, then advance the watermark. Returns how many records were
    /// replayed (0 when the last writer committed cleanly). `observe` is
    /// called for every replayed [`PutOp`] after it lands: recovery paths use
    /// it to re-derive side effects that only the dying writer knew about —
    /// e.g. a portal re-emitting scheduler activations for replayed `todo/`
    /// rows.
    pub fn replay_into_with(&self, table: &HTable, mut observe: impl FnMut(&PutOp)) -> usize {
        let mut span = self.tracer().span(stage::JOURNAL_REPLAY).actor("journal");
        let pending = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let pending = state.records.len() - state.committed;
            for record in &state.records[state.committed..] {
                for op in record {
                    op.apply(table);
                    observe(op);
                }
            }
            state.committed = state.records.len();
            pending
        };
        self.replayed.fetch_add(pending as u64, Ordering::Relaxed);
        span.attr("replayed", pending);
        span.end();
        pending
    }

    /// Serialize the journal: magic, committed watermark, then one
    /// length-prefixed record per batch ([`record_bytes`] each).
    pub fn export(&self) -> Vec<u8> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&(state.committed as u64).to_be_bytes());
        for record in &state.records {
            // the body: everything of the record behind its own length prefix
            put_u32(&mut buf, (record_bytes(record) - 4) as u32);
            put_u32(&mut buf, record.len() as u32);
            for op in record {
                for field in [op.key.as_bytes(), op.family.as_bytes(), op.qualifier.as_bytes()] {
                    put_bytes(&mut buf, field);
                }
                put_bytes(&mut buf, &op.value);
            }
        }
        buf
    }

    /// Deserialize a journal. A torn final record (length prefix promising
    /// more bytes than remain — the crash-mid-append case) is silently
    /// dropped; corruption *inside* a complete record is an error. The
    /// committed watermark is clamped to the records that survived.
    pub fn import(data: &[u8]) -> Result<Journal, PersistError> {
        let mut buf = data;
        if buf.len() < MAGIC.len() + 8 {
            return Err(PersistError::Truncated);
        }
        if take(&mut buf, MAGIC.len())? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let committed = get_u64(&mut buf)? as usize;
        let mut records = Vec::new();
        // a torn length prefix or record body (or the clean end) ends the
        // log: a torn intent never fully landed
        while let Ok(len) = get_u32(&mut buf) {
            let Ok(mut body) = take(&mut buf, len as usize) else { break };
            records.push(parse_record(&mut body)?);
        }
        let committed = committed.min(records.len());
        Ok(Journal {
            state: Mutex::new(JournalState { records, committed }),
            replayed: AtomicU64::new(0),
            tracer: Mutex::new(Tracer::disabled()),
        })
    }
}

fn parse_record(body: &mut &[u8]) -> Result<Vec<PutOp>, PersistError> {
    let nops = get_u32(body)? as usize;
    // the count is input: reserve for no more ops than the bytes left could
    // encode (four length prefixes each), whatever it claims
    let mut ops = Vec::with_capacity(nops.min(body.len() / 16));
    for _ in 0..nops {
        let key = get_str(body)?;
        let family = get_str(body)?;
        let qualifier = get_str(body)?;
        let len = get_u32(body)? as usize;
        let value = Arc::from(take(body, len)?);
        ops.push(PutOp { key, family, qualifier, value });
    }
    if !body.is_empty() {
        return Err(PersistError::TrailingGarbage);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(i: usize) -> Vec<PutOp> {
        vec![
            PutOp::new(format!("seen/{i}"), "meta", "seq", i.to_string()),
            PutOp::new(format!("doc/p/{i:06}"), "doc", "xml", format!("<doc v=\"{i}\"/>")),
        ]
    }

    #[test]
    fn replay_applies_only_uncommitted_records() {
        let table = HTable::default();
        let journal = Journal::new();
        let a = journal.append(batch(0));
        for op in &batch(0) {
            op.apply(&table);
        }
        journal.commit_through(a);
        journal.append(batch(1)); // intent logged, never applied — the crash
        assert_eq!(journal.uncommitted(), 1);

        assert_eq!(journal.replay_into_with(&table, |_| {}), 1);
        assert_eq!(table.get_str("doc/p/000001", "doc", "xml").unwrap(), "<doc v=\"1\"/>");
        assert_eq!(journal.uncommitted(), 0);
        assert_eq!(journal.replayed_records(), 1);
        // a second recovery finds nothing to do
        assert_eq!(journal.replay_into_with(&table, |_| {}), 0);
    }

    #[test]
    fn replay_is_idempotent_on_partially_applied_batches() {
        let table = HTable::default();
        let journal = Journal::new();
        let ops = batch(0);
        journal.append(ops.clone());
        // the portal died after applying only the first op
        ops[0].apply(&table);

        journal.replay_into_with(&table, |_| {});
        // the pool is the one a clean apply leaves
        let clean = HTable::default();
        ops.iter().for_each(|op| op.apply(&clean));
        assert_eq!(table.export_snapshot(), clean.export_snapshot());
        assert_eq!(table.get_str("doc/p/000000", "doc", "xml").unwrap(), "<doc v=\"0\"/>");
    }

    #[test]
    fn export_import_roundtrip_preserves_watermark() {
        let journal = Journal::new();
        let a = journal.append(batch(0));
        journal.append(batch(1));
        journal.commit_through(a);

        let restored = Journal::import(&journal.export()).unwrap();
        let records = record_bytes(&batch(0)) + record_bytes(&batch(1));
        assert_eq!(journal.export().len(), MAGIC.len() + 8 + records, "what a replica is charged");
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.uncommitted(), 1);
        let table = HTable::default();
        assert_eq!(restored.replay_into_with(&table, |_| {}), 1);
        assert!(table.get("doc/p/000000", "doc", "xml").is_none(), "committed not replayed");
        assert!(table.get("doc/p/000001", "doc", "xml").is_some());
    }

    #[test]
    fn torn_final_record_is_dropped_not_fatal() {
        let journal = Journal::new();
        journal.append(batch(0));
        journal.append(batch(1));
        let full = journal.export();
        // cut into the final record's body: crash mid-append
        for cut in [full.len() - 1, full.len() - 10] {
            let restored = Journal::import(&full[..cut]).unwrap();
            assert_eq!(restored.len(), 1, "torn tail dropped at cut {cut}");
        }
        // cutting into the header is real corruption
        assert!(Journal::import(&full[..4]).is_err());
        assert!(Journal::import(b"NOTAWAL0\0\0\0\0\0\0\0\0").is_err());
    }

    #[test]
    fn hostile_op_count_is_truncation_not_an_allocation() {
        // a complete 4-byte record whose body claims u32::MAX ops
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&4u32.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(Journal::import(&bytes), Err(PersistError::Truncated)));
    }

    #[test]
    fn malformed_journals_are_refused_by_kind() {
        let mut spliced = MAGIC.to_vec();
        spliced.extend_from_slice(&0u64.to_be_bytes());
        let ops = [PutOp::new("k", "f", "q", "v")];
        put_u32(&mut spliced, record_bytes(&ops) as u32 - 4 + 3); // three bytes too many
        put_u32(&mut spliced, 1);
        for field in ["k", "f", "q", "v"] {
            put_bytes(&mut spliced, field.as_bytes());
        }
        spliced.extend_from_slice(b"xyz");
        let cases: [(&[u8], PersistError); 3] = [
            (b"NOTAWAL0\0\0\0\0\0\0\0\0", PersistError::BadMagic),
            (b"DRAWAL01\0\0\0", PersistError::Truncated),
            (&spliced, PersistError::TrailingGarbage),
        ];
        for (bytes, want) in cases {
            assert_eq!(Journal::import(bytes).err(), Some(want));
        }
    }

    #[test]
    fn committed_watermark_clamped_to_surviving_records() {
        let journal = Journal::new();
        let a = journal.append(batch(0));
        journal.commit_through(a);
        let mut bytes = journal.export();
        // drop the (committed) record's bytes, keeping the watermark of 1
        bytes.truncate(MAGIC.len() + 8 + 2);
        let restored = Journal::import(&bytes).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.uncommitted(), 0);
    }

    #[test]
    fn commit_through_out_of_range_is_clamped() {
        let journal = Journal::new();
        journal.append(batch(0));
        journal.commit_through(99);
        assert_eq!(journal.uncommitted(), 0);
    }
}
