//! The document-vs-trace differential oracle.
//!
//! DRA4WfMS has two records of an execution: the **signed document** (the
//! authoritative one — every CER is cascade-signed, every timestamp
//! TFC-attested) and the **observed trace** (whatever the runtime's
//! [`Tracer`](dra_obs::Tracer) recorded while work happened). The trace is
//! not trusted; nothing signs it. [`reconcile`] rebuilds the execution
//! timeline from the document alone — CERs, the predecessors each signed
//! over, participants, TFC timestamps — and checks the trace against it:
//!
//! * every proven execution has exactly one successful `hop` span, and the
//!   reverse;
//! * each hop comes after the hops of the executions its CER signed over
//!   (causal order: concurrent branches may run in any order, whatever
//!   order the merged cascade lists them in);
//! * each hop's recorded actor is the participant the document proves;
//! * every TFC timestamp in the document was witnessed by a `tfc:timestamp`
//!   span whose virtual-time window lies inside the successful hop that
//!   produced it.
//!
//! Crashed hop attempts (spans ended with the `"crash"` outcome) are
//! expected noise — recovery re-runs the hop — and are ignored; only
//! successful hops must match the cascade one-to-one.

use crate::amendment::{is_amendment_key, EffectiveDefinition};
use crate::document::{CerKey, CerView, DraDocument, PredRef};
use crate::error::WfError;
use crate::model::WorkflowDefinition;
use crate::semantics::{and_join_missing, cancelled_before, or_join_early};
use dra_obs::event::{TraceEvent, OUTCOME_OK};
use dra_obs::stage;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A reconciliation failure: the observed trace is inconsistent with what
/// the document proves. Each variant pins the exact divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReconcileError {
    /// The document itself could not be read (parse/extraction failure).
    Document(String),
    /// The document proves an execution the trace never completed.
    MissingFromTrace {
        /// Index into the document's cascade.
        position: usize,
        /// The proven execution with no successful hop span.
        expected: CerKey,
    },
    /// The trace claims a successful hop the document does not prove.
    UnprovenExecution {
        /// Index into the successful-hop sequence.
        position: usize,
        /// The claimed activity.
        activity: String,
        /// The claimed iteration.
        iter: u32,
    },
    /// A hop ran before the hop of an execution its CER signed over: the
    /// trace breaks the causal order the document proves.
    OrderMismatch {
        /// Index into the successful-hop sequence.
        position: usize,
        /// The signed-over execution, which the document proves ran first.
        document: CerKey,
        /// What the trace observed at this position.
        trace: CerKey,
    },
    /// The trace attributes the hop to a different identity than the
    /// document's cascade-signed participant.
    ParticipantMismatch {
        /// The execution in question.
        key: CerKey,
        /// The participant the document proves.
        document: String,
        /// The actor the trace recorded.
        trace: String,
    },
    /// The document carries a TFC timestamp no `tfc:timestamp` span
    /// witnessed for that execution.
    TimestampUnwitnessed {
        /// The execution in question.
        key: CerKey,
        /// The document's timestamp (ms).
        timestamp: u64,
    },
    /// A `tfc:timestamp` span exists for the execution but drew a different
    /// value than the document embeds.
    TimestampMismatch {
        /// The execution in question.
        key: CerKey,
        /// The document's timestamp (ms).
        document: u64,
        /// The (closest) witnessed timestamp (ms).
        trace: u64,
    },
    /// The witnessing `tfc:timestamp` span falls outside the virtual-time
    /// bounds of the successful hop that produced the execution.
    TimestampOutsideHop {
        /// The execution in question.
        key: CerKey,
        /// The witness span's `[start, end]` in virtual µs.
        witness_us: (u64, u64),
        /// The successful hop's `[start, end]` in virtual µs.
        hop_us: (u64, u64),
    },
    /// The document proves an execution of an activity whose pending work a
    /// fired cancellation region had already withdrawn: the hop ran after
    /// its region was cancelled.
    CancelledExecution {
        /// Index into the document's cascade.
        position: usize,
        /// The forbidden execution.
        key: CerKey,
        /// The trigger whose completion cancelled the region.
        trigger: String,
    },
    /// A join fired without a branch the definition requires: an AND-join
    /// executed before some incoming branch delivered, or a synchronizing
    /// merge (OR-join) fired while a branch was still to deliver.
    JoinMissingBranch {
        /// Index into the document's cascade.
        position: usize,
        /// The join execution.
        join: CerKey,
        /// The incoming branch the join did not wait for.
        branch: String,
    },
}

impl fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconcileError::Document(e) => write!(f, "document unreadable: {e}"),
            ReconcileError::MissingFromTrace { position, expected } => write!(
                f,
                "cascade position {position}: document proves {expected} but the trace has no successful hop for it"
            ),
            ReconcileError::UnprovenExecution { position, activity, iter } => write!(
                f,
                "hop position {position}: trace claims {activity}#{iter} succeeded but the document proves no such execution"
            ),
            ReconcileError::OrderMismatch { position, document, trace } => write!(
                f,
                "cascade position {position}: document proves {document} but the trace observed {trace} there"
            ),
            ReconcileError::ParticipantMismatch { key, document, trace } => write!(
                f,
                "{key}: document proves participant '{document}' but the trace attributes the hop to '{trace}'"
            ),
            ReconcileError::TimestampUnwitnessed { key, timestamp } => write!(
                f,
                "{key}: document embeds TFC timestamp {timestamp}ms but no tfc:timestamp span witnessed it"
            ),
            ReconcileError::TimestampMismatch { key, document, trace } => write!(
                f,
                "{key}: document embeds TFC timestamp {document}ms but the trace witnessed {trace}ms"
            ),
            ReconcileError::TimestampOutsideHop { key, witness_us, hop_us } => write!(
                f,
                "{key}: tfc:timestamp witness [{}..{}]µs lies outside its successful hop [{}..{}]µs",
                witness_us.0, witness_us.1, hop_us.0, hop_us.1
            ),
            ReconcileError::CancelledExecution { position, key, trigger } => write!(
                f,
                "cascade position {position}: {key} executed although completion of '{trigger}' had cancelled its region"
            ),
            ReconcileError::JoinMissingBranch { position, join, branch } => write!(
                f,
                "cascade position {position}: join {join} fired without incoming branch '{branch}'"
            ),
        }
    }
}

impl std::error::Error for ReconcileError {}

/// Summary of a successful reconciliation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Proven executions matched one-to-one with successful hop spans.
    pub hops_matched: usize,
    /// Document timestamps matched to `tfc:timestamp` witnesses.
    pub timestamps_witnessed: usize,
    /// Crashed hop attempts in the trace (ignored by the matching).
    pub crashed_attempts: usize,
}

/// Check the observed `trace` against the execution timeline the signed
/// `document` proves. See the module docs for the exact guarantees.
///
/// The document is the oracle: callers that need the oracle itself to be
/// trustworthy should verify it first ([`crate::verify::Verifier`]).
pub fn reconcile(
    trace: &[TraceEvent],
    document: &DraDocument,
) -> Result<ReconcileReport, ReconcileError> {
    let doc_err = |e: WfError| ReconcileError::Document(e.to_string());
    let pid = document.process_id().map_err(doc_err)?;
    let cers = document.cers().map_err(doc_err)?;
    let base = EffectiveDefinition::base(document).map_err(doc_err)?;

    // The cascade itself must respect the definition's join and
    // cancellation semantics: forged instances can reorder or insert CERs
    // the honest scheduler could never have produced.
    check_cascade_semantics(document, &cers, &base)?;

    let hops: Vec<&TraceEvent> = trace
        .iter()
        .filter(|e| e.stage == stage::HOP && e.process_id == pid && e.outcome == OUTCOME_OK)
        .collect();
    let crashed_attempts = trace
        .iter()
        .filter(|e| e.stage == stage::HOP && e.process_id == pid && e.outcome != OUTCOME_OK)
        .count();

    // One successful hop per proven execution, and the reverse: `hop_at[i]`
    // is the position of CER `i`'s hop (the first CER of a key wins, as in
    // document-order search).
    let by_key: HashMap<&CerKey, usize> =
        cers.iter().enumerate().rev().map(|(at, c)| (&c.key, at)).collect();
    let (mut hop_at, mut cer_at) = (vec![None; cers.len()], Vec::with_capacity(hops.len()));
    for (position, hop) in hops.iter().enumerate() {
        match by_key.get(&CerKey::new(hop.activity.clone(), hop.iter)) {
            Some(&at) if hop_at[at].is_none() => {
                hop_at[at] = Some(position);
                cer_at.push(at);
            }
            _ => {
                return Err(ReconcileError::UnprovenExecution {
                    position,
                    activity: hop.activity.clone(),
                    iter: hop.iter,
                })
            }
        }
    }
    if let Some(position) = hop_at.iter().position(Option::is_none) {
        return Err(ReconcileError::MissingFromTrace {
            position,
            expected: cers[position].key.clone(),
        });
    }
    let hop_at: Vec<usize> = hop_at.into_iter().flatten().collect();

    // Causal order: each hop comes after the hops of the executions it
    // signed over, and is attributed to the participant who signed.
    for (position, (&at, hop)) in cer_at.iter().zip(&hops).enumerate() {
        let cer = &cers[at];
        for pred in causal_preds(&cers, at, &base.def) {
            if by_key.get(pred).is_some_and(|&p| hop_at[p] > position) {
                return Err(ReconcileError::OrderMismatch {
                    position,
                    document: pred.clone(),
                    trace: cer.key.clone(),
                });
            }
        }
        if hop.actor != cer.participant {
            return Err(ReconcileError::ParticipantMismatch {
                key: cer.key.clone(),
                document: cer.participant.clone(),
                trace: hop.actor.clone(),
            });
        }
    }

    // Timestamps within hop bounds: every TFC timestamp the document embeds
    // must have been witnessed by a tfc:timestamp span inside the successful
    // hop that produced it.
    let mut timestamps_witnessed = 0;
    for (cer, &position) in cers.iter().zip(&hop_at) {
        let Some(doc_ts) = cer.timestamp_millis() else { continue };
        let (key, hop) = (&cer.key, hops[position]);
        let witnesses: Vec<&TraceEvent> = trace
            .iter()
            .filter(|e| {
                e.stage == stage::TFC_TIMESTAMP
                    && e.process_id == pid
                    && e.activity == key.activity
                    && e.iter == key.iter
            })
            .collect();
        let matching: Vec<&&TraceEvent> = witnesses
            .iter()
            .filter(|e| e.attr("ts_ms").and_then(|v| v.parse::<u64>().ok()) == Some(doc_ts))
            .collect();
        let Some(last) = matching.last() else {
            return Err(match witnesses.last().and_then(|e| e.attr("ts_ms")?.parse().ok()) {
                Some(trace_ts) => ReconcileError::TimestampMismatch {
                    key: key.clone(),
                    document: doc_ts,
                    trace: trace_ts,
                },
                None => {
                    ReconcileError::TimestampUnwitnessed { key: key.clone(), timestamp: doc_ts }
                }
            });
        };
        if !matching.iter().any(|e| e.start_us >= hop.start_us && e.end_us <= hop.end_us) {
            return Err(ReconcileError::TimestampOutsideHop {
                key: key.clone(),
                witness_us: (last.start_us, last.end_us),
                hop_us: (hop.start_us, hop.end_us),
            });
        }
        timestamps_witnessed += 1;
    }

    Ok(ReconcileReport { hops_matched: cers.len(), timestamps_witnessed, crashed_attempts })
}

/// The executions CER `at` of the cascade signed over: the CERs its
/// `preds` name. A CER that names only `Def` claims no predecessor; it is
/// held to what an honest executor would have signed — the latest earlier
/// CER of each control-flow predecessor — which only differs in a
/// hand-built cascade.
fn causal_preds<'c>(
    cers: &'c [CerView<'_>],
    at: usize,
    def: &WorkflowDefinition,
) -> Vec<&'c CerKey> {
    let signed = cers[at].preds.iter().filter_map(|p| match p {
        PredRef::Cer(key) => Some(key),
        PredRef::Def => None,
    });
    let signed: Vec<&CerKey> = signed.collect();
    if !signed.is_empty() {
        return signed;
    }
    let latest = |a: &&String| {
        cers[..at].iter().map(|c| &c.key).filter(|k| k.activity == **a).max_by_key(|k| k.iter)
    };
    def.incoming(&cers[at].key.activity).iter().filter_map(latest).collect()
}

/// Document-side semantic checks over the cascade, by the rules of
/// [`crate::semantics`]: no CER may follow a fired cancellation of its
/// region, AND-joins must have every incoming branch delivered before they
/// fire, and OR-joins must not leave a branch that delivers only after the
/// merge. Amendments are folded in document order, exactly as verification
/// does.
fn check_cascade_semantics(
    document: &DraDocument,
    cers: &[CerView<'_>],
    base: &Arc<EffectiveDefinition>,
) -> Result<(), ReconcileError> {
    use crate::flow::DocFieldReader;

    let doc_err = |e: WfError| ReconcileError::Document(e.to_string());
    let mut effective = Arc::clone(base);
    let reader = DocFieldReader::public(document);

    for (idx, cer) in cers.iter().enumerate() {
        if is_amendment_key(&cer.key) {
            effective = effective.amended(cer).map_err(doc_err)?;
            continue;
        }
        let eff_def = &effective.def;
        let act = &cer.key.activity;
        if eff_def.activity(act).is_err() {
            continue; // unknown activity is a verification failure, not ours
        }
        let (before, after) = (&cers[..idx], &cers[idx + 1..]);
        let ran = |part: &[CerView<'_>], a: &str| part.iter().any(|c| c.key.activity == a);

        if let Some(trigger) = cancelled_before(eff_def, act, |a| ran(before, a), &reader) {
            return Err(ReconcileError::CancelledExecution {
                position: idx,
                key: cer.key.clone(),
                trigger: trigger.clone(),
            });
        }

        let prefix =
            |a: &str| Ok(before.iter().filter(|c| c.key.activity == a).map(|c| c.key.iter).max());
        let missing = match and_join_missing(eff_def, act, prefix).map_err(doc_err)? {
            Some(branch) => Some(branch),
            None => or_join_early(eff_def, act, |a| ran(before, a), |a| ran(after, a))
                .map_err(doc_err)?,
        };
        if let Some(branch) = missing {
            return Err(ReconcileError::JoinMissingBranch {
                position: idx,
                join: cer.key.clone(),
                branch: branch.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Credentials;
    use crate::model::WorkflowDefinition;
    use crate::policy::SecurityPolicy;
    use dra_obs::event::OUTCOME_CRASH;
    use dra_obs::Tracer;
    use dra_xml::Element;

    /// A two-step document: A#0 by peter (TFC timestamp 100), B#0 by amy
    /// (timestamp 250). Unsigned — reconcile reads structure, not trust.
    fn fixture_doc() -> DraDocument {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("rec", "designer")
            .simple_activity("A", "peter", &[])
            .simple_activity("B", "amy", &[])
            .flow("A", "B")
            .flow_end("B")
            .build()
            .unwrap();
        let mut doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid-r")
                .unwrap();
        for (act, who, ts) in [("A", "peter", "100"), ("B", "amy", "250")] {
            doc.push_cer(
                Element::new("CER")
                    .attr("activity", act)
                    .attr("iter", "0")
                    .attr("participant", who)
                    .attr("preds", "Def")
                    .child(Element::new("Result"))
                    .child(Element::new("Timestamp").attr("time", ts).attr("by", "TFC")),
            )
            .unwrap();
        }
        doc
    }

    fn hop(start: u64, end: u64, actor: &str, act: &str, outcome: &str) -> TraceEvent {
        TraceEvent {
            seq: 0,
            start_us: start,
            end_us: end,
            stage: stage::HOP.into(),
            actor: actor.into(),
            process_id: "pid-r".into(),
            activity: act.into(),
            iter: 0,
            outcome: outcome.into(),
            attrs: vec![],
        }
    }

    fn ts_witness(start: u64, end: u64, act: &str, ts_ms: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            start_us: start,
            end_us: end,
            stage: stage::TFC_TIMESTAMP.into(),
            actor: "TFC".into(),
            process_id: "pid-r".into(),
            activity: act.into(),
            iter: 0,
            outcome: OUTCOME_OK.into(),
            attrs: vec![("ts_ms".into(), ts_ms.to_string()), ("reused".into(), "fresh".into())],
        }
    }

    fn honest_trace() -> Vec<TraceEvent> {
        let t = Tracer::sequential();
        for e in [
            hop(0, 10, "peter", "A", OUTCOME_OK),
            ts_witness(2, 3, "A", 100),
            hop(10, 20, "amy", "B", OUTCOME_OK),
            ts_witness(12, 13, "B", 250),
        ] {
            t.record_event(e);
        }
        // interleave order: keep witnesses inside their hops
        let mut evs = t.events();
        evs.swap(0, 1); // seq order is irrelevant to reconcile; slice order of hops is
        evs.swap(0, 1);
        evs
    }

    #[test]
    fn honest_trace_reconciles() {
        let report = reconcile(&honest_trace(), &fixture_doc()).unwrap();
        assert_eq!(report.hops_matched, 2);
        assert_eq!(report.timestamps_witnessed, 2);
        assert_eq!(report.crashed_attempts, 0);
    }

    #[test]
    fn crashed_attempts_are_ignored() {
        let mut trace = honest_trace();
        trace.insert(0, hop(0, 1, "peter", "A", OUTCOME_CRASH));
        let report = reconcile(&trace, &fixture_doc()).unwrap();
        assert_eq!(report.crashed_attempts, 1);
    }

    #[test]
    fn foreign_process_events_are_ignored() {
        let mut trace = honest_trace();
        let mut alien = hop(0, 1, "zoe", "Z", OUTCOME_OK);
        alien.process_id = "pid-other".into();
        trace.push(alien);
        assert!(reconcile(&trace, &fixture_doc()).is_ok());
    }

    #[test]
    fn reorder_detected() {
        let mut trace = honest_trace();
        // swap the two successful hops
        let (a, b) = (
            trace.iter().position(|e| e.stage == stage::HOP && e.activity == "A").unwrap(),
            trace.iter().position(|e| e.stage == stage::HOP && e.activity == "B").unwrap(),
        );
        trace.swap(a, b);
        let err = reconcile(&trace, &fixture_doc()).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::OrderMismatch {
                position: 0,
                document: CerKey::new("A", 0),
                trace: CerKey::new("B", 0),
            }
        );
        assert!(err.to_string().contains("cascade position 0"));
    }

    #[test]
    fn dropped_hop_detected() {
        let mut trace = honest_trace();
        trace.retain(|e| !(e.stage == stage::HOP && e.activity == "A"));
        let err = reconcile(&trace, &fixture_doc()).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::MissingFromTrace { position: 0, expected: CerKey::new("A", 0) }
        );
    }

    #[test]
    fn forged_participant_detected() {
        let mut trace = honest_trace();
        for e in trace.iter_mut() {
            if e.stage == stage::HOP && e.activity == "B" {
                e.actor = "mallory".into();
            }
        }
        let err = reconcile(&trace, &fixture_doc()).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::ParticipantMismatch {
                key: CerKey::new("B", 0),
                document: "amy".into(),
                trace: "mallory".into(),
            }
        );
    }

    #[test]
    fn unproven_execution_detected() {
        let mut trace = honest_trace();
        trace.push(hop(20, 30, "zoe", "Z", OUTCOME_OK));
        let err = reconcile(&trace, &fixture_doc()).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::UnprovenExecution { position: 2, activity: "Z".into(), iter: 0 }
        );
    }

    #[test]
    fn timestamp_divergence_detected() {
        // wrong value
        let mut trace = honest_trace();
        for e in trace.iter_mut() {
            if e.stage == stage::TFC_TIMESTAMP && e.activity == "A" {
                e.attrs[0].1 = "101".into();
            }
        }
        assert_eq!(
            reconcile(&trace, &fixture_doc()).unwrap_err(),
            ReconcileError::TimestampMismatch {
                key: CerKey::new("A", 0),
                document: 100,
                trace: 101
            }
        );

        // witness missing entirely
        let mut trace = honest_trace();
        trace.retain(|e| !(e.stage == stage::TFC_TIMESTAMP && e.activity == "B"));
        assert_eq!(
            reconcile(&trace, &fixture_doc()).unwrap_err(),
            ReconcileError::TimestampUnwitnessed { key: CerKey::new("B", 0), timestamp: 250 }
        );

        // witness outside the hop's virtual-time window
        let mut trace = honest_trace();
        for e in trace.iter_mut() {
            if e.stage == stage::TFC_TIMESTAMP && e.activity == "A" {
                e.start_us = 50;
                e.end_us = 60;
            }
        }
        assert_eq!(
            reconcile(&trace, &fixture_doc()).unwrap_err(),
            ReconcileError::TimestampOutsideHop {
                key: CerKey::new("A", 0),
                witness_us: (50, 60),
                hop_us: (0, 10),
            }
        );
    }

    /// Build an unsigned structural document for `def` with the given
    /// cascade of `(activity, iter)` CERs (participants from the def).
    fn structural_doc(def: &WorkflowDefinition, cers: &[(&str, u32)]) -> DraDocument {
        let designer = Credentials::from_seed("designer", "d");
        let mut doc =
            DraDocument::new_initial_with_pid(def, &SecurityPolicy::public(), &designer, "pid-r")
                .unwrap();
        for (act, iter) in cers {
            let who = def.activity(act).unwrap().participant.clone();
            doc.push_cer(
                Element::new("CER")
                    .attr("activity", *act)
                    .attr("iter", iter.to_string())
                    .attr("participant", who)
                    .attr("preds", "Def")
                    .child(Element::new("Result")),
            )
            .unwrap();
        }
        doc
    }

    fn cancel_def() -> WorkflowDefinition {
        WorkflowDefinition::builder("cx", "designer")
            .simple_activity("A", "peter", &[])
            .simple_activity("B", "amy", &["x"])
            .simple_activity("C", "cleo", &["y"])
            .activity(crate::model::Activity {
                id: "J".into(),
                participant: "june".into(),
                join: crate::model::JoinKind::Or,
                requests: vec![],
                responses: vec![],
            })
            .flow("A", "B")
            .flow("A", "C")
            .flow("B", "J")
            .flow("C", "J")
            .flow_end("J")
            .cancel_on("B", &["C"])
            .build()
            .unwrap()
    }

    #[test]
    fn forged_cancelled_execution_detected() {
        // B completes (cancelling C), yet a C CER appears afterwards.
        let doc = structural_doc(&cancel_def(), &[("A", 0), ("B", 0), ("C", 0), ("J", 0)]);
        let err = reconcile(&[], &doc).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::CancelledExecution {
                position: 2,
                key: CerKey::new("C", 0),
                trigger: "B".into(),
            }
        );
        assert!(err.to_string().contains("cancelled its region"), "{err}");
    }

    #[test]
    fn honest_cancellation_order_reconciles_structurally() {
        // C completed before the trigger: legitimate — then B cancels
        // nothing pending, and the merge fires with both branches in.
        let doc = structural_doc(&cancel_def(), &[("A", 0), ("C", 0), ("B", 0), ("J", 0)]);
        // trace empty => MissingFromTrace, but the semantic pass must be
        // clean: check it directly by expecting the *trace* error.
        let err = reconcile(&[], &doc).unwrap_err();
        assert!(matches!(err, ReconcileError::MissingFromTrace { position: 0, .. }), "{err}");
    }

    #[test]
    fn phantom_branch_or_join_detected() {
        // J fires after only B, while C's CER turns up later: the merge
        // fired while a branch was still to deliver.
        let def = cancel_def();
        let doc = structural_doc(&def, &[("A", 0), ("B", 0), ("J", 0), ("C", 0)]);
        // The scan is positional: J at position 2 trips the join law
        // before C at position 3 would trip the cancellation law.
        let err = reconcile(&[], &doc).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::JoinMissingBranch {
                position: 2,
                join: CerKey::new("J", 0),
                branch: "C".into(),
            }
        );
    }

    #[test]
    fn and_join_missing_branch_detected() {
        let def = WorkflowDefinition::builder("aj", "designer")
            .simple_activity("A", "peter", &[])
            .simple_activity("B1", "amy", &[])
            .simple_activity("B2", "bob", &[])
            .activity(crate::model::Activity {
                id: "C".into(),
                participant: "cleo".into(),
                join: crate::model::JoinKind::All,
                requests: vec![],
                responses: vec![],
            })
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B1", "C")
            .flow("B2", "C")
            .flow_end("C")
            .build()
            .unwrap();
        let doc = structural_doc(&def, &[("A", 0), ("B1", 0), ("C", 0), ("B2", 0)]);
        let err = reconcile(&[], &doc).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::JoinMissingBranch {
                position: 2,
                join: CerKey::new("C", 0),
                branch: "B2".into(),
            }
        );
    }

    #[test]
    fn empty_trace_empty_document_reconciles() {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "p", &[])
            .flow_end("A")
            .build()
            .unwrap();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "x")
                .unwrap();
        let report = reconcile(&[], &doc).unwrap();
        assert_eq!(report, ReconcileReport::default());
    }
}
