//! Workflow monitoring (§2.2, §3): tracking individual process instances so
//! "information on their state can be easily seen and statistics on the
//! performance of one or more processes provided".
//!
//! Monitoring works on the document alone — no engine holds the state. The
//! advanced model's TFC timestamps give finish times; the basic model still
//! exposes execution order and participation.

use crate::document::{CerKey, DraDocument, PredRef};
use crate::error::WfResult;
use std::collections::{BTreeMap, HashMap};

/// The TFC-timestamp gaps of a document, the one definition of a gap: each
/// stamped CER, as `(activity, ms)`, measured from the latest-stamped CER its
/// `preds` name. A CER with no stamped pred (the first activity, whose pred
/// is `Def`) has none. Attribute reads only; a document whose CERs do not
/// read has no gaps.
pub fn gaps(doc: &DraDocument) -> Vec<(String, u64)> {
    let Ok(cers) = doc.cers() else { return vec![] };
    let stamps: HashMap<&CerKey, u64> =
        cers.iter().filter_map(|c| Some((&c.key, c.timestamp_millis()?))).collect();
    cers.iter()
        .filter_map(|cer| {
            let at = stamps.get(&cer.key)?;
            let from = cer
                .preds
                .iter()
                .filter_map(|p| match p {
                    PredRef::Cer(key) => stamps.get(key),
                    PredRef::Def => None,
                })
                .max()?;
            Some((cer.key.activity.clone(), at.saturating_sub(*from)))
        })
        .collect()
}

/// One executed activity iteration, as seen by a monitor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutedEntry {
    /// Activity + iteration.
    pub key: CerKey,
    /// Who executed it.
    pub participant: String,
    /// TFC finish timestamp in ms (advanced model only).
    pub timestamp: Option<u64>,
    /// True when the CER is still awaiting TFC finalization.
    pub intermediate: bool,
}

/// A point-in-time view of one process instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessStatus {
    /// Unique process id.
    pub process_id: String,
    /// Workflow name.
    pub workflow: String,
    /// Executions in document order.
    pub executed: Vec<ExecutedEntry>,
}

impl ProcessStatus {
    /// Extract the status of a document. Does not verify signatures — run
    /// a [`crate::verify::Verifier`] first when trust matters.
    pub fn from_document(doc: &DraDocument) -> WfResult<ProcessStatus> {
        let def = doc.workflow_definition()?;
        let executed = doc
            .cers()?
            .iter()
            .map(|c| ExecutedEntry {
                key: c.key.clone(),
                participant: c.participant.clone(),
                timestamp: c.timestamp_millis(),
                intermediate: c.tfc_sealed().is_some() && c.result().is_none(),
            })
            .collect();
        Ok(ProcessStatus { process_id: doc.process_id()?, workflow: def.name, executed })
    }

    /// Number of executed activity iterations.
    pub fn steps(&self) -> usize {
        self.executed.len()
    }

    /// Latest execution, if any.
    pub fn last(&self) -> Option<&ExecutedEntry> {
        self.executed.last()
    }

    /// Execution counts per activity (loop iterations show up as counts >1).
    pub fn counts_per_activity(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for e in &self.executed {
            *out.entry(e.key.activity.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Total elapsed time between first and last TFC timestamps, when both
    /// exist (advanced model).
    pub fn elapsed_millis(&self) -> Option<u64> {
        let times: Vec<u64> = self.executed.iter().filter_map(|e| e.timestamp).collect();
        match (times.iter().min(), times.iter().max()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        }
    }

    /// Check the document-recorded end-to-end latency against an SLO.
    ///
    /// This is the *document-time* complement of the cloud crate's online
    /// `HealthMonitor`: the monitor judges virtual wall time while the run
    /// executes, this judges the TFC-witnessed timestamps the signed
    /// document carries after the fact — so an auditor can hold a
    /// completed document against its SLO without any trace at all.
    /// `elapsed_ms` is `None` on the basic model (no TFC timestamps),
    /// which never counts as a breach: absence of evidence stays
    /// inconclusive, matching the advisory-alert philosophy.
    pub fn check_slo(&self, slo_ms: u64) -> SloReport {
        let elapsed_ms = self.elapsed_millis();
        SloReport { slo_ms, elapsed_ms, breached: elapsed_ms.is_some_and(|e| e > slo_ms) }
    }

    /// Human-readable audit trail, one line per execution.
    pub fn audit_trail(&self) -> String {
        let mut out = format!("process {} ({})\n", self.process_id, self.workflow);
        for e in &self.executed {
            out.push_str(&format!(
                "  {:<8} by {:<12} {}{}\n",
                e.key.to_string(),
                e.participant,
                e.timestamp.map(|t| format!("t={t}ms")).unwrap_or_else(|| "t=?".into()),
                if e.intermediate { " [awaiting TFC]" } else { "" },
            ));
        }
        out
    }
}

/// Result of holding a completed document against its SLO
/// ([`ProcessStatus::check_slo`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloReport {
    /// The declared SLO, in TFC-timestamp milliseconds.
    pub slo_ms: u64,
    /// Document-witnessed end-to-end latency (`None` without TFC
    /// timestamps — basic model).
    pub elapsed_ms: Option<u64>,
    /// True only when witnessed latency exceeds the SLO.
    pub breached: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DraDocument;
    use crate::identity::Credentials;
    use crate::model::WorkflowDefinition;
    use crate::policy::SecurityPolicy;
    use dra_xml::Element;

    fn fixture_doc() -> (DraDocument, WorkflowDefinition) {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("monitored", "designer")
            .simple_activity("A", "p", &[])
            .simple_activity("B", "q", &[])
            .flow("A", "B")
            .flow_end("B")
            .build()
            .unwrap();
        let mut doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid-m")
                .unwrap();
        doc.push_cer(
            Element::new("CER")
                .attr("activity", "A")
                .attr("iter", "0")
                .attr("participant", "p")
                .attr("preds", "Def")
                .child(Element::new("Result"))
                .child(Element::new("Timestamp").attr("time", "100").attr("by", "TFC")),
        )
        .unwrap();
        doc.push_cer(
            Element::new("CER")
                .attr("activity", "A")
                .attr("iter", "1")
                .attr("participant", "p")
                .attr("preds", "Def")
                .child(Element::new("Result"))
                .child(Element::new("Timestamp").attr("time", "250").attr("by", "TFC")),
        )
        .unwrap();
        (doc, def)
    }

    #[test]
    fn status_extraction() {
        let (doc, _) = fixture_doc();
        let s = ProcessStatus::from_document(&doc).unwrap();
        assert_eq!(s.process_id, "pid-m");
        assert_eq!(s.workflow, "monitored");
        assert_eq!(s.steps(), 2);
        assert_eq!(s.last().unwrap().key, CerKey::new("A", 1));
        assert_eq!(s.last().unwrap().timestamp, Some(250));
    }

    #[test]
    fn counts_and_elapsed() {
        let (doc, _) = fixture_doc();
        let s = ProcessStatus::from_document(&doc).unwrap();
        assert_eq!(s.counts_per_activity()["A"], 2);
        assert_eq!(s.elapsed_millis(), Some(150));
    }

    #[test]
    fn slo_check_uses_witnessed_timestamps() {
        let (doc, _) = fixture_doc();
        let s = ProcessStatus::from_document(&doc).unwrap();
        // 150 ms elapsed: a 150 ms SLO holds (breach is strict), 149 breaks
        assert_eq!(
            s.check_slo(150),
            SloReport { slo_ms: 150, elapsed_ms: Some(150), breached: false }
        );
        assert!(s.check_slo(149).breached);
    }

    #[test]
    fn slo_check_is_inconclusive_without_timestamps() {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("basic", "designer")
            .simple_activity("A", "p", &["f"])
            .flow_end("A")
            .build()
            .unwrap();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid-b")
                .unwrap();
        let s = ProcessStatus::from_document(&doc).unwrap();
        let report = s.check_slo(1);
        assert_eq!(report.elapsed_ms, None);
        assert!(!report.breached, "no witnessed time never counts as a breach");
    }

    #[test]
    fn audit_trail_mentions_everything() {
        let (doc, _) = fixture_doc();
        let s = ProcessStatus::from_document(&doc).unwrap();
        let trail = s.audit_trail();
        assert!(trail.contains("pid-m"));
        assert!(trail.contains("A#0"));
        assert!(trail.contains("A#1"));
        assert!(trail.contains("t=250ms"));
    }

    fn stamped(activity: &str, preds: &str, time: u64) -> Element {
        Element::new("CER")
            .attr("activity", activity)
            .attr("iter", "0")
            .attr("participant", "p")
            .attr("preds", preds)
            .child(Element::new("Result"))
            .child(Element::new("Timestamp").attr("time", time.to_string()).attr("by", "TFC"))
    }

    #[test]
    fn a_merged_branch_is_measured_from_its_own_pred() {
        let (_, def) = fixture_doc();
        let designer = Credentials::from_seed("designer", "d");
        let base =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "and")
                .unwrap();
        // A splits to B and C; the TFC stamps C before B
        let branch = |cer: Element| {
            let mut doc = base.clone();
            doc.push_cer(stamped("A", "Def", 100)).unwrap();
            doc.push_cer(cer).unwrap();
            doc
        };
        let (b, c) = (branch(stamped("B", "A#0", 400)), branch(stamped("C", "A#0", 250)));
        // the join merges B's branch first, so C follows B in document order
        let mut joined = crate::flow::merge_documents(&[b, c]).unwrap();
        joined.push_cer(stamped("D", "B#0,C#0", 500)).unwrap();
        let keys: Vec<_> = joined.cers().unwrap().iter().map(|c| c.key.to_string()).collect();
        assert_eq!(keys, ["A#0", "B#0", "C#0", "D#0"]);

        let gaps = gaps(&joined);
        assert_eq!(
            gaps,
            [("B".into(), 300), ("C".into(), 150), ("D".into(), 100)],
            "C from A, not 0 from B; D from its latest-stamped pred"
        );
        assert_eq!(gaps.len(), keys.len() - 1, "one gap per stamped CER after the first");
    }

    #[test]
    fn empty_document_status() {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "p", &[])
            .flow_end("A")
            .build()
            .unwrap();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "x")
                .unwrap();
        let s = ProcessStatus::from_document(&doc).unwrap();
        assert_eq!(s.steps(), 0);
        assert!(s.last().is_none());
        assert_eq!(s.elapsed_millis(), None);
    }
}
