//! Document merging and the field reader routing decisions read through.
//!
//! In an engine-less WfMS the routing decision is made by whoever finished
//! the activity: "the AEA checks the control flow information defined in the
//! workflow definition and forwards X''_Ai to the participant of the next
//! activity (or activities)" (§2.1). In the advanced model the TFC makes
//! the same decision. Both call [`crate::semantics::route`] through a
//! [`DocFieldReader`] holding their own key material — which is exactly
//! where the Fig. 4 flow-concealment problem surfaces when the decider
//! cannot read a guarded field.

use crate::document::DraDocument;
use crate::error::{WfError, WfResult};
use crate::fields::{read_field_from_result, FieldReader};
use crate::identity::ActorKeys;
use crate::sealed::SealedDocument;
use dra_xml::enc::ReaderKeys;
use std::collections::HashMap;

/// Merge the branch documents arriving at an AND-join:
/// `Set_of_CER(X''_Ap1) ∪ … ∪ Set_of_CER(X''_Apn)` (§2.1).
///
/// All documents must share the same process id and byte-identical
/// application definition; CERs are united by `(activity, iter)` key.
pub fn merge_documents(docs: &[DraDocument]) -> WfResult<DraDocument> {
    let first =
        docs.first().ok_or_else(|| WfError::MergeMismatch("no documents to merge".into()))?;
    let pid = first.process_id()?;
    let def_bytes = first.definition_bytes()?;
    let mut merged = first.clone();
    for doc in &docs[1..] {
        if doc.process_id()? != pid {
            return Err(WfError::MergeMismatch(format!(
                "process id mismatch: '{}' vs '{}'",
                pid,
                doc.process_id()?
            )));
        }
        if doc.definition_bytes()? != def_bytes {
            return Err(WfError::MergeMismatch("application definitions differ".into()));
        }
        let new_cers: Vec<_> = {
            let existing: std::collections::BTreeSet<_> =
                merged.cers()?.iter().map(|c| c.key.clone()).collect();
            doc.cers()?
                .iter()
                .filter(|c| !existing.contains(&c.key))
                .map(|c| c.element.clone())
                .collect()
        };
        for cer in new_cers {
            merged.push_cer(cer)?;
        }
    }
    Ok(merged)
}

/// Merge the arrivals of a join: a single arrival keeps its seal and trust
/// mark; a true merge rides the **first arrival's** mark, whose prefix
/// [`merge_documents`] keeps as a prefix of the merge, so the join checks
/// the CERs past it — the branches' new ones. The mark is a claim, not a
/// credential: the verifier recomputes the chained digest over the merge
/// and runs the full pass on a mismatch, as it does without a mark.
/// Either way the result shares the inputs' nodes.
pub fn merge_sealed(inputs: &[SealedDocument]) -> WfResult<SealedDocument> {
    if let [single] = inputs {
        return Ok(single.clone());
    }
    let docs: Vec<DraDocument> = inputs.iter().map(|s| s.document().clone()).collect();
    let merged = merge_documents(&docs)?;
    Ok(match inputs.first().and_then(SealedDocument::trust) {
        Some(mark) => SealedDocument::with_trust(merged, mark.clone()),
        None => SealedDocument::new(merged),
    })
}

/// A [`FieldReader`] over a DRA4WfMS document from one actor's viewpoint:
/// reads the latest result of each activity, decrypting with the actor's
/// keys where the audience allows, with an overlay of fresh (not yet
/// embedded) responses for the activity currently being completed.
pub struct DocFieldReader<'a> {
    doc: &'a DraDocument,
    /// Acting identity name.
    pub name: String,
    keys: Option<&'a dyn ReaderKeys>,
    overlay: HashMap<(String, String), String>,
}

impl<'a> DocFieldReader<'a> {
    /// Reader without decryption capability (sees only plaintext fields).
    pub fn public(doc: &'a DraDocument) -> DocFieldReader<'a> {
        DocFieldReader { doc, name: String::new(), keys: None, overlay: HashMap::new() }
    }

    /// Reader with an actor's keys.
    pub fn for_actor(doc: &'a DraDocument, keys: &'a ActorKeys<'_>) -> DocFieldReader<'a> {
        DocFieldReader {
            doc,
            name: keys.creds.name.clone(),
            keys: Some(keys),
            overlay: HashMap::new(),
        }
    }

    /// Overlay fresh responses of `activity` (they take precedence over any
    /// embedded CER of that activity).
    pub fn with_overlay(mut self, activity: &str, responses: &[(String, String)]) -> Self {
        for (f, v) in responses {
            self.overlay.insert((activity.to_string(), f.clone()), v.clone());
        }
        self
    }
}

impl FieldReader for DocFieldReader<'_> {
    fn read_field(&self, activity: &str, field: &str) -> WfResult<Option<String>> {
        if let Some(v) = self.overlay.get(&(activity.to_string(), field.to_string())) {
            return Ok(Some(v.clone()));
        }
        let cers = self.doc.cers()?;
        // the latest iteration; the first CER of it, as `find_cer` would
        let latest = cers.iter().rev().filter(|c| c.key.activity == activity);
        let Some(cer) = latest.max_by_key(|c| c.key.iter) else {
            return Ok(None);
        };
        let Some(result) = cer.result() else {
            return Ok(None); // intermediate CER: result still sealed to TFC
        };
        read_field_from_result(result, activity, field, &self.name, self.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DraDocument;
    use crate::identity::Credentials;
    use crate::model::{Condition, JoinKind, WorkflowDefinition};
    use crate::policy::SecurityPolicy;
    use dra_xml::Element;

    fn fig9a_def() -> WorkflowDefinition {
        // Fig. 9A: A -> AND-split(B1, B2) -> AND-join C -> loop/accept -> D
        WorkflowDefinition::builder("fig9a", "designer")
            .simple_activity("A", "p_a", &["attachment"])
            .simple_activity("B1", "p_b1", &["review1"])
            .simple_activity("B2", "p_b2", &["review2"])
            .activity(crate::model::Activity {
                id: "C".into(),
                participant: "p_c".into(),
                join: JoinKind::All,
                requests: vec![],
                responses: vec!["decision".into()],
            })
            .simple_activity("D", "p_d", &["ack"])
            .flow("A", "B1")
            .flow("A", "B2")
            .flow("B1", "C")
            .flow("B2", "C")
            .flow_if("C", "A", Condition::field_equals("C", "decision", "insufficient"))
            .flow_if("C", "D", Condition::field_not_equals("C", "decision", "insufficient"))
            .flow_end("D")
            .build()
            .unwrap()
    }

    fn structural_doc(def: &WorkflowDefinition, cers: &[(&str, u32)]) -> DraDocument {
        let designer = Credentials::from_seed("designer", "d");
        let mut doc =
            DraDocument::new_initial_with_pid(def, &SecurityPolicy::public(), &designer, "pid")
                .unwrap();
        for (a, i) in cers {
            let participant = def.activity(a).unwrap().participant.clone();
            doc.push_cer(
                Element::new("CER")
                    .attr("activity", *a)
                    .attr("iter", i.to_string())
                    .attr("participant", participant)
                    .attr("preds", "Def"),
            )
            .unwrap();
        }
        doc
    }

    #[test]
    fn merge_unions_cers() {
        let def = fig9a_def();
        let base = structural_doc(&def, &[("A", 0)]);
        let mut left = base.clone();
        left.push_cer(
            Element::new("CER")
                .attr("activity", "B1")
                .attr("iter", "0")
                .attr("participant", "p_b1")
                .attr("preds", "A#0"),
        )
        .unwrap();
        let mut right = base.clone();
        right
            .push_cer(
                Element::new("CER")
                    .attr("activity", "B2")
                    .attr("iter", "0")
                    .attr("participant", "p_b2")
                    .attr("preds", "A#0"),
            )
            .unwrap();
        let merged = merge_documents(&[left, right]).unwrap();
        let keys: Vec<String> = merged.cers().unwrap().iter().map(|c| c.key.to_string()).collect();
        assert_eq!(keys, vec!["A#0", "B1#0", "B2#0"]);
    }

    #[test]
    fn merge_dedupes_shared_prefix() {
        let def = fig9a_def();
        let doc = structural_doc(&def, &[("A", 0), ("B1", 0)]);
        let merged = merge_documents(&[doc.clone(), doc.clone()]).unwrap();
        assert_eq!(merged.cers().unwrap().len(), 2);
    }

    #[test]
    fn merge_rejects_different_processes() {
        let def = fig9a_def();
        let designer = Credentials::from_seed("designer", "d");
        let d1 =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid-1")
                .unwrap();
        let d2 =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid-2")
                .unwrap();
        assert!(matches!(merge_documents(&[d1, d2]), Err(WfError::MergeMismatch(_))));
    }

    #[test]
    fn merge_empty_list_errors() {
        assert!(merge_documents(&[]).is_err());
    }

    #[test]
    fn doc_reader_overlay_takes_precedence() {
        let def = fig9a_def();
        let doc = structural_doc(&def, &[]);
        let r = DocFieldReader::public(&doc)
            .with_overlay("A", &[("attachment".to_string(), "fresh".to_string())]);
        assert_eq!(r.read_field("A", "attachment").unwrap(), Some("fresh".into()));
        assert_eq!(r.read_field("A", "other").unwrap(), None);
    }
}
