//! Control-flow evaluation and document merging.
//!
//! In an engine-less WfMS the routing decision is made by whoever finished
//! the activity: "the AEA checks the control flow information defined in the
//! workflow definition and forwards X''_Ai to the participant of the next
//! activity (or activities)" (§2.1). In the advanced model the TFC makes
//! the same decision. Both use [`evaluate_route`] with their own key
//! material — which is exactly where the Fig. 4 flow-concealment problem
//! surfaces when the decider cannot read a guarded field.

use crate::document::DraDocument;
use crate::error::{WfError, WfResult};
use crate::fields::{eval_condition, read_field_from_result, FieldReader};
use crate::identity::ActorKeys;
use crate::model::{ActivityId, CancelRegion, Cardinality, JoinKind, Target, WorkflowDefinition};
use dra_xml::enc::ReaderKeys;
use std::collections::HashMap;

/// Where a document goes after an activity completes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Route {
    /// Activities to forward the document to (≥2 means an AND-split).
    pub targets: Vec<ActivityId>,
    /// True when a transition to End fired — the process (or this branch)
    /// terminates.
    pub ends: bool,
}

impl Route {
    /// No further work: the process ends here.
    pub fn is_final(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Evaluate the outgoing transitions of `from`: every transition whose
/// condition holds fires. An activity with no outgoing transitions ends the
/// process implicitly.
pub fn evaluate_route(
    def: &WorkflowDefinition,
    from: &str,
    reader: &dyn FieldReader,
) -> WfResult<Route> {
    let outgoing = def.outgoing(from);
    if outgoing.is_empty() {
        return Ok(Route { targets: Vec::new(), ends: true });
    }
    let mut route = Route::default();
    for t in outgoing {
        let taken = match &t.condition {
            None => true,
            Some(c) => eval_condition(c, reader)?,
        };
        if taken {
            match &t.to {
                Target::Activity(a) => route.targets.push(a.clone()),
                Target::End => route.ends = true,
            }
        }
    }
    if route.targets.is_empty() && !route.ends {
        return Err(WfError::Flow(format!(
            "no outgoing transition of '{from}' is enabled (conditions all false)"
        )));
    }
    Ok(route)
}

/// Resolve the instance count of a multi-instance activity. Static counts
/// are returned as-is; runtime counts are read through `reader` and must
/// parse as an integer ≥ 1.
pub fn resolve_cardinality(
    def: &WorkflowDefinition,
    activity: &str,
    reader: &dyn FieldReader,
) -> WfResult<u32> {
    let Some(m) = def.multi_for(activity) else {
        return Ok(1);
    };
    match &m.cardinality {
        Cardinality::Static(k) => Ok(*k),
        Cardinality::Runtime(r) => {
            let raw = reader.read_field(&r.activity, &r.field)?.ok_or_else(|| {
                WfError::Flow(format!(
                    "multi-instance '{activity}': cardinality field '{}.{}' not produced",
                    r.activity, r.field
                ))
            })?;
            let k: u32 = raw.trim().parse().map_err(|_| {
                WfError::Flow(format!(
                    "multi-instance '{activity}': cardinality field '{}.{}' = '{raw}' is not an integer",
                    r.activity, r.field
                ))
            })?;
            if k == 0 {
                return Err(WfError::Flow(format!(
                    "multi-instance '{activity}': cardinality resolved to 0"
                )));
            }
            Ok(k)
        }
    }
}

/// Like [`evaluate_route`], but aware of multi-instance activities: if
/// `from` is annotated multi-instance and the just-completed iteration
/// `iter` leaves instances outstanding, the route loops back to `from`
/// itself (the next instance); otherwise the normal outgoing transitions
/// are evaluated. Soundness analysis bars multi-instance activities from
/// control-flow cycles, so `iter` counts instances exactly.
pub fn evaluate_route_after(
    def: &WorkflowDefinition,
    from: &str,
    iter: u32,
    reader: &dyn FieldReader,
) -> WfResult<Route> {
    if def.multi_for(from).is_some() {
        let k = resolve_cardinality(def, from, reader)?;
        if iter + 1 < k {
            return Ok(Route { targets: vec![from.to_string()], ends: false });
        }
    }
    evaluate_route(def, from, reader)
}

/// The cancellation regions triggered by the completion of `trigger` whose
/// guard holds (an absent guard always fires).
pub fn fired_cancellations<'a>(
    def: &'a WorkflowDefinition,
    trigger: &str,
    reader: &dyn FieldReader,
) -> WfResult<Vec<&'a CancelRegion>> {
    let mut fired = Vec::new();
    for c in def.cancellations_triggered_by(trigger) {
        let holds = match &c.condition {
            None => true,
            Some(cond) => eval_condition(cond, reader)?,
        };
        if holds {
            fired.push(c);
        }
    }
    Ok(fired)
}

/// True when an AND-join activity has every incoming branch delivered: each
/// control-flow predecessor has executed at least up to the join's next
/// iteration. Activities with [`JoinKind::Any`] are always ready, and so —
/// at the document level — are [`JoinKind::Or`] joins: a synchronizing
/// merge needs runtime knowledge of which branches can still deliver, which
/// only the scheduler has (see `cloud::sched`); the document alone cannot
/// refute readiness.
pub fn join_ready(doc: &DraDocument, def: &WorkflowDefinition, activity: &str) -> WfResult<bool> {
    let act = def.activity(activity)?;
    if matches!(act.join, JoinKind::Any | JoinKind::Or) {
        return Ok(true);
    }
    let next_iter = match doc.latest_iter(activity)? {
        Some(i) => i + 1,
        None => 0,
    };
    for inc in def.incoming(activity) {
        match doc.latest_iter(inc)? {
            Some(i) if i >= next_iter => {}
            _ => return Ok(false),
        }
    }
    Ok(true)
}

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
        let Some(iter) = self.doc.latest_iter(activity)? else {
            return Ok(None);
        };
        let cer = self
            .doc
            .find_cer(&crate::document::CerKey::new(activity, iter))?
            .expect("latest_iter implies existence");
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

    struct MapReader(HashMap<(String, String), String>);
    impl FieldReader for MapReader {
        fn read_field(&self, a: &str, f: &str) -> WfResult<Option<String>> {
            Ok(self.0.get(&(a.to_string(), f.to_string())).cloned())
        }
    }

    fn reader(entries: &[(&str, &str, &str)]) -> MapReader {
        MapReader(
            entries
                .iter()
                .map(|(a, f, v)| ((a.to_string(), f.to_string()), v.to_string()))
                .collect(),
        )
    }

    #[test]
    fn and_split_routes_to_both() {
        let def = fig9a_def();
        let r = evaluate_route(&def, "A", &reader(&[])).unwrap();
        assert_eq!(r.targets, vec!["B1", "B2"]);
        assert!(!r.ends);
    }

    #[test]
    fn or_split_takes_matching_branch() {
        let def = fig9a_def();
        let r = evaluate_route(&def, "C", &reader(&[("C", "decision", "insufficient")])).unwrap();
        assert_eq!(r.targets, vec!["A"], "loop back");
        let r = evaluate_route(&def, "C", &reader(&[("C", "decision", "accept")])).unwrap();
        assert_eq!(r.targets, vec!["D"]);
    }

    #[test]
    fn end_transition() {
        let def = fig9a_def();
        let r = evaluate_route(&def, "D", &reader(&[])).unwrap();
        assert!(r.ends);
        assert!(r.is_final());
    }

    #[test]
    fn unreadable_condition_propagates() {
        struct Denies;
        impl FieldReader for Denies {
            fn read_field(&self, a: &str, f: &str) -> WfResult<Option<String>> {
                Err(WfError::FieldNotReadable {
                    activity: a.into(),
                    field: f.into(),
                    reader: "tony".into(),
                })
            }
        }
        let def = fig9a_def();
        assert!(matches!(
            evaluate_route(&def, "C", &Denies),
            Err(WfError::FieldNotReadable { .. })
        ));
    }

    #[test]
    fn no_enabled_transition_is_an_error() {
        let def = WorkflowDefinition::builder("w", "d")
            .simple_activity("A", "p", &["x"])
            .simple_activity("B", "q", &[])
            .flow_if("A", "B", Condition::field_equals("A", "x", "1"))
            .flow_end("B")
            .build()
            .unwrap();
        assert!(matches!(
            evaluate_route(&def, "A", &reader(&[("A", "x", "2")])),
            Err(WfError::Flow(_))
        ));
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
    fn join_readiness() {
        let def = fig9a_def();
        // C is an AND-join of B1 and B2.
        let doc = structural_doc(&def, &[("A", 0), ("B1", 0)]);
        assert!(!join_ready(&doc, &def, "C").unwrap(), "B2 missing");
        let doc = structural_doc(&def, &[("A", 0), ("B1", 0), ("B2", 0)]);
        assert!(join_ready(&doc, &def, "C").unwrap());
        // second iteration requires both branches again
        let doc =
            structural_doc(&def, &[("A", 0), ("B1", 0), ("B2", 0), ("C", 0), ("A", 1), ("B1", 1)]);
        assert!(!join_ready(&doc, &def, "C").unwrap());
        // Any-join activities are always ready
        assert!(join_ready(&doc, &def, "D").unwrap());
    }

    #[test]
    fn multi_instance_routes_back_until_cardinality_met() {
        let def = WorkflowDefinition::builder("multi", "d")
            .simple_activity("A", "p", &["n"])
            .simple_activity("B", "q", &["part"])
            .simple_activity("C", "r", &[])
            .flow("A", "B")
            .flow("B", "C")
            .flow_end("C")
            .multi_runtime("B", "A", "n")
            .build()
            .unwrap();
        let r = reader(&[("A", "n", "3")]);
        assert_eq!(resolve_cardinality(&def, "B", &r).unwrap(), 3);
        let route = evaluate_route_after(&def, "B", 0, &r).unwrap();
        assert_eq!(route.targets, vec!["B"], "instance 2 of 3");
        let route = evaluate_route_after(&def, "B", 1, &r).unwrap();
        assert_eq!(route.targets, vec!["B"], "instance 3 of 3");
        let route = evaluate_route_after(&def, "B", 2, &r).unwrap();
        assert_eq!(route.targets, vec!["C"], "all instances done");
        // non-multi activities route normally
        let route = evaluate_route_after(&def, "A", 0, &r).unwrap();
        assert_eq!(route.targets, vec!["B"]);
    }

    #[test]
    fn runtime_cardinality_must_be_positive_integer() {
        let def = WorkflowDefinition::builder("multi", "d")
            .simple_activity("A", "p", &["n"])
            .simple_activity("B", "q", &[])
            .flow("A", "B")
            .flow_end("B")
            .multi_runtime("B", "A", "n")
            .build()
            .unwrap();
        assert!(matches!(
            resolve_cardinality(&def, "B", &reader(&[("A", "n", "zero")])),
            Err(WfError::Flow(m)) if m.contains("not an integer")
        ));
        assert!(matches!(
            resolve_cardinality(&def, "B", &reader(&[("A", "n", "0")])),
            Err(WfError::Flow(m)) if m.contains("resolved to 0")
        ));
        assert!(matches!(
            resolve_cardinality(&def, "B", &reader(&[])),
            Err(WfError::Flow(m)) if m.contains("not produced")
        ));
    }

    #[test]
    fn or_join_is_document_level_ready() {
        let def = WorkflowDefinition::builder("orj", "d")
            .simple_activity("A", "p", &["mode"])
            .simple_activity("B1", "q", &["x"])
            .simple_activity("B2", "r", &["y"])
            .activity(crate::model::Activity {
                id: "J".into(),
                participant: "s".into(),
                join: JoinKind::Or,
                requests: vec![],
                responses: vec![],
            })
            .flow("A", "B1")
            .flow_if("A", "B2", Condition::field_equals("A", "mode", "both"))
            .flow("B1", "J")
            .flow("B2", "J")
            .flow_end("J")
            .build()
            .unwrap();
        let doc = structural_doc(&def, &[("A", 0), ("B1", 0)]);
        assert!(join_ready(&doc, &def, "J").unwrap());
    }

    #[test]
    fn cancellations_fire_by_condition() {
        let def = WorkflowDefinition::builder("cx", "d")
            .simple_activity("A", "p", &["mode"])
            .simple_activity("B", "q", &["r"])
            .simple_activity("C", "r", &["s"])
            .flow("A", "B")
            .flow("A", "C")
            .flow_end("B")
            .flow_end("C")
            .cancel_on_if("B", Condition::field_equals("A", "mode", "solo"), &["C"])
            .build()
            .unwrap();
        let fired = fired_cancellations(&def, "B", &reader(&[("A", "mode", "solo")])).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].region, vec!["C"]);
        let fired = fired_cancellations(&def, "B", &reader(&[("A", "mode", "both")])).unwrap();
        assert!(fired.is_empty());
        let fired = fired_cancellations(&def, "A", &reader(&[])).unwrap();
        assert!(fired.is_empty(), "A triggers nothing");
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
