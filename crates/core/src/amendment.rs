//! Dynamic flow control and dynamic security policy (§1):
//!
//! > "It can support dynamic flow control and a dynamic security policy in
//! > its run-time environment."
//!
//! A running process can be amended — activities appended, transitions
//! added or retired, policy rules added — without any engine to coordinate
//! the change. An amendment travels as a special CER executed by the
//! workflow designer: its "result" is a [`DefinitionDelta`], it carries a
//! cascade signature like any other CER (so it is bound to the process id,
//! covered by every later signature, and cannot be removed or replayed),
//! and every AEA/TFC computes the **effective definition** by folding the
//! amendment CERs into the base definition before routing.

use crate::document::{CerKey, CerView, DraDocument, PredRef};
use crate::error::{WfError, WfResult};
use crate::identity::Credentials;
use crate::model::{required_attr, Activity, Target, Transition, WorkflowDefinition};
use crate::policy::{FieldRule, SecurityPolicy};
use crate::semantics::Net;
use dra_xml::canon_digest;
use dra_xml::sig::sign_detached;
use dra_xml::Element;
use std::sync::{Arc, Mutex, OnceLock};

/// Pseudo-activity id prefix marking amendment CERs.
pub const AMEND_PREFIX: &str = "__amend";

/// A change to a running process: new activities, new or retired
/// transitions, new policy rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DefinitionDelta {
    /// Activities appended to the definition.
    pub add_activities: Vec<Activity>,
    /// Transitions appended to the definition.
    pub add_transitions: Vec<Transition>,
    /// Transitions removed, identified by (from, to) — used to reroute.
    pub retire_transitions: Vec<(String, Target)>,
    /// Field rules appended to the security policy (first match wins, so a
    /// new rule for an existing field overrides the old one only if
    /// prepended — see [`DefinitionDelta::apply`]).
    pub add_policy_rules: Vec<FieldRule>,
}

impl DefinitionDelta {
    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.add_activities.is_empty()
            && self.add_transitions.is_empty()
            && self.retire_transitions.is_empty()
            && self.add_policy_rules.is_empty()
    }

    /// Apply to a definition + policy pair, validating the result.
    pub fn apply(
        &self,
        def: &WorkflowDefinition,
        policy: &SecurityPolicy,
    ) -> WfResult<(WorkflowDefinition, SecurityPolicy)> {
        let mut def = def.clone();
        def.activities.extend(self.add_activities.iter().cloned());
        def.transitions.retain(|t| {
            !self.retire_transitions.iter().any(|(from, to)| t.from == *from && t.to == *to)
        });
        def.transitions.extend(self.add_transitions.iter().cloned());
        def.validate()?;
        let mut policy = policy.clone();
        // new rules take precedence over old ones for the same field
        let mut rules = self.add_policy_rules.clone();
        rules.extend(policy.rules);
        policy.rules = rules;
        Ok((def, policy))
    }

    // -- XML -----------------------------------------------------------------

    /// Serialize as the `<Delta>` payload of an amendment CER.
    pub fn to_xml(&self) -> Element {
        let mut root = Element::new("Delta");
        for a in &self.add_activities {
            root.push_child(a.to_xml("AddActivity"));
        }
        for t in &self.add_transitions {
            root.push_child(t.to_xml("AddTransition"));
        }
        for (from, to) in &self.retire_transitions {
            let retired = Transition { from: from.clone(), to: to.clone(), condition: None };
            root.push_child(retired.to_xml("RetireTransition"));
        }
        for r in &self.add_policy_rules {
            let mut el = Element::new("AddRule")
                .attr("activity", r.activity.clone())
                .attr("field", r.field.clone());
            el.push_child(crate::policy::readers_to_xml_pub("Readers", &r.readers));
            root.push_child(el);
        }
        root
    }

    /// Parse back from XML.
    pub fn from_xml(el: &Element) -> WfResult<DefinitionDelta> {
        if el.name != "Delta" {
            return Err(WfError::Malformed(format!("expected <Delta>, found <{}>", el.name)));
        }
        let mut delta = DefinitionDelta::default();
        for a in el.find_children("AddActivity") {
            delta.add_activities.push(Activity::from_xml(a)?);
        }
        for t in el.find_children("AddTransition") {
            delta.add_transitions.push(Transition::from_xml(t)?);
        }
        for t in el.find_children("RetireTransition") {
            let retired = Transition::from_xml(t)?;
            delta.retire_transitions.push((retired.from, retired.to));
        }
        for r in el.find_children("AddRule") {
            let readers_el = r
                .find_child("Readers")
                .ok_or_else(|| WfError::Malformed("AddRule missing Readers".into()))?;
            delta.add_policy_rules.push(FieldRule {
                activity: required_attr(r, "activity")?,
                field: required_attr(r, "field")?,
                readers: crate::policy::readers_from_xml_pub(readers_el)?,
            });
        }
        Ok(delta)
    }
}

/// True when a CER key denotes an amendment.
pub fn is_amendment_key(key: &CerKey) -> bool {
    key.activity.starts_with(AMEND_PREFIX)
}

/// The definition and policy in force at some point of a document: the
/// embedded base pair, or that pair with a sequence of amendment deltas
/// folded in. Always structurally valid (`validate()` passed when it was
/// built). Immutable and shared: every document carrying the same
/// definition content — across hops, instances and portals — reads one
/// parse, one validation and one soundness verdict.
#[derive(Debug)]
pub struct EffectiveDefinition {
    /// The workflow definition in force.
    pub def: WorkflowDefinition,
    /// The security policy in force.
    pub policy: SecurityPolicy,
    /// The definition's net: the firing rules and graph facts every actor
    /// reads ([`crate::semantics`]).
    pub net: Net,
    /// Content key: a digest over the canonical bytes this pair was parsed
    /// and folded from.
    key: [u8; 32],
    /// The design-time soundness verdict, computed on first demand.
    sound: OnceLock<WfResult<()>>,
}

/// How many distinct definitions stay parsed. A deployment runs a handful
/// of workflow types at a time; an evicted one is simply parsed, validated
/// and soundness-checked again on its next use.
pub const DEFINITION_CACHE_ENTRIES: usize = 64;

/// Most-recently-used first; a linear scan over at most
/// [`DEFINITION_CACHE_ENTRIES`] 32-byte keys.
static DEFINITIONS: Mutex<Vec<Arc<EffectiveDefinition>>> = Mutex::new(Vec::new());

/// Number of definitions currently held parsed (≤ [`DEFINITION_CACHE_ENTRIES`]).
pub fn definition_cache_len() -> usize {
    DEFINITIONS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

impl EffectiveDefinition {
    /// The entry for content `key`, built by `build` unless it is already
    /// held. Building happens under the lock: a miss is rare (once per
    /// definition content) and this way two threads racing on one key
    /// cannot both parse it.
    fn cached(
        key: [u8; 32],
        build: impl FnOnce() -> WfResult<(WorkflowDefinition, SecurityPolicy)>,
    ) -> WfResult<Arc<EffectiveDefinition>> {
        // the vector is only ever touched once an entry is complete, so a
        // poisoned lock still guards valid data
        let mut held = DEFINITIONS.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(at) = held.iter().position(|e| e.key == key) {
            held[..=at].rotate_right(1);
            return Ok(Arc::clone(&held[0]));
        }
        let (def, policy) = build()?;
        let net = Net::build(&def);
        let built = Arc::new(EffectiveDefinition { def, policy, net, key, sound: OnceLock::new() });
        held.truncate(DEFINITION_CACHE_ENTRIES - 1);
        held.insert(0, Arc::clone(&built));
        Ok(built)
    }

    /// The base definition and policy embedded in `doc`, parsed and
    /// validated — once per content, keyed by the memoised digests of the
    /// `WorkflowDefinition` and `SecurityDefinition` elements.
    pub fn base(doc: &DraDocument) -> WfResult<Arc<EffectiveDefinition>> {
        let (def_el, pol_el) = doc.definition_elements()?;
        let mut h = dra_crypto::Sha256::new();
        h.update(b"dra4wfms/definition");
        h.update(&canon_digest(def_el));
        h.update(&canon_digest(pol_el));
        EffectiveDefinition::cached(h.finalize(), || {
            let def = WorkflowDefinition::from_xml(def_el)?;
            def.validate()?;
            Ok((def, SecurityPolicy::from_xml(pol_el)?))
        })
    }

    /// This pair with the `<Delta>` of one amendment CER folded in — again
    /// once per content, so the copy is made only where an amendment is
    /// actually folded and only the first time.
    pub fn amended(&self, cer: &CerView<'_>) -> WfResult<Arc<EffectiveDefinition>> {
        let delta_el = cer
            .result()
            .ok_or_else(|| WfError::Malformed(format!("amendment {} lacks Result", cer.key)))?
            .find_child("Delta")
            .ok_or_else(|| WfError::Malformed(format!("amendment {} lacks Delta", cer.key)))?;
        let mut h = dra_crypto::Sha256::new();
        h.update(&self.key);
        h.update(&canon_digest(delta_el));
        EffectiveDefinition::cached(h.finalize(), || {
            DefinitionDelta::from_xml(delta_el)?.apply(&self.def, &self.policy)
        })
    }

    /// The design-time soundness gate ([`crate::soundness::require_sound`])
    /// for this definition: the reachability analysis runs once per entry,
    /// later callers read its verdict. An evicted definition comes back as
    /// a fresh entry with no verdict, so it is checked again, never waved
    /// through.
    pub fn require_sound(&self) -> WfResult<()> {
        let check = || crate::soundness::check_net(&self.def, &self.net).map(|_| ());
        self.sound.get_or_init(|| check().map_err(WfError::from)).clone()
    }

    /// Whether [`EffectiveDefinition::require_sound`] has already run on
    /// this entry.
    pub fn soundness_checked(&self) -> bool {
        self.sound.get().is_some()
    }
}

/// Fold all amendment CERs of `doc` into its base definition and policy,
/// returning the effective pair. Amendment payloads are **not** verified
/// here — run a [`crate::verify::Verifier`] first.
pub fn effective_definition(doc: &DraDocument) -> WfResult<Arc<EffectiveDefinition>> {
    let mut effective = EffectiveDefinition::base(doc)?;
    for cer in doc.cers()? {
        if is_amendment_key(&cer.key) {
            effective = effective.amended(&cer)?;
        }
    }
    Ok(effective)
}

/// Append a signed amendment CER to `doc`. Only the workflow designer (the
/// identity named in the base definition) may amend; the amendment's
/// cascade signature covers the latest CER (or Def) so it is ordered and
/// irremovable.
pub fn amend_document(
    doc: &DraDocument,
    designer: &Credentials,
    delta: &DefinitionDelta,
) -> WfResult<DraDocument> {
    let base = EffectiveDefinition::base(doc)?;
    if designer.name != base.def.designer {
        return Err(WfError::NotParticipant {
            expected: base.def.designer.clone(),
            actual: designer.name.clone(),
        });
    }
    // the amended definition must be valid
    let current = effective_definition(doc)?;
    delta.apply(&current.def, &current.policy)?;

    // preds: the latest CER in document order, or Def for a fresh document
    let cers = doc.cers()?;
    let preds = match cers.last() {
        Some(c) => vec![PredRef::Cer(c.key.clone())],
        None => vec![PredRef::Def],
    };
    let iter = cers.iter().filter(|c| is_amendment_key(&c.key)).count() as u32;

    let result = Element::new("Result").child(delta.to_xml());
    let mut document = doc.clone();
    let key = CerKey::new(AMEND_PREFIX.to_string(), iter);
    let cascade = document.cascade_bytes(&result, &preds)?;
    let sig = sign_detached(&designer.sign, &cascade, &format!("{key}"));
    let cer = Element::new("CER")
        .attr("activity", AMEND_PREFIX)
        .attr("iter", iter.to_string())
        .attr("participant", designer.name.clone())
        .attr("preds", crate::document::preds_to_attr(&preds))
        .child(result)
        .child(sig);
    document.push_cer(cer)?;
    Ok(document)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aea::Aea;
    use crate::identity::Directory;
    use crate::model::{Condition, FieldRef, JoinKind};
    use crate::policy::Readers;
    use crate::sealed::SealedDocument;
    use crate::verify::Verifier;

    fn setup() -> (WorkflowDefinition, Credentials, Vec<Credentials>, Directory) {
        let designer = Credentials::from_seed("designer", "amd-d");
        let alice = Credentials::from_seed("alice", "amd-a");
        let bob = Credentials::from_seed("bob", "amd-b");
        let carol = Credentials::from_seed("carol", "amd-c");
        let def = WorkflowDefinition::builder("amendable", "designer")
            .simple_activity("s1", "alice", &["x"])
            .simple_activity("s2", "bob", &["y"])
            .flow("s1", "s2")
            .flow_end("s2")
            .build()
            .unwrap();
        let dir = Directory::from_credentials([&designer, &alice, &bob, &carol]);
        (def, designer, vec![alice, bob, carol], dir)
    }

    fn audit_delta() -> DefinitionDelta {
        DefinitionDelta {
            add_activities: vec![Activity {
                id: "audit".into(),
                participant: "carol".into(),
                join: JoinKind::Any,
                requests: vec![],
                responses: vec!["stamp".into()],
            }],
            add_transitions: vec![
                Transition {
                    from: "s2".into(),
                    to: Target::Activity("audit".into()),
                    condition: None,
                },
                Transition { from: "audit".into(), to: Target::End, condition: None },
            ],
            retire_transitions: vec![("s2".into(), Target::End)],
            add_policy_rules: vec![FieldRule {
                activity: "audit".into(),
                field: "stamp".into(),
                readers: Readers::Only(vec!["alice".into()]),
            }],
        }
    }

    #[test]
    fn delta_xml_roundtrip() {
        let d = audit_delta();
        let parsed = DefinitionDelta::from_xml(&d.to_xml()).unwrap();
        assert_eq!(parsed, d);
        // and over the wire
        let wire = dra_xml::writer::to_string(&d.to_xml());
        let parsed = DefinitionDelta::from_xml(&dra_xml::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, d);
        assert!(!d.is_empty());
        assert!(DefinitionDelta::default().is_empty());
    }

    mod codec {
        use super::*;
        use proptest::prelude::*;

        const NAME: &str = "[A-Za-z][A-Za-z0-9_<&\"' -]{0,6}";

        fn arb_activity() -> impl Strategy<Value = Activity> {
            let requests = proptest::collection::vec((NAME, NAME), 0..3);
            let responses = proptest::collection::vec(NAME, 0..3);
            (NAME, NAME, 0usize..3, requests, responses).prop_map(
                |(id, participant, join, requests, responses)| Activity {
                    id,
                    participant,
                    join: [JoinKind::Any, JoinKind::All, JoinKind::Or][join],
                    requests: requests.into_iter().map(|(a, f)| FieldRef::new(a, f)).collect(),
                    responses,
                },
            )
        }

        fn arb_target() -> impl Strategy<Value = Target> {
            (any::<bool>(), NAME)
                .prop_map(|(end, to)| if end { Target::End } else { Target::Activity(to) })
        }

        fn arb_transition() -> impl Strategy<Value = Transition> {
            let condition = (0u8..3, NAME, NAME, "[ -~]{0,8}").prop_map(|(kind, a, f, v)| {
                (kind > 0).then_some(Condition {
                    activity: a,
                    field: f,
                    equals: v,
                    negate: kind > 1,
                })
            });
            (NAME, arb_target(), condition).prop_map(|(from, to, condition)| Transition {
                from,
                to,
                condition,
            })
        }

        fn arb_delta() -> impl Strategy<Value = DefinitionDelta> {
            let rules = proptest::collection::vec((NAME, NAME), 0..2);
            (
                proptest::collection::vec(arb_activity(), 0..3),
                proptest::collection::vec(arb_transition(), 0..4),
                proptest::collection::vec((NAME, arb_target()), 0..3),
                rules,
            )
                .prop_map(
                    |(add_activities, add_transitions, retire_transitions, rules)| {
                        DefinitionDelta {
                            add_activities,
                            add_transitions,
                            retire_transitions,
                            add_policy_rules: rules
                                .into_iter()
                                .map(|(activity, field)| FieldRule {
                                    activity,
                                    field,
                                    readers: Readers::Everyone,
                                })
                                .collect(),
                        }
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// What the designer signs is what every AEA folds in: all three
            /// join kinds, conditions and `#end` targets survive the element
            /// form and the wire form.
            #[test]
            fn prop_delta_round_trips(d in arb_delta()) {
                prop_assert_eq!(&DefinitionDelta::from_xml(&d.to_xml()).unwrap(), &d);
                let wire = dra_xml::writer::to_string(&d.to_xml());
                let parsed = dra_xml::parse(&wire).unwrap();
                prop_assert_eq!(&DefinitionDelta::from_xml(&parsed).unwrap(), &d);
            }
        }

        #[test]
        fn an_or_join_added_by_amendment_stays_an_or_join() {
            let mut d = audit_delta();
            d.add_activities[0].join = JoinKind::Or;
            let parsed = DefinitionDelta::from_xml(&d.to_xml()).unwrap();
            assert_eq!(parsed.add_activities[0].join, JoinKind::Or);
        }

        #[test]
        fn every_missing_attribute_is_malformed_in_delta_and_definition() {
            let malformed = |xml: &str| {
                let el = dra_xml::parse(xml).unwrap();
                let delta = DefinitionDelta::from_xml(&el);
                assert!(matches!(delta, Err(WfError::Malformed(_))), "{xml}: {delta:?}");
                // the same children under a definition's element names
                let def = xml
                    .replace(
                        "<Delta>",
                        "<WorkflowDefinition designer=\"d\" name=\"n\" start=\"s\">",
                    )
                    .replace("</Delta>", "</WorkflowDefinition>")
                    .replace("<Add", "<")
                    .replace("</Add", "</");
                let def = WorkflowDefinition::from_xml(&dra_xml::parse(&def).unwrap());
                assert!(matches!(def, Err(WfError::Malformed(_))), "{xml}: {def:?}");
            };
            malformed("<Delta><AddActivity/><AddTransition/></Delta>");
            for activity in [
                "<AddActivity participant=\"p\"/>",
                "<AddActivity id=\"a\"/>",
                "<AddActivity id=\"a\" participant=\"p\"><Request field=\"f\"/></AddActivity>",
                "<AddActivity id=\"a\" participant=\"p\"><Request activity=\"x\"/></AddActivity>",
                "<AddActivity id=\"a\" participant=\"p\"><Response/></AddActivity>",
                "<AddTransition to=\"#end\"/>",
                "<AddTransition from=\"a\"/>",
                "<AddTransition from=\"a\" to=\"b\"><Condition equals=\"v\" field=\"f\"/></AddTransition>",
            ] {
                malformed(&format!("<Delta>{activity}</Delta>"));
            }
            for delta_only in [
                "<RetireTransition to=\"b\"/>",
                "<RetireTransition from=\"a\"/>",
                "<AddRule field=\"f\"><Readers/></AddRule>",
                "<AddRule activity=\"a\"><Readers/></AddRule>",
            ] {
                let el = dra_xml::parse(&format!("<Delta>{delta_only}</Delta>")).unwrap();
                let delta = DefinitionDelta::from_xml(&el);
                assert!(matches!(delta, Err(WfError::Malformed(_))), "{delta_only}: {delta:?}");
            }
        }
    }

    #[test]
    fn amendment_reroutes_a_running_process() {
        let (def, designer, people, dir) = setup();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "amd-1")
                .unwrap();

        // alice executes s1
        let aea_alice = Aea::new(people[0].clone(), dir.clone());
        let recv = aea_alice
            .receive(SealedDocument::from_wire(&doc.to_xml_string()).unwrap(), "s1")
            .unwrap();
        let done = aea_alice.complete(&recv, &[("x".into(), "1".into())]).unwrap();

        // designer amends mid-flight: append an audit step after s2
        let amended = amend_document(&done.document, &designer, &audit_delta()).unwrap();
        Verifier::new(&dir).run(&amended).expect("amended document verifies");

        // bob executes s2 — the route now goes to audit, not End
        let aea_bob = Aea::new(people[1].clone(), dir.clone());
        let recv = aea_bob
            .receive(SealedDocument::from_wire(&amended.to_xml_string()).unwrap(), "s2")
            .unwrap();
        let done = aea_bob.complete(&recv, &[("y".into(), "2".into())]).unwrap();
        assert_eq!(done.route.targets, vec!["audit"]);
        assert!(!done.route.ends);

        // carol executes the dynamically added activity
        let aea_carol = Aea::new(people[2].clone(), dir.clone());
        let recv = aea_carol
            .receive(SealedDocument::from_wire(&done.document.to_xml_string()).unwrap(), "audit")
            .unwrap();
        let done = aea_carol.complete(&recv, &[("stamp".into(), "sealed".into())]).unwrap();
        assert!(done.route.ends);

        // the final document verifies, amendment CER included
        let report = Verifier::new(&dir).run(&done.document).unwrap().report;
        assert_eq!(report.cers.len(), 4, "s1 + __amend + s2 + audit");
        // and the dynamic policy applied: the stamp is encrypted for alice
        let cer = done.document.find_cer(&CerKey::new("audit", 0)).unwrap().unwrap();
        let enc = cer
            .result()
            .unwrap()
            .child_elements()
            .find(|e| e.get_attr("field") == Some("stamp"))
            .expect("stamp encrypted");
        assert!(dra_xml::enc::recipients_of(enc).contains(&"alice"));
    }

    #[test]
    fn non_designer_cannot_amend() {
        let (def, designer, people, _) = setup();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "amd-2")
                .unwrap();
        let mallory = &people[0]; // alice is a participant, not the designer
        assert!(matches!(
            amend_document(&doc, mallory, &audit_delta()),
            Err(WfError::NotParticipant { .. })
        ));
    }

    #[test]
    fn forged_amendment_detected() {
        let (def, designer, _, dir) = setup();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "amd-3")
                .unwrap();
        let amended = amend_document(&doc, &designer, &audit_delta()).unwrap();
        // attacker edits the delta in the stored document (redirect to
        // themselves)
        let forged =
            amended.to_xml_string().replace("participant=\"carol\"", "participant=\"alice\"");
        assert_ne!(forged, amended.to_xml_string());
        let parsed = DraDocument::parse(&forged).unwrap();
        assert!(Verifier::new(&dir).run(&parsed).is_err(), "amendment tamper detected");
    }

    #[test]
    fn amendment_removal_detected_when_signed_over() {
        let (def, designer, people, dir) = setup();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "amd-4")
                .unwrap();
        let amended = amend_document(&doc, &designer, &audit_delta()).unwrap();
        // alice executes s1 AFTER the amendment: her cascade covers it
        let aea_alice = Aea::new(people[0].clone(), dir.clone());
        let recv = aea_alice
            .receive(SealedDocument::from_wire(&amended.to_xml_string()).unwrap(), "s1")
            .unwrap();
        let done = aea_alice.complete(&recv, &[("x".into(), "1".into())]).unwrap();
        // attacker strips the amendment CER
        let mut stripped = done.document.clone().into_document();
        let results = stripped.root.find_child_mut("ActivityResults").unwrap();
        let before = results.children.len();
        results.children.retain(|n| match n {
            dra_xml::Node::Element(e) => e.get_attr("activity") != Some(AMEND_PREFIX),
            _ => true,
        });
        assert_eq!(results.children.len(), before - 1);
        assert!(Verifier::new(&dir).run(&stripped).is_err(), "removal breaks the cascade");
    }

    #[test]
    fn invalid_delta_rejected() {
        let (def, designer, _, _) = setup();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "amd-5")
                .unwrap();
        // transition to a ghost activity
        let bad = DefinitionDelta {
            add_transitions: vec![Transition {
                from: "s1".into(),
                to: Target::Activity("GHOST".into()),
                condition: None,
            }],
            ..DefinitionDelta::default()
        };
        assert!(amend_document(&doc, &designer, &bad).is_err());
    }

    #[test]
    fn multiple_amendments_stack() {
        let (def, designer, _, dir) = setup();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "amd-6")
                .unwrap();
        let once = amend_document(&doc, &designer, &audit_delta()).unwrap();
        // second amendment: add a final archive step after audit
        let second = DefinitionDelta {
            add_activities: vec![Activity {
                id: "archive".into(),
                participant: "alice".into(),
                join: JoinKind::Any,
                requests: vec![],
                responses: vec!["ref".into()],
            }],
            add_transitions: vec![
                Transition {
                    from: "audit".into(),
                    to: Target::Activity("archive".into()),
                    condition: None,
                },
                Transition { from: "archive".into(), to: Target::End, condition: None },
            ],
            retire_transitions: vec![("audit".into(), Target::End)],
            add_policy_rules: vec![],
        };
        let twice = amend_document(&once, &designer, &second).unwrap();
        Verifier::new(&dir).run(&twice).unwrap();
        let eff = effective_definition(&twice).unwrap();
        assert!(eff.def.activity("audit").is_ok());
        assert!(eff.def.activity("archive").is_ok());
        assert_eq!(twice.latest_iter(AMEND_PREFIX).unwrap(), Some(1), "amendment iters count up");
    }
}
