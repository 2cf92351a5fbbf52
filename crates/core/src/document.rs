//! The DRA4WfMS document: structure, construction, parsing and the
//! canonical byte streams covered by the cascade signatures.
//!
//! Mirrors Fig. 8 of the paper — a document has three sections:
//!
//! ```xml
//! <DRA4WfMS>
//!   <Header>                     unique process id (replay defense), schema
//!   <ApplicationDefinition>      the secured initial document [Def]ee,{[Def]ee}Pri(A0)
//!     <WorkflowDefinition/>
//!     <SecurityDefinition/>
//!     <Signature/>               the workflow designer's signature
//!   </ApplicationDefinition>
//!   <ActivityResults>            one CER per executed activity iteration
//!     <CER activity="A1" iter="0" participant="peter" preds="Def">
//!       <Result/>                element-wise encrypted responses (basic model)
//!       <TfcSealed/>             result sealed to the TFC (advanced model)
//!       <Timestamp/>             embedded by the TFC (advanced model)
//!       <Signature/>             participant signature (the cascade)
//!       <Signature/>             TFC signature (advanced model)
//!     </CER>
//!   </ActivityResults>
//! </DRA4WfMS>
//! ```
//!
//! A CER's participant signature covers `[Header, body, signatures of all
//! predecessor CERs]`, where `body` is `<Result>` in the basic model and
//! `<TfcSealed>` in the advanced model. Covering the header binds every
//! signature to the unique process id (replay defense); covering predecessor
//! signatures builds the nonrepudiation cascade of §2.3.2.

use crate::covers::Covers;
use crate::error::{WfError, WfResult};
use crate::identity::Credentials;
use crate::model::WorkflowDefinition;
use crate::policy::SecurityPolicy;
use dra_xml::canon::canonicalize_all;
use dra_xml::sig::SIGNATURE;
use dra_xml::{parse, Element, Node};
use std::sync::Arc;

/// Schema tag written into every document header.
pub const SCHEMA: &str = "dra4wfms-1.0";

/// Identifies one executed activity iteration — `X''_Ai(k)` in the paper.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CerKey {
    /// Activity id.
    pub activity: String,
    /// Iteration (0-based; incremented on each loop pass).
    pub iter: u32,
}

impl CerKey {
    /// Convenience constructor.
    pub fn new(activity: impl Into<String>, iter: u32) -> CerKey {
        CerKey { activity: activity.into(), iter }
    }

    /// Parse the `"A1#0"` form.
    pub fn parse(s: &str) -> Option<CerKey> {
        let (a, i) = s.split_once('#')?;
        Some(CerKey { activity: a.to_string(), iter: i.parse().ok()? })
    }
}

impl std::fmt::Display for CerKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.activity, self.iter)
    }
}

/// A node of the signature cascade: either the designer's signature over the
/// application definition ("Def", called CER(A0) by the paper) or a CER.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredRef {
    /// The application-definition signature (the cascade root).
    Def,
    /// A characteristic execution result.
    Cer(CerKey),
}

impl std::fmt::Display for PredRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredRef::Def => write!(f, "Def"),
            PredRef::Cer(k) => write!(f, "{k}"),
        }
    }
}

impl PredRef {
    /// Parse the `"Def"` / `"A1#0"` forms.
    pub fn parse(s: &str) -> Option<PredRef> {
        if s == "Def" {
            Some(PredRef::Def)
        } else {
            CerKey::parse(s).map(PredRef::Cer)
        }
    }
}

/// Encode a predecessor list as a `preds` attribute value.
pub fn preds_to_attr(preds: &[PredRef]) -> String {
    preds.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",")
}

/// Decode a `preds` attribute value.
pub fn preds_from_attr(s: &str) -> WfResult<Vec<PredRef>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| PredRef::parse(p).ok_or_else(|| WfError::Malformed(format!("bad pred '{p}'"))))
        .collect()
}

/// A borrowed view of one `<CER>` element.
#[derive(Clone, Debug)]
pub struct CerView<'a> {
    /// The underlying element.
    pub element: &'a Element,
    /// Activity + iteration.
    pub key: CerKey,
    /// The executing participant's name.
    pub participant: String,
    /// Cascade predecessors of this CER's signature.
    pub preds: Vec<PredRef>,
}

impl<'a> CerView<'a> {
    fn from_element(el: &'a Element) -> WfResult<CerView<'a>> {
        let activity = el
            .get_attr("activity")
            .ok_or_else(|| WfError::Malformed("CER missing @activity".into()))?;
        let iter: u32 = el
            .get_attr("iter")
            .ok_or_else(|| WfError::Malformed("CER missing @iter".into()))?
            .parse()
            .map_err(|_| WfError::Malformed("CER @iter not a number".into()))?;
        let participant = el
            .get_attr("participant")
            .ok_or_else(|| WfError::Malformed("CER missing @participant".into()))?;
        let preds = preds_from_attr(el.get_attr("preds").unwrap_or_default())?;
        Ok(CerView {
            element: el,
            key: CerKey::new(activity, iter),
            participant: participant.to_string(),
            preds,
        })
    }

    /// The `<Result>` element (present in basic-model CERs and in
    /// advanced-model CERs after TFC processing).
    pub fn result(&self) -> Option<&'a Element> {
        self.element.find_child("Result")
    }

    /// The `<TfcSealed>` element (advanced model).
    pub fn tfc_sealed(&self) -> Option<&'a Element> {
        self.element.find_child("TfcSealed")
    }

    /// The `<Timestamp>` element (advanced model, embedded by the TFC).
    pub fn timestamp(&self) -> Option<&'a Element> {
        self.element.find_child("Timestamp")
    }

    /// Timestamp value in milliseconds, if present.
    pub fn timestamp_millis(&self) -> Option<u64> {
        self.timestamp()?.get_attr("time")?.parse().ok()
    }

    /// All `<Signature>` elements in document order (participant first,
    /// then, in the advanced model, the TFC's).
    pub fn signatures(&self) -> Vec<&'a Element> {
        self.element.find_children(SIGNATURE).collect()
    }

    /// The participant's signature element.
    pub fn participant_signature(&self) -> WfResult<&'a Element> {
        self.signatures()
            .first()
            .copied()
            .ok_or_else(|| WfError::Malformed(format!("CER {} has no signature", self.key)))
    }

    /// The TFC's signature element, when present.
    pub fn tfc_signature(&self) -> Option<&'a Element> {
        self.signatures().get(1).copied()
    }
}

/// A DRA4WfMS document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DraDocument {
    /// The `<DRA4WfMS>` root element.
    pub root: Element,
}

impl DraDocument {
    /// Build the secured initial document `X''_A0 = [ [Def]ee, {[Def]ee}Pri(A0) ]`.
    ///
    /// The designer's credentials must match `def.designer`; the embedded
    /// signature covers the header (process id) and both definition parts.
    pub fn new_initial(
        def: &WorkflowDefinition,
        policy: &SecurityPolicy,
        designer: &Credentials,
    ) -> WfResult<DraDocument> {
        def.validate()?;
        if designer.name != def.designer {
            return Err(WfError::NotParticipant {
                expected: def.designer.clone(),
                actual: designer.name.clone(),
            });
        }
        let mut pid = [0u8; 16];
        dra_crypto::random_bytes(&mut pid);
        Self::new_initial_with_pid(def, policy, designer, &dra_crypto::hex::encode(&pid))
    }

    /// Deterministic variant taking an explicit process id (tests, benches).
    pub fn new_initial_with_pid(
        def: &WorkflowDefinition,
        policy: &SecurityPolicy,
        designer: &Credentials,
        process_id: &str,
    ) -> WfResult<DraDocument> {
        let header = Element::new("Header")
            .child(Element::new("ProcessId").text(process_id))
            .child(Element::new("Schema").text(SCHEMA));
        let app = Element::new("ApplicationDefinition").child(def.to_xml()).child(policy.to_xml());
        let root = Element::new("DRA4WfMS")
            .child(header)
            .child(app)
            .child(Element::new("ActivityResults"));
        let mut doc = DraDocument { root };
        let sig = Covers::Def.sign(&doc, &designer.sign)?;
        doc.root
            .find_child_mut("ApplicationDefinition")
            .ok_or_else(|| WfError::Malformed("missing ApplicationDefinition".into()))?
            .push_child(sig);
        Ok(doc)
    }

    /// Parse a document from its wire form. The parts outside the signed
    /// subtrees — the root, `ApplicationDefinition`, `ActivityResults` and
    /// each `CER` — hold elements only: a text there (white space between
    /// two CERs, say) would spell one signed document a second way, so it is
    /// refused like any other form the writer does not write.
    pub fn parse(xml: &str) -> WfResult<DraDocument> {
        let root = parse(xml).map_err(|e| WfError::Parse(e.to_string()))?;
        let doc = DraDocument { root };
        doc.process_id()?;
        let results = doc.results()?;
        let element_only = [&doc.root, doc.app_definition()?, results];
        let text = |el: &&Element| el.children.iter().any(|n| matches!(n, Node::Text(_)));
        if let Some(el) = element_only.into_iter().chain(results.find_children("CER")).find(text) {
            return Err(WfError::Parse(format!("text inside <{}>", el.name)));
        }
        Ok(doc)
    }

    /// Serialize to the wire form (the bytes whose length is the paper's Σ).
    ///
    /// The units the prefix chain of [`crate::sealed`] pins — `Header`,
    /// `ApplicationDefinition`, each child of `ActivityResults` — memoize
    /// their bytes here, on nodes every later version of the document
    /// shares; it is the memo the chain's digests read. A hop that appended
    /// one CER formats that CER and copies the rest. `ActivityResults` and
    /// the root get no memo, every hop replaces them. (A debug build checks
    /// the result against a walk that reads no memo, in
    /// [`dra_xml::writer::to_string`].)
    pub fn to_xml_string(&self) -> String {
        for section in self.root.child_elements() {
            if section.name == "ActivityResults" {
                section.child_elements().for_each(|cer| _ = cer.wire());
            } else {
                _ = section.wire();
            }
        }
        dra_xml::writer::to_string(&self.root)
    }

    /// Document size in bytes — the Σ column of Tables 1 and 2 — measured
    /// without serializing (a [`crate::sealed::SealedDocument`] answers from
    /// its memoized wire instead).
    pub fn size_bytes(&self) -> usize {
        dra_xml::writer::wire_len(&self.root)
    }

    /// The `<Header>` element.
    pub fn header(&self) -> WfResult<&Element> {
        self.root.find_child("Header").ok_or_else(|| WfError::Malformed("missing Header".into()))
    }

    /// The unique process id (replay-attack defense, §2).
    pub fn process_id(&self) -> WfResult<String> {
        Ok(self
            .header()?
            .find_child("ProcessId")
            .ok_or_else(|| WfError::Malformed("missing ProcessId".into()))?
            .text_content())
    }

    /// The `<ApplicationDefinition>` element.
    pub fn app_definition(&self) -> WfResult<&Element> {
        self.root
            .find_child("ApplicationDefinition")
            .ok_or_else(|| WfError::Malformed("missing ApplicationDefinition".into()))
    }

    /// The `<WorkflowDefinition>` and `<SecurityDefinition>` elements.
    pub fn definition_elements(&self) -> WfResult<(&Element, &Element)> {
        let app = self.app_definition()?;
        let def = app
            .find_child("WorkflowDefinition")
            .ok_or_else(|| WfError::Malformed("missing WorkflowDefinition".into()))?;
        let pol = app
            .find_child("SecurityDefinition")
            .ok_or_else(|| WfError::Malformed("missing SecurityDefinition".into()))?;
        Ok((def, pol))
    }

    /// Parse the embedded workflow definition into an owned, unvalidated
    /// value. Hot paths read the shared, validated parse instead — see
    /// [`crate::amendment::EffectiveDefinition::base`].
    pub fn workflow_definition(&self) -> WfResult<WorkflowDefinition> {
        WorkflowDefinition::from_xml(self.definition_elements()?.0)
    }

    /// Parse the embedded security policy (owned; see
    /// [`DraDocument::workflow_definition`]).
    pub fn security_policy(&self) -> WfResult<SecurityPolicy> {
        SecurityPolicy::from_xml(self.definition_elements()?.1)
    }

    /// The designer's signature element (the cascade root, "Def").
    pub fn designer_signature(&self) -> WfResult<&Element> {
        self.app_definition()?
            .find_child(SIGNATURE)
            .ok_or_else(|| WfError::Malformed("missing designer Signature".into()))
    }

    /// The canonical bytes the designer's signature covers.
    pub fn definition_bytes(&self) -> WfResult<Vec<u8>> {
        let (def, pol) = self.definition_elements()?;
        Ok(canonicalize_all([self.header()?, def, pol]))
    }

    /// The `<ActivityResults>` element.
    pub fn results(&self) -> WfResult<&Element> {
        self.root
            .find_child("ActivityResults")
            .ok_or_else(|| WfError::Malformed("missing ActivityResults".into()))
    }

    /// All CERs in document order — `Set_of_CER(d)` in the paper.
    pub fn cers(&self) -> WfResult<Vec<CerView<'_>>> {
        self.results()?.find_children("CER").map(CerView::from_element).collect()
    }

    /// Find one CER by key.
    pub fn find_cer(&self, key: &CerKey) -> WfResult<Option<CerView<'_>>> {
        Ok(self.cers()?.into_iter().find(|c| c.key == *key))
    }

    /// Latest executed iteration of `activity`, if any.
    pub fn latest_iter(&self, activity: &str) -> WfResult<Option<u32>> {
        Ok(self.cers()?.iter().filter(|c| c.key.activity == activity).map(|c| c.key.iter).max())
    }

    /// Append a finished CER element.
    pub fn push_cer(&mut self, cer: Element) -> WfResult<()> {
        if cer.name != "CER" {
            return Err(WfError::Malformed("push_cer expects a <CER>".into()));
        }
        let results = self
            .root
            .find_child_mut("ActivityResults")
            .ok_or_else(|| WfError::Malformed("missing ActivityResults".into()))?;
        results.push_child(cer);
        Ok(())
    }

    /// Mutable access to the CER element with the given key (latest match
    /// wins, as loop iterations append). Copy-on-write: a CER node shared
    /// with another document is copied first (its children stay shared),
    /// and the canon memos along the path are dropped so later
    /// canonicalization sees the mutation.
    pub fn find_cer_element_mut(&mut self, key: &CerKey) -> WfResult<Option<&mut Element>> {
        let results = self
            .root
            .find_child_mut("ActivityResults")
            .ok_or_else(|| WfError::Malformed("missing ActivityResults".into()))?;
        let iter_s = key.iter.to_string();
        Ok(results.children.iter_mut().rev().find_map(|n| match n {
            Node::Element(e)
                if e.name == "CER"
                    && e.get_attr("activity") == Some(key.activity.as_str())
                    && e.get_attr("iter") == Some(iter_s.as_str()) =>
            {
                let e = Arc::make_mut(e);
                e.invalidate_canon();
                Some(e)
            }
            _ => None,
        }))
    }

    /// Append CER `key`, executed by `signer` over `body` (`<Result>`, or
    /// `<TfcSealed>` in the advanced model) after `preds`, with its cascade
    /// signature: the one place a `<CER>` is assembled.
    pub(crate) fn push_signed_cer(
        &mut self,
        key: &CerKey,
        signer: &Credentials,
        body: Element,
        preds: &[PredRef],
    ) -> WfResult<()> {
        let cer = Element::new("CER")
            .attr("activity", key.activity.clone())
            .attr("iter", key.iter.to_string())
            .attr("participant", signer.name.clone())
            .attr("preds", preds_to_attr(preds))
            .child(body);
        let sig = Covers::Cer(&CerView::from_element(&cer)?).sign(self, &signer.sign)?;
        self.push_cer(cer.child(sig))
    }

    /// Compute the cascade predecessors for executing `activity` now:
    /// the latest CER of every control-flow predecessor that has executed,
    /// or `[Def]` when none has (the first activity). If the document
    /// carries dynamic amendments (see [`crate::amendment`]), the latest
    /// amendment CER is always covered too — a participant signs the rules
    /// in force at execution time, so stripping an amendment afterwards
    /// breaks the cascade.
    pub fn compute_preds(
        &self,
        def: &WorkflowDefinition,
        activity: &str,
    ) -> WfResult<Vec<PredRef>> {
        let mut preds = Vec::new();
        for inc in def.incoming(activity) {
            if let Some(iter) = self.latest_iter(inc)? {
                preds.push(PredRef::Cer(CerKey::new(inc.clone(), iter)));
            }
        }
        if let Some(iter) = self.latest_iter(crate::amendment::AMEND_PREFIX)? {
            preds.push(PredRef::Cer(CerKey::new(crate::amendment::AMEND_PREFIX.to_string(), iter)));
        }
        if preds.is_empty() {
            preds.push(PredRef::Def);
        }
        preds.sort();
        preds.dedup();
        Ok(preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Directory;
    use crate::model::Condition;
    use crate::verify::Verifier;

    fn fixture() -> (WorkflowDefinition, SecurityPolicy, Credentials) {
        let def = WorkflowDefinition::builder("order", "designer")
            .simple_activity("A", "peter", &["decision"])
            .simple_activity("B", "amy", &["sign-off"])
            .flow("A", "B")
            .flow_if("B", "A", Condition::field_equals("B", "sign-off", "reject"))
            .flow_end_if("B", Condition::field_not_equals("B", "sign-off", "reject"))
            .build()
            .unwrap();
        let policy = SecurityPolicy::builder().restrict("A", "decision", &["amy"]).build();
        let designer = Credentials::from_seed("designer", "d");
        (def, policy, designer)
    }

    #[test]
    fn initial_document_structure() {
        let (def, policy, designer) = fixture();
        let doc = DraDocument::new_initial_with_pid(&def, &policy, &designer, "pid-1").unwrap();
        assert_eq!(doc.process_id().unwrap(), "pid-1");
        assert!(doc.cers().unwrap().is_empty());
        assert_eq!(doc.workflow_definition().unwrap(), def);
        assert_eq!(doc.security_policy().unwrap(), policy);
    }

    #[test]
    fn designer_signature_verifies() {
        let (def, policy, designer) = fixture();
        let doc = DraDocument::new_initial_with_pid(&def, &policy, &designer, "pid-1").unwrap();
        let dir = Directory::from_credentials([&designer]);
        assert_eq!(Verifier::new(&dir).run(&doc).unwrap().report.signatures_verified, 1);
    }

    #[test]
    fn wrong_designer_rejected() {
        let (def, policy, _) = fixture();
        let mallory = Credentials::from_seed("mallory", "m");
        assert!(matches!(
            DraDocument::new_initial(&def, &policy, &mallory),
            Err(WfError::NotParticipant { .. })
        ));
    }

    #[test]
    fn random_process_ids_differ() {
        let (def, policy, designer) = fixture();
        let d1 = DraDocument::new_initial(&def, &policy, &designer).unwrap();
        let d2 = DraDocument::new_initial(&def, &policy, &designer).unwrap();
        assert_ne!(d1.process_id().unwrap(), d2.process_id().unwrap());
    }

    #[test]
    fn parse_roundtrip() {
        let (def, policy, designer) = fixture();
        let doc = DraDocument::new_initial_with_pid(&def, &policy, &designer, "pid-2").unwrap();
        let wire = doc.to_xml_string();
        let parsed = DraDocument::parse(&wire).unwrap();
        assert_eq!(parsed.process_id().unwrap(), "pid-2");
        // signature still verifies against re-canonicalized bytes
        let dir = Directory::from_credentials([&designer]);
        assert!(Verifier::new(&dir).run(&parsed).is_ok());
        // white space between two sections is a second spelling: refused
        let twin = wire.replacen("<ActivityResults", "\n<ActivityResults", 1);
        let err = DraDocument::parse(&twin).unwrap_err();
        assert!(matches!(&err, WfError::Parse(m) if m.contains("<DRA4WfMS>")), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DraDocument::parse("<NotADoc/>").is_err());
        assert!(DraDocument::parse("not xml at all").is_err());
        assert!(DraDocument::parse("<DRA4WfMS/>").is_err(), "missing sections");
    }

    #[test]
    fn cer_key_parsing() {
        assert_eq!(CerKey::parse("A1#3"), Some(CerKey::new("A1", 3)));
        assert_eq!(CerKey::parse("A1"), None);
        assert_eq!(CerKey::parse("A1#x"), None);
        assert_eq!(CerKey::new("B", 2).to_string(), "B#2");
    }

    #[test]
    fn preds_attr_roundtrip() {
        let preds = vec![
            PredRef::Def,
            PredRef::Cer(CerKey::new("A", 0)),
            PredRef::Cer(CerKey::new("B2", 1)),
        ];
        let attr = preds_to_attr(&preds);
        assert_eq!(attr, "Def,A#0,B2#1");
        assert_eq!(preds_from_attr(&attr).unwrap(), preds);
        assert!(preds_from_attr("garbage!").is_err());
        assert_eq!(preds_from_attr("").unwrap(), Vec::<PredRef>::new());
    }

    #[test]
    fn compute_preds_initial_and_loop() {
        let (def, policy, designer) = fixture();
        let mut doc = DraDocument::new_initial_with_pid(&def, &policy, &designer, "pid-3").unwrap();
        // Before any execution: first activity's preds = [Def].
        assert_eq!(doc.compute_preds(&def, "A").unwrap(), vec![PredRef::Def]);
        // Simulate A#0 executed (structure only, no signature needed here).
        doc.push_cer(
            Element::new("CER")
                .attr("activity", "A")
                .attr("iter", "0")
                .attr("participant", "peter")
                .attr("preds", "Def"),
        )
        .unwrap();
        assert_eq!(doc.compute_preds(&def, "B").unwrap(), vec![PredRef::Cer(CerKey::new("A", 0))]);
        // Simulate B#0 executed; loop back to A: pred is B#0.
        doc.push_cer(
            Element::new("CER")
                .attr("activity", "B")
                .attr("iter", "0")
                .attr("participant", "amy")
                .attr("preds", "A#0"),
        )
        .unwrap();
        assert_eq!(doc.compute_preds(&def, "A").unwrap(), vec![PredRef::Cer(CerKey::new("B", 0))]);
        assert_eq!(doc.latest_iter("A").unwrap(), Some(0));
        assert_eq!(doc.latest_iter("ZZ").unwrap(), None);
    }

    #[test]
    fn rewriting_one_cer_formats_that_cer_and_the_sibling_document_keeps_its_bytes() {
        let (def, policy, designer) = fixture();
        let mut doc = DraDocument::new_initial_with_pid(&def, &policy, &designer, "pid-5").unwrap();
        for (activity, participant) in [("A", "peter"), ("B", "amy")] {
            let cer = Element::new("CER")
                .attr("activity", activity)
                .attr("iter", "0")
                .attr("participant", participant)
                .attr("preds", "Def");
            doc.push_cer(cer.child(Element::new("TfcSealed").text("c2VhbGVk"))).unwrap();
        }
        let before = doc.to_xml_string();
        dra_xml::wire_written_bytes_reset();
        assert_eq!(doc.clone().to_xml_string(), before);
        let around = dra_xml::wire_written_bytes();
        assert!(around < 64, "every unit copied: {around} B of root and section tags");

        // what the TFC's finalisation does to an intermediate CER
        let (mut copy, key) = (doc.clone(), CerKey::new("A", 0));
        let cer = copy.find_cer_element_mut(&key).unwrap().unwrap();
        cer.push_child(Element::new("Timestamp").attr("time", "7"));
        dra_xml::wire_written_bytes_reset();
        let after = copy.to_xml_string();
        let rewritten = copy.find_cer(&key).unwrap().unwrap().element.wire().len() as u64;
        assert_eq!(dra_xml::wire_written_bytes(), rewritten + around, "one CER, nothing else");
        assert!(after.contains("<Timestamp time=\"7\"/></CER><CER activity=\"B\""));
        assert_eq!(DraDocument::parse(&after).unwrap().to_xml_string(), after, "as a cold tree");

        dra_xml::wire_written_bytes_reset();
        assert_eq!(doc.to_xml_string(), before, "the sibling never sees the rewrite");
        assert_eq!(dra_xml::wire_written_bytes(), around);
    }

    #[test]
    fn push_cer_rejects_non_cer() {
        let (def, policy, designer) = fixture();
        let mut doc = DraDocument::new_initial_with_pid(&def, &policy, &designer, "pid-4").unwrap();
        assert!(doc.push_cer(Element::new("NotCer")).is_err());
    }
}
