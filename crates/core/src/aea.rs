//! The Activity Execution Agent (AEA).
//!
//! "A software tool … to activate the execution of activities. First, the
//! AEA parses X_Ai and verifies all the embedded digital signatures … Second,
//! the AEA checks if the participant is the correct executor of this
//! activity. Third, the AEA … shows them to the participant … Fourth, the AEA
//! appends the execution result … Fifth, the AEA embeds a digital signature
//! that signs the execution result and some of the digital signatures
//! embedded in previous activities … Finally, the AEA checks the control
//! flow information … and forwards X''_Ai" (§2.1).
//!
//! The API splits along the paper's measurement boundaries so Tables 1 and 2
//! can be regenerated exactly:
//!
//! * [`Aea::receive`] — parse + verify + decrypt (the α column),
//! * [`Aea::complete`] / [`Aea::complete_via_tfc`] — encrypt + sign
//!   (+ route) (the β column).

use crate::amendment::EffectiveDefinition;
use crate::document::{CerKey, DraDocument, PredRef};
use crate::error::{WfError, WfResult};
use crate::faultpoint::{site, CrashHook};
use crate::fields::{build_plain_result_element, build_result_element};
use crate::flow::DocFieldReader;
use crate::identity::{ActorKeys, Credentials, Directory, PeerSecrets};
use crate::model::FieldRef;
use crate::sealed::{SealedDocument, TrustMark};
use crate::semantics::{and_join_missing, route, Route};
use crate::verify::{VerificationReport, Verifier};
use dra_obs::{stage, Tracer};
use dra_xml::canon::canonicalize;
use dra_xml::Element;
use std::sync::Arc;

/// An Activity Execution Agent bound to one participant's credentials.
pub struct Aea {
    /// The participant's secret key material.
    pub creds: Credentials,
    /// The deployment PKI.
    pub directory: Directory,
    /// Crash-fault injection seam; `None` outside fault experiments.
    crash_hook: Option<CrashHook>,
    /// Span recorder; disabled (free) unless [`Aea::with_tracer`] is used.
    tracer: Tracer,
    /// Batch the signature checks of [`Aea::receive`] (default on); see
    /// [`crate::verify::Verifier::batched`]. Off reproduces the paper's
    /// per-signature baseline for measurements.
    batched: bool,
    /// The static Diffie-Hellman secrets shared with peers. The one shared
    /// with the TFC keys [`Aea::complete_via_tfc`]'s result and opens this
    /// participant's copy of a field the TFC re-encrypted. One ladder per
    /// peer key, not per hop.
    peers: PeerSecrets,
}

/// The outcome of [`Aea::receive`]: a verified document opened for one
/// activity execution, with the request fields the participant may see.
#[derive(Debug)]
pub struct ReceivedActivity {
    /// The verified document; its nodes are shared with the document that
    /// was received, not copied.
    pub doc: DraDocument,
    /// The workflow definition and security policy in force (amendments
    /// folded in), shared with every other holder of the same content.
    pub definition: Arc<EffectiveDefinition>,
    /// The activity to execute.
    pub activity: String,
    /// Its iteration number (0-based; >0 inside loops).
    pub iter: u32,
    /// Cascade predecessors the new CER will sign.
    pub preds: Vec<PredRef>,
    /// Request fields decrypted for display to the participant.
    pub visible: Vec<(FieldRef, String)>,
    /// Request fields the participant's keys cannot open.
    pub hidden: Vec<FieldRef>,
    /// The verification report (signature counts etc.).
    pub report: VerificationReport,
    /// Trust mark pinning the document as verified by this receive; it
    /// travels with the completed document so the next hop re-checks only
    /// the CER this activity appends.
    pub trust: TrustMark,
    /// CERs whose signatures were skipped thanks to an incoming trust mark.
    pub reused_cers: usize,
}

/// The outcome of [`Aea::complete`] in the basic model.
#[derive(Debug)]
pub struct CompletedActivity {
    /// The new document `X''_Ai(k)`, sealed with a trust mark covering
    /// everything but the CER just appended.
    pub document: SealedDocument,
    /// Where to forward it.
    pub route: Route,
    /// The CER just appended.
    pub key: CerKey,
}

/// The outcome of [`Aea::complete_via_tfc`]: an intermediate document whose
/// fresh result is sealed to the TFC server.
#[derive(Debug)]
pub struct IntermediateActivity {
    /// The intermediate document `X^~_Ai(k)`, sealed with a trust mark
    /// covering everything but the CER just appended.
    pub document: SealedDocument,
    /// The CER just appended (intermediate form).
    pub key: CerKey,
}

impl Aea {
    /// Create an AEA for a participant.
    pub fn new(creds: Credentials, directory: Directory) -> Aea {
        Aea {
            creds,
            directory,
            crash_hook: None,
            tracer: Tracer::disabled(),
            batched: true,
            peers: PeerSecrets::default(),
        }
    }

    /// Record `verify` / `decrypt` / `seal` / `sign` spans into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Aea {
        self.tracer = tracer;
        self
    }

    /// Enable or disable batched signature verification on receive
    /// (default on). The verdict is identical either way; off measures the
    /// paper's per-signature baseline.
    pub fn with_batched(mut self, on: bool) -> Aea {
        self.batched = on;
        self
    }

    /// Arm this AEA with a crash-injection hook (see [`crate::faultpoint`]).
    /// The hook is consulted at every named site; when it returns
    /// [`WfError::Crash`], the operation aborts there, losing all in-flight
    /// state, and the caller's recovery machinery takes over.
    pub fn with_crash_hook(mut self, hook: CrashHook) -> Aea {
        self.crash_hook = Some(hook);
        self
    }

    fn crash_point(&self, site: &str) -> WfResult<()> {
        match &self.crash_hook {
            Some(hook) => hook(site),
            None => Ok(()),
        }
    }

    /// This participant's keys: what it builds results with and reads
    /// fields through.
    pub fn keys(&self) -> ActorKeys<'_> {
        ActorKeys { creds: &self.creds, directory: &self.directory, peers: &self.peers }
    }

    /// Receive a routed document and open `activity` for execution.
    ///
    /// This is the paper's α phase: verify every embedded signature, check
    /// the executor, decrypt the request fields. A caller holding wire bytes
    /// parses them first ([`SealedDocument::from_wire`]); an AND-join's
    /// arrivals are merged first ([`crate::flow::merge_sealed`]). A document
    /// carrying a [`TrustMark`] is verified incrementally: only the CERs
    /// appended since the mark was issued are re-checked (after proving the
    /// marked prefix byte-identical via its digest). A document without one
    /// takes the full verification pass — there is no way to skip it.
    pub fn receive(&self, sealed: SealedDocument, activity: &str) -> WfResult<ReceivedActivity> {
        let mut span_verify = self.tracer.span(stage::VERIFY).actor(&self.creds.name);
        let outcome = Verifier::new(&self.directory)
            .batched(self.batched)
            .with_mark(sealed.trust())
            .run(&sealed)?;
        let report = outcome.report;
        if report.ends_with_intermediate {
            return Err(WfError::Malformed(
                "document ends with a TFC-bound intermediate CER; it must be processed by the TFC first"
                    .into(),
            ));
        }
        let trust = outcome
            .mark
            .ok_or_else(|| WfError::Verify("incremental verification issued no mark".into()))?;
        let reused_cers = outcome.reused_cers;
        let doc = sealed.into_document();
        // dynamic flow control: fold any (already verified) amendments into
        // the effective definition and policy
        let definition = crate::amendment::effective_definition(&doc)?;
        let def = &definition.def;

        let act = def.activity(activity)?.clone();
        if act.participant != self.creds.name {
            return Err(WfError::NotParticipant {
                expected: act.participant,
                actual: self.creds.name.clone(),
            });
        }
        if and_join_missing(def, activity, |a| doc.latest_iter(a))?.is_some() {
            return Err(WfError::Flow(format!(
                "AND-join '{activity}' is not ready: not all incoming branches have arrived"
            )));
        }

        let iter = match doc.latest_iter(activity)? {
            Some(i) => i + 1,
            None => 0,
        };
        span_verify.set_process(&report.process_id);
        span_verify.set_activity(activity, iter);
        span_verify.attr("signatures_verified", report.signatures_verified);
        span_verify.attr("reused_cers", reused_cers);
        span_verify.end();
        let preds = doc.compute_preds(def, activity)?;

        // decrypt the request fields
        let mut span_decrypt = self
            .tracer
            .span(stage::DECRYPT)
            .actor(&self.creds.name)
            .process(&report.process_id)
            .activity(activity, iter);
        let mut visible = Vec::new();
        let mut hidden = Vec::new();
        {
            let keys = self.keys();
            let reader = DocFieldReader::for_actor(&doc, &keys);
            use crate::fields::FieldReader;
            for req in &act.requests {
                match reader.read_field(&req.activity, &req.field) {
                    Ok(Some(v)) => visible.push((req.clone(), v)),
                    Ok(None) => {} // not produced yet (e.g. first loop pass)
                    Err(WfError::FieldNotReadable { .. }) => hidden.push(req.clone()),
                    Err(e) => return Err(e),
                }
            }
        }

        span_decrypt.attr("visible", visible.len());
        span_decrypt.attr("hidden", hidden.len());
        span_decrypt.end();

        self.crash_point(site::AEA_AFTER_VERIFY)?;
        Ok(ReceivedActivity {
            doc,
            definition,
            activity: activity.to_string(),
            iter,
            preds,
            visible,
            hidden,
            report,
            trust,
            reused_cers,
        })
    }

    fn check_responses(
        received: &ReceivedActivity,
        responses: &[(String, String)],
    ) -> WfResult<()> {
        let act = received.definition.def.activity(&received.activity)?;
        for (name, _) in responses {
            if !act.responses.contains(name) {
                return Err(WfError::Flow(format!(
                    "activity '{}' does not declare response field '{name}'",
                    received.activity
                )));
            }
        }
        for declared in &act.responses {
            if !responses.iter().any(|(n, _)| n == declared) {
                return Err(WfError::Flow(format!(
                    "response field '{declared}' of activity '{}' not provided",
                    received.activity
                )));
            }
        }
        Ok(())
    }

    /// Complete the activity under the **basic operational model** (§2.1):
    /// element-wise encrypt the responses per the security policy, embed the
    /// cascade signature, and compute the route.
    ///
    /// This is the paper's β phase.
    pub fn complete(
        &self,
        received: &ReceivedActivity,
        responses: &[(String, String)],
    ) -> WfResult<CompletedActivity> {
        Self::check_responses(received, responses)?;
        let keys = self.keys();
        let reader = DocFieldReader::for_actor(&received.doc, &keys)
            .with_overlay(&received.activity, responses);
        let span_seal = self
            .tracer
            .span(stage::SEAL)
            .actor(&self.creds.name)
            .process(&received.report.process_id)
            .activity(&received.activity, received.iter);
        let result = build_result_element(
            &received.activity,
            responses,
            &received.definition.policy,
            &keys,
            &self.creds.name,
            &reader,
        )?;
        span_seal.end();

        // shares every node with `received.doc`; push_signed_cer below
        // copies only the ActivityResults child vector
        let mut document = received.doc.clone();
        let key = CerKey::new(received.activity.clone(), received.iter);
        let mut span_sign = self
            .tracer
            .span(stage::SIGN)
            .actor(&self.creds.name)
            .process(&received.report.process_id)
            .activity(&received.activity, received.iter);
        self.crash_point(site::AEA_BEFORE_SIGN)?;
        document.push_signed_cer(&key, &self.creds, result, &received.preds)?;
        span_sign.attr("model", "basic");
        span_sign.end();

        let route =
            route(&received.definition.def, &received.activity, Some(received.iter), &reader)?;
        self.crash_point(site::AEA_AFTER_SIGN)?;
        // The prefix pinned at receive time is untouched by push_cer, so the
        // mark stays valid: the next hop re-verifies exactly this new CER.
        let document = SealedDocument::with_trust(document, received.trust.clone());
        Ok(CompletedActivity { document, route, key })
    }

    /// Complete the activity under the **advanced operational model** (§2.2):
    /// seal the plaintext result for the TFC server and embed the cascade
    /// signature over the sealed blob. The TFC will re-encrypt per
    /// policy, timestamp, attest and route.
    ///
    /// This is the β column of Table 2.
    pub fn complete_via_tfc(
        &self,
        received: &ReceivedActivity,
        responses: &[(String, String)],
    ) -> WfResult<IntermediateActivity> {
        Self::check_responses(received, responses)?;
        let tfc_name = received
            .definition
            .def
            .tfc
            .as_deref()
            .ok_or_else(|| WfError::Policy("workflow definition names no TFC server".into()))?;
        let tfc_id = self.directory.get(tfc_name)?;

        // {{R_Ai}}Pub(TFC): the plaintext result, in a static box under the
        // Diffie-Hellman secret this participant and the TFC share — only
        // the two of them can open it, neither spends a ladder on it. Its
        // nonce is synthetic, so a crashed agent re-executing the same hop
        // emits byte-identical bytes — the idempotent-digest machinery then
        // recognises the dead agent's copy and the takeover copy as one.
        let plain = build_plain_result_element(responses);
        let key = CerKey::new(received.activity.clone(), received.iter);
        let mut span_seal = self
            .tracer
            .span(stage::SEAL)
            .actor(&self.creds.name)
            .process(&received.report.process_id)
            .activity(&received.activity, received.iter);
        let sealed = dra_crypto::sealed::seal_static_synthetic(
            &self.keys().shared_with_key(&tfc_id.enc),
            result_context(&received.report.process_id, &key).as_bytes(),
            &canonicalize(&plain),
        );
        span_seal.attr("tfc", tfc_name);
        span_seal.end();
        let sealed_el =
            Element::new("TfcSealed").attr("tfc", tfc_name).text(dra_crypto::b64::encode(&sealed));

        let mut document = received.doc.clone();
        let mut span_sign = self
            .tracer
            .span(stage::SIGN)
            .actor(&self.creds.name)
            .process(&received.report.process_id)
            .activity(&received.activity, received.iter);
        self.crash_point(site::AEA_BEFORE_SIGN)?;
        document.push_signed_cer(&key, &self.creds, sealed_el, &received.preds)?;
        span_sign.attr("model", "advanced");
        span_sign.end();

        self.crash_point(site::AEA_AFTER_SIGN)?;
        let document = SealedDocument::with_trust(document, received.trust.clone());
        Ok(IntermediateActivity { document, key })
    }
}

/// What the AEA→TFC result of activity `key` in process `pid` is bound to.
pub(crate) fn result_context(pid: &str, key: &CerKey) -> String {
    format!("TfcSealed/{pid}/{key}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{JoinKind, WorkflowDefinition};
    use crate::policy::SecurityPolicy;

    fn setup() -> (WorkflowDefinition, SecurityPolicy, Credentials, Vec<Credentials>, Directory) {
        let designer = Credentials::from_seed("designer", "d");
        let peter = Credentials::from_seed("peter", "p");
        let amy = Credentials::from_seed("amy", "a");
        let def = WorkflowDefinition::builder("review", "designer")
            .simple_activity("A", "peter", &["amount", "note"])
            .activity(crate::model::Activity {
                id: "B".into(),
                participant: "amy".into(),
                join: JoinKind::Any,
                requests: vec![FieldRef::new("A", "amount"), FieldRef::new("A", "note")],
                responses: vec!["decision".into()],
            })
            .flow("A", "B")
            .flow_end("B")
            .build()
            .unwrap();
        let policy = SecurityPolicy::builder().restrict("A", "amount", &["amy"]).build();
        let dir = Directory::from_credentials([&designer, &peter, &amy]);
        (def, policy, designer, vec![peter, amy], dir)
    }

    fn initial(
        def: &WorkflowDefinition,
        pol: &SecurityPolicy,
        designer: &Credentials,
    ) -> SealedDocument {
        wire(&DraDocument::new_initial_with_pid(def, pol, designer, "pid-test").unwrap())
    }

    /// What a receiver of `doc`'s bytes holds: the wire parsed, no mark.
    fn wire(doc: &DraDocument) -> SealedDocument {
        SealedDocument::from_wire(&doc.to_xml_string()).unwrap()
    }

    #[test]
    fn basic_model_end_to_end() {
        let (def, pol, designer, people, dir) = setup();
        let aea_peter = Aea::new(people[0].clone(), dir.clone());
        let aea_amy = Aea::new(people[1].clone(), dir.clone());

        // Peter executes A.
        let recv = aea_peter.receive(initial(&def, &pol, &designer), "A").unwrap();
        assert_eq!(recv.iter, 0);
        assert_eq!(recv.preds, vec![PredRef::Def]);
        let done = aea_peter
            .complete(&recv, &[("amount".into(), "9000".into()), ("note".into(), "urgent".into())])
            .unwrap();
        assert_eq!(done.route.targets, vec!["B"]);
        assert_eq!(done.key, CerKey::new("A", 0));

        // Amy executes B; sees both fields (amount encrypted to her).
        let recv = aea_amy.receive(wire(&done.document), "B").unwrap();
        assert_eq!(recv.report.signatures_verified, 2, "designer + peter");
        assert_eq!(recv.visible.len(), 2);
        assert!(recv.visible.iter().any(|(f, v)| f.field == "amount" && v == "9000"));
        assert!(recv.hidden.is_empty());
        let done = aea_amy.complete(&recv, &[("decision".into(), "approve".into())]).unwrap();
        assert!(done.route.ends);
        assert!(done.route.is_final());
        assert_eq!(done.document.cers().unwrap().len(), 2);
    }

    #[test]
    fn wrong_participant_rejected() {
        let (def, pol, designer, people, dir) = setup();
        let aea_amy = Aea::new(people[1].clone(), dir);
        let err = aea_amy.receive(initial(&def, &pol, &designer), "A").unwrap_err();
        assert!(matches!(err, WfError::NotParticipant { expected, .. } if expected == "peter"));
    }

    #[test]
    fn tampered_document_rejected_on_receive() {
        let (def, pol, designer, people, dir) = setup();
        let aea_peter = Aea::new(people[0].clone(), dir.clone());
        let aea_amy = Aea::new(people[1].clone(), dir);
        let recv = aea_peter.receive(initial(&def, &pol, &designer), "A").unwrap();
        let done = aea_peter
            .complete(&recv, &[("amount".into(), "9000".into()), ("note".into(), "x".into())])
            .unwrap();
        // Mallory intercepts the document in flight and alters the public note.
        let tampered = done.document.to_xml_string().replace(">x<", ">y<");
        assert_ne!(tampered, done.document.to_xml_string());
        let err = aea_amy.receive(SealedDocument::from_wire(&tampered).unwrap(), "B").unwrap_err();
        assert!(matches!(err, WfError::Verify(_)), "alteration detected: {err}");
    }

    #[test]
    fn undeclared_response_rejected() {
        let (def, pol, designer, people, dir) = setup();
        let aea_peter = Aea::new(people[0].clone(), dir);
        let recv = aea_peter.receive(initial(&def, &pol, &designer), "A").unwrap();
        let err = aea_peter.complete(&recv, &[("bogus".into(), "1".into())]).unwrap_err();
        assert!(matches!(err, WfError::Flow(_)));
    }

    #[test]
    fn missing_response_rejected() {
        let (def, pol, designer, people, dir) = setup();
        let aea_peter = Aea::new(people[0].clone(), dir);
        let recv = aea_peter.receive(initial(&def, &pol, &designer), "A").unwrap();
        let err = aea_peter.complete(&recv, &[("amount".into(), "1".into())]).unwrap_err();
        assert!(matches!(err, WfError::Flow(m) if m.contains("note")));
    }

    #[test]
    fn replaying_cer_into_other_process_fails() {
        // The cascade signature covers the header (process id): a CER copied
        // into a different process instance must not verify.
        let (def, pol, designer, people, dir) = setup();
        let aea_peter = Aea::new(people[0].clone(), dir.clone());
        let recv = aea_peter.receive(initial(&def, &pol, &designer), "A").unwrap();
        let done = aea_peter
            .complete(&recv, &[("amount".into(), "1".into()), ("note".into(), "n".into())])
            .unwrap();

        // fresh instance of the same workflow, different process id
        let mut other =
            DraDocument::new_initial_with_pid(&def, &pol, &designer, "pid-other").unwrap();
        let stolen = done.document.cers().unwrap().first().unwrap().element.clone();
        other.push_cer(stolen).unwrap();
        let aea_amy = Aea::new(people[1].clone(), dir);
        let err = aea_amy.receive(wire(&other), "B").unwrap_err();
        assert!(matches!(err, WfError::Verify(_)), "replay detected: {err}");
    }

    #[test]
    fn hidden_requests_reported() {
        // amount is restricted to amy; if the designer (mis)wires it into a
        // third participant's requests, the AEA reports it as hidden.
        let designer = Credentials::from_seed("designer", "d");
        let peter = Credentials::from_seed("peter", "p");
        let tony = Credentials::from_seed("tony", "t");
        let amy = Credentials::from_seed("amy", "a");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "peter", &["amount"])
            .activity(crate::model::Activity {
                id: "B".into(),
                participant: "tony".into(),
                join: JoinKind::Any,
                requests: vec![FieldRef::new("A", "amount")],
                responses: vec!["ok".into()],
            })
            .flow("A", "B")
            .flow_end("B")
            .build()
            .unwrap();
        let pol = SecurityPolicy::builder().restrict("A", "amount", &["amy"]).build();
        let dir = Directory::from_credentials([&designer, &peter, &tony, &amy]);
        let aea_peter = Aea::new(peter, dir.clone());
        let recv = aea_peter
            .receive(
                wire(&DraDocument::new_initial_with_pid(&def, &pol, &designer, "pid").unwrap()),
                "A",
            )
            .unwrap();
        let done = aea_peter.complete(&recv, &[("amount".into(), "5".into())]).unwrap();
        let aea_tony = Aea::new(tony, dir);
        let recv = aea_tony.receive(wire(&done.document), "B").unwrap();
        assert!(recv.visible.is_empty());
        assert_eq!(recv.hidden, vec![FieldRef::new("A", "amount")]);
    }
}
