//! The Timestamp & Flow Control (TFC) server of the advanced operational
//! model (§2.2).
//!
//! "The DRA4WfMS document processed by an AEA is first sent to a timestamp
//! and flow control server (TFC server), which is analogous to a notary
//! public and has legal authority to witness the finish time of the
//! activity. Note that a TFC server is **not** a workflow engine as it only
//! embeds timestamps to DRA4WfMS documents and helps with their forwarding."
//!
//! On receiving an intermediate document the TFC: verifies every signature,
//! unseals the fresh result (`{{R}}Pub(TFC)`), re-encrypts it element-wise
//! per the security policy — resolving conditional audiences and evaluating
//! OR-split guards the participant was not allowed to see (the Fig. 4
//! problem) — embeds a timestamp, signs its attestation, and routes the
//! final document. It keeps that document's wire as a branch head
//! ([`Heads`]) while a routed target has still to extend it, so the next
//! AEA's hand-off travels as a delta against it ([`TfcServer::arrived`]).
//!
//! The API mirrors the Table 2 measurement boundaries:
//! [`TfcServer::receive`] is the TFC's share of the α column and
//! [`TfcServer::finalize`] is the γ column.

use crate::aea::result_context;
use crate::amendment::EffectiveDefinition;
use crate::covers::Covers;
use crate::document::{CerKey, CerView, DraDocument};
use crate::error::{WfError, WfResult};
use crate::faultpoint::{site, CrashHook};
use crate::fields::{build_result_element, plain_fields};
use crate::flow::DocFieldReader;
use crate::identity::{ActorKeys, Credentials, Directory, PeerSecrets};
use crate::sealed::{chain_next, prefix_digest, Heads, SealedDocument, TrustMark};
use crate::semantics::{route, Route};
use crate::verify::Verifier;
use dra_obs::{stage, Tracer};
use dra_xml::Element;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Clock abstraction so tests and benches can pin timestamps.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// One redo-log entry, keyed by the chained digest of the intermediate
/// document being finalized ([`TfcReceived`]'s `redo_key`). The timestamp
/// intent is logged *before* the finalize work; the finalized CER and the
/// route are recorded after — the one node finalization made, not the
/// document around it, which every resend brings along. A TFC that crashes
/// in between re-finalizes with the logged timestamp instead of drawing a
/// fresh one — no double-timestamp, byte-identical output.
struct RedoEntry {
    timestamp: u64,
    finalized: Option<(Element, Route)>,
}

/// A TFC server instance.
pub struct TfcServer {
    /// The TFC's key material.
    pub creds: Credentials,
    /// The deployment PKI.
    pub directory: Directory,
    clock: Clock,
    /// Crash-fault injection seam; `None` outside fault experiments.
    crash_hook: Option<CrashHook>,
    /// Redo log: stable storage next to the TFC's keys. A production
    /// deployment would truncate it at checkpoints; here it holds one
    /// finalized CER per document finalized over the server's lifetime.
    redo: Mutex<HashMap<[u8; 32], RedoEntry>>,
    redo_reuses: AtomicU64,
    /// The wire of every document it finalized that a routed target has
    /// still to extend: what an AEA's delta hand-off is rebuilt from. Memory,
    /// not stable storage.
    heads: Mutex<Heads<Arc<String>>>,
    /// The static Diffie-Hellman secret shared with each participant: opens
    /// its sealed results and keys its copy of what it produced.
    peers: PeerSecrets,
    /// Span recorder; disabled (free) unless [`TfcServer::with_tracer`] is
    /// used.
    tracer: Tracer,
}

/// A verified, unsealed intermediate document awaiting finalization.
#[derive(Debug)]
pub struct TfcReceived {
    /// The intermediate document; its nodes are shared with the document
    /// that was received, not copied.
    pub doc: DraDocument,
    /// The workflow definition and security policy in force (amendments
    /// folded in), shared with every other holder of the same content.
    pub definition: Arc<EffectiveDefinition>,
    /// The intermediate CER being finalized.
    pub key: CerKey,
    /// Its executing participant.
    pub participant: String,
    /// The unsealed plaintext responses.
    pub responses: Vec<(String, String)>,
    /// Report of the verification pass that admitted this document
    /// (`signatures_verified` counts only the checks spent this pass).
    pub report: crate::verify::VerificationReport,
    /// Trust mark covering every CER *before* the intermediate one.
    /// Finalization mutates the intermediate CER in place, so the onward
    /// mark must stop just short of it — the next hop then re-checks
    /// exactly the finalized CER (participant signature + attestation).
    pub trust: TrustMark,
    /// The redo-log key: the chained prefix digest over the *whole*
    /// intermediate document (see [`crate::sealed`]), which the verification
    /// pass computed for its fresh mark. It commits to every canonical byte
    /// of the header, the definition and each CER, so two arrivals share a
    /// log entry exactly when they are the same document up to formatting
    /// around the signed subtrees.
    redo_key: [u8; 32],
}

/// A finalized document ready to forward.
#[derive(Debug)]
pub struct TfcProcessed {
    /// The final document `X''_Ai(k)`, sealed with a trust mark covering
    /// everything but the CER the TFC just finalized.
    pub document: SealedDocument,
    /// Routing decided by the TFC.
    pub route: Route,
    /// The finalized CER.
    pub key: CerKey,
    /// The embedded timestamp (ms).
    pub timestamp: u64,
}

impl TfcServer {
    /// Create a TFC server with the system clock.
    pub fn new(creds: Credentials, directory: Directory) -> TfcServer {
        Self::with_clock(
            creds,
            directory,
            Arc::new(|| {
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0)
            }),
        )
    }

    /// Create a TFC server with an injected clock (tests, reproducibility).
    pub fn with_clock(creds: Credentials, directory: Directory, clock: Clock) -> TfcServer {
        TfcServer {
            creds,
            directory,
            clock,
            crash_hook: None,
            redo: Mutex::new(HashMap::new()),
            redo_reuses: AtomicU64::new(0),
            heads: Mutex::default(),
            peers: PeerSecrets::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Arm this TFC with a crash-injection hook (see [`crate::faultpoint`]).
    pub fn with_crash_hook(mut self, hook: CrashHook) -> TfcServer {
        self.crash_hook = Some(hook);
        self
    }

    /// Record `verify` / `tfc:timestamp` / `tfc:reencrypt` spans into
    /// `tracer`. Every [`TfcServer::finalize`] path — fresh draw, logged
    /// intent, fully-finalized replay — emits a `tfc:timestamp` span, so a
    /// recovered run still witnesses its timestamps in the trace.
    pub fn with_tracer(mut self, tracer: Tracer) -> TfcServer {
        self.tracer = tracer;
        self
    }

    /// The TFC's keys: what it re-encrypts results with and reads fields
    /// through.
    pub fn keys(&self) -> ActorKeys<'_> {
        ActorKeys { creds: &self.creds, directory: &self.directory, peers: &self.peers }
    }

    fn crash_point(&self, site: &str) -> WfResult<()> {
        match &self.crash_hook {
            Some(hook) => hook(site),
            None => Ok(()),
        }
    }

    /// How many finalizations were answered (fully or partially) from the
    /// redo log — i.e. re-executions after a crash, each of which would have
    /// drawn a second timestamp without the log.
    pub fn redo_reuses(&self) -> u64 {
        self.redo_reuses.load(Ordering::Relaxed)
    }

    fn heads(&self) -> std::sync::MutexGuard<'_, Heads<Arc<String>>> {
        self.heads.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Branch heads held: at most one per live branch of each running
    /// process.
    pub fn heads_held(&self) -> usize {
        self.heads().held()
    }

    /// Forget every branch head, as a TFC restarted from its keys and redo
    /// log would: the delta hand-offs naming them are refused and answered
    /// whole.
    pub fn forget_heads(&self) {
        self.heads().clear();
    }

    /// What a delta hand-off from `sender` reads as here, for
    /// [`TfcServer::receive`]: see [`Heads::arrived`], errors included.
    pub fn arrived(
        &self,
        delta: (&[u8; 32], usize),
        damaged: Option<&str>,
        sender: &SealedDocument,
    ) -> WfResult<SealedDocument> {
        Ok(self.heads().arrived(delta, damaged, sender)?.1)
    }

    /// Verify an incoming intermediate document and unseal its fresh result
    /// (the TFC's α phase in Table 2). A caller holding wire bytes parses
    /// them first ([`SealedDocument::from_wire`]). A [`TrustMark`] the
    /// executing AEA sealed on reduces verification to the intermediate CER
    /// just appended; a document without one takes the full pass.
    pub fn receive(&self, sealed: SealedDocument) -> WfResult<TfcReceived> {
        let mut span_verify = self.tracer.span(stage::VERIFY).actor(&self.creds.name);
        let base = EffectiveDefinition::base(&sealed)?;
        let tfc_name = base
            .def
            .tfc
            .as_deref()
            .ok_or_else(|| WfError::Policy("definition names no TFC server".into()))?;
        if tfc_name != self.creds.name {
            return Err(WfError::NotParticipant {
                expected: tfc_name.to_string(),
                actual: self.creds.name.clone(),
            });
        }
        let outcome = Verifier::new(&self.directory).with_mark(sealed.trust()).run(&sealed)?;
        let report = outcome.report;
        if !report.ends_with_intermediate {
            return Err(WfError::Malformed(
                "document does not end with an intermediate (TFC-bound) CER".into(),
            ));
        }
        // The verifier walked the prefix chain to its end for the fresh
        // mark: that digest names this intermediate document in the redo log.
        let fresh = outcome
            .mark
            .ok_or_else(|| WfError::Malformed("incremental verification issued no mark".into()))?;
        let redo_key = fresh.prefix_digest;

        let (key, participant, sealed_hex, pinned) = {
            let cers = sealed.cers()?;
            let (last, before) = cers
                .split_last()
                .ok_or_else(|| WfError::Malformed("intermediate document has no CER".into()))?;
            let blob = last
                .tfc_sealed()
                .ok_or_else(|| WfError::Malformed("intermediate CER lacks TfcSealed".into()))?;
            (last.key.clone(), last.participant.clone(), blob.text_content(), before.len())
        };
        // The onward mark stops short of the intermediate CER, which
        // finalization is about to replace — where the executing AEA's mark
        // stops too, so its digest, if the verifier just found it to hold,
        // is this one's.
        let trust = TrustMark {
            process_id: report.process_id.clone(),
            verified_cers: pinned,
            prefix_digest: match sealed.trust() {
                Some(sent) if !outcome.fell_back && sent.verified_cers == pinned => {
                    sent.prefix_digest
                }
                _ => prefix_digest(&sealed, pinned)?,
            },
            signatures_verified: fresh.signatures_verified,
        };
        let doc = sealed.into_document();
        let sealed_bytes = dra_crypto::b64::decode(&sealed_hex)
            .ok_or_else(|| WfError::Malformed("bad TfcSealed base64".into()))?;
        let author = self.directory.get(&participant)?;
        let plaintext = dra_crypto::sealed::open_static(
            &self.keys().shared_with_key(&author.enc),
            result_context(&report.process_id, &key).as_bytes(),
            &sealed_bytes,
        )
        .map_err(|e| WfError::Crypto(format!("unsealing result: {e}")))?;
        let text = String::from_utf8(plaintext)
            .map_err(|_| WfError::Malformed("sealed result is not UTF-8".into()))?;
        let result_el =
            dra_xml::parse(&text).map_err(|e| WfError::Parse(format!("sealed result: {e}")))?;
        let responses = plain_fields(&result_el);

        // dynamic flow control: route and re-encrypt under the effective
        // definition and policy
        let definition = crate::amendment::effective_definition(&doc)?;
        span_verify.set_process(&report.process_id);
        span_verify.set_activity(&key.activity, key.iter);
        span_verify.attr("signatures_verified", report.signatures_verified);
        span_verify.end();
        Ok(TfcReceived { doc, definition, key, participant, responses, report, trust, redo_key })
    }

    /// Re-encrypt per policy, embed the timestamp, attest and route (the γ
    /// phase in Table 2).
    ///
    /// Crash-consistent via the redo log: the timestamp intent is logged
    /// before any work, the finalized CER after. Re-finalizing the same
    /// intermediate document (a recovered hop re-sending after a TFC crash)
    /// reuses the logged timestamp — and, when the first pass got as far as
    /// recording its CER, puts that CER back into the document the resend
    /// brought, so a byte-identical resend is answered with the bytes the
    /// first pass emitted.
    pub fn finalize(&self, received: &TfcReceived) -> WfResult<TfcProcessed> {
        // draw the timestamp — or reuse what a crashed finalize already
        // logged for this document, so it is never stamped twice
        let (timestamp, reused, finalized) = {
            let mut redo = self.redo.lock().unwrap_or_else(|e| e.into_inner());
            match redo.entry(received.redo_key) {
                Entry::Occupied(e) => {
                    self.redo_reuses.fetch_add(1, Ordering::Relaxed);
                    let RedoEntry { timestamp, finalized } = e.get();
                    let reused = if finalized.is_some() { "finalized" } else { "intent" };
                    (*timestamp, reused, finalized.clone())
                }
                Entry::Vacant(v) => {
                    let fresh = RedoEntry { timestamp: (self.clock)(), finalized: None };
                    (v.insert(fresh).timestamp, "fresh", None)
                }
            }
        };
        self.span_timestamp(received, timestamp, reused);
        let emit = |cer: Element, route: Route| -> WfResult<TfcProcessed> {
            // the output's chain digest, resumed from the mark's: the
            // finalized CER is its last
            let name = chain_next(&received.trust.prefix_digest, &cer);
            // shares every node with `received.doc`; replacing the
            // intermediate CER copies the ActivityResults child vector
            let mut document = received.doc.clone();
            *document
                .find_cer_element_mut(&received.key)?
                .ok_or_else(|| WfError::Malformed("intermediate CER vanished".into()))? = cer;
            let document = SealedDocument::with_trust(document, received.trust.clone());
            debug_assert_eq!(Some(name), prefix_digest(&document, usize::MAX).ok());
            let executed = Some(received.key.activity.as_str());
            let pid = &received.report.process_id;
            self.heads().advance(pid, name, executed, &route, document.wire());
            Ok(TfcProcessed { document, route, key: received.key.clone(), timestamp })
        };
        // fully finalized before a crash cut off the forwarding
        if let Some((cer, route)) = finalized {
            return emit(cer, route);
        }
        self.crash_point(site::TFC_AFTER_TIMESTAMP)?;

        let mut span_reenc = self
            .tracer
            .span(stage::TFC_REENCRYPT)
            .actor(&self.creds.name)
            .process(&received.report.process_id)
            .activity(&received.key.activity, received.key.iter);

        let keys = self.keys();
        let reader = DocFieldReader::for_actor(&received.doc, &keys)
            .with_overlay(&received.key.activity, &received.responses);

        // {R_Ai}ee per the security policy — the TFC resolves conditional
        // audiences because it can read the condition fields.
        let result = build_result_element(
            &received.key.activity,
            &received.responses,
            &received.definition.policy,
            &keys,
            &received.participant,
            &reader,
        )?;
        let ts_el = Element::new("Timestamp")
            .attr("time", timestamp.to_string())
            .attr("by", self.creds.name.clone());

        // the finalized CER: the intermediate one (children shared) plus
        // Result and Timestamp, then the attestation signed over [Header,
        // TfcSealed, participant sig, Result, Timestamp]
        let intermediate = received
            .doc
            .cers()?
            .into_iter()
            .rfind(|c| c.key == received.key)
            .ok_or_else(|| WfError::Malformed("intermediate CER vanished".into()))?;
        let mut cer = intermediate.element.clone();
        cer.push_child(result);
        cer.push_child(ts_el);
        let finalized = CerView { element: &cer, ..intermediate };
        let attestation = Covers::Tfc(&finalized).sign(&received.doc, &self.creds.sign)?;
        cer.push_child(attestation);
        span_reenc.attr("fields", received.responses.len());
        span_reenc.end();

        let route = route(
            &received.definition.def,
            &received.key.activity,
            Some(received.key.iter),
            &reader,
        )?;
        {
            let mut redo = self.redo.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = redo.get_mut(&received.redo_key) {
                entry.finalized = Some((cer.clone(), route.clone()));
            }
        }
        emit(cer, route)
    }

    /// Witness a timestamp in the trace. Emitted on every finalize path
    /// (`reused` ∈ {"fresh", "intent", "finalized"}) so the reconciliation
    /// oracle can match the document's `Timestamp` element against an
    /// observed draw even after crash recovery.
    fn span_timestamp(&self, received: &TfcReceived, timestamp: u64, reused: &str) {
        let mut span = self
            .tracer
            .span(stage::TFC_TIMESTAMP)
            .actor(&self.creds.name)
            .process(&received.report.process_id)
            .activity(&received.key.activity, received.key.iter);
        span.attr("ts_ms", timestamp);
        span.attr("reused", reused);
        span.end();
    }

    /// Convenience: receive + finalize in one call.
    pub fn process(&self, sealed: SealedDocument) -> WfResult<TfcProcessed> {
        let received = self.receive(sealed)?;
        self.finalize(&received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aea::Aea;
    use crate::model::{Condition, JoinKind, WorkflowDefinition};
    use crate::policy::SecurityPolicy;
    use crate::verify::Verifier;

    /// The Fig. 4 workflow: Peter inputs X (readable only by Amy and the
    /// TFC), Tony inputs Y whose audience depends on Func(X), then an
    /// OR-split on Func(X) that Tony cannot evaluate.
    struct Fig4 {
        def: WorkflowDefinition,
        policy: SecurityPolicy,
        designer: Credentials,
        peter: Credentials,
        tony: Credentials,
        dir: Directory,
        tfc: Credentials,
    }

    fn fig4() -> Fig4 {
        let designer = Credentials::from_seed("designer", "d");
        let peter = Credentials::from_seed("peter", "pe");
        let tony = Credentials::from_seed("tony", "to");
        let amy = Credentials::from_seed("amy", "am");
        let john = Credentials::from_seed("john", "jo");
        let mary = Credentials::from_seed("mary", "ma");
        let tfc = Credentials::from_seed("TFC", "tf");
        let def = WorkflowDefinition::builder("fig4", "designer")
            .simple_activity("A1", "peter", &["X"])
            .activity(crate::model::Activity {
                id: "A3".into(),
                participant: "tony".into(),
                join: JoinKind::Any,
                requests: vec![],
                responses: vec!["Y".into()],
            })
            .simple_activity("A4", "john", &["j"])
            .simple_activity("A5", "mary", &["m"])
            .flow("A1", "A3")
            .flow_if("A3", "A4", Condition::field_equals("A1", "X", "true"))
            .flow_if("A3", "A5", Condition::field_not_equals("A1", "X", "true"))
            .flow_end("A4")
            .flow_end("A5")
            .with_tfc("TFC")
            .build()
            .unwrap();
        let policy = SecurityPolicy::builder()
            .restrict("A1", "X", &["amy"])
            .restrict_conditional(
                "A3",
                "Y",
                Condition::field_equals("A1", "X", "true"),
                &["john"],
                &["mary"],
            )
            .build()
            .with_tfc_access("TFC", &def);
        let dir = Directory::from_credentials([&designer, &peter, &tony, &amy, &john, &mary, &tfc]);
        Fig4 { def, policy, designer, peter, tony, dir, tfc }
    }

    /// What a receiver of `doc`'s bytes holds: the wire parsed, no mark.
    fn wire(doc: &DraDocument) -> SealedDocument {
        SealedDocument::from_wire(&doc.to_xml_string()).unwrap()
    }

    fn fixed_clock(t: u64) -> Clock {
        Arc::new(move || t)
    }

    #[test]
    fn advanced_model_resolves_fig4() {
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid").unwrap();
        let tfc = TfcServer::with_clock(f.tfc.clone(), f.dir.clone(), fixed_clock(1000));

        // Peter executes A1 with X = "true", sealed to the TFC.
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let inter = aea_peter.complete_via_tfc(&recv, &[("X".into(), "true".into())]).unwrap();
        let done = tfc.process(wire(&inter.document)).unwrap();
        assert_eq!(done.route.targets, vec!["A3"]);
        assert_eq!(done.timestamp, 1000);

        // Tony executes A3. He cannot read X — and does not need to.
        let aea_tony = Aea::new(f.tony.clone(), f.dir.clone());
        let recv = aea_tony.receive(wire(&done.document), "A3").unwrap();
        let inter =
            aea_tony.complete_via_tfc(&recv, &[("Y".into(), "payload-for-john".into())]).unwrap();
        let done = tfc.process(wire(&inter.document)).unwrap();
        // TFC evaluated Func(X): X == "true" routes to A4 (john).
        assert_eq!(done.route.targets, vec!["A4"]);

        // And Y was encrypted for john (then-branch), not mary.
        let cer = done.document.find_cer(&CerKey::new("A3", 0)).unwrap().unwrap();
        let result = cer.result().unwrap();
        let enc = result
            .child_elements()
            .find(|e| e.get_attr("field") == Some("Y"))
            .expect("Y present encrypted");
        let readers = dra_xml::enc::recipients_of(enc);
        assert!(readers.contains(&"john"));
        assert!(!readers.contains(&"mary"));

        // Full final document verifies (designer + 2 participants + 2 TFC).
        let report = Verifier::new(&f.dir).run(&done.document).unwrap().report;
        assert_eq!(report.signatures_verified, 5);
        assert!(!report.ends_with_intermediate);
    }

    #[test]
    fn else_branch_routes_to_mary() {
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid2").unwrap();
        let tfc = TfcServer::with_clock(f.tfc.clone(), f.dir.clone(), fixed_clock(1));
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let inter = aea_peter.complete_via_tfc(&recv, &[("X".into(), "false".into())]).unwrap();
        let done = tfc.process(wire(&inter.document)).unwrap();
        let aea_tony = Aea::new(f.tony.clone(), f.dir.clone());
        let recv = aea_tony.receive(wire(&done.document), "A3").unwrap();
        let inter = aea_tony.complete_via_tfc(&recv, &[("Y".into(), "v".into())]).unwrap();
        let done = tfc.process(wire(&inter.document)).unwrap();
        assert_eq!(done.route.targets, vec!["A5"]);
        let cer = done.document.find_cer(&CerKey::new("A3", 0)).unwrap().unwrap();
        let enc = cer
            .result()
            .unwrap()
            .child_elements()
            .find(|e| e.get_attr("field") == Some("Y"))
            .unwrap();
        assert!(dra_xml::enc::recipients_of(enc).contains(&"mary"));
    }

    #[test]
    fn basic_model_fails_on_fig4() {
        // The same workflow under the basic model: Tony's AEA must fail,
        // because it can neither resolve Y's audience nor evaluate the split.
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid3").unwrap();
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let done = aea_peter.complete(&recv, &[("X".into(), "true".into())]).unwrap();
        let aea_tony = Aea::new(f.tony.clone(), f.dir.clone());
        let recv = aea_tony.receive(wire(&done.document), "A3").unwrap();
        let err = aea_tony.complete(&recv, &[("Y".into(), "v".into())]).unwrap_err();
        assert!(
            matches!(err, WfError::FieldNotReadable { ref field, .. } if field == "X"),
            "the Fig. 4 flow-concealment failure: {err}"
        );
    }

    #[test]
    fn tfc_rejects_final_documents() {
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid4").unwrap();
        let tfc = TfcServer::with_clock(f.tfc.clone(), f.dir.clone(), fixed_clock(1));
        assert!(matches!(tfc.receive(wire(&initial)), Err(WfError::Malformed(_))));
    }

    #[test]
    fn wrong_tfc_identity_rejected() {
        let f = fig4();
        let impostor = Credentials::from_seed("OtherTFC", "x");
        let tfc = TfcServer::new(impostor, f.dir.clone());
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid5").unwrap();
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let inter = aea_peter.complete_via_tfc(&recv, &[("X".into(), "t".into())]).unwrap();
        assert!(matches!(tfc.receive(wire(&inter.document)), Err(WfError::NotParticipant { .. })));
    }

    #[test]
    fn intermediate_document_rejected_by_next_aea() {
        // An AEA must refuse a document that still ends with a TFC-bound CER.
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid6").unwrap();
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let inter = aea_peter.complete_via_tfc(&recv, &[("X".into(), "t".into())]).unwrap();
        let aea_tony = Aea::new(f.tony.clone(), f.dir.clone());
        let err = aea_tony.receive(wire(&inter.document), "A3").unwrap_err();
        assert!(matches!(err, WfError::Malformed(_)));
    }

    #[test]
    fn redo_log_survives_crash_between_timestamp_and_reencrypt() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid-redo").unwrap();
        // an advancing clock: a second draw would be observable
        let counter = Arc::new(AtomicU64::new(100));
        let c = Arc::clone(&counter);
        let clock: Clock = Arc::new(move || c.fetch_add(1, Ordering::SeqCst));
        // crash exactly once, between the timestamp draw and the re-encrypt
        let fired = Arc::new(AtomicBool::new(false));
        let fd = Arc::clone(&fired);
        let hook: crate::faultpoint::CrashHook = Arc::new(move |s| {
            if s == site::TFC_AFTER_TIMESTAMP && !fd.swap(true, Ordering::SeqCst) {
                return Err(WfError::Crash(s.to_string()));
            }
            Ok(())
        });
        let tfc = TfcServer::with_clock(f.tfc.clone(), f.dir.clone(), clock).with_crash_hook(hook);
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let inter = aea_peter.complete_via_tfc(&recv, &[("X".into(), "true".into())]).unwrap();

        let received = tfc.receive(wire(&inter.document)).unwrap();
        let err = tfc.finalize(&received).unwrap_err();
        assert!(matches!(err, WfError::Crash(_)));

        // recovery: the hop is re-dispatched with the same intermediate doc
        let received = tfc.receive(wire(&inter.document)).unwrap();
        let done = tfc.finalize(&received).unwrap();
        assert_eq!(done.timestamp, 100, "the logged intent, not a second draw");
        assert_eq!(counter.load(Ordering::SeqCst), 101, "clock consulted exactly once");
        assert_eq!(tfc.redo_reuses(), 1);
        Verifier::new(&f.dir).run(&done.document).unwrap();
        // exactly one Timestamp element on the finalized CER
        let bytes = done.document.to_xml_string();
        assert_eq!(bytes.matches("<Timestamp").count(), 1, "no double-timestamp");

        // a resend after the completed finalize — as the wire, or as the
        // sender's own tree — is answered from the logged CER: same
        // timestamp, same route, byte-identical output, no clock consulted
        for (pass, resend) in
            [wire(&inter.document), inter.document.clone()].into_iter().enumerate()
        {
            let again = tfc.finalize(&tfc.receive(resend).unwrap()).unwrap();
            assert_eq!(again.document.wire(), done.document.wire());
            assert_eq!((again.timestamp, &again.route.targets), (100, &done.route.targets));
            assert_eq!(again.document.trust(), done.document.trust());
            assert_eq!(tfc.redo_reuses(), 2 + pass as u64);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 101);

        // what the log retains for the hop is the finalized CER, not the
        // document around it
        let redo = tfc.redo.lock().unwrap();
        assert_eq!(redo.len(), 1, "every pass found the one entry");
        let (cer, route) = redo.values().next().unwrap().finalized.as_ref().unwrap();
        assert_eq!(route.targets, done.route.targets);
        assert_eq!(cer, done.document.cers().unwrap().last().unwrap().element);
        assert!(dra_xml::writer::to_string(cer).len() < bytes.len(), "a CER, not the wire");
    }

    #[test]
    fn a_reformatted_resend_is_refused_and_a_different_result_is_its_own_entry() {
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid-key").unwrap();
        let counter = Arc::new(AtomicU64::new(7));
        let c = Arc::clone(&counter);
        let tfc = TfcServer::with_clock(
            f.tfc.clone(),
            f.dir.clone(),
            Arc::new(move || c.fetch_add(1, Ordering::SeqCst)),
        );
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let inter = aea_peter.complete_via_tfc(&recv, &[("X".into(), "true".into())]).unwrap();
        let done = tfc.process(inter.document.clone()).unwrap();

        // white space between two sections is a second spelling of one
        // signed document: refused before it reaches the redo log
        let bytes = inter.document.to_xml_string();
        let spaced = bytes.replacen("<ActivityResults>", "\n <ActivityResults>", 1);
        assert!(matches!(SealedDocument::from_wire(&spaced), Err(WfError::Parse(_))));
        let again = tfc.process(wire(&inter.document)).unwrap();
        assert_eq!((again.timestamp, tfc.redo_reuses()), (done.timestamp, 1));

        // a different result is a different document: its own timestamp
        let other = aea_peter.complete_via_tfc(&recv, &[("X".into(), "false".into())]).unwrap();
        assert_eq!(tfc.process(other.document).unwrap().timestamp, done.timestamp + 1);
        assert_eq!(tfc.redo_reuses(), 1);
    }

    #[test]
    fn cold_and_warm_aea_seal_to_the_tfc_identically() {
        // crash takeover depends on it: the recovered agent (cold) must emit
        // the bytes the dead one (warm) did, or the portal sees two versions
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid-seed").unwrap();
        let responses = [("X".to_string(), "true".to_string())];
        let mut warm = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = warm.receive(wire(&initial), "A1").unwrap();
        let first = warm.complete_via_tfc(&recv, &responses).unwrap().document;
        let second = warm.complete_via_tfc(&recv, &responses).unwrap().document;
        let cold = Aea::new(f.peter.clone(), f.dir.clone());
        let third = cold.complete_via_tfc(&recv, &responses).unwrap().document;
        assert_eq!(first.wire(), second.wire());
        assert_eq!(first.wire(), third.wire());

        // the TFC's directory entry changes: the warm AEA derives afresh and
        // seals what a cold one does, to the key now listed
        let rekeyed = Credentials::from_seed("TFC", "tf-rotated");
        warm.directory.register(rekeyed.identity());
        let cold = Aea::new(f.peter.clone(), warm.directory.clone());
        let after = warm.complete_via_tfc(&recv, &responses).unwrap().document;
        assert_ne!(after.wire(), first.wire());
        assert_eq!(after.wire(), cold.complete_via_tfc(&recv, &responses).unwrap().document.wire());
        let tfc = |creds: &Credentials| {
            TfcServer::with_clock(creds.clone(), warm.directory.clone(), fixed_clock(1))
        };
        assert!(tfc(&rekeyed).receive(after.clone()).is_ok());
        assert!(matches!(tfc(&f.tfc).receive(after), Err(WfError::Crypto(_))));
    }

    #[test]
    fn tampered_timestamp_detected() {
        let f = fig4();
        let initial =
            DraDocument::new_initial_with_pid(&f.def, &f.policy, &f.designer, "pid7").unwrap();
        let tfc = TfcServer::with_clock(f.tfc.clone(), f.dir.clone(), fixed_clock(777));
        let aea_peter = Aea::new(f.peter.clone(), f.dir.clone());
        let recv = aea_peter.receive(wire(&initial), "A1").unwrap();
        let inter = aea_peter.complete_via_tfc(&recv, &[("X".into(), "t".into())]).unwrap();
        let done = tfc.process(wire(&inter.document)).unwrap();
        let tampered = done.document.to_xml_string().replace("time=\"777\"", "time=\"778\"");
        let doc = DraDocument::parse(&tampered).unwrap();
        assert!(matches!(Verifier::new(&f.dir).run(&doc), Err(WfError::Verify(_))));
    }
}
