//! Full-document verification — what every AEA performs first on receiving
//! a DRA4WfMS document ("parses X and verifies all the embedded digital
//! signatures therein so as to ensure that the workflow definition is legal
//! and all the stored execution results of previously executed activities
//! are valid", §2.1), and what a portal server performs before storing a
//! document into the pool.

use crate::amendment::EffectiveDefinition;
use crate::document::{CerKey, CerView, DraDocument, PredRef};
use crate::error::{WfError, WfResult};
use crate::identity::Directory;
use crate::sealed::{prefix_chain, TrustMark};
use dra_xml::canon::canonicalize_all;
use std::collections::HashMap;
use std::sync::Arc;

use dra_xml::Element;

/// Outcome of a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// The document's unique process id.
    pub process_id: String,
    /// Executed activity iterations, in document order.
    pub cers: Vec<crate::document::CerKey>,
    /// Total signatures checked (designer + participants + TFC) — the
    /// "number of signatures to verify" column of Tables 1 and 2.
    pub signatures_verified: usize,
    /// True when the last CER is an intermediate (TFC-bound) one.
    pub ends_with_intermediate: bool,
}

/// The canonical bytes the TFC's attestation signature covers:
/// `[Header, TfcSealed, participant signature, Result, Timestamp]`.
pub fn tfc_attest_bytes(header: &Element, cer: &CerView<'_>) -> WfResult<Vec<u8>> {
    let sealed = cer
        .tfc_sealed()
        .ok_or_else(|| WfError::Malformed(format!("CER {} lacks TfcSealed", cer.key)))?;
    let psig = cer.participant_signature()?;
    let result =
        cer.result().ok_or_else(|| WfError::Malformed(format!("CER {} lacks Result", cer.key)))?;
    let ts = cer
        .timestamp()
        .ok_or_else(|| WfError::Malformed(format!("CER {} lacks Timestamp", cer.key)))?;
    Ok(canonicalize_all([header, sealed, psig, result, ts]))
}

/// One planned signature check: verify `signature` over `bytes` under
/// `signer`. Tasks are independent once planned, which is what makes them
/// batch-schedulable (see [`Verifier::batched`]).
struct SigTask {
    label: String,
    signer: dra_crypto::ed25519::PublicKey,
    bytes: Vec<u8>,
    signature: dra_crypto::ed25519::Signature,
}

impl SigTask {
    fn run(&self) -> WfResult<()> {
        if self.signer.verify(&self.bytes, &self.signature) {
            Ok(())
        } else {
            Err(WfError::Verify(format!("{} signature invalid", self.label)))
        }
    }
}

/// How much of the document still needs cryptographic checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VerifyScope {
    /// Check everything: designer signature plus every CER.
    Full,
    /// The first `n` CERs (and the designer signature) are pinned by a
    /// byte-identical verified prefix; emit signature checks only for CERs
    /// appended after them. Structural checks and amendment folding still
    /// run over the whole document — they are cheap and the folded
    /// definition is needed to judge the new CERs.
    TrustedPrefix(usize),
}

/// Sequential structural pass: check participants and document structure,
/// fold amendments, and emit one [`SigTask`] per embedded signature inside
/// `scope`.
fn plan_verification(
    doc: &DraDocument,
    directory: &Directory,
    base: &Arc<EffectiveDefinition>,
    scope: VerifyScope,
) -> WfResult<(Vec<SigTask>, VerificationReport)> {
    use dra_xml::sig::parse_signature;

    let def = &base.def;

    let skip_cers = match scope {
        VerifyScope::Full => 0,
        VerifyScope::TrustedPrefix(n) => n,
    };
    let mut tasks = Vec::new();

    // (2) designer signature — pinned by the prefix digest when trusted
    if scope == VerifyScope::Full {
        let designer = directory.get(&def.designer)?;
        let block = parse_signature(doc.designer_signature()?)
            .map_err(|e| WfError::Verify(format!("designer signature: {e}")))?;
        if block.signer != designer.sign {
            return Err(WfError::Verify("designer signature: unexpected signer".into()));
        }
        if block.covers != "Def" {
            return Err(WfError::Verify(format!(
                "designer signature: covers label '{}' is not 'Def'",
                block.covers
            )));
        }
        tasks.push(SigTask {
            label: "designer".into(),
            signer: block.signer,
            bytes: doc.definition_bytes()?,
            signature: block.signature,
        });
    }

    // the definition in force, replaced (never edited: it is shared) as
    // amendments are planned
    let mut effective = Arc::clone(base);

    let cers = doc.cers()?;
    // Pred lookup map, built once: resolving predecessors through
    // `DraDocument::find_cer` re-scans every CER per lookup, which turns
    // planning into an O(n²) pass on long cascades. First match wins, as
    // in document-order search.
    let mut by_key: HashMap<&CerKey, &CerView<'_>> = HashMap::with_capacity(cers.len());
    for cer in &cers {
        by_key.entry(&cer.key).or_insert(cer);
    }
    let mut ends_with_intermediate = false;
    let header = doc.header()?;
    for (idx, cer) in cers.iter().enumerate() {
        let trusted = idx < skip_cers;
        // (3) participant assignment — amendments are executed by the
        // workflow designer; regular activities by their assigned
        // participant under the definition in force at that point
        let eff_def = &effective.def;
        let expected = if crate::amendment::is_amendment_key(&cer.key) {
            &eff_def.designer
        } else {
            &eff_def.activity(&cer.key.activity)?.participant
        };
        if *expected != cer.participant {
            return Err(WfError::Verify(format!(
                "CER {}: executed by '{}' but definition assigns '{}'",
                cer.key, cer.participant, expected
            )));
        }
        // multi-instance cardinality bound: an acyclic activity with a
        // static instance count of k can never legitimately reach iter k —
        // extra CERs beyond it are forged instances
        if !crate::amendment::is_amendment_key(&cer.key) {
            if let Some(crate::model::Cardinality::Static(k)) =
                eff_def.multi_for(&cer.key.activity).map(|m| &m.cardinality)
            {
                if cer.key.iter >= *k && !effective.net.cyclic(&cer.key.activity) {
                    return Err(WfError::Verify(format!(
                        "CER {}: multi-instance activity '{}' admits only {k} instances",
                        cer.key, cer.key.activity
                    )));
                }
            }
        }

        let sealed = cer.tfc_sealed();
        let result = cer.result();
        let body = sealed.or(result).ok_or_else(|| {
            WfError::Malformed(format!("CER {} has neither Result nor TfcSealed", cer.key))
        })?;
        if !trusted {
            let pid = directory.get(&cer.participant)?;
            let block = parse_signature(cer.participant_signature()?)
                .map_err(|e| WfError::Verify(format!("CER {}: {e}", cer.key)))?;
            if block.signer != pid.sign {
                return Err(WfError::Verify(format!(
                    "CER {} participant signature: unexpected signer",
                    cer.key
                )));
            }
            // pin the covers label to the CER key: the label itself is not
            // under the signature, so without this check those attribute
            // bytes would be malleable in stored documents
            if block.covers != format!("{}", cer.key) {
                return Err(WfError::Verify(format!(
                    "CER {} participant signature: covers label '{}' does not match the CER key",
                    cer.key, block.covers
                )));
            }
            // cascade bytes with preds resolved through the map — same
            // parts as `DraDocument::cascade_bytes`
            let mut parts: Vec<&Element> = vec![header, body];
            for p in &cer.preds {
                match p {
                    PredRef::Def => parts.push(doc.designer_signature()?),
                    PredRef::Cer(k) => {
                        let pred = by_key
                            .get(k)
                            .ok_or_else(|| WfError::Malformed(format!("pred CER {k} not found")))?;
                        let sigs = pred.signatures();
                        if sigs.is_empty() {
                            return Err(WfError::Malformed(format!("pred CER {k} unsigned")));
                        }
                        parts.extend(sigs);
                    }
                }
            }
            tasks.push(SigTask {
                label: format!("CER {} participant", cer.key),
                signer: block.signer,
                bytes: canonicalize_all(parts),
                signature: block.signature,
            });
        }

        // fold verified amendments into the effective definition
        if crate::amendment::is_amendment_key(&cer.key) {
            effective = effective.amended(cer)?;
        }

        let is_intermediate = sealed.is_some() && result.is_none();
        if is_intermediate {
            if idx + 1 != cers.len() {
                return Err(WfError::Malformed(format!(
                    "intermediate CER {} is not the last CER",
                    cer.key
                )));
            }
            ends_with_intermediate = true;
        } else if sealed.is_some() && !trusted {
            // advanced-model final CER: TFC attestation required
            let tfc_name = def.tfc.as_deref().ok_or_else(|| {
                WfError::Verify(format!(
                    "CER {} carries TFC data but definition names no TFC",
                    cer.key
                ))
            })?;
            let tfc_id = directory.get(tfc_name)?;
            let tfc_sig = cer
                .tfc_signature()
                .ok_or_else(|| WfError::Verify(format!("CER {} missing TFC signature", cer.key)))?;
            let block = parse_signature(tfc_sig)
                .map_err(|e| WfError::Verify(format!("CER {} TFC: {e}", cer.key)))?;
            if block.signer != tfc_id.sign {
                return Err(WfError::Verify(format!(
                    "CER {} TFC signature: unexpected signer",
                    cer.key
                )));
            }
            if block.covers != format!("tfc:{}", cer.key) {
                return Err(WfError::Verify(format!(
                    "CER {} TFC signature: covers label '{}' does not match the CER key",
                    cer.key, block.covers
                )));
            }
            tasks.push(SigTask {
                label: format!("CER {} TFC", cer.key),
                signer: block.signer,
                bytes: tfc_attest_bytes(header, cer)?,
                signature: block.signature,
            });
        }
    }

    let report = VerificationReport {
        process_id: doc.process_id()?,
        cers: cers.iter().map(|c| c.key.clone()).collect(),
        signatures_verified: tasks.len(),
        ends_with_intermediate,
    };
    Ok((tasks, report))
}

/// Unified verification entry point — a builder covering full, incremental
/// (trust-marked) and batched verification, of one document or many,
/// behind one configuration surface.
///
/// ```
/// # use dra4wfms_core::prelude::*;
/// # use dra4wfms_core::verify::Verifier;
/// # let designer = Credentials::from_seed("designer", "d");
/// # let def = WorkflowDefinition::builder("w", "designer")
/// #     .simple_activity("A", "designer", &["x"]).flow_end("A").build().unwrap();
/// # let directory = Directory::from_credentials([&designer]);
/// # let doc = DraDocument::new_initial(&def, &SecurityPolicy::public(), &designer).unwrap();
/// let outcome = Verifier::new(&directory).batched(true).run(&doc)?;
/// assert_eq!(outcome.report.signatures_verified, 1);
/// # Ok::<(), dra4wfms_core::error::WfError>(())
/// ```
///
/// The checks performed are unchanged:
/// 1. the embedded workflow definition is structurally valid;
/// 2. the designer's signature over `[Header, WorkflowDefinition,
///    SecurityDefinition]` — a forged or altered definition fails here;
/// 3. for every CER: the recorded participant is the one the definition
///    (as amended up to that point) assigns to the activity, its cascade
///    signature verifies under that participant's key, and all referenced
///    predecessors exist;
/// 4. for advanced-model CERs, the TFC's attestation signature.
///
/// An *intermediate* CER (sealed to the TFC, not yet re-encrypted) is only
/// legal as the final CER of an in-flight document.
///
/// Knobs:
/// * [`batched`](Verifier::batched) — verify signatures with the shared
///   multi-scalar batch equation, falling back to per-signature checks on
///   batch failure so the culprit and error variant match the sequential
///   path exactly (default on).
/// * [`with_mark`](Verifier::with_mark) — incremental mode: skip the CERs a
///   [`TrustMark`] pins (when its prefix digest still matches) and issue a
///   fresh mark covering the whole document.
#[derive(Clone, Copy)]
pub struct Verifier<'a> {
    directory: &'a Directory,
    batched: bool,
    mark: Option<&'a TrustMark>,
    incremental: bool,
}

/// What a [`Verifier`] run produced.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// The verification report. `signatures_verified` counts only the
    /// checks executed *this pass* (in incremental mode with a matching
    /// mark and k new CERs it is exactly the k participant checks plus any
    /// new TFC attestation).
    pub report: VerificationReport,
    /// A fresh mark pinning the whole document as now verified — issued in
    /// incremental mode ([`Verifier::with_mark`]); hand it to the next hop.
    pub mark: Option<TrustMark>,
    /// CERs skipped because the supplied trust mark's prefix digest matched.
    pub reused_cers: usize,
    /// True when a supplied mark was unusable (wrong process, or digest
    /// mismatch) and a full verification ran instead.
    pub fell_back: bool,
}

impl<'a> Verifier<'a> {
    /// A verifier resolving signers against `directory`: batched, full
    /// (non-incremental) scope, on the calling thread.
    pub fn new(directory: &'a Directory) -> Verifier<'a> {
        Verifier { directory, batched: true, mark: None, incremental: false }
    }

    /// Enable or disable batch verification of the planned signature
    /// checks. Batched and sequential verification always agree on the
    /// verdict: a failing batch falls back to per-signature checks, which
    /// report the same culprit with the same error variant.
    pub fn batched(mut self, on: bool) -> Verifier<'a> {
        self.batched = on;
        self
    }

    /// Incremental mode: prove the prefix a [`TrustMark`] pins is
    /// byte-identical via its canonical digest and re-check only the CERs
    /// appended since; issue a fresh mark for the next hop.
    ///
    /// Accepts `&TrustMark` or `Option<&TrustMark>` (pass a seal's
    /// [`trust()`](crate::sealed::SealedDocument::trust) straight through —
    /// `None` simply means a full pass that still issues a mark).
    ///
    /// Fallback semantics keep security identical to the full pass: if the
    /// mark names a different process, claims more CERs than the document
    /// has, or its digest no longer matches (any tamper — or any
    /// legitimate in-place change, like a TFC finalizing a previously
    /// intermediate CER), the *full* verification runs and its verdict
    /// stands. A tampered prefix therefore still fails loudly, stale mark
    /// or not.
    pub fn with_mark(mut self, mark: impl Into<Option<&'a TrustMark>>) -> Verifier<'a> {
        self.mark = mark.into();
        self.incremental = true;
        self
    }

    /// Verify `doc`, returning the unified outcome.
    pub fn run(&self, doc: &DraDocument) -> WfResult<VerifyOutcome> {
        // check 1: parsed and validated once per definition content
        let base = EffectiveDefinition::base(doc)?;

        // incremental mode walks the prefix chain once, for both the
        // digest at the mark (is the pinned prefix still byte-identical?)
        // and the digest at the end (the fresh mark)
        let chain = self
            .incremental
            .then(|| prefix_chain(doc, self.mark.map_or(0, |m| m.verified_cers)))
            .transpose()?;
        let usable_prefix = match (self.mark, &chain) {
            (Some(m), Some((Some(at_mark), _)))
                if *at_mark == m.prefix_digest && m.process_id == doc.process_id()? =>
            {
                Some(m.verified_cers)
            }
            _ => None,
        };
        let (scope, fell_back) = match usable_prefix {
            Some(n) => (VerifyScope::TrustedPrefix(n), false),
            None => (VerifyScope::Full, self.mark.is_some()),
        };

        let (tasks, report) = plan_verification(doc, self.directory, &base, scope)?;
        run_tasks(&tasks, self.batched)?;

        let mark = chain.map(|(_, at_end)| TrustMark {
            process_id: report.process_id.clone(),
            verified_cers: report.cers.len(),
            prefix_digest: at_end,
            // the cumulative count carries over only when the mark was used
            signatures_verified: report.signatures_verified
                + usable_prefix.and(self.mark).map_or(0, |m| m.signatures_verified),
        });
        Ok(VerifyOutcome { report, mark, reused_cers: usable_prefix.unwrap_or(0), fell_back })
    }
}

/// Execute one document's planned signature checks on the calling thread.
/// Batched mode hands them all to [`dra_crypto::verify_batch`] first — one
/// shared multi-scalar multiplication instead of `len` double-scalar ones,
/// or plain per-signature checks when it judges the set too small to batch —
/// and on failure falls back to per-signature checks, so the reported
/// culprit and error variant are identical to the sequential path.
fn run_tasks(tasks: &[SigTask], batched: bool) -> WfResult<()> {
    if batched {
        let entries: Vec<dra_crypto::BatchEntry<'_>> =
            tasks.iter().map(|t| (t.bytes.as_slice(), t.signature, t.signer)).collect();
        if dra_crypto::verify_batch(&entries) {
            return Ok(());
        }
    }
    for t in tasks {
        t.run()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::DraDocument;
    use crate::identity::Credentials;
    use crate::model::WorkflowDefinition;
    use crate::policy::SecurityPolicy;

    fn fixture() -> (WorkflowDefinition, SecurityPolicy, Credentials, Directory) {
        let designer = Credentials::from_seed("designer", "d");
        let peter = Credentials::from_seed("peter", "p");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "peter", &["x"])
            .flow_end("A")
            .build()
            .unwrap();
        let dir = Directory::from_credentials([&designer, &peter]);
        (def, SecurityPolicy::public(), designer, dir)
    }

    #[test]
    fn initial_document_verifies() {
        let (def, pol, designer, dir) = fixture();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "pid").unwrap();
        let report = Verifier::new(&dir).run(&doc).unwrap().report;
        assert_eq!(report.signatures_verified, 1);
        assert!(report.cers.is_empty());
        assert!(!report.ends_with_intermediate);
        assert_eq!(report.process_id, "pid");
    }

    #[test]
    fn altered_definition_detected() {
        let (def, pol, designer, dir) = fixture();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "pid").unwrap();
        // Superuser-style tamper: change the assigned participant in the
        // stored document without re-signing.
        let mut tampered = doc.to_xml_string();
        tampered = tampered.replace("participant=\"peter\"", "participant=\"mallory\"");
        let doc2 = DraDocument::parse(&tampered).unwrap();
        // verification must fail — either unknown identity or bad signature
        assert!(Verifier::new(&dir).run(&doc2).is_err());
    }

    #[test]
    fn altered_process_id_detected() {
        let (def, pol, designer, dir) = fixture();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "pid-A").unwrap();
        let tampered = doc.to_xml_string().replace("pid-A", "pid-B");
        let doc2 = DraDocument::parse(&tampered).unwrap();
        let err = Verifier::new(&dir).run(&doc2).unwrap_err();
        assert!(matches!(err, WfError::Verify(_)), "replay/renumber attack detected: {err}");
    }

    #[test]
    fn unknown_designer_rejected() {
        let (def, pol, designer, _) = fixture();
        let doc = DraDocument::new_initial_with_pid(&def, &pol, &designer, "pid").unwrap();
        let empty = Directory::new();
        assert!(matches!(Verifier::new(&empty).run(&doc), Err(WfError::UnknownIdentity(_))));
    }

    // CER-level verification is exercised end-to-end in the aea/tfc module
    // tests and in the integration suite.
}
