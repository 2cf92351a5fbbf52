//! Full-document verification — what every AEA performs first on receiving
//! a DRA4WfMS document ("parses X and verifies all the embedded digital
//! signatures therein so as to ensure that the workflow definition is legal
//! and all the stored execution results of previously executed activities
//! are valid", §2.1), and what a portal server performs before storing a
//! document into the pool.

use crate::amendment::EffectiveDefinition;
use crate::covers::{in_order, Covers, FindCer, SigTask};
use crate::document::{CerKey, CerView, DraDocument};
use crate::error::{WfError, WfResult};
use crate::identity::Directory;
use crate::sealed::{prefix_chain, TrustMark};
use dra_xml::Element;
use std::collections::HashMap;
use std::sync::Arc;

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
/// fold amendments, and plan one [`SigTask`] per embedded signature inside
/// `scope`.
fn plan_verification(
    doc: &DraDocument,
    directory: &Directory,
    base: &Arc<EffectiveDefinition>,
    scope: VerifyScope,
) -> WfResult<(Vec<SigTask>, VerificationReport)> {
    let def = &base.def;

    let skip_cers = match scope {
        VerifyScope::Full => 0,
        VerifyScope::TrustedPrefix(n) => n,
    };
    let mut tasks = Vec::new();

    // (2) designer signature — pinned by the prefix digest when trusted
    if scope == VerifyScope::Full {
        let (designer, sig) = (&directory.get(&def.designer)?.sign, doc.designer_signature()?);
        tasks.push(Covers::Def.check(sig, designer, doc, &in_order(doc))?);
    }

    // the definition in force, replaced (never edited: it is shared) as
    // amendments are planned
    let mut effective = Arc::clone(base);

    let cers = doc.cers()?;
    // Pred lookup map, built once: resolving predecessors by document-order
    // search re-scans every CER per lookup, which turns planning into an
    // O(n²) pass on long cascades. First match wins, as in that search.
    let mut by_key: HashMap<&CerKey, &Element> = HashMap::with_capacity(cers.len());
    for cer in &cers {
        by_key.entry(&cer.key).or_insert(cer.element);
    }
    let find = |key: &CerKey| by_key.get(key).copied();
    let mut ends_with_intermediate = false;
    for (idx, cer) in cers.iter().enumerate() {
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

        let (sealed, result) = (cer.tfc_sealed(), cer.result());
        if sealed.is_none() && result.is_none() {
            return Err(WfError::Malformed(format!(
                "CER {} has neither Result nor TfcSealed",
                cer.key
            )));
        }
        // (3, 4) the CER's own signatures, unless the mark pins them
        if idx >= skip_cers {
            tasks.extend(plan_cer(doc, cer, directory, def.tfc.as_deref(), &find)?);
        }

        // fold verified amendments into the effective definition
        if crate::amendment::is_amendment_key(&cer.key) {
            effective = effective.amended(cer)?;
        }

        // an intermediate CER (sealed for the TFC, not yet finalized)
        if sealed.is_some() && result.is_none() {
            if idx + 1 != cers.len() {
                return Err(WfError::Malformed(format!(
                    "intermediate CER {} is not the last CER",
                    cer.key
                )));
            }
            ends_with_intermediate = true;
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

/// Plan the checks of the signatures `cer` carries itself: its
/// participant's cascade signature and, once the TFC finalized the CER, the
/// attestation of `tfc`, the TFC the definition names.
fn plan_cer<'d>(
    doc: &'d DraDocument,
    cer: &CerView<'d>,
    directory: &Directory,
    tfc: Option<&str>,
    find: &FindCer<'d>,
) -> WfResult<Vec<SigTask>> {
    let participant = &directory.get(&cer.participant)?.sign;
    let psig = cer.participant_signature()?;
    let mut tasks = vec![Covers::Cer(cer).check(psig, participant, doc, find)?];
    if cer.tfc_sealed().is_some() && cer.result().is_some() {
        let tfc = tfc.ok_or_else(|| {
            WfError::Verify(format!("CER {} carries TFC data but definition names no TFC", cer.key))
        })?;
        let tfc = &directory.get(tfc)?.sign;
        let tsig = cer
            .tfc_signature()
            .ok_or_else(|| WfError::Verify(format!("CER {} missing TFC signature", cer.key)))?;
        tasks.push(Covers::Tfc(cer).check(tsig, tfc, doc, find)?);
    }
    Ok(tasks)
}

/// Unified verification entry point — a builder covering full and
/// incremental (trust-marked) verification behind one configuration
/// surface. Every planned signature is checked on its own, in the planner's
/// order, so a failing pass names the first culprit.
///
/// ```
/// # use dra4wfms_core::prelude::*;
/// # use dra4wfms_core::verify::Verifier;
/// # let designer = Credentials::from_seed("designer", "d");
/// # let def = WorkflowDefinition::builder("w", "designer")
/// #     .simple_activity("A", "designer", &["x"]).flow_end("A").build().unwrap();
/// # let directory = Directory::from_credentials([&designer]);
/// # let doc = DraDocument::new_initial(&def, &SecurityPolicy::public(), &designer).unwrap();
/// let outcome = Verifier::new(&directory).run(&doc)?;
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
/// * [`with_mark`](Verifier::with_mark) — incremental mode: skip the CERs a
///   [`TrustMark`] pins (when its prefix digest still matches) and issue a
///   fresh mark covering the whole document.
#[derive(Clone, Copy)]
pub struct Verifier<'a> {
    directory: &'a Directory,
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
    /// A verifier resolving signers against `directory`: full
    /// (non-incremental) scope, on the calling thread.
    pub fn new(directory: &'a Directory) -> Verifier<'a> {
        Verifier { directory, mark: None, incremental: false }
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

    /// Check only the signatures `cer`, a CER of `doc`, carries itself, by
    /// the rule [`Verifier::run`] holds every CER to: the pool auditor asks
    /// this of a failing row's newest CER, to tell whether that row's own
    /// hop diverges.
    pub fn check_cer(&self, doc: &DraDocument, cer: &CerView<'_>) -> WfResult<()> {
        let tfc = EffectiveDefinition::base(doc)?.def.tfc.clone();
        let tasks = plan_cer(doc, cer, self.directory, tfc.as_deref(), &in_order(doc))?;
        tasks.iter().try_for_each(SigTask::run)
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
        tasks.iter().try_for_each(SigTask::run)?;

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
