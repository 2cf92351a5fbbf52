//! The signature rule: what each embedded `<Signature>` signs, and how it
//! is checked — one place for the signers (the designer, [`crate::aea`],
//! [`crate::amendment`], [`crate::tfc`]) and for every check
//! ([`crate::verify`], and through it the pool auditor).
//!
//! A signature's `covers` label names what it signs, and is spelled only in
//! [`Covers`]: `Def` (the designer's, over the definition), the CER key (a
//! participant's cascade) and `tfc:<key>` (the TFC's attestation). The label
//! sits outside the signed bytes, so a check pins it to the content it
//! recomputed, besides requiring the expected signer — otherwise those
//! attribute bytes would be malleable in stored documents.

use crate::document::{CerKey, CerView, DraDocument, PredRef};
use crate::error::{WfError, WfResult};
use dra_crypto::ed25519::{Keypair, PublicKey, Signature};
use dra_xml::canon::canonicalize_all;
use dra_xml::sig::{parse_signature, sign_detached, SIGNATURE};
use dra_xml::Element;

/// What one embedded signature signs.
pub(crate) enum Covers<'a> {
    /// Label `Def`: the designer's signature over `[Header,
    /// WorkflowDefinition, SecurityDefinition]`
    /// ([`DraDocument::definition_bytes`]).
    Def,
    /// Label `<key>`: the participant's cascade signature of a CER over
    /// `[Header, body, the signatures of every predecessor]`, `body` being
    /// `<TfcSealed>` when the CER has one and `<Result>` otherwise.
    Cer(&'a CerView<'a>),
    /// Label `tfc:<key>`: the TFC's attestation of a CER it finalized, over
    /// `[Header, TfcSealed, participant signature, Result, Timestamp]`.
    Tfc(&'a CerView<'a>),
}

/// One planned signature check: verify `signature` over `bytes` under
/// `signer`. Tasks are independent once planned, which is what makes them
/// batch-schedulable (see [`crate::verify::Verifier::batched`]).
pub(crate) struct SigTask {
    pub(crate) who: String,
    pub(crate) signer: PublicKey,
    pub(crate) bytes: Vec<u8>,
    pub(crate) signature: Signature,
}

impl SigTask {
    pub(crate) fn run(&self) -> WfResult<()> {
        if self.signer.verify(&self.bytes, &self.signature) {
            Ok(())
        } else {
            Err(WfError::Verify(format!("{} invalid", self.who)))
        }
    }
}

/// A predecessor CER's element by key; the first match in document order.
pub(crate) type FindCer<'d> = dyn Fn(&CerKey) -> Option<&'d Element> + 'd;

impl Covers<'_> {
    fn label(&self) -> String {
        match self {
            Covers::Def => "Def".into(),
            Covers::Cer(cer) => cer.key.to_string(),
            Covers::Tfc(cer) => format!("tfc:{}", cer.key),
        }
    }

    /// Whose signature, for error messages.
    fn who(&self) -> String {
        match self {
            Covers::Def => "designer signature".into(),
            Covers::Cer(cer) => format!("CER {} participant signature", cer.key),
            Covers::Tfc(cer) => format!("CER {} TFC signature", cer.key),
        }
    }

    /// The canonical bytes signed, a predecessor CER resolved by `find`.
    fn bytes<'d>(&self, doc: &'d DraDocument, find: &FindCer<'d>) -> WfResult<Vec<u8>> {
        let header = doc.header()?;
        let missing = |cer: &CerView<'_>, what: &str| {
            WfError::Malformed(format!("CER {} lacks {what}", cer.key))
        };
        match self {
            Covers::Def => doc.definition_bytes(),
            Covers::Cer(cer) => {
                let body = cer.tfc_sealed().or(cer.result());
                let mut parts = vec![header, body.ok_or_else(|| missing(cer, "a body"))?];
                for pred in &cer.preds {
                    match pred {
                        PredRef::Def => parts.push(doc.designer_signature()?),
                        PredRef::Cer(k) => {
                            let pred = find(k).ok_or_else(|| {
                                WfError::Malformed(format!("pred CER {k} not found"))
                            })?;
                            let signed = parts.len();
                            parts.extend(pred.find_children(SIGNATURE));
                            if parts.len() == signed {
                                return Err(WfError::Malformed(format!("pred CER {k} unsigned")));
                            }
                        }
                    }
                }
                Ok(canonicalize_all(parts))
            }
            Covers::Tfc(cer) => {
                let sealed = cer.tfc_sealed().ok_or_else(|| missing(cer, "TfcSealed"))?;
                let psig = cer.participant_signature()?;
                let result = cer.result().ok_or_else(|| missing(cer, "Result"))?;
                let ts = cer.timestamp().ok_or_else(|| missing(cer, "Timestamp"))?;
                Ok(canonicalize_all([header, sealed, psig, result, ts]))
            }
        }
    }

    /// The `<Signature>` `keypair` makes over what this covers in `doc`.
    pub(crate) fn sign(&self, doc: &DraDocument, keypair: &Keypair) -> WfResult<Element> {
        let bytes = self.bytes(doc, &in_order(doc))?;
        Ok(sign_detached(keypair, &bytes, &self.label()))
    }

    /// Plan the check of `el` as this signature of `doc`: it must parse,
    /// name `signer` and carry this label; the task verifies it over the
    /// bytes recomputed here.
    pub(crate) fn check<'d>(
        &self,
        el: &Element,
        signer: &PublicKey,
        doc: &'d DraDocument,
        find: &FindCer<'d>,
    ) -> WfResult<SigTask> {
        let who = self.who();
        let block = parse_signature(el).map_err(|e| WfError::Verify(format!("{who}: {e}")))?;
        if block.signer != *signer {
            return Err(WfError::Verify(format!("{who}: unexpected signer")));
        }
        let label = self.label();
        if block.covers != label {
            return Err(WfError::Verify(format!(
                "{who}: covers label '{}' is not '{label}'",
                block.covers
            )));
        }
        let bytes = self.bytes(doc, find)?;
        Ok(SigTask { who, signer: block.signer, bytes, signature: block.signature })
    }
}

/// Resolve a predecessor by searching `doc` in document order.
pub(crate) fn in_order<'d>(doc: &'d DraDocument) -> impl Fn(&CerKey) -> Option<&'d Element> + 'd {
    move |key| doc.find_cer(key).ok().flatten().map(|cer| cer.element)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Credentials;
    use crate::model::WorkflowDefinition;
    use crate::policy::SecurityPolicy;

    fn initial() -> (DraDocument, Credentials) {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "designer", &["x"])
            .flow_end("A")
            .build()
            .unwrap();
        let policy = SecurityPolicy::public();
        (DraDocument::new_initial_with_pid(&def, &policy, &designer, "pid").unwrap(), designer)
    }

    fn check(doc: &DraDocument, el: &Element, signer: &PublicKey) -> WfResult<()> {
        Covers::Def.check(el, signer, doc, &in_order(doc))?.run()
    }

    #[test]
    fn the_designer_signature_checks_and_survives_the_wire() {
        let (doc, designer) = initial();
        let el = doc.designer_signature().unwrap();
        assert_eq!(el.get_attr("covers"), Some("Def"));
        check(&doc, el, &designer.sign.public).unwrap();
        let parsed = DraDocument::parse(&doc.to_xml_string()).unwrap();
        check(&parsed, parsed.designer_signature().unwrap(), &designer.sign.public).unwrap();
    }

    #[test]
    fn another_signer_is_refused() {
        let (doc, _) = initial();
        let other = Keypair::from_seed([2; 32]).public;
        let err = check(&doc, doc.designer_signature().unwrap(), &other).unwrap_err();
        assert_eq!(
            err.to_string(),
            "signature verification failed: designer signature: unexpected signer"
        );
    }

    #[test]
    fn another_label_is_refused() {
        let (doc, designer) = initial();
        let el = doc.designer_signature().unwrap().clone().attr("covers", "A#0");
        let err = check(&doc, &el, &designer.sign.public).unwrap_err();
        assert!(err.to_string().ends_with("covers label 'A#0' is not 'Def'"), "{err}");
    }

    #[test]
    fn other_bytes_or_a_flipped_value_are_refused() {
        let (doc, designer) = initial();
        let signer = &designer.sign.public;
        let el = sign_detached(&designer.sign, b"other bytes", "Def");
        let err = check(&doc, &el, signer).unwrap_err();
        assert!(err.to_string().ends_with("designer signature invalid"), "{err}");

        let el = doc.designer_signature().unwrap();
        let text = el.text_content();
        let flipped = if text.starts_with('0') { "1" } else { "0" };
        let el = Element::new(SIGNATURE)
            .attr("signer", el.get_attr("signer").unwrap())
            .attr("covers", "Def")
            .text(format!("{flipped}{}", &text[1..]));
        assert!(check(&doc, &el, signer).is_err());
    }

    #[test]
    fn a_malformed_block_is_refused() {
        let (doc, designer) = initial();
        let signer = &designer.sign.public;
        let bad_len = Element::new(SIGNATURE).attr("signer", "0".repeat(64)).text("beef");
        for el in [Element::new("NotSig"), Element::new(SIGNATURE).text("00"), bad_len] {
            let err = check(&doc, &el, signer).unwrap_err();
            assert!(err.to_string().contains("malformed Signature"), "{err}");
        }
    }
}
