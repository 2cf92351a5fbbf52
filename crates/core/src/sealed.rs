//! Sealed documents and trust marks — the incremental-verification layer.
//!
//! A [`SealedDocument`] bundles a parsed [`DraDocument`] with its lazily
//! memoized wire serialization and an optional [`TrustMark`] recording how
//! far the document has already been verified. Hand-offs between hops
//! (AEA → portal → AEA, AEA → TFC) move the sealed form, so a hop that
//! already holds the parsed tree never re-serializes + re-parses it, and a
//! verifier presented with a trust mark re-checks only the CERs appended
//! since the mark was issued. The tree itself is shared, not copied
//! (`dra_xml::node`): a hand-off clones three child pointers, and a hop
//! that appends or rewrites one CER copies only the `ActivityResults`
//! child vector.
//!
//! ## The chained prefix digest
//!
//! The mark pins the verified prefix `[Header, ApplicationDefinition,
//! CER₀ … CER₍ₖ₋₁₎]` with a hash chain over the per-node digests:
//!
//! ```text
//! d₀   = H(tag ‖ H(canon Header) ‖ H(canon ApplicationDefinition))
//! dᵢ₊₁ = H(dᵢ ‖ H(canon CERᵢ))
//! ```
//!
//! `dₖ` commits to the canonical bytes of every pinned node, in order (a
//! collision in the chain is a SHA-256 collision), so a document whose
//! current prefix chains to the same value is byte-identical to the one
//! that passed full verification, and those k
//! CERs' signatures need not be checked again. Any mutation of the prefix
//! — a tampered result, a stripped amendment, a TFC finalization of a
//! previously intermediate CER — changes the digest, and verification
//! falls back to the full pass (and fails loudly if the change was
//! malicious). See [`crate::verify::Verifier::with_mark`].
//!
//! **What is memoised, and what it trusts.** `H(canon node)` is read from
//! the node's own memo (`dra_xml::canon_digest`), which sits next to the
//! node's bytes and is dropped with them by every `&mut` accessor — the
//! chain trusts exactly the bytes a flat hash over the memoised prefix
//! would. One walk of the chain yields the digest at the mark (the check)
//! and at the end (the new mark), so an incremental verification hashes
//! the canonical bytes of the CERs it has not seen plus 64 bytes per pinned
//! one, independent of document size. A mutated clone cannot leak into its
//! sibling: mutation copies the node first and the copy starts without a
//! memo. Canonical bytes are wire bytes (`dra_xml::canon`), so the wire
//! reads the same memo: [`DraDocument::to_xml_string`] fills it on the
//! units the chain pins, and [`SealedDocument::wire`] of a document that
//! grew by one CER formats that CER and copies the rest. Only our own
//! writer fills that memo.
//!
//! **What a receiver of raw bytes still pays.** A tree parsed from the
//! wire (`ingest_wire`, `refetch`, `retrieve_*`) has no memos: whoever
//! receives bytes writes and hashes every node once, when it first
//! verifies it. The parser accepts only the writer's form, so those bytes
//! are the received ones, and a receiver that hands the tree on with a CER
//! of its own copies them instead of formatting the nodes again (its seal
//! of what arrived is the received string, [`SealedDocument::from_wire`]).
//! That is the cost the paper's design has. Only in-process hand-offs of an
//! already hashed tree skip the walk.

use crate::document::DraDocument;
use crate::error::WfResult;
use dra_crypto::Sha256;
use dra_xml::canon_digest;
use std::sync::{Arc, OnceLock};

/// Evidence that a prefix of a document has already been fully verified.
///
/// Issued by [`crate::verify::Verifier::with_mark`]; consumed on the next
/// hop to skip re-verification of the pinned prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrustMark {
    /// Process id of the document the mark belongs to.
    pub process_id: String,
    /// Number of CERs covered by [`TrustMark::prefix_digest`].
    pub verified_cers: usize,
    /// The chained digest `dₖ` (see the module docs) over
    /// `[Header, ApplicationDefinition, CER₀ … CER₍ₖ₋₁₎]`.
    pub prefix_digest: [u8; 32],
    /// Cumulative signature checks spent establishing this mark (designer +
    /// participants + TFC across all passes).
    pub signatures_verified: usize,
}

/// Domain tag of `d₀`; versions the chain construction.
const PREFIX_TAG: &[u8] = b"dra4wfms/prefix-chain/1";

/// One walk of the prefix chain: the digests after `at` CERs (`None` when
/// the document has fewer) and after all of them.
pub(crate) fn prefix_chain(doc: &DraDocument, at: usize) -> WfResult<(Option<[u8; 32]>, [u8; 32])> {
    let mut h = Sha256::new();
    h.update(PREFIX_TAG);
    h.update(&canon_digest(doc.header()?));
    h.update(&canon_digest(doc.app_definition()?));
    let mut d = h.finalize();
    let mut d_at = (at == 0).then_some(d);
    let mut cers = 0;
    for cer in doc.results()?.find_children("CER") {
        let mut h = Sha256::new();
        h.update(&d);
        h.update(&canon_digest(cer));
        d = h.finalize();
        cers += 1;
        if cers == at {
            d_at = Some(d);
        }
    }
    Ok((d_at, d))
}

/// Compute the chained prefix digest a [`TrustMark`] pins: header and
/// application definition plus the first `cer_count` CERs (all of them
/// when the document has fewer).
pub fn prefix_digest(doc: &DraDocument, cer_count: usize) -> WfResult<[u8; 32]> {
    let (at, end) = prefix_chain(doc, cer_count)?;
    Ok(at.unwrap_or(end))
}

/// A parsed document plus its memoized wire form and verification trust.
///
/// Immutable by construction: there is no `&mut` access to the inner
/// document, so the serialized bytes and the trust mark can never go stale.
/// To mutate, call [`SealedDocument::into_document`] (dropping seal and
/// trust) and re-seal afterwards.
#[derive(Clone, Debug)]
pub struct SealedDocument {
    doc: DraDocument,
    /// Memoized wire serialization, shared across clones.
    wire: OnceLock<Arc<String>>,
    trust: Option<TrustMark>,
}

impl SealedDocument {
    /// Seal a document with no prior verification evidence.
    pub fn new(doc: DraDocument) -> SealedDocument {
        SealedDocument { doc, wire: OnceLock::new(), trust: None }
    }

    /// Seal a document together with a [`TrustMark`] covering its prefix.
    pub fn with_trust(doc: DraDocument, trust: TrustMark) -> SealedDocument {
        SealedDocument { doc, wire: OnceLock::new(), trust: Some(trust) }
    }

    /// Parse from the wire form, keeping the received bytes as the seal's
    /// serialization (the bytes that travelled are the bytes we account).
    pub fn from_wire(xml: &str) -> WfResult<SealedDocument> {
        let doc = DraDocument::parse(xml)?;
        let sealed = SealedDocument::new(doc);
        let _ = sealed.wire.set(Arc::new(xml.to_string()));
        Ok(sealed)
    }

    /// The inner document.
    pub fn document(&self) -> &DraDocument {
        &self.doc
    }

    /// The trust mark, when one travels with the document.
    pub fn trust(&self) -> Option<&TrustMark> {
        self.trust.as_ref()
    }

    /// Attach (or replace) the trust mark.
    pub fn set_trust(&mut self, trust: TrustMark) {
        self.trust = Some(trust);
    }

    /// The wire serialization, computed once and shared across clones.
    pub fn wire(&self) -> Arc<String> {
        Arc::clone(self.wire.get_or_init(|| Arc::new(self.doc.to_xml_string())))
    }

    /// Wire size in bytes (the paper's Σ) without re-serializing.
    pub fn size_bytes(&self) -> usize {
        self.wire().len()
    }

    /// The wire serialization as an owned `String` (clones the shared buffer).
    pub fn to_xml_string(&self) -> String {
        self.wire().as_ref().clone()
    }

    /// Unseal for mutation, dropping the memoized bytes and the trust mark.
    pub fn into_document(self) -> DraDocument {
        self.doc
    }
}

impl std::ops::Deref for SealedDocument {
    type Target = DraDocument;
    fn deref(&self) -> &DraDocument {
        &self.doc
    }
}

impl From<DraDocument> for SealedDocument {
    fn from(doc: DraDocument) -> SealedDocument {
        SealedDocument::new(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Credentials;
    use crate::model::WorkflowDefinition;
    use crate::policy::SecurityPolicy;

    fn doc() -> DraDocument {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "peter", &["x"])
            .flow_end("A")
            .build()
            .unwrap();
        DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid")
            .unwrap()
    }

    #[test]
    fn wire_is_memoized_and_shared() {
        let sealed = SealedDocument::new(doc());
        let a = sealed.wire();
        let b = sealed.wire();
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the buffer");
        let clone = sealed.clone();
        assert!(Arc::ptr_eq(&a, &clone.wire()), "clones share the buffer");
        assert_eq!(sealed.size_bytes(), a.len());
    }

    #[test]
    fn from_wire_keeps_received_bytes() {
        let xml = doc().to_xml_string();
        let sealed = SealedDocument::from_wire(&xml).unwrap();
        assert_eq!(*sealed.wire(), xml);
        assert_eq!(sealed.size_bytes(), xml.len());
        assert_eq!(sealed.process_id().unwrap(), "pid");
    }

    #[test]
    fn prefix_digest_changes_with_content() {
        let d = doc();
        let d0 = prefix_digest(&d, 0).unwrap();
        assert_eq!(d0, prefix_digest(&d, 0).unwrap(), "deterministic");

        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "peter", &["x", "y"])
            .flow_end("A")
            .build()
            .unwrap();
        let other =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid")
                .unwrap();
        assert_ne!(d0, prefix_digest(&other, 0).unwrap());
    }

    #[test]
    fn deref_exposes_document_api() {
        let sealed = SealedDocument::new(doc());
        assert_eq!(sealed.process_id().unwrap(), "pid");
        assert!(sealed.cers().unwrap().is_empty());
    }
}
