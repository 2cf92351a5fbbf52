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
//! wire (`ingest_wire`, `retrieve_*`) has no memos: whoever
//! receives bytes writes and hashes every node once, when it first
//! verifies it. The parser accepts only the writer's form, so those bytes
//! are the received ones, and a receiver that hands the tree on with a CER
//! of its own copies them instead of formatting the nodes again (its seal
//! of what arrived is the received string, [`SealedDocument::from_wire`]).
//! That is the cost the paper's design has. Only in-process hand-offs of an
//! already hashed tree skip the walk.

use crate::document::DraDocument;
use crate::error::{WfError, WfResult};
use crate::semantics::Route;
use dra_crypto::Sha256;
use dra_xml::{canon_digest, Element};
use std::collections::HashMap;
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
        d = chain_next(&d, cer);
        cers += 1;
        if cers == at {
            d_at = Some(d);
        }
    }
    Ok((d_at, d))
}

/// `dᵢ₊₁` from `dᵢ` and CERᵢ: the chain digest of a document one CER longer
/// than the one `d` names, the rest hashed no more.
pub fn chain_next(d: &[u8; 32], cer: &Element) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(d);
    h.update(&canon_digest(cer));
    h.finalize()
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
    /// Only a party that just ran a [`Verifier`](crate::verify::Verifier)
    /// pass holds one to give: an AEA completing a hop, the TFC finalizing
    /// one, a join merging verified arrivals ([`crate::flow::merge_sealed`]).
    pub(crate) fn with_trust(doc: DraDocument, trust: TrustMark) -> SealedDocument {
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

    /// What `wire`, a damaged or rebuilt copy of `sender`'s document, reads
    /// as at a receiver: parsed from its own bytes and handed the mark
    /// `sender` holds, and no other. Safe because the mark pins a prefix
    /// digest: a copy damaged inside the prefix no longer matches it, so
    /// verification falls back to the full pass and rejects it.
    pub fn arrived(wire: &str, sender: &SealedDocument) -> WfResult<SealedDocument> {
        let mut sealed = SealedDocument::from_wire(wire)?;
        sealed.trust = sender.trust.clone();
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

/// The branch heads a receiver holds: versions some routed target of which
/// has still to extend them, each named by its chain digest `dₖ` and kept as
/// a `T` that holds its wire. A delta hand-off names the head it extends and
/// is rebuilt from it ([`Heads::arrived`]). The portals keep one per cloud,
/// the TFC its own; the rules are the same:
///
/// * executing X strikes X off every head of the process;
/// * a head that waits for nothing goes;
/// * a final route drops every head of the process;
/// * a new head waits for its route's targets.
///
/// So a process holds at most one head per live branch, and none once it
/// ended. Heads live in memory: a receiver rebuilt empty refuses the names
/// it lost, and the sender answers with the whole wire.
pub struct Heads<T> {
    /// `pid →` its heads.
    by_process: HashMap<String, Vec<Head<T>>>,
    /// The name of every head `→` its process.
    named: HashMap<[u8; 32], String>,
}

struct Head<T> {
    name: [u8; 32],
    /// The routed targets no version has executed yet.
    pending: Vec<String>,
    value: T,
}

impl<T> Default for Heads<T> {
    fn default() -> Heads<T> {
        Heads { by_process: HashMap::new(), named: HashMap::new() }
    }
}

impl<T> Heads<T> {
    /// `value`, named `name`, is a version of `pid` that executed `executed`
    /// (`None` for the initial document) and was routed as `route`.
    pub fn advance(
        &mut self,
        pid: &str,
        name: [u8; 32],
        executed: Option<&str>,
        route: &Route,
        value: T,
    ) {
        if route.is_final() {
            self.drop_where(pid, |_| true);
            return;
        }
        if let Some(executed) = executed {
            for head in self.by_process.get_mut(pid).into_iter().flatten() {
                head.pending.retain(|target| target != executed);
            }
        }
        self.drop_where(pid, |head| head.pending.is_empty() || head.name == name);
        let head = Head { name, pending: route.targets.clone(), value };
        self.by_process.entry(pid.to_string()).or_default().push(head);
        self.named.insert(name, pid.to_string());
    }

    /// Drop the heads of `pid` that `gone` picks, with their names.
    fn drop_where(&mut self, pid: &str, gone: impl Fn(&Head<T>) -> bool) {
        let Some(heads) = self.by_process.get_mut(pid) else { return };
        for head in heads.iter().filter(|head| gone(head)) {
            self.named.remove(&head.name);
        }
        heads.retain(|head| !gone(head));
        if heads.is_empty() {
            self.by_process.remove(pid);
        }
    }

    /// The head named `name`, if one is held.
    pub fn get(&self, name: &[u8; 32]) -> Option<&T> {
        let heads = self.by_process.get(self.named.get(name)?)?;
        heads.iter().find(|head| head.name == *name).map(|head| &head.value)
    }

    /// The heads of `pid`, oldest first.
    pub fn of(&self, pid: &str) -> impl Iterator<Item = &T> {
        self.by_process.get(pid).into_iter().flatten().map(|head| &head.value)
    }

    /// Heads held: at most one per live branch of each running process.
    pub fn held(&self) -> usize {
        self.named.len()
    }

    /// Forget every head, as a receiver rebuilt empty does.
    pub fn clear(&mut self) {
        *self = Heads::default();
    }
}

impl<T: Clone + AsRef<String>> Heads<T> {
    /// The head named `base` and what a delta against it reads as here:
    /// intact (`damaged` is `None`), the sender's document, nothing rebuilt
    /// or parsed (equal chain digests name equal bytes, and the parser
    /// accepts one spelling); damaged, `keep` bytes of the head and the
    /// `damaged` tail, parsed and handed the sender's mark.
    ///
    /// # Errors
    ///
    /// [`WfError::UnknownBase`] for a name no head has, before a byte is
    /// read; [`WfError::Malformed`] for a `keep` past the head's end or
    /// inside one of its characters; a parse error for rebuilt non-documents.
    pub fn arrived(
        &self,
        (base, keep): (&[u8; 32], usize),
        damaged: Option<&str>,
        sender: &SealedDocument,
    ) -> WfResult<(T, SealedDocument)> {
        let head =
            self.get(base).ok_or_else(|| WfError::UnknownBase(dra_crypto::hex::encode(base)))?;
        let rebuild = |tail: &str| match head.as_ref().get(..keep) {
            Some(kept) => Ok([kept, tail].concat()),
            None => Err(WfError::Malformed(format!("a delta keeps {keep} bytes of its base"))),
        };
        let sealed = match damaged {
            None => {
                debug_assert_eq!(
                    rebuild(&sender.wire()[keep..]).ok().as_deref(),
                    Some(sender.wire().as_str()),
                    "rebuilt delta ≠ sender's wire"
                );
                sender.clone()
            }
            Some(tail) => SealedDocument::arrived(&rebuild(tail)?, sender)?,
        };
        Ok((head.clone(), sealed))
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

    fn route(targets: &[&str]) -> Route {
        Route { targets: targets.iter().map(|t| t.to_string()).collect(), ends: targets.is_empty() }
    }

    #[test]
    fn a_head_waits_for_its_targets_and_goes_with_its_process() {
        let mut heads = Heads::<u8>::default();
        let name = |n: u8| [n; 32];
        heads.advance("p", name(0), None, &route(&["A"]), 0);
        heads.advance("q", name(9), None, &route(&["A"]), 9);
        heads.advance("p", name(1), Some("A"), &route(&["B1", "B2"]), 1);
        assert_eq!((heads.get(&name(0)), heads.held()), (None, 2), "A struck, v0 waits for none");
        heads.advance("p", name(2), Some("B1"), &route(&["C"]), 2);
        assert_eq!(heads.get(&name(1)), Some(&1), "the split still waits for B2");
        heads.advance("p", name(3), Some("B2"), &route(&["C"]), 3);
        assert_eq!((heads.get(&name(1)), heads.held()), (None, 3), "one head per live branch");
        // the same version again replaces its head; a final route drops all
        heads.advance("p", name(3), Some("B2"), &route(&["C"]), 3);
        assert_eq!(heads.held(), 3);
        heads.advance("p", name(4), Some("C"), &route(&[]), 4);
        assert_eq!((heads.held(), heads.get(&name(9))), (1, Some(&9)), "q is untouched");
        heads.clear();
        assert_eq!(heads.held(), 0);
    }

    /// Every delta a hostile or damaged sender can name comes back as a
    /// typed error, never a panic; the one that rebuilds a document is it.
    #[test]
    fn hostile_deltas_are_refused_with_typed_errors() {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "peter", &["x"])
            .flow_end("A")
            .build()
            .unwrap();
        let doc =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "café")
                .unwrap();
        let sender = SealedDocument::new(doc);
        let wire = sender.wire();
        let name = prefix_digest(&sender, usize::MAX).unwrap();
        let mut heads = Heads::default();
        heads.advance("café", name, None, &route(&["A"]), Arc::clone(&wire));

        let inside = wire.find('é').unwrap() + 1;
        let half = wire.len() / 2;
        let kind = |e: &WfError| match e {
            WfError::UnknownBase(_) => "unknown base",
            WfError::Malformed(_) => "malformed",
            WfError::Parse(_) => "parse",
            _ => "another",
        };
        let cases: [(&str, [u8; 32], usize, &str, &str); 4] = [
            ("an unknown name", [7; 32], 0, &wire, "unknown base"),
            ("keep past the end", name, wire.len() + 1, "", "malformed"),
            ("keep inside a character", name, inside, &wire[inside + 1..], "malformed"),
            ("an empty tail", name, half, "", "parse"),
        ];
        for (case, base, keep, tail, expected) in cases {
            let refused = heads.arrived((&base, keep), Some(tail), &sender);
            assert_eq!(refused.as_ref().err().map(kind), Some(expected), "{case}: {refused:?}");
        }
        let (head, rebuilt) = heads.arrived((&name, half), Some(&wire[half..]), &sender).unwrap();
        assert_eq!((head, rebuilt.wire()), (Arc::clone(&wire), Arc::clone(&wire)));
        let (_, intact) = heads.arrived((&name, half), None, &sender).unwrap();
        assert!(Arc::ptr_eq(&intact.wire(), &wire), "an intact copy is the sender's");
    }

    #[test]
    fn deref_exposes_document_api() {
        let sealed = SealedDocument::new(doc());
        assert_eq!(sealed.process_id().unwrap(), "pid");
        assert!(sealed.cers().unwrap().is_empty());
    }
}
