//! The bytes a signature covers — the role W3C C14N plays for XML Signature.
//!
//! C14N exists because a signer and a verifier do not share a writer. Here
//! they do, so the canonical bytes of a subtree are its wire bytes, exactly
//! what [`crate::writer::to_string`] writes:
//!
//! * attributes sorted by name (the node keeps them so),
//! * `<a/>` for an element with no children,
//! * text and attribute values escaped as [`crate::escape`] says,
//! * no white space added.
//!
//! [`crate::parser::parse`] accepts nothing else, so a document has one
//! spelling: every accepted `w` re-serialises to `w`, and a signature covers
//! the very bytes that travel.

use crate::node::{Canon, Element};
use std::sync::Arc;

/// Canonical byte serialization of one element subtree.
pub fn canonicalize(el: &Element) -> Vec<u8> {
    el.memo().bytes().to_vec()
}

/// Canonical bytes of one subtree, memoized on the element. The first call
/// walks the tree; later calls on the unmutated element return the shared
/// memo in O(1). Mutating the element through any `&mut` accessor drops
/// the memo (see [`Element::invalidate_canon`]).
pub fn canonicalize_shared(el: &Element) -> Arc<Canon> {
    Arc::clone(el.memo())
}

/// SHA-256 of the canonical bytes of one subtree, memoized on the element
/// next to the bytes: an unmutated node is hashed once, however many trees
/// share it and however often it is asked.
pub fn canon_digest(el: &Element) -> [u8; 32] {
    el.memo().digest()
}

/// Canonical bytes of a sequence of subtrees, length-prefix framed so that
/// the concatenation is injective (no boundary ambiguity between parts).
/// Each part comes from the per-element memo.
pub fn canonicalize_all<'a>(els: impl IntoIterator<Item = &'a Element>) -> Vec<u8> {
    let mut out = Vec::new();
    for el in els {
        let part = el.memo().bytes();
        out.extend_from_slice(&(part.len() as u64).to_be_bytes());
        out.extend_from_slice(part);
    }
    count_alloc(out.len() as u64);
    out
}

thread_local! {
    /// Bytes of canonical output that required a fresh heap allocation on
    /// this thread — a deterministic cost measure for benches.
    static CANON_ALLOC: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

pub(crate) fn count_alloc(bytes: u64) {
    CANON_ALLOC.with(|c| c.set(c.get() + bytes));
}

/// Canonicalization bytes freshly allocated by the current thread so far
/// (memo builds and [`canonicalize_all`] result vectors).
pub fn canon_alloc_bytes() -> u64 {
    CANON_ALLOC.with(std::cell::Cell::get)
}

/// Reset the current thread's canonicalization-allocation counter.
pub fn canon_alloc_reset() {
    CANON_ALLOC.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::writer::to_string;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn attribute_order_is_normalized() {
        let a = Element::new("e").attr("b", "2").attr("a", "1");
        let b = Element::new("e").attr("a", "1").attr("b", "2");
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn an_empty_element_self_closes() {
        assert_eq!(canonicalize(&Element::new("a")), b"<a/>");
        assert_eq!(canonicalize(&Element::new("a").text("")), b"<a/>");
    }

    #[test]
    fn differs_on_content_change() {
        let a = Element::new("e").text("x");
        let b = Element::new("e").text("y");
        assert_ne!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn stable_across_parse_roundtrip() {
        let e = Element::new("doc")
            .attr("z", "last")
            .attr("a", "first")
            .child(Element::new("c").text("body & <text>"))
            .text("tail\"quote");
        let reparsed = parse(&to_string(&e)).unwrap();
        assert_eq!(canonicalize(&e), canonicalize(&reparsed));
    }

    #[test]
    fn framed_concatenation_is_injective() {
        // <a>bc</a> vs <a>b</a><c/> style boundary confusion must not collide.
        let one = [Element::new("a").text("bc")];
        let two = [Element::new("a").text("b"), Element::new("c")];
        assert_ne!(canonicalize_all(one.iter()), canonicalize_all(two.iter()));
    }

    #[test]
    fn empty_sequence() {
        assert!(canonicalize_all(std::iter::empty()).is_empty());
    }

    #[test]
    fn memo_is_reused_until_mutation() {
        let mut e = Element::new("e").attr("a", "1").child(Element::new("c").text("x"));
        let first = canonicalize_shared(&e);
        let second = canonicalize_shared(&e);
        assert!(Arc::ptr_eq(&first, &second), "second call must reuse the memo");

        e.set_attr("a", "2");
        let third = canonicalize_shared(&e);
        assert!(!Arc::ptr_eq(&first, &third), "mutation must drop the memo");
        assert_ne!(first.bytes(), third.bytes());
        assert_ne!(first.digest(), third.digest());
        assert_eq!(
            third.bytes(),
            canonicalize(&Element::new("e").attr("a", "2").child(Element::new("c").text("x")))
        );
    }

    #[test]
    fn digest_is_sha256_of_the_canonical_bytes_and_hashed_once() {
        let e = Element::new("e").attr("a", "1").child(Element::new("c").text("x"));
        assert_eq!(canon_digest(&e), dra_crypto::sha256(&canonicalize(&e)));
        dra_crypto::sha256_bytes_reset();
        let again = canon_digest(&e.clone());
        assert_eq!(dra_crypto::sha256_bytes(), 0, "a clone reads the memoized digest");
        assert_eq!(again, canon_digest(&e));
    }

    #[test]
    fn copy_on_write_leaves_the_shared_sibling_untouched() {
        let original = Element::new("doc")
            .child(Element::new("keep").text("k"))
            .child(Element::new("edit").text("e"));
        let before = canonicalize_shared(&original);
        let keep_digest = canon_digest(original.find_child("keep").unwrap());

        let mut copy = original.clone();
        let shared = |a: &Element, b: &Element, i: usize| {
            Arc::ptr_eq(a.shared_children().nth(i).unwrap(), b.shared_children().nth(i).unwrap())
        };
        assert!(shared(&original, &copy, 0) && shared(&original, &copy, 1), "clone shares nodes");

        copy.find_child_mut("edit").unwrap().set_attr("tampered", "yes");
        assert!(shared(&original, &copy, 0), "the untouched child stays shared");
        assert!(!shared(&original, &copy, 1), "the touched child was copied, not mutated");
        assert_ne!(canon_digest(&copy), before.digest());

        // the sibling: same bytes, same memo, same digest as before
        assert!(Arc::ptr_eq(&before, &canonicalize_shared(&original)));
        assert!(original.find_child("edit").unwrap().get_attr("tampered").is_none());
        dra_crypto::sha256_bytes_reset();
        assert_eq!(canon_digest(copy.find_child("keep").unwrap()), keep_digest);
        assert_eq!(dra_crypto::sha256_bytes(), 0, "the shared node's digest memo survived");
    }

    #[test]
    fn memo_invalidated_by_every_mut_accessor() {
        let build = || Element::new("e").attr("a", "1").child(Element::new("c").text("x"));

        // set_attr
        let mut e = build();
        let before = canonicalize(&e);
        e.set_attr("b", "2");
        assert_ne!(before, canonicalize(&e));

        // push_child
        let mut e = build();
        let before = canonicalize(&e);
        e.push_child(Element::new("d"));
        assert_ne!(before, canonicalize(&e));

        // remove_children
        let mut e = build();
        let before = canonicalize(&e);
        e.remove_children("c");
        assert_ne!(before, canonicalize(&e));

        // find_child_mut, then mutate the child through the reference
        let mut e = build();
        let before = canonicalize(&e);
        e.find_child_mut("c").unwrap().set_attr("k", "v");
        assert_ne!(before, canonicalize(&e));

        // direct field mutation + explicit invalidate_canon
        let mut e = build();
        let before = canonicalize(&e);
        e.children.clear();
        e.invalidate_canon();
        assert_ne!(before, canonicalize(&e));
    }

    #[test]
    fn clone_keeps_memo_but_diverges_safely() {
        let original = Element::new("e").text("shared");
        let first = canonicalize_shared(&original);
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&first, &canonicalize_shared(&copy)));
        copy.set_attr("changed", "yes");
        assert_ne!(canonicalize(&copy), canonicalize(&original));
        // the original's memo is untouched by the clone's mutation
        assert!(Arc::ptr_eq(&first, &canonicalize_shared(&original)));
    }

    #[test]
    fn cached_child_contributes_to_fresh_parent() {
        let mut child = Element::new("c").text("deep & dark");
        let direct = canonicalize(&child);
        let _ = canonicalize_shared(&child); // memoize the child
        child.invalidate_canon();
        let _ = canonicalize_shared(&child); // re-memoize
        let parent = Element::new("p").child(child.clone());
        let via_parent = canonicalize(&parent);
        let mut expect = Vec::new();
        expect.extend_from_slice(b"<p>");
        expect.extend_from_slice(&direct);
        expect.extend_from_slice(b"</p>");
        assert_eq!(via_parent, expect);
    }

    #[test]
    fn builders_drop_a_stale_memo() {
        let e = Element::new("e");
        let empty = canonicalize(&e);
        assert_ne!(canonicalize(&e.clone().text("t")), empty);
        assert_ne!(canonicalize(&e.clone().child(Element::new("c"))), empty);
    }

    // Strategy for random small element trees.
    fn arb_name() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9]{0,6}"
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // printable-ish text including XML specials
        proptest::collection::vec(
            prop_oneof![
                any::<char>().prop_filter("no ctrl", |c| !c.is_control()),
                Just('<'),
                Just('&'),
                Just('"'),
            ],
            0..12,
        )
        .prop_map(|v| v.into_iter().collect())
    }

    fn arb_element() -> impl Strategy<Value = Element> {
        let leaf = (arb_name(), arb_text()).prop_map(|(n, t)| Element::new(n).text(t));
        leaf.prop_recursive(3, 24, 4, |inner| {
            (
                arb_name(),
                proptest::collection::vec((arb_name(), arb_text()), 0..3),
                proptest::collection::vec(inner, 0..4),
            )
                .prop_map(|(name, attrs, children)| {
                    let mut e = Element::new(name);
                    for (k, v) in attrs {
                        e.set_attr(k, v);
                    }
                    for c in children {
                        e.push_child(c);
                    }
                    e
                })
        })
    }

    proptest! {
        /// The fundamental signature-stability property: canonical bytes are
        /// invariant under serialize→parse round trips.
        #[test]
        fn prop_canon_stable_roundtrip(e in arb_element()) {
            let wire = to_string(&e);
            let reparsed = parse(&wire).unwrap();
            prop_assert_eq!(canonicalize(&e), canonicalize(&reparsed));
        }

        /// The memo is invisible: a tree serializes to the same bytes with
        /// no memo and with a memo on every node below the root.
        #[test]
        fn prop_wire_is_the_same_warm_and_cold(e in arb_element()) {
            fn warm(e: &Element) {
                e.child_elements().for_each(warm);
                e.wire();
            }
            let cold = to_string(&e);
            e.child_elements().for_each(warm);
            prop_assert_eq!(&to_string(&e), &cold);
            prop_assert_eq!(e.wire(), cold.as_str());
        }

        /// One form: the canonical bytes are the wire bytes.
        #[test]
        fn prop_canonical_bytes_are_the_wire(e in arb_element()) {
            prop_assert_eq!(canonicalize(&e), to_string(&e).into_bytes());
        }

        /// Whatever the builders make, the parser takes back, and writing
        /// what it took back gives the same bytes.
        #[test]
        fn prop_write_parse_write_is_the_identity(e in arb_element()) {
            let wire = to_string(&e);
            prop_assert_eq!(to_string(&parse(&wire).unwrap()), wire);
        }

        /// Parsing the wire format reproduces an equivalent tree (text node
        /// merging aside, which canonical bytes capture).
        #[test]
        fn prop_wire_roundtrip_canonical(e in arb_element()) {
            let once = parse(&to_string(&e)).unwrap();
            let twice = parse(&to_string(&once)).unwrap();
            prop_assert_eq!(once, twice);
        }
    }
}
