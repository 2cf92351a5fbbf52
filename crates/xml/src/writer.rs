//! Serialization of element trees: the one byte form, and a pretty printer
//! for people.
//!
//! [`to_string`] writes an element as `<name`, then ` key="value"` per
//! attribute in name order (the node keeps them so), then `/>` when it has no
//! children, else `>`, the children and `</name>`. Text and values are
//! escaped as [`crate::escape`] says, and no white space is added. These are
//! the wire bytes, the bytes a signature covers ([`crate::canon`]) and the
//! only bytes [`crate::parser::parse`] accepts.

use crate::escape::{escape_into, escaped_len};
use crate::node::{Element, Node};

/// Serialize with no added whitespace. This is the wire format in which
/// DRA4WfMS documents are routed, the format whose byte length the paper's Σ
/// column measures, and the canonical form signatures cover.
///
/// A node whose bytes are memoized ([`Element::wire`]) is copied, not
/// walked. A debug build formats the tree once more without any memo and
/// requires the same bytes.
pub fn to_string(el: &Element) -> String {
    let out = format(el);
    debug_assert_eq!(out, cold(el), "a memo differs from its node's serialization");
    out
}

/// The bytes of `el`, formatted from its name, attributes and children;
/// whatever lies below a memoized node is copied from the memo.
pub(crate) fn format(el: &Element) -> String {
    let mut out = Vec::new();
    let copied = write_el(el, &mut out, true);
    WIRE_WRITTEN.with(|c| c.set(c.get() + (out.len() - copied) as u64));
    utf8(out)
}

/// The bytes of `el` by a walk that reads no memo and counts nothing.
fn cold(el: &Element) -> String {
    let mut out = Vec::new();
    write_el(el, &mut out, false);
    utf8(out)
}

/// The walks write bytes, not `String` pushes, which ran at half the speed
/// on freshly parsed trees. Every piece written is a `str` or an ASCII
/// escape, so the lossy branch here is never taken; it keeps the library
/// free of a panicking path.
fn utf8(out: Vec<u8>) -> String {
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

thread_local! {
    /// Bytes this thread's writer formatted rather than copied from a memo
    /// — like [`crate::canon_alloc_bytes`], a deterministic cost measure for
    /// benches.
    static WIRE_WRITTEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes the current thread's writer formatted so far: everything
/// [`to_string`] and every memo it or [`crate::canon`] made produced,
/// except what they copied from a memo.
pub fn wire_written_bytes() -> u64 {
    WIRE_WRITTEN.with(std::cell::Cell::get)
}

/// Reset the current thread's [`wire_written_bytes`] counter.
pub fn wire_written_bytes_reset() {
    WIRE_WRITTEN.with(|c| c.set(0));
}

/// `<name` and its attributes, the start of every tag the writers write.
fn open_tag(el: &Element, out: &mut Vec<u8>) {
    out.push(b'<');
    out.extend_from_slice(el.name.as_bytes());
    for (k, v) in el.attrs() {
        out.push(b' ');
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b"=\"");
        escape_into(v, out, true);
        out.push(b'"');
    }
}

/// Append `el` to `out`; returns how many of the bytes were copied from
/// memos, which only a `warm` walk reads.
fn write_el(el: &Element, out: &mut Vec<u8>, warm: bool) -> usize {
    if let Some(memo) = el.memo_cached().filter(|_| warm) {
        out.extend_from_slice(memo.bytes());
        return memo.bytes().len();
    }
    open_tag(el, out);
    if el.children.is_empty() {
        out.extend_from_slice(b"/>");
        return 0;
    }
    out.push(b'>');
    let mut copied = 0;
    for child in &el.children {
        match child {
            Node::Element(e) => copied += write_el(e, out, warm),
            Node::Text(t) => escape_into(t, out, false),
        }
    }
    close_tag(el, out);
    copied
}

/// `</name>`.
fn close_tag(el: &Element, out: &mut Vec<u8>) {
    out.extend_from_slice(b"</");
    out.extend_from_slice(el.name.as_bytes());
    out.push(b'>');
}

/// `to_string(el).len()` by a walk that builds nothing — the size probe
/// for a tree nobody has serialized yet.
pub fn wire_len(el: &Element) -> usize {
    let attrs: usize =
        el.attrs().iter().map(|(k, v)| 1 + k.len() + 2 + escaped_len(v, true) + 1).sum();
    if el.children.is_empty() {
        return 1 + el.name.len() + attrs + 2;
    }
    let children: usize = el
        .children
        .iter()
        .map(|child| match child {
            Node::Element(e) => wire_len(e),
            Node::Text(t) => escaped_len(t, false),
        })
        .sum();
    1 + el.name.len() + attrs + 1 + children + 2 + el.name.len() + 1
}

/// Pretty-print with 2-space indentation. Text-bearing elements are kept on
/// one line so content round-trips visually.
pub fn to_pretty_string(el: &Element) -> String {
    let mut out = Vec::new();
    write_pretty(el, 0, &mut out);
    utf8(out)
}

fn write_pretty(el: &Element, depth: usize, out: &mut Vec<u8>) {
    let pad = "  ".repeat(depth);
    out.extend_from_slice(pad.as_bytes());
    open_tag(el, out);
    if el.children.is_empty() {
        out.extend_from_slice(b"/>\n");
        return;
    }
    let only_text = el.children.iter().all(|n| matches!(n, Node::Text(_)));
    if only_text {
        out.push(b'>');
        for n in &el.children {
            if let Node::Text(t) = n {
                escape_into(t, out, false);
            }
        }
        close_tag(el, out);
        out.push(b'\n');
        return;
    }
    out.extend_from_slice(b">\n");
    for child in &el.children {
        match child {
            Node::Element(e) => write_pretty(e, depth + 1, out),
            Node::Text(t) => {
                if !t.trim().is_empty() {
                    out.extend_from_slice("  ".repeat(depth + 1).as_bytes());
                    escape_into(t, out, false);
                    out.push(b'\n');
                }
            }
        }
    }
    out.extend_from_slice(pad.as_bytes());
    close_tag(el, out);
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_element() {
        assert_eq!(to_string(&Element::new("a")), "<a/>");
    }

    #[test]
    fn attributes_and_text() {
        let e = Element::new("a").attr("k", "v<>").text("x & y");
        assert_eq!(to_string(&e), "<a k=\"v&lt;&gt;\">x &amp; y</a>");
    }

    #[test]
    fn wire_len_matches_the_serialized_length() {
        let e = Element::new("r")
            .attr("k", "v<>&\"\n\r\t'")
            .child(Element::new("empty").attr("a", "1"))
            .child(Element::new("c").text("x & <y> \"q\"\n"))
            .text("tail & more");
        assert_eq!(wire_len(&e), to_string(&e).len());
        assert_eq!(wire_len(&Element::new("a")), "<a/>".len());
    }

    /// `e`, with the wire memo of each of its children filled.
    fn warmed(e: Element) -> Element {
        e.child_elements().for_each(|c| {
            c.wire();
        });
        e
    }

    fn family() -> Element {
        Element::new("doc")
            .attr("z", "1")
            .attr("a", "2")
            .child(Element::new("keep").text("k & k"))
            .child(Element::new("edit").child(Element::new("empty")))
    }

    #[test]
    fn a_memoized_node_is_copied_and_only_the_rest_counts_as_written() {
        let cold = to_string(&family());
        let e = family();
        wire_written_bytes_reset();
        assert_eq!(to_string(&e), cold);
        assert_eq!(wire_written_bytes(), cold.len() as u64, "no memo: every byte formatted");

        let e = warmed(e);
        let children: usize = e.child_elements().map(|c| c.wire().len()).sum();
        assert_eq!(wire_written_bytes(), (cold.len() + children) as u64);
        wire_written_bytes_reset();
        assert_eq!(to_string(&e), cold);
        assert_eq!(wire_written_bytes(), (cold.len() - children) as u64, "the root's own tags");
        assert_eq!(e.wire(), cold);
        wire_written_bytes_reset();
        assert_eq!(to_string(&e.clone()), cold, "a clone shares the memo");
        assert_eq!(wire_written_bytes(), 0);
    }

    #[test]
    fn wire_memo_is_dropped_by_every_mut_accessor() {
        let memoized = || {
            let e = warmed(family());
            e.wire();
            e
        };
        let differs = |e: &Element, what: &str| {
            let expect = to_string(&crate::parser::parse(&cold(e)).unwrap());
            assert_ne!(expect, to_string(&family()), "{what}: the tree changed");
            assert_eq!(to_string(e), expect, "{what}: a stale memo was served");
            assert_eq!(e.wire(), expect, "{what}");
        };

        let mut e = memoized();
        e.set_attr("b", "2");
        differs(&e, "set_attr");

        let mut e = memoized();
        e.push_child(Element::new("d"));
        differs(&e, "push_child");

        let mut e = memoized();
        e.remove_children("keep");
        differs(&e, "remove_children");

        let mut e = memoized();
        e.find_child_mut("edit").unwrap().set_attr("k", "v");
        differs(&e, "find_child_mut");

        let mut e = memoized();
        e.children.pop();
        e.invalidate_canon();
        differs(&e, "direct field mutation + invalidate_canon");

        differs(&memoized().text("t"), "text");
        differs(&memoized().child(Element::new("c")), "child");
    }

    #[test]
    fn a_mutated_clone_keeps_its_wire_memo_from_its_sibling() {
        let original = warmed(family());
        let before = original.wire().to_string();
        let mut copy = original.clone();
        copy.find_child_mut("edit").unwrap().set_attr("tampered", "yes");
        assert!(copy.wire().contains("tampered"));

        // the sibling: same bytes, nothing formatted to get them
        wire_written_bytes_reset();
        assert_eq!(original.wire(), before);
        assert_eq!(to_string(&original), before);
        assert_eq!(wire_written_bytes(), 0);
        // the untouched child is still the one node, memo and all
        wire_written_bytes_reset();
        copy.find_child("keep").unwrap().wire();
        assert_eq!(wire_written_bytes(), 0);
        // and the digest went with the bytes
        assert_ne!(crate::canon_digest(&copy), crate::canon_digest(&original));
    }

    #[test]
    fn nesting() {
        let e = Element::new("r").child(Element::new("c").text("t"));
        assert_eq!(to_string(&e), "<r><c>t</c></r>");
    }

    #[test]
    fn pretty_print_shape() {
        let e = Element::new("r").child(Element::new("a").text("x")).child(Element::new("b"));
        let p = to_pretty_string(&e);
        assert_eq!(p, "<r>\n  <a>x</a>\n  <b/>\n</r>\n");
    }
}
