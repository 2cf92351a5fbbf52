//! Serialization of element trees: compact (wire format) and pretty
//! (debugging / examples).

use crate::escape::{escape_attr, escape_text, escaped_len};
use crate::node::{Element, Node};

/// Serialize compactly with no added whitespace. This is the wire format in
/// which DRA4WfMS documents are routed, and the format whose byte length the
/// paper's Σ column measures.
pub fn to_string(el: &Element) -> String {
    let mut out = String::new();
    write_el(el, &mut out);
    out
}

fn write_el(el: &Element, out: &mut String) {
    out.push('<');
    out.push_str(&el.name);
    for (k, v) in &el.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_attr(v));
        out.push('"');
    }
    if el.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for child in &el.children {
        match child {
            Node::Element(e) => write_el(e, out),
            Node::Text(t) => out.push_str(&escape_text(t)),
        }
    }
    out.push_str("</");
    out.push_str(&el.name);
    out.push('>');
}

/// `to_string(el).len()` by a walk that builds nothing — the size probe
/// for a tree nobody has serialized yet.
pub fn wire_len(el: &Element) -> usize {
    let attrs: usize =
        el.attrs.iter().map(|(k, v)| 1 + k.len() + 2 + escaped_len(v, true) + 1).sum();
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
    let mut out = String::new();
    write_pretty(el, 0, &mut out);
    out
}

fn write_pretty(el: &Element, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&pad);
    out.push('<');
    out.push_str(&el.name);
    for (k, v) in &el.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_attr(v));
        out.push('"');
    }
    if el.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    let only_text = el.children.iter().all(|n| matches!(n, Node::Text(_)));
    if only_text {
        out.push('>');
        for n in &el.children {
            if let Node::Text(t) = n {
                out.push_str(&escape_text(t));
            }
        }
        out.push_str("</");
        out.push_str(&el.name);
        out.push_str(">\n");
        return;
    }
    out.push_str(">\n");
    for child in &el.children {
        match child {
            Node::Element(e) => write_pretty(e, depth + 1, out),
            Node::Text(t) => {
                if !t.trim().is_empty() {
                    out.push_str(&"  ".repeat(depth + 1));
                    out.push_str(&escape_text(t));
                    out.push('\n');
                }
            }
        }
    }
    out.push_str(&pad);
    out.push_str("</");
    out.push_str(&el.name);
    out.push_str(">\n");
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
