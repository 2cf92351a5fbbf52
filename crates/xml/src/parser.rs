//! A recursive-descent parser for the XML subset this system writes:
//! elements, attributes, text, entity references, comments, XML declaration
//! and processing instructions (skipped). No DTDs, no namespaces-aware
//! processing (prefixes are kept verbatim in names), no CDATA.

use crate::escape::unescape;
use crate::node::{Element, Node};
use std::sync::Arc;

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest element nesting [`parse`] accepts. The parser recurses once per
/// level and runs on wire bytes nobody has verified yet, so the bound is what
/// keeps hostile input from overflowing the stack; the documents this system
/// writes stay below 16 levels.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

/// Parse a complete document (one root element, optional declaration,
/// comments and PIs around it).
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser { input: input.as_bytes(), pos: 0 };
    p.skip_prolog()?;
    let root = p.parse_element(1)?;
    p.skip_misc();
    if p.pos != p.input.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &[u8], what: &str) -> Result<(), ParseError> {
        while self.pos < self.input.len() {
            if self.starts_with(end) {
                self.pos += end.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(format!("unterminated {what}")))
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                self.skip_until(b"?>", "processing instruction")?;
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->", "comment")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with(b"<!--") {
                if self.skip_until(b"-->", "comment").is_err() {
                    return;
                }
            } else if self.starts_with(b"<?") {
                if self.skip_until(b"?>", "pi").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn parse_element(&mut self, depth: usize) -> Result<Element, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut el = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    self.expect(b'"')?;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'"') {
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    self.expect(b'"')?;
                    let value =
                        unescape(&raw).ok_or_else(|| self.err("bad entity in attribute"))?;
                    if el.get_attr(&key).is_some() {
                        return Err(self.err(format!("duplicate attribute '{key}'")));
                    }
                    el.set_attr(key, value);
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
        // children
        loop {
            if self.starts_with(b"</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != el.name {
                    return Err(self.err(format!(
                        "mismatched close tag: expected </{}>, found </{close}>",
                        el.name
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(el);
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->", "comment")?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element(depth + 1)?;
                el.children.push(Node::Element(Arc::new(child)));
            } else if self.peek().is_some() {
                let start = self.pos;
                while self.peek().is_some_and(|c| c != b'<') {
                    self.pos += 1;
                }
                let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                let text = unescape(&raw).ok_or_else(|| self.err("bad entity in text"))?;
                if !text.is_empty() {
                    el.children.push(Node::Text(text));
                }
            } else {
                return Err(self.err(format!("unexpected end of input inside <{}>", el.name)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::to_string;

    #[test]
    fn simple() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name, "a");
        assert!(e.children.is_empty());
    }

    #[test]
    fn attributes() {
        let e = parse(r#"<a k="v" x="1&amp;2"/>"#).unwrap();
        assert_eq!(e.get_attr("k"), Some("v"));
        assert_eq!(e.get_attr("x"), Some("1&2"));
    }

    #[test]
    fn nested_with_text() {
        let e = parse("<r><c>hi &lt;there&gt;</c>tail</r>").unwrap();
        assert_eq!(e.find_child("c").unwrap().text_content(), "hi <there>");
        assert_eq!(e.text_content(), "tail");
    }

    #[test]
    fn declaration_and_comments_skipped() {
        let e = parse("<?xml version=\"1.0\"?><!-- note --><r><!-- inner --><c/></r>").unwrap();
        assert!(e.find_child("c").is_some());
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn duplicate_attr_rejected() {
        assert!(parse(r#"<a k="1" k="2"/>"#).is_err());
    }

    #[test]
    fn roundtrip_writer_parser() {
        let e = crate::Element::new("doc")
            .attr("id", "x\"y<z>&")
            .child(crate::Element::new("inner").text("text & <entities>"))
            .text("trailing");
        let s = to_string(&e);
        assert_eq!(parse(&s).unwrap(), e);
    }

    #[test]
    fn whitespace_between_attrs() {
        let e = parse("<a  k=\"1\"   j=\"2\" />").unwrap();
        assert_eq!(e.get_attr("k"), Some("1"));
        assert_eq!(e.get_attr("j"), Some("2"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, 3 * MAX_DEPTH, "the first element past the bound");
        // deep enough to overflow the stack of an unbounded recursion
        let e = parse(&"<a>".repeat(100_000)).unwrap_err();
        assert_eq!(e.offset, 3 * MAX_DEPTH);
    }

    #[test]
    fn error_offsets_reported() {
        let err = parse("<a><b></c></a>").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.message.contains("mismatched"));
    }

    mod robustness {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser must never panic, whatever bytes arrive off the
            /// network — errors, yes; panics, never.
            #[test]
            fn prop_never_panics_on_arbitrary_input(s in ".{0,200}") {
                let _ = parse(&s);
            }

            /// Same for inputs that look structurally XML-ish.
            #[test]
            fn prop_never_panics_on_xmlish_input(
                s in "[<>/a-z\\\"= &;#x0-9]{0,120}"
            ) {
                let _ = parse(&s);
            }

            /// Truncating a valid document at any byte never panics and
            /// (except at full length) never parses successfully with a
            /// different canonical form.
            #[test]
            fn prop_truncation_is_safe(cut in 0usize..200) {
                let doc = "<a x=\"1\"><b>text &amp; more</b><c/></a>";
                let cut = cut.min(doc.len());
                let prefix = &doc[..cut];
                if let Ok(parsed) = parse(prefix) {
                    // only the full document round-trips to itself
                    prop_assert_eq!(prefix, doc);
                    prop_assert_eq!(parsed.name, "a");
                }
            }
        }
    }
}
