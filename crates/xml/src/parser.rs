//! The parser: it accepts exactly what [`crate::writer::to_string`] writes
//! and refuses everything else, with a [`ParseError`] at the first byte the
//! writer would not have written.
//!
//! So there is no declaration, comment, processing instruction, DTD or
//! CDATA, and no white space around the root. Inside a tag, each attribute
//! follows exactly one space, with none around `=` or before `>`, `/>` or
//! the `>` of a close tag. Attribute names ascend strictly; one comparison
//! per attribute also refuses a repeated name. An element with no children
//! is `<a/>`, never `<a></a>`. Texts and values carry only the escapes
//! [`crate::escape`] writes, and no raw character that has one. Every
//! accepted `w` therefore satisfies `to_string(&parse(w)?) == w`: a document
//! has one spelling, and a second one is refused before any signature is
//! checked. Names are kept verbatim (prefixes included, no namespace
//! processing).

use crate::escape::{escape_of, unescape_prefix};
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
    input: &'a str,
    pos: usize,
}

/// Parse a complete document: one root element, nothing around it.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser { input, pos: 0 };
    let root = p.element(1)?;
    if p.pos != input.len() {
        return Err(p.err("content after the root element"));
    }
    Ok(root)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: msg.into() }
    }

    fn rest(&self) -> &'a [u8] {
        &self.input.as_bytes()[self.pos..]
    }

    /// Step over `s` if the input continues with it.
    fn eat(&mut self, s: &str) -> bool {
        let found = self.rest().starts_with(s.as_bytes());
        if found {
            self.pos += s.len();
        }
        found
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let in_name = |c: &&u8| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
        self.pos += self.rest().iter().take_while(in_name).count();
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.input[start..self.pos])
    }

    fn element(&mut self, depth: usize) -> Result<Element, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.expect("<")?;
        let mut el = Element::new(self.name()?);
        while self.eat(" ") {
            let at = self.pos;
            let key = self.name()?;
            if el.attrs.last().is_some_and(|(prev, _)| prev.as_str() >= key) {
                let message = format!("attribute '{key}' repeated or out of name order");
                return Err(ParseError { offset: at, message });
            }
            self.expect("=\"")?;
            let value = self.escaped(true)?;
            self.expect("\"")?;
            el.attrs.push((key.to_string(), value));
        }
        if self.eat("/>") {
            return Ok(el);
        }
        self.expect(">")?;
        loop {
            if self.rest().starts_with(b"</") {
                if el.children.is_empty() {
                    return Err(self.err(format!("<{0}></{0}> is written <{0}/>", el.name)));
                }
                self.pos += 2;
                if self.name()? != el.name {
                    return Err(self.err(format!("mismatched close tag: expected </{}>", el.name)));
                }
                self.expect(">")?;
                return Ok(el);
            }
            match self.rest().first() {
                Some(b'<') => {
                    let child = self.element(depth + 1)?;
                    el.children.push(Node::Element(Arc::new(child)));
                }
                Some(_) => {
                    let text = self.escaped(false)?;
                    el.children.push(Node::Text(text));
                }
                None => {
                    return Err(self.err(format!("unexpected end of input inside <{}>", el.name)))
                }
            }
        }
    }

    /// An attribute value up to its closing `"` (`attr`), or a text up to
    /// the next `<`, unescaped.
    fn escaped(&mut self, attr: bool) -> Result<String, ParseError> {
        let end = if attr { b'"' } else { b'<' };
        let mut out = String::new();
        let mut start = self.pos;
        while let Some(&b) = self.rest().first().filter(|&&b| b != end) {
            if b == b'&' {
                let (c, len) = unescape_prefix(self.rest(), attr)
                    .ok_or_else(|| self.err("not an escape the writer writes here"))?;
                out.push_str(&self.input[start..self.pos]);
                out.push(c);
                self.pos += len;
                start = self.pos;
            } else if let Some(rep) = escape_of(b, attr) {
                return Err(self.err(format!("a raw {:?} is written {rep}", char::from(b))));
            } else {
                self.pos += 1;
            }
        }
        out.push_str(&self.input[start..self.pos]);
        Ok(out)
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
    fn mismatched_tags_rejected() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn duplicate_attr_rejected() {
        assert!(parse(r#"<a k="1" k="2"/>"#).is_err());
        assert!(parse(r#"<a j="1" k="2"/>"#).is_ok());
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
    fn every_escape_the_writer_writes_reads_back() {
        let all = "<a k=\"&quot;&#9;&#10;&#13;&amp;&lt;&gt;'\">&amp;&lt;&gt;\"'\t\n\r</a>";
        let e = parse(all).unwrap();
        assert_eq!(e.get_attr("k"), Some("\"\t\n\r&<>'"));
        assert_eq!(e.text_content(), "&<>\"'\t\n\r");
        assert_eq!(to_string(&e), all);
    }

    #[test]
    fn only_the_writers_form_is_accepted() {
        let refused = [
            ("<?xml version=\"1.0\"?><r/>", 1),
            ("<!-- note --><r/>", 1),
            (" <r/>", 0),
            ("<r/>\n", 4),
            ("<r><!-- inner --><c/></r>", 4),
            ("<a  k=\"1\"/>", 3),
            ("<a k = \"1\"/>", 4),
            ("<a k=\"1\" />", 9),
            ("<a k=\"1\"/ >", 8),
            ("<a>t</a >", 7),
            ("<a></a>", 3),
            ("<a k='1'/>", 4),
            ("<a k=\"1\" j=\"2\"/>", 9),
            ("<a k=\"1\" k=\"2\"/>", 9),
            ("<a>&apos;</a>", 3),
            ("<a>&#65;</a>", 3),
            ("<a>&quot;</a>", 3),
            ("<a k=\"&#65;\"/>", 6),
            ("<a k=\"&#x41;\"/>", 6),
            ("<a k=\"&apos;\"/>", 6),
            ("<a>1 > 0</a>", 5),
            ("<a>&amp</a>", 3),
            ("<a k=\"\t\"/>", 6),
            ("<a k=\"<\"/>", 6),
        ];
        for (input, offset) in refused {
            let err = parse(input).expect_err(input);
            assert_eq!(err.offset, offset, "{input:?}: {err}");
        }
    }

    #[test]
    fn attributes_in_order_parse_in_linear_time() {
        const N: usize = 40_000;
        let tag = |names: &[String]| {
            let attrs: String = names.iter().map(|k| format!(" {k}=\"v\"")).collect();
            format!("<r{attrs}/>")
        };
        let mut names: Vec<String> = (0..N).map(|i| format!("a{i:05}")).collect();
        assert_eq!(parse(&tag(&names)).unwrap().attrs().len(), N);
        names.swap(N - 2, N - 1);
        let err = parse(&tag(&names)).unwrap_err();
        let last = "<r".len() + (N - 1) * " a00000=\"v\"".len() + 1;
        assert_eq!((err.offset, err.message.contains("a39998")), (last, true), "{err}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}<a/>{}", "<a>".repeat(n - 1), "</a>".repeat(n - 1));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, 3 * MAX_DEPTH, "the first element past the bound");
        // deep enough to overflow the stack of an unbounded recursion
        let e = parse(&"<a>".repeat(100_000)).unwrap_err();
        assert_eq!(e.offset, 3 * MAX_DEPTH);
    }

    #[test]
    fn error_offsets_reported() {
        let err = parse("<a><b>t</c></a>").unwrap_err();
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

            /// Same for inputs that look structurally XML-ish; and what
            /// parses is what the writer writes.
            #[test]
            fn prop_never_panics_on_xmlish_input(
                s in "[<>/a-z\\\"= &;#x0-9]{0,120}"
            ) {
                if let Ok(e) = parse(&s) {
                    prop_assert_eq!(to_string(&e), s);
                }
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
