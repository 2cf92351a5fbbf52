//! XML escaping: the one spelling of each character the writer escapes.
//!
//! In text, `&`, `<` and `>` are written `&amp;`, `&lt;` and `&gt;`. In an
//! attribute value, so are `"`, tab, line feed and carriage return:
//! `&quot;`, `&#9;`, `&#10;` and `&#13;`, so a value's white space survives.
//! Every other character is written as itself. The parser reads exactly these
//! escapes back, where the writer writes them, and refuses every other
//! reference and every raw character that has an escape.

/// How the writer spells byte `b` inside an attribute value (`attr`) or a
/// text; `None` when it is written as itself.
pub fn escape_of(b: u8, attr: bool) -> Option<&'static str> {
    Some(match b {
        b'&' => "&amp;",
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'"' if attr => "&quot;",
        b'\t' if attr => "&#9;",
        b'\n' if attr => "&#10;",
        b'\r' if attr => "&#13;",
        _ => return None,
    })
}

/// Append `s` to `out`, escaped for an attribute value (`attr`) or a text.
/// Clean spans between escapes are copied whole.
pub fn escape_into(s: &str, out: &mut Vec<u8>, attr: bool) {
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(rep) = escape_of(b, attr) {
            out.extend_from_slice(&bytes[start..i]);
            out.extend_from_slice(rep.as_bytes());
            start = i + 1;
        }
    }
    out.extend_from_slice(&bytes[start..]);
}

/// Byte length of what [`escape_into`] appends, without building it.
pub(crate) fn escaped_len(s: &str, attr: bool) -> usize {
    s.bytes().map(|b| escape_of(b, attr).map_or(1, str::len)).sum()
}

/// The character whose escape `s` starts with, and the escape's length:
/// the inverse of [`escape_of`], and nothing more.
pub(crate) fn unescape_prefix(s: &[u8], attr: bool) -> Option<(char, usize)> {
    b"&<>\"\t\n\r".iter().find_map(|&c| {
        let rep = escape_of(c, attr)?;
        s.starts_with(rep.as_bytes()).then_some((char::from(c), rep.len()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str, attr: bool) -> String {
        let mut out = Vec::new();
        escape_into(s, &mut out, attr);
        assert_eq!(out.len(), escaped_len(s, attr));
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn text_escaping() {
        assert_eq!(escaped("a<b & c>d", false), "a&lt;b &amp; c&gt;d");
        assert_eq!(escaped("plain \"q\"\n", false), "plain \"q\"\n");
    }

    #[test]
    fn attr_escaping() {
        assert_eq!(escaped("say \"hi\"\n\t\r'", true), "say &quot;hi&quot;&#10;&#9;&#13;'");
    }

    #[test]
    fn unescape_prefix_inverts_escape_of_only() {
        for attr in [false, true] {
            for b in 0..=u8::MAX {
                if let Some(rep) = escape_of(b, attr) {
                    let tail = format!("{rep}rest");
                    assert_eq!(
                        unescape_prefix(tail.as_bytes(), attr),
                        Some((char::from(b), rep.len()))
                    );
                }
            }
        }
        assert_eq!(unescape_prefix(b"&quot;", false), None, "not an escape in text");
        for other in ["&apos;", "&#65;", "&#x41;", "&#10", "&amp", "&unknown;"] {
            assert_eq!(unescape_prefix(other.as_bytes(), true), None, "{other}");
        }
    }
}
