//! XML text and attribute escaping.

/// Escape text content: `&`, `<`, `>`.
pub fn escape_text(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    escape_text_into(s, &mut out);
    String::from_utf8(out).expect("escaping preserves UTF-8")
}

/// [`escape_text`] writing straight into `out` — the allocation-free path
/// used by canonicalization. Clean spans between escapes are copied with a
/// single `extend_from_slice` instead of per-character pushes.
pub fn escape_text_into(s: &str, out: &mut Vec<u8>) {
    escape_into(s, out, false);
}

/// [`escape_attr`] writing straight into `out` (see [`escape_text_into`]).
pub fn escape_attr_into(s: &str, out: &mut Vec<u8>) {
    escape_into(s, out, true);
}

fn escape_into(s: &str, out: &mut Vec<u8>, attr: bool) {
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let rep: &[u8] = match b {
            b'&' => b"&amp;",
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            b'"' if attr => b"&quot;",
            b'\n' if attr => b"&#10;",
            b'\r' if attr => b"&#13;",
            b'\t' if attr => b"&#9;",
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        out.extend_from_slice(rep);
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
}

/// Byte length of [`escape_text`]`(s)` / [`escape_attr`]`(s)` without
/// building the string.
pub(crate) fn escaped_len(s: &str, attr: bool) -> usize {
    s.bytes()
        .map(|b| match b {
            b'&' => 5,
            b'<' | b'>' => 4,
            b'"' if attr => 6,
            b'\n' | b'\r' if attr => 5,
            b'\t' if attr => 4,
            _ => 1,
        })
        .sum()
}

/// Escape attribute values (double-quote delimited): text escapes plus `"`,
/// and control characters as numeric references so round-trips are exact.
pub fn escape_attr(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    escape_attr_into(s, &mut out);
    String::from_utf8(out).expect("escaping preserves UTF-8")
}

/// Unescape entity and numeric character references. Returns `None` on a
/// malformed or unknown reference.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i + 1..];
        let semi = rest.find(';')?;
        let entity = &rest[..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..].parse().ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
        // skip the consumed entity body and ';'
        for _ in 0..=semi {
            chars.next();
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping() {
        assert_eq!(escape_text("a<b & c>d"), "a&lt;b &amp; c&gt;d");
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn attr_escaping() {
        assert_eq!(escape_attr("say \"hi\"\n"), "say &quot;hi&quot;&#10;");
    }

    #[test]
    fn unescape_entities() {
        assert_eq!(unescape("a&lt;b &amp; c&gt;d").unwrap(), "a<b & c>d");
        assert_eq!(unescape("&quot;&apos;").unwrap(), "\"'");
        assert_eq!(unescape("&#65;&#x42;").unwrap(), "AB");
    }

    #[test]
    fn unescape_rejects_malformed() {
        assert!(unescape("&unknown;").is_none());
        assert!(unescape("&amp").is_none(), "missing semicolon");
        assert!(unescape("&#xZZ;").is_none());
        assert!(unescape("&#1114112;").is_none(), "out of char range");
    }

    #[test]
    fn roundtrip_text() {
        for s in ["", "x", "<<<&&&>>>", "mixed <a> & \"b\" 'c'", "unicode: π ≤ ∞"] {
            assert_eq!(unescape(&escape_text(s)).unwrap(), s);
            assert_eq!(unescape(&escape_attr(s)).unwrap(), s);
        }
    }
}
