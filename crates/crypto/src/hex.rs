//! Minimal hex encoding/decoding helpers (used by tests, key fingerprints
//! and document serialization of binary values).

/// Encode bytes as a lowercase hex string.
pub fn encode(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

/// Decode a hex string, strictly: exactly what [`encode`] writes. Returns
/// `None` on odd length or any character outside `0-9a-f` — uppercase
/// included, so bytes have one hex form and a signature or a signer key
/// cannot be re-encoded into a byte-different document that still verifies
/// (`b64::decode` is strict for the same reason).
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nib = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    };
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Some(out)
}

/// Decode a hex string into a fixed-size array, as strictly as [`decode`].
/// `None` if the length does not match or the string is not lowercase hex.
pub fn decode_array<const N: usize>(s: &str) -> Option<[u8; N]> {
    let v = decode(s)?;
    if v.len() != N {
        return None;
    }
    let mut a = [0u8; N];
    a.copy_from_slice(&v);
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0u8, 1, 2, 0xfe, 0xff, 0x7f, 0x80];
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn uppercase_rejected() {
        assert_eq!(decode("deadbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        for twin in ["DEADBEEF", "deadbeeF", "Deadbeef"] {
            assert!(decode(twin).is_none(), "{twin}: bytes have one hex form");
            assert!(decode_array::<4>(twin).is_none(), "{twin}");
        }
    }

    #[test]
    fn invalid_rejected() {
        assert!(decode("abc").is_none(), "odd length");
        assert!(decode("zz").is_none(), "non-hex char");
        assert!(decode_array::<4>("deadbeefee").is_none(), "wrong length");
    }

    #[test]
    fn decode_array_ok() {
        let a: [u8; 2] = decode_array("beef").unwrap();
        assert_eq!(a, [0xbe, 0xef]);
    }
}
