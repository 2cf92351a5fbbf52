//! Hybrid authenticated encryption: sealed boxes (public-key) and secret
//! boxes (symmetric), both ChaCha20 + HMAC-SHA256 encrypt-then-MAC.
//!
//! These are the concrete mechanisms behind the paper's element-wise
//! encryption: a form field destined for participants {P1, P2} is encrypted
//! once under a fresh content key with [`secretbox_seal`], and the content
//! key is wrapped to each recipient's X25519 public key with [`seal`]. The
//! advanced operational model also seals fresh execution results to the TFC
//! server's public key (the paper's `{{R}}Pub(TFC)`).
//!
//! Cost in curve work: sealing is one fixed-base multiplication (the
//! ephemeral public key) plus one Montgomery ladder (the shared secret);
//! opening is the one ladder — the recipient's own public key, which the key
//! derivation binds, is held by its [`X25519Secret`].
//!
//! **One ephemeral key, several recipients.** [`seal_with_ephemeral`] lets a
//! caller wrap the same short secret to n recipients under one ephemeral
//! key (`dra_xml::enc` does, per encrypted element): one fixed-base
//! multiplication and n ladders instead of n of each. Nothing but the
//! ephemeral *public* key is shared between the boxes: the shared secret
//! `e·Rᵢ` differs per recipient, the key derivation binds the ephemeral and
//! the recipient's public key, and nonce and tag are per box — the
//! randomness-reuse setting multi-recipient ElGamal/ECIES is proven in
//! (Kurosawa 2002; Bellare, Boldyreva, Staddon 2003). The caller's side of
//! the contract: draw the ephemeral key for one set of boxes and drop it.

use crate::chacha20::ChaCha20;
use crate::ct::ct_eq;
use crate::hmac::hmac_sha256;
use crate::sha2::Sha256;
use crate::x25519::{X25519PublicKey, X25519Secret};

/// Errors from opening a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Ciphertext is shorter than the fixed framing.
    Truncated,
    /// The authentication tag did not verify (wrong key or tampered data).
    BadTag,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Truncated => write!(f, "ciphertext truncated"),
            SealError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for SealError {}

const NONCE_LEN: usize = 12;
const TAG_LEN: usize = 32;
/// Sealed-box framing overhead: ephemeral pubkey + nonce + tag.
pub const SEAL_OVERHEAD: usize = 32 + NONCE_LEN + TAG_LEN;
/// Secret-box framing overhead: nonce + tag.
pub const SECRETBOX_OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// Derive (cipher key, mac key) from shared-secret material and context.
fn derive_keys(shared: &[u8; 32], context: &[u8]) -> ([u8; 32], [u8; 32]) {
    let mut h = Sha256::new();
    h.update(b"dra4wfms.enc.v1");
    h.update(shared);
    h.update(context);
    let enc = h.finalize();
    let mut h = Sha256::new();
    h.update(b"dra4wfms.mac.v1");
    h.update(shared);
    h.update(context);
    let mac = h.finalize();
    (enc, mac)
}

/// Encrypt `plaintext` to the holder of `recipient`'s secret key.
///
/// Layout: `ephemeral_pub(32) || nonce(12) || ciphertext || tag(32)`.
pub fn seal(recipient: &X25519PublicKey, plaintext: &[u8]) -> Vec<u8> {
    let eph = X25519Secret::generate();
    seal_with_ephemeral(&eph, recipient, plaintext)
}

/// [`seal`] under an ephemeral secret the caller holds: for wrapping one
/// secret to several recipients (see the module docs), tests and
/// reproducible benchmarks. The nonce is still drawn fresh per box.
pub fn seal_with_ephemeral(
    eph: &X25519Secret,
    recipient: &X25519PublicKey,
    plaintext: &[u8],
) -> Vec<u8> {
    let mut nonce = [0u8; NONCE_LEN];
    crate::random_bytes(&mut nonce);
    seal_with_parts(eph, nonce, recipient, plaintext)
}

/// Fully deterministic sealed box, synthetic-ephemeral (SIV-style): the
/// ephemeral secret and nonce are derived by hashing sender-held `seed`
/// material together with the recipient key, `context` and the plaintext.
/// Sealing the same message twice reproduces identical bytes, so a crashed
/// sender that re-executes converges to a byte-identical document — the
/// property crash recovery relies on for duplicate suppression by wire
/// digest.
///
/// `seed` must be secret to outsiders (e.g. a static Diffie-Hellman shared
/// secret with the recipient); otherwise the synthetic ephemeral key is
/// predictable. Note the determinism itself leaks plaintext *equality* to
/// anyone comparing two ciphertexts — acceptable here, where re-sent
/// documents are meant to be recognised as equal.
pub fn seal_deterministic(
    recipient: &X25519PublicKey,
    plaintext: &[u8],
    seed: &[u8; 32],
    context: &[u8],
) -> Vec<u8> {
    let transcript = |domain: &[u8]| {
        let mut h = Sha256::new();
        h.update(domain);
        h.update(seed);
        h.update(&recipient.0);
        h.update(&(context.len() as u64).to_be_bytes());
        h.update(context);
        h.update(plaintext);
        h.finalize()
    };
    let eph = X25519Secret::from_bytes(transcript(b"dra4wfms.det.eph.v1"));
    let nonce: [u8; NONCE_LEN] =
        transcript(b"dra4wfms.det.nonce.v1")[..NONCE_LEN].try_into().expect("12 <= 32");
    seal_with_parts(&eph, nonce, recipient, plaintext)
}

fn seal_with_parts(
    eph: &X25519Secret,
    nonce: [u8; NONCE_LEN],
    recipient: &X25519PublicKey,
    plaintext: &[u8],
) -> Vec<u8> {
    let eph_pub = eph.public_key();
    let shared = eph.diffie_hellman(recipient);
    let mut context = Vec::with_capacity(64);
    context.extend_from_slice(&eph_pub.0);
    context.extend_from_slice(&recipient.0);
    let (enc_key, mac_key) = derive_keys(&shared, &context);

    let mut out = Vec::with_capacity(SEAL_OVERHEAD + plaintext.len());
    out.extend_from_slice(&eph_pub.0);
    out.extend_from_slice(&nonce);
    let mut ct = plaintext.to_vec();
    ChaCha20::new(&enc_key, &nonce, 1).apply(&mut ct);
    out.extend_from_slice(&ct);

    let tag = hmac_sha256(&mac_key, &out);
    out.extend_from_slice(&tag);
    out
}

/// Open a sealed box with the recipient's secret key.
pub fn open(recipient: &X25519Secret, boxed: &[u8]) -> Result<Vec<u8>, SealError> {
    if boxed.len() < SEAL_OVERHEAD {
        return Err(SealError::Truncated);
    }
    let (body, tag) = boxed.split_at(boxed.len() - TAG_LEN);
    let eph_pub_bytes: [u8; 32] = body[..32].try_into().expect("framing");
    let eph_pub = X25519PublicKey(eph_pub_bytes);
    let nonce: [u8; NONCE_LEN] = body[32..32 + NONCE_LEN].try_into().expect("framing");

    let shared = recipient.diffie_hellman(&eph_pub);
    let mut context = Vec::with_capacity(64);
    context.extend_from_slice(&eph_pub.0);
    context.extend_from_slice(&recipient.public_key().0);
    let (enc_key, mac_key) = derive_keys(&shared, &context);

    if !ct_eq(&hmac_sha256(&mac_key, body), tag) {
        return Err(SealError::BadTag);
    }
    let mut pt = body[32 + NONCE_LEN..].to_vec();
    ChaCha20::new(&enc_key, &nonce, 1).apply(&mut pt);
    Ok(pt)
}

/// Symmetric authenticated encryption under a shared 32-byte key.
///
/// Layout: `nonce(12) || ciphertext || tag(32)`.
pub fn secretbox_seal(key: &[u8; 32], plaintext: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; NONCE_LEN];
    crate::random_bytes(&mut nonce);
    secretbox_seal_with_nonce(key, nonce, plaintext)
}

/// Deterministic variant of [`secretbox_seal`].
pub fn secretbox_seal_with_nonce(key: &[u8; 32], nonce: [u8; 12], plaintext: &[u8]) -> Vec<u8> {
    let (enc_key, mac_key) = derive_keys(key, b"secretbox");
    let mut out = Vec::with_capacity(SECRETBOX_OVERHEAD + plaintext.len());
    out.extend_from_slice(&nonce);
    let mut ct = plaintext.to_vec();
    ChaCha20::new(&enc_key, &nonce, 1).apply(&mut ct);
    out.extend_from_slice(&ct);
    let tag = hmac_sha256(&mac_key, &out);
    out.extend_from_slice(&tag);
    out
}

/// Open a secret box.
pub fn secretbox_open(key: &[u8; 32], boxed: &[u8]) -> Result<Vec<u8>, SealError> {
    if boxed.len() < SECRETBOX_OVERHEAD {
        return Err(SealError::Truncated);
    }
    let (body, tag) = boxed.split_at(boxed.len() - TAG_LEN);
    let (enc_key, mac_key) = derive_keys(key, b"secretbox");
    if !ct_eq(&hmac_sha256(&mac_key, body), tag) {
        return Err(SealError::BadTag);
    }
    let nonce: [u8; NONCE_LEN] = body[..NONCE_LEN].try_into().expect("framing");
    let mut pt = body[NONCE_LEN..].to_vec();
    ChaCha20::new(&enc_key, &nonce, 1).apply(&mut pt);
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recipient() -> X25519Secret {
        X25519Secret::from_bytes([11u8; 32])
    }

    #[test]
    fn seal_open_roundtrip() {
        let r = recipient();
        let boxed = seal(&r.public_key(), b"purchase order #4711");
        assert_eq!(open(&r, &boxed).unwrap(), b"purchase order #4711");
    }

    #[test]
    fn seal_empty_plaintext() {
        let r = recipient();
        let boxed = seal(&r.public_key(), b"");
        assert_eq!(boxed.len(), SEAL_OVERHEAD);
        assert_eq!(open(&r, &boxed).unwrap(), b"");
    }

    #[test]
    fn wrong_recipient_fails() {
        let r = recipient();
        let other = X25519Secret::from_bytes([12u8; 32]);
        let boxed = seal(&r.public_key(), b"secret");
        assert_eq!(open(&other, &boxed), Err(SealError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let r = recipient();
        let mut boxed = seal(&r.public_key(), b"secret data here");
        let idx = boxed.len() - TAG_LEN - 1;
        boxed[idx] ^= 1;
        assert_eq!(open(&r, &boxed), Err(SealError::BadTag));
    }

    #[test]
    fn tampered_ephemeral_key_fails() {
        let r = recipient();
        let mut boxed = seal(&r.public_key(), b"secret data here");
        boxed[0] ^= 1;
        assert_eq!(open(&r, &boxed), Err(SealError::BadTag));
    }

    #[test]
    fn truncated_fails() {
        let r = recipient();
        assert_eq!(open(&r, &[0u8; 10]), Err(SealError::Truncated));
    }

    #[test]
    fn sealing_is_randomized() {
        let r = recipient();
        let a = seal(&r.public_key(), b"same message");
        let b = seal(&r.public_key(), b"same message");
        assert_ne!(a, b, "fresh ephemeral key + nonce each time");
    }

    #[test]
    fn secretbox_roundtrip() {
        let key = [42u8; 32];
        let boxed = secretbox_seal(&key, b"element content");
        assert_eq!(secretbox_open(&key, &boxed).unwrap(), b"element content");
    }

    #[test]
    fn secretbox_wrong_key_fails() {
        let boxed = secretbox_seal(&[1u8; 32], b"element content");
        assert_eq!(secretbox_open(&[2u8; 32], &boxed), Err(SealError::BadTag));
    }

    #[test]
    fn secretbox_tamper_fails() {
        let key = [3u8; 32];
        let mut boxed = secretbox_seal(&key, b"field value");
        boxed[NONCE_LEN] ^= 0x80;
        assert_eq!(secretbox_open(&key, &boxed), Err(SealError::BadTag));
    }

    #[test]
    fn secretbox_truncated_fails() {
        assert_eq!(secretbox_open(&[0u8; 32], &[0u8; 5]), Err(SealError::Truncated));
    }

    #[test]
    fn seal_deterministic_roundtrip_and_reproducible() {
        let r = recipient();
        let seed = [7u8; 32];
        let a = seal_deterministic(&r.public_key(), b"result payload", &seed, b"pid/A:0");
        let b = seal_deterministic(&r.public_key(), b"result payload", &seed, b"pid/A:0");
        assert_eq!(a, b, "same inputs reproduce identical bytes");
        assert_eq!(open(&r, &a).unwrap(), b"result payload");
        // any input change produces an unrelated box
        let c = seal_deterministic(&r.public_key(), b"result payload", &seed, b"pid/A:1");
        assert_ne!(a, c);
        let d = seal_deterministic(&r.public_key(), b"other payload", &seed, b"pid/A:0");
        assert_ne!(a, d);
        assert_eq!(open(&r, &d).unwrap(), b"other payload");
        let e = seal_deterministic(&r.public_key(), b"result payload", &[8u8; 32], b"pid/A:0");
        assert_ne!(a, e);
    }

    #[test]
    fn deterministic_variants_are_deterministic() {
        let key = [9u8; 32];
        let a = secretbox_seal_with_nonce(&key, [1; 12], b"x");
        let b = secretbox_seal_with_nonce(&key, [1; 12], b"x");
        assert_eq!(a, b);

        let eph = X25519Secret::from_bytes([5u8; 32]);
        let r = recipient();
        // nonce is still random inside seal_with_ephemeral, so only the
        // ephemeral pubkey prefix is deterministic.
        let s1 = seal_with_ephemeral(&eph, &r.public_key(), b"y");
        let s2 = seal_with_ephemeral(&eph, &r.public_key(), b"y");
        assert_eq!(&s1[..32], &s2[..32]);
    }
}
