//! Hybrid authenticated encryption: sealed boxes (public-key), static boxes
//! (under a secret both ends already hold) and secret boxes (symmetric), all
//! ChaCha20 + HMAC-SHA256 encrypt-then-MAC.
//!
//! These are the concrete mechanisms behind the paper's element-wise
//! encryption: a form field destined for participants {P1, P2} is encrypted
//! once under a fresh content key with [`secretbox_seal`], and the content
//! key is wrapped to each reader — with [`seal`] to its X25519 public key,
//! or with [`seal_static`] when the reader already shares a secret with
//! whoever builds the element. The advanced operational model also seals
//! fresh execution results for the TFC server (the paper's `{{R}}Pub(TFC)`),
//! with [`seal_static_synthetic`].
//!
//! Cost in curve work: a sealed box is one fixed-base multiplication (the
//! ephemeral public key) plus one walk of the recipient's fixed-base table
//! (the shared secret, [`X25519Secret::diffie_hellman_known`]; the table is
//! built the first time a thread seals to that key) to seal, and one
//! Montgomery ladder to open, whose peer is the box's fresh ephemeral key —
//! the recipient's own public key, which the key derivation binds, is held
//! by its [`X25519Secret`]. A static box
//! costs none on either side: its secret is the opener's own key, or a
//! static Diffie–Hellman secret the two parties derived once and memoise
//! (one ladder per pair, not per box). The paper wrapped keys with RSA key
//! transport, one cheap public-key operation per reader; a static box is
//! what keeps a reader who built the element, or who already holds such a
//! pairwise secret, from paying any curve work for it.
//!
//! **One ephemeral key, several recipients.** [`seal_with_ephemeral`] lets a
//! caller wrap the same short secret to n recipients under one ephemeral
//! key (`dra_xml::enc` does, per encrypted element): one fixed-base
//! multiplication and n table walks instead of n of each. Nothing but the
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
/// Secret-box and static-box framing overhead: nonce + tag.
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
    let eph_pub = eph.public_key();
    let keys =
        derive_keys(&eph.diffie_hellman_known(recipient), &ecies_context(&eph_pub, recipient));
    encrypt_then_mac(keys, &eph_pub.0, random_nonce(), plaintext)
}

/// Open a sealed box with the recipient's secret key.
pub fn open(recipient: &X25519Secret, boxed: &[u8]) -> Result<Vec<u8>, SealError> {
    if boxed.len() < SEAL_OVERHEAD {
        return Err(SealError::Truncated);
    }
    let eph_pub = X25519PublicKey(std::array::from_fn(|i| boxed[i]));
    let shared = recipient.diffie_hellman(&eph_pub);
    let keys = derive_keys(&shared, &ecies_context(&eph_pub, &recipient.public_key()));
    check_then_decrypt(keys, boxed, 32)
}

fn ecies_context(eph_pub: &X25519PublicKey, recipient: &X25519PublicKey) -> [u8; 64] {
    let mut context = [0u8; 64];
    context[..32].copy_from_slice(&eph_pub.0);
    context[32..].copy_from_slice(&recipient.0);
    context
}

/// Encrypt `plaintext` under `secret`, 32 bytes the opener already holds —
/// its own key, or a static Diffie–Hellman secret it shares with the sealer
/// — so neither side does curve work. Cipher and MAC keys are derived from
/// `secret`, `context` and a fresh nonce: one secret keys any number of
/// boxes, each under keys of its own, and a box opens only under the
/// context it was sealed with.
///
/// Layout: `nonce(12) || ciphertext || tag(32)`.
pub fn seal_static(secret: &[u8; 32], context: &[u8], plaintext: &[u8]) -> Vec<u8> {
    seal_static_with_nonce(secret, context, random_nonce(), plaintext)
}

/// [`seal_static`] under a synthetic nonce, a hash of `secret`, `context`
/// and `plaintext` (SIV-style): sealing the same message twice reproduces
/// identical bytes, so a crashed sender that re-executes converges to a
/// byte-identical document — what crash recovery's duplicate suppression by
/// wire digest relies on. The determinism leaks plaintext *equality* to
/// anyone comparing two boxes, which is the point for a re-sent document.
pub fn seal_static_synthetic(secret: &[u8; 32], context: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(b"dra4wfms.static.nonce.v1");
    h.update(secret);
    h.update(&(context.len() as u64).to_be_bytes());
    h.update(context);
    h.update(plaintext);
    let digest = h.finalize();
    let nonce = std::array::from_fn(|i| digest[i]);
    seal_static_with_nonce(secret, context, nonce, plaintext)
}

fn seal_static_with_nonce(
    secret: &[u8; 32],
    context: &[u8],
    nonce: [u8; NONCE_LEN],
    plaintext: &[u8],
) -> Vec<u8> {
    encrypt_then_mac(static_keys(secret, context, &nonce), &[], nonce, plaintext)
}

/// Open a box of [`seal_static`] or [`seal_static_synthetic`].
pub fn open_static(secret: &[u8; 32], context: &[u8], boxed: &[u8]) -> Result<Vec<u8>, SealError> {
    if boxed.len() < SECRETBOX_OVERHEAD {
        return Err(SealError::Truncated);
    }
    let nonce = std::array::from_fn(|i| boxed[i]);
    check_then_decrypt(static_keys(secret, context, &nonce), boxed, 0)
}

fn static_keys(secret: &[u8; 32], context: &[u8], nonce: &[u8; NONCE_LEN]) -> ([u8; 32], [u8; 32]) {
    let mut bound = Vec::with_capacity(14 + context.len() + NONCE_LEN);
    bound.extend_from_slice(b"static");
    bound.extend_from_slice(&(context.len() as u64).to_be_bytes());
    bound.extend_from_slice(context);
    bound.extend_from_slice(nonce);
    derive_keys(secret, &bound)
}

/// Symmetric authenticated encryption under a shared 32-byte key.
///
/// Layout: `nonce(12) || ciphertext || tag(32)`.
pub fn secretbox_seal(key: &[u8; 32], plaintext: &[u8]) -> Vec<u8> {
    secretbox_seal_with_nonce(key, random_nonce(), plaintext)
}

/// Deterministic variant of [`secretbox_seal`].
pub fn secretbox_seal_with_nonce(key: &[u8; 32], nonce: [u8; 12], plaintext: &[u8]) -> Vec<u8> {
    encrypt_then_mac(derive_keys(key, b"secretbox"), &[], nonce, plaintext)
}

/// Open a secret box.
pub fn secretbox_open(key: &[u8; 32], boxed: &[u8]) -> Result<Vec<u8>, SealError> {
    if boxed.len() < SECRETBOX_OVERHEAD {
        return Err(SealError::Truncated);
    }
    check_then_decrypt(derive_keys(key, b"secretbox"), boxed, 0)
}

fn random_nonce() -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    crate::random_bytes(&mut nonce);
    nonce
}

/// `prefix || nonce || ChaCha20(plaintext) || HMAC(everything before)`.
fn encrypt_then_mac(
    (enc_key, mac_key): ([u8; 32], [u8; 32]),
    prefix: &[u8],
    nonce: [u8; NONCE_LEN],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(prefix.len() + SECRETBOX_OVERHEAD + plaintext.len());
    out.extend_from_slice(prefix);
    out.extend_from_slice(&nonce);
    let body = out.len();
    out.extend_from_slice(plaintext);
    ChaCha20::new(&enc_key, &nonce, 1).apply(&mut out[body..]);
    let tag = hmac_sha256(&mac_key, &out);
    out.extend_from_slice(&tag);
    out
}

/// The inverse of [`encrypt_then_mac`] for a `boxed` at least
/// `prefix_len + SECRETBOX_OVERHEAD` long: the tag is checked first.
fn check_then_decrypt(
    (enc_key, mac_key): ([u8; 32], [u8; 32]),
    boxed: &[u8],
    prefix_len: usize,
) -> Result<Vec<u8>, SealError> {
    let (body, tag) = boxed.split_at(boxed.len() - TAG_LEN);
    if !ct_eq(&hmac_sha256(&mac_key, body), tag) {
        return Err(SealError::BadTag);
    }
    let nonce = std::array::from_fn(|i| body[prefix_len + i]);
    let mut pt = body[prefix_len + NONCE_LEN..].to_vec();
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
    fn static_boxes_open_under_their_secret_and_context_only() {
        let (secret, context) = ([7u8; 32], b"pid/A:0".as_slice());
        let boxed = seal_static(&secret, context, b"content key");
        assert_eq!(boxed.len(), SECRETBOX_OVERHEAD + 11, "no ephemeral key");
        assert_eq!(open_static(&secret, context, &boxed).unwrap(), b"content key");
        assert_ne!(boxed, seal_static(&secret, context, b"content key"), "a fresh nonce");
        assert_eq!(open_static(&[8u8; 32], context, &boxed), Err(SealError::BadTag));
        assert_eq!(open_static(&secret, b"pid/A:1", &boxed), Err(SealError::BadTag));
        for i in 0..boxed.len() {
            let mut flipped = boxed.clone();
            flipped[i] ^= 1;
            assert_eq!(open_static(&secret, context, &flipped), Err(SealError::BadTag), "byte {i}");
        }
        assert_eq!(open_static(&secret, context, &boxed[..40]), Err(SealError::Truncated));
    }

    #[test]
    fn synthetic_static_boxes_reproduce_and_cost_no_curve_work() {
        let seed = [7u8; 32];
        let (l0, f0) = (crate::x25519::ladders(), crate::x25519::fixed_base());
        let a = seal_static_synthetic(&seed, b"pid/A:0", b"result payload");
        let b = seal_static_synthetic(&seed, b"pid/A:0", b"result payload");
        assert_eq!(a, b, "same inputs reproduce identical bytes");
        assert_eq!(open_static(&seed, b"pid/A:0", &a).unwrap(), b"result payload");
        assert_eq!((crate::x25519::ladders() - l0, crate::x25519::fixed_base() - f0), (0, 0));
        // any input change produces an unrelated box
        let c = seal_static_synthetic(&seed, b"pid/A:1", b"result payload");
        let d = seal_static_synthetic(&seed, b"pid/A:0", b"other payload");
        let e = seal_static_synthetic(&[8u8; 32], b"pid/A:0", b"result payload");
        assert!(a != c && a != d && a != e && a[..12] != d[..12], "nonce and body move");
        assert_eq!(open_static(&seed, b"pid/A:0", &d).unwrap(), b"other payload");
    }

    #[test]
    fn a_seal_walks_the_readers_table_and_an_open_runs_a_ladder() {
        use crate::x25519::{ladders, table_walks};
        let r = recipient();
        let _ = seal(&r.public_key(), b"builds the reader's table");
        let (l0, w0, b0) = (ladders(), table_walks(), crate::ed25519::table_builds());
        let boxed = seal(&r.public_key(), b"content key");
        assert_eq!((ladders() - l0, table_walks() - w0), (0, 1));
        assert_eq!(open(&r, &boxed).unwrap(), b"content key");
        assert_eq!((ladders() - l0, table_walks() - w0), (1, 1));
        assert_eq!(crate::ed25519::table_builds(), b0, "the table was built once");
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
