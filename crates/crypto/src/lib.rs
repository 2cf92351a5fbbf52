//! # dra-crypto — cryptographic substrate for DRA4WfMS
//!
//! From-scratch implementations of every primitive the DRA4WfMS security
//! framework needs:
//!
//! * [`sha2`] — SHA-256 and SHA-512 (FIPS 180-4)
//! * [`hmac`] — HMAC (RFC 2104) over SHA-256
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439)
//! * [`ed25519`] — Ed25519 digital signatures (RFC 8032)
//! * [`mod@x25519`] — X25519 Diffie–Hellman (RFC 7748)
//! * [`sealed`] — hybrid public-key encryption ("sealed boxes") and
//!   symmetric authenticated encryption ("secret boxes") built from
//!   X25519 + ChaCha20 + HMAC-SHA256 (encrypt-then-MAC)
//!
//! The paper's framework signs workflow documents with participants'
//! private keys (nonrepudiation cascade) and element-wise encrypts form
//! fields to the public keys of the participants allowed to read them.
//! The original implementation used the Java XML DSig API and Apache
//! Santuario (RSA/X.509); this crate supplies equivalent primitives with
//! modern curves so the framework layer above can be exercised end to end.
//!
//! ## Security caveats
//!
//! The implementations are validated against the RFC test vectors and are
//! algorithmically correct. Field arithmetic ([`field`]) is branch-free, and
//! the two routines that see a secret scalar — the fixed-base table walk
//! behind signing and key derivation, the X25519 ladder behind sealed
//! boxes — take no branch and no address from it. What is still
//! variable-time works on public inputs only: signature and batch
//! verification (which additions happen depends on the scalars' digits),
//! the point-decompression memo lookup, and field equality on public
//! values; [`ed25519`]'s module documentation has the list. None of it is
//! audited. For a research reproduction that is acceptable; for production
//! deployments swap in audited primitives behind the same traits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod b64;
pub mod chacha20;
pub mod ct;
pub mod ed25519;
pub mod field;
pub mod hex;
pub mod hmac;
pub mod sealed;
pub mod sha2;
pub mod x25519;

pub use chacha20::ChaCha20;
pub use ed25519::{verify_batch, BatchEntry, Keypair, PublicKey, SecretKey, Signature};
pub use sealed::{open, seal, secretbox_open, secretbox_seal, SealError};
pub use sha2::{sha256, sha256_bytes, sha256_bytes_reset, sha512, Sha256, Sha512};
pub use x25519::{x25519, X25519PublicKey, X25519Secret};

/// Fill `buf` with cryptographically secure random bytes from the thread RNG.
pub fn random_bytes(buf: &mut [u8]) {
    use rand::RngCore;
    rand::thread_rng().fill_bytes(buf);
}

/// Generate a fresh random 32-byte array (key / nonce seed material).
pub fn random_array32() -> [u8; 32] {
    let mut b = [0u8; 32];
    random_bytes(&mut b);
    b
}
