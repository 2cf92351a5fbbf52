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
//! * [`sealed`] — hybrid public-key encryption ("sealed boxes"), boxes
//!   under a secret both ends already hold ("static boxes") and symmetric
//!   authenticated encryption ("secret boxes") built from X25519 + ChaCha20
//!   + HMAC-SHA256 (encrypt-then-MAC)
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
//! the routines that see a secret scalar — the fixed-base table walks
//! behind signing, key derivation and sealing, the X25519 ladder behind
//! opening — take no branch and no address from it. What is still
//! variable-time works on public inputs only: the memo lookups (keyed by
//! public encodings) and field equality on public values; [`ed25519`]'s
//! module documentation has the list. None of it is
//! audited. For a research reproduction that is acceptable; for production
//! deployments swap in audited primitives behind the same traits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

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

thread_local! {
    /// This thread's generator key: 32 bytes from the operating system on
    /// first use, then half of every keystream block drawn.
    static RNG_KEY: std::cell::Cell<Option<[u8; 32]>> = const { std::cell::Cell::new(None) };
}

/// Fill `buf` with cryptographically secure random bytes.
///
/// A per-thread ChaCha20 generator keyed with 32 bytes of operating-system
/// entropy (`/dev/urandom`) hands out 32 bytes per keystream block and
/// re-keys from the block's other half (fast key erasure: the key in
/// memory says nothing about bytes already handed out). Panics if the
/// operating system's random source cannot be read.
pub fn random_bytes(buf: &mut [u8]) {
    RNG_KEY.with(|cell| {
        let mut key = cell.get().unwrap_or_else(os_entropy);
        for chunk in buf.chunks_mut(32) {
            let mut block = [0u8; 64];
            ChaCha20::new(&key, &[0; 12], 0).apply(&mut block);
            key.copy_from_slice(&block[..32]);
            chunk.copy_from_slice(&block[32..32 + chunk.len()]);
        }
        cell.set(Some(key));
    });
}

// The crate's one `expect`. Its callers — key generation, nonces, the
// ephemeral keys of sealed boxes — return bare keys and boxes all the way up
// to the document layer: without an entropy source none of them can work,
// and no caller could do anything but stop.
#[allow(clippy::expect_used)]
fn os_entropy() -> [u8; 32] {
    use std::io::Read;
    let mut seed = [0u8; 32];
    std::fs::File::open("/dev/urandom")
        .and_then(|mut f| f.read_exact(&mut seed))
        .expect("the operating system's random source is readable");
    seed
}

/// Generate a fresh random 32-byte array (key / nonce seed material).
pub fn random_array32() -> [u8; 32] {
    let mut b = [0u8; 32];
    random_bytes(&mut b);
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_bytes_fill_every_length_and_never_repeat() {
        let mut seen = std::collections::HashSet::new();
        for len in [12usize, 31, 32, 33, 64, 100, 257] {
            for _ in 0..64 {
                let mut buf = vec![0u8; len];
                random_bytes(&mut buf);
                assert!(buf.chunks(32).all(|c| c.len() < 8 || c.iter().any(|&b| b != 0)));
                assert!(seen.insert(buf), "a repeated draw of {len} bytes");
            }
        }
        let mut long = [0u8; 256];
        random_bytes(&mut long);
        let blocks: std::collections::HashSet<&[u8]> = long.chunks(32).collect();
        assert_eq!(blocks.len(), 8, "every 32 bytes come from their own block");
    }

    #[test]
    fn threads_draw_independent_streams() {
        let here = random_array32();
        let there = std::thread::spawn(random_array32).join().unwrap();
        assert_ne!(here, there);
    }
}
