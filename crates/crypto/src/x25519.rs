//! X25519 Diffie–Hellman (RFC 7748).
//!
//! Provides the key-agreement half of the hybrid "sealed box" construction
//! used for element-wise encryption of DRA4WfMS documents: content keys are
//! wrapped to recipient public keys via an ephemeral X25519 exchange.
//!
//! Three scalar multiplications live here, each counted per thread
//! ([`ladders`], [`table_walks`], [`fixed_base`]) like
//! [`crate::ed25519::ec_ops`]: what a hop spends on key agreement is a
//! count that repeats to the last digit, whatever the random keys it drew.
//!
//! * The Montgomery ladder ([`x25519`], [`X25519Secret::diffie_hellman`]):
//!   255 steps that exchange two working points under a mask, so the
//!   scalar picks no branch and no address. Opening a sealed box runs it,
//!   because there the peer key is a fresh ephemeral key each time.
//! * The table walk ([`X25519Secret::diffie_hellman_known`]): for a peer
//!   key the thread meets again — every reader a sealed box is sealed to
//!   is a directory key. The reader's u has an Edwards preimage with
//!   `y = (u − 1)/(u + 1)` (RFC 7748 §4.1; either x, as `u(−P) = u(P)`),
//!   whose fixed-base table is built once and walked under a masked scan
//!   (77 point operations instead of the ladder's 255 steps); one inversion
//!   maps the product back to u. The same 32 bytes as the ladder, bit for
//!   bit; a u with no preimage (a twist point, `u = p − 1`) takes the
//!   ladder.
//! * The public key, a multiplication of the fixed point u = 9, which is
//!   the Ed25519 basepoint under the birational map `u = (1 + y)/(1 − y)`:
//!   computed on the Edwards side with [`Point::basepoint_mul`] — 65 table
//!   additions — once, when the secret is constructed.

use crate::ed25519::{KeyTables, Point};
use crate::field::Fe;
use std::cell::Cell;

thread_local! {
    /// (ladders, table walks, fixed-base multiplications) run by this
    /// thread.
    static COUNTS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };

    /// The tables of the peer keys this thread agrees on secrets with by
    /// [`X25519Secret::diffie_hellman_known`], keyed by the peer's u.
    static PEER_TABLES: KeyTables = KeyTables::new();
}

fn count(ladder: u64, walk: u64, fixed: u64) {
    COUNTS.with(|c| {
        let (l, w, f) = c.get();
        c.set((l + ladder, w + walk, f + fixed));
    });
}

/// Ladders ([`x25519`], one per shared secret off no table) this thread has
/// run so far.
pub fn ladders() -> u64 {
    COUNTS.with(|c| c.get().0)
}

/// Shared secrets this thread has computed by walking a peer's table
/// ([`X25519Secret::diffie_hellman_known`]).
pub fn table_walks() -> u64 {
    COUNTS.with(|c| c.get().1)
}

/// Fixed-base multiplications (one per [`X25519Secret::from_bytes`]: the
/// public key) this thread has run so far.
pub fn fixed_base() -> u64 {
    COUNTS.with(|c| c.get().2)
}

/// An X25519 secret scalar together with its public key.
#[derive(Clone)]
pub struct X25519Secret {
    bytes: [u8; 32],
    public: X25519PublicKey,
}

/// An X25519 public key (a u-coordinate).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct X25519PublicKey(pub [u8; 32]);

impl std::fmt::Debug for X25519Secret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("X25519Secret(..)")
    }
}

fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

impl X25519Secret {
    /// Construct from raw bytes (clamped on use); derives the public key.
    pub fn from_bytes(bytes: [u8; 32]) -> X25519Secret {
        // [k]B on the Edwards curve, mapped across. (A clamped k is a
        // multiple of 8 below 2^255 < 8L, so [k]B is never the identity.)
        count(0, 0, 1);
        let u = Point::basepoint_mul(&clamp(bytes)).to_montgomery_u();
        X25519Secret { bytes, public: X25519PublicKey(u) }
    }

    /// Generate a random secret.
    pub fn generate() -> X25519Secret {
        X25519Secret::from_bytes(crate::random_array32())
    }

    /// Raw bytes (for key stores).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// The public key X25519(k, 9).
    pub fn public_key(&self) -> X25519PublicKey {
        self.public
    }

    /// Diffie–Hellman: compute the shared secret with a peer public key.
    pub fn diffie_hellman(&self, peer: &X25519PublicKey) -> [u8; 32] {
        x25519(&self.bytes, &peer.0)
    }

    /// [`X25519Secret::diffie_hellman`] with a peer key this thread meets
    /// again: the same 32 bytes, off the peer's fixed-base table (built on
    /// the first call for the key; the module documentation has the map).
    /// A peer with no Edwards preimage takes the ladder.
    pub fn diffie_hellman_known(&self, peer: &X25519PublicKey) -> [u8; 32] {
        let k = clamp(self.bytes);
        let walk = |table: &crate::ed25519::Table| table.mul(&k).to_montgomery_u();
        match PEER_TABLES.with(|m| m.with(&peer.0, || edwards_preimage(&peer.0), walk)) {
            Some(shared) => {
                count(0, 1, 0);
                shared
            }
            None => x25519(&self.bytes, &peer.0),
        }
    }
}

/// An Edwards point whose Montgomery u is `u` (bit 255 masked, a value of
/// p or more standing for its residue, as the ladder reads it):
/// `y = (u − 1)/(u + 1)`, x of either sign. `None` for `u = −1`, which the
/// map sends to no point, and for a u on the twist.
fn edwards_preimage(u: &[u8; 32]) -> Option<Point> {
    let u = Fe::from_bytes(u);
    let denominator = u.add(&Fe::ONE);
    if denominator.is_zero() {
        return None;
    }
    Point::decompress(&u.sub(&Fe::ONE).mul(&denominator.invert()).to_bytes())
}

/// The raw X25519 function: scalar multiplication on the Montgomery
/// u-coordinate ladder. `scalar` is clamped per RFC 7748.
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    count(1, 0, 0);
    let k = clamp(*scalar);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    // all-ones while (x2, z2) and (x3, z3) stand exchanged: the scalar's
    // bits reach the ladder as masks, never as a branch or an index
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1).wrapping_neg();
        swap ^= k_t;
        x2.cswap(&mut x3, swap);
        z2.cswap(&mut z3, swap);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121665)));
    }
    x2.cswap(&mut x3, swap);
    z2.cswap(&mut z3, swap);
    x2.mul(&z2.invert()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    /// RFC 7748 §6.1 Diffie–Hellman vector.
    #[test]
    fn rfc7748_dh() {
        let alice = X25519Secret::from_bytes(
            hex::decode_array("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
                .unwrap(),
        );
        let bob = X25519Secret::from_bytes(
            hex::decode_array("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
                .unwrap(),
        );
        assert_eq!(
            hex::encode(&alice.public_key().0),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob.public_key().0),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = alice.diffie_hellman(&bob.public_key());
        let shared_b = bob.diffie_hellman(&alice.public_key());
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex::encode(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    /// RFC 7748 §5.2 iteration test: start from k = u = 9 and feed the
    /// function its own output (the old k becomes the next u); the results
    /// after 1 and after 1 000 iterations are published.
    #[test]
    fn rfc7748_iterated() {
        let (mut k, mut u) = (NINE, NINE);
        for i in 1..=1000 {
            (k, u) = (x25519(&k, &u), k);
            if i == 1 {
                assert_eq!(
                    hex::encode(&k),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn all_zero_public_key_yields_zero_shared_secret() {
        // low-order/zero inputs map to the zero output (callers that need
        // contributory behaviour must check; sealed boxes rely on HMAC)
        let s = X25519Secret::from_bytes([42u8; 32]);
        let zero = X25519PublicKey([0u8; 32]);
        assert_eq!(s.diffie_hellman(&zero), [0u8; 32]);
    }

    #[test]
    fn dh_agreement_random_keys() {
        for seed in 0..4u8 {
            let a = X25519Secret::from_bytes([seed; 32]);
            let b = X25519Secret::from_bytes([seed + 100; 32]);
            assert_eq!(
                a.diffie_hellman(&b.public_key()),
                b.diffie_hellman(&a.public_key()),
                "seed {seed}"
            );
        }
    }

    /// u = 9, the Montgomery basepoint.
    const NINE: [u8; 32] = {
        let mut u = [0u8; 32];
        u[0] = 9;
        u
    };

    /// The public key comes off the Edwards fixed-base table; the ladder on
    /// u = 9 is what it has to equal.
    #[test]
    fn edwards_route_public_key_matches_ladder_on_edge_secrets() {
        for k in [[0u8; 32], [0xff; 32], [1; 32], [0x80; 32]] {
            assert_eq!(X25519Secret::from_bytes(k).public_key().0, x25519(&k, &NINE), "{k:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_edwards_route_public_key_matches_ladder(
            k in proptest::array::uniform32(any::<u8>()),
        ) {
            prop_assert_eq!(X25519Secret::from_bytes(k).public_key().0, x25519(&k, &NINE));
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        let secret = X25519Secret::from_bytes([0x3c; 32]);
        let shown = format!("{secret:?} {secret:#?}");
        assert!(!shown.contains(&hex::encode(&secret.bytes)));
        assert!(!shown.contains(&hex::encode(&secret.public.0)));
        let beyond_the_type_name = shown.replace("X25519Secret", "");
        assert!(!beyond_the_type_name.contains(|c: char| c.is_ascii_digit()), "{shown}");
    }

    #[test]
    fn a_key_costs_one_fixed_base_and_a_shared_secret_one_ladder() {
        let (l0, f0) = (ladders(), fixed_base());
        let a = X25519Secret::from_bytes([3; 32]);
        let b = X25519Secret::from_bytes([4; 32]);
        assert_eq!(a.diffie_hellman(&b.public_key()), b.diffie_hellman(&a.public_key()));
        let _ = a.public_key();
        assert_eq!((ladders() - l0, fixed_base() - f0), (2, 2));
    }

    // --- the table walk against the ladder ---

    /// `n` seeded 32-byte strings (splitmix64, four words each).
    fn seeded(seed: u64, n: usize) -> Vec<[u8; 32]> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let words = [next(), next(), next(), next()];
                std::array::from_fn(|i| words[i / 8].to_le_bytes()[i % 8])
            })
            .collect()
    }

    /// The table secret, checked against the ladder; true when it came off
    /// a table.
    fn same_secret(scalar: &[u8; 32], u: &[u8; 32]) -> bool {
        let (l0, w0) = (ladders(), table_walks());
        let got = X25519Secret::from_bytes(*scalar).diffie_hellman_known(&X25519PublicKey(*u));
        let walked = (ladders() - l0, table_walks() - w0) == (0, 1);
        assert_eq!(got, x25519(scalar, u), "k {} u {}", hex::encode(scalar), hex::encode(u));
        walked
    }

    #[test]
    fn table_secret_equals_the_ladder_on_10_000_seeded_scalars() {
        let keys: Vec<X25519PublicKey> =
            seeded(7, 16).into_iter().map(|k| X25519Secret::from_bytes(k).public_key()).collect();
        for (i, scalar) in seeded(11, 10_000).iter().enumerate() {
            if i == 5_000 {
                PEER_TABLES.with(KeyTables::clear);
            }
            let peer = &keys[i % keys.len()];
            assert!(same_secret(scalar, &peer.0), "a public key always has a preimage");
        }
    }

    #[test]
    fn rfc7748_vectors_through_the_table() {
        let scalar = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        let walks = table_walks();
        let shared = X25519Secret::from_bytes(scalar).diffie_hellman_known(&X25519PublicKey(u));
        assert_eq!(
            hex::encode(&shared),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
        let alice = X25519Secret::from_bytes(
            hex::decode_array("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
                .unwrap(),
        );
        let bob = X25519Secret::from_bytes(
            hex::decode_array("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
                .unwrap(),
        );
        for shared in [
            alice.diffie_hellman_known(&bob.public_key()),
            bob.diffie_hellman_known(&alice.public_key()),
        ] {
            assert_eq!(
                hex::encode(&shared),
                "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
            );
        }
        assert_eq!(table_walks() - walks, 3, "all three off a table");
    }

    #[test]
    fn edge_u_values_give_the_ladders_output() {
        let mut edges: Vec<[u8; 32]> = Vec::new();
        for small in [0u8, 1, 9] {
            let mut u = [0u8; 32];
            u[0] = small;
            edges.push(u);
        }
        // p − 1, p, p + 1, and 2^255 − 1 (p + 18): one with no preimage
        // under the map and three non-canonical encodings of 0, 1 and 18
        for low in [0xec, 0xed, 0xee, 0xff] {
            let mut u = [0xffu8; 32];
            u[0] = low;
            u[31] = 0x7f;
            edges.push(u);
        }
        // the two points of order 8
        edges.push(
            hex::decode_array("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800")
                .unwrap(),
        );
        edges.push(
            hex::decode_array("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157")
                .unwrap(),
        );
        // each of them with bit 255 set too, which both sides mask
        let with_top: Vec<[u8; 32]> = edges
            .iter()
            .map(|u| {
                let mut u = *u;
                u[31] |= 0x80;
                u
            })
            .collect();
        edges.extend(with_top);
        let scalars = seeded(3, 4);
        for u in &edges {
            for k in &scalars {
                same_secret(k, u);
            }
        }
        // p − 1 has no preimage, 0 (order 2) and 1 (order 4) have one
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        assert!(!same_secret(&scalars[0], &minus_one), "u = p − 1 takes the ladder");
        assert!(same_secret(&scalars[0], &[0; 32]) && same_secret(&scalars[0], &edges[1]));
        // about half of all u lie on the twist: they take the ladder
        let (mut walked, mut laddered) = (0, 0);
        for (u, k) in seeded(5, 64).iter().zip(seeded(6, 64).iter().cycle()) {
            if same_secret(k, u) {
                walked += 1;
            } else {
                laddered += 1;
            }
        }
        assert!(walked > 10 && laddered > 10, "{walked} walked, {laddered} laddered");
    }

    #[test]
    fn distinct_secrets_distinct_publics() {
        let a = X25519Secret::from_bytes([1; 32]);
        let b = X25519Secret::from_bytes([2; 32]);
        assert_ne!(a.public_key(), b.public_key());
    }
}
