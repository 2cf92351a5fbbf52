//! SHA-256 and SHA-512 (FIPS 180-4), with both one-shot and incremental APIs.
//!
//! SHA-256 is the workhorse digest for signatures over canonicalized
//! document elements; SHA-512 is required internally by Ed25519 (RFC 8032).

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-512 round constants (first 64 bits of the fractional parts of the cube
/// roots of the first 80 primes).
const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

const H256: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const H512: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

#[cfg(test)]
mod oracle;

thread_local! {
    /// Message bytes absorbed by SHA-256 on this thread — like
    /// [`crate::ed25519::ec_ops`], a deterministic, machine-independent cost
    /// measure for benches.
    static SHA256_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Message bytes absorbed by [`Sha256::update`] on the current thread so
/// far (padding excluded). Byte-deterministic for a fixed workload.
pub fn sha256_bytes() -> u64 {
    SHA256_BYTES.with(std::cell::Cell::get)
}

/// Reset the current thread's SHA-256 byte counter to zero.
pub fn sha256_bytes_reset() {
    SHA256_BYTES.with(|c| c.set(0));
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The tail of the input that does not fill a block yet; `buf_len < 64`
    /// between calls.
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H256, buf: [0; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorb `data`: whole blocks are compressed where they lie in `data`,
    /// only a tail shorter than a block is copied.
    pub fn update(&mut self, data: &[u8]) {
        SHA256_BYTES.with(|c| c.set(c.get() + data.len() as u64));
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress256(&mut self.state, &self.buf);
        }
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            compress256(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // padding, in place: 0x80, zeros, the bit length big-endian in the
        // last 8 bytes of a block — this one if they are still free
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress256(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress256(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The SHA-256 compression function, on a block read where it lies: 64
/// unrolled rounds over a 16-word message schedule that is rewritten in
/// place (`w[i]` lands on `w[i − 16]`, the one word no later round needs).
fn compress256(state: &mut [u32; 8], block: &[u8; 64]) {
    let (words, _) = block.as_chunks::<4>();
    let mut w: [u32; 16] = core::array::from_fn(|i| u32::from_be_bytes(words[i]));
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // rounds 0…15 read the block's own words, later ones extend the schedule
    macro_rules! loaded {
        ($i:expr) => {
            w[$i]
        };
    }
    macro_rules! scheduled {
        ($i:expr) => {{
            let (w15, w2) = (w[($i + 1) & 15], w[($i + 14) & 15]);
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[$i & 15] =
                w[$i & 15].wrapping_add(s0).wrapping_add(w[($i + 9) & 15]).wrapping_add(s1);
            w[$i & 15]
        }};
    }
    // one round, with the working variables passed in rotated order so the
    // 8-way register shuffle of the textbook loop disappears
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr, $w:ident) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 =
                $h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K256[$i]).wrapping_add($w!($i));
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        };
    }
    macro_rules! rounds8 {
        ($i:expr, $w:ident) => {
            round!(a b c d e f g h, $i, $w);
            round!(h a b c d e f g, $i + 1, $w);
            round!(g h a b c d e f, $i + 2, $w);
            round!(f g h a b c d e, $i + 3, $w);
            round!(e f g h a b c d, $i + 4, $w);
            round!(d e f g h a b c, $i + 5, $w);
            round!(c d e f g h a b, $i + 6, $w);
            round!(b c d e f g h a, $i + 7, $w);
        };
    }
    rounds8!(0, loaded);
    rounds8!(8, loaded);
    rounds8!(16, scheduled);
    rounds8!(24, scheduled);
    rounds8!(32, scheduled);
    rounds8!(40, scheduled);
    rounds8!(48, scheduled);
    rounds8!(56, scheduled);
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Incremental SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    /// The tail of the input that does not fill a block yet; `buf_len < 128`
    /// between calls.
    buf: [u8; 128],
    buf_len: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha512 { state: H512, buf: [0; 128], buf_len: 0, total_len: 0 }
    }

    /// Absorb `data`: whole blocks are compressed where they lie in `data`,
    /// only a tail shorter than a block is copied.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 128 {
                return;
            }
            compress512(&mut self.state, &self.buf);
        }
        let (blocks, tail) = data.as_chunks::<128>();
        for block in blocks {
            compress512(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and return the 64-byte digest.
    pub fn finalize(mut self) -> [u8; 64] {
        // padding as for SHA-256, with a 16-byte length
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 112 {
            compress512(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[112..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress512(&mut self.state, &self.buf);
        let mut out = [0u8; 64];
        for (chunk, w) in out.chunks_exact_mut(8).zip(self.state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The SHA-512 compression function: [`compress256`]'s structure on 64-bit
/// words, 80 rounds.
fn compress512(state: &mut [u64; 8], block: &[u8; 128]) {
    let (words, _) = block.as_chunks::<8>();
    let mut w: [u64; 16] = core::array::from_fn(|i| u64::from_be_bytes(words[i]));
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    macro_rules! loaded {
        ($i:expr) => {
            w[$i]
        };
    }
    macro_rules! scheduled {
        ($i:expr) => {{
            let (w15, w2) = (w[($i + 1) & 15], w[($i + 14) & 15]);
            let s0 = w15.rotate_right(1) ^ w15.rotate_right(8) ^ (w15 >> 7);
            let s1 = w2.rotate_right(19) ^ w2.rotate_right(61) ^ (w2 >> 6);
            w[$i & 15] =
                w[$i & 15].wrapping_add(s0).wrapping_add(w[($i + 9) & 15]).wrapping_add(s1);
            w[$i & 15]
        }};
    }
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr, $w:ident) => {
            let s1 = $e.rotate_right(14) ^ $e.rotate_right(18) ^ $e.rotate_right(41);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 =
                $h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K512[$i]).wrapping_add($w!($i));
            let s0 = $a.rotate_right(28) ^ $a.rotate_right(34) ^ $a.rotate_right(39);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        };
    }
    macro_rules! rounds8 {
        ($i:expr, $w:ident) => {
            round!(a b c d e f g h, $i, $w);
            round!(h a b c d e f g, $i + 1, $w);
            round!(g h a b c d e f, $i + 2, $w);
            round!(f g h a b c d e, $i + 3, $w);
            round!(e f g h a b c d, $i + 4, $w);
            round!(d e f g h a b c, $i + 5, $w);
            round!(c d e f g h a b, $i + 6, $w);
            round!(b c d e f g h a, $i + 7, $w);
        };
    }
    rounds8!(0, loaded);
    rounds8!(8, loaded);
    rounds8!(16, scheduled);
    rounds8!(24, scheduled);
    rounds8!(32, scheduled);
    rounds8!(40, scheduled);
    rounds8!(48, scheduled);
    rounds8!(56, scheduled);
    rounds8!(64, scheduled);
    rounds8!(72, scheduled);
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-512.
pub fn sha512(data: &[u8]) -> [u8; 64] {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex::encode(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn byte_counter_counts_message_bytes_not_padding() {
        sha256_bytes_reset();
        sha256(b"abc");
        let mut h = Sha256::new();
        h.update(&[0u8; 100]);
        h.update(&[0u8; 28]);
        h.finalize();
        assert_eq!(sha256_bytes(), 3 + 128);
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex::encode(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        // NIST FIPS 180-4 example: 448-bit message
        assert_eq!(
            hex::encode(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex::encode(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            hex::encode(&sha512(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            hex::encode(&sha512(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 129, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");

            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha512(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    // --- the rewritten compression and padding against the old ones ---

    /// A message with no period a block could hide behind.
    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 7 + 5) as u8).collect()
    }

    /// Every length from empty to past two SHA-512 blocks: each padding
    /// branch of both hashes (55/56/63/64/65 and 111/112/127/128/129).
    #[test]
    fn every_length_to_300_matches_the_old_compress() {
        for len in 0..=300 {
            let msg = message(len);
            assert_eq!(sha256(&msg), oracle::sha256(&msg), "SHA-256, {len} bytes");
            assert_eq!(sha512(&msg), oracle::sha512(&msg), "SHA-512, {len} bytes");
        }
    }

    /// One message cut at every `update` boundary: the buffered tail, the
    /// top-up to a full block and the blocks taken in place all meet.
    #[test]
    fn every_split_of_200_bytes_matches_the_old_compress() {
        let msg = message(200);
        let (expect256, expect512) = (oracle::sha256(&msg), oracle::sha512(&msg));
        for cut in 0..=msg.len() {
            let (head, tail) = msg.split_at(cut);
            let mut h = Sha256::new();
            h.update(head);
            h.update(tail);
            assert_eq!(h.finalize(), expect256, "SHA-256 cut at {cut}");
            let mut h = Sha512::new();
            h.update(head);
            h.update(tail);
            assert_eq!(h.finalize(), expect512, "SHA-512 cut at {cut}");
        }
        // and in three pieces, so a top-up can itself leave a tail
        for (first, second) in [(1, 62), (1, 63), (1, 64), (63, 1), (63, 66), (100, 28)] {
            let mut h = Sha256::new();
            let mut h512 = Sha512::new();
            for piece in [&msg[..first], &msg[first..first + second], &msg[first + second..]] {
                h.update(piece);
                h512.update(piece);
            }
            assert_eq!(h.finalize(), expect256, "SHA-256 pieces {first}+{second}");
            assert_eq!(h512.finalize(), expect512, "SHA-512 pieces {first}+{second}");
        }
    }

    /// The counter counts what it counted before the rewrite: the bytes
    /// handed to `Sha256::update`, whatever their split — not padding, not
    /// SHA-512 input, not a hasher that is never finalized.
    #[test]
    fn byte_counter_after_a_fixed_script_of_updates() {
        sha256_bytes_reset();
        let msg = message(300);
        let mut h = Sha256::new();
        for piece in [&msg[..0], &msg[..1], &msg[1..64], &msg[64..129], &msg[129..300]] {
            h.update(piece);
        }
        h.finalize();
        sha256(&msg[..55]);
        sha256(&msg[..56]);
        sha256(b"");
        sha512(&msg);
        Sha256::new().update(&msg[..7]);
        assert_eq!(sha256_bytes(), 300 + 55 + 56 + 7);
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of length 55, 56, 57 exercise both padding branches of SHA-256.
        for len in [55usize, 56, 57, 63, 64, 65, 111, 112, 113, 119, 120, 127, 128] {
            let msg = vec![0xabu8; len];
            // compare against incremental to check internal consistency
            let mut h = Sha256::new();
            h.update(&msg);
            assert_eq!(h.finalize(), sha256(&msg), "len {len}");
        }
    }
}
