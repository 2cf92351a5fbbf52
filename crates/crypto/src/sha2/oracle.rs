//! The compression functions this crate shipped before the rolling-schedule
//! rewrite — a full 64/80-word message schedule, the textbook round loop for
//! SHA-256 — under a padding written out the slow, obvious way. Compiled for
//! tests only: the oracle [`super::Sha256`] and [`super::Sha512`] are held
//! against at every length and every split. Kept as they were; do not
//! optimise them.

use super::{H256, H512, K256, K512};

fn compress256(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K256[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

fn compress512(state: &mut [u64; 8], block: &[u8; 128]) {
    let mut w = [0u64; 80];
    for i in 0..16 {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&block[8 * i..8 * i + 8]);
        w[i] = u64::from_be_bytes(bytes);
    }
    for i in 16..80 {
        let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
        let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // one round, with the working variables passed in rotated order so
    // the 8-way register shuffle of the textbook loop disappears
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $i:expr) => {
            let s1 = $e.rotate_right(14) ^ $e.rotate_right(18) ^ $e.rotate_right(41);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 =
                $h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K512[$i]).wrapping_add(w[$i]);
            let s0 = $a.rotate_right(28) ^ $a.rotate_right(34) ^ $a.rotate_right(39);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        };
    }
    let mut i = 0;
    while i < 80 {
        round!(a b c d e f g h, i);
        round!(h a b c d e f g, i + 1);
        round!(g h a b c d e f, i + 2);
        round!(f g h a b c d e, i + 3);
        round!(e f g h a b c d, i + 4);
        round!(d e f g h a b c, i + 5);
        round!(c d e f g h a b, i + 6);
        round!(b c d e f g h a, i + 7);
        i += 8;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// FIPS 180-4 §5.1 on a copy of the message: 0x80, zeros up to `len_bytes`
/// short of a block boundary, the bit length big-endian.
fn padded(data: &[u8], block: usize, len_bytes: usize) -> Vec<u8> {
    let mut m = data.to_vec();
    m.push(0x80);
    while m.len() % block != block - len_bytes {
        m.push(0);
    }
    let bits = (data.len() as u128) * 8;
    m.extend_from_slice(&bits.to_be_bytes()[16 - len_bytes..]);
    m
}

/// One-shot SHA-256 over the old compression function.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = H256;
    for block in padded(data, 64, 8).as_chunks::<64>().0 {
        compress256(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// One-shot SHA-512 over the old compression function.
pub fn sha512(data: &[u8]) -> [u8; 64] {
    let mut state = H512;
    for block in padded(data, 128, 16).as_chunks::<128>().0 {
        compress512(&mut state, block);
    }
    let mut out = [0u8; 64];
    for (chunk, w) in out.chunks_exact_mut(8).zip(state) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}
