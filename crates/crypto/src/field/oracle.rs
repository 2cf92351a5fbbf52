//! The field this crate shipped before the 5 × 51 representation: four
//! little-endian 64-bit limbs, fully reduced (`< p`) after every operation,
//! schoolbook 4×4 products reduced through `2^256 ≡ 38 (mod p)`. Compiled
//! for tests only — it is the oracle [`super::Fe`] is held against, the way
//! `Point::scalar_mul` is for the group kernel. Kept as it was, less what
//! no test calls (`pow`, the constants); do not optimise it.

/// p = 2^255 − 19, as little-endian limbs.
pub const P: [u64; 4] =
    [0xffff_ffff_ffff_ffed, 0xffff_ffff_ffff_ffff, 0xffff_ffff_ffff_ffff, 0x7fff_ffff_ffff_ffff];

/// An element of GF(2^255 − 19), always fully reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fe4(pub(crate) [u64; 4]);

#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// `a >= b` over 4 little-endian limbs.
#[inline]
fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    // trial-subtract; no final borrow ⇔ a ≥ b
    let mut borrow = 0;
    for i in 0..4 {
        let (_, b_) = sbb(a[i], b[i], borrow);
        borrow = b_;
    }
    borrow == 0
}

/// Subtract p if the value is ≥ p (one pass, branchless — the limbs of a
/// freshly reduced product are uniform enough that a data-dependent branch
/// here mispredicts constantly).
#[inline]
fn cond_sub_p(v: &mut [u64; 4]) {
    let mut borrow = 0;
    let mut r = [0u64; 4];
    for i in 0..4 {
        let (d, b) = sbb(v[i], P[i], borrow);
        r[i] = d;
        borrow = b;
    }
    // keep the subtraction iff it did not underflow
    let keep = borrow.wrapping_sub(1); // all-ones when borrow == 0
    for i in 0..4 {
        v[i] = (r[i] & keep) | (v[i] & !keep);
    }
}

/// Multiply-accumulate: `acc + b·c + carry`, returning `(low, high)`.
#[inline(always)]
fn mac(acc: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

impl Fe4 {
    /// The additive identity.
    pub const ZERO: Fe4 = Fe4([0, 0, 0, 0]);

    /// Build from a small integer.
    pub fn from_u64(v: u64) -> Fe4 {
        Fe4([v, 0, 0, 0])
    }

    /// Decode 32 little-endian bytes; the top bit is ignored (masked) as in
    /// RFC 7748/8032, then the value is reduced mod p.
    #[allow(clippy::needless_range_loop)] // index i addresses both arrays
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe4 {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            limbs[i] = u64::from_le_bytes(w);
        }
        limbs[3] &= 0x7fff_ffff_ffff_ffff;
        let mut fe = Fe4(limbs);
        cond_sub_p(&mut fe.0);
        fe
    }

    /// Encode as 32 canonical little-endian bytes.
    #[allow(clippy::needless_range_loop)] // index i addresses both arrays
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Field addition.
    #[allow(clippy::needless_range_loop)] // index i addresses two arrays
    pub fn add(&self, other: &Fe4) -> Fe4 {
        let mut r = [0u64; 4];
        let mut carry = 0;
        for i in 0..4 {
            let (v, c) = adc(self.0[i], other.0[i], carry);
            r[i] = v;
            carry = c;
        }
        debug_assert_eq!(carry, 0, "a+b < 2p < 2^256 so no carry-out");
        cond_sub_p(&mut r);
        Fe4(r)
    }

    /// Field subtraction.
    #[allow(clippy::needless_range_loop)] // index i addresses two arrays
    pub fn sub(&self, other: &Fe4) -> Fe4 {
        let mut r = [0u64; 4];
        let mut borrow = 0;
        for i in 0..4 {
            let (v, b) = sbb(self.0[i], other.0[i], borrow);
            r[i] = v;
            borrow = b;
        }
        if borrow != 0 {
            // wrapped: add p back (r currently holds a - b + 2^256 mod 2^256)
            let mut carry = 0;
            for i in 0..4 {
                let (v, c) = adc(r[i], P[i], carry);
                r[i] = v;
                carry = c;
            }
        }
        Fe4(r)
    }

    /// Field negation.
    pub fn neg(&self) -> Fe4 {
        Fe4::ZERO.sub(self)
    }

    /// Field multiplication: 4×4 schoolbook, hand-unrolled into explicit
    /// multiply-accumulate chains so the compiler emits straight-line
    /// widening multiplies instead of an indexed carry loop.
    pub fn mul(&self, other: &Fe4) -> Fe4 {
        let a = &self.0;
        let b = &other.0;
        let (r0, c) = mac(0, a[0], b[0], 0);
        let (r1, c) = mac(0, a[0], b[1], c);
        let (r2, c) = mac(0, a[0], b[2], c);
        let (r3, r4) = mac(0, a[0], b[3], c);

        let (r1, c) = mac(r1, a[1], b[0], 0);
        let (r2, c) = mac(r2, a[1], b[1], c);
        let (r3, c) = mac(r3, a[1], b[2], c);
        let (r4, r5) = mac(r4, a[1], b[3], c);

        let (r2, c) = mac(r2, a[2], b[0], 0);
        let (r3, c) = mac(r3, a[2], b[1], c);
        let (r4, c) = mac(r4, a[2], b[2], c);
        let (r5, r6) = mac(r5, a[2], b[3], c);

        let (r3, c) = mac(r3, a[3], b[0], 0);
        let (r4, c) = mac(r4, a[3], b[1], c);
        let (r5, c) = mac(r5, a[3], b[2], c);
        let (r6, r7) = mac(r6, a[3], b[3], c);
        Self::reduce_wide([r0, r1, r2, r3, r4, r5, r6, r7])
    }

    /// Field squaring: the six cross products are computed once and
    /// doubled by a shift, so a square costs 10 widening multiplies to
    /// `mul`'s 16 — squares dominate the doubling-heavy point ladders and
    /// the decompression exponentiation.
    pub fn square(&self) -> Fe4 {
        let a = &self.0;
        // cross products a_i·a_j (i < j) into limbs 1..=6
        let (t1, c) = mac(0, a[0], a[1], 0);
        let (t2, c) = mac(0, a[0], a[2], c);
        let (t3, t4) = mac(0, a[0], a[3], c);
        let (t3, c) = mac(t3, a[1], a[2], 0);
        let (t4, t5) = mac(t4, a[1], a[3], c);
        let (t5, t6) = mac(t5, a[2], a[3], 0);
        // double them: the wide value is < 2^511, so the top bit is free
        let t7 = t6 >> 63;
        let t6 = (t6 << 1) | (t5 >> 63);
        let t5 = (t5 << 1) | (t4 >> 63);
        let t4 = (t4 << 1) | (t3 >> 63);
        let t3 = (t3 << 1) | (t2 >> 63);
        let t2 = (t2 << 1) | (t1 >> 63);
        let t1 = t1 << 1;
        // add the diagonal a_i² at limbs (2i, 2i+1)
        let d0 = a[0] as u128 * a[0] as u128;
        let d1 = a[1] as u128 * a[1] as u128;
        let d2 = a[2] as u128 * a[2] as u128;
        let d3 = a[3] as u128 * a[3] as u128;
        let r0 = d0 as u64;
        let (r1, c) = adc(t1, (d0 >> 64) as u64, 0);
        let (r2, c) = adc(t2, d1 as u64, c);
        let (r3, c) = adc(t3, (d1 >> 64) as u64, c);
        let (r4, c) = adc(t4, d2 as u64, c);
        let (r5, c) = adc(t5, (d2 >> 64) as u64, c);
        let (r6, c) = adc(t6, d3 as u64, c);
        let (r7, c) = adc(t7, (d3 >> 64) as u64, c);
        debug_assert_eq!(c, 0, "a² < 2^512 leaves no carry-out");
        Self::reduce_wide([r0, r1, r2, r3, r4, r5, r6, r7])
    }

    /// Reduce an 8-limb (512-bit) product modulo p using 2^256 ≡ 38.
    fn reduce_wide(t: [u64; 8]) -> Fe4 {
        // r = lo + hi*38, 5 limbs
        let mut r = [0u64; 4];
        let mut carry: u128 = 0;
        for i in 0..4 {
            let v = t[i] as u128 + t[4 + i] as u128 * 38 + carry;
            r[i] = v as u64;
            carry = v >> 64;
        }
        // fold the overflow (≤ ~2^70 · ε) back in, possibly twice
        while carry != 0 {
            let mut c = carry * 38;
            for limb in r.iter_mut() {
                let v = *limb as u128 + c;
                *limb = v as u64;
                c = v >> 64;
                if c == 0 {
                    break;
                }
            }
            carry = c;
        }
        cond_sub_p(&mut r);
        cond_sub_p(&mut r);
        debug_assert!(!geq(&r, &P));
        Fe4(r)
    }

    /// `self^(2^n)` — n successive squarings.
    fn sqn(&self, n: u32) -> Fe4 {
        let mut r = *self;
        for _ in 0..n {
            r = r.square();
        }
        r
    }

    /// `self^(2^250 − 1)`, the shared prefix of the inversion and
    /// square-root addition chains (ref10's `pow22501` structure). Roughly
    /// 249 squarings + 11 multiplications, against ~500 multiplications for
    /// generic square-and-multiply — decompression and inversion sit on the
    /// verify hot path, so the chain matters.
    fn pow22501(&self) -> (Fe4, Fe4) {
        let z = *self;
        let z2 = z.square(); // 2
        let z9 = z2.sqn(2).mul(&z); // 9
        let z11 = z9.mul(&z2); // 11
        let z2_5_0 = z11.square().mul(&z9); // 2^5 - 1
        let z2_10_0 = z2_5_0.sqn(5).mul(&z2_5_0); // 2^10 - 1
        let z2_20_0 = z2_10_0.sqn(10).mul(&z2_10_0); // 2^20 - 1
        let z2_40_0 = z2_20_0.sqn(20).mul(&z2_20_0); // 2^40 - 1
        let z2_50_0 = z2_40_0.sqn(10).mul(&z2_10_0); // 2^50 - 1
        let z2_100_0 = z2_50_0.sqn(50).mul(&z2_50_0); // 2^100 - 1
        let z2_200_0 = z2_100_0.sqn(100).mul(&z2_100_0); // 2^200 - 1
        (z2_200_0.sqn(50).mul(&z2_50_0), z11) // (2^250 - 1, 11)
    }

    /// Multiplicative inverse via Fermat: a^(p−2). Returns zero for zero.
    pub fn invert(&self) -> Fe4 {
        // p - 2 = 2^255 - 21 = (2^250 - 1)·2^5 + 11
        let (z2_250_0, z11) = self.pow22501();
        z2_250_0.sqn(5).mul(&z11)
    }

    /// a^((p−5)/8) = a^(2^252 − 3); used for square roots during point
    /// decompression (RFC 8032 §5.1.3).
    pub fn pow_p58(&self) -> Fe4 {
        // 2^252 - 3 = (2^250 - 1)·2^2 + 1
        let (z2_250_0, _) = self.pow22501();
        z2_250_0.sqn(2).mul(self)
    }

    /// True if the element is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Parity of the canonical representative (bit 0), the "sign" used in
    /// point compression.
    pub fn is_negative(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Overwrite `self` with `other` where `mask` is all-ones and keep it
    /// where `mask` is zero — the masked move the fixed-base table scan is
    /// built from, so which entry was taken shows in no branch or address.
    #[inline]
    pub fn cmov(&mut self, other: &Fe4, mask: u64) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a ^= mask & (*a ^ *b);
        }
    }
}
