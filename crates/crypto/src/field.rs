//! Arithmetic in GF(2^255 − 19), the base field of curve25519.
//!
//! **Representation.** An element is five limbs of nominally 51 bits in
//! `u64`, value `Σ lᵢ·2^(51·i)` — the layout of ref10's `fe51` and of
//! curve25519-dalek's 64-bit backend. A limb may run past 2^51 and the value
//! past p: one element has many limb patterns, and nothing on the hot path
//! looks for the canonical one. A product is 25 widening multiplies into
//! five `u128` column sums (the columns that wrap past 2^255 come in
//! through `2^255 ≡ 19`, folded into one operand beforehand), a square is
//! 15, and one carry pass brings the columns back to limbs. There is no
//! trial subtraction of p and no data-dependent branch in any operation.
//!
//! **The bound contract.** Call an element *reduced* when every limb is
//! below 2^52.
//!
//! * [`Fe::mul`], [`Fe::square`], [`Fe::mul_small`], [`Fe::sub`] and
//!   [`Fe::neg`] take limbs below 2^54 and return a reduced element (in
//!   fact below 2^51 + 2^18); [`Fe::from_bytes`] and the constants are
//!   reduced too.
//! * [`Fe::add`] is five plain additions and carries nothing: the bounds of
//!   its operands add. A sum of up to four reduced elements may therefore
//!   go into a product; the deepest chain any caller builds is three
//!   (`2·Z₁Z₂ + C` in the point addition).
//! * `mul` and `square` `debug_assert!` the input bound, and an overflowing
//!   limb sum traps wherever overflow checks are on, so the debug test run —
//!   and CI's overflow-checked release run — is the bound checker.
//!
//! **Canonicalisation** happens in [`Fe::to_bytes`] and nowhere else:
//! equality, [`Fe::is_zero`] and [`Fe::is_negative`] go through it, because
//! comparing limbs would tell `x` from `x + p`.
//!
//! The 4 × 64 fully reduced field this replaced is compiled for tests only
//! (`field/oracle.rs`), as the reference every operation here is held
//! against.

#[cfg(test)]
mod oracle;

/// The low 51 bits of a limb.
const MASK: u64 = (1 << 51) - 1;

/// 16·p limb by limb: what [`Fe::sub`] adds before subtracting, so that no
/// limb of a subtrahend inside the contract (< 2^54) can borrow.
const P16: [u64; 5] = [
    16 * ((1 << 51) - 19),
    16 * ((1 << 51) - 1),
    16 * ((1 << 51) - 1),
    16 * ((1 << 51) - 1),
    16 * ((1 << 51) - 1),
];

/// An element of GF(2^255 − 19) on five 51-bit limbs, not necessarily
/// canonical (the module documentation states the bound contract).
#[derive(Clone, Copy, Debug)]
pub struct Fe([u64; 5]);

/// Equality of field elements, not of limb patterns.
impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

/// Widening multiply.
#[inline(always)]
fn m(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Build from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe([v & MASK, v >> 51, 0, 0, 0])
    }

    /// Split four little-endian 64-bit words into limbs, dropping bit 255.
    /// A value in [p, 2^255) keeps its limbs; it reduces in `to_bytes`.
    pub(crate) const fn from_words(w: [u64; 4]) -> Fe {
        Fe([
            w[0] & MASK,
            (w[0] >> 51 | w[1] << 13) & MASK,
            (w[1] >> 38 | w[2] << 26) & MASK,
            (w[2] >> 25 | w[3] << 39) & MASK,
            (w[3] >> 12) & MASK,
        ])
    }

    /// Decode 32 little-endian bytes; the top bit is ignored (masked) as in
    /// RFC 7748/8032, and an encoding of p or more stands for its residue.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let (words, _) = bytes.as_chunks::<8>();
        Fe::from_words(core::array::from_fn(|i| u64::from_le_bytes(words[i])))
    }

    /// Encode as 32 canonical little-endian bytes: the one place an element
    /// is brought below p.
    pub fn to_bytes(self) -> [u8; 32] {
        // limbs < 2^51 + 2^18, so the value is below 2p
        let mut l = Fe::carried(self.0).0;
        // q = ⌊(value + 19) / 2^255⌋, which is 1 iff value ≥ p
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        // value − q·p = value + 19·q − q·2^255: add, carry, drop bit 255
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK;
        }
        l[4] &= MASK;
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// One carry pass over `u64` limbs: every limb hands its bits above 51
    /// to the next, the last to the first through `2^255 ≡ 19`. Any limbs
    /// in, limbs below 2^51 + 2^18 out.
    #[inline(always)]
    fn carried(l: [u64; 5]) -> Fe {
        Fe([
            (l[0] & MASK) + (l[4] >> 51) * 19,
            (l[1] & MASK) + (l[0] >> 51),
            (l[2] & MASK) + (l[1] >> 51),
            (l[3] & MASK) + (l[2] >> 51),
            (l[4] & MASK) + (l[3] >> 51),
        ])
    }

    /// The carry pass over the column sums of a product. With both factors
    /// inside the contract a column is below 2^114.3 and the last one, which
    /// has no wrapped term, below 2^110.4: every carry fits a `u64`, and so
    /// does 19 times the last.
    #[inline(always)]
    fn carried_wide(mut c: [u128; 5]) -> Fe {
        let mut l = [0u64; 5];
        for i in 0..4 {
            c[i + 1] += u128::from((c[i] >> 51) as u64);
            l[i] = c[i] as u64 & MASK;
        }
        l[4] = c[4] as u64 & MASK;
        l[0] += (c[4] >> 51) as u64 * 19;
        l[1] += l[0] >> 51;
        l[0] &= MASK;
        Fe(l)
    }

    /// True when every limb is inside the input contract of the products.
    fn in_contract(&self) -> bool {
        self.0.iter().all(|&l| l < 1 << 54)
    }

    /// Field addition: limb by limb, no carry (the operands' bounds add).
    #[inline]
    pub fn add(&self, other: &Fe) -> Fe {
        Fe(core::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    /// Field subtraction, as `self + 16p − other`: no borrow, no branch.
    #[inline]
    pub fn sub(&self, other: &Fe) -> Fe {
        Fe::carried(core::array::from_fn(|i| self.0[i] + P16[i] - other.0[i]))
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication: 25 widening multiplies into five column sums.
    /// Column k collects `aᵢ·bⱼ` for i + j = k, and for i + j = k + 5 scaled
    /// by 19 — folded into `b` first, where it still fits a `u64`.
    pub fn mul(&self, other: &Fe) -> Fe {
        debug_assert!(self.in_contract() && other.in_contract(), "a limb ≥ 2^54 into mul");
        let (a, b) = (&self.0, &other.0);
        let (b1, b2, b3, b4) = (b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19);
        Fe::carried_wide([
            m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }

    /// Field squaring: each cross product is computed once and doubled, so
    /// a square costs 15 widening multiplies to `mul`'s 25 — squares
    /// dominate the doubling-heavy point ladders and the decompression
    /// exponentiation.
    pub fn square(&self) -> Fe {
        debug_assert!(self.in_contract(), "a limb ≥ 2^54 into square");
        let a = &self.0;
        let (a3, a4) = (a[3] * 19, a[4] * 19);
        Fe::carried_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4) + m(a[2], a3)),
            m(a[3], a3) + 2 * (m(a[0], a[1]) + m(a[2], a4)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3)),
            m(a[4], a4) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// Multiplication by a one-word constant: five widening multiplies.
    pub fn mul_small(&self, k: u32) -> Fe {
        Fe::carried_wide(self.0.map(|l| m(l, u64::from(k))))
    }

    /// Exponentiation by a 256-bit little-endian exponent (square & multiply,
    /// MSB first).
    pub fn pow(&self, exp: &[u64; 4]) -> Fe {
        let mut result = Fe::ONE;
        let mut started = false;
        for i in (0..4).rev() {
            for bit in (0..64).rev() {
                if started {
                    result = result.square();
                }
                if (exp[i] >> bit) & 1 == 1 {
                    if started {
                        result = result.mul(self);
                    } else {
                        result = *self;
                        started = true;
                    }
                }
            }
        }
        result
    }

    /// `self^(2^n)` — n successive squarings.
    fn sqn(&self, n: u32) -> Fe {
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
    fn pow22501(&self) -> (Fe, Fe) {
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
    pub fn invert(&self) -> Fe {
        // p - 2 = 2^255 - 21 = (2^250 - 1)·2^5 + 11
        let (z2_250_0, z11) = self.pow22501();
        z2_250_0.sqn(5).mul(&z11)
    }

    /// a^((p−5)/8) = a^(2^252 − 3); used for square roots during point
    /// decompression (RFC 8032 §5.1.3).
    pub fn pow_p58(&self) -> Fe {
        // 2^252 - 3 = (2^250 - 1)·2^2 + 1
        let (z2_250_0, _) = self.pow22501();
        z2_250_0.sqn(2).mul(self)
    }

    /// True if the element is zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Parity of the canonical representative (bit 0), the "sign" used in
    /// point compression.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// sqrt(−1) mod p, i.e. 2^((p−1)/4) (the unit tests re-derive it).
    pub const fn sqrt_m1() -> Fe {
        Fe::from_words([
            0xc4ee_1b27_4a0e_a0b0,
            0x2f43_1806_ad2f_e478,
            0x2b4d_0099_3dfb_d7a7,
            0x2b83_2480_4fc1_df0b,
        ])
    }

    /// Overwrite `self` with `other` where `mask` is all-ones and keep it
    /// where `mask` is zero — the masked move the fixed-base table scan is
    /// built from, so which entry was taken shows in no branch or address.
    #[inline]
    pub(crate) fn cmov(&mut self, other: &Fe, mask: u64) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a ^= mask & (*a ^ *b);
        }
    }

    /// Exchange `self` and `other` where `mask` is all-ones, leave both
    /// where it is zero: the Montgomery ladder's conditional swap, with the
    /// scalar bit in no branch.
    #[inline]
    pub(crate) fn cswap(&mut self, other: &mut Fe, mask: u64) {
        let (a, b) = (*self, *other);
        self.cmov(&b, mask);
        other.cmov(&a, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    #[test]
    fn add_sub_basics() {
        let a = fe(5);
        let b = fe(3);
        assert_eq!(a.add(&b), fe(8));
        assert_eq!(a.sub(&b), fe(2));
        assert_eq!(b.sub(&a).add(&a), b, "wraparound subtraction");
    }

    #[test]
    fn neg_of_zero_is_zero() {
        assert_eq!(Fe::ZERO.neg(), Fe::ZERO);
    }

    /// p as 32 little-endian bytes.
    fn p_bytes() -> [u8; 32] {
        let mut bytes = [0u8; 32];
        for (chunk, w) in bytes.chunks_exact_mut(8).zip(oracle::P) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn p_reduces_to_zero() {
        assert_eq!(Fe::from_bytes(&p_bytes()), Fe::ZERO);
    }

    #[test]
    fn p_minus_one_is_canonical() {
        let m1 = Fe::ZERO.sub(&Fe::ONE);
        let mut expect = p_bytes();
        expect[0] -= 1;
        assert_eq!(m1.to_bytes(), expect);
        assert_eq!(m1.add(&Fe::ONE), Fe::ZERO);
    }

    #[test]
    fn mul_small() {
        assert_eq!(fe(7).mul(&fe(6)), fe(42));
        assert_eq!(fe(0).mul(&fe(12345)), Fe::ZERO);
        assert_eq!(Fe::ONE.mul(&fe(99)), fe(99));
    }

    #[test]
    fn mul_wraps_correctly() {
        // (p-1)^2 mod p = 1
        let m1 = Fe::ZERO.sub(&Fe::ONE);
        assert_eq!(m1.mul(&m1), Fe::ONE);
        // (p-1) * 2 = p - 2
        assert_eq!(m1.mul(&fe(2)), Fe::ZERO.sub(&fe(2)));
    }

    #[test]
    fn invert() {
        for v in [1u64, 2, 3, 19, 485, u64::MAX] {
            let a = fe(v);
            assert_eq!(a.mul(&a.invert()), Fe::ONE, "v = {v}");
        }
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square(), Fe::ZERO.sub(&Fe::ONE));
    }

    /// The constant is what it used to be computed as: 2^((p−1)/4).
    #[test]
    fn sqrt_m1_constant_matches_its_derivation() {
        // (p-1)/4 = 2^253 - 5
        const EXP: [u64; 4] = [
            0xffff_ffff_ffff_fffb,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x1fff_ffff_ffff_ffff,
        ];
        assert_eq!(Fe::sqrt_m1(), Fe::from_u64(2).pow(&EXP));
    }

    #[test]
    fn cmov_takes_all_or_nothing() {
        let (a, b) = (fe(5), Fe::ZERO.sub(&fe(7)));
        let mut r = a;
        r.cmov(&b, 0);
        assert_eq!(r, a);
        r.cmov(&b, u64::MAX);
        assert_eq!(r, b);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = fe(0xdead_beef).mul(&fe(0x1234_5678_9abc_def0));
        assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn high_bit_masked_on_decode() {
        let mut b = [0u8; 32];
        b[31] = 0x80; // only the masked bit set
        assert_eq!(Fe::from_bytes(&b), Fe::ZERO);
    }

    fn arb_fe() -> impl Strategy<Value = Fe> {
        proptest::array::uniform32(any::<u8>()).prop_map(|b| Fe::from_bytes(&b))
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a.add(&b), b.add(&a));
        }

        #[test]
        fn prop_mul_commutes(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a.mul(&b), b.mul(&a));
        }

        #[test]
        fn prop_mul_associates(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        }

        #[test]
        fn prop_distributes(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        }

        #[test]
        fn prop_sub_add_inverse(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a.sub(&b).add(&b), a);
        }

        #[test]
        fn prop_invert(a in arb_fe()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a.mul(&a.invert()), Fe::ONE);
        }

        #[test]
        fn prop_square_is_mul_self(a in arb_fe()) {
            prop_assert_eq!(a.square(), a.mul(&a));
        }

        #[test]
        fn prop_roundtrip(a in arb_fe()) {
            prop_assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
        }
    }

    // --- the 5 × 51 field against its oracle, the 4 × 64 field it replaced ---

    use oracle::Fe4;

    /// The old field's element for `x`, from the limbs themselves:
    /// Σ lᵢ·2^(51·i) by Horner in the old arithmetic. Shares no code with
    /// `to_bytes`, and takes any limbs.
    fn old(x: &Fe) -> Fe4 {
        let radix = Fe4::from_u64(1 << 51);
        x.0.iter().rev().fold(Fe4::ZERO, |acc, &l| acc.mul(&radix).add(&Fe4::from_u64(l)))
    }

    /// Both results encode to the same canonical bytes.
    fn same(new: Fe, old: Fe4) -> bool {
        new.to_bytes() == old.to_bytes()
    }

    /// `from_bytes(bytes)` with `excess[i]` added above bit 51 of limb i: with
    /// every excess below 8 the limbs fill the whole input contract (< 2^54).
    fn lazy(bytes: &[u8; 32], excess: [u64; 5]) -> Fe {
        let x = Fe::from_bytes(bytes);
        Fe(core::array::from_fn(|i| x.0[i] + (excess[i] << 51)))
    }

    fn arb_lazy() -> impl Strategy<Value = Fe> {
        let excess = (0u64..8, 0u64..8, 0u64..8, 0u64..8, 0u64..8);
        (proptest::array::uniform32(any::<u8>()), excess)
            .prop_map(|(bytes, (e0, e1, e2, e3, e4))| lazy(&bytes, [e0, e1, e2, e3, e4]))
    }

    /// 2^255 − 1 and the encodings of p and p + 1, each with bit 255 clear
    /// and set: the non-canonical classes a decoder must reduce.
    fn edge_encodings() -> Vec<[u8; 32]> {
        let mut top = [0xffu8; 32];
        top[31] = 0x7f;
        let mut p_plus_1 = p_bytes();
        p_plus_1[0] += 1;
        let clear = [p_bytes(), p_plus_1, top];
        let set = clear.map(|mut enc| {
            enc[31] |= 0x80;
            enc
        });
        [clear, set].concat()
    }

    /// 0, 1, 2 and p − 1; the edge encodings decoded; and the limb patterns at
    /// the rims of the contract: all limbs 2^51 − 1 (the value 2^255 − 1),
    /// 2^52 − 1 (the most a reduced element may hold) and 2^54 − 1 (the most
    /// a product may be handed).
    fn edges() -> Vec<Fe> {
        let values = [fe(0), fe(1), fe(2), Fe::ZERO.sub(&Fe::ONE)];
        let rims = [51, 52, 54].map(|bits| Fe([(1 << bits) - 1; 5]));
        let decoded = edge_encodings().into_iter().map(|enc| Fe::from_bytes(&enc));
        values.into_iter().chain(rims).chain(decoded).collect()
    }

    /// Every one-operand operation on `a`, new against old.
    fn check_unary(a: &Fe) {
        let a4 = old(a);
        assert!(same(*a, a4), "to_bytes of {a:?}");
        assert!(same(a.neg(), a4.neg()), "neg {a:?}");
        assert!(same(a.square(), a4.square()), "square {a:?}");
        assert!(same(a.mul_small(121665), a4.mul(&Fe4::from_u64(121665))), "mul_small {a:?}");
        assert_eq!(a.is_zero(), a4.is_zero(), "is_zero {a:?}");
        assert_eq!(a.is_negative(), a4.is_negative(), "is_negative {a:?}");
    }

    /// The two addition chains on `a`, new against old.
    fn check_chains(a: &Fe) {
        let a4 = old(a);
        assert!(same(a.invert(), a4.invert()), "invert {a:?}");
        assert!(same(a.pow_p58(), a4.pow_p58()), "pow_p58 {a:?}");
    }

    /// Every two-operand operation on `(a, b)`, new against old.
    fn check_binary(a: &Fe, b: &Fe) {
        let (a4, b4) = (old(a), old(b));
        assert!(same(a.add(b), a4.add(&b4)), "add {a:?} {b:?}");
        assert!(same(a.sub(b), a4.sub(&b4)), "sub {a:?} {b:?}");
        assert!(same(a.mul(b), a4.mul(&b4)), "mul {a:?} {b:?}");
        assert_eq!(a == b, a4 == b4, "eq {a:?} {b:?}");
        for mask in [0, u64::MAX] {
            let (mut r, mut r4) = (*a, a4);
            r.cmov(b, mask);
            r4.cmov(&b4, mask);
            assert!(same(r, r4), "cmov {a:?} {b:?} {mask:#x}");
        }
    }

    #[test]
    fn edges_match_the_old_field() {
        for a in edges() {
            check_unary(&a);
            check_chains(&a);
            for b in edges() {
                check_binary(&a, &b);
            }
        }
    }

    #[test]
    fn edge_encodings_decode_and_reduce_as_in_the_old_field() {
        for enc in edge_encodings() {
            let (new, old) = (Fe::from_bytes(&enc), Fe4::from_bytes(&enc));
            assert!(same(new, old), "{enc:?}");
            assert_eq!(Fe::from_bytes(&new.to_bytes()).to_bytes(), new.to_bytes(), "{enc:?}");
        }
        // p ≡ 0, p + 1 ≡ 1, 2^255 − 1 ≡ 18, whatever bit 255 says
        for (enc, value) in edge_encodings().iter().zip([0, 1, 18, 0, 1, 18]) {
            assert_eq!(Fe::from_bytes(enc), fe(value));
        }
    }

    /// `x` and `x + k·p`, the multiple added limb by limb, are one element:
    /// equal, equally zero, of equal sign, encoded to the same bytes < p.
    #[test]
    fn limb_patterns_of_one_element_compare_equal() {
        let p = [(1 << 51) - 19, MASK, MASK, MASK, MASK];
        let any = Fe::from_bytes(&[0xa7; 32]);
        for x in [fe(0), fe(1), fe(18), fe(19), Fe::ZERO.sub(&Fe::ONE), any] {
            for k in [1u64, 2, 7] {
                let shifted = Fe(core::array::from_fn(|i| x.0[i] + k * p[i]));
                assert_ne!(shifted.0, x.0);
                assert_eq!(shifted, x, "k = {k}");
                assert_eq!(shifted.to_bytes(), x.to_bytes(), "k = {k}");
                assert_eq!(shifted.is_zero(), x.is_zero(), "k = {k}");
                assert_eq!(shifted.is_negative(), x.is_negative(), "k = {k}");
            }
        }
        assert!(Fe(p).is_zero());
        assert!(Fe(P16).is_zero());
    }

    /// What the operations promise each other. Products, `sub` and `neg`
    /// return reduced limbs from operands anywhere in the contract; the
    /// deepest sum a caller hands a product (`2·Z₁Z₂ + C`, three reduced
    /// terms, in the point addition) and one more level on top stay inside
    /// it, and are multiplied, squared and subtracted correctly from there.
    #[test]
    fn lazy_chains_stay_inside_the_contract() {
        let reduced = |x: &Fe| x.0.iter().all(|&l| l < 1 << 52);
        let rim = Fe([(1 << 54) - 1; 5]);
        let outputs =
            [rim.mul(&rim), rim.square(), rim.mul_small(u32::MAX), rim.sub(&rim), rim.neg()];
        assert!(outputs.iter().all(reduced), "{outputs:?}");
        let widest = Fe([(1 << 52) - 1; 5]); // the most a reduced element may hold
        for (zz, c, r) in [(widest, widest, widest), (rim.square(), rim.neg(), rim.mul(&widest))] {
            let g = zz.add(&zz).add(&c);
            let deeper = g.add(&r);
            assert!(g.in_contract() && deeper.in_contract());
            for x in [g, deeper] {
                check_unary(&x);
                check_binary(&x, &deeper);
                check_binary(&r, &x);
            }
        }
    }

    #[test]
    fn cswap_takes_all_or_nothing() {
        let (a, b) = (fe(5), Fe::ZERO.sub(&fe(7)));
        let (mut x, mut y) = (a, b);
        x.cswap(&mut y, 0);
        assert_eq!((x.0, y.0), (a.0, b.0));
        x.cswap(&mut y, u64::MAX);
        assert_eq!((x.0, y.0), (b.0, a.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_decoding_matches_the_old_field(bytes in proptest::array::uniform32(any::<u8>())) {
            let (new, old) = (Fe::from_bytes(&bytes), Fe4::from_bytes(&bytes));
            prop_assert!(same(new, old));
            prop_assert_eq!(Fe::from_bytes(&new.to_bytes()), new);
        }

        #[test]
        fn prop_unary_operations_match_the_old_field(a in arb_lazy()) {
            check_unary(&a);
        }

        #[test]
        fn prop_addition_chains_match_the_old_field(a in arb_lazy()) {
            check_chains(&a);
        }

        #[test]
        fn prop_binary_operations_match_the_old_field(a in arb_lazy(), b in arb_lazy()) {
            check_binary(&a, &b);
        }
    }
}
