//! Ed25519 signatures (RFC 8032).
//!
//! Every participant, workflow designer, TFC server and portal server in
//! DRA4WfMS owns an Ed25519 keypair. The cascade-based nonrepudiation scheme
//! of the paper embeds one signature per executed activity; each signature
//! covers the activity's encrypted execution result plus the signatures of
//! all predecessor activities.
//!
//! Point arithmetic uses extended twisted-Edwards coordinates with the
//! complete a = −1 formulas; scalar arithmetic mod the group order L uses a
//! byte-oriented schoolbook reduction (in the style of TweetNaCl's `modL`).
//!
//! One group-arithmetic kernel serves every caller in the crate:
//!
//! * [`Point::basepoint_mul`] — `[scalar]B`: a radix-16 signed-digit walk
//!   over a once-built table of `j·16^i·B`, 65 additions and no doubling.
//!   Key derivation, the `R = [r]B` of signing, the `[s]B` of verification
//!   and X25519 public keys (via the birational map) all go through it.
//! * A per-key fixed-base table — `[scalar]P` for a point the thread meets
//!   again: rows `j·16^(4q)·P` for j = 1…8, q = 0…16, built once on first
//!   use (about two X25519 ladders' work) and walked in 4 passes of 16–17
//!   additions with 12 doublings between them, 77 operations against about
//!   253 doublings. Verification's `[k](−A)` walks the signer's table
//!   ([`PublicKey::verify`]: 143 operations a signature); sealing to a
//!   reader walks the table of an Edwards preimage of the reader's X25519
//!   key ([`crate::x25519::X25519Secret::diffie_hellman_known`]). A table
//!   is 17 × 8 entries of 120 bytes, 16 320 bytes; the thread-local memo
//!   keyed by the 32-byte encoding holds at most `KEY_TABLES_CAP` of
//!   them, so a stream of fresh keys costs at most one build a key.
//!
//! Both walks pick every table entry by a masked scan, so the scalar shows
//! in no branch and no address. [`Point::scalar_mul`], the bit-by-bit
//! double-and-add, remains as the one generic variable-base routine and as
//! the oracle the tests hold the walks against; no signing, verifying or
//! key-derivation path calls it. A [`SecretKey`] expands its seed once, at
//! construction, so a signature is two SHA-512 passes over the message plus
//! one table walk.
//!
//! **What runs in constant time, and what does not.** The field below
//! ([`crate::field`]) has no data-dependent branch or address in any
//! operation, so the routines that handle secret scalars — the two table
//! walks and the X25519 ladder with its masked swap — execute the same
//! instructions on the same addresses whatever the scalar. Still variable
//! time, each on public inputs only:
//!
//! * The memos ([`Point::decompress_cached`], the key tables): hash-map
//!   lookups keyed by a public encoding — one that arrived on the wire, or
//!   a reader's public key.
//! * [`Fe`] equality, `is_zero` and `is_negative`: canonicalising is
//!   branch-free, but the bytes are compared with an early exit and the
//!   caller branches on the answer — curve membership, the sign of x, a
//!   verdict; all of public points.
//!
//! [`Point::scalar_mul`] branches on every scalar bit, which is why no
//! production path hands it anything. None of this has been audited, and
//! no claim is made about what a compiler or a CPU does to straight-line
//! code.

use crate::field::Fe;
use crate::sha2::Sha512;

/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;

/// Group order L = 2^252 + 27742317777372353535851937790883648493, as 32
/// little-endian bytes.
const L: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
];

/// A point on the Ed25519 curve in extended coordinates (X:Y:Z:T), with
/// x = X/Z, y = Y/Z, xy = T/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The curve constant d = −121665/121666.
const D: Fe = Fe::from_words([
    0x75eb_4dca_1359_78a3,
    0x0070_0a4d_4141_d8ab,
    0x8cc7_4079_7779_e898,
    0x5203_6cee_2b6f_fe73,
]);

/// 2·d, used by the addition formulas.
const D2: Fe = Fe::from_words([
    0xebd6_9b94_26b2_f159,
    0x00e0_149a_8283_b156,
    0x198e_80f2_eef3_d130,
    0x2406_d9dc_56df_fce7,
]);

/// The standard basepoint B (y = 4/5, x positive).
const BASEPOINT: Point = Point {
    x: Fe::from_words([
        0xc956_2d60_8f25_d51a,
        0x692c_c760_9525_a7b2,
        0xc0a4_e231_fdd6_dc5c,
        0x2169_36d3_cd6e_53fe,
    ]),
    y: Fe::from_words([
        0x6666_6666_6666_6658,
        0x6666_6666_6666_6666,
        0x6666_6666_6666_6666,
        0x6666_6666_6666_6666,
    ]),
    z: Fe::ONE,
    t: Fe::from_words([
        0x6dde_8ab3_a5b7_dda3,
        0x20f0_9f80_7751_52f5,
        0x66ea_4e8e_64ab_e37d,
        0x6787_5f0f_d78b_7665,
    ]),
};

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The standard basepoint B (y = 4/5, x positive) — the point whose
    /// compressed form is the well-known `0x58 0x66…66`.
    pub const fn basepoint() -> Point {
        BASEPOINT
    }

    /// Point addition (complete formulas for a = −1 twisted Edwards;
    /// "add-2008-hwcd-3").
    pub fn add(&self, other: &Point) -> Point {
        count_ec_op();
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&D2).mul(&other.t);
        let dd = self.z.mul(&other.z);
        let dd = dd.add(&dd);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Point doubling ("dbl-2008-hwcd" with a = −1).
    pub fn double(&self) -> Point {
        count_ec_op();
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square();
        let c = c.add(&c);
        let dd = a.neg(); // a = −1
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = dd.add(&b);
        let f = g.sub(&c);
        let h = dd.sub(&b);
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Negate the point: (x, y) → (−x, y).
    pub fn neg(&self) -> Point {
        Point { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    /// Addition against a precomputed [`CachedPoint`]: the same complete
    /// formulas as [`Point::add`] with the addend's `y±x` and `t·2d`
    /// factored out, saving two multiplications per addition — the form a
    /// table build uses, where each row's step is added seven times.
    fn add_cached(&self, other: &CachedPoint) -> Point {
        count_ec_op();
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.t2d);
        let dd = self.z.mul(&other.z);
        let dd = dd.add(&dd);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Addition against a table entry in affine Niels form: the formulas
    /// of [`Point::add_cached`] with the addend's z = 1, one multiplication
    /// fewer.
    fn add_affine(&self, other: &AffineNiels) -> Point {
        count_ec_op();
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.xy2d);
        let dd = self.z.add(&self.z);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        Point { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Scalar multiplication, MSB-first double-and-add over a 32-byte
    /// little-endian scalar: 256 doublings plus one addition per set bit,
    /// branching on every bit. The generic variable-base routine and the
    /// oracle the table walks are tested against; signing, verification and
    /// key derivation walk fixed-base tables instead.
    pub fn scalar_mul(&self, scalar: &[u8; 32]) -> Point {
        let mut acc = Point::identity();
        for byte in scalar.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.double();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// `[scalar]B` for the basepoint B, any 256-bit `scalar`: one signed
    /// radix-16 digit per row of the fixed-base table, 65 additions and no
    /// doubling, whatever the scalar. Each row entry is picked by a masked
    /// scan over the whole row, so the scalar shows in no branch and no
    /// address of this walk.
    pub fn basepoint_mul(scalar: &[u8; 32]) -> Point {
        basepoint_table().mul(scalar)
    }

    /// Compress to the 32-byte encoding: y with the sign of x in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zi = self.z.invert();
        let x = self.x.mul(&zi);
        let y = self.y.mul(&zi);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress a 32-byte encoding; `None` if it is not a curve point.
    pub fn decompress(enc: &[u8; 32]) -> Option<Point> {
        let sign = enc[31] >> 7;
        let y = Fe::from_bytes(enc); // masks the sign bit
                                     // x^2 = (y^2 - 1) / (d*y^2 + 1)
        let y2 = y.square();
        let u = y2.sub(&Fe::ONE);
        let v = D.mul(&y2).add(&Fe::ONE);
        // candidate root: x = u * v^3 * (u * v^7)^((p-5)/8)
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vx2 = v.mul(&x.square());
        if vx2 != u {
            if vx2 == u.neg() {
                x = x.mul(&Fe::sqrt_m1());
            } else {
                return None;
            }
        }
        if x.is_zero() && sign == 1 {
            return None; // -0 is not a valid encoding
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Some(Point { x, y, z: Fe::ONE, t: x.mul(&y) })
    }

    /// [`Point::decompress`] through a thread-local memo, for the R points
    /// of signatures (a public key's point lives in its fixed-base table).
    /// Decompression is a pure function whose cost is one field
    /// exponentiation, and one signature is checked by every party it
    /// passes on a thread — the portal that admits a version, the AEA or
    /// TFC that receives it, an auditor — so its R recurs. Invalid
    /// encodings are memoized as `None` too. The memo is bounded: it is
    /// cleared wholesale when full (verification working sets are far
    /// smaller than the cap, so eviction order does not matter).
    pub fn decompress_cached(enc: &[u8; 32]) -> Option<Point> {
        const CAP: usize = 4096;
        DECOMPRESS_MEMO.with(|m| {
            let mut m = m.borrow_mut();
            if let Some(hit) = m.get(enc) {
                return *hit;
            }
            let p = Point::decompress(enc);
            if m.len() >= CAP {
                m.clear();
            }
            m.insert(*enc, p);
            p
        })
    }

    /// The u-coordinate of this point on the birationally equivalent
    /// Montgomery curve, `u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y)`, as X25519
    /// encodes it. The identity (Z = Y) maps to 0, as the ladder's point at
    /// infinity does.
    pub(crate) fn to_montgomery_u(self) -> [u8; 32] {
        self.z.add(&self.y).mul(&self.z.sub(&self.y).invert()).to_bytes()
    }

    /// Affine equality check.
    pub fn eq_affine(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  <=>  x1*z2 == x2*z1, same for y.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

/// A point pre-arranged for repeated addition ("Niels coordinates"):
/// `(y+x, y−x, z, t·2d)`. Building one costs a single multiplication;
/// every subsequent [`Point::add_cached`] then runs two multiplications
/// cheaper than a generic add.
#[derive(Clone, Copy, Debug)]
struct CachedPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

impl CachedPoint {
    fn from_point(p: &Point) -> CachedPoint {
        CachedPoint { y_plus_x: p.y.add(&p.x), y_minus_x: p.y.sub(&p.x), z: p.z, t2d: p.t.mul(&D2) }
    }
}

/// A table entry: a point in Niels form normalised to z = 1 when its table
/// is built, `(y+x, y−x, 2d·x·y)` — 120 bytes, and one multiplication
/// cheaper to add ([`Point::add_affine`]) than a [`CachedPoint`].
#[derive(Clone, Copy, Debug)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl AffineNiels {
    /// The identity (0, 1).
    const IDENTITY: AffineNiels =
        AffineNiels { y_plus_x: Fe::ONE, y_minus_x: Fe::ONE, xy2d: Fe::ZERO };

    /// Negation swaps `y+x`/`y−x` and flips `2d·x·y`.
    fn neg(&self) -> AffineNiels {
        AffineNiels { y_plus_x: self.y_minus_x, y_minus_x: self.y_plus_x, xy2d: self.xy2d.neg() }
    }

    /// Masked move: become `other` where `mask` is all-ones.
    fn cmov(&mut self, other: &AffineNiels, mask: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, mask);
        self.y_minus_x.cmov(&other.y_minus_x, mask);
        self.xy2d.cmov(&other.xy2d, mask);
    }

    /// Every point in affine Niels form, for one inversion in all
    /// (Montgomery's trick: the running products of the z's, one inverse of
    /// the last, and back down multiplying each z out again).
    fn normalise(points: &[Point]) -> Vec<AffineNiels> {
        let mut prefix = Vec::with_capacity(points.len());
        let mut product = Fe::ONE;
        for p in points {
            prefix.push(product);
            product = product.mul(&p.z);
        }
        // complete formulas over valid points never give z = 0
        let mut inverse = product.invert();
        let mut out = vec![AffineNiels::IDENTITY; points.len()];
        for ((p, before), entry) in points.iter().zip(&prefix).zip(&mut out).rev() {
            let zi = inverse.mul(before);
            inverse = inverse.mul(&p.z);
            let (x, y) = (p.x.mul(&zi), p.y.mul(&zi));
            *entry =
                AffineNiels { y_plus_x: y.add(&x), y_minus_x: y.sub(&x), xy2d: x.mul(&y).mul(&D2) };
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Fixed-base tables
// ---------------------------------------------------------------------------

/// One row of a fixed-base table: `j·Q` for j = 1…8.
type Row = [AffineNiels; 8];

/// Signed radix-16 digits of a 256-bit scalar: 64 plus the carry window.
const DIGITS: usize = 256 / 4 + 1;

/// A fixed-base table of a point P for `[scalar]P` by table walk. With `w`
/// digits a row, row q holds `j·16^(w·q)·P` for j = 1…8, and a walk makes
/// `w` passes over the rows — pass r adds digit `w·q + r` out of row q —
/// with four doublings between passes: Horner's rule over the `w` interleaved
/// digit sequences. The basepoint table has `w` = 1 (65 rows, no doubling),
/// a key's table `w` = 4 (17 rows; 65 additions and 12 doublings).
pub(crate) struct Table {
    rows: Box<[Row]>,
    digits_per_row: usize,
}

impl Table {
    /// Build the table of `p` — 7 additions and 4w − 3 doublings a row,
    /// then one inversion for all entries — charged to no thread's
    /// [`ec_ops`]: the count stays a function of the work asked for, not of
    /// which call happened to build a table first.
    fn build(p: &Point, digits_per_row: usize) -> Table {
        let before = ec_ops();
        let rows = DIGITS.div_ceil(digits_per_row);
        let mut points: Vec<Point> = Vec::with_capacity(rows * 8);
        let mut base = *p; // 16^(w·q)·P
        for q in 0..rows {
            if q > 0 {
                // from 8·16^(w·(q−1))·P: 4w − 3 doublings
                base = points[points.len() - 1];
                for _ in 0..4 * digits_per_row - 3 {
                    base = base.double();
                }
            }
            let step = CachedPoint::from_point(&base);
            points.push(base);
            for _ in 1..8 {
                points.push(points[points.len() - 1].add_cached(&step));
            }
        }
        let entries = AffineNiels::normalise(&points);
        let rows = entries.chunks_exact(8).map(|row| std::array::from_fn(|j| row[j])).collect();
        EC_OPS.with(|c| c.set(before));
        Table { rows, digits_per_row }
    }

    /// `[scalar]P`, any 256-bit `scalar`: the same additions and doublings
    /// whatever the scalar, each entry picked by [`select`]'s masked scan.
    pub(crate) fn mul(&self, scalar: &[u8; 32]) -> Point {
        let digits = recode_signed(scalar);
        let w = self.digits_per_row;
        let mut acc = Point::identity();
        for pass in (0..w).rev() {
            if pass + 1 < w {
                for _ in 0..4 {
                    acc = acc.double();
                }
            }
            for (row, &digit) in self.rows.iter().zip(digits.iter().skip(pass).step_by(w)) {
                acc = acc.add_affine(&select(row, digit));
            }
        }
        acc
    }
}

/// The basepoint's table, behind [`Point::basepoint_mul`]: one row per
/// digit, 65 × 8 entries, 62 KB, built at first use.
fn basepoint_table() -> &'static Table {
    static TABLE: std::sync::OnceLock<Table> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| Table::build(&BASEPOINT, 1))
}

/// `digit·Q` out of the row of `j·Q`, for a signed radix-16 `digit` in
/// [−8, 8]. Every entry of the row is read and masked in or out, then the
/// result is negated under a mask, so neither the magnitude nor the sign of
/// the digit picks a branch or an address.
fn select(row: &Row, digit: i32) -> AffineNiels {
    let sign = digit >> 31; // 0 or −1
    let magnitude = ((digit ^ sign) - sign) as u64;
    let mut out = AffineNiels::IDENTITY;
    for (j, entry) in (1u64..).zip(row) {
        // all-ones iff magnitude == j: only then does x − 1 borrow into bit 63
        let hit = ((magnitude ^ j).wrapping_sub(1) >> 63).wrapping_neg();
        out.cmov(entry, hit);
    }
    let negated = out.neg();
    out.cmov(&negated, sign as u64);
    out
}

/// Tables a key-table memo holds before it is cleared wholesale: well above
/// the largest directory a deployment here runs (48 participants and the
/// designer), so a steady workload never rebuilds one, and at most
/// 256 × 16 KB per memo and thread.
pub(crate) const KEY_TABLES_CAP: usize = 256;

/// A thread's fixed-base tables of the public keys it meets, keyed by the
/// key's 32-byte encoding alone; an encoding that is no point is memoised
/// as `None`. Each build adds one to [`table_builds`].
pub(crate) struct KeyTables(std::cell::RefCell<std::collections::HashMap<[u8; 32], Option<Table>>>);

impl KeyTables {
    pub(crate) fn new() -> KeyTables {
        KeyTables(Default::default())
    }

    /// `walk` over the table of the point `decode` makes of `enc`, built on
    /// the first call for `enc`; `None` (and no walk) when it makes none.
    pub(crate) fn with<R>(
        &self,
        enc: &[u8; 32],
        decode: impl FnOnce() -> Option<Point>,
        walk: impl FnOnce(&Table) -> R,
    ) -> Option<R> {
        let mut memo = self.0.borrow_mut();
        if !memo.contains_key(enc) {
            if memo.len() >= KEY_TABLES_CAP {
                memo.clear();
            }
            let table = decode().map(|p| {
                TABLE_BUILDS.with(|c| c.set(c.get() + 1));
                Table::build(&p, 4)
            });
            memo.insert(*enc, table);
        }
        memo.get(enc)?.as_ref().map(walk)
    }

    /// Forget every table (the tests' mid-stream eviction).
    #[cfg(test)]
    pub(crate) fn clear(&self) {
        self.0.borrow_mut().clear();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.borrow().len()
    }
}

/// Key tables this thread has built so far (verification and sealing
/// alike). Like [`ec_ops`], a count that repeats for a fixed workload.
pub fn table_builds() -> u64 {
    TABLE_BUILDS.with(std::cell::Cell::get)
}

// ---------------------------------------------------------------------------
// Thread-local state and scalar recoding
// ---------------------------------------------------------------------------

thread_local! {
    /// Point operations (adds + doubles) performed by this thread — a
    /// deterministic, machine-independent cost measure for benches.
    static EC_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };

    /// Memoized decompressions for [`Point::decompress_cached`].
    static DECOMPRESS_MEMO: std::cell::RefCell<std::collections::HashMap<[u8; 32], Option<Point>>> =
        std::cell::RefCell::new(std::collections::HashMap::new());

    /// Key tables built by this thread, for [`table_builds`].
    static TABLE_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };

    /// The tables of the keys this thread verifies under, each of −A.
    static VERIFY_TABLES: KeyTables = KeyTables::new();
}

#[inline]
fn count_ec_op() {
    EC_OPS.with(|c| c.set(c.get() + 1));
}

/// Curve point operations (adds + doubles) performed by the current thread
/// so far. The counter is thread-local: single-threaded measurements are
/// byte-deterministic for a fixed workload, which is what the scaling bench
/// writes into `BENCH_scaling.json` instead of wall-clock noise.
pub fn ec_ops() -> u64 {
    EC_OPS.with(std::cell::Cell::get)
}

/// Reset the current thread's point-operation counter to zero.
pub fn ec_ops_reset() {
    EC_OPS.with(|c| c.set(0));
}

/// Recode a scalar into [`DIGITS`] signed radix-16 digits in `[−8, 8)`,
/// least-significant first. The extra digit absorbs the final carry, so
/// any 256-bit scalar recodes exactly.
fn recode_signed(s: &[u8; 32]) -> [i32; DIGITS] {
    let mut digits = [0i32; DIGITS];
    let mut carry = 0i32;
    for (w, d) in digits.iter_mut().enumerate() {
        let nibble = s.get(w / 2).map_or(0, |b| i32::from((b >> (4 * (w % 2))) & 15));
        let v = carry + nibble;
        // v in [0, 16]: borrow 16 from the next digit iff v ≥ 8, without
        // branching on v — the fixed-base walk recodes secrets
        carry = (v + 8) >> 4;
        *d = v - (carry << 4);
    }
    debug_assert_eq!(carry, 0, "a 256-bit scalar fits in the extra digit");
    digits
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L (byte-oriented, TweetNaCl style)
// ---------------------------------------------------------------------------

/// Reduce a 64-coefficient little-endian byte expansion modulo L into 32
/// bytes. Coefficients are signed i64 to absorb intermediate products.
fn mod_l(x: &mut [i64; 64]) -> [u8; 32] {
    let l: [i64; 32] = core::array::from_fn(|i| L[i] as i64);
    let mut carry: i64;
    for i in (32..64).rev() {
        carry = 0;
        let mut j = i - 32;
        while j < i - 12 {
            x[j] += carry - 16 * x[i] * l[j - (i - 32)];
            carry = (x[j] + 128) >> 8;
            x[j] -= carry << 8;
            j += 1;
        }
        x[j] += carry;
        x[i] = 0;
    }
    carry = 0;
    for j in 0..32 {
        x[j] += carry - (x[31] >> 4) * l[j];
        carry = x[j] >> 8;
        x[j] &= 255;
    }
    for j in 0..32 {
        x[j] -= carry * l[j];
    }
    let mut r = [0u8; 32];
    for i in 0..32 {
        if i + 1 < 64 {
            x[i + 1] += x[i] >> 8;
        }
        r[i] = (x[i] & 255) as u8;
    }
    r
}

/// Reduce a 64-byte value (e.g. a SHA-512 digest) modulo L.
pub fn scalar_reduce(wide: &[u8; 64]) -> [u8; 32] {
    let mut x: [i64; 64] = core::array::from_fn(|i| wide[i] as i64);
    mod_l(&mut x)
}

/// Compute (a·b + c) mod L over 32-byte little-endian scalars.
pub fn scalar_muladd(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let mut x = [0i64; 64];
    for i in 0..32 {
        x[i] = c[i] as i64;
    }
    for i in 0..32 {
        for j in 0..32 {
            x[i + j] += a[i] as i64 * b[j] as i64;
        }
    }
    mod_l(&mut x)
}

/// True if the 32-byte little-endian scalar is strictly less than L
/// (rejects malleable signatures).
fn scalar_is_canonical(s: &[u8; 32]) -> bool {
    for i in (0..32).rev() {
        if s[i] < L[i] {
            return true;
        }
        if s[i] > L[i] {
            return false;
        }
    }
    false // s == L
}

// ---------------------------------------------------------------------------
// Keys and signatures
// ---------------------------------------------------------------------------

/// An Ed25519 secret key: the 32-byte seed of RFC 8032 together with what
/// every signature needs from it — the clamped scalar `a` and the nonce
/// prefix (the two halves of SHA-512(seed)) and the public key `[a]B` —
/// expanded once, at construction.
#[derive(Clone)]
pub struct SecretKey {
    seed: [u8; 32],
    a: [u8; 32],
    prefix: [u8; 32],
    public: PublicKey,
}

/// An Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

/// A detached Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub [u8; 64]);

/// A secret/public keypair.
#[derive(Clone)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(..)")
    }
}

/// The two 32-byte halves of a 64-byte string — a signature's `R ‖ S`, a
/// SHA-512 digest's `a ‖ prefix`: the sizes are types, so the split cannot
/// fail.
fn halves(bytes: &[u8; 64]) -> ([u8; 32], [u8; 32]) {
    (std::array::from_fn(|i| bytes[i]), std::array::from_fn(|i| bytes[32 + i]))
}

fn clamp(mut a: [u8; 32]) -> [u8; 32] {
    a[0] &= 248;
    a[31] &= 127;
    a[31] |= 64;
    a
}

impl SecretKey {
    /// Construct from a 32-byte seed: one SHA-512 and one fixed-base
    /// multiplication, paid here so that [`SecretKey::sign`] and
    /// [`SecretKey::public_key`] pay neither.
    pub fn from_seed(seed: [u8; 32]) -> SecretKey {
        let (a, prefix) = halves(&crate::sha2::sha512(&seed));
        let a = clamp(a);
        let public = PublicKey(Point::basepoint_mul(&a).compress());
        SecretKey { seed, a, prefix, public }
    }

    /// Generate a fresh random secret key.
    pub fn generate() -> SecretKey {
        SecretKey::from_seed(crate::random_array32())
    }

    /// Expose the seed (for serialization into key stores).
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The matching public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Sign a message: the nonce hash, `R = [r]B`, the challenge hash.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = scalar_reduce(&h.finalize());

        let r_point = Point::basepoint_mul(&r).compress();
        let k = challenge(&r_point, &self.public.0, message);

        let s = scalar_muladd(&k, &self.a, &r);

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s);
        Signature(sig)
    }
}

impl Keypair {
    /// Generate a fresh random keypair.
    pub fn generate() -> Keypair {
        let secret = SecretKey::generate();
        let public = secret.public_key();
        Keypair { secret, public }
    }

    /// Deterministic keypair from a seed (tests, reproducible workloads).
    pub fn from_seed(seed: [u8; 32]) -> Keypair {
        let secret = SecretKey::from_seed(seed);
        let public = secret.public_key();
        Keypair { secret, public }
    }

    /// Sign a message with the secret half.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.secret.sign(message)
    }
}

/// The challenge `k = SHA-512(R ‖ A ‖ M) mod L`.
fn challenge(r_enc: &[u8; 32], key: &[u8; 32], message: &[u8]) -> [u8; 32] {
    let mut h = Sha512::new();
    h.update(r_enc);
    h.update(key);
    h.update(message);
    scalar_reduce(&h.finalize())
}

impl PublicKey {
    /// Verify `signature` over `message`: `[s]B + [k](−A) == R`, `[s]B`
    /// off the basepoint table and `[k](−A)` off the signer's own table,
    /// built the first time this thread meets the key — 143 point
    /// operations. Rejects non-canonical scalars and invalid point
    /// encodings.
    #[must_use]
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let (r_enc, s) = halves(&signature.0);
        if !scalar_is_canonical(&s) {
            return false;
        }
        let check = |neg_a: &Table| {
            let r = Point::decompress_cached(&r_enc)?;
            let k = challenge(&r_enc, &self.0, message);
            Some(Point::basepoint_mul(&s).add(&neg_a.mul(&k)).eq_affine(&r))
        };
        VERIFY_TABLES.with(|m| m.with(&self.0, || self.neg_point(), check)).flatten() == Some(true)
    }

    /// −A, the point the verification tables are built from.
    fn neg_point(&self) -> Option<Point> {
        Point::decompress(&self.0).map(|a| a.neg())
    }

    /// The verification this crate shipped before the table walks: two
    /// independent bit-by-bit ladders, `[S]B` against `R + [k]A`. Kept as
    /// the oracle [`PublicKey::verify`]'s verdicts are held against.
    #[cfg(test)]
    fn verify_two_ladders(&self, message: &[u8], signature: &Signature) -> bool {
        let (r_enc, s) = halves(&signature.0);
        if !scalar_is_canonical(&s) {
            return false;
        }
        let (Some(a), Some(r)) = (Point::decompress(&self.0), Point::decompress(&r_enc)) else {
            return false;
        };
        let k = challenge(&r_enc, &self.0, message);
        let lhs = Point::basepoint().scalar_mul(&s);
        let rhs = r.add(&a.scalar_mul(&k));
        lhs.eq_affine(&rhs)
    }

    /// Hex fingerprint (first 8 bytes) for logs and document attributes.
    pub fn fingerprint(&self) -> String {
        crate::hex::encode(&self.0[..8])
    }
}

/// One entry of [`verify_batch`]: message, signature, and the public key
/// the signature must verify under.
pub type BatchEntry<'a> = (&'a [u8], Signature, PublicKey);

/// True when every entry verifies, checked one signature at a time with
/// [`PublicKey::verify`]; an empty set is vacuously valid. A shell kept for
/// the end-to-end harness's per-layer probe, which still calls it by name.
#[must_use]
pub fn verify_batch(entries: &[BatchEntry<'_>]) -> bool {
    entries.iter().all(|(m, s, k)| k.verify(m, s))
}

impl Signature {
    /// Parse from raw bytes.
    pub fn from_bytes(b: &[u8]) -> Option<Signature> {
        if b.len() != 64 {
            return None;
        }
        let mut s = [0u8; 64];
        s.copy_from_slice(b);
        Some(Signature(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let seed = hex::decode_array::<32>(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        )
        .unwrap();
        let kp = Keypair::from_seed(seed);
        assert_eq!(
            hex::encode(&kp.public.0),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = kp.sign(b"");
        assert_eq!(
            hex::encode(&sig.0),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
                .replace(char::is_whitespace, "")
        );
        assert!(kp.public.verify(b"", &sig));
    }

    /// RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test2() {
        let seed = hex::decode_array::<32>(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        )
        .unwrap();
        let kp = Keypair::from_seed(seed);
        assert_eq!(
            hex::encode(&kp.public.0),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = kp.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig.0),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
                .replace(char::is_whitespace, "")
        );
        assert!(kp.public.verify(&[0x72], &sig));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed([42u8; 32]);
        let msg = b"workflow execution result of activity A3";
        let sig = kp.sign(msg);
        assert!(kp.public.verify(msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed([1u8; 32]);
        let sig = kp.sign(b"original");
        assert!(!kp.public.verify(b"0riginal", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed([2u8; 32]);
        let mut sig = kp.sign(b"message");
        sig.0[10] ^= 0x40;
        assert!(!kp.public.verify(b"message", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed([3u8; 32]);
        let kp2 = Keypair::from_seed([4u8; 32]);
        let sig = kp1.sign(b"message");
        assert!(!kp2.public.verify(b"message", &sig));
    }

    /// `s + L` over 256 bits: the same residue mod L, non-canonically encoded.
    fn plus_l(mut s: [u8; 32]) -> [u8; 32] {
        let mut carry = 0u16;
        for i in 0..32 {
            let v = s[i] as u16 + L[i] as u16 + carry;
            s[i] = v as u8;
            carry = v >> 8;
        }
        s
    }

    #[test]
    fn non_canonical_s_rejected() {
        let kp = Keypair::from_seed([5u8; 32]);
        let sig = kp.sign(b"m");
        // Forge S' = S + L (same value mod L, non-canonical encoding).
        let s = plus_l(sig.0[32..].try_into().unwrap());
        let mut forged = sig.0;
        forged[32..].copy_from_slice(&s);
        assert!(!kp.public.verify(b"m", &Signature(forged)));
    }

    #[test]
    fn identity_and_basepoint_ops() {
        let b = Point::basepoint();
        let id = Point::identity();
        assert!(b.add(&id).eq_affine(&b));
        assert!(b.add(&b).eq_affine(&b.double()));
        // B + (−B) = identity
        assert!(b.add(&b.neg()).eq_affine(&id));
    }

    #[test]
    fn basepoint_has_order_l() {
        // [L]B should be the identity.
        let lb = Point::basepoint().scalar_mul(&L);
        assert!(lb.eq_affine(&Point::identity()));
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let kp = Keypair::from_seed([9u8; 32]);
        let p = Point::decompress(&kp.public.0).unwrap();
        assert_eq!(p.compress(), kp.public.0);
    }

    #[test]
    fn decompress_rejects_garbage() {
        // y = 2 is not on the curve for either sign.
        let mut enc = [0u8; 32];
        enc[0] = 2;
        assert!(Point::decompress(&enc).is_none());
    }

    #[test]
    fn scalar_reduce_of_small_value_is_identity() {
        let mut wide = [0u8; 64];
        wide[0] = 77;
        let r = scalar_reduce(&wide);
        assert_eq!(r[0], 77);
        assert!(r[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn scalar_reduce_of_l_is_zero() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&L);
        assert_eq!(scalar_reduce(&wide), [0u8; 32]);
    }

    #[test]
    fn scalar_muladd_matches_group_law() {
        // (2*3 + 4) mod L = 10
        let two = {
            let mut s = [0u8; 32];
            s[0] = 2;
            s
        };
        let three = {
            let mut s = [0u8; 32];
            s[0] = 3;
            s
        };
        let four = {
            let mut s = [0u8; 32];
            s[0] = 4;
            s
        };
        let r = scalar_muladd(&two, &three, &four);
        assert_eq!(r[0], 10);
        assert!(r[1..].iter().all(|&b| b == 0));
    }

    /// RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test3() {
        let seed = hex::decode_array::<32>(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        )
        .unwrap();
        let kp = Keypair::from_seed(seed);
        assert_eq!(
            hex::encode(&kp.public.0),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xaf, 0x82];
        let sig = kp.sign(&msg);
        assert_eq!(
            hex::encode(&sig.0),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
                .replace(char::is_whitespace, "")
        );
        assert!(kp.public.verify(&msg, &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let kp = Keypair::from_seed([77u8; 32]);
        assert_eq!(kp.sign(b"same message"), kp.sign(b"same message"));
    }

    #[test]
    fn verify_rejects_swapped_r_s() {
        let kp = Keypair::from_seed([8u8; 32]);
        let sig = kp.sign(b"m");
        let mut swapped = [0u8; 64];
        swapped[..32].copy_from_slice(&sig.0[32..]);
        swapped[32..].copy_from_slice(&sig.0[..32]);
        assert!(!kp.public.verify(b"m", &Signature(swapped)));
    }

    #[test]
    fn large_message_roundtrip() {
        let kp = Keypair::from_seed([9u8; 32]);
        let msg = vec![0x5au8; 100_000];
        let sig = kp.sign(&msg);
        assert!(kp.public.verify(&msg, &sig));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = Keypair::from_seed([6u8; 32]);
        let b = Keypair::from_seed([7u8; 32]);
        assert_ne!(a.public, b.public);
    }

    // --- curve constants: each equals the derivation it used to be ---

    #[test]
    fn curve_constants_match_their_derivations() {
        let d = Fe::from_u64(121665).neg().mul(&Fe::from_u64(121666).invert());
        assert_eq!(D, d, "d = −121665/121666");
        assert_eq!(D2, d.add(&d), "2d");
        let mut enc = [0x66u8; 32];
        enc[0] = 0x58;
        let b = Point::decompress(&enc).expect("basepoint encoding is valid");
        assert_eq!((b.x, b.y, b.z, b.t), (BASEPOINT.x, BASEPOINT.y, BASEPOINT.z, BASEPOINT.t));
        assert_eq!(Point::basepoint().compress(), enc);
    }

    // --- the kernel against its oracle, the bit-by-bit ladder ---

    const ZERO: [u8; 32] = [0u8; 32];
    const ONES: [u8; 32] = [0xffu8; 32];
    /// A point of order 8, compressed.
    const ORDER8: &str = "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05";

    /// L − 1, L and 2^255 − 1: the scalars around the group order and the
    /// top of the clamped range.
    fn edge_scalars() -> Vec<[u8; 32]> {
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        let mut top = ONES;
        top[31] = 0x7f;
        vec![ZERO, scalar(1), l_minus_1, L, top, ONES, clamp(ZERO), clamp(ONES)]
    }

    /// The identity and a point each of order 2, 4 and 8.
    fn small_order_points() -> [Point; 4] {
        let order8 = Point::decompress(&hex::decode_array(ORDER8).unwrap()).expect("on the curve");
        let (order4, order2) = (order8.double(), order8.double().double());
        let id = Point::identity();
        assert!(!order2.eq_affine(&id) && order2.double().eq_affine(&id));
        [Point::identity(), order2, order4, order8]
    }

    /// The small-order points, and each of them shifted by a prime-order
    /// point (mixed order).
    fn edge_points() -> Vec<Point> {
        let small = small_order_points();
        let shifted = small.map(|t| t.add(&Point::basepoint().scalar_mul(&scalar(0xdead_beef))));
        small.into_iter().chain(shifted).collect()
    }

    fn arb_scalar() -> impl Strategy<Value = [u8; 32]> {
        proptest::array::uniform32(any::<u8>())
    }

    #[test]
    fn basepoint_mul_matches_ladder_on_edge_scalars() {
        for s in edge_scalars() {
            let expect = Point::basepoint().scalar_mul(&s);
            assert!(Point::basepoint_mul(&s).eq_affine(&expect), "s = {}", hex::encode(&s));
        }
        assert!(Point::basepoint_mul(&L).eq_affine(&Point::identity()));
    }

    #[test]
    fn basepoint_mul_costs_the_same_for_every_scalar() {
        for s in edge_scalars() {
            ec_ops_reset();
            let _ = Point::basepoint_mul(&s);
            assert_eq!(ec_ops(), 65, "one addition per table row, s = {}", hex::encode(&s));
        }
    }

    #[test]
    fn key_table_walk_matches_ladder_on_edge_cases() {
        for p in edge_points() {
            let table = Table::build(&p, 4);
            for a in edge_scalars() {
                ec_ops_reset();
                let got = table.mul(&a);
                assert_eq!(ec_ops(), 77, "65 additions and 12 doublings");
                assert!(got.eq_affine(&p.scalar_mul(&a)), "a = {}", hex::encode(&a));
            }
        }
    }

    #[test]
    fn a_table_is_17_rows_of_8_entries_of_120_bytes() {
        let table = Table::build(&Point::basepoint(), 4);
        assert_eq!(table.rows.len(), 17);
        assert_eq!(std::mem::size_of_val(&*table.rows), 17 * 8 * 120);
        assert_eq!(basepoint_table().rows.len(), 65);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_basepoint_mul_matches_ladder(s in arb_scalar()) {
            let expect = Point::basepoint().scalar_mul(&s);
            prop_assert!(Point::basepoint_mul(&s).eq_affine(&expect));
            let clamped = clamp(s);
            let expect = Point::basepoint().scalar_mul(&clamped);
            prop_assert!(Point::basepoint_mul(&clamped).eq_affine(&expect));
        }

        #[test]
        fn prop_key_table_walk_matches_ladder(
            a in arb_scalar(),
            p in arb_scalar(),
            torsion in 0usize..4,
        ) {
            // a random prime-order point, plus a small-order one (0: none)
            let point = Point::basepoint_mul(&p).add(&small_order_points()[torsion]);
            let table = Table::build(&point, 4);
            prop_assert!(table.mul(&a).eq_affine(&point.scalar_mul(&a)));
            prop_assert!(table.mul(&clamp(a)).eq_affine(&point.scalar_mul(&clamp(a))));
        }
    }

    // --- no verdict changed: the new verify against the two-ladder one ---

    /// Both verifiers on one input; returns the (common) verdict.
    fn same_verdict(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let (new, old) = (pk.verify(msg, sig), pk.verify_two_ladders(msg, sig));
        assert_eq!(
            new,
            old,
            "verdicts differ: key {} sig {} msg {}",
            hex::encode(&pk.0),
            hex::encode(&sig.0),
            hex::encode(msg)
        );
        new
    }

    #[test]
    fn verdicts_equal_on_every_single_bit_flip() {
        let kp = Keypair::from_seed([0x5e; 32]);
        let msg = b"CER S3: result".to_vec();
        let sig = kp.sign(&msg);
        assert!(same_verdict(&kp.public, &msg, &sig));
        // R (bits 0..256) and s (bits 256..512)
        for bit in 0..512 {
            let mut forged = sig;
            forged.0[bit / 8] ^= 1 << (bit % 8);
            assert!(!same_verdict(&kp.public, &msg, &forged), "signature bit {bit}");
        }
        for bit in 0..256 {
            let mut key = kp.public;
            key.0[bit / 8] ^= 1 << (bit % 8);
            assert!(!same_verdict(&key, &msg, &sig), "key bit {bit}");
        }
        for bit in 0..msg.len() * 8 {
            let mut other = msg.clone();
            other[bit / 8] ^= 1 << (bit % 8);
            assert!(!same_verdict(&kp.public, &other, &sig), "message bit {bit}");
        }
    }

    #[test]
    fn verdicts_equal_on_out_of_range_scalars_and_odd_encodings() {
        let kp = Keypair::from_seed([0x6f; 32]);
        let msg = b"m";
        let sig = kp.sign(msg);
        let with_s = |s: [u8; 32]| {
            let mut forged = sig;
            forged.0[32..].copy_from_slice(&s);
            forged
        };
        let with_r = |r: [u8; 32]| {
            let mut forged = sig;
            forged.0[..32].copy_from_slice(&r);
            forged
        };
        // s = L, s = s + L (same residue, non-canonical), s = 2^256 − 1
        let s: [u8; 32] = sig.0[32..].try_into().unwrap();
        for s in [L, plus_l(s), ONES] {
            assert!(!same_verdict(&kp.public, msg, &with_s(s)));
        }

        // y ≥ p: p + 1 decodes as y = 1 (the identity), p as y = 0 (order 4)
        let mut p_plus_1 = ONES;
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        let mut p_enc = p_plus_1;
        p_enc[0] = 0xed;
        // small order, canonically encoded: identity, order 2, order 4, order 8
        let mut identity = ZERO;
        identity[0] = 1;
        let mut order2 = ONES;
        order2[0] = 0xec;
        order2[31] = 0x7f;
        let order8: [u8; 32] = hex::decode_array(ORDER8).unwrap();
        // not a point at all: y = 2
        let mut non_point = ZERO;
        non_point[0] = 2;
        let odd = [p_plus_1, p_enc, identity, order2, ZERO, order8, non_point];

        // each as A (and the honest key), against the honest signature and
        // against every (R, s) with R odd and s zero or honest
        for a in odd.iter().chain([&kp.public.0]) {
            same_verdict(&PublicKey(*a), msg, &sig);
            for r in odd {
                for s in [ZERO, s] {
                    let mut forged = with_r(r);
                    forged.0[32..].copy_from_slice(&s);
                    same_verdict(&PublicKey(*a), msg, &forged);
                }
            }
        }
        // and some of those are accepted, by both: under A = identity the
        // equation is [s]B == R whatever the message, in either encoding
        let mut forged = [0u8; 64];
        forged[..32].copy_from_slice(&identity);
        assert!(same_verdict(&PublicKey(identity), b"anything", &Signature(forged)));
        assert!(same_verdict(&PublicKey(p_plus_1), b"anything", &Signature(forged)));
        let r = Point::basepoint_mul(&scalar(7)).compress();
        forged[..32].copy_from_slice(&r);
        forged[32] = 7;
        assert!(same_verdict(&PublicKey(p_plus_1), b"anything else", &Signature(forged)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_verdicts_equal_on_random_keys_and_corruption(
            seed in arb_scalar(),
            msg in proptest::collection::vec(any::<u8>(), 0..48),
            flip in 0usize..(96 * 8 * 2),
        ) {
            let kp = Keypair::from_seed(seed);
            let sig = kp.sign(&msg);
            prop_assert!(same_verdict(&kp.public, &msg, &sig));
            // half of the cases: one bit of (R ‖ s ‖ A) flipped
            let (mut sig, mut key) = (sig, kp.public);
            if flip < 96 * 8 {
                match flip / 8 {
                    byte @ 0..64 => sig.0[byte] ^= 1 << (flip % 8),
                    byte => key.0[byte - 64] ^= 1 << (flip % 8),
                }
                prop_assert!(!same_verdict(&key, &msg, &sig));
            }
        }
    }

    /// Encodings a hostile signer or relay might send as A or R: small
    /// order, y ≥ p, no point at all.
    fn hostile_encodings() -> Vec<[u8; 32]> {
        let mut p_plus_1 = ONES;
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        let mut p_enc = p_plus_1;
        p_enc[0] = 0xed;
        let mut identity = ZERO;
        identity[0] = 1;
        let mut order2 = ONES;
        order2[0] = 0xec;
        order2[31] = 0x7f;
        let mut non_point = ZERO;
        non_point[0] = 2;
        let order8: [u8; 32] = hex::decode_array(ORDER8).unwrap();
        let mut negative_zero = identity;
        negative_zero[31] |= 0x80;
        vec![p_plus_1, p_enc, identity, order2, ZERO, order8, non_point, negative_zero]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_verdicts_equal_on_hostile_encodings(
            seed in arb_scalar(),
            msg in proptest::collection::vec(any::<u8>(), 0..32),
            which in 0usize..8,
            slot in 0usize..3,
            random in arb_scalar(),
        ) {
            let kp = Keypair::from_seed(seed);
            let sig = kp.sign(&msg);
            // the hostile encoding, or 32 random bytes, as A, as R, or as
            // both (a signature whose R is its own key)
            let enc = if which < 7 { hostile_encodings()[which] } else { random };
            let (mut key, mut forged) = (kp.public, sig);
            if slot != 1 {
                key = PublicKey(enc);
            }
            if slot != 0 {
                forged.0[..32].copy_from_slice(&enc);
            }
            same_verdict(&key, &msg, &forged);
            same_verdict(&key, &msg, &sig);
        }
    }

    #[test]
    fn clearing_the_key_tables_mid_stream_changes_no_verdict() {
        let (msgs, mut sigs, mut keys) = signed_set(6);
        sigs[1].0[3] ^= 1;
        keys[4] = PublicKey(hostile_encodings()[6]);
        keys.push(PublicKey(hostile_encodings()[2]));
        let mut identity_sig = [0u8; 64];
        identity_sig[..32].copy_from_slice(&hostile_encodings()[2]);
        sigs.push(Signature(identity_sig));
        let msgs: Vec<Vec<u8>> = msgs.into_iter().chain([b"anything".to_vec()]).collect();
        let verdicts = |clear_every: usize| -> Vec<bool> {
            VERIFY_TABLES.with(KeyTables::clear);
            (0..3 * msgs.len())
                .map(|i| {
                    if clear_every > 0 && i % clear_every == 0 {
                        VERIFY_TABLES.with(KeyTables::clear);
                    }
                    let j = i % msgs.len();
                    keys[j].verify(&msgs[j], &sigs[j])
                })
                .collect()
        };
        let steady = verdicts(0);
        assert_eq!(&steady[..7], [true, false, true, true, false, true, true]);
        for every in [1, 2, 5] {
            assert_eq!(verdicts(every), steady, "cleared every {every}");
        }
    }

    #[test]
    fn the_key_table_memo_never_outgrows_its_cap() {
        let tables = KeyTables::new();
        for i in 0..=KEY_TABLES_CAP as u32 {
            let mut enc = [0u8; 32];
            enc[..4].copy_from_slice(&i.to_le_bytes());
            tables.with(&enc, || None, |_| ());
            assert!(tables.len() <= KEY_TABLES_CAP, "after {i}");
        }
        assert_eq!(tables.len(), 1, "cleared wholesale at the cap");
    }

    #[test]
    fn a_verify_is_143_point_operations_and_a_build_is_counted_apart() {
        let kp = Keypair::from_seed([0x71; 32]);
        let sig = kp.sign(b"m");
        let builds = table_builds();
        for round in 0..3 {
            ec_ops_reset();
            assert!(kp.public.verify(b"m", &sig));
            assert_eq!(ec_ops(), 65 + 77 + 1, "round {round}");
        }
        assert_eq!(table_builds() - builds, 1, "one build for the key");
    }

    // --- secrets stay out of Debug ---

    #[test]
    fn debug_prints_no_key_material() {
        let secret = SecretKey::from_seed([0x3c; 32]);
        let shown = format!("{secret:?} {secret:#?}");
        for field in [&secret.seed, &secret.a, &secret.prefix] {
            assert!(!shown.contains(&hex::encode(field)));
            assert!(!shown.contains(&format!("{field:?}")));
        }
        assert!(!shown.contains(|c: char| c.is_ascii_digit()), "not even one byte: {shown}");
    }

    // --- scalar recoding ---

    fn scalar(v: u64) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&v.to_le_bytes());
        s
    }

    #[test]
    fn recode_signed_roundtrip() {
        let hashed = (0u8..8).map(|seed| scalar_reduce(&crate::sha2::sha512(&[seed, 4])));
        for s in hashed.chain(edge_scalars()) {
            let digits = recode_signed(&s);
            assert!(digits.iter().all(|d| (-8..8).contains(d)), "{digits:?}");
            // Σ dᵢ·16^i back into bytes: two digits a byte, then the signed
            // carries up; anything past 256 bits lands in the 33rd byte
            let mut acc = [0i64; 33];
            for (i, &d) in digits.iter().enumerate() {
                acc[i / 2] += i64::from(d) << (4 * (i % 2));
            }
            let mut carry = 0i64;
            let mut bytes = [0u8; 32];
            for (i, a) in acc.iter().enumerate() {
                let v = a + carry;
                carry = v >> 8;
                if i < 32 {
                    bytes[i] = (v & 0xff) as u8;
                } else {
                    assert_eq!(v, 0, "no overflow past 256 bits");
                }
            }
            assert_eq!(bytes, s, "s = {}", hex::encode(&s));
        }
    }

    #[test]
    fn verify_batch_is_every_signature_verifying() {
        let (msgs, mut sigs, keys) = signed_set(3);
        let entries = |sigs: &[Signature]| -> Vec<BatchEntry<'_>> {
            msgs.iter().zip(sigs).zip(&keys).map(|((m, s), k)| (m.as_slice(), *s, *k)).collect()
        };
        assert!(verify_batch(&[]));
        assert!(verify_batch(&entries(&sigs)));
        sigs[2].0[0] ^= 1;
        assert!(!verify_batch(&entries(&sigs)));
    }

    // --- signed sets ---

    fn signed_set(n: usize) -> (Vec<Vec<u8>>, Vec<Signature>, Vec<PublicKey>) {
        let mut msgs = Vec::new();
        let mut sigs = Vec::new();
        let mut keys = Vec::new();
        for i in 0..n {
            let kp = Keypair::from_seed([i as u8 + 1; 32]);
            let msg = format!("activity A{i} execution result").into_bytes();
            sigs.push(kp.sign(&msg));
            keys.push(kp.public);
            msgs.push(msg);
        }
        (msgs, sigs, keys)
    }
}
