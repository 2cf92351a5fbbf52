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
fn d() -> Fe {
    use std::sync::OnceLock;
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| Fe::from_u64(121665).neg().mul(&Fe::from_u64(121666).invert()))
}

/// 2·d, used by the addition formulas.
fn d2() -> Fe {
    use std::sync::OnceLock;
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| d().add(&d()))
}

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The standard basepoint B (y = 4/5, x positive), decoded from its
    /// well-known compressed form `0x58 0x66…66`.
    pub fn basepoint() -> Point {
        use std::sync::OnceLock;
        static CELL: OnceLock<Point> = OnceLock::new();
        *CELL.get_or_init(|| {
            let mut enc = [0x66u8; 32];
            enc[0] = 0x58;
            Point::decompress(&enc).expect("basepoint encoding is valid")
        })
    }

    /// Point addition (complete formulas for a = −1 twisted Edwards;
    /// "add-2008-hwcd-3").
    pub fn add(&self, other: &Point) -> Point {
        count_ec_op();
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&d2()).mul(&other.t);
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
    /// factored out, saving two multiplications per addition — the form
    /// the multi-scalar bucket accumulation uses, where each input point
    /// is added many times.
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

    /// Scalar multiplication, MSB-first double-and-add over a 32-byte
    /// little-endian scalar.
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
        let v = d().mul(&y2).add(&Fe::ONE);
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

    /// [`Point::decompress`] through a thread-local memo. Decompression is
    /// a pure function whose cost is one field exponentiation, and
    /// verification workloads decode the same encodings over and over —
    /// every hop of a cascade re-checks the whole prefix, so each key and
    /// each signature's R point recurs on every later hop. Invalid
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

    /// Affine equality check.
    pub fn eq_affine(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  <=>  x1*z2 == x2*z1, same for y.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }

    /// True if this is the identity element (0, 1) — x = 0 and y = z in
    /// projective coordinates. No inversion needed.
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y.sub(&self.z).is_zero()
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
        CachedPoint {
            y_plus_x: p.y.add(&p.x),
            y_minus_x: p.y.sub(&p.x),
            z: p.z,
            t2d: p.t.mul(&d2()),
        }
    }

    /// Negation swaps `y+x`/`y−x` and flips `t·2d`.
    fn neg(&self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-scalar multiplication (the batch-verification workhorse)
// ---------------------------------------------------------------------------

thread_local! {
    /// Point operations (adds + doubles) performed by this thread — a
    /// deterministic, machine-independent cost measure for benches.
    static EC_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };

    /// Memoized decompressions for [`Point::decompress_cached`].
    static DECOMPRESS_MEMO: std::cell::RefCell<std::collections::HashMap<[u8; 32], Option<Point>>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
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

/// Extract `width` bits of a little-endian scalar starting at bit `pos`.
fn scalar_bits(s: &[u8; 32], pos: usize, width: usize) -> u32 {
    let mut v: u32 = 0;
    for i in 0..width {
        let bit = pos + i;
        if bit < 256 {
            v |= u32::from((s[bit / 8] >> (bit % 8)) & 1) << i;
        }
    }
    v
}

/// Recode a scalar into base-2^c signed digits in `[−2^(c−1), 2^(c−1))`,
/// least-significant first. One extra window absorbs the final carry, so
/// any 256-bit scalar recodes exactly.
fn recode_signed(s: &[u8; 32], c: usize) -> Vec<i32> {
    let windows = 256usize.div_ceil(c) + 1;
    let half = 1i32 << (c - 1);
    let full = 1i32 << c;
    let mut digits = vec![0i32; windows];
    let mut carry = 0i32;
    for (w, d) in digits.iter_mut().enumerate() {
        let mut v = carry + scalar_bits(s, w * c, c) as i32;
        if v >= half {
            v -= full;
            carry = 1;
        } else {
            carry = 0;
        }
        *d = v;
    }
    debug_assert_eq!(carry, 0, "a 256-bit scalar fits in the extra window");
    digits
}

/// Σ `scalars[i]·points[i]` via a signed-digit Pippenger bucket method: all
/// points share one run of doublings per window, so the per-point cost is a
/// handful of additions instead of a full double-and-add ladder. This is
/// what makes batch signature verification cheaper than checking each
/// signature alone.
pub fn multiscalar_mul(scalars: &[[u8; 32]], points: &[Point]) -> Point {
    assert_eq!(scalars.len(), points.len(), "multiscalar_mul: length mismatch");
    let n = points.len();
    if n == 0 {
        return Point::identity();
    }
    // Window size tuned for the bucket-aggregation trade-off: larger
    // windows amortize better once there are enough points to fill them.
    let c: usize = match n {
        1..=7 => 4,
        8..=99 => 5,
        _ => 6,
    };
    let digits: Vec<Vec<i32>> = scalars.iter().map(|s| recode_signed(s, c)).collect();
    let windows = digits[0].len();
    let negs: Vec<Point> = points.iter().map(Point::neg).collect();
    // Niels form of every input (and its negation): one multiplication
    // each up front, two saved on every bucket accumulation below.
    let cached: Vec<CachedPoint> = points.iter().map(CachedPoint::from_point).collect();
    let cached_negs: Vec<CachedPoint> = cached.iter().map(CachedPoint::neg).collect();
    let half = 1usize << (c - 1);

    let mut acc: Option<Point> = None;
    let mut buckets: Vec<Option<Point>> = vec![None; half];
    for w in (0..windows).rev() {
        if let Some(a) = &acc {
            let mut d = *a;
            for _ in 0..c {
                d = d.double();
            }
            acc = Some(d);
        }
        buckets.fill(None);
        for i in 0..n {
            let d = digits[i][w];
            let (idx, first, rest) = match d.cmp(&0) {
                std::cmp::Ordering::Greater => ((d - 1) as usize, &points[i], &cached[i]),
                std::cmp::Ordering::Less => ((-d - 1) as usize, &negs[i], &cached_negs[i]),
                std::cmp::Ordering::Equal => continue,
            };
            buckets[idx] = Some(match &buckets[idx] {
                Some(b) => b.add_cached(rest),
                None => *first,
            });
        }
        // Σ (j+1)·buckets[j] via running partial sums, highest bucket first.
        let mut running: Option<Point> = None;
        let mut total: Option<Point> = None;
        for b in buckets.iter().rev() {
            if let Some(p) = b {
                running = Some(match &running {
                    Some(r) => r.add(p),
                    None => *p,
                });
            }
            if let Some(r) = &running {
                total = Some(match &total {
                    Some(t) => t.add(r),
                    None => *r,
                });
            }
        }
        if let Some(t) = total {
            acc = Some(match &acc {
                Some(a) => a.add(&t),
                None => t,
            });
        }
    }
    acc.unwrap_or_else(Point::identity)
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

/// An Ed25519 secret key (the 32-byte seed of RFC 8032).
#[derive(Clone)]
pub struct SecretKey {
    seed: [u8; 32],
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

fn clamp(mut a: [u8; 32]) -> [u8; 32] {
    a[0] &= 248;
    a[31] &= 127;
    a[31] |= 64;
    a
}

impl SecretKey {
    /// Construct from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> SecretKey {
        SecretKey { seed }
    }

    /// Generate a fresh random secret key.
    pub fn generate() -> SecretKey {
        SecretKey { seed: crate::random_array32() }
    }

    /// Expose the seed (for serialization into key stores).
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// Expand the seed into (clamped scalar a, prefix).
    fn expand(&self) -> ([u8; 32], [u8; 32]) {
        let h = crate::sha2::sha512(&self.seed);
        let mut a = [0u8; 32];
        a.copy_from_slice(&h[..32]);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        (clamp(a), prefix)
    }

    /// Derive the matching public key.
    pub fn public_key(&self) -> PublicKey {
        let (a, _) = self.expand();
        PublicKey(Point::basepoint().scalar_mul(&a).compress())
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let (a, prefix) = self.expand();
        let public = self.public_key();

        let mut h = Sha512::new();
        h.update(&prefix);
        h.update(message);
        let r = scalar_reduce(&h.finalize());

        let r_point = Point::basepoint().scalar_mul(&r).compress();

        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&public.0);
        h.update(message);
        let k = scalar_reduce(&h.finalize());

        let s = scalar_muladd(&k, &a, &r);

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

impl PublicKey {
    /// Verify `signature` over `message`. Rejects non-canonical scalars and
    /// invalid point encodings.
    #[must_use]
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let r_enc: [u8; 32] = signature.0[..32].try_into().expect("split");
        let s: [u8; 32] = signature.0[32..].try_into().expect("split");
        if !scalar_is_canonical(&s) {
            return false;
        }
        let a = match Point::decompress_cached(&self.0) {
            Some(p) => p,
            None => return false,
        };
        let r = match Point::decompress_cached(&r_enc) {
            Some(p) => p,
            None => return false,
        };
        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&self.0);
        h.update(message);
        let k = scalar_reduce(&h.finalize());

        // Check [S]B == R + [k]A.
        let lhs = Point::basepoint().scalar_mul(&s);
        let rhs = r.add(&a.scalar_mul(&k));
        lhs.eq_affine(&rhs)
    }

    /// Hex fingerprint (first 8 bytes) for logs and document attributes.
    pub fn fingerprint(&self) -> String {
        crate::hex::encode(&self.0[..8])
    }
}

// ---------------------------------------------------------------------------
// Batch verification
// ---------------------------------------------------------------------------

/// One batch-verification input: message, signature, and the public key the
/// signature must verify under.
pub type BatchEntry<'a> = (&'a [u8], Signature, PublicKey);

/// Verify a batch of independent Ed25519 signatures with one shared
/// multi-scalar multiplication.
///
/// Instead of checking `[Sᵢ]B == Rᵢ + [kᵢ]Aᵢ` once per signature, the batch
/// draws a deterministic 128-bit coefficient `zᵢ` per entry and checks the
/// aggregate
///
/// ```text
/// [Σ zᵢ·sᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢ·kᵢ]Aᵢ == identity
/// ```
///
/// in a single [`multiscalar_mul`] over `2n+1` points, whose shared
/// doublings make the per-signature cost a few point additions. The
/// coefficients are derived by hashing the whole batch transcript (every
/// `Rᵢ`, `Aᵢ`, `sᵢ` and the message-binding scalar `kᵢ`), so an adversary
/// cannot pick signatures whose defects cancel without breaking SHA-512 —
/// the standard deterministic replacement for a random-coefficient batch.
///
/// Verdicts agree with [`PublicKey::verify`]: if every signature is
/// individually valid the aggregate holds identically, and a `false` here
/// means at least one entry is invalid — re-check entries individually to
/// identify the culprit (that is what `dra4wfms-core`'s verifier does on
/// fallback). An empty batch is vacuously valid; a singleton delegates to
/// the per-signature check.
#[must_use]
pub fn verify_batch(entries: &[BatchEntry<'_>]) -> bool {
    let n = entries.len();
    if n == 0 {
        return true;
    }
    if n == 1 {
        let (msg, sig, pk) = &entries[0];
        return pk.verify(msg, sig);
    }

    // Decode every entry, rejecting exactly what the single verifier
    // rejects (non-canonical s, invalid point encodings).
    let mut s_scalars = Vec::with_capacity(n);
    let mut r_points = Vec::with_capacity(n);
    let mut a_points = Vec::with_capacity(n);
    let mut ks = Vec::with_capacity(n);
    for (msg, sig, pk) in entries {
        let r_enc: [u8; 32] = sig.0[..32].try_into().expect("split");
        let s: [u8; 32] = sig.0[32..].try_into().expect("split");
        if !scalar_is_canonical(&s) {
            return false;
        }
        let Some(a) = Point::decompress_cached(&pk.0) else {
            return false;
        };
        let Some(r) = Point::decompress_cached(&r_enc) else {
            return false;
        };
        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&pk.0);
        h.update(msg);
        ks.push(scalar_reduce(&h.finalize()));
        s_scalars.push(s);
        r_points.push(r);
        a_points.push(a);
    }

    // Batch transcript seed: binds n and every signature + key; the
    // per-entry kᵢ (hashed in below) binds the messages.
    let mut seed_h = Sha512::new();
    seed_h.update(b"dra4wfms.ed25519.batchv1");
    seed_h.update(&(n as u64).to_le_bytes());
    for (_, sig, pk) in entries {
        seed_h.update(&sig.0);
        seed_h.update(&pk.0);
    }
    let seed = seed_h.finalize();

    // zᵢ: 128-bit nonzero coefficients — half-width scalars keep the Rᵢ
    // columns out of the upper windows of the multi-scalar multiplication.
    let mut zs: Vec<[u8; 32]> = Vec::with_capacity(n);
    for (i, k) in ks.iter().enumerate() {
        let mut h = Sha512::new();
        h.update(&seed);
        h.update(&(i as u64).to_le_bytes());
        h.update(k);
        let wide = h.finalize();
        let mut z = [0u8; 32];
        z[..16].copy_from_slice(&wide[..16]);
        z[0] |= 1; // never zero — a zero coefficient would drop the entry
        zs.push(z);
    }

    // Scalars: Σ zᵢ·sᵢ on B, zᵢ on −Rᵢ, zᵢ·kᵢ on −Aᵢ.
    let zero = [0u8; 32];
    let mut s_coeff = zero;
    for i in 0..n {
        s_coeff = scalar_muladd(&zs[i], &s_scalars[i], &s_coeff);
    }
    let mut scalars = Vec::with_capacity(2 * n + 1);
    let mut points = Vec::with_capacity(2 * n + 1);
    scalars.push(s_coeff);
    points.push(Point::basepoint());
    for i in 0..n {
        scalars.push(zs[i]);
        points.push(r_points[i].neg());
        scalars.push(scalar_muladd(&zs[i], &ks[i], &zero));
        points.push(a_points[i].neg());
    }
    multiscalar_mul(&scalars, &points).is_identity()
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

    #[test]
    fn non_canonical_s_rejected() {
        let kp = Keypair::from_seed([5u8; 32]);
        let sig = kp.sign(b"m");
        // Forge S' = S + L (same value mod L, non-canonical encoding).
        let mut s: [u8; 32] = sig.0[32..].try_into().unwrap();
        let mut carry = 0u16;
        for i in 0..32 {
            let v = s[i] as u16 + L[i] as u16 + carry;
            s[i] = v as u8;
            carry = v >> 8;
        }
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

    // --- multi-scalar multiplication ---

    fn scalar(v: u64) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&v.to_le_bytes());
        s
    }

    #[test]
    fn msm_empty_is_identity() {
        assert!(multiscalar_mul(&[], &[]).is_identity());
    }

    #[test]
    fn msm_matches_naive_small() {
        let b = Point::basepoint();
        let p2 = b.double();
        let p3 = p2.add(&b);
        // 5·B + 7·2B + 11·3B = 52·B
        let got = multiscalar_mul(&[scalar(5), scalar(7), scalar(11)], &[b, p2, p3]);
        assert!(got.eq_affine(&b.scalar_mul(&scalar(52))));
    }

    #[test]
    fn msm_matches_naive_wide_scalars() {
        // Full-width pseudo-random scalars across the small/large window cut.
        for n in [1usize, 2, 7, 8, 20] {
            let mut scalars = Vec::new();
            let mut points = Vec::new();
            let mut expect: Option<Point> = None;
            for i in 0..n {
                let s = scalar_reduce(&crate::sha2::sha512(&[i as u8, n as u8, 0x5a]));
                let p = Point::basepoint()
                    .scalar_mul(&scalar_reduce(&crate::sha2::sha512(&[i as u8, n as u8, 0xa5])));
                let term = p.scalar_mul(&s);
                expect = Some(match &expect {
                    Some(e) => e.add(&term),
                    None => term,
                });
                scalars.push(s);
                points.push(p);
            }
            let got = multiscalar_mul(&scalars, &points);
            assert!(got.eq_affine(&expect.unwrap()), "n={n}");
        }
    }

    #[test]
    fn msm_cancellation_hits_identity() {
        let b = Point::basepoint();
        // 3·B + 3·(−B) = identity
        let got = multiscalar_mul(&[scalar(3), scalar(3)], &[b, b.neg()]);
        assert!(got.is_identity());
    }

    #[test]
    fn recode_signed_roundtrip() {
        for c in [4usize, 5, 6] {
            for seed in 0u8..8 {
                let s = scalar_reduce(&crate::sha2::sha512(&[seed, c as u8]));
                let digits = recode_signed(&s, c);
                // Reconstruct the scalar as Σ dᵢ·2^(c·i) over i128 chunks and
                // compare against the little-endian value (fits: < 2^253).
                let mut acc = [0i64; 64];
                for (i, &d) in digits.iter().enumerate() {
                    let bit = i * c;
                    // add d · 2^bit in byte-granular pieces
                    let byte = bit / 8;
                    let shift = bit % 8;
                    let v = i64::from(d) << shift;
                    acc[byte] += v & 0xff;
                    acc[byte + 1] += (v >> 8) & 0xff;
                    acc[byte + 2] += v >> 16;
                }
                // normalize carries (signed)
                let mut carry = 0i64;
                let mut bytes = [0u8; 32];
                for i in 0..64 {
                    let v = acc[i] + carry;
                    let b = v & 0xff;
                    carry = (v - b) >> 8;
                    if i < 32 {
                        bytes[i] = b as u8;
                    } else {
                        assert_eq!(b, 0, "no overflow past 256 bits");
                    }
                }
                assert_eq!(carry, 0);
                assert_eq!(bytes, s, "c={c} seed={seed}");
            }
        }
    }

    // --- batch verification ---

    fn batch_of(n: usize) -> (Vec<Vec<u8>>, Vec<Signature>, Vec<PublicKey>) {
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

    fn entries<'a>(
        msgs: &'a [Vec<u8>],
        sigs: &[Signature],
        keys: &[PublicKey],
    ) -> Vec<BatchEntry<'a>> {
        msgs.iter().zip(sigs).zip(keys).map(|((m, s), k)| (m.as_slice(), *s, *k)).collect()
    }

    #[test]
    fn batch_empty_and_singleton() {
        assert!(verify_batch(&[]));
        let (msgs, sigs, keys) = batch_of(1);
        assert!(verify_batch(&entries(&msgs, &sigs, &keys)));
    }

    #[test]
    fn batch_valid_batches_pass() {
        for n in [2usize, 3, 9, 33] {
            let (msgs, sigs, keys) = batch_of(n);
            assert!(verify_batch(&entries(&msgs, &sigs, &keys)), "n={n}");
        }
    }

    #[test]
    fn batch_detects_single_tamper() {
        for tampered in [0usize, 3, 7] {
            let (mut msgs, sigs, keys) = batch_of(8);
            msgs[tampered][0] ^= 1;
            assert!(!verify_batch(&entries(&msgs, &sigs, &keys)), "tampered={tampered}");
        }
    }

    #[test]
    fn batch_detects_tampered_signature_and_wrong_key() {
        let (msgs, mut sigs, mut keys) = batch_of(5);
        sigs[2].0[40] ^= 0x10;
        assert!(!verify_batch(&entries(&msgs, &sigs, &keys)));

        let (msgs, sigs2, _) = batch_of(5);
        keys[4] = Keypair::from_seed([99u8; 32]).public;
        assert!(!verify_batch(&entries(&msgs, &sigs2, &keys)));
    }

    #[test]
    fn batch_rejects_non_canonical_s() {
        let (msgs, mut sigs, keys) = batch_of(3);
        let mut s: [u8; 32] = sigs[1].0[32..].try_into().unwrap();
        let mut carry = 0u16;
        for i in 0..32 {
            let v = s[i] as u16 + L[i] as u16 + carry;
            s[i] = v as u8;
            carry = v >> 8;
        }
        sigs[1].0[32..].copy_from_slice(&s);
        assert!(!verify_batch(&entries(&msgs, &sigs, &keys)));
    }

    #[test]
    fn batch_rejects_bad_point_encoding() {
        let (msgs, sigs, mut keys) = batch_of(3);
        let mut enc = [0u8; 32];
        enc[0] = 2; // not on the curve
        keys[0] = PublicKey(enc);
        assert!(!verify_batch(&entries(&msgs, &sigs, &keys)));
    }

    #[test]
    fn batch_with_rfc8032_vectors() {
        // The three RFC test keys/messages batched together must pass.
        let cases: [(&str, &[u8]); 3] = [
            ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60", b""),
            ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb", &[0x72]),
            ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7", &[0xaf, 0x82]),
        ];
        let mut msgs = Vec::new();
        let mut sigs = Vec::new();
        let mut keys = Vec::new();
        for (seed_hex, msg) in cases {
            let kp = Keypair::from_seed(hex::decode_array::<32>(seed_hex).unwrap());
            sigs.push(kp.sign(msg));
            keys.push(kp.public);
            msgs.push(msg.to_vec());
        }
        assert!(verify_batch(&entries(&msgs, &sigs, &keys)));
    }

    #[test]
    fn batch_shares_work() {
        // The whole point: batch verification must cost far fewer curve
        // operations than per-signature verification.
        let (msgs, sigs, keys) = batch_of(32);
        let es = entries(&msgs, &sigs, &keys);
        ec_ops_reset();
        for (m, s, k) in &es {
            assert!(k.verify(m, s));
        }
        let sequential = ec_ops();
        ec_ops_reset();
        assert!(verify_batch(&es));
        let batched = ec_ops();
        assert!(
            batched * 3 < sequential,
            "batch must be ≥3× cheaper in point ops: {batched} vs {sequential}"
        );
    }
}
