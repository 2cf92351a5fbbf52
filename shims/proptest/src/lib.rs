//! Offline shim for `proptest`: a generate-only property-testing harness
//! exposing the subset of the proptest API this workspace uses.
//!
//! Differences from the real crate, by design:
//! - **No shrinking.** A failing case reports its seed and message but is
//!   not minimised.
//! - **Deterministic seeding.** Each test derives its RNG stream from a
//!   hash of the test name plus the case number, so failures reproduce
//!   across runs without a persistence file.
//! - **Regex strategies** support the subset actually used here: literals,
//!   escapes, `.`, character classes with ranges, and `{m}`/`{m,n}`/
//!   `*`/`+`/`?` quantifiers (no groups or alternation).

pub mod test_runner {
    //! Config, error type, RNG, and the case-execution loop.

    /// Deterministic per-case random source handed to strategies: the
    /// crate's own xoshiro256** generator, seeded by four splitmix64 words.
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Build from a 64-bit seed.
        pub fn from_seed(mut seed: u64) -> TestRng {
            let mut s = [0; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            // xoshiro must not start from the all-zero state
            if s == [0; 4] {
                s[0] = 1;
            }
            TestRng { s }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Next 32 random bits.
        pub fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            // Rejection sampling to avoid modulo bias.
            let zone = u64::MAX - (u64::MAX % bound);
            loop {
                let v = self.next_u64();
                if v < zone {
                    return v % bound;
                }
            }
        }

        /// Uniform usize in `[lo, hi]` (inclusive).
        pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
            assert!(lo <= hi, "empty range {lo}..={hi}");
            let span = (hi - lo) as u64;
            if span == u64::MAX {
                return self.next_u64() as usize;
            }
            lo + self.below(span + 1) as usize
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property was violated; the run fails.
        Fail(String),
        /// A `prop_assume!` precondition failed; the case is discarded.
        Reject(String),
    }

    impl TestCaseError {
        /// A failing case with a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        /// A discarded case with a reason.
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Runner configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases each property must pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 48 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Drive a property: run cases until `config.cases` accepted, panicking
    /// on the first failure with the seed needed to reproduce it.
    pub fn execute<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name);
        let mut passed: u32 = 0;
        let mut rejected: u32 = 0;
        let mut attempt: u64 = 0;
        while passed < config.cases {
            let seed = base ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            attempt += 1;
            let mut rng = TestRng::from_seed(seed);
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > config.cases.saturating_mul(20) + 256 {
                        panic!(
                            "proptest '{name}': too many rejected cases \
                             ({rejected} rejects for {passed} passes)"
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed (case {passed}, seed {seed:#x}):\n{msg}");
                }
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, map: f }
        }

        /// Keep only values satisfying `pred` (bounded retries).
        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { source: self, reason, pred }
        }

        /// Build a recursive strategy: `self` generates leaves and `branch`
        /// wraps an inner strategy into a bigger value, nested up to
        /// `depth` levels. The size/branch hints are accepted for API
        /// compatibility but unused.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            branch: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                strat = Union::new(vec![leaf.clone(), branch(strat).boxed()]).boxed();
            }
            strat
        }

        /// Type-erase into a [`BoxedStrategy`].
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// A type-erased, cheaply-cloneable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> BoxedStrategy<T> {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among type-erased alternatives (`prop_oneof!`).
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// Build from a nonempty list of alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "Union of zero strategies");
            Union(options)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.usize_in(0, self.0.len() - 1);
            self.0[idx].generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        map: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.map)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        source: S,
        reason: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.source.generate(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter '{}' rejected 1000 candidates in a row", self.reason);
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    int_range_strategy!(usize, u8, u16, u32, u64);

    macro_rules! signed_range_strategy {
        ($($t:ty => $u:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i64 - self.start as i64) as u64;
                    (self.start as i64 + rng.below(span) as i64) as $t
                }
            }
        )*};
    }

    signed_range_strategy!(i32 => u32, i64 => u64);

    /// A `&str` is a regex-subset strategy generating matching strings.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::string_regex(self)
                .unwrap_or_else(|e| panic!("bad regex strategy {self:?}: {e}"))
                .generate(rng)
        }
    }

    /// A `Vec` of strategies generates element-wise.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }
}

pub mod arbitrary {
    //! `any::<T>()` and the [`Arbitrary`] trait.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generate an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u32() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            // Bias half the mass to printable ASCII, half to the full
            // scalar-value space (excluding surrogates).
            if rng.next_u32() & 1 == 0 {
                (0x20 + rng.below(0x5F) as u32) as u8 as char
            } else {
                loop {
                    if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                        return c;
                    }
                }
            }
        }
    }

    impl Arbitrary for crate::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> crate::sample::Index {
            crate::sample::Index::new(rng.next_u64() as usize)
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod sample {
    //! Index sampling, mirroring `proptest::sample`.

    /// An abstract index resolvable against any nonempty collection length.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index(usize);

    impl Index {
        pub(crate) fn new(raw: usize) -> Index {
            Index(raw)
        }

        /// Resolve against a collection of `len` items (`len > 0`).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            self.0 % len
        }
    }
}

pub mod collection {
    //! Collection strategies: `vec` and `btree_set`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.usize_in(self.min, self.max)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    /// Strategy for `Vec`s of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector with a size drawn from `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy for `BTreeSet`s of values from `element`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            // The element domain may hold fewer than `target` distinct
            // values, so bound the attempts rather than insisting.
            let mut tries = 0usize;
            while set.len() < target && tries < 100 * target.max(1) {
                set.insert(self.element.generate(rng));
                tries += 1;
            }
            set
        }
    }

    /// A set with a size drawn from `size` (best-effort if the element
    /// domain is small) and elements from `element`.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }
}

pub mod array {
    //! Fixed-size array strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `[S::Value; 32]`.
    pub struct Uniform32<S>(S);

    impl<S: Strategy> Strategy for Uniform32<S> {
        type Value = [S::Value; 32];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; 32] {
            std::array::from_fn(|_| self.0.generate(rng))
        }
    }

    /// A 32-element array with every element drawn from `element`.
    pub fn uniform32<S: Strategy>(element: S) -> Uniform32<S> {
        Uniform32(element)
    }
}

pub mod string {
    //! Regex-subset string strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Parse error for an unsupported or malformed pattern.
    #[derive(Debug, Clone)]
    pub struct Error(String);

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    #[derive(Clone, Debug)]
    enum Node {
        Literal(char),
        /// Inclusive char ranges; a single char is a degenerate range.
        Class(Vec<(char, char)>),
        /// `.` — printable ASCII.
        AnyChar,
        Repeat(Box<Node>, u32, u32),
    }

    /// Strategy generating strings matching a regex-subset pattern.
    #[derive(Clone, Debug)]
    pub struct RegexGeneratorStrategy {
        nodes: Vec<Node>,
    }

    impl Strategy for RegexGeneratorStrategy {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for node in &self.nodes {
                emit(node, rng, &mut out);
            }
            out
        }
    }

    fn emit(node: &Node, rng: &mut TestRng, out: &mut String) {
        match node {
            Node::Literal(c) => out.push(*c),
            Node::AnyChar => out.push((0x20 + rng.below(0x5F) as u32) as u8 as char),
            Node::Class(ranges) => {
                let total: u64 =
                    ranges.iter().map(|(lo, hi)| (*hi as u64) - (*lo as u64) + 1).sum();
                let mut pick = rng.below(total);
                for (lo, hi) in ranges {
                    let span = (*hi as u64) - (*lo as u64) + 1;
                    if pick < span {
                        // Skip the surrogate gap if a range straddles it.
                        let v = *lo as u32 + pick as u32;
                        out.push(char::from_u32(v).unwrap_or(*lo));
                        return;
                    }
                    pick -= span;
                }
                unreachable!("class pick out of range");
            }
            Node::Repeat(inner, min, max) => {
                let count = rng.usize_in(*min as usize, *max as usize);
                for _ in 0..count {
                    emit(inner, rng, out);
                }
            }
        }
    }

    fn parse_escape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other,
        }
    }

    fn parse(pattern: &str) -> Result<Vec<Node>, Error> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut nodes: Vec<Node> = Vec::new();
        let mut i = 0usize;
        let err = |msg: String| Error(msg);
        while i < chars.len() {
            let c = chars[i];
            match c {
                '[' => {
                    i += 1;
                    let mut ranges: Vec<(char, char)> = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let lo = if chars[i] == '\\' {
                            i += 1;
                            if i >= chars.len() {
                                return Err(err("dangling escape in class".into()));
                            }
                            parse_escape(chars[i])
                        } else {
                            chars[i]
                        };
                        i += 1;
                        // `a-z` range when '-' is not last-in-class
                        if i + 1 < chars.len() && chars[i] == '-' && chars[i + 1] != ']' {
                            i += 1;
                            let hi = if chars[i] == '\\' {
                                i += 1;
                                if i >= chars.len() {
                                    return Err(err("dangling escape in class".into()));
                                }
                                parse_escape(chars[i])
                            } else {
                                chars[i]
                            };
                            i += 1;
                            if hi < lo {
                                return Err(err(format!("inverted range {lo}-{hi}")));
                            }
                            ranges.push((lo, hi));
                        } else {
                            ranges.push((lo, lo));
                        }
                    }
                    if i >= chars.len() {
                        return Err(err("unterminated character class".into()));
                    }
                    i += 1; // consume ']'
                    if ranges.is_empty() {
                        return Err(err("empty character class".into()));
                    }
                    nodes.push(Node::Class(ranges));
                }
                '.' => {
                    nodes.push(Node::AnyChar);
                    i += 1;
                }
                '\\' => {
                    i += 1;
                    if i >= chars.len() {
                        return Err(err("dangling escape".into()));
                    }
                    nodes.push(Node::Literal(parse_escape(chars[i])));
                    i += 1;
                }
                '{' => {
                    let prev = nodes
                        .pop()
                        .ok_or_else(|| err("quantifier with nothing to repeat".into()))?;
                    i += 1;
                    let start = i;
                    while i < chars.len() && chars[i] != '}' {
                        i += 1;
                    }
                    if i >= chars.len() {
                        return Err(err("unterminated quantifier".into()));
                    }
                    let body: String = chars[start..i].iter().collect();
                    i += 1; // consume '}'
                    let (min, max) = match body.split_once(',') {
                        Some((m, n)) => {
                            let min = m
                                .trim()
                                .parse::<u32>()
                                .map_err(|_| err(format!("bad quantifier lower bound {m:?}")))?;
                            let max = if n.trim().is_empty() {
                                min + 8
                            } else {
                                n.trim()
                                    .parse::<u32>()
                                    .map_err(|_| err(format!("bad quantifier upper bound {n:?}")))?
                            };
                            (min, max)
                        }
                        None => {
                            let n = body
                                .trim()
                                .parse::<u32>()
                                .map_err(|_| err(format!("bad quantifier count {body:?}")))?;
                            (n, n)
                        }
                    };
                    if max < min {
                        return Err(err(format!("inverted quantifier {{{min},{max}}}")));
                    }
                    nodes.push(Node::Repeat(Box::new(prev), min, max));
                }
                '*' | '+' | '?' => {
                    let prev = nodes
                        .pop()
                        .ok_or_else(|| err("quantifier with nothing to repeat".into()))?;
                    let (min, max) = match c {
                        '*' => (0, 8),
                        '+' => (1, 8),
                        _ => (0, 1),
                    };
                    nodes.push(Node::Repeat(Box::new(prev), min, max));
                    i += 1;
                }
                '(' | ')' | '|' | '^' | '$' => {
                    return Err(err(format!(
                        "unsupported regex construct {c:?} (shim supports literals, \
                         classes, '.', and quantifiers)"
                    )));
                }
                other => {
                    nodes.push(Node::Literal(other));
                    i += 1;
                }
            }
        }
        Ok(nodes)
    }

    /// A strategy generating strings matching `pattern` (regex subset).
    pub fn string_regex(pattern: &str) -> Result<RegexGeneratorStrategy, Error> {
        Ok(RegexGeneratorStrategy { nodes: parse(pattern)? })
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            format!($($fmt)+),
            left,
            right
        );
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`: {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            format!($($fmt)+),
            left
        );
    }};
}

/// Discard the current case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr);) => {};
    (($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::test_runner::execute(
                &__config,
                stringify!($name),
                |__rng: &mut $crate::test_runner::TestRng|
                    -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $(
                        let $pat = $crate::strategy::Strategy::generate(&($strategy), __rng);
                    )+
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_impl!(($config); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    fn rng() -> TestRng {
        TestRng::from_seed(0xDEAD_BEEF)
    }

    #[test]
    fn test_rng_replays_the_recorded_words() {
        let mut r = TestRng::from_seed(42);
        let words: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            words,
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1,
                0xecb8_ad47_03b3_60a1
            ]
        );
    }

    #[test]
    fn regex_class_and_quantifier() {
        let s = crate::string::string_regex("[a-z][a-z0-9]{0,6}").unwrap();
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!(!v.is_empty() && v.len() <= 7, "bad sample {v:?}");
            assert!(v.chars().next().unwrap().is_ascii_lowercase());
            assert!(v.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn regex_printable_space_tilde() {
        let s = crate::string::string_regex("[ -~]{0,24}").unwrap();
        let mut r = rng();
        for _ in 0..100 {
            let v = s.generate(&mut r);
            assert!(v.len() <= 24);
            assert!(v.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn regex_rejects_groups() {
        assert!(crate::string::string_regex("(ab)+").is_err());
    }

    #[test]
    fn collection_vec_sizes() {
        let s = crate::collection::vec(any::<u8>(), 3usize);
        let mut r = rng();
        assert_eq!(s.generate(&mut r).len(), 3);
        let s = crate::collection::vec(any::<u8>(), 1..4);
        for _ in 0..50 {
            let n = s.generate(&mut r).len();
            assert!((1..4).contains(&n));
        }
    }

    #[test]
    fn btree_set_hits_reachable_targets() {
        let s = crate::collection::btree_set(0usize..=4, 1..=5);
        let mut r = rng();
        for _ in 0..50 {
            let set = s.generate(&mut r);
            assert!(!set.is_empty() && set.len() <= 5);
        }
    }

    #[test]
    fn union_and_recursive_terminate() {
        #[derive(Clone, Debug)]
        #[allow(dead_code)] // only generated, never read — the test exercises termination
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        let strat = (0u8..10).prop_map(Tree::Leaf).prop_recursive(3, 24, 4, |inner| {
            crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
        });
        let mut r = rng();
        for _ in 0..100 {
            let _ = strat.generate(&mut r);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_smoke(x in 0usize..100, s in "[a-b]{2}", v in crate::collection::vec(any::<bool>(), 2)) {
            prop_assert!(x < 100);
            prop_assert_eq!(s.len(), 2);
            prop_assert_ne!(v.len(), 3);
            prop_assume!(x != 99);
        }
    }
}
