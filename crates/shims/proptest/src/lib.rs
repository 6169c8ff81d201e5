//! Offline stand-in for `proptest`, implementing the subset this
//! workspace's property tests use: the [`proptest!`] macro, the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, [`collection::vec`], a small char-class regex string
//! strategy, and the `prop_assert*` macros.
//!
//! Differences from the real crate, deliberate for an offline build:
//! no shrinking (a failing case reports the panic directly), and the
//! RNG is seeded deterministically per test so failures reproduce
//! without a persistence file.

use std::ops::{Range, RangeInclusive};

pub mod prelude {
    pub use crate::strategy::{Just, Map, PropFlatMap};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Run configuration; only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-test RNG (SplitMix64 over a name hash).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn for_test(name: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening-multiply bounded sample; bias is irrelevant here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A generator of values; mirror of `proptest::strategy::Strategy`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { base: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> strategy::PropFlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        strategy::PropFlatMap { base: self, f }
    }
}

pub mod strategy {
    use super::{Strategy, TestRng};

    /// Constant strategy.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// Output of [`Strategy::prop_flat_map`].
    pub struct PropFlatMap<S, F> {
        pub(crate) base: S,
        pub(crate) f: F,
    }

    impl<S, F, S2> Strategy for PropFlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }
}

// ---- range strategies ----

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize);

macro_rules! signed_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as i64).wrapping_sub(start as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i64).wrapping_add(rng.below(span + 1) as i64) as $t
            }
        }
    )*};
}
signed_strategies!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

// ---- tuple strategies ----

macro_rules! tuple_strategies {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
}

// ---- string strategy (char-class regex subset) ----

/// `&str` strategies interpret the string as a regex over a small
/// subset: literal chars, `.`, char classes `[a-z0-9_ -]` (ranges and
/// singles; leading/trailing `-` literal), quantifiers `{m}`, `{m,n}`,
/// `*`, `+`, `?` (unbounded forms capped at 8 repeats).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = regex::parse(self)
            .unwrap_or_else(|e| panic!("unsupported regex strategy {self:?}: {e}"));
        let mut out = String::new();
        for atom in &atoms {
            let n = atom.min_rep as u64
                + if atom.max_rep > atom.min_rep {
                    rng.below((atom.max_rep - atom.min_rep + 1) as u64)
                } else {
                    0
                };
            for _ in 0..n {
                out.push(atom.class.sample(rng));
            }
        }
        out
    }
}

mod regex {
    use super::TestRng;

    pub(crate) struct CharClass {
        /// Inclusive char ranges.
        pub ranges: Vec<(char, char)>,
    }

    impl CharClass {
        pub fn sample(&self, rng: &mut TestRng) -> char {
            let total: u64 = self
                .ranges
                .iter()
                .map(|&(a, b)| (b as u64) - (a as u64) + 1)
                .sum();
            let mut k = rng.below(total);
            for &(a, b) in &self.ranges {
                let span = (b as u64) - (a as u64) + 1;
                if k < span {
                    return char::from_u32(a as u32 + k as u32).unwrap_or(a);
                }
                k -= span;
            }
            unreachable!()
        }
    }

    pub(crate) struct Atom {
        pub class: CharClass,
        pub min_rep: u32,
        pub max_rep: u32,
    }

    pub(crate) fn parse(pattern: &str) -> Result<Vec<Atom>, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut atoms = Vec::new();
        while i < chars.len() {
            let class = match chars[i] {
                '[' => {
                    let end = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .ok_or("unterminated char class")?
                        + i;
                    let body = &chars[i + 1..end];
                    i = end + 1;
                    parse_class(body)?
                }
                '.' => {
                    i += 1;
                    CharClass {
                        ranges: vec![(' ', '~')],
                    }
                }
                '\\' => {
                    let c = *chars.get(i + 1).ok_or("dangling escape")?;
                    i += 2;
                    CharClass {
                        ranges: vec![(c, c)],
                    }
                }
                c => {
                    i += 1;
                    CharClass {
                        ranges: vec![(c, c)],
                    }
                }
            };
            let (min_rep, max_rep) = match chars.get(i) {
                Some('{') => {
                    let end = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .ok_or("unterminated quantifier")?
                        + i;
                    let body: String = chars[i + 1..end].iter().collect();
                    i = end + 1;
                    match body.split_once(',') {
                        Some((lo, hi)) => (
                            lo.trim().parse::<u32>().map_err(|e| e.to_string())?,
                            hi.trim().parse::<u32>().map_err(|e| e.to_string())?,
                        ),
                        None => {
                            let n = body.trim().parse::<u32>().map_err(|e| e.to_string())?;
                            (n, n)
                        }
                    }
                }
                Some('*') => {
                    i += 1;
                    (0, 8)
                }
                Some('+') => {
                    i += 1;
                    (1, 8)
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            };
            atoms.push(Atom {
                class,
                min_rep,
                max_rep,
            });
        }
        Ok(atoms)
    }

    fn parse_class(body: &[char]) -> Result<CharClass, String> {
        if body.is_empty() {
            return Err("empty char class".into());
        }
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if i + 2 < body.len() && body[i + 1] == '-' {
                if body[i] as u32 > body[i + 2] as u32 {
                    return Err("inverted range".into());
                }
                ranges.push((body[i], body[i + 2]));
                i += 3;
            } else if i + 2 == body.len() && body[i + 1] == '-' {
                // Trailing '-': literal.
                ranges.push((body[i], body[i]));
                ranges.push(('-', '-'));
                i += 2;
            } else {
                ranges.push((body[i], body[i]));
                i += 1;
            }
        }
        Ok(CharClass { ranges })
    }
}

// ---- collections ----

pub mod collection {
    use super::{Range, RangeInclusive, Strategy, TestRng};

    /// Size specification for [`vec()`]: exact, `a..b`, or `a..=b`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy for vectors of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---- macros ----

/// Assert inside a property test (panics on failure, like a failed
/// case without shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Property-test block: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ [$crate::ProptestConfig::default()] $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ([$cfg:expr]) => {};
    ([$cfg:expr]
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_test(stringify!($name), case as u64);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
        $crate::__proptest_impl!{ [$cfg] $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in 0u8..=255, z in -5i32..5) {
            prop_assert!((3..10).contains(&x));
            let _ = y;
            prop_assert!((-5..5).contains(&z));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0u32..100, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7, "len {}", v.len());
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn string_regex(s in "[ -~]{0,12}") {
            prop_assert!(s.len() <= 12);
            prop_assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }

        #[test]
        fn tuples_and_maps(pair in (1usize..=3, 10u64..20)) {
            let (a, b) = pair;
            prop_assert!((1..=3).contains(&a));
            prop_assert!((10..20).contains(&b));
        }
    }

    #[test]
    fn flat_map_composes() {
        use crate::{collection, Strategy, TestRng};
        let strat =
            (1usize..=4).prop_flat_map(|n| collection::vec(0u8..10, n).prop_map(move |v| (n, v)));
        let mut rng = TestRng::for_test("flat_map_composes", 1);
        for _ in 0..100 {
            let (n, v) = strat.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn deterministic_given_name_and_case() {
        use crate::{Strategy, TestRng};
        let a = (0u64..1_000_000).generate(&mut TestRng::for_test("t", 7));
        let b = (0u64..1_000_000).generate(&mut TestRng::for_test("t", 7));
        assert_eq!(a, b);
    }
}
