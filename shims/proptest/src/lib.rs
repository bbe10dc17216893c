//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of the proptest surface this workspace's property
//! tests use: the `proptest!` macro with `#![proptest_config(...)]`,
//! `prop_assert*`, [`Strategy`] with `prop_map` / `prop_flat_map`, range
//! and tuple strategies, character-class string strategies of the form
//! `"[chars]{lo,hi}"`, `any::<T>()`, and `collection::{vec, btree_set}`.
//!
//! Cases are generated from a deterministic per-test RNG (seeded from the
//! test name and case index), so failures are reproducible run to run.
//! There is no shrinking: a failing case panics with the standard assert
//! message, which is enough to paste the inputs into a unit test.

use std::ops::{Range, RangeFrom, RangeInclusive};

/// The per-case random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A deterministic RNG for (test, case).
    pub fn deterministic(test_hash: u64, case: u32) -> TestRng {
        TestRng {
            state: test_hash ^ ((case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// The next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        self.next_u64() % bound
    }
}

/// FNV-1a over a string — used to derive per-test seeds.
pub fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
    {
        FlatMapStrategy { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMapStrategy<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
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

        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                (self.start..=<$t>::MAX).generate(rng)
            }
        }
    )*};
}
impl_range_strategies!(usize, u8, u16, u32, u64);

macro_rules! impl_tuple_strategies {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// String strategy from a `"[chars]{lo,hi}"` character-class pattern; any
/// other pattern generates itself literally.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        match parse_class_pattern(self) {
            Some((chars, lo, hi)) => {
                let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                (0..len)
                    .map(|_| chars[rng.below(chars.len() as u64) as usize])
                    .collect()
            }
            None => (*self).to_string(),
        }
    }
}

fn parse_class_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let chars: Vec<char> = rest[..close].chars().collect();
    if chars.is_empty() {
        return None;
    }
    let quant = &rest[close + 1..];
    if quant.is_empty() {
        return Some((chars, 1, 1));
    }
    let quant = quant.strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match quant.split_once(',') {
        Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
        None => {
            let n = quant.trim().parse().ok()?;
            (n, n)
        }
    };
    (lo <= hi).then_some((chars, lo, hi))
}

/// Uniform values of a primitive type; see [`any`].
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

/// `any::<T>()` — uniform values over the whole domain of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Types with a canonical uniform strategy.
pub trait Arbitrary: Sized {
    /// Draws a uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

/// Run configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as a size specification: an exact `usize` or a
    /// (half-open / inclusive) range of lengths.
    pub trait SizeSpec {
        /// Draws a size.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeSpec for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeSpec for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    impl SizeSpec for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    /// A `Vec` of values from `element`, sized by `size`.
    pub fn vec<S: Strategy, Z: SizeSpec>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeSpec> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `BTreeSet` of values from `element`; `size` bounds the number of
    /// insertion attempts, so duplicates may yield a smaller set.
    pub fn btree_set<S, Z>(element: S, size: Z) -> BTreeSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Ord,
        Z: SizeSpec,
    {
        BTreeSetStrategy { element, size }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S, Z> Strategy for BTreeSetStrategy<S, Z>
    where
        S: Strategy,
        S::Value: Ord,
        Z: SizeSpec,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let attempts = self.size.pick(rng);
            (0..attempts).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The proptest prelude subset.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Property assertion; identical to `assert!` (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Property equality assertion; identical to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Property inequality assertion; identical to `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Declares deterministic property tests.
///
/// Supports the block form used across this workspace:
/// an optional `#![proptest_config(...)]` header followed by
/// `#[test] fn name(pattern in strategy, ...) { body }` items, each
/// compiled to a function that runs `cases` deterministic draws. As in
/// upstream proptest, the caller writes `#[test]` (and any other
/// attribute); the macro adds none, so each test registers once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (@expand ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut proptest_rng =
                    $crate::TestRng::deterministic($crate::fxhash(stringify!($name)), case);
                $(let $pat = $crate::Strategy::generate(&($strategy), &mut proptest_rng);)+
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::ProptestConfig::default()) $($rest)*);
    };
}

// Re-exported for macro use; `BTreeSet` appears in generated signatures.
#[doc(hidden)]
pub use std::collections::BTreeSet as __BTreeSet;

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{parse_class_pattern, TestRng};

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic(1, 0);
        for _ in 0..200 {
            let v = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (2u32..=4).generate(&mut rng);
            assert!((2..=4).contains(&w));
            let x = (1u32..).generate(&mut rng);
            assert!(x >= 1);
        }
    }

    #[test]
    fn class_patterns_parse() {
        let (chars, lo, hi) = parse_class_pattern("[-wb]{0,32}").unwrap();
        assert_eq!(chars, vec!['-', 'w', 'b']);
        assert_eq!((lo, hi), (0, 32));
        assert!(parse_class_pattern("plain").is_none());
    }

    #[test]
    fn string_strategy_respects_class() {
        let mut rng = TestRng::deterministic(2, 1);
        for _ in 0..100 {
            let s = "[-wbx]{1,5}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 5);
            assert!(s.chars().all(|c| "-wbx".contains(c)));
        }
    }

    #[test]
    fn composite_strategies_compose() {
        let mut rng = TestRng::deterministic(3, 2);
        let strat = (2usize..=5).prop_flat_map(|n| (crate::collection::vec(0usize..n, n), Just(n)));
        for _ in 0..50 {
            let (v, n) = strat.generate(&mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_cases(x in 0u64..100, s in "[ab]{2,3}") {
            prop_assert!(x < 100);
            prop_assert!(s.len() == 2 || s.len() == 3);
            prop_assert_ne!(s.len(), 0);
        }
    }

    proptest! {
        #[test]
        fn macro_default_config(pair in (any::<u32>(), any::<bool>())) {
            let (x, b) = pair;
            prop_assert_eq!(x.count_ones() + x.count_zeros(), 32);
            let _ = b;
        }
    }

    std::thread_local! {
        static DRAWN: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    // No `#[test]` here: the macro adds no attribute of its own, so this
    // is a plain function that the test below calls.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        fn records_its_draws(x in any::<u64>()) {
            DRAWN.with(|drawn| drawn.borrow_mut().push(x));
        }
    }

    #[test]
    fn macro_runs_the_configured_cases_with_seeds_from_name_and_index() {
        records_its_draws();
        let first = DRAWN.with(|drawn| drawn.take());
        records_its_draws();
        let second = DRAWN.with(|drawn| drawn.take());
        assert_eq!(first.len(), 7);
        assert_eq!(first, second, "cases are reproducible run to run");
        let expected: Vec<u64> = (0..7)
            .map(|case| TestRng::deterministic(super::fxhash("records_its_draws"), case).next_u64())
            .collect();
        assert_eq!(first, expected);
    }

    #[test]
    fn fxhash_is_64_bit_fnv1a() {
        assert_eq!(super::fxhash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fxhash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fxhash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn rngs_differ_by_case_and_test_and_stay_fixed_per_pair() {
        let draw = |hash: u64, case: u32| {
            let mut rng = TestRng::deterministic(hash, case);
            [rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
        let mut rng = TestRng::deterministic(9, 9);
        assert!((0..100).all(|_| rng.below(3) < 3));
    }

    #[test]
    fn btree_set_size_is_bounded_by_attempts_and_the_domain() {
        let mut rng = TestRng::deterministic(4, 0);
        for _ in 0..50 {
            let set = crate::collection::btree_set(0u8..4, 10usize).generate(&mut rng);
            assert!(!set.is_empty() && set.len() <= 4);
            assert!(set.iter().all(|&x| x < 4));
            let small = crate::collection::btree_set(any::<u64>(), 0..3usize).generate(&mut rng);
            assert!(small.len() < 3);
        }
    }

    #[test]
    fn full_width_and_single_value_ranges_generate() {
        let mut rng = TestRng::deterministic(5, 0);
        for _ in 0..50 {
            assert_eq!((7u8..=7).generate(&mut rng), 7);
            assert_eq!((3usize..4).generate(&mut rng), 3);
            let _ = (0u64..=u64::MAX).generate(&mut rng);
            assert!((250u8..).generate(&mut rng) >= 250);
        }
        assert_eq!("[x]".generate(&mut rng), "x");
        assert_eq!("[ab]{3}".generate(&mut rng).len(), 3);
        assert_eq!("literal".generate(&mut rng), "literal");
        assert!(parse_class_pattern("[ab]{4,2}").is_none());
        assert!(parse_class_pattern("[]{1,2}").is_none());
    }
}
