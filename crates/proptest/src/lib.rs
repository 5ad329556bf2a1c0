//! # proptest — offline, deterministic stand-in for the `proptest` 1.x API
//!
//! The workspace's property tests are written against the real
//! `proptest` crate's surface, but the course container is air-gapped:
//! no network, no crates.io registry. This shim re-implements exactly
//! the subset those tests use, on top of the in-repo [`rand`] shim:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]` header);
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_oneof!`];
//! * [`strategy::Strategy`] with `prop_map`/`boxed`, implemented for
//!   integer/float ranges, tuples, [`strategy::Just`], `any::<T>()`,
//!   [`collection::vec`], [`option::of`], and `&str` regex-lite
//!   patterns such as `"[a-z]{1,5}"`;
//! * [`test_runner::ProptestConfig`] / [`test_runner::TestCaseError`].
//!
//! Differences from upstream, deliberately accepted for a teaching
//! repo: cases are generated from a seed derived from the test's module
//! path (fully deterministic run to run), there is **no shrinking** (a
//! failure prints the exact inputs instead), and
//! `proptest-regressions` files are ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod test_runner {
    //! Config, error type, and the deterministic per-test RNG.

    /// The RNG driving every strategy. A type alias so macro-expanded
    //  code can name it through `$crate`.
    pub type TestRng = rand::rngs::StdRng;

    /// A failed property-test case (carries the rendered message).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// How many cases to run per property.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running exactly `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic RNG for a named test: FNV-1a over the test path,
    /// so every test gets a distinct but reproducible stream.
    pub fn rng_for(test_path: &str) -> TestRng {
        use rand::SeedableRng;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::seed_from_u64(h)
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by [`prop_oneof!`](crate::prop_oneof!)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice between type-erased alternatives — the engine
    /// behind [`prop_oneof!`](crate::prop_oneof!).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `arms`; panics if empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.arms.len());
            self.arms[i].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// `&str` patterns: a regex-lite subset (`[a-z]` classes with `-`
    /// ranges, `{m}`/`{m,n}`/`+`/`*`/`?` repetition, literal chars)
    /// generating `String`s — enough for patterns like `"[a-z]{1,5}"`.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            sample_pattern(self, rng)
        }
    }

    fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            // One atom: a class or a literal.
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"));
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        for c in lo..=hi {
                            set.extend(char::from_u32(c));
                        }
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            assert!(!alphabet.is_empty(), "empty character class in {pattern:?}");
            // Optional repetition suffix.
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"));
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("repetition lower bound"),
                        hi.trim().parse().expect("repetition upper bound"),
                    ),
                    None => {
                        let n: usize = body.trim().parse().expect("repetition count");
                        (n, n)
                    }
                }
            } else if i < chars.len() && (chars[i] == '+' || chars[i] == '*' || chars[i] == '?') {
                let (lo, hi) = match chars[i] {
                    '+' => (1, 8),
                    '*' => (0, 8),
                    _ => (0, 1),
                };
                i += 1;
                (lo, hi)
            } else {
                (1, 1)
            };
            let n = rng.gen_range(min..=max);
            for _ in 0..n {
                out.push(alphabet[rng.gen_range(0..alphabet.len())]);
            }
        }
        out
    }

    /// `any::<T>()` support: a full-range uniform value of `T`.
    pub struct Any<T> {
        _marker: core::marker::PhantomData<fn() -> T>,
    }

    impl<T: rand::Standard> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.gen()
        }
    }

    /// Uniform values across `T`'s whole domain (`any::<u32>()`, …).
    pub fn any<T: rand::Standard>() -> Any<T> {
        Any {
            _marker: core::marker::PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A strategy for `Vec<S::Value>` with a sampled length.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max_exclusive: usize,
    }

    /// Length specifications accepted by [`vec()`]: a `usize` for an
    /// exact length, or a half-open/inclusive range of lengths.
    pub trait IntoSizeRange {
        /// Converts to `(min, max_exclusive)`.
        fn into_size_range(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn into_size_range(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn into_size_range(self) -> (usize, usize) {
            (*self.start(), *self.end() + 1)
        }
    }

    /// `vec(element, size)` — vectors whose length is drawn uniformly
    /// from `size` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max_exclusive) = size.into_size_range();
        assert!(min < max_exclusive, "empty size range");
        VecStrategy {
            element,
            min,
            max_exclusive,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.min..self.max_exclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod option {
    //! Option strategies (`proptest::option::of`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `of(inner)` — `None` about a quarter of the time, otherwise
    /// `Some` of a sampled inner value.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop` module alias exported by the real prelude.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r),
            ));
        }
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` body
/// runs for `cases` deterministic inputs, panicking with the exact
/// inputs on the first failure (no shrinking in this shim).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Internal expansion target of [`proptest!`] — not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::rng_for(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..config.cases {
                let values = ($($crate::strategy::Strategy::sample(&($strat), &mut rng),)+);
                let rendered = format!("{:?}", values);
                let ($($pat,)+) = values;
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed at case {}/{}:\n{}\ninputs: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e,
                        rendered
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    #[test]
    fn strategies_are_deterministic_per_test_path() {
        let mut a = crate::test_runner::rng_for("x::y");
        let mut b = crate::test_runner::rng_for("x::y");
        let s = crate::collection::vec(0u64..100, 1..20);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }

    #[test]
    fn pattern_strategy_matches_its_own_grammar() {
        let mut rng = crate::test_runner::rng_for("pattern");
        for _ in 0..200 {
            let s = "[a-z]{1,5}".sample(&mut rng);
            assert!((1..=5).contains(&s.len()), "bad length: {s:?}");
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase()),
                "bad chars: {s:?}"
            );
        }
        let t = "ab[0-9]?".sample(&mut rng);
        assert!(t.starts_with("ab") && t.len() <= 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn the_macro_machinery_works(
            v in crate::collection::vec(any::<u8>(), 0..10),
            w in 1u32..=64,
            which in prop_oneof![Just(1u8), (10u8..20).prop_map(|x| x)],
        ) {
            prop_assert!(v.len() < 10);
            prop_assert!((1..=64).contains(&w));
            prop_assert!(which == 1 || (10..20).contains(&which));
            prop_assert_eq!(v.len(), v.clone().len());
            prop_assert_ne!(w + 1, w);
        }
    }
}
