//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment of this workspace has no access to crates.io, so
//! this local crate re-implements exactly the slice of the `rand` 0.8 API the
//! workspace uses: [`RngCore`], [`SeedableRng`], [`Rng::gen`],
//! [`Rng::gen_range`] and [`seq::SliceRandom::shuffle`]. Algorithms follow
//! the upstream semantics (53-bit uniform floats, widening-multiply integer
//! ranges, Fisher–Yates shuffling) but make no bit-for-bit compatibility
//! promise with upstream `rand` — all determinism guarantees in this
//! repository are *internal* (same seed ⇒ same stream on every run).

/// A source of random 32/64-bit words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        (self.next_u32() as u64) << 32 | self.next_u32() as u64
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A deterministic RNG constructible from a seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Creates the RNG from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates the RNG from a 64-bit seed, expanding it with SplitMix64 the
    /// same way upstream `rand` does.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            // SplitMix64 step.
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let len = chunk.len();
            chunk.copy_from_slice(&bytes[..len]);
        }
        Self::from_seed(seed)
    }
}

/// Types that `Rng::gen` can produce uniformly.
pub trait Standard: Sized {
    /// Samples one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1), as in rand's Standard. The
        // value fits in an `i64`, whose conversion is exact and one
        // instruction on baseline x86-64 (the `u64` one is a sequence).
        ((rng.next_u64() >> 11) as i64) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}
impl_standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32,
                   u64 => next_u64, usize => next_u64,
                   i32 => next_u32, i64 => next_u64);

/// Ranges that `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                // Widening multiply, Lemire-style: negligible bias for the
                // small spans used in this workspace.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                let span = (end - start) as u64 + 1;
                if span == 0 {
                    return <$t>::sample_standard(rng); // full domain
                }
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start + hi as $t
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = f64::sample_standard(rng);
        self.start + unit * (self.end - self.start)
    }
}

/// The user-facing sampling interface, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample of `T`'s standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Uniform sample from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli trial with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Sequence-related helpers (`SliceRandom`).

    use super::{Rng, RngCore};

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

/// Re-exports matching `rand::prelude`.
pub mod prelude {
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 so the counter looks random enough for range tests.
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn floats_are_the_top_53_bits_over_two_to_the_53() {
        struct Fixed(u64);
        impl RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                self.0 as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        for word in [0, 1 << 11, 1 << 63, u64::MAX, 0x1234_5678_9abc_def0] {
            let x: f64 = Fixed(word).gen();
            assert_eq!(x, (word >> 11) as f64 / (1u64 << 53) as f64, "{word:#x}");
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(3);
        for _ in 0..1000 {
            let v = rng.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(0.5f64..2.0);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Counter(11);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should move something");
    }
}
