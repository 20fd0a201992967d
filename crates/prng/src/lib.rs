//! A tiny deterministic PRNG for the workspace.
//!
//! Everything random in the simulation — gamma-distributed link latencies,
//! synthetic dataset generation, randomized tests — needs reproducible,
//! seedable streams, not cryptographic strength. This crate provides a
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c)-based generator so
//! the workspace builds fully offline with no external dependencies.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use std::ops::{Range, RangeInclusive};

/// A seedable splitmix64 pseudo-random number generator.
///
/// Splitmix64 passes BigCrush, has a full 2^64 period for any seed, and is
/// a handful of arithmetic instructions per draw — more than enough for
/// simulation workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a 64-bit seed. Identical seeds yield
    /// identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Prng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform double in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `range` (half-open or inclusive integer ranges,
    /// or a half-open `f64` range). Panics on an empty range.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// A range a [`Prng`] can sample uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Prng) -> Self::Output;
}

/// Uniform `u64` in `[0, width)` via Lemire-style multiply-shift (the
/// slight bias at 2^64-scale widths is irrelevant for simulation).
fn below(rng: &mut Prng, width: u64) -> u64 {
    debug_assert!(width > 0);
    ((rng.next_u64() as u128 * width as u128) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                assert!(self.start < self.end, "empty range");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, width) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Prng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let width = (hi as i128 - lo as i128) as u64;
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, width + 1) as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Prng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seed_from_u64(43);
        assert_ne!(Prng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Prng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.gen_range(-3..=3);
            assert!((-3..=3).contains(&x));
            let y = r.gen_range(0..7usize);
            assert!(y < 7);
            let z = r.gen_range(i64::MIN..=i64::MAX);
            let _ = z;
        }
    }

    #[test]
    fn float_range_stays_in_bounds() {
        let mut r = Prng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = r.gen_range(50.0..900.0f64);
            assert!((50.0..900.0).contains(&x));
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut r = Prng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_bool_probability() {
        let mut r = Prng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
    }
}
