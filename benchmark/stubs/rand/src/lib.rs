//! Offline stand-in for the slice of `rand` 0.8 that the sorn crates
//! call: `StdRng::seed_from_u64`, `Rng::{gen, gen_range}`,
//! `RngCore::next_u64` and `SliceRandom::shuffle`. The generator is
//! xoshiro256++ seeded through SplitMix64, so streams are stable across
//! platforms but differ from upstream `StdRng` (ChaCha12).

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Ranges `Rng::gen_range` can sample.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + ((rng.next_u64() as u128 * span as u128) >> 64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u128 + 1;
                lo + ((rng.next_u64() as u128 * span) >> 64) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * f64::draw(rng)
    }
}

/// Convenience methods over any generator.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling.
    pub trait SliceRandom {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}
