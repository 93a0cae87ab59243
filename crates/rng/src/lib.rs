//! Deterministic, dependency-free random numbers for the DAMQ simulators.
//!
//! The crates registry is not reachable from the build environment, so the
//! workspace cannot depend on the external `rand` crate. This crate
//! re-implements, with zero dependencies, exactly the surface the
//! simulators use — and mirrors `rand`'s module layout (`rngs::StdRng`,
//! the [`Rng`] and [`SeedableRng`] traits, `random_bool`, `random_range`)
//! so the simulation code imports it under the dependency name `rand` and
//! compiles unchanged.
//!
//! The generator is xoshiro256\*\* seeded through SplitMix64 — the
//! standard pairing recommended by its authors. It is *not* cryptographic;
//! it is a fast, high-quality simulation PRNG with a fixed, documented
//! algorithm, which is what reproducible experiments need: the same seed
//! produces the same packet stream on every platform, forever.
//!
//! # Examples
//!
//! ```
//! use damq_rng::rngs::StdRng;
//! use damq_rng::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let die = rng.random_range(1..=6usize);
//! assert!((1..=6).contains(&die));
//! let p = rng.random_bool(0.5);
//! let again = StdRng::seed_from_u64(42).random_range(1..=6usize);
//! assert_eq!(die, again); // same seed, same stream
//! # let _ = p;
//! ```

#![deny(missing_docs)]

/// Seeding interface: construct a generator from a `u64`.
///
/// Mirrors the method of `rand::SeedableRng` that the simulators call.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling interface over a raw `u64` stream.
///
/// All provided methods are deterministic functions of the underlying
/// stream, so two generators with equal state produce equal samples.
pub trait Rng {
    /// Returns the next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Returns the next value as a uniform `f64` in `[0, 1)` with 53 bits
    /// of precision.
    fn next_f64(&mut self) -> f64 {
        // Top 53 bits scaled by 2^-53: the standard uniform-double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// Samples uniformly from `range` (see [`SampleRange`] for the
    /// supported range types).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// A range type [`Rng::random_range`] can sample from.
pub trait SampleRange {
    /// The sampled value's type.
    type Output;

    /// Draws one uniform sample from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Maps a raw draw onto `0..span` without modulo bias worth caring about
/// for simulation use (Lemire's multiply-shift reduction).
fn reduce(raw: u64, span: u64) -> u64 {
    ((raw as u128 * span as u128) >> 64) as u64
}

impl SampleRange for core::ops::Range<usize> {
    type Output = usize;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample an empty range");
        let span = (self.end - self.start) as u64;
        self.start + reduce(rng.next_u64(), span) as usize
    }
}

impl SampleRange for core::ops::RangeInclusive<usize> {
    type Output = usize;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample an empty range");
        let span = (end - start) as u64 + 1;
        // span can never be 0 here: end - start <= usize::MAX fits u64
        // only on 64-bit targets, where +1 wraps only for the full range —
        // which no caller uses; guard anyway.
        if span == 0 {
            return start + reduce(rng.next_u64(), u64::MAX) as usize;
        }
        start + reduce(rng.next_u64(), span) as usize
    }
}

impl SampleRange for core::ops::Range<u64> {
    type Output = u64;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + reduce(rng.next_u64(), self.end - self.start)
    }
}

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard simulation generator: xoshiro256\*\*.
    ///
    /// Unlike `rand`'s `StdRng` (which explicitly reserves the right to
    /// change algorithm between releases) this generator is pinned: seeds
    /// written into experiment configs keep reproducing the same streams.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed, per the xoshiro authors'
            // recommendation; guarantees a non-zero state.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** by Blackman & Vigna (public domain).
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.random_range(5..10usize);
            assert!((5..10).contains(&x));
            let y = rng.random_range(5..=10usize);
            assert!((5..=10).contains(&y));
            let f = rng.random_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn bool_probabilities_are_sane() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!(0..1000).any(|_| rng.random_bool(0.0)));
        assert!((0..1000).all(|_| rng.random_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.random_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn uniformity_over_a_small_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = StdRng::seed_from_u64(0).random_range(3..3usize);
    }
}
