//! Seedable deterministic PRNG: xoshiro256++ seeded through SplitMix64.
//!
//! The partitioner needs randomness that is *fast*, *statistically sound
//! for simulation work*, and — above all — *reproducible from a single
//! `u64` seed* across platforms and compiler versions. Reproducible seeded
//! randomization is load-bearing for quality experiments and debugging
//! alike (a failing test prints its seed and the exact run can be
//! replayed). xoshiro256++ (Blackman & Vigna) is the standard choice for
//! exactly this profile; SplitMix64 expands a 64-bit seed into the 256-bit
//! state so that similar seeds still produce uncorrelated streams.
//!
//! The API mirrors the surface the workspace actually uses: construction
//! via [`Rng::seed_from_u64`] / [`Rng::from_seed`], `gen_range`,
//! `gen_bool`, `gen_f64`, and the slice helpers [`SliceRandom::shuffle`] /
//! [`SliceRandom::choose`].

/// Deterministic xoshiro256++ generator.
///
/// Not cryptographically secure — this is a simulation RNG. Cloning
/// duplicates the stream; use [`Rng::split`] for an independent stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Seeds the full 256-bit state from one `u64` via SplitMix64 (the
    /// seeding procedure recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // SplitMix64 never yields four zeros for any input, but guard the
        // all-zero fixed point anyway.
        if s == [0; 4] {
            return Rng { s: [1, 2, 3, 4] };
        }
        Rng { s }
    }

    /// Seeds from 32 raw bytes (little-endian words), mirroring
    /// `SeedableRng::from_seed`. An all-zero seed is remapped off the
    /// generator's fixed point.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        if s == [0; 4] {
            return Self::seed_from_u64(0);
        }
        Rng { s }
    }

    /// The raw 256-bit state, for serialization (hierarchy spill files
    /// persist RNG boundary states so a reloaded snapshot replays the
    /// exact stream).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a serialized state. The all-zero fixed
    /// point (which a corrupt spill file could smuggle in) is remapped
    /// the same way [`Rng::from_seed`] remaps it.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Self::seed_from_u64(0);
        }
        Rng { s }
    }

    /// Next 64 random bits (xoshiro256++ core step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's widening-multiply
    /// rejection method (unbiased, no modulo on the hot path).
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in a half-open `start..end` range (panics when the
    /// range is empty). Implemented for the integer types and `f64` the
    /// workspace samples.
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range.start, range.end)
    }

    /// An independent generator forked off this one's stream (used to hand
    /// each logical processor its own stream without correlations).
    pub fn split(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a half-open range.
pub trait SampleUniform: Copy {
    fn sample(rng: &mut Rng, start: Self, end: Self) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample(rng: &mut Rng, start: Self, end: Self) -> Self {
                assert!(start < end, "gen_range: empty range");
                let span = (end as $wide).wrapping_sub(start as $wide) as u64;
                (start as $wide).wrapping_add(rng.bounded_u64(span) as $wide) as $t
            }
        }
    )*};
}

impl_sample_int!(u8 => u64, u16 => u64, u32 => u64, usize => u64, i32 => i64, i64 => i64, u64 => u64);

impl SampleUniform for f64 {
    #[inline]
    fn sample(rng: &mut Rng, start: Self, end: Self) -> Self {
        assert!(start < end, "gen_range: empty range");
        start + rng.gen_f64() * (end - start)
    }
}

/// Slice extension trait keeping the familiar `v.shuffle(&mut rng)` /
/// `v.choose(&mut rng)` call shape at every migrated call site.
pub trait SliceRandom {
    type Item;
    /// Shuffles the slice in place (Fisher–Yates).
    fn shuffle(&mut self, rng: &mut Rng);
    /// A uniformly chosen element, or `None` for an empty slice.
    fn choose<'a>(&'a self, rng: &mut Rng) -> Option<&'a Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;
    fn shuffle(&mut self, rng: &mut Rng) {
        rng.shuffle(self);
    }
    fn choose<'a>(&'a self, rng: &mut Rng) -> Option<&'a T> {
        rng.choose(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro256pp() {
        // State {1,2,3,4}: first outputs of the reference C implementation.
        let mut seed = [0u8; 32];
        seed[0] = 1;
        seed[8] = 2;
        seed[16] = 3;
        seed[24] = 4;
        let mut rng = Rng::from_seed(seed);
        let expected: [u64; 5] = [41943041, 58720359, 3588806011781223, 3591011842654386, 9228616714210784205];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_all_values() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.gen_range(0..10usize);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let x = rng.gen_range(-100..100i64);
            assert!((-100..100).contains(&x));
            let f = rng.gen_range(2.0..3.0f64);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(1).gen_range(5..5usize);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0 + 1e-9)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Identical seed reproduces the identical permutation.
        let mut rng2 = Rng::seed_from_u64(3);
        let mut w: Vec<u32> = (0..100).collect();
        w.shuffle(&mut rng2);
        assert_eq!(v, w);
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = Rng::seed_from_u64(5);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = items.choose(&mut rng).unwrap();
            seen[items.iter().position(|&i| i == x).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = Rng::seed_from_u64(9);
        let mut a = parent.split();
        let mut b = parent.split();
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn state_round_trip_replays_the_stream() {
        let mut rng = Rng::seed_from_u64(77);
        for _ in 0..13 {
            rng.next_u64();
        }
        let mut replay = Rng::from_state(rng.state());
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), replay.next_u64());
        }
        // The all-zero fixed point must be remapped, not looped on.
        let mut z = Rng::from_state([0; 4]);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
