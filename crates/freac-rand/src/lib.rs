//! A dependency-free deterministic PRNG and a small property-test loop.
//!
//! The workspace builds in hermetic environments with no registry access,
//! so the external `rand`/`proptest` crates are replaced by this minimal
//! local equivalent: a [SplitMix64] generator (full 2^64 period over its
//! state, passes BigCrush as a 64-bit mixer) plus [`cases`], a seeded loop
//! that stands in for property-based test harnesses. Everything is
//! deterministic by construction — the same seed always produces the same
//! stream, which the evaluation harness relies on for reproducible
//! workload data.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

#![forbid(unsafe_code)]

/// A deterministic 64-bit PRNG (SplitMix64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator seeded with `seed`. Distinct seeds give uncorrelated
    /// streams; the same seed always gives the same stream.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 uniform bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `[0, bound)` — `bound` itself is never returned —
    /// via the multiply-shift reduction (bias below 2^-32 for any bound that
    /// fits in 32 bits).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero (the range `[0, 0)` holds no values).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(
            bound > 0,
            "Rng64::below: bound must be non-zero (the range [0, 0) is empty)"
        );
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform `usize` in `[0, bound)` — `bound` itself is never returned.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero (the range `[0, 0)` holds no values).
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(
            bound > 0,
            "Rng64::index: bound must be non-zero (the range [0, 0) is empty)"
        );
        self.below(bound as u64) as usize
    }

    /// A uniform value in `[lo, hi)`: `lo` is inclusive, `hi` is exclusive,
    /// so `range_u64(a, a + 1)` always returns `a` and `hi` itself is never
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` (the half-open range is empty).
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(
            lo < hi,
            "Rng64::range_u64: empty range {lo}..{hi} (lo inclusive, hi exclusive)"
        );
        lo + self.below(hi - lo)
    }

    /// A uniform `u32` in `[lo, hi)`: `lo` inclusive, `hi` exclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` (the half-open range is empty).
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(
            lo < hi,
            "Rng64::range_u32: empty range {lo}..{hi} (lo inclusive, hi exclusive)"
        );
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// A uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fills `buf` with uniform bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }

    /// `n` uniform 32-bit words below `limit`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn words(&mut self, n: usize, limit: u32) -> Vec<u32> {
        assert!(limit > 0, "limit must be positive");
        (0..n).map(|_| self.range_u32(0, limit)).collect()
    }

    /// One element of `choices`, uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty (use [`Self::choose`] for a
    /// non-panicking variant).
    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        assert!(
            !choices.is_empty(),
            "Rng64::pick: cannot pick from an empty slice"
        );
        &choices[self.index(choices.len())]
    }

    /// One element of `choices`, uniformly, or `None` when the slice is
    /// empty.
    pub fn choose<'a, T>(&mut self, choices: &'a [T]) -> Option<&'a T> {
        if choices.is_empty() {
            None
        } else {
            Some(&choices[self.index(choices.len())])
        }
    }

    /// Shuffles `items` in place (Fisher–Yates); every permutation is
    /// equally likely and the result is a function of the seed alone.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// An index into `weights` with probability proportional to its weight.
    /// Zero-weight entries are never picked.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or all weights are zero (no pickable
    /// entry).
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(
            total > 0,
            "Rng64::weighted: weights must be non-empty with a non-zero sum"
        );
        let mut x = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        unreachable!("below(total) is always less than the summed weights")
    }

    /// An index into `weights` with probability proportional to its
    /// (non-negative, finite) float weight — the seeding step of k-medoids++
    /// draws by squared distance, which is naturally a float. Zero-weight
    /// entries are never picked; when every weight is zero the pick falls
    /// back to uniform so callers need no special case for degenerate
    /// inputs (e.g. all-identical signature windows).
    ///
    /// Deterministic: the draw uses 53 uniform bits scaled into `[0, total)`
    /// and a left-to-right prefix walk, all in plain IEEE arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is negative or non-finite.
    pub fn weighted_f64(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "Rng64::weighted_f64: weights must be non-empty"
        );
        let mut total = 0.0f64;
        for &w in weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "Rng64::weighted_f64: weights must be finite and non-negative, got {w}"
            );
            total += w;
        }
        if total <= 0.0 {
            return self.index(weights.len());
        }
        // 53 uniform bits in [0, 1), the full precision of an f64 mantissa.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut x = unit * total;
        let mut last_nonzero = 0;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                if x < w {
                    return i;
                }
                last_nonzero = i;
            }
            x -= w;
        }
        // Float prefix-sum round-off can leave a sliver past the last
        // positive weight; land on it rather than a zero-weight entry.
        last_nonzero
    }
}

/// A stable 64-bit seed derived from a string (FNV-1a), for per-name
/// deterministic streams.
pub fn seed_from_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Runs `body` for `n` deterministic cases, each with its own generator.
///
/// This is the local stand-in for a property-test harness: the case index
/// is folded into the seed so every case sees an independent stream, and a
/// failure message can name the case by re-running with the same seed.
pub fn cases(n: usize, seed: u64, mut body: impl FnMut(&mut Rng64)) {
    for case in 0..n {
        let mut rng = Rng64::new(seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        body(&mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..16)
            .map({
                let mut r = Rng64::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..16)
            .map({
                let mut r = Rng64::new(42);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn range_covers_extremes() {
        let mut r = Rng64::new(9);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.range_u64(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = Rng64::new(11);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "vanishing odds of all-zero");
    }

    #[test]
    fn seed_from_name_is_stable_and_distinct() {
        assert_eq!(seed_from_name("aes"), seed_from_name("aes"));
        assert_ne!(seed_from_name("aes"), seed_from_name("gemm"));
    }

    #[test]
    fn cases_run_the_requested_count() {
        let mut count = 0;
        cases(32, 5, |_| count += 1);
        assert_eq!(count, 32);
    }

    #[test]
    fn below_is_exclusive_of_the_bound() {
        // A singleton bound pins the exclusivity: [0, 1) only holds 0.
        let mut r = Rng64::new(13);
        for _ in 0..1000 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    fn range_is_lo_inclusive_hi_exclusive() {
        let mut r = Rng64::new(17);
        // Singleton range: hi is exclusive, so [7, 8) only holds 7.
        for _ in 0..1000 {
            assert_eq!(r.range_u64(7, 8), 7);
            assert_eq!(r.range_u32(7, 8), 7);
        }
        // Both endpoints of the closed interval [5, 8] are reachable and 9
        // (== hi) never appears.
        let mut saw_lo = false;
        let mut saw_hi_minus_one = false;
        for _ in 0..4000 {
            let v = r.range_u32(5, 9);
            assert!((5..9).contains(&v), "{v} outside [5, 9)");
            saw_lo |= v == 5;
            saw_hi_minus_one |= v == 8;
        }
        assert!(saw_lo && saw_hi_minus_one, "both end values reachable");
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn below_zero_bound_panics_with_clear_message() {
        Rng64::new(0).below(0);
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn index_zero_bound_panics_with_clear_message() {
        Rng64::new(0).index(0);
    }

    #[test]
    #[should_panic(expected = "empty range 5..5")]
    fn empty_range_panics_with_clear_message() {
        Rng64::new(0).range_u64(5, 5);
    }

    #[test]
    fn choose_handles_empty_and_matches_pick_semantics() {
        let mut r = Rng64::new(21);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items).unwrap()));
        }
    }

    #[test]
    fn shuffle_is_a_deterministic_permutation() {
        let mut a: Vec<u32> = (0..32).collect();
        let mut b: Vec<u32> = (0..32).collect();
        Rng64::new(99).shuffle(&mut a);
        Rng64::new(99).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "no element lost");
        assert_ne!(
            a,
            (0..32).collect::<Vec<_>>(),
            "32 elements virtually never fixed"
        );
    }

    #[test]
    fn weighted_never_picks_zero_weights_and_tracks_proportions() {
        let mut r = Rng64::new(33);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.weighted(&[0, 1, 0, 3])] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        assert!(counts[3] > counts[1], "weight 3 beats weight 1");
        assert!(counts[1] > 0);
    }

    #[test]
    #[should_panic(expected = "non-zero sum")]
    fn weighted_all_zero_panics_with_clear_message() {
        Rng64::new(0).weighted(&[0, 0]);
    }

    #[test]
    fn weighted_f64_never_picks_zero_weights_and_tracks_proportions() {
        let mut r = Rng64::new(77);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[r.weighted_f64(&[0.0, 0.5, 0.0, 1.5])] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        assert!(counts[3] > counts[1], "weight 1.5 beats weight 0.5");
        assert!(counts[1] > 0);
    }

    #[test]
    fn weighted_f64_all_zero_falls_back_to_uniform() {
        let mut r = Rng64::new(5);
        let mut seen = [false; 3];
        for _ in 0..256 {
            seen[r.weighted_f64(&[0.0, 0.0, 0.0])] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn weighted_f64_is_deterministic() {
        let w = [0.25, 1.0, 2.25, 0.125];
        let a: Vec<usize> = {
            let mut r = Rng64::new(9);
            (0..64).map(|_| r.weighted_f64(&w)).collect()
        };
        let b: Vec<usize> = {
            let mut r = Rng64::new(9);
            (0..64).map(|_| r.weighted_f64(&w)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn weighted_f64_rejects_negative_weights() {
        Rng64::new(0).weighted_f64(&[1.0, -0.5]);
    }
}
