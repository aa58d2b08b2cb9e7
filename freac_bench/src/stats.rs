//! Order statistics for benchmark samples and the paired A/B rule.
//!
//! Simulated latency quantiles use the nearest-rank definition over the
//! exact per-request values ([`nearest_rank`]), so they repeat bit for bit
//! for a seed. Host-time samples are summarized by [`Summary`], whose
//! quartiles follow the "exclusive" interpolation of Python's
//! `statistics.quantiles` — the definition the run-to-run spread of the
//! benchmark is judged by.

/// The nearest-rank `q`-quantile of ascending `sorted` values: the
/// smallest value with at least `q × n` values at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "nearest_rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-quantile of ascending `sorted` by exclusive interpolation
/// (position `p × (n + 1)`, clamped to the inner pairs — identical to
/// `statistics.quantiles(xs, n=4)` for the quartiles).
fn exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n + 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let j = (h.floor().max(0.0) as usize).clamp(1, n - 1);
    let delta = h - j as f64;
    sorted[j - 1] * (1.0 - delta) + sorted[j] * delta
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "summary of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Location and spread of a sample of host measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Summary {
    /// Summarizes `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Summary {
        let s = sorted(xs);
        let m = median(&s);
        let dev: Vec<f64> = s.iter().map(|x| (x - m).abs()).collect();
        Summary {
            n: s.len(),
            median: m,
            p10: exclusive(&s, 0.10),
            p90: exclusive(&s, 0.90),
            q1: exclusive(&s, 0.25),
            q3: exclusive(&s, 0.75),
            mad: median(&dev),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (latency, set-up time, memory).
    Lower,
}

/// Minimum paired runs before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// The outcome of a paired parent-vs-change comparison of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct AbVerdict {
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won strictly (ties count for neither side).
    pub wins: usize,
    /// The parent's runs.
    pub parent: Summary,
    /// The change's runs.
    pub change: Summary,
    /// Whether the change is a gain by the rule: at least
    /// [`MIN_PAIRS`] pairs, wins in at least nine tenths of them, and a
    /// median gap in the improving direction wider than the parent's IQR.
    pub gain: bool,
}

/// Applies the paired A/B rule to `(parent, change)` measurements, one
/// pair per alternating run.
///
/// # Panics
///
/// Panics if `pairs` is empty.
pub fn ab_compare(pairs: &[(f64, f64)], better: Better) -> AbVerdict {
    let improves = |parent: f64, change: f64| match better {
        Better::Higher => change > parent,
        Better::Lower => change < parent,
    };
    let wins = pairs.iter().filter(|&&(p, c)| improves(p, c)).count();
    let parent = Summary::of(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let change = Summary::of(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    let gain = pairs.len() >= MIN_PAIRS
        && wins * 10 >= pairs.len() * 9
        && improves(parent.median, change.median)
        && (change.median - parent.median).abs() > parent.iqr();
    AbVerdict {
        pairs: pairs.len(),
        wins,
        parent,
        change,
        gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert!((s.q1 - 2.75).abs() < 1e-12, "{s:?}");
        assert!((s.q3 - 8.25).abs() < 1e-12, "{s:?}");
        assert_eq!(s.median, 5.5);
        assert!((s.iqr() - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (1.0, 4.0));
        // Two points extrapolate like Python: quantiles([1, 2]) ==
        // [0.75, 1.5, 2.25].
        let s = Summary::of(&[1.0, 2.0]);
        assert!((s.q1 - 0.75).abs() < 1e-12 && (s.q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn spread_statistics_are_ordered_and_robust() {
        let mut xs: Vec<f64> = (1..=20).map(f64::from).collect();
        xs.push(1e9); // one wild outlier
        let s = Summary::of(&xs);
        assert!(s.p10 <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.p90);
        assert_eq!(s.median, 11.0);
        assert_eq!(s.mad, 5.0, "MAD ignores the outlier");
        assert_eq!(Summary::of(&[5.0]).mad, 0.0);
    }

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn a_consistent_wide_win_is_a_gain() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.10).collect();
        let v = ab_compare(&pairs(&parent, &change), Better::Higher);
        assert_eq!((v.pairs, v.wins), (10, 10));
        assert!(v.gain);
        // The same numbers read as a latency are a loss, not a gain.
        assert!(!ab_compare(&pairs(&parent, &change), Better::Lower).gain);
    }

    #[test]
    fn too_few_pairs_or_wins_or_too_small_a_gap_is_no_gain() {
        let parent = [100.0; 12];
        let change = [110.0; 12];
        assert!(!ab_compare(&pairs(&parent[..9], &change[..9]), Better::Higher).gain);
        assert!(ab_compare(&pairs(&parent[..10], &change[..10]), Better::Higher).gain);

        // Two losses in ten: 8/10 < 9/10.
        let mut change2 = [110.0; 10];
        change2[0] = 90.0;
        change2[1] = 90.0;
        assert!(!ab_compare(&pairs(&parent[..10], &change2), Better::Higher).gain);

        // Ties count for neither side: one tie in ten leaves 9/10 wins.
        let mut change3 = [110.0; 10];
        change3[0] = 100.0;
        let v = ab_compare(&pairs(&parent[..10], &change3), Better::Higher);
        assert_eq!(v.wins, 9);
        assert!(v.gain);

        // Every pair won, but the parent's own spread swallows the gap.
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0,
        ];
        let nudged: Vec<f64> = noisy.iter().map(|p| p + 1.0).collect();
        let v = ab_compare(&pairs(&noisy, &nudged), Better::Higher);
        assert_eq!(v.wins, 10);
        assert!(
            !v.gain,
            "gap 1.0 is inside the parent IQR {}",
            v.parent.iqr()
        );
    }
}
