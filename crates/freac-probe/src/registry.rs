//! The hierarchical counter registry.
//!
//! Every metric lives under a dotted name (`sim.dram.reads`,
//! `cache.llc.hits`, `experiments.pool.jobs_completed`). Three metric
//! kinds cover the stack:
//!
//! * **counters** — monotonic `u64` totals. Deterministic by contract:
//!   anything whose value can vary run-to-run (wall-clock, scheduling)
//!   must not be a counter, so the `counters` section of `metrics.json`
//!   can be diffed against a committed baseline.
//! * **gauges** — point-in-time `f64` values (configuration constants,
//!   rates, wall-clock durations). Merged by maximum.
//! * **histograms** — power-of-two bucketed distributions with exact
//!   count/sum, for per-set access spreads and pass latencies.
//!
//! All maps are `BTreeMap`s so iteration, export, and equality are
//! deterministic. [`CounterRegistry::merge`] is commutative and
//! associative for all three kinds, which is what makes counters
//! identical between 1-worker and N-worker harness runs: the merge order
//! may differ, the merged totals cannot.

use std::collections::BTreeMap;

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// whose bit-width is `i`, i.e. bucket 0 holds zeros and bucket 64 holds
/// values of 2^63 and above.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two bucketed histogram with exact count and sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observed values with bit-width `i`.
    buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of a value: its bit width (0 for 0).
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value bounds `[lo, hi]` of bucket `i` (bucket 0 holds only zeros).
    fn bucket_bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, 0.0)
        } else {
            let lo = 2f64.powi(i as i32 - 1);
            (lo, lo.mul_add(2.0, -1.0))
        }
    }

    /// Value at integer rank `r` (0-based over the sorted observations),
    /// assuming `first`/`last` are the outermost non-empty buckets:
    /// observations inside one bucket are spread linearly across its value
    /// range, with the edge buckets clipped to the exact observed min/max.
    fn value_at_rank(&self, r: u64, first: usize, last: usize) -> f64 {
        let mut below = 0u64;
        for i in first..=last {
            let c = self.buckets[i];
            if c == 0 {
                continue;
            }
            if r < below + c {
                let (mut lo, mut hi) = Self::bucket_bounds(i);
                if i == first {
                    lo = lo.max(self.min as f64);
                }
                if i == last {
                    hi = hi.min(self.max as f64);
                }
                let hi = hi.max(lo);
                let frac = if c == 1 {
                    0.0
                } else {
                    (r - below) as f64 / (c - 1) as f64
                };
                return lo + frac * (hi - lo);
            }
            below += c;
        }
        self.max as f64
    }

    /// Estimated `q`-quantile of the observed values (`q` in `[0, 1]`;
    /// `None` when empty or `q` is out of range).
    ///
    /// The estimate interpolates linearly between the order statistics at
    /// `floor(q * (count - 1))` and `ceil(q * (count - 1))`, where an order
    /// statistic's value is reconstructed from the power-of-two buckets by
    /// spreading each bucket's observations evenly across its value range
    /// (clipped to the exact min/max at the edges). The result is exact
    /// when all observations share one bucket and never leaves
    /// `[min, max]`; quantiles are monotone in `q` and, because merging
    /// just adds bucket counts, the estimate for a merged histogram is
    /// independent of merge order.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let first = self.buckets.iter().position(|&c| c > 0).expect("count > 0");
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .expect("count > 0");
        let rank = q * (self.count - 1) as f64;
        let r0 = rank.floor() as u64;
        let r1 = rank.ceil() as u64;
        let v0 = self.value_at_rank(r0, first, last);
        if r1 == r0 {
            return Some(v0);
        }
        let v1 = self.value_at_rank(r1, first, last);
        Some(v0 + (rank - r0 as f64) * (v1 - v0))
    }

    /// Non-empty `(bucket_index, count)` pairs in ascending bucket order.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Rebuilds a histogram from exported parts (used by the metrics.json
    /// importer). `buckets` holds `(index, count)` pairs.
    pub fn from_parts(
        buckets: &[(usize, u64)],
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Result<Self, String> {
        let mut h = Histogram::default();
        for &(i, c) in buckets {
            if i >= HISTOGRAM_BUCKETS {
                return Err(format!("histogram bucket {i} out of range"));
            }
            h.buckets[i] = c;
            h.count += c;
        }
        h.sum = sum;
        h.min = min.unwrap_or(u64::MAX);
        h.max = max.unwrap_or(0);
        Ok(h)
    }
}

/// A named collection of counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CounterRegistry::default()
    }

    /// Adds `delta` to counter `name` (saturating; created at 0).
    pub fn add(&mut self, name: &str, delta: u64) {
        // One lookup on the hot path (an existing key); the owned key is
        // allocated only on first touch.
        match self.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(delta),
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Adds one to counter `name`.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether counter `name` has been touched.
    pub fn has_counter(&self, name: &str) -> bool {
        self.counters.contains_key(name)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Raises gauge `name` to `value` if larger (the merge rule, usable
    /// directly for high-water marks).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => {
                if value > *g {
                    *g = value;
                }
            }
            None => {
                // A fresh gauge starts at `f64::MIN` and is raised, so a
                // NaN or an even lower value leaves it there.
                let g = if value > f64::MIN { value } else { f64::MIN };
                self.gauges.insert(name.to_owned(), g);
            }
        }
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                self.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// Histogram `name`, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Counter names sharing a dotted `prefix` (e.g. `"sim.dram"`).
    pub fn counters_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        self.counters().filter(move |(k, _)| {
            k.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('.'))
        })
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges take the maximum,
    /// histograms merge bucket-wise. Commutative and associative, so
    /// merge order (i.e. worker scheduling) cannot change the result.
    pub fn merge(&mut self, other: &CounterRegistry) {
        for (k, &v) in &other.counters {
            let c = self.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(v);
        }
        for (k, &v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(f64::MIN);
            if v > *g {
                *g = v;
            }
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Folds `other` into `self` with every metric name prefixed by
    /// `prefix` (e.g. `"cluster.shard.0."`): counters add, gauges take the
    /// maximum, histograms merge bucket-wise — the same rules as
    /// [`CounterRegistry::merge`], shifted into a namespace. Because the
    /// invariant checker keys off name *suffixes*, namespacing a shard's
    /// registry this way keeps its conservation laws checkable inside the
    /// combined registry, alongside the un-prefixed cluster rollup.
    pub fn merge_namespaced(&mut self, prefix: &str, other: &CounterRegistry) {
        for (k, &v) in &other.counters {
            let c = self.counters.entry(format!("{prefix}{k}")).or_insert(0);
            *c = c.saturating_add(v);
        }
        for (k, &v) in &other.gauges {
            let g = self
                .gauges
                .entry(format!("{prefix}{k}"))
                .or_insert(f64::MIN);
            if v > *g {
                *g = v;
            }
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(format!("{prefix}{k}"))
                .or_default()
                .merge(h);
        }
    }

    /// Inserts a counter at an absolute value (importer use).
    pub(crate) fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Inserts a histogram wholesale (importer use).
    pub(crate) fn insert_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_owned(), h);
    }

    /// Merges a standalone histogram into the named histogram, creating it
    /// if absent — for exporting distributions assembled outside any
    /// registry (e.g. the sampled-serving latency mixture).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms.entry(name.to_owned()).or_default().merge(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut r = CounterRegistry::new();
        r.add("a.b", 3);
        r.inc("a.b");
        assert_eq!(r.counter("a.b"), 4);
        assert_eq!(r.counter("missing"), 0);
        r.add("a.b", u64::MAX);
        assert_eq!(r.counter("a.b"), u64::MAX);
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn quantiles_of_a_constant_are_exact() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.observe(7);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7.0), "q={q}");
        }
        assert_eq!(Histogram::default().quantile(0.5), None);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_min_max() {
        let mut h = Histogram::default();
        for v in [0, 1, 3, 9, 40, 41, 1000, 65_000, 1 << 40] {
            h.observe(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantiles must be monotone in q at q={q}");
            assert!((0.0..=(1u64 << 40) as f64).contains(&v));
            prev = v;
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some((1u64 << 40) as f64));
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // 1..=100 uniform: the p50 target rank 49.5 lands in bucket 6
        // (values 32..=63, 32 observations, 31 smaller values before it),
        // so the interpolated estimate must sit inside that bucket and
        // within a bucket-width of the true median 50.5.
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((32.0..=63.0).contains(&p50), "p50={p50}");
        assert!((p50 - 50.5).abs() <= 32.0);
        // The extreme quantiles clip to the exact observations.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        let p99 = h.quantile(0.99).unwrap();
        assert!((64.0..=100.0).contains(&p99), "p99={p99}");
    }

    #[test]
    fn quantiles_survive_merge_commutativity() {
        // Quantiles are a pure function of the merged buckets/min/max, so
        // a+b and b+a must agree bit-for-bit at every probed q.
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 0..200u64 {
            a.observe(i * i % 977);
            b.observe((i * 31) % (1 << 20));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(ab.quantile(q), ba.quantile(q), "q={q}");
        }
        // And merging cannot move a quantile outside the union's range.
        assert_eq!(ab.quantile(0.0), Some(0.0));
        assert_eq!(ab.quantile(1.0).unwrap(), ab.max().unwrap() as f64);
    }

    /// Relative tolerance for the bracket property: within-bucket linear
    /// interpolation computes the same real number along different float
    /// paths on the two sides, so equality at the bracket edge can be off
    /// by a few ulps.
    fn bracket_eps(lo: f64, hi: f64) -> f64 {
        1e-9 * (1.0 + lo.abs().max(hi.abs()))
    }

    /// Asserts `merge(a, b)`'s quantile lies between the per-source
    /// quantiles at every probed `q` — the cross-shard merge contract.
    fn assert_quantiles_bracket(a: &Histogram, b: &Histogram) {
        let mut m = a.clone();
        m.merge(b);
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            let qa = a.quantile(q).unwrap();
            let qb = b.quantile(q).unwrap();
            let qm = m.quantile(q).unwrap();
            let (lo, hi) = (qa.min(qb), qa.max(qb));
            let eps = bracket_eps(lo, hi);
            assert!(
                qm >= lo - eps && qm <= hi + eps,
                "merged q{q} = {qm} outside per-source bracket [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn merged_quantiles_bracket_per_source_quantiles() {
        // Disjoint buckets: one source entirely below the other.
        let mut low = Histogram::default();
        let mut high = Histogram::default();
        for i in 0..50u64 {
            low.observe(i % 16);
            high.observe(1_000 + i * 37);
        }
        assert_quantiles_bracket(&low, &high);

        // Same bucket, different values (the spread estimator's worst
        // case: per-source min/max clips differ from the merged clip).
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for _ in 0..100 {
            a.observe(64);
            b.observe(127);
        }
        a.observe(32); // widen a's clip to the bucket floor
        assert_quantiles_bracket(&a, &b);

        // Lopsided counts: one observation vs. a heavy distribution.
        let mut single = Histogram::default();
        single.observe(50);
        let mut heavy = Histogram::default();
        for i in 0..1_000u64 {
            heavy.observe((i * i) % 4_096);
        }
        assert_quantiles_bracket(&single, &heavy);
        assert_quantiles_bracket(&heavy, &single);

        // Edge buckets: zeros on one side, near-saturated on the other.
        let mut zeros = Histogram::default();
        let mut huge = Histogram::default();
        for _ in 0..10 {
            zeros.observe(0);
            huge.observe(u64::MAX - 7);
        }
        assert_quantiles_bracket(&zeros, &huge);
    }

    /// The bucket-resolution bracket: within-bucket smearing can push a
    /// merged quantile outside the strict per-source bracket, but the
    /// rank→bucket mapping is exact, so the estimate can never stray more
    /// than one power-of-two bucket (a factor of 2) beyond it.
    fn assert_quantiles_bracket_within_bucket_resolution(a: &Histogram, b: &Histogram) {
        let mut m = a.clone();
        m.merge(b);
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            let qa = a.quantile(q).unwrap();
            let qb = b.quantile(q).unwrap();
            let qm = m.quantile(q).unwrap();
            let (lo, hi) = (qa.min(qb), qa.max(qb));
            let eps = bracket_eps(lo, hi);
            assert!(
                qm >= lo / 2.0 - 1.0 - eps && qm <= hi * 2.0 + 1.0 + eps,
                "merged q{q} = {qm} more than a bucket outside per-source bracket [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn merged_quantiles_bracket_on_adversarial_spreads() {
        // A bucket-boundary comb against a mid-bucket spike: every comb
        // value is a power of two (the loneliest point of its bucket),
        // merged with 500 observations at the top of one shared bucket.
        // The merged histogram smears those 501 same-bucket entries across
        // the bucket's whole value range, so the strict bracket can fail —
        // but only within the shared bucket, never beyond it.
        let mut comb = Histogram::default();
        for i in 0..20u32 {
            comb.observe(1u64 << i);
        }
        let mut spike = Histogram::default();
        for _ in 0..500 {
            spike.observe((1u64 << 10) - 1);
        }
        assert_quantiles_bracket_within_bucket_resolution(&comb, &spike);

        // Identical shapes shifted by one bucket.
        let mut even = Histogram::default();
        let mut odd = Histogram::default();
        for i in 0..64u64 {
            even.observe(1 << (2 * (i % 8)));
            odd.observe(2 << (2 * (i % 8)));
        }
        assert_quantiles_bracket_within_bucket_resolution(&even, &odd);
    }

    #[test]
    fn merge_namespaced_prefixes_every_metric() {
        let mut shard = CounterRegistry::new();
        shard.add("serve.requests.submitted", 5);
        shard.set_gauge("serve.ways.compute", 8.0);
        shard.observe("serve.latency_ps", 300);

        let mut cluster = CounterRegistry::new();
        cluster.add("cluster.steals", 1);
        cluster.merge_namespaced("cluster.shard.0.", &shard);
        cluster.merge_namespaced("cluster.shard.0.", &shard);

        assert_eq!(
            cluster.counter("cluster.shard.0.serve.requests.submitted"),
            10
        );
        assert_eq!(cluster.counter("serve.requests.submitted"), 0);
        assert_eq!(
            cluster.gauge("cluster.shard.0.serve.ways.compute"),
            Some(8.0)
        );
        assert_eq!(
            cluster
                .histogram("cluster.shard.0.serve.latency_ps")
                .unwrap()
                .count(),
            2
        );
        // The un-namespaced rollup is untouched.
        assert_eq!(cluster.counter("cluster.steals"), 1);

        // Namespaced-merge then plain-merge equals plain-merge of the
        // namespaced copy: the prefix is pure renaming.
        let mut direct = CounterRegistry::new();
        direct.add("cluster.shard.0.serve.requests.submitted", 10);
        assert_eq!(
            cluster.counter("cluster.shard.0.serve.requests.submitted"),
            direct.counter("cluster.shard.0.serve.requests.submitted")
        );
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = CounterRegistry::new();
        a.add("c", 2);
        a.set_gauge("g", 1.5);
        a.observe("h", 7);
        let mut b = CounterRegistry::new();
        b.add("c", 5);
        b.add("only_b", 1);
        b.set_gauge("g", 0.5);
        b.observe("h", 900);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 7);
        assert_eq!(ab.gauge("g"), Some(1.5));
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn counters_under_prefix() {
        let mut r = CounterRegistry::new();
        r.add("sim.dram.reads", 1);
        r.add("sim.dram.writes", 2);
        r.add("sim.dramx.other", 3);
        r.add("cache.hits", 4);
        let names: Vec<_> = r.counters_under("sim.dram").map(|(k, _)| k).collect();
        assert_eq!(names, vec!["sim.dram.reads", "sim.dram.writes"]);
    }

    #[test]
    fn first_insert_only_allocation_keeps_registry_and_export() {
        // The entry-API form gauge_max and observe used to spell out (one
        // owned key per call); the borrowed-key lookup must build the same
        // maps, including a negative or NaN first gauge value against the
        // f64::MIN seed, and export the same metrics.json bytes.
        let mut owned = CounterRegistry::new();
        let mut borrowed = CounterRegistry::new();
        let gauges = [
            ("neg", -3.5),
            ("neg", -7.0),
            ("neg", -1.0),
            ("nan", f64::NAN),
            ("floor", f64::MIN),
            ("pos", 2.0),
            ("pos", 1.0),
        ];
        for (name, v) in gauges {
            let g = owned.gauges.entry(name.to_owned()).or_insert(f64::MIN);
            if v > *g {
                *g = v;
            }
            borrowed.gauge_max(name, v);
        }
        for (i, v) in [0u64, 9, 9, 1_000, u64::MAX, 3].into_iter().enumerate() {
            let name = ["h.a", "h.b"][i % 2];
            owned
                .histograms
                .entry(name.to_owned())
                .or_default()
                .observe(v);
            borrowed.observe(name, v);
        }
        assert_eq!(borrowed, owned);
        assert_eq!(borrowed.gauge("neg"), Some(-1.0));
        assert_eq!(borrowed.gauge("nan"), Some(f64::MIN));
        assert_eq!(borrowed.histogram("h.a").unwrap().count(), 3);
        assert_eq!(
            crate::to_metrics_json(&borrowed),
            crate::to_metrics_json(&owned)
        );
    }

    #[test]
    fn gauge_merge_takes_max() {
        let mut r = CounterRegistry::new();
        r.gauge_max("w", 3.0);
        r.gauge_max("w", 2.0);
        assert_eq!(r.gauge("w"), Some(3.0));
    }
}
