//! Probe tallies: the serving loop's per-request counters, high-water
//! gauges and histograms, kept in plain fields while the loop runs and
//! written to a [`CounterRegistry`] once per report.
//!
//! A registry key exists once it has been touched, even at value 0, so a
//! tally remembers whether it was touched and a flush creates exactly the
//! keys (and values) the same calls made on the registry directly would
//! have. Flushing resets the tally, so registry counters stay cumulative
//! across reports while each report adds only what happened since the
//! last.

use freac_probe::{CounterRegistry, Histogram};

/// A counter tallied between reports: `None` until first touched.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Count(Option<u64>);

impl Count {
    /// Adds `delta` (saturating, as [`CounterRegistry::add`] does).
    pub(crate) fn add(&mut self, delta: u64) {
        let c = self.0.get_or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Adds one.
    pub(crate) fn inc(&mut self) {
        self.add(1);
    }

    /// Adds the tally to counter `name`, if touched, and resets it.
    pub(crate) fn flush(&mut self, probes: &mut CounterRegistry, name: &str) {
        if let Some(v) = self.0.take() {
            probes.add(name, v);
        }
    }
}

/// A high-water gauge tallied between reports: `None` until first raised.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HighWater(Option<f64>);

impl HighWater {
    /// Raises the mark to `value` if larger, by the rule of
    /// [`CounterRegistry::gauge_max`].
    pub(crate) fn raise(&mut self, value: f64) {
        let g = self.0.get_or_insert(f64::MIN);
        if value > *g {
            *g = value;
        }
    }

    /// Raises gauge `name` to the mark, if raised, and resets it.
    pub(crate) fn flush(&mut self, probes: &mut CounterRegistry, name: &str) {
        if let Some(v) = self.0.take() {
            probes.gauge_max(name, v);
        }
    }
}

/// Merges `h` into histogram `name`, if anything was observed, and resets
/// it. Merging adds buckets, counts and (saturating) sums, so the result
/// equals observing each value into the registry directly.
pub(crate) fn flush_histogram(h: &mut Histogram, probes: &mut CounterRegistry, name: &str) {
    if h.count() > 0 {
        probes.merge_histogram(name, &std::mem::take(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_build_the_registry_direct_calls_build() {
        let mut direct = CounterRegistry::new();
        let mut tallied = CounterRegistry::new();
        let (mut zero, mut n, mut untouched) =
            (Count::default(), Count::default(), Count::default());
        let mut hw = HighWater::default();
        let mut h = Histogram::default();
        for report in 0..2u64 {
            direct.add("zero", 0);
            zero.add(0);
            for v in [3, u64::MAX, 1 + report] {
                direct.add("n", v);
                n.add(v);
                direct.gauge_max("hw", v as f64 - 1e30);
                hw.raise(v as f64 - 1e30);
                direct.observe("h", v);
                h.observe(v);
            }
            zero.flush(&mut tallied, "zero");
            n.flush(&mut tallied, "n");
            untouched.flush(&mut tallied, "untouched");
            hw.flush(&mut tallied, "hw");
            flush_histogram(&mut h, &mut tallied, "h");
            flush_histogram(&mut Histogram::default(), &mut tallied, "empty");
            assert_eq!(tallied, direct, "after report {report}");
        }
        assert!(tallied.has_counter("zero"));
        assert!(!tallied.has_counter("untouched"));
        assert!(tallied.histogram("empty").is_none());
        assert_eq!(tallied.counter("n"), u64::MAX);
        assert_eq!(tallied.histogram("h").unwrap().count(), 6);
    }
}
