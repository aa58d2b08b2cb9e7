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
//!
//! [`Probes`] applies the same rule to the process-wide probe: a report
//! exports to it only what was recorded since the same registry's last
//! report.

use freac_probe::{CounterRegistry, Histogram};

/// A server's or cluster's registry, with what the global probe has not
/// seen yet kept apart.
///
/// While a global probe is active and this registry exports to it, writes
/// land in `fresh`, and [`Probes::export`] folds them into `total` and
/// into the global probe. Otherwise (the probe off, or a timing-only
/// server or cluster) `fresh` is `None` and writes go straight to
/// `total`, so nothing extra runs. Either way `total` ends up with the
/// keys and values the same writes made directly would have left.
#[derive(Debug, Clone)]
pub(crate) struct Probes {
    total: CounterRegistry,
    fresh: Option<CounterRegistry>,
}

impl Probes {
    /// An empty registry that exports to the global probe, if one is
    /// active.
    pub(crate) fn new() -> Self {
        Probes {
            total: CounterRegistry::new(),
            fresh: freac_probe::global::enabled().then(CounterRegistry::new),
        }
    }

    /// Stops exporting: later writes go straight to the total, and no
    /// report exports to the global probe.
    pub(crate) fn stop_exporting(&mut self) {
        if let Some(fresh) = self.fresh.take() {
            self.total.merge(&fresh);
        }
    }

    /// Where writes go until the next [`Probes::export`].
    pub(crate) fn sink(&mut self) -> &mut CounterRegistry {
        self.fresh.as_mut().unwrap_or(&mut self.total)
    }

    /// Sets a snapshot gauge: the total holds `value` whatever it held
    /// before, and the next export raises the global gauge to it.
    pub(crate) fn set_gauge(&mut self, name: &str, value: f64) {
        self.total.set_gauge(name, value);
        if let Some(fresh) = &mut self.fresh {
            fresh.set_gauge(name, value);
        }
    }

    /// Folds everything written since the last export into the total and
    /// into the global probe, and returns the total.
    pub(crate) fn export(&mut self) -> &CounterRegistry {
        if let Some(fresh) = &mut self.fresh {
            let fresh = std::mem::take(fresh);
            self.total.merge(&fresh);
            freac_probe::global::merge(&fresh);
        }
        &self.total
    }

    /// The total as of the last export.
    #[cfg(test)]
    pub(crate) fn total(&self) -> &CounterRegistry {
        &self.total
    }
}

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
    fn exports_leave_the_total_direct_writes_leave() {
        let mut direct = CounterRegistry::new();
        let mut kept = Probes {
            total: CounterRegistry::new(),
            fresh: Some(CounterRegistry::new()),
        };
        for (ways, n) in [(8.0, 3u32), (4.0, 0)] {
            direct.add("n", u64::from(n));
            kept.sink().add("n", u64::from(n));
            direct.gauge_max("hw", f64::from(n));
            kept.sink().gauge_max("hw", f64::from(n));
            direct.observe("h", u64::from(n));
            kept.sink().observe("h", u64::from(n));
            // A snapshot gauge may fall between reports.
            direct.set_gauge("ways", ways);
            kept.set_gauge("ways", ways);
            assert_eq!(*kept.export(), direct);
            assert_eq!(kept.fresh, Some(CounterRegistry::new()));
        }
        assert_eq!(kept.total().gauge("ways"), Some(4.0));
    }

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
