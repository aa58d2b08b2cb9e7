//! Elastic way autoscaling: hysteresis over sustained per-shard backlog.
//!
//! FReaC's central trade-off is cache capacity vs. compute — every way
//! converted to LUT fabric is a way the host loses. The autoscaler makes
//! that trade dynamic: a shard whose backlog stays high for `up_epochs`
//! consecutive epochs converts `step_ways` cache ways into compute; one
//! that idles for `down_epochs` epochs hands them back. Each conversion is
//! charged through `freac_core::way_conversion_charge` and evicts residents
//! (the LUT fabric was rebuilt), so scaling is never free — the gates
//! verify it still beats a static split on spiky load.

use freac_core::SlicePartition;

/// Hysteresis thresholds and the way-conversion ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleConfig {
    /// Backlog at or above which an epoch counts toward scaling up.
    pub high_backlog: usize,
    /// Backlog at or below which an epoch counts toward scaling down.
    pub low_backlog: usize,
    /// Consecutive high epochs required before converting ways to compute.
    pub up_epochs: u32,
    /// Consecutive low epochs required before returning ways to cache
    /// (deliberately slower than `up_epochs`: thrash costs conversions).
    pub down_epochs: u32,
    /// Compute ways a shard never shrinks below.
    pub min_compute_ways: usize,
    /// Compute ways a shard never grows beyond (paper cap: 16).
    pub max_compute_ways: usize,
    /// Ways moved per conversion (rounded down to even — MCC geometry
    /// pairs ways).
    pub step_ways: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            high_backlog: 32,
            low_backlog: 2,
            up_epochs: 2,
            down_epochs: 8,
            min_compute_ways: 2,
            max_compute_ways: 16,
            step_ways: 2,
        }
    }
}

/// What the hysteresis decided for one shard this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleDecision {
    Up,
    Down,
    Hold,
}

/// Per-shard hysteresis accumulator.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct AutoscaleState {
    high_run: u32,
    low_run: u32,
}

impl AutoscaleState {
    /// Feeds one epoch's backlog; returns the scaling decision. Runs reset
    /// whenever the backlog leaves the triggering band, and after every
    /// conversion, so each scale step requires a fresh sustained run.
    pub(crate) fn decide(&mut self, cfg: &AutoscaleConfig, backlog: usize) -> ScaleDecision {
        if backlog >= cfg.high_backlog {
            self.low_run = 0;
            self.high_run += 1;
            if self.high_run >= cfg.up_epochs {
                self.high_run = 0;
                return ScaleDecision::Up;
            }
        } else if backlog <= cfg.low_backlog {
            self.high_run = 0;
            self.low_run += 1;
            if self.low_run >= cfg.down_epochs {
                self.low_run = 0;
                return ScaleDecision::Down;
            }
        } else {
            self.high_run = 0;
            self.low_run = 0;
        }
        ScaleDecision::Hold
    }

    /// How many [`AutoscaleState::decide`] calls with `backlog` return
    /// [`ScaleDecision::Hold`] before one fires, and what fires; `None`
    /// when the backlog sits between the bands and never fires.
    pub(crate) fn holds_before_firing(
        &self,
        cfg: &AutoscaleConfig,
        backlog: usize,
    ) -> Option<(u64, ScaleDecision)> {
        let (run, needed, decision) = if backlog >= cfg.high_backlog {
            (self.high_run, cfg.up_epochs, ScaleDecision::Up)
        } else if backlog <= cfg.low_backlog {
            (self.low_run, cfg.down_epochs, ScaleDecision::Down)
        } else {
            return None;
        };
        Some((u64::from(needed.saturating_sub(run).max(1) - 1), decision))
    }

    /// Feeds `epochs` epochs of the same `backlog` at once, leaving the
    /// state that many [`AutoscaleState::decide`] calls would, whatever
    /// they decided.
    pub(crate) fn decide_many(&mut self, cfg: &AutoscaleConfig, backlog: usize, epochs: u64) {
        if epochs == 0 {
            return;
        }
        // One call bumps the run and wraps it to 0 once it reaches
        // `needed`; after the first call the run is below `needed`, so the
        // rest is a count modulo `needed`.
        let advance = |run: u32, needed: u32| {
            let first = if run + 1 >= needed { 0 } else { run + 1 };
            let period = u64::from(needed.max(1));
            ((u64::from(first) + epochs - 1) % period) as u32
        };
        if backlog >= cfg.high_backlog {
            self.low_run = 0;
            self.high_run = advance(self.high_run, cfg.up_epochs);
        } else if backlog <= cfg.low_backlog {
            self.high_run = 0;
            self.low_run = advance(self.low_run, cfg.down_epochs);
        } else {
            self.high_run = 0;
            self.low_run = 0;
        }
    }
}

/// The partition one `step_ways` conversion reaches from `from`, or `None`
/// at the ladder's end. Ways move between cache service and compute in
/// even steps; scratchpad ways stay put.
pub(crate) fn step_partition(
    cfg: &AutoscaleConfig,
    from: &SlicePartition,
    up: bool,
) -> Option<SlicePartition> {
    let step = cfg.step_ways & !1;
    let compute = from.compute_ways();
    let moved = if up {
        step.min(from.cache_ways())
            .min(cfg.max_compute_ways.saturating_sub(compute))
    } else {
        step.min(compute.saturating_sub(cfg.min_compute_ways))
    } & !1;
    if moved == 0 {
        return None;
    }
    let (c, k) = if up {
        (compute + moved, from.cache_ways() - moved)
    } else {
        (compute - moved, from.cache_ways() + moved)
    };
    SlicePartition::new(c, from.scratchpad_ways(), k).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_requires_sustained_runs() {
        let cfg = AutoscaleConfig {
            up_epochs: 2,
            down_epochs: 3,
            ..AutoscaleConfig::default()
        };
        let mut st = AutoscaleState::default();
        assert_eq!(st.decide(&cfg, 100), ScaleDecision::Hold);
        assert_eq!(st.decide(&cfg, 100), ScaleDecision::Up);
        // The run reset after the conversion: two more epochs needed.
        assert_eq!(st.decide(&cfg, 100), ScaleDecision::Hold);
        // A mid-band epoch resets both runs.
        assert_eq!(st.decide(&cfg, 10), ScaleDecision::Hold);
        assert_eq!(st.decide(&cfg, 0), ScaleDecision::Hold);
        assert_eq!(st.decide(&cfg, 0), ScaleDecision::Hold);
        assert_eq!(st.decide(&cfg, 0), ScaleDecision::Down);
    }

    #[test]
    fn bulk_feed_equals_one_decide_per_epoch() {
        // Every reachable state, both bands and the gap between them,
        // thresholds of 0..=3 epochs (0 and 1 fire on every call): k
        // epochs fed at once leave the state k `decide` calls leave, and
        // the first firing call is the one `holds_before_firing` names.
        for up_epochs in 0..4 {
            for down_epochs in 0..4 {
                let cfg = AutoscaleConfig {
                    high_backlog: 10,
                    low_backlog: 2,
                    up_epochs,
                    down_epochs,
                    ..AutoscaleConfig::default()
                };
                let mut starts = Vec::new();
                for warm in [0, 3, 10] {
                    for run in 0..4 {
                        let mut st = AutoscaleState::default();
                        for _ in 0..run {
                            st.decide(&cfg, warm);
                        }
                        starts.push(st);
                    }
                }
                for start in starts {
                    for backlog in [0, 2, 5, 10, 50] {
                        let mut stepped = start.clone();
                        let mut first_fire = None;
                        for k in 0..12u64 {
                            let mut bulk = start.clone();
                            bulk.decide_many(&cfg, backlog, k);
                            assert_eq!(bulk, stepped, "{cfg:?} {start:?} backlog {backlog} k {k}");
                            let d = stepped.decide(&cfg, backlog);
                            if d != ScaleDecision::Hold && first_fire.is_none() {
                                first_fire = Some((k, d));
                            }
                        }
                        assert_eq!(
                            start.holds_before_firing(&cfg, backlog),
                            first_fire,
                            "{cfg:?} {start:?} backlog {backlog}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ladder_climbs_in_even_steps_and_stops_at_the_caps() {
        let cfg = AutoscaleConfig::default();
        let base = SlicePartition::new(4, 10, 6).unwrap();
        let up1 = step_partition(&cfg, &base, true).unwrap();
        assert_eq!(
            (up1.compute_ways(), up1.scratchpad_ways(), up1.cache_ways()),
            (6, 10, 4)
        );
        let up2 = step_partition(&cfg, &up1, true).unwrap();
        let up3 = step_partition(&cfg, &up2, true).unwrap();
        assert_eq!(
            (up3.compute_ways(), up3.scratchpad_ways(), up3.cache_ways()),
            (10, 10, 0)
        );
        // No cache ways left to convert.
        assert_eq!(step_partition(&cfg, &up3, true), None);
        // Down retraces the ladder and stops at min_compute_ways.
        let down = step_partition(&cfg, &base, false).unwrap();
        assert_eq!(down.compute_ways(), 2);
        assert_eq!(step_partition(&cfg, &down, false), None);
    }

    #[test]
    fn max_compute_cap_clips_the_last_step() {
        let cfg = AutoscaleConfig {
            step_ways: 4,
            ..AutoscaleConfig::default()
        };
        let near_cap = SlicePartition::new(14, 0, 6).unwrap();
        let up = step_partition(&cfg, &near_cap, true).unwrap();
        assert_eq!(up.compute_ways(), 16);
        assert_eq!(step_partition(&cfg, &up, true), None);
    }

    #[test]
    fn odd_steps_round_down_to_even() {
        let cfg = AutoscaleConfig {
            step_ways: 3,
            ..AutoscaleConfig::default()
        };
        let base = SlicePartition::new(4, 10, 6).unwrap();
        let up = step_partition(&cfg, &base, true).unwrap();
        assert_eq!(up.compute_ways(), 6);
        let one = AutoscaleConfig {
            step_ways: 1,
            ..AutoscaleConfig::default()
        };
        assert_eq!(step_partition(&one, &base, true), None);
    }
}
