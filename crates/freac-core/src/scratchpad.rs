//! Scratchpad timing: locked ways serving operands through the control box.
//!
//! Data in scratchpad ways is interleaved across the locked ways using the
//! existing cache-line mapping. Up to 32 bytes can be read from each way at
//! a time, but the shared data bus and the control box's narrow datapath
//! serialize word delivery (paper Sec. III-D): each way streams one 32-bit
//! word per cache cycle, so a partition with `w` scratchpad ways sustains
//! `4w` bytes per cycle per slice — tens to hundreds of GB/s, the
//! bandwidth claim of Sec. VI.

use freac_sim::ClockDomain;

/// Bytes each scratchpad way delivers per cache cycle.
pub const BYTES_PER_WAY_PER_CYCLE: u64 = 4;

/// Aggregate scratchpad service model for one slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchpadModel {
    ways: usize,
    clock: ClockDomain,
}

impl ScratchpadModel {
    /// A scratchpad of `ways` locked ways clocked at `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero (an accelerator without a scratchpad is
    /// modeled at the `exec` layer, not here).
    pub fn new(ways: usize, clock: ClockDomain) -> Self {
        assert!(ways > 0, "scratchpad needs at least one way");
        ScratchpadModel { ways, clock }
    }

    /// Locked ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The clock the ways deliver on.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Words the slice can deliver to compute clusters per cache cycle.
    ///
    /// Although each locked way can read 32 bytes at a time, operand
    /// delivery funnels through the control box's narrow datapath and is
    /// serialized (paper Sec. III-D): one 32-bit word per cycle per slice.
    pub fn words_per_cycle(&self) -> u64 {
        1
    }

    /// Sustained operand bandwidth in bytes per second (per slice; eight
    /// slices together reach the paper's "10s to 100s of GB/s").
    pub fn bandwidth_bytes_per_sec(&self) -> u64 {
        let cycles_per_sec = freac_sim::PS_PER_S / self.clock.period_ps();
        self.words_per_cycle() * BYTES_PER_WAY_PER_CYCLE * cycles_per_sec
    }

    /// Cache cycles to service `words` word requests arriving together
    /// (ceiling of words over per-cycle service rate).
    pub fn service_cycles(&self, words: u64) -> u64 {
        words.div_ceil(self.words_per_cycle())
    }

    /// Time for the host cores to stream `bytes` into the scratchpad
    /// (step 5 of the Fig. 5 flow): bounded by the same per-way word rate.
    pub fn fill_time_ps(&self, bytes: u64) -> u64 {
        let cycles = bytes.div_ceil(self.ways as u64 * BYTES_PER_WAY_PER_CYCLE);
        self.clock.cycles_to_time(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_bandwidth_is_word_serialized() {
        // 4 B x 4 GHz = 16 GB/s per slice; 8 slices = 128 GB/s, the paper's
        // "10s to 100s of GB/s".
        let s = ScratchpadModel::new(10, ClockDomain::cache_4ghz());
        assert_eq!(s.bandwidth_bytes_per_sec(), 16_000_000_000);
    }

    #[test]
    fn service_is_one_word_per_cycle() {
        let s = ScratchpadModel::new(4, ClockDomain::cache_4ghz());
        assert_eq!(s.service_cycles(0), 0);
        assert_eq!(s.service_cycles(1), 1);
        assert_eq!(s.service_cycles(4), 4);
        assert_eq!(s.service_cycles(5), 5);
    }

    #[test]
    fn fill_time_scales() {
        let s = ScratchpadModel::new(4, ClockDomain::cache_4ghz());
        let t1 = s.fill_time_ps(64 * 1024);
        let t2 = s.fill_time_ps(128 * 1024);
        assert_eq!(t2, 2 * t1);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = ScratchpadModel::new(0, ClockDomain::cache_4ghz());
    }
}
