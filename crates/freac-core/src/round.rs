//! The cost of one slice round — the roofline of paper Sec. III-D/V.
//!
//! All tiles in a slice run in lock-step off a shared address bus, so a
//! round of work progresses at the slower of two things: the fold passes
//! its compute needs, and operand service through the control box's
//! word-serialized datapath. [`RoundQuote`] is the one place that roofline
//! is written. The paper model ([`crate::exec::run_kernel`]) charges one
//! round per item on every tile; the serving stack charges one round per
//! dispatch, with a batch wider than the tile count running extra compute
//! waves.

use freac_sim::{ClockDomain, Time};

use crate::accel::Accelerator;
use crate::partition::SlicePartition;
use crate::scratchpad::ScratchpadModel;

/// A compute-round quote for one accelerator on one partition.
///
/// Two edge cases are pinned here for every caller:
///
/// * `cycles_per_item == 0` quotes a memory-only round: compute costs
///   nothing, and the round is operand service alone (at least 1 cycle).
/// * Every product saturates at `u64::MAX` instead of wrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundQuote {
    compute_cycles: u64,
    words_per_item: u64,
    area_tiles: usize,
    spad: ScratchpadModel,
}

impl RoundQuote {
    /// Quotes `accel` running items of `cycles_per_item` original circuit
    /// cycles that move `words_per_item` operand words, on `partition`.
    pub fn new(
        accel: &Accelerator,
        cycles_per_item: u64,
        words_per_item: u64,
        partition: &SlicePartition,
    ) -> Self {
        let tile = accel.tile();
        // Operands stream through the scratchpad ways at one word per
        // cycle; with no scratchpad they stream through the remaining
        // cache ways at the same rate.
        let service_ways = partition
            .scratchpad_ways()
            .max(partition.cache_ways().max(1));
        RoundQuote {
            compute_cycles: cycles_per_item.saturating_mul(accel.fold_cycles() as u64),
            words_per_item,
            area_tiles: (partition.mccs() / tile.mccs()).max(1),
            spad: ScratchpadModel::new(service_ways, tile.clock()),
        }
    }

    /// Compute cycles of one wave: `cycles_per_item × fold steps`. Each
    /// original circuit cycle — including FSM states that only issue a
    /// memory request — costs one full pass over the fold schedule.
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// Cycles to deliver the operands of `lanes` items at once.
    pub fn service_cycles(&self, lanes: usize) -> u64 {
        self.spad
            .service_cycles(self.words_per_item.saturating_mul(lanes as u64))
    }

    /// Tile-clock cycles for a round of `lanes` items on `tiles` tiles:
    /// `max(compute × ceil(lanes / tiles), service(words × lanes), 1)`.
    /// Lanes beyond the tile count queue extra compute waves, while
    /// operand service scales with total lanes.
    pub fn cycles(&self, lanes: usize, tiles: usize) -> u64 {
        let waves = lanes.div_ceil(tiles.max(1)) as u64;
        self.compute_cycles
            .saturating_mul(waves)
            .max(self.service_cycles(lanes))
            .max(1)
    }

    /// [`RoundQuote::cycles`] on the tile clock, picoseconds.
    pub fn time_ps(&self, lanes: usize, tiles: usize) -> Time {
        self.clock().cycles_to_time(self.cycles(lanes, tiles))
    }

    /// Tiles the partition hosts by MCC area alone (at least 1), with no
    /// scratchpad working-set cap.
    pub fn area_tiles(&self) -> usize {
        self.area_tiles
    }

    /// The operand-service model the quote charges against.
    pub fn spad(&self) -> &ScratchpadModel {
        &self.spad
    }

    /// The tile clock every cycle count here runs on.
    pub fn clock(&self) -> ClockDomain {
        self.spad.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::AcceleratorTile;
    use freac_netlist::builder::CircuitBuilder;

    fn adder() -> Accelerator {
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 8);
        let x = b.word_input("x", 8);
        let s = b.add(&a, &x);
        b.word_output("s", &s);
        Accelerator::map(&b.finish().unwrap(), &AcceleratorTile::new(1).unwrap()).unwrap()
    }

    #[test]
    fn round_is_the_slower_of_compute_waves_and_service() {
        let a = adder();
        let p = SlicePartition::end_to_end();
        let q = RoundQuote::new(&a, 3, 2, &p);
        let steps = a.fold_cycles() as u64;
        assert_eq!(q.compute_cycles(), 3 * steps);
        assert_eq!(q.area_tiles(), p.mccs());
        assert_eq!(q.cycles(1, 16), (3 * steps).max(2));
        assert_eq!(q.cycles(17, 16), (6 * steps).max(34));
        assert_eq!(q.cycles(1000, 16), (3 * 63 * steps).max(2000));
        assert_eq!(q.time_ps(5, 16), q.clock().cycles_to_time(q.cycles(5, 16)));
    }

    #[test]
    fn zero_cycle_items_quote_a_memory_only_round() {
        let a = adder();
        let p = SlicePartition::end_to_end();
        let q = RoundQuote::new(&a, 0, 3, &p);
        assert_eq!(q.compute_cycles(), 0);
        assert_eq!(q.cycles(4, 16), 12);
        assert_eq!(RoundQuote::new(&a, 0, 0, &p).cycles(4, 16), 1);
    }

    #[test]
    fn products_saturate() {
        let q = RoundQuote::new(&adder(), u64::MAX, u64::MAX, &SlicePartition::end_to_end());
        assert_eq!(q.compute_cycles(), u64::MAX);
        assert_eq!(q.cycles(usize::MAX, 1), u64::MAX);
    }

    #[test]
    fn cache_ways_serve_operands_without_a_scratchpad() {
        let q = RoundQuote::new(&adder(), 1, 1, &SlicePartition::new(16, 0, 4).unwrap());
        assert_eq!(q.spad().ways(), 4);
        let q = RoundQuote::new(&adder(), 1, 1, &SlicePartition::new(16, 4, 0).unwrap());
        assert_eq!(q.spad().ways(), 4);
    }
}
