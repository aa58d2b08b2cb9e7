//! Cycle-level slice simulation.
//!
//! The timed execution model in [`crate::exec`] charges the roofline
//! [`RoundQuote`] at work-item granularity. This module walks the fold
//! schedule *step by step* instead: every tile in the slice executes the
//! same step each cache cycle (they share the address bus and run in
//! lock-step, paper Sec. III-D), and a step whose bus operations exceed the
//! control box's word-per-cycle delivery stalls all of them until the last
//! word arrives.
//!
//! The detailed simulation is the reference the roofline is validated
//! against: it can only be *slower* (bus operations bunched into a few
//! steps serialize worse than the roofline's smeared average), and the
//! test-suite pins the two within a small factor.

use freac_sim::SerialResource;

use crate::accel::Accelerator;
use crate::error::CoreError;
use crate::exec::KernelSpec;
use crate::partition::SlicePartition;
use crate::round::RoundQuote;

/// Outcome of a detailed slice simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetailedRun {
    /// Concurrent tiles simulated.
    pub tiles: usize,
    /// Cache cycles for one full pass (one original circuit cycle) of all
    /// tiles, including bus stalls.
    pub pass_cycles: u64,
    /// Cycles of that pass spent stalled on operand delivery.
    pub stall_cycles: u64,
    /// Cache cycles per work item (pass cycles x original cycles).
    pub item_cycles: u64,
    /// Words moved per lock-step round (all tiles).
    pub words_per_round: u64,
}

impl DetailedRun {
    /// Fraction of a pass lost to operand stalls.
    pub fn stall_fraction(&self) -> f64 {
        if self.pass_cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.pass_cycles as f64
        }
    }
}

/// Simulates one lock-step round of a slice: every tile executes the full
/// fold schedule for one work item, cycle by cycle, with operand words
/// funneled through the narrow datapath.
///
/// # Errors
///
/// Propagates [`crate::exec::max_tiles_per_slice`]'s errors: a partition
/// that cannot host one tile, or a working set that does not fit.
pub fn simulate_slice_pass(
    accel: &Accelerator,
    spec: &KernelSpec,
    partition: &SlicePartition,
) -> Result<DetailedRun, CoreError> {
    let tiles = crate::exec::max_tiles_per_slice(partition, accel.tile().mccs(), spec)?;
    let quote = RoundQuote::new(
        accel,
        spec.cycles_per_item,
        spec.words_per_item(),
        partition,
    );
    let words_per_cycle = quote.spad().words_per_cycle();

    // The datapath is a single-server resource in cycle units.
    let mut datapath = SerialResource::new();
    let mut now: u64 = 0; // cache cycles
    let mut stall: u64 = 0;

    for step in accel.schedule().steps() {
        // Every tile issues this step's bus operations simultaneously.
        let words = step.bus_ops() as u64 * tiles as u64;
        let step_end = if words == 0 {
            now + 1
        } else {
            // Words are delivered one per cycle per slice; the step (and
            // the lock-step tiles) cannot retire until the last arrives.
            let service = words.div_ceil(words_per_cycle);
            let done = datapath.request(now, service);
            done.max(now + 1)
        };
        if step_end > now + 1 {
            stall += step_end - (now + 1);
        }
        now = step_end;
    }

    let pass_cycles = now;
    Ok(DetailedRun {
        tiles,
        pass_cycles,
        stall_cycles: stall,
        item_cycles: pass_cycles * spec.cycles_per_item.max(1),
        words_per_round: accel.schedule().stats().bus_ops as u64 * tiles as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::AcceleratorTile;
    use freac_netlist::builder::CircuitBuilder;

    fn accel(reads: usize) -> Accelerator {
        let mut b = CircuitBuilder::new("t");
        let mut acc = {
            let a = b.word_input("w0", 32);
            let c = b.word_input("w1", 32);
            b.add(&a, &c)
        };
        for i in 2..reads {
            let w = b.word_input(&format!("w{i}"), 32);
            acc = b.add(&acc, &w);
        }
        b.word_output("o", &acc);
        Accelerator::map(&b.finish().unwrap(), &AcceleratorTile::new(1).unwrap()).unwrap()
    }

    /// The per-item cycles `run_kernel` charges a slice round of `tiles`.
    fn roofline(a: &Accelerator, s: &KernelSpec, p: &SlicePartition, tiles: usize) -> u64 {
        RoundQuote::new(a, s.cycles_per_item, s.words_per_item(), p).cycles(tiles, tiles)
    }

    fn spec(reads: u64) -> KernelSpec {
        KernelSpec {
            name: "t".into(),
            items: 1000,
            cycles_per_item: 1,
            read_words_per_item: reads,
            write_words_per_item: 1,
            working_set_per_tile: 1024,
            input_bytes: 4000,
            output_bytes: 4000,
        }
    }

    #[test]
    fn compute_only_pass_equals_schedule_length() {
        let a = accel(2);
        // A spec with no memory traffic: every step takes one cycle.
        let s = KernelSpec {
            read_words_per_item: 0,
            write_words_per_item: 0,
            ..spec(0)
        };
        // The circuit still *schedules* bus ops (its word I/O), so use the
        // real spec for traffic but note stalls come from those ops.
        let r = simulate_slice_pass(&a, &s, &SlicePartition::max_compute()).unwrap();
        assert!(r.pass_cycles >= a.fold_cycles() as u64);
    }

    #[test]
    fn detailed_is_at_least_the_roofline() {
        for reads in [2usize, 4, 8] {
            let a = accel(reads);
            let s = spec(reads as u64);
            let p = SlicePartition::max_compute();
            let detailed = simulate_slice_pass(&a, &s, &p).unwrap();
            let roof = roofline(&a, &s, &p, detailed.tiles);
            assert!(
                detailed.item_cycles >= roof,
                "reads={reads}: detailed {} < roofline {roof}",
                detailed.item_cycles
            );
            // …and not absurdly far above it (bunching costs, but the two
            // models must agree on the magnitude).
            assert!(
                detailed.item_cycles <= roof * 3 + a.fold_cycles() as u64,
                "reads={reads}: detailed {} >> roofline {roof}",
                detailed.item_cycles
            );
        }
    }

    #[test]
    fn stalls_grow_with_memory_traffic() {
        let p = SlicePartition::max_compute();
        let light = simulate_slice_pass(&accel(2), &spec(2), &p).unwrap();
        let heavy = simulate_slice_pass(&accel(8), &spec(8), &p).unwrap();
        assert!(heavy.stall_cycles > light.stall_cycles);
        assert!(heavy.stall_fraction() > 0.0);
    }

    #[test]
    fn fewer_tiles_mean_fewer_stalls() {
        let a = accel(4);
        let s = spec(4);
        let many = simulate_slice_pass(&a, &s, &SlicePartition::max_compute()).unwrap();
        let few = simulate_slice_pass(&a, &s, &SlicePartition::new(2, 18, 0).unwrap()).unwrap();
        assert!(many.tiles > few.tiles);
        assert!(many.stall_cycles >= few.stall_cycles);
    }

    #[test]
    fn kernel_circuits_validate_roofline() {
        // Every benchmark kernel: the detailed pass stays within a small
        // factor of the roofline's per-item estimate.
        for id in freac_kernels::all_kernels() {
            let k = freac_kernels::kernel(id);
            let w = k.workload(freac_kernels::BATCH);
            let spec = KernelSpec {
                name: id.name().into(),
                items: w.items,
                cycles_per_item: w.cycles_per_item,
                read_words_per_item: w.read_words_per_item,
                write_words_per_item: w.write_words_per_item,
                working_set_per_tile: w.working_set_per_tile,
                input_bytes: w.input_bytes,
                output_bytes: w.output_bytes,
            };
            let a = Accelerator::map(&k.circuit(), &AcceleratorTile::new(1).unwrap()).unwrap();
            let p = SlicePartition::end_to_end();
            let detailed = simulate_slice_pass(&a, &spec, &p).unwrap();
            let roof = roofline(&a, &spec, &p, detailed.tiles);
            // The detailed pass models ONE original cycle; the roofline
            // covers the whole item. Compare per original cycle.
            let detailed_per_cycle = detailed.pass_cycles;
            let roof_per_cycle = roof.div_ceil(spec.cycles_per_item.max(1));
            assert!(
                detailed_per_cycle as f64 <= roof_per_cycle as f64 * 4.0 + 64.0,
                "{id}: detailed {detailed_per_cycle} vs roofline {roof_per_cycle}"
            );
        }
    }
}
