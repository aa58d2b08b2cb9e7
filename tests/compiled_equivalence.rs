//! Compiled execution plans must be indistinguishable from the reference
//! `Evaluator` on every benchmark kernel: the fold plan tracks it cycle for
//! cycle (and exports exactly the probe counters its schedule implies), and
//! the bit-sliced batch sweeps track one reference `Evaluator` per lane. CI
//! runs this test as the compiled-vs-reference divergence gate for the
//! example programs.

use freac::core::{Accelerator, AcceleratorTile};
use freac::fold::{compile_fold, schedule_fold, FoldConstraints, LutMode};
use freac::kernels::all_kernels;
use freac::netlist::eval::Evaluator;
use freac::netlist::techmap::{tech_map, TechMapOptions};
use freac::netlist::{compile, Netlist, NodeKind, OptLevel, Value, BATCH_LANES, BATCH_WIDTHS};
use freac::probe::CounterRegistry;
use freac_proptest::oracles::fold::schedule_counters;

/// One deterministic input vector per primary input, respecting kinds.
fn inputs_for(netlist: &Netlist, seed: u32) -> Vec<Value> {
    netlist
        .primary_inputs()
        .iter()
        .enumerate()
        .map(|(i, &id)| match netlist.nodes()[id.index()].kind {
            NodeKind::BitInput { .. } => Value::Bit((seed >> (i % 32)) & 1 == 1),
            _ => Value::Word(
                seed.wrapping_mul(0x9e37_79b9)
                    .wrapping_add(i as u32 * 0x85eb),
            ),
        })
        .collect()
}

fn mapped_kernel(id: freac::kernels::KernelId) -> Netlist {
    let circuit = freac::kernels::kernel(id).circuit();
    tech_map(&circuit, TechMapOptions::lut4())
        .unwrap_or_else(|e| panic!("{id}: tech_map refused: {e}"))
}

#[test]
fn compiled_fold_matches_reference_on_every_kernel() {
    const CYCLES: u32 = 4;
    for id in all_kernels() {
        let mapped = mapped_kernel(id);
        let cons = FoldConstraints::for_tile(2, LutMode::Lut4);
        let schedule =
            schedule_fold(&mapped, &cons).unwrap_or_else(|e| panic!("{id}: schedule: {e}"));
        let plan =
            compile_fold(&mapped, &schedule).unwrap_or_else(|e| panic!("{id}: compile_fold: {e}"));
        let mut reference = Evaluator::new(&mapped);
        let mut compiled = plan.executor();
        let mut out = Vec::new();
        for cycle in 0..CYCLES {
            let inputs = inputs_for(&mapped, 0x5eed_0000 | cycle);
            let expect = reference
                .run_cycle(&inputs)
                .unwrap_or_else(|e| panic!("{id}: reference cycle {cycle}: {e}"));
            compiled
                .run_cycle_into(&inputs, &mut out)
                .unwrap_or_else(|e| panic!("{id}: compiled cycle {cycle}: {e}"));
            assert_eq!(out, expect, "{id}: compiled fold diverged at cycle {cycle}");
        }
        // Counter fidelity: every pass accounts exactly the work its
        // schedule lists, key for key and value for value.
        let mut reg = CounterRegistry::new();
        compiled.export_into(&mut reg, "fold");
        assert_eq!(
            reg.counters().collect::<Vec<_>>(),
            schedule_counters(&schedule, u64::from(CYCLES)),
            "{id}: compiled counters diverged from the schedule"
        );
    }
}

#[test]
fn optimized_mapping_agrees_with_raw_on_every_kernel() {
    // The netlist-optimization pipeline (on by default) must be invisible
    // functionally and strictly helpful operationally: on every kernel the
    // opt-on and opt-off accelerators produce identical outputs across
    // cycles, the optimized fold is no longer than the raw one, and every
    // fold counter of the optimized run is bounded by the raw run's.
    let tile = AcceleratorTile::new(2).expect("tile 2 is valid");
    for id in all_kernels() {
        let circuit = freac::kernels::kernel(id).circuit();
        let raw = Accelerator::map_with_level(&circuit, &tile, OptLevel::Off)
            .unwrap_or_else(|e| panic!("{id}: raw mapping failed: {e}"));
        let opt = Accelerator::map_with_level(&circuit, &tile, OptLevel::Full)
            .unwrap_or_else(|e| panic!("{id}: optimized mapping failed: {e}"));
        assert!(
            opt.fold_cycles() <= raw.fold_cycles(),
            "{id}: optimization lengthened the fold ({} -> {})",
            raw.fold_cycles(),
            opt.fold_cycles()
        );
        assert!(
            opt.stats().luts <= raw.stats().luts,
            "{id}: optimization added LUTs ({} -> {})",
            raw.stats().luts,
            opt.stats().luts
        );
        let mut raw_ex = raw.fold_plan().executor();
        let mut opt_ex = opt.fold_plan().executor();
        let (mut raw_out, mut opt_out) = (Vec::new(), Vec::new());
        for cycle in 0..4u32 {
            // Both accelerators expose the original circuit interface, so
            // one stimulus drives both.
            let inputs = inputs_for(&circuit, 0x0b7_0000 | cycle);
            raw_ex
                .run_cycle_into(&inputs, &mut raw_out)
                .unwrap_or_else(|e| panic!("{id}: raw cycle {cycle}: {e}"));
            opt_ex
                .run_cycle_into(&inputs, &mut opt_out)
                .unwrap_or_else(|e| panic!("{id}: optimized cycle {cycle}: {e}"));
            assert_eq!(
                raw_out, opt_out,
                "{id}: optimized execution diverged at cycle {cycle}"
            );
        }
        // Counter dominance: the optimized executor does the same kind of
        // work (identical counter keys) and never more of it.
        let mut ra = CounterRegistry::new();
        let mut ro = CounterRegistry::new();
        raw_ex.export_into(&mut ra, "fold");
        opt_ex.export_into(&mut ro, "fold");
        let raw_counts: Vec<(String, u64)> =
            ra.counters().map(|(k, v)| (k.to_owned(), v)).collect();
        let opt_counts: Vec<(String, u64)> =
            ro.counters().map(|(k, v)| (k.to_owned(), v)).collect();
        assert_eq!(
            raw_counts.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            opt_counts.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            "{id}: counter key sets diverged"
        );
        for ((key, rv), (_, ov)) in raw_counts.iter().zip(&opt_counts) {
            assert!(
                ov <= rv,
                "{id}: optimized run did more work on {key}: {ov} > {rv}"
            );
        }
    }
}

#[test]
fn optimized_batch_matches_raw_at_every_width_on_every_kernel() {
    // Bit-sliced batch execution over the optimized mapping must track the
    // raw mapping lane for lane at every sweep width.
    let tile = AcceleratorTile::new(2).expect("tile 2 is valid");
    for id in all_kernels() {
        let circuit = freac::kernels::kernel(id).circuit();
        let raw = Accelerator::map_with_level(&circuit, &tile, OptLevel::Off)
            .unwrap_or_else(|e| panic!("{id}: raw mapping failed: {e}"));
        let opt = Accelerator::map_with_level(&circuit, &tile, OptLevel::Full)
            .unwrap_or_else(|e| panic!("{id}: optimized mapping failed: {e}"));
        let raw_plan = compile(raw.netlist()).unwrap_or_else(|e| panic!("{id}: raw compile: {e}"));
        let opt_plan =
            compile(opt.netlist()).unwrap_or_else(|e| panic!("{id}: optimized compile: {e}"));
        for &width in &BATCH_WIDTHS {
            let lanes: Vec<Vec<Value>> = (0..width as u32)
                .map(|l| inputs_for(&circuit, 0x0b7_b000 ^ l.wrapping_mul(0x0101_0101)))
                .collect();
            let mut raw_state = raw_plan.new_batch_state_for(width);
            let mut opt_state = opt_plan.new_batch_state_for(width);
            let (mut raw_out, mut opt_out) = (Vec::new(), Vec::new());
            for pass in 0..2 {
                raw_plan
                    .run_batch_cycle_any(&mut raw_state, &lanes, &mut raw_out)
                    .unwrap_or_else(|e| panic!("{id}: w{width} raw pass {pass}: {e}"));
                opt_plan
                    .run_batch_cycle_any(&mut opt_state, &lanes, &mut opt_out)
                    .unwrap_or_else(|e| panic!("{id}: w{width} optimized pass {pass}: {e}"));
                assert_eq!(
                    raw_out, opt_out,
                    "{id}: w{width} optimized batch diverged at pass {pass}"
                );
            }
        }
    }
}

#[test]
fn batch_evaluation_matches_reference_on_every_kernel() {
    for id in all_kernels() {
        let mapped = mapped_kernel(id);
        let plan = compile(&mapped).unwrap_or_else(|e| panic!("{id}: compile: {e}"));
        let lanes: Vec<Vec<Value>> = (0..BATCH_LANES as u32)
            .map(|l| inputs_for(&mapped, 0xbeef_0000 ^ (l * 0x0101_0101)))
            .collect();
        let mut state = plan.new_batch_state();
        let mut out = Vec::new();
        let mut refs: Vec<Evaluator> = lanes.iter().map(|_| Evaluator::new(&mapped)).collect();
        for pass in 0..3 {
            plan.run_batch_cycle(&mut state, &lanes, &mut out)
                .unwrap_or_else(|e| panic!("{id}: batch pass {pass}: {e}"));
            for (l, reference) in refs.iter_mut().enumerate() {
                let expect = reference
                    .run_cycle(&lanes[l])
                    .unwrap_or_else(|e| panic!("{id}: lane {l} reference: {e}"));
                assert_eq!(
                    out[l], expect,
                    "{id}: batch lane {l} diverged at pass {pass}"
                );
            }
        }
    }
}

#[test]
fn wide_batch_matches_narrow_and_reference_on_every_kernel() {
    // The multi-word sweeps (256 and 512 lanes) must be indistinguishable
    // from both the 64-lane sweep (lane-for-lane on the shared prefix)
    // and one reference Evaluator per lane — on every kernel, with the
    // same cycle count at every width.
    for id in all_kernels() {
        let mapped = mapped_kernel(id);
        let plan = compile(&mapped).unwrap_or_else(|e| panic!("{id}: compile: {e}"));
        let lane_at = |l: u32| -> Vec<Value> {
            inputs_for(&mapped, 0xbeef_0000 ^ l.wrapping_mul(0x0101_0101))
        };
        let passes = 3;
        let mut narrow_by_pass: Vec<Vec<Vec<Value>>> = Vec::new();
        for &width in &BATCH_WIDTHS {
            let lanes: Vec<Vec<Value>> = (0..width as u32).map(lane_at).collect();
            let mut state = plan.new_batch_state_for(width);
            assert!(
                state.lane_capacity() >= width,
                "{id}: w{width} state holds only {} lanes",
                state.lane_capacity()
            );
            let mut out = Vec::new();
            let mut refs: Vec<Evaluator> = lanes.iter().map(|_| Evaluator::new(&mapped)).collect();
            for pass in 0..passes {
                plan.run_batch_cycle_any(&mut state, &lanes, &mut out)
                    .unwrap_or_else(|e| panic!("{id}: w{width} pass {pass}: {e}"));
                for (l, reference) in refs.iter_mut().enumerate() {
                    let expect = reference
                        .run_cycle(&lanes[l])
                        .unwrap_or_else(|e| panic!("{id}: w{width} lane {l} reference: {e}"));
                    assert_eq!(
                        out[l], expect,
                        "{id}: w{width} lane {l} diverged from reference at pass {pass}"
                    );
                }
                if width == BATCH_LANES {
                    narrow_by_pass.push(out.clone());
                } else {
                    assert_eq!(
                        &out[..BATCH_LANES],
                        &narrow_by_pass[pass][..],
                        "{id}: w{width} pass {pass} diverged from the 64-lane sweep"
                    );
                }
            }
            assert_eq!(
                state.cycles(),
                passes as u64,
                "{id}: w{width} miscounted cycles"
            );
        }
    }
}
