//! Compiled-plan oracle: the flat execution plan produced by
//! [`freac_netlist::plan::compile`] must be bit-identical to the reference
//! [`Evaluator`] on random circuits — for single-vector execution with
//! carried state, for bit-sliced batch execution at every sweep width
//! (64, 256, and 512 lanes) where every lane is an independent simulation
//! from power-on and the wider sweeps reproduce the 64-lane outputs
//! lane-for-lane, and for small batches (1 to [`SCALAR_BATCH_LANES`]
//! lanes) both as `run_batch_cycle_any` routes them (per lane) and
//! through a forced 64-lane sweep. A second arm checks multi-cycle
//! passes: `run_batch_cycles_any` over 1 to 512 lanes and 1 to 4 cycles
//! must equal each lane run alone, cycle by cycle, on the single-vector
//! engine.
//!
//! Reuses [`FoldCase`] generation/shrinking so a
//! divergence shrinks over the same circuit grammar as the fold oracle.

use freac_netlist::eval::Evaluator;
use freac_netlist::plan::{
    compile, BATCH_LANES, BATCH_WIDTHS, MAX_BATCH_LANES, SCALAR_BATCH_LANES,
};
use freac_netlist::techmap::{tech_map, TechMapOptions};
use freac_netlist::Value;
use freac_rand::Rng64;

use super::fold::FoldCase;

/// Draws a random case (same distribution as the fold oracle).
pub fn generate(rng: &mut Rng64) -> FoldCase {
    super::fold::generate(rng)
}

/// Shrinks a case (same candidates as the fold oracle).
pub fn shrink(case: &FoldCase) -> Vec<FoldCase> {
    super::fold::shrink(case)
}

/// Runs the compiled-vs-reference differential on both the raw circuit
/// and its K-LUT mapping, in single-vector, small-batch and every
/// bit-sliced batch form.
///
/// # Errors
///
/// Returns a description of the first divergence (or of a layer refusing
/// the circuit).
pub fn check(case: &FoldCase) -> Result<(), String> {
    let netlist = case.circuit.build();
    let opts = if case.lut5 {
        TechMapOptions::lut5()
    } else {
        TechMapOptions::lut4()
    };
    let mapped = tech_map(&netlist, opts).map_err(|e| format!("tech_map refused: {e}"))?;
    for (label, n) in [("direct", &netlist), ("mapped", &mapped)] {
        check_single(label, n, case)?;
        check_batch(label, n, case)?;
        check_small_batches(label, n, case)?;
    }
    Ok(())
}

/// Single-vector arm: one plan state, sequential state carried across the
/// stimulus exactly like the evaluator carries it.
fn check_single(
    label: &str,
    netlist: &freac_netlist::Netlist,
    case: &FoldCase,
) -> Result<(), String> {
    let plan = compile(netlist).map_err(|e| format!("{label}: compile refused: {e}"))?;
    let mut state = plan.new_state();
    let mut out = Vec::new();
    let mut reference = Evaluator::new(netlist);
    for (cycle, &(x, y)) in case.stimulus.iter().enumerate() {
        let inputs = [Value::Word(x), Value::Word(y)];
        plan.run_cycle_into(&mut state, &inputs, &mut out)
            .map_err(|e| format!("{label}: cycle {cycle}: compiled execution failed: {e}"))?;
        let expect = reference
            .run_cycle(&inputs)
            .map_err(|e| format!("{label}: cycle {cycle}: reference evaluation failed: {e}"))?;
        if out != expect {
            return Err(format!(
                "{label}: cycle {cycle} (x={x}, y={y}): compiled {out:?} != reference {expect:?}"
            ));
        }
    }
    if state.cycles() != case.stimulus.len() as u64 {
        return Err(format!(
            "{label}: plan counted {} cycles, expected {}",
            state.cycles(),
            case.stimulus.len()
        ));
    }
    Ok(())
}

/// Batch arm: 64 lanes derived from the stimulus (expanded by
/// deterministic mixing, masked to the circuit's input range), each lane
/// checked against its own fresh reference evaluator across several
/// passes so per-lane sequential state is exercised too — then the same
/// workload re-run at every wider sweep width (256 and 512 lanes).
///
/// Wide lanes permute the 64 reference-checked lane inputs with a
/// chunk-varying stride, so every wide lane's expected output is a
/// narrow-run output that was itself checked against the reference
/// (wide ≡ 64-lane ≡ reference, without 512 reference evaluators per
/// case), while each 64-lane word of the wide state still packs a
/// distinct bit pattern — a sweep reading the wrong word cannot hide.
/// Every width must also count the same number of cycles.
fn check_batch(
    label: &str,
    netlist: &freac_netlist::Netlist,
    case: &FoldCase,
) -> Result<(), String> {
    let plan = compile(netlist).map_err(|e| format!("{label}: compile refused: {e}"))?;
    let mask = case.circuit.input_limit() - 1;
    let (x0, y0) = case.stimulus[0];
    let narrow: Vec<Vec<Value>> = (0..BATCH_LANES as u32)
        .map(|l| {
            let (x, y) = case
                .stimulus
                .get(l as usize)
                .copied()
                .unwrap_or((x0.wrapping_mul(l.wrapping_add(3)), y0.wrapping_add(l * 7)));
            vec![Value::Word(x & mask), Value::Word(y & mask)]
        })
        .collect();
    // A constant-input lane's reference trajectory depends only on its
    // input vector, so lanes sharing an input share expected outputs on
    // every pass. 37 is odd (a unit mod 64) and 13·chunk shifts each
    // 64-lane word differently.
    let source_of = |l: usize| (37 * (l % BATCH_LANES) + 13 * (l / BATCH_LANES)) % BATCH_LANES;
    let passes = case.stimulus.len().max(2);
    let mut narrow_by_pass: Vec<Vec<Vec<Value>>> = Vec::new();
    for &width in &BATCH_WIDTHS {
        let lanes: Vec<Vec<Value>> = if width == BATCH_LANES {
            narrow.clone()
        } else {
            (0..width).map(|l| narrow[source_of(l)].clone()).collect()
        };
        let mut state = plan.new_batch_state_for(width);
        let mut out = Vec::new();
        let mut refs: Vec<Evaluator> = if width == BATCH_LANES {
            narrow.iter().map(|_| Evaluator::new(netlist)).collect()
        } else {
            Vec::new()
        };
        for pass in 0..passes {
            plan.run_batch_cycle_any(&mut state, &lanes, &mut out)
                .map_err(|e| format!("{label}: w{width} pass {pass}: batch failed: {e}"))?;
            if width == BATCH_LANES {
                for (l, reference) in refs.iter_mut().enumerate() {
                    let expect = reference.run_cycle(&lanes[l]).map_err(|e| {
                        format!("{label}: pass {pass}: lane {l} reference failed: {e}")
                    })?;
                    if out[l] != expect {
                        return Err(format!(
                            "{label}: pass {pass}, lane {l} ({:?}): batch {:?} != reference {expect:?}",
                            lanes[l], out[l]
                        ));
                    }
                }
                narrow_by_pass.push(out.clone());
            } else {
                for l in 0..width {
                    let expect = &narrow_by_pass[pass][source_of(l)];
                    if &out[l] != expect {
                        return Err(format!(
                            "{label}: w{width} pass {pass}, lane {l}: wide {:?} != 64-lane {expect:?}",
                            out[l]
                        ));
                    }
                }
            }
        }
        if state.cycles() != passes as u64 {
            return Err(format!(
                "{label}: w{width}: counted {} cycles, expected {passes}",
                state.cycles()
            ));
        }
    }
    Ok(())
}

/// Small-batch arm: for every batch of 1 to [`SCALAR_BATCH_LANES`] lanes
/// (lane `l` fed stimulus vector `l`, or the first one when the stimulus
/// is shorter), `run_batch_cycle_any` — which runs such batches per lane —
/// and a forced one-word bit-sliced sweep must both match one fresh
/// reference evaluator per lane on every pass.
fn check_small_batches(
    label: &str,
    netlist: &freac_netlist::Netlist,
    case: &FoldCase,
) -> Result<(), String> {
    let plan = compile(netlist).map_err(|e| format!("{label}: compile refused: {e}"))?;
    let mask = case.circuit.input_limit() - 1;
    let passes = case.stimulus.len().max(2);
    for k in 1..=SCALAR_BATCH_LANES {
        let lanes: Vec<Vec<Value>> = (0..k)
            .map(|l| {
                let (x, y) = case.stimulus.get(l).copied().unwrap_or(case.stimulus[0]);
                vec![Value::Word(x & mask), Value::Word(y & mask)]
            })
            .collect();
        let mut refs: Vec<Evaluator> = lanes.iter().map(|_| Evaluator::new(netlist)).collect();
        let mut routed = plan.new_batch_state_for(k);
        let mut sliced = plan.new_wide_batch_state::<1>();
        let (mut routed_out, mut sliced_out) = (Vec::new(), Vec::new());
        for pass in 0..passes {
            plan.run_batch_cycle_any(&mut routed, &lanes, &mut routed_out)
                .map_err(|e| format!("{label}: {k}-lane routed pass {pass}: batch failed: {e}"))?;
            plan.run_wide_batch_cycle(&mut sliced, &lanes, &mut sliced_out)
                .map_err(|e| format!("{label}: {k}-lane w1 pass {pass}: batch failed: {e}"))?;
            for (l, reference) in refs.iter_mut().enumerate() {
                let expect = reference
                    .run_cycle(&lanes[l])
                    .map_err(|e| format!("{label}: pass {pass}: lane {l} reference failed: {e}"))?;
                for (engine, out) in [("routed", &routed_out), ("w1", &sliced_out)] {
                    if out[l] != expect {
                        return Err(format!(
                            "{label}: {k}-lane {engine} pass {pass}, lane {l} ({:?}): {:?} != reference {expect:?}",
                            lanes[l], out[l]
                        ));
                    }
                }
            }
        }
        if routed.cycles() != passes as u64 || sliced.cycles() != passes as u64 {
            return Err(format!(
                "{label}: {k} lanes: counted {}/{} cycles, expected {passes}",
                routed.cycles(),
                sliced.cycles()
            ));
        }
    }
    Ok(())
}

/// A multi-cycle pass: a grammar circuit (its stimulus seeds the lanes),
/// a batch of 1 to [`MAX_BATCH_LANES`] lanes and a depth of 1 to 4 cycles.
#[derive(Debug, Clone)]
pub struct CyclesCase {
    /// Circuit, mapping flavor and stimulus.
    pub case: FoldCase,
    /// Lanes in the batch.
    pub lanes: usize,
    /// Cycles one pass runs.
    pub cycles: u64,
}

/// Draws a random [`CyclesCase`].
pub fn generate_cycles(rng: &mut Rng64) -> CyclesCase {
    CyclesCase {
        case: generate(rng),
        lanes: 1 + rng.index(MAX_BATCH_LANES),
        cycles: 1 + rng.index(4) as u64,
    }
}

/// Shrink candidates: smaller circuits and stimuli, fewer lanes, fewer
/// cycles.
pub fn shrink_cycles(c: &CyclesCase) -> Vec<CyclesCase> {
    let mut out: Vec<CyclesCase> = shrink(&c.case)
        .into_iter()
        .map(|case| CyclesCase { case, ..c.clone() })
        .collect();
    for lanes in [1, c.lanes / 2] {
        if lanes >= 1 && lanes < c.lanes {
            out.push(CyclesCase { lanes, ..c.clone() });
        }
    }
    if c.cycles > 1 {
        out.push(CyclesCase {
            cycles: c.cycles - 1,
            ..c.clone()
        });
    }
    out
}

/// Multi-cycle arm: one `run_batch_cycles_any` pass from power-on, on
/// the state `new_batch_state_for` picks for the lane count, must leave
/// every lane's outputs — and the state's cycle count — where `cycles`
/// `run_cycle_into` calls on that lane alone leave them, on both the raw
/// circuit and its mapping.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_cycles(c: &CyclesCase) -> Result<(), String> {
    let case = &c.case;
    let netlist = case.circuit.build();
    let opts = if case.lut5 {
        TechMapOptions::lut5()
    } else {
        TechMapOptions::lut4()
    };
    let mapped = tech_map(&netlist, opts).map_err(|e| format!("tech_map refused: {e}"))?;
    let mask = case.circuit.input_limit() - 1;
    let (x0, y0) = case.stimulus[0];
    let lanes: Vec<Vec<Value>> = (0..c.lanes as u32)
        .map(|l| {
            let (x, y) = case
                .stimulus
                .get(l as usize)
                .copied()
                .unwrap_or((x0.wrapping_mul(l.wrapping_add(3)), y0.wrapping_add(l * 7)));
            vec![Value::Word(x & mask), Value::Word(y & mask)]
        })
        .collect();
    for (label, n) in [("direct", &netlist), ("mapped", &mapped)] {
        let plan = compile(n).map_err(|e| format!("{label}: compile refused: {e}"))?;
        let mut state = plan.new_batch_state_for(c.lanes);
        let mut out = Vec::new();
        plan.run_batch_cycles_any(&mut state, &lanes, c.cycles, &mut out)
            .map_err(|e| format!("{label}: {}-cycle pass failed: {e}", c.cycles))?;
        if state.cycles() != c.cycles || out.len() != c.lanes {
            return Err(format!(
                "{label}: pass counted {} cycles and {} lanes, expected {} and {}",
                state.cycles(),
                out.len(),
                c.cycles,
                c.lanes
            ));
        }
        let mut alone_out = Vec::new();
        for (l, lane) in lanes.iter().enumerate() {
            let mut alone = plan.new_state();
            for cycle in 0..c.cycles {
                plan.run_cycle_into(&mut alone, lane, &mut alone_out)
                    .map_err(|e| format!("{label}: lane {l} cycle {cycle} failed: {e}"))?;
            }
            if out[l] != alone_out {
                return Err(format!(
                    "{label}: {} lanes, {} cycles, lane {l} ({lane:?}): pass {:?} != lane alone {alone_out:?}",
                    c.lanes, c.cycles, out[l]
                ));
            }
        }
    }
    Ok(())
}
