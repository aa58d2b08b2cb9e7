//! Optimization oracle: every netlist-optimization pass — alone and
//! composed into the Basic/Full pipelines — must preserve the circuit's
//! function exactly. Each case runs the optimized netlist against the
//! unoptimized one pre-mapping, post-mapping (both LUT flavors), through
//! the compiled single-vector plan, and through 64-lane bit-sliced batch
//! execution; converged pipeline runs must also be idempotent and report
//! monotone LUT counts.

use freac_netlist::eval::Evaluator;
use freac_netlist::plan::{compile, BATCH_LANES};
use freac_netlist::techmap::{tech_map, TechMapOptions};
use freac_netlist::{
    first_mismatch, optimize, Netlist, OptLevel, OptOptions, OptReport, PassKind, PassManager,
    Value,
};
use freac_rand::Rng64;

use crate::circuit::CircuitSpec;
use crate::shrink;

/// Which slice of the pipeline a case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// One pass in isolation, iterated by its own [`PassManager`].
    Single(PassKind),
    /// A whole pipeline level.
    Pipeline(OptLevel),
}

/// Every single-pass arm, in pipeline order.
const SINGLE_ARMS: [Arm; 5] = [
    Arm::Single(PassKind::Cse),
    Arm::Single(PassKind::ConstProp),
    Arm::Single(PassKind::InputPrune),
    Arm::Single(PassKind::Repack),
    Arm::Single(PassKind::Dce),
];

/// One optimize-oracle case: a circuit, the arm to run, the LUT width the
/// pipeline targets, and a multi-cycle stimulus.
#[derive(Debug, Clone)]
pub struct OptimizeCase {
    /// The circuit under test.
    pub circuit: CircuitSpec,
    /// The pass or pipeline to apply.
    pub arm: Arm,
    /// LUT width handed to the pipeline (4 or 5).
    pub lut_k: usize,
    /// `(x, y)` input words, one pair per original clock cycle.
    pub stimulus: Vec<(u32, u32)>,
}

/// Draws a random [`OptimizeCase`].
pub fn generate(rng: &mut Rng64) -> OptimizeCase {
    let circuit = CircuitSpec::random(rng, 10);
    let arm = match rng.index(7) {
        0 => Arm::Pipeline(OptLevel::Basic),
        1 => Arm::Pipeline(OptLevel::Full),
        i => SINGLE_ARMS[i - 2],
    };
    let cycles = 1 + rng.index(3);
    let limit = circuit.input_limit();
    let stimulus = (0..cycles)
        .map(|_| (rng.range_u32(0, limit), rng.range_u32(0, limit)))
        .collect();
    OptimizeCase {
        circuit,
        arm,
        lut_k: if rng.bool() { 5 } else { 4 },
        stimulus,
    }
}

/// Shrink candidates: smaller circuits, shorter stimuli, narrower
/// pipelines (Full → Basic → each single pass), and the 4-LUT width.
pub fn shrink(case: &OptimizeCase) -> Vec<OptimizeCase> {
    let mut out: Vec<OptimizeCase> = case
        .circuit
        .shrink()
        .into_iter()
        .map(|circuit| OptimizeCase {
            circuit,
            ..case.clone()
        })
        .collect();
    out.extend(
        shrink::subsequences(&case.stimulus)
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|stimulus| OptimizeCase {
                stimulus,
                ..case.clone()
            }),
    );
    match case.arm {
        Arm::Pipeline(OptLevel::Full) => {
            out.push(OptimizeCase {
                arm: Arm::Pipeline(OptLevel::Basic),
                ..case.clone()
            });
            out.extend(SINGLE_ARMS.map(|arm| OptimizeCase {
                arm,
                ..case.clone()
            }));
        }
        Arm::Pipeline(_) => {
            out.extend(SINGLE_ARMS[..3].iter().map(|&arm| OptimizeCase {
                arm,
                ..case.clone()
            }));
        }
        Arm::Single(_) => {}
    }
    if case.lut_k == 5 {
        out.push(OptimizeCase {
            lut_k: 4,
            ..case.clone()
        });
    }
    out
}

/// Applies the case's arm to `netlist`.
fn apply(case: &OptimizeCase, netlist: &Netlist) -> Result<(Netlist, OptReport), String> {
    let res = match case.arm {
        Arm::Single(pass) => PassManager::new([pass], case.lut_k).run(netlist),
        Arm::Pipeline(level) => optimize(netlist, OptOptions::at(level).with_lut_k(case.lut_k)),
    };
    res.map_err(|e| format!("{:?} refused a valid netlist: {e}", case.arm))
}

/// Whether the run ended with a zero-rewrite round (as opposed to the
/// iteration cap) — the precondition for the idempotence claim.
fn converged(report: &OptReport) -> bool {
    report
        .passes
        .iter()
        .filter(|d| d.iteration == report.iterations)
        .all(|d| d.rewrites == 0)
}

/// Runs the full differential check.
///
/// # Errors
///
/// Returns a description of the first divergence: a functional mismatch on
/// any execution path, a LUT-count regression, or a non-idempotent
/// converged run.
pub fn check(case: &OptimizeCase) -> Result<(), String> {
    let raw = case.circuit.build();
    let (opt, report) = apply(case, &raw)?;

    if report.after.luts > report.before.luts {
        return Err(format!(
            "{:?} grew the LUT count: {} -> {}",
            case.arm, report.before.luts, report.after.luts
        ));
    }

    // Pre-mapping equivalence on the stimulus plus derived vectors.
    let mask = case.circuit.input_limit() - 1;
    let (x0, y0) = case.stimulus[0];
    let mut vectors: Vec<Vec<Value>> = case
        .stimulus
        .iter()
        .map(|&(x, y)| vec![Value::Word(x), Value::Word(y)])
        .collect();
    for i in 0..16u32 {
        vectors.push(vec![
            Value::Word(x0.wrapping_mul(i.wrapping_add(3)) & mask),
            Value::Word(y0.wrapping_add(i * 11) & mask),
        ]);
    }
    let cycles = if case.circuit.with_reg { 3 } else { 1 };
    if let Some(m) = first_mismatch(&raw, &opt, &vectors, cycles)
        .map_err(|e| format!("pre-mapping comparison failed: {e}"))?
    {
        return Err(format!("{:?} pre-mapping: {m}", case.arm));
    }

    // Post-mapping equivalence: the optimized circuit must survive
    // Shannon mapping at the width the pipeline targeted.
    let opts = if case.lut_k == 5 {
        TechMapOptions::lut5()
    } else {
        TechMapOptions::lut4()
    };
    let mapped_raw =
        tech_map(&raw, opts).map_err(|e| format!("tech_map refused the raw circuit: {e}"))?;
    let mapped_opt =
        tech_map(&opt, opts).map_err(|e| format!("tech_map refused the optimized circuit: {e}"))?;
    if let Some(m) = first_mismatch(&mapped_raw, &mapped_opt, &vectors, cycles)
        .map_err(|e| format!("post-mapping comparison failed: {e}"))?
    {
        return Err(format!("{:?} post-mapping: {m}", case.arm));
    }

    // Compiled plan over the optimized netlist vs the evaluated raw
    // reference, with sequential state carried across the stimulus.
    let plan = compile(&opt).map_err(|e| format!("compile refused the optimized circuit: {e}"))?;
    let mut state = plan.new_state();
    let mut out = Vec::new();
    let mut reference = Evaluator::new(&raw);
    for (cycle, &(x, y)) in case.stimulus.iter().enumerate() {
        let inputs = [Value::Word(x), Value::Word(y)];
        plan.run_cycle_into(&mut state, &inputs, &mut out)
            .map_err(|e| format!("cycle {cycle}: compiled optimized execution failed: {e}"))?;
        let expect = reference
            .run_cycle(&inputs)
            .map_err(|e| format!("cycle {cycle}: raw reference failed: {e}"))?;
        if out != expect {
            return Err(format!(
                "{:?} compiled, cycle {cycle} (x={x}, y={y}): optimized {out:?} != raw {expect:?}",
                case.arm
            ));
        }
    }

    // 64-lane bit-sliced batch: raw plan vs optimized plan, lane for lane.
    let raw_plan = compile(&raw).map_err(|e| format!("compile refused the raw circuit: {e}"))?;
    let lanes: Vec<Vec<Value>> = (0..BATCH_LANES as u32)
        .map(|l| {
            let (x, y) = case
                .stimulus
                .get(l as usize)
                .copied()
                .unwrap_or((x0.wrapping_mul(l.wrapping_add(3)), y0.wrapping_add(l * 7)));
            vec![Value::Word(x & mask), Value::Word(y & mask)]
        })
        .collect();
    let mut raw_state = raw_plan.new_batch_state_for(BATCH_LANES);
    let mut opt_state = plan.new_batch_state_for(BATCH_LANES);
    let (mut raw_out, mut opt_out) = (Vec::new(), Vec::new());
    for pass in 0..case.stimulus.len().max(2) {
        raw_plan
            .run_batch_cycle_any(&mut raw_state, &lanes, &mut raw_out)
            .map_err(|e| format!("pass {pass}: raw batch failed: {e}"))?;
        plan.run_batch_cycle_any(&mut opt_state, &lanes, &mut opt_out)
            .map_err(|e| format!("pass {pass}: optimized batch failed: {e}"))?;
        if raw_out != opt_out {
            let lane = (0..BATCH_LANES)
                .find(|&l| raw_out[l] != opt_out[l])
                .unwrap_or(0);
            return Err(format!(
                "{:?} batch pass {pass}, lane {lane} ({:?}): raw {:?} != optimized {:?}",
                case.arm, lanes[lane], raw_out[lane], opt_out[lane]
            ));
        }
    }

    // A converged run is a fixpoint: applying the same arm again must
    // rewrite nothing.
    if converged(&report) {
        let (_, second) = apply(case, &opt)?;
        if second.total_rewrites() != 0 {
            return Err(format!(
                "{:?} is not idempotent: converged output still rewrote {} times",
                case.arm,
                second.total_rewrites()
            ));
        }
    }
    Ok(())
}
