//! Fold oracle: direct netlist evaluation, the Shannon-mapped K-LUT
//! netlist, and the folded schedule compiled to an execution plan must all
//! agree bit for bit — the paper's central claim that logic folding
//! time-multiplexes a circuit without changing its function. The folded
//! run must also export exactly the probe counters its schedule implies.

use freac_fold::{
    compile_fold, schedule_fold, FoldConstraints, FoldPlan, FoldSchedule, FoldStep, LutMode,
};
use freac_netlist::eval::Evaluator;
use freac_netlist::techmap::{tech_map, TechMapOptions};
use freac_netlist::{NodeId, NodeKind, Value};
use freac_rand::Rng64;

use crate::circuit::CircuitSpec;
use crate::shrink;

/// One fold-oracle case: a circuit, a LUT flavor, a tile size, and a
/// multi-cycle stimulus.
#[derive(Debug, Clone)]
pub struct FoldCase {
    /// The circuit under test.
    pub circuit: CircuitSpec,
    /// `true` for 5-LUT mapping/folding, `false` for 4-LUT.
    pub lut5: bool,
    /// Micro compute clusters on the tile (1..=4).
    pub clusters: usize,
    /// `(x, y)` input words, one pair per original clock cycle.
    pub stimulus: Vec<(u32, u32)>,
}

/// Draws a random [`FoldCase`].
pub fn generate(rng: &mut Rng64) -> FoldCase {
    let circuit = CircuitSpec::random(rng, 10);
    let cycles = 1 + rng.index(3);
    let limit = circuit.input_limit();
    let stimulus = (0..cycles)
        .map(|_| (rng.range_u32(0, limit), rng.range_u32(0, limit)))
        .collect();
    FoldCase {
        circuit,
        lut5: rng.bool(),
        clusters: 1 + rng.index(4),
        stimulus,
    }
}

/// Shrink candidates: smaller circuits, shorter stimuli (at least one
/// cycle), fewer clusters, and the 4-LUT flavor.
pub fn shrink(case: &FoldCase) -> Vec<FoldCase> {
    let mut out: Vec<FoldCase> = case
        .circuit
        .shrink()
        .into_iter()
        .map(|circuit| FoldCase {
            circuit,
            ..case.clone()
        })
        .collect();
    out.extend(
        shrink::subsequences(&case.stimulus)
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|stimulus| FoldCase {
                stimulus,
                ..case.clone()
            }),
    );
    for clusters in shrink::halvings_usize(case.clusters) {
        if clusters >= 1 {
            out.push(FoldCase {
                clusters,
                ..case.clone()
            });
        }
    }
    if case.lut5 {
        out.push(FoldCase {
            lut5: false,
            ..case.clone()
        });
    }
    out
}

/// The `fold.*` counters `passes` passes of `schedule` must export, in
/// name order, summed straight off its steps: one `.passes` per pass, the
/// schedule length in steps (and configuration-row reads), and its LUTs,
/// MACs, bus reads and bus writes.
pub fn schedule_counters(schedule: &FoldSchedule, passes: u64) -> Vec<(&'static str, u64)> {
    let steps = schedule.steps();
    let per_pass = |f: fn(&FoldStep) -> usize| passes * steps.iter().map(f).sum::<usize>() as u64;
    let len = passes * steps.len() as u64;
    vec![
        ("fold.bus_reads", per_pass(|s| s.bus_reads.len())),
        ("fold.bus_writes", per_pass(|s| s.bus_writes.len())),
        ("fold.config_row_reads", len),
        ("fold.expected_steps", len),
        ("fold.lut_evals", per_pass(|s| s.luts.len())),
        ("fold.mac_issues", per_pass(|s| s.macs.len())),
        ("fold.passes", passes),
        ("fold.steps_executed", len),
    ]
}

/// Maps `netlist` for the case's LUT flavor, folds it onto the case's
/// tile, and compiles the fold.
fn fold(
    case: &FoldCase,
    netlist: &freac_netlist::Netlist,
) -> Result<(freac_netlist::Netlist, FoldSchedule, FoldPlan), String> {
    let (opts, mode) = if case.lut5 {
        (TechMapOptions::lut5(), LutMode::Lut5)
    } else {
        (TechMapOptions::lut4(), LutMode::Lut4)
    };
    let mapped = tech_map(netlist, opts).map_err(|e| format!("tech_map refused: {e}"))?;
    let cons = FoldConstraints::for_tile(case.clusters, mode);
    let schedule =
        schedule_fold(&mapped, &cons).map_err(|e| format!("schedule_fold refused: {e}"))?;
    let plan =
        compile_fold(&mapped, &schedule).map_err(|e| format!("compile_fold refused: {e}"))?;
    Ok((mapped, schedule, plan))
}

/// Runs the three-way differential check: direct vs mapped vs folded.
///
/// # Errors
///
/// Returns a description of the first divergence (or of a layer refusing
/// the circuit, which is itself a failure: the generator only produces
/// mappable, schedulable circuits).
pub fn check(case: &FoldCase) -> Result<(), String> {
    check_netlist(case, &case.circuit.build())
}

/// [`check`] against an explicit netlist, letting callers inject faults
/// (e.g. a corrupted LUT mask) into an otherwise-identical pipeline.
pub fn check_netlist(case: &FoldCase, netlist: &freac_netlist::Netlist) -> Result<(), String> {
    let (mapped, schedule, plan) = fold(case, netlist)?;
    let mut direct = Evaluator::new(netlist);
    let mut lut_level = Evaluator::new(&mapped);
    let mut folded = plan.executor();
    let mut c = Vec::new();
    for (cycle, &(x, y)) in case.stimulus.iter().enumerate() {
        let inputs = [Value::Word(x), Value::Word(y)];
        let a = direct
            .run_cycle(&inputs)
            .map_err(|e| format!("cycle {cycle}: direct evaluation failed: {e}"))?;
        let b = lut_level
            .run_cycle(&inputs)
            .map_err(|e| format!("cycle {cycle}: mapped evaluation failed: {e}"))?;
        folded
            .run_cycle_into(&inputs, &mut c)
            .map_err(|e| format!("cycle {cycle}: folded execution failed: {e}"))?;
        if a != b {
            return Err(format!(
                "cycle {cycle} (x={x}, y={y}): direct {a:?} != mapped {b:?}"
            ));
        }
        if b != c {
            return Err(format!(
                "cycle {cycle} (x={x}, y={y}): mapped {b:?} != folded {c:?}"
            ));
        }
    }

    let mut reg = freac_probe::CounterRegistry::new();
    folded.export_into(&mut reg, "fold");
    let got: Vec<_> = reg.counters().collect();
    let want = schedule_counters(&schedule, case.stimulus.len() as u64);
    if got != want {
        return Err(format!(
            "counter divergence: folded {got:?} != schedule {want:?}"
        ));
    }
    Ok(())
}

/// Deliberate-fault variant of [`check`]: flips one truth-table bit of one
/// LUT (`lut_index`/`row_index`, both taken modulo what the circuit
/// offers) and runs the corrupted netlist through mapping and folding
/// against the *clean* direct reference.
///
/// # Errors
///
/// Returns the observed divergence whenever the flipped mask is visible at
/// an output — the expected outcome, which fault-injection tests use to
/// prove the oracle detects and shrinks a real bug. Returns `Ok` when the
/// fault is unobservable for this case (no LUT in the circuit, or the
/// flipped row is never addressed by the stimulus).
pub fn check_with_corrupted_lut(
    case: &FoldCase,
    lut_index: usize,
    row_index: usize,
) -> Result<(), String> {
    // Corrupt the pre-mapping netlist: every mapped/folded layer inherits
    // the flipped mask while the clean rebuild keeps the reference honest.
    let mut netlist = case.circuit.build();
    let luts: Vec<NodeId> = netlist
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Lut(_)))
        .map(|(i, _)| NodeId(i as u32))
        .collect();
    if luts.is_empty() {
        return Ok(());
    }
    let victim = luts[lut_index % luts.len()];
    let NodeKind::Lut(table) = &netlist.nodes()[victim.index()].kind else {
        unreachable!("filtered to LUT nodes");
    };
    let mut corrupted = table.clone();
    let row = row_index % corrupted.rows();
    corrupted.set(row, !corrupted.get(row));
    netlist
        .replace_lut_table(victim, corrupted)
        .expect("same node, same arity");

    let clean = case.circuit.build();
    let (_, _, plan) = fold(case, &netlist)?;
    let mut direct = Evaluator::new(&clean);
    let mut folded = plan.executor();
    for (cycle, &(x, y)) in case.stimulus.iter().enumerate() {
        let inputs = [Value::Word(x), Value::Word(y)];
        let a = direct
            .run_cycle(&inputs)
            .map_err(|e| format!("cycle {cycle}: direct evaluation failed: {e}"))?;
        let c = folded
            .run_cycle(&inputs)
            .map_err(|e| format!("cycle {cycle}: corrupted folded execution failed: {e}"))?;
        if a != c {
            return Err(format!(
                "cycle {cycle} (x={x}, y={y}): clean direct {a:?} != corrupted folded {c:?}"
            ));
        }
    }
    Ok(())
}
