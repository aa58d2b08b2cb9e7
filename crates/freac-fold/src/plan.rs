//! Fold execution: a fold schedule compiled into a flat execution plan.
//!
//! One original clock cycle of a folded circuit is a *pass*: the schedule's
//! steps run in order, one per cache cycle, with intermediate values held
//! in the cluster state registers between steps and sequential elements
//! latched at the end of the pass. The micro compute clusters stream one
//! configuration row per step and decide nothing at run time (paper
//! Sec. IV), and so does this model: [`compile_fold`] walks the schedule's
//! availability frontier **once**, reports a read of a value no earlier
//! step produced as [`FoldError::DependencyViolation`] *before* any cycle
//! runs, resolves every operand to a dense state-plane slot, and flattens
//! the pass into an [`ExecPlan`] micro-op stream. [`FoldPlanExecutor`] (one
//! lane) and [`FoldBatchExecutor`] (many lanes) then run passes with no
//! per-cycle allocation and no per-operand branching.
//!
//! Pass semantics:
//!
//! * every primary input takes one caller-supplied value per pass. Bit
//!   inputs are pre-latched parameters, readable from step 0; a word input
//!   becomes readable at the step that bus-reads it;
//! * within one step, work executes in the order bus-reads, LUTs, MACs,
//!   bus-writes — a LUT may consume another LUT scheduled *earlier in the
//!   same step*;
//! * LUT, MAC, input and word-output values must be produced before they
//!   are read. Constants are always readable, and sequential nodes read as
//!   the state latched at the end of the previous pass (power-on values
//!   before the first);
//! * free plumbing (pack/unpack/bit-output chains) is not scheduled: it is
//!   evaluated at its first reference and the value is reused for the rest
//!   of the segment. Every slot is written at most once per segment, so one
//!   evaluation serves every later reference;
//! * at the end of the pass every sequential element latches its D input,
//!   computed from the old state. Only then are primary outputs resolved:
//!   a word output holds the value its bus-write stored, and bit-output
//!   chains observe the *new* register state — their ops land in the plan's
//!   post-latch segment;
//! * each pass counts once in `.passes` and adds the schedule's totals to
//!   the other counters: its length to `.steps_executed`,
//!   `.expected_steps` and `.config_row_reads` (one configuration row per
//!   step), and its LUTs, MACs, bus reads and bus writes to `.lut_evals`,
//!   `.mac_issues`, `.bus_reads` and `.bus_writes`.

use freac_netlist::plan::{AnyBatchState, ExecPlan, PlanBuilder, PlanState, Segment};
use freac_netlist::{Netlist, NodeId, NodeKind, Value};
use freac_probe::CounterRegistry;

use crate::error::FoldError;
use crate::schedule::FoldSchedule;

/// A fold schedule compiled to a flat micro-op stream, plus the per-pass
/// counter increments of the schedule.
///
/// The plan is immutable shared data; create a [`FoldPlanExecutor`] per
/// concurrent execution.
#[derive(Debug, Clone)]
pub struct FoldPlan {
    plan: ExecPlan,
    steps_per_pass: u64,
    lut_evals_per_pass: u64,
    mac_issues_per_pass: u64,
    bus_reads_per_pass: u64,
    bus_writes_per_pass: u64,
}

impl FoldPlan {
    /// The underlying execution plan (for batch evaluation or size probes).
    pub fn exec_plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Fold steps one pass executes (the fold count N).
    pub fn steps_per_pass(&self) -> u64 {
        self.steps_per_pass
    }

    /// Creates an executor with sequential state at power-on values.
    pub fn executor(&self) -> FoldPlanExecutor<'_> {
        FoldPlanExecutor {
            plan: self,
            state: self.plan.new_state(),
        }
    }

    /// Creates a batch executor for up to `max_lanes` concurrent lanes,
    /// every lane at power-on values: one single-lane state per lane up to
    /// [`SCALAR_BATCH_LANES`], else the narrowest supported bit-slice
    /// width that fits ([`ExecPlan::new_batch_state_for`]).
    ///
    /// [`SCALAR_BATCH_LANES`]: freac_netlist::SCALAR_BATCH_LANES
    pub fn batch_executor(&self, max_lanes: usize) -> FoldBatchExecutor<'_> {
        FoldBatchExecutor {
            plan: self,
            state: self.plan.new_batch_state_for(max_lanes),
            lane_passes: 0,
        }
    }

    /// Exports the counters of `passes` completed passes under `prefix`:
    /// `.passes`, `.steps_executed`, `.expected_steps`, `.lut_evals`,
    /// `.mac_issues`, `.bus_reads`, `.bus_writes`, `.config_row_reads`.
    fn export_passes(&self, reg: &mut CounterRegistry, prefix: &str, passes: u64) {
        let steps = self.steps_per_pass.saturating_mul(passes);
        reg.add(&format!("{prefix}.passes"), passes);
        reg.add(&format!("{prefix}.steps_executed"), steps);
        reg.add(&format!("{prefix}.expected_steps"), steps);
        reg.add(
            &format!("{prefix}.lut_evals"),
            self.lut_evals_per_pass.saturating_mul(passes),
        );
        reg.add(
            &format!("{prefix}.mac_issues"),
            self.mac_issues_per_pass.saturating_mul(passes),
        );
        reg.add(
            &format!("{prefix}.bus_reads"),
            self.bus_reads_per_pass.saturating_mul(passes),
        );
        reg.add(
            &format!("{prefix}.bus_writes"),
            self.bus_writes_per_pass.saturating_mul(passes),
        );
        reg.add(&format!("{prefix}.config_row_reads"), steps);
    }
}

/// Runs a [`FoldPlan`] over many independent request lanes per pass, with
/// the *same counter surface* as [`FoldPlanExecutor`]: one batch pass over
/// `k` lanes accounts exactly like `k` single-lane passes, so counters
/// (and every probe invariant over them) are independent of how work was
/// batched. Outputs are per lane, and tail lanes beyond a partial batch
/// never contribute to outputs or counters.
#[derive(Debug)]
pub struct FoldBatchExecutor<'a> {
    plan: &'a FoldPlan,
    state: AnyBatchState,
    /// Lane-passes executed: the sum of `lanes.len()` over calls.
    lane_passes: u64,
}

impl FoldBatchExecutor<'_> {
    /// Widest batch one pass accepts: the per-lane state count up to
    /// [`SCALAR_BATCH_LANES`], else a [`BATCH_WIDTHS`] entry.
    ///
    /// [`SCALAR_BATCH_LANES`]: freac_netlist::SCALAR_BATCH_LANES
    /// [`BATCH_WIDTHS`]: freac_netlist::BATCH_WIDTHS
    pub fn lane_capacity(&self) -> usize {
        self.state.lane_capacity()
    }

    /// Lane-passes executed so far (what `.passes` exports): each lane of
    /// each batch cycle is one pass, exactly as if it had run alone.
    pub fn lane_passes(&self) -> u64 {
        self.lane_passes
    }

    /// Total fold steps executed across all lanes.
    pub fn steps_executed(&self) -> u64 {
        self.plan.steps_per_pass.saturating_mul(self.lane_passes)
    }

    /// Exports execution counters under `prefix` with the exact key set of
    /// [`FoldPlanExecutor::export_into`]; values equal the merge of one
    /// single-lane executor per lane.
    pub fn export_into(&self, reg: &mut CounterRegistry, prefix: &str) {
        self.plan.export_passes(reg, prefix, self.lane_passes);
    }

    /// Returns every lane to power-on values and the lane-pass count to 0,
    /// reusing the state's buffers: the executor then runs and exports
    /// exactly as a fresh [`FoldPlan::batch_executor`] of its width.
    pub fn reset(&mut self) {
        self.plan.plan.reset_batch_state(&mut self.state);
        self.lane_passes = 0;
    }

    /// Runs one original clock cycle for every supplied lane at once,
    /// writing lane `l`'s primary outputs into `out[l]` without
    /// steady-state allocation.
    ///
    /// # Errors
    ///
    /// Returns input-shape errors (including a batch wider than
    /// [`FoldBatchExecutor::lane_capacity`]) with counters untouched,
    /// matching the single-lane executor.
    pub fn run_batch_cycle_into(
        &mut self,
        lanes: &[Vec<Value>],
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), FoldError> {
        self.plan
            .plan
            .run_batch_cycle_any(&mut self.state, lanes, out)
            .map_err(FoldError::Netlist)?;
        self.lane_passes = self.lane_passes.saturating_add(lanes.len() as u64);
        Ok(())
    }
}

/// Runs a [`FoldPlan`] one original clock cycle at a time for a single
/// lane, carrying its sequential state between passes.
#[derive(Debug)]
pub struct FoldPlanExecutor<'a> {
    plan: &'a FoldPlan,
    state: PlanState,
}

impl FoldPlanExecutor<'_> {
    /// Original clock cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.state.cycles()
    }

    /// Total fold steps executed (cache clock cycles of pure compute).
    pub fn steps_executed(&self) -> u64 {
        self.plan.steps_per_pass.saturating_mul(self.cycles())
    }

    /// Exports execution counters under `prefix`: `.passes`,
    /// `.steps_executed`, `.expected_steps`, `.lut_evals`, `.mac_issues`,
    /// `.bus_reads`, `.bus_writes`, `.config_row_reads` — each pass's share
    /// is listed in the [module docs](crate::plan).
    pub fn export_into(&self, reg: &mut CounterRegistry, prefix: &str) {
        self.plan.export_passes(reg, prefix, self.cycles());
    }

    /// Runs one original clock cycle (a full pass over the schedule),
    /// writing the primary outputs in declaration order into `out` without
    /// allocating.
    ///
    /// # Errors
    ///
    /// Returns input-shape errors only — dependency violations were ruled
    /// out at compile time. State and counters are untouched on error.
    pub fn run_cycle_into(
        &mut self,
        inputs: &[Value],
        out: &mut Vec<Value>,
    ) -> Result<(), FoldError> {
        self.plan
            .plan
            .run_cycle_into(&mut self.state, inputs, out)
            .map_err(FoldError::Netlist)
    }

    /// Allocating convenience wrapper over
    /// [`FoldPlanExecutor::run_cycle_into`].
    ///
    /// # Errors
    ///
    /// Propagates input-shape errors.
    pub fn run_cycle(&mut self, inputs: &[Value]) -> Result<Vec<Value>, FoldError> {
        let mut out = Vec::new();
        self.run_cycle_into(inputs, &mut out)?;
        Ok(out)
    }
}

/// Lowers `schedule` over `netlist` into a [`FoldPlan`], checking every
/// read of the pass against the availability rules in the
/// [module docs](crate::plan).
///
/// # Errors
///
/// Returns [`FoldError::DependencyViolation`] if the schedule reads a value
/// before any step produces it: `node` is the consumer (a scheduled LUT,
/// MAC or bus write, a plumbing node, a sequential element's latch, or a
/// primary output) and `operand` the unavailable value. A word output that
/// no step bus-writes is reported as `{ node: o, operand: o }`. Structural
/// netlist errors are propagated.
///
/// # Panics
///
/// Panics if a scheduled bus read targets a node that is not a primary
/// input, or a `luts`/`macs`/`bus_writes` entry names a node of the wrong
/// kind — programming errors in the scheduler.
pub fn compile_fold(netlist: &Netlist, schedule: &FoldSchedule) -> Result<FoldPlan, FoldError> {
    let mut b = PlanBuilder::new(netlist).map_err(FoldError::Netlist)?;
    let nodes = netlist.nodes();
    let pis = netlist.primary_inputs();
    // The availability frontier: true once a step (or the input prologue)
    // has produced the node's value this pass. Bit inputs are pre-latched
    // parameters, available from step 0.
    let mut avail = vec![false; netlist.len()];
    for &pi in pis {
        if matches!(nodes[pi.index()].kind, NodeKind::BitInput { .. }) {
            avail[pi.index()] = true;
        }
    }
    // Free-plumbing memo, one per segment: pre-latch chains and post-latch
    // chains observe different sequential state, so they never share.
    let mut emitted_main = vec![false; netlist.len()];
    let mut emitted_post = vec![false; netlist.len()];

    for step in schedule.steps() {
        for &id in &step.bus_reads {
            assert!(pis.contains(&id), "bus read targets a primary input");
            // The plan's input prologue writes the slot; the read only
            // opens availability at this step.
            avail[id.index()] = true;
        }
        for &id in &step.luts {
            let NodeKind::Lut(_) = nodes[id.index()].kind else {
                unreachable!("scheduled LUT step contains only LUT nodes");
            };
            for &inp in &nodes[id.index()].inputs {
                resolve_emit(
                    inp,
                    id,
                    Segment::Main,
                    &mut b,
                    netlist,
                    &avail,
                    &mut emitted_main,
                )?;
            }
            b.emit(id, Segment::Main);
            avail[id.index()] = true;
        }
        for &id in &step.macs {
            let NodeKind::Mac = nodes[id.index()].kind else {
                unreachable!("scheduled MAC step contains only MAC nodes");
            };
            for &inp in &nodes[id.index()].inputs {
                resolve_emit(
                    inp,
                    id,
                    Segment::Main,
                    &mut b,
                    netlist,
                    &avail,
                    &mut emitted_main,
                )?;
            }
            b.emit(id, Segment::Main);
            avail[id.index()] = true;
        }
        for &id in &step.bus_writes {
            let NodeKind::WordOutput { .. } = nodes[id.index()].kind else {
                unreachable!("scheduled bus write targets a primary word output");
            };
            resolve_emit(
                nodes[id.index()].inputs[0],
                id,
                Segment::Main,
                &mut b,
                netlist,
                &avail,
                &mut emitted_main,
            )?;
            b.emit(id, Segment::Main);
            avail[id.index()] = true;
        }
    }

    // Latch sequential elements at the end of the pass: their D chains run
    // pre-latch (reading old state), then the plan's two-phase latch
    // commits.
    for (i, node) in nodes.iter().enumerate() {
        if node.kind.is_sequential() {
            resolve_emit(
                node.inputs[0],
                NodeId(i as u32),
                Segment::Main,
                &mut b,
                netlist,
                &avail,
                &mut emitted_main,
            )?;
        }
    }
    b.latch_all();

    // Primary outputs: scheduled word outputs already hold their written
    // value; everything else is free plumbing resolved after the latch, so
    // those chains go to the post-latch segment.
    for &o in netlist.primary_outputs() {
        match nodes[o.index()].kind {
            NodeKind::WordOutput { .. } => {
                if !avail[o.index()] {
                    return Err(FoldError::DependencyViolation {
                        node: o,
                        operand: o,
                    });
                }
            }
            _ => {
                resolve_emit(
                    nodes[o.index()].inputs[0],
                    o,
                    Segment::Post,
                    &mut b,
                    netlist,
                    &avail,
                    &mut emitted_post,
                )?;
                b.emit(o, Segment::Post);
            }
        }
    }

    let stats = schedule.stats();
    let bus_reads_per_pass: usize = schedule.steps().iter().map(|s| s.bus_reads.len()).sum();
    let bus_writes_per_pass: usize = schedule.steps().iter().map(|s| s.bus_writes.len()).sum();
    Ok(FoldPlan {
        plan: b.finish(),
        steps_per_pass: schedule.len() as u64,
        lut_evals_per_pass: stats.lut_evals as u64,
        mac_issues_per_pass: stats.mac_issues as u64,
        bus_reads_per_pass: bus_reads_per_pass as u64,
        bus_writes_per_pass: bus_writes_per_pass as u64,
    })
}

/// Resolves the operand `id` of `consumer` at this point of the pass:
/// scheduled values (LUTs, MACs, inputs, word outputs) must already be
/// available, else the read is a [`FoldError::DependencyViolation`];
/// constants and sequential state need nothing; free-plumbing chains
/// (pack/unpack/bit-output) are emitted into `segment` at their first
/// reference and recorded in `emitted`, since every slot is written at
/// most once per segment and one emission serves every later reader.
fn resolve_emit(
    id: NodeId,
    consumer: NodeId,
    segment: Segment,
    b: &mut PlanBuilder<'_>,
    netlist: &Netlist,
    avail: &[bool],
    emitted: &mut [bool],
) -> Result<(), FoldError> {
    let node = &netlist.nodes()[id.index()];
    match &node.kind {
        NodeKind::Lut(_)
        | NodeKind::Mac
        | NodeKind::WordInput { .. }
        | NodeKind::WordOutput { .. }
        | NodeKind::BitInput { .. } => {
            if avail[id.index()] {
                Ok(())
            } else {
                Err(FoldError::DependencyViolation {
                    node: consumer,
                    operand: id,
                })
            }
        }
        // Constants live in the initial planes; sequential nodes' slots
        // hold old state pre-latch and new state post-latch, exactly what
        // each segment should observe.
        NodeKind::ConstBit(_)
        | NodeKind::ConstWord(_)
        | NodeKind::Ff { .. }
        | NodeKind::WordReg { .. } => Ok(()),
        NodeKind::Pack | NodeKind::BitOutput { .. } => {
            if emitted[id.index()] {
                return Ok(());
            }
            for &inp in &node.inputs {
                resolve_emit(inp, id, segment, b, netlist, avail, emitted)?;
            }
            b.emit(id, segment);
            emitted[id.index()] = true;
            Ok(())
        }
        NodeKind::Unpack { .. } => {
            if emitted[id.index()] {
                return Ok(());
            }
            resolve_emit(node.inputs[0], id, segment, b, netlist, avail, emitted)?;
            b.emit(id, segment);
            emitted[id.index()] = true;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{FoldConstraints, LutMode};
    use crate::schedule::{FoldSchedule, FoldStep};
    use crate::scheduler::schedule_fold;
    use freac_netlist::builder::CircuitBuilder;
    use freac_netlist::eval::Evaluator;
    use freac_netlist::techmap::{tech_map, TechMapOptions};
    use freac_netlist::NetlistError;

    /// The `fold.*` counters `passes` passes of `schedule` must export,
    /// in name order, summed straight off its steps.
    fn schedule_counters(schedule: &FoldSchedule, passes: u64) -> Vec<(&'static str, u64)> {
        let steps = schedule.steps();
        let per_pass =
            |f: fn(&FoldStep) -> usize| passes * steps.iter().map(f).sum::<usize>() as u64;
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

    /// Runs `cycles` cycles through the compiled plan and the reference
    /// evaluator, requiring bit-identical outputs, and checks the exported
    /// counters against the schedule's per-pass totals.
    fn compiled_equals_reference(
        netlist: &Netlist,
        inputs: &[Value],
        cycles: usize,
        clusters: usize,
    ) {
        let cons = FoldConstraints::for_tile(clusters, LutMode::Lut4);
        let schedule = schedule_fold(netlist, &cons).unwrap();
        let plan = compile_fold(netlist, &schedule).unwrap();
        let mut ev = Evaluator::new(netlist);
        let mut px = plan.executor();
        let mut out = Vec::new();
        for c in 0..cycles {
            let reference = ev.run_cycle(inputs).unwrap();
            px.run_cycle_into(inputs, &mut out).unwrap();
            assert_eq!(out, reference, "cycle {c} diverged");
        }
        let mut reg = CounterRegistry::new();
        px.export_into(&mut reg, "fold");
        assert_eq!(
            reg.counters().collect::<Vec<_>>(),
            schedule_counters(&schedule, cycles as u64),
            "compiled counters must equal cycles x the schedule's per-pass totals"
        );
        freac_probe::assert_ok(&reg);
    }

    #[test]
    fn adder_compiles_correctly() {
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 16);
        let c = b.word_input("b", 16);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        compiled_equals_reference(&n, &[Value::Word(65535), Value::Word(2)], 1, 1);
        compiled_equals_reference(&n, &[Value::Word(12345), Value::Word(54321 & 0xFFFF)], 2, 4);
    }

    #[test]
    fn rom_compiles_correctly() {
        let table: Vec<u32> = (0..256u32)
            .map(|i| i.wrapping_mul(197).wrapping_add(41) & 0xFF)
            .collect();
        let mut b = CircuitBuilder::new("rom");
        let a = b.word_input("a", 8);
        let v = b.rom(&table, a.bits(), 8);
        b.word_output("v", &v);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        for x in [0u32, 1, 127, 200, 255] {
            compiled_equals_reference(&n, &[Value::Word(x)], 1, 1);
        }
    }

    #[test]
    fn sequential_accumulator_compiles_correctly() {
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 16);
        let (acc, h) = b.word_reg(0, 16);
        let sum = b.add(&acc, &x);
        b.connect_word_reg(h, &sum);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        compiled_equals_reference(&n, &[Value::Word(37)], 8, 1);
    }

    #[test]
    fn mac_pipeline_compiles_correctly() {
        let mut b = CircuitBuilder::new("macpipe");
        let a = b.word_input("a", 32);
        let c = b.word_input("b", 32);
        let (acc, h) = b.word_reg(0, 32);
        let m = b.mac(&a, &c, &acc);
        b.connect_word_reg(h, &m);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        compiled_equals_reference(&n, &[Value::Word(3), Value::Word(5)], 5, 1);
    }

    #[test]
    fn bit_output_with_state_compiles_correctly() {
        // A bit output fed through free plumbing from sequential state
        // exercises the post-latch segment: it resolves *after* latching,
        // so it shows the state the reference evaluator (which resolves
        // outputs before the latch) only shows one cycle later. The
        // bus-written word output is read within the pass, before the
        // latch, and tracks the reference cycle for cycle.
        let mut b = CircuitBuilder::new("done");
        let x = b.word_input("x", 8);
        let (cnt, h) = b.word_reg(0, 8);
        let next = b.add(&cnt, &x);
        b.connect_word_reg(h, &next);
        b.bit_output("msb", cnt.bit(7));
        b.word_output("cnt", &cnt);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let schedule = schedule_fold(&n, &FoldConstraints::for_tile(1, LutMode::Lut4)).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();
        let mut px = plan.executor();
        let mut ev = Evaluator::new(&n);
        let inputs = [Value::Word(100)];
        let mut reference = ev.run_cycle(&inputs).unwrap();
        for c in 0..6 {
            let folded = px.run_cycle(&inputs).unwrap();
            let next = ev.run_cycle(&inputs).unwrap();
            assert_eq!(folded[1], reference[1], "cycle {c}: word output");
            assert_eq!(folded[0], next[0], "cycle {c}: post-latch bit output");
            reference = next;
        }
    }

    #[test]
    fn input_shape_errors_leave_counters_untouched() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let cons = FoldConstraints::for_tile(1, LutMode::Lut4);
        let schedule = schedule_fold(&n, &cons).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();
        let mut px = plan.executor();
        assert!(px.run_cycle(&[]).is_err());
        assert!(px.run_cycle(&[Value::Bit(false)]).is_err());
        assert_eq!(px.steps_executed(), 0);
        assert_eq!(px.cycles(), 0);
        let mut reg = CounterRegistry::new();
        px.export_into(&mut reg, "fold");
        assert_eq!(reg.counter("fold.passes"), 0);
        assert_eq!(reg.counter("fold.lut_evals"), 0);
    }

    #[test]
    fn batch_executor_matches_merged_single_lane_executors() {
        // A batch pass over k lanes must be indistinguishable — outputs
        // AND exported counters — from k single-lane executors merged,
        // at every supported width and with a partial (tail-bearing)
        // batch. This is the fold-path tail-lane leak gate.
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 16);
        let (acc, h) = b.word_reg(9, 16);
        let sum = b.add(&acc, &x);
        b.connect_word_reg(h, &sum);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let cons = FoldConstraints::for_tile(2, LutMode::Lut4);
        let schedule = schedule_fold(&n, &cons).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();

        for &k in &[5usize, 64, 100, 300] {
            let lanes: Vec<Vec<Value>> = (0..k as u32)
                .map(|l| vec![Value::Word(l.wrapping_mul(73).wrapping_add(3) & 0xFFFF)])
                .collect();
            let mut bx = plan.batch_executor(k);
            assert!(bx.lane_capacity() >= k);
            let mut singles: Vec<_> = (0..k).map(|_| plan.executor()).collect();
            let mut out = Vec::new();
            for cycle in 0..3 {
                bx.run_batch_cycle_into(&lanes, &mut out).unwrap();
                assert_eq!(out.len(), k, "outputs must cover exactly the batch");
                for (l, sx) in singles.iter_mut().enumerate() {
                    let expect = sx.run_cycle(&lanes[l]).unwrap();
                    assert_eq!(out[l], expect, "k {k} lane {l} cycle {cycle}");
                }
            }
            let mut ra = CounterRegistry::new();
            let mut rb = CounterRegistry::new();
            bx.export_into(&mut ra, "fold");
            for sx in &singles {
                sx.export_into(&mut rb, "fold");
            }
            assert_eq!(
                ra.counters().collect::<Vec<_>>(),
                rb.counters().collect::<Vec<_>>(),
                "k {k}: batch counters must equal the merged single-lane counters"
            );
        }
    }

    #[test]
    fn reset_batch_executor_reruns_like_a_fresh_one() {
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 16);
        let (acc, h) = b.word_reg(9, 16);
        let sum = b.add(&acc, &x);
        b.connect_word_reg(h, &sum);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let cons = FoldConstraints::for_tile(2, LutMode::Lut4);
        let schedule = schedule_fold(&n, &cons).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();
        for &k in &[1usize, 2, 5, 100, 300] {
            let lanes: Vec<Vec<Value>> = (0..k as u32)
                .map(|l| vec![Value::Word(l.wrapping_mul(73).wrapping_add(3) & 0xFFFF)])
                .collect();
            let run = |bx: &mut FoldBatchExecutor<'_>| {
                let mut out = Vec::new();
                let outs: Vec<Vec<Vec<Value>>> = (0..3)
                    .map(|_| {
                        bx.run_batch_cycle_into(&lanes, &mut out).unwrap();
                        out.clone()
                    })
                    .collect();
                let mut reg = CounterRegistry::new();
                bx.export_into(&mut reg, "fold");
                (outs, to_counters(&reg))
            };
            let mut bx = plan.batch_executor(k);
            let first = run(&mut bx);
            bx.reset();
            assert_eq!(bx.lane_passes(), 0, "k {k}");
            assert_eq!(run(&mut bx), first, "k {k}");
        }
    }

    /// A registry's counters as owned pairs.
    fn to_counters(reg: &CounterRegistry) -> Vec<(String, u64)> {
        reg.counters().map(|(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn batch_executor_errors_leave_counters_untouched() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let cons = FoldConstraints::for_tile(1, LutMode::Lut4);
        let schedule = schedule_fold(&n, &cons).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();
        let mut bx = plan.batch_executor(64);
        let mut out = Vec::new();
        let too_wide: Vec<Vec<Value>> = (0..65u32).map(|l| vec![Value::Word(l)]).collect();
        assert!(bx.run_batch_cycle_into(&too_wide, &mut out).is_err());
        assert!(bx.run_batch_cycle_into(&[], &mut out).is_err());
        assert_eq!(bx.lane_passes(), 0);
        assert_eq!(bx.steps_executed(), 0);
    }

    #[test]
    fn bad_schedule_rejected_at_compile_time() {
        // A schedule that evaluates the consumer before its producer must
        // fail in compile_fold, before any cycle runs, naming the consumer
        // and the operand it read too early.
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 2);
        let x = b.xor(a.bit(0), a.bit(1));
        let nx = b.not(x);
        b.bit_output("nx", nx);
        let n = b.finish().unwrap();
        // The LUT nodes in creation order: xor, then not.
        let luts: Vec<NodeId> = n
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, nd)| matches!(nd.kind, NodeKind::Lut(_)))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let (xor, not) = (luts[0], luts[1]);
        assert_eq!(n.nodes()[not.index()].inputs, vec![xor]);
        let word_in = n.primary_inputs()[0];
        let steps = vec![
            FoldStep {
                luts: vec![not],
                macs: vec![],
                bus_reads: vec![word_in],
                bus_writes: vec![],
            },
            FoldStep {
                luts: vec![xor],
                macs: vec![],
                bus_reads: vec![],
                bus_writes: vec![],
            },
        ];
        let bad = FoldSchedule::new(steps, 0, 8);
        assert_eq!(
            compile_fold(&n, &bad).unwrap_err(),
            FoldError::DependencyViolation {
                node: not,
                operand: xor
            }
        );
    }

    #[test]
    fn input_count_expects_every_primary_input() {
        // Bit inputs count toward the expected input total just like word
        // inputs (they are pre-latched parameters, not bus reads); the
        // error names the full primary-input count.
        let mut b = CircuitBuilder::new("mixed");
        let en = b.bit_input("en");
        let a = b.word_input("a", 4);
        let gated = b.and(a.bit(3), en);
        b.bit_output("msb", gated);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        assert_eq!(n.primary_inputs().len(), 2);
        let cons = FoldConstraints::for_tile(1, LutMode::Lut4);
        let schedule = schedule_fold(&n, &cons).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();
        let mut px = plan.executor();
        assert_eq!(
            px.run_cycle(&[Value::Word(5)]),
            Err(FoldError::Netlist(NetlistError::InputCountMismatch {
                expected: 2,
                found: 1
            }))
        );
        assert_eq!(
            px.run_cycle(&[Value::Bit(true), Value::Word(12)]).unwrap(),
            vec![Value::Bit(true)]
        );
    }

    #[test]
    fn steps_executed_accumulates() {
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 8);
        let c = b.word_input("b", 8);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let cons = FoldConstraints::for_tile(1, LutMode::Lut4);
        let schedule = schedule_fold(&n, &cons).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();
        let mut px = plan.executor();
        px.run_cycle(&[Value::Word(1), Value::Word(2)]).unwrap();
        px.run_cycle(&[Value::Word(3), Value::Word(4)]).unwrap();
        assert_eq!(px.steps_executed(), 2 * schedule.len() as u64);
        assert_eq!(px.cycles(), 2);
        let mut reg = CounterRegistry::new();
        px.export_into(&mut reg, "fold");
        assert_eq!(reg.counter("fold.passes"), 2);
        assert_eq!(
            reg.counter("fold.steps_executed"),
            reg.counter("fold.expected_steps")
        );
        // Every LUT in the netlist evaluates once per pass.
        let luts = n
            .nodes()
            .iter()
            .filter(|nd| matches!(nd.kind, NodeKind::Lut(_)))
            .count() as u64;
        assert_eq!(reg.counter("fold.lut_evals"), 2 * luts);
        assert_eq!(reg.counter("fold.config_row_reads"), px.steps_executed());
        assert_eq!(reg.counter("fold.bus_reads"), 2 * 2, "two inputs per pass");
        freac_probe::assert_ok(&reg);
    }

    #[test]
    fn unwritten_word_output_rejected_at_compile_time() {
        // A schedule that never bus-writes a word output must be rejected
        // with the {node: o, operand: o} shape.
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 4);
        b.word_output("o", &a);
        let n = b.finish().unwrap();
        let word_in = n.primary_inputs()[0];
        let steps = vec![FoldStep {
            luts: vec![],
            macs: vec![],
            bus_reads: vec![word_in],
            bus_writes: vec![],
        }];
        let sched = FoldSchedule::new(steps, 0, 8);
        let o = n.primary_outputs()[0];
        assert_eq!(
            compile_fold(&n, &sched).unwrap_err(),
            FoldError::DependencyViolation {
                node: o,
                operand: o
            }
        );
    }
}
