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
//! the pass into an [`ExecPlan`] micro-op stream. [`FoldPlanExecutor`]
//! runs one lane's passes with no per-cycle allocation and no per-operand
//! branching.
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
//!   of the pass. Every slot is written at most once per pass, so one
//!   evaluation serves every later reference;
//! * primary outputs are resolved before the latch, as the reference
//!   evaluator and [`compile`](freac_netlist::compile) resolve them: a
//!   word output holds the value its bus-write stored, and bit-output
//!   chains observe the *old* register state. Then every sequential
//!   element latches its D input, computed from the old state;
//! * each pass counts once in `.passes` and adds the schedule's totals to
//!   the other counters: its length to `.steps_executed`,
//!   `.expected_steps` and `.config_row_reads` (one configuration row per
//!   step), and its LUTs, MACs, bus reads and bus writes to `.lut_evals`,
//!   `.mac_issues`, `.bus_reads` and `.bus_writes`.

use freac_netlist::plan::{ExecPlan, PlanBuilder, PlanState};
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
/// Returns [`FoldError::MisplacedNode`] if a step lists a node where it
/// cannot run: a bus read of a node that is not a primary input, a
/// `luts`/`macs`/`bus_writes` entry naming a node of another kind, or a
/// node id past the netlist. Returns [`FoldError::DependencyViolation`] if
/// the schedule reads a value before any step produces it: `node` is the
/// consumer (a scheduled LUT, MAC or bus write, a plumbing node, a
/// sequential element's latch, or a primary output) and `operand` the
/// unavailable value. A word output that no step bus-writes is reported as
/// `{ node: o, operand: o }`. Structural netlist errors are propagated.
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
    // The free-plumbing memo: every slot is written at most once per pass,
    // so one emission serves every later reference.
    let mut emitted = vec![false; netlist.len()];

    for (s, step) in schedule.steps().iter().enumerate() {
        for &id in &step.bus_reads {
            if !pis.contains(&id) {
                return Err(FoldError::MisplacedNode {
                    step: s,
                    list: "bus_reads",
                    node: id,
                });
            }
            // The plan's input prologue writes the slot; the read only
            // opens availability at this step.
            avail[id.index()] = true;
        }
        let lists = [
            ("luts", &step.luts),
            ("macs", &step.macs),
            ("bus_writes", &step.bus_writes),
        ];
        for (list, ids) in lists {
            for &id in ids {
                let node = match nodes.get(id.index()) {
                    Some(node) if listable(list, &node.kind) => node,
                    _ => {
                        return Err(FoldError::MisplacedNode {
                            step: s,
                            list,
                            node: id,
                        })
                    }
                };
                for &inp in &node.inputs {
                    resolve_emit(inp, id, &mut b, netlist, &avail, &mut emitted)?;
                }
                b.emit(id);
                avail[id.index()] = true;
            }
        }
    }

    // The end of the pass, all before the latch: sequential elements' D
    // chains and the primary outputs read the pass's values and the old
    // state. A word output holds what its bus-write stored; bit-output
    // chains are free plumbing, resolved here.
    for (i, node) in nodes.iter().enumerate() {
        if node.kind.is_sequential() {
            resolve_emit(
                node.inputs[0],
                NodeId(i as u32),
                &mut b,
                netlist,
                &avail,
                &mut emitted,
            )?;
        }
    }
    for &o in netlist.primary_outputs() {
        resolve_emit(o, o, &mut b, netlist, &avail, &mut emitted)?;
    }
    b.latch_all();

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

/// Whether a node of `kind` may be listed in a step's `list` (`"luts"`,
/// `"macs"` or `"bus_writes"`).
fn listable(list: &str, kind: &NodeKind) -> bool {
    match list {
        "luts" => matches!(kind, NodeKind::Lut(_)),
        "macs" => matches!(kind, NodeKind::Mac),
        _ => matches!(kind, NodeKind::WordOutput { .. }),
    }
}

/// Resolves the operand `id` of `consumer` at this point of the pass:
/// scheduled values (LUTs, MACs, inputs, word outputs) must already be
/// available, else the read is a [`FoldError::DependencyViolation`];
/// constants and sequential state need nothing; free-plumbing chains
/// (pack/unpack/bit-output) are emitted at their first reference and
/// recorded in `emitted`, since every slot is written at most once per
/// pass and one emission serves every later reader.
fn resolve_emit(
    id: NodeId,
    consumer: NodeId,
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
        // hold the old state until the latch at the end of the pass.
        NodeKind::ConstBit(_)
        | NodeKind::ConstWord(_)
        | NodeKind::Ff { .. }
        | NodeKind::WordReg { .. } => Ok(()),
        NodeKind::Pack | NodeKind::Unpack { .. } | NodeKind::BitOutput { .. } => {
            if emitted[id.index()] {
                return Ok(());
            }
            for &inp in &node.inputs {
                resolve_emit(inp, id, b, netlist, avail, emitted)?;
            }
            b.emit(id);
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
        // resolves before the latch, like the bus-written word output: both
        // track the reference evaluator cycle for cycle. The counter's msb
        // rises at cycle 2 (0, 100, 200), so an output read one cycle
        // ahead would differ there.
        let mut b = CircuitBuilder::new("done");
        let x = b.word_input("x", 8);
        let (cnt, h) = b.word_reg(0, 8);
        let next = b.add(&cnt, &x);
        b.connect_word_reg(h, &next);
        b.bit_output("msb", cnt.bit(7));
        b.word_output("cnt", &cnt);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let mut ev = Evaluator::new(&n);
        let msb: Vec<Value> = (0..3)
            .map(|_| ev.run_cycle(&[Value::Word(100)]).unwrap()[0])
            .collect();
        assert_eq!(
            msb,
            [Value::Bit(false), Value::Bit(false), Value::Bit(true)]
        );
        for clusters in [1, 2] {
            compiled_equals_reference(&n, &[Value::Word(100)], 6, clusters);
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
    fn bad_schedule_rejected_at_compile_time() {
        // A schedule that evaluates the consumer before its producer must
        // fail in compile_fold, before any cycle runs, naming the consumer
        // and the operand it read too early.
        let (n, word_in, xor, not) = xor_not();
        assert_eq!(n.nodes()[not.index()].inputs, vec![xor]);
        let steps = vec![
            FoldStep {
                luts: vec![not],
                bus_reads: vec![word_in],
                ..FoldStep::default()
            },
            FoldStep {
                luts: vec![xor],
                ..FoldStep::default()
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

    /// A two-bit circuit `nx = !(a0 ^ a1)`, its word input and its two
    /// LUTs (xor, then not), for malformed schedules.
    fn xor_not() -> (Netlist, NodeId, NodeId, NodeId) {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 2);
        let x = b.xor(a.bit(0), a.bit(1));
        let nx = b.not(x);
        b.bit_output("nx", nx);
        let n = b.finish().unwrap();
        let luts: Vec<NodeId> = n
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, nd)| matches!(nd.kind, NodeKind::Lut(_)))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let word_in = n.primary_inputs()[0];
        (n, word_in, luts[0], luts[1])
    }

    /// `compile_fold`'s error on a one-step schedule of `step`, after a
    /// well-formed first step that reads the input and evaluates both
    /// LUTs.
    fn second_step_error(
        n: &Netlist,
        word_in: NodeId,
        luts: [NodeId; 2],
        step: FoldStep,
    ) -> FoldError {
        let first = FoldStep {
            luts: luts.to_vec(),
            bus_reads: vec![word_in],
            ..FoldStep::default()
        };
        compile_fold(n, &FoldSchedule::new(vec![first, step], 0, 8)).unwrap_err()
    }

    #[test]
    fn bus_read_of_a_non_input_is_rejected() {
        let (n, word_in, xor, not) = xor_not();
        let step = FoldStep {
            bus_reads: vec![xor],
            ..FoldStep::default()
        };
        assert_eq!(
            second_step_error(&n, word_in, [xor, not], step),
            FoldError::MisplacedNode {
                step: 1,
                list: "bus_reads",
                node: xor
            }
        );
    }

    #[test]
    fn entry_of_the_wrong_kind_is_rejected() {
        let (n, word_in, xor, not) = xor_not();
        let out = n.primary_outputs()[0];
        for (step, list, node) in [
            (
                FoldStep {
                    luts: vec![word_in],
                    ..FoldStep::default()
                },
                "luts",
                word_in,
            ),
            (
                FoldStep {
                    macs: vec![xor],
                    ..FoldStep::default()
                },
                "macs",
                xor,
            ),
            (
                FoldStep {
                    bus_writes: vec![out],
                    ..FoldStep::default()
                },
                "bus_writes",
                out,
            ),
        ] {
            assert_eq!(
                second_step_error(&n, word_in, [xor, not], step),
                FoldError::MisplacedNode {
                    step: 1,
                    list,
                    node
                },
                "{list}"
            );
        }
    }

    #[test]
    fn node_past_the_netlist_is_rejected() {
        let (n, word_in, xor, not) = xor_not();
        let past = NodeId(n.len() as u32);
        for (step, list) in [
            (
                FoldStep {
                    bus_reads: vec![past],
                    ..FoldStep::default()
                },
                "bus_reads",
            ),
            (
                FoldStep {
                    luts: vec![past],
                    ..FoldStep::default()
                },
                "luts",
            ),
            (
                FoldStep {
                    macs: vec![past],
                    ..FoldStep::default()
                },
                "macs",
            ),
            (
                FoldStep {
                    bus_writes: vec![past],
                    ..FoldStep::default()
                },
                "bus_writes",
            ),
        ] {
            assert_eq!(
                second_step_error(&n, word_in, [xor, not], step),
                FoldError::MisplacedNode {
                    step: 1,
                    list,
                    node: past
                },
                "{list}"
            );
        }
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
