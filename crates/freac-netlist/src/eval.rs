//! Reference (un-folded) evaluation of a netlist.
//!
//! [`Evaluator`] executes the circuit one *original* clock cycle at a time:
//! all combinational logic settles within the cycle and sequential elements
//! latch at the cycle boundary. The compiled fold executors in `freac-fold`
//! must produce bit-identical results (bit outputs fed from sequential state
//! through free plumbing alone resolve after the latch there, see
//! `freac_fold::plan`); that equivalence is the central functional
//! correctness property of the reproduction and is property-tested.

use std::fmt;

use crate::error::NetlistError;
use crate::graph::{Netlist, NodeKind, Value};
use crate::level::{level_graph, LeveledGraph};

/// Evaluates a netlist cycle by cycle.
#[derive(Debug)]
pub struct Evaluator<'a> {
    netlist: &'a Netlist,
    leveled: LeveledGraph,
    /// Current combinational value of every node.
    values: Vec<Value>,
    /// Latched state of sequential nodes (indexed like nodes; unused slots
    /// stay at their init).
    state: Vec<Value>,
    cycles: u64,
}

impl<'a> Evaluator<'a> {
    /// Prepares an evaluator, resetting all sequential state to its init
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation or contains a combinational
    /// cycle — construct netlists through
    /// [`CircuitBuilder`](crate::builder::CircuitBuilder) to rule both out.
    pub fn new(netlist: &'a Netlist) -> Self {
        netlist
            .validate()
            .expect("netlist must be structurally valid");
        let leveled = level_graph(netlist).expect("netlist must be acyclic");
        let mut state = vec![Value::Bit(false); netlist.len()];
        for (i, node) in netlist.nodes().iter().enumerate() {
            match node.kind {
                NodeKind::Ff { init } => state[i] = Value::Bit(init),
                NodeKind::WordReg { init } => state[i] = Value::Word(init),
                _ => {}
            }
        }
        Evaluator {
            netlist,
            leveled,
            values: vec![Value::Bit(false); netlist.len()],
            state,
            cycles: 0,
        }
    }

    /// Number of original clock cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets sequential state to power-on values.
    pub fn reset(&mut self) {
        for (i, node) in self.netlist.nodes().iter().enumerate() {
            match node.kind {
                NodeKind::Ff { init } => self.state[i] = Value::Bit(init),
                NodeKind::WordReg { init } => self.state[i] = Value::Word(init),
                _ => {}
            }
        }
        self.cycles = 0;
    }

    /// Runs one original clock cycle with the given primary input values (in
    /// primary-input declaration order) and returns the primary outputs (in
    /// declaration order).
    ///
    /// # Errors
    ///
    /// Returns an error if the number or types of `inputs` do not match the
    /// netlist's primary inputs.
    pub fn run_cycle(&mut self, inputs: &[Value]) -> Result<Vec<Value>, NetlistError> {
        let mut out = Vec::with_capacity(self.netlist.primary_outputs().len());
        self.run_cycle_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Like [`Self::run_cycle`] but writes the outputs into `out` (cleared
    /// first), so a caller driving many cycles reuses one buffer instead of
    /// allocating per cycle.
    ///
    /// # Errors
    ///
    /// Returns an error if the number or types of `inputs` do not match the
    /// netlist's primary inputs; `out` is left cleared in that case.
    pub fn run_cycle_into(
        &mut self,
        inputs: &[Value],
        out: &mut Vec<Value>,
    ) -> Result<(), NetlistError> {
        out.clear();
        let pis = self.netlist.primary_inputs();
        if inputs.len() != pis.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: pis.len(),
                found: inputs.len(),
            });
        }
        for (i, (&pi, &v)) in pis.iter().zip(inputs).enumerate() {
            let expect = self.netlist.nodes()[pi.index()].kind.output_type();
            if v.signal_type() != expect {
                return Err(NetlistError::InputTypeMismatch { index: i });
            }
            self.values[pi.index()] = v;
        }

        // Combinational settle in topological order.
        for &id in self.leveled.order().iter() {
            let node = &self.netlist.nodes()[id.index()];
            let val = match &node.kind {
                NodeKind::BitInput { .. } | NodeKind::WordInput { .. } => {
                    continue; // set above
                }
                NodeKind::ConstBit(b) => Value::Bit(*b),
                NodeKind::ConstWord(w) => Value::Word(*w),
                NodeKind::Ff { .. } | NodeKind::WordReg { .. } => self.state[id.index()],
                NodeKind::Lut(t) => {
                    let mut row = 0usize;
                    for (i, &inp) in node.inputs.iter().enumerate() {
                        if self.values[inp.index()]
                            .as_bit()
                            .expect("validated bit operand")
                        {
                            row |= 1 << i;
                        }
                    }
                    Value::Bit(t.eval(row))
                }
                NodeKind::Mac => {
                    let a = self.word_at(node.inputs[0]);
                    let b = self.word_at(node.inputs[1]);
                    let acc = self.word_at(node.inputs[2]);
                    Value::Word(a.wrapping_mul(b).wrapping_add(acc))
                }
                NodeKind::Pack => {
                    let mut w = 0u32;
                    for (i, &inp) in node.inputs.iter().enumerate() {
                        if self.values[inp.index()]
                            .as_bit()
                            .expect("validated bit operand")
                        {
                            w |= 1 << i;
                        }
                    }
                    Value::Word(w)
                }
                NodeKind::Unpack { bit } => {
                    let w = self.word_at(node.inputs[0]);
                    Value::Bit((w >> bit) & 1 == 1)
                }
                NodeKind::BitOutput { .. } => self.values[node.inputs[0].index()],
                NodeKind::WordOutput { .. } => self.values[node.inputs[0].index()],
            };
            self.values[id.index()] = val;
        }

        // Latch sequential elements.
        for (i, node) in self.netlist.nodes().iter().enumerate() {
            if node.kind.is_sequential() {
                self.state[i] = self.values[node.inputs[0].index()];
            }
        }
        self.cycles += 1;

        out.extend(
            self.netlist
                .primary_outputs()
                .iter()
                .map(|&o| self.values[o.index()]),
        );
        Ok(())
    }

    /// Runs `cycles` cycles feeding the same inputs each cycle; returns the
    /// outputs of the final cycle. One output buffer is reused across all
    /// cycles.
    ///
    /// # Errors
    ///
    /// Propagates input mismatch errors from [`Self::run_cycle`].
    pub fn run_cycles(
        &mut self,
        inputs: &[Value],
        cycles: usize,
    ) -> Result<Vec<Value>, NetlistError> {
        let mut last = Vec::with_capacity(self.netlist.primary_outputs().len());
        for _ in 0..cycles {
            self.run_cycle_into(inputs, &mut last)?;
        }
        Ok(last)
    }

    /// Current value of a node (after the most recent cycle).
    pub fn value_of(&self, id: crate::graph::NodeId) -> Value {
        self.values[id.index()]
    }

    fn word_at(&self, id: crate::graph::NodeId) -> u32 {
        self.values[id.index()]
            .as_word()
            .expect("validated word operand")
    }
}

/// The first divergence [`first_mismatch`] found between two netlists:
/// which input vector disagreed, on which cycle, under which primary-input
/// assignment, and what each side produced.
///
/// The [`fmt::Display`] form is the debugging payload the differential
/// oracles print when an optimization pass breaks equivalence — an opaque
/// `false` from [`equivalent_on`] names none of this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceMismatch {
    /// Index of the diverging vector in the caller's `input_vectors`.
    pub vector: usize,
    /// 0-based cycle within that vector's replay.
    pub cycle: usize,
    /// The primary-input assignment of the diverging vector.
    pub inputs: Vec<Value>,
    /// Outputs of the first (`a`) netlist, declaration order.
    pub left: Vec<Value>,
    /// Outputs of the second (`b`) netlist, declaration order.
    pub right: Vec<Value>,
}

impl fmt::Display for EquivalenceMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlists diverge on vector #{} (cycle {}): inputs {:?} -> left {:?}, right {:?}",
            self.vector, self.cycle, self.inputs, self.left, self.right
        )
    }
}

/// Finds the first input vector on which two netlists disagree, if any.
///
/// Both netlists are compiled to [execution plans](crate::plan::ExecPlan)
/// and, when they carry no sequential state, checked up to
/// [`MAX_BATCH_LANES`](crate::plan::MAX_BATCH_LANES) input vectors per
/// bit-sliced batch pass (512 with the 8-word sweep). Sequential netlists
/// fall back to single-vector compiled execution with state carried across
/// vectors — the original evaluator semantics. The reported vector index
/// is always the smallest diverging index within the first diverging
/// batch pass.
///
/// # Errors
///
/// Propagates compilation and evaluation errors from either netlist.
pub fn first_mismatch(
    a: &Netlist,
    b: &Netlist,
    input_vectors: &[Vec<Value>],
    cycles_per_vector: usize,
) -> Result<Option<EquivalenceMismatch>, NetlistError> {
    let pa = crate::plan::compile(a)?;
    let pb = crate::plan::compile(b)?;
    if pa.is_combinational() && pb.is_combinational() {
        // Stateless circuits: vectors are independent, so pack them into
        // the widest bit-sliced batch pass. Repeating a combinational
        // cycle cannot change its outputs, but run all requested cycles
        // anyway to keep the error behaviour (and any future sequential
        // drift) identical.
        let mut sa = pa.new_batch_state_for(crate::plan::MAX_BATCH_LANES);
        let mut sb = pb.new_batch_state_for(crate::plan::MAX_BATCH_LANES);
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for (chunk_idx, chunk) in input_vectors
            .chunks(crate::plan::MAX_BATCH_LANES)
            .enumerate()
        {
            for cycle in 0..cycles_per_vector {
                pa.run_batch_cycle_any(&mut sa, chunk, &mut oa)?;
                pb.run_batch_cycle_any(&mut sb, chunk, &mut ob)?;
                if oa != ob {
                    let lane = oa
                        .iter()
                        .zip(&ob)
                        .position(|(x, y)| x != y)
                        .expect("unequal batches have a diverging lane");
                    let vector = chunk_idx * crate::plan::MAX_BATCH_LANES + lane;
                    return Ok(Some(EquivalenceMismatch {
                        vector,
                        cycle,
                        inputs: chunk[lane].clone(),
                        left: oa[lane].clone(),
                        right: ob[lane].clone(),
                    }));
                }
            }
        }
    } else {
        let mut sa = pa.new_state();
        let mut sb = pb.new_state();
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for (vector, v) in input_vectors.iter().enumerate() {
            for cycle in 0..cycles_per_vector {
                pa.run_cycle_into(&mut sa, v, &mut oa)?;
                pb.run_cycle_into(&mut sb, v, &mut ob)?;
                if oa != ob {
                    return Ok(Some(EquivalenceMismatch {
                        vector,
                        cycle,
                        inputs: v.clone(),
                        left: oa.clone(),
                        right: ob.clone(),
                    }));
                }
            }
        }
    }
    Ok(None)
}

/// Convenience check that two netlists compute the same function on a batch
/// of input vectors (used to verify technology mapping preserves semantics).
///
/// Thin wrapper over [`first_mismatch`]; use that (or
/// [`assert_equivalent_on`]) when a failure needs to say *which* vector
/// diverged.
///
/// # Errors
///
/// Propagates compilation and evaluation errors from either netlist.
pub fn equivalent_on(
    a: &Netlist,
    b: &Netlist,
    input_vectors: &[Vec<Value>],
    cycles_per_vector: usize,
) -> Result<bool, NetlistError> {
    Ok(first_mismatch(a, b, input_vectors, cycles_per_vector)?.is_none())
}

/// Asserts two netlists agree on every vector, panicking with the first
/// diverging vector index, PI assignment, and both output rows.
///
/// # Panics
///
/// Panics on the first divergence, or on a compilation/evaluation error
/// from either netlist.
pub fn assert_equivalent_on(
    a: &Netlist,
    b: &Netlist,
    input_vectors: &[Vec<Value>],
    cycles_per_vector: usize,
) {
    match first_mismatch(a, b, input_vectors, cycles_per_vector) {
        Ok(None) => {}
        Ok(Some(m)) => panic!("{} vs {}: {m}", a.name(), b.name()),
        Err(e) => panic!(
            "equivalence check of {} vs {} failed to run: {e}",
            a.name(),
            b.name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    #[test]
    fn input_count_checked() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let n = b.finish().unwrap();
        let mut ev = Evaluator::new(&n);
        assert!(matches!(
            ev.run_cycle(&[]),
            Err(NetlistError::InputCountMismatch {
                expected: 1,
                found: 0
            })
        ));
    }

    #[test]
    fn input_type_checked() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let n = b.finish().unwrap();
        let mut ev = Evaluator::new(&n);
        assert!(matches!(
            ev.run_cycle(&[Value::Bit(true)]),
            Err(NetlistError::InputTypeMismatch { index: 0 })
        ));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut b = CircuitBuilder::new("ctr");
        let (q, h) = b.word_reg(5, 8);
        let next = b.inc(&q);
        b.connect_word_reg(h, &next);
        b.word_output("q", &q);
        let n = b.finish().unwrap();
        let mut ev = Evaluator::new(&n);
        assert_eq!(ev.run_cycle(&[]).unwrap()[0].as_word(), Some(5));
        assert_eq!(ev.run_cycle(&[]).unwrap()[0].as_word(), Some(6));
        ev.reset();
        assert_eq!(ev.cycles(), 0);
        assert_eq!(ev.run_cycle(&[]).unwrap()[0].as_word(), Some(5));
    }

    #[test]
    fn equivalence_helper_detects_difference() {
        let build = |xor: bool| {
            let mut b = CircuitBuilder::new("g");
            let a = b.word_input("a", 4);
            let c = b.word_input("b", 4);
            let r = if xor {
                b.xor_words(&a, &c)
            } else {
                b.and_words(&a, &c)
            };
            b.word_output("r", &r);
            b.finish().unwrap()
        };
        let x = build(true);
        let y = build(false);
        let vecs = vec![vec![Value::Word(3), Value::Word(5)]];
        assert!(equivalent_on(&x, &x, &vecs, 1).unwrap());
        assert!(!equivalent_on(&x, &y, &vecs, 1).unwrap());
    }
}
