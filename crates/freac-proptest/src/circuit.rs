//! A random structural-circuit grammar shared by the cross-layer oracles.
//!
//! A [`CircuitSpec`] is pure data: a word width, an optional feedback
//! register, and a list of [`OpSpec`] steps whose operands index the pool
//! of previously-produced words (wrapped modulo the pool size, so any
//! index is valid on any spec — a prerequisite for structure-agnostic
//! shrinking). [`CircuitSpec::build`] lowers it deterministically to a
//! [`Netlist`], so the spec itself is what generators create and shrinkers
//! minimize.

use freac_netlist::builder::{CircuitBuilder, Word};
use freac_netlist::Netlist;
use freac_rand::Rng64;

use crate::shrink;

/// One step of the circuit grammar; operands index earlier words modulo
/// the current pool size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpSpec {
    /// Wrapping add.
    Add(usize, usize),
    /// Wrapping subtract.
    Sub(usize, usize),
    /// Bitwise xor.
    Xor(usize, usize),
    /// Bitwise and.
    And(usize, usize),
    /// Bitwise or.
    Or(usize, usize),
    /// Word select on the first operand's sign bit.
    MuxBySign(usize, usize, usize),
    /// Rotate left by a constant.
    RotL(usize, u8),
    /// Unsigned minimum.
    Min(usize, usize),
    /// Multiply-accumulate, truncated back to the word width.
    Mac(usize, usize, usize),
}

impl OpSpec {
    /// A uniformly random op with operand indices below `pool`.
    pub fn random(rng: &mut Rng64, pool: usize) -> Self {
        let a = rng.index(pool);
        let b = rng.index(pool);
        match rng.index(9) {
            0 => OpSpec::Add(a, b),
            1 => OpSpec::Sub(a, b),
            2 => OpSpec::Xor(a, b),
            3 => OpSpec::And(a, b),
            4 => OpSpec::Or(a, b),
            5 => OpSpec::MuxBySign(a, b, rng.index(pool)),
            6 => OpSpec::RotL(a, rng.index(8) as u8),
            7 => OpSpec::Min(a, b),
            _ => OpSpec::Mac(a, b, rng.index(pool)),
        }
    }
}

/// A generated circuit: `width`-bit datapath over inputs `x` and `y`, an
/// optional feedback register, and a chain of ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Datapath width in bits (1..=16 so stimuli fit in `u32` words).
    pub width: usize,
    /// Whether the circuit carries a feedback register fed by the last op.
    pub with_reg: bool,
    /// The op chain; may be empty (the circuit degenerates to plumbing).
    pub ops: Vec<OpSpec>,
}

impl CircuitSpec {
    /// A random spec with up to `max_ops` ops.
    pub fn random(rng: &mut Rng64, max_ops: usize) -> Self {
        let width = *rng.pick(&[4usize, 8, 12, 16]);
        let len = rng.index(max_ops + 1);
        let ops = (0..len).map(|_| OpSpec::random(rng, 6)).collect();
        CircuitSpec {
            width,
            with_reg: rng.bool(),
            ops,
        }
    }

    /// The largest stimulus value (exclusive) that fits the datapath.
    pub fn input_limit(&self) -> u32 {
        1u32 << self.width
    }

    /// Lowers the spec to a netlist with inputs `x`, `y` and outputs
    /// `out` (the last word) and `prev` (the one before it), plus, with
    /// the register, the bit output `msb`: the register's top bit, read
    /// straight from state.
    pub fn build(&self) -> Netlist {
        let w = self.width;
        let mut b = CircuitBuilder::new("random");
        let mut words: Vec<Word> = vec![b.word_input("x", w), b.word_input("y", w)];
        let reg = if self.with_reg {
            let (q, h) = b.word_reg(0, w);
            words.push(q.clone());
            Some((q, h))
        } else {
            None
        };
        for op in &self.ops {
            let pick = |i: &usize| words[i % words.len()].clone();
            let word = match op {
                OpSpec::Add(a, c) => {
                    let (x, y) = (pick(a), pick(c));
                    b.add(&x, &y)
                }
                OpSpec::Sub(a, c) => {
                    let (x, y) = (pick(a), pick(c));
                    b.sub(&x, &y)
                }
                OpSpec::Xor(a, c) => {
                    let (x, y) = (pick(a), pick(c));
                    b.xor_words(&x, &y)
                }
                OpSpec::And(a, c) => {
                    let (x, y) = (pick(a), pick(c));
                    b.and_words(&x, &y)
                }
                OpSpec::Or(a, c) => {
                    let (x, y) = (pick(a), pick(c));
                    b.or_words(&x, &y)
                }
                OpSpec::MuxBySign(s, a, c) => {
                    let sel = pick(s).bit(w - 1);
                    let (x, y) = (pick(a), pick(c));
                    b.mux_word(sel, &x, &y)
                }
                OpSpec::RotL(a, k) => {
                    let x = pick(a);
                    b.rotl_const(&x, *k as usize)
                }
                OpSpec::Min(a, c) => {
                    let (x, y) = (pick(a), pick(c));
                    b.min_max_unsigned(&x, &y).0
                }
                OpSpec::Mac(a, c, d) => {
                    let (x, y, z) = (pick(a), pick(c), pick(d));
                    let m = b.mac(&x, &y, &z);
                    m.slice(0, w)
                }
            };
            words.push(word);
        }
        let last = words.last().expect("at least the inputs exist").clone();
        let msb = reg.map(|(q, h)| {
            b.connect_word_reg(h, &last);
            q.bit(w - 1)
        });
        b.word_output("out", &last);
        let prev = words[words.len().saturating_sub(2)].clone();
        b.word_output("prev", &prev);
        if let Some(msb) = msb {
            b.bit_output("msb", msb);
        }
        b.finish().expect("generated circuit is structurally valid")
    }

    /// Shrink candidates: shorter op chains first, then dropping the
    /// feedback register, then narrowing the datapath.
    pub fn shrink(&self) -> Vec<CircuitSpec> {
        let mut out: Vec<CircuitSpec> = shrink::subsequences(&self.ops)
            .into_iter()
            .map(|ops| CircuitSpec {
                ops,
                ..self.clone()
            })
            .collect();
        if self.with_reg {
            out.push(CircuitSpec {
                with_reg: false,
                ..self.clone()
            });
        }
        if self.width > 4 {
            out.push(CircuitSpec {
                width: 4,
                ..self.clone()
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freac_netlist::eval::Evaluator;
    use freac_netlist::Value;

    #[test]
    fn build_is_deterministic_and_evaluable() {
        let spec = CircuitSpec::random(&mut Rng64::new(42), 10);
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.len(), b.len(), "same spec, same netlist shape");
        let mut ev = Evaluator::new(&a);
        let outs = ev
            .run_cycle(&[Value::Word(1), Value::Word(2)])
            .expect("two word inputs");
        assert_eq!(
            outs.len(),
            2 + usize::from(spec.with_reg),
            "out, prev and the register's msb"
        );
    }

    #[test]
    fn empty_op_chain_still_builds() {
        for with_reg in [false, true] {
            let spec = CircuitSpec {
                width: 4,
                with_reg,
                ops: vec![],
            };
            let n = spec.build();
            let mut ev = Evaluator::new(&n);
            ev.run_cycle(&[Value::Word(3), Value::Word(1)])
                .expect("degenerate circuit evaluates");
        }
    }

    #[test]
    fn shrink_reduces_toward_the_trivial_spec() {
        let spec = CircuitSpec::random(&mut Rng64::new(7), 12);
        let cands = spec.shrink();
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c != &spec), "strictly smaller");
        assert!(
            cands.iter().any(|c| c.ops.is_empty()),
            "the empty chain is offered first"
        );
    }

    #[test]
    fn random_specs_cover_all_widths() {
        let mut rng = Rng64::new(11);
        let mut widths = std::collections::BTreeSet::new();
        for _ in 0..64 {
            widths.insert(CircuitSpec::random(&mut rng, 8).width);
        }
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), vec![4, 8, 12, 16]);
    }
}
