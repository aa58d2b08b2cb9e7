//! Deterministic request-input synthesis and output hashing.
//!
//! A request carries only a `seed`; the concrete input vector for the
//! kernel's primary inputs is synthesized from it on demand. Keeping the
//! synthesis here — shared by the engine, the load generator's sampled
//! verification, and the proptest oracle — means every consumer agrees on
//! what a `(kernel, seed)` pair computes.

use freac_netlist::eval::Evaluator;
use freac_netlist::{Netlist, NetlistError, NodeKind, Value};
use freac_rand::Rng64;

/// One input vector for `netlist`'s primary inputs, respecting kinds,
/// derived entirely from `seed`.
pub fn synth_inputs(netlist: &Netlist, seed: u64) -> Vec<Value> {
    let mut out = Vec::new();
    synth_inputs_into(netlist, seed, &mut out);
    out
}

/// [`synth_inputs`] into `out`, which is cleared and refilled: a caller
/// synthesizing many vectors reuses one allocation per vector slot.
pub fn synth_inputs_into(netlist: &Netlist, seed: u64, out: &mut Vec<Value>) {
    let mut rng = Rng64::new(seed ^ 0x5EED_F00D_CAFE_D00D);
    out.clear();
    out.extend(
        netlist
            .primary_inputs()
            .iter()
            .map(|&id| match netlist.nodes()[id.index()].kind {
                NodeKind::BitInput { .. } => Value::Bit(rng.bool()),
                _ => Value::Word(rng.next_u32()),
            }),
    );
}

/// FNV-1a over the primary-output values — the per-request result
/// fingerprint recorded in [`crate::request::Completion::output_hash`].
pub fn hash_outputs(values: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    };
    for v in values {
        match *v {
            Value::Bit(b) => {
                mix(1);
                mix(u8::from(b));
            }
            Value::Word(w) => {
                mix(2);
                for byte in w.to_le_bytes() {
                    mix(byte);
                }
            }
        }
    }
    h
}

/// The golden result for a request: run the reference evaluator for
/// `cycles` on the synthesized inputs and hash the final outputs. Sampled
/// verification in the load generator compares this against the hash the
/// serving path produced via the kernel's compiled batch plan.
///
/// # Errors
///
/// Propagates input-shape errors from the evaluator.
pub fn reference_hash(netlist: &Netlist, seed: u64, cycles: u64) -> Result<u64, NetlistError> {
    let inputs = synth_inputs(netlist, seed);
    let mut ev = Evaluator::new(netlist);
    let mut out = Vec::new();
    for _ in 0..cycles.max(1) {
        ev.run_cycle_into(&inputs, &mut out)?;
    }
    Ok(hash_outputs(&out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freac_netlist::builder::CircuitBuilder;

    fn adder() -> Netlist {
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 16);
        let x = b.word_input("b", 16);
        let s = b.add(&a, &x);
        b.word_output("s", &s);
        b.finish().unwrap()
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let n = adder();
        assert_eq!(synth_inputs(&n, 7), synth_inputs(&n, 7));
        assert_ne!(synth_inputs(&n, 7), synth_inputs(&n, 8));
        assert_eq!(synth_inputs(&n, 7).len(), n.primary_inputs().len());
        let mut reused = synth_inputs(&n, 8);
        synth_inputs_into(&n, 7, &mut reused);
        assert_eq!(reused, synth_inputs(&n, 7));
    }

    #[test]
    fn hash_distinguishes_values_and_kinds() {
        let a = hash_outputs(&[Value::Word(1), Value::Word(2)]);
        let b = hash_outputs(&[Value::Word(2), Value::Word(1)]);
        assert_ne!(a, b);
        assert_ne!(
            hash_outputs(&[Value::Bit(true)]),
            hash_outputs(&[Value::Word(1)])
        );
    }

    #[test]
    fn reference_hash_is_reproducible() {
        let n = adder();
        assert_eq!(
            reference_hash(&n, 3, 1).unwrap(),
            reference_hash(&n, 3, 1).unwrap()
        );
    }
}
