//! Lowering loop kernels to netlists.

use std::collections::HashMap;
use std::fmt;

use freac_netlist::builder::{CircuitBuilder, Word};
use freac_netlist::{Netlist, NetlistError};

use crate::expr::Expr;
use crate::kernel::LoopKernel;

/// Errors from HLS compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HlsError {
    /// The kernel has no body expression.
    MissingBody,
    /// The body references a port that was never declared with `input`.
    UnknownPort(String),
    /// The body references a constant that was never bound.
    UnknownName(String),
    /// [`Expr::Acc`] appears in the body of a kernel without a reduction.
    AccWithoutReduce,
    /// The lowered circuit failed netlist validation.
    Netlist(NetlistError),
}

impl fmt::Display for HlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlsError::MissingBody => write!(f, "kernel has no body expression"),
            HlsError::UnknownPort(p) => write!(f, "body references undeclared port '{p}'"),
            HlsError::UnknownName(n) => write!(f, "body references unbound constant '{n}'"),
            HlsError::AccWithoutReduce => {
                write!(f, "accumulator referenced but the kernel has no reduction")
            }
            HlsError::Netlist(e) => write!(f, "lowered circuit is invalid: {e}"),
        }
    }
}

impl std::error::Error for HlsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HlsError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for HlsError {
    fn from(e: NetlistError) -> Self {
        HlsError::Netlist(e)
    }
}

/// Lowers `kernel` to a netlist. The circuit reads every declared port each
/// original cycle, runs `trip` cycles per work item, exposes the result as
/// the word output `"out"` and the completion flag as the bit output
/// `"done"`.
///
/// # Errors
///
/// See [`HlsError`].
pub fn compile(kernel: &LoopKernel) -> Result<Netlist, HlsError> {
    let body = kernel.body.as_ref().ok_or(HlsError::MissingBody)?;

    // Static checks before touching the builder.
    for p in body.ports() {
        if !kernel.ports.contains(&p) {
            return Err(HlsError::UnknownPort(p));
        }
    }
    let bound: HashMap<&str, u32> = kernel
        .constants
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    for n in body.names() {
        if !bound.contains_key(n.as_str()) {
            return Err(HlsError::UnknownName(n));
        }
    }
    if body.uses_acc() && kernel.reduce.is_none() {
        return Err(HlsError::AccWithoutReduce);
    }
    if let Some(r) = &kernel.reduce {
        for p in r.combine.ports() {
            if p != "_body" && !kernel.ports.contains(&p) {
                return Err(HlsError::UnknownPort(p));
            }
        }
        for n in r.combine.names() {
            if !bound.contains_key(n.as_str()) {
                return Err(HlsError::UnknownName(n));
            }
        }
    }

    let mut b = CircuitBuilder::new(kernel.name.clone());

    // Streamed ports.
    let mut ports: HashMap<String, Word> = HashMap::new();
    for p in &kernel.ports {
        ports.insert(p.clone(), b.word_input(p, 32));
    }

    // Trip counter.
    let cwidth = (32 - (kernel.trip - 1).leading_zeros()).max(1) as usize;
    let (counter, counter_h) = b.word_reg(0, cwidth.min(32));
    let zero_c = b.const_word(0, cwidth.min(32));
    let last_c = b.const_word(kernel.trip - 1, cwidth.min(32));
    let is_first = b.eq_words(&counter, &zero_c);
    let is_last = b.eq_words(&counter, &last_c);
    let inc = b.inc(&counter);
    let next_c = b.mux_word(is_last, &inc, &zero_c);
    b.connect_word_reg(counter_h, &next_c);
    let counter32 = b.resize(&counter, 32);

    // Accumulator (reduction kernels): resets to init when a fresh work
    // item starts.
    let reduction = kernel.reduce.clone();
    let acc_state = reduction.as_ref().map(|r| {
        let (q, h) = b.word_reg(r.init, 32);
        let init = b.const_word(r.init, 32);
        let eff = b.mux_word(is_first, &q, &init);
        (eff, h)
    });

    let acc_eff = acc_state.as_ref().map(|(eff, _)| eff.clone());
    let body_val = lower(&mut b, body, &ports, &bound, &counter32, acc_eff.as_ref())?;

    let result = if let Some(r) = &reduction {
        let mut ports_with_body = ports.clone();
        ports_with_body.insert("_body".to_owned(), body_val);
        let combined = lower(
            &mut b,
            &r.combine,
            &ports_with_body,
            &bound,
            &counter32,
            acc_eff.as_ref(),
        )?;
        let (_, h) = acc_state.expect("reduction implies accumulator state");
        b.connect_word_reg(h, &combined);
        combined
    } else {
        body_val
    };

    b.word_output("out", &result);
    b.bit_output("done", is_last);
    b.finish().map_err(HlsError::from)
}

/// Recursively lowers an expression to a 32-bit word.
fn lower(
    b: &mut CircuitBuilder,
    e: &Expr,
    ports: &HashMap<String, Word>,
    names: &HashMap<&str, u32>,
    counter32: &Word,
    acc: Option<&Word>,
) -> Result<Word, HlsError> {
    let go = |x: &Expr, b: &mut CircuitBuilder| lower(b, x, ports, names, counter32, acc);
    Ok(match e {
        Expr::Port(p) => ports
            .get(p)
            .cloned()
            .ok_or_else(|| HlsError::UnknownPort(p.clone()))?,
        Expr::Name(n) => {
            let v = *names
                .get(n.as_str())
                .ok_or_else(|| HlsError::UnknownName(n.clone()))?;
            b.const_word(v, 32)
        }
        Expr::Lit(v) => b.const_word(*v, 32),
        Expr::Counter => counter32.clone(),
        Expr::Acc => acc.cloned().ok_or(HlsError::AccWithoutReduce)?,
        Expr::Add(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            b.add(&x, &y)
        }
        Expr::Sub(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            b.sub(&x, &y)
        }
        Expr::Mul(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            let zero = b.const_word(0, 32);
            b.mac(&x, &y, &zero)
        }
        Expr::Xor(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            b.xor_words(&x, &y)
        }
        Expr::And(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            b.and_words(&x, &y)
        }
        Expr::Or(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            b.or_words(&x, &y)
        }
        Expr::Shl(x, k) => {
            let x = go(x, b)?;
            if *k >= 32 {
                b.const_word(0, 32)
            } else {
                b.shl_const(&x, *k as usize)
            }
        }
        Expr::Shr(x, k) => {
            let x = go(x, b)?;
            if *k >= 32 {
                b.const_word(0, 32)
            } else {
                b.shr_const(&x, *k as usize)
            }
        }
        Expr::Eq(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            let flag = b.eq_words(&x, &y);
            let f = freac_netlist::builder::Word::from_wire(flag);
            b.resize(&f, 32)
        }
        Expr::Lt(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            let flag = b.lt_unsigned(&x, &y);
            let f = freac_netlist::builder::Word::from_wire(flag);
            b.resize(&f, 32)
        }
        Expr::Max(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            b.min_max_unsigned(&x, &y).1
        }
        Expr::Min(x, y) => {
            let (x, y) = (go(x, b)?, go(y, b)?);
            b.min_max_unsigned(&x, &y).0
        }
        Expr::Select(c, t, e2) => {
            let c = go(c, b)?;
            let t = go(t, b)?;
            let e2 = go(e2, b)?;
            let bits: Vec<_> = (0..32).map(|i| c.bit(i)).collect();
            let nonzero = b.reduce_or(&bits);
            b.mux_word(nonzero, &e2, &t)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Reduce;
    use freac_netlist::eval::Evaluator;
    use freac_netlist::Value;

    fn run_item(k: &LoopKernel, streams: &[(&str, &[u32])]) -> (u32, bool) {
        let n = k.compile().expect("compiles");
        let mut ev = Evaluator::new(&n);
        let mut out = Vec::new();
        for i in 0..k.trip() {
            let inputs: Vec<Value> = k
                .ports
                .iter()
                .map(|p| {
                    let s = streams
                        .iter()
                        .find(|(name, _)| name == p)
                        .unwrap_or_else(|| panic!("stream {p}"));
                    Value::Word(s.1[i as usize])
                })
                .collect();
            out = ev.run_cycle(&inputs).expect("runs");
        }
        (
            out[0].as_word().expect("word out"),
            out[1] == Value::Bit(true),
        )
    }

    #[test]
    fn dot_product_kernel_matches_reference() {
        let k = LoopKernel::new("dot", 5)
            .input("a")
            .input("b")
            .body(Expr::port("a").mul(Expr::port("b")))
            .reduce(Reduce::sum());
        let a = [1u32, 2, 3, 4, 5];
        let b = [10u32, 20, 30, 40, 50];
        let (got, done) = run_item(&k, &[("a", &a), ("b", &b)]);
        assert!(done);
        assert_eq!(got, k.reference(&[("a", &a), ("b", &b)]));
        assert_eq!(got, 550);
    }

    #[test]
    fn saxpy_with_constant() {
        let k = LoopKernel::new("saxpy", 4)
            .input("x")
            .input("y")
            .constant("a", 7)
            .body(Expr::port("x").mul(Expr::name("a")).add(Expr::port("y")))
            .reduce(Reduce::sum());
        let x = [1u32, 2, 3, 4];
        let y = [5u32, 5, 5, 5];
        let (got, _) = run_item(&k, &[("x", &x), ("y", &y)]);
        assert_eq!(got, 7 * 10 + 20);
    }

    #[test]
    fn max_reduction_and_select() {
        // Track the max of |a - b| using select on a < b.
        let body = Expr::port("a").lt(Expr::port("b")).select(
            Expr::port("b").sub(Expr::port("a")),
            Expr::port("a").sub(Expr::port("b")),
        );
        let k = LoopKernel::new("maxdiff", 4)
            .input("a")
            .input("b")
            .body(body)
            .reduce(Reduce::max());
        let a = [10u32, 3, 50, 7];
        let b = [12u32, 9, 45, 7];
        let (got, _) = run_item(&k, &[("a", &a), ("b", &b)]);
        assert_eq!(got, 6);
        assert_eq!(got, k.reference(&[("a", &a), ("b", &b)]));
    }

    #[test]
    fn counter_is_visible_to_the_body() {
        // sum of i*x[i].
        let k = LoopKernel::new("ramp", 4)
            .input("x")
            .body(Expr::counter().mul(Expr::port("x")))
            .reduce(Reduce::sum());
        let x = [5u32, 5, 5, 5];
        let (got, _) = run_item(&k, &[("x", &x)]);
        assert_eq!(got, (1 + 2 + 3) * 5);
    }

    #[test]
    fn back_to_back_items_reset_the_accumulator() {
        let k = LoopKernel::new("sum", 3)
            .input("x")
            .body(Expr::port("x"))
            .reduce(Reduce::sum());
        let n = k.compile().unwrap();
        let mut ev = Evaluator::new(&n);
        let mut results = Vec::new();
        for item in 0..2u32 {
            let mut out = Vec::new();
            for i in 0..3u32 {
                out = ev.run_cycle(&[Value::Word(item * 100 + i)]).expect("runs");
            }
            results.push(out[0].as_word().unwrap());
        }
        assert_eq!(results, vec![1 + 2, 100 + 101 + 102]);
    }

    #[test]
    fn static_errors() {
        assert_eq!(
            LoopKernel::new("e", 2).compile().unwrap_err(),
            HlsError::MissingBody
        );
        assert_eq!(
            LoopKernel::new("e", 2)
                .body(Expr::port("ghost"))
                .compile()
                .unwrap_err(),
            HlsError::UnknownPort("ghost".into())
        );
        assert_eq!(
            LoopKernel::new("e", 2)
                .body(Expr::name("ghost"))
                .compile()
                .unwrap_err(),
            HlsError::UnknownName("ghost".into())
        );
        assert_eq!(
            LoopKernel::new("e", 2)
                .body(Expr::acc())
                .compile()
                .unwrap_err(),
            HlsError::AccWithoutReduce
        );
    }

    #[test]
    fn hls_output_folds_on_a_tile() {
        use freac_fold::{compile_fold, schedule_fold, FoldConstraints, LutMode};
        use freac_netlist::techmap::{tech_map, TechMapOptions};

        let k = LoopKernel::new("dot", 4)
            .input("a")
            .input("b")
            .body(Expr::port("a").mul(Expr::port("b")))
            .reduce(Reduce::sum());
        let n = k.compile().unwrap();
        let mapped = tech_map(&n, TechMapOptions::lut4()).unwrap();
        let sched = schedule_fold(&mapped, &FoldConstraints::for_tile(1, LutMode::Lut4)).unwrap();
        let plan = compile_fold(&mapped, &sched).unwrap();
        let mut fx = plan.executor();
        let mut ref_ev = Evaluator::new(&n);
        for i in 0..8u32 {
            let inputs = [Value::Word(i), Value::Word(i + 1)];
            assert_eq!(
                fx.run_cycle(&inputs).unwrap(),
                ref_ev.run_cycle(&inputs).unwrap(),
                "cycle {i}"
            );
        }
    }
}
