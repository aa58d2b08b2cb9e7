//! A loop-level kernel front end — the "mini-HLS" of the reproduction.
//!
//! The paper's mapping flow (Sec. IV, Fig. 7b) starts from accelerator RTL
//! produced by high-level synthesis and is "agnostic to the source of the
//! RTL". This crate provides that source: users describe a kernel as a
//! fixed-trip loop over an expression body with an optional reduction, and
//! [`compile`] lowers it to a netlist obeying the paper's FReaC mapping
//! rules (single memory port, no internal buffers, no pipelining — the
//! loop-carried state lives in registers, the trip count in a hardware
//! counter).
//!
//! The same description also yields the HLS *schedule* view the timing
//! model needs: FSM states per iteration ([`LoopKernel::states_per_item`])
//! and operand words per item.
//!
//! # Example
//!
//! ```
//! use freac_hls::{Expr, LoopKernel, Reduce};
//! use freac_netlist::eval::Evaluator;
//! use freac_netlist::Value;
//!
//! // SAXPY reduction: acc += a * x[i] + y[i], 8 iterations.
//! let k = LoopKernel::new("saxpy", 8)
//!     .input("x")
//!     .input("y")
//!     .constant("a", 3)
//!     .body(Expr::port("x").mul(Expr::name("a")).add(Expr::port("y")))
//!     .reduce(Reduce::sum());
//! let netlist = k.compile()?;
//!
//! let mut ev = Evaluator::new(&netlist);
//! let mut out = Vec::new();
//! for i in 0..8u32 {
//!     out = ev.run_cycle(&[Value::Word(i), Value::Word(100)])?;
//! }
//! // sum of (3*i + 100) for i in 0..8 = 3*28 + 800.
//! assert_eq!(out[0], Value::Word(884));
//! assert_eq!(out[1], Value::Bit(true)); // done
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod compile;
pub mod expr;
pub mod kernel;
pub mod library;

pub use compile::HlsError;
pub use expr::Expr;
pub use kernel::{LoopKernel, Reduce};
