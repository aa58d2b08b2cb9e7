//! Bit-level netlist infrastructure for FReaC Cache.
//!
//! This crate plays the role that VTR (logic synthesis + technology mapping)
//! plays in the paper: it provides
//!
//! * a structural [`Netlist`] IR whose combinational nodes are arbitrary
//!   truth-table functions plus word-level multiply-accumulate units,
//! * a [`builder::CircuitBuilder`] DSL used by the benchmark kernels to
//!   describe accelerator datapaths (XOR trees, ripple adders, comparators,
//!   S-box table lookups, registers, MACs),
//! * a [`techmap`] pass that Shannon-decomposes wide logic nodes into
//!   K-input LUTs (K = 4 or 5, matching the micro compute cluster modes),
//! * [`level`]ing utilities that produce the leveled DAG consumed by the
//!   logic-folding scheduler, and
//! * a reference [`eval::Evaluator`] so that folded execution can be checked
//!   bit-exactly against the un-folded circuit.
//!
//! # Example
//!
//! ```
//! use freac_netlist::builder::CircuitBuilder;
//! use freac_netlist::techmap::{tech_map, TechMapOptions};
//! use freac_netlist::eval::Evaluator;
//! use freac_netlist::Value;
//!
//! // out = a ^ b over 8-bit words, built from primary word inputs.
//! let mut b = CircuitBuilder::new("xor8");
//! let a = b.word_input("a", 8);
//! let c = b.word_input("b", 8);
//! let x = b.xor_words(&a, &c);
//! b.word_output("out", &x);
//! let netlist = b.finish().expect("acyclic circuit");
//!
//! let mapped = tech_map(&netlist, TechMapOptions::lut4()).expect("mappable");
//! let mut ev = Evaluator::new(&mapped);
//! let out = ev.run_cycle(&[Value::Word(0xA5), Value::Word(0x0F)]).expect("eval");
//! assert_eq!(out, vec![Value::Word(0xAA)]);
//! ```

#![deny(unsafe_code)]

pub mod builder;
pub mod error;
pub mod eval;
pub mod export;
pub mod graph;
pub mod level;
pub mod opt;
pub mod plan;
pub mod stats;
pub mod techmap;
pub mod truth;
pub mod verilog;

pub use error::NetlistError;
pub use eval::{assert_equivalent_on, equivalent_on, first_mismatch, EquivalenceMismatch};
pub use graph::{Netlist, Node, NodeId, NodeKind, SignalType, Value};
pub use opt::{
    optimize, pack_luts, OptLevel, OptMetrics, OptOptions, OptReport, PackReport, PassDelta,
    PassKind, PassManager, WorkGraph,
};
pub use plan::{
    batch_isa, compile, AnyBatchState, BatchState, ExecPlan, PlanState, BATCH_LANES, BATCH_WIDTHS,
    MAX_BATCH_LANES, MAX_BATCH_WORDS, SCALAR_BATCH_LANES,
};
pub use stats::NetlistStats;
pub use truth::TruthTable;
