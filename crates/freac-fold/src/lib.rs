//! Logic folding for FReaC Cache.
//!
//! Logic folding (paper Sec. II & IV) implements a large circuit with few
//! physical LUTs by *temporal pipelining*: the leveled netlist is partitioned
//! into fold steps, and on every cache clock cycle the compute sub-arrays
//! read a fresh configuration row, re-programming the physical LUTs to
//! realize the next step. A circuit folded `N` times takes `N` cache cycles
//! per original clock cycle, making its effective clock `CacheClock / N`.
//!
//! This crate provides:
//!
//! * [`FoldConstraints`] — the per-step resource envelope of an accelerator
//!   tile (LUT evaluations, MAC issues, bus operations per step), derived
//!   from the number of micro compute clusters grouped into the tile;
//! * [`schedule_fold`] — a criticality-driven list scheduler producing a
//!   [`FoldSchedule`];
//! * [`compile_fold`] — validates a schedule once and compiles it into a
//!   [`FoldPlan`], run one lane at a time by [`FoldPlanExecutor`].
//!   The [`plan`] module docs spell out the pass semantics; the test-suite
//!   proves folded execution bit-identical to the reference evaluator.
//!
//! # Example
//!
//! ```
//! use freac_netlist::builder::CircuitBuilder;
//! use freac_netlist::techmap::{tech_map, TechMapOptions};
//! use freac_netlist::Value;
//! use freac_fold::{compile_fold, schedule_fold, FoldConstraints, LutMode};
//!
//! let mut b = CircuitBuilder::new("add");
//! let a = b.word_input("a", 16);
//! let c = b.word_input("b", 16);
//! let s = b.add(&a, &c);
//! b.word_output("s", &s);
//! let mapped = tech_map(&b.finish()?, TechMapOptions::lut4())?;
//!
//! // One micro compute cluster in 4-LUT mode: 8 LUTs, 1 MAC, 1 bus op/step.
//! let cons = FoldConstraints::for_tile(1, LutMode::Lut4);
//! let schedule = schedule_fold(&mapped, &cons)?;
//! let plan = compile_fold(&mapped, &schedule)?;
//! let mut ex = plan.executor();
//! let out = ex.run_cycle(&[Value::Word(30_000), Value::Word(12_345)])?;
//! assert_eq!(out[0], Value::Word((30_000 + 12_345) & 0xFFFF));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod constraints;
pub mod error;
pub mod plan;
pub mod schedule;
pub mod scheduler;

pub use constraints::{FoldConstraints, LutMode};
pub use error::FoldError;
pub use plan::{compile_fold, FoldPlan, FoldPlanExecutor};
pub use schedule::{FoldSchedule, FoldStep, ScheduleStats};
pub use scheduler::{schedule_fold, schedule_fold_with, SchedulePolicy};
