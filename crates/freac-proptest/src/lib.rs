//! Deterministic property-based testing for the FReaC Cache stack.
//!
//! The workspace builds hermetically (no registry access), so instead of
//! `proptest`/`quickcheck` this crate provides a std-only harness on top of
//! the in-tree SplitMix64 generator (`freac-rand`):
//!
//! * [`Config`] — case counts and seeds, overridable through
//!   `FREAC_PROPTEST_CASES` / `FREAC_PROPTEST_SEED` so CI can explore fresh
//!   inputs while every failure stays replayable from the log;
//! * [`Runner`] — the check loop: replay the regression corpus first, then
//!   run seeded random cases, and on failure greedily shrink the input to a
//!   minimal counterexample before reporting it with its replay seed;
//! * [`shrink`] — reusable shrinking combinators (drop subsequences, shrink
//!   scalars, shrink elements in place);
//! * [`corpus`] — the one-line-per-seed regression corpus under
//!   `tests/regressions/` that pins every previously-found failure;
//! * [`circuit`] — a random structural-circuit grammar shared by the
//!   cross-layer oracles;
//! * [`oracles`] — differential oracles pitting independent layers against
//!   each other: direct netlist evaluation vs. the Shannon-mapped K-LUT
//!   netlist vs. the folded schedule (`oracles::fold`), the set-associative
//!   cache vs. a naive flat reference model (`oracles::cache`), and
//!   bitstream serialization round trips (`oracles::bitstream`).
//!
//! Every random decision flows from one `u64` seed, so a failing case is
//! fully described by the one-line corpus entry the report prints.

#![forbid(unsafe_code)]

pub mod circuit;
pub mod config;
pub mod corpus;
pub mod oracles;
pub mod runner;
pub mod shrink;

pub use config::Config;
pub use runner::{check, Runner};
