//! Differential oracles pitting independent layers of the stack against
//! each other.
//!
//! Each oracle module exports the same trio the runner consumes: a
//! `generate` function (random case from an [`Rng64`](freac_rand::Rng64)),
//! a `shrink` function (smaller candidate cases), and one or more `check`
//! functions returning `Err(description)` on divergence. Keeping the trio
//! public lets any test target in the workspace re-run an oracle under its
//! own configuration.

pub mod bitstream;
pub mod burst;
pub mod cache;
pub mod cluster;
pub mod coherence;
pub mod compiled;
pub mod fold;
pub mod metrics;
pub mod optimize;
pub mod queue;
pub mod reports;
pub mod round;
pub mod sample;
pub mod serve;
