//! Umbrella crate for the FReaC Cache reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can use a single dependency. See the individual crates
//! for full documentation:
//!
//! * [`netlist`] — logic IR, builder DSL, K-LUT technology mapping
//! * [`fold`] — logic-folding scheduler and folded executor
//! * [`hls`] — loop-level kernel front end (mini high-level synthesis)
//! * [`cache`] — sliced LLC substrate and cache-hierarchy simulation
//! * [`sim`] — discrete-event engine, buses, DRAM
//! * [`power`] — area/energy/leakage models (Cacti/McPAT/DSENT analogues)
//! * [`core`] — micro compute clusters, tiles, reconfigurable compute slice
//! * [`kernels`] — MachSuite-style benchmark kernels
//! * [`baselines`] — CPU / FPGA / embedded-core comparison models
//! * [`experiments`] — per-figure/table evaluation harness
//! * [`probe`] — observability: counters, tracing, invariant checks
//! * [`serve`] — multi-tenant request serving: admission, batching, slice scheduling

#![forbid(unsafe_code)]

pub use freac_baselines as baselines;
pub use freac_cache as cache;
pub use freac_core as core;
pub use freac_experiments as experiments;
pub use freac_fold as fold;
pub use freac_hls as hls;
pub use freac_kernels as kernels;
pub use freac_netlist as netlist;
pub use freac_power as power;
pub use freac_probe as probe;
pub use freac_serve as serve;
pub use freac_sim as sim;
