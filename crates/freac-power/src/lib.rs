//! Area, energy, and power models for the FReaC Cache reproduction.
//!
//! The paper derives its physical numbers from Cacti 6.5, McPAT, DSENT,
//! Xilinx XPE, and RTL synthesis at 32 nm. Those tools are closed parameter
//! sources, so this crate embeds the published constants (Table II,
//! Sec. V-A) and small scaling models around them:
//!
//! * [`sram`] — sub-array access time/energy/area (Cacti-lite);
//! * [`mcc`] — micro-compute-cluster component areas and the slice overhead
//!   computation that reproduces the 3.5 % / 15.3 % headline numbers;
//! * [`energy`] — an energy accumulator for accelerator runs (sub-array
//!   reads, MACs, crossbar hops, switch-box links, leakage);
//! * [`cpu`] — McPAT-like edge-core power (A15-class hosts, A7-class
//!   embedded cores for the Fig. 14 comparison);
//! * [`fpga`] — XPE-like FPGA power for the ZCU102 and Ultra96 baselines.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod energy;
pub mod fpga;
pub mod mcc;
pub mod sram;

pub use energy::EnergyCounter;
pub use mcc::{slice_overhead_report, SliceOverheadReport};
pub use sram::SramParams;
