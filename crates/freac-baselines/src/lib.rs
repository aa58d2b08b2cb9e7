//! Comparison baselines (paper Sec. V-C and Sec. VI):
//!
//! * [`cpu`] — the host: an 8-core A15-class out-of-order CPU at 4 GHz
//!   (Table I), modeled analytically from each kernel's instruction mix
//!   plus a trace-driven pass through the real cache-hierarchy simulation;
//! * [`fpga`] — the two FPGA boards: a PCIe-attached ZCU102 and an
//!   edge-class Ultra96, with DMA/configuration overheads, link transfer
//!   costs, on-board memory-bandwidth rooflines, and XPE-like power;
//! * [`ec`] — lightweight A7-class embedded cores placed in the LLC
//!   (the near-cache alternative of Fig. 14).

#![forbid(unsafe_code)]

pub mod cpu;
pub mod ec;
pub mod fpga;

pub use cpu::{CpuModel, CpuRun};
pub use ec::{EcModel, EcRun};
pub use fpga::{FpgaModel, FpgaRun};
