//! The benchmark suite: MachSuite-style kernels plus the handwritten
//! vector kernels the paper evaluates (Sec. V).
//!
//! Eleven kernels cover the paper's compute-, memory-, and logic-bound
//! categories:
//!
//! | id | kernel | character |
//! |----|--------|-----------|
//! | AES  | AES-128 block encryption | logic/LUT bound |
//! | CONV | 2-D convolution, 3x3 taps | compute bound |
//! | DOT  | dot-product engine | memory bound |
//! | FC   | fully-connected layer + ReLU | compute bound |
//! | GEMM | dense matrix multiply PE | compute bound |
//! | KMP  | Knuth-Morris-Pratt string matching | logic bound |
//! | NW   | Needleman-Wunsch alignment cell | logic bound |
//! | SRT  | merge-sort compare-exchange | logic bound |
//! | STN2 | 2-D 5-point stencil | memory bound |
//! | STN3 | 3-D 7-point stencil | memory bound |
//! | VADD | vector add | memory bound |
//!
//! Every kernel provides three synchronized views of the same computation:
//!
//! 1. a **software reference** (what the CPU baseline executes, and the
//!    golden model for verification);
//! 2. an **accelerator circuit** built with the netlist DSL (what FReaC
//!    Cache folds and runs — property tests prove the folded execution
//!    matches the reference bit-for-bit);
//! 3. a **workload descriptor + instruction mix + address trace** (what the
//!    timing models consume).
//!
//! Inputs are scaled 256x in a batched, data-parallel fashion exactly as
//! the paper describes.

#![forbid(unsafe_code)]

pub mod aes;
pub mod conv;
pub mod data;
pub mod dot;
pub mod fc;
pub mod gemm;
pub mod id;
pub mod kmp;
pub mod nw;
pub mod profile;
pub mod srt;
pub mod stn2;
pub mod stn3;
pub mod trace;
pub mod vadd;
pub mod workload;

pub use data::DataGen;
pub use id::{all_kernels, KernelId};
pub use profile::CpuProfile;
pub use trace::TraceSample;
pub use workload::Workload;

use freac_netlist::Netlist;

/// The paper's batch scaling factor ("we scaled the problem by a factor of
/// 256X in a batched fashion").
pub const BATCH: u64 = 256;

/// A benchmark kernel: reference implementation, accelerator circuit, and
/// workload characterization.
pub trait Kernel: Send + Sync {
    /// Which kernel this is.
    fn id(&self) -> KernelId;

    /// The accelerator datapath as an (un-mapped) netlist. Kernels follow
    /// the paper's mapping guidance: a single memory port, no internal
    /// buffers, and no pipelining (logic folding already pipelines
    /// temporally).
    fn circuit(&self) -> Netlist;

    /// The workload at `batch`x scaling (use [`BATCH`] for paper scale).
    fn workload(&self, batch: u64) -> Workload;

    /// Per-item instruction mix of the software reference, for the CPU
    /// timing model.
    fn cpu_profile(&self) -> CpuProfile;

    /// A representative address trace covering a known number of items, for
    /// the cache-hierarchy simulation.
    fn sample_trace(&self) -> TraceSample;
}

/// Constructs the kernel implementation for an id.
pub fn kernel(id: KernelId) -> Box<dyn Kernel> {
    match id {
        KernelId::Aes => Box::new(aes::Aes),
        KernelId::Conv => Box::new(conv::Conv),
        KernelId::Dot => Box::new(dot::Dot),
        KernelId::Fc => Box::new(fc::Fc),
        KernelId::Gemm => Box::new(gemm::Gemm),
        KernelId::Kmp => Box::new(kmp::Kmp),
        KernelId::Nw => Box::new(nw::Nw),
        KernelId::Srt => Box::new(srt::Srt),
        KernelId::Stn2 => Box::new(stn2::Stn2),
        KernelId::Stn3 => Box::new(stn3::Stn3),
        KernelId::Vadd => Box::new(vadd::Vadd),
    }
}
