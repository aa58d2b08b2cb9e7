//! FReaC Cache: folded-logic reconfigurable computing in the last level
//! cache — the paper's primary contribution.
//!
//! This crate assembles the substrates (netlist + folding, cache geometry,
//! timing resources, power models) into the architecture of Sec. III:
//!
//! * [`partition::SlicePartition`] — how a slice's 20 ways are split between
//!   compute MCCs, scratchpad, and remaining cache;
//! * [`subarray::ComputeSubArray`] — an 8 KB data sub-array repurposed as
//!   LUT configuration memory (2048 rows of 32 bits, one row per fold step);
//! * [`bitstream`] — packing a fold schedule's LUT truth tables into
//!   sub-array rows and crossbar configuration into the idle tag arrays;
//! * [`tile::AcceleratorTile`] — 1..=32 MCCs grouped by switch boxes, with
//!   the 4 GHz / 3 GHz clock selection rule;
//! * [`scratchpad::ScratchpadModel`] — locked ways serving operands through
//!   the control box (word delivery serialized per way);
//! * [`ccctrl`] — the memory-mapped CC Ctrl host interface: select, flush,
//!   lock, configure, fill, run — all via plain loads and stores;
//! * [`accel::Accelerator`] — a mapped circuit (netlist + fold schedule)
//!   ready to execute;
//! * [`round::RoundQuote`] — the cost of one lock-step slice round, the
//!   slower of compute waves and operand service;
//! * [`exec`] — the timed execution model producing cycle counts, stall
//!   breakdowns, and energy for a kernel run across slices.
//!
//! # Quick start
//!
//! ```
//! use freac_core::accel::Accelerator;
//! use freac_core::partition::SlicePartition;
//! use freac_core::tile::AcceleratorTile;
//! use freac_netlist::builder::CircuitBuilder;
//!
//! // A dot-product style accelerator: acc += a * b.
//! let mut b = CircuitBuilder::new("dot");
//! let a = b.word_input("a", 32);
//! let x = b.word_input("b", 32);
//! let (acc, h) = b.word_reg(0, 32);
//! let m = b.mac(&a, &x, &acc);
//! b.connect_word_reg(h, &m);
//! b.word_output("acc", &acc);
//! let circuit = b.finish()?;
//!
//! let tile = AcceleratorTile::new(1)?;           // one MCC per tile
//! let accel = Accelerator::map(&circuit, &tile)?; // tech-map + fold
//! assert!(accel.schedule().len() >= 1);
//!
//! let part = SlicePartition::new(16, 4, 0)?;      // 32 MCCs + 256 KB spad
//! assert_eq!(part.mccs(), 32);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod accel;
pub mod bitstream;
pub mod ccctrl;
pub mod detailed;
pub mod error;
pub mod exec;
pub mod partition;
pub mod round;
pub mod scratchpad;
pub mod session;
pub mod spad_layout;
pub mod subarray;
pub mod tile;

pub use accel::Accelerator;
pub use ccctrl::{reconfig_cost, way_conversion_charge, ReconfigCost};
pub use error::CoreError;
pub use exec::{run_kernel, KernelRun, KernelSpec};
pub use freac_cache::coherence::{ClaimCharge, CoherenceStats, HandoffMode};
pub use partition::SlicePartition;
pub use round::RoundQuote;
pub use session::{OffloadSession, SessionRun};
pub use tile::AcceleratorTile;
