//! Timing substrate for the FReaC Cache reproduction.
//!
//! The paper evaluates FReaC Cache with a cycle-accurate timing model inside
//! gem5. This crate provides the equivalent building blocks for our
//! simulator:
//!
//! * [`clock::ClockDomain`] — the 4 GHz cache/core domain and the 3 GHz
//!   large-tile domain, with cycle/time conversions;
//! * [`resource::SerialResource`] — a single-server FIFO resource used to
//!   model serialized buses and the control box's narrow datapath
//!   (time-reservation semantics: a request arriving at `t` is serviced at
//!   `max(t, next_free)` and occupies the server for its service time);
//! * [`resource::BandwidthResource`] — a byte-rate limited resource used for
//!   DRAM channels and PCIe/AXI links;
//! * [`dram::DramModel`] — a DDR4-2400 x4-channel main-memory model;
//! * [`stats::SimStats`] — occupancy and wait accounting.
//!
//! All times are in picoseconds (`u64`), which keeps 4 GHz (250 ps) and
//! 3 GHz (~333 ps) cycles representable without floating-point drift over
//! multi-second simulations.

#![forbid(unsafe_code)]

pub mod clock;
pub mod dram;
pub mod resource;
pub mod ring;
pub mod stats;

pub use clock::ClockDomain;
pub use dram::DramModel;
pub use resource::{BandwidthResource, SerialResource};
pub use ring::RingInterconnect;
pub use stats::SimStats;

/// Simulation time in picoseconds.
pub type Time = u64;

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;

/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;

/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;
