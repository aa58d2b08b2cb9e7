//! The sliced last-level-cache substrate.
//!
//! FReaC Cache is built *inside* an LLC, so this crate models the cache the
//! paper describes (Sec. II, after Huang et al.'s Xeon E5 slice design,
//! scaled to the edge-class configuration the paper evaluates):
//!
//! * [`geometry::LlcGeometry`] — slices, ways, data arrays, 8 KB sub-arrays,
//!   and the address-to-slice/set mapping;
//! * [`set_cache::SetAssocCache`] — a set-associative LRU cache with dirty
//!   tracking, usable at any level;
//! * [`hierarchy::MemoryHierarchy`] — per-core L1/L2 plus the shared sliced
//!   L3 and DRAM, used both by the CPU baseline (trace-driven AMAT) and by
//!   the interference study;
//! * [`flush`] — way-flush timing for converting ways to compute mode
//!   (Sec. III-C: bounded by off-chip bandwidth, hundreds of microseconds
//!   for a full 10 MB LLC);
//! * [`coherence`] — the invalidation-based alternative to the blind
//!   flush: targeted back-invalidations and writeback pulls for the lines
//!   actually resident in a claim, charged through the DRAM/ring timing
//!   models, plus the MESI litmus machine the property suite drives.

#![forbid(unsafe_code)]

pub mod coherence;
pub mod flush;
pub mod geometry;
pub mod hierarchy;
pub mod prefetch;
pub mod set_cache;

pub use coherence::{
    handoff_charge, ClaimCharge, CoherenceStats, CoherentMemory, HandoffMode, MesiState,
};
pub use geometry::LlcGeometry;
pub use hierarchy::{AccessLevel, HierarchyConfig, HierarchyStats, MemoryHierarchy};
pub use prefetch::StridePrefetcher;
pub use set_cache::{AccessOutcome, SetAssocCache};
