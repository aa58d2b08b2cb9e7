//! Observability for the FReaC Cache simulation stack: unified counters,
//! cycle-stamped tracing, and invariant-checked metrics.
//!
//! The crate is std-only and splits into:
//!
//! * [`registry`] — [`CounterRegistry`]: dotted-name counters (monotonic,
//!   deterministic by contract), gauges, and power-of-two histograms,
//!   with a commutative/associative [`CounterRegistry::merge`];
//! * [`events`] — [`ProbeEvent`] and the bounded drop-oldest
//!   [`EventRing`];
//! * [`chrome`] / [`metrics`] — exporters to Chrome-trace JSON and flat
//!   `metrics.json` (plus a deterministic counters sidecar for CI
//!   baseline diffs), with a `metrics.json` importer for round-trip
//!   tests;
//! * [`invariants`] — conservation-law cross-checks over any registry
//!   (`hits + misses == accesses`, DRAM byte conservation, fold-step
//!   conservation, …);
//! * [`global`] — the `FREAC_TRACE` / `FREAC_METRICS` env-gated
//!   process-wide probe. Disabled (the default), every hook is a branch
//!   on an `Option`.
//!
//! Component crates keep their own always-on stats structs and gain
//! `export_into(&mut CounterRegistry, prefix)` methods; `run_kernel`
//! assembles a per-run registry (carried on `KernelRun.probes`) and the
//! harness merges per-run registries into the global probe.

pub mod chrome;
pub mod events;
pub mod global;
pub mod invariants;
pub mod json;
pub mod metrics;
pub mod registry;

pub use chrome::to_chrome_trace;
pub use events::{EventKind, EventRing, ProbeEvent};
pub use global::{Probe, ProbeConfig, SpanGuard};
pub use invariants::{assert_ok, check, Violation};
pub use json::Json;
pub use metrics::{from_metrics_json, to_counters_json, to_metrics_json};
pub use registry::{CounterRegistry, Histogram, HISTOGRAM_BUCKETS};
