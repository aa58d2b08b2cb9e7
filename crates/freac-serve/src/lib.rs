//! `freac-serve` — multi-tenant request serving on FReaC compute slices.
//!
//! The crates below this one answer "how fast does one offloaded kernel
//! run"; this crate answers "what happens when several tenants contend for
//! the LLC's compute slices". It is a deterministic, simulated-time
//! serving stack:
//!
//! | module | role |
//! |--------|------|
//! | [`request`] | requests, completions, sheds — the event vocabulary |
//! | [`queue`]   | per-kernel bounded admission queues with shed policies |
//! | [`batch`]   | the coalescer packing compatible requests into lanes |
//! | [`sched`]   | FIFO / weighted-fair / deadline-aware anchor selection |
//! | [`tlb`]     | per-tenant scratchpad segments — cross-tenant accesses fault at admission |
//! | [`server`]  | the event loop: admission → dispatch → completion |
//! | [`inputs`]  | seed-derived input synthesis and output hashing |
//! | [`loadgen`] | synthetic tenants: open-loop traces, closed-loop driver |
//! | [`report`]  | fixed-width per-tenant latency tables |
//! | [`cluster`] | N shards under one clock: affinity routing, stealing, autoscaling |
//! | [`sample`]  | representative-interval sampling: medoid and witness windows, replayed as segments on a clone of one template cluster, stand in for the trace |
//!
//! The event loop computes the schedule only; each report then computes
//! every new completion's output hash in full-width passes, each one
//! `freac_netlist::plan` execution plan on its batch states: the kernel's
//! compiled plan for batched requests, the fold plan's for `exclusive`
//! ones (see [`server`]). Reconfiguration and way-reclaim costs come
//! from [`freac_core::reconfig_cost`]; latency is
//! `queue wait + reconfiguration + fold execution` on the tile clock.
//! The loop tallies its per-request counters in plain fields, and each
//! report writes them to the probe registry once and exports only what
//! is new since the last report to the global probe (see [`server`]).
//! Everything — schedule, completion order, counters — is a pure function
//! of the submitted request set and the configuration, independent of
//! tenant enumeration order, submission order, and worker count.
//!
//! ```
//! use freac_serve::{Request, ServeConfig, Server};
//!
//! let mut server = Server::new(ServeConfig::default()).unwrap();
//! server.register_paper_kernel(freac_kernels::KernelId::Aes).unwrap();
//! server.add_tenant("alice", 1).unwrap();
//! server.submit(Request::new("alice", 0, "aes", 0, 42)).unwrap();
//! let report = server.run_to_completion().unwrap();
//! assert_eq!(report.completions.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod cluster;
pub mod inputs;
pub mod loadgen;
mod pending;
pub mod queue;
pub mod report;
pub mod request;
pub mod sample;
pub mod sched;
pub mod server;
mod tally;
pub mod tlb;

mod error;

pub use cluster::{
    AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, RoutePolicy, ShardReport, StealConfig,
};
pub use error::ServeError;
pub use freac_core::HandoffMode;
pub use loadgen::{open_loop_trace, ClosedLoop, TenantSpec};
pub use queue::{AdmissionQueue, ShedPolicy};
pub use report::{cluster_tenant_table, tenant_table};
pub use request::{Completion, Outcome, Request, Shed, ShedReason};
pub use sample::{MetricEstimate, SampleConfig, SampleReport, SampledServer};
pub use sched::SchedPolicy;
pub use server::{
    DispatchRecord, FluidEstimate, RequestProfile, ServeConfig, ServeReport, Server, TenantSummary,
    FUNC_CYCLES_CAP,
};
pub use tlb::{TenantTlb, TlbSegment};
