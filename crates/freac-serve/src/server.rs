//! The serving engine: a deterministic simulated-time event loop over
//! admission queues, the batch coalescer, and the slice scheduler.
//!
//! # Timeline semantics
//!
//! The engine advances a single simulated clock. Arrivals at or before the
//! moment a slice frees are admitted (and may shed, per policy) *before*
//! the dispatch decision at that moment; dispatches go to the
//! earliest-free slice, lowest index first. Every data structure iterates
//! in a canonical order (`BTreeMap`s, a pending set popped by
//! [`Request::order_key`]), so the schedule, completion order, and
//! counters are a pure function of the submitted request set — never of
//! tenant enumeration or submission order.
//!
//! # Latency model
//!
//! `latency = queue wait + reconfiguration + fold execution`. A dispatch
//! of `k` lanes executes in one [`RoundQuote`] round, `cycles(k, tiles)` —
//! the same roofline `freac_core::exec::run_kernel` charges per item, at
//! batch granularity: lanes run in parallel across a slice's tiles in
//! *waves* (a batch wider than the tile count queues extra waves of
//! compute) while operand service scales with total lanes. `tiles` is the
//! partition's MCC count over the tile size, with no scratchpad
//! working-set cap (a [`RequestProfile`] carries no working set). Batches
//! may therefore be wider than the tile count (up to [`MAX_BATCH_LANES`]):
//! a wave of extra compute still amortizes one reconfiguration and one
//! scheduling decision.
//! Reconfiguration (quoted by [`freac_core::reconfig_cost`]) is paid when
//! a dispatch's kernel is not resident on the slice: a full flush+config
//! on first claim, config streaming only on a swap; way reclaim is paid
//! once at drain and reported as teardown.
//!
//! # Timing and function
//!
//! The event loop computes only the schedule: a dispatch records its
//! completions with `output_hash` still `0`, and [`Server::report`] runs
//! one functional phase over every completion added since the last
//! report, in [`MAX_BATCH_LANES`]-wide passes. Each pass runs the
//! kernel's compiled batch plan on one kept, reset batch state, whatever
//! the dispatch: exclusives and one-lane caps differ from coalesced
//! batches in timing only. That is exact because a hash is a pure function
//! of `(kernel, seed)`: every lane starts from power-on latch state, and
//! the batch plan computes what the folded circuit does, outputs read
//! before the latch. Were exclusives to carry register state from one
//! dispatch to the next, hashes would have to be computed in the loop.
//!
//! # Completion log
//!
//! Completions are kept in canonical `(done_ps, tenant, seq)` order while
//! the loop writes them, so no report sorts them. Each slice holds its
//! last batch *in flight*, riders in `(tenant, seq)` order, since a later
//! dispatch elsewhere may finish first; a dispatch at `t` first retires
//! every batch finished by `t` to the log, batches finishing together
//! merged by `(tenant, seq)`. That is exact because every dispatch
//! finishes strictly after it starts, which the loop asserts. A report
//! takes the completions through `Server::hand_over`: those of earlier
//! reports rebuilt from a compact history, the log moved out, and clones
//! of what is still in flight. Retiring, handing over and a cluster's
//! merge of its shards all go through one merge, `merge_canonical`, so
//! one rule orders ties: the earlier batch or shard first. The schedule
//! log keeps kernel and tenant ids, and each report builds its
//! [`DispatchRecord`]s.
//!
//! # Per-request accounting
//!
//! The loop's per-request probes — request, batch, lane, reconfiguration
//! and deadline counters, the queue-depth and widest-batch high-water
//! marks, the occupancy, wait and latency histograms, and each tenant's
//! submitted/completed/shed/reconfiguration counters and latency
//! histogram — are tallied in plain fields rather than looked up by name
//! in the registry on every event. Each report (a cluster's shard reports
//! included) writes them to the registry once, before anything else reads
//! it, and resets them, so a report's `probes`
//! hold exactly the keys and values direct registry calls would have left:
//! a key appears only once touched (even at 0), and counters stay
//! cumulative across reports. Rare events (steals, TLB accesses,
//! rescales) still go to the registry directly. A report exports to the
//! global probe only what was recorded since the previous one, and a
//! timing-only server exports nothing there.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use freac_core::{
    reconfig_cost, way_conversion_charge, Accelerator, AcceleratorTile, CoherenceStats,
    HandoffMode, ReconfigCost, RoundQuote, SlicePartition,
};
use freac_experiments::parallel::map_with;
use freac_kernels::{kernel, Kernel, KernelId, Workload};
use freac_netlist::{
    compile, AnyBatchState, ExecPlan, Netlist, Value, BATCH_LANES, BATCH_WIDTHS, MAX_BATCH_LANES,
    SCALAR_BATCH_LANES,
};
use freac_probe::{CounterRegistry, Histogram};
use freac_sim::Time;

use crate::batch::take_batch;
use crate::cluster::ShardReport;
use crate::error::ServeError;
use crate::inputs::{hash_outputs, synth_inputs_into};
use crate::pending::PendingSet;
use crate::queue::{AdmissionQueue, AdmitResult, ShedPolicy};
use crate::request::{Completion, Outcome, Request, Shed, ShedReason};
use crate::sched::{pick, SchedPolicy, TenantState};
use crate::tally::{flush_histogram, Count, HighWater, Probes};
use crate::tlb::{TenantTlb, TlbSegment};

/// Functional-execution depth: output hashes are computed over this many
/// original circuit cycles at most. Simulated timing always charges the
/// full `cycles_per_item`; capping only the report-time functional phase
/// keeps long kernels affordable while every consumer (phase, verifier,
/// oracle) hashes the same depth.
pub const FUNC_CYCLES_CAP: u64 = 4;

/// The most compute slices one server claims ([`ServeConfig::slices`]).
const MAX_SLICES: usize = 8;

/// Per-request cost profile of a registered kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestProfile {
    /// Original circuit cycles one invocation runs.
    pub cycles_per_item: u64,
    /// Operand words read from the scratchpad per invocation.
    pub read_words: u64,
    /// Result words written per invocation.
    pub write_words: u64,
}

impl RequestProfile {
    /// The per-item profile of a paper kernel's workload.
    pub fn of(w: &Workload) -> Self {
        RequestProfile {
            cycles_per_item: w.cycles_per_item,
            read_words: w.read_words_per_item,
            write_words: w.write_words_per_item,
        }
    }

    /// The quote for one round of this profile on `partition`.
    fn quote(&self, accel: &Accelerator, partition: &SlicePartition) -> RoundQuote {
        RoundQuote::new(
            accel,
            self.cycles_per_item,
            self.read_words.saturating_add(self.write_words),
            partition,
        )
    }
}

/// What a fluid queue approximation of the serving loop needs to know
/// about one registered kernel (see [`Server::kernel_fluid_estimate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FluidEstimate {
    /// One compute wave through the slice clock, ps (>= 1).
    pub service_ps: Time,
    /// Reconfiguration quote when another kernel is resident, ps.
    pub swap_ps: Time,
    /// Reconfiguration quote onto a cold slice, ps.
    pub setup_ps: Time,
    /// Lanes one wave carries (>= 1): consecutive same-kernel requests
    /// amortize `service_ps` across this many of them.
    pub tiles: usize,
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Way split of every compute slice.
    pub partition: SlicePartition,
    /// Compute slices the scheduler may claim (1..=8).
    pub slices: usize,
    /// Dirty fraction assumed when flushing claimed ways.
    pub dirty_fraction: f64,
    /// MCCs per accelerator tile (one tile executes one lane).
    pub tile_mccs: usize,
    /// Per-kernel admission-queue bound.
    pub queue_depth: usize,
    /// What to do when a queue is full.
    pub shed: ShedPolicy,
    /// Anchor-selection policy.
    pub policy: SchedPolicy,
    /// Upper bound on lanes per dispatch (further capped by
    /// [`MAX_BATCH_LANES`], the widest bit-sliced sweep). Batches wider
    /// than the partition's tile count execute in compute waves rather
    /// than being truncated. `1` turns the batch coalescer off: every
    /// request then rides alone, the single-lane baseline the `serve`
    /// bench compares against.
    pub max_lanes: usize,
    /// How way handoffs are charged: the conservative whole-claim flush,
    /// or the invalidation-based coherence protocol (targeted
    /// back-invalidations + writeback pulls, overlapped). Coherent mode
    /// also exports its protocol traffic under `cache.coh.*`.
    pub handoff: HandoffMode,
}

impl Default for ServeConfig {
    /// Four end-to-end slices, weighted-fair scheduling, batching on.
    fn default() -> Self {
        ServeConfig {
            partition: SlicePartition::end_to_end(),
            slices: 4,
            dirty_fraction: 0.5,
            tile_mccs: 1,
            queue_depth: 64,
            shed: ShedPolicy::RejectNew,
            policy: SchedPolicy::WeightedFair,
            max_lanes: BATCH_LANES,
            handoff: HandoffMode::ConservativeFlush,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if !(1..=MAX_SLICES).contains(&self.slices) {
            return Err(ServeError::BadConfig(format!(
                "slices must be 1..={MAX_SLICES}, got {}",
                self.slices
            )));
        }
        if !(0.0..=1.0).contains(&self.dirty_fraction) {
            return Err(ServeError::BadConfig(format!(
                "dirty_fraction must be in [0, 1], got {}",
                self.dirty_fraction
            )));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::BadConfig("queue_depth must be >= 1".into()));
        }
        if self.max_lanes == 0 {
            return Err(ServeError::BadConfig("max_lanes must be >= 1".into()));
        }
        if let HandoffMode::Coherent { residency } = self.handoff {
            if !(0.0..=1.0).contains(&residency) {
                return Err(ServeError::BadConfig(format!(
                    "coherent handoff residency must be in [0, 1], got {residency}"
                )));
            }
        }
        Ok(())
    }
}

/// A registered kernel with everything a dispatch needs precomputed.
#[derive(Clone)]
struct ServedKernel {
    accel: Arc<Accelerator>,
    /// Compiled batch plan over the mapped netlist (per lane or
    /// bit-sliced at whatever width the pass needs, via
    /// [`ExecPlan::run_batch_cycles_any`]). Shared: plan execution is
    /// `&self`, so a cluster compiles each kernel once and every shard —
    /// and every clone of the cluster, sampled segments included — runs
    /// the same `Arc`.
    plan: Arc<ExecPlan>,
    profile: RequestProfile,
    /// Functional depth actually executed for hashing.
    func_cycles: u64,
    /// Round quote on the configured partition; one wave runs
    /// `quote.area_tiles()` lanes at once.
    quote: RoundQuote,
    /// Reconfiguration quote for this accelerator on the configured
    /// partition.
    cost: ReconfigCost,
    /// Lane capacity per dispatch.
    lanes_cap: usize,
    /// Registration index, the id the server's logs record.
    id: u32,
}

/// A tenant's per-request bookkeeping, reached through one lookup by name:
/// its registration index (the id the server's logs record), its
/// `serve.tenant.<name>.*` probe keys, formatted once when the tenant is
/// added so per-request accounting allocates nothing, the tallies of its
/// per-request probes, and the `(seq, retries)` identities it has
/// submitted and not had stolen away. The identity set answers membership
/// only and is never iterated, so its order cannot reach a schedule or a
/// report.
#[derive(Clone)]
struct TenantBook {
    id: u32,
    ids: HashSet<(u64, u32)>,
    tally: TenantTally,
    submitted: String,
    completed: String,
    shed: String,
    latency_ps: String,
    stolen: String,
    stolen_in: String,
    tlb_faults: String,
    reconfig_ps: String,
}

/// One tenant's per-request probes between reports.
#[derive(Clone, Default)]
struct TenantTally {
    submitted: Count,
    completed: Count,
    shed: Count,
    reconfig_ps: Count,
    latency_ps: Histogram,
}

impl TenantBook {
    fn new(name: &str, id: u32) -> Self {
        let key = |suffix: &str| format!("serve.tenant.{name}.{suffix}");
        TenantBook {
            id,
            ids: HashSet::new(),
            tally: TenantTally::default(),
            submitted: key("submitted"),
            completed: key("completed"),
            shed: key("shed"),
            latency_ps: key("latency_ps"),
            stolen: key("stolen"),
            stolen_in: key("stolen_in"),
            tlb_faults: key("tlb_faults"),
            reconfig_ps: key("reconfig_ps"),
        }
    }

    /// Writes the tenant's tallies to `probes` and resets them.
    fn flush(&mut self, probes: &mut CounterRegistry) {
        let t = &mut self.tally;
        t.submitted.flush(probes, &self.submitted);
        t.completed.flush(probes, &self.completed);
        t.shed.flush(probes, &self.shed);
        t.reconfig_ps.flush(probes, &self.reconfig_ps);
        flush_histogram(&mut t.latency_ps, probes, &self.latency_ps);
    }
}

/// The server-wide per-request probes between reports, one field per
/// `serve.*` key.
#[derive(Clone, Default)]
struct ServeTally {
    submitted: Count,
    retried: Count,
    admitted: Count,
    shed: Count,
    completed: Count,
    dispatched: Count,
    single_lane: Count,
    coalesced: Count,
    lanes_occupied: Count,
    lanes_capacity: Count,
    waves: Count,
    reconfigs: Count,
    reconfig_ps: Count,
    deadlines_met: Count,
    deadlines_missed: Count,
    queue_depth_hw: HighWater,
    lanes_widest: HighWater,
    occupancy: Histogram,
    queue_wait_ps: Histogram,
    latency_ps: Histogram,
}

impl ServeTally {
    /// Writes the tallies to `probes` and resets them.
    fn flush(&mut self, probes: &mut CounterRegistry) {
        self.submitted.flush(probes, "serve.requests.submitted");
        self.retried.flush(probes, "serve.requests.retried");
        self.admitted.flush(probes, "serve.requests.admitted");
        self.shed.flush(probes, "serve.requests.shed");
        self.completed.flush(probes, "serve.requests.completed");
        self.dispatched.flush(probes, "serve.batches.dispatched");
        self.single_lane.flush(probes, "serve.batches.single_lane");
        self.coalesced.flush(probes, "serve.batches.coalesced");
        self.lanes_occupied.flush(probes, "serve.lanes.occupied");
        self.lanes_capacity.flush(probes, "serve.lanes.capacity");
        self.waves.flush(probes, "serve.batch.waves");
        self.reconfigs.flush(probes, "serve.reconfigs");
        self.reconfig_ps.flush(probes, "serve.reconfig.total_ps");
        self.deadlines_met.flush(probes, "serve.deadlines.met");
        self.deadlines_missed
            .flush(probes, "serve.deadlines.missed");
        self.queue_depth_hw.flush(probes, "serve.queue.depth_hw");
        self.lanes_widest.flush(probes, "serve.lanes.widest");
        flush_histogram(&mut self.occupancy, probes, "serve.batch.occupancy");
        flush_histogram(&mut self.queue_wait_ps, probes, "serve.queue.wait_ps");
        flush_histogram(&mut self.latency_ps, probes, "serve.latency_ps");
    }
}

/// One compute slice's scheduling state.
#[derive(Clone)]
struct SliceState {
    resident: Option<String>,
    free_at: Time,
    busy_ps: Time,
    reconfigs: u64,
    /// High-water marks already exported to counters (so repeated `run`
    /// calls add deltas, keeping counter merges additive).
    reported_busy_ps: Time,
    reported_span_ps: Time,
    /// The slice's last dispatch, until it retires to the log.
    flight: Flight,
}

/// A slice's last dispatch, *in flight*: a later dispatch on another
/// slice may still finish before it, so its completions stay out of the
/// completion log until a dispatch at or after its `done_ps` retires it
/// ([`Server::retire_until`]).
#[derive(Clone, Default)]
struct Flight {
    done_ps: Time,
    batch_id: u64,
    kernel: u32,
    /// Whether a report's functional phase has hashed the riders.
    hashed: bool,
    /// `(completion, tenant id)` of every rider, in `(tenant, seq)` order
    /// (lane order among equals); empty once retired.
    riders: Vec<(Completion, u32)>,
}

impl Flight {
    /// Whether the batch is still here and finished by `t`.
    fn due(&self, t: Time) -> bool {
        !self.riders.is_empty() && self.done_ps <= t
    }

    /// The log tag of one of its riders.
    fn tag(&self, tenant: u32) -> Tag {
        Tag {
            tenant,
            kernel: self.kernel,
            hashed: self.hashed,
        }
    }
}

/// What the completion log keeps beside each completion: the ids the
/// history records, and whether the functional phase has hashed it yet.
#[derive(Clone, Copy)]
struct Tag {
    tenant: u32,
    kernel: u32,
    hashed: bool,
}

/// A completion an earlier report handed over, kept for the cumulative
/// reports after it with its tenant and kernel as ids: `Copy`, so keeping
/// it allocates nothing per record and dropping it frees nothing.
#[derive(Clone, Copy)]
struct Past {
    tenant: u32,
    kernel: u32,
    seq: u64,
    arrival_ps: Time,
    start_ps: Time,
    done_ps: Time,
    reconfig_ps: Time,
    exec_ps: Time,
    batch_id: u64,
    lanes: u32,
    slice: u32,
    output_hash: u64,
    seed: u64,
    deadline_met: Option<bool>,
}

impl Past {
    fn new(c: &Completion, tag: Tag) -> Self {
        Past {
            tenant: tag.tenant,
            kernel: tag.kernel,
            seq: c.seq,
            arrival_ps: c.arrival_ps,
            start_ps: c.start_ps,
            done_ps: c.done_ps,
            reconfig_ps: c.reconfig_ps,
            exec_ps: c.exec_ps,
            batch_id: c.batch_id,
            lanes: c.lanes as u32,
            slice: c.slice as u32,
            output_hash: c.output_hash,
            seed: c.seed,
            deadline_met: c.deadline_met,
        }
    }

    /// The completion again, names looked up by id.
    fn completion(&self, tenants: &[&str], kernels: &[&str]) -> Completion {
        Completion {
            tenant: tenants[self.tenant as usize].to_owned(),
            seq: self.seq,
            kernel: kernels[self.kernel as usize].to_owned(),
            arrival_ps: self.arrival_ps,
            start_ps: self.start_ps,
            done_ps: self.done_ps,
            reconfig_ps: self.reconfig_ps,
            exec_ps: self.exec_ps,
            batch_id: self.batch_id,
            lanes: self.lanes as usize,
            slice: self.slice as usize,
            output_hash: self.output_hash,
            seed: self.seed,
            deadline_met: self.deadline_met,
        }
    }
}

/// One dispatch in the schedule log, its kernel an id. Its riders'
/// `(tenant id, seq, retries)` follow those of the dispatches before it
/// in `Server::dispatch_riders`; reports build the [`DispatchRecord`]s.
#[derive(Clone, Copy)]
struct Dispatched {
    at_ps: Time,
    slice: usize,
    kernel: u32,
    lanes: usize,
    reconfigured: bool,
}

/// Where a functional-phase lane's completion is: at an index of the
/// completion log, or at `(slice, rider)` of an in-flight batch.
#[derive(Clone, Copy)]
enum At {
    Log(usize),
    Flight(usize, usize),
}

/// Merges canonically ordered runs into `emit`, by move, in canonical
/// `(done_ps, tenant, seq)` order, with the index of each item's run.
/// Among equal keys the earlier run goes first, as a stable sort of the
/// runs' concatenation would leave them: the one tie rule of every
/// completion merge (retiring, handing over, and the cluster's view).
pub(crate) fn merge_canonical<T>(
    runs: &mut [std::vec::IntoIter<T>],
    completion: impl Fn(&T) -> &Completion,
    mut emit: impl FnMut(usize, T),
) {
    fn key(c: &Completion) -> (Time, &str, u64) {
        (c.done_ps, &c.tenant, c.seq)
    }
    loop {
        let mut least: Option<(usize, &Completion)> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some(c) = run.as_slice().first().map(&completion) {
                if least.is_none_or(|(_, l)| key(c) < key(l)) {
                    least = Some((i, c));
                }
            }
        }
        let Some((i, _)) = least else { return };
        emit(i, runs[i].next().expect("the least run has a head"));
    }
}

/// One dispatch in the schedule log — the object the determinism oracle
/// compares across tenant enumeration orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Monotonic dispatch id.
    pub batch_id: u64,
    /// Dispatch time (start of reconfiguration, if any).
    pub at_ps: Time,
    /// Executing slice.
    pub slice: usize,
    /// Kernel that ran.
    pub kernel: String,
    /// Lanes occupied.
    pub lanes: usize,
    /// Whether the slice had to reconfigure.
    pub reconfigured: bool,
    /// `(tenant, seq, retries)` of every rider, lane order.
    pub requests: Vec<(String, u64, u32)>,
}

/// Per-tenant outcome summary with interpolated latency quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Requests submitted (including retries).
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed.
    pub shed: u64,
    /// Median completion latency, ps.
    pub p50_ps: f64,
    /// 95th-percentile latency, ps.
    pub p95_ps: f64,
    /// 99th-percentile latency, ps.
    pub p99_ps: f64,
    /// Mean latency, ps.
    pub mean_ps: f64,
}

impl TenantSummary {
    /// A summary with the quantiles and mean of `latency_ps`, all 0 when
    /// the tenant has no latency histogram.
    pub(crate) fn new(
        name: &str,
        weight: u64,
        submitted: u64,
        completed: u64,
        shed: u64,
        latency_ps: Option<&Histogram>,
    ) -> Self {
        let q = |p: f64| latency_ps.and_then(|h| h.quantile(p)).unwrap_or(0.0);
        TenantSummary {
            name: name.to_owned(),
            weight,
            submitted,
            completed,
            shed,
            p50_ps: q(0.5),
            p95_ps: q(0.95),
            p99_ps: q(0.99),
            mean_ps: latency_ps.map_or(0.0, Histogram::mean),
        }
    }
}

/// The result of draining the server.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// All completions, ordered by `(done_ps, tenant, seq)`.
    pub completions: Vec<Completion>,
    /// All sheds, in shed order.
    pub sheds: Vec<Shed>,
    /// The full schedule, in dispatch order.
    pub dispatches: Vec<DispatchRecord>,
    /// Last completion time (0 when nothing completed).
    pub span_ps: Time,
    /// Way-reclaim time paid at drain for still-resident accelerators.
    pub teardown_ps: Time,
    /// All serving counters/gauges/histograms (`serve.*`).
    pub probes: CounterRegistry,
    /// Per-tenant summaries, name order.
    pub tenants: Vec<TenantSummary>,
}

impl ServeReport {
    /// Sustained completion throughput in requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.span_ps == 0 {
            0.0
        } else {
            self.completions.len() as f64 * 1e12 / self.span_ps as f64
        }
    }

    /// Summary of one tenant.
    pub fn tenant(&self, name: &str) -> Option<&TenantSummary> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// The multi-tenant request server. A clone is an independent server in
/// the same state.
#[derive(Clone)]
pub struct Server {
    cfg: ServeConfig,
    tlb: TenantTlb,
    coh: CoherenceStats,
    kernels: BTreeMap<String, ServedKernel>,
    tenants: BTreeMap<String, TenantState>,
    tenant_books: BTreeMap<String, TenantBook>,
    queues: BTreeMap<String, AdmissionQueue>,
    pending: PendingSet,
    slices: Vec<SliceState>,
    /// Every probe written so far; the per-request ones since the last
    /// report are still in `tally` and the tenant books.
    probes: Probes,
    tally: ServeTally,
    queued: usize,
    now: Time,
    /// Completions retired from flight since the last report, in
    /// canonical order, and their tags.
    log: Vec<Completion>,
    log_tags: Vec<Tag>,
    /// Every completion earlier reports handed over, in canonical order.
    history: Vec<Past>,
    sheds: Vec<Shed>,
    /// The schedule log and its riders (see [`Dispatched`]).
    dispatched: Vec<Dispatched>,
    dispatch_riders: Vec<(u32, u64, u32)>,
    /// Whether reports run the functional phase. Cleared only by
    /// [`Server::set_timing_only`].
    functional: bool,
}

impl Server {
    /// A server with no tenants or kernels yet.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations (slice count, queue depth, lane cap,
    /// dirty fraction) and tile sizes the partition cannot host.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let tile = AcceleratorTile::new(cfg.tile_mccs)?;
        if cfg.partition.mccs() < tile.mccs() {
            return Err(ServeError::BadConfig(format!(
                "partition provides {} MCCs but one tile needs {}",
                cfg.partition.mccs(),
                tile.mccs()
            )));
        }
        let slices = (0..cfg.slices)
            .map(|_| SliceState {
                resident: None,
                free_at: 0,
                busy_ps: 0,
                reconfigs: 0,
                reported_busy_ps: 0,
                reported_span_ps: 0,
                flight: Flight::default(),
            })
            .collect();
        Ok(Server {
            cfg,
            tlb: TenantTlb::new(
                cfg.partition.scratchpad_bytes(),
                std::iter::empty::<String>(),
            ),
            coh: CoherenceStats::default(),
            kernels: BTreeMap::new(),
            tenants: BTreeMap::new(),
            tenant_books: BTreeMap::new(),
            queues: BTreeMap::new(),
            pending: PendingSet::default(),
            slices,
            probes: Probes::new(),
            tally: ServeTally::default(),
            queued: 0,
            now: 0,
            log: Vec::new(),
            log_tags: Vec::new(),
            history: Vec::new(),
            sheds: Vec::new(),
            dispatched: Vec::new(),
            dispatch_riders: Vec::new(),
            functional: true,
        })
    }

    /// Makes the server timing-only: dispatches no longer queue their
    /// completions for hashing, and [`Server::report`] skips the
    /// functional phase, so every completion keeps `output_hash == 0` and
    /// no `serve.func.*` counter is exported. Its reports export nothing
    /// to the global probe either. The schedule is unchanged, since no
    /// scheduling decision reads a hash. Set it before the first
    /// submission.
    pub(crate) fn set_timing_only(&mut self) {
        self.functional = false;
        self.probes.stop_exporting();
    }

    /// The configuration this server runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Registers `circuit` under `name`: maps it onto the configured tile
    /// and precomputes the batch plan and reconfiguration quote.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and propagates mapping failures.
    pub fn register_kernel(
        &mut self,
        name: &str,
        circuit: &Netlist,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        let tile = AcceleratorTile::new(self.cfg.tile_mccs)?;
        let accel = Accelerator::map_shared(circuit, &tile)?;
        self.register_accelerator(name, accel, profile)
    }

    /// Registers an already-mapped accelerator (sharing one mapping across
    /// servers, e.g. the batching-on/off comparison in the bench).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, tile mismatches, and plan-compile
    /// failures.
    pub fn register_accelerator(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        let plan = Arc::new(compile(accel.netlist())?);
        self.register_prepared(name, accel, plan, profile)
    }

    /// Registers an accelerator with an already-compiled batch plan. The
    /// cluster compiles each kernel's plan exactly once and shares it
    /// across every shard (plan execution is `&self`), so building a shard
    /// costs no recompilation.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and tile mismatches.
    pub(crate) fn register_prepared(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        plan: Arc<ExecPlan>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        if self.kernels.contains_key(name) {
            return Err(ServeError::DuplicateKernel(name.to_owned()));
        }
        if accel.tile().mccs() != self.cfg.tile_mccs {
            return Err(ServeError::BadConfig(format!(
                "accelerator '{name}' was mapped for {} MCCs, server tiles have {}",
                accel.tile().mccs(),
                self.cfg.tile_mccs
            )));
        }
        let cost = reconfig_cost(
            &accel,
            &self.cfg.partition,
            self.cfg.dirty_fraction,
            self.cfg.handoff,
        )?;
        // The bit-sliced engine bounds lanes, not the tile count: a batch
        // wider than the tiles runs extra compute waves instead of being
        // truncated (the old `.min(tiles)` clamp capped every partition
        // at ≤32 lanes and made `max_lanes` above that unreachable).
        let lanes_cap = self.cfg.max_lanes.min(MAX_BATCH_LANES);
        let id = self.kernels.len() as u32;
        self.kernels.insert(
            name.to_owned(),
            ServedKernel {
                plan,
                profile,
                func_cycles: profile.cycles_per_item.clamp(1, FUNC_CYCLES_CAP),
                quote: profile.quote(&accel, &self.cfg.partition),
                cost,
                lanes_cap,
                accel,
                id,
            },
        );
        self.queues
            .insert(name.to_owned(), AdmissionQueue::new(self.cfg.queue_depth));
        Ok(())
    }

    /// Registers one of the paper's benchmark kernels under its lowercase
    /// figure name (`"aes"`, `"gemm"`, …), deriving the request profile
    /// from the kernel's unit workload.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn register_paper_kernel(&mut self, id: KernelId) -> Result<(), ServeError> {
        let k: Box<dyn Kernel> = kernel(id);
        self.register_kernel(
            &id.name().to_lowercase(),
            &k.circuit(),
            RequestProfile::of(&k.workload(1)),
        )
    }

    /// Adds a tenant with a fair-share `weight` (>= 1).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and zero weights.
    pub fn add_tenant(&mut self, name: &str, weight: u64) -> Result<(), ServeError> {
        if weight == 0 {
            return Err(ServeError::BadConfig(format!(
                "tenant '{name}' weight must be >= 1"
            )));
        }
        if self.tenants.contains_key(name) {
            return Err(ServeError::DuplicateTenant(name.to_owned()));
        }
        self.tenants
            .insert(name.to_owned(), TenantState { weight, vwork: 0 });
        let id = self.tenant_books.len() as u32;
        self.tenant_books
            .insert(name.to_owned(), TenantBook::new(name, id));
        self.rebuild_tlb();
        Ok(())
    }

    /// Rebuilds the per-tenant scratchpad layout: an equal split of the
    /// current partition's scratchpad bytes over the sorted tenant names.
    fn rebuild_tlb(&mut self) {
        self.tlb = TenantTlb::new(
            self.cfg.partition.scratchpad_bytes(),
            self.tenants.keys().cloned(),
        );
    }

    /// The scratchpad segment a tenant owns under the current partition
    /// (what its `spad_addr` declarations are checked against).
    pub fn tenant_segment(&self, name: &str) -> Option<TlbSegment> {
        self.tlb.segment(name)
    }

    /// Coherence-protocol traffic charged so far (all zeros under
    /// [`HandoffMode::ConservativeFlush`]).
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.coh
    }

    /// The mapped netlist of a registered kernel (verification replays
    /// reference execution against it).
    pub fn kernel_netlist(&self, name: &str) -> Option<&Netlist> {
        self.kernels.get(name).map(|k| k.accel.netlist())
    }

    /// Functional hashing depth of a registered kernel.
    pub fn kernel_func_cycles(&self, name: &str) -> Option<u64> {
        self.kernels.get(name).map(|k| k.func_cycles)
    }

    /// The cost model a fluid queue approximation needs for one kernel:
    /// per-wave service time, the reconfiguration quotes a batch amortizes,
    /// and how many lanes one wave carries (1 when `max_lanes` is 1 —
    /// every request then pays a full wave).
    pub fn kernel_fluid_estimate(&self, name: &str) -> Option<FluidEstimate> {
        self.kernels.get(name).map(|k| FluidEstimate {
            service_ps: k
                .quote
                .clock()
                .cycles_to_time(k.quote.compute_cycles().max(1))
                .max(1),
            swap_ps: k.cost.swap_ps(),
            setup_ps: k.cost.setup_ps(),
            tiles: k.quote.area_tiles().min(k.lanes_cap).max(1),
        })
    }

    /// Submits a request for the next [`Server::run`].
    ///
    /// # Errors
    ///
    /// Rejects unknown tenants/kernels and duplicate
    /// `(tenant, seq, retries)` identities.
    pub fn submit(&mut self, req: Request) -> Result<(), ServeError> {
        self.submit_counted(req, false)
    }

    /// [`Server::submit`], additionally counting a steal-in when `stolen`.
    fn submit_counted(&mut self, req: Request, stolen: bool) -> Result<(), ServeError> {
        let Some(book) = self.tenant_books.get_mut(req.tenant.as_str()) else {
            return Err(ServeError::UnknownTenant(req.tenant));
        };
        if !self.kernels.contains_key(&req.kernel) {
            return Err(ServeError::UnknownKernel(req.kernel));
        }
        if !book.ids.insert((req.seq, req.retries)) {
            return Err(ServeError::DuplicateRequest {
                tenant: req.tenant,
                seq: req.seq,
                retries: req.retries,
            });
        }
        self.tally.submitted.inc();
        book.tally.submitted.inc();
        if stolen {
            let probes = self.probes.sink();
            probes.inc("serve.requests.stolen_in");
            probes.inc(&book.stolen_in);
        }
        if req.retries > 0 {
            self.tally.retried.inc();
        }
        self.pending.push(req);
        Ok(())
    }

    /// Drains everything submitted, with no closed-loop reaction.
    ///
    /// # Errors
    ///
    /// See [`Server::run`].
    pub fn run_to_completion(&mut self) -> Result<ServeReport, ServeError> {
        self.run(|_| Vec::new())
    }

    /// Runs the serving loop until queues and pending arrivals drain.
    ///
    /// `hook` observes every terminal [`Outcome`] in deterministic order
    /// and may return follow-up requests — the closed-loop driver's next
    /// invocation after a completion, or a retry after a shed. Follow-up
    /// arrivals are clamped to the outcome's time (strictly after it for
    /// sheds, so a full queue cannot live-lock the clock); a hook that
    /// eventually stops issuing keeps the loop finite. The hook sees a
    /// completion's timing and placement but not its function: its
    /// `output_hash` is still `0`, and only the returned report carries the
    /// computed value (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates invalid follow-up submissions and functional-execution
    /// failures.
    pub fn run<F>(&mut self, mut hook: F) -> Result<ServeReport, ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        self.run_until(Time::MAX, &mut hook)?;
        self.report()
    }

    /// Runs the serving loop, but only through events at or before
    /// `until`: the next admission or dispatch instant past the bound
    /// leaves the server parked with its clock unadvanced, so a cluster
    /// can pump shards in lock-stepped epochs. Driving the loop to
    /// successively larger bounds replays exactly the event sequence one
    /// unbounded [`Server::run`] would produce (the schedule is a pure
    /// function of the request set, and the bound only decides how much
    /// prefix executes per call). As under [`Server::run`], completions
    /// shown to the hook carry `output_hash == 0`; [`Server::report`]
    /// fills them in.
    ///
    /// # Errors
    ///
    /// Propagates invalid follow-up submissions.
    pub fn run_until<F>(&mut self, until: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        loop {
            if self.queued == 0 {
                let Some(t) = self.pending.next_arrival_ps() else {
                    break;
                };
                if t > until {
                    break;
                }
                self.admit_until(t, hook)?;
                self.now = self.now.max(t);
                continue;
            }
            let (si, free_at) = self
                .slices
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (s.free_at, *i))
                .map(|(i, s)| (i, s.free_at))
                .expect("at least one slice");
            let t = self.now.max(free_at);
            if t > until {
                break;
            }
            // Arrivals at or before the dispatch instant were already
            // there when the slice freed; they join (and may shed) first.
            self.admit_until(t, hook)?;
            self.now = t;
            if self.queued > 0 {
                self.dispatch(si, t, hook)?;
            }
        }
        Ok(())
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Requests sitting in admission queues right now.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Queued plus not-yet-admitted requests — the router's load signal.
    pub fn backlog(&self) -> usize {
        self.queued + self.pending.len()
    }

    /// Simulated time of the next admission or dispatch this server would
    /// process, or `None` when fully drained. A cluster uses this to skip
    /// idle epochs without perturbing the event order.
    pub fn next_event_ps(&self) -> Option<Time> {
        let action = self.next_action_ps();
        match self.pending.next_arrival_ps() {
            Some(arrival) => action.map(|t| t.min(arrival)),
            None => action,
        }
    }

    /// Simulated time of the next event [`Server::run_until`] would act on,
    /// or `None` when fully drained: the next arrival while nothing is
    /// queued, else the next dispatch instant — queued work holds arrivals
    /// back until then, so this is never earlier than
    /// [`Server::next_event_ps`]. A run bounded below it changes nothing.
    pub(crate) fn next_action_ps(&self) -> Option<Time> {
        if self.queued == 0 {
            return self.pending.next_arrival_ps();
        }
        let free_at = self
            .slices
            .iter()
            .map(|s| s.free_at)
            .min()
            .expect("at least one slice");
        Some(self.now.max(free_at))
    }

    /// Removes up to `max` requests from the back of the deepest admission
    /// queue — the work-stealing victim's half of a steal. The newest
    /// arrivals go first so head-of-line service order is disturbed least;
    /// ties between equally deep queues resolve to the lexicographically
    /// smallest kernel name. Stolen requests stop counting against this
    /// server (`completed + shed + stolen == submitted` stays balanced)
    /// and their identities are released for resubmission on the thief.
    pub fn steal_newest(&mut self, max: usize) -> Vec<Request> {
        let mut out = Vec::new();
        while out.len() < max {
            // Strictly deeper replaces, so among equally deep queues the
            // first in name order stays the victim.
            let mut victim: Option<&mut AdmissionQueue> = None;
            for q in self.queues.values_mut() {
                if q.len() > victim.as_ref().map_or(0, |v| v.len()) {
                    victim = Some(q);
                }
            }
            let Some(req) = victim.and_then(AdmissionQueue::pop_newest) else {
                break;
            };
            self.queued -= 1;
            let book = self
                .tenant_books
                .get_mut(req.tenant.as_str())
                .expect("queued requests belong to registered tenants");
            book.ids.remove(&(req.seq, req.retries));
            let probes = self.probes.sink();
            probes.inc("serve.requests.stolen");
            probes.inc(&book.stolen);
            out.push(req);
        }
        out
    }

    /// Submits a request stolen from another shard: a normal submission
    /// (it counts as submitted here, balancing the victim's `stolen`)
    /// plus `stolen_in` counters so cross-shard migration stays visible.
    ///
    /// # Errors
    ///
    /// See [`Server::submit`].
    pub fn submit_stolen(&mut self, req: Request) -> Result<(), ServeError> {
        self.submit_counted(req, true)
    }

    /// Re-splits every slice's ways to `partition` at simulated time `at`
    /// — the elastic autoscaling step. The conversion is charged through
    /// [`freac_core::way_conversion_charge`] under the configured
    /// [`HandoffMode`] (blind flush, or targeted invalidations with the
    /// protocol traffic exported under `cache.coh.*`): each slice becomes
    /// free no earlier than `max(free_at, at) + conversion`, residents are
    /// evicted (the LUT fabric was rebuilt), and every kernel's
    /// reconfiguration and round quotes are requoted against the new split.
    /// Returns the per-slice conversion time.
    ///
    /// # Errors
    ///
    /// Rejects partitions too small for the configured tile.
    pub fn rescale(&mut self, partition: SlicePartition, at: Time) -> Result<Time, ServeError> {
        let tile = AcceleratorTile::new(self.cfg.tile_mccs)?;
        if partition.mccs() < tile.mccs() {
            return Err(ServeError::BadConfig(format!(
                "partition provides {} MCCs but one tile needs {}",
                partition.mccs(),
                tile.mccs()
            )));
        }
        let charge = way_conversion_charge(
            &self.cfg.partition,
            &partition,
            self.cfg.dirty_fraction,
            self.cfg.handoff,
        );
        let conversion_ps = charge.stall_ps;
        if self.cfg.handoff.is_coherent() {
            // Coherent handoffs quote real protocol traffic; conservative
            // ones are a blind flush with nothing to itemize, so the
            // `cache.coh.*` export stays silent (and committed baselines
            // stay byte-stable) unless coherence is on.
            let mut delta = CoherenceStats::default();
            charge.accumulate_into(&mut delta);
            self.coh.merge(&delta);
            delta.export_into(self.probes.sink(), "cache.coh");
        }
        for k in self.kernels.values_mut() {
            k.cost = reconfig_cost(
                &k.accel,
                &partition,
                self.cfg.dirty_fraction,
                self.cfg.handoff,
            )?;
            k.quote = k.profile.quote(&k.accel, &partition);
        }
        self.cfg.partition = partition;
        self.rebuild_tlb();
        for s in &mut self.slices {
            // The conversion occupies the slice but is not service time,
            // so `free_at` advances while `busy_ps` does not — the
            // busy <= span probe law survives every rescale.
            s.resident = None;
            s.free_at = s.free_at.max(at).saturating_add(conversion_ps);
        }
        let probes = self.probes.sink();
        probes.inc("serve.rescales");
        probes.add("serve.rescale.conversion_ps", conversion_ps);
        Ok(conversion_ps)
    }

    /// Admits every pending arrival at or before `t`, applying the shed
    /// policy and feeding shed outcomes to the hook.
    fn admit_until<F>(&mut self, t: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        while let Some(req) = self.pending.pop_due(t) {
            let at = req.arrival_ps;
            // The TLB guards the scratchpad before the queue does: a
            // declared address outside the tenant's segment faults here,
            // deterministically, and never reaches a slice.
            if let Some(addr) = req.spad_addr {
                let probes = self.probes.sink();
                probes.inc("serve.tlb.accesses");
                if self.tlb.translate(&req.tenant, addr).is_some() {
                    probes.inc("serve.tlb.hits");
                } else {
                    probes.inc("serve.tlb.misses");
                    probes.inc("serve.tlb.faults");
                    probes.inc(&self.tenant_books[req.tenant.as_str()].tlb_faults);
                    self.shed(req, at, ShedReason::TlbFault, hook)?;
                    continue;
                }
            }
            let queue = self
                .queues
                .get_mut(&req.kernel)
                .expect("kernel validated at submit");
            let result = queue.admit(req, self.cfg.shed);
            let depth = queue.len();
            match result {
                AdmitResult::Admitted => {
                    self.queued += 1;
                    self.note_admission(depth);
                }
                AdmitResult::Displaced(victim) => {
                    self.note_admission(depth);
                    self.shed(victim, at, ShedReason::Displaced, hook)?;
                }
                AdmitResult::Rejected(bounced) => {
                    self.shed(bounced, at, ShedReason::QueueFull, hook)?;
                }
            }
        }
        Ok(())
    }

    /// The book of a tenant a queued or completed request belongs to.
    fn book_mut(&mut self, tenant: &str) -> &mut TenantBook {
        self.tenant_books
            .get_mut(tenant)
            .expect("requests belong to registered tenants")
    }

    fn note_admission(&mut self, depth: usize) {
        self.tally.admitted.inc();
        self.tally.queue_depth_hw.raise(depth as f64);
    }

    fn shed<F>(
        &mut self,
        request: Request,
        at_ps: Time,
        reason: ShedReason,
        hook: &mut F,
    ) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        self.tally.shed.inc();
        self.book_mut(&request.tenant).tally.shed.inc();
        let outcome = Outcome::Shed(Shed {
            request,
            at_ps,
            reason,
        });
        let followups = hook(&outcome);
        if let Outcome::Shed(shed) = outcome {
            self.sheds.push(shed);
        }
        // Retries must land strictly after the shed instant, otherwise a
        // persistently full queue could loop at one timestamp forever.
        self.follow_up(followups, at_ps.saturating_add(1))
    }

    /// Submits the follow-up requests a hook returned, with arrivals
    /// clamped to `min_arrival`.
    fn follow_up(&mut self, followups: Vec<Request>, min_arrival: Time) -> Result<(), ServeError> {
        for mut f in followups {
            f.arrival_ps = f.arrival_ps.max(min_arrival);
            self.submit(f)?;
        }
        Ok(())
    }

    /// Dispatches one batch on slice `si` at time `t`: retires what finished
    /// by `t` to the completion log, charges the batch's timing, and leaves
    /// its completions in flight on the slice for the functional phase
    /// ([`Server::report`]).
    fn dispatch<F>(&mut self, si: usize, t: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        self.retire_until(t);
        let (kernel_name, anchor) =
            pick(self.cfg.policy, &self.queues, &self.tenants).expect("queued > 0");
        let cap = self.kernels[&kernel_name].lanes_cap;
        let queue = self.queues.get_mut(&kernel_name).expect("kernel queue");
        let batch = take_batch(queue, anchor, cap);
        self.queued -= batch.len();
        let k = batch.len();

        let ctx = &self.kernels[&kernel_name];
        let kernel = ctx.id;
        let resident = self.slices[si].resident.as_deref() == Some(kernel_name.as_str());
        let reconfig_ps = if resident {
            0
        } else if self.slices[si].resident.is_none() {
            ctx.cost.setup_ps()
        } else {
            ctx.cost.swap_ps()
        };
        let tiles = ctx.quote.area_tiles();
        let waves = k.div_ceil(tiles) as u64;
        let exec_ps = ctx.quote.time_ps(k, tiles);
        let start = t.saturating_add(reconfig_ps);
        let done = start.saturating_add(exec_ps);
        // The completion log relies on this: what retires at `t` precedes
        // everything dispatched from `t` on.
        assert!(
            done > t,
            "a dispatch at {t} ps must finish after it starts (a round charges at least one cycle)"
        );
        // Exclusive requests own the accelerator's register state, so they
        // (and, with a one-lane cap, every request) ride alone. That is
        // timing only: every lane hashes on the kernel's batch plan.
        let single_lane = batch[0].exclusive || cap == 1;

        // Accounting: execution is split evenly across the riders. A
        // kernel *swap* is charged to the anchor's tenant — churning the
        // resident kernel is that tenant's doing — but first-claim setup
        // is cold-start infrastructure cost and charged to nobody (a
        // one-time setup charged to one tenant would starve them for the
        // whole transient).
        let anchor_tenant = batch[0].tenant.as_str();
        if self.slices[si].resident.is_some() && !resident {
            if let Some(ts) = self.tenants.get_mut(anchor_tenant) {
                ts.charge(reconfig_ps);
            }
        }
        let share = exec_ps / k as u64;
        for r in &batch {
            if let Some(ts) = self.tenants.get_mut(&r.tenant) {
                ts.charge(share);
            }
        }

        let batch_id = self.dispatched.len() as u64;
        let slice = &mut self.slices[si];
        if !resident {
            slice.resident = Some(kernel_name);
            slice.reconfigs += 1;
        }
        slice.free_at = done;
        slice.busy_ps += reconfig_ps + exec_ps;

        let tally = &mut self.tally;
        tally.dispatched.inc();
        if single_lane {
            tally.single_lane.inc();
        } else {
            tally.coalesced.inc();
        }
        tally.occupancy.observe(k as u64);
        // Lane occupancy: occupied ≤ offered capacity per dispatch (a
        // registered probe law), plus the widest batch seen and the
        // compute waves it queued.
        tally.lanes_occupied.add(k as u64);
        tally.lanes_capacity.add(cap as u64);
        tally.lanes_widest.raise(k as f64);
        tally.waves.add(waves);
        if !resident {
            tally.reconfigs.inc();
            tally.reconfig_ps.add(reconfig_ps);
            self.book_mut(anchor_tenant)
                .tally
                .reconfig_ps
                .add(reconfig_ps);
        }
        self.dispatched.push(Dispatched {
            at_ps: t,
            slice: si,
            kernel,
            lanes: k,
            reconfigured: !resident,
        });

        // The retired flight left its buffer behind for this batch.
        let mut riders = std::mem::take(&mut self.slices[si].flight.riders);
        debug_assert!(
            riders.is_empty(),
            "a slice's last batch retires before it frees"
        );
        for req in batch {
            let completion = Completion {
                arrival_ps: req.arrival_ps,
                start_ps: t,
                done_ps: done,
                reconfig_ps,
                exec_ps,
                batch_id,
                lanes: k,
                slice: si,
                output_hash: 0,
                seed: req.seed,
                deadline_met: req.deadline_ps.map(|d| done <= d),
                tenant: req.tenant,
                seq: req.seq,
                kernel: req.kernel,
            };
            let latency_ps = completion.latency_ps();
            let tally = &mut self.tally;
            tally.completed.inc();
            tally.queue_wait_ps.observe(completion.queue_wait_ps());
            tally.latency_ps.observe(latency_ps);
            match completion.deadline_met {
                Some(true) => tally.deadlines_met.inc(),
                Some(false) => tally.deadlines_missed.inc(),
                None => {}
            }
            let book = self.book_mut(&completion.tenant);
            book.tally.completed.inc();
            book.tally.latency_ps.observe(latency_ps);
            let tenant = book.id;
            self.dispatch_riders
                .push((tenant, completion.seq, req.retries));
            let outcome = Outcome::Completed(completion);
            let followups = hook(&outcome);
            if let Outcome::Completed(c) = outcome {
                riders.push((c, tenant));
            }
            self.follow_up(followups, done)?;
        }
        // A stable sort: riders with equal keys keep their lane order.
        riders
            .sort_by(|(a, _), (b, _)| (a.tenant.as_str(), a.seq).cmp(&(b.tenant.as_str(), b.seq)));
        self.slices[si].flight = Flight {
            done_ps: done,
            batch_id,
            kernel,
            hashed: false,
            riders,
        };
        Ok(())
    }

    /// Retires every in-flight batch that finished by `t` to the completion
    /// log, in canonical order: the batches in order of `done_ps`, the
    /// earlier dispatch first among equals, merged by [`merge_canonical`].
    /// The log stays final because every dispatch from `t` on finishes
    /// strictly after `t` (see the assertion in [`Server::dispatch`]), and
    /// a batch still in flight finishes after `t` too.
    fn retire_until(&mut self, t: Time) {
        let mut due = [0usize; MAX_SLICES];
        let mut n = 0;
        for (i, s) in self.slices.iter().enumerate() {
            if s.flight.due(t) {
                due[n] = i;
                n += 1;
            }
        }
        let due = &mut due[..n];
        due.sort_unstable_by_key(|&i| {
            let f = &self.slices[i].flight;
            (f.done_ps, f.batch_id)
        });
        match *due {
            [] => return,
            [only] => {
                let flight = &mut self.slices[only].flight;
                let (log, tags) = (&mut self.log, &mut self.log_tags);
                let tag = flight.tag(0);
                for (c, tenant) in flight.riders.drain(..) {
                    log.push(c);
                    tags.push(Tag { tenant, ..tag });
                }
                return;
            }
            _ => {}
        }
        let mut runs: [_; MAX_SLICES] = std::array::from_fn(|_| Vec::new().into_iter());
        for (run, &i) in runs.iter_mut().zip(&*due) {
            *run = std::mem::take(&mut self.slices[i].flight.riders).into_iter();
        }
        let (slices, log, tags) = (&self.slices, &mut self.log, &mut self.log_tags);
        merge_canonical(
            &mut runs[..n],
            |(c, _)| c,
            |j, (c, tenant)| {
                tags.push(slices[due[j]].flight.tag(tenant));
                log.push(c);
            },
        );
    }

    /// Takes every completion not hashed yet — in the log or in flight —
    /// into the functional phase's passes: grouped by kernel in name order,
    /// in [`MAX_BATCH_LANES`]-wide chunks, each completion exactly once. A
    /// timing-only server yields no pass.
    pub(crate) fn take_func_passes(&mut self) -> Vec<FuncPass> {
        if !self.functional {
            return Vec::new();
        }
        // The lane count of each kernel id's group, then the index of the
        // group's pass being filled: each pass's lanes are allocated once,
        // at their final size.
        let mut next = vec![0usize; self.kernels.len()];
        self.each_unhashed(|kernel, _, _| next[kernel] += 1);
        let mut passes = Vec::new();
        for k in self.kernels.values() {
            let group = &mut next[k.id as usize];
            let mut left = *group;
            *group = passes.len();
            while left > 0 {
                let lanes = left.min(MAX_BATCH_LANES);
                passes.push(FuncPass {
                    accel: Arc::clone(&k.accel),
                    plan: Arc::clone(&k.plan),
                    cycles: k.func_cycles,
                    lanes: Vec::with_capacity(lanes),
                });
                left -= lanes;
            }
        }
        self.each_unhashed(|kernel, at, seed| {
            let pass = &mut passes[next[kernel]];
            pass.lanes.push((at, seed));
            if pass.lanes.len() == MAX_BATCH_LANES {
                next[kernel] += 1;
            }
        });
        for tag in &mut self.log_tags {
            tag.hashed = true;
        }
        for s in &mut self.slices {
            s.flight.hashed = true;
        }
        passes
    }

    /// Calls `f(kernel id, place, seed)` for every completion not hashed
    /// yet, logged ones first.
    fn each_unhashed(&self, mut f: impl FnMut(usize, At, u64)) {
        for (i, (c, tag)) in self.log.iter().zip(&self.log_tags).enumerate() {
            if !tag.hashed {
                f(tag.kernel as usize, At::Log(i), c.seed);
            }
        }
        for (si, slice) in self.slices.iter().enumerate() {
            let flight = &slice.flight;
            if !flight.hashed {
                for (j, (c, _)) in flight.riders.iter().enumerate() {
                    f(flight.kernel as usize, At::Flight(si, j), c.seed);
                }
            }
        }
    }

    /// Writes the hashes of this server's `passes` (as
    /// [`run_func_passes`] returned them, in pass order) into their
    /// completions and exports `serve.func.passes` and `serve.func.lanes`.
    /// Consumes the passes, so none outlives the phase.
    ///
    /// # Errors
    ///
    /// The first failed pass's error; passes before it keep their hashes.
    pub(crate) fn apply_func_hashes(
        &mut self,
        passes: Vec<FuncPass>,
        hashes: Vec<Result<Vec<u64>, ServeError>>,
    ) -> Result<(), ServeError> {
        let count = passes.len() as u64;
        let mut lanes = 0u64;
        for (pass, hashes) in passes.into_iter().zip(hashes) {
            for (&(at, _), h) in pass.lanes.iter().zip(hashes?) {
                let c = match at {
                    At::Log(i) => &mut self.log[i],
                    At::Flight(si, j) => &mut self.slices[si].flight.riders[j].0,
                };
                c.output_hash = h;
            }
            lanes += pass.lanes.len() as u64;
        }
        if self.functional {
            let probes = self.probes.sink();
            probes.add("serve.func.passes", count);
            probes.add("serve.func.lanes", lanes);
        }
        Ok(())
    }

    /// Runs the functional phase, closes the report's books (writes the
    /// loop's tallies to the registry, checks the probe laws and exports
    /// what is new to the global probe) and assembles the report. Public so a
    /// caller that drives the loop via [`Server::run_until`] can report
    /// after the last step; [`Server::run`] calls it automatically. Every
    /// completion in the report carries its output hash, and reporting
    /// again hashes only what completed since (a timing-only server hashes
    /// nothing).
    ///
    /// # Errors
    ///
    /// Propagates functional-execution failures.
    pub fn report(&mut self) -> Result<ServeReport, ServeError> {
        let passes = self.take_func_passes();
        let hashes = run_func_passes(1, passes.iter().collect());
        self.apply_func_hashes(passes, hashes)?;
        let completions = self.hand_over();
        let ShardReport { dispatches, probes } = self.close_books();
        let tenants = self
            .tenants
            .iter()
            .map(|(name, ts)| {
                let keys = &self.tenant_books[name];
                TenantSummary::new(
                    name,
                    ts.weight,
                    probes.counter(&keys.submitted),
                    probes.counter(&keys.completed),
                    probes.counter(&keys.shed),
                    probes.histogram(&keys.latency_ps),
                )
            })
            .collect();
        Ok(ServeReport {
            span_ps: completions.last().map_or(0, |c| c.done_ps),
            completions,
            sheds: self.sheds.clone(),
            dispatches,
            teardown_ps: self.teardown_ps(),
            probes,
            tenants,
        })
    }

    /// Way-reclaim time for the accelerators resident right now.
    fn teardown_ps(&self) -> Time {
        self.slices
            .iter()
            .filter_map(|s| s.resident.as_ref())
            .map(|name| self.kernels[name].cost.reclaim_ps)
            .sum()
    }

    /// Hands every completion so far to a report, in canonical order and
    /// each exactly once: the completions of earlier reports, rebuilt from
    /// the compact history; then the log, moved out, its records joining
    /// the history; then clones of the batches still in flight (at most one
    /// per slice), which stay for later reports. Everything in flight
    /// finishes after everything logged, so the three parts follow each
    /// other. [`Server::report`] and every cluster shard call it after the
    /// functional phase, so every completion carries its hash.
    pub(crate) fn hand_over(&mut self) -> Vec<Completion> {
        let log = std::mem::take(&mut self.log);
        let flying = self.in_flight();
        let reported = self.history.len();
        let mut out = if reported == 0 {
            let mut out = log;
            out.reserve(flying);
            out
        } else {
            let mut out = Vec::with_capacity(reported + log.len() + flying);
            let (tenants, kernels) = self.names_by_id();
            out.extend(
                self.history
                    .iter()
                    .map(|p| p.completion(&tenants, &kernels)),
            );
            out.extend(log);
            out
        };
        self.history.extend(
            out[reported..]
                .iter()
                .zip(self.log_tags.drain(..))
                .map(|(c, tag)| Past::new(c, tag)),
        );
        // Clones of the in-flight batches, merged like retiring ones.
        let mut flights: Vec<&Flight> = self
            .slices
            .iter()
            .map(|s| &s.flight)
            .filter(|f| !f.riders.is_empty())
            .collect();
        flights.sort_unstable_by_key(|f| (f.done_ps, f.batch_id));
        let mut runs: Vec<_> = flights
            .iter()
            .map(|f| f.riders.clone().into_iter())
            .collect();
        merge_canonical(&mut runs, |(c, _)| c, |_, (c, _)| out.push(c));
        out
    }

    /// Completions still in flight.
    fn in_flight(&self) -> usize {
        self.slices.iter().map(|s| s.flight.riders.len()).sum()
    }

    /// Completions and sheds so far: what a cluster counts for its
    /// `cluster.requests.*` tallies when no hook sees the outcomes.
    pub(crate) fn outcome_counts(&self) -> (usize, usize) {
        (
            self.history.len() + self.log.len() + self.in_flight(),
            self.sheds.len(),
        )
    }

    /// Every shed so far, in shed order.
    pub(crate) fn sheds(&self) -> &[Shed] {
        &self.sheds
    }

    /// Closes a report's books after its functional phase: writes the
    /// tallies, the slice counters since the last report and the snapshot
    /// gauges to the registry, checks the probe laws, and exports what is
    /// new to the global probe. [`Server::report`] and every cluster shard
    /// run it. Returns all a shard adds to a cluster report, the schedule
    /// log built from its ids.
    pub(crate) fn close_books(&mut self) -> ShardReport {
        let dispatches = self.dispatch_records();
        let teardown_ps = self.teardown_ps();
        let probes = self.probes.sink();
        self.tally.flush(probes);
        for book in self.tenant_books.values_mut() {
            book.flush(probes);
        }
        for (i, s) in self.slices.iter_mut().enumerate() {
            // Slice counters are exported as deltas against the last
            // report, so repeated runs stay additive and the
            // busy <= span probe law holds for every export: a slice's
            // new busy intervals all lie within its own free_at advance.
            let busy_delta = s.busy_ps - s.reported_busy_ps;
            let span_delta = s.free_at - s.reported_span_ps;
            probes.add(&format!("serve.slice.{i}.busy_ps"), busy_delta);
            probes.add(&format!("serve.slice.{i}.span_ps"), span_delta);
            s.reported_busy_ps = s.busy_ps;
            s.reported_span_ps = s.free_at;
            if s.free_at > 0 {
                probes.gauge_max(
                    &format!("serve.slice.{i}.utilization"),
                    s.busy_ps as f64 / s.free_at as f64,
                );
            }
            probes.add(&format!("serve.slice.{i}.reconfigs"), s.reconfigs);
            s.reconfigs = 0;
        }
        probes.add("serve.teardown.reclaim_ps", teardown_ps);
        // Way-utilization gauges: the partition the scheduler hands out.
        let partition = self.cfg.partition;
        for (name, ways) in [
            ("serve.ways.compute", partition.compute_ways()),
            ("serve.ways.scratchpad", partition.scratchpad_ways()),
            ("serve.ways.cache", partition.cache_ways()),
            ("serve.slices", self.cfg.slices),
        ] {
            self.probes.set_gauge(name, ways as f64);
        }
        let probes = self.probes.export();
        freac_probe::assert_ok(probes);
        ShardReport {
            dispatches,
            probes: probes.clone(),
        }
    }

    /// Tenant and kernel names, by id.
    fn names_by_id(&self) -> (Vec<&str>, Vec<&str>) {
        fn by_id<V>(map: &BTreeMap<String, V>, id: impl Fn(&V) -> u32) -> Vec<&str> {
            let mut names = vec![""; map.len()];
            for (name, v) in map {
                names[id(v) as usize] = name;
            }
            names
        }
        (
            by_id(&self.tenant_books, |b| b.id),
            by_id(&self.kernels, |k| k.id),
        )
    }

    /// The schedule log as [`DispatchRecord`]s, in dispatch order.
    fn dispatch_records(&self) -> Vec<DispatchRecord> {
        let (tenants, kernels) = self.names_by_id();
        let mut riders = self.dispatch_riders.iter();
        self.dispatched
            .iter()
            .zip(0..)
            .map(|(d, batch_id)| DispatchRecord {
                batch_id,
                at_ps: d.at_ps,
                slice: d.slice,
                kernel: kernels[d.kernel as usize].to_owned(),
                lanes: d.lanes,
                reconfigured: d.reconfigured,
                requests: riders
                    .by_ref()
                    .take(d.lanes)
                    .map(|&(tenant, seq, retries)| {
                        (tenants[tenant as usize].to_owned(), seq, retries)
                    })
                    .collect(),
            })
            .collect()
    }
}

/// One pass of the functional phase: up to [`MAX_BATCH_LANES`]
/// completions of one kernel, run on its batch plan from power-on state
/// over the kernel's functional depth in one multi-cycle plan call
/// ([`PassScratch::run`]). A pass owns what it reads and its hashes
/// are a pure function of its seeds, so the passes of any number of
/// servers can run on any threads in any order.
pub(crate) struct FuncPass {
    accel: Arc<Accelerator>,
    plan: Arc<ExecPlan>,
    cycles: u64,
    /// Where each lane's completion is, and its seed, in lane order.
    lanes: Vec<(At, u64)>,
}

/// What a pass refills: one input and one output vector per lane, and the
/// batch-plan states passes ran on, one per plan and width, reset to
/// power-on values for the next pass — so steady-state hashing allocates
/// nothing per lane or per state, only each pass's hash vector.
#[derive(Default)]
pub(crate) struct PassScratch<'p> {
    inputs: Vec<Vec<Value>>,
    /// Exactly one vector per lane of the current pass: the plans resize
    /// `out` to the lane count, which would drop any surplus.
    out: Vec<Vec<Value>>,
    /// Output vectors parked while a narrower pass runs.
    spare: Vec<Vec<Value>>,
    /// Batch-plan states, by plan and lane capacity.
    batch_states: Vec<(&'p ExecPlan, AnyBatchState)>,
}

/// The lane capacity of the state a pass of `n` lanes runs on: the
/// narrowest width [`ExecPlan::new_batch_state_for`] builds that fits, with
/// the one-lane scalar width folded into the two-lane one.
fn state_width(n: usize) -> usize {
    if n <= SCALAR_BATCH_LANES {
        SCALAR_BATCH_LANES
    } else {
        BATCH_WIDTHS
            .into_iter()
            .find(|&w| w >= n)
            .unwrap_or(MAX_BATCH_LANES)
    }
}

impl<'p> PassScratch<'p> {
    /// Runs `plan` over the first `n` input lanes for `cycles` cycles from
    /// power-on values, into `out`, as one
    /// [`ExecPlan::run_batch_cycles_any`] call — inputs packed once, only
    /// the last cycle's outputs unpacked — on the state kept for `plan` at
    /// the lane capacity `n` needs, reset, or on a fresh one kept from now
    /// on.
    fn run(&mut self, plan: &'p ExecPlan, n: usize, cycles: u64) -> Result<(), ServeError> {
        let width = state_width(n);
        let kept = &mut self.batch_states;
        let i = match kept
            .iter()
            .position(|(p, s)| std::ptr::eq(*p, plan) && s.lane_capacity() == width)
        {
            Some(i) => {
                plan.reset_batch_state(&mut kept[i].1);
                i
            }
            None => {
                kept.push((plan, plan.new_batch_state_for(width)));
                kept.len() - 1
            }
        };
        plan.run_batch_cycles_any(&mut kept[i].1, &self.inputs[..n], cycles, &mut self.out)?;
        Ok(())
    }
}

impl FuncPass {
    /// The output hash of every lane, in lane order.
    fn hashes<'p>(&'p self, scratch: &mut PassScratch<'p>) -> Result<Vec<u64>, ServeError> {
        let n = self.lanes.len();
        if scratch.inputs.len() < n {
            scratch.inputs.resize_with(n, Vec::new);
        }
        let netlist = self.accel.netlist();
        for (v, &(_, seed)) in scratch.inputs.iter_mut().zip(&self.lanes) {
            synth_inputs_into(netlist, seed, v);
        }
        scratch
            .spare
            .extend(scratch.out.drain(n.min(scratch.out.len())..));
        while scratch.out.len() < n {
            scratch.out.push(scratch.spare.pop().unwrap_or_default());
        }
        scratch.run(&self.plan, n, self.cycles)?;
        Ok(scratch.out.iter().map(|o| hash_outputs(o)).collect())
    }
}

/// Runs functional passes on `workers` threads — on the calling thread
/// when `workers` is 1 — and returns each pass's hashes in pass order,
/// so the result is the same at any worker count.
pub(crate) fn run_func_passes<'p>(
    workers: usize,
    passes: Vec<&'p FuncPass>,
) -> Vec<Result<Vec<u64>, ServeError>> {
    // One scratch per concurrently running pass, reused by later ones.
    let pool = Mutex::new(Vec::<PassScratch<'p>>::new());
    map_with(workers, passes, |pass| {
        let mut scratch = pool
            .lock()
            .expect("no pass panics while holding the scratch pool")
            .pop()
            .unwrap_or_default();
        let hashes = pass.hashes(&mut scratch);
        pool.lock()
            .expect("no pass panics while holding the scratch pool")
            .push(scratch);
        hashes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::reference_hash;
    use freac_netlist::builder::CircuitBuilder;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn tiny_circuit(name: &str) -> Netlist {
        let mut b = CircuitBuilder::new(name);
        let a = b.word_input("a", 8);
        let x = b.word_input("x", 8);
        let s = b.add(&a, &x);
        b.word_output("s", &s);
        b.finish().unwrap()
    }

    fn profile() -> RequestProfile {
        RequestProfile {
            cycles_per_item: 2,
            read_words: 4,
            write_words: 2,
        }
    }

    impl Server {
        /// The registry as a report would export it now: everything
        /// exported so far plus the unflushed tallies, leaving the server
        /// untouched.
        fn probes_now(&self) -> CounterRegistry {
            let mut written = self.probes.clone();
            written.stop_exporting();
            let mut probes = written.total().clone();
            self.tally.clone().flush(&mut probes);
            for book in self.tenant_books.values() {
                let mut book = book.clone();
                book.flush(&mut probes);
            }
            probes
        }
    }

    fn server_with(cfg: ServeConfig) -> Server {
        let mut s = Server::new(cfg).unwrap();
        s.register_kernel("k", &tiny_circuit("k"), profile())
            .unwrap();
        s.add_tenant("a", 1).unwrap();
        s.add_tenant("b", 1).unwrap();
        s
    }

    #[test]
    fn single_request_pays_setup_plus_exec() {
        let mut s = server_with(ServeConfig::default());
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 1);
        let c = &r.completions[0];
        assert!(c.reconfig_ps > 0, "first claim reconfigures");
        assert!(c.exec_ps > 0);
        assert_eq!(
            c.latency_ps(),
            c.queue_wait_ps() + c.reconfig_ps + c.exec_ps
        );
        assert_eq!(r.span_ps, c.done_ps);
        assert!(r.teardown_ps > 0, "resident kernel pays way reclaim");
    }

    #[test]
    fn batching_coalesces_simultaneous_requests() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            ..ServeConfig::default()
        });
        for i in 0..8 {
            s.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 8);
        assert_eq!(r.dispatches.len(), 1, "one coalesced batch");
        assert_eq!(r.dispatches[0].lanes, 8);
        assert_eq!(r.probes.counter("serve.batches.coalesced"), 1);
    }

    #[test]
    fn wide_batches_coalesce_past_sixty_four_lanes_in_waves() {
        // 100 simultaneous requests with max_lanes raised past one word:
        // one dispatch, one 4-word bit-sliced pass, ceil(100 / tiles)
        // compute waves — not two 64-lane rounds.
        let mut s = server_with(ServeConfig {
            slices: 1,
            queue_depth: 512,
            max_lanes: 256,
            ..ServeConfig::default()
        });
        for i in 0..100 {
            s.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 100);
        assert_eq!(r.dispatches.len(), 1, "one wide coalesced batch");
        assert_eq!(r.dispatches[0].lanes, 100);
        assert_eq!(r.probes.counter("serve.lanes.occupied"), 100);
        assert_eq!(r.probes.counter("serve.lanes.capacity"), 256);
        assert_eq!(r.probes.gauge("serve.lanes.widest"), Some(100.0));
        let tiles =
            (ServeConfig::default().partition.mccs() / ServeConfig::default().tile_mccs).max(1);
        assert_eq!(
            r.probes.counter("serve.batch.waves"),
            (100u64).div_ceil(tiles as u64)
        );
        // Same functional results as the reference evaluator, tail lanes
        // and all.
        let net = s.kernel_netlist("k").unwrap();
        let cycles = s.kernel_func_cycles("k").unwrap();
        for c in &r.completions {
            assert_eq!(c.output_hash, reference_hash(net, c.seed, cycles).unwrap());
        }
    }

    #[test]
    fn max_lanes_clamps_to_the_widest_sweep() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            queue_depth: 1024,
            max_lanes: usize::MAX,
            ..ServeConfig::default()
        });
        for i in 0..600 {
            s.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 600);
        // MAX_BATCH_LANES = 512: a 600-deep queue takes two dispatches.
        assert_eq!(r.dispatches.len(), 2);
        assert_eq!(r.dispatches[0].lanes, MAX_BATCH_LANES);
        assert_eq!(r.dispatches[1].lanes, 600 - MAX_BATCH_LANES);
    }

    #[test]
    fn batching_off_serves_single_lane_and_is_slower() {
        let mut batched = server_with(ServeConfig {
            slices: 1,
            ..ServeConfig::default()
        });
        let mut single = server_with(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        });
        for i in 0..8 {
            batched.submit(Request::new("a", i, "k", 0, i)).unwrap();
            single.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let rb = batched.run_to_completion().unwrap();
        let rs = single.run_to_completion().unwrap();
        assert_eq!(rs.dispatches.len(), 8);
        assert!(rs.dispatches.iter().all(|d| d.lanes == 1));
        assert!(
            rb.span_ps < rs.span_ps,
            "batched {} !< single-lane {}",
            rb.span_ps,
            rs.span_ps
        );
        // Same functional results either way.
        let hb: Vec<u64> = rb.completions.iter().map(|c| c.output_hash).collect();
        let hs: Vec<u64> = rs.completions.iter().map(|c| c.output_hash).collect();
        assert_eq!(hb, hs);
    }

    #[test]
    fn output_hashes_match_the_reference_evaluator() {
        let mut s = server_with(ServeConfig::default());
        let mut ex = Request::new("b", 0, "k", 0, 99);
        ex.exclusive = true;
        s.submit(Request::new("a", 0, "k", 0, 7)).unwrap();
        s.submit(ex).unwrap();
        let r = s.run_to_completion().unwrap();
        let net = s.kernel_netlist("k").unwrap();
        let cycles = s.kernel_func_cycles("k").unwrap();
        for c in &r.completions {
            assert_eq!(
                c.output_hash,
                reference_hash(net, c.seed, cycles).unwrap(),
                "completion ({}, {}) diverged",
                c.tenant,
                c.seq
            );
        }
    }

    /// An 8-bit accumulator: each cycle latches `acc + a` and outputs it,
    /// so a hash over several cycles depends on starting at power-on state.
    fn accumulator(name: &str) -> Netlist {
        let mut b = CircuitBuilder::new(name);
        let a = b.word_input("a", 8);
        let (acc, handle) = b.word_reg(0, 8);
        let s = b.add(&acc, &a);
        b.connect_word_reg(handle, &s);
        b.word_output("s", &s);
        b.finish().unwrap()
    }

    /// Requests `first..first + n` of a burst starting at `at`: nine
    /// exclusives at `at`, so the first dispatch finds eight queued beside
    /// it, then one request per ps, every fifth batchable and the rest
    /// exclusive.
    fn burst(first: u64, n: u64, at: Time) -> Vec<Request> {
        (first..first + n)
            .map(|i| {
                let offset = if i - first < 9 { 0 } else { i - first };
                let tenant = ["a", "b"][i as usize % 2];
                let mut r = Request::new(tenant, i, "acc", at + offset, 1_000 + i);
                r.exclusive = i - first < 9 || i % 5 != 4;
                r
            })
            .collect()
    }

    /// A one-slice server over the accumulator (four functional cycles),
    /// fed `burst(0, n, 0)`.
    fn burst_server(cfg: ServeConfig, n: u64) -> Server {
        let mut s = Server::new(ServeConfig { slices: 1, ..cfg }).unwrap();
        let heavy = RequestProfile {
            cycles_per_item: 4,
            ..profile()
        };
        s.register_kernel("acc", &accumulator("acc"), heavy)
            .unwrap();
        s.add_tenant("a", 1).unwrap();
        s.add_tenant("b", 1).unwrap();
        for r in burst(0, n, 0) {
            s.submit(r).unwrap();
        }
        s
    }

    /// [`burst_server`] run to completion under `hook`.
    fn exclusive_burst<F>(cfg: ServeConfig, n: u64, hook: F) -> (Server, ServeReport)
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let mut s = burst_server(cfg, n);
        let r = s.run(hook).unwrap();
        (s, r)
    }

    fn assert_reference_hashes(s: &Server, r: &ServeReport) {
        assert_eq!(s.kernel_func_cycles("acc").unwrap(), 4);
        assert_reference_hashes_of(s, "acc", r);
    }

    /// Every completion of `r` carries the reference hash of `kernel`.
    fn assert_reference_hashes_of(s: &Server, kernel: &str, r: &ServeReport) {
        let net = s.kernel_netlist(kernel).unwrap();
        let cycles = s.kernel_func_cycles(kernel).unwrap();
        for c in &r.completions {
            assert_eq!(
                c.output_hash,
                reference_hash(net, c.seed, cycles).unwrap(),
                "completion ({}, {}) diverged",
                c.tenant,
                c.seq
            );
        }
    }

    #[test]
    fn exclusive_burst_matches_the_reference() {
        let (s, r) = exclusive_burst(
            ServeConfig {
                queue_depth: 256,
                ..ServeConfig::default()
            },
            100,
            |_| Vec::new(),
        );
        assert_eq!(r.completions.len(), 100);
        // With batching on, exactly the exclusives ride alone.
        let exclusives = r.probes.counter("serve.batches.single_lane");
        assert!(exclusives >= 64, "{exclusives} exclusives completed");
        assert_reference_hashes(&s, &r);
        // One batch-plan pass hashes exclusives and the rest alike.
        assert_eq!(r.probes.counter("serve.func.passes"), 1);
        assert_eq!(r.probes.counter("serve.func.lanes"), 100);
    }

    /// An 8-bit counter: each cycle latches `cnt + x`, and its bit output
    /// reads the register's msb through plumbing alone, so it shows the
    /// state from before the cycle's latch.
    fn msb_counter(name: &str) -> Netlist {
        let mut b = CircuitBuilder::new(name);
        let x = b.word_input("x", 8);
        let (cnt, h) = b.word_reg(0, 8);
        let next = b.add(&cnt, &x);
        b.connect_word_reg(h, &next);
        b.bit_output("msb", cnt.bit(7));
        b.word_output("cnt", &cnt);
        b.finish().unwrap()
    }

    #[test]
    fn state_fed_bit_output_hashes_alike_however_served() {
        // Exclusive requests, batched requests, and a one-lane cap: every
        // completion carries the reference hash, whatever rode with it.
        let heavy = RequestProfile {
            cycles_per_item: 4,
            ..profile()
        };
        for (max_lanes, exclusive) in [(BATCH_LANES, true), (BATCH_LANES, false), (1, false)] {
            let mut s = Server::new(ServeConfig {
                slices: 1,
                max_lanes,
                ..ServeConfig::default()
            })
            .unwrap();
            s.register_kernel("done", &msb_counter("done"), heavy)
                .unwrap();
            s.add_tenant("a", 1).unwrap();
            for i in 0..40 {
                let mut r = Request::new("a", i, "done", 0, 2_000 + i);
                r.exclusive = exclusive;
                s.submit(r).unwrap();
            }
            let r = s.run_to_completion().unwrap();
            let at = format!("max_lanes {max_lanes}, exclusive {exclusive}");
            assert_eq!(r.completions.len(), 40, "{at}");
            let alone = r.probes.counter("serve.batches.single_lane");
            assert_eq!(alone == 40, exclusive || max_lanes == 1, "{at}");
            assert_eq!(s.kernel_func_cycles("done").unwrap(), 4);
            assert_reference_hashes_of(&s, "done", &r);
        }
    }

    #[test]
    fn displaced_then_retried_exclusives_match_the_reference() {
        // An eight-deep DropOldest queue: arrivals admitted at later
        // dispatches displace exclusives queued at 0 ps, and the hook
        // retries every displaced request once.
        let (s, r) = exclusive_burst(
            ServeConfig {
                queue_depth: 8,
                shed: ShedPolicy::DropOldest,
                ..ServeConfig::default()
            },
            80,
            |o| match o {
                Outcome::Shed(d) if d.request.retries == 0 => {
                    let mut retry = d.request.clone();
                    retry.retries = 1;
                    vec![retry]
                }
                _ => Vec::new(),
            },
        );
        assert!(
            r.sheds.iter().any(|d| d.reason == ShedReason::Displaced
                && d.request.arrival_ps == 0
                && d.at_ps > 0),
            "exclusives queued at 0 ps were displaced later"
        );
        let retried = r.probes.counter("serve.requests.retried");
        assert!(retried > 0, "displaced requests were retried");
        assert_eq!(
            r.completions.len() + r.sheds.len(),
            80 + retried as usize,
            "every submission and retry terminates once"
        );
        assert_reference_hashes(&s, &r);
    }

    #[test]
    fn interleaved_reports_hash_each_completion_once() {
        // Four bursts 10 µs apart, each drained by two bounded runs and
        // then reported, against one run over all four.
        const GAP: Time = 10_000_000;
        let cfg = ServeConfig {
            queue_depth: 256,
            ..ServeConfig::default()
        };
        let waves: Vec<Vec<Request>> = (0..4).map(|w| burst(25 * w, 25, w * GAP)).collect();
        let mut once = burst_server(cfg, 0);
        for r in waves.iter().flatten() {
            once.submit(r.clone()).unwrap();
        }
        let want = once.run_to_completion().unwrap();
        assert_eq!(want.completions.len(), 100);

        let mut s = burst_server(cfg, 0);
        let mut hook = |o: &Outcome| {
            if let Outcome::Completed(c) = o {
                assert_eq!(c.output_hash, 0, "a hook sees no output hash");
            }
            Vec::new()
        };
        for (w, wave) in (0..).zip(waves) {
            for r in wave {
                s.submit(r).unwrap();
            }
            s.run_until(w * GAP + GAP / 2, &mut hook).unwrap();
            s.run_until((w + 1) * GAP - 1, &mut hook).unwrap();
            assert_eq!(s.backlog(), 0, "wave {w} drains within its gap");
            let r = s.report().unwrap();
            assert_eq!(r.completions[..], want.completions[..r.completions.len()]);
            assert_eq!(
                r.probes.counter("serve.func.lanes"),
                r.completions.len() as u64,
                "each completion is hashed exactly once"
            );
        }
        let last = s.report().unwrap();
        assert_eq!(last.completions, want.completions);
        assert_eq!(last.dispatches, want.dispatches);
        assert_eq!(last.probes.counter("serve.func.lanes"), 100);
        // One pass per wave, against one in all for the single run.
        assert_eq!(last.probes.counter("serve.func.passes"), 4);
        assert_eq!(want.probes.counter("serve.func.passes"), 1);
        assert_reference_hashes(&s, &last);
    }

    #[test]
    fn merge_canonical_puts_the_earlier_run_first_among_equal_keys() {
        // `slice` names each completion's run; `(5, a, 1)` sits in runs
        // 0 and 1, so run 0's copy must come out first.
        let c = |done_ps, tenant: &str, seq, slice| Completion {
            tenant: tenant.into(),
            seq,
            kernel: "k".into(),
            arrival_ps: 0,
            start_ps: 0,
            done_ps,
            reconfig_ps: 0,
            exec_ps: 0,
            batch_id: 0,
            lanes: 1,
            slice,
            output_hash: 0,
            seed: 0,
            deadline_met: None,
        };
        let mut runs = [
            vec![c(5, "a", 1, 0), c(7, "b", 0, 0)].into_iter(),
            vec![c(5, "a", 1, 1), c(6, "a", 2, 1)].into_iter(),
            vec![c(5, "a", 0, 2)].into_iter(),
        ];
        let mut merged = Vec::new();
        merge_canonical(
            &mut runs,
            |c| c,
            |run, c| {
                assert_eq!(run, c.slice, "an item comes out with its run's index");
                merged.push((c.done_ps, c.tenant, c.seq, c.slice));
            },
        );
        let key = |d, t: &str, s, r| (d, t.to_owned(), s, r);
        assert_eq!(
            merged,
            [
                key(5, "a", 0, 2),
                key(5, "a", 1, 0),
                key(5, "a", 1, 1),
                key(6, "a", 2, 1),
                key(7, "b", 0, 0),
            ]
        );
    }

    #[test]
    fn batches_finishing_together_merge_by_tenant_and_seq() {
        // Two one-lane slices under FIFO: `c` claims both at 0 ps, then
        // `b:0` and `a:0` start together on the freed slices (b first, the
        // older arrival) and finish together, and so do `b:1` and `a:1`.
        // The first pair retires to the log at the instant both finish
        // (a dispatch at exactly their `done_ps`), the second is still in
        // flight at the report; both must come out in `(tenant, seq)`
        // order, not in dispatch order.
        let mut s = server_with(ServeConfig {
            slices: 2,
            max_lanes: 1,
            policy: SchedPolicy::Fifo,
            ..ServeConfig::default()
        });
        s.add_tenant("c", 1).unwrap();
        for (tenant, seq, at) in [
            ("c", 0, 0),
            ("c", 1, 0),
            ("b", 0, 1),
            ("a", 0, 2),
            ("b", 1, 3),
            ("a", 1, 4),
        ] {
            s.submit(Request::new(tenant, seq, "k", at, seq)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        let anchors: Vec<(&str, u64, usize)> = r
            .dispatches
            .iter()
            .map(|d| (d.requests[0].0.as_str(), d.requests[0].1, d.slice))
            .collect();
        assert_eq!(
            anchors,
            [
                ("c", 0, 0),
                ("c", 1, 1),
                ("b", 0, 0),
                ("a", 0, 1),
                ("b", 1, 0),
                ("a", 1, 1)
            ]
        );
        let order: Vec<(&str, u64)> = r
            .completions
            .iter()
            .map(|c| (c.tenant.as_str(), c.seq))
            .collect();
        assert_eq!(
            order,
            [("c", 0), ("c", 1), ("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        );
        let done: Vec<Time> = r.completions.iter().map(|c| c.done_ps).collect();
        assert!(done[0] == done[1] && done[1] < done[2]);
        assert!(done[2] == done[3] && done[3] < done[4]);
        assert_eq!(done[4], done[5]);
        // The middle pair retired at a dispatch at exactly its `done_ps`.
        assert_eq!(r.dispatches[4].at_ps, done[2]);
        assert_reference_hashes_of(&s, "k", &r);
    }

    #[test]
    fn exclusive_requests_ride_alone() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            ..ServeConfig::default()
        });
        let mut ex = Request::new("a", 0, "k", 0, 1);
        ex.exclusive = true;
        s.submit(ex).unwrap();
        s.submit(Request::new("a", 1, "k", 0, 2)).unwrap();
        s.submit(Request::new("a", 2, "k", 0, 3)).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.dispatches.len(), 2);
        assert_eq!(r.probes.counter("serve.batches.single_lane"), 1);
        assert_eq!(r.probes.counter("serve.batches.coalesced"), 1);
    }

    #[test]
    fn full_queue_sheds_per_policy() {
        let mut reject = server_with(ServeConfig {
            queue_depth: 2,
            slices: 1,
            ..ServeConfig::default()
        });
        for i in 0..4 {
            reject.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = reject.run_to_completion().unwrap();
        assert_eq!(r.sheds.len(), 2);
        assert!(r.sheds.iter().all(|s| s.reason == ShedReason::QueueFull));
        // Newest arrivals bounced; the two oldest completed.
        let done: Vec<u64> = r.completions.iter().map(|c| c.seq).collect();
        assert_eq!(done, vec![0, 1]);

        let mut drop_oldest = server_with(ServeConfig {
            queue_depth: 2,
            slices: 1,
            shed: ShedPolicy::DropOldest,
            ..ServeConfig::default()
        });
        for i in 0..4 {
            drop_oldest.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = drop_oldest.run_to_completion().unwrap();
        assert_eq!(r.sheds.len(), 2);
        assert!(r.sheds.iter().all(|s| s.reason == ShedReason::Displaced));
        let done: Vec<u64> = r.completions.iter().map(|c| c.seq).collect();
        assert_eq!(done, vec![2, 3]);
        assert_eq!(r.probes.counter("serve.requests.shed"), 2);
        assert_eq!(r.probes.counter("serve.requests.completed"), 2);
        assert_eq!(r.probes.counter("serve.requests.submitted"), 4);
    }

    #[test]
    fn resident_kernel_skips_reconfiguration() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        });
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        s.submit(Request::new("a", 1, "k", 0, 2)).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.dispatches.len(), 2);
        assert!(r.dispatches[0].reconfigured);
        assert!(!r.dispatches[1].reconfigured);
        assert_eq!(r.completions[1].reconfig_ps, 0);
        assert_eq!(r.probes.counter("serve.reconfigs"), 1);
    }

    #[test]
    fn schedule_is_independent_of_submission_order() {
        let reqs: Vec<Request> = (0..12)
            .map(|i| Request::new(if i % 2 == 0 { "a" } else { "b" }, i / 2, "k", 1_000 * i, i))
            .collect();
        let run = |order: Vec<Request>| {
            let mut s = server_with(ServeConfig::default());
            for r in order {
                s.submit(r).unwrap();
            }
            s.run_to_completion().unwrap()
        };
        let fwd = run(reqs.clone());
        let mut rev = reqs;
        rev.reverse();
        let bwd = run(rev);
        assert_eq!(fwd.dispatches, bwd.dispatches);
        assert_eq!(fwd.completions, bwd.completions);
        assert_eq!(
            freac_probe::to_counters_json(&fwd.probes),
            freac_probe::to_counters_json(&bwd.probes)
        );
    }

    #[test]
    fn closed_loop_hook_keeps_the_pipeline_fed() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        });
        s.submit(Request::new("a", 0, "k", 0, 0)).unwrap();
        let mut issued = 1u64;
        let r = s
            .run(|o| {
                if let Outcome::Completed(c) = o {
                    if issued < 5 {
                        let req = Request::new("a", issued, "k", c.done_ps + 100, issued);
                        issued += 1;
                        return vec![req];
                    }
                }
                Vec::new()
            })
            .unwrap();
        assert_eq!(r.completions.len(), 5);
        // Each follow-up arrives after its predecessor completes.
        for w in r.completions.windows(2) {
            assert!(w[1].arrival_ps > w[0].done_ps);
        }
    }

    #[test]
    fn weighted_fair_respects_weights_under_contention() {
        let mut s = Server::new(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        s.register_kernel("k", &tiny_circuit("k"), profile())
            .unwrap();
        s.add_tenant("heavy", 4).unwrap();
        s.add_tenant("light", 1).unwrap();
        for i in 0..10 {
            s.submit(Request::new("heavy", i, "k", 0, i)).unwrap();
            s.submit(Request::new("light", i, "k", 0, i + 100)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        // In the first half of the schedule the heavy tenant gets more
        // service than the light one.
        let first_half = &r.completions[..10];
        let heavy = first_half.iter().filter(|c| c.tenant == "heavy").count();
        let light = first_half.iter().filter(|c| c.tenant == "light").count();
        assert!(heavy > light, "heavy {heavy} !> light {light}");
        // But nobody starves.
        assert!(light >= 1);
    }

    /// The `(tenant, seq, retries)` a rejected submission names, or a
    /// panic naming what came back instead.
    fn duplicate_of(r: Result<(), ServeError>) -> (String, u64, u32) {
        match r {
            Err(ServeError::DuplicateRequest {
                tenant,
                seq,
                retries,
            }) => (tenant, seq, retries),
            other => panic!("expected DuplicateRequest, got {other:?}"),
        }
    }

    fn retry_of(mut r: Request, retries: u32) -> Request {
        r.retries = retries;
        r
    }

    #[test]
    fn duplicate_and_unknown_submissions_are_rejected() {
        let mut s = server_with(ServeConfig::default());
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        // The same seq on another tenant, or with a higher retry count, is
        // a different identity.
        s.submit(Request::new("b", 0, "k", 0, 1)).unwrap();
        s.submit(retry_of(Request::new("a", 0, "k", 5, 1), 1))
            .unwrap();
        assert_eq!(
            duplicate_of(s.submit(Request::new("a", 0, "k", 5, 2))),
            ("a".to_owned(), 0, 0)
        );
        assert_eq!(
            duplicate_of(s.submit(retry_of(Request::new("a", 0, "k", 9, 2), 1))),
            ("a".to_owned(), 0, 1)
        );
        assert_eq!(
            duplicate_of(s.submit(Request::new("b", 0, "k", 9, 2))),
            ("b".to_owned(), 0, 0)
        );
        assert!(matches!(
            s.submit(Request::new("nobody", 0, "k", 0, 1)),
            Err(ServeError::UnknownTenant(_))
        ));
        assert!(matches!(
            s.submit(Request::new("a", 1, "mystery", 0, 1)),
            Err(ServeError::UnknownKernel(_))
        ));
    }

    #[test]
    fn steal_releases_only_the_stolen_identity() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        });
        for (tenant, seq) in [("a", 0), ("a", 1), ("b", 1)] {
            s.submit(Request::new(tenant, seq, "k", 0, seq)).unwrap();
        }
        // a:0 occupies the slice; a:1 and b:1 wait, b:1 newest.
        s.run_until(0, &mut |_| Vec::new()).unwrap();
        let stolen = s.steal_newest(1).pop().unwrap();
        assert_eq!((stolen.tenant.as_str(), stolen.seq), ("b", 1));
        s.submit(stolen.clone()).unwrap();
        assert_eq!(
            duplicate_of(s.submit(stolen)),
            ("b".to_owned(), 1, 0),
            "a resubmitted steal is registered again"
        );
        assert_eq!(
            duplicate_of(s.submit(Request::new("a", 1, "k", 0, 1))),
            ("a".to_owned(), 1, 0),
            "never-stolen identities stay registered"
        );
    }

    #[test]
    fn steal_picks_the_deepest_queue_and_the_smallest_name_on_ties() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        });
        s.register_kernel("j", &tiny_circuit("j"), profile())
            .unwrap();
        s.register_kernel("m", &tiny_circuit("m"), profile())
            .unwrap();
        // Seq 0 occupies the slice; `j` queues two requests, `k` three
        // and `m` two.
        let plan = [
            ("k", 0),
            ("j", 1),
            ("j", 2),
            ("k", 3),
            ("k", 4),
            ("k", 5),
            ("m", 6),
            ("m", 7),
        ];
        for (kernel, seq) in plan {
            s.submit(Request::new("a", seq, kernel, 0, seq)).unwrap();
        }
        s.run_until(0, &mut |_| Vec::new()).unwrap();
        let order: Vec<(String, u64)> = s
            .steal_newest(4)
            .into_iter()
            .map(|r| (r.kernel, r.seq))
            .collect();
        // `k` is deepest (3), then all three tie at 2 and `j` wins, then
        // `k` and `m` tie at 2 and `k` wins, then `m` is deepest.
        let want = [("k", 5), ("j", 2), ("k", 4), ("m", 7)];
        assert_eq!(
            order,
            want.map(|(k, q)| (k.to_owned(), q)).to_vec(),
            "steal order"
        );
    }

    #[test]
    fn repeated_runs_keep_counter_laws() {
        let mut s = server_with(ServeConfig::default());
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        let r1 = s.run_to_completion().unwrap();
        freac_probe::assert_ok(&r1.probes);
        s.submit(Request::new("a", 1, "k", r1.span_ps + 1, 2))
            .unwrap();
        let r2 = s.run_to_completion().unwrap();
        // Slice busy/span deltas stay additive, so laws hold after both runs.
        freac_probe::assert_ok(&r2.probes);
        assert_eq!(r2.completions.len(), 2);
    }

    #[test]
    fn deadline_outcomes_are_reported() {
        let mut s = server_with(ServeConfig {
            policy: SchedPolicy::DeadlineAware,
            ..ServeConfig::default()
        });
        let mut tight = Request::new("a", 0, "k", 0, 1);
        tight.deadline_ps = Some(1);
        let mut loose = Request::new("b", 0, "k", 0, 2);
        loose.deadline_ps = Some(Time::MAX);
        s.submit(tight).unwrap();
        s.submit(loose).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.probes.counter("serve.deadlines.missed"), 1);
        assert_eq!(r.probes.counter("serve.deadlines.met"), 1);
    }

    #[test]
    fn coherent_handoff_cheapens_rescale_and_quotes_protocol_traffic() {
        let run = |handoff: HandoffMode| {
            let mut s = server_with(ServeConfig {
                handoff,
                ..ServeConfig::default()
            });
            let conversion = s.rescale(SlicePartition::max_compute(), 0).unwrap();
            s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
            (
                conversion,
                s.run_to_completion().unwrap(),
                s.coherence_stats(),
            )
        };
        let (flat_ps, flat, flat_coh) = run(HandoffMode::ConservativeFlush);
        let (coh_ps, coh, coh_stats) = run(HandoffMode::coherent());
        assert!(flat_ps > 0 && coh_ps > 0);
        assert!(
            coh_ps < flat_ps,
            "targeted invalidations beat the blind flush: {coh_ps} vs {flat_ps}"
        );
        // Conservative mode exports no protocol counters; coherent mode
        // itemizes the claim.
        assert_eq!(flat_coh, CoherenceStats::default());
        assert_eq!(flat.probes.counter("cache.coh.claims"), 0);
        assert_eq!(coh.probes.counter("cache.coh.claims"), 1);
        assert!(coh.probes.counter("cache.coh.invalidations") > 0);
        assert_eq!(
            coh.probes.counter("cache.coh.stall_ps"),
            coh_ps,
            "the rescale quote is exactly the exported protocol stall"
        );
        assert_eq!(coh_stats.claims, 1);
        freac_probe::assert_ok(&coh.probes);
        // Both modes produce the same functional results.
        assert_eq!(
            flat.completions[0].output_hash,
            coh.completions[0].output_hash
        );
    }

    #[test]
    fn cross_tenant_scratchpad_access_faults_deterministically() {
        let run = || {
            let mut s = server_with(ServeConfig::default());
            let mine = s.tenant_segment("a").unwrap();
            let theirs = s.tenant_segment("b").unwrap();
            assert!(mine.len > 0 && theirs.base >= mine.len);
            // "a" touching its own segment completes; "a" touching "b"'s
            // segment faults at admission and never reaches a slice.
            s.submit(Request::new("a", 0, "k", 0, 1).with_spad_addr(mine.base))
                .unwrap();
            s.submit(Request::new("a", 1, "k", 0, 2).with_spad_addr(theirs.base))
                .unwrap();
            s.run_to_completion().unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.completions.len(), 1);
        assert_eq!(r1.completions[0].seq, 0);
        assert_eq!(r1.sheds.len(), 1);
        assert_eq!(r1.sheds[0].reason, ShedReason::TlbFault);
        assert_eq!(r1.sheds[0].request.seq, 1);
        assert_eq!(r1.probes.counter("serve.tlb.accesses"), 2);
        assert_eq!(r1.probes.counter("serve.tlb.hits"), 1);
        assert_eq!(r1.probes.counter("serve.tlb.misses"), 1);
        assert_eq!(r1.probes.counter("serve.tlb.faults"), 1);
        assert_eq!(r1.probes.counter("serve.tenant.a.tlb_faults"), 1);
        freac_probe::assert_ok(&r1.probes);
        // The fault is a pure function of the request set: same sheds,
        // same completions, run after run.
        assert_eq!(r1.sheds, r2.sheds);
        assert_eq!(r1.completions, r2.completions);
    }

    #[test]
    fn rescale_rebuilds_tenant_segments() {
        let mut s = server_with(ServeConfig::default());
        let before = s.tenant_segment("b").unwrap();
        // max_compute shrinks the scratchpad from 10 ways to 4, so every
        // tenant's share shrinks with it.
        s.rescale(SlicePartition::max_compute(), 0).unwrap();
        let after = s.tenant_segment("b").unwrap();
        assert!(after.len < before.len);
        assert_eq!(
            after.len,
            SlicePartition::max_compute().scratchpad_bytes() / 2
        );
    }

    #[test]
    fn stolen_older_arrival_anchors_through_the_full_scan() {
        // A steal appends an arrival older than everything queued on the
        // thief, so the thief's queue is no longer in key order. The
        // anchor must still be the true oldest (Fifo) and the least-served
        // tenant's true oldest (WeightedFair), not the queue head or the
        // tenant's first request in queue order.
        for policy in [SchedPolicy::Fifo, SchedPolicy::WeightedFair] {
            let cfg = ServeConfig {
                slices: 1,
                max_lanes: 1,
                policy,
                ..ServeConfig::default()
            };
            let mut victim = server_with(cfg);
            victim.submit(Request::new("b", 0, "k", 0, 1)).unwrap();
            victim.submit(Request::new("b", 5, "k", 5, 2)).unwrap();
            // b:0 occupies the slice; b:5 waits in the queue.
            victim.run_until(5, &mut |_| Vec::new()).unwrap();
            let stolen = victim.steal_newest(1).pop().unwrap();
            assert_eq!((stolen.seq, stolen.arrival_ps), (5, 5));

            let mut thief = server_with(cfg);
            thief.submit(Request::new("a", 0, "k", 0, 3)).unwrap();
            for (tenant, seq) in [("a", 1), ("a", 2), ("b", 1)] {
                thief
                    .submit(Request::new(tenant, seq, "k", 10, seq))
                    .unwrap();
            }
            // a:0 occupies the slice; a:1, a:2, b:1 queue behind it.
            thief.run_until(10, &mut |_| Vec::new()).unwrap();
            assert_eq!(thief.queued(), 3);
            thief.submit_stolen(stolen).unwrap();
            let r = thief.run_to_completion().unwrap();
            let anchors: Vec<(&str, u64)> = r
                .dispatches
                .iter()
                .map(|d| (d.requests[0].0.as_str(), d.requests[0].1))
                .collect();
            assert_eq!(anchors[0], ("a", 0), "{policy:?}");
            assert_eq!(anchors[1], ("b", 5), "{policy:?}: the stolen arrival");
            if policy == SchedPolicy::Fifo {
                assert_eq!(anchors[2..], [("a", 1), ("a", 2), ("b", 1)]);
            }
            assert_eq!(r.probes.counter("serve.tenant.b.stolen_in"), 1);
            freac_probe::assert_ok(&r.probes);
        }
    }

    #[test]
    fn backlog_and_next_event_track_a_pending_heap_model() {
        // The pending set against one min-heap of every submission not
        // yet admitted: an in-order trace, closed-loop follow-ups pushed
        // from the hook mid-run, and stolen requests older than the
        // server's clock. Each request a run takes off the pending set is
        // admitted or shed (RejectNew, no TLB): the model pops that many of
        // its least keys, all due by the server's clock.
        type Key = (Time, String, u64, u32);
        let key = |r: &Request| (r.arrival_ps, r.tenant.clone(), r.seq, r.retries);
        let mut s = server_with(ServeConfig {
            slices: 1,
            queue_depth: 6,
            max_lanes: 2,
            ..ServeConfig::default()
        });
        let mut model: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        for i in 0..80u64 {
            let r = Request::new(["a", "b"][i as usize % 2], i, "k", i * 3_000, i);
            model.push(Reverse(key(&r)));
            s.submit(r).unwrap();
        }
        let check = |s: &Server, model: &BinaryHeap<Reverse<Key>>| {
            assert_eq!(s.backlog(), s.queued() + model.len());
            let arrival = model.peek().map(|Reverse(k)| k.0);
            if s.queued() == 0 {
                assert_eq!(s.next_event_ps(), arrival);
            } else if let Some(a) = arrival {
                assert!(s.next_event_ps().is_some_and(|t| t <= a));
            }
        };
        let mut follow_seq = 1_000u64;
        let mut steps = 0u64;
        while s.next_event_ps().is_some() {
            steps += 1;
            if steps.is_multiple_of(4) {
                let r = Request::new("b", 2_000 + steps, "k", s.now().saturating_sub(4_000), 0);
                model.push(Reverse(key(&r)));
                s.submit_stolen(r).unwrap();
                check(&s, &model);
            }
            let taken = |s: &Server| {
                let probes = s.probes_now();
                probes.counter("serve.requests.admitted") + probes.counter("serve.requests.shed")
            };
            let before = taken(&s);
            let mut followups: Vec<Key> = Vec::new();
            s.run_until(steps * 7_000, &mut |o: &Outcome| match o {
                Outcome::Completed(c) if c.seq % 3 == 0 && follow_seq < 1_040 => {
                    let r = Request::new("a", follow_seq, "k", c.done_ps + 700, 0);
                    follow_seq += 1;
                    followups.push(key(&r));
                    vec![r]
                }
                _ => Vec::new(),
            })
            .unwrap();
            model.extend(followups.into_iter().map(Reverse));
            for _ in before..taken(&s) {
                let Reverse(k) = model.pop().expect("the model holds every submission");
                assert!(k.0 <= s.now(), "{k:?} admitted before it arrived");
            }
            check(&s, &model);
        }
        assert!(model.is_empty());
        assert!(follow_seq > 1_000, "the hook pushed follow-ups");
        let r = s.report().unwrap();
        let submitted = r.probes.counter("serve.requests.submitted") as usize;
        assert_eq!(r.completions.len() + r.sheds.len(), submitted);
    }

    #[test]
    fn bad_coherent_residency_is_rejected() {
        let cfg = ServeConfig {
            handoff: HandoffMode::Coherent { residency: 1.5 },
            ..ServeConfig::default()
        };
        assert!(matches!(Server::new(cfg), Err(ServeError::BadConfig(_))));
    }

    #[test]
    fn slice_count_outside_the_cap_is_rejected() {
        for slices in [0, MAX_SLICES + 1] {
            let cfg = ServeConfig {
                slices,
                ..ServeConfig::default()
            };
            assert!(
                matches!(Server::new(cfg), Err(ServeError::BadConfig(_))),
                "slices {slices}"
            );
        }
        for slices in [1, MAX_SLICES] {
            let cfg = ServeConfig {
                slices,
                ..ServeConfig::default()
            };
            assert!(Server::new(cfg).is_ok(), "slices {slices}");
        }
    }
}
