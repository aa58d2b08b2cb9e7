//! Cluster-scale serving: N shards, each a full deterministic serving
//! engine, under one simulated clock.
//!
//! The cluster advances time in fixed epochs. Each epoch it (1) lets the
//! autoscaler convert ways on shards with sustained backlog, (2) routes
//! pending arrivals to shards — kernel-affinity by default, so a kernel's
//! traffic lands where its bitstream is already resident — applying the
//! global admission budget, (3) rebalances admitted work by stealing from
//! the deepest queue to the shallowest when the imbalance crosses a
//! threshold, and (4) pumps every shard's event loop to the epoch
//! boundary via [`Server::run_until`].
//!
//! # Determinism
//!
//! Shards are pumped in index order, but their terminal events are merged
//! and re-sorted by `(time, tenant, seq, kind)` before the run hook sees
//! them, and all routing state (rendezvous rankings, the round-robin
//! cursor, the pending set) iterates canonically — so traces, completion
//! hashes, and merged counters are a pure function of the submitted
//! request set and the configuration, never of registration or submission
//! order. A 1-shard cluster replays exactly the schedule the plain
//! [`Server`] produces: routing at inclusive epoch boundaries plus the
//! prefix-stability of `run_until` deliver every arrival to the shard
//! before its clock reaches it.
//!
//! With [`ClusterConfig::workers`] > 1 the per-epoch shard pumping fans
//! out over a pool of scoped threads. Shards share no state inside an
//! epoch, each shard's events are gathered separately and flattened in
//! shard-index order before the same stable merge sort, and every
//! cross-shard decision (routing, stealing, autoscaling, the hook) stays
//! on the calling thread — so parallel stepping is byte-identical to
//! sequential, which the cluster proptest oracle asserts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc};

use freac_core::{Accelerator, AcceleratorTile};
use freac_kernels::{kernel, Kernel, KernelId};
use freac_netlist::{compile, ExecPlan, Netlist};
use freac_probe::CounterRegistry;
use freac_sim::Time;

use crate::error::ServeError;
use crate::pending::PendingSet;
use crate::request::{Completion, Outcome, Request, Shed, ShedReason};
use crate::server::{
    clone_sorted_by, completion_key, RequestProfile, ServeConfig, ServeReport, Server,
    TenantSummary,
};

mod autoscale;
mod router;

pub use autoscale::AutoscaleConfig;
pub use router::RoutePolicy;

use autoscale::{step_partition, AutoscaleState, ScaleDecision};
// Re-exported crate-internally: the sampling signature pass drives the
// real router over its fluid queue model.
pub(crate) use router::Router;

/// When and how aggressively shards steal queued work from each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// Queue-depth gap (deepest minus shallowest) that must be exceeded
    /// before a steal happens.
    pub imbalance: usize,
    /// Upper bound on migrations per epoch.
    pub max_per_epoch: usize,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            imbalance: 8,
            max_per_epoch: 32,
        }
    }
}

/// Cluster configuration: the shard template plus the policies layered on
/// top of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Shard count (1..=16).
    pub shards: usize,
    /// Configuration every shard runs under.
    pub shard: ServeConfig,
    /// Placement policy.
    pub route: RoutePolicy,
    /// Work stealing, off when `None`.
    pub steal: Option<StealConfig>,
    /// Elastic way autoscaling, off when `None`.
    pub autoscale: Option<AutoscaleConfig>,
    /// Global admission budget: arrivals are refused while total cluster
    /// backlog is at or above this. `usize::MAX` disables it.
    pub budget: usize,
    /// Epoch length in simulated picoseconds — the granularity at which
    /// routing, stealing, and autoscaling decisions happen.
    pub epoch_ps: Time,
    /// OS threads stepping shards inside each epoch (clamped to the shard
    /// count). Shards only interact at epoch boundaries, so pumping them
    /// concurrently and merging their terminal events through the same
    /// stable sort is byte-identical to sequential stepping — `1` (the
    /// default) keeps everything on the calling thread.
    pub workers: usize,
}

impl Default for ClusterConfig {
    /// One shard, kernel-affinity routing, no stealing or autoscaling —
    /// the configuration that behaves exactly like a plain [`Server`].
    fn default() -> Self {
        ClusterConfig {
            shards: 1,
            shard: ServeConfig::default(),
            route: RoutePolicy::KernelAffinity { spill_depth: 64 },
            steal: None,
            autoscale: None,
            budget: usize::MAX,
            epoch_ps: 1_000_000,
            workers: 1,
        }
    }
}

impl ClusterConfig {
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if !(1..=16).contains(&self.shards) {
            return Err(ServeError::BadConfig(format!(
                "cluster shards must be 1..=16, got {}",
                self.shards
            )));
        }
        if self.epoch_ps == 0 {
            return Err(ServeError::BadConfig("epoch_ps must be >= 1".into()));
        }
        if self.budget == 0 {
            return Err(ServeError::BadConfig(
                "budget must be >= 1 (use usize::MAX for unlimited)".into(),
            ));
        }
        if self.workers == 0 {
            return Err(ServeError::BadConfig(
                "workers must be >= 1 (1 steps shards sequentially)".into(),
            ));
        }
        Ok(())
    }
}

/// One shard: a full serving engine plus its autoscaler state.
struct Shard {
    server: Server,
    scale: AutoscaleState,
}

/// One shard dispatched to a pool worker for an epoch of pumping.
type ShardJob = (usize, Shard, Time);
/// A pumped shard's epoch outcome: the shard back, plus its events.
type ShardEpoch = (Shard, Result<Vec<Outcome>, ServeError>);
/// A worker's reply, labelled by shard index for in-order reinstall.
type ShardDone = (usize, Shard, Result<Vec<Outcome>, ServeError>);

/// The result of draining a cluster.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Every completion across all shards, ordered by
    /// `(done_ps, tenant, seq)`.
    pub completions: Vec<Completion>,
    /// Every shed — shard sheds plus router (budget) sheds — ordered by
    /// `(at_ps, tenant, seq, retries)`.
    pub sheds: Vec<Shed>,
    /// Per-shard reports, shard-index order.
    pub shards: Vec<ServeReport>,
    /// Last completion time across the cluster (0 when nothing completed).
    pub span_ps: Time,
    /// Cross-shard migrations performed.
    pub steals: u64,
    /// Merged counters: un-prefixed `serve.*` rollups summed across
    /// shards, per-shard copies under `cluster.shard.<i>.`, and the
    /// cluster's own `cluster.*` metrics.
    pub probes: CounterRegistry,
    /// Per-tenant summaries over the whole cluster, name order.
    pub tenants: Vec<TenantSummary>,
}

impl ClusterReport {
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

/// The cluster: shards, router, and the epoch loop.
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    router: Router,
    pending: PendingSet,
    submitted_ids: BTreeSet<(String, u64, u32)>,
    tenant_weights: BTreeMap<String, u64>,
    kernels: BTreeSet<String>,
    /// Cluster-level metrics only (`cluster.*`); shard probes are merged
    /// in at report time.
    probes: CounterRegistry,
    /// `cluster.route.shard.<i>` counter names, one per shard.
    route_keys: Vec<String>,
    /// Per-shard backlog snapshot, reused across routing decisions.
    backlogs: Vec<usize>,
    router_sheds: Vec<Shed>,
    now: Time,
    steals: u64,
}

impl Cluster {
    /// A cluster of `cfg.shards` empty shards.
    ///
    /// # Errors
    ///
    /// Rejects invalid shard counts, epoch lengths, budgets, and any
    /// configuration the underlying [`Server`] rejects.
    pub fn new(cfg: ClusterConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let shards = (0..cfg.shards)
            .map(|_| {
                Ok(Shard {
                    server: Server::new(cfg.shard)?,
                    scale: AutoscaleState::default(),
                })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        Ok(Cluster {
            router: Router::new(cfg.route, cfg.shards),
            cfg,
            shards,
            pending: PendingSet::default(),
            submitted_ids: BTreeSet::new(),
            tenant_weights: BTreeMap::new(),
            kernels: BTreeSet::new(),
            probes: CounterRegistry::new(),
            route_keys: (0..cfg.shards)
                .map(|si| format!("cluster.route.shard.{si}"))
                .collect(),
            backlogs: Vec::with_capacity(cfg.shards),
            router_sheds: Vec::new(),
            now: 0,
            steals: 0,
        })
    }

    /// The configuration this cluster runs under.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Maps `circuit` once and registers the shared accelerator on every
    /// shard.
    ///
    /// # Errors
    ///
    /// See [`Server::register_kernel`].
    pub fn register_kernel(
        &mut self,
        name: &str,
        circuit: &Netlist,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        let tile = AcceleratorTile::new(self.cfg.shard.tile_mccs)?;
        let accel = Accelerator::map_shared(circuit, &tile)?;
        self.register_accelerator(name, accel, profile)
    }

    /// Registers an already-mapped accelerator on every shard (one mapping
    /// and one compiled batch plan shared cluster-wide — plan execution is
    /// `&self`, so shards never recompile).
    ///
    /// # Errors
    ///
    /// See [`Server::register_accelerator`].
    pub fn register_accelerator(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        let plan = Arc::new(compile(accel.netlist())?);
        self.register_prepared(name, accel, plan, profile)
    }

    /// Registers an accelerator whose batch plan is already compiled —
    /// the sampled runner builds many short-lived replica clusters over
    /// the same kernel set and pays the compile exactly once.
    ///
    /// # Errors
    ///
    /// See [`Server::register_accelerator`].
    pub(crate) fn register_prepared(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        plan: Arc<ExecPlan>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        for sh in &mut self.shards {
            sh.server
                .register_prepared(name, Arc::clone(&accel), Arc::clone(&plan), profile)?;
        }
        self.kernels.insert(name.to_owned());
        Ok(())
    }

    /// Registers one of the paper's benchmark kernels under its lowercase
    /// figure name on every shard.
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

    /// Adds a tenant on every shard.
    ///
    /// # Errors
    ///
    /// See [`Server::add_tenant`].
    pub fn add_tenant(&mut self, name: &str, weight: u64) -> Result<(), ServeError> {
        for sh in &mut self.shards {
            sh.server.add_tenant(name, weight)?;
        }
        self.tenant_weights.insert(name.to_owned(), weight);
        Ok(())
    }

    /// The mapped netlist of a registered kernel (identical on every
    /// shard; served from shard 0).
    pub fn kernel_netlist(&self, name: &str) -> Option<&Netlist> {
        self.shards[0].server.kernel_netlist(name)
    }

    /// Functional hashing depth of a registered kernel.
    pub fn kernel_func_cycles(&self, name: &str) -> Option<u64> {
        self.shards[0].server.kernel_func_cycles(name)
    }

    /// Submits a request; it is routed to a shard at the next epoch
    /// boundary covering its arrival.
    ///
    /// # Errors
    ///
    /// Rejects unknown tenants/kernels and duplicate
    /// `(tenant, seq, retries)` identities, cluster-wide.
    pub fn submit(&mut self, req: Request) -> Result<(), ServeError> {
        if !self.tenant_weights.contains_key(&req.tenant) {
            return Err(ServeError::UnknownTenant(req.tenant));
        }
        if !self.kernels.contains(&req.kernel) {
            return Err(ServeError::UnknownKernel(req.kernel));
        }
        let id = (req.tenant.clone(), req.seq, req.retries);
        if !self.submitted_ids.insert(id) {
            return Err(ServeError::DuplicateRequest {
                tenant: req.tenant,
                seq: req.seq,
                retries: req.retries,
            });
        }
        self.probes.inc("cluster.requests.submitted");
        self.pending.push(req);
        Ok(())
    }

    /// Drains everything submitted, with no closed-loop reaction.
    ///
    /// # Errors
    ///
    /// See [`Cluster::run`].
    pub fn run_to_completion(&mut self) -> Result<ClusterReport, ServeError> {
        self.run(|_| Vec::new())
    }

    /// Runs the epoch loop until every shard and the pending set drain,
    /// then reports.
    ///
    /// `hook` observes every terminal [`Outcome`] — shard completions and
    /// sheds in merged `(time, tenant, seq)` order after each epoch, and
    /// budget sheds at routing time — and may return follow-up requests.
    /// Follow-up arrivals are clamped like the plain server's (at or after
    /// a completion, strictly after a shed).
    ///
    /// # Errors
    ///
    /// Propagates invalid follow-up submissions and shard failures.
    pub fn run<F>(&mut self, mut hook: F) -> Result<ClusterReport, ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let workers = self.cfg.workers.min(self.cfg.shards);
        if workers > 1 {
            self.run_epochs_parallel(workers, &mut hook)?;
        } else {
            self.run_epochs(&mut hook)?;
        }
        Ok(self.report())
    }

    /// The sequential epoch loop: every shard is pumped on the calling
    /// thread.
    fn run_epochs<F>(&mut self, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let epoch = self.cfg.epoch_ps;
        while let Some(next) = self.next_event_ps() {
            if next > self.now {
                // Skip whole idle epochs, landing on the grid point at or
                // below the next event so decisions stay epoch-aligned.
                self.now = self.now.max(next - next % epoch);
            }
            let epoch_end = self.now.saturating_add(epoch);
            self.autoscale_epoch()?;
            self.route_arrivals(epoch_end, hook)?;
            self.steal_epoch();
            self.pump_shards(epoch_end, hook)?;
            self.now = epoch_end;
        }
        Ok(())
    }

    /// The same epoch loop with shard pumping fanned out over a pool of
    /// `workers` scoped threads that live for the whole run (spawning per
    /// epoch would dwarf the pumping work). Each epoch the shards are sent
    /// to their fixed workers, pumped concurrently, and barrier-merged:
    /// every shard's events come back labelled by shard index, are
    /// flattened in index order — exactly the order the sequential loop
    /// appends them in — and then pass through the same stable sort, so
    /// results are byte-identical to sequential stepping. Routing,
    /// stealing, autoscaling, and the run hook stay on the calling thread.
    fn run_epochs_parallel<F>(&mut self, workers: usize, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        std::thread::scope(|scope| {
            let mut txs: Vec<mpsc::Sender<ShardJob>> = Vec::with_capacity(workers);
            let (done_tx, done_rx) = mpsc::channel::<ShardDone>();
            for _ in 0..workers {
                let (tx, rx) = mpsc::channel::<ShardJob>();
                txs.push(tx);
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    while let Ok((i, mut shard, epoch_end)) = rx.recv() {
                        let mut local: Vec<Outcome> = Vec::new();
                        let r = shard.server.run_until(epoch_end, &mut |o: &Outcome| {
                            local.push(o.clone());
                            Vec::new()
                        });
                        if done_tx.send((i, shard, r.map(|()| local))).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(done_tx);
            let epoch = self.cfg.epoch_ps;
            while let Some(next) = self.next_event_ps() {
                if next > self.now {
                    self.now = self.now.max(next - next % epoch);
                }
                let epoch_end = self.now.saturating_add(epoch);
                self.autoscale_epoch()?;
                self.route_arrivals(epoch_end, hook)?;
                self.steal_epoch();
                self.pump_shards_pooled(&txs, &done_rx, epoch_end, hook)?;
                self.now = epoch_end;
            }
            // Dropping the job senders ends the workers; the scope joins
            // them on exit.
            drop(txs);
            Ok(())
        })
    }

    /// Simulated time of the next arrival or shard event, or `None` when
    /// fully drained.
    fn next_event_ps(&self) -> Option<Time> {
        let own = self.pending.next_arrival_ps();
        let shard = self
            .shards
            .iter()
            .filter_map(|s| s.server.next_event_ps())
            .min();
        match (own, shard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// One epoch of autoscaling: shards with sustained backlog convert
    /// cache ways to compute (and back), paying the conversion through
    /// [`Server::rescale`].
    fn autoscale_epoch(&mut self) -> Result<(), ServeError> {
        let Some(ac) = self.cfg.autoscale else {
            return Ok(());
        };
        let now = self.now;
        for sh in &mut self.shards {
            let backlog = sh.server.backlog();
            let up = match sh.scale.decide(&ac, backlog) {
                ScaleDecision::Up => true,
                ScaleDecision::Down => false,
                ScaleDecision::Hold => continue,
            };
            let from = sh.server.config().partition;
            let Some(to) = step_partition(&ac, &from, up) else {
                continue;
            };
            let conversion = sh.server.rescale(to, now)?;
            // The rescaled shard rebuilt its fabric: flush the router's
            // ranking memo so placement state is recomputed against the new
            // topology (decisions are unchanged — rankings are pure — but
            // the cache must not outlive the shard set it was keyed on).
            self.router.invalidate();
            self.probes.inc(if up {
                "cluster.autoscale.up"
            } else {
                "cluster.autoscale.down"
            });
            self.probes
                .add("cluster.autoscale.conversion_ps", conversion);
        }
        Ok(())
    }

    /// Routes every pending arrival at or before `epoch_end` (inclusive,
    /// matching the bound of [`Server::run_until`]) to a shard, or sheds
    /// it when the global budget is exhausted.
    fn route_arrivals<F>(&mut self, epoch_end: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        while let Some(req) = self.pending.pop_due(epoch_end) {
            self.backlogs.clear();
            self.backlogs
                .extend(self.shards.iter().map(|s| s.server.backlog()));
            if self.backlogs.iter().sum::<usize>() >= self.cfg.budget {
                let at = req.arrival_ps;
                self.probes.inc("cluster.requests.shed");
                let shed = Shed {
                    request: req,
                    at_ps: at,
                    reason: ShedReason::ClusterBudget,
                };
                let outcome = Outcome::Shed(shed.clone());
                self.router_sheds.push(shed);
                for mut f in hook(&outcome) {
                    f.arrival_ps = f.arrival_ps.max(at.saturating_add(1));
                    self.submit(f)?;
                }
                continue;
            }
            let si = self.router.route(&req.kernel, &self.backlogs);
            self.probes.inc(&self.route_keys[si]);
            self.shards[si].server.submit(req)?;
        }
        let (hits, misses) = self.router.take_cache_stats();
        if hits + misses > 0 {
            self.probes.add("cluster.route.cache.hits", hits);
            self.probes.add("cluster.route.cache.misses", misses);
        }
        Ok(())
    }

    /// One epoch of rebalancing: migrate queued requests from the deepest
    /// shard to the shallowest until the gap closes to the configured
    /// imbalance (or the per-epoch cap is hit).
    fn steal_epoch(&mut self) {
        let Some(sc) = self.cfg.steal else {
            return;
        };
        for _ in 0..sc.max_per_epoch {
            let mut max_i = 0;
            let mut min_i = 0;
            for (i, sh) in self.shards.iter().enumerate() {
                if sh.server.queued() > self.shards[max_i].server.queued() {
                    max_i = i;
                }
                if sh.server.queued() < self.shards[min_i].server.queued() {
                    min_i = i;
                }
            }
            let gap = self.shards[max_i].server.queued() - self.shards[min_i].server.queued();
            if gap <= sc.imbalance {
                break;
            }
            let Some(req) = self.shards[max_i].server.steal_newest(1).pop() else {
                break;
            };
            self.shards[min_i]
                .server
                .submit_stolen(req)
                .expect("stolen identity was released by its victim");
            self.probes.inc("cluster.steals");
            self.steals += 1;
        }
    }

    /// Pumps every shard to the epoch boundary, then feeds the merged,
    /// canonically ordered terminal events to the run hook.
    fn pump_shards<F>(&mut self, epoch_end: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let mut events: Vec<Outcome> = Vec::new();
        for sh in &mut self.shards {
            sh.server.run_until(epoch_end, &mut |o: &Outcome| {
                events.push(o.clone());
                Vec::new()
            })?;
        }
        self.merge_epoch_events(events, hook)
    }

    /// One epoch of shard pumping on the worker pool: shards are moved to
    /// their workers (shard `i` of `n` always goes to worker
    /// `i * workers / n`, a fixed contiguous chunking), pumped to the
    /// epoch boundary, and reinstalled in index order with their events.
    fn pump_shards_pooled<F>(
        &mut self,
        txs: &[mpsc::Sender<ShardJob>],
        done_rx: &mpsc::Receiver<ShardDone>,
        epoch_end: Time,
        hook: &mut F,
    ) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let n = self.shards.len();
        let workers = txs.len();
        for (i, sh) in std::mem::take(&mut self.shards).into_iter().enumerate() {
            txs[i * workers / n]
                .send((i, sh, epoch_end))
                .expect("shard worker exited before the epoch loop finished");
        }
        let mut slots: Vec<Option<ShardEpoch>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, sh, r) = done_rx
                .recv()
                .expect("shard worker exited before the epoch loop finished");
            slots[i] = Some((sh, r));
        }
        // Reinstall every shard before surfacing any error so the cluster
        // stays intact, and flatten events in shard-index order — the same
        // pre-sort order the sequential pump produces.
        let mut events: Vec<Outcome> = Vec::new();
        let mut first_err = None;
        for slot in slots {
            let (sh, r) = slot.expect("every shard reports exactly once per epoch");
            self.shards.push(sh);
            match r {
                Ok(mut local) => events.append(&mut local),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.merge_epoch_events(events, hook)
    }

    /// Stable-sorts one epoch's merged terminal events into the canonical
    /// order and feeds them to the run hook. Shared by the sequential and
    /// pooled pumps — identical input order in, identical behavior out.
    fn merge_epoch_events<F>(
        &mut self,
        mut events: Vec<Outcome>,
        hook: &mut F,
    ) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        events.sort_by(|a, b| outcome_key(a).cmp(&outcome_key(b)));
        for o in &events {
            let min_arrival = match o {
                Outcome::Completed(c) => {
                    self.probes.inc("cluster.requests.completed");
                    c.done_ps
                }
                Outcome::Shed(s) => {
                    self.probes.inc("cluster.requests.shed");
                    s.at_ps.saturating_add(1)
                }
            };
            for mut f in hook(o) {
                f.arrival_ps = f.arrival_ps.max(min_arrival);
                self.submit(f)?;
            }
        }
        Ok(())
    }

    /// Drains shard reports and merges them into the cluster view.
    fn report(&mut self) -> ClusterReport {
        let mut probes = self.probes.clone();
        let shard_reports: Vec<ServeReport> =
            self.shards.iter_mut().map(|s| s.server.report()).collect();
        let mut completions: Vec<&Completion> = Vec::new();
        let mut sheds: Vec<&Shed> = self.router_sheds.iter().collect();
        for (i, r) in shard_reports.iter().enumerate() {
            completions.extend(&r.completions);
            sheds.extend(&r.sheds);
            // Un-prefixed rollup (counters sum, gauges max, histograms
            // bucket-add) plus a per-shard namespaced copy.
            probes.merge(&r.probes);
            probes.merge_namespaced(&format!("cluster.shard.{i}."), &r.probes);
        }
        let completions = clone_sorted_by(&completions, completion_key);
        let sheds = clone_sorted_by(&sheds, |s: &Shed| {
            let r = &s.request;
            (s.at_ps, r.tenant.as_str(), r.seq, r.retries)
        });
        let span_ps = completions.iter().map(|c| c.done_ps).max().unwrap_or(0);
        let tenants = self.tenant_summaries(&probes);
        freac_probe::assert_ok(&probes);
        // Shard reports already merged their own probes into the global
        // registry; only the cluster's own metrics are new here.
        freac_probe::global::merge(&self.probes);
        ClusterReport {
            completions,
            sheds,
            shards: shard_reports,
            span_ps,
            steals: self.steals,
            probes,
            tenants,
        }
    }

    /// Cluster-wide per-tenant summaries from the merged registry.
    fn tenant_summaries(&self, probes: &CounterRegistry) -> Vec<TenantSummary> {
        self.tenant_weights
            .iter()
            .map(|(name, &weight)| {
                let c = |suffix: &str| probes.counter(&format!("serve.tenant.{name}.{suffix}"));
                let router_shed = self
                    .router_sheds
                    .iter()
                    .filter(|s| s.request.tenant == *name)
                    .count() as u64;
                let hist = probes.histogram(&format!("serve.tenant.{name}.latency_ps"));
                let q = |p: f64| hist.and_then(|h| h.quantile(p)).unwrap_or(0.0);
                TenantSummary {
                    name: name.clone(),
                    weight,
                    // Shard `submitted` counts a migrated request twice (a
                    // steal is a fresh submission on the thief); subtract
                    // `stolen` to recover user submissions, then add the
                    // budget sheds no shard ever saw.
                    submitted: c("submitted") - c("stolen") + router_shed,
                    completed: c("completed"),
                    shed: c("shed") + router_shed,
                    p50_ps: q(0.5),
                    p95_ps: q(0.95),
                    p99_ps: q(0.99),
                    mean_ps: hist.map_or(0.0, freac_probe::Histogram::mean),
                }
            })
            .collect()
    }
}

/// Canonical ordering of merged terminal events: time, then identity,
/// completions before sheds at the same instant.
fn outcome_key(o: &Outcome) -> (Time, &str, u64, u8, u32) {
    match o {
        Outcome::Completed(c) => (c.done_ps, c.tenant.as_str(), c.seq, 0, 0),
        Outcome::Shed(s) => (
            s.at_ps,
            s.request.tenant.as_str(),
            s.request.seq,
            1,
            s.request.retries,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freac_netlist::builder::CircuitBuilder;

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

    fn cluster_with(cfg: ClusterConfig) -> Cluster {
        let mut c = Cluster::new(cfg).unwrap();
        c.register_kernel("k", &tiny_circuit("k"), profile())
            .unwrap();
        c.add_tenant("a", 1).unwrap();
        c.add_tenant("b", 1).unwrap();
        c
    }

    fn trace(n: u64, gap: Time) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let tenant = if i % 2 == 0 { "a" } else { "b" };
                Request::new(tenant, i / 2, "k", i * gap, i)
            })
            .collect()
    }

    #[test]
    fn single_shard_cluster_matches_the_plain_server() {
        let mut server = Server::new(ServeConfig::default()).unwrap();
        server
            .register_kernel("k", &tiny_circuit("k"), profile())
            .unwrap();
        server.add_tenant("a", 1).unwrap();
        server.add_tenant("b", 1).unwrap();
        let mut cluster = cluster_with(ClusterConfig::default());
        for r in trace(64, 500_000) {
            server.submit(r.clone()).unwrap();
            cluster.submit(r).unwrap();
        }
        let want = server.run_to_completion().unwrap();
        let got = cluster.run_to_completion().unwrap();
        assert_eq!(got.completions, want.completions);
        assert_eq!(got.sheds, want.sheds);
        assert_eq!(got.span_ps, want.span_ps);
        assert_eq!(got.shards[0].dispatches, want.dispatches);
        let shard_counters: Vec<(&str, u64)> = got.shards[0].probes.counters().collect();
        let plain_counters: Vec<(&str, u64)> = want.probes.counters().collect();
        assert_eq!(shard_counters, plain_counters);
    }

    #[test]
    fn every_request_terminates_exactly_once_across_shards() {
        let mut cluster = cluster_with(ClusterConfig {
            shards: 4,
            steal: Some(StealConfig {
                imbalance: 2,
                max_per_epoch: 8,
            }),
            ..ClusterConfig::default()
        });
        let n = 96;
        for r in trace(n, 100_000) {
            cluster.submit(r).unwrap();
        }
        let rep = cluster.run_to_completion().unwrap();
        assert_eq!(
            rep.completions.len() + rep.sheds.len(),
            n as usize,
            "every submission must complete or shed exactly once"
        );
        assert_eq!(rep.probes.counter("cluster.requests.submitted"), n);
        assert_eq!(
            rep.probes.counter("cluster.requests.completed")
                + rep.probes.counter("cluster.requests.shed"),
            n
        );
        let errors = freac_probe::check(&rep.probes);
        assert!(errors.is_empty(), "probe laws violated: {errors:?}");
    }

    #[test]
    fn budget_sheds_arrivals_with_cluster_reason() {
        let mut cluster = cluster_with(ClusterConfig {
            budget: 4,
            ..ClusterConfig::default()
        });
        // A burst far larger than the budget, all arriving at once.
        for r in trace(32, 0) {
            cluster.submit(r).unwrap();
        }
        let rep = cluster.run_to_completion().unwrap();
        assert!(
            rep.sheds
                .iter()
                .any(|s| s.reason == ShedReason::ClusterBudget),
            "an exhausted budget must shed at the router"
        );
        assert_eq!(rep.completions.len() + rep.sheds.len(), 32);
        // Budget sheds show up in tenant accounting too.
        let a = rep.tenant("a").unwrap();
        assert_eq!(a.submitted, a.completed + a.shed);
    }

    #[test]
    fn skewed_load_triggers_steals_and_conserves() {
        // One kernel + a huge spill depth concentrates the whole burst on
        // one shard; stealing must then migrate work to the idle ones.
        let mut cluster = cluster_with(ClusterConfig {
            shards: 4,
            route: RoutePolicy::KernelAffinity {
                spill_depth: usize::MAX,
            },
            steal: Some(StealConfig {
                imbalance: 2,
                max_per_epoch: 64,
            }),
            shard: ServeConfig {
                slices: 1,
                queue_depth: 256,
                // Single-lane service keeps the home queue deep across
                // epochs — batching would drain the burst in one dispatch.
                batching: false,
                ..ServeConfig::default()
            },
            epoch_ps: 10_000,
            ..ClusterConfig::default()
        });
        let n = 64;
        for r in trace(n, 0) {
            cluster.submit(r).unwrap();
        }
        let rep = cluster.run_to_completion().unwrap();
        assert!(rep.steals > 0, "skewed burst must trigger stealing");
        assert_eq!(rep.probes.counter("cluster.steals"), rep.steals);
        assert_eq!(rep.completions.len() + rep.sheds.len(), n as usize);
        // Migration is visible and balanced: stolen == stolen_in, and the
        // conservation law holds on the merged registry.
        assert_eq!(
            rep.probes.counter("serve.requests.stolen"),
            rep.probes.counter("serve.requests.stolen_in")
        );
        assert_eq!(rep.probes.counter("serve.requests.stolen"), rep.steals);
        let errors = freac_probe::check(&rep.probes);
        assert!(errors.is_empty(), "probe laws violated: {errors:?}");
        // More than one shard actually completed work.
        let active = rep
            .shards
            .iter()
            .filter(|s| !s.completions.is_empty())
            .count();
        assert!(
            active > 1,
            "steals should spread work beyond the home shard"
        );
    }

    #[test]
    fn parallel_shard_stepping_is_byte_identical_to_sequential() {
        let cfg = ClusterConfig {
            shards: 4,
            steal: Some(StealConfig {
                imbalance: 2,
                max_per_epoch: 8,
            }),
            epoch_ps: 50_000,
            ..ClusterConfig::default()
        };
        let run = |workers: usize| {
            let mut cluster = cluster_with(ClusterConfig { workers, ..cfg });
            for r in trace(128, 30_000) {
                cluster.submit(r).unwrap();
            }
            cluster.run_to_completion().unwrap()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(par.completions, seq.completions);
        assert_eq!(par.sheds, seq.sheds);
        assert_eq!(par.steals, seq.steals);
        for (p, s) in par.shards.iter().zip(seq.shards.iter()) {
            assert_eq!(p.dispatches, s.dispatches);
        }
        assert_eq!(
            freac_probe::to_counters_json(&par.probes),
            freac_probe::to_counters_json(&seq.probes)
        );
    }

    #[test]
    fn route_cache_hits_dominate_and_rescale_invalidates() {
        // Affinity routing over a long single-kernel trace: one miss per
        // kernel, hits for everything else.
        let mut cluster = cluster_with(ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        });
        for r in trace(64, 200_000) {
            cluster.submit(r).unwrap();
        }
        let rep = cluster.run_to_completion().unwrap();
        assert_eq!(rep.probes.counter("cluster.route.cache.misses"), 1);
        assert_eq!(rep.probes.counter("cluster.route.cache.hits"), 63);

        // An autoscale rescale flushes the memo: a burst builds backlog,
        // the autoscaler converts ways (invalidating the cache), and a
        // second burst routed afterwards misses again.
        let mut cluster = cluster_with(ClusterConfig {
            shards: 1,
            autoscale: Some(AutoscaleConfig {
                high_backlog: 8,
                up_epochs: 1,
                ..AutoscaleConfig::default()
            }),
            shard: ServeConfig {
                partition: freac_core::SlicePartition::new(4, 10, 6).unwrap(),
                slices: 1,
                queue_depth: 512,
                batching: false,
                ..ServeConfig::default()
            },
            epoch_ps: 10_000,
            ..ClusterConfig::default()
        });
        for r in trace(100, 0) {
            cluster.submit(r).unwrap();
        }
        for i in 0..8u64 {
            cluster
                .submit(Request::new("a", 1000 + i, "k", 100_000_000, i))
                .unwrap();
        }
        let rep = cluster.run_to_completion().unwrap();
        assert!(
            rep.probes.counter("cluster.autoscale.up") > 0,
            "the burst must trigger an upscale for this test to be meaningful"
        );
        assert!(
            rep.probes.counter("cluster.route.cache.misses") > 1,
            "a rescale must invalidate the ranking cache (got {} misses)",
            rep.probes.counter("cluster.route.cache.misses")
        );
    }

    #[test]
    fn sustained_backlog_scales_ways_up() {
        let mut cluster = cluster_with(ClusterConfig {
            shards: 1,
            autoscale: Some(AutoscaleConfig {
                high_backlog: 8,
                up_epochs: 1,
                ..AutoscaleConfig::default()
            }),
            shard: ServeConfig {
                partition: freac_core::SlicePartition::new(4, 10, 6).unwrap(),
                slices: 1,
                queue_depth: 512,
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        });
        for r in trace(128, 0) {
            cluster.submit(r).unwrap();
        }
        let rep = cluster.run_to_completion().unwrap();
        assert!(
            rep.probes.counter("cluster.autoscale.up") > 0,
            "a deep sustained backlog must convert ways to compute"
        );
        assert!(rep.probes.counter("cluster.autoscale.conversion_ps") > 0);
        assert!(rep.probes.counter("serve.rescales") > 0);
        assert_eq!(rep.completions.len() + rep.sheds.len(), 128);
    }

    #[test]
    fn coherent_shards_autoscale_with_cheaper_way_conversions() {
        let run = |handoff: crate::HandoffMode| {
            let mut cluster = cluster_with(ClusterConfig {
                shards: 1,
                autoscale: Some(AutoscaleConfig {
                    high_backlog: 8,
                    up_epochs: 1,
                    ..AutoscaleConfig::default()
                }),
                shard: ServeConfig {
                    partition: freac_core::SlicePartition::new(4, 10, 6).unwrap(),
                    slices: 1,
                    queue_depth: 512,
                    handoff,
                    ..ServeConfig::default()
                },
                ..ClusterConfig::default()
            });
            for r in trace(128, 0) {
                cluster.submit(r).unwrap();
            }
            cluster.run_to_completion().unwrap()
        };
        let flat = run(crate::HandoffMode::ConservativeFlush);
        let coh = run(crate::HandoffMode::coherent());
        assert!(coh.probes.counter("cluster.autoscale.up") > 0);
        let flat_ps = flat.probes.counter("cluster.autoscale.conversion_ps");
        let coh_ps = coh.probes.counter("cluster.autoscale.conversion_ps");
        assert!(flat_ps > 0 && coh_ps > 0);
        assert!(
            coh_ps < flat_ps,
            "coherent way conversions must beat the blind flush: {coh_ps} vs {flat_ps}"
        );
        assert!(coh.probes.counter("cache.coh.claims") > 0);
        assert_eq!(flat.probes.counter("cache.coh.claims"), 0);
        // Every request still resolves, and functional results agree.
        assert_eq!(coh.completions.len() + coh.sheds.len(), 128);
        let hashes = |r: &ClusterReport| {
            let mut h: Vec<(String, u64, u64)> = r
                .completions
                .iter()
                .map(|c| (c.tenant.clone(), c.seq, c.output_hash))
                .collect();
            h.sort();
            h
        };
        assert_eq!(hashes(&flat), hashes(&coh));
    }
}
