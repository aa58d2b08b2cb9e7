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
//! boundary via [`Server::run_until`]. Epochs in which none of these can
//! change anything are skipped, with the autoscalers' hysteresis fed for
//! them in bulk (`Cluster::skip_idle_epochs`).
//!
//! # Determinism
//!
//! Shards are pumped in index order, but their terminal events are merged
//! and re-sorted by `(time, tenant, seq, kind)` before the run hook sees
//! them (a drain without a hook, [`Cluster::run_to_completion`], only
//! counts them), and all routing state (rendezvous rankings, the round-robin
//! cursor, the pending set) iterates canonically — so traces, completion
//! hashes, and merged counters are a pure function of the submitted
//! request set and the configuration, never of registration or submission
//! order. A 1-shard cluster replays exactly the schedule the plain
//! [`Server`] produces: routing at inclusive epoch boundaries plus the
//! prefix-stability of `run_until` deliver every arrival to the shard
//! before its clock reaches it.
//!
//! The epoch loop runs on the calling thread. [`ClusterConfig::workers`]
//! is the thread count of the report's functional phase: every shard's
//! pending output hashes are split into pure passes (one kernel, at most
//! 512 lanes), which run on that many threads and come
//! back in pass order, each shard counting its own passes — so the report
//! is byte-identical at any worker count, which the cluster proptest
//! oracle asserts. Stepping shards in parallel was tried and removed: the
//! per-epoch barrier cost more than the little work an epoch holds.
//!
//! # Accounting
//!
//! Like each shard's loop, the cluster tallies its per-request counters —
//! `cluster.requests.{submitted,completed,shed}` and
//! `cluster.route.shard.<i>` — in plain fields and writes them to its
//! registry at the top of every report, so the report holds exactly the
//! keys and values direct registry calls would have left. Per-epoch and
//! rare events (route-cache stats, steals, autoscaling) go to the registry
//! directly.
//! A report merges the completions the shards hand over, already in
//! canonical order, by move through the server's one canonical merge
//! (the lower shard first among equal keys), sorts references to the
//! sheds and clones each once, and exports to the global probe as a
//! server's does.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use freac_core::{Accelerator, AcceleratorTile};
use freac_kernels::{kernel, Kernel, KernelId};
use freac_netlist::{compile, Netlist};
use freac_probe::CounterRegistry;
use freac_sim::Time;

use crate::error::ServeError;
use crate::pending::PendingSet;
use crate::request::{Completion, Outcome, Request, Shed, ShedReason};
use crate::server::{
    merge_canonical, run_func_passes, DispatchRecord, FluidEstimate, FuncPass, RequestProfile,
    ServeConfig, Server, TenantSummary,
};
use crate::tally::{Count, Probes};

mod autoscale;
mod router;

pub use autoscale::AutoscaleConfig;
pub use router::RoutePolicy;

use autoscale::{step_partition, AutoscaleState, ScaleDecision};
// Re-exported crate-internally: the sampling signature pass drives the
// real router over its fluid queue model.
pub(crate) use router::{rendezvous_ranking, Router};

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
    /// OS threads running the report's functional phase: the output-hash
    /// passes of every shard fan out over this many threads (clamped to
    /// the pass count), and the hashes return in pass order, so the report
    /// is byte-identical at any count. The epoch loop itself always runs
    /// on the calling thread; `1` (the default) keeps everything there.
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
                "workers must be >= 1 (1 runs the functional phase on the calling thread)".into(),
            ));
        }
        Ok(())
    }
}

/// One shard: a full serving engine plus its autoscaler state.
#[derive(Clone)]
struct Shard {
    server: Server,
    scale: AutoscaleState,
}

/// The result of draining a cluster.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Every completion across all shards, ordered by
    /// `(done_ps, tenant, seq)`.
    pub completions: Vec<Completion>,
    /// Every shed — shard sheds plus router (budget) sheds — ordered by
    /// `(at_ps, tenant, seq, retries)`.
    pub sheds: Vec<Shed>,
    /// What each shard adds to the fields above, shard-index order.
    pub shards: Vec<ShardReport>,
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

/// One shard's part of a [`ClusterReport`]: what the cluster-level fields
/// do not already hold.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard's schedule, in dispatch order.
    pub dispatches: Vec<DispatchRecord>,
    /// The shard's own registry, as a plain [`Server`]'s report holds it.
    pub probes: CounterRegistry,
}

/// A tenant as the cluster sees it: its fair-share weight and the
/// `(seq, retries)` identities submitted cluster-wide. The identity set
/// answers membership only and is never iterated, so its order cannot
/// reach a schedule or a report.
#[derive(Clone)]
struct ClusterTenant {
    weight: u64,
    ids: HashSet<(u64, u32)>,
}

/// The cluster's per-request counters between reports (see the module
/// docs' *Accounting*).
#[derive(Clone, Default)]
struct ClusterTally {
    submitted: Count,
    completed: Count,
    shed: Count,
    /// Requests routed to each shard, by shard index
    /// (`cluster.route.shard.<i>`).
    routed: Vec<Count>,
}

/// The cluster: shards, router, and the epoch loop. A clone is an
/// independent cluster in the same state.
#[derive(Clone)]
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    router: Router,
    pending: PendingSet,
    tenants: BTreeMap<String, ClusterTenant>,
    kernels: BTreeSet<String>,
    /// Cluster-level metrics only (`cluster.*`); shard probes are merged
    /// in at report time.
    probes: Probes,
    /// Per-request counters since the last report.
    tally: ClusterTally,
    /// Per-shard backlog snapshot, reused across routing decisions.
    backlogs: Vec<usize>,
    router_sheds: Vec<Shed>,
    now: Time,
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
            tenants: BTreeMap::new(),
            kernels: BTreeSet::new(),
            probes: Probes::new(),
            tally: ClusterTally {
                routed: vec![Count::default(); cfg.shards],
                ..ClusterTally::default()
            },
            backlogs: Vec::with_capacity(cfg.shards),
            router_sheds: Vec::new(),
            now: 0,
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
        self.tenants.insert(
            name.to_owned(),
            ClusterTenant {
                weight,
                ids: HashSet::new(),
            },
        );
        Ok(())
    }

    /// Makes every shard timing-only (see [`Server::set_timing_only`]),
    /// and the cluster's reports export nothing to the global probe. Only
    /// the sampler's template is built this way: its estimates read
    /// simulated timing alone.
    pub(crate) fn set_timing_only(&mut self) {
        self.probes.stop_exporting();
        for sh in &mut self.shards {
            sh.server.set_timing_only();
        }
    }

    /// Registered tenant names, in name order.
    pub(crate) fn tenant_names(&self) -> impl Iterator<Item = &str> {
        self.tenants.keys().map(String::as_str)
    }

    /// Registered kernel names, in name order.
    pub(crate) fn kernel_names(&self) -> impl Iterator<Item = &str> {
        self.kernels.iter().map(String::as_str)
    }

    /// The fluid cost models of the registered kernels, in name order
    /// (identical on every shard; served from shard 0).
    pub(crate) fn fluid_estimates(&self) -> Vec<FluidEstimate> {
        let server = &self.shards[0].server;
        self.kernels
            .iter()
            .map(|k| server.kernel_fluid_estimate(k).expect("registered"))
            .collect()
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
        let Some(tenant) = self.tenants.get_mut(req.tenant.as_str()) else {
            return Err(ServeError::UnknownTenant(req.tenant));
        };
        if !self.kernels.contains(&req.kernel) {
            return Err(ServeError::UnknownKernel(req.kernel));
        }
        if !tenant.ids.insert((req.seq, req.retries)) {
            return Err(ServeError::DuplicateRequest {
                tenant: req.tenant,
                seq: req.seq,
                retries: req.retries,
            });
        }
        self.tally.submitted.inc();
        self.pending.push(req);
        Ok(())
    }

    /// Drains everything submitted, with no closed-loop reaction. With no
    /// hook to show them to, the shards' outcomes are only counted: each
    /// epoch skips the merge [`Cluster::run`] sorts them in.
    ///
    /// # Errors
    ///
    /// See [`Cluster::run`].
    pub fn run_to_completion(&mut self) -> Result<ClusterReport, ServeError> {
        self.drive::<fn(&Outcome) -> Vec<Request>>(None)?;
        self.report()
    }

    /// Runs the epoch loop until every shard and the pending set drain,
    /// then reports.
    ///
    /// `hook` observes every terminal [`Outcome`] — shard completions and
    /// sheds in merged `(time, tenant, seq)` order after each epoch, and
    /// budget sheds at routing time — and may return follow-up requests.
    /// Follow-up arrivals are clamped like the plain server's (at or after
    /// a completion, strictly after a shed). As with [`Server::run`], a
    /// completion shown to the hook still carries `output_hash == 0`; each
    /// shard's report computes the hashes of what completed there.
    ///
    /// # Errors
    ///
    /// Propagates invalid follow-up submissions and shard failures,
    /// functional-phase failures included.
    pub fn run<F>(&mut self, mut hook: F) -> Result<ClusterReport, ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        self.drive(Some(&mut hook))?;
        self.report()
    }

    /// The epoch loop of [`Cluster::run`], showing outcomes to `hook` if
    /// there is one.
    fn drive<F>(&mut self, mut hook: Option<&mut F>) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let epoch = self.cfg.epoch_ps;
        while let Some(next) = self.next_event_ps() {
            self.skip_idle_epochs(next);
            let epoch_end = self.now.saturating_add(epoch);
            self.autoscale_epoch()?;
            self.route_arrivals(epoch_end, hook.as_deref_mut())?;
            self.steal_epoch();
            self.pump_shards(epoch_end, hook.as_deref_mut())?;
            self.now = epoch_end;
        }
        Ok(())
    }

    /// Moves `now` past every epoch in which nothing can happen, given the
    /// next arrival or shard event at `next`.
    ///
    /// Two skips, both exact:
    ///
    /// * Epochs before the one holding `next` are jumped with nothing fed
    ///   to the autoscalers, landing on the grid point at or below `next`
    ///   so decisions stay epoch-aligned.
    /// * From there, an epoch is idle when no arrival is due for routing,
    ///   no shard can admit or dispatch by its end
    ///   ([`Server::next_action_ps`]: a shard with queued work admits
    ///   arrivals only at its next dispatch instant), the steal imbalance
    ///   is within its threshold, and no autoscaler would convert ways. An
    ///   idle epoch changes nothing but the autoscalers' hysteresis, fed
    ///   with a backlog that stays constant, so the epochs up to the first
    ///   one where anything acts are skipped and their hysteresis fed in
    ///   bulk ([`AutoscaleState::decide_many`]). A firing that finds the
    ///   partition ladder at its end converts nothing and is skipped too.
    fn skip_idle_epochs(&mut self, next: Time) {
        let epoch = self.cfg.epoch_ps;
        if next > self.now {
            self.now = self.now.max(next - next % epoch);
        }
        if self.steal_pair().is_some() {
            return;
        }
        let Some(act) = self
            .shards
            .iter()
            .filter_map(|s| s.server.next_action_ps())
            .chain(self.pending.next_arrival_ps())
            .min()
        else {
            return;
        };
        // The epoch starting at `now + j * epoch` acts when its inclusive
        // end reaches `act`, so `j` below this many are idle.
        let mut idle = act.saturating_sub(self.now).saturating_sub(1) / epoch;
        if let Some(ac) = self.cfg.autoscale {
            for sh in &self.shards {
                let fires = sh.scale.holds_before_firing(&ac, sh.server.backlog());
                if let Some((holds, decision)) = fires {
                    let up = decision == ScaleDecision::Up;
                    if step_partition(&ac, &sh.server.config().partition, up).is_some() {
                        idle = idle.min(holds);
                    }
                }
            }
            for sh in &mut self.shards {
                let backlog = sh.server.backlog();
                sh.scale.decide_many(&ac, backlog, idle);
            }
        }
        self.now = self.now.saturating_add(idle.saturating_mul(epoch));
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
            let probes = self.probes.sink();
            probes.inc(if up {
                "cluster.autoscale.up"
            } else {
                "cluster.autoscale.down"
            });
            probes.add("cluster.autoscale.conversion_ps", conversion);
        }
        Ok(())
    }

    /// Routes every pending arrival at or before `epoch_end` (inclusive,
    /// matching the bound of [`Server::run_until`]) to a shard, or sheds
    /// it when the global budget is exhausted, showing the shed to `hook`.
    fn route_arrivals<F>(
        &mut self,
        epoch_end: Time,
        mut hook: Option<&mut F>,
    ) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        while let Some(req) = self.pending.pop_due(epoch_end) {
            self.backlogs.clear();
            self.backlogs
                .extend(self.shards.iter().map(|s| s.server.backlog()));
            if self.backlogs.iter().sum::<usize>() >= self.cfg.budget {
                let at = req.arrival_ps;
                self.tally.shed.inc();
                let outcome = Outcome::Shed(Shed {
                    request: req,
                    at_ps: at,
                    reason: ShedReason::ClusterBudget,
                });
                let followups = hook.as_mut().map_or_else(Vec::new, |hook| hook(&outcome));
                if let Outcome::Shed(shed) = outcome {
                    self.router_sheds.push(shed);
                }
                for mut f in followups {
                    f.arrival_ps = f.arrival_ps.max(at.saturating_add(1));
                    self.submit(f)?;
                }
                continue;
            }
            let si = self.router.route(&req.kernel, &self.backlogs);
            self.tally.routed[si].inc();
            self.shards[si].server.submit(req)?;
        }
        let (hits, misses) = self.router.take_cache_stats();
        if hits + misses > 0 {
            let probes = self.probes.sink();
            probes.add("cluster.route.cache.hits", hits);
            probes.add("cluster.route.cache.misses", misses);
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
            let Some((max_i, min_i)) = self.steal_pair() else {
                break;
            };
            let Some(req) = self.shards[max_i].server.steal_newest(1).pop() else {
                break;
            };
            self.shards[min_i]
                .server
                .submit_stolen(req)
                .expect("stolen identity was released by its victim");
            self.probes.sink().inc("cluster.steals");
        }
    }

    /// The `(victim, thief)` shards of the next steal — the first deepest
    /// and first shallowest by queued requests — or `None` when stealing
    /// is off or their gap is within the configured imbalance.
    fn steal_pair(&self) -> Option<(usize, usize)> {
        let sc = self.cfg.steal?;
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
        (gap > sc.imbalance).then_some((max_i, min_i))
    }

    /// Pumps every shard to the epoch boundary, then feeds the merged,
    /// canonically ordered terminal events to the run hook. Without a
    /// hook, the shards' new outcomes are only counted.
    fn pump_shards<F>(&mut self, epoch_end: Time, hook: Option<&mut F>) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let Some(hook) = hook else {
            for sh in &mut self.shards {
                let (completed, shed) = sh.server.outcome_counts();
                sh.server
                    .run_until(epoch_end, &mut |_: &Outcome| Vec::new())?;
                let (now_completed, now_shed) = sh.server.outcome_counts();
                // A tally touched by nothing stays untouched, as with a
                // hook: its key appears only once an outcome happens.
                for (tally, new) in [
                    (&mut self.tally.completed, now_completed - completed),
                    (&mut self.tally.shed, now_shed - shed),
                ] {
                    if new > 0 {
                        tally.add(new as u64);
                    }
                }
            }
            return Ok(());
        };
        let mut events: Vec<Outcome> = Vec::new();
        for sh in &mut self.shards {
            sh.server.run_until(epoch_end, &mut |o: &Outcome| {
                events.push(o.clone());
                Vec::new()
            })?;
        }
        events.sort_by(|a, b| outcome_key(a).cmp(&outcome_key(b)));
        for o in &events {
            let min_arrival = match o {
                Outcome::Completed(c) => {
                    self.tally.completed.inc();
                    c.done_ps
                }
                Outcome::Shed(s) => {
                    self.tally.shed.inc();
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

    /// Runs every shard's functional phase (none for a timing-only
    /// cluster) on [`ClusterConfig::workers`] threads, closes the books of
    /// the cluster and of every shard, and merges the shards' records into
    /// the cluster view: the completions the shards hand over by move, the
    /// sheds cloned once each.
    fn report(&mut self) -> Result<ClusterReport, ServeError> {
        self.flush_tallies();
        self.run_func_phase()?;
        let mut lists: Vec<Vec<Completion>> = self
            .shards
            .iter_mut()
            .map(|s| s.server.hand_over())
            .filter(|l| !l.is_empty())
            .collect();
        let completions = if lists.len() <= 1 {
            lists.pop().unwrap_or_default()
        } else {
            let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
            let mut runs: Vec<_> = lists.into_iter().map(Vec::into_iter).collect();
            merge_canonical(&mut runs, |c| c, |_, c| out.push(c));
            out
        };
        let mut sheds: Vec<&Shed> = self.router_sheds.iter().collect();
        for sh in &self.shards {
            sheds.extend(sh.server.sheds());
        }
        sheds.sort_by_key(|&s| {
            let r = &s.request;
            (s.at_ps, r.tenant.as_str(), r.seq, r.retries)
        });
        let sheds: Vec<Shed> = sheds.into_iter().cloned().collect();
        let mut probes = self.probes.export().clone();
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, sh) in self.shards.iter_mut().enumerate() {
            let shard = sh.server.close_books();
            // Un-prefixed rollup (counters sum, gauges max, histograms
            // bucket-add) plus a per-shard namespaced copy.
            probes.merge(&shard.probes);
            probes.merge_namespaced(&format!("cluster.shard.{i}."), &shard.probes);
            shards.push(shard);
        }
        let span_ps = completions.last().map_or(0, |c| c.done_ps);
        let tenants = self.tenant_summaries(&probes);
        freac_probe::assert_ok(&probes);
        Ok(ClusterReport {
            completions,
            sheds,
            shards,
            span_ps,
            steals: probes.counter("cluster.steals"),
            probes,
            tenants,
        })
    }

    /// Writes the per-request tallies to the cluster registry and resets
    /// them.
    fn flush_tallies(&mut self) {
        let (t, probes) = (&mut self.tally, self.probes.sink());
        t.submitted.flush(probes, "cluster.requests.submitted");
        t.completed.flush(probes, "cluster.requests.completed");
        t.shed.flush(probes, "cluster.requests.shed");
        for (si, routed) in t.routed.iter_mut().enumerate() {
            routed.flush(probes, &format!("cluster.route.shard.{si}"));
        }
    }

    /// Every shard's functional phase at once: the passes of all shards
    /// run on `workers` threads, and each shard takes its own passes'
    /// hashes back, in order, and counts them.
    fn run_func_phase(&mut self) -> Result<(), ServeError> {
        let passes: Vec<Vec<FuncPass>> = self
            .shards
            .iter_mut()
            .map(|s| s.server.take_func_passes())
            .collect();
        let mut hashes =
            run_func_passes(self.cfg.workers, passes.iter().flatten().collect()).into_iter();
        for (sh, own) in self.shards.iter_mut().zip(passes) {
            let own_hashes = hashes.by_ref().take(own.len()).collect();
            sh.server.apply_func_hashes(own, own_hashes)?;
        }
        Ok(())
    }

    /// Cluster-wide per-tenant summaries from the merged registry.
    fn tenant_summaries(&self, probes: &CounterRegistry) -> Vec<TenantSummary> {
        self.tenants
            .iter()
            .map(|(name, tenant)| {
                let c = |suffix: &str| probes.counter(&format!("serve.tenant.{name}.{suffix}"));
                let router_shed = self
                    .router_sheds
                    .iter()
                    .filter(|s| s.request.tenant == *name)
                    .count() as u64;
                TenantSummary::new(
                    name,
                    tenant.weight,
                    // Shard `submitted` counts a migrated request twice (a
                    // steal is a fresh submission on the thief); subtract
                    // `stolen` to recover user submissions, then add the
                    // budget sheds no shard ever saw.
                    c("submitted") - c("stolen") + router_shed,
                    c("completed"),
                    c("shed") + router_shed,
                    probes.histogram(&format!("serve.tenant.{name}.latency_ps")),
                )
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

    impl Cluster {
        /// The sequential epoch loop with or without the idle-epoch
        /// fast-forward, counting the epochs it visits. Without it, every
        /// epoch from the one holding the next event on is visited: the
        /// loop before the fast-forward existed, and its reference.
        fn run_counting<F>(&mut self, fast_forward: bool, hook: &mut F) -> u64
        where
            F: FnMut(&Outcome) -> Vec<Request>,
        {
            let epoch = self.cfg.epoch_ps;
            let mut visited = 0;
            while let Some(next) = self.next_event_ps() {
                if fast_forward {
                    self.skip_idle_epochs(next);
                } else if next > self.now {
                    self.now = self.now.max(next - next % epoch);
                }
                let epoch_end = self.now.saturating_add(epoch);
                self.autoscale_epoch().unwrap();
                self.route_arrivals(epoch_end, Some(&mut *hook)).unwrap();
                self.steal_epoch();
                self.pump_shards(epoch_end, Some(&mut *hook)).unwrap();
                self.now = epoch_end;
                visited += 1;
            }
            visited
        }
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
                max_lanes: 1,
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
            .filter(|s| s.probes.counter("serve.requests.completed") > 0)
            .count();
        assert!(
            active > 1,
            "steals should spread work beyond the home shard"
        );
        // A steal releases the identity on the victim shard only; the
        // cluster still holds every identity it was given.
        for r in trace(n, 0) {
            assert!(matches!(
                cluster.submit(r),
                Err(ServeError::DuplicateRequest { .. })
            ));
        }
    }

    #[test]
    fn duplicate_and_unknown_submissions_are_rejected() {
        let mut cluster = cluster_with(ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        });
        let retry = |mut r: Request, retries: u32| {
            r.retries = retries;
            r
        };
        let duplicate_of = |r: Result<(), ServeError>| match r {
            Err(ServeError::DuplicateRequest {
                tenant,
                seq,
                retries,
            }) => (tenant, seq, retries),
            other => panic!("expected DuplicateRequest, got {other:?}"),
        };
        cluster.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        // The same seq on another tenant, or with a higher retry count, is
        // a different identity.
        cluster.submit(Request::new("b", 0, "k", 0, 1)).unwrap();
        cluster
            .submit(retry(Request::new("a", 0, "k", 5, 1), 1))
            .unwrap();
        assert_eq!(
            duplicate_of(cluster.submit(Request::new("a", 0, "k", 5, 2))),
            ("a".to_owned(), 0, 0)
        );
        assert_eq!(
            duplicate_of(cluster.submit(retry(Request::new("a", 0, "k", 9, 2), 1))),
            ("a".to_owned(), 0, 1)
        );
        assert_eq!(
            duplicate_of(cluster.submit(Request::new("b", 0, "k", 9, 2))),
            ("b".to_owned(), 0, 0)
        );
        assert!(matches!(
            cluster.submit(Request::new("nobody", 0, "k", 0, 1)),
            Err(ServeError::UnknownTenant(_))
        ));
        assert!(matches!(
            cluster.submit(Request::new("a", 1, "mystery", 0, 1)),
            Err(ServeError::UnknownKernel(_))
        ));
        let rep = cluster.run_to_completion().unwrap();
        assert_eq!(rep.completions.len() + rep.sheds.len(), 3);
    }

    #[test]
    fn functional_phase_workers_are_byte_identical_to_one() {
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
            // Enough requests that the home shard hashes several passes
            // and every other shard hashes the work it stole.
            for r in trace(3_000, 20_000) {
                cluster.submit(r).unwrap();
            }
            cluster.run_to_completion().unwrap()
        };
        let seq = run(1);
        let par = run(4);
        let passes = |r: &ClusterReport, i: usize| {
            r.probes
                .counter(&format!("cluster.shard.{i}.serve.func.passes"))
        };
        assert!((0..4).all(|i| passes(&seq, i) >= 1));
        assert!((0..4).any(|i| passes(&seq, i) > 1));
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

    /// Everything a drain reports, plus each shard's autoscaler
    /// hysteresis, in comparable form.
    fn fingerprint(c: &Cluster, r: &ClusterReport) -> String {
        let dispatches: Vec<&Vec<crate::server::DispatchRecord>> =
            r.shards.iter().map(|s| &s.dispatches).collect();
        let scale: Vec<&AutoscaleState> = c.shards.iter().map(|s| &s.scale).collect();
        format!(
            "{:?}\n{:?}\n{:?}\n{}\n{:?}\n{}",
            r.completions,
            r.sheds,
            dispatches,
            r.steals,
            scale,
            freac_probe::to_counters_json(&r.probes)
        )
    }

    #[test]
    fn idle_epoch_fast_forward_is_exact() {
        // Slow single-lane service leaves most epochs idle: queued work
        // waits for the next dispatch. Bursts and lulls drive the
        // autoscaler both ways, with thresholds short enough that firings
        // fall inside idle stretches (no-op firings at the ends of the
        // partition ladder included) and long enough that a run must be
        // fed across many skipped epochs; they also open steal
        // imbalances, and a closed-loop hook adds follow-ups mid-run. A
        // 7 ps epoch puts many dispatch instants exactly on an epoch end.
        let steal = Some(StealConfig {
            imbalance: 2,
            max_per_epoch: 2,
        });
        let quick = AutoscaleConfig {
            high_backlog: 6,
            low_backlog: 1,
            up_epochs: 3,
            down_epochs: 5,
            ..AutoscaleConfig::default()
        };
        let patient = AutoscaleConfig {
            high_backlog: 4,
            low_backlog: 1,
            up_epochs: 60,
            down_epochs: 90,
            ..AutoscaleConfig::default()
        };
        let eager = AutoscaleConfig {
            high_backlog: 2,
            low_backlog: 0,
            up_epochs: 1,
            down_epochs: 0,
            max_compute_ways: 8,
            ..AutoscaleConfig::default()
        };
        let configs = [
            (None, None, 1_000, 400),
            (steal, None, 1_000, 400),
            (Some(StealConfig::default()), Some(quick), 1_000, 400),
            (None, Some(eager), 1_000, 400),
            (steal, Some(patient), 1_000, 400),
            (steal, Some(quick), 7, 20),
        ];
        for (steal, autoscale, epoch_ps, cycles_per_item) in configs {
            let cfg = ClusterConfig {
                shards: 3,
                route: RoutePolicy::KernelAffinity { spill_depth: 4 },
                steal,
                autoscale,
                epoch_ps,
                shard: ServeConfig {
                    partition: freac_core::SlicePartition::new(4, 10, 6).unwrap(),
                    slices: 1,
                    queue_depth: 16,
                    max_lanes: 1,
                    ..ServeConfig::default()
                },
                ..ClusterConfig::default()
            };
            let profile = RequestProfile {
                cycles_per_item,
                ..profile()
            };
            let burst_ps = 10_000 * cycles_per_item;
            let build = |workers: usize| {
                let mut c = Cluster::new(ClusterConfig { workers, ..cfg }).unwrap();
                for k in ["j", "k"] {
                    c.register_kernel(k, &tiny_circuit(k), profile).unwrap();
                }
                c.add_tenant("a", 1).unwrap();
                c.add_tenant("b", 2).unwrap();
                for i in 0..120u64 {
                    let arrival = (i / 30) * burst_ps + (i % 30) * 17 * cycles_per_item;
                    let tenant = ["a", "b"][i as usize % 2];
                    let kernel = ["j", "k", "k"][i as usize % 3];
                    c.submit(Request::new(tenant, i, kernel, arrival, i))
                        .unwrap();
                }
                c
            };
            let follow_up = || {
                let mut next = 1_000u64;
                move |o: &Outcome| match o {
                    Outcome::Completed(c) if c.seq % 7 == 0 && next < 1_012 => {
                        next += 1;
                        vec![Request::new("a", next, "j", c.done_ps + 50_000, next)]
                    }
                    _ => Vec::new(),
                }
            };
            let mut reference = build(1);
            let every = reference.run_counting(false, &mut follow_up());
            let report = reference.report().unwrap();
            let want = fingerprint(&reference, &report);
            let mut skipping = build(1);
            let visited = skipping.run_counting(true, &mut follow_up());
            let report = skipping.report().unwrap();
            assert_eq!(fingerprint(&skipping, &report), want, "{cfg:?}");
            assert!(
                visited * 4 < every,
                "{cfg:?}: {visited} of {every} epochs visited"
            );
            for workers in [1, 2] {
                let mut c = build(workers);
                let report = c.run(follow_up()).unwrap();
                assert_eq!(
                    fingerprint(&c, &report),
                    want,
                    "{cfg:?} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn timing_only_clusters_change_function_not_timing() {
        // Two shards that steal, queues that shed, exclusives (two in
        // three) among batched requests; one fresh cluster, cloned, runs
        // with and without the functional phase.
        let mut full = cluster_with(ClusterConfig {
            shards: 2,
            steal: Some(StealConfig {
                imbalance: 4,
                max_per_epoch: 8,
            }),
            shard: ServeConfig {
                slices: 1,
                queue_depth: 64,
                ..ServeConfig::default()
            },
            epoch_ps: 10_000,
            ..ClusterConfig::default()
        });
        let mut timing = full.clone();
        timing.set_timing_only();
        for i in 0..160u64 {
            let at = (i / 40) * 30_000 + i;
            let mut r = Request::new(["a", "b"][i as usize % 2], i, "k", at, 7 * i);
            r.exclusive = i % 3 != 2;
            full.submit(r.clone()).unwrap();
            timing.submit(r).unwrap();
        }
        let want = full.run_to_completion().unwrap();
        let got = timing.run_to_completion().unwrap();
        assert!(!got.sheds.is_empty(), "the run sheds");
        assert!(got.steals > 0, "the run steals");
        assert!(want.completions.iter().all(|c| c.output_hash != 0));
        assert_eq!(got.completions.len(), want.completions.len());
        for (g, w) in got.completions.iter().zip(&want.completions) {
            assert_eq!(g.output_hash, 0, "a timing-only run hashes nothing");
            let unhashed = Completion {
                output_hash: 0,
                ..w.clone()
            };
            assert_eq!(*g, unhashed);
        }
        assert_eq!(got.sheds, want.sheds);
        for (g, w) in got.shards.iter().zip(&want.shards) {
            assert_eq!(g.dispatches, w.dispatches);
        }
        let counters = |r: &ClusterReport, func: bool| -> Vec<(String, u64)> {
            r.probes
                .counters()
                .filter(|(k, _)| k.contains("serve.func.") == func)
                .map(|(k, v)| (k.to_owned(), v))
                .collect()
        };
        assert!(!counters(&want, true).is_empty());
        assert!(counters(&got, true).is_empty(), "no serve.func.* export");
        assert_eq!(counters(&got, false), counters(&want, false));
        let violations = freac_probe::check(&got.probes);
        assert!(violations.is_empty(), "probe laws violated: {violations:?}");
    }

    #[test]
    fn stolen_exclusives_match_the_reference() {
        // Everything lands on the kernel's home shard (unbounded spill),
        // and each epoch steals the newest queued exclusives to the other
        // shard. Each shard's report hashes what completed there.
        let mut cluster = cluster_with(ClusterConfig {
            shards: 2,
            route: RoutePolicy::KernelAffinity {
                spill_depth: usize::MAX,
            },
            // A wide imbalance and a small per-epoch cap keep the steals one
            // way: the home shard never becomes the shallower one.
            steal: Some(StealConfig {
                imbalance: 40,
                max_per_epoch: 8,
            }),
            shard: ServeConfig {
                slices: 1,
                queue_depth: 256,
                ..ServeConfig::default()
            },
            epoch_ps: 10_000,
            ..ClusterConfig::default()
        });
        for i in 0..96u64 {
            let mut r = Request::new(["a", "b"][i as usize % 2], i, "k", 0, 7 * i);
            r.exclusive = i % 6 != 5;
            cluster.submit(r).unwrap();
        }
        let rep = cluster.run_to_completion().unwrap();
        assert_eq!(rep.completions.len(), 96);
        // The kernel's home shard is the victim; the other is the thief.
        let victim = usize::from(rep.shards[0].probes.counter("serve.requests.stolen") == 0);
        let thief = 1 - victim;
        assert_eq!(rep.shards[thief].probes.counter("serve.requests.stolen"), 0);
        let stolen_exclusives = rep.shards[thief]
            .dispatches
            .iter()
            .filter(|d| d.lanes == 1)
            .count();
        assert!(
            stolen_exclusives >= 8,
            "{stolen_exclusives} stolen exclusives ran on the thief"
        );
        let net = cluster.kernel_netlist("k").unwrap();
        let cycles = cluster.kernel_func_cycles("k").unwrap();
        for c in &rep.completions {
            assert_eq!(
                c.output_hash,
                crate::inputs::reference_hash(net, c.seed, cycles).unwrap()
            );
        }
        for sh in &rep.shards {
            assert_eq!(
                sh.probes.counter("serve.func.lanes"),
                sh.probes.counter("serve.requests.completed"),
                "each shard hashes its own completions once"
            );
        }
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
                max_lanes: 1,
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
