//! Representative-interval sampled simulation of open-loop cluster traces.
//!
//! Full-fidelity simulation of a million-request trace costs minutes; most
//! of those requests replay behavior the simulator has already exhibited.
//! Following the SimPoint line of work (see PAPERS.md, "Improving the
//! Representativeness of Simulation Intervals for the Cache Memory
//! System"), this module:
//!
//! 1. splits the trace into fixed-size windows of `window` requests;
//! 2. computes a cheap per-window behavior signature ([`sig`]) from the
//!    same signals the serving probes export — kernel mix, arrival
//!    intensity, fluid queue depths, shed/steal pressure, reconfiguration
//!    churn, way split;
//! 3. clusters the signatures with deterministic seeded k-medoids
//!    ([`kmedoids`], built on `freac-rand`);
//! 4. simulates only each cluster's medoid window at full fidelity,
//!    warmed by replaying the `warmup` requests preceding the window so
//!    queues and residency don't start cold, plus the farthest member of
//!    each multi-window cluster (the *witness*);
//! 5. extrapolates cluster-wide throughput and latency quantiles by
//!    attributing every member window to its nearest simulated exemplar
//!    (medoid or witness) and scaling each exemplar's measurements by the
//!    attributed weight, with per-metric error bounds driven by the
//!    medoid-vs-witness disagreement on the disputed mass (intra-cluster
//!    variance made measurable).
//!
//! Everything is a pure function of the trace, the configuration, and the
//! sampling seed: window order is canonical, k-medoids ties break by
//! index, and medoid simulations are fanned out with an order-preserving
//! parallel map — so two runs (at any worker count) produce byte-identical
//! reports.

mod kmedoids;
mod sig;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use freac_core::{Accelerator, AcceleratorTile};
use freac_experiments::parallel::map_with;
use freac_kernels::{kernel, Kernel, KernelId};
use freac_netlist::{compile, ExecPlan, Netlist};
use freac_probe::{CounterRegistry, Histogram};
use freac_sim::Time;

use crate::cluster::{Cluster, ClusterConfig};
use crate::error::ServeError;
use crate::request::Request;
use crate::server::{FluidEstimate, RequestProfile, Server};

use kmedoids::{k_medoids, Clustering, DistMatrix};
use sig::{feature_names, normalize, window_signatures, WindowSig};

/// Safety multiplier on the observed medoid-vs-witness disagreement.
const BOUND_SAFETY: f64 = 2.0;
/// Relative floor added to every bound: clusters can be homogeneous by
/// luck, but quantile interpolation on power-of-two buckets still wobbles.
const BOUND_REL_FLOOR: f64 = 0.04;
/// Cap on the window count — the distance matrix is dense, and more
/// windows than this means the window size is too small to be cheap.
const MAX_WINDOWS: usize = 2048;

/// How a trace is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Requests per window (>= 16). The last window keeps the remainder.
    pub window: usize,
    /// Maximum clusters (k for k-medoids, clamped to the window count).
    pub max_clusters: usize,
    /// Minimum requests replayed before each simulated window to warm
    /// queues and kernel residency. The effective prefix extends
    /// adaptively until every kernel's admission queues could have
    /// refilled (saturated windows need `shards * queue_depth` preceding
    /// requests per kernel), capped at four times the cluster's total
    /// admission capacity.
    pub warmup: usize,
    /// Seed for the k-medoids++ draws.
    pub seed: u64,
    /// Worker threads for the medoid simulations (order-preserving fan
    /// out; results are identical at any worker count).
    pub workers: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            window: 1024,
            max_clusters: 8,
            warmup: 512,
            seed: 0x5a3b_1e5d_0000_0001,
            workers: 1,
        }
    }
}

impl SampleConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.window < 16 {
            return Err(ServeError::BadConfig(format!(
                "sample window must be >= 16 requests, got {}",
                self.window
            )));
        }
        if self.max_clusters == 0 {
            return Err(ServeError::BadConfig(
                "sample max_clusters must be >= 1".into(),
            ));
        }
        if self.workers == 0 {
            return Err(ServeError::BadConfig("sample workers must be >= 1".into()));
        }
        Ok(())
    }
}

/// An extrapolated metric with its declared absolute error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricEstimate {
    /// The extrapolated value.
    pub value: f64,
    /// Absolute bound: the full-fidelity value is declared to lie within
    /// `value ± bound`.
    pub bound: f64,
}

impl MetricEstimate {
    /// Whether `actual` falls within the declared bound.
    pub fn covers(&self, actual: f64) -> bool {
        (actual - self.value).abs() <= self.bound
    }

    /// The bound as a fraction of the estimate (0 when the estimate is 0).
    pub fn rel_bound(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            self.bound / self.value
        }
    }
}

/// One signature cluster in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleCluster {
    /// Window index of the simulated representative.
    pub medoid: usize,
    /// Window index of the simulated farthest member, when the cluster has
    /// more than one window.
    pub witness: Option<usize>,
    /// Member window indices, ascending.
    pub members: Vec<usize>,
    /// Requests represented by this cluster (sum of member window sizes).
    pub requests: u64,
}

/// The result of a sampled run: extrapolated cluster-wide metrics, their
/// bounds, and the evidence (clusters, simulated windows, probes).
#[derive(Debug, Clone)]
pub struct SampleReport {
    /// Requests in the trace.
    pub trace_requests: u64,
    /// Window size the trace was split at.
    pub window_size: usize,
    /// Number of windows.
    pub windows: usize,
    /// The signature clusters, dense cluster order.
    pub clusters: Vec<SampleCluster>,
    /// Windows simulated at full fidelity (medoids + witnesses).
    pub simulated_windows: usize,
    /// Requests actually pushed through full simulation, warmup included.
    pub simulated_requests: u64,
    /// Extrapolated completion count (conserves: `est_completed +
    /// est_shed == trace_requests`).
    pub est_completed: u64,
    /// Extrapolated shed count.
    pub est_shed: u64,
    /// Extrapolated end-to-end latency quantiles, picoseconds.
    pub p50_ps: MetricEstimate,
    /// See [`SampleReport::p50_ps`].
    pub p95_ps: MetricEstimate,
    /// See [`SampleReport::p50_ps`].
    pub p99_ps: MetricEstimate,
    /// Extrapolated sustained throughput, requests per simulated second.
    pub throughput_rps: MetricEstimate,
    /// The extrapolated latency mixture (medoid histograms scaled by
    /// cluster weight), also exported as `serve.sample.latency_ps`.
    pub latency: Histogram,
    /// The `serve.sample.*` namespace: window/cluster accounting and the
    /// per-window signature distributions, subject to the probe
    /// conservation law (cluster request counts sum to the trace length).
    pub probes: CounterRegistry,
}

impl SampleReport {
    /// A fixed-width, byte-stable summary (CI diffs it across worker
    /// counts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sampled: {} requests in {} windows x {} requests, {} clusters, {} windows simulated ({} requests incl. warmup)\n",
            self.trace_requests,
            self.windows,
            self.window_size,
            self.clusters.len(),
            self.simulated_windows,
            self.simulated_requests,
        ));
        out.push_str(&format!(
            "est: {} completed, {} shed, {:.1} +- {:.1} req/s\n",
            self.est_completed, self.est_shed, self.throughput_rps.value, self.throughput_rps.bound,
        ));
        out.push_str(&format!(
            "est: p50 {} +- {} us, p95 {} +- {} us, p99 {} +- {} us\n",
            us(self.p50_ps.value),
            us(self.p50_ps.bound),
            us(self.p95_ps.value),
            us(self.p95_ps.bound),
            us(self.p99_ps.value),
            us(self.p99_ps.bound),
        ));
        out
    }
}

/// Renders a picosecond estimate as fixed-precision microseconds
/// (deterministic integer math after one rounding).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn us(ps: f64) -> String {
    let v = if ps.is_finite() && ps > 0.0 {
        (ps + 0.5) as u64
    } else {
        0
    };
    format!("{}.{:03}", v / 1_000_000, (v % 1_000_000) / 1_000)
}

/// The sampled-mode runner: configured like a [`Cluster`] (same kernels,
/// tenants, shard policies), but [`SampledServer::run`] samples the trace
/// instead of replaying all of it.
pub struct SampledServer {
    cluster: ClusterConfig,
    cfg: SampleConfig,
    /// Kernel name → (mapped accelerator, compiled plan, profile); plans
    /// compile once here and are shared by every replica cluster.
    kernels: BTreeMap<String, (Arc<Accelerator>, Arc<ExecPlan>, RequestProfile)>,
    tenants: BTreeMap<String, u64>,
}

impl SampledServer {
    /// A sampled runner over `cluster`-shaped shards.
    ///
    /// # Errors
    ///
    /// Rejects invalid cluster or sampling configurations.
    pub fn new(cluster: ClusterConfig, cfg: SampleConfig) -> Result<Self, ServeError> {
        cluster.validate()?;
        cfg.validate()?;
        Ok(SampledServer {
            cluster,
            cfg,
            kernels: BTreeMap::new(),
            tenants: BTreeMap::new(),
        })
    }

    /// The sampling configuration.
    pub fn config(&self) -> &SampleConfig {
        &self.cfg
    }

    /// Maps `circuit` once and registers it for every replica cluster.
    ///
    /// # Errors
    ///
    /// See [`Cluster::register_kernel`].
    pub fn register_kernel(
        &mut self,
        name: &str,
        circuit: &Netlist,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        let tile = AcceleratorTile::new(self.cluster.shard.tile_mccs)?;
        let accel = Accelerator::map_shared(circuit, &tile)?;
        self.register_accelerator(name, accel, profile)
    }

    /// Registers an already-mapped accelerator; its batch plan is compiled
    /// once, here.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and plan-compile failures.
    pub fn register_accelerator(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        if self.kernels.contains_key(name) {
            return Err(ServeError::DuplicateKernel(name.to_owned()));
        }
        let plan = Arc::new(compile(accel.netlist())?);
        self.kernels.insert(name.to_owned(), (accel, plan, profile));
        Ok(())
    }

    /// Registers one of the paper's benchmark kernels under its lowercase
    /// figure name.
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

    /// Adds a tenant for every replica cluster.
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
        self.tenants.insert(name.to_owned(), weight);
        Ok(())
    }

    /// Samples `trace` (an open-loop request set): windows, signatures,
    /// k-medoids, medoid + witness simulation, extrapolation.
    ///
    /// # Errors
    ///
    /// Rejects traces referencing unregistered tenants/kernels, duplicate
    /// `(tenant, seq)` identities (sampled mode is open-loop: retries of
    /// the same sequence number would make window extrapolation
    /// ill-defined), and window sizes that shatter the trace into more
    /// than a few thousand windows.
    pub fn run(&self, trace: &[Request]) -> Result<SampleReport, ServeError> {
        let mut trace: Vec<Request> = trace.to_vec();
        trace.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        let mut ids: BTreeSet<(&str, u64)> = BTreeSet::new();
        for r in &trace {
            if !self.tenants.contains_key(&r.tenant) {
                return Err(ServeError::UnknownTenant(r.tenant.clone()));
            }
            if !self.kernels.contains_key(&r.kernel) {
                return Err(ServeError::UnknownKernel(r.kernel.clone()));
            }
            if !ids.insert((r.tenant.as_str(), r.seq)) {
                return Err(ServeError::BadConfig(format!(
                    "sampled traces need unique (tenant, seq): '{}' seq {} repeats",
                    r.tenant, r.seq
                )));
            }
        }
        drop(ids);
        if trace.is_empty() {
            return Ok(self.empty_report());
        }
        let n_windows = trace.len().div_ceil(self.cfg.window);
        if n_windows > MAX_WINDOWS {
            return Err(ServeError::BadConfig(format!(
                "trace of {} requests at window {} yields {} windows (max {}); raise the window size",
                trace.len(),
                self.cfg.window,
                n_windows,
                MAX_WINDOWS
            )));
        }

        // Signatures, normalized, clustered.
        let kernel_names: Vec<String> = self.kernels.keys().cloned().collect();
        let estimates = self.fluid_estimates()?;
        let sigs = window_signatures(
            &trace,
            self.cfg.window,
            &kernel_names,
            &estimates,
            &self.cluster,
        );
        debug_assert_eq!(sigs.len(), n_windows);
        let points = normalize(&sigs);
        let dist = DistMatrix::new(&points);
        let clustering = k_medoids(&dist, self.cfg.max_clusters, self.cfg.seed);
        let clusters = dense_clusters(&clustering, &dist, &sigs);

        // Simulate medoids and witnesses at full fidelity, order-preserving
        // fan-out.
        let mut to_simulate: Vec<usize> = Vec::new();
        for c in &clusters {
            to_simulate.push(c.medoid);
            if let Some(w) = c.witness {
                to_simulate.push(w);
            }
        }
        to_simulate.sort_unstable();
        to_simulate.dedup();
        let trace_ref = &trace;
        // A caught-up replica replays its warm prefix at true arrival
        // spacing, then rests this long before the window starts: enough
        // for every cold-slice setup the prefix triggered to finish (twice
        // the worst reconfiguration quote) and for the prefix backlog to
        // drain (un-amortized worst-case service per warm request).
        // Rounded up to the epoch grid: routing and stealing happen at
        // epoch boundaries, so the event loop is time-translation
        // invariant only under shifts that are multiples of `epoch_ps` —
        // any other shift would change which arrivals share a routing
        // round and perturb the window being measured.
        let epoch = self.cluster.epoch_ps.max(1);
        let boot_ps = estimates
            .values()
            .map(|e| e.setup_ps.max(e.swap_ps))
            .max()
            .unwrap_or(0)
            .saturating_mul(2)
            .saturating_add(
                (self.cfg.warmup as Time)
                    .saturating_mul(estimates.values().map(|e| e.service_ps).max().unwrap_or(1)),
            )
            .max(1)
            .div_ceil(epoch)
            .saturating_mul(epoch);
        let sig_extent: Vec<(usize, usize, f64, bool)> = sigs
            .iter()
            .map(|s| (s.start, s.len, s.start_depth_max, s.start_frozen))
            .collect();
        let sim_results: Vec<Result<WindowMetrics, ServeError>> =
            map_with(self.cfg.workers, to_simulate.clone(), move |w: usize| {
                let (start, len, start_depth, start_frozen) = sig_extent[w];
                self.simulate_window(trace_ref, start, len, start_depth, start_frozen, boot_ps)
            });
        let mut metrics: BTreeMap<usize, WindowMetrics> = BTreeMap::new();
        for (w, r) in to_simulate.iter().zip(sim_results) {
            metrics.insert(*w, r?);
        }

        self.extrapolate(&trace, &sigs, clusters, &metrics, &dist)
    }

    /// Per-kernel fluid cost models from a scratch shard (plans are
    /// pre-compiled, so this costs registration bookkeeping only).
    fn fluid_estimates(&self) -> Result<BTreeMap<String, FluidEstimate>, ServeError> {
        let mut server = Server::new(self.cluster.shard)?;
        for (name, (accel, plan, profile)) in &self.kernels {
            server.register_prepared(name, Arc::clone(accel), Arc::clone(plan), *profile)?;
        }
        Ok(self
            .kernels
            .keys()
            .map(|k| {
                let est = server
                    .kernel_fluid_estimate(k)
                    .expect("kernel was just registered");
                (k.clone(), est)
            })
            .collect())
    }

    /// Builds one replica cluster with the shared kernel set and tenants.
    fn build_cluster(&self) -> Result<Cluster, ServeError> {
        // Replicas are pumped from the sampling worker pool; keep each
        // replica itself sequential rather than oversubscribing.
        let mut cluster = Cluster::new(ClusterConfig {
            workers: 1,
            ..self.cluster
        })?;
        for (name, (accel, plan, profile)) in &self.kernels {
            cluster.register_prepared(name, Arc::clone(accel), Arc::clone(plan), *profile)?;
        }
        for (name, &weight) in &self.tenants {
            cluster.add_tenant(name, weight)?;
        }
        Ok(cluster)
    }

    /// Picks how far before `start` the warm replay must begin.
    ///
    /// `cfg.warmup` is a floor. Under saturation the full run's admission
    /// queues hold `shards * queue_depth` requests per kernel, and a
    /// replica warmed with fewer than that admits (and completes) far more
    /// of its window than the full run would. So the warm prefix extends
    /// backwards until every kernel seen in the walk has enough preceding
    /// requests to refill its queues, capped at four times the cluster's
    /// total admission capacity (a kernel too rare to hit the target by
    /// then cannot have kept its queues full either).
    fn warmup_len(&self, trace: &[Request], start: usize) -> usize {
        let per_kernel = self.cluster.shards * self.cluster.shard.queue_depth;
        let cap = (4 * self.kernels.len() * per_kernel).max(self.cfg.warmup);
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        let mut walked = 0usize;
        while walked < cap && walked < start {
            let r = &trace[start - walked - 1];
            *counts.entry(r.kernel.as_str()).or_insert(0) += 1;
            walked += 1;
            if walked >= self.cfg.warmup && counts.values().all(|&c| c >= per_kernel) {
                break;
            }
        }
        walked
    }

    /// Simulates one window at full fidelity: replay a warm prefix before
    /// it to reconstruct queue and residency state, then measure only the
    /// window's own requests.
    ///
    /// The warmup has two modes, picked by the fluid model's queue-depth
    /// estimate at the window's first arrival:
    ///
    /// * **Saturated** (fluid depth at or past half the admission queue): the
    ///   full run enters this window with queues holding `shards *
    ///   queue_depth` requests per hot kernel, so the warm prefix replays
    ///   enough preceding requests, at their true arrival times, to refill
    ///   them ([`Self::warmup_len`]).
    /// * **Caught up**: the full run enters the window with residency
    ///   spread by history (the boot transient's spills configured every
    ///   shard the steady state leans on) and queues at their equilibrium
    ///   occupancy. The warm prefix replays in two segments, both at true
    ///   (dense) arrival times: a *residency burst* whose spills re-create
    ///   the residency spread, then — after a `boot_ps` rest that absorbs
    ///   the burst's cold setups and backlog — a *pressure segment* shifted
    ///   to end flush against the window, rebuilding equilibrium queue
    ///   occupancy so the window doesn't open on artificially empty
    ///   shards. The shift is safe because it is a whole number of epochs:
    ///   routing and stealing act on epoch boundaries, so only
    ///   epoch-multiple translations leave the measured window's dynamics
    ///   intact. Deadlines (absolute) move by the same delta as their
    ///   arrivals.
    fn simulate_window(
        &self,
        trace: &[Request],
        start: usize,
        len: usize,
        start_depth: f64,
        start_frozen: bool,
        boot_ps: Time,
    ) -> Result<WindowMetrics, ServeError> {
        // Half the admission queue is the discriminator: a saturated full
        // run enters its windows with queues pinned at `queue_depth`
        // (shedding), a caught-up one hovers no deeper than the affinity
        // spill threshold. Halfway between is far from both attractors.
        let saturated = start_frozen || start_depth >= self.cluster.shard.queue_depth as f64 / 2.0;
        // Caught-up prefixes split in two: a residency burst (replayed
        // first, absorbed during the boot gap) and a pressure segment
        // (replayed flush against the window so queue occupancy enters at
        // its equilibrium level, not from empty).
        let pressure = self.cfg.warmup.min(start / 2);
        let warm = if saturated {
            self.warmup_len(trace, start)
        } else {
            (2 * self.cfg.warmup).min(start)
        };
        let warm_start = start - warm;
        let end = start + len;
        let mut cluster = self.build_cluster()?;
        let mut shift: Time = 0;
        if saturated {
            for r in &trace[warm_start..end] {
                cluster.submit(r.clone())?;
            }
        } else {
            shift = boot_ps;
            let retime = |r: &Request, arrival: Time| -> Request {
                let mut r = r.clone();
                if let Some(d) = r.deadline_ps {
                    let slack = d.saturating_sub(r.arrival_ps);
                    r.deadline_ps = Some(arrival.saturating_add(slack));
                }
                r.arrival_ps = arrival;
                r
            };
            for r in &trace[warm_start..start - pressure] {
                cluster.submit(r.clone())?;
            }
            for r in &trace[start - pressure..end] {
                cluster.submit(retime(r, r.arrival_ps.saturating_add(shift)))?;
            }
        }
        let rep = cluster.run_to_completion()?;
        let ids: BTreeSet<(&str, u64)> = trace[start..end]
            .iter()
            .map(|r| (r.tenant.as_str(), r.seq))
            .collect();
        let first_arrival = trace[start].arrival_ps + shift;
        let last_arrival = trace[end - 1].arrival_ps + shift;
        let mut latency = Histogram::default();
        let mut completed = 0u64;
        let mut last_done = 0u64;
        for c in &rep.completions {
            if ids.contains(&(c.tenant.as_str(), c.seq)) {
                latency.observe(c.latency_ps());
                completed += 1;
                last_done = last_done.max(c.done_ps);
            }
        }
        debug_assert_eq!(
            completed
                + rep
                    .sheds
                    .iter()
                    .filter(|s| ids.contains(&(s.request.tenant.as_str(), s.request.seq)))
                    .count() as u64,
            len as u64,
            "every window request terminates exactly once"
        );
        let span = last_done.saturating_sub(first_arrival);
        let throughput_rps = if span == 0 {
            0.0
        } else {
            completed as f64 * 1e12 / span as f64
        };
        Ok(WindowMetrics {
            simulated: (end - warm_start) as u64,
            saturated,
            completed,
            latency,
            tail_ps: last_done.saturating_sub(last_arrival),
            throughput_rps,
        })
    }

    /// Scales exemplar measurements by attributed cluster weight into
    /// trace-wide estimates, derives bounds from witness disagreement, and
    /// exports the `serve.sample.*` namespace.
    ///
    /// Each cluster has up to two simulated exemplars: the medoid (its
    /// centre) and the witness (its farthest member). Every member window
    /// is attributed to whichever exemplar it is nearer in signature
    /// space, and each exemplar's measurements enter the mixture with its
    /// attributed weight. A cluster holding a fast majority and a slow
    /// fringe — k-medoids keeps such shapes together whenever `k` is
    /// smaller than the number of behavior regimes — then contributes
    /// fringe-sized slow mass instead of betting the whole cluster on the
    /// medoid's draw.
    fn extrapolate(
        &self,
        trace: &[Request],
        sigs: &[WindowSig],
        clusters: Vec<SampleCluster>,
        metrics: &BTreeMap<usize, WindowMetrics>,
        dist: &DistMatrix,
    ) -> Result<SampleReport, ServeError> {
        let n = trace.len() as u64;
        let total_windows = sigs.len() as f64;

        // Extrapolated counts and the latency mixture.
        let mut est_completed_f = 0.0f64;
        let mut mix_buckets: BTreeMap<usize, u64> = BTreeMap::new();
        let mut mix_sum = 0u64;
        let mut mix_min: Option<u64> = None;
        let mut mix_max: Option<u64> = None;
        let mut est_tail = 0.0f64;
        // Per cluster: (exemplar window, attributed windows, attributed
        // requests) for each simulated exemplar.
        let cluster_parts: Vec<Vec<(usize, u64, f64)>> = clusters
            .iter()
            .map(|c| match c.witness {
                None => vec![(c.medoid, c.members.len() as u64, c.requests as f64)],
                Some(wit) => {
                    let (mut med_w, mut wit_w) = (0u64, 0u64);
                    let (mut med_r, mut wit_r) = (0.0f64, 0.0f64);
                    for &m in &c.members {
                        // Ties go to the medoid, the cluster's centre.
                        if dist.get(m, wit) < dist.get(m, c.medoid) {
                            wit_w += 1;
                            wit_r += sigs[m].len as f64;
                        } else {
                            med_w += 1;
                            med_r += sigs[m].len as f64;
                        }
                    }
                    vec![(c.medoid, med_w, med_r), (wit, wit_w, wit_r)]
                }
            })
            .collect();
        for parts in &cluster_parts {
            for &(exemplar, weight, requests) in parts {
                if weight == 0 {
                    continue;
                }
                let m = &metrics[&exemplar];
                let exemplar_len = sigs[exemplar].len.max(1) as f64;
                est_completed_f += requests / exemplar_len * m.completed as f64;
                est_tail += (weight as f64 / total_windows) * m.tail_ps as f64;
                for (b, count) in m.latency.nonzero_buckets() {
                    *mix_buckets.entry(b).or_insert(0) += count.saturating_mul(weight);
                }
                mix_sum = mix_sum.saturating_add(m.latency.sum().saturating_mul(weight));
                if let Some(lo) = m.latency.min() {
                    mix_min = Some(mix_min.map_or(lo, |v| v.min(lo)));
                }
                if let Some(hi) = m.latency.max() {
                    mix_max = Some(mix_max.map_or(hi, |v| v.max(hi)));
                }
            }
        }
        let bucket_pairs: Vec<(usize, u64)> = mix_buckets.into_iter().collect();
        let latency = Histogram::from_parts(&bucket_pairs, mix_sum, mix_min, mix_max)
            .map_err(ServeError::BadConfig)?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let est_completed = (est_completed_f + 0.5) as u64;
        let est_completed = est_completed.min(n);
        let est_shed = n - est_completed;

        // Quantile estimates with witness-disagreement bounds. The
        // disagreement is weighted by the mass actually in dispute between
        // a cluster's two exemplars — the smaller attributed share — since
        // attribution already hands each exemplar its own members; only
        // windows that could plausibly sit in either mode drive the
        // uncertainty.
        let disputed: Vec<f64> = cluster_parts
            .iter()
            .map(|parts| {
                parts.iter().map(|&(_, w, _)| w).min().unwrap_or(0) as f64
                    * if parts.len() > 1 { 1.0 } else { 0.0 }
            })
            .collect();
        let quantile = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
        let bound_for = |value: f64, dev: f64| BOUND_SAFETY * dev + BOUND_REL_FLOOR * value;
        let mut estimates: Vec<MetricEstimate> = Vec::new();
        for q in [0.5, 0.95, 0.99] {
            let value = quantile(&latency, q);
            let mut dev = 0.0f64;
            for (c, &fringe) in clusters.iter().zip(&disputed) {
                let Some(w) = c.witness else { continue };
                let mq = quantile(&metrics[&c.medoid].latency, q);
                let wq = quantile(&metrics[&w].latency, q);
                dev += (fringe / total_windows) * (mq - wq).abs();
            }
            estimates.push(MetricEstimate {
                value,
                bound: bound_for(value, dev),
            });
        }

        let last_arrival = trace.last().expect("non-empty trace").arrival_ps;
        let est_span = last_arrival as f64 + est_tail;
        let tput_value = if est_span <= 0.0 {
            0.0
        } else {
            est_completed as f64 * 1e12 / est_span
        };
        let mut tput_dev = 0.0f64;
        for (c, &fringe) in clusters.iter().zip(&disputed) {
            let Some(w) = c.witness else { continue };
            tput_dev += (fringe / total_windows)
                * (metrics[&c.medoid].throughput_rps - metrics[&w].throughput_rps).abs();
        }
        let throughput_rps = MetricEstimate {
            value: tput_value,
            bound: bound_for(tput_value, tput_dev),
        };

        let simulated_windows = metrics.len();
        let saturated_windows = metrics.values().filter(|m| m.saturated).count();
        let simulated_requests: u64 = metrics.values().map(|m| m.simulated).sum();

        let probes = self.export_probes(
            trace,
            sigs,
            &clusters,
            &latency,
            (simulated_windows, saturated_windows),
            simulated_requests,
            est_completed,
            est_shed,
            (&estimates, &throughput_rps),
        );
        freac_probe::assert_ok(&probes);
        freac_probe::global::merge(&probes);

        Ok(SampleReport {
            trace_requests: n,
            window_size: self.cfg.window,
            windows: sigs.len(),
            clusters,
            simulated_windows,
            simulated_requests,
            est_completed,
            est_shed,
            p50_ps: estimates[0],
            p95_ps: estimates[1],
            p99_ps: estimates[2],
            throughput_rps,
            latency,
            probes,
        })
    }

    /// Builds the `serve.sample.*` registry: window/cluster accounting
    /// counters (subject to the conservation law), the per-window
    /// signature distributions, and the extrapolated estimates as gauges.
    #[allow(
        clippy::too_many_arguments,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    fn export_probes(
        &self,
        trace: &[Request],
        sigs: &[WindowSig],
        clusters: &[SampleCluster],
        latency: &Histogram,
        (simulated_windows, saturated_windows): (usize, usize),
        simulated_requests: u64,
        est_completed: u64,
        est_shed: u64,
        (quantiles, throughput): (&[MetricEstimate], &MetricEstimate),
    ) -> CounterRegistry {
        let mut reg = CounterRegistry::new();
        reg.add("serve.sample.trace.requests", trace.len() as u64);
        reg.add("serve.sample.windows", sigs.len() as u64);
        reg.add("serve.sample.window_size", self.cfg.window as u64);
        reg.add("serve.sample.clusters", clusters.len() as u64);
        reg.add("serve.sample.simulated.windows", simulated_windows as u64);
        reg.add(
            "serve.sample.simulated.saturated_windows",
            saturated_windows as u64,
        );
        reg.add("serve.sample.simulated.requests", simulated_requests);
        reg.add("serve.sample.est.completed", est_completed);
        reg.add("serve.sample.est.shed", est_shed);
        for (c, info) in clusters.iter().enumerate() {
            reg.add(
                &format!("serve.sample.cluster.{c}.windows"),
                info.members.len() as u64,
            );
            reg.add(&format!("serve.sample.cluster.{c}.requests"), info.requests);
            reg.add(
                &format!("serve.sample.cluster.{c}.medoid"),
                info.medoid as u64,
            );
        }
        let kernel_names: Vec<String> = self.kernels.keys().cloned().collect();
        let names = feature_names(&kernel_names);
        for s in sigs {
            for (name, &f) in names.iter().zip(s.features.iter()) {
                // Milli-unit fixed point keeps fractions visible in an
                // integer histogram.
                reg.observe(
                    &format!("serve.sample.sig.{name}"),
                    (f * 1000.0 + 0.5) as u64,
                );
            }
        }
        for (name, est) in [
            ("p50_ps", quantiles[0]),
            ("p95_ps", quantiles[1]),
            ("p99_ps", quantiles[2]),
            ("throughput_rps", *throughput),
        ] {
            reg.set_gauge(&format!("serve.sample.{name}"), est.value);
            reg.set_gauge(&format!("serve.sample.{name}.bound"), est.bound);
        }
        reg.merge_histogram("serve.sample.latency_ps", latency);
        reg
    }

    fn empty_report(&self) -> SampleReport {
        let zero = MetricEstimate {
            value: 0.0,
            bound: 0.0,
        };
        let mut probes = CounterRegistry::new();
        probes.add("serve.sample.trace.requests", 0);
        SampleReport {
            trace_requests: 0,
            window_size: self.cfg.window,
            windows: 0,
            clusters: Vec::new(),
            simulated_windows: 0,
            simulated_requests: 0,
            est_completed: 0,
            est_shed: 0,
            p50_ps: zero,
            p95_ps: zero,
            p99_ps: zero,
            throughput_rps: zero,
            latency: Histogram::default(),
            probes,
        }
    }
}

/// Full-fidelity measurements of one simulated window.
struct WindowMetrics {
    /// Requests pushed through the replica cluster (warmup + window).
    simulated: u64,
    /// Whether the fluid model classified the window as saturated (warmed
    /// by queue refill rather than a paced residency prefix).
    saturated: bool,
    completed: u64,
    latency: Histogram,
    /// Drain beyond the window's last arrival.
    tail_ps: Time,
    /// Window-local completion throughput.
    throughput_rps: f64,
}

/// Drops empty medoid slots (possible when identical windows collapse) and
/// renumbers clusters densely, with members in ascending window order.
fn dense_clusters(
    clustering: &Clustering,
    dist: &DistMatrix,
    sigs: &[WindowSig],
) -> Vec<SampleCluster> {
    let mut out = Vec::new();
    for c in 0..clustering.medoids.len() {
        let members = clustering.members(c);
        if members.is_empty() {
            continue;
        }
        let requests: u64 = members.iter().map(|&w| sigs[w].len as u64).sum();
        out.push(SampleCluster {
            medoid: clustering.medoids[c],
            witness: clustering.witness(c, dist),
            members,
            requests,
        });
    }
    out
}

// Unit tests live in `tests/sample_properties.rs` (they need full traces);
// the pieces (signatures, k-medoids) are tested in their own modules.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use crate::server::ServeConfig;
    use freac_netlist::builder::CircuitBuilder;
    use freac_netlist::Netlist;

    fn tiny_circuit(name: &str) -> Netlist {
        let mut b = CircuitBuilder::new(name);
        let a = b.word_input("a", 8);
        let x = b.word_input("x", 8);
        let s = b.add(&a, &x);
        b.word_output("s", &s);
        b.finish().unwrap()
    }

    fn runner(window: usize) -> SampledServer {
        let mut s = SampledServer::new(
            ClusterConfig {
                shards: 2,
                shard: ServeConfig {
                    queue_depth: 128,
                    shed: ShedPolicy::RejectNew,
                    ..ServeConfig::default()
                },
                ..ClusterConfig::default()
            },
            SampleConfig {
                window,
                max_clusters: 4,
                warmup: window / 2,
                workers: 1,
                ..SampleConfig::default()
            },
        )
        .unwrap();
        s.register_kernel(
            "k",
            &tiny_circuit("k"),
            RequestProfile {
                cycles_per_item: 2,
                read_words: 4,
                write_words: 2,
            },
        )
        .unwrap();
        s.add_tenant("a", 1).unwrap();
        s
    }

    fn trace(n: u64, gap: Time) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new("a", i, "k", i * gap, i))
            .collect()
    }

    #[test]
    fn conservation_and_window_accounting_hold() {
        let s = runner(32);
        let rep = s.run(&trace(200, 100_000)).unwrap();
        assert_eq!(rep.trace_requests, 200);
        assert_eq!(rep.windows, 7, "200 requests at window 32 is 7 windows");
        assert_eq!(rep.est_completed + rep.est_shed, 200);
        let cluster_sum: u64 = rep.clusters.iter().map(|c| c.requests).sum();
        assert_eq!(cluster_sum, 200, "cluster request counts must conserve");
        let errors = freac_probe::check(&rep.probes);
        assert!(errors.is_empty(), "probe laws violated: {errors:?}");
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let s = runner(32);
        let t = trace(300, 60_000);
        let a = s.run(&t).unwrap();
        let b = s.run(&t).unwrap();
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.p99_ps, b.p99_ps);
        assert_eq!(
            freac_probe::to_counters_json(&a.probes),
            freac_probe::to_counters_json(&b.probes)
        );
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let mut cfg = runner(32);
        let t = trace(300, 60_000);
        let a = cfg.run(&t).unwrap();
        cfg.cfg.workers = 4;
        let b = cfg.run(&t).unwrap();
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.p50_ps, b.p50_ps);
        assert_eq!(a.p95_ps, b.p95_ps);
        assert_eq!(a.p99_ps, b.p99_ps);
        assert_eq!(
            freac_probe::to_counters_json(&a.probes),
            freac_probe::to_counters_json(&b.probes)
        );
    }
    #[test]
    fn duplicate_identities_are_rejected() {
        let s = runner(32);
        let mut t = trace(40, 10_000);
        t[5].seq = 4; // collides with request 4
        let err = s.run(&t).unwrap_err();
        assert!(matches!(err, ServeError::BadConfig(_)));
    }

    #[test]
    fn single_window_trace_is_exact() {
        let s = runner(64);
        let t = trace(50, 100_000);
        let rep = s.run(&t).unwrap();
        assert_eq!(rep.windows, 1);
        assert_eq!(rep.clusters.len(), 1);
        // One window, simulated fully: the estimate is the measurement.
        assert_eq!(rep.est_completed, 50);
    }
}
