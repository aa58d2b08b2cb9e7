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
//!    churn, way split — in the same pass over the trace that resolves
//!    each request's tenant and kernel and checks its identity;
//! 3. clusters the signatures with deterministic seeded k-medoids
//!    ([`kmedoids`], built on `freac-rand`);
//! 4. simulates each cluster's medoid window and the farthest member of
//!    each multi-window cluster (the *witness*) at full fidelity. Adjacent
//!    simulated windows coalesce into one segment, replayed on a clone of
//!    one timing-only template cluster (estimates never read output
//!    hashes) after a warm prefix that rebuilds queues and residency. A
//!    segment opening the trace has no prefix and replays unshifted, so a
//!    run that simulates every window replays the trace exactly;
//! 5. extrapolates cluster-wide throughput and latency quantiles by
//!    attributing every member window to its nearest simulated exemplar
//!    (a simulated window to itself) and scaling each exemplar's
//!    measurements by the attributed weight, with per-metric error bounds
//!    driven by the medoid-vs-witness disagreement on the disputed mass
//!    (intra-cluster variance made measurable).
//!
//! Everything is a pure function of the trace, the configuration, and the
//! sampling seed: window order is canonical, k-medoids ties break by
//! index, and segments are simulated with an order-preserving parallel
//! map — so two runs (at any worker count) produce byte-identical reports.

mod kmedoids;
mod sig;

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use freac_core::Accelerator;
use freac_experiments::parallel::map_with;
use freac_kernels::KernelId;
use freac_netlist::Netlist;
use freac_probe::{CounterRegistry, Histogram};
use freac_sim::Time;

use crate::cluster::{Cluster, ClusterConfig};
use crate::error::ServeError;
use crate::request::Request;
use crate::server::RequestProfile;

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
    /// Worker threads for the segment simulations (order-preserving fan
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
/// bounds, and the evidence (clusters, simulated windows, probes). The
/// default is the report of an empty trace.
#[derive(Debug, Clone, Default)]
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
    /// The extrapolated latency mixture (exemplar histograms scaled by
    /// attributed weight), also exported as `serve.sample.latency_ps`.
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
    /// The cluster every simulated window clones: timing-only (the
    /// estimates read simulated timing alone) and single-threaded (windows
    /// fan out over the sampling workers instead). Registration goes
    /// straight to it, so plans compile once and every clone shares them.
    template: Cluster,
    cfg: SampleConfig,
}

impl SampledServer {
    /// A sampled runner over `cluster`-shaped shards.
    ///
    /// # Errors
    ///
    /// Rejects invalid cluster or sampling configurations.
    pub fn new(cluster: ClusterConfig, cfg: SampleConfig) -> Result<Self, ServeError> {
        let mut template = Cluster::new(ClusterConfig {
            workers: 1,
            ..cluster
        })?;
        template.set_timing_only();
        cfg.validate()?;
        Ok(SampledServer { template, cfg })
    }

    /// The sampling configuration.
    pub fn config(&self) -> &SampleConfig {
        &self.cfg
    }

    /// Maps `circuit` once and registers it for every simulated window.
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
        self.template.register_kernel(name, circuit, profile)
    }

    /// Registers an already-mapped accelerator; its batch plan is compiled
    /// once, here.
    ///
    /// # Errors
    ///
    /// See [`Cluster::register_accelerator`].
    pub fn register_accelerator(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        self.template.register_accelerator(name, accel, profile)
    }

    /// Registers one of the paper's benchmark kernels under its lowercase
    /// figure name.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn register_paper_kernel(&mut self, id: KernelId) -> Result<(), ServeError> {
        self.template.register_paper_kernel(id)
    }

    /// Adds a tenant for every simulated window.
    ///
    /// # Errors
    ///
    /// See [`Cluster::add_tenant`].
    pub fn add_tenant(&mut self, name: &str, weight: u64) -> Result<(), ServeError> {
        self.template.add_tenant(name, weight)
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
        // The run borrows the caller's requests: only references are
        // sorted, and simulated windows clone just the requests they
        // replay. The sort is stable, so requests with equal keys (possible
        // only in a trace the identity check rejects) keep the caller's
        // order.
        let mut trace: Vec<&Request> = trace.iter().collect();
        trace.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        let n_windows = trace.len().div_ceil(self.cfg.window);
        // One pass over the trace resolves each request, checks its
        // identity and feeds the signature pass.
        let kernel_names = self.kernel_names();
        let estimates = self.template.fluid_estimates();
        let mut scan = IdentityScan::new(&self.template);
        let sigs = if n_windows <= MAX_WINDOWS {
            window_signatures(
                &trace,
                |r| scan.resolve(r),
                self.cfg.window,
                &kernel_names,
                &estimates,
                self.template.config(),
            )
        } else {
            Vec::new()
        };
        scan.check(&trace)?;
        if trace.is_empty() {
            let mut probes = CounterRegistry::new();
            probes.add("serve.sample.trace.requests", 0);
            return Ok(SampleReport {
                window_size: self.cfg.window,
                probes,
                ..SampleReport::default()
            });
        }
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
        debug_assert_eq!(sigs.len(), n_windows);
        let dist = DistMatrix::new(&normalize(&sigs));
        let clustering = k_medoids(&dist, self.cfg.max_clusters, self.cfg.seed);
        let clusters = dense_clusters(&clustering, &dist, &sigs);

        // Simulate medoids and witnesses at full fidelity, order-preserving
        // fan-out. Adjacent simulated windows coalesce into one segment,
        // replayed on one clone, so each later window starts from the very
        // state the full run reaches there.
        let mut to_simulate: Vec<usize> = clusters
            .iter()
            .flat_map(|c| std::iter::once(c.medoid).chain(c.witness))
            .collect();
        to_simulate.sort_unstable();
        to_simulate.dedup();
        let mut segments: Vec<Range<usize>> = Vec::new();
        for &w in &to_simulate {
            match segments.last_mut() {
                Some(seg) if seg.end == w => seg.end += 1,
                _ => segments.push(w..w + 1),
            }
        }
        let (trace_ref, sigs_ref) = (&trace, &sigs);
        // A caught-up segment replays its warm prefix at true arrival
        // spacing, then rests this long before the window starts: enough
        // for every cold-slice setup the prefix triggered to finish (twice
        // the worst reconfiguration quote) and for the prefix backlog to
        // drain (un-amortized worst-case service per warm request).
        // Rounded up to the epoch grid: routing and stealing happen at
        // epoch boundaries, so the event loop is time-translation
        // invariant only under shifts that are multiples of `epoch_ps` —
        // any other shift would change which arrivals share a routing
        // round and perturb the window being measured.
        let epoch = self.template.config().epoch_ps.max(1);
        let boot_ps = estimates
            .iter()
            .map(|e| e.setup_ps.max(e.swap_ps))
            .max()
            .unwrap_or(0)
            .saturating_mul(2)
            .saturating_add(
                (self.cfg.warmup as Time)
                    .saturating_mul(estimates.iter().map(|e| e.service_ps).max().unwrap_or(1)),
            )
            .max(1)
            .div_ceil(epoch)
            .saturating_mul(epoch);
        let per_segment = map_with(self.cfg.workers, segments, move |seg: Range<usize>| {
            self.simulate_segment(trace_ref, &sigs_ref[seg], boot_ps)
        });
        let per_window = per_segment.into_iter().collect::<Result<Vec<_>, _>>()?;
        let metrics: BTreeMap<usize, WindowMetrics> = to_simulate
            .into_iter()
            .zip(per_window.into_iter().flatten())
            .collect();

        self.extrapolate(&trace, &sigs, clusters, &metrics, &dist)
    }

    /// The registered kernel names, in name order: the order of the
    /// signature features and of the fluid cost models.
    fn kernel_names(&self) -> Vec<String> {
        self.template.kernel_names().map(str::to_owned).collect()
    }

    /// Picks how far before `start` the warm replay must begin.
    ///
    /// `cfg.warmup` is a floor. Under saturation the full run's admission
    /// queues hold `shards * queue_depth` requests per kernel, and a
    /// segment warmed with fewer than that admits (and completes) far more
    /// of its window than the full run would. So the warm prefix extends
    /// backwards until every kernel seen in the walk has enough preceding
    /// requests to refill its queues, capped at four times the cluster's
    /// total admission capacity (a kernel too rare to hit the target by
    /// then cannot have kept its queues full either).
    fn warmup_len(&self, trace: &[&Request], start: usize) -> usize {
        let cluster = self.template.config();
        let per_kernel = cluster.shards * cluster.shard.queue_depth;
        let kernels = self.template.kernel_names().count();
        let cap = (4 * kernels * per_kernel).max(self.cfg.warmup);
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

    /// Simulates a segment of adjacent windows at full fidelity on one
    /// clone of the template: replay a warm prefix before the first window
    /// to reconstruct queue and residency state, then the windows
    /// themselves, and measure each window on its own requests.
    ///
    /// The warmup has two modes, picked by the fluid model's queue-depth
    /// estimate at the first window's first arrival:
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
    ///
    /// A segment opening the trace has no warm prefix and replays
    /// unshifted, exactly as the full run does.
    fn simulate_segment(
        &self,
        trace: &[&Request],
        sigs: &[WindowSig],
        boot_ps: Time,
    ) -> Result<Vec<WindowMetrics>, ServeError> {
        let head = &sigs[0];
        let start = head.start;
        let end = sigs.last().map_or(start, |s| s.start + s.len);
        // Half the admission queue is the discriminator: a saturated full
        // run enters its windows with queues pinned at `queue_depth`
        // (shedding), a caught-up one hovers no deeper than the affinity
        // spill threshold. Halfway between is far from both attractors.
        let saturated = head.start_frozen
            || head.start_depth_max >= self.template.config().shard.queue_depth as f64 / 2.0;
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
        let shift: Time = if saturated || warm == 0 { 0 } else { boot_ps };
        let shifted_from = if shift == 0 { end } else { start - pressure };
        let mut cluster = self.template.clone();
        for &r in &trace[warm_start..shifted_from] {
            cluster.submit(r.clone())?;
        }
        for &r in &trace[shifted_from..end] {
            let mut r = r.clone();
            r.deadline_ps = r
                .deadline_ps
                .map(|d| d.max(r.arrival_ps).saturating_add(shift));
            r.arrival_ps = r.arrival_ps.saturating_add(shift);
            cluster.submit(r)?;
        }
        let rep = cluster.run_to_completion()?;
        // The replay keeps the sorted order (the shift moves the pressure
        // segment and the windows alike, past the unshifted burst), so a
        // window's requests are those keyed at or after its first one and
        // before the next window's first; `(tenant, seq)` is unique, so no
        // retry count is needed.
        let first_key = |s: &WindowSig| {
            let r = trace[s.start];
            (r.arrival_ps + shift, r.tenant.as_str(), r.seq)
        };
        let firsts: Vec<(Time, &str, u64)> = sigs.iter().map(first_key).collect();
        let window_of = |arrival: Time, tenant: &str, seq: u64| {
            firsts
                .partition_point(|&f| f <= (arrival, tenant, seq))
                .checked_sub(1)
        };
        // Per window: latency, completions, last completion, sheds.
        let mut acc = vec![(Histogram::default(), 0u64, 0 as Time, 0u64); sigs.len()];
        for c in &rep.completions {
            if let Some(w) = window_of(c.arrival_ps, &c.tenant, c.seq) {
                let a = &mut acc[w];
                a.0.observe(c.latency_ps());
                a.1 += 1;
                a.2 = a.2.max(c.done_ps);
            }
        }
        for s in &rep.sheds {
            if let Some(w) = window_of(s.request.arrival_ps, &s.request.tenant, s.request.seq) {
                acc[w].3 += 1;
            }
        }
        let mut warm = warm as u64;
        let metrics = sigs
            .iter()
            .zip(acc)
            .map(|(sig, (latency, completed, last_done, shed))| {
                assert_eq!(
                    completed + shed,
                    sig.len as u64,
                    "every window request terminates exactly once"
                );
                let first_arrival = trace[sig.start].arrival_ps + shift;
                let last_arrival = trace[sig.start + sig.len - 1].arrival_ps + shift;
                let span = last_done.saturating_sub(first_arrival);
                let throughput_rps = if span == 0 {
                    0.0
                } else {
                    completed as f64 * 1e12 / span as f64
                };
                WindowMetrics {
                    // The warm prefix is charged to the segment's first window.
                    simulated: std::mem::take(&mut warm) + sig.len as u64,
                    saturated,
                    completed,
                    latency,
                    tail_ps: last_done.saturating_sub(last_arrival),
                    throughput_rps,
                }
            });
        Ok(metrics.collect())
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
        trace: &[&Request],
        sigs: &[WindowSig],
        clusters: Vec<SampleCluster>,
        metrics: &BTreeMap<usize, WindowMetrics>,
        dist: &DistMatrix,
    ) -> Result<SampleReport, ServeError> {
        let n = trace.len() as u64;
        let total_windows = sigs.len() as f64;

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
                        // A simulated window represents itself; other ties
                        // go to the medoid, the cluster's centre.
                        if m == wit || dist.get(m, wit) < dist.get(m, c.medoid) {
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

        // Extrapolated counts and the latency mixture, which holds `weight`
        // copies of each exemplar's latencies.
        let (mut est_completed_f, mut est_tail) = (0.0f64, 0.0f64);
        let mut latency = Histogram::default();
        for &(exemplar, weight, requests) in cluster_parts.iter().flatten() {
            let m = &metrics[&exemplar];
            est_completed_f += requests / sigs[exemplar].len.max(1) as f64 * m.completed as f64;
            est_tail += (weight as f64 / total_windows) * m.tail_ps as f64;
            for _ in 0..weight {
                latency.merge(&m.latency);
            }
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let est_completed = ((est_completed_f + 0.5) as u64).min(n);
        let est_shed = n - est_completed;

        // Estimates with witness-disagreement bounds. The disagreement is
        // weighted by the mass actually in dispute between a cluster's two
        // exemplars — the smaller attributed share — since attribution
        // already hands each exemplar its own members; only windows that
        // could plausibly sit in either mode drive the uncertainty.
        let disputed: Vec<f64> = cluster_parts
            .iter()
            .map(|parts| match parts[..] {
                [(_, a, _), (_, b, _)] => a.min(b) as f64,
                _ => 0.0,
            })
            .collect();
        let estimate = |value: f64, metric: &dyn Fn(&WindowMetrics) -> f64| {
            let dev: f64 = clusters
                .iter()
                .zip(&disputed)
                .filter_map(|(c, &fringe)| {
                    let (mq, wq) = (metric(&metrics[&c.medoid]), metric(&metrics[&c.witness?]));
                    Some((fringe / total_windows) * (mq - wq).abs())
                })
                .sum();
            MetricEstimate {
                value,
                bound: BOUND_SAFETY * dev + BOUND_REL_FLOOR * value,
            }
        };
        let quantile = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
        let [p50_ps, p95_ps, p99_ps] = [0.5, 0.95, 0.99]
            .map(|q| estimate(quantile(&latency, q), &|m| quantile(&m.latency, q)));
        let last_arrival = trace.last().expect("non-empty trace").arrival_ps;
        let est_span = last_arrival as f64 + est_tail;
        let tput = if est_span <= 0.0 {
            0.0
        } else {
            est_completed as f64 * 1e12 / est_span
        };
        let throughput_rps = estimate(tput, &|m| m.throughput_rps);

        let mut report = SampleReport {
            trace_requests: n,
            window_size: self.cfg.window,
            windows: sigs.len(),
            clusters,
            simulated_windows: metrics.len(),
            simulated_requests: metrics.values().map(|m| m.simulated).sum(),
            est_completed,
            est_shed,
            p50_ps,
            p95_ps,
            p99_ps,
            throughput_rps,
            latency,
            probes: CounterRegistry::new(),
        };
        let saturated_windows = metrics.values().filter(|m| m.saturated).count();
        report.probes = self.export_probes(&report, sigs, saturated_windows);
        freac_probe::assert_ok(&report.probes);
        freac_probe::global::merge(&report.probes);
        Ok(report)
    }

    /// Builds the `serve.sample.*` registry of `rep`: window/cluster
    /// accounting counters (subject to the conservation law), the
    /// per-window signature distributions, and the extrapolated estimates
    /// as gauges.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn export_probes(
        &self,
        rep: &SampleReport,
        sigs: &[WindowSig],
        saturated_windows: usize,
    ) -> CounterRegistry {
        let mut reg = CounterRegistry::new();
        for (name, n) in [
            ("trace.requests", rep.trace_requests),
            ("windows", rep.windows as u64),
            ("window_size", rep.window_size as u64),
            ("clusters", rep.clusters.len() as u64),
            ("simulated.windows", rep.simulated_windows as u64),
            ("simulated.saturated_windows", saturated_windows as u64),
            ("simulated.requests", rep.simulated_requests),
            ("est.completed", rep.est_completed),
            ("est.shed", rep.est_shed),
        ] {
            reg.add(&format!("serve.sample.{name}"), n);
        }
        for (c, info) in rep.clusters.iter().enumerate() {
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
        let names = feature_names(&self.kernel_names());
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
            ("p50_ps", rep.p50_ps),
            ("p95_ps", rep.p95_ps),
            ("p99_ps", rep.p99_ps),
            ("throughput_rps", rep.throughput_rps),
        ] {
            reg.set_gauge(&format!("serve.sample.{name}"), est.value);
            reg.set_gauge(&format!("serve.sample.{name}.bound"), est.bound);
        }
        reg.merge_histogram("serve.sample.latency_ps", &rep.latency);
        reg
    }
}

/// Full-fidelity measurements of one simulated window.
struct WindowMetrics {
    /// Requests pushed through the segment's cluster for this window: its
    /// own, plus the warm prefix for a segment's first window.
    simulated: u64,
    /// Whether the fluid model classified the window's segment as
    /// saturated (warmed by queue refill rather than a paced residency
    /// prefix).
    saturated: bool,
    completed: u64,
    latency: Histogram,
    /// Drain beyond the window's last arrival.
    tail_ps: Time,
    /// Window-local completion throughput.
    throughput_rps: f64,
}

/// The identity check over the sorted trace, fed one request at a time by
/// [`IdentityScan::resolve`] and settled by [`IdentityScan::check`].
struct IdentityScan<'a> {
    tenants: Vec<&'a str>,
    kernels: Vec<&'a str>,
    /// Per tenant: the last `seq` resolved, and whether a `seq` ever
    /// failed to rise.
    last_seq: Vec<Option<u64>>,
    unordered: Vec<bool>,
    /// Requests resolved, and the error of the first unknown one.
    resolved: usize,
    unknown: Option<ServeError>,
}

impl<'a> IdentityScan<'a> {
    fn new(cluster: &'a Cluster) -> Self {
        let tenants: Vec<&str> = cluster.tenant_names().collect();
        IdentityScan {
            last_seq: vec![None; tenants.len()],
            unordered: vec![false; tenants.len()],
            tenants,
            kernels: cluster.kernel_names().collect(),
            resolved: 0,
            unknown: None,
        }
    }

    /// Resolves the next request's tenant and kernel, returning the
    /// kernel's index: `None` from the first unknown name on.
    fn resolve(&mut self, r: &Request) -> Option<usize> {
        if self.unknown.is_some() {
            return None;
        }
        let Ok(t) = self.tenants.binary_search(&r.tenant.as_str()) else {
            self.unknown = Some(ServeError::UnknownTenant(r.tenant.clone()));
            return None;
        };
        let Ok(k) = self.kernels.binary_search(&r.kernel.as_str()) else {
            self.unknown = Some(ServeError::UnknownKernel(r.kernel.clone()));
            return None;
        };
        self.unordered[t] |= self.last_seq[t].is_some_and(|s| r.seq <= s);
        self.last_seq[t] = Some(r.seq);
        self.resolved += 1;
        Some(k)
    }

    /// Resolves the rest of `trace`, then rejects its first request that
    /// names an unknown tenant, names an unknown kernel, or repeats an
    /// earlier `(tenant, seq)` — checked in that order per request, so the
    /// error is the one an ordered scan over a growing identity set would
    /// return.
    ///
    /// A tenant whose `seq`s rise strictly along the trace cannot repeat
    /// one, so only the other tenants' `(tenant, seq, position)` triples
    /// are sorted: repeats land side by side, and the earliest second
    /// occurrence is the scan's first duplicate. Every duplicate found lies
    /// before the first unknown request, so it wins.
    fn check(mut self, trace: &[&Request]) -> Result<(), ServeError> {
        while self.resolved < trace.len() && self.resolve(trace[self.resolved]).is_some() {}
        if self.unordered.contains(&true) {
            let mut ids: Vec<(usize, u64, usize)> = (0..self.resolved)
                .filter_map(|i| {
                    let t = self.tenants.binary_search(&trace[i].tenant.as_str()).ok()?;
                    self.unordered[t].then_some((t, trace[i].seq, i))
                })
                .collect();
            ids.sort_unstable();
            let first_repeat = ids
                .windows(2)
                .filter(|p| p[0].0 == p[1].0 && p[0].1 == p[1].1)
                .map(|p| p[1].2)
                .min();
            if let Some(i) = first_repeat {
                return Err(ServeError::BadConfig(format!(
                    "sampled traces need unique (tenant, seq): '{}' seq {} repeats",
                    trace[i].tenant, trace[i].seq
                )));
            }
        }
        self.unknown.map_or(Ok(()), Err)
    }
}

/// Drops empty medoid slots (possible when identical windows collapse) and
/// renumbers clusters densely, with members in ascending window order.
fn dense_clusters(
    clustering: &Clustering,
    dist: &DistMatrix,
    sigs: &[WindowSig],
) -> Vec<SampleCluster> {
    (0..clustering.medoids.len())
        .map(|c| (c, clustering.members(c)))
        .filter(|(_, members)| !members.is_empty())
        .map(|(c, members)| SampleCluster {
            medoid: clustering.medoids[c],
            witness: clustering.witness(c, dist),
            requests: members.iter().map(|&w| sigs[w].len as u64).sum(),
            members,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use crate::server::ServeConfig;
    use freac_core::AcceleratorTile;
    use freac_netlist::builder::CircuitBuilder;

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

    /// The ordered scan the identity check replaces, kept as its
    /// reference: sort a clone, then walk it with a growing identity set.
    fn ordered_scan(s: &SampledServer, trace: &[Request]) -> Result<(), ServeError> {
        let mut trace: Vec<Request> = trace.to_vec();
        trace.sort_by(|a, b| a.order_key().cmp(&b.order_key()));
        let mut ids: std::collections::BTreeSet<(&str, u64)> = std::collections::BTreeSet::new();
        for r in &trace {
            if !s.template.tenant_names().any(|t| t == r.tenant) {
                return Err(ServeError::UnknownTenant(r.tenant.clone()));
            }
            if !s.template.kernel_names().any(|k| k == r.kernel) {
                return Err(ServeError::UnknownKernel(r.kernel.clone()));
            }
            if !ids.insert((r.tenant.as_str(), r.seq)) {
                return Err(ServeError::BadConfig(format!(
                    "sampled traces need unique (tenant, seq): '{}' seq {} repeats",
                    r.tenant, r.seq
                )));
            }
        }
        Ok(())
    }

    /// A seeded valid trace over tenants `a`/`b` and kernels `j`/`k`, with
    /// coarse arrivals so order keys often tie on time, in shuffled
    /// submission order.
    fn seeded_trace(rng: &mut freac_rand::Rng64, n: u64) -> Vec<Request> {
        let mut arrival = 0;
        let mut t: Vec<Request> = (0..n)
            .map(|i| {
                arrival += rng.below(3) * 1_000;
                let tenant = *rng.pick(&["a", "b"]);
                let kernel = *rng.pick(&["j", "k"]);
                Request::new(tenant, i, kernel, arrival, i)
            })
            .collect();
        rng.shuffle(&mut t);
        t
    }

    /// Injects one fault of `kind` at a random position: 0 an unknown
    /// tenant, 1 an unknown kernel, 2 a repeated `(tenant, seq)` (as a new
    /// request, sometimes at the same order key, sometimes differing only
    /// in `retries`, which sampled mode still rejects), 3 a twin at the
    /// same order key with the two naming different unknown kernels (only
    /// a stable sort reports the one submitted first).
    fn inject(rng: &mut freac_rand::Rng64, t: &mut Vec<Request>, kind: usize) {
        let i = rng.index(t.len());
        match kind {
            0 => t[i].tenant = (*rng.pick(&["", "aa", "zz"])).to_owned(),
            1 => t[i].kernel = (*rng.pick(&["", "jj", "mystery"])).to_owned(),
            3 => {
                let mut twin = t[i].clone();
                t[i].kernel = "x".to_owned();
                twin.kernel = "y".to_owned();
                let at = rng.index(t.len() + 1);
                t.insert(at, twin);
            }
            _ => {
                let mut copy = t[i].clone();
                match rng.index(3) {
                    0 => copy.arrival_ps = rng.below(t.len() as u64) * 1_000,
                    1 => copy.retries += 1,
                    _ => copy.kernel = (*rng.pick(&["j", "k", "mystery"])).to_owned(),
                }
                let at = rng.index(t.len() + 1);
                t.insert(at, copy);
            }
        }
    }

    #[test]
    fn identity_check_returns_the_ordered_scans_error() {
        let mut s = runner(32);
        s.add_tenant("b", 2).unwrap();
        s.register_kernel(
            "j",
            &tiny_circuit("j"),
            RequestProfile {
                cycles_per_item: 1,
                read_words: 2,
                write_words: 1,
            },
        )
        .unwrap();
        freac_rand::cases(600, 0x1d5e_c4ec, |rng| {
            let n = 8 + rng.below(56);
            let mut t = seeded_trace(rng, n);
            // Every non-empty subset of the four fault kinds, each kind
            // injected once or twice.
            let kinds = 1 + rng.index(15);
            for kind in 0..4 {
                if kinds & (1 << kind) != 0 {
                    for _ in 0..1 + rng.index(2) {
                        inject(rng, &mut t, kind);
                    }
                }
            }
            let want = ordered_scan(&s, &t).expect_err("every fault is rejected");
            let got = s.run(&t).expect_err("every fault is rejected");
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(got.to_string(), want.to_string());
        });
        // A clean trace passes both.
        let t = seeded_trace(&mut freac_rand::Rng64::new(5), 64);
        ordered_scan(&s, &t).unwrap();
        s.run(&t).unwrap();

        // Pinned orderings with their exact text; arrivals follow the
        // listed order.
        let dup = |t, seq| {
            format!("bad serve config: sampled traces need unique (tenant, seq): '{t}' seq {seq} repeats")
        };
        let ab = |i: u64| ["a", "b"][i as usize % 2];
        let rising = (0..40).map(|i| (ab(i), i, "k")).chain([("b", 39, "j")]);
        let falling = (0..40)
            .map(|i| (ab(i), 99 - i, "j"))
            .chain([("a", 0, "k"); 2]);
        for (ids, want) in [
            // A duplicate before an unknown tenant.
            (
                vec![("a", 0, "k"), ("b", 0, "j"), ("a", 0, "k"), ("zz", 0, "k")],
                dup("a", 0),
            ),
            // An unknown kernel before a duplicate.
            (
                vec![("a", 0, "k"), ("a", 1, "mystery"), ("a", 0, "k")],
                "unknown kernel 'mystery'".into(),
            ),
            // A duplicate at the very end of rising seqs, and of falling ones.
            (rising.collect(), dup("b", 39)),
            (falling.collect(), dup("a", 0)),
        ] {
            let t: Vec<Request> = (0..)
                .zip(ids)
                .map(|(i, (t, seq, k))| Request::new(t, seq, k, i * 1_000, i))
                .collect();
            let got = s.run(&t).expect_err(&want);
            assert_eq!(got.to_string(), want);
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", ordered_scan(&s, &t).unwrap_err())
            );
        }
    }

    #[test]
    fn registration_errors_come_back_at_registration() {
        let mut s = runner(32);
        let profile = RequestProfile {
            cycles_per_item: 1,
            read_words: 2,
            write_words: 1,
        };
        let err = s
            .register_kernel("k", &tiny_circuit("k"), profile)
            .unwrap_err();
        assert_eq!(format!("{err:?}"), r#"DuplicateKernel("k")"#);
        let err = s.add_tenant("a", 2).unwrap_err();
        assert_eq!(format!("{err:?}"), r#"DuplicateTenant("a")"#);
        let err = s.add_tenant("z", 0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad serve config: tenant 'z' weight must be >= 1"
        );
        // Shards tile one MCC; an accelerator mapped for two is rejected
        // here, not when a run builds its first window.
        let tile = AcceleratorTile::new(2).unwrap();
        let accel = Accelerator::map_shared(&tiny_circuit("w"), &tile).unwrap();
        let err = s.register_accelerator("w", accel, profile).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad serve config: accelerator 'w' was mapped for 2 MCCs, server tiles have 1"
        );
        // Rejected registrations leave the runner as it was.
        assert_eq!(s.kernel_names(), ["k"]);
        assert_eq!(s.template.tenant_names().collect::<Vec<_>>(), ["a"]);
        assert_eq!(s.run(&trace(64, 100_000)).unwrap().est_completed, 64);
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
