//! The four pinned workloads: what each builds, what it submits, and why.
//!
//! Every workload is open loop with arrival gaps drawn in simulated
//! picoseconds from the run seed, so its inputs never depend on the
//! model's own estimates. Kernels are mapped at [`OptLevel::Full`]
//! explicitly, so `FREAC_OPT_LEVEL` cannot change a workload, and no
//! workload runs more than two threads.

use std::sync::Arc;
use std::time::Instant;

use freac_core::{Accelerator, AcceleratorTile, HandoffMode, SlicePartition};
use freac_kernels::{kernel, KernelId};
use freac_netlist::builder::CircuitBuilder;
use freac_netlist::{Netlist, OptLevel};
use freac_rand::Rng64;
use freac_serve::{
    open_loop_trace, AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, Outcome, Request,
    RequestProfile, RoutePolicy, SampleConfig, SampleReport, SampledServer, ServeConfig,
    ServeReport, Server, StealConfig, TenantSpec,
};

/// The error type every benchmark step returns.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Worker threads any workload may use (shard stepping, sampled-window
/// simulation). Traces are generated on one thread so that the
/// allocation pattern, and with it peak memory, repeats.
const MAX_WORKERS: usize = 2;

/// One pinned workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One server at about half its capacity: nothing sheds and batches
    /// stay small, so the plan sweep dominates host time. The latency
    /// regime, and where `netlist.plan` gains show.
    ServeSteady,
    /// The same server at about 1.3x capacity with 512-lane batches and a
    /// few exclusive requests: queues run deep, a large share sheds, and
    /// host time splits between the event loop, wide sweeps and
    /// single-lane folded runs. Saturated throughput is the capacity
    /// figure.
    ServeOverload,
    /// A 4-shard cluster with affinity routing, stealing, autoscaling,
    /// coherent handoff and two stepping threads on a skewed four-kernel
    /// mix: the router, steal, autoscale, epoch loop and parallel
    /// stepping carry the load, all of which the `serve_*` workloads
    /// bypass.
    ClusterAffinity,
    /// A million-request phase-structured trace over tiny kernels through
    /// the sampled simulator, checked against one full-fidelity replay:
    /// the sampler does almost all the work and the plan sweep is
    /// negligible, so sampler changes show here and sweep changes must
    /// not.
    SampledLong,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSteady,
        Workload::ServeOverload,
        Workload::ClusterAffinity,
        Workload::SampledLong,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve_steady",
            Workload::ServeOverload => "serve_overload",
            Workload::ClusterAffinity => "cluster_affinity",
            Workload::SampledLong => "sampled_long",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent sub-traces whose outcomes are pooled into the
    /// simulated metrics. Pooling several seeded traces narrows the
    /// seed-to-seed spread of the tails without making one timed run
    /// longer.
    pub fn subtraces(self) -> usize {
        match self {
            Workload::ServeSteady => 8,
            Workload::ServeOverload => 12,
            Workload::ClusterAffinity => 32,
            Workload::SampledLong => 1,
        }
    }

    /// Requests per tenant in one sub-trace, before the scale divisor
    /// (`sampled_long`: requests in the whole trace).
    fn requests(self) -> u64 {
        match self {
            Workload::ServeSteady => 12_500,
            Workload::ServeOverload => 25_000,
            Workload::ClusterAffinity => 1_500,
            Workload::SampledLong => 1_000_000,
        }
    }

    /// Threads the timed drain runs on: shard stepping for the cluster,
    /// window simulation for the sampler.
    pub fn workers(self) -> usize {
        match self {
            Workload::ClusterAffinity | Workload::SampledLong => MAX_WORKERS,
            Workload::ServeSteady | Workload::ServeOverload => 1,
        }
    }
}

/// The seed of sub-trace `sub` of a run seeded with `seed`.
fn sub_seed(seed: u64, sub: usize) -> u64 {
    Rng64::new(seed ^ (sub as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// One registered kernel, as the output checks and the layer replay need
/// it.
#[derive(Clone)]
pub struct KernelEntry {
    /// Name requests use.
    pub name: String,
    /// The mapped accelerator the serving system runs.
    pub accel: Arc<Accelerator>,
    /// Functional cycles a request executes (the serving system's own
    /// hashing depth).
    pub func_cycles: u64,
}

/// One timed set-up step.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// `map`, `compile`, `trace` or `submit`.
    pub name: &'static str,
    /// When the step began.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
}

impl Step {
    fn time<T>(name: &'static str, steps: &mut Vec<Step>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        steps.push(Step {
            name,
            start,
            end: Instant::now(),
        });
        out
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A serving system ready to run.
pub enum System {
    /// One server.
    Server(Server),
    /// A sharded cluster.
    Cluster(Cluster),
    /// The sampled runner with the trace it samples.
    Sampled(SampledServer, Vec<Request>),
}

/// What a run returns.
pub enum RunOutput {
    /// A drained server.
    Serve(ServeReport),
    /// A drained cluster.
    Cluster(ClusterReport),
    /// A sampled estimate.
    Sampled(SampleReport),
}

impl System {
    /// Drains the system (the timed part of a repetition). `hook` sees
    /// every terminal outcome of a server or cluster and never submits
    /// follow-ups, so the schedule is the open-loop one either way.
    ///
    /// # Errors
    ///
    /// Propagates serving failures.
    pub fn run(self, hook: impl FnMut(&Outcome)) -> Result<RunOutput, Error> {
        let mut hook = hook;
        let observe = |o: &Outcome| {
            hook(o);
            Vec::new()
        };
        Ok(match self {
            System::Server(mut s) => RunOutput::Serve(s.run(observe)?),
            System::Cluster(mut c) => RunOutput::Cluster(c.run(observe)?),
            System::Sampled(s, trace) => RunOutput::Sampled(s.run(&trace)?),
        })
    }
}

/// A system after set-up, with what the checks need to know about it.
pub struct Prepared {
    /// The system.
    pub system: System,
    /// Requests submitted (the trace length).
    pub submitted: u64,
    /// The submitted requests, kept when the layer replay needs their
    /// seeds and exclusivity.
    pub trace: Option<Vec<Request>>,
    /// Registered kernels.
    pub kernels: Vec<KernelEntry>,
    /// The timed set-up steps, in order.
    pub steps: Vec<Step>,
}

/// Builds workload `w`'s system for sub-trace `sub` of `seed`, with
/// request counts divided by `scale` and the drain on `workers` threads,
/// timing map, compile, trace and submit.
///
/// # Errors
///
/// Propagates mapping, compile and submission failures.
pub fn setup(
    w: Workload,
    seed: u64,
    sub: usize,
    scale: u64,
    workers: usize,
    keep_trace: bool,
) -> Result<Prepared, Error> {
    let mut steps = Vec::new();
    let mapped = Step::time("map", &mut steps, || map_kernels(w))?;
    let requests = (w.requests() / scale.max(1)).max(1);
    let trace_seed = sub_seed(seed, sub);
    match w {
        Workload::SampledLong => {
            let sampled = Step::time("compile", &mut steps, || {
                let mut s = SampledServer::new(
                    sampled_cluster_config(),
                    SampleConfig {
                        window: 1024,
                        max_clusters: 12,
                        warmup: 512,
                        workers,
                        ..SampleConfig::default()
                    },
                )?;
                for (name, accel, profile) in &mapped {
                    s.register_accelerator(name, Arc::clone(accel), *profile)?;
                }
                for t in 0..4u64 {
                    s.add_tenant(&format!("t{t}"), 1 + t % 2)?;
                }
                Ok::<_, Error>(s)
            })?;
            let trace = Step::time("trace", &mut steps, || sampled_trace(seed, sub, scale));
            Ok(Prepared {
                submitted: trace.len() as u64,
                kernels: entries(&mapped, |_| 0),
                system: System::Sampled(sampled, trace),
                trace: None,
                steps,
            })
        }
        Workload::ServeSteady | Workload::ServeOverload => {
            let overload = w == Workload::ServeOverload;
            let specs = serve_specs(requests, overload);
            let mut server = Step::time("compile", &mut steps, || {
                let mut s = Server::new(ServeConfig {
                    queue_depth: 1024,
                    max_lanes: if overload { 512 } else { 64 },
                    ..ServeConfig::default()
                })?;
                for (name, accel, profile) in &mapped {
                    s.register_accelerator(name, Arc::clone(accel), *profile)?;
                }
                for spec in &specs {
                    s.add_tenant(&spec.name, spec.weight)?;
                }
                Ok::<_, Error>(s)
            })?;
            let trace = Step::time("trace", &mut steps, || {
                open_loop_trace(&specs, trace_seed, 1)
            });
            let kept = keep_trace.then(|| trace.clone());
            let submitted = trace.len() as u64;
            Step::time("submit", &mut steps, || {
                trace.into_iter().try_for_each(|r| server.submit(r))
            })?;
            let kernels = entries(&mapped, |n| server.kernel_func_cycles(n).unwrap_or(0));
            Ok(Prepared {
                system: System::Server(server),
                submitted,
                trace: kept,
                kernels,
                steps,
            })
        }
        Workload::ClusterAffinity => {
            let specs = cluster_specs(requests);
            let mut cluster = Step::time("compile", &mut steps, || {
                let mut c = Cluster::new(affinity_cluster_config(workers))?;
                for (name, accel, profile) in &mapped {
                    c.register_accelerator(name, Arc::clone(accel), *profile)?;
                }
                for spec in &specs {
                    c.add_tenant(&spec.name, spec.weight)?;
                }
                Ok::<_, Error>(c)
            })?;
            let trace = Step::time("trace", &mut steps, || {
                open_loop_trace(&specs, trace_seed, 1)
            });
            let kept = keep_trace.then(|| trace.clone());
            let submitted = trace.len() as u64;
            Step::time("submit", &mut steps, || {
                trace.into_iter().try_for_each(|r| cluster.submit(r))
            })?;
            let kernels = entries(&mapped, |n| cluster.kernel_func_cycles(n).unwrap_or(0));
            Ok(Prepared {
                system: System::Cluster(cluster),
                submitted,
                trace: kept,
                kernels,
                steps,
            })
        }
    }
}

/// The trace `sampled_long` samples for sub-trace `sub` of `seed`.
pub fn sampled_trace(seed: u64, sub: usize, scale: u64) -> Vec<Request> {
    let w = Workload::SampledLong;
    phase_trace((w.requests() / scale.max(1)).max(1), sub_seed(seed, sub))
}

/// The full-fidelity replay of a `sampled_long` trace: the same kernels
/// and shard configuration the sampler's replicas use, every request
/// simulated. Returns the submitted cluster, the kernels with their
/// hashing depth, and the submit step.
///
/// # Errors
///
/// Propagates registration and submission failures.
pub fn full_fidelity(
    kernels: &[KernelEntry],
    trace: &[Request],
) -> Result<(Cluster, Vec<KernelEntry>, Step), Error> {
    let mut c = Cluster::new(sampled_cluster_config())?;
    for k in kernels {
        c.register_accelerator(&k.name, Arc::clone(&k.accel), tiny_profile(&k.name))?;
    }
    for t in 0..4u64 {
        c.add_tenant(&format!("t{t}"), 1 + t % 2)?;
    }
    let mut steps = Vec::new();
    Step::time("submit", &mut steps, || {
        trace.iter().cloned().try_for_each(|r| c.submit(r))
    })?;
    let entries = kernels
        .iter()
        .map(|k| KernelEntry {
            func_cycles: c.kernel_func_cycles(&k.name).unwrap_or(0),
            ..k.clone()
        })
        .collect();
    Ok((c, entries, steps[0]))
}

type Mapped = Vec<(String, Arc<Accelerator>, RequestProfile)>;

fn entries(mapped: &Mapped, func_cycles: impl Fn(&str) -> u64) -> Vec<KernelEntry> {
    mapped
        .iter()
        .map(|(name, accel, _)| KernelEntry {
            name: name.clone(),
            accel: Arc::clone(accel),
            func_cycles: func_cycles(name),
        })
        .collect()
}

/// Maps the workload's kernels at the full optimization level.
fn map_kernels(w: Workload) -> Result<Mapped, Error> {
    let tile = AcceleratorTile::new(1)?;
    let map = |name: &str, circuit: &Netlist, profile: RequestProfile| {
        let accel = Accelerator::map_shared_with_level(circuit, &tile, OptLevel::Full)?;
        Ok::<_, Error>((name.to_owned(), accel, profile))
    };
    let paper = |ids: &[KernelId]| {
        ids.iter()
            .map(|&id| {
                let k = kernel(id);
                let wl = k.workload(1);
                map(
                    &id.name().to_lowercase(),
                    &k.circuit(),
                    RequestProfile {
                        cycles_per_item: wl.cycles_per_item,
                        read_words: wl.read_words_per_item,
                        write_words: wl.write_words_per_item,
                    },
                )
            })
            .collect::<Result<Mapped, Error>>()
    };
    match w {
        Workload::ServeSteady | Workload::ServeOverload => paper(&[KernelId::Aes, KernelId::Gemm]),
        Workload::ClusterAffinity => {
            paper(&[KernelId::Aes, KernelId::Gemm, KernelId::Kmp, KernelId::Dot])
        }
        Workload::SampledLong => ["add", "mask"]
            .iter()
            .map(|&name| map(name, &tiny_circuit(name), tiny_profile(name)))
            .collect(),
    }
}

/// `serve_loadgen`'s four tenants: alpha AES at weight 4, beta GEMM at
/// weight 2, gamma AES:GEMM 1:1, delta AES:GEMM 2:1. Steady: a 160,000 ps
/// mean gap per tenant (about half the 4-slice capacity), no exclusives.
/// Overload: a 62,000 ps gap (about 1.3x capacity), 31 per mille
/// exclusive.
fn serve_specs(requests: u64, overload: bool) -> Vec<TenantSpec> {
    let mut alpha = TenantSpec::new("alpha", "aes", requests);
    alpha.weight = 4;
    let mut beta = TenantSpec::new("beta", "gemm", requests);
    beta.weight = 2;
    let mut gamma = TenantSpec::new("gamma", "aes", requests);
    gamma.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    let mut delta = TenantSpec::new("delta", "gemm", requests);
    delta.mix = vec![("aes".to_owned(), 2), ("gemm".to_owned(), 1)];
    let mut specs = vec![alpha, beta, gamma, delta];
    for s in &mut specs {
        s.mean_gap_ps = if overload { 62_000 } else { 160_000 };
        s.exclusive_permille = if overload { 31 } else { 0 };
    }
    specs
}

/// The serve bench's skewed cluster tenants: alpha AES at weight 4, beta
/// GEMM at weight 2, gamma AES:KMP 2:1, delta DOT:GEMM 2:1, at mean gaps
/// of 330,000 / 1,000,000 / 660,000 / 1,000,000 ps, 125 per mille
/// exclusive.
fn cluster_specs(requests: u64) -> Vec<TenantSpec> {
    let mut alpha = TenantSpec::new("alpha", "aes", requests);
    alpha.weight = 4;
    alpha.mean_gap_ps = 330_000;
    let mut beta = TenantSpec::new("beta", "gemm", requests);
    beta.weight = 2;
    beta.mean_gap_ps = 1_000_000;
    let mut gamma = TenantSpec::new("gamma", "aes", requests);
    gamma.mix = vec![("aes".to_owned(), 2), ("kmp".to_owned(), 1)];
    gamma.mean_gap_ps = 660_000;
    let mut delta = TenantSpec::new("delta", "dot", requests);
    delta.mix = vec![("dot".to_owned(), 2), ("gemm".to_owned(), 1)];
    delta.mean_gap_ps = 1_000_000;
    let mut specs = vec![alpha, beta, gamma, delta];
    for s in &mut specs {
        s.exclusive_permille = 125;
    }
    specs
}

/// Four single-slice shards on a cache-heavy (4, 10, 6) split, affinity
/// routing with a 64-deep spill, default stealing, sustained-backlog
/// autoscaling, a 10,000 ps epoch and coherent handoff.
fn affinity_cluster_config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: Some(StealConfig::default()),
        autoscale: Some(AutoscaleConfig {
            high_backlog: 96,
            up_epochs: 8,
            down_epochs: 64,
            ..AutoscaleConfig::default()
        }),
        epoch_ps: 10_000,
        shard: ServeConfig {
            partition: SlicePartition::new(4, 10, 6).expect("(4, 10, 6) is a valid split"),
            slices: 1,
            queue_depth: 1024,
            handoff: HandoffMode::coherent(),
            ..ServeConfig::default()
        },
        workers,
        ..ClusterConfig::default()
    }
}

/// The sample bench's shard layout: 4 default shards with 512-deep
/// queues, affinity routing and default stealing, stepped on one thread.
fn sampled_cluster_config() -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: Some(StealConfig::default()),
        shard: ServeConfig {
            queue_depth: 512,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// The 8-bit `add` or `mask` circuit of the sample bench.
fn tiny_circuit(name: &str) -> Netlist {
    let mut b = CircuitBuilder::new(name);
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let y = if name == "add" {
        b.add(&a, &x)
    } else {
        b.and_words(&a, &x)
    };
    b.word_output("y", &y);
    b.finish().expect("8-bit circuits build")
}

fn tiny_profile(name: &str) -> RequestProfile {
    if name == "add" {
        RequestProfile {
            cycles_per_item: 2,
            read_words: 4,
            write_words: 2,
        }
    } else {
        RequestProfile {
            cycles_per_item: 1,
            read_words: 2,
            write_words: 1,
        }
    }
}

/// The sample bench's trace shape, drawn from `seed`: a 1,024-request
/// ramp at a 25,000 ps mean gap pays the cold-slice set-ups, then phases
/// of 16,384 requests cycle mean gaps of 400 / 1,000 / 200 ps while the
/// `mask` share alternates between 1/3 and 1/2. Gaps are uniform in
/// `1..=2 × mean`; tenants `t0..t3` take turns.
fn phase_trace(n: u64, seed: u64) -> Vec<Request> {
    const RAMP: u64 = 1_024;
    const PHASE: u64 = 16_384;
    const GAPS: [u64; 3] = [400, 1_000, 200];
    let mut rng = Rng64::new(seed);
    let mut arrival = 0u64;
    (0..n)
        .map(|i| {
            let (gap, mask_one_in) = if i < RAMP {
                (25_000, 3)
            } else {
                let phase = (i - RAMP) / PHASE;
                (GAPS[(phase % 3) as usize], 2 + phase % 2)
            };
            arrival += 1 + rng.below(2 * gap);
            let kernel = if rng.below(mask_one_in) == 0 {
                "mask"
            } else {
                "add"
            };
            Request::new(
                &format!("t{}", i % 4),
                i / 4,
                kernel,
                arrival,
                rng.next_u64(),
            )
        })
        .collect()
}
