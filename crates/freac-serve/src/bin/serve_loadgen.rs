//! Closed-loop load generator over the cluster serving stack.
//!
//! Drives a fixed four-tenant AES/GEMM scenario open-loop through a
//! cluster of serving shards, verifies a sample of completions against the
//! reference evaluator, and prints the per-tenant latency table plus the
//! serving counters. All output is simulated-time only and bit-identical
//! for any `FREAC_WORKERS` value — CI diffs the 1-vs-4-worker runs at each
//! shard count.
//!
//! Arguments:
//! * `--shards N` — shard count (default 1; `FREAC_SERVE_SHARDS` env
//!   fallback). Multi-shard runs use kernel-affinity routing with work
//!   stealing.
//! * `--spike` — compress arrival gaps into a burst and enable elastic way
//!   autoscaling, the load shape the autoscaler exists for.
//! * `--sample` — representative-interval sampling: cluster the trace's
//!   windows by behavior signature, simulate only medoid and witness
//!   windows (adjacent ones replayed as one segment), and print
//!   extrapolated metrics with error bounds instead of the full replay.
//! * `--sample-window N` — requests per sampling window (default 1024).
//! * `--workers N` — worker threads (overrides `FREAC_WORKERS`): trace
//!   generation, verification, the cluster report's functional phase
//!   (`ClusterConfig::workers`), and sampled segment fan-out. Never
//!   affects output.
//!
//! Environment:
//! * `FREAC_SERVE_REQUESTS` — per-tenant request count (default 64).
//! * `FREAC_SERVE_SHARDS` — shard count when `--shards` is absent.
//! * `FREAC_WORKERS` — worker threads when `--workers` is absent.

use freac_experiments::parallel::{map_with, worker_count};
use freac_kernels::KernelId;
use freac_serve::inputs::reference_hash;
use freac_serve::{
    cluster_tenant_table, open_loop_trace, AutoscaleConfig, Cluster, ClusterConfig, RoutePolicy,
    SampleConfig, SampledServer, ServeConfig, StealConfig, TenantSpec,
};

/// Every Nth completion gets re-executed on the reference evaluator.
const VERIFY_STRIDE: usize = 7;

/// Fixed trace seed — the scenario is a pinned workload, not a sweep.
const TRACE_SEED: u64 = 0x10ad_6e4e_5e4e_0001;

fn specs(requests: u64, spike: bool) -> Vec<TenantSpec> {
    // A spike compresses the arrival gaps 20x: the same request set lands
    // as a burst, the sustained-backlog shape autoscaling converts ways for.
    let gap = |ps: u64| if spike { (ps / 20).max(1) } else { ps };
    let mut alpha = TenantSpec::new("alpha", "aes", requests);
    alpha.weight = 4;
    alpha.mean_gap_ps = gap(2_000);
    let mut beta = TenantSpec::new("beta", "gemm", requests);
    beta.weight = 2;
    beta.mean_gap_ps = gap(3_000);
    let mut gamma = TenantSpec::new("gamma", "aes", requests);
    gamma.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    gamma.mean_gap_ps = gap(2_500);
    gamma.deadline_ps = Some(20_000_000);
    let mut delta = TenantSpec::new("delta", "gemm", requests);
    delta.mix = vec![("aes".to_owned(), 2), ("gemm".to_owned(), 1)];
    delta.mean_gap_ps = gap(4_000);
    delta.exclusive_permille = 125;
    vec![alpha, beta, gamma, delta]
}

fn cluster_config(shards: usize, spike: bool, workers: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: (shards > 1).then(StealConfig::default),
        autoscale: spike.then(AutoscaleConfig::default),
        shard: ServeConfig::default(),
        workers,
        ..ClusterConfig::default()
    }
}

fn main() {
    let mut shards: usize = std::env::var("FREAC_SERVE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mut spike = false;
    let mut sample = false;
    let mut sample_window: usize = 1024;
    let mut workers_flag: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards takes a count");
            }
            "--spike" => spike = true,
            "--sample" => sample = true,
            "--sample-window" => {
                sample_window = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sample-window takes a request count");
            }
            "--workers" => {
                workers_flag = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--workers takes a count"),
                );
            }
            other => panic!(
                "unknown argument '{other}' (expected --shards N, --spike, --sample, --sample-window N, or --workers N)"
            ),
        }
    }
    let requests: u64 = std::env::var("FREAC_SERVE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let workers = workers_flag.unwrap_or_else(worker_count);
    let specs = specs(requests, spike);

    if sample {
        run_sampled(shards, spike, workers, sample_window, &specs);
        return;
    }

    let mut cluster =
        Cluster::new(cluster_config(shards, spike, workers)).expect("config is valid");
    cluster
        .register_paper_kernel(KernelId::Aes)
        .expect("map aes");
    cluster
        .register_paper_kernel(KernelId::Gemm)
        .expect("map gemm");
    for s in &specs {
        cluster
            .add_tenant(&s.name, s.weight)
            .expect("unique tenant");
    }

    let trace = open_loop_trace(&specs, TRACE_SEED, workers);
    let submitted = trace.len();
    for req in trace {
        cluster.submit(req).expect("trace requests are valid");
    }
    let report = cluster.run_to_completion().expect("serving drains");

    // Sampled verification: replay every Nth completion's (kernel, seed)
    // through the reference evaluator and compare output hashes.
    let sample: Vec<(String, u64, u64)> = report
        .completions
        .iter()
        .step_by(VERIFY_STRIDE)
        .map(|c| (c.kernel.clone(), c.seed, c.output_hash))
        .collect();
    let sampled = sample.len();
    let nets: std::collections::BTreeMap<String, freac_netlist::Netlist> = ["aes", "gemm"]
        .iter()
        .map(|k| {
            (
                (*k).to_owned(),
                cluster.kernel_netlist(k).expect("registered").clone(),
            )
        })
        .collect();
    let cycles: std::collections::BTreeMap<String, u64> = ["aes", "gemm"]
        .iter()
        .map(|k| {
            (
                (*k).to_owned(),
                cluster.kernel_func_cycles(k).expect("registered"),
            )
        })
        .collect();
    let mismatches: usize = map_with(workers, sample, move |(kernel, seed, got)| {
        let golden = reference_hash(&nets[&kernel], seed, cycles[&kernel])
            .expect("reference execution succeeds");
        usize::from(golden != got)
    })
    .into_iter()
    .sum();

    println!(
        "serve_loadgen: {submitted} requests, 4 tenants, aes+gemm, {shards} shard(s){}",
        if spike { ", spike" } else { "" }
    );
    print!("{}", cluster_tenant_table(&report));
    println!(
        "verified {sampled}/{} sampled completions, {mismatches} mismatches",
        report.completions.len()
    );
    assert_eq!(mismatches, 0, "served outputs diverged from the reference");
    println!("{}", freac_probe::to_counters_json(&report.probes));
}

/// The `--sample` path: same scenario, but only medoid and witness windows
/// are simulated, adjacent ones as one replayed segment, and the printed
/// metrics are extrapolations with bounds.
fn run_sampled(shards: usize, spike: bool, workers: usize, window: usize, specs: &[TenantSpec]) {
    let mut server = SampledServer::new(
        cluster_config(shards, spike, 1),
        SampleConfig {
            window,
            workers,
            ..SampleConfig::default()
        },
    )
    .expect("config is valid");
    server
        .register_paper_kernel(KernelId::Aes)
        .expect("map aes");
    server
        .register_paper_kernel(KernelId::Gemm)
        .expect("map gemm");
    for s in specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    let trace = open_loop_trace(specs, TRACE_SEED, workers);
    let submitted = trace.len();
    let report = server.run(&trace).expect("sampling succeeds");
    println!(
        "serve_loadgen: {submitted} requests, 4 tenants, aes+gemm, {shards} shard(s){}, sampled",
        if spike { ", spike" } else { "" }
    );
    print!("{}", report.render());
    println!("{}", freac_probe::to_counters_json(&report.probes));
}
