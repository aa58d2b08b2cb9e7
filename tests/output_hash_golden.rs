//! Golden output hashes: every completion's `output_hash` on pinned
//! server and cluster runs, folded into one FNV-1a digest per run, plus a
//! digest of each run's whole probe export (`to_metrics_json`).
//!
//! `serve_loadgen` and `freac_bench` recompute only a sample of output
//! hashes on the reference evaluator; these digests cover all of them, so
//! any change to which engine evaluates a request, at what width, or when,
//! must leave every hash byte-identical. The runs cover batching on with
//! exclusive bursts and 512-lane batches, batching off (a one-lane cap), a
//! 4-shard stealing cluster at 1 and 4 workers, and a 2-shard stealing
//! cluster reported twice.
//!
//! The probe digests pin which keys a report's registry holds and their
//! values: the per-request counters, gauges and histograms, the per-tenant
//! keys, and the cluster's `cluster.*` and `cluster.shard.<i>.*` keys. A
//! server and a cluster reported twice pin that each report adds exactly
//! what happened since the last one and that counters stay cumulative.

use freac::kernels::KernelId;
use freac::probe::{to_metrics_json, CounterRegistry};
use freac::serve::{
    open_loop_trace, Cluster, ClusterConfig, ClusterReport, Completion, Outcome, Request,
    RoutePolicy, SchedPolicy, ServeConfig, ServeReport, Server, StealConfig, TenantSpec,
};

const SEED: u64 = 0x601d_e11a;

/// Digest of the batching-on server run.
const BATCHED_DIGEST: u64 = 0x91b6_e0dc_35f3_281b;
/// Digest of the batching-off server run.
const SINGLE_LANE_DIGEST: u64 = 0x09a2_efbf_1a6c_31fe;
/// Digest of the 4-shard cluster run at 1 and at 4 workers. It equals
/// [`BATCHED_DIGEST`]: both runs complete the same request set, and a hash
/// depends only on the request's kernel and seed.
const CLUSTER_DIGEST: u64 = 0x91b6_e0dc_35f3_281b;

/// Probe-export digest of the batching-on server run.
const BATCHED_PROBES_DIGEST: u64 = 0x3edc_9225_56fa_a6a7;
/// Probe-export digest of the batching-off server run.
const SINGLE_LANE_PROBES_DIGEST: u64 = 0x7073_b4aa_65af_9fed;
/// Probe-export digest of the 4-shard cluster run, at 1 and at 4 workers.
const CLUSTER_PROBES_DIGEST: u64 = 0xd8cf_9c63_cc7b_fb7a;
/// Probe-export digest of both reports of the server reported twice.
const TWICE_REPORTED_PROBES_DIGEST: u64 = 0x3804_55e9_c6c0_fd48;
/// Digests of the first and second report of the cluster reported twice.
const TWICE_REPORTED_CLUSTER_DIGESTS: [u64; 2] = [0x79f3_42a2_5580_323a, 0xfa8d_9b77_de6b_e82d];
/// Probe-export digest of both reports of the cluster reported twice.
const TWICE_REPORTED_CLUSTER_PROBES_DIGEST: u64 = 0x12c0_2f7c_27f1_009d;

/// FNV-1a over byte strings, fed in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
}

/// FNV-1a over the sorted `(tenant, seq, output_hash)` list.
fn digest(completions: &[Completion]) -> u64 {
    let mut ids: Vec<(&str, u64, u64)> = completions
        .iter()
        .map(|c| (c.tenant.as_str(), c.seq, c.output_hash))
        .collect();
    ids.sort_unstable();
    let mut h = Fnv::new();
    for (tenant, seq, hash) in ids {
        h.mix(tenant.as_bytes());
        h.mix(&seq.to_le_bytes());
        h.mix(&hash.to_le_bytes());
    }
    h.0
}

/// FNV-1a over the `metrics.json` export of each registry, in order.
fn probes_digest<'a>(registries: impl IntoIterator<Item = &'a CounterRegistry>) -> u64 {
    let mut h = Fnv::new();
    for r in registries {
        h.mix(to_metrics_json(r).as_bytes());
    }
    h.0
}

/// Four AES/GEMM tenants, one in eight requests exclusive.
fn specs(requests: u64) -> Vec<TenantSpec> {
    let mut alpha = TenantSpec::new("alpha", "aes", requests);
    alpha.weight = 4;
    alpha.mean_gap_ps = 2_000;
    let mut beta = TenantSpec::new("beta", "gemm", requests);
    beta.weight = 2;
    beta.mean_gap_ps = 3_000;
    let mut gamma = TenantSpec::new("gamma", "aes", requests);
    gamma.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    gamma.mean_gap_ps = 2_500;
    let mut delta = TenantSpec::new("delta", "gemm", requests);
    delta.mix = vec![("aes".to_owned(), 2), ("gemm".to_owned(), 1)];
    delta.mean_gap_ps = 4_000;
    let mut specs = vec![alpha, beta, gamma, delta];
    for s in &mut specs {
        s.exclusive_permille = 125;
    }
    specs
}

/// The open-loop trace plus bursts: 600 batchable AES requests at 0 ps
/// (a 512-lane batch and its tail), and two bursts of 16 exclusive GEMM
/// requests that queue together.
fn bursty_trace() -> Vec<Request> {
    let mut trace = open_loop_trace(&specs(32), SEED, 1);
    for i in 0..600u64 {
        trace.push(Request::new("alpha", 10_000 + i, "aes", 0, SEED ^ i));
    }
    for (b, at) in [(0u64, 0u64), (1, 40_000)] {
        for i in 0..16u64 {
            let mut r = Request::new("delta", 20_000 + 16 * b + i, "gemm", at, 3 * i + b);
            r.exclusive = true;
            trace.push(r);
        }
    }
    trace
}

fn server_config(batching: bool) -> ServeConfig {
    ServeConfig {
        policy: SchedPolicy::WeightedFair,
        queue_depth: 1024,
        max_lanes: if batching { 512 } else { 1 },
        ..ServeConfig::default()
    }
}

fn new_server(cfg: ServeConfig) -> Server {
    let mut server = Server::new(cfg).expect("config is valid");
    server
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    server
        .register_paper_kernel(KernelId::Gemm)
        .expect("gemm maps");
    for s in specs(0) {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    server
}

fn server_run(batching: bool, trace: Vec<Request>) -> ServeReport {
    let mut server = new_server(server_config(batching));
    let n = trace.len();
    for r in trace {
        server.submit(r).expect("trace request is valid");
    }
    let report = server.run_to_completion().expect("serving drains");
    assert_eq!(report.completions.len() + report.sheds.len(), n);
    report
}

fn cluster_run(workers: usize) -> ClusterReport {
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 4,
        route: RoutePolicy::KernelAffinity { spill_depth: 48 },
        steal: Some(StealConfig {
            imbalance: 2,
            max_per_epoch: 8,
        }),
        shard: ServeConfig {
            slices: 1,
            queue_depth: 256,
            ..ServeConfig::default()
        },
        epoch_ps: 20_000,
        workers,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    cluster
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    cluster
        .register_paper_kernel(KernelId::Gemm)
        .expect("gemm maps");
    for s in specs(0) {
        cluster
            .add_tenant(&s.name, s.weight)
            .expect("unique tenant");
    }
    let trace = bursty_trace();
    let n = trace.len();
    for r in trace {
        cluster.submit(r).expect("trace request is valid");
    }
    let report = cluster.run_to_completion().expect("cluster drains");
    assert_eq!(report.completions.len() + report.sheds.len(), n);
    assert!(report.steals > 0, "the pinned cluster run steals");
    report
}

#[test]
fn batched_server_hashes_match_the_golden_digest() {
    let report = server_run(true, bursty_trace());
    let completions = &report.completions;
    assert!(completions.iter().any(|c| c.lanes == 512));
    assert_eq!(
        digest(completions),
        BATCHED_DIGEST,
        "{:#x}",
        digest(completions)
    );
    let probes = probes_digest([&report.probes]);
    assert_eq!(probes, BATCHED_PROBES_DIGEST, "probes: {probes:#x}");
}

#[test]
fn single_lane_server_hashes_match_the_golden_digest() {
    let report = server_run(false, open_loop_trace(&specs(32), SEED, 1));
    let completions = &report.completions;
    assert!(completions.iter().all(|c| c.lanes == 1));
    assert_eq!(
        digest(completions),
        SINGLE_LANE_DIGEST,
        "{:#x}",
        digest(completions)
    );
    let probes = probes_digest([&report.probes]);
    assert_eq!(probes, SINGLE_LANE_PROBES_DIGEST, "probes: {probes:#x}");
}

#[test]
fn stealing_cluster_hashes_match_the_golden_digest_at_any_worker_count() {
    for workers in [1, 4] {
        let report = cluster_run(workers);
        assert_eq!(
            digest(&report.completions),
            CLUSTER_DIGEST,
            "{workers} workers: {:#x}",
            digest(&report.completions)
        );
        let probes = probes_digest([&report.probes]);
        assert_eq!(
            probes, CLUSTER_PROBES_DIGEST,
            "{workers} workers, probes: {probes:#x}"
        );
    }
}

#[test]
fn twice_reported_server_probes_match_the_golden_digest() {
    // The first half of the open-loop trace is drained and reported; the
    // second half is submitted after that report (some of it arriving
    // before the server's clock, like a late submission) and the server
    // is drained and reported again. Shallow queues shed, the hook retries
    // each shed request once, and every third request carries a deadline,
    // so the shed, retry and deadline counters are pinned too.
    let mut trace = open_loop_trace(&specs(32), SEED, 1);
    trace.sort_by_key(|r| (r.arrival_ps, r.tenant.clone(), r.seq));
    for r in trace.iter_mut().filter(|r| r.seq % 3 == 0) {
        r.deadline_ps = Some(r.arrival_ps + 10_000_000);
    }
    let second = trace.split_off(trace.len() / 2);
    let mut server = new_server(ServeConfig {
        slices: 2,
        queue_depth: 6,
        ..server_config(true)
    });
    for r in trace {
        server.submit(r).expect("trace request is valid");
    }
    let mut hook = |o: &Outcome| match o {
        Outcome::Shed(s) if s.request.retries == 0 => {
            let mut retry = s.request.clone();
            retry.retries = 1;
            vec![retry]
        }
        _ => Vec::new(),
    };
    server
        .run_until(u64::MAX, &mut hook)
        .expect("serving drains");
    let first = server.report().expect("first report");
    for r in second {
        server.submit(r).expect("trace request is valid");
    }
    server
        .run_until(u64::MAX, &mut hook)
        .expect("serving drains");
    let last = server.report().expect("second report");
    for key in [
        "serve.requests.shed",
        "serve.requests.retried",
        "serve.deadlines.met",
        "serve.deadlines.missed",
    ] {
        assert!(first.probes.counter(key) > 0, "{key} is exercised");
    }
    assert!(
        last.probes.counter("serve.requests.completed")
            > first.probes.counter("serve.requests.completed"),
        "counters stay cumulative across reports"
    );
    let got = probes_digest([&first.probes, &last.probes]);
    assert_eq!(got, TWICE_REPORTED_PROBES_DIGEST, "{got:#x}");
}

#[test]
fn twice_reported_cluster_matches_the_golden_digests() {
    // A 2-shard stealing cluster drains the bursty trace and reports, then
    // drains a second copy of it under fresh sequence numbers, arriving
    // 50 us later (before the cluster's clock, which the first drain left
    // near 70 us), and reports again.
    let second: Vec<Request> = bursty_trace()
        .into_iter()
        .map(|mut r| {
            r.seq += 100_000;
            r.arrival_ps += 50_000_000;
            r
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 2,
        route: RoutePolicy::KernelAffinity { spill_depth: 48 },
        steal: Some(StealConfig {
            imbalance: 2,
            max_per_epoch: 8,
        }),
        shard: ServeConfig {
            slices: 1,
            queue_depth: 256,
            ..ServeConfig::default()
        },
        epoch_ps: 20_000,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    cluster
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    cluster
        .register_paper_kernel(KernelId::Gemm)
        .expect("gemm maps");
    for s in specs(0) {
        cluster
            .add_tenant(&s.name, s.weight)
            .expect("unique tenant");
    }
    let mut reports = Vec::new();
    for half in [bursty_trace(), second] {
        for r in half {
            cluster.submit(r).expect("trace request is valid");
        }
        let report = cluster.run_to_completion().expect("cluster drains");
        let shard_completed: u64 = report
            .shards
            .iter()
            .map(|s| s.probes.counter("serve.requests.completed"))
            .sum();
        assert_eq!(shard_completed, report.completions.len() as u64);
        reports.push(report);
    }
    let (first, last) = (&reports[0], &reports[1]);
    assert!(
        first.steals > 0 && last.steals > first.steals,
        "both drains steal"
    );
    assert!(
        !first.sheds.is_empty() && last.sheds.len() > first.sheds.len(),
        "both drains shed"
    );
    let got = [digest(&first.completions), digest(&last.completions)];
    assert_eq!(got, TWICE_REPORTED_CLUSTER_DIGESTS, "{got:#x?}");
    let probes = probes_digest([&first.probes, &last.probes]);
    assert_eq!(
        probes, TWICE_REPORTED_CLUSTER_PROBES_DIGEST,
        "probes: {probes:#x}"
    );
}
