//! Golden output hashes: every completion's `output_hash` on pinned
//! server and cluster runs, folded into one FNV-1a digest per run.
//!
//! `serve_loadgen` and `freac_bench` recompute only a sample of output
//! hashes on the reference evaluator; these digests cover all of them, so
//! any change to which engine evaluates a request, at what width, or when,
//! must leave every hash byte-identical. The runs cover batching on with
//! exclusive bursts and 512-lane batches, batching off, and a 4-shard
//! stealing cluster at 1 and 4 workers.

use freac::kernels::KernelId;
use freac::serve::{
    open_loop_trace, Cluster, ClusterConfig, Completion, Request, RoutePolicy, SchedPolicy,
    ServeConfig, Server, StealConfig, TenantSpec,
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

/// FNV-1a over the sorted `(tenant, seq, output_hash)` list.
fn digest(completions: &[Completion]) -> u64 {
    let mut ids: Vec<(&str, u64, u64)> = completions
        .iter()
        .map(|c| (c.tenant.as_str(), c.seq, c.output_hash))
        .collect();
    ids.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    for (tenant, seq, hash) in ids {
        mix(tenant.as_bytes());
        mix(&seq.to_le_bytes());
        mix(&hash.to_le_bytes());
    }
    h
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

fn server_run(batching: bool, trace: Vec<Request>) -> Vec<Completion> {
    let mut server = Server::new(ServeConfig {
        batching,
        policy: SchedPolicy::WeightedFair,
        queue_depth: 1024,
        max_lanes: 512,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    server
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    server
        .register_paper_kernel(KernelId::Gemm)
        .expect("gemm maps");
    for s in specs(0) {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    let n = trace.len();
    for r in trace {
        server.submit(r).expect("trace request is valid");
    }
    let report = server.run_to_completion().expect("serving drains");
    assert_eq!(report.completions.len() + report.sheds.len(), n);
    report.completions
}

fn cluster_run(workers: usize) -> Vec<Completion> {
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
    report.completions
}

#[test]
fn batched_server_hashes_match_the_golden_digest() {
    let completions = server_run(true, bursty_trace());
    assert!(completions.iter().any(|c| c.lanes == 512));
    assert_eq!(
        digest(&completions),
        BATCHED_DIGEST,
        "{:#x}",
        digest(&completions)
    );
}

#[test]
fn single_lane_server_hashes_match_the_golden_digest() {
    let completions = server_run(false, open_loop_trace(&specs(32), SEED, 1));
    assert!(completions.iter().all(|c| c.lanes == 1));
    assert_eq!(
        digest(&completions),
        SINGLE_LANE_DIGEST,
        "{:#x}",
        digest(&completions)
    );
}

#[test]
fn stealing_cluster_hashes_match_the_golden_digest_at_any_worker_count() {
    for workers in [1, 4] {
        let completions = cluster_run(workers);
        assert_eq!(
            digest(&completions),
            CLUSTER_DIGEST,
            "{workers} workers: {:#x}",
            digest(&completions)
        );
    }
}
