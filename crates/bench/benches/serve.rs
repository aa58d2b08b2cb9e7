//! Serving-path benchmark: batched coalescing vs single-lane dispatch.
//!
//! Replays one pinned four-tenant AES/GEMM open-loop trace through three
//! servers that differ only in coalescing (single-lane, 64-lane batched,
//! and 256-lane wide-batched), then records:
//!
//! * `BENCH_serve_throughput.json` — completions, simulated span,
//!   request throughput, and the batched/wide-batched speedups over
//!   single-lane dispatch;
//! * `BENCH_serve_p99.json` — per-tenant p50/p95/p99/mean latency under
//!   the batched configuration;
//! * `BENCH_cluster_throughput.json` — the same trace through a 1-shard
//!   cluster baseline and a 4-shard cluster with kernel-affinity routing,
//!   work stealing, and elastic autoscaling enabled, plus the speedup;
//! * `BENCH_cluster_p99.json` — merged cluster-wide p50/p95/p99 per arm.
//!
//! Unlike the wall-clock benches, everything here is simulated time, so
//! both documents are bit-deterministic (no `git_rev`, no host timing) and
//! CI diffs them against the committed baselines in
//! `tests/baselines/bench/`. The batched arm must beat the single-lane arm
//! on the mixed workload — the bench aborts otherwise rather than record a
//! regression as data.

use std::fmt::Write as _;
use std::sync::Arc;

use freac_core::{Accelerator, AcceleratorTile, HandoffMode, SlicePartition};
use freac_kernels::{kernel, KernelId};
use freac_serve::{
    open_loop_trace, AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, RequestProfile,
    RoutePolicy, SchedPolicy, ServeConfig, ServeReport, Server, StealConfig, TenantSpec,
};

const TRACE_SEED: u64 = 0x5e1e_c7ed_7e57_0001;
const REQUESTS_PER_TENANT: u64 = 48;

fn specs() -> Vec<TenantSpec> {
    let mut alpha = TenantSpec::new("alpha", "aes", REQUESTS_PER_TENANT);
    alpha.weight = 4;
    alpha.mean_gap_ps = 2_000;
    let mut beta = TenantSpec::new("beta", "gemm", REQUESTS_PER_TENANT);
    beta.weight = 2;
    beta.mean_gap_ps = 3_000;
    let mut gamma = TenantSpec::new("gamma", "aes", REQUESTS_PER_TENANT);
    gamma.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    gamma.mean_gap_ps = 2_500;
    let mut delta = TenantSpec::new("delta", "gemm", REQUESTS_PER_TENANT);
    delta.mix = vec![("aes".to_owned(), 2), ("gemm".to_owned(), 1)];
    delta.mean_gap_ps = 4_000;
    vec![alpha, beta, gamma, delta]
}

fn run_arm(
    max_lanes: usize,
    accels: &[(KernelId, Arc<Accelerator>)],
    specs: &[TenantSpec],
) -> ServeReport {
    let mut server = Server::new(ServeConfig {
        max_lanes,
        // One slice, deep queues: the pinned trace backs up instead of
        // shedding, and the two kernels contend for one fabric, so every
        // extra dispatch is an extra reconfiguration swap. That isolates
        // what lane width buys (amortized reconfig + scheduling) from
        // slice-level parallelism, which a wider batch cannot add.
        slices: 1,
        queue_depth: 512,
        policy: SchedPolicy::WeightedFair,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    for (id, accel) in accels {
        server
            .register_accelerator(
                &id.name().to_lowercase(),
                Arc::clone(accel),
                RequestProfile::of(&kernel(*id).workload(1)),
            )
            .expect("kernel registers");
    }
    for s in specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    for req in open_loop_trace(specs, TRACE_SEED, 1) {
        server.submit(req).expect("trace request");
    }
    server.run_to_completion().expect("serving drains")
}

/// The mixed-tenant trace under one way-handoff mode: same single-slice
/// contended setup as [`run_arm`], plus one way conversion
/// (end-to-end → max-compute) before the trace lands, so the arm pays
/// every flavor of handoff stall — conversion, first-claim flush, and
/// drain-time reclaim. Returns the report and the conversion quote.
fn run_handoff_arm(
    handoff: HandoffMode,
    accels: &[(KernelId, Arc<Accelerator>)],
    specs: &[TenantSpec],
) -> (ServeReport, u64) {
    let mut server = Server::new(ServeConfig {
        handoff,
        slices: 1,
        queue_depth: 512,
        policy: SchedPolicy::WeightedFair,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    for (id, accel) in accels {
        server
            .register_accelerator(
                &id.name().to_lowercase(),
                Arc::clone(accel),
                RequestProfile::of(&kernel(*id).workload(1)),
            )
            .expect("kernel registers");
    }
    for s in specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    let conversion = server
        .rescale(SlicePartition::max_compute(), 0)
        .expect("rescale is valid");
    for req in open_loop_trace(specs, TRACE_SEED, 1) {
        server.submit(req).expect("trace request");
    }
    (
        server.run_to_completion().expect("serving drains"),
        conversion,
    )
}

/// The cluster workload: four kernels with traffic skewed toward AES
/// (deep home-shard queues reward stealing), one-in-eight exclusive
/// requests (single-lane dispatches batching cannot collapse), and a
/// cache-heavy starting partition (elastic headroom for autoscaling).
fn cluster_specs() -> Vec<TenantSpec> {
    let mut alpha = TenantSpec::new("alpha", "aes", 2 * REQUESTS_PER_TENANT * 2);
    alpha.weight = 4;
    alpha.mean_gap_ps = 1_000;
    let mut beta = TenantSpec::new("beta", "gemm", REQUESTS_PER_TENANT * 2);
    beta.weight = 2;
    beta.mean_gap_ps = 3_000;
    let mut gamma = TenantSpec::new("gamma", "aes", REQUESTS_PER_TENANT * 2);
    gamma.mix = vec![("aes".to_owned(), 2), ("kmp".to_owned(), 1)];
    gamma.mean_gap_ps = 2_000;
    let mut delta = TenantSpec::new("delta", "dot", REQUESTS_PER_TENANT * 2);
    delta.mix = vec![("dot".to_owned(), 2), ("gemm".to_owned(), 1)];
    delta.mean_gap_ps = 3_000;
    let mut out = vec![alpha, beta, gamma, delta];
    for s in &mut out {
        s.exclusive_permille = 125;
    }
    out
}

/// The skewed workload through a cluster: 1 shard is the baseline,
/// 4 shards run the full feature set (affinity routing, work stealing,
/// elastic way autoscaling).
fn run_cluster_arm(
    shards: usize,
    accels: &[(KernelId, Arc<Accelerator>)],
    specs: &[TenantSpec],
) -> ClusterReport {
    let mut cluster = Cluster::new(ClusterConfig {
        shards,
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: (shards > 1).then(StealConfig::default),
        // Sustained-backlog thresholds: stolen work arrives in transient
        // spikes that must not trigger way conversions on every thief.
        autoscale: (shards > 1).then(|| AutoscaleConfig {
            high_backlog: 96,
            up_epochs: 8,
            down_epochs: 64,
            ..AutoscaleConfig::default()
        }),
        epoch_ps: 10_000,
        shard: ServeConfig {
            partition: freac_core::SlicePartition::new(4, 10, 6).expect("valid split"),
            slices: 1,
            queue_depth: 1024,
            policy: SchedPolicy::WeightedFair,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    for (id, accel) in accels {
        cluster
            .register_accelerator(
                &id.name().to_lowercase(),
                Arc::clone(accel),
                RequestProfile::of(&kernel(*id).workload(1)),
            )
            .expect("kernel registers");
    }
    for s in specs {
        cluster
            .add_tenant(&s.name, s.weight)
            .expect("unique tenant");
    }
    for req in open_loop_trace(specs, TRACE_SEED, 1) {
        cluster.submit(req).expect("trace request");
    }
    cluster.run_to_completion().expect("cluster drains")
}

/// Merged cluster-wide latency quantile, ps.
fn cluster_quantile(r: &ClusterReport, q: f64) -> f64 {
    r.probes
        .histogram("serve.latency_ps")
        .expect("latencies recorded")
        .quantile(q)
        .expect("non-empty histogram")
}

fn main() {
    // One shared mapping per kernel — both arms serve identical logic.
    let tile = AcceleratorTile::new(1).expect("unit tile");
    let accels: Vec<(KernelId, Arc<Accelerator>)> =
        [KernelId::Aes, KernelId::Gemm, KernelId::Kmp, KernelId::Dot]
            .into_iter()
            .map(|id| {
                let circuit = kernel(id).circuit();
                (
                    id,
                    Accelerator::map_shared(&circuit, &tile).expect("kernel maps"),
                )
            })
            .collect();
    let specs = specs();

    // The single-server arms keep their original two-kernel registration
    // so the committed serve baselines stay byte-stable.
    let batched = run_arm(64, &accels[..2], &specs);
    let wide = run_arm(256, &accels[..2], &specs);
    let single = run_arm(1, &accels[..2], &specs);

    assert_eq!(
        batched.completions.len(),
        single.completions.len(),
        "both arms must complete the same request set"
    );
    assert!(
        batched.span_ps < single.span_ps,
        "batched span {} must beat single-lane span {}",
        batched.span_ps,
        single.span_ps
    );
    // The 4-word coalescer must never schedule worse than one-word
    // batching: a wider dispatch amortizes at least as much
    // reconfiguration per request.
    assert!(
        wide.span_ps <= batched.span_ps,
        "wide-batched span {} must not lose to 64-lane span {}",
        wide.span_ps,
        batched.span_ps
    );

    let speedup = single.span_ps as f64 / batched.span_ps as f64;
    let wide_speedup = single.span_ps as f64 / wide.span_ps as f64;
    let mut throughput = String::from("{\n");
    for (label, r) in [
        ("batched", &batched),
        ("batched_w4", &wide),
        ("single_lane", &single),
    ] {
        let _ = writeln!(
            throughput,
            "  \"{label}\": {{ \"completed\": {}, \"shed\": {}, \"dispatches\": {}, \"span_ps\": {}, \"throughput_rps\": {:.1} }},",
            r.completions.len(),
            r.sheds.len(),
            r.dispatches.len(),
            r.span_ps,
            r.throughput_rps()
        );
    }
    let _ = writeln!(throughput, "  \"batched_over_single_lane\": {speedup:.2},");
    let _ = writeln!(
        throughput,
        "  \"batched_w4_over_single_lane\": {wide_speedup:.2}"
    );
    throughput.push('}');
    bench::write_bench_json("serve_throughput", &throughput);
    println!(
        "serve throughput: batched {speedup:.2}x, wide-batched {wide_speedup:.2}x over single-lane"
    );

    let mut p99 = String::from("{\n");
    let last = batched.tenants.len() - 1;
    for (i, t) in batched.tenants.iter().enumerate() {
        let _ = writeln!(
            p99,
            "  \"{}\": {{ \"completed\": {}, \"p50_ps\": {:.0}, \"p95_ps\": {:.0}, \"p99_ps\": {:.0}, \"mean_ps\": {:.0} }}{}",
            t.name,
            t.completed,
            t.p50_ps,
            t.p95_ps,
            t.p99_ps,
            t.mean_ps,
            if i == last { "" } else { "," }
        );
    }
    p99.push('}');
    bench::write_bench_json("serve_p99", &p99);
    for t in &batched.tenants {
        println!(
            "serve p99 {}: {:.0} ps over {} completions",
            t.name, t.p99_ps, t.completed
        );
    }

    // Coherence arm: the same mixed-tenant trace under both way-handoff
    // modes. The coherent protocol must shed strictly less flush-stall
    // time (conversion + reconfiguration + drain reclaim) than the
    // conservative blind flush, with identical functional results — the
    // bench aborts rather than record a regression as data.
    let (flat, flat_conv) = run_handoff_arm(HandoffMode::ConservativeFlush, &accels[..2], &specs);
    let (coh, coh_conv) = run_handoff_arm(HandoffMode::coherent(), &accels[..2], &specs);
    assert_eq!(
        flat.completions.len(),
        coh.completions.len(),
        "both handoff arms must complete the same request set"
    );
    let hashes = |r: &ServeReport| -> Vec<(String, u64, u64)> {
        let mut h: Vec<_> = r
            .completions
            .iter()
            .map(|c| (c.tenant.clone(), c.seq, c.output_hash))
            .collect();
        h.sort();
        h
    };
    assert_eq!(
        hashes(&flat),
        hashes(&coh),
        "handoff mode must be invisible to functional results"
    );
    let stall = |r: &ServeReport, conversion: u64| -> u64 {
        conversion + r.probes.counter("serve.reconfig.total_ps") + r.teardown_ps
    };
    let (flat_stall, coh_stall) = (stall(&flat, flat_conv), stall(&coh, coh_conv));
    assert!(
        coh_stall < flat_stall,
        "coherent flush stall {coh_stall} ps must beat conservative {flat_stall} ps"
    );

    let saving = 1.0 - coh_stall as f64 / flat_stall as f64;
    let mut cohj = String::from("{\n");
    for (label, r, conv, st) in [
        ("conservative", &flat, flat_conv, flat_stall),
        ("coherent", &coh, coh_conv, coh_stall),
    ] {
        let _ = writeln!(
            cohj,
            "  \"{label}\": {{ \"completed\": {}, \"span_ps\": {}, \"conversion_ps\": {conv}, \"reconfig_total_ps\": {}, \"teardown_ps\": {}, \"flush_stall_ps\": {st} }},",
            r.completions.len(),
            r.span_ps,
            r.probes.counter("serve.reconfig.total_ps"),
            r.teardown_ps,
        );
    }
    let _ = writeln!(
        cohj,
        "  \"coherent_traffic\": {{ \"invalidations\": {}, \"writeback_pulls\": {}, \"claims\": {} }},",
        coh.probes.counter("cache.coh.invalidations"),
        coh.probes.counter("cache.coh.writeback_pulls"),
        coh.probes.counter("cache.coh.claims"),
    );
    let _ = writeln!(cohj, "  \"coherent_stall_saving\": {saving:.2}");
    cohj.push('}');
    bench::write_bench_json("serve_coherence", &cohj);
    println!("serve coherence: {saving:.2} of flush stall saved ({coh_stall} vs {flat_stall} ps)");

    // Cluster arm: 1-shard baseline vs 4 shards with affinity routing,
    // stealing, and autoscaling. The scaled-out cluster must win on both
    // throughput and tail latency or the bench aborts.
    let cspecs = cluster_specs();
    let shard1 = run_cluster_arm(1, &accels, &cspecs);
    let shard4 = run_cluster_arm(4, &accels, &cspecs);
    assert_eq!(
        shard1.completions.len(),
        shard4.completions.len(),
        "both cluster arms must complete the same request set"
    );
    assert!(
        shard4.throughput_rps() > shard1.throughput_rps(),
        "4-shard throughput {:.1} must beat 1-shard {:.1}",
        shard4.throughput_rps(),
        shard1.throughput_rps()
    );
    let (p99_1, p99_4) = (
        cluster_quantile(&shard1, 0.99),
        cluster_quantile(&shard4, 0.99),
    );
    assert!(
        p99_4 < p99_1,
        "4-shard p99 {p99_4:.0} ps must beat 1-shard {p99_1:.0} ps"
    );

    let cluster_speedup = shard1.span_ps as f64 / shard4.span_ps as f64;
    let mut cth = String::from("{\n");
    for (label, r) in [("shard1", &shard1), ("shard4", &shard4)] {
        let _ = writeln!(
            cth,
            "  \"{label}\": {{ \"completed\": {}, \"shed\": {}, \"steals\": {}, \"span_ps\": {}, \"throughput_rps\": {:.1} }},",
            r.completions.len(),
            r.sheds.len(),
            r.steals,
            r.span_ps,
            r.throughput_rps()
        );
    }
    let _ = writeln!(cth, "  \"shard4_over_shard1\": {cluster_speedup:.2}");
    cth.push('}');
    bench::write_bench_json("cluster_throughput", &cth);
    println!(
        "cluster throughput: 4-shard {cluster_speedup:.2}x over 1-shard ({:.1} vs {:.1} req/s)",
        shard4.throughput_rps(),
        shard1.throughput_rps()
    );

    let mut cp99 = String::from("{\n");
    for (i, (label, r)) in [("shard1", &shard1), ("shard4", &shard4)]
        .iter()
        .enumerate()
    {
        let _ = writeln!(
            cp99,
            "  \"{label}\": {{ \"p50_ps\": {:.0}, \"p95_ps\": {:.0}, \"p99_ps\": {:.0} }}{}",
            cluster_quantile(r, 0.5),
            cluster_quantile(r, 0.95),
            cluster_quantile(r, 0.99),
            if i == 1 { "" } else { "," }
        );
    }
    cp99.push('}');
    bench::write_bench_json("cluster_p99", &cp99);
    println!("cluster p99: 1-shard {p99_1:.0} ps, 4-shard {p99_4:.0} ps");
}
