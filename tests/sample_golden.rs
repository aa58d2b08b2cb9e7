//! Golden sampled reports: every estimate, the cluster list and the whole
//! probe registry of pinned sampled runs, folded into one FNV-1a digest
//! per run.
//!
//! The sampler's estimates read only simulated timing, so a change to how
//! a run resolves its requests, builds its template cluster or evaluates
//! (or skips) output hashes must leave these digests byte-identical. The runs
//! cover a phase-structured trace shaped like the `sampled_long`
//! benchmark at reduced size, a saturated trace that sheds, and a trace
//! with exclusive requests and deadlines, each at 1 and 3 workers.

use freac::netlist::builder::CircuitBuilder;
use freac::netlist::Netlist;
use freac::serve::{
    open_loop_trace, ClusterConfig, Request, RequestProfile, RoutePolicy, SampleConfig,
    SampleReport, SampledServer, SchedPolicy, ServeConfig, StealConfig, TenantSpec,
};

/// Digest of the phase-structured run.
const PHASE_DIGEST: u64 = 0x92a7_d5b0_a051_4bb9;
/// Digest of the saturated run.
const SATURATED_DIGEST: u64 = 0x5c97_5299_1aaa_da01;
/// Digest of the exclusive-and-deadline run.
const EXCLUSIVE_DEADLINE_DIGEST: u64 = 0x4291_691b_e4d6_7076;

/// FNV-1a over the report's canonical rendering: the scalar accounting,
/// every estimate with its bound, the cluster list, the latency mixture
/// and the probes as `to_metrics_json` writes them (counters, estimate
/// gauges, and the per-window signature histograms).
fn digest(rep: &SampleReport) -> u64 {
    let text = format!(
        "{:?}\n{:?}\n{:?}\n{}",
        (
            rep.trace_requests,
            rep.window_size,
            rep.windows,
            rep.simulated_windows,
            rep.simulated_requests,
            rep.est_completed,
            rep.est_shed,
        ),
        (rep.p50_ps, rep.p95_ps, rep.p99_ps, rep.throughput_rps),
        (&rep.clusters, &rep.latency),
        freac::probe::to_metrics_json(&rep.probes),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// The 8-bit `add` or `mask` circuit.
fn circuit(name: &str) -> Netlist {
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

fn profile(name: &str) -> RequestProfile {
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

fn sampler(shard: ServeConfig, window: usize, workers: usize) -> SampledServer {
    let cluster = ClusterConfig {
        shards: 4,
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: Some(StealConfig::default()),
        shard,
        ..ClusterConfig::default()
    };
    let sample = SampleConfig {
        window,
        max_clusters: 8,
        warmup: window / 2,
        workers,
        ..SampleConfig::default()
    };
    let mut s = SampledServer::new(cluster, sample).expect("config is valid");
    for name in ["add", "mask"] {
        s.register_kernel(name, &circuit(name), profile(name))
            .expect("8-bit circuits map");
    }
    for t in 0..4u64 {
        s.add_tenant(&format!("t{t}"), 1 + t % 2)
            .expect("unique tenant");
    }
    s
}

/// A 512-request ramp at a 25,000 ps mean gap, then phases of 2,048
/// requests cycling mean gaps of 400 / 1,000 / 200 ps while the `mask`
/// share alternates between 1/3 and 1/2; tenants `t0..t3` take turns.
/// Gaps and kernels come from a fixed multiplicative hash of the index.
fn phase_trace(n: u64) -> Vec<Request> {
    const RAMP: u64 = 512;
    const PHASE: u64 = 2_048;
    const GAPS: [u64; 3] = [400, 1_000, 200];
    let draw = |i: u64, salt: u64| {
        let mut z = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 29;
        z.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 11
    };
    let mut arrival = 0u64;
    (0..n)
        .map(|i| {
            let (gap, mask_one_in) = if i < RAMP {
                (25_000, 3)
            } else {
                let phase = (i - RAMP) / PHASE;
                (GAPS[(phase % 3) as usize], 2 + phase % 2)
            };
            arrival += 1 + draw(i, 1) % (2 * gap);
            let kernel = if draw(i, 2) % mask_one_in == 0 {
                "mask"
            } else {
                "add"
            };
            Request::new(&format!("t{}", i % 4), i / 4, kernel, arrival, draw(i, 3))
        })
        .collect()
}

/// Four tenants over both kernels, `mean_gap_ps` apart each.
fn specs(requests: u64, mean_gap_ps: u64) -> Vec<TenantSpec> {
    (0..4u64)
        .map(|t| {
            let mut s = TenantSpec::new(&format!("t{t}"), "add", requests);
            s.weight = 1 + t % 2;
            s.mix = vec![("add".to_owned(), 1 + t % 2), ("mask".to_owned(), 1)];
            s.mean_gap_ps = mean_gap_ps + 100 * t;
            s
        })
        .collect()
}

fn check(name: &str, shard: ServeConfig, window: usize, trace: &[Request], want: u64) {
    for workers in [1, 3] {
        let rep = sampler(shard, window, workers)
            .run(trace)
            .expect("sampling drains");
        assert_eq!(rep.trace_requests, trace.len() as u64);
        assert!(rep.windows > 1, "{name}: the trace spans several windows");
        let got = digest(&rep);
        assert_eq!(got, want, "{name} at {workers} workers: {got:#x}");
    }
}

#[test]
fn phase_trace_report_matches_the_golden_digest() {
    let shard = ServeConfig {
        queue_depth: 512,
        ..ServeConfig::default()
    };
    check("phase", shard, 256, &phase_trace(12_800), PHASE_DIGEST);
}

#[test]
fn saturated_trace_report_matches_the_golden_digest() {
    // Arrivals far faster than four shards serve, into shallow queues:
    // every shard sheds once its queues fill.
    let shard = ServeConfig {
        queue_depth: 32,
        ..ServeConfig::default()
    };
    let trace = open_loop_trace(&specs(1_600, 40), 0x5a7_0001, 1);
    check("saturated", shard, 128, &trace, SATURATED_DIGEST);
}

#[test]
fn exclusive_deadline_trace_report_matches_the_golden_digest() {
    let mut specs = specs(1_600, 12_000);
    specs[1].exclusive_permille = 125;
    specs[2].deadline_ps = Some(20_000_000);
    specs[3].exclusive_permille = 250;
    specs[3].deadline_ps = Some(8_000_000);
    let shard = ServeConfig {
        queue_depth: 256,
        policy: SchedPolicy::DeadlineAware,
        ..ServeConfig::default()
    };
    let trace = open_loop_trace(&specs, 0x5a7_0002, 4);
    check(
        "exclusive-deadline",
        shard,
        128,
        &trace,
        EXCLUSIVE_DEADLINE_DIGEST,
    );
}
