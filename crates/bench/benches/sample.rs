//! Sampled-simulation and parallel functional-phase benches.
//!
//! Replays one pinned phase-structured million-request trace (a ramp
//! window that pays the cold-slice setups, then phases cycling arrival
//! gaps and kernel mixes) through three arms and records:
//!
//! * `BENCH_sample_speedup.json` — wall clock of the full-fidelity replay
//!   vs the representative-interval sampled run on the same trace, plus
//!   the speedup. The sampled run must be at least 10x faster (override
//!   the floor with `FREAC_BENCH_MIN_SAMPLE_SPEEDUP`) or the bench
//!   aborts;
//! * `BENCH_sample_accuracy.json` — the extrapolated p50/p95/p99 with
//!   their declared bounds next to the full run's values. Simulated time
//!   only, so the document is byte-deterministic and CI diffs it against
//!   the committed baseline;
//! * `BENCH_cluster_parallel.json` — wall clock of a cluster drain whose
//!   time the report's functional phase dominates (a deep add-xor-rotate
//!   mixer in 512-lane batches, nothing shed) with the phase on 1 worker
//!   vs 4. The reports must be byte-identical; on hosts with at least 4
//!   hardware threads the 4-worker drain must also be at least 2x faster
//!   (floor override: `FREAC_BENCH_MIN_PARALLEL_SPEEDUP`) or the bench
//!   aborts — on smaller hosts the wall gate is reported but not
//!   enforced, since threads that time-slice one core can only lose.
//!
//! Wall-clock numbers vary by host, so only the accuracy document is
//! baseline-diffed; the speedup gates run inside this binary.

use std::fmt::Write as _;
use std::time::Instant;

use freac_netlist::builder::CircuitBuilder;
use freac_netlist::Netlist;
use freac_serve::{
    Cluster, ClusterConfig, ClusterReport, Request, RequestProfile, RoutePolicy, SampleConfig,
    SampledServer, ServeConfig, StealConfig,
};

/// Requests in the sampled-vs-full trace. The ISSUE-level gate is "the
/// million-request trace in seconds"; smoke mode keeps the full arm.
const SPEEDUP_REQUESTS: u64 = 1_000_000;
/// Requests in the functional-phase arms: about 40 full 512-lane passes,
/// so the phase spreads over every worker.
const PHASE_REQUESTS: u64 = 20_000;

fn adder() -> Netlist {
    let mut b = CircuitBuilder::new("add");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let s = b.add(&a, &x);
    b.word_output("s", &s);
    b.finish().expect("adder builds")
}

fn masker() -> Netlist {
    let mut b = CircuitBuilder::new("mask");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let m = b.and_words(&a, &x);
    b.word_output("m", &m);
    b.finish().expect("masker builds")
}

fn add_profile() -> RequestProfile {
    RequestProfile {
        cycles_per_item: 2,
        read_words: 4,
        write_words: 2,
    }
}

fn mask_profile() -> RequestProfile {
    RequestProfile {
        cycles_per_item: 1,
        read_words: 2,
        write_words: 1,
    }
}

/// The phase-structured smoke trace: one gently spaced ramp window pays
/// the cold-slice configurations, then phases of 16384 requests cycle
/// arrival gaps and kernel mixes (the regime interval sampling
/// compresses).
fn ramp_trace(n: u64) -> Vec<Request> {
    const RAMP: u64 = 1_024;
    const PHASE: u64 = 16_384;
    const GAPS: [u64; 3] = [400, 1_000, 200];
    let mut arrival = 0u64;
    (0..n)
        .map(|i| {
            let (gap, mask_mod) = if i < RAMP {
                (25_000, 3)
            } else {
                let phase = (i - RAMP) / PHASE;
                (GAPS[(phase % 3) as usize], 2 + phase % 2)
            };
            arrival += gap;
            let tenant = format!("t{}", i % 4);
            let kernel = if i % mask_mod == 0 { "mask" } else { "add" };
            Request::new(&tenant, i / 4, kernel, arrival, i)
        })
        .collect()
}

fn cluster_config() -> ClusterConfig {
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

fn full_cluster() -> Cluster {
    let mut c = Cluster::new(cluster_config()).expect("config is valid");
    c.register_kernel("add", &adder(), add_profile())
        .expect("adder maps");
    c.register_kernel("mask", &masker(), mask_profile())
        .expect("masker maps");
    for t in 0..4 {
        c.add_tenant(&format!("t{t}"), 1 + t % 2)
            .expect("unique tenant");
    }
    c
}

/// A deep mixing datapath for the functional-phase arms: 16 independent
/// 128-bit states, each through 16 ChaCha-style add-xor-rotate steps, in
/// registers, so every request hashes four cycles of ~4x an AES round's
/// logic.
fn arx_mixer() -> Netlist {
    let mut b = CircuitBuilder::new("arx");
    for stream in 0..16 {
        let mut state = Vec::new();
        let mut regs = Vec::new();
        for i in 0..4 {
            let x = b.word_input(&format!("x{stream}_{i}"), 32);
            let (q, h) = b.word_reg(0, 32);
            state.push(b.xor_words(&q, &x));
            regs.push(h);
        }
        for r in 0..16 {
            let (a, x, c, d) = (r % 4, (r + 1) % 4, (r + 2) % 4, (r + 3) % 4);
            state[a] = b.add(&state[a], &state[x]);
            let t = b.xor_words(&state[d], &state[a]);
            state[d] = b.rotl_const(&t, 16);
            state[c] = b.add(&state[c], &state[d]);
            let t = b.xor_words(&state[x], &state[c]);
            state[x] = b.rotl_const(&t, 12);
        }
        for (i, h) in regs.into_iter().enumerate() {
            b.connect_word_reg(h, &state[i]);
            b.word_output(&format!("y{stream}_{i}"), &state[i]);
        }
    }
    b.finish().expect("mixer builds")
}

/// Four shards serving the mixer in 512-lane batches, on 4-MCC tiles (so
/// its fold fits the configuration rows), with queues deep enough that
/// nothing sheds: the event loop dispatches once per batch while the
/// functional phase hashes four cycles of the mixer per request, so the
/// phase dominates the drain.
fn phase_cluster(workers: usize, mixer: &Netlist) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        shards: 4,
        route: RoutePolicy::RoundRobin,
        shard: ServeConfig {
            queue_depth: PHASE_REQUESTS as usize,
            max_lanes: 512,
            tile_mccs: 4,
            ..ServeConfig::default()
        },
        workers,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    let profile = RequestProfile {
        cycles_per_item: 4,
        read_words: 64,
        write_words: 64,
    };
    c.register_kernel("arx", mixer, profile)
        .expect("mixer maps");
    for t in 0..4 {
        c.add_tenant(&format!("t{t}"), 1).expect("unique tenant");
    }
    c
}

/// The functional-phase trace: mixer requests 100 ps apart, so every
/// slice's queue stays deep and batches fill.
fn phase_trace(n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| Request::new(&format!("t{}", i % 4), i / 4, "arx", i * 100, i))
        .collect()
}

fn sampler() -> SampledServer {
    let mut s = SampledServer::new(
        cluster_config(),
        SampleConfig {
            window: 1024,
            max_clusters: 12,
            warmup: 512,
            workers: 4,
            ..SampleConfig::default()
        },
    )
    .expect("config is valid");
    s.register_kernel("add", &adder(), add_profile())
        .expect("adder maps");
    s.register_kernel("mask", &masker(), mask_profile())
        .expect("masker maps");
    for t in 0..4 {
        s.add_tenant(&format!("t{t}"), 1 + t % 2)
            .expect("unique tenant");
    }
    s
}

fn run_full(mut cluster: Cluster, trace: &[Request]) -> (ClusterReport, f64) {
    for r in trace.iter().cloned() {
        cluster.submit(r).expect("trace request");
    }
    let start = Instant::now();
    let report = cluster.run_to_completion().expect("cluster drains");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

fn gate_floor(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    // Arm 1: full fidelity vs sampled on the million-request trace.
    let trace = ramp_trace(SPEEDUP_REQUESTS);
    let (full, full_ms) = run_full(full_cluster(), &trace);
    let h = full
        .probes
        .histogram("serve.latency_ps")
        .expect("latencies recorded");
    let s = sampler();
    let start = Instant::now();
    let sampled = s.run(&trace).expect("sampling drains");
    let sampled_ms = start.elapsed().as_secs_f64() * 1e3;
    let speedup = full_ms / sampled_ms.max(f64::MIN_POSITIVE);
    let floor = gate_floor("FREAC_BENCH_MIN_SAMPLE_SPEEDUP", 10.0);
    assert!(
        speedup >= floor,
        "sampled run must be at least {floor}x faster than full fidelity: \
         {full_ms:.0} ms vs {sampled_ms:.0} ms ({speedup:.1}x)"
    );

    let mut sp = String::from("{\n");
    let _ = writeln!(
        sp,
        "  \"full\": {{ \"requests\": {}, \"completed\": {}, \"shed\": {}, \"wall_ms\": {:.1} }},",
        trace.len(),
        full.completions.len(),
        full.sheds.len(),
        full_ms
    );
    let _ = writeln!(
        sp,
        "  \"sampled\": {{ \"simulated_requests\": {}, \"windows_simulated\": {}, \"wall_ms\": {:.1} }},",
        sampled.simulated_requests, sampled.simulated_windows, sampled_ms
    );
    let _ = writeln!(sp, "  \"sampled_over_full\": {speedup:.1}");
    sp.push('}');
    bench::write_bench_json("sample_speedup", &sp);
    println!(
        "sample speedup: {speedup:.1}x ({full_ms:.0} ms full vs {sampled_ms:.0} ms sampled, \
         {} of {} requests simulated)",
        sampled.simulated_requests,
        trace.len()
    );

    // Deterministic accuracy document: extrapolated quantiles + bounds vs
    // the full run, simulated time only (CI byte-diffs this).
    let mut acc = String::from("{\n");
    for (i, (name, est, actual)) in [
        ("p50", sampled.p50_ps, h.quantile(0.5).expect("non-empty")),
        ("p95", sampled.p95_ps, h.quantile(0.95).expect("non-empty")),
        ("p99", sampled.p99_ps, h.quantile(0.99).expect("non-empty")),
    ]
    .into_iter()
    .enumerate()
    {
        assert!(
            est.covers(actual),
            "{name}: full-fidelity {actual} outside sampled bound {} +- {}",
            est.value,
            est.bound
        );
        let _ = writeln!(
            acc,
            "  \"{name}\": {{ \"sampled_ps\": {:.1}, \"bound_ps\": {:.1}, \"full_ps\": {:.1}, \"rel_err\": {:.4} }},",
            est.value,
            est.bound,
            actual,
            (actual - est.value).abs() / actual.max(f64::MIN_POSITIVE)
        );
        if i == 2 {
            let _ = writeln!(
                acc,
                "  \"est_completed\": {}, \"est_shed\": {}, \"full_completed\": {}",
                sampled.est_completed,
                sampled.est_shed,
                full.completions.len()
            );
        }
    }
    acc.push('}');
    bench::write_bench_json("sample_accuracy", &acc);
    println!(
        "sample accuracy: p50 {:.0} +- {:.0} ps (full {:.0}), p99 {:.0} +- {:.0} ps (full {:.0})",
        sampled.p50_ps.value,
        sampled.p50_ps.bound,
        h.quantile(0.5).expect("non-empty"),
        sampled.p99_ps.value,
        sampled.p99_ps.bound,
        h.quantile(0.99).expect("non-empty"),
    );

    // Arm 2: the functional phase on 1 worker vs 4. Byte identity first,
    // then the wall-clock gate.
    let mixer = arx_mixer();
    let ptrace = phase_trace(PHASE_REQUESTS);
    let (seq, seq_ms) = run_full(phase_cluster(1, &mixer), &ptrace);
    let (par, par_ms) = run_full(phase_cluster(4, &mixer), &ptrace);
    assert_eq!(
        seq.completions.len(),
        ptrace.len(),
        "the phase arm must complete every request"
    );
    assert_eq!(
        freac_probe::to_counters_json(&seq.probes),
        freac_probe::to_counters_json(&par.probes),
        "worker count must not change the probe registry"
    );
    assert_eq!(
        seq.completions, par.completions,
        "worker count must not change the completion stream"
    );
    let pspeed = seq_ms / par_ms.max(f64::MIN_POSITIVE);
    let pfloor = gate_floor("FREAC_BENCH_MIN_PARALLEL_SPEEDUP", 2.0);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= 4 {
        assert!(
            pspeed >= pfloor,
            "a 4-worker functional phase must make the drain at least {pfloor}x faster: \
             {seq_ms:.0} ms vs {par_ms:.0} ms ({pspeed:.1}x)"
        );
    } else {
        println!(
            "functional phase: wall gate skipped ({cores} hardware threads < 4); \
             measured {pspeed:.1}x"
        );
    }
    let passes = seq.probes.counter("serve.func.passes");
    let mut par_json = String::from("{\n");
    let _ = writeln!(
        par_json,
        "  \"workers1\": {{ \"requests\": {}, \"completed\": {}, \"wall_ms\": {:.1} }},",
        ptrace.len(),
        seq.completions.len(),
        seq_ms
    );
    let _ = writeln!(
        par_json,
        "  \"workers4\": {{ \"requests\": {}, \"completed\": {}, \"wall_ms\": {:.1} }},",
        ptrace.len(),
        par.completions.len(),
        par_ms
    );
    let _ = writeln!(par_json, "  \"func_passes\": {passes},");
    let _ = writeln!(par_json, "  \"reports_identical\": true,");
    let _ = writeln!(par_json, "  \"workers4_over_workers1\": {pspeed:.1}");
    par_json.push('}');
    bench::write_bench_json("cluster_parallel", &par_json);
    println!(
        "functional phase: {pspeed:.1}x ({seq_ms:.0} ms at 1 worker vs {par_ms:.0} ms at 4, \
         {passes} passes)"
    );
}
