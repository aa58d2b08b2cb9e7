//! The global probe gets each count once.
//!
//! A report exports to the process-wide probe only what its server or
//! cluster recorded since its previous report, and a timing-only replica of
//! a sampled run exports nothing there. This binary holds a single test,
//! because the global probe is a process-wide `OnceLock` read from
//! `FREAC_METRICS` at first use: the test sets the variable before any
//! probe call and compares snapshots taken before and after each case. It
//! never writes the probe's output files.

use freac::netlist::builder::CircuitBuilder;
use freac::netlist::Netlist;
use freac::probe::global::{self, METRICS_ENV};
use freac::probe::CounterRegistry;
use freac::serve::{
    Cluster, ClusterConfig, Request, RequestProfile, SampleConfig, SampledServer, ServeConfig,
    Server, StealConfig,
};

fn adder() -> Netlist {
    let mut b = CircuitBuilder::new("k");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let s = b.add(&a, &x);
    b.word_output("s", &s);
    b.finish().expect("adder builds")
}

fn profile() -> RequestProfile {
    RequestProfile {
        cycles_per_item: 2,
        read_words: 4,
        write_words: 2,
    }
}

/// `n` requests from tenants `a` and `b`, `gap` ps apart, seqs from
/// `first`.
fn trace(first: u64, n: u64, gap: u64) -> Vec<Request> {
    (first..first + n)
        .map(|i| Request::new(["a", "b"][i as usize % 2], i, "k", i * gap, i))
        .collect()
}

/// The serving keys of `reg` (`serve.*`, `cluster.*`, `cache.*`), leaving
/// out the cluster's `cluster.shard.<i>.` copies and whatever other layers
/// export (the worker pool's `experiments.*`).
fn serving(reg: &CounterRegistry) -> CounterRegistry {
    let keep = |k: &str| {
        ["serve.", "cluster.", "cache."]
            .iter()
            .any(|p| k.starts_with(p))
            && !k.starts_with("cluster.shard.")
    };
    let mut out = CounterRegistry::new();
    for (k, v) in reg.counters().filter(|(k, _)| keep(k)) {
        out.add(k, v);
    }
    for (k, v) in reg.gauges().filter(|(k, _)| keep(k)) {
        out.gauge_max(k, v);
    }
    for (k, h) in reg.histograms().filter(|(k, _)| keep(k)) {
        out.merge_histogram(k, h);
    }
    out
}

/// Asserts that the global probe moved from `before` by exactly one merge
/// of `last`'s serving keys.
fn assert_exported_once(case: &str, before: &CounterRegistry, last: &CounterRegistry) {
    let mut want = serving(before);
    want.merge(&serving(last));
    let got = serving(&global::global().expect("probe on").snapshot());
    for (k, v) in want.counters() {
        assert_eq!(got.counter(k), v, "{case}: global {k}");
    }
    assert_eq!(got, want, "{case}: global serving keys");
}

#[test]
fn reports_export_each_count_once_and_replicas_export_nothing() {
    let dir = std::env::temp_dir().join(format!("freac-probe-export-{}", std::process::id()));
    std::env::set_var(METRICS_ENV, dir.join("freac-metrics.json"));
    let probe = global::global().expect("FREAC_METRICS turns the probe on");
    let snapshot = || probe.snapshot();

    // A sampled run: every replica is timing-only, so only the sampled
    // report's own `serve.sample.*` keys reach the global probe.
    let mut sampled = SampledServer::new(
        ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        },
        SampleConfig {
            window: 32,
            max_clusters: 3,
            warmup: 16,
            ..SampleConfig::default()
        },
    )
    .expect("config is valid");
    sampled
        .register_kernel("k", &adder(), profile())
        .expect("kernel maps");
    for t in ["a", "b"] {
        sampled.add_tenant(t, 1).expect("unique tenant");
    }
    let before = snapshot();
    let report = sampled.run(&trace(0, 400, 50_000)).expect("sampled run");
    assert!(report.simulated_requests > 0, "the run replays windows");
    let after = snapshot();
    let replayed: Vec<&str> = after
        .counters()
        .map(|(k, _)| k)
        .chain(after.histograms().map(|(k, _)| k))
        .filter(|k| k.starts_with("serve.requests.") || k.starts_with("cluster."))
        .collect();
    assert_eq!(
        replayed,
        Vec::<&str>::new(),
        "replicas export no replay counters"
    );
    assert_eq!(
        after.counter("serve.sample.trace.requests")
            - before.counter("serve.sample.trace.requests"),
        400,
        "the sampled report exports its own keys once"
    );

    // A server reported twice.
    let before = snapshot();
    let mut server = Server::new(ServeConfig {
        slices: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    server
        .register_kernel("k", &adder(), profile())
        .expect("kernel maps");
    for t in ["a", "b"] {
        server.add_tenant(t, 1).expect("unique tenant");
    }
    for r in trace(0, 40, 0) {
        server.submit(r).expect("valid request");
    }
    let first = server.run_to_completion().expect("server drains");
    assert!(!first.sheds.is_empty(), "the first drain sheds");
    for r in trace(40, 40, 1_000) {
        server.submit(r).expect("valid request");
    }
    let last = server.run_to_completion().expect("server drains");
    assert_eq!(last.completions.len() + last.sheds.len(), 80);
    assert_exported_once("server", &before, &last.probes);

    // A 2-shard stealing cluster reported twice.
    let before = snapshot();
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 2,
        steal: Some(StealConfig {
            imbalance: 2,
            max_per_epoch: 8,
        }),
        shard: ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        },
        epoch_ps: 10_000,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    cluster
        .register_kernel("k", &adder(), profile())
        .expect("kernel maps");
    for t in ["a", "b"] {
        cluster.add_tenant(t, 1).expect("unique tenant");
    }
    for r in trace(0, 40, 0) {
        cluster.submit(r).expect("valid request");
    }
    let first = cluster.run_to_completion().expect("cluster drains");
    assert!(first.steals > 0, "the first drain steals");
    for r in trace(40, 40, 0) {
        cluster.submit(r).expect("valid request");
    }
    let last = cluster.run_to_completion().expect("cluster drains");
    assert_eq!(last.completions.len() + last.sheds.len(), 80);
    assert_exported_once("cluster", &before, &last.probes);
}
