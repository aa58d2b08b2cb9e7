//! Every workload, in process, at 1/200 of its pinned size: the metrics
//! `BENCHMARK.json` names come out with their units, simulated metrics
//! repeat exactly, and the traced layer parts add back to the run span.
//!
//! A traced run is only `correct` when its single-threaded drain of
//! sub-trace 0 reproduces the untraced outcome, so on `cluster_affinity`
//! (two stepping threads untraced) the traced check is also the
//! one-worker-versus-two-workers identity check.

use freac_bench::{run, Options, Report, Workload};
use freac_probe::Json;

const SCALE: u64 = 200;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: SCALE,
        out_dir: None,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

/// The end-to-end metrics measured in simulated time, exact per seed.
fn simulated(name: &str) -> bool {
    name.starts_with("sim_") || name.ends_with("_frac")
}

#[test]
fn benchmark_json_names_every_workload() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is an array")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("named"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

/// Runs one workload three times: untraced twice, traced once.
fn check_workload(w: Workload) {
    let bench = benchmark_json();
    let first = run(&options(w, false)).expect("untraced run");
    assert!(first.correct, "{}: {:?}", w.name(), first.problems);
    assert_eq!(
        emitted(&first),
        declared(&bench, "end_to_end"),
        "{}",
        w.name()
    );
    assert!(first.metrics.iter().all(|m| m.value.is_finite()));

    let second = run(&options(w, false)).expect("untraced rerun");
    for (a, b) in first.metrics.iter().zip(&second.metrics) {
        if simulated(a.name) {
            assert_eq!(
                a.value,
                b.value,
                "{}: {} moved between runs",
                w.name(),
                a.name
            );
        }
    }

    let traced = run(&options(w, true)).expect("traced run");
    assert!(traced.correct, "{}: {:?}", w.name(), traced.problems);
    assert_eq!(
        emitted(&traced),
        declared(&bench, "per_layer"),
        "{}",
        w.name()
    );
    let l = traced.layers.expect("a traced run splits its span");
    let parts = l.pack_s + l.sweep_s + l.single_s + l.hash_s;
    assert!(parts > 0.0 && l.span_s > 0.0, "{}: {l:?}", w.name());
    // The replay re-runs only part of what the drain did, so the parts
    // stay below its span; 5% absorbs timer noise on a run this small.
    assert!(
        l.loop_self_s() >= -0.05 * l.span_s,
        "{}: replayed parts {parts} s exceed the run span {} s",
        w.name(),
        l.span_s
    );
    assert_eq!(l.mismatches, 0);
}

/// One test, workload after workload: concurrent tests would compete for
/// the cores the timed parts measure.
#[test]
fn every_workload_smoke() {
    for w in Workload::ALL {
        check_workload(w);
    }
}
