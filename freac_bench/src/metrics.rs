//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the smoke test holds the two together. Simulated time is
//! reported in `sim_us` (simulated microseconds) so it never reads as a
//! host measurement. The end-to-end host times (`host_krps`, `setup_s`)
//! are scaled to the nominal host of the calibration kernel; per-layer host
//! times are as measured, with the calibration beside them
//! (`host.cal_ms`).

use std::collections::BTreeMap;

use freac_probe::Json;

use crate::stats::Better;

/// One metric's name, unit and, for end-to-end metrics, direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction improves it (end-to-end metrics only).
    pub better: Option<Better>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better: Some(better),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: None,
    }
}

/// What a user of the simulator sees: its speed, set-up time and memory
/// on the host, and the modelled system's latency, throughput and SLO
/// attainment in simulated time.
pub const END_TO_END: [Def; 8] = [
    e2e("host_krps", "kreq/s", Better::Higher),
    e2e("setup_s", "s", Better::Lower),
    e2e("peak_heap_mib", "MiB", Better::Lower),
    e2e("sim_p50_us", "sim_us", Better::Lower),
    e2e("sim_p99_us", "sim_us", Better::Lower),
    e2e("sim_tput_mrps", "Mreq/sim_s", Better::Higher),
    e2e("completed_frac", "ratio", Better::Higher),
    e2e("slo_met_frac", "ratio", Better::Higher),
];

/// Per-layer metrics of the traced run. A metric a workload does not
/// exercise reads 0 there (a count or a ratio, never a time). The last
/// three are the output checks' counters: the run fails unless
/// `verify.mismatches` and `sim.decomp_violations` are 0.
pub const PER_LAYER: [Def; 50] = [
    layer("core.accel.map_ms", "ms"),
    layer("netlist.plan.compile_ms", "ms"),
    layer("serve.loadgen.trace_ms", "ms"),
    layer("serve.submit_ms", "ms"),
    layer("serve.run.span_s", "s"),
    layer("netlist.plan.sweep_s", "s"),
    layer("netlist.plan.sweep_ns_per_lane", "ns"),
    layer("netlist.plan.sweep_share", "ratio"),
    layer("netlist.plan.sweeps_w1", "count"),
    layer("netlist.plan.sweeps_w4", "count"),
    layer("netlist.plan.sweeps_w8", "count"),
    layer("fold.plan.exec_share", "ratio"),
    layer("fold.plan.runs", "count"),
    layer("serve.inputs.pack_ns_per_lane", "ns"),
    layer("serve.inputs.hash_ns_per_lane", "ns"),
    layer("serve.server.loop_self_s", "s"),
    layer("serve.server.loop_self_share", "ratio"),
    layer("serve.cluster.steals_per_req", "ratio"),
    layer("serve.cluster.route_hit_ratio", "ratio"),
    layer("serve.cluster.rescales", "count"),
    layer("probe.registry.merge_ms", "ms"),
    layer("serve.sample.sim_frac", "ratio"),
    layer("serve.sample.speedup", "x"),
    layer("serve.sample.p99_bound_rel", "ratio"),
    layer("serve.sample.p50_err", "ratio"),
    layer("serve.sample.p99_err", "ratio"),
    layer("serve.sample.bound_miss", "count"),
    layer("probe.hist.p50_rel_err", "ratio"),
    layer("probe.hist.p99_rel_err", "ratio"),
    layer("sim.wait_mean_us", "sim_us"),
    layer("sim.wait_p99_us", "sim_us"),
    layer("sim.reconfig_mean_us", "sim_us"),
    layer("sim.exec_mean_us", "sim_us"),
    layer("serve.batch.lanes_mean", "lanes"),
    layer("serve.batch.fill", "ratio"),
    layer("serve.batch.waves_per_dispatch", "ratio"),
    layer("serve.sched.reconfigs_per_kreq", "ratio"),
    layer("serve.slice.util_mean", "ratio"),
    layer("serve.shed.frac", "ratio"),
    layer("serve.shed.queue_full", "count"),
    layer("serve.handoff.stall_us", "sim_us"),
    layer("cache.coh.invalidations", "count"),
    layer("cache.coh.writeback_pulls", "count"),
    layer("trace.overhead", "x"),
    layer("host.workers_slowdown", "x"),
    layer("host.cal_ms", "ms"),
    layer("host.vmhwm_mib", "MiB"),
    layer("verify.mismatches", "count"),
    layer("sim.decomp_violations", "count"),
    layer("verify.ref_checked", "count"),
];

/// A measured value of a catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
}

/// Orders `values` by the catalogue `defs`.
///
/// # Panics
///
/// Panics if a catalogued metric has no value: every metric is emitted on
/// every workload.
pub fn collect(defs: &[Def], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    defs.iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: *values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name)),
        })
        .collect()
}

/// The metrics as a JSON object of `{"value": v, "unit": u}` members.
pub fn to_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one-line result every run prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::UInt(attempted)),
        ("failed".to_owned(), Json::UInt(failed)),
        ("metrics".to_owned(), to_json(metrics)),
    ])
    .write()
}
