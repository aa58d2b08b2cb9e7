//! Simulated-time outcomes: a compact summary of one drained run, pooled
//! across a workload's sub-traces, and the output checks over it.

use std::collections::BTreeMap;

use freac_probe::{CounterRegistry, Histogram};
use freac_serve::inputs::reference_hash;
use freac_serve::{Completion, Shed, ShedReason};

use crate::stats::nearest_rank;
use crate::workload::KernelEntry;

/// Latency limit of `slo_met_frac`: 50 simulated µs, in ps.
pub const SLO_PS: u64 = 50_000_000;

/// Completions per workload whose output hash is recomputed on the
/// reference evaluator.
pub const REF_CHECKS: usize = 256;

/// Probe counters the per-layer metrics read, summed across runs.
const COUNTERS: [&str; 14] = [
    "serve.batches.dispatched",
    "serve.lanes.occupied",
    "serve.lanes.capacity",
    "serve.batch.waves",
    "serve.reconfigs",
    "serve.reconfig.total_ps",
    "serve.teardown.reclaim_ps",
    "serve.rescale.conversion_ps",
    "serve.rescales",
    "cache.coh.invalidations",
    "cache.coh.writeback_pulls",
    "cluster.steals",
    "cluster.route.cache.hits",
    "cluster.route.cache.misses",
];

/// A completion picked for reference re-execution.
#[derive(Debug, Clone)]
struct RefSample {
    kernel: String,
    seed: u64,
    output_hash: u64,
}

/// What the metrics and checks need from drained runs, without the
/// runs' full reports.
#[derive(Debug, Clone, Default)]
pub struct SimSummary {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed.
    pub shed: u64,
    /// Sheds because a kernel queue was full.
    pub shed_queue_full: u64,
    /// Simulated span, summed over runs, ps.
    pub span_ps: u64,
    /// Completions within [`SLO_PS`].
    pub slo_met: u64,
    /// Completions whose wait + reconfiguration + execution differs from
    /// their latency.
    pub decomp_violations: u64,
    latencies: Vec<u64>,
    waits: Vec<u64>,
    wait_ps: u128,
    reconfig_ps: u128,
    exec_ps: u128,
    slice_busy_ps: u64,
    slice_span_ps: u64,
    counters: BTreeMap<&'static str, u64>,
    latency_hist: Histogram,
    refs: Vec<RefSample>,
}

impl SimSummary {
    /// Summarizes one drained run of `submitted` requests, keeping
    /// `ref_count` evenly spaced completions for reference checks.
    pub fn of(
        completions: &[Completion],
        sheds: &[Shed],
        submitted: u64,
        span_ps: u64,
        probes: &CounterRegistry,
        ref_count: usize,
    ) -> SimSummary {
        let mut s = SimSummary {
            submitted,
            completed: completions.len() as u64,
            shed: sheds.len() as u64,
            shed_queue_full: sheds
                .iter()
                .filter(|s| s.reason == ShedReason::QueueFull)
                .count() as u64,
            span_ps,
            latency_hist: probes
                .histogram("serve.latency_ps")
                .cloned()
                .unwrap_or_default(),
            ..SimSummary::default()
        };
        for c in completions {
            let (latency, wait) = (c.latency_ps(), c.queue_wait_ps());
            s.latencies.push(latency);
            s.waits.push(wait);
            s.wait_ps += u128::from(wait);
            s.reconfig_ps += u128::from(c.reconfig_ps);
            s.exec_ps += u128::from(c.exec_ps);
            s.slo_met += u64::from(latency <= SLO_PS);
            if wait + c.reconfig_ps + c.exec_ps != latency {
                s.decomp_violations += 1;
            }
        }
        for name in COUNTERS {
            s.counters.insert(name, probes.counter(name));
        }
        // Un-prefixed slice counters are the cluster-wide rollup; the
        // per-shard copies live under `cluster.shard.*`.
        for (name, v) in probes.counters_under("serve.slice") {
            if name.ends_with(".busy_ps") {
                s.slice_busy_ps += v;
            } else if name.ends_with(".span_ps") {
                s.slice_span_ps += v;
            }
        }
        let n = completions.len();
        let picks = ref_count.min(n);
        s.refs = (0..picks)
            .map(|i| {
                let c = &completions[i * n / picks];
                RefSample {
                    kernel: c.kernel.clone(),
                    seed: c.seed,
                    output_hash: c.output_hash,
                }
            })
            .collect();
        s
    }

    /// Pools another run into this summary.
    pub fn absorb(&mut self, other: SimSummary) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.shed_queue_full += other.shed_queue_full;
        self.span_ps += other.span_ps;
        self.slo_met += other.slo_met;
        self.decomp_violations += other.decomp_violations;
        self.latencies.extend(other.latencies);
        self.waits.extend(other.waits);
        self.wait_ps += other.wait_ps;
        self.reconfig_ps += other.reconfig_ps;
        self.exec_ps += other.exec_ps;
        self.slice_busy_ps += other.slice_busy_ps;
        self.slice_span_ps += other.slice_span_ps;
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        self.latency_hist.merge(&other.latency_hist);
        self.refs.extend(other.refs);
    }

    /// A pooled counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Nearest-rank latency quantile, simulated µs.
    pub fn latency_us(&mut self, q: f64) -> f64 {
        quantile_us(&mut self.latencies, q)
    }

    /// Nearest-rank queue-wait quantile, simulated µs.
    pub fn wait_us(&mut self, q: f64) -> f64 {
        quantile_us(&mut self.waits, q)
    }

    /// Mean wait, reconfiguration and execution per completion, simulated
    /// µs.
    pub fn mean_parts_us(&self) -> (f64, f64, f64) {
        let n = self.completed.max(1) as f64 * 1e6;
        (
            self.wait_ps as f64 / n,
            self.reconfig_ps as f64 / n,
            self.exec_ps as f64 / n,
        )
    }

    /// Completions per simulated second, millions.
    pub fn throughput_mrps(&self) -> f64 {
        self.completed as f64 * 1e6 / self.span_ps.max(1) as f64
    }

    /// Busy share of every slice's timeline.
    pub fn slice_utilization(&self) -> f64 {
        self.slice_busy_ps as f64 / self.slice_span_ps.max(1) as f64
    }

    /// Relative error of the `serve.latency_ps` histogram's `q`-quantile
    /// against the exact nearest-rank value.
    pub fn hist_rel_err(&mut self, q: f64) -> f64 {
        let exact = self.latency_us(q) * 1e6;
        let approx = self.latency_hist.quantile(q).unwrap_or(0.0);
        (approx - exact).abs() / exact.max(1.0)
    }

    /// Requests whose outcome is missing or doubled: `|submitted −
    /// completed − shed|`.
    pub fn conservation_gap(&self) -> u64 {
        self.submitted.abs_diff(self.completed + self.shed)
    }

    /// Recomputes every kept completion on the reference evaluator and
    /// returns `(checked, mismatches)`.
    ///
    /// # Panics
    ///
    /// Panics if a completion names a kernel missing from `kernels`.
    pub fn reference_check(&self, kernels: &[KernelEntry]) -> (u64, u64) {
        let mut mismatches = 0;
        for r in &self.refs {
            let k = kernels
                .iter()
                .find(|k| k.name == r.kernel)
                .expect("completions name registered kernels");
            let golden = reference_hash(k.accel.netlist(), r.seed, k.func_cycles).ok();
            mismatches += u64::from(golden != Some(r.output_hash));
        }
        (self.refs.len() as u64, mismatches)
    }
}

fn quantile_us(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    nearest_rank(values, q) as f64 / 1e6
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
}

/// FNV-1a over every simulated outcome of a run: equal fingerprints mean
/// identical completions (timing, placement, output hash) and sheds.
pub fn fingerprint(completions: &[Completion], sheds: &[Shed]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| fnv(&mut h, bytes);
    for c in completions {
        mix(c.tenant.as_bytes());
        for v in [
            c.seq,
            c.arrival_ps,
            c.start_ps,
            c.done_ps,
            c.reconfig_ps,
            c.exec_ps,
            c.lanes as u64,
            c.slice as u64,
            c.output_hash,
        ] {
            mix(&v.to_le_bytes());
        }
    }
    for s in sheds {
        mix(s.request.tenant.as_bytes());
        for v in [s.request.seq, s.at_ps, s.reason as u64] {
            mix(&v.to_le_bytes());
        }
    }
    h
}
