//! Sampled-simulation oracle: the representative-interval sampler must
//! honor its own declared error bounds against full-fidelity replay.
//!
//! Four contracts, checked on random phase-structured traces (alternating
//! dense/sparse arrival regimes with shifting kernel bias — the behavior
//! diversity the signature clustering exists to separate) over random
//! sampling configurations:
//!
//! * **Within-bounds extrapolation** — each extrapolated latency quantile
//!   (p50/p95/p99) covers the full-fidelity value within its reported
//!   bound, and the extrapolated terminal counts conserve the trace.
//! * **Degenerate exactness** — with a cluster budget of at least the
//!   window count, the sampled run is one replay of the trace: its latency
//!   mixture, quantiles and terminal counts equal full fidelity exactly.
//! * **Determinism** — the same case twice, at different sampling worker
//!   counts, and with the trace handed over in a seeded random order,
//!   yields byte-identical reports and probe exports.
//! * **Probe conservation** — the `serve.sample.*` namespace passes the
//!   registry invariant laws (per-cluster request counts sum to the trace
//!   length; est. completed + shed == trace length).

use std::sync::Arc;

use freac_probe::{to_counters_json, Histogram};
use freac_rand::Rng64;
use freac_serve::{
    Cluster, ClusterConfig, ClusterReport, Request, RoutePolicy, SampleConfig, SampleReport,
    SampledServer, ServeConfig, StealConfig,
};

use super::serve::{kernel_pool, TENANTS};

/// Salt folded into the case seed for the order-independence arm's
/// submission permutation, so it draws a stream apart from the sampler's.
const PERMUTE_SALT: u64 = 0x0bde_5a3b_9e37_79b9;

/// One arrival regime: a stretch of requests sharing a gap scale and a
/// kernel bias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Requests in this phase.
    pub len: usize,
    /// Mean arrival gap, ps.
    pub gap_ps: u64,
    /// Index into the kernel pool that two thirds of the phase's requests
    /// use (the rest alternate).
    pub bias_kernel: usize,
}

/// One sampled-simulation oracle case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleCase {
    /// The phase-structured trace plan.
    pub phases: Vec<Phase>,
    /// Tenants in play (1..=4; requests cycle through them).
    pub tenant_count: usize,
    /// Sampling window size.
    pub window: usize,
    /// k-medoids cluster budget.
    pub max_clusters: usize,
    /// Shard count of the sampled and full-fidelity clusters.
    pub shards: usize,
    /// Work stealing enabled.
    pub steal: bool,
    /// Per-shard admission-queue depth.
    pub queue_depth: usize,
    /// Sampling seed.
    pub seed: u64,
}

/// Draws a random [`SampleCase`]: 4–8 phases of 48–128 requests each, so
/// traces land in the few-hundred-request range where full-fidelity replay
/// is still affordable per case.
pub fn generate(rng: &mut Rng64) -> SampleCase {
    let phase_count = 4 + rng.index(5);
    let phases = (0..phase_count)
        .map(|_| Phase {
            len: 48 + rng.index(81),
            gap_ps: *rng.pick(&[1_000u64, 4_000, 20_000, 100_000]),
            bias_kernel: rng.index(kernel_pool().len()),
        })
        .collect();
    SampleCase {
        phases,
        tenant_count: 1 + rng.index(TENANTS.len()),
        window: *rng.pick(&[64usize, 128]),
        max_clusters: 3 + rng.index(2),
        shards: 1 + rng.index(2),
        steal: rng.bool(),
        queue_depth: 64 + rng.index(192),
        seed: rng.next_u64(),
    }
}

/// Shrink candidates: fewer phases, then a simpler cluster.
pub fn shrink(case: &SampleCase) -> Vec<SampleCase> {
    let mut out = Vec::new();
    if case.phases.len() > 1 {
        out.push(SampleCase {
            phases: case.phases[..case.phases.len() - 1].to_vec(),
            ..case.clone()
        });
        out.push(SampleCase {
            phases: case.phases[1..].to_vec(),
            ..case.clone()
        });
    }
    if case.shards > 1 {
        out.push(SampleCase {
            shards: 1,
            ..case.clone()
        });
    }
    if case.steal {
        out.push(SampleCase {
            steal: false,
            ..case.clone()
        });
    }
    if case.tenant_count > 1 {
        out.push(SampleCase {
            tenant_count: 1,
            ..case.clone()
        });
    }
    out
}

/// Materializes the case's trace: phases back to back, arrivals advancing
/// by the phase's gap, requests cycling through tenants with per-tenant
/// sequence numbers (so `(tenant, seq)` identities are unique, the sampled
/// runner's open-loop contract).
pub fn trace_of(case: &SampleCase) -> Vec<Request> {
    let pool = kernel_pool();
    let mut next_seq = vec![0u64; case.tenant_count];
    let mut arrival = 0u64;
    let mut out = Vec::new();
    let mut i = 0u64;
    for phase in &case.phases {
        for j in 0..phase.len {
            let tenant = (i as usize) % case.tenant_count;
            let kernel = if j % 3 == 2 {
                (phase.bias_kernel + 1) % pool.len()
            } else {
                phase.bias_kernel
            };
            let seq = next_seq[tenant];
            next_seq[tenant] += 1;
            out.push(Request::new(
                TENANTS[tenant],
                seq,
                &pool[kernel].0,
                arrival,
                i,
            ));
            arrival += phase.gap_ps;
            i += 1;
        }
    }
    out
}

fn cluster_config(case: &SampleCase) -> ClusterConfig {
    ClusterConfig {
        shards: case.shards,
        shard: ServeConfig {
            queue_depth: case.queue_depth,
            ..ServeConfig::default()
        },
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: case.steal.then(StealConfig::default),
        ..ClusterConfig::default()
    }
}

fn run_sampled(case: &SampleCase, workers: usize) -> Result<SampleReport, String> {
    run_sampled_trace(case, workers, &trace_of(case))
}

fn run_sampled_trace(
    case: &SampleCase,
    workers: usize,
    trace: &[Request],
) -> Result<SampleReport, String> {
    let mut server = SampledServer::new(
        cluster_config(case),
        SampleConfig {
            window: case.window,
            max_clusters: case.max_clusters,
            warmup: case.window / 2,
            seed: case.seed,
            workers,
        },
    )
    .map_err(|e| format!("sample config rejected: {e}"))?;
    for (name, accel, profile) in kernel_pool() {
        server
            .register_accelerator(name, Arc::clone(accel), *profile)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for (t, name) in TENANTS.iter().enumerate().take(case.tenant_count) {
        server
            .add_tenant(name, 1 + t as u64 % 2)
            .map_err(|e| format!("add tenant: {e}"))?;
    }
    server.run(trace).map_err(|e| format!("sampled run: {e}"))
}

/// Replays `trace` through a full-fidelity cluster configured as `case`.
fn run_full(case: &SampleCase, trace: Vec<Request>) -> Result<ClusterReport, String> {
    let mut cluster =
        Cluster::new(cluster_config(case)).map_err(|e| format!("cluster config rejected: {e}"))?;
    for (name, accel, profile) in kernel_pool() {
        cluster
            .register_accelerator(name, Arc::clone(accel), *profile)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for (t, name) in TENANTS.iter().enumerate().take(case.tenant_count) {
        cluster
            .add_tenant(name, 1 + t as u64 % 2)
            .map_err(|e| format!("add tenant: {e}"))?;
    }
    for r in trace {
        cluster.submit(r).map_err(|e| format!("submit: {e}"))?;
    }
    cluster
        .run_to_completion()
        .map_err(|e| format!("full run: {e}"))
}

/// Extrapolated quantiles must cover the full-fidelity values within their
/// own reported bounds, and the extrapolated terminals must conserve the
/// trace.
///
/// # Errors
///
/// Returns a description of the first violated contract.
pub fn check_within_bounds(case: &SampleCase) -> Result<(), String> {
    let trace = trace_of(case);
    let sampled = run_sampled(case, 1)?;

    if sampled.est_completed + sampled.est_shed != trace.len() as u64 {
        return Err(format!(
            "extrapolated terminals leak: {} + {} != {}",
            sampled.est_completed,
            sampled.est_shed,
            trace.len()
        ));
    }
    let violations = freac_probe::check(&sampled.probes);
    if !violations.is_empty() {
        return Err(format!("sample probe laws violated: {violations:?}"));
    }

    let full = run_full(case, trace)?;
    let Some(h) = full.probes.histogram("serve.latency_ps") else {
        // Nothing completed at full fidelity; the sampled estimate must
        // agree that (almost) nothing completes.
        return Ok(());
    };
    for (name, est, q) in [
        ("p50", sampled.p50_ps, 0.5),
        ("p95", sampled.p95_ps, 0.95),
        ("p99", sampled.p99_ps, 0.99),
    ] {
        let actual = h.quantile(q).expect("non-empty histogram");
        if !est.covers(actual) {
            return Err(format!(
                "{name}: full-fidelity {actual} outside sampled {} +- {} \
                 ({} windows, {} clusters)",
                est.value,
                est.bound,
                sampled.windows,
                sampled.clusters.len()
            ));
        }
    }
    Ok(())
}

/// With a cluster budget of at least the window count, every window is
/// simulated and the simulated windows replay the whole trace as one
/// segment, so nothing is extrapolated: the latency mixture must equal the
/// full run's `serve.latency_ps`, each quantile estimate its full-fidelity
/// value bit for bit, and the terminal counts the full counts.
///
/// # Errors
///
/// Returns a description of the first inexact figure.
pub fn check_degenerate_exact(case: &SampleCase) -> Result<(), String> {
    let trace = trace_of(case);
    let case = SampleCase {
        max_clusters: trace.len().div_ceil(case.window),
        ..case.clone()
    };
    let sampled = run_sampled(&case, 1)?;
    let n = trace.len() as u64;
    let full = run_full(&case, trace)?;
    let counts = (full.completions.len() as u64, full.sheds.len() as u64);
    if (sampled.est_completed, sampled.est_shed) != counts {
        return Err(format!(
            "sampled completed/shed {:?} != full {counts:?}",
            (sampled.est_completed, sampled.est_shed)
        ));
    }
    let h = full
        .probes
        .histogram("serve.latency_ps")
        .cloned()
        .unwrap_or_default();
    if sampled.latency != h {
        let brief = |h: &Histogram| (h.count(), h.sum(), h.min(), h.max(), h.nonzero_buckets());
        return Err(format!(
            "latency mixture (count, sum, min, max, buckets) {:?} != full {:?}",
            brief(&sampled.latency),
            brief(&h)
        ));
    }
    for (name, est, q) in [
        ("p50", sampled.p50_ps, 0.5),
        ("p95", sampled.p95_ps, 0.95),
        ("p99", sampled.p99_ps, 0.99),
    ] {
        let actual = h.quantile(q).unwrap_or(0.0);
        if est.value.to_bits() != actual.to_bits() {
            return Err(format!("{name}: sampled {} != full {actual}", est.value));
        }
    }
    if sampled.simulated_requests != n {
        return Err(format!(
            "{} of {n} requests replayed ({} of {} windows simulated)",
            sampled.simulated_requests, sampled.simulated_windows, sampled.windows
        ));
    }
    Ok(())
}

/// The same case must produce byte-identical reports on rerun, at any
/// sampling worker count, and with the trace handed over in a seeded
/// random order (the sampler sorts it canonically itself).
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_determinism(case: &SampleCase) -> Result<(), String> {
    let a = run_sampled(case, 1)?;
    let b = run_sampled(case, 1)?;
    let c = run_sampled(case, 3)?;
    let mut shuffled = trace_of(case);
    Rng64::new(case.seed ^ PERMUTE_SALT).shuffle(&mut shuffled);
    let d = run_sampled_trace(case, 1, &shuffled)?;
    for (label, other) in [("rerun", &b), ("3-worker", &c), ("permuted", &d)] {
        if other.render() != a.render() {
            return Err(format!(
                "{label}: rendered report diverged:\n{}\nvs\n{}",
                other.render(),
                a.render()
            ));
        }
        if other.clusters != a.clusters {
            return Err(format!("{label}: clustering diverged"));
        }
        if (
            other.p50_ps,
            other.p95_ps,
            other.p99_ps,
            other.throughput_rps,
            other.est_completed,
            other.est_shed,
        ) != (
            a.p50_ps,
            a.p95_ps,
            a.p99_ps,
            a.throughput_rps,
            a.est_completed,
            a.est_shed,
        ) {
            return Err(format!("{label}: estimates diverged"));
        }
        let (x, y) = (to_counters_json(&other.probes), to_counters_json(&a.probes));
        if x != y {
            return Err(format!("{label}: probe export diverged:\n{x}\nvs\n{y}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_random_cases() {
        let mut rng = Rng64::new(11);
        for _ in 0..4 {
            let case = generate(&mut rng);
            check_within_bounds(&case).expect("bounds hold");
            check_degenerate_exact(&case).expect("every window simulated is exact");
            check_determinism(&case).expect("determinism holds");
        }
    }

    #[test]
    fn single_phase_trace_is_fine() {
        let mut rng = Rng64::new(2);
        let mut case = generate(&mut rng);
        case.phases.truncate(1);
        check_within_bounds(&case).expect("bounds hold on one phase");
    }
}
