//! Cluster oracle: the sharded serving layer must preserve every
//! single-server law and add none of its own failure modes.
//!
//! Three contracts, checked on random multi-tenant workloads over random
//! cluster configurations (shard count, routing policy, stealing,
//! autoscaling, global budget, epoch length):
//!
//! * **Conservation** — cluster-wide and per shard,
//!   `completed + shed + stolen == submitted`; every submitted request
//!   terminates exactly once somewhere; migrations balance
//!   (`stolen == stolen_in == cluster.steals`).
//! * **Enumeration independence** — registering tenants/kernels in a
//!   different order and submitting the trace permuted produces
//!   bit-identical completions, sheds, and merged counters.
//! * **Single-shard equivalence** — a 1-shard cluster (budget off,
//!   autoscale off) replays exactly the plain [`Server`] schedule:
//!   same completions, sheds, dispatches, and counters.
//!
//! [`Server`]: freac_serve::Server

use std::sync::Arc;

use freac_probe::to_counters_json;
use freac_rand::Rng64;
use freac_serve::{
    AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, RoutePolicy, ServeConfig, StealConfig,
};

use super::serve::{self, kernel_pool, requests_of, ServeCase, TENANTS};

/// One cluster oracle case: a serving workload plus the cluster knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCase {
    /// The per-shard workload and server configuration.
    pub serve: ServeCase,
    /// Shard count (1..=4 keeps event loops affordable per case).
    pub shards: usize,
    /// Kernel-affinity routing (`false` = round-robin).
    pub affinity: bool,
    /// Spill depth under affinity routing.
    pub spill_depth: usize,
    /// Work stealing enabled.
    pub steal: bool,
    /// Steal imbalance threshold.
    pub imbalance: usize,
    /// Global admission budget (`usize::MAX` = unlimited).
    pub budget: usize,
    /// Elastic way autoscaling enabled.
    pub autoscale: bool,
    /// Epoch length, ps.
    pub epoch_ps: u64,
}

/// Draws a random [`ClusterCase`].
pub fn generate(rng: &mut Rng64) -> ClusterCase {
    ClusterCase {
        serve: serve::generate(rng),
        shards: 1 + rng.index(4),
        affinity: rng.bool(),
        spill_depth: 1 + rng.index(16),
        steal: rng.bool(),
        imbalance: rng.index(4),
        budget: if rng.index(4) == 0 {
            1 + rng.index(8)
        } else {
            usize::MAX
        },
        autoscale: rng.index(4) == 0,
        epoch_ps: *rng.pick(&[1_000, 10_000, 100_000, 1_000_000]),
    }
}

/// Shrink candidates: simplify the workload first, then the cluster knobs.
pub fn shrink(case: &ClusterCase) -> Vec<ClusterCase> {
    let mut out: Vec<ClusterCase> = serve::shrink(&case.serve)
        .into_iter()
        .map(|serve| ClusterCase {
            serve,
            ..case.clone()
        })
        .collect();
    if case.shards > 1 {
        out.push(ClusterCase {
            shards: 1,
            ..case.clone()
        });
    }
    if case.steal {
        out.push(ClusterCase {
            steal: false,
            ..case.clone()
        });
    }
    if case.autoscale {
        out.push(ClusterCase {
            autoscale: false,
            ..case.clone()
        });
    }
    if case.budget != usize::MAX {
        out.push(ClusterCase {
            budget: usize::MAX,
            ..case.clone()
        });
    }
    out
}

fn cluster_config(case: &ClusterCase) -> ClusterConfig {
    ClusterConfig {
        shards: case.shards,
        shard: ServeConfig {
            policy: case.serve.policy,
            shed: case.serve.shed,
            batching: case.serve.batching,
            slices: case.serve.slices,
            queue_depth: case.serve.queue_depth,
            max_lanes: case.serve.max_lanes,
            ..ServeConfig::default()
        },
        route: if case.affinity {
            RoutePolicy::KernelAffinity {
                spill_depth: case.spill_depth,
            }
        } else {
            RoutePolicy::RoundRobin
        },
        steal: case.steal.then_some(StealConfig {
            imbalance: case.imbalance,
            max_per_epoch: 32,
        }),
        autoscale: case.autoscale.then_some(AutoscaleConfig {
            high_backlog: 4,
            low_backlog: 0,
            up_epochs: 1,
            down_epochs: 4,
            ..AutoscaleConfig::default()
        }),
        budget: case.budget,
        epoch_ps: case.epoch_ps,
        workers: 1,
    }
}

/// Builds and drains the cluster, with tenants/kernels registered in
/// `reverse`d order (or not), the trace permuted by `rotate`, and the
/// report's functional phase on `workers` threads.
fn run_cluster_with(
    case: &ClusterCase,
    reverse: bool,
    rotate: usize,
    workers: usize,
) -> Result<ClusterReport, String> {
    let mut cluster = Cluster::new(ClusterConfig {
        workers,
        ..cluster_config(case)
    })
    .map_err(|e| format!("cluster config rejected: {e}"))?;
    let mut kernels: Vec<_> = kernel_pool().iter().collect();
    let mut tenants = case.serve.tenants.clone();
    if reverse {
        kernels.reverse();
        tenants.reverse();
    }
    for (name, accel, profile) in kernels {
        cluster
            .register_accelerator(name, Arc::clone(accel), *profile)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for (name_idx, weight) in tenants {
        cluster
            .add_tenant(TENANTS[name_idx], weight)
            .map_err(|e| format!("add tenant: {e}"))?;
    }
    let mut reqs = requests_of(&case.serve);
    if !reqs.is_empty() {
        let by = rotate % reqs.len();
        reqs.rotate_left(by);
    }
    for r in reqs {
        cluster.submit(r).map_err(|e| format!("submit: {e}"))?;
    }
    cluster.run_to_completion().map_err(|e| format!("run: {e}"))
}

/// [`run_cluster_with`] on the calling thread only.
fn run_cluster(case: &ClusterCase, reverse: bool, rotate: usize) -> Result<ClusterReport, String> {
    run_cluster_with(case, reverse, rotate, 1)
}

/// Cluster-wide and per-shard conservation, exactly-once termination, and
/// balanced migration accounting.
///
/// # Errors
///
/// Returns a description of the first violated law.
pub fn check_conservation(case: &ClusterCase) -> Result<(), String> {
    let report = run_cluster(case, false, 0)?;
    let submitted = case.serve.requests.len() as u64;

    // Every submission reaches exactly one terminal event.
    let terminal = report.completions.len() + report.sheds.len();
    if terminal as u64 != submitted {
        return Err(format!(
            "conservation: {} completed + {} shed != {submitted} submitted",
            report.completions.len(),
            report.sheds.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let ids = report
        .completions
        .iter()
        .map(|c| (c.tenant.clone(), c.seq))
        .chain(
            report
                .sheds
                .iter()
                .map(|s| (s.request.tenant.clone(), s.request.seq)),
        );
    for id in ids {
        if !seen.insert(id.clone()) {
            return Err(format!(
                "request {id:?} reached more than one terminal event (stolen-then-duplicated?)"
            ));
        }
    }

    // The cluster-level counters tell the same story.
    let p = &report.probes;
    if p.counter("cluster.requests.submitted") != submitted {
        return Err(format!(
            "cluster.requests.submitted = {}, expected {submitted}",
            p.counter("cluster.requests.submitted")
        ));
    }
    if p.counter("cluster.requests.completed") + p.counter("cluster.requests.shed") != submitted {
        return Err(format!(
            "cluster counters leak: {} completed + {} shed != {submitted}",
            p.counter("cluster.requests.completed"),
            p.counter("cluster.requests.shed")
        ));
    }

    // Per shard, through the namespaced export: each steal is counted
    // exactly once (a `stolen` on the victim, a fresh submission on the
    // thief), so the per-shard law closes.
    for i in 0..case.shards {
        let c = |suffix: &str| p.counter(&format!("cluster.shard.{i}.serve.requests.{suffix}"));
        if c("completed") + c("shed") + c("stolen") != c("submitted") {
            return Err(format!(
                "shard {i}: {} completed + {} shed + {} stolen != {} submitted",
                c("completed"),
                c("shed"),
                c("stolen"),
                c("submitted")
            ));
        }
    }

    // Migration balances globally.
    let stolen = p.counter("serve.requests.stolen");
    let stolen_in = p.counter("serve.requests.stolen_in");
    if stolen != stolen_in || stolen != p.counter("cluster.steals") || stolen != report.steals {
        return Err(format!(
            "steal accounting diverged: stolen {stolen}, stolen_in {stolen_in}, \
             cluster.steals {}, report.steals {}",
            p.counter("cluster.steals"),
            report.steals
        ));
    }

    // Per-tenant summaries close without a stolen term (migrations are
    // internal moves, not terminal events).
    for t in &report.tenants {
        if t.completed + t.shed != t.submitted {
            return Err(format!(
                "tenant {}: {} completed + {} shed != {} submitted",
                t.name, t.completed, t.shed, t.submitted
            ));
        }
    }

    // Completion order is canonical.
    for w in report.completions.windows(2) {
        if w[1].done_ps < w[0].done_ps {
            return Err(format!(
                "completion order regressed: {} after {}",
                w[1].done_ps, w[0].done_ps
            ));
        }
    }

    let violations = freac_probe::check(p);
    if !violations.is_empty() {
        return Err(format!("counter invariants violated: {violations:?}"));
    }
    Ok(())
}

/// Enumeration/submission-order independence of the merged cluster view.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_order_independence(case: &ClusterCase) -> Result<(), String> {
    let canonical = run_cluster(case, false, 0)?;
    for (reverse, rotate) in [(true, 3), (true, 7)] {
        let other = run_cluster(case, reverse, rotate)?;
        if other.completions != canonical.completions {
            return Err(format!(
                "completion sequence depends on enumeration order (reverse={reverse}, rotate={rotate})"
            ));
        }
        if other.sheds != canonical.sheds {
            return Err(format!(
                "shed sequence depends on enumeration order (reverse={reverse}, rotate={rotate})"
            ));
        }
        let (a, b) = (
            to_counters_json(&other.probes),
            to_counters_json(&canonical.probes),
        );
        if a != b {
            return Err(format!(
                "merged counters depend on enumeration order (reverse={reverse}, rotate={rotate}):\n{a}\nvs\n{b}"
            ));
        }
    }
    Ok(())
}

/// A 1-shard cluster with the budget and autoscaler off is the plain
/// server, bit for bit.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_single_shard_equivalence(case: &ClusterCase) -> Result<(), String> {
    let solo = ClusterCase {
        shards: 1,
        budget: usize::MAX,
        autoscale: false,
        ..case.clone()
    };
    let clustered = run_cluster(&solo, false, 0)?;
    let plain = serve::run_case(&case.serve, false, 0)?;
    if clustered.completions != plain.completions {
        return Err("1-shard cluster completions diverge from the plain server".into());
    }
    if clustered.sheds != plain.sheds {
        return Err("1-shard cluster sheds diverge from the plain server".into());
    }
    let shard = &clustered.shards[0];
    if shard.dispatches != plain.dispatches {
        return Err(format!(
            "1-shard cluster schedule diverges from the plain server:\n  {:?}\n  vs\n  {:?}",
            shard.dispatches, plain.dispatches
        ));
    }
    let (a, b) = (
        to_counters_json(&shard.probes),
        to_counters_json(&plain.probes),
    );
    if a != b {
        return Err(format!(
            "1-shard cluster counters diverge from the plain server:\n{a}\nvs\n{b}"
        ));
    }
    Ok(())
}

/// The worker count is invisible: running the report's functional phase
/// on 4 worker threads must reproduce the 1-worker completions (output
/// hashes included), sheds, per-shard schedules, and merged counters
/// exactly.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_parallel_equivalence(case: &ClusterCase) -> Result<(), String> {
    let sequential = run_cluster_with(case, false, 0, 1)?;
    let parallel = run_cluster_with(case, false, 0, 4)?;
    if parallel.completions != sequential.completions {
        return Err("4 workers change the completion sequence".into());
    }
    if parallel.sheds != sequential.sheds {
        return Err("4 workers change the shed sequence".into());
    }
    if parallel.steals != sequential.steals {
        return Err(format!(
            "4 workers change steal count: {} vs {}",
            parallel.steals, sequential.steals
        ));
    }
    for (i, (p, s)) in parallel
        .shards
        .iter()
        .zip(sequential.shards.iter())
        .enumerate()
    {
        if p.dispatches != s.dispatches {
            return Err(format!("shard {i}: 4 workers change the schedule"));
        }
    }
    let (a, b) = (
        to_counters_json(&parallel.probes),
        to_counters_json(&sequential.probes),
    );
    if a != b {
        return Err(format!("4 workers change merged counters:\n{a}\nvs\n{b}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_random_cases() {
        let mut rng = Rng64::new(47);
        for _ in 0..6 {
            let case = generate(&mut rng);
            check_conservation(&case).expect("conservation holds");
            check_order_independence(&case).expect("order independence holds");
            check_single_shard_equivalence(&case).expect("single-shard equivalence holds");
            check_parallel_equivalence(&case).expect("parallel equivalence holds");
        }
    }

    #[test]
    fn empty_case_is_fine() {
        let mut rng = Rng64::new(0);
        let mut case = generate(&mut rng);
        case.serve.requests.clear();
        check_conservation(&case).expect("empty trace conserves");
        check_single_shard_equivalence(&case).expect("empty trace is equivalent");
        check_parallel_equivalence(&case).expect("empty trace is parallel-equivalent");
    }
}
