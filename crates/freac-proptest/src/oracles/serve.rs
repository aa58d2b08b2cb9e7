//! Serving oracle: the `freac-serve` schedule must be a pure function of
//! the submitted request set.
//!
//! Three contracts, checked on random multi-tenant workloads over random
//! server configurations:
//!
//! * **Enumeration independence** — registering tenants/kernels in a
//!   different order and submitting the same requests permuted produces a
//!   bit-identical schedule, completion sequence, and counter export.
//! * **Conservation / no starvation** — per tenant and in total,
//!   `completed + shed == submitted`; completion times are non-decreasing;
//!   under weighted-fair scheduling every tenant with an admitted request
//!   completes at least one.
//! * **Rerun determinism** — running the identical case twice yields
//!   identical reports.

use std::sync::{Arc, OnceLock};

use freac_core::{Accelerator, AcceleratorTile};
use freac_netlist::builder::CircuitBuilder;
use freac_netlist::{BATCH_LANES, BATCH_WIDTHS};
use freac_probe::to_counters_json;
use freac_rand::Rng64;
use freac_serve::queue::ShedPolicy;
use freac_serve::{Request, RequestProfile, SchedPolicy, ServeConfig, ServeReport, Server};

use crate::shrink;

/// Tenant-name pool (names drive tie-breaks, so cover both orders).
/// Shared with the cluster oracle.
pub(crate) const TENANTS: [&str; 4] = ["ada", "bob", "cyd", "dee"];

/// One request in a case, in pool-index form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseRequest {
    /// Index into the case's tenant list.
    pub tenant: usize,
    /// Index into the shared kernel pool.
    pub kernel: usize,
    /// Arrival time, ps.
    pub arrival_ps: u64,
    /// Relative deadline, if any.
    pub deadline_ps: Option<u64>,
    /// Single-lane folded execution demanded.
    pub exclusive: bool,
    /// Input-synthesis seed.
    pub seed: u64,
}

/// One oracle case: tenants with weights, a request trace, and the server
/// configuration knobs that affect scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCase {
    /// `(name index, weight)` per tenant.
    pub tenants: Vec<(usize, u64)>,
    /// The request trace (seq numbers are assigned per tenant in order).
    pub requests: Vec<CaseRequest>,
    /// Anchor-selection policy.
    pub policy: SchedPolicy,
    /// Backpressure policy.
    pub shed: ShedPolicy,
    /// Batch coalescer on/off: off serves the case at a one-lane cap
    /// (see [`ServeCase::lane_cap`]).
    pub batching: bool,
    /// Compute slices.
    pub slices: usize,
    /// Admission-queue depth.
    pub queue_depth: usize,
    /// Lanes-per-dispatch cap (64/256/512 — one per bit-sliced sweep
    /// width, so the oracle exercises every execution path).
    pub max_lanes: usize,
}

impl ServeCase {
    /// The `max_lanes` the case's servers run with: `max_lanes`, or 1 with
    /// the coalescer off.
    pub fn lane_cap(&self) -> usize {
        if self.batching {
            self.max_lanes
        } else {
            1
        }
    }
}

/// Draws a random [`ServeCase`].
pub fn generate(rng: &mut Rng64) -> ServeCase {
    let tenant_count = 1 + rng.index(TENANTS.len());
    let tenants = (0..tenant_count).map(|i| (i, 1 + rng.below(4))).collect();
    let len = rng.index(24);
    let requests = (0..len)
        .map(|_| CaseRequest {
            tenant: rng.index(tenant_count),
            kernel: rng.index(kernel_pool().len()),
            arrival_ps: rng.below(200_000),
            deadline_ps: rng.bool().then(|| 1 + rng.below(100_000_000)),
            exclusive: rng.index(8) == 0,
            seed: rng.next_u64(),
        })
        .collect();
    ServeCase {
        tenants,
        requests,
        policy: *rng.pick(&[
            SchedPolicy::Fifo,
            SchedPolicy::WeightedFair,
            SchedPolicy::DeadlineAware,
        ]),
        shed: *rng.pick(&[ShedPolicy::RejectNew, ShedPolicy::DropOldest]),
        batching: rng.bool(),
        slices: 1 + rng.index(3),
        queue_depth: 1 + rng.index(8),
        max_lanes: *rng.pick(&BATCH_WIDTHS),
    }
}

/// Shrink candidates: fewer requests, then simpler configurations.
pub fn shrink(case: &ServeCase) -> Vec<ServeCase> {
    let mut out: Vec<ServeCase> = shrink::subsequences(&case.requests)
        .into_iter()
        .map(|requests| ServeCase {
            requests,
            ..case.clone()
        })
        .collect();
    if case.tenants.len() > 1 {
        let fewer: Vec<_> = case.tenants[..case.tenants.len() - 1].to_vec();
        let keep = fewer.len();
        out.push(ServeCase {
            tenants: fewer,
            requests: case
                .requests
                .iter()
                .filter(|r| r.tenant < keep)
                .cloned()
                .collect(),
            ..case.clone()
        });
    }
    if case.policy != SchedPolicy::Fifo {
        out.push(ServeCase {
            policy: SchedPolicy::Fifo,
            ..case.clone()
        });
    }
    if !case.batching {
        out.push(ServeCase {
            batching: true,
            ..case.clone()
        });
    }
    if case.max_lanes != BATCH_LANES {
        out.push(ServeCase {
            max_lanes: BATCH_LANES,
            ..case.clone()
        });
    }
    out
}

/// The shared kernel pool: two tiny circuits mapped once per process
/// (mapping is the expensive step, and the oracle only needs schedule
/// diversity, not logic diversity).
pub(crate) fn kernel_pool() -> &'static [(String, Arc<Accelerator>, RequestProfile)] {
    static POOL: OnceLock<Vec<(String, Arc<Accelerator>, RequestProfile)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let tile = AcceleratorTile::new(1).expect("unit tile");
        let adder = {
            let mut b = CircuitBuilder::new("serve-add");
            let a = b.word_input("a", 8);
            let x = b.word_input("x", 8);
            let s = b.add(&a, &x);
            b.word_output("s", &s);
            b.finish().expect("adder builds")
        };
        let masker = {
            let mut b = CircuitBuilder::new("serve-mask");
            let a = b.word_input("a", 8);
            let x = b.word_input("x", 8);
            let m = b.and_words(&a, &x);
            b.word_output("m", &m);
            b.finish().expect("masker builds")
        };
        vec![
            (
                "add".to_owned(),
                Accelerator::map_shared(&adder, &tile).expect("adder maps"),
                RequestProfile {
                    cycles_per_item: 2,
                    read_words: 4,
                    write_words: 2,
                },
            ),
            (
                "mask".to_owned(),
                Accelerator::map_shared(&masker, &tile).expect("masker maps"),
                RequestProfile {
                    cycles_per_item: 1,
                    read_words: 2,
                    write_words: 1,
                },
            ),
        ]
    })
}

/// Materializes the case's request list with per-tenant sequence numbers.
pub(crate) fn requests_of(case: &ServeCase) -> Vec<Request> {
    let mut next_seq = vec![0u64; case.tenants.len()];
    case.requests
        .iter()
        .map(|cr| {
            let (name_idx, _) = case.tenants[cr.tenant];
            let seq = next_seq[cr.tenant];
            next_seq[cr.tenant] += 1;
            let mut r = Request::new(
                TENANTS[name_idx],
                seq,
                &kernel_pool()[cr.kernel].0,
                cr.arrival_ps,
                cr.seed,
            );
            r.deadline_ps = cr.deadline_ps.map(|d| cr.arrival_ps.saturating_add(d));
            r.exclusive = cr.exclusive;
            r
        })
        .collect()
}

/// Runs the case with tenants/kernels registered in `reverse`d order (or
/// not) and the request trace permuted by `rotate`.
pub(crate) fn run_case(
    case: &ServeCase,
    reverse: bool,
    rotate: usize,
) -> Result<ServeReport, String> {
    let mut server = Server::new(ServeConfig {
        policy: case.policy,
        shed: case.shed,
        slices: case.slices,
        queue_depth: case.queue_depth,
        max_lanes: case.lane_cap(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server config rejected: {e}"))?;
    let mut kernels: Vec<_> = kernel_pool().iter().collect();
    let mut tenants = case.tenants.clone();
    if reverse {
        kernels.reverse();
        tenants.reverse();
    }
    for (name, accel, profile) in kernels {
        server
            .register_accelerator(name, Arc::clone(accel), *profile)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for (name_idx, weight) in tenants {
        server
            .add_tenant(TENANTS[name_idx], weight)
            .map_err(|e| format!("add tenant: {e}"))?;
    }
    let mut reqs = requests_of(case);
    if !reqs.is_empty() {
        let by = rotate % reqs.len();
        reqs.rotate_left(by);
    }
    for r in reqs {
        server.submit(r).map_err(|e| format!("submit: {e}"))?;
    }
    server.run_to_completion().map_err(|e| format!("run: {e}"))
}

/// Enumeration/submission-order independence and rerun determinism.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_order_independence(case: &ServeCase) -> Result<(), String> {
    let canonical = run_case(case, false, 0)?;
    for (reverse, rotate) in [(false, 0), (true, 3), (true, 7)] {
        let other = run_case(case, reverse, rotate)?;
        if other.dispatches != canonical.dispatches {
            return Err(format!(
                "schedule depends on enumeration order (reverse={reverse}, rotate={rotate}):\n  {:?}\n  vs\n  {:?}",
                other.dispatches, canonical.dispatches
            ));
        }
        if other.completions != canonical.completions {
            return Err(format!(
                "completion sequence depends on enumeration order (reverse={reverse}, rotate={rotate})"
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

/// Conservation, ordering, and weighted-fair no-starvation.
///
/// # Errors
///
/// Returns a description of the first violated law.
pub fn check_conservation(case: &ServeCase) -> Result<(), String> {
    let report = run_case(case, false, 0)?;
    let submitted = case.requests.len();
    let terminal = report.completions.len() + report.sheds.len();
    if terminal != submitted {
        return Err(format!(
            "conservation: {} completed + {} shed != {submitted} submitted",
            report.completions.len(),
            report.sheds.len()
        ));
    }
    for t in &report.tenants {
        if t.completed + t.shed != t.submitted {
            return Err(format!(
                "tenant {}: {} completed + {} shed != {} submitted",
                t.name, t.completed, t.shed, t.submitted
            ));
        }
    }
    for w in report.completions.windows(2) {
        if w[1].done_ps < w[0].done_ps {
            return Err(format!(
                "completion order regressed: {} after {}",
                w[1].done_ps, w[0].done_ps
            ));
        }
    }
    if case.policy == SchedPolicy::WeightedFair {
        for t in &report.tenants {
            let admitted = t.submitted - t.shed;
            if admitted > 0 && t.completed == 0 {
                return Err(format!(
                    "weighted-fair starved tenant {} ({admitted} admitted, 0 completed)",
                    t.name
                ));
            }
        }
    }
    let violations = freac_probe::check(&report.probes);
    if !violations.is_empty() {
        return Err(format!("counter invariants violated: {violations:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_random_cases() {
        let mut rng = Rng64::new(23);
        for _ in 0..8 {
            let case = generate(&mut rng);
            check_order_independence(&case).expect("order independence holds");
            check_conservation(&case).expect("conservation holds");
        }
    }

    #[test]
    fn empty_case_is_fine() {
        let case = ServeCase {
            tenants: vec![(0, 1)],
            requests: Vec::new(),
            policy: SchedPolicy::Fifo,
            shed: ShedPolicy::RejectNew,
            batching: true,
            slices: 1,
            queue_depth: 1,
            max_lanes: BATCH_LANES,
        };
        check_order_independence(&case).expect("empty trace holds");
        check_conservation(&case).expect("empty trace conserves");
    }
}
