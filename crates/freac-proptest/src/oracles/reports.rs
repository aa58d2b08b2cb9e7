//! Report-order oracle: every report a server makes holds exactly the
//! completions its run hook has seen so far, in canonical
//! `(done_ps, tenant, seq)` order, each with the reference evaluator's
//! output hash.
//!
//! The server keeps its completion log in that order while the loop runs:
//! each slice holds its last batch in flight until a dispatch at or after
//! its finishing time retires it, and batches finishing together merge by
//! `(tenant, seq)`. This oracle drives that bookkeeping where it can break:
//! random traces in waves, with exclusives, over 1–8 slices and lane caps
//! of 1–512; bounded runs to random instants, each followed by a report
//! whenever nothing is left queued or pending (a report checks the
//! conservation law, which needs that), while batches may still be in
//! flight; a rescale and a submission of stolen arrivals older than the
//! server's clock in the middle of the run; then a drain and a last
//! report. Each report must equal a stable `(done_ps, tenant, seq)` sort
//! of what the hook saw. What a report holds with `done_ps` at or before
//! the server's clock is settled, and every later report starts with it;
//! the rest may yet be overtaken by a later dispatch that finishes
//! sooner.

use std::collections::HashMap;
use std::sync::Arc;

use freac_core::SlicePartition;
use freac_rand::Rng64;
use freac_serve::inputs::reference_hash;
use freac_serve::queue::ShedPolicy;
use freac_serve::{Completion, Outcome, Request, SchedPolicy, ServeConfig, Server};

use crate::shrink;

use super::serve::{kernel_pool, TENANTS};

/// One request of a case, in pool-index form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderRequest {
    /// Index into the serve oracles' tenant names.
    pub tenant: usize,
    /// Index into the serve oracles' kernel pool.
    pub kernel: usize,
    /// Arrival offset, ps: within its wave, or for a stolen request, how
    /// far behind the server's clock it arrived.
    pub arrival_ps: u64,
    /// Wave (0..4): the request arrives `wave * wave_gap_ps` later.
    pub wave: u64,
    /// Single-lane folded execution demanded.
    pub exclusive: bool,
    /// Input-synthesis seed.
    pub seed: u64,
}

/// One oracle case.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderCase {
    /// Tenant count (1..=4), weights all 1.
    pub tenants: usize,
    /// The trace; seq numbers are assigned per tenant in order.
    pub requests: Vec<OrderRequest>,
    /// Time between waves, ps.
    pub wave_gap_ps: u64,
    /// Requests submitted as stolen, older than the clock, after
    /// `steal_after` bounded runs; their seqs follow the trace's.
    pub stolen: Vec<OrderRequest>,
    /// Compute slices (1..=8).
    pub slices: usize,
    /// Lanes-per-dispatch cap (1..=512).
    pub max_lanes: usize,
    /// Admission-queue depth.
    pub queue_depth: usize,
    /// Backpressure policy.
    pub shed: ShedPolicy,
    /// Anchor-selection policy.
    pub policy: SchedPolicy,
    /// Run bounds in call order, per mille of the case's horizon (the
    /// span of one plain drain of the trace, times two); a bounded run
    /// that leaves nothing queued or pending is followed by a report.
    pub bounds: Vec<u64>,
    /// Bounded runs before the rescale (at most all of them).
    pub rescale_after: usize,
    /// Index into the rescale's target partitions (max-compute,
    /// end-to-end, a 4/10/6 split).
    pub partition: usize,
    /// Bounded runs before the stolen requests are submitted (at most
    /// all of them).
    pub steal_after: usize,
}

/// The partitions a rescale converts to.
fn partitions() -> [SlicePartition; 3] {
    [
        SlicePartition::max_compute(),
        SlicePartition::end_to_end(),
        SlicePartition::new(4, 10, 6).expect("a valid partition"),
    ]
}

fn request(rng: &mut Rng64, tenants: usize, spread: u64) -> OrderRequest {
    OrderRequest {
        tenant: rng.index(tenants),
        kernel: rng.index(kernel_pool().len()),
        arrival_ps: rng.below(spread + 1),
        wave: rng.below(4),
        exclusive: rng.index(4) == 0,
        seed: rng.next_u64(),
    }
}

/// Draws a random [`OrderCase`].
pub fn generate(rng: &mut Rng64) -> OrderCase {
    let tenants = 1 + rng.index(TENANTS.len());
    let spread = *rng.pick(&[0u64, 5_000, 500_000, 5_000_000]);
    let requests = (0..1 + rng.index(64))
        .map(|_| request(rng, tenants, spread))
        .collect();
    let stolen = (0..rng.index(6))
        .map(|_| OrderRequest {
            wave: 0,
            ..request(rng, tenants, 2_000_000)
        })
        .collect();
    let bounds: Vec<u64> = (0..1 + rng.index(6)).map(|_| rng.below(1_001)).collect();
    let runs = bounds.len();
    OrderCase {
        tenants,
        requests,
        wave_gap_ps: *rng.pick(&[1_000_000u64, 10_000_000, 100_000_000]),
        stolen,
        slices: 1 + rng.index(8),
        max_lanes: if rng.bool() {
            *rng.pick(&[1usize, 2, 3, 64, 65, 256, 257, 512])
        } else {
            1 + rng.index(512)
        },
        queue_depth: *rng.pick(&[2usize, 8, 64, 512]),
        shed: *rng.pick(&[ShedPolicy::RejectNew, ShedPolicy::DropOldest]),
        policy: *rng.pick(&[
            SchedPolicy::Fifo,
            SchedPolicy::WeightedFair,
            SchedPolicy::DeadlineAware,
        ]),
        bounds,
        rescale_after: rng.index(runs + 1),
        partition: rng.index(partitions().len()),
        steal_after: rng.index(runs + 1),
    }
}

/// Shrink candidates: fewer requests and bounds, then simpler
/// configurations.
pub fn shrink(case: &OrderCase) -> Vec<OrderCase> {
    let mut out: Vec<OrderCase> = shrink::subsequences(&case.requests)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|requests| OrderCase {
            requests,
            ..case.clone()
        })
        .collect();
    out.extend(
        shrink::subsequences(&case.stolen)
            .into_iter()
            .map(|stolen| OrderCase {
                stolen,
                ..case.clone()
            }),
    );
    out.extend(
        shrink::subsequences(&case.bounds)
            .into_iter()
            .map(|bounds| OrderCase {
                bounds,
                ..case.clone()
            }),
    );
    for slices in shrink::halvings_usize(case.slices) {
        if slices >= 1 {
            out.push(OrderCase {
                slices,
                ..case.clone()
            });
        }
    }
    if case.policy != SchedPolicy::Fifo {
        out.push(OrderCase {
            policy: SchedPolicy::Fifo,
            ..case.clone()
        });
    }
    out
}

/// The case's trace with per-tenant sequence numbers, then its stolen
/// requests (arrivals still relative to the clock), numbered on.
fn requests_of(case: &OrderCase) -> (Vec<Request>, Vec<Request>) {
    let mut next_seq = vec![0u64; case.tenants];
    let mut materialize = |r: &OrderRequest| {
        let seq = next_seq[r.tenant];
        next_seq[r.tenant] += 1;
        let mut req = Request::new(
            TENANTS[r.tenant],
            seq,
            &kernel_pool()[r.kernel].0,
            r.wave * case.wave_gap_ps + r.arrival_ps,
            r.seed,
        );
        req.exclusive = r.exclusive;
        req
    };
    let trace = case.requests.iter().map(&mut materialize).collect();
    let stolen = case.stolen.iter().map(&mut materialize).collect();
    (trace, stolen)
}

/// A server under the case's configuration with the kernel pool and the
/// case's tenants.
fn server_of(case: &OrderCase) -> Result<Server, String> {
    let mut server = Server::new(ServeConfig {
        slices: case.slices,
        max_lanes: case.max_lanes,
        queue_depth: case.queue_depth,
        shed: case.shed,
        policy: case.policy,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server config rejected: {e}"))?;
    for (name, accel, profile) in kernel_pool() {
        server
            .register_accelerator(name, Arc::clone(accel), *profile)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for t in &TENANTS[..case.tenants] {
        server
            .add_tenant(t, 1)
            .map_err(|e| format!("tenant: {e}"))?;
    }
    Ok(server)
}

/// The reference report: what the hook saw, stably sorted by
/// `(done_ps, tenant, seq)`, each with the reference evaluator's hash.
fn reference(
    server: &Server,
    seen: &[Completion],
    hashes: &mut HashMap<(String, u64), u64>,
) -> Result<Vec<Completion>, String> {
    let mut want = seen.to_vec();
    want.sort_by(|a, b| (a.done_ps, &a.tenant, a.seq).cmp(&(b.done_ps, &b.tenant, b.seq)));
    for c in &mut want {
        let key = (c.kernel.clone(), c.seed);
        if let Some(&h) = hashes.get(&key) {
            c.output_hash = h;
            continue;
        }
        let net = server
            .kernel_netlist(&c.kernel)
            .ok_or_else(|| format!("unknown kernel {}", c.kernel))?;
        let cycles = server
            .kernel_func_cycles(&c.kernel)
            .ok_or_else(|| format!("unknown kernel {}", c.kernel))?;
        let h = reference_hash(net, c.seed, cycles)
            .map_err(|e| format!("reference evaluation failed: {e}"))?;
        hashes.insert(key, h);
        c.output_hash = h;
    }
    Ok(want)
}

/// Runs the case; see the module docs.
///
/// # Errors
///
/// Returns a description of the first report that breaks the contract.
pub fn check(case: &OrderCase) -> Result<(), String> {
    run(case).map(|_| ())
}

/// What a run of a case exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Reports made, the last one included.
    reports: usize,
    /// Completions reports held that were not settled yet.
    unsettled: usize,
}

/// [`check`], returning what the run exercised.
fn run(case: &OrderCase) -> Result<Coverage, String> {
    let mut coverage = Coverage::default();
    let (trace, stolen) = requests_of(case);
    // The horizon: twice the span of one plain drain of the trace.
    let mut plain = server_of(case)?;
    for r in &trace {
        plain
            .submit(r.clone())
            .map_err(|e| format!("submit: {e}"))?;
    }
    let horizon = plain
        .run_to_completion()
        .map_err(|e| format!("plain run: {e}"))?
        .span_ps
        .max(1)
        .saturating_mul(2);

    let mut server = server_of(case)?;
    let submitted = trace.len() + stolen.len();
    for r in trace {
        server.submit(r).map_err(|e| format!("submit: {e}"))?;
    }
    let mut stolen = Some(stolen);
    let mut seen: Vec<Completion> = Vec::new();
    let mut hashes = HashMap::new();
    let mut settled: Vec<Completion> = Vec::new();
    let last = case.bounds.len();
    for (i, bound) in case
        .bounds
        .iter()
        .map(|&m| Some(horizon / 1_000 * m))
        .chain([None])
        .enumerate()
    {
        if i == case.rescale_after.min(last) {
            server
                .rescale(partitions()[case.partition], server.now())
                .map_err(|e| format!("rescale: {e}"))?;
        }
        if i == case.steal_after.min(last) {
            for mut r in stolen.take().unwrap_or_default() {
                r.arrival_ps = server.now().saturating_sub(r.arrival_ps);
                server
                    .submit_stolen(r)
                    .map_err(|e| format!("submit stolen: {e}"))?;
            }
        }
        let what = match bound {
            Some(b) => format!("report {i} after a run to {b} ps"),
            None => format!("last report (after {last} bounded runs)"),
        };
        server
            .run_until(bound.unwrap_or(u64::MAX), &mut |o: &Outcome| {
                if let Outcome::Completed(c) = o {
                    seen.push(c.clone());
                }
                Vec::new()
            })
            .map_err(|e| format!("{what}: run: {e}"))?;
        if server.backlog() > 0 {
            continue;
        }
        let report = server.report().map_err(|e| format!("{what}: {e}"))?;
        coverage.reports += 1;
        let want = reference(&server, &seen, &mut hashes)?;
        if let Some(at) = (0..want.len().max(report.completions.len()))
            .find(|&j| report.completions.get(j) != want.get(j))
        {
            return Err(format!(
                "{what}: completion {at} of {} is {:?}, the reference sort has {:?}",
                report.completions.len(),
                report.completions.get(at),
                want.get(at)
            ));
        }
        if report.completions[..settled.len().min(report.completions.len())] != settled[..] {
            return Err(format!(
                "{what}: does not start with the {} completions settled by the last report",
                settled.len()
            ));
        }
        let now = server.now();
        settled = report
            .completions
            .iter()
            .take_while(|c| c.done_ps <= now)
            .cloned()
            .collect();
        coverage.unsettled += report.completions.len() - settled.len();
        if bound.is_none() && report.completions.len() + report.sheds.len() != submitted {
            return Err(format!(
                "{what}: {} completed + {} shed != {submitted} submitted",
                report.completions.len(),
                report.sheds.len()
            ));
        }
    }
    Ok(coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_random_cases_and_reports_mid_run() {
        let mut rng = Rng64::new(27);
        let mut mid_run = 0;
        let mut unsettled = 0;
        for _ in 0..32 {
            let case = generate(&mut rng);
            let coverage = run(&case).unwrap_or_else(|e| panic!("{e}\n{case:?}"));
            mid_run += coverage.reports - 1;
            unsettled += coverage.unsettled;
        }
        assert!(mid_run >= 16, "{mid_run} mid-run reports");
        assert!(
            unsettled >= 16,
            "{unsettled} completions reported in flight"
        );
    }
}
