//! Exclusive-burst oracle: every exclusive request's output hash must be
//! the reference evaluator's, however the schedule ran it and whichever
//! report computed it.
//!
//! The event loop records only the schedule; `Server::report` computes
//! the output hashes of everything completed since the last report, in
//! full-width fold passes for exclusives and batch-plan passes for the
//! rest. The serve oracles queue too few exclusives at once to fill such
//! a pass, so this one draws bursts of 8–96 exclusives (plus a few
//! batchable requests) over a random pool of grammar circuits — with and
//! without feedback registers — random tenants, shed policies, queue
//! depths and 1–3 slices per server. Each case runs four ways: on a plain
//! `Server`; on a server fed in waves and reported after each, so the
//! phase runs once per wave; across two servers with a steal from one to
//! the other in the middle of the run; and on a 2-shard work-stealing
//! `Cluster`. Every way, requests must be conserved and every
//! completion's hash must equal `inputs::reference_hash` over the
//! kernel's mapped netlist.

use std::sync::Arc;

use freac_core::{Accelerator, AcceleratorTile};
use freac_rand::Rng64;
use freac_serve::inputs::reference_hash;
use freac_serve::queue::ShedPolicy;
use freac_serve::{
    Cluster, ClusterConfig, Completion, Request, RequestProfile, RoutePolicy, ServeConfig, Server,
    StealConfig,
};

use crate::circuit::CircuitSpec;
use crate::shrink;

use super::serve::TENANTS;

/// One request of a burst, in pool-index form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstRequest {
    /// Index into the case's tenants.
    pub tenant: usize,
    /// Index into the case's circuit pool.
    pub kernel: usize,
    /// Arrival time, ps.
    pub arrival_ps: u64,
    /// Single-lane folded execution demanded.
    pub exclusive: bool,
    /// Input-synthesis seed.
    pub seed: u64,
}

/// One oracle case.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstCase {
    /// The kernel pool: a circuit and the cycles each invocation runs
    /// (1..=4, so the functional depth spans one to four cycles).
    pub circuits: Vec<(CircuitSpec, u64)>,
    /// Tenant count (1..=4), weights all 1.
    pub tenants: usize,
    /// The trace; seq numbers are assigned per tenant in order.
    pub requests: Vec<BurstRequest>,
    /// Backpressure policy.
    pub shed: ShedPolicy,
    /// Compute slices per server.
    pub slices: usize,
    /// Admission-queue depth (shallow depths make `DropOldest` displace
    /// evaluated exclusives).
    pub queue_depth: usize,
    /// Steal imbalance threshold of the cluster run.
    pub imbalance: usize,
    /// Cluster epoch length, ps.
    pub epoch_ps: u64,
}

/// Draws a random [`BurstCase`].
pub fn generate(rng: &mut Rng64) -> BurstCase {
    let circuits = (0..1 + rng.index(2))
        .map(|_| (CircuitSpec::random(rng, 6), 1 + rng.below(4)))
        .collect::<Vec<_>>();
    let tenants = 1 + rng.index(TENANTS.len());
    let exclusives = 8 + rng.index(89);
    let batchables = rng.index(25);
    let spread = *rng.pick(&[0u64, 2_000, 200_000]);
    let mut requests: Vec<BurstRequest> = (0..exclusives + batchables)
        .map(|i| BurstRequest {
            tenant: rng.index(tenants),
            kernel: rng.index(circuits.len()),
            arrival_ps: rng.below(spread + 1),
            exclusive: i < exclusives,
            seed: rng.next_u64(),
        })
        .collect();
    requests.sort_by_key(|r| r.arrival_ps);
    BurstCase {
        circuits,
        tenants,
        requests,
        shed: *rng.pick(&[ShedPolicy::RejectNew, ShedPolicy::DropOldest]),
        slices: 1 + rng.index(3),
        queue_depth: *rng.pick(&[8usize, 24, 128]),
        imbalance: rng.index(8),
        epoch_ps: *rng.pick(&[1_000, 10_000, 100_000]),
    }
}

/// Shrink candidates: fewer requests, fewer tenants and kernels, simpler
/// circuits.
pub fn shrink(case: &BurstCase) -> Vec<BurstCase> {
    let mut out: Vec<BurstCase> = shrink::subsequences(&case.requests)
        .into_iter()
        .map(|requests| BurstCase {
            requests,
            ..case.clone()
        })
        .collect();
    if case.tenants > 1 {
        out.push(BurstCase {
            tenants: 1,
            requests: case
                .requests
                .iter()
                .map(|r| BurstRequest {
                    tenant: 0,
                    ..r.clone()
                })
                .collect(),
            ..case.clone()
        });
    }
    if case.circuits.len() > 1 {
        out.push(BurstCase {
            circuits: case.circuits[..1].to_vec(),
            requests: case
                .requests
                .iter()
                .map(|r| BurstRequest {
                    kernel: 0,
                    ..r.clone()
                })
                .collect(),
            ..case.clone()
        });
    }
    for (i, (spec, cycles)) in case.circuits.iter().enumerate() {
        for simpler in spec.shrink() {
            let mut circuits = case.circuits.clone();
            circuits[i] = (simpler, *cycles);
            out.push(BurstCase {
                circuits,
                ..case.clone()
            });
        }
    }
    out
}

/// Kernel names of the case's pool, in pool order.
fn kernel_name(i: usize) -> String {
    format!("k{i}")
}

/// The trace with per-tenant sequence numbers.
fn requests_of(case: &BurstCase) -> Vec<Request> {
    let mut next_seq = vec![0u64; case.tenants];
    case.requests
        .iter()
        .map(|br| {
            let seq = next_seq[br.tenant];
            next_seq[br.tenant] += 1;
            let mut r = Request::new(
                TENANTS[br.tenant],
                seq,
                &kernel_name(br.kernel),
                br.arrival_ps,
                br.seed,
            );
            r.exclusive = br.exclusive;
            r
        })
        .collect()
}

/// Conservation, and every completion's hash against the reference
/// evaluator; `kernel` maps a kernel name to its mapped netlist and
/// functional depth.
fn check_outcomes<'a>(
    what: &str,
    submitted: usize,
    completions: &[Completion],
    sheds: usize,
    kernel: impl Fn(&str) -> Option<(&'a freac_netlist::Netlist, u64)>,
) -> Result<(), String> {
    if completions.len() + sheds != submitted {
        return Err(format!(
            "{what}: {} completed + {sheds} shed != {submitted} submitted",
            completions.len()
        ));
    }
    for c in completions {
        let (net, cycles) =
            kernel(&c.kernel).ok_or_else(|| format!("{what}: unknown kernel {}", c.kernel))?;
        let want = reference_hash(net, c.seed, cycles)
            .map_err(|e| format!("{what}: reference evaluation failed: {e}"))?;
        if c.output_hash != want {
            return Err(format!(
                "{what}: ({}, {}) on {} (seed {:#x}, {} lanes) hashed {:#x}, reference {want:#x}",
                c.tenant, c.seq, c.kernel, c.seed, c.lanes, c.output_hash
            ));
        }
    }
    Ok(())
}

/// A registered kernel: name, mapped accelerator, request profile.
type Kernel = (String, Arc<Accelerator>, RequestProfile);

/// Simulated time between the waves of the repeatedly reported run: far
/// past the drain of any burst this oracle draws.
const WAVE_GAP_PS: u64 = 1_000_000_000_000;

/// A server under `shard` with the case's kernels and tenants.
fn server_of(case: &BurstCase, shard: ServeConfig, kernels: &[Kernel]) -> Result<Server, String> {
    let mut server = Server::new(shard).map_err(|e| format!("server config: {e}"))?;
    for (name, accel, profile) in kernels {
        server
            .register_accelerator(name, accel.clone(), *profile)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    for t in &TENANTS[..case.tenants] {
        server
            .add_tenant(t, 1)
            .map_err(|e| format!("tenant: {e}"))?;
    }
    Ok(server)
}

/// [`check_outcomes`] against a server's own kernels.
fn check_server(
    what: &str,
    server: &Server,
    submitted: usize,
    completions: &[Completion],
    sheds: usize,
) -> Result<(), String> {
    check_outcomes(what, submitted, completions, sheds, |k| {
        Some((server.kernel_netlist(k)?, server.kernel_func_cycles(k)?))
    })
}

/// Runs the burst on a plain server, on a server reported after each of
/// three waves, across two servers with a mid-run steal, and on a 2-shard
/// stealing cluster; every completion must hash like the reference
/// evaluator.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check(case: &BurstCase) -> Result<(), String> {
    let tile = AcceleratorTile::new(1).map_err(|e| format!("unit tile: {e}"))?;
    let mut kernels: Vec<Kernel> = Vec::new();
    for (i, (spec, cycles)) in case.circuits.iter().enumerate() {
        let accel = Accelerator::map_shared(&spec.build(), &tile)
            .map_err(|e| format!("kernel {i} does not map: {e}"))?;
        let profile = RequestProfile {
            cycles_per_item: *cycles,
            read_words: 2,
            write_words: 1,
        };
        kernels.push((kernel_name(i), accel, profile));
    }
    let shard = ServeConfig {
        shed: case.shed,
        slices: case.slices,
        queue_depth: case.queue_depth,
        ..ServeConfig::default()
    };
    let requests = requests_of(case);

    let mut server = server_of(case, shard, &kernels)?;
    for r in &requests {
        server
            .submit(r.clone())
            .map_err(|e| format!("submit: {e}"))?;
    }
    let report = server
        .run_to_completion()
        .map_err(|e| format!("run: {e}"))?;
    check_server(
        "server",
        &server,
        requests.len(),
        &report.completions,
        report.sheds.len(),
    )?;

    check_waves(case, shard, &kernels, &requests)?;
    check_mid_run_steal(case, shard, &kernels, &requests)?;

    let mut cluster = Cluster::new(ClusterConfig {
        shards: 2,
        shard,
        route: RoutePolicy::KernelAffinity { spill_depth: 4 },
        steal: Some(StealConfig {
            imbalance: case.imbalance,
            max_per_epoch: 16,
        }),
        epoch_ps: case.epoch_ps,
        ..ClusterConfig::default()
    })
    .map_err(|e| format!("cluster config: {e}"))?;
    for (name, accel, profile) in &kernels {
        cluster
            .register_accelerator(name, accel.clone(), *profile)
            .map_err(|e| format!("cluster register {name}: {e}"))?;
    }
    for t in &TENANTS[..case.tenants] {
        cluster
            .add_tenant(t, 1)
            .map_err(|e| format!("cluster tenant: {e}"))?;
    }
    for r in requests.iter().cloned() {
        cluster
            .submit(r)
            .map_err(|e| format!("cluster submit: {e}"))?;
    }
    let report = cluster
        .run_to_completion()
        .map_err(|e| format!("cluster run: {e}"))?;
    check_outcomes(
        "cluster",
        requests.len(),
        &report.completions,
        report.sheds.len(),
        |k| Some((cluster.kernel_netlist(k)?, cluster.kernel_func_cycles(k)?)),
    )
}

/// The repeatedly reported arm: request `i` joins wave `i % 3`, shifted
/// by [`WAVE_GAP_PS`] per wave. Each wave is submitted, driven by two
/// bounded runs to the start of the next, and reported; every report must
/// hold the reference hash of every completion so far, each computed once.
fn check_waves(
    case: &BurstCase,
    shard: ServeConfig,
    kernels: &[Kernel],
    requests: &[Request],
) -> Result<(), String> {
    let mut server = server_of(case, shard, kernels)?;
    let mut submitted = 0;
    for wave in 0..3u64 {
        let start = wave * WAVE_GAP_PS;
        for r in requests.iter().skip(wave as usize).step_by(3) {
            let mut r = r.clone();
            r.arrival_ps += start;
            server
                .submit(r)
                .map_err(|e| format!("waves: submit: {e}"))?;
            submitted += 1;
        }
        for until in [start + WAVE_GAP_PS / 2, start + WAVE_GAP_PS - 1] {
            server
                .run_until(until, &mut |_| Vec::new())
                .map_err(|e| format!("waves: run: {e}"))?;
        }
        let what = format!("waves: report {wave}");
        if server.backlog() > 0 {
            return Err(format!("{what}: the wave did not drain within its gap"));
        }
        let report = server.report().map_err(|e| format!("{what}: {e}"))?;
        check_server(
            &what,
            &server,
            submitted,
            &report.completions,
            report.sheds.len(),
        )?;
        let hashed = report.probes.counter("serve.func.lanes");
        if hashed != report.completions.len() as u64 {
            return Err(format!(
                "{what}: {hashed} hashed != {} completed",
                report.completions.len()
            ));
        }
    }
    Ok(())
}

/// The mid-run steal arm: every request goes to a victim server, which
/// runs up to the median arrival; half its queue (at least one request,
/// when any is queued) then moves to a thief server, and both drain.
fn check_mid_run_steal(
    case: &BurstCase,
    shard: ServeConfig,
    kernels: &[Kernel],
    requests: &[Request],
) -> Result<(), String> {
    let mut victim = server_of(case, shard, kernels)?;
    let mut thief = server_of(case, shard, kernels)?;
    for r in requests {
        victim
            .submit(r.clone())
            .map_err(|e| format!("steal: submit: {e}"))?;
    }
    let mid = requests.get(requests.len() / 2).map_or(0, |r| r.arrival_ps);
    victim
        .run_until(mid, &mut |_| Vec::new())
        .map_err(|e| format!("steal: victim run: {e}"))?;
    let stolen = victim.steal_newest(victim.queued().div_ceil(2));
    let moved = stolen.len();
    for r in stolen {
        thief
            .submit_stolen(r)
            .map_err(|e| format!("steal: thief submit: {e}"))?;
    }
    let victim_report = victim
        .run_to_completion()
        .map_err(|e| format!("steal: victim drain: {e}"))?;
    check_server(
        "steal: victim",
        &victim,
        requests.len() - moved,
        &victim_report.completions,
        victim_report.sheds.len(),
    )?;
    let thief_report = thief
        .run_to_completion()
        .map_err(|e| format!("steal: thief drain: {e}"))?;
    check_server(
        "steal: thief",
        &thief,
        moved,
        &thief_report.completions,
        thief_report.sheds.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_random_cases() {
        let mut rng = Rng64::new(31);
        for _ in 0..4 {
            let case = generate(&mut rng);
            check(&case).expect("every burst hashes like the reference");
        }
    }
}
