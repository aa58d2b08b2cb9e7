//! Per-window behavior signatures for representative-interval sampling.
//!
//! One linear pass over the (canonically sorted) trace drives the real
//! rendezvous router over a fluid queue model — per-shard backlog drains
//! continuously at the slice count's service rate while arrivals deposit
//! their estimated service time — and accumulates, per fixed-size window,
//! the same signals the serving probes measure: kernel mix, arrival
//! intensity, queue depths, shed/steal pressure, reconfiguration churn,
//! exclusive/deadline fractions, and the configured way split. The pass
//! never executes a kernel, so it costs microseconds per window where full
//! simulation costs milliseconds; its only job is to *discriminate*
//! behavior regimes, which is what the k-medoids clustering consumes.

use crate::cluster::{rendezvous_ranking, ClusterConfig, Router};
use crate::request::Request;
use freac_sim::Time;

use crate::server::FluidEstimate;

/// One window's signature: the feature vector plus its extent in the
/// trace.
pub(crate) struct WindowSig {
    /// Index of the window's first request in the sorted trace.
    pub(crate) start: usize,
    /// Requests in the window (equal to the window size except the tail).
    pub(crate) len: usize,
    /// Raw (un-normalized) features, in [`feature_names`] order.
    pub(crate) features: Vec<f64>,
    /// Deepest fluid shard queue at the window's first arrival — the
    /// state estimate a simulated segment's warmup reconstructs (not a
    /// clustering feature; `depth.*` already covers discrimination).
    pub(crate) start_depth_max: f64,
    /// Whether some shard enters the window with every claimed slot still
    /// mid-reconfiguration: the boot transient, where queued work cannot
    /// move no matter how shallow the queues still are.
    pub(crate) start_frozen: bool,
}

/// Stable feature names, `mix.<kernel>` first (kernel name order) followed
/// by the scalar signals. Exported through the `serve.sample.sig.*`
/// histogram namespace.
pub(crate) fn feature_names(kernels: &[String]) -> Vec<String> {
    let mut names: Vec<String> = kernels.iter().map(|k| format!("mix.{k}")).collect();
    names.extend(
        [
            "gap",
            "depth.mean",
            "depth.max",
            "churn",
            "shed",
            "imbalance",
            "exclusive",
            "deadline",
            "epoch.cos",
            "epoch.sin",
            "ways.compute",
            "ways.cache",
        ]
        .iter()
        .map(|s| (*s).to_owned()),
    );
    names
}

/// Computes the per-window signatures of `trace` (the caller's requests,
/// borrowed and already sorted by [`Request::order_key`]). `kernel_of`
/// resolves each request to its kernel's index in `kernels`, which fixes
/// the feature order, and `estimates` holds the kernels' fluid cost models
/// in that order. The pass stops at the first request `kernel_of` cannot
/// resolve (the caller, which checks identities in the same call, then
/// rejects the trace).
///
/// The deposit per admitted request is the *amortized* cost the batched
/// scheduler would charge it: one wave's service spread over the wave's
/// lanes, plus a reconfiguration quote when the routed shard is not
/// already serving the kernel — the (way-flush dominated) cold setup if a
/// slice is free, a swap once all of the shard's slices are claimed. Those
/// reconfiguration terms are what let the model reproduce the serving
/// loop's bistability: cold setups stall the boot window long enough for
/// queues to spill past the affinity threshold, spilled kernels interleave
/// on every shard and each dispatch pays a swap, and the backlog compounds
/// until amortized service catches up and affinity re-stabilizes
/// residency.
pub(crate) fn window_signatures(
    trace: &[&Request],
    mut kernel_of: impl FnMut(&Request) -> Option<usize>,
    window: usize,
    kernels: &[String],
    estimates: &[FluidEstimate],
    cfg: &ClusterConfig,
) -> Vec<WindowSig> {
    assert!(window >= 1);
    let shards = cfg.shards;
    let queue_depth = cfg.shard.queue_depth as f64;
    let service: Vec<f64> = estimates
        .iter()
        .map(|e| e.service_ps.max(1) as f64 / e.tiles.max(1) as f64)
        .collect();
    let rankings: Vec<Vec<usize>> = kernels
        .iter()
        .map(|k| rendezvous_ranking(k, shards))
        .collect();
    // The way split is a configuration constant here (a full run can
    // autoscale it, but the signature pass has no execution to observe);
    // carrying it keeps the exported signature self-describing.
    let p = &cfg.shard.partition;
    let total_ways = (p.compute_ways() + p.scratchpad_ways() + p.cache_ways()).max(1) as f64;
    let ways_compute = p.compute_ways() as f64 / total_ways;
    let ways_cache = p.cache_ways() as f64 / total_ways;

    // Fluid per-shard state, carried across windows so a window inherits
    // the backlog its predecessors built up (the same role warmup plays in
    // the full-fidelity segment simulation).
    //
    // Each shard holds up to `slices` slots of (resident kernel, ready
    // time). A kernel already in a slot dispatches free; a free slot
    // claims the (way-flush dominated) cold setup, a full shard evicts
    // round-robin and pays a swap. A slot contributes drain only once its
    // reconfiguration finishes — that stall, not a service deposit, is
    // what stretches the boot transient to `setup_ps / arrival_gap`
    // requests while slices configured earlier keep serving.
    let mut router = Router::new(cfg.route, shards);
    let slice_cap = cfg.shard.slices.max(1);
    let mut depth = vec![0.0f64; shards]; // queued requests (fluid)
    let mut backlog_ps = vec![0.0f64; shards]; // queued service time
    let mut slots: Vec<Vec<(usize, Time)>> = vec![Vec::new(); shards];
    let mut evict_rr = vec![0usize; shards];
    let mut backlogs_rounded = vec![0usize; shards];
    let mut prev_arrival: Option<Time> = None;

    let epoch = cfg.epoch_ps.max(1);
    let mut sigs = Vec::with_capacity(trace.len().div_ceil(window));
    let mut w = WindowAcc::new(kernels.len());
    for (i, req) in trace.iter().enumerate() {
        let Some(kid) = kernel_of(req) else {
            break;
        };
        // The window's position counts in `w.len`, never `i % window`: a
        // division per request is a measurable share of the pass.
        let opens_window = w.len == 0;
        // Drain continuously between arrivals: each slot serves one
        // picosecond of backlog per picosecond once its reconfiguration is
        // done. An empty shard (its depth is zero too) stays empty.
        if let Some(prev) = prev_arrival {
            for s in 0..shards {
                if backlog_ps[s] == 0.0 {
                    continue;
                }
                let drained: f64 = slots[s]
                    .iter()
                    .map(|&(_, ready)| req.arrival_ps.saturating_sub(prev.max(ready)) as f64)
                    .sum();
                if backlog_ps[s] <= drained {
                    backlog_ps[s] = 0.0;
                    depth[s] = 0.0;
                } else {
                    let keep = (backlog_ps[s] - drained) / backlog_ps[s];
                    backlog_ps[s] -= drained;
                    depth[s] *= keep;
                }
            }
            if !opens_window {
                w.gap_sum += (req.arrival_ps - prev) as f64;
            }
        }
        prev_arrival = Some(req.arrival_ps);
        if opens_window {
            w.start_depth_max = depth.iter().fold(0.0f64, |a, &d| a.max(d));
            w.start_frozen = slots
                .iter()
                .any(|sh| !sh.is_empty() && sh.iter().all(|&(_, ready)| ready > req.arrival_ps));
            // Routing rounds are synchronized to the cluster's epoch grid,
            // so a window's behavior depends on where its span sits
            // relative to the next epoch boundary: windows shorter than an
            // epoch alias against the grid with a beat period of
            // `epoch / (window span mod epoch)` windows, and the windows
            // that straddle a boundary inherit its backlog flush. The
            // phase is circular, hence the cos/sin embedding.
            w.start_epoch_phase =
                (req.arrival_ps % epoch) as f64 / epoch as f64 * std::f64::consts::TAU;
        }

        for (r, d) in backlogs_rounded.iter_mut().zip(depth.iter()) {
            *r = *d as usize;
        }
        let si = router.route_ranked(&rankings[kid], &backlogs_rounded);
        if depth[si] >= queue_depth {
            w.shed_est += 1.0;
        } else {
            depth[si] += 1.0;
            backlog_ps[si] += service[kid];
            if !slots[si].iter().any(|&(k, _)| k == kid) {
                w.switches += 1.0;
                if slots[si].len() < slice_cap {
                    slots[si].push((kid, req.arrival_ps.saturating_add(estimates[kid].setup_ps)));
                } else {
                    let e = evict_rr[si] % slice_cap;
                    slots[si][e] = (kid, req.arrival_ps.saturating_add(estimates[kid].swap_ps));
                    evict_rr[si] += 1;
                }
            }
        }

        w.mix[kid] += 1.0;
        w.len += 1;
        let (mut dmin, mut dmax, mut dsum) = (f64::INFINITY, 0.0f64, 0.0f64);
        for &d in &depth {
            dmin = dmin.min(d);
            dmax = dmax.max(d);
            dsum += d;
        }
        w.depth_sum += dsum / shards as f64;
        w.depth_max = w.depth_max.max(dmax);
        w.imbalance_sum += dmax - dmin;
        if req.exclusive {
            w.exclusive += 1.0;
        }
        if req.deadline_ps.is_some() {
            w.deadline += 1.0;
        }

        if w.len == window || i + 1 == trace.len() {
            let start = i + 1 - w.len;
            sigs.push(w.finish(start, ways_compute, ways_cache));
            w = WindowAcc::new(kernels.len());
        }
    }
    sigs
}

/// Running accumulators for one window.
struct WindowAcc {
    len: usize,
    mix: Vec<f64>,
    gap_sum: f64,
    depth_sum: f64,
    depth_max: f64,
    switches: f64,
    shed_est: f64,
    imbalance_sum: f64,
    exclusive: f64,
    deadline: f64,
    /// The state the window opens on (see [`WindowSig`]).
    start_depth_max: f64,
    start_frozen: bool,
    start_epoch_phase: f64,
}

impl WindowAcc {
    fn new(kernels: usize) -> Self {
        WindowAcc {
            len: 0,
            mix: vec![0.0; kernels],
            gap_sum: 0.0,
            depth_sum: 0.0,
            depth_max: 0.0,
            switches: 0.0,
            shed_est: 0.0,
            imbalance_sum: 0.0,
            exclusive: 0.0,
            deadline: 0.0,
            start_depth_max: 0.0,
            start_frozen: false,
            start_epoch_phase: 0.0,
        }
    }

    fn finish(self, start: usize, ways_compute: f64, ways_cache: f64) -> WindowSig {
        let n = self.len.max(1) as f64;
        let mut features: Vec<f64> = self.mix.iter().map(|&c| c / n).collect();
        features.push((1.0 + self.gap_sum / n).log2());
        features.push(self.depth_sum / n);
        features.push(self.depth_max);
        features.push(self.switches / n);
        features.push(self.shed_est / n);
        features.push(self.imbalance_sum / n);
        features.push(self.exclusive / n);
        features.push(self.deadline / n);
        features.push(self.start_epoch_phase.cos());
        features.push(self.start_epoch_phase.sin());
        features.push(ways_compute);
        features.push(ways_cache);
        debug_assert!(features.iter().all(|f| f.is_finite()));
        WindowSig {
            start,
            len: self.len,
            features,
            start_depth_max: self.start_depth_max,
            start_frozen: self.start_frozen,
        }
    }
}

/// Min-max normalizes each feature dimension across windows into
/// `[0, 1]`, so no single large-magnitude signal (queue depth) drowns the
/// fractions. Constant dimensions normalize to 0 and stop influencing
/// distances.
pub(crate) fn normalize(sigs: &[WindowSig]) -> Vec<Vec<f64>> {
    if sigs.is_empty() {
        return Vec::new();
    }
    let dims = sigs[0].features.len();
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for s in sigs {
        for (d, &f) in s.features.iter().enumerate() {
            lo[d] = lo[d].min(f);
            hi[d] = hi[d].max(f);
        }
    }
    sigs.iter()
        .map(|s| {
            s.features
                .iter()
                .enumerate()
                .map(|(d, &f)| {
                    let span = hi[d] - lo[d];
                    if span > 0.0 {
                        (f - lo[d]) / span
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            shards: 2,
            ..ClusterConfig::default()
        }
    }

    fn req(kernel: &str, seq: u64, at: freac_sim::Time) -> Request {
        Request::new("t", seq, kernel, at, seq)
    }

    /// The pass over `trace` with every kernel at one 50,000 ps wave.
    fn signatures(trace: &[Request], window: usize, kernels: &[String]) -> Vec<WindowSig> {
        let est = FluidEstimate {
            service_ps: 50_000,
            swap_ps: 0,
            setup_ps: 0,
            tiles: 1,
        };
        let refs: Vec<&Request> = trace.iter().collect();
        let kernel_of = |r: &Request| kernels.iter().position(|k| *k == r.kernel);
        let estimates = vec![est; kernels.len()];
        window_signatures(&refs, kernel_of, window, kernels, &estimates, &cfg())
    }

    #[test]
    fn windows_cover_the_trace_and_mix_discriminates() {
        let kernels = vec!["a".to_owned(), "b".to_owned()];
        // 64 requests of kernel a at a slow rate, then 64 of kernel b in a
        // dense burst.
        let mut trace: Vec<Request> = (0..64).map(|i| req("a", i, i * 1_000_000)).collect();
        trace.extend((0..64).map(|i| req("b", 64 + i, 64_000_000 + i * 1_000)));
        let sigs = signatures(&trace, 32, &kernels);
        assert_eq!(sigs.len(), 4);
        assert_eq!(sigs.iter().map(|s| s.len).sum::<usize>(), 128);
        assert!(sigs
            .iter()
            .all(|s| s.features.iter().all(|f| f.is_finite())));
        // Kernel mix separates the halves.
        assert!(sigs[0].features[0] > 0.9, "first windows are all kernel a");
        assert!(sigs[3].features[1] > 0.9, "last windows are all kernel b");
        // The dense burst builds fluid depth the idle phase never sees.
        let depth_mean_idx = kernels.len() + 1;
        assert!(
            sigs[3].features[depth_mean_idx] > sigs[0].features[depth_mean_idx],
            "burst windows must show deeper fluid queues"
        );
    }

    #[test]
    fn signatures_are_deterministic() {
        let kernels = vec!["a".to_owned(), "b".to_owned()];
        let trace: Vec<Request> = (0..100)
            .map(|i| req(if i % 3 == 0 { "b" } else { "a" }, i, i * 7_000))
            .collect();
        let a = signatures(&trace, 16, &kernels);
        let b = signatures(&trace, 16, &kernels);
        let fa: Vec<&[f64]> = a.iter().map(|s| s.features.as_slice()).collect();
        let fb: Vec<&[f64]> = b.iter().map(|s| s.features.as_slice()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn normalize_maps_into_unit_range_and_kills_constants() {
        let kernels = vec!["a".to_owned()];
        let trace: Vec<Request> = (0..64).map(|i| req("a", i, i * 5_000)).collect();
        let sigs = signatures(&trace, 16, &kernels);
        let pts = normalize(&sigs);
        for p in &pts {
            for &f in p {
                assert!((0.0..=1.0).contains(&f));
            }
        }
        // `mix.a` is constant 1.0 across windows: normalized away.
        assert!(pts.iter().all(|p| p[0] == 0.0));
    }
}
