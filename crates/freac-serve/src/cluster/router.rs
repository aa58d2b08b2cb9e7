//! Kernel-affinity request routing across shards.
//!
//! The mapping/plan cache is the placement signal: a shard that served a
//! kernel recently still holds its bitstream, so routing the kernel's
//! traffic back there skips [`freac_core::reconfig_cost`]. The router
//! realizes this with rendezvous hashing — each kernel gets a stable shard
//! ranking derived only from `(kernel name, shard index)`, so placement is
//! independent of registration order, request order, and shard
//! enumeration order.

use std::collections::BTreeMap;

use freac_rand::{seed_from_name, Rng64};

/// How the cluster picks a home shard for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Requests cycle through shards regardless of kernel — the placement
    /// baseline affinity routing is gated against.
    RoundRobin,
    /// Rendezvous-hashed kernel affinity: a request goes to the first
    /// shard in its kernel's ranking whose backlog is below `spill_depth`,
    /// falling back to the least-backlogged ranked shard when all are
    /// saturated. One kernel's traffic concentrates where its bitstream is
    /// already resident, so only spill traffic pays reconfiguration.
    KernelAffinity {
        /// Backlog at which a kernel's traffic starts spilling to the
        /// next shard in its ranking.
        spill_depth: usize,
    },
}

/// The routing state machine. Deterministic: rankings are a pure function
/// of kernel names and the shard count, and the round-robin cursor advances
/// once per routed request.
#[derive(Clone)]
pub(crate) struct Router {
    policy: RoutePolicy,
    shards: usize,
    rr_cursor: usize,
    /// Rendezvous rankings memoized per `(kernel, live shard set)` — the
    /// live set is implicit (`self.shards` indices), and [`Router::invalidate`]
    /// flushes the cache whenever a topology event (shard rescale) changes
    /// what is resident where. Hits take no allocation: the hot path is
    /// one `BTreeMap` lookup by `&str`, not an owned-key `entry`.
    rankings: BTreeMap<String, Vec<usize>>,
    cache_hits: u64,
    cache_misses: u64,
}

impl Router {
    pub(crate) fn new(policy: RoutePolicy, shards: usize) -> Self {
        assert!(shards >= 1, "a cluster routes to at least one shard");
        Router {
            policy,
            shards,
            rr_cursor: 0,
            rankings: BTreeMap::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Flushes the ranking cache. Called on every shard rescale: the
    /// rescaled shard rebuilds its fabric, so cached placement derived from
    /// the previous live-shard state must be recomputed. (Rankings are a
    /// pure function of `(kernel, shard count)`, so routing *decisions* are
    /// unchanged — the flush keeps the memo honest about topology events
    /// and is observable through the miss counter.)
    pub(crate) fn invalidate(&mut self) {
        self.rankings.clear();
    }

    /// Drains the `(hits, misses)` ranking-cache tally accumulated since
    /// the last call, for export as cluster counters.
    pub(crate) fn take_cache_stats(&mut self) -> (u64, u64) {
        let stats = (self.cache_hits, self.cache_misses);
        self.cache_hits = 0;
        self.cache_misses = 0;
        stats
    }

    /// The shard the next request for `kernel` should land on, given each
    /// shard's current backlog. An affinity route looks the kernel's
    /// ranking up once in the memo, computing and caching it on a miss.
    pub(crate) fn route(&mut self, kernel: &str, backlogs: &[usize]) -> usize {
        debug_assert_eq!(backlogs.len(), self.shards);
        match self.policy {
            RoutePolicy::RoundRobin => self.next_round_robin(),
            RoutePolicy::KernelAffinity { spill_depth } => {
                if let Some(ranking) = self.rankings.get(kernel) {
                    self.cache_hits += 1;
                    return affinity_pick(ranking, backlogs, spill_depth);
                }
                self.cache_misses += 1;
                let ranking = rendezvous_ranking(kernel, self.shards);
                let s = affinity_pick(&ranking, backlogs, spill_depth);
                self.rankings.insert(kernel.to_owned(), ranking);
                s
            }
        }
    }

    /// [`Router::route`] for a caller that holds the kernel's
    /// [`rendezvous_ranking`] itself (the sampler's signature pass, which
    /// indexes kernels by number): the same choice, without the memo.
    pub(crate) fn route_ranked(&mut self, ranking: &[usize], backlogs: &[usize]) -> usize {
        debug_assert_eq!(backlogs.len(), self.shards);
        match self.policy {
            RoutePolicy::RoundRobin => self.next_round_robin(),
            RoutePolicy::KernelAffinity { spill_depth } => {
                affinity_pick(ranking, backlogs, spill_depth)
            }
        }
    }

    fn next_round_robin(&mut self) -> usize {
        let s = self.rr_cursor;
        self.rr_cursor = (self.rr_cursor + 1) % self.shards;
        s
    }
}

/// The kernel's rendezvous ranking over `shards` shards: shard indices
/// sorted by descending per-`(kernel, shard)` hash score (ascending index
/// on score ties).
pub(crate) fn rendezvous_ranking(kernel: &str, shards: usize) -> Vec<usize> {
    let seed = seed_from_name(kernel);
    let mut scored: Vec<(u64, usize)> = (0..shards)
        .map(|i| {
            let lane = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (Rng64::new(seed ^ lane).next_u64(), i)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, i)| i).collect()
}

/// The affinity choice: the first shard in `ranking` whose backlog is
/// below `spill_depth`, else the least-backlogged shard, ranking order
/// breaking ties.
fn affinity_pick(ranking: &[usize], backlogs: &[usize], spill_depth: usize) -> usize {
    if let Some(&s) = ranking.iter().find(|&&s| backlogs[s] < spill_depth) {
        return s;
    }
    let mut best = ranking[0];
    for &s in &ranking[1..] {
        if backlogs[s] < backlogs[best] {
            best = s;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_all_shards() {
        let mut r = Router::new(RoutePolicy::RoundRobin, 3);
        let picks: Vec<usize> = (0..7).map(|_| r.route("any", &[0, 0, 0])).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn affinity_is_stable_and_kernel_dependent() {
        let mut r = Router::new(RoutePolicy::KernelAffinity { spill_depth: 8 }, 4);
        let home_aes = r.route("aes", &[0, 0, 0, 0]);
        // Same kernel keeps routing home while under the spill depth.
        for _ in 0..10 {
            assert_eq!(r.route("aes", &[2, 2, 2, 2]), home_aes);
        }
        // Distinct kernels spread: across the paper's kernel names at
        // least two distinct home shards appear.
        let homes: std::collections::BTreeSet<usize> =
            ["aes", "gemm", "fft", "kmp", "nw", "sort", "conv"]
                .iter()
                .map(|k| r.route(k, &[0, 0, 0, 0]))
                .collect();
        assert!(
            homes.len() >= 2,
            "all kernels hashed to one shard: {homes:?}"
        );
    }

    #[test]
    fn affinity_spills_down_the_ranking_when_home_is_deep() {
        let mut r = Router::new(RoutePolicy::KernelAffinity { spill_depth: 4 }, 3);
        let home = r.route("gemm", &[0, 0, 0]);
        let mut backlogs = vec![0usize; 3];
        backlogs[home] = 4; // at the spill depth: no longer eligible
        let spill = r.route("gemm", &backlogs);
        assert_ne!(spill, home, "saturated home must spill");
        // Fully saturated: the least-backlogged shard wins.
        let mut all_deep = vec![9usize; 3];
        all_deep[spill] = 7;
        assert_eq!(r.route("gemm", &all_deep), spill);
    }

    #[test]
    fn ranking_cache_hits_after_first_route_and_misses_after_invalidate() {
        let mut r = Router::new(RoutePolicy::KernelAffinity { spill_depth: 8 }, 4);
        let backlogs = [0usize; 4];
        for _ in 0..5 {
            r.route("aes", &backlogs);
            r.route("gemm", &backlogs);
        }
        let (hits, misses) = r.take_cache_stats();
        assert_eq!(misses, 2, "one ranking computed per kernel");
        assert_eq!(hits, 8, "every later route reuses the memo");
        // The drain resets the tally.
        assert_eq!(r.take_cache_stats(), (0, 0));
        // A topology event flushes the memo: the same kernels miss again,
        // and recompute to the same placement (rankings are pure).
        let before: Vec<usize> = ["aes", "gemm"]
            .iter()
            .map(|k| r.route(k, &backlogs))
            .collect();
        r.invalidate();
        let after: Vec<usize> = ["aes", "gemm"]
            .iter()
            .map(|k| r.route(k, &backlogs))
            .collect();
        assert_eq!(before, after, "invalidation must not change placement");
        let (_, misses) = r.take_cache_stats();
        assert_eq!(misses, 2, "post-invalidate routes recompute the rankings");
    }

    #[test]
    fn round_robin_never_touches_the_ranking_cache() {
        let mut r = Router::new(RoutePolicy::RoundRobin, 3);
        for _ in 0..6 {
            r.route("aes", &[0, 0, 0]);
        }
        assert_eq!(r.take_cache_stats(), (0, 0));
    }

    #[test]
    fn ranked_routing_picks_what_route_picks() {
        // The sampler's signature pass routes by kernel index through
        // `route_ranked` over `rendezvous_ranking`; under any backlogs it
        // must pick the shard `route` picks by name.
        let kernels = ["add", "mask", "aes", "gemm"];
        freac_rand::cases(200, 0x0e0b_17e5, |rng| {
            let shards = 1 + rng.index(6);
            let policy = if rng.below(4) == 0 {
                RoutePolicy::RoundRobin
            } else {
                RoutePolicy::KernelAffinity {
                    spill_depth: 1 + rng.index(12),
                }
            };
            let rankings: Vec<Vec<usize>> = kernels
                .iter()
                .map(|k| rendezvous_ranking(k, shards))
                .collect();
            let (mut by_name, mut by_index) =
                (Router::new(policy, shards), Router::new(policy, shards));
            for _ in 0..64 {
                let kid = rng.index(kernels.len());
                let backlogs: Vec<usize> = (0..shards).map(|_| rng.index(16)).collect();
                assert_eq!(
                    by_index.route_ranked(&rankings[kid], &backlogs),
                    by_name.route(kernels[kid], &backlogs),
                    "{policy:?}, {shards} shards, backlogs {backlogs:?}"
                );
            }
        });
    }

    #[test]
    fn single_shard_always_routes_to_zero() {
        let mut rr = Router::new(RoutePolicy::RoundRobin, 1);
        let mut aff = Router::new(RoutePolicy::KernelAffinity { spill_depth: 1 }, 1);
        for k in ["aes", "gemm"] {
            assert_eq!(rr.route(k, &[100]), 0);
            assert_eq!(aff.route(k, &[100]), 0);
        }
    }
}
