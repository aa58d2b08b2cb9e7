//! Conservation-law cross-checks over a [`CounterRegistry`].
//!
//! Every check keys off the counter-naming scheme (DESIGN.md §8) and
//! fires only when the counters involved are present, so the same
//! [`check`] runs against a single `run_kernel` registry, a merged
//! harness registry, or a component export. All laws are preserved by
//! [`CounterRegistry::merge`] (both sides are sums, or the relation is
//! `<=`), except the explicitly per-run products, which are guarded by
//! `core.runs == 1`.
//!
//! The laws:
//!
//! * `<p>.hits + <p>.misses == <p>.accesses` for every prefix with an
//!   `.accesses` counter;
//! * `<p>.evictions <= <p>.misses` and `<p>.writebacks <= <p>.evictions`
//!   (a victim is only produced by a miss; only a valid victim can be
//!   dirty);
//! * `<p>.dirty_drops <= <p>.invalidations + <p>.flushed_lines` for
//!   every prefix with a `.dirty_drops` counter — a dirty line can only
//!   be dropped by a targeted invalidation or a whole-cache flush;
//! * `<p>.writeback_pulls <= <p>.invalidations + <p>.downgrades` for
//!   every prefix with a `.writeback_pulls` counter — the coherence
//!   protocol pulls a dirty line only while invalidating or downgrading
//!   its owner;
//! * `<p>.bytes_read == <p>.lines_read * <p>.line_bytes` (gauge), and
//!   the same for writes — DRAM traffic is whole cache lines;
//! * `<p>.row_activations == <p>.lines_read + <p>.lines_written`;
//! * `<p>.busy_ps <= <p>.span_ps` — a resource cannot be busy longer
//!   than the span it was observed over (the "grants within capacity"
//!   law for time-reservation resources);
//! * `<p>.stalls <= <p>.requests`;
//! * `fold.steps_executed == fold.expected_steps` — executed fold steps
//!   match Σ(schedule length × passes);
//! * `experiments.pool.jobs_completed == experiments.pool.jobs_submitted`;
//! * `<p>.completed + <p>.shed + <p>.stolen == <p>.submitted` for every
//!   prefix with a `.submitted` counter — a drained serving run loses no
//!   request: each one completes, is shed, or was stolen away to another
//!   shard (where it counts as submitted again, so the law also holds on
//!   cluster-merged registries);
//! * `<p>.occupied <= <p>.capacity` for every prefix with an `.occupied`
//!   counter — a batch never carries more lanes than the dispatch
//!   offered (both sides are sums over dispatches, so merges preserve
//!   the law);
//! * `Σ <p>.cluster.<c>.requests == <p>.trace.requests` and
//!   `<p>.est.completed + <p>.est.shed == <p>.trace.requests` for every
//!   prefix with a `.trace.requests` counter — sampled extrapolation
//!   accounts for every trace request exactly once: each request belongs
//!   to exactly one signature cluster, and every extrapolated request
//!   either completes or sheds (both sides are sums, so merges preserve
//!   the law);
//! * per-run only: `core.kernel_cycles == core.items_per_tile *
//!   core.round_cycles`.

use std::fmt;

use crate::registry::CounterRegistry;

/// One failed invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which law failed, e.g. `"cache.llc: hits + misses == accesses"`.
    pub law: String,
    /// The observed values.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.law, self.detail)
    }
}

/// Prefixes of counters ending in `suffix` (e.g. `.accesses`), sorted.
fn prefixes_with<'a>(reg: &'a CounterRegistry, suffix: &'a str) -> Vec<&'a str> {
    reg.counters()
        .filter_map(|(k, _)| k.strip_suffix(suffix))
        .collect()
}

/// Runs every applicable invariant; returns all violations (empty =
/// healthy).
pub fn check(reg: &CounterRegistry) -> Vec<Violation> {
    let mut out = Vec::new();
    let violate = |out: &mut Vec<Violation>, law: String, detail: String| {
        out.push(Violation { law, detail });
    };

    // hits + misses == accesses, evictions <= misses, writebacks <= evictions.
    for p in prefixes_with(reg, ".accesses") {
        let hits = reg.counter(&format!("{p}.hits"));
        let misses = reg.counter(&format!("{p}.misses"));
        let accesses = reg.counter(&format!("{p}.accesses"));
        if hits + misses != accesses {
            violate(
                &mut out,
                format!("{p}: hits + misses == accesses"),
                format!("{hits} + {misses} != {accesses}"),
            );
        }
        let evictions = reg.counter(&format!("{p}.evictions"));
        if reg.has_counter(&format!("{p}.evictions")) && evictions > misses {
            violate(
                &mut out,
                format!("{p}: evictions <= misses"),
                format!("{evictions} > {misses}"),
            );
        }
        let writebacks = reg.counter(&format!("{p}.writebacks"));
        if reg.has_counter(&format!("{p}.evictions")) && writebacks > evictions {
            violate(
                &mut out,
                format!("{p}: writebacks <= evictions"),
                format!("{writebacks} > {evictions}"),
            );
        }
    }

    // Back-invalidation drops: only a targeted invalidation or a flush
    // can drop a dirty line.
    for p in prefixes_with(reg, ".dirty_drops") {
        let dirty = reg.counter(&format!("{p}.dirty_drops"));
        let drops = reg
            .counter(&format!("{p}.invalidations"))
            .saturating_add(reg.counter(&format!("{p}.flushed_lines")));
        if dirty > drops {
            violate(
                &mut out,
                format!("{p}: dirty_drops <= invalidations + flushed_lines"),
                format!("{dirty} > {drops}"),
            );
        }
    }

    // Coherence protocol: every writeback pull rides an invalidation or
    // a downgrade of the dirty owner.
    for p in prefixes_with(reg, ".writeback_pulls") {
        let pulls = reg.counter(&format!("{p}.writeback_pulls"));
        let causes = reg
            .counter(&format!("{p}.invalidations"))
            .saturating_add(reg.counter(&format!("{p}.downgrades")));
        if pulls > causes {
            violate(
                &mut out,
                format!("{p}: writeback_pulls <= invalidations + downgrades"),
                format!("{pulls} > {causes}"),
            );
        }
    }

    // DRAM byte conservation: bytes == lines * line_bytes.
    for p in prefixes_with(reg, ".lines_read") {
        let Some(line_bytes) = reg.gauge(&format!("{p}.line_bytes")) else {
            continue;
        };
        let line_bytes = line_bytes as u64;
        for dir in ["read", "written"] {
            let lines = reg.counter(&format!("{p}.lines_{dir}"));
            let bytes = reg.counter(&format!("{p}.bytes_{dir}"));
            if lines.saturating_mul(line_bytes) != bytes {
                violate(
                    &mut out,
                    format!("{p}: bytes_{dir} == lines_{dir} * line_bytes"),
                    format!("{bytes} != {lines} * {line_bytes}"),
                );
            }
        }
        let activations = reg.counter(&format!("{p}.row_activations"));
        let lines =
            reg.counter(&format!("{p}.lines_read")) + reg.counter(&format!("{p}.lines_written"));
        if reg.has_counter(&format!("{p}.row_activations")) && activations != lines {
            violate(
                &mut out,
                format!("{p}: row_activations == lines_read + lines_written"),
                format!("{activations} != {lines}"),
            );
        }
    }

    // Resources: busy within observed span, stalls within requests.
    for p in prefixes_with(reg, ".busy_ps") {
        let busy = reg.counter(&format!("{p}.busy_ps"));
        let span = reg.counter(&format!("{p}.span_ps"));
        if reg.has_counter(&format!("{p}.span_ps")) && busy > span {
            violate(
                &mut out,
                format!("{p}: busy_ps <= span_ps"),
                format!("{busy} > {span}"),
            );
        }
    }
    for p in prefixes_with(reg, ".stalls") {
        let stalls = reg.counter(&format!("{p}.stalls"));
        let requests = reg.counter(&format!("{p}.requests"));
        if stalls > requests {
            violate(
                &mut out,
                format!("{p}: stalls <= requests"),
                format!("{stalls} > {requests}"),
            );
        }
    }

    // Fold-step conservation.
    for p in prefixes_with(reg, ".expected_steps") {
        let expected = reg.counter(&format!("{p}.expected_steps"));
        let executed = reg.counter(&format!("{p}.steps_executed"));
        if expected != executed {
            violate(
                &mut out,
                format!("{p}: steps_executed == Σ schedule length × passes"),
                format!("{executed} != {expected}"),
            );
        }
    }

    // Worker pool conservation.
    for p in prefixes_with(reg, ".jobs_submitted") {
        let submitted = reg.counter(&format!("{p}.jobs_submitted"));
        let completed = reg.counter(&format!("{p}.jobs_completed"));
        if submitted != completed {
            violate(
                &mut out,
                format!("{p}: jobs_completed == jobs_submitted"),
                format!("{completed} != {submitted}"),
            );
        }
    }

    // Request conservation: every submitted request ends exactly once —
    // as a completion, a shed, or a steal to another shard (the serving
    // layer's drain guarantee). A stolen request is re-submitted on the
    // thief, so the law holds per shard and on cluster-merged registries.
    for p in prefixes_with(reg, ".submitted") {
        let submitted = reg.counter(&format!("{p}.submitted"));
        let completed = reg.counter(&format!("{p}.completed"));
        let shed = reg.counter(&format!("{p}.shed"));
        let stolen = reg.counter(&format!("{p}.stolen"));
        if completed.saturating_add(shed).saturating_add(stolen) != submitted {
            violate(
                &mut out,
                format!("{p}: completed + shed + stolen == submitted"),
                format!("{completed} + {shed} + {stolen} != {submitted}"),
            );
        }
    }

    // Lane conservation: occupied lanes within offered capacity.
    for p in prefixes_with(reg, ".occupied") {
        let occupied = reg.counter(&format!("{p}.occupied"));
        let capacity = reg.counter(&format!("{p}.capacity"));
        if reg.has_counter(&format!("{p}.capacity")) && occupied > capacity {
            violate(
                &mut out,
                format!("{p}: occupied <= capacity"),
                format!("{occupied} > {capacity}"),
            );
        }
    }

    // Sampled-extrapolation conservation: every trace request belongs to
    // exactly one signature cluster, and the extrapolated terminal counts
    // cover the whole trace.
    for p in prefixes_with(reg, ".trace.requests") {
        let total = reg.counter(&format!("{p}.trace.requests"));
        let cluster_prefix = format!("{p}.cluster");
        let mut cluster_sum = 0u64;
        let mut have_clusters = false;
        for (k, v) in reg.counters_under(&cluster_prefix) {
            if k.ends_with(".requests") {
                cluster_sum = cluster_sum.saturating_add(v);
                have_clusters = true;
            }
        }
        if have_clusters && cluster_sum != total {
            violate(
                &mut out,
                format!("{p}: Σ cluster.<c>.requests == trace.requests"),
                format!("{cluster_sum} != {total}"),
            );
        }
        if reg.has_counter(&format!("{p}.est.completed")) {
            let completed = reg.counter(&format!("{p}.est.completed"));
            let shed = reg.counter(&format!("{p}.est.shed"));
            if completed.saturating_add(shed) != total {
                violate(
                    &mut out,
                    format!("{p}: est.completed + est.shed == trace.requests"),
                    format!("{completed} + {shed} != {total}"),
                );
            }
        }
    }

    // Per-run products (meaningless once registries merge: sums of
    // products are not products of sums).
    if reg.counter("core.runs") == 1 {
        let cycles = reg.counter("core.kernel_cycles");
        let items = reg.counter("core.items_per_tile");
        let round = reg.counter("core.round_cycles");
        if reg.has_counter("core.kernel_cycles") && items.saturating_mul(round) != cycles {
            violate(
                &mut out,
                "core: kernel_cycles == items_per_tile * round_cycles".to_owned(),
                format!("{cycles} != {items} * {round}"),
            );
        }
    }

    out
}

/// Panics with a formatted list when any invariant fails. Components call
/// it after assembling a per-run registry, in every build.
///
/// # Panics
///
/// Panics if [`check`] reports violations.
pub fn assert_ok(reg: &CounterRegistry) {
    let violations = check(reg);
    assert!(
        violations.is_empty(),
        "probe invariants violated:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> CounterRegistry {
        let mut r = CounterRegistry::new();
        r.add("cache.llc.accesses", 10);
        r.add("cache.llc.hits", 7);
        r.add("cache.llc.misses", 3);
        r.add("cache.llc.evictions", 2);
        r.add("cache.llc.writebacks", 1);
        r.add("cache.llc.invalidations", 3);
        r.add("cache.llc.flushed_lines", 2);
        r.add("cache.llc.dirty_drops", 4);
        r.add("cache.coh.invalidations", 6);
        r.add("cache.coh.downgrades", 2);
        r.add("cache.coh.writeback_pulls", 5);
        r.add("sim.dram.lines_read", 4);
        r.add("sim.dram.lines_written", 1);
        r.add("sim.dram.bytes_read", 256);
        r.add("sim.dram.bytes_written", 64);
        r.add("sim.dram.row_activations", 5);
        r.set_gauge("sim.dram.line_bytes", 64.0);
        r.add("sim.dram.ch.busy_ps", 100);
        r.add("sim.dram.ch.span_ps", 150);
        r.add("sim.dram.ch.requests", 5);
        r.add("sim.dram.ch.stalls", 2);
        r.add("fold.expected_steps", 12);
        r.add("fold.steps_executed", 12);
        r.add("experiments.pool.jobs_submitted", 9);
        r.add("experiments.pool.jobs_completed", 9);
        r.add("serve.requests.submitted", 6);
        r.add("serve.requests.completed", 4);
        r.add("serve.requests.shed", 2);
        r.add("serve.lanes.occupied", 48);
        r.add("serve.lanes.capacity", 128);
        r.add("serve.sample.trace.requests", 20);
        r.add("serve.sample.cluster.0.requests", 12);
        r.add("serve.sample.cluster.1.requests", 8);
        r.add("serve.sample.cluster.0.medoid", 3);
        r.add("serve.sample.est.completed", 18);
        r.add("serve.sample.est.shed", 2);
        r
    }

    #[test]
    fn healthy_registry_passes() {
        assert_ok(&healthy());
    }

    #[test]
    fn empty_registry_passes() {
        assert_ok(&CounterRegistry::new());
    }

    type Corruption = Box<dyn Fn(&mut CounterRegistry)>;

    #[test]
    fn each_law_fires() {
        let cases: Vec<(&str, Corruption)> = vec![
            ("hits + misses", Box::new(|r| r.add("cache.llc.hits", 1))),
            (
                "evictions <= misses",
                Box::new(|r| r.add("cache.llc.evictions", 5)),
            ),
            (
                "writebacks <= evictions",
                Box::new(|r| r.add("cache.llc.writebacks", 5)),
            ),
            (
                "dirty_drops <= invalidations + flushed_lines",
                Box::new(|r| r.add("cache.llc.dirty_drops", 10)),
            ),
            (
                "writeback_pulls <= invalidations + downgrades",
                Box::new(|r| r.add("cache.coh.writeback_pulls", 10)),
            ),
            (
                "bytes_read == lines_read",
                Box::new(|r| r.add("sim.dram.bytes_read", 1)),
            ),
            (
                "row_activations",
                Box::new(|r| r.add("sim.dram.row_activations", 1)),
            ),
            (
                "busy_ps <= span_ps",
                Box::new(|r| r.add("sim.dram.ch.busy_ps", 100)),
            ),
            (
                "stalls <= requests",
                Box::new(|r| r.add("sim.dram.ch.stalls", 10)),
            ),
            (
                "steps_executed",
                Box::new(|r| r.add("fold.steps_executed", 1)),
            ),
            (
                "jobs_completed",
                Box::new(|r| r.add("experiments.pool.jobs_submitted", 1)),
            ),
            (
                "completed + shed + stolen == submitted",
                Box::new(|r| r.add("serve.requests.shed", 1)),
            ),
            (
                "completed + shed + stolen == submitted",
                Box::new(|r| r.add("serve.requests.stolen", 3)),
            ),
            (
                "occupied <= capacity",
                Box::new(|r| r.add("serve.lanes.occupied", 1_000)),
            ),
            (
                "cluster.<c>.requests == trace.requests",
                Box::new(|r| r.add("serve.sample.cluster.1.requests", 1)),
            ),
            (
                "est.completed + est.shed == trace.requests",
                Box::new(|r| r.add("serve.sample.est.shed", 1)),
            ),
        ];
        for (law_fragment, corrupt) in cases {
            let mut r = healthy();
            corrupt(&mut r);
            let violations = check(&r);
            assert!(
                violations.iter().any(|v| v.law.contains(law_fragment)),
                "expected a '{law_fragment}' violation, got {violations:?}"
            );
        }
    }

    #[test]
    fn per_run_product_only_checked_for_single_runs() {
        let mut r = CounterRegistry::new();
        r.add("core.runs", 1);
        r.add("core.kernel_cycles", 100);
        r.add("core.items_per_tile", 9);
        r.add("core.round_cycles", 10);
        assert_eq!(check(&r).len(), 1);
        // Two merged runs: the product law is skipped.
        r.add("core.runs", 1);
        assert_ok(&r);
    }

    #[test]
    fn stolen_requests_balance_the_conservation_law() {
        // Victim shard: 2 of its 8 submissions were stolen away; thief
        // shard: the 2 stolen arrivals count as fresh submissions. Both
        // pass alone, and so does their merge (10 = 6 + 2 + 2).
        let mut victim = CounterRegistry::new();
        victim.add("serve.requests.submitted", 8);
        victim.add("serve.requests.completed", 5);
        victim.add("serve.requests.shed", 1);
        victim.add("serve.requests.stolen", 2);
        assert_ok(&victim);
        let mut thief = CounterRegistry::new();
        thief.add("serve.requests.submitted", 2);
        thief.add("serve.requests.completed", 1);
        thief.add("serve.requests.shed", 1);
        assert_ok(&thief);
        let mut merged = victim.clone();
        merged.merge(&thief);
        assert_ok(&merged);
        // And namespaced per-shard copies stay checkable alongside it.
        merged.merge_namespaced("cluster.shard.0.", &victim);
        merged.merge_namespaced("cluster.shard.1.", &thief);
        assert_ok(&merged);
    }

    #[test]
    fn merged_registries_stay_healthy() {
        let mut a = healthy();
        a.merge(&healthy());
        assert_ok(&a);
    }
}
