//! The slice scheduler: which queued request anchors the next dispatch.
//!
//! The scheduler sees every queued request across the per-kernel admission
//! queues and picks one *anchor*; the batch coalescer then packs
//! compatible companions around it. All scans iterate `BTreeMap`s and
//! break ties by [`Request::order_key`], so the pick is a pure function of
//! queue and tenant state — independent of tenant enumeration or
//! submission order.
//!
//! The pick is the minimum of a key over the queued requests, but it need
//! not visit all of them. `Fifo` takes each queue's oldest request and
//! `WeightedFair` first ranks the queued tenants, then takes the winner's
//! oldest request per queue. A queue still in canonical key order answers
//! both from its head or its per-tenant index without a scan; an unsorted
//! one scans in full. `DeadlineAware` ranks by deadline, which no
//! queue order tracks, and always scans in full.

use std::collections::BTreeMap;

use freac_sim::Time;

use crate::queue::AdmissionQueue;
use crate::request::Request;

/// Scheduling policy for anchor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Globally oldest request first.
    Fifo,
    /// Weighted fair share: serve the tenant with the least virtual
    /// service accrued (service charged as `ps / weight`), oldest of that
    /// tenant's requests first. Kernel-swap reconfiguration is charged to
    /// the tenant whose anchor forced the swap; cold-start setup is not
    /// charged to anyone.
    WeightedFair,
    /// Earliest absolute deadline first; requests without deadlines rank
    /// after all deadlined ones, oldest first.
    DeadlineAware,
}

/// Virtual-work fixed-point scale: one picosecond of service at weight 1
/// accrues this many virtual-work units, so integer division by large
/// weights keeps sub-unit resolution.
pub(crate) const VWORK_SCALE: u128 = 1 << 20;

/// Per-tenant scheduling state.
#[derive(Debug, Clone)]
pub(crate) struct TenantState {
    /// Fair-share weight (>= 1); higher weight means more service.
    pub weight: u64,
    /// Virtual service accrued: `Σ charged_ps * VWORK_SCALE / weight`.
    pub vwork: u128,
}

impl TenantState {
    /// Charges `amount_ps` of service against the tenant's weight.
    pub fn charge(&mut self, amount_ps: Time) {
        self.vwork += u128::from(amount_ps) * VWORK_SCALE / u128::from(self.weight);
    }
}

/// Picks the anchor `(kernel, queue index)` for the next dispatch, or
/// `None` when nothing is queued.
pub(crate) fn pick(
    policy: SchedPolicy,
    queues: &BTreeMap<String, AdmissionQueue>,
    tenants: &BTreeMap<String, TenantState>,
) -> Option<(String, usize)> {
    let anchor = match policy {
        SchedPolicy::Fifo => oldest_across(queues, AdmissionQueue::oldest),
        SchedPolicy::DeadlineAware => queues
            .iter()
            .flat_map(|(k, q)| q.iter().enumerate().map(move |(i, r)| (k, i, r)))
            .min_by_key(|(_, _, r)| (r.deadline_ps.unwrap_or(Time::MAX), r.order_key())),
        SchedPolicy::WeightedFair => {
            // The least-served tenant with anything queued (ranking needs
            // only which tenants are queued), then that tenant's oldest
            // request. Ties break by tenant name, which is deterministic
            // because tenant names are unique.
            let winner = queues
                .values()
                .flat_map(AdmissionQueue::queued_tenants)
                .min_by_key(|&name| (tenants.get(name).map_or(u128::MAX, |t| t.vwork), name))?;
            oldest_across(queues, |q| q.oldest_of(winner))
        }
    };
    anchor.map(|(k, i, _)| (k.clone(), i))
}

/// The least-keyed of each queue's candidate `oldest(queue)`.
fn oldest_across(
    queues: &BTreeMap<String, AdmissionQueue>,
    oldest: impl Fn(&AdmissionQueue) -> Option<usize>,
) -> Option<(&String, usize, &Request)> {
    queues
        .iter()
        .filter_map(|(k, q)| {
            let i = oldest(q)?;
            Some((k, i, q.get(i).expect("index in range")))
        })
        .min_by_key(|(_, _, r)| r.order_key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use freac_rand::Rng64;

    /// The exhaustive scan every fast path must agree with: visits every
    /// queued request and ignores queue order and the per-tenant index.
    fn pick_reference(
        policy: SchedPolicy,
        queues: &BTreeMap<String, AdmissionQueue>,
        tenants: &BTreeMap<String, TenantState>,
    ) -> Option<(String, usize)> {
        let all = || {
            queues
                .iter()
                .flat_map(|(k, q)| q.iter().enumerate().map(move |(i, r)| (k, i, r)))
        };
        match policy {
            SchedPolicy::Fifo => all()
                .min_by_key(|(_, _, r)| r.order_key())
                .map(|(k, i, _)| (k.clone(), i)),
            SchedPolicy::DeadlineAware => all()
                .min_by_key(|(_, _, r)| (r.deadline_ps.unwrap_or(Time::MAX), r.order_key()))
                .map(|(k, i, _)| (k.clone(), i)),
            SchedPolicy::WeightedFair => {
                let mut best: BTreeMap<&str, (&String, usize, &Request)> = BTreeMap::new();
                for (k, i, r) in all() {
                    match best.get(r.tenant.as_str()) {
                        Some((_, _, existing)) if existing.order_key() <= r.order_key() => {}
                        _ => {
                            best.insert(r.tenant.as_str(), (k, i, r));
                        }
                    }
                }
                best.into_iter()
                    .min_by_key(|(name, _)| {
                        let vwork = tenants.get(*name).map_or(u128::MAX, |t| t.vwork);
                        (vwork, *name)
                    })
                    .map(|(_, (k, i, _))| (k.clone(), i))
            }
        }
    }

    const POLICIES: [SchedPolicy; 3] = [
        SchedPolicy::Fifo,
        SchedPolicy::WeightedFair,
        SchedPolicy::DeadlineAware,
    ];
    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    /// Random queues over 1–3 kernels and 1–6 tenants with exclusives and
    /// deadlines. Arrivals rise with the request index, so the queues are
    /// sorted unless `shuffle`, which re-admits some requests out of
    /// order the way a steal into this shard does.
    fn random_queues(rng: &mut Rng64, shuffle: bool) -> BTreeMap<String, AdmissionQueue> {
        let kernels = rng.range_u64(1, 4);
        let tenants = rng.range_u64(1, 7);
        let n = rng.range_u64(1, 200);
        let mut reqs: Vec<Request> = (0..n)
            .map(|s| {
                let tenant = NAMES[rng.below(tenants) as usize];
                let kernel = ["k0", "k1", "k2"][rng.below(kernels) as usize];
                let mut r = Request::new(tenant, s, kernel, s * 10 + rng.below(3), 0);
                r.exclusive = rng.below(10) == 0;
                if rng.below(10) < 3 {
                    r.deadline_ps = Some(rng.below(5_000));
                }
                r
            })
            .collect();
        if shuffle {
            for _ in 0..rng.range_u64(1, 4) {
                let i = rng.index(reqs.len());
                let r = reqs.remove(i);
                reqs.push(r);
            }
        }
        let mut queues: BTreeMap<String, AdmissionQueue> = BTreeMap::new();
        for r in reqs {
            queues
                .entry(r.kernel.clone())
                .or_insert_with(|| AdmissionQueue::new(256))
                .admit(r, ShedPolicy::RejectNew);
        }
        queues
    }

    fn random_tenants(rng: &mut Rng64) -> BTreeMap<String, TenantState> {
        NAMES
            .iter()
            .map(|&n| {
                (
                    n.to_owned(),
                    TenantState {
                        weight: rng.range_u64(1, 5),
                        vwork: u128::from(rng.below(4)),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn fast_paths_match_the_full_scan() {
        let mut rng = Rng64::new(0x5eed_0013);
        let (mut sorted, mut unsorted) = (0, 0);
        for case in 0..600 {
            let shuffle = case % 2 == 1;
            let queues = random_queues(&mut rng, shuffle);
            let tenants = random_tenants(&mut rng);
            if queues.values().all(AdmissionQueue::is_sorted) {
                sorted += 1;
            } else {
                unsorted += 1;
            }
            for q in queues.values() {
                q.assert_bookkeeping();
            }
            for policy in POLICIES {
                assert_eq!(
                    pick(policy, &queues, &tenants),
                    pick_reference(policy, &queues, &tenants),
                    "case {case}, {policy:?}"
                );
            }
        }
        assert!(sorted > 100 && unsorted > 100, "{sorted} / {unsorted}");
    }

    fn setup(reqs: Vec<Request>) -> BTreeMap<String, AdmissionQueue> {
        let mut queues: BTreeMap<String, AdmissionQueue> = BTreeMap::new();
        for r in reqs {
            queues
                .entry(r.kernel.clone())
                .or_insert_with(|| AdmissionQueue::new(64))
                .admit(r, ShedPolicy::RejectNew);
        }
        queues
    }

    fn tenants(weights: &[(&str, u64)]) -> BTreeMap<String, TenantState> {
        weights
            .iter()
            .map(|&(n, w)| {
                (
                    n.to_owned(),
                    TenantState {
                        weight: w,
                        vwork: 0,
                    },
                )
            })
            .collect()
    }

    fn req(tenant: &str, seq: u64, kernel: &str, arrival: Time) -> Request {
        Request::new(tenant, seq, kernel, arrival, 0)
    }

    #[test]
    fn fifo_takes_the_globally_oldest() {
        let queues = setup(vec![
            req("b", 0, "k2", 20),
            req("a", 0, "k1", 10),
            req("a", 1, "k1", 30),
        ]);
        let t = tenants(&[("a", 1), ("b", 1)]);
        assert_eq!(pick(SchedPolicy::Fifo, &queues, &t), Some(("k1".into(), 0)));
    }

    #[test]
    fn deadline_aware_prefers_the_tightest_deadline() {
        let mut late = req("a", 0, "k1", 0);
        late.deadline_ps = Some(5_000);
        let mut tight = req("b", 0, "k2", 10);
        tight.deadline_ps = Some(1_000);
        let none = req("c", 0, "k1", 1);
        let queues = setup(vec![late, tight, none]);
        let t = tenants(&[("a", 1), ("b", 1), ("c", 1)]);
        // k2 holds the tight deadline even though k1 has older arrivals.
        assert_eq!(
            pick(SchedPolicy::DeadlineAware, &queues, &t),
            Some(("k2".into(), 0))
        );
    }

    #[test]
    fn weighted_fair_serves_the_least_served_tenant() {
        let queues = setup(vec![req("a", 0, "k1", 0), req("b", 0, "k2", 1)]);
        let mut t = tenants(&[("a", 1), ("b", 1)]);
        t.get_mut("a").unwrap().charge(1_000);
        // Tenant b has accrued nothing, so its request anchors next.
        assert_eq!(
            pick(SchedPolicy::WeightedFair, &queues, &t),
            Some(("k2".into(), 0))
        );
    }

    #[test]
    fn charge_scales_inversely_with_weight() {
        let mut heavy = TenantState {
            weight: 8,
            vwork: 0,
        };
        let mut light = TenantState {
            weight: 1,
            vwork: 0,
        };
        heavy.charge(1_000);
        light.charge(1_000);
        assert_eq!(heavy.vwork * 8, light.vwork);
    }

    #[test]
    fn empty_queues_yield_no_pick() {
        let queues: BTreeMap<String, AdmissionQueue> = BTreeMap::new();
        let t = tenants(&[("a", 1)]);
        assert_eq!(pick(SchedPolicy::Fifo, &queues, &t), None);
    }
}
