//! Admission-queue oracle: [`AdmissionQueue`] and the batch coalescer
//! against a plain model.
//!
//! The model is a `Vec<(stamp, Request)>` in admission order, with every
//! operation spelled out as a linear scan: admission under both shed
//! policies, batch takes anchored at the scheduler's `oldest` /
//! `oldest_of` picks or at any index, and work-stealing pops. The queue
//! keeps batchable and exclusive requests in separate stores and answers
//! its oldest-request queries from a sorted flag and a per-tenant stamp
//! index; after every step its returned requests, merged order, length,
//! indexed reads and oldest picks must equal the model's.

use freac_rand::Rng64;
use freac_serve::batch::take_batch;
use freac_serve::queue::{AdmissionQueue, AdmitResult, ShedPolicy};
use freac_serve::Request;

use crate::shrink;

use super::serve::TENANTS;

/// One queue operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueOp {
    /// Offer a request from tenant `tenant` arriving at `arrival_ps`.
    Admit {
        /// Index into the case's tenants.
        tenant: usize,
        /// Arrival time, ps (usually ascending; sometimes older, as a
        /// steal into the shard re-admits).
        arrival_ps: u64,
        /// Single-lane request that never rides as a companion.
        exclusive: bool,
    },
    /// `take_batch` anchored at `oldest()`.
    TakeOldest {
        /// Lane cap.
        cap: usize,
    },
    /// `take_batch` anchored at `oldest_of(tenant)`.
    TakeOldestOf {
        /// Index into the case's tenants.
        tenant: usize,
        /// Lane cap.
        cap: usize,
    },
    /// `take_batch` anchored at index `at % len` (the deadline-aware
    /// scheduler anchors anywhere).
    TakeAt {
        /// Anchor, reduced modulo the queue length.
        at: usize,
        /// Lane cap.
        cap: usize,
    },
    /// `pop_newest`, the work-stealing victim's pop.
    PopNewest,
}

/// One oracle case: a queue bound, a shed policy and an op sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueCase {
    /// Queue depth (>= 1).
    pub depth: usize,
    /// Policy at a full queue.
    pub shed: ShedPolicy,
    /// Tenants in play (1..=4).
    pub tenants: usize,
    /// Operations, applied in order.
    pub ops: Vec<QueueOp>,
}

/// Draws a random [`QueueCase`]: about one exclusive admit in eight and
/// one out-of-order arrival in eight.
pub fn generate(rng: &mut Rng64) -> QueueCase {
    let depth = match rng.below(4) {
        0 => *rng.pick(&[32usize, 128]),
        _ => 1 + rng.index(12),
    };
    let tenants = 1 + rng.index(TENANTS.len());
    let len = rng.index(160);
    let cap = |rng: &mut Rng64| {
        let any = 1 + rng.index(40);
        *rng.pick(&[1usize, 2, 3, 8, 64, any])
    };
    let ops = (0..len as u64)
        .map(|i| match rng.below(10) {
            0..=4 => QueueOp::Admit {
                tenant: rng.index(tenants),
                arrival_ps: if rng.below(8) == 0 {
                    rng.below(i * 10 + 1)
                } else {
                    i * 10
                },
                exclusive: rng.below(8) == 0,
            },
            5 => QueueOp::TakeOldest { cap: cap(rng) },
            6 => QueueOp::TakeOldestOf {
                tenant: rng.index(tenants),
                cap: cap(rng),
            },
            7 | 8 => QueueOp::TakeAt {
                at: rng.index(1 << 16),
                cap: cap(rng),
            },
            _ => QueueOp::PopNewest,
        })
        .collect();
    QueueCase {
        depth,
        shed: *rng.pick(&[ShedPolicy::RejectNew, ShedPolicy::DropOldest]),
        tenants,
        ops,
    }
}

/// Shrink candidates: fewer ops, then a shallower queue.
pub fn shrink(case: &QueueCase) -> Vec<QueueCase> {
    let mut out: Vec<QueueCase> = shrink::subsequences(&case.ops)
        .into_iter()
        .map(|ops| QueueCase {
            ops,
            ..case.clone()
        })
        .collect();
    out.extend(
        shrink::halvings_usize(case.depth)
            .into_iter()
            .filter(|&depth| depth >= 1)
            .map(|depth| QueueCase {
                depth,
                ..case.clone()
            }),
    );
    out
}

/// The model: queued requests with admission stamps, in stamp order.
struct Model {
    items: Vec<(u64, Request)>,
    next_stamp: u64,
}

impl Model {
    fn admit(&mut self, req: Request, depth: usize, shed: ShedPolicy) -> AdmitResult {
        if self.items.len() >= depth {
            match shed {
                ShedPolicy::RejectNew => return AdmitResult::Rejected(req),
                ShedPolicy::DropOldest => {
                    let (_, victim) = self.items.remove(0);
                    self.push(req);
                    return AdmitResult::Displaced(victim);
                }
            }
        }
        self.push(req);
        AdmitResult::Admitted
    }

    fn push(&mut self, req: Request) {
        self.items.push((self.next_stamp, req));
        self.next_stamp += 1;
    }

    /// Index of the least order key among requests `keep` accepts.
    fn oldest(&self, keep: impl Fn(&Request) -> bool) -> Option<usize> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, (_, r))| keep(r))
            .min_by_key(|(_, (_, r))| r.order_key())
            .map(|(i, _)| i)
    }

    /// Anchor first, then batchable companions in admission order.
    fn take(&mut self, anchor: usize, cap: usize) -> Vec<Request> {
        let (_, first) = self.items.remove(anchor);
        let alone = first.exclusive;
        let mut batch = vec![first];
        let mut left = Vec::new();
        for (stamp, r) in self.items.drain(..) {
            if !alone && batch.len() < cap && !r.exclusive {
                batch.push(r);
            } else {
                left.push((stamp, r));
            }
        }
        self.items = left;
        batch
    }
}

/// Every read the scheduler and coalescer make must match the model.
fn compare(q: &AdmissionQueue, model: &Model, tenants: usize) -> Result<(), String> {
    if q.len() != model.items.len() || q.is_empty() != model.items.is_empty() {
        return Err(format!("len {} vs model {}", q.len(), model.items.len()));
    }
    if !q.iter().eq(model.items.iter().map(|(_, r)| r)) {
        return Err("iter() order diverged from the model's admission order".to_owned());
    }
    for (i, (_, r)) in model.items.iter().enumerate() {
        if q.get(i) != Some(r) {
            return Err(format!("get({i}) diverged"));
        }
    }
    if q.get(model.items.len()).is_some() {
        return Err("get past the end returned a request".to_owned());
    }
    if q.oldest() != model.oldest(|_| true) {
        return Err(format!(
            "oldest() {:?} vs model {:?}",
            q.oldest(),
            model.oldest(|_| true)
        ));
    }
    for name in &TENANTS[..tenants] {
        let expect = model.oldest(|r| r.tenant == *name);
        if q.oldest_of(name) != expect {
            return Err(format!(
                "oldest_of({name}) {:?} vs model {expect:?}",
                q.oldest_of(name)
            ));
        }
    }
    Ok(())
}

/// Runs the case on the queue and the model in lock step.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check(case: &QueueCase) -> Result<(), String> {
    let mut q = AdmissionQueue::new(case.depth);
    let mut model = Model {
        items: Vec::new(),
        next_stamp: 0,
    };
    for (step, op) in case.ops.iter().enumerate() {
        let at = |e: String| format!("step {step} ({op:?}): {e}");
        match *op {
            QueueOp::Admit {
                tenant,
                arrival_ps,
                exclusive,
            } => {
                let mut r = Request::new(TENANTS[tenant], step as u64, "k", arrival_ps, 0);
                r.exclusive = exclusive;
                let got = q.admit(r.clone(), case.shed);
                let expect = model.admit(r, case.depth, case.shed);
                if got != expect {
                    return Err(at(format!("admit returned {got:?}, model {expect:?}")));
                }
            }
            // The previous step's `compare` pinned `oldest`/`oldest_of`
            // to the model's picks, so one anchor serves both sides.
            QueueOp::TakeOldest { cap } => {
                let anchor = q.oldest();
                take_both(&mut q, &mut model, anchor, cap).map_err(at)?;
            }
            QueueOp::TakeOldestOf { tenant, cap } => {
                let anchor = q.oldest_of(TENANTS[tenant]);
                take_both(&mut q, &mut model, anchor, cap).map_err(at)?;
            }
            QueueOp::TakeAt { at: idx, cap } => {
                let anchor = (!q.is_empty()).then(|| idx % q.len());
                take_both(&mut q, &mut model, anchor, cap).map_err(at)?;
            }
            QueueOp::PopNewest => {
                let got = q.pop_newest();
                let expect = model.items.pop().map(|(_, r)| r);
                if got != expect {
                    return Err(at(format!("pop_newest {got:?} vs model {expect:?}")));
                }
            }
        }
        compare(&q, &model, case.tenants).map_err(at)?;
    }
    Ok(())
}

/// `take_batch` on the queue and the model at the same anchor, if any.
fn take_both(
    q: &mut AdmissionQueue,
    model: &mut Model,
    anchor: Option<usize>,
    cap: usize,
) -> Result<(), String> {
    let Some(anchor) = anchor else {
        return Ok(());
    };
    let got = take_batch(q, anchor, cap);
    let expect = model.take(anchor, cap);
    if got != expect {
        let ids = |b: &[Request]| -> Vec<(String, u64)> {
            b.iter().map(|r| (r.tenant.clone(), r.seq)).collect()
        };
        return Err(format!("batch {:?} vs model {:?}", ids(&got), ids(&expect)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_random_cases() {
        let mut rng = Rng64::new(0x0a0e_0e0e);
        for _ in 0..64 {
            check(&generate(&mut rng)).expect("queue matches the model");
        }
    }

    #[test]
    fn exclusives_at_the_head_wait_out_a_drain() {
        // Exclusives admitted first stay queued, in place, while the
        // batchables behind them drain.
        let admit = |arrival_ps, exclusive| QueueOp::Admit {
            tenant: 0,
            arrival_ps,
            exclusive,
        };
        let case = QueueCase {
            depth: 8,
            shed: ShedPolicy::DropOldest,
            tenants: 1,
            ops: vec![
                admit(0, true),
                admit(10, true),
                admit(20, false),
                admit(30, false),
                QueueOp::TakeAt { at: 2, cap: 8 },
                admit(40, false),
                QueueOp::TakeOldest { cap: 8 },
                QueueOp::PopNewest,
            ],
        };
        check(&case).expect("queue matches the model");
    }
}
