//! The batch coalescer: packing compatible queued requests into lanes.

use crate::queue::AdmissionQueue;
use crate::request::Request;

/// Removes the scheduler-chosen `anchor` request from `queue` plus up to
/// `cap - 1` compatible companions, oldest-first, preserving the order of
/// everything left behind.
///
/// Compatibility is per-request, not per-kernel: the queue already holds a
/// single kernel, but an `exclusive` request streams into the
/// accelerator's live register state and therefore rides alone on the
/// single-lane folded path. So:
///
/// * an exclusive anchor returns a batch of exactly one;
/// * a batchable anchor coalesces with other batchable requests (exclusive
///   requests are never companions, and keep their queue position).
///
/// The returned order — anchor first, then companions oldest-first — is
/// the lane order of the dispatch, which makes lane assignment a pure
/// function of queue state.
///
/// Companions drain from the front of the queue's batchable store
/// ([`AdmissionQueue::drain_batchable_into`]), which holds no exclusives:
/// the whole take costs the anchor's removal plus one pop per companion,
/// however deep the queue and however many exclusives wait in it.
///
/// # Panics
///
/// Panics if `anchor` is out of range or `cap` is zero.
pub fn take_batch(queue: &mut AdmissionQueue, anchor: usize, cap: usize) -> Vec<Request> {
    assert!(cap >= 1, "batch capacity must be at least 1");
    let anchor_req = queue.remove_at(anchor);
    let mut batch = vec![anchor_req];
    if batch[0].exclusive {
        return batch;
    }
    queue.drain_batchable_into(cap - 1, &mut batch);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{AdmitResult, ShedPolicy};
    use freac_rand::Rng64;

    fn queue_with(reqs: Vec<Request>) -> AdmissionQueue {
        let mut q = AdmissionQueue::new(64);
        for r in reqs {
            q.admit(r, ShedPolicy::RejectNew);
        }
        q
    }

    fn req(seq: u64, exclusive: bool) -> Request {
        let mut r = Request::new("t", seq, "k", seq, 0);
        r.exclusive = exclusive;
        r
    }

    #[test]
    fn coalesces_up_to_capacity_in_queue_order() {
        let mut q = queue_with((0..6).map(|s| req(s, false)).collect());
        let batch = take_batch(&mut q, 0, 4);
        let seqs: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(0).unwrap().seq, 4);
    }

    #[test]
    fn mid_queue_anchor_leads_the_batch() {
        let mut q = queue_with((0..4).map(|s| req(s, false)).collect());
        let batch = take_batch(&mut q, 2, 3);
        let seqs: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        // Anchor 2 first, then the remaining oldest-first.
        assert_eq!(seqs, vec![2, 0, 1]);
        assert_eq!(q.get(0).unwrap().seq, 3);
    }

    #[test]
    fn exclusive_anchor_rides_alone() {
        let mut q = queue_with(vec![req(0, true), req(1, false)]);
        let batch = take_batch(&mut q, 0, 64);
        assert_eq!(batch.len(), 1);
        assert!(batch[0].exclusive);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn exclusive_companions_are_skipped_in_place() {
        let mut q = queue_with(vec![
            req(0, false),
            req(1, true),
            req(2, false),
            req(3, true),
        ]);
        let batch = take_batch(&mut q, 0, 64);
        let seqs: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
        let left: Vec<u64> = q.iter().map(|r| r.seq).collect();
        assert_eq!(left, vec![1, 3]);
    }

    /// The pre-drain semantics, spelled out naively: anchor first, then
    /// batchable companions oldest-first, leftovers in original order.
    fn naive_take(items: &mut Vec<Request>, anchor: usize, cap: usize) -> Vec<Request> {
        let anchor_req = items.remove(anchor);
        let exclusive = anchor_req.exclusive;
        let mut batch = vec![anchor_req];
        let mut left = Vec::new();
        for r in items.drain(..) {
            if !exclusive && batch.len() < cap && !r.exclusive {
                batch.push(r);
            } else {
                left.push(r);
            }
        }
        *items = left;
        batch
    }

    #[test]
    fn deep_queue_drain_preserves_batch_and_leftover_order() {
        // Deep queues (well past any dispatch cap) with random tenants,
        // exclusive patterns, anchors and caps, driven to empty by takes,
        // displacements (some re-admitting older arrivals, as a steal into
        // the shard does) and steals: the in-place drain must reproduce
        // the naive per-element semantics exactly, and the queue's tenant
        // counts and sorted flag must survive a recount after every step.
        let mut rng = Rng64::new(0xd7a1_4e11);
        for case in 0..40 {
            let depth = rng.range_u64(1, 3_000) as usize;
            let exclusive_per_mille = *rng.pick(&[0u64, 31, 143, 500, 1_000]);
            let tenants = rng.range_u64(1, 5);
            let mut seq = 0u64;
            let mut fresh = |rng: &mut Rng64| {
                seq += 1;
                let arrival = if rng.below(8) == 0 {
                    rng.below(seq * 10)
                } else {
                    seq * 10
                };
                let tenant = ["a", "b", "c", "d"][rng.below(tenants) as usize];
                let mut r = Request::new(tenant, seq, "k", arrival, 0);
                r.exclusive = rng.below(1_000) < exclusive_per_mille;
                r
            };
            let mut q = AdmissionQueue::new(depth);
            let mut model: Vec<Request> = Vec::new();
            let admit = |q: &mut AdmissionQueue, model: &mut Vec<Request>, r: Request| {
                model.push(r.clone());
                if let AdmitResult::Displaced(victim) = q.admit(r, ShedPolicy::DropOldest) {
                    assert_eq!(victim, model.remove(0), "case {case}: displaced");
                }
            };
            for _ in 0..rng.range_u64(1, 2 * depth as u64) {
                let r = fresh(&mut rng);
                admit(&mut q, &mut model, r);
            }
            while !q.is_empty() {
                q.assert_bookkeeping();
                match rng.below(5) {
                    0 => {
                        let r = fresh(&mut rng);
                        admit(&mut q, &mut model, r);
                    }
                    1 => assert_eq!(q.pop_newest(), model.pop(), "case {case}: steal"),
                    _ => {
                        let anchor = rng.index(q.len());
                        let any = rng.index(600) + 1;
                        let cap = *rng.pick(&[1usize, 2, 64, 512, any]);
                        let batch = take_batch(&mut q, anchor, cap);
                        let expected = naive_take(&mut model, anchor, cap);
                        assert_eq!(batch, expected, "case {case}: anchor {anchor}, cap {cap}");
                    }
                }
                assert!(q.iter().eq(model.iter()), "case {case}: leftover order");
            }
            q.assert_bookkeeping();
        }
    }

    #[test]
    fn capacity_one_is_single_lane() {
        let mut q = queue_with((0..3).map(|s| req(s, false)).collect());
        let batch = take_batch(&mut q, 0, 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(q.len(), 2);
    }
}
