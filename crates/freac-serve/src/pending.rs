//! Submitted requests waiting for their arrival instant, popped in
//! canonical [`Request::order_key`] order.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use freac_sim::Time;

use crate::request::Request;

/// The not-yet-admitted requests of a server or of a cluster's router.
///
/// Pops are always the least [`Request::order_key`]. Submissions arrive
/// mostly in that order already — an open-loop trace, every epoch's
/// routing into a shard — so they append to a sorted run that pops in
/// O(1). A submission keyed below the run's back (a closed-loop
/// follow-up, a stolen request with an older arrival) goes to a min-heap
/// instead, and a pop takes the lesser of the two heads. Order keys are
/// unique (servers and clusters reject duplicate identities at submit),
/// so the pop sequence is exactly that of one heap over everything.
#[derive(Debug, Default, Clone)]
pub(crate) struct PendingSet {
    /// Ascending by order key.
    run: VecDeque<Request>,
    /// Submissions that arrived out of order.
    heap: BinaryHeap<Reverse<Keyed>>,
}

/// Heap entry ordered by the canonical request key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Keyed(Request);

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.order_key().cmp(&other.0.order_key())
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PendingSet {
    /// Adds `req`.
    pub(crate) fn push(&mut self, req: Request) {
        if self
            .run
            .back()
            .is_none_or(|back| back.order_key() <= req.order_key())
        {
            self.run.push_back(req);
        } else {
            self.heap.push(Reverse(Keyed(req)));
        }
    }

    /// Requests waiting.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether the least-keyed request sits at the head of the heap
    /// rather than the run; `None` when empty.
    fn head_in_heap(&self) -> Option<bool> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => Some(h.0.order_key() < r.order_key()),
            (Some(_), None) => Some(false),
            (None, h) => h.map(|_| true),
        }
    }

    /// The least-keyed request.
    fn peek(&self) -> Option<&Request> {
        if self.head_in_heap()? {
            self.heap.peek().map(|Reverse(h)| &h.0)
        } else {
            self.run.front()
        }
    }

    /// Arrival of the least-keyed request: the next admission instant.
    pub(crate) fn next_arrival_ps(&self) -> Option<Time> {
        self.peek().map(|r| r.arrival_ps)
    }

    /// Removes and returns the least-keyed request.
    pub(crate) fn pop(&mut self) -> Option<Request> {
        if self.head_in_heap()? {
            self.heap.pop().map(|Reverse(h)| h.0)
        } else {
            self.run.pop_front()
        }
    }

    /// Removes and returns the least-keyed request if it arrives at or
    /// before `t`.
    pub(crate) fn pop_due(&mut self, t: Time) -> Option<Request> {
        if self.next_arrival_ps()? > t {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freac_rand::Rng64;

    /// The single heap the set must pop identically to.
    #[derive(Default)]
    struct Model(BinaryHeap<Reverse<Keyed>>);

    impl Model {
        fn push(&mut self, req: Request) {
            self.0.push(Reverse(Keyed(req)));
        }

        fn pop(&mut self) -> Option<Request> {
            self.0.pop().map(|Reverse(k)| k.0)
        }

        fn next_arrival_ps(&self) -> Option<Time> {
            self.0.peek().map(|Reverse(k)| k.0.arrival_ps)
        }
    }

    fn req(tenant: &str, seq: u64, arrival: Time, retries: u32) -> Request {
        let mut r = Request::new(tenant, seq, "k", arrival, seq);
        r.retries = retries;
        r
    }

    /// Pushes `reqs` into both, then pops both dry, comparing every step.
    fn pops_like_the_model(reqs: Vec<Request>) {
        let mut set = PendingSet::default();
        let mut model = Model::default();
        for r in reqs {
            set.push(r.clone());
            model.push(r);
        }
        drain_against(&mut set, &mut model);
    }

    fn drain_against(set: &mut PendingSet, model: &mut Model) {
        loop {
            assert_eq!(set.len(), model.0.len());
            assert_eq!(set.next_arrival_ps(), model.next_arrival_ps());
            let (a, b) = (set.pop(), model.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn in_order_bulk_submission_stays_in_the_run() {
        let reqs: Vec<Request> = (0..200).map(|s| req("a", s, s * 10, 0)).collect();
        let mut set = PendingSet::default();
        for r in reqs.clone() {
            set.push(r);
        }
        assert!(
            set.heap.is_empty(),
            "an in-order trace never touches the heap"
        );
        pops_like_the_model(reqs);
    }

    #[test]
    fn out_of_order_pushes_pop_in_key_order() {
        let mut rng = Rng64::new(0x9e4d_11c0);
        for _ in 0..50 {
            let n = rng.range_u64(1, 300);
            let reqs: Vec<Request> = (0..n)
                .map(|s| {
                    let arrival = if rng.below(4) == 0 {
                        rng.below(n * 10)
                    } else {
                        s * 10
                    };
                    req("a", s, arrival, 0)
                })
                .collect();
            pops_like_the_model(reqs);
        }
    }

    #[test]
    fn arrival_ties_break_by_tenant_then_seq_then_retries() {
        let reqs = vec![
            req("b", 0, 5, 0),
            req("a", 2, 5, 0),
            req("a", 1, 5, 1),
            req("a", 1, 5, 0),
            req("c", 0, 4, 0),
            req("a", 0, 5, 3),
        ];
        let mut set = PendingSet::default();
        for r in reqs.clone() {
            set.push(r);
        }
        let order: Vec<(String, u64, u32)> = std::iter::from_fn(|| set.pop())
            .map(|r| (r.tenant, r.seq, r.retries))
            .collect();
        let expect = [
            ("c", 0, 0),
            ("a", 0, 3),
            ("a", 1, 0),
            ("a", 1, 1),
            ("a", 2, 0),
            ("b", 0, 0),
        ];
        assert!(order
            .iter()
            .map(|(t, s, r)| (t.as_str(), *s, *r))
            .eq(expect.iter().copied()));
        pops_like_the_model(reqs);
    }

    #[test]
    fn pushes_between_pops_match_the_model() {
        // A closed-loop hook submits follow-ups no earlier than the popped
        // arrival; a steal re-submits an arrival older than anything left.
        let mut rng = Rng64::new(0x5eed_c10d);
        for _ in 0..50 {
            let mut set = PendingSet::default();
            let mut model = Model::default();
            let mut seq = 0u64;
            let mut fresh = |arrival: Time| {
                seq += 1;
                let tenant = ["a", "b", "c"][(seq % 3) as usize];
                req(tenant, seq, arrival, (seq % 2) as u32)
            };
            for a in 0..rng.range_u64(1, 100) {
                let r = fresh(a * 7);
                set.push(r.clone());
                model.push(r);
            }
            for _ in 0..rng.range_u64(1, 400) {
                let popped = set.pop();
                assert_eq!(popped, model.pop());
                let Some(p) = popped else { break };
                assert_eq!(set.len(), model.0.len());
                assert_eq!(set.next_arrival_ps(), model.next_arrival_ps());
                let follow_up = match rng.below(4) {
                    0 => Some(fresh(p.arrival_ps + rng.below(50))),
                    1 => Some(fresh(rng.below(p.arrival_ps + 1))),
                    _ => None,
                };
                if let Some(r) = follow_up {
                    set.push(r.clone());
                    model.push(r);
                }
            }
            drain_against(&mut set, &mut model);
        }
    }

    #[test]
    fn pop_due_stops_at_the_bound() {
        let mut set = PendingSet::default();
        for s in 0..5 {
            set.push(req("a", s, s * 10, 0));
        }
        set.push(req("b", 9, 5, 0));
        let due: Vec<u64> = std::iter::from_fn(|| set.pop_due(20))
            .map(|r| r.seq)
            .collect();
        assert_eq!(due, vec![0, 9, 1, 2]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.next_arrival_ps(), Some(30));
    }
}
