//! Bounded per-kernel admission queues with explicit shed policies.

use std::collections::VecDeque;

use crate::request::Request;

/// What to do when a request arrives at a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the arriving request (classic tail drop). Favors requests
    /// already accepted — latency of queued work is unaffected.
    RejectNew,
    /// Admit the arrival and shed the oldest queued request instead.
    /// Favors fresh traffic — bounds staleness under sustained overload.
    DropOldest,
}

/// Result of offering a request to a queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitResult {
    /// Accepted; queue had room.
    Admitted,
    /// Accepted, displacing the returned oldest request
    /// ([`ShedPolicy::DropOldest`]).
    Displaced(Request),
    /// Refused; the returned request bounced ([`ShedPolicy::RejectNew`]).
    Rejected(Request),
}

/// A bounded FIFO of requests for one kernel.
///
/// Requests are kept in admission order. The engine admits from a pending
/// heap keyed by [`Request::order_key`], so the queue is *usually* sorted
/// by that key with index 0 the oldest — but not always: a request
/// re-admitted out of order (a steal into this shard via
/// `Server::submit_stolen` of an arrival older than what is queued here,
/// or a submission between bounded runs) lands at the back. The queue
/// tracks this in a `sorted` flag, which stays `false` from the first
/// out-of-order admit until the queue next empties.
///
/// The scheduler asks each queue for its oldest request, or for one
/// tenant's oldest, and gets an exact answer either way: from the head
/// or a per-tenant index of admission stamps when the queue is sorted
/// (O(log n)), by a full scan when it is not.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    depth: usize,
    /// Queued requests with their admission stamps. Every operation keeps
    /// admission order, so stamps strictly increase from front to back.
    items: VecDeque<(u64, Request)>,
    next_stamp: u64,
    /// Whether `items` is ascending by [`Request::order_key`].
    sorted: bool,
    /// Per tenant name, the stamps of its queued requests in ascending
    /// order. Entries are never removed, so once a tenant has been seen
    /// its bookkeeping reuses the same allocation.
    tenants: Vec<(String, VecDeque<u64>)>,
    /// Exclusives skipped by a drain, parked until they return to the
    /// front (kept to reuse its allocation).
    skipped: Vec<(u64, Request)>,
}

impl AdmissionQueue {
    /// A queue holding at most `depth` requests (`depth >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — a zero-depth queue could never serve.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "admission queue depth must be at least 1");
        AdmissionQueue {
            depth,
            items: VecDeque::new(),
            next_stamp: 0,
            sorted: true,
            tenants: Vec::new(),
            skipped: Vec::new(),
        }
    }

    /// Configured bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queued requests are in ascending
    /// [`Request::order_key`] order, so index 0 is the oldest.
    #[cfg(test)]
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Queued requests in admission order (oldest-first when sorted).
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.items.iter().map(|(_, r)| r)
    }

    /// The request at `idx` (0 = first admitted).
    pub fn get(&self, idx: usize) -> Option<&Request> {
        self.items.get(idx).map(|(_, r)| r)
    }

    /// Tenants with at least one queued request, in first-seen order.
    pub(crate) fn queued_tenants(&self) -> impl Iterator<Item = &str> {
        self.tenants
            .iter()
            .filter(|(_, stamps)| !stamps.is_empty())
            .map(|(t, _)| t.as_str())
    }

    /// Index of the queued request with the least [`Request::order_key`]:
    /// the head of a sorted queue, a full scan of an unsorted one.
    pub(crate) fn oldest(&self) -> Option<usize> {
        if self.sorted {
            (!self.is_empty()).then_some(0)
        } else {
            self.min_index(|_| true)
        }
    }

    /// Index of `tenant`'s queued request with the least
    /// [`Request::order_key`]: in a sorted queue its first-admitted one,
    /// found through the stamp index; a full scan otherwise.
    pub(crate) fn oldest_of(&self, tenant: &str) -> Option<usize> {
        let first = *self.stamps_of(tenant)?.front()?;
        if self.sorted {
            Some(self.index_of(first))
        } else {
            self.min_index(|r| r.tenant == tenant)
        }
    }

    fn min_index(&self, keep: impl Fn(&Request) -> bool) -> Option<usize> {
        self.iter()
            .enumerate()
            .filter(|(_, r)| keep(r))
            .min_by_key(|(_, r)| r.order_key())
            .map(|(i, _)| i)
    }

    fn stamps_of(&self, tenant: &str) -> Option<&VecDeque<u64>> {
        self.tenants
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, stamps)| stamps)
    }

    fn index_of(&self, stamp: u64) -> usize {
        self.items
            .binary_search_by_key(&stamp, |(s, _)| *s)
            .expect("indexed stamp is queued")
    }

    /// Offers `req`; applies `policy` when full.
    pub fn admit(&mut self, req: Request, policy: ShedPolicy) -> AdmitResult {
        if self.items.len() < self.depth {
            self.push_back(req);
            return AdmitResult::Admitted;
        }
        match policy {
            ShedPolicy::RejectNew => AdmitResult::Rejected(req),
            ShedPolicy::DropOldest => {
                let victim = self.items.pop_front().expect("full queue is non-empty");
                let victim = self.note_removed(victim);
                self.push_back(req);
                AdmitResult::Displaced(victim)
            }
        }
    }

    fn push_back(&mut self, req: Request) {
        if self
            .items
            .back()
            .is_some_and(|(_, back)| req.order_key() < back.order_key())
        {
            self.sorted = false;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        match self.tenants.iter_mut().find(|(t, _)| *t == req.tenant) {
            Some((_, stamps)) => stamps.push_back(stamp),
            None => self
                .tenants
                .push((req.tenant.clone(), VecDeque::from([stamp]))),
        }
        self.items.push_back((stamp, req));
    }

    /// Drops a request that just left `items` from the stamp index.
    fn note_removed(&mut self, (stamp, req): (u64, Request)) -> Request {
        let stamps = self
            .tenants
            .iter_mut()
            .find(|(t, _)| *t == req.tenant)
            .map(|(_, stamps)| stamps)
            .expect("queued tenant is indexed");
        let pos = stamps
            .binary_search(&stamp)
            .expect("queued stamp is indexed");
        stamps.remove(pos);
        // Mid-drain, parked exclusives are still queued: only a truly
        // empty queue is sorted by definition.
        if self.items.is_empty() && self.skipped.is_empty() {
            self.sorted = true;
        }
        req
    }

    /// Removes and returns the request at `idx`, preserving the order of
    /// the rest.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove_at(&mut self, idx: usize) -> Request {
        let item = self.items.remove(idx).expect("index in range");
        self.note_removed(item)
    }

    /// Removes and returns the last-admitted request — the work-stealing
    /// victim, chosen to disturb the head-of-line service order least.
    pub fn pop_newest(&mut self) -> Option<Request> {
        let item = self.items.pop_back()?;
        Some(self.note_removed(item))
    }

    /// Removes up to `cap` non-exclusive requests front-first, appending
    /// them to `batch`; every request left behind (exclusives, and the
    /// overflow past `cap`) keeps its relative order. Drains in place:
    /// the cost is the prefix taken plus the exclusives skipped inside
    /// it, independent of queue length — the coalescer calls this once
    /// per dispatch instead of one `remove_at` per companion.
    pub fn drain_batchable_into(&mut self, cap: usize, batch: &mut Vec<Request>) {
        let mut taken = 0usize;
        while taken < cap {
            let Some(item) = self.items.pop_front() else {
                break;
            };
            if item.1.exclusive {
                self.skipped.push(item);
            } else {
                batch.push(self.note_removed(item));
                taken += 1;
            }
        }
        while let Some(item) = self.skipped.pop() {
            self.items.push_front(item);
        }
    }

    /// Rebuilds the bookkeeping from scratch and asserts it matches.
    #[cfg(test)]
    pub(crate) fn assert_bookkeeping(&self) {
        assert!(self.skipped.is_empty());
        assert!(
            self.items
                .iter()
                .zip(self.items.iter().skip(1))
                .all(|(a, b)| a.0 < b.0),
            "stamps ascend in admission order"
        );
        for (tenant, stamps) in &self.tenants {
            let queued: Vec<u64> = self
                .items
                .iter()
                .filter(|(_, r)| r.tenant == *tenant)
                .map(|(s, _)| *s)
                .collect();
            assert!(
                stamps.iter().eq(queued.iter()),
                "stamp index of tenant {tenant}"
            );
        }
        assert_eq!(
            self.tenants.iter().map(|(_, s)| s.len()).sum::<usize>(),
            self.items.len(),
            "every queued request is indexed"
        );
        if self.sorted {
            assert!(
                self.iter()
                    .zip(self.iter().skip(1))
                    .all(|(a, b)| a.order_key() <= b.order_key()),
                "queue flagged sorted is out of order"
            );
        }
        if self.items.is_empty() {
            assert!(self.sorted, "an empty queue is sorted");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seq: u64, arrival: u64) -> Request {
        Request::new("t", seq, "k", arrival, 0)
    }

    #[test]
    fn reject_new_bounces_the_arrival() {
        let mut q = AdmissionQueue::new(2);
        assert_eq!(
            q.admit(req(0, 0), ShedPolicy::RejectNew),
            AdmitResult::Admitted
        );
        assert_eq!(
            q.admit(req(1, 1), ShedPolicy::RejectNew),
            AdmitResult::Admitted
        );
        match q.admit(req(2, 2), ShedPolicy::RejectNew) {
            AdmitResult::Rejected(r) => assert_eq!(r.seq, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(0).unwrap().seq, 0);
    }

    #[test]
    fn drop_oldest_displaces_the_head() {
        let mut q = AdmissionQueue::new(2);
        q.admit(req(0, 0), ShedPolicy::DropOldest);
        q.admit(req(1, 1), ShedPolicy::DropOldest);
        match q.admit(req(2, 2), ShedPolicy::DropOldest) {
            AdmitResult::Displaced(victim) => assert_eq!(victim.seq, 0),
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(0).unwrap().seq, 1);
        assert_eq!(q.get(1).unwrap().seq, 2);
    }

    #[test]
    fn remove_at_preserves_order() {
        let mut q = AdmissionQueue::new(8);
        for s in 0..4 {
            q.admit(req(s, s), ShedPolicy::RejectNew);
        }
        let taken = q.remove_at(1);
        assert_eq!(taken.seq, 1);
        let rest: Vec<u64> = q.iter().map(|r| r.seq).collect();
        assert_eq!(rest, vec![0, 2, 3]);
    }

    #[test]
    fn pop_newest_takes_the_back() {
        let mut q = AdmissionQueue::new(8);
        for s in 0..3 {
            q.admit(req(s, s), ShedPolicy::RejectNew);
        }
        assert_eq!(q.pop_newest().unwrap().seq, 2);
        assert_eq!(q.pop_newest().unwrap().seq, 1);
        let rest: Vec<u64> = q.iter().map(|r| r.seq).collect();
        assert_eq!(rest, vec![0]);
        q.pop_newest();
        assert!(q.pop_newest().is_none());
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_is_rejected() {
        AdmissionQueue::new(0);
    }
}
