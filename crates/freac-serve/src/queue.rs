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
/// Requests are numbered by an admission stamp, and every indexed view —
/// [`iter`](Self::iter), [`get`](Self::get), [`remove_at`](Self::remove_at),
/// the scheduler's `oldest`/`oldest_of` — answers in admission order, so
/// index 0 is the first admitted request. The engine admits from a
/// pending set ordered by [`Request::order_key`], so the queue is
/// *usually* sorted by that key — but not always: a request re-admitted
/// out of order (a steal into this shard via `Server::submit_stolen` of
/// an arrival older than what is queued here, or a submission between
/// bounded runs) lands at the back. The queue tracks this in a `sorted`
/// flag, which stays `false` from the first out-of-order admit until the
/// queue next empties.
///
/// Batchable and exclusive requests live in two stores, each a deque in
/// stamp order, merged by stamp wherever admission order is asked for. A
/// batch drain pops batchables only, so exclusives waiting at the head
/// cost it nothing.
///
/// The scheduler asks each queue for its oldest request, or for one
/// tenant's oldest, and gets an exact answer either way: from the heads
/// or a per-tenant index of admission stamps when the queue is sorted
/// (O(log n)), by a full scan when it is not.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    depth: usize,
    /// Queued batchable requests with their admission stamps, stamps
    /// strictly ascending from front to back.
    batchable: VecDeque<(u64, Request)>,
    /// Queued exclusive requests, in the same form.
    exclusive: VecDeque<(u64, Request)>,
    next_stamp: u64,
    /// Whether the queue, in admission order, is ascending by
    /// [`Request::order_key`].
    sorted: bool,
    /// Per tenant name, the stamps of its queued requests (both stores)
    /// in ascending order. Entries are never removed, so once a tenant
    /// has been seen its bookkeeping reuses the same allocation.
    tenants: Vec<(String, VecDeque<u64>)>,
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
            batchable: VecDeque::new(),
            exclusive: VecDeque::new(),
            next_stamp: 0,
            sorted: true,
            tenants: Vec::new(),
        }
    }

    /// Configured bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.batchable.len() + self.exclusive.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.batchable.is_empty() && self.exclusive.is_empty()
    }

    /// Whether the queued requests are in ascending
    /// [`Request::order_key`] order, so index 0 is the oldest.
    #[cfg(test)]
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Queued requests in admission order (oldest-first when sorted).
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.entries().map(|(_, r)| r)
    }

    /// Both stores merged into admission order, with stamps.
    fn entries(&self) -> impl Iterator<Item = &(u64, Request)> {
        let mut batchable = self.batchable.iter().peekable();
        let mut exclusive = self.exclusive.iter().peekable();
        std::iter::from_fn(move || match (batchable.peek(), exclusive.peek()) {
            (Some(b), Some(e)) if e.0 < b.0 => exclusive.next(),
            (Some(_), _) => batchable.next(),
            (None, _) => exclusive.next(),
        })
    }

    /// The request at `idx` (0 = first admitted).
    pub fn get(&self, idx: usize) -> Option<&Request> {
        let (exclusive, pos) = self.locate(idx)?;
        Some(&self.store(exclusive)[pos].1)
    }

    /// Tenants with at least one queued request, in first-seen order.
    pub(crate) fn queued_tenants(&self) -> impl Iterator<Item = &str> {
        self.tenants
            .iter()
            .filter(|(_, stamps)| !stamps.is_empty())
            .map(|(t, _)| t.as_str())
    }

    /// Index of the queued request with the least [`Request::order_key`]:
    /// the first admitted of a sorted queue, a full scan of an unsorted
    /// one.
    pub fn oldest(&self) -> Option<usize> {
        if self.sorted {
            (!self.is_empty()).then_some(0)
        } else {
            self.min_index(|_| true)
        }
    }

    /// Index of `tenant`'s queued request with the least
    /// [`Request::order_key`]: in a sorted queue its first-admitted one,
    /// found through the stamp index; a full scan otherwise.
    pub fn oldest_of(&self, tenant: &str) -> Option<usize> {
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

    fn store(&self, exclusive: bool) -> &VecDeque<(u64, Request)> {
        if exclusive {
            &self.exclusive
        } else {
            &self.batchable
        }
    }

    fn store_mut(&mut self, exclusive: bool) -> &mut VecDeque<(u64, Request)> {
        if exclusive {
            &mut self.exclusive
        } else {
            &mut self.batchable
        }
    }

    /// Whether the store holding the first-admitted (`newest == false`)
    /// or last-admitted request is the exclusive one; `None` when empty.
    fn end_store(&self, newest: bool) -> Option<bool> {
        let end = |q: &VecDeque<(u64, Request)>| {
            if newest { q.back() } else { q.front() }.map(|(s, _)| *s)
        };
        match (end(&self.batchable), end(&self.exclusive)) {
            (Some(b), Some(e)) => Some((e > b) == newest),
            (Some(_), None) => Some(false),
            (None, Some(_)) => Some(true),
            (None, None) => None,
        }
    }

    /// The store and position of the request at admission-order `idx`.
    fn locate(&self, idx: usize) -> Option<(bool, usize)> {
        if idx == 0 {
            return self.end_store(false).map(|exclusive| (exclusive, 0));
        }
        if idx >= self.len() {
            return None;
        }
        // Exclusive `j` sits at index `j` + the batchables admitted before
        // it, which grows with `j`: count the exclusives at or before `idx`.
        let index_of_exclusive = |j: usize| {
            let stamp = self.exclusive[j].0;
            j + self.batchable.partition_point(|(s, _)| *s < stamp)
        };
        let (mut lo, mut hi) = (0, self.exclusive.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if index_of_exclusive(mid) <= idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo > 0 && index_of_exclusive(lo - 1) == idx {
            Some((true, lo - 1))
        } else {
            Some((false, idx - lo))
        }
    }

    /// Admission-order index of the queued request stamped `stamp`.
    fn index_of(&self, stamp: u64) -> usize {
        let (pos, other) = match self.batchable.binary_search_by_key(&stamp, |(s, _)| *s) {
            Ok(pos) => (pos, &self.exclusive),
            Err(_) => (
                self.exclusive
                    .binary_search_by_key(&stamp, |(s, _)| *s)
                    .expect("indexed stamp is queued"),
                &self.batchable,
            ),
        };
        pos + other.partition_point(|(s, _)| *s < stamp)
    }

    /// Offers `req`; applies `policy` when full.
    pub fn admit(&mut self, req: Request, policy: ShedPolicy) -> AdmitResult {
        if self.len() < self.depth {
            self.push_back(req);
            return AdmitResult::Admitted;
        }
        match policy {
            ShedPolicy::RejectNew => AdmitResult::Rejected(req),
            ShedPolicy::DropOldest => {
                let victim = self.pop_end(false).expect("full queue is non-empty");
                self.push_back(req);
                AdmitResult::Displaced(victim)
            }
        }
    }

    fn push_back(&mut self, req: Request) {
        let back = self
            .end_store(true)
            .and_then(|exclusive| self.store(exclusive).back());
        if back.is_some_and(|(_, back)| req.order_key() < back.order_key()) {
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
        self.store_mut(req.exclusive).push_back((stamp, req));
    }

    /// Drops a request that just left its store from the stamp index.
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
        if self.is_empty() {
            self.sorted = true;
        }
        req
    }

    /// Removes the first-admitted (`newest == false`) or last-admitted
    /// request.
    fn pop_end(&mut self, newest: bool) -> Option<Request> {
        let store = self.store_mut(self.end_store(newest)?);
        let item = if newest {
            store.pop_back()
        } else {
            store.pop_front()
        }
        .expect("end store is non-empty");
        Some(self.note_removed(item))
    }

    /// Removes and returns the request at `idx`, preserving the order of
    /// the rest.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove_at(&mut self, idx: usize) -> Request {
        let (exclusive, pos) = self.locate(idx).expect("index in range");
        let item = self
            .store_mut(exclusive)
            .remove(pos)
            .expect("located position is queued");
        self.note_removed(item)
    }

    /// Removes and returns the last-admitted request — the work-stealing
    /// victim, chosen to disturb the head-of-line service order least.
    pub fn pop_newest(&mut self) -> Option<Request> {
        self.pop_end(true)
    }

    /// Removes up to `cap` batchable requests in admission order,
    /// appending them to `batch`; every request left behind keeps its
    /// relative order. Exclusives sit in their own store, so the cost is
    /// one pop and one stamp-index update per request taken, however deep
    /// the queue and however many exclusives wait in it — the coalescer
    /// calls this once per dispatch instead of one `remove_at` per
    /// companion.
    pub fn drain_batchable_into(&mut self, cap: usize, batch: &mut Vec<Request>) {
        for _ in 0..cap {
            let Some(item) = self.batchable.pop_front() else {
                break;
            };
            batch.push(self.note_removed(item));
        }
    }

    /// Rebuilds the bookkeeping from scratch and asserts it matches.
    #[cfg(test)]
    pub(crate) fn assert_bookkeeping(&self) {
        for exclusive in [false, true] {
            let store = self.store(exclusive);
            assert!(
                store.iter().all(|(_, r)| r.exclusive == exclusive),
                "the exclusive={exclusive} store holds only its own kind"
            );
            assert!(
                store
                    .iter()
                    .zip(store.iter().skip(1))
                    .all(|(a, b)| a.0 < b.0),
                "stamps ascend in the exclusive={exclusive} store"
            );
        }
        assert!(
            self.entries()
                .zip(self.entries().skip(1))
                .all(|(a, b)| a.0 < b.0),
            "stamps ascend in merged admission order"
        );
        assert_eq!(
            self.entries().count(),
            self.len(),
            "merge covers both stores"
        );
        // Every index of a short queue, an even sample of a deep one.
        let stride = self.len() / 64 + 1;
        for (idx, (stamp, r)) in self.entries().enumerate().step_by(stride) {
            assert_eq!(self.get(idx), Some(r), "get({idx}) is the merged entry");
            assert_eq!(self.index_of(*stamp), idx, "stamp {stamp} indexes to {idx}");
        }
        assert_eq!(self.get(self.len()), None, "get past the end");
        for (tenant, stamps) in &self.tenants {
            let queued: Vec<u64> = self
                .entries()
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
            self.len(),
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
        if self.is_empty() {
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
