//! Requests, completions, and sheds — the vocabulary of the serving loop.

use freac_sim::Time;

/// One kernel-invocation request from a tenant.
///
/// `(tenant, seq, retries)` identifies a submission uniquely; a retry of a
/// shed request keeps its `seq` and bumps `retries`. All times are
/// simulated picoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Submitting tenant (must be registered on the server).
    pub tenant: String,
    /// Tenant-local sequence number.
    pub seq: u64,
    /// Registered kernel this request invokes.
    pub kernel: String,
    /// When the request reaches the server.
    pub arrival_ps: Time,
    /// Absolute completion deadline, if any (consumed by the
    /// deadline-aware scheduler and reported as `deadline_met`).
    pub deadline_ps: Option<Time>,
    /// Demands single-lane folded execution: the request streams into the
    /// accelerator's live register state, so it cannot share a batch with
    /// fresh-start invocations.
    pub exclusive: bool,
    /// Seed from which the request's input vector is synthesized.
    pub seed: u64,
    /// How many times this request has been shed and resubmitted.
    pub retries: u32,
    /// Global scratchpad address the request intends to touch, if it
    /// declares one. Checked at admission against the submitting tenant's
    /// TLB segment; an out-of-segment address faults deterministically and
    /// sheds with [`ShedReason::TlbFault`].
    pub spad_addr: Option<u64>,
}

impl Request {
    /// A plain request with no deadline, batchable, no retries.
    pub fn new(tenant: &str, seq: u64, kernel: &str, arrival_ps: Time, seed: u64) -> Self {
        Request {
            tenant: tenant.to_owned(),
            seq,
            kernel: kernel.to_owned(),
            arrival_ps,
            deadline_ps: None,
            exclusive: false,
            seed,
            retries: 0,
            spad_addr: None,
        }
    }

    /// The same request, declaring the global scratchpad address it will
    /// touch (admission checks it against the tenant's TLB segment).
    #[must_use]
    pub fn with_spad_addr(mut self, addr: u64) -> Self {
        self.spad_addr = Some(addr);
        self
    }

    /// The canonical ordering key: arrival time first, then tenant name,
    /// sequence number, and retry count. Every queue and the pending set
    /// order by this key, which is what makes the schedule independent of
    /// tenant enumeration and submission order.
    pub fn order_key(&self) -> (Time, &str, u64, u32) {
        (self.arrival_ps, &self.tenant, self.seq, self.retries)
    }
}

/// A finished request with its full latency breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Submitting tenant.
    pub tenant: String,
    /// Tenant-local sequence number.
    pub seq: u64,
    /// Kernel that ran.
    pub kernel: String,
    /// When the request arrived.
    pub arrival_ps: Time,
    /// When its batch was dispatched to a slice (end of queue wait).
    pub start_ps: Time,
    /// When execution finished.
    pub done_ps: Time,
    /// Reconfiguration time charged to this batch (0 when the kernel was
    /// already resident on the slice).
    pub reconfig_ps: Time,
    /// Fold-execution time of the batch.
    pub exec_ps: Time,
    /// Dispatch this completion rode in (shared by its whole batch).
    pub batch_id: u64,
    /// Lanes occupied by the batch (1 for single-lane folded execution).
    pub lanes: usize,
    /// Slice that executed the batch.
    pub slice: usize,
    /// FNV-1a hash of the primary outputs after the functional run —
    /// deterministic for a given (kernel, seed), and what the load
    /// generator's sampled verification replays against the reference
    /// evaluator. Valid only in a report: the functional phase of
    /// [`crate::Server::report`] computes it, so a completion shown to a
    /// run hook still carries `0`.
    pub output_hash: u64,
    /// The request's input seed (kept for verification replay).
    pub seed: u64,
    /// Whether the deadline was met, when one was set.
    pub deadline_met: Option<bool>,
}

impl Completion {
    /// End-to-end latency: arrival to completion.
    pub fn latency_ps(&self) -> Time {
        self.done_ps - self.arrival_ps
    }

    /// Time spent queued before dispatch.
    pub fn queue_wait_ps(&self) -> Time {
        self.start_ps - self.arrival_ps
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Its kernel queue was full under [`crate::queue::ShedPolicy::RejectNew`].
    QueueFull,
    /// It was the oldest queued request when a newer one arrived under
    /// [`crate::queue::ShedPolicy::DropOldest`].
    Displaced,
    /// The cluster's global admission budget was exhausted, so the router
    /// refused it before any shard queue saw it.
    ClusterBudget,
    /// Its declared scratchpad address fell outside the submitting
    /// tenant's TLB segment — a cross-tenant access, refused at admission
    /// before it could read another tenant's operands.
    TlbFault,
}

/// A request the server refused (backpressure). The closed-loop driver may
/// resubmit it with `retries + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shed {
    /// The refused request, unmodified.
    pub request: Request,
    /// When the shed happened.
    pub at_ps: Time,
    /// Which policy path shed it.
    pub reason: ShedReason,
}

/// One terminal event of the serving loop, fed to the run hook so a
/// closed-loop driver can react (issue the next request, retry a shed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A request finished executing. The hook sees its timing and
    /// placement; its `output_hash` is still `0` until the report's
    /// functional phase fills it in.
    Completed(Completion),
    /// A request was refused.
    Shed(Shed),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_breakdown_is_consistent() {
        let c = Completion {
            tenant: "t".into(),
            seq: 0,
            kernel: "k".into(),
            arrival_ps: 100,
            start_ps: 250,
            done_ps: 400,
            reconfig_ps: 50,
            exec_ps: 100,
            batch_id: 0,
            lanes: 4,
            slice: 0,
            output_hash: 0,
            seed: 0,
            deadline_met: None,
        };
        assert_eq!(c.latency_ps(), 300);
        assert_eq!(c.queue_wait_ps(), 150);
        assert_eq!(
            c.latency_ps(),
            c.queue_wait_ps() + c.reconfig_ps + c.exec_ps
        );
    }

    #[test]
    fn order_key_sorts_by_arrival_then_identity() {
        let a = Request::new("a", 5, "k", 10, 0);
        let b = Request::new("b", 0, "k", 10, 0);
        let c = Request::new("a", 0, "k", 9, 0);
        assert!(c.order_key() < a.order_key());
        assert!(a.order_key() < b.order_key());
        let mut retry = a.clone();
        retry.retries = 1;
        assert!(a.order_key() < retry.order_key());
    }
}
