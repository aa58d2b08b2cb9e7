//! The traced run's Chrome trace: benchmark-side spans in wall-clock ns
//! (set-up steps, run spans, strided replay spans) and a simulated-time
//! wait → reconfig → exec track per sampled completion, in simulated ps.

use std::path::Path;
use std::time::Instant;

use freac_probe::{to_chrome_trace, EventKind, ProbeEvent};
use freac_serve::Completion;

use crate::workload::Step;

/// Upper bound on the events one family of spans (replay, simulated
/// tracks) adds, so a million-request run still yields a loadable trace.
pub const MAX_EVENTS: usize = 20_000;

/// Completions sampled onto simulated-time tracks: every 64th, or
/// sparser when that would exceed [`MAX_EVENTS`].
pub fn sim_stride(completions: u64) -> u64 {
    64 * (completions * 6).div_ceil(64 * MAX_EVENTS as u64).max(1)
}

/// One sampled completion's simulated timeline.
#[derive(Debug, Clone)]
pub struct SimRecord {
    tenant: String,
    seq: u64,
    batch_id: u64,
    arrival_ps: u64,
    start_ps: u64,
    reconfig_ps: u64,
    done_ps: u64,
}

impl SimRecord {
    /// The timeline of `c`.
    pub fn of(c: &Completion) -> SimRecord {
        SimRecord {
            tenant: c.tenant.clone(),
            seq: c.seq,
            batch_id: c.batch_id,
            arrival_ps: c.arrival_ps,
            start_ps: c.start_ps,
            reconfig_ps: c.reconfig_ps,
            done_ps: c.done_ps,
        }
    }
}

/// Collects trace events when enabled; every method is a no-op
/// otherwise.
pub struct Tracer {
    epoch: Instant,
    events: Option<Vec<ProbeEvent>>,
}

impl Tracer {
    /// A tracer whose wall-clock ticks count from now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            events: enabled.then(Vec::new),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, kind: EventKind, t: u64, track: &str, name: &str, args: &[(&str, u64)]) {
        if let Some(events) = &mut self.events {
            let mut e = ProbeEvent::instant(t, track, name);
            e.kind = kind;
            for (k, v) in args {
                e = e.with(k, v);
            }
            events.push(e);
        }
    }

    /// Opens a wall-clock span at `t` on `track`.
    pub fn begin(&mut self, track: &str, name: &str, t: Instant, args: &[(&str, u64)]) {
        let ns = self.ns(t);
        self.push(EventKind::Begin, ns, track, name, args);
    }

    /// Closes the innermost open span on `track` at `t`.
    pub fn end(&mut self, track: &str, name: &str, t: Instant) {
        let ns = self.ns(t);
        self.push(EventKind::End, ns, track, name, &[]);
    }

    /// A closed wall-clock span.
    pub fn span(
        &mut self,
        track: &str,
        name: &str,
        start: Instant,
        end: Instant,
        args: &[(&str, u64)],
    ) {
        self.begin(track, name, start, args);
        self.end(track, name, end);
    }

    /// One span per set-up step.
    pub fn steps(&mut self, track: &str, steps: &[Step]) {
        for s in steps {
            self.span(track, s.name, s.start, s.end, &[]);
        }
    }

    /// A `wait`, `reconfig` and `exec` span per record, each record on a
    /// track of its own keyed by `(tenant, seq)`.
    pub fn sim_tracks(&mut self, records: &[SimRecord]) {
        for r in records {
            let track = format!("sim {}#{}", r.tenant, r.seq);
            let exec_start = r.start_ps + r.reconfig_ps;
            for (name, from, to) in [
                ("wait", r.arrival_ps, r.start_ps),
                ("reconfig", r.start_ps, exec_start),
                ("exec", exec_start, r.done_ps),
            ] {
                self.push(
                    EventKind::Begin,
                    from,
                    &track,
                    name,
                    &[("batch_id", r.batch_id)],
                );
                self.push(EventKind::End, to, &track, name, &[]);
            }
        }
    }

    /// Writes the collected events as Chrome-trace JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let events = self.events.as_deref().unwrap_or_default();
        std::fs::write(path, to_chrome_trace(events))
    }
}
