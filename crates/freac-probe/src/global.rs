//! The process-wide probe, gated by `FREAC_TRACE` / `FREAC_METRICS`.
//!
//! When neither variable is set (the normal case), [`global`] is `None`
//! and every hook in the stack is a single branch on an `Option` — no
//! locks, no allocation, no I/O. When either is set, components merge
//! what each run recorded and push trace events here, and the harness
//! writes the output files at exit via [`finish`]. A component that
//! reports more than once (a serving server or cluster) merges only what
//! it recorded since its previous report, so every count arrives once.
//!
//! Variable values: unset, empty, or `0` disable; `1` enables with the
//! default output path (`freac-trace.json` / `freac-metrics.json` in the
//! working directory); any other value is used as the output path.
//! `FREAC_TRACE_EVENTS` overrides the event-ring capacity.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::chrome::to_chrome_trace;
use crate::events::{EventKind, EventRing, ProbeEvent};
use crate::metrics::{to_counters_json, to_metrics_json};
use crate::registry::CounterRegistry;

/// Environment variable enabling Chrome-trace event capture.
pub const TRACE_ENV: &str = "FREAC_TRACE";
/// Environment variable enabling metrics capture.
pub const METRICS_ENV: &str = "FREAC_METRICS";
/// Environment variable overriding the event-ring capacity.
pub const TRACE_EVENTS_ENV: &str = "FREAC_TRACE_EVENTS";

/// Default bounded-ring capacity (events retained).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Resolved output configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Chrome-trace output path (`None`: tracing off).
    pub trace_path: Option<PathBuf>,
    /// `metrics.json` output path (`None`: default, when any capture is
    /// on).
    pub metrics_path: PathBuf,
    /// Event-ring capacity.
    pub ring_capacity: usize,
}

impl ProbeConfig {
    /// Reads `FREAC_TRACE` / `FREAC_METRICS`; `None` when both are off.
    pub fn from_env() -> Option<Self> {
        let trace = path_from_env(TRACE_ENV, "freac-trace.json");
        let metrics = path_from_env(METRICS_ENV, "freac-metrics.json");
        if trace.is_none() && metrics.is_none() {
            return None;
        }
        let ring_capacity = std::env::var(TRACE_EVENTS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY);
        Some(ProbeConfig {
            trace_path: trace,
            metrics_path: metrics.unwrap_or_else(|| PathBuf::from("freac-metrics.json")),
            ring_capacity,
        })
    }

    /// The deterministic-counters sidecar path: the metrics file name
    /// with `metrics` replaced by `counters` (or `.counters.json`
    /// appended when the name contains no `metrics`).
    pub fn counters_path(&self) -> PathBuf {
        let name = self
            .metrics_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("freac-metrics.json");
        let sidecar = if name.contains("metrics") {
            name.replacen("metrics", "counters", 1)
        } else {
            format!("{name}.counters.json")
        };
        self.metrics_path.with_file_name(sidecar)
    }
}

fn path_from_env(var: &str, default: &str) -> Option<PathBuf> {
    match std::env::var(var) {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Some(PathBuf::from(default)),
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => None,
    }
}

/// A live capture session: merged counters plus the event ring.
#[derive(Debug)]
pub struct Probe {
    config: ProbeConfig,
    origin: Instant,
    counters: Mutex<CounterRegistry>,
    ring: Mutex<EventRing>,
}

impl Probe {
    /// A probe with explicit configuration (tests; [`global`] builds the
    /// env-configured one).
    pub fn new(config: ProbeConfig) -> Self {
        let ring = EventRing::new(config.ring_capacity);
        Probe {
            config,
            origin: Instant::now(),
            counters: Mutex::new(CounterRegistry::new()),
            ring: Mutex::new(ring),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ProbeConfig {
        &self.config
    }

    /// Whether event capture is on (`FREAC_TRACE`).
    pub fn tracing(&self) -> bool {
        self.config.trace_path.is_some()
    }

    /// Wall-clock nanoseconds since the probe was created — the tick
    /// base for harness tracks.
    pub fn wall_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Folds a per-run registry into the process totals.
    pub fn merge(&self, reg: &CounterRegistry) {
        self.counters
            .lock()
            .expect("probe counters poisoned")
            .merge(reg);
    }

    /// Adds to one process-wide counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.counters
            .lock()
            .expect("probe counters poisoned")
            .add(name, delta);
    }

    /// Raises one process-wide gauge to `value` if larger.
    pub fn gauge_max(&self, name: &str, value: f64) {
        self.counters
            .lock()
            .expect("probe counters poisoned")
            .gauge_max(name, value);
    }

    /// Records into one process-wide histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.counters
            .lock()
            .expect("probe counters poisoned")
            .observe(name, value);
    }

    /// Pushes an event (no-op unless tracing).
    pub fn emit(&self, event: ProbeEvent) {
        if self.tracing() {
            self.ring.lock().expect("probe ring poisoned").push(event);
        }
    }

    /// Opens a wall-clock span on `component`; the guard emits the
    /// matching end event on drop.
    pub fn span<'a>(&'a self, component: &str, name: &str) -> SpanGuard<'a> {
        let mut begin = ProbeEvent::instant(self.wall_ns(), component, name);
        begin.kind = EventKind::Begin;
        self.emit(begin);
        SpanGuard {
            probe: self,
            component: component.to_owned(),
            name: name.to_owned(),
            start_ns: self.wall_ns(),
        }
    }

    /// A snapshot of the merged counters.
    pub fn snapshot(&self) -> CounterRegistry {
        self.counters
            .lock()
            .expect("probe counters poisoned")
            .clone()
    }

    /// Renders the current ring as Chrome-trace JSON.
    pub fn chrome_trace(&self) -> String {
        let ring = self.ring.lock().expect("probe ring poisoned");
        to_chrome_trace(ring.iter())
    }

    /// Events dropped by the bounded ring so far.
    pub fn events_dropped(&self) -> u64 {
        self.ring.lock().expect("probe ring poisoned").dropped()
    }

    /// Writes the configured output files (`metrics.json`, the counters
    /// sidecar, and the Chrome trace when tracing) and returns their
    /// paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_files(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        let snapshot = {
            let mut counters = self.counters.lock().expect("probe counters poisoned");
            counters.add("probe.events_dropped", self.events_dropped());
            counters.clone()
        };
        write_atomic(&self.config.metrics_path, &to_metrics_json(&snapshot))?;
        written.push(self.config.metrics_path.clone());
        let counters_path = self.config.counters_path();
        write_atomic(&counters_path, &to_counters_json(&snapshot))?;
        written.push(counters_path);
        if let Some(trace_path) = &self.config.trace_path {
            write_atomic(trace_path, &self.chrome_trace())?;
            written.push(trace_path.clone());
        }
        Ok(written)
    }
}

fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// RAII wall-clock span; emits the end event and a duration histogram
/// entry on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    probe: &'a Probe,
    component: String,
    name: String,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.probe.wall_ns();
        self.probe.observe(
            &format!("{}.{}.wall_us", self.component, self.name),
            (now - self.start_ns) / 1_000,
        );
        let mut end = ProbeEvent::instant(now, &self.component, &self.name);
        end.kind = EventKind::End;
        self.probe.emit(end);
    }
}

static GLOBAL: OnceLock<Option<Probe>> = OnceLock::new();

/// The process-wide probe: `Some` iff `FREAC_TRACE` or `FREAC_METRICS`
/// enabled capture at first use. The disabled fast path is one atomic
/// load plus a branch.
pub fn global() -> Option<&'static Probe> {
    GLOBAL
        .get_or_init(|| ProbeConfig::from_env().map(Probe::new))
        .as_ref()
}

/// Whether any capture is active.
pub fn enabled() -> bool {
    global().is_some()
}

/// Whether event tracing is active — check before constructing an event
/// so the disabled path allocates nothing.
pub fn tracing() -> bool {
    global().is_some_and(Probe::tracing)
}

/// Merges a per-run registry into the global probe, if active.
pub fn merge(reg: &CounterRegistry) {
    if let Some(p) = global() {
        p.merge(reg);
    }
}

/// Emits one event to the global probe, if tracing.
pub fn emit(event: ProbeEvent) {
    if let Some(p) = global() {
        p.emit(event);
    }
}

/// Writes the configured output files from the global probe, if active.
/// Returns the written paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn finish() -> std::io::Result<Option<Vec<PathBuf>>> {
    match global() {
        Some(p) => p.write_files().map(Some),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_config(tag: &str) -> ProbeConfig {
        let dir = std::env::temp_dir().join(format!("freac-probe-{}-{tag}", std::process::id()));
        ProbeConfig {
            trace_path: Some(dir.join("freac-trace.json")),
            metrics_path: dir.join("freac-metrics.json"),
            ring_capacity: 64,
        }
    }

    #[test]
    fn counters_sidecar_path_derivation() {
        let c = temp_config("sidecar");
        assert!(c
            .counters_path()
            .to_string_lossy()
            .ends_with("freac-counters.json"));
        let odd = ProbeConfig {
            trace_path: None,
            metrics_path: PathBuf::from("out.json"),
            ring_capacity: 1,
        };
        assert_eq!(odd.counters_path(), PathBuf::from("out.json.counters.json"));
    }

    #[test]
    fn span_emits_balanced_events_and_duration() {
        let p = Probe::new(temp_config("span"));
        {
            let _g = p.span("harness", "fig");
        }
        let trace = p.chrome_trace();
        let v = crate::json::Json::parse(&trace).unwrap();
        let phases: Vec<_> = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("ph").and_then(crate::json::Json::as_str))
            .filter(|ph| *ph != "M")
            .collect();
        assert_eq!(phases, vec!["B", "E"]);
        let snap = p.snapshot();
        assert_eq!(snap.histogram("harness.fig.wall_us").unwrap().count(), 1);
    }

    #[test]
    fn write_files_produces_all_outputs() {
        let p = Probe::new(temp_config("files"));
        p.add("a.b", 3);
        p.emit(ProbeEvent::instant(0, "c", "e"));
        let written = p.write_files().unwrap();
        assert_eq!(written.len(), 3);
        for path in &written {
            let text = std::fs::read_to_string(path).unwrap();
            assert!(!text.is_empty());
            crate::json::Json::parse(&text).unwrap();
        }
        let dir = written[0].parent().unwrap().to_owned();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn merge_accumulates_into_snapshot() {
        let p = Probe::new(temp_config("merge"));
        let mut r = CounterRegistry::new();
        r.add("x", 2);
        p.merge(&r);
        p.merge(&r);
        assert_eq!(p.snapshot().counter("x"), 4);
    }
}
