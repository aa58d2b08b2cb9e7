//! `freac_bench` — the end-to-end and per-layer benchmark of the FReaC
//! Cache serving stack.
//!
//! One invocation runs one [`Workload`] for a fixed wall-clock window and
//! reports either its end-to-end metrics or, traced, its per-layer
//! metrics (see [`metrics`]). Both clocks are measured: *simulated* time,
//! exact for a seed, and *host* time, the simulator's own speed.
//!
//! A run proceeds in three phases:
//!
//! 1. **Window.** Repetitions of set-up (map, compile, trace, submit)
//!    and a timed drain, until the window has passed and every sub-trace
//!    ran at least once. Simulated metrics pool the workload's
//!    sub-traces; a repeated sub-trace must reproduce its first outcome
//!    exactly. Host metrics are medians over repetitions, scaled by a
//!    pinned calibration kernel timed before each one (`calib.rs`);
//!    memory is the live-heap high-water mark (`heap.rs`).
//! 2. **Checks.** Conservation (`completed + shed == submitted`), the
//!    latency decomposition (`wait + reconfig + exec == latency`) of every
//!    completion, and 256 evenly spaced completions recomputed on the
//!    reference evaluator. `sampled_long` also replays its trace at full
//!    fidelity, the reference its estimates are scored against.
//! 3. **Trace** (`--trace 1` only). One more run of sub-trace 0 records
//!    its sampled completions' simulated timelines through the run hook,
//!    then every dispatch is replayed from outside (`layers.rs`) and
//!    each replayed output hash must equal the completion's.

mod calib;
mod heap;
mod layers;
pub mod metrics;
mod sim;
pub mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use freac_probe::CounterRegistry;
use freac_serve::{Completion, DispatchRecord, Outcome, Request, SampleReport, Shed};

use crate::calib::{calibrate, NOMINAL_S};
use crate::layers::replay;
pub use crate::layers::Layers;
use crate::metrics::{collect, Metric, END_TO_END, PER_LAYER};
use crate::sim::{fingerprint, fnv, SimSummary, FNV_OFFSET, REF_CHECKS};
use crate::stats::median;
use crate::trace::{sim_stride, SimRecord, Tracer};
use crate::workload::{full_fidelity, sampled_trace, setup, KernelEntry, RunOutput, Step, System};
pub use crate::workload::{Error, Workload};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Minimum repetitions in the window, whatever its length: enough for a
/// set-up median.
const MIN_REPS: usize = 6;
/// Repetitions of the registry merge the trace phase times.
const MERGE_REPS: u32 = 16;

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measurement window, s.
    pub seconds: f64,
    /// Whether to run the trace phase and report per-layer metrics.
    pub trace: bool,
    /// Divisor of every request count (1 runs the pinned sizes).
    pub scale: u64,
    /// Where the trace phase writes its Chrome trace and per-layer JSON
    /// (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Simulated requests whose outcomes were checked.
    pub attempted: u64,
    /// Violations the output checks found.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The traced run's layer split.
    pub layers: Option<Layers>,
}

/// A drained server or cluster, flattened.
struct Drained {
    completions: Vec<Completion>,
    sheds: Vec<Shed>,
    span_ps: u64,
    /// The merged registry.
    probes: CounterRegistry,
    /// Each server's schedule and registry (one for a plain server).
    servers: Vec<(Vec<DispatchRecord>, CounterRegistry)>,
}

impl Drained {
    fn of(out: RunOutput) -> Option<Drained> {
        match out {
            RunOutput::Serve(r) => Some(Drained {
                completions: r.completions,
                sheds: r.sheds,
                span_ps: r.span_ps,
                servers: vec![(r.dispatches, r.probes.clone())],
                probes: r.probes,
            }),
            RunOutput::Cluster(r) => Some(Drained {
                completions: r.completions,
                sheds: r.sheds,
                span_ps: r.span_ps,
                probes: r.probes,
                servers: r
                    .shards
                    .into_iter()
                    .map(|s| (s.dispatches, s.probes))
                    .collect(),
            }),
            RunOutput::Sampled(_) => None,
        }
    }

    fn summary(&self, submitted: u64, ref_count: usize) -> SimSummary {
        SimSummary::of(
            &self.completions,
            &self.sheds,
            submitted,
            self.span_ps,
            &self.probes,
            ref_count,
        )
    }

    fn fingerprint(&self) -> u64 {
        fingerprint(&self.completions, &self.sheds)
    }
}

/// One timed repetition of the window.
struct Rep {
    sub: usize,
    /// Threads the drain ran on.
    workers: usize,
    /// Calibration seconds measured just before it.
    cal: f64,
    steps: Vec<Step>,
    submitted: u64,
    /// Host seconds of the drain.
    secs: f64,
}

/// Phase 1's results.
struct Window {
    reps: Vec<Rep>,
    /// Pooled simulated outcomes (serve and cluster workloads).
    pooled: SimSummary,
    /// Fingerprint of each sub-trace's first run.
    prints: Vec<u64>,
    kernels: Vec<KernelEntry>,
    /// `sampled_long`: the first estimate.
    sampled: Option<SampleReport>,
    /// Repetitions that did not reproduce their sub-trace's first outcome.
    diverged: u64,
    /// Live-heap high-water mark of each sub-trace's first set-up and
    /// drain, above what was live before it, bytes.
    heap_peaks: Vec<usize>,
}

/// Runs `opts.workload` and reports its metrics.
///
/// # Errors
///
/// Propagates set-up, serving and I/O failures. Failed output checks are
/// not errors: they come back as `correct == false`.
pub fn run(opts: &Options) -> Result<Report, Error> {
    let w = opts.workload;
    let mut tracer = Tracer::new(opts.trace);
    let mut window = measure(opts, &mut tracer)?;
    let mut problems = Vec::new();
    if window.diverged > 0 {
        problems.push(format!(
            "{} repetition(s) did not reproduce their sub-trace's simulated outcome",
            window.diverged
        ));
    }

    // Checks; `sampled_long` scores its estimate against a full replay.
    let window_pooled = std::mem::take(&mut window.pooled);
    let (mut pooled, kernels, full) = match &window.sampled {
        None => (window_pooled, window.kernels.clone(), None),
        Some(report) => {
            let est = report.est_completed + report.est_shed;
            if est != report.trace_requests {
                problems.push(format!(
                    "sampled estimate conserves {est} of {} requests",
                    report.trace_requests
                ));
            }
            let trace = sampled_trace(opts.seed, 0, opts.scale);
            let (cluster, kernels, submit) = full_fidelity(&window.kernels, &trace)?;
            let start = Instant::now();
            let drained =
                Drained::of(System::Cluster(cluster).run(|_| {})?).expect("a cluster drains");
            let full_s = start.elapsed().as_secs_f64();
            let summary = drained.summary(trace.len() as u64, REF_CHECKS);
            let print = drained.fingerprint();
            let full = FullReplay {
                trace,
                full_s,
                submit,
                print,
            };
            (summary, kernels, Some(full))
        }
    };
    let (ref_checked, ref_mismatches) = pooled.reference_check(&kernels);
    if ref_mismatches > 0 {
        problems.push(format!(
            "{ref_mismatches} of {ref_checked} completions differ from the reference evaluator"
        ));
    }
    if pooled.decomp_violations > 0 {
        problems.push(format!(
            "{} completions violate wait + reconfig + exec == latency",
            pooled.decomp_violations
        ));
    }
    let gap = pooled.conservation_gap();
    if gap > 0 {
        problems.push(format!(
            "completed + shed misses submitted by {gap} ({} + {} vs {})",
            pooled.completed, pooled.shed, pooled.submitted
        ));
    }
    let mut failed = window.diverged + ref_mismatches + pooled.decomp_violations + gap;

    let (metrics, layers) = if opts.trace {
        let traced = trace_phase(opts, &window, &kernels, full.as_ref(), &mut tracer)?;
        let mismatches = traced.layers.mismatches;
        failed += mismatches + u64::from(!traced.reproduced);
        if mismatches > 0 {
            problems.push(format!(
                "{mismatches} replayed output hashes differ from their completions"
            ));
        }
        if !traced.reproduced {
            problems.push("the traced run did not reproduce the untraced outcome".to_owned());
        }
        let mut v = layer_values(&window, &mut pooled, &traced, full.as_ref());
        v.insert("verify.mismatches", (ref_mismatches + mismatches) as f64);
        v.insert("sim.decomp_violations", pooled.decomp_violations as f64);
        v.insert("verify.ref_checked", ref_checked as f64);
        let metrics = collect(&PER_LAYER, &v);
        if let Some(dir) = &opts.out_dir {
            std::fs::create_dir_all(dir)?;
            let stem = format!("{}-{}", w.name(), opts.seed);
            tracer.write(&dir.join(format!("{stem}.trace.json")))?;
            std::fs::write(
                dir.join(format!("{stem}.layers.json")),
                metrics::to_json(&metrics).write(),
            )?;
        }
        (metrics, Some(traced.layers))
    } else {
        let submitted = pooled.submitted.max(1) as f64;
        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        // Host time at nominal host speed: each repetition is scaled by
        // the calibration measured just before it.
        let krps: Vec<f64> = window
            .single()
            .map(|r| r.submitted as f64 / r.secs / 1e3 * r.cal / NOMINAL_S)
            .collect();
        let setup: Vec<f64> = window
            .reps
            .iter()
            .map(|r| r.steps.iter().map(Step::secs).sum::<f64>() * NOMINAL_S / r.cal)
            .collect();
        v.insert("host_krps", median(&krps));
        v.insert("setup_s", median(&setup));
        let peaks = window.heap_peaks.iter().map(|&b| b as f64);
        let mean_peak = peaks.sum::<f64>() / window.heap_peaks.len() as f64;
        v.insert("peak_heap_mib", mean_peak / f64::from(1 << 20));
        v.insert("sim_p50_us", pooled.latency_us(0.50));
        v.insert("sim_p99_us", pooled.latency_us(0.99));
        v.insert("sim_tput_mrps", pooled.throughput_mrps());
        v.insert("completed_frac", pooled.completed as f64 / submitted);
        v.insert("slo_met_frac", pooled.slo_met as f64 / submitted);
        (collect(&END_TO_END, &v), None)
    };
    Ok(Report {
        correct: failed == 0,
        attempted: pooled.submitted,
        failed,
        metrics,
        problems,
        layers,
    })
}

impl Window {
    /// The single-thread repetitions, whose drains time `host_krps`.
    fn single(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(|r| r.workers == 1)
    }

    /// Median host seconds of the single-thread drains of sub-trace 0.
    fn first_secs(&self) -> f64 {
        let secs: Vec<f64> = self
            .single()
            .filter(|r| r.sub == 0)
            .map(|r| r.secs)
            .collect();
        median(&secs)
    }

    /// Median over the window's pairs of two-thread ÷ one-thread drain
    /// time of one sub-trace (0 for a single-thread workload).
    fn workers_slowdown(&self) -> f64 {
        let ratios: Vec<f64> = self
            .reps
            .windows(2)
            .filter(|p| p[0].workers == 1 && p[1].workers > 1 && p[0].sub == p[1].sub)
            .map(|p| p[1].secs / p[0].secs)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            median(&ratios)
        }
    }

    /// Records a drain of sub-trace `sub` (of `k`): its first drain joins
    /// the pool, a repeat must reproduce it.
    fn record(&mut self, sub: usize, k: usize, submitted: u64, out: RunOutput, heap_base: usize) {
        if sub == self.prints.len() {
            self.heap_peaks.push(heap::peak().saturating_sub(heap_base));
        }
        let print = match out {
            RunOutput::Sampled(report) => {
                let print = estimate_print(&report);
                self.sampled.get_or_insert(report);
                print
            }
            out => {
                let drained = Drained::of(out).expect("servers and clusters drain");
                if sub == self.prints.len() {
                    let refs = REF_CHECKS.div_ceil(k);
                    self.pooled.absorb(drained.summary(submitted, refs));
                }
                drained.fingerprint()
            }
        };
        if sub == self.prints.len() {
            self.prints.push(print);
        } else if print != self.prints[sub] {
            self.diverged += 1;
        }
    }
}

/// Phase 1: pool every sub-trace's simulated outcome, and set up and
/// drain repeatedly until the window has passed.
fn measure(opts: &Options, tracer: &mut Tracer) -> Result<Window, Error> {
    let w = opts.workload;
    let k = w.subtraces();
    let mut win = Window {
        reps: Vec::new(),
        pooled: SimSummary::default(),
        prints: Vec::new(),
        kernels: Vec::new(),
        sampled: None,
        diverged: 0,
        heap_peaks: Vec::new(),
    };
    // A two-thread workload pools its sub-traces on one thread first
    // (several times faster for the cluster): the simulated outcome is
    // the same at any worker count, which every timed repetition then
    // re-checks.
    let threads = w.workers();
    if threads > 1 {
        for sub in 0..k {
            let heap_base = heap::reset_peak();
            let prep = setup(w, opts.seed, sub, opts.scale, 1, false)?;
            win.kernels = prep.kernels;
            let out = prep.system.run(|_| {})?;
            win.record(sub, k, prep.submitted, out, heap_base);
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    for rep in 0.. {
        // A two-thread workload drains each sub-trace on one thread, then
        // on two. On a shared host the two-thread wall time is dominated
        // by cross-thread hand-offs and varies by a fifth between runs, so
        // the one-thread drain times `host_krps` and the pair gives the
        // slowdown.
        let (sub, workers) = if threads > 1 {
            ((rep / 2) % k, if rep % 2 == 0 { 1 } else { threads })
        } else {
            (rep % k, 1)
        };
        let cal_start = Instant::now();
        let cal = calibrate();
        tracer.span(
            "bench.calibrate",
            "calibrate",
            cal_start,
            Instant::now(),
            &[],
        );
        let heap_base = heap::reset_peak();
        let prep = setup(w, opts.seed, sub, opts.scale, workers, false)?;
        tracer.steps("bench.setup", &prep.steps);
        let start = Instant::now();
        let out = prep.system.run(|_| {})?;
        let end = Instant::now();
        let args = [("sub", sub as u64), ("workers", workers as u64)];
        tracer.span("bench.run", "run", start, end, &args);
        win.record(sub, k, prep.submitted, out, heap_base);
        win.kernels = prep.kernels;
        win.reps.push(Rep {
            sub,
            workers,
            cal,
            steps: prep.steps,
            submitted: prep.submitted,
            secs: (end - start).as_secs_f64(),
        });
        let paired = threads == 1 || workers > 1;
        if rep + 1 >= MIN_REPS && paired && win.prints.len() == k && Instant::now() >= deadline {
            break;
        }
    }
    Ok(win)
}

/// Every simulated number a sampled estimate reports, hashed.
fn estimate_print(r: &SampleReport) -> u64 {
    let mut h = FNV_OFFSET;
    for v in [
        r.p50_ps.value,
        r.p50_ps.bound,
        r.p95_ps.value,
        r.p95_ps.bound,
        r.p99_ps.value,
        r.p99_ps.bound,
        r.throughput_rps.value,
    ] {
        fnv(&mut h, &v.to_bits().to_le_bytes());
    }
    for v in [r.est_completed, r.est_shed, r.simulated_requests] {
        fnv(&mut h, &v.to_le_bytes());
    }
    h
}

/// Median seconds of the set-up step `name`, or `None` if no repetition
/// ran it.
fn step_median(reps: &[Rep], name: &str) -> Option<f64> {
    let secs: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.steps.iter().filter(|st| st.name == name).map(Step::secs))
        .collect();
    (!secs.is_empty()).then(|| median(&secs))
}

/// Phase 3's results.
struct Traced {
    layers: Layers,
    overhead: f64,
    merge_ms: f64,
    /// Whether the traced run reproduced the untraced simulated outcome.
    reproduced: bool,
    /// The process's peak resident set at the end, MiB.
    vmhwm_mib: f64,
}

/// `sampled_long`'s full-fidelity replay of its trace.
struct FullReplay {
    trace: Vec<Request>,
    /// Host seconds of the untraced drain.
    full_s: f64,
    submit: Step,
    /// Fingerprint of its simulated outcome.
    print: u64,
}

/// Phase 3: two traced single-thread drains of sub-trace 0 with the
/// layer replay between them. On one thread the replayed parts can add up
/// to the drain's span, and measuring the span on both sides of the
/// replay cancels host-speed drift between the two to first order.
fn trace_phase(
    opts: &Options,
    window: &Window,
    kernels: &[KernelEntry],
    full: Option<&FullReplay>,
    tracer: &mut Tracer,
) -> Result<Traced, Error> {
    let build = || -> Result<(System, Option<Vec<Request>>), Error> {
        Ok(match full {
            Some(f) => (System::Cluster(full_fidelity(kernels, &f.trace)?.0), None),
            None => {
                let mut prep = setup(opts.workload, opts.seed, 0, opts.scale, 1, true)?;
                let trace = prep.trace.take();
                (prep.system, trace)
            }
        })
    };
    let expected = full.map_or(window.prints[0], |f| f.print);

    let (system, kept) = build()?;
    let trace = full.map_or_else(
        || kept.as_deref().expect("set-up keeps the trace"),
        |f| &f.trace,
    );
    let stride = sim_stride(trace.len() as u64);
    let mut records = Vec::new();
    let (drained, first_s) = traced_drain(system, stride, &mut records, tracer)?;
    let dispatches: Vec<(usize, &DispatchRecord)> = drained
        .servers
        .iter()
        .enumerate()
        .flat_map(|(i, (ds, _))| ds.iter().map(move |d| (i, d)))
        .collect();
    let mut layers = replay(&dispatches, &drained.completions, trace, kernels, tracer)?;
    tracer.sim_tracks(&records);

    let merge_start = Instant::now();
    for _ in 0..MERGE_REPS {
        let mut merged = CounterRegistry::new();
        for (i, (_, probes)) in drained.servers.iter().enumerate() {
            merged.merge_namespaced(&format!("cluster.shard.{i}."), probes);
        }
        black_box(merged);
    }
    let merge_ms = merge_start.elapsed().as_secs_f64() * 1e3 / f64::from(MERGE_REPS);
    let first_print = drained.fingerprint();
    drop(dispatches);
    drop((drained, kept));

    let (second, second_s) = traced_drain(build()?.0, stride, &mut Vec::new(), tracer)?;
    layers.span_s = (first_s + second_s) / 2.0;
    let untraced = full.map_or_else(|| window.first_secs(), |f| f.full_s);
    Ok(Traced {
        overhead: layers.span_s / untraced,
        layers,
        merge_ms,
        reproduced: first_print == expected && second.fingerprint() == expected,
        vmhwm_mib: vmhwm_mib()?,
    })
}

/// Drains `system` with a run hook that keeps every `stride`-th
/// completion's simulated timeline, returning the drain and its host
/// seconds.
fn traced_drain(
    system: System,
    stride: u64,
    records: &mut Vec<SimRecord>,
    tracer: &mut Tracer,
) -> Result<(Drained, f64), Error> {
    let mut seen = 0u64;
    let start = Instant::now();
    let out = system.run(|o| {
        if let Outcome::Completed(c) = o {
            seen += 1;
            if seen.is_multiple_of(stride) {
                records.push(SimRecord::of(c));
            }
        }
    })?;
    let end = Instant::now();
    tracer.span("bench.run", "traced run", start, end, &[]);
    let drained = Drained::of(out).expect("the traced run is a server or cluster");
    Ok((drained, (end - start).as_secs_f64()))
}

/// The per-layer values, except the check counters.
fn layer_values(
    window: &Window,
    pooled: &mut SimSummary,
    t: &Traced,
    full: Option<&FullReplay>,
) -> BTreeMap<&'static str, f64> {
    let l = &t.layers;
    let ms = |name: &str| step_median(&window.reps, name).unwrap_or(0.0) * 1e3;
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let submitted = pooled.submitted;
    let dispatched = pooled.counter("serve.batches.dispatched");
    let occupied = pooled.counter("serve.lanes.occupied");
    let (hits, misses) = (
        pooled.counter("cluster.route.cache.hits"),
        pooled.counter("cluster.route.cache.misses"),
    );
    let (wait_mean, reconfig_mean, exec_mean) = pooled.mean_parts_us();
    let stall_ps = pooled.counter("serve.reconfig.total_ps")
        + pooled.counter("serve.teardown.reclaim_ps")
        + pooled.counter("serve.rescale.conversion_ps");
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("core.accel.map_ms", ms("map"));
    v.insert("netlist.plan.compile_ms", ms("compile"));
    v.insert("serve.loadgen.trace_ms", ms("trace"));
    v.insert(
        "serve.submit_ms",
        full.map_or_else(|| ms("submit"), |f| f.submit.secs() * 1e3),
    );
    v.insert("serve.run.span_s", l.span_s);
    v.insert("netlist.plan.sweep_s", l.sweep_s);
    v.insert(
        "netlist.plan.sweep_ns_per_lane",
        per(l.sweep_s * 1e9, l.swept_lanes),
    );
    v.insert("netlist.plan.sweep_share", l.share(l.sweep_s));
    v.insert("netlist.plan.sweeps_w1", l.sweeps[0] as f64);
    v.insert("netlist.plan.sweeps_w4", l.sweeps[1] as f64);
    v.insert("netlist.plan.sweeps_w8", l.sweeps[2] as f64);
    v.insert("fold.plan.exec_share", l.share(l.single_s));
    v.insert("fold.plan.runs", l.single_runs as f64);
    v.insert(
        "serve.inputs.pack_ns_per_lane",
        per(l.pack_s * 1e9, l.lanes),
    );
    v.insert(
        "serve.inputs.hash_ns_per_lane",
        per(l.hash_s * 1e9, l.lanes),
    );
    v.insert("serve.server.loop_self_s", l.loop_self_s());
    v.insert("serve.server.loop_self_share", l.share(l.loop_self_s()));
    v.insert("host.workers_slowdown", window.workers_slowdown());
    v.insert(
        "serve.cluster.steals_per_req",
        per(pooled.counter("cluster.steals") as f64, submitted),
    );
    v.insert(
        "serve.cluster.route_hit_ratio",
        per(hits as f64, hits + misses),
    );
    v.insert(
        "serve.cluster.rescales",
        pooled.counter("serve.rescales") as f64,
    );
    v.insert("probe.registry.merge_ms", t.merge_ms);
    // The sampler's estimates against the exact full-fidelity quantiles.
    let exact = [0.50, 0.95, 0.99].map(|q| pooled.latency_us(q) * 1e6);
    let (sim_frac, speedup, bound_rel, p50_err, p99_err, bound_miss) =
        match window.sampled.as_ref().zip(full) {
            Some((r, f)) => {
                let est = [r.p50_ps, r.p95_ps, r.p99_ps];
                let err = |i: usize| (est[i].value - exact[i]).abs() / exact[i].max(1.0);
                let sampled_s: Vec<f64> = window.single().map(|r| r.secs).collect();
                (
                    per(r.simulated_requests as f64, r.trace_requests),
                    f.full_s / median(&sampled_s),
                    r.p99_ps.rel_bound(),
                    err(0),
                    err(2),
                    est.iter().zip(exact).filter(|(e, x)| !e.covers(*x)).count() as f64,
                )
            }
            None => Default::default(),
        };
    v.insert("serve.sample.sim_frac", sim_frac);
    v.insert("serve.sample.speedup", speedup);
    v.insert("serve.sample.p99_bound_rel", bound_rel);
    v.insert("serve.sample.p50_err", p50_err);
    v.insert("serve.sample.p99_err", p99_err);
    v.insert("serve.sample.bound_miss", bound_miss);
    v.insert("probe.hist.p50_rel_err", pooled.hist_rel_err(0.50));
    v.insert("probe.hist.p99_rel_err", pooled.hist_rel_err(0.99));
    v.insert("sim.wait_mean_us", wait_mean);
    v.insert("sim.wait_p99_us", pooled.wait_us(0.99));
    v.insert("sim.reconfig_mean_us", reconfig_mean);
    v.insert("sim.exec_mean_us", exec_mean);
    v.insert("serve.batch.lanes_mean", per(occupied as f64, dispatched));
    v.insert(
        "serve.batch.fill",
        per(occupied as f64, pooled.counter("serve.lanes.capacity")),
    );
    v.insert(
        "serve.batch.waves_per_dispatch",
        per(pooled.counter("serve.batch.waves") as f64, dispatched),
    );
    v.insert(
        "serve.sched.reconfigs_per_kreq",
        per(pooled.counter("serve.reconfigs") as f64 * 1e3, submitted),
    );
    v.insert("serve.slice.util_mean", pooled.slice_utilization());
    v.insert("serve.shed.frac", per(pooled.shed as f64, submitted));
    v.insert("serve.shed.queue_full", pooled.shed_queue_full as f64);
    v.insert("serve.handoff.stall_us", stall_ps as f64 / 1e6);
    v.insert(
        "cache.coh.invalidations",
        pooled.counter("cache.coh.invalidations") as f64,
    );
    v.insert(
        "cache.coh.writeback_pulls",
        pooled.counter("cache.coh.writeback_pulls") as f64,
    );
    v.insert("trace.overhead", t.overhead);
    let cal: Vec<f64> = window.reps.iter().map(|r| r.cal).collect();
    v.insert("host.cal_ms", median(&cal) * 1e3);
    v.insert("host.vmhwm_mib", t.vmhwm_mib);
    v
}

/// The process's peak resident set so far (`VmHWM`), MiB.
fn vmhwm_mib() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
