//! Outside-in layer attribution: every dispatch of a drained run is
//! re-executed call for call from its [`DispatchRecord`] through the same
//! public functions the server calls (`synth_inputs`, the compiled
//! plan's `run_batch_cycle_any` or the fold plan's `run_cycle_into`,
//! `hash_outputs`), timing each part. The event loop's self time is the
//! run span minus the replayed functional parts.

use std::collections::BTreeMap;
use std::time::Instant;

use freac_netlist::{compile, ExecPlan, BATCH_WIDTHS};
use freac_serve::inputs::{hash_outputs, synth_inputs};
use freac_serve::{Completion, DispatchRecord, Request};

use crate::trace::{Tracer, MAX_EVENTS};
use crate::workload::{Error, KernelEntry};

/// Host time of a run, split by layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// The run span the parts decompose, s.
    pub span_s: f64,
    /// Input synthesis (`synth_inputs`), s.
    pub pack_s: f64,
    /// Bit-sliced plan sweeps (`run_batch_cycle_any`), s.
    pub sweep_s: f64,
    /// Single-lane folded runs (`FoldPlanExecutor::run_cycle_into`), s.
    pub single_s: f64,
    /// Output hashing (`hash_outputs`), s.
    pub hash_s: f64,
    /// Lanes replayed.
    pub lanes: u64,
    /// Lanes that rode a plan sweep.
    pub swept_lanes: u64,
    /// Sweeps per width, narrowest first (64 / 256 / 512 lanes).
    pub sweeps: [u64; 3],
    /// Single-lane folded runs.
    pub single_runs: u64,
    /// Replayed output hashes that differ from the run's completion.
    pub mismatches: u64,
}

impl Layers {
    /// Host time not spent in the replayed functional parts: admission,
    /// scheduling, coalescing, routing and bookkeeping, s.
    pub fn loop_self_s(&self) -> f64 {
        self.span_s - self.pack_s - self.sweep_s - self.single_s - self.hash_s
    }

    /// `part` as a share of the run span.
    pub fn share(&self, part: f64) -> f64 {
        part / self.span_s.max(f64::MIN_POSITIVE)
    }
}

/// Replays `dispatches` (with the shard each ran on) of a run whose
/// completions and submitted requests are given, timing each part; the
/// caller sets the span the parts decompose. A strided subset of
/// dispatches gets replay spans in `tracer`.
///
/// # Errors
///
/// Propagates plan-compile and execution failures, and dispatches whose
/// riders or kernel the run does not know.
pub fn replay(
    dispatches: &[(usize, &DispatchRecord)],
    completions: &[Completion],
    trace: &[Request],
    kernels: &[KernelEntry],
    tracer: &mut Tracer,
) -> Result<Layers, Error> {
    let plans: BTreeMap<&str, (&KernelEntry, ExecPlan)> = kernels
        .iter()
        .map(|k| Ok((k.name.as_str(), (k, compile(k.accel.netlist())?))))
        .collect::<Result<_, Error>>()?;
    let requests: BTreeMap<(&str, u64), &Request> = trace
        .iter()
        .map(|r| ((r.tenant.as_str(), r.seq), r))
        .collect();
    let done: BTreeMap<(&str, u64), &Completion> = completions
        .iter()
        .map(|c| ((c.tenant.as_str(), c.seq), c))
        .collect();
    let stride = (dispatches.len() * 8).div_ceil(MAX_EVENTS).max(1);
    let mut layers = Layers::default();
    for (i, &(shard, d)) in dispatches.iter().enumerate() {
        let (k, plan) = plans
            .get(d.kernel.as_str())
            .ok_or_else(|| format!("dispatch {} runs unknown kernel {}", d.batch_id, d.kernel))?;
        let riders: Vec<(&Request, &Completion)> = d
            .requests
            .iter()
            .map(|(tenant, seq, _)| {
                let key = (tenant.as_str(), *seq);
                match (requests.get(&key), done.get(&key)) {
                    (Some(r), Some(c)) => Ok((*r, *c)),
                    _ => Err(format!(
                        "dispatch {} rider {tenant}#{seq} is unknown",
                        d.batch_id
                    )),
                }
            })
            .collect::<Result<_, String>>()?;
        let netlist = k.accel.netlist();

        let t0 = Instant::now();
        let lanes: Vec<_> = riders
            .iter()
            .map(|(r, _)| synth_inputs(netlist, r.seed))
            .collect();
        let t1 = Instant::now();
        // Fresh output buffers per dispatch, as the server allocates them.
        let (mut out, mut batch_out) = (Vec::new(), Vec::new());
        let single = riders[0].0.exclusive;
        if single {
            let mut ex = k.accel.fold_plan().executor();
            for _ in 0..k.func_cycles {
                ex.run_cycle_into(&lanes[0], &mut out)?;
            }
        } else {
            let mut state = plan.new_batch_state_for(lanes.len());
            for _ in 0..k.func_cycles {
                plan.run_batch_cycle_any(&mut state, &lanes, &mut batch_out)?;
            }
        }
        let t2 = Instant::now();
        let hashes: Vec<u64> = if single {
            vec![hash_outputs(&out)]
        } else {
            batch_out.iter().map(|o| hash_outputs(o)).collect()
        };
        let t3 = Instant::now();

        layers.pack_s += (t1 - t0).as_secs_f64();
        layers.hash_s += (t3 - t2).as_secs_f64();
        layers.lanes += riders.len() as u64;
        if single {
            layers.single_s += (t2 - t1).as_secs_f64();
            layers.single_runs += 1;
        } else {
            layers.sweep_s += (t2 - t1).as_secs_f64();
            layers.swept_lanes += riders.len() as u64;
            let width = BATCH_WIDTHS
                .iter()
                .position(|&w| riders.len() <= w)
                .unwrap_or(BATCH_WIDTHS.len() - 1);
            layers.sweeps[width] += 1;
        }
        layers.mismatches += riders
            .iter()
            .zip(&hashes)
            .filter(|((_, c), h)| c.output_hash != **h)
            .count() as u64;

        if i % stride == 0 {
            let track = "bench.replay";
            let args = [
                ("shard", shard as u64),
                ("batch_id", d.batch_id),
                ("lanes", riders.len() as u64),
            ];
            tracer.begin(track, &format!("dispatch {}", d.kernel), t0, &args);
            tracer.span(track, "pack", t0, t1, &[]);
            tracer.span(track, if single { "fold" } else { "sweep" }, t1, t2, &[]);
            tracer.span(track, "hash", t2, t3, &[]);
            tracer.end(track, "dispatch", t3);
        }
    }
    Ok(layers)
}
