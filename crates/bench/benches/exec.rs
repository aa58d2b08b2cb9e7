//! Compiled execution microbenchmarks.
//!
//! For the AES S-box pipeline and the GEMM tile kernel this target times:
//!
//! * one folded cycle of the pre-lowered `FoldPlanExecutor` micro-op
//!   stream;
//! * per-vector netlist throughput: the reference `Evaluator` one vector
//!   at a time vs the bit-sliced `run_batch_cycle` at every sweep width
//!   (64, 256, and 512 lanes — the `w4`/`w8` multi-word arms);
//! * small batches: one dispatch (fresh state, [`SMALL_CYCLES`] cycles)
//!   of 1, 2 and 4 lanes as `run_batch_cycle_any` routes it (per lane up
//!   to `SCALAR_BATCH_LANES`) vs a forced one-word `BatchState<1>` sweep.
//!
//! Each arm is checked against the reference `Evaluator` before any
//! timing, so a divergence fails the bench instead of producing a fast
//! wrong number. Results land as `BENCH_*.json` (see the `bench` crate
//! docs); a final `BENCH_exec_speedups.json` records the per-vector batch
//! speedups over the evaluator and the sweep variant the host ran
//! (`freac_netlist::batch_isa`), and `BENCH_exec_small_batch.json` the
//! small-batch times.

use bench::BenchResult;
use freac_fold::{compile_fold, schedule_fold, FoldConstraints, LutMode};
use freac_kernels::KernelId;
use freac_netlist::eval::Evaluator;
use freac_netlist::techmap::{tech_map, TechMapOptions};
use freac_netlist::{compile, ExecPlan, Netlist, NodeKind, Value, BATCH_LANES, MAX_BATCH_LANES};

/// One deterministic input vector per primary input, respecting kinds.
fn inputs_for(netlist: &Netlist, seed: u32) -> Vec<Value> {
    netlist
        .primary_inputs()
        .iter()
        .enumerate()
        .map(|(i, &id)| match netlist.nodes()[id.index()].kind {
            NodeKind::BitInput { .. } => Value::Bit((seed >> (i % 32)) & 1 == 1),
            _ => Value::Word(
                seed.wrapping_mul(0x9e37_79b9)
                    .wrapping_add(i as u32 * 0x85eb),
            ),
        })
        .collect()
}

struct KernelSpeedups {
    label: &'static str,
    batch: f64,
    /// Per-vector speedup of the 256-lane (4-word) sweep over the evaluator.
    batch_w4: f64,
    /// Per-vector speedup of the 512-lane (8-word) sweep over the evaluator.
    batch_w8: f64,
    /// `(lanes, routed, forced one-word sweep)` mean ns per small dispatch.
    small: Vec<(usize, f64, f64)>,
}

/// Cycles one small-batch dispatch runs on its fresh state.
const SMALL_CYCLES: usize = 4;

/// Batch sizes the small-batch arm times.
const SMALL_LANES: [usize; 3] = [1, 2, 4];

/// Times one dispatch of `k` lanes — fresh state, then [`SMALL_CYCLES`]
/// cycles — as `run_batch_cycle_any` routes it and through a forced
/// one-word sweep, after checking both against one reference evaluator
/// per lane.
fn small_batch(plan: &ExecPlan, mapped: &Netlist, label: &str, k: usize) -> (f64, f64) {
    let lanes: Vec<Vec<Value>> = (0..k as u32)
        .map(|l| inputs_for(mapped, 0x5eed_0001 ^ l.wrapping_mul(0x0101_0101)))
        .collect();
    {
        let mut refs: Vec<Evaluator> = lanes.iter().map(|_| Evaluator::new(mapped)).collect();
        let mut routed = plan.new_batch_state_for(k);
        let mut forced = plan.new_wide_batch_state::<1>();
        let (mut routed_out, mut forced_out) = (Vec::new(), Vec::new());
        for cycle in 0..SMALL_CYCLES {
            plan.run_batch_cycle_any(&mut routed, &lanes, &mut routed_out)
                .expect("routed small batch");
            plan.run_wide_batch_cycle(&mut forced, &lanes, &mut forced_out)
                .expect("forced one-word sweep");
            for (l, reference) in refs.iter_mut().enumerate() {
                let expect = reference.run_cycle(&lanes[l]).expect("reference cycle");
                assert_eq!(
                    routed_out[l], expect,
                    "{label}: {k}-lane routed lane {l} cycle {cycle}"
                );
                assert_eq!(
                    forced_out[l], expect,
                    "{label}: {k}-lane w1 lane {l} cycle {cycle}"
                );
            }
        }
    }
    let mut out = Vec::new();
    let routed = bench::bench_function(&format!("netlist/{label}/small {k} routed"), 200, || {
        let mut state = plan.new_batch_state_for(k);
        for _ in 0..SMALL_CYCLES {
            plan.run_batch_cycle_any(&mut state, &lanes, &mut out)
                .expect("routed small batch");
        }
        out.len()
    });
    let forced = bench::bench_function(&format!("netlist/{label}/small {k} w1"), 200, || {
        let mut state = plan.new_wide_batch_state::<1>();
        for _ in 0..SMALL_CYCLES {
            plan.run_wide_batch_cycle(&mut state, &lanes, &mut out)
                .expect("forced one-word sweep");
        }
        out.len()
    });
    (routed.mean_ns, forced.mean_ns)
}

fn bench_kernel(id: KernelId, label: &'static str) -> KernelSpeedups {
    let circuit = freac_kernels::kernel(id).circuit();
    let mapped = tech_map(&circuit, TechMapOptions::lut4()).expect("kernel maps to 4-LUTs");
    let cons = FoldConstraints::for_tile(2, LutMode::Lut4);
    let schedule = schedule_fold(&mapped, &cons).expect("kernel schedules");
    let fold_plan = compile_fold(&mapped, &schedule).expect("kernel fold-compiles");
    let inputs = inputs_for(&mapped, 0xc0ff_ee01);

    // Correctness gate: compiled fold must match the reference evaluator
    // before we time anything.
    {
        let mut reference = Evaluator::new(&mapped);
        let mut compiled = fold_plan.executor();
        let mut out = Vec::new();
        for cycle in 0..3 {
            let expect = reference.run_cycle(&inputs).expect("reference cycle");
            compiled
                .run_cycle_into(&inputs, &mut out)
                .expect("compiled cycle");
            assert_eq!(
                out, expect,
                "{label}: compiled fold diverged at cycle {cycle}"
            );
        }
    }

    let mut compiled = fold_plan.executor();
    let mut compiled_out = Vec::new();
    let compiled_fold = bench::bench_function(&format!("fold/{label}/compiled"), 200, || {
        compiled
            .run_cycle_into(&inputs, &mut compiled_out)
            .expect("compiled fold cycle");
        compiled_out.len()
    });

    // Batch arm runs on the mapped netlist's plan: 64 distinct lanes,
    // each an independent simulation. Reference evaluators check lane
    // outputs before timing starts.
    let plan = compile(&mapped).expect("kernel netlist compiles");
    let lanes: Vec<Vec<Value>> = (0..BATCH_LANES as u32)
        .map(|l| inputs_for(&mapped, 0xc0ff_ee01 ^ (l * 0x0101_0101)))
        .collect();
    {
        let mut state = plan.new_batch_state();
        let mut out = Vec::new();
        let mut refs: Vec<Evaluator> = lanes.iter().map(|_| Evaluator::new(&mapped)).collect();
        for pass in 0..2 {
            plan.run_batch_cycle(&mut state, &lanes, &mut out)
                .expect("batch cycle");
            for (l, reference) in refs.iter_mut().enumerate() {
                let expect = reference.run_cycle(&lanes[l]).expect("reference cycle");
                assert_eq!(
                    out[l], expect,
                    "{label}: batch lane {l} diverged at pass {pass}"
                );
            }
        }
    }

    let mut reference = Evaluator::new(&mapped);
    let mut single_out = Vec::new();
    let evaluator = bench::bench_function(
        &format!("netlist/{label}/evaluator 64 vectors"),
        100,
        || {
            for lane in &lanes {
                reference
                    .run_cycle_into(lane, &mut single_out)
                    .expect("evaluator cycle");
            }
            single_out.len()
        },
    );
    let mut batch_state = plan.new_batch_state();
    let mut batch_out = Vec::new();
    let batch = bench::bench_function(&format!("netlist/{label}/batch 64 vectors"), 100, || {
        plan.run_batch_cycle(&mut batch_state, &lanes, &mut batch_out)
            .expect("batch cycle");
        batch_out.len()
    });

    // Multi-word arms: the same workload at 256 and 512 lanes. Each arm
    // is gated on reference equality of every lane before timing, and
    // must beat the 64-lane sweep per vector (the whole point of the
    // wider state planes) outside smoke mode.
    let wide = |words: usize| -> BenchResult {
        let width = words * BATCH_LANES;
        let wide_lanes: Vec<Vec<Value>> = (0..width as u32)
            .map(|l| inputs_for(&mapped, 0xc0ff_ee01 ^ l.wrapping_mul(0x0101_0101)))
            .collect();
        {
            let mut state = plan.new_batch_state_for(width);
            let mut out = Vec::new();
            let mut refs: Vec<Evaluator> =
                wide_lanes.iter().map(|_| Evaluator::new(&mapped)).collect();
            plan.run_batch_cycle_any(&mut state, &wide_lanes, &mut out)
                .expect("wide batch cycle");
            for (l, reference) in refs.iter_mut().enumerate() {
                let expect = reference
                    .run_cycle(&wide_lanes[l])
                    .expect("reference cycle");
                assert_eq!(out[l], expect, "{label}: w{words} lane {l} diverged");
            }
        }
        let mut state = plan.new_batch_state_for(width);
        let mut out = Vec::new();
        bench::bench_function(&format!("netlist/{label}/batch w{words}"), 100, || {
            plan.run_batch_cycle_any(&mut state, &wide_lanes, &mut out)
                .expect("wide batch cycle");
            out.len()
        })
    };
    let batch_w4 = wide(4);
    let batch_w8 = wide(MAX_BATCH_LANES / BATCH_LANES);
    if !bench::smoke_mode() {
        for (r, width) in [(&batch_w4, 4 * BATCH_LANES), (&batch_w8, MAX_BATCH_LANES)] {
            let per_vec = r.mean_ns / width as f64;
            let narrow_per_vec = batch.mean_ns / BATCH_LANES as f64;
            assert!(
                per_vec < narrow_per_vec,
                "{label}: {width} lanes ran {per_vec:.1} ns/vector, \
                 not faster than the 64-lane sweep's {narrow_per_vec:.1}"
            );
        }
    }

    let per_vec_speedup = |wide: &BenchResult, width: usize| {
        (evaluator.mean_ns / BATCH_LANES as f64) / (wide.mean_ns / width as f64)
    };
    let small = SMALL_LANES
        .iter()
        .map(|&k| {
            let (routed, forced) = small_batch(&plan, &mapped, label, k);
            (k, routed, forced)
        })
        .collect();
    let speedups = KernelSpeedups {
        label,
        batch: batch.speedup_over(&evaluator),
        batch_w4: per_vec_speedup(&batch_w4, 4 * BATCH_LANES),
        batch_w8: per_vec_speedup(&batch_w8, MAX_BATCH_LANES),
        small,
    };
    println!(
        "{label}: compiled fold {:.1} ns/cycle; \
         batch {:.1} ns/vector vs evaluator {:.1} ns/vector -> {:.2}x per vector \
         (w4 {:.2}x, w8 {:.2}x)",
        compiled_fold.mean_ns,
        batch.mean_ns / BATCH_LANES as f64,
        evaluator.mean_ns / BATCH_LANES as f64,
        speedups.batch,
        speedups.batch_w4,
        speedups.batch_w8
    );
    speedups
}

fn main() {
    // Every batch arm below runs the sweep variant this host dispatches to.
    let isa = freac_netlist::batch_isa();
    println!("batch sweep variant: {isa}");
    let results = [
        bench_kernel(KernelId::Aes, "aes"),
        bench_kernel(KernelId::Gemm, "gemm"),
    ];
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"git_rev\": \"{}\",\n", bench::git_rev()));
    body.push_str(&format!("  \"smoke\": {},\n", bench::smoke_mode()));
    body.push_str(&format!("  \"batch_isa\": \"{isa}\",\n"));
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "  \"{}\": {{ \"batch_per_vector_vs_evaluator\": {:.2}, \"batch_w4_per_vector_vs_evaluator\": {:.2}, \"batch_w8_per_vector_vs_evaluator\": {:.2} }}{}\n",
            r.label,
            r.batch,
            r.batch_w4,
            r.batch_w8,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    body.push_str("}\n");
    bench::write_bench_json("exec_speedups", &body);

    let mut body = String::from("{\n");
    body.push_str(&format!("  \"git_rev\": \"{}\",\n", bench::git_rev()));
    body.push_str(&format!("  \"smoke\": {},\n", bench::smoke_mode()));
    body.push_str(&format!("  \"cycles_per_dispatch\": {SMALL_CYCLES},\n"));
    for (i, r) in results.iter().enumerate() {
        let arms: Vec<String> = r
            .small
            .iter()
            .map(|&(k, routed, forced)| {
                format!(
                    "\"{k}\": {{ \"routed_ns\": {routed:.1}, \"w1_ns\": {forced:.1}, \"w1_over_routed\": {:.2} }}",
                    forced / routed.max(f64::MIN_POSITIVE)
                )
            })
            .collect();
        body.push_str(&format!(
            "  \"{}\": {{ {} }}{}\n",
            r.label,
            arms.join(", "),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    body.push_str("}\n");
    bench::write_bench_json("exec_small_batch", &body);
}
