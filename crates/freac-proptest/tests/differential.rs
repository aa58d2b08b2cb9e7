//! The standing cross-layer differential suite.
//!
//! Each test binds one oracle to the shared runner: corpus replay first,
//! then `FREAC_PROPTEST_CASES` random cases (default 256) from
//! `FREAC_PROPTEST_SEED`. A failure panics with a shrunk counterexample
//! and the one-line corpus entry that replays it.

use freac_proptest::oracles::{
    bitstream, cache, cluster, coherence, compiled, fold, metrics, optimize, queue, round, sample,
    serve,
};
use freac_proptest::{check, Runner};

#[test]
fn fold_threeway_differential() {
    check("fold/threeway", fold::generate, fold::shrink, fold::check);
}

#[test]
fn compiled_plan_differential() {
    // The flat execution plan — single-vector and 64-wide bit-sliced
    // batch — must be bit-identical to the reference evaluator on random
    // circuits, both pre- and post-mapping.
    check(
        "compiled/plan",
        compiled::generate,
        compiled::shrink,
        compiled::check,
    );
}

#[test]
fn optimize_preserves_function() {
    // Every pass alone and both pipeline levels: optimized ≡ raw on random
    // circuits — pre-mapping, post-mapping, compiled, and 64-lane batch —
    // with monotone LUT counts and idempotent converged runs.
    check(
        "optimize/differential",
        optimize::generate,
        optimize::shrink,
        optimize::check,
    );
}

#[test]
fn coherence_litmus_differential() {
    // MESI litmus machine vs the flat sequentially-consistent reference:
    // store-buffering / message-passing shapes, random op tails, per-op
    // protocol invariants, and claim ≡ conservative-flush memory images.
    check(
        "coherence/litmus",
        coherence::generate,
        coherence::shrink,
        coherence::check,
    );
}

#[test]
fn cache_differential() {
    check(
        "cache/differential",
        cache::generate,
        cache::shrink,
        cache::check,
    );
}

#[test]
fn bitstream_roundtrip_differential() {
    check(
        "bitstream/roundtrip",
        bitstream::generate,
        bitstream::shrink,
        bitstream::check_roundtrip,
    );
}

#[test]
fn bitstream_decode_encode_identity() {
    check(
        "bitstream/decode-encode",
        bitstream::generate_wire_image,
        |_| Vec::new(),
        |image: &Vec<u8>| bitstream::check_decode_encode_identity(image),
    );
}

#[test]
fn bitstream_mutation_robustness() {
    check(
        "bitstream/mutation",
        bitstream::generate,
        bitstream::shrink,
        bitstream::check_mutation_robustness,
    );
}

#[test]
fn metrics_json_roundtrip() {
    check(
        "metrics/roundtrip",
        metrics::generate,
        metrics::shrink,
        metrics::check_roundtrip,
    );
}

#[test]
fn metrics_merge_order_independent() {
    check(
        "metrics/merge-order",
        metrics::generate,
        metrics::shrink,
        metrics::check_merge_order_independent,
    );
}

#[test]
fn serve_schedule_is_enumeration_order_independent() {
    // Serving runs a full event loop per case (and three permuted reruns),
    // so this property uses a quarter of the configured case count.
    let mut runner = Runner::from_env();
    let mut config = runner.config().clone();
    config.cases = (config.cases / 4).max(1);
    runner = Runner::new(config);
    runner.check(
        "serve/order-independence",
        serve::generate,
        serve::shrink,
        serve::check_order_independence,
    );
}

#[test]
fn serve_conserves_requests_without_starvation() {
    let mut runner = Runner::from_env();
    let mut config = runner.config().clone();
    config.cases = (config.cases / 4).max(1);
    runner = Runner::new(config);
    runner.check(
        "serve/conservation",
        serve::generate,
        serve::shrink,
        serve::check_conservation,
    );
}

#[test]
fn serve_queue_matches_model() {
    // The admission queue (separate batchable and exclusive stores, sorted
    // flag, per-tenant stamp index) and the batch coalescer against a
    // plain admission-order `Vec`: admits under both shed policies, takes
    // at the scheduler's anchors and at any index, and steals.
    check(
        "serve/queue-model",
        queue::generate,
        queue::shrink,
        queue::check,
    );
}

#[test]
fn serve_dispatch_charges_the_round_quote() {
    // One dispatch of random width on a cold slice, under a random
    // profile (zero-cycle items included) and partition: its exec time is
    // the core `RoundQuote` round, and the quote is the stated roofline.
    check(
        "serve/round-law",
        round::generate,
        round::shrink,
        round::check,
    );
}

#[test]
fn cluster_conserves_requests_across_shards() {
    // Cluster-wide and per-shard `completed + shed + stolen == submitted`,
    // exactly-once termination, and balanced steal accounting, at the full
    // configured case count — this is the gate for the cluster layer.
    check(
        "cluster/conservation",
        cluster::generate,
        cluster::shrink,
        cluster::check_conservation,
    );
}

#[test]
fn cluster_view_is_enumeration_order_independent() {
    check(
        "cluster/order-independence",
        cluster::generate,
        cluster::shrink,
        cluster::check_order_independence,
    );
}

#[test]
fn single_shard_cluster_is_the_plain_server() {
    check(
        "cluster/single-shard",
        cluster::generate,
        cluster::shrink,
        cluster::check_single_shard_equivalence,
    );
}

#[test]
fn parallel_shard_stepping_is_byte_identical() {
    // Pumping the epoch loop's shards on 4 worker threads must reproduce
    // the sequential completions, sheds, schedules, and counters exactly.
    check(
        "cluster/parallel-stepping",
        cluster::generate,
        cluster::shrink,
        cluster::check_parallel_equivalence,
    );
}

#[test]
fn sampled_simulation_stays_within_its_bounds() {
    // Each sampled case replays the whole trace at full fidelity as the
    // oracle, so this property runs an eighth of the configured case count.
    let mut runner = Runner::from_env();
    let mut config = runner.config().clone();
    config.cases = (config.cases / 8).max(1);
    runner = Runner::new(config);
    runner.check(
        "sample/within-bounds",
        sample::generate,
        sample::shrink,
        sample::check_within_bounds,
    );
}

#[test]
fn sampled_simulation_is_deterministic() {
    let mut runner = Runner::from_env();
    let mut config = runner.config().clone();
    config.cases = (config.cases / 8).max(1);
    runner = Runner::new(config);
    runner.check(
        "sample/determinism",
        sample::generate,
        sample::shrink,
        sample::check_determinism,
    );
}

#[test]
fn kernel_circuits_fold_equivalently_on_random_tiles() {
    // Every benchmark kernel, random tile sizes and stimuli: mapped+folded
    // execution must track the direct evaluator. Kernels are much larger
    // than grammar circuits, so this property runs a quarter of the
    // configured case count.
    use freac_fold::{compile_fold, schedule_fold, FoldConstraints, LutMode};
    use freac_netlist::eval::Evaluator;
    use freac_netlist::techmap::{tech_map, TechMapOptions};
    use freac_netlist::Value;

    let mut runner = Runner::from_env();
    let mut config = runner.config().clone();
    config.cases = (config.cases / 4).max(1);
    runner = Runner::new(config);

    let ids = freac_kernels::all_kernels();
    runner.check(
        "fold/kernels",
        |rng| {
            let id = *rng.pick(&ids);
            let clusters = 1 + rng.index(4);
            let cycles = 1 + rng.index(3);
            let seeds: Vec<u32> = (0..8).map(|_| rng.next_u32() % 1024).collect();
            (id, clusters, cycles, seeds)
        },
        |case| {
            let mut out = Vec::new();
            if case.1 > 1 {
                out.push((case.0, 1, case.2, case.3.clone()));
            }
            if case.2 > 1 {
                out.push((case.0, case.1, 1, case.3.clone()));
            }
            out
        },
        |&(id, clusters, cycles, ref seeds)| {
            let circuit = freac_kernels::kernel(id).circuit();
            let mapped = tech_map(&circuit, TechMapOptions::lut4())
                .map_err(|e| format!("{id}: tech_map refused: {e}"))?;
            let cons = FoldConstraints::for_tile(clusters, LutMode::Lut4);
            let schedule = schedule_fold(&mapped, &cons)
                .map_err(|e| format!("{id}: schedule_fold refused: {e}"))?;
            let plan = compile_fold(&mapped, &schedule)
                .map_err(|e| format!("{id}: compile_fold refused: {e}"))?;
            let mut folded = plan.executor();
            let mut direct = Evaluator::new(&circuit);
            let inputs: Vec<Value> = circuit
                .primary_inputs()
                .iter()
                .enumerate()
                .map(|(i, _)| Value::Word(seeds[i % seeds.len()]))
                .collect();
            for cycle in 0..cycles {
                let a = folded
                    .run_cycle(&inputs)
                    .map_err(|e| format!("{id}: folded cycle {cycle} failed: {e}"))?;
                let b = direct
                    .run_cycle(&inputs)
                    .map_err(|e| format!("{id}: direct cycle {cycle} failed: {e}"))?;
                if a != b {
                    return Err(format!(
                        "{id} x{clusters} diverged at cycle {cycle}: folded {a:?} != direct {b:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}
