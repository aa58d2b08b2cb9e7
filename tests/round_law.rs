//! The cross-layer round law: a cold one-slice server charges exactly the
//! slice round the paper model (`run_kernel`) charges, on every paper
//! kernel, for both a lone request and a full lock-step batch.
//!
//! Both layers price a round through `freac_core::RoundQuote`; this test
//! pins the two end to end, so a serving change that drifts from the
//! paper figures (or the reverse) fails here.

use std::sync::Arc;

use freac::core::exec::{run_kernel, ExecConfig};
use freac::core::{reconfig_cost, RoundQuote, SlicePartition};
use freac::experiments::runner::{map_kernel, spec_of};
use freac::kernels::{all_kernels, kernel, BATCH};
use freac::serve::{Request, RequestProfile, ServeConfig, ServeReport, Server};

/// The paper's end-to-end split and the `cluster_affinity` split.
fn partitions() -> [SlicePartition; 2] {
    [
        SlicePartition::end_to_end(),
        SlicePartition::new(4, 10, 6).expect("valid split"),
    ]
}

/// A cold one-slice server with `name` registered, serving `lanes`
/// requests that all arrive at t = 0.
fn serve(
    accel: &Arc<freac::core::Accelerator>,
    name: &str,
    profile: RequestProfile,
    partition: SlicePartition,
    lanes: usize,
) -> ServeReport {
    let mut server = Server::new(ServeConfig {
        partition,
        slices: 1,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    server
        .register_accelerator(name, Arc::clone(accel), profile)
        .expect("kernel registers");
    server.add_tenant("t", 1).expect("tenant");
    for seq in 0..lanes as u64 {
        server
            .submit(Request::new("t", seq, name, 0, seq))
            .expect("request");
    }
    server.run_to_completion().expect("drains")
}

#[test]
fn serving_charges_the_paper_models_slice_round() {
    let cfg = ServeConfig::default();
    for partition in partitions() {
        for id in all_kernels() {
            let k = kernel(id);
            let name = id.name().to_lowercase();
            let accel = map_kernel(id, cfg.tile_mccs).expect("kernel maps");
            let profile = RequestProfile::of(&k.workload(1));
            let setup_ps = reconfig_cost(&accel, &partition, cfg.dirty_fraction, cfg.handoff)
                .expect("quote")
                .setup_ps();
            let clock = accel.tile().clock();
            let cell = format!("{id} on {partition:?}");

            // (a) One request: setup plus the quote's one-lane round.
            let quote = RoundQuote::new(
                &accel,
                profile.cycles_per_item,
                profile.read_words + profile.write_words,
                &partition,
            );
            let lone = serve(&accel, &name, profile, partition, 1);
            assert_eq!(lone.completions.len(), 1, "{cell}");
            assert_eq!(
                lone.completions[0].done_ps,
                setup_ps + quote.time_ps(1, quote.area_tiles()),
                "{cell}: lone request"
            );

            // (b) One lock-step round of `run_kernel`'s tiles: one
            // dispatch, done after setup plus the paper model's round.
            let run = run_kernel(
                &accel,
                &spec_of(id, &k.workload(BATCH)),
                &ExecConfig {
                    partition,
                    slices: 1,
                    dirty_fraction: cfg.dirty_fraction,
                },
            )
            .expect("paper model runs");
            let round = run
                .compute_cycles_per_item
                .max(run.mem_cycles_per_item)
                .max(1);
            assert_eq!(
                run.kernel_cycles,
                run.items_per_tile * round,
                "{cell}: run_kernel charges that round per item"
            );
            let batch = serve(&accel, &name, profile, partition, run.tiles_per_slice);
            assert_eq!(batch.dispatches.len(), 1, "{cell}: one dispatch");
            assert_eq!(batch.completions.len(), run.tiles_per_slice, "{cell}");
            for c in &batch.completions {
                assert_eq!(
                    c.done_ps,
                    setup_ps + clock.cycles_to_time(round),
                    "{cell}: batch of {}",
                    run.tiles_per_slice
                );
            }
        }
    }
}
