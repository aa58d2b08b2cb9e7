//! End-to-end integration of the mini-HLS front end with the FReaC core:
//! loop kernels compile, map, fold, execute bit-exactly, time, and run in
//! offload sessions — the full "bring your own kernel" path.

use freac::core::detailed::{roofline_item_cycles, simulate_slice_pass};
use freac::core::exec::{run_kernel, ExecConfig, KernelSpec};
use freac::core::{Accelerator, AcceleratorTile, OffloadSession, SlicePartition};
use freac::hls::library;
use freac::hls::{Expr, LoopKernel, Reduce};
use freac::kernels::DataGen;
use freac::netlist::Value;

fn spec_for(k: &LoopKernel, items: u64) -> KernelSpec {
    KernelSpec {
        name: k.name().to_owned(),
        items,
        cycles_per_item: k.states_per_item(),
        read_words_per_item: k.read_words_per_item(),
        write_words_per_item: k.write_words_per_item(),
        working_set_per_tile: 8 * 1024,
        input_bytes: items * k.read_words_per_item() * 4,
        output_bytes: items * 4,
    }
}

#[test]
fn library_kernels_run_the_whole_pipeline() {
    let cfg = ExecConfig {
        partition: SlicePartition::end_to_end(),
        slices: 8,
        dirty_fraction: 0.5,
    };
    for k in [
        library::dot(16),
        library::saxpy(16, 5),
        library::l2_norm_sq(16),
        library::relu_sum(16, 100),
        library::horner(8, 3),
        library::peak(16),
    ] {
        let circuit = k.compile().expect("compiles");
        let accel = Accelerator::map(&circuit, &AcceleratorTile::new(1).expect("tile"))
            .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
        let run = run_kernel(&accel, &spec_for(&k, 50_000), &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
        assert!(run.kernel_time_ps > 0, "{}", k.name());
        assert!(run.power_w > 0.0, "{}", k.name());
    }
}

#[test]
fn hls_kernel_folded_execution_matches_loop_semantics() {
    let trip = 12u32;
    let k = library::saxpy(trip, 9);
    let circuit = k.compile().expect("compiles");
    let accel = Accelerator::map(&circuit, &AcceleratorTile::new(2).expect("tile")).expect("maps");
    let mut gen = DataGen::with_seed(99);
    let xs = gen.words(trip as usize, 1 << 20);
    let ys = gen.words(trip as usize, 1 << 20);
    let mut hw = accel.fold_plan().executor();
    let mut out = Vec::new();
    for i in 0..trip as usize {
        out = hw
            .run_cycle(&[Value::Word(xs[i]), Value::Word(ys[i])])
            .expect("runs");
    }
    assert_eq!(out[0], Value::Word(k.reference(&[("x", &xs), ("y", &ys)])));
}

#[test]
fn hls_kernels_validate_the_detailed_simulator() {
    let k = library::dot(32);
    let circuit = k.compile().expect("compiles");
    let accel = Accelerator::map(&circuit, &AcceleratorTile::new(1).expect("tile")).expect("maps");
    let spec = spec_for(&k, 10_000);
    let p = SlicePartition::end_to_end();
    let detailed = simulate_slice_pass(&accel, &spec, &p).expect("simulates");
    let roofline = roofline_item_cycles(&accel, &spec, &p).expect("estimates");
    assert!(detailed.pass_cycles as u64 >= accel.fold_cycles() as u64);
    assert!(
        detailed.pass_cycles <= roofline * 4 + 64,
        "detailed {} vs roofline {roofline}",
        detailed.pass_cycles
    );
}

#[test]
fn mixed_hls_and_benchmark_session() {
    // A session interleaving a custom HLS kernel with a benchmark kernel:
    // each reconfigures on first use, then hits the configuration cache.
    let cfg = ExecConfig {
        partition: SlicePartition::end_to_end(),
        slices: 4,
        dirty_fraction: 0.25,
    };
    let tile = AcceleratorTile::new(1).expect("tile");
    let custom = Accelerator::map(&library::l2_norm_sq(16).compile().expect("compiles"), &tile)
        .expect("maps");
    let bench = Accelerator::map(
        &freac::kernels::kernel(freac::kernels::KernelId::Vadd).circuit(),
        &tile,
    )
    .expect("maps");
    let spec_c = spec_for(&library::l2_norm_sq(16), 10_000);
    let spec_b = KernelSpec {
        name: "vadd".into(),
        items: 10_000,
        cycles_per_item: 1,
        read_words_per_item: 2,
        write_words_per_item: 1,
        working_set_per_tile: 6 * 1024,
        input_bytes: 80_000,
        output_bytes: 40_000,
    };
    let mut session = OffloadSession::with_config_slots(cfg, 2).expect("begins");
    session.offload(&custom, &spec_c).expect("offloads");
    session.offload(&bench, &spec_b).expect("offloads");
    session.offload(&custom, &spec_c).expect("offloads");
    session.offload(&bench, &spec_b).expect("offloads");
    let flags: Vec<bool> = session.runs().iter().map(|r| r.reconfigured).collect();
    assert_eq!(flags, vec![true, true, false, false]);
}

#[test]
fn hls_error_paths_surface_cleanly() {
    // A body referencing an undeclared port must fail to compile, and the
    // error must be displayable.
    let bad = LoopKernel::new("bad", 4).body(Expr::port("nope"));
    let err = bad.compile().expect_err("must fail");
    assert!(err.to_string().contains("nope"));

    // Reduction over an unbound constant likewise.
    let bad = LoopKernel::new("bad2", 4)
        .input("x")
        .body(Expr::port("x"))
        .reduce(Reduce::custom(0, Expr::acc().add(Expr::name("ghost"))));
    let err = bad.compile().expect_err("must fail");
    assert!(err.to_string().contains("ghost"));
}

#[test]
fn states_per_item_feeds_the_timing_model_consistently() {
    // More FSM states per item (more ports) must never make the modeled
    // kernel faster, all else equal.
    let cfg = ExecConfig {
        partition: SlicePartition::end_to_end(),
        slices: 8,
        dirty_fraction: 0.5,
    };
    let tile = AcceleratorTile::new(1).expect("tile");
    let one_port = library::l2_norm_sq(32);
    let two_port = library::dot(32);
    let t1 = {
        let a = Accelerator::map(&one_port.compile().expect("c"), &tile).expect("m");
        run_kernel(&a, &spec_for(&one_port, 100_000), &cfg)
            .expect("runs")
            .kernel_time_ps
    };
    let t2 = {
        let a = Accelerator::map(&two_port.compile().expect("c"), &tile).expect("m");
        run_kernel(&a, &spec_for(&two_port, 100_000), &cfg)
            .expect("runs")
            .kernel_time_ps
    };
    assert!(
        t2 >= t1,
        "dot (2 ports, {t2} ps) cannot be faster than l2 (1 port, {t1} ps)"
    );
}
