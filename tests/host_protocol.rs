//! End-to-end host-interface behaviour: the six-step offload protocol,
//! partition encoding, setup-time accounting, and its interaction with the
//! timed execution model.

use freac::core::ccctrl::{decode_ways, encode_ways, regs, CcCtrl, CtrlState};
use freac::core::exec::{run_kernel, ExecConfig};
use freac::core::{Accelerator, AcceleratorTile, CoreError, SlicePartition};
use freac::experiments::runner::spec_of;
use freac::kernels::{kernel, KernelId, BATCH};
use freac::sim::DramModel;

#[test]
fn offload_flow_reaches_done_and_accumulates_time() {
    let dram = DramModel::ddr4_2400_x4();
    let accel = Accelerator::map(
        &kernel(KernelId::Dot).circuit(),
        &AcceleratorTile::new(1).expect("tile"),
    )
    .expect("dot maps");

    let mut ctrl = CcCtrl::new(1.0).expect("dirty fraction in range");
    let p = SlicePartition::end_to_end();
    ctrl.store(regs::SELECT, encode_ways(&p), &dram)
        .expect("select");
    assert_eq!(ctrl.state(), CtrlState::Selected);
    ctrl.store(regs::FLUSH, 1, &dram).expect("flush");
    ctrl.store(regs::LOCK, 1, &dram).expect("lock");
    ctrl.store(
        regs::CONFIG_DATA,
        accel.bitstream().total_bytes() as u64,
        &dram,
    )
    .expect("configure");
    ctrl.store(regs::SPAD_FILL, 64 * 1024, &dram).expect("fill");
    ctrl.store(regs::OFFSET, 0x1000, &dram).expect("offset");
    ctrl.store(regs::RUN, 1, &dram).expect("run");
    assert_eq!(ctrl.load(regs::RUN).expect("poll"), 1);
    ctrl.complete_run().expect("complete");
    assert_eq!(ctrl.state(), CtrlState::Done);

    let t = ctrl.timing();
    assert!(t.flush_ps > 0, "worst-case flush must cost time");
    assert!(t.config_ps > 0);
    assert!(t.fill_ps > 0);
}

#[test]
fn protocol_rejects_out_of_order_operations() {
    let dram = DramModel::ddr4_2400_x4();
    let mut ctrl = CcCtrl::new(0.0).expect("dirty fraction in range");
    // Configure before lock.
    assert!(matches!(
        ctrl.store(regs::CONFIG_DATA, 128, &dram),
        Err(CoreError::ProtocolViolation { .. })
    ));
    // Lock before flush.
    let p = SlicePartition::balanced();
    ctrl.store(regs::SELECT, encode_ways(&p), &dram)
        .expect("select");
    assert!(matches!(
        ctrl.store(regs::LOCK, 1, &dram),
        Err(CoreError::ProtocolViolation { .. })
    ));
}

#[test]
fn partition_encoding_round_trips_all_valid_splits() {
    for p in SlicePartition::sweep(0)
        .into_iter()
        .chain(SlicePartition::sweep(2))
        .chain(SlicePartition::sweep(4))
    {
        let enc = encode_ways(&p);
        assert_eq!(decode_ways(enc).expect("valid split decodes"), p);
    }
}

#[test]
fn run_kernel_setup_matches_manual_protocol_costs() {
    // The exec model's setup accounting must equal driving the CC Ctrl by
    // hand with the same parameters.
    let id = KernelId::Stn2;
    let k = kernel(id);
    let w = k.workload(BATCH);
    let spec = spec_of(id, &w);
    let accel =
        Accelerator::map(&k.circuit(), &AcceleratorTile::new(1).expect("tile")).expect("stn2 maps");
    let cfg = ExecConfig {
        partition: SlicePartition::end_to_end(),
        slices: 8,
        dirty_fraction: 0.25,
    };
    let run = run_kernel(&accel, &spec, &cfg).expect("runs");

    let dram = DramModel::ddr4_2400_x4();
    let mut ctrl = CcCtrl::new(0.25).expect("dirty fraction in range");
    ctrl.store(regs::SELECT, encode_ways(&cfg.partition), &dram)
        .expect("select");
    ctrl.store(regs::FLUSH, 1, &dram).expect("flush");
    ctrl.store(regs::LOCK, 1, &dram).expect("lock");
    ctrl.store(
        regs::CONFIG_DATA,
        accel.bitstream().total_bytes() as u64,
        &dram,
    )
    .expect("config");
    let per_slice = spec
        .input_bytes
        .div_ceil(8)
        .min(cfg.partition.scratchpad_bytes());
    ctrl.store(regs::SPAD_FILL, per_slice, &dram).expect("fill");
    assert_eq!(run.setup, ctrl.timing());
}

#[test]
fn dirtier_caches_flush_longer() {
    let mk = |dirty: f64| {
        let dram = DramModel::ddr4_2400_x4();
        let mut ctrl = CcCtrl::new(dirty).expect("dirty fraction in range");
        let p = SlicePartition::max_compute();
        ctrl.store(regs::SELECT, encode_ways(&p), &dram)
            .expect("select");
        ctrl.store(regs::FLUSH, 1, &dram).expect("flush");
        ctrl.timing().flush_ps
    };
    let clean = mk(0.0);
    let half = mk(0.5);
    let full = mk(1.0);
    assert_eq!(clean, 0);
    assert!(half > 0);
    assert!(full > half * 3 / 2);
}
