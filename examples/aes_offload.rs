//! Offload AES-128 encryption to the LLC, end to end, through the
//! memory-mapped host interface — the six-step flow of the paper's Fig. 5:
//! select ways, flush, lock, configure, fill the scratchpad, run.
//!
//! The example also cross-checks the accelerator's folded execution against
//! the software AES reference (FIPS-197 semantics), block by block.
//!
//! Run with: `cargo run --release --example aes_offload`

use freac::core::ccctrl::{encode_ways, regs, CcCtrl};
use freac::core::{Accelerator, AcceleratorTile, SlicePartition};
use freac::kernels::aes;
use freac::netlist::Value;
use freac::sim::DramModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Map the AES circuit (the fixed key is part of the bitstream).
    let circuit = aes::build_circuit();
    let tile = AcceleratorTile::new(1)?;
    let accel = Accelerator::map(&circuit, &tile)?;
    println!(
        "AES-128 accelerator: {} 4-LUTs, {} fold steps per round-cycle",
        accel.stats().luts,
        accel.fold_cycles()
    );

    // --- Drive the host-interface protocol (Fig. 5, steps 1-6). ---
    let dram = DramModel::ddr4_2400_x4();
    let mut ctrl = CcCtrl::new(0.5)?; // assume half the flushed lines dirty
    let partition = SlicePartition::end_to_end();
    ctrl.store(regs::SELECT, encode_ways(&partition), &dram)?; // 1 select
    ctrl.store(regs::FLUSH, 1, &dram)?; //                        2 flush
    ctrl.store(regs::LOCK, 1, &dram)?; //                         3 lock
    ctrl.store(
        regs::CONFIG_DATA,
        accel.bitstream().total_bytes() as u64,
        &dram,
    )?; // 4
    let blocks: u64 = 1024;
    ctrl.store(regs::SPAD_FILL, blocks * 16, &dram)?; //          5 fill
    ctrl.store(regs::RUN, 1, &dram)?; //                          6 run
    println!(
        "setup: flush {:.1} us, config {:.1} us, fill {:.1} us",
        ctrl.timing().flush_ps as f64 / 1e6,
        ctrl.timing().config_ps as f64 / 1e6,
        ctrl.timing().fill_ps as f64 / 1e6,
    );

    // --- While "running", verify the datapath bit-exactly. ---
    let mut ex = accel.fold_plan().executor();
    let mut checked = 0;
    for blk in 0..8u64 {
        let mut pt = [0u8; 16];
        for (i, byte) in pt.iter_mut().enumerate() {
            *byte = (blk as u8).wrapping_mul(31).wrapping_add(i as u8 * 7);
        }
        let inputs: Vec<Value> = (0..4)
            .map(|c| {
                Value::Word(u32::from_le_bytes([
                    pt[c * 4],
                    pt[c * 4 + 1],
                    pt[c * 4 + 2],
                    pt[c * 4 + 3],
                ]))
            })
            .collect();
        let mut out = Vec::new();
        for _ in 0..11 {
            out = ex.run_cycle(&inputs)?;
        }
        let mut ct = [0u8; 16];
        for c in 0..4 {
            let w = out[c].as_word().expect("ciphertext word");
            ct[c * 4..c * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        assert_eq!(ct, aes::encrypt_block(&pt, &aes::KEY), "block {blk}");
        checked += 1;
    }
    ctrl.complete_run()?;
    println!("verified {checked} blocks against the FIPS-197 software reference");
    println!(
        "controller state after completion: {:?}; status register = {}",
        ctrl.state(),
        ctrl.load(regs::STATUS)?
    );
    Ok(())
}
