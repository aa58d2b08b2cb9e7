//! Quickstart: build an accelerator circuit, fold it onto a micro compute
//! cluster, execute it bit-exactly, and get paper-style timing for a
//! batched run.
//!
//! Run with: `cargo run --release --example quickstart`

use freac::core::exec::{run_kernel, ExecConfig, KernelSpec};
use freac::core::{Accelerator, AcceleratorTile, SlicePartition};
use freac::netlist::builder::CircuitBuilder;
use freac::netlist::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe a datapath: a streaming dot-product PE (acc += a * b).
    let mut b = CircuitBuilder::new("dot-pe");
    let a = b.word_input("a", 32);
    let x = b.word_input("b", 32);
    let (acc, h) = b.word_reg(0, 32);
    let m = b.mac(&a, &x, &acc);
    b.connect_word_reg(h, &m);
    b.word_output("acc", &m);
    let circuit = b.finish()?;

    // 2. Map it onto one micro compute cluster: technology mapping to
    //    4-LUTs, logic folding, bitstream packing.
    let tile = AcceleratorTile::new(1)?;
    let accel = Accelerator::map(&circuit, &tile)?;
    println!(
        "mapped '{}': {} fold steps, effective clock {:.0} MHz, {} config bytes",
        accel.name(),
        accel.fold_cycles(),
        accel.effective_clock_mhz(),
        accel.bitstream().total_bytes()
    );

    // 3. Execute the folded circuit functionally — bit-exact.
    let pairs = [(3u32, 7u32), (10, 11), (1000, 2000)];
    let mut expect = 0u32;
    let mut out = Vec::new();
    let mut ex = accel.fold_plan().executor();
    for (av, xv) in pairs {
        expect = expect.wrapping_add(av.wrapping_mul(xv));
        out = ex.run_cycle(&[Value::Word(av), Value::Word(xv)])?;
    }
    assert_eq!(out[0], Value::Word(expect));
    println!("folded execution result: {expect} (matches software)");

    // 4. Time a batched data-parallel run on the paper's system: 8 slices,
    //    16 MCCs + 640 KB scratchpad per slice, 128 KB left as cache.
    let spec = KernelSpec {
        name: "dot".into(),
        items: 4 << 20,
        cycles_per_item: 1,
        read_words_per_item: 2,
        write_words_per_item: 0,
        working_set_per_tile: 4 * 1024,
        input_bytes: (4u64 << 20) * 8,
        output_bytes: 4,
    };
    let cfg = ExecConfig {
        partition: SlicePartition::end_to_end(),
        slices: 8,
        dirty_fraction: 0.5,
    };
    let run = run_kernel(&accel, &spec, &cfg)?;
    println!(
        "batched run: {} tiles, kernel {:.1} us, setup {:.1} us, {:.2} W, {}",
        run.total_tiles,
        run.kernel_time_ps as f64 / 1e6,
        run.setup.total_ps() as f64 / 1e6,
        run.power_w,
        if run.memory_bound {
            "memory bound"
        } else {
            "compute bound"
        },
    );
    Ok(())
}
