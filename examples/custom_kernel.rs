//! Bring your own kernel: describe a computation at loop level with the
//! mini-HLS front end, compile it to an accelerator circuit, verify the
//! folded hardware bit-exactly against the loop's software semantics, and
//! time a batched run on the full 8-slice system.
//!
//! The kernel here is an integer SAXPY-and-clamp:
//! `acc += min(a * x[i] + y[i], CLAMP)` — something no fixed-function
//! accelerator ships, which is exactly FReaC Cache's pitch.
//!
//! Run with: `cargo run --release --example custom_kernel`

use freac::core::exec::{run_kernel, ExecConfig, KernelSpec};
use freac::core::{Accelerator, AcceleratorTile, SlicePartition};
use freac::hls::{Expr, LoopKernel, Reduce};
use freac::kernels::DataGen;
use freac::netlist::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the kernel: 64 iterations per work item.
    let trip = 64u32;
    let kernel = LoopKernel::new("saxpy_clamp", trip)
        .input("x")
        .input("y")
        .constant("a", 13)
        .constant("clamp", 1_000_000)
        .body(
            Expr::port("x")
                .mul(Expr::name("a"))
                .add(Expr::port("y"))
                .min(Expr::name("clamp")),
        )
        .reduce(Reduce::sum());

    // 2. Compile and map onto a 2-MCC tile.
    let circuit = kernel.compile()?;
    let accel = Accelerator::map(&circuit, &AcceleratorTile::new(2)?)?;
    println!(
        "compiled '{}': {} LUTs, {} MACs, {} fold steps, effective clock {:.0} MHz",
        accel.name(),
        accel.stats().luts,
        accel.stats().macs,
        accel.fold_cycles(),
        accel.effective_clock_mhz(),
    );

    // 3. Verify the folded hardware against the loop semantics on random
    //    data.
    let mut gen = DataGen::with_seed(42);
    let xs = gen.words(trip as usize, 1 << 16);
    let ys = gen.words(trip as usize, 1 << 16);
    let expect = kernel.reference(&[("x", &xs), ("y", &ys)]);
    let mut hw = accel.fold_plan().executor();
    let mut out = Vec::new();
    for i in 0..trip as usize {
        out = hw.run_cycle(&[Value::Word(xs[i]), Value::Word(ys[i])])?;
    }
    assert_eq!(out[0], Value::Word(expect));
    assert_eq!(out[1], Value::Bit(true));
    println!("folded hardware result {expect} matches the loop's software semantics");

    // 4. Time a batched run: 100k work items across all 8 slices. The HLS
    //    description supplies the schedule view the timing model needs.
    let items = 100_000u64;
    let spec = KernelSpec {
        name: kernel.name().to_owned(),
        items,
        cycles_per_item: kernel.states_per_item(),
        read_words_per_item: kernel.read_words_per_item(),
        write_words_per_item: kernel.write_words_per_item(),
        working_set_per_tile: 2 * trip as u64 * 4,
        input_bytes: items * 2 * trip as u64 * 4,
        output_bytes: items * 4,
    };
    let run = run_kernel(
        &accel,
        &spec,
        &ExecConfig {
            partition: SlicePartition::end_to_end(),
            slices: 8,
            dirty_fraction: 0.5,
        },
    )?;
    println!(
        "batched run: {} tiles, kernel {:.2} ms, {:.2} W, {}",
        run.total_tiles,
        run.kernel_time_ps as f64 / 1e9,
        run.power_w,
        if run.memory_bound {
            "memory bound"
        } else {
            "compute bound"
        },
    );
    Ok(())
}
