//! Serve three tenants' AES/GEMM offload requests through the LLC's
//! compute slices — admission control, batch coalescing, and weighted-fair
//! slice scheduling over `freac-serve`.
//!
//! The closed-loop drivers keep each tenant's request window full: a
//! completion triggers the next request after think time, a shed request
//! is retried with backoff. The run prints every tenant's latency
//! quantiles (interpolated p50/p95/p99 straight from the probe
//! histograms) and the batching speedup over a single-lane rerun of the
//! identical workload.
//!
//! Run with: `cargo run --release --example serve_offload`

use freac::kernels::KernelId;
use freac::serve::{
    tenant_table, ClosedLoop, SchedPolicy, ServeConfig, ServeReport, Server, TenantSpec,
};

const SEED: u64 = 2028;

fn specs() -> Vec<TenantSpec> {
    // An interactive tenant (high weight, deadlines), a batch tenant, and
    // a mixed tenant that issues the occasional exclusive request.
    let mut web = TenantSpec::new("web", "aes", 40);
    web.weight = 4;
    web.concurrency = 8;
    web.deadline_ps = Some(25_000_000);
    let mut train = TenantSpec::new("train", "gemm", 30);
    train.weight = 1;
    train.concurrency = 6;
    let mut etl = TenantSpec::new("etl", "aes", 30);
    etl.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    etl.weight = 2;
    etl.concurrency = 6;
    etl.exclusive_permille = 100;
    vec![web, train, etl]
}

/// Serves the workload with up to `max_lanes` lanes per dispatch.
fn serve(max_lanes: usize) -> Result<ServeReport, Box<dyn std::error::Error>> {
    let mut server = Server::new(ServeConfig {
        max_lanes,
        policy: SchedPolicy::WeightedFair,
        ..ServeConfig::default()
    })?;
    server.register_paper_kernel(KernelId::Aes)?;
    server.register_paper_kernel(KernelId::Gemm)?;
    let specs = specs();
    for s in &specs {
        server.add_tenant(&s.name, s.weight)?;
    }
    let mut driver = ClosedLoop::new(&specs, SEED);
    for req in driver.initial() {
        server.submit(req)?;
    }
    Ok(server.run(|outcome| driver.on_outcome(outcome))?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let batched = serve(ServeConfig::default().max_lanes)?;
    println!("three tenants, aes+gemm, weighted-fair over 4 slices:\n");
    print!("{}", tenant_table(&batched));
    println!(
        "\nbatch occupancy: {} coalesced dispatches, {} single-lane",
        batched.probes.counter("serve.batches.coalesced"),
        batched.probes.counter("serve.batches.single_lane"),
    );
    println!(
        "reconfigurations: {} ({:.1} us total), teardown reclaim {:.1} us",
        batched.probes.counter("serve.reconfigs"),
        batched.probes.counter("serve.reconfig.total_ps") as f64 / 1e6,
        batched.teardown_ps as f64 / 1e6,
    );
    println!(
        "deadlines: {} met, {} missed",
        batched.probes.counter("serve.deadlines.met"),
        batched.probes.counter("serve.deadlines.missed"),
    );

    let single = serve(1)?;
    println!(
        "\nsame workload single-lane: {:.1} us vs {:.1} us batched ({:.2}x)",
        single.span_ps as f64 / 1e6,
        batched.span_ps as f64 / 1e6,
        single.span_ps as f64 / batched.span_ps as f64,
    );
    assert!(
        batched.span_ps < single.span_ps,
        "batching must win on this workload"
    );
    // A report exports to the global probe only what is new since the
    // server's last one, so it holds each completion of both runs once.
    if let Some(probe) = freac::probe::global::global() {
        assert_eq!(
            probe.snapshot().counter("serve.requests.completed"),
            (batched.completions.len() + single.completions.len()) as u64,
            "the global probe counts every completion once"
        );
    }
    freac::probe::global::finish()?;
    Ok(())
}
