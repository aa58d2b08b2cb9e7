//! Round-law oracle: a serving dispatch charges exactly the
//! [`RoundQuote`] round, and the quote is the stated roofline.
//!
//! Each case registers one kernel-pool circuit under a random request
//! profile (zero-cycle items included) on a random valid partition, lands
//! `lanes` requests on a cold one-slice server at t = 0, and checks the
//! single dispatch they form:
//!
//! * every rider's `exec_ps` is the quote's `time_ps(lanes, tiles)`, with
//!   `tiles` the partition's MCCs over the tile size (no working-set cap);
//! * the quote's cycles are `max(cycles × steps × ceil(lanes / tiles),
//!   words × lanes, 1)`, written out here at one word per cycle;
//! * every rider finishes at `setup_ps + exec_ps`.

use std::sync::Arc;

use freac_core::{reconfig_cost, RoundQuote, SlicePartition};
use freac_netlist::MAX_BATCH_LANES;
use freac_rand::Rng64;
use freac_serve::{Request, RequestProfile, ServeConfig, Server};

use crate::shrink;

use super::serve::kernel_pool;

/// One oracle case.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundCase {
    /// Index into the shared kernel pool.
    pub kernel: usize,
    /// The profile the kernel is registered under.
    pub profile: RequestProfile,
    /// `(compute, scratchpad, cache)` ways; compute is even and >= 2.
    pub ways: (usize, usize, usize),
    /// Requests in the dispatch (1..=2 × tiles).
    pub lanes: usize,
}

/// Draws a random [`RoundCase`]; about one profile in four has
/// zero-cycle items.
pub fn generate(rng: &mut Rng64) -> RoundCase {
    let compute = 2 * (1 + rng.index(8));
    let scratchpad = rng.index(20 - compute + 1);
    let cache = 20 - compute - scratchpad;
    let tiles = SlicePartition::new(compute, scratchpad, cache)
        .expect("drawn split is valid")
        .mccs();
    RoundCase {
        kernel: rng.index(kernel_pool().len()),
        profile: RequestProfile {
            cycles_per_item: if rng.index(4) == 0 { 0 } else { rng.below(12) },
            read_words: rng.below(9),
            write_words: rng.below(5),
        },
        ways: (compute, scratchpad, cache),
        lanes: 1 + rng.index(2 * tiles),
    }
}

/// Shrink candidates: fewer lanes, then a smaller profile.
pub fn shrink(case: &RoundCase) -> Vec<RoundCase> {
    let mut out: Vec<RoundCase> = shrink::halvings_usize(case.lanes - 1)
        .into_iter()
        .map(|l| RoundCase {
            lanes: l + 1,
            ..case.clone()
        })
        .collect();
    let p = case.profile;
    for profile in [
        RequestProfile {
            cycles_per_item: p.cycles_per_item / 2,
            ..p
        },
        RequestProfile {
            read_words: p.read_words / 2,
            ..p
        },
        RequestProfile {
            write_words: p.write_words / 2,
            ..p
        },
    ] {
        if profile != p {
            out.push(RoundCase {
                profile,
                ..case.clone()
            });
        }
    }
    out
}

/// Runs the case's dispatch and checks it against the quote.
pub fn check(case: &RoundCase) -> Result<(), String> {
    let (compute, scratchpad, cache) = case.ways;
    let partition = SlicePartition::new(compute, scratchpad, cache).map_err(|e| e.to_string())?;
    let (name, accel, _) = &kernel_pool()[case.kernel];
    let cfg = ServeConfig {
        partition,
        slices: 1,
        queue_depth: case.lanes,
        max_lanes: MAX_BATCH_LANES,
        ..ServeConfig::default()
    };
    let mut server = Server::new(cfg).map_err(|e| format!("server config rejected: {e}"))?;
    server
        .register_accelerator(name, Arc::clone(accel), case.profile)
        .map_err(|e| format!("register: {e}"))?;
    server.add_tenant("t", 1).map_err(|e| e.to_string())?;
    for seq in 0..case.lanes as u64 {
        server
            .submit(Request::new("t", seq, name, 0, seq))
            .map_err(|e| format!("submit: {e}"))?;
    }
    let report = server
        .run_to_completion()
        .map_err(|e| format!("run: {e}"))?;
    if report.dispatches.len() != 1 || report.completions.len() != case.lanes {
        return Err(format!(
            "{} lanes formed {} dispatches and {} completions, want 1 and {}",
            case.lanes,
            report.dispatches.len(),
            report.completions.len(),
            case.lanes
        ));
    }

    let p = case.profile;
    let words = p.read_words + p.write_words;
    let quote = RoundQuote::new(accel, p.cycles_per_item, words, &partition);
    let tiles = partition.mccs() / accel.tile().mccs();
    if quote.area_tiles() != tiles {
        return Err(format!(
            "quote hosts {} tiles, want {tiles}",
            quote.area_tiles()
        ));
    }
    let waves = case.lanes.div_ceil(tiles) as u64;
    let roofline = (p.cycles_per_item * accel.fold_cycles() as u64 * waves)
        .max(words * case.lanes as u64)
        .max(1);
    if quote.cycles(case.lanes, tiles) != roofline {
        return Err(format!(
            "quote charges {} cycles, the roofline is {roofline}",
            quote.cycles(case.lanes, tiles)
        ));
    }
    let exec_ps = quote.time_ps(case.lanes, tiles);
    let setup_ps = reconfig_cost(accel, &partition, cfg.dirty_fraction, cfg.handoff)
        .map_err(|e| e.to_string())?
        .setup_ps();
    for c in &report.completions {
        if c.exec_ps != exec_ps || c.reconfig_ps != setup_ps || c.done_ps != setup_ps + exec_ps {
            return Err(format!(
                "{}#{}: exec {} reconfig {} done {}, want exec {exec_ps} reconfig {setup_ps} \
                 done {}",
                c.tenant,
                c.seq,
                c.exec_ps,
                c.reconfig_ps,
                c.done_ps,
                setup_ps + exec_ps
            ));
        }
    }
    Ok(())
}
