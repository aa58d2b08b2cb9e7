//! A minimal self-timed bench harness (std-only, no registry access).
//!
//! The workspace builds hermetically, so Criterion is replaced by this
//! small fixed-iteration timer that reports mean wall-clock per iteration
//! for a bench's hot spot. Benches stay `harness = false` binaries,
//! runnable with `cargo bench -p bench` or individually via
//! `cargo bench -p bench --bench serve`. The paper's tables and figures
//! print from the `paper_figures` example.
//!
//! Next to each printed line the harness drops a machine-readable
//! `BENCH_<name>.json` (mean/min ns per iteration, iteration count, git
//! revision) into [`bench_output_dir`] so CI can archive trajectories and
//! regressions diff against committed baselines. Two environment knobs:
//!
//! * `FREAC_BENCH_DIR` — where the JSON files land (default
//!   `target/bench-json`);
//! * `FREAC_BENCH_SMOKE` — when set (non-empty, not `0`), clamps every
//!   bench to one timed iteration: CI proves the benches run without
//!   paying for statistically meaningful timings.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The measured outcome of one [`bench_function`] call.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name as printed.
    pub name: String,
    /// Timed iterations actually run (after any smoke clamp).
    pub iters: u32,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest single iteration in nanoseconds.
    pub min_ns: f64,
    /// Whether smoke mode clamped the iteration count.
    pub smoke: bool,
}

/// Whether `FREAC_BENCH_SMOKE` requests one-iteration smoke runs.
pub fn smoke_mode() -> bool {
    std::env::var("FREAC_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Directory receiving `BENCH_<name>.json` files (`FREAC_BENCH_DIR`,
/// default `target/bench-json`).
pub fn bench_output_dir() -> PathBuf {
    std::env::var_os("FREAC_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench-json"))
}

/// Times `f` for `iters` iterations after one warm-up call, prints a
/// mean per-iteration line (`name ... 12.345 ms/iter (10 iters)`), and
/// writes `BENCH_<name>.json` into [`bench_output_dir`]. Returns the
/// measurement so callers can derive speedups.
pub fn bench_function<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> BenchResult {
    black_box(f()); // warm-up (also primes the process-wide mapping cache)
    let smoke = smoke_mode();
    let iters = if smoke { 1 } else { iters.max(1) };
    let mut total_ns = 0u128;
    let mut min_ns = u128::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        let ns = start.elapsed().as_nanos();
        total_ns += ns;
        min_ns = min_ns.min(ns);
    }
    let mean_ns = total_ns as f64 / f64::from(iters);
    let result = BenchResult {
        name: name.to_owned(),
        iters,
        mean_ns,
        min_ns: min_ns as f64,
        smoke,
    };
    println!(
        "{name} ... {} ({iters} iters)",
        fmt_duration(std::time::Duration::from_nanos(mean_ns as u64))
    );
    result.emit_json();
    result
}

impl BenchResult {
    /// How many times faster this measurement is than `other`, by mean.
    pub fn speedup_over(&self, other: &BenchResult) -> f64 {
        other.mean_ns / self.mean_ns.max(f64::MIN_POSITIVE)
    }

    fn emit_json(&self) {
        let dir = bench_output_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return; // benches must not fail on a read-only checkout
        }
        let path = dir.join(format!("BENCH_{}.json", sanitize(&self.name)));
        let body = format!(
            "{{\n  \"name\": \"{}\",\n  \"iters\": {},\n  \"mean_ns_per_iter\": {:.1},\n  \"min_ns_per_iter\": {:.1},\n  \"git_rev\": \"{}\",\n  \"smoke\": {}\n}}\n",
            self.name,
            self.iters,
            self.mean_ns,
            self.min_ns,
            git_rev(),
            self.smoke
        );
        let _ = std::fs::write(path, body);
    }
}

/// Writes an arbitrary named JSON document (pre-rendered body) into the
/// bench output directory as `BENCH_<name>.json` — used by bench targets
/// that record derived quantities such as speedup ratios.
pub fn write_bench_json(name: &str, body: &str) {
    let dir = bench_output_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join(format!("BENCH_{}.json", sanitize(name))), body);
}

/// The current git revision (short), suffixed `-dirty` when the working
/// tree has uncommitted changes, or `"unknown"` outside a checkout.
pub fn git_rev() -> String {
    // `--exclude=*` skips tags, so the name is always the commit hash.
    std::process::Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=7",
            "--exclude=*",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn fmt_duration(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s/iter", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms/iter", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us/iter", ns as f64 / 1e3)
    } else {
        format!("{ns} ns/iter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_prints() {
        let dir = std::env::temp_dir().join(format!("freac-bench-{}", std::process::id()));
        std::env::set_var("FREAC_BENCH_DIR", &dir);
        let mut calls = 0u32;
        let r = bench_function("smoke test", 3, || {
            calls += 1;
            calls
        });
        std::env::remove_var("FREAC_BENCH_DIR");
        if r.smoke {
            assert_eq!(calls, 2, "one warm-up plus one smoke iteration");
        } else {
            assert_eq!(calls, 4, "one warm-up plus three timed iterations");
            assert_eq!(r.iters, 3);
        }
        assert!(r.mean_ns >= 0.0 && r.min_ns <= r.mean_ns * 1.001);
        let json = std::fs::read_to_string(dir.join("BENCH_smoke_test.json")).unwrap();
        assert!(json.contains("\"name\": \"smoke test\""));
        assert!(json.contains("mean_ns_per_iter"));
        assert!(json.contains("min_ns_per_iter"));
        assert!(json.contains("git_rev"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn speedup_is_ratio_of_means() {
        let fast = BenchResult {
            name: "fast".into(),
            iters: 1,
            mean_ns: 10.0,
            min_ns: 10.0,
            smoke: false,
        };
        let slow = BenchResult {
            name: "slow".into(),
            iters: 1,
            mean_ns: 40.0,
            min_ns: 40.0,
            smoke: false,
        };
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn durations_format_by_magnitude() {
        use std::time::Duration;
        assert!(fmt_duration(Duration::from_nanos(12)).ends_with("ns/iter"));
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("us/iter"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms/iter"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s/iter"));
    }

    #[test]
    fn names_sanitize_to_filenames() {
        assert_eq!(sanitize("fold/aes compiled"), "fold_aes_compiled");
    }
}
