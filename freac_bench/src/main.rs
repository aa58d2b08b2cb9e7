//! Command-line entry point.
//!
//! ```text
//! freac_bench --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
//!             [--out <dir>]
//! freac_bench compare <parent-results> <change-results>
//! ```
//!
//! A run prints one `name value unit` line per metric, then the result as
//! one JSON line, and exits non-zero if an output check failed. `compare`
//! reads result lines (one per run, in pair order) of a parent and a
//! change and applies the paired A/B rule to each end-to-end metric.

use std::path::PathBuf;
use std::process::ExitCode;

use freac_bench::metrics::{result_line, END_TO_END};
use freac_bench::stats::ab_compare;
use freac_bench::{Options, Workload};
use freac_probe::Json;

const USAGE: &str =
    "usage: freac_bench --workload <serve_steady|serve_overload|cluster_affinity|sampled_long> \
--seed <u64> [--seconds <s>] [--trace <0|1>] [--out <dir>]\n       \
freac_bench compare <parent-results> <change-results>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("freac_bench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("freac_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match freac_bench::run(&opts) {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("freac_bench: output check failed: {p}");
            }
            for m in &report.metrics {
                println!("{:<34} {:>16} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("freac_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let mut out_dir = target.join("freac_bench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} takes {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        scale: 1,
        out_dir: Some(out_dir),
    })
}

/// The result lines of `path`: every line that parses as a JSON object
/// with a `metrics` member.
fn results(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| Json::parse(l.trim()).ok())
        .filter(|j| j.get("metrics").is_some())
        .collect())
}

fn compare(args: &[String]) -> Result<(), String> {
    let [parent, change] = args else {
        return Err("compare takes two result files".to_owned());
    };
    let (parent, change) = (results(parent)?, results(change)?);
    let value = |run: &Json, name: &str| {
        run.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    for def in END_TO_END {
        let pairs: Vec<(f64, f64)> = parent
            .iter()
            .zip(&change)
            .filter_map(|(p, c)| Some((value(p, def.name)?, value(c, def.name)?)))
            .collect();
        let Some(better) = def.better.filter(|_| !pairs.is_empty()) else {
            continue;
        };
        let v = ab_compare(&pairs, better);
        println!(
            "{:<16} parent {:.6} [{:.6}, {:.6}]  change {:.6} [{:.6}, {:.6}]  wins {}/{}  {}",
            def.name,
            v.parent.median,
            v.parent.q1,
            v.parent.q3,
            v.change.median,
            v.change.q1,
            v.change.q3,
            v.wins,
            v.pairs,
            if v.gain { "GAIN" } else { "no gain" }
        );
    }
    Ok(())
}
