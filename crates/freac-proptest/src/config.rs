//! Environment-driven configuration for property runs.

use std::path::PathBuf;

/// Random cases per property when `FREAC_PROPTEST_CASES` is unset.
pub const DEFAULT_CASES: usize = 256;

/// Suite seed when `FREAC_PROPTEST_SEED` is unset. Each property mixes its
/// name into this, so properties draw independent streams while one
/// environment variable shifts the whole suite.
pub const DEFAULT_SEED: u64 = 0xF12E_AC0C_A5E5_EED5;

/// Property-evaluation budget for the greedy shrinker.
pub const DEFAULT_SHRINK_EVALS: usize = 2000;

/// Knobs for a [`Runner`](crate::Runner).
#[derive(Debug, Clone)]
pub struct Config {
    /// Random cases to run per property.
    pub cases: usize,
    /// Suite seed; each property derives its own stream from this and its
    /// name.
    pub seed: u64,
    /// Maximum property evaluations the shrinker may spend minimizing one
    /// failure.
    pub max_shrink_evals: usize,
    /// Regression corpus to replay before random cases (and to append
    /// shrunk failures to, when `record` is set). `None` disables the
    /// corpus entirely.
    pub corpus: Option<PathBuf>,
    /// Whether failures are appended to the corpus. Off by default: the
    /// corpus is a tracked file, and a plain test run must not rewrite it.
    pub record: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            max_shrink_evals: DEFAULT_SHRINK_EVALS,
            corpus: Some(crate::corpus::default_path()),
            record: false,
        }
    }
}

impl Config {
    /// The default configuration with environment overrides applied:
    /// `FREAC_PROPTEST_CASES` (decimal count), `FREAC_PROPTEST_SEED`
    /// (decimal, `0x`-hex, or any other string hashed to a seed),
    /// `FREAC_PROPTEST_CORPUS` (path, or `none` to disable), and
    /// `FREAC_PROPTEST_RECORD` (`1`/`true` to append shrunk failures to
    /// the corpus; anything else leaves it untouched).
    pub fn from_env() -> Self {
        let mut c = Config::default();
        if let Ok(v) = std::env::var("FREAC_PROPTEST_CASES") {
            if let Ok(n) = v.trim().parse::<usize>() {
                c.cases = n;
            }
        }
        if let Ok(v) = std::env::var("FREAC_PROPTEST_SEED") {
            c.seed = parse_seed(&v);
        }
        if let Ok(v) = std::env::var("FREAC_PROPTEST_CORPUS") {
            let v = v.trim();
            c.corpus = if v.is_empty() || v.eq_ignore_ascii_case("none") {
                None
            } else {
                Some(PathBuf::from(v))
            };
        }
        if let Ok(v) = std::env::var("FREAC_PROPTEST_RECORD") {
            let v = v.trim();
            c.record = v == "1" || v.eq_ignore_ascii_case("true");
        }
        c
    }

    /// A hermetic configuration for tests of the harness itself: fixed
    /// seed, no corpus, no recording.
    pub fn hermetic(cases: usize, seed: u64) -> Self {
        Config {
            cases,
            seed,
            max_shrink_evals: DEFAULT_SHRINK_EVALS,
            corpus: None,
            record: false,
        }
    }
}

/// Parses a seed from a string: `0x`-prefixed hex, plain decimal, or —
/// for anything else (e.g. a git SHA) — an FNV hash of the text, so any
/// value pasted into `FREAC_PROPTEST_SEED` yields a valid, reproducible
/// seed.
pub fn parse_seed(s: &str) -> u64 {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        let cleaned: String = hex.chars().filter(|c| *c != '_').collect();
        if let Ok(v) = u64::from_str_radix(&cleaned, 16) {
            return v;
        }
    }
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    freac_rand::seed_from_name(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_accepts_hex_decimal_and_text() {
        assert_eq!(parse_seed("0x10"), 16);
        assert_eq!(parse_seed("0X00ff"), 255);
        assert_eq!(parse_seed("0xDEAD_BEEF"), 0xDEAD_BEEF);
        assert_eq!(parse_seed("12345"), 12345);
        assert_eq!(parse_seed(" 7 "), 7);
        // Arbitrary text hashes deterministically.
        assert_eq!(parse_seed("deadbeefcafe"), parse_seed("deadbeefcafe"));
        assert_ne!(parse_seed("run-a"), parse_seed("run-b"));
    }

    #[test]
    fn default_config_points_at_the_workspace_corpus() {
        let c = Config::default();
        assert_eq!(c.cases, DEFAULT_CASES);
        let p = c.corpus.expect("default corpus enabled");
        assert!(p.ends_with("tests/regressions/corpus.txt"), "{p:?}");
    }

    #[test]
    fn default_config_does_not_record() {
        // Replaying the corpus is on by default; appending to it is opt-in
        // (`FREAC_PROPTEST_RECORD=1`), so a local run leaves it unchanged.
        let c = Config::default();
        assert!(c.corpus.is_some());
        assert!(!c.record);
    }

    #[test]
    fn hermetic_config_disables_the_corpus() {
        let c = Config::hermetic(8, 3);
        assert_eq!((c.cases, c.seed), (8, 3));
        assert!(c.corpus.is_none() && !c.record);
    }
}
