//! The property check loop: corpus replay, random cases, greedy shrinking,
//! and replayable failure reports.

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

use freac_rand::{seed_from_name, Rng64};

use crate::config::Config;
use crate::corpus;

/// Per-case seed spacing, matching `freac_rand::cases` so a case index and
/// suite seed always reconstruct the same stream.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Runs properties under one [`Config`].
#[derive(Debug, Clone)]
pub struct Runner {
    config: Config,
}

/// Checks `prop` under the environment configuration; see [`Runner::check`].
pub fn check<T, G, S, P>(name: &str, gen: G, shrink: S, prop: P)
where
    T: Clone + Debug,
    G: Fn(&mut Rng64) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    Runner::from_env().check(name, gen, shrink, prop);
}

impl Runner {
    /// A runner with explicit configuration.
    pub fn new(config: Config) -> Self {
        Runner { config }
    }

    /// A runner configured from `FREAC_PROPTEST_*` environment variables.
    pub fn from_env() -> Self {
        Runner::new(Config::from_env())
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Checks the property `prop` over inputs drawn by `gen`.
    ///
    /// Corpus entries recorded for `name` are replayed first (regressions
    /// stay fixed), then `config.cases` fresh cases run, each from a seed
    /// derived from the suite seed, the property name, and the case index.
    /// On the first failure the input is greedily minimized through
    /// `shrink` (a candidate is accepted only if it still fails) and the
    /// run panics with a report containing the shrunk input, both failure
    /// messages, and the one-line corpus entry that replays the case.
    ///
    /// # Panics
    ///
    /// Panics — failing the enclosing test — when the property fails.
    pub fn check<T, G, S, P>(&self, name: &str, gen: G, shrink: S, prop: P)
    where
        T: Clone + Debug,
        G: Fn(&mut Rng64) -> T,
        S: Fn(&T) -> Vec<T>,
        P: Fn(&T) -> Result<(), String>,
    {
        // 1. Replay the regression corpus for this property.
        if let Some(path) = &self.config.corpus {
            for entry in corpus::load(path) {
                if entry.property != name {
                    continue;
                }
                let input = gen(&mut Rng64::new(entry.seed));
                if let Err(message) = run_guarded(&prop, &input) {
                    let failure = Failure {
                        case_seed: entry.seed,
                        origin: "corpus replay".to_string(),
                        input,
                        message,
                    };
                    self.report(name, failure, &shrink, &prop);
                }
            }
        }

        // 2. Fresh random cases.
        let prop_seed = self.config.seed ^ seed_from_name(name);
        for case in 0..self.config.cases {
            let case_seed = prop_seed ^ (case as u64).wrapping_mul(GOLDEN);
            let input = gen(&mut Rng64::new(case_seed));
            if let Err(message) = run_guarded(&prop, &input) {
                let failure = Failure {
                    case_seed,
                    origin: format!("case {case}/{}", self.config.cases),
                    input,
                    message,
                };
                self.report(name, failure, &shrink, &prop);
            }
        }
    }

    /// Minimizes the failing input, records it in the corpus when the
    /// configuration asks for that, and panics with the replayable report.
    fn report<T, S, P>(&self, name: &str, failure: Failure<T>, shrink: &S, prop: &P) -> !
    where
        T: Clone + Debug,
        S: Fn(&T) -> Vec<T>,
        P: Fn(&T) -> Result<(), String>,
    {
        let Failure {
            case_seed,
            origin,
            input,
            message: first_msg,
        } = failure;
        let minimized = minimize(
            input.clone(),
            first_msg.clone(),
            shrink,
            prop,
            self.config.max_shrink_evals,
        );
        let corpus_line = corpus::format_entry(name, case_seed);
        // The suite seed that regenerates this case as case 0: the runner
        // mixes the property name into the suite seed, so un-mix it here
        // for a copy-pasteable environment override.
        let env_seed = case_seed ^ seed_from_name(name);
        let mut recorded = String::new();
        if self.config.record && origin != "corpus replay" {
            if let Some(path) = &self.config.corpus {
                recorded = match corpus::append(path, name, case_seed) {
                    Ok(()) => format!("\n  recorded in {}", path.display()),
                    Err(e) => format!("\n  (could not record in {}: {e})", path.display()),
                };
            }
        }
        panic!(
            "property '{name}' failed ({origin})\n  \
             replay: add the line `{corpus_line}` to the regression corpus, or run with\n  \
             FREAC_PROPTEST_SEED=0x{env_seed:016x} FREAC_PROPTEST_CASES=1 (case 0 reproduces it)\n  \
             original input: {}\n  \
             original failure: {first_msg}\n  \
             shrunk input ({} accepted shrinks, {} evaluations): {}\n  \
             shrunk failure: {}{recorded}",
            clip(&format!("{input:?}"), 1200),
            minimized.steps,
            minimized.evals,
            clip(&format!("{:?}", minimized.input), 2400),
            minimized.message,
        );
    }
}

/// One failing case, bundled for minimization and reporting.
struct Failure<T> {
    /// The `Rng64` stream seed that regenerates the input.
    case_seed: u64,
    /// Where the case came from ("corpus replay" or "case i/n").
    origin: String,
    input: T,
    message: String,
}

struct Minimized<T> {
    input: T,
    message: String,
    steps: usize,
    evals: usize,
}

/// Greedy shrink loop: repeatedly move to the first candidate that still
/// fails, within a fixed evaluation budget.
fn minimize<T, S, P>(
    mut input: T,
    mut message: String,
    shrink: &S,
    prop: &P,
    budget: usize,
) -> Minimized<T>
where
    T: Clone + Debug,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let mut steps = 0;
    let mut evals = 0;
    'outer: while evals < budget {
        for cand in shrink(&input) {
            if evals >= budget {
                break 'outer;
            }
            evals += 1;
            if let Err(msg) = run_guarded(prop, &cand) {
                input = cand;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    Minimized {
        input,
        message,
        steps,
        evals,
    }
}

/// Runs the property, converting panics into failures so a crashing layer
/// is shrinkable like any other divergence. The default panic hook is
/// silenced (refcounted — checks may nest or run on parallel test threads)
/// so shrink iterations don't spam stderr with backtraces.
fn run_guarded<T, P>(prop: &P, input: &T) -> Result<(), String>
where
    P: Fn(&T) -> Result<(), String>,
{
    let _quiet = QuietPanics::enter();
    match panic::catch_unwind(AssertUnwindSafe(|| prop(input))) {
        Ok(r) => r,
        Err(payload) => Err(format!("property panicked: {}", payload_message(&*payload))),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn clip(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let cut = (0..=max)
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}… ({} more bytes)", &s[..cut], s.len() - cut)
}

type Hook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

static QUIET: Mutex<(usize, Option<Hook>)> = Mutex::new((0, None));

/// RAII guard that silences the global panic hook while any guard lives.
struct QuietPanics;

impl QuietPanics {
    fn enter() -> Self {
        let mut g = QUIET.lock().expect("panic-hook registry poisoned");
        if g.0 == 0 {
            g.1 = Some(panic::take_hook());
            panic::set_hook(Box::new(|_| {}));
        }
        g.0 += 1;
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let mut g = QUIET.lock().expect("panic-hook registry poisoned");
        g.0 -= 1;
        if g.0 == 0 {
            if let Some(prev) = g.1.take() {
                panic::set_hook(prev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink;

    fn failing_runner(cases: usize, seed: u64) -> Runner {
        Runner::new(Config::hermetic(cases, seed))
    }

    fn message_of(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = panic::catch_unwind(f).expect_err("property must fail");
        payload_message(&*payload)
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0usize);
        failing_runner(37, 1).check(
            "runner/count",
            |rng| rng.below(100),
            |_| Vec::new(),
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        assert_eq!(counter.get(), 37);
    }

    #[test]
    fn failing_property_shrinks_to_a_minimal_vector() {
        // "No vector sums to >= 100" — minimal counterexamples are short
        // vectors of small numbers; greedy shrinking should land well below
        // the typical random failure (tens of elements up to 50).
        let msg = message_of(|| {
            failing_runner(64, 2).check(
                "runner/shrinks",
                |rng| {
                    let n = 1 + rng.index(40);
                    (0..n).map(|_| rng.below(50)).collect::<Vec<u64>>()
                },
                |v: &Vec<u64>| {
                    let mut cands = shrink::subsequences(v);
                    cands.extend(shrink::elementwise(v, |&x| shrink::halvings_u64(x)));
                    cands
                },
                |v| {
                    if v.iter().sum::<u64>() >= 100 {
                        Err(format!("sum {} >= 100", v.iter().sum::<u64>()))
                    } else {
                        Ok(())
                    }
                },
            );
        });
        assert!(
            msg.contains("replay:"),
            "report names the replay line: {msg}"
        );
        assert!(msg.contains("shrunk input"), "{msg}");
        // The shrunk sum is still >= 100 but the vector is short: extract
        // the shrunk Debug list and check its length.
        let shrunk = msg.split("shrunk input").nth(1).expect("shrunk section");
        let list = &shrunk[shrunk.find('[').unwrap()..=shrunk.find(']').unwrap()];
        let elems = list.matches(',').count() + 1;
        assert!(elems <= 4, "greedy shrink reaches a small witness: {list}");
    }

    #[test]
    fn panicking_properties_are_reported_not_aborted() {
        let msg = message_of(|| {
            failing_runner(4, 3).check(
                "runner/panics",
                |rng| rng.below(10),
                |&x| shrink::halvings_u64(x),
                |&x| {
                    assert!(x > 100, "x was {x}");
                    Ok(())
                },
            );
        });
        assert!(msg.contains("property panicked"), "{msg}");
        assert!(msg.contains("FREAC_PROPTEST_SEED=0x"), "{msg}");
    }

    #[test]
    fn same_seed_reproduces_the_same_report() {
        let run = || {
            message_of(|| {
                failing_runner(16, 77).check(
                    "runner/deterministic",
                    |rng| rng.below(1000),
                    |&x| shrink::halvings_u64(x),
                    |&x| if x >= 20 { Err(format!("{x}")) } else { Ok(()) },
                )
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corpus_entries_replay_before_random_cases() {
        // cases = 0: only the corpus drives inputs.
        let path =
            std::env::temp_dir().join(format!("freac-proptest-replay-{}.txt", std::process::id()));
        std::fs::write(&path, "runner/replay 0x2a\nother/prop 0x1\n").unwrap();
        let mut config = Config::hermetic(0, 0);
        config.corpus = Some(path.clone());
        let seen = std::cell::RefCell::new(Vec::new());
        Runner::new(config).check(
            "runner/replay",
            |rng| rng.next_u64(),
            |_| Vec::new(),
            |&x| {
                seen.borrow_mut().push(x);
                Ok(())
            },
        );
        std::fs::remove_file(&path).unwrap();
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 1, "only this property's entry replays");
        assert_eq!(seen[0], Rng64::new(0x2a).next_u64());
    }

    #[test]
    fn clip_truncates_on_char_boundaries() {
        assert_eq!(clip("short", 10), "short");
        let clipped = clip("aaaa££££", 5);
        assert!(clipped.starts_with("aaaa"), "{clipped}");
        assert!(clipped.contains("more bytes"));
    }
}
