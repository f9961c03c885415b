//! The one parser for the `NWO_*` environment variables.
//!
//! Every production read of an `NWO_*` variable goes through [`Env`],
//! under one rule: unset means the default, a value that does not parse
//! is a typed [`ConfigError::BadEnv`] naming the variable and the value,
//! and a value that parses means what it always has (`NWO_JOBS=0` is
//! still an error, `NWO_WATCHDOG_SECS=0` is still off). Entry points —
//! the CLI, the figures bench, `nwo serve` — call [`Env::load`] before
//! any simulation, so a typo aborts the run up front; library code with
//! no error path reads [`Env::current`]. The variable table, with every
//! default and meaning, is in `docs/benchmarking.md`.

use crate::runner::Runner;
use nwo_ckpt::CacheDir;
use nwo_sim::ConfigError;
use std::ffi::OsString;
use std::path::PathBuf;
use std::time::Duration;

const WHOLE: &str = "must be a whole number";
const POSITIVE: &str = "must be positive: a whole number, 1 or more";
const SECONDS: &str = "must be a finite number of seconds (0 or less disables)";
const SEED: &str = "must be a decimal or 0x-prefixed hexadecimal integer";
const TEXT: &str = "must be valid UTF-8";

/// Every `NWO_*` setting the workspace reads, parsed and validated.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// `NWO_SCALE`: doublings of every benchmark's input size.
    pub scale: u32,
    /// `NWO_JOBS`: runner worker threads.
    pub jobs: usize,
    /// `NWO_WARMUP`: instructions fast-forwarded before timed runs.
    pub warmup: u64,
    /// `NWO_CACHE_DIR`: the disk result and warm-checkpoint cache.
    pub cache_dir: Option<PathBuf>,
    /// `NWO_CACHE_FAULTS`: injected transient cache I/O faults.
    pub cache_faults: u64,
    /// `NWO_PROGRESS`: the live stderr progress ticker.
    pub progress: bool,
    /// `NWO_CSV`: directory every experiment table is written to.
    pub csv_dir: Option<PathBuf>,
    /// `NWO_HARNESS_JSON`: where the harness writes its summary.
    pub harness_json: Option<PathBuf>,
    /// `NWO_WATCHDOG_SECS`: per-experiment and per-request budget.
    pub watchdog: Option<Duration>,
    /// `NWO_FAIL_EXPERIMENT`: `<name>` or `<name>:hang` to break.
    pub fail_experiment: Option<String>,
    /// `NWO_SERVE_ADDR`: the daemon's bind address.
    pub serve_addr: Option<String>,
    /// `NWO_SERVE_QUEUE`: the daemon's admission depth.
    pub serve_queue: Option<usize>,
    /// `NWO_CHAOS_SEED`: seed of the chaos hooks and campaigns.
    pub chaos_seed: Option<u64>,
}

impl Env {
    /// Parses the process environment.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadEnv`] for the first variable whose value does
    /// not parse.
    pub fn load() -> Result<Env, ConfigError> {
        Env::from_lookup(|var| std::env::var_os(var))
    }

    /// [`Env::load`] for callers with no error path. Entry points load
    /// first, so this only fails when one skipped that check.
    ///
    /// # Panics
    ///
    /// With the [`ConfigError::BadEnv`] message when a value does not
    /// parse.
    pub fn current() -> Env {
        Env::load().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses the variables `get` returns (`None` for unset); tests
    /// pass a fake environment here.
    fn from_lookup(get: impl Fn(&str) -> Option<OsString>) -> Result<Env, ConfigError> {
        let get: &dyn Fn(&str) -> Option<OsString> = &get;
        Ok(Env {
            scale: parsed(get, "NWO_SCALE", WHOLE, number)?.unwrap_or(0),
            jobs: parsed(get, "NWO_JOBS", POSITIVE, positive)?
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from)),
            warmup: parsed(get, "NWO_WARMUP", WHOLE, number)?.unwrap_or(0),
            cache_dir: get("NWO_CACHE_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from),
            cache_faults: parsed(get, "NWO_CACHE_FAULTS", WHOLE, number)?.unwrap_or(0),
            progress: get("NWO_PROGRESS").is_some_and(|v| !v.is_empty() && v != "0"),
            csv_dir: get("NWO_CSV").map(PathBuf::from),
            harness_json: match get("NWO_HARNESS_JSON") {
                None => Some("BENCH_harness.json".into()),
                Some(v) if v.is_empty() || v == "0" => None,
                Some(v) => Some(v.into()),
            },
            watchdog: parsed(get, "NWO_WATCHDOG_SECS", SECONDS, seconds)?.flatten(),
            fail_experiment: parsed(get, "NWO_FAIL_EXPERIMENT", TEXT, text)?
                .filter(|v| !v.is_empty()),
            serve_addr: parsed(get, "NWO_SERVE_ADDR", TEXT, text)?,
            serve_queue: parsed(get, "NWO_SERVE_QUEUE", POSITIVE, positive)?,
            chaos_seed: parsed(get, "NWO_CHAOS_SEED", SEED, parse_seed)?,
        })
    }

    /// The `NWO_CACHE_DIR` disk cache with its `NWO_CACHE_FAULTS`
    /// injected-fault budget.
    fn cache(&self) -> Option<CacheDir> {
        self.cache_dir.clone().map(|root| match self.cache_faults {
            0 => CacheDir::new(root),
            n => CacheDir::with_injected_faults(root, n),
        })
    }

    /// A worker pool of [`Env::jobs`] threads over the `NWO_CACHE_DIR`
    /// tier with the [`Env::warmup`] budget — the set-up behind both
    /// [`Runner::global`] and `nwo serve`.
    pub fn runner(&self) -> Runner {
        Runner::with_options(self.jobs, self.cache(), self.warmup)
    }
}

/// Parses `var` with `f` when set: `Ok(None)` when unset, the typed
/// error when `f` rejects the value (or it is not UTF-8).
fn parsed<T>(
    get: &dyn Fn(&str) -> Option<OsString>,
    var: &'static str,
    expected: &'static str,
    f: fn(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    let Some(raw) = get(var) else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(f)
        .map(Some)
        .ok_or_else(|| ConfigError::BadEnv {
            var,
            value: raw.to_string_lossy().into_owned(),
            expected,
        })
}

fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.trim().parse().ok()
}

fn positive(s: &str) -> Option<usize> {
    number(s).filter(|&n| n > 0)
}

/// `Some(None)` for a budget that turns the watchdog off.
fn seconds(s: &str) -> Option<Option<Duration>> {
    match number::<f64>(s)? {
        secs if secs <= 0.0 => Some(None),
        secs => Duration::try_from_secs_f64(secs).ok().map(Some),
    }
}

/// A seed as `NWO_CHAOS_SEED` and `--chaos-seed` take it: decimal or
/// `0x`-prefixed hexadecimal.
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn text(s: &str) -> Option<String> {
    Some(s.to_string())
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::ffi::OsStringExt;

    /// The environment with only `var` set, to `value`.
    fn parse(var: &str, value: &[u8]) -> Result<Env, ConfigError> {
        Env::from_lookup(|name| (name == var).then(|| OsString::from_vec(value.to_vec())))
    }

    /// For every variable: unset gives the default, a valid value
    /// parses, and a malformed one is a typed error naming the variable
    /// and the value. Path variables and `NWO_PROGRESS` accept every
    /// value, so they have no malformed case.
    #[test]
    fn every_variable_defaults_parses_and_rejects_typos() {
        let defaults = Env::from_lookup(|_| None).expect("the empty environment is valid");
        assert_eq!(
            defaults,
            Env {
                scale: 0,
                jobs: std::thread::available_parallelism().map_or(1, usize::from),
                warmup: 0,
                cache_dir: None,
                cache_faults: 0,
                progress: false,
                csv_dir: None,
                harness_json: Some("BENCH_harness.json".into()),
                watchdog: None,
                fail_experiment: None,
                serve_addr: None,
                serve_queue: None,
                chaos_seed: None,
            }
        );
        // (variable, a valid value, its effect on the defaults, a malformed value)
        type Case = (
            &'static str,
            &'static [u8],
            fn(&mut Env),
            Option<&'static [u8]>,
        );
        #[rustfmt::skip]
        let cases: [Case; 13] = [
            ("NWO_SCALE",           b"2",    |e| e.scale = 2,                     Some(b"two")),
            ("NWO_JOBS",            b" 3 ",  |e| e.jobs = 3,                      Some(b"0")),
            ("NWO_WARMUP",          b"1000", |e| e.warmup = 1000,                 Some(b"1e3")),
            ("NWO_CACHE_DIR",       b"c",    |e| e.cache_dir = Some("c".into()),  None),
            ("NWO_CACHE_FAULTS",    b"2",    |e| e.cache_faults = 2,              Some(b"-1")),
            ("NWO_PROGRESS",        b"1",    |e| e.progress = true,               None),
            ("NWO_CSV",             b"c",    |e| e.csv_dir = Some("c".into()),    None),
            ("NWO_HARNESS_JSON",    b"h",    |e| e.harness_json = Some("h".into()), None),
            ("NWO_WATCHDOG_SECS",   b"2",    |e| e.watchdog = Some(Duration::from_secs(2)), Some(b"x")),
            ("NWO_FAIL_EXPERIMENT", b"f",    |e| e.fail_experiment = Some("f".into()), Some(b"\xff")),
            ("NWO_SERVE_ADDR",      b"a:1",  |e| e.serve_addr = Some("a:1".into()), Some(b"\xff")),
            ("NWO_SERVE_QUEUE",     b"4",    |e| e.serve_queue = Some(4),         Some(b"0")),
            ("NWO_CHAOS_SEED",      b"0x2A", |e| e.chaos_seed = Some(42),         Some(b"0xzz")),
        ];
        for (var, valid, apply, malformed) in cases {
            let mut want = defaults.clone();
            apply(&mut want);
            assert_eq!(parse(var, valid), Ok(want), "{var}");
            let Some(bad) = malformed else { continue };
            let err = parse(var, bad).expect_err(var);
            let lossy = String::from_utf8_lossy(bad);
            assert!(
                matches!(&err, ConfigError::BadEnv { var: v, value, .. } if *v == var && *value == lossy),
                "{err:?}"
            );
            assert!(err.to_string().starts_with(&format!("{var}=")), "{err}");
        }
        // Zero, empty and infinite values keep their old meaning.
        assert_eq!(
            parse("NWO_WATCHDOG_SECS", b"0").map(|e| e.watchdog),
            Ok(None)
        );
        assert!(parse("NWO_WATCHDOG_SECS", b"inf").is_err());
        assert_eq!(parse("NWO_CACHE_DIR", b"").map(|e| e.cache_dir), Ok(None));
        assert_eq!(parse("NWO_PROGRESS", b"0").map(|e| e.progress), Ok(false));
        assert_eq!(
            parse("NWO_HARNESS_JSON", b"0").map(|e| e.harness_json),
            Ok(None)
        );
        assert_eq!(
            parse("NWO_FAIL_EXPERIMENT", b"").map(|e| e.fail_experiment),
            Ok(None)
        );
    }
}
