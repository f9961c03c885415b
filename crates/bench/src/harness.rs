//! Experiment-harness driver: runs a selection of experiments on the
//! global [`crate::runner::Runner`], prints one summary line per
//! experiment (wall-clock, simulations run, memo hits), and persists a
//! machine-readable timing summary to `BENCH_harness.json` so future
//! changes have a perf trajectory to regress against.
//!
//! Each experiment runs on its own worker thread under a panic guard
//! and an optional wall-clock watchdog (`NWO_WATCHDOG_SECS`): a
//! panicking or runaway experiment is **quarantined** — recorded in the
//! summary's `failures` array with its panic message or timeout — and
//! the sweep continues with the next experiment instead of dying.
//! `NWO_FAIL_EXPERIMENT=<name>` (or `<name>:hang`) deliberately breaks
//! one experiment, which is how the quarantine path itself is tested.
//!
//! The JSON schema (`schema` bumps on incompatible change; schema 2
//! added the per-experiment `phases`/`phase_counts` breakdown and the
//! top-level `busy_s`/`utilization` pool accounting):
//!
//! ```json
//! {
//!   "schema": 2,
//!   "jobs": 8,            // worker threads (NWO_JOBS)
//!   "scale": 0,           // NWO_SCALE workload bump
//!   "wall_s": 12.34,      // whole-run wall-clock
//!   "busy_s": 80.1,       // summed worker sim-job time
//!   "utilization": 0.81,  // busy_s / (wall_s * jobs)
//!   "sims_run": 120,      // distinct simulations executed
//!   "memo_hits": 96,      // submissions served from the memo cache
//!   "disk_hits": 0,       // submissions served from NWO_CACHE_DIR
//!   "warmups_run": 0,     // functional warmups executed (NWO_WARMUP)
//!   "warm_hits": 0,       // simulations reusing a warm checkpoint
//!   "experiments": [
//!     {"name": "fig1", "wall_s": 0.81, "sims_run": 8, "memo_hits": 0,
//!      "disk_hits": 0, "status": "ok",
//!      "phases": {"decode_s": 0.01, "warmup_s": 0.0, "restore_s": 0.0,
//!                 "measured_run_s": 0.78, "oracle_step_s": 0.0,
//!                 "ckpt_io_s": 0.0, "cache_s": 0.0, "busy_s": 0.80},
//!      "phase_counts": {"decode": 1, "warmup": 0, "restore": 0,
//!                       "measured_run": 8, "oracle_step": 0,
//!                       "ckpt_io": 0, "cache": 0, "busy": 8}}
//!   ],
//!   "failures": [
//!     {"name": "fig2", "status": "failed", "detail": "panicked: ..."}
//!   ]
//! }
//! ```
//!
//! Phase times come from the span profiler ([`nwo_sim::obs::span`]),
//! which the harness always enables in aggregation-only mode (the
//! spans are coarse — per job, per phase — so the cost is noise).
//! Experiments run serially, so diffing the global aggregate before
//! and after each one attributes worker-thread time to the right
//! experiment.
//!
//! Override the output path with `NWO_HARNESS_JSON=<path>`; set it to
//! `0` (or empty) to skip writing.

use crate::env::Env;
use crate::figures;
use crate::runner::{progress_json, Runner};
use nwo_sim::obs::json;
use nwo_sim::obs::ProfileAgg;
use std::time::{Duration, Instant};

/// Per-experiment profiling phase breakdown: seconds and invocation
/// counts per named phase, attributed by diffing the global span
/// aggregate around the experiment. A phase's time is summed over
/// every nesting site of its leaf span (`warmup` counts both direct
/// warmups and those inside worker `sim-job` spans); `busy` is the
/// total worker `sim-job` time — the numerator of pool utilization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// `(key, seconds, count)` per phase, in [`PhaseBreakdown::KEYS`]
    /// order. Empty (all phases zero) for a default value.
    entries: Vec<(&'static str, f64, u64)>,
}

impl PhaseBreakdown {
    /// Phase keys in serialization order, each with the profiler leaf
    /// span names it sums over.
    pub const KEYS: [(&'static str, &'static [&'static str]); 8] = [
        ("decode", &["decode"]),
        ("warmup", &["warmup"]),
        ("restore", &["restore"]),
        ("measured_run", &["measured-run"]),
        ("oracle_step", &["oracle-step"]),
        ("ckpt_io", &["ckpt-io"]),
        ("cache", &["cache-lookup", "cache-store"]),
        ("busy", &["sim-job"]),
    ];

    /// Builds the breakdown from a (usually diffed) span aggregate.
    pub fn from_agg(agg: &ProfileAgg) -> PhaseBreakdown {
        let entries = Self::KEYS
            .iter()
            .map(|(key, leaves)| {
                let (ns, count) = leaves.iter().fold((0u64, 0u64), |(ns, c), leaf| {
                    let (n2, c2) = agg.leaf_totals(leaf);
                    (ns + n2, c + c2)
                });
                (*key, ns as f64 / 1e9, count)
            })
            .collect();
        PhaseBreakdown { entries }
    }

    /// Seconds attributed to `key` (0 for unknown keys or a default
    /// value).
    pub fn seconds(&self, key: &str) -> f64 {
        self.entries
            .iter()
            .find(|(k, _, _)| *k == key)
            .map_or(0.0, |(_, s, _)| *s)
    }

    /// Invocation count of `key`'s spans.
    pub fn count(&self, key: &str) -> u64 {
        self.entries
            .iter()
            .find(|(k, _, _)| *k == key)
            .map_or(0, |(_, _, c)| *c)
    }

    /// Total worker `sim-job` seconds.
    pub fn busy_s(&self) -> f64 {
        self.seconds("busy")
    }

    /// Appends `"phases": {...}, "phase_counts": {...}` (no leading
    /// separator) with every key present, zeros included.
    fn write_json(&self, out: &mut String) {
        out.push_str("\"phases\": {");
        for (i, (key, _)) in Self::KEYS.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(key);
            out.push_str("_s\": ");
            json::write_f64(out, self.seconds(key));
        }
        out.push_str("}, \"phase_counts\": {");
        for (i, (key, _)) in Self::KEYS.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\": ");
            out.push_str(&self.count(key).to_string());
        }
        out.push('}');
    }
}

/// Timing and memo accounting for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentTiming {
    /// Experiment name (one of [`figures::EXPERIMENTS`]).
    pub name: String,
    /// Wall-clock seconds spent in the experiment.
    pub wall_s: f64,
    /// Simulations executed by workers during the experiment.
    pub sims_run: u64,
    /// Submissions served from the memo cache during the experiment.
    pub memo_hits: u64,
    /// Submissions served from the disk cache during the experiment.
    pub disk_hits: u64,
    /// `"ok"`, `"failed"` (panicked) or `"timeout"` (watchdog fired).
    pub status: String,
    /// Profiled phase breakdown for the experiment's interval.
    pub phases: PhaseBreakdown,
}

/// One quarantined experiment: the sweep continued without it.
#[derive(Debug, Clone)]
pub struct ExperimentFailure {
    /// Experiment name.
    pub name: String,
    /// `"failed"` or `"timeout"`.
    pub status: String,
    /// Panic message or watchdog description.
    pub detail: String,
}

/// Whole-run accounting, serializable to `BENCH_harness.json`.
#[derive(Debug, Clone)]
pub struct HarnessSummary {
    /// Worker threads used.
    pub jobs: usize,
    /// Workload scale bump (`NWO_SCALE`).
    pub scale: u32,
    /// Whole-run wall-clock seconds.
    pub wall_s: f64,
    /// Summed worker `sim-job` seconds across all experiments.
    pub busy_s: f64,
    /// Pool utilization: `busy_s / (wall_s * jobs)`.
    pub utilization: f64,
    /// Total simulations executed.
    pub sims_run: u64,
    /// Total memo hits.
    pub memo_hits: u64,
    /// Total disk-cache hits (`NWO_CACHE_DIR`).
    pub disk_hits: u64,
    /// Total functional warmups executed (`NWO_WARMUP`).
    pub warmups_run: u64,
    /// Total simulations that reused a warm checkpoint.
    pub warm_hits: u64,
    /// Per-experiment breakdown, in execution order.
    pub experiments: Vec<ExperimentTiming>,
    /// Experiments that panicked or timed out (sweep continued).
    pub failures: Vec<ExperimentFailure>,
}

impl HarnessSummary {
    /// Serializes the summary (the `BENCH_harness.json` payload).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 96 * self.experiments.len());
        out.push_str("{\n  \"schema\": 2,\n  \"jobs\": ");
        out.push_str(&self.jobs.to_string());
        out.push_str(",\n  \"scale\": ");
        out.push_str(&self.scale.to_string());
        out.push_str(",\n  \"wall_s\": ");
        json::write_f64(&mut out, self.wall_s);
        out.push_str(",\n  \"busy_s\": ");
        json::write_f64(&mut out, self.busy_s);
        out.push_str(",\n  \"utilization\": ");
        json::write_f64(&mut out, self.utilization);
        out.push_str(",\n  \"sims_run\": ");
        out.push_str(&self.sims_run.to_string());
        out.push_str(",\n  \"memo_hits\": ");
        out.push_str(&self.memo_hits.to_string());
        out.push_str(",\n  \"disk_hits\": ");
        out.push_str(&self.disk_hits.to_string());
        out.push_str(",\n  \"warmups_run\": ");
        out.push_str(&self.warmups_run.to_string());
        out.push_str(",\n  \"warm_hits\": ");
        out.push_str(&self.warm_hits.to_string());
        out.push_str(",\n  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            out.push_str("    {\"name\": ");
            json::write_str(&mut out, &e.name);
            out.push_str(", \"wall_s\": ");
            json::write_f64(&mut out, e.wall_s);
            out.push_str(", \"sims_run\": ");
            out.push_str(&e.sims_run.to_string());
            out.push_str(", \"memo_hits\": ");
            out.push_str(&e.memo_hits.to_string());
            out.push_str(", \"disk_hits\": ");
            out.push_str(&e.disk_hits.to_string());
            out.push_str(", \"status\": ");
            json::write_str(&mut out, &e.status);
            out.push_str(", ");
            e.phases.write_json(&mut out);
            out.push('}');
            if i + 1 < self.experiments.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            out.push_str("    {\"name\": ");
            json::write_str(&mut out, &f.name);
            out.push_str(", \"status\": ");
            json::write_str(&mut out, &f.status);
            out.push_str(", \"detail\": ");
            json::write_str(&mut out, &f.detail);
            out.push('}');
            if i + 1 < self.failures.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Robustness knobs for a harness sweep, normally read from the
/// environment by [`HarnessOptions::from_env`].
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Per-experiment wall-clock budget (`NWO_WATCHDOG_SECS`); an
    /// experiment exceeding it is quarantined as `"timeout"` and its
    /// worker thread detached. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Deliberate failure injection (`NWO_FAIL_EXPERIMENT`): the named
    /// experiment panics instead of running; with a `:hang` suffix it
    /// blocks until the watchdog fires. Exercises the quarantine path.
    pub fail_experiment: Option<String>,
    /// Where to write the summary JSON; `None` skips writing.
    pub json_path: Option<std::path::PathBuf>,
    /// Live progress ticker on stderr (`NWO_PROGRESS` / `--progress`):
    /// one JSON line after every experiment, on top of the per-job
    /// lines the runner's collect loop emits.
    pub progress: bool,
}

/// How `NWO_FAIL_EXPERIMENT` breaks the matching experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    Panic,
    Hang,
}

impl HarnessOptions {
    /// Reads `NWO_WATCHDOG_SECS`, `NWO_FAIL_EXPERIMENT`,
    /// `NWO_HARNESS_JSON` and `NWO_PROGRESS` through [`Env::current`].
    pub fn from_env() -> HarnessOptions {
        let env = Env::current();
        HarnessOptions {
            watchdog: env.watchdog,
            fail_experiment: env.fail_experiment,
            json_path: env.harness_json,
            progress: env.progress,
        }
    }

    /// The injected failure for `name`, if any.
    fn injected(&self, name: &str) -> Option<Inject> {
        let spec = self.fail_experiment.as_deref()?;
        match spec.strip_suffix(":hang") {
            Some(base) if base == name => Some(Inject::Hang),
            None if spec == name => Some(Inject::Panic),
            _ => None,
        }
    }
}

/// A human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    match crate::runner::panic_text(payload) {
        Some(s) => format!("panicked: {s}"),
        None => "panicked with a non-string payload".to_string(),
    }
}

/// Runs one experiment on its own thread under a panic guard and the
/// optional watchdog. Returns `("ok", None)` or a quarantine verdict.
fn run_guarded(name: &str, opts: &HarnessOptions) -> (&'static str, Option<String>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let inject = opts.injected(name);
    let owned = name.to_string();
    let worker = std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match inject {
            Some(Inject::Panic) => {
                panic!("deliberate failure injected via NWO_FAIL_EXPERIMENT")
            }
            Some(Inject::Hang) => std::thread::sleep(Duration::from_secs(3600)),
            None => {
                figures::run_experiment(&owned);
            }
        }));
        let _ = tx.send(outcome.map_err(|p| panic_message(&*p)));
    });
    let outcome = match opts.watchdog {
        Some(budget) => match rx.recv_timeout(budget) {
            Ok(res) => {
                let _ = worker.join();
                res
            }
            // The worker may be wedged mid-simulation; detach it and
            // move on — quarantine must not become a hang of its own.
            Err(_) => {
                return (
                    "timeout",
                    Some(format!(
                        "exceeded the {:.1}s watchdog; worker thread detached",
                        budget.as_secs_f64()
                    )),
                );
            }
        },
        None => {
            let res = rx
                .recv()
                .unwrap_or_else(|_| Err("worker exited without reporting".to_string()));
            let _ = worker.join();
            res
        }
    };
    match outcome {
        Ok(()) => ("ok", None),
        Err(msg) => ("failed", Some(msg)),
    }
}

/// Runs `names` in order with options from the environment. See
/// [`run_harness_with`].
///
/// # Errors
///
/// Returns an error (before running anything) if any name is unknown.
pub fn run_harness(names: &[&str]) -> Result<HarnessSummary, String> {
    run_harness_with(names, &HarnessOptions::from_env())
}

/// Runs `names` in order on the global runner, printing each
/// experiment's table followed by a `[name  wall …]` summary line,
/// then a whole-run total, and persists the summary JSON. Experiments
/// that panic or outrun the watchdog are quarantined (recorded in
/// [`HarnessSummary::failures`]) and the sweep continues.
///
/// # Errors
///
/// Returns an error (before running anything) if any name is unknown.
/// Quarantined failures are *not* errors here — callers decide whether
/// a partially-failed sweep is fatal.
pub fn run_harness_with(names: &[&str], opts: &HarnessOptions) -> Result<HarnessSummary, String> {
    for name in names {
        if !figures::EXPERIMENTS.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "unknown experiment `{name}`; known: {:?}",
                figures::experiment_names()
            ));
        }
    }
    // Phase attribution needs the span aggregate; enable it in
    // aggregation-only mode (no event capture) — the CLI may already
    // have enabled capture via --profile-out, which this won't undo.
    nwo_sim::obs::span::enable(false);
    let runner = Runner::global();
    let start = Instant::now();
    let mut experiments = Vec::with_capacity(names.len());
    let mut failures = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let before = runner.counters();
        let prof_before = nwo_sim::obs::span::aggregate();
        let t = Instant::now();
        let (status, detail) = {
            let _prof = nwo_sim::obs::span::labeled_span("experiment", name);
            run_guarded(name, opts)
        };
        let wall_s = t.elapsed().as_secs_f64();
        let after = runner.counters();
        let phases = PhaseBreakdown::from_agg(&nwo_sim::obs::span::aggregate().since(&prof_before));
        let timing = ExperimentTiming {
            name: name.to_string(),
            wall_s,
            sims_run: after.sims_run - before.sims_run,
            memo_hits: after.memo_hits - before.memo_hits,
            disk_hits: after.disk_hits - before.disk_hits,
            status: status.to_string(),
            phases,
        };
        if let Some(detail) = detail {
            eprintln!("[{}  QUARANTINED ({status}): {detail}]", timing.name);
            failures.push(ExperimentFailure {
                name: name.to_string(),
                status: status.to_string(),
                detail,
            });
        } else {
            println!(
                "[{}  wall {:.2}s  sims {}  memo-hits {}  disk-hits {}  busy {:.2}s]",
                timing.name,
                timing.wall_s,
                timing.sims_run,
                timing.memo_hits,
                timing.disk_hits,
                timing.phases.busy_s()
            );
        }
        experiments.push(timing);
        if opts.progress {
            let done = i + 1;
            let eta = crate::runner::eta_seconds(start.elapsed().as_secs_f64(), done, names.len());
            eprintln!(
                "{}",
                progress_json(
                    "experiments",
                    done,
                    names.len(),
                    &runner.counters(),
                    failures.len(),
                    eta
                )
            );
        }
    }
    let totals = runner.counters();
    let wall_s = start.elapsed().as_secs_f64();
    let busy_s: f64 = experiments.iter().map(|e| e.phases.busy_s()).sum();
    let pool = wall_s * runner.jobs() as f64;
    let summary = HarnessSummary {
        jobs: runner.jobs(),
        scale: crate::harness_scale(),
        wall_s,
        busy_s,
        utilization: if pool > 0.0 { busy_s / pool } else { 0.0 },
        sims_run: experiments.iter().map(|e| e.sims_run).sum(),
        memo_hits: experiments.iter().map(|e| e.memo_hits).sum(),
        disk_hits: experiments.iter().map(|e| e.disk_hits).sum(),
        warmups_run: totals.warmups_run,
        warm_hits: totals.warm_hits,
        experiments,
        failures,
    };
    println!(
        "[total  wall {:.2}s  busy {:.2}s  sims {}  memo-hits {}  disk-hits {}  warmups {}  jobs {}  quarantined {}]",
        summary.wall_s,
        summary.busy_s,
        summary.sims_run,
        summary.memo_hits,
        summary.disk_hits,
        summary.warmups_run,
        summary.jobs,
        summary.failures.len()
    );
    debug_assert!(totals.submitted >= totals.memo_hits);
    if let Some(path) = &opts.json_path {
        match std::fs::write(path, summary.to_json()) {
            Ok(()) => eprintln!("wrote harness timing summary to {}", path.display()),
            Err(e) => eprintln!("NWO_HARNESS_JSON: cannot write {}: {e}", path.display()),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_json_parses_with_the_crate_parser() {
        let mut fig1_agg = ProfileAgg::default();
        fig1_agg.spans.insert(
            "sim-job".into(),
            nwo_sim::obs::SpanStat {
                total_ns: 2_100_000_000,
                count: 8,
                counters: Default::default(),
            },
        );
        fig1_agg.spans.insert(
            "sim-job/measured-run".into(),
            nwo_sim::obs::SpanStat {
                total_ns: 2_000_000_000,
                count: 8,
                counters: Default::default(),
            },
        );
        let summary = HarnessSummary {
            jobs: 4,
            scale: 1,
            wall_s: 2.5,
            busy_s: 2.1,
            utilization: 0.21,
            sims_run: 10,
            memo_hits: 3,
            disk_hits: 5,
            warmups_run: 2,
            warm_hits: 8,
            experiments: vec![
                ExperimentTiming {
                    name: "fig1".into(),
                    wall_s: 1.25,
                    sims_run: 8,
                    memo_hits: 0,
                    disk_hits: 5,
                    status: "ok".into(),
                    phases: PhaseBreakdown::from_agg(&fig1_agg),
                },
                ExperimentTiming {
                    name: "stalls".into(),
                    wall_s: 1.25,
                    sims_run: 2,
                    memo_hits: 3,
                    disk_hits: 0,
                    status: "failed".into(),
                    phases: PhaseBreakdown::default(),
                },
            ],
            failures: vec![ExperimentFailure {
                name: "stalls".into(),
                status: "failed".into(),
                detail: "panicked: boom".into(),
            }],
        };
        let text = summary.to_json();
        let v = json::parse(&text).expect("summary JSON parses");
        assert_eq!(v.get("schema").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("jobs").and_then(|x| x.as_u64()), Some(4));
        assert!((v.get("busy_s").and_then(|x| x.as_f64()).unwrap() - 2.1).abs() < 1e-12);
        assert!((v.get("utilization").and_then(|x| x.as_f64()).unwrap() - 0.21).abs() < 1e-12);
        assert_eq!(v.get("sims_run").and_then(|x| x.as_u64()), Some(10));
        assert_eq!(v.get("memo_hits").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("disk_hits").and_then(|x| x.as_u64()), Some(5));
        assert_eq!(v.get("warmups_run").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("warm_hits").and_then(|x| x.as_u64()), Some(8));
        assert!((v.get("wall_s").and_then(|x| x.as_f64()).unwrap() - 2.5).abs() < 1e-12);
        let failures = v.get("failures").and_then(|x| x.as_array()).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(
            failures[0].get("status").and_then(|x| x.as_str()),
            Some("failed")
        );
        let experiments = v.get("experiments").and_then(|x| x.as_array()).unwrap();
        assert_eq!(
            experiments[1].get("status").and_then(|x| x.as_str()),
            Some("failed")
        );
        // Schema 2: every experiment carries a full phases object (zeros
        // included), with counts alongside.
        let phases = experiments[0].get("phases").expect("phases object");
        assert!(
            (phases.get("busy_s").and_then(|x| x.as_f64()).unwrap() - 2.1).abs() < 1e-9,
            "busy_s sums the sim-job leaf"
        );
        assert!(
            (phases
                .get("measured_run_s")
                .and_then(|x| x.as_f64())
                .unwrap()
                - 2.0)
                .abs()
                < 1e-9
        );
        let counts = experiments[0].get("phase_counts").expect("counts object");
        assert_eq!(counts.get("busy").and_then(|x| x.as_u64()), Some(8));
        assert_eq!(counts.get("warmup").and_then(|x| x.as_u64()), Some(0));
        let empty = experiments[1].get("phases").expect("phases object");
        assert_eq!(
            empty.get("decode_s").and_then(|x| x.as_f64()),
            Some(0.0),
            "a default breakdown still serializes every key"
        );
    }

    #[test]
    fn unknown_names_are_rejected_before_running() {
        let err = run_harness_with(&["definitely-not-real"], &HarnessOptions::default())
            .expect_err("must reject");
        assert!(err.contains("definitely-not-real"));
    }

    #[test]
    fn injected_failure_is_quarantined_and_the_sweep_continues() {
        // The injection panics *before* any simulation starts, so this
        // stays fast: the experiment body never runs.
        let opts = HarnessOptions {
            watchdog: None,
            fail_experiment: Some("fig1".into()),
            json_path: None,
            progress: false,
        };
        let summary = run_harness_with(&["fig1"], &opts).expect("sweep completes");
        assert_eq!(summary.failures.len(), 1);
        assert_eq!(summary.failures[0].name, "fig1");
        assert_eq!(summary.failures[0].status, "failed");
        assert!(summary.failures[0].detail.contains("NWO_FAIL_EXPERIMENT"));
        assert_eq!(summary.experiments[0].status, "failed");
    }

    #[test]
    fn watchdog_quarantines_a_hung_experiment() {
        let opts = HarnessOptions {
            watchdog: Some(Duration::from_millis(50)),
            fail_experiment: Some("fig1:hang".into()),
            json_path: None,
            progress: false,
        };
        let summary = run_harness_with(&["fig1"], &opts).expect("sweep completes");
        assert_eq!(summary.failures.len(), 1);
        assert_eq!(summary.failures[0].status, "timeout");
        assert!(summary.failures[0].detail.contains("watchdog"));
        assert_eq!(summary.experiments[0].status, "timeout");
    }
}
