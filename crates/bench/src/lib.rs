#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation from the simulator.
//!
//! `nwo experiments` drives [`harness::run_harness`], which runs each
//! experiment through [`figures::run_experiment`]; each experiment
//! prints a paper-style table to stdout. Individual experiments can be
//! selected by name:
//!
//! ```sh
//! cargo run --release -p nwo-cli -- experiments fig10 fig11
//! ```
//!
//! Set `NWO_SCALE=n` to double every benchmark's input size `n` times,
//! and `NWO_JOBS=n` to size the worker pool (default: available
//! parallelism); [`env`](mod@env) parses every `NWO_*` variable. See
//! `docs/benchmarking.md` for the harness architecture, memoization
//! semantics, the variable table and the `BENCH_harness.json`
//! timing-summary schema.

use nwo_core::{GatingConfig, PackConfig};
use nwo_sim::{SimConfig, SimReport, Simulator};
use nwo_workloads::{experiment_suite, Benchmark, Suite};

pub mod env;
pub mod figures;
pub mod harness;
pub mod runner;
pub mod table;

/// Runs `bench` under `config`, verifying architected output against the
/// reference implementation.
///
/// # Panics
///
/// Panics if the simulation fails or the output diverges — a diverging
/// optimization would invalidate every number it produces.
pub fn run(bench: &Benchmark, config: SimConfig) -> SimReport {
    run_with_warm_state(bench, config, None)
}

/// Runs `bench` under `config`, optionally restoring pre-warmed machine
/// state (a blob from [`warm_checkpoint`]) in place of functional
/// warmup. Output verification covers the whole program either way:
/// warmed-over instructions contribute their architected output to the
/// checkpoint, so `out_quads` still equals the reference.
///
/// # Panics
///
/// Panics if the checkpoint does not match this `(bench, config)` pair,
/// the simulation fails, or the output diverges.
pub fn run_with_warm_state(bench: &Benchmark, config: SimConfig, warm: Option<&[u8]>) -> SimReport {
    let mut sim = Simulator::new(&bench.program, config);
    if let Some(bytes) = warm {
        sim.restore_checkpoint(bytes)
            .unwrap_or_else(|e| panic!("{}: warm checkpoint rejected: {e}", bench.name));
    }
    let report = sim
        .run(u64::MAX)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name));
    assert_eq!(
        report.out_quads, bench.expected,
        "{} diverged from its reference output",
        bench.name
    );
    report
}

/// Functionally warms a fresh machine for `insts` instructions and
/// serializes the result — the shareable fast-forward image the runner
/// reuses across every config with the same
/// [`SimConfig::warm_fingerprint`].
///
/// # Panics
///
/// Panics if the warmup itself fails (ill-formed program).
pub fn warm_checkpoint(bench: &Benchmark, config: &SimConfig, insts: u64) -> Vec<u8> {
    let mut sim = Simulator::new(&bench.program, config.clone());
    sim.warmup(insts)
        .unwrap_or_else(|e| panic!("{}: warmup failed: {e}", bench.name));
    sim.checkpoint()
}

/// The harness workload scale: the `NWO_SCALE` env bump (0 when
/// unset). Also the scale component of the runner's memo key.
pub fn harness_scale() -> u32 {
    env::Env::current().scale
}

/// The benchmark suite at the harness scale (`NWO_SCALE` env bump).
/// Workload generation and assembly is the harness's decode phase, so
/// it runs under a `decode` profiling span.
pub fn suite() -> Vec<Benchmark> {
    let _prof = nwo_sim::obs::span::span("decode");
    experiment_suite(harness_scale())
}

/// Header line of the bench table, shared by `nwo bench` and the
/// `nwo serve` result frames so both surfaces stay byte-identical.
pub fn bench_table_header() -> String {
    format!(
        "{:<11} {:>6} {:>10} {:>9} {:>7} {:>8} {:>9}",
        "benchmark", "scale", "instrs", "cycles", "ipc", "narrow16", "verified"
    )
}

/// One bench-table row for a verified report. Every number comes from
/// the deterministic simulator, so the row is byte-identical however
/// the report was obtained — fresh run, memo hit, or disk cache.
pub fn bench_table_row(name: &str, scale: u32, report: &SimReport) -> String {
    format!(
        "{:<11} {:>6} {:>10} {:>9} {:>7.3} {:>7.1}% {:>9}",
        name,
        scale,
        report.stats.committed,
        report.stats.cycles,
        report.ipc(),
        report.stats.breakdown.narrow16_total_fraction() * 100.0,
        "ok"
    )
}

/// Geometric-mean speedup in percent over pairs of (baseline, variant)
/// cycle counts.
pub fn mean_speedup_percent(pairs: &[(u64, u64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|&(base, opt)| (base as f64 / opt as f64).ln())
        .sum();
    ((log_sum / pairs.len() as f64).exp() - 1.0) * 100.0
}

/// Arithmetic mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Splits a suite's values by membership for per-suite averages.
pub fn by_suite<T: Copy>(benches: &[Benchmark], values: &[T]) -> (Vec<T>, Vec<T>) {
    let mut spec = Vec::new();
    let mut media = Vec::new();
    for (b, &v) in benches.iter().zip(values) {
        match b.suite {
            Suite::SpecInt => spec.push(v),
            Suite::Media => media.push(v),
        }
    }
    (spec, media)
}

/// Baseline Table 1 machine.
pub fn base_config() -> SimConfig {
    SimConfig::default()
}

/// Clock-gating machine (Section 4).
pub fn gating_config() -> SimConfig {
    SimConfig::default().with_gating(GatingConfig::default())
}

/// Packing machine (Section 5.2).
pub fn packing_config() -> SimConfig {
    SimConfig::default().with_packing(PackConfig::default())
}

/// Replay-packing machine (Section 5.3).
pub fn replay_config() -> SimConfig {
    SimConfig::default().with_packing(PackConfig::with_replay())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_speedup_of_identity_is_zero() {
        assert!(mean_speedup_percent(&[(100, 100), (50, 50)]).abs() < 1e-12);
        assert_eq!(mean_speedup_percent(&[]), 0.0);
    }

    #[test]
    fn mean_speedup_detects_improvement() {
        let s = mean_speedup_percent(&[(110, 100)]);
        assert!((s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_experiments_are_rejected() {
        assert!(!crate::figures::run_experiment("not-an-experiment"));
        assert!(crate::figures::build_experiment("not-an-experiment").is_none());
    }

    #[test]
    fn every_listed_experiment_dispatches() {
        // Dispatch is driven by the same table as the name list, so a
        // listed name can never fail to resolve — and names stay unique.
        let names = crate::figures::experiment_names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "experiment names are unique");
        for name in names {
            assert!(
                crate::figures::find_experiment(name).is_some(),
                "listed experiment `{name}` must dispatch"
            );
        }
    }

    #[test]
    fn run_verifies_output() {
        let suite = experiment_suite(0);
        let bench = suite.iter().find(|b| b.name == "perl").unwrap();
        let report = run(bench, base_config());
        assert!(report.stats.committed > 0);
    }
}
