//! `nwo-perf`, the repository benchmark: simulator throughput, figure
//! sweep wall time and serve latency, with per-layer attribution.
//!
//! A run is one workload for a fixed time budget. After set-up (timed
//! several times, reported as the median `setup_s`) and one discarded
//! warm-up round, the workload repeats *rounds* — one unit of the work
//! a user waits for — until the budget is spent, and the end-to-end
//! metrics are the best the rounds did (see [`Workload::best`]).
//! A traced run spends the first half of
//! its budget untraced and the second half with span capture on, then
//! runs the fixed layer probes of [`layers::probe`]; see the README for
//! the metric tables.

pub mod compare;
pub mod host;
mod kernels;
mod layers;
mod serve;
pub mod stats;
pub mod sweep;

pub use nwo_sim::obs::json;

use nwo_bench::runner::RunnerCounters;
use nwo_sim::obs::{span, ProfileAgg};
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `run` measures them.
pub const WORKLOADS: [&str; 4] = ["kernels", "sweep-cold", "sweep-warm", "serve-mix"];

/// Worker threads (`NWO_JOBS`) and client connections every workload
/// is limited to.
pub const JOBS: usize = 2;

/// How many times set-up runs before the rounds, and again after them;
/// `setup_s` is the median of all.
pub(crate) const SETUPS: usize = 5;

/// Doublings below the calibrated experiment scale at which the
/// `kernels` and `serve-mix` workloads build their kernels: a pass of
/// all 14 kernels through four engines then takes a few seconds, so a
/// run holds several passes.
pub(crate) const SCALE_DROP: u32 = 2;

/// The scale `kernels` and `serve-mix` build `name` at.
pub(crate) fn perf_scale(name: &str) -> u32 {
    nwo_workloads::experiment_scale(name).saturating_sub(SCALE_DROP)
}

/// FNV-1a digest used for every output-identity check.
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    nwo_ckpt::fnv1a(bytes)
}

/// A kernel ready to run, with its dynamic instruction count.
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    /// The assembled program and its reference output.
    pub bench: nwo_workloads::Benchmark,
    /// The scale it was built at.
    pub scale: u32,
    /// Instructions the functional emulator executes to `halt`: every
    /// run of the kernel, on any machine, commits exactly this many.
    pub insts: u64,
}

/// Builds the named kernels at `scale(name)` and counts their dynamic
/// instructions on the functional emulator: the set-up every workload
/// times (the `workloads` layer).
///
/// # Panics
///
/// Panics on an unknown name or a kernel the emulator cannot run to
/// `halt`; the names are this crate's constants.
pub(crate) fn build_kernels(names: &[&str], scale: impl Fn(&str) -> u32) -> Vec<Kernel> {
    let _span = span::span("workloads");
    names
        .iter()
        .map(|&name| {
            let scale = scale(name);
            let bench = nwo_workloads::benchmark(name, scale).expect("known kernel name");
            let mut emu = nwo_isa::Emulator::new(&bench.program);
            emu.run(u64::MAX).expect("kernels run to halt");
            Kernel {
                insts: emu.icount(),
                bench,
                scale,
            }
        })
        .collect()
}

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Time budget of the measured rounds.
    pub seconds: f64,
    /// Per-layer run (spans on) instead of the end-to-end run.
    pub trace: bool,
    /// Smoke-test sizes: 2 kernels, `fig1` only, 6 requests.
    pub quick: bool,
    /// Private scratch directory for this run, removed afterwards.
    pub scratch: PathBuf,
}

impl RunOptions {
    /// Where a traced run writes its Chrome trace.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(".nwo-perf").join(format!("trace-{}.json", self.workload))
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one round of a workload did and how long it took.
#[derive(Debug, Clone, Default)]
pub(crate) struct Round {
    /// Wall time of the round.
    pub wall_s: f64,
    /// CPU time the round consumed, all threads and child processes.
    pub cpu_s: f64,
    /// Peak RSS of the child process that ran the round; `None` when
    /// the round ran in this process, whose peak after the warm-up
    /// round stands in.
    pub rss_mib: Option<f64>,
    /// Wall and on-CPU seconds of each part of a round made of
    /// independent parts, in a fixed order (`kernels` only).
    pub parts: Vec<(f64, f64)>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or produced a wrong output.
    pub failed: u64,
    /// Digest of the round's outputs; every round of a run must match.
    pub digest: u64,
    /// Instructions committed by fresh simulations (an exact count).
    pub committed: u64,
    /// Cycles simulated by fresh simulations (an exact count).
    pub cycles: u64,
    /// Request latencies, pooled across rounds into percentiles.
    pub latencies: Vec<f64>,
    /// Seconds the driving threads spent inside benchmark-side layer
    /// spans (traced rounds only).
    pub covered_s: f64,
    /// Threads driving the round (the denominator of coverage).
    pub drivers: usize,
    /// Span aggregate recorded by a child process (traced rounds only);
    /// in-process spans are added by [`timed_rounds`].
    pub spans: ProfileAgg,
    /// Bench-runner work of the round.
    pub runner: RunnerCounters,
}

/// The end-to-end figures a run reports for its rounds.
#[derive(Debug, Clone, Default)]
pub(crate) struct Best {
    /// Wall time of a round.
    pub wall_s: f64,
    /// CPU time of a round.
    pub cpu_s: f64,
    /// Freshly simulated instructions per host second, in millions.
    pub sim_mips: f64,
    /// Peak RSS of a round's child process, if rounds ran in one.
    pub rss_mib: Option<f64>,
    /// Workload-specific throughputs.
    pub extra: Vec<Metric>,
}

/// A workload, set up and ready to run rounds.
pub(crate) trait Workload {
    /// Runs one round; `traced` rounds record spans.
    fn round(&mut self, traced: bool) -> Round;

    /// The end-to-end figures of `rounds`: by default each cost is its
    /// smallest value over the rounds. Other processes sharing the
    /// machine only ever slow a round down, so the fastest round follows
    /// the program while a mean or median also follows the machine's
    /// load.
    fn best(&self, rounds: &[Round]) -> Best {
        let min = |f: fn(&Round) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
        let wall_s = min(|r| r.wall_s);
        Best {
            wall_s,
            cpu_s: min(|r| r.cpu_s),
            // Every round simulates the same instructions (checked).
            sim_mips: rounds.first().map_or(0.0, |r| r.committed as f64) / wall_s / 1e6,
            rss_mib: rounds.iter().filter_map(|r| r.rss_mib).reduce(f64::min),
            extra: Vec::new(),
        }
    }
}

/// Builds the workload named in `opts` (one set-up).
///
/// # Errors
///
/// An unknown workload name, or a set-up failure such as missing
/// reference CSVs.
pub(crate) fn setup(opts: &RunOptions) -> Result<Box<dyn Workload>, String> {
    match opts.workload.as_str() {
        "kernels" => Ok(Box::new(kernels::Kernels::setup(opts))),
        "sweep-cold" | "sweep-warm" => Ok(Box::new(sweep::Sweep::setup(opts)?)),
        "serve-mix" => Ok(Box::new(serve::ServeMix::setup(opts))),
        other => Err(format!("unknown workload `{other}`; known: {WORKLOADS:?}")),
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations (divergence, wrong output, error frame,
    /// quarantined experiment, digest change between rounds).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end numbers (untraced run).
    pub extra: Vec<Metric>,
    /// Output digest shared by every round.
    pub digest: u64,
    /// Exact counts per round.
    pub counts: Vec<(&'static str, u64)>,
    /// Wall time of each measured round.
    pub round_walls: Vec<f64>,
}

/// Runs rounds until `budget` seconds of them have elapsed, never
/// starting one the rounds so far say would overrun (at least one).
fn timed_rounds(w: &mut dyn Workload, budget: f64, traced: bool) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let before = span::aggregate();
        let mut round = w.round(traced);
        if traced {
            merge(&mut round.spans, &span::aggregate().since(&before));
        }
        rounds.push(round);
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        if start.elapsed().as_secs_f64() + stats::median(&walls) > budget {
            return rounds;
        }
    }
}

/// Adds `more`'s per-path totals to `into`.
pub(crate) fn merge(into: &mut ProfileAgg, more: &ProfileAgg) {
    for (path, stat) in &more.spans {
        let slot = into.spans.entry(path.clone()).or_default();
        slot.total_ns += stat.total_ns;
        slot.count += stat.count;
        for (k, v) in &stat.counters {
            *slot.counters.entry(k).or_insert(0) += v;
        }
    }
}

/// Sets the workload up [`SETUPS`] times, adding each set-up's seconds
/// to `times`, and returns the last one.
fn timed_setups(opts: &RunOptions, times: &mut Vec<f64>) -> Result<Box<dyn Workload>, String> {
    let mut workload = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        workload = Some(setup(opts)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(workload.expect("SETUPS > 0"))
}

/// Runs one workload as `opts` says: set-up, warm-up, measured rounds,
/// and for a traced run the layer probes.
///
/// # Errors
///
/// A set-up failure.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(2 * SETUPS);
    let mut w = timed_setups(opts, &mut setups)?;
    // The first round of a fresh process runs slow (page faults, cold
    // allocator and caches); it is checked but not timed. Peak memory
    // is read after it: the footprint of set-up plus one round, which
    // later rounds only blur with allocator arena reuse.
    let warm = vec![w.round(false)];
    let rss_after_warm_up = host::peak_rss_mib();
    let mut result = if opts.trace {
        let plain = timed_rounds(&mut *w, opts.seconds / 2.0, false);
        span::enable(true);
        let traced = timed_rounds(&mut *w, opts.seconds / 2.0, true);
        let events = span::report();
        if !events.events.is_empty() {
            let path = opts.trace_path();
            if let Err(e) = std::fs::write(&path, events.to_chrome_trace()) {
                eprintln!("nwo-perf: cannot write {}: {e}", path.display());
            }
        }
        let mut metrics = layers::probe(opts);
        metrics.extend(layers::attribute(&plain, &traced));
        let mut result = summarize(&traced, metrics);
        add_checks(&mut result, &plain);
        result
    } else {
        let rounds = timed_rounds(&mut *w, opts.seconds, false);
        let best = w.best(&rounds);
        // More set-ups at the other end of the run: a burst of load
        // from another process then has to last the whole run to move
        // the median.
        timed_setups(opts, &mut setups)?;
        let metrics = vec![
            Metric::new("setup_s", "s", stats::median(&setups)),
            Metric::new("wall_s", "s", best.wall_s),
            Metric::new("cpu_s", "s", best.cpu_s),
            Metric::new("sim_mips", "Minst/s", best.sim_mips),
            Metric::new(
                "peak_rss_mib",
                "MiB",
                best.rss_mib.unwrap_or(rss_after_warm_up),
            ),
        ];
        let mut result = summarize(&rounds, metrics);
        result.extra = best.extra;
        result.extra.extend(latency_metrics(&rounds));
        result
    };
    add_checks(&mut result, &warm);
    Ok(result)
}

/// Folds the rounds' checks and exact counts into a result.
fn summarize(rounds: &[Round], metrics: Vec<Metric>) -> RunResult {
    let mut result = RunResult {
        metrics,
        digest: rounds.first().map_or(0, |r| r.digest),
        counts: vec![
            ("sim.committed", rounds.first().map_or(0, |r| r.committed)),
            ("sim.cycles", rounds.first().map_or(0, |r| r.cycles)),
        ],
        round_walls: rounds.iter().map(|r| r.wall_s).collect(),
        ..RunResult::default()
    };
    add_checks(&mut result, rounds);
    result
}

/// Adds `rounds`' checked operations to `result`; a round whose digest
/// or exact counts differ from the result's is one more failure.
fn add_checks(result: &mut RunResult, rounds: &[Round]) {
    for r in rounds {
        result.attempted += r.attempted;
        result.failed += r.failed;
        let counts = [("sim.committed", r.committed), ("sim.cycles", r.cycles)];
        if r.digest != result.digest || counts[..] != result.counts[..2] {
            eprintln!("nwo-perf: a round's outputs differ from the first round's");
            result.failed += 1;
        }
    }
}

/// Request latencies pooled over `rounds`, as throughput and
/// percentiles (none for a workload without requests).
fn latency_metrics(rounds: &[Round]) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    if !latencies.is_empty() {
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        out.push(Metric::new(
            "req_per_s",
            "req/s",
            latencies.len() as f64 / wall,
        ));
        out.push(Metric::new(
            "req_p50_s",
            "s",
            stats::percentile(&latencies, 50.0),
        ));
        out.push(Metric::new(
            "req_p90_s",
            "s",
            stats::percentile(&latencies, 90.0),
        ));
        out.push(Metric::new("req_n", "count", latencies.len() as f64));
    }
    out
}
