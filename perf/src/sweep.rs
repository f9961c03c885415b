//! The `sweep-cold` and `sweep-warm` workloads: a figure sweep through
//! `run_harness_with`, each round in a fresh child process, as the user
//! who waits for figures runs it.
//!
//! `sweep-cold` has no warmup and no cache directory, and its CSVs must
//! match the checked-in `data/*.csv` byte for byte. `sweep-warm` adds
//! `NWO_WARMUP=100000` and a fresh `NWO_CACHE_DIR`, so every round
//! encodes, stores and restores warm checkpoints (the `ckpt` layer);
//! its CSVs must read the same digest in every round.

use crate::json::{self, JsonValue};
use crate::{build_kernels, host, Kernel, Round, RunOptions, Workload};
use nwo_bench::harness::{run_harness_with, HarnessOptions};
use nwo_bench::runner::RunnerCounters;
use nwo_sim::obs::{span, ProfileAgg, SpanStat};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Experiments a sweep round runs. `ablation-window` scans RUU sizes
/// 16 to 160, where issue-stage cost shows.
const EXPERIMENTS: [&str; 1] = ["ablation-window"];

/// Experiments a `--quick` round runs.
const QUICK_EXPERIMENTS: [&str; 1] = ["fig1"];

/// Instructions fast-forwarded before every timed simulation in
/// `sweep-warm`.
const WARMUP_INSTS: u64 = 100_000;

/// The set-up sweep workload.
pub(crate) struct Sweep {
    names: Vec<&'static str>,
    warm: bool,
    /// Reference CSV bytes per experiment (`sweep-cold` only).
    expected: Vec<Vec<u8>>,
    /// Dynamic instruction count per kernel name, at experiment scale.
    insts: BTreeMap<&'static str, u64>,
    scratch: PathBuf,
    trace_path: PathBuf,
    rounds: usize,
}

impl Sweep {
    /// Reads the reference CSVs and counts each kernel's instructions.
    ///
    /// # Errors
    ///
    /// A missing `data/<experiment>.csv` (run from the repository root).
    pub(crate) fn setup(opts: &RunOptions) -> Result<Sweep, String> {
        let names: Vec<&'static str> = if opts.quick {
            QUICK_EXPERIMENTS.to_vec()
        } else {
            EXPERIMENTS.to_vec()
        };
        let warm = opts.workload == "sweep-warm";
        let expected = if warm {
            Vec::new()
        } else {
            names
                .iter()
                .map(|n| {
                    let path = Path::new("data").join(format!("{n}.csv"));
                    std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))
                })
                .collect::<Result<_, _>>()?
        };
        let kernels: Vec<Kernel> = build_kernels(
            &nwo_workloads::BENCHMARK_NAMES,
            nwo_workloads::experiment_scale,
        );
        Ok(Sweep {
            names,
            warm,
            expected,
            insts: kernels.iter().map(|k| (k.bench.name, k.insts)).collect(),
            scratch: opts.scratch.clone(),
            trace_path: opts.trace_path(),
            rounds: 0,
        })
    }
}

impl Workload for Sweep {
    fn round(&mut self, traced: bool) -> Round {
        self.rounds += 1;
        let dir = self.scratch.join(format!("sweep-{}", self.rounds));
        let csv_dir = dir.join("csv");
        let mut child = Command::new(std::env::current_exe().expect("own executable path"));
        child
            .arg("sweep-child")
            .arg(self.names.join(","))
            .env("NWO_CSV", &csv_dir)
            .env("NWO_HARNESS_JSON", "0")
            .stdout(Stdio::piped());
        if self.warm {
            child
                .env("NWO_WARMUP", WARMUP_INSTS.to_string())
                .env("NWO_CACHE_DIR", dir.join("cache"));
        }
        if traced {
            child.arg(&self.trace_path);
        }
        let mut round = Round {
            drivers: 1,
            attempted: self.names.len() as u64,
            ..Round::default()
        };
        let start = Instant::now();
        let output = child.output();
        round.wall_s = start.elapsed().as_secs_f64();
        let report = output.map_err(|e| e.to_string()).and_then(|out| {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("").to_string();
            if out.status.success() {
                json::parse(&last).map_err(|e| format!("{e}: {last}"))
            } else {
                Err(format!("sweep child failed: {}", out.status))
            }
        });
        let report = match report {
            Ok(v) => v,
            Err(e) => {
                eprintln!("nwo-perf: {e}");
                round.failed = round.attempted;
                let _ = std::fs::remove_dir_all(&dir);
                return round;
            }
        };
        let num = |key: &str| report.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        round.cpu_s = num("cpu_s");
        round.rss_mib = Some(num("rss_mib"));
        round.covered_s = num("covered_s");
        round.cycles = num("cycles") as u64;
        round.failed += num("quarantined") as u64;
        round.runner = RunnerCounters {
            sims_run: num("sims_run") as u64,
            memo_hits: num("memo_hits") as u64,
            disk_hits: num("disk_hits") as u64,
            warmups_run: num("warmups_run") as u64,
            warm_hits: num("warm_hits") as u64,
            ..RunnerCounters::default()
        };
        // Every run of a kernel commits its whole dynamic instruction
        // count, less what warmup fast-forwarded.
        let warmup = if self.warm { WARMUP_INSTS } else { 0 };
        if let Some(JsonValue::Object(jobs)) = report.get("jobs") {
            for (name, count) in jobs {
                let insts = self.insts.get(name.as_str()).copied().unwrap_or(0);
                round.committed += count.as_u64().unwrap_or(0) * insts.saturating_sub(warmup);
            }
        }
        if let Some(spans) = report.get("spans").and_then(JsonValue::as_array) {
            round.spans = parse_spans(spans);
        }
        let mut csvs = Vec::new();
        for (i, name) in self.names.iter().enumerate() {
            let bytes = std::fs::read(csv_dir.join(format!("{name}.csv"))).unwrap_or_default();
            if bytes.is_empty() || self.expected.get(i).is_some_and(|e| *e != bytes) {
                eprintln!("nwo-perf: {name}.csv differs from the reference");
                round.failed += 1;
            }
            csvs.extend_from_slice(&bytes);
        }
        round.digest = crate::digest(&csvs);
        let _ = std::fs::remove_dir_all(&dir);
        round
    }
}

/// Span aggregate entries as the child prints them:
/// `[path, total_ns, count, cycles]`.
fn parse_spans(entries: &[JsonValue]) -> ProfileAgg {
    let mut agg = ProfileAgg::default();
    for entry in entries {
        let Some([path, ns, count, cycles]) = entry.as_array() else {
            continue;
        };
        let mut stat = SpanStat {
            total_ns: ns.as_u64().unwrap_or(0),
            count: count.as_u64().unwrap_or(0),
            ..SpanStat::default()
        };
        if let Some(c) = cycles.as_u64().filter(|&c| c > 0) {
            stat.counters.insert("cycles", c);
        }
        agg.spans
            .insert(path.as_str().unwrap_or("").to_string(), stat);
    }
    agg
}

/// Body of the `sweep-child` process: runs the experiments named in
/// `names` (comma-separated) on the harness with the environment the
/// parent set, and prints one JSON line of what it measured. With
/// `trace_out`, also writes the Chrome trace there and reports the span
/// aggregate.
pub fn child(names: &str, trace_out: Option<&str>) -> i32 {
    let names: Vec<&str> = names.split(',').collect();
    // Capture lets the `sim-job` spans, labeled with their kernel, say
    // which kernels were simulated; the harness keeps spans on anyway.
    span::enable(true);
    let summary = {
        let _span = span::span("bench");
        run_harness_with(&names, &HarnessOptions::from_env())
    };
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nwo-perf: {e}");
            return 1;
        }
    };
    let report = span::report();
    let mut jobs: BTreeMap<&str, u64> = BTreeMap::new();
    for event in &report.events {
        if event.path.rsplit('/').next() == Some("sim-job") {
            *jobs.entry(event.name.as_str()).or_insert(0) += 1;
        }
    }
    let cycles: u64 = report
        .agg
        .spans
        .values()
        .filter_map(|s| s.counters.get("cycles"))
        .sum();
    let mut out = format!(
        "{{\"cpu_s\": {}, \"rss_mib\": {}, \"covered_s\": {}, \"cycles\": {cycles}, \
         \"quarantined\": {}, \"sims_run\": {}, \"memo_hits\": {}, \"disk_hits\": {}, \
         \"warmups_run\": {}, \"warm_hits\": {}, \"jobs\": {{",
        host::process_cpu_s(),
        host::peak_rss_mib(),
        report
            .agg
            .spans
            .get("bench")
            .map_or(0.0, |s| s.total_ns as f64 / 1e9),
        summary.failures.len(),
        summary.sims_run,
        summary.memo_hits,
        summary.disk_hits,
        summary.warmups_run,
        summary.warm_hits,
    );
    for (i, (name, count)) in jobs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, name);
        out.push_str(&format!(": {count}"));
    }
    out.push('}');
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, report.to_chrome_trace()) {
            eprintln!("nwo-perf: cannot write {path}: {e}");
        }
        out.push_str(", \"spans\": [");
        for (i, (path, stat)) in report.agg.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            json::write_str(&mut out, path);
            let cycles = stat.counters.get("cycles").copied().unwrap_or(0);
            out.push_str(&format!(", {}, {}, {cycles}]", stat.total_ns, stat.count));
        }
        out.push(']');
    }
    out.push('}');
    println!("{out}");
    0
}
