//! What the benchmark reads from the host: CPU time and peak memory
//! from `/proc`, the provenance recorded in every report, and the
//! `NWO_*` environment hygiene every run starts with.

use std::time::Duration;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every architecture it supports).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) of every thread this process has run,
/// including threads that already exited. 10 ms resolution.
pub(crate) fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its `)`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // utime and stime are fields 14 and 15 of the full line; after the
    // `)` the state field is index 0, so they sit at 11 and 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Nanosecond-resolution CPU time of the calling thread alone, from
/// `/proc/thread-self/schedstat`.
pub(crate) fn thread_cpu() -> Duration {
    let ns = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_nanos(ns)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Removes every inherited `NWO_*` variable from this process's
/// environment and returns their names, sorted. Called first thing in
/// `main`, before any thread exists, so every child process and every
/// in-process reader sees only what the workload itself sets.
pub fn scrub_nwo_env() -> Vec<String> {
    let mut removed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NWO_"))
        .collect();
    removed.sort();
    for key in &removed {
        std::env::remove_var(key);
    }
    removed
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    let resolved = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read(&format!(".git/{reference}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => head,
    };
    resolved.unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary.
fn rustc_version() -> &'static str {
    env!("PERF_RUSTC_VERSION")
}

/// Provenance for a report: commit, compiler, host and run settings.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Git commit of the working directory.
    pub commit: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Logical CPUs.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Workload seed.
    pub seed: u64,
    /// Inherited `NWO_*` variables removed before the run.
    pub scrubbed: Vec<String>,
}

impl Provenance {
    /// Provenance of a run with `seed` after `scrubbed` were removed.
    pub fn collect(seed: u64, scrubbed: Vec<String>) -> Provenance {
        Provenance {
            commit: commit(),
            rustc: rustc_version().to_string(),
            nproc: nproc(),
            cpu: cpu_model(),
            seed,
            scrubbed,
        }
    }

    /// One human-readable header line.
    pub fn line(&self) -> String {
        format!(
            "# nwo-perf commit {} | {} | nproc {} | cpu {} | seed {} | scrubbed env [{}] | jobs {}",
            self.commit,
            self.rustc,
            self.nproc,
            self.cpu,
            self.seed,
            self.scrubbed.join(" "),
            crate::JOBS
        )
    }

    /// The header as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"commit\": ");
        crate::json::write_str(&mut out, &self.commit);
        out.push_str(", \"rustc\": ");
        crate::json::write_str(&mut out, &self.rustc);
        out.push_str(&format!(", \"nproc\": {}, \"cpu\": ", self.nproc));
        crate::json::write_str(&mut out, &self.cpu);
        out.push_str(&format!(
            ", \"seed\": {}, \"jobs\": {}, \"scrubbed\": [",
            self.seed,
            crate::JOBS
        ));
        for (i, name) in self.scrubbed.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::json::write_str(&mut out, name);
        }
        out.push_str("]}");
        out
    }
}
