//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo bench -p nwo-bench --bench figures            # everything
//! cargo bench -p nwo-bench --bench figures -- fig10   # one experiment
//! NWO_SCALE=2 cargo bench -p nwo-bench --bench figures # 4x larger inputs
//! NWO_JOBS=1  cargo bench -p nwo-bench --bench figures # serial run
//! ```
//!
//! Simulations run on a memoizing worker pool (see
//! `docs/benchmarking.md`); each experiment prints a `[name  wall …]`
//! summary line, and the whole run is persisted to
//! `BENCH_harness.json` for perf-trajectory tracking.

use nwo_bench::figures::experiment_names;
use nwo_bench::harness::run_harness;

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-')) // ignore cargo-bench flags like --bench
        .collect();
    let selected: Vec<&str> = if args.is_empty() {
        experiment_names()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // A malformed NWO_* value (NWO_JOBS=0, NWO_SCALE=x, …) aborts up
    // front with the typed error instead of falling back mid-run.
    if let Err(e) = nwo_bench::env::Env::load() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    println!("nwo experiment harness — reproducing Brooks & Martonosi, HPCA 1999");
    match run_harness(&selected) {
        Ok(summary) if summary.failures.is_empty() => {
            println!();
            println!(
                "all {} experiments completed in {:.1}s ({} sims, {} memo hits, {} workers)",
                summary.experiments.len(),
                summary.wall_s,
                summary.sims_run,
                summary.memo_hits,
                summary.jobs
            );
        }
        // The sweep finished and the JSON is on disk, quarantined
        // entries included; the exit code still flags the trouble.
        Ok(summary) => {
            eprintln!();
            for f in &summary.failures {
                eprintln!("quarantined: {} ({}): {}", f.name, f.status, f.detail);
            }
            std::process::exit(3);
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
