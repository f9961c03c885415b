//! The `nwo-perf` command line. See the crate README.
//!
//! ```text
//! nwo-perf --workload W --seed N --seconds S --trace 0|1 [--quick]
//! nwo-perf run [--seed N] [--runs N] [--seconds S] [--trace] [--quick]
//!              [--workload W]... [--out FILE]
//! nwo-perf compare A.json B.json [--bounds BENCHMARK.json]
//! ```

use nwo_perf::json::{self, JsonValue};
use nwo_perf::stats::{self, Summary};
use nwo_perf::{compare, host, sweep, Metric, RunOptions, RunResult, JOBS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Budget of one run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Budget of one `--quick` run.
const QUICK_SECONDS: f64 = 1.0;

/// Where runs keep scratch files, traces and result files.
const WORK_DIR: &str = ".nwo-perf";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep-child") {
        // Runs under the environment its parent set up; no scrubbing.
        let names = args.get(1).map_or("", String::as_str);
        std::process::exit(sweep::child(names, args.get(2).map(String::as_str)));
    }
    let scrubbed = host::scrub_nwo_env();
    std::env::set_var("NWO_JOBS", JOBS.to_string());
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..], scrubbed),
        _ => workload_cmd(&args, scrubbed),
    };
    std::process::exit(code);
}

/// Parsed flags shared by the measuring commands.
struct Flags {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    positional: Vec<String>,
    bounds: PathBuf,
}

/// Parses `args`; `bare_trace` makes `--trace` a switch (`run`) rather
/// than a flag taking 0 or 1 (a single workload run).
fn parse_flags(args: &[String], bare_trace: bool) -> Result<Flags, String> {
    let mut flags = Flags {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 3,
        out: None,
        positional: Vec::new(),
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workloads.push(value(arg)?),
            "--seed" => flags.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                flags.seconds = Some(s);
            }
            "--trace" if bare_trace => flags.trace = true,
            "--trace" => {
                flags.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => flags.quick = true,
            "--runs" => {
                flags.runs = value(arg)?.parse().map_err(|e| format!("--runs: {e}"))?;
                if flags.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => flags.out = Some(PathBuf::from(value(arg)?)),
            "--bounds" => flags.bounds = PathBuf::from(value(arg)?),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => flags.positional.push(other.to_string()),
        }
    }
    for w in &flags.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`; known: {WORKLOADS:?}"));
        }
    }
    Ok(flags)
}

/// Refuses to measure an unoptimized build; a `--quick` smoke run
/// measures nothing worth keeping and is allowed.
fn check_build(quick: bool) -> Result<(), i32> {
    if cfg!(debug_assertions) && !quick {
        eprintln!(
            "nwo-perf: this binary was built with debug assertions; measure a release build \
             (cargo run --release --manifest-path perf/Cargo.toml -- ...)"
        );
        return Err(2);
    }
    if host::nproc() < JOBS {
        eprintln!(
            "nwo-perf: warning: {} CPU(s) available, the workloads use {JOBS} threads",
            host::nproc()
        );
    }
    Ok(())
}

/// Writes `metrics` as a JSON object of `{"value": v, "unit": u}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        json::write_f64(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json::write_str(&mut out, m.unit);
        out.push('}');
    }
    out.push('}');
    out
}

/// One workload run, as the benchmark contract specifies: the report,
/// a detail line, and as the last line the result object.
fn workload_cmd(args: &[String], scrubbed: Vec<String>) -> i32 {
    let flags = match parse_flags(args, false) {
        Ok(f) if f.workloads.len() == 1 && f.positional.is_empty() => f,
        Ok(_) => {
            eprintln!("usage: nwo-perf --workload W --seed N --seconds S --trace 0|1 [--quick]");
            return 1;
        }
        Err(e) => {
            eprintln!("nwo-perf: {e}");
            return 1;
        }
    };
    if let Err(code) = check_build(flags.quick) {
        return code;
    }
    let provenance = host::Provenance::collect(flags.seed, scrubbed);
    println!("{}", provenance.line());
    let scratch = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("nwo-perf: cannot create {}: {e}", scratch.display());
        return 1;
    }
    let opts = RunOptions {
        workload: flags.workloads[0].clone(),
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(if flags.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: flags.trace,
        quick: flags.quick,
        scratch: scratch.clone(),
    };
    let result = nwo_perf::run(&opts);
    let _ = std::fs::remove_dir_all(&scratch);
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nwo-perf: {e}");
            return 1;
        }
    };
    for m in result.metrics.iter().chain(&result.extra) {
        println!(
            "{:<11} {:<30} {:>16.6} {}",
            opts.workload, m.name, m.value, m.unit
        );
    }
    if opts.trace {
        println!(
            "{:<11} chrome trace: {}",
            opts.workload,
            opts.trace_path().display()
        );
    }
    println!("{}", detail_json(&opts, &result, &provenance));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics_json(&result.metrics)
    );
    0
}

/// The line before the result: what `run` and `compare` need beyond
/// the contract's metrics.
fn detail_json(opts: &RunOptions, r: &RunResult, provenance: &host::Provenance) -> String {
    let mut counts = String::from("{");
    for (i, (name, n)) in r.counts.iter().enumerate() {
        if i > 0 {
            counts.push_str(", ");
        }
        counts.push_str(&format!("\"{name}\": {n}"));
    }
    counts.push('}');
    format!(
        "{{\"detail\": {{\"workload\": \"{}\", \"trace\": {}, \"round_walls\": {:?}, \"digest\": \"{:016x}\", \
         \"counts\": {counts}, \"extra\": {}, \"header\": {}}}}}",
        opts.workload,
        opts.trace,
        r.round_walls,
        r.digest,
        metrics_json(&r.extra),
        provenance.to_json()
    )
}

/// What `run` collected from one child run.
struct ChildRun {
    result: JsonValue,
    detail: JsonValue,
}

/// Runs one workload in a fresh child process of this binary. The child
/// inherits the environment `main` scrubbed, and scrubs it again itself.
fn spawn_run(workload: &str, flags: &Flags, trace: bool, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &flags.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if flags.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    if !out.status.success() || lines.len() < 2 {
        return Err(format!("{workload} run failed ({})", out.status));
    }
    let parse = |l: &str| json::parse(l).map_err(|e| format!("{workload}: {e}"));
    let detail = parse(lines[lines.len() - 2])?;
    Ok(ChildRun {
        result: parse(lines[lines.len() - 1])?,
        detail: detail.get("detail").cloned().ok_or("missing detail line")?,
    })
}

/// `(name, unit, value)` of every metric in a `{"name": {"value", "unit"}}` object.
fn metric_values(obj: Option<&JsonValue>) -> Vec<(String, String, f64)> {
    match obj {
        Some(JsonValue::Object(entries)) => entries
            .iter()
            .filter_map(|(name, m)| {
                let unit = m.get("unit")?.as_str()?.to_string();
                Some((name.clone(), unit, m.get("value")?.as_f64()?))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `run`: every selected workload, `--runs` times each in fresh child
/// processes, one after another; prints medians and quartiles and
/// writes a result file for `compare`.
fn run_cmd(args: &[String], scrubbed: Vec<String>) -> i32 {
    let flags = match parse_flags(args, true) {
        Ok(f) if f.positional.is_empty() => f,
        Ok(f) => {
            eprintln!("nwo-perf run: unexpected argument `{}`", f.positional[0]);
            return 1;
        }
        Err(e) => {
            eprintln!("nwo-perf: {e}");
            return 1;
        }
    };
    if let Err(code) = check_build(flags.quick) {
        return code;
    }
    let seconds = flags.seconds.unwrap_or(if flags.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let selected: Vec<&str> = if flags.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        flags.workloads.iter().map(String::as_str).collect()
    };
    let provenance = host::Provenance::collect(flags.seed, scrubbed);
    println!("{}", provenance.line());
    let mut file = format!(
        "{{\"schema\": 1, \"header\": {}, \"seed\": {}, \"runs\": {}, \"seconds\": {seconds}, \
         \"quick\": {}, \"workloads\": [",
        provenance.to_json(),
        flags.seed,
        flags.runs,
        flags.quick
    );
    let mut failures = 0u64;
    for (wi, workload) in selected.iter().enumerate() {
        let mut runs = Vec::new();
        for i in 0..flags.runs {
            eprintln!("nwo-perf: {workload} run {}/{}", i + 1, flags.runs);
            match spawn_run(workload, &flags, false, seconds) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("nwo-perf: {e}");
                    failures += 1;
                }
            }
        }
        let traced = if flags.trace {
            eprintln!("nwo-perf: {workload} traced run");
            spawn_run(workload, &flags, true, seconds)
                .map_err(|e| {
                    eprintln!("nwo-perf: {e}");
                    failures += 1;
                })
                .ok()
        } else {
            None
        };
        let num = |r: &ChildRun, k: &str| r.result.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        let attempted: u64 = runs
            .iter()
            .chain(&traced)
            .map(|r| num(r, "attempted"))
            .sum();
        let mut failed: u64 = runs.iter().chain(&traced).map(|r| num(r, "failed")).sum();
        let text = |r: &ChildRun, k: &str| r.detail.get(k).map(|v| format!("{v:?}"));
        let digest = runs.first().and_then(|r| r.detail.get("digest").cloned());
        let counts = runs.first().and_then(|r| text(r, "counts"));
        for r in runs.iter().chain(&traced) {
            if r.detail.get("digest").cloned() != digest || text(r, "counts") != counts {
                eprintln!("nwo-perf: {workload}: runs of the same seed disagree on their outputs");
                failed += 1;
            }
        }
        failures += failed;
        // Metric name -> (unit, values across runs), in first-seen order.
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for r in &runs {
            let all = metric_values(r.result.get("metrics"))
                .into_iter()
                .chain(metric_values(r.detail.get("extra")));
            for (name, unit, value) in all {
                match series.iter_mut().find(|(n, _, _)| *n == name) {
                    Some(s) => s.2.push(value),
                    None => series.push((name, unit, vec![value])),
                }
            }
        }
        println!(
            "{workload}: fail_ratio {}/{attempted}, digest {}",
            failed,
            digest.as_ref().and_then(JsonValue::as_str).unwrap_or("-")
        );
        if wi > 0 {
            file.push(',');
        }
        file.push_str("\n  {\"name\": ");
        json::write_str(&mut file, workload);
        file.push_str(&format!(
            ", \"attempted\": {attempted}, \"failed\": {failed}, \"digest\": "
        ));
        json::write_str(
            &mut file,
            digest.as_ref().and_then(JsonValue::as_str).unwrap_or(""),
        );
        file.push_str(", \"counts\": ");
        file.push_str(
            &runs
                .first()
                .and_then(|r| r.detail.get("counts"))
                .map_or("{}".to_string(), json_text),
        );
        file.push_str(", \"metrics\": {");
        for (i, (name, unit, values)) in series.iter().enumerate() {
            let s = Summary::of(values).expect("nonempty series");
            let tail = stats::tail_percentile(values.len());
            println!(
                "  {name:<16} {:>14.6} {unit:<8} [q1 {:.6}, q3 {:.6}] n={}{}",
                s.median,
                s.q1,
                s.q3,
                s.n,
                tail.map_or(String::new(), |p| format!(
                    " p{p}={:.6}",
                    stats::percentile(values, p)
                ))
            );
            if i > 0 {
                file.push_str(", ");
            }
            json::write_str(&mut file, name);
            file.push_str(": {\"unit\": ");
            json::write_str(&mut file, unit);
            file.push_str(", \"values\": [");
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    file.push_str(", ");
                }
                json::write_f64(&mut file, *v);
            }
            file.push_str("], \"median\": ");
            json::write_f64(&mut file, s.median);
            file.push_str(", \"q1\": ");
            json::write_f64(&mut file, s.q1);
            file.push_str(", \"q3\": ");
            json::write_f64(&mut file, s.q3);
            file.push_str(&format!(", \"n\": {}}}", s.n));
        }
        file.push('}');
        if let Some(t) = &traced {
            let layers = metric_values(t.result.get("metrics"));
            for (name, unit, value) in &layers {
                println!("  {name:<30} {value:>14.6} {unit}");
            }
            file.push_str(", \"layers\": ");
            file.push_str(&t.result.get("metrics").map_or("{}".to_string(), json_text));
        }
        file.push('}');
    }
    file.push_str("\n]}\n");
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| Path::new(WORK_DIR).join(format!("results-seed{}.json", flags.seed)));
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&out, file) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("nwo-perf: cannot write {}: {e}", out.display());
            return 1;
        }
    }
    i32::from(failures > 0)
}

/// Re-serializes a parsed JSON value.
fn json_text(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => json::write_f64(out, *n),
        JsonValue::String(s) => json::write_str(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        JsonValue::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::write_str(out, k);
                out.push_str(": ");
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// `compare A.json B.json`: verdicts per workload × metric.
fn compare_cmd(args: &[String]) -> i32 {
    let flags = match parse_flags(args, false) {
        Ok(f) if f.positional.len() == 2 => f,
        Ok(_) => {
            eprintln!("usage: nwo-perf compare A.json B.json [--bounds BENCHMARK.json]");
            return 1;
        }
        Err(e) => {
            eprintln!("nwo-perf: {e}");
            return 1;
        }
    };
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let outcome = (|| {
        let bounds = compare::bounds(&read(&flags.bounds)?)?;
        let a = read(Path::new(&flags.positional[0]))?;
        let b = read(Path::new(&flags.positional[1]))?;
        compare::compare(&a, &b, &bounds)
    })();
    match outcome {
        Ok((report, bad)) => {
            print!("{report}");
            i32::from(bad)
        }
        Err(e) => {
            eprintln!("nwo-perf: {e}");
            1
        }
    }
}
