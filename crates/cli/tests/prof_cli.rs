//! End-to-end profiling and interval output through the CLI binary:
//! the `--profile` tree, the `--profile-out` Chrome Trace Event JSON
//! and the `--interval-out` stream must all be produced and
//! well-formed, and the up-front output validation must reject bad
//! flags before any simulation runs.

use std::path::Path;
use std::process::Command;

use nwo_sim::obs::json::{self, JsonValue};

fn nwo(args: &[&str], dir: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nwo-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("nwo-cli spawns")
}

#[test]
fn profile_tree_trace_json_and_interval_stream_are_produced() {
    let dir = std::env::temp_dir().join(format!("nwo-prof-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let out = nwo(
        &[
            "sim",
            "--bench",
            "mpeg2-enc",
            "--warmup",
            "500",
            "--verify",
            "--profile",
            "--profile-out",
            "trace.json",
            "--interval-out",
            "intervals.jsonl",
            "--interval-stats",
            "1000",
            "--json",
            "snap.json",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "profiled sim failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");

    // The human tree names the run's phases with counts and times.
    assert!(stdout.contains("span profile"), "{stdout}");
    for phase in ["sim", "decode", "warmup", "measured-run", "oracle-step"] {
        assert!(stdout.contains(phase), "tree names phase {phase}: {stdout}");
    }

    // The Chrome trace parses, and its events carry complete slices
    // whose names include the root and the measured run.
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json written");
    let v = json::parse(&trace).expect("Chrome trace parses");
    let Some(JsonValue::Array(events)) = v.get("traceEvents") else {
        panic!("traceEvents array missing: {trace}");
    };
    assert!(!events.is_empty(), "trace has events");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(names.contains(&"sim"), "{names:?}");
    assert!(names.contains(&"measured-run"), "{names:?}");
    for e in events {
        assert_eq!(e.get("ph").and_then(|x| x.as_str()), Some("X"));
        assert!(e.get("ts").and_then(|x| x.as_f64()).is_some());
        assert!(e.get("dur").and_then(|x| x.as_f64()).is_some());
    }
    // The root span contains the measured run (child within parent).
    let slice = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .map(|e| {
                let ts = e.get("ts").and_then(|x| x.as_f64()).unwrap();
                let dur = e.get("dur").and_then(|x| x.as_f64()).unwrap();
                (ts, ts + dur)
            })
            .unwrap()
    };
    let root = slice("sim");
    let run = slice("measured-run");
    assert!(
        root.0 <= run.0 && run.1 <= root.1,
        "measured-run {run:?} nests inside sim {root:?}"
    );

    // Every interval line parses and carries per-interval deltas next
    // to the cumulative snapshot.
    let intervals =
        std::fs::read_to_string(dir.join("intervals.jsonl")).expect("interval stream written");
    let lines: Vec<JsonValue> = intervals
        .lines()
        .map(|line| json::parse(line).expect("interval line parses"))
        .collect();
    assert!(!lines.is_empty(), "interval stream has samples");
    let key = |s: &JsonValue, k: &str| s.get(k).unwrap_or_else(|| panic!("{k} missing")).clone();
    for s in &lines {
        assert!(key(s, "sim.cycles").as_u64().unwrap() > 0);
        assert!(key(s, "interval.committed").as_u64().is_some());
        assert!(key(s, "interval.ipc").as_f64().is_some());
        let JsonValue::Object(entries) = s else {
            panic!("line is an object");
        };
        let causes: Vec<&str> = entries
            .iter()
            .filter_map(|(k, _)| k.strip_prefix("stall."))
            .filter(|cause| *cause != "total")
            .collect();
        assert!(!causes.is_empty(), "cumulative stall causes present");
        for cause in causes {
            assert!(key(s, &format!("interval.stall.{cause}"))
                .as_u64()
                .is_some());
        }
        assert!(key(s, "interval.power_mw.baseline").as_f64().is_some());
        assert!(key(s, "interval.power_mw.gated").as_f64().is_some());
        for d in 1..=9 {
            assert!(key(s, &format!("interval.width.p{d}0")).as_u64().is_some());
        }
        assert!(s.get("interval.width.p100").is_none(), "p10..p90 only");
    }
    // All but the final (partial) sample cover exactly the period.
    for s in &lines[..lines.len() - 1] {
        assert_eq!(key(s, "interval.cycles").as_u64(), Some(1000));
    }
    // The tail sample ends at the run's last cycle.
    let snap = std::fs::read_to_string(dir.join("snap.json")).expect("snapshot written");
    let snap = json::parse(&snap).expect("snapshot parses");
    let last = lines.last().expect("non-empty");
    assert_eq!(key(last, "sim.cycles"), key(&snap, "sim.cycles"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_observability_flags_fail_before_any_simulation() {
    let dir = std::env::temp_dir().join(format!("nwo-prof-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // A zero interval period is a typed config error, not a silent off.
    let out = nwo(
        &["sim", "--bench", "compress", "--interval-stats", "0"],
        &dir,
    );
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--interval-stats period must be positive"),
        "{stderr}"
    );

    // Unwritable output parents are rejected up front, for both flags.
    for flag in ["--profile-out", "--interval-out"] {
        let out = nwo(
            &[
                "sim",
                "--bench",
                "compress",
                flag,
                "/nonexistent-dir-xyz/out.json",
            ],
            &dir,
        );
        assert!(!out.status.success(), "{flag} with a bad parent fails");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("parent directory does not exist"),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains(flag), "error names the flag: {stderr}");
    }

    // Both in-memory trace retentions are capped, and the error names
    // the flag that asked for too much.
    std::fs::write(dir.join("prog.s"), "main: li t0, 1\n outq t0\n halt\n").expect("write prog");
    let oversized = (nwo_sim::MAX_TRACE_LIMIT + 1).to_string();
    for flag in ["--trace", "--pipeview"] {
        let out = nwo(&["sim", "prog.s", flag, &oversized], &dir);
        assert_eq!(out.status.code(), Some(1), "{flag} past the cap fails");
        assert!(out.stdout.is_empty(), "{flag}: nothing simulated");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} {oversized} exceeds the in-memory cap")),
            "{flag}: {stderr}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_progress_flag_streams_jsonl_ticks_to_stderr() {
    let dir = std::env::temp_dir().join(format!("nwo-prof-progress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let out = Command::new(env!("CARGO_BIN_EXE_nwo-cli"))
        .args(["experiments", "fig1", "--progress", "--jobs", "2"])
        .env("NWO_HARNESS_JSON", dir.join("harness.json"))
        .current_dir(&dir)
        .output()
        .expect("nwo-cli spawns");
    assert!(
        out.status.success(),
        "experiments --progress failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let ticks: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("{\"t\": \"progress\""))
        .collect();
    assert!(!ticks.is_empty(), "progress ticks on stderr: {stderr}");
    let mut scopes = std::collections::HashSet::new();
    for tick in &ticks {
        let v = json::parse(tick).expect("progress tick parses");
        scopes.insert(v.get("scope").and_then(|x| x.as_str()).unwrap().to_string());
        assert!(v.get("done").and_then(|x| x.as_u64()).is_some());
        assert!(v.get("total").and_then(|x| x.as_u64()).is_some());
        assert!(v.get("eta_s").and_then(|x| x.as_f64()).is_some());
    }
    // Both granularities tick: per collected job and per experiment.
    assert!(scopes.contains("jobs"), "{stderr}");
    assert!(scopes.contains("experiments"), "{stderr}");
    // The final experiments tick reports completion.
    let last = json::parse(ticks.last().unwrap()).expect("parses");
    assert_eq!(
        last.get("scope").and_then(|x| x.as_str()),
        Some("experiments")
    );
    assert_eq!(
        last.get("done").and_then(|x| x.as_u64()),
        last.get("total").and_then(|x| x.as_u64())
    );

    let _ = std::fs::remove_dir_all(&dir);
}
