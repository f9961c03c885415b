//! The benchmark end to end at `--quick` sizes (2 kernels, `fig1`
//! only, 6 requests), plus the `compare` and percentile rules on
//! hand-made numbers.

use nwo_perf::compare::{verdict, win_fraction, Better, Verdict};
use nwo_perf::json::{self, JsonValue};
use nwo_perf::stats::tail_percentile;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(bench: &JsonValue, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn quick_run_reports_every_metric_cleanly_with_covering_spans() {
    let root = repo_root();
    let out = root
        .join(".nwo-perf")
        .join(format!("quick-test-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_nwo-perf"))
        .current_dir(&root)
        .args(["run", "--quick", "--trace", "--runs", "1", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "the quick run fails: {status}");
    let text = std::fs::read_to_string(&out).expect("result file written");
    let _ = std::fs::remove_file(&out);
    let file = json::parse(&text).expect("result file parses");
    let bench_text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = json::parse(&bench_text).expect("BENCHMARK.json parses");
    let workloads = file
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), nwo_perf::WORKLOADS.len());
    for w in workloads {
        let name = w.get("name").and_then(JsonValue::as_str).expect("name");
        let num = |k: &str| w.get(k).and_then(JsonValue::as_u64).expect(k);
        assert!(num("attempted") > 0, "{name} checked nothing");
        assert_eq!(num("failed"), 0, "{name}: fail_ratio must be 0");
        for (list, key, value) in [
            ("end_to_end", "metrics", "values"),
            ("per_layer", "layers", "value"),
        ] {
            for (metric, unit) in listed(&bench, list) {
                let entry = w
                    .get(key)
                    .and_then(|m| m.get(&metric))
                    .unwrap_or_else(|| panic!("{name} lacks {metric}"));
                assert_eq!(
                    entry.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
                assert!(
                    entry.get(value).is_some(),
                    "{name}: {metric} has no {value}"
                );
            }
        }
        let coverage = w
            .get("layers")
            .and_then(|l| l.get("trace.coverage"))
            .and_then(|c| c.get("value"))
            .and_then(JsonValue::as_f64)
            .expect("trace.coverage");
        assert!(
            coverage >= 0.9,
            "{name}: layer spans cover only {coverage:.3} of the rounds"
        );
    }
}

#[test]
fn compare_verdicts_follow_the_acceptance_rule() {
    let parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
    let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
    let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
    let same: Vec<f64> = parent.iter().rev().copied().collect();
    assert_eq!(win_fraction(&parent, &faster, Better::Lower), 1.0);
    assert_eq!(
        win_fraction(&parent, &parent, Better::Lower),
        0.0,
        "ties win nothing"
    );
    let lower = |b: &[f64]| verdict(&parent, b, Better::Lower, 0.1);
    assert_eq!(lower(&faster), Some(Verdict::Improved));
    assert_eq!(lower(&slower), Some(Verdict::Regressed));
    assert_eq!(lower(&same), Some(Verdict::Unchanged));
    // For a throughput the same numbers read the other way round.
    assert_eq!(
        verdict(&parent, &faster, Better::Higher, 0.1),
        Some(Verdict::Regressed)
    );
    assert_eq!(
        verdict(&parent, &slower, Better::Higher, 0.1),
        Some(Verdict::Improved)
    );
    // Wins in 9 of 10 pairs with the medians 5% apart: improved, though
    // within the bound, because the parent's own spread is smaller.
    let mut nine: Vec<f64> = parent.iter().map(|v| v * 0.95).collect();
    nine[0] = 10.5;
    assert_eq!(lower(&nine), Some(Verdict::Improved));
    // Fewer than ten pairs claim no gain, however clear.
    assert_eq!(
        verdict(&parent[..3], &faster[..3], Better::Lower, 0.1),
        Some(Verdict::Unchanged)
    );
    // A parent whose spread exceeds the bound cannot show "unchanged".
    let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0];
    let overlap: Vec<f64> = noisy.iter().rev().copied().collect();
    assert_eq!(
        verdict(&noisy, &overlap, Better::Lower, 0.1),
        Some(Verdict::Unresolved)
    );
    assert_eq!(verdict(&[], &parent, Better::Lower, 0.1), None);
}

#[test]
fn tail_percentile_leaves_at_least_ten_samples_beyond() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
}
