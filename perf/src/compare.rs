//! `nwo-perf compare A.json B.json`: the acceptance rule for a change
//! that claims a gain or must show none, applied to every workload ×
//! end-to-end metric of two `run` result files.
//!
//! * **improved** — over at least ten pairs, B wins at least nine
//!   tenths of them (ties count for neither side) and the medians
//!   differ, in B's favour, by more than A's own spread (q3 − q1);
//! * **regressed** — B's median is worse than A's by more than the
//!   metric's bound from `BENCHMARK.json`;
//! * **unresolved** — A's spread is wider than the bound, unless every
//!   run of B reads better than every run of A;
//! * **unchanged** — otherwise.
//!
//! Exact counts and output digests must be identical; any difference
//! is flagged as a model change.

use crate::json::{self, JsonValue};
use crate::stats::Summary;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the win-rate and spread rule.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A's spread is wider than the bound.
    Unresolved,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Fraction of pairs `(a[i], b[i])` in which `b` is better; ties count
/// for neither side.
pub fn win_fraction(a: &[f64], b: &[f64], better: Better) -> f64 {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
        .count();
    wins as f64 / pairs as f64
}

/// Fewest run pairs a gain may be claimed on.
const MIN_PAIRS: usize = 10;

/// Applies the acceptance rule to parent runs `a` and change runs `b`
/// of a metric that may worsen by `bound` (a share of `a`'s median).
/// `None` when either side has no runs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    // Positive when B is better.
    let gain = sign * (sb.median - sa.median);
    let pairs = a.len().min(b.len());
    if pairs >= MIN_PAIRS && win_fraction(a, b, better) >= 0.9 && gain > sa.q3 - sa.q1 {
        return Some(Verdict::Improved);
    }
    if -gain > bound * sa.median.abs() {
        return Some(Verdict::Regressed);
    }
    let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) > 0.0));
    if sa.spread() > bound && !all_better {
        return Some(Verdict::Unresolved);
    }
    Some(Verdict::Unchanged)
}

/// One end-to-end metric's direction and bound.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Better direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics of a `BENCHMARK.json`, with the bounds the
/// workload-specific metrics inherit: engine throughputs and request
/// rate take `sim_mips`'s, request latencies take `wall_s`'s.
///
/// # Errors
///
/// Unparseable JSON or an entry missing `name`, `better` or `bound`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let entries = v
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = Vec::new();
    for e in entries {
        let name = e.get("name").and_then(JsonValue::as_str);
        let better = match e.get("better").and_then(JsonValue::as_str) {
            Some("lower") => Some(Better::Lower),
            Some("higher") => Some(Better::Higher),
            _ => None,
        };
        let bound = e.get("bound").and_then(JsonValue::as_f64);
        match (name, better, bound) {
            (Some(name), Some(better), Some(bound)) => out.push(Bound {
                name: name.to_string(),
                better,
                bound,
            }),
            _ => return Err(format!("malformed end_to_end entry: {e:?}")),
        }
    }
    let inherit = |extra: &str, from: &str, out: &mut Vec<Bound>| {
        if let Some(b) = out.iter().find(|b| b.name == from).cloned() {
            out.push(Bound {
                name: extra.to_string(),
                ..b
            });
        }
    };
    for extra in ["emu_mips", "pack_mips", "oracle_mips", "req_per_s"] {
        inherit(extra, "sim_mips", &mut out);
    }
    for extra in ["req_p50_s", "req_p90_s"] {
        inherit(extra, "wall_s", &mut out);
    }
    Ok(out)
}

/// The values of `metric` across the runs of `workload` in a result
/// file.
fn values(file: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    workload_entry(file, workload)
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(JsonValue::as_array)
        .map(|vs| vs.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

fn workload_entry<'a>(file: &'a JsonValue, workload: &str) -> Option<&'a JsonValue> {
    file.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(workload))
}

/// Compares result files `a` (parent) and `b` (change): one line per
/// workload × metric, then any exact-count or digest difference.
/// Returns the report and whether it found a regression or a model
/// change.
///
/// # Errors
///
/// Unparseable input.
pub fn compare(a: &str, b: &str, bounds: &[Bound]) -> Result<(String, bool), String> {
    let fa = json::parse(a).map_err(|e| format!("first file: {e}"))?;
    let fb = json::parse(b).map_err(|e| format!("second file: {e}"))?;
    let mut out = format!(
        "{:<11} {:<13} {:>12} {:>25} {:>12} {:>25} {:>5}  verdict\n",
        "workload", "metric", "A median", "A [q1, q3] n", "B median", "B [q1, q3] n", "wins"
    );
    let mut bad = false;
    for workload in crate::WORKLOADS {
        if workload_entry(&fa, workload).is_none() || workload_entry(&fb, workload).is_none() {
            continue;
        }
        for bound in bounds {
            let (va, vb) = (
                values(&fa, workload, &bound.name),
                values(&fb, workload, &bound.name),
            );
            let Some(v) = verdict(&va, &vb, bound.better, bound.bound) else {
                continue;
            };
            bad |= v == Verdict::Regressed;
            let (sa, sb) = (
                Summary::of(&va).expect("nonempty"),
                Summary::of(&vb).expect("nonempty"),
            );
            let quart = |s: &Summary| format!("[{:.4}, {:.4}] {}", s.q1, s.q3, s.n);
            out.push_str(&format!(
                "{workload:<11} {:<13} {:>12.4} {:>25} {:>12.4} {:>25} {:>4.0}%  {v}\n",
                bound.name,
                sa.median,
                quart(&sa),
                sb.median,
                quart(&sb),
                win_fraction(&va, &vb, bound.better) * 100.0,
            ));
        }
        for key in ["digest", "counts"] {
            let get = |f: &JsonValue| {
                workload_entry(f, workload)
                    .and_then(|w| w.get(key))
                    .map(|v| format!("{v:?}"))
            };
            if get(&fa) != get(&fb) {
                bad = true;
                out.push_str(&format!(
                    "{workload:<11} {key} differ: the simulated model changed, not only its speed\n"
                ));
            }
        }
    }
    Ok((out, bad))
}
