//! Request/response payloads for the serve protocol.
//!
//! Every frame payload is one flat JSON object with a `"t"`
//! discriminator, the same convention as the repo's other JSONL
//! streams (`NWO_PROGRESS` ticks, `BENCH_harness.json` entries).
//! Client → server frames are `"t": "req"` with a `kind`;
//! server → client frames are `accepted`, `progress`, `result`,
//! `done`, `status`, `ok` or `error`.
//!
//! Two deliberate shape rules keep the determinism contract testable:
//!
//! * **`result` frames carry no request id, no job id and no cache
//!   tier** — only the table text. N clients issuing the same sweep
//!   therefore receive byte-identical `result` frames whether the
//!   answer came from a cold simulation, the memo cache or the disk
//!   cache.
//! * Everything run-specific (ids, cache-tier counters, timing) rides
//!   in the separate `accepted`/`done`/`progress` frames, which the
//!   client routes to stderr.

use nwo_core::{GatingConfig, PackConfig};
use nwo_obs::json::{self, JsonValue};
use nwo_sim::SimConfig;

/// A parsed client request.
///
/// One short-lived value per frame; the size skew from the inline
/// `SimConfig` is irrelevant at that rate, so no boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run benchmarks under one config and return the bench table.
    Sweep {
        /// Client-chosen request id, echoed in addressed responses.
        id: u64,
        /// Benchmark names; empty means every built-in benchmark.
        benches: Vec<String>,
        /// Workload scale override (`None`: per-benchmark experiment
        /// scale, matching `nwo bench`).
        scale: Option<u32>,
        /// Machine configuration for every benchmark in the sweep.
        config: SimConfig,
        /// Testing aid: hold the admission slot this many extra
        /// milliseconds after the sweep completes, before the result
        /// is sent. Exercises admission-control rejection and the
        /// cancel/watchdog paths deterministically, in the spirit of
        /// `NWO_FAIL_EXPERIMENT`.
        linger_ms: u64,
        /// Client-supplied idempotency key. A retried sweep resends
        /// the same key; if the server already completed a sweep under
        /// it (with the same content), the stored result is replayed
        /// instead of re-admitting the work — a retry after a dropped
        /// result frame never double-submits.
        key: Option<u64>,
    },
    /// Server and cache-tier counters.
    Status {
        /// Client-chosen request id.
        id: u64,
    },
    /// Abandon a running job by its server-assigned job id.
    Cancel {
        /// Client-chosen request id.
        id: u64,
        /// The job to abandon (from its `accepted` frame).
        job: u64,
    },
    /// Drain and stop the server.
    Shutdown {
        /// Client-chosen request id.
        id: u64,
    },
}

impl Request {
    /// The client-chosen request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Sweep { id, .. }
            | Request::Status { id }
            | Request::Cancel { id, .. }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// Boolean config flags accepted in a request's `"config"` object,
/// mirroring the `nwo sim`/`nwo bench` flags one-for-one.
const CONFIG_FLAGS: [&str; 6] = ["gating", "packing", "replay", "perfect", "wide", "eight"];

/// Parses one request payload.
///
/// # Errors
///
/// A human-readable description of the malformation — the server
/// returns it verbatim in a `bad-request` error frame.
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let v = json::parse(payload).map_err(|e| e.to_string())?;
    if v.get("t").and_then(JsonValue::as_str) != Some("req") {
        return Err("expected a {\"t\": \"req\", ...} object".to_string());
    }
    let id = v
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or("request needs a numeric \"id\"")?;
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("request needs a \"kind\"")?;
    match kind {
        "sweep" => {
            let benches = match v.get("benches") {
                None => Vec::new(),
                Some(arr) => arr
                    .as_array()
                    .ok_or("\"benches\" must be an array of names")?
                    .iter()
                    .map(|b| {
                        b.as_str()
                            .map(str::to_string)
                            .ok_or("\"benches\" entries must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            let scale = match v.get("scale") {
                None => None,
                Some(s) => Some(
                    s.as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .ok_or("\"scale\" must be a small non-negative integer")?
                        as u32,
                ),
            };
            let config = parse_config(v.get("config"))?;
            let linger_ms = match v.get("linger_ms") {
                None => 0,
                Some(n) => n
                    .as_u64()
                    .ok_or("\"linger_ms\" must be a non-negative integer")?,
            };
            let key = match v.get("key") {
                None => None,
                Some(k) => Some(k.as_u64().ok_or("\"key\" must be a non-negative integer")?),
            };
            Ok(Request::Sweep {
                id,
                benches,
                scale,
                config,
                linger_ms,
                key,
            })
        }
        "status" => Ok(Request::Status { id }),
        "cancel" => {
            let job = v
                .get("job")
                .and_then(JsonValue::as_u64)
                .ok_or("\"cancel\" needs a numeric \"job\"")?;
            Ok(Request::Cancel { id, job })
        }
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(format!(
            "unknown request kind `{other}`; known: sweep, status, cancel, shutdown"
        )),
    }
}

/// Builds a [`SimConfig`] from a request's `"config"` object and
/// validates it through the same typed [`nwo_sim::ConfigError`] path
/// as the CLI flags.
fn parse_config(spec: Option<&JsonValue>) -> Result<SimConfig, String> {
    let mut config = SimConfig::default();
    if let Some(spec) = spec {
        let entries = match spec {
            JsonValue::Object(entries) => entries,
            _ => return Err("\"config\" must be an object of boolean flags".to_string()),
        };
        for (key, value) in entries {
            let on = match value {
                JsonValue::Bool(b) => *b,
                _ => return Err(format!("config flag \"{key}\" must be a boolean")),
            };
            if !CONFIG_FLAGS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown config flag \"{key}\"; known: {CONFIG_FLAGS:?}"
                ));
            }
            if !on {
                continue;
            }
            config = match key.as_str() {
                "gating" => config.with_gating(GatingConfig::default()),
                "packing" => config.with_packing(PackConfig::default()),
                "replay" => config.with_packing(PackConfig::with_replay()),
                "perfect" => config.with_perfect_prediction(),
                "wide" => config.with_wide_decode(),
                "eight" => config.with_eight_issue(),
                _ => unreachable!("membership checked above"),
            };
        }
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// Serializes a sweep request — the client-side inverse of
/// [`parse_request`].
pub fn sweep_request(
    id: u64,
    benches: &[String],
    scale: Option<u32>,
    flags: &[&str],
    linger_ms: u64,
    key: Option<u64>,
) -> String {
    let mut out = format!("{{\"t\": \"req\", \"kind\": \"sweep\", \"id\": {id}");
    if !benches.is_empty() {
        out.push_str(", \"benches\": [");
        for (i, b) in benches.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, b);
        }
        out.push(']');
    }
    if let Some(s) = scale {
        out.push_str(&format!(", \"scale\": {s}"));
    }
    if !flags.is_empty() {
        out.push_str(", \"config\": {");
        for (i, f) in flags.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, f);
            out.push_str(": true");
        }
        out.push('}');
    }
    if linger_ms > 0 {
        out.push_str(&format!(", \"linger_ms\": {linger_ms}"));
    }
    if let Some(k) = key {
        out.push_str(&format!(", \"key\": {k}"));
    }
    out.push('}');
    out
}

/// Serializes a bare request of `kind` (`status` / `shutdown`).
pub fn plain_request(kind: &str, id: u64) -> String {
    format!("{{\"t\": \"req\", \"kind\": \"{kind}\", \"id\": {id}}}")
}

/// Serializes a cancel request for `job`.
pub fn cancel_request(id: u64, job: u64) -> String {
    format!("{{\"t\": \"req\", \"kind\": \"cancel\", \"id\": {id}, \"job\": {job}}}")
}

/// An `accepted` frame: the request was admitted as server job `job`.
pub fn accepted(id: u64, job: u64) -> String {
    format!("{{\"t\": \"accepted\", \"id\": {id}, \"job\": {job}}}")
}

/// An `ok` frame: the request (cancel/shutdown) took effect.
pub fn ok(id: u64) -> String {
    format!("{{\"t\": \"ok\", \"id\": {id}}}")
}

/// Machine-readable error codes carried by `error` frames.
pub mod code {
    /// The request payload failed parsing or config validation.
    pub const BAD_REQUEST: &str = "bad-request";
    /// Admission control rejected the request: the bounded queue is
    /// full. Retry later.
    pub const BUSY: &str = "busy";
    /// The server is draining and accepts no new work.
    pub const DRAINING: &str = "draining";
    /// A cancel frame abandoned the job.
    pub const CANCELLED: &str = "cancelled";
    /// The per-request watchdog (`NWO_WATCHDOG_SECS`) fired.
    pub const TIMEOUT: &str = "timeout";
    /// The simulation itself failed (divergence, panic).
    pub const FAILED: &str = "failed";
    /// A frame header declared a payload longer than the 1 MiB cap
    /// (`wire::MAX_FRAME_LEN`). The connection closes after this
    /// reject — the remaining stream cannot be trusted.
    pub const OVERSIZED: &str = "frame-too-long";
}

/// An `error` frame with a [`code`] and a human-readable detail.
pub fn error(id: u64, code: &str, detail: &str) -> String {
    let mut out = format!("{{\"t\": \"error\", \"id\": {id}, \"code\": \"{code}\", \"detail\": ");
    json::write_str(&mut out, detail);
    out.push('}');
    out
}

/// A `result` frame: the bench table text, and nothing else — see the
/// module docs for why ids and cache tiers are excluded.
pub fn result(table: &str) -> String {
    let mut out = String::from("{\"t\": \"result\", \"table\": ");
    json::write_str(&mut out, table);
    out.push('}');
    out
}

/// A `done` frame: per-request cache-tier accounting, mirroring the
/// `BENCH_harness.json` counter names.
pub fn done(id: u64, job: u64, memo_hits: u64, disk_hits: u64, sims_run: u64) -> String {
    format!(
        "{{\"t\": \"done\", \"id\": {id}, \"job\": {job}, \"memo_hits\": {memo_hits}, \
         \"disk_hits\": {disk_hits}, \"sims_run\": {sims_run}}}"
    )
}

/// A `done` frame for an idempotent replay: the request's key matched
/// a completed sweep, the stored result was resent, and no work ran —
/// all tier counters are truthfully zero and `"replayed": true` marks
/// the short-circuit for the client's retry accounting.
pub fn done_replayed(id: u64) -> String {
    format!(
        "{{\"t\": \"done\", \"id\": {id}, \"job\": 0, \"memo_hits\": 0, \
         \"disk_hits\": 0, \"sims_run\": 0, \"replayed\": true}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_requests_round_trip() {
        let payload = sweep_request(
            7,
            &["perl".to_string(), "go".to_string()],
            Some(2),
            &["gating", "perfect"],
            0,
            Some(0xBEEF),
        );
        let req = parse_request(&payload).expect("parses");
        match req {
            Request::Sweep {
                id,
                benches,
                scale,
                config,
                linger_ms,
                key,
            } => {
                assert_eq!(id, 7);
                assert_eq!(benches, vec!["perl", "go"]);
                assert_eq!(scale, Some(2));
                assert_eq!(linger_ms, 0);
                assert_eq!(key, Some(0xBEEF));
                let expected = SimConfig::default()
                    .with_gating(nwo_core::GatingConfig::default())
                    .with_perfect_prediction();
                assert_eq!(config.fingerprint(), expected.fingerprint());
            }
            other => panic!("expected a sweep, got {other:?}"),
        }
    }

    #[test]
    fn defaults_are_empty_benches_and_base_config() {
        let req = parse_request("{\"t\": \"req\", \"kind\": \"sweep\", \"id\": 1}").unwrap();
        match req {
            Request::Sweep {
                benches,
                scale,
                config,
                key,
                ..
            } => {
                assert!(benches.is_empty());
                assert_eq!(scale, None);
                assert_eq!(key, None, "no \"key\" field means no idempotency key");
                assert_eq!(config.fingerprint(), SimConfig::default().fingerprint());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plain_cancel_and_shutdown_parse() {
        assert_eq!(
            parse_request(&plain_request("status", 3)).unwrap(),
            Request::Status { id: 3 }
        );
        assert_eq!(
            parse_request(&plain_request("shutdown", 4)).unwrap(),
            Request::Shutdown { id: 4 }
        );
        assert_eq!(
            parse_request(&cancel_request(5, 9)).unwrap(),
            Request::Cancel { id: 5, job: 9 }
        );
    }

    #[test]
    fn malformed_requests_are_described() {
        let cases = [
            ("not json", "JSON error"),
            ("{\"t\": \"nope\"}", "expected a"),
            ("{\"t\": \"req\", \"kind\": \"sweep\"}", "numeric \"id\""),
            ("{\"t\": \"req\", \"id\": 1}", "needs a \"kind\""),
            (
                "{\"t\": \"req\", \"kind\": \"dance\", \"id\": 1}",
                "unknown request kind",
            ),
            (
                "{\"t\": \"req\", \"kind\": \"cancel\", \"id\": 1}",
                "numeric \"job\"",
            ),
            (
                "{\"t\": \"req\", \"kind\": \"sweep\", \"id\": 1, \"config\": {\"warp\": true}}",
                "unknown config flag",
            ),
            (
                "{\"t\": \"req\", \"kind\": \"sweep\", \"id\": 1, \"config\": {\"gating\": 1}}",
                "must be a boolean",
            ),
            (
                "{\"t\": \"req\", \"kind\": \"sim\", \"id\": 1, \"benches\": [\"perl\"]}",
                "unknown request kind",
            ),
            (
                "{\"t\": \"req\", \"kind\": \"sweep\", \"id\": 1, \"key\": \"abc\"}",
                "\"key\" must be",
            ),
        ];
        for (payload, needle) in cases {
            let err = parse_request(payload).expect_err(payload);
            assert!(err.contains(needle), "{payload} -> {err}");
        }
    }

    #[test]
    fn response_frames_are_valid_json() {
        for frame in [
            accepted(1, 2),
            ok(1),
            error(1, code::BUSY, "queue full: 4 active, depth 4"),
            result("benchmark  scale\nperl  0\n"),
            done(1, 2, 3, 4, 5),
            done_replayed(6),
        ] {
            nwo_obs::json::parse(&frame).unwrap_or_else(|e| panic!("{frame}: {e}"));
        }
        let e = error(9, code::TIMEOUT, "watchdog: 1.5s elapsed");
        let v = nwo_obs::json::parse(&e).unwrap();
        assert_eq!(v.get("code").and_then(|c| c.as_str()), Some("timeout"));
        assert_eq!(v.get("id").and_then(|c| c.as_u64()), Some(9));
    }
}
