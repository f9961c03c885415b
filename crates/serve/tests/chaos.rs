//! Hostile-conditions integration tests: seeded wire-fuzz campaigns
//! against the decoder and a live daemon, slow-loris eviction, and
//! idempotent replay of a resent sweep.
//!
//! Every campaign is seeded from `NWO_CHAOS_SEED` (with a fixed
//! default) and every failure message embeds the seed, so any CI
//! failure reproduces locally with one env var. CI scales the budgets
//! up through `NWO_FUZZ_ITERS` / `NWO_FUZZ_CONNS`.

use nwo_bench::runner::Runner;
use nwo_serve::chaos::{self, fuzz_decoder, fuzz_server};
use nwo_serve::{Client, DrainReport, ServeOptions, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An in-process daemon on an ephemeral port, stoppable from the test.
struct TestServer {
    addr: String,
    state: Arc<nwo_serve::ServerState>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<DrainReport>,
}

impl TestServer {
    fn spawn(jobs: usize) -> TestServer {
        let server = Server::bind(
            &ServeOptions::ephemeral(),
            Arc::new(Runner::with_jobs(jobs)),
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address").to_string();
        let state = Arc::clone(server.state());
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run_until(&stop2));
        TestServer {
            addr,
            state,
            stop,
            thread,
        }
    }

    fn stop(self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread")
    }
}

fn env_budget(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn benches() -> Vec<String> {
    vec!["mpeg2-enc".to_string()]
}

#[test]
fn decoder_survives_a_seeded_fuzz_campaign() {
    let seed = chaos::env_seed(0xF022);
    let iters = env_budget("NWO_FUZZ_ITERS", 2_000);
    let report = fuzz_decoder(seed, iters).expect("no decoder contract violations");
    assert_eq!(report.cases, iters, "[{}]", chaos::repro_banner(seed));
    assert!(
        report.valid_decoded > 0 && report.typed_errors > 0,
        "the campaign exercised both round trips and rejects: {report:?} [{}]",
        chaos::repro_banner(seed)
    );
}

#[test]
fn live_daemon_survives_a_socket_fuzz_campaign() {
    let seed = chaos::env_seed(0x50CE7);
    let conns = env_budget("NWO_FUZZ_CONNS", 300);
    let server = TestServer::spawn(1);
    let report = fuzz_server(&server.addr, seed, conns).expect("daemon never hangs or dies");
    assert_eq!(report.connections, conns, "[{}]", chaos::repro_banner(seed));
    assert!(
        report.health_checks > 0,
        "liveness was actually probed [{}]",
        chaos::repro_banner(seed)
    );
    // The daemon drains cleanly after the storm: nothing leaked.
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}

#[test]
fn slow_loris_connections_are_evicted_within_the_stall_budget() {
    use std::io::{Read, Write};

    let server = TestServer::spawn(1);
    let mut stream = std::net::TcpStream::connect(&server.addr).expect("connect");
    // Three bytes of magic, then silence: a classic slow loris. The
    // server's mid-frame stall budget (~2s) must evict us; 30s without
    // a close means the guard is broken.
    stream.write_all(b"NWO").expect("partial magic");
    stream.flush().expect("flush");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let started = Instant::now();
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("server closes the connection rather than waiting forever");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "eviction took {:?}",
        started.elapsed()
    );
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}

#[test]
fn retried_sweeps_replay_instead_of_double_submitting() {
    let server = TestServer::spawn(1);
    let mut client = Client::connect(&server.addr).expect("connect");

    // First submission under an idempotency key runs for real.
    let first = client
        .sweep(&benches(), Some(0), &[], 0, Some(0xD00D))
        .expect("first sweep");
    assert!(!first.replayed);

    // A "retry" with the same key (as a client that never saw the
    // result frame would send) replays the stored table: zero
    // simulations, zero cache lookups, the identical bytes.
    let retry = client
        .sweep(&benches(), Some(0), &[], 0, Some(0xD00D))
        .expect("retried sweep");
    assert!(retry.replayed, "the done frame says replayed");
    assert_eq!(retry.table, first.table, "replayed bytes are identical");
    assert_eq!(
        server.state.metrics.replays.load(Ordering::SeqCst),
        1,
        "serve.retry.replays counted it"
    );
    // The runner saw exactly one job: the retry submitted nothing.
    assert_eq!(server.state.runner().counters().sims_run, 1);

    // The same key with *different* content is a fresh request, not a
    // false replay: the fingerprint guards key collisions.
    let other = client
        .sweep(&benches(), Some(0), &["gating"], 0, Some(0xD00D))
        .expect("same key, different content");
    assert!(!other.replayed, "content fingerprint rejects the collision");
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}

#[test]
fn campaign_failures_name_the_reproduction_seed() {
    // Point a campaign at a port nothing listens on: the failure text
    // must carry the banner so CI logs are reproducible locally.
    let seed = chaos::env_seed(0xBAD5EED);
    let err = fuzz_server("127.0.0.1:9", seed, 1).expect_err("no daemon there");
    assert!(
        err.contains("NWO_CHAOS_SEED="),
        "failure must embed the seed: {err}"
    );
}
