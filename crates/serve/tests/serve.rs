//! End-to-end daemon tests over real sockets: concurrency/determinism
//! (byte-identical result frames across clients, worker counts and
//! cache tiers), admission-control rejection, the mid-job
//! cancel/watchdog paths, and slot release when a client vanishes.

use nwo_bench::runner::Runner;
use nwo_serve::{Client, DrainReport, ServeOptions, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two small kernels at scale 0 keep each sweep around a second.
const BENCHES: [&str; 2] = ["mpeg2-enc", "compress"];

fn benches() -> Vec<String> {
    BENCHES.iter().map(|s| s.to_string()).collect()
}

/// An in-process daemon on an ephemeral port, stoppable from the test.
struct TestServer {
    addr: String,
    state: Arc<nwo_serve::ServerState>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<DrainReport>,
}

impl TestServer {
    fn spawn(options: ServeOptions, runner: Arc<Runner>) -> TestServer {
        let server = Server::bind(&options, runner).expect("bind ephemeral port");
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

    /// Waits until `active` admitted jobs are visible (or panics).
    fn wait_active(&self, active: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.state.metrics.active.load(Ordering::SeqCst) != active {
            assert!(
                Instant::now() < deadline,
                "never reached {active} active jobs"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A scratch cache directory unique to one test, removed on drop.
struct ScratchCache(std::path::PathBuf);

impl ScratchCache {
    fn new(tag: &str) -> ScratchCache {
        let root =
            std::env::temp_dir().join(format!("nwo-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        ScratchCache(root)
    }

    fn dir(&self) -> nwo_ckpt::CacheDir {
        nwo_ckpt::CacheDir::new(&self.0)
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn done_counter(outcome: &nwo_serve::SweepOutcome, key: &str) -> u64 {
    let done = outcome
        .side_frames
        .iter()
        .find(|f| f.contains("\"t\": \"done\""))
        .expect("a done frame arrived");
    nwo_obs::json::parse(done)
        .expect("done frame parses")
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("done frame has {key}: {done}"))
}

#[test]
fn concurrent_clients_get_byte_identical_results_at_any_worker_count() {
    // Four concurrent clients against a 4-worker pool...
    let wide = TestServer::spawn(ServeOptions::ephemeral(), Arc::new(Runner::with_jobs(4)));
    let tables: Vec<String> = {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = wide.addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    client
                        .sweep(&benches(), Some(0), &[], 0, None)
                        .expect("sweep succeeds")
                        .table
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    };
    assert!(tables[0].contains("mpeg2-enc") && tables[0].contains("compress"));
    for table in &tables[1..] {
        assert_eq!(table, &tables[0], "every client reads identical bytes");
    }
    // Identical sweeps coalesce: 2 simulations total, the rest memo.
    let counters = wide.state.runner().counters();
    assert_eq!(counters.sims_run, 2, "one simulation per distinct kernel");
    assert_eq!(counters.memo_hits, 6, "three clients ride the memo");
    assert_eq!(wide.stop(), DrainReport { leaked: 0 });

    // ...and a serial pool returns the same bytes.
    let narrow = TestServer::spawn(ServeOptions::ephemeral(), Arc::new(Runner::with_jobs(1)));
    let mut client = Client::connect(&narrow.addr).expect("connect");
    let serial = client
        .sweep(&benches(), Some(0), &[], 0, None)
        .expect("sweep");
    assert_eq!(serial.table, tables[0], "NWO_JOBS=1 vs 4 changes nothing");
    assert_eq!(narrow.stop(), DrainReport { leaked: 0 });
}

#[test]
fn cache_tiers_and_server_restarts_preserve_bytes() {
    let scratch = ScratchCache::new("tiers");

    // Cold daemon: everything simulates, results spill to disk.
    let cold = TestServer::spawn(
        ServeOptions::ephemeral(),
        Arc::new(Runner::with_options(1, Some(scratch.dir()), 0)),
    );
    let mut client = Client::connect(&cold.addr).expect("connect");
    let first = client
        .sweep(&benches(), Some(0), &[], 0, None)
        .expect("cold sweep");
    assert_eq!(done_counter(&first, "sims_run"), 2);
    assert_eq!(done_counter(&first, "disk_hits"), 0);

    // Same daemon, repeat request: the in-process memo answers.
    let repeat = client
        .sweep(&benches(), Some(0), &[], 0, None)
        .expect("memo sweep");
    assert_eq!(done_counter(&repeat, "memo_hits"), 2);
    assert_eq!(done_counter(&repeat, "sims_run"), 0);
    assert_eq!(repeat.table, first.table, "memo tier is byte-identical");

    // The status frame exposes the same tiers as serve.* metrics.
    let status = client.status().expect("status");
    let v = nwo_obs::json::parse(&status).expect("status parses");
    let metrics = v.get("metrics").expect("metrics snapshot");
    assert_eq!(
        metrics
            .get("serve.cache.memo_hits")
            .and_then(|m| m.as_u64()),
        Some(2)
    );
    assert_eq!(
        metrics.get("serve.completed").and_then(|m| m.as_u64()),
        Some(2)
    );
    assert_eq!(cold.stop(), DrainReport { leaked: 0 });

    // Restarted daemon (fresh memo, same cache dir): disk answers, no
    // simulation re-runs, and the bytes still match.
    let warm = TestServer::spawn(
        ServeOptions::ephemeral(),
        Arc::new(Runner::with_options(1, Some(scratch.dir()), 0)),
    );
    let mut client = Client::connect(&warm.addr).expect("connect");
    let revived = client
        .sweep(&benches(), Some(0), &[], 0, None)
        .expect("warm sweep");
    assert_eq!(done_counter(&revived, "disk_hits"), 2);
    assert_eq!(done_counter(&revived, "sims_run"), 0);
    assert_eq!(revived.table, first.table, "disk tier is byte-identical");
    assert_eq!(warm.stop(), DrainReport { leaked: 0 });
}

#[test]
fn full_queue_rejects_then_cancel_frees_the_slot() {
    let options = ServeOptions {
        queue_depth: 1,
        ..ServeOptions::ephemeral()
    };
    let server = TestServer::spawn(options, Arc::new(Runner::with_jobs(1)));

    // Client A holds the only slot by lingering after its sweep.
    let addr = server.addr.clone();
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect A");
        client.sweep(&benches()[..1], Some(0), &[], 60_000, None)
    });
    server.wait_active(1);

    // Client B is rejected with a reasoned busy error...
    let mut other = Client::connect(&server.addr).expect("connect B");
    let err = other
        .sweep(&benches()[..1], Some(0), &[], 0, None)
        .expect_err("admission control rejects");
    assert!(err.to_string().contains("busy"), "{err}");
    assert!(err.to_string().contains("depth 1"), "{err}");

    // ...until B cancels A's job (the first job id is 1).
    let ack = other.cancel(1).expect("cancel acknowledged");
    assert!(ack.contains("\"ok\""), "{ack}");
    let held = holder.join().expect("holder thread");
    let err = held.expect_err("the lingering sweep was abandoned");
    assert!(err.to_string().contains("cancelled"), "{err}");

    // The slot is free again: the same sweep now completes (memo hit).
    server.wait_active(0);
    let outcome = other
        .sweep(&benches()[..1], Some(0), &[], 0, None)
        .expect("slot reusable after cancel");
    assert_eq!(done_counter(&outcome, "memo_hits"), 1);

    // Cancelling a finished job is a typed bad-request.
    let err = other.cancel(1).expect_err("job 1 is gone");
    assert!(err.to_string().contains("no active job"), "{err}");

    let rejected = server.state.metrics.rejected.load(Ordering::SeqCst);
    let cancelled = server.state.metrics.cancelled.load(Ordering::SeqCst);
    assert_eq!((rejected, cancelled), (1, 1));
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}

#[test]
fn client_that_vanishes_mid_sweep_releases_its_slot() {
    let options = ServeOptions {
        queue_depth: 1,
        ..ServeOptions::ephemeral()
    };
    let server = TestServer::spawn(options, Arc::new(Runner::with_jobs(1)));

    // The client takes the only slot, reads `accepted` and hangs up.
    // The linger holds the result back until well after the hang-up, so
    // the sweep's next write goes to a closed socket instead of `done`.
    let compress = &benches()[1..];
    let mut vanishing = Client::connect(&server.addr).expect("connect");
    let request = nwo_serve::proto::sweep_request(1, compress, Some(0), &[], 1_500, None);
    vanishing.send(&request).expect("send");
    let accepted = vanishing.next_frame().expect("frame").expect("payload");
    assert!(accepted.contains("\"t\": \"accepted\""), "{accepted}");
    drop(vanishing);

    // The failed write releases the slot without counting a completion.
    server.wait_active(0);
    assert_eq!(server.state.metrics.completed.load(Ordering::SeqCst), 0);

    // The released slot admits and serves the next client.
    let mut next = Client::connect(&server.addr).expect("connect");
    let outcome = next
        .sweep(compress, Some(0), &[], 0, None)
        .expect("admitted once the vanished client's slot is free");
    assert!(outcome.table.contains("compress"), "{}", outcome.table);
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}

#[test]
fn watchdog_abandons_overrunning_requests() {
    let options = ServeOptions {
        watchdog: Some(Duration::from_millis(50)),
        ..ServeOptions::ephemeral()
    };
    let server = TestServer::spawn(options, Arc::new(Runner::with_jobs(1)));
    let mut client = Client::connect(&server.addr).expect("connect");
    // The linger keeps the request alive well past the 50ms budget,
    // whether or not the simulation itself beat the watchdog.
    let err = client
        .sweep(&benches()[..1], Some(0), &[], 60_000, None)
        .expect_err("watchdog fires");
    assert!(err.to_string().contains("timeout"), "{err}");
    assert!(err.to_string().contains("watchdog"), "{err}");
    assert_eq!(server.state.metrics.timeouts.load(Ordering::SeqCst), 1);
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}

#[test]
fn shutdown_frame_drains_cleanly_and_leaks_are_reported() {
    // A shutdown frame with no work in flight drains with zero leaks.
    let server = TestServer::spawn(ServeOptions::ephemeral(), Arc::new(Runner::with_jobs(1)));
    let mut client = Client::connect(&server.addr).expect("connect");
    let ack = client.shutdown().expect("shutdown acknowledged");
    assert!(ack.contains("\"ok\""), "{ack}");
    assert_eq!(
        server.thread.join().expect("server thread"),
        DrainReport { leaked: 0 }
    );

    // A job still lingering when the drain grace expires is leaked.
    let options = ServeOptions {
        drain_grace: Duration::from_millis(100),
        ..ServeOptions::ephemeral()
    };
    let server = TestServer::spawn(options, Arc::new(Runner::with_jobs(1)));
    let addr = server.addr.clone();
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).expect("connect");
        let _ = client.sweep(&benches()[..1], Some(0), &[], 60_000, None);
    });
    server.wait_active(1);
    assert_eq!(server.stop(), DrainReport { leaked: 1 });
    drop(holder); // lingering handler dies with the test process
}

#[test]
fn oversized_frames_get_a_typed_reject_naming_the_length() {
    use std::io::Write;

    let server = TestServer::spawn(ServeOptions::ephemeral(), Arc::new(Runner::with_jobs(1)));

    // A raw header declaring a payload one byte over the 1 MiB cap.
    // The decoder must refuse before allocating, and the server must
    // answer with a typed `frame-too-long` error naming the length.
    let lie: u32 = nwo_serve::MAX_FRAME_LEN + 1;
    let mut stream = std::net::TcpStream::connect(&server.addr).expect("connect");
    stream.write_all(b"NWOS").expect("magic");
    stream
        .write_all(&nwo_serve::WIRE_VERSION.to_le_bytes())
        .expect("version");
    stream.write_all(&lie.to_le_bytes()).expect("length lie");
    stream.flush().expect("flush");

    let reply = match nwo_serve::read_frame(&mut stream).expect("reject frame") {
        nwo_serve::Frame::Payload(text) => text,
        other => panic!("expected an error payload, got {other:?}"),
    };
    assert!(reply.contains("frame-too-long"), "{reply}");
    assert!(
        reply.contains(&(nwo_serve::MAX_FRAME_LEN + 1).to_string()),
        "the reject names the offending length: {reply}"
    );
    assert_eq!(server.state.metrics.oversized.load(Ordering::SeqCst), 1);

    // The daemon survives: a normal client still gets served.
    drop(stream);
    let mut client = Client::connect(&server.addr).expect("connect after reject");
    assert!(client.status().expect("status").contains("metrics"));
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}

#[test]
fn bad_requests_and_config_errors_come_back_typed() {
    let server = TestServer::spawn(ServeOptions::ephemeral(), Arc::new(Runner::with_jobs(1)));
    let mut client = Client::connect(&server.addr).expect("connect");

    client.send("this is not json").expect("send");
    let reply = client.next_frame().expect("frame").expect("payload");
    assert!(reply.contains("bad-request"), "{reply}");

    let err = client
        .sweep(&["no-such-kernel".to_string()], Some(0), &[], 0, None)
        .expect_err("unknown benchmark");
    assert!(err.to_string().contains("unknown benchmark"), "{err}");

    // Config flags flow through the same validation as the CLI.
    let err = client
        .sweep(&benches()[..1], Some(0), &["warp"], 0, None)
        .expect_err("unknown config flag");
    assert!(err.to_string().contains("unknown config flag"), "{err}");
    assert_eq!(server.stop(), DrainReport { leaked: 0 });
}
