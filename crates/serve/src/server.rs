//! The `nwo serve` daemon: a `std::net` TCP accept loop, per-connection
//! handler threads, bounded admission onto the shared bench runner, and
//! graceful drain.
//!
//! One connection handles one request at a time, in order — the framed
//! protocol is strictly request/response-stream, so a client wanting
//! parallel sweeps opens parallel connections. Cancellation therefore
//! arrives on a *different* connection, addressed by the server-assigned
//! job id from the `accepted` frame.
//!
//! Every admitted request runs through the same three cache tiers as
//! the CLI: the runner's in-process memo (coalescing concurrent
//! identical sweeps onto one simulation), the `NWO_CACHE_DIR` disk
//! result cache, and the persisted warm-checkpoint cache. The handler
//! never blocks in `JobHandle::result`; it polls
//! [`JobHandle::try_result`] so the per-request watchdog
//! (`NWO_WATCHDOG_SECS`) and cancel flags stay live while a simulation
//! runs.

use crate::metrics::{serve_snapshot, ServeMetrics};
use crate::proto::{self, code, Request};
use crate::wire::{read_frame, write_frame, Frame, WireError};
use nwo_bench::env::Env;
use nwo_bench::runner::{eta_seconds, progress_json, JobHandle, Runner};
use nwo_bench::{bench_table_header, bench_table_row};
use nwo_workloads::{benchmark, experiment_scale, Benchmark, BENCHMARK_NAMES};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a connection handler sleeps between job-completion polls.
/// Short enough that cancel frames and the watchdog feel immediate,
/// long enough to keep a polling thread near-idle.
const POLL: Duration = Duration::from_millis(2);

/// Read timeout on connection sockets: the cadence at which idle
/// handlers notice the drain flag.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// Default bind address when `--addr`/`NWO_SERVE_ADDR` is absent.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7199";

/// Default admission-queue depth when `--queue-depth`/`NWO_SERVE_QUEUE`
/// is absent.
pub const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Server tuning, normally built by [`ServeOptions::from_env`] and then
/// overridden by CLI flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Maximum simultaneously admitted jobs; further requests are
    /// rejected with a `busy` error frame.
    pub queue_depth: usize,
    /// Per-request wall-clock budget (`NWO_WATCHDOG_SECS`). `None`
    /// disables the watchdog.
    pub watchdog: Option<Duration>,
    /// How long a drain waits for active jobs before declaring them
    /// leaked.
    pub drain_grace: Duration,
}

impl ServeOptions {
    /// Options from `NWO_SERVE_ADDR`, `NWO_SERVE_QUEUE` and
    /// `NWO_WATCHDOG_SECS`, already validated by [`Env::load`].
    pub fn from_env(env: &Env) -> ServeOptions {
        ServeOptions {
            addr: env
                .serve_addr
                .clone()
                .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            queue_depth: env.serve_queue.unwrap_or(DEFAULT_QUEUE_DEPTH),
            watchdog: env.watchdog,
            drain_grace: Duration::from_secs(5),
        }
    }

    /// Defaults with an ephemeral port — what unit tests want.
    pub fn ephemeral() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            watchdog: None,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// What a completed [`Server::run_until`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs still holding an admission slot when the drain grace
    /// expired. Nonzero means simulations were abandoned mid-flight —
    /// `nwo serve` turns this into a nonzero exit code.
    pub leaked: u64,
}

/// How many completed keyed sweeps the idempotency registry remembers.
/// Retries arrive within seconds of the original, so a small FIFO
/// window is plenty; the bound keeps a hostile client from growing
/// server memory by streaming fresh keys.
const REPLAY_CAPACITY: usize = 64;

/// The idempotency replay registry: completed sweeps that carried a
/// client key, remembered so a retry of the same request (same key,
/// same content) is answered from here instead of re-admitted.
///
/// The content fingerprint guards against key collisions (two distinct
/// requests reusing a key): a mismatch falls through to normal
/// admission rather than replaying the wrong table.
#[derive(Default)]
struct ReplayRegistry {
    entries: HashMap<u64, (u64, String)>,
    order: VecDeque<u64>,
}

impl ReplayRegistry {
    /// The stored table for `key`, if the content fingerprint matches.
    fn lookup(&self, key: u64, fingerprint: u64) -> Option<String> {
        self.entries
            .get(&key)
            .filter(|(stored, _)| *stored == fingerprint)
            .map(|(_, table)| table.clone())
    }

    /// Remembers a completed sweep, evicting the oldest entry past the
    /// capacity bound.
    fn record(&mut self, key: u64, fingerprint: u64, table: String) {
        if self.entries.insert(key, (fingerprint, table)).is_none() {
            self.order.push_back(key);
        }
        while self.order.len() > REPLAY_CAPACITY {
            if let Some(evicted) = self.order.pop_front() {
                self.entries.remove(&evicted);
            }
        }
    }
}

/// Shared server state: the runner, admission accounting and the
/// cancel-flag registry.
pub struct ServerState {
    runner: Arc<Runner>,
    queue_depth: usize,
    watchdog: Option<Duration>,
    /// Set by a `shutdown` frame or the process signal handler; stops
    /// the accept loop and makes idle connections hang up.
    draining: AtomicBool,
    next_job: AtomicU64,
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    replays: Mutex<ReplayRegistry>,
    /// Admission/outcome counters, exposed as `serve.*` metrics.
    pub metrics: ServeMetrics,
}

impl ServerState {
    /// Claims an admission slot if the bounded queue has room.
    fn try_admit(&self) -> bool {
        let depth = self.queue_depth as u64;
        self.metrics
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
                (active < depth).then_some(active + 1)
            })
            .is_ok()
    }

    /// The runner executing this server's jobs.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// True once a shutdown/drain was requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Releases an admission slot and unregisters the job's cancel flag on
/// every exit path — success, error frame, or a write failure to a
/// vanished client.
struct SlotGuard<'a> {
    state: &'a ServerState,
    job: u64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.state.cancels.lock().unwrap().remove(&self.job);
        self.state.metrics.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    drain_grace: Duration,
}

impl Server {
    /// Binds `options.addr` and wires the daemon to `runner`.
    ///
    /// # Errors
    ///
    /// Any socket error from binding the address.
    pub fn bind(options: &ServeOptions, runner: Arc<Runner>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                runner,
                queue_depth: options.queue_depth,
                watchdog: options.watchdog,
                draining: AtomicBool::new(false),
                next_job: AtomicU64::new(0),
                cancels: Mutex::new(HashMap::new()),
                replays: Mutex::new(ReplayRegistry::default()),
                metrics: ServeMetrics::default(),
            }),
            drain_grace: options.drain_grace,
        })
    }

    /// The bound address (the actual port when 0 was requested).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state, for tests and metrics scraping.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Accepts and serves connections until `stop` is set (SIGTERM) or
    /// a `shutdown` frame arrives, then drains: no new connections, a
    /// grace period for active jobs, and a [`DrainReport`] of whatever
    /// leaked.
    pub fn run_until(&self, stop: &AtomicBool) -> DrainReport {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) {
                self.state.draining.store(true, Ordering::SeqCst);
            }
            if self.state.draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    ServeMetrics::bump(&self.state.metrics.connections);
                    let state = Arc::clone(&self.state);
                    let handle = std::thread::Builder::new()
                        .name("nwo-serve-conn".to_string())
                        .spawn(move || handle_connection(&state, stream))
                        .expect("spawn connection handler");
                    conns.push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conns.retain(|h| !h.is_finished());
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // Drain: active jobs get a grace period to finish. Idle
        // connections notice the drain flag on their next read-timeout
        // tick and hang up on their own.
        let deadline = Instant::now() + self.drain_grace;
        while self.state.metrics.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let leaked = self.state.metrics.active.load(Ordering::SeqCst);
        let conn_deadline = Instant::now() + Duration::from_millis(500);
        while conns.iter().any(|h| !h.is_finished()) && Instant::now() < conn_deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Join what finished; a handler stuck on a leaked job stays
        // detached (the process is about to exit anyway).
        for handle in conns {
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        DrainReport { leaked }
    }
}

/// Whether the connection loop continues after a request.
enum Flow {
    Continue,
    Stop,
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        match read_frame(&mut reader) {
            Ok(Frame::Idle) => {
                if state.draining() {
                    return;
                }
            }
            Ok(Frame::Eof) => return,
            Ok(Frame::Payload(payload)) => {
                match handle_request(state, &mut writer, &payload) {
                    Ok(Flow::Continue) => {}
                    // Shutdown acknowledged or the client vanished —
                    // either way this connection is done.
                    Ok(Flow::Stop) | Err(_) => return,
                }
            }
            Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // An oversized length field is the one malformation the
            // decoder catches *before* the stream desynchronizes — the
            // header itself parsed cleanly. Answer with a typed reject
            // so the client learns why, then close: the declared
            // payload was never read, so nothing after it can be
            // trusted as a frame boundary.
            Err(WireError::TooLong(len)) => {
                ServeMetrics::bump(&state.metrics.oversized);
                let detail = format!(
                    "frame declares {len} payload bytes; the cap is {} (1 MiB)",
                    crate::wire::MAX_FRAME_LEN
                );
                let _ = write_frame(&mut writer, &proto::error(0, code::OVERSIZED, &detail));
                return;
            }
            // Foreign magic/version, truncation, slow-loris stalls,
            // socket death: there is no framing left to answer on.
            // Drop the connection.
            Err(_) => return,
        }
    }
}

fn handle_request(
    state: &Arc<ServerState>,
    writer: &mut TcpStream,
    payload: &str,
) -> Result<Flow, WireError> {
    let request = match proto::parse_request(payload) {
        Ok(request) => request,
        Err(detail) => {
            // The id is unknown when parsing failed; 0 marks "unaddressed".
            write_frame(writer, &proto::error(0, code::BAD_REQUEST, &detail))?;
            return Ok(Flow::Continue);
        }
    };
    match request {
        Request::Status { id } => {
            let snap = serve_snapshot(&state.metrics, &state.runner.counters());
            let frame = format!(
                "{{\"t\": \"status\", \"id\": {id}, \"jobs\": {}, \"queue_depth\": {}, \
                 \"draining\": {}, \"metrics\": {}}}",
                state.runner.jobs(),
                state.queue_depth,
                state.draining(),
                snap.to_json_line()
            );
            write_frame(writer, &frame)?;
            Ok(Flow::Continue)
        }
        Request::Cancel { id, job } => {
            let flag = state.cancels.lock().unwrap().get(&job).cloned();
            match flag {
                Some(flag) => {
                    flag.store(true, Ordering::SeqCst);
                    write_frame(writer, &proto::ok(id))?;
                }
                None => {
                    let detail = format!("no active job {job}");
                    write_frame(writer, &proto::error(id, code::BAD_REQUEST, &detail))?;
                }
            }
            Ok(Flow::Continue)
        }
        Request::Shutdown { id } => {
            write_frame(writer, &proto::ok(id))?;
            state.draining.store(true, Ordering::SeqCst);
            Ok(Flow::Stop)
        }
        Request::Sweep {
            id,
            benches,
            scale,
            config,
            linger_ms,
            key,
        } => {
            // Idempotent replay: a retried keyed request whose content
            // matches an already-completed sweep is answered from the
            // registry — no admission, no simulation, truthfully
            // zeroed `done` counters. Checked even while draining: the
            // replay is read-only, so a retry racing a shutdown still
            // gets its result.
            let fingerprint = sweep_fingerprint(&benches, scale, &config, linger_ms);
            if let Some(key) = key {
                let stored = state.replays.lock().unwrap().lookup(key, fingerprint);
                if let Some(table) = stored {
                    ServeMetrics::bump(&state.metrics.replays);
                    write_frame(writer, &proto::accepted(id, 0))?;
                    write_frame(writer, &proto::result(&table))?;
                    write_frame(writer, &proto::done_replayed(id))?;
                    return Ok(Flow::Continue);
                }
            }
            if state.draining() {
                ServeMetrics::bump(&state.metrics.rejected);
                let detail = "server is draining; no new work accepted";
                write_frame(writer, &proto::error(id, code::DRAINING, detail))?;
                return Ok(Flow::Continue);
            }
            if !state.try_admit() {
                ServeMetrics::bump(&state.metrics.rejected);
                let detail = format!(
                    "admission queue full: {} jobs active, depth {}",
                    state.metrics.active.load(Ordering::SeqCst),
                    state.queue_depth
                );
                write_frame(writer, &proto::error(id, code::BUSY, &detail))?;
                return Ok(Flow::Continue);
            }
            let job = state.next_job.fetch_add(1, Ordering::SeqCst) + 1;
            let guard = SlotGuard { state, job };
            let cancel = Arc::new(AtomicBool::new(false));
            state
                .cancels
                .lock()
                .unwrap()
                .insert(job, Arc::clone(&cancel));
            // Resolve every benchmark before admitting work to the pool:
            // a typo'd name must not half-run a sweep.
            let names: Vec<String> = if benches.is_empty() {
                BENCHMARK_NAMES.iter().map(|s| s.to_string()).collect()
            } else {
                benches
            };
            let mut resolved: Vec<(String, u32, Benchmark)> = Vec::with_capacity(names.len());
            for name in names {
                let bench_scale = scale.unwrap_or_else(|| experiment_scale(&name));
                match benchmark(&name, bench_scale) {
                    Some(bench) => resolved.push((name, bench_scale, bench)),
                    None => {
                        ServeMetrics::bump(&state.metrics.failed);
                        let detail =
                            format!("unknown benchmark `{name}`; known: {BENCHMARK_NAMES:?}");
                        write_frame(writer, &proto::error(id, code::BAD_REQUEST, &detail))?;
                        return Ok(Flow::Continue);
                    }
                }
            }
            ServeMetrics::bump(&state.metrics.accepted);
            write_frame(writer, &proto::accepted(id, job))?;
            let replay_slot = key.map(|key| (key, fingerprint));
            run_sweep(
                state,
                writer,
                id,
                job,
                &cancel,
                &resolved,
                config,
                linger_ms,
                replay_slot,
            )?;
            drop(guard);
            Ok(Flow::Continue)
        }
    }
}

/// Executes one admitted sweep: submit everything, poll to completion
/// under the cancel flag and watchdog, stream progress frames, then
/// send the id-free `result` frame and the `done` accounting frame.
#[allow(clippy::too_many_arguments)]
fn run_sweep(
    state: &ServerState,
    writer: &mut TcpStream,
    id: u64,
    job: u64,
    cancel: &AtomicBool,
    resolved: &[(String, u32, Benchmark)],
    config: nwo_sim::SimConfig,
    linger_ms: u64,
    replay_slot: Option<(u64, u64)>,
) -> Result<(), WireError> {
    let start = Instant::now();
    let deadline = state.watchdog.map(|d| start + d);
    let handles: Vec<JobHandle> = resolved
        .iter()
        .map(|(_, bench_scale, bench)| state.runner.submit(bench, *bench_scale, config.clone()))
        .collect();
    let total = handles.len();
    let mut rows: Vec<String> = Vec::with_capacity(total);
    for (done, ((name, bench_scale, _), handle)) in resolved.iter().zip(&handles).enumerate() {
        let report = loop {
            if let Some(interrupted) = interruption(state, cancel, deadline, start) {
                write_frame(writer, &proto::error(id, interrupted.0, &interrupted.1))?;
                return Ok(());
            }
            match handle.try_result() {
                Some(Ok(report)) => break report,
                Some(Err(message)) => {
                    ServeMetrics::bump(&state.metrics.failed);
                    write_frame(writer, &proto::error(id, code::FAILED, &message))?;
                    return Ok(());
                }
                None => std::thread::sleep(POLL),
            }
        };
        rows.push(bench_table_row(name, *bench_scale, &report));
        let done = done + 1;
        let eta = eta_seconds(start.elapsed().as_secs_f64(), done, total);
        let progress = progress_json("jobs", done, total, &state.runner.counters(), 0, eta);
        write_frame(writer, &progress)?;
    }
    // Testing aid: keep the admission slot occupied so rejection,
    // cancel and watchdog paths can be exercised deterministically.
    let linger_until = start + Duration::from_millis(linger_ms);
    while Instant::now() < linger_until {
        if let Some(interrupted) = interruption(state, cancel, deadline, start) {
            write_frame(writer, &proto::error(id, interrupted.0, &interrupted.1))?;
            return Ok(());
        }
        std::thread::sleep(POLL);
    }
    let mut table = bench_table_header();
    table.push('\n');
    for row in &rows {
        table.push_str(row);
        table.push('\n');
    }
    // Record the replay entry *before* sending the result: the whole
    // point of the idempotency key is the retry after a result frame
    // was computed but never delivered.
    if let Some((key, fingerprint)) = replay_slot {
        state
            .replays
            .lock()
            .unwrap()
            .record(key, fingerprint, table.clone());
    }
    write_frame(writer, &proto::result(&table))?;
    let memo_hits = handles.iter().filter(|h| h.memo_hit).count() as u64;
    let disk_hits = handles.iter().filter(|h| h.disk_hit).count() as u64;
    let sims_run = total as u64 - memo_hits - disk_hits;
    write_frame(
        writer,
        &proto::done(id, job, memo_hits, disk_hits, sims_run),
    )?;
    ServeMetrics::bump(&state.metrics.completed);
    Ok(())
}

/// A content fingerprint for the idempotency registry: everything
/// that determines a sweep's result (and its `linger_ms` side effect),
/// hashed over an unambiguous encoding. Bench names are separated by a
/// unit separator so `["ab", "c"]` and `["a", "bc"]` cannot collide.
fn sweep_fingerprint(
    benches: &[String],
    scale: Option<u32>,
    config: &nwo_sim::SimConfig,
    linger_ms: u64,
) -> u64 {
    let mut desc = String::new();
    for bench in benches {
        desc.push_str(bench);
        desc.push('\u{1f}');
    }
    desc.push_str(&format!(
        "|scale={scale:?}|config={:#018x}|linger={linger_ms}",
        config.fingerprint()
    ));
    nwo_ckpt::fnv1a(desc.as_bytes())
}

/// Checks the cancel flag then the watchdog; returns the error code
/// and detail to send when either fired. The underlying simulations
/// keep running on the pool (std threads cannot be killed safely) —
/// the request detaches, the slot frees, and a later identical request
/// memo-hits the finished result.
fn interruption(
    state: &ServerState,
    cancel: &AtomicBool,
    deadline: Option<Instant>,
    start: Instant,
) -> Option<(&'static str, String)> {
    if cancel.load(Ordering::SeqCst) {
        ServeMetrics::bump(&state.metrics.cancelled);
        return Some((
            code::CANCELLED,
            "job abandoned by a cancel frame".to_string(),
        ));
    }
    if let Some(deadline) = deadline {
        if Instant::now() >= deadline {
            ServeMetrics::bump(&state.metrics.timeouts);
            let detail = format!(
                "watchdog: {:.3}s elapsed, budget {:.3}s",
                start.elapsed().as_secs_f64(),
                state.watchdog.map(|d| d.as_secs_f64()).unwrap_or_default()
            );
            return Some((code::TIMEOUT, detail));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_registry_matches_content_and_bounds_memory() {
        let mut reg = ReplayRegistry::default();
        reg.record(7, 0xAA, "table-a".to_string());
        assert_eq!(reg.lookup(7, 0xAA).as_deref(), Some("table-a"));
        assert_eq!(
            reg.lookup(7, 0xBB),
            None,
            "a colliding key with different content must miss, not replay the wrong table"
        );
        assert_eq!(reg.lookup(8, 0xAA), None);

        // Re-recording the same key replaces in place (no double order
        // entry), and the FIFO bound evicts the oldest keys.
        reg.record(7, 0xCC, "table-b".to_string());
        assert_eq!(reg.lookup(7, 0xCC).as_deref(), Some("table-b"));
        for key in 0..REPLAY_CAPACITY as u64 {
            reg.record(1000 + key, key, format!("t{key}"));
        }
        assert_eq!(reg.entries.len(), REPLAY_CAPACITY);
        assert_eq!(reg.order.len(), REPLAY_CAPACITY);
        assert_eq!(reg.lookup(7, 0xCC), None, "oldest entry was evicted");
        assert!(reg
            .lookup(
                1000 + REPLAY_CAPACITY as u64 - 1,
                REPLAY_CAPACITY as u64 - 1
            )
            .is_some());
    }

    #[test]
    fn sweep_fingerprints_separate_distinct_requests() {
        let base = nwo_sim::SimConfig::default();
        let benches = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = sweep_fingerprint(&benches(&["ab", "c"]), None, &base, 0);
        let b = sweep_fingerprint(&benches(&["a", "bc"]), None, &base, 0);
        assert_ne!(a, b, "bench-name boundaries are part of the content");
        let scaled = sweep_fingerprint(&benches(&["ab", "c"]), Some(1), &base, 0);
        assert_ne!(a, scaled);
        let lingered = sweep_fingerprint(&benches(&["ab", "c"]), None, &base, 50);
        assert_ne!(a, lingered);
        let wide = sweep_fingerprint(
            &benches(&["ab", "c"]),
            None,
            &base.clone().with_wide_decode(),
            0,
        );
        assert_ne!(a, wide);
        // Same content, same fingerprint — the property replay relies on.
        assert_eq!(a, sweep_fingerprint(&benches(&["ab", "c"]), None, &base, 0));
    }

    #[test]
    fn admission_is_bounded_by_queue_depth() {
        let runner = Arc::new(Runner::with_jobs(1));
        let options = ServeOptions {
            queue_depth: 2,
            ..ServeOptions::ephemeral()
        };
        let server = Server::bind(&options, runner).expect("binds ephemeral port");
        let state = server.state();
        assert!(state.try_admit());
        assert!(state.try_admit());
        assert!(!state.try_admit(), "third job exceeds depth 2");
        state.metrics.active.fetch_sub(1, Ordering::SeqCst);
        assert!(state.try_admit(), "a released slot is reusable");
    }
}
