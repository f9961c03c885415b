//! Parallel, memoizing simulation runner.
//!
//! The experiment harness used to execute every `run(bench, config)`
//! eagerly and serially, re-simulating identical `(benchmark, config)`
//! pairs for every figure that asked for them. This module replaces
//! that with:
//!
//! * a **worker pool** of std threads (`NWO_JOBS` env override,
//!   default: available parallelism) executing simulation jobs, and
//! * a **memo cache** keyed on `(benchmark name, scale, config
//!   fingerprint)` — see [`nwo_sim::SimConfig::fingerprint`] — so each
//!   distinct simulation runs exactly once per harness invocation no
//!   matter how many experiments request it.
//!
//! Experiments submit all of their jobs up front via [`reports`] and
//! collect the results in submission order, which keeps table and CSV
//! output byte-identical to a serial (`NWO_JOBS=1`) run: the simulator
//! is deterministic, so a memoized report is indistinguishable from a
//! fresh one, and ordering is fixed by the caller rather than by
//! completion time.
//!
//! Two further caches sit under the in-memory memo:
//!
//! * a **disk-persistent result cache** (`NWO_CACHE_DIR` env, off by
//!   default) holding serialized [`SimReport`]s keyed on `(benchmark,
//!   scale, config fingerprint, code salt)` — a repeated harness run
//!   answers every simulation from disk, and a rebuilt binary (new
//!   [`nwo_ckpt::code_salt`]) transparently invalidates all of it; and
//! * a **warm-checkpoint cache** (`NWO_WARMUP=n` env, off by default)
//!   sharing one functional fast-forward image per `(benchmark, scale,
//!   [`SimConfig::warm_fingerprint`])` — a config sweep warms each
//!   kernel exactly once, however many machine variants it times.

use crate::env::Env;
use crate::run_with_warm_state;
use nwo_ckpt::{with_retry, CacheDir};
use nwo_sim::{SimConfig, SimReport, Simulator};
use nwo_workloads::Benchmark;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Memo-cache key: benchmark name, workload scale, config fingerprint.
///
/// The benchmark *name* stands in for the program: the harness always
/// derives a given `(name, scale)` pair from
/// [`nwo_workloads::benchmark`], so the pair identifies the program
/// bytes exactly.
type Key = (&'static str, u32, u64);

/// One job's result slot, shared by the worker and any waiters.
/// `None` until the worker finishes; an `Err` carries a panic message
/// from the simulation (e.g. reference-output divergence).
#[derive(Default)]
struct JobSlot {
    result: Mutex<Option<Result<Arc<SimReport>, String>>>,
    done: Condvar,
}

impl JobSlot {
    fn fill(&self, value: Result<Arc<SimReport>, String>) {
        let mut guard = self.result.lock().unwrap();
        *guard = Some(value);
        self.done.notify_all();
    }
}

/// A handle to a submitted (possibly memoized) simulation.
pub struct JobHandle {
    slot: Arc<JobSlot>,
    /// True when submission found the key already present — the
    /// simulation is (or will be) shared with an earlier submission.
    pub memo_hit: bool,
    /// True when submission was answered directly from the
    /// `NWO_CACHE_DIR` disk cache (no job was enqueued).
    pub disk_hit: bool,
}

impl JobHandle {
    /// Non-blocking probe: `Some` with the finished result, `None`
    /// while the simulation is still queued or running. This is what
    /// lets the serve daemon poll a job under its per-request watchdog
    /// and keep servicing cancel frames instead of parking a thread in
    /// [`JobHandle::result`].
    pub fn try_result(&self) -> Option<Result<Arc<SimReport>, String>> {
        self.slot.result.lock().unwrap().clone()
    }

    /// Blocks until the simulation finishes and returns its report, or
    /// the failure message if the simulation panicked.
    ///
    /// # Errors
    ///
    /// Returns the panic payload of a failed simulation (divergence
    /// from the reference output, simulator deadlock, …).
    pub fn result(&self) -> Result<Arc<SimReport>, String> {
        let mut guard = self.slot.result.lock().unwrap();
        while guard.is_none() {
            guard = self.slot.done.wait(guard).unwrap();
        }
        guard.as_ref().expect("loop exits only when filled").clone()
    }

    /// Blocks until the simulation finishes and returns its report.
    ///
    /// # Panics
    ///
    /// Re-raises a failed simulation's panic message in the waiting
    /// thread, so experiment code keeps its fail-fast behaviour.
    pub fn wait(&self) -> Arc<SimReport> {
        self.result().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Monotonic counters, snapshot-diffed by the harness to report
/// per-experiment work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerCounters {
    /// Jobs submitted (hits + misses).
    pub submitted: u64,
    /// Submissions answered from the memo cache (or coalesced onto an
    /// in-flight job).
    pub memo_hits: u64,
    /// Simulations actually executed by a worker.
    pub sims_run: u64,
    /// Submissions answered from the `NWO_CACHE_DIR` disk cache.
    pub disk_hits: u64,
    /// Functional warmups actually executed (`NWO_WARMUP` mode).
    pub warmups_run: u64,
    /// Simulations that reused an already-built warm checkpoint from
    /// this process's in-memory slot.
    pub warm_hits: u64,
    /// Warm checkpoints loaded from the `NWO_CACHE_DIR` disk cache —
    /// warmups some earlier process (or server run) already paid for.
    pub warm_disk_hits: u64,
}

/// A queued simulation.
struct QueuedJob {
    bench: Arc<Benchmark>,
    scale: u32,
    config: SimConfig,
    slot: Arc<JobSlot>,
    /// Disk-cache key to store the finished report under (`None` when
    /// the disk cache is off).
    disk_key: Option<String>,
}

/// Warm-checkpoint cache key: benchmark name, scale, warm fingerprint.
type WarmKey = (&'static str, u32, u64);

/// A slot in the warm-checkpoint cache: workers race to initialize the
/// `OnceLock`, and the losers block on (rather than duplicate) the
/// winner's warmup.
type WarmSlot = Arc<OnceLock<Arc<Vec<u8>>>>;

/// State shared between submitters and workers.
#[derive(Default)]
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    counters: Mutex<RunnerCounters>,
    /// Disk-persistent report cache (`NWO_CACHE_DIR`), off by default.
    disk: Option<CacheDir>,
    /// Functional-warmup instruction budget (`NWO_WARMUP`), 0 = off.
    warm_insts: u64,
    /// One warm checkpoint per [`WarmKey`]; the `OnceLock` makes
    /// concurrent workers block on (rather than duplicate) a warmup.
    warm: Mutex<HashMap<WarmKey, WarmSlot>>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

/// The worker pool plus its memo cache.
pub struct Runner {
    shared: Arc<Shared>,
    memo: Mutex<HashMap<Key, Arc<JobSlot>>>,
    workers: Vec<JoinHandle<()>>,
    jobs: usize,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("jobs", &self.jobs)
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// A pool of exactly `jobs` worker threads (clamped to at least 1),
    /// with no disk cache and no warmup — the fully deterministic
    /// configuration unit tests rely on.
    pub fn with_jobs(jobs: usize) -> Runner {
        Runner::with_options(jobs, None, 0)
    }

    /// A pool with explicit cache/warmup policy: `disk` enables the
    /// persistent report cache, `warm_insts > 0` fast-forwards that many
    /// instructions (sharing one checkpoint per warm fingerprint) before
    /// every timed simulation.
    pub fn with_options(jobs: usize, disk: Option<CacheDir>, warm_insts: u64) -> Runner {
        let jobs = jobs.max(1);
        let shared = Arc::new(Shared {
            disk,
            warm_insts,
            ..Shared::default()
        });
        let workers = (0..jobs)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nwo-runner-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn runner worker")
            })
            .collect();
        Runner {
            shared,
            memo: Mutex::new(HashMap::new()),
            workers,
            jobs,
        }
    }

    /// The process-wide runner used by the experiment harness, set up
    /// by [`Env::runner`] from `NWO_JOBS`, `NWO_CACHE_DIR` and
    /// `NWO_WARMUP` on first use. The memo cache therefore spans all
    /// experiments of one harness invocation.
    pub fn global() -> &'static Runner {
        static GLOBAL: OnceLock<Runner> = OnceLock::new();
        GLOBAL.get_or_init(|| Env::current().runner())
    }

    /// Number of worker threads.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Current counter values.
    pub fn counters(&self) -> RunnerCounters {
        *self.shared.counters.lock().unwrap()
    }

    /// Submits one simulation. If a job with the same `(benchmark name,
    /// scale, fingerprint)` key was already submitted — finished or
    /// still in flight — the returned handle shares its result and no
    /// new simulation is enqueued.
    pub fn submit(&self, bench: &Benchmark, scale: u32, config: SimConfig) -> JobHandle {
        let key: Key = (bench.name, scale, config.fingerprint());
        let (slot, memo_hit) = {
            let mut memo = self.memo.lock().unwrap();
            match memo.get(&key) {
                Some(slot) => (Arc::clone(slot), true),
                None => {
                    let slot = Arc::new(JobSlot::default());
                    memo.insert(key, Arc::clone(&slot));
                    (slot, false)
                }
            }
        };
        {
            let mut counters = self.shared.counters.lock().unwrap();
            counters.submitted += 1;
            if memo_hit {
                counters.memo_hits += 1;
            }
        }
        let mut disk_hit = false;
        if !memo_hit {
            let disk_key = self
                .shared
                .disk
                .as_ref()
                .map(|_| disk_key(bench.name, scale, &config, self.shared.warm_insts));
            let loaded = disk_key.is_some().then(|| {
                let _prof = nwo_sim::obs::span::span("cache-lookup");
                let report = self.load_from_disk(disk_key.as_deref());
                nwo_sim::obs::span::add(if report.is_some() { "hits" } else { "misses" }, 1);
                report
            });
            if let Some(report) = loaded.flatten() {
                self.shared.counters.lock().unwrap().disk_hits += 1;
                disk_hit = true;
                slot.fill(Ok(Arc::new(report)));
            } else {
                let mut queue = self.shared.queue.lock().unwrap();
                queue.jobs.push_back(QueuedJob {
                    bench: Arc::new(bench.clone()),
                    scale,
                    config,
                    slot: Arc::clone(&slot),
                    disk_key,
                });
                drop(queue);
                self.shared.available.notify_one();
            }
        }
        JobHandle {
            slot,
            memo_hit,
            disk_hit,
        }
    }

    /// Attempts to answer a submission from the disk cache. Transient
    /// I/O errors are retried with backoff; any persistent failure —
    /// missing file, I/O error, stale code salt, corruption — is a
    /// miss: the simulation re-runs and overwrites the entry.
    fn load_from_disk(&self, key: Option<&str>) -> Option<SimReport> {
        let disk = self.shared.disk.as_ref()?;
        let key = key?;
        let bytes = with_retry(|| disk.load(key)).ok().flatten()?;
        SimReport::from_ckpt_bytes(&bytes).ok()
    }

    /// Submits every `(benchmark, config)` pair in order and waits for
    /// all of them, returning reports in submission order. With
    /// `NWO_PROGRESS` set (the CLI's `--progress`), one JSON ticker
    /// line per finished job goes to stderr — stdout stays untouched,
    /// preserving the byte-for-byte determinism contract.
    pub fn collect<'a>(
        &self,
        scale: u32,
        jobs: impl IntoIterator<Item = (&'a Benchmark, SimConfig)>,
    ) -> Vec<Arc<SimReport>> {
        let handles: Vec<JobHandle> = jobs
            .into_iter()
            .map(|(bench, config)| self.submit(bench, scale, config))
            .collect();
        let progress = Env::current().progress;
        let start = std::time::Instant::now();
        let total = handles.len();
        let mut reports = Vec::with_capacity(total);
        for (done, handle) in handles.iter().enumerate() {
            reports.push(handle.wait());
            if progress {
                let done = done + 1;
                let eta = eta_seconds(start.elapsed().as_secs_f64(), done, total);
                eprintln!(
                    "{}",
                    progress_json("jobs", done, total, &self.counters(), 0, eta)
                );
            }
        }
        reports
    }
}

/// Naive remaining-time estimate: average seconds per finished unit
/// times units left. Zero until something finishes.
pub fn eta_seconds(elapsed_s: f64, done: usize, total: usize) -> f64 {
    if done == 0 {
        return 0.0;
    }
    elapsed_s / done as f64 * total.saturating_sub(done) as f64
}

/// One line of the live progress stream (stderr, `--progress`): a flat
/// JSON object with a `"t": "progress"` discriminator, the done/total
/// counts for `scope` (`"jobs"` per collected simulation,
/// `"experiments"` per harness experiment), the runner's cumulative
/// cache counters, quarantine count and an ETA in seconds. This is the
/// status payload a future `nwo-serve` daemon will put on the wire.
pub fn progress_json(
    scope: &str,
    done: usize,
    total: usize,
    counters: &RunnerCounters,
    quarantined: usize,
    eta_s: f64,
) -> String {
    format!(
        "{{\"t\": \"progress\", \"scope\": \"{scope}\", \"done\": {done}, \"total\": {total}, \
         \"sims_run\": {}, \"memo_hits\": {}, \"disk_hits\": {}, \"warm_hits\": {}, \
         \"quarantined\": {quarantined}, \"eta_s\": {eta_s:.1}}}",
        counters.sims_run, counters.memo_hits, counters.disk_hits, counters.warm_hits,
    )
}

impl Drop for Runner {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        let bench = Arc::clone(&job.bench);
        let scale = job.scale;
        let config = job.config;
        // One span per executed job: its total across workers is the
        // pool's busy time, which the harness turns into utilization.
        let job_span = nwo_sim::obs::span::labeled_span("sim-job", bench.name);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let warm = (shared.warm_insts > 0).then(|| warm_bytes(shared, &bench, scale, &config));
            run_with_warm_state(&bench, config, warm.as_ref().map(|w| w.as_slice()))
        }))
        .map(Arc::new)
        .map_err(|payload| panic_message(&job.bench, &*payload));
        if let (Some(disk), Some(key), Ok(report)) = (&shared.disk, &job.disk_key, &outcome) {
            let _prof = nwo_sim::obs::span::span("cache-store");
            let bytes = report.to_ckpt_bytes();
            if let Err(e) = with_retry(|| disk.store(key, &bytes)) {
                eprintln!("NWO_CACHE_DIR: cannot store {key}: {e}");
            }
        }
        drop(job_span);
        shared.counters.lock().unwrap().sims_run += 1;
        job.slot.fill(outcome);
    }
}

/// Where one `warm_bytes` call got its checkpoint from, for counter
/// attribution.
enum WarmSource {
    /// Another submission already initialized the in-process slot.
    Memo,
    /// Loaded from the persistent cache (`NWO_CACHE_DIR`).
    Disk,
    /// Built by fast-forwarding here (and spilled to disk if enabled).
    Built,
}

/// The warm checkpoint for `(bench, scale, warm fingerprint)`, building
/// it on first use. Concurrent requests for the same key block on one
/// warmup instead of duplicating it, and with `NWO_CACHE_DIR` set the
/// built image is spilled to [`CacheDir`] so sibling processes and
/// server restarts reuse it instead of rewarming.
fn warm_bytes(shared: &Shared, bench: &Benchmark, scale: u32, config: &SimConfig) -> Arc<Vec<u8>> {
    let key: WarmKey = (bench.name, scale, config.warm_fingerprint());
    let cell = {
        let mut warm = shared.warm.lock().unwrap();
        Arc::clone(warm.entry(key).or_default())
    };
    let mut source = WarmSource::Memo;
    let bytes = Arc::clone(cell.get_or_init(|| {
        if let Some(loaded) = load_warm_from_disk(shared, bench, scale, config) {
            source = WarmSource::Disk;
            return Arc::new(loaded);
        }
        source = WarmSource::Built;
        let bytes = crate::warm_checkpoint(bench, config, shared.warm_insts);
        if let Some(disk) = &shared.disk {
            let key = warm_disk_key(bench.name, scale, config, shared.warm_insts);
            if let Err(e) = with_retry(|| disk.store(&key, &bytes)) {
                eprintln!("NWO_CACHE_DIR: cannot store {key}: {e}");
            }
        }
        Arc::new(bytes)
    }));
    let mut counters = shared.counters.lock().unwrap();
    match source {
        WarmSource::Memo => counters.warm_hits += 1,
        WarmSource::Disk => counters.warm_disk_hits += 1,
        WarmSource::Built => counters.warmups_run += 1,
    }
    bytes
}

/// Attempts to load a persisted warm checkpoint. `run_with_warm_state`
/// panics on a rejected warm image, so a stale, corrupt or foreign disk
/// entry must be detected here and degrade to a rebuild, not a panic.
/// Restoring it into a fresh simulator checks everything that restore
/// will: the container (magic, format version, code salt, per-section
/// CRCs) and the image's identity (warm fingerprint and code digest —
/// a kernel edited without a `LAYOUT_REV` bump keeps its disk key).
fn load_warm_from_disk(
    shared: &Shared,
    bench: &Benchmark,
    scale: u32,
    config: &SimConfig,
) -> Option<Vec<u8>> {
    let disk = shared.disk.as_ref()?;
    let key = warm_disk_key(bench.name, scale, config, shared.warm_insts);
    let bytes = with_retry(|| disk.load(&key)).ok().flatten()?;
    Simulator::new(&bench.program, config.clone())
        .restore_checkpoint(&bytes)
        .ok()?;
    Some(bytes)
}

/// Disk key for a persisted warm checkpoint: program identity, the
/// warm-relevant config fingerprint, the warmup budget and the code
/// salt (also embedded in the blob and re-verified on load).
fn warm_disk_key(name: &str, scale: u32, config: &SimConfig, warm_insts: u64) -> String {
    format!(
        "warm-{name}-s{scale}-{:016x}-w{warm_insts}-{:016x}",
        config.warm_fingerprint(),
        nwo_ckpt::code_salt()
    )
}

/// Disk-cache key: every component that can change the report —
/// program identity (name, scale), full config fingerprint, warmup
/// budget, and the binary's code salt (also embedded in the blob and
/// re-verified on load).
fn disk_key(name: &str, scale: u32, config: &SimConfig, warm_insts: u64) -> String {
    format!(
        "report-{name}-s{scale}-{:016x}-w{warm_insts}-{:016x}",
        config.fingerprint(),
        nwo_ckpt::code_salt()
    )
}

/// Extracts a readable message from a worker panic payload.
fn panic_message(bench: &Benchmark, payload: &(dyn std::any::Any + Send)) -> String {
    let detail = panic_text(payload).unwrap_or("simulation panicked");
    format!("{}: {detail}", bench.name)
}

/// The text of a caught panic's payload, when it is a string (the
/// payload of every `panic!` with a message).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
}

/// Submits `(benchmark, config)` pairs on the [global](Runner::global)
/// runner at the harness scale and returns reports in submission order
/// — the workhorse behind every experiment's figure loop.
pub fn reports<'a>(
    jobs: impl IntoIterator<Item = (&'a Benchmark, SimConfig)>,
) -> Vec<Arc<SimReport>> {
    Runner::global().collect(crate::harness_scale(), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_config;
    use nwo_workloads::benchmark;

    /// A small, fast benchmark for runner tests.
    fn small_bench() -> Benchmark {
        benchmark("mpeg2-enc", 0).expect("known benchmark")
    }

    #[test]
    fn eta_extrapolates_average_pace_over_remaining_units() {
        assert_eq!(eta_seconds(10.0, 0, 8), 0.0, "no estimate before data");
        assert!((eta_seconds(10.0, 2, 8) - 30.0).abs() < 1e-12);
        assert_eq!(eta_seconds(10.0, 8, 8), 0.0, "nothing left");
    }

    #[test]
    fn progress_line_is_valid_json_with_every_field() {
        let counters = RunnerCounters {
            submitted: 7,
            sims_run: 5,
            memo_hits: 2,
            disk_hits: 1,
            warmups_run: 4,
            warm_hits: 4,
            warm_disk_hits: 3,
        };
        let line = progress_json("experiments", 3, 7, &counters, 1, 12.34);
        let v = nwo_sim::obs::json::parse(&line).expect("progress line parses");
        assert_eq!(v.get("t").and_then(|x| x.as_str()), Some("progress"));
        assert_eq!(v.get("scope").and_then(|x| x.as_str()), Some("experiments"));
        assert_eq!(v.get("done").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("total").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("sims_run").and_then(|x| x.as_u64()), Some(5));
        assert_eq!(v.get("memo_hits").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("disk_hits").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("warm_hits").and_then(|x| x.as_u64()), Some(4));
        assert_eq!(v.get("quarantined").and_then(|x| x.as_u64()), Some(1));
        assert!((v.get("eta_s").and_then(|x| x.as_f64()).unwrap() - 12.3).abs() < 1e-9);
    }

    #[test]
    fn memo_hits_identical_fingerprints_and_misses_different_ones() {
        let runner = Runner::with_jobs(2);
        let bench = small_bench();
        let first = runner.submit(&bench, 0, base_config());
        let second = runner.submit(&bench, 0, base_config());
        assert!(!first.memo_hit, "first submission simulates");
        assert!(second.memo_hit, "identical fingerprint is served from memo");
        let a = first.wait();
        let b = second.wait();
        assert!(
            Arc::ptr_eq(&a, &b),
            "memo hit returns the cached SimReport, not a re-run"
        );

        // Any differing field produces a different fingerprint -> miss.
        let mut tweaked = base_config();
        tweaked.ruu_size += 1;
        let third = runner.submit(&bench, 0, tweaked);
        assert!(!third.memo_hit, "a changed field must re-simulate");
        let c = third.wait();
        assert!(!Arc::ptr_eq(&a, &c));

        // A different scale is a different workload -> miss.
        let fourth = runner.submit(&bench, 1, base_config());
        assert!(!fourth.memo_hit, "a changed scale must re-simulate");

        let counters = runner.counters();
        assert_eq!(counters.submitted, 4);
        assert_eq!(counters.memo_hits, 1);
        let _ = fourth.wait();
        assert_eq!(runner.counters().sims_run, 3);
    }

    #[test]
    fn collect_preserves_submission_order() {
        let runner = Runner::with_jobs(4);
        let bench = small_bench();
        let configs = [
            base_config(),
            base_config().with_perfect_prediction(),
            base_config(),
        ];
        let reports = runner.collect(0, configs.iter().map(|c| (&bench, c.clone())));
        assert_eq!(reports.len(), 3);
        assert!(
            Arc::ptr_eq(&reports[0], &reports[2]),
            "duplicate jobs collapse onto one simulation"
        );
        assert_eq!(
            reports[0].stats.committed, reports[1].stats.committed,
            "prediction mode must not change architected work"
        );
        assert_eq!(runner.counters().sims_run, 2);
    }

    #[test]
    fn worker_panics_propagate_to_the_waiter() {
        let runner = Runner::with_jobs(1);
        // Corrupt the expected output so `run` panics in the worker.
        let mut bench = small_bench();
        bench.expected.push(0xdead);
        let handle = runner.submit(&bench, 0, base_config());
        let err = handle.result().expect_err("divergence must surface");
        assert!(
            err.starts_with("mpeg2-enc: ") && err.contains("diverged from its reference output"),
            "error names the benchmark and keeps the panic's cause: {err}"
        );
    }

    /// A scratch cache directory unique to one test, removed on drop.
    struct ScratchCache(std::path::PathBuf);

    impl ScratchCache {
        fn new(tag: &str) -> ScratchCache {
            let root =
                std::env::temp_dir().join(format!("nwo-runner-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            ScratchCache(root)
        }

        fn dir(&self) -> CacheDir {
            CacheDir::new(&self.0)
        }
    }

    impl Drop for ScratchCache {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn disk_cache_persists_reports_across_runners() {
        let scratch = ScratchCache::new("persist");
        let bench = small_bench();

        let cold = Runner::with_options(1, Some(scratch.dir()), 0);
        let first = cold.submit(&bench, 0, base_config()).wait();
        let counters = cold.counters();
        assert_eq!(counters.sims_run, 1);
        assert_eq!(counters.disk_hits, 0, "cold cache cannot hit");
        drop(cold);

        // A fresh runner (fresh memo) answers the same job from disk.
        let warm = Runner::with_options(1, Some(scratch.dir()), 0);
        let handle = warm.submit(&bench, 0, base_config());
        assert!(!handle.memo_hit, "fresh memo cache has no entry");
        let second = handle.wait();
        let counters = warm.counters();
        assert_eq!(counters.disk_hits, 1, "warm cache answers from disk");
        assert_eq!(counters.sims_run, 0, "no simulation re-runs");
        assert_eq!(second.to_ckpt_bytes(), first.to_ckpt_bytes());

        // A different fingerprint misses the disk cache too.
        let other = warm.submit(&bench, 0, base_config().with_perfect_prediction());
        let _ = other.wait();
        assert_eq!(warm.counters().sims_run, 1);
    }

    #[test]
    fn corrupted_disk_entry_is_a_miss_not_a_panic() {
        let scratch = ScratchCache::new("corrupt");
        let bench = small_bench();
        let key = disk_key(bench.name, 0, &base_config(), 0);
        let dir = scratch.dir();
        dir.store(&key, b"not a checkpoint")
            .expect("stores garbage");

        let runner = Runner::with_options(1, Some(dir), 0);
        let report = runner.submit(&bench, 0, base_config()).wait();
        let counters = runner.counters();
        assert_eq!(counters.disk_hits, 0, "garbage never counts as a hit");
        assert_eq!(counters.sims_run, 1, "the simulation re-runs");
        assert!(report.stats.committed > 0);

        // The re-run overwrote the entry with a valid blob.
        let bytes = scratch
            .dir()
            .load(&key)
            .expect("readable")
            .expect("present");
        assert!(SimReport::from_ckpt_bytes(&bytes).is_ok());
    }

    #[test]
    fn transient_cache_faults_are_retried_through() {
        let scratch = ScratchCache::new("retry");
        let bench = small_bench();

        // Seed the cache with a clean handle.
        let seed = Runner::with_options(1, Some(scratch.dir()), 0);
        let first = seed.submit(&bench, 0, base_config()).wait();
        drop(seed);

        // One injected transient failure per operation: the retry path
        // absorbs it and the run still answers from disk.
        let flaky = CacheDir::with_injected_faults(&scratch.0, 1);
        let runner = Runner::with_options(1, Some(flaky), 0);
        let handle = runner.submit(&bench, 0, base_config());
        let report = handle.wait();
        let counters = runner.counters();
        assert_eq!(counters.disk_hits, 1, "retry turned the fault into a hit");
        assert_eq!(counters.sims_run, 0, "no simulation re-ran");
        assert_eq!(report.to_ckpt_bytes(), first.to_ckpt_bytes());
    }

    #[test]
    fn exhausted_retries_fall_back_to_simulation() {
        let scratch = ScratchCache::new("retry-miss");
        let bench = small_bench();
        // More faults than load retries (3) plus store retries (3): both
        // the read and the write-back fail, yet the job still completes.
        let flaky = CacheDir::with_injected_faults(&scratch.0, 6);
        let runner = Runner::with_options(1, Some(flaky), 0);
        let report = runner.submit(&bench, 0, base_config()).wait();
        let counters = runner.counters();
        assert_eq!(counters.disk_hits, 0);
        assert_eq!(counters.sims_run, 1, "persistent failure degrades to a run");
        assert!(report.stats.committed > 0);
    }

    #[test]
    fn config_sweep_warms_each_kernel_exactly_once() {
        let runner = Runner::with_options(2, None, 500);
        let bench = small_bench();
        // Three machine variants that share warm state (hierarchy and
        // predictor identical; only the optimization mode differs).
        let configs = [
            crate::base_config(),
            crate::gating_config(),
            crate::packing_config(),
        ];
        assert_eq!(
            configs[0].warm_fingerprint(),
            configs[1].warm_fingerprint(),
            "sweep members share warm state"
        );
        let reports = runner.collect(0, configs.iter().map(|c| (&bench, c.clone())));
        assert_eq!(reports.len(), 3);
        let counters = runner.counters();
        assert_eq!(counters.sims_run, 3, "three distinct fingerprints");
        assert_eq!(counters.warmups_run, 1, "one shared fast-forward");
        assert_eq!(counters.warm_hits, 2, "the other two reuse it");
        // run_with_warm_state verified architected output internally;
        // the warmed runs also agree with each other.
        assert_eq!(reports[0].out_quads, reports[1].out_quads);
    }

    #[test]
    fn warm_checkpoints_persist_across_runners() {
        let scratch = ScratchCache::new("warm-persist");
        let bench = small_bench();

        // Cold: the warmup runs once and spills its image to disk.
        let cold = Runner::with_options(1, Some(scratch.dir()), 500);
        let first = cold.submit(&bench, 0, base_config()).wait();
        let counters = cold.counters();
        assert_eq!(counters.warmups_run, 1, "cold run pays the warmup");
        assert_eq!(counters.warm_disk_hits, 0);
        let key = warm_disk_key(bench.name, 0, &base_config(), 500);
        assert!(
            scratch.dir().load(&key).unwrap().is_some(),
            "warm image spilled under {key}"
        );
        drop(cold);

        // A fresh runner ("server restart"): different config same warm
        // fingerprint, so the memo would miss — the disk answers instead
        // and no rewarm runs. (The result cache key differs, so the
        // simulation itself re-runs and must still verify.)
        let warm = Runner::with_options(1, Some(scratch.dir()), 500);
        let second = warm.submit(&bench, 0, crate::gating_config()).wait();
        let counters = warm.counters();
        assert_eq!(counters.warmups_run, 0, "restart reuses the spilled image");
        assert_eq!(counters.warm_disk_hits, 1);
        assert_eq!(counters.sims_run, 1);
        assert_eq!(
            first.stats.committed, second.stats.committed,
            "warm source must not change architected work"
        );
    }

    #[test]
    fn foreign_warm_checkpoint_degrades_to_a_rebuild() {
        let scratch = ScratchCache::new("warm-foreign");
        let bench = small_bench();
        // A valid image of another program stored under this kernel's
        // key, as when a kernel is edited without a `LAYOUT_REV` bump:
        // the container checks pass, the code digest does not.
        let other = benchmark("compress", 0).expect("known benchmark");
        let key = warm_disk_key(bench.name, 0, &base_config(), 500);
        let dir = scratch.dir();
        dir.store(&key, &crate::warm_checkpoint(&other, &base_config(), 500))
            .expect("stores a foreign image");

        let runner = Runner::with_options(1, Some(dir), 500);
        let report = runner.submit(&bench, 0, base_config()).wait();
        let counters = runner.counters();
        assert_eq!(counters.warm_disk_hits, 0, "a foreign image is a miss");
        assert_eq!(counters.warmups_run, 1, "the warmup re-runs");
        assert_eq!(report.out_quads, bench.expected);
    }

    #[test]
    fn corrupt_warm_checkpoint_degrades_to_a_rebuild() {
        let scratch = ScratchCache::new("warm-corrupt");
        let bench = small_bench();
        let key = warm_disk_key(bench.name, 0, &base_config(), 500);
        let dir = scratch.dir();
        dir.store(&key, b"not a checkpoint")
            .expect("stores garbage");

        // `run_with_warm_state` panics on a bad warm image, so this only
        // passes if validation rejected the blob before use.
        let runner = Runner::with_options(1, Some(dir), 500);
        let report = runner.submit(&bench, 0, base_config()).wait();
        let counters = runner.counters();
        assert_eq!(counters.warm_disk_hits, 0, "garbage never counts as a hit");
        assert_eq!(counters.warmups_run, 1, "the warmup re-runs");
        assert!(report.stats.committed > 0);

        // The rebuild overwrote the entry with a valid image.
        let bytes = scratch
            .dir()
            .load(&key)
            .expect("readable")
            .expect("present");
        assert!(nwo_ckpt::CheckpointReader::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn try_result_is_none_until_done_then_some() {
        let runner = Runner::with_jobs(1);
        let bench = small_bench();
        let handle = runner.submit(&bench, 0, base_config());
        // May or may not be finished yet; after wait() it must be Some.
        let report = handle.wait();
        let polled = handle
            .try_result()
            .expect("finished job polls as Some")
            .expect("successful job");
        assert!(Arc::ptr_eq(&report, &polled));
        assert!(!handle.disk_hit, "no disk cache configured");
    }

    #[test]
    fn with_jobs_clamps_to_one_worker() {
        assert_eq!(Runner::with_jobs(0).jobs(), 1);
    }
}
