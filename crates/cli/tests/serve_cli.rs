//! End-to-end `nwo serve` / `nwo client` tests through the real
//! binary: a daemon on an ephemeral port must answer sweeps
//! byte-identically to the `nwo bench` CLI path, serve repeats from
//! cache, survive concurrent clients, shut down cleanly on request,
//! and reject invalid concurrency up front.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

const SWEEP: [&str; 2] = ["mpeg2-enc", "compress"];

/// Runs the `nwo` binary with a scrubbed environment (no ambient
/// NWO_* variables leaking into determinism comparisons).
fn nwo(args: &[&str]) -> Output {
    command(args).output().expect("nwo-cli spawns")
}

fn command(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nwo-cli"));
    cmd.args(args);
    for var in [
        "NWO_JOBS",
        "NWO_SCALE",
        "NWO_CACHE_DIR",
        "NWO_WARMUP",
        "NWO_WATCHDOG_SECS",
        "NWO_SERVE_ADDR",
        "NWO_SERVE_QUEUE",
        "NWO_PROGRESS",
        "NWO_CHAOS_SEED",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "command failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

/// An `nwo serve` daemon child on an ephemeral port, killed on drop if
/// the test did not shut it down itself.
struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn spawn(extra: &[(&str, &str)]) -> Daemon {
        let dir = std::env::temp_dir().join(format!(
            "nwo-serve-cli-{}-{}",
            std::process::id(),
            extra.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let addr_file = dir.join("addr");
        let mut cmd = command(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().expect("utf-8 path"),
        ]);
        for (k, v) in extra {
            cmd.env(k, v);
        }
        let child = cmd.spawn().expect("daemon spawns");
        let addr = wait_for_addr(&addr_file);
        Daemon { child, addr, dir }
    }

    /// `nwo client <addr> <args...>` against this daemon.
    fn client(&self, args: &[&str]) -> Output {
        let mut full = vec!["client", self.addr.as_str()];
        full.extend_from_slice(args);
        nwo(&full)
    }

    /// Asks the daemon to shut down and returns its exit code.
    fn shutdown(mut self) -> i32 {
        let ack = stdout_of(&self.client(&["shutdown"]));
        assert!(ack.contains("\"ok\""), "shutdown acknowledged: {ack}");
        let status = self.child.wait().expect("daemon exits");
        let _ = std::fs::remove_dir_all(&self.dir);
        status.code().expect("daemon exit code")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn wait_for_addr(path: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(path) {
            if addr.contains(':') {
                return addr;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn served_sweeps_match_the_bench_cli_byte_for_byte() {
    let bench_args: Vec<&str> = ["bench"]
        .into_iter()
        .chain(SWEEP)
        .chain(["--scale", "0"])
        .collect();
    let bench_stdout = stdout_of(&nwo(&bench_args));
    assert!(bench_stdout.contains("mpeg2-enc"), "{bench_stdout}");

    let daemon = Daemon::spawn(&[]);

    // Two concurrent clients issue the same sweep; both tables must be
    // byte-identical to each other and to the `nwo bench` stdout.
    let sweep_args: Vec<String> = ["sweep"]
        .into_iter()
        .chain(SWEEP)
        .chain(["--scale", "0"])
        .map(str::to_string)
        .collect();
    let outputs: Vec<Output> = {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = daemon.addr.clone();
                let args = sweep_args.clone();
                std::thread::spawn(move || {
                    let mut full = vec!["client".to_string(), addr];
                    full.extend(args);
                    let full: Vec<&str> = full.iter().map(String::as_str).collect();
                    nwo(&full)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    };
    for output in &outputs {
        assert_eq!(
            stdout_of(output),
            bench_stdout,
            "served table == bench table"
        );
        // Run-specific frames ride on stderr, never stdout.
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("\"t\": \"accepted\""), "{stderr}");
        assert!(stderr.contains("\"t\": \"done\""), "{stderr}");
    }

    // A repeat request is answered entirely from the daemon's caches.
    let repeat = daemon.client(&["sweep", SWEEP[0], SWEEP[1], "--scale", "0"]);
    assert_eq!(stdout_of(&repeat), bench_stdout);
    let stderr = String::from_utf8_lossy(&repeat.stderr);
    assert!(
        stderr.contains("\"memo_hits\": 2") && stderr.contains("\"sims_run\": 0"),
        "second request must be all cache hits: {stderr}"
    );

    // The status frame exposes the cache tiers as serve.* metrics.
    let status = stdout_of(&daemon.client(&["status"]));
    assert!(status.contains("\"serve.cache.memo_hits\":"), "{status}");
    assert!(status.contains("\"serve.completed\":"), "{status}");

    assert_eq!(daemon.shutdown(), 0, "clean drain exits 0");
}

#[test]
fn daemon_restart_reuses_the_disk_cache() {
    let cache = std::env::temp_dir().join(format!("nwo-serve-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cache_env = [("NWO_CACHE_DIR", cache.to_str().expect("utf-8 path"))];

    let cold = Daemon::spawn(&cache_env);
    let first = cold.client(&["sweep", SWEEP[0], "--scale", "0"]);
    let table = stdout_of(&first);
    assert!(
        String::from_utf8_lossy(&first.stderr).contains("\"sims_run\": 1"),
        "cold daemon simulates"
    );
    assert_eq!(cold.shutdown(), 0);

    // A fresh daemon process (empty memo) answers from the disk cache.
    let warm = Daemon::spawn(&cache_env);
    let revived = warm.client(&["sweep", SWEEP[0], "--scale", "0"]);
    assert_eq!(stdout_of(&revived), table, "disk tier is byte-identical");
    let stderr = String::from_utf8_lossy(&revived.stderr);
    assert!(
        stderr.contains("\"disk_hits\": 1") && stderr.contains("\"sims_run\": 0"),
        "restart must hit the disk cache: {stderr}"
    );
    assert_eq!(warm.shutdown(), 0);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn invalid_concurrency_is_rejected_up_front() {
    // --jobs 0 on the bench path.
    let output = nwo(&["bench", SWEEP[0], "--scale", "0", "--jobs", "0"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("must be positive"), "{stderr}");

    // --queue-depth 0 on the serve path: rejected before binding.
    let output = nwo(&["serve", "--addr", "127.0.0.1:0", "--queue-depth", "0"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("must be positive"), "{stderr}");

    // NWO_JOBS=0 aborts the daemon before it serves anything.
    let output = command(&["serve", "--addr", "127.0.0.1:0"])
        .env("NWO_JOBS", "0")
        .output()
        .expect("nwo-cli spawns");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("must be positive"), "{stderr}");

    // NWO_SERVE_QUEUE=0 gets the same typed rejection.
    let output = command(&["serve", "--addr", "127.0.0.1:0"])
        .env("NWO_SERVE_QUEUE", "0")
        .output()
        .expect("nwo-cli spawns");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("must be positive"), "{stderr}");

    // NWO_JOBS=0 via the environment is no quieter than --jobs 0,
    // on the bench and experiments paths alike.
    for args in [
        ["bench", SWEEP[0], "--scale", "0"].as_slice(),
        ["experiments", "table4"].as_slice(),
    ] {
        let output = command(args)
            .env("NWO_JOBS", "0")
            .output()
            .expect("nwo-cli spawns");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("must be positive"), "{args:?}: {stderr}");
    }
}
