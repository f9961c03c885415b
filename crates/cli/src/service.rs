//! `nwo serve` and `nwo client` — the daemon and its command-line
//! client. See `docs/serving.md` for the wire format and examples.

use crate::commands::{num, positive};
use nwo_bench::env::Env;
use nwo_serve::{Client, ServeOptions, Server};
use nwo_sim::machine_flag;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `nwo serve` exit code when the drain left jobs running.
pub const SERVE_LEAKED: u8 = 5;

/// The SIGTERM/SIGINT flag the accept loop polls. Static because the
/// C signal handler has no closure state.
static STOP: AtomicBool = AtomicBool::new(false);

/// Installs a minimal SIGTERM/SIGINT handler that sets [`STOP`] —
/// raw `signal(2)` via the C runtime already linked into every Rust
/// binary, because the workspace takes no external crates. Setting an
/// `AtomicBool` is within the async-signal-safety rules.
#[cfg(unix)]
fn install_stop_handler() {
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_stop_handler() {}

/// `nwo serve [--addr A] [--queue-depth N] [--jobs N] [--addr-file P]`
///
/// Binds the daemon, prints the bound address, and serves until a
/// `shutdown` frame or SIGTERM/SIGINT, then drains. Returns the
/// process exit code: 0 after a clean drain, [`SERVE_LEAKED`] when
/// jobs were abandoned mid-flight.
///
/// # Errors
///
/// Flag/env validation failures (typed `ConfigError` text) and socket
/// errors.
pub fn serve(args: &[String]) -> Result<u8, String> {
    let mut env = Env::load().map_err(|e| e.to_string())?;
    let mut options = ServeOptions::from_env(&env);
    let mut addr_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => options.addr = it.next().ok_or("--addr needs host:port")?.clone(),
            "--queue-depth" => {
                let value = it.next().ok_or("--queue-depth needs a positive number")?;
                options.queue_depth = positive("serve queue depth", value)?;
            }
            "--jobs" => {
                env.jobs = positive(
                    "--jobs worker count",
                    it.next().ok_or("--jobs needs a number")?,
                )?
            }
            "--addr-file" => addr_file = Some(it.next().ok_or("--addr-file needs a path")?.clone()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let runner = Arc::new(env.runner());
    let server = Server::bind(&options, runner).map_err(|e| format!("{}: {e}", options.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = &addr_file {
        std::fs::write(path, addr.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    eprintln!(
        "nwo serve: listening on {addr} ({} workers, queue depth {})",
        env.jobs, options.queue_depth
    );
    install_stop_handler();
    let report = server.run_until(&STOP);
    if report.leaked > 0 {
        eprintln!(
            "nwo serve: drain abandoned {} running job(s)",
            report.leaked
        );
        // Worker threads may be parked mid-simulation; skip their
        // destructors and report the leak through the exit code.
        std::process::exit(i32::from(SERVE_LEAKED));
    }
    eprintln!("nwo serve: drained cleanly");
    Ok(0)
}

/// `nwo client <addr> <sweep|status|cancel|shutdown> [args]`
///
/// The sweep action prints the result table on stdout and routes every
/// run-specific frame (accepted/progress/done) to stderr. Its machine
/// flags (`--gating` … `--eight`) are `nwo sim`'s; without them the
/// table is byte-identical to `nwo bench` for the same kernels and
/// `--scale`, which runs the baseline machine only.
///
/// # Errors
///
/// Connection failures, server `error` frames, and bad arguments.
pub fn client(args: &[String]) -> Result<(), String> {
    let (addr, rest) = args
        .split_first()
        .ok_or("client needs <addr> <sweep|status|cancel|shutdown>")?;
    let (action, rest) = rest
        .split_first()
        .ok_or("client needs an action: sweep, status, cancel or shutdown")?;
    let connect =
        |addr: &str| Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"));
    match action.as_str() {
        "sweep" => {
            let mut benches: Vec<String> = Vec::new();
            let mut scale: Option<u32> = None;
            let mut flags: Vec<&str> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if let Some(flag) = a.strip_prefix("--").filter(|f| machine_flag(f).is_some()) {
                    flags.push(flag);
                    continue;
                }
                match a.as_str() {
                    "--scale" => scale = Some(num(it.next(), "--scale")?),
                    _ if !a.starts_with('-') => benches.push(a.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            let outcome = connect(addr)?
                .sweep(&benches, scale, &flags, 0, None)
                .map_err(|e| e.to_string())?;
            for frame in &outcome.side_frames {
                eprintln!("{frame}");
            }
            print!("{}", outcome.table);
            Ok(())
        }
        "status" => {
            println!("{}", connect(addr)?.status().map_err(|e| e.to_string())?);
            Ok(())
        }
        "cancel" => {
            let [job] = rest else {
                return Err("cancel needs a job id (from the accepted frame)".to_string());
            };
            let job: u64 = job.parse().map_err(|_| "cancel needs a numeric job id")?;
            println!("{}", connect(addr)?.cancel(job).map_err(|e| e.to_string())?);
            Ok(())
        }
        "shutdown" => {
            println!("{}", connect(addr)?.shutdown().map_err(|e| e.to_string())?);
            Ok(())
        }
        other => Err(format!(
            "unknown client action `{other}`; known: sweep, status, cancel, shutdown"
        )),
    }
}
