//! `nwo serve` and `nwo client` — the daemon and its command-line
//! client. See `docs/serving.md` for the wire format and examples.

use crate::commands::{num, positive};
use nwo_bench::env::{parse_seed, Env};
use nwo_serve::{Client, ServeOptions, Server};
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
/// The sweep action prints the result table on stdout — byte-identical
/// to `nwo bench` with the same arguments — and routes every
/// run-specific frame (accepted/progress/done) to stderr.
///
/// `sweep --retries N` switches to the self-healing path:
/// reconnect-and-retry with jittered backoff under an idempotency key,
/// so a retry after a dropped result frame replays the stored table
/// instead of re-running the simulations. `sweep --chaos-seed S`
/// additionally interposes an in-process [`ChaosProxy`] with the
/// `aggressive` fault plan between this client and the daemon — the
/// table must still come back byte-identical — and prints the
/// `serve.chaos.*` fault counters plus retry stats on stderr.
/// `NWO_CHAOS_SEED` seeds the same hook without a flag.
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
            let mut linger_ms: u64 = 0;
            let mut retries: Option<u32> = None;
            let mut chaos_seed = Env::load().map_err(|e| e.to_string())?.chaos_seed;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scale" => scale = Some(num(it.next(), "--scale")?),
                    "--gating" => flags.push("gating"),
                    "--packing" => flags.push("packing"),
                    "--replay" => flags.push("replay"),
                    "--perfect" => flags.push("perfect"),
                    "--wide" => flags.push("wide"),
                    "--eight" => flags.push("eight"),
                    // Testing aid: hold the admission slot after the
                    // sweep finishes (exercises busy/cancel/watchdog).
                    "--linger-ms" => linger_ms = num(it.next(), "--linger-ms")?,
                    "--retries" => {
                        retries = Some(
                            it.next()
                                .ok_or("--retries needs a number")?
                                .parse::<u32>()
                                .ok()
                                .filter(|&n| n > 0)
                                .ok_or("--retries needs a positive number")?,
                        )
                    }
                    "--chaos-seed" => {
                        let seed = it.next().and_then(|text| parse_seed(text));
                        chaos_seed = Some(seed.ok_or("--chaos-seed needs a number")?)
                    }
                    _ if !a.starts_with('-') => benches.push(a.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            if retries.is_some() || chaos_seed.is_some() {
                return healing_client_sweep(
                    addr, &benches, scale, &flags, linger_ms, retries, chaos_seed,
                );
            }
            let outcome = connect(addr)?
                .sweep(&benches, scale, &flags, linger_ms, None)
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

/// The self-healing (and optionally chaos-interposed) sweep path behind
/// `nwo client … sweep --retries/--chaos-seed`.
#[allow(clippy::too_many_arguments)]
fn healing_client_sweep(
    addr: &str,
    benches: &[String],
    scale: Option<u32>,
    flags: &[&str],
    linger_ms: u64,
    retries: Option<u32>,
    chaos_seed: Option<u64>,
) -> Result<(), String> {
    use nwo_serve::{healing_sweep, ChaosProxy, NetPlan, RetryPolicy};

    let seed = chaos_seed.unwrap_or(0xC4A0_5EED);
    let mut policy = RetryPolicy::default();
    if let Some(n) = retries {
        policy.attempts = n;
    }
    // With a chaos seed, every byte between this client and the daemon
    // crosses the seeded fault proxy; the table must come back
    // byte-identical regardless.
    let proxy = match chaos_seed {
        Some(_) => Some(
            ChaosProxy::start(addr, NetPlan::aggressive(), seed)
                .map_err(|e| format!("chaos proxy: {e}"))?,
        ),
        None => None,
    };
    let target = proxy
        .as_ref()
        .map(|p| p.addr())
        .unwrap_or_else(|| addr.to_string());
    if proxy.is_some() {
        eprintln!("{}", nwo_serve::chaos::repro_banner(seed));
    }
    let (outcome, stats) = healing_sweep(&target, benches, scale, flags, linger_ms, seed, &policy)
        .map_err(|e| format!("{e} [{}]", nwo_serve::chaos::repro_banner(seed)))?;
    for frame in &outcome.side_frames {
        eprintln!("{frame}");
    }
    eprintln!(
        "retry: attempts {} replayed {}",
        stats.attempts, stats.replayed
    );
    if let Some(proxy) = &proxy {
        eprintln!("chaos: {}", proxy.stats().snapshot().to_json_line());
    }
    print!("{}", outcome.table);
    Ok(())
}
