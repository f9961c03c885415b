//! The `serve-mix` workload: a closed loop of design-space queries
//! against an in-process `nwo-serve` daemon. Two client connections
//! each send one-kernel requests and wait for every answer before the
//! next; a third of the requests are answered from a simulation the
//! other client asked for, so the runner's memo is shared across
//! callers. This is the only workload with request latency.
//!
//! Each round starts a fresh server on a fresh `Runner::with_jobs(2)`,
//! so every round does the same work from a cold memo.

use crate::json::{self, JsonValue};
use crate::kernels::shuffle;
use crate::{build_kernels, host, perf_scale, Kernel, Round, RunOptions, Workload, JOBS};
use nwo_bench::runner::Runner;
use nwo_serve::{Client, ServeOptions, Server};
use nwo_sim::obs::span;
use nwo_workloads::{Rng, BENCHMARK_NAMES};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Machine configurations a request may ask for, as serve-protocol
/// flag sets: the baseline, each of the paper's two optimizations, and
/// the 8-issue machine. They cost about the same to simulate (within a
/// few percent on these kernels; perfect prediction and the 8-wide
/// decoder do not), so the seed changes which design points a round
/// asks for but not how much work it is.
const CONFIGS: [&[&str]; 5] = [&[], &["gating"], &["packing"], &["replay"], &["eight"]];

/// Kernels a `--quick` round asks for (6 requests).
const QUICK_KERNELS: [&str; 2] = ["ijpeg", "g721-enc"];

/// One design-space query.
#[derive(Debug, Clone)]
struct Request {
    /// Index into the workload's kernels.
    kernel: usize,
    flags: &'static [&'static str],
}

/// The set-up `serve-mix` workload: the kernels and each client's
/// request list, drawn from the seed.
pub struct ServeMix {
    kernels: Vec<Kernel>,
    clients: [Vec<Request>; JOBS],
}

impl ServeMix {
    /// Builds the kernels and draws the requests. Every kernel is asked
    /// for three times: once by each client with one configuration, so
    /// the two share a simulation, and once more with another. The seed
    /// pairs kernels with configurations and orders each client's
    /// unshared requests; it never changes how many simulations a round
    /// runs, how often each configuration is asked for, or which client
    /// asks for each kernel's unshared request.
    ///
    /// Each client sends its unshared requests first, then walks the
    /// shared ones from its own end of one list, largest kernels at the
    /// ends: whichever client is ahead simulates more of them, the two
    /// meet on a small kernel, and the rest are memo hits. So the wall
    /// time of a round does not depend on the seed's order; with both
    /// lists shuffled it varied by a tenth from seed to seed.
    pub fn setup(opts: &RunOptions) -> ServeMix {
        let names: &[&str] = if opts.quick {
            &QUICK_KERNELS
        } else {
            &BENCHMARK_NAMES
        };
        let kernels = build_kernels(names, perf_scale);
        let mut rng = Rng::new(opts.seed);
        let mut order: Vec<usize> = (0..kernels.len()).collect();
        shuffle(&mut order, &mut rng);
        let n = CONFIGS.len();
        let first = rng.below(n as u64) as usize;
        let step = 1 + rng.below(n as u64 - 1) as usize;
        let request = |kernel: usize, c: usize| Request {
            kernel,
            flags: CONFIGS[c % n],
        };
        let mut clients: [Vec<Request>; JOBS] = Default::default();
        for (i, &kernel) in order.iter().enumerate() {
            clients[kernel % JOBS].push(request(kernel, first + i + step));
        }
        let mut by_size: Vec<(usize, usize)> = order.iter().copied().enumerate().collect();
        by_size.sort_by_key(|&(_, k)| std::cmp::Reverse(kernels[k].insts));
        let (front, back): (Vec<_>, Vec<_>) = by_size
            .iter()
            .enumerate()
            .partition(|(rank, _)| rank % 2 == 0);
        let shared: Vec<Request> = front
            .iter()
            .chain(back.iter().rev())
            .map(|&(_, &(i, kernel))| request(kernel, first + i))
            .collect();
        let [ahead, behind] = &mut clients;
        ahead.extend(shared.iter().cloned());
        behind.extend(shared.iter().rev().cloned());
        ServeMix { kernels, clients }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<f64>,
    tables: Vec<String>,
    covered_s: f64,
    failed: u64,
    committed: u64,
    cycles: u64,
    end: Option<Instant>,
}

/// Sends `requests` one after another on one connection to `addr`,
/// checking every answer: each row must read `ok` and commit exactly
/// the kernel's dynamic instruction count.
fn drive(addr: &str, requests: &[Request], kernels: &[Kernel], start: &Barrier) -> ClientLog {
    let mut log = ClientLog::default();
    let client = Client::connect(addr);
    start.wait();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            eprintln!("nwo-perf: {e}");
            log.failed = requests.len() as u64;
            return log;
        }
    };
    for request in requests {
        let kernel = &kernels[request.kernel];
        let t = Instant::now();
        let answer = {
            let _span = span::span("serve");
            client.sweep(
                &[kernel.bench.name.to_string()],
                Some(kernel.scale),
                request.flags,
                0,
                None,
            )
        };
        let latency = t.elapsed().as_secs_f64();
        log.covered_s += latency;
        log.latencies.push(latency);
        let checked = answer.map_err(|e| e.to_string()).and_then(|outcome| {
            let row = outcome.table.lines().last().unwrap_or("").to_string();
            let fields: Vec<&str> = row.split_whitespace().collect();
            let insts = fields.get(2).and_then(|s| s.parse::<u64>().ok());
            let cycles = fields.get(3).and_then(|s| s.parse::<u64>().ok());
            if fields.last() != Some(&"ok") || insts != Some(kernel.insts) {
                return Err(format!("unexpected row `{row}`"));
            }
            // The `done` frame says whether this request simulated.
            let fresh = outcome
                .side_frames
                .last()
                .and_then(|f| json::parse(f).ok())
                .and_then(|v| v.get("sims_run").and_then(JsonValue::as_u64))
                .unwrap_or(0);
            if fresh > 0 {
                log.committed += kernel.insts;
                log.cycles += cycles.unwrap_or(0);
            }
            Ok(outcome.table)
        });
        match checked {
            Ok(table) => log.tables.push(table),
            Err(e) => {
                eprintln!("nwo-perf: {}: {e}", kernel.bench.name);
                log.failed += 1;
            }
        }
    }
    log.end = Some(Instant::now());
    log
}

impl Workload for ServeMix {
    fn round(&mut self, _traced: bool) -> Round {
        let runner = Arc::new(Runner::with_jobs(JOBS));
        let server = match Server::bind(&ServeOptions::ephemeral(), Arc::clone(&runner)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("nwo-perf: cannot start the server: {e}");
                let attempted = self.clients.iter().map(Vec::len).sum::<usize>() as u64;
                return Round {
                    attempted,
                    failed: attempted,
                    ..Round::default()
                };
            }
        };
        let addr = server
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let stop = AtomicBool::new(false);
        let start = Barrier::new(JOBS + 1);
        let cpu0 = host::process_cpu_s();
        let (begin, logs) = std::thread::scope(|s| {
            let daemon = s.spawn(|| server.run_until(&stop));
            let handles: Vec<_> = self
                .clients
                .iter()
                .map(|requests| {
                    let (addr, kernels, start) = (&addr, &self.kernels, &start);
                    s.spawn(move || drive(addr, requests, kernels, start))
                })
                .collect();
            start.wait();
            let begin = Instant::now();
            let logs: Vec<ClientLog> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            stop.store(true, Ordering::SeqCst);
            let drained = daemon.join().expect("server thread panicked");
            if drained.leaked > 0 {
                eprintln!("nwo-perf: {} jobs leaked at drain", drained.leaked);
            }
            (begin, logs)
        });
        let end = logs.iter().filter_map(|l| l.end).max().unwrap_or(begin);
        let mut round = Round {
            wall_s: end.duration_since(begin).as_secs_f64(),
            cpu_s: host::process_cpu_s() - cpu0,
            drivers: JOBS,
            runner: runner.counters(),
            ..Round::default()
        };
        let mut tables = String::new();
        for (log, requests) in logs.iter().zip(&self.clients) {
            round.attempted += requests.len() as u64;
            round.failed += log.failed;
            round.committed += log.committed;
            round.cycles += log.cycles;
            round.covered_s += log.covered_s;
            round.latencies.extend(&log.latencies);
            for table in &log.tables {
                tables.push_str(table);
            }
        }
        round.digest = crate::digest(tables.as_bytes());
        round
    }
}
