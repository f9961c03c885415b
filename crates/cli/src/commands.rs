//! Subcommand implementations.

use nwo_bench::env::Env;
use nwo_isa::{assemble, Emulator, Program};
use nwo_sim::{SimConfig, Simulator};
use nwo_workloads::{benchmark, experiment_scale, BENCHMARK_NAMES};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
nwo — narrow-width-operand toolchain (Brooks & Martonosi, HPCA 1999)

usage:
  nwo asm  <file.s> [-o out.nwo]      assemble to an NWO1 image
  nwo dis  <file.s|file.nwo>          disassemble
  nwo run  <file.s|file.nwo>          functional emulation
  nwo sim  <file.s|file.nwo> [flags]  cycle-level out-of-order simulation
       --bench <name>      simulate a built-in benchmark kernel instead of a file
       --scale <N>         workload scale for --bench (default: experiment scale)
       --gating     operand-based clock gating (Section 4)
       --packing    operation packing (Section 5.2)
       --replay     replay packing (Section 5.3)
       --perfect    perfect branch prediction
       --wide       8-wide fetch/decode
       --eight      8-issue / 8-ALU machine
       --max <N>    stop after N committed instructions
       --trace <N>  print a pipeline trace of the first N commits
       --json <path>       write every machine counter as a JSON snapshot
       --trace-out <path>  stream pipeline events as JSON lines (O(1) memory)
       --pipeview <N>      draw a text pipeline diagram of the first N commits
       --warmup <N>        fast-forward N instructions before timing (Sec 3.2)
       --ckpt-out <path>   save warmed state as a checkpoint and exit
       --ckpt-in <path>    restore warmed state from a checkpoint (skips warmup)
       --interval-stats <N>  write an interval line every N cycles (default
                             10000 when only --interval-out is given): the
                             metrics snapshot plus interval.* deltas (IPC,
                             stalls, power, width deciles), and a tail line
                             at the run's last cycle
       --interval-out <path> interval JSONL path (default: nwo-intervals.jsonl)
       --stall-detail      attribute lost commit slots per PC, print top offenders
       --verify            lockstep architectural oracle: check every commit
                           against an independent functional emulator
       --profile           print a hierarchical span-profile tree after the run
       --profile-out <path>  write the span profile as Chrome Trace Event JSON
                             (load in chrome://tracing or Perfetto)
  nwo ckpt info <file>                inspect a checkpoint (sections, CRCs, salt)
       exit code: 0 fine, 3 corrupt, 4 stale build salt (restore would reject)
  nwo cache scrub [--dir <path>] [--keep-tmp] [--no-quarantine]
       crash-consistency audit of the disk result cache (--dir falls back
       to NWO_CACHE_DIR): validate every blob's framing and section CRCs,
       quarantine corrupt blobs as *.quarantined, reap orphaned temp files
       exit code: 0 clean, 3 corruption found, 4 stale-salt blobs only
  nwo dbg  <file.s|file.nwo>          interactive debugger (step/break/dump)
  nwo bench [name ...] [--scale N] [--jobs N] [--profile] [--profile-out <p>]
       run benchmark kernels (verified) on the worker pool
  nwo experiments [name ...] [--jobs N] [--profile] [--profile-out <p>]
                  [--progress]
       regenerate the paper's tables/figures in parallel, with memoized
       simulations, per-experiment timing lines and a BENCH_harness.json
       summary (--jobs N == NWO_JOBS=N; see docs/benchmarking.md)
       exit code: 0 every experiment ran, 3 one was quarantined
       --progress streams live JSONL ticks to stderr (done/total, cache
       hits, quarantines, ETA); equivalent to NWO_PROGRESS=1
  nwo fault-campaign [--bench <name>] [--scale N] [--seed S]
                     [--datapath N] [--predictor N] [--ckpt N]
       seeded deterministic fault injection: verify the oracle detects every
       architectural fault and the machine degrades gracefully otherwise
       (see docs/verification.md)
  nwo serve [--addr host:port] [--queue-depth N] [--jobs N]
            [--addr-file <path>]
       simulation-as-a-service daemon on the cached worker pool: framed
       TCP protocol, bounded admission, NWO_WATCHDOG_SECS watchdog,
       NWO_CACHE_DIR/NWO_WARMUP cache tiers, graceful drain on SIGTERM
       or a shutdown frame (exit 0 clean, 5 if jobs leaked); env
       fallbacks NWO_SERVE_ADDR / NWO_SERVE_QUEUE (see docs/serving.md)
  nwo client <addr> sweep [name ...] [--scale N] [--gating] [--packing]
                          [--replay] [--perfect] [--wide] [--eight]
       run a sweep through a daemon: the table goes to stdout, side
       frames to stderr. The machine flags are `nwo sim`'s. Without
       them, stdout is byte-identical to `nwo bench` for the same
       kernels and --scale (the baseline machine)
  nwo client <addr> status|cancel <job>|shutdown
       inspect serve.* metrics, abandon a job, or drain the daemon
";

/// Parses the number after `flag`, or says that `flag` needs one.
pub(crate) fn num<T: std::str::FromStr>(next: Option<&String>, flag: &str) -> Result<T, String> {
    next.and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// Loads a program from assembly source (`.s`) or an NWO1 image.
fn load_program(path: &str) -> Result<Program, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"NWO1") {
        return Program::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"));
    }
    let source = String::from_utf8(bytes)
        .map_err(|_| format!("{path}: not UTF-8 assembly and not an NWO1 image"))?;
    assemble(&source).map_err(|e| format!("{path}: {e}"))
}

/// `nwo asm <file.s> [-o out.nwo]`
pub fn asm(args: &[String]) -> Result<(), String> {
    let mut input = None;
    let mut output = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => output = Some(it.next().ok_or("-o needs a path")?.clone()),
            _ if input.is_none() => input = Some(a.clone()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let input = input.ok_or("asm needs an input file")?;
    let program = load_program(&input)?;
    let out_path = output.unwrap_or_else(|| {
        Path::new(&input)
            .with_extension("nwo")
            .to_string_lossy()
            .into_owned()
    });
    std::fs::write(&out_path, program.to_bytes()).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "{out_path}: {} instructions, {} data bytes, entry {:#x}",
        program.len(),
        program.data.len(),
        program.entry
    );
    Ok(())
}

/// `nwo dis <file>`
pub fn dis(args: &[String]) -> Result<(), String> {
    let [input] = args else {
        return Err("dis needs exactly one input file".to_string());
    };
    let program = load_program(input)?;
    print!("{}", program.disassemble());
    Ok(())
}

/// `nwo run <file>`
pub fn run(args: &[String]) -> Result<(), String> {
    let [input] = args else {
        return Err("run needs exactly one input file".to_string());
    };
    let program = load_program(input)?;
    let mut emu = Emulator::new(&program);
    emu.run(10_000_000_000).map_err(|e| e.to_string())?;
    if !emu.output().is_empty() {
        println!("outb: {}", String::from_utf8_lossy(emu.output()));
    }
    for (i, q) in emu.outq().iter().enumerate() {
        println!("outq[{i}]: {q} ({q:#x})");
    }
    println!("{} instructions executed", emu.icount());
    Ok(())
}

/// `nwo sim <file> [flags]`
pub fn sim(args: &[String]) -> Result<(), String> {
    use nwo_sim::obs::{JsonlSink, RingSink, TeeSink, TraceSink};

    let mut input = None;
    let mut bench_name: Option<String> = None;
    let mut bench_scale: Option<u32> = None;
    let mut config = SimConfig::default();
    let mut max = u64::MAX;
    let mut json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut trace: usize = 0;
    let mut pipeview: usize = 0;
    let mut warmup: u64 = 0;
    let mut ckpt_out: Option<String> = None;
    let mut ckpt_in: Option<String> = None;
    let mut interval: Option<u64> = None;
    let mut interval_out: Option<String> = None;
    let mut stall_detail = false;
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(apply) = a.strip_prefix("--").and_then(nwo_sim::machine_flag) {
            config = apply(config);
            continue;
        }
        match a.as_str() {
            "--bench" => bench_name = Some(it.next().ok_or("--bench needs a name")?.clone()),
            "--scale" => bench_scale = Some(num(it.next(), "--scale")?),
            "--warmup" => warmup = num(it.next(), "--warmup")?,
            "--ckpt-out" => ckpt_out = Some(it.next().ok_or("--ckpt-out needs a path")?.clone()),
            "--ckpt-in" => ckpt_in = Some(it.next().ok_or("--ckpt-in needs a path")?.clone()),
            "--interval-stats" => interval = Some(num(it.next(), "--interval-stats")?),
            "--interval-out" => {
                interval_out = Some(it.next().ok_or("--interval-out needs a path")?.clone())
            }
            "--stall-detail" => stall_detail = true,
            "--profile" => profile = true,
            "--profile-out" => {
                profile_out = Some(it.next().ok_or("--profile-out needs a path")?.clone())
            }
            "--verify" => config = config.with_verify(),
            "--max" => max = num(it.next(), "--max")?,
            "--trace" => trace = num(it.next(), "--trace")?,
            "--json" => json_out = Some(it.next().ok_or("--json needs a path")?.clone()),
            "--trace-out" => trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone()),
            "--pipeview" => pipeview = num(it.next(), "--pipeview")?,
            _ if input.is_none() && !a.starts_with('-') => input = Some(a.clone()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if ckpt_in.is_some() && (warmup > 0 || ckpt_out.is_some()) {
        return Err("--ckpt-in replaces warmup; it excludes --warmup and --ckpt-out".into());
    }
    // Validate everything cheap before any program is built or file is
    // touched: a long simulation must never run just to fail on a bad
    // flag at the end.
    config.validate().map_err(|e| e.to_string())?;
    // Both flags retain commits in memory; past the cap only a
    // streaming sink (`--trace-out`) makes sense.
    for (flag, requested) in [("--trace", trace), ("--pipeview", pipeview)] {
        if requested > nwo_sim::MAX_TRACE_LIMIT {
            return Err(nwo_sim::ConfigError::TraceLimitTooLarge { flag, requested }.to_string());
        }
    }
    if interval == Some(0) {
        return Err(nwo_sim::ConfigError::ZeroParameter {
            what: "--interval-stats period",
        }
        .to_string());
    }
    // A sample every 10k cycles is dense enough to plot and sparse
    // enough to never dominate the run.
    let interval = interval.unwrap_or(if interval_out.is_some() { 10_000 } else { 0 });
    for (flag, path) in [
        ("--profile-out", &profile_out),
        ("--interval-out", &interval_out),
    ] {
        if let Some(p) = path {
            nwo_sim::validate_output_parent(flag, p).map_err(|e| e.to_string())?;
        }
    }
    if profile || profile_out.is_some() {
        // Capture individual events only when a trace file is requested;
        // `--profile` alone needs just the aggregate.
        nwo_sim::obs::span::enable(profile_out.is_some());
    }
    let root_span = nwo_sim::obs::span::span("sim");
    let program = {
        let _prof = nwo_sim::obs::span::span("decode");
        match (&bench_name, &input) {
            (Some(_), Some(_)) => return Err("--bench and an input file are exclusive".into()),
            (Some(name), None) => {
                let scale = bench_scale.unwrap_or_else(|| experiment_scale(name));
                benchmark(name, scale)
                    .ok_or_else(|| {
                        format!("unknown benchmark `{name}`; known: {BENCHMARK_NAMES:?}")
                    })?
                    .program
            }
            (None, Some(path)) => load_program(path)?,
            (None, None) => return Err("sim needs an input file or --bench <name>".into()),
        }
    };
    let mut simulator = Simulator::new(&program, config);

    // Warm-state phase: restore a checkpoint, or fast-forward and
    // optionally persist the result (then exit without timing anything).
    if let Some(path) = &ckpt_in {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        simulator
            .restore_checkpoint(&bytes)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("restored warmed state from {path}");
    } else if warmup > 0 {
        let warmed = simulator.warmup(warmup).map_err(|e| e.to_string())?;
        eprintln!("warmed {warmed} instructions");
    }
    if let Some(path) = &ckpt_out {
        let bytes = simulator.checkpoint();
        std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote checkpoint to {path} ({} bytes)", bytes.len());
        drop(root_span);
        return finish_profile(profile, profile_out.as_deref());
    }
    if stall_detail {
        simulator.enable_stall_detail();
    }
    let interval_path = interval_out.unwrap_or_else(|| "nwo-intervals.jsonl".to_string());
    if interval > 0 {
        let file =
            std::fs::File::create(&interval_path).map_err(|e| format!("{interval_path}: {e}"))?;
        simulator.set_interval_stats(interval, Box::new(std::io::BufWriter::new(file)));
    }

    // Compose the trace sink: in-memory retention for --trace/--pipeview,
    // a streaming JSONL file for --trace-out, or both behind a tee.
    let retain = trace.max(pipeview);
    let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
    if retain > 0 {
        sinks.push(Box::new(RingSink::keep_first(retain)));
    }
    if let Some(path) = &trace_out {
        let sink = JsonlSink::create(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        sinks.push(Box::new(sink));
    }
    if sinks.len() == 1 {
        simulator.set_trace_sink(sinks.pop().expect("checked length"));
    } else if sinks.len() > 1 {
        let mut tee = TeeSink::new();
        for s in sinks {
            tee.push(s);
        }
        simulator.set_trace_sink(Box::new(tee));
    }

    let report = simulator.run(max).map_err(|e| e.to_string())?;
    let records = simulator.trace();
    let disasm = |raw: u32| {
        nwo_isa::Instr::decode(raw)
            .map(|i| i.to_string())
            .unwrap_or_else(|_| format!("{raw:08x}"))
    };
    if trace > 0 {
        println!(
            "{:<10} {:<24} {:>6} {:>6} {:>6} {:>6} {:>6}  flags",
            "pc", "instruction", "F", "D", "I", "X", "C"
        );
        for t in records.iter().take(trace) {
            println!(
                "{:<#10x} {:<24} {:>6} {:>6} {:>6} {:>6} {:>6}  {}{}",
                t.pc,
                disasm(t.raw),
                t.fetched_at,
                t.dispatched_at,
                t.issued_at,
                t.completed_at,
                t.committed_at,
                if t.packed { "P" } else { "" },
                if t.replayed { "R" } else { "" },
            );
        }
        println!();
    }
    if pipeview > 0 {
        let shown = &records[..pipeview.min(records.len())];
        let diagram = nwo_sim::obs::pipeview::render(shown, &|_, raw| disasm(raw));
        print!("{diagram}");
        println!();
    }
    if !report.out_bytes.is_empty() {
        println!("outb: {}", String::from_utf8_lossy(&report.out_bytes));
    }
    for (i, q) in report.out_quads.iter().enumerate() {
        println!("outq[{i}]: {q} ({q:#x})");
    }
    println!();
    print!("{report}");
    if stall_detail {
        if let Some(detail) = simulator.stall_detail() {
            let mut rows: Vec<_> = detail
                .iter()
                .map(|(&pc, b)| (pc, b.total(), b))
                .filter(|&(_, total, _)| total > 0)
                .collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            println!();
            println!("top stall PCs (lost commit slots):");
            println!("{:<12} {:>12}  dominant cause", "pc", "lost slots");
            for (pc, total, breakdown) in rows.iter().take(10) {
                let dominant = breakdown
                    .iter()
                    .max_by_key(|&(_, slots)| slots)
                    .map(|(cause, _)| cause.name())
                    .unwrap_or("-");
                println!("{pc:<#12x} {total:>12}  {dominant}");
            }
        }
    }
    if interval > 0 {
        eprintln!("wrote interval snapshots to {interval_path}");
    }
    if let Some(path) = &json_out {
        std::fs::write(path, simulator.snapshot().to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = &trace_out {
        eprintln!("wrote pipeline event stream to {path}");
    }
    if let Some(checked) = simulator.oracle_checked() {
        println!("oracle: {checked} commits checked in lockstep, zero divergences");
    }
    drop(root_span);
    finish_profile(profile, profile_out.as_deref())
}

/// Finalizes the span profiler: prints the human-readable tree
/// (`--profile`) and/or writes Chrome Trace Event JSON (`--profile-out`,
/// loadable in `chrome://tracing` or Perfetto). Call only after the
/// command's root span has been dropped, so its duration is recorded.
fn finish_profile(show: bool, out: Option<&str>) -> Result<(), String> {
    if !show && out.is_none() {
        return Ok(());
    }
    let report = nwo_sim::obs::span::report();
    if show {
        println!();
        println!("span profile (wall time per phase):");
        print!("{}", report.render_tree());
    }
    if let Some(path) = out {
        std::fs::write(path, report.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote span trace to {path}");
    }
    Ok(())
}

/// `nwo ckpt info <file>` exit code: the file is fine and restorable.
pub const CKPT_OK: u8 = 0;
/// `nwo ckpt info <file>` exit code: the container or a section payload
/// is corrupted (unparseable header, truncation, or a CRC mismatch).
pub const CKPT_CORRUPT: u8 = 3;
/// `nwo ckpt info <file>` exit code: the sections are intact but the
/// code-version salt belongs to a different build — restore would
/// reject it; regenerate the checkpoint.
pub const CKPT_STALE: u8 = 4;

/// `nwo ckpt info <file>` — header, salt and per-section summary of a
/// checkpoint, tolerating stale salts and corrupted payloads (they are
/// reported, not fatal) so rejected files can be diagnosed. Returns the
/// process exit code: [`CKPT_OK`], [`CKPT_CORRUPT`] or [`CKPT_STALE`],
/// so scripts can tell "re-warm" from "regenerate" without parsing text.
pub fn ckpt(args: &[String]) -> Result<u8, String> {
    let [sub, path] = args else {
        return Err("usage: nwo ckpt info <file>".to_string());
    };
    if sub != "info" {
        return Err(format!("unknown ckpt subcommand `{sub}`; try `info`"));
    }
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let info = match nwo_sim::ckpt::inspect(&bytes) {
        Ok(info) => info,
        // An unparseable container (bad magic, foreign version,
        // truncation) is corruption too — there is nothing to list.
        Err(e) => {
            eprintln!("{path}: {e}");
            return Ok(CKPT_CORRUPT);
        }
    };
    println!("{path}: checkpoint format v{}", info.version);
    println!(
        "salt: {:#018x} ({})",
        info.salt,
        if info.salt_current {
            "current build"
        } else {
            "STALE — restore will reject this file"
        }
    );
    println!("{:<12} {:>12} {:>7}  crc", "section", "bytes", "blob%");
    let mut all_ok = true;
    let blob_len = bytes.len().max(1) as f64;
    let mut payload = 0u64;
    for s in &info.sections {
        all_ok &= s.crc_ok;
        payload += s.len;
        println!(
            "{:<12} {:>12} {:>6.1}%  {}",
            s.name,
            s.len,
            s.len as f64 / blob_len * 100.0,
            if s.crc_ok { "ok" } else { "CORRUPT" }
        );
    }
    // The remainder is container framing: header, directory, CRCs.
    println!(
        "{:<12} {:>12} {:>6.1}%  (sections total; file {} bytes, rest is framing)",
        "total",
        payload,
        payload as f64 / blob_len * 100.0,
        bytes.len()
    );
    if !all_ok {
        eprintln!("{path}: one or more sections are corrupted");
        Ok(CKPT_CORRUPT)
    } else if !info.salt_current {
        Ok(CKPT_STALE)
    } else {
        Ok(CKPT_OK)
    }
}

/// `nwo cache scrub [--dir <path>] [--keep-tmp] [--no-quarantine]`
///
/// Crash-consistency audit of the disk result cache: walks the
/// directory (`--dir`, falling back to `NWO_CACHE_DIR`), validates
/// every `.ckpt` blob's container framing and per-section CRCs,
/// quarantines corrupt blobs by renaming them `*.quarantined` (so the
/// runner reads them as misses and re-simulates) and reaps orphaned
/// temp files left by killed writers. `--no-quarantine` and
/// `--keep-tmp` switch to report-only behaviour.
///
/// The exit code reuses `nwo ckpt info`'s convention: [`CKPT_OK`] for
/// a clean cache, [`CKPT_CORRUPT`] when any corruption was found, and
/// [`CKPT_STALE`] when the only findings are structurally-sound blobs
/// from a different build salt.
pub fn cache(args: &[String]) -> Result<u8, String> {
    use nwo_sim::ckpt::{BlobHealth, CacheDir, ScrubOptions};

    let usage = "usage: nwo cache scrub [--dir <path>] [--keep-tmp] [--no-quarantine]";
    let (sub, rest) = args.split_first().ok_or(usage)?;
    if sub != "scrub" {
        return Err(format!("unknown cache subcommand `{sub}`; try `scrub`"));
    }
    let mut dir: Option<String> = None;
    let mut options = ScrubOptions::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = Some(it.next().ok_or("--dir needs a path")?.clone()),
            "--keep-tmp" => options.reap_tmp = false,
            "--no-quarantine" => options.quarantine = false,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let dir = match dir {
        Some(dir) => dir.into(),
        None => Env::load()
            .map_err(|e| e.to_string())?
            .cache_dir
            .ok_or("cache scrub needs --dir <path> or NWO_CACHE_DIR")?,
    };
    let cache = CacheDir::new(&dir);
    let dir = dir.display();
    let report = cache.scrub(&options).map_err(|e| format!("{dir}: {e}"))?;
    for entry in &report.entries {
        match &entry.health {
            BlobHealth::Ok => println!("ok       {}", entry.file),
            BlobHealth::Stale(salt) => println!(
                "stale    {} (salt {salt:#018x}; this build regenerates it on miss)",
                entry.file
            ),
            BlobHealth::Corrupt(why) => println!(
                "CORRUPT  {} ({why}){}",
                entry.file,
                if entry.quarantined {
                    " — quarantined"
                } else {
                    ""
                }
            ),
        }
    }
    for tmp in &report.reaped_tmp {
        println!(
            "tmp      {tmp}{}",
            if options.reap_tmp { " — reaped" } else { "" }
        );
    }
    println!(
        "{dir}: {} ok, {} corrupt, {} stale, {} orphan tmp, {} previously quarantined",
        report.ok(),
        report.corrupt(),
        report.stale(),
        report.reaped_tmp.len(),
        report.prior_quarantined
    );
    if report.corrupt() > 0 {
        Ok(CKPT_CORRUPT)
    } else if report.stale() > 0 {
        Ok(CKPT_STALE)
    } else {
        Ok(CKPT_OK)
    }
}

/// `nwo fault-campaign [--bench <name>] [--scale N] [--seed S]
/// [--datapath N] [--predictor N] [--ckpt N]`
///
/// Seeded, deterministic fault-injection campaign over one benchmark:
///
/// * **datapath** trials flip one gated upper bit of a committed result
///   — architectural corruption the lockstep oracle must detect;
/// * **predictor** trials flip one bit of branch-direction state —
///   micro-architectural corruption the machine must absorb (the run
///   stays correct, only timing may change);
/// * **ckpt** trials flip one bit of a checkpoint blob — the container's
///   CRC/salt/framing validation must reject the restore.
///
/// Exits nonzero unless every architectural fault is detected and every
/// predictor fault degrades gracefully.
pub fn fault_campaign(args: &[String]) -> Result<(), String> {
    use nwo_sim::verify::{flip_blob_bit, CampaignReport, FaultPlan, FaultSite, TrialResult};
    use nwo_sim::SimError;

    let mut bench_name = "compress".to_string();
    let mut scale_override: Option<u32> = None;
    let mut seed: u64 = 0x5eed;
    let mut n_datapath: u32 = 4;
    let mut n_predictor: u32 = 2;
    let mut n_ckpt: u32 = 2;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench_name = it.next().ok_or("--bench needs a name")?.clone(),
            "--scale" => scale_override = Some(num(it.next(), "--scale")?),
            "--seed" => seed = num(it.next(), "--seed")?,
            "--datapath" => n_datapath = num(it.next(), "--datapath")?,
            "--predictor" => n_predictor = num(it.next(), "--predictor")?,
            "--ckpt" => n_ckpt = num(it.next(), "--ckpt")?,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let scale = scale_override.unwrap_or_else(|| experiment_scale(&bench_name));
    let bench = benchmark(&bench_name, scale)
        .ok_or_else(|| format!("unknown benchmark `{bench_name}`; known: {BENCHMARK_NAMES:?}"))?;

    // Clean oracle-checked baseline: establishes the commit span faults
    // can target and proves the oracle itself is quiet on this kernel.
    let mut baseline = Simulator::new(&bench.program, SimConfig::default().with_verify());
    let base = baseline.run(u64::MAX).map_err(|e| e.to_string())?;
    if base.out_quads != bench.expected {
        return Err(format!(
            "{bench_name}: baseline output diverges from reference"
        ));
    }
    let committed = base.stats.committed;
    // Keep faults away from the last few commits: the trailing
    // outq/halt instructions write no result, so a fault armed there
    // would never fire and the trial would be vacuous.
    let span = committed.saturating_sub(8).max(1);
    println!(
        "baseline: {} commits oracle-checked on {bench_name} (scale {scale})",
        baseline.oracle_checked().unwrap_or(0)
    );

    let mut plan = FaultPlan::new(seed);
    let mut trials = Vec::new();

    for index in 0..n_datapath {
        let fault = plan.datapath_fault(span);
        let injected = format!(
            "flip result bit {} at commit {}",
            fault.bit, fault.commit_index
        );
        let mut sim = Simulator::new(&bench.program, SimConfig::default().with_verify());
        sim.inject_datapath_fault(fault);
        let (ok, note) = match sim.run(u64::MAX) {
            Err(SimError::Divergence(report)) => (
                true,
                format!("oracle: {} at pc {:#x}", report.kind, report.pc),
            ),
            Err(e) => (false, format!("failed without a divergence report: {e}")),
            Ok(_) => (
                false,
                "run completed; corruption went unnoticed".to_string(),
            ),
        };
        trials.push(TrialResult {
            site: FaultSite::Datapath,
            index,
            injected,
            ok,
            note,
        });
    }

    for index in 0..n_predictor {
        let entropy = plan.predictor_entropy();
        let injected = format!("flip predictor counter bit (entropy {entropy:#x})");
        let mut sim = Simulator::new(&bench.program, SimConfig::default().with_verify());
        if !sim.inject_predictor_fault(entropy) {
            trials.push(TrialResult {
                site: FaultSite::Predictor,
                index,
                injected,
                ok: false,
                note: "no mutable predictor state to corrupt".to_string(),
            });
            continue;
        }
        let (ok, note) = match sim.run(u64::MAX) {
            Ok(report) if report.out_quads == bench.expected => (
                true,
                format!(
                    "output correct; {} commits oracle-checked",
                    sim.oracle_checked().unwrap_or(0)
                ),
            ),
            Ok(_) => (false, "architected output changed".to_string()),
            Err(e) => (false, format!("run failed: {e}")),
        };
        trials.push(TrialResult {
            site: FaultSite::Predictor,
            index,
            injected,
            ok,
            note,
        });
    }

    if n_ckpt > 0 {
        // One warmed checkpoint, re-corrupted differently per trial.
        let mut warm = Simulator::new(&bench.program, SimConfig::default());
        warm.warmup(1_000).map_err(|e| e.to_string())?;
        let blob = warm.checkpoint();
        for index in 0..n_ckpt {
            let bit = plan.blob_bit(blob.len());
            let injected = format!("flip checkpoint blob bit {bit} of {}", blob.len() * 8);
            let mut corrupt = blob.clone();
            flip_blob_bit(&mut corrupt, bit);
            let mut sim = Simulator::new(&bench.program, SimConfig::default());
            let (ok, note) = match sim.restore_checkpoint(&corrupt) {
                Err(e) => (true, format!("restore rejected: {e}")),
                Ok(()) => (false, "restore accepted a corrupted blob".to_string()),
            };
            trials.push(TrialResult {
                site: FaultSite::Checkpoint,
                index,
                injected,
                ok,
                note,
            });
        }
    }

    let report = CampaignReport {
        seed,
        bench: bench_name.clone(),
        scale,
        trials,
    };
    println!("{report}");
    if report.success() {
        Ok(())
    } else {
        Err("fault campaign failed: see the trial table above".to_string())
    }
}

/// `nwo dbg <file>`
pub fn dbg(args: &[String]) -> Result<(), String> {
    let [input] = args else {
        return Err("dbg needs exactly one input file".to_string());
    };
    let program = load_program(input)?;
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    crate::debugger::repl(&program, stdin.lock(), &mut stdout).map_err(|e| e.to_string())
}

/// Parses a count flag (`--jobs`, `--queue-depth`): `0` and garbage
/// surface the same typed [`nwo_sim::ConfigError`] as `NWO_JOBS=0` —
/// never a silent fallback.
pub(crate) fn positive(what: &'static str, value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| nwo_sim::ConfigError::ZeroParameter { what }.to_string())
}

/// Applies a `--jobs N` flag by exporting `NWO_JOBS` before the global
/// worker pool spins up: the pool reads the environment once, on first
/// use, so the flag must come before any simulation is submitted.
fn set_jobs(value: &str) -> Result<(), String> {
    std::env::set_var(
        "NWO_JOBS",
        positive("--jobs worker count", value)?.to_string(),
    );
    Ok(())
}

/// `nwo bench [name ...] [--scale N] [--jobs N] [--profile]
/// [--profile-out <path>] [--progress]`
pub fn bench(args: &[String]) -> Result<(), String> {
    use nwo_bench::runner::Runner;

    // A malformed NWO_* value (NWO_JOBS=0, NWO_SCALE=x, …) aborts up
    // front with the typed error instead of falling back mid-run.
    Env::load().map_err(|e| e.to_string())?;
    let mut names: Vec<String> = Vec::new();
    let mut scale_override = None;
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale_override = Some(num(it.next(), "--scale")?),
            "--jobs" => set_jobs(it.next().ok_or("--jobs needs a number")?)?,
            "--profile" => profile = true,
            "--profile-out" => {
                profile_out = Some(it.next().ok_or("--profile-out needs a path")?.clone())
            }
            "--progress" => std::env::set_var("NWO_PROGRESS", "1"),
            _ if !a.starts_with('-') => names.push(a.clone()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if let Some(p) = &profile_out {
        nwo_sim::validate_output_parent("--profile-out", p).map_err(|e| e.to_string())?;
    }
    if profile || profile_out.is_some() {
        nwo_sim::obs::span::enable(profile_out.is_some());
    }
    let root_span = nwo_sim::obs::span::span("bench");
    if names.is_empty() {
        names = BENCHMARK_NAMES.iter().map(|s| s.to_string()).collect();
    }
    // Submit everything up front so the kernels simulate in parallel,
    // then print rows in request order (identical output at any job
    // count). The memo key uses each benchmark's actual scale.
    let mut jobs = Vec::with_capacity(names.len());
    for name in &names {
        let scale = scale_override.unwrap_or_else(|| experiment_scale(name));
        let bench = {
            let _prof = nwo_sim::obs::span::span("decode");
            benchmark(name, scale)
                .ok_or_else(|| format!("unknown benchmark `{name}`; known: {BENCHMARK_NAMES:?}"))?
        };
        let handle = Runner::global().submit(&bench, scale, SimConfig::default());
        jobs.push((name, scale, handle));
    }
    // Rows come from the same shared formatter as `nwo serve` result
    // frames, keeping the two surfaces byte-identical.
    println!("{}", nwo_bench::bench_table_header());
    for (name, scale, handle) in &jobs {
        // The runner verifies each report against the reference output
        // and surfaces a divergence as an error.
        let report = handle.result()?;
        println!("{}", nwo_bench::bench_table_row(name, *scale, &report));
    }
    drop(root_span);
    finish_profile(profile, profile_out.as_deref())
}

/// `nwo experiments [name ...] [--jobs N] [--profile]
/// [--profile-out <path>] [--progress]`: exit code 0 when every
/// experiment ran, 3 when any was quarantined.
pub fn experiments(args: &[String]) -> Result<u8, String> {
    use nwo_bench::figures::experiment_names;
    use nwo_bench::harness::run_harness;

    Env::load().map_err(|e| e.to_string())?;
    let mut names: Vec<&str> = Vec::new();
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => set_jobs(it.next().ok_or("--jobs needs a number")?)?,
            "--profile" => profile = true,
            "--profile-out" => {
                profile_out = Some(it.next().ok_or("--profile-out needs a path")?.clone())
            }
            "--progress" => std::env::set_var("NWO_PROGRESS", "1"),
            _ if !a.starts_with('-') => names.push(a.as_str()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if let Some(p) = &profile_out {
        nwo_sim::validate_output_parent("--profile-out", p).map_err(|e| e.to_string())?;
    }
    if profile || profile_out.is_some() {
        // The harness enables aggregation on its own for the per-phase
        // JSON breakdowns; this upgrades to event capture when a trace
        // file was requested.
        nwo_sim::obs::span::enable(profile_out.is_some());
    }
    let selected: Vec<&str> = if names.is_empty() {
        experiment_names()
    } else {
        names
    };
    let root_span = nwo_sim::obs::span::span("experiments");
    let summary = run_harness(&selected);
    drop(root_span);
    finish_profile(profile, profile_out.as_deref())?;
    let summary = summary?;
    if summary.failures.is_empty() {
        return Ok(0);
    }
    // The sweep already completed and persisted its JSON (including the
    // quarantined entries); the exit code still flags trouble.
    let quarantined: Vec<String> = summary
        .failures
        .iter()
        .map(|f| format!("{} ({})", f.name, f.status))
        .collect();
    eprintln!(
        "nwo: {} experiment(s) quarantined: {}",
        quarantined.len(),
        quarantined.join(", ")
    );
    Ok(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_program_handles_both_formats() {
        let dir = std::env::temp_dir().join("nwo-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let asm_path = dir.join("t.s");
        std::fs::write(&asm_path, "main: li t0, 7\n outq t0\n halt").unwrap();
        let p1 = load_program(asm_path.to_str().unwrap()).unwrap();
        let bin_path = dir.join("t.nwo");
        std::fs::write(&bin_path, p1.to_bytes()).unwrap();
        let p2 = load_program(bin_path.to_str().unwrap()).unwrap();
        assert_eq!(p1.text, p2.text);
        assert_eq!(p1.entry, p2.entry);
    }

    #[test]
    fn count_flags_reject_zero_and_garbage() {
        assert_eq!(positive("n", " 8 "), Ok(8));
        for bad in ["0", "", "abc", "-1", "1.5"] {
            assert_eq!(
                positive("n", bad),
                Err("n must be positive".into()),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn bad_paths_are_reported() {
        assert!(load_program("/definitely/not/here.s").is_err());
    }

    #[test]
    fn end_to_end_sim_of_a_temp_file() {
        let dir = std::env::temp_dir().join("nwo-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loop.s");
        std::fs::write(
            &path,
            "main: clr t0\nloop: addq t0, 1, t0\n cmplt t0, 100, t1\n bne t1, loop\n outq t0\n halt",
        )
        .unwrap();
        let arg = vec![path.to_string_lossy().into_owned()];
        run(&arg).unwrap();
        sim(&arg).unwrap();
    }
}
