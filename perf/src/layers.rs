//! Per-layer metrics of a traced run.
//!
//! Two sources. [`attribute`] splits the traced rounds' span time
//! across the layers (each layer's self time as a share of all span
//! time) and reads the bench runner's work. [`probe`] times each
//! layer's public entry points directly on a fixed set of kernels, so
//! its numbers are the same kind of quantity on every workload: host
//! nanoseconds per instruction, access, branch or operation.

use crate::{build_kernels, perf_scale, stats, Kernel, Metric, Round, RunOptions, JOBS};
use nwo_bench::harness::PhaseBreakdown;
use nwo_bpred::{ControlInfo, Predictor, PredictorConfig};
use nwo_core::{can_pack, gate_level, GatingConfig, PackConfig, WidthTag};
use nwo_isa::{Emulator, ExecRecord, Format};
use nwo_mem::{Hierarchy, HierarchyConfig};
use nwo_sim::obs::ProfileAgg;
use nwo_sim::{SimConfig, Simulator};
use std::hint::black_box;
use std::time::Instant;

/// The layers time is attributed to, in report order. `core`, `mem`
/// and `bpred` run inside `Machine::run`, which has no spans of its
/// own, so their share shows as `sim`; [`probe`] times them alone.
const LAYERS: [&str; 7] = [
    "workloads",
    "isa",
    "sim",
    "verify",
    "ckpt",
    "bench",
    "serve",
];

/// The layer a span belongs to, by its name: the benchmark's own spans
/// are named after layers, and the program's spans map to the layer
/// that opens them.
fn layer_of(span_name: &str) -> Option<&'static str> {
    Some(match span_name {
        "workloads" | "decode" => "workloads",
        "isa" => "isa",
        "sim" | "warmup" | "measured-run" => "sim",
        "verify" | "oracle-step" => "verify",
        "ckpt" | "restore" | "ckpt-io" | "cache-lookup" | "cache-store" => "ckpt",
        "bench" | "experiment" | "sim-job" => "bench",
        "serve" => "serve",
        _ => return None,
    })
}

/// Self time per layer: each span path's total less its direct
/// children's, summed by the layer of the path's last span. Spans of no
/// layer count under `"other"`.
fn self_times(agg: &ProfileAgg) -> Vec<(&'static str, f64)> {
    let mut own: Vec<(String, f64)> = agg
        .spans
        .iter()
        .map(|(p, s)| (p.clone(), s.total_ns as f64 / 1e9))
        .collect();
    for (path, stat) in &agg.spans {
        if let Some((parent, _)) = path.rsplit_once('/') {
            if let Some(slot) = own.iter_mut().find(|(p, _)| p == parent) {
                slot.1 -= stat.total_ns as f64 / 1e9;
            }
        }
    }
    let mut out: Vec<(&'static str, f64)> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    out.push(("other", 0.0));
    for (path, secs) in own {
        let leaf = path.rsplit('/').next().unwrap_or(&path);
        let layer = layer_of(leaf).unwrap_or("other");
        if let Some(slot) = out.iter_mut().find(|(l, _)| *l == layer) {
            slot.1 += secs.max(0.0);
        }
    }
    out
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Attribution of the traced rounds, plus the tracing overhead against
/// the untraced rounds of the same run.
pub fn attribute(plain: &[Round], traced: &[Round]) -> Vec<Metric> {
    let walls = |rs: &[Round]| stats::median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut agg = ProfileAgg::default();
    for r in traced {
        crate::merge(&mut agg, &r.spans);
    }
    let wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let driven: f64 = traced.iter().map(|r| r.wall_s * r.drivers as f64).sum();
    let covered: f64 = traced.iter().map(|r| r.covered_s).sum();
    let mut out = vec![
        Metric::new(
            "trace.overhead",
            "ratio",
            ratio(walls(traced), walls(plain)) - 1.0,
        ),
        Metric::new("trace.coverage", "ratio", ratio(covered, driven)),
    ];
    let selfs = self_times(&agg);
    let total: f64 = selfs.iter().map(|(_, s)| s).sum();
    for (layer, secs) in selfs.iter().filter(|(l, _)| *l != "other") {
        out.push(Metric::new(
            format!("{layer}.share"),
            "ratio",
            ratio(*secs, total),
        ));
    }
    let per_round = |f: fn(&Round) -> u64| {
        stats::median(&traced.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let phases = PhaseBreakdown::from_agg(&agg);
    let busy = phases.busy_s();
    let submitted: u64 = traced
        .iter()
        .map(|r| r.runner.sims_run + r.runner.memo_hits + r.runner.disk_hits)
        .sum();
    let memo: u64 = traced.iter().map(|r| r.runner.memo_hits).sum();
    out.extend([
        Metric::new(
            "runner.utilization",
            "ratio",
            ratio(busy, wall * JOBS as f64),
        ),
        Metric::new("runner.sims_run", "count", per_round(|r| r.runner.sims_run)),
        Metric::new(
            "runner.memo_hits",
            "count",
            per_round(|r| r.runner.memo_hits),
        ),
        Metric::new(
            "runner.warmups_run",
            "count",
            per_round(|r| r.runner.warmups_run),
        ),
        Metric::new(
            "runner.warm_hits",
            "count",
            per_round(|r| r.runner.warm_hits),
        ),
        Metric::new(
            "runner.memo_hit_ratio",
            "ratio",
            ratio(memo as f64, submitted as f64),
        ),
    ]);
    let mut attributed = 0.0;
    for phase in ["warmup", "restore", "measured_run", "ckpt_io", "cache"] {
        attributed += phases.seconds(phase);
        out.push(Metric::new(
            format!("runner.phase.{phase}_share"),
            "ratio",
            ratio(phases.seconds(phase), busy),
        ));
    }
    out.push(Metric::new(
        "runner.unattributed_share",
        "ratio",
        ratio((busy - attributed).max(0.0), busy),
    ));
    out.extend([
        Metric::new("sim.committed", "count", per_round(|r| r.committed)),
        Metric::new("sim.cycles", "count", per_round(|r| r.cycles)),
    ]);
    out
}

/// Kernels the probes run on.
const PROBE_KERNELS: [&str; 4] = ["go", "vortex", "gsm-enc", "mpeg2-dec"];

/// Kernels a `--quick` probe runs on.
const QUICK_PROBE_KERNELS: [&str; 1] = ["ijpeg"];

/// Execution records replayed per kernel through the component probes.
const REPLAY_RECORDS: usize = 500_000;

/// Instructions fast-forwarded before the checkpoint probes.
const PROBE_WARMUP: u64 = 100_000;

/// Seconds `f` takes.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The predictor's view of a committed control instruction.
fn control_info(rec: &ExecRecord) -> ControlInfo {
    let op = rec.instr.op;
    ControlInfo {
        is_cond: op.is_cond_branch(),
        is_call: op.is_call(),
        is_return: op.is_return(),
        is_indirect: op.format() == Format::Jump,
        direct_target: (op.format() == Format::Branch).then(|| rec.instr.branch_target(rec.pc)),
        return_addr: rec.pc.wrapping_add(4),
    }
}

/// Accumulates time and work for one ns-per-unit probe.
#[derive(Default)]
struct Rate {
    secs: f64,
    units: u64,
}

impl Rate {
    fn add(&mut self, secs: f64, units: u64) {
        self.secs += secs;
        self.units += units;
    }

    fn ns(&self) -> f64 {
        ratio(self.secs * 1e9, self.units as f64)
    }
}

/// Time and work per probe, in host nanoseconds per unit.
#[derive(Default)]
struct Rates {
    emu: Rate,
    base: Rate,
    base_cycles: Rate,
    pack: Rate,
    pack_cycles: Rate,
    verify: Rate,
    warmup: Rate,
    mem: Rate,
    bpred: Rate,
    core: Rate,
}

/// Per-kernel samples of the probes reported as medians.
#[derive(Default)]
struct Samples {
    new_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    store_ms: Vec<f64>,
    load_ms: Vec<f64>,
    mib: Vec<f64>,
}

/// Replays `kernel`'s first [`REPLAY_RECORDS`] execution records
/// through the cache hierarchy, the branch predictor and the width,
/// gating and packing logic, timing each component alone.
fn replay_components(kernel: &Kernel, rates: &mut Rates) {
    let mut emu = Emulator::new(&kernel.bench.program);
    let mut records = Vec::with_capacity(REPLAY_RECORDS.min(kernel.insts as usize));
    while records.len() < REPLAY_RECORDS && !emu.halted() {
        match emu.step() {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
    }
    let mut hierarchy = Hierarchy::new(HierarchyConfig::default());
    let ((), secs) = time(|| {
        let mut latency = 0u64;
        for rec in &records {
            latency += hierarchy.inst_access(rec.pc);
            if let Some(addr) = rec.mem_addr {
                latency += hierarchy.data_access(addr, rec.store_value.is_some());
            }
        }
        black_box(latency);
    });
    let accesses = records.len() + records.iter().filter(|r| r.mem_addr.is_some()).count();
    rates.mem.add(secs, accesses as u64);

    let controls: Vec<(&ExecRecord, ControlInfo)> = records
        .iter()
        .filter(|r| r.is_control())
        .map(|r| (r, control_info(r)))
        .collect();
    let mut predictor = Predictor::new(PredictorConfig::default());
    let ((), secs) = time(|| {
        for (rec, info) in &controls {
            let p = predictor.predict(rec.pc, info);
            predictor.update(rec.pc, info, rec.taken, rec.next_pc, p.lookup.as_ref());
        }
    });
    black_box(predictor.stats());
    rates.bpred.add(secs, controls.len() as u64);

    let operands: Vec<_> = records
        .iter()
        .filter(|r| r.instr.op.format() == Format::Operate)
        .map(|r| (r.instr.op, r.op_a, r.op_b))
        .collect();
    let (gating, packing) = (GatingConfig::default(), PackConfig::default());
    let ((), secs) = time(|| {
        let mut acc = 0u32;
        for &(op, a, b) in &operands {
            let (a, b) = (WidthTag::of(a), WidthTag::of(b));
            acc += gate_level(a, b, &gating).active_bits();
            acc += u32::from(can_pack(op, a, b, &packing));
        }
        black_box(acc);
    });
    rates.core.add(secs, operands.len() as u64);
}

/// Times every layer's public entry points on the probe kernels. The
/// work is fixed, so the numbers compare across workloads and commits.
pub fn probe(opts: &RunOptions) -> Vec<Metric> {
    let names: &[&str] = if opts.quick {
        &QUICK_PROBE_KERNELS
    } else {
        &PROBE_KERNELS
    };
    let builds: Vec<f64> = (0..crate::SETUPS)
        .map(|_| time(|| build_kernels(&nwo_workloads::BENCHMARK_NAMES, perf_scale)).1)
        .collect();
    let kernels = build_kernels(names, perf_scale);
    let mut rates = Rates::default();
    let mut ms = Samples::default();
    let mut counts = [0u64; 4];
    let cache = nwo_ckpt::CacheDir::new(opts.scratch.join("probe-cache"));
    for kernel in &kernels {
        let program = &kernel.bench.program;
        let (icount, secs) = time(|| {
            let mut e = Emulator::new(program);
            e.run(u64::MAX).map(|_| e.icount()).unwrap_or(0)
        });
        rates.emu.add(secs, icount);
        for _ in 0..5 {
            ms.new_ms
                .push(time(|| Simulator::new(program, SimConfig::default())).1 * 1e3);
        }
        let run = |config: SimConfig| {
            let mut sim = Simulator::new(program, config);
            let (report, secs) = time(|| sim.run(u64::MAX).expect("probe kernels run clean"));
            (report, secs, sim.oracle_checked().unwrap_or(0))
        };
        let (b, b_secs, _) = run(nwo_bench::base_config());
        rates.base.add(b_secs, b.stats.committed);
        rates.base_cycles.add(b_secs, b.stats.cycles);
        let (p, p_secs, _) = run(nwo_bench::replay_config());
        rates.pack.add(p_secs, p.stats.committed);
        rates.pack_cycles.add(p_secs, p.stats.cycles);
        let (_, o_secs, checked) = run(SimConfig::default().with_verify());
        rates.verify.add((o_secs - b_secs).max(0.0), checked);
        counts[0] += p.stats.pack.packed_ops;
        counts[1] += p.stats.pack.replay_squashed;
        counts[2] += b.hierarchy.l1d.misses;
        counts[3] += b.stats.branch.mispredicts;

        let mut sim = Simulator::new(program, SimConfig::default());
        let (warmed, secs) = time(|| sim.warmup(PROBE_WARMUP).expect("probe kernels warm"));
        rates.warmup.add(secs, warmed);
        let (blob, secs) = time(|| sim.checkpoint());
        ms.encode_ms.push(secs * 1e3);
        ms.mib.push(blob.len() as f64 / (1024.0 * 1024.0));
        let mut fresh = Simulator::new(program, SimConfig::default());
        let (restored, secs) = time(|| fresh.restore_checkpoint(&blob));
        restored.expect("a fresh checkpoint restores");
        ms.restore_ms.push(secs * 1e3);
        let key = format!("probe-{}", kernel.bench.name);
        let (stored, secs) = time(|| cache.store(&key, &blob));
        stored.expect("the scratch cache accepts stores");
        ms.store_ms.push(secs * 1e3);
        let (loaded, secs) = time(|| cache.load(&key));
        assert!(
            matches!(loaded, Ok(Some(ref b)) if *b == blob),
            "the scratch cache returns what it stored"
        );
        ms.load_ms.push(secs * 1e3);

        replay_components(kernel, &mut rates);
    }
    vec![
        Metric::new("workloads.build_s", "s", stats::median(&builds)),
        Metric::new("isa.emu_ns_per_inst", "ns", rates.emu.ns()),
        Metric::new("sim.new_ms", "ms", stats::median(&ms.new_ms)),
        Metric::new("sim.base_ns_per_inst", "ns", rates.base.ns()),
        Metric::new("sim.base_ns_per_cycle", "ns", rates.base_cycles.ns()),
        Metric::new("sim.pack_ns_per_inst", "ns", rates.pack.ns()),
        Metric::new("sim.pack_ns_per_cycle", "ns", rates.pack_cycles.ns()),
        Metric::new("sim.warmup_ns_per_inst", "ns", rates.warmup.ns()),
        Metric::new("verify.ns_per_check", "ns", rates.verify.ns()),
        Metric::new("mem.ns_per_access", "ns", rates.mem.ns()),
        Metric::new("bpred.ns_per_branch", "ns", rates.bpred.ns()),
        Metric::new("core.ns_per_op", "ns", rates.core.ns()),
        Metric::new("ckpt.encode_ms", "ms", stats::median(&ms.encode_ms)),
        Metric::new("ckpt.restore_ms", "ms", stats::median(&ms.restore_ms)),
        Metric::new("ckpt.store_ms", "ms", stats::median(&ms.store_ms)),
        Metric::new("ckpt.load_ms", "ms", stats::median(&ms.load_ms)),
        Metric::new("ckpt.mib", "MiB", stats::median(&ms.mib)),
        Metric::new("serve.rtt_ms", "ms", serve_rtt_ms()),
        Metric::new("core.packed_ops", "count", counts[0] as f64),
        Metric::new("core.replays", "count", counts[1] as f64),
        Metric::new("mem.l1d_misses", "count", counts[2] as f64),
        Metric::new("bpred.mispredicts", "count", counts[3] as f64),
    ]
}

/// Median round trip of a `status` request to an idle in-process
/// server, in milliseconds: the serve layer's fixed cost per request.
fn serve_rtt_ms() -> f64 {
    use std::sync::atomic::{AtomicBool, Ordering};
    let runner = std::sync::Arc::new(nwo_bench::runner::Runner::with_jobs(1));
    let Ok(server) = nwo_serve::Server::bind(&nwo_serve::ServeOptions::ephemeral(), runner) else {
        return 0.0;
    };
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run_until(&stop));
        let mut rtts = Vec::new();
        if let Ok(mut client) = nwo_serve::Client::connect(&addr) {
            for _ in 0..51 {
                let (answer, secs) = time(|| client.status());
                if answer.is_ok() {
                    rtts.push(secs * 1e3);
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        let _ = daemon.join();
        // The first round trip pays connection set-up.
        stats::median(rtts.get(1..).unwrap_or(&[]))
    })
}
