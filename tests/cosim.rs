//! Co-simulation: the cycle-level out-of-order machine must commit
//! exactly the architected behaviour of the functional emulator, for
//! every benchmark and every machine configuration — and must keep
//! every timing and width-tag number and every statistics byte in
//! `tests/golden/cosim.txt` and every warm checkpoint byte in
//! `tests/golden/warm.txt`.

use nwo::core::{GatingConfig, PackConfig};
use nwo::isa::Emulator;
use nwo::sim::ckpt::{fnv1a, Checkpointable, SectionWriter};
use nwo::sim::obs::{TraceEvent, TraceSink};
use nwo::sim::{SimConfig, SimReport, Simulator};
use nwo::workloads::full_suite;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("baseline", SimConfig::default()),
        ("perfect-bp", SimConfig::default().with_perfect_prediction()),
        (
            "gating",
            SimConfig::default().with_gating(GatingConfig::default()),
        ),
        (
            "packing",
            SimConfig::default().with_packing(PackConfig::default()),
        ),
        (
            "replay-packing",
            SimConfig::default().with_packing(PackConfig::with_replay()),
        ),
        ("wide-decode", SimConfig::default().with_wide_decode()),
        ("eight-issue", SimConfig::default().with_eight_issue()),
        (
            "packing-wide",
            SimConfig::default()
                .with_packing(PackConfig::with_replay())
                .with_wide_decode(),
        ),
        ("no-zdl", {
            let mut c = SimConfig::default().with_gating(GatingConfig::default());
            c.zero_detect_loads = false;
            c
        }),
        // The smallest and largest `ablation-window` shapes, whose CSV
        // rounds to 0.01% and so would hide a drift of a few cycles.
        ("ruu16-packing-wide", window_shape(16, 8)),
        ("ruu160-packing-wide", window_shape(160, 80)),
    ]
}

/// Replay packing under wide decode with an RUU of `ruu` entries and an
/// LSQ of `lsq`.
fn window_shape(ruu: usize, lsq: usize) -> SimConfig {
    let mut c = SimConfig::default()
        .with_packing(PackConfig::with_replay())
        .with_wide_decode();
    c.ruu_size = ruu;
    c.lsq_size = lsq;
    c
}

/// Collects the five cycle stamps of every commit record, in commit
/// order, as little-endian bytes for one [`nwo::sim::ckpt::fnv1a`]
/// digest of the run's commit timing.
struct StampSink(Rc<RefCell<Vec<u8>>>);

impl TraceSink for StampSink {
    fn emit(&mut self, event: &TraceEvent) {
        if let TraceEvent::Commit(r) = event {
            let mut stamps = self.0.borrow_mut();
            for t in [
                r.fetched_at,
                r.dispatched_at,
                r.issued_at,
                r.completed_at,
                r.committed_at,
            ] {
                stamps.extend_from_slice(&t.to_le_bytes());
            }
        }
    }
}

/// The golden line's numbers for one run: every count a timing change
/// moves, then the commit-timing digest.
fn timing_numbers(report: &SimReport, stamps: &[u8]) -> String {
    let s = &report.stats;
    format!(
        "cycles={} committed={} issued={} squashed={} packed_ops={} replay_squashed={} \
         mispredicts={} l1d_misses={} stamps={:016x}",
        s.cycles,
        s.committed,
        s.issued,
        s.squashed,
        s.pack.packed_ops,
        s.pack.replay_squashed,
        s.branch.mispredicts,
        report.hierarchy.l1d.misses,
        fnv1a(stamps)
    )
}

/// The rest of the golden line: what the width tags decide. Executed
/// instructions (each counted once, however often it issues), ops the
/// power model gated at 16 and at 33 bits, and gated ops fed by a load.
fn width_numbers(report: &SimReport) -> String {
    let s = &report.stats;
    let (gate16, gate33, _) = s.power.level_counts();
    format!(
        "executed={} gate16={gate16} gate33={gate33} load_fed={}",
        s.breakdown.total_instructions, s.gated_ops_with_load_operand
    )
}

/// The digest of the run's whole statistics checkpoint payload, so the
/// golden also locks what the figures print rounded: the f64 power sums,
/// both width histograms, the breakdown, the fluctuation entries, the
/// memory extension, occupancy and the stall slots.
fn stats_digest(report: &SimReport) -> String {
    let mut w = SectionWriter::new();
    report.stats.save(&mut w);
    format!("stats={:016x}", fnv1a(&w.into_bytes()))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

/// Writes `got` to `tests/golden/{name}` under `NWO_REGEN_GOLDEN`, then
/// requires it to equal the checked-in file line for line.
fn check_golden(name: &str, got: &str, drift: &str) {
    let path = golden_path(name);
    if std::env::var_os("NWO_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden");
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    for (line, (got, want)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "tests/golden/{name} line {}: {drift}; if intentional, regenerate with \
             NWO_REGEN_GOLDEN=1 and name each number that moved",
            line + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "tests/golden/{name} line count"
    );
}

/// Besides matching the emulator, every run must reproduce its line of
/// `tests/golden/cosim.txt` exactly: a change that moves any cycle
/// count, event count, commit stamp, width-tag count or statistics byte
/// fails here.
/// Regenerate with `NWO_REGEN_GOLDEN=1 cargo test --test cosim` when a
/// model change moves numbers on purpose, and name each number that
/// moved.
#[test]
fn all_benchmarks_match_emulator_under_all_configs() {
    let mut golden = String::new();
    for bench in full_suite(0) {
        // The emulator is the reference semantics.
        let mut emu = Emulator::new(&bench.program);
        emu.run(1_000_000_000).expect("emulator halts");
        assert_eq!(
            emu.outq(),
            bench.expected.as_slice(),
            "{}: emulator vs reference implementation",
            bench.name
        );
        let mut rows = Vec::new();
        for (cfg_name, config) in configs() {
            let stamps = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(&bench.program, config);
            sim.set_trace_sink(Box::new(StampSink(Rc::clone(&stamps))));
            let report = sim
                .run(u64::MAX)
                .unwrap_or_else(|e| panic!("{} under {cfg_name}: {e}", bench.name));
            assert_eq!(
                report.out_quads, bench.expected,
                "{} under {cfg_name}: simulator diverged",
                bench.name
            );
            assert!(sim.finished(), "{} under {cfg_name} must halt", bench.name);
            let timing = timing_numbers(&report, &stamps.borrow());
            golden.push_str(&format!(
                "{} {cfg_name} {timing} {} {}\n",
                bench.name,
                width_numbers(&report),
                stats_digest(&report)
            ));
            rows.push((cfg_name, timing));
        }
        // Clock gating is timing-neutral (Section 4), with or without
        // zero-detect on loads: its runs must time exactly like the
        // baseline's. They gate differently by design, so only the
        // timing numbers are compared.
        let row = |name: &str| &rows.iter().find(|(n, _)| *n == name).expect("config run").1;
        for neutral in ["gating", "no-zdl"] {
            assert_eq!(
                row(neutral),
                row("baseline"),
                "{}: {neutral} must time exactly like baseline",
                bench.name
            );
        }
    }
    check_golden(
        "cosim.txt",
        &golden,
        "timing, width tags or statistics drifted",
    );
}

/// Instructions of functional warmup before each kernel's warm image is
/// taken: fewer than the shortest `full_suite(0)` kernel (gsm-dec,
/// 6,439) runs, so every image holds mid-run state.
const WARM_INSTS: u64 = 5_000;

/// Every kernel's warm checkpoint must keep its bytes: one line of
/// `tests/golden/warm.txt` per kernel holds the blob length, each
/// section's length and an `fnv1a` digest of everything after the
/// 18-byte container header (magic, format version, code salt, section
/// count), so a new code salt does not move it but any change to what a
/// section encodes does.
#[test]
fn warm_images_keep_their_bytes() {
    const HEADER: usize = 4 + 2 + 8 + 4;
    let mut golden = String::new();
    for bench in full_suite(0) {
        let mut sim = Simulator::new(&bench.program, SimConfig::default());
        assert_eq!(sim.warmup(WARM_INSTS).expect("warms"), WARM_INSTS);
        let blob = sim.checkpoint();
        let info = nwo::sim::ckpt::inspect(&blob).expect("own checkpoint parses");
        let sections: Vec<String> = info
            .sections
            .iter()
            .map(|s| format!("{}={}", s.name, s.len))
            .collect();
        golden.push_str(&format!(
            "{} len={} {} body={:016x}\n",
            bench.name,
            blob.len(),
            sections.join(" "),
            nwo::sim::ckpt::fnv1a(&blob[HEADER..])
        ));
    }
    check_golden("warm.txt", &golden, "warm image bytes drifted");
}

#[test]
fn warmup_then_run_still_matches() {
    for bench in full_suite(0).into_iter().take(4) {
        let mut sim = Simulator::new(&bench.program, SimConfig::default());
        sim.warmup(5_000).expect("warmup succeeds");
        let report = sim.run(u64::MAX).expect("runs");
        assert_eq!(
            report.out_quads, bench.expected,
            "{} after warmup",
            bench.name
        );
    }
}
