//! Machine-level checkpoint fidelity: a warmup→checkpoint→restore→run
//! sequence must be indistinguishable from an uninterrupted
//! warmup→run — byte-for-byte at the report level — and every way a
//! checkpoint can be wrong (corrupt, truncated, foreign program, foreign
//! warm config) must be a typed rejection that leaves the machine
//! untouched.

use nwo_sim::ckpt::CkptError;
use nwo_sim::{SimConfig, SimReport, Simulator};
use proptest::prelude::*;

/// A kernel with enough loop trips, memory traffic and branches to give
/// warmup something to train, and enough left over for the timed run to
/// be non-trivial.
fn kernel(iters: u64) -> nwo_isa::Program {
    nwo_isa::assemble(&format!(
        concat!(
            "main: clr t0\n",
            " li t1, {iters}\n",
            " li t2, 0x2000\n",
            "loop: addq t0, t1, t0\n",
            " stq t0, 0(t2)\n",
            " ldq t3, 0(t2)\n",
            " and t3, 0xff, t4\n",
            " outb t4\n",
            " addq t2, 8, t2\n",
            " subq t1, 1, t1\n",
            " bgt t1, loop\n",
            " outq t0\n",
            " halt\n",
        ),
        iters = iters
    ))
    .expect("assembles")
}

const WARMUP: u64 = 200;
const RUN_LIMIT: u64 = 1_000_000;

/// Warmup → checkpoint → (uninterrupted report, checkpoint bytes).
fn warm_and_run(config: &SimConfig) -> (SimReport, Vec<u8>) {
    let program = kernel(100);
    let mut sim = Simulator::new(&program, config.clone());
    sim.warmup(WARMUP).expect("warms");
    let ckpt = sim.checkpoint();
    let report = sim.run(RUN_LIMIT).expect("runs");
    (report, ckpt)
}

#[test]
fn restore_then_run_is_byte_identical_to_uninterrupted_run() {
    let config = SimConfig::default();
    let (baseline, ckpt) = warm_and_run(&config);

    let program = kernel(100);
    let mut resumed = Simulator::new(&program, config);
    resumed.restore_checkpoint(&ckpt).expect("restores");
    let report = resumed.run(RUN_LIMIT).expect("runs");

    assert_eq!(report.out_bytes, baseline.out_bytes);
    assert_eq!(report.out_quads, baseline.out_quads);
    // The strongest form of the claim: the full serialized reports are
    // byte-identical, so every counter, histogram and power figure agrees.
    assert_eq!(report.to_ckpt_bytes(), baseline.to_ckpt_bytes());
}

#[test]
fn restore_works_across_non_warm_config_changes() {
    // The warm fingerprint deliberately covers only hierarchy + predictor
    // shape, so a checkpoint taken at issue width 4 restores into an
    // issue-width-2 machine (the whole point of sweeping configs off one
    // warmed image).
    let config = SimConfig::default();
    let (_, ckpt) = warm_and_run(&config);

    let mut narrow = config.clone();
    narrow.issue_width = 2;
    narrow.commit_width = 2;
    let program = kernel(100);
    let mut sim = Simulator::new(&program, narrow);
    sim.restore_checkpoint(&ckpt)
        .expect("restores across issue width");
    let report = sim.run(RUN_LIMIT).expect("runs");
    assert_eq!(report.out_quads, vec![5050]);
}

#[test]
fn corrupted_payload_is_a_crc_mismatch() {
    let (_, mut ckpt) = warm_and_run(&SimConfig::default());
    // Flip a bit deep in the last section's payload: the container header
    // stays intact, so this must surface as a CRC failure.
    let last = ckpt.len() - 1;
    ckpt[last] ^= 0x40;
    let program = kernel(100);
    let mut sim = Simulator::new(&program, SimConfig::default());
    match sim.restore_checkpoint(&ckpt) {
        Err(CkptError::CrcMismatch { .. }) => {}
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
    // The machine is untouched: it still runs from cycle zero correctly.
    let report = sim.run(RUN_LIMIT).expect("runs cold");
    assert_eq!(report.out_quads, vec![5050]);
}

#[test]
fn foreign_program_is_a_code_digest_mismatch() {
    let (_, ckpt) = warm_and_run(&SimConfig::default());
    let other = kernel(101); // one more loop trip: different immediate
    let mut sim = Simulator::new(&other, SimConfig::default());
    match sim.restore_checkpoint(&ckpt) {
        Err(CkptError::Mismatch { what, .. }) => {
            assert!(what.contains("code"), "unexpected what: {what}");
        }
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

#[test]
fn foreign_warm_config_is_a_fingerprint_mismatch() {
    let (_, ckpt) = warm_and_run(&SimConfig::default());
    let mut config = SimConfig::default();
    config.hierarchy.memory_latency = 200;
    let program = kernel(100);
    let mut sim = Simulator::new(&program, config);
    match sim.restore_checkpoint(&ckpt) {
        Err(CkptError::Mismatch { what, .. }) => {
            assert!(what.contains("fingerprint"), "unexpected what: {what}");
        }
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

#[test]
fn restore_overwrites_prior_warmup_wholesale() {
    // Restoring into a machine that already warmed up some other amount
    // discards that warm state entirely: results match the baseline that
    // warmed `WARMUP` instructions, not a blend.
    let config = SimConfig::default();
    let (baseline, ckpt) = warm_and_run(&config);
    let program = kernel(100);
    let mut sim = Simulator::new(&program, config);
    sim.warmup(50).expect("warms");
    sim.restore_checkpoint(&ckpt).expect("restores over warmup");
    let report = sim.run(RUN_LIMIT).expect("runs");
    assert_eq!(report.to_ckpt_bytes(), baseline.to_ckpt_bytes());
}

#[test]
fn restore_after_timed_run_is_rejected() {
    let (_, ckpt) = warm_and_run(&SimConfig::default());
    let program = kernel(100);
    let mut sim = Simulator::new(&program, SimConfig::default());
    sim.run(RUN_LIMIT).expect("runs");
    match sim.restore_checkpoint(&ckpt) {
        Err(CkptError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn report_round_trips_through_its_container() {
    let (report, _) = warm_and_run(&SimConfig::default());
    let bytes = report.to_ckpt_bytes();
    let restored = SimReport::from_ckpt_bytes(&bytes).expect("parses");
    assert_eq!(restored.to_ckpt_bytes(), bytes, "re-save is byte-identical");
    assert_eq!(restored.out_quads, report.out_quads);
    assert_eq!(restored.stats.committed, report.stats.committed);
    assert_eq!(restored.stats.stall, report.stats.stall);
}

#[test]
fn stall_detail_partitions_the_global_breakdown() {
    let program = kernel(50);
    let mut sim = Simulator::new(&program, SimConfig::default());
    sim.enable_stall_detail();
    sim.run(RUN_LIMIT).expect("runs");
    let per_pc = sim.stall_detail().expect("enabled");
    assert!(!per_pc.is_empty(), "a real run loses some commit slots");
    let attributed: u64 = per_pc.values().map(|b| b.total()).sum();
    assert_eq!(
        attributed,
        sim.stats().stall.total(),
        "per-PC attribution must partition the global stall total"
    );
}

/// `Write` adapter sharing one buffer with the test body, so the
/// interval sink (which takes ownership of its writer) can be inspected.
#[derive(Clone)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn interval_stats_stream_parseable_snapshots() {
    let buf = SharedBuf(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())));
    let program = kernel(100);
    let mut sim = Simulator::new(&program, SimConfig::default());
    sim.set_interval_stats(50, Box::new(buf.clone()));
    sim.run(RUN_LIMIT).expect("runs");
    let final_cycles = sim.stats().cycles;

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf-8");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() as u64 >= final_cycles / 50,
        "one snapshot per 50 cycles: got {} lines for {} cycles",
        lines.len(),
        final_cycles
    );
    let mut last_cycles = 0u64;
    for line in &lines {
        let value = nwo_sim::obs::json::parse(line).expect("valid JSON");
        // Snapshot keys are flat dotted paths; cycle counts must be
        // present and non-decreasing across the stream.
        let snap_cycles = value
            .get("sim.cycles")
            .and_then(|c| c.as_u64())
            .expect("sim.cycles present");
        assert!(snap_cycles >= last_cycles);
        last_cycles = snap_cycles;
    }
    // The run's tail is not dropped: a partial sample ends the stream
    // at the final cycle, and its interval covers the remainder.
    assert_eq!(last_cycles, final_cycles, "tail sample at the last cycle");
    assert_ne!(final_cycles % 50, 0, "the kernel ends mid-interval");
    let tail = nwo_sim::obs::json::parse(lines.last().expect("non-empty")).expect("valid JSON");
    assert_eq!(
        tail.get("interval.cycles").and_then(|c| c.as_u64()),
        Some(final_cycles % 50)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Truncating a machine checkpoint anywhere is a typed error, never
    /// a panic or a silent partial restore.
    #[test]
    fn truncated_machine_checkpoint_is_rejected(cut_seed in any::<u64>()) {
        let program = kernel(20);
        let mut sim = Simulator::new(&program, SimConfig::default());
        sim.warmup(50).expect("warms");
        let ckpt = sim.checkpoint();
        let cut = (cut_seed % ckpt.len() as u64) as usize;
        let mut receiver = Simulator::new(&program, SimConfig::default());
        prop_assert!(receiver.restore_checkpoint(&ckpt[..cut]).is_err());
        // And the receiver still works from cold afterwards.
        let report = receiver.run(RUN_LIMIT).expect("runs cold");
        prop_assert_eq!(report.out_quads, vec![210]);
    }

    /// Warmup length does not change restore fidelity: any split point
    /// gives the same final architectural output as an uninterrupted run.
    #[test]
    fn any_warmup_split_preserves_output(warm in 1u64..400) {
        let program = kernel(40);
        let config = SimConfig::default();
        let mut a = Simulator::new(&program, config.clone());
        a.warmup(warm).expect("warms");
        let ckpt = a.checkpoint();
        let base = a.run(RUN_LIMIT).expect("runs");

        let mut b = Simulator::new(&program, config);
        b.restore_checkpoint(&ckpt).expect("restores");
        let resumed = b.run(RUN_LIMIT).expect("runs");
        prop_assert_eq!(&resumed.out_bytes, &base.out_bytes);
        prop_assert_eq!(&resumed.out_quads, &base.out_quads);
        prop_assert_eq!(resumed.to_ckpt_bytes(), base.to_ckpt_bytes());
    }
}
