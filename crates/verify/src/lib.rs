#![warn(missing_docs)]

//! `nwo-verify` — lockstep architectural oracle and deterministic fault
//! injection for the nwo simulator.
//!
//! The paper's two headline mechanisms — operand-based clock gating
//! (Section 4) and replay packing (Section 5.3) — are exactly the
//! features that can *silently* corrupt architectural state: a wrong
//! upper-bit mux or a missed carry-overflow squash produces
//! plausible-looking statistics with wrong results. This crate provides
//! the correctness backstop:
//!
//! * [`OracleChecker`] — a second functional [`Emulator`] stepped in
//!   lockstep at *commit* time. Every committed instruction's PC,
//!   destination value, memory effect, branch direction and next-PC are
//!   compared against the reference semantics; any mismatch produces a
//!   typed [`DivergenceReport`] carrying the last
//!   [`RECENT_WINDOW`] committed instructions (pulled from an
//!   [`nwo_obs`] trace ring) instead of silently wrong statistics.
//! * [`FaultPlan`] — a seeded, deterministic fault generator
//!   ([`XorShift64`], no wall-clock or OS randomness, so
//!   checkpoint/resume stays byte-identical) producing
//!   [`DatapathFault`]s (bit flips in gated upper result bytes),
//!   predictor-state entropy, and checkpoint-blob bit positions
//!   ([`flip_blob_bit`]).
//! * [`CampaignReport`] — the deterministic, reproducible summary of a
//!   fault-injection campaign (`nwo fault-campaign`): architectural
//!   faults must be *detected* (by the oracle or by `nwo-ckpt`'s CRC
//!   layer), predictor faults must *degrade gracefully* (timing-only —
//!   the run still architecturally correct).

use nwo_isa::{ArchState, EmuError, Emulator, ExecRecord, Instr, Program, Reg};
use nwo_obs::{pipeview, CommitRecord, RingSink, TraceEvent, TraceSink};

/// Number of recently committed instructions a [`DivergenceReport`]
/// carries for context.
pub const RECENT_WINDOW: usize = 16;

// ---------------------------------------------------------------------
// Deterministic PRNG
// ---------------------------------------------------------------------

/// Deterministic xorshift64 PRNG. No wall-clock or OS entropy anywhere:
/// the same seed always yields the same fault sequence, so campaigns
/// (and checkpoint/resume under test) are byte-identical across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A generator seeded with `seed` (zero is remapped to a fixed
    /// non-zero constant — xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A value uniformly-ish distributed in `0..bound` (`bound == 0`
    /// yields 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

// ---------------------------------------------------------------------
// Divergence reporting
// ---------------------------------------------------------------------

/// Which architectural field diverged between the out-of-order core and
/// the reference emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The committed instruction's address.
    Pc,
    /// The address of the next instruction (control flow).
    NextPc,
    /// The value written to the destination register.
    Result,
    /// The destination register itself.
    Dest,
    /// The effective address of a load or store.
    MemAddr,
    /// The value a store wrote to memory.
    StoreValue,
    /// A branch's taken/not-taken direction.
    Taken,
    /// The reference emulator itself faulted (bad instruction) where the
    /// core committed — control flow left the legal program.
    OracleFault,
}

impl DivergenceKind {
    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::Pc => "pc",
            DivergenceKind::NextPc => "next-pc",
            DivergenceKind::Result => "result",
            DivergenceKind::Dest => "dest-register",
            DivergenceKind::MemAddr => "mem-addr",
            DivergenceKind::StoreValue => "store-value",
            DivergenceKind::Taken => "branch-direction",
            DivergenceKind::OracleFault => "oracle-fault",
        }
    }
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything known about one architectural divergence: where it
/// happened, what was expected versus observed, and the last
/// [`RECENT_WINDOW`] committed instructions for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Simulator cycle of the diverging commit (0 during functional
    /// warmup).
    pub cycle: u64,
    /// Commit sequence number (0-based) of the diverging instruction.
    pub commit_seq: u64,
    /// Address of the diverging instruction as the core committed it.
    pub pc: u64,
    /// Raw 32-bit encoding of the diverging instruction.
    pub raw: u32,
    /// Which architectural field diverged.
    pub kind: DivergenceKind,
    /// The reference emulator's value (`None` when the reference has no
    /// such field — e.g. no destination register).
    pub expected: Option<u64>,
    /// The out-of-order core's value.
    pub actual: Option<u64>,
    /// The most recent committed instructions, oldest first, pulled
    /// from the checker's trace ring (the diverging one last).
    pub recent: Vec<CommitRecord>,
}

fn fmt_opt(v: Option<u64>) -> String {
    match v {
        Some(x) => format!("{x:#x}"),
        None => "<none>".to_string(),
    }
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let disasm = |_pc: u64, raw: u32| match Instr::decode(raw) {
            Ok(i) => i.to_string(),
            Err(_) => format!("{raw:08x}"),
        };
        writeln!(
            f,
            "architectural divergence at cycle {}, commit #{}, pc {:#x} ({}): \
             {} expected {} but the core retired {}",
            self.cycle,
            self.commit_seq,
            self.pc,
            disasm(self.pc, self.raw),
            self.kind,
            fmt_opt(self.expected),
            fmt_opt(self.actual),
        )?;
        write!(f, "{}", pipeview::render(&self.recent, &disasm))
    }
}

impl std::error::Error for DivergenceReport {}

/// Lockstep architectural oracle: a reference [`Emulator`] advanced one
/// instruction per core commit, with every architectural field compared.
#[derive(Debug)]
pub struct OracleChecker {
    emu: Emulator,
    ring: RingSink,
    checked: u64,
}

impl OracleChecker {
    /// An oracle at the architectural reset state of `program`.
    pub fn new(program: &Program) -> OracleChecker {
        OracleChecker {
            emu: Emulator::new(program),
            ring: RingSink::keep_last(RECENT_WINDOW),
            checked: 0,
        }
    }

    /// Number of commits checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Re-bases the oracle onto externally supplied architectural state
    /// — used after a checkpoint restore, which replaces warmed state
    /// the oracle never saw executing.
    pub fn resync(&mut self, state: &ArchState) {
        self.emu = Emulator::from(state.clone());
    }

    /// Checks one committed instruction against the reference.
    ///
    /// `actual` is the core's view of the commit; `record` is its
    /// pipeline timing record, retained in the checker's ring so a
    /// later divergence can show recent history.
    ///
    /// # Errors
    ///
    /// A [`DivergenceReport`] describing the first mismatching field.
    pub fn check_commit(
        &mut self,
        cycle: u64,
        actual: &ExecRecord,
        record: CommitRecord,
    ) -> Result<(), Box<DivergenceReport>> {
        self.ring.emit(&TraceEvent::Commit(record));
        self.checked += 1;
        let report = |kind, expected, actual_v| {
            Box::new(DivergenceReport {
                cycle,
                commit_seq: record.seq,
                pc: actual.pc,
                raw: record.raw,
                kind,
                expected,
                actual: actual_v,
                recent: self.ring.retained(),
            })
        };
        let expected = match self.emu.step() {
            Ok(r) => r,
            Err(EmuError::BadInstruction { pc }) | Err(EmuError::StepLimit { limit: pc }) => {
                return Err(report(
                    DivergenceKind::OracleFault,
                    Some(pc),
                    Some(actual.pc),
                ));
            }
        };
        let reg_idx = |r: Option<Reg>| r.map(|r| u64::from(r.index()));
        let checks: [(DivergenceKind, Option<u64>, Option<u64>); 7] = [
            (DivergenceKind::Pc, Some(expected.pc), Some(actual.pc)),
            (
                DivergenceKind::Dest,
                reg_idx(expected.dest),
                reg_idx(actual.dest),
            ),
            (DivergenceKind::Result, expected.result, actual.result),
            (DivergenceKind::MemAddr, expected.mem_addr, actual.mem_addr),
            (
                DivergenceKind::StoreValue,
                expected.store_value,
                actual.store_value,
            ),
            (
                DivergenceKind::Taken,
                Some(u64::from(expected.taken)),
                Some(u64::from(actual.taken)),
            ),
            (
                DivergenceKind::NextPc,
                Some(expected.next_pc),
                Some(actual.next_pc),
            ),
        ];
        for (kind, exp, act) in checks {
            if exp != act {
                return Err(report(kind, exp, act));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// One planned datapath fault: a single bit flip in the upper bytes of
/// a retired value — exactly the bytes operand-based clock gating
/// claims it may safely not compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatapathFault {
    /// The fault arms at this commit index and fires at the first
    /// commit at-or-after it that carries a comparable value (a
    /// destination result or store data), so every planned fault is
    /// architecturally visible.
    pub commit_index: u64,
    /// Bit position to flip, always in the gated upper range `16..64`.
    pub bit: u32,
}

impl DatapathFault {
    /// Applies the fault to a retired value.
    pub fn apply(&self, value: u64) -> u64 {
        value ^ (1u64 << self.bit)
    }
}

/// Seeded generator of deterministic fault sequences. Two plans built
/// from the same seed produce identical faults in identical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rng: XorShift64,
}

impl FaultPlan {
    /// A plan seeded with `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rng: XorShift64::new(seed),
        }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next datapath fault, armed somewhere in the first
    /// `commit_span` commits with a bit in the gated upper range.
    pub fn datapath_fault(&mut self, commit_span: u64) -> DatapathFault {
        DatapathFault {
            commit_index: self.rng.below(commit_span.max(1)),
            bit: 16 + self.rng.below(48) as u32,
        }
    }

    /// Entropy word for one predictor-state fault (the predictor picks
    /// a table and counter from it).
    pub fn predictor_entropy(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A bit position inside a `len`-byte checkpoint blob.
    pub fn blob_bit(&mut self, len: usize) -> u64 {
        self.rng.below((len as u64) * 8)
    }
}

/// Flips bit `bit` (counting from byte 0, LSB first) of `bytes`.
/// Positions past the end are reduced modulo the blob size.
pub fn flip_blob_bit(bytes: &mut [u8], bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let bit = bit % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
}

// ---------------------------------------------------------------------
// Campaign reporting
// ---------------------------------------------------------------------

/// Where a campaign trial injected its fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Upper bytes of a retired datapath value (architectural — the
    /// oracle must detect it).
    Datapath,
    /// Branch predictor state (micro-architectural — the run must stay
    /// architecturally correct and merely degrade).
    Predictor,
    /// A warm checkpoint blob (architectural — `nwo-ckpt` must reject
    /// it on restore).
    Checkpoint,
}

impl FaultSite {
    /// Short site name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Datapath => "datapath",
            FaultSite::Predictor => "predictor",
            FaultSite::Checkpoint => "checkpoint",
        }
    }

    /// True for fault sites that corrupt architectural state and must
    /// therefore be *detected* (rather than tolerated).
    pub fn is_architectural(self) -> bool {
        !matches!(self, FaultSite::Predictor)
    }
}

/// The outcome of one fault-injection trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
    /// Fault site.
    pub site: FaultSite,
    /// Trial index within the site (0-based).
    pub index: u32,
    /// Deterministic description of what was injected.
    pub injected: String,
    /// Architectural sites: the fault was detected. Predictor site: the
    /// run stayed architecturally correct (graceful degradation).
    pub ok: bool,
    /// Detector message, or a description of the miss.
    pub note: String,
}

/// Deterministic, reproducible summary of a fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Seed the campaign's [`FaultPlan`] was built from.
    pub seed: u64,
    /// Benchmark the campaign ran on.
    pub bench: String,
    /// Workload scale of the run.
    pub scale: u32,
    /// Every trial, in execution order.
    pub trials: Vec<TrialResult>,
}

impl CampaignReport {
    /// Number of architectural-fault trials.
    pub fn architectural_total(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.site.is_architectural())
            .count()
    }

    /// Number of architectural-fault trials that were detected.
    pub fn architectural_detected(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.site.is_architectural() && t.ok)
            .count()
    }

    /// Number of predictor-fault trials.
    pub fn predictor_total(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.site == FaultSite::Predictor)
            .count()
    }

    /// Number of predictor-fault trials that degraded gracefully.
    pub fn predictor_graceful(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.site == FaultSite::Predictor && t.ok)
            .count()
    }

    /// True when every trial met its expectation: all architectural
    /// faults detected, all predictor faults tolerated.
    pub fn success(&self) -> bool {
        self.trials.iter().all(|t| t.ok)
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fault campaign: bench={} scale={} seed={:#x} trials={}",
            self.bench,
            self.scale,
            self.seed,
            self.trials.len()
        )?;
        for t in &self.trials {
            let verdict = match (t.site.is_architectural(), t.ok) {
                (true, true) => "DETECTED",
                (true, false) => "MISSED",
                (false, true) => "GRACEFUL",
                (false, false) => "CORRUPTED",
            };
            writeln!(
                f,
                "  [{:<10} {:>2}] {} -> {verdict}: {}",
                t.site.name(),
                t.index,
                t.injected,
                t.note
            )?;
        }
        let (det, tot) = (self.architectural_detected(), self.architectural_total());
        let pct = if tot == 0 {
            100.0
        } else {
            100.0 * det as f64 / tot as f64
        };
        write!(
            f,
            "architectural faults detected: {det}/{tot} ({pct:.1}%); \
             predictor faults degraded gracefully: {}/{}",
            self.predictor_graceful(),
            self.predictor_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwo_isa::assemble;

    fn commit_record(seq: u64, rec: &ExecRecord) -> CommitRecord {
        CommitRecord {
            seq,
            pc: rec.pc,
            raw: rec.instr.encode(),
            fetched_at: seq,
            dispatched_at: seq,
            issued_at: seq,
            completed_at: seq,
            committed_at: seq,
            packed: false,
            replayed: false,
        }
    }

    fn program() -> Program {
        assemble(
            r#"
            main:
                li   t0, 300
                addq t0, 5, t0
                outq t0
                halt
            "#,
        )
        .expect("assembles")
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        // Zero seed is remapped, not a fixed point.
        assert_ne!(XorShift64::new(0).next_u64(), 0);
    }

    #[test]
    fn fault_plan_reproduces_from_its_seed() {
        let mut p1 = FaultPlan::new(7);
        let mut p2 = FaultPlan::new(7);
        for _ in 0..32 {
            assert_eq!(p1.datapath_fault(1000), p2.datapath_fault(1000));
            assert_eq!(p1.predictor_entropy(), p2.predictor_entropy());
            assert_eq!(p1.blob_bit(512), p2.blob_bit(512));
        }
        let f = FaultPlan::new(7).datapath_fault(1000);
        assert!((16..64).contains(&f.bit), "bit {} in gated range", f.bit);
        assert!(f.commit_index < 1000);
    }

    #[test]
    fn flip_blob_bit_flips_exactly_one_bit() {
        let mut bytes = vec![0u8; 16];
        flip_blob_bit(&mut bytes, 37);
        assert_eq!(bytes[4], 1 << 5);
        flip_blob_bit(&mut bytes, 37);
        assert!(bytes.iter().all(|&b| b == 0), "second flip restores");
        // Out-of-range positions wrap instead of panicking.
        flip_blob_bit(&mut bytes, 16 * 8 + 3);
        assert_eq!(bytes[0], 1 << 3);
        flip_blob_bit(&mut [], 5);
    }

    #[test]
    fn matching_commits_pass_the_oracle() {
        let prog = program();
        let mut reference = Emulator::new(&prog);
        let mut oracle = OracleChecker::new(&prog);
        let mut seq = 0;
        loop {
            let rec = reference.step().expect("legal program");
            oracle
                .check_commit(seq, &rec, commit_record(seq, &rec))
                .expect("faithful commits never diverge");
            seq += 1;
            if reference.halted() {
                break;
            }
        }
        assert_eq!(oracle.checked(), seq);
    }

    #[test]
    fn corrupted_result_is_reported_with_context() {
        let prog = program();
        let mut reference = Emulator::new(&prog);
        let mut oracle = OracleChecker::new(&prog);
        // Commit the first instruction faithfully...
        let rec = reference.step().expect("step");
        oracle
            .check_commit(0, &rec, commit_record(0, &rec))
            .expect("faithful");
        // ...then retire the second with a gated-upper-byte bit flipped.
        let mut bad = reference.step().expect("step");
        let fault = DatapathFault {
            commit_index: 0,
            bit: 40,
        };
        bad.result = bad.result.map(|v| fault.apply(v));
        let report = oracle
            .check_commit(1, &bad, commit_record(1, &bad))
            .expect_err("divergence must be caught");
        assert_eq!(report.kind, DivergenceKind::Result);
        assert_eq!(report.commit_seq, 1);
        assert_eq!(report.pc, bad.pc);
        assert_eq!(report.recent.len(), 2, "ring carries recent commits");
        let text = report.to_string();
        assert!(text.contains("divergence"), "{text}");
        assert!(text.contains("pipeview"), "{text}");
    }

    #[test]
    fn wrong_path_commit_is_an_oracle_fault() {
        let prog = program();
        let mut reference = Emulator::new(&prog);
        let mut oracle = OracleChecker::new(&prog);
        let mut rec = reference.step().expect("step");
        rec.pc = 0xdead_0000; // commit from an address the program never reaches
        let report = oracle
            .check_commit(0, &rec, commit_record(0, &rec))
            .expect_err("must diverge");
        assert_eq!(report.kind, DivergenceKind::Pc);
    }

    #[test]
    fn campaign_report_is_deterministic_and_summarizes() {
        let report = CampaignReport {
            seed: 0xbeef,
            bench: "compress".into(),
            scale: 0,
            trials: vec![
                TrialResult {
                    site: FaultSite::Datapath,
                    index: 0,
                    injected: "flip bit 40 at commit >= 12".into(),
                    ok: true,
                    note: "oracle: result mismatch".into(),
                },
                TrialResult {
                    site: FaultSite::Predictor,
                    index: 0,
                    injected: "flip counter bit".into(),
                    ok: true,
                    note: "output correct".into(),
                },
                TrialResult {
                    site: FaultSite::Checkpoint,
                    index: 0,
                    injected: "flip blob bit 991".into(),
                    ok: true,
                    note: "restore rejected: CRC mismatch".into(),
                },
            ],
        };
        assert_eq!(report.architectural_total(), 2);
        assert_eq!(report.architectural_detected(), 2);
        assert_eq!(report.predictor_total(), 1);
        assert!(report.success());
        let text = report.to_string();
        assert!(text.contains("2/2 (100.0%)"), "{text}");
        assert!(text.contains("DETECTED"), "{text}");
        assert!(text.contains("GRACEFUL"), "{text}");
        assert_eq!(text, report.to_string(), "display is deterministic");
    }
}
