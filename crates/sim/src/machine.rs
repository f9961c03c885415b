//! The cycle-level out-of-order pipeline: fetch → dispatch (RUU/LSQ
//! allocation, renaming, width tagging) → out-of-order issue (with
//! operation packing) → execute/writeback (with replay squash and
//! misprediction recovery) → in-order commit.
//!
//! Stage order within a cycle is commit, writeback, issue, dispatch,
//! fetch — the SimpleScalar reverse-pipeline walk, which lets a value
//! written back in cycle *t* feed an instruction issuing in cycle *t*.

use crate::config::{
    PredictorChoice, SimConfig, ALU_LATENCY, DIV_LATENCY, INT_MULDIV, MULT_LATENCY,
};
use crate::frontend::Frontend;
use crate::report::SimReport;
use crate::stats::SimStats;
use nwo_bpred::{ControlInfo, DirLookup, Predictor, RasCheckpoint};
use nwo_core::{
    can_pack, gate_level, replay_candidate, replay_mispredicts, GateLevel, WideOperand, WidthTag,
    REPLAY_PENALTY,
};
use nwo_isa::{
    access_bytes, ArchState, ExecRecord, Format, OpClass, Opcode, OperandB, Program, Reg,
};
use nwo_mem::Hierarchy;
use nwo_obs::{CommitRecord, NullSink, StallBreakdown, StallCause, TraceEvent, TraceSink};
use nwo_verify::{DatapathFault, DivergenceReport, OracleChecker};
use std::collections::VecDeque;
use std::fmt;

/// Errors the simulator can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The correct path fetched an undecodable or out-of-text PC.
    BadFetch {
        /// The faulting PC.
        pc: u64,
    },
    /// No instruction committed for a very long time — a modelling bug,
    /// never expected on well-formed programs. Carries a diagnostic
    /// snapshot so the hang is debuggable from the error alone.
    Deadlock {
        /// The cycle at which the deadlock was declared.
        cycle: u64,
        /// Machine state at the moment the deadlock was declared.
        snapshot: Box<DeadlockSnapshot>,
    },
    /// The lockstep oracle ([`SimConfig::verify`]) caught the core
    /// retiring architectural state that disagrees with the reference
    /// emulator.
    Divergence(Box<DivergenceReport>),
}

/// Diagnostic state attached to [`SimError::Deadlock`]: where commit
/// stopped, what the stall attribution says, and the last committed
/// instructions' pipeline diagram (when a retaining trace sink is
/// installed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// Cycle of the last successful commit.
    pub last_commit_cycle: u64,
    /// Stall-cycle attribution accumulated up to the deadlock.
    pub stall: StallBreakdown,
    /// Description of the window-head instruction blocking commit
    /// (`None` when the window is empty).
    pub head: Option<String>,
    /// Pipeview rendering of the most recent retained commit records
    /// (empty without a retaining sink).
    pub pipeview: String,
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "last commit at cycle {}", self.last_commit_cycle)?;
        match &self.head {
            Some(head) => writeln!(f, "window head: {head}")?,
            None => writeln!(f, "window head: <empty window>")?,
        }
        let mut causes: Vec<(StallCause, u64)> =
            self.stall.iter().filter(|&(_, n)| n > 0).collect();
        causes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.name().cmp(b.0.name())));
        write!(f, "stall slots so far:")?;
        for (cause, slots) in causes.iter().take(4) {
            write!(f, " {cause}={slots}")?;
        }
        writeln!(f)?;
        write!(f, "{}", self.pipeview)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadFetch { pc } => write!(f, "invalid instruction fetch at {pc:#x}"),
            SimError::Deadlock { cycle, snapshot } => {
                writeln!(f, "pipeline deadlock detected at cycle {cycle}")?;
                write!(f, "{snapshot}")
            }
            SimError::Divergence(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SimError {}

/// An instruction in the fetch queue.
#[derive(Debug, Clone)]
struct Fetched {
    rec: ExecRecord,
    spec: bool,
    mispredicted: bool,
    cinfo: Option<ControlInfo>,
    ras_cp: Option<RasCheckpoint>,
    dir_lookup: Option<DirLookup>,
    fetched_at: u64,
}

/// One RUU (register update unit) entry.
#[derive(Debug, Clone)]
struct RuuEntry {
    seq: u64,
    rec: ExecRecord,
    class: OpClass,
    spec: bool,
    // Dependency state.
    idep_remaining: u8,
    odeps: Vec<u64>,
    // Operand metadata for gating/packing.
    tag_a: WidthTag,
    tag_b: WidthTag,
    from_load: bool,
    // Timing state.
    fetched_at: u64,
    dispatched_at: u64,
    issued_at: u64,
    earliest_issue: u64,
    issued: bool,
    in_group: bool,
    completed: bool,
    complete_at: u64,
    /// Load that went to the hierarchy and missed in L1D (its in-flight
    /// cycles are charged to [`StallCause::DcacheMiss`] when it blocks
    /// commit).
    dmiss: bool,
    // Control state.
    mispredicted: bool,
    cinfo: Option<ControlInfo>,
    ras_cp: Option<RasCheckpoint>,
    dir_lookup: Option<DirLookup>,
    // Memory state: the in-flight producer of a store's base register,
    // if any. The store's address is considered computed once this
    // producer completes (split STA/STD, as in the Alpha 21264).
    store_base_producer: Option<u64>,
    // Packing state. A replay-squashed op re-issues full-width once
    // `replay_attempted` is set.
    replay_wide: Option<WideOperand>,
    replay_attempted: bool,
}

impl RuuEntry {
    fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    fn ready(&self) -> bool {
        self.idep_remaining == 0 && !self.issued && !self.completed
    }

    fn dest(&self) -> Option<Reg> {
        self.rec.dest.filter(|r| !r.is_zero())
    }
}

/// What the issue stage decided to do with a load this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadAction {
    /// Blocked behind a store with an unknown address or partial overlap.
    Wait,
    /// Forward from the given completed store.
    Forward,
    /// Access the data cache.
    Access,
}

/// One simulation: the full machine state of the cycle-level pipeline
/// for a program under a [`SimConfig`]. Construct it, optionally warm
/// it up or restore a warmed checkpoint, run it, read the report.
pub struct Simulator {
    config: SimConfig,
    frontend: Frontend,
    predictor: Option<Predictor>,
    hierarchy: Hierarchy,
    // Pipeline structures.
    ifq: VecDeque<Fetched>,
    window: VecDeque<RuuEntry>,
    lsq: VecDeque<u64>,
    rename: [Option<u64>; 32],
    /// Per-PC 2-bit confidence for replay packing: replay traps are
    /// expensive, so the issue logic stops speculating on instructions
    /// whose low-16-bit carries keep rippling (e.g. accumulators with
    /// random low bits). Address arithmetic stays confident. This is an
    /// extension beyond the paper, which assumes carries are "relatively
    /// infrequent" — true for addresses, not for every add.
    replay_confidence: std::collections::HashMap<u64, u8>,
    /// Whether each architected register's value came from a load: its
    /// width tag is unknown unless [`SimConfig::zero_detect_loads`].
    committed_from_load: [bool; 32],
    next_seq: u64,
    // Timing state.
    cycle: u64,
    fetch_resume: u64,
    /// Why fetch is paused until `fetch_resume` — the cause empty-window
    /// commit cycles are charged to while the pause lasts.
    fetch_stall: StallCause,
    muldiv_busy_until: u64,
    last_commit_cycle: u64,
    done: bool,
    // Architected output (written at commit).
    out_bytes: Vec<u8>,
    out_quads: Vec<u64>,
    sink: Box<dyn TraceSink>,
    /// Lockstep architectural oracle ([`SimConfig::verify`]): a second
    /// functional emulator advanced and compared at every commit.
    oracle: Option<OracleChecker>,
    /// One armed deterministic datapath fault (fault campaigns): fires
    /// at the first eligible commit, flipping a gated upper bit of the
    /// retired value.
    pending_fault: Option<DatapathFault>,
    // Statistics.
    stats: SimStats,
    /// Per-PC lost-commit-slot attribution (`--stall-detail`): when
    /// enabled, every slot charged to the global [`SimStats::stall`]
    /// breakdown is also charged to the PC of the instruction at the
    /// head of the window (or the fetch PC when the window is empty).
    stall_pcs: Option<std::collections::HashMap<u64, nwo_obs::StallBreakdown>>,
    /// The interval stream (`--interval-stats` / `--interval-out`).
    interval: Option<IntervalStream>,
    /// Deterministic phase counters exported as the `prof.*` snapshot
    /// group. Deliberately machine-local (never read from the global
    /// profiler) so snapshots stay byte-identical between runs even
    /// when other threads are profiling.
    phase: PhaseCounters,
    /// Wall time spent in oracle commit checks during the current
    /// `warmup` or `run`, batched here (one `Instant` pair per check is
    /// the whole cost) and flushed once per call to the span profiler
    /// as an `oracle-step` child — a per-commit `SpanGuard` would swamp
    /// the measurement with its own bookkeeping.
    oracle_span_ns: u64,
    oracle_span_checks: u64,
}

/// Deterministic lifetime counters behind the `prof.*` snapshot group.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCounters {
    warmup_calls: u64,
    warmup_insts: u64,
    run_calls: u64,
    ckpt_restores: u64,
}

/// State of the interval stream: the sink plus the previous sample's
/// cumulative values, so each line's `interval.*` group carries deltas
/// over its interval next to the run-to-date snapshot.
struct IntervalStream {
    every: u64,
    sink: nwo_obs::JsonlSink<Box<dyn std::io::Write>>,
    samples: u64,
    last_cycle: u64,
    last_committed: u64,
    last_stall: nwo_obs::StallBreakdown,
    last_width: crate::stats::WidthHistogram,
    /// Cumulative (baseline, gated) mW·cycle sums at the last sample.
    last_power: (f64, f64),
}

/// Deciles (p10..p90) of the operand-width distribution over one
/// interval: for each decile `d`, the smallest width whose cumulative
/// interval count (`now - last` per width bucket) reaches `d/10` of
/// the interval total. All zeros for an empty interval.
fn width_deciles(
    now: &crate::stats::WidthHistogram,
    last: &crate::stats::WidthHistogram,
) -> [u32; 9] {
    let mut total = 0u64;
    let cumulative: Vec<u64> = (0..=64)
        .map(|n| {
            total += now.at(n).saturating_sub(last.at(n));
            total
        })
        .collect();
    std::array::from_fn(|d| {
        let reached = |&c: &u64| c * 10 >= total * (d as u64 + 1);
        cumulative.iter().position(reached).map_or(64, |n| n as u32)
    })
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("committed", &self.stats.committed)
            .field("window", &self.window.len())
            .field("done", &self.done)
            .finish()
    }
}

impl Simulator {
    /// Builds a simulator for `program` under `config`.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid configuration; validate with
    /// [`SimConfig::validate`] first when the config comes from user
    /// input.
    pub fn new(program: &Program, config: SimConfig) -> Simulator {
        if let Err(e) = config.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let predictor = match config.predictor {
            PredictorChoice::Perfect => None,
            PredictorChoice::Real(p) => Some(Predictor::new(p)),
        };
        Simulator {
            frontend: Frontend::from(ArchState::new(program)),
            predictor,
            hierarchy: Hierarchy::new(config.hierarchy),
            ifq: VecDeque::with_capacity(config.ifq_size),
            window: VecDeque::with_capacity(config.ruu_size),
            lsq: VecDeque::with_capacity(config.lsq_size),
            rename: [None; 32],
            replay_confidence: std::collections::HashMap::new(),
            committed_from_load: [false; 32],
            next_seq: 0,
            cycle: 0,
            fetch_resume: 0,
            fetch_stall: StallCause::Frontend,
            muldiv_busy_until: 0,
            last_commit_cycle: 0,
            done: false,
            out_bytes: Vec::new(),
            out_quads: Vec::new(),
            sink: Box::new(NullSink),
            oracle: config.verify.then(|| OracleChecker::new(program)),
            pending_fault: None,
            stats: SimStats::default(),
            stall_pcs: None,
            interval: None,
            phase: PhaseCounters::default(),
            oracle_span_ns: 0,
            oracle_span_checks: 0,
            config,
        }
    }

    /// Commits checked by the lockstep oracle so far (`None` when
    /// [`SimConfig::verify`] is off).
    pub fn oracle_checked(&self) -> Option<u64> {
        self.oracle.as_ref().map(OracleChecker::checked)
    }

    /// Arms one deterministic datapath fault: at the first commit
    /// at-or-after its index that retires a result or store value, a
    /// gated upper bit of that value is flipped. With
    /// [`SimConfig::verify`] on, the oracle must report the corruption
    /// as a [`SimError::Divergence`] — the fault-campaign contract.
    pub fn inject_datapath_fault(&mut self, fault: DatapathFault) {
        self.pending_fault = Some(fault);
    }

    /// Flips one bit of branch-predictor state (a direction counter
    /// chosen from `entropy`). Predictor state is micro-architectural:
    /// the run must still produce correct output, merely slower —
    /// graceful degradation. Returns false when nothing could be
    /// flipped (perfect prediction or a static predictor).
    pub fn inject_predictor_fault(&mut self, entropy: u64) -> bool {
        match self.predictor.as_mut() {
            Some(p) => p.flip_state_bit(entropy),
            None => false,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// True once `halt` has committed.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Builds a report from the current state (also usable mid-run,
    /// when its cycle count is the cycles simulated so far).
    pub fn report(&self) -> SimReport {
        let mut stats = self.stats.clone();
        stats.cycles = stats.cycles.max(self.cycle);
        SimReport {
            hierarchy: self.hierarchy.stats(),
            predictor: self.predictor.as_ref().map(Predictor::stats),
            out_bytes: self.out_bytes.clone(),
            out_quads: self.out_quads.clone(),
            packing_enabled: self.config.pack_config().is_some(),
            stats,
        }
    }

    /// The commit records the trace sink retained so far (empty unless
    /// a retaining sink such as [`nwo_obs::RingSink`] is installed with
    /// [`Simulator::set_trace_sink`]) — SimpleScalar's `ptrace`, and
    /// the input of [`nwo_obs::pipeview::render`].
    pub fn trace(&self) -> Vec<CommitRecord> {
        self.sink.retained()
    }

    /// Replaces the trace sink. Install a [`nwo_obs::JsonlSink`] to
    /// stream every pipeline event to disk in O(1) resident memory, a
    /// [`nwo_obs::RingSink`] to retain a bounded window, or a
    /// [`nwo_obs::TeeSink`] for both. Returns the previous sink,
    /// flushed.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
        let mut old = std::mem::replace(&mut self.sink, sink);
        old.flush();
        old
    }

    /// Turns on per-PC lost-commit-slot attribution (`--stall-detail`).
    /// Costs one hash-map update per under-width commit cycle; off by
    /// default.
    pub fn enable_stall_detail(&mut self) {
        self.stall_pcs.get_or_insert_with(Default::default);
    }

    /// The per-PC stall breakdowns collected so far (`None` unless
    /// [`Simulator::enable_stall_detail`] was called before running).
    pub fn stall_detail(&self) -> Option<&std::collections::HashMap<u64, nwo_obs::StallBreakdown>> {
        self.stall_pcs.as_ref()
    }

    /// Streams one JSON line to `out` every `every` cycles of
    /// [`Simulator::run`], plus a partial tail line when a run ends
    /// between samples (`--interval-stats` / `--interval-out`). Each
    /// line is the full metrics snapshot of [`Simulator::snapshot`]
    /// plus an `interval.*` group of deltas since the previous line:
    /// cycles, commits, IPC, per-cause stall slots, baseline and gated
    /// power, and deciles of the committed operand-width distribution.
    /// `every == 0` disables the stream.
    pub fn set_interval_stats(&mut self, every: u64, out: Box<dyn std::io::Write>) {
        self.interval = (every > 0).then(|| IntervalStream {
            every,
            sink: nwo_obs::JsonlSink::new(out),
            samples: 0,
            last_cycle: 0,
            last_committed: 0,
            last_stall: nwo_obs::StallBreakdown::default(),
            last_width: crate::stats::WidthHistogram::new(),
            last_power: (0.0, 0.0),
        });
    }

    /// Writes one interval line and rolls the delta baselines forward.
    fn emit_interval(&mut self) {
        let Some(iv) = &self.interval else {
            return;
        };
        let cycle = self.cycle;
        let committed = self.stats.committed;
        let dcycles = cycle.saturating_sub(iv.last_cycle);
        let dcommit = committed.saturating_sub(iv.last_committed);
        // The power accumulator exposes per-cycle averages; multiplying
        // back by the cycle count recovers the cumulative mW·cycle sums
        // the stream diffs between samples.
        let pr = self.stats.power.report(cycle.max(1));
        let power = (
            pr.baseline_mw_per_cycle * cycle as f64,
            pr.gated_mw_per_cycle * cycle as f64,
        );
        let denom = dcycles.max(1) as f64;
        let mut r = nwo_obs::Registry::new();
        self.collect_metrics(&mut r);
        r.group("interval", |r| {
            r.counter("cycles", dcycles);
            r.counter("committed", dcommit);
            r.gauge("ipc", dcommit as f64 / denom);
            r.group("stall", |r| {
                for (cause, now) in self.stats.stall.iter() {
                    r.counter(cause.name(), now.saturating_sub(iv.last_stall.get(cause)));
                }
            });
            r.group("power_mw", |r| {
                r.gauge("baseline", (power.0 - iv.last_power.0) / denom);
                r.gauge("gated", (power.1 - iv.last_power.1) / denom);
            });
            r.group("width", |r| {
                let deciles = width_deciles(&self.stats.width_committed, &iv.last_width);
                for (d, width) in deciles.iter().enumerate() {
                    r.counter(&format!("p{}0", d + 1), u64::from(*width));
                }
            });
        });
        let line = r.finish().to_json_line();
        let iv = self.interval.as_mut().expect("checked above");
        iv.sink.write_line(&line);
        iv.samples += 1;
        iv.last_cycle = cycle;
        iv.last_committed = committed;
        iv.last_stall = self.stats.stall.clone();
        iv.last_width = self.stats.width_committed.clone();
        iv.last_power = power;
    }

    /// Serializes the warmed machine state into a versioned checkpoint
    /// container: a `meta` identity section (warm-state config
    /// fingerprint + program code digest), the architected front-end
    /// state, the cache/TLB hierarchy, the branch predictor and the
    /// architected output streams.
    ///
    /// Checkpoints capture architectural plus warmed-table state only —
    /// the pipeline queues are not serialized — so they are meaningful
    /// at the warmup boundary (after [`Simulator::warmup`], before
    /// [`Simulator::run`]), which is the only place the simulator takes
    /// them.
    pub fn checkpoint(&self) -> Vec<u8> {
        let _prof = nwo_obs::span::span("ckpt-io");
        debug_assert!(
            self.cycle == 0 && self.window.is_empty() && self.ifq.is_empty(),
            "checkpoints are taken at the warmup boundary"
        );
        let mut cw = nwo_ckpt::CheckpointWriter::new();
        let mut meta = nwo_ckpt::SectionWriter::new();
        meta.put_u64(self.config.warm_fingerprint());
        meta.put_u64(self.frontend.arch.code_digest());
        cw.add_section("meta", meta.into_bytes());
        cw.write_section("frontend", &self.frontend.arch);
        cw.write_section("hierarchy", &self.hierarchy);
        let mut bp = nwo_ckpt::SectionWriter::new();
        bp.put_bool(self.predictor.is_some());
        if let Some(p) = &self.predictor {
            nwo_ckpt::Checkpointable::save(p, &mut bp);
        }
        cw.add_section("bpred", bp.into_bytes());
        let mut out = nwo_ckpt::SectionWriter::new();
        out.put_bytes(&self.out_bytes);
        out.put_u64(self.out_quads.len() as u64);
        for &q in &self.out_quads {
            out.put_u64(q);
        }
        cw.add_section("output", out.into_bytes());
        cw.to_bytes()
    }

    /// Restores warmed state saved by [`Simulator::checkpoint`],
    /// replacing the warmup phase. The machine must have been built from
    /// the same program (code digest) and a config with the same
    /// [`SimConfig::warm_fingerprint`], and must not have begun timed
    /// simulation; any functional warmup already performed is simply
    /// overwritten (warm state is restored wholesale).
    ///
    /// Every section is fully decoded and validated before any machine
    /// state is touched, so a failed restore leaves the machine exactly
    /// as it was — there is no partial restore.
    ///
    /// # Errors
    ///
    /// Any [`nwo_ckpt::CkptError`]: bad magic / foreign version / stale
    /// salt / truncation / CRC mismatch from the container layer, or
    /// [`nwo_ckpt::CkptError::Mismatch`] when the checkpoint belongs to
    /// a different program, machine shape, or already-run machine.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), nwo_ckpt::CkptError> {
        use nwo_ckpt::CkptError;
        let _prof = nwo_obs::span::span("restore");
        if self.cycle != 0 || self.stats.committed != 0 {
            return Err(CkptError::Malformed(
                "restore requires a machine that has not begun timed simulation".into(),
            ));
        }
        let reader = nwo_ckpt::CheckpointReader::from_bytes(bytes)?;
        // Identity checks first: wrong program or wrong machine shape is
        // rejected before any payload decoding.
        let mut meta = reader.section("meta")?;
        let fp = meta.take_u64("meta warm fingerprint")?;
        let expected_fp = self.config.warm_fingerprint();
        if fp != expected_fp {
            return Err(CkptError::Mismatch {
                what: "warm-state config fingerprint",
                found: fp,
                expected: expected_fp,
            });
        }
        let digest = meta.take_u64("meta code digest")?;
        let expected_digest = self.frontend.arch.code_digest();
        if digest != expected_digest {
            return Err(CkptError::Mismatch {
                what: "program code digest",
                found: digest,
                expected: expected_digest,
            });
        }
        meta.finish("meta")?;
        // Decode every other section into scratch state first.
        let mut arch = self.frontend.arch.clone();
        reader.restore_section("frontend", &mut arch)?;
        let mut bp = reader.section("bpred")?;
        let has_predictor = bp.take_bool("bpred presence")?;
        if has_predictor != self.predictor.is_some() {
            return Err(CkptError::Mismatch {
                what: "predictor presence",
                found: has_predictor as u64,
                expected: self.predictor.is_some() as u64,
            });
        }
        let mut predictor = self.predictor.clone();
        if let Some(p) = predictor.as_mut() {
            nwo_ckpt::Checkpointable::restore(p, &mut bp)?;
        }
        bp.finish("bpred")?;
        let mut out = reader.section("output")?;
        let out_bytes = out.take_bytes(u64::MAX, "output out_bytes")?;
        let quads = out.take_len(u64::MAX, "output out_quads count")?;
        let mut out_quads = Vec::new();
        for _ in 0..quads {
            out_quads.push(out.take_u64("output out_quad")?);
        }
        out.finish("output")?;
        // The hierarchy goes last and straight into place: its restore
        // validates the whole section before it changes anything, and
        // once it succeeds nothing below can fail.
        reader.restore_section("hierarchy", &mut self.hierarchy)?;
        self.frontend = Frontend::from(arch);
        self.predictor = predictor;
        self.out_bytes = out_bytes;
        self.out_quads = out_quads;
        // The restored frontend state was warmed by another machine the
        // oracle never saw executing: re-base it on the restored
        // architectural state so lockstep checking continues from here.
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.resync(&self.frontend.arch);
        }
        self.phase.ckpt_restores += 1;
        Ok(())
    }

    /// Collects every counter in the machine — core pipeline, stall
    /// breakdown, caches and TLBs, branch predictor, power model — into
    /// one machine-readable [`nwo_obs::Snapshot`] (the payload behind
    /// `nwo sim --json`). Usable mid-run (every interval-stream line
    /// starts with it).
    pub fn snapshot(&self) -> nwo_obs::Snapshot {
        let mut r = nwo_obs::Registry::new();
        self.collect_metrics(&mut r);
        r.finish()
    }

    /// Registers the [`Simulator::snapshot`] metrics into `r`.
    fn collect_metrics(&self, r: &mut nwo_obs::Registry) {
        let stats = &self.stats;
        let cycles = stats.cycles.max(self.cycle);
        let denom = cycles.max(1);
        r.group("sim", |r| {
            r.counter("cycles", cycles);
            r.counter("fetched", stats.fetched);
            r.counter("dispatched", stats.dispatched);
            r.counter("issued", stats.issued);
            r.counter("committed", stats.committed);
            r.counter("squashed", stats.squashed);
            r.gauge(
                "ipc",
                if cycles == 0 {
                    0.0
                } else {
                    stats.committed as f64 / cycles as f64
                },
            );
        });
        r.group("width", |r| {
            r.histogram("committed", stats.width_committed.to_log2());
            r.histogram("executed", stats.width_executed.to_log2());
        });
        r.source("stall", &stats.stall);
        r.group("branch", |r| {
            r.counter("committed", stats.branch.committed);
            r.counter("cond_committed", stats.branch.cond_committed);
            r.counter("mispredicts", stats.branch.mispredicts);
            r.gauge("accuracy", stats.branch.accuracy());
        });
        r.group("pack", |r| {
            r.counter("groups", stats.pack.groups);
            r.counter("packed_ops", stats.pack.packed_ops);
            r.counter("slots_saved", stats.pack.slots_saved);
            r.counter("replay_issued", stats.pack.replay_issued);
            r.counter("replay_squashed", stats.pack.replay_squashed);
        });
        r.source("mem", &self.hierarchy.stats());
        if let Some(p) = &self.predictor {
            r.source("bpred", &p.stats());
        }
        r.source("power", &stats.power.report(denom));
        r.source("mem_ext", &stats.mem_ext.report(denom));
        // Machine-local phase counters only — never global profiler
        // state, which other threads may be mutating — so identical
        // runs keep producing byte-identical snapshots.
        r.group("prof", |r| {
            r.counter("warmup_calls", self.phase.warmup_calls);
            r.counter("warmup_insts", self.phase.warmup_insts);
            r.counter("run_calls", self.phase.run_calls);
            r.counter("ckpt_restores", self.phase.ckpt_restores);
            r.counter(
                "oracle_checks",
                self.oracle.as_ref().map_or(0, OracleChecker::checked),
            );
        });
        // `every` and `interval_every` both report the stream's period:
        // snapshot keys are never removed (tests/golden/snapshot.keys).
        let every = self.interval.as_ref().map_or(0, |iv| iv.every);
        r.group("telemetry", |r| {
            r.counter("every", every);
            r.counter("samples", self.interval.as_ref().map_or(0, |iv| iv.samples));
            r.counter("interval_every", every);
        });
    }

    /// Fast-forwards `insts` instructions functionally, warming caches
    /// and the branch predictor but not simulating timing — the paper's
    /// warmup methodology (Section 3.2).
    ///
    /// # Errors
    ///
    /// [`SimError::BadFetch`] if the program runs off the rails;
    /// warming past `halt` simply stops early.
    pub fn warmup(&mut self, insts: u64) -> Result<u64, SimError> {
        let _prof = nwo_obs::span::span("warmup");
        self.oracle_span_ns = 0;
        self.oracle_span_checks = 0;
        self.phase.warmup_calls += 1;
        let mut n = 0;
        while n < insts && !self.frontend.arch.halted() {
            let pc = self.frontend.arch.pc();
            let Some(rec) = self.frontend.step() else {
                if self.frontend.arch.halted() {
                    break;
                }
                return Err(SimError::BadFetch { pc });
            };
            self.hierarchy.warm_inst(rec.pc);
            if let Some(addr) = rec.mem_addr {
                self.hierarchy.warm_data(addr, rec.store_value.is_some());
            }
            if rec.instr.op.is_control() {
                let cinfo = control_info(&rec);
                if let Some(p) = &mut self.predictor {
                    p.update(rec.pc, &cinfo, rec.taken, rec.next_pc, None);
                }
            }
            // Warmed-over instructions are architecturally executed, so
            // their output side effects are real — collecting them here
            // is what makes a restored-from-checkpoint run's output
            // byte-identical to an uninterrupted warmup-then-run — and
            // the oracle advances (and checks) through them too. Cycle
            // fields are zero: warmup has no timing.
            let record = self.oracle.as_ref().map(|oracle| CommitRecord {
                seq: oracle.checked(),
                pc: rec.pc,
                raw: rec.instr.encode(),
                fetched_at: 0,
                dispatched_at: 0,
                issued_at: 0,
                completed_at: 0,
                committed_at: 0,
                packed: false,
                replayed: false,
            });
            self.retire(&rec, record)?;
            n += 1;
        }
        self.phase.warmup_insts += n;
        nwo_obs::span::add("insts", n);
        nwo_obs::span::record_external("oracle-step", self.oracle_span_ns, self.oracle_span_checks);
        Ok(n)
    }

    /// Runs the pipeline until the program halts or `max_insts`
    /// instructions commit, then produces the report.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, max_insts: u64) -> Result<SimReport, SimError> {
        let _prof = nwo_obs::span::span("measured-run");
        let start_cycle = self.cycle;
        self.phase.run_calls += 1;
        self.oracle_span_ns = 0;
        self.oracle_span_checks = 0;
        while !self.done && self.stats.committed < max_insts {
            if self.frontend.arch.halted() && self.window.is_empty() && self.ifq.is_empty() {
                // Warmup (or a restored checkpoint of one) consumed the
                // whole program including `halt`: nothing left to time.
                self.done = true;
                break;
            }
            self.cycle += 1;
            self.commit()?;
            self.writeback();
            self.issue();
            self.dispatch();
            self.fetch()?;
            if let Some(iv) = &self.interval {
                if self.cycle.is_multiple_of(iv.every) {
                    self.emit_interval();
                }
            }
            if self.cycle - self.last_commit_cycle > 200_000 {
                return Err(self.deadlock_error());
            }
        }
        self.stats.cycles = self.cycle;
        self.sink.flush();
        // A partial tail sample, so the stream always ends at the run's
        // last cycle.
        if self
            .interval
            .as_ref()
            .is_some_and(|iv| iv.last_cycle < self.cycle)
        {
            self.emit_interval();
        }
        if let Some(iv) = &mut self.interval {
            TraceSink::flush(&mut iv.sink);
        }
        nwo_obs::span::add("cycles", self.cycle - start_cycle);
        nwo_obs::span::record_external("oracle-step", self.oracle_span_ns, self.oracle_span_checks);
        Ok(self.report())
    }

    /// The architectural half of retiring `rec`, shared by warmup and
    /// commit: its `outb`/`outq` output, then — with the oracle on and
    /// `record` built — the lockstep check. The reference emulator
    /// executes the same instruction; any architectural disagreement
    /// aborts with a typed report instead of letting wrong statistics
    /// accumulate.
    fn retire(&mut self, rec: &ExecRecord, record: Option<CommitRecord>) -> Result<(), SimError> {
        match rec.instr.op {
            Opcode::Outb => self.out_bytes.push(rec.op_a as u8),
            Opcode::Outq => self.out_quads.push(rec.op_a),
            _ => {}
        }
        let (Some(oracle), Some(record)) = (self.oracle.as_mut(), record) else {
            return Ok(());
        };
        // Per-check timing is batched into the call-level accumulators
        // (see `oracle_span_ns`) — one clock pair per check, no
        // per-commit span guards.
        let t0 = nwo_obs::span::enabled().then(std::time::Instant::now);
        let checked = oracle.check_commit(record.committed_at, rec, record);
        if let Some(t0) = t0 {
            self.oracle_span_ns += t0.elapsed().as_nanos() as u64;
            self.oracle_span_checks += 1;
        }
        checked.map_err(SimError::Divergence)
    }

    /// Builds the [`SimError::Deadlock`] diagnostic: last-commit cycle,
    /// the stall attribution so far, the window-head instruction, and a
    /// pipeview of the most recent retained commits.
    fn deadlock_error(&self) -> SimError {
        let head = self.window.front().map(|e| {
            format!(
                "seq {} pc {:#x} {} (issued={}, completed={}, unresolved deps={})",
                e.seq, e.rec.pc, e.rec.instr, e.issued, e.completed, e.idep_remaining
            )
        });
        let records = self.sink.retained();
        let start = records.len().saturating_sub(8);
        let disasm = |_pc: u64, raw: u32| match nwo_isa::Instr::decode(raw) {
            Ok(i) => i.to_string(),
            Err(_) => format!("{raw:08x}"),
        };
        SimError::Deadlock {
            cycle: self.cycle,
            snapshot: Box::new(DeadlockSnapshot {
                last_commit_cycle: self.last_commit_cycle,
                stall: self.stats.stall.clone(),
                head,
                pipeview: nwo_obs::pipeview::render(&records[start..], &disasm),
            }),
        }
    }

    // ----------------------------------------------------------------
    // Fetch
    // ----------------------------------------------------------------

    fn fetch(&mut self) -> Result<(), SimError> {
        if self.done || self.cycle < self.fetch_resume {
            return Ok(());
        }
        if self.frontend.arch.halted() || self.frontend.stalled() {
            return Ok(());
        }
        let pc0 = self.frontend.arch.pc();
        // I-cache access for the first line of the group; a miss stalls
        // fetch for the full latency.
        let latency = self.hierarchy.inst_access(pc0);
        if latency > self.config.hierarchy.l1i.hit_latency {
            self.fetch_resume = self.cycle + latency;
            self.fetch_stall = StallCause::IcacheMiss;
            return Ok(());
        }
        // Table 1 specifies a flat 4-instructions/cycle fetch width; a
        // group may cross a cache-line boundary as long as the next line
        // also hits (a miss ends the group and stalls).
        let mut line = pc0 / self.config.hierarchy.l1i.block_bytes;
        let mut fetched = 0;
        while fetched < self.config.fetch_width && self.ifq.len() < self.config.ifq_size {
            let pc = self.frontend.arch.pc();
            if self.frontend.arch.halted() || self.frontend.stalled() {
                break;
            }
            let pc_line = pc / self.config.hierarchy.l1i.block_bytes;
            if pc_line != line {
                let latency = self.hierarchy.inst_access(pc);
                if latency > self.config.hierarchy.l1i.hit_latency {
                    self.fetch_resume = self.cycle + latency;
                    self.fetch_stall = StallCause::IcacheMiss;
                    break;
                }
                line = pc_line;
            }
            let was_spec = self.frontend.spec_mode();
            let Some(rec) = self.frontend.step() else {
                if self.frontend.stalled() || self.frontend.arch.halted() {
                    break;
                }
                // Correct-path bad fetch: a program error.
                return Err(SimError::BadFetch { pc });
            };
            let is_ctrl = rec.instr.op.is_control();
            let mut cinfo = None;
            let mut ras_cp = None;
            let mut dir_lookup = None;
            let mut pred_npc = pc.wrapping_add(4);
            if is_ctrl {
                let info = control_info(&rec);
                pred_npc = match &mut self.predictor {
                    None => rec.next_pc, // perfect prediction
                    Some(p) => {
                        let prediction = p.predict(pc, &info);
                        ras_cp = Some(p.ras_checkpoint());
                        dir_lookup = prediction.lookup;
                        if prediction.taken {
                            prediction.target.unwrap_or(pc.wrapping_add(4))
                        } else {
                            pc.wrapping_add(4)
                        }
                    }
                };
                cinfo = Some(info);
            }
            let mispredicted = is_ctrl && pred_npc != rec.next_pc;
            if self.sink.enabled() {
                let ev = TraceEvent::Fetch {
                    cycle: self.cycle,
                    pc: rec.pc,
                    raw: rec.instr.encode(),
                    spec: was_spec,
                };
                self.sink.emit(&ev);
            }
            self.ifq.push_back(Fetched {
                rec,
                spec: was_spec,
                mispredicted,
                cinfo,
                ras_cp,
                dir_lookup,
                fetched_at: self.cycle,
            });
            self.stats.fetched += 1;
            fetched += 1;
            if mispredicted {
                if !was_spec {
                    self.frontend.enter_spec();
                }
                self.frontend.set_pc(pred_npc);
            }
            if is_ctrl && pred_npc != pc.wrapping_add(4) {
                break; // a (predicted-)taken transfer ends the fetch group
            }
            if rec.instr.op == Opcode::Halt {
                break;
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Dispatch
    // ----------------------------------------------------------------

    fn dispatch(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.config.decode_width {
            if self.window.len() >= self.config.ruu_size {
                break;
            }
            let Some(front) = self.ifq.front() else { break };
            let is_mem = front.rec.mem_addr.is_some();
            if is_mem && self.lsq.len() >= self.config.lsq_size {
                break;
            }
            let fetched = self.ifq.pop_front().expect("checked non-empty");
            self.dispatch_one(fetched);
            dispatched += 1;
        }
    }

    fn dispatch_one(&mut self, fetched: Fetched) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let rec = fetched.rec;
        let op = rec.instr.op;
        let class = op.class();

        // Resolve source operands: timing dependencies plus width-tag and
        // load-provenance metadata.
        let (src_a, src_b, extra) = source_regs(&rec.instr);
        let (a_from_load, a_producer) = self.link_source(src_a, seq);
        let (b_from_load, b_producer) = self.link_source(src_b, seq);
        let (_, extra_producer) = self.link_source(extra, seq); // store data: timing only
        let idep = [a_producer, b_producer, extra_producer]
            .iter()
            .filter(|p| p.is_some())
            .count() as u8;
        // For stores, src_a is the base register: remember its producer
        // so loads can tell when this store's address is computable.
        let store_base_producer = if op.is_store() { a_producer } else { None };
        // A value that came from a load has an unknown width unless the
        // fill path zero-detects it.
        let tag = |value, from_load| {
            if from_load && !self.config.zero_detect_loads {
                WidthTag::unknown()
            } else {
                WidthTag::of(value)
            }
        };
        let (tag_a, tag_b) = (tag(rec.op_a, a_from_load), tag(rec.op_b, b_from_load));

        let entry = RuuEntry {
            seq,
            rec,
            class,
            spec: fetched.spec,
            idep_remaining: idep,
            odeps: Vec::new(),
            tag_a,
            tag_b,
            from_load: a_from_load || b_from_load,
            fetched_at: fetched.fetched_at,
            dispatched_at: self.cycle,
            issued_at: 0,
            earliest_issue: self.cycle + 1,
            issued: false,
            in_group: false,
            completed: false,
            complete_at: u64::MAX,
            dmiss: false,
            mispredicted: fetched.mispredicted,
            cinfo: fetched.cinfo,
            ras_cp: fetched.ras_cp,
            dir_lookup: fetched.dir_lookup,
            store_base_producer,
            replay_wide: None,
            replay_attempted: false,
        };
        if let Some(dest) = entry.dest() {
            self.rename[dest.index() as usize] = Some(seq);
        }
        if entry.rec.mem_addr.is_some() {
            self.lsq.push_back(seq);
        }
        let pc = entry.rec.pc;
        self.window.push_back(entry);
        self.stats.dispatched += 1;
        if self.sink.enabled() {
            let ev = TraceEvent::Dispatch {
                cycle: self.cycle,
                pc,
            };
            self.sink.emit(&ev);
        }
    }

    /// Looks up source register `reg` of the instruction dispatching as
    /// `seq`: whether its value comes from a load, and its producer if
    /// that is still in flight, which then lists `seq` as a consumer to
    /// wake at writeback.
    fn link_source(&mut self, reg: Option<Reg>, seq: u64) -> (bool, Option<u64>) {
        let Some(r) = reg.filter(|r| !r.is_zero()) else {
            return (false, None);
        };
        let r = r.index() as usize;
        let Some(pseq) = self.rename[r] else {
            return (self.committed_from_load[r], None);
        };
        let p = self.entry_mut(pseq).expect("rename points into window");
        if p.completed {
            return (p.is_load(), None);
        }
        p.odeps.push(seq);
        (p.is_load(), Some(pseq))
    }

    // ----------------------------------------------------------------
    // Issue
    // ----------------------------------------------------------------

    fn issue(&mut self) {
        #[derive(Debug)]
        struct OpenGroup {
            opcode: Opcode,
            members: usize,
            has_replay: bool,
            leader_idx: usize,
        }
        let pack_config = self.config.pack_config();
        let degree = pack_config.map_or(1, |p| p.degree);
        let gating = self.config.gating_config();
        // Packing runs gate nothing; every other run is power-accounted.
        let power_gating = pack_config.is_none();

        let mut slots = 0usize;
        let mut alus = 0usize;
        let mut muldiv_issued = 0usize;
        let mut groups: Vec<OpenGroup> = Vec::new();

        for idx in 0..self.window.len() {
            // Stop when neither a fresh slot nor any open group remains.
            let group_capacity = groups.iter().any(|g| g.members < degree);
            if slots >= self.config.issue_width && !group_capacity {
                break;
            }
            let e = &self.window[idx];
            if !e.ready() || e.earliest_issue > self.cycle {
                continue;
            }
            let op = e.rec.instr.op;
            let class = e.class;

            // Multiply/divide unit.
            if matches!(class, OpClass::Mult | OpClass::Div) {
                if slots >= self.config.issue_width
                    || muldiv_issued >= INT_MULDIV
                    || self.cycle < self.muldiv_busy_until
                {
                    continue;
                }
                slots += 1;
                muldiv_issued += 1;
                let latency = if class == OpClass::Div {
                    self.muldiv_busy_until = self.cycle + DIV_LATENCY;
                    DIV_LATENCY
                } else {
                    MULT_LATENCY
                };
                self.issue_entry(idx, self.cycle + latency, gating, power_gating);
                continue;
            }

            // Loads: memory-ordering checks against the LSQ.
            if class == OpClass::Load {
                if slots >= self.config.issue_width || alus >= self.config.int_alus {
                    continue;
                }
                let action = self.load_action(idx);
                let complete_at = match action {
                    LoadAction::Wait => continue,
                    LoadAction::Forward => self.cycle + ALU_LATENCY + 1,
                    LoadAction::Access => {
                        let addr = self.window[idx].rec.mem_addr.expect("load has address");
                        let lat = self.hierarchy.data_access(addr, false);
                        self.window[idx].dmiss = lat > self.config.hierarchy.l1d.hit_latency;
                        self.cycle + ALU_LATENCY + lat
                    }
                };
                slots += 1;
                alus += 1;
                self.issue_entry(idx, complete_at, gating, power_gating);
                continue;
            }

            // Everything else executes on an ALU with unit latency:
            // arithmetic, logic, shifts, stores (EA), branches, jumps,
            // system ops.
            let complete_at = self.cycle + ALU_LATENCY;

            // Operation packing (Section 5.2/5.3): `candidate` is `Some`
            // for a packing candidate, holding the wide operand a
            // replay-mode one speculates on.
            let mut candidate = None;
            if let Some(pc_cfg) = pack_config {
                let e = &self.window[idx];
                let exact = !e.replay_attempted && can_pack(op, e.tag_a, e.tag_b, &pc_cfg);
                let confident = self.replay_confidence.get(&e.rec.pc).copied().unwrap_or(2) >= 2;
                let replay = if !exact && pc_cfg.replay && !e.replay_attempted && confident {
                    replay_candidate(op, e.tag_a, e.tag_b)
                } else {
                    None
                };
                if exact || replay.is_some() {
                    candidate = Some(replay);
                }
            }
            // A candidate joins an open group of its opcode without a
            // slot of its own; a group takes at most one replay member.
            let joined = candidate.and_then(|replay| {
                groups.iter_mut().find(|g| {
                    g.opcode == op && g.members < degree && (replay.is_none() || !g.has_replay)
                })
            });
            if let Some(g) = joined {
                g.members += 1;
                g.has_replay |= candidate.flatten().is_some();
                self.window[idx].in_group = true;
            } else {
                if slots >= self.config.issue_width || alus >= self.config.int_alus {
                    continue;
                }
                slots += 1;
                alus += 1;
                // Any candidate may open a new group (it pays for the
                // slot and ALU like a normal op, so leading is free); a
                // replay-mode leader occupies the group's single
                // wide-operand bypass path. A replay leader whose group
                // stays a singleton is un-speculated at the tally below:
                // alone, its lane spans the whole adder and there is
                // nothing to speculate on.
                if let Some(replay) = candidate {
                    groups.push(OpenGroup {
                        opcode: op,
                        members: 1,
                        has_replay: replay.is_some(),
                        leader_idx: idx,
                    });
                }
            }
            if let Some(wide) = candidate.flatten() {
                self.window[idx].replay_wide = Some(wide);
                self.stats.pack.replay_issued += 1;
            }
            self.issue_entry(idx, complete_at, gating, power_gating);
        }

        // Occupancy accounting.
        if self.stats.occupancy.issue_slots.len() != self.config.issue_width + 1 {
            self.stats.occupancy.issue_slots = vec![0; self.config.issue_width + 1];
        }
        self.stats.occupancy.issue_slots[slots.min(self.config.issue_width)] += 1;
        self.stats.occupancy.alu_sum += alus as u64;
        self.stats.occupancy.ruu_sum += self.window.len() as u64;

        for g in &groups {
            if g.members >= 2 {
                self.stats.pack.groups += 1;
                self.stats.pack.packed_ops += g.members as u64;
                self.stats.pack.slots_saved += (g.members - 1) as u64;
                self.window[g.leader_idx].in_group = true;
                if self.sink.enabled() {
                    let ev = TraceEvent::Pack {
                        cycle: self.cycle,
                        leader_pc: self.window[g.leader_idx].rec.pc,
                        members: g.members.min(u8::MAX as usize) as u8,
                        replay: g.has_replay,
                    };
                    self.sink.emit(&ev);
                }
            } else if self.window[g.leader_idx].replay_wide.is_some() {
                // A replay candidate that attracted no partner issues
                // full-width: the lone lane spans the whole adder, so
                // there is nothing to speculate on.
                self.window[g.leader_idx].replay_wide = None;
                self.stats.pack.replay_issued -= 1;
            }
        }
    }

    /// Marks entry `idx` issued and records execution statistics.
    fn issue_entry(
        &mut self,
        idx: usize,
        complete_at: u64,
        gating: nwo_core::GatingConfig,
        power_gating: bool,
    ) {
        let cycle = self.cycle;
        let e = &mut self.window[idx];
        e.issued = true;
        e.issued_at = cycle;
        e.complete_at = complete_at;
        self.stats.issued += 1;

        // Power accounting: what would the gating hardware do for this
        // operation? (Timing-neutral, so we account on every run where
        // packing is off; packing runs gate nothing.)
        let level = if power_gating {
            gate_level(e.tag_a, e.tag_b, &gating)
        } else {
            GateLevel::Full
        };
        self.stats.power.record_op(e.class, level);
        if level != GateLevel::Full {
            self.stats.gated_ops += 1;
            if e.from_load {
                self.stats.gated_ops_with_load_operand += 1;
            }
        }

        // A replay re-issue was counted at its first issue.
        if !e.replay_attempted {
            let (a, b) = (e.rec.op_a, e.rec.op_b);
            let class = e.class;
            let pc = e.rec.pc;
            self.stats.breakdown.record(class, a, b);
            if has_two_operands(class) {
                self.stats.width_executed.record(a, b);
                self.stats.fluctuation.record(pc, a, b);
            }
        }
        if self.sink.enabled() {
            let e = &self.window[idx];
            let ev = TraceEvent::Issue {
                cycle,
                pc: e.rec.pc,
                packed: e.in_group,
                replay: e.replay_wide.is_some(),
            };
            self.sink.emit(&ev);
        }
    }

    /// Decides whether the load at window index `idx` may proceed.
    fn load_action(&self, idx: usize) -> LoadAction {
        let load = &self.window[idx];
        let load_addr = load.rec.mem_addr.expect("load has an address");
        let load_len = access_bytes(load.rec.instr.op);
        let mut action = LoadAction::Access;
        for &seq in &self.lsq {
            if seq >= load.seq {
                break;
            }
            let e = self.entry(seq).expect("LSQ seq in window");
            if !e.is_store() {
                continue;
            }
            let addr_known = match e.store_base_producer {
                None => true,
                Some(pseq) => self.entry(pseq).is_none_or(|p| p.completed),
            };
            if !addr_known {
                // Unknown store address: conservatively wait.
                return LoadAction::Wait;
            }
            let st_addr = e.rec.mem_addr.expect("store has an address");
            let st_len = access_bytes(e.rec.instr.op);
            let overlap = st_addr < load_addr.wrapping_add(load_len)
                && load_addr < st_addr.wrapping_add(st_len);
            if !overlap {
                continue;
            }
            let covers = st_addr <= load_addr
                && st_addr.wrapping_add(st_len) >= load_addr.wrapping_add(load_len);
            if covers && e.completed {
                action = LoadAction::Forward; // youngest older match wins
            } else {
                return LoadAction::Wait;
            }
        }
        action
    }

    // ----------------------------------------------------------------
    // Writeback
    // ----------------------------------------------------------------

    fn writeback(&mut self) {
        // Complete this cycle's finished ops in age order. A recovery
        // only truncates entries younger than its branch, so the walk
        // simply ends sooner.
        let mut next = 0;
        while next < self.window.len() {
            let idx = next;
            next += 1;
            let e = &mut self.window[idx];
            if !e.issued || e.completed || e.complete_at > self.cycle {
                continue;
            }

            // Replay-packing squash: the carry rippled past bit 15, so
            // this op re-issues full-width after the replay penalty
            // (Section 5.3's "replay traps").
            if let Some(wide) = e.replay_wide {
                let (op, a, b, pc) = (e.rec.instr.op, e.rec.op_a, e.rec.op_b, e.rec.pc);
                e.replay_wide = None;
                e.replay_attempted = true;
                let mispredicted = replay_mispredicts(op, a, b, wide);
                let conf = self.replay_confidence.entry(pc).or_insert(2);
                if mispredicted {
                    *conf = 0;
                } else {
                    *conf = (*conf + 1).min(3);
                }
                if mispredicted {
                    let e = &mut self.window[idx];
                    e.issued = false;
                    e.complete_at = u64::MAX;
                    e.earliest_issue = self.cycle + REPLAY_PENALTY;
                    self.stats.pack.replay_squashed += 1;
                    if self.sink.enabled() {
                        let ev = TraceEvent::ReplaySquash {
                            cycle: self.cycle,
                            pc,
                            penalty: REPLAY_PENALTY,
                        };
                        self.sink.emit(&ev);
                    }
                    continue;
                }
            }

            let e = &mut self.window[idx];
            e.completed = true;
            if self.sink.enabled() {
                let ev = TraceEvent::Writeback {
                    cycle: self.cycle,
                    pc: self.window[idx].rec.pc,
                };
                self.sink.emit(&ev);
            }
            // Wake consumers.
            let odeps = std::mem::take(&mut self.window[idx].odeps);
            for dep in odeps {
                if let Some(didx) = self.index_of(dep) {
                    let d = &mut self.window[didx];
                    debug_assert!(d.idep_remaining > 0, "dependency count underflow");
                    d.idep_remaining -= 1;
                }
            }
            // Branch resolution and misprediction recovery.
            let e = &self.window[idx];
            if e.mispredicted {
                let bseq = e.seq;
                let spec = e.spec;
                let pc = e.rec.pc;
                let target = e.rec.next_pc;
                let taken = e.rec.taken;
                let ras_cp = e.ras_cp;
                let dir_lookup = e.dir_lookup;
                if !spec {
                    self.stats.branch.mispredicts += 1;
                }
                if self.sink.enabled() {
                    let ev = TraceEvent::BranchMispredict {
                        cycle: self.cycle,
                        pc,
                        target,
                    };
                    self.sink.emit(&ev);
                }
                if let (Some(p), Some(lu)) = (&mut self.predictor, &dir_lookup) {
                    // Restore the speculative history to this branch's
                    // snapshot and shift in the actual outcome; younger
                    // (squashed) shifts vanish with it.
                    p.repair(lu, taken);
                }
                self.recover(bseq, spec, target, ras_cp);
            }
        }
    }

    /// Squashes everything younger than `bseq` and redirects fetch.
    fn recover(&mut self, bseq: u64, spec: bool, target: u64, ras_cp: Option<RasCheckpoint>) {
        // Drop younger window entries.
        while let Some(back) = self.window.back() {
            if back.seq <= bseq {
                break;
            }
            self.window.pop_back();
            self.stats.squashed += 1;
        }
        self.lsq.retain(|&s| s <= bseq);
        self.stats.squashed += self.ifq.len() as u64;
        self.ifq.clear();
        self.next_seq = bseq + 1;
        // Rebuild the rename table and purge dangling consumer edges.
        self.rename = [None; 32];
        for i in 0..self.window.len() {
            self.window[i].odeps.retain(|&s| s <= bseq);
            if let Some(dest) = self.window[i].dest() {
                let seq = self.window[i].seq;
                self.rename[dest.index() as usize] = Some(seq);
            }
        }
        // Redirect the front end.
        if spec {
            // A wrong-path branch resolved: follow its (wrong-path)
            // computed target, still speculative.
            self.frontend.set_pc(target);
        } else {
            self.frontend.recover(target);
        }
        if let (Some(p), Some(cp)) = (&mut self.predictor, ras_cp) {
            p.ras_restore(cp);
        }
        self.fetch_resume = self
            .fetch_resume
            .max(self.cycle + 1 + self.config.mispredict_penalty);
        self.fetch_stall = StallCause::MispredictRecovery;
    }

    // ----------------------------------------------------------------
    // Commit
    // ----------------------------------------------------------------

    fn commit(&mut self) -> Result<(), SimError> {
        let mut retired = 0u64;
        for _ in 0..self.config.commit_width {
            let Some(front) = self.window.front() else {
                break;
            };
            if !front.completed {
                break;
            }
            debug_assert!(!front.spec, "wrong-path instruction reached commit");
            let mut e = self.window.pop_front().expect("checked non-empty");
            if self.lsq.front().is_some_and(|&s| s == e.seq) {
                self.lsq.pop_front();
            }
            // An armed datapath fault fires at the first eligible
            // commit, corrupting a gated upper bit of the value being
            // architecturally retired — exactly the silent-corruption
            // scenario the oracle exists to catch.
            if let Some(fault) = self.pending_fault {
                if self.stats.committed >= fault.commit_index {
                    let fired = if let Some(v) = e.rec.result {
                        e.rec.result = Some(fault.apply(v));
                        true
                    } else if let Some(v) = e.rec.store_value {
                        e.rec.store_value = Some(fault.apply(v));
                        true
                    } else {
                        false
                    };
                    if fired {
                        self.pending_fault = None;
                    }
                }
            }
            // Stores write the data cache at commit.
            if e.is_store() {
                let addr = e.rec.mem_addr.expect("store has an address");
                self.hierarchy.data_access(addr, true);
                // Section 6 extension: a known-narrow store value gates
                // the data-array write and the bus transfer.
                let value = e.rec.store_value.expect("store has data");
                self.stats
                    .mem_ext
                    .record_store(access_bytes(e.rec.instr.op), nwo_core::is_narrow(value, 16));
            }
            if e.is_load() {
                // Loads can gate only the result-bus transfer, and only
                // when the fill path performs zero-detect.
                let value = e.rec.result.expect("load has a result");
                let narrow = self.config.zero_detect_loads && nwo_core::is_narrow(value, 16);
                self.stats
                    .mem_ext
                    .record_load(access_bytes(e.rec.instr.op), narrow);
            }
            // Architected per-register metadata.
            if let Some(dest) = e.dest() {
                let r = dest.index() as usize;
                self.committed_from_load[r] = e.is_load();
                if self.rename[r] == Some(e.seq) {
                    self.rename[r] = None;
                }
            }
            // Train the predictor with architected outcomes.
            if let Some(cinfo) = &e.cinfo {
                self.stats.branch.committed += 1;
                if cinfo.is_cond {
                    self.stats.branch.cond_committed += 1;
                }
                if let Some(p) = &mut self.predictor {
                    p.update(
                        e.rec.pc,
                        cinfo,
                        e.rec.taken,
                        e.rec.next_pc,
                        e.dir_lookup.as_ref(),
                    );
                }
            }
            // The commit record is built only when a sink or the oracle
            // reads it; output side effects are architectural, so they
            // happen here, at commit time, either way.
            let record = if self.sink.enabled() || self.oracle.is_some() {
                let record = CommitRecord {
                    seq: self.stats.committed,
                    pc: e.rec.pc,
                    raw: e.rec.instr.encode(),
                    fetched_at: e.fetched_at,
                    dispatched_at: e.dispatched_at,
                    issued_at: e.issued_at,
                    completed_at: e.complete_at,
                    committed_at: self.cycle,
                    packed: e.in_group,
                    replayed: e.replay_attempted,
                };
                if self.sink.enabled() {
                    self.sink.emit(&TraceEvent::Commit(record));
                }
                Some(record)
            } else {
                None
            };
            self.retire(&e.rec, record)?;
            self.stats.committed += 1;
            retired += 1;
            self.last_commit_cycle = self.cycle;
            if has_two_operands(e.class) {
                self.stats.width_committed.record(e.rec.op_a, e.rec.op_b);
            }
            if e.rec.instr.op == Opcode::Halt {
                self.done = true;
                break;
            }
        }
        // Stall attribution: charge every lost commit slot of this cycle
        // to a single cause, so that over a whole run
        // `sum(stall slots) == commit_width * cycles - committed` exactly.
        let width = self.config.commit_width as u64;
        if retired < width {
            let cause = self.stall_cause();
            let lost = width - retired;
            self.stats.stall.charge(cause, lost);
            // Attribute the lost slots to the instruction blocking
            // commit — the window head — or, with an empty window,
            // to the PC fetch is (re)starting from.
            let pc = self
                .window
                .front()
                .map(|e| e.rec.pc)
                .unwrap_or_else(|| self.frontend.arch.pc());
            if let Some(pcs) = self.stall_pcs.as_mut() {
                pcs.entry(pc).or_default().charge(cause, lost);
            }
        }
        Ok(())
    }

    /// Names the bottleneck of a cycle whose commit stage retired fewer
    /// than `commit_width` instructions. Top-down CPI-stack style: the
    /// oldest instruction in the window — or the empty window itself —
    /// speaks for the whole cycle.
    fn stall_cause(&self) -> StallCause {
        if self.done {
            return StallCause::Drain;
        }
        let Some(front) = self.window.front() else {
            // Empty window: the front end owns the stall.
            if self.frontend.arch.halted() && self.ifq.is_empty() {
                return StallCause::Drain;
            }
            if self.cycle < self.fetch_resume {
                return self.fetch_stall; // IcacheMiss or MispredictRecovery
            }
            return StallCause::Frontend;
        };
        if !front.issued {
            if front.replay_attempted && front.earliest_issue >= self.cycle {
                return StallCause::ReplayPenalty;
            }
            if front.idep_remaining > 0 {
                return StallCause::TrueDependency;
            }
            if front.is_load() && self.load_action(0) == LoadAction::Wait {
                // Blocked behind an older store: a memory dependency.
                return StallCause::TrueDependency;
            }
            if front.earliest_issue >= self.cycle {
                // Freshly dispatched: still filling the pipeline.
                return StallCause::Frontend;
            }
            // Ready and old enough, yet not picked: structural.
            return StallCause::FuContention;
        }
        if !front.completed {
            if front.dmiss {
                return StallCause::DcacheMiss;
            }
            if self.window.len() >= self.config.ruu_size {
                return StallCause::RuuFull;
            }
            if self.lsq.len() >= self.config.lsq_size {
                return StallCause::LsqFull;
            }
            return StallCause::ExecLatency;
        }
        // Front completed but the cycle still lost slots: commit stopped
        // mid-width (a `halt` retired, handled above) or the window ran
        // dry behind the retired burst.
        StallCause::Frontend
    }

    // ----------------------------------------------------------------
    // Window helpers
    // ----------------------------------------------------------------

    fn index_of(&self, seq: u64) -> Option<usize> {
        let front = self.window.front()?.seq;
        if seq < front {
            return None;
        }
        let idx = (seq - front) as usize;
        (idx < self.window.len()).then_some(idx)
    }

    fn entry(&self, seq: u64) -> Option<&RuuEntry> {
        self.index_of(seq).map(|i| &self.window[i])
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut RuuEntry> {
        self.index_of(seq).map(|i| &mut self.window[i])
    }
}

/// Classes whose records carry two meaningful source-operand values
/// (the population of Figures 1 and 2).
fn has_two_operands(class: OpClass) -> bool {
    matches!(
        class,
        OpClass::IntArith
            | OpClass::Logic
            | OpClass::Shift
            | OpClass::Mult
            | OpClass::Div
            | OpClass::Load
            | OpClass::Store
    )
}

/// Extracts the predictor-facing description of a control instruction.
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

/// The source registers feeding operand slots a and b, plus the extra
/// (timing-only) dependency for store data.
fn source_regs(instr: &nwo_isa::Instr) -> (Option<Reg>, Option<Reg>, Option<Reg>) {
    let op = instr.op;
    match op.format() {
        Format::Operate => {
            let b = match instr.b {
                OperandB::Reg(r) => Some(r),
                OperandB::Lit(_) => None,
            };
            // Conditional moves read the old destination value.
            let extra = op.is_cmov().then_some(instr.rc);
            (Some(instr.ra), b, extra)
        }
        Format::Memory => {
            let data = op.is_store().then_some(instr.ra);
            (Some(instr.rb()), None, data)
        }
        Format::Branch => match op {
            Opcode::Br | Opcode::Bsr => (None, None, None),
            _ => (Some(instr.ra), None, None),
        },
        Format::Jump => (Some(instr.rb()), None, None),
        Format::System => match op {
            Opcode::Outb | Opcode::Outq => (Some(instr.ra), None, None),
            _ => (None, None, None),
        },
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit Table 1 tweaks read better
mod tests {
    use super::*;
    use nwo_core::PackConfig;
    use nwo_isa::assemble;

    fn run_src(src: &str, config: SimConfig) -> SimReport {
        let prog = assemble(src).expect("assembles");
        let mut sim = Simulator::new(&prog, config);
        let report = sim.run(u64::MAX).expect("runs to halt");
        assert!(sim.finished(), "runs to halt");
        report
    }

    #[test]
    fn trivial_program_commits_and_halts() {
        let r = run_src("main: li t0, 42\n outq t0\n halt", SimConfig::default());
        assert_eq!(r.out_quads, [42]);
        assert_eq!(r.stats.committed, 3);
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn loop_produces_correct_architected_output() {
        let src = concat!(
            "main: clr t0\n li t1, 100\n",
            "loop: addq t0, t1, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let r = run_src(src, SimConfig::default());
        assert_eq!(r.out_quads, [5050]);
    }

    #[test]
    fn perfect_prediction_never_recovers() {
        let src = concat!(
            "main: clr t0\n li t1, 50\n",
            "loop: addq t0, t1, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let r = run_src(src, SimConfig::default().with_perfect_prediction());
        assert_eq!(r.stats.branch.mispredicts, 0);
        assert_eq!(r.stats.squashed, 0);
        assert_eq!(r.out_quads, [1275]);
    }

    #[test]
    fn realistic_prediction_recovers_but_stays_correct() {
        // A data-dependent unpredictable branch pattern.
        let src = concat!(
            "main: clr t0\n clr t2\n li t1, 64\n",
            "loop: and t1, 5, t3\n",
            " beq t3, skip\n",
            " addq t0, 1, t0\n",
            "skip: addq t2, t1, t2\n",
            " subq t1, 1, t1\n",
            " bgt t1, loop\n",
            " outq t0\n outq t2\n halt"
        );
        let perfect = run_src(src, SimConfig::default().with_perfect_prediction());
        let real = run_src(src, SimConfig::default());
        assert_eq!(perfect.out_quads, real.out_quads, "outputs must agree");
        assert!(real.stats.branch.mispredicts > 0, "pattern must mispredict");
        assert!(real.stats.squashed > 0);
        assert!(
            real.stats.cycles >= perfect.stats.cycles,
            "mispredictions cannot speed things up"
        );
    }

    #[test]
    fn memory_dependencies_respected() {
        // Store then immediately load the same location.
        let src = concat!(
            ".data\nbuf: .space 64\n.text\n",
            "main: la t0, buf\n li t1, 1234\n",
            " stq t1, 8(t0)\n",
            " ldq t2, 8(t0)\n",
            " outq t2\n halt"
        );
        let r = run_src(src, SimConfig::default());
        assert_eq!(r.out_quads, [1234]);
    }

    #[test]
    fn wide_decode_config_runs() {
        let src = concat!(
            "main: clr t0\n li t1, 30\n",
            "loop: addq t0, 3, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let r = run_src(src, SimConfig::default().with_wide_decode());
        assert_eq!(r.out_quads, [90]);
    }

    #[test]
    fn packing_preserves_architecture() {
        // Independent narrow adds that should pack.
        let src = concat!(
            "main: li t0, 1\n li t1, 2\n li t2, 3\n li t3, 4\n",
            " addq t0, 10, t4\n addq t1, 10, t5\n addq t2, 10, t6\n addq t3, 10, t7\n",
            " addq t4, t5, t4\n addq t6, t7, t6\n addq t4, t6, t4\n",
            " outq t4\n halt"
        );
        let base = run_src(src, SimConfig::default());
        let packed = run_src(
            src,
            SimConfig::default().with_packing(PackConfig::default()),
        );
        assert_eq!(base.out_quads, packed.out_quads);
        assert_eq!(packed.out_quads, [50]);
        assert!(packed.stats.pack.groups > 0, "narrow adds should pack");
    }

    #[test]
    fn replay_packing_squashes_on_carry() {
        // One operand wide with a low half that forces a carry.
        let src = concat!(
            "main: li t0, 0xffff\n",
            " sll t0, 16, t1\n", // t1 = 0xffff_0000
            " bis t1, t0, t1\n", // t1 = 0xffff_ffff (low 16 all ones)
            " li t2, 7\n",
            // Two same-opcode adds: one packable pair where the replay
            // member (wide t1 + narrow) must carry out of bit 15.
            " addq t2, 1, t3\n addq t1, t2, t4\n",
            " outq t4\n halt"
        );
        let r = run_src(
            src,
            SimConfig::default().with_packing(PackConfig::with_replay()),
        );
        assert_eq!(r.out_quads, [0xffff_ffffu64 + 7]);
        if r.stats.pack.replay_issued > 0 {
            assert_eq!(r.stats.pack.replay_squashed, r.stats.pack.replay_issued);
        }
    }

    #[test]
    fn warmup_trains_state_without_committing() {
        let src = concat!(
            "main: clr t0\n li t1, 40\n",
            "loop: addq t0, t1, t0\n subq t1, 1, t1\n bgt t1, loop\n",
            " outq t0\n halt"
        );
        let prog = assemble(src).unwrap();
        let mut sim = Simulator::new(&prog, SimConfig::default());
        let warmed = sim.warmup(50).unwrap();
        assert_eq!(warmed, 50);
        let warm = sim.report();
        assert_eq!(warm.stats.committed, 0);
        assert!(warm.hierarchy.l1i.accesses() > 0);
        // Detailed simulation picks up where warmup left off.
        let r = sim.run(u64::MAX).unwrap();
        assert!(sim.finished());
        assert_eq!(r.out_quads, [820]);
    }

    /// Only the no-commit guard stops a hung pipeline, so its diagnostic
    /// must say where commit stood: built here from a loop stopped
    /// partway, the way the guard builds it.
    #[test]
    fn deadlock_error_renders_its_diagnostics() {
        let prog = assemble("main: clr t0\nloop: addq t0, 1, t0\n br loop").unwrap();
        let mut sim = Simulator::new(&prog, SimConfig::default());
        sim.set_trace_sink(Box::new(nwo_obs::RingSink::keep_last(16)));
        sim.run(200).unwrap();
        let text = sim.deadlock_error().to_string();
        let mut lines = text.lines();
        let mut next = || lines.next().expect("diagnostic line");
        assert_eq!(
            next(),
            format!("pipeline deadlock detected at cycle {}", sim.cycle)
        );
        assert_eq!(
            next(),
            format!("last commit at cycle {}", sim.last_commit_cycle)
        );
        let head = sim.window.front().expect("the loop keeps the window busy");
        let head_line = next();
        assert!(
            head_line.starts_with(&format!(
                "window head: seq {} pc {:#x} {} (issued=",
                head.seq, head.rec.pc, head.rec.instr
            )),
            "{head_line}"
        );
        // The causes with slots, most slots first.
        let stall_line = next();
        let causes: Vec<(&str, u64)> = stall_line
            .strip_prefix("stall slots so far:")
            .unwrap_or_else(|| panic!("{stall_line}"))
            .split_whitespace()
            .map(|c| {
                let (name, slots) = c.split_once('=').expect("cause=slots");
                (name, slots.parse().expect("slot count"))
            })
            .collect();
        assert!(causes.len() >= 2, "{stall_line}");
        for &(name, slots) in &causes {
            let cause = StallCause::ALL.into_iter().find(|c| c.name() == name);
            assert_eq!(sim.stats.stall.get(cause.expect(name)), slots, "{name}");
        }
        assert!(causes.windows(2).all(|w| w[0].1 >= w[1].1), "{stall_line}");
        // A pipeview of the last eight of the sixteen retained commits.
        let retained = sim.trace();
        assert_eq!(retained.len(), 16);
        assert!(next().starts_with("pipeview: 8 instructions"));
        let rows: Vec<&str> = lines.skip(1).collect();
        assert_eq!(rows.len(), 8, "{text}");
        for (row, r) in rows.iter().zip(&retained[8..]) {
            assert!(
                row.starts_with(&format!("{:>4} {:08x}  ", r.seq, r.pc)),
                "{row}"
            );
        }
    }

    #[test]
    fn run_with_instruction_budget_stops_early() {
        let src = concat!("main: clr t0\n", "loop: addq t0, 1, t0\n br loop");
        let prog = assemble(src).unwrap();
        let mut sim = Simulator::new(&prog, SimConfig::default());
        let r = sim.run(1000).unwrap();
        assert!(r.stats.committed >= 1000);
        assert!(!sim.finished());
    }

    #[test]
    fn bad_fetch_on_correct_path_is_an_error() {
        let prog = assemble("main: nop").unwrap();
        let mut sim = Simulator::new(&prog, SimConfig::default());
        let err = sim.run(u64::MAX).unwrap_err();
        assert!(matches!(err, SimError::BadFetch { .. }));
    }

    #[test]
    fn width_stats_collected() {
        let r = run_src(
            "main: li t0, 17\n addq t0, 2, t1\n outq t1\n halt",
            SimConfig::default(),
        );
        assert!(r.stats.width_committed.total() > 0);
        assert!(r.stats.width_executed.total() > 0);
        assert!(r.stats.breakdown.total_instructions > 0);
        // The add of 17+2 is a narrow op; cumulative at 16 must be > 0.
        assert!(r.stats.width_committed.cumulative(16) > 0.0);
    }

    #[test]
    fn gating_stats_collected_on_baseline_run() {
        let r = run_src(
            "main: li t0, 17\n addq t0, 2, t1\n outq t1\n halt",
            SimConfig::default(),
        );
        assert!(r.power().baseline_mw_per_cycle > 0.0);
        assert!(r.stats.gated_ops > 0, "17+2 gates at 16 bits");
    }

    #[test]
    fn cmov_old_value_dependency_is_honoured() {
        // The cmov must wait for BOTH the condition and the old value of
        // its destination; a long-latency producer of the old value must
        // not be bypassed.
        let src = concat!(
            "main: li t0, 21\n",
            " mulq t0, 2, t1\n", // t1 = 42, 3-cycle latency
            " clr t2\n",
            " cmovne t2, zero, t1\n", // condition false: t1 stays 42
            " cmoveq t2, t0, t3\n",   // condition true: t3 = 21
            " addq t1, t3, v0\n",
            " outq v0\n halt"
        );
        let r = run_src(src, SimConfig::default());
        assert_eq!(r.out_quads, [63]);
        let p = run_src(
            src,
            SimConfig::default().with_packing(PackConfig::with_replay()),
        );
        assert_eq!(p.out_quads, [63]);
    }

    #[test]
    fn function_calls_use_ras() {
        let src = concat!(
            "main: li a0, 3\n call f\n mov v0, s0\n",
            " li a0, 4\n call f\n addq s0, v0, v0\n",
            " outq v0\n halt\n",
            "f: mulq a0, a0, v0\n ret"
        );
        let r = run_src(src, SimConfig::default());
        assert_eq!(r.out_quads, [25]);
        let ps = r.predictor.unwrap();
        assert!(ps.ras_pops > 0);
    }
}
