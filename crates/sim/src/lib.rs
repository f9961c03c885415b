#![warn(missing_docs)]

//! Cycle-level out-of-order processor simulator — the SimpleScalar
//! `sim-outorder` equivalent the paper's evaluation runs on, extended in
//! its decode and issue stages with the narrow-width mechanisms:
//!
//! * **dispatch** computes operand width tags and stores them in the RUU
//!   ("In decode, bitwidths are calculated for dynamic data and stored in
//!   the reservation station entry", Section 3.1);
//! * **issue** packs ready narrow-width operations of the same opcode
//!   into shared ALUs (Section 5), optionally with replay speculation;
//! * **writeback/issue** account operand-based clock gating power
//!   (Section 4) — timing-neutral, so every run carries power numbers.
//!
//! # Example
//!
//! ```
//! use nwo_isa::assemble;
//! use nwo_sim::{Simulator, SimConfig};
//!
//! let program = assemble(r#"
//!     main:
//!         clr  t0
//!         li   t1, 10
//!     loop:
//!         addq t0, t1, t0
//!         subq t1, 1, t1
//!         bgt  t1, loop
//!         outq t0
//!         halt
//! "#)?;
//! let mut sim = Simulator::new(&program, SimConfig::default());
//! let report = sim.run(1_000_000)?;
//! assert_eq!(report.out_quads, vec![55]);
//! assert!(report.ipc() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod frontend;
mod machine;
mod report;
mod stats;

pub use config::{
    validate_output_parent, ConfigError, Optimization, PredictorChoice, SimConfig, MAX_TRACE_LIMIT,
};
pub use machine::{DeadlockSnapshot, Machine, SimError, TraceRecord};
pub use nwo_ckpt as ckpt;
pub use nwo_obs as obs;
pub use nwo_verify as verify;
pub use report::SimReport;
pub use stats::{
    class_slot, BranchStats, FluctuationTracker, NarrowBreakdown, PackStats, SimStats,
    WidthHistogram, CLASS_SLOT_NAMES,
};

use nwo_isa::Program;

/// High-level driver: construct, optionally warm up, run, report.
#[derive(Debug)]
pub struct Simulator {
    machine: Machine,
}

impl Simulator {
    /// Builds a simulator for `program` under `config`.
    pub fn new(program: &Program, config: SimConfig) -> Simulator {
        Simulator {
            machine: Machine::new(program, config),
        }
    }

    /// Fast-forwards `insts` instructions functionally (warming caches
    /// and the branch predictor) before detailed simulation — the
    /// paper's Section 3.2 methodology.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::BadFetch`] for ill-formed programs.
    pub fn warmup(&mut self, insts: u64) -> Result<u64, SimError> {
        self.machine.warmup(insts)
    }

    /// Runs until `halt` commits or `max_insts` instructions commit,
    /// then produces the report.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, max_insts: u64) -> Result<SimReport, SimError> {
        self.machine.run(max_insts)?;
        Ok(self.report())
    }

    /// The pipeline trace retained so far (empty unless
    /// [`SimConfig::trace_limit`] is set or a retaining sink is
    /// installed via [`Simulator::set_trace_sink`]).
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.machine.trace()
    }

    /// The raw [`nwo_obs::CommitRecord`]s retained by the trace sink —
    /// the input of [`nwo_obs::pipeview::render`].
    pub fn trace_commits(&self) -> Vec<nwo_obs::CommitRecord> {
        self.machine.trace_commits()
    }

    /// Replaces the trace sink. Install a [`nwo_obs::JsonlSink`] to
    /// stream every pipeline event to disk in O(1) resident memory, a
    /// [`nwo_obs::RingSink`] to retain a bounded window, or a
    /// [`nwo_obs::TeeSink`] for both. Returns the previous sink,
    /// flushed.
    pub fn set_trace_sink(
        &mut self,
        sink: Box<dyn nwo_obs::TraceSink>,
    ) -> Box<dyn nwo_obs::TraceSink> {
        self.machine.set_trace_sink(sink)
    }

    /// Collects every counter in the machine — core pipeline, stall
    /// breakdown, caches and TLBs, branch predictor, power model — into
    /// one machine-readable [`nwo_obs::Snapshot`] (the payload behind
    /// `nwo sim --json` and each `--interval-stats` line).
    pub fn snapshot(&self) -> nwo_obs::Snapshot {
        self.machine.build_snapshot()
    }

    /// Serializes the warmed machine state (post-[`Simulator::warmup`],
    /// pre-[`Simulator::run`]) into a versioned checkpoint container.
    /// See [`Machine::checkpoint`].
    pub fn checkpoint(&self) -> Vec<u8> {
        self.machine.checkpoint()
    }

    /// Restores warmed state saved by [`Simulator::checkpoint`],
    /// replacing the warmup phase. See [`Machine::restore_checkpoint`].
    ///
    /// # Errors
    ///
    /// Any [`nwo_ckpt::CkptError`] for a foreign, stale, truncated,
    /// corrupted or mismatched checkpoint; the machine is untouched on
    /// error.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), nwo_ckpt::CkptError> {
        self.machine.restore_checkpoint(bytes)
    }

    /// Turns on per-PC lost-commit-slot attribution (`--stall-detail`).
    pub fn enable_stall_detail(&mut self) {
        self.machine.enable_stall_detail();
    }

    /// Commits checked by the lockstep oracle so far (`None` when
    /// [`SimConfig::verify`] is off). See [`Machine::oracle_checked`].
    pub fn oracle_checked(&self) -> Option<u64> {
        self.machine.oracle_checked()
    }

    /// Arms one deterministic datapath fault for a fault campaign. See
    /// [`Machine::inject_datapath_fault`].
    pub fn inject_datapath_fault(&mut self, fault: nwo_verify::DatapathFault) {
        self.machine.inject_datapath_fault(fault);
    }

    /// Flips one bit of branch-predictor state for a fault campaign.
    /// See [`Machine::inject_predictor_fault`].
    pub fn inject_predictor_fault(&mut self, entropy: u64) -> bool {
        self.machine.inject_predictor_fault(entropy)
    }

    /// The per-PC stall breakdowns collected so far (`None` unless
    /// [`Simulator::enable_stall_detail`] was called before running).
    pub fn stall_detail(&self) -> Option<&std::collections::HashMap<u64, nwo_obs::StallBreakdown>> {
        self.machine.stall_detail()
    }

    /// Streams one JSON line to `out` every `every` cycles of the run,
    /// plus a partial tail line (`--interval-stats` / `--interval-out`):
    /// the cumulative metrics snapshot plus an `interval.*` group of
    /// deltas since the previous line (see [`Machine::set_interval_stats`]).
    /// `every == 0` disables the stream.
    pub fn set_interval_stats(&mut self, every: u64, out: Box<dyn std::io::Write>) {
        self.machine.set_interval_stats(every, out);
    }

    /// Builds a report from the current state (also usable mid-run).
    pub fn report(&self) -> SimReport {
        let stats = self.machine.stats().clone();
        let cycles = stats.cycles.max(self.machine.cycle).max(1);
        SimReport {
            power: stats.power.report(cycles),
            mem_ext: stats.mem_ext.report(cycles),
            hierarchy: self.machine.hierarchy_stats(),
            predictor: self.machine.predictor_stats(),
            out_bytes: self.machine.out_bytes().to_vec(),
            out_quads: self.machine.out_quads().to_vec(),
            stall: stats.stall.clone(),
            packing_enabled: self.machine.config.pack_config().is_some(),
            stats,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        self.machine.stats()
    }

    /// True once `halt` has committed.
    pub fn finished(&self) -> bool {
        self.machine.done
    }
}
