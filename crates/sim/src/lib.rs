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
    machine_flag, validate_output_parent, ConfigError, Optimization, PredictorChoice, SimConfig,
    ALU_LATENCY, DIV_LATENCY, INT_MULDIV, MACHINE_FLAGS, MAX_TRACE_LIMIT, MULT_LATENCY,
};
pub use machine::{DeadlockSnapshot, SimError, Simulator};
pub use nwo_ckpt as ckpt;
pub use nwo_obs as obs;
pub use nwo_verify as verify;
pub use report::SimReport;
pub use stats::{
    class_slot, BranchStats, FluctuationTracker, NarrowBreakdown, PackStats, SimStats,
    WidthHistogram, CLASS_SLOT_NAMES,
};
