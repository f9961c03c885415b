#![warn(missing_docs)]

//! The primary contribution of Brooks & Martonosi (HPCA 1999):
//! dynamic narrow-width operand detection and the two mechanisms built
//! on it — operand-based clock gating and operation packing.
//!
//! This crate is deliberately free of pipeline machinery: it captures the
//! *decision logic* the paper adds to a processor, as pure functions over
//! operand values and width tags. The cycle-level simulator (`nwo-sim`)
//! calls into it from its dispatch, issue and writeback stages; the power
//! model (`nwo-power`) consumes its [`GateLevel`] decisions.
//!
//! * [`width64`], [`zero_detect`], [`ones_detect`], [`WidthTag`] — the
//!   detection hardware of Figure 3 and Section 4.3.
//! * [`gate_level`] — the clock-gating decision of Section 4.
//! * [`can_pack`], [`slot_result`], [`PackConfig`] — issue-time packing
//!   rules of Section 5.2, with a bit-faithful subword-lane model.
//! * [`replay_candidate`], [`replay_mispredicts`] — the speculative
//!   replay packing of Section 5.3.
//!
//! # Example
//!
//! ```
//! use nwo_core::{gate_level, GateLevel, GatingConfig, WidthTag, can_pack, PackConfig};
//! use nwo_isa::Opcode;
//!
//! let a = WidthTag::of(17);
//! let b = WidthTag::of(2);
//! assert_eq!(gate_level(a, b, &GatingConfig::default()), GateLevel::Gate16);
//! assert!(can_pack(Opcode::Addq, a, b, &PackConfig::default()));
//! ```

mod gate;
mod pack;
mod width;

pub use gate::{gate_level, GateLevel, GatingConfig};
pub use pack::{
    can_pack, pack_kind, replay_candidate, replay_mispredicts, replay_predicted, slot_result,
    PackConfig, PackKind, WideOperand, REPLAY_PENALTY,
};
pub use width::{is_narrow, ones_detect, width64, zero_detect, WidthTag};
