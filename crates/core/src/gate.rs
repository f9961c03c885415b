//! Operand-based clock-gating decisions (paper Section 4).
//!
//! Given the width tags of both source operands, the gating logic picks
//! how much of the functional unit must stay clocked: the low 16 bits,
//! the low 33 bits, or the full 64-bit datapath.

use crate::width::WidthTag;

/// How much of the functional unit is clocked for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateLevel {
    /// Both operands narrow at 16 bits: upper 48 bits disabled.
    Gate16,
    /// Both operands narrow at 33 bits: upper 31 bits disabled
    /// (the address-arithmetic signal of Section 4.3).
    Gate33,
    /// At least one wide or unknown operand: full-width operation.
    Full,
}

impl GateLevel {
    /// The number of datapath bits that remain clocked.
    pub const fn active_bits(self) -> u32 {
        match self {
            GateLevel::Gate16 => 16,
            GateLevel::Gate33 => 33,
            GateLevel::Full => 64,
        }
    }
}

/// Configuration of the detection hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatingConfig {
    /// Gate at 16 bits when both operands are narrow16.
    pub gate16: bool,
    /// Also gate at 33 bits (the second control signal of Section 4.3).
    pub gate33: bool,
    /// Ones-detect hardware present: negative narrow values also gate.
    /// Without it only zero-detected (non-negative) operands qualify.
    pub ones_detect: bool,
}

impl Default for GatingConfig {
    /// The paper's full proposal: gate at both 16 and 33 bits, with
    /// ones-detect for negative operands.
    fn default() -> Self {
        GatingConfig {
            gate16: true,
            gate33: true,
            ones_detect: true,
        }
    }
}

impl GatingConfig {
    /// A configuration with gating disabled entirely (the baseline).
    pub fn disabled() -> Self {
        GatingConfig {
            gate16: false,
            gate33: false,
            ones_detect: false,
        }
    }
}

fn qualifies(tag: WidthTag, narrow: bool, config: &GatingConfig) -> bool {
    tag.known && narrow && (config.ones_detect || !tag.negative)
}

/// Decides the gate level for an operation from its operand tags.
///
/// Both operands must be narrow for the upper bits to be skipped
/// (Section 4.3: "Both operands must be small in order for the clock
/// gating to be allowed").
///
/// # Example
///
/// ```
/// use nwo_core::{gate_level, GateLevel, GatingConfig, WidthTag};
///
/// let cfg = GatingConfig::default();
/// let narrow = WidthTag::of(17);
/// let addr = WidthTag::of(0x1_0000_0040);
/// assert_eq!(gate_level(narrow, narrow, &cfg), GateLevel::Gate16);
/// assert_eq!(gate_level(addr, narrow, &cfg), GateLevel::Gate33);
/// ```
pub fn gate_level(a: WidthTag, b: WidthTag, config: &GatingConfig) -> GateLevel {
    if config.gate16 && qualifies(a, a.narrow16, config) && qualifies(b, b.narrow16, config) {
        GateLevel::Gate16
    } else if config.gate33 && qualifies(a, a.narrow33, config) && qualifies(b, b.narrow33, config)
    {
        GateLevel::Gate33
    } else {
        GateLevel::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(v: i64) -> WidthTag {
        WidthTag::of(v as u64)
    }

    #[test]
    fn both_narrow_gates_at_16() {
        let cfg = GatingConfig::default();
        assert_eq!(gate_level(tag(17), tag(2), &cfg), GateLevel::Gate16);
        assert_eq!(GateLevel::Gate16.active_bits(), 16);
    }

    #[test]
    fn one_wide_operand_blocks_16_bit_gating() {
        let cfg = GatingConfig::default();
        assert_eq!(gate_level(tag(17), tag(1 << 20), &cfg), GateLevel::Gate33);
        assert_eq!(gate_level(tag(17), tag(1 << 40), &cfg), GateLevel::Full);
    }

    #[test]
    fn address_arithmetic_gates_at_33() {
        let cfg = GatingConfig::default();
        let base = tag(0x1_0000_0000);
        let offset = tag(128);
        assert_eq!(gate_level(base, offset, &cfg), GateLevel::Gate33);
    }

    #[test]
    fn unknown_operand_forces_full_width() {
        let cfg = GatingConfig::default();
        assert_eq!(
            gate_level(WidthTag::unknown(), tag(1), &cfg),
            GateLevel::Full
        );
    }

    #[test]
    fn negative_operands_need_ones_detect() {
        let with = GatingConfig::default();
        let without = GatingConfig {
            ones_detect: false,
            ..GatingConfig::default()
        };
        assert_eq!(gate_level(tag(-5), tag(3), &with), GateLevel::Gate16);
        assert_eq!(gate_level(tag(-5), tag(3), &without), GateLevel::Full);
    }

    #[test]
    fn gate33_can_be_disabled_independently() {
        let cfg = GatingConfig {
            gate33: false,
            ..GatingConfig::default()
        };
        let base = tag(0x1_0000_0000);
        assert_eq!(gate_level(base, tag(4), &cfg), GateLevel::Full);
        assert_eq!(gate_level(tag(1), tag(4), &cfg), GateLevel::Gate16);
    }

    #[test]
    fn disabled_config_never_gates() {
        let cfg = GatingConfig::disabled();
        assert_eq!(gate_level(tag(1), tag(2), &cfg), GateLevel::Full);
    }

    #[test]
    fn levels_order_by_aggressiveness() {
        assert!(GateLevel::Gate16 < GateLevel::Gate33);
        assert!(GateLevel::Gate33 < GateLevel::Full);
    }
}
