//! Table 4 of the paper: estimated power consumption of the integer
//! functional units at 3.3 V and 500 MHz, in milliwatts.
//!
//! | Device           | 32-bit | 48-bit | 64-bit |
//! |------------------|--------|--------|--------|
//! | Adder (CLA)      |    105 |    158 |    210 |
//! | Booth multiplier |   1050 |   1580 |   2100 |
//! | Bit-wise logic   |    5.8 |    8.7 |   11.7 |
//! | Shifter          |    4.4 |    6.6 |    8.8 |
//! | Zero-detect      |        |    4.2 |        |
//! | Additional muxes |        |    3.2 |        |
//!
//! The table scales linearly with operand width (105 = 210·32/64,
//! 158 ≈ 210·48/64, …), which is also the paper's stated assumption for
//! the pipelined multiplier; [`device_power`] therefore interpolates
//! linearly from the 64-bit column.

/// The four integer-datapath devices of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// Carry-lookahead adder (arithmetic, compares, effective addresses,
    /// branch compares).
    Adder,
    /// Booth multiplier (multiply and divide).
    Multiplier,
    /// Bit-wise logic unit.
    Logic,
    /// Shifter.
    Shifter,
}

impl Device {
    /// All devices.
    pub const ALL: [Device; 4] = [
        Device::Adder,
        Device::Multiplier,
        Device::Logic,
        Device::Shifter,
    ];

    /// Display name matching Table 4.
    pub fn name(self) -> &'static str {
        match self {
            Device::Adder => "Adder (CLA)",
            Device::Multiplier => "Booth Multiplier",
            Device::Logic => "Bit-Wise Logic",
            Device::Shifter => "Shifter",
        }
    }
}

/// Full-width (64-bit) power of each device in mW (Table 4 rightmost
/// column).
pub const fn full_width_mw(device: Device) -> f64 {
    match device {
        Device::Adder => 210.0,
        Device::Multiplier => 2100.0,
        Device::Logic => 11.7,
        Device::Shifter => 8.8,
    }
}

/// Power of `device` with `bits` of active datapath, in mW, scaling
/// linearly with width per the paper's model.
///
/// # Example
///
/// ```
/// use nwo_power::{device_power, Device};
///
/// assert_eq!(device_power(Device::Adder, 64), 210.0);
/// assert_eq!(device_power(Device::Adder, 32), 105.0);
/// assert_eq!(device_power(Device::Multiplier, 32), 1050.0);
/// ```
pub const fn device_power(device: Device, bits: u32) -> f64 {
    debug_assert!(bits <= 64);
    full_width_mw(device) * bits as f64 / 64.0
}

/// Power of the zero-detect (and ones-detect) logic, charged once per
/// result produced, in mW.
pub const ZERO_DETECT_MW: f64 = 4.2;

/// Power of the widened result-bus muxes, charged once per gated
/// operation, in mW.
pub const MUX_MW: f64 = 3.2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_values_reproduced() {
        // 32-bit column.
        assert_eq!(device_power(Device::Adder, 32), 105.0);
        assert_eq!(device_power(Device::Multiplier, 32), 1050.0);
        assert!((device_power(Device::Logic, 32) - 5.85).abs() < 0.06); // 5.8 in the table
        assert_eq!(device_power(Device::Shifter, 32), 4.4);
        // 48-bit column.
        assert!((device_power(Device::Adder, 48) - 157.5).abs() < 0.6); // 158
        assert!((device_power(Device::Multiplier, 48) - 1575.0).abs() < 6.0); // 1580
        assert!((device_power(Device::Logic, 48) - 8.775).abs() < 0.08); // 8.7
        assert!((device_power(Device::Shifter, 48) - 6.6).abs() < 1e-9);
        // 64-bit column.
        assert_eq!(device_power(Device::Adder, 64), 210.0);
        assert_eq!(device_power(Device::Multiplier, 64), 2100.0);
        assert_eq!(device_power(Device::Logic, 64), 11.7);
        assert_eq!(device_power(Device::Shifter, 64), 8.8);
    }

    #[test]
    fn overheads_match_table4() {
        assert_eq!(ZERO_DETECT_MW, 4.2);
        assert_eq!(MUX_MW, 3.2);
    }

    #[test]
    fn scaling_is_monotone() {
        for device in Device::ALL {
            let mut last = 0.0;
            for bits in [16, 32, 33, 48, 64] {
                let p = device_power(device, bits);
                assert!(p > last, "{device:?} power must grow with width");
                last = p;
            }
        }
    }

    #[test]
    fn names_are_table4_rows() {
        assert_eq!(Device::Adder.name(), "Adder (CLA)");
        assert_eq!(Device::Multiplier.name(), "Booth Multiplier");
    }
}
