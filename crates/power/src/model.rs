//! Per-run power accounting for the integer execution unit
//! (paper Section 4.4, Figures 6 and 7).
//!
//! Clock gating never changes timing, so one simulation produces both the
//! baseline and the gated power numbers: every executed operation is
//! recorded once with the gate level the detection hardware would have
//! chosen, and the accumulator tracks baseline (always 64-bit) and gated
//! energies side by side.

use crate::constants::{device_power, Device, MUX_MW, ZERO_DETECT_MW};
use nwo_core::GateLevel;
use nwo_isa::OpClass;

/// The Table 4 device an operation class executes on, or `None` for
/// operations that exercise no integer datapath (`nop`, `halt`).
///
/// Loads, stores, branches and jumps use the adder (effective-address
/// computation / compare), per Section 4.4: "These results include all
/// loads, stores, branches, and other integer execution unit
/// instructions".
pub fn device_for_class(class: OpClass) -> Option<Device> {
    match class {
        OpClass::IntArith | OpClass::Load | OpClass::Store | OpClass::Branch | OpClass::Jump => {
            Some(Device::Adder)
        }
        OpClass::Logic => Some(Device::Logic),
        OpClass::Shift => Some(Device::Shifter),
        OpClass::Mult | OpClass::Div => Some(Device::Multiplier),
        OpClass::System => None,
    }
}

/// The active datapath width of `device` at `level`.
///
/// The multiplier is special (Section 4.3): two 16-bit operands still
/// produce a 32-bit product, so 16-bit gating leaves 32 multiplier bits
/// active, and 33-bit operands would need a 66-bit product — no gating
/// is possible at that level.
fn active_bits(device: Device, level: GateLevel) -> u32 {
    match (device, level) {
        (Device::Multiplier, GateLevel::Gate16) => 32,
        (Device::Multiplier, GateLevel::Gate33) => 64,
        (Device::Multiplier, GateLevel::Full) => 64,
        (_, level) => level.active_bits(),
    }
}

/// Running totals for one simulation.
///
/// # Example
///
/// ```
/// use nwo_power::PowerAccumulator;
/// use nwo_core::GateLevel;
/// use nwo_isa::OpClass;
///
/// let mut acc = PowerAccumulator::new();
/// acc.record_op(OpClass::IntArith, GateLevel::Gate16);
/// acc.record_op(OpClass::IntArith, GateLevel::Full);
/// let report = acc.report(2);
/// assert!(report.gated_mw_per_cycle < report.baseline_mw_per_cycle);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerAccumulator {
    /// Sum of 64-bit device powers over all recorded ops (mW·cycles).
    baseline: f64,
    /// Sum of gated device powers (mW·cycles), not counting overheads.
    gated: f64,
    /// Savings attributable to 16-bit gating.
    saved16: f64,
    /// Savings attributable to 33-bit gating.
    saved33: f64,
    /// Zero-detect energy (per result produced).
    zero_detect: f64,
    /// Mux energy (per gated op).
    mux: f64,
    /// Ops recorded at each gate level: [16, 33, full].
    level_counts: [u64; 3],
    /// Ops recorded per device: [adder, multiplier, logic, shifter].
    device_counts: [u64; 4],
}

/// The per-cycle power summary (the quantities of Figures 6 and 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Baseline integer-unit power, mW per cycle (Figure 7 left bars).
    pub baseline_mw_per_cycle: f64,
    /// Gated integer-unit power including detection/mux overheads,
    /// mW per cycle (Figure 7 right bars).
    pub gated_mw_per_cycle: f64,
    /// Power saved by 16-bit gating, mW per cycle (Figure 6).
    pub saved16_mw_per_cycle: f64,
    /// Power saved by 33-bit gating, mW per cycle (Figure 6).
    pub saved33_mw_per_cycle: f64,
    /// Zero-detect plus mux overhead, mW per cycle (Figure 6
    /// "total extra used").
    pub extra_mw_per_cycle: f64,
    /// saved16 + saved33 − extra (Figure 6 "net savings").
    pub net_saved_mw_per_cycle: f64,
    /// Relative reduction of integer-unit power, in percent
    /// (Section 4.4 reports 54.1% for SPECint95, 57.9% for media).
    pub reduction_percent: f64,
    /// Fraction of recorded ops gated at 16 bits.
    pub gated16_fraction: f64,
    /// Fraction of recorded ops gated at 33 bits.
    pub gated33_fraction: f64,
}

impl nwo_obs::MetricSource for PowerReport {
    fn collect(&self, registry: &mut nwo_obs::Registry) {
        registry.gauge("baseline_mw_per_cycle", self.baseline_mw_per_cycle);
        registry.gauge("gated_mw_per_cycle", self.gated_mw_per_cycle);
        registry.gauge("saved16_mw_per_cycle", self.saved16_mw_per_cycle);
        registry.gauge("saved33_mw_per_cycle", self.saved33_mw_per_cycle);
        registry.gauge("extra_mw_per_cycle", self.extra_mw_per_cycle);
        registry.gauge("net_saved_mw_per_cycle", self.net_saved_mw_per_cycle);
        registry.gauge("reduction_percent", self.reduction_percent);
        registry.gauge("gated16_fraction", self.gated16_fraction);
        registry.gauge("gated33_fraction", self.gated33_fraction);
    }
}

impl PowerAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed integer operation at the gate level the
    /// detection hardware chose for it.
    ///
    /// The zero-detect is charged on every result produced (the detect
    /// logic of Figure 3 sits on the result bus); the widened result mux
    /// is charged only when the op actually gates.
    pub fn record_op(&mut self, class: OpClass, level: GateLevel) {
        let Some(device) = device_for_class(class) else {
            return;
        };
        self.device_counts[device as usize] += 1;
        let full = device_power(device, 64);
        let gated = device_power(device, active_bits(device, level));
        self.baseline += full;
        self.gated += gated;
        self.zero_detect += ZERO_DETECT_MW;
        match level {
            GateLevel::Gate16 => {
                self.level_counts[0] += 1;
                self.saved16 += full - gated;
                self.mux += MUX_MW;
            }
            GateLevel::Gate33 => {
                self.level_counts[1] += 1;
                self.saved33 += full - gated;
                self.mux += MUX_MW;
            }
            GateLevel::Full => {
                self.level_counts[2] += 1;
            }
        }
    }

    /// Number of operations recorded at (gate16, gate33, full).
    pub fn level_counts(&self) -> (u64, u64, u64) {
        (
            self.level_counts[0],
            self.level_counts[1],
            self.level_counts[2],
        )
    }

    /// Total operations recorded.
    pub fn total_ops(&self) -> u64 {
        self.level_counts.iter().sum()
    }

    /// Produces the per-cycle report for a run of `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn report(&self, cycles: u64) -> PowerReport {
        assert!(cycles > 0, "cannot report power for a zero-cycle run");
        let c = cycles as f64;
        let extra = (self.zero_detect + self.mux) / c;
        let baseline = self.baseline / c;
        let gated = self.gated / c + extra;
        let total = self.total_ops();
        PowerReport {
            baseline_mw_per_cycle: baseline,
            gated_mw_per_cycle: gated,
            saved16_mw_per_cycle: self.saved16 / c,
            saved33_mw_per_cycle: self.saved33 / c,
            extra_mw_per_cycle: extra,
            net_saved_mw_per_cycle: (self.saved16 + self.saved33) / c - extra,
            reduction_percent: if baseline > 0.0 {
                (baseline - gated) / baseline * 100.0
            } else {
                0.0
            },
            gated16_fraction: ratio(self.level_counts[0], total),
            gated33_fraction: ratio(self.level_counts[1], total),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl nwo_ckpt::Checkpointable for PowerAccumulator {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        w.put_f64(self.baseline);
        w.put_f64(self.gated);
        w.put_f64(self.saved16);
        w.put_f64(self.saved33);
        w.put_f64(self.zero_detect);
        w.put_f64(self.mux);
        for &n in &self.level_counts {
            w.put_u64(n);
        }
        for &n in &self.device_counts {
            w.put_u64(n);
        }
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        self.baseline = r.take_f64("power baseline")?;
        self.gated = r.take_f64("power gated")?;
        self.saved16 = r.take_f64("power saved16")?;
        self.saved33 = r.take_f64("power saved33")?;
        self.zero_detect = r.take_f64("power zero_detect")?;
        self.mux = r.take_f64("power mux")?;
        for n in self.level_counts.iter_mut() {
            *n = r.take_u64("power level count")?;
        }
        for n in self.device_counts.iter_mut() {
            *n = r.take_u64("power device count")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_mapping_covers_all_classes() {
        assert_eq!(device_for_class(OpClass::IntArith), Some(Device::Adder));
        assert_eq!(device_for_class(OpClass::Load), Some(Device::Adder));
        assert_eq!(device_for_class(OpClass::Store), Some(Device::Adder));
        assert_eq!(device_for_class(OpClass::Branch), Some(Device::Adder));
        assert_eq!(device_for_class(OpClass::Jump), Some(Device::Adder));
        assert_eq!(device_for_class(OpClass::Logic), Some(Device::Logic));
        assert_eq!(device_for_class(OpClass::Shift), Some(Device::Shifter));
        assert_eq!(device_for_class(OpClass::Mult), Some(Device::Multiplier));
        assert_eq!(device_for_class(OpClass::Div), Some(Device::Multiplier));
        assert_eq!(device_for_class(OpClass::System), None);
    }

    #[test]
    fn fully_gated_add_saves_three_quarters() {
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::IntArith, GateLevel::Gate16);
        let r = acc.report(1);
        assert_eq!(r.baseline_mw_per_cycle, 210.0);
        // 16-bit adder (52.5) + zero-detect (4.2) + mux (3.2).
        assert!((r.gated_mw_per_cycle - 59.9).abs() < 1e-9);
        assert!((r.saved16_mw_per_cycle - 157.5).abs() < 1e-9);
        assert_eq!(r.saved33_mw_per_cycle, 0.0);
        assert!((r.extra_mw_per_cycle - 7.4).abs() < 1e-9);
        assert!((r.net_saved_mw_per_cycle - 150.1).abs() < 1e-9);
    }

    #[test]
    fn ungated_op_still_pays_zero_detect() {
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::IntArith, GateLevel::Full);
        let r = acc.report(1);
        assert_eq!(r.baseline_mw_per_cycle, 210.0);
        assert!((r.gated_mw_per_cycle - 214.2).abs() < 1e-9);
        assert!(
            r.net_saved_mw_per_cycle < 0.0,
            "pure overhead when nothing gates"
        );
    }

    #[test]
    fn gate33_saves_less_than_gate16() {
        let mut a16 = PowerAccumulator::new();
        a16.record_op(OpClass::IntArith, GateLevel::Gate16);
        let mut a33 = PowerAccumulator::new();
        a33.record_op(OpClass::IntArith, GateLevel::Gate33);
        let (r16, r33) = (a16.report(1), a33.report(1));
        assert!(r33.saved33_mw_per_cycle > 0.0);
        assert!(r16.saved16_mw_per_cycle > r33.saved33_mw_per_cycle);
        // 33-bit adder leaves 210*31/64 saved.
        assert!((r33.saved33_mw_per_cycle - 210.0 * 31.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn multiplier_gates_to_32_bits_at_level16() {
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::Mult, GateLevel::Gate16);
        let r = acc.report(1);
        assert!((r.saved16_mw_per_cycle - 1050.0).abs() < 1e-9);
        // At 33 bits the product would need 66 bits: no multiplier gating.
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::Mult, GateLevel::Gate33);
        let r = acc.report(1);
        assert_eq!(r.saved33_mw_per_cycle, 0.0);
    }

    #[test]
    fn system_ops_are_free() {
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::System, GateLevel::Full);
        assert_eq!(acc.total_ops(), 0);
    }

    #[test]
    fn per_cycle_normalisation() {
        let mut acc = PowerAccumulator::new();
        for _ in 0..10 {
            acc.record_op(OpClass::IntArith, GateLevel::Gate16);
        }
        let r = acc.report(5);
        // 10 gated adds over 5 cycles: 2 per cycle.
        assert_eq!(r.baseline_mw_per_cycle, 420.0);
        assert!((r.saved16_mw_per_cycle - 315.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_percent_matches_definition() {
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::IntArith, GateLevel::Gate16);
        acc.record_op(OpClass::IntArith, GateLevel::Full);
        let r = acc.report(2);
        let expect =
            (r.baseline_mw_per_cycle - r.gated_mw_per_cycle) / r.baseline_mw_per_cycle * 100.0;
        assert!((r.reduction_percent - expect).abs() < 1e-12);
    }

    #[test]
    fn fractions_track_counts() {
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::IntArith, GateLevel::Gate16);
        acc.record_op(OpClass::IntArith, GateLevel::Gate33);
        acc.record_op(OpClass::IntArith, GateLevel::Full);
        acc.record_op(OpClass::IntArith, GateLevel::Full);
        let r = acc.report(4);
        assert_eq!(acc.level_counts(), (1, 1, 2));
        assert_eq!(r.gated16_fraction, 0.25);
        assert_eq!(r.gated33_fraction, 0.25);
    }

    #[test]
    #[should_panic(expected = "zero-cycle")]
    fn zero_cycles_panics() {
        PowerAccumulator::new().report(0);
    }
}
