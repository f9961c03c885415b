//! Extension: narrow-width power savings in the data cache and result
//! bus (the paper's Section 6 future work — "reducing power in … the
//! cache memories").
//!
//! The paper does not evaluate this, so the model here is ours, built on
//! the same style of estimate as Table 4 and clearly parameterised:
//!
//! * a **store** whose value is known-narrow (width tag from the
//!   register file) can gate both the data-bus transfer and the
//!   data-array write down to two bytes;
//! * a **load** cannot gate the array read (the width is unknown until
//!   the sense amps fire), but the *result-bus* transfer back to the
//!   core can be gated once the fill-path zero-detect has run.
//!
//! Energy constants are per byte moved, chosen to sit in proportion to
//! the Table 4 functional-unit numbers at the same 3.3 V / 500 MHz
//! operating point. They are *extension estimates*, not paper data.

/// Data-array read/write energy per byte (mW at the Table 4 operating
/// point). Extension estimate.
pub const ARRAY_MW_PER_BYTE: f64 = 15.0;

/// Core↔cache data-bus transfer energy per byte (mW). Extension
/// estimate.
pub const BUS_MW_PER_BYTE: f64 = 10.0;

/// Accumulates narrow-width memory-traffic statistics and the modelled
/// power saving.
///
/// # Example
///
/// ```
/// use nwo_power::MemPowerExt;
///
/// let mut ext = MemPowerExt::new();
/// ext.record_store(8, true); // quadword store of a narrow value
/// ext.record_load(8, false); // wide load
/// let r = ext.report(2);
/// assert!(r.gated_mw_per_cycle < r.baseline_mw_per_cycle);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MemPowerExt {
    /// Total bytes architecturally moved.
    pub bytes_total: u64,
    /// Bytes that actually needed to toggle under narrow-width gating.
    pub bytes_active: u64,
    /// Loads/stores observed.
    pub accesses: u64,
    /// Accesses whose value was narrow at 16 bits.
    pub narrow_accesses: u64,
    baseline: f64,
    gated: f64,
}

impl MemPowerExt {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn active_bytes(bytes: u64, narrow: bool) -> u64 {
        if narrow {
            bytes.min(2)
        } else {
            bytes
        }
    }

    /// Records a committed store of `bytes` bytes whose value is
    /// (known-)narrow or not. Gates the array write and the bus.
    pub fn record_store(&mut self, bytes: u64, narrow: bool) {
        let active = Self::active_bytes(bytes, narrow);
        self.accesses += 1;
        self.narrow_accesses += narrow as u64;
        self.bytes_total += bytes;
        self.bytes_active += active;
        self.baseline += bytes as f64 * (ARRAY_MW_PER_BYTE + BUS_MW_PER_BYTE);
        self.gated += active as f64 * (ARRAY_MW_PER_BYTE + BUS_MW_PER_BYTE);
    }

    /// Records a committed load of `bytes` bytes whose value is narrow
    /// or not. Gates only the result-bus transfer: the array read must
    /// complete before the width is known.
    pub fn record_load(&mut self, bytes: u64, narrow: bool) {
        let active = Self::active_bytes(bytes, narrow);
        self.accesses += 1;
        self.narrow_accesses += narrow as u64;
        self.bytes_total += bytes;
        self.bytes_active += active;
        self.baseline += bytes as f64 * (ARRAY_MW_PER_BYTE + BUS_MW_PER_BYTE);
        self.gated += bytes as f64 * ARRAY_MW_PER_BYTE + active as f64 * BUS_MW_PER_BYTE;
    }

    /// Fraction of moved bytes that were redundant (upper bytes of
    /// narrow values).
    pub fn redundant_byte_fraction(&self) -> f64 {
        if self.bytes_total == 0 {
            0.0
        } else {
            1.0 - self.bytes_active as f64 / self.bytes_total as f64
        }
    }

    /// Per-cycle report over a `cycles`-cycle run.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn report(&self, cycles: u64) -> MemPowerReport {
        assert!(cycles > 0, "cannot report power for a zero-cycle run");
        let c = cycles as f64;
        let baseline = self.baseline / c;
        let gated = self.gated / c;
        MemPowerReport {
            baseline_mw_per_cycle: baseline,
            gated_mw_per_cycle: gated,
            reduction_percent: if baseline > 0.0 {
                (baseline - gated) / baseline * 100.0
            } else {
                0.0
            },
            narrow_access_fraction: if self.accesses == 0 {
                0.0
            } else {
                self.narrow_accesses as f64 / self.accesses as f64
            },
            redundant_byte_fraction: self.redundant_byte_fraction(),
        }
    }
}

/// Per-cycle summary of the memory-system extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPowerReport {
    /// Cache data-array + bus power without narrow-width gating.
    pub baseline_mw_per_cycle: f64,
    /// The same with narrow-width gating.
    pub gated_mw_per_cycle: f64,
    /// Relative reduction, in percent.
    pub reduction_percent: f64,
    /// Fraction of accesses moving narrow values.
    pub narrow_access_fraction: f64,
    /// Fraction of moved bytes that carried no information.
    pub redundant_byte_fraction: f64,
}

impl nwo_obs::MetricSource for MemPowerReport {
    fn collect(&self, registry: &mut nwo_obs::Registry) {
        registry.gauge("baseline_mw_per_cycle", self.baseline_mw_per_cycle);
        registry.gauge("gated_mw_per_cycle", self.gated_mw_per_cycle);
        registry.gauge("reduction_percent", self.reduction_percent);
        registry.gauge("narrow_access_fraction", self.narrow_access_fraction);
        registry.gauge("redundant_byte_fraction", self.redundant_byte_fraction);
    }
}

impl nwo_ckpt::Checkpointable for MemPowerExt {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        w.put_u64(self.bytes_total);
        w.put_u64(self.bytes_active);
        w.put_u64(self.accesses);
        w.put_u64(self.narrow_accesses);
        w.put_f64(self.baseline);
        w.put_f64(self.gated);
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        self.bytes_total = r.take_u64("memext bytes_total")?;
        self.bytes_active = r.take_u64("memext bytes_active")?;
        self.accesses = r.take_u64("memext accesses")?;
        self.narrow_accesses = r.take_u64("memext narrow_accesses")?;
        self.baseline = r.take_f64("memext baseline")?;
        self.gated = r.take_f64("memext gated")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_store_gates_array_and_bus() {
        let mut ext = MemPowerExt::new();
        ext.record_store(8, true);
        let r = ext.report(1);
        // 8 bytes baseline vs 2 active bytes on both components.
        assert!((r.baseline_mw_per_cycle - 8.0 * 25.0).abs() < 1e-9);
        assert!((r.gated_mw_per_cycle - 2.0 * 25.0).abs() < 1e-9);
        assert!((r.reduction_percent - 75.0).abs() < 1e-9);
    }

    #[test]
    fn narrow_load_gates_bus_only() {
        let mut ext = MemPowerExt::new();
        ext.record_load(8, true);
        let r = ext.report(1);
        // Array read stays full (8 * 15); bus shrinks to 2 * 10.
        assert!((r.gated_mw_per_cycle - (8.0 * 15.0 + 2.0 * 10.0)).abs() < 1e-9);
        assert!(r.reduction_percent > 0.0 && r.reduction_percent < 75.0);
    }

    #[test]
    fn wide_accesses_save_nothing() {
        let mut ext = MemPowerExt::new();
        ext.record_load(4, false);
        ext.record_store(4, false);
        let r = ext.report(1);
        assert_eq!(r.baseline_mw_per_cycle, r.gated_mw_per_cycle);
        assert_eq!(r.reduction_percent, 0.0);
        assert_eq!(r.redundant_byte_fraction, 0.0);
    }

    #[test]
    fn byte_accesses_cannot_shrink_below_themselves() {
        let mut ext = MemPowerExt::new();
        ext.record_store(1, true);
        assert_eq!(ext.bytes_active, 1);
        assert_eq!(ext.redundant_byte_fraction(), 0.0);
    }

    #[test]
    fn fractions_track_counts() {
        let mut ext = MemPowerExt::new();
        ext.record_load(8, true);
        ext.record_store(8, false);
        let r = ext.report(4);
        assert!((r.narrow_access_fraction - 0.5).abs() < 1e-12);
        // 16 total bytes, 2 + 8 active.
        assert!((r.redundant_byte_fraction - (1.0 - 10.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero-cycle")]
    fn zero_cycles_panics() {
        MemPowerExt::new().report(0);
    }
}
