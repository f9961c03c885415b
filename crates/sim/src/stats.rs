//! Statistics collection: everything needed to regenerate the paper's
//! figures.
//!
//! * [`WidthHistogram`] — Figure 1 (cumulative operand-width distribution).
//! * [`FluctuationTracker`] — Figure 2 (per-PC 16-bit precision flips).
//! * [`NarrowBreakdown`] — Figures 4 and 5 (narrow ops by class).
//! * [`PackStats`] — Figures 10 and 11 (operation packing).
//! * The power side (Figures 6 and 7) lives in
//!   [`nwo_power::PowerAccumulator`], owned by [`SimStats`].

use nwo_core::width64;
use nwo_isa::{OpClass, TEXT_BASE};
use nwo_obs::StallBreakdown;
use nwo_power::PowerAccumulator;

/// The width of an operand pair: the significant bits of the wider
/// operand, what every width statistic buckets by.
#[inline]
pub(crate) fn pair_width(a: u64, b: u64) -> u32 {
    width64(a).max(width64(b))
}

/// Histogram of `max(width(a), width(b))` over operand pairs — the raw
/// data behind Figure 1.
#[derive(Debug, Clone)]
pub struct WidthHistogram {
    counts: [u64; 65],
    total: u64,
}

impl Default for WidthHistogram {
    fn default() -> Self {
        WidthHistogram {
            counts: [0; 65],
            total: 0,
        }
    }
}

impl WidthHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation's operand pair.
    #[inline]
    pub fn record(&mut self, a: u64, b: u64) {
        self.record_width(pair_width(a, b));
    }

    /// Records one operation whose operand pair is `width` bits wide
    /// (see [`pair_width`]).
    #[inline]
    pub(crate) fn record_width(&mut self, width: u32) {
        self.counts[width as usize] += 1;
        self.total += 1;
    }

    /// Total operations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Operations whose wider operand is exactly `n` bits.
    pub fn at(&self, n: u32) -> u64 {
        self.counts[n as usize]
    }

    /// Cumulative fraction of operations with both operands ≤ `n` bits —
    /// one point on a Figure 1 curve.
    pub fn cumulative(&self, n: u32) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts[..=(n as usize).min(64)].iter().sum();
        sum as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &WidthHistogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
    }

    /// Exports the distribution as a [`nwo_obs::Log2Histogram`] for the
    /// metrics snapshot: bucket `k` is the count of operations whose
    /// wider operand has exactly `k` significant bits, and `mean` is the
    /// mean bit-width — the raw Figure 1 curve, machine-readable.
    pub fn to_log2(&self) -> nwo_obs::Log2Histogram {
        let mut h = nwo_obs::Log2Histogram::new();
        for (bits, &count) in self.counts.iter().enumerate() {
            if count > 0 {
                h.record_bits(bits, count);
            }
        }
        h
    }
}

/// Tracks, per static instruction (PC), whether its "both operands
/// narrow at 16 bits" property flips across dynamic executions — the
/// quantity of Figure 2.
///
/// The simulator sizes its tracker for the program's text, one slot per
/// instruction word, so recording an op indexes an array. A PC outside
/// a sized tracker's text holds no instruction: `record` ignores it and
/// a checkpoint entry for it is [`CkptError::Malformed`]. A tracker
/// built with [`FluctuationTracker::new`] (a report decoded from a blob,
/// say) knows no text and keeps every PC, sorted.
#[derive(Debug, Clone, Default)]
pub struct FluctuationTracker {
    /// Per text slot (`(pc - TEXT_BASE) / 4`) of a sized tracker.
    slots: Vec<Fluctuation>,
    /// Every PC an unsized tracker has seen, ascending.
    other: Vec<(u64, Fluctuation)>,
}

/// One static instruction's history; `execs == 0` for a text slot never
/// executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Fluctuation {
    /// Whether the last execution was narrow.
    narrow: bool,
    /// Whether narrowness ever changed between executions.
    flipped: bool,
    executions: u64,
}

impl Fluctuation {
    fn record(&mut self, narrow: bool) {
        self.flipped |= self.executions > 0 && self.narrow != narrow;
        self.narrow = narrow;
        self.executions += 1;
    }
}

impl FluctuationTracker {
    /// Creates an empty tracker with no text: it keeps any PC.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tracker for a text of `words` instructions at
    /// [`TEXT_BASE`].
    pub(crate) fn for_text(words: usize) -> Self {
        FluctuationTracker {
            slots: vec![Fluctuation::default(); words],
            other: Vec::new(),
        }
    }

    /// The text slot of `pc`, if this tracker is sized and `pc` is one
    /// of its instruction words.
    fn slot(&self, pc: u64) -> Option<usize> {
        let offset = pc.checked_sub(TEXT_BASE)?;
        let slot = usize::try_from(offset / 4).ok()?;
        (offset.is_multiple_of(4) && slot < self.slots.len()).then_some(slot)
    }

    /// Records one dynamic execution of the instruction at `pc`.
    #[inline]
    pub fn record(&mut self, pc: u64, a: u64, b: u64) {
        let narrow = pair_width(a, b) <= 16;
        if let Some(slot) = self.slot(pc) {
            self.record_slot(slot, narrow);
        } else if self.slots.is_empty() {
            match self.other.binary_search_by_key(&pc, |&(p, _)| p) {
                Ok(i) => self.other[i].1.record(narrow),
                Err(i) => {
                    let mut f = Fluctuation::default();
                    f.record(narrow);
                    self.other.insert(i, (pc, f));
                }
            }
        }
    }

    /// Records one execution of text slot `slot` of a sized tracker,
    /// narrow at 16 bits or not.
    #[inline]
    pub(crate) fn record_slot(&mut self, slot: usize, narrow: bool) {
        self.slots[slot].record(narrow);
    }

    /// Every static instruction executed at least once, with its PC, by
    /// ascending PC.
    fn entries(&self) -> impl Iterator<Item = (u64, &Fluctuation)> {
        let text = self.slots.iter().enumerate();
        let text = text.map(|(i, f)| (TEXT_BASE + 4 * i as u64, f));
        let other = self.other.iter().map(|(pc, f)| (*pc, f));
        text.chain(other).filter(|(_, f)| f.executions > 0)
    }

    /// Number of distinct PCs observed.
    pub fn static_instructions(&self) -> u64 {
        self.entries().count() as u64
    }

    /// Fraction of static instructions (executed at least twice) whose
    /// precision crossed the 16-bit line at least once.
    pub fn fluctuating_fraction(&self) -> f64 {
        let eligible = self.entries().filter(|(_, f)| f.executions >= 2);
        let (eligible, flipped) = eligible.fold((0u64, 0u64), |(n, k), (_, f)| {
            (n + 1, k + u64::from(f.flipped))
        });
        if eligible == 0 {
            return 0.0;
        }
        flipped as f64 / eligible as f64
    }
}

/// Counts of operations whose operands are both narrow, broken down by
/// operation class — the data of Figures 4 and 5.
#[derive(Debug, Clone, Copy, Default)]
pub struct NarrowBreakdown {
    /// Per class: (total, both ≤ 16 bits, both ≤ 33 bits).
    /// Indexed by [`class_slot`].
    pub by_class: [(u64, u64, u64); 6],
    /// All instructions recorded (the percentage denominator).
    pub total_instructions: u64,
}

/// The breakdown slot for a class: arith, logic, shift, mult/div,
/// memory, branch/jump. `None` for system ops.
pub fn class_slot(class: OpClass) -> Option<usize> {
    match class {
        OpClass::IntArith => Some(0),
        OpClass::Logic => Some(1),
        OpClass::Shift => Some(2),
        OpClass::Mult | OpClass::Div => Some(3),
        OpClass::Load | OpClass::Store => Some(4),
        OpClass::Branch | OpClass::Jump => Some(5),
        OpClass::System => None,
    }
}

/// Human-readable names for the breakdown slots.
pub const CLASS_SLOT_NAMES: [&str; 6] = ["arith", "logic", "shift", "mult", "memory", "branch"];

impl NarrowBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed operation.
    #[inline]
    pub fn record(&mut self, class: OpClass, a: u64, b: u64) {
        self.record_width(class, pair_width(a, b));
    }

    /// Records one executed operation whose operand pair is `w` bits
    /// wide (see [`pair_width`]).
    #[inline]
    pub(crate) fn record_width(&mut self, class: OpClass, w: u32) {
        self.total_instructions += 1;
        let Some(slot) = class_slot(class) else {
            return;
        };
        let entry = &mut self.by_class[slot];
        entry.0 += 1;
        if w <= 16 {
            entry.1 += 1;
        }
        if w <= 33 {
            entry.2 += 1;
        }
    }

    /// Fraction of all instructions that are class-`slot` ops with both
    /// operands ≤ 16 bits (a Figure 4 bar segment).
    pub fn narrow16_fraction(&self, slot: usize) -> f64 {
        ratio(self.by_class[slot].1, self.total_instructions)
    }

    /// Fraction of all instructions that are class-`slot` ops with both
    /// operands ≤ 33 bits (a Figure 5 bar segment).
    pub fn narrow33_fraction(&self, slot: usize) -> f64 {
        ratio(self.by_class[slot].2, self.total_instructions)
    }

    /// Total fraction of instructions with both operands ≤ 16 bits.
    pub fn narrow16_total_fraction(&self) -> f64 {
        let n: u64 = self.by_class.iter().map(|c| c.1).sum();
        ratio(n, self.total_instructions)
    }

    /// Total fraction of instructions with both operands ≤ 33 bits.
    pub fn narrow33_total_fraction(&self) -> f64 {
        let n: u64 = self.by_class.iter().map(|c| c.2).sum();
        ratio(n, self.total_instructions)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-cycle resource-occupancy accounting: where the machine's
/// bottleneck sits (fetch-starved, dependence-bound, or issue-limited).
#[derive(Debug, Clone, Default)]
pub struct Occupancy {
    /// `issue_slots[n]` = cycles in which exactly `n` issue slots were
    /// used (length `issue_width + 1`).
    pub issue_slots: Vec<u64>,
    /// Sum over cycles of RUU entries occupied (divide by cycles for
    /// the average).
    pub ruu_sum: u64,
    /// Sum over cycles of integer ALUs busy.
    pub alu_sum: u64,
}

impl Occupancy {
    /// Average RUU occupancy over a `cycles`-cycle run.
    pub fn avg_ruu(&self, cycles: u64) -> f64 {
        ratio(self.ruu_sum, cycles)
    }

    /// Average ALUs busy per cycle.
    pub fn avg_alus(&self, cycles: u64) -> f64 {
        ratio(self.alu_sum, cycles)
    }

    /// Fraction of cycles with every issue slot used (issue bandwidth
    /// saturated — the cycles operation packing relieves): the last
    /// [`Occupancy::issue_slots`] bucket.
    pub fn saturation_fraction(&self, cycles: u64) -> f64 {
        ratio(self.issue_slots.last().copied().unwrap_or(0), cycles)
    }
}

/// Operation-packing counters (Section 5.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Packed groups issued (each used one issue slot and one ALU).
    pub groups: u64,
    /// Instructions that issued as members of a packed group.
    pub packed_ops: u64,
    /// Issue slots saved: sum over groups of (size − 1).
    pub slots_saved: u64,
    /// Instructions issued speculatively under replay packing.
    pub replay_issued: u64,
    /// Replay-packed instructions squashed by a carry ripple and
    /// re-issued full-width.
    pub replay_squashed: u64,
}

/// Branch-prediction outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Control-transfer instructions committed.
    pub committed: u64,
    /// Conditional branches committed.
    pub cond_committed: u64,
    /// Correct-path mispredictions (each triggered a recovery).
    pub mispredicts: u64,
}

impl BranchStats {
    /// Prediction accuracy over committed control instructions.
    pub fn accuracy(&self) -> f64 {
        if self.committed == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.committed as f64
        }
    }
}

/// All statistics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions fetched (includes wrong path).
    pub fetched: u64,
    /// Instructions dispatched into the RUU (includes wrong path).
    pub dispatched: u64,
    /// Instructions issued to functional units (includes wrong path and
    /// replay re-issues).
    pub issued: u64,
    /// Instructions committed (architecturally retired).
    pub committed: u64,
    /// Instructions squashed by recoveries.
    pub squashed: u64,
    /// Committed-instruction operand-width histogram (Figure 1).
    pub width_committed: WidthHistogram,
    /// Executed-instruction operand-width histogram (wrong path
    /// included).
    pub width_executed: WidthHistogram,
    /// Per-PC precision fluctuation over *executed* ops (Figure 2 —
    /// the perfect/realistic contrast comes from wrong-path execution).
    pub fluctuation: FluctuationTracker,
    /// Narrow-operation breakdown over executed ops (Figures 4, 5).
    pub breakdown: NarrowBreakdown,
    /// Integer-unit power accounting (Figures 6, 7).
    pub power: PowerAccumulator,
    /// Extension: narrow-width data-cache/bus traffic accounting (the
    /// paper's Section 6 future work).
    pub mem_ext: nwo_power::MemPowerExt,
    /// Packing counters (Figures 10, 11).
    pub pack: PackStats,
    /// Resource-occupancy accounting.
    pub occupancy: Occupancy,
    /// Lost-commit-slot attribution: every cycle the commit stage
    /// retires fewer than `commit_width` instructions, the missing slots
    /// are charged to one [`nwo_obs::StallCause`]; over a run
    /// `stall.total() == commit_width * cycles - committed` exactly.
    pub stall: StallBreakdown,
    /// Branch counters.
    pub branch: BranchStats,
    /// Power-saving (gated) ops with at least one operand straight from
    /// a load (the 13.1% / 1.5% statistic of Section 4.2).
    pub gated_ops_with_load_operand: u64,
    /// All gated ops (denominator for the above).
    pub gated_ops: u64,
}

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.committed, self.cycles)
    }

    /// Fraction of gated ops fed directly by a load.
    pub fn load_operand_fraction(&self) -> f64 {
        ratio(self.gated_ops_with_load_operand, self.gated_ops)
    }
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

use nwo_ckpt::{CkptError, SectionReader, SectionWriter};
use nwo_obs::StallCause;

impl nwo_ckpt::Checkpointable for WidthHistogram {
    fn save(&self, w: &mut SectionWriter) {
        for &c in &self.counts {
            w.put_u64(c);
        }
        w.put_u64(self.total);
    }

    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
        for c in self.counts.iter_mut() {
            *c = r.take_u64("width histogram bucket")?;
        }
        self.total = r.take_u64("width histogram total")?;
        let sum: u64 = self.counts.iter().sum();
        if sum != self.total {
            return Err(CkptError::Mismatch {
                what: "width histogram total",
                found: self.total,
                expected: sum,
            });
        }
        Ok(())
    }
}

/// Serialized sorted by PC, executed instructions only, so a tracker's
/// payload depends on what it recorded, not on how it stores it.
impl nwo_ckpt::Checkpointable for FluctuationTracker {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.static_instructions());
        for (pc, f) in self.entries() {
            w.put_u64(pc);
            w.put_bool(f.narrow);
            w.put_bool(f.flipped);
            w.put_u64(f.executions);
        }
    }

    /// Entries must come in ascending PC order, each executed at least
    /// once; a sized tracker also requires each PC to be one of its text
    /// slots. Anything else is [`CkptError::Malformed`], and the tracker
    /// then holds an unspecified subset of the entries.
    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
        let n = r.take_len(u64::MAX, "fluctuation tracker entry count")?;
        self.slots.fill(Fluctuation::default());
        self.other.clear();
        let mut last = None;
        for _ in 0..n {
            let pc = r.take_u64("fluctuation tracker pc")?;
            let f = Fluctuation {
                narrow: r.take_bool("fluctuation tracker narrowness")?,
                flipped: r.take_bool("fluctuation tracker flip flag")?,
                executions: r.take_u64("fluctuation tracker executions")?,
            };
            if last.is_some_and(|last| pc <= last) || f.executions == 0 {
                return Err(CkptError::Malformed(format!(
                    "fluctuation tracker entry for pc {pc:#x} is out of order or never executed"
                )));
            }
            last = Some(pc);
            match self.slot(pc) {
                Some(slot) => self.slots[slot] = f,
                None if self.slots.is_empty() => self.other.push((pc, f)),
                None => {
                    return Err(CkptError::Malformed(format!(
                        "fluctuation tracker pc {pc:#x} is not a text slot"
                    )))
                }
            }
        }
        Ok(())
    }
}

impl nwo_ckpt::Checkpointable for NarrowBreakdown {
    fn save(&self, w: &mut SectionWriter) {
        for (total, n16, n33) in &self.by_class {
            w.put_u64(*total);
            w.put_u64(*n16);
            w.put_u64(*n33);
        }
        w.put_u64(self.total_instructions);
    }

    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
        for entry in self.by_class.iter_mut() {
            entry.0 = r.take_u64("breakdown class total")?;
            entry.1 = r.take_u64("breakdown class narrow16")?;
            entry.2 = r.take_u64("breakdown class narrow33")?;
        }
        self.total_instructions = r.take_u64("breakdown total")?;
        Ok(())
    }
}

impl nwo_ckpt::Checkpointable for Occupancy {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.issue_slots.len() as u64);
        for &c in &self.issue_slots {
            w.put_u64(c);
        }
        w.put_u64(self.ruu_sum);
        w.put_u64(self.alu_sum);
    }

    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
        let n = r.take_len(1 << 16, "occupancy issue-slot bucket count")?;
        self.issue_slots.clear();
        for _ in 0..n {
            self.issue_slots
                .push(r.take_u64("occupancy issue-slot bucket")?);
        }
        self.ruu_sum = r.take_u64("occupancy ruu_sum")?;
        self.alu_sum = r.take_u64("occupancy alu_sum")?;
        Ok(())
    }
}

impl nwo_ckpt::Checkpointable for PackStats {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.groups);
        w.put_u64(self.packed_ops);
        w.put_u64(self.slots_saved);
        w.put_u64(self.replay_issued);
        w.put_u64(self.replay_squashed);
    }

    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
        self.groups = r.take_u64("pack groups")?;
        self.packed_ops = r.take_u64("pack packed_ops")?;
        self.slots_saved = r.take_u64("pack slots_saved")?;
        self.replay_issued = r.take_u64("pack replay_issued")?;
        self.replay_squashed = r.take_u64("pack replay_squashed")?;
        Ok(())
    }
}

impl nwo_ckpt::Checkpointable for BranchStats {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.committed);
        w.put_u64(self.cond_committed);
        w.put_u64(self.mispredicts);
    }

    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
        self.committed = r.take_u64("branch committed")?;
        self.cond_committed = r.take_u64("branch cond_committed")?;
        self.mispredicts = r.take_u64("branch mispredicts")?;
        Ok(())
    }
}

/// Serializes a [`StallBreakdown`] through its public API — `nwo-obs`
/// stays dependency-free, so the encoding lives here: a cause count
/// (layout guard) followed by one slot counter per [`StallCause::ALL`]
/// entry, in display order.
pub(crate) fn save_stall(b: &StallBreakdown, w: &mut SectionWriter) {
    w.put_u64(StallCause::ALL.len() as u64);
    for cause in StallCause::ALL {
        w.put_u64(b.get(cause));
    }
}

/// Inverse of [`save_stall`]; rejects a file written with a different
/// cause taxonomy.
pub(crate) fn restore_stall(r: &mut SectionReader) -> Result<StallBreakdown, CkptError> {
    let n = r.take_u64("stall cause count")?;
    if n != StallCause::ALL.len() as u64 {
        return Err(CkptError::Mismatch {
            what: "stall cause count",
            found: n,
            expected: StallCause::ALL.len() as u64,
        });
    }
    let mut b = StallBreakdown::new();
    for cause in StallCause::ALL {
        b.charge(cause, r.take_u64("stall cause slots")?);
    }
    Ok(b)
}

impl nwo_ckpt::Checkpointable for SimStats {
    fn save(&self, w: &mut SectionWriter) {
        use nwo_ckpt::Checkpointable as Ckpt;
        w.put_u64(self.cycles);
        w.put_u64(self.fetched);
        w.put_u64(self.dispatched);
        w.put_u64(self.issued);
        w.put_u64(self.committed);
        w.put_u64(self.squashed);
        Ckpt::save(&self.width_committed, w);
        Ckpt::save(&self.width_executed, w);
        Ckpt::save(&self.fluctuation, w);
        Ckpt::save(&self.breakdown, w);
        Ckpt::save(&self.power, w);
        Ckpt::save(&self.mem_ext, w);
        Ckpt::save(&self.pack, w);
        Ckpt::save(&self.occupancy, w);
        save_stall(&self.stall, w);
        Ckpt::save(&self.branch, w);
        w.put_u64(self.gated_ops_with_load_operand);
        w.put_u64(self.gated_ops);
    }

    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
        use nwo_ckpt::Checkpointable as Ckpt;
        self.cycles = r.take_u64("stats cycles")?;
        self.fetched = r.take_u64("stats fetched")?;
        self.dispatched = r.take_u64("stats dispatched")?;
        self.issued = r.take_u64("stats issued")?;
        self.committed = r.take_u64("stats committed")?;
        self.squashed = r.take_u64("stats squashed")?;
        Ckpt::restore(&mut self.width_committed, r)?;
        Ckpt::restore(&mut self.width_executed, r)?;
        Ckpt::restore(&mut self.fluctuation, r)?;
        Ckpt::restore(&mut self.breakdown, r)?;
        Ckpt::restore(&mut self.power, r)?;
        Ckpt::restore(&mut self.mem_ext, r)?;
        Ckpt::restore(&mut self.pack, r)?;
        Ckpt::restore(&mut self.occupancy, r)?;
        self.stall = restore_stall(r)?;
        Ckpt::restore(&mut self.branch, r)?;
        self.gated_ops_with_load_operand = r.take_u64("stats gated_ops_with_load_operand")?;
        self.gated_ops = r.take_u64("stats gated_ops")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_cumulative_behaviour() {
        let mut h = WidthHistogram::new();
        h.record(17, 2); // width 5
        h.record(0xffff, 1); // width 16
        h.record(0x1_0000_0000, 4); // width 33
        assert_eq!(h.total(), 3);
        assert!((h.cumulative(4) - 0.0).abs() < 1e-12);
        assert!((h.cumulative(5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((h.cumulative(16) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.cumulative(32) - 2.0 / 3.0).abs() < 1e-12);
        assert!((h.cumulative(33) - 1.0).abs() < 1e-12);
        assert!((h.cumulative(64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = WidthHistogram::new();
        a.record(1, 1);
        let mut b = WidthHistogram::new();
        b.record(0x1_0000, 1); // width 17
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.at(1), 1);
        assert_eq!(a.at(17), 1);
    }

    #[test]
    fn histogram_log2_export_preserves_buckets() {
        let mut h = WidthHistogram::new();
        h.record(17, 2); // width 5
        h.record(17, 3); // width 5
        h.record(0x1_0000_0000, 4); // width 33
        let log2 = h.to_log2();
        assert_eq!(log2.count(), 3);
        assert_eq!(log2.bucket(5), 2);
        assert_eq!(log2.bucket(33), 1);
        assert_eq!(log2.max_bucket(), Some(33));
        assert!((log2.mean() - (5.0 + 5.0 + 33.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fluctuation_detects_flips() {
        let mut f = FluctuationTracker::new();
        // PC 0x100 stays narrow; PC 0x200 flips.
        f.record(0x100, 1, 2);
        f.record(0x100, 3, 4);
        f.record(0x200, 1, 2);
        f.record(0x200, 1 << 30, 2);
        assert_eq!(f.static_instructions(), 2);
        assert!((f.fluctuating_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fluctuation_ignores_single_executions() {
        let mut f = FluctuationTracker::new();
        f.record(0x100, 1, 2);
        assert_eq!(f.fluctuating_fraction(), 0.0);
    }

    /// The tracker as it was before it moved to per-slot arrays: a map
    /// from PC to (last narrowness, flipped, executions).
    #[derive(Default)]
    struct MapTracker(std::collections::HashMap<u64, (bool, bool, u64)>);

    impl MapTracker {
        fn record(&mut self, pc: u64, a: u64, b: u64) {
            let narrow = width64(a).max(width64(b)) <= 16;
            let e = self.0.entry(pc).or_insert((narrow, false, 0));
            *e = (narrow, e.1 || e.0 != narrow, e.2 + 1);
        }

        fn fluctuating_fraction(&self) -> f64 {
            let eligible = self.0.values().filter(|(_, _, n)| *n >= 2).count();
            let flipped = self.0.values().filter(|(_, f, n)| *f && *n >= 2).count();
            if eligible == 0 {
                0.0
            } else {
                flipped as f64 / eligible as f64
            }
        }

        fn save(&self, w: &mut SectionWriter) {
            let mut entries: Vec<_> = self.0.iter().collect();
            entries.sort_unstable_by_key(|(pc, _)| **pc);
            w.put_u64(entries.len() as u64);
            for (pc, (last, fluct, execs)) in entries {
                w.put_u64(*pc);
                w.put_bool(*last);
                w.put_bool(*fluct);
                w.put_u64(*execs);
            }
        }
    }

    fn payload(save: impl FnOnce(&mut SectionWriter)) -> Vec<u8> {
        let mut w = SectionWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    fn restore_into(t: &mut FluctuationTracker, bytes: &[u8]) -> Result<(), CkptError> {
        nwo_ckpt::Checkpointable::restore(t, &mut SectionReader::new(bytes.to_vec()))
    }

    /// Operand values around the 16-bit line, so runs both stay and flip.
    fn operand() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..1 << 16, (1u64 << 16)..1 << 40, any::<u64>()]
    }

    proptest! {
        /// Over random executions of a 40-word text, the per-slot
        /// tracker reports what the map did, saves the same bytes, and
        /// restores them into a sized or an unsized tracker unchanged.
        #[test]
        fn per_slot_tracker_matches_the_map(
            runs in prop::collection::vec((0u64..40, operand(), operand()), 0..200),
        ) {
            let mut slots = FluctuationTracker::for_text(40);
            let mut map = MapTracker::default();
            for &(slot, a, b) in &runs {
                slots.record(TEXT_BASE + 4 * slot, a, b);
                map.record(TEXT_BASE + 4 * slot, a, b);
            }
            prop_assert_eq!(slots.static_instructions(), map.0.len() as u64);
            prop_assert_eq!(
                slots.fluctuating_fraction().to_bits(),
                map.fluctuating_fraction().to_bits()
            );
            let bytes = payload(|w| nwo_ckpt::Checkpointable::save(&slots, w));
            prop_assert_eq!(&bytes, &payload(|w| map.save(w)));
            for mut restored in [FluctuationTracker::for_text(40), FluctuationTracker::new()] {
                restore_into(&mut restored, &bytes).expect("restores");
                let again = payload(|w| nwo_ckpt::Checkpointable::save(&restored, w));
                prop_assert_eq!(&again, &bytes);
                prop_assert_eq!(restored.static_instructions(), slots.static_instructions());
            }
        }
    }

    #[test]
    fn sized_tracker_rejects_and_ignores_pcs_outside_its_text() {
        let mut t = FluctuationTracker::for_text(4);
        for pc in [TEXT_BASE - 4, TEXT_BASE + 2, TEXT_BASE + 16, 0x100] {
            t.record(pc, 1, 2);
        }
        assert_eq!(t.static_instructions(), 0);
        let mut outsider = FluctuationTracker::new();
        outsider.record(TEXT_BASE + 4, 1, 2);
        outsider.record(TEXT_BASE + 16, 1, 2);
        let bytes = payload(|w| nwo_ckpt::Checkpointable::save(&outsider, w));
        assert!(matches!(
            restore_into(&mut t, &bytes),
            Err(CkptError::Malformed(m)) if m.contains("not a text slot")
        ));
        // An unsized tracker keeps it.
        let mut kept = FluctuationTracker::new();
        restore_into(&mut kept, &bytes).expect("restores");
        assert_eq!(kept.static_instructions(), 2);
    }

    #[test]
    fn out_of_order_entries_are_malformed() {
        let mut w = SectionWriter::new();
        w.put_u64(2);
        for pc in [TEXT_BASE + 8, TEXT_BASE] {
            w.put_u64(pc);
            w.put_bool(true);
            w.put_bool(false);
            w.put_u64(1);
        }
        let bytes = w.into_bytes();
        for mut t in [FluctuationTracker::for_text(4), FluctuationTracker::new()] {
            assert!(matches!(
                restore_into(&mut t, &bytes),
                Err(CkptError::Malformed(_))
            ));
        }
    }

    #[test]
    fn breakdown_fractions() {
        let mut b = NarrowBreakdown::new();
        b.record(OpClass::IntArith, 17, 2); // narrow16 arith
        b.record(OpClass::Load, 0x1_0000_0000, 16); // narrow33 memory
        b.record(OpClass::Mult, 1 << 40, 2); // wide mult
        b.record(OpClass::System, 0, 0); // counted in denominator only
        assert_eq!(b.total_instructions, 4);
        assert!((b.narrow16_fraction(0) - 0.25).abs() < 1e-12);
        assert!((b.narrow16_total_fraction() - 0.25).abs() < 1e-12);
        assert!((b.narrow33_fraction(4) - 0.25).abs() < 1e-12);
        assert!((b.narrow33_total_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(b.by_class[3], (1, 0, 0));
    }

    #[test]
    fn class_slots_cover_everything_but_system() {
        assert_eq!(class_slot(OpClass::IntArith), Some(0));
        assert_eq!(class_slot(OpClass::Div), Some(3));
        assert_eq!(class_slot(OpClass::Store), Some(4));
        assert_eq!(class_slot(OpClass::Jump), Some(5));
        assert_eq!(class_slot(OpClass::System), None);
        assert_eq!(CLASS_SLOT_NAMES.len(), 6);
    }

    #[test]
    fn branch_accuracy() {
        let b = BranchStats {
            committed: 100,
            cond_committed: 80,
            mispredicts: 10,
        };
        assert!((b.accuracy() - 0.9).abs() < 1e-12);
        assert_eq!(BranchStats::default().accuracy(), 1.0);
    }

    #[test]
    fn ipc_computation() {
        let stats = SimStats {
            cycles: 50,
            committed: 100,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 2.0).abs() < 1e-12);
    }
}
