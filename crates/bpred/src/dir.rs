//! Direction predictors: static, bimodal, gshare, two-level local, and
//! the Table 1 combining predictor.
//!
//! All predictors are trained at commit time with the architected
//! history, matching SimpleScalar's `sim-outorder` (`bpred_update` runs
//! in `ruu_commit`). Wrong-path branches therefore never pollute tables.

use crate::counter::SatCounter;

/// Which direction predictor to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirKind {
    /// Always predict not taken.
    NotTaken,
    /// Always predict taken.
    Taken,
    /// PC-indexed 2-bit counters.
    Bimodal {
        /// Table entries (power of two).
        entries: usize,
    },
    /// Global history XOR PC indexing 2-bit counters.
    GShare {
        /// Table entries (power of two).
        entries: usize,
        /// Global history bits.
        history_bits: u32,
    },
    /// Per-branch history indexing a second-level counter table
    /// (Table 1: "1K 3-bit local predictor, 10-bit history").
    Local {
        /// First-level (history) table entries.
        l1_entries: usize,
        /// History bits per entry (also sizes the counter table).
        history_bits: u32,
        /// Second-level counter width in bits.
        counter_bits: u32,
    },
    /// The Table 1 combining predictor: a selector chooses between the
    /// local and global components per branch.
    Combining,
}

impl DirKind {
    /// The exact Table 1 configuration: 4K 2-bit selector with 12-bit
    /// history; 1K 3-bit local predictor with 10-bit history; 4K 2-bit
    /// global predictor with 12-bit history.
    pub fn table1() -> DirKind {
        DirKind::Combining
    }
}

#[derive(Debug, Clone)]
struct Bimodal {
    table: Vec<SatCounter>,
}

impl Bimodal {
    fn new(entries: usize, bits: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Bimodal {
            table: vec![SatCounter::new(bits); entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.table.len() - 1)
    }
}

#[derive(Debug, Clone)]
struct GShare {
    table: Vec<SatCounter>,
    history: u64,
    history_mask: u64,
}

impl GShare {
    fn new(entries: usize, history_bits: u32, counter_bits: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        GShare {
            table: vec![SatCounter::new(counter_bits); entries],
            history: 0,
            history_mask: (1 << history_bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) & (self.table.len() - 1)
    }

    /// `history` with `taken` shifted in.
    fn shifted(&self, history: u64, taken: bool) -> u64 {
        ((history << 1) | taken as u64) & self.history_mask
    }
}

#[derive(Debug, Clone)]
struct Local {
    histories: Vec<u64>,
    counters: Vec<SatCounter>,
    history_bits: u32,
}

impl Local {
    fn new(l1_entries: usize, history_bits: u32, counter_bits: u32) -> Self {
        assert!(
            l1_entries.is_power_of_two(),
            "table size must be a power of two"
        );
        Local {
            histories: vec![0; l1_entries],
            counters: vec![SatCounter::new(counter_bits); 1 << history_bits],
            history_bits,
        }
    }

    fn l1_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.histories.len() - 1)
    }

    /// `history` with `taken` shifted in.
    fn shifted(&self, history: u64, taken: bool) -> u64 {
        ((history << 1) | taken as u64) & ((1 << self.history_bits) - 1)
    }
}

/// The Table 1 combining (tournament) predictor.
#[derive(Debug, Clone)]
struct Combining {
    selector: Vec<SatCounter>,
    local: Local,
    global: GShare,
}

impl Combining {
    fn new() -> Self {
        Combining {
            // 4K 2-bit selector, indexed by 12 bits of global history
            // hashed with the PC.
            selector: vec![SatCounter::new(2); 4096],
            // 1K-entry, 10-bit-history, 3-bit local component.
            local: Local::new(1024, 10, 3),
            // 4K 2-bit global component over 12 bits of history.
            global: GShare::new(4096, 12, 2),
        }
    }

    fn selector_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.global.history) as usize) & (self.selector.len() - 1)
    }
}

/// Per-prediction state captured at lookup time: the table indices the
/// prediction used (so commit-time training hits the same counters even
/// after speculative history updates) and the pre-lookup history (so a
/// misprediction can repair the history registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirLookup {
    /// The prediction made.
    pub taken: bool,
    payload: LookupPayload,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LookupPayload {
    Static,
    Bimodal {
        idx: usize,
    },
    GShare {
        idx: usize,
        ghist_before: u64,
    },
    Local {
        l1: usize,
        hist_before: u64,
    },
    Combining {
        sel_idx: usize,
        global_idx: usize,
        local_l1: usize,
        local_hist_before: u64,
        ghist_before: u64,
        local_pred: bool,
        global_pred: bool,
    },
}

#[derive(Debug, Clone)]
enum Impl {
    Static(bool),
    Bimodal(Bimodal),
    GShare(GShare),
    Local(Local),
    Combining(Combining),
}

/// A trainable direction predictor.
///
/// # Example
///
/// ```
/// use nwo_bpred::{DirKind, DirPredictor};
///
/// let mut p = DirPredictor::new(DirKind::table1());
/// // Train until the history registers saturate with the taken pattern.
/// for _ in 0..64 {
///     p.update(0x1000, true);
/// }
/// assert!(p.predict(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct DirPredictor {
    kind: DirKind,
    imp: Impl,
}

impl DirPredictor {
    /// Builds a predictor of the given kind.
    pub fn new(kind: DirKind) -> DirPredictor {
        let imp = match kind {
            DirKind::NotTaken => Impl::Static(false),
            DirKind::Taken => Impl::Static(true),
            DirKind::Bimodal { entries } => Impl::Bimodal(Bimodal::new(entries, 2)),
            DirKind::GShare {
                entries,
                history_bits,
            } => Impl::GShare(GShare::new(entries, history_bits, 2)),
            DirKind::Local {
                l1_entries,
                history_bits,
                counter_bits,
            } => Impl::Local(Local::new(l1_entries, history_bits, counter_bits)),
            DirKind::Combining => Impl::Combining(Combining::new()),
        };
        DirPredictor { kind, imp }
    }

    /// The configuration this predictor was built with.
    pub fn kind(&self) -> DirKind {
        self.kind
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.probe(pc).taken
    }

    /// Trains with a committed branch outcome, on the counters a lookup
    /// made now would consult: `commit(&lookup(pc, false), taken,
    /// false)`.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let lu = self.probe(pc);
        self.commit(&lu, taken, false);
    }

    /// Predicts and, when `speculative_history` is set, immediately
    /// shifts the history registers with the *predicted* outcome — the
    /// way deep pipelines keep history fresh across the many in-flight
    /// branches between fetch and commit. The returned [`DirLookup`]
    /// captures the table indices used (for [`DirPredictor::commit`])
    /// and the pre-lookup history (for [`DirPredictor::repair`]).
    pub fn lookup(&mut self, pc: u64, speculative_history: bool) -> DirLookup {
        let lu = self.probe(pc);
        if speculative_history {
            self.repair(&lu, lu.taken);
        }
        lu
    }

    /// The prediction for `pc`, with the table indices and history it
    /// read. Changes nothing.
    fn probe(&self, pc: u64) -> DirLookup {
        let (taken, payload) = match &self.imp {
            Impl::Static(taken) => (*taken, LookupPayload::Static),
            Impl::Bimodal(b) => {
                let idx = b.index(pc);
                (b.table[idx].taken(), LookupPayload::Bimodal { idx })
            }
            Impl::GShare(g) => {
                let idx = g.index(pc);
                let ghist_before = g.history;
                (
                    g.table[idx].taken(),
                    LookupPayload::GShare { idx, ghist_before },
                )
            }
            Impl::Local(l) => {
                let l1 = l.l1_index(pc);
                let hist_before = l.histories[l1];
                (
                    l.counters[hist_before as usize].taken(),
                    LookupPayload::Local { l1, hist_before },
                )
            }
            Impl::Combining(c) => {
                let sel_idx = c.selector_index(pc);
                let global_idx = c.global.index(pc);
                let local_l1 = c.local.l1_index(pc);
                let local_hist_before = c.local.histories[local_l1];
                let local_pred = c.local.counters[local_hist_before as usize].taken();
                let global_pred = c.global.table[global_idx].taken();
                // Selector counter high half -> trust the global component.
                let taken = if c.selector[sel_idx].taken() {
                    global_pred
                } else {
                    local_pred
                };
                let payload = LookupPayload::Combining {
                    sel_idx,
                    global_idx,
                    local_l1,
                    local_hist_before,
                    ghist_before: c.global.history,
                    local_pred,
                    global_pred,
                };
                (taken, payload)
            }
        };
        DirLookup { taken, payload }
    }

    /// Trains the counters a [`lookup`](DirPredictor::lookup) consulted,
    /// with the architected outcome. With speculative history the
    /// history registers are *not* shifted here (that happened at
    /// lookup, or at [`repair`](DirPredictor::repair)); without it, they
    /// are.
    pub fn commit(&mut self, lu: &DirLookup, taken: bool, speculative_history: bool) {
        match (&mut self.imp, lu.payload) {
            (Impl::Static(_), _) => {}
            (Impl::Bimodal(b), LookupPayload::Bimodal { idx }) => b.table[idx].train(taken),
            (Impl::GShare(g), LookupPayload::GShare { idx, .. }) => {
                g.table[idx].train(taken);
                if !speculative_history {
                    g.history = g.shifted(g.history, taken);
                }
            }
            (Impl::Local(l), LookupPayload::Local { l1, hist_before }) => {
                l.counters[hist_before as usize].train(taken);
                if !speculative_history {
                    l.histories[l1] = l.shifted(hist_before, taken);
                }
            }
            (
                Impl::Combining(c),
                LookupPayload::Combining {
                    sel_idx,
                    global_idx,
                    local_l1,
                    local_hist_before,
                    local_pred,
                    global_pred,
                    ..
                },
            ) => {
                // Train the selector toward whichever component was
                // right, but only when they disagree.
                if local_pred != global_pred {
                    c.selector[sel_idx].train(global_pred == taken);
                }
                c.global.table[global_idx].train(taken);
                c.local.counters[local_hist_before as usize].train(taken);
                if !speculative_history {
                    c.global.history = c.global.shifted(c.global.history, taken);
                    c.local.histories[local_l1] = c.local.shifted(local_hist_before, taken);
                }
            }
            _ => debug_assert!(false, "lookup payload does not match predictor kind"),
        }
    }

    /// Repairs the speculative history after this lookup's branch turned
    /// out mispredicted: restores the pre-lookup history and shifts in
    /// the actual outcome. Younger speculative shifts are discarded
    /// wholesale, which is exactly what restoring the older snapshot
    /// achieves for the global history.
    pub fn repair(&mut self, lu: &DirLookup, actual: bool) {
        match (&mut self.imp, lu.payload) {
            (Impl::GShare(g), LookupPayload::GShare { ghist_before, .. }) => {
                g.history = g.shifted(ghist_before, actual);
            }
            (Impl::Local(l), LookupPayload::Local { l1, hist_before }) => {
                l.histories[l1] = l.shifted(hist_before, actual);
            }
            (
                Impl::Combining(c),
                LookupPayload::Combining {
                    local_l1,
                    local_hist_before,
                    ghist_before,
                    ..
                },
            ) => {
                c.global.history = c.global.shifted(ghist_before, actual);
                c.local.histories[local_l1] = c.local.shifted(local_hist_before, actual);
            }
            _ => {}
        }
    }

    /// Flips the low bit of one direction counter chosen from `entropy`
    /// — deterministic fault injection for robustness campaigns. The
    /// corruption is micro-architectural only: predictions may get
    /// worse, architected results cannot change. Returns false when the
    /// predictor has no mutable state (static taken/not-taken).
    pub fn flip_state_bit(&mut self, entropy: u64) -> bool {
        fn flip(table: &mut [SatCounter], entropy: u64) -> bool {
            if table.is_empty() {
                return false;
            }
            let idx = (entropy % table.len() as u64) as usize;
            let flipped = table[idx].value() ^ 1;
            table[idx].set_value(flipped);
            true
        }
        match &mut self.imp {
            Impl::Static(_) => false,
            Impl::Bimodal(b) => flip(&mut b.table, entropy),
            Impl::GShare(g) => flip(&mut g.table, entropy),
            Impl::Local(l) => flip(&mut l.counters, entropy),
            Impl::Combining(c) => match entropy % 3 {
                0 => flip(&mut c.selector, entropy >> 2),
                1 => flip(&mut c.local.counters, entropy >> 2),
                _ => flip(&mut c.global.table, entropy >> 2),
            },
        }
    }
}

fn save_counters(table: &[SatCounter], w: &mut nwo_ckpt::SectionWriter) {
    w.put_u64(table.len() as u64);
    for c in table {
        w.put_u8(c.value());
    }
}

fn restore_counters(
    table: &mut [SatCounter],
    r: &mut nwo_ckpt::SectionReader,
    what: &'static str,
) -> Result<(), nwo_ckpt::CkptError> {
    let len = r.take_u64(what)?;
    if len != table.len() as u64 {
        return Err(nwo_ckpt::CkptError::Mismatch {
            what,
            found: len,
            expected: table.len() as u64,
        });
    }
    for c in table.iter_mut() {
        c.set_value(r.take_u8("counter value")?);
    }
    Ok(())
}

impl GShare {
    fn save_state(&self, w: &mut nwo_ckpt::SectionWriter) {
        save_counters(&self.table, w);
        w.put_u64(self.history);
    }

    fn restore_state(
        &mut self,
        r: &mut nwo_ckpt::SectionReader,
    ) -> Result<(), nwo_ckpt::CkptError> {
        restore_counters(&mut self.table, r, "gshare table size")?;
        self.history = r.take_u64("gshare history")? & self.history_mask;
        Ok(())
    }
}

impl Local {
    fn save_state(&self, w: &mut nwo_ckpt::SectionWriter) {
        w.put_u64(self.histories.len() as u64);
        for &h in &self.histories {
            w.put_u64(h);
        }
        save_counters(&self.counters, w);
    }

    fn restore_state(
        &mut self,
        r: &mut nwo_ckpt::SectionReader,
    ) -> Result<(), nwo_ckpt::CkptError> {
        let len = r.take_u64("local history table size")?;
        if len != self.histories.len() as u64 {
            return Err(nwo_ckpt::CkptError::Mismatch {
                what: "local history table size",
                found: len,
                expected: self.histories.len() as u64,
            });
        }
        let mask = (1u64 << self.history_bits) - 1;
        for h in self.histories.iter_mut() {
            *h = r.take_u64("local history")? & mask;
        }
        restore_counters(&mut self.counters, r, "local counter table size")
    }
}

impl nwo_ckpt::Checkpointable for DirPredictor {
    /// Serializes the predictor tables behind a variant tag; restore
    /// requires the receiver to be configured with the same [`DirKind`]
    /// and geometry (checkpoints carry state, not configuration).
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        match &self.imp {
            Impl::Static(taken) => {
                w.put_u8(0);
                w.put_bool(*taken);
            }
            Impl::Bimodal(b) => {
                w.put_u8(1);
                save_counters(&b.table, w);
            }
            Impl::GShare(g) => {
                w.put_u8(2);
                g.save_state(w);
            }
            Impl::Local(l) => {
                w.put_u8(3);
                l.save_state(w);
            }
            Impl::Combining(c) => {
                w.put_u8(4);
                save_counters(&c.selector, w);
                c.local.save_state(w);
                c.global.save_state(w);
            }
        }
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        let tag = r.take_u8("direction predictor tag")?;
        let expected = match &self.imp {
            Impl::Static(_) => 0,
            Impl::Bimodal(_) => 1,
            Impl::GShare(_) => 2,
            Impl::Local(_) => 3,
            Impl::Combining(_) => 4,
        };
        if tag != expected {
            return Err(nwo_ckpt::CkptError::Mismatch {
                what: "direction predictor kind",
                found: tag as u64,
                expected: expected as u64,
            });
        }
        match &mut self.imp {
            Impl::Static(taken) => {
                let saved = r.take_bool("static direction")?;
                if saved != *taken {
                    return Err(nwo_ckpt::CkptError::Mismatch {
                        what: "static predictor direction",
                        found: saved as u64,
                        expected: *taken as u64,
                    });
                }
            }
            Impl::Bimodal(b) => restore_counters(&mut b.table, r, "bimodal table size")?,
            Impl::GShare(g) => g.restore_state(r)?,
            Impl::Local(l) => l.restore_state(r)?,
            Impl::Combining(c) => {
                restore_counters(&mut c.selector, r, "combining selector size")?;
                c.local.restore_state(r)?;
                c.global.restore_state(r)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut DirPredictor, pc: u64, pattern: &[bool], reps: usize) {
        for _ in 0..reps {
            for &t in pattern {
                p.update(pc, t);
            }
        }
    }

    #[test]
    fn static_predictors() {
        let t = DirPredictor::new(DirKind::Taken);
        let n = DirPredictor::new(DirKind::NotTaken);
        assert!(t.predict(0x4000));
        assert!(!n.predict(0x4000));
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = DirPredictor::new(DirKind::Bimodal { entries: 2048 });
        train(&mut p, 0x1000, &[true], 4);
        assert!(p.predict(0x1000));
        train(&mut p, 0x2000, &[false], 4);
        assert!(!p.predict(0x2000));
        // Independent entries.
        assert!(p.predict(0x1000));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = DirPredictor::new(DirKind::GShare {
            entries: 4096,
            history_bits: 12,
        });
        // Alternating T/N is unlearnable by bimodal but trivial for
        // history-based predictors.
        let mut correct = 0;
        let mut next = true;
        for i in 0..2000 {
            if i >= 1000 && p.predict(0x1000) == next {
                correct += 1;
            }
            p.update(0x1000, next);
            next = !next;
        }
        assert!(
            correct > 950,
            "gshare should learn T/N/T/N, got {correct}/1000"
        );
    }

    #[test]
    fn local_learns_short_loop() {
        let mut p = DirPredictor::new(DirKind::Local {
            l1_entries: 1024,
            history_bits: 10,
            counter_bits: 3,
        });
        // A loop branch taken 3 times then not taken, repeatedly.
        let pattern = [true, true, true, false];
        let mut correct = 0;
        let mut total = 0;
        for rep in 0..600 {
            for &t in &pattern {
                if rep >= 300 {
                    total += 1;
                    if p.predict(0x1000) == t {
                        correct += 1;
                    }
                }
                p.update(0x1000, t);
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.95,
            "local should learn a 4-iteration loop, got {correct}/{total}"
        );
    }

    #[test]
    fn combining_beats_components_on_mixed_workload() {
        // Branch A: biased taken. Branch B: depends on global history.
        let mut comb = DirPredictor::new(DirKind::Combining);
        let mut correct = 0;
        let mut total = 0;
        let mut flip = false;
        for i in 0..4000 {
            // Branch A at 0x1000, strongly biased.
            if i >= 2000 {
                total += 1;
                if comb.predict(0x1000) {
                    correct += 1;
                }
            }
            comb.update(0x1000, true);
            // Branch B at 0x2000 alternates.
            flip = !flip;
            if i >= 2000 {
                total += 1;
                if comb.predict(0x2000) == flip {
                    correct += 1;
                }
            }
            comb.update(0x2000, flip);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "combining accuracy {acc} too low");
    }

    #[test]
    fn table1_kind_is_combining() {
        assert_eq!(DirKind::table1(), DirKind::Combining);
    }
}
