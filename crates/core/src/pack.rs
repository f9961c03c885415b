//! Operation-packing rules (paper Section 5).
//!
//! Two (or more) ready instructions can share one 64-bit ALU when they
//! perform the same operation and their operands are narrow — the ALU's
//! multimedia subword hardware cuts the carry chain at 16-bit boundaries
//! (Figure 8) and extra carry-out lines on the result bus preserve
//! exactness.
//!
//! This module defines *which* opcodes may pack, *when* a pair of width
//! tags permits it, and a bit-faithful model of the subword lane
//! ([`slot_result`]) used to prove the packed execution architecturally
//! exact. Section 5.3's *replay packing* — speculatively packing when only
//! one operand is narrow, squashing on carry overflow — is modelled by
//! [`replay_candidate`] / [`replay_mispredicts`].

use crate::width::{is_narrow, WidthTag};
use nwo_isa::{alu_result, Opcode};

/// Subword-compatible operation families.
///
/// The paper packs "arithmetic, logical, and shift operations"
/// (Section 5.1). We exclude left shifts from exact packing because a
/// 16-bit lane cannot hold the up-to-31-bit result of shifting a narrow
/// value left; multiplies are excluded as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackKind {
    /// Add/subtract (quadword and longword) and `lda` address arithmetic.
    AddSub,
    /// Compares (produce 0/1, always lane-exact).
    Compare,
    /// Bit-wise logical operations and sign extensions.
    Logic,
    /// Right shifts (`srl` requires a zero-detected first operand).
    ShiftRight,
}

/// The packing family of an opcode, or `None` if it can never pack.
pub fn pack_kind(op: Opcode) -> Option<PackKind> {
    use Opcode::*;
    match op {
        Addq | Subq | Addl | Subl | Lda => Some(PackKind::AddSub),
        Cmpeq | Cmplt | Cmple | Cmpult | Cmpule => Some(PackKind::Compare),
        And | Bis | Xor | Bic | Ornot | Eqv | Sextb | Sextw => Some(PackKind::Logic),
        Srl | Sra => Some(PackKind::ShiftRight),
        _ => None,
    }
}

/// Static packing policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackConfig {
    /// Maximum operations sharing one 64-bit ALU (a 64-bit datapath has
    /// four 16-bit lanes; the paper's Figure 8 shows two).
    pub degree: usize,
    /// Pack operands detected narrow by the *ones*-detect (negative
    /// values). The paper notes negative numbers "add additional
    /// complexity to the issue logic"; turning this off models the
    /// simpler zero-detect-only issue logic.
    pub allow_negative: bool,
    /// Enable Section 5.3 replay packing (one wide operand, squash on
    /// carry-out). The simulator gates it with a per-PC 2-bit
    /// confidence counter: instructions whose low-16-bit carries keep
    /// rippling stop being speculated on — an extension beyond the
    /// paper, which assumes carries are "relatively infrequent".
    pub replay: bool,
}

/// Extra cycles before a squashed replay-packed instruction re-issues
/// full-width (the replay-trap penalty).
pub const REPLAY_PENALTY: u64 = 3;

impl Default for PackConfig {
    /// Four-lane packing with negative-operand support and no replay.
    fn default() -> Self {
        PackConfig {
            degree: 4,
            allow_negative: true,
            replay: false,
        }
    }
}

impl PackConfig {
    /// The paper's replay-packing configuration (Section 5.3).
    pub fn with_replay() -> Self {
        PackConfig {
            replay: true,
            ..PackConfig::default()
        }
    }
}

/// True when an instruction with operand tags `(a, b)` qualifies for
/// exact (non-replay) packing.
///
/// Requirements (Section 5.2): the opcode is subword-compatible and both
/// operands are known narrow at 16 bits. `srl` additionally requires a
/// zero-detected (non-negative) shiftee: shifting zeros into a lane whose
/// reconstruction would prepend ones is not exact.
pub fn can_pack(op: Opcode, a: WidthTag, b: WidthTag, config: &PackConfig) -> bool {
    let Some(kind) = pack_kind(op) else {
        return false;
    };
    let narrow = |t: WidthTag| t.known && t.narrow16 && (config.allow_negative || !t.negative);
    if !narrow(a) || !narrow(b) {
        return false;
    }
    match kind {
        PackKind::ShiftRight if op == Opcode::Srl => !a.negative,
        _ => true,
    }
}

/// Reconstructs a narrow16 value from its 16-bit lane and sign context.
#[inline]
fn lane_value(lo: u16, negative: bool) -> i64 {
    lo as i64 - if negative { 1 << 16 } else { 0 }
}

/// Computes what a 16-bit subword lane (with sign context and carry-out
/// lines) produces for `op` on two narrow16 operands.
///
/// This models the hardware of Figure 8 literally: each lane sees only
/// the low 16 bits of each operand plus the zero48/ones48 detect
/// signals; arithmetic results travel on 17 bits plus the extra
/// carry-out line, logical upper bits are recomputed from the detect
/// signals.
///
/// Under [`can_pack`]'s preconditions this equals [`alu_result`] —
/// packing is architecturally exact. Verified by unit and property tests.
///
/// # Panics
///
/// Debug-panics if an operand violates the narrow16 precondition or the
/// opcode is not packable.
pub fn slot_result(op: Opcode, a: u64, b: u64) -> u64 {
    debug_assert!(is_narrow(a, 16), "operand a {a:#x} is not narrow16");
    debug_assert!(is_narrow(b, 16), "operand b {b:#x} is not narrow16");
    let (a_lo, a_neg) = (a as u16, (a as i64) < 0);
    let (b_lo, b_neg) = (b as u16, (b as i64) < 0);
    let av = lane_value(a_lo, a_neg);
    let bv = lane_value(b_lo, b_neg);
    match pack_kind(op) {
        Some(PackKind::AddSub) => {
            // 16-bit adder + carry-out lines: the 18-bit exact sum.
            let sum = match op {
                Opcode::Subq | Opcode::Subl => av - bv,
                _ => av + bv,
            };
            // Longword forms sign-extend from 32 bits; an 18-bit value is
            // unchanged.
            sum as u64
        }
        Some(PackKind::Compare) => {
            let (au, bu) = (av as u64, bv as u64);
            let r = match op {
                Opcode::Cmpeq => av == bv,
                Opcode::Cmplt => av < bv,
                Opcode::Cmple => av <= bv,
                Opcode::Cmpult => au < bu,
                Opcode::Cmpule => au <= bu,
                _ => unreachable!(),
            };
            r as u64
        }
        Some(PackKind::Logic) => {
            let mask = |neg: bool| if neg { u64::MAX } else { 0 };
            let (ua, ub) = (mask(a_neg), mask(b_neg));
            // The upper 48 result bits are recomputed from the two detect
            // signals alone; keep only those bits of the context term.
            let hi = |x: u64| x & (u64::MAX << 16);
            match op {
                Opcode::And => ((a_lo & b_lo) as u64) | hi(ua & ub),
                Opcode::Bis => ((a_lo | b_lo) as u64) | hi(ua | ub),
                Opcode::Xor => ((a_lo ^ b_lo) as u64) | hi(ua ^ ub),
                Opcode::Bic => ((a_lo & !b_lo) as u64) | hi(ua & !ub),
                Opcode::Ornot => ((a_lo | !b_lo) as u64) | hi(ua | !ub),
                Opcode::Eqv => ((a_lo ^ !b_lo) as u64) | hi(ua ^ !ub),
                Opcode::Sextb => b_lo as u8 as i8 as i64 as u64,
                Opcode::Sextw => b_lo as i16 as i64 as u64,
                _ => unreachable!(),
            }
        }
        Some(PackKind::ShiftRight) => {
            let amount = (bv as u64) & 63;
            match op {
                Opcode::Srl => {
                    debug_assert!(!a_neg, "srl lane requires a zero-detected shiftee");
                    (a_lo as u64) >> amount
                }
                Opcode::Sra => ((av) >> amount.min(63)) as u64,
                _ => unreachable!(),
            }
        }
        None => {
            debug_assert!(false, "slot_result on unpackable opcode {op}");
            alu_result(op, a, b)
        }
    }
}

/// Which operand is the wide one in a replay-packed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideOperand {
    /// Operand `a` is wide; its high 48 bits are muxed onto the result.
    A,
    /// Operand `b` is wide (commutative adds only).
    B,
}

/// Tests whether an instruction qualifies for Section 5.3 replay packing:
/// exactly one operand known-narrow16, the other wide (or unknown), on a
/// quadword add/subtract.
///
/// For subtraction only a wide *minuend* qualifies: the high bits of
/// `a - b` with wide `b` are not the high bits of either source, so the
/// mux of Figure 9 has nothing correct to forward.
pub fn replay_candidate(op: Opcode, a: WidthTag, b: WidthTag) -> Option<WideOperand> {
    if !matches!(op, Opcode::Addq | Opcode::Subq | Opcode::Lda) {
        return None;
    }
    let a_narrow = a.known && a.narrow16;
    let b_narrow = b.known && b.narrow16;
    match (a_narrow, b_narrow) {
        (false, true) => Some(WideOperand::A),
        (true, false) if op != Opcode::Subq => Some(WideOperand::B),
        _ => None,
    }
}

/// The result the replay-packed lane *predicts*: the wide operand's high
/// 48 bits concatenated with the lane's low-16 result.
pub fn replay_predicted(op: Opcode, a: u64, b: u64, wide: WideOperand) -> u64 {
    let wide_value = match wide {
        WideOperand::A => a,
        WideOperand::B => b,
    };
    let low = alu_result(op, a, b) & 0xffff;
    (wide_value & !0xffff) | low
}

/// True when the replay-packed execution would produce a wrong result —
/// the carry (or borrow) rippled past bit 15 and the instruction must be
/// squashed and re-issued full-width ("replay traps", Section 5.3).
///
/// # Example
///
/// ```
/// use nwo_core::{replay_mispredicts, WideOperand};
/// use nwo_isa::Opcode;
///
/// // 0x1_0000_0000 + 3: no carry out of the low 16 bits.
/// assert!(!replay_mispredicts(Opcode::Addq, 0x1_0000_0000, 3, WideOperand::A));
/// // 0x1_0000_ffff + 3 carries into bit 16: must replay.
/// assert!(replay_mispredicts(Opcode::Addq, 0x1_0000_ffff, 3, WideOperand::A));
/// ```
pub fn replay_mispredicts(op: Opcode, a: u64, b: u64, wide: WideOperand) -> bool {
    replay_predicted(op, a, b, wide) != alu_result(op, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> WidthTag {
        WidthTag::of(v as u64)
    }

    #[test]
    fn pack_kinds() {
        assert_eq!(pack_kind(Opcode::Addq), Some(PackKind::AddSub));
        assert_eq!(pack_kind(Opcode::Lda), Some(PackKind::AddSub));
        assert_eq!(pack_kind(Opcode::Cmpeq), Some(PackKind::Compare));
        assert_eq!(pack_kind(Opcode::Xor), Some(PackKind::Logic));
        assert_eq!(pack_kind(Opcode::Sra), Some(PackKind::ShiftRight));
        assert_eq!(pack_kind(Opcode::Sll), None, "left shifts never pack");
        assert_eq!(pack_kind(Opcode::Mulq), None, "multiplies never pack");
        assert_eq!(pack_kind(Opcode::Ldq), None);
        assert_eq!(pack_kind(Opcode::Beq), None);
    }

    #[test]
    fn can_pack_requires_both_narrow() {
        let cfg = PackConfig::default();
        assert!(can_pack(Opcode::Addq, t(17), t(2), &cfg));
        assert!(!can_pack(Opcode::Addq, t(17), t(1 << 20), &cfg));
        assert!(!can_pack(Opcode::Addq, t(1 << 20), t(17), &cfg));
    }

    #[test]
    fn can_pack_unknown_tags_never_pack() {
        let cfg = PackConfig::default();
        assert!(!can_pack(Opcode::Addq, WidthTag::unknown(), t(2), &cfg));
    }

    #[test]
    fn negative_policy_respected() {
        let strict = PackConfig {
            allow_negative: false,
            ..PackConfig::default()
        };
        let lax = PackConfig::default();
        assert!(can_pack(Opcode::Addq, t(-5), t(3), &lax));
        assert!(!can_pack(Opcode::Addq, t(-5), t(3), &strict));
    }

    #[test]
    fn srl_requires_nonnegative_shiftee() {
        let cfg = PackConfig::default();
        assert!(can_pack(Opcode::Srl, t(100), t(3), &cfg));
        assert!(!can_pack(Opcode::Srl, t(-100), t(3), &cfg));
        // sra handles negatives fine.
        assert!(can_pack(Opcode::Sra, t(-100), t(3), &cfg));
    }

    /// The central exactness claim: under `can_pack` preconditions the
    /// lane computes exactly the full-width result.
    #[test]
    fn slot_matches_alu_exhaustive_boundaries() {
        let cfg = PackConfig::default();
        let interesting: Vec<i64> = vec![
            -65536, -65535, -32769, -32768, -32767, -256, -17, -2, -1, 0, 1, 2, 15, 16, 17, 255,
            256, 32767, 32768, 65534, 65535,
        ];
        for &op in &[
            Opcode::Addq,
            Opcode::Subq,
            Opcode::Addl,
            Opcode::Subl,
            Opcode::Lda,
            Opcode::Cmpeq,
            Opcode::Cmplt,
            Opcode::Cmple,
            Opcode::Cmpult,
            Opcode::Cmpule,
            Opcode::And,
            Opcode::Bis,
            Opcode::Xor,
            Opcode::Bic,
            Opcode::Ornot,
            Opcode::Eqv,
            Opcode::Sextb,
            Opcode::Sextw,
            Opcode::Srl,
            Opcode::Sra,
        ] {
            for &a in &interesting {
                for &b in &interesting {
                    let (ua, ub) = (a as u64, b as u64);
                    if !can_pack(op, WidthTag::of(ua), WidthTag::of(ub), &cfg) {
                        continue;
                    }
                    assert_eq!(
                        slot_result(op, ua, ub),
                        alu_result(op, ua, ub),
                        "lane mismatch for {op} {a} {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_candidate_shapes() {
        let wide = t(1 << 40);
        let narrow = t(7);
        assert_eq!(
            replay_candidate(Opcode::Addq, wide, narrow),
            Some(WideOperand::A)
        );
        assert_eq!(
            replay_candidate(Opcode::Addq, narrow, wide),
            Some(WideOperand::B)
        );
        // Subtraction: only a wide minuend works.
        assert_eq!(
            replay_candidate(Opcode::Subq, wide, narrow),
            Some(WideOperand::A)
        );
        assert_eq!(replay_candidate(Opcode::Subq, narrow, wide), None);
        // Both narrow -> exact packing, not replay.
        assert_eq!(replay_candidate(Opcode::Addq, narrow, narrow), None);
        // Both wide -> nothing.
        assert_eq!(replay_candidate(Opcode::Addq, wide, wide), None);
        // Non-add/sub ops never replay-pack.
        assert_eq!(replay_candidate(Opcode::And, wide, narrow), None);
        assert_eq!(replay_candidate(Opcode::Addl, wide, narrow), None);
    }

    #[test]
    fn replay_prediction_correct_without_carry() {
        let a = 0x1_2345_0010u64;
        let b = 5u64;
        assert!(!replay_mispredicts(Opcode::Addq, a, b, WideOperand::A));
        assert_eq!(replay_predicted(Opcode::Addq, a, b, WideOperand::A), a + b);
    }

    #[test]
    fn replay_detects_carry_ripple() {
        let a = 0x1_2345_ffffu64;
        assert!(replay_mispredicts(Opcode::Addq, a, 1, WideOperand::A));
    }

    #[test]
    fn replay_detects_borrow() {
        // 0x1_2345_0000 - 1 borrows from bit 16.
        let a = 0x1_2345_0000u64;
        assert!(replay_mispredicts(Opcode::Subq, a, 1, WideOperand::A));
        assert!(!replay_mispredicts(Opcode::Subq, a + 8, 1, WideOperand::A));
    }

    #[test]
    fn replay_carry_characterisation() {
        // For addq with non-negative narrow b and wide a, a mispredict
        // happens exactly when the low-16 add carries out.
        for a in [0x1_0000_0000u64, 0xdead_0000_8000, 0x7fff_ffff_0000] {
            for lo in [0u64, 1, 0x7fff, 0x8000, 0xfffe, 0xffff] {
                for b in [0u64, 1, 2, 0x7fff, 0xffff] {
                    let a = (a & !0xffff) | lo;
                    let carries = (lo + b) > 0xffff;
                    assert_eq!(
                        replay_mispredicts(Opcode::Addq, a, b, WideOperand::A),
                        carries,
                        "a={a:#x} b={b:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_config_shape() {
        let cfg = PackConfig::default();
        assert_eq!(cfg.degree, 4);
        assert!(cfg.allow_negative);
        assert!(!cfg.replay);
        assert!(PackConfig::with_replay().replay);
    }
}
