//! Operational semantics. [`execute`] defines what every instruction
//! does; the functional emulator and the cycle-level simulator's front
//! end both step through it, so values can never diverge between the
//! two.

use crate::instr::{Instr, OperandB};
use crate::op::{Format, Opcode};
use crate::reg::Reg;

/// Everything observable about one dynamic instruction execution.
///
/// This record carries the operand *values* the paper's hardware would
/// see — the inputs to the zero/ones-detect logic — plus the result and
/// control-flow outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// Address of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub instr: Instr,
    /// First source operand value (register `ra` for operate ops, base
    /// register for memory ops, tested register for branches, target
    /// register for jumps).
    pub op_a: u64,
    /// Second source operand value (register/literal for operate ops,
    /// scaled displacement for memory ops, zero otherwise).
    pub op_b: u64,
    /// Result value written to the destination register, if any.
    pub result: Option<u64>,
    /// Destination register, if any.
    pub dest: Option<Reg>,
    /// Effective address for loads and stores.
    pub mem_addr: Option<u64>,
    /// Value stored (stores only).
    pub store_value: Option<u64>,
    /// Branch/jump direction (always true for jumps and `br`/`bsr`).
    pub taken: bool,
    /// Address of the next instruction actually executed.
    pub next_pc: u64,
}

impl ExecRecord {
    /// True when this record is a control-transfer instruction.
    pub fn is_control(&self) -> bool {
        self.instr.op.is_control()
    }
}

/// The registers and memory an instruction executes against.
/// [`ArchState`](crate::ArchState) reads and writes them directly; the
/// simulator's front end lays a wrong-path overlay over the same state
/// and turns a wrong-path `halt` into a fetch stall.
pub trait ArchAccess {
    /// Reads a register (`r31` reads as zero).
    fn reg(&self, r: Reg) -> u64;
    /// Writes a register (writes to `r31` are discarded).
    fn set_reg(&mut self, r: Reg, value: u64);
    /// Reads `len` (1, 2, 4 or 8) bytes of memory at `addr` as a
    /// little-endian, zero-extended value.
    fn load(&self, addr: u64, len: u64) -> u64;
    /// Writes the low `len` (1, 2, 4 or 8) bytes of `value` to memory at
    /// `addr`, little-endian.
    fn store(&mut self, addr: u64, len: u64, value: u64);
    /// Executes `halt`.
    fn halt(&mut self);
}

/// Executes `record.instr`, fetched from `record.pc`, against `m`, and
/// writes every other field of `record`: a record reused from an earlier
/// instruction needs no reset. The caller builds the record where it
/// keeps it, so nothing is copied out of a return value. It moves the
/// PC to [`ExecRecord::next_pc`] and owns output: `outb`/`outq` only
/// read their value into `op_a`.
#[inline]
pub fn execute(m: &mut impl ArchAccess, record: &mut ExecRecord) {
    let (pc, instr) = (record.pc, record.instr);
    let op = instr.op;
    record.op_a = 0;
    record.op_b = 0;
    record.result = None;
    record.dest = None;
    record.mem_addr = None;
    record.store_value = None;
    record.taken = false;
    record.next_pc = pc.wrapping_add(4);
    match op.format() {
        Format::Operate => {
            let a = m.reg(instr.ra);
            let b = match instr.b {
                OperandB::Reg(r) => m.reg(r),
                OperandB::Lit(l) => l as u64,
            };
            let result = if op.is_cmov() {
                // Conditional move: the old destination is the third
                // source.
                if cmov_taken(op, a) {
                    b
                } else {
                    m.reg(instr.rc)
                }
            } else {
                alu_result(op, a, b)
            };
            m.set_reg(instr.rc, result);
            record.op_a = a;
            record.op_b = b;
            record.result = Some(result);
            record.dest = Some(instr.rc);
        }
        Format::Memory => {
            let base = m.reg(instr.rb());
            let scaled = match op {
                Opcode::Ldah => (instr.disp as i64 as u64) << 16,
                _ => instr.disp as i64 as u64,
            };
            record.op_a = base;
            record.op_b = scaled;
            let addr = base.wrapping_add(scaled);
            if matches!(op, Opcode::Lda | Opcode::Ldah) {
                let result = alu_result(op, base, scaled);
                m.set_reg(instr.ra, result);
                record.result = Some(result);
                record.dest = Some(instr.ra);
            } else if op.is_load() {
                let raw = m.load(addr, access_bytes(op));
                // `ldl` sign-extends its longword; narrower loads
                // zero-extend.
                let value = match op {
                    Opcode::Ldl => raw as u32 as i32 as i64 as u64,
                    _ => raw,
                };
                m.set_reg(instr.ra, value);
                record.mem_addr = Some(addr);
                record.result = Some(value);
                record.dest = Some(instr.ra);
            } else {
                let value = m.reg(instr.ra);
                m.store(addr, access_bytes(op), value);
                record.mem_addr = Some(addr);
                record.store_value = Some(value);
            }
        }
        Format::Branch => {
            let a = m.reg(instr.ra);
            record.op_a = a;
            let taken = branch_taken(op, a);
            record.taken = taken;
            if matches!(op, Opcode::Br | Opcode::Bsr) {
                let link = pc.wrapping_add(4);
                m.set_reg(instr.ra, link);
                record.result = Some(link);
                record.dest = Some(instr.ra);
            }
            if taken {
                record.next_pc = instr.branch_target(pc);
            }
        }
        Format::Jump => {
            let target = m.reg(instr.rb());
            let link = pc.wrapping_add(4);
            m.set_reg(instr.ra, link);
            record.op_a = target;
            record.result = Some(link);
            record.dest = Some(instr.ra);
            record.taken = true;
            record.next_pc = target & !3;
        }
        Format::System => match op {
            Opcode::Halt => {
                m.halt();
                record.next_pc = pc;
            }
            Opcode::Nop => {}
            Opcode::Outb | Opcode::Outq => record.op_a = m.reg(instr.ra),
            _ => unreachable!("system format covers halt/nop/outb/outq"),
        },
    }
}

fn sext32(v: u64) -> u64 {
    v as u32 as i32 as i64 as u64
}

/// Computes the result of an ALU operation (operate-format opcodes plus
/// `lda`/`ldah`, whose second operand is the scaled displacement).
///
/// Division by zero yields zero (this machine has no arithmetic traps),
/// and `i64::MIN / -1` wraps, matching two's-complement hardware.
///
/// # Panics
///
/// Panics (in debug builds) if called with a non-ALU opcode.
pub fn alu_result(op: Opcode, a: u64, b: u64) -> u64 {
    match op {
        Opcode::Addq | Opcode::Lda | Opcode::Ldah => a.wrapping_add(b),
        Opcode::Subq => a.wrapping_sub(b),
        Opcode::Addl => sext32(a.wrapping_add(b)),
        Opcode::Subl => sext32(a.wrapping_sub(b)),
        Opcode::Cmpeq => (a == b) as u64,
        Opcode::Cmplt => ((a as i64) < (b as i64)) as u64,
        Opcode::Cmple => ((a as i64) <= (b as i64)) as u64,
        Opcode::Cmpult => (a < b) as u64,
        Opcode::Cmpule => (a <= b) as u64,
        Opcode::And => a & b,
        Opcode::Bis => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Bic => a & !b,
        Opcode::Ornot => a | !b,
        Opcode::Eqv => a ^ !b,
        Opcode::Sextb => b as u8 as i8 as i64 as u64,
        Opcode::Sextw => b as u16 as i16 as i64 as u64,
        Opcode::Sll => a << (b & 63),
        Opcode::Srl => a >> (b & 63),
        Opcode::Sra => ((a as i64) >> (b & 63)) as u64,
        Opcode::Mulq => a.wrapping_mul(b),
        Opcode::Mull => sext32(a.wrapping_mul(b)),
        Opcode::Divq => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_div(b as i64) as u64
            }
        }
        Opcode::Remq => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_rem(b as i64) as u64
            }
        }
        other => {
            debug_assert!(false, "alu_result called with non-ALU opcode {other}");
            0
        }
    }
}

/// Evaluates a conditional-move condition given the tested register
/// value `a`: when true, the move happens.
///
/// # Panics
///
/// Panics (in debug builds) if called with a non-cmov opcode.
fn cmov_taken(op: Opcode, a: u64) -> bool {
    match op {
        Opcode::Cmoveq => a == 0,
        Opcode::Cmovne => a != 0,
        Opcode::Cmovlt => (a as i64) < 0,
        Opcode::Cmovge => (a as i64) >= 0,
        other => {
            debug_assert!(false, "cmov_taken called with non-cmov opcode {other}");
            false
        }
    }
}

/// Evaluates a conditional-branch direction given the tested register
/// value `a`. `br` and `bsr` are unconditionally taken.
///
/// # Panics
///
/// Panics (in debug builds) if called with a non-branch opcode.
fn branch_taken(op: Opcode, a: u64) -> bool {
    match op {
        Opcode::Br | Opcode::Bsr => true,
        Opcode::Beq => a == 0,
        Opcode::Bne => a != 0,
        Opcode::Blt => (a as i64) < 0,
        Opcode::Ble => (a as i64) <= 0,
        Opcode::Bgt => (a as i64) > 0,
        Opcode::Bge => (a as i64) >= 0,
        Opcode::Blbc => a & 1 == 0,
        Opcode::Blbs => a & 1 == 1,
        other => {
            debug_assert!(false, "branch_taken called with non-branch opcode {other}");
            false
        }
    }
}

/// Number of bytes moved by a load or store opcode.
///
/// # Panics
///
/// Panics (in debug builds) if called with a non-memory opcode.
pub fn access_bytes(op: Opcode) -> u64 {
    match op {
        Opcode::Ldq | Opcode::Stq => 8,
        Opcode::Ldl | Opcode::Stl => 4,
        Opcode::Ldwu | Opcode::Stw => 2,
        Opcode::Ldbu | Opcode::Stb => 1,
        other => {
            debug_assert!(false, "access_bytes called with non-memory opcode {other}");
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadword_arithmetic_wraps() {
        assert_eq!(alu_result(Opcode::Addq, u64::MAX, 1), 0);
        assert_eq!(alu_result(Opcode::Subq, 0, 1), u64::MAX);
        assert_eq!(alu_result(Opcode::Addq, 17, 2), 19);
    }

    #[test]
    fn longword_arithmetic_sign_extends() {
        // 0x7fff_ffff + 1 overflows to a negative longword.
        assert_eq!(
            alu_result(Opcode::Addl, 0x7fff_ffff, 1),
            0xffff_ffff_8000_0000
        );
        assert_eq!(alu_result(Opcode::Subl, 0, 1), u64::MAX);
        assert_eq!(alu_result(Opcode::Addl, 5, 7), 12);
    }

    #[test]
    fn compares_are_zero_or_one() {
        assert_eq!(alu_result(Opcode::Cmpeq, 3, 3), 1);
        assert_eq!(alu_result(Opcode::Cmpeq, 3, 4), 0);
        // Signed vs unsigned comparison of -1 and 1.
        let neg1 = (-1i64) as u64;
        assert_eq!(alu_result(Opcode::Cmplt, neg1, 1), 1);
        assert_eq!(alu_result(Opcode::Cmpult, neg1, 1), 0);
        assert_eq!(alu_result(Opcode::Cmple, 5, 5), 1);
        assert_eq!(alu_result(Opcode::Cmpule, 6, 5), 0);
    }

    #[test]
    fn logical_identities() {
        let a = 0xf0f0_f0f0_1234_5678u64;
        let b = 0x0ff0_0ff0_8765_4321u64;
        assert_eq!(alu_result(Opcode::And, a, b), a & b);
        assert_eq!(alu_result(Opcode::Bis, a, b), a | b);
        assert_eq!(alu_result(Opcode::Xor, a, b), a ^ b);
        assert_eq!(alu_result(Opcode::Bic, a, b), a & !b);
        assert_eq!(alu_result(Opcode::Ornot, a, b), a | !b);
        assert_eq!(alu_result(Opcode::Eqv, a, b), a ^ !b);
    }

    #[test]
    fn sign_extension_ops() {
        assert_eq!(alu_result(Opcode::Sextb, 0, 0x80), 0xffff_ffff_ffff_ff80);
        assert_eq!(alu_result(Opcode::Sextb, 0, 0x7f), 0x7f);
        assert_eq!(alu_result(Opcode::Sextw, 0, 0x8000), 0xffff_ffff_ffff_8000);
        assert_eq!(alu_result(Opcode::Sextw, 0, 0x1234), 0x1234);
    }

    #[test]
    fn shifts_mask_amount_to_six_bits() {
        assert_eq!(alu_result(Opcode::Sll, 1, 65), 2);
        assert_eq!(alu_result(Opcode::Srl, 0x8000_0000_0000_0000, 63), 1);
        assert_eq!(alu_result(Opcode::Sra, 0x8000_0000_0000_0000, 63), u64::MAX);
    }

    #[test]
    fn multiply_forms() {
        // 2^40 * 2^30 = 2^70 wraps to 0 modulo 2^64.
        assert_eq!(alu_result(Opcode::Mulq, 1 << 40, 1 << 30), 0);
        assert_eq!(alu_result(Opcode::Mulq, 7, 6), 42);
        // mull keeps only the low 32 bits, sign-extended.
        assert_eq!(
            alu_result(Opcode::Mull, 0x1_0000_0001, 0x8000_0000),
            0xffff_ffff_8000_0000
        );
    }

    #[test]
    fn division_avoids_traps() {
        assert_eq!(alu_result(Opcode::Divq, 42, 0), 0);
        assert_eq!(alu_result(Opcode::Remq, 42, 0), 0);
        assert_eq!(alu_result(Opcode::Divq, (-7i64) as u64, 2), (-3i64) as u64);
        assert_eq!(alu_result(Opcode::Remq, (-7i64) as u64, 2), (-1i64) as u64);
        // i64::MIN / -1 wraps instead of trapping.
        assert_eq!(
            alu_result(Opcode::Divq, i64::MIN as u64, (-1i64) as u64),
            i64::MIN as u64
        );
    }

    #[test]
    fn cmov_conditions() {
        let neg = (-3i64) as u64;
        assert!(cmov_taken(Opcode::Cmoveq, 0) && !cmov_taken(Opcode::Cmoveq, 1));
        assert!(cmov_taken(Opcode::Cmovne, 5) && !cmov_taken(Opcode::Cmovne, 0));
        assert!(cmov_taken(Opcode::Cmovlt, neg) && !cmov_taken(Opcode::Cmovlt, 0));
        assert!(cmov_taken(Opcode::Cmovge, 0) && !cmov_taken(Opcode::Cmovge, neg));
    }

    #[test]
    fn branch_directions() {
        let neg = (-5i64) as u64;
        assert!(branch_taken(Opcode::Br, 0));
        assert!(branch_taken(Opcode::Bsr, 0));
        assert!(branch_taken(Opcode::Beq, 0) && !branch_taken(Opcode::Beq, 1));
        assert!(branch_taken(Opcode::Bne, 1) && !branch_taken(Opcode::Bne, 0));
        assert!(branch_taken(Opcode::Blt, neg) && !branch_taken(Opcode::Blt, 0));
        assert!(branch_taken(Opcode::Ble, 0) && !branch_taken(Opcode::Ble, 1));
        assert!(branch_taken(Opcode::Bgt, 1) && !branch_taken(Opcode::Bgt, 0));
        assert!(branch_taken(Opcode::Bge, 0) && !branch_taken(Opcode::Bge, neg));
        assert!(branch_taken(Opcode::Blbc, 2) && !branch_taken(Opcode::Blbc, 3));
        assert!(branch_taken(Opcode::Blbs, 3) && !branch_taken(Opcode::Blbs, 2));
    }

    #[test]
    fn access_sizes() {
        assert_eq!(access_bytes(Opcode::Ldq), 8);
        assert_eq!(access_bytes(Opcode::Stl), 4);
        assert_eq!(access_bytes(Opcode::Ldwu), 2);
        assert_eq!(access_bytes(Opcode::Stb), 1);
    }
}
