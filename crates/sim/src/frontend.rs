//! The speculative functional front end.
//!
//! Following SimpleScalar's `sim-outorder`, instructions execute
//! *functionally, in fetch order*, against an architected register file.
//! When fetch detects that a just-executed branch was mispredicted, the
//! machine keeps fetching down the *predicted* (wrong) path; those
//! wrong-path instructions execute against a speculative overlay
//! (a shadow register map and a byte-granular store hash) so they see
//! real wrong-path values — which is what makes the paper's Figure 2
//! (operand-width fluctuation under realistic vs perfect prediction) and
//! the wrong-path packing effects observable.
//!
//! Recovery throws the overlay away and resumes at the branch's true
//! target.

use nwo_isa::{
    access_bytes, alu_result, branch_taken, ExecRecord, Format, Instr, Opcode, OperandB, Program,
    Reg, TEXT_BASE,
};
use nwo_mem::MainMemory;
use std::collections::HashMap;

/// Speculative in-order functional execution engine.
#[derive(Debug, Clone)]
pub struct Frontend {
    regs: [u64; 32],
    pc: u64,
    mem: MainMemory,
    decoded: Vec<Option<Instr>>,
    /// `halt` executed on the correct path: program over.
    halted: bool,
    /// Currently executing down a known-wrong path.
    spec: bool,
    /// Wrong-path fetch ran off the rails (bad PC or wrong-path halt);
    /// fetch stalls until recovery.
    stalled: bool,
    spec_regs: HashMap<u8, u64>,
    spec_mem: HashMap<u64, u8>,
}

impl Frontend {
    /// Loads `program` (text, data, ABI registers) into a fresh engine.
    pub fn new(program: &Program) -> Self {
        let mut mem = MainMemory::new();
        for (i, &word) in program.text.iter().enumerate() {
            mem.write_u32(TEXT_BASE + 4 * i as u64, word);
        }
        mem.write_bytes(nwo_isa::DATA_BASE, &program.data);
        Frontend {
            regs: Program::initial_registers(),
            pc: program.entry,
            mem,
            decoded: program
                .text
                .iter()
                .map(|&w| Instr::decode(w).ok())
                .collect(),
            halted: false,
            spec: false,
            stalled: false,
            spec_regs: HashMap::new(),
            spec_mem: HashMap::new(),
        }
    }

    /// Next PC to fetch.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// `halt` has executed on the correct path.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Wrong-path fetch is stalled until a recovery redirects it.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Currently in wrong-path (speculative) mode.
    pub fn spec_mode(&self) -> bool {
        self.spec
    }

    /// Architected (correct-path) register value — overlay ignored.
    #[cfg(test)]
    pub fn arch_reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// The full correct-path architectural state: registers, next PC,
    /// halt flag and memory. Used to re-base the verification oracle
    /// after a checkpoint restore replaces warmed frontend state.
    pub(crate) fn arch_state(&self) -> (&[u64; 32], u64, bool, &MainMemory) {
        (&self.regs, self.pc, self.halted, &self.mem)
    }

    fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            return 0;
        }
        if self.spec {
            if let Some(&v) = self.spec_regs.get(&r.index()) {
                return v;
            }
        }
        self.regs[r.index() as usize]
    }

    fn set_reg(&mut self, r: Reg, value: u64) {
        if r.is_zero() {
            return;
        }
        if self.spec {
            self.spec_regs.insert(r.index(), value);
        } else {
            self.regs[r.index() as usize] = value;
        }
    }

    fn read_byte(&self, addr: u64) -> u8 {
        if self.spec {
            if let Some(&b) = self.spec_mem.get(&addr) {
                return b;
            }
        }
        self.mem.read_u8(addr)
    }

    fn read(&self, op: Opcode, addr: u64) -> u64 {
        let n = access_bytes(op);
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate().take(n as usize) {
            *b = self.read_byte(addr.wrapping_add(i as u64));
        }
        let raw = u64::from_le_bytes(bytes);
        match op {
            Opcode::Ldl => raw as u32 as i32 as i64 as u64,
            _ => raw,
        }
    }

    fn write(&mut self, op: Opcode, addr: u64, value: u64) {
        let n = access_bytes(op);
        let bytes = value.to_le_bytes();
        for (i, &b) in bytes.iter().enumerate().take(n as usize) {
            let a = addr.wrapping_add(i as u64);
            if self.spec {
                self.spec_mem.insert(a, b);
            } else {
                self.mem.write_u8(a, b);
            }
        }
    }

    fn fetch_instr(&self, pc: u64) -> Option<Instr> {
        if pc < TEXT_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - TEXT_BASE) / 4) as usize;
        self.decoded.get(idx).copied().flatten()
    }

    /// Executes the instruction at the current PC and advances to the
    /// *actual* next PC. Returns `None` when the engine cannot fetch:
    /// the program has halted, the wrong path is stalled, or the PC is
    /// invalid (a correct-path invalid PC also returns `None` — the
    /// machine treats that as a program error).
    pub fn step(&mut self) -> Option<ExecRecord> {
        if self.halted || self.stalled {
            return None;
        }
        let pc = self.pc;
        let Some(instr) = self.fetch_instr(pc) else {
            // Off the rails. On the wrong path this is expected; on the
            // correct path the caller surfaces an error.
            if self.spec {
                self.stalled = true;
            }
            return None;
        };
        let record = self.execute(pc, instr);
        self.pc = record.next_pc;
        Some(record)
    }

    fn execute(&mut self, pc: u64, instr: Instr) -> ExecRecord {
        let op = instr.op;
        let mut record = ExecRecord {
            pc,
            instr,
            op_a: 0,
            op_b: 0,
            result: None,
            dest: None,
            mem_addr: None,
            store_value: None,
            taken: false,
            next_pc: pc.wrapping_add(4),
        };
        match op.format() {
            Format::Operate => {
                let a = self.reg(instr.ra);
                let b = match instr.b {
                    OperandB::Reg(r) => self.reg(r),
                    OperandB::Lit(l) => l as u64,
                };
                let result = if op.is_cmov() {
                    // Conditional move: the old destination is the third
                    // source.
                    if nwo_isa::cmov_taken(op, a) {
                        b
                    } else {
                        self.reg(instr.rc)
                    }
                } else {
                    alu_result(op, a, b)
                };
                self.set_reg(instr.rc, result);
                record.op_a = a;
                record.op_b = b;
                record.result = Some(result);
                record.dest = Some(instr.rc);
            }
            Format::Memory => {
                let base = self.reg(instr.rb());
                let scaled = match op {
                    Opcode::Ldah => (instr.disp as i64 as u64) << 16,
                    _ => instr.disp as i64 as u64,
                };
                record.op_a = base;
                record.op_b = scaled;
                match op {
                    Opcode::Lda | Opcode::Ldah => {
                        let result = alu_result(op, base, scaled);
                        self.set_reg(instr.ra, result);
                        record.result = Some(result);
                        record.dest = Some(instr.ra);
                    }
                    _ if op.is_load() => {
                        let addr = base.wrapping_add(scaled);
                        let value = self.read(op, addr);
                        self.set_reg(instr.ra, value);
                        record.mem_addr = Some(addr);
                        record.result = Some(value);
                        record.dest = Some(instr.ra);
                    }
                    _ => {
                        let addr = base.wrapping_add(scaled);
                        let value = self.reg(instr.ra);
                        self.write(op, addr, value);
                        record.mem_addr = Some(addr);
                        record.store_value = Some(value);
                    }
                }
            }
            Format::Branch => {
                let a = self.reg(instr.ra);
                record.op_a = a;
                let taken = branch_taken(op, a);
                record.taken = taken;
                if matches!(op, Opcode::Br | Opcode::Bsr) {
                    let link = pc.wrapping_add(4);
                    self.set_reg(instr.ra, link);
                    record.result = Some(link);
                    record.dest = Some(instr.ra);
                }
                if taken {
                    record.next_pc = instr.branch_target(pc);
                }
            }
            Format::Jump => {
                let target = self.reg(instr.rb()) & !3;
                record.op_a = self.reg(instr.rb());
                let link = pc.wrapping_add(4);
                self.set_reg(instr.ra, link);
                record.result = Some(link);
                record.dest = Some(instr.ra);
                record.taken = true;
                record.next_pc = target;
            }
            Format::System => match op {
                Opcode::Halt => {
                    if self.spec {
                        // A wrong-path halt just stalls fetch.
                        self.stalled = true;
                    } else {
                        self.halted = true;
                    }
                    record.next_pc = pc;
                }
                Opcode::Nop => {}
                Opcode::Outb | Opcode::Outq => {
                    // Output side effects happen at commit, in the machine.
                    record.op_a = self.reg(instr.ra);
                }
                _ => unreachable!("system format covers halt/nop/outb/outq"),
            },
        }
        record
    }

    /// Switches into wrong-path mode (a correct-path branch just turned
    /// out mispredicted at fetch).
    pub fn enter_spec(&mut self) {
        debug_assert!(!self.spec, "only one unresolved correct-path mispredict");
        self.spec = true;
    }

    /// Redirects fetch (used both to follow a prediction and after a
    /// wrong-path branch resolves). Clears any wrong-path stall.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
        if self.spec {
            self.stalled = false;
        }
    }

    /// Full recovery: discard the wrong-path overlay and resume at the
    /// true target of the mispredicted branch.
    pub fn recover(&mut self, target: u64) {
        self.spec = false;
        self.stalled = false;
        self.spec_regs.clear();
        self.spec_mem.clear();
        self.pc = target;
    }

    /// A stable digest of the decoded text segment, identifying the
    /// loaded program. Checkpoints embed it so restoring under a
    /// different program is rejected instead of silently producing
    /// nonsense.
    pub(crate) fn code_digest(&self) -> u64 {
        nwo_ckpt::fnv1a(format!("{:?}", self.decoded).as_bytes())
    }
}

/// Serializes the architected (correct-path) state: registers, PC, the
/// halted flag and the full memory image. The decoded text segment is
/// derived from the program and is not serialized; the speculative
/// overlay is transient and cleared on restore (checkpoints are taken at
/// the warmup boundary, where no wrong path is in flight).
impl nwo_ckpt::Checkpointable for Frontend {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        for &reg in &self.regs {
            w.put_u64(reg);
        }
        w.put_u64(self.pc);
        w.put_bool(self.halted);
        nwo_ckpt::Checkpointable::save(&self.mem, w);
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        for reg in self.regs.iter_mut() {
            *reg = r.take_u64("frontend register")?;
        }
        self.pc = r.take_u64("frontend pc")?;
        self.halted = r.take_bool("frontend halted")?;
        self.spec = false;
        self.stalled = false;
        self.spec_regs.clear();
        self.spec_mem.clear();
        nwo_ckpt::Checkpointable::restore(&mut self.mem, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwo_isa::assemble;

    fn fe(src: &str) -> Frontend {
        Frontend::new(&assemble(src).expect("assembles"))
    }

    #[test]
    fn correct_path_matches_emulator_semantics() {
        let src = "main: li t0, 5\n addq t0, 3, t1\n outq t1\n halt";
        let mut f = fe(src);
        let r1 = f.step().unwrap();
        assert_eq!(r1.result, Some(5));
        let r2 = f.step().unwrap();
        assert_eq!(r2.op_a, 5);
        assert_eq!(r2.result, Some(8));
        let r3 = f.step().unwrap();
        assert_eq!(r3.op_a, 8);
        let r4 = f.step().unwrap();
        assert_eq!(r4.instr.op, Opcode::Halt);
        assert!(f.halted());
        assert!(f.step().is_none());
    }

    #[test]
    fn wrong_path_executes_in_overlay() {
        // after: t0 = 1; branch to skip (taken); wrong path would clobber t0.
        let src = concat!(
            "main: li t0, 1\n",
            " br skip\n",
            " li t0, 99\n", // wrong path
            "skip: outq t0\n halt"
        );
        let mut f = fe(src);
        f.step().unwrap(); // li
        let br = f.step().unwrap(); // br (taken)
        assert!(br.taken);
        // Pretend the predictor said not-taken: wrong path.
        f.enter_spec();
        f.set_pc(br.pc + 4);
        let wrong = f.step().unwrap();
        assert_eq!(wrong.result, Some(99));
        assert_eq!(f.arch_reg(Reg::new(1)), 1, "architected state untouched");
        // Recovery resumes the true path with t0 intact.
        f.recover(br.next_pc);
        assert!(!f.spec_mode());
        let outq = f.step().unwrap();
        assert_eq!(outq.op_a, 1);
    }

    #[test]
    fn wrong_path_stores_do_not_touch_memory() {
        let src = concat!(
            ".data\nslot: .quad 7\n.text\n",
            "main: la t0, slot\n", // 2 instrs
            " br skip\n",
            " stq zero, 0(t0)\n", // wrong path store
            "skip: ldq t1, 0(t0)\n outq t1\n halt"
        );
        let mut f = fe(src);
        f.step().unwrap();
        f.step().unwrap();
        let br = f.step().unwrap();
        f.enter_spec();
        f.set_pc(br.pc + 4);
        let store = f.step().unwrap();
        assert_eq!(store.store_value, Some(0));
        f.recover(br.next_pc);
        let load = f.step().unwrap();
        assert_eq!(load.result, Some(7), "store must have been contained");
    }

    #[test]
    fn wrong_path_loads_see_wrong_path_stores() {
        let src = concat!(
            ".data\nslot: .quad 7\n.text\n",
            "main: la t0, slot\n",
            " br skip\n",
            "wrong: stq t0, 0(t0)\n",
            " ldq t2, 0(t0)\n",
            "skip: halt"
        );
        let mut f = fe(src);
        f.step().unwrap();
        f.step().unwrap();
        let br = f.step().unwrap();
        f.enter_spec();
        f.set_pc(br.pc + 4);
        f.step().unwrap(); // wrong-path store of t0 (an address)
        let load = f.step().unwrap();
        assert_eq!(
            load.result,
            Some(f.arch_reg(Reg::new(1))),
            "forwarded in overlay"
        );
    }

    #[test]
    fn wrong_path_halt_stalls_until_recovery() {
        let src = concat!(
            "main: br skip\n",
            " halt\n", // wrong path halt
            "skip: nop\n halt"
        );
        let mut f = fe(src);
        let br = f.step().unwrap();
        f.enter_spec();
        f.set_pc(br.pc + 4);
        assert!(f.step().is_some()); // executes the wrong-path halt
        assert!(f.stalled());
        assert!(!f.halted(), "machine not architecturally halted");
        assert!(f.step().is_none());
        f.recover(br.next_pc);
        assert!(f.step().is_some()); // nop on the true path
    }

    #[test]
    fn wrong_path_bad_pc_stalls() {
        let src = "main: clr t3\n br ok\nok: jmp (t3)\n halt";
        let mut f = fe(src);
        f.step().unwrap();
        let br = f.step().unwrap();
        f.enter_spec();
        f.set_pc(0x4); // garbage
        assert!(f.step().is_none());
        assert!(f.stalled());
        f.recover(br.next_pc);
        assert!(!f.stalled());
    }

    #[test]
    fn correct_path_bad_pc_returns_none_without_stall_flag() {
        let src = "main: nop"; // falls off the end
        let mut f = fe(src);
        f.step().unwrap();
        assert!(f.step().is_none());
        assert!(
            !f.stalled() && !f.halted(),
            "caller decides this is an error"
        );
    }
}
