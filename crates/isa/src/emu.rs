//! Architected state and the functional (instruction-accurate)
//! emulator.
//!
//! [`ArchState`] is what both engines carry for a loaded program. The
//! [`Emulator`] steps it through [`execute`], the reference semantics
//! for the ISA, and collects output; the cycle-level simulator in
//! `nwo-sim` steps the same state through the same [`execute`] at
//! fetch, under a wrong-path overlay. Integration tests co-simulate the
//! two to prove the out-of-order core commits exactly the emulator's
//! instruction stream, and the lockstep oracle in `nwo-verify` checks
//! every commit against a second emulator.
//!
//! Warmup before detailed simulation (the paper's methodology, Section
//! 3.2) runs on the simulator's front end, not on the emulator.

use crate::exec::{execute, ArchAccess, ExecRecord};
use crate::instr::Instr;
use crate::op::Opcode;
use crate::program::{Program, DATA_BASE, TEXT_BASE};
use crate::reg::Reg;
use nwo_mem::MainMemory;
use std::fmt;

/// The architected state of a loaded program: registers, the next PC,
/// the halt flag, memory and the decoded text segment.
///
/// Its checkpoint codec writes the registers, PC, halt flag and memory
/// image — the warm image's `frontend` section. The decoded text is
/// derived from the program and not serialized, so restore requires a
/// state loaded from the same program ([`ArchState::code_digest`]).
#[derive(Debug, Clone)]
pub struct ArchState {
    regs: [u64; 32],
    pc: u64,
    halted: bool,
    mem: MainMemory,
    /// Decoded text segment for fast stepping.
    decoded: Vec<Option<Instr>>,
}

impl ArchState {
    /// Loads `program` into a fresh machine: text and data into memory,
    /// registers per the ABI (`gp` → data base, `sp` → stack top), PC at
    /// the entry point.
    pub fn new(program: &Program) -> ArchState {
        let mut mem = MainMemory::new();
        for (i, &word) in program.text.iter().enumerate() {
            mem.write_u32(TEXT_BASE + 4 * i as u64, word);
        }
        mem.write_bytes(DATA_BASE, &program.data);
        ArchState {
            regs: Program::initial_registers(),
            pc: program.entry,
            halted: false,
            mem,
            decoded: program
                .text
                .iter()
                .map(|&w| Instr::decode(w).ok())
                .collect(),
        }
    }

    /// The next PC to fetch.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Redirects the next fetch to `pc`.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// True once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The machine's memory.
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// The instruction at `pc`; `None` outside the text segment, off
    /// word alignment, or for a word that does not decode.
    pub fn fetch(&self, pc: u64) -> Option<Instr> {
        if pc < TEXT_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - TEXT_BASE) / 4) as usize;
        self.decoded.get(idx).copied().flatten()
    }

    /// A stable digest of the decoded text segment, identifying the
    /// loaded program. Checkpoints embed it so restoring under a
    /// different program is rejected instead of silently producing
    /// nonsense.
    pub fn code_digest(&self) -> u64 {
        nwo_ckpt::fnv1a(format!("{:?}", self.decoded).as_bytes())
    }
}

impl ArchAccess for ArchState {
    #[inline]
    fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    #[inline]
    fn load(&self, addr: u64, len: u64) -> u64 {
        match len {
            8 => self.mem.read_u64(addr),
            4 => self.mem.read_u32(addr) as u64,
            2 => self.mem.read_u16(addr) as u64,
            _ => self.mem.read_u8(addr) as u64,
        }
    }

    #[inline]
    fn store(&mut self, addr: u64, len: u64, value: u64) {
        match len {
            8 => self.mem.write_u64(addr, value),
            4 => self.mem.write_u32(addr, value as u32),
            2 => self.mem.write_u16(addr, value as u16),
            _ => self.mem.write_u8(addr, value as u8),
        }
    }

    #[inline]
    fn halt(&mut self) {
        self.halted = true;
    }
}

impl nwo_ckpt::Checkpointable for ArchState {
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
            *reg = r.take_u64("architected register")?;
        }
        self.pc = r.take_u64("architected pc")?;
        self.halted = r.take_bool("architected halted")?;
        nwo_ckpt::Checkpointable::restore(&mut self.mem, r)
    }
}

/// Reasons the emulator can stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// PC left the text segment or hit an undecodable word.
    BadInstruction {
        /// The faulting PC.
        pc: u64,
    },
    /// `run` hit its step limit before `halt`.
    StepLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadInstruction { pc } => {
                write!(f, "invalid instruction fetch at {pc:#x}")
            }
            EmuError::StepLimit { limit } => {
                write!(f, "step limit of {limit} instructions exceeded before halt")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// The functional emulator: an [`ArchState`] plus the count of
/// instructions executed and the output they emitted.
///
/// # Example
///
/// ```
/// use nwo_isa::{assemble, Emulator};
///
/// let prog = assemble("main: li t0, 40\n addq t0, 2, t0\n outq t0\n halt")?;
/// let mut emu = Emulator::new(&prog);
/// emu.run(1000)?;
/// assert_eq!(emu.outq(), &[42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    state: ArchState,
    icount: u64,
    out_bytes: Vec<u8>,
    out_quads: Vec<u64>,
}

impl From<ArchState> for Emulator {
    /// An emulator that continues from `state`, with nothing executed
    /// or emitted yet.
    fn from(state: ArchState) -> Emulator {
        Emulator {
            state,
            icount: 0,
            out_bytes: Vec::new(),
            out_quads: Vec::new(),
        }
    }
}

impl Emulator {
    /// Loads `program` into a fresh machine (see [`ArchState::new`]).
    pub fn new(program: &Program) -> Self {
        ArchState::new(program).into()
    }

    /// The architected state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.state.pc
    }

    /// Reads a register (reads of `r31` are always zero).
    pub fn reg(&self, r: Reg) -> u64 {
        self.state.reg(r)
    }

    /// Writes a register (writes to `r31` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.state.set_reg(r, value);
    }

    /// The machine's memory.
    pub fn mem(&self) -> &MainMemory {
        &self.state.mem
    }

    /// True once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.state.halted
    }

    /// Number of instructions executed so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Bytes emitted by `outb`.
    pub fn output(&self) -> &[u8] {
        &self.out_bytes
    }

    /// Quadwords emitted by `outq`.
    pub fn outq(&self) -> &[u64] {
        &self.out_quads
    }

    /// Executes one instruction and returns its record.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::BadInstruction`] on an invalid fetch. Stepping
    /// a halted machine returns the `halt` record again without effect.
    pub fn step(&mut self) -> Result<ExecRecord, EmuError> {
        let pc = self.state.pc;
        let instr = self
            .state
            .fetch(pc)
            .ok_or(EmuError::BadInstruction { pc })?;
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
            next_pc: pc,
        };
        execute(&mut self.state, &mut record);
        match instr.op {
            Opcode::Outb => self.out_bytes.push(record.op_a as u8),
            Opcode::Outq => self.out_quads.push(record.op_a),
            _ => {}
        }
        self.state.pc = record.next_pc;
        self.icount += 1;
        Ok(record)
    }

    /// Runs until `halt`, returning the number of instructions executed.
    ///
    /// # Errors
    ///
    /// [`EmuError::StepLimit`] if `halt` is not reached within `limit`
    /// instructions; [`EmuError::BadInstruction`] on an invalid fetch.
    pub fn run(&mut self, limit: u64) -> Result<u64, EmuError> {
        let start = self.icount;
        while !self.state.halted {
            if self.icount - start >= limit {
                return Err(EmuError::StepLimit { limit });
            }
            self.step()?;
        }
        Ok(self.icount - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> Emulator {
        let prog = assemble(src).expect("assembles");
        let mut emu = Emulator::new(&prog);
        emu.run(1_000_000).expect("halts");
        emu
    }

    #[test]
    fn arithmetic_and_output() {
        let emu = run("main: li t0, 40\n addq t0, 2, t0\n outq t0\n halt");
        assert_eq!(emu.outq(), &[42]);
        assert!(emu.halted());
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let emu = run(concat!(
            "main: clr t0\n",
            " li t1, 10\n",
            "loop: addq t0, t1, t0\n",
            " subq t1, 1, t1\n",
            " bgt t1, loop\n",
            " outq t0\n",
            " halt"
        ));
        assert_eq!(emu.outq(), &[55]);
    }

    #[test]
    fn loads_and_stores_round_trip_through_data() {
        let emu = run(concat!(
            ".data\n",
            "src: .quad 0x1122334455667788\n",
            "dst: .space 8\n",
            ".text\n",
            "main: la t0, src\n",
            " la t1, dst\n",
            " ldq t2, 0(t0)\n",
            " stq t2, 0(t1)\n",
            " ldbu t3, 0(t1)\n",
            " outq t3\n",
            " ldwu t3, 0(t1)\n",
            " outq t3\n",
            " ldl t3, 4(t1)\n",
            " outq t3\n",
            " halt"
        ));
        assert_eq!(emu.outq(), &[0x88, 0x7788, 0x11223344]);
    }

    #[test]
    fn ldl_sign_extends() {
        let emu = run(concat!(
            ".data\nv: .long 0x80000000\n.text\n",
            "main: la t0, v\n ldl t1, 0(t0)\n outq t1\n halt"
        ));
        assert_eq!(emu.outq(), &[0xffff_ffff_8000_0000]);
    }

    #[test]
    fn call_and_return() {
        let emu = run(concat!(
            "main: li a0, 5\n",
            " call double\n",
            " outq v0\n",
            " halt\n",
            "double: addq a0, a0, v0\n",
            " ret"
        ));
        assert_eq!(emu.outq(), &[10]);
    }

    #[test]
    fn jump_table_dispatch() {
        let emu = run(concat!(
            ".data\n",
            "table: .quad case0, case1\n",
            ".text\n",
            "main: la t0, table\n",
            " li t1, 1\n",
            " sll t1, 3, t2\n",
            " addq t0, t2, t2\n",
            " ldq pv, 0(t2)\n",
            " jmp (pv)\n",
            "case0: li v0, 100\n br done\n",
            "case1: li v0, 200\n br done\n",
            "done: outq v0\n halt"
        ));
        assert_eq!(emu.outq(), &[200]);
    }

    #[test]
    fn stack_push_pop() {
        let emu = run(concat!(
            "main: li t0, 77\n",
            " subq sp, 8, sp\n",
            " stq t0, 0(sp)\n",
            " clr t0\n",
            " ldq t0, 0(sp)\n",
            " addq sp, 8, sp\n",
            " outq t0\n halt"
        ));
        assert_eq!(emu.outq(), &[77]);
    }

    #[test]
    fn outb_collects_bytes() {
        let emu = run("main: li t0, 'H'\n outb t0\n li t0, 'i'\n outb t0\n halt");
        assert_eq!(emu.output(), b"Hi");
    }

    #[test]
    fn zero_register_is_immutable() {
        let emu = run("main: li t0, 9\n addq t0, 1, zero\n outq zero\n halt");
        assert_eq!(emu.outq(), &[0]);
    }

    #[test]
    fn step_limit_detected() {
        let prog = assemble("main: br main").unwrap();
        let mut emu = Emulator::new(&prog);
        assert_eq!(emu.run(100), Err(EmuError::StepLimit { limit: 100 }));
    }

    #[test]
    fn bad_fetch_detected() {
        let prog = assemble("main: nop").unwrap(); // falls off the end
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        assert!(matches!(emu.step(), Err(EmuError::BadInstruction { .. })));
    }

    #[test]
    fn records_capture_operands() {
        let prog = assemble("main: li t0, 17\n addq t0, 2, t1\n halt").unwrap();
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        let rec = emu.step().unwrap();
        assert_eq!(rec.op_a, 17);
        assert_eq!(rec.op_b, 2);
        assert_eq!(rec.result, Some(19));
        assert_eq!(rec.dest, Some(Reg::new(2)));
    }

    #[test]
    fn branch_record_taken_flag() {
        let prog = assemble("main: clr t0\n beq t0, main\n halt").unwrap();
        let mut emu = Emulator::new(&prog);
        emu.step().unwrap();
        let rec = emu.step().unwrap();
        assert!(rec.taken);
        assert_eq!(rec.next_pc, prog.entry);
    }

    #[test]
    fn conditional_moves() {
        let emu = run(concat!(
            "main: li t0, 5\n li t1, 9\n li t2, 100\n",
            " cmoveq zero, t1, t0\n", // condition true: t0 = 9
            " outq t0\n",
            " cmovne zero, t2, t0\n", // condition false: t0 unchanged
            " outq t0\n",
            " li t3, -1\n",
            " cmovlt t3, t2, t0\n", // negative: t0 = 100
            " outq t0\n",
            " cmovge t3, t1, t0\n", // not >= 0: unchanged
            " outq t0\n halt"
        ));
        assert_eq!(emu.outq(), &[9, 9, 100, 100]);
    }

    #[test]
    fn halt_freezes_machine() {
        let prog = assemble("main: halt").unwrap();
        let mut emu = Emulator::new(&prog);
        emu.run(10).unwrap();
        let pc = emu.pc();
        assert!(emu.halted());
        // Stepping a halted machine stays put.
        emu.step().unwrap();
        assert_eq!(emu.pc(), pc);
    }
}
