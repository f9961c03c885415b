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
//! Every instruction, on either path, runs through [`nwo_isa::execute`],
//! the function the emulator steps through too. Recovery throws the
//! overlay away and resumes at the branch's true target.

use nwo_isa::{execute, ArchAccess, ArchState, ExecRecord, Instr, Opcode, Reg};
use nwo_mem::FixedHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Speculative in-order functional execution engine: the architected
/// state plus the wrong-path overlay.
#[derive(Debug, Clone)]
pub struct Frontend {
    /// The correct-path architected state. Its PC is the next fetch PC,
    /// which in wrong-path mode is on the wrong path; its halt flag is
    /// set only by a correct-path `halt`.
    pub arch: ArchState,
    /// Currently executing down a known-wrong path.
    spec: bool,
    /// Wrong-path fetch ran off the rails (bad PC or wrong-path halt);
    /// fetch stalls until recovery.
    stalled: bool,
    /// Wrong-path register values, by register index.
    spec_regs: [Option<u64>; 32],
    /// Wrong-path stores, by byte address; every wrong-path load and
    /// store hashes its addresses here.
    spec_mem: HashMap<u64, u8, BuildHasherDefault<FixedHasher>>,
}

impl From<ArchState> for Frontend {
    /// A front end on the correct path at `arch`, with an empty overlay.
    fn from(arch: ArchState) -> Frontend {
        Frontend {
            arch,
            spec: false,
            stalled: false,
            spec_regs: [None; 32],
            spec_mem: HashMap::default(),
        }
    }
}

/// Wrong-path writes go to the overlay, and reads see the overlay
/// first; a wrong-path `halt` stalls fetch instead of ending the
/// program.
impl ArchAccess for Frontend {
    fn reg(&self, r: Reg) -> u64 {
        if self.spec {
            if let Some(v) = self.spec_regs[r.index() as usize] {
                return v;
            }
        }
        self.arch.reg(r)
    }

    fn set_reg(&mut self, r: Reg, value: u64) {
        if !self.spec {
            self.arch.set_reg(r, value);
        } else if !r.is_zero() {
            self.spec_regs[r.index() as usize] = Some(value);
        }
    }

    fn load(&self, addr: u64, len: u64) -> u64 {
        if !self.spec {
            return self.arch.load(addr, len);
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes[..len as usize].iter_mut().enumerate() {
            let a = addr.wrapping_add(i as u64);
            *b = match self.spec_mem.get(&a) {
                Some(&b) => b,
                None => self.arch.mem().read_u8(a),
            };
        }
        u64::from_le_bytes(bytes)
    }

    fn store(&mut self, addr: u64, len: u64, value: u64) {
        if !self.spec {
            self.arch.store(addr, len, value);
            return;
        }
        for (i, &b) in value.to_le_bytes()[..len as usize].iter().enumerate() {
            self.spec_mem.insert(addr.wrapping_add(i as u64), b);
        }
    }

    fn halt(&mut self) {
        if self.spec {
            self.stalled = true;
        } else {
            self.arch.halt();
        }
    }
}

/// A record for [`Frontend::step`] to execute into; every field is
/// overwritten.
pub(crate) fn blank_record() -> ExecRecord {
    ExecRecord {
        pc: 0,
        instr: Instr::system(Opcode::Halt, Reg::ZERO),
        op_a: 0,
        op_b: 0,
        result: None,
        dest: None,
        mem_addr: None,
        store_value: None,
        taken: false,
        next_pc: 0,
    }
}

impl Frontend {
    /// Wrong-path fetch is stalled until a recovery redirects it.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Currently in wrong-path (speculative) mode.
    pub fn spec_mode(&self) -> bool {
        self.spec
    }

    /// Executes the instruction at the current PC into `rec` and
    /// advances to the *actual* next PC. Returns false, leaving `rec` as
    /// it was, when the engine cannot fetch: the program has halted, the
    /// wrong path is stalled, or the PC is invalid (a correct-path
    /// invalid PC also returns false — the machine treats that as a
    /// program error). Output side effects happen at commit, in the
    /// machine.
    #[inline]
    pub fn step(&mut self, rec: &mut ExecRecord) -> bool {
        if self.arch.halted() || self.stalled {
            return false;
        }
        let pc = self.arch.pc();
        let Some(instr) = self.arch.fetch(pc) else {
            // Off the rails. On the wrong path this is expected; on the
            // correct path the caller surfaces an error.
            if self.spec {
                self.stalled = true;
            }
            return false;
        };
        rec.pc = pc;
        rec.instr = instr;
        execute(self, rec);
        self.arch.set_pc(rec.next_pc);
        true
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
        self.arch.set_pc(pc);
        if self.spec {
            self.stalled = false;
        }
    }

    /// Full recovery: discard the wrong-path overlay and resume at the
    /// true target of the mispredicted branch.
    pub fn recover(&mut self, target: u64) {
        self.spec = false;
        self.stalled = false;
        self.spec_regs = [None; 32];
        self.spec_mem.clear();
        self.arch.set_pc(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwo_isa::assemble;

    fn fe(src: &str) -> Frontend {
        Frontend::from(ArchState::new(&assemble(src).expect("assembles")))
    }

    impl Frontend {
        /// [`Frontend::step`] into a fresh record.
        fn next(&mut self) -> Option<ExecRecord> {
            let mut rec = blank_record();
            self.step(&mut rec).then_some(rec)
        }
    }

    #[test]
    fn correct_path_matches_emulator_semantics() {
        let src = "main: li t0, 5\n addq t0, 3, t1\n outq t1\n halt";
        let mut f = fe(src);
        let r1 = f.next().unwrap();
        assert_eq!(r1.result, Some(5));
        let r2 = f.next().unwrap();
        assert_eq!(r2.op_a, 5);
        assert_eq!(r2.result, Some(8));
        let r3 = f.next().unwrap();
        assert_eq!(r3.op_a, 8);
        let r4 = f.next().unwrap();
        assert_eq!(r4.instr.op, Opcode::Halt);
        assert!(f.arch.halted());
        assert!(f.next().is_none());
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
        f.next().unwrap(); // li
        let br = f.next().unwrap(); // br (taken)
        assert!(br.taken);
        // Pretend the predictor said not-taken: wrong path.
        f.enter_spec();
        f.set_pc(br.pc + 4);
        let wrong = f.next().unwrap();
        assert_eq!(wrong.result, Some(99));
        assert_eq!(f.arch.reg(Reg::new(1)), 1, "architected state untouched");
        // Recovery resumes the true path with t0 intact.
        f.recover(br.next_pc);
        assert!(!f.spec_mode());
        let outq = f.next().unwrap();
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
        f.next().unwrap();
        f.next().unwrap();
        let br = f.next().unwrap();
        f.enter_spec();
        f.set_pc(br.pc + 4);
        let store = f.next().unwrap();
        assert_eq!(store.store_value, Some(0));
        f.recover(br.next_pc);
        let load = f.next().unwrap();
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
        f.next().unwrap();
        f.next().unwrap();
        let br = f.next().unwrap();
        f.enter_spec();
        f.set_pc(br.pc + 4);
        f.next().unwrap(); // wrong-path store of t0 (an address)
        let load = f.next().unwrap();
        assert_eq!(
            load.result,
            Some(f.arch.reg(Reg::new(1))),
            "forwarded in overlay"
        );
    }

    /// Mixed-width wrong-path stores that partly overlap, read back by
    /// a wider wrong-path load: the load sees each byte's youngest
    /// store, and after recovery architected memory holds none of them.
    #[test]
    fn overlapping_wrong_path_stores_merge_and_never_reach_memory() {
        let src = concat!(
            ".data\nslot: .quad 0x1122334455667788\n.text\n",
            "main: la t0, slot\n",
            " li t1, -1\n",
            " li t2, 0x5a\n",
            " br skip\n",
            "wrong: stl t1, 2(t0)\n", // bytes 2-5 = ff
            " stw t2, 4(t0)\n",       // bytes 4-5 = 5a 00
            " stb t2, 1(t0)\n",       // byte 1 = 5a
            " ldq t3, 0(t0)\n",
            "skip: ldq t4, 0(t0)\n halt"
        );
        let mut f = fe(src);
        let mut br = f.next().unwrap();
        while !br.instr.op.is_control() {
            br = f.next().unwrap();
        }
        f.enter_spec();
        f.set_pc(br.pc + 4);
        for _ in 0..3 {
            assert!(f.next().unwrap().store_value.is_some());
        }
        let load = f.next().unwrap();
        assert_eq!(load.result, Some(0x1122_005a_ffff_5a88));
        f.recover(br.next_pc);
        let load = f.next().unwrap();
        assert_eq!(load.result, Some(0x1122_3344_5566_7788));
        let slot = load.mem_addr.unwrap();
        assert_eq!(f.arch.mem().read_u64(slot), 0x1122_3344_5566_7788);
    }

    #[test]
    fn wrong_path_halt_stalls_until_recovery() {
        let src = concat!(
            "main: br skip\n",
            " halt\n", // wrong path halt
            "skip: nop\n halt"
        );
        let mut f = fe(src);
        let br = f.next().unwrap();
        f.enter_spec();
        f.set_pc(br.pc + 4);
        assert!(f.next().is_some()); // executes the wrong-path halt
        assert!(f.stalled());
        assert!(!f.arch.halted(), "machine not architecturally halted");
        assert!(f.next().is_none());
        f.recover(br.next_pc);
        assert!(f.next().is_some()); // nop on the true path
    }

    #[test]
    fn wrong_path_bad_pc_stalls() {
        let src = "main: clr t3\n br ok\nok: jmp (t3)\n halt";
        let mut f = fe(src);
        f.next().unwrap();
        let br = f.next().unwrap();
        f.enter_spec();
        f.set_pc(0x4); // garbage
        assert!(f.next().is_none());
        assert!(f.stalled());
        f.recover(br.next_pc);
        assert!(!f.stalled());
    }

    #[test]
    fn correct_path_bad_pc_returns_none_without_stall_flag() {
        let src = "main: nop"; // falls off the end
        let mut f = fe(src);
        f.next().unwrap();
        assert!(f.next().is_none());
        assert!(
            !f.stalled() && !f.arch.halted(),
            "caller decides this is an error"
        );
    }
}
