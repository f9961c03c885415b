#![warn(missing_docs)]

//! A 64-bit Alpha-flavoured RISC instruction set, assembler and functional
//! emulator — the ISA substrate for the HPCA '99 narrow-width-operand
//! study.
//!
//! The design goal is to preserve every ISA property the paper's
//! optimizations depend on:
//!
//! * 64-bit two's-complement integer registers (`r31` hard-wired to zero);
//! * operate-format instructions with an 8-bit literal form, so immediate
//!   operands have statically-known widths;
//! * longword (`addl`, `ldl`, …) operations that sign-extend 32-bit
//!   results, like Alpha;
//! * displacement addressing whose effective-address adds run on the
//!   integer adder (they dominate the 33-bit operand population of
//!   Figure 1);
//! * `lda`/`ldah` address arithmetic, giving realistic gp-relative
//!   addressing sequences.
//!
//! # Quick start
//!
//! ```
//! use nwo_isa::{assemble, Emulator};
//!
//! let program = assemble(r#"
//!     main:
//!         li   t0, 6
//!         li   t1, 7
//!         mulq t0, t1, v0
//!         outq v0
//!         halt
//! "#)?;
//! let mut emu = Emulator::new(&program);
//! emu.run(100)?;
//! assert_eq!(emu.outq(), &[42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod asm;
mod emu;
mod exec;
mod instr;
mod op;
mod program;
mod reg;

pub use asm::{assemble, AsmError};
pub use emu::{ArchState, EmuError, Emulator};
pub use exec::{access_bytes, alu_result, execute, ArchAccess, ExecRecord};
pub use instr::{DecodeError, Instr, OperandB};
pub use op::{Format, OpClass, Opcode};
pub use program::{Program, DATA_BASE, STACK_TOP, TEXT_BASE};
pub use reg::{ParseRegError, Reg};
