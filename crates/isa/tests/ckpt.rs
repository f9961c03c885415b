//! Checkpoint round-trip properties for the architected state — the
//! codec behind the warm image's `frontend` section: a mid-run
//! checkpoint restored into a fresh state (loaded from the same
//! program) continues to the exact same final state.

use nwo_ckpt::{Checkpointable, CkptError, SectionReader, SectionWriter};
use nwo_isa::{assemble, ArchState, Emulator};
use proptest::prelude::*;

fn save_bytes(state: &dyn Checkpointable) -> Vec<u8> {
    let mut w = SectionWriter::new();
    state.save(&mut w);
    w.into_bytes()
}

fn restore_from(receiver: &mut dyn Checkpointable, payload: &[u8]) -> Result<(), CkptError> {
    let mut r = SectionReader::new(payload.to_vec());
    receiver.restore(&mut r)?;
    r.finish("test payload")
}

/// A store/load loop that touches memory, produces byte and quad output,
/// and runs long enough to be interrupted at interesting points.
fn loop_program(iters: u64) -> nwo_isa::Program {
    assemble(&format!(
        concat!(
            "main: clr t0\n",
            " li t1, {iters}\n",
            " li t2, 0x1000\n",
            "loop: addq t0, t1, t0\n",
            " stq t0, 0(t2)\n",
            " ldq t3, 0(t2)\n",
            " outb t3\n",
            " addq t2, 8, t2\n",
            " subq t1, 1, t1\n",
            " bgt t1, loop\n",
            " outq t0\n",
            " halt\n",
        ),
        iters = iters
    ))
    .expect("assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stop anywhere mid-run, checkpoint the architected state, restore
    /// it into a fresh state of the same program, and an emulator
    /// continuing from it finishes exactly where the original does,
    /// emitting the original's remaining output.
    #[test]
    fn mid_run_checkpoint_resumes_identically(
        iters in 1u64..24,
        stop_seed in any::<u64>(),
    ) {
        let program = loop_program(iters);
        let mut original = Emulator::new(&program);
        // ~7 instructions per iteration plus prologue/epilogue.
        let total = 3 + iters * 7 + 2;
        let stop = stop_seed % total;
        for _ in 0..stop {
            if original.halted() {
                break;
            }
            original.step().expect("steps");
        }
        let payload = save_bytes(original.state());
        let (icount, bytes, quads) =
            (original.icount(), original.output().len(), original.outq().len());

        let mut restored = ArchState::new(&program);
        restore_from(&mut restored, &payload).expect("restores");
        prop_assert_eq!(save_bytes(&restored), payload, "re-save is byte-identical");
        prop_assert_eq!(restored.pc(), original.pc());

        let mut resumed = Emulator::from(restored);
        original.run(1_000_000).expect("original finishes");
        resumed.run(1_000_000).expect("resumed finishes");
        prop_assert_eq!(save_bytes(resumed.state()), save_bytes(original.state()));
        prop_assert_eq!(resumed.icount(), original.icount() - icount);
        prop_assert_eq!(resumed.output(), &original.output()[bytes..]);
        prop_assert_eq!(resumed.outq(), &original.outq()[quads..]);
    }

    /// Truncating an architected-state payload at any point is a typed
    /// error.
    #[test]
    fn truncated_state_payload_is_rejected(cut_seed in any::<u64>()) {
        let program = loop_program(4);
        let mut emu = Emulator::new(&program);
        for _ in 0..20 {
            emu.step().expect("steps");
        }
        let payload = save_bytes(emu.state());
        let cut = (cut_seed % payload.len() as u64) as usize;
        let mut receiver = ArchState::new(&program);
        prop_assert!(restore_from(&mut receiver, &payload[..cut]).is_err());
    }
}

#[test]
fn restored_halted_state_stays_halted() {
    let program = loop_program(2);
    let mut emu = Emulator::new(&program);
    emu.run(1_000_000).expect("halts");
    assert!(emu.halted());
    let payload = save_bytes(emu.state());
    let mut restored = ArchState::new(&program);
    restore_from(&mut restored, &payload).expect("restores");
    assert!(restored.halted());
    assert_eq!(restored.pc(), emu.pc());
    let mut resumed = Emulator::from(restored);
    assert_eq!(resumed.run(10), Ok(0), "a halted state executes nothing");
}
