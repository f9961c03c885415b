//! Checkpoint round-trip properties for the power accumulators: the
//! restored state produces identical reports and byte-identical re-saves
//! (f64 fields travel as exact bit patterns).

use nwo_ckpt::{Checkpointable, CkptError, SectionReader, SectionWriter};
use nwo_core::GateLevel;
use nwo_isa::OpClass;
use nwo_power::{MemPowerExt, PowerAccumulator};
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

const CLASSES: [OpClass; 6] = [
    OpClass::IntArith,
    OpClass::Logic,
    OpClass::Shift,
    OpClass::Mult,
    OpClass::Load,
    OpClass::Branch,
];

const LEVELS: [GateLevel; 3] = [GateLevel::Gate16, GateLevel::Gate33, GateLevel::Full];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PowerAccumulator: arbitrary op streams round-trip bit-exactly.
    #[test]
    fn power_accumulator_round_trips(
        ops in prop::collection::vec((0usize..6, 0usize..3), 1..128),
        cycles in 1u64..10_000,
    ) {
        let mut acc = PowerAccumulator::new();
        for &(c, l) in &ops {
            acc.record_op(CLASSES[c], LEVELS[l]);
        }
        let payload = save_bytes(&acc);
        let mut restored = PowerAccumulator::new();
        restore_from(&mut restored, &payload).expect("restores");
        prop_assert_eq!(save_bytes(&restored), payload, "re-save is byte-identical");
        prop_assert_eq!(restored.level_counts(), acc.level_counts());
        prop_assert_eq!(restored.total_ops(), acc.total_ops());
        // Reports (pure f64 arithmetic over the state) agree exactly.
        prop_assert_eq!(restored.report(cycles), acc.report(cycles));
    }

    /// MemPowerExt: arbitrary load/store streams round-trip bit-exactly.
    #[test]
    fn mem_power_ext_round_trips(
        accesses in prop::collection::vec((1u64..9, any::<bool>(), any::<bool>()), 1..128),
        cycles in 1u64..10_000,
    ) {
        let mut ext = MemPowerExt::new();
        for &(bytes, narrow, is_store) in &accesses {
            if is_store {
                ext.record_store(bytes, narrow);
            } else {
                ext.record_load(bytes, narrow);
            }
        }
        let payload = save_bytes(&ext);
        let mut restored = MemPowerExt::new();
        restore_from(&mut restored, &payload).expect("restores");
        prop_assert_eq!(save_bytes(&restored), payload, "re-save is byte-identical");
        prop_assert_eq!(restored.report(cycles), ext.report(cycles));
    }

    /// Truncation anywhere in a power payload is a typed error.
    #[test]
    fn truncated_power_payload_is_rejected(cut_seed in any::<u64>()) {
        let mut acc = PowerAccumulator::new();
        acc.record_op(OpClass::IntArith, GateLevel::Gate16);
        let payload = save_bytes(&acc);
        let cut = (cut_seed % payload.len() as u64) as usize;
        let mut receiver = PowerAccumulator::new();
        prop_assert!(restore_from(&mut receiver, &payload[..cut]).is_err());
    }
}
