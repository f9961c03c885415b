//! Checkpoint round-trip properties for the memory hierarchy: restore
//! reproduces the exact state, save-after-restore is byte-identical,
//! geometry mismatches and malformed line lists are typed rejections, and
//! a rejected payload leaves the receiver as it was.

use nwo_ckpt::{Checkpointable, CkptError, SectionReader, SectionWriter};
use nwo_mem::{Cache, CacheConfig, Hierarchy, HierarchyConfig, MainMemory, Tlb, TlbConfig};
use proptest::prelude::*;

/// Base address of the traffic that trains receivers: its pages are
/// disjoint from the `0..1 << 16` range the saved states are trained on,
/// while its blocks still map onto the same L1 sets.
const OTHER: u64 = 1 << 20;

/// Serializes `state` into a fresh payload.
fn save_bytes(state: &dyn Checkpointable) -> Vec<u8> {
    let mut w = SectionWriter::new();
    state.save(&mut w);
    w.into_bytes()
}

/// Restores `payload` into `receiver`, requiring exact consumption.
fn restore_from(receiver: &mut dyn Checkpointable, payload: &[u8]) -> Result<(), CkptError> {
    let mut r = SectionReader::new(payload.to_vec());
    receiver.restore(&mut r)?;
    r.finish("test payload")
}

/// A hierarchy small enough that a few dozen accesses fill its sets,
/// evict from them and leave dirty lines behind: 1 KiB 2-way L1s and a
/// 4 KiB 4-way L2.
fn small_hierarchy() -> HierarchyConfig {
    let cache = |size_bytes, assoc, hit_latency| CacheConfig {
        size_bytes,
        assoc,
        block_bytes: 32,
        hit_latency,
    };
    HierarchyConfig {
        l1i: cache(1024, 2, 1),
        l1d: cache(1024, 2, 1),
        l2: Some(cache(4096, 4, 12)),
        ..Default::default()
    }
}

/// A load or store (stores at even offsets) and an instruction fetch at
/// `base + a` for each `a`.
fn train(h: &mut Hierarchy, base: u64, offsets: &[u64]) {
    for &a in offsets {
        h.data_access(base + a, a & 1 == 0);
        h.inst_access((base + a) & !3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MainMemory: arbitrary writes round-trip through a checkpoint, and
    /// re-saving the restored memory is byte-identical.
    #[test]
    fn main_memory_round_trips(
        writes in prop::collection::vec((0u64..1 << 20, any::<u64>()), 0..32),
    ) {
        let mut mem = MainMemory::new();
        for &(addr, value) in &writes {
            mem.write_u64(addr, value);
        }
        let payload = save_bytes(&mem);
        let mut restored = MainMemory::new();
        restore_from(&mut restored, &payload).expect("restores");
        for &(addr, _) in &writes {
            for i in 0..8 {
                prop_assert_eq!(restored.read_u8(addr + i), mem.read_u8(addr + i));
            }
        }
        prop_assert_eq!(save_bytes(&restored), payload, "re-save is byte-identical");
    }

    /// Hierarchy: a trained cache/TLB tree round-trips into a receiver
    /// trained on other addresses, observable via identical stats, a
    /// byte-identical re-save and identical latencies on a probe
    /// sequence. The last two catch a restore that leaves any of the
    /// receiver's own lines valid. Both the Table 1 shape and a small one
    /// whose sets fill, evict and hold dirty lines.
    #[test]
    fn hierarchy_round_trips(
        warm in prop::collection::vec(0u64..1 << 16, 1..64),
        other in prop::collection::vec(0u64..1 << 16, 1..64),
        probe in prop::collection::vec(0u64..1 << 16, 1..32),
    ) {
        for config in [HierarchyConfig::default(), small_hierarchy()] {
            let mut h = Hierarchy::new(config);
            train(&mut h, 0, &warm);
            let payload = save_bytes(&h);
            let mut restored = Hierarchy::new(config);
            train(&mut restored, OTHER, &other);
            restore_from(&mut restored, &payload).expect("restores");
            prop_assert_eq!(restored.stats(), h.stats());
            prop_assert_eq!(save_bytes(&restored), payload.clone(), "re-save is byte-identical");
            // Same future behaviour: every probe sees the same latency,
            // in the saved range and in the receiver's old one.
            for &a in &probe {
                for base in [0, OTHER] {
                    prop_assert_eq!(
                        restored.data_access(base + a, false),
                        h.data_access(base + a, false)
                    );
                }
            }
        }
    }

    /// TLB round-trip preserves both contents and counters.
    #[test]
    fn tlb_round_trips(pages in prop::collection::vec(0u64..64, 1..64)) {
        let config = TlbConfig::default();
        let mut tlb = Tlb::new(config);
        for &p in &pages {
            tlb.access(p * 4096);
        }
        let payload = save_bytes(&tlb);
        let mut restored = Tlb::new(config);
        restore_from(&mut restored, &payload).expect("restores");
        prop_assert_eq!(restored.stats(), tlb.stats());
        prop_assert_eq!(save_bytes(&restored), payload.clone());
        for &p in &pages {
            prop_assert_eq!(restored.access(p * 4096), tlb.access(p * 4096));
        }
    }

    /// Truncating a hierarchy payload at any point is a typed error,
    /// never a panic, and leaves the receiver as it was: it re-saves to
    /// its own pre-restore bytes.
    #[test]
    fn truncated_hierarchy_payload_is_rejected(cut_seed in any::<u64>()) {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.data_access(0x1000, true);
        let payload = save_bytes(&h);
        let cut = (cut_seed % payload.len() as u64) as usize;
        let mut receiver = Hierarchy::new(HierarchyConfig::default());
        train(&mut receiver, OTHER, &[0, 0x48, 0x2000]);
        let before = save_bytes(&receiver);
        let err = restore_from(&mut receiver, &payload[..cut]);
        prop_assert!(err.is_err(), "cut at {} must fail", cut);
        prop_assert!(save_bytes(&receiver) == before, "cut at {} changed the receiver", cut);
    }
}

#[test]
fn truncated_tlb_entry_list_leaves_the_receiver_untouched() {
    let config = TlbConfig::default();
    let mut tlb = Tlb::new(config);
    for p in 0..8 {
        tlb.access(p * config.page_bytes);
    }
    let payload = save_bytes(&tlb);
    let mut receiver = Tlb::new(config);
    for p in 100..104 {
        receiver.access(p * config.page_bytes);
    }
    let before = save_bytes(&receiver);
    // The entry list follows four u64s: tick, hits, misses, entry count.
    for cut in 32..payload.len() {
        assert!(
            restore_from(&mut receiver, &payload[..cut]).is_err(),
            "cut at {cut} must fail"
        );
        assert!(
            save_bytes(&receiver) == before,
            "cut at {cut} changed the receiver"
        );
    }
}

#[test]
fn malformed_cache_line_lists_are_typed() {
    // 4 sets x 2 ways: flat line indices 0..8.
    let config = CacheConfig {
        size_bytes: 256,
        assoc: 2,
        block_bytes: 32,
        hit_latency: 1,
    };
    // Geometry, tick, hits, misses, writebacks, the declared line count,
    // then one clean line per index.
    let payload = |count: u64, indices: &[u64]| {
        let mut w = SectionWriter::new();
        for v in [4, 2, 9, 1, 2, 0, count] {
            w.put_u64(v);
        }
        for &index in indices {
            w.put_u64(index);
            w.put_bool(false);
            w.put_u64(index);
            w.put_u64(9);
        }
        w.into_bytes()
    };
    let mut receiver = Cache::new(config);
    receiver.access(0x40, true);
    let before = save_bytes(&receiver);
    let cases = [
        ("index past the last line", payload(1, &[8])),
        ("repeated index", payload(2, &[3, 3])),
        ("descending indices", payload(2, &[5, 2])),
        ("count above sets x assoc", payload(9, &[])),
    ];
    for (what, bytes) in cases {
        match restore_from(&mut receiver, &bytes) {
            Err(CkptError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
        assert!(
            save_bytes(&receiver) == before,
            "{what}: changed the receiver"
        );
    }
    // The same builder with a well-formed list restores.
    restore_from(&mut receiver, &payload(2, &[0, 7])).expect("well-formed lines restore");
    assert_eq!(receiver.stats().misses, 2);
}

#[test]
fn hierarchy_geometry_mismatch_is_typed() {
    let h = Hierarchy::new(HierarchyConfig::default());
    let payload = save_bytes(&h);
    // A receiver without an L2 disagrees on hierarchy shape.
    let no_l2 = HierarchyConfig {
        l2: None,
        ..Default::default()
    };
    let mut receiver = Hierarchy::new(no_l2);
    match restore_from(&mut receiver, &payload) {
        Err(CkptError::Mismatch { .. }) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
}

#[test]
fn tlb_overflow_into_smaller_receiver_is_typed() {
    let config = TlbConfig::default();
    let mut tlb = Tlb::new(config);
    for p in 0..config.entries as u64 {
        tlb.access(p * config.page_bytes);
    }
    let payload = save_bytes(&tlb);
    let mut small = config;
    small.entries /= 2;
    let mut receiver = Tlb::new(small);
    match restore_from(&mut receiver, &payload) {
        Err(CkptError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}
