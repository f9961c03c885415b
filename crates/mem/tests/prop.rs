//! Property-based tests: memory round-trips and cache/LRU invariants.

use nwo_mem::{Cache, CacheConfig, MainMemory, Tlb, TlbConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// `MainMemory`'s backing page size.
const PAGE: u64 = 4096;

proptest! {
    /// Byte-accurate round trip for arbitrary (address, value) writes,
    /// including overlapping and cross-page accesses.
    #[test]
    fn memory_round_trips(
        writes in prop::collection::vec((0u64..1 << 20, any::<u64>()), 1..64),
    ) {
        let mut mem = MainMemory::new();
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        for &(addr, value) in &writes {
            mem.write_u64(addr, value);
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for &(addr, _) in &writes {
            for i in 0..8 {
                let expect = model.get(&(addr + i)).copied().unwrap_or(0);
                prop_assert_eq!(mem.read_u8(addr + i), expect);
            }
        }
    }

    /// Interleaved 1/2/4/8-byte reads and writes at page edges (the top
    /// page included, where an access wraps to address 0) agree with a
    /// byte-wise model, and allocate exactly the pages written.
    #[test]
    fn wide_accesses_match_a_bytewise_model(
        ops in prop::collection::vec(
            (
                any::<bool>(),
                prop::sample::select(vec![0u64, 1, 2, u64::MAX / PAGE]),
                prop::sample::select(vec![0u64, 1, 2, 3, 4, 7, 8, 4088, 4089, 4092, 4093, 4094, 4095]),
                prop::sample::select(vec![1u64, 2, 4, 8]),
                any::<u64>(),
            ),
            1..48,
        ),
    ) {
        let mut mem = MainMemory::new();
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        let mut pages = HashSet::new();
        for (write, page, offset, len, value) in ops {
            let addr = page * PAGE + offset;
            let at = |i: u64| addr.wrapping_add(i);
            if write {
                match len {
                    1 => mem.write_u8(addr, value as u8),
                    2 => mem.write_u16(addr, value as u16),
                    4 => mem.write_u32(addr, value as u32),
                    _ => mem.write_u64(addr, value),
                }
                for i in 0..len {
                    model.insert(at(i), value.to_le_bytes()[i as usize]);
                    pages.insert(at(i) / PAGE);
                }
            } else {
                let got = match len {
                    1 => u64::from(mem.read_u8(addr)),
                    2 => u64::from(mem.read_u16(addr)),
                    4 => u64::from(mem.read_u32(addr)),
                    _ => mem.read_u64(addr),
                };
                let mut want = [0u8; 8];
                for i in 0..len {
                    want[i as usize] = model.get(&at(i)).copied().unwrap_or(0);
                }
                prop_assert_eq!(got, u64::from_le_bytes(want), "{}-byte read at {:#x}", len, addr);
            }
            prop_assert_eq!(mem.allocated_pages(), pages.len());
        }
    }

    /// Immediately re-accessing any address hits, regardless of history.
    #[test]
    fn cache_second_access_hits(
        addrs in prop::collection::vec(0u64..1 << 18, 1..200),
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 4096,
            assoc: 2,
            block_bytes: 32,
            hit_latency: 1,
        });
        for &a in &addrs {
            cache.access(a, false);
            prop_assert!(cache.access(a, false).hit, "address {a:#x}");
            prop_assert!(cache.probe(a));
        }
    }

    /// Miss count is bounded below by compulsory misses (distinct blocks)
    /// and above by total accesses; hits + misses == accesses.
    #[test]
    fn cache_miss_bounds(
        addrs in prop::collection::vec(0u64..1 << 16, 1..300),
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 2048,
            assoc: 4,
            block_bytes: 32,
            hit_latency: 1,
        });
        for &a in &addrs {
            cache.access(a, a & 1 == 0);
        }
        let stats = cache.stats();
        let distinct_blocks: HashSet<u64> = addrs.iter().map(|a| a / 32).collect();
        prop_assert_eq!(stats.accesses(), addrs.len() as u64);
        prop_assert!(stats.misses >= distinct_blocks.len() as u64);
        prop_assert!(stats.hits + stats.misses == addrs.len() as u64);
    }

    /// A working set no larger than one set's associativity never
    /// conflicts: after the first touch, everything stays resident.
    #[test]
    fn cache_small_working_set_never_evicts(
        base in 0u64..1 << 12,
        reps in 1usize..20,
    ) {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 4096,
            assoc: 2,
            block_bytes: 64,
            hit_latency: 1,
        });
        // Two blocks mapping to the same set (stride = number of sets *
        // block size), associativity 2: both must stay resident forever.
        let a = base;
        let b = base + 4096 / 2;
        cache.access(a, false);
        cache.access(b, false);
        for _ in 0..reps {
            prop_assert!(cache.access(a, false).hit);
            prop_assert!(cache.access(b, false).hit);
        }
    }

    /// TLB: misses equal distinct pages when capacity is never exceeded.
    #[test]
    fn tlb_compulsory_only_within_capacity(
        pages in prop::collection::vec(0u64..8, 1..100),
    ) {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 8,
            page_bytes: 4096,
            miss_latency: 30,
        });
        for &p in &pages {
            tlb.access(p * 4096 + (p % 7) * 8);
        }
        let distinct: HashSet<u64> = pages.iter().copied().collect();
        prop_assert_eq!(tlb.stats().misses, distinct.len() as u64);
    }
}
