//! The three-level memory hierarchy of the baseline machine (Table 1):
//! split 64 KB L1 I/D caches, a unified 8 MB L2, a 100-cycle main memory,
//! and 128-entry instruction/data TLBs.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::tlb::{Tlb, TlbConfig, TlbStats};

/// Full hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2. `None` sends L1 misses straight to memory.
    pub l2: Option<CacheConfig>,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
}

impl Default for HierarchyConfig {
    /// The Table 1 baseline: 64K/2-way/32B 1-cycle L1s, 8M/4-way/32B
    /// 12-cycle unified L2, 100-cycle memory, 128-entry 30-cycle TLBs.
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1_table1(),
            l1d: CacheConfig::l1_table1(),
            l2: Some(CacheConfig::l2_table1()),
            memory_latency: 100,
            itlb: TlbConfig::default(),
            dtlb: TlbConfig::default(),
        }
    }
}

/// Snapshot of all hierarchy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction-cache counters.
    pub l1i: CacheStats,
    /// L1 data-cache counters.
    pub l1d: CacheStats,
    /// Unified L2 counters (zeroed when no L2 is configured).
    pub l2: CacheStats,
    /// Instruction TLB counters.
    pub itlb: TlbStats,
    /// Data TLB counters.
    pub dtlb: TlbStats,
}

impl nwo_obs::MetricSource for HierarchyStats {
    fn collect(&self, registry: &mut nwo_obs::Registry) {
        registry.source("l1i", &self.l1i);
        registry.source("l1d", &self.l1d);
        registry.source("l2", &self.l2);
        registry.source("itlb", &self.itlb);
        registry.source("dtlb", &self.dtlb);
    }
}

/// Composed instruction/data memory hierarchy.
///
/// Latency composition: an access always pays the L1 hit latency; on an L1
/// miss it also pays the L2 hit latency; on an L2 miss it pays main-memory
/// latency; TLB misses add their penalty on top. Dirty evictions write back
/// to the next level without stalling the access (a write buffer is
/// assumed, as in SimpleScalar).
///
/// # Example
///
/// ```
/// use nwo_mem::{Hierarchy, HierarchyConfig};
///
/// let mut h = Hierarchy::new(HierarchyConfig::default());
/// // Cold: 1 (L1) + 12 (L2) + 100 (mem) + 30 (TLB) = 143.
/// assert_eq!(h.data_access(0x8000, false), 143);
/// // Warm: 1-cycle L1 hit.
/// assert_eq!(h.data_access(0x8000, false), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Option<Cache>,
    itlb: Tlb,
    dtlb: Tlb,
}

impl Hierarchy {
    /// Builds the hierarchy for `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: config.l2.map(Cache::new),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    fn through_l2(l2: &mut Option<Cache>, memory_latency: u64, addr: u64, is_write: bool) -> u64 {
        match l2 {
            Some(l2) => {
                let out = l2.access(addr, is_write);
                if out.hit {
                    l2.config().hit_latency
                } else {
                    l2.config().hit_latency + memory_latency
                }
            }
            None => memory_latency,
        }
    }

    /// Fetches the instruction word at `addr`; returns total latency.
    pub fn inst_access(&mut self, addr: u64) -> u64 {
        let mut latency = self.itlb.access(addr);
        let out = self.l1i.access(addr, false);
        latency += self.l1i.config().hit_latency;
        if !out.hit {
            latency += Self::through_l2(&mut self.l2, self.config.memory_latency, addr, false);
        }
        if out.writeback {
            // I-cache lines are never dirty, but keep the path uniform.
            Self::through_l2(&mut self.l2, self.config.memory_latency, addr, true);
        }
        latency
    }

    /// Loads (`is_write == false`) or stores to `addr`; returns total latency.
    pub fn data_access(&mut self, addr: u64, is_write: bool) -> u64 {
        let mut latency = self.dtlb.access(addr);
        let out = self.l1d.access(addr, is_write);
        latency += self.l1d.config().hit_latency;
        if !out.hit {
            latency += Self::through_l2(&mut self.l2, self.config.memory_latency, addr, is_write);
        }
        if out.writeback {
            // Victim write-back is buffered; it updates L2 state but adds
            // no latency to this access.
            Self::through_l2(&mut self.l2, self.config.memory_latency, addr, true);
        }
        latency
    }

    /// Warms the hierarchy for one instruction fetch without timing
    /// (used by fast-forward).
    pub fn warm_inst(&mut self, addr: u64) {
        self.itlb.access(addr);
        let out = self.l1i.access(addr, false);
        if !out.hit {
            if let Some(l2) = &mut self.l2 {
                l2.access(addr, false);
            }
        }
    }

    /// Warms the hierarchy for one data access without timing.
    pub fn warm_data(&mut self, addr: u64, is_write: bool) {
        self.dtlb.access(addr);
        let out = self.l1d.access(addr, is_write);
        if !out.hit {
            if let Some(l2) = &mut self.l2 {
                l2.access(addr, is_write);
            }
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.as_ref().map(|c| c.stats()).unwrap_or_default(),
            itlb: self.itlb.stats(),
            dtlb: self.dtlb.stats(),
        }
    }

    /// Invalidates all caches and TLBs and clears statistics.
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.l1d.reset();
        if let Some(l2) = &mut self.l2 {
            l2.reset();
        }
        self.itlb.reset();
        self.dtlb.reset();
    }
}

impl nwo_ckpt::Checkpointable for Hierarchy {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        self.l1i.save(w);
        self.l1d.save(w);
        w.put_bool(self.l2.is_some());
        if let Some(l2) = &self.l2 {
            l2.save(w);
        }
        self.itlb.save(w);
        self.dtlb.save(w);
    }

    /// Decodes and validates the whole payload before it changes any
    /// level, so a failed restore leaves the hierarchy as it was. The
    /// payload must be a section of its own: leftover bytes are rejected
    /// here, before anything is applied, not after by the caller's
    /// `finish`.
    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        let l1i = self.l1i.decode(r)?;
        let l1d = self.l1d.decode(r)?;
        let has_l2 = r.take_bool("hierarchy has L2")?;
        if has_l2 != self.l2.is_some() {
            return Err(nwo_ckpt::CkptError::Mismatch {
                what: "hierarchy L2 presence",
                found: has_l2 as u64,
                expected: self.l2.is_some() as u64,
            });
        }
        let l2 = self.l2.as_ref().map(|l2| l2.decode(r)).transpose()?;
        let mut itlb = Tlb::new(self.config.itlb);
        itlb.restore(r)?;
        let mut dtlb = Tlb::new(self.config.dtlb);
        dtlb.restore(r)?;
        r.finish("hierarchy")?;
        self.l1i.apply(l1i);
        self.l1d.apply(l1d);
        if let (Some(cache), Some(image)) = (&mut self.l2, l2) {
            cache.apply(image);
        }
        self.itlb = itlb;
        self.dtlb = dtlb;
        Ok(())
    }
}

impl nwo_ckpt::Checkpointable for HierarchyStats {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        for c in [&self.l1i, &self.l1d, &self.l2] {
            w.put_u64(c.hits);
            w.put_u64(c.misses);
            w.put_u64(c.writebacks);
        }
        for t in [&self.itlb, &self.dtlb] {
            w.put_u64(t.hits);
            w.put_u64(t.misses);
        }
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        for c in [&mut self.l1i, &mut self.l1d, &mut self.l2] {
            c.hits = r.take_u64("cache stats hits")?;
            c.misses = r.take_u64("cache stats misses")?;
            c.writebacks = r.take_u64("cache stats writebacks")?;
        }
        for t in [&mut self.itlb, &mut self.dtlb] {
            t.hits = r.take_u64("tlb stats hits")?;
            t.misses = r.take_u64("tlb stats misses")?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // explicit Table 1 tweaks read better
mod tests {
    use super::*;

    #[test]
    fn cold_data_access_pays_full_chain() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        assert_eq!(h.data_access(0, false), 1 + 12 + 100 + 30);
    }

    #[test]
    fn l1_hit_is_one_cycle() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.data_access(0, false);
        assert_eq!(h.data_access(4, false), 1);
    }

    #[test]
    fn l2_hit_after_l1_conflict() {
        // Tiny L1 so we can force an L1 eviction while L2 retains the block.
        let mut cfg = HierarchyConfig::default();
        cfg.l1d = CacheConfig {
            size_bytes: 64,
            assoc: 1,
            block_bytes: 32,
            hit_latency: 1,
        };
        let mut h = Hierarchy::new(cfg);
        h.data_access(0, false); // cold
        h.data_access(64, false); // evicts block 0 from L1; both in L2
                                  // Same TLB page, L1 miss, L2 hit: 1 + 12.
        assert_eq!(h.data_access(0, false), 13);
    }

    #[test]
    fn no_l2_goes_to_memory() {
        let mut cfg = HierarchyConfig::default();
        cfg.l2 = None;
        let mut h = Hierarchy::new(cfg);
        assert_eq!(h.data_access(0, false), 1 + 100 + 30);
    }

    #[test]
    fn inst_and_data_paths_are_independent() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.inst_access(0);
        // Data access to the same address still cold in L1D but hits L2.
        assert_eq!(h.data_access(0, false), 1 + 12 + 30);
    }

    #[test]
    fn warm_paths_touch_state_silently() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.warm_data(0, false);
        h.warm_inst(0x100);
        assert_eq!(h.data_access(0, false), 1);
        assert_eq!(h.inst_access(0x100), 1);
    }

    #[test]
    fn stats_flow_through() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.data_access(0, true);
        h.data_access(0, false);
        let s = h.stats();
        assert_eq!(s.l1d.hits, 1);
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.dtlb.misses, 1);
    }

    #[test]
    fn reset_recools_everything() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.data_access(0, false);
        h.reset();
        assert_eq!(h.data_access(0, false), 143);
    }
}
