//! Fully-associative TLB timing model (Table 1: 128 entries, 30-cycle
//! miss penalty).
//!
//! The simulator runs a flat address space, so the TLB never translates —
//! it only charges miss latency, exactly like SimpleScalar's `cache_char`
//! TLB models.

/// TLB geometry and penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Architectural page size in bytes (power of two).
    pub page_bytes: u64,
    /// Extra cycles charged on a miss.
    pub miss_latency: u64,
}

impl Default for TlbConfig {
    /// The Table 1 configuration: 128 entries, fully associative,
    /// 30-cycle miss latency, 8 KB pages (the Alpha page size).
    fn default() -> Self {
        TlbConfig {
            entries: 128,
            page_bytes: 8192,
            miss_latency: 30,
        }
    }
}

/// Per-TLB counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`; zero when idle.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl nwo_obs::MetricSource for TlbStats {
    fn collect(&self, registry: &mut nwo_obs::Registry) {
        registry.counter("hits", self.hits);
        registry.counter("misses", self.misses);
        registry.gauge("miss_rate", self.miss_rate());
    }
}

/// Fully-associative TLB with true-LRU replacement.
///
/// # Example
///
/// ```
/// use nwo_mem::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert_eq!(tlb.access(0x1234), 30); // cold miss costs 30 cycles
/// assert_eq!(tlb.access(0x1238), 0); // same page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// (virtual page number, last-use tick) pairs.
    entries: Vec<(u64, u64)>,
    stats: TlbStats,
    tick: u64,
}

impl Tlb {
    /// Builds a TLB for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "TLB must have at least one entry");
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            config,
            entries: Vec::with_capacity(config.entries),
            stats: TlbStats::default(),
            tick: 0,
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Looks up the page containing `addr`, filling on a miss.
    /// Returns the extra latency (0 on a hit, `miss_latency` on a miss).
    pub fn access(&mut self, addr: u64) -> u64 {
        self.tick += 1;
        let vpn = addr / self.config.page_bytes;
        if let Some(entry) = self.entries.iter_mut().find(|(page, _)| *page == vpn) {
            entry.1 = self.tick;
            self.stats.hits += 1;
            return 0;
        }
        self.stats.misses += 1;
        if self.entries.len() < self.config.entries {
            self.entries.push((vpn, self.tick));
        } else {
            let lru = self
                .entries
                .iter_mut()
                .min_by_key(|(_, t)| *t)
                .expect("non-empty");
            *lru = (vpn, self.tick);
        }
        self.config.miss_latency
    }

    /// Drops all translations and statistics.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.stats = TlbStats::default();
        self.tick = 0;
    }
}

impl nwo_ckpt::Checkpointable for Tlb {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        w.put_u64(self.tick);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.entries.len() as u64);
        for &(vpn, tick) in &self.entries {
            w.put_u64(vpn);
            w.put_u64(tick);
        }
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        // Decode everything before changing anything: a failed restore
        // leaves the TLB as it was.
        let tick = r.take_u64("tlb tick")?;
        let stats = TlbStats {
            hits: r.take_u64("tlb hits")?,
            misses: r.take_u64("tlb misses")?,
        };
        let len = r.take_len(self.config.entries as u64, "tlb entry count")?;
        let mut entries = Vec::with_capacity(self.config.entries);
        for _ in 0..len {
            let vpn = r.take_u64("tlb vpn")?;
            let tick = r.take_u64("tlb entry tick")?;
            entries.push((vpn, tick));
        }
        self.tick = tick;
        self.stats = stats;
        self.entries = entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_latency: 30,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny();
        assert_eq!(t.access(0), 30);
        assert_eq!(t.access(4095), 0);
        assert_eq!(t.access(4096), 30);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_replacement() {
        let mut t = tiny();
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // page 0 touched again
        t.access(8192); // page 2 evicts page 1
        assert_eq!(t.access(0), 0);
        assert_eq!(t.access(4096), 30, "page 1 was evicted");
    }

    #[test]
    fn default_is_table1() {
        let t = Tlb::new(TlbConfig::default());
        assert_eq!(t.config().entries, 128);
        assert_eq!(t.config().miss_latency, 30);
    }

    #[test]
    fn reset_forgets_pages() {
        let mut t = tiny();
        t.access(0);
        t.reset();
        assert_eq!(t.access(0), 30);
    }

    #[test]
    fn miss_rate_computed() {
        let mut t = tiny();
        t.access(0);
        t.access(0);
        assert!((t.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
