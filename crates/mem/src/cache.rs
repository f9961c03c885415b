//! Generic set-associative cache timing model with true-LRU replacement.
//!
//! Only tags, valid and dirty bits are tracked; data lives in
//! [`crate::MainMemory`]. An access reports whether it hit and whether a
//! dirty block was evicted, letting the [`crate::Hierarchy`] compose
//! multi-level latencies.

/// Configuration for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u64,
    /// Associativity (ways per set). Must divide `size_bytes / block_bytes`.
    pub assoc: u32,
    /// Block (line) size in bytes. Must be a power of two.
    pub block_bytes: u64,
    /// Latency of a hit in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// 64 KB, 2-way, 32-byte blocks, 1-cycle hits — the Table 1 L1 shape.
    pub fn l1_table1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            block_bytes: 32,
            hit_latency: 1,
        }
    }

    /// 8 MB, 4-way, 32-byte blocks, 12-cycle hits — the Table 1 L2 shape.
    pub fn l2_table1() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            assoc: 4,
            block_bytes: 32,
            hit_latency: 12,
        }
    }

    fn num_sets(&self) -> u64 {
        self.size_bytes / self.block_bytes / self.assoc as u64
    }
}

/// Per-cache hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty blocks evicted (write-backs to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses have occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl nwo_obs::MetricSource for CacheStats {
    fn collect(&self, registry: &mut nwo_obs::Registry) {
        registry.counter("hits", self.hits);
        registry.counter("misses", self.misses);
        registry.counter("writebacks", self.writebacks);
        registry.gauge("miss_rate", self.miss_rate());
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Larger is more recently used.
    lru: u64,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access hit in this level.
    pub hit: bool,
    /// A dirty victim was evicted (the block must be written back).
    pub writeback: bool,
}

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// # Example
///
/// ```
/// use nwo_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1_table1());
/// assert!(!l1.access(0x40, false).hit); // cold miss
/// assert!(l1.access(0x40, false).hit); // now resident
/// assert!(l1.access(0x44, false).hit); // same 32-byte block
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Builds a cache for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two size or
    /// block size, or associativity that does not divide the block count).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            config.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(config.assoc >= 1, "associativity must be at least 1");
        assert_eq!(
            (config.size_bytes / config.block_bytes) % config.assoc as u64,
            0,
            "associativity must divide the number of blocks"
        );
        let sets = vec![vec![Line::default(); config.assoc as usize]; config.num_sets() as usize];
        Cache {
            config,
            sets,
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.config.block_bytes;
        let set = (block % self.config.num_sets()) as usize;
        let tag = block / self.config.num_sets();
        (set, tag)
    }

    /// Performs an access, allocating the block on a miss (write-allocate).
    ///
    /// Returns whether the access hit and whether a dirty block was evicted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        self.stats.misses += 1;
        // Victim: an invalid way if any, else the least recently used.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("associativity >= 1");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            valid: true,
            dirty: is_write,
            tag,
            lru: tick,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// True if the block containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for line in set {
                *line = Line::default();
            }
        }
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

/// A cache checkpoint decoded and validated against the receiver's
/// geometry, not yet applied to it.
pub(crate) struct CacheImage {
    tick: u64,
    stats: CacheStats,
    /// Every valid line with its flat index (`set × assoc + way`), in
    /// ascending index order.
    lines: Vec<(usize, Line)>,
}

impl Cache {
    /// Decodes a payload written by `save` without touching `self`.
    pub(crate) fn decode(
        &self,
        r: &mut nwo_ckpt::SectionReader,
    ) -> Result<CacheImage, nwo_ckpt::CkptError> {
        use nwo_ckpt::CkptError;
        let sets = r.take_u64("cache set count")?;
        if sets != self.sets.len() as u64 {
            return Err(CkptError::Mismatch {
                what: "cache set count",
                found: sets,
                expected: self.sets.len() as u64,
            });
        }
        let assoc = r.take_u64("cache associativity")?;
        if assoc != self.config.assoc as u64 {
            return Err(CkptError::Mismatch {
                what: "cache associativity",
                found: assoc,
                expected: self.config.assoc as u64,
            });
        }
        let tick = r.take_u64("cache tick")?;
        let stats = CacheStats {
            hits: r.take_u64("cache hits")?,
            misses: r.take_u64("cache misses")?,
            writebacks: r.take_u64("cache writebacks")?,
        };
        let total = sets * assoc;
        let count = r.take_len(total, "cache valid-line count")?;
        let mut lines = Vec::with_capacity(count);
        let mut next = 0;
        for _ in 0..count {
            let index = r.take_u64("cache line index")?;
            if index < next || index >= total {
                return Err(CkptError::Malformed(format!(
                    "cache line index {index}: expected ascending indices in {next}..{total}"
                )));
            }
            next = index + 1;
            let line = Line {
                valid: true,
                dirty: r.take_bool("cache line dirty")?,
                tag: r.take_u64("cache line tag")?,
                lru: r.take_u64("cache line lru")?,
            };
            lines.push((index as usize, line));
        }
        Ok(CacheImage { tick, stats, lines })
    }

    /// Replaces this cache's state with `image`: the lines it lists
    /// become valid, every other line invalid.
    pub(crate) fn apply(&mut self, image: CacheImage) {
        self.reset();
        let assoc = self.config.assoc as usize;
        for (index, line) in image.lines {
            self.sets[index / assoc][index % assoc] = line;
        }
        self.tick = image.tick;
        self.stats = image.stats;
    }
}

/// The payload holds the geometry, the tick and the counters, then only
/// the valid lines: a count, and per line its flat index, dirty bit, tag
/// and LRU stamp.
impl nwo_ckpt::Checkpointable for Cache {
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        w.put_u64(self.sets.len() as u64);
        w.put_u64(self.config.assoc as u64);
        w.put_u64(self.tick);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.writebacks);
        let lines = || {
            self.sets
                .iter()
                .flatten()
                .enumerate()
                .filter(|(_, l)| l.valid)
        };
        w.put_u64(lines().count() as u64);
        for (index, line) in lines() {
            w.put_u64(index as u64);
            w.put_bool(line.dirty);
            w.put_u64(line.tag);
            w.put_u64(line.lru);
        }
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        let image = self.decode(r)?;
        self.apply(image);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16-byte blocks = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            block_bytes: 16,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(15, false).hit, "same block");
        assert!(!c.access(16, false).hit, "next block");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds blocks whose block-number % 4 == 0: addresses 0, 64, 128...
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // touch block 0 again; 64 is now LRU
        c.access(128, false); // evicts 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(64, false);
        let out = c.access(128, false); // evicts dirty block 0
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(64, false);
        let out = c.access(128, false);
        assert!(!out.writeback);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit, now dirty
        c.access(64, false);
        let out = c.access(128, false);
        assert!(out.writeback);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(16, false);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.accesses(), 3);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0, true);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn table1_shapes_construct() {
        let l1 = Cache::new(CacheConfig::l1_table1());
        assert_eq!(l1.config().num_sets(), 1024);
        let l2 = Cache::new(CacheConfig::l2_table1());
        assert_eq!(l2.config().num_sets(), 65536);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        Cache::new(CacheConfig {
            size_bytes: 100,
            assoc: 2,
            block_bytes: 16,
            hit_latency: 1,
        });
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            assoc: 1,
            block_bytes: 16,
            hit_latency: 1,
        });
        c.access(0, false);
        c.access(64, false); // same set, evicts block 0
        assert!(!c.probe(0));
        assert!(c.probe(64));
    }
}
