#![warn(missing_docs)]

//! Memory subsystem for the `nwo` simulator: sparse main memory, a generic
//! set-associative cache model, TLBs, and the three-level hierarchy used by
//! the HPCA '99 baseline machine (Table 1).
//!
//! The cache models are *timing* models: they track tags, LRU state and
//! dirty bits, and report access latencies, while the actual data always
//! lives in [`MainMemory`]. This mirrors SimpleScalar's split between
//! functional and timing state.
//!
//! # Example
//!
//! ```
//! use nwo_mem::{MainMemory, Hierarchy, HierarchyConfig};
//!
//! let mut mem = MainMemory::new();
//! mem.write_u64(0x1000, 0xdead_beef);
//! assert_eq!(mem.read_u64(0x1000), 0xdead_beef);
//!
//! let mut hier = Hierarchy::new(HierarchyConfig::default());
//! let cold = hier.data_access(0x1000, false);
//! let warm = hier.data_access(0x1000, false);
//! assert!(cold > warm);
//! ```

mod cache;
mod fixed_hash;
mod hierarchy;
mod main_memory;
mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use fixed_hash::FixedHasher;
pub use hierarchy::{Hierarchy, HierarchyConfig, HierarchyStats};
pub use main_memory::MainMemory;
pub use tlb::{Tlb, TlbConfig, TlbStats};
