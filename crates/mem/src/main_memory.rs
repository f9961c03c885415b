//! Sparse, byte-addressable main memory.
//!
//! Backed by a page map so simulated programs can scatter text, data and
//! stack segments across a 64-bit address space without allocating it all.
//! All multi-byte accesses are little-endian and may straddle page
//! boundaries.

use crate::FixedHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Size of a backing page in bytes. This is an allocation granule, not an
/// architectural page size (the TLB model has its own page size).
const PAGE_SIZE: u64 = 4096;

/// Sparse 64-bit byte-addressable memory.
///
/// Reads from never-written locations return zero, which matches the
/// zero-initialised BSS behaviour real loaders provide.
///
/// # Example
///
/// ```
/// use nwo_mem::MainMemory;
///
/// let mut mem = MainMemory::new();
/// mem.write_u32(0xfff_fffe, 0x1234_5678); // straddles a page boundary
/// assert_eq!(mem.read_u32(0xfff_fffe), 0x1234_5678);
/// assert_eq!(mem.read_u8(0xfff_ffff), 0x56);
/// ```
#[derive(Clone, Default)]
pub struct MainMemory {
    /// Every simulated load and store looks its page up here, so the
    /// page numbers hash with [`FixedHasher`], not SipHash.
    pages: HashMap<u64, Box<[u8]>, BuildHasherDefault<FixedHasher>>,
}

impl std::fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MainMemory")
            .field("pages", &self.pages.len())
            .field("bytes", &(self.pages.len() as u64 * PAGE_SIZE))
            .finish()
    }
}

impl MainMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of backing pages currently allocated.
    pub fn allocated_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(page) => page[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the backing page on demand.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr % PAGE_SIZE) as usize] = value;
    }

    /// The backing page holding `addr`, allocated on demand.
    fn page_mut(&mut self, addr: u64) -> &mut [u8] {
        self.pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    /// Reads `N` bytes from `addr` on: one page lookup when they share a
    /// page, a byte at a time (wrapping at the top of the address
    /// space) when they straddle two.
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset + N > PAGE_SIZE as usize {
            return std::array::from_fn(|i| self.read_u8(addr.wrapping_add(i as u64)));
        }
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(page) => page[offset..offset + N]
                .try_into()
                .expect("the slice is N bytes long"),
            None => [0; N],
        }
    }

    /// Writes `bytes` from `addr` on, with [`MainMemory::read_array`]'s
    /// page rule.
    fn write_array<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let offset = (addr % PAGE_SIZE) as usize;
        if offset + N > PAGE_SIZE as usize {
            self.write_bytes(addr, &bytes);
        } else {
            self.page_mut(addr)[offset..offset + N].copy_from_slice(&bytes);
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Copies `bytes` into memory starting at `addr`, one page lookup
    /// per page touched (wrapping at the top of the address space).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let offset = (addr % PAGE_SIZE) as usize;
            let n = rest.len().min(PAGE_SIZE as usize - offset);
            self.page_mut(addr)[offset..offset + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }
}

impl nwo_ckpt::Checkpointable for MainMemory {
    /// Pages are written sorted by page number: `HashMap` iteration
    /// order is nondeterministic, and the checkpoint byte stream must
    /// be identical for identical memory images.
    fn save(&self, w: &mut nwo_ckpt::SectionWriter) {
        let mut numbers: Vec<u64> = self.pages.keys().copied().collect();
        numbers.sort_unstable();
        w.put_u64(PAGE_SIZE);
        w.put_u64(numbers.len() as u64);
        for n in numbers {
            w.put_u64(n);
            w.put_bytes(&self.pages[&n]);
        }
    }

    fn restore(&mut self, r: &mut nwo_ckpt::SectionReader) -> Result<(), nwo_ckpt::CkptError> {
        let page_size = r.take_u64("memory page size")?;
        if page_size != PAGE_SIZE {
            return Err(nwo_ckpt::CkptError::Mismatch {
                what: "memory page size",
                found: page_size,
                expected: PAGE_SIZE,
            });
        }
        let count = r.take_len(1 << 32, "memory page count")?;
        let mut pages = HashMap::with_capacity_and_hasher(count, Default::default());
        for _ in 0..count {
            let number = r.take_u64("memory page number")?;
            let bytes = r.take_bytes(PAGE_SIZE, "memory page bytes")?;
            if bytes.len() as u64 != PAGE_SIZE {
                return Err(nwo_ckpt::CkptError::Malformed(format!(
                    "memory page {number:#x} has {} bytes",
                    bytes.len()
                )));
            }
            pages.insert(number, bytes.into_boxed_slice());
        }
        self.pages = pages;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u64(u64::MAX - 8), 0);
        assert_eq!(mem.allocated_pages(), 0);
    }

    #[test]
    fn byte_round_trip() {
        let mut mem = MainMemory::new();
        mem.write_u8(12345, 0xab);
        assert_eq!(mem.read_u8(12345), 0xab);
        assert_eq!(mem.read_u8(12346), 0);
        assert_eq!(mem.allocated_pages(), 1);
    }

    #[test]
    fn u64_round_trip_is_little_endian() {
        let mut mem = MainMemory::new();
        mem.write_u64(0x100, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(0x100), 0x08);
        assert_eq!(mem.read_u8(0x107), 0x01);
        assert_eq!(mem.read_u64(0x100), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = MainMemory::new();
        let addr = PAGE_SIZE - 3;
        mem.write_u64(addr, u64::MAX);
        assert_eq!(mem.read_u64(addr), u64::MAX);
        assert_eq!(mem.allocated_pages(), 2);
    }

    #[test]
    fn write_and_read_bytes() {
        let mut mem = MainMemory::new();
        mem.write_bytes(64, b"hello world");
        assert_eq!(mem.read_bytes(64, 11), b"hello world");
        assert_eq!(mem.read_u8(64 + 11), 0);
        // Across four pages, wrapping at the top of the address space.
        let long: Vec<u8> = (0..2 * PAGE_SIZE as usize + 10).map(|i| i as u8).collect();
        let start = 0u64.wrapping_sub(PAGE_SIZE + 5);
        mem.write_bytes(start, &long);
        assert_eq!(mem.read_bytes(start, long.len()), long);
        assert_eq!(mem.allocated_pages(), 4);
    }

    #[test]
    fn u16_and_u32_round_trip() {
        let mut mem = MainMemory::new();
        mem.write_u16(2, 0xbeef);
        mem.write_u32(8, 0xdead_beef);
        assert_eq!(mem.read_u16(2), 0xbeef);
        assert_eq!(mem.read_u32(8), 0xdead_beef);
    }

    #[test]
    fn overwrite_takes_effect() {
        let mut mem = MainMemory::new();
        mem.write_u64(0, 1);
        mem.write_u64(0, 2);
        assert_eq!(mem.read_u64(0), 2);
    }
}
