//! A fixed multiplicative hash for maps keyed by simulated addresses.

use std::hash::Hasher;

/// A fixed multiplicative hasher for `u64` keys that come from a
/// simulated program: page numbers, PCs, byte addresses. Those keys are
/// not chosen by an adversary, so SipHash's collision resistance buys
/// nothing on the per-access paths that hash them. Use it as
/// `HashMap<u64, V, BuildHasherDefault<FixedHasher>>`.
///
/// # Example
///
/// ```
/// use nwo_mem::FixedHasher;
/// use std::collections::HashMap;
/// use std::hash::BuildHasherDefault;
///
/// let mut map: HashMap<u64, u8, BuildHasherDefault<FixedHasher>> = HashMap::default();
/// map.insert(0x1_0000, 7);
/// assert_eq!(map[&0x1_0000], 7);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// The product's low bits depend only on the key's low bits, which
    /// are zero for aligned keys: rotate the well-mixed high bits down,
    /// where the table takes its bucket index.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasherDefault;

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        let bucket = |k: u64| {
            let mut h = FixedHasher::default();
            h.write_u64(k);
            h.finish() & 63
        };
        // Consecutive page numbers and byte addresses, word-aligned PCs
        // and quadword addresses must not pile into a few buckets of a
        // small table.
        for step in [1u64, 4, 8] {
            let used: std::collections::BTreeSet<u64> = (0..64).map(|i| bucket(i * step)).collect();
            assert!(used.len() >= 32, "step {step}: {} buckets", used.len());
        }
    }

    #[test]
    fn maps_round_trip() {
        let mut map: std::collections::HashMap<u64, u64, BuildHasherDefault<FixedHasher>> =
            Default::default();
        for k in 0..1000u64 {
            map.insert(k * 8, k);
        }
        assert!((0..1000u64).all(|k| map[&(k * 8)] == k));
    }
}
