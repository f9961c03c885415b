//! Sets of ring slots, the bitmaps behind the issue stage's ready set
//! and the writeback stage's consumer wakeup.
//!
//! An op in flight lives in slot `seq & (ring - 1)` of the simulator's
//! instruction ring from fetch to commit, where `ring` is the smallest
//! power of two at or above the RUU size plus the fetch-queue size. The
//! window and the fetch queue together hold at most that many
//! consecutive sequence numbers, so live ops never share a slot, and
//! walking a range of live seqs upwards visits their slots oldest first.

/// A set of ring slots, sized once for a ring of slots.
#[derive(Debug, Clone)]
pub(crate) struct SlotSet {
    words: Box<[u64]>,
    ring: usize,
}

impl SlotSet {
    /// An empty set over a ring of `ring` slots (a power of two).
    pub(crate) fn new(ring: usize) -> SlotSet {
        debug_assert!(ring.is_power_of_two());
        SlotSet {
            words: vec![0; ring.div_ceil(64)].into_boxed_slice(),
            ring,
        }
    }

    pub(crate) fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    pub(crate) fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Removes every member of `other`.
    pub(crate) fn subtract(&mut self, other: &SlotSet) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= !o;
        }
    }

    /// Calls `f` on every member, then empties the set.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize)) {
        for (i, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                f(i * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// The lowest seq in `from..end` whose slot, `seq % ring`, is a
    /// member. The range spans at most `ring` seqs, so it names each
    /// slot at most once.
    pub(crate) fn first_from(&self, from: u64, end: u64) -> Option<u64> {
        let mut seq = from;
        while seq < end {
            let slot = seq as usize & (self.ring - 1);
            let bits = self.words[slot / 64] >> (slot % 64);
            if bits != 0 {
                // Bits past the ring's end are never set, and a member
                // found at or past `end` lies outside the range.
                let found = seq + u64::from(bits.trailing_zeros());
                return (found < end).then_some(found);
            }
            // On to the next word, or back to slot 0 at the ring's end.
            seq += (64 - slot % 64).min(self.ring - slot) as u64;
        }
        None
    }

    #[cfg(debug_assertions)]
    pub(crate) fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// The number of members.
    #[cfg(debug_assertions)]
    pub(crate) fn len(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every member seq in `head..end` in order, by repeated `first_from`.
    fn seqs(set: &SlotSet, head: u64, end: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut from = head;
        while let Some(seq) = set.first_from(from, end) {
            out.push(seq);
            from = seq + 1;
        }
        out
    }

    #[test]
    fn first_from_walks_members_in_seq_order_around_the_ring() {
        for ring in [1usize, 2, 4, 16, 64, 128, 256] {
            let r = ring as u64;
            for head in [0, 1, r / 2, r - 1, 5 * r + 3] {
                for len in [0, 1, r / 2, r] {
                    let mut set = SlotSet::new(ring);
                    // Members at every third seq, plus one slot past the
                    // range's end that must stay invisible.
                    let want: Vec<u64> = (head..head + len).step_by(3).collect();
                    for &seq in &want {
                        set.insert((seq % r) as usize);
                    }
                    if len < r {
                        set.insert(((head + len) % r) as usize);
                    }
                    assert_eq!(
                        seqs(&set, head, head + len),
                        want,
                        "ring {ring} head {head} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn drain_subtract_and_remove_empty_the_set() {
        let mut set = SlotSet::new(128);
        for slot in [0, 63, 64, 127] {
            set.insert(slot);
        }
        let mut gone = SlotSet::new(128);
        gone.insert(63);
        set.subtract(&gone);
        set.remove(0);
        let mut seen = Vec::new();
        set.drain(|slot| seen.push(slot));
        assert_eq!(seen, [64, 127]);
        assert_eq!(set.first_from(0, 128), None);
        set.insert(5);
        set.clear();
        assert_eq!(set.first_from(0, 128), None);
    }
}
