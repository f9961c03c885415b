//! Sets of RUU slots, the bitmaps behind the issue stage's ready set
//! and the writeback stage's consumer wakeup.
//!
//! An in-flight op lives in slot `seq & (ring - 1)`, where `ring` is the
//! smallest power of two at or above the RUU size. The window holds at
//! most `ring` consecutive sequence numbers, so live ops never share a
//! slot, and an op's *age* — its index in the window — is its slot's
//! distance past the head's slot around the ring.

/// A set of RUU slots, sized once for a ring of slots.
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

    /// The lowest age in `from..len` whose slot is a member, where the
    /// slot at age `a` is `(head + a) % ring`. Walking ages upwards from
    /// 0 visits the members oldest first.
    pub(crate) fn first_from(&self, head: usize, from: usize, len: usize) -> Option<usize> {
        let mut age = from;
        while age < len {
            let slot = (head + age) & (self.ring - 1);
            let bits = self.words[slot / 64] >> (slot % 64);
            if bits != 0 {
                // Bits past the ring's end are never set, and a member
                // found past `len` lies at an age already passed or not
                // live.
                let found = age + bits.trailing_zeros() as usize;
                return (found < len).then_some(found);
            }
            // On to the next word, or back to slot 0 at the ring's end.
            age += (64 - slot % 64).min(self.ring - slot);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every member in age order, by repeated `first_from`.
    fn ages(set: &SlotSet, head: usize, len: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(age) = set.first_from(head, from, len) {
            out.push(age);
            from = age + 1;
        }
        out
    }

    #[test]
    fn first_from_walks_members_in_age_order_around_the_ring() {
        for ring in [1, 4, 16, 64, 128, 256] {
            for head in [0, 1, ring / 2, ring - 1] {
                for len in [0, 1, ring / 2, ring] {
                    let mut set = SlotSet::new(ring);
                    // Members at every third age, plus one slot past
                    // `len` that must stay invisible.
                    let want: Vec<usize> = (0..len).step_by(3).collect();
                    for &age in &want {
                        set.insert((head + age) % ring);
                    }
                    if len < ring {
                        set.insert((head + len) % ring);
                    }
                    assert_eq!(
                        ages(&set, head, len),
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
        assert_eq!(set.first_from(0, 0, 128), None);
        set.insert(5);
        set.clear();
        assert_eq!(set.first_from(0, 0, 128), None);
    }
}
