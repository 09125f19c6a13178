//! Generational arena storage.
//!
//! Reserves and taps are created and destroyed constantly (the browser adds
//! a tap per page and lets container GC revoke them, §5.2), so their ids
//! must be stable against slot reuse: a dangling [`RawId`] whose slot was
//! recycled must *miss*, not alias a new object. A generation counter per
//! slot provides that, in the style of slotmap arenas, with no unsafe code.

/// An index into an [`Arena`]: slot index plus generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RawId {
    index: u32,
    generation: u32,
}

impl RawId {
    /// The slot index (for display/debugging only).
    pub fn index(self) -> u32 {
        self.index
    }

    /// The generation (for display/debugging only).
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// The id packed into one integer, so a set of ids can be folded with
    /// XOR (see [`RawId::from_bits`]).
    pub(crate) fn to_bits(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.generation)
    }

    /// Inverse of [`RawId::to_bits`].
    pub(crate) fn from_bits(bits: u64) -> RawId {
        RawId {
            index: (bits >> 32) as u32,
            generation: bits as u32,
        }
    }
}

enum Slot<T> {
    Occupied { generation: u32, value: T },
    Vacant { next_generation: u32 },
}

/// A generational arena: O(1) insert/remove/lookup with ABA-safe ids.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Inserts a value, returning its id.
    pub fn insert(&mut self, value: T) -> RawId {
        match self.free.pop() {
            Some(index) => {
                let generation = match self.slots[index as usize] {
                    Slot::Vacant { next_generation } => next_generation,
                    Slot::Occupied { .. } => unreachable!("free list pointed at occupied slot"),
                };
                self.slots[index as usize] = Slot::Occupied { generation, value };
                self.len += 1;
                RawId { index, generation }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("arena exhausted u32 indices");
                self.slots.push(Slot::Occupied {
                    generation: 0,
                    value,
                });
                self.len += 1;
                RawId {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Looks up a value; returns `None` if the id is stale or never existed.
    pub fn get(&self, id: RawId) -> Option<&T> {
        match self.slots.get(id.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: RawId) -> Option<&mut T> {
        match self.slots.get_mut(id.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Removes and returns the value at `id`, bumping the slot generation so
    /// stale ids can never alias a future occupant.
    pub fn remove(&mut self, id: RawId) -> Option<T> {
        match self.slots.get_mut(id.index as usize) {
            Some(slot @ Slot::Occupied { .. }) => {
                let generation = match slot {
                    Slot::Occupied { generation, .. } => *generation,
                    Slot::Vacant { .. } => unreachable!(),
                };
                if generation != id.generation {
                    return None;
                }
                let old = std::mem::replace(
                    slot,
                    Slot::Vacant {
                        next_generation: generation + 1,
                    },
                );
                self.free.push(id.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Vacant { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// True if `id` currently refers to a live value.
    pub fn contains(&self, id: RawId) -> bool {
        self.get(id).is_some()
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(id, value)` pairs in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (RawId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    RawId {
                        index: i as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Vacant { .. } => None,
            })
    }

    /// Iterates over ids in slot order.
    pub fn ids(&self) -> Vec<RawId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// Mutable iteration in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (RawId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    RawId {
                        index: i as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Vacant { .. } => None,
            })
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(id, v)| ((id.index, id.generation), v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut a = Arena::new();
        let id = a.insert("x");
        assert_eq!(a.get(id), Some(&"x"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.remove(id), Some("x"));
        assert_eq!(a.get(id), None);
        assert!(a.is_empty());
    }

    #[test]
    fn stale_id_misses_after_reuse() {
        let mut a = Arena::new();
        let id1 = a.insert(1);
        a.remove(id1);
        let id2 = a.insert(2);
        // Slot reused, generation bumped.
        assert_eq!(id1.index(), id2.index());
        assert_ne!(id1.generation(), id2.generation());
        assert_eq!(a.get(id1), None);
        assert_eq!(a.remove(id1), None);
        assert_eq!(a.get(id2), Some(&2));
    }

    #[test]
    fn iter_is_slot_ordered() {
        let mut a = Arena::new();
        let i0 = a.insert(10);
        let _i1 = a.insert(20);
        let _i2 = a.insert(30);
        a.remove(i0);
        let vals: Vec<i32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![20, 30]);
    }

    #[test]
    fn get_mut_mutates() {
        let mut a = Arena::new();
        let id = a.insert(5);
        *a.get_mut(id).unwrap() += 1;
        assert_eq!(a.get(id), Some(&6));
    }

    #[test]
    fn double_remove_is_none() {
        let mut a = Arena::new();
        let id = a.insert(());
        assert!(a.remove(id).is_some());
        assert!(a.remove(id).is_none());
    }

    proptest! {
        /// Random interleavings of inserts and removes never confuse ids:
        /// every live id maps to exactly the value inserted under it.
        #[test]
        fn ids_never_alias(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let mut arena = Arena::new();
            let mut live: Vec<(RawId, u64)> = Vec::new();
            let mut dead: Vec<RawId> = Vec::new();
            let mut counter = 0u64;
            for op in ops {
                match op {
                    0 => {
                        counter += 1;
                        let id = arena.insert(counter);
                        live.push((id, counter));
                    }
                    1 if !live.is_empty() => {
                        let (id, v) = live.remove(live.len() / 2);
                        prop_assert_eq!(arena.remove(id), Some(v));
                        dead.push(id);
                    }
                    _ => {}
                }
                for (id, v) in &live {
                    prop_assert_eq!(arena.get(*id), Some(v));
                }
                for id in &dead {
                    prop_assert_eq!(arena.get(*id), None);
                }
                prop_assert_eq!(arena.len(), live.len());
            }
        }
    }
}
