//! Sliding-window arena maps for monotonic integer keys.
//!
//! The scheduler's per-vertex bookkeeping (vertex→task, vertex→stream,
//! vertex→device, pending launch metadata, per-value ordering state) is
//! keyed by ids that are allocated monotonically and retired roughly in
//! allocation order: at any instant the live keys form a narrow window
//! near the top of the id space. [`DenseMap`] exploits that shape — a
//! `VecDeque` of slots addressed by `key - base` — so every operation is
//! O(1) with **zero hashing** on the launch hot path, and removal trims
//! the window from both ends to keep storage proportional to the live
//! span, not the lifetime key count.
//!
//! Keys far apart *do* cost O(span) slots; that is the deliberate trade:
//! the scheduler compacts retired state aggressively (see
//! `ComputationDag::compact` and the soak harness's boundedness asserts),
//! so the window never grows past the in-flight frontier.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// A key usable with [`DenseMap`]: a `Copy` newtype (or plain integer)
/// convertible to and from a `u64` index.
pub trait DenseKey: Copy {
    /// The integer index of this key.
    fn index(self) -> u64;
    /// Reconstruct a key from its index (used by iteration/retain).
    fn from_index(i: u64) -> Self;
}

impl DenseKey for u32 {
    fn index(self) -> u64 {
        self as u64
    }
    fn from_index(i: u64) -> Self {
        i as u32
    }
}

impl DenseKey for u64 {
    fn index(self) -> u64 {
        self
    }
    fn from_index(i: u64) -> Self {
        i
    }
}

impl DenseKey for crate::vertex::VertexId {
    fn index(self) -> u64 {
        self.0 as u64
    }
    fn from_index(i: u64) -> Self {
        crate::vertex::VertexId(i as u32)
    }
}

impl DenseKey for crate::vertex::Value {
    fn index(self) -> u64 {
        self.0
    }
    fn from_index(i: u64) -> Self {
        crate::vertex::Value(i)
    }
}

/// An O(1), hash-free map over a sliding window of monotonic keys (the
/// storage model: the header of `dense.rs`).
#[derive(Clone)]
pub struct DenseMap<K: DenseKey, T> {
    /// Index of `slots[0]`. Meaningless while `slots` is empty.
    base: u64,
    /// The window: `slots[i]` holds the entry for index `base + i`.
    slots: VecDeque<Option<T>>,
    /// Number of occupied slots.
    len: usize,
    _key: PhantomData<K>,
}

impl<K: DenseKey, T> Default for DenseMap<K, T> {
    fn default() -> Self {
        DenseMap {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseKey, T: fmt::Debug> fmt::Debug for DenseMap<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|v| (self.base + i as u64, v))),
            )
            .finish()
    }
}

impl<K: DenseKey, T> DenseMap<K, T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn offset(&self, key: K) -> Option<usize> {
        let i = key.index();
        if self.slots.is_empty() || i < self.base {
            return None;
        }
        let off = (i - self.base) as usize;
        (off < self.slots.len()).then_some(off)
    }

    /// Insert `value` under `key`, returning the previous entry if any.
    pub fn insert(&mut self, key: K, value: T) -> Option<T> {
        let i = key.index();
        if self.slots.is_empty() {
            // Fresh window: anchor it at the key so a cleared map never
            // re-grows slots for long-gone smaller ids.
            self.base = i;
            self.slots.push_back(Some(value));
            self.len = 1;
            return None;
        }
        if i < self.base {
            for _ in i + 1..self.base {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = i;
            self.len += 1;
            return None;
        }
        let off = (i - self.base) as usize;
        if off >= self.slots.len() {
            self.slots.resize_with(off + 1, || None);
        }
        let prev = self.slots[off].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Look up the entry for `key`.
    pub fn get(&self, key: K) -> Option<&T> {
        self.offset(key).and_then(|o| self.slots[o].as_ref())
    }

    /// Mutable lookup.
    pub(crate) fn get_mut(&mut self, key: K) -> Option<&mut T> {
        self.offset(key).and_then(|o| self.slots[o].as_mut())
    }

    /// True if `key` has an entry.
    pub(crate) fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// The entry for `key`, inserting a default value first if vacant.
    pub fn entry_or_default(&mut self, key: K) -> &mut T
    where
        T: Default,
    {
        if !self.contains_key(key) {
            self.insert(key, T::default());
        }
        self.get_mut(key).expect("entry just ensured")
    }

    /// Remove and return the entry for `key`, trimming the window.
    pub fn remove(&mut self, key: K) -> Option<T> {
        let off = self.offset(key)?;
        let prev = self.slots[off].take();
        if prev.is_some() {
            self.len -= 1;
            self.trim();
        }
        prev
    }

    /// Drop vacant slots at both window ends so storage tracks the live
    /// span. O(vacancies dropped) — amortized O(1) per removal.
    fn trim(&mut self) {
        if self.len == 0 {
            self.slots.clear();
            return;
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Keep only the entries for which `keep` returns true.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(K, &mut T) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(K::from_index(self.base + i as u64), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
        self.trim();
    }

    /// Iterate the entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (K::from_index(self.base + i as u64), v)))
    }

    /// Iterate the keys in ascending order.
    fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// A hash-free set over a sliding window of monotonic keys — a
/// [`DenseMap`] with unit values.
#[derive(Clone)]
pub struct DenseSet<K: DenseKey> {
    map: DenseMap<K, ()>,
}

impl<K: DenseKey> Default for DenseSet<K> {
    fn default() -> Self {
        DenseSet {
            map: DenseMap::new(),
        }
    }
}

impl<K: DenseKey> fmt::Debug for DenseSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.map.keys().map(|k| k.index()))
            .finish()
    }
}

impl<K: DenseKey> DenseSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Add `key`; returns true if it was newly inserted.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// True if `key` is a member.
    pub fn contains(&self, key: K) -> bool {
        self.map.contains_key(key)
    }

    /// Remove `key`; returns true if it was a member.
    pub fn remove(&mut self, key: K) -> bool {
        self.map.remove(key).is_some()
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// What the boundedness tests (below and in `prop_tests.rs`) observe.
#[cfg(test)]
impl<K: DenseKey, T> DenseMap<K, T> {
    /// Width of the current key window (occupied plus vacant slots) —
    /// the map's actual storage footprint.
    pub(crate) fn window(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DenseMap<u32, &str> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "a"), None);
        assert_eq!(m.insert(7, "b"), None);
        assert_eq!(m.insert(5, "a2"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(5), Some(&"a2"));
        assert_eq!(m.get(6), None);
        assert_eq!(m.get(7), Some(&"b"));
        assert_eq!(m.remove(5), Some("a2"));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(7), Some(&"b"));
    }

    #[test]
    fn window_trims_to_live_span() {
        let mut m: DenseMap<u32, u32> = DenseMap::new();
        for k in 100..200 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.window(), 100);
        // Retiring the prefix slides the window forward.
        for k in 100..190 {
            m.remove(k);
        }
        assert_eq!(m.len(), 10);
        assert_eq!(m.window(), 10);
        // Draining completely resets the window: a far-away new key must
        // not allocate the gap.
        for k in 190..200 {
            m.remove(k);
        }
        assert!(m.is_empty());
        m.insert(1_000_000, 1);
        assert_eq!(m.window(), 1);
        assert_eq!(m.get(1_000_000), Some(&1));
        assert_eq!(m.get(100), None);
    }

    #[test]
    fn out_of_order_and_backward_inserts() {
        let mut m: DenseMap<u64, i32> = DenseMap::new();
        m.insert(50, 1);
        m.insert(40, 2); // grows the window backwards
        m.insert(60, 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(40), Some(&2));
        assert_eq!(m.get(45), None);
        assert_eq!(
            m.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>(),
            vec![(40, 2), (50, 1), (60, 3)]
        );
    }

    #[test]
    fn entry_or_default_inserts_once() {
        let mut m: DenseMap<u32, Vec<u32>> = DenseMap::new();
        m.entry_or_default(3).push(1);
        m.entry_or_default(3).push(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(3), Some(&vec![1, 2]));
    }

    #[test]
    fn retain_keeps_matching_entries_and_trims() {
        let mut m: DenseMap<u32, u32> = DenseMap::new();
        for k in 0..10 {
            m.insert(k, k);
        }
        m.retain(|k, _| k % 2 == 0 && k >= 4);
        assert_eq!(m.len(), 3);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![4, 6, 8]);
        assert_eq!(m.window(), 5, "trimmed to 4..=8");
    }

    #[test]
    fn clear_resets_anchor() {
        let mut m: DenseMap<u32, u32> = DenseMap::new();
        m.insert(10, 1);
        m.clear();
        assert!(m.is_empty());
        m.insert(100, 2);
        assert_eq!(m.window(), 1);
    }

    #[test]
    fn dense_set_behaves_like_a_set() {
        let mut s: DenseSet<u32> = DenseSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(9));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.contains(9) && s.len() == 1);
        s.clear();
        assert!(s.is_empty());
    }
}
