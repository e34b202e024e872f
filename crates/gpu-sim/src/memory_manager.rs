//! Finite device memory: the capacity-aware memory manager.
//!
//! The simulator's unified-memory model originally treated device memory
//! as infinite — residency tracked *where* data was, never *whether it
//! fit*. Real GPUs oversubscribe: when the working set exceeds device
//! memory, the unified-memory driver evicts pages back to the host and
//! re-fetches them on the next touch, and those migrations contend on
//! the same PCIe/NVLink links everything else uses.
//!
//! This module is the bookkeeping half of that story, shared by every
//! layer above:
//!
//! * [`MemoryConfig`] — per-device capacity (default **unlimited**, for
//!   exact backward compatibility) and the [`EvictionPolicy`] used when
//!   an allocation or migration would exceed it. Carried by
//!   [`crate::Topology`] (see [`crate::Topology::with_memory`]) so the
//!   machine description owns both its links *and* its memories.
//! * [`MemoryManager`] — tracks the resident set of every device
//!   (bytes, last use, peaks), answers headroom queries, and selects
//!   eviction victims under the configured policy. It never moves data
//!   itself: the `cuda-sim` context turns the selected [`Victim`]s into
//!   real `TaskSpec` copy tasks that contend on the interconnect in the
//!   max–min rate solve.
//! * [`Prefetcher`] — admission control and hit accounting for
//!   ahead-of-launch argument prefetches: copies are scheduled early
//!   only when the target device has headroom, and a *hit* is recorded
//!   when a later kernel finds its argument already resident because a
//!   prefetch brought it in.
//! * [`MemoryStats`] — evictions, spilled bytes, per-device resident and
//!   peak-resident bytes, prefetch hit rate: the `memory` section of the
//!   scheduler's gauges.

use crate::data::ValueId;
use crate::Time;

/// Victim-selection strategy when a device is out of capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used resident allocation first.
    #[default]
    Lru,
    /// Evict the allocation whose *round-trip cost* is cheapest: the
    /// time to spill it (zero when a valid host copy already exists —
    /// the device copy is simply dropped) plus the time to re-fetch it
    /// over the actual link if it is touched again. Clean, small arrays
    /// go first; dirty data that would pay two full link legs stays.
    CostAware,
}

impl EvictionPolicy {
    /// All built-in policies, in sweep order.
    pub const ALL: [EvictionPolicy; 2] = [EvictionPolicy::Lru, EvictionPolicy::CostAware];
}

/// Device-memory configuration of a simulated machine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryConfig {
    /// Device-memory capacity in bytes, identical for every device.
    /// `None` (the default) models infinite memory — the pre-existing
    /// behavior, bit-identical for every workload that fits.
    pub capacity: Option<usize>,
    /// Victim selection when an allocation or migration would exceed
    /// the capacity.
    pub eviction: EvictionPolicy,
}

impl MemoryConfig {
    /// Finite capacity of `bytes` per device, LRU eviction.
    pub fn with_capacity(bytes: usize) -> Self {
        MemoryConfig {
            capacity: Some(bytes),
            eviction: EvictionPolicy::default(),
        }
    }

    /// Builder-style eviction-policy override.
    pub fn with_eviction(mut self, policy: EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }
}

/// An eviction victim chosen by [`MemoryManager::select_victims`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The allocation to evict.
    pub value: ValueId,
    /// Its resident size in bytes (what evicting frees).
    pub bytes: usize,
}

/// Aggregate memory gauges — the `memory` section of the scheduler's
/// stats.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Configured per-device capacity (`None` = unlimited).
    pub capacity: Option<usize>,
    /// Bytes currently resident on each device.
    pub resident_bytes: Vec<usize>,
    /// Peak bytes ever resident on each device.
    pub peak_resident: Vec<usize>,
    /// Device copies evicted to make room (clean drops included).
    pub evictions: usize,
    /// Bytes moved device→host by eviction spill copies (clean drops
    /// move nothing and count zero here).
    pub spilled_bytes: usize,
    /// Ahead-of-launch prefetch copies actually issued.
    pub prefetch_issued: usize,
    /// Kernel arguments found resident thanks to an earlier prefetch.
    pub prefetch_hits: usize,
    /// Prefetches skipped because the target device had no headroom.
    pub prefetch_skipped: usize,
}

impl MemoryStats {
    /// Hits over issued prefetches (0 when none were issued).
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetch_issued as f64
        }
    }
}

/// Ahead-of-launch prefetch admission and hit accounting (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct Prefetcher {
    issued: usize,
    hits: usize,
    skipped: usize,
}

impl Prefetcher {
    /// Decide whether a prefetch of `bytes` may be issued given the
    /// target device's free bytes. Prefetches are opportunistic: they
    /// use headroom but never trigger evictions (the launch-time
    /// migration will, if it must). Updates the issued/skipped
    /// counters.
    pub fn admit(&mut self, free_bytes: usize, bytes: usize) -> bool {
        if bytes <= free_bytes {
            self.issued += 1;
            true
        } else {
            self.skipped += 1;
            false
        }
    }

    /// Record that a kernel found its argument resident because a
    /// prefetch brought it in.
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    device: u32,
    bytes: usize,
    last_use: u64,
}

/// Per-device resident-set accounting and victim selection (the model:
/// the header of `memory_manager.rs`).
pub struct MemoryManager {
    cfg: MemoryConfig,
    /// The device copy of every allocation that has one, indexed by
    /// `ValueId`: the layer above mints ids densely from zero and an
    /// allocation has at most one device copy, so one table serves
    /// every device and a lookup is an index.
    resident: Vec<Option<Entry>>,
    resident_bytes: Vec<usize>,
    peak_resident: Vec<usize>,
    evictions: usize,
    spilled_bytes: usize,
    /// Monotonic use clock driving LRU ordering.
    clock: u64,
    /// Ahead-of-launch prefetch admission and hit accounting.
    pub prefetcher: Prefetcher,
}

impl MemoryManager {
    /// A manager for `n` devices under the given configuration.
    pub fn new(n_devices: usize, cfg: MemoryConfig) -> Self {
        MemoryManager {
            cfg,
            resident: Vec::new(),
            resident_bytes: vec![0; n_devices],
            peak_resident: vec![0; n_devices],
            evictions: 0,
            spilled_bytes: 0,
            clock: 0,
            prefetcher: Prefetcher::default(),
        }
    }

    /// Capacity of a device (`None` = unlimited).
    pub fn capacity(&self, _device: u32) -> Option<usize> {
        self.cfg.capacity
    }

    /// Bytes currently resident on a device.
    pub fn resident_bytes(&self, device: u32) -> usize {
        self.resident_bytes[device as usize]
    }

    /// Free bytes on a device (`usize::MAX` when unlimited).
    pub fn free_bytes(&self, device: u32) -> usize {
        match self.cfg.capacity {
            None => usize::MAX,
            Some(cap) => cap.saturating_sub(self.resident_bytes[device as usize]),
        }
    }

    /// The table slot of `v` while it holds a copy on `device`. An id
    /// this manager has never seen has no slot.
    fn slot_mut(&mut self, device: u32, v: ValueId) -> Option<&mut Option<Entry>> {
        let slot = self.resident.get_mut(v.0 as usize)?;
        slot.is_some_and(|e| e.device == device).then_some(slot)
    }

    /// Bump the LRU clock for a resident allocation (a kernel touched
    /// it).
    pub fn touch(&mut self, device: u32, v: ValueId) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(Some(e)) = self.slot_mut(device, v) {
            e.last_use = clock;
        }
    }

    /// Record a new (or refreshed) device copy of `bytes`. A copy the
    /// allocation had on another device is dropped first: it has one
    /// device copy at a time. (Nothing reads the time any more; the
    /// parameter is part of the signature `benchmark/` calls.)
    pub fn insert(&mut self, device: u32, v: ValueId, bytes: usize, _now: Time) {
        self.clock += 1;
        let d = device as usize;
        let at = v.0 as usize;
        if self.resident.len() <= at {
            self.resident.resize(at + 1, None);
        }
        let entry = Entry {
            device,
            bytes,
            last_use: self.clock,
        };
        if let Some(prev) = self.resident[at].replace(entry) {
            self.resident_bytes[prev.device as usize] -= prev.bytes;
        }
        self.resident_bytes[d] += bytes;
        self.peak_resident[d] = self.peak_resident[d].max(self.resident_bytes[d]);
        if let Some(cap) = self.cfg.capacity {
            debug_assert!(
                self.resident_bytes[d] <= cap,
                "device {device} resident {} B exceeds capacity {cap} B",
                self.resident_bytes[d]
            );
        }
    }

    /// Drop the record of a device copy (eviction, migration away, host
    /// write invalidation). Returns the bytes freed, if it was resident.
    pub fn remove(&mut self, device: u32, v: ValueId) -> Option<usize> {
        let bytes = self.slot_mut(device, v)?.take().map(|e| e.bytes);
        if let Some(b) = bytes {
            self.resident_bytes[device as usize] -= b;
        }
        bytes
    }

    /// Bytes that must be freed before `bytes` of new data fit on the
    /// device (0 when unlimited or already fitting).
    pub fn shortfall(&self, device: u32, bytes: usize) -> usize {
        match self.cfg.capacity {
            None => 0,
            Some(cap) => (self.resident_bytes[device as usize] + bytes).saturating_sub(cap),
        }
    }

    /// Choose victims freeing at least `need` bytes under the configured
    /// eviction policy. `pinned` allocations (the launching kernel's own
    /// arguments) are never chosen. `refetch_cost(value, bytes)` prices
    /// a candidate for [`EvictionPolicy::CostAware`]: spill time (zero
    /// for clean copies) plus re-fetch time over the actual link.
    ///
    /// The selection is deterministic: candidates come out of the table
    /// in id order and are fully ordered by the policy key with the
    /// `ValueId` as the final tie-break. If the
    /// evictable set cannot cover `need`, every evictable victim is
    /// returned and the caller decides how to fail.
    pub fn select_victims(
        &self,
        device: u32,
        need: usize,
        pinned: &[ValueId],
        refetch_cost: impl Fn(ValueId, usize) -> f64,
    ) -> Vec<Victim> {
        let mut candidates: Vec<(ValueId, Entry)> = self
            .resident
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((ValueId(i as u64), (*e)?)))
            .filter(|(v, e)| e.device == device && !pinned.contains(v))
            .collect();
        // The table hands candidates out in id order and the sorts are
        // stable, so equal keys stay in id order: the tie-break needs no
        // comparison of its own.
        match self.cfg.eviction {
            EvictionPolicy::Lru => candidates.sort_by_key(|(_, e)| e.last_use),
            EvictionPolicy::CostAware => {
                // Price every candidate once, then sort the priced list:
                // a comparator that priced on demand would call
                // `refetch_cost` about 2·n·log n times.
                let mut priced: Vec<(f64, (ValueId, Entry))> = candidates
                    .drain(..)
                    .map(|c| (refetch_cost(c.0, c.1.bytes), c))
                    .collect();
                priced.sort_by(|(ca, _), (cb, _)| ca.total_cmp(cb));
                candidates.extend(priced.into_iter().map(|(_, c)| c));
            }
        }
        let mut victims = Vec::new();
        let mut freed = 0usize;
        for (v, e) in candidates {
            if freed >= need {
                break;
            }
            victims.push(Victim {
                value: v,
                bytes: e.bytes,
            });
            freed += e.bytes;
        }
        victims
    }

    /// Account one eviction; `spilled` is the bytes a real device→host
    /// spill copy moved (0 for clean drops of still-valid host copies).
    pub fn record_eviction(&mut self, spilled: usize) {
        self.evictions += 1;
        self.spilled_bytes += spilled;
    }

    /// Snapshot of every gauge.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            capacity: self.cfg.capacity,
            resident_bytes: self.resident_bytes.clone(),
            peak_resident: self.peak_resident.clone(),
            evictions: self.evictions,
            spilled_bytes: self.spilled_bytes,
            prefetch_issued: self.prefetcher.issued,
            prefetch_hits: self.prefetcher.hits,
            prefetch_skipped: self.prefetcher.skipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: [ValueId; 5] = [ValueId(0), ValueId(1), ValueId(2), ValueId(3), ValueId(4)];

    fn limited(cap: usize, policy: EvictionPolicy) -> MemoryManager {
        MemoryManager::new(2, MemoryConfig::with_capacity(cap).with_eviction(policy))
    }

    #[test]
    fn unlimited_never_needs_victims() {
        let mut m = MemoryManager::new(1, MemoryConfig::default());
        assert_eq!(m.capacity(0), None);
        assert_eq!(m.free_bytes(0), usize::MAX);
        m.insert(0, V[0], 1 << 40, 0.0);
        assert_eq!(m.shortfall(0, 1 << 40), 0);
        assert_eq!(m.resident_bytes(0), 1 << 40);
    }

    #[test]
    fn insert_remove_track_per_device_bytes_and_peaks() {
        let mut m = limited(1000, EvictionPolicy::Lru);
        m.insert(0, V[0], 400, 0.0);
        m.insert(0, V[1], 500, 1.0);
        m.insert(1, V[2], 100, 1.0);
        assert_eq!(m.resident_bytes(0), 900);
        assert_eq!(m.free_bytes(0), 100);
        assert_eq!(m.resident_bytes(1), 100);
        assert_eq!(m.remove(0, V[0]), Some(400));
        assert_eq!(m.remove(0, V[0]), None, "double remove is inert");
        assert_eq!(m.resident_bytes(0), 500);
        let st = m.stats();
        assert_eq!(st.peak_resident, vec![900, 100]);
        assert_eq!(st.resident_bytes.iter().sum::<usize>(), 600);
    }

    #[test]
    fn shortfall_measures_the_gap() {
        let mut m = limited(1000, EvictionPolicy::Lru);
        m.insert(0, V[0], 700, 0.0);
        assert_eq!(m.shortfall(0, 200), 0);
        assert_eq!(m.shortfall(0, 400), 100);
        assert_eq!(m.shortfall(1, 1500), 500, "devices are independent");
    }

    #[test]
    fn lru_evicts_least_recently_touched_first() {
        let mut m = limited(1000, EvictionPolicy::Lru);
        m.insert(0, V[0], 300, 0.0);
        m.insert(0, V[1], 300, 0.0);
        m.insert(0, V[2], 300, 0.0);
        m.touch(0, V[0]); // V1 is now the oldest
        let vs = m.select_victims(0, 300, &[], |_, _| 0.0);
        assert_eq!(
            vs,
            vec![Victim {
                value: V[1],
                bytes: 300
            }]
        );
        // Needing more takes the next-oldest too.
        let vs = m.select_victims(0, 400, &[], |_, _| 0.0);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[1].value, V[2]);
    }

    #[test]
    fn cost_aware_prefers_the_cheapest_round_trip() {
        let mut m = limited(2000, EvictionPolicy::CostAware);
        m.insert(0, V[0], 500, 0.0);
        m.insert(0, V[1], 500, 0.0);
        // V0 is "dirty" (expensive), V1 "clean" (cheap).
        let cost = |v: ValueId, _b: usize| if v == V[0] { 2.0 } else { 1.0 };
        let vs = m.select_victims(0, 100, &[], cost);
        assert_eq!(vs[0].value, V[1]);
    }

    #[test]
    fn cost_aware_prices_each_candidate_once_and_breaks_ties_on_value_id() {
        use std::cell::Cell;
        let mut m = limited(10_000, EvictionPolicy::CostAware);
        for (i, v) in V.iter().enumerate() {
            m.insert(0, *v, 100 + i, 0.0);
        }
        let calls = Cell::new(0);
        // V1 and V3 are cheap and tie; V0, V2, V4 are dear and tie.
        let cost = |v: ValueId, _b: usize| {
            calls.set(calls.get() + 1);
            if v.0 % 2 == 1 {
                1.0
            } else {
                2.0
            }
        };
        let vs = m.select_victims(0, usize::MAX, &[], cost);
        let order: Vec<ValueId> = vs.iter().map(|v| v.value).collect();
        assert_eq!(order, vec![V[1], V[3], V[0], V[2], V[4]]);
        assert_eq!(calls.get(), V.len(), "one price per candidate");
    }

    #[test]
    fn pinned_values_are_never_victims() {
        let mut m = limited(1000, EvictionPolicy::Lru);
        m.insert(0, V[0], 500, 0.0);
        m.insert(0, V[1], 500, 0.0);
        let vs = m.select_victims(0, 400, &[V[0]], |_, _| 0.0);
        assert_eq!(
            vs,
            vec![Victim {
                value: V[1],
                bytes: 500
            }]
        );
        // If everything evictable cannot cover the need, the caller
        // gets what exists and decides how to fail.
        let vs = m.select_victims(0, 900, &[V[0]], |_, _| 0.0);
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn ids_the_manager_never_saw_are_inert() {
        let mut m = limited(1000, EvictionPolicy::Lru);
        m.insert(0, V[1], 300, 0.0);
        // Below, between and far beyond the ids in the table; and a
        // known id asked about on the wrong device.
        for (device, v) in [(0, V[0]), (0, V[4]), (1, ValueId(u64::MAX)), (1, V[1])] {
            m.touch(device, v);
            assert_eq!(m.remove(device, v), None);
        }
        assert_eq!(m.resident_bytes(0), 300);
        assert_eq!(m.resident_bytes(1), 0);
        let victims = m.select_victims(0, 1, &[], |_, _| 0.0);
        assert_eq!(victims.len(), 1, "the misses left the one entry alone");
    }

    #[test]
    fn a_copy_inserted_on_another_device_moves() {
        let mut m = limited(1000, EvictionPolicy::Lru);
        m.insert(0, V[0], 400, 0.0);
        m.insert(1, V[0], 400, 1.0);
        assert_eq!((m.resident_bytes(0), m.resident_bytes(1)), (0, 400));
        assert_eq!(m.remove(0, V[0]), None);
        assert_eq!(m.remove(1, V[0]), Some(400));
    }

    #[test]
    fn prefetcher_admits_on_headroom_and_counts() {
        let mut p = Prefetcher::default();
        assert!(p.admit(1000, 400));
        assert!(!p.admit(100, 400));
        p.note_hit();
        let mut m = MemoryManager::new(1, MemoryConfig::default());
        m.prefetcher = p;
        let st = m.stats();
        assert_eq!(
            (st.prefetch_issued, st.prefetch_skipped, st.prefetch_hits),
            (1, 1, 1)
        );
        assert!((st.prefetch_hit_rate() - 1.0).abs() < 1e-12);
        let empty = MemoryStats::default();
        assert_eq!(empty.prefetch_hit_rate(), 0.0);
    }

    #[test]
    fn eviction_accounting_separates_spilled_from_dropped() {
        let mut m = limited(100, EvictionPolicy::Lru);
        m.record_eviction(64); // dirty spill
        m.record_eviction(0); // clean drop
        let st = m.stats();
        assert_eq!(st.evictions, 2);
        assert_eq!(st.spilled_bytes, 64);
    }

    #[test]
    fn config_builders() {
        let c = MemoryConfig::with_capacity(1 << 20).with_eviction(EvictionPolicy::CostAware);
        assert_eq!(c.capacity, Some(1 << 20));
        assert_eq!(c.eviction, EvictionPolicy::CostAware);
        assert_eq!(MemoryConfig::default().capacity, None);
        assert_eq!(MemoryConfig::default().eviction, EvictionPolicy::Lru);
    }
}
