//! Unified-memory arrays and their residency state machine.

use gpu_sim::{DataBuffer, TypedData, ValueId};

/// Where the up-to-date copy of a unified-memory allocation lives.
///
/// GrCUDA backs every array with CUDA Unified Memory (§IV-A), so the
/// "transfers" the paper overlaps with computation are page migrations
/// (on-demand or prefetched). The simulator tracks a whole-array
/// residency state — page granularity would refine the numbers but not
/// the scheduling behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Only the host copy is current (freshly allocated or written by
    /// the CPU).
    Host,
    /// Only the device copy is current (a kernel wrote it).
    Device,
    /// Both copies are current (migrated/read but not yet re-written).
    Both,
}

impl Residency {
    /// Is the data available to a kernel without migration?
    pub(crate) fn on_device(self) -> bool {
        matches!(self, Residency::Device | Residency::Both)
    }

    /// Is the data available to the CPU without migration?
    pub(crate) fn on_host(self) -> bool {
        matches!(self, Residency::Host | Residency::Both)
    }
}

/// A handle to a unified-memory array: host-visible storage plus the
/// identity used for dependency tracking. Cheap to clone; clones share
/// storage (they are the *same* allocation).
#[derive(Debug, Clone)]
pub struct UnifiedArray {
    /// Identity for dependency tracking and race detection.
    pub id: ValueId,
    /// Shared host-visible payload.
    pub buf: DataBuffer,
}

impl UnifiedArray {
    pub(crate) fn new(id: ValueId, data: TypedData) -> Self {
        UnifiedArray {
            id,
            buf: DataBuffer::new(data),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Size in bytes (what a full migration moves).
    pub fn byte_len(&self) -> usize {
        self.buf.byte_len()
    }
}

/// Per-allocation bookkeeping owned by the context.
#[derive(Debug, Clone)]
pub(crate) struct ArrayState {
    pub residency: Residency,
    /// Size in bytes — re-synced from the backing buffer on every
    /// residency transition so capacity accounting can never drift from
    /// the allocation it describes.
    pub bytes: usize,
    /// Which device holds the current device copy (meaningful while
    /// `residency.on_device()`; always 0 on single-device contexts).
    pub device: u32,
    /// The device copy was brought in by a prefetch and no kernel has
    /// used it yet — what a prefetch *hit* is counted against. Cleared
    /// when a kernel finds it or the copy leaves the device.
    pub prefetched: bool,
    /// The task that produced the current copy (a writing kernel, the
    /// transfer that last moved it, or the eviction spill that pushed it
    /// back to the host). Cross-device migrations chain their
    /// device→host leg on it so causality is preserved without blocking
    /// the host.
    pub last_writer: Option<gpu_sim::TaskId>,
    /// The task that produced the host copy, while there is a current
    /// one: the eviction spill, migration leg or host read that carried
    /// the data back (`None` when the CPU wrote it). An H2D leg only
    /// reads the host copy and leaves this alone, so a device copy
    /// dropped while its H2D is still queued hands the array back to
    /// what the host copy really waits for.
    pub host_writer: Option<gpu_sim::TaskId>,
}

/// What the unified-memory layer did to an allocation — drained by the
/// layer above (the grcuda scheduler annotates its computation DAG with
/// these so `to_dot` renders eviction, prefetch and migration traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// The allocation involved.
    pub value: ValueId,
    /// Its size in bytes.
    pub bytes: usize,
    /// What happened.
    pub kind: MemEventKind,
}

/// The kind of a [`MemEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEventKind {
    /// The device copy was evicted to make room. `spilled` is true when
    /// a real device→host copy moved the data (the host copy was
    /// stale); false when the device copy was simply dropped (a valid
    /// host copy already existed).
    Evicted {
        /// True when the eviction paid a device→host spill copy.
        spilled: bool,
    },
    /// The allocation was bulk-prefetched ahead of a launch.
    Prefetched,
    /// The only current copy sat on another device and was migrated to
    /// the device that needs it — the route actually taken, whether a
    /// prefetch or a launch triggered it.
    Migrated {
        /// True when the copy went over a direct peer link; false when
        /// it staged through the host.
        p2p: bool,
        /// True when the staged copy also crossed a NIC link between
        /// cluster nodes.
        cross_node: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_predicates() {
        assert!(Residency::Device.on_device());
        assert!(Residency::Both.on_device());
        assert!(!Residency::Host.on_device());
        assert!(Residency::Host.on_host());
        assert!(Residency::Both.on_host());
        assert!(!Residency::Device.on_host());
    }

    #[test]
    fn clones_are_the_same_allocation() {
        let a = UnifiedArray::new(ValueId(3), TypedData::F32(vec![0.0; 8]));
        let b = a.clone();
        b.buf.as_f32_mut()[0] = 4.0;
        assert_eq!(a.buf.as_f32()[0], 4.0);
        assert_eq!(a.id, b.id);
        assert_eq!(a.byte_len(), 32);
    }
}
