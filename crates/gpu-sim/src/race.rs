//! Data-race detection over the simulated execution.
//!
//! The point of the paper's scheduler is that it inserts every dependency
//! the program semantics require. The simulator cross-checks that claim:
//! each task declares the values it reads and writes, and whenever two
//! tasks are *simultaneously active* with a write/read or write/write
//! conflict on the same value, a [`RaceReport`] is recorded. A correct
//! scheduler produces zero reports on every benchmark (integration-tested);
//! a deliberately broken schedule (a benchmark's plan issued with its
//! dependencies left out) must produce them (`tests/failure_injection.rs`).
//!
//! Reports carry the device and stream each party ran on, and the engine
//! deduplicates repeated reports of the same `(first, second, value)`
//! pair — a broken scheduler re-racing the same kernels every iteration
//! yields one attributed report per conflicting pair, not an unbounded
//! stream of copies.

use crate::data::ValueId;
use crate::task::TaskSpec;
use crate::Time;

/// A detected pair of concurrently-active tasks with conflicting access
/// to the same value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceReport {
    /// Virtual time at which the overlap began.
    pub at: Time,
    /// The value both tasks touch.
    pub value: ValueId,
    /// Name of the earlier-started task ([`crate::TaskSpec::label`]).
    pub first: &'static str,
    /// Device the earlier-started task ran on.
    pub first_device: u32,
    /// Stream the earlier-started task ran on.
    pub first_stream: u32,
    /// Name of the later-started task.
    pub second: &'static str,
    /// Device the later-started task ran on.
    pub second_device: u32,
    /// Stream the later-started task ran on.
    pub second_stream: u32,
    /// True if both tasks write (write/write); false for read/write.
    pub write_write: bool,
}

impl RaceReport {
    /// Whether `other` reports the same conflicting pair on the same
    /// value (ignoring when and where the overlap happened) — the
    /// engine's dedup key for repeated races, `(first, second, value)`.
    /// Kernel names identify kernels; a transfer's fixed name carries no
    /// route, so the same pair of copy legs racing over different links
    /// on the same value is one report.
    pub(crate) fn same_pair(&self, other: &RaceReport) -> bool {
        self.value == other.value && self.first == other.first && self.second == other.second
    }
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data race at t={:.6}s on value {:?}: `{}` (dev {} stream {}) and `{}` (dev {} stream {}) ({})",
            self.at,
            self.value,
            self.first,
            self.first_device,
            self.first_stream,
            self.second,
            self.second_device,
            self.second_stream,
            if self.write_write {
                "write/write"
            } else {
                "read/write"
            }
        )
    }
}

/// Check a starting task against one already-active task; returns a
/// report if their access sets conflict.
pub(crate) fn check_conflict(now: Time, active: &TaskSpec, new: &TaskSpec) -> Option<RaceReport> {
    let report = |value: ValueId, write_write: bool| RaceReport {
        at: now,
        value,
        first: active.label,
        first_device: active.device,
        first_stream: active.stream,
        second: new.label,
        second_device: new.device,
        second_stream: new.stream,
        write_write,
    };
    // write/write first: it is the stronger report.
    for w in &new.writes {
        if active.writes.contains(w) {
            return Some(report(*w, true));
        }
    }
    for w in &new.writes {
        if active.reads.contains(w) {
            return Some(report(*w, false));
        }
    }
    for r in &new.reads {
        if active.writes.contains(r) {
            return Some(report(*r, false));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: ValueId = ValueId(7);
    const W: ValueId = ValueId(8);

    fn task(label: &'static str, reads: &[ValueId], writes: &[ValueId]) -> TaskSpec {
        TaskSpec::kernel(label, 0).reading(reads).writing(writes)
    }

    #[test]
    fn read_read_is_fine() {
        assert!(check_conflict(0.0, &task("a", &[V], &[]), &task("b", &[V], &[])).is_none());
    }

    #[test]
    fn write_write_detected() {
        let r = check_conflict(1.0, &task("a", &[], &[V]), &task("b", &[], &[V])).unwrap();
        assert!(r.write_write);
        assert_eq!(r.value, V);
    }

    #[test]
    fn read_then_write_detected() {
        let r = check_conflict(0.0, &task("a", &[V], &[]), &task("b", &[], &[V])).unwrap();
        assert!(!r.write_write);
    }

    #[test]
    fn write_then_read_detected() {
        let r = check_conflict(0.0, &task("a", &[], &[V]), &task("b", &[V], &[])).unwrap();
        assert!(!r.write_write);
    }

    #[test]
    fn disjoint_values_are_fine() {
        assert!(check_conflict(0.0, &task("a", &[V], &[V]), &task("b", &[W], &[W])).is_none());
    }

    #[test]
    fn report_attributes_device_and_stream() {
        let a = TaskSpec::kernel("k1", 3).on_device(1).writing(&[V]);
        let b = TaskSpec::kernel("k2", 5).reading(&[V]);
        let r = check_conflict(0.25, &a, &b).unwrap();
        assert_eq!((r.first_device, r.first_stream), (1, 3));
        assert_eq!((r.second_device, r.second_stream), (0, 5));
        let s = r.to_string();
        assert!(s.contains("dev 1 stream 3") && s.contains("dev 0 stream 5"));
    }

    #[test]
    fn same_pair_ignores_time_and_placement() {
        let r1 = check_conflict(0.5, &task("k1", &[], &[V]), &task("k2", &[], &[V])).unwrap();
        let mut r2 = r1;
        r2.at = 9.0;
        r2.first_stream = 4;
        assert!(r1.same_pair(&r2));
        let mut r3 = r1;
        r3.value = W;
        assert!(!r1.same_pair(&r3));
    }

    #[test]
    fn display_is_readable() {
        let r = check_conflict(0.5, &task("k1", &[], &[V]), &task("k2", &[], &[V])).unwrap();
        let s = r.to_string();
        assert!(s.contains("k1") && s.contains("k2") && s.contains("write/write"));
    }
}
