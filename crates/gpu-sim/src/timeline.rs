//! Execution-timeline recording.
//!
//! Every completed kernel and transfer leaves an [`Interval`] behind;
//! a marker ([`TaskKind::Marker`]) orders work and does none, so it
//! leaves nothing and every interval is GPU work. The `metrics`
//! crate post-processes these intervals into the overlap fractions
//! (CT/TC/CC/TOT) of the paper's Fig. 10–11 and into the per-benchmark
//! hardware-utilization numbers of Fig. 12; the `bench` crate renders them
//! as the ASCII execution timeline of Fig. 10.

use crate::data::ValueId;
use crate::task::{TaskKind, TaskMeta};
use crate::Time;

/// One completed kernel or transfer on the simulated timeline: plain
/// data, so a snapshot of the timeline is one copy of its intervals.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Engine-assigned task id.
    pub task: u32,
    /// Operation class.
    pub kind: TaskKind,
    /// Presentation stream the operation ran on.
    pub stream: u32,
    /// Device the operation ran on (0 for single-device engines).
    pub device: u32,
    /// Interconnect link a transfer moved over (index into the engine's
    /// [`crate::topology::Topology::links`]): the peer link for P2P
    /// copies, the device's host link for bulk copies and fault
    /// migrations, `None` for non-transfers.
    pub link: Option<u32>,
    /// Name of the operation: the kernel's name, or the fixed name of a
    /// copy leg ([`crate::TaskSpec::label`]). What a transfer moved and
    /// where are the fields beside it.
    pub label: &'static str,
    /// The array a transfer moved (the value its copy task reads),
    /// recorded when the task completes; `None` for kernels.
    pub value: Option<ValueId>,
    /// When the task became ready and started its fixed-latency phase.
    pub start: Time,
    /// When the task completed.
    pub end: Time,
    /// Raw hardware counters.
    pub meta: TaskMeta,
}

impl Interval {
    /// Interval duration in seconds.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// An append-only record of the GPU work done — completed kernels and
/// transfers, never markers — ordered by completion time.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    intervals: Vec<Interval>,
}

impl Timeline {
    /// Create an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed kernel or transfer (the engine's path, and
    /// how tests and analysis tools build a timeline by hand).
    pub fn push(&mut self, iv: Interval) {
        self.intervals.push(iv);
    }

    /// All recorded intervals, in completion order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Intervals of a given kind.
    pub fn of_kind(&self, kind: TaskKind) -> impl Iterator<Item = &Interval> {
        self.intervals.iter().filter(move |iv| iv.kind == kind)
    }

    /// Kernel intervals.
    pub fn kernels(&self) -> impl Iterator<Item = &Interval> {
        self.intervals
            .iter()
            .filter(|iv| iv.kind == TaskKind::Kernel)
    }

    /// Transfer intervals (bulk copies and fault migrations, both
    /// directions).
    pub fn transfers(&self) -> impl Iterator<Item = &Interval> {
        self.intervals.iter().filter(|iv| iv.kind.is_transfer())
    }

    /// Earliest start over all intervals, i.e. the paper's "first
    /// kernel scheduling" instant.
    pub fn gpu_start(&self) -> Option<Time> {
        self.intervals
            .iter()
            .map(|iv| iv.start)
            .fold(None, |m, t| Some(m.map_or(t, |m: f64| m.min(t))))
    }

    /// Latest end over all intervals.
    pub fn gpu_end(&self) -> Option<Time> {
        self.intervals
            .iter()
            .map(|iv| iv.end)
            .fold(None, |m, t| Some(m.map_or(t, |m: f64| m.max(t))))
    }

    /// GPU execution time as the paper defines it (§V-A): from the first
    /// kernel/transfer start to the last completion. Zero when no GPU
    /// work was recorded.
    pub fn gpu_span(&self) -> Time {
        match (self.gpu_start(), self.gpu_end()) {
            (Some(s), Some(e)) => e - s,
            _ => 0.0,
        }
    }

    /// Number of distinct presentation streams that carried GPU work.
    /// Host-driven operations (stream `u32::MAX`, e.g. CPU-access page
    /// migrations) are not counted.
    pub fn streams_used(&self) -> usize {
        let mut ids: Vec<u32> = self
            .intervals
            .iter()
            .filter(|iv| iv.stream != u32::MAX)
            .map(|iv| iv.stream)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Devices that carried GPU work (kernels or transfers), ascending.
    pub fn devices_used(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.intervals.iter().map(|iv| iv.device).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// GPU execution span restricted to one device: from that device's
    /// first kernel/transfer start to its last completion. Zero when the
    /// device carried no GPU work.
    pub fn device_span(&self, device: u32) -> Time {
        let mut bounds: Option<(Time, Time)> = None;
        for iv in &self.intervals {
            if iv.device != device {
                continue;
            }
            bounds = Some(match bounds {
                None => (iv.start, iv.end),
                Some((s, e)) => (s.min(iv.start), e.max(iv.end)),
            });
        }
        bounds.map_or(0.0, |(s, e)| e - s)
    }

    /// Forget every recorded interval.
    pub(crate) fn clear(&mut self) {
        self.intervals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(kind: TaskKind, stream: u32, start: Time, end: Time) -> Interval {
        Interval {
            task: 0,
            kind,
            stream,
            device: 0,
            link: None,
            label: "",
            value: None,
            start,
            end,
            meta: TaskMeta::default(),
        }
    }

    #[test]
    fn span_covers_kernels_and_transfers_only() {
        let mut t = Timeline::new();
        t.push(iv(TaskKind::CopyH2D, 0, 1.0, 2.0));
        t.push(iv(TaskKind::Kernel, 0, 2.0, 5.0));
        assert_eq!(t.gpu_start(), Some(1.0));
        assert_eq!(t.gpu_end(), Some(5.0));
        assert_eq!(t.gpu_span(), 4.0);
    }

    #[test]
    fn empty_timeline_has_zero_span() {
        let t = Timeline::new();
        assert_eq!(t.gpu_span(), 0.0);
        assert_eq!(t.gpu_start(), None);
    }

    #[test]
    fn stream_count_dedupes() {
        let mut t = Timeline::new();
        t.push(iv(TaskKind::Kernel, 0, 0.0, 1.0));
        t.push(iv(TaskKind::Kernel, 1, 0.0, 1.0));
        t.push(iv(TaskKind::Kernel, 0, 1.0, 2.0));
        assert_eq!(t.streams_used(), 2);
    }

    #[test]
    fn kind_filters() {
        let mut t = Timeline::new();
        t.push(iv(TaskKind::Kernel, 0, 0.0, 1.0));
        t.push(iv(TaskKind::FaultH2D, 0, 0.0, 1.0));
        t.push(iv(TaskKind::CopyD2H, 0, 0.0, 1.0));
        assert_eq!(t.kernels().count(), 1);
        assert_eq!(t.transfers().count(), 2);
    }
}
