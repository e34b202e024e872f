//! The four overlap classes of §V-F (Figs. 10–11).
//!
//! * **CT** — computation against transfer: percentage of GPU kernel
//!   computation that overlaps with any data transfer;
//! * **TC** — transfer against computation: percentage of data transfer
//!   that overlaps with any kernel computation;
//! * **CC** — percentage of GPU computation overlapped with other GPU
//!   computation;
//! * **TOT** — any type of overlap, with multiply-overlapped time counted
//!   once (the union of overlap intervals), relative to total GPU busy
//!   time.

use gpu_sim::Timeline;

use crate::interval_ops::{covered_at_least, overlap_with, union, Span};

/// Overlap fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapMetrics {
    /// Computation overlapped by transfer / total computation.
    pub ct: f64,
    /// Transfer overlapped by computation / total transfer.
    pub tc: f64,
    /// Computation overlapped by other computation / total computation.
    pub cc: f64,
    /// Time covered by ≥2 concurrent GPU operations / GPU busy time.
    pub tot: f64,
}

impl OverlapMetrics {
    /// Compute all four classes from a timeline.
    pub fn from_timeline(tl: &Timeline) -> OverlapMetrics {
        Self::from_spans(
            tl.kernels().map(|iv| (iv.start, iv.end)).collect(),
            tl.transfers().map(|iv| (iv.start, iv.end)).collect(),
        )
    }

    fn from_spans(kernels: Vec<Span>, transfers: Vec<Span>) -> OverlapMetrics {
        let kernel_total: f64 = kernels.iter().map(|s| s.1 - s.0).sum();
        let transfer_total: f64 = transfers.iter().map(|s| s.1 - s.0).sum();

        let transfer_union = union(transfers.clone());
        let kernel_union = union(kernels.clone());

        // CT: for each kernel interval, the portion covered by the
        // transfer union.
        let ct_time: f64 = kernels
            .iter()
            .map(|&k| overlap_with(k, &transfer_union))
            .sum();
        // TC: symmetric.
        let tc_time: f64 = transfers
            .iter()
            .map(|&t| overlap_with(t, &kernel_union))
            .sum();
        // CC: kernel time covered by at least two kernels, counted per
        // covered instant ("the overlap is counted only once").
        let cc_time = covered_at_least(&kernels, 2);

        // TOT: instants where ≥2 GPU operations (of any kind) are active,
        // relative to busy time (≥1 active).
        let mut all = kernels;
        all.extend_from_slice(&transfers);
        let busy = covered_at_least(&all, 1);
        let tot_time = covered_at_least(&all, 2);

        OverlapMetrics {
            ct: ratio(ct_time, kernel_total),
            tc: ratio(tc_time, transfer_total),
            cc: ratio(cc_time, kernel_total),
            tot: ratio(tot_time, busy),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Interval, TaskKind, TaskMeta, Timeline};

    fn tl(entries: &[(TaskKind, f64, f64)]) -> Timeline {
        // Build through the public-ish surface: reconstruct intervals.
        let mut t = Timeline::new();
        for (i, &(kind, start, end)) in entries.iter().enumerate() {
            t.push(Interval {
                task: i as u32,
                kind,
                stream: i as u32,
                device: 0,
                link: None,
                label: "op",
                value: None,
                start,
                end,
                meta: TaskMeta::default(),
            });
        }
        t
    }

    #[test]
    fn no_overlap_yields_zeros() {
        let t = tl(&[
            (TaskKind::CopyH2D, 0.0, 1.0),
            (TaskKind::Kernel, 1.0, 2.0),
            (TaskKind::Kernel, 2.0, 3.0),
        ]);
        let m = OverlapMetrics::from_timeline(&t);
        assert_eq!(m, OverlapMetrics::default());
    }

    #[test]
    fn full_transfer_compute_overlap() {
        // Kernel [0,2), transfer [0,2): CT=1, TC=1, CC=0, TOT=1.
        let t = tl(&[(TaskKind::Kernel, 0.0, 2.0), (TaskKind::CopyH2D, 0.0, 2.0)]);
        let m = OverlapMetrics::from_timeline(&t);
        assert!((m.ct - 1.0).abs() < 1e-12);
        assert!((m.tc - 1.0).abs() < 1e-12);
        assert_eq!(m.cc, 0.0);
        assert!((m.tot - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_ct_tc_asymmetry() {
        // Kernel [0,4), transfer [3,5): 1s of 4 kernel-seconds → CT=0.25,
        // 1s of 2 transfer-seconds → TC=0.5.
        let t = tl(&[(TaskKind::Kernel, 0.0, 4.0), (TaskKind::FaultH2D, 3.0, 5.0)]);
        let m = OverlapMetrics::from_timeline(&t);
        assert!((m.ct - 0.25).abs() < 1e-12);
        assert!((m.tc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cc_counts_multiply_overlapped_time_once() {
        // Three kernels all covering [0,1): covered_at_least(2) = 1s of
        // 3 kernel-seconds → CC = 1/3.
        let t = tl(&[
            (TaskKind::Kernel, 0.0, 1.0),
            (TaskKind::Kernel, 0.0, 1.0),
            (TaskKind::Kernel, 0.0, 1.0),
        ]);
        let m = OverlapMetrics::from_timeline(&t);
        assert!((m.cc - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.tot - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec_shape_pure_transfer_overlap() {
        // The paper's VEC: speedup comes only from transfer/compute
        // overlap — high TC, zero CC.
        let t = tl(&[
            (TaskKind::CopyH2D, 0.0, 2.0),
            (TaskKind::Kernel, 1.0, 2.0),
            (TaskKind::CopyH2D, 2.0, 4.0),
            (TaskKind::Kernel, 3.0, 4.0),
        ]);
        let m = OverlapMetrics::from_timeline(&t);
        assert_eq!(m.cc, 0.0);
        assert!(m.tc > 0.4);
        assert!((m.ct - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline_is_all_zero() {
        let m = OverlapMetrics::from_timeline(&Timeline::new());
        assert_eq!(m, OverlapMetrics::default());
    }
}
