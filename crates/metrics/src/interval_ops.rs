//! Set operations over time intervals `[start, end)`.

/// A half-open time interval.
pub(crate) type Span = (f64, f64);

/// Merge overlapping/touching intervals into a sorted disjoint union.
pub(crate) fn union(mut spans: Vec<Span>) -> Vec<Span> {
    spans.retain(|s| s.1 > s.0);
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<Span> = Vec::with_capacity(spans.len());
    for s in spans {
        match out.last_mut() {
            Some(last) if s.0 <= last.1 => last.1 = last.1.max(s.1),
            _ => out.push(s),
        }
    }
    out
}

/// Measure of the intersection between one interval and a disjoint
/// union.
pub(crate) fn overlap_with(span: Span, disjoint: &[Span]) -> f64 {
    let mut acc = 0.0;
    for &(a, b) in disjoint {
        if b <= span.0 {
            continue;
        }
        if a >= span.1 {
            break;
        }
        acc += b.min(span.1) - a.max(span.0);
    }
    acc
}

/// Time covered by at least `k` of the given (possibly overlapping)
/// intervals.
pub(crate) fn covered_at_least(spans: &[Span], k: usize) -> f64 {
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(spans.len() * 2);
    for &(a, b) in spans {
        if b > a {
            events.push((a, 1));
            events.push((b, -1));
        }
    }
    events.sort_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)));
    let mut depth = 0i32;
    let mut acc = 0.0;
    let mut last = f64::NAN;
    for (t, d) in events {
        if depth >= k as i32 && last.is_finite() {
            acc += t - last;
        }
        depth += d;
        last = t;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total measure of a disjoint union.
    pub(super) fn measure(spans: &[Span]) -> f64 {
        spans.iter().map(|s| s.1 - s.0).sum()
    }

    #[test]
    fn union_merges_overlaps() {
        let u = union(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]);
        assert_eq!(u, vec![(0.0, 3.0), (5.0, 6.0)]);
        assert_eq!(measure(&u), 4.0);
    }

    #[test]
    fn union_drops_empty_intervals() {
        let u = union(vec![(1.0, 1.0), (2.0, 1.5)]);
        assert!(u.is_empty());
    }

    #[test]
    fn overlap_with_computes_intersection() {
        let dis = union(vec![(0.0, 2.0), (4.0, 8.0)]);
        assert_eq!(overlap_with((1.0, 5.0), &dis), 2.0); // [1,2) + [4,5)
        assert_eq!(overlap_with((2.0, 4.0), &dis), 0.0);
        assert_eq!(overlap_with((-1.0, 10.0), &dis), 6.0);
    }

    #[test]
    fn covered_at_least_counts_depth() {
        let spans = vec![(0.0, 4.0), (2.0, 6.0), (3.0, 5.0)];
        assert_eq!(covered_at_least(&spans, 1), 6.0);
        assert_eq!(covered_at_least(&spans, 2), 3.0); // [2,5)
        assert_eq!(covered_at_least(&spans, 3), 1.0); // [3,4)
        assert_eq!(covered_at_least(&spans, 4), 0.0);
    }

    #[test]
    fn covered_handles_touching_endpoints() {
        let spans = vec![(0.0, 1.0), (1.0, 2.0)];
        assert_eq!(covered_at_least(&spans, 1), 2.0);
        assert_eq!(covered_at_least(&spans, 2), 0.0);
    }
}

#[cfg(test)]
mod prop {
    use super::tests::measure;
    use super::*;

    /// Every list of 1 to 4 spans with integer ends in `0..=3`, empty
    /// ones included (10 spans, 11 110 lists): each overlap, nesting,
    /// touch and repeat of up to four spans. Shorter lists first, each
    /// length in lexicographic order.
    fn span_lists() -> impl Iterator<Item = Vec<Span>> {
        let spans: Vec<Span> = (0..4)
            .flat_map(|a| (a..4).map(move |b| (f64::from(a), f64::from(b))))
            .collect();
        let n = spans.len();
        (1..=4u32).flat_map(move |l| {
            let spans = spans.clone();
            (0..n.pow(l))
                .map(move |code| (0..l).rev().map(|p| spans[code / n.pow(p) % n]).collect())
        })
    }

    #[test]
    fn union_measure_bounded_by_sum() {
        assert!(union(Vec::new()).is_empty());
        let mut checked = 0;
        for sp in span_lists() {
            let total: f64 = sp.iter().map(|s| s.1 - s.0).sum();
            let u = union(sp.clone());
            let m = measure(&u);
            assert!(m <= total, "{sp:?}");
            // Union is disjoint and sorted.
            for w in u.windows(2) {
                assert!(w[0].1 < w[1].0, "{sp:?}");
            }
            // depth>=1 coverage equals union measure.
            assert_eq!(covered_at_least(&sp, 1), m, "{sp:?}");
            checked += 1;
        }
        assert_eq!(checked, 11_110);
    }

    #[test]
    fn deeper_coverage_is_smaller() {
        for sp in span_lists() {
            let c1 = covered_at_least(&sp, 1);
            let c2 = covered_at_least(&sp, 2);
            let c3 = covered_at_least(&sp, 3);
            assert!(c2 <= c1 && c3 <= c2, "{sp:?}");
        }
    }
}
