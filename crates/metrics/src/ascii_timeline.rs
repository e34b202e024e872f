//! Fig. 10-style execution timeline rendering.
//!
//! Produces a per-stream ASCII Gantt chart of one benchmark execution,
//! the textual analogue of the paper's Fig. 10 ("Example of a possible
//! execution timeline for the ML benchmark").

use gpu_sim::{TaskKind, Timeline};

/// Render a timeline as one text row per stream.
///
/// Kernels draw as `#`, host→device transfers as `>`, device→host as
/// `<`, peer copies as `=`, fault migrations as `f` (and markers, which
/// the engine never records, as `|`). `width` is the chart width in
/// characters.
pub fn render_timeline(tl: &Timeline, width: usize) -> String {
    let Some(t0) = tl.gpu_start() else {
        return String::from("(empty timeline)\n");
    };
    let t1 = tl.gpu_end().unwrap();
    let span = (t1 - t0).max(1e-12);
    let scale = |t: f64| -> usize {
        (((t - t0) / span) * (width as f64 - 1.0))
            .round()
            .clamp(0.0, width as f64 - 1.0) as usize
    };

    // Collect GPU streams in first-use order.
    let mut streams: Vec<u32> = Vec::new();
    for iv in tl.intervals() {
        if !streams.contains(&iv.stream) {
            streams.push(iv.stream);
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "GPU span: {:.3} ms ({} streams)\n",
        span * 1e3,
        streams.len()
    ));
    for &s in &streams {
        let mut row = vec![b' '; width];
        for iv in tl.intervals() {
            if iv.stream != s {
                continue;
            }
            let (a, b) = (scale(iv.start), scale(iv.end).max(scale(iv.start)));
            let fill = match iv.kind {
                TaskKind::Kernel => b'#',
                TaskKind::CopyH2D => b'>',
                TaskKind::CopyD2H => b'<',
                TaskKind::CopyP2P => b'=',
                TaskKind::FaultH2D | TaskKind::FaultD2H => b'f',
                TaskKind::Marker => b'|',
            };
            for c in row.iter_mut().take(b + 1).skip(a) {
                *c = fill;
            }
            // Stamp a prefix of the label into kernel segments.
            if iv.kind == TaskKind::Kernel {
                let label: Vec<u8> = iv.label.bytes().take(b.saturating_sub(a)).collect();
                for (k, ch) in label.iter().enumerate() {
                    row[a + k] = *ch;
                }
            }
        }
        let name = if s == u32::MAX {
            "host".to_string()
        } else {
            format!("s{s:<3}")
        };
        out.push_str(&format!("{name:>5} |{}|\n", String::from_utf8_lossy(&row)));
    }
    out.push_str("       ('#'/text = kernel, '>' = H2D, '<' = D2H, 'f' = UM fault)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Interval, TaskMeta};

    fn iv(kind: TaskKind, stream: u32, start: f64, end: f64, label: &'static str) -> Interval {
        Interval {
            task: 0,
            kind,
            stream,
            device: 0,
            link: None,
            label,
            value: None,
            start,
            end,
            meta: TaskMeta::default(),
        }
    }

    #[test]
    fn renders_streams_and_legend() {
        let mut tl = Timeline::new();
        tl.push(iv(TaskKind::CopyH2D, 0, 0.0, 1.0, "x"));
        tl.push(iv(TaskKind::Kernel, 0, 1.0, 3.0, "square"));
        tl.push(iv(TaskKind::Kernel, 1, 0.5, 2.0, "square"));
        let s = render_timeline(&tl, 40);
        assert!(s.contains("s0"));
        assert!(s.contains("s1"));
        assert!(s.contains('>'));
        assert!(s.contains("sq"), "kernel label prefix appears: {s}");
        assert!(s.contains("2 streams"));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        assert!(render_timeline(&Timeline::new(), 40).contains("empty"));
    }
}
