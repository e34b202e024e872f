//! Chrome-tracing export: render a [`gpu_sim::Timeline`] as a
//! `chrome://tracing` / Perfetto JSON trace.
//!
//! Each stream becomes a "thread", kernels and transfers become complete
//! (`"ph": "X"`) events with microsecond timestamps — the visual
//! equivalent of the paper's Fig. 10, but interactive. A transfer's
//! `args` name the array it moved (`"value"`). Write the output
//! to a file and load it at <https://ui.perfetto.dev>.

use gpu_sim::{TaskKind, Timeline};

/// Serialize the timeline as Chrome trace-event JSON (an array of
/// complete events). Deterministic output: events in completion order.
pub fn to_chrome_trace(tl: &Timeline, process_name: &str) -> String {
    let mut out = String::from("[\n");
    // Process + thread metadata.
    out.push_str(&format!(
        "  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(process_name)
    ));
    let mut streams: Vec<u32> = tl.intervals().iter().map(|iv| iv.stream).collect();
    streams.sort_unstable();
    streams.dedup();
    for &s in &streams {
        let name = if s == u32::MAX {
            "host".to_string()
        } else {
            format!("stream {s}")
        };
        out.push_str(&format!(
            ",\n  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{name}\"}}}}",
            tid(s)
        ));
    }
    for iv in tl.intervals() {
        let cat = match iv.kind {
            TaskKind::Kernel => "kernel",
            TaskKind::CopyH2D => "h2d",
            TaskKind::CopyD2H => "d2h",
            TaskKind::CopyP2P => "p2p",
            TaskKind::FaultH2D | TaskKind::FaultD2H => "um-fault",
            TaskKind::Marker => "marker",
        };
        let value = iv
            .value
            .map_or(String::new(), |v| format!(",\"value\":{}", v.0));
        out.push_str(&format!(
            ",\n  {{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"bytes\":{},\"task\":{}{value}}}}}",
            escape(iv.label),
            tid(iv.stream),
            iv.start * 1e6,
            iv.duration() * 1e6,
            iv.meta.bytes,
            iv.task,
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Map the presentation stream to a trace thread id (host = 0).
fn tid(stream: u32) -> u32 {
    if stream == u32::MAX {
        0
    } else {
        stream + 1
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Interval, TaskMeta, ValueId};

    fn iv(kind: TaskKind, stream: u32, start: f64, end: f64, label: &'static str) -> Interval {
        Interval {
            task: 7,
            kind,
            stream,
            device: 0,
            link: None,
            label,
            value: None,
            start,
            end,
            meta: TaskMeta {
                bytes: 128.0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn trace_is_wellformed_json_array() {
        let mut tl = Timeline::new();
        tl.push(iv(TaskKind::CopyH2D, 0, 0.0, 1e-3, "x"));
        tl.push(iv(TaskKind::Kernel, 1, 1e-3, 3e-3, "square"));
        let s = to_chrome_trace(&tl, "VEC");
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        // Rough JSON sanity: balanced braces and the expected fields.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"cat\":\"kernel\""));
        assert!(s.contains("\"cat\":\"h2d\""));
        assert!(s.contains("\"name\":\"square\""));
        assert!(s.contains("\"ts\":1000.000"));
        assert!(s.contains("\"dur\":2000.000"));
    }

    #[test]
    fn transfer_events_name_the_array_they_moved() {
        let mut tl = Timeline::new();
        let moved = Interval {
            value: Some(ValueId(3)),
            ..iv(TaskKind::CopyD2H, u32::MAX, 0.0, 1e-3, "evict")
        };
        tl.push(moved);
        tl.push(iv(TaskKind::Kernel, 0, 1e-3, 2e-3, "square"));
        let s = to_chrome_trace(&tl, "t");
        assert!(s.contains("\"name\":\"evict\""));
        assert!(s.contains("\"args\":{\"bytes\":128,\"task\":7,\"value\":3}"));
        assert_eq!(s.matches("\"value\"").count(), 1, "kernels move no array");
    }

    #[test]
    fn host_stream_maps_to_tid_zero() {
        let mut tl = Timeline::new();
        tl.push(iv(TaskKind::FaultD2H, u32::MAX, 0.0, 1e-6, "umfault"));
        let s = to_chrome_trace(&tl, "t");
        assert!(s.contains("\"tid\":0"));
        assert!(s.contains("um-fault"));
    }

    #[test]
    fn labels_with_quotes_are_escaped() {
        let mut tl = Timeline::new();
        tl.push(iv(TaskKind::Kernel, 0, 0.0, 1.0, "k\"q\""));
        let s = to_chrome_trace(&tl, "p\"n");
        assert!(s.contains("k\\\"q\\\""));
        assert!(s.contains("p\\\"n"));
    }
}
