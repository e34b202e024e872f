//! In-memory span recording around calls into the runtime.
//!
//! The benchmark records one span per boundary call — a call from the
//! benchmark's own files into a public function of the repository —
//! plus a wrapper span per round. Spans live in memory and
//! are written out as Chrome-trace JSON when the run ends. A layer's
//! self time is its span's duration minus the part its child spans
//! cover; time inside kernel functions (measured by the shim in
//! `okernels`) is treated as one more child.

use std::fmt::Write as _;
use std::time::Instant;

use crate::okernels;

/// What a span wraps. `Round` is the benchmark's own wrapper around a
/// round's operations; everything else is a boundary call into the
/// runtime. Requests are not spans: every span carries the id of the
/// request it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Round,
    Setup,
    Submit,
    Sync,
    HostRead,
    HostWrite,
    RunGrcuda,
    RunHandtuned,
    CoreSubmit,
    CorePump,
    CoreRead,
}

impl Name {
    pub const ALL: [Name; 11] = [
        Name::Round,
        Name::Setup,
        Name::Submit,
        Name::Sync,
        Name::HostRead,
        Name::HostWrite,
        Name::RunGrcuda,
        Name::RunHandtuned,
        Name::CoreSubmit,
        Name::CorePump,
        Name::CoreRead,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Round => "bench.round",
            Name::Setup => "bench.setup",
            Name::Submit => "grcuda.context.submit",
            Name::Sync => "grcuda.context.sync",
            Name::HostRead => "grcuda.context.host_read",
            Name::HostWrite => "grcuda.context.host_write",
            Name::RunGrcuda => "benchmarks.run_grcuda",
            Name::RunHandtuned => "benchmarks.run_handtuned",
            Name::CoreSubmit => "grcuda.serve.core_submit",
            Name::CorePump => "grcuda.serve.core_pump",
            Name::CoreRead => "grcuda.serve.core_read",
        }
    }

    /// True for spans around calls into the runtime; host time outside
    /// every boundary span is the closure check's "unattributed" share.
    pub fn is_boundary(self) -> bool {
        self != Name::Round
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    /// Kernel-function nanoseconds that elapsed inside the span
    /// (children included).
    pub kernel_ns: u64,
    pub round: u32,
    pub request: u32,
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// The span recorder. With tracing off every call is one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub round: u32,
    pub request: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            request: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between rounds (the traced run
    /// alternates traced and untraced rounds to measure its own
    /// overhead). Kernel-function timing follows.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
        okernels::set_timing(on);
    }

    #[inline]
    pub fn begin(&mut self, name: Name) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
            kernel_ns: okernels::func_ns(),
            round: self.round,
            request: self.request,
        });
        self.stack.push(id);
        Open(id)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        let span = &mut self.spans[open.0 as usize];
        span.end = now;
        span.kernel_ns = okernels::func_ns() - span.kernel_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − child spans − kernel-function time not already
    /// inside a child span).
    pub self_ns: u64,
    /// Σ kernel-function time inside the spans, children included.
    pub kernel_ns: u64,
}

/// Aggregated view of a span set.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    totals: Vec<Totals>,
    /// Σ self time of the benchmark's own wrapper spans: host time
    /// inside the run that no boundary span covers.
    pub unattributed_ns: u64,
}

impl Aggregate {
    pub fn of(&self, name: Name) -> Totals {
        self.totals[name as usize]
    }
}

/// Aggregate self time per span name.
pub fn aggregate(spans: &[Span]) -> Aggregate {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_kernel = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end - s.start;
            child_kernel[s.parent as usize] += s.kernel_ns;
        }
    }
    let mut agg = Aggregate {
        totals: vec![Totals::default(); Name::ALL.len()],
        ..Aggregate::default()
    };
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end - s.start;
        let own_kernel = s.kernel_ns - child_kernel[i];
        let self_ns = dur - child_ns[i] - own_kernel;
        let t = &mut agg.totals[s.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += self_ns;
        t.kernel_ns += s.kernel_ns;
        if !s.name.is_boundary() {
            agg.unattributed_ns += self_ns;
        }
    }
    agg
}

/// How many spans the trace file keeps (the aggregate uses all of them).
pub const TRACE_FILE_SPANS: usize = 200_000;

/// Render the first [`TRACE_FILE_SPANS`] spans as Chrome-trace JSON
/// (complete events; one track per round; open in Perfetto or
/// `chrome://tracing`).
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{workload}\"}}}}"
    );
    for s in spans.iter().take(TRACE_FILE_SPANS) {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"request\":{},\"kernel_ns\":{}}}}}",
            s.name.as_str(),
            s.round,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.request,
            s.kernel_ns,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start: u64, end: u64, kernel_ns: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
            kernel_ns,
            round: 0,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_kernels() {
        // round [0,1000]
        //   submit [150,450]   60 ns of it inside kernel functions
        //     (nested) sync [200,300]  10 of those 60 ns
        //   read   [500,800]   100 ns of it inside kernel functions
        //   sync   [900,990]   no kernels
        let spans = vec![
            span(Name::Round, NO_PARENT, 0, 1000, 160),
            span(Name::Submit, 0, 150, 450, 60),
            span(Name::Sync, 1, 200, 300, 10),
            span(Name::HostRead, 0, 500, 800, 100),
            span(Name::Sync, 0, 900, 990, 0),
        ];
        let a = aggregate(&spans);
        // submit: 300 − 100 child − (60 − 10) kernel ns of its own.
        assert_eq!(a.of(Name::Submit).self_ns, 150);
        assert_eq!(a.of(Name::Sync).self_ns, 90 + 90);
        assert_eq!(a.of(Name::Sync).count, 2);
        assert_eq!(a.of(Name::HostRead).self_ns, 200);
        // round: 1000 − (300 + 300 + 90); its kernel time is all inside
        // children.
        assert_eq!(a.of(Name::Round).self_ns, 310);
        assert_eq!(a.unattributed_ns, 310);
        // Closure: self times plus kernel time add up to the root span.
        let self_sum: u64 = Name::ALL.iter().map(|n| a.of(*n).self_ns).sum();
        let round = a.of(Name::Round);
        assert_eq!((round.kernel_ns, round.total_ns), (160, 1000));
        assert_eq!(self_sum + round.kernel_ns, round.total_ns);
    }

    #[test]
    fn kernel_time_outside_children_is_charged_to_the_span_itself() {
        let spans = vec![
            span(Name::Round, NO_PARENT, 0, 100, 30),
            span(Name::Submit, 0, 10, 60, 20),
        ];
        let a = aggregate(&spans);
        assert_eq!(a.of(Name::Submit).self_ns, 30);
        // 100 − 50 child − 10 kernel ns of its own.
        assert_eq!(a.of(Name::Round).self_ns, 40);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        let mut t = Tracer::new(false);
        let o = t.begin(Name::Round);
        t.end(o);
        assert!(t.spans().is_empty());

        let mut t = Tracer::new(true);
        t.round = 3;
        let r = t.begin(Name::Round);
        t.request = 9;
        let s = t.begin(Name::Submit);
        t.end(s);
        t.end(r);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].round, spans[1].request), (3, 9));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let spans = vec![span(Name::Submit, NO_PARENT, 1500, 2500, 0)];
        let json = chrome_trace(&spans, "w");
        assert!(json.contains("\"name\":\"grcuda.context.submit\""));
        assert!(json.contains("\"ts\":1.500,\"dur\":1.000"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
    }
}
