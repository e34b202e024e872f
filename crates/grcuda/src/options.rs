//! Scheduler configuration (§IV-C: "Users can specify different policies
//! to create new streams and to associate them with computations").

/// Top-level execution policy: the paper's baseline vs. its contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// The original GrCUDA scheduler: every computation on the default
    /// stream, host blocks after each one, no dependency computation, no
    /// prefetch. ("A scheduler is serial if computations are executed one
    /// after the other in the order defined by the user... the original
    /// GrCUDA scheduler is serial and synchronous.")
    SerialSync,
    /// The paper's scheduler: dependencies inferred at run time,
    /// computations overlap on multiple streams, host never blocks until
    /// it reads data.
    ParallelAsync,
}

/// How a computation *with dependencies* picks its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepStreamPolicy {
    /// Paper default: "the first child is scheduled on the parent's
    /// stream to minimize synchronization events, while following
    /// children are scheduled on other streams to guarantee concurrency."
    FirstChildOnParent,
    /// Simpler policy mentioned in §IV-C: every child lands on the
    /// parent's stream (less concurrency, fewer events).
    AlwaysParent,
    /// Pessimistic ablation: every dependent computation gets a fresh
    /// stream (maximum events).
    AlwaysNew,
}

/// How a computation *without* a free-stream candidate gets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamReusePolicy {
    /// Paper default: "existing streams are managed in FIFO order, and
    /// new streams are created only if no currently empty stream is
    /// available."
    FifoReuse,
    /// Ablation: always create a new stream (unbounded stream growth).
    AlwaysNew,
}

/// Automatic unified-memory prefetching (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// Paper default on fault-capable devices: bulk-migrate kernel
    /// arguments on the kernel's stream before execution.
    Auto,
    /// Disabled: kernels page-fault on demand. "Disabling automatic
    /// prefetching is not recommended: concurrent kernel execution turns
    /// the page fault controller into the main bottleneck."
    None,
}

/// Full scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Serial baseline or parallel scheduler.
    pub schedule: SchedulePolicy,
    /// Child-stream policy.
    pub dep_stream: DepStreamPolicy,
    /// Stream creation/reuse policy.
    pub stream_reuse: StreamReusePolicy,
    /// Prefetching policy.
    pub prefetch: PrefetchPolicy,
    /// Pre-Pascal visibility restriction (§IV-C): when enabled (paper
    /// default), a CPU access to a managed array only synchronizes the
    /// streams using *that* array even on Maxwell; when disabled, any
    /// CPU access on Maxwell must synchronize the whole device.
    pub visibility_restriction: bool,
}

impl Options {
    /// The paper's parallel scheduler with default policies.
    pub fn parallel() -> Self {
        Options {
            schedule: SchedulePolicy::ParallelAsync,
            dep_stream: DepStreamPolicy::FirstChildOnParent,
            stream_reuse: StreamReusePolicy::FifoReuse,
            prefetch: PrefetchPolicy::Auto,
            visibility_restriction: true,
        }
    }

    /// The original serial, synchronous GrCUDA scheduler.
    pub fn serial() -> Self {
        Options {
            schedule: SchedulePolicy::SerialSync,
            dep_stream: DepStreamPolicy::AlwaysParent,
            stream_reuse: StreamReusePolicy::FifoReuse,
            prefetch: PrefetchPolicy::None,
            visibility_restriction: true,
        }
    }

    /// Builder-style: change the prefetch policy.
    pub fn with_prefetch(mut self, p: PrefetchPolicy) -> Self {
        self.prefetch = p;
        self
    }

    /// Builder-style: change the child-stream policy.
    pub fn with_dep_stream(mut self, p: DepStreamPolicy) -> Self {
        self.dep_stream = p;
        self
    }

    /// Builder-style: change the stream reuse policy.
    pub fn with_stream_reuse(mut self, p: StreamReusePolicy) -> Self {
        self.stream_reuse = p;
        self
    }

    /// Builder-style: toggle the pre-Pascal visibility restriction.
    pub fn with_visibility_restriction(mut self, on: bool) -> Self {
        self.visibility_restriction = on;
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::parallel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let o = Options::parallel();
        assert_eq!(o.dep_stream, DepStreamPolicy::FirstChildOnParent);
        assert_eq!(o.stream_reuse, StreamReusePolicy::FifoReuse);
        assert_eq!(o.prefetch, PrefetchPolicy::Auto);
        assert!(o.visibility_restriction);
        assert_eq!(o.schedule, SchedulePolicy::ParallelAsync);
    }

    #[test]
    fn serial_baseline_never_prefetches() {
        let o = Options::serial();
        assert_eq!(o.prefetch, PrefetchPolicy::None);
        assert_eq!(o.schedule, SchedulePolicy::SerialSync);
    }

    #[test]
    fn builders_compose() {
        let o = Options::parallel()
            .with_prefetch(PrefetchPolicy::None)
            .with_dep_stream(DepStreamPolicy::AlwaysParent)
            .with_stream_reuse(StreamReusePolicy::AlwaysNew)
            .with_visibility_restriction(false);
        assert_eq!(o.prefetch, PrefetchPolicy::None);
        assert_eq!(o.dep_stream, DepStreamPolicy::AlwaysParent);
        assert_eq!(o.stream_reuse, StreamReusePolicy::AlwaysNew);
        assert!(!o.visibility_restriction);
    }
}
