//! Soak: bounded scheduler memory under sustained traffic.
//!
//! The paper evaluates the scheduler on short benchmark runs; a
//! production service issues kernels for the life of the process. This
//! sweep drives ~102k launches (~6k with `--smoke`) through the GrCUDA
//! scheduler — cycling every benchmark suite, refreshing streaming
//! inputs, reading outputs and syncing periodically like a request loop
//! would — and asserts after every sync that *all* scheduler-side state
//! (live DAG vertices, stored vertices/edges/value states, stream
//! claims, the per-vertex launch records and the engine's retained
//! task states) is bounded by the live frontier, while the lifetime
//! counters keep growing.
//!
//! Each service request submits its whole kernel chain as **one**
//! [`GrCuda::launch_batch`] — the batched-submission fast path that
//! amortizes the host API and scheduling charges over the chain — and
//! reads its outputs back every [`READ_EVERY`] requests rather than
//! after every one, like a pipelined service draining responses in
//! groups.
//!
//! `soak.virtual_launches_per_s` is simulated-time throughput, fully
//! deterministic, and carries the absolute floor of the "10× the
//! scheduler hot path" acceptance bar (~24k/s seed → ≥ 240k/s).

use bench::render_table;
use benchmarks::{grcuda_arrays, read_grcuda_outputs, refresh_grcuda_arrays, tiny, Bench, PlanArg};
use gpu_sim::DeviceProfile;
use grcuda::{Arg, BatchLaunch, GrCuda, Options, Snapshot};

use crate::metric::Metrics;

/// Launches between full syncs.
const SYNC_EVERY: usize = 64;
/// Requests between output reads, and independent request slots.
const READ_EVERY: usize = 8;

struct SuiteReport {
    name: &'static str,
    launches: usize,
    lifetime_vertices: usize,
    peak_live: usize,
    peak_stored: usize,
    /// Simulated seconds of GPU time the suite's launches spanned.
    virtual_secs: f64,
}

/// Panic with context unless the post-sync scheduler footprint is back
/// to the empty-frontier baseline.
fn assert_drained(name: &str, launches: usize, st: &Snapshot) {
    assert!(
        st.is_drained(),
        "{name} after {launches} launches: state leaks — {st:?}"
    );
}

fn soak_suite(b: Bench, quota: usize) -> SuiteReport {
    let spec = b.build(tiny(b));
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    // `READ_EVERY` independent request slots (double-buffering, like a
    // pipelined service with R requests in flight): requests on
    // different slots share no arrays, so their chains overlap on the
    // device instead of serializing behind the previous request.
    let slots: Vec<_> = (0..READ_EVERY).map(|_| grcuda_arrays(&g, &spec)).collect();
    let kernels: Vec<_> = spec
        .ops
        .iter()
        .map(|op| g.build_kernel(op.def).expect("suite signatures parse"))
        .collect();
    // Argument lists never change across requests: build them once per
    // slot.
    let slot_arg_lists: Vec<Vec<Vec<Arg>>> = slots
        .iter()
        .map(|arrays| {
            spec.ops
                .iter()
                .map(|op| {
                    op.args
                        .iter()
                        .map(|a| match a {
                            PlanArg::Arr(i) => Arg::array(&arrays[*i]),
                            PlanArg::Scalar(v) => Arg::scalar(*v),
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    g.sync();
    g.clear_timeline();

    // The live frontier between syncs is at most the launches since the
    // last sync plus the modeled CPU accesses of one request group;
    // storage may additionally hold up to one compaction threshold of
    // retired garbage. Anything past this bound is a leak. Syncs are
    // checked at group boundaries, so the frontier can overshoot
    // `SYNC_EVERY` by at most one group of chains.
    let out_reads: usize = spec.outputs.iter().map(|(_, cnt)| *cnt).sum();
    let live_bound = SYNC_EVERY + READ_EVERY * spec.ops.len() + out_reads + 8;
    let stored_bound = 2 * live_bound + 64;

    let (mut launches, mut since_sync) = (0usize, 0usize);
    let (mut peak_live, mut peak_stored) = (0usize, 0usize);
    for arrays in &slots {
        refresh_grcuda_arrays(&spec, arrays);
    }
    let mut drain_slot = 0usize;
    loop {
        // One request group: every slot's whole kernel chain as a
        // single batched submission. The batch fast path charges the
        // host API and scheduling overheads once for the group, and the
        // slots share no arrays, so their chains run concurrently on
        // the device.
        let calls: Vec<BatchLaunch<'_>> = slot_arg_lists
            .iter()
            .flat_map(|arg_lists| {
                spec.ops
                    .iter()
                    .zip(&kernels)
                    .zip(arg_lists)
                    .map(|((op, kernel), args)| BatchLaunch {
                        kernel,
                        grid: op.grid,
                        args,
                    })
            })
            .collect();
        g.launch_batch(&calls).expect("suite launches validate");
        launches += calls.len();
        since_sync += calls.len();
        let st = g.snapshot();
        peak_live = peak_live.max(st.live_vertices);
        peak_stored = peak_stored.max(st.stored_vertices);
        assert!(
            st.live_vertices <= live_bound,
            "{}: live vertices {} exceed the frontier bound {live_bound}",
            spec.name,
            st.live_vertices
        );
        assert!(
            st.stored_vertices <= stored_bound,
            "{}: stored vertices {} exceed the compaction bound {stored_bound}",
            spec.name,
            st.stored_vertices
        );
        if since_sync >= SYNC_EVERY {
            g.sync();
            g.clear_timeline();
            assert_drained(spec.name, launches, &g.snapshot());
            since_sync = 0;
        }
        if launches >= quota {
            break;
        }
        // Fine-grained response drain: one read per `READ_EVERY`
        // requests, rotating through the slots — the host reads that
        // slot's outputs (retiring its chains without a device-wide
        // sync) and refreshes its streaming inputs; the other slots
        // stay pipelined, retiring through write-after-write
        // dependencies when their next chain lands.
        read_grcuda_outputs(&spec, &slots[drain_slot]);
        refresh_grcuda_arrays(&spec, &slots[drain_slot]);
        drain_slot = (drain_slot + 1) % READ_EVERY;
    }
    g.sync();
    g.clear_timeline();
    let st = g.snapshot();
    assert_drained(spec.name, launches, &st);
    assert!(g.races().is_empty(), "{}: scheduler raced", spec.name);
    assert!(
        st.lifetime_vertices >= launches,
        "every launch was registered"
    );

    SuiteReport {
        name: spec.name,
        launches,
        lifetime_vertices: st.lifetime_vertices,
        peak_live,
        peak_stored,
        virtual_secs: g.now(),
    }
}

pub fn run(smoke: bool, m: &mut Metrics) {
    let total_launches = if smoke { 6_000usize } else { 102_000 };
    let quota = total_launches.div_ceil(Bench::ALL.len());

    println!(
        "soak: ~{total_launches} launches over {} suites, full sync every {SYNC_EVERY} \
         launches, output reads every {READ_EVERY} requests\n",
        Bench::ALL.len()
    );
    let reports: Vec<SuiteReport> = Bench::ALL.iter().map(|&b| soak_suite(b, quota)).collect();

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.launches.to_string(),
                r.lifetime_vertices.to_string(),
                r.peak_live.to_string(),
                r.peak_stored.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "suite",
                "launches",
                "lifetime vertices",
                "peak live",
                "peak stored",
            ],
            &rows,
        )
    );

    let launches: usize = reports.iter().map(|r| r.launches).sum();
    let virtual_secs: f64 = reports.iter().map(|r| r.virtual_secs).sum();
    let virtual_rate = launches as f64 / virtual_secs;
    println!(
        "soak OK: {launches} launches, {virtual_rate:.0} per simulated second; \
         all scheduler maps drained to 0 after every sync"
    );
    m.exact("soak.launches", launches as f64);
    m.higher("soak.virtual_launches_per_s", virtual_rate)
        .floor(240_000.0);
}
