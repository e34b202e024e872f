//! Heap allocations per launch on the steady-state launch path.
//!
//! Host time is too noisy to gate in CI; the number of allocations a
//! launch makes is not — it repeats exactly for a given program — and
//! it is what most per-launch glue costs come down to. A counting
//! allocator (this test binary only; the library crates all
//! `forbid(unsafe_code)`) measures a window of rounds after the
//! runtime's retained buffers have grown to their working size — batched
//! fork/join rounds on one GPU and on a 2x8 cluster, interactive chains
//! (host write, serial launches, host read) and a `ServiceCore` submit →
//! pump → read cycle — and holds the count per launch under a recorded
//! budget. It also tracks net live bytes (allocated − freed): over a
//! window of the launch path that must stay near zero whatever the
//! window's length, or some pool grows with launches instead of with
//! the in-flight window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_sim::{Cluster, DeviceProfile, EvictionPolicy, Grid, MemoryConfig, NicKind, TopologyKind};
use grcuda::serve::{ArgSpec, CallSpec, ElemKind, RequestSpec, ServeConfig, ServiceCore};
use grcuda::{Arg, GrCuda, Options, PlacementPolicy};
use kernels::util::SCALE;

mod common;

/// Counts the calling thread's allocations and live bytes (tests run on
/// parallel threads, so process-wide counters would mix them).
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator neither allocates nor runs after teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn live_bytes_add(delta: isize) {
    LIVE_BYTES.with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// addition is thread-local counter arithmetic, which cannot allocate,
// unwind or re-enter the allocator (see `ALLOCATIONS`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        live_bytes_add(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_bytes_add(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        live_bytes_add(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, and the caller upholds
        // `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 1 << 10;
const GROUPS: usize = 16;
const WARM_UP_ROUNDS: usize = 8;
const MEASURED_ROUNDS: usize = 16;

/// What a measured window cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cost {
    allocations_per_launch: f64,
    /// Bytes allocated minus bytes freed over the window.
    live_bytes: isize,
}

/// Run `warm_up` rounds, then measure `rounds` more of `launches`
/// launches each. Rounds are numbered through.
fn measure(warm_up: usize, rounds: usize, launches: usize, mut round: impl FnMut(usize)) -> Cost {
    (0..warm_up).for_each(&mut round);
    let before = (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    (warm_up..warm_up + rounds).for_each(&mut round);
    let allocations = ALLOCATIONS.with(Cell::get) - before.0;
    Cost {
        allocations_per_launch: allocations as f64 / (rounds * launches) as f64,
        live_bytes: LIVE_BYTES.with(Cell::get) - before.1,
    }
}

/// `rounds` measured fork/join rounds ([`common::ForkJoin`], 80
/// launches a batch) on `g`. One host read and a full sync a round; the
/// timeline is cleared each round, as a long-running service does.
fn fork_join_rounds(g: &GrCuda, rounds: usize) -> Cost {
    let program = common::ForkJoin::new(g, GROUPS, N);
    let batch = program.batch();
    let cost = measure(WARM_UP_ROUNDS, rounds, batch.len(), |r| {
        g.launch_batch(&batch).unwrap();
        assert!(program.groups[r % GROUPS][4].get_f32(0).is_finite());
        g.sync();
        g.clear_timeline();
    });
    assert!(g.races().is_empty());
    cost
}

const CHAINS: usize = 8;
const CHAIN_LAUNCHES: usize = 6;

/// `rounds` measured rounds of the interactive shape on `g`: per chain
/// a host write, six serial `Kernel::launch` calls ping-ponging between
/// two arrays, a host read. No batch and no full sync; the timeline is
/// cleared each round.
fn interactive_rounds(g: &GrCuda, rounds: usize) -> Cost {
    let scale = g.build_kernel(&SCALE).unwrap();
    let chains: Vec<[Vec<Arg>; 2]> = (0..CHAINS)
        .map(|_| {
            let (a, b) = (g.array_f32(N), g.array_f32(N));
            let call =
                |src, dst, by| vec![Arg::array(src), Arg::array(dst), by, Arg::scalar(N as f64)];
            [
                call(&a, &b, Arg::scalar(0.5)),
                call(&b, &a, Arg::scalar(2.0)),
            ]
        })
        .collect();
    let cost = measure(WARM_UP_ROUNDS, rounds, CHAINS * CHAIN_LAUNCHES, |r| {
        for [there, back] in &chains {
            let Arg::Array(a) = &there[0] else {
                unreachable!()
            };
            a.set_f32(0, r as f32);
            for _ in 0..CHAIN_LAUNCHES / 2 {
                scale.launch(Grid::d1(16, 256), there).unwrap();
                scale.launch(Grid::d1(16, 256), back).unwrap();
            }
            assert_eq!(a.get_f32(0), r as f32);
        }
        g.clear_timeline();
    });
    assert!(g.races().is_empty());
    cost
}

const TENANTS: usize = 4;
const REQUEST_LAUNCHES: usize = 3;

/// `rounds` measured service cycles: every tenant submits one
/// three-launch request, the core pumps until idle, every tenant reads
/// its result, then the idle core's housekeeping runs.
fn service_rounds(rounds: usize) -> Cost {
    let mut core = ServiceCore::new(ServeConfig::new(
        DeviceProfile::tesla_p100(),
        Options::parallel(),
    ));
    let tenants: Vec<_> = (0..TENANTS)
        .map(|i| {
            let t = core.add_tenant(&format!("tenant-{i}"), 1);
            let kernel = core.register_kernel(t, &SCALE).unwrap();
            let x = core.alloc(t, ElemKind::F32, N).unwrap();
            let y = core.alloc(t, ElemKind::F32, N).unwrap();
            core.fill(t, x, 1.0).unwrap();
            (t, kernel, x, y)
        })
        .collect();
    measure(WARM_UP_ROUNDS, rounds, TENANTS * REQUEST_LAUNCHES, |_| {
        for &(t, kernel, x, y) in &tenants {
            let calls = [(x, y), (y, x), (x, y)]
                .map(|(src, dst)| CallSpec {
                    kernel,
                    grid: Grid::d1(16, 256),
                    args: vec![
                        ArgSpec::Array(src),
                        ArgSpec::Array(dst),
                        ArgSpec::Scalar(1.0),
                        ArgSpec::Scalar(N as f64),
                    ],
                })
                .to_vec();
            let spec = RequestSpec {
                calls,
                deadline_us: None,
            };
            core.submit(t, spec).unwrap();
        }
        while !core.idle() {
            core.pump();
            core.complete_oldest();
        }
        for &(t, _, _, y) in &tenants {
            assert_eq!(core.read(t, y, 0).unwrap(), 1.0);
        }
        core.maintain();
    })
}

/// Run `measure` twice: the count must repeat exactly, and stay within
/// `budget`. Debug builds re-solve every rate refresh with the dense
/// reference solver, which allocates, so there only the repeat is
/// checked; `cargo test --release --test alloc_budget` holds the budget.
fn check(what: &str, budget: f64, measure: impl Fn(usize) -> Cost) -> Cost {
    let cost = measure(MEASURED_ROUNDS);
    eprintln!(
        "{what}: {} allocations per launch, {:+} B live",
        cost.allocations_per_launch, cost.live_bytes
    );
    assert_eq!(cost, measure(MEASURED_ROUNDS), "{what}: must repeat");
    assert!(
        cfg!(debug_assertions) || cost.allocations_per_launch <= budget,
        "{what}: {} allocations per launch, budget {budget}",
        cost.allocations_per_launch
    );
    cost
}

/// [`check`], and what the window leaves allocated must be next to
/// nothing — also for a window four times as long, held to the same
/// absolute bound: every pool on the launch path is bounded by the
/// in-flight window, not by the launches made. (The residue is the
/// capacity difference between the buffers that happened to sit in the
/// pools at the two ends of the window.)
fn check_launch_path(what: &str, budget: f64, measure: impl Fn(usize) -> Cost) {
    let cost = check(what, budget, &measure);
    let longer = measure(4 * MEASURED_ROUNDS);
    eprintln!(
        "{what}, 4x window: {} allocations per launch, {:+} B live",
        longer.allocations_per_launch, longer.live_bytes
    );
    assert!(
        cfg!(debug_assertions) || longer.allocations_per_launch <= budget,
        "{what}, 4x window: {} allocations per launch, budget {budget}",
        longer.allocations_per_launch
    );
    for window in [cost, longer] {
        assert!(
            cfg!(debug_assertions) || window.live_bytes.abs() <= LIVE_BYTES_BOUND,
            "{what}: {:+} B live after a window",
            window.live_bytes
        );
    }
}

/// Net live bytes a launch-path window may leave behind.
const LIVE_BYTES_BOUND: isize = 1024;

// Allocations per launch, recorded (release build) with the change
// that made the launch path recycle its buffers, and rounded up: 0.0625
// on one P100, 1.54 and 4.78 on the cluster (22.79, 27.88 and 30.83 at
// its parent), 0.67 for the interactive chains — all of it the modelled
// host read at the end of a chain. `single-gpu` on the cluster is 3.3:
// `launch_batch` builds the partitioner's input only for a policy that
// reads node hints, which `single-gpu` does not. The service cycle
// was 8.13 then, 6.46 since admission reads queue heads off the tenant
// table (the four per-slot context vectors were 20 of a cycle's 97.5
// allocations) and is 5.46 since a queued call names its kernel by
// index instead of holding a clone of it (a parameter list per call).
// Since every task, interval and DAG vertex names its operation with a
// `&'static str` the five read 0.05, 1.525, 3.2875, 0.5 and 5.125: a
// modelled host read no longer copies its tag into a vertex `String`,
// nor its copy leg's label into a task `String`.
//
// The rule for a budget: the recorded count plus at most 0.05, so a
// regression of more than one allocation per twenty launches fails. A
// doubled one-GPU count does, and so would the 0.17 per launch that a
// host read's owned label once cost the interactive chains.
const ONE_GPU_BUDGET: f64 = 0.075;
const CLUSTER_NODE_AWARE_BUDGET: f64 = 1.55;
const CLUSTER_SINGLE_GPU_BUDGET: f64 = 3.3;
const INTERACTIVE_BUDGET: f64 = 0.55;
const SERVICE_BUDGET: f64 = 5.15;

#[test]
fn one_gpu_launches_stay_within_their_allocation_budget() {
    check_launch_path("one P100", ONE_GPU_BUDGET, |rounds| {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        fork_join_rounds(&g, rounds)
    });
}

#[test]
fn cluster_launches_stay_within_their_allocation_budget() {
    // Finite memory, three quarters of the arrays the kernels write:
    // a policy that keeps everything on one device runs victim
    // selection, spills and re-fetches too.
    let run = |policy, rounds| {
        let capacity = (5 * GROUPS * 3 / 4) * N * 4;
        let memory = MemoryConfig::with_capacity(capacity).with_eviction(EvictionPolicy::CostAware);
        let cluster = Cluster::new(2, 8, TopologyKind::NvlinkPair, NicKind::InfinibandHdr)
            .with_memory(memory);
        let dev = DeviceProfile::tesla_p100();
        let g = GrCuda::with_cluster(dev, &cluster, Options::parallel(), policy);
        fork_join_rounds(&g, rounds)
    };
    let budget = CLUSTER_NODE_AWARE_BUDGET;
    check_launch_path("2x8 cluster, node-aware", budget, |rounds| {
        run(PlacementPolicy::NodeAware, rounds)
    });
    let budget = CLUSTER_SINGLE_GPU_BUDGET;
    check_launch_path("2x8 cluster, single-gpu", budget, |rounds| {
        run(PlacementPolicy::SingleGpu, rounds)
    });
}

#[test]
fn interactive_launches_stay_within_their_allocation_budget() {
    check_launch_path("interactive chains", INTERACTIVE_BUDGET, |rounds| {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        interactive_rounds(&g, rounds)
    });
}

#[test]
fn service_cycles_stay_within_their_allocation_budget() {
    // The service allocates by design — a request owns its resolved
    // argument lists and every completion appends a latency sample — so
    // this window holds the count, not the live bytes.
    check("service cycle", SERVICE_BUDGET, service_rounds);
}
