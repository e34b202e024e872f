//! Heap allocations per launch on the steady-state launch path.
//!
//! Host time is too noisy to gate in CI; the number of allocations a
//! launch makes is not — it repeats exactly for a given program — and
//! it is what most per-launch glue costs come down to. A counting
//! allocator (this test binary only; the library crates all
//! `forbid(unsafe_code)`) measures a window of `launch_batch` + host
//! read + `sync` rounds after the runtime's retained buffers have grown
//! to their working size, on one GPU and on a 2x8 cluster, and holds
//! the count per launch under a recorded budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_sim::{DeviceProfile, EvictionPolicy, MemoryConfig, NicKind, TopologyKind};
use grcuda::{Cluster, GrCuda, Options, PlacementPolicy};

mod common;

/// Counts the calling thread's allocations (tests run on parallel
/// threads, so a process-wide counter would mix them).
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor runs after teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// addition is a thread-local counter bump, which cannot allocate,
// unwind or re-enter the allocator (see `ALLOCATIONS`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
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

/// Allocations per launch over the measured window of fork/join rounds
/// ([`common::ForkJoin`], 80 launches a batch) on `g`. One host read
/// and a full sync a round; the timeline is cleared each round, as a
/// long-running service does.
fn allocations_per_launch(g: &GrCuda) -> f64 {
    let program = common::ForkJoin::new(g, GROUPS, N);
    let batch = program.batch();
    let mut round = |r: usize| {
        g.launch_batch(&batch).unwrap();
        assert!(program.groups[r % GROUPS][4].get_f32(0).is_finite());
        g.sync();
        g.clear_timeline();
    };
    (0..WARM_UP_ROUNDS).for_each(&mut round);
    let before = ALLOCATIONS.with(Cell::get);
    (WARM_UP_ROUNDS..WARM_UP_ROUNDS + MEASURED_ROUNDS).for_each(&mut round);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(g.races().is_empty());
    allocations as f64 / (MEASURED_ROUNDS * batch.len()) as f64
}

/// Run `measure` twice: the count must repeat exactly, and stay within
/// `budget`. Debug builds re-solve every rate refresh with the dense
/// reference solver, which allocates, so there only the repeat is
/// checked; `cargo test --release --test alloc_budget` holds the budget.
fn check(what: &str, budget: f64, measure: impl Fn() -> f64) {
    let per_launch = measure();
    eprintln!("{what}: {per_launch} allocations per launch");
    assert_eq!(per_launch, measure(), "{what}: the count must repeat");
    assert!(
        cfg!(debug_assertions) || per_launch <= budget,
        "{what}: {per_launch} allocations per launch, budget {budget}"
    );
}

// Recorded with the change that introduced this test (release build):
// 22.79 on one P100, 27.88 and 30.83 on the cluster; the same windows
// at its parent commit measured 41.41, 60.75 and 63.59.
const ONE_GPU_BUDGET: f64 = 23.0;
const CLUSTER_NODE_AWARE_BUDGET: f64 = 28.0;
const CLUSTER_SINGLE_GPU_BUDGET: f64 = 31.0;

#[test]
fn one_gpu_launches_stay_within_their_allocation_budget() {
    check("one P100", ONE_GPU_BUDGET, || {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        allocations_per_launch(&g)
    });
}

#[test]
fn cluster_launches_stay_within_their_allocation_budget() {
    // Finite memory, three quarters of the arrays the kernels write:
    // a policy that keeps everything on one device runs victim
    // selection, spills and re-fetches too.
    let run = |policy| {
        let capacity = (5 * GROUPS * 3 / 4) * N * 4;
        let memory = MemoryConfig::with_capacity(capacity).with_eviction(EvictionPolicy::CostAware);
        let cluster = Cluster::new(2, 8, TopologyKind::NvlinkPair, NicKind::InfinibandHdr)
            .with_memory(memory);
        let dev = DeviceProfile::tesla_p100();
        let g = GrCuda::with_cluster(dev, &cluster, Options::parallel(), policy);
        allocations_per_launch(&g)
    };
    check("2x8 cluster, node-aware", CLUSTER_NODE_AWARE_BUDGET, || {
        run(PlacementPolicy::NodeAware)
    });
    check("2x8 cluster, single-gpu", CLUSTER_SINGLE_GPU_BUDGET, || {
        run(PlacementPolicy::SingleGpu)
    });
}
