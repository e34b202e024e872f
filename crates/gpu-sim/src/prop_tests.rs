//! Property tests of the discrete-event engine: conservation laws and
//! determinism that must hold for any workload.

use proptest::prelude::*;

use crate::engine::{Engine, TaskId};
use crate::profile::DeviceProfile;
use crate::task::TaskSpec;

/// A randomly-shaped workload: per task, (fluid work µs, SM fraction %,
/// dependency back-offsets).
#[derive(Debug, Clone)]
struct RandomTask {
    work_us: u32,
    sm_pct: u32,
    dep_offsets: Vec<usize>,
}

fn tasks_strategy() -> impl Strategy<Value = Vec<RandomTask>> {
    proptest::collection::vec(
        (
            1u32..500,
            1u32..100,
            proptest::collection::vec(1usize..4, 0..3),
        ),
        1..24,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(work_us, sm_pct, dep_offsets)| RandomTask {
                work_us,
                sm_pct,
                dep_offsets,
            })
            .collect()
    })
}

/// Submit the workload and return (makespan, per-task (start, end)
/// indexed by submission order).
fn run(tasks: &[RandomTask], dev: DeviceProfile) -> (f64, Vec<(f64, f64)>) {
    let mut e = Engine::new(dev);
    let mut ids: Vec<TaskId> = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let deps: Vec<TaskId> = t
            .dep_offsets
            .iter()
            .filter_map(|&off| i.checked_sub(off).map(|j| ids[j]))
            .collect();
        let spec = TaskSpec::kernel("k", i as u32)
            .fluid(t.work_us as f64 * 1e-6)
            .sm_frac(t.sm_pct as f64 / 100.0);
        ids.push(e.submit(spec, &deps));
    }
    e.sync_all();
    let mut spans = vec![(0.0, 0.0); tasks.len()];
    for iv in e.timeline().intervals() {
        spans[iv.task as usize] = (iv.start, iv.end);
    }
    (e.now(), spans)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Makespan is bounded below by the longest task and above by the
    /// serial sum (work conservation: sharing never creates or destroys
    /// work).
    #[test]
    fn makespan_is_bounded(tasks in tasks_strategy()) {
        let (makespan, spans) = run(&tasks, DeviceProfile::gtx1660_super());
        let longest = tasks.iter().map(|t| t.work_us as f64 * 1e-6).fold(0.0, f64::max);
        let total: f64 = tasks.iter().map(|t| t.work_us as f64 * 1e-6).sum();
        prop_assert!(makespan >= longest - 1e-12, "{makespan} < longest {longest}");
        prop_assert!(makespan <= total + 1e-9, "{makespan} > serial sum {total}");
        prop_assert_eq!(spans.len(), tasks.len());
    }

    /// Every task runs at least as long as its solo duration (contention
    /// only slows things down), and intervals are well-formed.
    #[test]
    fn contention_never_speeds_a_task_up(tasks in tasks_strategy()) {
        let (_, spans) = run(&tasks, DeviceProfile::tesla_p100());
        for (i, ((s, e), t)) in spans.iter().zip(&tasks).enumerate() {
            let dur = e - s;
            let solo = t.work_us as f64 * 1e-6;
            prop_assert!(dur >= solo - 1e-12, "task {i} beat its solo time: {dur} < {solo}");
            prop_assert!(e >= s);
        }
    }

    /// The engine is deterministic: same workload, same timeline.
    #[test]
    fn engine_is_deterministic(tasks in tasks_strategy()) {
        let a = run(&tasks, DeviceProfile::gtx960());
        let b = run(&tasks, DeviceProfile::gtx960());
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// Dependencies are respected: a task never starts before each of
    /// its dependencies ends.
    #[test]
    fn dependencies_order_execution(tasks in tasks_strategy()) {
        let mut e = Engine::new(DeviceProfile::gtx1660_super());
        let mut ids = Vec::new();
        for (i, t) in tasks.iter().enumerate() {
            let deps: Vec<TaskId> = t
                .dep_offsets
                .iter()
                .filter_map(|&off| i.checked_sub(off).map(|j| ids[j]))
                .collect();
            let spec = TaskSpec::kernel("k", i as u32)
                .fluid(t.work_us as f64 * 1e-6)
                .sm_frac(t.sm_pct as f64 / 100.0);
            ids.push(e.submit(spec, &deps));
        }
        e.sync_all();
        let mut span_of = vec![(0.0f64, 0.0f64); tasks.len()];
        for iv in e.timeline().intervals() {
            span_of[iv.task as usize] = (iv.start, iv.end);
        }
        for (i, t) in tasks.iter().enumerate() {
            for &off in &t.dep_offsets {
                if let Some(j) = i.checked_sub(off) {
                    prop_assert!(
                        span_of[i].0 >= span_of[j].1 - 1e-12,
                        "task {i} started at {} before dep {j} ended at {}",
                        span_of[i].0,
                        span_of[j].1
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Victim selection over the id-indexed resident table, against a model
// that keeps the resident set in a `BTreeMap`.
// ---------------------------------------------------------------------

use std::collections::BTreeMap;

use crate::data::ValueId;
use crate::memory_manager::{EvictionPolicy, MemoryConfig, MemoryManager, Victim};

/// One update of the resident sets of a two-device manager.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    Insert {
        device: u32,
        value: u64,
        bytes: usize,
    },
    Touch {
        device: u32,
        value: u64,
    },
    Remove {
        device: u32,
        value: u64,
    },
}

fn mem_op_strategy() -> impl Strategy<Value = MemOp> {
    let (device, value) = (0..2u32, 0..12u64);
    prop_oneof![
        (device.clone(), value.clone(), 1..6usize).prop_map(|(device, value, kib)| {
            MemOp::Insert {
                device,
                value,
                bytes: kib << 10,
            }
        }),
        (device.clone(), value.clone(), 1..6usize).prop_map(|(device, value, kib)| {
            MemOp::Insert {
                device,
                value,
                bytes: kib << 10,
            }
        }),
        (device.clone(), value.clone()).prop_map(|(device, value)| MemOp::Touch { device, value }),
        (device, value).prop_map(|(device, value)| MemOp::Remove { device, value }),
    ]
}

/// What [`MemoryManager::select_victims`] promises, written the plain
/// way: the device's unpinned entries, fully ordered by the policy key
/// with the id as tie-break, taken until `need` bytes are covered.
fn model_victims(
    resident: &BTreeMap<u64, (u32, usize, u64)>,
    policy: EvictionPolicy,
    device: u32,
    need: usize,
    pinned: &[ValueId],
    cost: impl Fn(ValueId, usize) -> f64,
) -> Vec<Victim> {
    let mut candidates: Vec<(u64, usize, u64)> = resident
        .iter()
        .filter(|(v, (d, _, _))| *d == device && !pinned.contains(&ValueId(**v)))
        .map(|(v, (_, bytes, last_use))| (*v, *bytes, *last_use))
        .collect();
    match policy {
        EvictionPolicy::Lru => candidates.sort_by_key(|&(v, _, last_use)| (last_use, v)),
        EvictionPolicy::CostAware => candidates.sort_by(|a, b| {
            let (ca, cb) = (cost(ValueId(a.0), a.1), cost(ValueId(b.0), b.1));
            ca.total_cmp(&cb).then(a.0.cmp(&b.0))
        }),
    }
    let mut freed = 0;
    candidates
        .into_iter()
        .take_while(|&(_, bytes, _)| {
            let take = freed < need;
            freed += bytes;
            take
        })
        .map(|(v, bytes, _)| Victim {
            value: ValueId(v),
            bytes,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn victims_match_a_btreemap_model_under_every_policy(
        ops in proptest::collection::vec(mem_op_strategy(), 1..60),
        need_kib in 0..40usize,
        pinned in proptest::collection::vec(0..12u64, 0..3),
    ) {
        let pinned: Vec<ValueId> = pinned.into_iter().map(ValueId).collect();
        // Ties on purpose: few distinct prices.
        let cost = |v: ValueId, bytes: usize| ((v.0 * 7) % 3) as f64 + (bytes >> 12) as f64;
        for policy in EvictionPolicy::ALL {
            let cfg = MemoryConfig::with_capacity(usize::MAX).with_eviction(policy);
            let mut manager = MemoryManager::new(2, cfg);
            // value -> (device, bytes, last use), one copy per value.
            let mut model: BTreeMap<u64, (u32, usize, u64)> = BTreeMap::new();
            let mut clock = 0u64;
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    MemOp::Insert { device, value, bytes } => {
                        clock += 1;
                        manager.insert(device, ValueId(value), bytes, i as f64);
                        model.insert(value, (device, bytes, clock));
                    }
                    MemOp::Touch { device, value } => {
                        clock += 1;
                        manager.touch(device, ValueId(value));
                        if let Some(e) = model.get_mut(&value).filter(|e| e.0 == device) {
                            e.2 = clock;
                        }
                    }
                    MemOp::Remove { device, value } => {
                        let here = model.get(&value).is_some_and(|e| e.0 == device);
                        let want = here.then(|| model.remove(&value).expect("present").1);
                        prop_assert_eq!(manager.remove(device, ValueId(value)), want);
                    }
                }
            }
            for device in 0..2 {
                let bytes: usize = model.values().filter(|e| e.0 == device).map(|e| e.1).sum();
                prop_assert_eq!(manager.resident_bytes(device), bytes);
                let got = manager.select_victims(device, need_kib << 10, &pinned, cost);
                let want = model_victims(&model, policy, device, need_kib << 10, &pinned, cost);
                prop_assert_eq!(got, want, "{:?} on device {}", policy, device);
            }
        }
    }
}
