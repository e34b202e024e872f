//! Exhaustive checks of the discrete-event engine and the memory
//! manager: each property holds on every input up to a stated bound,
//! each input enumerated once, in canonical order, so a check's verdict
//! depends only on its bound. Conservation laws and determinism hold for
//! every workload of up to four kernels; victim selection matches its
//! model on every short history of two devices.

use crate::engine::{Engine, TaskId};
use crate::profile::DeviceProfile;
use crate::task::TaskSpec;

/// Every sequence of 1 to `len` symbols drawn from `0..n`: shorter ones
/// first, each length in lexicographic order.
pub(crate) fn sequences(n: usize, len: u32) -> impl Iterator<Item = Vec<usize>> {
    (1..=len).flat_map(move |l| {
        (0..n.pow(l)).map(move |code| (0..l).rev().map(|p| code / n.pow(p) % n).collect())
    })
}

/// Whether ids (devices, values) are numbered in order of first use,
/// which leaves out most renamings of an input already enumerated.
pub(crate) fn first_use(ids: impl IntoIterator<Item = u64>) -> bool {
    let mut next = 0;
    ids.into_iter().all(|id| {
        next += u64::from(id == next);
        id < next
    })
}

/// One kernel of a workload: its solo time, its SM share and how many
/// submissions back each of its dependencies is.
#[derive(Debug, Clone)]
struct Kernel {
    work_us: u32,
    sm_pct: u32,
    dep_offsets: Vec<usize>,
}

/// Every workload of 1 to 4 kernels: each 100 or 300 µs long, on 40 % or
/// 70 % of the SMs (two of the first share the machine, any pair with
/// the second contends), depending on any subset of the one or two
/// kernels submitted just before it. 8 740 workloads.
fn workloads() -> impl Iterator<Item = Vec<Kernel>> {
    let alphabet: Vec<Kernel> = (0..16)
        .map(|s| Kernel {
            work_us: [100, 300][s & 1],
            sm_pct: [40, 70][s >> 1 & 1],
            dep_offsets: [1, 2]
                .into_iter()
                .filter(|o| s >> (1 + o) & 1 == 1)
                .collect(),
        })
        .collect();
    sequences(alphabet.len(), 4)
        .map(move |w| w.iter().map(|&s| alphabet[s].clone()).collect::<Vec<_>>())
        // An offset past the first kernel names nothing: such a
        // workload is the same as the one without it.
        .filter(|w: &Vec<Kernel>| {
            w.iter()
                .enumerate()
                .all(|(i, k)| k.dep_offsets.iter().all(|&o| o <= i))
        })
}

/// Submit the workload and return (makespan, per-task (start, end)
/// indexed by submission order).
fn run(tasks: &[Kernel], dev: DeviceProfile) -> (f64, Vec<(f64, f64)>) {
    let mut e = Engine::new(dev);
    let mut ids: Vec<TaskId> = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let deps: Vec<TaskId> = t.dep_offsets.iter().map(|&off| ids[i - off]).collect();
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

/// Makespan is bounded below by the longest task and above by the
/// serial sum (work conservation: sharing never creates or destroys
/// work).
#[test]
fn makespan_is_bounded() {
    let mut checked = 0;
    for tasks in workloads() {
        let (makespan, spans) = run(&tasks, DeviceProfile::gtx1660_super());
        let longest = tasks
            .iter()
            .map(|t| t.work_us as f64 * 1e-6)
            .fold(0.0, f64::max);
        let total: f64 = tasks.iter().map(|t| t.work_us as f64 * 1e-6).sum();
        assert!(
            makespan >= longest - 1e-12,
            "{makespan} < longest {longest}: {tasks:?}"
        );
        assert!(
            makespan <= total + 1e-9,
            "{makespan} > serial sum {total}: {tasks:?}"
        );
        assert_eq!(spans.len(), tasks.len());
        checked += 1;
    }
    assert_eq!(checked, 8_740);
}

/// Every task runs at least as long as its solo duration (contention
/// only slows things down), and intervals are well-formed.
#[test]
fn contention_never_speeds_a_task_up() {
    for tasks in workloads() {
        let (_, spans) = run(&tasks, DeviceProfile::tesla_p100());
        for (i, ((s, e), t)) in spans.iter().zip(&tasks).enumerate() {
            let dur = e - s;
            let solo = t.work_us as f64 * 1e-6;
            assert!(
                dur >= solo - 1e-12,
                "task {i} beat its solo time: {dur} < {solo}: {tasks:?}"
            );
            assert!(e >= s);
        }
    }
}

/// The engine is deterministic: same workload, same timeline.
#[test]
fn engine_is_deterministic() {
    for tasks in workloads() {
        let a = run(&tasks, DeviceProfile::gtx960());
        let b = run(&tasks, DeviceProfile::gtx960());
        assert_eq!(a, b, "{tasks:?}");
    }
}

/// Dependencies are respected: a task never starts before each of its
/// dependencies ends.
#[test]
fn dependencies_order_execution() {
    for tasks in workloads() {
        let (_, spans) = run(&tasks, DeviceProfile::gtx1660_super());
        for (i, t) in tasks.iter().enumerate() {
            for &off in &t.dep_offsets {
                let j = i - off;
                assert!(
                    spans[i].0 >= spans[j].1 - 1e-12,
                    "task {i} started at {} before dep {j} ended at {}: {tasks:?}",
                    spans[i].0,
                    spans[j].1
                );
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

impl MemOp {
    fn value(self) -> u64 {
        match self {
            MemOp::Insert { value, .. }
            | MemOp::Touch { value, .. }
            | MemOp::Remove { value, .. } => value,
        }
    }
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

/// Every history of 1 to 3 updates over two devices and three values of
/// 1 or 2 KiB (values numbered in order of first use), under both
/// policies; then on each device every need of 0, 1, 3 and 6 KiB, with
/// nothing or value 0 pinned. 2 696 histories.
#[test]
fn victims_match_a_btreemap_model_under_every_policy() {
    let mut alphabet = Vec::new();
    for device in 0..2 {
        for value in 0..3 {
            alphabet.extend([1, 2].map(|kib| MemOp::Insert {
                device,
                value,
                bytes: kib << 10,
            }));
            alphabet.extend([
                MemOp::Touch { device, value },
                MemOp::Remove { device, value },
            ]);
        }
    }
    // Ties on purpose, and prices that do not follow first use: values
    // 0 and 2 cost the same at the same size.
    let cost = |v: ValueId, bytes: usize| (v.0 % 2) as f64 + (bytes >> 11) as f64;
    let pins = [vec![], vec![ValueId(0)]];
    let mut checked = 0;
    for ops in sequences(alphabet.len(), 3) {
        let ops: Vec<MemOp> = ops.iter().map(|&o| alphabet[o]).collect();
        if !first_use(ops.iter().map(|op| op.value())) {
            continue;
        }
        for policy in EvictionPolicy::ALL {
            let cfg = MemoryConfig::with_capacity(usize::MAX).with_eviction(policy);
            let mut manager = MemoryManager::new(2, cfg);
            // value -> (device, bytes, last use), one copy per value.
            let mut model: BTreeMap<u64, (u32, usize, u64)> = BTreeMap::new();
            let mut clock = 0u64;
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    MemOp::Insert {
                        device,
                        value,
                        bytes,
                    } => {
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
                        assert_eq!(manager.remove(device, ValueId(value)), want, "{ops:?}");
                    }
                }
            }
            for device in 0..2 {
                let bytes: usize = model.values().filter(|e| e.0 == device).map(|e| e.1).sum();
                assert_eq!(manager.resident_bytes(device), bytes, "{ops:?}");
                for need in [0, 1 << 10, 3 << 10, 6 << 10] {
                    for pinned in &pins {
                        let got = manager.select_victims(device, need, pinned, cost);
                        let want = model_victims(&model, policy, device, need, pinned, cost);
                        assert_eq!(
                            got, want,
                            "{policy:?} on device {device}, need {need}: {ops:?}"
                        );
                    }
                }
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 2_696);
}
