//! Property-based tests of the finite-device-memory state machine.
//!
//! Under random launch/read/write sequences against a capacity-limited
//! multi-device context, two invariants must hold for every eviction
//! policy:
//!
//! * **capacity**: per-device resident bytes never exceed the
//!   configured capacity, at any point in the run;
//! * **no stale reads**: every evicted array is re-fetched before its
//!   next kernel read — checked functionally with a shadow model whose
//!   writes mix everything the kernel read, so a kernel that ran
//!   against a dropped/stale device copy would diverge with
//!   overwhelming probability.

use proptest::prelude::*;
use std::rc::Rc;

use gpu_sim::{DeviceProfile, Grid, KernelCost, Topology, TopologyKind};
use gpu_sim::{EvictionPolicy, MemoryConfig};

use crate::context::Cuda;
use crate::exec::KernelExec;

/// Candidate element counts (f32): 400–1200 bytes per array, so any
/// read+write pair fits the 2400-byte capacity but the 6-array working
/// set (~4.8 KiB) oversubscribes it.
const SIZES: [usize; 6] = [100, 150, 200, 250, 300, 300];
const CAPACITY: usize = 2400;
const N_ARRAYS: usize = 6;
const N_DEVICES: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    /// Launch on `device`: read `src`, write `dst` (dst ≠ src), sync.
    Launch { device: u32, src: usize, dst: usize },
    /// CPU-read an array (syncs its producing chain).
    HostRead(usize),
    /// CPU-write an array (invalidates its device copy).
    HostWrite { idx: usize, value: f32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N_DEVICES as u32, 0..N_ARRAYS, 0..N_ARRAYS).prop_map(|(device, src, mut dst)| {
            if dst == src {
                dst = (dst + 1) % N_ARRAYS;
            }
            Op::Launch { device, src, dst }
        }),
        (0..N_ARRAYS).prop_map(Op::HostRead),
        (0..N_ARRAYS, 0..100u32).prop_map(|(idx, v)| Op::HostWrite {
            idx,
            value: v as f32,
        }),
    ]
}

/// `dst[0] ← dst[0] + 2·src[0] + k` — every write mixes what was read,
/// so a stale read anywhere changes the final numbers.
fn mix_kernel(
    k: f32,
    src: &crate::memory::UnifiedArray,
    dst: &crate::memory::UnifiedArray,
) -> KernelExec {
    KernelExec::new(
        "mix",
        Grid::d1(4, 64),
        KernelCost {
            min_time: 1e-5,
            ..Default::default()
        },
        vec![src.buf.clone(), dst.buf.clone()],
        vec![(src.id, true), (dst.id, false)],
        Rc::new(move |bufs: &[gpu_sim::DataBuffer]| {
            let s = bufs[0].as_f32()[0];
            let mut d = bufs[1].as_f32_mut();
            d[0] += 2.0 * s + k;
        }),
    )
}

fn run_sequence(policy: EvictionPolicy, ops: &[Op]) {
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::preset(TopologyKind::PcieOnly, N_DEVICES, &dev)
        .with_memory(MemoryConfig::with_capacity(CAPACITY).with_eviction(policy));
    let c = Cuda::with_topology(dev, topo);
    let arrays: Vec<_> = SIZES.iter().map(|&n| c.alloc_f32(n)).collect();
    let streams: Vec<_> = (0..N_DEVICES as u32)
        .map(|d| {
            if d == 0 {
                c.default_stream()
            } else {
                c.stream_create_on(d)
            }
        })
        .collect();
    // Shadow model of element 0 of every array.
    let mut shadow = [0f32; N_ARRAYS];

    let check_capacity = |c: &Cuda| {
        let st = c.stats().memory;
        for (d, &r) in st.resident_bytes.iter().enumerate() {
            assert!(
                r <= CAPACITY,
                "device {d} resident {r} B exceeds capacity {CAPACITY} B"
            );
        }
    };

    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Launch { device, src, dst } => {
                let k = i as f32;
                let exec = mix_kernel(k, &arrays[*src], &arrays[*dst]);
                let t = c.launch(streams[*device as usize], &exec).unwrap();
                c.task_sync(t);
                shadow[*dst] += 2.0 * shadow[*src] + k;
                // Every argument — including any previously-evicted one
                // — must be resident on the kernel's device after the
                // launch: the re-fetch happened before the read.
                assert_eq!(
                    c.device_residency(&arrays[*src]),
                    Some(*device),
                    "op {i}: read argument not re-fetched onto device {device}"
                );
                assert_eq!(c.device_residency(&arrays[*dst]), Some(*device));
            }
            Op::HostRead(idx) => {
                c.host_read(&arrays[*idx], 4);
                let got = arrays[*idx].buf.as_f32()[0];
                assert_eq!(got, shadow[*idx], "op {i}: stale host read of {idx}");
            }
            Op::HostWrite { idx, value } => {
                arrays[*idx].buf.as_f32_mut()[0] = *value;
                c.host_written(&arrays[*idx]);
                shadow[*idx] = *value;
                assert_eq!(c.device_residency(&arrays[*idx]), None);
            }
        }
        check_capacity(&c);
    }
    c.device_sync();
    check_capacity(&c);
    assert!(c.races().is_empty(), "sequence raced: {:?}", c.races());
    // Final functional check: no kernel ever read a stale copy.
    for (i, a) in arrays.iter().enumerate() {
        c.host_read(a, 4);
        assert_eq!(a.buf.as_f32()[0], shadow[i], "array {i} diverged");
    }
    // The oversubscribed working set must actually have exercised the
    // eviction machinery on busy sequences; on short ones this is
    // trivially satisfied.
    let st = c.stats().memory;
    assert!(st.peak_resident.iter().all(|&p| p <= CAPACITY));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn capacity_is_never_exceeded_and_reads_are_never_stale(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        policy_idx in 0..EvictionPolicy::ALL.len(),
    ) {
        run_sequence(EvictionPolicy::ALL[policy_idx], &ops);
    }
}

#[test]
fn a_dense_sequence_actually_evicts() {
    // Guard against the property passing vacuously: a deterministic
    // dense launch sequence over the oversubscribed working set must
    // trigger evictions under every policy.
    for policy in EvictionPolicy::ALL {
        let ops: Vec<Op> = (0..24)
            .map(|i| Op::Launch {
                device: (i % N_DEVICES) as u32,
                src: i % N_ARRAYS,
                dst: (i + 3) % N_ARRAYS,
            })
            .collect();
        run_sequence(policy, &ops);
        // Re-run to inspect the stats (run_sequence owns its context).
        let dev = DeviceProfile::tesla_p100();
        let topo = Topology::preset(TopologyKind::PcieOnly, N_DEVICES, &dev)
            .with_memory(MemoryConfig::with_capacity(CAPACITY).with_eviction(policy));
        let c = Cuda::with_topology(dev, topo);
        let arrays: Vec<_> = SIZES.iter().map(|&n| c.alloc_f32(n)).collect();
        let s1 = c.stream_create_on(1);
        for i in 0..24usize {
            let stream = if i % 2 == 0 { c.default_stream() } else { s1 };
            let exec = mix_kernel(1.0, &arrays[i % N_ARRAYS], &arrays[(i + 3) % N_ARRAYS]);
            let t = c.launch(stream, &exec).unwrap();
            c.task_sync(t);
        }
        let st = c.stats().memory;
        assert!(
            st.evictions > 0,
            "{policy:?}: oversubscribed sequence must evict"
        );
    }
}
