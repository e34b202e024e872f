//! The finite-device-memory state machine on a dense launch sequence.
//!
//! Launches over an oversubscribed working set on a capacity-limited
//! two-device context must, under every eviction policy:
//!
//! * **capacity**: keep per-device resident bytes within the configured
//!   capacity, at any point in the run;
//! * **no stale reads**: re-fetch every evicted array before its next
//!   kernel read — checked functionally with a shadow model whose writes
//!   mix everything the kernel read;
//! * **evict**: the sequence is dense enough that eviction happens.
//!
//! Every small program through the scheduler, on a cluster whose devices
//! hold two arrays, is `grcuda`'s small-scope checker.

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

/// One launch on `device`: read `src`, write `dst` (dst ≠ src), sync.
#[derive(Debug, Clone, Copy)]
struct Launch {
    device: u32,
    src: usize,
    dst: usize,
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

/// Run `ops` with every check above; returns how many arrays were
/// evicted.
fn run_sequence(policy: EvictionPolicy, ops: &[Launch]) -> usize {
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

    for (i, &Launch { device, src, dst }) in ops.iter().enumerate() {
        let k = i as f32;
        let exec = mix_kernel(k, &arrays[src], &arrays[dst]);
        let t = c.launch(streams[device as usize], &exec).unwrap();
        c.task_sync(t);
        shadow[dst] += 2.0 * shadow[src] + k;
        // Every argument — including any previously-evicted one — must
        // be resident on the kernel's device after the launch: the
        // re-fetch happened before the read.
        assert_eq!(
            c.device_residency(&arrays[src]),
            Some(device),
            "op {i}: read argument not re-fetched onto device {device}"
        );
        assert_eq!(c.device_residency(&arrays[dst]), Some(device));
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
    let st = c.stats().memory;
    assert!(st.peak_resident.iter().all(|&p| p <= CAPACITY));
    st.evictions
}

#[test]
fn a_dense_sequence_actually_evicts() {
    // A deterministic dense launch sequence over the oversubscribed
    // working set must trigger evictions under every policy.
    for policy in EvictionPolicy::ALL {
        let ops: Vec<Launch> = (0..24)
            .map(|i| Launch {
                device: (i % N_DEVICES) as u32,
                src: i % N_ARRAYS,
                dst: (i + 3) % N_ARRAYS,
            })
            .collect();
        assert!(
            run_sequence(policy, &ops) > 0,
            "{policy:?}: oversubscribed sequence must evict"
        );
    }
}
