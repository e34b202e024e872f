//! Route agreement: the links a migration actually loads are exactly
//! the links `Cuda::placement_probe` priced for it — on both execution
//! paths (prefetch and launch-time fault), for every starting residency
//! and every kind of target the interconnect distinguishes.

use std::rc::Rc;

use cuda_sim::{Cuda, KernelExec, Residency, UnifiedArray};
use gpu_sim::{Cluster, DeviceProfile, Grid, KernelCost, NicKind, Topology, TopologyKind};

const N: usize = 1 << 18; // 1 MiB of f32
const BYTES: f64 = (N * 4) as f64;

/// Where the current copy lives before the migration (device copies sit
/// on device 0).
#[derive(Debug, Clone, Copy)]
enum Start {
    Host,
    Both,
    Device,
}

/// How the migration is executed.
#[derive(Debug, Clone, Copy)]
enum Path {
    Prefetch,
    Fault,
}

fn kernel(name: &'static str, a: &UnifiedArray, read_only: bool) -> KernelExec {
    KernelExec::new(
        name,
        Grid::d1(64, 256),
        KernelCost {
            min_time: 1e-4,
            ..Default::default()
        },
        vec![a.buf.clone()],
        vec![(a.id, read_only)],
        Rc::new(|_| {}),
    )
}

/// Bring a fresh array into `start` (device copies on device 0), make
/// it resident on `target` via `path`, and return the probe's estimate
/// for `target` taken just before plus the labels of the links whose
/// traffic counters moved (each by exactly one whole-array transfer).
fn migrate(topo: &Topology, start: Start, target: u32, path: Path) -> (f64, Vec<String>) {
    let dev = DeviceProfile::tesla_p100();
    let c = Cuda::with_topology(dev, topo.clone());
    let a = c.alloc_f32(N);
    match start {
        Start::Host => {}
        Start::Both => {
            c.prefetch_async(c.default_stream(), &a);
        }
        Start::Device => {
            c.launch(c.default_stream(), &kernel("produce", &a, false));
        }
    }
    c.device_sync();
    let want = match start {
        Start::Host => Residency::Host,
        Start::Both => Residency::Both,
        Start::Device => Residency::Device,
    };
    assert_eq!(c.residency(&a), want);

    let mut est = vec![0.0; topo.device_count()];
    c.placement_probe(&a, &mut est);
    let before = c.stats().links;
    let s = c.stream_create_on(target);
    match path {
        Path::Prefetch => {
            c.prefetch_async(s, &a);
        }
        Path::Fault => {
            c.launch(s, &kernel("consume", &a, true));
        }
    }
    c.device_sync();
    assert_eq!(c.device_residency(&a), Some(target));
    assert!(c.races().is_empty());

    let mut moved = Vec::new();
    for (i, (old, new)) in before.iter().zip(c.stats().links).enumerate() {
        if new != *old {
            assert_eq!(
                new.transfers - old.transfers,
                1,
                "one transfer per crossed link"
            );
            assert!(
                (new.bytes - old.bytes - BYTES).abs() < 0.5,
                "the whole array crosses"
            );
            moved.push(topo.links()[i].label());
        }
    }
    (est[target as usize], moved)
}

#[test]
fn executed_links_are_exactly_the_priced_links() {
    use Start::*;
    let dev = DeviceProfile::tesla_p100();
    let machines = [
        ("pcie", Topology::pcie_only(2, &dev)),
        (
            "nvlink-pair",
            Topology::preset(TopologyKind::NvlinkPair, 4, &dev),
        ),
        (
            "cluster-2x2",
            Cluster::new(2, 2, TopologyKind::NvlinkPair, NicKind::InfinibandHdr).build(&dev),
        ),
    ];
    // (machine, starting residency, target device, links crossed)
    let table: &[(usize, Start, u32, &[&str])] = &[
        (0, Host, 1, &["host-d1"]),
        (0, Both, 0, &[]),
        (0, Both, 1, &["host-d1"]),
        (0, Device, 0, &[]),
        (0, Device, 1, &["host-d0", "host-d1"]),
        (1, Host, 2, &["host-d2"]),
        (1, Both, 0, &[]),
        (1, Both, 1, &["host-d1"]),
        (1, Device, 0, &[]),
        (1, Device, 1, &["d0-d1"]),
        (1, Device, 2, &["host-d0", "host-d2"]),
        (2, Host, 3, &["host-d3"]),
        (2, Both, 0, &[]),
        (2, Both, 2, &["host-d2"]),
        (2, Device, 0, &[]),
        (2, Device, 1, &["d0-d1"]),
        (2, Device, 2, &["host-d0", "host-d2", "n0-n1"]),
    ];
    for (machine, start, target, links) in table {
        let (name, topo) = &machines[*machine];
        for path in [Path::Prefetch, Path::Fault] {
            let (est, moved) = migrate(topo, *start, *target, path);
            let row = format!("{name} {start:?}->d{target} via {path:?}");
            assert_eq!(&moved, links, "{row}: links crossed");
            // The estimate is the sum of one uncontended leg per link
            // crossed — nothing priced that did not move, nothing
            // moved that was not priced.
            let priced: f64 = topo
                .links()
                .iter()
                .filter(|l| moved.contains(&l.label()))
                .map(|l| l.latency + BYTES / l.bandwidth)
                .sum();
            assert!((est - priced).abs() < 1e-12, "{row}: {est} vs {priced}");
            if links.is_empty() {
                assert_eq!(est, 0.0, "{row}: in-place costs nothing");
            }
        }
    }
}
