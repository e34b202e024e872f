//! Interconnect-topology model: the links data moves over.
//!
//! The engine's per-device resource pools model what happens *inside* a
//! device; a [`Topology`] models what happens *between* them. Every
//! device always has a host link (PCIe); presets additionally wire
//! device↔device links (NVLink-style) that migrations can use for
//! direct peer-to-peer DMA instead of staging through the host.
//!
//! Links are first-class resources in the fluid rate solver: every
//! transfer names the link it moves over and its [`Dir`] along it, and
//! concurrent transfers on the same link share its bandwidth max–min
//! fairly. Which bandwidth a transfer shares is decided in one place,
//! the engine's `columns`: a host link is full duplex, while a
//! device-to-device or NIC link is a single aggregate capacity for both
//! directions (the common way NVLink bandwidth is quoted).

use crate::memory_manager::MemoryConfig;
use crate::profile::DeviceProfile;
use crate::Time;

/// Default bandwidth of a device↔device (NVLink-style) link, bytes/s.
/// Roughly the aggregate NVLink 1.0 bandwidth of the paper's era —
/// a bit over 3× the PCIe 3.0 x16 link the presets pair it with.
const NVLINK_BW: f64 = 40.0e9;

/// Default one-way latency charged per peer-to-peer transfer.
const NVLINK_LATENCY: Time = 5e-6;

/// 25 Gbit/s Ethernet NIC bandwidth, bytes/s.
const ETHERNET_25G_BW: f64 = 3.125e9;

/// One-way latency charged per transfer on a 25 GbE NIC link.
const ETHERNET_25G_LATENCY: Time = 20e-6;

/// HDR InfiniBand (200 Gbit/s) NIC bandwidth, bytes/s.
const INFINIBAND_HDR_BW: f64 = 25.0e9;

/// One-way latency charged per transfer on an HDR InfiniBand link.
const INFINIBAND_HDR_LATENCY: Time = 2e-6;

/// NVSwitch-island inter-node fabric bandwidth, bytes/s — an
/// NVLink-class fabric stretched across node boundaries.
const NVSWITCH_ISLAND_BW: f64 = 40.0e9;

/// One-way latency charged per transfer on an NVSwitch-island link.
const NVSWITCH_ISLAND_LATENCY: Time = 1e-6;

/// Handle to a link in a [`Topology`] (index into [`Topology::links`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Which way a copy crosses its [`Link`]: host→device on a host link,
/// lower→higher id on a peer or NIC link is [`Dir::AToB`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From [`Link::a`] to [`Link::b`].
    AToB,
    /// From [`Link::b`] to [`Link::a`].
    BToA,
}

/// One endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The host (CPU + system memory).
    Host,
    /// A GPU device.
    Device(u32),
    /// A whole cluster node (its host/NIC attachment point): NIC links
    /// join node pairs, not individual devices.
    Node(u32),
}

/// A bidirectional interconnect link. How its [`Link::bandwidth`] is
/// shared depends on the kind of link, a rule the engine's `columns`
/// alone applies:
///
/// * a host link grants `bandwidth` to each direction: an H2D and a D2H
///   copy on one device each run at the full rate;
/// * a peer or NIC link shares `bandwidth` between both directions:
///   every transfer in flight on it, either way, contends for it.
///
/// On every link, copies in the same direction also queue on one DMA
/// engine per link and direction, which `cuda-sim` keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint (the host for host links, the lower device id for
    /// device↔device links).
    pub a: Endpoint,
    /// The other endpoint.
    pub b: Endpoint,
    /// Bandwidth in bytes/s: per direction on a host link, shared by
    /// both directions on a peer or NIC link (see [`Link`]).
    pub bandwidth: f64,
    /// Fixed per-transfer setup latency.
    pub latency: Time,
}

impl Link {
    /// Human-readable label (`host-d0`, `d0-d1`, `n0-n1`, ...), used by
    /// metrics tables and DOT renders.
    pub fn label(&self) -> String {
        let end = |e: Endpoint| match e {
            Endpoint::Host => "host".to_string(),
            Endpoint::Device(d) => format!("d{d}"),
            Endpoint::Node(n) => format!("n{n}"),
        };
        format!("{}-{}", end(self.a), end(self.b))
    }
}

/// The built-in interconnect presets, selectable at context
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Host links only: every cross-device move stages through the host
    /// (the pre-P2P baseline, and the default).
    PcieOnly,
    /// NVLink between device pairs `(0,1)`, `(2,3)`, ...: fast islands
    /// of two, host-mediated across islands.
    NvlinkPair,
    /// NVLink between every device pair (an NVSwitch-style machine).
    FullyConnected,
    /// NVLink ring: device `i` connects to `(i+1) % n`.
    Ring,
}

impl TopologyKind {
    /// All presets, in sweep order.
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::PcieOnly,
        TopologyKind::NvlinkPair,
        TopologyKind::FullyConnected,
        TopologyKind::Ring,
    ];

    /// Short display name for tables and sweeps.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::PcieOnly => "pcie-only",
            TopologyKind::NvlinkPair => "nvlink-pair",
            TopologyKind::FullyConnected => "fully-connected",
            TopologyKind::Ring => "ring",
        }
    }
}

/// The interconnect of a simulated machine: `n` devices, one host link
/// per device, plus the preset's device↔device links — and, on a
/// multi-node [`Cluster`], the node↔node NIC links after those.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n_devices: u32,
    /// Links `0..n_devices` are the host links (link `d` serves device
    /// `d`); then the device↔device links; then (multi-node machines
    /// only) the node↔node NIC links.
    links: Vec<Link>,
    /// Device-memory capacities and eviction policy (the machine
    /// description owns its memories as well as its links). Default
    /// unlimited.
    memory: MemoryConfig,
    /// The cluster node each device belongs to (all zeros on a
    /// single-box machine). Devices of one node are contiguous.
    node_of: Vec<u32>,
    /// Number of cluster nodes (1 for a single-box machine).
    n_nodes: u32,
    /// `d2d[a * n_devices + b]`: the direct link between devices `a` and
    /// `b`. Built once from `links`, so the per-candidate route queries
    /// of every launch are a table read instead of a scan over every
    /// link of the machine.
    d2d: Vec<Option<LinkId>>,
    /// `nic[a * n_nodes + b]`: the NIC link between nodes `a` and `b`.
    nic: Vec<Option<LinkId>>,
}

impl Topology {
    /// Assemble a machine from its links (host links first) and index
    /// the device↔device and node↔node links by endpoint pair. Where
    /// two links join the same pair the lower link id answers.
    fn from_links(links: Vec<Link>, memory: MemoryConfig, node_of: Vec<u32>, n_nodes: u32) -> Self {
        let n = node_of.len();
        let mut d2d = vec![None; n * n];
        let mut nic = vec![None; (n_nodes * n_nodes) as usize];
        fn index(table: &mut [Option<LinkId>], width: usize, a: u32, b: u32, id: LinkId) {
            let (a, b) = (a as usize, b as usize);
            if a < b && table[a * width + b].is_none() {
                table[a * width + b] = Some(id);
                table[b * width + a] = Some(id);
            }
        }
        for (i, l) in links.iter().enumerate() {
            let id = LinkId(i as u32);
            match (l.a, l.b) {
                (Endpoint::Device(a), Endpoint::Device(b)) => index(&mut d2d, n, a, b, id),
                (Endpoint::Node(a), Endpoint::Node(b)) => {
                    index(&mut nic, n_nodes as usize, a, b, id)
                }
                _ => {}
            }
        }
        Topology {
            n_devices: n as u32,
            links,
            memory,
            node_of,
            n_nodes,
            d2d,
            nic,
        }
    }

    /// Build a preset topology for `n` devices, with host links at the
    /// device's PCIe bandwidth and NVLink-class device↔device links: a
    /// one-node [`Cluster`], which has no NIC links.
    pub fn preset(kind: TopologyKind, n: usize, dev: &DeviceProfile) -> Self {
        Cluster::new(1, n, kind, NicKind::InfinibandHdr).build(dev)
    }

    /// Host-links-only topology (what [`TopologyKind::PcieOnly`] builds).
    pub fn pcie_only(n: usize, dev: &DeviceProfile) -> Self {
        Self::preset(TopologyKind::PcieOnly, n, dev)
    }

    /// Give every device a finite memory (builder-style): capacity and
    /// eviction policy for the capacity-aware memory manager
    /// ([`crate::MemoryManager`]). The default is unlimited, which reproduces
    /// the infinite-memory behavior bit-identically.
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// The device-memory configuration of this machine.
    pub fn memory_config(&self) -> &MemoryConfig {
        &self.memory
    }

    /// Number of devices spanned.
    pub fn device_count(&self) -> usize {
        self.n_devices as usize
    }

    /// Every link, host links first (link `d` is device `d`'s host
    /// link), then the device↔device links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// A link by handle.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// The host link of a device.
    pub fn host_link(&self, device: u32) -> LinkId {
        assert!(device < self.n_devices, "unknown device {device}");
        LinkId(device)
    }

    /// The direct device↔device link between two devices, if the
    /// topology has one (peer-to-peer DMA is possible exactly when it
    /// does).
    pub fn d2d_link(&self, a: u32, b: u32) -> Option<LinkId> {
        let n = self.n_devices;
        if a >= n || b >= n {
            return None;
        }
        self.d2d[(a * n + b) as usize]
    }

    /// Number of cluster nodes this machine spans (1 for a single box).
    pub fn node_count(&self) -> usize {
        self.n_nodes as usize
    }

    /// The cluster node a device belongs to (always 0 on a single box).
    pub fn node_of(&self, device: u32) -> u32 {
        self.node_of[device as usize]
    }

    /// The NIC link joining two cluster nodes, if the machine has one
    /// (`None` for the same node or on single-box machines).
    pub fn nic_link(&self, a: u32, b: u32) -> Option<LinkId> {
        let n = self.n_nodes;
        if a >= n || b >= n {
            return None;
        }
        self.nic[(a * n + b) as usize]
    }
}

/// Append the device↔device links of a preset wired over devices
/// `base..base + n` (one node's worth of peer wiring).
fn push_d2d_links(links: &mut Vec<Link>, kind: TopologyKind, base: u32, n: usize) {
    let mut pair = |a: u32, b: u32| {
        links.push(Link {
            a: Endpoint::Device(base + a.min(b)),
            b: Endpoint::Device(base + a.max(b)),
            bandwidth: NVLINK_BW,
            latency: NVLINK_LATENCY,
        });
    };
    match kind {
        TopologyKind::PcieOnly => {}
        TopologyKind::NvlinkPair => {
            let mut d = 0;
            while d + 1 < n as u32 {
                pair(d, d + 1);
                d += 2;
            }
        }
        TopologyKind::FullyConnected => {
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    pair(a, b);
                }
            }
        }
        TopologyKind::Ring => {
            // A ring over n >= 3 devices; for n == 2 the ring
            // degenerates to the single pair link (not two parallel
            // links), and a 1-device ring has no peers at all.
            if n == 2 {
                pair(0, 1);
            } else if n >= 3 {
                for d in 0..n as u32 {
                    pair(d, (d + 1) % n as u32);
                }
            }
        }
    }
}

/// The built-in network-interconnect presets joining cluster nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicKind {
    /// 25 Gbit/s Ethernet: commodity scale-out, high latency.
    Ethernet25g,
    /// HDR InfiniBand (200 Gbit/s): HPC-fabric class.
    InfinibandHdr,
    /// An NVSwitch island: NVLink-class bandwidth stretched across
    /// node boundaries (the fastest preset).
    NvswitchIsland,
}

impl NicKind {
    /// All NIC presets, in sweep order.
    pub const ALL: [NicKind; 3] = [
        NicKind::Ethernet25g,
        NicKind::InfinibandHdr,
        NicKind::NvswitchIsland,
    ];

    /// Aggregate NIC bandwidth in bytes/s.
    fn bandwidth(self) -> f64 {
        match self {
            NicKind::Ethernet25g => ETHERNET_25G_BW,
            NicKind::InfinibandHdr => INFINIBAND_HDR_BW,
            NicKind::NvswitchIsland => NVSWITCH_ISLAND_BW,
        }
    }

    /// One-way latency charged per transfer.
    fn latency(self) -> Time {
        match self {
            NicKind::Ethernet25g => ETHERNET_25G_LATENCY,
            NicKind::InfinibandHdr => INFINIBAND_HDR_LATENCY,
            NicKind::NvswitchIsland => NVSWITCH_ISLAND_LATENCY,
        }
    }
}

/// A two-tier machine description: `nodes` identical nodes, each an
/// existing single-box [`Topology`] of `gpus_per_node` devices, joined
/// by a full mesh of node↔node NIC links. [`Cluster::build`] flattens it
/// into one [`Topology`] whose NIC links join the same global max–min
/// rate solve as every other link, so cross-node copies contend
/// machine-wide.
///
/// A 1-node cluster builds a topology bit-identical to
/// [`Topology::preset`] — the single-box path is the degenerate case,
/// not a separate code path.
///
/// # Examples
///
/// ```
/// use gpu_sim::{Cluster, DeviceProfile, NicKind, TopologyKind};
///
/// let dev = DeviceProfile::tesla_p100();
/// let topo = Cluster::new(2, 4, TopologyKind::NvlinkPair, NicKind::InfinibandHdr).build(&dev);
/// assert_eq!(topo.device_count(), 8);
/// assert_eq!(topo.node_count(), 2);
/// assert_eq!(topo.node_of(3), 0);
/// assert_eq!(topo.node_of(4), 1);
/// // In-node peer wiring never crosses the node boundary...
/// assert!(topo.d2d_link(2, 3).is_some());
/// assert!(topo.d2d_link(3, 4).is_none());
/// // ...cross-node traffic goes over the NIC link instead.
/// let nic = topo.nic_link(0, 1).unwrap();
/// assert_eq!(topo.link(nic).label(), "n0-n1");
///
/// // One node degenerates to the single-box preset, bit-identically.
/// let single = Cluster::new(1, 4, TopologyKind::NvlinkPair, NicKind::InfinibandHdr).build(&dev);
/// assert_eq!(single, gpu_sim::Topology::preset(TopologyKind::NvlinkPair, 4, &dev));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    nodes: usize,
    gpus_per_node: usize,
    node_kind: TopologyKind,
    nic: NicKind,
    memory: MemoryConfig,
}

impl Cluster {
    /// Describe a cluster of `nodes` nodes, each wiring `gpus_per_node`
    /// devices with the `node_kind` in-node preset, joined by `nic`
    /// links.
    pub fn new(nodes: usize, gpus_per_node: usize, node_kind: TopologyKind, nic: NicKind) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(gpus_per_node >= 1, "need at least one GPU per node");
        Cluster {
            nodes,
            gpus_per_node,
            node_kind,
            nic,
            memory: MemoryConfig::default(),
        }
    }

    /// Give every device a finite memory (builder-style), exactly like
    /// [`Topology::with_memory`].
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Flatten into one machine-wide [`Topology`]: host links for every
    /// device first, then each node's device↔device wiring (device ids
    /// are contiguous per node), then the NIC full mesh over node pairs.
    ///
    /// Each host link takes `dev.pcie_bw` (which must be positive) as its
    /// bandwidth and `dev.launch_overhead` as its latency; from then on
    /// the link alone times the host copies over it.
    pub fn build(&self, dev: &DeviceProfile) -> Topology {
        assert!(dev.pcie_bw > 0.0, "bandwidths must be positive");
        let n = self.nodes * self.gpus_per_node;
        let mut links: Vec<Link> = (0..n as u32)
            .map(|d| Link {
                a: Endpoint::Host,
                b: Endpoint::Device(d),
                bandwidth: dev.pcie_bw,
                latency: dev.launch_overhead,
            })
            .collect();
        for node in 0..self.nodes {
            push_d2d_links(
                &mut links,
                self.node_kind,
                (node * self.gpus_per_node) as u32,
                self.gpus_per_node,
            );
        }
        for a in 0..self.nodes as u32 {
            for b in (a + 1)..self.nodes as u32 {
                links.push(Link {
                    a: Endpoint::Node(a),
                    b: Endpoint::Node(b),
                    bandwidth: self.nic.bandwidth(),
                    latency: self.nic.latency(),
                });
            }
        }
        let node_of = (0..n).map(|d| (d / self.gpus_per_node) as u32).collect();
        Topology::from_links(links, self.memory.clone(), node_of, self.nodes as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(kind: TopologyKind, n: usize) -> Topology {
        Topology::preset(kind, n, &DeviceProfile::tesla_p100())
    }

    fn is_d2d(l: &Link) -> bool {
        matches!((l.a, l.b), (Endpoint::Device(_), Endpoint::Device(_)))
    }

    fn is_nic(l: &Link) -> bool {
        matches!((l.a, l.b), (Endpoint::Node(_), Endpoint::Node(_)))
    }

    /// The expected device↔device pairs of each preset — the round-trip
    /// check that construction yields exactly the advertised link set.
    fn d2d_pairs(t: &Topology) -> Vec<(u32, u32)> {
        t.links()
            .iter()
            .filter_map(|l| match (l.a, l.b) {
                (Endpoint::Device(a), Endpoint::Device(b)) => Some((a, b)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_preset_has_one_host_link_per_device() {
        for kind in TopologyKind::ALL {
            for n in [1usize, 2, 3, 4, 8] {
                let t = topo(kind, n);
                assert_eq!(t.device_count(), n);
                for d in 0..n as u32 {
                    let l = t.link(t.host_link(d));
                    assert_eq!(l.a, Endpoint::Host);
                    assert_eq!(l.b, Endpoint::Device(d));
                    assert!(!is_d2d(l));
                }
            }
        }
    }

    #[test]
    fn pcie_only_has_no_peer_links() {
        let t = topo(TopologyKind::PcieOnly, 4);
        assert!(d2d_pairs(&t).is_empty());
        assert_eq!(t.d2d_link(0, 1), None);
        assert_eq!(t.links().len(), 4);
    }

    #[test]
    fn nvlink_pair_wires_even_odd_islands() {
        let t = topo(TopologyKind::NvlinkPair, 4);
        assert_eq!(d2d_pairs(&t), vec![(0, 1), (2, 3)]);
        assert!(t.d2d_link(0, 1).is_some());
        assert!(t.d2d_link(1, 0).is_some(), "links are bidirectional");
        assert_eq!(t.d2d_link(1, 2), None, "cross-island is host-mediated");
        assert_eq!(t.d2d_link(0, 3), None);
        // Odd device counts leave the last device with its host link only.
        let t3 = topo(TopologyKind::NvlinkPair, 3);
        assert_eq!(d2d_pairs(&t3), vec![(0, 1)]);
    }

    #[test]
    fn fully_connected_wires_every_pair() {
        let t = topo(TopologyKind::FullyConnected, 4);
        assert_eq!(
            d2d_pairs(&t),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.d2d_link(a, b).is_some(), a != b);
            }
        }
    }

    #[test]
    fn ring_wires_neighbors_only() {
        let t = topo(TopologyKind::Ring, 4);
        assert_eq!(d2d_pairs(&t), vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert!(t.d2d_link(3, 0).is_some(), "the ring closes");
        assert_eq!(t.d2d_link(0, 2), None, "no chord links");
        // Two-device ring degenerates to one pair link, not two.
        assert_eq!(d2d_pairs(&topo(TopologyKind::Ring, 2)), vec![(0, 1)]);
        // One device: no peers.
        assert!(d2d_pairs(&topo(TopologyKind::Ring, 1)).is_empty());
    }

    #[test]
    fn peer_links_are_faster_than_host_links() {
        let t = topo(TopologyKind::FullyConnected, 2);
        let host = t.link(t.host_link(0));
        let peer = t.link(t.d2d_link(0, 1).unwrap());
        assert!(peer.bandwidth > 2.0 * host.bandwidth);
        assert_eq!(peer.label(), "d0-d1");
        assert_eq!(host.label(), "host-d0");
    }

    #[test]
    fn nic_names_round_trip_and_presets_order_by_speed() {
        // The name half went with `NicKind::{name, parse}`, which nothing
        // called; the test keeps the name the suite lists it under.
        for nic in NicKind::ALL {
            assert!(nic.bandwidth() > 0.0 && nic.latency() > 0.0);
        }
        assert!(NicKind::Ethernet25g.bandwidth() < NicKind::InfinibandHdr.bandwidth());
        assert!(NicKind::InfinibandHdr.bandwidth() < NicKind::NvswitchIsland.bandwidth());
        assert!(NicKind::Ethernet25g.latency() > NicKind::NvswitchIsland.latency());
    }

    #[test]
    fn single_box_presets_are_single_node() {
        for kind in TopologyKind::ALL {
            let t = topo(kind, 4);
            assert_eq!(t.node_count(), 1);
            for d in 0..4 {
                assert_eq!(t.node_of(d), 0);
            }
            assert_eq!(t.nic_link(0, 1), None);
            assert!(t.links().iter().all(|l| !is_nic(l)));
        }
    }

    #[test]
    fn cluster_builds_host_then_d2d_then_nic_links() {
        let dev = DeviceProfile::tesla_p100();
        let t = Cluster::new(2, 4, TopologyKind::NvlinkPair, NicKind::InfinibandHdr).build(&dev);
        assert_eq!(t.device_count(), 8);
        assert_eq!(t.node_count(), 2);
        // Host links first (one per device)...
        for d in 0..8 {
            assert_eq!(t.host_link(d), LinkId(d));
            assert!(!is_d2d(t.link(LinkId(d))) && !is_nic(t.link(LinkId(d))));
        }
        // ...then per-node NVLink pairs, offset by the node base...
        assert_eq!(d2d_pairs(&t), vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
        assert_eq!(t.d2d_link(3, 4), None, "no peer link across nodes");
        // ...then the NIC mesh, last.
        let nic = t.nic_link(0, 1).unwrap();
        assert_eq!(nic.0 as usize, t.links().len() - 1);
        let l = t.link(nic);
        assert!(is_nic(l));
        assert_eq!(l.bandwidth, INFINIBAND_HDR_BW);
        assert_eq!(l.latency, INFINIBAND_HDR_LATENCY);
        assert_eq!(t.nic_link(1, 0), Some(nic), "NIC links are bidirectional");
        assert_eq!(t.nic_link(0, 0), None);
        // Node membership is contiguous.
        assert_eq!(
            (0..8).map(|d| t.node_of(d)).collect::<Vec<_>>(),
            [0, 0, 0, 0, 1, 1, 1, 1]
        );
    }

    #[test]
    fn cluster_nic_mesh_is_full_over_node_pairs() {
        let dev = DeviceProfile::tesla_p100();
        let t = Cluster::new(4, 2, TopologyKind::PcieOnly, NicKind::Ethernet25g).build(&dev);
        let nic_links = t.links().iter().filter(|l| is_nic(l)).count();
        assert_eq!(nic_links, 6, "4 choose 2 node pairs");
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.nic_link(a, b).is_some(), a != b);
            }
        }
        assert_eq!(t.link(t.nic_link(2, 3).unwrap()).label(), "n2-n3");
    }

    /// The lookup the tables replaced: the first link whose endpoints
    /// are exactly the ordered pair.
    fn scan(t: &Topology, a: u32, b: u32, end: fn(u32) -> Endpoint) -> Option<LinkId> {
        if a == b {
            return None;
        }
        let (lo, hi) = (end(a.min(b)), end(a.max(b)));
        t.links()
            .iter()
            .position(|l| l.a == lo && l.b == hi)
            .map(|i| LinkId(i as u32))
    }

    #[test]
    fn link_tables_equal_a_scan_of_the_links_for_every_pair() {
        let dev = DeviceProfile::tesla_p100();
        let mut machines = Vec::new();
        for kind in TopologyKind::ALL {
            for n in [1usize, 2, 3, 4, 8, 16] {
                machines.push(topo(kind, n));
            }
            for (nodes, gpus) in [(2usize, 8usize), (4, 2), (3, 3), (1, 4)] {
                for nic in NicKind::ALL {
                    machines.push(Cluster::new(nodes, gpus, kind, nic).build(&dev));
                }
            }
        }
        for t in &machines {
            // Two ids past the end on each axis: out-of-range queries
            // answer `None`, as the scan did.
            let (n, nodes) = (t.device_count() as u32, t.node_count() as u32);
            for a in 0..n + 2 {
                for b in 0..n + 2 {
                    assert_eq!(t.d2d_link(a, b), scan(t, a, b, Endpoint::Device));
                }
            }
            for a in 0..nodes + 2 {
                for b in 0..nodes + 2 {
                    assert_eq!(t.nic_link(a, b), scan(t, a, b, Endpoint::Node));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn node_of_an_unknown_device_still_panics() {
        topo(TopologyKind::NvlinkPair, 4).node_of(4);
    }

    #[test]
    #[should_panic(expected = "unknown device 4")]
    fn host_link_of_an_unknown_device_still_panics() {
        topo(TopologyKind::NvlinkPair, 4).host_link(4);
    }

    #[test]
    fn one_node_cluster_is_bit_identical_to_the_single_box_preset() {
        let dev = DeviceProfile::tesla_p100();
        for kind in TopologyKind::ALL {
            for g in [1usize, 2, 4] {
                let c = Cluster::new(1, g, kind, NicKind::InfinibandHdr).build(&dev);
                assert_eq!(c, Topology::preset(kind, g, &dev));
            }
        }
    }
}
