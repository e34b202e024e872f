//! Device-selection policies: where each computational element runs.
//!
//! The paper's §VI names the hard part of multi-GPU scheduling:
//! "it requires to compute data location and migration costs at run
//! time to identify the optimal scheduling". The scheduler core computes
//! exactly that context per vertex — argument residency per device,
//! parent placement, per-device in-flight load — and hands it to a
//! [`DeviceSelectionPolicy`] to make the call.

/// Run-time context for one placement decision. All slices are indexed
/// by device id and sized to `device_count`.
#[derive(Debug, Clone, Copy)]
pub struct PlacementCtx<'a> {
    /// Number of devices available.
    pub device_count: usize,
    /// Devices the vertex's DAG parents were placed on, in dependency
    /// discovery order (may contain duplicates; empty for roots).
    pub parent_devices: &'a [u32],
    /// Bytes of this computation's argument data currently resident on
    /// each device (host-staged data counts for no device: it is
    /// placement-neutral).
    pub resident_bytes: &'a [usize],
    /// Estimated seconds to make every argument resident on each
    /// candidate device, summed by [`cuda_sim::Cuda::placement_probe`]
    /// along the route each migration would actually take: one
    /// `latency + bytes / bandwidth` leg per link crossed (scaled by the
    /// link's contention when calibration is on) — a host-link leg from
    /// a valid host copy, a peer-link leg over a direct link, two
    /// host-link legs (plus the NIC leg across nodes) when a migration
    /// must stage through the host, zero for data already in place.
    /// Unlike `resident_bytes`, this sees link *speed*, not just byte
    /// counts.
    pub est_transfer_time: &'a [f64],
    /// Submitted-but-unfinished tasks per device (kernels, copies and
    /// markers alike) — the load gauge.
    pub inflight: &'a [usize],
    /// Free device-memory bytes per device (`usize::MAX` when the
    /// machine has no capacity limit) — the headroom gauge
    /// capacity-aware placement consults.
    pub free_bytes: &'a [usize],
    /// Total bytes of this computation's distinct array arguments (what
    /// must be resident, somewhere, for it to run).
    pub arg_bytes: usize,
    /// The computation's signature (its kernel name) — what
    /// history-driven policies key their per-signature state by.
    pub kernel: &'a str,
    /// Decaying mean duration observed for this signature by online
    /// calibration, or `None` while calibration is off or has no
    /// samples yet (see [`crate::Options::calibrate`]). This is the
    /// per-signature weight [`crate::policy::Adaptive`] reweights
    /// in-flight work by.
    pub duration_prior: Option<f64>,
    /// Cluster node the partitioning pre-pass assigned this vertex to
    /// (`None` for single launches, single-node machines, or when the
    /// pre-pass is off). Only [`crate::partition::NodeAware`] consults
    /// it; every other policy ignores the hint.
    pub node_hint: Option<u32>,
    /// Node of each device (indexed by device id), empty on single-node
    /// machines — the map [`crate::partition::NodeAware`] uses to narrow
    /// the context to the hinted node's GPU range.
    pub node_of: &'a [u32],
}

impl PlacementCtx<'_> {
    /// Bytes that would have to *newly* land on a device to run this
    /// computation there: the argument set minus what is already
    /// resident on it.
    pub fn needed_bytes(&self, device: usize) -> usize {
        self.arg_bytes.saturating_sub(self.resident_bytes[device])
    }

    /// True when the computation's arguments fit the device's current
    /// headroom without evicting anything.
    pub fn fits(&self, device: usize) -> bool {
        self.needed_bytes(device) <= self.free_bytes[device]
    }
}

/// Picks the device for each computational element at launch time.
///
/// Implementations may keep state (e.g. a round-robin cursor); the
/// scheduler calls [`DeviceSelectionPolicy::select`] exactly once per
/// scheduled vertex, in submission order.
pub trait DeviceSelectionPolicy {
    /// Short display name for tables and sweeps.
    fn name(&self) -> &'static str;

    /// Choose a device in `0..ctx.device_count`.
    fn select(&mut self, ctx: &PlacementCtx) -> u32;
}

/// Everything on device 0 — the single-GPU baseline for scaling studies.
#[derive(Debug, Default)]
pub struct SingleGpu;

impl DeviceSelectionPolicy for SingleGpu {
    fn name(&self) -> &'static str {
        "single-gpu"
    }

    fn select(&mut self, _ctx: &PlacementCtx) -> u32 {
        0
    }
}

/// Cycle through the devices regardless of data location.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl DeviceSelectionPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        let d = (self.next % ctx.device_count) as u32;
        self.next += 1;
        d
    }
}

/// Minimize migrated bytes: run where the most argument bytes already
/// live; break ties toward the least-loaded device, then the lowest id.
#[derive(Debug, Default)]
pub struct LocalityAware;

impl DeviceSelectionPolicy for LocalityAware {
    fn name(&self) -> &'static str {
        "locality-aware"
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        (0..ctx.device_count)
            .min_by_key(|&d| (usize::MAX - ctx.resident_bytes[d], ctx.inflight[d], d))
            .unwrap_or(0) as u32
    }
}

/// Minimize per-device load: run on the device with the fewest in-flight
/// tasks; break ties toward the most resident bytes, then the lowest id.
/// The right default for embarrassingly-parallel fan-outs.
#[derive(Debug, Default)]
pub struct StreamAware;

impl DeviceSelectionPolicy for StreamAware {
    fn name(&self) -> &'static str {
        "stream-aware"
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        (0..ctx.device_count)
            .min_by_key(|&d| (ctx.inflight[d], usize::MAX - ctx.resident_bytes[d], d))
            .unwrap_or(0) as u32
    }
}

/// Minimize estimated transfer *time*: run where moving the arguments
/// costs the least, given link bandwidths — a fast peer link makes a
/// remote replica cheap, a host-mediated migration makes it expensive,
/// and a still-valid host copy costs one H2D leg anywhere. Ties break
/// toward the least-loaded device, then the lowest id.
///
/// This is the cost-aware refinement of [`LocalityAware`]: byte counting
/// treats every remote byte the same, so it happily drags data over two
/// PCIe legs to chase a slightly larger replica that a single cheap leg
/// (or an NVLink hop) would have avoided.
#[derive(Debug, Default)]
pub struct TransferAware;

impl DeviceSelectionPolicy for TransferAware {
    fn name(&self) -> &'static str {
        "transfer-aware"
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        (0..ctx.device_count)
            .min_by(|&a, &b| {
                ctx.est_transfer_time[a]
                    .total_cmp(&ctx.est_transfer_time[b])
                    .then(ctx.inflight[a].cmp(&ctx.inflight[b]))
                    .then(a.cmp(&b))
            })
            .unwrap_or(0) as u32
    }
}

/// Capacity-aware placement for finite device memory: *skip devices
/// where the arguments do not fit* (running there would evict live data
/// and thrash), then choose the cheapest fitting device by estimated
/// transfer time (ties → load → id). When no device has the headroom,
/// it degrades gracefully to the device with the most free bytes —
/// eviction is then unavoidable, so pressure is at least minimized.
///
/// This is what [`TransferAware`] is missing under oversubscription:
/// transfer-time estimates say "free, the data is resident" while every
/// launch on the full device silently evicts someone else's working
/// set.
#[derive(Debug, Default)]
pub struct MemoryAware;

impl DeviceSelectionPolicy for MemoryAware {
    fn name(&self) -> &'static str {
        "memory-aware"
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        let fitting = (0..ctx.device_count)
            .filter(|&d| ctx.fits(d))
            .min_by(|&a, &b| {
                ctx.est_transfer_time[a]
                    .total_cmp(&ctx.est_transfer_time[b])
                    .then(ctx.inflight[a].cmp(&ctx.inflight[b]))
                    .then(a.cmp(&b))
            });
        match fitting {
            Some(d) => d as u32,
            // Nothing fits: evicting is unavoidable, go where the
            // pressure is lowest (ties → cheapest transfer → id).
            None => (0..ctx.device_count)
                .min_by(|&a, &b| {
                    ctx.free_bytes[b]
                        .cmp(&ctx.free_bytes[a])
                        .then(ctx.est_transfer_time[a].total_cmp(&ctx.est_transfer_time[b]))
                        .then(a.cmp(&b))
                })
                .unwrap_or(0) as u32,
        }
    }
}

/// The built-in device-selection policies, as a value (what sweeps and
/// option parsing pass around; [`PlacementPolicy::build`] instantiates
/// the trait object the scheduler consults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Everything on device 0 (single-GPU baseline).
    SingleGpu,
    /// Cycle through the devices regardless of data location.
    RoundRobin,
    /// Place where the most argument bytes already live (min-migration).
    LocalityAware,
    /// Place where the estimated transfer time is lowest (cost-aware:
    /// sees link bandwidths, not just byte counts).
    TransferAware,
    /// Place on the least-loaded device (min-device-load).
    StreamAware,
    /// Skip devices whose free memory cannot hold the arguments,
    /// tie-break by transfer cost (capacity-aware: sees device memory,
    /// not just links and load).
    MemoryAware,
    /// History-driven placement: [`MemoryAware`]'s capacity filter and
    /// transfer-cost ordering, plus a per-device ledger of *predicted
    /// outstanding seconds* weighted by each signature's calibrated
    /// duration prior — so independent fan-outs balance by how long
    /// work actually takes, not by how many tasks are in flight.
    /// Degrades to transfer-aware behavior while calibration is off.
    Adaptive,
    /// Cluster-aware placement: honor the node hint the deterministic
    /// batch partitioner assigned (see [`crate::partition`]), delegate
    /// the in-node GPU choice to transfer-aware placement. Without a
    /// hint (single launches, single-node machines) it behaves exactly
    /// like [`PlacementPolicy::TransferAware`].
    NodeAware,
}

impl PlacementPolicy {
    /// All built-in policies, in sweep order.
    pub const ALL: [PlacementPolicy; 8] = [
        PlacementPolicy::SingleGpu,
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LocalityAware,
        PlacementPolicy::TransferAware,
        PlacementPolicy::StreamAware,
        PlacementPolicy::MemoryAware,
        PlacementPolicy::Adaptive,
        PlacementPolicy::NodeAware,
    ];

    /// The static (history-blind) policies — what
    /// [`crate::policy::Portfolio`] picks between per workload.
    pub const STATIC: [PlacementPolicy; 6] = [
        PlacementPolicy::SingleGpu,
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LocalityAware,
        PlacementPolicy::TransferAware,
        PlacementPolicy::StreamAware,
        PlacementPolicy::MemoryAware,
    ];

    /// Instantiate the policy object the scheduler core consults.
    pub fn build(self) -> Box<dyn DeviceSelectionPolicy> {
        match self {
            PlacementPolicy::SingleGpu => Box::new(SingleGpu),
            PlacementPolicy::RoundRobin => Box::new(RoundRobin::default()),
            PlacementPolicy::LocalityAware => Box::new(LocalityAware),
            PlacementPolicy::TransferAware => Box::new(TransferAware),
            PlacementPolicy::StreamAware => Box::new(StreamAware),
            PlacementPolicy::MemoryAware => Box::new(MemoryAware),
            PlacementPolicy::Adaptive => Box::new(super::adaptive::Adaptive::default()),
            PlacementPolicy::NodeAware => Box::new(crate::partition::NodeAware::new()),
        }
    }

    /// Short display name for tables and sweeps.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::SingleGpu => "single-gpu",
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::LocalityAware => "locality-aware",
            PlacementPolicy::TransferAware => "transfer-aware",
            PlacementPolicy::StreamAware => "stream-aware",
            PlacementPolicy::MemoryAware => "memory-aware",
            PlacementPolicy::Adaptive => "adaptive",
            PlacementPolicy::NodeAware => "node-aware",
        }
    }
}

impl From<PlacementPolicy> for Box<dyn DeviceSelectionPolicy> {
    fn from(policy: PlacementPolicy) -> Self {
        policy.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero transfer estimates everywhere: the byte/load policies under
    /// test ignore them.
    const FREE: [f64; 4] = [0.0; 4];
    /// Unlimited headroom everywhere, likewise.
    const ROOMY: [usize; 4] = [usize::MAX; 4];

    fn ctx<'a>(
        resident: &'a [usize],
        inflight: &'a [usize],
        parents: &'a [u32],
    ) -> PlacementCtx<'a> {
        PlacementCtx {
            device_count: resident.len(),
            parent_devices: parents,
            resident_bytes: resident,
            est_transfer_time: &FREE[..resident.len()],
            inflight,
            free_bytes: &ROOMY[..resident.len()],
            arg_bytes: 0,
            kernel: "k",
            duration_prior: None,
            node_hint: None,
            node_of: &[],
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::default();
        let c = ctx(&[0, 0, 0], &[0, 0, 0], &[]);
        let picks: Vec<u32> = (0..6).map(|_| p.select(&c)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn locality_follows_the_bytes() {
        let mut p = LocalityAware;
        assert_eq!(p.select(&ctx(&[0, 4096, 64], &[9, 9, 0], &[])), 1);
        // All-host data is placement-neutral: ties break to lighter load.
        assert_eq!(p.select(&ctx(&[0, 0, 0], &[3, 1, 2], &[])), 1);
        // Full tie: lowest device id.
        assert_eq!(p.select(&ctx(&[0, 0], &[2, 2], &[])), 0);
    }

    #[test]
    fn stream_aware_balances_load() {
        let mut p = StreamAware;
        assert_eq!(p.select(&ctx(&[0, 0, 0], &[4, 0, 2], &[])), 1);
        // Load tie: prefer the device that already holds data.
        assert_eq!(p.select(&ctx(&[0, 128, 0], &[1, 1, 1], &[])), 1);
    }

    #[test]
    fn transfer_aware_follows_the_cheapest_link_not_the_most_bytes() {
        let mut p = TransferAware;
        // Device 1 holds more bytes, but reaching it costs a
        // host-mediated migration; device 0's data comes over a cheap
        // link. Byte counting would pick 1; cost-aware picks 0.
        let c = PlacementCtx {
            device_count: 2,
            parent_devices: &[],
            resident_bytes: &[1024, 4096],
            est_transfer_time: &[0.2e-3, 1.5e-3],
            inflight: &[5, 0],
            free_bytes: &ROOMY[..2],
            arg_bytes: 0,
            kernel: "k",
            duration_prior: None,
            node_hint: None,
            node_of: &[],
        };
        assert_eq!(p.select(&c), 0);
        let mut loc = LocalityAware;
        assert_eq!(loc.select(&c), 1, "byte counting chases the bigger pile");
    }

    #[test]
    fn transfer_aware_breaks_cost_ties_by_load_then_id() {
        let mut p = TransferAware;
        let c = PlacementCtx {
            device_count: 3,
            parent_devices: &[],
            resident_bytes: &[0, 0, 0],
            est_transfer_time: &[1e-3, 1e-3, 1e-3],
            inflight: &[2, 1, 2],
            free_bytes: &ROOMY[..3],
            arg_bytes: 0,
            kernel: "k",
            duration_prior: None,
            node_hint: None,
            node_of: &[],
        };
        assert_eq!(p.select(&c), 1);
        let c2 = PlacementCtx {
            device_count: 3,
            parent_devices: &[],
            resident_bytes: &[0, 0, 0],
            est_transfer_time: &[1e-3, 1e-3, 1e-3],
            inflight: &[2, 2, 2],
            free_bytes: &ROOMY[..3],
            arg_bytes: 0,
            kernel: "k",
            duration_prior: None,
            node_hint: None,
            node_of: &[],
        };
        assert_eq!(p.select(&c2), 0, "full tie goes to the lowest id");
    }

    #[test]
    fn memory_aware_skips_devices_where_arguments_do_not_fit() {
        let mut p = MemoryAware;
        // Device 0 is cheapest by transfer time but has no headroom for
        // the 4 KiB argument set; device 1 fits (2 KiB already resident
        // there, so only 2 KiB must land).
        let c = PlacementCtx {
            device_count: 2,
            parent_devices: &[],
            resident_bytes: &[0, 2048],
            est_transfer_time: &[0.0, 1e-3],
            inflight: &[0, 4],
            free_bytes: &[1024, 2048],
            arg_bytes: 4096,
            kernel: "k",
            duration_prior: None,
            node_hint: None,
            node_of: &[],
        };
        assert!(!c.fits(0) && c.fits(1));
        assert_eq!(c.needed_bytes(1), 2048);
        assert_eq!(p.select(&c), 1, "the full device is skipped");
        // Transfer-aware walks straight into the full device.
        let mut ta = TransferAware;
        assert_eq!(ta.select(&c), 0);
    }

    #[test]
    fn memory_aware_prefers_cheapest_fitting_then_degrades_to_most_free() {
        let mut p = MemoryAware;
        // Both fit: cheapest transfer wins.
        let both = PlacementCtx {
            device_count: 2,
            parent_devices: &[],
            resident_bytes: &[0, 0],
            est_transfer_time: &[2e-3, 1e-3],
            inflight: &[0, 0],
            free_bytes: &[1 << 20, 1 << 20],
            arg_bytes: 4096,
            kernel: "k",
            duration_prior: None,
            node_hint: None,
            node_of: &[],
        };
        assert_eq!(p.select(&both), 1);
        // Nothing fits: go where the pressure is lowest.
        let none = PlacementCtx {
            device_count: 2,
            parent_devices: &[],
            resident_bytes: &[0, 0],
            est_transfer_time: &[0.0, 1e-3],
            inflight: &[0, 0],
            free_bytes: &[256, 1024],
            arg_bytes: 4096,
            kernel: "k",
            duration_prior: None,
            node_hint: None,
            node_of: &[],
        };
        assert_eq!(
            p.select(&none),
            1,
            "most free bytes when eviction is forced"
        );
        // Unlimited machines never skip anything.
        let roomy = ctx(&[0, 0], &[1, 0], &[]);
        assert_eq!(p.select(&roomy), 1, "falls back to transfer/load ordering");
    }

    #[test]
    fn enum_builds_matching_trait_objects() {
        for p in PlacementPolicy::ALL {
            assert_eq!(p.build().name(), p.name());
        }
        assert_eq!(PlacementPolicy::ALL.len(), 8);
        assert_eq!(PlacementPolicy::STATIC.len(), 6);
    }
}
