//! Device selection: where each computational element runs.
//!
//! The paper's §VI names the hard part of multi-GPU scheduling:
//! "it requires to compute data location and migration costs at run
//! time to identify the optimal scheduling". The scheduler core computes
//! that context per vertex — argument residency per device, parent
//! placement, per-device in-flight load — and hands it to a
//! [`DeviceSelectionPolicy`] to make the call. It computes only what
//! the policy declares it reads ([`DeviceSelectionPolicy::reads`]): a
//! policy that never looks at transfer costs is never priced a route,
//! and one that never looks at node hints never has its batches
//! partitioned.
//!
//! The built-in policies are one ranked selection over a preset table
//! (the `preset` rows next to [`PlacementPolicy::build`]): a row names
//! which devices are candidates and the lexicographic order they are
//! ranked in, and what it reads follows from the row. Every row ends in
//! the device id, so a tie is broken where the row is declared, never
//! by iteration order.

use std::cmp::Ordering;
use std::ops::Range;

/// Run-time context for one placement decision. All slices are indexed
/// by device id and sized to `device_count`.
///
/// The scheduler prices transfers and partitions a batch only when the
/// policy's [`DeviceSelectionPolicy::reads`] names them; a part left
/// out is handed over neutral — the value [`Reads`] names beside its
/// flag.
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
    /// uncontended `latency + bytes / bandwidth` leg per link crossed
    /// (calibration does not touch it) — a host-link leg from
    /// a valid host copy, a peer-link leg over a direct link, two
    /// host-link legs (plus the NIC leg across nodes) when a migration
    /// must stage through the host, zero for data already in place.
    /// Unlike `resident_bytes`, this sees link *speed*, not just byte
    /// counts. Priced only when [`Reads::transfer`] is set: O(devices)
    /// per argument array.
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
    /// The computation's signature (its kernel name). Read by no
    /// preset; retained for `benchmark/`; retire in the next benchmark
    /// PR.
    pub kernel: &'a str,
    /// Decaying mean duration observed for this signature by online
    /// calibration ([`gpu_sim::Calibration::kernel_prior`]), or `None`
    /// until a kernel of the signature has completed — what a root
    /// charges the predicted-seconds ledger. Read by one preset
    /// ([`PlacementPolicy::Adaptive`]); retained for `benchmark/`;
    /// retire in the next benchmark PR.
    pub duration_prior: Option<f64>,
    /// Cluster node the partitioning pre-pass assigned this vertex to
    /// (`None` for single launches, single-node machines, or a policy
    /// without [`Reads::node`], for which the pre-pass does not run).
    /// Read by one preset ([`PlacementPolicy::NodeAware`]); retained for
    /// `benchmark/`; retire in the next benchmark PR.
    pub node_hint: Option<u32>,
    /// Node of each device (indexed by device id), empty on single-node
    /// machines — where the hinted node's GPU range is looked up. Read
    /// by one preset ([`PlacementPolicy::NodeAware`]); retained for
    /// `benchmark/`; retire in the next benchmark PR.
    pub node_of: &'a [u32],
}

impl PlacementCtx<'_> {
    /// Bytes that would have to *newly* land on a device to run this
    /// computation there: the argument set minus what is already
    /// resident on it.
    fn needed_bytes(&self, device: usize) -> usize {
        self.arg_bytes.saturating_sub(self.resident_bytes[device])
    }

    /// True when the computation's arguments fit the device's current
    /// headroom without evicting anything.
    fn fits(&self, device: usize) -> bool {
        self.needed_bytes(device) <= self.free_bytes[device]
    }

    /// The contiguous device-id range of the hinted node (contiguous by
    /// cluster construction), or every device when there is no hint,
    /// no device of that node, or the range leaves the machine.
    fn hinted_node(&self) -> Range<usize> {
        let all = 0..self.device_count;
        let Some(node) = self.node_hint else {
            return all;
        };
        let Some(base) = self.node_of.iter().position(|&m| m == node) else {
            return all;
        };
        let of_node = self.node_of[base..].iter().take_while(|&&m| m == node);
        let end = base + of_node.count();
        if end > self.device_count {
            all
        } else {
            base..end
        }
    }
}

/// Picks the device for each computational element at launch time.
///
/// This seam is a trait because it has a way in
/// ([`crate::GrCuda::with_topology`] takes any boxed implementor) and
/// implementors outside this crate. Implementations may keep state
/// (e.g. a round-robin cursor); the scheduler calls
/// [`DeviceSelectionPolicy::select`] exactly once per scheduled vertex,
/// in submission order.
pub trait DeviceSelectionPolicy {
    /// Short display name for tables and sweeps.
    fn name(&self) -> &'static str;

    /// Choose a device in `0..ctx.device_count`.
    fn select(&mut self, ctx: &PlacementCtx) -> u32;

    /// The costly parts of the context [`DeviceSelectionPolicy::select`]
    /// reads; the scheduler computes only those. The default is both,
    /// which is always sound. A policy that declares less must choose
    /// the same device when the parts it leaves out are neutral.
    fn reads(&self) -> Reads {
        Reads::default()
    }
}

/// The costly parts of a [`PlacementCtx`] a policy reads. A part left
/// out is not computed: it is handed over with the neutral value named
/// here. Every other part is always filled. The default is both parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    /// [`PlacementCtx::est_transfer_time`], which prices every argument
    /// on every device (all 0 when left out).
    pub transfer: bool,
    /// [`PlacementCtx::node_hint`]: on a cluster,
    /// [`crate::GrCuda::launch_batch`] runs the partitioning pre-pass
    /// only for a policy that reads it (`None` when left out).
    pub node: bool,
}

impl Default for Reads {
    fn default() -> Self {
        Reads {
            transfer: true,
            node: true,
        }
    }
}

/// One key of a preset's lexicographic ranking; the smaller key wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Term {
    /// More resident argument bytes first (byte-count locality).
    Resident,
    /// Fewer in-flight tasks first.
    Load,
    /// Lower estimated transfer time first.
    Transfer,
    /// Lower transfer time plus, for a root, the device's predicted
    /// outstanding seconds first; a dependent waits on its parents
    /// regardless, so only its transfer time counts.
    Queue,
    /// More free bytes first.
    Free,
    /// The device under the round-robin cursor first, then onward.
    Turn,
    /// Lower device id first — the declared tie-break closing every row.
    Id,
}

/// When no candidate has room for the arguments eviction is
/// unavoidable: go where the pressure is lowest, then cheapest.
const NOTHING_FITS: &[Term] = &[Term::Free, Term::Transfer, Term::Id];

/// One row of the decision-rule table: a name, two candidate filters
/// and the order the surviving candidates are ranked in.
#[derive(Debug, Clone, Copy)]
struct Preset {
    name: &'static str,
    /// Only the hinted node's devices are candidates
    /// (see [`PlacementCtx::node_hint`]).
    node: bool,
    /// Only candidates the arguments fit on are ranked — running
    /// elsewhere would evict live data — unless [`NOTHING_FITS`].
    fit: bool,
    terms: &'static [Term],
}

impl Preset {
    const fn rank(name: &'static str, terms: &'static [Term]) -> Self {
        Preset {
            name,
            node: false,
            fit: false,
            terms,
        }
    }

    const fn fitting(self) -> Self {
        Preset { fit: true, ..self }
    }

    const fn in_hinted_node(self) -> Self {
        Preset { node: true, ..self }
    }

    /// What ranking by this row reads: transfer prices when a term or,
    /// under `fit`, [`NOTHING_FITS`] ranks by them, node hints under the
    /// node filter.
    fn reads(&self) -> Reads {
        let fallback: &[Term] = if self.fit { NOTHING_FITS } else { &[] };
        let prices = |t: &Term| matches!(t, Term::Transfer | Term::Queue);
        Reads {
            transfer: self.terms.iter().chain(fallback).any(prices),
            node: self.node,
        }
    }
}

/// The one built-in [`DeviceSelectionPolicy`]: a preset and the state
/// its terms read.
#[derive(Debug)]
struct Ranked {
    preset: Preset,
    /// Decisions taken so far — the cursor behind [`Term::Turn`].
    turn: usize,
    /// Predicted outstanding seconds per device behind [`Term::Queue`]:
    /// each placed root adds its signature's duration prior to the
    /// chosen device. Empty for presets that do not rank by `Queue`;
    /// a root whose signature has no prior yet charges nothing.
    ledger: Vec<f64>,
}

impl DeviceSelectionPolicy for Ranked {
    fn name(&self) -> &'static str {
        self.preset.name
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        let Preset {
            node, fit, terms, ..
        } = self.preset;
        let root = ctx.parent_devices.is_empty();
        let queued = terms.contains(&Term::Queue);
        if queued {
            if self.ledger.len() != ctx.device_count {
                self.ledger = vec![0.0; ctx.device_count];
            }
            // All devices idle (a synchronization point): everything
            // the ledger predicted has finished.
            if ctx.inflight.iter().all(|&n| n == 0) {
                self.ledger.fill(0.0);
            }
        }
        let ledger = &self.ledger;
        let queue = |d: usize| ctx.est_transfer_time[d] + if root { ledger[d] } else { 0.0 };
        // Steps round the machine from the device whose turn it is.
        let cursor = self.turn % ctx.device_count.max(1);
        let turn = |d: usize| d + if d < cursor { ctx.device_count } else { 0 } - cursor;
        // `a` against `b`: the first of `terms` that tells them apart.
        let order = |terms: &[Term], a: usize, b: usize| {
            let by = |term: &Term| match term {
                Term::Resident => ctx.resident_bytes[b].cmp(&ctx.resident_bytes[a]),
                Term::Load => ctx.inflight[a].cmp(&ctx.inflight[b]),
                Term::Transfer => ctx.est_transfer_time[a].total_cmp(&ctx.est_transfer_time[b]),
                Term::Queue => queue(a).total_cmp(&queue(b)),
                Term::Free => ctx.free_bytes[b].cmp(&ctx.free_bytes[a]),
                Term::Turn => turn(a).cmp(&turn(b)),
                Term::Id => a.cmp(&b),
            };
            let decided = terms.iter().map(by).find(|o| o.is_ne());
            decided.unwrap_or(Ordering::Equal)
        };
        let among = if node {
            ctx.hinted_node()
        } else {
            0..ctx.device_count
        };
        let chosen = among
            .clone()
            .filter(|&d| !fit || ctx.fits(d))
            .min_by(|&a, &b| order(terms, a, b))
            .or_else(|| among.min_by(|&a, &b| order(NOTHING_FITS, a, b)))
            .unwrap_or(0);
        self.turn += 1;
        if queued && root {
            if let Some(prior) = ctx.duration_prior {
                self.ledger[chosen] += prior;
            }
        }
        chosen as u32
    }

    fn reads(&self) -> Reads {
        self.preset.reads()
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
    /// Place where the most argument bytes already live (min-migration);
    /// ties go to the least-loaded device.
    LocalityAware,
    /// Place where the estimated transfer time is lowest (cost-aware:
    /// sees link bandwidths, not just byte counts — a fast peer link
    /// makes a remote replica cheap, a host-mediated migration makes it
    /// expensive); ties go to the least-loaded device.
    TransferAware,
    /// Place on the least-loaded device (min-device-load); ties go to
    /// the most resident bytes. The right default for
    /// embarrassingly-parallel fan-outs.
    StreamAware,
    /// Skip devices whose free memory cannot hold the arguments, then
    /// rank like transfer-aware (capacity-aware: sees device memory,
    /// not just links and load). When nothing fits it goes where the
    /// most bytes are free.
    MemoryAware,
    /// History-driven placement: memory-aware's capacity filter, with
    /// the transfer cost of a root augmented by a per-device ledger of
    /// *predicted outstanding seconds* fed by each signature's
    /// calibrated duration prior — so independent fan-outs balance by
    /// how long work actually takes, not by how many tasks are in
    /// flight. The ledger resets whenever every device is idle.
    Adaptive,
    /// Cluster-aware placement: honor the node hint the deterministic
    /// batch partitioner assigned (see [`crate::partition_batch`]), rank the
    /// node's GPUs like transfer-aware. Without a hint (single
    /// launches, single-node machines) it behaves exactly like
    /// [`PlacementPolicy::TransferAware`].
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

    /// The static (history-blind) single-box policies — what sweeps
    /// measure [`PlacementPolicy::Adaptive`] against.
    pub const STATIC: [PlacementPolicy; 6] = [
        PlacementPolicy::SingleGpu,
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LocalityAware,
        PlacementPolicy::TransferAware,
        PlacementPolicy::StreamAware,
        PlacementPolicy::MemoryAware,
    ];

    /// The preset table: this policy's decision rule.
    const fn preset(self) -> Preset {
        use Term::*;
        match self {
            Self::SingleGpu => Preset::rank("single-gpu", &[Id]),
            Self::RoundRobin => Preset::rank("round-robin", &[Turn, Id]),
            Self::LocalityAware => Preset::rank("locality-aware", &[Resident, Load, Id]),
            Self::TransferAware => Preset::rank("transfer-aware", &[Transfer, Load, Id]),
            Self::StreamAware => Preset::rank("stream-aware", &[Load, Resident, Id]),
            Self::MemoryAware => Preset::rank("memory-aware", &[Transfer, Load, Id]).fitting(),
            Self::Adaptive => Preset::rank("adaptive", &[Queue, Load, Id]).fitting(),
            Self::NodeAware => Preset::rank("node-aware", &[Transfer, Load, Id]).in_hinted_node(),
        }
    }

    /// Instantiate the policy object the scheduler core consults.
    pub fn build(self) -> Box<dyn DeviceSelectionPolicy> {
        Box::new(Ranked {
            preset: self.preset(),
            turn: 0,
            ledger: Vec::new(),
        })
    }

    /// Short display name for tables and sweeps.
    pub fn name(self) -> &'static str {
        self.preset().name
    }
}

impl From<PlacementPolicy> for Box<dyn DeviceSelectionPolicy> {
    fn from(policy: PlacementPolicy) -> Self {
        policy.build()
    }
}

/// Four roomy, idle devices on one node with nothing resident and every
/// transfer free: the context the policy tests override field by field.
#[cfg(test)]
pub(crate) const BASE_CTX: PlacementCtx<'static> = PlacementCtx {
    device_count: 4,
    parent_devices: &[],
    resident_bytes: &[0; 4],
    est_transfer_time: &[0.0; 4],
    inflight: &[0; 4],
    free_bytes: &[usize::MAX; 4],
    arg_bytes: 0,
    kernel: "k",
    duration_prior: None,
    node_hint: None,
    node_of: &[],
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ctx<'a>(resident: &'a [usize], inflight: &'a [usize]) -> PlacementCtx<'a> {
        PlacementCtx {
            device_count: resident.len(),
            resident_bytes: resident,
            inflight,
            ..BASE_CTX
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = PlacementPolicy::RoundRobin.build();
        let c = ctx(&[0, 0, 0], &[0, 0, 0]);
        let picks: Vec<u32> = (0..6).map(|_| p.select(&c)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn locality_follows_the_bytes() {
        let mut p = PlacementPolicy::LocalityAware.build();
        assert_eq!(p.select(&ctx(&[0, 4096, 64], &[9, 9, 0])), 1);
        // All-host data is placement-neutral: ties break to lighter load.
        assert_eq!(p.select(&ctx(&[0, 0, 0], &[3, 1, 2])), 1);
        // Full tie: lowest device id.
        assert_eq!(p.select(&ctx(&[0, 0], &[2, 2])), 0);
    }

    #[test]
    fn stream_aware_balances_load() {
        let mut p = PlacementPolicy::StreamAware.build();
        assert_eq!(p.select(&ctx(&[0, 0, 0], &[4, 0, 2])), 1);
        // Load tie: prefer the device that already holds data.
        assert_eq!(p.select(&ctx(&[0, 128, 0], &[1, 1, 1])), 1);
    }

    #[test]
    fn transfer_aware_follows_the_cheapest_link_not_the_most_bytes() {
        // Device 1 holds more bytes, but reaching it costs a
        // host-mediated migration; device 0's data comes over a cheap
        // link. Byte counting would pick 1; cost-aware picks 0.
        let c = PlacementCtx {
            device_count: 2,
            resident_bytes: &[1024, 4096],
            est_transfer_time: &[0.2e-3, 1.5e-3],
            inflight: &[5, 0],
            ..BASE_CTX
        };
        assert_eq!(PlacementPolicy::TransferAware.build().select(&c), 0);
        assert_eq!(
            PlacementPolicy::LocalityAware.build().select(&c),
            1,
            "byte counting chases the bigger pile"
        );
    }

    #[test]
    fn transfer_aware_breaks_cost_ties_by_load_then_id() {
        let mut p = PlacementPolicy::TransferAware.build();
        let c = PlacementCtx {
            device_count: 3,
            est_transfer_time: &[1e-3, 1e-3, 1e-3],
            inflight: &[2, 1, 2],
            ..BASE_CTX
        };
        assert_eq!(p.select(&c), 1);
        let c2 = PlacementCtx {
            inflight: &[2, 2, 2],
            ..c
        };
        assert_eq!(p.select(&c2), 0, "full tie goes to the lowest id");
    }

    #[test]
    fn memory_aware_skips_devices_where_arguments_do_not_fit() {
        // Device 0 is cheapest by transfer time but has no headroom for
        // the 4 KiB argument set; device 1 fits (2 KiB already resident
        // there, so only 2 KiB must land).
        let c = PlacementCtx {
            device_count: 2,
            resident_bytes: &[0, 2048],
            est_transfer_time: &[0.0, 1e-3],
            inflight: &[0, 4],
            free_bytes: &[1024, 2048],
            arg_bytes: 4096,
            ..BASE_CTX
        };
        assert!(!c.fits(0) && c.fits(1));
        assert_eq!(c.needed_bytes(1), 2048);
        let mut p = PlacementPolicy::MemoryAware.build();
        assert_eq!(p.select(&c), 1, "the full device is skipped");
        // Transfer-aware walks straight into the full device.
        assert_eq!(PlacementPolicy::TransferAware.build().select(&c), 0);
    }

    #[test]
    fn memory_aware_prefers_cheapest_fitting_then_degrades_to_most_free() {
        let mut p = PlacementPolicy::MemoryAware.build();
        // Both fit: cheapest transfer wins.
        let both = PlacementCtx {
            device_count: 2,
            est_transfer_time: &[2e-3, 1e-3],
            free_bytes: &[1 << 20, 1 << 20],
            arg_bytes: 4096,
            ..BASE_CTX
        };
        assert_eq!(p.select(&both), 1);
        // Nothing fits: go where the pressure is lowest.
        let none = PlacementCtx {
            est_transfer_time: &[0.0, 1e-3],
            free_bytes: &[256, 1024],
            ..both
        };
        assert_eq!(
            p.select(&none),
            1,
            "most free bytes when eviction is forced"
        );
        // Unlimited machines never skip anything.
        let roomy = ctx(&[0, 0], &[1, 0]);
        assert_eq!(p.select(&roomy), 1, "falls back to transfer/load ordering");
    }

    #[test]
    fn enum_builds_matching_trait_objects() {
        for p in PlacementPolicy::ALL {
            assert_eq!(p.build().name(), p.name());
        }
        // The names key `benchmark/`'s per-policy metrics.
        assert_eq!(
            PlacementPolicy::ALL.map(PlacementPolicy::name),
            [
                "single-gpu",
                "round-robin",
                "locality-aware",
                "transfer-aware",
                "stream-aware",
                "memory-aware",
                "adaptive",
                "node-aware"
            ]
        );
        assert_eq!(PlacementPolicy::STATIC, PlacementPolicy::ALL[..6]);
    }

    #[test]
    fn every_preset_row_ends_in_the_id_term() {
        for p in PlacementPolicy::ALL {
            assert_eq!(p.preset().terms.last(), Some(&Term::Id), "{}", p.name());
        }
        assert_eq!(NOTHING_FITS.last(), Some(&Term::Id));
    }

    #[test]
    fn each_preset_reads_what_its_row_ranks_and_filters_by() {
        let flags = |r: Reads| [r.transfer, r.node];
        let (t, f) = (true, false);
        // transfer, node
        let table = [
            [f, f],
            [f, f],
            [f, f],
            [t, f],
            [f, f],
            [t, f],
            [t, f],
            [t, t],
        ];
        for (p, want) in PlacementPolicy::ALL.iter().zip(table) {
            assert_eq!(flags(p.build().reads()), want, "{}", p.name());
        }
        assert_eq!(
            flags(Reads::default()),
            [t, t],
            "a custom policy sees it all"
        );
    }

    /// SplitMix64 — the seeded stream the golden contexts are drawn from.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    const EPISODES: u64 = 2048;
    const STEPS: usize = 64;

    /// `ctx` as the scheduler assembles it for a policy that reads
    /// `reads`: every part left out neutral (at most 16 devices).
    fn assembled<'a>(ctx: &PlacementCtx<'a>, reads: Reads) -> PlacementCtx<'a> {
        let no_cost = &[0.0; 16];
        PlacementCtx {
            est_transfer_time: if reads.transfer {
                ctx.est_transfer_time
            } else {
                &no_cost[..ctx.device_count]
            },
            node_hint: ctx.node_hint.filter(|_| reads.node),
            ..*ctx
        }
    }

    /// Every policy's choices over `EPISODES` seeded episodes of `STEPS`
    /// decisions, one hex digit per choice. An episode is one machine
    /// (1–16 devices, flat or clustered) and one instance of each
    /// policy, so cursors and ledgers carry from decision to decision.
    /// Each policy has a twin that sees only what its `reads()` names,
    /// the rest neutral, and must choose the same device every time.
    /// Also counts the kinds of context drawn, so the coverage the
    /// goldens claim is asserted rather than assumed.
    fn golden_run() -> (Vec<String>, BTreeMap<&'static str, usize>) {
        let mut choices = vec![String::new(); PlacementPolicy::ALL.len()];
        let mut seen = BTreeMap::new();
        for episode in 0..EPISODES {
            let mut rng = Rng(0x00D1_CE5E_ED00 + episode);
            let mut policies = PlacementPolicy::ALL.map(PlacementPolicy::build);
            let mut twins = PlacementPolicy::ALL.map(PlacementPolicy::build);
            let mut n = 1 + rng.below(16);
            let width = 1 + rng.below(8);
            let node_of: Vec<u32> = match rng.below(4) {
                // Flat machine.
                0 => Vec::new(),
                // Clustered: contiguous nodes of `width` devices.
                1 => (0..n).map(|d| (d / width) as u32).collect(),
                // A map longer than the machine: the last node's range
                // may leave it.
                2 => (0..n + width).map(|d| (d / width) as u32).collect(),
                // Interleaved nodes: only a node's first run counts.
                _ => (0..n).map(|d| (d % 2) as u32).collect(),
            };
            let nodes = node_of.iter().max().map_or(0, |&m| m + 1);
            let finite = rng.below(2) == 0;
            let calibrated = rng.below(2) == 0;
            for step in 0..STEPS {
                if step == STEPS / 2 && rng.below(8) == 0 {
                    n = 1 + rng.below(16);
                }
                let parents: Vec<u32> = (0..rng.below(4)).map(|_| rng.below(n) as u32).collect();
                let arg_bytes = rng.pick(&[0, 4096, 1 << 20]);
                let resident: Vec<usize> =
                    (0..n).map(|_| rng.pick(&[0, 0, 1024, arg_bytes])).collect();
                // Few distinct costs, so ties reach the later terms —
                // or arbitrary ones, so the first term decides.
                let tied = rng.below(3) > 0;
                let est: Vec<f64> = (0..n)
                    .map(|_| match tied {
                        true => rng.pick(&[0.0, 0.0, 0.5e-3, 1e-3, 2e-3]),
                        false => (rng.next() >> 11) as f64 * 1e-18,
                    })
                    .collect();
                let idle = rng.below(6) == 0;
                let inflight: Vec<usize> = (0..n)
                    .map(|_| if idle { 0 } else { rng.below(4) })
                    .collect();
                let squeezed = rng.below(4) == 0;
                let free: Vec<usize> = (0..n)
                    .map(|_| match (finite, squeezed) {
                        (false, _) => usize::MAX,
                        (true, true) => rng.pick(&[0, 512, 2048]),
                        (true, false) => rng.pick(&[0, 512, 4096, 1 << 20, 1 << 30]),
                    })
                    .collect();
                let duration_prior =
                    (calibrated && rng.below(5) > 0).then(|| rng.pick(&[0.25e-3, 1e-3, 3e-3]));
                let node_hint = match rng.below(4) {
                    0 => None,
                    1 => Some(nodes + 7),
                    _ => Some(rng.below(nodes as usize + 1) as u32),
                };
                let ctx = PlacementCtx {
                    device_count: n,
                    parent_devices: &parents,
                    resident_bytes: &resident,
                    est_transfer_time: &est,
                    inflight: &inflight,
                    free_bytes: &free,
                    arg_bytes,
                    duration_prior,
                    node_hint,
                    node_of: &node_of,
                    ..BASE_CTX
                };
                let mut saw = |kind| *seen.entry(kind).or_insert(0) += 1;
                saw(if parents.is_empty() {
                    "root"
                } else {
                    "dependent"
                });
                if duration_prior.is_some() {
                    saw("prior");
                }
                if inflight.iter().all(|&l| l == 0) {
                    saw("all idle");
                }
                let fits = (0..n).any(|d| ctx.fits(d));
                saw(if fits { "some fit" } else { "nothing fits" });
                if let Some(node) = node_hint {
                    let run = node_of.iter().skip_while(|&&m| m != node);
                    let end = node_of.len() - run.clone().count()
                        + run.take_while(|&&m| m == node).count();
                    saw(match node_of.contains(&node) {
                        false => "hint: unknown node",
                        true if end > n => "hint: leaves the machine",
                        true => "hint: in the machine",
                    });
                }
                let all = policies.iter_mut().zip(&mut twins).zip(&mut choices);
                for ((policy, twin), out) in all {
                    let d = policy.select(&ctx);
                    assert!((d as usize) < n, "{} chose {d} of {n}", policy.name());
                    assert_eq!(
                        twin.select(&assembled(&ctx, twin.reads())),
                        d,
                        "{} reads more than it declares: {:?}",
                        policy.name(),
                        twin.reads()
                    );
                    out.push(char::from_digit(d, 16).expect("at most 16 devices"));
                }
            }
        }
        (choices, seen)
    }

    /// FNV-1a over the choice digits.
    fn digest(choices: &str) -> u64 {
        choices.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// Recorded at the parent of the change that made the eight policies
    /// one ranked selection, by running this generator against the eight
    /// hand-written `select` bodies it replaced: per policy, the digest
    /// of all 131 072 choices and the first episode's 64.
    const GOLDEN: [(&str, u64, &str); 8] = [
        (
            "single-gpu",
            6426949406222328613,
            "0000000000000000000000000000000000000000000000000000000000000000",
        ),
        (
            "round-robin",
            6592207327781700238,
            "0123450123450123450123450123450123450123450123450123450123450123",
        ),
        (
            "locality-aware",
            3021797365208952280,
            "0052422544320232302032103113153105105355130542440111101212023005",
        ),
        (
            "transfer-aware",
            12490159692805835421,
            "0210142405205323234001101213331341302514430210241041315001413540",
        ),
        (
            "stream-aware",
            6633115549074347246,
            "0052052545325220300010003513131305102055430242400021121211042015",
        ),
        (
            "memory-aware",
            17499278831719376761,
            "0220142555205403234022103211351441302544430510243111111002023500",
        ),
        (
            "adaptive",
            13758272351767735417,
            "0220142555205403234022103211351441302544430510243111111002023500",
        ),
        (
            "node-aware",
            6205217328135456009,
            "0110101101215113214000101211031341302514430010211041315001110510",
        ),
    ];

    #[test]
    fn ranked_selection_chooses_what_the_eight_bodies_chose() {
        let (choices, seen) = golden_run();
        let got: Vec<(&str, u64, &str)> = PlacementPolicy::ALL
            .iter()
            .zip(&choices)
            .map(|(p, c)| (p.name(), digest(c), &c[..STEPS]))
            .collect();
        assert_eq!(got, GOLDEN);
        assert_eq!(choices[0].len(), EPISODES as usize * STEPS);
        assert_eq!(seen.len(), 9, "a kind of context never drawn: {seen:?}");
        assert!(seen.values().all(|&n| n >= 1000), "thin coverage: {seen:?}");
    }
}
