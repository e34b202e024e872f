//! The *fanout mix*: the independent mixed-duration fan-out that
//! separates history-driven placement from every count-based heuristic —
//! and the cross-suite sweep ("mixed workload") that shows no single
//! static policy wins everywhere.
//!
//! Per round, on 2 devices: one *heavy* kernel (Black–Scholes fp64
//! pricing over `n` options — compute-bound on the fp64-starved
//! GTX 1660 Super the suite runs on) and three *short* kernels
//! (Gaussian blur over a small image, whose stencil compute dwarfs its
//! tiny transfer), all mutually independent and all on **fresh
//! host-resident arrays** — so residency and transfer estimates tie
//! across devices and placement is decided purely by each policy's load
//! model. The heavy kernel's duration is ~3–4× a short's. The round
//! ends with a sync (the next round's decisions start from an idle
//! machine).
//!
//! Count-based tie-breaks (round-robin, stream-aware, and the
//! transfer/memory-aware policies' in-flight tie-break) all see "one
//! task here, one task there" and give the heavy kernel's device a
//! short kernel too: makespan ≈ heavy + short. A policy that knows the
//! *durations* — [`grcuda::PlacementPolicy::Adaptive`], reading the
//! duration prior online calibration keeps for every signature
//! ([`grcuda::PlacementCtx::duration_prior`]) — charges the heavy
//! kernel's predicted seconds to its device and routes all three shorts
//! to the other one: makespan ≈ max(heavy, 3·short), strictly better
//! whenever heavy ≥ 3·short. The first round is an unmeasured warmup
//! that primes the calibration priors; measurement starts at its sync.
//!
//! The final round reads one element of each output back, as a client
//! would; its [`Experiment`] answer is every output of that round,
//! taken whole afterwards without a charge. [`mixed_runs`] runs the
//! mixed workload for one policy; `tests/policies.rs` asserts the
//! history loop's acceptance bar on it at [`MixedScale::smoke`].

use gpu_sim::{DeviceProfile, EvictionPolicy, Grid, Topology, TopologyKind};
use grcuda::{Arg, DeviceArray, DeviceSelectionPolicy, GrCuda, Options, PlacementPolicy};
use kernels::black_scholes::BLACK_SCHOLES;
use kernels::image::GAUSSIAN_BLUR;

use crate::oversub::{oversub_capacity, oversubscribe};
use crate::transfer::transfer_chain;
use crate::Experiment;

/// Devices the fan-out is shaped for.
const FANOUT_DEVICES: usize = 2;
/// Short kernels per round.
const FANOUT_SHORTS: usize = 3;
/// Blur stencil diameter for the short kernels (compute ∝ diameter²,
/// so the shorts' durations are compute- not transfer-dominated).
const BLUR_DIAMETER: usize = 31;

/// Run the fanout mix under a placement policy (a [`PlacementPolicy`]
/// or a custom one) with the paper's parallel scheduler
/// (`Options::parallel()`). `n` is the short kernels' element count;
/// `rounds` the number of measured rounds (one warmup round is added).
pub fn fanout_mix(
    policy: impl Into<Box<dyn DeviceSelectionPolicy>>,
    n: usize,
    rounds: usize,
) -> Experiment {
    let grid = Grid::d1(256, 256);
    let dev = DeviceProfile::gtx1660_super();
    let topo = Topology::pcie_only(FANOUT_DEVICES, &dev);
    let g = GrCuda::with_topology(dev, topo, Options::parallel(), policy);
    let heavy = g
        .build_kernel(&BLACK_SCHOLES)
        .expect("BLACK_SCHOLES is a registered signature");
    let blur = g
        .build_kernel(&GAUSSIAN_BLUR)
        .expect("GAUSSIAN_BLUR is a registered signature");
    // Short kernels blur a side×side image whose pixel count is n/4;
    // the heavy kernel prices 2n fp64 options (~300 fp64 ops each on a
    // 1/32-rate part), so one heavy ≈ 3–4 shorts in duration.
    let heavy_n = 2 * n;
    let side = ((n / 4) as f64).sqrt() as usize;
    let d = BLUR_DIAMETER;
    let mut outputs = Vec::new();
    let mut t0 = 0.0;
    for round in 0..=rounds {
        // Fresh arrays every round: all-host data costs every device the
        // same single H2D leg, so the placement decision is exactly the
        // policy's load model — nothing is pinned by prior residency.
        let hx = g.array_f64(heavy_n);
        let hy = g.array_f64(heavy_n);
        hx.copy_from_f64(&vec![90.0 + round as f64; heavy_n]);
        heavy
            .launch(
                grid,
                &[
                    Arg::array(&hx),
                    Arg::array(&hy),
                    Arg::scalar(heavy_n as f64),
                    Arg::scalar(100.0),
                    Arg::scalar(0.02),
                    Arg::scalar(0.30),
                    Arg::scalar(1.0),
                ],
            )
            .unwrap();
        let shorts: Vec<DeviceArray> = (0..FANOUT_SHORTS)
            .map(|k| {
                let img = g.array_f32(side * side);
                let out = g.array_f32(side * side);
                let kern = g.array_f32(d * d);
                img.copy_from_f32(&vec![0.5 + 0.25 * k as f32; side * side]);
                kern.copy_from_f32(&vec![1.0 / (d * d) as f32; d * d]);
                blur.launch(
                    grid,
                    &[
                        Arg::array(&img),
                        Arg::array(&out),
                        Arg::scalar(side as f64),
                        Arg::scalar(side as f64),
                        Arg::array(&kern),
                        Arg::scalar(d as f64),
                    ],
                )
                .unwrap();
                out
            })
            .collect();
        g.sync();
        if round == 0 {
            // Warmup done: priors are primed, the machine is idle.
            // Measure from here.
            t0 = g.now();
        } else if round == rounds {
            // Read one element of each output once, on the final round
            // — host read-back is policy-neutral noise, so keep it out
            // of the middle of the measurement — then take the whole
            // outputs as the answer, uncharged.
            hy.get_f64(1);
            for out in &shorts {
                out.get_f32(1);
            }
            let answer = std::iter::once(&hy).chain(&shorts);
            outputs = answer.map(|a| a.raw_buffer().data().clone()).collect();
        }
    }
    Experiment {
        makespan: g.now() - t0,
        runtime: g,
        outputs,
    }
}

/// Problem sizes for one mixed-workload sweep.
#[derive(Debug, Clone, Copy)]
pub struct MixedScale {
    /// Transfer-chain input elements.
    pub chain_n: usize,
    /// Transfer-chain iterations.
    pub chain_iters: usize,
    /// Oversubscription state-array elements.
    pub oversub_n: usize,
    /// Oversubscription passes.
    pub oversub_iters: usize,
    /// Fanout-mix short-kernel elements.
    pub fanout_n: usize,
    /// Fanout-mix measured rounds.
    pub fanout_rounds: usize,
}

impl MixedScale {
    /// The scale the `adaptive` trajectory suite runs without `--smoke`.
    pub fn full() -> Self {
        MixedScale {
            chain_n: 1 << 17,
            chain_iters: 6,
            oversub_n: 1 << 16,
            oversub_iters: 4,
            fanout_n: 1 << 16,
            fanout_rounds: 4,
        }
    }

    /// The scale the `adaptive` trajectory suite runs with `--smoke`
    /// (the committed `adaptive.*` keys) and `tests/policies.rs` asserts
    /// the acceptance bar on.
    pub fn smoke() -> Self {
        MixedScale {
            chain_n: 1 << 15,
            chain_iters: 4,
            oversub_n: 1 << 15,
            oversub_iters: 2,
            fanout_n: 1 << 15,
            fanout_rounds: 3,
        }
    }
}

/// One policy's runs of every suite of the mixed workload, named and in
/// sweep order (`chain`, `oversub`, `fanout`), each under
/// `Options::parallel()` and, for the oversubscription suite, LRU
/// eviction — eviction is held fixed so placement is the only variable
/// under test.
pub fn mixed_runs(policy: PlacementPolicy, scale: &MixedScale) -> [(&'static str, Experiment); 3] {
    let chain = transfer_chain(
        policy,
        TopologyKind::NvlinkPair,
        scale.chain_n,
        scale.chain_iters,
    );
    let oversub = oversubscribe(
        policy,
        EvictionPolicy::Lru,
        Some(oversub_capacity(scale.oversub_n)),
        scale.oversub_n,
        scale.oversub_iters,
    );
    let fanout = fanout_mix(policy, scale.fanout_n, scale.fanout_rounds);
    [("chain", chain), ("oversub", oversub), ("fanout", fanout)]
}
