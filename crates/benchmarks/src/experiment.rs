//! What a placement experiment hands back.
//!
//! The four scheduler-contrast programs ([`crate::transfer_chain`],
//! [`crate::oversubscribe`], [`crate::fanout_mix`],
//! [`crate::cluster_run`]) return the runtime they ran on, the makespan
//! and the whole answer. Counters are read from the runtime's own
//! snapshot (`GrCuda::snapshot`: migrations, memory, cluster,
//! calibration samples, …) and races from `races`, not through copies,
//! and "placement moves work, never results" is one bit-exact
//! comparison of answers.

use gpu_sim::TypedData;
use grcuda::GrCuda;

use crate::runners::same_bits;

/// One run of a placement experiment.
pub struct Experiment {
    /// The runtime the program ran on, synchronized, every host read of
    /// the program made.
    pub runtime: GrCuda,
    /// Simulated makespan in seconds, the program's host reads included
    /// (the fanout mix leaves out its warmup round).
    pub makespan: f64,
    /// The final contents of every array the program computes, in a
    /// fixed order.
    pub outputs: Vec<TypedData>,
}

impl Experiment {
    /// Whether `other` computed the same answer bit for bit: a NaN
    /// matches the same NaN, and −0.0 is not 0.0.
    pub fn same_answer(&self, other: &Experiment) -> bool {
        self.outputs.len() == other.outputs.len()
            && self
                .outputs
                .iter()
                .zip(&other.outputs)
                .all(|(a, b)| same_bits(a, b))
    }
}

#[cfg(test)]
mod tests {
    use gpu_sim::{EvictionPolicy, TopologyKind};
    use grcuda::PlacementPolicy;

    use crate::{
        cluster_run, fanout_mix, oversub_capacity, oversubscribe, transfer_chain, ClusterSuite,
        Experiment,
    };

    /// The oversubscription row's element count.
    const N: usize = 1 << 14;

    /// Everything a run reports besides its answer.
    fn counters(r: &Experiment) -> impl PartialEq + std::fmt::Debug {
        (r.makespan, r.runtime.snapshot())
    }

    #[test]
    fn every_experiment_is_deterministic_and_race_free() {
        // Each experiment run twice on the same inputs reports the same
        // makespan, counters and answer, and never races. The last
        // column is a bar of the row's own.
        type Row = (&'static str, fn() -> Experiment, fn(&Experiment));
        let rows: [Row; 4] = [
            (
                "transfer chain",
                || {
                    let (policy, topo) = (PlacementPolicy::TransferAware, TopologyKind::NvlinkPair);
                    transfer_chain(policy, topo, 4096, 3)
                },
                |_| {},
            ),
            (
                "oversubscription",
                || {
                    let (policy, eviction) =
                        (PlacementPolicy::MemoryAware, EvictionPolicy::CostAware);
                    let capacity = Some(oversub_capacity(N));
                    oversubscribe(policy, eviction, capacity, N, 2)
                },
                |r| {
                    let memory = r.runtime.snapshot().memory;
                    for &p in &memory.peak_resident {
                        assert!(p <= oversub_capacity(N), "capacity held: {p}");
                    }
                },
            ),
            (
                "fanout mix",
                || fanout_mix(PlacementPolicy::Adaptive, 1 << 15, 3),
                |r| {
                    let samples = r.runtime.snapshot().kernel_samples;
                    assert!(samples > 0, "completed kernels are observed");
                },
            ),
            (
                "cluster chain",
                || {
                    cluster_run(
                        ClusterSuite::Chain,
                        PlacementPolicy::NodeAware,
                        2,
                        2,
                        4096,
                        4,
                    )
                },
                |r| {
                    let cluster = r.runtime.snapshot().cluster;
                    assert!(cluster.partitioned_batches >= 4, "{cluster:?}");
                },
            ),
        ];
        for (name, run, bar) in rows {
            let (a, b) = (run(), run());
            assert_eq!(counters(&a), counters(&b), "{name}");
            assert!(a.same_answer(&b), "{name}");
            assert!(a.runtime.races().is_empty(), "{name} raced");
            bar(&a);
        }
    }
}
