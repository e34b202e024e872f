//! What a placement experiment hands back.
//!
//! The four scheduler-contrast programs ([`crate::transfer_chain`],
//! [`crate::oversubscribe`], [`crate::fanout_mix`],
//! [`crate::cluster_run`]) return the runtime they ran on, the makespan
//! and the whole answer. Counters are read through the runtime's own
//! accessors (`migration_stats`, `scheduler_stats().memory`,
//! `scheduler_stats().cluster`, `calibration_stats`, `races`, …), not
//! through copies, and "placement moves work, never results" is one
//! bit-exact comparison of answers.

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
