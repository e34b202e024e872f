//! Kernel execution history and launch-configuration autotuning.
//!
//! §IV-A: "We track each kernel's historical performance and scheduling
//! to allow the creation of heuristics that guide future scheduling of
//! the same kernel." §VI lists one such heuristic as future work:
//! "estimating the ideal block size based on data size and previous
//! executions." Both live where a kernel's duration becomes known: the
//! engine records every completed launch into [`gpu_sim::Calibration`]
//! (per-signature `(block size, size bucket)` cells), which also holds
//! the explore-then-exploit block-size chooser used by
//! [`crate::Kernel::launch_autotuned`]. Read it through
//! [`crate::GrCuda::history_samples`],
//! [`crate::GrCuda::best_block_size`] and
//! [`crate::GrCuda::mean_kernel_duration`].

pub use gpu_sim::calibrate::CANDIDATE_BLOCK_SIZES;
