#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # kernels — the paper's 33 benchmark kernels
//!
//! The paper evaluates its scheduler on "6 benchmarks and a total of 33
//! different kernels representing common GPU workloads" (§V-B). Each
//! kernel here has two halves:
//!
//! * a **functional implementation** (`func`): a plain CPU routine over
//!   [`DataBuffer`]s that produces the same numbers the CUDA kernel
//!   would. It runs when the simulated launch completes, so every
//!   experiment's output is checkable against a reference;
//! * a **cost model** (`cost`): a [`KernelCost`] derived from the actual
//!   argument sizes (flops, DRAM/L2 bytes, instructions, latency floor)
//!   that the simulator turns into a device-specific duration and
//!   resource demand.
//!
//! Kernels are grouped by benchmark: [`vec_ops`] (VEC), [`black_scholes`]
//! (B&S), [`image`] (IMG), [`ml`] (ML ensemble), [`hits`] (HITS),
//! [`dl`] (deep learning), plus a few generic [`util`] kernels.
//!
//! The original CUDA sources the paper derives its kernels from are
//! cited in §V-B (NVIDIA samples, LightSpMV, an open-source Gaussian
//! blur); the functional implementations here are written from the same
//! specifications.
//!
//! **Operation order is part of a kernel's definition.** The suites'
//! recorded answers (`tests/suite_digests.rs`) must not move, so the
//! sequence of floating-point operations that produces each output —
//! its operand casts, its tap or feature order, no reassociation, no
//! fused multiply-add — is fixed. The order *across* outputs is free: a body
//! may settle several independent outputs side by side (the lane
//! arrays of `matmul`, `rr_normalize`, `conv2d`, `gaussian_blur` and
//! `sobel`) as long as each one's own chain is unchanged. Each such
//! body keeps its first, one-output-at-a-time loop nest in its tests as
//! the oracle it is compared with.

pub mod black_scholes;
pub mod dl;
pub mod helpers;
pub mod hits;
pub mod image;
pub mod ml;
pub mod util;
pub mod vec_ops;

use gpu_sim::{DataBuffer, KernelCost};

/// A kernel's functional implementation: buffers in declaration order
/// plus the scalar arguments of the launch.
pub type KernelFn = fn(&[DataBuffer], &[f64]);

/// A kernel's cost model: same inputs, returns the analytic work
/// description.
pub type CostFn = fn(&[DataBuffer], &[f64]) -> KernelCost;

/// A registered kernel: what GrCUDA's `buildkernel` would return after
/// NVRTC compilation, minus the PTX.
#[derive(Clone, Copy)]
pub struct KernelDef {
    /// Kernel name (appears on timelines and in figures).
    pub name: &'static str,
    /// NIDL signature string, exactly as a GrCUDA user would write it
    /// (`const pointer float` marks read-only arrays — the annotation
    /// the scheduler's Fig. 3 rules rely on).
    pub nidl: &'static str,
    /// Functional CPU implementation.
    pub func: KernelFn,
    /// Analytic cost model.
    pub cost: CostFn,
    /// Declared write effects: one flag per *pointer* parameter, in
    /// declaration order — true iff the implementation writes that
    /// buffer. This is ground truth about `func`, declared independently
    /// of the NIDL string, so the schedule sanitizer can cross-check the
    /// two: a parameter annotated `const` in [`KernelDef::nidl`] but
    /// flagged written here is a lying signature (the scheduler would
    /// under-synchronize it).
    pub writes: WriteEffects,
}

/// Per-pointer-parameter write effects of a kernel implementation (see
/// [`KernelDef::writes`]).
pub type WriteEffects = &'static [bool];

impl std::fmt::Debug for KernelDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelDef")
            .field("name", &self.name)
            .field("nidl", &self.nidl)
            .finish()
    }
}

/// Every kernel in the suite, for registry-driven tests and docs.
pub fn all_kernels() -> Vec<&'static KernelDef> {
    vec![
        // VEC
        &vec_ops::SQUARE,
        &vec_ops::REDUCE_SUM_DIFF,
        // B&S
        &black_scholes::BLACK_SCHOLES,
        // IMG
        &image::GAUSSIAN_BLUR,
        &image::SOBEL,
        &image::MAXIMUM,
        &image::MINIMUM,
        &image::EXTEND,
        &image::UNSHARPEN,
        &image::COMBINE,
        &image::COPY_IMG,
        // ML
        &ml::RR_NORMALIZE,
        &ml::RR_MATMUL,
        &ml::RR_ADD_INTERCEPT,
        &ml::SOFTMAX,
        &ml::NB_MATMUL,
        &ml::NB_ROW_MAX,
        &ml::NB_LSE,
        &ml::NB_EXP,
        &ml::ARGMAX_COMBINE,
        // HITS
        &hits::SPMV,
        &hits::SUM_REDUCE,
        &hits::DIVIDE,
        // DL
        &dl::CONV2D,
        &dl::POOL2D,
        &dl::GAP,
        &dl::CONCAT,
        &dl::DENSE,
        // util
        &util::MEMSET_F32,
        &util::AXPY,
        &util::SCALE,
        &util::DOT,
        &util::COPY_F32,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` inputs for a kernel's oracle test, from `seed`: of either
    /// sign, a third each ±2²⁴ exactly, full mantissas near 1 and full
    /// mantissas near 2⁻²⁴ — so the large terms of a sum cancel and what
    /// is left shows the order the small ones were added in, even in
    /// `f64` — and with `specials` one in about twenty a NaN, ±0, ±∞ or
    /// a subnormal.
    pub(crate) fn corpus(n: usize, seed: u64, specials: bool) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -3e-42,
            f32::MIN_POSITIVE,
        ];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let r = state >> 11;
                if specials && r.is_multiple_of(20) {
                    SPECIAL[(r / 20 % 8) as usize]
                } else {
                    let sign = if (r >> 52) & 1 == 1 { -1.0 } else { 1.0 };
                    let mantissa = 1.0 + (r % 8_388_593) as f32 / 8_388_608.0;
                    sign * match (r >> 23) % 3 {
                        0 => 16_777_216.0,
                        1 => mantissa,
                        _ => mantissa / 16_777_216.0,
                    }
                }
            })
            .collect()
    }

    /// Run kernel body `new` and its `reference` on copies of the same
    /// `inputs` and panic, naming `case` and the first element that
    /// differs, unless buffer `out_at` ends with the same bits in both.
    /// A NaN matches any NaN: Rust leaves the sign and payload of a NaN
    /// an operation makes unspecified (the compiler may swap an add's
    /// operands, and x86 keeps the first's NaN), so an order of
    /// operations fixes that an output is NaN, not which one.
    pub(crate) fn same_as_reference(
        new: KernelFn,
        reference: KernelFn,
        inputs: &[Vec<f32>],
        out_at: usize,
        scalars: &[f64],
        case: &str,
    ) {
        let run = |f: KernelFn| {
            let mut bufs: Vec<DataBuffer> = inputs
                .iter()
                .map(|v| DataBuffer::new(gpu_sim::TypedData::F32(v.clone())))
                .collect();
            f(&bufs, scalars);
            bufs.swap_remove(out_at).as_f32().clone()
        };
        let (got, want) = (run(new), run(reference));
        assert_eq!(got.len(), want.len(), "{case}: length");
        let same = |g: f32, w: f32| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan();
        if let Some(i) = (0..got.len()).find(|&i| !same(got[i], want[i])) {
            panic!(
                "{case}: element {i} is {:?}, the reference {:?}",
                got[i], want[i]
            );
        }
    }

    #[test]
    fn suite_has_33_kernels() {
        // The paper reports "a total of 33 different kernels".
        assert_eq!(all_kernels().len(), 33);
    }

    #[test]
    fn kernel_names_are_unique() {
        let mut names: Vec<&str> = all_kernels().iter().map(|k| k.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_kernel_has_a_nonempty_signature() {
        for k in all_kernels() {
            assert!(!k.nidl.is_empty(), "{} has no signature", k.name);
            assert!(k.nidl.contains("pointer"), "{} takes no arrays?", k.name);
        }
    }

    #[test]
    fn write_effects_match_signatures_exactly() {
        // Every shipped kernel is honest: its declared write effects
        // must line up one-to-one with the NIDL pointer parameters, and
        // a parameter is written iff it is not `const`/`in`-annotated.
        // (The schedule sanitizer relies on this agreement; lying
        // signatures are exercised separately with hand-built defs.)
        let mut kernels = all_kernels();
        kernels.extend([&util::PIN, &util::JOIN]);
        kernels.extend([&util::SCALE_I32, &util::THRESHOLD_U8]);
        for k in kernels {
            let pointer_params: Vec<&str> = k
                .nidl
                .split(',')
                .map(str::trim)
                .filter(|p| p.contains("pointer") || p.split_whitespace().any(|w| w == "ptr"))
                .collect();
            assert_eq!(
                k.writes.len(),
                pointer_params.len(),
                "{}: one write-effect flag per pointer parameter",
                k.name
            );
            for (i, p) in pointer_params.iter().enumerate() {
                let read_only = p.split_whitespace().any(|w| w == "const" || w == "in");
                assert_eq!(
                    k.writes[i], !read_only,
                    "{}: pointer param {i} ({p:?}) disagrees with its write effect",
                    k.name
                );
            }
        }
    }

    #[test]
    fn every_cost_model_is_finite_and_nonnegative() {
        // Smoke-check the cost models on small representative inputs via
        // each module's own tests; here just assert the registry wiring
        // does not alias functions accidentally.
        let ks = all_kernels();
        for (i, a) in ks.iter().enumerate() {
            for b in ks.iter().skip(i + 1) {
                assert!(
                    !(a.func as usize == b.func as usize && a.name != b.name) || a.nidl == b.nidl,
                    "{} and {} share an implementation unexpectedly",
                    a.name,
                    b.name
                );
            }
        }
    }
}
