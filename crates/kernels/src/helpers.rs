//! Shared cost-model building blocks.
//!
//! Calibration idioms used by every kernel:
//!
//! * **streaming** kernels (map-like): DRAM traffic = bytes in + bytes
//!   out, ~4 instructions per flop, negligible latency floor;
//! * **reduction** kernels: read-dominated DRAM traffic plus a latency
//!   floor for the tree depth (the paper's VEC derives from NVIDIA's
//!   "Faster Parallel Reductions on Kepler");
//! * **cache-friendly** kernels (dense matrices, stencils): most traffic
//!   hits L2; DRAM sees only compulsory misses. The paper's Fig. 12
//!   observes exactly this split ("benchmarks that operate on dense
//!   matrices make heavier use of L2 cache").

use gpu_sim::KernelCost;

/// Latency floor per level of a tree reduction (dependent warp rounds).
pub const REDUCTION_LEVEL_LATENCY: f64 = 1.2e-6;

/// Cost of a streaming (map-style) f32 kernel touching `read` + `write`
/// elements with `flops_per_elem` single-precision operations each.
pub fn streaming_f32(read_elems: f64, write_elems: f64, flops_per_elem: f64) -> KernelCost {
    let n = read_elems.max(write_elems);
    KernelCost {
        flops32: n * flops_per_elem,
        flops64: 0.0,
        dram_bytes: 4.0 * (read_elems + write_elems),
        l2_bytes: 4.0 * (read_elems + write_elems),
        instructions: n * (4.0 + flops_per_elem),
        min_time: 0.0,
        inefficiency: 0.0,
    }
}

/// Cost of a streaming f64 kernel (B&S): same shape, double the bytes.
pub fn streaming_f64(read_elems: f64, write_elems: f64, flops_per_elem: f64) -> KernelCost {
    let n = read_elems.max(write_elems);
    KernelCost {
        flops32: 0.0,
        flops64: n * flops_per_elem,
        dram_bytes: 8.0 * (read_elems + write_elems),
        l2_bytes: 8.0 * (read_elems + write_elems),
        instructions: n * (6.0 + flops_per_elem),
        min_time: 0.0,
        inefficiency: 0.0,
    }
}

/// Cost of a tree reduction over `n` f32 elements.
pub fn reduction_f32(n: f64, flops_per_elem: f64) -> KernelCost {
    let levels = (n.max(2.0)).log2().ceil();
    KernelCost {
        flops32: n * flops_per_elem,
        flops64: 0.0,
        dram_bytes: 4.0 * n,
        l2_bytes: 4.0 * n * 1.5, // partial sums bounce through L2
        instructions: n * (4.0 + flops_per_elem),
        min_time: levels * REDUCTION_LEVEL_LATENCY,
        inefficiency: 0.0,
    }
}

/// Cost of a dense compute kernel where a working set of `hot_elems`
/// f32 values is re-read `reuse` times: the re-reads hit L2, DRAM sees
/// each element once.
pub fn cached_f32(hot_elems: f64, reuse: f64, flops_total: f64) -> KernelCost {
    KernelCost {
        flops32: flops_total,
        flops64: 0.0,
        dram_bytes: 4.0 * hot_elems,
        l2_bytes: 4.0 * hot_elems * reuse.max(1.0),
        instructions: flops_total * 1.5 + hot_elems,
        min_time: 0.0,
        inefficiency: 0.0,
    }
}

/// Round a float scalar argument back to `usize` (scalars ride in the
/// `&[f64]` argument list). A negative value is a valid `sint32` and,
/// as a length, no elements: the cast saturates to 0.
pub fn s(x: f64) -> usize {
    debug_assert!(x.fract() == 0.0, "scalar {x} is not an integer");
    x as usize
}

/// Does a buffer of `len` elements hold a `dims[0] × dims[1] × …`
/// array? A launch's shape scalars are its caller's — in a service, a
/// tenant's — and reach the kernel unjudged (the runtime does not know
/// which scalar is a dimension). A decoder that indexes by them asks
/// this of every buffer first and returns without writing when one is
/// too short, instead of taking down whoever is advancing virtual time.
/// A product that overflows `usize` fits nowhere.
pub(crate) fn holds(len: usize, dims: &[usize]) -> bool {
    dims.iter()
        .try_fold(1usize, |p, &d| p.checked_mul(d))
        .is_some_and(|p| p <= len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_compares_the_checked_product() {
        assert!(holds(12, &[3, 4]));
        assert!(holds(12, &[2, 2, 3]));
        assert!(!holds(11, &[3, 4]));
        assert!(holds(0, &[0, usize::MAX]));
        assert!(!holds(usize::MAX, &[usize::MAX, 2]));
        assert!(holds(1, &[]));
    }

    #[test]
    fn streaming_cost_scales_linearly() {
        let a = streaming_f32(1e6, 1e6, 2.0);
        let b = streaming_f32(2e6, 2e6, 2.0);
        assert!((b.dram_bytes / a.dram_bytes - 2.0).abs() < 1e-12);
        assert!((b.flops32 / a.flops32 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reduction_has_log_latency_floor() {
        let c = reduction_f32(1024.0, 1.0);
        assert!((c.min_time - 10.0 * REDUCTION_LEVEL_LATENCY).abs() < 1e-12);
    }

    #[test]
    fn cached_kernel_amplifies_l2_not_dram() {
        let c = cached_f32(1e6, 8.0, 1e7);
        assert!(c.l2_bytes > 7.0 * c.dram_bytes);
    }

    #[test]
    fn f64_streaming_doubles_bytes() {
        let a = streaming_f32(1e6, 1e6, 1.0);
        let b = streaming_f64(1e6, 1e6, 1.0);
        assert!((b.dram_bytes / a.dram_bytes - 2.0).abs() < 1e-12);
        assert_eq!(b.flops32, 0.0);
        assert!(b.flops64 > 0.0);
    }

    #[test]
    fn scalar_cast_roundtrips() {
        assert_eq!(s(42.0), 42);
        assert_eq!(s(0.0), 0);
    }
}
