//! Generic utility kernels.
//!
//! These round out the suite (several paper benchmarks use small helper
//! launches for initialization and staging) and are handy in unit tests
//! and examples that need a kernel without benchmark baggage.

use gpu_sim::{DataBuffer, KernelCost};

use crate::helpers::{reduction_f32, s, streaming_f32};
use crate::KernelDef;

/// `memset_f32(x, value, n)`: fill with a constant.
pub static MEMSET_F32: KernelDef = KernelDef {
    name: "memset_f32",
    nidl: "pointer float, float, sint32",
    func: memset_func,
    cost: memset_cost,
    writes: &[true],
};

fn memset_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let value = scalars[0] as f32;
    let n = s(scalars[1]);
    for v in bufs[0].as_f32_mut().iter_mut().take(n) {
        *v = value;
    }
}

fn memset_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    streaming_f32(0.0, bufs[0].len() as f64, 0.0)
}

/// `axpy(x, y, a, n)`: y ← a·x + y.
pub static AXPY: KernelDef = KernelDef {
    name: "axpy",
    nidl: "const pointer float, pointer float, float, sint32",
    func: axpy_func,
    cost: axpy_cost,
    writes: &[false, true],
};

fn axpy_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let a = scalars[0] as f32;
    let n = s(scalars[1]);
    let x = bufs[0].as_f32();
    let mut y = bufs[1].as_f32_mut();
    for (y, x) in y.iter_mut().zip(x.iter()).take(n) {
        *y += a * x;
    }
}

fn axpy_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(2.0 * n, n, 2.0)
}

/// `scale(x, out, a, n)`: out ← a·x.
pub static SCALE: KernelDef = KernelDef {
    name: "scale",
    nidl: "const pointer float, pointer float, float, sint32",
    func: scale_func,
    cost: scale_cost,
    writes: &[false, true],
};

fn scale_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let a = scalars[0] as f32;
    let n = s(scalars[1]);
    let x = bufs[0].as_f32();
    let mut out = bufs[1].as_f32_mut();
    for (out, x) in out.iter_mut().zip(x.iter()).take(n) {
        *out = a * x;
    }
}

fn scale_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n, 1.0)
}

/// `dot(x, y, out, n)`: `out[0] ← xᵀy`.
pub static DOT: KernelDef = KernelDef {
    name: "dot",
    nidl: "const pointer float, const pointer float, pointer float, sint32",
    func: dot_func,
    cost: dot_cost,
    writes: &[false, false, true],
};

fn dot_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    let y = bufs[1].as_f32();
    let acc: f64 = x
        .iter()
        .zip(y.iter())
        .take(n)
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum();
    bufs[2].as_f32_mut()[0] = acc as f32;
}

fn dot_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    reduction_f32(2.0 * bufs[0].len() as f64, 1.0)
}

/// `pin(w, s, wn, sn)`: fold a large read-only weight array into a
/// smaller state array, `s[i] ← 0.5·s[i] + 1e-6·w[i mod wn]`. The
/// weight/state lengths are independent, which makes it the building
/// block of workloads that *anchor* a chain to a device: whichever
/// device holds `w` dominates both the byte count and the transfer cost
/// of this kernel, so every placement policy keeps it (and therefore
/// `s`) there.
pub static PIN: KernelDef = KernelDef {
    name: "pin",
    nidl: "const pointer float, pointer float, sint32, sint32",
    func: pin_func,
    cost: pin_cost,
    writes: &[false, true],
};

fn pin_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let wn = s(scalars[0]);
    let sn = s(scalars[1]);
    let w = bufs[0].as_f32();
    let mut st = bufs[1].as_f32_mut();
    let wn = wn.min(w.len());
    if wn == 0 {
        return;
    }
    for (i, st) in st.iter_mut().enumerate().take(sn) {
        *st = 0.5 * *st + 1e-6 * w[i % wn];
    }
}

fn pin_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let wn = bufs[0].len() as f64;
    let sn = bufs[1].len() as f64;
    streaming_f32(wn + sn, sn, 2.0)
}

/// `join_sample(a, s, j, an, sn, jn)`: sample two read-only inputs of
/// independent lengths into a small output,
/// `j[i] ← a[(3i+1) mod an] + s[(5i+2) mod sn]`. The mixed-length join
/// every fork/join workload needs — and the kernel whose placement
/// separates byte-count locality from transfer-cost awareness, because
/// its inputs typically live on different devices behind different
/// links.
pub static JOIN: KernelDef = KernelDef {
    name: "join_sample",
    nidl: "const pointer float, const pointer float, pointer float, sint32, sint32, sint32",
    func: join_func,
    cost: join_cost,
    writes: &[false, false, true],
};

fn join_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let an = s(scalars[0]);
    let sn = s(scalars[1]);
    let jn = s(scalars[2]);
    let a = bufs[0].as_f32();
    let st = bufs[1].as_f32();
    let mut j = bufs[2].as_f32_mut();
    let (an, sn) = (an.min(a.len()), sn.min(st.len()));
    if an == 0 || sn == 0 {
        return;
    }
    for (i, j) in j.iter_mut().enumerate().take(jn) {
        *j = a[(3 * i + 1) % an] + st[(5 * i + 2) % sn];
    }
}

fn join_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let reads = (bufs[0].len() + bufs[1].len()) as f64;
    let writes = bufs[2].len() as f64;
    streaming_f32(reads, writes, 1.0)
}

/// `copy_f32(x, out, n)`: plain copy.
pub static COPY_F32: KernelDef = KernelDef {
    name: "copy_f32",
    nidl: "const pointer float, pointer float, sint32",
    func: copy_func,
    cost: copy_cost,
    writes: &[false, true],
};

pub(crate) fn copy_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    let mut out = bufs[1].as_f32_mut();
    let n = n.min(x.len()).min(out.len());
    out[..n].copy_from_slice(&x[..n]);
}

pub(crate) fn copy_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n, 0.0)
}

/// `scale_i32(x, out, a, n)`: out ← a·x over 32-bit integers (saturating
/// at the i32 range like real integer SIMD lanes would wrap — we
/// saturate to keep results deterministic and comparison-friendly).
pub static SCALE_I32: KernelDef = KernelDef {
    name: "scale_i32",
    nidl: "const pointer sint32, pointer sint32, float, sint32",
    func: scale_i32_func,
    cost: scale_i32_cost,
    writes: &[false, true],
};

fn scale_i32_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let a = scalars[0] as i64;
    let n = s(scalars[1]);
    let x = bufs[0].as_i32();
    let mut out = bufs[1].as_i32_mut();
    for (out, &x) in out.iter_mut().zip(x.iter()).take(n) {
        *out = (a * x as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    }
}

fn scale_i32_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n, 1.0)
}

/// `threshold_u8(x, out, t, n)`: binarize a byte image,
/// `out[i] = 255 if x[i] ≥ t else 0` (the staging step of 8-bit image
/// pipelines).
pub static THRESHOLD_U8: KernelDef = KernelDef {
    name: "threshold_u8",
    nidl: "const pointer char, pointer char, float, sint32",
    func: threshold_u8_func,
    cost: threshold_u8_cost,
    writes: &[false, true],
};

fn threshold_u8_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let t = scalars[0] as u8;
    let n = s(scalars[1]);
    let x = bufs[0].as_u8();
    let mut out = bufs[1].as_u8_mut();
    for (out, &x) in out.iter_mut().zip(x.iter()).take(n) {
        *out = if x >= t { 255 } else { 0 };
    }
}

fn threshold_u8_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n / 4.0, n / 4.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TypedData;

    fn buf(v: Vec<f32>) -> DataBuffer {
        DataBuffer::new(TypedData::F32(v))
    }

    #[test]
    fn memset_fills() {
        let x = DataBuffer::f32_zeros(3);
        memset_func(std::slice::from_ref(&x), &[2.5, 3.0]);
        assert_eq!(*x.as_f32(), vec![2.5; 3]);
    }

    #[test]
    fn threshold_u8_binarizes() {
        let x = DataBuffer::new(TypedData::U8(vec![10, 200, 127, 128]));
        let out = DataBuffer::new(TypedData::U8(vec![0; 4]));
        threshold_u8_func(&[x, out.clone()], &[128.0, 4.0]);
        assert_eq!(*out.as_u8(), vec![0, 255, 0, 255]);
    }

    #[test]
    fn scale_i32_scales_and_saturates() {
        let x = DataBuffer::new(TypedData::I32(vec![1, -2, i32::MAX]));
        let out = DataBuffer::new(TypedData::I32(vec![0; 3]));
        scale_i32_func(&[x, out.clone()], &[3.0, 3.0]);
        assert_eq!(*out.as_i32(), vec![3, -6, i32::MAX]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = buf(vec![1.0, 2.0]);
        let y = buf(vec![10.0, 20.0]);
        axpy_func(&[x, y.clone()], &[3.0, 2.0]);
        assert_eq!(*y.as_f32(), vec![13.0, 26.0]);
    }

    #[test]
    fn scale_scales() {
        let x = buf(vec![1.0, -2.0]);
        let out = DataBuffer::f32_zeros(2);
        scale_func(&[x, out.clone()], &[0.5, 2.0]);
        assert_eq!(*out.as_f32(), vec![0.5, -1.0]);
    }

    #[test]
    fn dot_computes_inner_product() {
        let x = buf(vec![1.0, 2.0, 3.0]);
        let y = buf(vec![4.0, 5.0, 6.0]);
        let out = DataBuffer::f32_zeros(1);
        dot_func(&[x, y, out.clone()], &[3.0]);
        assert_eq!(out.as_f32()[0], 32.0);
    }

    #[test]
    fn copy_respects_prefix_length() {
        let x = buf(vec![1.0, 2.0, 3.0]);
        let out = DataBuffer::f32_zeros(3);
        copy_func(&[x, out.clone()], &[2.0]);
        assert_eq!(*out.as_f32(), vec![1.0, 2.0, 0.0]);
    }
}
