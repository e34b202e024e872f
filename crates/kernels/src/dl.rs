//! DL — convolutional embedding network (paper §V-B).
//!
//! "A convolutional neural network that projects 2 input images to low
//! dimensional embeddings and combines the embeddings using a dense
//! layer. Similar neural networks can be used, for example, to classify
//! if 2 images contain the same subject."
//!
//! The paper's Fig. 6 shows, per input image: CONV → POOL → CONV → POOL,
//! then a global pooling, a CONCAT joining the two towers and a final
//! DOT (dense) layer. Tensors are stored `[channels][height][width]`
//! row-major `f32`; filters are `[out_c][in_c][kh][kw]`.

use gpu_sim::{DataBuffer, KernelCost};

use crate::helpers::{cached_f32, holds, s, streaming_f32};
use crate::KernelDef;

/// `conv2d(x, w, y, in_c, h, w_dim, out_c, k)`: valid-padding 2-D
/// convolution with ReLU activation (stride 1).
pub static CONV2D: KernelDef = KernelDef {
    name: "conv2d",
    nidl: "const pointer float, const pointer float, pointer float, \
           sint32, sint32, sint32, sint32, sint32",
    func: conv2d_func,
    cost: conv2d_cost,
    writes: &[false, false, true],
};

/// Output spatial size of a valid convolution.
pub fn conv_out(h: usize, k: usize) -> usize {
    h + 1 - k
}

fn conv2d_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let in_c = s(scalars[0]);
    let h = s(scalars[1]);
    let w_dim = s(scalars[2]);
    let out_c = s(scalars[3]);
    let k = s(scalars[4]);
    // A filter larger than the image has no valid position.
    let (Some(oh), Some(ow)) = ((h + 1).checked_sub(k), (w_dim + 1).checked_sub(k)) else {
        return;
    };
    let x = bufs[0].as_f32();
    let w = bufs[1].as_f32();
    let mut y = bufs[2].as_f32_mut();
    if !(holds(x.len(), &[in_c, h, w_dim])
        && holds(w.len(), &[out_c, in_c, k, k])
        && holds(y.len(), &[out_c, oh, ow]))
    {
        return;
    }
    let shape = Conv { in_c, h, w_dim, k };
    for oc in 0..out_c {
        let wf = &w[oc * in_c * k * k..(oc + 1) * in_c * k * k];
        for r in 0..oh {
            let yr = &mut y[(oc * oh + r) * ow..(oc * oh + r + 1) * ow];
            let mut lanes = yr.chunks_exact_mut(CONV_LANES);
            for (i, out) in lanes.by_ref().enumerate() {
                out.copy_from_slice(&conv_lanes::<CONV_LANES>(&x, wf, shape, r, i * CONV_LANES));
            }
            let rest = lanes.into_remainder();
            for (c, out) in (ow - rest.len()..).zip(rest) {
                [*out] = conv_lanes::<1>(&x, wf, shape, r, c);
            }
        }
    }
}

/// Output columns one pass of [`conv_lanes`] settles side by side.
const CONV_LANES: usize = 8;

/// Geometry of a valid convolution: input channels, input height and
/// width, filter side.
#[derive(Clone, Copy)]
struct Conv {
    in_c: usize,
    h: usize,
    w_dim: usize,
    k: usize,
}

/// Output row `r`, columns `c..c + L` of the output channel whose filter
/// is `wf`, ReLU applied. Each output sums `x · w` in `f64` over input
/// channel, filter row and filter column ascending: the same chain
/// whatever `L` and its neighbours.
fn conv_lanes<const L: usize>(x: &[f32], wf: &[f32], g: Conv, r: usize, c: usize) -> [f32; L] {
    let Conv { in_c, h, w_dim, k } = g;
    let mut acc = [0.0f64; L];
    for ic in 0..in_c {
        for kr in 0..k {
            let wr = &wf[(ic * k + kr) * k..][..k];
            let start = ic * h * w_dim + (r + kr) * w_dim + c;
            let xr = &x[start..start + L + k - 1];
            for (kc, &wv) in wr.iter().enumerate() {
                let xs: &[f32; L] = xr[kc..kc + L].try_into().expect("L inputs");
                for (a, &xv) in acc.iter_mut().zip(xs) {
                    *a += xv as f64 * wv as f64;
                }
            }
        }
    }
    // ReLU
    acc.map(|a| a.max(0.0) as f32)
}

fn conv2d_cost(bufs: &[DataBuffer], scalars: &[f64]) -> KernelCost {
    let in_c = scalars[0];
    let h = scalars[1];
    let w_dim = scalars[2];
    let out_c = scalars[3];
    let k = scalars[4];
    let oh = h + 1.0 - k;
    let ow = w_dim + 1.0 - k;
    let flops = 2.0 * out_c * oh * ow * in_c * k * k;
    // Input tile + filters are heavily reused through shared memory/L2.
    // The inefficiency models the unoptimized direct convolution the
    // benchmark uses (no Winograd/implicit GEMM), calibrated against
    // the paper's DL serial times.
    cached_f32(
        bufs[0].len() as f64 + bufs[2].len() as f64,
        out_c * k,
        flops,
    )
    .with_inefficiency(8.0)
}

/// `pool2d(x, y, c, h, w)`: 2×2 average pooling, stride 2.
pub static POOL2D: KernelDef = KernelDef {
    name: "pool2d",
    nidl: "const pointer float, pointer float, sint32, sint32, sint32",
    func: pool2d_func,
    cost: pool2d_cost,
    writes: &[false, true],
};

fn pool2d_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let ch = s(scalars[0]);
    let h = s(scalars[1]);
    let w = s(scalars[2]);
    let oh = h / 2;
    let ow = w / 2;
    let x = bufs[0].as_f32();
    let mut y = bufs[1].as_f32_mut();
    if !(holds(x.len(), &[ch, h, w]) && holds(y.len(), &[ch, oh, ow])) {
        return;
    }
    for c in 0..ch {
        for r in 0..oh {
            for q in 0..ow {
                let base = c * h * w + 2 * r * w + 2 * q;
                y[c * oh * ow + r * ow + q] =
                    0.25 * (x[base] + x[base + 1] + x[base + w] + x[base + w + 1]);
            }
        }
    }
}

fn pool2d_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n / 4.0, 4.0)
}

/// `gap(x, y, c, hw)`: global average pooling — one value per channel
/// (the embedding).
pub static GAP: KernelDef = KernelDef {
    name: "gap",
    nidl: "const pointer float, pointer float, sint32, sint32",
    func: gap_func,
    cost: gap_cost,
    writes: &[false, true],
};

fn gap_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let ch = s(scalars[0]);
    let hw = s(scalars[1]);
    let x = bufs[0].as_f32();
    let mut y = bufs[1].as_f32_mut();
    if !(holds(x.len(), &[ch, hw]) && holds(y.len(), &[ch])) {
        return;
    }
    for c in 0..ch {
        let sum: f64 = x[c * hw..(c + 1) * hw].iter().map(|&v| v as f64).sum();
        y[c] = (sum / hw as f64) as f32;
    }
}

fn gap_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    let mut c = streaming_f32(n, 0.0, 1.0);
    c.min_time = 3e-6;
    c
}

/// `concat(a, b, out, n_a, n_b)`: concatenate the two tower embeddings.
pub static CONCAT: KernelDef = KernelDef {
    name: "concat",
    nidl: "const pointer float, const pointer float, pointer float, sint32, sint32",
    func: concat_func,
    cost: concat_cost,
    writes: &[false, false, true],
};

fn concat_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let na = s(scalars[0]);
    let nb = s(scalars[1]);
    let a = bufs[0].as_f32();
    let b = bufs[1].as_f32();
    let mut out = bufs[2].as_f32_mut();
    if na > a.len() || nb > b.len() || na.checked_add(nb).is_none_or(|n| n > out.len()) {
        return;
    }
    out[..na].copy_from_slice(&a[..na]);
    out[na..na + nb].copy_from_slice(&b[..nb]);
}

fn concat_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[2].len() as f64;
    streaming_f32(n, n, 0.0)
}

/// `dense(x, w, out, n)`: final dense layer with sigmoid — the `DOT`
/// node of Fig. 6. Produces one similarity score in `out[0]`.
pub static DENSE: KernelDef = KernelDef {
    name: "dense",
    nidl: "const pointer float, const pointer float, pointer float, sint32",
    func: dense_func,
    cost: dense_cost,
    writes: &[false, false, true],
};

fn dense_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    let w = bufs[1].as_f32();
    let mut out = bufs[2].as_f32_mut();
    let Some(score) = out.first_mut() else {
        return;
    };
    let acc: f64 = x
        .iter()
        .zip(w.iter())
        .take(n)
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum();
    *score = (1.0 / (1.0 + (-acc).exp())) as f32;
}

fn dense_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    let mut c = streaming_f32(2.0 * n, 0.0, 2.0);
    c.min_time = 3e-6;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{corpus, same_as_reference};
    use gpu_sim::TypedData;

    /// `conv2d_func` as first written, one output at a time: the oracle
    /// the lane version must match bit for bit.
    fn conv2d_reference(bufs: &[DataBuffer], scalars: &[f64]) {
        let in_c = s(scalars[0]);
        let h = s(scalars[1]);
        let w_dim = s(scalars[2]);
        let out_c = s(scalars[3]);
        let k = s(scalars[4]);
        let (Some(oh), Some(ow)) = ((h + 1).checked_sub(k), (w_dim + 1).checked_sub(k)) else {
            return;
        };
        let x = bufs[0].as_f32();
        let w = bufs[1].as_f32();
        let mut y = bufs[2].as_f32_mut();
        if !(holds(x.len(), &[in_c, h, w_dim])
            && holds(w.len(), &[out_c, in_c, k, k])
            && holds(y.len(), &[out_c, oh, ow]))
        {
            return;
        }
        for oc in 0..out_c {
            for r in 0..oh {
                for c in 0..ow {
                    let mut acc = 0.0f64;
                    for ic in 0..in_c {
                        for kr in 0..k {
                            for kc in 0..k {
                                let xv = x[ic * h * w_dim + (r + kr) * w_dim + (c + kc)];
                                let wv = w[oc * in_c * k * k + ic * k * k + kr * k + kc];
                                acc += xv as f64 * wv as f64;
                            }
                        }
                    }
                    y[oc * oh * ow + r * ow + c] = (acc.max(0.0)) as f32;
                }
            }
        }
    }

    #[test]
    fn conv2d_matches_its_sequential_reference_bit_for_bit() {
        // Output widths narrower than one lane array, one exactly, and
        // with remainders; filters from none to wider than the input.
        for (h, w_dim) in [
            (1usize, 1usize),
            (3, 3),
            (5, 4),
            (4, 9),
            (6, 10),
            (3, 19),
            (21, 21),
        ] {
            for k in 0..=4 {
                for (in_c, out_c) in [(0, 1), (1, 0), (1, 1), (2, 3), (3, 2)] {
                    for specials in [false, true] {
                        let seed = (h * 1000 + w_dim * 100 + k * 10 + in_c) as u64;
                        let y_len =
                            out_c * (h + 1).saturating_sub(k) * (w_dim + 1).saturating_sub(k);
                        let inputs = [
                            corpus(in_c * h * w_dim, seed, specials),
                            corpus(out_c * in_c * k * k, seed + 1, specials),
                            corpus(y_len, seed + 2, false),
                        ];
                        let scalars = [in_c, h, w_dim, out_c, k].map(|v| v as f64);
                        let case =
                            format!("{in_c}x{h}x{w_dim} to {out_c} k{k} specials {specials}");
                        same_as_reference(
                            conv2d_func,
                            conv2d_reference,
                            &inputs,
                            2,
                            &scalars,
                            &case,
                        );
                    }
                }
            }
        }
    }

    fn buf(v: Vec<f32>) -> DataBuffer {
        DataBuffer::new(TypedData::F32(v))
    }

    #[test]
    fn conv_output_geometry() {
        assert_eq!(conv_out(28, 3), 26);
        assert_eq!(conv_out(5, 5), 1);
    }

    #[test]
    fn conv2d_identity_filter_with_relu() {
        // 1×3×3 input, one 1×1 filter of weight 1 → output = relu(input).
        let x = buf(vec![-1.0, 2.0, -3.0, 4.0, -5.0, 6.0, -7.0, 8.0, -9.0]);
        let w = buf(vec![1.0]);
        let y = DataBuffer::f32_zeros(9);
        conv2d_func(&[x, w, y.clone()], &[1.0, 3.0, 3.0, 1.0, 1.0]);
        assert_eq!(
            *y.as_f32(),
            vec![0.0, 2.0, 0.0, 4.0, 0.0, 6.0, 0.0, 8.0, 0.0]
        );
    }

    #[test]
    fn conv2d_box_filter_sums_window() {
        // 1×3×3 ones, 3×3 filter of ones → single output 9.
        let x = buf(vec![1.0; 9]);
        let w = buf(vec![1.0; 9]);
        let y = DataBuffer::f32_zeros(1);
        conv2d_func(&[x, w, y.clone()], &[1.0, 3.0, 3.0, 1.0, 3.0]);
        assert_eq!(y.as_f32()[0], 9.0);
    }

    #[test]
    fn pool_averages_quads() {
        let x = buf(vec![1.0, 3.0, 5.0, 7.0]); // 1 channel, 2×2
        let y = DataBuffer::f32_zeros(1);
        pool2d_func(&[x, y.clone()], &[1.0, 2.0, 2.0]);
        assert_eq!(y.as_f32()[0], 4.0);
    }

    #[test]
    fn gap_reduces_each_channel() {
        let x = buf(vec![1.0, 3.0, 10.0, 20.0]); // 2 channels × 2 pixels
        let y = DataBuffer::f32_zeros(2);
        gap_func(&[x, y.clone()], &[2.0, 2.0]);
        assert_eq!(*y.as_f32(), vec![2.0, 15.0]);
    }

    #[test]
    fn concat_joins_in_order() {
        let a = buf(vec![1.0, 2.0]);
        let b = buf(vec![3.0]);
        let out = DataBuffer::f32_zeros(3);
        concat_func(&[a, b, out.clone()], &[2.0, 1.0]);
        assert_eq!(*out.as_f32(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_outputs_a_probability() {
        let x = buf(vec![1.0, -1.0]);
        let w = buf(vec![2.0, 0.5]);
        let out = DataBuffer::f32_zeros(1);
        dense_func(&[x, w, out.clone()], &[2.0]);
        let p = out.as_f32()[0];
        let expect = 1.0 / (1.0 + (-(2.0 - 0.5f64)).exp());
        assert!((p as f64 - expect).abs() < 1e-6);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn conv_cost_counts_macs() {
        let x = DataBuffer::f32_zeros(3 * 64 * 64);
        let w = DataBuffer::f32_zeros(8 * 3 * 3 * 3);
        let y = DataBuffer::f32_zeros(8 * 62 * 62);
        let c = conv2d_cost(&[x, w, y], &[3.0, 64.0, 64.0, 8.0, 3.0]);
        assert_eq!(c.flops32, 2.0 * 8.0 * 62.0 * 62.0 * 3.0 * 9.0);
        assert_eq!(c.inefficiency, 8.0);
        assert!(c.l2_bytes > c.dram_bytes, "convolution is cache-friendly");
    }
}
