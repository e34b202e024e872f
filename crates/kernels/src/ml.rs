//! ML — machine-learning ensemble (paper §V-B, Figs. 2 and 10).
//!
//! "An ML pipeline that combines Categorical Naïve Bayes and Ridge
//! Regression classifiers by applying softmax normalization and averaging
//! scores. The input matrix has 200 features. This benchmark contains
//! branch imbalance (the Naïve Bayes classifier takes longer) and
//! read-only arguments."
//!
//! Layouts: the input `X` is `rows × features` row-major `f32`; model
//! matrices are `classes × features`; score matrices are
//! `rows × classes`.

use gpu_sim::{DataBuffer, KernelCost};

use crate::helpers::{cached_f32, holds, s, streaming_f32};
use crate::KernelDef;

/// `rr_normalize(x, z, rows, features)`: column standardization
/// (subtract the feature mean, divide by the feature standard
/// deviation) — the `NORM` stage of the ridge branch.
pub static RR_NORMALIZE: KernelDef = KernelDef {
    name: "rr_normalize",
    nidl: "const pointer float, pointer float, sint32, sint32",
    func: rr_normalize_func,
    cost: rr_normalize_cost,
    writes: &[false, true],
};

fn rr_normalize_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let features = s(scalars[1]);
    let x = bufs[0].as_f32();
    let mut z = bufs[1].as_f32_mut();
    // No features, nothing to standardize (and no row width to split by).
    if features == 0 || !(holds(x.len(), &[rows, features]) && holds(z.len(), &[rows, features])) {
        return;
    }
    // Row-major sweeps with one accumulator per column: each column's
    // sums still add its rows in ascending order.
    let x_rows = || x.chunks_exact(features).take(rows);
    let mut mean = vec![0.0f64; features];
    for row in x_rows() {
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v as f64;
        }
    }
    for m in &mut mean {
        *m /= rows as f64;
    }
    let mut sd = vec![0.0f64; features];
    for row in x_rows() {
        for ((var, &v), m) in sd.iter_mut().zip(row).zip(&mean) {
            let d = v as f64 - m;
            *var += d * d;
        }
    }
    for s in &mut sd {
        *s = (*s / rows as f64).sqrt().max(1e-12);
    }
    for (zr, row) in z.chunks_exact_mut(features).zip(x_rows()) {
        for (((z, &v), m), s) in zr.iter_mut().zip(row).zip(&mean).zip(&sd) {
            *z = ((v as f64 - m) / s) as f32;
        }
    }
}

fn rr_normalize_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    // Three dependent passes over the matrix with column-strided access
    // (poor coalescing): heavily latency-bound.
    streaming_f32(3.0 * n, n, 5.0).with_inefficiency(30.0)
}

/// `rr_matmul(z, w, out, rows, features, classes)`: score matrix
/// `out = z · wᵀ` — the tall-skinny GEMM whose low parallelism per row
/// the paper blames for ML's low serial IPC (§V-F).
pub static RR_MATMUL: KernelDef = KernelDef {
    name: "rr_matmul",
    nidl: "const pointer float, const pointer float, pointer float, sint32, sint32, sint32",
    func: matmul_func,
    cost: matmul_cost,
    writes: &[false, false, true],
};

/// `nb_matmul(x, logp, out, rows, features, classes)`: Naïve Bayes
/// log-likelihoods, structurally the same GEMM against the per-class
/// log-probability table.
pub static NB_MATMUL: KernelDef = KernelDef {
    name: "nb_matmul",
    nidl: "const pointer float, const pointer float, pointer float, sint32, sint32, sint32",
    func: matmul_func,
    cost: matmul_cost,
    writes: &[false, false, true],
};

fn matmul_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let features = s(scalars[1]);
    let classes = s(scalars[2]);
    let a = bufs[0].as_f32();
    let b = bufs[1].as_f32(); // classes × features
    let mut out = bufs[2].as_f32_mut();
    if !(holds(a.len(), &[rows, features])
        && holds(b.len(), &[classes, features])
        && holds(out.len(), &[rows, classes]))
    {
        return;
    }
    let mut block = vec![[0.0f64; ROW_LANES]; features];
    let mut i = 0;
    while i + ROW_LANES <= rows {
        dot_lanes(&a, &b, &mut out, i, classes, &mut block);
        i += ROW_LANES;
    }
    let mut row = vec![[0.0f64; 1]; features];
    for i in i..rows {
        dot_lanes(&a, &b, &mut out, i, classes, &mut row);
    }
}

/// Rows one pass of [`dot_lanes`] settles side by side.
const ROW_LANES: usize = 8;

/// Every class's scores of rows `i..i + L`: `block` (one entry per
/// feature) first takes the rows' features cast to `f64`, then each
/// score sums `a · b` over the features in ascending order — the same
/// chain whatever `L` and its neighbours.
fn dot_lanes<const L: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    classes: usize,
    block: &mut [[f64; L]],
) {
    let features = block.len();
    for (j, col) in block.iter_mut().enumerate() {
        for (l, v) in col.iter_mut().enumerate() {
            *v = a[(i + l) * features + j] as f64;
        }
    }
    for c in 0..classes {
        let mut acc = [0.0f64; L];
        for (col, &bv) in block.iter().zip(&b[c * features..(c + 1) * features]) {
            for (acc, &av) in acc.iter_mut().zip(col) {
                *acc += av * bv as f64;
            }
        }
        for (l, acc) in acc.into_iter().enumerate() {
            out[(i + l) * classes + c] = acc as f32;
        }
    }
}

/// The paper measures a serial IPC of just 0.04 for ML (§V-F): its
/// tall-matrix kernels are severely latency-bound and run at a tiny
/// fraction of peak. Calibrated against the paper's GTX 1660 Super
/// serial execution times (~0.8 us per input row).
const MATMUL_INEFFICIENCY: f64 = 200.0;

fn matmul_cost(bufs: &[DataBuffer], scalars: &[f64]) -> KernelCost {
    let rows = scalars[0];
    let features = scalars[1];
    let classes = scalars[2];
    let flops = 2.0 * rows * features * classes;
    // X streams from DRAM once; the small model matrix lives in L2.
    let mut c = cached_f32(bufs[0].len() as f64 + bufs[2].len() as f64, classes, flops)
        .with_inefficiency(MATMUL_INEFFICIENCY);
    // Tall matrices with few columns leave threads idle: latency floor
    // proportional to the dot-product length.
    c.min_time = 2e-6 + features * 1e-9;
    c
}

/// `rr_add_intercept(out, b, rows, classes)`: `out[i][c] += b[c]` — the
/// `ADDV` stage.
pub static RR_ADD_INTERCEPT: KernelDef = KernelDef {
    name: "rr_add_intercept",
    nidl: "pointer float, const pointer float, sint32, sint32",
    func: add_intercept_func,
    cost: add_intercept_cost,
    writes: &[true, false],
};

fn add_intercept_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let classes = s(scalars[1]);
    let mut out = bufs[0].as_f32_mut();
    let b = bufs[1].as_f32();
    if !(holds(out.len(), &[rows, classes]) && holds(b.len(), &[classes])) {
        return;
    }
    for i in 0..rows {
        for c in 0..classes {
            out[i * classes + c] += b[c];
        }
    }
}

fn add_intercept_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n, 1.0)
}

/// `softmax(m, rows, classes)`: numerically-stable in-place row softmax.
pub static SOFTMAX: KernelDef = KernelDef {
    name: "softmax",
    nidl: "pointer float, sint32, sint32",
    func: softmax_func,
    cost: softmax_cost,
    writes: &[true],
};

fn softmax_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let classes = s(scalars[1]);
    let mut m = bufs[0].as_f32_mut();
    if !holds(m.len(), &[rows, classes]) {
        return;
    }
    for i in 0..rows {
        let row = &mut m[i * classes..(i + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f64;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v as f64;
        }
        for v in row.iter_mut() {
            *v = (*v as f64 / sum) as f32;
        }
    }
}

fn softmax_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n, 12.0).with_inefficiency(8.0)
}

/// `nb_row_max(m, amax, rows, classes)`: per-row maximum — the `MAX`
/// stage of the Naïve Bayes branch.
pub static NB_ROW_MAX: KernelDef = KernelDef {
    name: "nb_row_max",
    nidl: "const pointer float, pointer float, sint32, sint32",
    func: nb_row_max_func,
    cost: rowwise_cost,
    writes: &[false, true],
};

fn nb_row_max_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let classes = s(scalars[1]);
    let m = bufs[0].as_f32();
    let mut amax = bufs[1].as_f32_mut();
    if !(holds(m.len(), &[rows, classes]) && holds(amax.len(), &[rows])) {
        return;
    }
    for i in 0..rows {
        amax[i] = m[i * classes..(i + 1) * classes]
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
    }
}

/// `nb_lse(m, amax, lse, rows, classes)`: per-row log-sum-exp given the
/// row maxima — the `LSE` stage.
pub static NB_LSE: KernelDef = KernelDef {
    name: "nb_lse",
    nidl: "const pointer float, const pointer float, pointer float, sint32, sint32",
    func: nb_lse_func,
    cost: rowwise_cost,
    writes: &[false, false, true],
};

fn nb_lse_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let classes = s(scalars[1]);
    let m = bufs[0].as_f32();
    let amax = bufs[1].as_f32();
    let mut lse = bufs[2].as_f32_mut();
    if !(holds(m.len(), &[rows, classes]) && holds(amax.len().min(lse.len()), &[rows])) {
        return;
    }
    for i in 0..rows {
        let sum: f64 = m[i * classes..(i + 1) * classes]
            .iter()
            .map(|&v| ((v - amax[i]) as f64).exp())
            .sum();
        lse[i] = sum.ln() as f32;
    }
}

/// `nb_exp(m, amax, lse, rows, classes)`: normalize in place:
/// `m[i][c] ← exp(m − amax − lse)` — the `EXP` stage producing
/// probabilities.
pub static NB_EXP: KernelDef = KernelDef {
    name: "nb_exp",
    nidl: "pointer float, const pointer float, const pointer float, sint32, sint32",
    func: nb_exp_func,
    cost: rowwise_cost,
    writes: &[true, false, false],
};

fn nb_exp_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let classes = s(scalars[1]);
    let mut m = bufs[0].as_f32_mut();
    let amax = bufs[1].as_f32();
    let lse = bufs[2].as_f32();
    if !(holds(m.len(), &[rows, classes]) && holds(amax.len().min(lse.len()), &[rows])) {
        return;
    }
    for i in 0..rows {
        for c in 0..classes {
            let v = m[i * classes + c];
            m[i * classes + c] = ((v - amax[i] - lse[i]) as f64).exp() as f32;
        }
    }
}

fn rowwise_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    // Row-strided reductions over 10-wide rows: latency-bound too.
    streaming_f32(n, n / 8.0, 8.0).with_inefficiency(10.0)
}

/// `argmax_combine(r1, r2, out, rows, classes)`: the `ARGMAX` ensemble
/// stage — average the two classifiers' probabilities and pick the
/// winning class per row.
pub static ARGMAX_COMBINE: KernelDef = KernelDef {
    name: "argmax_combine",
    nidl: "const pointer float, const pointer float, pointer sint32, sint32, sint32",
    func: argmax_func,
    cost: argmax_cost,
    writes: &[false, false, true],
};

fn argmax_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let classes = s(scalars[1]);
    let r1 = bufs[0].as_f32();
    let r2 = bufs[1].as_f32();
    let mut out = bufs[2].as_i32_mut();
    if !(holds(r1.len().min(r2.len()), &[rows, classes]) && holds(out.len(), &[rows])) {
        return;
    }
    for i in 0..rows {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for c in 0..classes {
            let v = 0.5 * (r1[i * classes + c] + r2[i * classes + c]);
            if v > best_v {
                best_v = v;
                best = c;
            }
        }
        out[i] = best as i32;
    }
}

fn argmax_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(2.0 * n, n / 8.0, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{corpus, same_as_reference};
    use gpu_sim::TypedData;

    fn buf(v: Vec<f32>) -> DataBuffer {
        DataBuffer::new(TypedData::F32(v))
    }

    /// `rr_normalize_func` as first written, three strided walks per
    /// column: the oracle the row-major sweeps must match bit for bit.
    fn rr_normalize_reference(bufs: &[DataBuffer], scalars: &[f64]) {
        let rows = s(scalars[0]);
        let features = s(scalars[1]);
        let x = bufs[0].as_f32();
        let mut z = bufs[1].as_f32_mut();
        if !(holds(x.len(), &[rows, features]) && holds(z.len(), &[rows, features])) {
            return;
        }
        for j in 0..features {
            let mut mean = 0.0f64;
            for i in 0..rows {
                mean += x[i * features + j] as f64;
            }
            mean /= rows as f64;
            let mut var = 0.0f64;
            for i in 0..rows {
                let d = x[i * features + j] as f64 - mean;
                var += d * d;
            }
            let std = (var / rows as f64).sqrt().max(1e-12);
            for i in 0..rows {
                z[i * features + j] = ((x[i * features + j] as f64 - mean) / std) as f32;
            }
        }
    }

    /// `matmul_func` as first written, one dot product at a time (see
    /// [`rr_normalize_reference`]).
    fn matmul_reference(bufs: &[DataBuffer], scalars: &[f64]) {
        let rows = s(scalars[0]);
        let features = s(scalars[1]);
        let classes = s(scalars[2]);
        let a = bufs[0].as_f32();
        let b = bufs[1].as_f32();
        let mut out = bufs[2].as_f32_mut();
        if !(holds(a.len(), &[rows, features])
            && holds(b.len(), &[classes, features])
            && holds(out.len(), &[rows, classes]))
        {
            return;
        }
        for i in 0..rows {
            for c in 0..classes {
                let mut acc = 0.0f64;
                for j in 0..features {
                    acc += a[i * features + j] as f64 * b[c * features + j] as f64;
                }
                out[i * classes + c] = acc as f32;
            }
        }
    }

    #[test]
    fn rr_normalize_matches_its_sequential_reference_bit_for_bit() {
        for rows in [0, 1, 2, 7, 33] {
            for features in [0, 1, 3, 10, 13, 200] {
                for specials in [false, true] {
                    let n = rows * features;
                    let seed = (rows * 1000 + features) as u64;
                    let inputs = [corpus(n, seed, specials), corpus(n, seed + 1, false)];
                    let scalars = [rows as f64, features as f64];
                    let case = format!("{rows}x{features} specials {specials}");
                    same_as_reference(
                        rr_normalize_func,
                        rr_normalize_reference,
                        &inputs,
                        1,
                        &scalars,
                        &case,
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_matches_its_sequential_reference_bit_for_bit() {
        // Row counts below, at and past the lane width; the class
        // counts 1, 3, 10 (the ML suite's) and 13; feature counts from none up.
        for rows in [0, 1, 7, 8, 9, 17, 30] {
            for classes in [1, 3, 10, 13] {
                for features in [0, 1, 5, 31] {
                    for specials in [false, true] {
                        let seed = (rows * 10_000 + classes * 100 + features) as u64;
                        let inputs = [
                            corpus(rows * features, seed, specials),
                            corpus(classes * features, seed + 1, specials),
                            corpus(rows * classes, seed + 2, false),
                        ];
                        let scalars = [rows as f64, features as f64, classes as f64];
                        let case = format!("{rows}x{features} by {classes} specials {specials}");
                        same_as_reference(
                            matmul_func,
                            matmul_reference,
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

    #[test]
    fn normalize_zero_means_unit_variance() {
        let rows = 50;
        let features = 3;
        let data: Vec<f32> = (0..rows * features)
            .map(|i| ((i * 37) % 17) as f32 - 5.0)
            .collect();
        let x = buf(data);
        let z = DataBuffer::f32_zeros(rows * features);
        rr_normalize_func(&[x, z.clone()], &[rows as f64, features as f64]);
        let zv = z.as_f32();
        for j in 0..features {
            let mean: f64 =
                (0..rows).map(|i| zv[i * features + j] as f64).sum::<f64>() / rows as f64;
            let var: f64 = (0..rows)
                .map(|i| (zv[i * features + j] as f64 - mean).powi(2))
                .sum::<f64>()
                / rows as f64;
            assert!(mean.abs() < 1e-5, "column {j} mean = {mean}");
            assert!((var - 1.0).abs() < 1e-4, "column {j} var = {var}");
        }
    }

    #[test]
    fn matmul_matches_manual_dot_products() {
        // 2×3 input, 2 classes.
        let x = buf(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let w = buf(vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]); // class0=[1,0,0], class1=[0,1,1]
        let out = DataBuffer::f32_zeros(4);
        matmul_func(&[x, w, out.clone()], &[2.0, 3.0, 2.0]);
        assert_eq!(*out.as_f32(), vec![1.0, 5.0, 4.0, 11.0]);
    }

    #[test]
    fn add_intercept_broadcasts() {
        let m = buf(vec![0.0, 0.0, 1.0, 1.0]);
        let b = buf(vec![10.0, 20.0]);
        add_intercept_func(&[m.clone(), b], &[2.0, 2.0]);
        assert_eq!(*m.as_f32(), vec![10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let m = buf(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_func(std::slice::from_ref(&m), &[2.0, 3.0]);
        let v = m.as_f32();
        for i in 0..2 {
            let sum: f32 = v[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(v[i * 3] < v[i * 3 + 1] && v[i * 3 + 1] < v[i * 3 + 2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = buf(vec![1000.0, 1001.0]);
        softmax_func(std::slice::from_ref(&m), &[1.0, 2.0]);
        let v = m.as_f32();
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v[0] + v[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn nb_chain_produces_normalized_probabilities() {
        let rows = 3;
        let classes = 4;
        let m = buf((0..12).map(|i| (i as f32) * 0.3 - 2.0).collect());
        let amax = DataBuffer::f32_zeros(rows);
        let lse = DataBuffer::f32_zeros(rows);
        nb_row_max_func(&[m.clone(), amax.clone()], &[rows as f64, classes as f64]);
        nb_lse_func(
            &[m.clone(), amax.clone(), lse.clone()],
            &[rows as f64, classes as f64],
        );
        nb_exp_func(&[m.clone(), amax, lse], &[rows as f64, classes as f64]);
        let v = m.as_f32();
        for i in 0..rows {
            let sum: f32 = v[i * classes..(i + 1) * classes].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
            assert!(v[i * classes..(i + 1) * classes].iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn argmax_combines_both_classifiers() {
        // Classifier 1 prefers class 0; classifier 2 strongly prefers 1.
        let r1 = buf(vec![0.6, 0.4]);
        let r2 = buf(vec![0.1, 0.9]);
        let out = DataBuffer::i32_zeros(1);
        argmax_func(&[r1, r2, out.clone()], &[1.0, 2.0]);
        assert_eq!(out.as_i32()[0], 1);
    }

    #[test]
    fn matmul_cost_counts_fma_flops() {
        let x = DataBuffer::f32_zeros(1000 * 200);
        let w = DataBuffer::f32_zeros(10 * 200);
        let out = DataBuffer::f32_zeros(1000 * 10);
        let c = matmul_cost(&[x, w, out], &[1000.0, 200.0, 10.0]);
        assert_eq!(c.flops32, 2.0 * 1000.0 * 200.0 * 10.0);
        assert_eq!(c.inefficiency, MATMUL_INEFFICIENCY);
        assert!(c.min_time > 0.0, "tall-matrix latency floor");
    }
}
