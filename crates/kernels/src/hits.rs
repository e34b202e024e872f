//! HITS — hubs and authorities on a graph (paper §V-B).
//!
//! "It computes the HITS algorithm on a graph using repeated sparse
//! matrix-vector multiplication on a matrix and its transpose, and is
//! implemented with LightSpMV. It contains complex cross-synchronizations
//! and multiple iterations."
//!
//! The sparse matrix is CSR: `rowptr` (`i32`, `n+1` entries), `colidx`
//! (`i32`, nnz entries), `vals` (`f32`, nnz entries). One HITS iteration:
//! `a ← Aᵀh`, `h ← A a`, each followed by a sum-reduction and a
//! normalizing division (the paper's Fig. 6 shows SPMV → SUM → DIV on
//! two cross-synchronized streams).

use gpu_sim::{DataBuffer, KernelCost};

use crate::helpers::{reduction_f32, s, streaming_f32, REDUCTION_LEVEL_LATENCY};
use crate::KernelDef;

/// `spmv(rowptr, colidx, vals, x, y, n)`: y ← A·x over CSR (LightSpMV's
/// vector-kernel shape).
pub static SPMV: KernelDef = KernelDef {
    name: "spmv",
    nidl: "const pointer sint32, const pointer sint32, const pointer float, \
           const pointer float, pointer float, sint32",
    func: spmv_func,
    cost: spmv_cost,
    writes: &[false, false, false, false, true],
};

fn spmv_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let rowptr = bufs[0].as_i32();
    let colidx = bufs[1].as_i32();
    let vals = bufs[2].as_f32();
    let x = bufs[3].as_f32();
    let mut y = bufs[4].as_f32_mut();
    let n = n.min(y.len()).min(rowptr.len().saturating_sub(1));
    for r in 0..n {
        // The CSR arrays are the caller's data like any other: a row
        // extent outside `vals`/`colidx` (a negative entry is a huge
        // one) or a column outside `x` ends the kernel with that row
        // and the ones after it unwritten.
        let (lo, hi) = (rowptr[r] as usize, rowptr[r + 1] as usize);
        let (Some(vals), Some(cols)) = (vals.get(lo..hi), colidx.get(lo..hi)) else {
            return;
        };
        let mut acc = 0.0f64;
        for (&v, &c) in vals.iter().zip(cols) {
            let Some(&xv) = x.get(c as usize) else {
                return;
            };
            acc += v as f64 * xv as f64;
        }
        y[r] = acc as f32;
    }
}

fn spmv_cost(bufs: &[DataBuffer], scalars: &[f64]) -> KernelCost {
    let n = scalars[0];
    let nnz = bufs[2].len() as f64;
    KernelCost {
        flops32: 2.0 * nnz,
        flops64: 0.0,
        // CSR streams rowptr/colidx/vals once; x is gathered with poor
        // locality (partial L2 hits), y written once.
        dram_bytes: 4.0 * (n + 1.0) + 4.0 * nnz + 4.0 * nnz + 4.0 * nnz * 0.5 + 4.0 * n,
        l2_bytes: 4.0 * nnz * 2.0,
        instructions: nnz * 8.0 + n * 4.0,
        min_time: 2e-6,
        inefficiency: 0.0,
    }
}

/// `sum_reduce(x, out, n)`: `out[0] ← Σ x` (normalization denominator).
pub static SUM_REDUCE: KernelDef = KernelDef {
    name: "sum_reduce",
    nidl: "const pointer float, pointer float, sint32",
    func: sum_func,
    cost: sum_cost,
    writes: &[false, true],
};

fn sum_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    let acc: f64 = x.iter().take(n).map(|&v| v as f64).sum();
    bufs[1].as_f32_mut()[0] = acc as f32;
}

fn sum_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    reduction_f32(bufs[0].len() as f64, 1.0)
}

/// `divide(x, denom, out, n)`: `out[i] ← x[i] / denom[0]` — normalizes the
/// hub/authority scores each iteration.
pub static DIVIDE: KernelDef = KernelDef {
    name: "divide",
    nidl: "const pointer float, const pointer float, pointer float, sint32",
    func: divide_func,
    cost: divide_cost,
    writes: &[false, false, true],
};

fn divide_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    let d = bufs[1].as_f32()[0].max(1e-12);
    let mut out = bufs[2].as_f32_mut();
    for (out, x) in out.iter_mut().zip(x.iter()).take(n) {
        *out = x / d;
    }
}

fn divide_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    let mut c = streaming_f32(n, n, 1.0);
    c.min_time = REDUCTION_LEVEL_LATENCY;
    c
}

/// Build a deterministic pseudo-random CSR adjacency matrix with `n`
/// rows and roughly `deg` out-edges per row (uniform weights), plus its
/// transpose — the two operands of one HITS iteration.
pub fn random_graph_csr(n: usize, deg: usize, seed: u64) -> (Csr, Csr) {
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * deg);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for r in 0..n {
        for _ in 0..deg {
            let c = (next() as usize) % n;
            edges.push((r, c));
        }
    }
    (
        Csr::from_edges(n, &edges),
        Csr::from_edges(n, &transpose(&edges)),
    )
}

fn transpose(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    edges.iter().map(|&(r, c)| (c, r)).collect()
}

/// A CSR matrix in the three-array layout LightSpMV consumes.
#[derive(Debug, Clone)]
pub struct Csr {
    /// `n + 1` row offsets.
    pub rowptr: Vec<i32>,
    /// Column index per non-zero.
    pub colidx: Vec<i32>,
    /// Value per non-zero (all 1.0 for adjacency matrices).
    pub vals: Vec<f32>,
}

impl Csr {
    /// Build CSR from an edge list (duplicates kept, as HITS tolerates
    /// multi-edges).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut counts = vec![0i32; n + 1];
        for &(r, _) in edges {
            counts[r + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let rowptr = counts.clone();
        let mut cursor = rowptr.clone();
        let mut colidx = vec![0i32; edges.len()];
        for &(r, c) in edges {
            colidx[cursor[r] as usize] = c as i32;
            cursor[r] += 1;
        }
        Csr {
            rowptr,
            colidx,
            vals: vec![1.0; edges.len()],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rowptr.len() - 1
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TypedData;

    fn b_f32(v: Vec<f32>) -> DataBuffer {
        DataBuffer::new(TypedData::F32(v))
    }
    fn b_i32(v: Vec<i32>) -> DataBuffer {
        DataBuffer::new(TypedData::I32(v))
    }

    #[test]
    fn csr_from_edges_roundtrips() {
        // 0→1, 0→2, 2→0
        let m = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 0)]);
        assert_eq!(m.rowptr, vec![0, 2, 2, 3]);
        assert_eq!(m.colidx, vec![1, 2, 0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn spmv_matches_dense_multiply() {
        // A = [[0,1,1],[0,0,0],[1,0,0]], x = [1,2,3] → Ax = [5,0,1]
        let m = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 0)]);
        let y = DataBuffer::f32_zeros(3);
        spmv_func(
            &[
                b_i32(m.rowptr),
                b_i32(m.colidx),
                b_f32(m.vals),
                b_f32(vec![1.0, 2.0, 3.0]),
                y.clone(),
            ],
            &[3.0],
        );
        assert_eq!(*y.as_f32(), vec![5.0, 0.0, 1.0]);
    }

    #[test]
    fn sum_and_divide_normalize() {
        let x = b_f32(vec![1.0, 3.0]);
        let d = DataBuffer::f32_zeros(1);
        sum_func(&[x.clone(), d.clone()], &[2.0]);
        assert_eq!(d.as_f32()[0], 4.0);
        let out = DataBuffer::f32_zeros(2);
        divide_func(&[x, d, out.clone()], &[2.0]);
        assert_eq!(*out.as_f32(), vec![0.25, 0.75]);
    }

    #[test]
    fn hits_iteration_converges_on_a_star_graph() {
        // Star: hub 0 points at 1..=4. Node 0 must end with all the hub
        // score, nodes 1..=4 share the authority score.
        let n = 5;
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        let a_mat = Csr::from_edges(n, &edges);
        let at_mat = Csr::from_edges(n, &edges.iter().map(|&(r, c)| (c, r)).collect::<Vec<_>>());
        let mut h = vec![1.0f32; n];
        let mut a = vec![1.0f32; n];
        for _ in 0..10 {
            // a = Aᵀ h; normalize
            let ab = DataBuffer::f32_zeros(n);
            spmv_func(
                &[
                    b_i32(at_mat.rowptr.clone()),
                    b_i32(at_mat.colidx.clone()),
                    b_f32(at_mat.vals.clone()),
                    b_f32(h.clone()),
                    ab.clone(),
                ],
                &[n as f64],
            );
            let sum = DataBuffer::f32_zeros(1);
            sum_func(&[ab.clone(), sum.clone()], &[n as f64]);
            let an = DataBuffer::f32_zeros(n);
            divide_func(&[ab, sum, an.clone()], &[n as f64]);
            a = an.as_f32().clone();
            // h = A a; normalize
            let hb = DataBuffer::f32_zeros(n);
            spmv_func(
                &[
                    b_i32(a_mat.rowptr.clone()),
                    b_i32(a_mat.colidx.clone()),
                    b_f32(a_mat.vals.clone()),
                    b_f32(a.clone()),
                    hb.clone(),
                ],
                &[n as f64],
            );
            let sum = DataBuffer::f32_zeros(1);
            sum_func(&[hb.clone(), sum.clone()], &[n as f64]);
            let hn = DataBuffer::f32_zeros(n);
            divide_func(&[hb, sum, hn.clone()], &[n as f64]);
            h = hn.as_f32().clone();
        }
        assert!((h[0] - 1.0).abs() < 1e-5, "hub score concentrates: {h:?}");
        for i in 1..n {
            assert!(
                (a[i] - 0.25).abs() < 1e-5,
                "authority spreads evenly: {a:?}"
            );
        }
        assert!(a[0] < 1e-6);
    }

    #[test]
    fn random_graph_has_matching_transpose() {
        let (a, at) = random_graph_csr(100, 8, 42);
        assert_eq!(a.nnz(), at.nnz());
        assert_eq!(a.rows(), at.rows());
        assert_eq!(a.nnz(), 800);
    }

    #[test]
    fn spmv_cost_scales_with_nnz() {
        let (a, _) = random_graph_csr(1000, 4, 1);
        let (b, _) = random_graph_csr(1000, 16, 1);
        let ca = spmv_cost(
            &[
                b_i32(a.rowptr.clone()),
                b_i32(a.colidx.clone()),
                b_f32(a.vals.clone()),
                b_f32(vec![0.0; 1000]),
                DataBuffer::f32_zeros(1000),
            ],
            &[1000.0],
        );
        let cb = spmv_cost(
            &[
                b_i32(b.rowptr.clone()),
                b_i32(b.colidx.clone()),
                b_f32(b.vals.clone()),
                b_f32(vec![0.0; 1000]),
                DataBuffer::f32_zeros(1000),
            ],
            &[1000.0],
        );
        assert!(cb.flops32 / ca.flops32 > 3.9);
    }
}
