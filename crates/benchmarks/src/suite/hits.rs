//! HITS — hubs & authorities by repeated SpMV (paper Fig. 6).
//!
//! Each of the unrolled iterations runs the authority chain on one
//! stream and the hub chain on another; the normalization `divide`s
//! create write-after-read **cross-stream** dependencies into the
//! *other* chain, which is exactly the "complex cross-synchronizations"
//! the paper highlights.

use gpu_sim::{Grid, TypedData};
use kernels::hits::{random_graph_csr, DIVIDE, SPMV, SUM_REDUCE};

use crate::spec::{ArraySpec, BenchSpec, PlanArg, PlanOp};

/// Average out-degree of the synthetic graph (nnz = `DEGREE * n`).
const DEGREE: usize = 8;
/// HITS iterations unrolled into the plan.
const ITERATIONS: usize = 3;
/// Default number of blocks.
const NUM_BLOCKS: u32 = 64;
/// Default threads per block.
const BLOCK_SIZE: u32 = 256;

/// Build HITS at `scale` = number of graph vertices.
pub(crate) fn build(scale: usize) -> BenchSpec {
    let n = scale.max(2);
    let nf = n as f64;
    let grid = Grid::d1(NUM_BLOCKS, BLOCK_SIZE);
    let (a_mat, at_mat) = random_graph_csr(n, DEGREE, 0xC0FFEE);

    let uniform = vec![1.0f32 / n as f32; n];
    let arrays = vec![
        /* 0 */
        ArraySpec {
            name: "rowptr_a",
            init: TypedData::I32(a_mat.rowptr),
            refresh_each_iter: false,
        },
        /* 1 */
        ArraySpec {
            name: "colidx_a",
            init: TypedData::I32(a_mat.colidx),
            refresh_each_iter: false,
        },
        /* 2 */
        ArraySpec {
            name: "vals_a",
            init: TypedData::F32(a_mat.vals),
            refresh_each_iter: false,
        },
        /* 3 */
        ArraySpec {
            name: "rowptr_t",
            init: TypedData::I32(at_mat.rowptr),
            refresh_each_iter: false,
        },
        /* 4 */
        ArraySpec {
            name: "colidx_t",
            init: TypedData::I32(at_mat.colidx),
            refresh_each_iter: false,
        },
        /* 5 */
        ArraySpec {
            name: "vals_t",
            init: TypedData::F32(at_mat.vals),
            refresh_each_iter: false,
        },
        /* 6 */
        ArraySpec {
            name: "h",
            init: TypedData::F32(uniform.clone()),
            refresh_each_iter: false,
        },
        /* 7 */
        ArraySpec {
            name: "a",
            init: TypedData::F32(uniform),
            refresh_each_iter: false,
        },
        /* 8 */
        ArraySpec {
            name: "tmp_a",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 9 */
        ArraySpec {
            name: "tmp_h",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 10 */
        ArraySpec {
            name: "sum_a",
            init: TypedData::F32(vec![0.0]),
            refresh_each_iter: false,
        },
        /* 11 */
        ArraySpec {
            name: "sum_h",
            init: TypedData::F32(vec![0.0]),
            refresh_each_iter: false,
        },
    ];

    let mut ops: Vec<PlanOp> = Vec::with_capacity(ITERATIONS * 6);
    for it in 0..ITERATIONS {
        let base = it * 6;
        let prev = |k: usize| base - 6 + k; // op k of the previous iteration
                                            // 0: tmp_a = Aᵀ · h         (authority update, stream 0)
        ops.push(PlanOp {
            def: &SPMV,
            grid,
            args: vec![
                PlanArg::Arr(3),
                PlanArg::Arr(4),
                PlanArg::Arr(5),
                PlanArg::Arr(6),
                PlanArg::Arr(8),
                PlanArg::Scalar(nf),
            ],
            stream: 0,
            // reads h (writer: prev divide_h), rewrites tmp_a (reader:
            // prev divide_a).
            deps: if it == 0 {
                vec![]
            } else {
                vec![prev(5), prev(4)]
            },
        });
        // 1: sum_a = Σ tmp_a
        ops.push(PlanOp {
            def: &SUM_REDUCE,
            grid,
            args: vec![PlanArg::Arr(8), PlanArg::Arr(10), PlanArg::Scalar(nf)],
            stream: 0,
            deps: vec![base],
        });
        // 2: tmp_h = A · a          (hub update, stream 1)
        ops.push(PlanOp {
            def: &SPMV,
            grid,
            args: vec![
                PlanArg::Arr(0),
                PlanArg::Arr(1),
                PlanArg::Arr(2),
                PlanArg::Arr(7),
                PlanArg::Arr(9),
                PlanArg::Scalar(nf),
            ],
            stream: 1,
            deps: if it == 0 {
                vec![]
            } else {
                vec![prev(4), prev(5)]
            },
        });
        // 3: sum_h = Σ tmp_h
        ops.push(PlanOp {
            def: &SUM_REDUCE,
            grid,
            args: vec![PlanArg::Arr(9), PlanArg::Arr(11), PlanArg::Scalar(nf)],
            stream: 1,
            deps: vec![base + 2],
        });
        // 4: a = tmp_a / sum_a — writes `a`, which spmv_h of THIS
        // iteration reads: the cross-stream WAR edge.
        ops.push(PlanOp {
            def: &DIVIDE,
            grid,
            args: vec![
                PlanArg::Arr(8),
                PlanArg::Arr(10),
                PlanArg::Arr(7),
                PlanArg::Scalar(nf),
            ],
            stream: 0,
            deps: vec![base + 1, base + 2],
        });
        // 5: h = tmp_h / sum_h — symmetric cross edge into spmv_a.
        ops.push(PlanOp {
            def: &DIVIDE,
            grid,
            args: vec![
                PlanArg::Arr(9),
                PlanArg::Arr(11),
                PlanArg::Arr(6),
                PlanArg::Scalar(nf),
            ],
            stream: 1,
            deps: vec![base + 3, base],
        });
    }

    BenchSpec {
        name: "HITS",
        arrays,
        ops,
        outputs: vec![(7, 1), (6, 1)],
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::reference_after_iters;

    #[test]
    fn plan_unrolls_three_iterations_on_two_streams() {
        let s = build(128);
        assert_eq!(s.ops.len(), 18);
        assert_eq!(s.planned_streams(), 2);
        s.check_well_formed().unwrap();
    }

    #[test]
    fn cross_stream_war_edges_exist() {
        let s = build(128);
        // divide_a (op 4) on stream 0 depends on spmv_h (op 2) on stream 1.
        assert!(s.ops[4].deps.contains(&2));
        assert_ne!(s.ops[4].stream, s.ops[2].stream);
        // and symmetric.
        assert!(s.ops[5].deps.contains(&0));
    }

    #[test]
    fn scores_stay_normalized() {
        let s = build(64);
        let fin = reference_after_iters(&s, 1);
        for idx in [6usize, 7] {
            match &fin[idx] {
                TypedData::F32(v) => {
                    let sum: f32 = v.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-3, "array {idx} sums to {sum}");
                    assert!(v.iter().all(|&x| x >= 0.0));
                }
                _ => unreachable!(),
            }
        }
    }
}
