//! ML — ensemble of Ridge Regression and Categorical Naïve Bayes
//! (paper Figs. 2, 6 and 10).
//!
//! ```text
//! s0 (RR): normalize → matmul → add_intercept → softmax ─┐
//! s1 (NB): matmul → row_max → lse → exp ─────────────────┴→ argmax
//! ```
//!
//! Both branches read the input matrix `X` **read-only** — the paper's
//! flagship use of `const` annotations: without them the second branch
//! would serialize behind the first.

use gpu_sim::{Grid, TypedData};
use kernels::ml::{
    ARGMAX_COMBINE, NB_EXP, NB_LSE, NB_MATMUL, NB_ROW_MAX, RR_ADD_INTERCEPT, RR_MATMUL,
    RR_NORMALIZE, SOFTMAX,
};

use crate::spec::{ArraySpec, BenchSpec, DataGen, PlanArg, PlanOp};

/// Feature count (fixed by the paper: "The input matrix has 200
/// features").
const FEATURES: usize = 200;
/// Number of classes.
const CLASSES: usize = 10;
/// Default number of blocks.
const NUM_BLOCKS: u32 = 64;
/// Default threads per block.
const BLOCK_SIZE: u32 = 256;

/// Build ML at `scale` = number of input rows.
pub(crate) fn build(scale: usize) -> BenchSpec {
    let rows = scale;
    let mut gen = DataGen::new(2024);
    let grid = Grid::d1(NUM_BLOCKS, BLOCK_SIZE);
    let rf = rows as f64;
    let ff = FEATURES as f64;
    let cf = CLASSES as f64;

    // Naïve Bayes wants non-negative features (categorical counts); the
    // normalization in the RR branch recenters its own copy.
    let x: Vec<f32> = gen.f32_vec(rows * FEATURES, 0.0, 4.0);
    let w: Vec<f32> = gen.f32_vec(CLASSES * FEATURES, -1.0, 1.0);
    let b: Vec<f32> = gen.f32_vec(CLASSES, -0.5, 0.5);
    // Log-probabilities: negative values.
    let logp: Vec<f32> = gen.f32_vec(CLASSES * FEATURES, -3.0, -0.01);

    let arrays = vec![
        /* 0 */
        ArraySpec {
            name: "X",
            init: TypedData::F32(x),
            refresh_each_iter: true,
        },
        /* 1 */
        ArraySpec {
            name: "Z",
            init: TypedData::F32(vec![0.0; rows * FEATURES]),
            refresh_each_iter: false,
        },
        /* 2 */
        ArraySpec {
            name: "W",
            init: TypedData::F32(w),
            refresh_each_iter: false,
        },
        /* 3 */
        ArraySpec {
            name: "B",
            init: TypedData::F32(b),
            refresh_each_iter: false,
        },
        /* 4 */
        ArraySpec {
            name: "R2",
            init: TypedData::F32(vec![0.0; rows * CLASSES]),
            refresh_each_iter: false,
        },
        /* 5 */
        ArraySpec {
            name: "LOGP",
            init: TypedData::F32(logp),
            refresh_each_iter: false,
        },
        /* 6 */
        ArraySpec {
            name: "R1",
            init: TypedData::F32(vec![0.0; rows * CLASSES]),
            refresh_each_iter: false,
        },
        /* 7 */
        ArraySpec {
            name: "AMAX",
            init: TypedData::F32(vec![0.0; rows]),
            refresh_each_iter: false,
        },
        /* 8 */
        ArraySpec {
            name: "LSE",
            init: TypedData::F32(vec![0.0; rows]),
            refresh_each_iter: false,
        },
        /* 9 */
        ArraySpec {
            name: "OUT",
            init: TypedData::I32(vec![0; rows]),
            refresh_each_iter: false,
        },
    ];

    let ops = vec![
        /* 0: NORM */
        PlanOp {
            def: &RR_NORMALIZE,
            grid,
            args: vec![
                PlanArg::Arr(0),
                PlanArg::Arr(1),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(ff),
            ],
            stream: 0,
            deps: vec![],
        },
        /* 1: NB MMUL */
        PlanOp {
            def: &NB_MATMUL,
            grid,
            args: vec![
                PlanArg::Arr(0),
                PlanArg::Arr(5),
                PlanArg::Arr(6),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(ff),
                PlanArg::Scalar(cf),
            ],
            stream: 1,
            deps: vec![],
        },
        /* 2: RR MMUL */
        PlanOp {
            def: &RR_MATMUL,
            grid,
            args: vec![
                PlanArg::Arr(1),
                PlanArg::Arr(2),
                PlanArg::Arr(4),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(ff),
                PlanArg::Scalar(cf),
            ],
            stream: 0,
            deps: vec![0],
        },
        /* 3: MAX */
        PlanOp {
            def: &NB_ROW_MAX,
            grid,
            args: vec![
                PlanArg::Arr(6),
                PlanArg::Arr(7),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(cf),
            ],
            stream: 1,
            deps: vec![1],
        },
        /* 4: ADDV */
        PlanOp {
            def: &RR_ADD_INTERCEPT,
            grid,
            args: vec![
                PlanArg::Arr(4),
                PlanArg::Arr(3),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(cf),
            ],
            stream: 0,
            deps: vec![2],
        },
        /* 5: LSE */
        PlanOp {
            def: &NB_LSE,
            grid,
            args: vec![
                PlanArg::Arr(6),
                PlanArg::Arr(7),
                PlanArg::Arr(8),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(cf),
            ],
            stream: 1,
            deps: vec![3],
        },
        /* 6: SOFTMAX (RR) */
        PlanOp {
            def: &SOFTMAX,
            grid,
            args: vec![PlanArg::Arr(4), PlanArg::Scalar(rf), PlanArg::Scalar(cf)],
            stream: 0,
            deps: vec![4],
        },
        /* 7: EXP (NB posterior) */
        PlanOp {
            def: &NB_EXP,
            grid,
            args: vec![
                PlanArg::Arr(6),
                PlanArg::Arr(7),
                PlanArg::Arr(8),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(cf),
            ],
            stream: 1,
            deps: vec![5],
        },
        /* 8: ARGMAX ensemble */
        PlanOp {
            def: &ARGMAX_COMBINE,
            grid,
            args: vec![
                PlanArg::Arr(6),
                PlanArg::Arr(4),
                PlanArg::Arr(9),
                PlanArg::Scalar(rf),
                PlanArg::Scalar(cf),
            ],
            stream: 0,
            deps: vec![6, 7],
        },
    ];

    BenchSpec {
        name: "ML",
        arrays,
        ops,
        outputs: vec![(9, 4.min(rows))],
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::reference_after_iters;

    #[test]
    fn two_branches_on_two_streams() {
        let s = build(128);
        assert_eq!(s.ops.len(), 9);
        assert_eq!(s.planned_streams(), 2);
        s.check_well_formed().unwrap();
        // The two matmuls are independent roots.
        assert!(s.ops[0].deps.is_empty() && s.ops[1].deps.is_empty());
    }

    #[test]
    fn predictions_are_valid_class_indices() {
        let s = build(64);
        let fin = reference_after_iters(&s, 1);
        match &fin[9] {
            TypedData::I32(out) => {
                assert!(out.iter().all(|&c| (0..CLASSES as i32).contains(&c)));
                // Multiple classes should actually appear.
                let mut seen = out.to_vec();
                seen.sort_unstable();
                seen.dedup();
                assert!(seen.len() > 1, "degenerate classifier output");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn both_classifier_outputs_are_probability_rows() {
        let s = build(32);
        let fin = reference_after_iters(&s, 1);
        for idx in [4usize, 6] {
            match &fin[idx] {
                TypedData::F32(m) => {
                    for i in 0..32 {
                        let sum: f32 = m[i * CLASSES..(i + 1) * CLASSES].iter().sum();
                        assert!((sum - 1.0).abs() < 1e-4, "array {idx} row {i} sums {sum}");
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}
