//! VEC — Vector Squares (paper Fig. 4).
//!
//! ```text
//! stream 1:  [H2D X]  square(X) ─┐
//! stream 2:  [H2D Y]  square(Y) ─┴→ reduce_sum_diff(X, Y, Z);  res = Z[0]
//! ```
//!
//! Inputs are refreshed every iteration: a streaming computation whose
//! speedup comes *entirely* from transfer–computation overlap (the
//! paper's Fig. 11 shows zero CC for VEC).

use gpu_sim::{Grid, TypedData};
use kernels::vec_ops::{REDUCE_SUM_DIFF, SQUARE};

use crate::spec::{ArraySpec, BenchSpec, DataGen, PlanArg, PlanOp};

/// Default number of blocks (the paper tunes block counts for best
/// serial performance; grid-stride kernels keep it fixed).
const NUM_BLOCKS: u32 = 64;
/// Default threads per block.
const BLOCK_SIZE: u32 = 256;

/// Build VEC at `scale` = elements per vector.
pub(crate) fn build(scale: usize) -> BenchSpec {
    let mut gen = DataGen::new(42);
    let grid = Grid::d1(NUM_BLOCKS, BLOCK_SIZE);
    let n = scale as f64;
    BenchSpec {
        name: "VEC",
        arrays: vec![
            ArraySpec {
                name: "X",
                init: TypedData::F32(gen.f32_vec(scale, 0.0, 1.0)),
                refresh_each_iter: true,
            },
            ArraySpec {
                name: "Y",
                init: TypedData::F32(gen.f32_vec(scale, 0.0, 1.0)),
                refresh_each_iter: true,
            },
            ArraySpec {
                name: "Z",
                init: TypedData::F32(vec![0.0]),
                refresh_each_iter: false,
            },
        ],
        ops: vec![
            PlanOp {
                def: &SQUARE,
                grid,
                args: vec![PlanArg::Arr(0), PlanArg::Scalar(n)],
                stream: 0,
                deps: vec![],
            },
            PlanOp {
                def: &SQUARE,
                grid,
                args: vec![PlanArg::Arr(1), PlanArg::Scalar(n)],
                stream: 1,
                deps: vec![],
            },
            PlanOp {
                def: &REDUCE_SUM_DIFF,
                grid,
                args: vec![
                    PlanArg::Arr(0),
                    PlanArg::Arr(1),
                    PlanArg::Arr(2),
                    PlanArg::Scalar(n),
                ],
                stream: 0,
                deps: vec![0, 1],
            },
        ],
        outputs: vec![(2, 1)],
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::reference_after_iters;

    #[test]
    fn plan_shape_matches_fig4() {
        let s = build(1000);
        assert_eq!(s.ops.len(), 3);
        assert_eq!(s.planned_streams(), 2);
        assert_eq!(s.ops[2].deps, vec![0, 1]);
        s.check_well_formed().unwrap();
    }

    #[test]
    fn reference_result_is_sum_of_square_differences() {
        let s = build(256);
        let final_state = reference_after_iters(&s, 1);
        let (x0, y0) = match (&s.arrays[0].init, &s.arrays[1].init) {
            (TypedData::F32(x), TypedData::F32(y)) => (x.clone(), y.clone()),
            _ => unreachable!(),
        };
        let expect: f64 = x0
            .iter()
            .zip(&y0)
            .map(|(&a, &b)| (a * a - b * b) as f64)
            .sum();
        match &final_state[2] {
            TypedData::F32(z) => assert!((z[0] as f64 - expect).abs() < 1e-2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn inputs_are_streaming() {
        let s = build(64);
        assert!(s.arrays[0].refresh_each_iter && s.arrays[1].refresh_each_iter);
        assert!(!s.arrays[2].refresh_each_iter);
    }
}
