//! B&S — Black & Scholes option pricing on 10 independent stocks
//! (paper Fig. 6: ten parallel streams, no dependencies at all).
//!
//! Heavy double-precision streaming work: on the fp64-starved consumer
//! GPUs the computation dominates and overlaps poorly with its own
//! transfers, while on the P100 the transfers dominate and overlap well
//! — the crossover the paper discusses in §V-F.

use gpu_sim::{Grid, TypedData};
use kernels::black_scholes::BLACK_SCHOLES;

use crate::spec::{ArraySpec, BenchSpec, DataGen, PlanArg, PlanOp};

/// Number of independent stocks (fixed by the paper).
const STOCKS: usize = 10;
/// Default number of blocks.
const NUM_BLOCKS: u32 = 64;
/// Default threads per block.
const BLOCK_SIZE: u32 = 256;

/// Build B&S at `scale` = prices per stock.
pub(crate) fn build(scale: usize) -> BenchSpec {
    let mut gen = DataGen::new(1234);
    let grid = Grid::d1(NUM_BLOCKS, BLOCK_SIZE);
    let mut arrays = Vec::with_capacity(2 * STOCKS);
    let mut ops = Vec::with_capacity(STOCKS);
    let mut outputs = Vec::with_capacity(STOCKS);
    for name in STOCK_NAMES {
        arrays.push(ArraySpec {
            name,
            init: TypedData::F64(gen.f64_vec(scale, 50.0, 150.0)),
            refresh_each_iter: true,
        });
    }
    for (s, name) in RESULT_NAMES.into_iter().enumerate() {
        arrays.push(ArraySpec {
            name,
            init: TypedData::F64(vec![0.0; scale]),
            refresh_each_iter: false,
        });
        ops.push(PlanOp {
            def: &BLACK_SCHOLES,
            grid,
            args: vec![
                PlanArg::Arr(s),
                PlanArg::Arr(STOCKS + s),
                PlanArg::Scalar(scale as f64),
                // strike, rate, vol, expiry — the CUDA sample's values.
                PlanArg::Scalar(100.0),
                PlanArg::Scalar(0.02),
                PlanArg::Scalar(0.30),
                PlanArg::Scalar(1.0),
            ],
            stream: s,
            deps: vec![],
        });
        outputs.push((STOCKS + s, 1));
    }
    BenchSpec {
        name: "B&S",
        arrays,
        ops,
        outputs,
        scale,
    }
}

const STOCK_NAMES: [&str; 10] = ["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9"];
const RESULT_NAMES: [&str; 10] = ["y0", "y1", "y2", "y3", "y4", "y5", "y6", "y7", "y8", "y9"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::reference_after_iters;

    #[test]
    fn ten_fully_independent_kernels() {
        let s = build(512);
        assert_eq!(s.ops.len(), 10);
        assert_eq!(s.planned_streams(), 10);
        assert!(s.ops.iter().all(|o| o.deps.is_empty()));
        s.check_well_formed().unwrap();
    }

    #[test]
    fn reference_prices_are_positive() {
        let s = build(64);
        let final_state = reference_after_iters(&s, 1);
        for k in 0..STOCKS {
            match &final_state[STOCKS + k] {
                TypedData::F64(y) => {
                    assert!(y.iter().all(|&p| p > 0.0 && p < 150.0), "stock {k}");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn footprint_is_double_precision() {
        let s = build(1000);
        assert_eq!(s.footprint_bytes(), 2 * STOCKS * 1000 * 8);
    }
}
