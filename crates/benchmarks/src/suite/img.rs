//! IMG — image processing pipeline (paper Fig. 6, 4 streams).
//!
//! "Combines a sharpened picture with copies blurred at low and medium
//! frequencies, to sharpen the edges, soften everything else, and
//! enhance the subject. The benchmark has complex dependencies on 4
//! streams."
//!
//! ```text
//! s0: blur3(img)→blur_small ── sobel ──────────────┐
//! s1: blur5(img)→blur_large ── sobel ── extend ────┤
//! s3:                            └─ max ─┐         │
//! s0:                            └─ min ─┴→(extend)│
//! s2: blur3(img)→blur_unsharpen ── unsharpen ──────┤
//! s0:                       combine ── combine → result
//! ```

use gpu_sim::{Grid, TypedData};
use kernels::image::{
    gaussian_kernel, COMBINE, EXTEND, GAUSSIAN_BLUR, MAXIMUM, MINIMUM, SOBEL, UNSHARPEN,
};

use crate::spec::{ArraySpec, BenchSpec, DataGen, PlanArg, PlanOp};

/// 2-D block edge (paper: "we keep 2D blocks with size 8x8").
const BLOCK_EDGE: u32 = 8;

/// Build IMG at `scale` = image side in pixels (the paper's x-axis is
/// pixels per side).
pub(crate) fn build(scale: usize) -> BenchSpec {
    let side = scale;
    let n = side * side;
    let nf = n as f64;
    let sf = side as f64;
    let mut gen = DataGen::new(77);
    // Grid-stride 2-D launch with a bounded block count: a single
    // stencil kernel deliberately leaves SMs free ("kernels that leave a
    // large amount of shared memory unused if executed serially explains
    // the speedup in IMG", §V-F).
    let blocks = ((side as u32).div_ceil(BLOCK_EDGE)).clamp(1, 12);
    let grid2 = Grid::d2(blocks, blocks, BLOCK_EDGE, BLOCK_EDGE);
    let grid1 = Grid::d1(64, 256);

    let arrays = vec![
        /* 0 */
        // The input image is loaded once; iterations re-run the kernels
        // on resident data (the paper's IMG is not a streaming benchmark
        // — its speedup comes from kernel-kernel overlap, Fig. 11).
        ArraySpec {
            name: "img",
            init: TypedData::F32(gen.f32_vec(n, 0.0, 1.0)),
            refresh_each_iter: false,
        },
        /* 1 */
        ArraySpec {
            name: "kern3",
            init: TypedData::F32(gaussian_kernel(3, 1.0)),
            refresh_each_iter: false,
        },
        /* 2 */
        ArraySpec {
            name: "kern5",
            init: TypedData::F32(gaussian_kernel(5, 2.0)),
            refresh_each_iter: false,
        },
        /* 3 */
        ArraySpec {
            name: "kern3u",
            init: TypedData::F32(gaussian_kernel(3, 0.8)),
            refresh_each_iter: false,
        },
        /* 4 */
        ArraySpec {
            name: "blur_small",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 5 */
        ArraySpec {
            name: "blur_large",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 6 */
        ArraySpec {
            name: "blur_unsharpen",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 7 */
        ArraySpec {
            name: "sobel_small",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 8 */
        ArraySpec {
            name: "sobel_large",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 9 */
        ArraySpec {
            name: "minv",
            init: TypedData::F32(vec![0.0]),
            refresh_each_iter: false,
        },
        /* 10 */
        ArraySpec {
            name: "maxv",
            init: TypedData::F32(vec![0.0]),
            refresh_each_iter: false,
        },
        /* 11 */
        ArraySpec {
            name: "unsharp",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 12 */
        ArraySpec {
            name: "combine1",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
        /* 13 */
        ArraySpec {
            name: "result",
            init: TypedData::F32(vec![0.0; n]),
            refresh_each_iter: false,
        },
    ];

    let blur =
        |src: usize, dst: usize, kern: usize, d: f64, stream: usize, deps: Vec<usize>| PlanOp {
            def: &GAUSSIAN_BLUR,
            grid: grid2,
            args: vec![
                PlanArg::Arr(src),
                PlanArg::Arr(dst),
                PlanArg::Scalar(sf),
                PlanArg::Scalar(sf),
                PlanArg::Arr(kern),
                PlanArg::Scalar(d),
            ],
            stream,
            deps,
        };

    let ops = vec![
        /* 0 */ blur(0, 4, 1, 3.0, 0, vec![]),
        /* 1 */ blur(0, 5, 2, 5.0, 1, vec![]),
        /* 2 */ blur(0, 6, 3, 3.0, 2, vec![]),
        /* 3 */
        PlanOp {
            def: &SOBEL,
            grid: grid2,
            args: vec![
                PlanArg::Arr(4),
                PlanArg::Arr(7),
                PlanArg::Scalar(sf),
                PlanArg::Scalar(sf),
            ],
            stream: 0,
            deps: vec![0],
        },
        /* 4 */
        PlanOp {
            def: &SOBEL,
            grid: grid2,
            args: vec![
                PlanArg::Arr(5),
                PlanArg::Arr(8),
                PlanArg::Scalar(sf),
                PlanArg::Scalar(sf),
            ],
            stream: 1,
            deps: vec![1],
        },
        /* 5 */
        PlanOp {
            def: &MAXIMUM,
            grid: grid1,
            args: vec![PlanArg::Arr(8), PlanArg::Arr(10), PlanArg::Scalar(nf)],
            stream: 3,
            deps: vec![4],
        },
        /* 6 */
        PlanOp {
            def: &MINIMUM,
            grid: grid1,
            args: vec![PlanArg::Arr(8), PlanArg::Arr(9), PlanArg::Scalar(nf)],
            stream: 0,
            deps: vec![4],
        },
        /* 7 — extend writes sobel_large in place: WAR on both reducers */
        PlanOp {
            def: &EXTEND,
            grid: grid1,
            args: vec![
                PlanArg::Arr(8),
                PlanArg::Arr(9),
                PlanArg::Arr(10),
                PlanArg::Scalar(nf),
            ],
            stream: 1,
            deps: vec![5, 6],
        },
        /* 8 */
        PlanOp {
            def: &UNSHARPEN,
            grid: grid1,
            args: vec![
                PlanArg::Arr(0),
                PlanArg::Arr(6),
                PlanArg::Arr(11),
                PlanArg::Scalar(0.5),
                PlanArg::Scalar(nf),
            ],
            stream: 2,
            deps: vec![2],
        },
        /* 9 — combine(unsharp, blur_small, mask = sobel_small) */
        PlanOp {
            def: &COMBINE,
            grid: grid1,
            args: vec![
                PlanArg::Arr(11),
                PlanArg::Arr(4),
                PlanArg::Arr(7),
                PlanArg::Arr(12),
                PlanArg::Scalar(nf),
            ],
            stream: 0,
            deps: vec![8, 3],
        },
        /* 10 — result = combine(combine1, blur_large, mask = extended sobel_large) */
        PlanOp {
            def: &COMBINE,
            grid: grid1,
            args: vec![
                PlanArg::Arr(12),
                PlanArg::Arr(5),
                PlanArg::Arr(8),
                PlanArg::Arr(13),
                PlanArg::Scalar(nf),
            ],
            stream: 0,
            deps: vec![9, 7],
        },
    ];

    BenchSpec {
        name: "IMG",
        arrays,
        ops,
        outputs: vec![(13, 1)],
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::reference_after_iters;

    #[test]
    fn plan_uses_four_streams_and_eleven_kernels() {
        let s = build(64);
        assert_eq!(s.ops.len(), 11);
        assert_eq!(s.planned_streams(), 4);
        s.check_well_formed().unwrap();
    }

    #[test]
    fn result_pixels_are_valid_intensities() {
        let s = build(32);
        let fin = reference_after_iters(&s, 1);
        match &fin[13] {
            TypedData::F32(r) => {
                assert!(r.iter().all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
                assert!(r.iter().any(|&v| v > 0.0), "result must not be all-black");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn extend_normalizes_the_mask_range() {
        let s = build(32);
        let fin = reference_after_iters(&s, 1);
        match &fin[8] {
            TypedData::F32(m) => {
                let max = m.iter().copied().fold(f32::MIN, f32::max);
                let min = m.iter().copied().fold(f32::MAX, f32::min);
                assert!((max - 1.0).abs() < 1e-6);
                assert!(min.abs() < 1e-6);
            }
            _ => unreachable!(),
        }
    }
}
