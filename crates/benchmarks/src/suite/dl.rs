//! DL — two-tower convolutional embedding network (paper Fig. 6).
//!
//! Two input images go through independent CONV→POOL→CONV→POOL→GAP
//! towers (one stream each); the towers share **read-only** convolution
//! weights, their embeddings are concatenated, and a dense layer emits a
//! similarity score.

use gpu_sim::{Grid, TypedData};
use kernels::dl::{conv_out, CONCAT, CONV2D, DENSE, GAP, POOL2D};

use crate::spec::{ArraySpec, BenchSpec, DataGen, PlanArg, PlanOp};

/// Input channels.
const C_IN: usize = 3;
/// Channels after the first convolution.
const C1: usize = 8;
/// Channels after the second convolution (= embedding length).
const C2: usize = 16;
/// Convolution kernel edge.
const K: usize = 3;

/// Round a requested side up so both poolings divide evenly
/// (`side ≡ 2 (mod 4)`).
fn legal_side(side: usize) -> usize {
    let mut s = side.max(10);
    while s % 4 != 2 {
        s += 1;
    }
    s
}

/// Build DL at `scale` = input image side (adjusted by [`legal_side`]).
pub(crate) fn build(scale: usize) -> BenchSpec {
    let side = legal_side(scale);
    let o1 = conv_out(side, K); // after conv1
    let p1 = o1 / 2; // after pool1
    let o2 = conv_out(p1, K); // after conv2
    let p2 = o2 / 2; // after pool2
    assert!(p2 >= 1, "image too small");
    let mut gen = DataGen::new(31337);
    // 3-D blocks of 4×4×4 (paper §V-C); 2-D/3-D grids keep fixed shape.
    let grid3 = Grid::d3((16, 16, 1), (4, 4, 4));
    let grid1 = Grid::d1(64, 256);

    let tower_arrays = |g: &mut DataGen, tag: usize| -> Vec<ArraySpec> {
        vec![
            ArraySpec {
                name: if tag == 0 { "img1" } else { "img2" },
                init: TypedData::F32(g.f32_vec(C_IN * side * side, 0.0, 1.0)),
                refresh_each_iter: true,
            },
            ArraySpec {
                name: if tag == 0 { "t1_conv1" } else { "t2_conv1" },
                init: TypedData::F32(vec![0.0; C1 * o1 * o1]),
                refresh_each_iter: false,
            },
            ArraySpec {
                name: if tag == 0 { "t1_pool1" } else { "t2_pool1" },
                init: TypedData::F32(vec![0.0; C1 * p1 * p1]),
                refresh_each_iter: false,
            },
            ArraySpec {
                name: if tag == 0 { "t1_conv2" } else { "t2_conv2" },
                init: TypedData::F32(vec![0.0; C2 * o2 * o2]),
                refresh_each_iter: false,
            },
            ArraySpec {
                name: if tag == 0 { "t1_pool2" } else { "t2_pool2" },
                init: TypedData::F32(vec![0.0; C2 * p2 * p2]),
                refresh_each_iter: false,
            },
            ArraySpec {
                name: if tag == 0 { "emb1" } else { "emb2" },
                init: TypedData::F32(vec![0.0; C2]),
                refresh_each_iter: false,
            },
        ]
    };

    let mut arrays = Vec::new();
    arrays.extend(tower_arrays(&mut gen, 0)); // 0..6
    arrays.extend(tower_arrays(&mut gen, 1)); // 6..12
    let wc1 = 12;
    let wc2 = 13;
    let cat = 14;
    let wd = 15;
    let out = 16;
    arrays.push(ArraySpec {
        name: "wc1",
        init: TypedData::F32(gen.f32_vec(C1 * C_IN * K * K, -0.3, 0.3)),
        refresh_each_iter: false,
    });
    arrays.push(ArraySpec {
        name: "wc2",
        init: TypedData::F32(gen.f32_vec(C2 * C1 * K * K, -0.2, 0.2)),
        refresh_each_iter: false,
    });
    arrays.push(ArraySpec {
        name: "cat",
        init: TypedData::F32(vec![0.0; 2 * C2]),
        refresh_each_iter: false,
    });
    arrays.push(ArraySpec {
        name: "wd",
        init: TypedData::F32(gen.f32_vec(2 * C2, -0.5, 0.5)),
        refresh_each_iter: false,
    });
    arrays.push(ArraySpec {
        name: "out",
        init: TypedData::F32(vec![0.0]),
        refresh_each_iter: false,
    });

    // Build the two towers: ops 0..5 are tower 1, 5..10 tower 2.
    let mut ops = Vec::new();
    for t in 0..2usize {
        let a0 = t * 6; // base array index of this tower
        let stream = t;
        let base = ops.len();
        let dep = |k: usize| vec![k];
        ops.push(PlanOp {
            def: &CONV2D,
            grid: grid3,
            args: vec![
                PlanArg::Arr(a0),
                PlanArg::Arr(wc1),
                PlanArg::Arr(a0 + 1),
                PlanArg::Scalar(C_IN as f64),
                PlanArg::Scalar(side as f64),
                PlanArg::Scalar(side as f64),
                PlanArg::Scalar(C1 as f64),
                PlanArg::Scalar(K as f64),
            ],
            stream,
            deps: vec![],
        });
        ops.push(PlanOp {
            def: &POOL2D,
            grid: grid3,
            args: vec![
                PlanArg::Arr(a0 + 1),
                PlanArg::Arr(a0 + 2),
                PlanArg::Scalar(C1 as f64),
                PlanArg::Scalar(o1 as f64),
                PlanArg::Scalar(o1 as f64),
            ],
            stream,
            deps: dep(base),
        });
        ops.push(PlanOp {
            def: &CONV2D,
            grid: grid3,
            args: vec![
                PlanArg::Arr(a0 + 2),
                PlanArg::Arr(wc2),
                PlanArg::Arr(a0 + 3),
                PlanArg::Scalar(C1 as f64),
                PlanArg::Scalar(p1 as f64),
                PlanArg::Scalar(p1 as f64),
                PlanArg::Scalar(C2 as f64),
                PlanArg::Scalar(K as f64),
            ],
            stream,
            deps: dep(base + 1),
        });
        ops.push(PlanOp {
            def: &POOL2D,
            grid: grid3,
            args: vec![
                PlanArg::Arr(a0 + 3),
                PlanArg::Arr(a0 + 4),
                PlanArg::Scalar(C2 as f64),
                PlanArg::Scalar(o2 as f64),
                PlanArg::Scalar(o2 as f64),
            ],
            stream,
            deps: dep(base + 2),
        });
        ops.push(PlanOp {
            def: &GAP,
            grid: grid1,
            args: vec![
                PlanArg::Arr(a0 + 4),
                PlanArg::Arr(a0 + 5),
                PlanArg::Scalar(C2 as f64),
                PlanArg::Scalar((p2 * p2) as f64),
            ],
            stream,
            deps: dep(base + 3),
        });
    }
    // Join: concat + dense on stream 0.
    ops.push(PlanOp {
        def: &CONCAT,
        grid: grid1,
        args: vec![
            PlanArg::Arr(5),
            PlanArg::Arr(11),
            PlanArg::Arr(cat),
            PlanArg::Scalar(C2 as f64),
            PlanArg::Scalar(C2 as f64),
        ],
        stream: 0,
        deps: vec![4, 9],
    });
    ops.push(PlanOp {
        def: &DENSE,
        grid: grid1,
        args: vec![
            PlanArg::Arr(cat),
            PlanArg::Arr(wd),
            PlanArg::Arr(out),
            PlanArg::Scalar((2 * C2) as f64),
        ],
        stream: 0,
        deps: vec![10],
    });

    BenchSpec {
        name: "DL",
        arrays,
        ops,
        outputs: vec![(out, 1)],
        scale: side,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::reference_after_iters;

    #[test]
    fn legal_side_rounds_up() {
        assert_eq!(legal_side(30), 30);
        assert_eq!(legal_side(31), 34);
        assert_eq!(legal_side(5), 10);
    }

    #[test]
    fn two_towers_then_join() {
        let s = build(30);
        assert_eq!(s.ops.len(), 12);
        assert_eq!(s.planned_streams(), 2);
        s.check_well_formed().unwrap();
        // The towers are independent roots sharing read-only weights.
        assert!(s.ops[0].deps.is_empty() && s.ops[5].deps.is_empty());
        assert_eq!(s.ops[10].deps, vec![4, 9]);
    }

    #[test]
    fn similarity_score_is_a_probability() {
        let s = build(18);
        let fin = reference_after_iters(&s, 1);
        match &fin[16] {
            TypedData::F32(o) => {
                assert!(o[0] > 0.0 && o[0] < 1.0, "sigmoid output: {}", o[0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn embeddings_are_not_degenerate() {
        let s = build(18);
        let fin = reference_after_iters(&s, 1);
        for idx in [5usize, 11] {
            match &fin[idx] {
                TypedData::F32(e) => {
                    assert!(e.iter().any(|&v| v != 0.0), "embedding {idx} is zero");
                    assert!(e.iter().all(|&v| v.is_finite()));
                }
                _ => unreachable!(),
            }
        }
    }
}
