//! Graph ranking — the paper's HITS benchmark on a small web-graph,
//! showing cross-stream synchronization over multiple iterations.
//!
//! The authority chain (`Aᵀh → sum → divide`) and the hub chain
//! (`Aa → sum → divide`) run on two streams; each normalization writes a
//! vector the *other* chain reads next round, so every iteration needs
//! two cross-stream events. The host loop is ordinary Rust — the
//! scheduler discovers the pattern from the argument lists alone.
//!
//! Run: `cargo run --release --example graph_ranking`

use gpu_sim::{DeviceProfile, Grid};
use grcuda::{Arg, DeviceArray, GrCuda, Options};
use kernels::hits::{Csr, DIVIDE, SPMV, SUM_REDUCE};

fn main() {
    // A tiny two-hub web graph: pages 0 and 1 are directories linking
    // everywhere; pages 2..10 link back to page 0.
    let n = 10usize;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for t in 2..n {
        edges.push((0, t));
        if t % 2 == 0 {
            edges.push((1, t));
        }
        edges.push((t, 0));
    }
    let a_mat = Csr::from_edges(n, &edges);
    let t_edges: Vec<(usize, usize)> = edges.iter().map(|&(r, c)| (c, r)).collect();
    let at_mat = Csr::from_edges(n, &t_edges);

    let g = GrCuda::new(DeviceProfile::gtx1660_super(), Options::parallel());
    let grid = Grid::d1(64, 256);
    let nf = n as f64;

    let upload_csr = |m: &Csr| -> (DeviceArray, DeviceArray, DeviceArray) {
        let rp = g.array_i32(m.rowptr.len());
        rp.copy_from_i32(&m.rowptr);
        let ci = g.array_i32(m.colidx.len().max(1));
        ci.copy_from_i32(&m.colidx);
        let va = g.array_f32(m.vals.len().max(1));
        va.copy_from_f32(&m.vals);
        (rp, ci, va)
    };
    let (a_rp, a_ci, a_va) = upload_csr(&a_mat);
    let (t_rp, t_ci, t_va) = upload_csr(&at_mat);

    let h = g.array_f32(n);
    let a = g.array_f32(n);
    h.fill_f32(1.0 / n as f32);
    a.fill_f32(1.0 / n as f32);
    let tmp_a = g.array_f32(n);
    let tmp_h = g.array_f32(n);
    let sum_a = g.array_f32(1);
    let sum_h = g.array_f32(1);

    let spmv = g.build_kernel(&SPMV).unwrap();
    let sum = g.build_kernel(&SUM_REDUCE).unwrap();
    let div = g.build_kernel(&DIVIDE).unwrap();

    for _round in 0..8 {
        // Authority chain: a' = normalize(Aᵀ h)
        spmv.launch(
            grid,
            &[
                Arg::array(&t_rp),
                Arg::array(&t_ci),
                Arg::array(&t_va),
                Arg::array(&h),
                Arg::array(&tmp_a),
                Arg::scalar(nf),
            ],
        )
        .unwrap();
        sum.launch(
            grid,
            &[Arg::array(&tmp_a), Arg::array(&sum_a), Arg::scalar(nf)],
        )
        .unwrap();
        // Hub chain: h' = normalize(A a) — reads the OLD a concurrently.
        spmv.launch(
            grid,
            &[
                Arg::array(&a_rp),
                Arg::array(&a_ci),
                Arg::array(&a_va),
                Arg::array(&a),
                Arg::array(&tmp_h),
                Arg::scalar(nf),
            ],
        )
        .unwrap();
        sum.launch(
            grid,
            &[Arg::array(&tmp_h), Arg::array(&sum_h), Arg::scalar(nf)],
        )
        .unwrap();
        // The divides write a/h, which the *other* chain read above:
        // write-after-read edges across streams, inferred automatically.
        div.launch(
            grid,
            &[
                Arg::array(&tmp_a),
                Arg::array(&sum_a),
                Arg::array(&a),
                Arg::scalar(nf),
            ],
        )
        .unwrap();
        div.launch(
            grid,
            &[
                Arg::array(&tmp_h),
                Arg::array(&sum_h),
                Arg::array(&h),
                Arg::scalar(nf),
            ],
        )
        .unwrap();
    }

    let hubs = h.to_vec_f32();
    let auths = a.to_vec_f32();
    g.sync();
    assert!(
        g.races().is_empty(),
        "cross-stream WAR edges must be synchronized"
    );

    let top = |v: &[f32]| -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap()
    };
    println!("hub scores:       {hubs:.2?}");
    println!("authority scores: {auths:.2?}");
    println!(
        "top hub = page {}   top authority = page {}",
        top(&hubs),
        top(&auths)
    );
    assert_eq!(top(&hubs), 0, "the directory page must be the top hub");
    // Authorities are the pages the strong hubs point at: the even
    // pages are linked by BOTH directories, so one of them must win.
    let ta = top(&auths);
    assert!(
        ta >= 2 && ta % 2 == 0,
        "top authority must be a doubly-linked page, got {ta}"
    );
    println!(
        "\nDAG after 8 iterations: {} computational elements, {} streams, 0 races",
        g.snapshot().lifetime_vertices,
        g.timeline().streams_used()
    );
}
