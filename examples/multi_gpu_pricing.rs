//! Multi-GPU option pricing — the paper's §VI future work in action.
//!
//! Prices independent option books across 1, 2 and 4 simulated Tesla
//! P100s with run-time data-location tracking. Independent books scale
//! nearly linearly; a dependent post-processing chain shows why placement
//! must be locality-aware ("it requires to compute data location and
//! migration costs at run time", §VI).
//!
//! Run: `cargo run --release --example multi_gpu_pricing`

use gpu_sim::{DeviceProfile, Grid, Topology};
use grcuda::{Arg, GrCuda, Options, PlacementPolicy};
use kernels::black_scholes::BLACK_SCHOLES;
use kernels::util::AXPY;

const BOOKS: usize = 8;
const OPTIONS_PER_BOOK: usize = 1 << 20;
const G: Grid = Grid {
    blocks: (64, 1, 1),
    threads: (256, 1, 1),
};

/// The same runtime on a bigger machine: `gpus` Tesla P100s over PCIe.
fn machine(gpus: usize, policy: PlacementPolicy) -> GrCuda {
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(gpus, &dev);
    GrCuda::with_topology(dev, topo, Options::parallel(), policy)
}

/// Makespan, migrations and every book's prices as bit patterns.
fn price_books(gpus: usize, policy: PlacementPolicy) -> (f64, usize, Vec<Vec<u64>>) {
    let g = machine(gpus, policy);
    let price = g.build_kernel(&BLACK_SCHOLES).unwrap();
    let n = OPTIONS_PER_BOOK;

    // Independent books: one pricing kernel each.
    let books: Vec<_> = (0..BOOKS)
        .map(|b| {
            let spots = g.array_f64(n);
            let prices = g.array_f64(n);
            let data: Vec<f64> = (0..n)
                .map(|i| 80.0 + (b * 5) as f64 + (i % 50) as f64)
                .collect();
            spots.copy_from_f64(&data);
            (spots, prices)
        })
        .collect();
    for (spots, prices) in &books {
        price
            .launch(
                G,
                &[
                    Arg::array(spots),
                    Arg::array(prices),
                    Arg::scalar(n as f64),
                    Arg::scalar(100.0),
                    Arg::scalar(0.02),
                    Arg::scalar(0.30),
                    Arg::scalar(1.0),
                ],
            )
            .unwrap();
    }
    g.sync();
    assert!(g.races().is_empty());
    let bits = |p: &grcuda::DeviceArray| p.to_vec_f64().iter().map(|x| x.to_bits()).collect();
    let prices = books.iter().map(|(_, p)| bits(p)).collect();
    (g.now(), g.snapshot().migrations.all.count, prices)
}

fn dependent_chain(gpus: usize, policy: PlacementPolicy) -> (f64, usize) {
    let g = machine(gpus, policy);
    let axpy = g.build_kernel(&AXPY).unwrap();
    let n = 1 << 21;
    let acc = g.array_f32(n);
    let delta = g.array_f32(n);
    acc.copy_from_f32(&vec![0.0; n]);
    delta.copy_from_f32(&vec![0.01; n]);
    // A strictly serial accumulation: each step reads delta and updates
    // acc — no parallelism to extract, only migrations to avoid.
    for _ in 0..10 {
        axpy.launch(
            G,
            &[
                Arg::array(&delta),
                Arg::array(&acc),
                Arg::scalar(1.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
    }
    g.sync();
    (g.now(), g.snapshot().migrations.all.count)
}

fn main() {
    println!("Independent books ({BOOKS} x {OPTIONS_PER_BOOK} options, f64):");
    let (base, _, prices1) = price_books(1, PlacementPolicy::SingleGpu);
    println!("  1 GPU : {:7.2} ms (1.00x)", base * 1e3);
    for gpus in [2usize, 4] {
        let (t, migs, prices) = price_books(gpus, PlacementPolicy::LocalityAware);
        assert!(
            prices == prices1,
            "results must not depend on the device count"
        );
        println!(
            "  {gpus} GPUs: {:7.2} ms ({:.2}x), {migs} migrations",
            t * 1e3,
            base / t
        );
    }

    println!("\nDependent accumulation chain (10 steps):");
    let (t1, _) = dependent_chain(1, PlacementPolicy::SingleGpu);
    let (t_loc, m_loc) = dependent_chain(4, PlacementPolicy::LocalityAware);
    let (t_rr, m_rr) = dependent_chain(4, PlacementPolicy::RoundRobin);
    println!("  1 GPU               : {:7.2} ms", t1 * 1e3);
    println!(
        "  4 GPUs, locality    : {:7.2} ms, {m_loc} migrations",
        t_loc * 1e3
    );
    println!(
        "  4 GPUs, round-robin : {:7.2} ms, {m_rr} migrations  <- data ping-pong!",
        t_rr * 1e3
    );
    assert!(m_loc < m_rr, "locality-aware placement must migrate less");
    println!("\n(the paper's §VI: multi-GPU scheduling 'requires to compute data");
    println!(" location and migration costs at run time' — exactly what this does)");
}
