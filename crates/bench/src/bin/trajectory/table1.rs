//! Table I — unified-memory footprint of each benchmark at the smallest
//! and largest swept input size, per device.
//!
//! The paper sizes inputs to cover <10%..~90% of each GPU's memory (each
//! benchmark swept up to the largest size that fits).
//! Functional execution on the host forces our absolute sizes down by a
//! constant factor per benchmark (`docs/FIDELITY.md`, "Scale factors"),
//! so this table reports both the raw footprints and the device-memory
//! fraction they would occupy after rescaling by that factor. It
//! declares no metric: every cell is a constant of the plan builders.

use bench::render_table;
use benchmarks::Bench;

use gpu_sim::DeviceProfile;

use crate::metric::Metrics;

/// Per-benchmark factor between the paper's top scale and ours (see
/// `top` in `crates/benchmarks/src/scales.rs`).
fn paper_factor(b: Bench) -> f64 {
    match b {
        Bench::Vec => 7e8 / 14e6,
        Bench::Bs => 7e7 / 1.4e6,
        Bench::Img => (16000.0f64 / 1200.0).powi(2),
        Bench::Ml => 6e6 / 35e3,
        Bench::Hits => 2e7 / 175e3,
        Bench::Dl => (16000.0f64 / 170.0).powi(2),
    }
}

pub fn run(_smoke: bool, _metrics: &mut Metrics) {
    let devices = DeviceProfile::paper_devices();
    let mut rows = Vec::new();
    for b in Bench::ALL {
        let sw = benchmarks::sweep(b);
        let lo = b.build(sw[0]).footprint_bytes() as f64;
        let hi = b.build(sw[4]).footprint_bytes() as f64;
        let f = paper_factor(b);
        let mut row = vec![
            b.name().to_string(),
            format!("{:.1} MB - {:.1} MB", lo / 1e6, hi / 1e6),
            format!("{:.2} GB - {:.2} GB", lo * f / 1e9, hi * f / 1e9),
        ];
        for dev in &devices {
            row.push(format!("{:.0}%", 100.0 * hi * f / dev.mem_bytes as f64));
        }
        rows.push(row);
    }
    let mut mem_row = vec!["device memory".to_string(), String::new(), String::new()];
    for dev in &devices {
        mem_row.push(format!("{:.1} GB", dev.mem_bytes as f64 / 1e9));
    }
    rows.push(mem_row);

    println!("Table I — memory footprint per benchmark (simulated sizes and paper-equivalent)");
    let headers = [
        "bench",
        "simulated footprint",
        "paper-equivalent",
        "960 max%",
        "1660 max%",
        "P100 max%",
    ];
    println!("{}", render_table(&headers, &rows));
}
