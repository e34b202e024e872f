//! Facts about the machine and the process, printed with every run.

use std::hint::black_box;
use std::time::Instant;

use dag::DenseMap;

/// `rustc --version` of the compiler that built this binary.
pub const RUSTC_VERSION: &str = env!("BENCH_RUSTC_VERSION");

/// `std::thread::available_parallelism`, 1 if unknown.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
/// Panics where `/proc/self/status` has no `VmHWM` line: the benchmark
/// reports the metric on every run, so it cannot run there.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Nanoseconds per step of a fixed loop of integer arithmetic and
/// `DenseMap` sliding-window operations (the arena type the scheduler's
/// per-vertex maps use): a yardstick for comparing host-time numbers
/// across machines.
pub fn calib_ns_per_op() -> f64 {
    const STEPS: u32 = 2_000_000;
    const WINDOW: u32 = 64;
    let mut map: DenseMap<dag::VertexId, u64> = DenseMap::new();
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..STEPS {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
        map.insert(dag::VertexId(i), acc);
        if i >= WINDOW {
            acc ^= map.remove(dag::VertexId(i - WINDOW)).unwrap_or(0);
        }
    }
    black_box((acc, map.len()));
    t.elapsed().as_nanos() as f64 / STEPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_facts_are_sane() {
        assert!(threads() >= 1);
        assert!(peak_rss_mib() > 0.5);
        assert!(RUSTC_VERSION.starts_with("rustc") || RUSTC_VERSION == "unknown");
        assert!(calib_ns_per_op() > 0.0);
    }
}
