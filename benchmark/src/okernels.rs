//! Benchmark-owned kernels and the kernel-time shim.
//!
//! `touch` and `join2` do O(1) host arithmetic (one element) behind a
//! real NIDL signature and a real `streaming_f32` cost model over the
//! whole array, so the simulator sees an ordinary bandwidth-bound
//! kernel while the host spends its time in the scheduler, not in
//! `kernels` arithmetic. The arithmetic is exact integer arithmetic in
//! `f32` and not commutative across steps, so any mis-ordered pair of
//! launches changes the result the reference interpreter expects.
//!
//! `KernelDef::func` is a plain `fn` pointer, so time spent inside it
//! is accumulated in a process-wide counter (the threaded `Server` runs
//! kernels on its own thread). The counter is only touched while timing
//! is switched on, which the traced run does.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use benchmarks::BenchSpec;
use gpu_sim::{DataBuffer, KernelCost};
use kernels::helpers::{s, streaming_f32};
use kernels::{KernelDef, KernelFn};

// Relaxed everywhere: these are statistics, they publish no other data.
static TIMING: AtomicBool = AtomicBool::new(false);
static FUNC_NS: AtomicU64 = AtomicU64::new(0);

/// Switch kernel-function timing on or off.
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Nanoseconds spent inside kernel functions while timing was on.
pub fn func_ns() -> u64 {
    FUNC_NS.load(Ordering::Relaxed)
}

#[inline]
fn timed(f: impl FnOnce()) {
    if TIMING.load(Ordering::Relaxed) {
        let t = Instant::now();
        f();
        FUNC_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    } else {
        f();
    }
}

const MODULUS: f32 = 8191.0;

fn touch_op(x: f32) -> f32 {
    (x * 3.0 + 1.0) % MODULUS
}

fn join2_op(a: f32, b: f32) -> f32 {
    (a * 5.0 + b * 7.0 + 3.0) % MODULUS
}

/// `bench_touch(in, out, n)`: `out[0] ← f(in[0])`.
pub static TOUCH: KernelDef = KernelDef {
    name: "bench_touch",
    nidl: "const pointer float, pointer float, sint32",
    func: touch_func,
    cost: touch_cost,
    writes: &[false, true],
};

fn touch_func(bufs: &[DataBuffer], scalars: &[f64]) {
    timed(|| {
        debug_assert!(s(scalars[0]) > 0);
        let x = bufs[0].as_f32()[0];
        bufs[1].as_f32_mut()[0] = touch_op(x);
    });
}

fn touch_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n, 1.0)
}

/// `bench_join2(a, b, out, n)`: `out[0] ← g(a[0], b[0])`.
pub static JOIN2: KernelDef = KernelDef {
    name: "bench_join2",
    nidl: "const pointer float, const pointer float, pointer float, sint32",
    func: join2_func,
    cost: join2_cost,
    writes: &[false, false, true],
};

fn join2_func(bufs: &[DataBuffer], scalars: &[f64]) {
    timed(|| {
        debug_assert!(s(scalars[0]) > 0);
        let a = bufs[0].as_f32()[0];
        let b = bufs[1].as_f32()[0];
        bufs[2].as_f32_mut()[0] = join2_op(a, b);
    });
}

fn join2_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(2.0 * n, n, 2.0)
}

// ---------------------------------------------------------------------
// Shims for the 33 suite kernels
// ---------------------------------------------------------------------

/// The suite kernels' real functions, indexed like `kernels::all_kernels()`.
static ORIGINAL: OnceLock<Vec<KernelFn>> = OnceLock::new();
/// Shimmed copies of the suite kernels, same order.
static SHIMMED: OnceLock<Vec<KernelDef>> = OnceLock::new();

fn shim<const I: usize>(bufs: &[DataBuffer], scalars: &[f64]) {
    let f = ORIGINAL.get().expect("shims are installed before use")[I];
    timed(|| f(bufs, scalars));
}

macro_rules! shim_table {
    ($($i:literal)*) => { [$(shim::<$i> as KernelFn),*] };
}

/// One monomorphised shim per suite kernel (a `fn` pointer cannot
/// capture which function it wraps).
const SHIMS: [KernelFn; 33] = shim_table!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
);

fn shimmed() -> &'static [KernelDef] {
    SHIMMED.get_or_init(|| {
        let all = kernels::all_kernels();
        assert_eq!(all.len(), SHIMS.len(), "one shim per suite kernel");
        ORIGINAL.get_or_init(|| all.iter().map(|k| k.func).collect());
        all.iter()
            .zip(SHIMS)
            .map(|(k, func)| KernelDef { func, ..**k })
            .collect()
    })
}

/// `spec` with its kernels behind the timing shim (its arrays stay where
/// they are, so shimmed and plain rounds see the same memory layout).
/// Kernels are matched by name; every suite kernel is in
/// `all_kernels()`.
pub fn with_shims(mut spec: BenchSpec) -> BenchSpec {
    let table = shimmed();
    for op in &mut spec.ops {
        op.def = table
            .iter()
            .find(|k| k.name == op.def.name)
            .unwrap_or_else(|| panic!("suite kernel `{}` is not registered", op.def.name));
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_exact_and_order_sensitive() {
        // Integers below 2^24 are exact in f32.
        let mut x = 17.0f32;
        for _ in 0..1000 {
            x = touch_op(x);
            assert!((0.0..MODULUS).contains(&x) && x.fract() == 0.0);
        }
        assert_ne!(join2_op(2.0, 3.0), join2_op(3.0, 2.0));
        assert_ne!(touch_op(join2_op(2.0, 3.0)), join2_op(touch_op(2.0), 3.0));
    }

    #[test]
    fn shim_times_the_original_function() {
        let spec = benchmarks::Bench::Vec.build(1024);
        let shimmed = with_shims(spec.clone());
        let buffers: Vec<DataBuffer> = shimmed
            .arrays
            .iter()
            .map(|a| DataBuffer::new(a.init.clone()))
            .collect();
        let plain: Vec<DataBuffer> = spec
            .arrays
            .iter()
            .map(|a| DataBuffer::new(a.init.clone()))
            .collect();
        set_timing(true);
        let ns0 = func_ns();
        for (a, b) in shimmed.ops.iter().zip(&spec.ops) {
            let (bufs, scalars) = shimmed.op_inputs(a, &buffers);
            (a.def.func)(&bufs, &scalars);
            let (bufs, scalars) = spec.op_inputs(b, &plain);
            (b.def.func)(&bufs, &scalars);
        }
        set_timing(false);
        assert!(
            func_ns() > ns0,
            "squaring 1024 floats takes measurable time"
        );
        for (x, y) in buffers.iter().zip(&plain) {
            assert_eq!(*x.data(), *y.data());
        }
    }
}
