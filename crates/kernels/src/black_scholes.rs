//! B&S — Black & Scholes European call option pricing (paper §V-B).
//!
//! "Black & Scholes equation for European call options, for 10 underlying
//! stocks, and 10 vectors of prices. Adapted from [the NVIDIA CUDA
//! sample] to simulate a computationally intensive streaming benchmark
//! with double-precision arithmetic and many independent kernels that can
//! be overlapped with no dependencies."
//!
//! The benchmark launches this one kernel ten times on ten independent
//! price vectors; its defining property is heavy **fp64** work, which is
//! why the paper sees such different behaviour between the fp64-starved
//! GTX 1660 Super and the full-rate Tesla P100 (§V-F).

use gpu_sim::{DataBuffer, KernelCost};

use crate::helpers::{s, streaming_f64};
use crate::KernelDef;

/// `bs(x, y, n)`: `y[i] ← call price of spot x[i]`. Strike, rate,
/// volatility and expiry ride as scalar arguments (they match the CUDA
/// sample's constants by default).
pub static BLACK_SCHOLES: KernelDef = KernelDef {
    name: "bs",
    nidl: "const pointer double, pointer double, sint32, double, double, double, double",
    func: bs_func,
    cost: bs_cost,
    writes: &[false, true],
};

/// Cumulative normal distribution via the Abramowitz–Stegun polynomial
/// (the approximation the CUDA sample uses).
fn cnd(d: f64) -> f64 {
    const A1: f64 = 0.31938153;
    const A2: f64 = -0.356563782;
    const A3: f64 = 1.781477937;
    const A4: f64 = -1.821255978;
    const A5: f64 = 1.330274429;
    const RSQRT2PI: f64 = 0.398_942_280_401_432_7;
    let k = 1.0 / (1.0 + 0.2316419 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let cnd = RSQRT2PI * (-0.5 * d * d).exp() * poly;
    if d > 0.0 {
        1.0 - cnd
    } else {
        cnd
    }
}

/// Price one option.
fn price(spot: f64, strike: f64, rate: f64, vol: f64, t: f64) -> f64 {
    let sqrt_t = t.sqrt();
    let d1 = ((spot / strike).ln() + (rate + 0.5 * vol * vol) * t) / (vol * sqrt_t);
    let d2 = d1 - vol * sqrt_t;
    let expiry_discount = (-rate * t).exp();
    spot * cnd(d1) - strike * expiry_discount * cnd(d2)
}

fn bs_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let (strike, rate, vol, t) = params(scalars);
    let x = bufs[0].as_f64();
    let mut y = bufs[1].as_f64_mut();
    for (y, &x) in y.iter_mut().zip(x.iter()).take(n) {
        *y = price(x, strike, rate, vol, t);
    }
}

fn params(scalars: &[f64]) -> (f64, f64, f64, f64) {
    let strike = scalars.get(1).copied().unwrap_or(100.0);
    let rate = scalars.get(2).copied().unwrap_or(0.02);
    let vol = scalars.get(3).copied().unwrap_or(0.30);
    let t = scalars.get(4).copied().unwrap_or(1.0);
    (strike, rate, vol, t)
}

fn bs_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    // ~15 arithmetic expressions, but ln/exp/sqrt/div expand to long
    // fp64 sequences on consumer parts: calibrated against the paper's
    // GTX 1660 Super serial times (~2 ns/option of pure fp64 work),
    // about 300 fp64-equivalent operations per option.
    streaming_f64(n, n, 300.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-9);
        assert!(cnd(5.0) > 0.999);
        assert!(cnd(-5.0) < 0.001);
        // monotone
        assert!(cnd(-1.0) < cnd(0.0) && cnd(0.0) < cnd(1.0));
        // symmetric
        assert!((cnd(1.3) + cnd(-1.3) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn at_the_money_price_is_positive_and_below_spot() {
        let p = price(100.0, 100.0, 0.02, 0.3, 1.0);
        assert!(p > 0.0 && p < 100.0, "p = {p}");
        // Textbook value for these parameters ≈ 12.8216.
        assert!((p - 12.8216).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn deep_in_the_money_tends_to_intrinsic_value() {
        let p = price(300.0, 100.0, 0.02, 0.3, 1.0);
        let intrinsic = 300.0 - 100.0 * (-0.02f64).exp();
        assert!(
            (p - intrinsic).abs() < 0.5,
            "p = {p}, intrinsic = {intrinsic}"
        );
    }

    #[test]
    fn kernel_prices_a_vector() {
        let x = DataBuffer::new(gpu_sim::TypedData::F64(vec![80.0, 100.0, 120.0]));
        let y = DataBuffer::f64_zeros(3);
        bs_func(&[x, y.clone()], &[3.0]);
        let out = y.as_f64();
        assert!(
            out[0] < out[1] && out[1] < out[2],
            "call price increases with spot"
        );
    }

    #[test]
    fn cost_is_fp64_dominated() {
        let x = DataBuffer::f64_zeros(1 << 20);
        let y = DataBuffer::f64_zeros(1 << 20);
        let c = bs_cost(&[x, y], &[(1 << 20) as f64]);
        assert_eq!(c.flops32, 0.0);
        assert!(c.flops64 > 0.0);
        // On a GTX 1660 Super this kernel must be compute-bound, on a
        // P100 transfer/memory-bound — the paper's §V-F observation.
        let g = gpu_sim::Grid::d1(4096, 256);
        let (t1660, _) = c.solo_profile(g, &gpu_sim::DeviceProfile::gtx1660_super());
        let (tp100, _) = c.solo_profile(g, &gpu_sim::DeviceProfile::tesla_p100());
        // (the ratio is < 30x because the P100 run becomes memory-bound
        // once its fp64 units stop being the bottleneck)
        assert!(t1660 > 5.0 * tp100, "t1660={t1660}, tp100={tp100}");
    }
}
