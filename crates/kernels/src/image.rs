//! IMG — image processing pipeline (paper §V-B).
//!
//! "An image processing pipeline that combines a sharpened picture with
//! copies blurred at low and medium frequencies, to sharpen the edges,
//! soften everything else, and enhance the subject. The benchmark has
//! complex dependencies on 4 streams." Derived from the open-source CUDA
//! Gaussian blur the paper cites plus the classic Sobel operator.
//!
//! Images are single-channel `f32` matrices stored row-major; scalar
//! arguments carry the geometry.

use gpu_sim::{DataBuffer, KernelCost};

use crate::helpers::{cached_f32, holds, reduction_f32, s, streaming_f32};
use crate::{util, KernelDef};

/// `gaussian_blur(img, out, rows, cols, kernel, diameter)`: 2-D
/// convolution with a precomputed Gaussian kernel.
pub static GAUSSIAN_BLUR: KernelDef = KernelDef {
    name: "gaussian_blur",
    nidl: "const pointer float, pointer float, sint32, sint32, const pointer float, sint32",
    func: blur_func,
    cost: blur_cost,
    writes: &[false, true, false],
};

fn blur_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let cols = s(scalars[1]);
    let diameter = s(scalars[2]);
    let img = bufs[0].as_f32();
    let mut out = bufs[1].as_f32_mut();
    let kern = bufs[2].as_f32();
    // The last weight read is (2·radius, 2·radius) of rows `diameter`
    // wide — past `diameter²` when the diameter is even.
    let taps = (diameter / 2 * 2).checked_mul(diameter + 1);
    let shape = [rows, cols];
    if !(holds(img.len(), &shape) && holds(out.len(), &shape))
        || taps.is_none_or(|last| last >= kern.len())
    {
        return;
    }
    let pass = Stencil {
        img: &img,
        rows,
        cols,
        diameter,
        weights: [&kern],
    };
    pass.run(&mut out, |[acc]| acc);
}

/// Output columns one interior step of [`Stencil::run`] settles side by
/// side.
const LANES: usize = 16;

/// A correlation of a `rows × cols` image with `N` weight grids at once
/// (blur has one, Sobel two). A pixel's taps run `dr` then `dc`
/// ascending over `-radius..=radius` (`radius = diameter / 2`), reading
/// weight `(dr + radius) · diameter + (dc + radius)` and the clamped
/// pixel, and each sum is an `f32` add of `pixel * weight` per tap: the
/// same sequence whether the pixel is settled alone on the clamped
/// border or beside its neighbours where no tap needs a column clamp.
struct Stencil<'a, const N: usize> {
    img: &'a [f32],
    rows: usize,
    cols: usize,
    diameter: usize,
    weights: [&'a [f32]; N],
}

impl<const N: usize> Stencil<'_, N> {
    /// Write `finish(sums)` of every pixel's `N` sums to `out`: `LANES`
    /// interior pixels at a time, then the interior's remainder one at a
    /// time, and the border one clamped pixel at a time.
    fn run(&self, out: &mut [f32], finish: impl Fn([f32; N]) -> f32) {
        let radius = self.diameter / 2;
        // The columns whose taps all land inside the row.
        let interior = radius..self.cols.saturating_sub(radius).max(radius);
        for r in 0..self.rows {
            let out = &mut out[r * self.cols..(r + 1) * self.cols];
            let mut c = 0;
            while c < self.cols {
                let fits = |lanes: usize| interior.contains(&c) && c + lanes <= interior.end;
                c += if fits(LANES) {
                    self.settle::<LANES>(r, c, &mut out[c..], &finish)
                } else if fits(1) {
                    self.settle::<1>(r, c, &mut out[c..], &finish)
                } else {
                    out[c] = finish(self.clamped(r, c));
                    1
                };
            }
        }
    }

    /// Offset of the image row under tap row `dr` (`0..=2·radius`) of
    /// output row `r`, clamped to the image.
    fn row(&self, r: usize, dr: usize) -> usize {
        (r + dr)
            .saturating_sub(self.diameter / 2)
            .min(self.rows - 1)
            * self.cols
    }

    /// The sums of pixel `(r, c)`, every tap clamped.
    fn clamped(&self, r: usize, c: usize) -> [f32; N] {
        let radius = self.diameter / 2;
        let mut acc = [0.0f32; N];
        for dr in 0..2 * radius + 1 {
            let row = self.row(r, dr);
            for dc in 0..2 * radius + 1 {
                let p = self.img[row + (c + dc).saturating_sub(radius).min(self.cols - 1)];
                for (a, w) in acc.iter_mut().zip(self.weights) {
                    *a += p * w[dr * self.diameter + dc];
                }
            }
        }
        acc
    }

    /// Write `finish` of the sums of the `L` interior pixels from
    /// `(r, c)` to `out[..L]`, one lane each; returns `L`.
    fn settle<const L: usize>(
        &self,
        r: usize,
        c: usize,
        out: &mut [f32],
        finish: impl Fn([f32; N]) -> f32,
    ) -> usize {
        let radius = self.diameter / 2;
        let mut acc = [[0.0f32; L]; N];
        for dr in 0..2 * radius + 1 {
            let start = self.row(r, dr) + c - radius;
            let window = &self.img[start..start + L + 2 * radius];
            for dc in 0..2 * radius + 1 {
                let px: &[f32; L] = window[dc..dc + L].try_into().expect("L pixels");
                for (a, w) in acc.iter_mut().zip(self.weights) {
                    let w = w[dr * self.diameter + dc];
                    for (a, p) in a.iter_mut().zip(px) {
                        *a += p * w;
                    }
                }
            }
        }
        for (l, o) in out[..L].iter_mut().enumerate() {
            *o = finish(std::array::from_fn(|k| acc[k][l]));
        }
        L
    }
}

fn blur_cost(bufs: &[DataBuffer], scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    let d = scalars[2].max(1.0);
    // Stencil: each pixel read d² times, but neighbours hit L2/shared
    // memory; DRAM sees each pixel ~once. The inefficiency models halo
    // handling and shared-memory bank pressure (calibrated against the
    // paper's IMG serial times).
    cached_f32(2.0 * n, d * d / 2.0, n * d * d * 2.0).with_inefficiency(4.0)
}

/// `sobel(img, out, rows, cols)`: gradient-magnitude edge detection.
pub static SOBEL: KernelDef = KernelDef {
    name: "sobel",
    nidl: "const pointer float, pointer float, sint32, sint32",
    func: sobel_func,
    cost: sobel_cost,
    writes: &[false, true],
};

fn sobel_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let rows = s(scalars[0]);
    let cols = s(scalars[1]);
    let img = bufs[0].as_f32();
    let mut out = bufs[1].as_f32_mut();
    if !(holds(img.len(), &[rows, cols]) && holds(out.len(), &[rows, cols])) {
        return;
    }
    let pass = Stencil {
        img: &img,
        rows,
        cols,
        diameter: 3,
        weights: [&SOBEL_X, &SOBEL_Y],
    };
    pass.run(&mut out, |[gx, gy]| (gx * gx + gy * gy).sqrt());
}

/// The Sobel weights, row-major 3 × 3.
const SOBEL_X: [f32; 9] = [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0];
const SOBEL_Y: [f32; 9] = [-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0];

fn sobel_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    cached_f32(2.0 * n, 4.5, n * 20.0).with_inefficiency(4.0)
}

/// `maximum(x, out, n)`: `out[0] ← max(x)`.
pub static MAXIMUM: KernelDef = KernelDef {
    name: "maximum",
    nidl: "const pointer float, pointer float, sint32",
    func: max_func,
    cost: minmax_cost,
    writes: &[false, true],
};

fn max_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    bufs[1].as_f32_mut()[0] = x.iter().take(n).copied().fold(f32::NEG_INFINITY, f32::max);
}

/// `minimum(x, out, n)`: `out[0] ← min(x)`.
pub static MINIMUM: KernelDef = KernelDef {
    name: "minimum",
    nidl: "const pointer float, pointer float, sint32",
    func: min_func,
    cost: minmax_cost,
    writes: &[false, true],
};

fn min_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    bufs[1].as_f32_mut()[0] = x.iter().take(n).copied().fold(f32::INFINITY, f32::min);
}

fn minmax_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    reduction_f32(bufs[0].len() as f64, 1.0)
}

/// `extend(x, min, max, n)`: linearly rescale the dynamic range of `x`
/// to `[0, 1]` in place, given the precomputed extremes.
pub static EXTEND: KernelDef = KernelDef {
    name: "extend",
    nidl: "pointer float, const pointer float, const pointer float, sint32",
    func: extend_func,
    cost: extend_cost,
    writes: &[true, false, false],
};

fn extend_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let lo = bufs[1].as_f32()[0];
    let hi = bufs[2].as_f32()[0];
    let span = (hi - lo).max(1e-12);
    let mut x = bufs[0].as_f32_mut();
    for v in x.iter_mut().take(n) {
        *v = ((*v - lo) / span).clamp(0.0, 1.0);
    }
}

fn extend_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[0].len() as f64;
    streaming_f32(n, n, 4.0)
}

/// `unsharpen(img, blurred, out, amount, n)`: classic unsharp masking —
/// sharpen by subtracting the blur.
pub static UNSHARPEN: KernelDef = KernelDef {
    name: "unsharpen",
    nidl: "const pointer float, const pointer float, pointer float, float, sint32",
    func: unsharpen_func,
    cost: unsharpen_cost,
    writes: &[false, false, true],
};

fn unsharpen_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let amount = scalars[0] as f32;
    let n = s(scalars[1]);
    let img = bufs[0].as_f32();
    let blur = bufs[1].as_f32();
    let mut out = bufs[2].as_f32_mut();
    for ((out, img), blur) in out.iter_mut().zip(img.iter()).zip(blur.iter()).take(n) {
        *out = (img * (1.0 + amount) - blur * amount).clamp(0.0, 1.0);
    }
}

fn unsharpen_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[2].len() as f64;
    streaming_f32(2.0 * n, n, 5.0)
}

/// `combine(x, y, mask, out, n)`: blend two images through a mask:
/// out = x·mask + y·(1−mask).
pub static COMBINE: KernelDef = KernelDef {
    name: "combine",
    nidl: "const pointer float, const pointer float, const pointer float, pointer float, sint32",
    func: combine_func,
    cost: combine_cost,
    writes: &[false, false, false, true],
};

fn combine_func(bufs: &[DataBuffer], scalars: &[f64]) {
    let n = s(scalars[0]);
    let x = bufs[0].as_f32();
    let y = bufs[1].as_f32();
    let m = bufs[2].as_f32();
    let mut out = bufs[3].as_f32_mut();
    let inputs = x.iter().zip(y.iter()).zip(m.iter());
    for (out, ((x, y), m)) in out.iter_mut().zip(inputs).take(n) {
        *out = x * m + y * (1.0 - m);
    }
}

fn combine_cost(bufs: &[DataBuffer], _scalars: &[f64]) -> KernelCost {
    let n = bufs[3].len() as f64;
    streaming_f32(3.0 * n, n, 4.0)
}

/// `copy(x, out, n)`: pixel copy (the pipeline stages frames with it):
/// [`crate::util::COPY_F32`]'s body under the pipeline's own name.
pub static COPY_IMG: KernelDef = KernelDef {
    name: "copy_img",
    nidl: "const pointer float, pointer float, sint32",
    func: util::copy_func,
    cost: util::copy_cost,
    writes: &[false, true],
};

/// Build a normalized Gaussian kernel of the given diameter and sigma
/// (helper for the IMG benchmark and its tests).
pub fn gaussian_kernel(diameter: usize, sigma: f64) -> Vec<f32> {
    let radius = diameter as isize / 2;
    let mut k = Vec::with_capacity(diameter * diameter);
    let mut sum = 0.0f64;
    for dr in -radius..=radius {
        for dc in -radius..=radius {
            let w = (-((dr * dr + dc * dc) as f64) / (2.0 * sigma * sigma)).exp();
            k.push(w as f32);
            sum += w;
        }
    }
    for w in &mut k {
        *w = (*w as f64 / sum) as f32;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{corpus, same_as_reference};
    use gpu_sim::TypedData;

    fn img(v: Vec<f32>) -> DataBuffer {
        DataBuffer::new(TypedData::F32(v))
    }

    /// `blur_func` as first written, one clamped pixel at a time: the
    /// oracle the lane version must match bit for bit.
    fn blur_reference(bufs: &[DataBuffer], scalars: &[f64]) {
        let rows = s(scalars[0]);
        let cols = s(scalars[1]);
        let diameter = s(scalars[2]);
        let img = bufs[0].as_f32();
        let mut out = bufs[1].as_f32_mut();
        let kern = bufs[2].as_f32();
        let taps = (diameter / 2 * 2).checked_mul(diameter + 1);
        let shape = [rows, cols];
        if !(holds(img.len(), &shape) && holds(out.len(), &shape))
            || taps.is_none_or(|last| last >= kern.len())
        {
            return;
        }
        let radius = (diameter / 2) as isize;
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let mut acc = 0.0f32;
                for dr in -radius..=radius {
                    for dc in -radius..=radius {
                        let rr = (r + dr).clamp(0, rows as isize - 1) as usize;
                        let cc = (c + dc).clamp(0, cols as isize - 1) as usize;
                        let ki = ((dr + radius) * diameter as isize + (dc + radius)) as usize;
                        acc += img[rr * cols + cc] * kern[ki];
                    }
                }
                out[r as usize * cols + c as usize] = acc;
            }
        }
    }

    /// `sobel_func` as first written (see [`blur_reference`]).
    fn sobel_reference(bufs: &[DataBuffer], scalars: &[f64]) {
        let rows = s(scalars[0]);
        let cols = s(scalars[1]);
        let img = bufs[0].as_f32();
        let mut out = bufs[1].as_f32_mut();
        if !(holds(img.len(), &[rows, cols]) && holds(out.len(), &[rows, cols])) {
            return;
        }
        const GX: [[f32; 3]; 3] = [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]];
        const GY: [[f32; 3]; 3] = [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]];
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let mut gx = 0.0f32;
                let mut gy = 0.0f32;
                for dr in -1..=1isize {
                    for dc in -1..=1isize {
                        let rr = (r + dr).clamp(0, rows as isize - 1) as usize;
                        let cc = (c + dc).clamp(0, cols as isize - 1) as usize;
                        let p = img[rr * cols + cc];
                        gx += p * GX[(dr + 1) as usize][(dc + 1) as usize];
                        gy += p * GY[(dr + 1) as usize][(dc + 1) as usize];
                    }
                }
                out[r as usize * cols + c as usize] = (gx * gx + gy * gy).sqrt();
            }
        }
    }

    /// Image shapes around the lane width and the stencil: empty, one
    /// row or column, narrower or shorter than the stencil, one lane
    /// array and a remainder.
    const SHAPES: [(usize, usize); 14] = [
        (0, 5),
        (5, 0),
        (1, 1),
        (1, 40),
        (40, 1),
        (2, 3),
        (3, 2),
        (5, 15),
        (7, 16),
        (6, 17),
        (4, 20),
        (3, 33),
        (37, 37),
        (9, 50),
    ];

    #[test]
    fn blur_matches_its_sequential_reference_bit_for_bit() {
        for (i, (rows, cols)) in SHAPES.into_iter().enumerate() {
            for diameter in 1..=7 {
                for specials in [false, true] {
                    let seed = (i * 8 + diameter) as u64;
                    let n = rows * cols;
                    let inputs = [
                        corpus(n, seed, specials),
                        corpus(n, seed + 1000, false),
                        corpus((diameter + 1) * (diameter + 1), seed + 2000, specials),
                    ];
                    let scalars = [rows as f64, cols as f64, diameter as f64];
                    let case = format!("{rows}x{cols} d{diameter} specials {specials}");
                    same_as_reference(blur_func, blur_reference, &inputs, 1, &scalars, &case);
                }
            }
        }
    }

    #[test]
    fn sobel_matches_its_sequential_reference_bit_for_bit() {
        for (i, (rows, cols)) in SHAPES.into_iter().enumerate() {
            for specials in [false, true] {
                let n = rows * cols;
                let inputs = [corpus(n, i as u64, specials), corpus(n, 99, false)];
                let scalars = [rows as f64, cols as f64];
                let case = format!("{rows}x{cols} specials {specials}");
                same_as_reference(sobel_func, sobel_reference, &inputs, 1, &scalars, &case);
            }
        }
    }

    #[test]
    fn gaussian_kernel_is_normalized() {
        let k = gaussian_kernel(5, 1.5);
        assert_eq!(k.len(), 25);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        // Center weight is the largest.
        let center = k[12];
        assert!(k.iter().all(|&w| w <= center));
    }

    #[test]
    fn blur_preserves_constant_images() {
        let rows = 8;
        let cols = 8;
        let x = img(vec![0.5; rows * cols]);
        let out = DataBuffer::f32_zeros(rows * cols);
        let kern = img(gaussian_kernel(3, 1.0));
        blur_func(&[x, out.clone(), kern], &[rows as f64, cols as f64, 3.0]);
        for &v in out.as_f32().iter() {
            assert!((v - 0.5).abs() < 1e-5);
        }
    }

    #[test]
    fn blur_smooths_an_impulse() {
        let _rows = 5;
        let _cols = 5;
        let mut data = vec![0.0f32; 25];
        data[12] = 1.0;
        let x = img(data);
        let out = DataBuffer::f32_zeros(25);
        let kern = img(gaussian_kernel(3, 1.0));
        blur_func(&[x, out.clone(), kern], &[5.0, 5.0, 3.0]);
        let o = out.as_f32();
        assert!(o[12] < 1.0 && o[12] > 0.2);
        assert!(o[7] > 0.0, "energy spreads to neighbours");
    }

    #[test]
    fn sobel_finds_a_vertical_edge() {
        let rows = 4;
        let cols = 6;
        let mut data = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 3..cols {
                data[r * cols + c] = 1.0;
            }
        }
        let x = img(data);
        let out = DataBuffer::f32_zeros(rows * cols);
        sobel_func(&[x, out.clone()], &[rows as f64, cols as f64]);
        let o = out.as_f32();
        // Strong response at the edge columns, zero far away.
        assert!(o[cols + 2] > 1.0);
        assert!(o[cols].abs() < 1e-6);
    }

    #[test]
    fn min_max_extend_normalizes_range() {
        let x = img(vec![2.0, 4.0, 6.0, 10.0]);
        let lo = DataBuffer::f32_zeros(1);
        let hi = DataBuffer::f32_zeros(1);
        min_func(&[x.clone(), lo.clone()], &[4.0]);
        max_func(&[x.clone(), hi.clone()], &[4.0]);
        assert_eq!(lo.as_f32()[0], 2.0);
        assert_eq!(hi.as_f32()[0], 10.0);
        extend_func(&[x.clone(), lo, hi], &[4.0]);
        let o = x.as_f32();
        assert_eq!(o[0], 0.0);
        assert_eq!(o[3], 1.0);
        assert!((o[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn unsharpen_amplifies_detail() {
        let imgb = img(vec![0.8, 0.2]);
        let blur = img(vec![0.5, 0.5]);
        let out = DataBuffer::f32_zeros(2);
        unsharpen_func(&[imgb, blur, out.clone()], &[0.5, 2.0]);
        let o = out.as_f32();
        assert!(o[0] > 0.8, "bright pixel gets brighter");
        assert!(o[1] < 0.2, "dark pixel gets darker");
    }

    #[test]
    fn combine_blends_through_mask() {
        let x = img(vec![1.0, 1.0]);
        let y = img(vec![0.0, 0.0]);
        let m = img(vec![1.0, 0.25]);
        let out = DataBuffer::f32_zeros(2);
        combine_func(&[x, y, m, out.clone()], &[2.0]);
        assert_eq!(*out.as_f32(), vec![1.0, 0.25]);
    }

    #[test]
    fn copy_copies() {
        let x = img(vec![1.0, 2.0, 3.0]);
        let out = DataBuffer::f32_zeros(3);
        (COPY_IMG.func)(&[x, out.clone()], &[3.0]);
        assert_eq!(*out.as_f32(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn blur_cost_grows_with_kernel_diameter() {
        let x = DataBuffer::f32_zeros(1 << 16);
        let o = DataBuffer::f32_zeros(1 << 16);
        let k3 = img(gaussian_kernel(3, 1.0));
        let k7 = img(gaussian_kernel(7, 2.0));
        let c3 = blur_cost(&[x.clone(), o.clone(), k3], &[256.0, 256.0, 3.0]);
        let c7 = blur_cost(&[x, o, k7], &[256.0, 256.0, 7.0]);
        assert!(c7.flops32 > 4.0 * c3.flops32);
    }
}
