//! 2-D convolution over token grids.
//!
//! UNet-based diffusion models (SD2.1, SDXL) wrap their transformer
//! blocks in a convolutional scaffold. Unlike every other operator in
//! this crate, convolution mixes *spatially* — it is not token-wise —
//! which is exactly why the paper's mask-aware computation leaves the
//! conv scaffold alone (§2.1 footnote: transformers are ~82% of a UNet
//! step; the scaffold always computes in full).
//!
//! The layout here is `[H*W, C]` row-major over the grid: the same
//! token matrix the transformer blocks consume.
//!
//! Like the matmul family, the kernel no longer skips exact-zero input
//! activations: the skip made measured time diverge from the dense FLOP
//! accounting in `fps-diffusion::flops` on padded/masked inputs. See
//! the `matmul` module docs for the full rationale.
//!
//! Within a grid row, four output pixels × four output channels
//! accumulate together in registers (then 1-wide tails in both): each
//! output element is still its bias plus `v · k` for every in-grid tap
//! in kernel-row order and every input channel in ascending order, each
//! pixel skipping its own out-of-grid taps — the one-pixel sum, with
//! sixteen independent chains in flight.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::{ktrace, scratch, Result};

/// 3×3 same-padding convolution over an `[h*w, c_in]` token grid with
/// kernel `[9 * c_in, c_out]` (kernel rows ordered `(dy, dx, c_in)`
/// with `dy`, `dx` ∈ {-1, 0, 1} scanned row-major) and bias `[c_out]`.
///
/// Out-of-grid taps contribute nothing (zero padding: the tap is
/// skipped, not added as a zero product).
///
/// # Errors
///
/// Returns an error when shapes are inconsistent with `h`, `w`.
pub fn conv3x3(x: &Tensor, h: usize, w: usize, kernel: &Tensor, bias: &Tensor) -> Result<Tensor> {
    if x.rank() != 2 || x.dims()[0] != h * w {
        return Err(TensorError::ShapeMismatch {
            op: "conv3x3",
            lhs: x.dims().to_vec(),
            rhs: vec![h * w],
        });
    }
    let c_in = x.dims()[1];
    if kernel.rank() != 2 || kernel.dims()[0] != 9 * c_in {
        return Err(TensorError::ShapeMismatch {
            op: "conv3x3",
            lhs: kernel.dims().to_vec(),
            rhs: vec![9 * c_in],
        });
    }
    let c_out = kernel.dims()[1];
    if bias.numel() != c_out {
        return Err(TensorError::ShapeMismatch {
            op: "conv3x3",
            lhs: bias.dims().to_vec(),
            rhs: vec![c_out],
        });
    }
    let _span = ktrace::span("conv3x3");
    let mut out = scratch::take(h * w * c_out);
    let grid = Grid {
        x: x.data(),
        h,
        w,
        c_in,
        kernel: kernel.data(),
        bias: bias.data(),
    };
    grid.rows(&mut out);
    Tensor::from_vec(out, [h * w, c_out])
}

/// Output pixels of a grid row [`conv3x3`] accumulates together: one
/// pixel's sums are a dependent chain per channel, four pixels' are
/// independent.
const PIX: usize = 4;

/// [`conv3x3`]'s operands: the `[h·w, c_in]` grid `x`, the
/// `[9·c_in, c_out]` kernel and the `[c_out]` bias.
#[derive(Clone, Copy)]
struct Grid<'a> {
    x: &'a [f32],
    h: usize,
    w: usize,
    c_in: usize,
    kernel: &'a [f32],
    bias: &'a [f32],
}

impl Grid<'_> {
    /// Every output grid row into `out` (`h` rows of `w · c_out`),
    /// [`PIX`] pixels of a row at a time, then one.
    fn rows(self, out: &mut [f32]) {
        let c_out = self.bias.len();
        if self.w == 0 || c_out == 0 {
            return;
        }
        for (y, grid_row) in out.chunks_exact_mut(self.w * c_out).enumerate() {
            let mut px = 0;
            while px + PIX <= self.w {
                self.pixels::<PIX>(&mut grid_row[px * c_out..], y, px);
                px += PIX;
            }
            while px < self.w {
                self.pixels::<1>(&mut grid_row[px * c_out..], y, px);
                px += 1;
            }
        }
    }

    /// Output pixels `(y, px..px + P)` into the first `P · c_out` of
    /// `out`. Each output element is its bias, then `v · k` added for
    /// every in-grid tap in kernel-row order and every input channel in
    /// ascending order — each pixel skipping its own out-of-grid taps —
    /// the sum one pixel alone takes, with `P` pixels in flight.
    #[inline(always)]
    fn pixels<const P: usize>(self, out: &mut [f32], y: usize, px: usize) {
        let c_out = self.bias.len();
        let mut c = 0;
        while c + 4 <= c_out {
            self.tile::<P, 4>(out, y, px, c);
            c += 4;
        }
        while c < c_out {
            self.tile::<P, 1>(out, y, px, c);
            c += 1;
        }
    }

    /// Output channels `c..c + W` of [`Grid::pixels`], in `P × W`
    /// register accumulators.
    #[inline(always)]
    fn tile<const P: usize, const W: usize>(self, out: &mut [f32], y: usize, px: usize, c: usize) {
        let (c_in, c_out) = (self.c_in, self.bias.len());
        let mut acc = [[0.0f32; W]; P];
        for a in &mut acc {
            a.copy_from_slice(&self.bias[c..c + W]);
        }
        for (tap, &(dy, dx)) in TAPS.iter().enumerate() {
            let Some(sy) = y.checked_add_signed(dy).filter(|&sy| sy < self.h) else {
                continue; // Zero padding.
            };
            let src: [Option<&[f32]>; P] = std::array::from_fn(|p| {
                let sx = (px + p).checked_add_signed(dx).filter(|&sx| sx < self.w)?;
                Some(&self.x[(sy * self.w + sx) * c_in..][..c_in])
            });
            let krows = &self.kernel[tap * c_in * c_out..][..c_in * c_out];
            for (ci, krow) in krows.chunks_exact(c_out).enumerate() {
                let k = &krow[c..c + W];
                for (a, s) in acc.iter_mut().zip(src) {
                    let Some(s) = s else { continue };
                    let v = s[ci];
                    for (o, &kv) in a.iter_mut().zip(k) {
                        *o += v * kv;
                    }
                }
            }
        }
        for (p, a) in acc.iter().enumerate() {
            out[p * c_out + c..][..W].copy_from_slice(a);
        }
    }
}

/// Kernel tap offsets in kernel-row order.
const TAPS: [(isize, isize); 9] = [
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 0),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// A kernel whose only non-zero tap is the centre identity: conv
    /// becomes the identity map.
    fn identity_kernel(c: usize) -> Tensor {
        let mut k = Tensor::zeros([9 * c, c]);
        // Centre tap is index 4.
        for ci in 0..c {
            k.set(&[4 * c + ci, ci], 1.0).expect("in range");
        }
        k
    }

    #[test]
    fn identity_kernel_is_identity() {
        let mut rng = DetRng::new(1);
        let x = Tensor::randn([4 * 5, 3], &mut rng);
        let y = conv3x3(&x, 4, 5, &identity_kernel(3), &Tensor::zeros([3])).unwrap();
        assert!(y.max_abs_diff(&x).unwrap() < 1e-6);
    }

    #[test]
    fn bias_is_added() {
        let x = Tensor::zeros([2 * 2, 1]);
        let k = Tensor::zeros([9, 2]);
        let b = Tensor::from_vec(vec![1.5, -2.0], [2]).unwrap();
        let y = conv3x3(&x, 2, 2, &k, &b).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        for r in 0..4 {
            assert_eq!(y.row(r).unwrap(), &[1.5, -2.0]);
        }
    }

    #[test]
    fn box_blur_averages_neighbours() {
        // A uniform kernel sums the 3×3 neighbourhood; on an interior
        // pixel of a constant image that is 9× the value, on a corner
        // 4× (zero padding).
        let x = Tensor::full([3 * 3, 1], 1.0);
        let k = Tensor::full([9, 1], 1.0);
        let y = conv3x3(&x, 3, 3, &k, &Tensor::zeros([1])).unwrap();
        assert_eq!(y.at(&[4, 0]).unwrap(), 9.0, "interior");
        assert_eq!(y.at(&[0, 0]).unwrap(), 4.0, "corner");
        assert_eq!(y.at(&[1, 0]).unwrap(), 6.0, "edge");
    }

    #[test]
    fn convolution_mixes_spatially() {
        // Unlike token-wise ops, changing one token changes its
        // neighbours' outputs — the property that forces the conv
        // scaffold to always compute in full.
        let mut rng = DetRng::new(2);
        let x = Tensor::randn([4 * 4, 2], &mut rng);
        let k = Tensor::randn([9 * 2, 2], &mut rng).scale(0.2);
        let b = Tensor::zeros([2]);
        let y0 = conv3x3(&x, 4, 4, &k, &b).unwrap();
        let mut x2 = x.clone();
        x2.row_mut(5).unwrap()[0] += 1.0; // token (1,1)
        let y1 = conv3x3(&x2, 4, 4, &k, &b).unwrap();
        // Neighbour (1,2) = row 6 must change.
        let d: f32 = y0
            .row(6)
            .unwrap()
            .iter()
            .zip(y1.row(6).unwrap())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-6, "neighbour unaffected");
        // A far token (3,3) = row 15 must not change.
        assert_eq!(y0.row(15).unwrap(), y1.row(15).unwrap());
    }

    /// The one-pixel-at-a-time kernel the pixel tiles replaced, kept as
    /// their order-of-operations oracle: bias, then every in-grid tap in
    /// kernel-row order, input channels ascending, accumulated in place.
    fn conv_per_pixel(x: &[f32], h: usize, w: usize, kernel: &[f32], bias: &[f32]) -> Vec<f32> {
        let (c_in, c_out) = (kernel.len() / (9 * bias.len().max(1)), bias.len());
        let mut out = vec![0.0f32; h * w * c_out];
        for y in 0..h {
            for xc in 0..w {
                let orow = &mut out[(y * w + xc) * c_out..][..c_out];
                orow.copy_from_slice(bias);
                for (tap, &(dy, dx)) in TAPS.iter().enumerate() {
                    let (py, px) = (y as isize + dy, xc as isize + dx);
                    if py < 0 || px < 0 || py >= h as isize || px >= w as isize {
                        continue;
                    }
                    let src = &x[(py as usize * w + px as usize) * c_in..][..c_in];
                    for (ci, &v) in src.iter().enumerate() {
                        let krow = &kernel[(tap * c_in + ci) * c_out..][..c_out];
                        for (o, &k) in orow.iter_mut().zip(krow) {
                            *o += v * k;
                        }
                    }
                }
            }
        }
        out
    }

    /// The pixel tiles (4 pixels × 4 channels, and their 1-wide tails
    /// in both) are bitwise the per-pixel oracle on every grid shape the
    /// tiling distinguishes: narrower than one tile, one row, tails in
    /// both directions. Zero inputs under a `−0.0` bias make a tap that
    /// a pixel should skip show in the sign of zero.
    #[test]
    fn pixel_tiles_are_bitwise_the_per_pixel_oracle() {
        let mut rng = DetRng::new(0xC0F);
        for (h, w) in [(1, 1), (1, 5), (3, 4), (12, 12), (13, 7)] {
            for c_out in [1usize, 3, 4, 8] {
                for c_in in [1usize, 4] {
                    let kernel = Tensor::randn([9 * c_in, c_out], &mut rng);
                    let cases = [
                        (
                            Tensor::randn([h * w, c_in], &mut rng),
                            Tensor::randn([c_out], &mut rng),
                        ),
                        (Tensor::zeros([h * w, c_in]), Tensor::full([c_out], -0.0)),
                    ];
                    for (x, bias) in cases {
                        let want = conv_per_pixel(x.data(), h, w, kernel.data(), bias.data());
                        let got = conv3x3(&x, h, w, &kernel, &bias).unwrap();
                        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(got.data()),
                            bits(&want),
                            "{h}x{w}, {c_in} -> {c_out} channels"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shape_validation() {
        let x = Tensor::zeros([6, 2]);
        let k = Tensor::zeros([18, 2]);
        let b = Tensor::zeros([2]);
        assert!(conv3x3(&x, 2, 2, &k, &b).is_err(), "h*w mismatch");
        assert!(conv3x3(&x, 2, 3, &Tensor::zeros([17, 2]), &b).is_err());
        assert!(conv3x3(&x, 2, 3, &k, &Tensor::zeros([3])).is_err());
        assert!(conv3x3(&x, 2, 3, &k, &b).is_ok());
    }
}
