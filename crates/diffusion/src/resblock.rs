//! UNet convolutional residual blocks.
//!
//! SD-class UNets wrap their transformer blocks in a convolutional
//! scaffold (GroupNorm → SiLU → 3×3 conv residual blocks). The paper's
//! §2.1 footnote attributes ~82% of a UNet step to the transformers;
//! the scaffold is the remainder and — because convolution mixes
//! spatially — mask-aware computation leaves it untouched: the
//! scaffold always computes over the full grid, for every serving
//! strategy identically.
//!
//! `UNet`-arch toy models run one [`ResBlock`] on the latent grid
//! before the transformer stack; `Dit` models have none.

use fps_tensor::ops::{conv3x3, group_norm, silu};
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;

use crate::Result;

/// Residual gain applied to the conv branch (keeps the scaffold
/// contractive, like the transformer branches).
const CONV_GAIN: f32 = 0.25;

/// One GroupNorm → SiLU → conv3×3 residual block over a token grid.
#[derive(Debug, Clone)]
pub struct ResBlock {
    grid_h: usize,
    grid_w: usize,
    groups: usize,
    gn_g: Tensor,
    gn_b: Tensor,
    kernel: Tensor,
    bias: Tensor,
}

impl ResBlock {
    /// Builds a block for a `grid_h × grid_w` grid of `channels`-wide
    /// tokens with deterministic weights.
    pub fn new(grid_h: usize, grid_w: usize, channels: usize, rng: &mut DetRng) -> Self {
        // The largest group count ≤ 4 that divides the channel width
        // while keeping at least two channels per group (a group of
        // one normalizes to zero).
        let groups = (1..=channels.min(4))
            .rev()
            .find(|g| channels.is_multiple_of(*g) && channels / g >= 2)
            .unwrap_or(1);
        Self {
            grid_h,
            grid_w,
            groups,
            gn_g: Tensor::full([channels], 1.0),
            gn_b: Tensor::zeros([channels]),
            kernel: Tensor::xavier(9 * channels, channels, rng).scale(CONV_GAIN),
            bias: Tensor::zeros([channels]),
        }
    }

    /// `x + conv(silu(group_norm(x)))` over the full grid.
    ///
    /// # Errors
    ///
    /// Propagates shape errors for inputs not matching the grid.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let normed = group_norm(x, self.groups, &self.gn_g, &self.gn_b)?;
        let activated = silu(&normed);
        let conv = conv3x3(
            &activated,
            self.grid_h,
            self.grid_w,
            &self.kernel,
            &self.bias,
        )?;
        Ok(x.add(&conv)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> (ResBlock, Tensor) {
        let mut rng = DetRng::new(7);
        let b = ResBlock::new(4, 4, 4, &mut rng);
        let x = Tensor::randn([16, 4], &mut rng);
        (b, x)
    }

    #[test]
    fn forward_preserves_shape_and_is_deterministic() {
        let (b, x) = block();
        let y1 = b.forward(&x).unwrap();
        let y2 = b.forward(&x).unwrap();
        assert_eq!(y1.dims(), x.dims());
        assert_eq!(y1, y2);
        assert!(y1.max_abs_diff(&x).unwrap() > 1e-6, "block must transform");
    }

    #[test]
    fn residual_is_contractive() {
        let (b, x) = block();
        let y = b.forward(&x).unwrap();
        let branch = y.sub(&x).unwrap();
        assert!(
            branch.norm() < x.norm(),
            "conv branch should be smaller than the skip path"
        );
    }

    #[test]
    fn mixes_spatially() {
        // Changing one token changes a neighbour's output — the reason
        // the scaffold always computes in full.
        let (b, x) = block();
        let y0 = b.forward(&x).unwrap();
        let mut x2 = x.clone();
        x2.row_mut(5).unwrap()[0] += 1.0;
        let y1 = b.forward(&x2).unwrap();
        let d: f32 = y0
            .row(6)
            .unwrap()
            .iter()
            .zip(y1.row(6).unwrap())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-7, "neighbour must be affected");
    }

    #[test]
    fn group_choice_divides_channels() {
        let mut rng = DetRng::new(1);
        for channels in [1usize, 3, 4, 6, 8] {
            let b = ResBlock::new(2, 2, channels, &mut rng);
            let x = Tensor::randn([4, channels], &mut rng);
            assert!(b.forward(&x).is_ok(), "channels {channels}");
        }
    }

    #[test]
    fn rejects_wrong_grid() {
        let (b, _) = block();
        let bad = Tensor::zeros([15, 4]);
        assert!(b.forward(&bad).is_err());
    }
}
