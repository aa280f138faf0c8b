//! Normalization layers: LayerNorm, GroupNorm, and AdaLN-style modulation.
//!
//! All of these are token-wise operations — each row (token) is
//! normalized independently — which is exactly the property §3.1 of the
//! FlashPS paper relies on to compute masked and unmasked tokens
//! separately.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::{ktrace, pool, scratch, Result};

/// Numerical floor added to variances before taking square roots.
pub const NORM_EPS: f32 = 1e-5;

/// Applies LayerNorm over the last axis of a rank-2 tensor.
///
/// `gamma` and `beta` are per-feature scale and shift of shape `[h]`.
///
/// # Errors
///
/// Returns an error when `x` is not rank-2 or the parameter vectors do
/// not match the feature dimension.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Result<Tensor> {
    let (rows, cols) = check_norm_args("layer_norm", x, gamma, beta)?;
    let _span = ktrace::span("layer_norm");
    let mut out = scratch::take(rows * cols);
    let xd = x.data();
    let (gd, bd) = (gamma.data(), beta.data());
    pool::for_each_row_chunk(
        &mut out,
        rows,
        cols,
        6 * cols,
        pool::KernelClass::RowWise,
        |r0, chunk| {
            for (ri, orow) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = r0 + ri;
                layer_norm_row(&xd[r * cols..(r + 1) * cols], orow, gd, bd);
            }
        },
    );
    Tensor::from_vec(out, [rows, cols])
}

/// Scalar LayerNorm of one row. [`layer_norm`] and the fused
/// AdaLN+modulate kernel both call this, so their normalized
/// activations agree bitwise.
#[inline]
pub(crate) fn layer_norm_row(row: &[f32], orow: &mut [f32], gamma: &[f32], beta: &[f32]) {
    let cols = row.len();
    let mean = row.iter().sum::<f32>() / cols as f32;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
    let inv = 1.0 / (var + NORM_EPS).sqrt();
    for (c, o) in orow.iter_mut().enumerate() {
        *o = (row[c] - mean) * inv * gamma[c] + beta[c];
    }
}

/// AdaLN-style modulation: `x * (1 + scale) + shift`, broadcast over
/// rows.
///
/// DiT-style diffusion transformers condition on the timestep/prompt by
/// modulating normalized activations with per-feature `scale` and
/// `shift` vectors derived from the conditioning embedding.
///
/// # Errors
///
/// Returns an error when `x` is not rank-2 or the modulation vectors do
/// not match the feature dimension.
pub fn modulate(x: &Tensor, scale: &Tensor, shift: &Tensor) -> Result<Tensor> {
    let (rows, cols) = check_norm_args("modulate", x, scale, shift)?;
    let mut out = scratch::take(rows * cols);
    out.copy_from_slice(x.data());
    for orow in out.chunks_exact_mut(cols.max(1)) {
        modulate_row_inplace(orow, scale.data(), shift.data());
    }
    Tensor::from_vec(out, [rows, cols])
}

/// Scalar AdaLN modulation of one row, in place: `o ← o·(1+scale) +
/// shift`. Shared by [`modulate`] and the fused AdaLN kernel.
#[inline]
pub(crate) fn modulate_row_inplace(orow: &mut [f32], scale: &[f32], shift: &[f32]) {
    for (c, o) in orow.iter_mut().enumerate() {
        *o = *o * (1.0 + scale[c]) + shift[c];
    }
}

/// Applies GroupNorm over the last axis of a rank-2 tensor: each row's
/// features are split into `groups` contiguous groups normalized
/// independently (UNet convolutional blocks use GroupNorm; like the
/// other norms it is token-wise, so mask-aware computation applies).
///
/// # Errors
///
/// Returns an error when `x` is not rank-2, `groups` does not divide
/// the feature dimension, or parameter vectors mismatch.
pub fn group_norm(x: &Tensor, groups: usize, gamma: &Tensor, beta: &Tensor) -> Result<Tensor> {
    let (rows, cols) = check_norm_args("group_norm", x, gamma, beta)?;
    if groups == 0 || cols % groups != 0 {
        return Err(TensorError::ShapeMismatch {
            op: "group_norm",
            lhs: vec![rows, cols],
            rhs: vec![groups],
        });
    }
    let gsize = cols / groups;
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &x.data()[r * cols..(r + 1) * cols];
        let orow = &mut out[r * cols..(r + 1) * cols];
        for g in 0..groups {
            let span = g * gsize..(g + 1) * gsize;
            let mean = row[span.clone()].iter().sum::<f32>() / gsize as f32;
            let var = row[span.clone()]
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / gsize as f32;
            let inv = 1.0 / (var + NORM_EPS).sqrt();
            for c in span {
                orow[c] = (row[c] - mean) * inv * gamma.data()[c] + beta.data()[c];
            }
        }
    }
    Tensor::from_vec(out, [rows, cols])
}

pub(crate) fn check_norm_args(
    op: &'static str,
    x: &Tensor,
    a: &Tensor,
    b: &Tensor,
) -> Result<(usize, usize)> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: x.rank(),
        });
    }
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    if a.numel() != cols || b.numel() != cols {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: x.dims().to_vec(),
            rhs: a.dims().to_vec(),
        });
    }
    Ok((rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use proptest::prelude::*;

    fn unit_params(h: usize) -> (Tensor, Tensor) {
        (Tensor::full([h], 1.0), Tensor::zeros([h]))
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut rng = DetRng::new(1);
        let x = Tensor::randn([4, 64], &mut rng).scale(3.0);
        let (g, b) = unit_params(64);
        let y = layer_norm(&x, &g, &b).unwrap();
        for r in 0..4 {
            let row = y.row(r).unwrap();
            let mean = row.iter().sum::<f32>() / 64.0;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layer_norm_applies_gamma_beta() {
        let x = Tensor::from_vec(vec![1.0, -1.0], [1, 2]).unwrap();
        let g = Tensor::full([2], 2.0);
        let b = Tensor::full([2], 5.0);
        let y = layer_norm(&x, &g, &b).unwrap();
        // Normalized row is ±1 (up to eps), so output is 5 ± 2.
        assert!((y.data()[0] - 7.0).abs() < 1e-2);
        assert!((y.data()[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn modulate_identity_at_zero() {
        let mut rng = DetRng::new(3);
        let x = Tensor::randn([2, 8], &mut rng);
        let y = modulate(&x, &Tensor::zeros([8]), &Tensor::zeros([8])).unwrap();
        assert!(y.max_abs_diff(&x).unwrap() < 1e-7);
    }

    #[test]
    fn modulate_scale_and_shift() {
        let x = Tensor::full([1, 2], 2.0);
        let scale = Tensor::from_vec(vec![0.5, -1.0], [2]).unwrap();
        let shift = Tensor::from_vec(vec![1.0, 3.0], [2]).unwrap();
        let y = modulate(&x, &scale, &shift).unwrap();
        assert_eq!(y.data(), &[4.0, 3.0]);
    }

    #[test]
    fn group_norm_normalizes_per_group() {
        let mut rng = DetRng::new(5);
        let x = Tensor::randn([3, 16], &mut rng).scale(4.0);
        let (g, b) = unit_params(16);
        let y = group_norm(&x, 4, &g, &b).unwrap();
        for r in 0..3 {
            let row = y.row(r).unwrap();
            for grp in 0..4 {
                let span = &row[grp * 4..(grp + 1) * 4];
                let mean = span.iter().sum::<f32>() / 4.0;
                let var = span.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
                assert!(mean.abs() < 1e-4, "group {grp} mean {mean}");
                assert!((var - 1.0).abs() < 0.05, "group {grp} var {var}");
            }
        }
        // One group == LayerNorm.
        let ln = layer_norm(&x, &g, &b).unwrap();
        let gn1 = group_norm(&x, 1, &g, &b).unwrap();
        assert!(ln.max_abs_diff(&gn1).unwrap() < 1e-5);
    }

    #[test]
    fn group_norm_validates_groups() {
        let x = Tensor::zeros([2, 6]);
        let (g, b) = unit_params(6);
        assert!(group_norm(&x, 4, &g, &b).is_err(), "4 does not divide 6");
        assert!(group_norm(&x, 0, &g, &b).is_err());
        assert!(group_norm(&x, 3, &g, &b).is_ok());
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Tensor::zeros([2, 4]);
        let (g, b) = unit_params(3);
        assert!(layer_norm(&x, &g, &b).is_err());
        assert!(modulate(&x, &g, &b).is_err());
        let bad = Tensor::zeros([2, 4, 1]);
        let (g4, b4) = unit_params(4);
        assert!(layer_norm(&bad, &g4, &b4).is_err());
    }

    #[test]
    fn norms_are_token_wise() {
        // Normalizing two tokens together or separately gives identical
        // results — the property mask-aware computation depends on.
        let mut rng = DetRng::new(4);
        let x = Tensor::randn([2, 16], &mut rng);
        let (g, b) = unit_params(16);
        let joint = layer_norm(&x, &g, &b).unwrap();
        for r in 0..2 {
            let single = Tensor::from_vec(x.row(r).unwrap().to_vec(), [1, 16]).unwrap();
            let alone = layer_norm(&single, &g, &b).unwrap();
            assert_eq!(alone.data(), joint.row(r).unwrap());
        }
    }

    proptest! {
        #[test]
        fn prop_layer_norm_shift_invariant(shift in -100.0f32..100.0) {
            let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]).unwrap();
            let xs = x.map(|v| v + shift);
            let (g, b) = unit_params(4);
            let y = layer_norm(&x, &g, &b).unwrap();
            let ys = layer_norm(&xs, &g, &b).unwrap();
            prop_assert!(y.max_abs_diff(&ys).unwrap() < 1e-3);
        }
    }
}
