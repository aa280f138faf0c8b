//! Normalization layers: LayerNorm, GroupNorm, and AdaLN-style modulation.
//!
//! All of these are token-wise operations — each row (token) is
//! normalized independently — which is exactly the property §3.1 of the
//! FlashPS paper relies on to compute masked and unmasked tokens
//! separately.
//!
//! A row's mean and variance are each one chain of dependent adds in
//! column order, so LayerNorm one row at a time waits on add latency.
//! [`layer_norm`] and the fused `ada_layer_norm` therefore walk rows in
//! groups of 8 (then 4, then 1) whose sums advance one column at a time
//! together; each row keeps its own column order and its sums start
//! from the value `Iterator::sum` starts from, so every row's bits are
//! the row-at-a-time kernel's (differentially tested, ±0/±∞/NaN rows
//! included).

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
    // The RowWise class calibrates on this kernel at 64 × 64, six units
    // per element; at 12–256 rows × 48–64 columns it measures 0.76–0.91
    // ns per element, 6.2–7.4 units.
    pool::for_each_row_chunk(
        &mut out,
        rows,
        cols,
        6 * cols,
        pool::KernelClass::RowWise,
        |r0, chunk| layer_norm_rows(&xd[r0 * cols..][..chunk.len()], chunk, gd, bd, None),
    );
    Tensor::from_vec(out, [rows, cols])
}

/// Rows LayerNorm advances together. A row's mean and variance are
/// each one dependent chain of adds, so a row alone waits on add
/// latency; eight rows' chains interleaved keep the adder busy.
const NORM_ROWS: usize = 8;

/// LayerNorm of the rows of `x` into `out` (both `gamma.len()` wide),
/// followed, when `modulate` holds AdaLN's `(scale, shift)`, by
/// [`modulate_row_inplace`] on each row. [`layer_norm`] and the fused
/// AdaLN kernel both call this, so their normalized activations agree
/// bitwise.
///
/// Rows go in groups of [`NORM_ROWS`], then 4, then 1 (see
/// [`norm_group`]); which rows share a group never changes a row's
/// bits.
pub(crate) fn layer_norm_rows(
    x: &[f32],
    out: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    modulate: Option<(&[f32], &[f32])>,
) {
    let cols = gamma.len();
    if cols == 0 {
        return;
    }
    let rows = out.len() / cols;
    let mut r = 0;
    while r + NORM_ROWS <= rows {
        norm_group::<NORM_ROWS>(&x[r * cols..], &mut out[r * cols..], gamma, beta, modulate);
        r += NORM_ROWS;
    }
    if r + 4 <= rows {
        norm_group::<4>(&x[r * cols..], &mut out[r * cols..], gamma, beta, modulate);
        r += 4;
    }
    while r < rows {
        norm_group::<1>(&x[r * cols..], &mut out[r * cols..], gamma, beta, modulate);
        r += 1;
    }
}

/// [`layer_norm_rows`] on the first `R` rows of `x` and `out`. Each
/// row's sum and sum of squared deviations run in its own column order
/// from the value `Iterator::sum` starts from, and the `R` rows' sums
/// advance one column at a time together: the bits of summing each row
/// alone, at `R` independent chains of latency.
#[inline(always)]
fn norm_group<const R: usize>(
    x: &[f32],
    out: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    modulate: Option<(&[f32], &[f32])>,
) {
    let cols = gamma.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &x[r * cols..][..cols]);
    let start = std::iter::empty::<f32>().sum::<f32>();
    let mut sum = [start; R];
    for c in 0..cols {
        for (s, row) in sum.iter_mut().zip(rows) {
            *s += row[c];
        }
    }
    let mean = sum.map(|s| s / cols as f32);
    let mut sq = [start; R];
    for c in 0..cols {
        for ((s, row), &m) in sq.iter_mut().zip(rows).zip(&mean) {
            *s += (row[c] - m) * (row[c] - m);
        }
    }
    for (r, (row, orow)) in rows.iter().zip(out.chunks_exact_mut(cols)).enumerate() {
        let (mean, var) = (mean[r], sq[r] / cols as f32);
        let inv = 1.0 / (var + NORM_EPS).sqrt();
        for (((o, &v), &g), &b) in orow.iter_mut().zip(*row).zip(gamma).zip(beta) {
            *o = (v - mean) * inv * g + b;
        }
        if let Some((scale, shift)) = modulate {
            modulate_row_inplace(orow, scale, shift);
        }
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

    /// The row-at-a-time LayerNorm the interleaved groups replaced,
    /// kept as their order-of-operations oracle.
    fn layer_norm_row(row: &[f32], orow: &mut [f32], gamma: &[f32], beta: &[f32]) {
        let cols = row.len();
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + NORM_EPS).sqrt();
        for (c, o) in orow.iter_mut().enumerate() {
            *o = (row[c] - mean) * inv * gamma[c] + beta[c];
        }
    }

    /// `rows × cols` of unit normals, with every third row (from row 1)
    /// replaced by one of the edge rows in turn: all `+0.0`, all `−0.0`
    /// (where the sums' starting value shows), `+∞`, `−∞`, a NaN, and
    /// values near `1e30` (whose squared deviations overflow).
    fn edge_rows(rows: usize, cols: usize, rng: &mut DetRng) -> Vec<f32> {
        let mut x = Tensor::randn([rows, cols], rng).data().to_vec();
        for (r, row) in x.chunks_exact_mut(cols).enumerate() {
            match (r % 3 == 1).then_some(r / 3 % 6) {
                Some(0) => row.fill(0.0),
                Some(1) => row.fill(-0.0),
                Some(2) => row[cols / 2] = f32::INFINITY,
                Some(3) => row[0] = f32::NEG_INFINITY,
                Some(4) => row[cols - 1] = f32::NAN,
                Some(_) => row.iter_mut().for_each(|v| *v = 1e30 * (1.0 + *v * 0.1)),
                None => {}
            }
        }
        x
    }

    /// LayerNorm in groups of 8, 4 and 1 rows, with and without the
    /// AdaLN modulation, is bitwise the row-at-a-time oracle.
    #[test]
    fn interleaved_rows_are_bitwise_the_row_at_a_time_oracle() {
        let mut rng = DetRng::new(0x10A7);
        for cols in [1usize, 3, 8, 48, 64] {
            let gamma = Tensor::randn([cols], &mut rng).data().to_vec();
            let beta = Tensor::randn([cols], &mut rng).data().to_vec();
            let scale = Tensor::randn([cols], &mut rng).data().to_vec();
            let shift = Tensor::randn([cols], &mut rng).data().to_vec();
            for rows in (1..=17).chain([144, 256]) {
                let x = edge_rows(rows, cols, &mut rng);
                let mut oracle = vec![0.0f32; rows * cols];
                for (row, orow) in x.chunks_exact(cols).zip(oracle.chunks_exact_mut(cols)) {
                    layer_norm_row(row, orow, &gamma, &beta);
                }
                let mut modulated = oracle.clone();
                for orow in modulated.chunks_exact_mut(cols) {
                    modulate_row_inplace(orow, &scale, &shift);
                }
                for (modulate, want) in [
                    (None, &oracle),
                    (Some((&scale[..], &shift[..])), &modulated),
                ] {
                    let mut out = vec![0.0f32; rows * cols];
                    layer_norm_rows(&x, &mut out, &gamma, &beta, modulate);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&out),
                        bits(want),
                        "[{rows}, {cols}] modulated={}",
                        modulate.is_some()
                    );
                }
            }
        }
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
