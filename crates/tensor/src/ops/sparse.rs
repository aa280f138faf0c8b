//! The mask plan, and the one plan-taking kernel measured against it.
//!
//! FlashPS's central claim is that editing cost tracks the *mask
//! ratio*. A [`SparsePlan`] is the mask-derived token-index plan an
//! edit session builds once and every denoising step reuses: the served
//! mask-aware path (`TransformerBlock::forward_masked{,_full_kv}` in
//! `fps-diffusion`) gathers the plan's active rows once per block and
//! keeps them gathered through AdaLN → QKV → attention → out-proj →
//! cross-attention → FFN — the "activations stay in gathered form" half
//! of SIGE ("Efficient Spatially Sparse Inference for Conditional GANs
//! and Diffusion Models") — on the ordinary dense row kernels.
//!
//! [`matmul`] is the per-op form of the same idea (gather → dense row
//! kernel → scatter, inactive rows filled from a template). No served
//! edit calls it; it is kept because it is what the wall-clock
//! measurements of "cost tracks the mask" time: `bench_kernels`' sparse
//! gate (≥ 3× dense at a 10% mask) and the benchmark's
//! `tensor.gemm_sparse_us`. Why there is no per-op family beside it (and
//! no sparse conv for the UNet scaffold) is measured in DESIGN.md, "One
//! mask-aware path".
//!
//! Identity contract, property-tested in `tests/sparse_identity.rs`:
//!
//! - **Computed rows** (the plan's active set) are bit-for-bit identical
//!   to what the dense kernel produces, because they run the identical
//!   scalar row code on gathered data.
//! - **Template rows** (everything else) are bit-for-bit the template
//!   tensor's rows (or zero when no template is supplied).
//!
//! Degenerate plans are first-class: an empty mask computes nothing
//! and returns the template (or zeros), a full mask computes every row
//! — neither panics.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::{ktrace, scratch, Result};

use super::matmul::matmul_rows;

/// Name [`matmul`] reports in errors and kernel spans.
const OP: &str = "sparse_matmul";

/// A mask-derived token-index plan: which rows of a `[total_rows, ·]`
/// token matrix an edit actually touches.
///
/// Built once per edit ([`SparsePlan::from_mask`]) and reused across
/// every denoising step; the scratch buffers [`matmul`] gathers into
/// come from the thread-local [`scratch`] pool, so steady-state sparse
/// steps allocate nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePlan {
    total_rows: usize,
    /// Active (masked) row indices, sorted and deduplicated.
    active: Vec<usize>,
}

impl SparsePlan {
    /// Builds a token-wise plan from a mask index list.
    ///
    /// # Errors
    ///
    /// Returns an error when an index is out of bounds.
    pub fn from_mask(total_rows: usize, masked: &[usize]) -> Result<Self> {
        let active = checked_sorted(total_rows, masked)?;
        Ok(Self { total_rows, active })
    }

    /// Rows of the token matrix this plan addresses.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Active (masked) row indices, sorted ascending.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Fraction of rows that are active.
    pub fn mask_ratio(&self) -> f32 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.active.len() as f32 / self.total_rows as f32
        }
    }

    /// True when no row is active (the degenerate empty plan).
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// True when every row is active (the degenerate full plan).
    pub fn is_full(&self) -> bool {
        self.active.len() == self.total_rows
    }
}

fn checked_sorted(total: usize, masked: &[usize]) -> Result<Vec<usize>> {
    if let Some(&bad) = masked.iter().find(|&&i| i >= total) {
        return Err(TensorError::IndexOutOfBounds {
            op: "sparse_plan",
            index: bad,
            bound: total,
        });
    }
    let mut v = masked.to_vec();
    v.sort_unstable();
    v.dedup();
    Ok(v)
}

/// Fills `out` (`total_rows × cols`, zero-filled from scratch) with the
/// template's rows. With no template, rows stay zero.
fn seed_from_template(
    out: &mut [f32],
    rows: usize,
    cols: usize,
    template: Option<&Tensor>,
) -> Result<()> {
    let Some(t) = template else {
        return Ok(());
    };
    if t.rank() != 2 || t.dims() != [rows, cols] {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: t.dims().to_vec(),
            rhs: vec![rows, cols],
        });
    }
    out.copy_from_slice(t.data());
    Ok(())
}

/// Gathers the plan's listed rows of `xd` (`cols` wide) into a scratch
/// buffer.
fn gather_into_scratch(xd: &[f32], idx: &[usize], cols: usize) -> Vec<f32> {
    let mut g = scratch::take(idx.len() * cols);
    for (r, &i) in idx.iter().enumerate() {
        g[r * cols..(r + 1) * cols].copy_from_slice(&xd[i * cols..(i + 1) * cols]);
    }
    g
}

/// Scatters `src` rows (`cols` wide) back to the listed rows of `out`.
fn scatter_from_scratch(out: &mut [f32], src: &[f32], idx: &[usize], cols: usize) {
    for (r, &i) in idx.iter().enumerate() {
        out[i * cols..(i + 1) * cols].copy_from_slice(&src[r * cols..(r + 1) * cols]);
    }
}

fn check_a(plan: &SparsePlan, a: &Tensor) -> Result<(usize, usize)> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: OP,
            expected: 2,
            actual: a.rank(),
        });
    }
    if a.dims()[0] != plan.total_rows {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: a.dims().to_vec(),
            rhs: vec![plan.total_rows],
        });
    }
    Ok((a.dims()[0], a.dims()[1]))
}

/// Sparse `A · B`: computes the plan's active rows of the product,
/// fills the rest from `template` (or zero).
///
/// # Errors
///
/// Returns an error on rank/shape mismatches, including a template
/// whose shape differs from the product's.
pub fn matmul(
    plan: &SparsePlan,
    a: &Tensor,
    b: &Tensor,
    template: Option<&Tensor>,
) -> Result<Tensor> {
    let (m, k) = check_a(plan, a)?;
    if b.rank() != 2 || b.dims()[0] != k {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let n = b.dims()[1];
    let _span = ktrace::span_masked(OP, plan.mask_ratio());
    let mut out = scratch::take(m * n);
    seed_from_template(&mut out, m, n, template)?;
    if !plan.active.is_empty() && n > 0 {
        let ga = gather_into_scratch(a.data(), &plan.active, k);
        let mut gout = scratch::take(plan.active.len() * n);
        matmul_rows(&mut gout, 0, &ga, b.data(), k, n);
        scatter_from_scratch(&mut out, &gout, &plan.active, n);
        scratch::give(gout);
        scratch::give(ga);
    }
    Tensor::from_vec(out, [m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn plan_sorts_dedups_and_validates() {
        let p = SparsePlan::from_mask(8, &[5, 1, 5, 3]).unwrap();
        assert_eq!(p.active(), &[1, 3, 5]);
        assert_eq!(p.total_rows(), 8);
        assert!((p.mask_ratio() - 0.375).abs() < 1e-6);
        assert!(!p.is_empty() && !p.is_full());
        assert!(SparsePlan::from_mask(8, &[8]).is_err());
        assert!(SparsePlan::from_mask(0, &[]).unwrap().is_empty());
    }

    #[test]
    fn empty_and_full_plans_do_not_panic() {
        let mut rng = DetRng::new(1);
        let a = Tensor::randn([6, 4], &mut rng);
        let b = Tensor::randn([4, 5], &mut rng);
        let t = Tensor::randn([6, 5], &mut rng);

        let empty = SparsePlan::from_mask(6, &[]).unwrap();
        let out = matmul(&empty, &a, &b, Some(&t)).unwrap();
        assert_eq!(out, t, "empty plan returns the template verbatim");
        let out = matmul(&empty, &a, &b, None).unwrap();
        assert_eq!(out, Tensor::zeros([6, 5]));

        let full = SparsePlan::from_mask(6, &(0..6).collect::<Vec<_>>()).unwrap();
        assert!(full.is_full());
        let dense = crate::ops::matmul(&a, &b).unwrap();
        let out = matmul(&full, &a, &b, None).unwrap();
        assert_eq!(out, dense, "full plan equals the dense kernel");
    }

    #[test]
    fn template_shape_is_validated() {
        let a = Tensor::zeros([4, 3]);
        let b = Tensor::zeros([3, 2]);
        let bad = Tensor::zeros([4, 3]);
        let plan = SparsePlan::from_mask(4, &[0]).unwrap();
        assert!(matmul(&plan, &a, &b, Some(&bad)).is_err());
    }
}
