//! Fused kernels for the transformer block's hot sequences.
//!
//! Each kernel here collapses a sequence of primitive ops into one
//! pass, eliminating intermediate tensors while reusing the *same
//! scalar row helpers* as the primitives — `layer_norm_rows`,
//! `softmax_row_inplace`, the matmul row kernels — or, for attention,
//! keeping every reduction in the primitives' order, so every fused
//! result is **bitwise identical** to the composed path. That identity
//! is asserted by the tests here and the proptests of
//! `tests/fused_identity.rs`.
//!
//! Fusions provided (the `TransformerBlock` hot path):
//!
//! - [`ada_layer_norm`] — LayerNorm + AdaLN modulate in one pass over
//!   groups of 8 rows whose sums advance together.
//! - [`mha_fused`] / [`mha_panels`] — tiled per-head `QKᵀ → softmax →
//!   ·V` over K/V in the kernel's [`AttnPanels`] layout: packed per call
//!   by `mha_fused`, packed once by whoever keeps them for `mha_panels`
//!   (which can lay fresh rows over a copy of cached panels); four score
//!   rows at a time instead of an `[N, L]` matrix per head, over 16 keys
//!   per score tile (then 8, 4 and 1).
//! - [`matmul_gelu`] — FFN up-projection with GeLU applied to each
//!   output row as it is produced.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::{ktrace, pool, scratch, Result};

use super::activation::gelu_scalar;
use super::matmul::matmul_rows_body;
use super::norm::{check_norm_args, layer_norm_rows};
use super::softmax::softmax_row_inplace;

/// Fused `modulate(layer_norm(x, gamma, beta), scale, shift)`.
///
/// # Errors
///
/// Returns an error when `x` is not rank-2 or any parameter vector
/// does not match the feature dimension.
pub fn ada_layer_norm(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    scale: &Tensor,
    shift: &Tensor,
) -> Result<Tensor> {
    let (rows, cols) = check_norm_args("ada_layer_norm", x, gamma, beta)?;
    check_norm_args("ada_layer_norm", x, scale, shift)?;
    let _span = ktrace::span("ada_layer_norm");
    let mut out = scratch::take(rows * cols);
    layer_norm_rows(
        x.data(),
        &mut out,
        gamma.data(),
        beta.data(),
        Some((scale.data(), shift.data())),
    );
    Tensor::from_vec(out, [rows, cols])
}

/// Fused `gelu(matmul(a, b))`.
///
/// # Errors
///
/// Returns an error if either operand is not rank-2 or the inner
/// dimensions disagree.
pub fn matmul_gelu(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = rank2_dims("matmul_gelu", a)?;
    let (k2, n) = rank2_dims("matmul_gelu", b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_gelu",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let _span = ktrace::span("matmul_gelu");
    let mut out = scratch::take(m * n);
    let (ad, bd) = (a.data(), b.data());
    pool::with_wide_isa(
        #[inline(always)]
        || {
            matmul_rows_body(&mut out, ad, bd, k, n);
            gelu_rows_body(&mut out);
        },
    );
    Tensor::from_vec(out, [m, n])
}

/// [`matmul_gelu`]'s epilogue: [`gelu_scalar`] over a slice in place,
/// one body for both instruction-set builds.
#[inline(always)]
fn gelu_rows_body(xs: &mut [f32]) {
    for o in xs.iter_mut() {
        *o = gelu_scalar(*o);
    }
}

/// Query rows the attention kernel advances together: their score
/// tiles share each packed `K` load and their `P·V` accumulators stay
/// in registers, so each packed `V` row is read once per block rather
/// than once per query.
const QB: usize = 4;
/// Keys per score tile (`QB × KB` accumulators are eight of the AVX2
/// build's sixteen 8-lane registers).
const KB: usize = 16;

/// The attention kernel's key/value operands in the layout its stages
/// read: `Kᵀ` as `[H, L]` — head `g`'s `K_gᵀ` is its rows
/// `g·dh..(g+1)·dh` — and each head's `V_g` as a contiguous `[L, dh]`
/// panel, `[heads, L, dh]` in all.
///
/// A pack is a copy, so attention over panels is bitwise attention over
/// the `[L, H]` keys and values they were packed from. Keys and values
/// that outlive one call are therefore kept packed: a session's
/// cross-attention K/V and a template cache's K/V are packed once and
/// read by [`mha_panels`], with no transpose per call.
#[derive(Debug, Clone, PartialEq)]
pub struct AttnPanels {
    kt: Tensor,
    vp: Tensor,
}

impl AttnPanels {
    /// Packs `[L, H]` keys and values for `heads` attention heads into
    /// freshly allocated storage, never a [`scratch`] buffer: a pooled
    /// buffer kept by a template cache or a session leaves the pool to
    /// refill around it, and panels that die young are dropped, since
    /// fresh buffers handed to the pool grow it (both measured in peak
    /// RSS; DESIGN.md, "Tiled attention").
    ///
    /// # Errors
    ///
    /// Returns an error when `k`/`v` are not rank-2 tensors of one shape
    /// or `heads` does not divide their width.
    pub fn pack(k: &Tensor, v: &Tensor, heads: usize) -> Result<Self> {
        Self::pack_with(k, v, heads, |len| vec![0.0; len])
    }

    /// [`AttnPanels::pack`] into storage from `alloc`, which returns
    /// `len` zeros.
    fn pack_with(
        k: &Tensor,
        v: &Tensor,
        heads: usize,
        alloc: fn(usize) -> Vec<f32>,
    ) -> Result<Self> {
        let (l, h) = rank2_dims("attn_panels", k)?;
        if rank2_dims("attn_panels", v)? != (l, h) || heads == 0 || h % heads != 0 {
            return Err(TensorError::ShapeMismatch {
                op: "attn_panels",
                lhs: vec![l, h, heads],
                rhs: v.dims().to_vec(),
            });
        }
        let dh = h / heads;
        let mut kt = alloc(h * l);
        let mut vp = alloc(l * h);
        // Transpose K eight rows at a time so every store run is
        // contiguous in `kt`.
        const TB: usize = 8;
        let kd = k.data();
        let blocked = l - l % TB;
        for j in (0..blocked).step_by(TB) {
            for c in 0..h {
                for (t, o) in kt[c * l + j..][..TB].iter_mut().enumerate() {
                    *o = kd[(j + t) * h + c];
                }
            }
        }
        for (j, krow) in kd.chunks_exact(h).enumerate().skip(blocked) {
            put_k(&mut kt, l, j, krow);
        }
        for (j, vrow) in v.data().chunks_exact(h).enumerate() {
            put_v(&mut vp, l, dh, j, vrow);
        }
        Ok(Self {
            kt: Tensor::from_vec(kt, [h, l])?,
            vp: Tensor::from_vec(vp, [heads, l, dh])?,
        })
    }

    /// Reassembles panels from the two tensors [`AttnPanels::keys`] and
    /// [`AttnPanels::values`] return (how a cache codec reads them
    /// back).
    ///
    /// # Errors
    ///
    /// Returns an error unless `kt` is `[H, L]` and `vp` is
    /// `[heads, L, H / heads]` with `heads > 0`.
    pub fn from_parts(kt: Tensor, vp: Tensor) -> Result<Self> {
        let (h, l) = rank2_dims("attn_panels", &kt)?;
        let ok = matches!(vp.dims(), &[heads, lv, dh] if heads > 0 && lv == l && heads * dh == h);
        if !ok {
            return Err(TensorError::ShapeMismatch {
                op: "attn_panels",
                lhs: kt.dims().to_vec(),
                rhs: vp.dims().to_vec(),
            });
        }
        Ok(Self { kt, vp })
    }

    /// `Kᵀ`, `[H, L]`.
    pub fn keys(&self) -> &Tensor {
        &self.kt
    }

    /// The per-head value panels, `[heads, L, dh]`.
    pub fn values(&self) -> &Tensor {
        &self.vp
    }

    /// Hands the storage of panels packed from scratch back to the pool.
    fn recycle(self) {
        self.kt.recycle();
        self.vp.recycle();
    }

    fn view(&self) -> PanelView<'_> {
        PanelView {
            kt: self.kt.data(),
            vp: self.vp.data(),
            l: self.kt.dims()[1],
            h: self.kt.dims()[0],
            dh: self.vp.dims()[2],
        }
    }

    /// A copy of these panels with key/value row `rows[j]` replaced by
    /// row `j` of `k`/`v` (`[rows.len(), H]`; on duplicates the last
    /// wins): a copy of each panel into scratch, with no zero fill, then
    /// the fresh rows written over it.
    fn overlaid(&self, k: &Tensor, v: &Tensor, rows: &[usize]) -> Result<Self> {
        let PanelView { l, h, dh, .. } = self.view();
        let mut kt = scratch::take_copy(self.kt.data());
        let mut vp = scratch::take_copy(self.vp.data());
        let fresh = k.data().chunks_exact(h).zip(v.data().chunks_exact(h));
        for (&j, (krow, vrow)) in rows.iter().zip(fresh) {
            put_k(&mut kt, l, j, krow);
            put_v(&mut vp, l, dh, j, vrow);
        }
        Ok(Self {
            kt: Tensor::from_vec(kt, self.kt.dims())?,
            vp: Tensor::from_vec(vp, self.vp.dims())?,
        })
    }
}

/// Fused multi-head scaled-dot-product attention, pre-output-
/// projection: packs `k`/`v` into [`AttnPanels`], then runs
/// [`mha_panels`]' tiled kernel over them.
///
/// Per head the score rows `q·Kᵀ·scale` of four queries are `dh` axpys
/// over contiguous keys, softmaxed in place, and their context
/// `probs·V` accumulates in registers — never materializing an `[N, L]`
/// score tensor. Matches the composed `matmul_bt → scale → softmax_rows
/// → matmul` path bitwise: every score is still `((0 + q₀k₀) + q₁k₁) +
/// …` in ascending `d`, every context element `((0 + p₀v₀) + p₁v₁) + …`
/// in ascending key order, and no `mul_add` is used; tiling only changes
/// which independent sums advance together.
///
/// # Errors
///
/// Returns an error when shapes are inconsistent, `heads` does not
/// divide the hidden dimension, or `k`/`v` have no rows (the composed
/// path rejects a zero-width softmax the same way).
pub fn mha_fused(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> Result<Tensor> {
    let (n, h) = rank2_dims("mha_fused", q)?;
    let (l, hk) = rank2_dims("mha_fused", k)?;
    let (lv, hv) = rank2_dims("mha_fused", v)?;
    if hk != h || hv != h || lv != l || heads == 0 || h % heads != 0 {
        return Err(TensorError::ShapeMismatch {
            op: "mha_fused",
            lhs: vec![n, h, heads],
            rhs: vec![l, hk, hv, lv],
        });
    }
    if l == 0 {
        return Err(TensorError::Empty { op: "mha_fused" });
    }
    let _span = ktrace::span("mha_fused");
    if n == 0 {
        return Tensor::from_vec(Vec::new(), [0, h]);
    }
    let panels = AttnPanels::pack_with(k, v, heads, scratch::take)?;
    let out = attend(q, panels.view(), scale);
    panels.recycle();
    out
}

/// [`mha_fused`] over keys and values already packed into `panels`,
/// optionally with fresh rows laid over them: `fresh = (k, v, rows)`
/// replaces key/value row `rows[j]` by row `j` of `k`/`v`
/// (`[rows.len(), H]`; on duplicate rows the last wins). The result is
/// bitwise `mha_fused(q, k', v', ..)` for the `[L, H]` keys and values
/// `k'`/`v'` the panels were packed from, with the fresh rows scattered
/// in. Without fresh rows nothing is copied; with them, each panel is
/// copied once and the fresh rows overwrite it — never a transpose of
/// all `L` keys. Reports the `mha_fused` kernel span.
///
/// # Errors
///
/// Returns an error when `q` is not as wide as the panels, the fresh
/// tensors are not `[rows.len(), H]`, a row index is out of bounds, or
/// the panels hold no keys.
pub fn mha_panels(
    q: &Tensor,
    panels: &AttnPanels,
    fresh: Option<(&Tensor, &Tensor, &[usize])>,
    scale: f32,
) -> Result<Tensor> {
    let (n, h) = rank2_dims("mha_fused", q)?;
    let PanelView { l, h: hp, .. } = panels.view();
    if hp != h {
        return Err(TensorError::ShapeMismatch {
            op: "mha_fused",
            lhs: vec![n, h],
            rhs: vec![hp, l],
        });
    }
    if let Some((k, v, rows)) = fresh {
        for t in [k, v] {
            if rank2_dims("mha_fused", t)? != (rows.len(), h) {
                return Err(TensorError::ShapeMismatch {
                    op: "mha_fused",
                    lhs: vec![rows.len(), h],
                    rhs: t.dims().to_vec(),
                });
            }
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= l) {
            return Err(TensorError::IndexOutOfBounds {
                op: "mha_fused",
                index: bad,
                bound: l,
            });
        }
    }
    if l == 0 {
        return Err(TensorError::Empty { op: "mha_fused" });
    }
    let _span = ktrace::span("mha_fused");
    match fresh {
        _ if n == 0 => Tensor::from_vec(Vec::new(), [0, h]),
        None => attend(q, panels.view(), scale),
        Some((k, v, rows)) => {
            let split = panels.overlaid(k, v, rows)?;
            let out = attend(q, split.view(), scale);
            split.recycle();
            out
        }
    }
}

/// Attention of the rows of `q` (validated against `p`) over `p`.
fn attend(q: &Tensor, p: PanelView<'_>, scale: f32) -> Result<Tensor> {
    let (n, h, l) = (q.dims()[0], p.h, p.l);
    let mut out = scratch::take(n * h);
    if h == 0 {
        // Panels of zero-width keys: empty rows, and no block width.
        return Tensor::from_vec(out, [n, h]);
    }
    let mut probs = scratch::take(QB * l);
    for (oblock, qblock) in out.chunks_mut(QB * h).zip(q.data().chunks(QB * h)) {
        if oblock.len() == QB * h {
            p.attend::<QB>(oblock, qblock, &mut probs, scale);
        } else {
            for (orow, qrow) in oblock.chunks_exact_mut(h).zip(qblock.chunks_exact(h)) {
                p.attend::<1>(orow, qrow, &mut probs, scale);
            }
        }
    }
    scratch::give(probs);
    Tensor::from_vec(out, [n, h])
}

/// [`AttnPanels`] as the slices and sizes the kernel's loops read.
#[derive(Clone, Copy)]
struct PanelView<'a> {
    kt: &'a [f32],
    vp: &'a [f32],
    l: usize,
    h: usize,
    dh: usize,
}

impl PanelView<'_> {
    /// Attention of `R` query rows (`q`, stride `h`) over every head,
    /// written to `out` (`R` rows of stride `h`). `probs` is `QB · l`
    /// scratch. Each of the three stages runs its AVX2 build where the
    /// host has one.
    fn attend<const R: usize>(&self, out: &mut [f32], q: &[f32], probs: &mut [f32], scale: f32) {
        let (l, h, dh) = (self.l, self.h, self.dh);
        let probs = &mut probs[..R * l];
        for off in (0..h).step_by(dh) {
            let kt = &self.kt[off * l..(off + dh) * l];
            let vp = &self.vp[off * l..(off + dh) * l];
            out_of_line(
                #[inline(always)]
                || score_rows::<R>(probs, &q[off..], h, kt, l, scale),
            );
            pool::with_wide_isa(
                #[inline(always)]
                || {
                    for prow in probs.chunks_exact_mut(l) {
                        softmax_row_inplace(prow);
                    }
                },
            );
            out_of_line(
                #[inline(always)]
                || context_rows::<R>(&mut out[off..], h, probs, l, vp, dh),
            );
        }
    }
}

/// Runs one matmul-like attention stage ([`score_rows`] or
/// [`context_rows`]) through [`pool::with_wide_isa`], kept out of line
/// in both builds: inlined into `attend` the two stages and the softmax
/// share one register allocation and the tile loops spill their row
/// pointers (measured ≈ 10% slower in the baseline build).
#[inline(never)]
fn out_of_line(stage: impl FnOnce()) {
    pool::with_wide_isa(stage);
}

/// Writes key row `j` into the transposed panel.
fn put_k(kt: &mut [f32], l: usize, j: usize, krow: &[f32]) {
    for (c, &kv) in krow.iter().enumerate() {
        kt[c * l + j] = kv;
    }
}

/// Writes value row `j` into each head's `[L][dh]` panel.
fn put_v(vp: &mut [f32], l: usize, dh: usize, j: usize, vrow: &[f32]) {
    for (g, vhead) in vrow.chunks_exact(dh).enumerate() {
        vp[(g * l + j) * dh..][..dh].copy_from_slice(vhead);
    }
}

/// Scaled score rows `out[r][j] = (Σ_d q[r][d]·kt[d][j]) · scale` of `R`
/// queries, in key tiles of [`KB`], then 8, 4 and 1. One body for both
/// instruction-set builds; see [`out_of_line`].
#[inline(always)]
fn score_rows<const R: usize>(
    out: &mut [f32],
    q: &[f32],
    h: usize,
    kt: &[f32],
    l: usize,
    scale: f32,
) {
    let mut j = 0;
    while j + KB <= l {
        score_tile::<R, KB>(out, q, h, kt, l, j, scale);
        j += KB;
    }
    if j + 8 <= l {
        score_tile::<R, 8>(out, q, h, kt, l, j, scale);
        j += 8;
    }
    if j + 4 <= l {
        score_tile::<R, 4>(out, q, h, kt, l, j, scale);
        j += 4;
    }
    while j < l {
        score_tile::<R, 1>(out, q, h, kt, l, j, scale);
        j += 1;
    }
}

/// Context `probs·V_g` of `R` queries for one head, in column tiles of
/// 8, then 4, then 1. One body for both instruction-set builds; see
/// [`out_of_line`].
#[inline(always)]
fn context_rows<const R: usize>(
    out: &mut [f32],
    h: usize,
    probs: &[f32],
    l: usize,
    vp: &[f32],
    dh: usize,
) {
    let mut d = 0;
    while d + 8 <= dh {
        context_tile::<R, 8>(&mut out[d..], h, probs, l, vp, dh, d);
        d += 8;
    }
    if d + 4 <= dh {
        context_tile::<R, 4>(&mut out[d..], h, probs, l, vp, dh, d);
        d += 4;
    }
    while d < dh {
        context_tile::<R, 1>(&mut out[d..], h, probs, l, vp, dh, d);
        d += 1;
    }
}

/// Scores of keys `j..j + W` for `R` queries (`q` rows of stride `h`):
/// `dh` axpys into `R × W` accumulators, each summed from `0.0` in
/// ascending `d`, then scaled into `out` (rows of length `l`).
#[inline(always)]
fn score_tile<const R: usize, const W: usize>(
    out: &mut [f32],
    q: &[f32],
    h: usize,
    kt: &[f32],
    l: usize,
    j: usize,
    scale: f32,
) {
    let mut acc = [[0.0f32; W]; R];
    for (d, krow) in kt.chunks_exact(l).enumerate() {
        let kk = &krow[j..j + W];
        for (r, a) in acc.iter_mut().enumerate() {
            let qv = q[r * h + d];
            for (x, &kv) in a.iter_mut().zip(kk) {
                *x += qv * kv;
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        for (o, &x) in out[r * l + j..][..W].iter_mut().zip(a) {
            *o = x * scale;
        }
    }
}

/// Context columns `d..d + W` of one head for `R` queries: every
/// output element is summed from `0.0` in ascending key order over the
/// packed `[L][dh]` values, then stored to `out` (rows of stride `h`).
#[inline(always)]
fn context_tile<const R: usize, const W: usize>(
    out: &mut [f32],
    h: usize,
    probs: &[f32],
    l: usize,
    vp: &[f32],
    dh: usize,
    d: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (j, vrow) in vp.chunks_exact(dh).enumerate() {
        let vv = &vrow[d..d + W];
        for (r, a) in acc.iter_mut().enumerate() {
            let p = probs[r * l + j];
            for (x, &v) in a.iter_mut().zip(vv) {
                *x += p * v;
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        out[r * h..][..W].copy_from_slice(a);
    }
}

fn rank2_dims(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{layer_norm, matmul, matmul_bt, modulate, softmax_rows};
    use crate::rng::DetRng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Reference MHA built from the primitive ops (the historical
    /// `TransformerBlock::mha` composition, column slicing included).
    fn mha_composed(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, scale: f32) -> Tensor {
        let (n, h) = (q.dims()[0], q.dims()[1]);
        let dh = h / heads;
        let slice_cols = |x: &Tensor, start: usize| {
            let (rows, cols) = (x.dims()[0], x.dims()[1]);
            let mut out = Vec::with_capacity(rows * dh);
            for r in 0..rows {
                out.extend_from_slice(&x.data()[r * cols + start..r * cols + start + dh]);
            }
            Tensor::from_vec(out, [rows, dh]).unwrap()
        };
        let mut out = Tensor::zeros([n, h]);
        for head in 0..heads {
            let qs = slice_cols(q, head * dh);
            let ks = slice_cols(k, head * dh);
            let vs = slice_cols(v, head * dh);
            let probs = softmax_rows(&matmul_bt(&qs, &ks).unwrap().scale(scale)).unwrap();
            let ctx = matmul(&probs, &vs).unwrap();
            for row in 0..n {
                let src = ctx.row(row).unwrap().to_vec();
                out.row_mut(row).unwrap()[head * dh..(head + 1) * dh].copy_from_slice(&src);
            }
        }
        out
    }

    #[test]
    fn ada_layer_norm_matches_composition_bitwise() {
        let mut rng = DetRng::new(11);
        let x = Tensor::randn([9, 16], &mut rng);
        let g = Tensor::randn([16], &mut rng);
        let b = Tensor::randn([16], &mut rng);
        let s = Tensor::randn([16], &mut rng);
        let sh = Tensor::randn([16], &mut rng);
        let composed = modulate(&layer_norm(&x, &g, &b).unwrap(), &s, &sh).unwrap();
        let fused = ada_layer_norm(&x, &g, &b, &s, &sh).unwrap();
        assert_eq!(bits(&fused), bits(&composed));
    }

    #[test]
    fn matmul_gelu_matches_composition_bitwise() {
        let mut rng = DetRng::new(12);
        let a = Tensor::randn([7, 5], &mut rng);
        let b = Tensor::randn([5, 11], &mut rng);
        let composed = crate::ops::gelu(&matmul(&a, &b).unwrap());
        let fused = matmul_gelu(&a, &b).unwrap();
        assert_eq!(bits(&fused), bits(&composed));
    }

    #[test]
    fn mha_fused_matches_composition_bitwise() {
        let mut rng = DetRng::new(13);
        for (n, l, h, heads) in [(6, 6, 8, 2), (3, 10, 12, 4), (1, 5, 4, 1), (10, 1, 8, 2)] {
            let q = Tensor::randn([n, h], &mut rng);
            let k = Tensor::randn([l, h], &mut rng);
            let v = Tensor::randn([l, h], &mut rng);
            let scale = 1.0 / ((h / heads) as f32).sqrt();
            let composed = mha_composed(&q, &k, &v, heads, scale);
            let fused = mha_fused(&q, &k, &v, heads, scale).unwrap();
            assert_eq!(
                bits(&fused),
                bits(&composed),
                "n={n} l={l} h={h} heads={heads}"
            );
        }
    }

    /// Every key count the score tiles distinguish (16, 8, 4 and 1 keys
    /// and their mixes, then the sdxl-like and flux-like lengths), for a
    /// 4-query block and a 1-query remainder: the fused kernel is
    /// bitwise the composed oracle as served, and its attention stage's
    /// AVX2 build bitwise its baseline build.
    #[test]
    fn every_key_count_matches_composition_and_the_baseline_build() {
        let mut rng = DetRng::new(15);
        let (n, h, heads) = (QB + 1, 16, 2);
        let scale = 1.0 / ((h / heads) as f32).sqrt();
        for l in (1..=40).chain([144, 256]) {
            let q = Tensor::randn([n, h], &mut rng);
            let k = Tensor::randn([l, h], &mut rng);
            let v = Tensor::randn([l, h], &mut rng);
            let fused = mha_fused(&q, &k, &v, heads, scale).unwrap();
            assert_eq!(
                bits(&fused),
                bits(&mha_composed(&q, &k, &v, heads, scale)),
                "l={l}"
            );
            if pool::wide_isa_or_skip("every_key_count_matches_composition_and_the_baseline_build")
            {
                let panels = AttnPanels::pack(&k, &v, heads).unwrap();
                let (base, wide) = attend_both_builds::<QB>(panels.view(), q.data(), scale);
                assert_eq!(base, wide, "l={l}, {QB} queries");
                let (base, wide) =
                    attend_both_builds::<1>(panels.view(), &q.data()[QB * h..], scale);
                assert_eq!(base, wide, "l={l}, 1 query");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_split_source_matches_clone_and_scatter(
            n in 0usize..10,
            l in 1usize..30,
            heads in 1usize..4,
            dh_idx in 0usize..5,
            fresh_pct in 0usize..101,
            seed in 0u64..1_000_000,
        ) {
            let h = heads * [1, 3, 4, 8, 12][dh_idx];
            let mut rng = DetRng::new(seed);
            let q = Tensor::randn([n, h], &mut rng);
            let k = Tensor::randn([l, h], &mut rng);
            let v = Tensor::randn([l, h], &mut rng);
            // Fresh rows in descending order with the first repeated at
            // the end, so both "any order" and "last wins" are exercised.
            let mut rows: Vec<usize> = (0..l).rev().filter(|j| (j * 37 + 11) % 100 < fresh_pct).collect();
            rows.extend(rows.first().copied());
            let fk = Tensor::randn([rows.len(), h], &mut rng);
            let fv = Tensor::randn([rows.len(), h], &mut rng);
            let (mut k_full, mut v_full) = (k.clone(), v.clone());
            crate::ops::scatter_rows_into(&mut k_full, &fk, &rows).unwrap();
            crate::ops::scatter_rows_into(&mut v_full, &fv, &rows).unwrap();
            let scale = 1.0 / ((h / heads) as f32).sqrt();
            let panels = AttnPanels::pack(&k, &v, heads).unwrap();
            let split = mha_panels(&q, &panels, Some((&fk, &fv, &rows)), scale).unwrap();
            // The cached panels themselves are never written.
            proptest::prop_assert_eq!(&panels, &AttnPanels::pack(&k, &v, heads).unwrap());
            let dense = mha_fused(&q, &k_full, &v_full, heads, scale).unwrap();
            proptest::prop_assert_eq!(bits(&split), bits(&dense));
            proptest::prop_assert_eq!(
                bits(&split),
                bits(&mha_composed(&q, &k_full, &v_full, heads, scale))
            );
        }
    }

    /// The GeLU epilogue's AVX2 build (`gelu_rows_body` through
    /// `with_wide_isa`, on this host) is bitwise its baseline build
    /// (called directly) over every `exp_f32` region its argument `−2u`
    /// can reach: a fine grid over [−12, 12], where `−2u` crosses
    /// `EXP_HI` (x ≈ −10.05) and `EXP_LO` (x ≈ 10.0); a stride through
    /// all 2³² bit patterns (every sign, exponent, denormal and NaN
    /// class); and ±0, ±∞, NaN.
    #[test]
    fn gelu_epilogue_wide_build_is_bitwise_the_baseline() {
        if !pool::wide_isa_or_skip("gelu_epilogue_wide_build_is_bitwise_the_baseline") {
            return;
        }
        let mut xs: Vec<f32> = (0..=240_000).map(|i| -12.0 + i as f32 * 1e-4).collect();
        xs.extend((0..=u32::MAX).step_by(4093).map(f32::from_bits));
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        let mut base = xs.clone();
        gelu_rows_body(&mut base);
        let mut wide = xs.clone();
        pool::with_wide_isa(
            #[inline(always)]
            || gelu_rows_body(&mut wide),
        );
        for ((&x, b), w) in xs.iter().zip(base).zip(wide) {
            assert_eq!(
                b.to_bits(),
                w.to_bits(),
                "gelu({x:e}): AVX2 {w:e} != baseline {b:e}"
            );
        }
    }

    /// `R` query rows of `PanelView::attend` as bit patterns, from the
    /// baseline build (its three stages called directly, not through
    /// `with_wide_isa`) and as served (the AVX2 build on this host).
    fn attend_both_builds<const R: usize>(
        p: PanelView<'_>,
        q: &[f32],
        scale: f32,
    ) -> (Vec<u32>, Vec<u32>) {
        let (l, h, dh) = (p.l, p.h, p.dh);
        let mut probs = vec![0.0f32; R * l];
        let mut base = vec![0.0f32; R * h];
        for off in (0..h).step_by(dh) {
            score_rows::<R>(
                &mut probs,
                &q[off..],
                h,
                &p.kt[off * l..][..dh * l],
                l,
                scale,
            );
            for prow in probs.chunks_exact_mut(l) {
                softmax_row_inplace(prow);
            }
            context_rows::<R>(
                &mut base[off..],
                h,
                &probs,
                l,
                &p.vp[off * l..][..dh * l],
                dh,
            );
        }
        let mut wide = vec![0.0f32; R * h];
        p.attend::<R>(&mut wide, q, &mut probs, scale);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect();
        (bits(base), bits(wide))
    }

    // The attention compute stage's AVX2 build is bitwise its baseline
    // build: the `R = 4` block and the `R = 1` remainder, `dh` over the
    // tile remainders, key counts off the 16- and 8-key tiles, panels
    // packed with and without a fresh split source, and scales large
    // enough that the softmax flushes some `exp` to zero.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn prop_attention_stage_wide_build_is_bitwise_the_baseline(
            four in proptest::bool::ANY,
            heads in 1usize..4,
            dh_idx in 0usize..5,
            l8 in 0usize..6,
            l_rem in 1usize..8,
            split in proptest::bool::ANY,
            scale_mul in 1.0f32..50.0,
            seed in 0u64..1_000_000,
        ) {
            if pool::wide_isa_or_skip("prop_attention_stage_wide_build_is_bitwise_the_baseline") {
                let (dh, l) = ([1, 3, 4, 8, 12][dh_idx], 8 * l8 + l_rem);
                let h = heads * dh;
                let mut rng = DetRng::new(seed);
                let q = Tensor::randn([QB, h], &mut rng);
                let k = Tensor::randn([l, h], &mut rng);
                let v = Tensor::randn([l, h], &mut rng);
                let rows: Vec<usize> = (0..l).filter(|j| j % 3 == 1).collect();
                let fk = Tensor::randn([rows.len(), h], &mut rng);
                let fv = Tensor::randn([rows.len(), h], &mut rng);
                let mut panels = AttnPanels::pack(&k, &v, heads).unwrap();
                if split {
                    panels = panels.overlaid(&fk, &fv, &rows).unwrap();
                }
                let scale = scale_mul / (dh as f32).sqrt();
                let (base, wide) = if four {
                    attend_both_builds::<QB>(panels.view(), q.data(), scale)
                } else {
                    attend_both_builds::<1>(panels.view(), q.data(), scale)
                };
                proptest::prop_assert_eq!(base, wide);
            }
        }
    }

    #[test]
    fn mha_panels_validates_fresh_rows() {
        let q = Tensor::zeros([2, 4]);
        let kv = Tensor::zeros([3, 4]);
        let panels = AttnPanels::pack(&kv, &kv, 2).unwrap();
        let one = Tensor::zeros([1, 4]);
        let split = |k: &Tensor, v: &Tensor, rows: &[usize]| {
            mha_panels(&q, &panels, Some((k, v, rows)), 1.0)
        };
        assert!(split(&one, &one, &[2]).is_ok());
        assert!(matches!(
            split(&one, &one, &[3]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(split(&one, &one, &[0, 1]).is_err(), "row count");
        assert!(split(&one, &Tensor::zeros([1, 6]), &[0]).is_err(), "width");
        assert!(
            mha_panels(&Tensor::zeros([2, 6]), &panels, None, 1.0).is_err(),
            "query width"
        );
    }

    #[test]
    fn panels_reassemble_from_their_parts_and_validate_shapes() {
        let mut rng = DetRng::new(16);
        let k = Tensor::randn([5, 6], &mut rng);
        let v = Tensor::randn([5, 6], &mut rng);
        let p = AttnPanels::pack(&k, &v, 3).unwrap();
        assert_eq!(
            (p.keys().dims(), p.values().dims()),
            (&[6, 5][..], &[3, 5, 2][..])
        );
        assert_eq!(p.keys(), &k.transpose().unwrap());
        let back = AttnPanels::from_parts(p.keys().clone(), p.values().clone()).unwrap();
        assert_eq!(back, p);
        for (kt, vp) in [
            ([6, 5], vec![3, 4, 2]),
            ([6, 5], vec![4, 5, 2]),
            ([5, 6], vec![3, 5, 2]),
        ] {
            let parts = AttnPanels::from_parts(Tensor::zeros(kt), Tensor::zeros(vp.clone()));
            assert!(parts.is_err(), "{kt:?} / {vp:?}");
        }
        assert!(AttnPanels::from_parts(Tensor::zeros([0, 5]), Tensor::zeros([0, 5, 2])).is_err());
        assert!(AttnPanels::pack(&k, &Tensor::zeros([4, 6]), 3).is_err());
        assert!(AttnPanels::pack(&k, &v, 4).is_err(), "heads ∤ hidden");
        assert!(AttnPanels::pack(&k, &v, 0).is_err());
    }

    #[test]
    fn mha_fused_empty_queries_gives_empty_output() {
        let mut rng = DetRng::new(14);
        let q = Tensor::zeros([0, 8]);
        let k = Tensor::randn([5, 8], &mut rng);
        let v = Tensor::randn([5, 8], &mut rng);
        let out = mha_fused(&q, &k, &v, 2, 0.5).unwrap();
        assert_eq!(out.dims(), &[0, 8]);
    }

    #[test]
    fn mha_fused_rejects_empty_kv_like_composed_path() {
        let q = Tensor::zeros([3, 8]);
        let k = Tensor::zeros([0, 8]);
        let v = Tensor::zeros([0, 8]);
        assert!(matches!(
            mha_fused(&q, &k, &v, 2, 0.5),
            Err(TensorError::Empty { .. })
        ));
    }

    #[test]
    fn fused_kernels_validate_shapes() {
        let x = Tensor::zeros([2, 4]);
        let p3 = Tensor::zeros([3]);
        let p4 = Tensor::zeros([4]);
        assert!(ada_layer_norm(&x, &p3, &p4, &p4, &p4).is_err());
        assert!(ada_layer_norm(&x, &p4, &p4, &p3, &p4).is_err());
        assert!(matmul_gelu(&x, &Tensor::zeros([5, 2])).is_err());
        assert!(matmul_gelu(&x, &Tensor::zeros([4])).is_err());
        let q = Tensor::zeros([2, 4]);
        let kv = Tensor::zeros([3, 4]);
        assert!(mha_fused(&q, &kv, &kv, 3, 1.0).is_err(), "heads ∤ hidden");
        assert!(mha_fused(&q, &kv, &kv, 0, 1.0).is_err());
        assert!(mha_fused(&q, &Tensor::zeros([3, 6]), &kv, 2, 1.0).is_err());
        assert!(mha_fused(&q, &kv, &Tensor::zeros([2, 4]), 2, 1.0).is_err());
    }
}
