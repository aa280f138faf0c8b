//! Transformer blocks with pluggable computation modes.
//!
//! A block is `x + SelfAttn(AdaLN(x))`, then `+ CrossAttn(LN(x),
//! prompt)`, then `+ FFN(AdaLN(x))` — the standard conditioned
//! transformer block of DiT-style diffusion models. UNet-style models in
//! this substrate use the same block behind a convolutional scaffold
//! (`resblock::ResBlock`) that `DiffusionModel` computes in full before
//! the stack; `flops` additionally models the scaffold's share of a
//! paper-scale UNet step as an overhead factor.
//!
//! Four forward paths exist, matching §3.1 of the paper. The three
//! masked ones are the one mask-aware compute path of this repository:
//! the masked rows are gathered once and stay gathered through AdaLN →
//! QKV → attention → out-proj → cross-attention → FFN, on the same dense
//! row kernels the full path uses.
//!
//! - [`TransformerBlock::forward_full`] computes every token and returns
//!   the `K`/`V`/`Y` activations so a priming run can populate the
//!   template cache (Fig. 5-top).
//! - [`TransformerBlock::forward_masked_full_kv`] is the Y-cache variant
//!   (Fig. 5-bottom, `BlockMode::CachedY`): queries come from the masked
//!   rows only, keys/values are recomputed over the full token matrix,
//!   whose unmasked rows the previous block replenished from the cache.
//! - [`TransformerBlock::forward_masked`] with
//!   [`MaskedContext::CachedKv`] is the K/V-cache variant (Fig. 7,
//!   `BlockMode::CachedKv`): masked queries attend over full-length
//!   cached keys/values with the masked rows refreshed.
//! - [`TransformerBlock::forward_masked`] with
//!   [`MaskedContext::SelfOnly`] computes only masked tokens, attending
//!   only among masked tokens: the FISEdit-style masked-only mode
//!   (`BlockMode::MaskedOnly`), with no cache replenishing the output.

use fps_tensor::ops::sparse::SparsePlan;
use fps_tensor::ops::{
    ada_layer_norm, gather_rows, layer_norm, matmul, matmul_bt, matmul_gelu, mha_fused,
    mha_fused_split, softmax_rows, FreshKv,
};
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;

use crate::config::ModelConfig;
use crate::error::DiffusionError;
use crate::Result;

/// Key/value context for a masked-token forward pass.
#[derive(Debug, Clone, Copy)]
pub enum MaskedContext<'a> {
    /// Masked queries attend only among masked tokens (FISEdit-style
    /// masked-only editing; the Y-cache variant is
    /// [`TransformerBlock::forward_masked_full_kv`]).
    SelfOnly,
    /// Masked queries attend over full-length cached K/V with the rows
    /// at `masked_idx` overwritten by freshly computed masked K/V.
    CachedKv {
        /// Cached keys `[L, H]` from the priming run.
        k: &'a Tensor,
        /// Cached values `[L, H]` from the priming run.
        v: &'a Tensor,
        /// Token indices (into `[0, L)`) of the masked rows.
        masked_idx: &'a [usize],
    },
}

/// A block's AdaLN modulation vectors, `[H]` each. They depend on the
/// timestep condition only, so a pipeline derives them once per
/// (denoising step, block) and shares them across requests.
#[derive(Debug, Clone)]
pub struct AdaParams {
    scale1: Tensor,
    shift1: Tensor,
    scale2: Tensor,
    shift2: Tensor,
}

/// A block's cross-attention keys and values of one prompt,
/// `[prompt_tokens, H]` each. They depend on the prompt only, so a
/// session projects them once per block and reuses them every step.
#[derive(Debug, Clone)]
pub struct CrossKv {
    k: Tensor,
    v: Tensor,
}

/// Output of a full-token forward pass, including the activations a
/// priming run captures into the template cache.
#[derive(Debug, Clone)]
pub struct BlockFullOutput {
    /// Block output `Y` of shape `[L, H]`.
    pub y: Tensor,
    /// Self-attention keys `[L, H]` (pre-head-split layout).
    pub k: Tensor,
    /// Self-attention values `[L, H]`.
    pub v: Tensor,
}

/// One conditioned transformer block.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    heads: usize,
    // Self-attention projections, all `[H, H]`.
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    // Cross-attention projections (queries from image tokens, keys and
    // values from prompt tokens), all `[H, H]`.
    cq: Tensor,
    ck: Tensor,
    cv: Tensor,
    co: Tensor,
    // Feed-forward `[H, F]` then `[F, H]`.
    w1: Tensor,
    w2: Tensor,
    // LayerNorm parameters, `[H]` each.
    ln1_g: Tensor,
    ln1_b: Tensor,
    ln2_g: Tensor,
    ln2_b: Tensor,
    ln3_g: Tensor,
    ln3_b: Tensor,
    // AdaLN conditioning: `[H, 4H]` mapping the pooled condition to
    // (scale1, shift1, scale2, shift2).
    ada: Tensor,
}

impl TransformerBlock {
    /// Builds a block with deterministic Xavier-initialized weights.
    pub fn new(cfg: &ModelConfig, rng: &mut DetRng) -> Self {
        let h = cfg.hidden;
        let f = cfg.hidden * cfg.ffn_mult;
        // Residual-branch output projections get a small gain so deep
        // stacks stay numerically tame and the map stays contractive —
        // trained denoisers behave contractively, and without this the
        // untrained substrate amplifies tiny perturbations chaotically,
        // drowning the systematic quality differences the experiments
        // measure (GPT-2-style init, stronger damping).
        const RESIDUAL_GAIN: f32 = 0.25;
        // Text conditioning perturbs content mildly in SD-class models
        // (cross-attention is a small fraction of each block's output);
        // keeping it weak also keeps unmasked activations prompt-
        // insensitive — the empirical property (Fig. 6-left) that lets
        // caches primed under one prompt serve requests with another.
        const CROSS_GAIN: f32 = 0.06;
        Self {
            heads: cfg.heads,
            wq: Tensor::xavier(h, h, rng),
            wk: Tensor::xavier(h, h, rng),
            wv: Tensor::xavier(h, h, rng),
            wo: Tensor::xavier(h, h, rng).scale(RESIDUAL_GAIN),
            cq: Tensor::xavier(h, h, rng),
            ck: Tensor::xavier(h, h, rng),
            cv: Tensor::xavier(h, h, rng),
            co: Tensor::xavier(h, h, rng).scale(CROSS_GAIN),
            w1: Tensor::xavier(h, f, rng),
            w2: Tensor::xavier(f, h, rng).scale(RESIDUAL_GAIN),
            ln1_g: Tensor::full([h], 1.0),
            ln1_b: Tensor::zeros([h]),
            ln2_g: Tensor::full([h], 1.0),
            ln2_b: Tensor::zeros([h]),
            ln3_g: Tensor::full([h], 1.0),
            ln3_b: Tensor::zeros([h]),
            ada: Tensor::xavier(h, 4 * h, rng).scale(0.1),
        }
    }

    /// Derives the AdaLN (scale1, shift1, scale2, shift2) vectors from
    /// the pooled condition.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors from a malformed condition.
    pub fn ada_params(&self, cond: &Tensor) -> Result<AdaParams> {
        let h = cond.numel();
        let row = matmul(&cond.clone().reshape([1, h])?, &self.ada)?;
        let d = row.data();
        let slice = |i: usize| Tensor::from_vec(d[i * h..(i + 1) * h].to_vec(), [h]);
        Ok(AdaParams {
            scale1: slice(0)?,
            shift1: slice(1)?,
            scale2: slice(2)?,
            shift2: slice(3)?,
        })
    }

    /// Projects a prompt embedding into this block's cross-attention
    /// keys and values.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors from a malformed embedding.
    pub fn cross_kv(&self, prompt: &Tensor) -> Result<CrossKv> {
        Ok(CrossKv {
            k: matmul(prompt, &self.ck)?,
            v: matmul(prompt, &self.cv)?,
        })
    }

    /// Multi-head scaled-dot-product attention of `q` rows over `k`/`v`
    /// rows, before the output projection: the one tiled kernel.
    fn mha(&self, q: &Tensor, k: &Tensor, v: &Tensor) -> Result<Tensor> {
        Ok(mha_fused(q, k, v, self.heads, self.attn_scale(q))?)
    }

    /// `1/√dh` for queries of this block's head width.
    fn attn_scale(&self, q: &Tensor) -> f32 {
        1.0 / ((q.dims()[1] / self.heads) as f32).sqrt()
    }

    /// Feed-forward branch `W₂ · gelu(W₁ · xn)`; GeLU is the row
    /// epilogue of the up-projection.
    fn ffn(&self, xn: &Tensor) -> Result<Tensor> {
        let up = matmul_gelu(xn, &self.w1)?;
        let out = matmul(&up, &self.w2)?;
        up.recycle();
        Ok(out)
    }

    /// The token-wise second half of every forward: `x += CrossAttn(
    /// LN(x), prompt)`, then `x += FFN(AdaLN(x))`. Exact on any row
    /// subset (§3.1), so the masked forwards run it on masked rows only.
    fn cross_attn_and_ffn(&self, x: &mut Tensor, cross: &CrossKv, ada: &AdaParams) -> Result<()> {
        let xn = layer_norm(x, &self.ln2_g, &self.ln2_b)?;
        let cq = matmul(&xn, &self.cq)?;
        xn.recycle();
        let cctx = self.mha(&cq, &cross.k, &cross.v)?;
        cq.recycle();
        let out = matmul(&cctx, &self.co)?;
        cctx.recycle();
        // `axpy(1.0, ·)` is bitwise `add`.
        x.axpy(1.0, &out)?;
        out.recycle();
        let xn = ada_layer_norm(x, &self.ln3_g, &self.ln3_b, &ada.scale2, &ada.shift2)?;
        let ff = self.ffn(&xn)?;
        xn.recycle();
        x.axpy(1.0, &ff)?;
        ff.recycle();
        Ok(())
    }

    /// Full-token forward pass; returns `Y` plus the `K`/`V`
    /// activations for cache priming.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors from malformed inputs.
    pub fn forward_full(
        &self,
        x: &Tensor,
        cross: &CrossKv,
        ada: &AdaParams,
    ) -> Result<BlockFullOutput> {
        // Dead intermediates go back to the scratch pool.
        let xn = ada_layer_norm(x, &self.ln1_g, &self.ln1_b, &ada.scale1, &ada.shift1)?;
        let q = matmul(&xn, &self.wq)?;
        let k = matmul(&xn, &self.wk)?;
        let v = matmul(&xn, &self.wv)?;
        xn.recycle();
        let ctx = self.mha(&q, &k, &v)?;
        q.recycle();
        let attn = matmul(&ctx, &self.wo)?;
        ctx.recycle();
        let mut y = x.add(&attn)?;
        attn.recycle();
        self.cross_attn_and_ffn(&mut y, cross, ada)?;
        Ok(BlockFullOutput { y, k, v })
    }

    /// FlashPS Y-variant forward pass (Fig. 5-bottom): queries come
    /// from the masked rows only, but keys/values are recomputed over
    /// the *full* token matrix (whose unmasked rows were replenished
    /// from the cache by the previous block) — the paper's LLM-decoding
    /// analogy, where the new token's Q attends over everyone's K/V.
    /// Cross-attention and FFN run on masked rows only (token-wise,
    /// exact). The session's sparse plan supplies the masked row set.
    /// Returns the masked rows' block output.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward_masked_full_kv(
        &self,
        x_full: &Tensor,
        plan: &SparsePlan,
        cross: &CrossKv,
        ada: &AdaParams,
    ) -> Result<Tensor> {
        let masked_idx = plan.active();
        let xn_full = ada_layer_norm(x_full, &self.ln1_g, &self.ln1_b, &ada.scale1, &ada.shift1)?;
        let xn_masked = gather_rows(&xn_full, masked_idx)?;
        let q = matmul(&xn_masked, &self.wq)?;
        xn_masked.recycle();
        let k = matmul(&xn_full, &self.wk)?;
        let v = matmul(&xn_full, &self.wv)?;
        xn_full.recycle();
        let ctx = self.mha(&q, &k, &v)?;
        q.recycle();
        k.recycle();
        v.recycle();
        let attn = matmul(&ctx, &self.wo)?;
        ctx.recycle();
        let xg = gather_rows(x_full, masked_idx)?;
        let mut x = xg.add(&attn)?;
        xg.recycle();
        attn.recycle();
        self.cross_attn_and_ffn(&mut x, cross, ada)?;
        Ok(x)
    }

    /// Masked-token forward pass: computes only the `x_masked` rows.
    ///
    /// With [`MaskedContext::SelfOnly`] the masked queries attend only
    /// among themselves (FISEdit-style); with
    /// [`MaskedContext::CachedKv`] they attend over the cached
    /// full-length keys/values with the masked rows refreshed — the
    /// kernel's pack stage reads each key/value row from whichever
    /// side holds it, so no `[L, H]` tensor is copied.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidPlan`] when cached K/V shapes
    /// disagree with the masked row count, and propagates tensor shape
    /// errors.
    pub fn forward_masked(
        &self,
        x_masked: &Tensor,
        ctx: MaskedContext<'_>,
        cross: &CrossKv,
        ada: &AdaParams,
    ) -> Result<Tensor> {
        if let MaskedContext::CachedKv { masked_idx, .. } = ctx {
            if masked_idx.len() != x_masked.dims()[0] {
                return Err(DiffusionError::InvalidPlan {
                    reason: format!(
                        "cached-KV context has {} masked indices for {} rows",
                        masked_idx.len(),
                        x_masked.dims()[0]
                    ),
                });
            }
        }
        let xn = ada_layer_norm(x_masked, &self.ln1_g, &self.ln1_b, &ada.scale1, &ada.shift1)?;
        let q = matmul(&xn, &self.wq)?;
        let k_fresh = matmul(&xn, &self.wk)?;
        let v_fresh = matmul(&xn, &self.wv)?;
        xn.recycle();
        let attn = match ctx {
            MaskedContext::SelfOnly => self.mha(&q, &k_fresh, &v_fresh)?,
            MaskedContext::CachedKv { k, v, masked_idx } => mha_fused_split(
                &q,
                k,
                v,
                FreshKv {
                    k: &k_fresh,
                    v: &v_fresh,
                    rows: masked_idx,
                },
                self.heads,
                self.attn_scale(&q),
            )?,
        };
        q.recycle();
        k_fresh.recycle();
        v_fresh.recycle();
        let proj = matmul(&attn, &self.wo)?;
        attn.recycle();
        let mut x = x_masked.add(&proj)?;
        proj.recycle();
        self.cross_attn_and_ffn(&mut x, cross, ada)?;
        Ok(x)
    }

    /// Returns the post-softmax self-attention probability matrix
    /// `[L, L]` averaged over heads — the quantity visualized in
    /// Fig. 6-right of the paper.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn attention_probs(&self, x: &Tensor, cond: &Tensor) -> Result<Tensor> {
        let ada = self.ada_params(cond)?;
        let xn = ada_layer_norm(x, &self.ln1_g, &self.ln1_b, &ada.scale1, &ada.shift1)?;
        let q = matmul(&xn, &self.wq)?;
        let k = matmul(&xn, &self.wk)?;
        let l = x.dims()[0];
        let h = x.dims()[1];
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut avg = Tensor::zeros([l, l]);
        for head in 0..self.heads {
            let qs = slice_cols(&q, head * dh, dh)?;
            let ks = slice_cols(&k, head * dh, dh)?;
            let probs = softmax_rows(&matmul_bt(&qs, &ks)?.scale(scale))?;
            avg.axpy(1.0 / self.heads as f32, &probs)?;
        }
        Ok(avg)
    }
}

/// Copies columns `[start, start + width)` of a rank-2 tensor.
fn slice_cols(x: &Tensor, start: usize, width: usize) -> Result<Tensor> {
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    debug_assert!(start + width <= cols);
    let mut out = Vec::with_capacity(rows * width);
    for r in 0..rows {
        out.extend_from_slice(&x.data()[r * cols + start..r * cols + start + width]);
    }
    Ok(Tensor::from_vec(out, [rows, width])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::{embed_prompt, embed_timestep, pool_condition};
    use fps_tensor::ops::gather_rows;

    fn setup() -> (ModelConfig, TransformerBlock, CrossKv, AdaParams) {
        let cfg = ModelConfig::tiny();
        let mut rng = DetRng::new(cfg.weight_seed);
        let block = TransformerBlock::new(&cfg, &mut rng);
        let prompt = embed_prompt(&cfg, "test prompt");
        let cond = pool_condition(&prompt, &embed_timestep(&cfg, 0.5));
        let cross = block.cross_kv(&prompt).unwrap();
        let ada = block.ada_params(&cond).unwrap();
        (cfg, block, cross, ada)
    }

    #[test]
    fn full_forward_shapes() {
        let (cfg, block, cross, ada) = setup();
        let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(1));
        let out = block.forward_full(&x, &cross, &ada).unwrap();
        assert_eq!(out.y.dims(), &[cfg.tokens(), cfg.hidden]);
        assert_eq!(out.k.dims(), &[cfg.tokens(), cfg.hidden]);
        assert_eq!(out.v.dims(), &[cfg.tokens(), cfg.hidden]);
        assert!(out.y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let (cfg, block, cross, ada) = setup();
        let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(2));
        let a = block.forward_full(&x, &cross, &ada).unwrap();
        let b = block.forward_full(&x, &cross, &ada).unwrap();
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn cross_attention_and_ffn_are_token_wise() {
        // Masked forward with cached-KV context over the *true* full
        // K/V must reproduce the full forward's masked rows exactly:
        // every op on the masked path is then identical to the full
        // path. This is the paper's core exactness claim for token-wise
        // ops plus KV-complete attention.
        let (cfg, block, cross, ada) = setup();
        let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(3));
        let full = block.forward_full(&x, &cross, &ada).unwrap();
        let masked_idx: Vec<usize> = vec![1, 4, 10, 15];
        let xm = gather_rows(&x, &masked_idx).unwrap();
        let ym = block
            .forward_masked(
                &xm,
                MaskedContext::CachedKv {
                    k: &full.k,
                    v: &full.v,
                    masked_idx: &masked_idx,
                },
                &cross,
                &ada,
            )
            .unwrap();
        let ym_ref = gather_rows(&full.y, &masked_idx).unwrap();
        assert!(
            ym.max_abs_diff(&ym_ref).unwrap() < 1e-4,
            "masked+true-KV must equal full rows"
        );
    }

    #[test]
    fn self_only_differs_from_full_context() {
        // Masked-only attention is the approximation; it should be
        // close-ish but not identical to the full computation.
        let (cfg, block, cross, ada) = setup();
        let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(4));
        let full = block.forward_full(&x, &cross, &ada).unwrap();
        let masked_idx: Vec<usize> = vec![0, 5, 6];
        let xm = gather_rows(&x, &masked_idx).unwrap();
        let ym = block
            .forward_masked(&xm, MaskedContext::SelfOnly, &cross, &ada)
            .unwrap();
        let ym_ref = gather_rows(&full.y, &masked_idx).unwrap();
        let diff = ym.max_abs_diff(&ym_ref).unwrap();
        assert!(diff > 1e-6, "restricting context must change something");
        assert!(ym.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cached_kv_validates_index_count() {
        let (cfg, block, cross, ada) = setup();
        let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(5));
        let full = block.forward_full(&x, &cross, &ada).unwrap();
        let xm = gather_rows(&x, &[0, 1]).unwrap();
        let err = block
            .forward_masked(
                &xm,
                MaskedContext::CachedKv {
                    k: &full.k,
                    v: &full.v,
                    masked_idx: &[0],
                },
                &cross,
                &ada,
            )
            .unwrap_err();
        assert!(matches!(err, DiffusionError::InvalidPlan { .. }));
    }

    #[test]
    fn attention_probs_are_row_stochastic() {
        let (cfg, block, _, _) = setup();
        let cond = embed_timestep(&cfg, 0.5);
        let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(6));
        let probs = block.attention_probs(&x, &cond).unwrap();
        assert_eq!(probs.dims(), &[cfg.tokens(), cfg.tokens()]);
        for r in 0..cfg.tokens() {
            let sum: f32 = probs.row(r).unwrap().iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn condition_changes_output() {
        let (cfg, block, cross, _) = setup();
        let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(7));
        let a1 = block.ada_params(&embed_timestep(&cfg, 0.1)).unwrap();
        let a2 = block.ada_params(&embed_timestep(&cfg, 0.9)).unwrap();
        let y1 = block.forward_full(&x, &cross, &a1).unwrap();
        let y2 = block.forward_full(&x, &cross, &a2).unwrap();
        assert!(y1.y.max_abs_diff(&y2.y).unwrap() > 1e-5);
    }
}
