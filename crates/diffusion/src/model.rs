//! The diffusion denoiser: a stack of transformer blocks with per-block
//! compute plans.

use fps_tensor::ops::sparse::SparsePlan;
use fps_tensor::ops::{gather_rows, layer_norm, matmul, scatter_rows_into};
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;

use crate::block::{AdaParams, CrossKv, MaskedContext, TransformerBlock};
use crate::cache::{BlockCache, StepCache, TemplateCache};
use crate::config::{Architecture, ModelConfig};
use crate::embedding::embed_timestep;
use crate::error::DiffusionError;
use crate::Result;

/// How one transformer block computes during a mask-aware step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockMode {
    /// Compute every token (no cache used). The DP assigns this mode to
    /// blocks whose cache load would stall the pipeline; these blocks
    /// also re-inject cross-region context.
    Full,
    /// Compute masked tokens only; replenish unmasked rows from the
    /// cached block output `Y` (Fig. 5-bottom).
    CachedY,
    /// Compute masked tokens only; attend over cached full-length `K`/
    /// `V` and replenish unmasked rows from cached `Y` (Fig. 7).
    CachedKv,
    /// Compute masked tokens only with no cache; unmasked rows pass
    /// through unchanged (FISEdit-style sparse editing).
    MaskedOnly,
}

/// Per-block modes for one denoising step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlan {
    /// One mode per transformer block, in execution order.
    pub modes: Vec<BlockMode>,
}

impl StepPlan {
    /// Every block computes every token (the Diffusers baseline).
    pub fn full(blocks: usize) -> Self {
        Self {
            modes: vec![BlockMode::Full; blocks],
        }
    }

    /// Every block uses the Y cache.
    pub fn all_cached_y(blocks: usize) -> Self {
        Self {
            modes: vec![BlockMode::CachedY; blocks],
        }
    }

    /// Every block uses the K/V cache.
    pub fn all_cached_kv(blocks: usize) -> Self {
        Self {
            modes: vec![BlockMode::CachedKv; blocks],
        }
    }

    /// Every block computes masked tokens only without any cache.
    pub fn masked_only(blocks: usize) -> Self {
        Self {
            modes: vec![BlockMode::MaskedOnly; blocks],
        }
    }

    /// Builds a plan from Algorithm 1's `useCache` output: `false` →
    /// [`BlockMode::Full`], `true` → [`BlockMode::CachedKv`] when `kv`
    /// selects the Fig. 7 variant, else [`BlockMode::CachedY`].
    pub fn from_use_cache(use_cache: &[bool], kv: bool) -> Self {
        let cached = if kv {
            BlockMode::CachedKv
        } else {
            BlockMode::CachedY
        };
        let modes = use_cache
            .iter()
            .map(|&c| if c { cached } else { BlockMode::Full });
        Self {
            modes: modes.collect(),
        }
    }

    /// Number of blocks that consume cached activations.
    pub fn cached_blocks(&self) -> usize {
        self.modes
            .iter()
            .filter(|m| matches!(m, BlockMode::CachedY | BlockMode::CachedKv))
            .count()
    }
}

/// One prompt's conditioning of the whole stack: every block's
/// cross-attention keys/values. A function of the prompt alone, so a
/// session builds it once ([`DiffusionModel::prompt_cond`]) and every
/// denoising step reuses it.
#[derive(Debug, Clone)]
pub struct PromptCond {
    blocks: Vec<CrossKv>,
}

/// One timestep's conditioning of the whole stack: every block's AdaLN
/// vectors. A function of the timestep alone, so a pipeline builds one
/// per denoising step ([`DiffusionModel::step_cond`]) and every request
/// shares them.
#[derive(Debug, Clone)]
pub struct StepCond {
    blocks: Vec<AdaParams>,
}

/// The denoiser network.
#[derive(Debug, Clone)]
pub struct DiffusionModel {
    cfg: ModelConfig,
    /// `[latent_channels, hidden]` input projection.
    in_proj: Tensor,
    /// `[hidden, latent_channels]` output projection.
    out_proj: Tensor,
    blocks: Vec<TransformerBlock>,
    /// UNet scaffold: one conv residual block on the latent grid,
    /// always computed in full (§2.1 footnote); `None` for DiT models.
    scaffold: Option<crate::resblock::ResBlock>,
    ln_f_g: Tensor,
    ln_f_b: Tensor,
}

impl DiffusionModel {
    /// Builds the model with weights derived from `cfg.weight_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidConfig`] for inconsistent
    /// configs.
    pub fn new(cfg: &ModelConfig) -> Result<Self> {
        cfg.validate()?;
        let mut rng = DetRng::new(cfg.weight_seed ^ 0x0D1F_F051_0000);
        let blocks: Vec<TransformerBlock> = (0..cfg.blocks)
            .map(|_| TransformerBlock::new(cfg, &mut rng))
            .collect();
        let scaffold = match cfg.arch {
            Architecture::UNet => Some(crate::resblock::ResBlock::new(
                cfg.latent_h,
                cfg.latent_w,
                cfg.latent_channels,
                &mut rng,
            )),
            Architecture::Dit => None,
        };
        Ok(Self {
            cfg: cfg.clone(),
            in_proj: Tensor::xavier(cfg.latent_channels, cfg.hidden, &mut rng),
            out_proj: Tensor::xavier(cfg.hidden, cfg.latent_channels, &mut rng),
            blocks,
            scaffold,
            ln_f_g: Tensor::full([cfg.hidden], 1.0),
            ln_f_b: Tensor::zeros([cfg.hidden]),
        })
    }

    /// Returns the model config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Projects a `[prompt_tokens, hidden]` prompt embedding into every
    /// block's cross-attention keys and values.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors from a malformed embedding.
    pub fn prompt_cond(&self, prompt_emb: &Tensor) -> Result<PromptCond> {
        let blocks = self.blocks.iter().map(|b| b.cross_kv(prompt_emb));
        Ok(PromptCond {
            blocks: blocks.collect::<Result<_>>()?,
        })
    }

    /// Derives every block's AdaLN vectors for normalized timestep `t`.
    ///
    /// AdaLN conditions on the timestep only (as in SD-class models);
    /// the prompt enters through cross-attention. This is what makes
    /// cached template activations reusable across requests with
    /// different prompts (§2.2).
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn step_cond(&self, t: f32) -> Result<StepCond> {
        let cond = embed_timestep(&self.cfg, t);
        let blocks = self.blocks.iter().map(|b| b.ada_params(&cond));
        Ok(StepCond {
            blocks: blocks.collect::<Result<_>>()?,
        })
    }

    /// Full (mask-agnostic) noise prediction for one step; also returns
    /// the per-block activations so priming runs can populate the
    /// template cache.
    ///
    /// `capture_kv` additionally stores `K`/`V` for the Fig. 7 variant.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors from malformed latents.
    pub fn predict_full(
        &self,
        latent: &Tensor,
        step: &StepCond,
        prompt: &PromptCond,
        capture_kv: bool,
    ) -> Result<(Tensor, StepCache)> {
        self.check_latent(latent)?;
        self.check_conds(prompt, step)?;
        let latent = self.apply_scaffold(latent)?;
        let mut captured = StepCache::default();
        let mut x = matmul(&latent, &self.in_proj)?;
        latent.recycle();
        for (block, (cross, ada)) in self.conditioned(prompt, step) {
            let out = block.forward_full(&x, cross, ada)?;
            captured.blocks.push(BlockCache {
                y: out.y.clone(),
                k: capture_kv.then(|| out.k.clone()),
                v: capture_kv.then(|| out.v.clone()),
            });
            // The cache keeps clones; the originals feed the scratch pool.
            std::mem::replace(&mut x, out.y).recycle();
            out.k.recycle();
            out.v.recycle();
        }
        let xn = layer_norm(&x, &self.ln_f_g, &self.ln_f_b)?;
        x.recycle();
        let eps = matmul(&xn, &self.out_proj)?;
        xn.recycle();
        Ok((eps, captured))
    }

    /// Mask-aware noise prediction for one step under a per-block plan.
    ///
    /// `sparse` is the session's mask-derived token plan (built once
    /// per edit); its active set lists the masked rows.
    ///
    /// Rows of the returned `[L, latent_channels]` prediction at
    /// unmasked positions are only meaningful insofar as the plan
    /// materializes them (cached plans replenish them; masked-only plans
    /// pass them through); the inpainting sampler overwrites unmasked
    /// latents regardless.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidPlan`] when the plan length
    /// disagrees with the block count or the sparse plan's row count
    /// disagrees with the token count, [`DiffusionError::CacheMiss`]
    /// when a cached mode lacks its entry, and propagates tensor shape
    /// errors.
    #[allow(clippy::too_many_arguments)]
    pub fn predict_planned(
        &self,
        latent: &Tensor,
        cond: &StepCond,
        prompt: &PromptCond,
        sparse: &SparsePlan,
        plan: &StepPlan,
        cache: Option<&TemplateCache>,
        step: usize,
    ) -> Result<Tensor> {
        self.check_latent(latent)?;
        self.check_conds(prompt, cond)?;
        if plan.modes.len() != self.blocks.len() {
            return Err(DiffusionError::InvalidPlan {
                reason: format!(
                    "plan has {} modes for {} blocks",
                    plan.modes.len(),
                    self.blocks.len()
                ),
            });
        }
        if sparse.total_rows() != self.cfg.tokens() {
            return Err(DiffusionError::InvalidPlan {
                reason: format!(
                    "sparse plan covers {} rows for {} tokens",
                    sparse.total_rows(),
                    self.cfg.tokens()
                ),
            });
        }
        let masked_idx = sparse.active();
        let latent = self.apply_scaffold(latent)?;
        let mut x = matmul(&latent, &self.in_proj)?;
        latent.recycle();
        let blocks = self.conditioned(prompt, cond).zip(&plan.modes);
        for (i, ((block, (cross, ada)), mode)) in blocks.enumerate() {
            match mode {
                BlockMode::Full => {
                    let out = block.forward_full(&x, cross, ada)?;
                    std::mem::replace(&mut x, out.y).recycle();
                    out.k.recycle();
                    out.v.recycle();
                }
                BlockMode::MaskedOnly => {
                    let xm = gather_rows(&x, masked_idx)?;
                    let ym = block.forward_masked(&xm, MaskedContext::SelfOnly, cross, ada)?;
                    xm.recycle();
                    scatter_rows_into(&mut x, &ym, masked_idx)?;
                    ym.recycle();
                }
                BlockMode::CachedY => {
                    let entry = self.cache_entry(cache, step, i)?;
                    // Y variant: masked queries attend over fresh K/V of
                    // the full (cache-replenished) token matrix.
                    let ym = block.forward_masked_full_kv(&x, sparse, cross, ada)?;
                    std::mem::replace(&mut x, entry.y.clone()).recycle();
                    scatter_rows_into(&mut x, &ym, masked_idx)?;
                    ym.recycle();
                }
                BlockMode::CachedKv => {
                    let entry = self.cache_entry(cache, step, i)?;
                    let (k, v) = match (&entry.k, &entry.v) {
                        (Some(k), Some(v)) => (k, v),
                        _ => return Err(DiffusionError::CacheMiss { step, block: i }),
                    };
                    let xm = gather_rows(&x, masked_idx)?;
                    let ym = block.forward_masked(
                        &xm,
                        MaskedContext::CachedKv { k, v, masked_idx },
                        cross,
                        ada,
                    )?;
                    xm.recycle();
                    std::mem::replace(&mut x, entry.y.clone()).recycle();
                    scatter_rows_into(&mut x, &ym, masked_idx)?;
                    ym.recycle();
                }
            }
        }
        let xn = layer_norm(&x, &self.ln_f_g, &self.ln_f_b)?;
        x.recycle();
        let eps = matmul(&xn, &self.out_proj)?;
        xn.recycle();
        Ok(eps)
    }

    /// Post-softmax self-attention probabilities `[L, L]` of one block
    /// on the given latent — the Fig. 6-right probe.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range block index or malformed
    /// latent.
    pub fn attention_probe(
        &self,
        latent: &Tensor,
        t: f32,
        prompt_emb: &Tensor,
        block_idx: usize,
    ) -> Result<Tensor> {
        self.check_latent(latent)?;
        let block = self
            .blocks
            .get(block_idx)
            .ok_or(DiffusionError::InvalidPlan {
                reason: format!("block index {block_idx} out of range"),
            })?;
        let (prompt, step) = (self.prompt_cond(prompt_emb)?, self.step_cond(t)?);
        // Run the stack up to the probed block so the probe sees
        // realistic inputs.
        let latent = self.apply_scaffold(latent)?;
        let mut x = matmul(&latent, &self.in_proj)?;
        for (b, (cross, ada)) in self.conditioned(&prompt, &step).take(block_idx) {
            x = b.forward_full(&x, cross, ada)?.y;
        }
        block.attention_probs(&x, &embed_timestep(&self.cfg, t))
    }

    /// Each block with its share of the two conditionings.
    fn conditioned<'a>(
        &'a self,
        prompt: &'a PromptCond,
        step: &'a StepCond,
    ) -> impl Iterator<Item = (&'a TransformerBlock, (&'a CrossKv, &'a AdaParams))> {
        self.blocks
            .iter()
            .zip(prompt.blocks.iter().zip(&step.blocks))
    }

    /// Runs the UNet conv scaffold (identity for DiT models). The
    /// scaffold computes the full grid under every serving strategy —
    /// spatial mixing admits no mask-aware shortcut.
    fn apply_scaffold(&self, latent: &Tensor) -> Result<Tensor> {
        match &self.scaffold {
            Some(rb) => rb.forward(latent),
            None => Ok(latent.clone()),
        }
    }

    fn cache_entry<'a>(
        &self,
        cache: Option<&'a TemplateCache>,
        step: usize,
        block: usize,
    ) -> Result<&'a BlockCache> {
        cache
            .ok_or(DiffusionError::CacheMiss { step, block })?
            .get(step, block)
    }

    /// Conditionings built by a model with a different block count
    /// would silently truncate the stack.
    fn check_conds(&self, prompt: &PromptCond, step: &StepCond) -> Result<()> {
        let n = self.blocks.len();
        if prompt.blocks.len() != n || step.blocks.len() != n {
            return Err(DiffusionError::InvalidPlan {
                reason: format!(
                    "conditioning covers {} / {} blocks of {n}",
                    prompt.blocks.len(),
                    step.blocks.len()
                ),
            });
        }
        Ok(())
    }

    fn check_latent(&self, latent: &Tensor) -> Result<()> {
        if latent.rank() != 2
            || latent.dims()[0] != self.cfg.tokens()
            || latent.dims()[1] != self.cfg.latent_channels
        {
            return Err(DiffusionError::InvalidConfig {
                reason: format!(
                    "latent shape {:?} does not match [{}, {}]",
                    latent.dims(),
                    self.cfg.tokens(),
                    self.cfg.latent_channels
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::embed_prompt;

    fn setup() -> (ModelConfig, DiffusionModel, PromptCond, StepCond, Tensor) {
        let cfg = ModelConfig::tiny();
        let model = DiffusionModel::new(&cfg).unwrap();
        let prompt = model.prompt_cond(&embed_prompt(&cfg, "tiny test")).unwrap();
        let step = model.step_cond(0.5).unwrap();
        let latent = Tensor::randn([cfg.tokens(), cfg.latent_channels], &mut DetRng::new(11));
        (cfg, model, prompt, step, latent)
    }

    fn plan_of(cfg: &ModelConfig, masked: &[usize]) -> SparsePlan {
        SparsePlan::from_mask(cfg.tokens(), masked).unwrap()
    }

    fn prime(
        model: &DiffusionModel,
        latent: &Tensor,
        step: &StepCond,
        prompt: &PromptCond,
        kv: bool,
    ) -> TemplateCache {
        let cfg = model.config();
        let mut cache = TemplateCache::new(7, cfg.tokens(), cfg.hidden);
        // A single-step cache is enough for block-level tests.
        let (_, captured) = model.predict_full(latent, step, prompt, kv).unwrap();
        cache.push_step(captured);
        cache
    }

    #[test]
    fn full_prediction_shapes_and_capture() {
        let (cfg, model, prompt, step, latent) = setup();
        let (eps, cap) = model.predict_full(&latent, &step, &prompt, true).unwrap();
        assert_eq!(eps.dims(), &[cfg.tokens(), cfg.latent_channels]);
        assert_eq!(cap.blocks.len(), cfg.blocks);
        assert!(cap.blocks.iter().all(|b| b.k.is_some() && b.v.is_some()));
    }

    #[test]
    fn planned_full_equals_predict_full() {
        let (cfg, model, prompt, step, latent) = setup();
        let (eps_ref, _) = model.predict_full(&latent, &step, &prompt, false).unwrap();
        let eps = model
            .predict_planned(
                &latent,
                &step,
                &prompt,
                &plan_of(&cfg, &[0, 1]),
                &StepPlan::full(cfg.blocks),
                None,
                0,
            )
            .unwrap();
        assert!(eps.max_abs_diff(&eps_ref).unwrap() < 1e-5);
    }

    #[test]
    fn cached_y_with_identical_latent_reproduces_masked_rows_approximately() {
        // When the edit latent equals the primed latent, the cached-Y
        // plan's masked rows still see reduced attention context, so the
        // output is close to — but not exactly — the full computation.
        let (cfg, model, prompt, step, latent) = setup();
        let cache = prime(&model, &latent, &step, &prompt, false);
        let masked: Vec<usize> = vec![0, 3, 9];
        let (eps_ref, _) = model.predict_full(&latent, &step, &prompt, false).unwrap();
        let eps = model
            .predict_planned(
                &latent,
                &step,
                &prompt,
                &plan_of(&cfg, &masked),
                &StepPlan::all_cached_y(cfg.blocks),
                Some(&cache),
                0,
            )
            .unwrap();
        // Unmasked rows after the final projection derive from cached Y,
        // which equals the reference computation's Y exactly.
        for tok in 0..cfg.tokens() {
            if !masked.contains(&tok) {
                let a = eps.row(tok).unwrap();
                let b = eps_ref.row(tok).unwrap();
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!((x - y).abs() < 1e-4, "unmasked row {tok} diverged");
                }
            }
        }
    }

    #[test]
    fn cached_kv_is_closer_to_full_than_cached_y() {
        // The K/V variant gives masked queries the full attention
        // context, so its masked-row error w.r.t. the full computation
        // must not exceed the Y variant's.
        let (cfg, model, prompt, step, latent) = setup();
        let cache = prime(&model, &latent, &step, &prompt, true);
        let masked: Vec<usize> = vec![2, 5, 7, 12];
        let (eps_ref, _) = model.predict_full(&latent, &step, &prompt, false).unwrap();
        let err = |plan: &StepPlan| {
            let eps = model
                .predict_planned(
                    &latent,
                    &step,
                    &prompt,
                    &plan_of(&cfg, &masked),
                    plan,
                    Some(&cache),
                    0,
                )
                .unwrap();
            masked
                .iter()
                .map(|&tok| {
                    eps.row(tok)
                        .unwrap()
                        .iter()
                        .zip(eps_ref.row(tok).unwrap().iter())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f32, f32::max)
                })
                .fold(0.0f32, f32::max)
        };
        let err_y = err(&StepPlan::all_cached_y(cfg.blocks));
        let err_kv = err(&StepPlan::all_cached_kv(cfg.blocks));
        assert!(
            err_kv <= err_y + 1e-6,
            "KV variant ({err_kv}) should be at least as accurate as Y variant ({err_y})"
        );
        // And with the latent identical to priming, KV must be exact.
        assert!(err_kv < 1e-4, "KV on identical latent should be exact");
    }

    #[test]
    fn plan_and_cache_validation() {
        let (cfg, model, prompt, step, latent) = setup();
        // Wrong plan length.
        let bad_plan = StepPlan::full(cfg.blocks + 1);
        assert!(matches!(
            model
                .predict_planned(
                    &latent,
                    &step,
                    &prompt,
                    &plan_of(&cfg, &[0]),
                    &bad_plan,
                    None,
                    0
                )
                .unwrap_err(),
            DiffusionError::InvalidPlan { .. }
        ));
        // Cached mode without a cache.
        assert!(matches!(
            model
                .predict_planned(
                    &latent,
                    &step,
                    &prompt,
                    &plan_of(&cfg, &[0]),
                    &StepPlan::all_cached_y(cfg.blocks),
                    None,
                    0
                )
                .unwrap_err(),
            DiffusionError::CacheMiss { .. }
        ));
        // KV mode with a Y-only cache.
        let cache = prime(&model, &latent, &step, &prompt, false);
        assert!(matches!(
            model
                .predict_planned(
                    &latent,
                    &step,
                    &prompt,
                    &plan_of(&cfg, &[0]),
                    &StepPlan::all_cached_kv(cfg.blocks),
                    Some(&cache),
                    0
                )
                .unwrap_err(),
            DiffusionError::CacheMiss { .. }
        ));
        // Sparse plan sized for a different token count.
        let oversized = SparsePlan::from_mask(cfg.tokens() + 1, &[cfg.tokens()]).unwrap();
        assert!(model
            .predict_planned(
                &latent,
                &step,
                &prompt,
                &oversized,
                &StepPlan::full(cfg.blocks),
                None,
                0
            )
            .is_err());
    }

    #[test]
    fn masked_only_leaves_unmasked_prediction_independent() {
        // In masked-only mode the unmasked rows' trajectory through the
        // stack is just the input projection (identity residuals), so
        // two different masked contents must not change unmasked rows.
        let (cfg, model, prompt, step, latent) = setup();
        let masked: Vec<usize> = vec![1, 2];
        let plan = StepPlan::masked_only(cfg.blocks);
        let eps_a = model
            .predict_planned(
                &latent,
                &step,
                &prompt,
                &plan_of(&cfg, &masked),
                &plan,
                None,
                0,
            )
            .unwrap();
        let mut latent_b = latent.clone();
        latent_b.row_mut(1).unwrap().fill(0.9);
        let eps_b = model
            .predict_planned(
                &latent_b,
                &step,
                &prompt,
                &plan_of(&cfg, &masked),
                &plan,
                None,
                0,
            )
            .unwrap();
        for tok in 0..cfg.tokens() {
            if masked.contains(&tok) {
                continue;
            }
            let same = eps_a
                .row(tok)
                .unwrap()
                .iter()
                .zip(eps_b.row(tok).unwrap().iter())
                .all(|(a, b)| (a - b).abs() < 1e-6);
            assert!(same, "unmasked row {tok} should be unaffected");
        }
    }

    #[test]
    fn attention_probe_shape_and_bounds() {
        let (cfg, model, _, _, latent) = setup();
        let emb = embed_prompt(&cfg, "tiny test");
        let probs = model.attention_probe(&latent, 0.5, &emb, 1).unwrap();
        assert_eq!(probs.dims(), &[cfg.tokens(), cfg.tokens()]);
        assert!(model
            .attention_probe(&latent, 0.5, &emb, cfg.blocks)
            .is_err());
    }

    #[test]
    fn step_plan_helpers() {
        let plan = StepPlan::from_use_cache(&[true, false, true], false);
        assert_eq!(
            plan.modes,
            vec![BlockMode::CachedY, BlockMode::Full, BlockMode::CachedY]
        );
        assert_eq!(plan.cached_blocks(), 2);
        assert_eq!(
            StepPlan::from_use_cache(&[false, true], true).modes,
            vec![BlockMode::Full, BlockMode::CachedKv]
        );
        assert_eq!(StepPlan::all_cached_kv(3).cached_blocks(), 3);
        assert_eq!(StepPlan::masked_only(3).cached_blocks(), 0);
    }
}
