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
    /// cached block output `Y` (Fig. 5-bottom). On a K/V entry, right
    /// after another cached block, the block attends over its cached
    /// panels instead, which are bitwise the K/V it would recompute.
    CachedY,
    /// Compute masked tokens only; attend over cached full-length `K`/
    /// `V` (Fig. 7). The unmasked rows are the cached output, which a
    /// K/V entry does not hold: only a next cached block reads them,
    /// through its own panels.
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
    /// Each block's entry is its output `Y`, or with `capture_kv` the
    /// `K`/`V` panels its attention read (the Fig. 7 variant) and no
    /// `Y`.
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
            // The cache keeps the K/V panels the block's attention read,
            // or a clone of Y, which also feeds the next block.
            captured.blocks.push(if capture_kv {
                BlockCache::Kv(out.kv)
            } else {
                BlockCache::Y(out.y.clone())
            });
            std::mem::replace(&mut x, out.y).recycle();
        }
        let xn = layer_norm(&x, &self.ln_f_g, &self.ln_f_b)?;
        x.recycle();
        let eps = matmul(&xn, &self.out_proj)?;
        xn.recycle();
        Ok((eps, captured))
    }

    /// Mask-aware noise prediction for one step under a per-block plan,
    /// for every row: `[L, latent_channels]`.
    ///
    /// `sparse` is the session's mask-derived token plan (built once
    /// per edit); its active set lists the masked rows.
    ///
    /// Rows of the prediction at unmasked positions are only meaningful
    /// insofar as the plan materializes them (cached plans replenish
    /// them; masked-only plans pass them through). An inpainting edit
    /// overwrites them, so it asks [`DiffusionModel::predict_planned_masked`]
    /// for the masked rows alone.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidPlan`] when the plan length
    /// disagrees with the block count or the sparse plan's row count
    /// disagrees with the token count, [`DiffusionError::CacheMiss`]
    /// when a cached mode lacks its entry (or a `CachedKv` block's entry
    /// holds no panels), [`DiffusionError::YNotCached`] when something
    /// reads the unmasked rows of a block whose entry holds panels, not
    /// `Y`, and propagates tensor shape errors.
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
        self.planned(latent, cond, prompt, sparse, plan, cache, step, true)
    }

    /// [`DiffusionModel::predict_planned`]'s masked rows only,
    /// `[n, latent_channels]` in `sparse.active()` order — bitwise those
    /// rows of its prediction, without computing the others: the input
    /// projection, the final norm and the output projection run on the
    /// masked rows, and runs of `CachedKv` and `MaskedOnly` blocks carry
    /// them gathered, never building an `[L, H]` tensor.
    ///
    /// # Errors
    ///
    /// As [`DiffusionModel::predict_planned`].
    #[allow(clippy::too_many_arguments)]
    pub fn predict_planned_masked(
        &self,
        latent: &Tensor,
        cond: &StepCond,
        prompt: &PromptCond,
        sparse: &SparsePlan,
        plan: &StepPlan,
        cache: Option<&TemplateCache>,
        step: usize,
    ) -> Result<Tensor> {
        self.planned(latent, cond, prompt, sparse, plan, cache, step, false)
    }

    /// The planned stack: every row of the prediction when `all_rows`,
    /// else the masked rows.
    ///
    /// Between blocks the activations are either all `L` rows or the
    /// `n` masked rows beside a record of where the other rows live
    /// ([`Rows`]). Every op a masked block runs is row-independent and
    /// bitwise the same on any row subset, so the gathered rows are the
    /// rows the `[L, H]` tensor would hold; it is built only where
    /// something reads an unmasked row — a `Full` or `CachedY` block, or
    /// an all-rows output.
    ///
    /// A K/V entry holds no `Y`. Where a block's unmasked input rows are
    /// the previous block's cached output, its cached panels are bitwise
    /// those rows' `K` and `V` (AdaLN and the projections are row-wise),
    /// so a `CachedY` block on a K/V entry there attends over them as a
    /// `CachedKv` block does. Anything else that reads a K/V entry's
    /// rows fails with [`DiffusionError::YNotCached`].
    #[allow(clippy::too_many_arguments)]
    fn planned(
        &self,
        latent: &Tensor,
        cond: &StepCond,
        prompt: &PromptCond,
        sparse: &SparsePlan,
        plan: &StepPlan,
        cache: Option<&TemplateCache>,
        step: usize,
        all_rows: bool,
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
        // The input projection's unmasked rows are read only if the
        // first block that does not pass them through (any but
        // `MaskedOnly`) reads them, or, with no such block, the output
        // does; a `CachedKv` block replaces them with its cached output.
        let first_reader = plan.modes.iter().find(|&&m| m != BlockMode::MaskedOnly);
        let input_read = first_reader.map_or(all_rows, |m| {
            matches!(m, BlockMode::Full | BlockMode::CachedY)
        });
        let mut x = if input_read {
            Rows::All(matmul(&latent, &self.in_proj)?)
        } else {
            let xm = matmul(&gather_rows(&latent, masked_idx)?, &self.in_proj)?;
            Rows::Masked(xm, Rest::Unread)
        };
        latent.recycle();
        let blocks = self.conditioned(prompt, cond).zip(&plan.modes);
        for (i, ((block, (cross, ada)), mode)) in blocks.enumerate() {
            x = match mode {
                BlockMode::Full => {
                    let xf = x.scattered(masked_idx, step)?;
                    let y = block.forward_full(&xf, cross, ada)?.y;
                    xf.recycle();
                    Rows::All(y)
                }
                BlockMode::CachedY => {
                    let entry = self.cache_entry(cache, step, i)?;
                    let ym = match (x, entry.kv()) {
                        // The unmasked rows are block i − 1's cached
                        // output, so the panels are their K and V.
                        (Rows::Masked(xm, Rest::Cached(prev, _)), Some(kv)) if prev + 1 == i => {
                            let ctx = MaskedContext::CachedKv { kv, masked_idx };
                            let ym = block.forward_masked(&xm, ctx, cross, ada)?;
                            xm.recycle();
                            ym
                        }
                        // Y variant: masked queries attend over fresh K/V
                        // of the full (cache-replenished) token matrix.
                        (x, _) => {
                            let xf = x.scattered(masked_idx, step)?;
                            let ym = block.forward_masked_full_kv(&xf, sparse, cross, ada)?;
                            xf.recycle();
                            ym
                        }
                    };
                    Rows::Masked(ym, Rest::Cached(i, entry.y()))
                }
                BlockMode::CachedKv => {
                    let entry = self.cache_entry(cache, step, i)?;
                    let kv = entry
                        .kv()
                        .ok_or(DiffusionError::CacheMiss { step, block: i })?;
                    let (xm, rest) = x.gathered(masked_idx)?;
                    rest.recycle();
                    let ctx = MaskedContext::CachedKv { kv, masked_idx };
                    let ym = block.forward_masked(&xm, ctx, cross, ada)?;
                    xm.recycle();
                    Rows::Masked(ym, Rest::Cached(i, entry.y()))
                }
                BlockMode::MaskedOnly => {
                    let (xm, rest) = x.gathered(masked_idx)?;
                    let ym = block.forward_masked(&xm, MaskedContext::SelfOnly, cross, ada)?;
                    xm.recycle();
                    Rows::Masked(ym, rest)
                }
            };
        }
        let x = if all_rows {
            x.scattered(masked_idx, step)?
        } else {
            let (xm, rest) = x.gathered(masked_idx)?;
            rest.recycle();
            xm
        };
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

/// The block stack's activations between two blocks of a planned step.
enum Rows<'a> {
    /// Every row, `[L, H]`.
    All(Tensor),
    /// The masked rows, `[n, H]` in the sparse plan's order; the other
    /// rows are the [`Rest`]'s.
    Masked(Tensor, Rest<'a>),
}

/// Where the unmasked rows of gathered activations live.
enum Rest<'a> {
    /// In the cache: the output of the last cached block (its index),
    /// which replenished them; `None` when its entry holds K/V panels,
    /// not that `Y`.
    Cached(usize, Option<&'a Tensor>),
    /// In the `[L, H]` input of a run of `MaskedOnly` blocks, which pass
    /// them through.
    Input(Tensor),
    /// Nowhere: the input projection skipped them, as nothing reads
    /// them before a cached block replaces them.
    Unread,
}

impl Rest<'_> {
    fn recycle(self) {
        if let Rest::Input(x) = self {
            x.recycle();
        }
    }
}

impl<'a> Rows<'a> {
    /// All `L` rows: the unmasked ones' home with the masked rows
    /// scattered in; `step` labels the error when the cache does not
    /// hold them.
    fn scattered(self, masked_idx: &[usize], step: usize) -> Result<Tensor> {
        let (xm, rest) = match self {
            Rows::All(x) => return Ok(x),
            Rows::Masked(xm, rest) => (xm, rest),
        };
        let mut x = match rest {
            Rest::Cached(_, Some(y)) => y.clone(),
            Rest::Cached(block, None) => return Err(DiffusionError::YNotCached { step, block }),
            Rest::Input(x) => x,
            Rest::Unread => {
                return Err(DiffusionError::InvalidPlan {
                    reason: "a block read unmasked rows the input projection skipped".into(),
                })
            }
        };
        scatter_rows_into(&mut x, &xm, masked_idx)?;
        xm.recycle();
        Ok(x)
    }

    /// The masked rows, and where the others live.
    fn gathered(self, masked_idx: &[usize]) -> Result<(Tensor, Rest<'a>)> {
        match self {
            Rows::All(x) => Ok((gather_rows(&x, masked_idx)?, Rest::Input(x))),
            Rows::Masked(xm, rest) => Ok((xm, rest)),
        }
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
        assert!(cap
            .blocks
            .iter()
            .all(|b| b.kv().is_some() && b.y().is_none()));
        let (_, cap) = model.predict_full(&latent, &step, &prompt, false).unwrap();
        assert!(cap
            .blocks
            .iter()
            .all(|b| b.kv().is_none() && b.y().is_some()));
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
        // must not exceed the Y variant's. Each variant runs on the cache
        // primed for it, and only the masked rows are predicted: a K/V
        // cache holds no Y to replenish the others from.
        let (cfg, model, prompt, step, latent) = setup();
        let masked: Vec<usize> = vec![2, 5, 7, 12];
        let (eps_ref, _) = model.predict_full(&latent, &step, &prompt, false).unwrap();
        let err = |plan: &StepPlan, kv: bool| {
            let cache = prime(&model, &latent, &step, &prompt, kv);
            let eps = model
                .predict_planned_masked(
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
                .enumerate()
                .map(|(row, &tok)| {
                    eps.row(row)
                        .unwrap()
                        .iter()
                        .zip(eps_ref.row(tok).unwrap().iter())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f32, f32::max)
                })
                .fold(0.0f32, f32::max)
        };
        let err_y = err(&StepPlan::all_cached_y(cfg.blocks), false);
        let err_kv = err(&StepPlan::all_cached_kv(cfg.blocks), true);
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

    /// The planned step as it was before masked rows stayed gathered:
    /// every block's output scattered back into an `[L, H]` tensor, and
    /// the final norm and projection over all rows, with `Y` from
    /// `y_cache` and K/V from `kv_cache`, as when one entry held both.
    /// The reference the gathered chain must match bit for bit wherever
    /// its cache serves the plan.
    #[allow(clippy::too_many_arguments)]
    fn predict_scattered(
        model: &DiffusionModel,
        latent: &Tensor,
        cond: &StepCond,
        prompt: &PromptCond,
        sparse: &SparsePlan,
        plan: &StepPlan,
        y_cache: &TemplateCache,
        kv_cache: &TemplateCache,
    ) -> Result<Tensor> {
        let idx = sparse.active();
        let mut x = matmul(&model.apply_scaffold(latent)?, &model.in_proj)?;
        let blocks = model.conditioned(prompt, cond).zip(&plan.modes);
        for (i, ((block, (cross, ada)), mode)) in blocks.enumerate() {
            let y = y_cache.get(0, i)?.y().expect("Y primed");
            let ym = match mode {
                BlockMode::Full => {
                    x = block.forward_full(&x, cross, ada)?.y;
                    continue;
                }
                BlockMode::MaskedOnly => {
                    let xm = gather_rows(&x, idx)?;
                    block.forward_masked(&xm, MaskedContext::SelfOnly, cross, ada)?
                }
                BlockMode::CachedY => {
                    let ym = block.forward_masked_full_kv(&x, sparse, cross, ada)?;
                    x = y.clone();
                    ym
                }
                BlockMode::CachedKv => {
                    let kv = kv_cache.get(0, i)?.kv().expect("K/V primed");
                    let ctx = MaskedContext::CachedKv {
                        kv,
                        masked_idx: idx,
                    };
                    let ym = block.forward_masked(&gather_rows(&x, idx)?, ctx, cross, ada)?;
                    x = y.clone();
                    ym
                }
            };
            scatter_rows_into(&mut x, &ym, idx)?;
        }
        let xn = layer_norm(&x, &model.ln_f_g, &model.ln_f_b)?;
        Ok(matmul(&xn, &model.out_proj)?)
    }

    /// The error `plan` must fail with on `cache` (step 0) because the
    /// cache does not hold what it reads, if any: a `CachedKv` block
    /// without panels, or a read of the unmasked rows a K/V entry's
    /// block left. Only a `CachedY` block with panels right after a
    /// cached block reads such rows through its panels.
    fn unserved(plan: &StepPlan, cache: &TemplateCache, all_rows: bool) -> Option<DiffusionError> {
        let cached = |m: &BlockMode| matches!(m, BlockMode::CachedY | BlockMode::CachedKv);
        // The K/V-cached block whose output the unmasked rows are.
        let mut unheld: Option<usize> = None;
        for (i, mode) in plan.modes.iter().enumerate() {
            let entry = cache.get(0, i).unwrap();
            let via_panels = entry.kv().is_some() && i > 0 && cached(&plan.modes[i - 1]);
            let reads = match mode {
                BlockMode::Full => true,
                BlockMode::CachedY => !via_panels,
                BlockMode::CachedKv | BlockMode::MaskedOnly => false,
            };
            if let (true, Some(block)) = (reads, unheld) {
                return Some(DiffusionError::YNotCached { step: 0, block });
            }
            match mode {
                BlockMode::CachedKv if entry.kv().is_none() => {
                    return Some(DiffusionError::CacheMiss { step: 0, block: i })
                }
                BlockMode::Full => unheld = None,
                m if cached(m) => unheld = entry.y().is_none().then_some(i),
                _ => {}
            }
        }
        unheld
            .filter(|_| all_rows)
            .map(|block| DiffusionError::YNotCached { step: 0, block })
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A cache holding each block's entry from `kv_cache` where `plan`
    /// runs it `CachedKv`, else from `y_cache`.
    fn mixed_cache(
        plan: &StepPlan,
        y_cache: &TemplateCache,
        kv_cache: &TemplateCache,
    ) -> TemplateCache {
        let mut cache = TemplateCache::new(7, y_cache.tokens, y_cache.hidden);
        let blocks = plan.modes.iter().enumerate().map(|(i, m)| {
            let from = if *m == BlockMode::CachedKv {
                kv_cache
            } else {
                y_cache
            };
            from.get(0, i).unwrap().clone()
        });
        cache.push_step(StepCache {
            blocks: blocks.collect(),
        });
        cache
    }

    /// The gathered chain against the scattered reference, bitwise, for
    /// every plan of `plans` at masks of 0, 1, 7 and all `L` tokens, on
    /// three caches of one priming: Y-only, K/V-only, and per plan one
    /// with K/V exactly at its `CachedKv` blocks. Where the cache serves
    /// the plan, the all-rows prediction equals the reference and the
    /// masked-rows one equals its masked rows; where it does not, both
    /// fail with the typed error [`unserved`] names. A cache primed on
    /// another latent makes every cached row differ from what the blocks
    /// would compute.
    fn assert_gathered_matches_scattered(cfg: &ModelConfig, plans: &[StepPlan]) {
        let model = DiffusionModel::new(cfg).unwrap();
        let prompt = model.prompt_cond(&embed_prompt(cfg, "a door")).unwrap();
        let step = model.step_cond(0.6).unwrap();
        let shape = [cfg.tokens(), cfg.latent_channels];
        let primed = Tensor::randn(shape, &mut DetRng::new(31));
        let y_cache = prime(&model, &primed, &step, &prompt, false);
        let kv_cache = prime(&model, &primed, &step, &prompt, true);
        let latent = Tensor::randn(shape, &mut DetRng::new(32));
        let mut rng = DetRng::new(33);
        for n in [0, 1, 7, cfg.tokens()] {
            let mut masked: Vec<usize> = (0..cfg.tokens()).collect();
            for i in 0..n {
                masked.swap(i, i + rng.below(cfg.tokens() - i));
            }
            let sparse = plan_of(cfg, &masked[..n]);
            for plan in plans {
                let reference = predict_scattered(
                    &model, &latent, &step, &prompt, &sparse, plan, &y_cache, &kv_cache,
                );
                let mixed = mixed_cache(plan, &y_cache, &kv_cache);
                for (kind, cache) in [("Y", &y_cache), ("K/V", &kv_cache), ("mixed", &mixed)] {
                    let label = format!("{} n={n} {:?} on {kind}", cfg.name, plan.modes);
                    let run = |all_rows| {
                        let got = model.planned(
                            &latent,
                            &step,
                            &prompt,
                            &sparse,
                            plan,
                            Some(cache),
                            0,
                            all_rows,
                        );
                        let want = match (&reference, unserved(plan, cache, all_rows)) {
                            // A masked-only block has no key to attend
                            // over at n = 0; either failure may come first.
                            (Err(e), missing) => {
                                let got = got.unwrap_err();
                                assert!(got == *e || Some(&got) == missing.as_ref(), "{label}");
                                return;
                            }
                            (Ok(_), Some(missing)) => {
                                assert_eq!(got.unwrap_err(), missing, "{label}");
                                return;
                            }
                            (Ok(r), None) if all_rows => r.clone(),
                            (Ok(r), None) => gather_rows(r, sparse.active()).unwrap(),
                        };
                        assert_eq!(
                            bits(&got.unwrap()),
                            bits(&want),
                            "{label} all_rows {all_rows}"
                        );
                    };
                    run(true);
                    run(false);
                }
            }
        }
    }

    const MODES: [BlockMode; 4] = [
        BlockMode::Full,
        BlockMode::CachedY,
        BlockMode::CachedKv,
        BlockMode::MaskedOnly,
    ];

    #[test]
    fn gathered_chain_matches_scattered_reference_on_every_tiny_plan() {
        let cfg = ModelConfig::tiny();
        assert_eq!(cfg.blocks, 2);
        let plans: Vec<StepPlan> = MODES
            .iter()
            .flat_map(|&a| MODES.map(|b| StepPlan { modes: vec![a, b] }))
            .collect();
        assert_gathered_matches_scattered(&cfg, &plans);
    }

    #[test]
    fn gathered_chain_matches_scattered_reference_on_sdxl_like() {
        let cfg = ModelConfig::sdxl_like();
        let mut rng = DetRng::new(34);
        // The served plans; a `CachedY` block behind a masked-only one
        // behind a cached one, whose K/V panels do not stand for the
        // rows the masked-only block passed through; then seeded mixes
        // of all four modes.
        use BlockMode::{CachedY, Full, MaskedOnly};
        let mut plans = vec![
            StepPlan::all_cached_kv(cfg.blocks),
            StepPlan::all_cached_y(cfg.blocks),
            StepPlan {
                modes: vec![Full, CachedY, MaskedOnly, CachedY, CachedY, MaskedOnly],
            },
        ];
        plans.extend((0..4).map(|_| StepPlan {
            modes: (0..cfg.blocks).map(|_| MODES[rng.below(4)]).collect(),
        }));
        assert_gathered_matches_scattered(&cfg, &plans);
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
