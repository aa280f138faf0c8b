//! End-to-end image editing pipeline: encode → denoise (under a serving
//! strategy) → decode.

use fps_tensor::ops::gather_rows;
use fps_tensor::ops::sparse::SparsePlan;
use fps_tensor::rng::{hash_bytes, DetRng};
use fps_tensor::Tensor;
use fps_trace::{Clock, TraceSink, Track};

use crate::cache::TemplateCache;
use crate::config::ModelConfig;
use crate::embedding::embed_prompt;
use crate::error::DiffusionError;
use crate::flops;
use crate::image::Image;
use crate::model::{DiffusionModel, PromptCond, StepCond, StepPlan};
use crate::sampler::{ddim_step, inpaint_blend, noise_to_level, NoiseSchedule};
use crate::vae::PatchVae;
use crate::Result;

/// The serving strategies the paper evaluates, expressed as compute
/// plans over the same model.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Full-image regeneration at every step (the Diffusers baseline).
    FullRecompute,
    /// FlashPS mask-aware editing: blocks with `use_cache[i] == true`
    /// compute masked tokens only and replenish unmasked rows from the
    /// template cache; others compute in full. `kv` selects the Fig. 7
    /// cached-K/V variant for the cached blocks.
    MaskAware {
        /// Algorithm 1's per-block decision (length = model blocks).
        use_cache: Vec<bool>,
        /// Use the cached-K/V attention variant instead of cached-Y.
        kv: bool,
    },
    /// FISEdit-style sparse editing: masked tokens only, every block, no
    /// cache and hence no cross-region attention.
    MaskedOnly,
    /// TeaCache-style step skipping: reuse the previous step's noise
    /// prediction while the accumulated timestep-embedding drift stays
    /// below `threshold`.
    StepSkip {
        /// Relative-drift accumulation threshold; larger skips more
        /// steps (faster, lower fidelity).
        threshold: f32,
    },
    /// Generate the masked region with no template context at all and
    /// paste it back (the distorted rightmost example of Fig. 1).
    NaiveDisregard,
}

impl Strategy {
    /// Short human-readable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Self::FullRecompute => "diffusers",
            Self::MaskAware { kv: false, .. } => "flashps",
            Self::MaskAware { kv: true, .. } => "flashps-kv",
            Self::MaskedOnly => "fisedit",
            Self::StepSkip { .. } => "teacache",
            Self::NaiveDisregard => "naive",
        }
    }
}

/// Classifier-free guidance configuration.
///
/// Production pipelines run two conditioning passes per step — one on
/// the prompt, one on a negative prompt — and extrapolate:
/// `eps = eps_neg + scale · (eps_cond − eps_neg)`. Guidance doubles the
/// per-step compute, which the FLOP accounting reflects.
#[derive(Debug, Clone, PartialEq)]
pub struct Guidance {
    /// Guidance scale (> 1 amplifies the prompt; 1.0 disables).
    pub scale: f32,
    /// Negative prompt (often empty).
    pub negative_prompt: String,
}

impl Guidance {
    /// Standard guidance at the given scale with an empty negative
    /// prompt.
    pub fn cfg(scale: f32) -> Self {
        Self {
            scale,
            negative_prompt: String::new(),
        }
    }
}

/// Result of one edit, with compute accounting.
#[derive(Debug, Clone)]
pub struct EditOutput {
    /// The edited image.
    pub image: Image,
    /// The final clean latent.
    pub latent: Tensor,
    /// Denoising steps that executed model computation.
    pub steps_computed: usize,
    /// Denoising steps skipped by step-skipping strategies.
    pub steps_skipped: usize,
    /// Total transformer FLOPs spent (per the Table 1 accounting).
    pub flops: u64,
}

/// An in-flight incremental edit: per-request denoising state that a
/// serving system advances one step at a time.
#[derive(Debug, Clone)]
pub struct EditSession {
    template: Image,
    z_template: Tensor,
    template_noise: Tensor,
    masked_idx: Vec<usize>,
    /// The mask-derived token plan, built once at `begin` and reused by
    /// every denoising step.
    plan: std::sync::Arc<SparsePlan>,
    strategy: Strategy,
    /// The denoiser passes of one step, each a prompt's per-block
    /// cross-attention K/V (projected once, here) and its weight in the
    /// noise prediction: the prompt alone, or under classifier-free
    /// guidance `(1 − scale)·eps_neg + scale·eps_cond`.
    passes: Vec<(PromptCond, f32)>,
    /// The strategy's per-block modes; `None` runs the full model.
    step_plan: Option<StepPlan>,
    /// Transformer FLOPs of one computed step, all passes.
    flops_per_step: u64,
    x: Tensor,
    step: usize,
    total_steps: usize,
    steps_computed: usize,
    steps_skipped: usize,
    flops: u64,
    // TeaCache state.
    prev_eps: Option<Tensor>,
    last_computed_t: Option<f32>,
    drift_acc: f32,
}

impl EditSession {
    /// Whether every denoising step has executed.
    pub fn is_done(&self) -> bool {
        self.step >= self.total_steps
    }

    /// Steps executed so far.
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// Total steps of the schedule.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// Steps still to run.
    pub fn steps_left(&self) -> usize {
        self.total_steps - self.step
    }

    /// The session's mask ratio (masked tokens / total tokens).
    pub fn mask_ratio(&self) -> f64 {
        if self.z_template.dims()[0] == 0 {
            return 0.0;
        }
        self.masked_idx.len() as f64 / self.z_template.dims()[0] as f64
    }

    /// The serving strategy of this session.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The session's mask-derived sparse compute plan.
    pub fn sparse_plan(&self) -> &SparsePlan {
        &self.plan
    }

    /// Which pipeline stage this session is at: [`begin`] already ran
    /// (encode is never observable on a live session), so the session
    /// is denoising until its last step executes, then ready for
    /// decode. Stage-graph executors use this to place a session in
    /// the right pool.
    ///
    /// [`begin`]: EditPipeline::begin
    pub fn stage(&self) -> PipelineStage {
        if self.is_done() {
            PipelineStage::Decode
        } else {
            PipelineStage::Denoise
        }
    }
}

/// The disaggregation split points of [`EditPipeline`]: the session
/// API's three seams, each independently schedulable by a stage-graph
/// executor. [`EditPipeline::begin`] / [`EditPipeline::begin_guided`]
/// are the whole of [`PipelineStage::Encode`] (prompt embedding +
/// latent setup), [`EditPipeline::step`] advances
/// [`PipelineStage::Denoise`] one step at a time, and
/// [`EditPipeline::finish`] is [`PipelineStage::Decode`] (VAE +
/// paste-back). Outputs are a function of the session state alone, so
/// *where* each seam runs — one thread, one pool per stage, one
/// machine per stage — never changes the bytes produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Session setup: prompt embedding, template latents, noise init.
    Encode,
    /// Iterative denoising under the serving strategy.
    Denoise,
    /// VAE decode and inpaint paste-back.
    Decode,
}

impl PipelineStage {
    /// Short label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Encode => "encode",
            Self::Denoise => "denoise",
            Self::Decode => "decode",
        }
    }
}

/// The editing pipeline: model + VAE + schedule.
#[derive(Debug, Clone)]
pub struct EditPipeline {
    model: DiffusionModel,
    vae: PatchVae,
    schedule: NoiseSchedule,
    /// Every block's AdaLN vectors at each denoising step's timestep —
    /// a function of the schedule alone, shared by every request.
    step_conds: Vec<StepCond>,
    /// Wall-clock trace sink for pipeline stages (session setup, each
    /// denoising step, VAE decode). Meant for direct single-threaded
    /// API use; multi-worker servers keep their own per-worker spans.
    trace: TraceSink,
    trace_track: Track,
}

impl EditPipeline {
    /// Builds the pipeline for a model config.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidConfig`] for inconsistent
    /// configs.
    pub fn new(cfg: &ModelConfig) -> Result<Self> {
        let model = DiffusionModel::new(cfg)?;
        let schedule = NoiseSchedule::new(cfg.steps)?;
        let step_conds = (0..schedule.steps())
            .map(|k| model.step_cond(schedule.t_norm(k)))
            .collect::<Result<_>>()?;
        Ok(Self {
            model,
            vae: PatchVae::new(cfg)?,
            schedule,
            step_conds,
            trace: TraceSink::disabled(),
            trace_track: Track::default(),
        })
    }

    /// Attaches a wall-clock trace sink; `begin`/`step`/`finish` emit
    /// `pipeline`-category spans on `track`.
    ///
    /// # Panics
    ///
    /// Panics on a virtual-clock sink: the pipeline does real compute
    /// and timestamps with real time.
    pub fn set_trace_sink(&mut self, sink: TraceSink, track: Track) {
        assert_ne!(
            sink.clock(),
            Some(Clock::Virtual),
            "EditPipeline stages run on the wall clock; use \
             TraceSink::recording(Clock::Wall)"
        );
        sink.name_track(track, "pipeline");
        self.trace = sink;
        self.trace_track = track;
    }

    /// Enables (or disables) per-kernel tracing: every tensor kernel
    /// invocation (`matmul`, `softmax_rows`, `conv3x3`, …) emits a
    /// `kernel`-category span into this pipeline's trace sink on the
    /// pipeline's track. Off by default — kernel spans are high-volume
    /// and cost one timestamp pair per op.
    ///
    /// The kernel observer is process-global (the tensor crate knows
    /// nothing about traces), so enable it on one pipeline at a time;
    /// disabling clears the global observer.
    pub fn trace_kernels(&self, enabled: bool) {
        if !enabled {
            fps_tensor::ktrace::set_observer(None);
            return;
        }
        let sink = self.trace.clone();
        let track = self.trace_track;
        fps_tensor::ktrace::set_observer(Some(std::sync::Arc::new(
            move |ev: &fps_tensor::ktrace::KernelEvent| {
                let s = sink.instant_ns(ev.start);
                let e = sink.instant_ns(ev.end);
                let args = ev
                    .mask_ratio
                    .map(|r| ("mask_ratio", fps_json::Json::F64(f64::from(r))))
                    .into_iter()
                    .collect();
                sink.span_at(ev.name, "kernel", track, s, e, 0, args);
            },
        )));
    }

    /// Returns the model config.
    pub fn config(&self) -> &ModelConfig {
        self.model.config()
    }

    /// Returns the underlying denoiser (for probes and analyses).
    pub fn model(&self) -> &DiffusionModel {
        &self.model
    }

    /// Returns the VAE.
    pub fn vae(&self) -> &PatchVae {
        &self.vae
    }

    /// Returns the noise schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The fixed per-template noise shared by priming and every edit of
    /// the template — what makes cached activations consistent across
    /// requests.
    fn template_noise(&self, template_id: u64) -> Tensor {
        let cfg = self.model.config();
        let seed = hash_bytes(&template_id.to_le_bytes(), cfg.weight_seed ^ 0x7E3D);
        Tensor::randn([cfg.tokens(), cfg.latent_channels], &mut DetRng::new(seed))
    }

    /// Primes the activation cache for a template: runs the full model
    /// at every denoising step on the re-noised template latent and
    /// captures per-block activations (§2.2 "reusability of the
    /// templates" — in production the first inference on a template
    /// plays this role).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from a template that does not match the
    /// model's pixel dimensions.
    pub fn prime(
        &self,
        template: &Image,
        template_id: u64,
        capture_kv: bool,
    ) -> Result<TemplateCache> {
        let cfg = self.model.config();
        let z = self.vae.encode(template)?;
        let noise = self.template_noise(template_id);
        // Priming is unconditional.
        let prompt = self.model.prompt_cond(&embed_prompt(cfg, ""))?;
        let mut cache = TemplateCache::new(template_id, cfg.tokens(), cfg.hidden);
        for (k, cond) in self.step_conds.iter().enumerate() {
            let x = noise_to_level(&z, &noise, self.schedule.abar(k))?;
            let (_, step) = self.model.predict_full(&x, cond, &prompt, capture_kv)?;
            cache.push_step(step);
        }
        Ok(cache)
    }

    /// Edits a template: generates the masked tokens under `strategy`
    /// while preserving unmasked content.
    ///
    /// `masked_idx` lists the latent-token indices to regenerate;
    /// `seed` drives the per-request initial noise; `cache` must be the
    /// template's primed cache for the mask-aware strategies and may be
    /// `None` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidPlan`] for strategy/plan
    /// mismatches, [`DiffusionError::CacheMiss`] when a mask-aware
    /// strategy lacks cache entries, and propagates shape errors.
    /// Edits a template: generates the masked tokens under `strategy`
    /// while preserving unmasked content.
    ///
    /// Convenience wrapper over [`EditPipeline::begin`] /
    /// [`EditPipeline::step`] / [`EditPipeline::finish`], running every
    /// denoising step back-to-back. Serving systems that interleave
    /// requests (continuous batching) drive the session API directly.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidPlan`] for strategy/plan
    /// mismatches, [`DiffusionError::CacheMiss`] when a mask-aware
    /// strategy lacks cache entries, and propagates shape errors.
    #[allow(clippy::too_many_arguments)]
    pub fn edit(
        &self,
        template: &Image,
        template_id: u64,
        masked_idx: &[usize],
        prompt: &str,
        seed: u64,
        strategy: &Strategy,
        cache: Option<&TemplateCache>,
    ) -> Result<EditOutput> {
        let mut session = self.begin(
            template,
            template_id,
            masked_idx,
            prompt,
            seed,
            strategy.clone(),
        )?;
        while !session.is_done() {
            self.step(&mut session, cache)?;
        }
        self.finish(session)
    }

    /// Starts an incremental editing session (one denoising step at a
    /// time) — the primitive continuous batching schedules around
    /// (§4.3: "new requests can join the batch in just one step").
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::MaskLengthMismatch`] for out-of-range
    /// mask tokens and [`DiffusionError::InvalidPlan`] for malformed
    /// mask-aware plans.
    pub fn begin(
        &self,
        template: &Image,
        template_id: u64,
        masked_idx: &[usize],
        prompt: &str,
        seed: u64,
        strategy: Strategy,
    ) -> Result<EditSession> {
        self.begin_guided(
            template,
            template_id,
            masked_idx,
            prompt,
            seed,
            strategy,
            None,
        )
    }

    /// [`EditPipeline::begin`] with optional classifier-free guidance.
    ///
    /// # Errors
    ///
    /// As [`EditPipeline::begin`].
    #[allow(clippy::too_many_arguments)]
    pub fn begin_guided(
        &self,
        template: &Image,
        template_id: u64,
        masked_idx: &[usize],
        prompt: &str,
        seed: u64,
        strategy: Strategy,
        guidance: Option<Guidance>,
    ) -> Result<EditSession> {
        let mut span = self
            .trace
            .start("pipeline_begin", "pipeline", self.trace_track, 0);
        span.arg("template", template_id);
        let cfg = self.model.config();
        if let Some(&bad) = masked_idx.iter().find(|&&i| i >= cfg.tokens()) {
            return Err(DiffusionError::MaskLengthMismatch {
                expected: cfg.tokens(),
                actual: bad + 1,
            });
        }
        if let Strategy::MaskAware { use_cache, .. } = &strategy {
            if use_cache.len() != cfg.blocks {
                return Err(DiffusionError::InvalidPlan {
                    reason: format!(
                        "use_cache has {} entries for {} blocks",
                        use_cache.len(),
                        cfg.blocks
                    ),
                });
            }
        }
        let z_template = self.vae.encode(template)?;
        let template_noise = self.template_noise(template_id);
        let req_seed = hash_bytes(prompt.as_bytes(), seed ^ 0xED17);
        let req_noise = Tensor::randn(
            [cfg.tokens(), cfg.latent_channels],
            &mut DetRng::new(req_seed),
        );

        // Initial latent: re-noised template, masked rows replaced with
        // request noise (naive disregard starts from pure noise with no
        // template at all).
        let x = if matches!(strategy, Strategy::NaiveDisregard) {
            req_noise
        } else {
            let mut x = noise_to_level(&z_template, &template_noise, self.schedule.abar(0))?;
            let fresh = fps_tensor::ops::gather_rows(&req_noise, masked_idx)?;
            fps_tensor::ops::scatter_rows_into(&mut x, &fresh, masked_idx)?;
            x
        };
        // Everything a step needs that does not change between steps is
        // derived here: the prompts' cross-attention K/V per block, the
        // strategy's per-block modes, and the FLOPs of a computed step.
        let cond = self.model.prompt_cond(&embed_prompt(cfg, prompt))?;
        let passes = match guidance.filter(|g| (g.scale - 1.0).abs() > 1e-6) {
            None => vec![(cond, 1.0)],
            Some(g) => {
                let neg = self
                    .model
                    .prompt_cond(&embed_prompt(cfg, &g.negative_prompt))?;
                vec![(neg, 1.0 - g.scale), (cond, g.scale)]
            }
        };
        let mask_ratio = masked_idx.len() as f64 / cfg.tokens() as f64;
        let (step_plan, flops_per_pass) = match &strategy {
            Strategy::FullRecompute | Strategy::StepSkip { .. } => {
                (None, flops::step_flops_full(cfg, 1))
            }
            Strategy::MaskAware { use_cache, kv } => (
                Some(StepPlan::from_use_cache(use_cache, *kv)),
                flops::step_flops_plan(cfg, 1, mask_ratio, use_cache, *kv),
            ),
            Strategy::MaskedOnly | Strategy::NaiveDisregard => (
                Some(StepPlan::masked_only(cfg.blocks)),
                flops::step_flops_masked_only(cfg, 1, mask_ratio),
            ),
        };
        let flops_per_step = flops_per_pass * passes.len() as u64;
        // One mask-derived plan per edit, shared by every step.
        let plan = SparsePlan::from_mask(cfg.tokens(), masked_idx)?;
        Ok(EditSession {
            template: template.clone(),
            z_template,
            template_noise,
            masked_idx: masked_idx.to_vec(),
            plan: std::sync::Arc::new(plan),
            strategy,
            passes,
            step_plan,
            flops_per_step,
            x,
            step: 0,
            total_steps: self.schedule.steps(),
            steps_computed: 0,
            steps_skipped: 0,
            flops: 0,
            prev_eps: None,
            last_computed_t: None,
            drift_acc: 0.0,
        })
    }

    /// Executes one denoising step of a session. No-op on a finished
    /// session.
    ///
    /// `cache` must be the template's primed cache for mask-aware
    /// strategies (the worker fetches it from the cache engine).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::CacheMiss`] when a mask-aware strategy
    /// lacks cache entries, and propagates shape errors.
    pub fn step(&self, s: &mut EditSession, cache: Option<&TemplateCache>) -> Result<()> {
        if s.is_done() {
            return Ok(());
        }
        let mut span = self
            .trace
            .start("pipeline_step", "pipeline", self.trace_track, 0);
        span.arg("step", s.step as u64);
        let k = s.step;
        let t = self.schedule.t_norm(k);
        // TeaCache's skip decision applies to the whole (guided) step.
        let skip = if let Strategy::StepSkip { threshold } = &s.strategy {
            // The drift indicator is the accumulated normalized
            // timestep distance since the last computed step — a
            // faithful simplification of "Timestep Embedding Tells"
            // (the embedding is a smooth function of t, so its drift is
            // monotone in |Δt|).
            let drift = match s.last_computed_t {
                Some(prev) => (prev - t).abs(),
                None => f32::INFINITY,
            };
            s.drift_acc = if drift.is_finite() {
                s.drift_acc + drift
            } else {
                f32::INFINITY
            };
            s.drift_acc < *threshold && s.prev_eps.is_some()
        } else {
            false
        };

        // The blend overwrites every unmasked row, so wherever it runs
        // the step predicts and steps the masked rows alone.
        let blend = !matches!(s.strategy, Strategy::NaiveDisregard);
        let masked = s.plan.active();
        let eps = if skip {
            s.steps_skipped += 1;
            s.prev_eps
                .clone()
                .ok_or_else(|| DiffusionError::InvalidPlan {
                    reason: format!("step {k} skipped with no previous noise prediction"),
                })?
        } else {
            let cond = self
                .step_conds
                .get(k)
                .ok_or_else(|| DiffusionError::InvalidPlan {
                    reason: format!("step {k} is past this pipeline's schedule"),
                })?;
            // Only the mask-aware strategies read the template cache.
            let cache = cache.filter(|_| matches!(s.strategy, Strategy::MaskAware { .. }));
            // One denoiser run per pass, combined linearly.
            let mut acc: Option<Tensor> = None;
            for (prompt, weight) in &s.passes {
                let eps_pass = match &s.step_plan {
                    None => {
                        let eps = self.model.predict_full(&s.x, cond, prompt, false)?.0;
                        if blend {
                            let rows = gather_rows(&eps, masked)?;
                            eps.recycle();
                            rows
                        } else {
                            eps
                        }
                    }
                    Some(plan) if blend => self
                        .model
                        .predict_planned_masked(&s.x, cond, prompt, &s.plan, plan, cache, k)?,
                    Some(plan) => self
                        .model
                        .predict_planned(&s.x, cond, prompt, &s.plan, plan, cache, k)?,
                };
                match &mut acc {
                    None => acc = Some(eps_pass.scale(*weight)),
                    Some(a) => a.axpy(*weight, &eps_pass)?,
                }
                eps_pass.recycle();
            }
            s.flops += s.flops_per_step;
            s.steps_computed += 1;
            if matches!(s.strategy, Strategy::StepSkip { .. }) {
                s.last_computed_t = Some(t);
                s.drift_acc = 0.0;
            }
            acc.ok_or_else(|| DiffusionError::InvalidPlan {
                reason: "session has no conditioning pass".to_string(),
            })?
        };
        if matches!(s.strategy, Strategy::StepSkip { .. }) {
            s.prev_eps = Some(eps.clone());
        }
        let (abar, abar_next) = (self.schedule.abar(k), self.schedule.abar_next(k));
        let next = if blend {
            let xm = gather_rows(&s.x, masked)?;
            let stepped = ddim_step(&xm, &eps, abar, abar_next)?;
            inpaint_blend(
                &stepped,
                &s.z_template,
                &s.template_noise,
                abar_next,
                masked,
            )?
        } else {
            ddim_step(&s.x, &eps, abar, abar_next)?
        };
        std::mem::replace(&mut s.x, next).recycle();
        eps.recycle();
        s.step += 1;
        Ok(())
    }

    /// Decodes a completed session into the edit output.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidPlan`] when the session still
    /// has steps left; propagates decode shape errors.
    pub fn finish(&self, s: EditSession) -> Result<EditOutput> {
        let _span = self
            .trace
            .start("pipeline_decode", "pipeline", self.trace_track, 0);
        if !s.is_done() {
            return Err(DiffusionError::InvalidPlan {
                reason: format!(
                    "session finished early: step {} of {}",
                    s.step, s.total_steps
                ),
            });
        }
        let mut image = self.vae.decode(&s.x)?;
        if matches!(s.strategy, Strategy::NaiveDisregard) {
            // Paste the generated masked patches into the template —
            // the unmasked latent was never anchored to the template.
            image = self.paste_masked_patches(&s.template, &image, &s.masked_idx);
        }
        image.clamp();
        Ok(EditOutput {
            image,
            latent: s.x,
            steps_computed: s.steps_computed,
            steps_skipped: s.steps_skipped,
            flops: s.flops,
        })
    }

    /// Copies only the masked tokens' pixel patches from `generated`
    /// onto `template`.
    fn paste_masked_patches(
        &self,
        template: &Image,
        generated: &Image,
        masked_idx: &[usize],
    ) -> Image {
        let cfg = self.model.config();
        let mut out = template.clone();
        for &tok in masked_idx {
            let ty = tok / cfg.latent_w;
            let tx = tok % cfg.latent_w;
            for dy in 0..cfg.patch {
                for dx in 0..cfg.patch {
                    let (y, x) = (ty * cfg.patch + dy, tx * cfg.patch + dx);
                    if let Some(px) = generated.pixel(y, x) {
                        out.set_pixel(y, x, px);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ModelConfig, EditPipeline, Image, TemplateCache) {
        let cfg = ModelConfig::tiny();
        let pipe = EditPipeline::new(&cfg).unwrap();
        let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 42);
        let cache = pipe.prime(&template, 1, true).unwrap();
        (cfg, pipe, template, cache)
    }

    fn masked() -> Vec<usize> {
        vec![5, 6, 9, 10] // A 2×2 block in the 4×4 tiny latent grid.
    }

    #[test]
    fn session_stage_tracks_the_split_points() {
        let (cfg, pipe, template, cache) = setup();
        let strat = Strategy::MaskAware {
            use_cache: vec![true; cfg.blocks],
            kv: false,
        };
        let mut s = pipe
            .begin(&template, 1, &masked(), "a red box", 7, strat)
            .unwrap();
        assert_eq!(s.stage(), PipelineStage::Denoise);
        while !s.is_done() {
            pipe.step(&mut s, Some(&cache)).unwrap();
        }
        assert_eq!(s.stage(), PipelineStage::Decode);
        assert!(pipe.finish(s).is_ok());
        assert_eq!(PipelineStage::Encode.label(), "encode");
    }

    #[test]
    fn priming_captures_all_steps_and_blocks() {
        let (cfg, _, _, cache) = setup();
        assert_eq!(cache.num_steps(), cfg.steps);
        assert!(cache.get(cfg.steps - 1, cfg.blocks - 1).is_ok());
        assert!(cache.has_kv());
        // A K/V template holds the panels alone: 2× the bytes of Y.
        assert_eq!(cache.bytes_y(), 0);
        assert_eq!(cache.bytes(), 2 * cfg.cache_bytes_total(0.0));
    }

    #[test]
    fn edit_is_deterministic() {
        let (cfg, pipe, template, cache) = setup();
        let strat = Strategy::MaskAware {
            use_cache: vec![true; cfg.blocks],
            kv: false,
        };
        let a = pipe
            .edit(
                &template,
                1,
                &masked(),
                "a red box",
                7,
                &strat,
                Some(&cache),
            )
            .unwrap();
        let b = pipe
            .edit(
                &template,
                1,
                &masked(),
                "a red box",
                7,
                &strat,
                Some(&cache),
            )
            .unwrap();
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn all_strategies_run_and_account_flops() {
        let (cfg, pipe, template, cache) = setup();
        let strategies = [
            Strategy::FullRecompute,
            Strategy::MaskAware {
                use_cache: vec![true; cfg.blocks],
                kv: false,
            },
            Strategy::MaskAware {
                use_cache: vec![true; cfg.blocks],
                kv: true,
            },
            Strategy::MaskedOnly,
            Strategy::StepSkip { threshold: 0.3 },
            Strategy::NaiveDisregard,
        ];
        let mut flops = Vec::new();
        for s in &strategies {
            let out = pipe
                .edit(&template, 1, &masked(), "p", 3, s, Some(&cache))
                .unwrap();
            assert_eq!(
                out.steps_computed + out.steps_skipped,
                cfg.steps,
                "{}",
                s.label()
            );
            assert!(out.flops > 0);
            assert!(out.image.data().iter().all(|v| v.is_finite()));
            flops.push((s.label(), out.flops));
        }
        // Mask-aware strategies must spend far fewer FLOPs than full
        // recompute at this 25% mask ratio.
        let full = flops[0].1;
        let flashps = flops[1].1;
        assert!(
            (flashps as f64) < full as f64 * 0.6,
            "flashps {flashps} vs full {full}"
        );
    }

    #[test]
    fn step_skip_skips_steps() {
        let (_, pipe, template, _) = setup();
        let out = pipe
            .edit(
                &template,
                1,
                &masked(),
                "p",
                3,
                &Strategy::StepSkip { threshold: 0.5 },
                None,
            )
            .unwrap();
        assert!(out.steps_skipped > 0, "threshold 0.5 should skip steps");
        let strict = pipe
            .edit(
                &template,
                1,
                &masked(),
                "p",
                3,
                &Strategy::StepSkip { threshold: 0.0 },
                None,
            )
            .unwrap();
        assert_eq!(strict.steps_skipped, 0, "threshold 0 never skips");
    }

    #[test]
    fn unmasked_pixels_track_the_template() {
        // After an inpainting edit, unmasked pixels must stay close to
        // the (VAE-projected) template.
        let (cfg, pipe, template, cache) = setup();
        let projected = pipe
            .vae()
            .decode(&pipe.vae().encode(&template).unwrap())
            .unwrap();
        let strat = Strategy::MaskAware {
            use_cache: vec![true; cfg.blocks],
            kv: false,
        };
        let out = pipe
            .edit(&template, 1, &masked(), "x", 9, &strat, Some(&cache))
            .unwrap();
        let m = masked();
        for tok in 0..cfg.tokens() {
            if m.contains(&tok) {
                continue;
            }
            let ty = tok / cfg.latent_w;
            let tx = tok % cfg.latent_w;
            for dy in 0..cfg.patch {
                for dx in 0..cfg.patch {
                    let a = out
                        .image
                        .pixel(ty * cfg.patch + dy, tx * cfg.patch + dx)
                        .unwrap();
                    let b = projected
                        .pixel(ty * cfg.patch + dy, tx * cfg.patch + dx)
                        .unwrap();
                    for c in 0..3 {
                        assert!(
                            (a[c] - b[c].clamp(0.0, 1.0)).abs() < 2e-2,
                            "unmasked pixel drifted: {} vs {}",
                            a[c],
                            b[c]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mask_aware_closer_to_full_than_masked_only() {
        // The quality ordering the paper reports (Table 2): FlashPS
        // tracks the Diffusers reference more closely than
        // FISEdit-style masked-only computation on the masked region.
        let (cfg, pipe, template, cache) = setup();
        let reference = pipe
            .edit(
                &template,
                1,
                &masked(),
                "edit",
                5,
                &Strategy::FullRecompute,
                None,
            )
            .unwrap();
        // FlashPS plan: half the blocks full (as the DP would choose
        // under load), half cached.
        let mut use_cache = vec![true; cfg.blocks];
        use_cache[0] = false;
        let flashps = pipe
            .edit(
                &template,
                1,
                &masked(),
                "edit",
                5,
                &Strategy::MaskAware {
                    use_cache,
                    kv: false,
                },
                Some(&cache),
            )
            .unwrap();
        let fisedit = pipe
            .edit(
                &template,
                1,
                &masked(),
                "edit",
                5,
                &Strategy::MaskedOnly,
                None,
            )
            .unwrap();
        let d_flash = flashps.image.mse(&reference.image).unwrap();
        let d_fis = fisedit.image.mse(&reference.image).unwrap();
        assert!(
            d_flash <= d_fis,
            "flashps MSE {d_flash} should not exceed fisedit MSE {d_fis}"
        );
    }

    #[test]
    fn validation_errors() {
        let (cfg, pipe, template, cache) = setup();
        // Out-of-range mask token.
        assert!(pipe
            .edit(
                &template,
                1,
                &[cfg.tokens()],
                "p",
                1,
                &Strategy::FullRecompute,
                None
            )
            .is_err());
        // Wrong use_cache length.
        assert!(pipe
            .edit(
                &template,
                1,
                &masked(),
                "p",
                1,
                &Strategy::MaskAware {
                    use_cache: vec![true; cfg.blocks + 2],
                    kv: false
                },
                Some(&cache)
            )
            .is_err());
        // Mask-aware without a cache.
        assert!(pipe
            .edit(
                &template,
                1,
                &masked(),
                "p",
                1,
                &Strategy::MaskAware {
                    use_cache: vec![true; cfg.blocks],
                    kv: false
                },
                None
            )
            .is_err());
    }

    #[test]
    fn guidance_changes_output_and_doubles_flops() {
        let (cfg, pipe, template, cache) = setup();
        let strat = Strategy::MaskAware {
            use_cache: vec![true; cfg.blocks],
            kv: false,
        };
        let run = |guidance: Option<Guidance>| {
            let mut session = pipe
                .begin_guided(
                    &template,
                    1,
                    &masked(),
                    "a red hat",
                    3,
                    strat.clone(),
                    guidance,
                )
                .unwrap();
            while !session.is_done() {
                pipe.step(&mut session, Some(&cache)).unwrap();
            }
            pipe.finish(session).unwrap()
        };
        let plain = run(None);
        let guided = run(Some(Guidance::cfg(4.0)));
        assert_ne!(plain.image, guided.image, "guidance must steer the output");
        assert_eq!(guided.flops, 2 * plain.flops, "two passes per step");
        // Scale 1.0 disables guidance entirely.
        let neutral = run(Some(Guidance::cfg(1.0)));
        assert_eq!(neutral.image, plain.image);
        assert_eq!(neutral.flops, plain.flops);
    }

    #[test]
    fn guided_teacache_still_skips() {
        let (_, pipe, template, _) = setup();
        let mut session = pipe
            .begin_guided(
                &template,
                1,
                &masked(),
                "p",
                3,
                Strategy::StepSkip { threshold: 0.5 },
                Some(Guidance::cfg(3.0)),
            )
            .unwrap();
        while !session.is_done() {
            pipe.step(&mut session, None).unwrap();
        }
        let out = pipe.finish(session).unwrap();
        assert!(out.steps_skipped > 0);
        assert!(out.image.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn session_api_matches_batch_edit() {
        // Driving the session step by step must reproduce edit()
        // exactly — the invariant continuous batching relies on.
        let (cfg, pipe, template, cache) = setup();
        let strat = Strategy::MaskAware {
            use_cache: vec![true; cfg.blocks],
            kv: false,
        };
        let direct = pipe
            .edit(&template, 1, &masked(), "p", 4, &strat, Some(&cache))
            .unwrap();
        let mut session = pipe.begin(&template, 1, &masked(), "p", 4, strat).unwrap();
        assert_eq!(session.total_steps(), cfg.steps);
        let mut steps = 0;
        while !session.is_done() {
            assert_eq!(session.step_index(), steps);
            pipe.step(&mut session, Some(&cache)).unwrap();
            steps += 1;
        }
        assert_eq!(steps, cfg.steps);
        assert_eq!(session.steps_left(), 0);
        let via_session = pipe.finish(session).unwrap();
        assert_eq!(via_session.image, direct.image);
        assert_eq!(via_session.flops, direct.flops);
    }

    #[test]
    fn session_rejects_early_finish_and_ignores_extra_steps() {
        let (cfg, pipe, template, _) = setup();
        let _ = cfg;
        let mut session = pipe
            .begin(&template, 1, &masked(), "p", 4, Strategy::FullRecompute)
            .unwrap();
        pipe.step(&mut session, None).unwrap();
        assert!(pipe.finish(session.clone()).is_err(), "early finish");
        while !session.is_done() {
            pipe.step(&mut session, None).unwrap();
        }
        // Extra steps are no-ops.
        let before = session.step_index();
        pipe.step(&mut session, None).unwrap();
        assert_eq!(session.step_index(), before);
        assert!((session.mask_ratio() - 0.25).abs() < 1e-9);
        assert!(pipe.finish(session).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn prop_edits_are_deterministic_and_finite(
            seed in 0u64..500,
            n_masked in 1usize..8,
            strategy_idx in 0usize..4,
        ) {
            let cfg = ModelConfig::tiny();
            let pipe = EditPipeline::new(&cfg).expect("pipeline");
            let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), seed);
            let cache = pipe.prime(&template, 1, false).expect("prime");
            let masked: Vec<usize> = (0..n_masked).map(|i| (i * 3) % cfg.tokens()).collect();
            let mut masked = masked;
            masked.sort_unstable();
            masked.dedup();
            let strategy = match strategy_idx {
                0 => Strategy::FullRecompute,
                1 => Strategy::MaskAware {
                    use_cache: vec![true; cfg.blocks],
                    kv: false,
                },
                2 => Strategy::MaskedOnly,
                _ => Strategy::StepSkip { threshold: 0.4 },
            };
            let run = || {
                pipe.edit(&template, 1, &masked, "p", seed, &strategy, Some(&cache))
                    .expect("edit")
            };
            let a = run();
            let b = run();
            proptest::prop_assert_eq!(&a.image, &b.image);
            proptest::prop_assert!(a.image.data().iter().all(|v| v.is_finite()));
            proptest::prop_assert_eq!(a.steps_computed + a.steps_skipped, cfg.steps);
        }
    }

    #[test]
    fn pipeline_stages_are_traced_on_the_wall_clock() {
        let (cfg, mut pipe, template, cache) = setup();
        let sink = TraceSink::recording(Clock::Wall);
        pipe.set_trace_sink(sink.clone(), Track::new(0, 0));
        let strat = Strategy::MaskAware {
            use_cache: vec![true; cfg.blocks],
            kv: false,
        };
        pipe.edit(&template, 1, &masked(), "p", 3, &strat, Some(&cache))
            .unwrap();
        let t = sink.drain().unwrap();
        assert_eq!(t.spans_named("pipeline_begin").count(), 1);
        assert_eq!(t.spans_named("pipeline_step").count(), cfg.steps);
        assert_eq!(t.spans_named("pipeline_decode").count(), 1);
    }

    #[test]
    #[should_panic(expected = "wall clock")]
    fn pipeline_rejects_virtual_sinks() {
        let (_, mut pipe, _, _) = setup();
        pipe.set_trace_sink(TraceSink::recording(Clock::Virtual), Track::new(0, 0));
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::FullRecompute.label(), "diffusers");
        assert_eq!(
            Strategy::MaskAware {
                use_cache: vec![],
                kv: true
            }
            .label(),
            "flashps-kv"
        );
        assert_eq!(Strategy::StepSkip { threshold: 0.1 }.label(), "teacache");
    }
}
