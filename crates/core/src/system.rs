//! The FlashPS numeric editing system: the public API a downstream
//! user drives.
//!
//! [`FlashPs`] owns a toy-scale diffusion pipeline, a template
//! registry whose activation caches are primed on registration (§2.2
//! "reusability of the templates"), and a planner that runs
//! Algorithm 1 against a calibrated cost model to decide which blocks
//! consume cached activations for each request's mask ratio.
//!
//! The registry is §4.2's two-tier storage on the wall clock: an
//! `fps_maskcache::HierarchicalStore` — the store the simulators run
//! in virtual time — decides residency and LRU order, with host memory
//! capped at [`FlashPsConfig::cache_budget_bytes`]. A template the
//! budget demotes is streamed once to a private spill directory, and
//! re-registering it with the same image reads that file back instead
//! of priming again.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fps_baselines::system::teacache_threshold;
use fps_diffusion::{EditOutput, EditPipeline, Image, ModelConfig, Strategy, TemplateCache};
use fps_maskcache::{HierarchicalStore, StoreConfig, Tier};
use fps_serving::cost::{BatchItem, CostModel, GpuSpec};
use fps_serving::{Rung, TimeSource};
use fps_workload::Mask;

use crate::{FlashPsError, Result};

/// Configuration of a [`FlashPs`] instance.
#[derive(Debug, Clone)]
pub struct FlashPsConfig {
    /// The (runnable, toy-scale) model to serve.
    pub model: ModelConfig,
    /// Cost model driving Algorithm 1's per-request block plans. The
    /// planner maps the toy model's mask ratios onto this analytic
    /// model, defaulting to the paper-scale config matching the toy
    /// preset's architecture on an H800.
    pub planner: CostModel,
    /// Capture K/V activations at priming (enables the Fig. 7
    /// variant). A K/V template holds K and V and no Y: 2× the bytes of
    /// a Y-only one (3,317,760 against 1,658,880 B on sdxl-like), as
    /// the paper and the cost model size it. The Y strategy serves
    /// from it too, reading the panels in place of Y.
    pub capture_kv: bool,
    /// Host-memory budget for primed template caches, in bytes
    /// (`u64::MAX` = unbounded). When a registration would exceed the
    /// budget, the least recently registered templates are evicted to
    /// the disk tier (§4.2's LRU policy; edits do not count as use).
    /// Re-registering an evicted template with the image it was primed
    /// from restores its spilled cache instead of re-priming. A single
    /// cache larger than the budget is refused.
    pub cache_budget_bytes: u64,
}

impl FlashPsConfig {
    /// Default configuration for a toy model: paper-scale planner of
    /// the matching architecture on an H800.
    pub fn new(model: ModelConfig) -> Self {
        let analytic = match model.name.as_str() {
            n if n.starts_with("sd21") => ModelConfig::paper_sd21(),
            n if n.starts_with("sdxl") => ModelConfig::paper_sdxl(),
            n if n.starts_with("flux") => ModelConfig::paper_flux(),
            _ => {
                // Unknown toy config: scale the analytic model from its
                // own block count so plans have the right length.
                let mut m = ModelConfig::paper_sdxl();
                m.blocks = model.blocks;
                m
            }
        };
        let mut planner_model = analytic;
        // The plan length must match the runnable model's block count.
        planner_model.blocks = model.blocks;
        Self {
            planner: CostModel::new(GpuSpec::h800(), planner_model),
            model,
            capture_kv: false,
            cache_budget_bytes: u64::MAX,
        }
    }
}

/// The outcome of one edit through the system.
#[derive(Debug, Clone)]
pub struct EditResult {
    /// The numeric pipeline output (image, FLOPs, step counts).
    pub output: EditOutput,
    /// Algorithm 1's per-block cache decisions used for this request.
    pub use_cache: Vec<bool>,
    /// Analytic FLOP speedup vs full recomputation.
    pub speedup_vs_full: f64,
    /// The request's token-level mask ratio.
    pub mask_ratio: f64,
    /// Degradation rung the request was served at, when it went
    /// through a control plane with overload control active (`None`
    /// for direct edits and servers without a ladder).
    pub rung: Option<Rung>,
}

/// Numeric strategy a degradation rung serves with on a real pipeline;
/// the step-skip thresholds mirror the rung compute fractions (a lower
/// fraction skips more steps).
///
/// This is the rung → mechanism mapping shared by the overload
/// ablation and the threaded server: the control plane picks the rung,
/// this function picks the [`Strategy`] that realizes it on the
/// runnable pipeline.
pub fn rung_strategy(rung: Rung, system: &FlashPs, ratio: f64, steps: usize) -> Strategy {
    match rung {
        Rung::FlashPsKv => Strategy::MaskAware {
            use_cache: system.plan_for_ratio(ratio),
            kv: true,
        },
        Rung::FlashPs => Strategy::MaskAware {
            use_cache: system.plan_for_ratio(ratio),
            kv: false,
        },
        Rung::TeaCacheHigh => Strategy::StepSkip {
            threshold: teacache_threshold(steps),
        },
        Rung::TeaCacheLow | Rung::ReducedSteps => Strategy::StepSkip {
            threshold: 2.0 * teacache_threshold(steps),
        },
    }
}

/// The private directory evicted caches are spilled to: created under
/// [`std::env::temp_dir`] on the first spill, removed on drop.
#[derive(Debug, Default)]
struct SpillDir {
    dir: Option<PathBuf>,
    /// Templates whose current cache has a file in `dir`.
    written: HashSet<u64>,
}

impl SpillDir {
    fn file(dir: &Path, template_id: u64) -> PathBuf {
        dir.join(format!("{template_id}.fpsc"))
    }

    /// Streams `cache` to its file unless that file already holds it.
    fn write(&mut self, cache: &TemplateCache) -> io::Result<()> {
        let id = cache.template_id;
        if self.written.contains(&id) {
            return Ok(());
        }
        let dir = match &self.dir {
            Some(dir) => dir,
            None => self.dir.insert(create_spill_dir()?),
        };
        let mut w = BufWriter::new(File::create(Self::file(dir, id))?);
        cache.write_to(&mut w)?;
        // A dropped BufWriter discards its flush error.
        w.flush()?;
        self.written.insert(id);
        Ok(())
    }

    /// Streams a template's cache back from its file.
    fn read(&self, template_id: u64) -> Option<TemplateCache> {
        let dir = self
            .dir
            .as_ref()
            .filter(|_| self.written.contains(&template_id))?;
        let file = File::open(Self::file(dir, template_id)).ok()?;
        TemplateCache::read_from(BufReader::new(file)).ok()
    }

    /// Deletes a template's file, if it has one.
    fn forget(&mut self, template_id: u64) {
        if let (true, Some(dir)) = (self.written.remove(&template_id), &self.dir) {
            // A file that cannot be deleted goes with the directory.
            let _ = fs::remove_file(Self::file(dir, template_id));
        }
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            // Nothing can report the error here; the directory is
            // temporary either way.
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// A fresh, uniquely named directory under the system temp directory.
fn create_spill_dir() -> io::Result<PathBuf> {
    // Uniqueness within the process; the counter publishes no data.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("flashps-spill-{}-{n}", std::process::id()));
        match fs::create_dir(&dir) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            made => return made.map(|()| dir),
        }
    }
}

/// The FlashPS editing system.
#[derive(Debug)]
pub struct FlashPs {
    config: FlashPsConfig,
    pipeline: EditPipeline,
    /// Tier, bytes and LRU order of every registered template; its host
    /// tier is `cache_budget_bytes` and `templates` mirrors it.
    store: HierarchicalStore,
    /// The clock the store's stamps come from.
    time: TimeSource,
    /// Caches of the store's host-tier templates.
    templates: HashMap<u64, TemplateCache>,
    /// Images of the templates in either tier: a spilled cache is
    /// restored only for the image it was primed from.
    images: HashMap<u64, Image>,
    spill: SpillDir,
}

impl FlashPs {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures for inconsistent
    /// configs.
    pub fn new(config: FlashPsConfig) -> Result<Self> {
        let pipeline = EditPipeline::new(&config.model)?;
        let store = HierarchicalStore::new(StoreConfig {
            host_capacity: config.cache_budget_bytes,
            ..StoreConfig::production_like()
        });
        Ok(Self {
            config,
            pipeline,
            store,
            time: TimeSource::wall(),
            templates: HashMap::new(),
            images: HashMap::new(),
            spill: SpillDir::default(),
        })
    }

    /// The underlying pipeline (for probes, baselines, and analyses).
    pub fn pipeline(&self) -> &EditPipeline {
        &self.pipeline
    }

    /// Attaches a wall-clock trace sink to the pipeline: session
    /// setup, every denoising step, and VAE decode become spans on
    /// `track`. See [`EditPipeline::set_trace_sink`].
    pub fn set_trace_sink(&mut self, sink: fps_trace::TraceSink, track: fps_trace::Track) {
        self.pipeline.set_trace_sink(sink, track);
    }

    /// The system configuration.
    pub fn config(&self) -> &FlashPsConfig {
        &self.config
    }

    /// Registers a template: primes and stores its activation cache.
    /// Re-registering an id replaces the template, except that an
    /// evicted template re-registered with the image it was primed
    /// from is restored from its spill file — the same cache, since
    /// priming is a pure function of the model, `capture_kv`, the id
    /// and the image.
    ///
    /// # Errors
    ///
    /// Propagates priming failures (e.g. wrong image dimensions) and
    /// returns [`FlashPsError::Cache`] when the cache alone exceeds
    /// `cache_budget_bytes`.
    pub fn register_template(&mut self, template_id: u64, image: &Image) -> Result<()> {
        if self.store.locate(template_id) == Some(Tier::Disk)
            && self.images.get(&template_id) == Some(image)
            && self.restore_spilled(template_id)
        {
            return Ok(());
        }
        let cache = self
            .pipeline
            .prime(image, template_id, self.config.capture_kv)?;
        self.admit(cache, image.clone())
    }

    /// Removes a template's cache, image and spill file; returns
    /// whether it was registered (in either tier).
    pub fn remove_template(&mut self, template_id: u64) -> bool {
        self.templates.remove(&template_id);
        self.images.remove(&template_id);
        self.spill.forget(template_id);
        self.store.remove(template_id)
    }

    /// Total bytes of all resident template caches.
    pub fn cache_bytes_resident(&self) -> u64 {
        self.store.host_used()
    }

    /// Templates the budget has evicted to the disk tier so far.
    pub fn evictions(&self) -> u64 {
        self.store.stats().evictions
    }

    /// Spills a template's cache to its serialized byte form and
    /// removes the template — pair with [`FlashPs::restore_template`]
    /// to move a primed template into another system without priming
    /// it again.
    ///
    /// # Errors
    ///
    /// Returns [`FlashPsError::UnknownTemplate`] when not resident.
    pub fn spill_template(&mut self, template_id: u64) -> Result<(Vec<u8>, Image)> {
        let (image, cache) = self.template(template_id)?;
        let spilled = (cache.to_bytes(), image.clone());
        self.remove_template(template_id);
        Ok(spilled)
    }

    /// Restores a spilled template without re-priming.
    ///
    /// # Errors
    ///
    /// Propagates deserialization failures for corrupt blobs and
    /// returns [`FlashPsError::Cache`] when the cache alone exceeds
    /// `cache_budget_bytes`.
    pub fn restore_template(&mut self, bytes: &[u8], image: Image) -> Result<u64> {
        let cache = TemplateCache::from_bytes(bytes)?;
        let template_id = cache.template_id;
        self.admit(cache, image)?;
        Ok(template_id)
    }

    /// Makes `cache` its template's host-resident cache, evicting to
    /// fit the budget.
    fn admit(&mut self, cache: TemplateCache, image: Image) -> Result<()> {
        let template_id = cache.template_id;
        let bytes = cache.bytes();
        self.store
            .insert(template_id, bytes, self.time.now(), None)?;
        // A new cache for the id: an older spill file no longer holds it.
        self.spill.forget(template_id);
        self.spill_demoted();
        self.templates.insert(template_id, cache);
        self.images.insert(template_id, image);
        Ok(())
    }

    /// Promotes a disk-tier template and streams its cache back from
    /// its spill file. The promotion evicts room first, so host memory
    /// never holds the budget plus the incoming cache. Returns `false`,
    /// with the entry dropped and counted as a corruption fallback,
    /// when the file is missing or does not parse as this template's
    /// cache.
    fn restore_spilled(&mut self, template_id: u64) -> bool {
        let now = self.time.now();
        if self.store.fetch(template_id, now).is_err() {
            return false;
        }
        self.spill_demoted();
        match self.spill.read(template_id) {
            Some(cache) if cache.template_id == template_id => {
                self.templates.insert(template_id, cache);
                true
            }
            _ => {
                self.store.reject_corrupt(template_id, now);
                self.spill.forget(template_id);
                false
            }
        }
    }

    /// Spills the caches the store has just demoted to the disk tier
    /// (each file is written once per cache) and frees their memory. A
    /// template whose file cannot be written is dropped instead, as
    /// eviction did before the disk tier existed.
    fn spill_demoted(&mut self) {
        let demoted: Vec<u64> = self
            .templates
            .keys()
            .copied()
            .filter(|&id| self.store.locate(id) != Some(Tier::Host))
            .collect();
        for id in demoted {
            let Some(cache) = self.templates.remove(&id) else {
                continue;
            };
            if self.spill.write(&cache).is_err() {
                self.store.remove(id);
                self.images.remove(&id);
            }
        }
    }

    /// Number of host-resident templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Cache bytes held for a resident template: what the host budget
    /// charges for it.
    pub fn template_cache_bytes(&self, template_id: u64) -> Option<u64> {
        self.templates.get(&template_id).map(TemplateCache::bytes)
    }

    /// Looks up a registered template's cache and image.
    ///
    /// # Errors
    ///
    /// Returns [`FlashPsError::UnknownTemplate`] when absent.
    pub fn template(&self, template_id: u64) -> Result<(&Image, &TemplateCache)> {
        match (
            self.images.get(&template_id),
            self.templates.get(&template_id),
        ) {
            (Some(img), Some(cache)) => Ok((img, cache)),
            _ => Err(FlashPsError::UnknownTemplate { template_id }),
        }
    }

    /// Algorithm 1's block plan for a mask ratio under the planner's
    /// cost model (batch size 1).
    pub fn plan_for_ratio(&self, mask_ratio: f64) -> Vec<bool> {
        self.config
            .planner
            .step_latency_mask_aware(&[BatchItem { mask_ratio }], self.config.capture_kv)
            .use_cache()
    }

    /// Edits a registered template with FlashPS's mask-aware strategy.
    ///
    /// The pixel mask is projected onto the latent token grid; the
    /// block plan comes from Algorithm 1 at the request's mask ratio.
    ///
    /// # Errors
    ///
    /// Returns [`FlashPsError::UnknownTemplate`] for unregistered
    /// templates and propagates pipeline errors.
    pub fn edit(
        &self,
        template_id: u64,
        mask: &Mask,
        prompt: &str,
        seed: u64,
    ) -> Result<EditResult> {
        let cfg = &self.config.model;
        let masked_idx = mask.token_indices(cfg.latent_h, cfg.latent_w);
        self.edit_tokens(template_id, &masked_idx, prompt, seed)
    }

    /// Edits with an explicit token-level mask.
    ///
    /// # Errors
    ///
    /// Returns [`FlashPsError::UnknownTemplate`] for unregistered
    /// templates and propagates pipeline errors.
    pub fn edit_tokens(
        &self,
        template_id: u64,
        masked_idx: &[usize],
        prompt: &str,
        seed: u64,
    ) -> Result<EditResult> {
        let (image, cache) = self.template(template_id)?;
        let cfg = &self.config.model;
        let mask_ratio = masked_idx.len() as f64 / cfg.tokens() as f64;
        let use_cache = self.plan_for_ratio(mask_ratio);
        let strategy = Strategy::MaskAware {
            use_cache: use_cache.clone(),
            kv: self.config.capture_kv,
        };
        let output = self.pipeline.edit(
            image,
            template_id,
            masked_idx,
            prompt,
            seed,
            &strategy,
            Some(cache),
        )?;
        let full = fps_diffusion::flops::step_flops_full(cfg, 1) * cfg.steps as u64;
        let speedup = full as f64 / output.flops.max(1) as f64;
        Ok(EditResult {
            output,
            use_cache,
            speedup_vs_full: speedup,
            mask_ratio,
            rung: None,
        })
    }

    /// Edits with automatic strategy selection (§7 of the paper): for
    /// style-transfer-like requests whose masks cover most of the
    /// canvas, mask-aware computation stops paying off and the system
    /// falls back to full recomputation.
    ///
    /// # Errors
    ///
    /// As [`FlashPs::edit`].
    pub fn edit_auto(
        &self,
        template_id: u64,
        mask: &Mask,
        prompt: &str,
        seed: u64,
    ) -> Result<EditResult> {
        let cfg = &self.config.model;
        let masked_idx = mask.token_indices(cfg.latent_h, cfg.latent_w);
        let mask_ratio = masked_idx.len() as f64 / cfg.tokens() as f64;
        let use_cache = self.plan_for_ratio(mask_ratio);
        let aware_pays_off = use_cache.iter().any(|&b| b) && mask_ratio < 0.9;
        if aware_pays_off {
            return self.edit_tokens(template_id, &masked_idx, prompt, seed);
        }
        let (image, cache) = self.template(template_id)?;
        let output = self.pipeline.edit(
            image,
            template_id,
            &masked_idx,
            prompt,
            seed,
            &Strategy::FullRecompute,
            Some(cache),
        )?;
        Ok(EditResult {
            output,
            use_cache: vec![false; cfg.blocks],
            speedup_vs_full: 1.0,
            mask_ratio,
            rung: None,
        })
    }

    /// Runs a baseline strategy on a registered template (for quality
    /// and ablation comparisons).
    ///
    /// # Errors
    ///
    /// Returns [`FlashPsError::UnknownTemplate`] for unregistered
    /// templates and propagates pipeline errors.
    pub fn edit_with_strategy(
        &self,
        template_id: u64,
        mask: &Mask,
        prompt: &str,
        seed: u64,
        strategy: &Strategy,
    ) -> Result<EditOutput> {
        let (image, cache) = self.template(template_id)?;
        let cfg = &self.config.model;
        let masked_idx = mask.token_indices(cfg.latent_h, cfg.latent_w);
        Ok(self.pipeline.edit(
            image,
            template_id,
            &masked_idx,
            prompt,
            seed,
            strategy,
            Some(cache),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_workload::MaskShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn system() -> (FlashPs, Mask) {
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 11);
        sys.register_template(1, &template).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mask = Mask::generate(
            cfg.pixel_h(),
            cfg.pixel_w(),
            MaskShape::Rect,
            0.25,
            &mut rng,
        );
        (sys, mask)
    }

    #[test]
    fn register_and_edit() {
        let (sys, mask) = system();
        assert_eq!(sys.template_count(), 1);
        assert!(sys.template_cache_bytes(1).unwrap() > 0);
        let result = sys.edit(1, &mask, "add flowers", 7).unwrap();
        assert!(result.mask_ratio > 0.0 && result.mask_ratio < 1.0);
        assert_eq!(result.use_cache.len(), sys.config().model.blocks);
        assert!(
            result.speedup_vs_full > 1.0,
            "got {}",
            result.speedup_vs_full
        );
        assert!(result.output.image.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unknown_template_rejected() {
        let (sys, mask) = system();
        assert!(matches!(
            sys.edit(99, &mask, "x", 0),
            Err(FlashPsError::UnknownTemplate { template_id: 99 })
        ));
        assert!(sys.template(99).is_err());
        assert!(sys.template_cache_bytes(99).is_none());
    }

    #[test]
    fn plans_depend_on_mask_ratio() {
        let (sys, _) = system();
        let small = sys.plan_for_ratio(0.05);
        let large = sys.plan_for_ratio(0.9);
        assert_eq!(small.len(), sys.config().model.blocks);
        // Larger masks are compute-bound: at least as many blocks can
        // afford the cache.
        let cached_small = small.iter().filter(|&&b| b).count();
        let cached_large = large.iter().filter(|&&b| b).count();
        assert!(cached_large >= cached_small.min(1));
    }

    #[test]
    fn baseline_strategy_runs() {
        let (sys, mask) = system();
        let out = sys
            .edit_with_strategy(1, &mask, "x", 5, &Strategy::FullRecompute)
            .unwrap();
        assert_eq!(out.steps_skipped, 0);
        let flash = sys.edit(1, &mask, "x", 5).unwrap();
        assert!(flash.output.flops < out.flops);
    }

    #[test]
    fn edits_are_deterministic() {
        let (sys, mask) = system();
        let a = sys.edit(1, &mask, "p", 9).unwrap();
        let b = sys.edit(1, &mask, "p", 9).unwrap();
        assert_eq!(a.output.image, b.output.image);
        // Different seeds diverge in the masked region.
        let c = sys.edit(1, &mask, "p", 10).unwrap();
        assert_ne!(a.output.image, c.output.image);
    }

    #[test]
    fn lru_budget_evicts_oldest_templates() {
        let cfg = ModelConfig::tiny();
        let mut config = FlashPsConfig::new(cfg.clone());
        // Budget fits exactly two tiny template caches.
        let one = {
            let mut probe = FlashPs::new(config.clone()).unwrap();
            probe
                .register_template(0, &Image::template(cfg.pixel_h(), cfg.pixel_w(), 0))
                .unwrap();
            probe.cache_bytes_resident()
        };
        config.cache_budget_bytes = 2 * one;
        let mut sys = FlashPs::new(config).unwrap();
        for id in 0..3u64 {
            let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), id);
            sys.register_template(id, &img).unwrap();
        }
        assert_eq!(sys.template_count(), 2, "budget holds two caches");
        assert_eq!(sys.evictions(), 1);
        assert!(sys.template(0).is_err(), "oldest evicted");
        assert!(sys.template(2).is_ok(), "newest resident");
        assert!(sys.cache_bytes_resident() <= 2 * one);
    }

    #[test]
    fn auto_strategy_falls_back_on_huge_masks() {
        let (sys, small_mask) = system();
        let cfg = sys.config().model.clone();
        // A near-total mask: style-transfer territory.
        let mut huge = Mask::empty(cfg.pixel_h(), cfg.pixel_w());
        for y in 0..cfg.pixel_h() {
            for x in 0..cfg.pixel_w() {
                huge.set(y, x, true);
            }
        }
        let full = sys.edit_auto(1, &huge, "style", 1).unwrap();
        assert!(
            full.use_cache.iter().all(|&b| !b),
            "huge mask must fall back to full recompute"
        );
        assert!((full.speedup_vs_full - 1.0).abs() < 1e-9);
        // Small masks still go mask-aware.
        let aware = sys.edit_auto(1, &small_mask, "edit", 1).unwrap();
        assert!(aware.use_cache.iter().any(|&b| b));
        assert!(aware.speedup_vs_full > 1.0);
    }

    #[test]
    fn spill_and_restore_round_trip() {
        let (mut sys, mask) = system();
        let before = sys.edit(1, &mask, "p", 7).unwrap();
        let (bytes, image) = sys.spill_template(1).unwrap();
        assert_eq!(sys.template_count(), 0);
        assert!(sys.edit(1, &mask, "p", 7).is_err(), "spilled away");
        let id = sys.restore_template(&bytes, image).unwrap();
        assert_eq!(id, 1);
        let after = sys.edit(1, &mask, "p", 7).unwrap();
        assert_eq!(
            before.output.image, after.output.image,
            "restore must not change outputs"
        );
        // Corrupt blobs are rejected.
        assert!(sys
            .restore_template(&bytes[..bytes.len() / 2], Image::zeros(1, 1))
            .is_err());
        assert!(sys.spill_template(99).is_err());
    }

    /// A tiny-model system whose cache budget holds `caches` templates.
    fn budgeted(caches: u64) -> FlashPs {
        let cfg = ModelConfig::tiny();
        let mut probe = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        probe.register_template(0, &picture(0)).unwrap();
        let mut config = FlashPsConfig::new(cfg);
        config.cache_budget_bytes = caches * probe.cache_bytes_resident();
        FlashPs::new(config).unwrap()
    }

    /// A template image of the tiny model.
    fn picture(seed: u64) -> Image {
        let cfg = ModelConfig::tiny();
        Image::template(cfg.pixel_h(), cfg.pixel_w(), seed)
    }

    /// One fixed edit of a registered template.
    fn edit_image(sys: &FlashPs, template_id: u64) -> Image {
        sys.edit_tokens(template_id, &[1, 2, 5], "p", 3)
            .unwrap()
            .output
            .image
    }

    /// The same edit on a fresh, unbounded system.
    fn fresh_edit(template_id: u64, image: &Image) -> Image {
        let mut sys = FlashPs::new(FlashPsConfig::new(ModelConfig::tiny())).unwrap();
        sys.register_template(template_id, image).unwrap();
        edit_image(&sys, template_id)
    }

    fn spill_file(sys: &FlashPs, template_id: u64) -> PathBuf {
        SpillDir::file(sys.spill.dir.as_ref().unwrap(), template_id)
    }

    #[test]
    fn evicted_template_is_restored_not_reprimed() {
        let mut sys = budgeted(1);
        sys.register_template(0, &picture(0)).unwrap();
        let resident = edit_image(&sys, 0);
        sys.register_template(1, &picture(1)).unwrap();
        assert!(sys.template(0).is_err(), "evicted");
        assert!(spill_file(&sys, 0).exists());
        sys.register_template(0, &picture(0)).unwrap();
        let stats = sys.store.stats();
        assert_eq!((stats.disk_hits, stats.fallbacks), (1, 0), "restored");
        assert_eq!(sys.evictions(), 2);
        let restored = edit_image(&sys, 0);
        assert_eq!(restored, resident);
        assert_eq!(restored, fresh_edit(0, &picture(0)));
    }

    #[test]
    fn new_image_reprimes_and_deletes_the_old_spill_file() {
        let mut sys = budgeted(1);
        sys.register_template(0, &picture(0)).unwrap();
        sys.register_template(1, &picture(1)).unwrap();
        let stale = spill_file(&sys, 0);
        assert!(stale.exists());
        sys.register_template(0, &picture(7)).unwrap();
        assert!(!stale.exists(), "stale spill file deleted");
        assert!(spill_file(&sys, 1).exists(), "1 evicted in turn");
        assert_eq!(sys.store.stats().disk_hits, 0, "primed, not restored");
        assert_eq!(edit_image(&sys, 0), fresh_edit(0, &picture(7)));
    }

    #[test]
    fn a_restored_cache_is_spilled_once() {
        let mut sys = budgeted(1);
        sys.register_template(0, &picture(0)).unwrap();
        sys.register_template(1, &picture(1)).unwrap(); // spills 0
        sys.register_template(0, &picture(0)).unwrap(); // restores 0, spills 1
        let file = spill_file(&sys, 0);
        fs::write(&file, b"sentinel").unwrap();
        sys.register_template(1, &picture(1)).unwrap(); // restores 1, evicts 0
        assert_eq!(sys.evictions(), 3);
        assert_eq!(sys.store.stats().disk_hits, 2);
        assert_eq!(fs::read(&file).unwrap(), b"sentinel", "0 not rewritten");
    }

    #[test]
    fn damaged_spill_files_fall_back_to_priming() {
        let mut sys = budgeted(1);
        sys.register_template(0, &picture(0)).unwrap();
        let want = edit_image(&sys, 0);
        let damages: [fn(&mut Vec<u8>); 2] = [|b| b.truncate(b.len() / 2), |b| b[0] = b'X'];
        for (round, damage) in damages.into_iter().enumerate() {
            sys.register_template(1, &picture(1)).unwrap(); // spills 0
            let file = spill_file(&sys, 0);
            let mut bytes = fs::read(&file).unwrap();
            damage(&mut bytes);
            fs::write(&file, bytes).unwrap();
            sys.register_template(0, &picture(0)).unwrap();
            let stats = sys.store.stats();
            let n = round as u64 + 1;
            assert_eq!((stats.corruptions_detected, stats.fallbacks), (n, n));
            assert_eq!(edit_image(&sys, 0), want, "round {round}: re-primed");
            assert!(!file.exists(), "round {round}: damaged file deleted");
        }
    }

    #[test]
    fn spill_directory_lives_from_first_spill_to_drop() {
        let mut sys = budgeted(2);
        assert!(sys.spill.dir.is_none(), "new creates nothing on disk");
        sys.register_template(0, &picture(0)).unwrap();
        sys.register_template(1, &picture(1)).unwrap();
        assert!(sys.spill.dir.is_none(), "nothing evicted, nothing spilled");
        sys.register_template(2, &picture(2)).unwrap();
        let dir = sys.spill.dir.clone().unwrap();
        assert!(dir.is_dir());
        assert!(sys.remove_template(0), "a disk-tier template is registered");
        assert!(!SpillDir::file(&dir, 0).exists());
        drop(sys);
        assert!(!dir.exists(), "drop removes the directory");
    }

    #[test]
    fn a_cache_larger_than_the_budget_is_refused() {
        let mut sys = budgeted(0);
        let too_large = |r: Result<()>| {
            assert!(
                matches!(
                    r,
                    Err(FlashPsError::Cache(fps_maskcache::CacheError::TooLarge {
                        template_id: 4,
                        ..
                    }))
                ),
                "{r:?}"
            );
        };
        too_large(sys.register_template(4, &picture(4)));
        let mut donor = FlashPs::new(FlashPsConfig::new(ModelConfig::tiny())).unwrap();
        donor.register_template(4, &picture(4)).unwrap();
        let (bytes, image) = donor.spill_template(4).unwrap();
        too_large(sys.restore_template(&bytes, image).map(drop));
        assert_eq!(sys.template_count(), 0);
        assert_eq!(sys.cache_bytes_resident(), 0);
    }

    #[test]
    fn remove_template_frees_bytes() {
        let (mut sys, _) = system();
        assert!(sys.cache_bytes_resident() > 0);
        assert!(sys.remove_template(1));
        assert!(!sys.remove_template(1));
        assert_eq!(sys.cache_bytes_resident(), 0);
        assert_eq!(sys.template_count(), 0);
    }

    #[test]
    fn reregistration_replaces_template() {
        let (mut sys, mask) = system();
        let cfg = sys.config().model.clone();
        let other = Image::template(cfg.pixel_h(), cfg.pixel_w(), 99);
        sys.register_template(1, &other).unwrap();
        assert_eq!(sys.template_count(), 1);
        let out = sys.edit(1, &mask, "p", 1).unwrap();
        assert!(out.output.image.data().iter().all(|v| v.is_finite()));
    }
}
