//! The Y strategy served from a K/V-only template cache, against the
//! same strategy on a Y-only cache of the same priming, bit for bit.
//!
//! A K/V entry holds a block's attention panels and no `Y`. Where a
//! `CachedY` block's unmasked input rows are the previous block's
//! cached output, its panels are bitwise those rows' K and V, so it
//! attends over them instead of recomputing K and V from a scattered
//! `Y`; the first cached block recomputes them from the rows it has.
//! These tests pin that both caches predict the same masked rows under
//! every plan Algorithm 1 returns (the last j of N blocks cached,
//! j = 0..=N), at masks of none, one, ≈ 11% and all of the tokens, for
//! the prompt and for the negative prompt a guided edit adds, on a UNet
//! and a DiT preset. They also pin the typed error for what a K/V cache
//! cannot serve: the unmasked rows of a K/V-cached block, read by a
//! later `Full` block or an all-rows prediction.

use fps_diffusion::embedding::embed_prompt;
use fps_diffusion::model::{PromptCond, StepCond};
use fps_diffusion::{
    BlockMode, DiffusionError, DiffusionModel, ModelConfig, StepPlan, TemplateCache,
};
use fps_tensor::ops::sparse::SparsePlan;
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;

/// A model, one step's conditioning, an edit latent, and a Y-only and
/// a K/V-only cache of that step primed on another latent, so every
/// cached row differs from what the blocks would compute.
struct Fixture {
    model: DiffusionModel,
    step: StepCond,
    latent: Tensor,
    y_cache: TemplateCache,
    kv_cache: TemplateCache,
}

impl Fixture {
    fn new(cfg: &ModelConfig) -> Self {
        let model = DiffusionModel::new(cfg).unwrap();
        let step = model.step_cond(0.6).unwrap();
        let unconditional = model.prompt_cond(&embed_prompt(cfg, "")).unwrap();
        let shape = [cfg.tokens(), cfg.latent_channels];
        let primed = Tensor::randn(shape, &mut DetRng::new(31));
        let prime = |kv| {
            let (_, captured) = model
                .predict_full(&primed, &step, &unconditional, kv)
                .unwrap();
            let mut cache = TemplateCache::new(1, cfg.tokens(), cfg.hidden);
            cache.push_step(captured);
            cache
        };
        let (y_cache, kv_cache) = (prime(false), prime(true));
        assert!(kv_cache.has_kv() && kv_cache.bytes_y() == 0);
        assert_eq!(kv_cache.bytes(), 2 * y_cache.bytes());
        Self {
            step,
            latent: Tensor::randn(shape, &mut DetRng::new(32)),
            y_cache,
            kv_cache,
            model,
        }
    }

    fn predict(
        &self,
        prompt: &PromptCond,
        sparse: &SparsePlan,
        plan: &StepPlan,
        cache: &TemplateCache,
        all_rows: bool,
    ) -> Result<Tensor, DiffusionError> {
        let (latent, step) = (&self.latent, &self.step);
        if all_rows {
            self.model
                .predict_planned(latent, step, prompt, sparse, plan, Some(cache), 0)
        } else {
            self.model
                .predict_planned_masked(latent, step, prompt, sparse, plan, Some(cache), 0)
        }
    }
}

/// `count` scattered token indices (a stride coprime with both presets'
/// token counts), as a sparse plan.
fn mask(tokens: usize, count: usize) -> SparsePlan {
    let mut idx: Vec<usize> = (0..count).map(|i| (i * 37 + 5) % tokens).collect();
    idx.sort_unstable();
    SparsePlan::from_mask(tokens, &idx).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The tail lengths j to cover. An optimised build (`scripts/check.sh`
/// runs this crate's tests in one) covers every j = 0..=N. An
/// unoptimised one, where the `Full` blocks in front of the short tails
/// make the whole matrix take minutes, covers the two tails that differ
/// in where the first cached block's input comes from: the input
/// projection (j = N) or a `Full` block (j = N − 1). A shorter tail is
/// the latter behind more `Full` blocks.
fn tails(blocks: usize) -> Vec<usize> {
    if cfg!(debug_assertions) {
        vec![blocks - 1, blocks]
    } else {
        (0..=blocks).collect()
    }
}

fn assert_caches_agree(cfg: &ModelConfig) {
    let f = Fixture::new(cfg);
    // An unguided edit runs the prompt pass; a guided one adds the
    // negative prompt's pass.
    let passes =
        ["a blue door", "blurry"].map(|p| f.model.prompt_cond(&embed_prompt(cfg, p)).unwrap());
    let l = cfg.tokens();
    for n in [0, 1, (l as f64 * 0.11).round() as usize, l] {
        let sparse = mask(l, n);
        for j in tails(cfg.blocks) {
            let use_cache: Vec<bool> = (0..cfg.blocks).map(|b| b + j >= cfg.blocks).collect();
            let plan = StepPlan::from_use_cache(&use_cache, false);
            for (pass, prompt) in passes.iter().enumerate() {
                let label = format!("{}: n = {n}, last {j} blocks cached, pass {pass}", cfg.name);
                let y = f
                    .predict(prompt, &sparse, &plan, &f.y_cache, false)
                    .unwrap();
                let kv = f
                    .predict(prompt, &sparse, &plan, &f.kv_cache, false)
                    .unwrap();
                assert_eq!(kv.dims(), [n, cfg.latent_channels], "{label}");
                assert_eq!(bits(&y), bits(&kv), "{label}");
            }
        }
    }
}

#[test]
fn y_strategy_on_kv_cache_matches_y_cache_on_sdxl_like() {
    assert_caches_agree(&ModelConfig::sdxl_like());
}

#[test]
fn y_strategy_on_kv_cache_matches_y_cache_on_flux_like() {
    assert_caches_agree(&ModelConfig::flux_like());
}

#[test]
fn kv_cache_rejects_reads_of_the_y_it_does_not_hold() {
    let cfg = ModelConfig::sdxl_like();
    let f = Fixture::new(&cfg);
    let prompt = f
        .model
        .prompt_cond(&embed_prompt(&cfg, "a blue door"))
        .unwrap();
    let sparse = mask(cfg.tokens(), 16);
    let last = cfg.blocks - 1;
    // A `Full` block after a `CachedKv` one reads the rows the K/V
    // entry stands for, in either output form.
    let mut modes = vec![BlockMode::Full; cfg.blocks];
    modes[1] = BlockMode::CachedKv;
    let kv_then_full = StepPlan { modes };
    for all_rows in [false, true] {
        assert_eq!(
            f.predict(&prompt, &sparse, &kv_then_full, &f.kv_cache, all_rows)
                .unwrap_err(),
            DiffusionError::YNotCached { step: 0, block: 1 },
            "all_rows {all_rows}"
        );
    }
    // An all-rows prediction reads the last cached block's, under either
    // strategy, while the masked rows alone are served.
    for kv in [false, true] {
        let mut use_cache = vec![true; cfg.blocks];
        use_cache[0] = false;
        let plan = StepPlan::from_use_cache(&use_cache, kv);
        assert_eq!(
            f.predict(&prompt, &sparse, &plan, &f.kv_cache, true)
                .unwrap_err(),
            DiffusionError::YNotCached {
                step: 0,
                block: last
            },
            "kv {kv}"
        );
        let rows = f
            .predict(&prompt, &sparse, &plan, &f.kv_cache, false)
            .unwrap();
        assert_eq!(rows.dims(), [16, cfg.latent_channels]);
    }
    // The Y cache serves the all-rows prediction, but holds no panels
    // for `CachedKv`.
    assert!(f
        .predict(
            &prompt,
            &sparse,
            &StepPlan::all_cached_y(cfg.blocks),
            &f.y_cache,
            true
        )
        .is_ok());
    assert_eq!(
        f.predict(&prompt, &sparse, &kv_then_full, &f.y_cache, false)
            .unwrap_err(),
        DiffusionError::CacheMiss { step: 0, block: 1 }
    );
}
