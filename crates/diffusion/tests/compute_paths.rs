//! End-to-end bitwise identity of the compute plane.
//!
//! The parallel compute plane (pool + fused kernels + scratch reuse)
//! must be invisible in the numbers: a whole edit — VAE encode, priming,
//! every denoising step, VAE decode — produces byte-identical output
//! whether every kernel stays on the calling thread or every kernel is
//! row-chunked over the pool. Each case therefore runs twice, under the
//! two ends of the one dispatch override ([`EXECUTIONS`]) — at these
//! shapes the calibrated default would keep both runs serial and the
//! comparison would be of a run with itself. These tests drive the
//! public pipeline API rather than individual kernels, so they also
//! cover the block/model/VAE wiring that routes through the fused
//! helpers and the UNet scaffold.

use fps_diffusion::block::{MaskedContext, TransformerBlock};
use fps_diffusion::embedding::{embed_prompt, embed_timestep, pool_condition};
use fps_diffusion::{EditPipeline, Image, ModelConfig, Strategy};
use fps_tensor::ops::gather_rows;
use fps_tensor::ops::sparse::SparsePlan;
use fps_tensor::pool::with_min_parallel_work;
use fps_tensor::rng::DetRng;
use fps_tensor::{scratch, Tensor};
use fps_trace::{Clock, TraceSink, Track};

/// `with_min_parallel_work` thresholds of the two executions compared:
/// the serial reference, then forced-pooled.
const EXECUTIONS: [usize; 2] = [usize::MAX, 0];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn block_forwards_identical_across_paths() {
    let cfg = ModelConfig::tiny();
    let mut rng = DetRng::new(cfg.weight_seed);
    let block = TransformerBlock::new(&cfg, &mut rng);
    let prompt = embed_prompt(&cfg, "path test");
    let cond = pool_condition(&prompt, &embed_timestep(&cfg, 0.5));
    let (cross, ada) = (
        block.cross_kv(&prompt).unwrap(),
        block.ada_params(&cond).unwrap(),
    );
    let x = Tensor::randn([cfg.tokens(), cfg.hidden], &mut DetRng::new(21));
    let masked_idx: Vec<usize> = vec![1, 4, 7];
    let plan = SparsePlan::from_mask(cfg.tokens(), &masked_idx).unwrap();
    let xm = gather_rows(&x, &masked_idx).unwrap();

    let run = || {
        let full = block.forward_full(&x, &cross, &ada).unwrap();
        let self_only = block
            .forward_masked(&xm, MaskedContext::SelfOnly, &cross, &ada)
            .unwrap();
        let cached_kv = block
            .forward_masked(
                &xm,
                MaskedContext::CachedKv {
                    kv: &full.kv,
                    masked_idx: &masked_idx,
                },
                &cross,
                &ada,
            )
            .unwrap();
        let full_kv = block
            .forward_masked_full_kv(&x, &plan, &cross, &ada)
            .unwrap();
        let (k, v) = (full.kv.keys().clone(), full.kv.values().clone());
        [full.y, k, v, self_only, cached_kv, full_kv]
    };
    let [serial, pooled] = EXECUTIONS.map(|min_work| with_min_parallel_work(min_work, run));
    let labels = [
        "full y",
        "full k",
        "full v",
        "self-only",
        "cached-kv",
        "full-kv",
    ];
    for ((s, p), label) in serial.iter().zip(&pooled).zip(labels) {
        assert_eq!(bits(p), bits(s), "{label}: pooled != serial");
    }
}

#[test]
fn whole_edit_identical_across_paths() {
    let cfg = ModelConfig::tiny();
    let pipe = EditPipeline::new(&cfg).unwrap();
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 42);
    let masked: Vec<usize> = vec![5, 6, 9, 10];
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
    ];
    for strategy in &strategies {
        let [serial, pooled] = EXECUTIONS.map(|min_work| {
            with_min_parallel_work(min_work, || {
                let cache = pipe.prime(&template, 1, true).unwrap();
                pipe.edit(
                    &template,
                    1,
                    &masked,
                    "a blue door",
                    7,
                    strategy,
                    Some(&cache),
                )
                .unwrap()
                .image
            })
        });
        assert_eq!(
            pooled,
            serial,
            "{} output differs pooled vs serial",
            strategy.label()
        );
    }
}

#[test]
fn kernel_spans_appear_only_when_enabled() {
    let cfg = ModelConfig::tiny();
    let mut pipe = EditPipeline::new(&cfg).unwrap();
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 3);
    let sink = TraceSink::recording(Clock::Wall);
    pipe.set_trace_sink(sink.clone(), Track::new(0, 0));

    // Default: pipeline spans, no kernel spans.
    let cache = pipe.prime(&template, 2, false).unwrap();
    let strat = Strategy::MaskAware {
        use_cache: vec![true; cfg.blocks],
        kv: false,
    };
    pipe.edit(&template, 2, &[5, 6], "x", 1, &strat, Some(&cache))
        .unwrap();
    let t = sink.drain().unwrap();
    assert!(t.spans_named("pipeline_step").count() > 0);
    assert_eq!(
        t.spans.iter().filter(|s| s.cat == "kernel").count(),
        0,
        "kernel tracing must be off by default"
    );

    // Enabled: matmul (at least) shows up with the kernel category.
    pipe.trace_kernels(true);
    pipe.edit(&template, 2, &[5, 6], "x", 1, &strat, Some(&cache))
        .unwrap();
    pipe.trace_kernels(false);
    // The observer is process-wide: a kernel another test's thread had
    // in flight when it was removed still reports, so "gone" is judged
    // on spans that *start* from here on.
    let off_ns = sink.instant_ns(std::time::Instant::now());
    let t = sink.drain().unwrap();
    let kernels: Vec<_> = t.spans.iter().filter(|s| s.cat == "kernel").collect();
    assert!(!kernels.is_empty(), "expected kernel spans when enabled");
    assert!(kernels.iter().any(|s| s.name == "matmul"));
    assert!(kernels.iter().all(|s| s.end_ns >= s.start_ns));

    // And after disabling, the observer really is gone.
    pipe.edit(&template, 2, &[5, 6], "x", 1, &strat, Some(&cache))
        .unwrap();
    let t = sink.drain().unwrap();
    let late = t
        .spans
        .iter()
        .filter(|s| s.cat == "kernel" && s.start_ns >= off_ns);
    assert_eq!(late.count(), 0);
}

#[test]
fn pipeline_reuses_scratch_buffers() {
    let cfg = ModelConfig::tiny();
    let pipe = EditPipeline::new(&cfg).unwrap();
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 9);
    let cache = pipe.prime(&template, 3, false).unwrap();
    let strat = Strategy::MaskAware {
        use_cache: vec![true; cfg.blocks],
        kv: false,
    };
    // Warm the pool with one edit, then measure a second one.
    pipe.edit(&template, 3, &[5], "warm", 1, &strat, Some(&cache))
        .unwrap();
    let before = scratch::stats();
    pipe.edit(&template, 3, &[5], "measured", 1, &strat, Some(&cache))
        .unwrap();
    let after = scratch::stats();
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    assert!(
        hits > misses * 4,
        "scratch pool should serve most allocations after warmup: {hits} hits, {misses} misses"
    );
}

#[test]
fn unet_edit_identical_across_mask_ratios() {
    // The UNet preset adds the conv scaffold (ResBlock) in front of the
    // transformer stack. Byte identity must hold at every mask ratio,
    // including the degenerate 0% (empty plan: nothing to compute,
    // template rows verbatim) and 100% (full plan: every row computed,
    // no replenishment).
    let cfg = ModelConfig::sd21_like();
    let pipe = EditPipeline::new(&cfg).unwrap();
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 17);
    let tokens = cfg.tokens();
    // ~7% of 64 tokens is 5 rows (touching a grid edge), plus the
    // degenerate extremes.
    let ratios: [(&str, Vec<usize>); 3] = [
        ("0%", vec![]),
        ("7%", vec![0, 9, 10, 17, 18]),
        ("100%", (0..tokens).collect()),
    ];
    // kv:false keeps cached blocks on the cached-Y variant, which
    // tolerates an empty masked set (the KV variant's fused attention
    // rejects zero key rows).
    let strat = Strategy::MaskAware {
        use_cache: vec![true; cfg.blocks],
        kv: false,
    };
    for (label, masked) in &ratios {
        let [serial, pooled] = EXECUTIONS.map(|min_work| {
            with_min_parallel_work(min_work, || {
                let cache = pipe.prime(&template, 4, true).unwrap();
                pipe.edit(&template, 4, masked, "a red roof", 11, &strat, Some(&cache))
                    .unwrap()
                    .image
            })
        });
        assert_eq!(
            pooled, serial,
            "sd21 {label} mask output differs pooled vs serial"
        );
    }
}
