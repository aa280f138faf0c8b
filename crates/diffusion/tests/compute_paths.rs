//! End-to-end bitwise identity of the compute paths.
//!
//! The parallel compute plane (pool + fused kernels + scratch reuse)
//! must be invisible in the numbers: a whole edit — VAE encode, priming,
//! every denoising step, VAE decode — produces byte-identical output on
//! the scalar, parallel, fused, and sparse paths. These tests drive the
//! public pipeline API rather than individual kernels, so they also
//! cover the block/model/VAE wiring that routes through the fused
//! helpers and the mask-sparse scaffold.

use fps_diffusion::block::{MaskedContext, TransformerBlock};
use fps_diffusion::embedding::{embed_prompt, embed_timestep, pool_condition};
use fps_diffusion::{EditPipeline, Image, ModelConfig, Strategy};
use fps_tensor::ops::gather_rows;
use fps_tensor::ops::sparse::SparsePlan;
use fps_tensor::pool::{with_compute_path, with_min_parallel_work, ComputePath};
use fps_tensor::rng::DetRng;
use fps_tensor::{scratch, Tensor};
use fps_trace::{Clock, TraceSink, Track};

const PATHS: [ComputePath; 4] = [
    ComputePath::Scalar,
    ComputePath::Parallel,
    ComputePath::Fused,
    ComputePath::Sparse,
];

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

    let reference = with_compute_path(ComputePath::Scalar, || {
        let full = block.forward_full(&x, &cross, &ada).unwrap();
        let self_only = block
            .forward_masked(&xm, MaskedContext::SelfOnly, &cross, &ada)
            .unwrap();
        let cached_kv = block
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
        let full_kv = block
            .forward_masked_full_kv(&x, &plan, &cross, &ada)
            .unwrap();
        (full, self_only, cached_kv, full_kv)
    });

    for path in [
        ComputePath::Parallel,
        ComputePath::Fused,
        ComputePath::Sparse,
    ] {
        with_compute_path(path, || {
            with_min_parallel_work(0, || {
                let full = block.forward_full(&x, &cross, &ada).unwrap();
                assert_eq!(bits(&full.y), bits(&reference.0.y), "{path:?} full y");
                assert_eq!(bits(&full.k), bits(&reference.0.k), "{path:?} full k");
                assert_eq!(bits(&full.v), bits(&reference.0.v), "{path:?} full v");
                let self_only = block
                    .forward_masked(&xm, MaskedContext::SelfOnly, &cross, &ada)
                    .unwrap();
                assert_eq!(bits(&self_only), bits(&reference.1), "{path:?} self-only");
                let cached_kv = block
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
                assert_eq!(bits(&cached_kv), bits(&reference.2), "{path:?} cached-kv");
                let full_kv = block
                    .forward_masked_full_kv(&x, &plan, &cross, &ada)
                    .unwrap();
                assert_eq!(bits(&full_kv), bits(&reference.3), "{path:?} full-kv");
            })
        });
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
        let outputs: Vec<Image> = PATHS
            .iter()
            .map(|&path| {
                with_compute_path(path, || {
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
            })
            .collect();
        for (path, out) in PATHS.iter().zip(&outputs).skip(1) {
            assert_eq!(
                out,
                &outputs[0],
                "{} output differs on {path:?} vs Scalar",
                strategy.label()
            );
        }
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
fn sparse_scaffold_edit_identical_across_mask_ratios() {
    // The UNet preset exercises the sparse scaffold (ResBlock) path:
    // the template cache carries per-step scaffold outputs, and the
    // sparse path convolves only the dilated mask. Byte identity must
    // hold at every mask ratio, including the degenerate 0% (empty
    // plan: nothing to compute, template rows verbatim) and 100% (full
    // plan: the dense kernels, no replenishment).
    let cfg = ModelConfig::sd21_like();
    let pipe = EditPipeline::new(&cfg).unwrap();
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 17);
    let tokens = cfg.tokens();
    // ~7% of 64 tokens is 5 rows (one past a grid edge to cover
    // clipped dilation), plus the degenerate extremes.
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
    let sparse_convs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    for (label, masked) in &ratios {
        let outputs: Vec<Image> = PATHS
            .iter()
            .map(|&path| {
                with_compute_path(path, || {
                    let counter = sparse_convs.clone();
                    fps_tensor::ktrace::set_observer(Some(std::sync::Arc::new(move |ev| {
                        if ev.name == "sparse_conv3x3" {
                            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    })));
                    let cache = pipe.prime(&template, 4, true).unwrap();
                    let out = pipe
                        .edit(&template, 4, masked, "a red roof", 11, &strat, Some(&cache))
                        .unwrap()
                        .image;
                    fps_tensor::ktrace::set_observer(None);
                    out
                })
            })
            .collect();
        for (path, out) in PATHS.iter().zip(&outputs).skip(1) {
            assert_eq!(
                out, &outputs[0],
                "sd21 {label} mask output differs on {path:?} vs Scalar"
            );
        }
    }
    // The sparse scaffold genuinely ran for the partial mask on the
    // Sparse path (the identity above would also pass if every call
    // silently fell back to the dense scaffold).
    assert!(
        sparse_convs.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "sparse conv path never engaged"
    );
}
