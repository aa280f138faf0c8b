//! End-to-end checks of the compute plane through the public pipeline
//! API: opt-in kernel spans, scratch-buffer reuse across edits, and the
//! UNet scaffold's edits at the degenerate mask ratios.

use fps_diffusion::{EditPipeline, Image, ModelConfig, Strategy};
use fps_tensor::scratch;
use fps_trace::{Clock, TraceSink, Track};

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
    // transformer stack, which convolves the whole grid. Under the
    // inpainting blend every unmasked token's latent row is the
    // template's, so its patch of the decoded image is the same at
    // every mask ratio, including the degenerate 0% (empty plan:
    // nothing to compute, template rows verbatim) and 100% (full plan:
    // every row computed, no replenishment, no unmasked patch).
    let cfg = ModelConfig::sd21_like();
    let pipe = EditPipeline::new(&cfg).unwrap();
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 17);
    let tokens = cfg.tokens();
    let cache = pipe.prime(&template, 4, true).unwrap();
    // kv:false keeps cached blocks on the cached-Y variant, which
    // tolerates an empty masked set (the KV variant's fused attention
    // rejects zero key rows).
    let strat = Strategy::MaskAware {
        use_cache: vec![true; cfg.blocks],
        kv: false,
    };
    let edit = |masked: &[usize]| {
        pipe.edit(&template, 4, masked, "a red roof", 11, &strat, Some(&cache))
            .unwrap()
            .image
    };
    let untouched = edit(&[]);
    // ~7% of 64 tokens is 5 rows (touching a grid edge), and the full
    // grid.
    let ratios: [(&str, Vec<usize>); 2] = [
        ("7%", vec![0, 9, 10, 17, 18]),
        ("100%", (0..tokens).collect()),
    ];
    for (label, masked) in &ratios {
        let image = edit(masked);
        assert!(image.data().iter().all(|v| v.is_finite()), "sd21 {label}");
        assert_ne!(image, untouched, "sd21 {label}: the edit changed nothing");
        for y in 0..cfg.pixel_h() {
            for x in 0..cfg.pixel_w() {
                let tok = (y / cfg.patch) * cfg.latent_w + x / cfg.patch;
                if !masked.contains(&tok) {
                    let (a, b) = (image.pixel(y, x).unwrap(), untouched.pixel(y, x).unwrap());
                    assert_eq!(
                        a.map(f32::to_bits),
                        b.map(f32::to_bits),
                        "sd21 {label}: unmasked pixel ({y},{x}) differs from the 0% edit"
                    );
                }
            }
        }
    }
}
