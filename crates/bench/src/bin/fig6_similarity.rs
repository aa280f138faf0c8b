//! Fig. 6 — the empirical basis of mask-aware caching, measured on the
//! numeric substrate.
//!
//! Left: cosine similarity of block-output activations between two
//! different edit requests on the same template, split by
//! masked/unmasked tokens. Unmasked activations should be highly
//! similar across requests (they are what FlashPS caches); masked
//! activations diverge.
//!
//! Right: the attention-probability block structure — masked queries
//! attend mostly to masked keys (③), unmasked to unmasked (①), with
//! weak cross-terms (②, ④).

use fps_bench::{save_artifact, toy_models};
use fps_diffusion::embedding::embed_prompt;
use fps_diffusion::sampler::noise_to_level;
use fps_diffusion::{EditPipeline, Image};
use fps_metrics::Table;
use fps_tensor::ops::{cosine_similarity, gather_rows, scatter_rows_into};
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;

fn main() {
    let mut out =
        String::from("Fig. 6 reproduction: activation similarity & attention structure\n\n");
    for cfg in toy_models() {
        let pipe = EditPipeline::new(&cfg).expect("valid config");
        let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 77);

        // A rectangular mask covering the upper-left quadrant interior.
        let masked: Vec<usize> = (0..cfg.tokens())
            .filter(|i| {
                let y = i / cfg.latent_w;
                let x = i % cfg.latent_w;
                y >= cfg.latent_h / 4
                    && y < cfg.latent_h / 2
                    && x >= cfg.latent_w / 4
                    && x < cfg.latent_w / 2
            })
            .collect();
        assert!(!masked.is_empty());
        let unmasked: Vec<usize> = (0..cfg.tokens()).filter(|i| !masked.contains(i)).collect();

        // Two requests on the same template at the same denoising step:
        // by the inpainting invariant their unmasked latent rows are
        // identical (the re-noised template) while masked rows carry
        // request-specific content. Capture both requests' per-block
        // activations with the full computation.
        let probe_step = cfg.steps / 2;
        let t = pipe.schedule().t_norm(probe_step);
        let abar = pipe.schedule().abar(probe_step);
        let z = pipe.vae().encode(&template).expect("encode");
        let template_noise = Tensor::randn(
            [cfg.tokens(), cfg.latent_channels],
            &mut DetRng::new(0xBA5E),
        );
        let base = noise_to_level(&z, &template_noise, abar).expect("noise");
        let make_latent = |seed: u64| {
            let mut x = base.clone();
            let req = Tensor::randn([cfg.tokens(), cfg.latent_channels], &mut DetRng::new(seed));
            let rows = gather_rows(&req, &masked).expect("gather");
            scatter_rows_into(&mut x, &rows, &masked).expect("scatter");
            x
        };
        let prompt_a = embed_prompt(&cfg, "add red flowers");
        let prompt_b = embed_prompt(&cfg, "paint a blue sky");
        let model = pipe.model();
        let step = model.step_cond(t).expect("step cond");
        let capture = |seed: u64, prompt: &Tensor| {
            let cond = model.prompt_cond(prompt).expect("prompt cond");
            let (_, cap) = model
                .predict_full(&make_latent(seed), &step, &cond, false)
                .expect("predict");
            cap
        };
        let (cap_a, cap_b) = (capture(11, &prompt_a), capture(22, &prompt_b));

        // Left panel: per-block cosine similarity, masked vs unmasked.
        let mut table = Table::new(&["block", "unmasked-cos", "masked-cos"]);
        let mut min_unmasked: f32 = 1.0;
        let mut sum_masked = 0.0f32;
        for b in 0..cfg.blocks {
            let ya = cap_a.blocks[b].y().expect("primed without K/V");
            let yb = cap_b.blocks[b].y().expect("primed without K/V");
            let mean_cos = |idx: &[usize]| -> f32 {
                let mut acc = 0.0;
                for &i in idx {
                    acc += cosine_similarity(ya.row(i).expect("row"), yb.row(i).expect("row"))
                        .expect("cos");
                }
                acc / idx.len() as f32
            };
            let cu = mean_cos(&unmasked);
            let cm = mean_cos(&masked);
            min_unmasked = min_unmasked.min(cu);
            sum_masked += cm;
            table.row(&[format!("{b}"), format!("{cu:.4}"), format!("{cm:.4}")]);
        }
        let mean_masked = sum_masked / cfg.blocks as f32;
        out.push_str(&format!("== {} (probe step {probe_step}) ==\n", cfg.name));
        out.push_str(&table.render());
        out.push_str(&format!(
            "unmasked-token activations stay similar across requests (min {min_unmasked:.3});\n\
             masked-token activations diverge (mean {mean_masked:.3}).\n",
        ));

        // Right panel: attention quadrant masses at a middle block.
        let probs = model
            .attention_probe(&make_latent(11), t, &prompt_a, cfg.blocks / 2)
            .expect("probe");
        let quad = |qs: &[usize], ks: &[usize]| -> f32 {
            let mut acc = 0.0;
            for &q in qs {
                for &k in ks {
                    acc += probs.at(&[q, k]).expect("prob");
                }
            }
            // Normalized per query row, so a query group's two
            // quadrants sum to 1.
            acc / qs.len() as f32
        };
        let q1 = quad(&unmasked, &unmasked);
        let q2 = quad(&unmasked, &masked);
        let q3 = quad(&masked, &masked);
        let q4 = quad(&masked, &unmasked);
        let mask_frac = masked.len() as f32 / cfg.tokens() as f32;
        out.push_str(&format!(
            "attention mass: unmasked→unmasked(①) {q1:.3} | unmasked→masked(②) {q2:.3}\n\
             \u{20}               masked→masked(③)   {q3:.3} | masked→unmasked(④) {q4:.3}\n\
             (mask covers {:.0}% of tokens; uniform attention would give ②={:.3}, ③={:.3})\n\n",
            mask_frac * 100.0,
            mask_frac,
            mask_frac
        ));
    }
    out.push_str(
        "Note: the left panel (activation similarity of unmasked tokens, the property\n\
         mask-aware caching relies on) reproduces the paper's finding — it follows from\n\
         the inpainting invariant and holds even with untrained weights. The right\n\
         panel's *excess* attention locality (masked↔masked above the uniform baseline)\n\
         is a property of trained attention and does not emerge under random weights;\n\
         see EXPERIMENTS.md for this documented substitution gap.\n",
    );
    println!("{out}");
    save_artifact("fig6_similarity.txt", &out);
}
