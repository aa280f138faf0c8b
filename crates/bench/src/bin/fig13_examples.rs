//! Fig. 13 / Fig. 1 — visual examples per system.
//!
//! Edits one template with an irregular mask under every strategy and
//! writes the outputs as PPM images (plus the template and a mask
//! visualization) into the results directory, with per-strategy SSIM
//! against the Diffusers reference. The naive-disregard output
//! reproduces the distorted rightmost example of Fig. 1.

use fps_baselines::SystemKind;
use fps_bench::{mask_for, save_artifact, save_binary_artifact};
use fps_diffusion::{Image, ModelConfig};
use fps_metrics::Table;
use fps_quality::ssim;
use fps_workload::MaskShape;

fn main() {
    let cfg = ModelConfig::sdxl_like();
    // Capture K/V at priming so the Fig. 7 variant can run too.
    let mut config = flashps::FlashPsConfig::new(cfg.clone());
    config.capture_kv = true;
    let mut system = flashps::FlashPs::new(config).expect("system");
    system
        .register_template(0, &Image::template(cfg.pixel_h(), cfg.pixel_w(), 5))
        .expect("register");
    let mask = mask_for(&cfg, 0.18, MaskShape::Blob, 21);
    let prompt = "replace with a red scarf";
    let seed = 5;

    // Template and mask visualization.
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 5);
    save_binary_artifact("fig13_template.ppm", &template.to_ppm());
    let mut mask_vis = template.clone();
    for y in 0..cfg.pixel_h() {
        for x in 0..cfg.pixel_w() {
            if mask.get(y, x) {
                mask_vis.set_pixel(y, x, [1.0, 0.1, 0.1]);
            }
        }
    }
    save_binary_artifact("fig13_mask.ppm", &mask_vis.to_ppm());

    let reference = system
        .edit_with_strategy(
            0,
            &mask,
            prompt,
            seed,
            &SystemKind::Diffusers.numeric_strategy(&cfg, None),
        )
        .expect("reference");
    save_binary_artifact("fig13_diffusers.ppm", &reference.image.to_ppm());

    let mut table = Table::new(&["system", "SSIM-vs-diffusers", "steps-skipped"]);
    table.row_strs(&["diffusers", "1.000 (reference)", "0"]);
    let mut scores: Vec<(&'static str, f64)> = Vec::new();
    for sys_kind in [
        SystemKind::FlashPs,
        SystemKind::FlashPsKv,
        SystemKind::FisEdit,
        SystemKind::TeaCache,
        SystemKind::Naive,
    ] {
        let strategy = match sys_kind {
            SystemKind::FlashPs | SystemKind::FlashPsKv => {
                sys_kind.numeric_strategy(&cfg, Some(system.plan_for_ratio(mask.ratio())))
            }
            _ => sys_kind.numeric_strategy(&cfg, None),
        };
        let out = system
            .edit_with_strategy(0, &mask, prompt, seed, &strategy)
            .expect("edit");
        let s = ssim(&out.image, &reference.image).expect("ssim");
        scores.push((sys_kind.label(), s));
        save_binary_artifact(
            &format!("fig13_{}.ppm", sys_kind.label()),
            &out.image.to_ppm(),
        );
        table.row(&[
            sys_kind.label().into(),
            format!("{s:.3}"),
            format!("{}", out.steps_skipped),
        ]);
    }
    let out = format!(
        "Fig. 13 / Fig. 1 reproduction: visual examples (sdxl-like, blob mask {:.0}%)\n\n{}\n\
         {}PPM images are in the results directory.\n",
        mask.ratio() * 100.0,
        table.render(),
        verdict(&scores)
    );
    println!("{out}");
    save_artifact("fig13_examples.txt", &out);
}

/// The closing sentences, derived from the SSIMs in the table: which
/// system is closest to the reference, how far apart the caching
/// systems (everything but naive) are, and — only while naive disregard
/// scores lowest — the Fig. 1-rightmost remark.
fn verdict(scores: &[(&'static str, f64)]) -> String {
    let mut ranked = scores.to_vec();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (lowest, worst) = *ranked.first().expect("scored systems");
    let (closest, best) = *ranked.last().expect("scored systems");
    let naive = SystemKind::Naive.label();
    ranked.retain(|(label, _)| *label != naive);
    let (lo, hi) = (ranked[0].1, ranked[ranked.len() - 1].1);
    let mut out = format!(
        "{closest} sits closest to the reference (SSIM {best:.3}); the {} caching systems lie\n\
         within {:.3} of each other ({lo:.3} to {hi:.3}).\n",
        ranked.len(),
        hi - lo
    );
    if lowest == naive {
        out.push_str(&format!(
            "Naive disregard (Fig. 1-rightmost) scores lowest ({worst:.3}): it distorts the masked\n\
             region because it generates without template context.\n"
        ));
    }
    out
}
