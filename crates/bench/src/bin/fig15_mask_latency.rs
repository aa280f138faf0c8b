//! Fig. 15 — mask-aware editing latency vs mask ratio.
//!
//! Left (kernel level): real wall-clock timings of the numeric
//! substrate's masked attention/linear/FFN kernels at toy scale —
//! latency grows with the mask ratio, consistent with Table 1.
//!
//! Right (image level): analytic image-editing latency for
//! SD2.1/SDXL/Flux under the cost model, with the speedup at the
//! paper's reference ratio m = 0.2 (paper: 1.3/2.2/1.9×).

use std::time::Instant;

use fps_baselines::eval_setup;
use fps_bench::save_artifact;
use fps_diffusion::flops::masked_tokens;
use fps_diffusion::ModelConfig;
use fps_metrics::Table;
use fps_serving::cost::BatchItem;
use fps_tensor::ops::{gelu, matmul, matmul_bt, softmax_rows};
use fps_tensor::rng::DetRng;
use fps_tensor::Tensor;

/// Times one masked transformer-kernel bundle (QKV projection,
/// attention scores + values, FFN) at `m` of `l` tokens; returns
/// microseconds averaged over `reps`.
fn kernel_micros(l: usize, h: usize, m: f64, reps: usize) -> f64 {
    let mut rng = DetRng::new(15);
    let ml = ((m * l as f64).round() as usize).clamp(1, l);
    let x = Tensor::randn([ml, h], &mut rng);
    let w = Tensor::xavier(h, h, &mut rng);
    let w1 = Tensor::xavier(h, 4 * h, &mut rng);
    let w2 = Tensor::xavier(4 * h, h, &mut rng);
    let start = Instant::now();
    for _ in 0..reps {
        let q = matmul(&x, &w).expect("q");
        let k = matmul(&x, &w).expect("k");
        let v = matmul(&x, &w).expect("v");
        let scores = softmax_rows(&matmul_bt(&q, &k).expect("scores")).expect("softmax");
        let ctx = matmul(&scores, &v).expect("ctx");
        let ff = matmul(&gelu(&matmul(&ctx, &w1).expect("ff1")), &w2).expect("ff2");
        std::hint::black_box(ff);
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    let ratios = [0.1, 0.2, 0.35, 0.5, 0.75, 1.0];
    let mut out = String::from("Fig. 15 reproduction: latency vs mask ratio\n\n");

    // Kernel level: real timings at a mid-size toy scale.
    let (l, h) = (256usize, 128usize);
    let mut table = Table::new(&["mask", "masked-tokens", "kernel(us)", "vs-full"]);
    let full = kernel_micros(l, h, 1.0, 10);
    for &m in &ratios {
        let t = kernel_micros(l, h, m, 10);
        table.row(&[
            format!("{m:.2}"),
            format!("{}", ((m * l as f64) as usize).max(1)),
            format!("{t:.0}"),
            format!("{:.2}x", t / full),
        ]);
    }
    out.push_str(&format!(
        "== kernel level (real timings, L={l}, H={h}) ==\n{}",
        table.render()
    ));
    out.push_str("Kernel latency falls with the mask ratio, per Table 1.\n\n");

    // Image level: analytic editing latency per model.
    let mut table = Table::new(&["model", "mask", "flashps(s)", "full(s)", "speedup"]);
    for setup in eval_setup() {
        let cm = setup.cost_model();
        let steps = cm.model.steps as f64;
        let full_lat = cm.step_latency_full(1).as_secs_f64() * steps;
        for &m in &ratios {
            let aware = cm
                .step_latency_mask_aware(&[BatchItem { mask_ratio: m }], false)
                .latency;
            let aware_lat = aware.as_secs_f64() * steps;
            table.row(&[
                cm.model.name.clone(),
                format!("{m:.2}"),
                format!("{aware_lat:.2}"),
                format!("{full_lat:.2}"),
                format!("{:.2}x", full_lat / aware_lat),
            ]);
        }
    }
    out.push_str(&format!(
        "== image level (cost model) ==\n{}",
        table.render()
    ));

    // Reference point: speedups at m = 0.2.
    let mut line = String::from("speedup at m=0.2: ");
    for setup in eval_setup() {
        let cm = setup.cost_model();
        let full_lat = cm.step_latency_full(1).as_secs_f64();
        let aware = cm
            .step_latency_mask_aware(&[BatchItem { mask_ratio: 0.2 }], false)
            .latency;
        line.push_str(&format!(
            "{} {:.2}x  ",
            cm.model.name,
            full_lat / aware.as_secs_f64()
        ));
    }
    out.push_str(&line);
    out.push_str("(paper: SD2.1 1.3x, SDXL 2.2x, Flux 1.9x)\n");

    // Cross-check the masked-token clamp used throughout.
    let cfg = ModelConfig::paper_sdxl();
    assert_eq!(masked_tokens(&cfg, 1.0), cfg.tokens());
    println!("{out}");
    save_artifact("fig15_mask_latency.txt", &out);
}
