//! Fig. 3 — mask-ratio distributions of the production trace, the
//! public trace, and VITON-HD.
//!
//! Reproduces: means ≈ 0.11 / 0.19 / 0.35 with wide per-request
//! variation.

use fps_bench::save_artifact;
use fps_metrics::{percentile, Histogram, Table};
use fps_workload::RatioDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let samples = 200_000;
    let mut out = String::new();
    let mut table = Table::new(&["trace", "mean", "p50", "p95", "paper-mean"]);
    for (dist, paper_mean) in [
        (RatioDistribution::ProductionTrace, 0.11),
        (RatioDistribution::PublicTrace, 0.19),
        (RatioDistribution::VitonHd, 0.35),
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hist = Histogram::new(0.0, 1.0, 20).expect("valid range");
        let mut values = Vec::with_capacity(samples);
        for _ in 0..samples {
            let v = dist.sample(&mut rng);
            hist.record(v);
            values.push(v);
        }
        let p50 = percentile(&values, 0.50).expect("samples drawn");
        let p95 = percentile(&values, 0.95).expect("samples drawn");
        table.row(&[
            format!("{dist:?}"),
            format!("{:.3}", hist.mean()),
            format!("{p50:.3}"),
            format!("{p95:.3}"),
            format!("{paper_mean:.2}"),
        ]);
        out.push_str(&format!("\n== {dist:?} (mean {:.3}) ==\n", hist.mean()));
        out.push_str(&hist.ascii(48));
    }
    let header = "Fig. 3 reproduction: mask-ratio distributions\n\n";
    let rendered = format!("{header}{}\n{out}", table.render());
    println!("{rendered}");
    save_artifact("fig3_mask_dist.txt", &rendered);
}
