//! §6.6 — system overheads.
//!
//! Measures the real wall-clock cost of FlashPS's control-plane
//! operations in this implementation — the Algorithm 2 scheduling
//! decision, the Algorithm 1 pipeline plan, and the regression-model
//! fit — and restates the paper's measured constants that the
//! simulator carries (batching 1.2 ms/step, serialization 1.1 ms,
//! IPC 1.3 ms).
//!
//! Reproduces: every per-request overhead is sub-millisecond to
//! low-millisecond — negligible against multi-second serving latency.

use std::time::Instant;

use flashps::MaskAwareRouter;
use fps_baselines::eval_setup;
use fps_bench::save_artifact;
use fps_maskcache::pipeline::plan_uniform;
use fps_metrics::Table;
use fps_serving::cost::BatchItem;
use fps_serving::profiler::fit_latency_model;
use fps_serving::router::{Router, WorkerView};
use fps_serving::worker::OutstandingReq;
use fps_simtime::SimTime;
use fps_workload::trace::{MaskShapeSpec, RequestSpec};

fn main() {
    let setup = &eval_setup()[2]; // Flux: most blocks, worst case.
    let cm = setup.cost_model();
    let mut out = String::from("§6.6 reproduction: system overheads\n\n");
    let mut table = Table::new(&["operation", "measured", "paper"]);

    // Algorithm 2 decision latency across 8 workers.
    let mut router = MaskAwareRouter::new(cm.clone()).expect("router");
    let workers: Vec<WorkerView> = (0..8)
        .map(|id| WorkerView {
            id,
            outstanding: (0..4)
                .map(|k| OutstandingReq {
                    mask_ratio: 0.1 + 0.05 * k as f64,
                    steps_left: 20 + k,
                })
                .collect(),
            max_batch: 8,
            model_tokens: cm.model.tokens(),
            health: fps_serving::worker::WorkerHealth::Healthy,
        })
        .collect();
    let req = RequestSpec {
        id: 0,
        arrival_ns: 0,
        template_id: 0,
        mask_ratio: 0.15,
        mask_shape: MaskShapeSpec::Blob,
        seed: 0,
    };
    let n = 2000;
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(router.route(&req, &workers, SimTime::ZERO));
    }
    let route_us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
    table.row(&[
        "scheduling decision (Algorithm 2, 8 workers)".into(),
        format!("{route_us:.1} µs"),
        "0.6 ms".into(),
    ]);
    assert!(route_us < 600.0, "decision must stay sub-paper-budget");

    // Algorithm 1's closed-form plan.
    let costs = cm.mask_aware_block_costs(&[BatchItem { mask_ratio: 0.15 }; 8], false);
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(plan_uniform(
            std::hint::black_box(cm.model.blocks),
            std::hint::black_box(costs),
        ));
    }
    let plan_us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
    table.row(&[
        format!("pipeline plan (Algorithm 1, {} blocks)", cm.model.blocks),
        format!("{plan_us:.1} µs"),
        "negligible (O(N))".into(),
    ]);

    // Offline regression fit (one-time).
    let start = Instant::now();
    let _ = fit_latency_model(&cm).expect("fit");
    let fit_ms = start.elapsed().as_secs_f64() * 1e3;
    table.row(&[
        "offline regression fit (one-time)".into(),
        format!("{fit_ms:.2} ms"),
        "offline".into(),
    ]);

    // Constants the simulator carries from the paper's measurements.
    table.row_strs(&["batch organization per step", "carried as 1.2 ms", "1.2 ms"]);
    table.row_strs(&["latent serialization", "carried as 1.1 ms", "1.1 ms"]);
    table.row_strs(&["IPC to postprocess process", "carried as 1.3 ms", "1.3 ms"]);

    out.push_str(&table.render());
    out.push_str(
        "\nTakeaway (as in the paper): control-plane overheads are microseconds-to-\n\
         milliseconds, negligible against request latencies measured in seconds.\n",
    );
    println!("{out}");
    save_artifact("overhead_micro.txt", &out);
}
