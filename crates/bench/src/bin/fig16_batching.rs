//! Fig. 16-left + §6.4 — batching strategies on one Flux/H800 worker.
//!
//! Compares static batching, naive continuous batching, and FlashPS's
//! disaggregated continuous batching at RPS 0.5 with max batch 8:
//! P95 request latency, P95 inference latency, and interruption
//! statistics.
//!
//! Reproduces: static +35% and naive-CB +40% P95 over disaggregated
//! CB; naive-CB interrupts requests ~6 (median) / ~8 (P95) times.

use fps_baselines::{eval_setup, SystemKind};
use fps_bench::save_artifact;
use fps_metrics::{percentile, Table};
use fps_serving::{BatchingPolicy, ClusterSim};
use fps_workload::{RatioDistribution, Trace, TraceConfig};

fn main() {
    let setup = &eval_setup()[2]; // Flux on H800, per the paper.
                                  // The paper drives one Flux worker at RPS 0.5; our calibrated Flux
                                  // worker saturates near 0.28 req/s, so the equivalent operating
                                  // point (~80% utilization) is RPS 0.22.
    let trace = Trace::generate(&TraceConfig {
        rps: 0.2,
        arrivals: fps_workload::trace::ArrivalProcess::Poisson,
        duration_secs: 1200.0,
        ratio_dist: RatioDistribution::ProductionTrace,
        num_templates: 8,
        zipf_s: 1.0,
        seed: 0x16,
    });
    let mut out = String::from(
        "Fig. 16-left reproduction: batching strategies (Flux/H800, 1 worker, ~80% load)\n\n",
    );
    let mut table = Table::new(&[
        "batching",
        "p95-req(s)",
        "p95-inf(s)",
        "median-intr",
        "p95-intr",
        "vs-disagg",
    ]);
    let mut p95s = Vec::new();
    for policy in [
        BatchingPolicy::Static,
        BatchingPolicy::ContinuousNaive,
        BatchingPolicy::ContinuousDisaggregated,
    ] {
        let mut cfg = setup
            .cluster_config(SystemKind::FlashPs, 1)
            .expect("supported");
        cfg.batching = policy;
        let mut router = fps_serving::LeastLoadedRouter;
        let report = ClusterSim::run(cfg, &trace, &mut router).expect("run");
        let p95_req = report.p95_latency();
        let inference: Vec<f64> = report.outcomes.iter().map(|o| o.inference).collect();
        let ints: Vec<f64> = report
            .outcomes
            .iter()
            .map(|o| o.interruptions as f64)
            .collect();
        let p95 = |v: &[f64]| percentile(v, 0.95).expect("requests were served");
        let p95_inf = p95(&inference);
        let median_intr = percentile(&ints, 0.50).expect("requests were served");
        p95s.push((policy.label(), p95_req));
        table.row(&[
            policy.label().to_string(),
            format!("{p95_req:.2}"),
            format!("{p95_inf:.2}"),
            format!("{median_intr:.0}"),
            format!("{:.0}", p95(&ints)),
            String::new(),
        ]);
    }
    // Fill the comparison column against disaggregated CB.
    let disagg = p95s
        .iter()
        .find(|(l, _)| *l == "disagg-cb")
        .map(|(_, v)| *v)
        .expect("present");
    let mut final_table = Table::new(&["batching", "p95-req(s)", "vs-disagg"]);
    for (label, v) in &p95s {
        final_table.row(&[
            label.to_string(),
            format!("{v:.2}"),
            format!("+{:.0}%", (v / disagg - 1.0) * 100.0),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&final_table.render());
    out.push_str(
        "\nPaper: static +35%, naive continuous +40% P95 over FlashPS's disaggregated\n\
         continuous batching; median/P95 interruptions 6/8 under naive CB.\n",
    );
    println!("{out}");
    save_artifact("fig16_batching.txt", &out);
}
