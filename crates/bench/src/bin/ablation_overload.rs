//! Overload ablation — SLO-aware admission and the degradation ladder
//! under a saturating burst.
//!
//! Replays one seeded bursty VITON-HD-ratio trace (offered load well
//! above what two workers sustain) through the cluster simulator twice:
//! once with overload control ON (token-bucket admission, in-queue
//! deadline shedding, the FlashPS-kv → … → reduced-steps ladder) and
//! once OFF (same premium engine, no controller). Reports an
//! [`SloReport`] per arm and a per-rung output-quality probe (SSIM
//! against the full-recompute reference on the tiny numeric model).
//!
//! Expected shape: the OFF arm queues everything and blows the
//! deadline for most of the burst — high p95, low goodput *at the
//! deadline*. The ON arm sheds what cannot finish in time and serves
//! the rest, some of it at degraded rungs: strictly higher
//! goodput-at-deadline, strictly lower p95, zero silent losses, and
//! byte-identical reruns.

use flashps::rung_strategy;
use flashps::system::FlashPs;
use fps_bench::{save_artifact, system_for};
use fps_diffusion::{Image, ModelConfig, Strategy};
use fps_json::{Json, ToJson};
use fps_metrics::{percentile, SloReport, Table};
use fps_overload::Rung;
use fps_quality::ssim;
use fps_serving::cluster::{ClusterConfig, ClusterSim, RunReport};
use fps_serving::router::LeastLoadedRouter;
use fps_serving::{CostModel, EngineKind, GpuSpec};
use fps_simtime::SimDuration;
use fps_trace::{bubble_in_window, chrome_trace_string, Clock, TraceSink};
use fps_workload::trace::ArrivalProcess;
use fps_workload::{QualityBenchmark, RatioDistribution, Trace, TraceConfig};

const DEADLINE_SECS: f64 = 30.0;
const WORKERS: usize = 2;

/// Fills the trace-derived fields of `slo`: GPU bubble fraction over
/// the run's span window and per-rung queue-wait percentiles from the
/// "queue" spans, grouped by their `rung` arg.
fn apply_trace_aggregates(slo: &mut SloReport, t: &fps_trace::Trace) {
    if let Some((lo, hi)) = t.window() {
        slo.bubble_fraction = Some(bubble_in_window(t, lo, hi, |s| s.cat == "gpu").fraction());
    }
    for rung in &mut slo.rungs {
        let waits: Vec<f64> = t
            .spans_named("queue")
            .filter(|s| s.arg("rung").and_then(Json::as_str) == Some(rung.label.as_str()))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        rung.queue_wait_p50_secs = percentile(&waits, 0.50);
        rung.queue_wait_p95_secs = percentile(&waits, 0.95);
    }
}

/// Mean SSIM of each rung's output against the full-recompute
/// reference, on the tiny numeric model over VITON-HD-like cases.
fn rung_quality(cases: usize) -> Vec<(String, f64)> {
    // The tiny model's 4-step schedule is too coarse for step
    // skipping to degrade gracefully; a 12-step schedule keeps the
    // probe fast while giving the ladder rungs room to differ.
    let mut cfg = ModelConfig::tiny();
    cfg.steps = 12;
    let bench = QualityBenchmark::viton_hd_like(cases, cfg.pixel_h(), cfg.pixel_w(), 24);
    // The premium rung serves cached-K/V attention, which needs K/V
    // captured at template priming.
    let mut kv_config = flashps::FlashPsConfig::new(cfg.clone());
    kv_config.capture_kv = true;
    let mut system = FlashPs::new(kv_config).expect("system");
    let mut seen = std::collections::HashSet::new();
    for case in &bench.cases {
        if seen.insert(case.template_id) {
            let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), case.template_seed);
            system
                .register_template(case.template_id, &img)
                .expect("register");
        }
    }
    // The deepest rung also runs a shortened schedule: a second system
    // over the same templates with 0.6× the denoising steps.
    let mut reduced_cfg = cfg.clone();
    reduced_cfg.steps = ((cfg.steps as f64) * Rung::ReducedSteps.steps_factor())
        .round()
        .max(1.0) as usize;
    let mut reduced_system = system_for(reduced_cfg, 0);
    let mut seen = std::collections::HashSet::new();
    for case in &bench.cases {
        if seen.insert(case.template_id) {
            let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), case.template_seed);
            reduced_system
                .register_template(case.template_id, &img)
                .expect("register");
        }
    }

    let reference: Vec<Image> = bench
        .cases
        .iter()
        .map(|c| {
            system
                .edit_with_strategy(
                    c.template_id,
                    &c.mask,
                    &c.prompt,
                    c.seed,
                    &Strategy::FullRecompute,
                )
                .expect("reference edit")
                .image
        })
        .collect();

    Rung::ALL
        .iter()
        .map(|&rung| {
            let sys = if rung == Rung::ReducedSteps {
                &reduced_system
            } else {
                &system
            };
            let mean: f64 = bench
                .cases
                .iter()
                .zip(reference.iter())
                .map(|(c, r)| {
                    let strategy = rung_strategy(rung, sys, c.mask.ratio(), cfg.steps);
                    let out = sys
                        .edit_with_strategy(c.template_id, &c.mask, &c.prompt, c.seed, &strategy)
                        .expect("rung edit")
                        .image;
                    ssim(&out, r).expect("ssim")
                })
                .sum::<f64>()
                / cases as f64;
            (rung.label().to_string(), mean)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());
    let quality_cases = if quick { 4 } else { 12 };

    // A seeded burst that saturates two H800 workers: ~4.5 rps of
    // VITON-HD-ratio edits against ~2 rps of sustainable capacity.
    let trace = Trace::generate(&TraceConfig {
        rps: 5.0,
        arrivals: ArrivalProcess::bursty_default(),
        duration_secs: 120.0,
        ratio_dist: RatioDistribution::VitonHd,
        num_templates: 8,
        zipf_s: 1.0,
        seed: 24,
    });
    let submitted = trace.len() as u64;
    let mean_ratio =
        trace.requests.iter().map(|r| r.mask_ratio).sum::<f64>() / trace.len().max(1) as f64;
    let cost = || CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl());

    let on_config = || {
        ClusterConfig::with_overload_control(
            cost(),
            WORKERS,
            mean_ratio,
            SimDuration::from_secs_f64(DEADLINE_SECS),
        )
    };
    // The OFF arm serves the same premium engine with no controller:
    // everything queues, nothing sheds, nothing degrades.
    let off_config = || {
        let mut cfg = ClusterConfig::flashps_default(cost(), WORKERS);
        cfg.engine = EngineKind::FlashPs { kv: true };
        cfg
    };

    let run = |cfg: ClusterConfig| -> RunReport {
        let mut router = LeastLoadedRouter;
        ClusterSim::run(cfg, &trace, &mut router).expect("cluster run")
    };
    // The first run of each arm records a virtual-clock trace; the
    // replays run untraced, which doubles as a passivity check
    // (tracing must not change outcomes).
    let traced_run = |cfg: ClusterConfig, sink: &TraceSink| -> RunReport {
        let mut cfg = cfg;
        cfg.trace = sink.clone();
        run(cfg)
    };

    let on_sink = TraceSink::recording(Clock::Virtual);
    let off_sink = TraceSink::recording(Clock::Virtual);
    let on = traced_run(on_config(), &on_sink);
    let off = traced_run(off_config(), &off_sink);
    let on_trace = on_sink.drain().expect("ON arm trace");
    let off_trace = off_sink.drain().expect("OFF arm trace");

    // Determinism: both arms replay byte-identically.
    let on_replay = run(on_config());
    assert_eq!(
        on.outcomes, on_replay.outcomes,
        "ON arm must replay identically"
    );
    assert_eq!(
        on.rejected, on_replay.rejected,
        "ON arm must replay identically"
    );
    let off_replay = run(off_config());
    assert_eq!(
        off.outcomes, off_replay.outcomes,
        "OFF arm must replay identically"
    );

    let quality = rung_quality(quality_cases);
    let mut on_slo = on.slo_report("overload-on", DEADLINE_SECS);
    let mut off_slo = off.slo_report("overload-off", DEADLINE_SECS);
    for rung in &mut on_slo.rungs {
        rung.quality = quality
            .iter()
            .find(|(l, _)| *l == rung.label)
            .map(|&(_, q)| q);
    }
    apply_trace_aggregates(&mut on_slo, &on_trace);
    apply_trace_aggregates(&mut off_slo, &off_trace);

    if let Some(path) = &trace_out {
        std::fs::write(path, chrome_trace_string(&on_trace)).expect("write --trace-out");
        eprintln!("wrote ON-arm chrome trace to {path}");
    }

    // Conservation on both arms, and the headline comparison.
    assert_eq!(on_slo.submitted, submitted, "ON arm lost requests");
    assert_eq!(off_slo.submitted, submitted, "OFF arm lost requests");
    assert!(on_slo.shed > 0, "saturation must shed at admission");
    assert!(
        on_slo.goodput_at_deadline_rps > off_slo.goodput_at_deadline_rps,
        "overload control must win on goodput at the deadline: {} vs {}",
        on_slo.goodput_at_deadline_rps,
        off_slo.goodput_at_deadline_rps
    );
    assert!(
        on_slo.p95_latency_secs < off_slo.p95_latency_secs,
        "overload control must win on p95: {} vs {}",
        on_slo.p95_latency_secs,
        off_slo.p95_latency_secs
    );
    for (label, q) in &quality {
        assert!(
            q.is_finite() && *q > 0.0 && *q <= 1.0 + 1e-9,
            "{label}: SSIM {q}"
        );
    }

    let mut out =
        String::from("Overload ablation: SLO attainment with and without overload control\n\n");
    out.push_str(&format!(
        "trace: bursty VITON-HD ratios, {} requests over 120s (offered ~{:.1} rps), \
         {} workers, deadline {}s\n\n",
        submitted,
        submitted as f64 / 120.0,
        WORKERS,
        DEADLINE_SECS
    ));
    let mut table = Table::new(&[
        "arm",
        "served",
        "in-SLO",
        "shed",
        "deadline-rej",
        "goodput@SLO(req/s)",
        "p95(s)",
        "attainment",
        "gpu-bubble",
    ]);
    for r in [&on_slo, &off_slo] {
        table.row(&[
            r.label.clone(),
            format!("{}", r.served),
            format!("{}", r.served_within_deadline),
            format!("{}", r.shed),
            format!("{}", r.deadline_rejected),
            format!("{:.3}", r.goodput_at_deadline_rps),
            format!("{:.2}", r.p95_latency_secs),
            format!("{:.3}", r.attainment()),
            r.bubble_fraction
                .map(|b| format!("{b:.3}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&table.render());

    out.push_str("\nDegradation-ladder service mix (ON arm), per-rung quality and queue wait:\n");
    let mut rung_table = Table::new(&[
        "rung",
        "served",
        "SSIM vs full recompute",
        "queue-wait p50(s)",
        "p95(s)",
    ]);
    let fmt_secs = |v: Option<f64>| v.map(|s| format!("{s:.2}")).unwrap_or_else(|| "-".into());
    for r in &on_slo.rungs {
        rung_table.row(&[
            r.label.clone(),
            format!("{}", r.served),
            r.quality
                .map(|q| format!("{q:.3}"))
                .unwrap_or_else(|| "-".into()),
            fmt_secs(r.queue_wait_p50_secs),
            fmt_secs(r.queue_wait_p95_secs),
        ]);
    }
    out.push_str(&rung_table.render());
    out.push_str(
        "\nThe OFF arm queues the whole burst: most answers arrive after the deadline.\n\
         The ON arm sheds infeasible work at admission, rejects queue-expired requests\n\
         early, and serves the remainder — partly at degraded rungs — inside the SLO.\n\
         Rung compute cost falls monotonically with depth; SSIM on the tiny synthetic\n\
         model does not (step-skip quality depends on *which* steps are skipped), so\n\
         the quality column is reported per rung rather than asserted monotone.\n",
    );
    println!("{out}");
    save_artifact("ablation_overload.txt", &out);
    save_artifact(
        "ablation_overload.json",
        &vec![on_slo, off_slo].to_json().to_string_pretty(),
    );
}
