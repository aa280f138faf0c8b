//! Fig. 9 from traces — GPU bubble fraction of the cache-loading
//! schedules, measured on span timelines instead of closed-form
//! latency.
//!
//! For each evaluation setup, replays one denoise request per loading
//! scheme — the Algorithm 1 DP plan, the strawman block-wise pipeline,
//! and the naive load-everything-first schedule — into a shared
//! virtual-clock trace (`fps_bench::tracereplay`), then measures each
//! scheme's bubble fraction with `fps_trace::bubble_in_window` over
//! its request window. Expected shape, asserted at the headline
//! VITON-HD mask ratio: the DP timeline is bubble-free (< 2% idle GPU)
//! while the naive timeline stalls the GPU for the whole load phase
//! (> 20% idle). The replay is pure virtual-time arithmetic, so reruns
//! are byte-identical — also asserted, on the exported Chrome JSON.
//!
//! Flags: `--smoke` restricts to the first setup and the headline
//! ratio (used by `scripts/check.sh`); `--trace-out <path>` writes the
//! first setup's combined Chrome trace for chrome://tracing/Perfetto.

use fps_baselines::eval_setup;
use fps_bench::save_artifact;
use fps_bench::tracereplay::{replay_request, ReplayTracks};
use fps_maskcache::pipeline::plan_uniform;
use fps_metrics::Table;
use fps_serving::cost::BatchItem;
use fps_trace::{bubble_in_window, chrome_trace_string, critical_path, Clock, Trace, TraceSink};

/// The paper's VITON-HD mean mask ratio — the headline operating point
/// the bubble assertions run at.
const HEADLINE_RATIO: f64 = 0.11;

struct SchemeBubble {
    label: &'static str,
    bubble: f64,
    latency_secs: f64,
}

/// Replays all three schemes for one (setup, mask ratio) point into a
/// fresh trace and returns (trace, per-scheme bubbles).
fn replay_point(cm: &fps_serving::CostModel, ratio: f64) -> (Trace, Vec<SchemeBubble>) {
    let costs = cm.mask_aware_block_costs(&[BatchItem { mask_ratio: ratio }], false);
    let n = cm.model.blocks;
    let steps = cm.model.steps;
    let per_block = vec![costs; n];
    let dp_plan = plan_uniform(n, costs).use_cache();
    let all_cached = vec![true; n];

    let sink = TraceSink::recording(Clock::Virtual);
    let schemes: [(&'static str, &[bool], bool); 3] = [
        ("dp", &dp_plan, false),
        ("strawman", &all_cached, false),
        ("naive", &all_cached, true),
    ];
    for (pid, (label, plan, front_load)) in schemes.iter().enumerate() {
        let tracks = ReplayTracks::labelled(&sink, pid as u32, label);
        replay_request(&sink, tracks, 0, steps, &per_block, plan, *front_load);
    }
    let t = sink.drain().expect("recording sink");
    assert_eq!(t.dropped, 0, "replay must fit the ring buffers");

    let bubbles = schemes
        .iter()
        .enumerate()
        .map(|(pid, (label, _, _))| {
            let root = t
                .spans
                .iter()
                .find(|s| s.name == "request" && s.track.process == pid as u32)
                .expect("each scheme emits a request root");
            let b = bubble_in_window(&t, root.start_ns, root.end_ns, |s| {
                s.cat == "gpu" && s.track.process == pid as u32
            });
            // Critical-path sanity on the replayed tree: the path
            // through the spans never exceeds the request window.
            let path: u64 = critical_path(&t, root.id).iter().map(|s| s.nanos()).sum();
            assert!(
                path <= root.duration_ns(),
                "{label}: critical path overflow"
            );
            SchemeBubble {
                label,
                bubble: b.fraction(),
                latency_secs: root.duration_ns() as f64 / 1e9,
            }
        })
        .collect();
    (t, bubbles)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());

    // The bubble assertions run on the paper's headline platform,
    // SDXL on H800 (Fig. 4-left's +102% naive overhead is measured
    // there); smoke mode replays only that setup.
    let setups: Vec<_> = if smoke {
        eval_setup()
            .into_iter()
            .filter(|s| s.model.name == "sdxl")
            .collect()
    } else {
        eval_setup()
    };
    let ratios: &[f64] = if smoke {
        &[HEADLINE_RATIO]
    } else {
        &[0.05, HEADLINE_RATIO, 0.35, 0.8]
    };

    let mut out = String::from(
        "Fig. 9 from traces: GPU bubble fraction per loading scheme, measured on spans\n\n",
    );
    let mut first_trace: Option<Trace> = None;
    for setup in &setups {
        let cm = setup.cost_model();
        let mut table = Table::new(&["mask", "scheme", "latency(s)", "gpu-bubble"]);
        for &ratio in ratios {
            let (t, bubbles) = replay_point(&cm, ratio);
            // Determinism: the same point replays to byte-identical
            // Chrome JSON.
            let (t2, _) = replay_point(&cm, ratio);
            assert_eq!(
                chrome_trace_string(&t),
                chrome_trace_string(&t2),
                "replay must be byte-identical across reruns"
            );
            for s in &bubbles {
                table.row(&[
                    format!("{ratio:.2}"),
                    s.label.to_string(),
                    format!("{:.4}", s.latency_secs),
                    format!("{:.3}", s.bubble),
                ]);
                assert!(
                    (0.0..=1.0).contains(&s.bubble),
                    "{}: bubble {} out of range",
                    s.label,
                    s.bubble
                );
            }
            let dp = bubbles.iter().find(|s| s.label == "dp").unwrap();
            let naive = bubbles.iter().find(|s| s.label == "naive").unwrap();
            let strawman = bubbles.iter().find(|s| s.label == "strawman").unwrap();
            // The DP never loses to the strawman on the measured
            // timeline either.
            assert!(
                dp.latency_secs <= strawman.latency_secs + 1e-12,
                "dp slower than strawman at mask {ratio}"
            );
            let headline = (ratio - HEADLINE_RATIO).abs() < 1e-9 && cm.model.name == "sdxl";
            if headline {
                assert!(
                    dp.bubble < 0.02,
                    "DP must be bubble-free at the headline ratio: {}",
                    dp.bubble
                );
                assert!(
                    naive.bubble > 0.20,
                    "naive must stall the GPU at the headline ratio: {}",
                    naive.bubble
                );
            }
            if headline && first_trace.is_none() {
                first_trace = Some(t);
            }
        }
        out.push_str(&format!(
            "== {} on {} ({} blocks, {} steps) ==\n{}\n",
            cm.model.name,
            cm.gpu.name,
            cm.model.blocks,
            cm.model.steps,
            table.render()
        ));
    }
    out.push_str(
        "Bubble = idle GPU inside the request window / window, measured from spans.\n\
         The DP timeline stays bubble-free at production mask ratios; the naive\n\
         schedule idles the GPU for its whole serialized load phase.\n",
    );

    if let Some(path) = &trace_out {
        let t = first_trace.as_ref().expect("headline point was replayed");
        std::fs::write(path, chrome_trace_string(t)).expect("write --trace-out");
        eprintln!("wrote combined schedule trace to {path}");
    }

    println!("{out}");
    if !smoke {
        save_artifact("trace_bubbles.txt", &out);
    }
}
