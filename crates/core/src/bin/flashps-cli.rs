//! `flashps-cli` — drive the FlashPS system from the command line.
//!
//! ```text
//! flashps-cli edit  [--model sdxl] [--ratio 0.2] [--prompt "..."] [--seed 1] [--out edit.ppm]
//! flashps-cli serve [--model sdxl] [--rps 1.0] [--workers 4] [--duration 120] [--trace-out t.json]
//! flashps-cli plan  [--model sdxl] [--ratio 0.2] [--batch 4]
//! ```
//!
//! `edit` runs a real numeric edit and writes the output image; `serve`
//! runs the cluster simulator and prints latency statistics; `plan`
//! prints Algorithm 1's block decisions for a mask ratio.
//!
//! `serve --trace-out <path>` additionally records the run's span
//! timeline and writes it as Chrome trace JSON — load it in
//! `chrome://tracing` or <https://ui.perfetto.dev> (see README.md).
//! The export includes the control plane's decision events (admit /
//! shed / rung / route_decision, on the dedicated control track), each
//! stamped with the plane's clock domain.

use std::collections::HashMap;

use flashps::experiment::{run_serving, RouterKind, ServingRun};
use flashps::{FlashPs, FlashPsConfig};
use fps_baselines::{eval_setup, EvalSetup, SystemKind};
use fps_diffusion::{Image, ModelConfig};
use fps_serving::cost::BatchItem;
use fps_trace::{chrome_trace_string, Clock, TraceSink};
use fps_workload::trace::ArrivalProcess;
use fps_workload::{Mask, MaskShape, RatioDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

fn toy_model(name: &str) -> ModelConfig {
    match name {
        "sd21" | "sd2.1" => ModelConfig::sd21_like(),
        "flux" => ModelConfig::flux_like(),
        _ => ModelConfig::sdxl_like(),
    }
}

fn setup_for(name: &str) -> EvalSetup {
    let setups = eval_setup();
    let want = match name {
        "sd21" | "sd2.1" => "sd2.1",
        "flux" => "flux",
        _ => "sdxl",
    };
    setups
        .into_iter()
        .find(|s| s.model.name == want)
        .expect("known model")
}

fn cmd_edit(flags: &HashMap<String, String>) -> Result<(), String> {
    let cfg = toy_model(flags.get("model").map(String::as_str).unwrap_or("sdxl"));
    let ratio: f64 = flags
        .get("ratio")
        .map(|v| v.parse().map_err(|e| format!("bad --ratio: {e}")))
        .transpose()?
        .unwrap_or(0.2);
    let prompt = flags
        .get("prompt")
        .cloned()
        .unwrap_or_else(|| "add a red scarf".to_string());
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(1);
    let out_path = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "edit.ppm".to_string());

    let mut system = FlashPs::new(FlashPsConfig::new(cfg.clone())).map_err(|e| e.to_string())?;
    let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), seed ^ 0x7E);
    system
        .register_template(0, &template)
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = Mask::generate(
        cfg.pixel_h(),
        cfg.pixel_w(),
        MaskShape::Blob,
        ratio,
        &mut rng,
    );
    let result = system
        .edit(0, &mask, &prompt, seed)
        .map_err(|e| e.to_string())?;
    std::fs::write(&out_path, result.output.image.to_ppm()).map_err(|e| e.to_string())?;
    println!(
        "edited {} ({} tokens masked, {:.1}% ratio) with \"{}\"",
        cfg.name,
        (result.mask_ratio * cfg.tokens() as f64).round() as usize,
        result.mask_ratio * 100.0,
        prompt
    );
    println!(
        "plan cached {}/{} blocks; {:.1}x fewer FLOPs than full recompute",
        result.use_cache.iter().filter(|&&b| b).count(),
        cfg.blocks,
        result.speedup_vs_full
    );
    println!("wrote {out_path}");
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let setup = setup_for(flags.get("model").map(String::as_str).unwrap_or("sdxl"));
    let rps: f64 = flags
        .get("rps")
        .map(|v| v.parse().map_err(|e| format!("bad --rps: {e}")))
        .transpose()?
        .unwrap_or(1.0);
    let workers: usize = flags
        .get("workers")
        .map(|v| v.parse().map_err(|e| format!("bad --workers: {e}")))
        .transpose()?
        .unwrap_or(4);
    let duration: f64 = flags
        .get("duration")
        .map(|v| v.parse().map_err(|e| format!("bad --duration: {e}")))
        .transpose()?
        .unwrap_or(120.0);
    let trace_out = flags.get("trace-out").cloned();
    println!(
        "simulating FlashPS: {} on {}, {workers} workers, {rps} req/s for {duration}s",
        setup.model.name, setup.gpu.name
    );
    let sink = match &trace_out {
        Some(_) => TraceSink::recording(Clock::Virtual),
        None => TraceSink::disabled(),
    };
    let run = ServingRun {
        system: SystemKind::FlashPs,
        router: RouterKind::MaskAware,
        workers,
        rps,
        arrivals: ArrivalProcess::Poisson,
        duration_secs: duration,
        ratio_dist: RatioDistribution::ProductionTrace,
        seed: 0xC11,
        trace: sink.clone(),
    };
    let point = run_serving(&setup, &run)
        .map_err(|e| e.to_string())?
        .ok_or("unsupported combination")?;
    println!(
        "served {} requests | mean {:.2}s | p95 {:.2}s | queueing {:.2}s | throughput {:.2} req/s",
        point.served, point.mean_latency, point.p95_latency, point.mean_queueing, point.throughput
    );
    if let Some(path) = trace_out {
        let t = sink.drain().ok_or("trace sink was not recording")?;
        std::fs::write(&path, chrome_trace_string(&t)).map_err(|e| e.to_string())?;
        println!(
            "wrote {} spans / {} events to {path} (open in chrome://tracing or ui.perfetto.dev)",
            t.spans.len(),
            t.events.len()
        );
    }
    Ok(())
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let setup = setup_for(flags.get("model").map(String::as_str).unwrap_or("sdxl"));
    let ratio: f64 = flags
        .get("ratio")
        .map(|v| v.parse().map_err(|e| format!("bad --ratio: {e}")))
        .transpose()?
        .unwrap_or(0.2);
    let batch: usize = flags
        .get("batch")
        .map(|v| v.parse().map_err(|e| format!("bad --batch: {e}")))
        .transpose()?
        .unwrap_or(1);
    let cm = setup.cost_model();
    let items = vec![BatchItem { mask_ratio: ratio }; batch.max(1)];
    let plan = cm.step_latency_mask_aware(&items, false);
    let latency = plan.latency;
    let full = cm.step_latency_full(batch.max(1));
    println!(
        "{} on {}: mask {ratio:.2}, batch {batch}",
        cm.model.name, cm.gpu.name
    );
    let picto = "F".repeat(plan.full) + &"C".repeat(plan.cached);
    println!("Algorithm 1 plan (C = cached, F = full): {picto}");
    println!(
        "step latency {:.1} ms (full recompute {:.1} ms, {:.2}x); request ≈ {:.2}s over {} steps",
        latency.as_millis_f64(),
        full.as_millis_f64(),
        full.as_secs_f64() / latency.as_secs_f64(),
        latency.as_secs_f64() * cm.model.steps as f64,
        cm.model.steps
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: flashps-cli <edit|serve|plan> [--model sd21|sdxl|flux] [flags...]\n\
                 see the crate docs for per-command flags";
    let Some(cmd) = args.first() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "edit" => cmd_edit(&flags),
        "serve" => cmd_serve(&flags),
        "plan" => cmd_plan(&flags),
        _ => Err(usage.to_string()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
