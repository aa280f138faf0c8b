//! The traced run: per-layer numbers, obtained *from outside* the
//! program — by timing calls into each crate's public functions on
//! inputs taken from the workload's own requests, by installing the
//! benchmark's own `ktrace` observer, and by reading the spans
//! `ThreadedServer` already emits into a wall-clock sink passed through
//! `ServerConfig::trace`. Every workload reports every per-layer
//! metric: layers a workload's end-to-end run does not exercise are
//! probed at the workload's model, mask ratios and seed (see README).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flashps::{FlashPs, MaskAwareRouter};
use fps_diffusion::{EditPipeline, Guidance, ModelConfig, Strategy, TemplateCache};
use fps_fleet::{FleetRouter, FleetSim, HashRing, RouteStrategy, ShardLoad};
use fps_json::ToJson;
use fps_maskcache::{HierarchicalStore, PlacementSpec, ReplicatedStore, StoreConfig};
use fps_metrics::Histogram;
use fps_overload::{AdmissionConfig, AdmissionController, BreakerConfig, TimeSource};
use fps_serving::cost::BatchItem;
use fps_serving::worker::OutstandingReq;
use fps_serving::{
    ControlPlane, CostModel, GpuSpec, LeastLoadedRouter, Router, WorkerHealth, WorkerView,
};
use fps_simtime::{CalendarQueue, EventQueue, EventScheduler, SimTime};
use fps_stagegraph::{StageGraphSim, StageQueue};
use fps_tensor::ktrace::{self, KernelEvent};
use fps_tensor::ops::matmul::matmul_flops;
use fps_tensor::ops::sparse::{self, SparsePlan};
use fps_tensor::ops::{ada_layer_norm, conv3x3, gather_rows, matmul, mha_fused, scatter_rows_into};
use fps_tensor::{scratch, Tensor};
use fps_trace::{chrome_trace_string, Clock, TraceSink, Track};
use fps_workload::trace::MaskShapeSpec;
use fps_workload::RequestSpec;

use crate::edit::{
    batch_phase, new_system, paced_phase, prime_and_spill, restore, start_mono, start_staged,
    template_image, to_job, EditCtx, Tally, WORKERS,
};
use crate::gen::{edit_jobs, hash_jobs, poisson_arrivals, JobSpec, Rng};
use crate::report::Outcome;
use crate::stats::{median, percentile, secs, time_per_call, HostRef};
use crate::workloads::{
    cluster_conserved, fleet_config, fleet_conserved, run_cluster, stage_config, stage_conserved,
    SimTraces,
};

/// `--seconds` the probe sizes are written for.
const NOMINAL_SECONDS: f64 = 20.0;

/// Trace lengths the traced run replays, as `SimTraces::generate`'s
/// scale (`sim_replay` itself replays 0.34).
const SIM_SCALE: f64 = 0.25;

fn random_f32(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| (rng.uniform() * 2.0 - 1.0) as f32)
        .collect()
}

fn tensor(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(random_f32(rng, rows * cols), [rows, cols]).expect("shape matches data")
}

fn vector(rng: &mut Rng, len: usize) -> Tensor {
    Tensor::from_vec(random_f32(rng, len), [len]).expect("shape matches data")
}

/// `fps-tensor`: the hot kernels at the workload model's shapes and the
/// workload's median mask. Outputs are recycled, as the pipeline does.
fn tensor_probes(out: &mut Outcome, model: &ModelConfig, masked: &[usize], budget: Duration) {
    let (l, h, f) = (model.tokens(), model.hidden, model.hidden * model.ffn_mult);
    let c = model.latent_channels;
    let mut rng = Rng::new(0x7E50);
    let x = tensor(&mut rng, l, h);
    let w_up = tensor(&mut rng, h, f);
    let (q, k, v) = (
        tensor(&mut rng, l, h),
        tensor(&mut rng, l, h),
        tensor(&mut rng, l, h),
    );
    let [g, b, s, sh] = std::array::from_fn(|_| vector(&mut rng, h));
    let grid = tensor(&mut rng, l, c);
    let kern = tensor(&mut rng, 9 * c, c);
    let bias = vector(&mut rng, c);
    let template = tensor(&mut rng, l, f);
    let plan = SparsePlan::from_mask(l, masked).expect("generated masks are in range");
    let scale = 1.0 / (model.head_dim() as f32).sqrt();
    let us = |f: &mut dyn FnMut()| time_per_call(budget, f) * 1e6;

    let dense = us(&mut || matmul(&x, &w_up).expect("gemm").recycle());
    out.put("tensor.gemm_dense_us", dense, "us");
    out.put(
        "tensor.gemm_dense_gflops",
        matmul_flops(l, h, f) as f64 / dense / 1e3,
        "GFLOP/s",
    );
    out.put(
        "tensor.gemm_sparse_us",
        us(&mut || {
            sparse::matmul(&plan, &x, &w_up, Some(&template))
                .expect("sparse gemm")
                .recycle()
        }),
        "us",
    );
    out.put(
        "tensor.attn_us",
        us(&mut || {
            mha_fused(&q, &k, &v, model.heads, scale)
                .expect("mha")
                .recycle()
        }),
        "us",
    );
    out.put(
        "tensor.norm_us",
        us(&mut || ada_layer_norm(&x, &g, &b, &s, &sh).expect("norm").recycle()),
        "us",
    );
    out.put(
        "tensor.conv3x3_us",
        us(&mut || {
            conv3x3(&grid, model.latent_h, model.latent_w, &kern, &bias)
                .expect("conv")
                .recycle()
        }),
        "us",
    );
    let mut dst = tensor(&mut rng, l, h);
    out.put(
        "tensor.gather_scatter_us",
        us(&mut || {
            let rows = gather_rows(&x, masked).expect("gather");
            scatter_rows_into(&mut dst, &rows, masked).expect("scatter");
            rows.recycle();
        }),
        "us",
    );
}

/// Kernel-time aggregate of the benchmark's own `ktrace` observer.
#[derive(Default)]
struct KernelAgg {
    /// name → (calls, nanoseconds, calls reporting a mask ratio).
    by_name: BTreeMap<&'static str, (u64, u64, u64)>,
}

fn observe_kernels<T>(f: impl FnOnce() -> T) -> (T, KernelAgg) {
    let agg = Arc::new(Mutex::new(KernelAgg::default()));
    let sink = Arc::clone(&agg);
    ktrace::set_observer(Some(Arc::new(move |ev: &KernelEvent| {
        let mut a = sink.lock().expect("kernel aggregate poisoned");
        let e = a.by_name.entry(ev.name).or_default();
        e.0 += 1;
        e.1 += ev.end.saturating_duration_since(ev.start).as_nanos() as u64;
        e.2 += u64::from(ev.mask_ratio.is_some());
    })));
    let result = f();
    ktrace::set_observer(None);
    let agg = std::mem::take(&mut *agg.lock().expect("kernel aggregate poisoned"));
    (result, agg)
}

fn kernel_metrics(out: &mut Outcome, agg: &KernelAgg, edits: u64) {
    let mut class_ns = [0u64; 5];
    let (mut calls, mut sparse_calls) = (0u64, 0u64);
    for (name, (n, ns, masked)) in &agg.by_name {
        let class = if name.contains("matmul") {
            0
        } else if name.contains("mha") || name.contains("softmax") {
            1
        } else if name.contains("norm") {
            2
        } else if name.contains("conv3x3") {
            3
        } else {
            4
        };
        class_ns[class] += ns;
        calls += n;
        sparse_calls += masked;
    }
    let total = class_ns.iter().sum::<u64>().max(1) as f64;
    for (class, label) in ["matmul", "attn", "norm", "conv", "other"]
        .iter()
        .enumerate()
    {
        out.put(
            &format!("tensor.kshare_{label}"),
            class_ns[class] as f64 / total,
            "frac",
        );
    }
    if calls > 0 {
        out.put(
            "tensor.kernel_calls_per_edit",
            calls as f64 / edits.max(1) as f64,
            "count",
        );
        out.put(
            "tensor.sparse_kernel_frac",
            sparse_calls as f64 / calls as f64,
            "frac",
        );
    }
}

/// What the diffusion probe hands to later probes.
struct DiffusionProbe {
    /// Single-threaded edit time of each sampled job, ms.
    edit_ms: Vec<f64>,
}

/// `fps-diffusion`: the sampled requests driven single-threaded through
/// `EditPipeline::begin` / `step` / `finish`, with the plan the system
/// would pick (`FlashPs::plan_for_ratio`).
fn diffusion_probes(
    out: &mut Outcome,
    ctx: &EditCtx,
    sys: &FlashPs,
    jobs: &[JobSpec],
) -> DiffusionProbe {
    let pipe: &EditPipeline = sys.pipeline();
    let tokens = ctx.tokens();
    let strategy = |j: &JobSpec| Strategy::MaskAware {
        use_cache: sys.plan_for_ratio(j.masked_idx.len() as f64 / tokens as f64),
        kv: ctx.capture_kv,
    };
    let (mut begin, mut step, mut finish, mut edit) = (vec![], vec![], vec![], vec![]);
    let (mut flops, mut masked_tokens) = (0u64, 0usize);
    let mut images = Vec::new();
    // One unmeasured edit first: lazy pool set-up and cold scratch
    // buffers are set-up cost, not edit cost.
    let (image, cache) = sys
        .template(jobs[0].template_id)
        .expect("template restored");
    let j = &jobs[0];
    pipe.edit(
        image,
        j.template_id,
        &j.masked_idx,
        j.prompt,
        j.seed,
        &strategy(j),
        Some(cache),
    )
    .expect("warm-up edit");
    let before = scratch::stats();
    for j in jobs {
        let (image, cache) = sys.template(j.template_id).expect("template restored");
        let t0 = Instant::now();
        let mut s = pipe
            .begin(
                image,
                j.template_id,
                &j.masked_idx,
                j.prompt,
                j.seed,
                strategy(j),
            )
            .expect("begin");
        let t1 = Instant::now();
        while !s.is_done() {
            let t = Instant::now();
            pipe.step(&mut s, Some(cache)).expect("step");
            step.push(secs(t.elapsed()) * 1e3);
        }
        let t2 = Instant::now();
        let output = pipe.finish(s).expect("finish");
        let t3 = Instant::now();
        begin.push(secs(t1 - t0) * 1e3);
        finish.push(secs(t3 - t2) * 1e3);
        edit.push(secs(t3 - t0) * 1e3);
        flops += output.flops;
        masked_tokens += j.masked_idx.len();
        images.push(output.image);
    }
    let after = scratch::stats();
    let takes = (after.hits - before.hits) + (after.misses - before.misses);
    out.put(
        "tensor.scratch_hit_frac",
        (after.hits - before.hits) as f64 / takes.max(1) as f64,
        "frac",
    );
    out.put("diffusion.begin_ms", median(&begin), "ms");
    out.put("diffusion.step_ms", median(&step), "ms");
    out.put("diffusion.finish_ms", median(&finish), "ms");
    out.put("diffusion.edit_ms", median(&edit), "ms");
    out.put(
        "diffusion.flops_per_edit",
        flops as f64 / jobs.len() as f64,
        "FLOP",
    );
    out.put(
        "diffusion.computed_token_frac",
        masked_tokens as f64 / (jobs.len() * tokens) as f64,
        "frac",
    );

    // Full recompute (the Fig. 15 base) and guided steps on a few of
    // the same jobs; SSIM of the mask-aware image against the full one.
    let few = &jobs[..jobs.len().min(6)];
    let (mut full_ms, mut aware_ms, mut ssim, mut cfg_step) = (vec![], vec![], vec![], vec![]);
    for (i, j) in few.iter().enumerate() {
        let (image, cache) = sys.template(j.template_id).expect("template restored");
        let t = Instant::now();
        let full = pipe
            .edit(
                image,
                j.template_id,
                &j.masked_idx,
                j.prompt,
                j.seed,
                &Strategy::FullRecompute,
                Some(cache),
            )
            .expect("full recompute");
        full_ms.push(secs(t.elapsed()) * 1e3);
        aware_ms.push(edit[i]);
        ssim.push(fps_quality::ssim(&images[i], &full.image).expect("same dimensions"));
        let mut s = pipe
            .begin_guided(
                image,
                j.template_id,
                &j.masked_idx,
                j.prompt,
                j.seed,
                strategy(j),
                Some(Guidance::cfg(5.0)),
            )
            .expect("guided begin");
        while !s.is_done() {
            let t = Instant::now();
            pipe.step(&mut s, Some(cache)).expect("guided step");
            cfg_step.push(secs(t.elapsed()) * 1e3);
        }
    }
    out.put("diffusion.full_recompute_ms", median(&full_ms), "ms");
    out.put(
        "diffusion.speedup_vs_full",
        full_ms.iter().sum::<f64>() / aware_ms.iter().sum::<f64>(),
        "x",
    );
    out.put("diffusion.step_cfg_ms", median(&cfg_step), "ms");
    out.put(
        "quality.ssim_vs_full_mean",
        ssim.iter().sum::<f64>() / ssim.len() as f64,
        "ssim",
    );

    // Priming and the cache's serialized form.
    let image = template_image(&ctx.model, 0);
    let mut prime_ms = Vec::new();
    let mut cache = None;
    for _ in 0..2 {
        let t = Instant::now();
        cache = Some(pipe.prime(&image, 0, ctx.capture_kv).expect("prime"));
        prime_ms.push(secs(t.elapsed()) * 1e3);
    }
    let cache = cache.expect("primed twice");
    out.put("diffusion.prime_ms", median(&prime_ms), "ms");
    out.put(
        "diffusion.cache_bytes_per_template",
        (cache.bytes_y() + cache.bytes_kv()) as f64,
        "bytes",
    );
    let bytes = cache.to_bytes();
    let budget = Duration::from_millis(30);
    out.put(
        "diffusion.cache_ser_ms",
        time_per_call(budget, || drop(std::hint::black_box(cache.to_bytes()))) * 1e3,
        "ms",
    );
    out.put(
        "diffusion.cache_de_ms",
        time_per_call(budget, || {
            drop(std::hint::black_box(
                TemplateCache::from_bytes(&bytes).expect("round trip"),
            ));
        }) * 1e3,
        "ms",
    );
    DiffusionProbe { edit_ms: edit }
}

/// `flashps` system calls: planning, registration under a budget (with
/// its evictions), spill and restore.
fn system_probes(
    out: &mut Outcome,
    ctx: &EditCtx,
    sys: &FlashPs,
    jobs: &[JobSpec],
    template_bytes: u64,
    budget: Duration,
) {
    let ratio = jobs[0].masked_idx.len() as f64 / ctx.tokens() as f64;
    out.put(
        "system.plan_us",
        time_per_call(budget, || {
            drop(std::hint::black_box(sys.plan_for_ratio(ratio)))
        }) * 1e6,
        "us",
    );
    // Prime-on-miss over the first requests' templates with room for
    // two: registrations are timed, evictions counted.
    let mut small = new_system(ctx, 2 * template_bytes);
    let mut register_ms = Vec::new();
    for j in jobs.iter().take(5) {
        if small.template(j.template_id).is_err() {
            let image = template_image(&ctx.model, j.template_id);
            let t = Instant::now();
            small
                .register_template(j.template_id, &image)
                .expect("register");
            register_ms.push(secs(t.elapsed()) * 1e3);
        }
    }
    out.put("system.register_ms", median(&register_ms), "ms");
    out.put("system.evictions", small.evictions() as f64, "count");
    let id = jobs[0].template_id;
    let (mut spill_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let mut scratch_sys = new_system(ctx, u64::MAX);
    scratch_sys
        .register_template(id, &template_image(&ctx.model, id))
        .expect("register");
    for _ in 0..9 {
        let t = Instant::now();
        let (bytes, image) = scratch_sys.spill_template(id).expect("spill");
        spill_ms.push(secs(t.elapsed()) * 1e3);
        let t = Instant::now();
        scratch_sys
            .restore_template(&bytes, image)
            .expect("restore");
        restore_ms.push(secs(t.elapsed()) * 1e3);
    }
    out.put("system.spill_ms", median(&spill_ms), "ms");
    out.put("system.restore_ms", median(&restore_ms), "ms");
}

/// `ThreadedServer`: throughput with and without a trace sink, a traced
/// paced phase whose spans give queue wait / busy share / inflight, the
/// kernel-time shares of the benchmark's `ktrace` observer, and the
/// control-path costs (`submit`, single-client overhead, shutdown).
#[allow(clippy::too_many_lines)]
fn server_probes(
    out: &mut Outcome,
    ctx: &EditCtx,
    blobs: &crate::edit::Blobs,
    jobs: &[JobSpec],
    due: &[f64],
    edit_ms: &[f64],
) {
    let tokens = ctx.tokens();
    // Untraced vs traced batches of the same jobs, alternating twice
    // on two live servers: the ratio of the medians is the tracing
    // overhead.
    let sink = TraceSink::with_capacity(Clock::Wall, 1 << 18);
    let plain_server = start_mono(ctx, blobs, TraceSink::disabled());
    let server = start_mono(ctx, blobs, sink.clone());
    let warm_jobs = &jobs[..jobs.len().min(4)];
    for s in [&plain_server, &server] {
        let warm = batch_phase(s, warm_jobs, tokens);
        out.phase("warm-up", warm.tally, warm.makespan_s);
    }
    let (mut plain_s, mut traced_s, mut submit_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        let plain = batch_phase(&plain_server, jobs, tokens);
        out.phase("untraced batch", plain.tally, plain.makespan_s);
        plain_s.push(plain.makespan_s);
        submit_us.extend(plain.submit_us);
        let traced = batch_phase(&server, jobs, tokens);
        out.phase("traced batch", traced.tally, traced.makespan_s);
        traced_s.push(traced.makespan_s);
    }
    out.put(
        "server.trace_overhead_frac",
        median(&traced_s) / median(&plain_s) - 1.0,
        "frac",
    );
    out.put(
        "server.batch_edits_per_s",
        jobs.len() as f64 / median(&plain_s),
        "1/s",
    );
    out.put("server.submit_us", median(&submit_us), "us");
    // Single client, one request at a time: what the server adds to the
    // bare pipeline on the same jobs (paired per job).
    let added: Vec<f64> = jobs
        .iter()
        .zip(edit_ms)
        .map(|(j, bare_ms)| {
            let t = Instant::now();
            let ok = plain_server
                .submit(to_job(j))
                .and_then(flashps::Ticket::wait)
                .is_ok();
            out.count(Tally {
                sent: 1,
                ok: u64::from(ok),
                failed: u64::from(!ok),
            });
            secs(t.elapsed()) * 1e3 - bare_ms
        })
        .collect();
    out.put("server.overhead_ms", median(&added), "ms");
    let t = Instant::now();
    plain_server.shutdown();
    out.put("server.shutdown_ms", secs(t.elapsed()) * 1e3, "ms");

    let staged = start_staged(ctx, blobs, TraceSink::disabled());
    let st = batch_phase(&staged, jobs, tokens);
    out.phase("staged batch", st.tally, st.makespan_s);
    staged.shutdown();
    out.put(
        "server.staged_edits_per_s",
        st.tally.ok as f64 / st.makespan_s,
        "1/s",
    );
    drop(sink.drain());

    // Traced paced phase, kernels observed.
    let (paced, agg) = observe_kernels(|| paced_phase(&server, jobs, due, tokens));
    out.phase("traced paced", paced.tally, paced.wall_s);
    server.shutdown();
    kernel_metrics(out, &agg, paced.tally.ok);
    let trace = sink.drain().expect("recording sink");
    let ms_of = |name: &str| -> Vec<f64> {
        trace
            .spans_named(name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    // A span the program stops emitting makes its metric missing.
    let queue = ms_of("queue");
    if !queue.is_empty() {
        out.put("server.queue_wait_p50_ms", percentile(&queue, 0.50), "ms");
        out.put("server.queue_wait_p95_ms", percentile(&queue, 0.95), "ms");
    }
    let steps = ms_of("step");
    if !steps.is_empty() {
        out.put(
            "server.worker_busy_frac",
            steps.iter().sum::<f64>() / 1e3 / (WORKERS as f64 * paced.wall_s),
            "frac",
        );
    }
    let requests = ms_of("request");
    if !requests.is_empty() {
        out.put(
            "server.inflight_mean",
            requests.iter().sum::<f64>() / 1e3 / paced.wall_s,
            "count",
        );
        out.put(
            "trace.spans_per_request",
            trace.spans.len() as f64 / requests.len() as f64,
            "count",
        );
    }
    out.put("trace.dropped_spans", trace.dropped as f64, "count");
    let missed = paced.tally.failed as usize
        + paced
            .latency_ms
            .iter()
            .filter(|&&l| l > ctx.latency_limit_ms)
            .count();
    out.put(
        "server.slo_miss_frac",
        (missed as f64 / paced.tally.sent as f64).min(1.0),
        "frac",
    );
    out.put(
        "server.gen_lag_p99_ms",
        percentile(&paced.gen_lag_ms, 0.99),
        "ms",
    );
    // Little's law allows `rate × latency` requests (three, generously)
    // still in flight when the schedule ends; beyond that the server is
    // falling behind and latency measures the phase's length.
    let (arrived, completed) = paced.last_third;
    if (completed as f64) < 0.95 * arrived as f64 - 3.0 {
        out.suspect(format!(
            "growing backlog: {completed} completions for {arrived} arrivals in the last third"
        ));
    }
    out.note(format!(
        "traced paced: rate {}/s limit {} ms p50 {:.2} ms p95 {:.2} ms",
        ctx.paced_rate,
        ctx.latency_limit_ms,
        percentile(&paced.latency_ms, 0.5),
        percentile(&paced.latency_ms, 0.95)
    ));
}

fn worker_views(n: usize, outstanding: usize, model_tokens: usize) -> Vec<WorkerView> {
    (0..n)
        .map(|id| WorkerView {
            id,
            outstanding: (0..outstanding)
                .map(|i| OutstandingReq {
                    mask_ratio: 0.05 + 0.04 * ((id + i) % 7) as f64,
                    steps_left: 10 + (id * 7 + i * 3) % 40,
                })
                .collect(),
            max_batch: 8,
            model_tokens,
            health: WorkerHealth::Healthy,
        })
        .collect()
}

fn request(id: u64, template_id: u64, mask_ratio: f64) -> RequestSpec {
    RequestSpec {
        id,
        arrival_ns: id * 1_000_000,
        template_id,
        mask_ratio,
        mask_shape: MaskShapeSpec::Rect,
        seed: id,
    }
}

/// `fps-serving`, `fps-maskcache`, `fps-overload`, `fps-fleet` and
/// `fps-stagegraph` decision paths, timed per call.
#[allow(clippy::too_many_lines)]
fn control_probes(out: &mut Outcome, blocks: usize, budget: Duration) {
    let cost = CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl());
    let tokens = ModelConfig::paper_sdxl().tokens();
    let mut i = 0u64;
    let mut next = move || {
        i += 1;
        i
    };

    let views = worker_views(8, 2, tokens);
    let mut plane = ControlPlane::new(LeastLoadedRouter, TimeSource::virtual_clock(), 50);
    out.put(
        "serving.assess_route_us",
        time_per_call(budget, || {
            let id = next();
            let now = SimTime::from_nanos(id * 1_000);
            std::hint::black_box(plane.assess(id, now, 12, 64, false));
            std::hint::black_box(plane.route(id, &request(id, id % 16, 0.11), &views, now));
        }) * 1e6,
        "us",
    );
    let views = worker_views(8, 4, tokens);
    let mut router = MaskAwareRouter::new(cost.clone()).expect("latency model fits");
    out.put(
        "serving.mask_router_us",
        time_per_call(budget, || {
            let id = next();
            std::hint::black_box(router.route(
                &request(id, id % 16, 0.03 + 0.01 * (id % 30) as f64),
                &views,
                SimTime::from_nanos(id * 1_000),
            ));
        }) * 1e6,
        "us",
    );
    let batch: Vec<BatchItem> = [0.05, 0.11, 0.2, 0.4]
        .iter()
        .map(|&mask_ratio| BatchItem { mask_ratio })
        .collect();
    out.put(
        "serving.cost_model_us",
        time_per_call(budget, || {
            drop(std::hint::black_box(
                cost.step_latency_mask_aware(&batch, false),
            ));
        }) * 1e6,
        "us",
    );

    // Hierarchical store: a host hit, and a disk promote that evicts.
    let bytes = 64u64 << 20;
    let mut store = HierarchicalStore::new(StoreConfig {
        host_capacity: 64 * bytes,
        ..StoreConfig::production_like()
    });
    for t in 0..64 {
        store.insert(t, bytes, SimTime::ZERO, None).expect("fits");
    }
    out.put(
        "maskcache.fetch_hit_ns",
        time_per_call(budget, || {
            let id = next();
            drop(std::hint::black_box(
                store.fetch(id % 64, SimTime::from_nanos(id)),
            ));
        }) * 1e9,
        "ns",
    );
    let mut store = HierarchicalStore::new(StoreConfig {
        host_capacity: 8 * bytes,
        ..StoreConfig::production_like()
    });
    for t in 0..64 {
        store.insert_disk(t, bytes, None).expect("fits");
    }
    out.put(
        "maskcache.fetch_promote_us",
        time_per_call(budget, || {
            let id = next();
            drop(std::hint::black_box(
                store.fetch(id % 64, SimTime::from_nanos(id * 1_000_000)),
            ));
        }) * 1e6,
        "us",
    );
    let ring = HashRing::with_shards(4);
    let templates: Vec<u64> = (0..112).collect();
    let popularity = |t: u64| 10_000 / (t + 1);
    let mut replicated = ReplicatedStore::new(
        4,
        2,
        StoreConfig::production_like(),
        BreakerConfig::default(),
        bytes,
    );
    replicated.prime_all(
        &templates,
        |t| ring.preference(t),
        popularity,
        SimTime::ZERO,
    );
    out.put(
        "maskcache.replica_fetch_us",
        time_per_call(budget, || {
            let id = next();
            std::hint::black_box(replicated.fetch_failover(
                (id % 4) as u32,
                id % 112,
                SimTime::from_nanos(id * 1_000_000),
                |_| true,
            ));
        }) * 1e6,
        "us",
    );
    let mut planner = ReplicatedStore::new(
        4,
        2,
        StoreConfig::production_like(),
        BreakerConfig::default(),
        bytes,
    )
    .with_placement(PlacementSpec::Popularity)
    .with_replica_budget(40 * bytes);
    out.put(
        "maskcache.placement_plan_ms",
        time_per_call(budget, || {
            drop(std::hint::black_box(planner.plan(
                &templates,
                |t| ring.preference(t),
                popularity,
            )));
        }) * 1e3,
        "ms",
    );
    // Algorithm 1's general DP at the workload model's block count,
    // over block costs that differ per block.
    let costs: Vec<_> = (0..blocks)
        .map(|b| {
            cost.mask_aware_block_costs(
                &[BatchItem {
                    mask_ratio: 0.05 + 0.9 * b as f64 / blocks as f64,
                }],
                false,
            )
        })
        .collect();
    out.put(
        "maskcache.plan_general_us",
        time_per_call(budget, || {
            drop(std::hint::black_box(fps_maskcache::pipeline::plan_general(
                &costs,
            )));
        }) * 1e6,
        "us",
    );

    let mut admission = AdmissionController::new(AdmissionConfig::for_capacity(64, 2.0, 30.0));
    out.put(
        "overload.admit_ns",
        time_per_call(budget, || {
            let id = next();
            std::hint::black_box(admission.check(SimTime::from_nanos(id * 50_000_000), 12, 3.0));
        }) * 1e9,
        "ns",
    );

    let mut fleet_router = FleetRouter::new(
        RouteStrategy::Affinity { load_factor: 1.25 },
        HashRing::with_shards(4),
    );
    let loads: Vec<ShardLoad> = (0..4)
        .map(|shard| ShardLoad {
            shard,
            outstanding: 3 + shard as usize,
            lanes: 8,
        })
        .collect();
    out.put(
        "fleet.route_us",
        time_per_call(budget, || {
            let id = next();
            std::hint::black_box(fleet_router.choose(id, id % 112, &loads, None));
        }) * 1e6,
        "us",
    );
    out.put(
        "fleet.ring_lookup_ns",
        time_per_call(budget, || {
            std::hint::black_box(ring.primary(next()));
        }) * 1e9,
        "ns",
    );

    let mut queue = StageQueue::new("probe", 8, 60.0, TraceSink::disabled(), Track::default());
    let mut expired = Vec::new();
    out.put(
        "stagegraph.queue_op_ns",
        time_per_call(budget, || {
            let id = next();
            let now = SimTime::from_nanos(id * 1_000);
            std::hint::black_box(queue.try_enqueue(now, id, SimTime::from_nanos(u64::MAX / 2)));
            std::hint::black_box(queue.pop_live(now, &mut expired));
        }) * 1e9,
        "ns",
    );

    let mut hist = Histogram::new(0.0, 60.0, 512).expect("valid geometry");
    out.put(
        "metrics.histogram_record_ns",
        time_per_call(budget, || hist.record((next() % 6_000) as f64 / 100.0)) * 1e9,
        "ns",
    );
}

/// Hold model (pop the minimum, reschedule it a seeded gap ahead) at
/// 64 Ki resident events: events per wall-second.
fn hold_rate<Q: EventScheduler<u64>>(queue: &mut Q, ops: usize) -> f64 {
    const RESIDENT: u64 = 1 << 16;
    const SPAN_NS: u64 = 2_000_000;
    let mut rng = Rng::new(0x51D3);
    for i in 0..RESIDENT {
        queue.schedule_at(SimTime::from_nanos(rng.next_u64() % SPAN_NS), i);
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (at, ev) = queue.pop().expect("hold queue never drains");
        let gap = 1 + rng.next_u64() % SPAN_NS;
        queue.schedule_at(SimTime::from_nanos(at.as_nanos() + gap), ev);
    }
    ops as f64 / secs(t.elapsed())
}

/// `fps-trace`: the cost of recording, not recording, and exporting.
fn trace_probes(out: &mut Outcome, budget: Duration) {
    let track = Track::new(0, 0);
    let sink = TraceSink::with_capacity(Clock::Virtual, 1 << 22);
    let mut t = 0u64;
    out.put(
        "trace.span_record_ns",
        time_per_call(budget, || {
            t += 10;
            std::hint::black_box(sink.span_at("probe", "probe", track, t, t + 5, 0, Vec::new()));
        }) * 1e9,
        "ns",
    );
    let off = TraceSink::disabled();
    out.put(
        "trace.span_disabled_ns",
        time_per_call(budget, || {
            t += 10;
            std::hint::black_box(off.span_at("probe", "probe", track, t, t + 5, 0, Vec::new()));
        }) * 1e9,
        "ns",
    );
    drop(sink.drain());
    for i in 0..4_000u64 {
        sink.span_at("probe", "probe", track, i * 10, i * 10 + 5, 0, Vec::new());
    }
    let trace = sink.drain().expect("recording sink");
    out.put(
        "trace.export_ms_per_kspan",
        time_per_call(budget, || {
            drop(std::hint::black_box(chrome_trace_string(&trace)))
        }) * 1e3
            / (trace.spans.len() as f64 / 1e3),
        "ms",
    );
}

/// The three simulators on a quarter of the sim workload's traces:
/// simulated requests and events per wall-second (median of three
/// replays), the exact virtual-time results, and what a virtual-clock
/// sink costs the cluster plane.
fn sim_probes(out: &mut Outcome, rng: &Rng, scale: f64) {
    let t = Instant::now();
    let traces = SimTraces::generate(rng, SIM_SCALE * scale);
    out.put(
        "workload.trace_gen_requests_per_s",
        traces.requests() as f64 / secs(t.elapsed()),
        "1/s",
    );
    let timed = |f: &mut dyn FnMut()| {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                secs(t.elapsed())
            })
            .collect();
        median(&runs)
    };
    let mut tally = Tally::default();

    let n = traces.cluster.len();
    let mut report = None;
    let wall = timed(&mut || report = Some(run_cluster(&traces.cluster, TraceSink::disabled())));
    let r = report.expect("ran");
    tally.record_n(n as u64, cluster_conserved(&r, &traces.cluster));
    out.put("serving.cluster_sim_requests_per_s", n as f64 / wall, "1/s");
    out.put(
        "serving.cluster_sim_steps_per_s",
        r.steps_per_worker.iter().sum::<u64>() as f64 / wall,
        "1/s",
    );
    out.put("serving.cluster_sim_p95_virtual_s", r.p95_latency(), "s");
    let s = r.store_stats;
    out.put(
        "maskcache.host_hit_frac",
        s.host_hits as f64 / (s.host_hits + s.disk_hits + s.misses).max(1) as f64,
        "frac",
    );
    let traced_wall = timed(&mut || {
        let sink = TraceSink::with_capacity(Clock::Virtual, 1 << 22);
        std::hint::black_box(run_cluster(&traces.cluster, sink));
    });
    out.put("trace.sim_overhead_frac", traced_wall / wall - 1.0, "frac");

    let n = traces.fleet.trace.len();
    let mut report = None;
    let wall = timed(&mut || report = Some(FleetSim::run(fleet_config(), &traces.fleet)));
    let r = report.expect("ran");
    tally.record_n(n as u64, fleet_conserved(&r, &traces.fleet));
    out.put("fleet.sim_requests_per_s", n as f64 / wall, "1/s");
    out.put(
        "fleet.sim_events_per_s",
        r.events_processed as f64 / wall,
        "1/s",
    );
    out.put(
        "fleet.events_per_request",
        r.events_processed as f64 / n as f64,
        "count",
    );
    out.put("fleet.hit_frac", r.hit_rate(), "frac");
    out.put(
        "fleet.goodput_virtual_rps",
        r.fleet.fleet.goodput_at_deadline_rps,
        "1/s",
    );
    out.put(
        "json.report_serialize_ms",
        time_per_call(Duration::from_millis(30), || {
            drop(std::hint::black_box(r.to_json().to_string_compact()));
        }) * 1e3,
        "ms",
    );

    let n = traces.stage.len();
    let mut report = None;
    let wall = timed(&mut || report = Some(StageGraphSim::run(stage_config(), &traces.stage)));
    let r = report.expect("ran");
    tally.record_n(n as u64, stage_conserved(&r, &traces.stage));
    out.put("stagegraph.sim_requests_per_s", n as f64 / wall, "1/s");
    out.put(
        "stagegraph.sim_events_per_s",
        r.events_processed as f64 / wall,
        "1/s",
    );
    out.put(
        "stagegraph.events_per_request",
        r.events_processed as f64 / n as f64,
        "count",
    );
    out.put(
        "stagegraph.goodput_virtual_rps",
        r.slo.goodput_at_deadline_rps,
        "1/s",
    );
    out.note(format!(
        "sim probes: cluster {} fleet {} stage {} requests",
        traces.cluster.len(),
        traces.fleet.trace.len(),
        traces.stage.len()
    ));
    out.count(tally);

    let ops = (400_000.0 * scale) as usize;
    out.put(
        "simtime.calendar_hold_events_per_s",
        hold_rate(&mut CalendarQueue::<u64>::new(), ops),
        "1/s",
    );
    out.put(
        "simtime.heap_hold_events_per_s",
        hold_rate(&mut EventQueue::<u64>::new(), ops),
        "1/s",
    );
}

/// The traced run of a workload. `sim_replay` runs no kernels of its
/// own, so its kernel-side probes use the production context (the model
/// whose paper-scale twin prices its cluster plane).
pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> Option<Outcome> {
    let mut ctx = match workload {
        "prod_small_mask" | "sim_replay" => EditCtx::prod_small_mask(),
        "dense_large_mask" => EditCtx::dense_large_mask(),
        "cold_templates" => EditCtx::cold_templates(),
        _ => return None,
    };
    let scale = seconds / NOMINAL_SECONDS;
    ctx.probe_edits = ((ctx.probe_edits as f64 * scale).round() as usize).max(2);
    ctx.probe_server_jobs = ((ctx.probe_server_jobs as f64 * scale).round() as usize).max(4);
    let budget = Duration::from_secs_f64((0.04 * scale).max(0.004));
    let mut out = Outcome::default();
    let rng = Rng::new(seed);

    let jobs = edit_jobs(ctx.probe_server_jobs, &ctx.mix, &rng);
    let due = poisson_arrivals(jobs.len(), ctx.paced_rate, &mut rng.fork(3));
    out.input_hash = hash_jobs(&jobs);
    out.note(format!(
        "inputs: {} jobs, fnv {:016x}",
        jobs.len(),
        out.input_hash
    ));
    let (blobs, template_bytes, _) = prime_and_spill(&ctx, &mut HostRef::start(1, 1));
    let sys = restore(&ctx, &blobs);

    // The job with the median mask stands for the workload's shape.
    let mut by_size: Vec<&JobSpec> = jobs.iter().collect();
    by_size.sort_by_key(|j| j.masked_idx.len());
    let median_mask = &by_size[by_size.len() / 2].masked_idx;
    tensor_probes(&mut out, &ctx.model, median_mask, budget);
    let d = diffusion_probes(
        &mut out,
        &ctx,
        &sys,
        &jobs[..ctx.probe_edits.min(jobs.len())],
    );
    system_probes(&mut out, &ctx, &sys, &jobs, template_bytes, budget);
    drop(sys);
    server_probes(&mut out, &ctx, &blobs, &jobs, &due, &d.edit_ms);
    control_probes(&mut out, ctx.model.blocks, budget);
    trace_probes(&mut out, budget);
    sim_probes(&mut out, &rng, scale);
    Some(out)
}
