//! The four workloads' untraced runs: the end-to-end numbers, taken
//! with every trace sink disabled. Each returns an [`Outcome`] carrying
//! `throughput_per_s`, `latency_p50_ms`, `latency_p95_ms`, `setup_s`
//! and `peak_rss_mb`; what those mean per workload is in the README.

use std::time::Instant;

use flashps::MaskAwareRouter;
use fps_diffusion::ModelConfig;
use fps_fleet::{FleetConfig, FleetReport, FleetSim, RouteStrategy};
use fps_json::ToJson;
use fps_serving::{ClusterConfig, ClusterSim, CostModel, GpuSpec, RunReport};
use fps_stagegraph::{StageGraph, StageGraphConfig, StageGraphSim, StagedRunReport};
use fps_trace::TraceSink;
use fps_workload::{FleetTrace, Trace};

use crate::edit::{
    batch_phase, check_outputs, closed_loop, new_system, start_mono, template_image, timed_setup,
    EditCtx, Tally, COLD_RESIDENT, WORKERS,
};
use crate::gen::{
    edit_jobs, fleet_trace, hash_jobs, hash_trace, mean_ratio, sim_trace, Arrivals, Fnv, JobSpec,
    Ratios, Rng, Stream, BLOCK,
};
use crate::report::Outcome;
use crate::stats::{
    median, peak_rss_mib, percentile, secs, HostRef, WindowedLatency, REF_NOMINAL_MS,
};

pub const NAMES: [&str; 4] = [
    "prod_small_mask",
    "dense_large_mask",
    "cold_templates",
    "sim_replay",
];

/// Requests whose outputs are byte-checked on every server workload.
const CHECKED: usize = 8;

/// How many times a run sets up (the reported `setup_s` is the median):
/// three, or once in runs too short to be measurements (`--smoke`).
fn setup_reps(seconds: f64) -> usize {
    if seconds < 5.0 {
        1
    } else {
        3
    }
}

/// Sets up [`setup_reps`] times with `setup` (which returns the seconds
/// it took and what it built); the run reports the median time and uses
/// the last build.
fn median_setup<T>(seconds: f64, mut setup: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..setup_reps(seconds) {
        let (t, b) = setup();
        times.push(t);
        built = Some(b);
    }
    (median(&times), built.expect("at least one set-up ran"))
}

/// Reports the five end-to-end metrics. What the first three mean on
/// each workload is fixed in the README. Latencies are at nominal host
/// speed (see [`HostRef`]); `wall_ms` are the same samples as the clock
/// read them, printed beside for whoever reads the run.
fn end_to_end(
    out: &mut Outcome,
    throughput: f64,
    nominal_ms: &[f64],
    wall_ms: &[f64],
    window: usize,
    setup_s: f64,
) {
    let windows = WindowedLatency::of(nominal_ms, window);
    out.note(format!(
        "{} latency samples in {} windows, p50 ms: {:.1?}, p95 ms: {:.1?}",
        nominal_ms.len(),
        windows.p50.len(),
        windows.p50,
        windows.p95
    ));
    out.note(format!(
        "pooled: p50 {:.2} ms, p95 {:.2} ms",
        percentile(nominal_ms, 0.50),
        percentile(nominal_ms, 0.95)
    ));
    out.note(format!(
        "as the clock read them: p50 {:.2} ms, p95 {:.2} ms",
        percentile(wall_ms, 0.50),
        percentile(wall_ms, 0.95)
    ));
    out.put("throughput_per_s", throughput, "1/s");
    out.put("latency_p50_ms", windows.p50_ms(), "ms");
    out.put("latency_p95_ms", windows.p95_ms(), "ms");
    out.put("setup_s", setup_s, "s");
    out.put("peak_rss_mb", peak_rss_mib(), "MiB");
}

fn note_host(out: &mut Outcome, host: &HostRef) {
    out.note(format!(
        "host speed: reference spin median {:.2} ms (nominal {REF_NOMINAL_MS} ms); \
         every time below is at nominal speed unless it says wall",
        host.median_ms()
    ));
}

fn note_inputs(out: &mut Outcome, ctx: &EditCtx, jobs: &[JobSpec]) {
    out.input_hash = hash_jobs(jobs);
    out.note(format!(
        "inputs: {} jobs, mean mask ratio {:.4}, fnv {:016x}",
        jobs.len(),
        mean_ratio(jobs, ctx.tokens()),
        out.input_hash
    ));
    // With more than one pool thread the program calibrates its
    // parallel-dispatch thresholds once per process from a timing; a
    // run whose thresholds differ ran other code paths. (`run.sh` sets
    // one pool thread: overhead 0, default thresholds.)
    let cal = fps_tensor::pool::calibration();
    out.note(format!(
        "kernel dispatch calibration: overhead {:.0} ns, min parallel work {:?}",
        cal.dispatch_overhead_ns, cal.min_work
    ));
}

/// Whole generator blocks that `seconds` at a nominal `rate` per second
/// hold. Every phase is sized this way, in jobs from a literal nominal
/// rate and never from a measurement, so parent and change are offered
/// the same work; whole blocks, so every seed offers the same mask
/// sizes in a different order.
fn blocks_for(seconds: f64, rate: f64) -> usize {
    ((seconds * rate / BLOCK as f64).round() as usize).max(1)
}

/// Nominal rates on the two-core bench host that size the phases:
/// sdxl-like batch capacity, flux-like closed-loop rate at large masks,
/// and the prime-on-miss loop's request rate (its reference spins
/// included).
const PROD_NOMINAL_CAPACITY: f64 = 100.0;
const DENSE_NOMINAL_RATE: f64 = 4.8;
const COLD_NOMINAL_RATE: f64 = 17.0;

/// Clients of `prod_small_mask`'s closed loop: two requests in flight
/// per worker, so every request shares its worker with another one
/// (continuous batching) and neither core ever idles.
const PROD_CLIENTS: usize = 4;

/// `prod_small_mask`: the paper's production traffic through
/// `ThreadedServer::start`: windows of one generator block, each served
/// closed-loop by [`PROD_CLIENTS`] clients, a reference spin on both
/// cores between windows. Throughput is the median over the windows'
/// rates, and the windows are the latency windows too.
pub fn prod_small_mask(seed: u64, seconds: f64) -> Outcome {
    let ctx = EditCtx::prod_small_mask();
    let mut out = Outcome::default();
    let windows = blocks_for(seconds, PROD_NOMINAL_CAPACITY);
    let jobs = edit_jobs((1 + windows) * BLOCK, &ctx.mix, &Rng::new(seed));
    note_inputs(&mut out, &ctx, &jobs);
    let (warm, measured) = jobs.split_at(BLOCK);

    let (setup_s, blobs) = median_setup(seconds, || timed_setup(&ctx));
    let check = check_outputs(&ctx, &blobs, &measured[measured.len() - CHECKED..]);
    out.phase("output check (mono + staged)", check, 0.0);

    let server = start_mono(&ctx, &blobs, TraceSink::disabled());
    let w = batch_phase(&server, warm, ctx.tokens());
    out.phase("warm-up", w.tally, w.makespan_s);
    let mut host = HostRef::start(WORKERS, 3);
    let (mut rates, mut wall_rates) = (Vec::new(), Vec::new());
    let (mut nominal_ms, mut wall_ms) = (Vec::new(), Vec::new());
    let mut served = (Tally::default(), 0.0);
    for window in measured.chunks(BLOCK) {
        let (c, took) =
            host.time(|| closed_loop(&server, window, PROD_CLIENTS, false, ctx.tokens()));
        rates.push(c.tally.ok as f64 / took.nominal_s);
        wall_rates.push(c.tally.ok as f64 / took.wall_s);
        let speed = took.nominal_s / took.wall_s;
        nominal_ms.extend(c.latency_ms.iter().map(|l| l * speed));
        wall_ms.extend(c.latency_ms);
        served.0.add(c.tally);
        served.1 += took.wall_s;
    }
    server.shutdown();
    note_host(&mut out, &host);
    out.phase(
        "closed-loop windows (4 clients, wall s)",
        served.0,
        served.1,
    );
    out.note(format!(
        "{} windows of {BLOCK} jobs, edits/s: {rates:.1?}",
        rates.len()
    ));
    out.note(format!("the same as the clock read them: {wall_rates:.1?}"));
    end_to_end(
        &mut out,
        median(&rates),
        &nominal_ms,
        &wall_ms,
        BLOCK,
        setup_s,
    );
    out
}

/// `dense_large_mask`: large masks on the DiT preset, closed loop with
/// two clients through `ThreadedServer::start`, each client spinning
/// the reference loop between its requests.
pub fn dense_large_mask(seed: u64, seconds: f64) -> Outcome {
    const CLIENTS: usize = 2;
    let ctx = EditCtx::dense_large_mask();
    let mut out = Outcome::default();
    let warm_n = 4;
    let measured_n = blocks_for(seconds, DENSE_NOMINAL_RATE) * BLOCK;
    let jobs = edit_jobs(warm_n + measured_n, &ctx.mix, &Rng::new(seed));
    note_inputs(&mut out, &ctx, &jobs);
    let (warm, measured) = jobs.split_at(warm_n);

    let (setup_s, blobs) = median_setup(seconds, || timed_setup(&ctx));
    let check = check_outputs(&ctx, &blobs, &measured[measured.len() - CHECKED..]);
    out.phase("output check (mono + staged)", check, 0.0);

    let server = start_mono(&ctx, &blobs, TraceSink::disabled());
    let w = batch_phase(&server, warm, ctx.tokens());
    out.phase("warm-up", w.tally, w.makespan_s);
    let c = closed_loop(&server, measured, CLIENTS, true, ctx.tokens());
    out.phase("closed loop (2 clients, wall s)", c.tally, c.wall_s);
    server.shutdown();
    out.note(format!(
        "host speed: wall ÷ nominal latency, median {:.3}",
        median(
            &c.latency_ms
                .iter()
                .zip(&c.nominal_ms)
                .map(|(w, n)| w / n)
                .collect::<Vec<_>>()
        )
    ));
    // Little's law for clients that never pause: what the loop would
    // complete per second at nominal host speed without its spins.
    let mean_s = c.nominal_ms.iter().sum::<f64>() / 1e3 / c.nominal_ms.len() as f64;
    end_to_end(
        &mut out,
        CLIENTS as f64 / mean_s,
        &c.nominal_ms,
        &c.latency_ms,
        BLOCK,
        setup_s,
    );
    out
}

/// `cold_templates`: the write side of the cache. Single thread on
/// `FlashPs` directly: prime on miss (the budget evicts the oldest
/// registration), then edit, one reference spin between requests.
/// Set-up is system construction only — priming is paid inside the run
/// because users pay it per new template.
pub fn cold_templates(seed: u64, seconds: f64) -> Outcome {
    let ctx = EditCtx::cold_templates();
    let mut out = Outcome::default();
    let jobs = edit_jobs(
        blocks_for(seconds, COLD_NOMINAL_RATE) * BLOCK,
        &ctx.mix,
        &Rng::new(seed),
    );
    note_inputs(&mut out, &ctx, &jobs);

    // The budget in bytes comes from one priming of the preset (a
    // property of the program, measured before the clock starts).
    let template_bytes = {
        let mut probe = new_system(&ctx, u64::MAX);
        probe
            .register_template(0, &template_image(&ctx.model, 0))
            .expect("priming a preset template");
        probe.cache_bytes_resident()
    };
    let budget = COLD_RESIDENT as u64 * template_bytes;
    let mut host = HostRef::start(1, 1);
    let setup_times: Vec<f64> = (0..15)
        .map(|_| {
            host.time(|| drop(std::hint::black_box(new_system(&ctx, budget))))
                .1
                .nominal_s
        })
        .collect();

    let mut sys = new_system(&ctx, budget);
    let (mut nominal_ms, mut wall_ms) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut hits = 0u64;
    let mut kept: Vec<(usize, u64)> = Vec::new();
    let t0 = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        let ((resident, primed, result), took) = host.time(|| {
            let resident = sys.template(job.template_id).is_ok();
            let primed = resident
                || sys
                    .register_template(
                        job.template_id,
                        &template_image(&ctx.model, job.template_id),
                    )
                    .is_ok();
            let result = sys.edit_tokens(job.template_id, &job.masked_idx, job.prompt, job.seed);
            (resident, primed, result)
        });
        nominal_ms.push(took.nominal_s * 1e3);
        wall_ms.push(took.wall_s * 1e3);
        hits += u64::from(resident);
        tally.record(primed && result.is_ok());
        if let (true, Ok(r)) = (primed && i % 16 == 0 && kept.len() < CHECKED, &result) {
            kept.push((i, image_hash(&r.output.image)));
        }
    }
    let wall_s = secs(t0.elapsed());
    note_host(&mut out, &host);
    out.phase("prime-on-miss loop (wall s)", tally, wall_s);
    let hit_frac = hits as f64 / tally.sent as f64;
    out.note(format!(
        "resident hits {hits}/{} = {hit_frac:.3}, evictions {}",
        tally.sent,
        sys.evictions()
    ));
    let block_rates: Vec<f64> = nominal_ms
        .chunks(BLOCK)
        .map(|b| b.len() as f64 / (b.iter().sum::<f64>() / 1e3))
        .collect();
    out.note(format!(
        "{} blocks of {BLOCK} requests, requests/s: {block_rates:.1?}",
        block_rates.len()
    ));
    if !(0.6..=0.8).contains(&hit_frac) {
        out.suspect(format!(
            "resident hit fraction {hit_frac:.3} outside 0.6–0.8"
        ));
    }

    // Output check: an edit made after eviction and re-priming must be
    // byte-equal to the same edit on a freshly primed system.
    let mut check = Tally::default();
    for (i, want) in kept {
        let job = &jobs[i];
        // One system per checked edit, so the check holds one template
        // whatever the seed (peak memory is a reported metric).
        let mut fresh = new_system(&ctx, u64::MAX);
        let got = fresh
            .register_template(
                job.template_id,
                &template_image(&ctx.model, job.template_id),
            )
            .and_then(|()| {
                fresh.edit_tokens(job.template_id, &job.masked_idx, job.prompt, job.seed)
            })
            .map(|r| image_hash(&r.output.image));
        check.record(got.is_ok_and(|h| h == want));
    }
    out.phase("output check (fresh system)", check, 0.0);
    end_to_end(
        &mut out,
        median(&block_rates),
        &nominal_ms,
        &wall_ms,
        BLOCK,
        median(&setup_times),
    );
    out
}

fn image_hash(image: &fps_diffusion::Image) -> u64 {
    let mut h = Fnv::default();
    for v in image.data() {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    h.0
}

/// The three virtual-time planes' traces, at `scale` × the nominal
/// lengths (1.0 ≈ 0.8 s of replay each on the bench host).
pub struct SimTraces {
    pub cluster: Trace,
    pub fleet: FleetTrace,
    pub stage: Trace,
}

impl SimTraces {
    pub fn generate(rng: &Rng, scale: f64) -> Self {
        let fleet_secs = 16_000.0 * scale;
        Self {
            // Poisson 3 rps, 16 templates Zipf(1.0), production ratios.
            cluster: sim_trace(
                Stream {
                    rps: 3.0,
                    templates: 16,
                    zipf_s: 1.0,
                    ratios: Ratios::PRODUCTION,
                },
                2_700.0 * scale,
                Arrivals::Poisson,
                &rng.fork(0xC1),
            ),
            // The fig16_fleet shape: two tenants, 7.5 rps total, diurnal.
            fleet: fleet_trace(
                &[
                    Stream {
                        rps: 4.0,
                        templates: 64,
                        zipf_s: 1.0,
                        ratios: Ratios::PRODUCTION,
                    },
                    Stream {
                        rps: 3.5,
                        templates: 48,
                        zipf_s: 1.0,
                        ratios: Ratios::PRODUCTION,
                    },
                ],
                fleet_secs,
                Arrivals::Diurnal {
                    period_secs: fleet_secs / 2.0,
                    amplitude: 0.4,
                },
                &rng.fork(0xF1),
            ),
            // Bursty 1.2 rps, uniform 0.05–0.3 masks.
            stage: sim_trace(
                Stream {
                    rps: 1.2,
                    templates: 16,
                    zipf_s: 0.9,
                    ratios: Ratios::Uniform { lo: 0.05, hi: 0.3 },
                },
                33_000.0 * scale,
                Arrivals::Bursty {
                    factor: 3.0,
                    fraction: 0.3,
                    mean_secs: 20.0,
                },
                &rng.fork(0x57),
            ),
        }
    }

    pub fn requests(&self) -> usize {
        self.cluster.len() + self.fleet.trace.len() + self.stage.len()
    }

    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for t in [&self.cluster, &self.fleet.trace, &self.stage] {
            h.u64(hash_trace(t));
        }
        h.0
    }

    /// Every `stride`-th request of each trace (arrival order and ids
    /// kept dense), for the heap-vs-calendar identity replay.
    pub fn slice(&self, stride: usize) -> Self {
        let thin = |t: &Trace| {
            let mut requests: Vec<_> = t.requests.iter().step_by(stride).cloned().collect();
            for (id, r) in requests.iter_mut().enumerate() {
                r.id = id as u64;
            }
            Trace { requests }
        };
        Self {
            cluster: thin(&self.cluster),
            fleet: FleetTrace {
                trace: thin(&self.fleet.trace),
                tenant_of: self
                    .fleet
                    .tenant_of
                    .iter()
                    .step_by(stride)
                    .copied()
                    .collect(),
                template_base: self.fleet.template_base.clone(),
            },
            stage: thin(&self.stage),
        }
    }
}

/// Paper-SDXL on an H800, 8 workers, FlashPS defaults, mask-aware
/// routing (Algorithm 2).
pub fn run_cluster(trace: &Trace, sink: TraceSink) -> RunReport {
    let cost = CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl());
    let mut router = MaskAwareRouter::new(cost.clone()).expect("latency model fits");
    let mut config = ClusterConfig::flashps_default(cost, 8);
    config.trace = sink;
    ClusterSim::run(config, trace, &mut router).expect("cluster replay")
}

pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 4,
        workers_per_shard: 2,
        max_batch: 4,
        cache_capacity: 24,
        deadline_secs: 4.5,
        allow_degradation: false,
        strategy: RouteStrategy::Affinity { load_factor: 1.25 },
        ..FleetConfig::default()
    }
}

pub fn stage_config() -> StageGraphConfig {
    StageGraphConfig::staged(StageGraph::full(4, 1, 4, 8))
}

/// Conservation: every request of the trace is accounted for exactly
/// once. A report that breaks it fails all its requests.
pub fn cluster_conserved(r: &RunReport, trace: &Trace) -> bool {
    r.outcomes.len() + r.rejected.len() == trace.len()
}

pub fn fleet_conserved(r: &FleetReport, trace: &FleetTrace) -> bool {
    let slo = &r.fleet.fleet;
    slo.submitted == trace.trace.len() as u64 && slo.lost() == 0
}

pub fn stage_conserved(r: &StagedRunReport, trace: &Trace) -> bool {
    r.slo.submitted == trace.len() as u64 && r.slo.lost() == 0
}

/// A cheap fingerprint of a cluster report (it has no `to_json`): the
/// virtual-time outcome of every request, in completion order.
pub fn cluster_fingerprint(r: &RunReport) -> u64 {
    let mut h = Fnv::default();
    for o in &r.outcomes {
        h.f64(o.total);
    }
    h.u64(r.rejected.len() as u64);
    h.f64(r.makespan_secs);
    h.0
}

/// Replays a 1/20 slice on both schedulers (fleet, stage graph) or
/// twice (cluster, which has one scheduler entry point) and demands
/// byte-identical reports. Returns (checks, failures).
pub fn replay_identity(traces: &SimTraces) -> Tally {
    let s = traces.slice(20);
    let mut tally = Tally::default();
    tally.record(
        cluster_fingerprint(&run_cluster(&s.cluster, TraceSink::disabled()))
            == cluster_fingerprint(&run_cluster(&s.cluster, TraceSink::disabled())),
    );
    tally.record(
        FleetSim::run(fleet_config(), &s.fleet)
            .to_json()
            .to_string_compact()
            == FleetSim::run_on_heap(fleet_config(), &s.fleet)
                .to_json()
                .to_string_compact(),
    );
    tally.record(
        StageGraphSim::run(stage_config(), &s.stage)
            .to_json()
            .to_string_compact()
            == StageGraphSim::run_on_heap(stage_config(), &s.stage)
                .to_json()
                .to_string_compact(),
    );
    tally
}

/// One timed replay of one plane on the calendar scheduler.
struct Replay {
    wall_s: f64,
    requests: u64,
    conserved: bool,
    fingerprint: u64,
}

fn replay_plane(plane: usize, traces: &SimTraces) -> Replay {
    let t = Instant::now();
    match plane {
        0 => {
            let r = run_cluster(&traces.cluster, TraceSink::disabled());
            Replay {
                wall_s: secs(t.elapsed()),
                requests: traces.cluster.len() as u64,
                conserved: cluster_conserved(&r, &traces.cluster),
                fingerprint: cluster_fingerprint(&r),
            }
        }
        1 => {
            let r = FleetSim::run(fleet_config(), &traces.fleet);
            Replay {
                wall_s: secs(t.elapsed()),
                requests: traces.fleet.trace.len() as u64,
                conserved: fleet_conserved(&r, &traces.fleet),
                fingerprint: r.events_processed ^ r.fleet.fleet.served.rotate_left(32),
            }
        }
        _ => {
            let r = StageGraphSim::run(stage_config(), &traces.stage);
            Replay {
                wall_s: secs(t.elapsed()),
                requests: traces.stage.len() as u64,
                conserved: stage_conserved(&r, &traces.stage),
                fingerprint: r.events_processed ^ r.slo.served.rotate_left(32),
            }
        }
    }
}

/// Length of `sim_replay`'s traces: a third of a second of replay per
/// plane on the bench host, so a reference spin sits beside every
/// replay.
const SIM_REPLAY_SCALE: f64 = 0.34;

/// `sim_replay`: time to replay one seeded trace through each
/// virtual-time plane on the calendar scheduler, round-robin until
/// `--seconds` have passed, a reference spin between replays. No kernel
/// runs at all.
pub fn sim_replay(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let rng = Rng::new(seed);
    let mut host = HostRef::start(1, 3);
    let (setup_s, traces) = median_setup(seconds, || {
        let (traces, took) = host.time(|| SimTraces::generate(&rng, SIM_REPLAY_SCALE));
        (took.nominal_s, traces)
    });
    out.input_hash = traces.hash();
    out.note(format!(
        "inputs: cluster {} fleet {} stage {} requests, fnv {:016x}",
        traces.cluster.len(),
        traces.fleet.trace.len(),
        traces.stage.len(),
        out.input_hash
    ));
    let identity = replay_identity(&traces);
    out.phase("1/20-slice identity replays", identity, 0.0);

    let (mut nominal_ms, mut wall_ms) = (Vec::new(), Vec::new());
    let mut replayed = Tally::default();
    let mut first: Option<[u64; 3]> = None;
    let t0 = Instant::now();
    host.resume();
    while nominal_ms.len() < 6 || secs(t0.elapsed()) < seconds {
        let round = [0, 1, 2].map(|plane| host.time(|| replay_plane(plane, &traces)));
        for (r, took) in &round {
            // The replay's own clock (the fingerprinting after it is
            // the benchmark's), at the speed of the spins around it.
            nominal_ms.push(r.wall_s * 1e3 * took.nominal_s / took.wall_s);
            wall_ms.push(r.wall_s * 1e3);
            replayed.record_n(r.requests, r.conserved);
        }
        // Every round must reproduce the first: the planes are
        // deterministic, so a differing fingerprint is a wrong output.
        let prints = round.map(|(r, _)| r.fingerprint);
        if *first.get_or_insert(prints) != prints {
            let all = traces.requests() as u64;
            replayed.failed += all;
            replayed.ok = replayed.ok.saturating_sub(all);
        }
    }
    note_host(&mut out, &host);
    out.phase(
        "replays (simulated requests, wall s)",
        replayed,
        wall_ms.iter().sum::<f64>() / 1e3,
    );
    let plane_ms =
        |p: usize| -> Vec<f64> { nominal_ms.iter().skip(p).step_by(3).copied().collect() };
    out.note(format!(
        "{} rounds; median replay ms: cluster {:.1} fleet {:.1} stage {:.1}",
        nominal_ms.len() / 3,
        median(&plane_ms(0)),
        median(&plane_ms(1)),
        median(&plane_ms(2))
    ));
    out.note(format!("replay ms: {nominal_ms:.0?}"));
    // One round's requests over the planes' median replay times.
    let round_s: f64 = (0..3).map(|p| median(&plane_ms(p)) / 1e3).sum();
    end_to_end(
        &mut out,
        traces.requests() as f64 / round_s,
        &nominal_ms,
        &wall_ms,
        3,
        setup_s,
    );
    out
}

pub fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Option<Outcome> {
    Some(match workload {
        "prod_small_mask" => prod_small_mask(seed, seconds),
        "dense_large_mask" => dense_large_mask(seed, seconds),
        "cold_templates" => cold_templates(seed, seconds),
        "sim_replay" => sim_replay(seed, seconds),
        _ => return None,
    })
}
