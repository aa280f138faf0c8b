//! Machinery shared by the three edit workloads: building and cloning
//! primed systems, the load-generating phases (batch, paced open loop,
//! closed loop) over `ThreadedServer`, and the output check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use flashps::{
    EditJob, FlashPs, FlashPsConfig, ServerConfig, StagedServerConfig, ThreadedServer, Ticket,
};
use fps_diffusion::{Image, ModelConfig};
use fps_trace::TraceSink;

use crate::gen::{EditMix, JobSpec, Ratios, Templates};
use crate::stats::{secs, HostRef, Timed};

/// Server shape of every server phase (the issue's sizing: two workers
/// on the two-core bench host, four interleaved sessions each). Also
/// the lanes of the reference spins beside a saturated server.
pub const WORKERS: usize = 2;
pub const MAX_BATCH: usize = 4;

/// Templates `cold_templates`' cache budget has room for.
pub const COLD_RESIDENT: usize = 8;

/// Everything that distinguishes one edit workload from another. All
/// rates and counts are literals: nothing is derived from a measurement
/// at run time, so parent and change always offer the same load.
#[derive(Debug, Clone)]
pub struct EditCtx {
    pub model: ModelConfig,
    pub capture_kv: bool,
    pub mix: EditMix,
    /// Open-loop arrival rate of the paced phases, requests/s.
    pub paced_rate: f64,
    /// Latency limit of `server.slo_miss_frac`, ms.
    pub latency_limit_ms: f64,
    /// Sizes of the traced run's phases (small: the traced run is for
    /// attribution, the untraced run for the end-to-end numbers).
    pub probe_edits: usize,
    pub probe_server_jobs: usize,
}

impl EditCtx {
    pub fn tokens(&self) -> usize {
        self.model.tokens()
    }

    fn mix(model: &ModelConfig, templates: Templates, ratios: Ratios) -> EditMix {
        EditMix {
            grid: (model.latent_h, model.latent_w),
            templates,
            ratios,
            full_canvas_per_block: 0,
        }
    }

    /// sdxl-like, 16 templates Zipf(1.0), production mask ratios.
    pub fn prod_small_mask() -> Self {
        let model = ModelConfig::sdxl_like();
        Self {
            mix: Self::mix(
                &model,
                Templates::Resident { count: 16, s: 1.0 },
                Ratios::PRODUCTION,
            ),
            model,
            capture_kv: false,
            paced_rate: 20.0,
            latency_limit_ms: 250.0,
            probe_edits: 32,
            probe_server_jobs: 96,
        }
    }

    /// flux-like (DiT), 4 templates, 75% VITON-HD ratios + 25%
    /// full-canvas rectangles at 0.95. (The issue asked for 8
    /// templates; 4 lets three timed set-ups fit the run budget, and
    /// the template count does not matter to a workload that computes
    /// most rows.)
    pub fn dense_large_mask() -> Self {
        let model = ModelConfig::flux_like();
        let mut mix = Self::mix(
            &model,
            Templates::Resident { count: 4, s: 1.0 },
            Ratios::VITON_HD,
        );
        mix.full_canvas_per_block = 8;
        Self {
            mix,
            model,
            capture_kv: false,
            paced_rate: 3.0,
            latency_limit_ms: 2000.0,
            probe_edits: 6,
            probe_server_jobs: 10,
        }
    }

    /// sdxl-like with K/V capture, 32-template universe under a budget
    /// of 8 resident templates. 10 requests of every 32 name a template
    /// the budget has evicted: the ≈ 0.7 resident-hit fraction the issue
    /// got from i.i.d. Zipf(1.5) draws, made exact so that every seed
    /// primes equally often (the generator's unit test replays the
    /// eviction policy).
    pub fn cold_templates() -> Self {
        let model = ModelConfig::sdxl_like();
        Self {
            mix: Self::mix(
                &model,
                Templates::Churn {
                    universe: 32,
                    s: 1.0,
                    resident: COLD_RESIDENT,
                    misses_per_block: 10,
                },
                Ratios::PRODUCTION,
            ),
            model,
            capture_kv: true,
            paced_rate: 12.0,
            latency_limit_ms: 500.0,
            probe_edits: 24,
            probe_server_jobs: 64,
        }
    }
}

pub fn template_image(model: &ModelConfig, template_id: u64) -> Image {
    Image::template(model.pixel_h(), model.pixel_w(), 0x7E37 ^ template_id)
}

pub fn to_job(spec: &JobSpec) -> EditJob {
    EditJob {
        template_id: spec.template_id,
        masked_idx: spec.masked_idx.clone(),
        prompt: spec.prompt.to_string(),
        seed: spec.seed,
        guidance: None,
    }
}

pub fn server_config(trace: TraceSink) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_batch: MAX_BATCH,
        trace,
        ..ServerConfig::default()
    }
}

/// Spilled template caches: the bytes every server phase restores its
/// own system from (a server consumes its system), so all phases see
/// identical caches.
pub type Blobs = Vec<(Vec<u8>, Image)>;

/// An empty system for the context under the given cache budget
/// (`u64::MAX` = unbounded, which every server phase uses: a server's
/// templates cannot be registered on demand).
pub fn new_system(ctx: &EditCtx, cache_budget_bytes: u64) -> FlashPs {
    let mut config = FlashPsConfig::new(ctx.model.clone());
    config.capture_kv = ctx.capture_kv;
    config.cache_budget_bytes = cache_budget_bytes;
    FlashPs::new(config).expect("preset model configs are valid")
}

/// Builds a system, primes every template of the universe and spills
/// them, each template between two reference spins of `host`. Returns
/// the blobs, the per-template cache bytes and the seconds it took at
/// nominal host speed.
pub fn prime_and_spill(ctx: &EditCtx, host: &mut HostRef) -> (Blobs, u64, f64) {
    let (mut sys, built) = host.time(|| new_system(ctx, u64::MAX));
    let mut bytes = 0;
    let mut nominal_s = built.nominal_s;
    let blobs = (0..ctx.mix.templates.universe() as u64)
        .map(|t| {
            let (blob, primed) = host.time(|| {
                sys.register_template(t, &template_image(&ctx.model, t))
                    .expect("priming a preset template");
                bytes = sys.cache_bytes_resident();
                sys.spill_template(t)
                    .expect("spilling a registered template")
            });
            nominal_s += primed.nominal_s;
            blob
        })
        .collect();
    (blobs, bytes, nominal_s)
}

/// A fresh system holding every spilled template.
pub fn restore(ctx: &EditCtx, blobs: &Blobs) -> FlashPs {
    let mut sys = new_system(ctx, u64::MAX);
    for (bytes, image) in blobs {
        sys.restore_template(bytes, image.clone())
            .expect("restoring a spilled template");
    }
    sys
}

/// One full set-up as a user pays it: build the system, prime every
/// template, start the server. Returns the seconds it took at nominal
/// host speed and the blobs (spill + restore ride inside the timed
/// region; they are ~1% of priming).
pub fn timed_setup(ctx: &EditCtx) -> (f64, Blobs) {
    let mut host = HostRef::start(1, 1);
    let (blobs, _, primed_s) = prime_and_spill(ctx, &mut host);
    let (server, started) = host
        .time(|| ThreadedServer::start(restore(ctx, &blobs), server_config(TraceSink::disabled())));
    server.shutdown();
    (primed_s + started.nominal_s, blobs)
}

pub fn start_mono(ctx: &EditCtx, blobs: &Blobs, trace: TraceSink) -> ThreadedServer {
    ThreadedServer::start(restore(ctx, blobs), server_config(trace))
}

pub fn start_staged(ctx: &EditCtx, blobs: &Blobs, trace: TraceSink) -> ThreadedServer {
    ThreadedServer::start_staged(
        restore(ctx, blobs),
        server_config(trace),
        StagedServerConfig {
            encode_workers: 1,
            decode_workers: 1,
            stage_queue_capacity: 8,
        },
    )
}

/// Sent / succeeded / failed of one phase, printed beside its timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }

    pub fn record(&mut self, ok: bool) {
        self.record_n(1, ok);
    }

    /// `n` requests that stand or fall together (one simulator report).
    pub fn record_n(&mut self, n: u64, ok: bool) {
        self.sent += n;
        if ok {
            self.ok += n;
        } else {
            self.failed += n;
        }
    }
}

/// A served edit is accepted when it resolved `Ok` and reports the mask
/// ratio that was asked for (the full byte check runs on the sampled
/// requests of [`check_outputs`]).
fn accepted(result: &flashps::Result<flashps::EditResult>, job: &JobSpec, tokens: usize) -> bool {
    match result {
        Ok(r) => (r.mask_ratio - job.masked_idx.len() as f64 / tokens as f64).abs() < 1e-12,
        Err(_) => false,
    }
}

pub struct BatchResult {
    pub makespan_s: f64,
    pub tally: Tally,
    /// Duration of each `submit` call, µs.
    pub submit_us: Vec<f64>,
}

/// Submits every job at once, then waits for all: the capacity phase.
pub fn batch_phase(server: &ThreadedServer, jobs: &[JobSpec], tokens: usize) -> BatchResult {
    let mut tally = Tally::default();
    let mut submit_us = Vec::with_capacity(jobs.len());
    let t0 = Instant::now();
    let tickets: Vec<Option<Ticket>> = jobs
        .iter()
        .map(|j| {
            let job = to_job(j);
            let t = Instant::now();
            let ticket = server.submit(job).ok();
            submit_us.push(secs(t.elapsed()) * 1e6);
            ticket
        })
        .collect();
    for (ticket, job) in tickets.into_iter().zip(jobs) {
        tally.record(ticket.is_some_and(|t| accepted(&t.wait(), job, tokens)));
    }
    BatchResult {
        makespan_s: secs(t0.elapsed()),
        tally,
        submit_us,
    }
}

pub struct PacedResult {
    /// `wait`-return minus due time per request, ms (failed requests
    /// included: they waited too).
    pub latency_ms: Vec<f64>,
    /// How late each submit started after its due time, ms.
    pub gen_lag_ms: Vec<f64>,
    pub tally: Tally,
    /// Arrivals and completions inside the last third of the schedule.
    pub last_third: (usize, usize),
    pub wall_s: f64,
}

/// Open loop: one submitter thread sleeps to each request's due time
/// and submits; one collector thread waits the tickets in submission
/// order. Latency is measured from the *due* time, so a stall in the
/// server (or a late generator) is charged to every request it delays.
/// The in-order collector reads a completion no earlier than it
/// happened: exact while completions are in order, never
/// under-reported otherwise. Nothing else runs during the phase, and
/// its times are as the clock read them: a reference spin beside the
/// requests (see [`HostRef`]) took a worker's core often enough to add
/// a third to the median latency, and the idle cores of an open loop
/// are what the bench host punishes most — so the phase serves the
/// traced run only.
pub fn paced_phase(
    server: &ThreadedServer,
    jobs: &[JobSpec],
    due_s: &[f64],
    tokens: usize,
) -> PacedResult {
    assert_eq!(jobs.len(), due_s.len());
    let (tx, rx) = mpsc::channel::<(usize, Option<Ticket>)>();
    let start = Instant::now() + Duration::from_millis(20);
    let due_at = |i: usize| start + Duration::from_secs_f64(due_s[i]);
    let mut gen_lag_ms = Vec::with_capacity(jobs.len());
    let (latency_ms, done_s, tally) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut latency_ms = Vec::with_capacity(jobs.len());
            let mut done_s = Vec::with_capacity(jobs.len());
            let mut tally = Tally::default();
            for (i, ticket) in rx {
                let ok = ticket.is_some_and(|t| accepted(&t.wait(), &jobs[i], tokens));
                let now = Instant::now();
                latency_ms.push(secs(now.saturating_duration_since(due_at(i))) * 1e3);
                done_s.push(secs(now.saturating_duration_since(start)));
                tally.record(ok);
            }
            (latency_ms, done_s, tally)
        });
        for (i, j) in jobs.iter().enumerate() {
            let job = to_job(j);
            if let Some(wait) = due_at(i).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            gen_lag_ms.push(secs(Instant::now().saturating_duration_since(due_at(i))) * 1e3);
            tx.send((i, server.submit(job).ok()))
                .expect("collector outlives the submitter");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let horizon = due_s.last().copied().unwrap_or(0.0);
    let in_last_third = |t: &&f64| **t >= horizon * 2.0 / 3.0 && **t <= horizon;
    PacedResult {
        last_third: (
            due_s.iter().filter(in_last_third).count(),
            done_s.iter().filter(in_last_third).count(),
        ),
        wall_s: done_s.iter().copied().fold(0.0, f64::max),
        latency_ms,
        gen_lag_ms,
        tally,
    }
}

pub struct ClosedResult {
    /// `submit` → `wait` of each job, ms, in the order of `jobs`.
    pub latency_ms: Vec<f64>,
    /// The same at nominal host speed where the clients spin (see
    /// [`closed_loop`]), else the same values again.
    pub nominal_ms: Vec<f64>,
    pub tally: Tally,
    /// Phase start to last completion.
    pub wall_s: f64,
}

/// Closed loop: `clients` threads each `submit` → `wait` the next job
/// of the shared list until it is used up; latency is exact per
/// request. With `client_spins` every client spins the reference loop
/// between its requests (see [`HostRef`]) and each latency is corrected
/// by the spins around it: for as many clients as cores, whose spins
/// run on the core their request just left. More clients than cores
/// would take the workers' cores: leave it off and spin between calls.
pub fn closed_loop(
    server: &ThreadedServer,
    jobs: &[JobSpec],
    clients: usize,
    client_spins: bool,
    tokens: usize,
) -> ClosedResult {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<(Vec<(usize, Timed)>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut host = client_spins.then(|| HostRef::start(1, 1));
                    let mut latency = Vec::new();
                    let mut tally = Tally::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let job_in = to_job(job);
                        let t = Instant::now();
                        let result = server.submit(job_in).and_then(Ticket::wait);
                        let wall_s = secs(t.elapsed());
                        let took = host.as_mut().map_or(
                            Timed {
                                wall_s,
                                nominal_s: wall_s,
                            },
                            |h| h.correct(wall_s),
                        );
                        latency.push((i, took));
                        tally.record(accepted(&result, job, tokens));
                    }
                    (latency, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = ClosedResult {
        latency_ms: vec![0.0; jobs.len()],
        nominal_ms: vec![0.0; jobs.len()],
        tally: Tally::default(),
        wall_s: secs(t0.elapsed()),
    };
    for (latencies, tally) in per_client {
        for (i, took) in latencies {
            out.latency_ms[i] = took.wall_s * 1e3;
            out.nominal_ms[i] = took.nominal_s * 1e3;
        }
        out.tally.add(tally);
    }
    out
}

/// Output check, run every time: for the sampled requests the image
/// returned by `ThreadedServer` — monolithic and staged — must be
/// byte-equal to `FlashPs::edit_tokens` on the same commit.
pub fn check_outputs(ctx: &EditCtx, blobs: &Blobs, sample: &[JobSpec]) -> Tally {
    let direct = restore(ctx, blobs);
    let edit = |j: &JobSpec| {
        direct
            .edit_tokens(j.template_id, &j.masked_idx, j.prompt, j.seed)
            .ok()
            .map(|r| r.output.image)
    };
    // Two threads, like the servers' two workers: the check costs a few
    // edits' time, not a few dozen.
    let (front, back) = sample.split_at(sample.len() / 2);
    let expected: Vec<Option<Image>> = std::thread::scope(|s| {
        let second = s.spawn(|| back.iter().map(edit).collect::<Vec<_>>());
        let mut first: Vec<_> = front.iter().map(edit).collect();
        first.extend(second.join().expect("check thread panicked"));
        first
    });
    let mut tally = Tally::default();
    for server in [
        start_mono(ctx, blobs, TraceSink::disabled()),
        start_staged(ctx, blobs, TraceSink::disabled()),
    ] {
        let tickets: Vec<_> = sample
            .iter()
            .map(|j| server.submit(to_job(j)).ok())
            .collect();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let got = ticket.and_then(|t| t.wait().ok()).map(|r| r.output.image);
            tally.record(want.is_some() && got == *want);
        }
        server.shutdown();
    }
    tally
}
