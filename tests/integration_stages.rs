//! Integration: the stage-graph layer end to end — the disaggregated
//! wall-clock server (flashps `start_staged`) against the monolithic
//! one on the *same* pipeline seams, per-stage shedding under a
//! saturating burst, deadline drops at stage boundaries, and the
//! virtual-time plane (fps-stagegraph) reporting per-stage queue stats
//! on the shared SLO report shape.

use flashps::{
    EditJob, FlashPs, FlashPsConfig, FlashPsError, ServerConfig, StagedServerConfig,
    ThreadedServer, Ticket,
};
use fps_diffusion::{Image, ModelConfig};
use fps_json::ToJson;
use fps_stagegraph::{StageGraph, StageGraphConfig, StageGraphSim};
use fps_workload::{RatioDistribution, TraceConfig};

fn system(templates: u64) -> FlashPs {
    let cfg = ModelConfig::tiny();
    let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
    for id in 0..templates {
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), id);
        sys.register_template(id, &img).unwrap();
    }
    sys
}

fn job(template: u64, seed: u64) -> EditJob {
    EditJob {
        template_id: template,
        masked_idx: vec![1, 2, 5, 6],
        prompt: "edit".into(),
        seed,
        guidance: None,
    }
}

#[test]
fn staged_and_monolithic_servers_are_byte_identical_on_fixed_seed() {
    // The tentpole invariant: disaggregating the pipeline into pools
    // must not change a single output byte. Same jobs, same seeds,
    // three execution shapes — direct synchronous edit, the monolithic
    // continuous-batching server, the staged server — one image.
    let sys = system(1);
    let direct = sys.edit_tokens(0, &[1, 2, 5, 6], "edit", 42).unwrap();

    let mono = ThreadedServer::start(
        system(1),
        ServerConfig {
            workers: 2,
            max_batch: 3,
            ..ServerConfig::default()
        },
    );
    let staged = ThreadedServer::start_staged(
        system(1),
        ServerConfig {
            workers: 2,
            max_batch: 3,
            ..ServerConfig::default()
        },
        StagedServerConfig::default(),
    );
    let mono_tickets: Vec<Ticket> = (0..6).map(|_| mono.submit(job(0, 42)).unwrap()).collect();
    let staged_tickets: Vec<Ticket> = (0..6).map(|_| staged.submit(job(0, 42)).unwrap()).collect();
    for (m, s) in mono_tickets.into_iter().zip(staged_tickets) {
        let m = m.wait().unwrap();
        let s = s.wait().unwrap();
        assert_eq!(m.output.image, direct.output.image);
        assert_eq!(s.output.image, direct.output.image);
    }
    mono.shutdown();
    staged.shutdown();
}

#[test]
fn saturating_burst_sheds_at_the_entry_stage_only() {
    // A paused staged server with a tight admission cap: a burst far
    // beyond capacity must shed at submit time (the encode gate) while
    // every accepted job still resolves once resumed — sheds happen at
    // one stage, never silently inside the graph.
    let server = ThreadedServer::start_staged(
        system(1),
        ServerConfig {
            workers: 1,
            max_batch: 1,
            max_queue_depth: Some(3),
            start_paused: true,
            ..ServerConfig::default()
        },
        StagedServerConfig::default(),
    );
    let mut accepted = Vec::new();
    let mut shed = 0u32;
    for i in 0..30u64 {
        match server.submit(job(0, i)) {
            Ok(t) => accepted.push(t),
            Err(FlashPsError::Overloaded) => shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(shed > 0, "the burst must overflow the entry gate");
    assert!(!accepted.is_empty());
    server.resume();
    for t in accepted {
        assert!(t.wait().is_ok(), "admitted jobs are served after resume");
    }
    server.shutdown();
}

#[test]
fn deadline_drop_at_a_stage_boundary_frees_the_batch_slot() {
    // One worker, batch of one: a job whose deadline lapses while the
    // server is paused is dropped at the first stage boundary it
    // reaches — and the freed slot then serves a fresh job promptly.
    let timeout = std::time::Duration::from_millis(250);
    let server = ThreadedServer::start_staged(
        system(1),
        ServerConfig {
            workers: 1,
            max_batch: 1,
            job_timeout: Some(timeout),
            start_paused: true,
            ..ServerConfig::default()
        },
        StagedServerConfig::default(),
    );
    let stale = server.submit(job(0, 7)).unwrap();
    std::thread::sleep(timeout + std::time::Duration::from_millis(150));
    server.resume();
    assert!(
        matches!(stale.wait(), Err(FlashPsError::JobTimeout)),
        "the expired job must drop at a boundary, not occupy the batch"
    );
    let fresh = server.submit(job(0, 8)).unwrap();
    assert!(
        fresh.wait().is_ok(),
        "the slot freed by the boundary drop must serve new work"
    );
    server.shutdown();
}

#[test]
fn staged_drop_serves_jobs_queued_behind_a_blocked_encode() {
    // The drain guarantee under head-of-line blocking: the one encode
    // worker blocks on worker 0's full queue (slow full-canvas edits)
    // while worker 1's one-token edits are still behind it in the
    // entry queue. Worker 1 is idle with an empty queue in the
    // meantime and must not take that for "drained": every ticket
    // submitted before the drop is served.
    let cfg = ModelConfig::sdxl_like();
    let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
    let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
    sys.register_template(0, &img).unwrap();
    let server = ThreadedServer::start_staged(
        sys,
        ServerConfig {
            workers: 2,
            max_batch: 1,
            start_paused: true,
            ..ServerConfig::default()
        },
        StagedServerConfig {
            encode_workers: 1,
            decode_workers: 1,
            stage_queue_capacity: 1,
        },
    );
    // Request-count routing alternates a paused burst: even jobs (the
    // whole canvas) land on worker 0, odd ones (one token) on worker 1.
    let tickets: Vec<Ticket> = (0..8u64)
        .map(|i| {
            let masked_idx = if i % 2 == 0 {
                (0..cfg.tokens()).collect()
            } else {
                vec![0]
            };
            server
                .submit(EditJob {
                    template_id: 0,
                    masked_idx,
                    prompt: "edit".into(),
                    seed: i,
                    guidance: None,
                })
                .unwrap()
        })
        .collect();
    drop(server);
    for (i, t) in tickets.into_iter().enumerate() {
        let r = t.wait();
        assert!(
            r.is_ok(),
            "job {i} was submitted before shutdown and must be served, got {:?}",
            r.err()
        );
    }
}

#[test]
fn every_ticket_resolves_exactly_once_in_both_modes() {
    // Exactly-once on the wall-clock plane, one body for both modes:
    // mode × injected panic (with and without a retry budget) ×
    // deadline × how the server is closed. Every ticket resolves, to
    // the outcome its configuration predicts; none dangles or reads
    // ServerClosed for a job submitted before the close; the ledger
    // returns to zero; and Drop returns.
    const POISON: u64 = 3;
    let staged = StagedServerConfig {
        encode_workers: 1,
        decode_workers: 1,
        stage_queue_capacity: 1,
    };
    for mode in [None, Some(staged)] {
        // (chaos hook, attempts): off, panic-then-retry, panic-and-fail.
        for (chaos_panic_seed, max_job_attempts) in
            [(None, 3), (Some(POISON), 3), (Some(POISON), 1)]
        {
            for job_timeout in [None, Some(std::time::Duration::ZERO)] {
                for drop_immediately in [false, true] {
                    let case = format!(
                        "staged={} chaos={chaos_panic_seed:?} attempts={max_job_attempts} \
                         timeout={job_timeout:?} drop_immediately={drop_immediately}",
                        mode.is_some()
                    );
                    let config = ServerConfig {
                        workers: 2,
                        max_batch: 2,
                        job_timeout,
                        max_job_attempts,
                        chaos_panic_seed,
                        ..ServerConfig::default()
                    };
                    let server = match mode.clone() {
                        None => ThreadedServer::start(system(2), config),
                        Some(staged) => ThreadedServer::start_staged(system(2), config, staged),
                    };
                    let tickets: Vec<Ticket> = (0..6u64)
                        .map(|seed| server.submit(job(seed % 2, seed)).unwrap())
                        .collect();
                    let mut server = Some(server);
                    if drop_immediately {
                        // Returns only once every stage thread joined.
                        server.take();
                    }
                    for (seed, t) in (0..6u64).zip(tickets) {
                        let out_of_retries = chaos_panic_seed.is_some() && max_job_attempts == 1;
                        let outcome = t.wait().map(|_| ());
                        let predicted = match &outcome {
                            // A zero deadline lapses before any step runs.
                            _ if job_timeout.is_some() => {
                                matches!(outcome, Err(FlashPsError::JobTimeout))
                            }
                            Ok(()) => !(out_of_retries && seed == POISON),
                            // The poisoned job's batch mates die with it.
                            Err(FlashPsError::WorkerPanicked) => out_of_retries,
                            Err(_) => false,
                        };
                        assert!(predicted, "{case}: job {seed} resolved to {outcome:?}");
                    }
                    if let Some(server) = server {
                        // The slot is released just after the reply is
                        // sent, so the last one may lag its ticket.
                        while server.queue_depth() > 0 {
                            std::thread::yield_now();
                        }
                        server.shutdown();
                    }
                }
            }
        }
    }
}

fn sim_trace(rps: f64, secs: f64, seed: u64) -> fps_workload::Trace {
    fps_workload::Trace::generate(&TraceConfig {
        rps,
        arrivals: fps_workload::trace::ArrivalProcess::Poisson,
        duration_secs: secs,
        ratio_dist: RatioDistribution::Uniform { lo: 0.05, hi: 0.3 },
        num_templates: 8,
        zipf_s: 0.9,
        seed,
    })
}

#[test]
fn virtual_plane_reports_per_stage_queue_stats_and_replays() {
    // The virtual-time plane: per-stage queue-wait stats surface on
    // the shared SloReport shape, and seeded replays are byte-
    // identical across event schedulers.
    let trace = sim_trace(1.0, 90.0, 17);
    let cfg = || StageGraphConfig::staged(StageGraph::full(2, 1, 4, 8));
    let a = StageGraphSim::run(cfg(), &trace);
    assert_eq!(a.slo.lost(), 0);
    assert_eq!(a.slo.stages.len(), 5, "five stages report queue stats");
    let json = a.to_json().to_string_compact();
    assert!(json.contains("\"stages\""));
    assert!(json.contains("\"bubble_fraction\""));
    let b = StageGraphSim::run_on_heap(cfg(), &trace);
    assert_eq!(
        json,
        b.to_json().to_string_compact(),
        "calendar and heap replays diverged"
    );
}

#[test]
fn disaggregation_beats_inline_cpu_under_a_cpu_heavy_burst() {
    // The §4.3 claim at integration scope: with heavy CPU pre/post
    // work, the staged graph keeps its denoise pool busier (smaller
    // GPU bubble) and lands more goodput than the monolithic arm with
    // the same denoise resources.
    let trace = sim_trace(1.2, 120.0, 29);
    let mut staged_cfg = StageGraphConfig::staged(StageGraph::full(4, 1, 4, 8));
    let mut mono_cfg = StageGraphConfig::monolithic(1, 4, 8);
    for cfg in [&mut staged_cfg, &mut mono_cfg] {
        cfg.cpu.preprocess = fps_simtime::SimDuration::from_secs_f64(1.5);
        cfg.cpu.postprocess = fps_simtime::SimDuration::from_secs_f64(1.5);
        cfg.deadline_secs = 60.0;
    }
    let staged = StageGraphSim::run(staged_cfg, &trace);
    let mono = StageGraphSim::run(mono_cfg, &trace);
    assert_eq!(staged.slo.lost(), 0);
    assert_eq!(mono.slo.lost(), 0);
    assert!(
        staged.gpu_bubble_fraction < mono.gpu_bubble_fraction,
        "staged bubble {} must undercut monolithic {}",
        staged.gpu_bubble_fraction,
        mono.gpu_bubble_fraction
    );
    assert!(
        staged.slo.goodput_at_deadline_rps > mono.slo.goodput_at_deadline_rps,
        "staged goodput {} must beat monolithic {}",
        staged.slo.goodput_at_deadline_rps,
        mono.slo.goodput_at_deadline_rps
    );
}
