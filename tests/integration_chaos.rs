//! Integration: the fault-injection subsystem across crates — fault
//! plans and profiles (fps-chaos), the resilient cluster simulator
//! (fps-serving), the Algorithm 2 router under faults (flashps), the
//! degradation accounting (fps-metrics), and the threaded server's
//! panic recovery.

use flashps::server::{EditJob, ServerConfig, ThreadedServer, Ticket};
use flashps::system::{FlashPs, FlashPsConfig};
use flashps::{FlashPsError, MaskAwareRouter};
use fps_chaos::{FaultPlan, FaultProfile, RetryPolicy};
use fps_diffusion::{Image, ModelConfig};
use fps_serving::cluster::{ClusterConfig, ClusterSim};
use fps_serving::{CostModel, GpuSpec, LeastLoadedRouter};
use fps_simtime::SimTime;
use fps_workload::{RatioDistribution, Trace, TraceConfig};

const NUM_TEMPLATES: u64 = 8;

fn trace(rps: f64, secs: f64, seed: u64) -> Trace {
    Trace::generate(&TraceConfig {
        rps,
        arrivals: fps_workload::trace::ArrivalProcess::Poisson,
        duration_secs: secs,
        ratio_dist: RatioDistribution::ProductionTrace,
        num_templates: NUM_TEMPLATES as usize,
        zipf_s: 1.0,
        seed,
    })
}

fn config(workers: usize) -> ClusterConfig {
    let cost = CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl());
    ClusterConfig::flashps_default(cost, workers)
}

#[test]
fn canonical_profiles_degrade_without_losing_requests() {
    let t = trace(1.0, 120.0, 3);
    let n = t.len() as u64;
    let horizon = SimTime::from_nanos(180_000_000_000);
    let retry = RetryPolicy::default();
    for profile in FaultProfile::ALL {
        let plan = profile.plan(5, horizon, 2, NUM_TEMPLATES);
        let mut router = LeastLoadedRouter;
        let report =
            ClusterSim::run_with_faults(config(2), &t, &mut router, &plan, &retry).expect("run");
        let d = report.degradation(profile.label(), n);
        assert_eq!(d.lost(), 0, "{}: silent loss", d.profile);
        match profile {
            FaultProfile::Baseline => {
                assert_eq!(d.retries, 0);
                assert_eq!(d.fallback_serves, 0);
                assert_eq!(d.crashes, 0);
            }
            FaultProfile::WorkerCrash => {
                assert!(d.crashes > 0, "profile must inject crashes");
            }
            FaultProfile::CacheLossSlowDisk => {
                assert!(d.fallback_serves > 0, "lost cache entries must fall back");
            }
            FaultProfile::OverloadBurst => {
                assert!(d.retries > 0, "transit drops must be retried");
                assert_eq!(d.crashes, 0, "overload burst injects no crashes");
            }
            FaultProfile::DiskBrownout => {
                assert!(d.fallback_serves > 0, "corrupted entries must fall back");
            }
        }
    }
}

#[test]
fn baseline_profile_is_byte_identical_to_fault_free_run() {
    let t = trace(1.2, 90.0, 4);
    let mut r1 = LeastLoadedRouter;
    let plain = ClusterSim::run(config(2), &t, &mut r1).expect("plain");
    let plan = FaultProfile::Baseline.plan(5, SimTime::from_nanos(1), 2, NUM_TEMPLATES);
    let retry = RetryPolicy::default();
    let mut r2 = LeastLoadedRouter;
    let chaos = ClusterSim::run_with_faults(config(2), &t, &mut r2, &plan, &retry).expect("chaos");
    assert_eq!(plain.outcomes, chaos.outcomes);
    assert_eq!(plain.steps_per_worker, chaos.steps_per_worker);
}

#[test]
fn mask_aware_router_composes_with_fault_injection() {
    // Algorithm 2 plugs into the same health-aware wrapper as the
    // baseline policies: random fault plans must preserve conservation
    // and determinism with the mask-aware scheduler routing.
    let t = trace(0.8, 60.0, 6);
    let n = t.len();
    let horizon = SimTime::from_nanos(90_000_000_000);
    let retry = RetryPolicy::default();
    let cfg = config(3);
    for plan_seed in [11u64, 12, 13] {
        let plan = FaultPlan::random(plan_seed, horizon, 3, NUM_TEMPLATES);
        let mut router = MaskAwareRouter::new(cfg.cost.clone()).expect("router");
        let report =
            ClusterSim::run_with_faults(cfg.clone(), &t, &mut router, &plan, &retry).expect("run");
        assert_eq!(
            report.outcomes.len() + report.rejected.len(),
            n,
            "seed {plan_seed}: requests vanished"
        );
        let mut router2 = MaskAwareRouter::new(cfg.cost.clone()).expect("router");
        let replay = ClusterSim::run_with_faults(cfg.clone(), &t, &mut router2, &plan, &retry)
            .expect("replay");
        assert_eq!(report.outcomes, replay.outcomes, "seed {plan_seed}");
    }
}

fn chaos_server(chaos_panic_seed: Option<u64>) -> ThreadedServer {
    let cfg = ModelConfig::tiny();
    let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
    for id in 0..3u64 {
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), id);
        sys.register_template(id, &img).unwrap();
    }
    ThreadedServer::start(
        sys,
        ServerConfig {
            workers: 2,
            max_batch: 3,
            chaos_panic_seed,
            ..ServerConfig::default()
        },
    )
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
fn threaded_server_survives_mid_batch_worker_panic() {
    let poisoned_seed = 424_242;
    let server = chaos_server(Some(poisoned_seed));
    let mut tickets: Vec<Ticket> = Vec::new();
    for i in 0..9u64 {
        let seed = if i == 4 { poisoned_seed } else { i };
        tickets.push(server.submit(job(i % 3, seed)).unwrap());
    }
    for t in tickets {
        let r = t.wait().expect("every job survives the panic via requeue");
        assert!(r.output.image.data().iter().all(|v| v.is_finite()));
    }
    server.shutdown();
}

#[test]
fn threaded_server_panic_result_matches_clean_run() {
    // Crash recovery must not change outputs: the requeued job's
    // result equals the one from an unfaulted server.
    let poisoned_seed = 99;
    let clean = chaos_server(None);
    let want = clean.submit(job(0, poisoned_seed)).unwrap().wait().unwrap();
    clean.shutdown();

    let server = chaos_server(Some(poisoned_seed));
    let got = server
        .submit(job(0, poisoned_seed))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(want.output.image, got.output.image);
    server.shutdown();
}

#[test]
fn exhausted_attempts_surface_as_explicit_errors() {
    let cfg = ModelConfig::tiny();
    let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
    let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
    sys.register_template(0, &img).unwrap();
    let server = ThreadedServer::start(
        sys,
        ServerConfig {
            workers: 1,
            max_batch: 1,
            max_job_attempts: 1,
            chaos_panic_seed: Some(5),
            ..ServerConfig::default()
        },
    );
    let ticket = server.submit(job(0, 5)).unwrap();
    assert!(matches!(ticket.wait(), Err(FlashPsError::WorkerPanicked)));
    server.shutdown();
}
