//! The discrete-event cluster simulator.
//!
//! Drives a request trace through a set of workers under a routing
//! policy, an engine, and a batching policy, and records per-request
//! latency breakdowns. This is the machinery behind the end-to-end
//! serving experiments (Fig. 12), the batching comparison (Fig. 16-
//! left, Fig. 4-middle), and the load-balancing comparison (Fig. 16-
//! right, Fig. 4-right).
//!
//! [`ClusterSim::run_with_faults`] additionally replays a
//! deterministic [`FaultPlan`]: worker crashes requeue their in-flight
//! batch under a bounded [`RetryPolicy`], slowdowns stretch step
//! latencies, cache loss/corruption triggers full-recompute fallback,
//! and dropped requests back off and retry. Every request either
//! completes or is explicitly rejected — never silently lost.

use fps_chaos::{FaultKind, FaultPlan, RetryPolicy};
use fps_json::Json;
use fps_maskcache::store::{HierarchicalStore, StoreConfig};
use fps_maskcache::VerifiedFetch;
use fps_metrics::{percentile, DegradationReport, SloLedger, SloReport};
use fps_overload::{Rung, TimeSource};
use fps_simtime::{EventHandler, EventQueue, SimDuration, SimTime, Simulation};
use fps_trace::{Clock, TraceSink, Track};
use fps_workload::Trace;

use crate::control::{Assessment, ControlPlane, Decision};
use crate::cost::{BatchItem, CostModel};
use crate::engine::EngineKind;
use crate::error::ServingError;
use crate::overload::{rung_engine, OverloadConfig, OverloadState};
use crate::request::{Phase, RejectReason, RejectedRequest, RequestOutcome, SimRequest};
use crate::router::{Router, WorkerView};
use crate::worker::{
    BatchingPolicy, CpuTask, OutstandingReq, WorkerConfig, WorkerHealth, WorkerState,
};
use crate::Result;

/// Simulation events.
///
/// Completion events are stamped with the scheduling worker's `epoch`
/// (and the request's `attempt`): a crash bumps both, so completions
/// belonging to a dead incarnation or a superseded attempt are
/// discarded instead of corrupting the new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A request arrives at the scheduler (also used for retries and
    /// parked re-dispatch).
    Arrival(usize),
    /// A request's preprocessing lands on a naive-CB engine process.
    PreQueued {
        worker: usize,
        req: usize,
        attempt: u32,
    },
    /// A request is preprocessed and cache-ready on a worker.
    Ready {
        worker: usize,
        req: usize,
        attempt: u32,
    },
    /// A denoising step completed.
    StepDone { worker: usize, epoch: u64 },
    /// The engine process finished a burst of CPU tasks (naive CB).
    CpuDone { worker: usize, epoch: u64 },
    /// Postprocessing of a request completed.
    PostDone {
        worker: usize,
        req: usize,
        attempt: u32,
    },
    /// The fault plan's event at this index fires.
    Fault(usize),
    /// A crashed worker rejoins the cluster.
    WorkerRestart { worker: usize },
    /// A transient slowdown ends (stale tokens are ignored).
    SlowdownEnd { worker: usize, token: u64 },
    /// A disk degradation window ends (stale tokens are ignored).
    DiskRestore { token: u64 },
}

/// Cluster-level configuration of a serving experiment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Cost model (GPU + analytic model).
    pub cost: CostModel,
    /// Engine on every worker.
    pub engine: EngineKind,
    /// Batching policy on every worker.
    pub batching: BatchingPolicy,
    /// Number of worker replicas (one GPU each).
    pub workers: usize,
    /// Requested maximum batch size per worker.
    pub max_batch: usize,
    /// CPU pool size per worker for disaggregated pre/post.
    pub cpu_workers: usize,
    /// Hierarchical store configuration (used by cache-consuming
    /// engines).
    pub store: StoreConfig,
    /// Scheduler decision overhead per request (0.6 ms, §6.6).
    pub scheduler_overhead: SimDuration,
    /// Overload control (admission, degradation ladder, cache-read
    /// circuit breaker). `None` admits everything and serves it at the
    /// configured engine, exactly as before.
    pub overload: Option<OverloadConfig>,
    /// Record the control plane's decision sequence in
    /// [`RunReport::decisions`] (off by default; used by the
    /// sim-vs-real decision-parity tests).
    pub record_decisions: bool,
    /// Structured-tracing sink. All simulator records carry **virtual**
    /// timestamps (`SimTime` nanoseconds); a wall-clock sink is
    /// rejected at run start. The default disabled sink records
    /// nothing and costs one branch per instrumentation point.
    pub trace: TraceSink,
}

impl ClusterConfig {
    /// A FlashPS-default cluster for the given cost model.
    pub fn flashps_default(cost: CostModel, workers: usize) -> Self {
        Self {
            cost,
            engine: EngineKind::FlashPs { kv: false },
            batching: BatchingPolicy::ContinuousDisaggregated,
            workers,
            max_batch: 8,
            cpu_workers: 4,
            store: StoreConfig::production_like(),
            scheduler_overhead: SimDuration::from_micros(600),
            overload: None,
            record_decisions: false,
            trace: TraceSink::disabled(),
        }
    }

    /// The FlashPS default with overload control enabled: the premium
    /// FlashPS-kv engine as rung 0 and an overload config derived from
    /// the cluster shape at the given SLO deadline. `mask_ratio` is
    /// the typical mask ratio of the offered load.
    pub fn with_overload_control(
        cost: CostModel,
        workers: usize,
        mask_ratio: f64,
        deadline: SimDuration,
    ) -> Self {
        let mut cfg = Self::flashps_default(cost, workers);
        cfg.engine = EngineKind::FlashPs { kv: true };
        cfg.overload = Some(OverloadConfig::for_cluster(
            &cfg.cost,
            workers,
            cfg.max_batch,
            mask_ratio,
            deadline,
        ));
        cfg
    }
}

/// Results of one cluster run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-request outcomes, in completion order: the one per-request
    /// record every latency statistic below is a view over.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual time when the last request completed.
    pub makespan_secs: f64,
    /// Served requests per second of virtual time.
    pub throughput_rps: f64,
    /// Steps executed per worker.
    pub steps_per_worker: Vec<u64>,
    /// GPU busy fraction per worker.
    pub utilization: Vec<f64>,
    /// Activation-store behaviour over the run (hits, prefetches,
    /// evictions, fallbacks).
    pub store_stats: fps_maskcache::store::StoreStats,
    /// Explicitly rejected requests (deadline or retry budget).
    pub rejected: Vec<RejectedRequest>,
    /// Retries consumed across all requests.
    pub total_retries: u64,
    /// Completed requests that were served via full-recompute fallback.
    pub fallback_serves: u64,
    /// Crashes suffered per worker.
    pub crashes_per_worker: Vec<u64>,
    /// Requests shed at admission (subset of `rejected`).
    pub shed: u64,
    /// Times the cache-read circuit breaker tripped to Open.
    pub breaker_trips: u64,
    /// The control plane's decision sequence (empty unless
    /// [`ClusterConfig::record_decisions`] was set).
    pub decisions: Vec<Decision>,
}

impl RunReport {
    /// Mean of one per-request field over the served requests (NaN
    /// when none was served).
    fn mean(&self, field: impl Fn(&RequestOutcome) -> f64) -> f64 {
        self.outcomes.iter().map(field).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Mean end-to-end latency in seconds (NaN when empty).
    pub fn mean_latency(&self) -> f64 {
        self.mean(|o| o.total)
    }

    /// Nearest-rank P95 end-to-end latency in seconds (NaN when empty).
    pub fn p95_latency(&self) -> f64 {
        let totals: Vec<f64> = self.outcomes.iter().map(|o| o.total).collect();
        percentile(&totals, 0.95).unwrap_or(f64::NAN)
    }

    /// Mean queueing seconds (NaN when empty).
    pub fn mean_queueing(&self) -> f64 {
        self.mean(|o| o.queueing)
    }

    /// Fraction of completed requests served via fallback recompute.
    pub fn fallback_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.fallback_serves as f64 / self.outcomes.len() as f64
        }
    }

    /// The run's resilience accounting under fault profile `profile`,
    /// out of `submitted` requests offered.
    pub fn degradation(&self, profile: &str, submitted: u64) -> DegradationReport {
        DegradationReport {
            profile: profile.to_string(),
            submitted,
            served: self.outcomes.len() as u64,
            rejected: self.rejected.len() as u64 - self.shed,
            shed: self.shed,
            goodput_rps: self.throughput_rps,
            mean_latency_secs: self.mean_latency(),
            p95_latency_secs: self.p95_latency(),
            retries: self.total_retries,
            fallback_serves: self.fallback_serves,
            fallback_rate: self.fallback_rate(),
            crashes: self.crashes_per_worker.iter().sum(),
        }
    }

    /// The run's SLO attainment under `deadline_secs`, from the same
    /// [`SloLedger`] the fleet and stage-graph simulators fill: every
    /// outcome is served at its end-to-end latency and rung, every
    /// rejection is tallied by reason, and goodput is over the makespan.
    /// The p95 of a run that served anything is
    /// [`RunReport::p95_latency`]: with every sample at hand there is no
    /// need for the ledger's bucketed estimate, which tops out at four
    /// deadlines.
    pub fn slo_report(&self, label: &str, deadline_secs: f64) -> SloReport {
        let mut ledger = SloLedger::new(deadline_secs);
        ledger.submitted = (self.outcomes.len() + self.rejected.len()) as u64;
        for o in &self.outcomes {
            ledger.serve(SimDuration::from_secs_f64(o.total), o.rung.map(Rung::label));
            ledger.record_queue_wait(o.queueing);
        }
        for r in &self.rejected {
            match r.reason {
                RejectReason::Shed(_) => ledger.shed += 1,
                RejectReason::DeadlineExceeded => ledger.deadline_rejected += 1,
                RejectReason::RetriesExhausted => ledger.other_rejected += 1,
            }
        }
        let mut report = ledger.report(label, self.makespan_secs);
        if !self.outcomes.is_empty() {
            report.p95_latency_secs = self.p95_latency();
        }
        report
    }
}

/// The simulator world.
pub struct ClusterSim<'r> {
    config: ClusterConfig,
    workers: Vec<WorkerState>,
    requests: Vec<SimRequest>,
    /// Outstanding request indices per worker (routed, not yet done
    /// denoising) — the router's load signal.
    outstanding: Vec<Vec<usize>>,
    store: HierarchicalStore,
    /// The shared policy pipeline (admission, ladder, breaker,
    /// routing). The simulator is one of its two execution planes; the
    /// threaded server in fps-core is the other.
    plane: ControlPlane<&'r mut dyn Router>,
    /// Reused worker-view buffer for routing calls, so a route is
    /// allocation-light in steady state.
    views_scratch: Vec<WorkerView>,
    plan: &'r FaultPlan,
    retry: &'r RetryPolicy,
    /// Whether any fault machinery is active (verified reads etc.).
    chaos: bool,
    /// Denoising steps per request (for retry resets).
    steps: usize,
    /// Requests that arrived while every worker was down; re-dispatched
    /// on the next restart without consuming a retry.
    parked: Vec<usize>,
    /// Per-worker slowdown token; bumped on crash or a newer slowdown.
    slow_tokens: Vec<u64>,
    /// Disk degradation token; bumped on every new degradation window.
    disk_token: u64,
    rejected: Vec<RejectedRequest>,
    total_retries: u64,
}

impl<'r> ClusterSim<'r> {
    /// Runs a trace through the cluster and reports outcomes, with no
    /// fault injection.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] for zero workers and
    /// [`ServingError::BadRoute`] if the router misbehaves.
    pub fn run(config: ClusterConfig, trace: &Trace, router: &mut dyn Router) -> Result<RunReport> {
        let plan = FaultPlan::none();
        let retry = RetryPolicy::no_retries();
        ClusterSim::run_with_faults(config, trace, router, &plan, &retry)
    }

    /// Runs a trace through the cluster while replaying a deterministic
    /// fault plan under a bounded retry policy.
    ///
    /// The routing policy is wrapped in a
    /// [`HealthAwareRouter`](crate::router::HealthAwareRouter), so
    /// down workers take no new traffic; their in-flight requests are
    /// requeued (or explicitly rejected once the retry budget or
    /// deadline runs out).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] for zero workers or a
    /// plan referencing workers outside the cluster.
    pub fn run_with_faults(
        config: ClusterConfig,
        trace: &Trace,
        router: &'r mut dyn Router,
        plan: &'r FaultPlan,
        retry: &'r RetryPolicy,
    ) -> Result<RunReport> {
        if config.workers == 0 {
            return Err(ServingError::InvalidConfig {
                reason: "cluster needs at least one worker".into(),
            });
        }
        if let Err(reason) = plan.validate(config.workers) {
            return Err(ServingError::InvalidConfig { reason });
        }
        // The simulator runs on virtual time; accepting a wall-clock
        // sink would let `Instant`-derived and `SimTime`-derived
        // nanoseconds mix in one trace.
        if config.trace.clock() == Some(Clock::Wall) {
            return Err(ServingError::InvalidConfig {
                reason: "ClusterSim requires a virtual-clock TraceSink \
                         (TraceSink::recording(Clock::Virtual)); wall-clock timestamps must \
                         never mix with simulator time in one trace"
                    .into(),
            });
        }
        if config.trace.is_enabled() {
            config.trace.name_track(Track::new(0, 0), "scheduler");
            for w in 0..config.workers {
                config
                    .trace
                    .name_track(Track::new(w as u32 + 1, 0), format!("worker{w} gpu"));
            }
        }
        let steps = config.cost.model.steps;
        let worker_cfg = WorkerConfig {
            engine: config.engine,
            batching: config.batching,
            max_batch: config.max_batch,
            cpu_workers: config.cpu_workers,
        };
        let workers: Vec<WorkerState> = (0..config.workers)
            .map(|i| WorkerState::new(i, worker_cfg.clone()))
            .collect();
        let requests: Vec<SimRequest> = trace
            .requests
            .iter()
            .map(|r| SimRequest::new(r.clone(), steps))
            .collect();

        // Pre-populate the activation store with every template the
        // trace touches (templates are primed offline, §2.2). Template
        // caches cover all tokens (mask ratio 0 sizing).
        let mut store = HierarchicalStore::new(config.store);
        if config.trace.is_enabled() {
            // Disk-stream spans go on a dedicated process row past the
            // worker rows.
            store.set_trace(
                config.trace.clone(),
                Track::new(config.workers as u32 + 1, 0),
            );
        }
        if config.engine.uses_cache() {
            let bytes = config.cost.model.cache_bytes_total(0.0);
            let mut seen = std::collections::HashSet::new();
            for r in &trace.requests {
                if seen.insert(r.template_id) {
                    // Oversized templates are silently capped to the
                    // host budget; the store rejects only pathological
                    // configs.
                    let b = bytes.min(config.store.host_capacity);
                    let _ = store.insert(r.template_id, b, SimTime::ZERO, None);
                }
            }
        }

        // Pressure and admission estimates are sized to the offered
        // load's typical mask ratio.
        let overload = config.overload.clone().map(|ov| {
            let n = trace.requests.len();
            let mean_ratio = if n == 0 {
                0.2
            } else {
                trace.requests.iter().map(|r| r.mask_ratio).sum::<f64>() / n as f64
            };
            OverloadState::new(ov, &config.cost, config.max_batch, mean_ratio)
        });

        let outstanding = vec![Vec::new(); config.workers];
        let mut sim = Simulation::new();
        for (i, r) in requests.iter().enumerate() {
            sim.queue_mut()
                .schedule_at(r.spec.arrival(), Ev::Arrival(i));
        }
        for (i, e) in plan.events.iter().enumerate() {
            sim.queue_mut().schedule_at(e.at, Ev::Fault(i));
        }
        let num_workers = config.workers;
        // All policy decisions go through the shared control plane;
        // the simulator supplies virtual-time stamps explicitly.
        let plane = ControlPlane::new(
            router as &'r mut dyn Router,
            TimeSource::virtual_clock(),
            steps,
        )
        .with_overload(overload)
        .record_decisions(config.record_decisions)
        .with_trace(config.trace.clone());
        let mut world = ClusterSim {
            config,
            workers,
            requests,
            outstanding,
            store,
            plane,
            views_scratch: Vec::new(),
            plan,
            retry,
            chaos: !plan.is_trivial(),
            steps,
            parked: Vec::new(),
            slow_tokens: vec![0; num_workers],
            disk_token: 0,
            rejected: Vec::new(),
            total_retries: 0,
        };
        sim.run(&mut world);

        // Collect the report.
        let mut outcomes = Vec::new();
        let mut makespan = 0.0f64;
        for (lane, r) in world.requests.iter().enumerate() {
            if let Some(o) = r.outcome() {
                if world.config.trace.is_enabled() {
                    emit_request_spans(&world.config.trace, lane as u32, r);
                }
                makespan = makespan.max(r.completed_at.map(|t| t.as_secs_f64()).unwrap_or(0.0));
                outcomes.push(o);
            }
        }
        let served = outcomes.len();
        let throughput = if makespan > 0.0 {
            served as f64 / makespan
        } else {
            0.0
        };
        let fallback_serves = outcomes.iter().filter(|o| o.fallback).count() as u64;
        let end = sim.now();
        let store_stats = world.store.stats();
        let shed = world.rejected.iter().filter(|r| r.reason.is_shed()).count() as u64;
        let breaker_trips = world
            .plane
            .overload()
            .map(|o| o.breaker.trips())
            .unwrap_or(0);
        Ok(RunReport {
            outcomes,
            makespan_secs: makespan,
            throughput_rps: throughput,
            steps_per_worker: world.workers.iter().map(|w| w.steps_executed).collect(),
            utilization: world
                .workers
                .iter()
                .map(|w| {
                    let elapsed = end.as_secs_f64();
                    if elapsed > 0.0 {
                        (w.busy_secs / elapsed).min(1.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
            store_stats,
            rejected: world.rejected,
            total_retries: world.total_retries,
            fallback_serves,
            crashes_per_worker: world.workers.iter().map(|w| w.crashes).collect(),
            shed,
            breaker_trips,
            decisions: world.plane.decisions().to_vec(),
        })
    }

    /// Engine a request is served with: its degradation rung's engine
    /// under overload control, the configured engine otherwise.
    fn engine_for(&self, req: usize) -> EngineKind {
        match self.requests[req].rung {
            Some(r) => rung_engine(r),
            None => self.config.engine,
        }
    }

    /// Outstanding work across the cluster plus currently parked
    /// requests — the backlog the admission and pressure estimates see.
    fn backlog(&self) -> usize {
        self.outstanding.iter().map(Vec::len).sum::<usize>() + self.parked.len()
    }

    /// Concurrent service slots currently available (healthy or
    /// degraded workers × batch size).
    fn live_capacity(&self) -> usize {
        let available = self
            .workers
            .iter()
            .filter(|w| w.health.is_available())
            .count();
        available * self.config.max_batch.max(1)
    }

    /// Refreshes the reusable worker-view buffer in place: the outer
    /// vec and every view's `outstanding` vec keep their allocations
    /// across routing calls.
    fn fill_views(&self, views: &mut Vec<WorkerView>) {
        views.truncate(self.workers.len());
        while views.len() < self.workers.len() {
            views.push(WorkerView {
                id: 0,
                outstanding: Vec::new(),
                max_batch: 0,
                model_tokens: 0,
                health: WorkerHealth::Healthy,
            });
        }
        for (v, w) in views.iter_mut().zip(self.workers.iter()) {
            v.id = w.id;
            v.max_batch = w.config.effective_max_batch();
            v.model_tokens = self.config.cost.model.tokens();
            v.health = w.health;
            v.outstanding.clear();
            v.outstanding
                .extend(self.outstanding[w.id].iter().map(|&i| OutstandingReq {
                    mask_ratio: self.requests[i].spec.mask_ratio,
                    steps_left: self.requests[i].steps_left,
                }));
        }
    }

    fn handle_arrival(&mut self, now: SimTime, req: usize, q: &mut EventQueue<Ev>) {
        if self.requests[req].rejected.is_some() || self.requests[req].phase == Phase::Done {
            return;
        }
        if self.plane.overload_enabled() {
            let backlog = self.backlog();
            let capacity = self.live_capacity();
            // Admission runs once, at first submission; retries and
            // parked re-dispatches have already paid for their slot
            // but are re-assessed by the ladder at the pressure
            // prevailing when they re-enter.
            let already = self.requests[req].admitted;
            let id = self.requests[req].spec.id;
            match self.plane.assess(id, now, backlog, capacity, already) {
                Assessment::Shed(cause) => {
                    self.reject(req, now, RejectReason::Shed(cause));
                    return;
                }
                Assessment::Serve { rung, steps } => {
                    self.requests[req].admitted = true;
                    self.requests[req].rung = rung;
                    self.requests[req].steps_left = steps;
                }
            }
        }
        if self.chaos {
            let arrival = self.requests[req].spec.arrival();
            if self.retry.past_deadline(arrival, now) {
                self.reject(req, now, RejectReason::DeadlineExceeded);
                return;
            }
            // The transit drop coin rerolls per attempt.
            let attempt = self.requests[req].retries;
            if self.plan.drops_request(self.requests[req].spec.id, attempt) {
                self.retry_or_reject(req, now, q);
                return;
            }
        }

        let mut views = std::mem::take(&mut self.views_scratch);
        self.fill_views(&mut views);
        let id = self.requests[req].spec.id;
        let w = self.plane.route(id, &self.requests[req].spec, &views, now);
        self.views_scratch = views;
        // A misrouted request falls back to worker 0 rather than
        // wedging the run; tests assert on router behaviour directly.
        let w = if w < self.workers.len() { w } else { 0 };
        if !self.workers[w].health.is_available() {
            // Every worker is down (the health-aware wrapper never
            // picks a down worker otherwise). Park until a restart;
            // parking does not consume a retry.
            self.parked.push(req);
            return;
        }
        self.requests[req].worker = w;
        self.workers[w].total_assigned += 1;
        self.outstanding[w].push(req);

        let t0 = now + self.config.scheduler_overhead;
        let cache_ready = if self.engine_for(req).uses_cache() {
            let template = self.requests[req].spec.template_id;
            self.requests[req].cache_fetch_started_at = Some(t0);
            let stats_before = self.store.stats();
            let fetched = if let Some(breaker) = self.plane.breaker_mut() {
                // Breaker-guarded read: stateful protection replaces
                // the per-read fallback — while Open, the read
                // short-circuits to recompute with no disk I/O.
                self.store.fetch_guarded(breaker, template, t0)
            } else if self.chaos {
                // Verified read: a lost or corrupt template falls back
                // to full recompute instead of failing the request.
                self.store.fetch_verified(template, t0)
            } else {
                // Prefetch starts at arrival and overlaps queueing.
                VerifiedFetch::Intact(self.store.fetch(template, t0).unwrap_or(t0))
            };
            // Classify where the bytes came from for tracing; the
            // store already counted the read, so diffing its stats
            // keeps the span payload purely observational.
            let stats_after = self.store.stats();
            self.requests[req].cache_fetch_source =
                Some(if stats_after.host_hits > stats_before.host_hits {
                    "host"
                } else if stats_after.disk_hits > stats_before.disk_hits {
                    "disk"
                } else {
                    "none"
                });
            match fetched {
                VerifiedFetch::Intact(ready) => ready,
                VerifiedFetch::Fallback(reason) => {
                    self.requests[req].cache_fetch_source = Some("none");
                    self.requests[req].fallback = true;
                    if self.config.trace.is_enabled() {
                        self.config.trace.event_at(
                            "cache_fallback",
                            "cache",
                            Track::new(0, 0),
                            t0.as_nanos(),
                            vec![
                                ("template", Json::U64(template)),
                                ("reason", Json::Str(reason.label().into())),
                            ],
                        );
                    }
                    t0
                }
            }
        } else {
            t0
        };
        self.requests[req].cache_ready_at = cache_ready;

        let attempt = self.requests[req].retries;
        match self.config.batching {
            BatchingPolicy::ContinuousNaive => {
                // Preprocessing runs on the engine process.
                q.schedule_at(
                    t0,
                    Ev::PreQueued {
                        worker: w,
                        req,
                        attempt,
                    },
                );
            }
            _ => {
                // Preprocessing runs on the CPU pool.
                let pre = self.config.cost.cpu.preprocess;
                let (_, done) = self.workers[w].cpu_pool.acquire(t0, pre);
                self.requests[req].processing_secs += pre.as_secs_f64();
                let ready_at = done.max(cache_ready);
                q.schedule_at(
                    ready_at,
                    Ev::Ready {
                        worker: w,
                        req,
                        attempt,
                    },
                );
            }
        }
    }

    /// Explicitly rejects a request — it leaves the system with a
    /// recorded reason, never silently.
    fn reject(&mut self, req: usize, now: SimTime, reason: RejectReason) {
        if self.requests[req].rejected.is_some() {
            return;
        }
        if self.config.trace.is_enabled() {
            self.config.trace.event_at(
                "reject",
                "overload",
                Track::new(0, 0),
                now.as_nanos(),
                vec![
                    ("id", Json::U64(self.requests[req].spec.id)),
                    ("reason", Json::Str(reason.label().into())),
                ],
            );
        }
        self.scrub(req);
        self.requests[req].rejected = Some(reason);
        self.requests[req].phase = Phase::Done;
        self.rejected.push(RejectedRequest {
            id: self.requests[req].spec.id,
            reason,
            retries: self.requests[req].retries,
        });
    }

    /// Removes a request from every queue it might sit in (idempotent).
    fn scrub(&mut self, req: usize) {
        let w = self.requests[req].worker;
        if w < self.workers.len() {
            if let Some(pos) = self.outstanding[w].iter().position(|&x| x == req) {
                self.outstanding[w].swap_remove(pos);
            }
            self.workers[w].running.retain(|&x| x != req);
            self.workers[w].ready.retain(|&x| x != req);
            self.workers[w]
                .pending_cpu
                .retain(|t| !matches!(*t, CpuTask::Pre(i) | CpuTask::Post(i) if i == req));
        }
    }

    /// Gives a failed attempt another try under the retry policy, or
    /// rejects the request when the budget or deadline is exhausted.
    fn retry_or_reject(&mut self, req: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let arrival = self.requests[req].spec.arrival();
        if self.retry.past_deadline(arrival, now) {
            self.reject(req, now, RejectReason::DeadlineExceeded);
            return;
        }
        if self.requests[req].retries >= self.retry.max_retries {
            self.reject(req, now, RejectReason::RetriesExhausted);
            return;
        }
        self.scrub(req);
        self.requests[req].retries += 1;
        self.total_retries += 1;
        self.requests[req].reset_for_retry(self.steps);
        let delay = self.retry.backoff(self.requests[req].retries);
        q.schedule_at(now + delay, Ev::Arrival(req));
    }

    fn kick(&mut self, w: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        if self.workers[w].busy || self.workers[w].health == WorkerHealth::Down {
            return;
        }
        // Naive CB: the engine process first drains CPU tasks,
        // stalling every inflight request.
        if !self.workers[w].pending_cpu.is_empty() {
            let mut cursor = now;
            let inflight: Vec<usize> = self.workers[w].running.clone();
            while let Some(task) = self.workers[w].pending_cpu.pop_front() {
                match task {
                    CpuTask::Pre(i) => {
                        cursor += self.config.cost.cpu.preprocess;
                        self.requests[i].processing_secs +=
                            self.config.cost.cpu.preprocess.as_secs_f64();
                        let ready_at = cursor.max(self.requests[i].cache_ready_at);
                        let attempt = self.requests[i].retries;
                        q.schedule_at(
                            ready_at,
                            Ev::Ready {
                                worker: w,
                                req: i,
                                attempt,
                            },
                        );
                    }
                    CpuTask::Post(i) => {
                        cursor += self.config.cost.cpu.postprocess;
                        self.requests[i].processing_secs +=
                            self.config.cost.cpu.postprocess.as_secs_f64();
                        let attempt = self.requests[i].retries;
                        q.schedule_at(
                            cursor,
                            Ev::PostDone {
                                worker: w,
                                req: i,
                                attempt,
                            },
                        );
                    }
                }
                for &r in &inflight {
                    self.requests[r].interruptions += 1;
                }
            }
            if cursor > now {
                self.workers[w].busy = true;
                let epoch = self.workers[w].epoch;
                q.schedule_at(cursor, Ev::CpuDone { worker: w, epoch });
                return;
            }
        }

        // Admission.
        let max_batch = self.workers[w].config.effective_max_batch();
        let continuous = self.config.batching.is_continuous();
        let can_admit = if continuous {
            self.workers[w].running.len() < max_batch
        } else {
            self.workers[w].running.is_empty()
        };
        // Under overload control, work whose SLO deadline elapsed in
        // the queue is shed at batch join instead of burning GPU time
        // on an answer nobody is waiting for.
        let slo = self.plane.slo_deadline();
        if can_admit {
            while self.workers[w].running.len() < max_batch {
                let Some(i) = self.workers[w].ready.pop_front() else {
                    break;
                };
                if let Some(deadline) = slo {
                    let arrival = self.requests[i].spec.arrival();
                    if now.since(arrival) > deadline {
                        self.reject(i, now, RejectReason::DeadlineExceeded);
                        continue;
                    }
                }
                self.requests[i].phase = Phase::Running;
                if self.requests[i].batch_joined_at.is_none() {
                    self.requests[i].batch_joined_at = Some(now);
                }
                self.workers[w].running.push(i);
            }
        }
        if self.workers[w].running.is_empty() {
            return;
        }

        // Execute one denoising step for the batch. A fallback request
        // lost its cached activations and recomputes all tokens.
        let item_for = |r: &SimRequest| BatchItem {
            mask_ratio: if r.fallback { 1.0 } else { r.spec.mask_ratio },
        };
        let mut lat = if self.plane.overload_enabled() {
            // A mixed-rung batch executes per-rung groups back to
            // back: heterogeneous engines cannot fuse into one kernel
            // launch. With a single rung this degenerates to the plain
            // whole-batch cost.
            let mut groups: Vec<(Option<Rung>, Vec<BatchItem>)> = Vec::new();
            for &i in &self.workers[w].running {
                let key = self.requests[i].rung;
                let item = item_for(&self.requests[i]);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, items)) => items.push(item),
                    None => groups.push((key, vec![item])),
                }
            }
            let mut lat = SimDuration::ZERO;
            for (key, items) in &groups {
                let engine = key.map(rung_engine).unwrap_or(self.config.engine);
                lat += engine.step_latency(&self.config.cost, items);
            }
            lat
        } else {
            let items: Vec<BatchItem> = self.workers[w]
                .running
                .iter()
                .map(|&i| item_for(&self.requests[i]))
                .collect();
            self.config.engine.step_latency(&self.config.cost, &items)
        };
        if continuous {
            lat += self.config.cost.cpu.batch_overhead;
        }
        if self.workers[w].slow_factor > 1.0 {
            lat = lat.mul_f64(self.workers[w].slow_factor);
        }
        self.workers[w].busy = true;
        self.workers[w].steps_executed += 1;
        self.workers[w].busy_secs += lat.as_secs_f64();
        let epoch = self.workers[w].epoch;
        if self.config.trace.is_enabled() {
            self.config.trace.span_at(
                "step",
                "gpu",
                Track::new(w as u32 + 1, 0),
                now.as_nanos(),
                (now + lat).as_nanos(),
                0,
                vec![("batch", Json::U64(self.workers[w].running.len() as u64))],
            );
        }
        q.schedule_at(now + lat, Ev::StepDone { worker: w, epoch });
    }

    fn handle_step_done(&mut self, now: SimTime, w: usize, q: &mut EventQueue<Ev>) {
        self.workers[w].busy = false;
        let mut finished = Vec::new();
        let running = std::mem::take(&mut self.workers[w].running);
        for i in running {
            self.requests[i].steps_left -= 1;
            if self.requests[i].steps_left == 0 {
                finished.push(i);
            } else {
                self.workers[w].running.push(i);
            }
        }
        for i in finished {
            self.requests[i].denoise_done_at = Some(now);
            self.requests[i].phase = Phase::Post;
            // Denoising load is gone: drop from the router's signal.
            if let Some(pos) = self.outstanding[w].iter().position(|&x| x == i) {
                self.outstanding[w].swap_remove(pos);
            }
            // A fallback recompute regenerated the template's
            // activations; re-insert so later requests hit again.
            if self.requests[i].fallback && self.engine_for(i).uses_cache() {
                let bytes = self
                    .config
                    .cost
                    .model
                    .cache_bytes_total(0.0)
                    .min(self.config.store.host_capacity);
                let _ = self
                    .store
                    .insert(self.requests[i].spec.template_id, bytes, now, None);
            }
            let attempt = self.requests[i].retries;
            match self.config.batching {
                BatchingPolicy::ContinuousNaive => {
                    self.workers[w].pending_cpu.push_back(CpuTask::Post(i));
                }
                BatchingPolicy::ContinuousDisaggregated => {
                    let start = now + self.config.cost.cpu.disagg_handoff;
                    let post = self.config.cost.cpu.postprocess;
                    let (_, done) = self.workers[w].cpu_pool.acquire(start, post);
                    self.requests[i].processing_secs +=
                        post.as_secs_f64() + self.config.cost.cpu.disagg_handoff.as_secs_f64();
                    q.schedule_at(
                        done,
                        Ev::PostDone {
                            worker: w,
                            req: i,
                            attempt,
                        },
                    );
                }
                BatchingPolicy::Static => {
                    let post = self.config.cost.cpu.postprocess;
                    let (_, done) = self.workers[w].cpu_pool.acquire(now, post);
                    self.requests[i].processing_secs += post.as_secs_f64();
                    q.schedule_at(
                        done,
                        Ev::PostDone {
                            worker: w,
                            req: i,
                            attempt,
                        },
                    );
                }
            }
        }
        self.kick(w, now, q);
    }

    /// Applies the plan's fault at index `idx`.
    fn handle_fault(&mut self, now: SimTime, idx: usize, q: &mut EventQueue<Ev>) {
        let event = self.plan.events[idx];
        match event.kind {
            FaultKind::WorkerCrash { worker, downtime } => {
                self.crash_worker(worker, downtime, now, q);
            }
            FaultKind::WorkerSlowdown {
                worker,
                factor,
                duration,
            } => {
                if self.workers[worker].health == WorkerHealth::Down {
                    return;
                }
                self.workers[worker].health = WorkerHealth::Degraded;
                self.workers[worker].slow_factor = factor.max(1.0);
                self.slow_tokens[worker] += 1;
                let token = self.slow_tokens[worker];
                q.schedule_at(now + duration, Ev::SlowdownEnd { worker, token });
            }
            FaultKind::DiskDegrade { factor, duration } => {
                self.store.set_disk_degradation(factor);
                self.disk_token += 1;
                let token = self.disk_token;
                q.schedule_at(now + duration, Ev::DiskRestore { token });
            }
            FaultKind::CacheLoss { template_id } => {
                self.store.invalidate(template_id);
            }
            FaultKind::CacheCorrupt { template_id } => {
                self.store.corrupt(template_id);
            }
        }
    }

    /// Kills a worker: its in-flight batch, queues and pending CPU work
    /// are lost; every affected request is retried or rejected.
    fn crash_worker(
        &mut self,
        w: usize,
        downtime: SimDuration,
        now: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        if self.workers[w].health == WorkerHealth::Down {
            return;
        }
        self.workers[w].health = WorkerHealth::Down;
        self.workers[w].epoch += 1;
        self.workers[w].crashes += 1;
        self.workers[w].busy = false;
        self.workers[w].slow_factor = 1.0;
        self.slow_tokens[w] += 1;

        // Victims: everything routed here and not yet done denoising,
        // plus naive-CB postprocessing queued on the dead engine
        // process. Disaggregated/static post runs on the CPU pool and
        // survives the GPU crash.
        let mut victims = std::mem::take(&mut self.outstanding[w]);
        for task in self.workers[w].pending_cpu.iter() {
            if let CpuTask::Post(i) = *task {
                victims.push(i);
            }
        }
        victims.sort_unstable();
        victims.dedup();
        self.workers[w].running.clear();
        self.workers[w].ready.clear();
        self.workers[w].pending_cpu.clear();
        for i in victims {
            if self.requests[i].phase == Phase::Done || self.requests[i].rejected.is_some() {
                continue;
            }
            self.retry_or_reject(i, now, q);
        }
        q.schedule_at(now + downtime, Ev::WorkerRestart { worker: w });
    }

    /// Brings a crashed worker back (cold) and re-dispatches parked
    /// requests.
    fn handle_restart(&mut self, now: SimTime, w: usize, q: &mut EventQueue<Ev>) {
        self.workers[w].health = WorkerHealth::Healthy;
        self.workers[w].slow_factor = 1.0;
        self.workers[w].busy = false;
        for req in std::mem::take(&mut self.parked) {
            q.schedule_at(now, Ev::Arrival(req));
        }
    }
}

impl<'r> EventHandler<Ev> for ClusterSim<'r> {
    fn handle(&mut self, now: SimTime, event: Ev, q: &mut EventQueue<Ev>) {
        // An event carrying a request's attempt number is stale when
        // the request has since been requeued (crash/drop) — the new
        // attempt owns the request now.
        let stale = |requests: &[SimRequest], req: usize, attempt: u32| {
            requests[req].retries != attempt || requests[req].rejected.is_some()
        };
        match event {
            Ev::Arrival(i) => self.handle_arrival(now, i, q),
            Ev::PreQueued {
                worker,
                req,
                attempt,
            } => {
                if stale(&self.requests, req, attempt) {
                    return;
                }
                if self.workers[worker].health == WorkerHealth::Down {
                    self.retry_or_reject(req, now, q);
                    return;
                }
                self.workers[worker]
                    .pending_cpu
                    .push_back(CpuTask::Pre(req));
                self.kick(worker, now, q);
            }
            Ev::Ready {
                worker,
                req,
                attempt,
            } => {
                if stale(&self.requests, req, attempt) {
                    return;
                }
                if self.workers[worker].health == WorkerHealth::Down {
                    self.retry_or_reject(req, now, q);
                    return;
                }
                self.requests[req].phase = Phase::Ready;
                self.workers[worker].ready.push_back(req);
                self.kick(worker, now, q);
            }
            Ev::StepDone { worker, epoch } => {
                if self.workers[worker].epoch != epoch {
                    return; // Completion from a dead incarnation.
                }
                self.handle_step_done(now, worker, q);
            }
            Ev::CpuDone { worker, epoch } => {
                if self.workers[worker].epoch != epoch {
                    return;
                }
                self.workers[worker].busy = false;
                self.kick(worker, now, q);
            }
            Ev::PostDone {
                worker: _,
                req,
                attempt,
            } => {
                if stale(&self.requests, req, attempt) {
                    return;
                }
                self.requests[req].phase = Phase::Done;
                self.requests[req].completed_at = Some(now);
            }
            Ev::Fault(idx) => self.handle_fault(now, idx, q),
            Ev::WorkerRestart { worker } => self.handle_restart(now, worker, q),
            Ev::SlowdownEnd { worker, token } => {
                if self.slow_tokens[worker] == token
                    && self.workers[worker].health == WorkerHealth::Degraded
                {
                    self.workers[worker].health = WorkerHealth::Healthy;
                    self.workers[worker].slow_factor = 1.0;
                }
            }
            Ev::DiskRestore { token } => {
                if self.disk_token == token {
                    self.store.set_disk_degradation(1.0);
                }
            }
        }
    }
}

/// Emits the span tree of one completed request from its recorded
/// virtual timestamps: a `request` root on the scheduler process (one
/// lane per request) with `queue` / `cache_fetch` / `denoise` /
/// `postprocess` children. Runs after the simulation, so emission
/// order — and therefore the drained trace — is deterministic.
fn emit_request_spans(sink: &TraceSink, lane: u32, r: &SimRequest) {
    let (Some(joined), Some(denoised), Some(completed)) =
        (r.batch_joined_at, r.denoise_done_at, r.completed_at)
    else {
        return;
    };
    let arrival = r.spec.arrival();
    let t = Track::new(0, lane + 1);
    let mut args = vec![
        ("id", Json::U64(r.spec.id)),
        ("worker", Json::U64(r.worker as u64)),
        ("mask_ratio", Json::F64(r.spec.mask_ratio)),
        ("retries", Json::U64(u64::from(r.retries))),
        ("fallback", Json::Bool(r.fallback)),
    ];
    if let Some(rung) = r.rung {
        args.push(("rung", Json::Str(rung.label().into())));
    }
    let root = sink.span_at(
        "request",
        "request",
        t,
        arrival.as_nanos(),
        completed.as_nanos(),
        0,
        args,
    );
    let queue_args = match r.rung {
        Some(rung) => vec![("rung", Json::Str(rung.label().into()))],
        None => Vec::new(),
    };
    sink.span_at(
        "queue",
        "stage",
        t,
        arrival.as_nanos(),
        joined.as_nanos(),
        root,
        queue_args,
    );
    // Zero-duration spans are kept: a host hit costs ~nothing, and
    // that is precisely what per-placement fetch attribution measures.
    if let Some(fetch_start) = r.cache_fetch_started_at {
        if r.cache_ready_at >= fetch_start {
            // `replica_source` / `hit` / `policy` let trace analysis
            // attribute fetch cost per placement decision; the
            // single-cluster store has no replica placement, so the
            // policy is always "local" here (the fleet plane emits
            // "ring-order" / "popularity").
            let source = r.cache_fetch_source.unwrap_or("none");
            sink.span_at(
                "cache_fetch",
                "cache",
                t,
                fetch_start.as_nanos(),
                r.cache_ready_at.as_nanos(),
                root,
                vec![
                    ("template", Json::U64(r.spec.template_id)),
                    ("replica_source", Json::Str(source.into())),
                    ("hit", Json::Bool(source != "none")),
                    ("policy", Json::Str("local".into())),
                ],
            );
        }
    }
    sink.span_at(
        "denoise",
        "stage",
        t,
        joined.as_nanos(),
        denoised.as_nanos(),
        root,
        Vec::new(),
    );
    sink.span_at(
        "postprocess",
        "stage",
        t,
        denoised.as_nanos(),
        completed.as_nanos(),
        root,
        Vec::new(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::GpuSpec;
    use crate::router::{LeastLoadedRouter, RoundRobinRouter};
    use fps_diffusion::ModelConfig;
    use fps_workload::{RatioDistribution, TraceConfig};

    fn small_trace(rps: f64, secs: f64, seed: u64) -> Trace {
        Trace::generate(&TraceConfig {
            rps,
            arrivals: fps_workload::trace::ArrivalProcess::Poisson,
            duration_secs: secs,
            ratio_dist: RatioDistribution::ProductionTrace,
            num_templates: 4,
            zipf_s: 1.0,
            seed,
        })
    }

    fn base_config(engine: EngineKind, batching: BatchingPolicy, workers: usize) -> ClusterConfig {
        ClusterConfig {
            cost: CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl()),
            engine,
            batching,
            workers,
            max_batch: 8,
            cpu_workers: 4,
            store: StoreConfig::production_like(),
            scheduler_overhead: SimDuration::from_micros(600),
            overload: None,
            record_decisions: false,
            trace: TraceSink::disabled(),
        }
    }

    #[test]
    fn all_requests_complete() {
        let trace = small_trace(0.5, 60.0, 1);
        let n = trace.len();
        assert!(n > 10);
        for (engine, batching) in [
            (EngineKind::Diffusers, BatchingPolicy::Static),
            (
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
            ),
            (
                EngineKind::TeaCache {
                    compute_fraction: 0.6,
                },
                BatchingPolicy::Static,
            ),
            (EngineKind::FisEdit, BatchingPolicy::Static),
            (
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousNaive,
            ),
            (EngineKind::FlashPs { kv: false }, BatchingPolicy::Static),
        ] {
            let mut router = RoundRobinRouter::default();
            let report =
                ClusterSim::run(base_config(engine, batching, 2), &trace, &mut router).unwrap();
            assert_eq!(
                report.outcomes.len(),
                n,
                "{}/{}: all requests must complete",
                engine.label(),
                batching.label()
            );
            assert!(report.mean_latency() > 0.0);
            assert!(report.throughput_rps > 0.0);
        }
    }

    #[test]
    fn flashps_beats_diffusers_end_to_end() {
        // The headline Fig. 12 ordering at moderate load.
        let trace = small_trace(1.0, 120.0, 2);
        let mut r1 = LeastLoadedRouter;
        let flash = ClusterSim::run(
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                4,
            ),
            &trace,
            &mut r1,
        )
        .unwrap();
        let mut r2 = LeastLoadedRouter;
        let diff = ClusterSim::run(
            base_config(EngineKind::Diffusers, BatchingPolicy::Static, 4),
            &trace,
            &mut r2,
        )
        .unwrap();
        assert!(
            flash.mean_latency() < diff.mean_latency() / 2.0,
            "flashps {} vs diffusers {}",
            flash.mean_latency(),
            diff.mean_latency()
        );
        assert!(flash.mean_queueing() < diff.mean_queueing());
    }

    #[test]
    fn continuous_batching_cuts_queueing() {
        // Fig. 4-middle: same engine, static vs disaggregated CB.
        let trace = small_trace(1.5, 120.0, 3);
        let mut r1 = LeastLoadedRouter;
        let cb = ClusterSim::run(
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                2,
            ),
            &trace,
            &mut r1,
        )
        .unwrap();
        let mut r2 = LeastLoadedRouter;
        let st = ClusterSim::run(
            base_config(EngineKind::FlashPs { kv: false }, BatchingPolicy::Static, 2),
            &trace,
            &mut r2,
        )
        .unwrap();
        assert!(
            cb.mean_queueing() < st.mean_queueing(),
            "cb queueing {} vs static {}",
            cb.mean_queueing(),
            st.mean_queueing()
        );
    }

    #[test]
    fn naive_cb_interrupts_requests() {
        // §6.4: pre/post on the engine process interrupts inflight
        // requests several times and inflates tail latency.
        let trace = small_trace(1.0, 100.0, 4);
        let mut r1 = LeastLoadedRouter;
        let naive = ClusterSim::run(
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousNaive,
                1,
            ),
            &trace,
            &mut r1,
        )
        .unwrap();
        let mut r2 = LeastLoadedRouter;
        let disagg = ClusterSim::run(
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                1,
            ),
            &trace,
            &mut r2,
        )
        .unwrap();
        let max_interruptions = naive
            .outcomes
            .iter()
            .map(|o| o.interruptions)
            .max()
            .unwrap_or(0);
        assert!(
            max_interruptions >= 2,
            "expected interruptions, got max {max_interruptions}"
        );
        assert!(disagg.outcomes.iter().all(|o| o.interruptions == 0));
        assert!(
            naive.p95_latency() > disagg.p95_latency(),
            "naive P95 {} vs disagg {}",
            naive.p95_latency(),
            disagg.p95_latency()
        );
    }

    #[test]
    fn zero_workers_rejected() {
        let trace = small_trace(1.0, 5.0, 5);
        let mut router = RoundRobinRouter::default();
        assert!(ClusterSim::run(
            base_config(EngineKind::Diffusers, BatchingPolicy::Static, 0),
            &trace,
            &mut router
        )
        .is_err());
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace { requests: vec![] };
        let mut router = RoundRobinRouter::default();
        let report = ClusterSim::run(
            base_config(EngineKind::Diffusers, BatchingPolicy::Static, 2),
            &trace,
            &mut router,
        )
        .unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.throughput_rps, 0.0);
        assert!(report.mean_latency().is_nan() && report.p95_latency().is_nan());
        let slo = report.slo_report("empty", 30.0);
        assert_eq!((slo.submitted, slo.p95_latency_secs), (0, 0.0));
    }

    #[test]
    fn latency_statistics_are_views_over_outcome_totals() {
        let cfg = |workers| {
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                workers,
            )
        };
        // One request on an idle worker: its mean and p95 are its own
        // arrival-to-completion time, preprocessing counted once.
        let mut one = small_trace(1.0, 10.0, 7);
        one.requests.truncate(1);
        let report = ClusterSim::run(cfg(1), &one, &mut LeastLoadedRouter).unwrap();
        let total = report.outcomes[0].total;
        assert_eq!(report.mean_latency().to_bits(), total.to_bits());
        assert_eq!(report.p95_latency().to_bits(), total.to_bits());

        // A loaded run: the p95 is the nearest-rank value of the totals.
        let mut trace = small_trace(1.0, 400.0, 8);
        trace.requests.truncate(200);
        assert_eq!(trace.len(), 200);
        let report = ClusterSim::run(cfg(2), &trace, &mut LeastLoadedRouter).unwrap();
        let totals: Vec<f64> = report.outcomes.iter().map(|o| o.total).collect();
        assert_eq!(
            report.p95_latency().to_bits(),
            percentile(&totals, 0.95).unwrap().to_bits()
        );
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        assert_eq!(report.mean_latency().to_bits(), mean.to_bits());
    }

    #[test]
    fn interruption_counts_match_paper_scale() {
        // The paper reports median ≈ 6, P95 ≈ 8 interruptions per
        // request under naive CB at RPS 0.5 on one worker. Expect the
        // same order of magnitude.
        let trace = small_trace(0.5, 300.0, 6);
        let mut router = LeastLoadedRouter;
        let naive = ClusterSim::run(
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousNaive,
                1,
            ),
            &trace,
            &mut router,
        )
        .unwrap();
        let ints: Vec<f64> = naive
            .outcomes
            .iter()
            .map(|o| o.interruptions as f64)
            .collect();
        let median = percentile(&ints, 0.5).expect("requests were served");
        assert!(
            (1.0..=20.0).contains(&median),
            "median interruptions {median} outside plausible range"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn prop_simulation_invariants(
            rps in 0.2f64..1.2,
            seed in 0u64..1000,
            workers in 1usize..4,
            batching_idx in 0usize..3,
        ) {
            let batching = [
                BatchingPolicy::Static,
                BatchingPolicy::ContinuousNaive,
                BatchingPolicy::ContinuousDisaggregated,
            ][batching_idx];
            let trace = small_trace(rps, 40.0, seed);
            let n = trace.len();
            let mut router = RoundRobinRouter::default();
            let report = ClusterSim::run(
                base_config(EngineKind::FlashPs { kv: false }, batching, workers),
                &trace,
                &mut router,
            )
            .expect("run");
            // Conservation: every arrival completes exactly once.
            proptest::prop_assert_eq!(report.outcomes.len(), n);
            let mut ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            ids.dedup();
            proptest::prop_assert_eq!(ids.len(), n);
            // Every latency component is non-negative and finite; the
            // total is at least the inference time.
            for o in &report.outcomes {
                proptest::prop_assert!(o.queueing >= 0.0 && o.queueing.is_finite());
                proptest::prop_assert!(o.inference > 0.0 && o.inference.is_finite());
                proptest::prop_assert!(o.total + 1e-9 >= o.queueing + o.inference);
                proptest::prop_assert!(o.worker < workers);
                // Only naive CB interrupts requests.
                if batching != BatchingPolicy::ContinuousNaive {
                    proptest::prop_assert_eq!(o.interruptions, 0);
                }
            }
            // Step conservation: workers executed between the
            // perfectly-batched lower bound and the one-request-per-
            // step upper bound.
            if n > 0 {
                let steps: u64 = report.steps_per_worker.iter().sum();
                let model_steps = 50u64; // paper_sdxl schedule
                let max_batch = 8u64;
                proptest::prop_assert!(steps >= n as u64 * model_steps / max_batch);
                proptest::prop_assert!(steps <= n as u64 * model_steps);
            }
            // Utilization is a fraction.
            proptest::prop_assert!(report.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
        }
    }

    #[test]
    fn worker_crash_requeues_and_everything_completes() {
        use fps_chaos::{FaultEvent, FaultKind};
        let trace = small_trace(1.0, 60.0, 11);
        let n = trace.len();
        let plan = FaultPlan::new(
            9,
            0.0,
            vec![FaultEvent {
                at: SimTime::from_nanos(10_000_000_000),
                kind: FaultKind::WorkerCrash {
                    worker: 0,
                    downtime: SimDuration::from_secs_f64(5.0),
                },
            }],
        );
        let retry = RetryPolicy::default();
        let mut router = RoundRobinRouter::default();
        // The slow engine guarantees worker 0 has work in flight when
        // the crash lands.
        let report = ClusterSim::run_with_faults(
            base_config(EngineKind::Diffusers, BatchingPolicy::Static, 2),
            &trace,
            &mut router,
            &plan,
            &retry,
        )
        .unwrap();
        assert_eq!(report.crashes_per_worker, vec![1, 0]);
        assert_eq!(
            report.outcomes.len() + report.rejected.len(),
            n,
            "no request may vanish"
        );
        assert!(
            report.total_retries > 0,
            "the crashed worker had in-flight requests"
        );
        assert!(report.outcomes.iter().any(|o| o.retries > 0));
    }

    #[test]
    fn cache_loss_triggers_fallback_not_failure() {
        use fps_chaos::{FaultEvent, FaultKind};
        let trace = small_trace(0.8, 60.0, 12);
        let n = trace.len();
        // Lose and corrupt every template early in the run.
        let mut events = Vec::new();
        for t in 0..4 {
            events.push(FaultEvent {
                at: SimTime::from_nanos(1_000_000_000),
                kind: FaultKind::CacheLoss { template_id: t },
            });
        }
        let plan = FaultPlan::new(3, 0.0, events);
        let retry = RetryPolicy::default();
        let mut router = RoundRobinRouter::default();
        let report = ClusterSim::run_with_faults(
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                2,
            ),
            &trace,
            &mut router,
            &plan,
            &retry,
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), n, "fallback serves, never fails");
        assert!(report.fallback_serves > 0, "lost templates force recompute");
        assert!(
            report.fallback_serves < n as u64,
            "recompute re-populates the cache, so later requests hit"
        );
        assert!(report.rejected.is_empty());
    }

    #[test]
    fn slowdown_stretches_latency_deterministically() {
        use fps_chaos::{FaultEvent, FaultKind};
        let trace = small_trace(0.5, 40.0, 13);
        let cfg = || {
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                1,
            )
        };
        let slow = FaultPlan::new(
            1,
            0.0,
            vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::WorkerSlowdown {
                    worker: 0,
                    factor: 3.0,
                    duration: SimDuration::from_secs_f64(40.0),
                },
            }],
        );
        let retry = RetryPolicy::default();
        let mut r1 = RoundRobinRouter::default();
        let degraded = ClusterSim::run_with_faults(cfg(), &trace, &mut r1, &slow, &retry).unwrap();
        let mut r2 = RoundRobinRouter::default();
        let nominal = ClusterSim::run(cfg(), &trace, &mut r2).unwrap();
        assert!(
            degraded.mean_latency() > nominal.mean_latency() * 1.5,
            "3x slowdown must show: {} vs {}",
            degraded.mean_latency(),
            nominal.mean_latency()
        );
        // Determinism: replaying the same plan reproduces the report.
        let mut r3 = RoundRobinRouter::default();
        let replay = ClusterSim::run_with_faults(cfg(), &trace, &mut r3, &slow, &retry).unwrap();
        assert_eq!(degraded.outcomes, replay.outcomes);
    }

    #[test]
    fn trivial_plan_matches_plain_run_exactly() {
        let trace = small_trace(1.0, 60.0, 14);
        let cfg = || {
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                2,
            )
        };
        let mut r1 = LeastLoadedRouter;
        let plain = ClusterSim::run(cfg(), &trace, &mut r1).unwrap();
        let plan = FaultPlan::none();
        let retry = RetryPolicy::default();
        let mut r2 = LeastLoadedRouter;
        let chaos = ClusterSim::run_with_faults(cfg(), &trace, &mut r2, &plan, &retry).unwrap();
        assert_eq!(plain.outcomes, chaos.outcomes);
        assert_eq!(plain.steps_per_worker, chaos.steps_per_worker);
    }

    #[test]
    fn plan_validation_is_enforced() {
        use fps_chaos::{FaultEvent, FaultKind};
        let trace = small_trace(0.5, 10.0, 15);
        let plan = FaultPlan::new(
            0,
            0.0,
            vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::WorkerCrash {
                    worker: 5,
                    downtime: SimDuration::from_secs_f64(1.0),
                },
            }],
        );
        let retry = RetryPolicy::default();
        let mut router = RoundRobinRouter::default();
        assert!(ClusterSim::run_with_faults(
            base_config(EngineKind::Diffusers, BatchingPolicy::Static, 2),
            &trace,
            &mut router,
            &plan,
            &retry,
        )
        .is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        // The resilience contract: under ANY seeded fault plan, as
        // long as one worker stays healthy often enough for retries,
        // every request either completes or is explicitly rejected.
        // Nothing is silently dropped.
        #[test]
        fn prop_no_silent_drops_under_chaos(
            plan_seed in 0u64..10_000,
            trace_seed in 0u64..1000,
            workers in 1usize..4,
            batching_idx in 0usize..3,
        ) {
            let batching = [
                BatchingPolicy::Static,
                BatchingPolicy::ContinuousNaive,
                BatchingPolicy::ContinuousDisaggregated,
            ][batching_idx];
            let trace = small_trace(0.8, 30.0, trace_seed);
            let n = trace.len();
            let horizon = SimTime::from_nanos(60_000_000_000);
            let plan = FaultPlan::random(plan_seed, horizon, workers, 4);
            let retry = RetryPolicy::default();
            let mut router = RoundRobinRouter::default();
            let report = ClusterSim::run_with_faults(
                base_config(EngineKind::FlashPs { kv: false }, batching, workers),
                &trace,
                &mut router,
                &plan,
                &retry,
            )
            .expect("run");
            // Conservation: served + rejected covers every arrival,
            // with no duplicates across the two sets.
            proptest::prop_assert_eq!(report.outcomes.len() + report.rejected.len(), n);
            let mut ids: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
            ids.extend(report.rejected.iter().map(|r| r.id));
            ids.sort_unstable();
            ids.dedup();
            proptest::prop_assert_eq!(ids.len(), n);
            for o in &report.outcomes {
                proptest::prop_assert!(o.total.is_finite() && o.total >= 0.0);
                proptest::prop_assert!(o.retries <= retry.max_retries);
                proptest::prop_assert!(o.worker < workers);
            }
            for r in &report.rejected {
                proptest::prop_assert!(r.retries <= retry.max_retries);
            }
            // Determinism: the same plan replays identically.
            let mut router2 = RoundRobinRouter::default();
            let replay = ClusterSim::run_with_faults(
                base_config(EngineKind::FlashPs { kv: false }, batching, workers),
                &trace,
                &mut router2,
                &plan,
                &retry,
            )
            .expect("replay");
            proptest::prop_assert_eq!(&report.outcomes, &replay.outcomes);
            proptest::prop_assert_eq!(&report.rejected, &replay.rejected);
        }
    }

    fn bursty_trace(rps: f64, secs: f64, seed: u64) -> Trace {
        Trace::generate(&TraceConfig {
            rps,
            arrivals: fps_workload::trace::ArrivalProcess::bursty_default(),
            duration_secs: secs,
            ratio_dist: RatioDistribution::VitonHd,
            num_templates: 4,
            zipf_s: 1.0,
            seed,
        })
    }

    fn overload_config(workers: usize, deadline_secs: f64) -> ClusterConfig {
        ClusterConfig::with_overload_control(
            CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl()),
            workers,
            0.35,
            SimDuration::from_secs_f64(deadline_secs),
        )
    }

    #[test]
    fn overload_control_sheds_under_saturation_and_conserves() {
        // ~2 workers sustain ≈ 2 rps of VITON-HD edits; offer 5 rps.
        let trace = bursty_trace(5.0, 120.0, 24);
        let n = trace.len();
        let mut router = LeastLoadedRouter;
        let report = ClusterSim::run(overload_config(2, 30.0), &trace, &mut router).unwrap();
        assert!(report.shed > 0, "saturation must shed at admission");
        assert_eq!(
            report.outcomes.len() + report.rejected.len(),
            n,
            "shed requests are rejected explicitly, never lost"
        );
        // Every shed reason is a Shed variant, counted apart from
        // in-queue deadline rejections.
        let shed_listed = report
            .rejected
            .iter()
            .filter(|r| r.reason.is_shed())
            .count() as u64;
        assert_eq!(shed_listed, report.shed);
        // The ladder engaged: some work served below the premium rung.
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.rung.is_some() && o.rung != Some(Rung::FlashPsKv)),
            "saturation must push the ladder down"
        );
        // Served-at-deadline accounting is consistent.
        let slo = report.slo_report("overload-on", 30.0);
        assert_eq!((slo.submitted, slo.lost()), (n as u64, 0));
        assert_eq!(slo.shed, report.shed);
        assert!(slo.served_within_deadline <= slo.served);
        assert!(slo.goodput_at_deadline_rps <= slo.goodput_rps);
        assert_eq!(slo.goodput_rps, report.throughput_rps);

        // Determinism: same trace, same config, same report.
        let mut router2 = LeastLoadedRouter;
        let replay = ClusterSim::run(overload_config(2, 30.0), &trace, &mut router2).unwrap();
        assert_eq!(report.outcomes, replay.outcomes);
        assert_eq!(report.rejected, replay.rejected);
    }

    #[test]
    fn overload_control_off_stays_byte_identical() {
        // The overload field is None by default: flashps_default runs
        // must be unchanged by this feature existing.
        let trace = small_trace(1.0, 60.0, 22);
        let cfg = || {
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                2,
            )
        };
        let mut r1 = LeastLoadedRouter;
        let a = ClusterSim::run(cfg(), &trace, &mut r1).unwrap();
        let mut r2 = LeastLoadedRouter;
        let b = ClusterSim::run(cfg(), &trace, &mut r2).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.shed, 0);
        assert_eq!(a.breaker_trips, 0);
        assert!(a.outcomes.iter().all(|o| o.rung.is_none()));
    }

    #[test]
    fn ladder_recovers_after_burst_passes() {
        // A short saturating burst followed by a long quiet tail: late
        // arrivals must be served at the premium rung again.
        let mut requests = bursty_trace(6.0, 30.0, 23).requests;
        let quiet = small_trace(0.2, 120.0, 24);
        let offset = 90_000_000_000u64; // quiet phase starts at 90 s
        for (k, r) in quiet.requests.iter().enumerate() {
            let mut r = r.clone();
            r.id = 10_000 + k as u64;
            r.arrival_ns += offset;
            requests.push(r);
        }
        let trace = Trace { requests };
        let mut router = LeastLoadedRouter;
        let report = ClusterSim::run(overload_config(2, 30.0), &trace, &mut router).unwrap();
        let late_rungs: Vec<Option<Rung>> = report
            .outcomes
            .iter()
            .filter(|o| o.id >= 10_000)
            .map(|o| o.rung)
            .collect();
        assert!(!late_rungs.is_empty());
        assert!(
            late_rungs
                .iter()
                .rev()
                .take(5)
                .all(|r| *r == Some(Rung::FlashPsKv)),
            "hysteresis must let the ladder climb back after the burst: {late_rungs:?}"
        );
    }

    #[test]
    fn utilization_and_steps_are_reported() {
        let trace = small_trace(1.0, 60.0, 7);
        let mut router = RoundRobinRouter::default();
        let report = ClusterSim::run(
            base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                2,
            ),
            &trace,
            &mut router,
        )
        .unwrap();
        assert_eq!(report.steps_per_worker.len(), 2);
        assert!(report.steps_per_worker.iter().all(|&s| s > 0));
        // The FlashPS engine touched the activation store.
        assert!(report.store_stats.host_hits > 0);
        assert!(report.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn wall_clock_sink_is_rejected() {
        let trace = small_trace(0.5, 30.0, 3);
        let mut cfg = base_config(
            EngineKind::FlashPs { kv: false },
            BatchingPolicy::ContinuousDisaggregated,
            2,
        );
        cfg.trace = TraceSink::recording(Clock::Wall);
        let mut router = RoundRobinRouter::default();
        let err = ClusterSim::run(cfg, &trace, &mut router).unwrap_err();
        assert!(matches!(err, crate::ServingError::InvalidConfig { .. }));
    }

    #[test]
    fn tracing_emits_request_and_step_spans_without_changing_outcomes() {
        let trace = small_trace(0.5, 60.0, 5);
        let cfg = |sink: TraceSink| {
            let mut c = base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                2,
            );
            c.trace = sink;
            c
        };
        let mut router = RoundRobinRouter::default();
        let quiet = ClusterSim::run(cfg(TraceSink::disabled()), &trace, &mut router).unwrap();
        let sink = TraceSink::recording(Clock::Virtual);
        let mut router = RoundRobinRouter::default();
        let traced = ClusterSim::run(cfg(sink.clone()), &trace, &mut router).unwrap();
        assert_eq!(
            quiet.outcomes, traced.outcomes,
            "tracing must be purely passive"
        );
        let t = sink.drain().unwrap();
        assert_eq!(t.clock, Clock::Virtual);
        assert_eq!(t.spans_named("request").count(), traced.outcomes.len());
        assert!(t.spans_named("queue").count() > 0);
        assert!(t.spans_named("denoise").count() > 0);
        assert!(t.spans_named("postprocess").count() > 0);
        assert!(t.spans_named("step").count() > 0, "per-step gpu spans");
        // Fetch spans attribute their cost: where the bytes came from,
        // whether the read hit, and under which placement policy.
        let mut fetches = 0;
        for s in t.spans_named("cache_fetch") {
            fetches += 1;
            let source = match s.arg("replica_source") {
                Some(Json::Str(v)) => v.as_str(),
                other => panic!("replica_source missing or not a string: {other:?}"),
            };
            assert!(matches!(source, "host" | "disk" | "none"));
            assert_eq!(
                s.arg("hit"),
                Some(&Json::Bool(source != "none")),
                "hit arg must agree with the fetch source"
            );
            assert_eq!(s.arg("policy"), Some(&Json::Str("local".into())));
        }
        assert!(fetches > 0, "no cache_fetch spans recorded");
        // Every request span's children nest inside it.
        for root in t.spans_named("request") {
            for child in t.spans.iter().filter(|s| s.parent == root.id) {
                assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
            }
        }
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn traced_run_is_deterministic_across_reruns() {
        let trace = small_trace(0.8, 45.0, 11);
        let run = || {
            let sink = TraceSink::recording(Clock::Virtual);
            let mut cfg = base_config(
                EngineKind::FlashPs { kv: false },
                BatchingPolicy::ContinuousDisaggregated,
                2,
            );
            cfg.trace = sink.clone();
            let mut router = LeastLoadedRouter;
            ClusterSim::run(cfg, &trace, &mut router).unwrap();
            fps_trace::chrome_trace_string(&sink.drain().unwrap())
        };
        assert_eq!(run(), run(), "chrome export must be byte-identical");
    }
}
