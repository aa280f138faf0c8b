//! The virtual-time fleet simulator.
//!
//! One [`FleetSim`] run drives a [`FleetTrace`] through `n` shards.
//! Each shard is an independent serving unit: its own clock-generic
//! [`ControlPlane`] (admission, degradation ladder — the exact policy
//! code the single-cluster simulator and the threaded server consult),
//! its own worker pool, and its slice of the fleet's R-replicated
//! activation store ([`ReplicatedStore`]). Above the shards sit the
//! fleet-level policies under study: the [`FleetRouter`] choosing a
//! shard per request, one [`Autoscaler`] per shard resizing its pool
//! from windowed SLO signals, and — this module's robustness layer — a
//! [`FleetFaultPlan`] injecting shard crashes, churn, gray failures,
//! partitions, and cache wipes mid-run.
//!
//! Fault handling is built around three mechanisms:
//!
//! - **Minimal-churn rebalancing**: a crash or leave removes the shard
//!   from the consistent-hash ring (only its keys move); a join or
//!   restart adds it back. Each membership change rebuilds the replica
//!   directory and, when enabled, *re-primes* moved templates onto
//!   their new owners from surviving copies.
//! - **Re-routing with retry budgets**: a crash kills the shard's
//!   in-flight requests; each is resubmitted through the router
//!   (judged against its *original* arrival deadline) until its retry
//!   budget runs out. When no shard is routable, requests park at the
//!   router and drain FIFO the moment one comes back.
//! - **Replica failover**: a cache miss on the serving shard consults
//!   the template's replica directory and fetches from a surviving
//!   peer through that peer's circuit breaker — a masked compute plus
//!   a disk promote instead of a cold full recompute.
//!
//! The simulator is built for *scale*: workers are analytic k-server
//! FIFO pools ([`MultiResource`] — `acquire` returns the start/finish
//! pair immediately), so a request costs exactly two events (arrival
//! and completion) regardless of its step count. Everything is
//! deterministic in the trace and the fault seed: two runs of the same
//! config serialize to byte-identical reports, on either scheduler,
//! and every run asserts conservation — no accepted request is ever
//! silently dropped, even across a crash storm.
//!
//! [`ControlPlane`]: fps_serving::ControlPlane
//! [`ReplicatedStore`]: fps_maskcache::ReplicatedStore

use std::collections::{HashMap, VecDeque};

use fps_chaos::{FleetFaultKind, FleetFaultPlan};
use fps_json::{Json, ToJson};
use fps_maskcache::{PlacementSpec, ReplicaFetch, ReplicatedStore, StoreConfig};
use fps_metrics::{
    CacheFeedback, FetchOutcome, FleetCacheCounters, FleetRecoveryReport, FleetSloReport,
    GoodputTimeline, Histogram, PopularityHistogram, ScaleWindow, ShardSloReport, SloLedger,
};
use fps_overload::BreakerConfig;
use fps_serving::cost::BatchItem;
use fps_serving::{
    Assessment, ControlPlane, CostModel, EngineKind, GpuSpec, LeastLoadedRouter, TraceSink, Track,
};
use fps_simtime::{
    CalendarQueue, EventHandler, EventQueue, EventScheduler, MultiResource, SimDuration, SimTime,
    Simulation,
};
use fps_workload::FleetTrace;

use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleDecision, ScaleGuard};
use crate::ring::HashRing;
use crate::router::{FleetRouter, RouteStrategy, ShardLoad};

/// Fleet-run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards at start of run (fault plans may join more).
    pub shards: u32,
    /// Initial worker-pool size per shard.
    pub workers_per_shard: usize,
    /// Concurrent service lanes per worker.
    pub max_batch: usize,
    /// SLO deadline, seconds from arrival.
    pub deadline_secs: f64,
    /// Shard-selection policy.
    pub strategy: RouteStrategy,
    /// Per-shard activation-cache capacity, in templates (host tier of
    /// the shard's hierarchical store).
    pub cache_capacity: usize,
    /// Autoscaling policy; `None` freezes the pools.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Seconds between autoscaler observation windows.
    pub scale_interval_secs: f64,
    /// Typical mask ratio of the offered load (sizes the admission
    /// estimates, exactly as in the cluster simulator).
    pub mean_mask_ratio: f64,
    /// Let the degradation ladder cut steps under pressure. Routing
    /// experiments pin this off: a shard that rides out cache misses by
    /// serving fewer denoising steps converts the miss penalty into
    /// quality loss that latency metrics cannot see, which would make
    /// strategies incomparable at equal output quality.
    pub allow_degradation: bool,
    /// Deterministic fleet fault schedule (default: no faults).
    pub faults: FleetFaultPlan,
    /// Replication target R for the activation store. `1` is the
    /// no-replica baseline: a miss always recomputes cold. `≥ 2`
    /// enables peer failover through the replica directory.
    pub replicas: usize,
    /// Copy moved templates onto their new owners at each membership
    /// change. Off, the directory still tracks the ring but new owners
    /// start cold — the ablation arm for `fig_chaos_fleet`.
    pub reprime_on_churn: bool,
    /// How many times a crash-killed request may be resubmitted before
    /// it is counted as failed.
    pub retry_budget: u32,
    /// Goodput-timeline bucket width for recovery analysis, seconds.
    pub recovery_window_secs: f64,
    /// Uniform per-template activation footprint, bytes (sizes the
    /// host tier as `cache_capacity × template_bytes`).
    pub template_bytes: u64,
    /// Replica-placement policy for the activation store. Ring order
    /// is the legacy behavior (byte-identical reports); popularity
    /// places the hot templates' replicas first under the byte budget
    /// and re-plans on popularity drift.
    pub placement: PlacementSpec,
    /// Per-shard replica byte budget, in templates (× `template_bytes`).
    /// `None` is unbounded — every planned replica is admitted, exactly
    /// the legacy behavior.
    pub replica_budget_templates: Option<usize>,
    /// Seconds between placement re-plans when the policy reacts to
    /// popularity (ring order never re-plans).
    pub replan_interval_secs: f64,
    /// Trace sink for route/scale/fault events.
    pub trace: TraceSink,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            workers_per_shard: 2,
            max_batch: 4,
            deadline_secs: 30.0,
            strategy: RouteStrategy::Affinity { load_factor: 1.25 },
            cache_capacity: 16,
            autoscaler: None,
            scale_interval_secs: 10.0,
            mean_mask_ratio: 0.11,
            allow_degradation: true,
            faults: FleetFaultPlan::none(),
            replicas: 1,
            reprime_on_churn: true,
            retry_budget: 2,
            recovery_window_secs: 10.0,
            template_bytes: 64 << 20,
            placement: PlacementSpec::RingOrder,
            replica_budget_templates: None,
            replan_interval_secs: 20.0,
            trace: TraceSink::disabled(),
        }
    }
}

/// What one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Strategy label of the run.
    pub strategy: &'static str,
    /// Replica-placement policy label of the run.
    pub policy: &'static str,
    /// Per-shard SLO accounting with mergeable histograms.
    pub shard_reports: Vec<ShardSloReport>,
    /// Histogram-merged fleet rollup (with cache counters attached).
    pub fleet: FleetSloReport,
    /// Requests whose template was host-resident on the serving shard.
    pub cache_hits: u64,
    /// Requests served by fetching a surviving peer replica after a
    /// local miss (masked compute instead of cold recompute).
    pub failover_hits: u64,
    /// Requests that recomputed from scratch.
    pub cache_misses: u64,
    /// Affinity placements that bypassed a saturated primary.
    pub spills: u64,
    /// Crash-killed requests that were resubmitted through the router.
    pub rerouted: u64,
    /// Accepted requests lost to crashes after exhausting their retry
    /// budget.
    pub crash_failed: u64,
    /// Requests parked at the router (no routable shard) that never
    /// found one before the run ended.
    pub parked_failed: u64,
    /// Replica copies re-primed onto new owners by churn rebalancing.
    pub re_primed: u64,
    /// Peer-cache reads short-circuited by an open circuit breaker.
    pub breaker_short_circuits: u64,
    /// Placement re-plans triggered by popularity drift (always 0 for
    /// ring order).
    pub replans: u64,
    /// Replica copies evicted to respect the per-shard byte budget.
    pub replica_evictions: u64,
    /// p95 of the per-request cache-fetch cost (0 on a local hit, the
    /// promote delay on failover, the cold-recompute penalty on a
    /// miss), seconds.
    pub cache_fetch_p95_secs: f64,
    /// Scale-up actions across all shards.
    pub scale_ups: u64,
    /// Scale-down actions across all shards.
    pub scale_downs: u64,
    /// Scale-downs vetoed by the last-healthy-shard guard.
    pub scale_down_vetoes: u64,
    /// Worker-pool sizes at the end of the run.
    pub final_workers: Vec<usize>,
    /// Virtual seconds from first arrival to last completion.
    pub makespan_secs: f64,
    /// Total events the scheduler processed.
    pub events_processed: u64,
    /// Goodput recovery analysis, when the run injected faults.
    pub recovery: Option<FleetRecoveryReport>,
}

impl FleetReport {
    /// Local activation-cache hit rate over computed requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.failover_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of requests that avoided a cold recompute (local hit
    /// or replica failover).
    pub fn effective_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.failover_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits + self.failover_hits) as f64 / total as f64
        }
    }
}

impl ToJson for FleetReport {
    fn to_json(&self) -> Json {
        let mut j = Json::object()
            .with("strategy", self.strategy)
            .with("policy", self.policy)
            .with("fleet", self.fleet.to_json())
            .with("shards", self.shard_reports.to_json())
            .with("cache_hits", self.cache_hits)
            .with("failover_hits", self.failover_hits)
            .with("cache_misses", self.cache_misses)
            .with("hit_rate", self.hit_rate())
            .with("effective_hit_rate", self.effective_hit_rate())
            .with("spills", self.spills)
            .with("rerouted", self.rerouted)
            .with("crash_failed", self.crash_failed)
            .with("parked_failed", self.parked_failed)
            .with("re_primed", self.re_primed)
            .with("breaker_short_circuits", self.breaker_short_circuits)
            .with("replans", self.replans)
            .with("replica_evictions", self.replica_evictions)
            .with("cache_fetch_p95_secs", self.cache_fetch_p95_secs)
            .with("scale_ups", self.scale_ups)
            .with("scale_downs", self.scale_downs)
            .with("scale_down_vetoes", self.scale_down_vetoes)
            .with(
                "final_workers",
                Json::Array(
                    self.final_workers
                        .iter()
                        .map(|&w| Json::U64(w as u64))
                        .collect(),
                ),
            )
            .with("makespan_secs", self.makespan_secs)
            .with("events_processed", self.events_processed);
        if let Some(recovery) = &self.recovery {
            j = j.with("recovery", recovery.to_json());
        }
        j
    }
}

/// One shard's live state.
struct Shard {
    plane: ControlPlane<LeastLoadedRouter>,
    /// One k-server pool per worker (`max_batch` lanes each). Never
    /// empty: built and restarted with at least one worker, and never
    /// scaled below one.
    pools: Vec<MultiResource>,
    scaler: Option<Autoscaler>,
    outstanding: usize,
    window: ScaleWindow,
    // Liveness.
    /// Not crashed and not departed.
    alive: bool,
    /// On the consistent-hash ring.
    joined: bool,
    /// Router cannot place onto it (link down; compute fine).
    partitioned: bool,
    /// Gray-failure service-time multiplier while `now < slow_until`.
    slow_factor: f64,
    slow_until: SimTime,
    /// Every attempt routed here and how it ended; a crash-killed
    /// attempt counts as `other_rejected` (it is resubmitted, or
    /// counted failed, at the fleet level).
    ledger: SloLedger,
}

impl Shard {
    /// The router may place new requests here.
    fn routable(&self) -> bool {
        self.alive && self.joined && !self.partitioned
    }
}

/// One accepted attempt in flight on a shard. Crash handling consults
/// this registry to kill and reroute; completion accounting happens at
/// the `Done` event so a killed attempt is never counted served.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    trace_ix: usize,
    /// Shard serving this attempt (crash handling kills by shard).
    shard: u32,
    /// Original fleet arrival (deadlines and latency are judged
    /// against it across retries).
    arrival: SimTime,
    finish: SimTime,
    wait_secs: f64,
    attempt: u32,
    rung_label: Option<&'static str>,
}

/// A request waiting at the router for any shard to become routable.
#[derive(Debug, Clone, Copy)]
struct Parked {
    trace_ix: usize,
    arrival: SimTime,
    attempt: u32,
}

/// A compiled fault-plan step (one plan event may expand to two: a
/// crash schedules its own restart, a partition its own heal).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Crash(u32),
    Rejoin(u32),
    Leave(u32),
    Join(u32),
    SlowStart {
        shard: u32,
        factor: f64,
        until: SimTime,
    },
    PartitionStart(u32),
    PartitionEnd(u32),
    Wipe(u32),
    DiskDegradeStart {
        shard: u32,
        factor: f64,
    },
    DiskDegradeEnd(u32),
}

impl FaultAction {
    fn label(&self) -> &'static str {
        match self {
            Self::Crash(_) => "crash",
            Self::Rejoin(_) => "rejoin",
            Self::Leave(_) => "leave",
            Self::Join(_) => "join",
            Self::SlowStart { .. } => "slow_start",
            Self::PartitionStart(_) => "partition_start",
            Self::PartitionEnd(_) => "partition_end",
            Self::Wipe(_) => "wipe",
            Self::DiskDegradeStart { .. } => "disk_degrade_start",
            Self::DiskDegradeEnd(_) => "disk_degrade_end",
        }
    }

    fn shard(&self) -> u32 {
        match *self {
            Self::Crash(s)
            | Self::Rejoin(s)
            | Self::Leave(s)
            | Self::Join(s)
            | Self::SlowStart { shard: s, .. }
            | Self::PartitionStart(s)
            | Self::PartitionEnd(s)
            | Self::Wipe(s)
            | Self::DiskDegradeStart { shard: s, .. }
            | Self::DiskDegradeEnd(s) => s,
        }
    }
}

fn compile_plan(plan: &FleetFaultPlan) -> Vec<(SimTime, FaultAction)> {
    let mut actions = Vec::new();
    for e in &plan.events {
        match e.kind {
            FleetFaultKind::ShardCrash { shard, downtime } => {
                actions.push((e.at, FaultAction::Crash(shard)));
                actions.push((e.at + downtime, FaultAction::Rejoin(shard)));
            }
            FleetFaultKind::ShardLeave { shard } => actions.push((e.at, FaultAction::Leave(shard))),
            FleetFaultKind::ShardJoin { shard } => actions.push((e.at, FaultAction::Join(shard))),
            FleetFaultKind::ShardSlow {
                shard,
                factor,
                duration,
            } => actions.push((
                e.at,
                FaultAction::SlowStart {
                    shard,
                    factor,
                    until: e.at + duration,
                },
            )),
            FleetFaultKind::Partition { shard, duration } => {
                actions.push((e.at, FaultAction::PartitionStart(shard)));
                actions.push((e.at + duration, FaultAction::PartitionEnd(shard)));
            }
            FleetFaultKind::ReplicaLoss { shard } => {
                actions.push((e.at, FaultAction::Wipe(shard)));
            }
            FleetFaultKind::DiskDegrade {
                shard,
                factor,
                duration,
            } => {
                actions.push((e.at, FaultAction::DiskDegradeStart { shard, factor }));
                actions.push((e.at + duration, FaultAction::DiskDegradeEnd(shard)));
            }
        }
    }
    // Stable by time: same-instant actions keep plan order.
    actions.sort_by_key(|&(at, _)| at);
    actions
}

/// Fleet events. Public so callers can plug in their own
/// [`EventScheduler`] via [`FleetSim::run_with_scheduler`].
#[derive(Debug, Clone, Copy)]
pub enum FleetEv {
    /// Request `trace[i]` arrives at the fleet front door.
    Arrival(usize),
    /// In-flight attempt `seq` completes on `shard`.
    Done {
        /// The shard whose worker finished.
        shard: u32,
        /// Registry key of the attempt (a crash may have killed it, in
        /// which case the completion is ignored).
        seq: u64,
    },
    /// Autoscaler observation window closes.
    ScaleTick,
    /// Placement re-plan tick (scheduled only when the placement
    /// policy reacts to popularity).
    Replan,
    /// Compiled fault-plan step `i` fires.
    Fault(usize),
}

struct World<'a> {
    trace: &'a FleetTrace,
    shards: Vec<Shard>,
    router: FleetRouter,
    store: ReplicatedStore,
    cost: CostModel,
    engine: EngineKind,
    config: FleetConfig,
    deadline: SimDuration,
    actions: Vec<(SimTime, FaultAction)>,
    /// Sorted template universe, for deterministic directory rebuilds.
    templates: Vec<u64>,
    registry: HashMap<u64, Inflight>,
    next_seq: u64,
    parked: VecDeque<Parked>,
    timeline: GoodputTimeline,
    spills: u64,
    cache_hits: u64,
    failover_hits: u64,
    cache_misses: u64,
    rerouted: u64,
    crash_failed: u64,
    re_primed: u64,
    /// Measured cache-cost signal: fetch-cost EWMAs per (shard,
    /// template) plus windowed miss counters for the autoscaler.
    feedback: CacheFeedback,
    /// Requests seen per template so far this run — the drift signal
    /// popularity placement re-plans against (keyed only, never
    /// iterated; reads go through the sorted template universe).
    live_popularity: HashMap<u64, u64>,
    /// Per-request cache-fetch cost (0 local / promote delay on
    /// failover / cold penalty on miss), seconds.
    cache_fetch_hist: Histogram,
    replans: u64,
    last_completion: SimTime,
    inflight: usize,
    next_arrival: usize,
}

impl World<'_> {
    fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.routable())
            .map(|(i, s)| ShardLoad {
                shard: i as u32,
                outstanding: s.outstanding,
                lanes: s.pools.len() * self.config.max_batch,
            })
            .collect()
    }

    /// Service seconds for one request at `steps` denoising steps.
    /// Requests with host-resident or failed-over activations compute
    /// only the masked region; cold misses recompute the full latent
    /// (mask ratio 1.0) — the fleet-level cost of losing affinity.
    fn service_duration(&self, mask_ratio: f64, steps: usize, warm: bool) -> SimDuration {
        let ratio = if warm { mask_ratio } else { 1.0 };
        let step = self
            .engine
            .step_latency(&self.cost, &[BatchItem { mask_ratio: ratio }]);
        SimDuration::from_secs_f64(step.as_secs_f64() * steps as f64)
    }

    fn emit(&self, name: &'static str, shard: u32, ts: SimTime, args: Vec<(&'static str, Json)>) {
        if !self.config.trace.is_enabled() {
            return;
        }
        self.config
            .trace
            .event_at(name, "fleet", Track::new(2, shard), ts.as_nanos(), args);
    }

    /// Rebuilds the replica directory from the current ring; with
    /// re-priming enabled, copies moved templates onto their new
    /// owners from surviving holders.
    fn rebalance(&mut self) {
        let ring = self.router.ring();
        let pop = &self.live_popularity;
        if self.config.reprime_on_churn {
            self.re_primed += self.store.rebuild_weighted(
                &self.templates,
                |t| ring.preference(t),
                |t| pop.get(&t).copied().unwrap_or(0),
            );
        } else {
            self.store.retarget(&self.templates, |t| ring.preference(t));
        }
        self.refresh_feedback_hints();
    }

    /// Re-seeds the feedback cost priors from the current replica
    /// directory. Every owner is seeded at zero — the prior is the
    /// *steady-state* cost of serving there, not the first fetch: a
    /// replica pays one disk promote on adoption and is host-resident
    /// after. Seeding replicas at the promote cost instead would make
    /// them unexplorable — a pair thrashing in and out of a full host
    /// tier averages below one promote per fetch, so its EWMA could
    /// never exceed that prior and the router would re-promote forever
    /// rather than migrate. Non-owners fall back to the miss prior.
    /// Pure feedback state — blind strategies never read it.
    fn refresh_feedback_hints(&mut self) {
        for &t in &self.templates {
            let owners = self.store.directory().owners(t).to_vec();
            self.feedback.hint_placement(t, &owners, 0.0, 0.0);
        }
    }

    /// Re-submits every parked request once any shard is routable.
    fn drain_parked<Q: EventScheduler<FleetEv>>(&mut self, now: SimTime, queue: &mut Q) {
        if self.parked.is_empty() || !self.shards.iter().any(Shard::routable) {
            return;
        }
        let parked: Vec<Parked> = self.parked.drain(..).collect();
        for p in parked {
            self.submit(now, p.trace_ix, p.attempt, p.arrival, queue);
        }
    }

    /// Routes and (maybe) admits one attempt of `trace[trace_ix]`.
    /// `arrival` is the request's original fleet arrival: deadlines
    /// and end-to-end latency are judged against it across retries.
    fn submit<Q: EventScheduler<FleetEv>>(
        &mut self,
        now: SimTime,
        trace_ix: usize,
        attempt: u32,
        arrival: SimTime,
        queue: &mut Q,
    ) {
        let req = &self.trace.trace.requests[trace_ix];
        let loads = self.shard_loads();
        if loads.is_empty() {
            // Nothing routable: park at the router until membership or
            // partition state changes.
            self.parked.push_back(Parked {
                trace_ix,
                arrival,
                attempt,
            });
            self.emit("fleet_park", 0, now, vec![("id", Json::U64(req.id))]);
            return;
        }
        let choice = self
            .router
            .choose(req.id, req.template_id, &loads, Some(&self.feedback));
        if choice.spilled {
            self.spills += 1;
        }
        let sx = choice.shard as usize;
        self.emit(
            "fleet_route",
            choice.shard,
            now,
            vec![
                ("id", Json::U64(req.id)),
                ("template", Json::U64(req.template_id)),
                ("spilled", Json::Bool(choice.spilled)),
                ("attempt", Json::U64(attempt as u64)),
            ],
        );
        let shard = &mut self.shards[sx];
        shard.ledger.submitted += 1;
        shard.window.submitted += 1;
        let capacity = shard.pools.len() * self.config.max_batch;
        let assessment = shard
            .plane
            .assess(req.id, now, shard.outstanding, capacity, false);
        let (rung, steps) = match assessment {
            Assessment::Shed(_) => {
                shard.ledger.shed += 1;
                shard.window.turned_away += 1;
                return;
            }
            Assessment::Serve { rung, steps } => (rung, steps),
        };
        // Earliest any lane frees: if even starting then blows the
        // (remaining) deadline, reject before charging the pool.
        let free = shard
            .pools
            .iter()
            .map(MultiResource::earliest_free)
            .min()
            .expect("pools are never empty");
        if free.max(now).since(arrival) > self.deadline {
            shard.ledger.deadline_rejected += 1;
            shard.window.turned_away += 1;
            return;
        }
        // Cache path: local host tier, then replica failover, then
        // cold recompute. The cold penalty (full-latent recompute minus
        // the masked compute this request would have run warm) is the
        // miss cost the feedback signal learns.
        let cold_penalty_secs = (self.service_duration(req.mask_ratio, steps, false)
            - self.service_duration(req.mask_ratio, steps, true))
        .as_secs_f64()
        .max(0.0);
        let local_hit = self.store.touch(choice.shard, req.template_id, now);
        let (warm, compute_from, outcome, replica_source) = if local_hit {
            self.cache_hits += 1;
            (true, now, FetchOutcome::LocalHit, Json::Str("host".into()))
        } else if self.config.replicas >= 2 {
            let shards = &self.shards;
            match self
                .store
                .fetch_failover(choice.shard, req.template_id, now, |s| {
                    shards
                        .get(s as usize)
                        .is_some_and(|sh| sh.alive && sh.joined)
                }) {
                ReplicaFetch::Failover { source, ready } => {
                    self.failover_hits += 1;
                    self.emit(
                        "cache_failover",
                        choice.shard,
                        now,
                        vec![
                            ("template", Json::U64(req.template_id)),
                            ("source", Json::U64(source as u64)),
                        ],
                    );
                    let cost_secs = ready.since(now).as_secs_f64();
                    (
                        true,
                        ready,
                        FetchOutcome::Failover { cost_secs },
                        Json::U64(source as u64),
                    )
                }
                ReplicaFetch::LocalHit(ready) => {
                    // The local disk tier held a copy: a promote, not a
                    // peer fetch.
                    let cost_secs = ready.since(now).as_secs_f64();
                    (
                        true,
                        ready,
                        FetchOutcome::Failover { cost_secs },
                        Json::Str("disk".into()),
                    )
                }
                ReplicaFetch::Miss => {
                    self.cache_misses += 1;
                    (
                        false,
                        now,
                        FetchOutcome::Miss {
                            cost_secs: cold_penalty_secs,
                        },
                        Json::Str("none".into()),
                    )
                }
            }
        } else {
            self.cache_misses += 1;
            (
                false,
                now,
                FetchOutcome::Miss {
                    cost_secs: cold_penalty_secs,
                },
                Json::Str("none".into()),
            )
        };
        self.feedback
            .observe(choice.shard, req.template_id, outcome);
        self.cache_fetch_hist.record(outcome.cost_secs());
        self.emit(
            "cache_fetch",
            choice.shard,
            now,
            vec![
                ("template", Json::U64(req.template_id)),
                ("replica_source", replica_source),
                ("hit", Json::Bool(outcome.is_hit())),
                ("policy", Json::Str(self.store.policy_name().to_string())),
            ],
        );
        if !local_hit && self.config.replicas >= 2 {
            // Write-through: the computed (or fetched) activations land
            // on every desired owner so the next failure has copies.
            self.store.replicate(req.template_id);
        }
        let mut dur = self.service_duration(req.mask_ratio, steps, warm);
        let shard = &mut self.shards[sx];
        if now < shard.slow_until {
            // Gray failure: alive, routable, just slow.
            dur = SimDuration::from_secs_f64(dur.as_secs_f64() * shard.slow_factor);
        }
        // Lane with the earliest opening, ties to the lowest worker
        // index: deterministic and work-conserving.
        let px = shard
            .pools
            .iter()
            .enumerate()
            .min_by_key(|(ix, p)| (p.earliest_free(), *ix))
            .expect("pools are never empty")
            .0;
        let (start, finish) = shard.pools[px].acquire(compute_from.max(now), dur);
        let wait_secs = start.since(now).as_secs_f64();
        shard.window.queue_waits.push(wait_secs);
        shard.outstanding += 1;
        self.inflight += 1;
        self.last_completion = self.last_completion.max(finish);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.registry.insert(
            seq,
            Inflight {
                trace_ix,
                shard: choice.shard,
                arrival,
                finish,
                wait_secs,
                attempt,
                rung_label: rung.map(|r| r.label()),
            },
        );
        queue.schedule_at(
            finish,
            FleetEv::Done {
                shard: choice.shard,
                seq,
            },
        );
    }

    fn apply_fault<Q: EventScheduler<FleetEv>>(
        &mut self,
        now: SimTime,
        action: FaultAction,
        queue: &mut Q,
    ) {
        self.emit(
            "fleet_fault",
            action.shard(),
            now,
            vec![("kind", Json::Str(action.label().to_string()))],
        );
        match action {
            FaultAction::Crash(shard) => {
                let sx = shard as usize;
                if !self.shards[sx].alive {
                    return;
                }
                self.shards[sx].alive = false;
                self.shards[sx].joined = false;
                self.shards[sx].window = ScaleWindow::default();
                self.router.remove_shard(shard);
                self.store.wipe(shard);
                self.rebalance();
                // Kill the shard's in-flight attempts (sorted by seq
                // for determinism), then reroute each within its retry
                // budget — judged against its original deadline.
                let mut victims: Vec<u64> = self
                    .registry
                    .iter()
                    .filter(|(_, inf)| inf.shard == shard)
                    .map(|(&seq, _)| seq)
                    .collect();
                victims.sort_unstable();
                for seq in victims {
                    // Resubmission only registers new seqs, so every
                    // collected victim is still registered.
                    let inf = self.registry.remove(&seq).expect("victim is registered");
                    let s = &mut self.shards[sx];
                    s.outstanding = s.outstanding.saturating_sub(1);
                    s.ledger.other_rejected += 1;
                    self.inflight -= 1;
                    if inf.attempt < self.config.retry_budget {
                        self.rerouted += 1;
                        self.submit(now, inf.trace_ix, inf.attempt + 1, inf.arrival, queue);
                    } else {
                        self.crash_failed += 1;
                    }
                }
            }
            FaultAction::Rejoin(shard) | FaultAction::Join(shard) => {
                let sx = shard as usize;
                if self.shards[sx].alive && self.shards[sx].joined {
                    return;
                }
                let s = &mut self.shards[sx];
                s.alive = true;
                s.joined = true;
                s.partitioned = false;
                // Cold restart: fresh pools, empty window. (The store
                // slice was wiped at crash; re-priming below warms it.)
                s.pools = (0..self.config.workers_per_shard.max(1))
                    .map(|_| MultiResource::new(self.config.max_batch))
                    .collect();
                s.outstanding = 0;
                s.window = ScaleWindow::default();
                self.router.add_shard(shard);
                self.store.ensure_shard(shard);
                self.rebalance();
                self.drain_parked(now, queue);
            }
            FaultAction::Leave(shard) => {
                let sx = shard as usize;
                if !self.shards[sx].alive {
                    return;
                }
                // Graceful: stops taking new work, drains in-flight.
                self.shards[sx].alive = false;
                self.shards[sx].joined = false;
                self.router.remove_shard(shard);
                self.rebalance();
            }
            FaultAction::SlowStart {
                shard,
                factor,
                until,
            } => {
                let s = &mut self.shards[shard as usize];
                s.slow_factor = factor.max(1.0);
                s.slow_until = until;
            }
            FaultAction::PartitionStart(shard) => {
                self.shards[shard as usize].partitioned = true;
            }
            FaultAction::PartitionEnd(shard) => {
                self.shards[shard as usize].partitioned = false;
                self.drain_parked(now, queue);
            }
            FaultAction::Wipe(shard) => {
                self.store.wipe(shard);
            }
            // A gray failure: health checks see nothing (the shard
            // stays routable), but every disk promote on — or peer
            // read sourced from — the shard pays the slowdown. Only
            // fetch-cost feedback can detect it.
            FaultAction::DiskDegradeStart { shard, factor } => {
                self.store.set_disk_degradation(shard, factor.max(1.0));
            }
            FaultAction::DiskDegradeEnd(shard) => {
                self.store.set_disk_degradation(shard, 1.0);
            }
        }
    }
}

impl<Q: EventScheduler<FleetEv>> EventHandler<FleetEv, Q> for World<'_> {
    fn handle(&mut self, now: SimTime, event: FleetEv, queue: &mut Q) {
        match event {
            FleetEv::Arrival(i) => {
                self.next_arrival = self.next_arrival.max(i + 1);
                let template = self.trace.trace.requests[i].template_id;
                *self.live_popularity.entry(template).or_insert(0) += 1;
                self.submit(now, i, 0, now, queue);
            }
            FleetEv::Done { shard, seq } => {
                // A crash may have killed this attempt already.
                let Some(inf) = self.registry.remove(&seq) else {
                    return;
                };
                let s = &mut self.shards[shard as usize];
                s.outstanding = s.outstanding.saturating_sub(1);
                self.inflight -= 1;
                if s.ledger
                    .serve(inf.finish.since(inf.arrival), inf.rung_label)
                {
                    self.timeline.record(inf.finish.as_secs_f64());
                }
                s.ledger.record_queue_wait(inf.wait_secs);
            }
            FleetEv::ScaleTick => {
                let routable = self.shards.iter().filter(|s| s.routable()).count();
                let parked = self.parked.len() as u64;
                for sx in 0..self.shards.len() {
                    let max_batch = self.config.max_batch;
                    if !self.shards[sx].alive {
                        continue;
                    }
                    let guard = ScaleGuard {
                        parked,
                        last_healthy: routable == 1 && self.shards[sx].routable(),
                    };
                    let miss_rate = self.feedback.window_miss_rate(sx as u32);
                    self.feedback.reset_window(sx as u32);
                    let shard = &mut self.shards[sx];
                    let capacity = (shard.pools.len() * max_batch).max(1);
                    let utilization = (shard.outstanding as f64 / capacity as f64).min(1.0);
                    let signal = shard.window.signal(utilization, miss_rate);
                    let Some(scaler) = shard.scaler.as_mut() else {
                        continue;
                    };
                    let decision = scaler.observe_guarded(shard.pools.len(), &signal, now, &guard);
                    let (name, n) = match decision {
                        ScaleDecision::Hold => continue,
                        ScaleDecision::Up(n) => {
                            while shard.pools.len() < n {
                                shard.pools.push(MultiResource::new(max_batch));
                            }
                            ("scale_up", n)
                        }
                        ScaleDecision::Down(n) => {
                            shard.pools.truncate(n.max(1));
                            ("scale_down", n)
                        }
                    };
                    self.emit(name, sx as u32, now, vec![("workers", Json::U64(n as u64))]);
                }
                // Keep ticking only while the run still has work:
                // unconditional rescheduling would never terminate.
                if self.inflight > 0 || self.next_arrival < self.trace.trace.len() {
                    queue.schedule_after(
                        SimDuration::from_secs_f64(self.config.scale_interval_secs),
                        FleetEv::ScaleTick,
                    );
                }
            }
            FleetEv::Replan => {
                // Popularity drift: re-run placement against the live
                // histogram and move replicas (survivor-sourced copy +
                // budget eviction) to match. Never scheduled for
                // policies that ignore popularity.
                let before = self.re_primed;
                let ring = self.router.ring();
                let pop = &self.live_popularity;
                self.re_primed += self.store.rebuild_weighted(
                    &self.templates,
                    |t| ring.preference(t),
                    |t| pop.get(&t).copied().unwrap_or(0),
                );
                self.replans += 1;
                self.refresh_feedback_hints();
                self.emit(
                    "replan",
                    0,
                    now,
                    vec![
                        ("moved", Json::U64(self.re_primed - before)),
                        ("policy", Json::Str(self.store.policy_name().to_string())),
                    ],
                );
                if self.inflight > 0 || self.next_arrival < self.trace.trace.len() {
                    queue.schedule_after(
                        SimDuration::from_secs_f64(self.config.replan_interval_secs.max(0.001)),
                        FleetEv::Replan,
                    );
                }
            }
            FleetEv::Fault(ix) => {
                let (_, action) = self.actions[ix];
                self.apply_fault(now, action, queue);
            }
        }
    }
}

/// Runs fleet simulations. The scheduler is pluggable ([`FleetSim::run`] uses
/// the calendar queue, [`FleetSim::run_on_heap`] the binary heap) and the two
/// must produce byte-identical reports — the fleet-scale differential
/// test of the scheduler contract.
pub struct FleetSim;

impl FleetSim {
    /// Runs `trace` under `config` on the calendar-queue scheduler.
    pub fn run(config: FleetConfig, trace: &FleetTrace) -> FleetReport {
        Self::run_with_scheduler(config, trace, CalendarQueue::new())
    }

    /// Runs on the binary-heap scheduler (differential baseline).
    pub fn run_on_heap(config: FleetConfig, trace: &FleetTrace) -> FleetReport {
        Self::run_with_scheduler(config, trace, EventQueue::new())
    }

    /// Runs on an explicit scheduler.
    ///
    /// # Panics
    ///
    /// Panics when the fault plan references shards that can never
    /// exist, or when end-of-run conservation fails (an accepted
    /// request unaccounted for — a simulator bug, never a workload
    /// property).
    pub fn run_with_scheduler<Q: EventScheduler<FleetEv>>(
        config: FleetConfig,
        trace: &FleetTrace,
        queue: Q,
    ) -> FleetReport {
        let initial_shards = config.shards.max(1);
        config
            .faults
            .validate(initial_shards)
            .expect("fleet fault plan targets shards that can never exist");
        // Fault plans may join shards beyond the initial fleet:
        // pre-size the table so ids are stable.
        let total_slots = config
            .faults
            .max_shard()
            .map_or(initial_shards, |m| initial_shards.max(m + 1));
        let cost = CostModel::new(GpuSpec::h800(), fps_diffusion::ModelConfig::paper_sdxl());
        let engine = EngineKind::FlashPs { kv: true };
        let deadline = SimDuration::from_secs_f64(config.deadline_secs);
        let full_steps = cost.model.steps;
        // Seconds one request of `ratio` occupies a lane: this
        // simulator's pools are k independent lanes, each serving one
        // request at the single-item step latency.
        let typical_secs = |ratio: f64| {
            engine
                .step_latency(&cost, &[BatchItem { mask_ratio: ratio }])
                .as_secs_f64()
                * full_steps as f64
        };
        let ring = HashRing::with_shards(initial_shards);
        let shards: Vec<Shard> = (0..total_slots)
            .map(|sx| {
                let plane = ControlPlane::for_pool(
                    &cost,
                    config.max_batch,
                    config.mean_mask_ratio,
                    config.deadline_secs,
                    config.workers_per_shard.max(1) * config.max_batch,
                    typical_secs(config.mean_mask_ratio),
                    config.allow_degradation,
                )
                .with_trace(config.trace.clone())
                .with_control_track(Track::new(1, sx));
                Shard {
                    plane,
                    pools: (0..config.workers_per_shard.max(1))
                        .map(|_| MultiResource::new(config.max_batch))
                        .collect(),
                    scaler: config.autoscaler.clone().map(Autoscaler::new),
                    outstanding: 0,
                    window: ScaleWindow::default(),
                    alive: sx < initial_shards,
                    joined: sx < initial_shards,
                    partitioned: false,
                    slow_factor: 1.0,
                    slow_until: SimTime::ZERO,
                    ledger: SloLedger::new(config.deadline_secs),
                }
            })
            .collect();
        // The R-replicated activation store: host tier sized in
        // templates exactly like the pre-replica per-shard LRU cache.
        let store_config = StoreConfig {
            host_capacity: config.cache_capacity.max(1) as u64 * config.template_bytes,
            disk_capacity: u64::MAX,
            disk_read_bw: 2.0 * (1u64 << 30) as f64,
        };
        let mut store = ReplicatedStore::new(
            total_slots,
            config.replicas,
            store_config,
            BreakerConfig::default(),
            config.template_bytes,
        )
        .with_placement(config.placement);
        if let Some(n) = config.replica_budget_templates {
            store = store.with_replica_budget(n as u64 * config.template_bytes);
        }
        // Pre-prime every template onto its planned owners —
        // identically for every strategy, so hit-rate comparisons
        // measure routing, not starting conditions. The popularity
        // prior is "yesterday's histogram": the whole trace's request
        // counts, exactly what a production planner carries over from
        // the previous day.
        let total_templates: u64 = trace
            .trace
            .requests
            .iter()
            .map(|r| r.template_id + 1)
            .max()
            .unwrap_or(0);
        let templates: Vec<u64> = (0..total_templates).collect();
        let mut prior: HashMap<u64, u64> = HashMap::new();
        for r in &trace.trace.requests {
            *prior.entry(r.template_id).or_insert(0) += 1;
        }
        store.prime_all(
            &templates,
            |t| ring.preference(t),
            |t| prior.get(&t).copied().unwrap_or(0),
            SimTime::ZERO,
        );
        let router = FleetRouter::new(config.strategy, ring);
        let actions = compile_plan(&config.faults);
        let strategy = config.strategy.name();
        let policy = config.placement.name();
        // Feedback unknown-pair prior: the cost of serving a template
        // on a shard that has never been observed or hinted. With no
        // replicas that is the cold recompute (full-latent minus the
        // typical masked pass). With R >= 2 it is one replica read —
        // write-through then makes the serving shard host-resident —
        // so non-owner shards price at the transfer cost, not the
        // recompute. That keeps them explorable: a template thrashing
        // between two oversubscribed owners measures the same promote
        // cost the prior quotes, and the churn tie-break can diffuse
        // it to a quiet non-owner where the copy actually sticks.
        let cold_prior_secs = (typical_secs(1.0) - typical_secs(config.mean_mask_ratio)).max(0.0);
        let miss_prior_secs = if config.replicas >= 2 {
            (config.template_bytes as f64 / store_config.disk_read_bw).min(cold_prior_secs)
        } else {
            cold_prior_secs
        };
        let feedback = CacheFeedback::new(total_slots, 0.3, miss_prior_secs);
        let scale_interval = SimDuration::from_secs_f64(config.scale_interval_secs.max(0.001));
        let cache_fetch_hist = SloLedger::histogram(config.deadline_secs);
        let timeline = GoodputTimeline::new(config.recovery_window_secs);
        let first_fault_secs = config.faults.first_fault_at().map(|t| t.as_secs_f64());
        let arrivals_end_secs = trace
            .trace
            .requests
            .last()
            .map(|r| r.arrival().as_secs_f64())
            .unwrap_or(0.0);
        let mut world = World {
            trace,
            shards,
            router,
            store,
            cost,
            engine,
            config,
            deadline,
            actions,
            templates,
            registry: HashMap::new(),
            next_seq: 0,
            parked: VecDeque::new(),
            timeline,
            spills: 0,
            cache_hits: 0,
            failover_hits: 0,
            cache_misses: 0,
            rerouted: 0,
            crash_failed: 0,
            re_primed: 0,
            feedback,
            live_popularity: HashMap::new(),
            cache_fetch_hist,
            replans: 0,
            last_completion: SimTime::ZERO,
            inflight: 0,
            next_arrival: 0,
        };
        // Seed the feedback priors from the initial placement, so
        // feedback routing starts aligned with the directory instead
        // of learning it from misses.
        world.refresh_feedback_hints();
        let mut sim: Simulation<FleetEv, Q> = Simulation::with_scheduler(queue);
        for (i, req) in trace.trace.requests.iter().enumerate() {
            sim.queue_mut()
                .schedule_at(req.arrival(), FleetEv::Arrival(i));
        }
        for (ix, &(at, _)) in world.actions.iter().enumerate() {
            sim.queue_mut().schedule_at(at, FleetEv::Fault(ix));
        }
        if !trace.trace.is_empty() {
            sim.queue_mut()
                .schedule_after(scale_interval, FleetEv::ScaleTick);
            if world.store.reacts_to_popularity() {
                sim.queue_mut().schedule_after(
                    SimDuration::from_secs_f64(world.config.replan_interval_secs.max(0.001)),
                    FleetEv::Replan,
                );
            }
        }
        sim.run(&mut world);
        // Requests still parked when the run ends never found a
        // routable shard: terminal, and accounted.
        let parked_failed = world.parked.len() as u64;
        world.parked.clear();
        // Conservation, per shard: every attempt a shard took ended
        // there (fleet-wide below, after the rollup).
        for (sx, s) in world.shards.iter().enumerate() {
            assert_eq!(s.ledger.lost(), 0, "shard {sx} lost requests");
        }
        // Roll up.
        let makespan_secs = world.last_completion.as_secs_f64();
        let window_secs = makespan_secs.max(1e-9);
        let shard_reports: Vec<ShardSloReport> = world
            .shards
            .iter()
            .enumerate()
            .map(|(sx, s)| ShardSloReport {
                shard: sx as u32,
                report: s.ledger.report(&format!("shard-{sx}"), window_secs),
                ledger: s.ledger.clone(),
            })
            .collect();
        let store_stats = world.store.stats();
        let cache_counters = FleetCacheCounters {
            local_hits: world.cache_hits,
            failover_hits: world.failover_hits,
            misses: world.cache_misses,
            breaker_short_circuits: store_stats.breaker_short_circuits,
            re_primes: world.re_primed,
        };
        // Per-template request counts, read through the sorted template
        // universe for a deterministic histogram.
        let counts: Vec<(u64, u64)> = world
            .templates
            .iter()
            .map(|&t| (t, world.live_popularity.get(&t).copied().unwrap_or(0)))
            .collect();
        // Every shard ledger was built for the one run deadline, and
        // the table always holds at least one shard: merge cannot
        // refuse.
        let fleet = FleetSloReport::merge("fleet", window_secs, &shard_reports)
            .expect("one deadline, at least one shard")
            .with_cache(cache_counters)
            .with_popularity(PopularityHistogram::from_counts(&counts, 16));
        // Conservation, fleet-wide: every trace request is accounted
        // exactly once — completed, shed, rejected, crash-failed, or
        // parked.
        let f = &fleet.fleet;
        assert_eq!(
            f.served + f.shed + f.deadline_rejected + world.crash_failed + parked_failed,
            trace.trace.len() as u64,
            "fleet dropped requests silently during churn"
        );
        let recovery = first_fault_secs.and_then(|fault_at| {
            FleetRecoveryReport::analyze(&world.timeline, fault_at, arrivals_end_secs, 0.9).map(
                |r| {
                    r.with_counters(
                        world.rerouted,
                        world.failover_hits,
                        world.re_primed,
                        world.crash_failed,
                        store_stats.breaker_short_circuits,
                    )
                },
            )
        });
        let scalers = || world.shards.iter().filter_map(|s| s.scaler.as_ref());
        FleetReport {
            strategy,
            policy,
            shard_reports,
            fleet,
            cache_hits: world.cache_hits,
            failover_hits: world.failover_hits,
            cache_misses: world.cache_misses,
            spills: world.spills,
            rerouted: world.rerouted,
            crash_failed: world.crash_failed,
            parked_failed,
            re_primed: world.re_primed,
            breaker_short_circuits: store_stats.breaker_short_circuits,
            replans: world.replans,
            replica_evictions: world.store.replica_evictions(),
            cache_fetch_p95_secs: world.cache_fetch_hist.percentile(0.95),
            scale_ups: scalers().map(Autoscaler::ups).sum(),
            scale_downs: scalers().map(Autoscaler::downs).sum(),
            scale_down_vetoes: scalers().map(Autoscaler::vetoed_downs).sum(),
            final_workers: world.shards.iter().map(|s| s.pools.len()).collect(),
            makespan_secs,
            events_processed: sim.events_processed(),
            recovery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_chaos::{FleetFaultEvent, FleetFaultProfile};
    use fps_workload::{FleetTraceConfig, TenantSpec};

    fn small_trace() -> FleetTrace {
        FleetTrace::generate(&FleetTraceConfig {
            tenants: vec![TenantSpec::new("t", 3.0, 48)],
            duration_secs: 120.0,
            diurnal: None,
            seed: 42,
        })
    }

    fn config(strategy: RouteStrategy) -> FleetConfig {
        FleetConfig {
            shards: 4,
            workers_per_shard: 2,
            max_batch: 4,
            cache_capacity: 12,
            strategy,
            ..Default::default()
        }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    #[test]
    fn conservation_holds_per_shard_and_fleet() {
        let trace = small_trace();
        let r = FleetSim::run(
            config(RouteStrategy::Affinity { load_factor: 1.25 }),
            &trace,
        );
        assert_eq!(r.fleet.fleet.submitted, trace.trace.len() as u64);
        assert_eq!(r.fleet.fleet.lost(), 0, "requests vanished");
        for s in &r.shard_reports {
            assert_eq!(s.report.lost(), 0, "shard {} lost requests", s.shard);
        }
        assert!(r.fleet.fleet.served > 0);
        assert!(r.makespan_secs > 0.0);
        // Two events per request plus scale ticks.
        assert!(r.events_processed >= 2 * r.fleet.fleet.served);
    }

    #[test]
    fn replays_are_byte_identical_on_both_schedulers() {
        let trace = small_trace();
        let cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        let a = FleetSim::run(cfg.clone(), &trace)
            .to_json()
            .to_string_compact();
        let b = FleetSim::run(cfg.clone(), &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a, b, "same scheduler, same bytes");
        let heap = FleetSim::run_on_heap(cfg, &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a, heap, "calendar and heap runs diverged");
    }

    #[test]
    fn affinity_beats_round_robin_on_hit_rate() {
        let trace = small_trace();
        let aff = FleetSim::run(
            config(RouteStrategy::Affinity { load_factor: 1.25 }),
            &trace,
        );
        let rr = FleetSim::run(config(RouteStrategy::RoundRobin), &trace);
        assert!(
            aff.hit_rate() > rr.hit_rate(),
            "affinity {} vs round-robin {}",
            aff.hit_rate(),
            rr.hit_rate()
        );
    }

    #[test]
    fn autoscaler_grows_pools_under_pressure() {
        let trace = FleetTrace::generate(&FleetTraceConfig {
            tenants: vec![TenantSpec::new("hot", 12.0, 32)],
            duration_secs: 300.0,
            diurnal: None,
            seed: 9,
        });
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.workers_per_shard = 1;
        cfg.autoscaler = Some(AutoscalerConfig {
            min_workers: 1,
            max_workers: 6,
            up_ticks: 1,
            cooldown: SimDuration::from_secs_f64(10.0),
            ..Default::default()
        });
        let r = FleetSim::run(cfg, &trace);
        assert!(r.scale_ups > 0, "no scale-ups under overload");
        assert!(r.final_workers.iter().any(|&w| w > 1));
    }

    #[test]
    fn empty_trace_produces_an_empty_report() {
        let trace = FleetTrace::generate(&FleetTraceConfig {
            tenants: vec![],
            duration_secs: 10.0,
            diurnal: None,
            seed: 0,
        });
        let r = FleetSim::run(config(RouteStrategy::RoundRobin), &trace);
        assert_eq!(r.fleet.fleet.submitted, 0);
        assert_eq!(r.events_processed, 0);
    }

    #[test]
    fn crash_reroutes_in_flight_without_losing_requests() {
        let trace = small_trace();
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.faults = FleetFaultPlan::new(
            1,
            vec![FleetFaultEvent {
                at: secs(40.0),
                kind: FleetFaultKind::ShardCrash {
                    shard: 0,
                    downtime: SimDuration::from_secs_f64(30.0),
                },
            }],
        );
        let r = FleetSim::run(cfg, &trace);
        // The run-level conservation assert already fired inside run();
        // check the crash actually exercised the machinery.
        assert!(r.rerouted > 0 || r.shard_reports[0].report.submitted == 0);
        assert_eq!(r.fleet.fleet.lost(), 0);
        assert!(r.recovery.is_some(), "faulted runs report recovery");
    }

    #[test]
    fn replicas_convert_misses_into_failover_hits_under_crash() {
        let trace = small_trace();
        let mut base = config(RouteStrategy::Affinity { load_factor: 1.25 });
        base.faults = FleetFaultProfile::CrashStorm.plan(7, secs(120.0), 4);
        let mut replicated = base.clone();
        replicated.replicas = 2;
        let solo = FleetSim::run(base, &trace);
        let dup = FleetSim::run(replicated, &trace);
        assert_eq!(solo.failover_hits, 0, "R=1 has nowhere to fail over");
        assert!(dup.failover_hits > 0, "R=2 must fail over under crashes");
        assert!(
            dup.effective_hit_rate() > solo.effective_hit_rate(),
            "replicas {} vs baseline {}",
            dup.effective_hit_rate(),
            solo.effective_hit_rate()
        );
    }

    #[test]
    fn crash_storm_balances_every_shard_ledger() {
        let trace = small_trace();
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.faults = FleetFaultProfile::CrashStorm.plan(7, secs(120.0), 4);
        let r = FleetSim::run(cfg, &trace);
        assert!(r.rerouted > 0, "the storm must kill in-flight attempts");
        for s in &r.shard_reports {
            assert_eq!(s.ledger.lost(), 0, "shard {} lost requests", s.shard);
            let r = &s.report;
            assert_eq!(
                r.submitted,
                r.served + r.shed + r.deadline_rejected + r.other_rejected,
                "shard {} resolved an attempt twice",
                s.shard
            );
        }
        let killed: u64 = r
            .shard_reports
            .iter()
            .map(|s| s.ledger.other_rejected)
            .sum();
        assert_eq!(killed, r.rerouted + r.crash_failed);
        // The rollup is the report of the merged shard ledgers.
        let mut merged = r.shard_reports[0].ledger.clone();
        for s in &r.shard_reports[1..] {
            assert!(merged.merge(&s.ledger));
        }
        let window = r.makespan_secs.max(1e-9);
        assert_eq!(r.fleet.fleet, merged.report("fleet", window));
    }

    #[test]
    fn faulted_runs_replay_byte_identically() {
        let trace = small_trace();
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.faults = FleetFaultProfile::CrashStorm.plan(11, secs(120.0), 4);
        cfg.replicas = 2;
        let a = FleetSim::run(cfg.clone(), &trace)
            .to_json()
            .to_string_compact();
        let b = FleetSim::run(cfg.clone(), &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a, b);
        let heap = FleetSim::run_on_heap(cfg, &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a, heap, "faulted calendar and heap runs diverged");
    }

    #[test]
    fn graceful_leave_drains_and_join_takes_over() {
        let trace = small_trace();
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.replicas = 2;
        cfg.faults = FleetFaultPlan::new(
            3,
            vec![
                FleetFaultEvent {
                    at: secs(30.0),
                    kind: FleetFaultKind::ShardLeave { shard: 1 },
                },
                FleetFaultEvent {
                    at: secs(50.0),
                    kind: FleetFaultKind::ShardJoin { shard: 4 },
                },
            ],
        );
        let r = FleetSim::run(cfg, &trace);
        assert_eq!(r.crash_failed, 0, "graceful leave kills nothing");
        assert_eq!(r.fleet.fleet.lost(), 0);
        // The joiner exists in the report and took traffic.
        assert_eq!(r.shard_reports.len(), 5);
        assert!(r.shard_reports[4].report.submitted > 0);
        assert!(r.re_primed > 0, "join re-primes moved templates");
    }

    #[test]
    fn zero_routable_shards_parks_then_drains() {
        // One shard, crashed mid-run: requests park, then drain at
        // rejoin; stale ones deadline-reject rather than vanish.
        let trace = FleetTrace::generate(&FleetTraceConfig {
            tenants: vec![TenantSpec::new("t", 2.0, 8)],
            duration_secs: 60.0,
            diurnal: None,
            seed: 5,
        });
        let mut cfg = config(RouteStrategy::RoundRobin);
        cfg.shards = 1;
        cfg.faults = FleetFaultPlan::new(
            2,
            vec![FleetFaultEvent {
                at: secs(20.0),
                kind: FleetFaultKind::ShardCrash {
                    shard: 0,
                    downtime: SimDuration::from_secs_f64(15.0),
                },
            }],
        );
        let r = FleetSim::run(cfg, &trace);
        // Conservation held (asserted in run); parked requests either
        // drained into terminal outcomes or were flushed as failed.
        assert_eq!(r.fleet.fleet.lost(), 0);
        assert!(r.fleet.fleet.served > 0);
    }

    #[test]
    fn popularity_placement_under_budget_replays_identically_through_chaos() {
        let trace = small_trace();
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.replicas = 2;
        cfg.placement = PlacementSpec::Popularity;
        cfg.replica_budget_templates = Some(12);
        cfg.replan_interval_secs = 20.0;
        cfg.faults = FleetFaultProfile::CrashStorm.plan(7, secs(120.0), 4);
        let a = FleetSim::run(cfg.clone(), &trace);
        assert_eq!(a.policy, "popularity");
        assert!(a.replans > 0, "popularity policy never re-planned");
        assert_eq!(a.fleet.fleet.lost(), 0);
        let a_json = a.to_json().to_string_compact();
        let b = FleetSim::run(cfg.clone(), &trace)
            .to_json()
            .to_string_compact();
        let heap = FleetSim::run_on_heap(cfg, &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a_json, b, "popularity replay diverged");
        assert_eq!(a_json, heap, "calendar and heap runs diverged");
    }

    #[test]
    fn ring_order_never_replans_and_reports_its_policy() {
        let trace = small_trace();
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.replicas = 2;
        let r = FleetSim::run(cfg, &trace);
        assert_eq!(r.policy, "ring-order");
        assert_eq!(r.replans, 0, "ring order must never schedule a re-plan");
        assert_eq!(r.replica_evictions, 0, "unbounded budget never evicts");
    }

    #[test]
    fn feedback_affinity_replays_identically_and_serves() {
        let trace = small_trace();
        let mut cfg = config(RouteStrategy::FeedbackAffinity { load_factor: 1.25 });
        cfg.replicas = 2;
        let a = FleetSim::run(cfg.clone(), &trace);
        assert_eq!(a.strategy, "feedback-affinity");
        assert!(a.fleet.fleet.served > 0);
        assert!(a.cache_fetch_p95_secs >= 0.0);
        let a_json = a.to_json().to_string_compact();
        let heap = FleetSim::run_on_heap(cfg, &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a_json, heap, "feedback routing diverged across schedulers");
    }

    #[test]
    fn disk_degrade_is_health_silent_but_inflates_fetch_costs() {
        let trace = small_trace();
        let run = |faults: FleetFaultPlan| {
            let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
            cfg.replicas = 2;
            // Host tier far smaller than the working set: promotes recur.
            cfg.cache_capacity = 4;
            cfg.faults = faults;
            FleetSim::run(cfg, &trace)
        };
        let healthy = run(FleetFaultPlan::none());
        let plan = || {
            FleetFaultPlan::new(
                3,
                (0..2)
                    .map(|shard| FleetFaultEvent {
                        at: secs(5.0),
                        kind: FleetFaultKind::DiskDegrade {
                            shard,
                            factor: 8.0,
                            duration: SimDuration::from_secs_f64(110.0),
                        },
                    })
                    .collect(),
            )
        };
        let gray = run(plan());
        // Gray failure: every shard keeps serving (health checks see
        // nothing, no request is lost) ...
        assert_eq!(gray.fleet.fleet.lost(), 0);
        for s in &gray.shard_reports {
            assert!(s.report.submitted > 0, "shard {} stopped serving", s.shard);
        }
        // ... but promotes on the degraded shards cost 8x, which the
        // fetch-cost histogram must surface.
        assert!(
            gray.cache_fetch_p95_secs > healthy.cache_fetch_p95_secs,
            "degraded p95 {} not above healthy {}",
            gray.cache_fetch_p95_secs,
            healthy.cache_fetch_p95_secs
        );
        // Deterministic across schedulers like every other fault.
        let a_json = gray.to_json().to_string_compact();
        let mut cfg = config(RouteStrategy::Affinity { load_factor: 1.25 });
        cfg.replicas = 2;
        cfg.cache_capacity = 4;
        cfg.faults = plan();
        let heap = FleetSim::run_on_heap(cfg, &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a_json, heap, "disk degrade diverged across schedulers");
    }
}
