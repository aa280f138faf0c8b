//! The virtual-time stage-graph simulator.
//!
//! One [`StageGraphSim`] run drives a seeded [`Trace`] through a
//! [`StageGraph`]: every stage owns a worker pool, a bounded entry
//! queue ([`StageQueue`]), and its own clock-generic
//! [`ControlPlane`] — the same policy type the cluster simulator, the
//! fleet simulator, and the threaded server consult. Degradation is
//! per-stage: admission sheds at the encode plane, the denoise plane's
//! ladder cuts steps, and the decode plane's ladder downscales output.
//!
//! The denoise stage runs *stage-level continuous batching*: each
//! denoise worker interleaves up to `lanes` sessions, advancing the
//! whole batch one step per tick and admitting newly queued requests
//! only at step boundaries (§4.3). Finished members hand off to the
//! decode queue; when that queue is full the member keeps its batch
//! slot (backpressure), and members whose deadline lapses at a tick
//! are dropped on the spot, freeing the slot.
//!
//! A monolithic arm ([`StageGraphConfig::monolithic`]) reuses the same
//! machinery with a denoise-only graph and *inline* CPU costs: session
//! setup (preprocess + text-encode) and teardown (VAE decode +
//! postprocess) block the worker between step ticks, exactly like the
//! single-pool threaded server. The GPU-bubble comparison between the
//! two arms is the paper's §4.3 disaggregation claim, generalized.
//!
//! Determinism matches the fleet simulator's bar: byte-identical
//! reports across reruns and across event schedulers, with an end-of-
//! run conservation assert (served + shed + expired = submitted) plus
//! a per-queue conservation check on every edge.
//!
//! [`Trace`]: fps_workload::Trace

use fps_json::{Json, ToJson};
use fps_metrics::{
    Autoscaler, AutoscalerConfig, ScaleDecision, ScaleWindow, SloLedger, SloReport, StageQueueStats,
};
use fps_overload::Rung;
use fps_serving::cost::{BatchItem, CpuCosts};
use fps_serving::overload::rung_steps;
use fps_serving::{
    Assessment, ControlPlane, CostModel, EngineKind, GpuSpec, LeastLoadedRouter, TraceSink, Track,
};
use fps_simtime::{
    CalendarQueue, EventHandler, EventQueue, EventScheduler, SimDuration, SimTime, Simulation,
};
use fps_trace::Clock;
use fps_workload::Trace;

use crate::graph::{StageGraph, StageKind, StageSpec};
use crate::queue::StageQueue;

/// Text encoding modeled as this fraction of one batch-1 denoising
/// step (the CLIP tower is small next to the UNet).
const TEXT_ENCODE_STEP_FRACTION: f64 = 0.4;
/// VAE decode modeled as this multiple of one batch-1 denoising step.
const VAE_DECODE_STEP_FRACTION: f64 = 1.2;
/// Service-time factor for a downscaled (half-resolution) decode.
const DOWNSCALE_FACTOR: f64 = 0.25;

/// Stage-graph run parameters.
#[derive(Debug, Clone)]
pub struct StageGraphConfig {
    /// The stage topology and pool shapes.
    pub graph: StageGraph,
    /// SLO deadline, seconds from arrival.
    pub deadline_secs: f64,
    /// Typical mask ratio of the offered load (sizes admission
    /// estimates, as everywhere else).
    pub mean_mask_ratio: f64,
    /// Let the per-stage ladders degrade (step-reduce, downscale).
    /// Off pins every plane at premium quality; admission still sheds.
    pub allow_degradation: bool,
    /// Fold CPU pre/post and encode/decode into the denoise workers
    /// (the monolithic arm). Requires a denoise-only graph.
    pub inline_cpu: bool,
    /// CPU-side costs (preprocess, postprocess, per-edge handoff).
    /// Scale these up to model a CPU-heavy workload.
    pub cpu: CpuCosts,
    /// Per-stage pool autoscaling from windowed queue-wait signals;
    /// `None` freezes every pool (byte-identical to the pre-scaler
    /// simulator — no tick events are even scheduled).
    pub autoscaler: Option<AutoscalerConfig>,
    /// Seconds between autoscaler observation windows.
    pub scale_interval_secs: f64,
    /// Trace sink for stage spans and queue boundary events. Must be
    /// virtual-clock (or disabled): this is a virtual-time plane.
    pub trace: TraceSink,
}

impl StageGraphConfig {
    /// A disaggregated run over `graph`.
    pub fn staged(graph: StageGraph) -> Self {
        Self {
            graph,
            deadline_secs: 30.0,
            mean_mask_ratio: 0.11,
            allow_degradation: true,
            inline_cpu: false,
            cpu: CpuCosts::default(),
            autoscaler: None,
            scale_interval_secs: 10.0,
            trace: TraceSink::disabled(),
        }
    }

    /// The monolithic comparison arm: `workers` single-pool workers,
    /// each interleaving `lanes` sessions, with CPU work inline.
    pub fn monolithic(workers: usize, lanes: usize, queue_capacity: usize) -> Self {
        let graph = StageGraph::linear(vec![StageSpec::new(
            StageKind::Denoise,
            workers,
            queue_capacity,
        )
        .with_lanes(lanes)])
        .expect("denoise-only graph is valid");
        Self {
            inline_cpu: true,
            ..Self::staged(graph)
        }
    }
}

/// Per-stage accounting of one run.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage label.
    pub stage: &'static str,
    /// Requests that completed this stage's service.
    pub served_through: u64,
    /// Requests dropped at this stage because their deadline lapsed.
    pub expired: u64,
    /// Worker-seconds of actual service (excludes backpressure holds
    /// and, on the monolithic arm, inline CPU blocks).
    pub busy_secs: f64,
    /// `busy_secs / (workers × window)` — pool utilization.
    pub utilization: f64,
    /// Entry-queue stats (depth, pooled wait percentiles).
    pub queue: StageQueueStats,
    /// Backpressure bounces the entry queue refused.
    pub rejected_full: u64,
}

/// Starvation of one inter-stage edge: the fraction of the run window
/// the downstream pool sat idle. High values mean the edge (or the
/// stages above it) could not feed the pool.
#[derive(Debug, Clone)]
pub struct EdgeReport {
    /// "from→to" label.
    pub label: String,
    /// Requests handed across the edge.
    pub handoffs: u64,
    /// Peak queue depth on the edge.
    pub max_depth: u64,
    /// Idle fraction of the downstream pool over the run window.
    pub bubble_fraction: f64,
}

impl ToJson for EdgeReport {
    fn to_json(&self) -> Json {
        Json::object()
            .with("edge", self.label.as_str())
            .with("handoffs", self.handoffs)
            .with("max_depth", self.max_depth)
            .with("bubble_fraction", self.bubble_fraction)
    }
}

/// What one stage-graph run produced.
#[derive(Debug, Clone)]
pub struct StagedRunReport {
    /// Arm label ("staged" / "monolithic").
    pub label: String,
    /// SLO accounting, with per-stage queue stats attached and
    /// `bubble_fraction` set to the GPU (denoise-pool) bubble.
    pub slo: SloReport,
    /// Per-stage pools.
    pub stage_reports: Vec<StageReport>,
    /// Per-edge starvation.
    pub edges: Vec<EdgeReport>,
    /// Idle fraction of the denoise pool over the run window — the
    /// figure disaggregation exists to shrink.
    pub gpu_bubble_fraction: f64,
    /// Requests decoded at reduced resolution (decode-plane ladder).
    pub downscaled: u64,
    /// Scale-up actions across all stage pools.
    pub scale_ups: u64,
    /// Scale-down actions across all stage pools.
    pub scale_downs: u64,
    /// Per-stage pool sizes at the end of the run (graph order).
    pub final_workers: Vec<usize>,
    /// Virtual seconds from first arrival to last completion.
    pub makespan_secs: f64,
    /// Events the scheduler processed.
    pub events_processed: u64,
}

impl ToJson for StagedRunReport {
    fn to_json(&self) -> Json {
        Json::object()
            .with("label", self.label.as_str())
            .with("slo", self.slo.to_json())
            .with(
                "stages",
                Json::Array(
                    self.stage_reports
                        .iter()
                        .map(|s| {
                            Json::object()
                                .with("stage", s.stage)
                                .with("served_through", s.served_through)
                                .with("expired", s.expired)
                                .with("busy_secs", s.busy_secs)
                                .with("utilization", s.utilization)
                                .with("rejected_full", s.rejected_full)
                                .with("queue", s.queue.to_json())
                        })
                        .collect(),
                ),
            )
            .with("edges", self.edges.to_json())
            .with("gpu_bubble_fraction", self.gpu_bubble_fraction)
            .with("downscaled", self.downscaled)
            .with("scale_ups", self.scale_ups)
            .with("scale_downs", self.scale_downs)
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
            .with("events_processed", self.events_processed)
    }
}

/// Stage-graph events. Public so callers can plug in their own
/// [`EventScheduler`] via [`StageGraphSim::run_with_scheduler`].
#[derive(Debug, Clone, Copy)]
pub enum StageEv {
    /// Request `trace[i]` arrives at the graph entry.
    Arrival(usize),
    /// A non-denoise stage finished serving `seq`.
    StageDone {
        /// Stage index in the graph.
        stage: usize,
        /// Request sequence number (trace index).
        seq: u64,
    },
    /// Denoise worker `worker` completed one step interval.
    DenoiseTick {
        /// Worker index within the denoise pool.
        worker: usize,
    },
    /// Autoscaler observation window closes (scheduled only when the
    /// config carries an autoscaler).
    ScaleTick,
}

/// One accepted request's live state.
#[derive(Debug, Clone, Copy)]
struct Req {
    arrival: SimTime,
    deadline: SimTime,
    mask_ratio: f64,
    /// Steps remaining at the denoise stage (set at batch admission).
    remaining_steps: usize,
    rung: Option<Rung>,
    downscaled: bool,
}

/// One denoise worker's continuous batch.
#[derive(Debug, Default)]
struct DenoiseWorker {
    /// Sessions being stepped.
    members: Vec<u64>,
    /// Finished members blocked on a full downstream queue — they
    /// keep their batch slot until the queue drains.
    done_stalled: Vec<u64>,
    /// Whether a tick is scheduled.
    ticking: bool,
}

impl DenoiseWorker {
    fn occupied(&self) -> usize {
        self.members.len() + self.done_stalled.len()
    }
}

/// One stage's live state.
struct Stage {
    /// Pool shape; the scaler keeps `spec.workers` at the live pool
    /// size (for denoise, the length of `workers`).
    spec: StageSpec,
    plane: ControlPlane<LeastLoadedRouter>,
    queue: StageQueue,
    /// Occupied lanes (service plus backpressure holds); non-denoise.
    busy: usize,
    /// Finished-but-blocked requests holding lanes; non-denoise.
    stalled: std::collections::VecDeque<u64>,
    /// Denoise pool (empty for other stages).
    workers: Vec<DenoiseWorker>,
    /// Requests in this stage's queue or service.
    outstanding: usize,
    served_through: u64,
    expired: u64,
    busy_secs: f64,
    downscaled: u64,
    /// Hysteretic pool scaler (None freezes the pool).
    scaler: Option<Autoscaler>,
    /// Queue waits of requests popped since the last scale tick.
    window: ScaleWindow,
    /// `busy_secs` at the last scale tick, for windowed utilization.
    window_busy_mark: f64,
}

struct World<'a> {
    trace: &'a Trace,
    stages: Vec<Stage>,
    config: StageGraphConfig,
    cost: CostModel,
    engine: EngineKind,
    deadline: SimDuration,
    /// Index of the stage whose plane gates admission (first GPU
    /// stage, else stage 0).
    gate_ix: usize,
    denoise_ix: usize,
    requests: Vec<Req>,
    /// Accepted and not yet terminal.
    inflight: usize,
    /// Every arrival and how it ended (deadline lapses count as
    /// `deadline_rejected`); served rungs are the denoise plane's.
    ledger: SloLedger,
    last_completion: SimTime,
}

impl World<'_> {
    fn bottleneck_capacity(&self) -> usize {
        self.stages[self.denoise_ix].spec.capacity()
    }

    /// Per-request service seconds at a stage (denoise excluded — its
    /// cost accrues per tick). The staged arm pays the disaggregation
    /// handoff on every non-entry stage.
    fn stage_service(&self, ix: usize, req: &Req) -> SimDuration {
        let kind = self.stages[ix].spec.kind;
        let one_step = self.cost.step_latency_full(1).as_secs_f64();
        let base = match kind {
            StageKind::Preprocess => self.config.cpu.preprocess.as_secs_f64(),
            StageKind::TextEncode => one_step * TEXT_ENCODE_STEP_FRACTION,
            StageKind::VaeDecode => {
                let d = one_step * VAE_DECODE_STEP_FRACTION;
                if req.downscaled {
                    d * DOWNSCALE_FACTOR
                } else {
                    d
                }
            }
            StageKind::Postprocess => self.config.cpu.postprocess.as_secs_f64(),
            StageKind::Denoise => unreachable!("denoise cost accrues per tick"),
        };
        let handoff = if ix > 0 {
            self.config.cpu.disagg_handoff.as_secs_f64()
        } else {
            0.0
        };
        SimDuration::from_secs_f64(base + handoff)
    }

    /// One step interval for a denoise batch.
    fn step_latency(&self, members: &[u64]) -> SimDuration {
        let items: Vec<BatchItem> = members
            .iter()
            .map(|&s| BatchItem {
                mask_ratio: self.requests[s as usize].mask_ratio,
            })
            .collect();
        self.engine.step_latency(&self.cost, &items)
    }

    /// Inline CPU seconds the monolithic arm pays on the worker for
    /// one session setup (preprocess + text-encode).
    fn inline_setup_secs(&self) -> f64 {
        self.config.cpu.preprocess.as_secs_f64()
            + self.cost.step_latency_full(1).as_secs_f64() * TEXT_ENCODE_STEP_FRACTION
    }

    /// Inline CPU seconds for one session teardown (decode + post).
    fn inline_teardown_secs(&self, req: &Req) -> f64 {
        let decode = self.cost.step_latency_full(1).as_secs_f64()
            * VAE_DECODE_STEP_FRACTION
            * if req.downscaled {
                DOWNSCALE_FACTOR
            } else {
                1.0
            };
        decode + self.config.cpu.postprocess.as_secs_f64()
    }

    fn emit_exec(&self, ix: usize, start: SimTime, end: SimTime, batch: usize) {
        if !self.config.trace.is_enabled() {
            return;
        }
        self.config.trace.span_at(
            "stage_exec",
            "stage",
            Track::new(4, ix as u32),
            start.as_nanos(),
            end.as_nanos(),
            0,
            vec![
                (
                    "stage",
                    Json::Str(self.stages[ix].spec.kind.label().to_string()),
                ),
                ("batch", Json::U64(batch as u64)),
            ],
        );
    }

    /// Terminal: the request completed the whole graph.
    fn complete(&mut self, seq: u64, at: SimTime) {
        let req = self.requests[seq as usize];
        self.inflight -= 1;
        self.ledger
            .serve(at.since(req.arrival), req.rung.map(Rung::label));
        self.last_completion = self.last_completion.max(at);
    }

    /// Terminal: the request's deadline lapsed at stage `ix`.
    fn expire(&mut self, ix: usize, _seq: u64, at: SimTime) {
        self.stages[ix].expired += 1;
        self.ledger.deadline_rejected += 1;
        self.inflight -= 1;
        self.last_completion = self.last_completion.max(at);
    }

    /// Moves backpressure-stalled requests from stage `ix - 1` into
    /// stage `ix`'s queue while space lasts, freeing upstream lanes.
    /// Returns whether anything moved.
    fn relieve(&mut self, ix: usize, now: SimTime) -> bool {
        if ix == 0 {
            return false;
        }
        let mut moved = false;
        while !self.stages[ix].queue.is_full() {
            let Some(seq) = self.stages[ix - 1].stalled.pop_front() else {
                break;
            };
            let deadline = self.requests[seq as usize].deadline;
            let ok = self.stages[ix].queue.try_enqueue(now, seq, deadline);
            debug_assert!(ok, "space was checked");
            let up = &mut self.stages[ix - 1];
            up.busy -= 1;
            up.served_through += 1;
            up.outstanding -= 1;
            self.stages[ix].outstanding += 1;
            moved = true;
        }
        moved
    }

    /// Starts as much queued work as stage `ix` has lanes for, then
    /// pulls relieved upstream work through. Safe to call any time.
    fn pump<Q: EventScheduler<StageEv>>(&mut self, ix: usize, now: SimTime, queue: &mut Q) {
        if self.stages[ix].spec.kind == StageKind::Denoise {
            self.pump_denoise(ix, now, queue);
            return;
        }
        let capacity = self.stages[ix].spec.capacity();
        let mut popped_any = false;
        while self.stages[ix].busy < capacity {
            let mut expired = Vec::new();
            let live = self.stages[ix].queue.pop_live(now, &mut expired);
            for seq in expired {
                self.expire(ix, seq, now);
                self.stages[ix].outstanding -= 1;
                popped_any = true;
            }
            let Some((seq, wait)) = live else { break };
            popped_any = true;
            if self.stages[ix].scaler.is_some() {
                self.stages[ix].window.queue_waits.push(wait);
            }
            // Decode consults its own plane at service start: under
            // pressure its ladder downscales the output.
            if self.stages[ix].spec.kind == StageKind::VaeDecode && self.config.allow_degradation {
                let outstanding = self.stages[ix].outstanding;
                let capacity = self.stages[ix].spec.capacity();
                let assessment =
                    self.stages[ix]
                        .plane
                        .assess(seq, now, outstanding, capacity, true);
                if let Assessment::Serve { rung: Some(r), .. } = assessment {
                    if matches!(
                        r,
                        Rung::TeaCacheHigh | Rung::TeaCacheLow | Rung::ReducedSteps
                    ) {
                        self.requests[seq as usize].downscaled = true;
                        self.stages[ix].downscaled += 1;
                    }
                }
            }
            let req = self.requests[seq as usize];
            let dur = self.stage_service(ix, &req);
            let finish = now + dur;
            self.stages[ix].busy += 1;
            self.stages[ix].busy_secs += dur.as_secs_f64();
            self.emit_exec(ix, now, finish, 1);
            queue.schedule_at(finish, StageEv::StageDone { stage: ix, seq });
        }
        if popped_any && self.relieve(ix, now) {
            // Upstream lanes freed: let the upstream stage refill, and
            // serve what just landed in our queue.
            self.pump(ix - 1, now, queue);
            self.pump(ix, now, queue);
        }
    }

    /// Admits queued requests into idle denoise workers (running
    /// workers admit at their own step boundaries).
    fn pump_denoise<Q: EventScheduler<StageEv>>(&mut self, ix: usize, now: SimTime, queue: &mut Q) {
        let lanes = self.stages[ix].spec.lanes.max(1);
        let workers = self.stages[ix].workers.len();
        let mut popped_any = false;
        for w in 0..workers {
            if self.stages[ix].workers[w].ticking {
                continue;
            }
            popped_any |= self.admit_denoise_members(ix, w, lanes, now);
            if !self.stages[ix].workers[w].members.is_empty() {
                self.schedule_tick(ix, w, now, queue);
            }
        }
        if popped_any && self.relieve(ix, now) {
            self.pump(ix - 1, now, queue);
            self.pump(ix, now, queue);
        }
    }

    /// Fills worker `w`'s batch from the denoise queue. Returns
    /// whether anything was popped (live or expired).
    fn admit_denoise_members(&mut self, ix: usize, w: usize, lanes: usize, now: SimTime) -> bool {
        let mut popped_any = false;
        while self.stages[ix].workers[w].occupied() < lanes {
            let mut expired = Vec::new();
            let live = self.stages[ix].queue.pop_live(now, &mut expired);
            for seq in expired {
                self.expire(ix, seq, now);
                self.stages[ix].outstanding -= 1;
                popped_any = true;
            }
            let Some((seq, wait)) = live else { break };
            popped_any = true;
            if self.stages[ix].scaler.is_some() {
                self.stages[ix].window.queue_waits.push(wait);
            }
            // The denoise plane's ladder picks this dispatch's rung —
            // and with it the step schedule.
            let outstanding = self.stages[ix].outstanding;
            let capacity = self.stages[ix].spec.capacity();
            let assessment = self.stages[ix]
                .plane
                .assess(seq, now, outstanding, capacity, true);
            let (rung, steps) = match assessment {
                Assessment::Serve { rung, steps } => (rung, steps),
                Assessment::Shed(_) => unreachable!("already-admitted work is never shed"),
            };
            let req = &mut self.requests[seq as usize];
            req.rung = rung;
            req.remaining_steps = steps.max(1);
            self.stages[ix].workers[w].members.push(seq);
        }
        popped_any
    }

    /// Schedules worker `w`'s next step tick: one step interval for
    /// the current batch, plus — on the monolithic arm — the inline
    /// CPU block for members admitted right now.
    fn schedule_tick<Q: EventScheduler<StageEv>>(
        &mut self,
        ix: usize,
        w: usize,
        now: SimTime,
        queue: &mut Q,
    ) {
        let step = self.step_latency(&self.stages[ix].workers[w].members);
        let mut block = 0.0;
        if self.config.inline_cpu {
            // Newly admitted members pay session setup on the worker.
            let fresh = self.stages[ix].workers[w]
                .members
                .iter()
                .filter(|&&s| {
                    let r = &self.requests[s as usize];
                    r.remaining_steps == rung_steps_of(r, self.full_steps())
                })
                .count();
            block = fresh as f64 * self.inline_setup_secs();
        }
        let start = now + SimDuration::from_secs_f64(block);
        let end = start + step;
        self.stages[ix].busy_secs += step.as_secs_f64();
        self.emit_exec(ix, start, end, self.stages[ix].workers[w].members.len());
        self.stages[ix].workers[w].ticking = true;
        queue.schedule_at(end, StageEv::DenoiseTick { worker: w });
    }

    fn full_steps(&self) -> usize {
        self.cost.model.steps
    }
}

/// Steps a request serves at its assigned rung (used to recognize
/// freshly admitted members on the monolithic arm).
fn rung_steps_of(req: &Req, full_steps: usize) -> usize {
    match req.rung {
        Some(r) => rung_steps(r, full_steps),
        None => full_steps,
    }
}

impl<Q: EventScheduler<StageEv>> EventHandler<StageEv, Q> for World<'_> {
    fn handle(&mut self, now: SimTime, event: StageEv, queue: &mut Q) {
        match event {
            StageEv::Arrival(i) => {
                self.ledger.submitted += 1;
                let spec = &self.trace.requests[i];
                let backlog = self.inflight;
                let capacity = self.bottleneck_capacity();
                let gate = self.gate_ix;
                let assessment = self.stages[gate]
                    .plane
                    .assess(spec.id, now, backlog, capacity, false);
                if matches!(assessment, Assessment::Shed(_)) {
                    self.ledger.shed += 1;
                    return;
                }
                let seq = i as u64;
                self.requests[i] = Req {
                    arrival: now,
                    deadline: now + self.deadline,
                    mask_ratio: spec.mask_ratio,
                    remaining_steps: 0,
                    rung: None,
                    downscaled: false,
                };
                if !self.stages[0]
                    .queue
                    .try_enqueue(now, seq, now + self.deadline)
                {
                    // Entry queue full: the graph boundary sheds
                    // rather than backpressuring the outside world.
                    self.ledger.shed += 1;
                    return;
                }
                self.inflight += 1;
                self.stages[0].outstanding += 1;
                self.pump(0, now, queue);
            }
            StageEv::StageDone { stage, seq } => {
                let deadline = self.requests[seq as usize].deadline;
                if deadline < now {
                    // The deadline lapsed in service: drop at the
                    // boundary, free the lane.
                    self.stages[stage].busy -= 1;
                    self.stages[stage].outstanding -= 1;
                    self.expire(stage, seq, now);
                    self.pump(stage, now, queue);
                    return;
                }
                if stage + 1 == self.stages.len() {
                    let s = &mut self.stages[stage];
                    s.busy -= 1;
                    s.outstanding -= 1;
                    s.served_through += 1;
                    self.complete(seq, now);
                    self.pump(stage, now, queue);
                    return;
                }
                if self.stages[stage + 1].queue.try_enqueue(now, seq, deadline) {
                    let s = &mut self.stages[stage];
                    s.busy -= 1;
                    s.outstanding -= 1;
                    s.served_through += 1;
                    self.stages[stage + 1].outstanding += 1;
                    self.pump(stage + 1, now, queue);
                    self.pump(stage, now, queue);
                } else {
                    // Backpressure: hold the lane until downstream
                    // drains (relieve() will move us).
                    self.stages[stage].stalled.push_back(seq);
                }
            }
            StageEv::DenoiseTick { worker } => {
                let ix = self.denoise_ix;
                let lanes = self.stages[ix].spec.lanes.max(1);
                self.stages[ix].workers[worker].ticking = false;
                // The elapsed interval advanced every member one step.
                let members = std::mem::take(&mut self.stages[ix].workers[worker].members);
                let mut still = Vec::with_capacity(members.len());
                for seq in members {
                    let req = &mut self.requests[seq as usize];
                    req.remaining_steps -= 1;
                    let deadline = req.deadline;
                    if deadline < now {
                        // Deadline lapsed mid-batch: the drop frees
                        // the batch slot right here.
                        self.stages[ix].outstanding -= 1;
                        self.expire(ix, seq, now);
                        continue;
                    }
                    if self.requests[seq as usize].remaining_steps > 0 {
                        still.push(seq);
                        continue;
                    }
                    // Finished denoising.
                    if self.config.inline_cpu {
                        // Monolithic: teardown runs inline on this
                        // worker; completion lands after it.
                        let done_at = now
                            + SimDuration::from_secs_f64(
                                self.inline_teardown_secs(&self.requests[seq as usize]),
                            );
                        let s = &mut self.stages[ix];
                        s.outstanding -= 1;
                        s.served_through += 1;
                        self.complete(seq, done_at);
                    } else if self.stages[ix + 1].queue.try_enqueue(now, seq, deadline) {
                        let s = &mut self.stages[ix];
                        s.outstanding -= 1;
                        s.served_through += 1;
                        self.stages[ix + 1].outstanding += 1;
                    } else {
                        self.stages[ix].workers[worker].done_stalled.push(seq);
                    }
                }
                self.stages[ix].workers[worker].members = still;
                // Retry members stalled on a previously full queue.
                if !self.config.inline_cpu {
                    let stalled = std::mem::take(&mut self.stages[ix].workers[worker].done_stalled);
                    for seq in stalled {
                        let deadline = self.requests[seq as usize].deadline;
                        if self.stages[ix + 1].queue.try_enqueue(now, seq, deadline) {
                            let s = &mut self.stages[ix];
                            s.outstanding -= 1;
                            s.served_through += 1;
                            self.stages[ix + 1].outstanding += 1;
                        } else {
                            self.stages[ix].workers[worker].done_stalled.push(seq);
                        }
                    }
                }
                // Continuous batching: the step boundary is where new
                // requests join the running batch.
                self.admit_denoise_members(ix, worker, lanes, now);
                if !self.stages[ix].workers[worker].members.is_empty() {
                    self.schedule_tick(ix, worker, now, queue);
                }
                if ix + 1 < self.stages.len() {
                    self.pump(ix + 1, now, queue);
                }
                if self.relieve(ix, now) && ix > 0 {
                    self.pump(ix - 1, now, queue);
                }
                // Idle workers may now have queued work (e.g. freshly
                // relieved): admit it.
                self.pump(ix, now, queue);
            }
            StageEv::ScaleTick => {
                let interval = self.config.scale_interval_secs.max(0.001);
                for ix in 0..self.stages.len() {
                    let denoise = self.stages[ix].spec.kind == StageKind::Denoise;
                    let decision = {
                        let s = &mut self.stages[ix];
                        let Some(scaler) = s.scaler.as_mut() else {
                            continue;
                        };
                        let current = s.spec.workers.max(1);
                        let busy_delta = (s.busy_secs - s.window_busy_mark).max(0.0);
                        let utilization = (busy_delta
                            / (current as f64 * s.spec.lanes.max(1) as f64 * interval))
                            .min(1.0);
                        s.window_busy_mark = s.busy_secs;
                        scaler.observe(current, &s.window.signal(utilization, 0.0), now)
                    };
                    match decision {
                        ScaleDecision::Hold => {}
                        ScaleDecision::Up(n) => {
                            let s = &mut self.stages[ix];
                            s.spec.workers = n.max(1);
                            if denoise {
                                while s.workers.len() < n {
                                    s.workers.push(DenoiseWorker::default());
                                }
                            }
                            // New capacity may admit queued work now.
                            self.pump(ix, now, queue);
                        }
                        ScaleDecision::Down(n) => {
                            let s = &mut self.stages[ix];
                            if denoise {
                                // Drop only idle workers from the tail:
                                // running batches keep their worker.
                                while s.workers.len() > n.max(1) {
                                    let idle = s
                                        .workers
                                        .last()
                                        .is_some_and(|w| w.occupied() == 0 && !w.ticking);
                                    if !idle {
                                        break;
                                    }
                                    s.workers.pop();
                                }
                                s.spec.workers = s.workers.len().max(1);
                            } else {
                                // Busy lanes above the new capacity
                                // simply drain; admission stops first.
                                s.spec.workers = n.max(1);
                            }
                        }
                    }
                }
                if self.inflight > 0 || (self.ledger.submitted as usize) < self.trace.len() {
                    queue.schedule_after(SimDuration::from_secs_f64(interval), StageEv::ScaleTick);
                }
            }
        }
    }
}

/// Runs stage-graph simulations. The scheduler is pluggable
/// ([`StageGraphSim::run`] uses the calendar queue,
/// [`StageGraphSim::run_on_heap`] the binary heap) and both must
/// produce byte-identical reports.
pub struct StageGraphSim;

impl StageGraphSim {
    /// Runs `trace` under `config` on the calendar-queue scheduler.
    pub fn run(config: StageGraphConfig, trace: &Trace) -> StagedRunReport {
        Self::run_with_scheduler(config, trace, CalendarQueue::new())
    }

    /// Runs on the binary-heap scheduler (differential baseline).
    pub fn run_on_heap(config: StageGraphConfig, trace: &Trace) -> StagedRunReport {
        Self::run_with_scheduler(config, trace, EventQueue::new())
    }

    /// Runs on an explicit scheduler.
    ///
    /// # Panics
    ///
    /// Panics on a wall-clock trace sink (this is a virtual-time
    /// plane), on an `inline_cpu` config whose graph is not
    /// denoise-only, or when end-of-run conservation fails.
    pub fn run_with_scheduler<Q: EventScheduler<StageEv>>(
        config: StageGraphConfig,
        trace: &Trace,
        queue: Q,
    ) -> StagedRunReport {
        assert_ne!(
            config.trace.clock(),
            Some(Clock::Wall),
            "StageGraphSim is a virtual-time plane; use TraceSink::recording(Clock::Virtual)"
        );
        if config.inline_cpu {
            assert_eq!(
                config.graph.len(),
                1,
                "inline_cpu (the monolithic arm) requires a denoise-only graph"
            );
        }
        let cost = CostModel::new(GpuSpec::h800(), fps_diffusion::ModelConfig::paper_sdxl());
        let engine = EngineKind::FlashPs { kv: true };
        let deadline = SimDuration::from_secs_f64(config.deadline_secs);
        let full_steps = cost.model.steps;
        let hist_hi = (config.deadline_secs * 4.0).max(1.0);
        let denoise_ix = config.graph.denoise_ix();
        let admission_lanes = config.graph.stages()[denoise_ix].capacity();
        let gate_ix = config
            .graph
            .stages()
            .iter()
            .position(|s| s.kind.is_gpu())
            .unwrap_or(0);
        // Per-request service at the bottleneck, for admission sizing:
        // the denoise schedule plus, on the monolithic arm, the
        // inline CPU work that also occupies the worker.
        let one_step = engine
            .step_latency(
                &cost,
                &[BatchItem {
                    mask_ratio: config.mean_mask_ratio,
                }],
            )
            .as_secs_f64();
        let mut per_req_secs = one_step * full_steps as f64;
        if config.inline_cpu {
            per_req_secs += config.cpu.preprocess.as_secs_f64()
                + config.cpu.postprocess.as_secs_f64()
                + cost.step_latency_full(1).as_secs_f64()
                    * (TEXT_ENCODE_STEP_FRACTION + VAE_DECODE_STEP_FRACTION);
        }
        let stages: Vec<Stage> = config
            .graph
            .stages()
            .iter()
            .enumerate()
            .map(|(sx, spec)| {
                // Admission is sized from the graph's bottleneck (the
                // denoise pool), not this stage's own pool: only the
                // gate plane sheds, and it sheds for the whole graph.
                let plane = ControlPlane::for_pool(
                    &cost,
                    spec.lanes,
                    config.mean_mask_ratio,
                    config.deadline_secs,
                    admission_lanes,
                    per_req_secs,
                    config.allow_degradation,
                )
                .with_trace(config.trace.clone())
                .with_control_track(Track::new(1, sx as u32));
                let workers = if spec.kind == StageKind::Denoise {
                    (0..spec.workers.max(1))
                        .map(|_| DenoiseWorker::default())
                        .collect()
                } else {
                    Vec::new()
                };
                Stage {
                    plane,
                    queue: StageQueue::new(
                        spec.kind.label(),
                        spec.queue_capacity,
                        hist_hi,
                        config.trace.clone(),
                        Track::new(3, sx as u32),
                    ),
                    busy: 0,
                    stalled: std::collections::VecDeque::new(),
                    workers,
                    outstanding: 0,
                    served_through: 0,
                    expired: 0,
                    busy_secs: 0.0,
                    downscaled: 0,
                    scaler: config.autoscaler.clone().map(Autoscaler::new),
                    window: ScaleWindow::default(),
                    window_busy_mark: 0.0,
                    spec: *spec,
                }
            })
            .collect();
        let label = if config.inline_cpu {
            "monolithic"
        } else {
            "staged"
        };
        let ledger = SloLedger::new(config.deadline_secs);
        let mut world = World {
            trace,
            stages,
            config,
            cost,
            engine,
            deadline,
            gate_ix,
            denoise_ix,
            requests: vec![
                Req {
                    arrival: SimTime::ZERO,
                    deadline: SimTime::ZERO,
                    mask_ratio: 0.0,
                    remaining_steps: 0,
                    rung: None,
                    downscaled: false,
                };
                trace.len()
            ],
            inflight: 0,
            ledger,
            last_completion: SimTime::ZERO,
        };
        let mut sim: Simulation<StageEv, Q> = Simulation::with_scheduler(queue);
        for (i, req) in trace.requests.iter().enumerate() {
            sim.queue_mut()
                .schedule_at(req.arrival(), StageEv::Arrival(i));
        }
        if world.config.autoscaler.is_some() && !trace.is_empty() {
            sim.queue_mut().schedule_after(
                SimDuration::from_secs_f64(world.config.scale_interval_secs.max(0.001)),
                StageEv::ScaleTick,
            );
        }
        sim.run(&mut world);
        // Conservation: every submitted request is served, shed, or
        // expired — queues must also balance individually.
        for s in &world.stages {
            s.queue.assert_conserved();
        }
        assert_eq!(world.inflight, 0, "requests still in flight at drain");
        assert_eq!(world.ledger.lost(), 0, "stage graph lost requests");
        // Roll up.
        let makespan_secs = world.last_completion.as_secs_f64();
        let window_secs = makespan_secs.max(1e-9);
        let stage_reports: Vec<StageReport> = world
            .stages
            .iter()
            .map(|s| {
                let pool_secs = (s.spec.workers.max(1) as f64) * window_secs;
                StageReport {
                    stage: s.spec.kind.label(),
                    served_through: s.served_through,
                    expired: s.expired,
                    busy_secs: s.busy_secs,
                    utilization: (s.busy_secs / pool_secs).min(1.0),
                    queue: s.queue.stats(),
                    rejected_full: s.queue.rejected_full(),
                }
            })
            .collect();
        let edges: Vec<EdgeReport> = world
            .config
            .graph
            .edges()
            .map(|(from, to)| EdgeReport {
                label: world.config.graph.edge_label(from, to),
                handoffs: world.stages[to].queue.enqueued(),
                max_depth: world.stages[to].queue.max_depth(),
                bubble_fraction: 1.0 - stage_reports[to].utilization,
            })
            .collect();
        let gpu_bubble_fraction = 1.0 - stage_reports[world.denoise_ix].utilization;
        let downscaled: u64 = world.stages.iter().map(|s| s.downscaled).sum();
        let mut slo = world.ledger.report(label, window_secs);
        slo.stages = stage_reports.iter().map(|s| s.queue.clone()).collect();
        slo.bubble_fraction = Some(gpu_bubble_fraction);
        let scalers = || world.stages.iter().filter_map(|s| s.scaler.as_ref());
        StagedRunReport {
            label: label.to_string(),
            slo,
            stage_reports,
            edges,
            gpu_bubble_fraction,
            downscaled,
            scale_ups: scalers().map(Autoscaler::ups).sum(),
            scale_downs: scalers().map(Autoscaler::downs).sum(),
            final_workers: world.stages.iter().map(|s| s.spec.workers.max(1)).collect(),
            makespan_secs,
            events_processed: sim.events_processed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_workload::{RatioDistribution, TraceConfig};

    fn small_trace(rps: f64, secs: f64, seed: u64) -> Trace {
        Trace::generate(&TraceConfig {
            rps,
            arrivals: fps_workload::trace::ArrivalProcess::Poisson,
            duration_secs: secs,
            ratio_dist: RatioDistribution::Uniform { lo: 0.05, hi: 0.3 },
            num_templates: 8,
            zipf_s: 0.9,
            seed,
        })
    }

    fn staged_config() -> StageGraphConfig {
        StageGraphConfig::staged(StageGraph::full(2, 1, 4, 8))
    }

    #[test]
    fn conservation_and_completion() {
        let trace = small_trace(0.4, 120.0, 11);
        let r = StageGraphSim::run(staged_config(), &trace);
        assert_eq!(r.slo.submitted, trace.len() as u64);
        assert_eq!(r.slo.lost(), 0);
        assert!(r.slo.served > 0, "nothing served");
        assert!(r.makespan_secs > 0.0);
        assert_eq!(r.stage_reports.len(), 5);
        assert_eq!(r.edges.len(), 4);
        // Every stage passed the same number of requests it completed.
        assert_eq!(r.stage_reports.last().unwrap().served_through, r.slo.served);
    }

    #[test]
    fn replays_are_byte_identical_on_both_schedulers() {
        let trace = small_trace(0.8, 90.0, 23);
        let a = StageGraphSim::run(staged_config(), &trace)
            .to_json()
            .to_string_compact();
        let b = StageGraphSim::run(staged_config(), &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a, b, "same scheduler, same bytes");
        let heap = StageGraphSim::run_on_heap(staged_config(), &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a, heap, "calendar and heap diverged");
    }

    #[test]
    fn monolithic_arm_conserves_and_reports_bubble() {
        let trace = small_trace(0.5, 120.0, 7);
        let r = StageGraphSim::run(StageGraphConfig::monolithic(1, 4, 8), &trace);
        assert_eq!(r.slo.lost(), 0);
        assert!(r.slo.served > 0);
        assert!(
            r.gpu_bubble_fraction > 0.0,
            "inline CPU must show as GPU bubble"
        );
        assert_eq!(r.label, "monolithic");
    }

    #[test]
    fn tracing_is_passive_and_attributes_edges() {
        let trace = small_trace(0.6, 60.0, 3);
        let untraced = StageGraphSim::run(staged_config(), &trace)
            .to_json()
            .to_string_compact();
        let sink = TraceSink::recording(Clock::Virtual);
        let mut cfg = staged_config();
        cfg.trace = sink.clone();
        let traced = StageGraphSim::run(cfg, &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(untraced, traced, "tracing changed outcomes");
        let t = sink.drain().unwrap();
        assert!(t.events.iter().any(|e| e.name == "stage_enqueue"));
        assert!(t.events.iter().any(|e| e.name == "stage_dequeue"));
        assert!(t.spans_named("stage_wait").next().is_some());
        assert!(t.spans_named("stage_exec").next().is_some());
    }

    #[test]
    fn saturating_burst_sheds_at_the_gate_and_reports_stage_stats() {
        // A burst far beyond the single denoise worker's capacity:
        // the encode plane must shed, queues must stay bounded, and
        // per-stage queue stats must surface on the SloReport.
        let trace = small_trace(20.0, 60.0, 5);
        let r = StageGraphSim::run(staged_config(), &trace);
        assert_eq!(r.slo.lost(), 0);
        assert!(r.slo.shed > 0, "gate never shed under saturation");
        assert_eq!(r.slo.stages.len(), 5);
        let denoise = r
            .slo
            .stages
            .iter()
            .find(|s| s.stage == "denoise")
            .expect("denoise stats");
        assert!(denoise.entered > 0);
    }

    #[test]
    fn wall_sink_is_rejected() {
        let result = std::panic::catch_unwind(|| {
            let trace = small_trace(0.1, 5.0, 1);
            let mut cfg = staged_config();
            cfg.trace = TraceSink::recording(Clock::Wall);
            StageGraphSim::run(cfg, &trace)
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let trace = small_trace(0.0001, 0.001, 1);
        let r = StageGraphSim::run(staged_config(), &trace);
        assert_eq!(r.slo.submitted, trace.len() as u64);
        assert_eq!(r.slo.lost(), 0);
    }

    #[test]
    fn autoscaler_grows_the_bottleneck_stage_and_replays_identically() {
        use fps_simtime::SimDuration;
        // Saturating load on a one-worker denoise pool: queue waits
        // blow past the threshold, and the scaler must grow the pool.
        let trace = small_trace(6.0, 180.0, 13);
        let mut cfg = staged_config();
        cfg.autoscaler = Some(AutoscalerConfig {
            min_workers: 1,
            max_workers: 4,
            up_ticks: 1,
            cooldown: SimDuration::from_secs_f64(10.0),
            ..Default::default()
        });
        let r = StageGraphSim::run(cfg.clone(), &trace);
        assert!(r.scale_ups > 0, "no stage pool ever scaled up");
        assert!(
            r.final_workers.iter().any(|&w| w > 1),
            "pools never grew: {:?}",
            r.final_workers
        );
        assert_eq!(r.slo.lost(), 0);
        // More denoise workers must serve more than the frozen pool.
        let frozen = StageGraphSim::run(staged_config(), &trace);
        assert!(
            r.slo.served > frozen.slo.served,
            "scaling served {} vs frozen {}",
            r.slo.served,
            frozen.slo.served
        );
        // Determinism holds with the scaler active.
        let a = StageGraphSim::run(cfg.clone(), &trace)
            .to_json()
            .to_string_compact();
        let heap = StageGraphSim::run_on_heap(cfg, &trace)
            .to_json()
            .to_string_compact();
        assert_eq!(a, heap, "scaled runs diverged across schedulers");
    }

    #[test]
    fn no_autoscaler_schedules_no_ticks() {
        let trace = small_trace(0.5, 60.0, 17);
        let r = StageGraphSim::run(staged_config(), &trace);
        assert_eq!(r.scale_ups, 0);
        assert_eq!(r.scale_downs, 0);
        // Pool sizes end exactly where the graph spec started them.
        assert_eq!(r.final_workers, vec![2, 1, 1, 1, 2]);
    }
}
