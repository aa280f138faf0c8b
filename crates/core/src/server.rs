//! A real multi-threaded serving front end with step-level continuous
//! batching.
//!
//! ## One loop, two intakes, two outlets
//!
//! Denoise workers drive [`fps_diffusion::EditSession`]s through one
//! loop: each iteration admits newly arrived sessions into the running
//! batch — a join costs at most one denoising step, per §4.3 —
//! executes one step for every inflight session, and retires completed
//! ones. The two execution modes are that loop with its ends attached
//! differently — the paper's Fig. 10 comparison: one engine, one
//! step-boundary join/leave rule, two placements of the CPU work.
//!
//! - **Monolithic** ([`ThreadedServer::start`]): the intake is the
//!   worker's own job queue and the outlet is inline — session setup
//!   (preprocess + text encode) and decode (VAE + postprocess) run on
//!   the worker thread, between steps of the rest of the batch.
//! - **Staged** ([`ThreadedServer::start_staged`]): an encode pool
//!   builds sessions and a decode pool finishes them, over bounded
//!   queues. The intake is the worker's queue of built sessions, the
//!   outlet the decode queue; a finished session that finds it full
//!   keeps its batch slot until decode drains (backpressure).
//!
//! The pools run the same `build_session` and `resolve_finish` the
//! inline path calls, so outputs are byte-identical: the monolithic
//! mode is the staged pipeline with its stages inline.
//!
//! ## Control plane
//!
//! Every policy decision — admit or shed, which degradation rung,
//! which worker — is made by the shared clock-generic
//! [`fps_serving::ControlPlane`], the same type the virtual-time
//! cluster simulator consults. [`ThreadedServer::start`] builds a
//! minimal plane (least-loaded routing plus the legacy
//! [`ServerConfig::max_queue_depth`] bound);
//! [`ThreadedServer::start_with_plane`] accepts a caller-built plane,
//! which is how the server gains SLO-aware admission, the five-rung
//! degradation ladder, and mask-aware worker selection. The plane's
//! router decides placement at submit time over live per-worker
//! outstanding-work views: a ledger with one slot per unresolved job.
//!
//! ## Resilience
//!
//! A step that panics kills the whole "engine process": every inflight
//! session on that worker is lost and its job is re-routed through the
//! control plane with a bumped attempt counter (bounded by
//! [`ServerConfig::max_job_attempts`], then the ticket resolves to
//! [`FlashPsError::WorkerPanicked`]). Jobs carry an optional
//! wall-clock deadline ([`ServerConfig::job_timeout`]); expired jobs
//! resolve to [`FlashPsError::JobTimeout`] at the next boundary they
//! cross instead of occupying the batch — including at requeue time,
//! so a job whose deadline already passed never burns a second batch
//! slot.
//!
//! ## Shutdown
//!
//! Shutdown — explicit or via `Drop` — flips a closing flag and joins
//! the stage threads, which all follow one exit rule: leave when the
//! flag is set *and the ledger is empty*. A job holds its ledger slot
//! through queues, session setup, the batch, stalled hand-offs and
//! panic requeues, until just after its ticket resolves — so the rule
//! is the drain guarantee itself: every ticket submitted before
//! shutdown resolves, none to [`FlashPsError::ServerClosed`]. An empty
//! queue is no such evidence (a job routed here may still be in setup
//! upstream), and neither is disconnection: workers hold senders to
//! every job queue so a panic requeue can follow the plane's re-route.
//! Only an idle thread checks the rule, once per poll interval.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use fps_diffusion::{EditSession, Guidance, Strategy};
use fps_json::Json;
use fps_serving::worker::OutstandingReq;
use fps_serving::{
    Assessment, ControlPlane, Decision, LeastLoadedRouter, RejectReason, Router, Rung, TimeSource,
    WorkerHealth, WorkerView,
};
use fps_trace::{Clock, TraceSink, Track};
use fps_workload::trace::MaskShapeSpec;
use fps_workload::RequestSpec;
use parking_lot::Mutex;

use crate::system::{rung_strategy, EditResult, FlashPs};
use crate::{FlashPsError, Result};

/// How long an idle stage thread waits on its queue between checks of
/// the exit rule.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// Configuration of the threaded server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (one "GPU" each). A worker serves its batch on
    /// its own thread, and every kernel runs on the thread that calls
    /// it, so workers are the server's only parallelism. `0` sizes the
    /// server to the host: one worker per
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Maximum sessions a worker interleaves.
    pub max_batch: usize,
    /// Wall-clock ceiling from submission to completion; expired jobs
    /// resolve to [`FlashPsError::JobTimeout`]. `None` disables it.
    pub job_timeout: Option<Duration>,
    /// Total attempts a job gets when workers panic mid-batch (the
    /// first run plus requeues). At least 1.
    pub max_job_attempts: u32,
    /// Fault-injection hook: a job with this seed panics the worker on
    /// its first attempt, killing the whole inflight batch. Used by
    /// resilience tests; `None` in production.
    pub chaos_panic_seed: Option<u64>,
    /// Admission cap on outstanding jobs (queued plus inflight),
    /// enforced by the control plane's legacy queue-bound gate when no
    /// overload stack is installed. [`ThreadedServer::submit`] sheds
    /// with [`FlashPsError::Overloaded`] once the cap is reached —
    /// queueing past a few service waves only adds latency, never
    /// goodput. `None` leaves the queue unbounded.
    pub max_queue_depth: Option<usize>,
    /// Start with workers paused: jobs queue (and the control plane
    /// decides on them) but nothing executes until
    /// [`ThreadedServer::resume`]. Lets tests submit a deterministic
    /// burst with no completions racing the decision sequence.
    pub start_paused: bool,
    /// Trace sink for wall-clock spans (queue wait, per-step compute,
    /// VAE decode). Must be [`TraceSink::disabled`] or a
    /// [`Clock::Wall`] sink — the server reads real time, so a
    /// virtual-clock sink would mix clock domains and is rejected at
    /// [`ThreadedServer::start`].
    pub trace: TraceSink,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 4,
            job_timeout: None,
            max_job_attempts: 3,
            chaos_panic_seed: None,
            max_queue_depth: None,
            start_paused: false,
            trace: TraceSink::disabled(),
        }
    }
}

/// Pool shapes for [`ThreadedServer::start_staged`]: the disaggregated
/// execution mode where session setup (preprocess + text-encode),
/// denoising, and decode (VAE + postprocess) run on separate pools
/// joined by bounded queues — §4.3 disaggregation generalized to
/// micro-serving. [`ServerConfig::workers`] sizes the denoise pool.
#[derive(Debug, Clone)]
pub struct StagedServerConfig {
    /// Threads running session setup (preprocess + text encode).
    pub encode_workers: usize,
    /// Threads running VAE decode + postprocess.
    pub decode_workers: usize,
    /// Capacity of each bounded inter-stage queue. A full queue
    /// backpressures: encode blocks, and finished denoise sessions
    /// hold their batch slot until decode drains.
    pub stage_queue_capacity: usize,
}

impl Default for StagedServerConfig {
    fn default() -> Self {
        Self {
            encode_workers: 2,
            decode_workers: 1,
            stage_queue_capacity: 8,
        }
    }
}

/// One editing request submitted to the server.
#[derive(Debug, Clone)]
pub struct EditJob {
    /// Registered template to edit.
    pub template_id: u64,
    /// Masked latent-token indices.
    pub masked_idx: Vec<usize>,
    /// Text prompt.
    pub prompt: String,
    /// Per-request seed.
    pub seed: u64,
    /// Optional classifier-free guidance (doubles per-step compute).
    pub guidance: Option<Guidance>,
}

/// The control plane plus the execution-plane state it decides over:
/// one outstanding-work ledger entry per unresolved job, keyed by the
/// plane-assigned request id.
struct ControlState {
    plane: ControlPlane<Box<dyn Router + Send>>,
    /// Per-worker outstanding jobs (queued + inflight), the router's
    /// load signal — the wall-clock analogue of the simulator's
    /// `outstanding` vectors.
    ledger: Vec<Vec<(u64, OutstandingReq)>>,
    /// Reused worker-view buffer (allocation-light routing).
    views: Vec<WorkerView>,
    /// Next plane request id.
    next_id: u64,
    /// Latent tokens of the served model (sizes router views).
    model_tokens: usize,
    /// Per-worker batch capacity (sizes router views and admission
    /// capacity).
    max_batch: usize,
}

impl ControlState {
    fn backlog(&self) -> usize {
        self.ledger.iter().map(Vec::len).sum()
    }

    fn capacity(&self) -> usize {
        self.ledger.len() * self.max_batch.max(1)
    }

    /// Removes job `id`'s entry from `worker`'s ledger, if it is there.
    fn release(&mut self, worker: usize, id: u64) {
        if let Some(pos) = self.ledger[worker].iter().position(|(i, _)| *i == id) {
            self.ledger[worker].swap_remove(pos);
        }
    }

    /// Routes one request: refreshes the view buffer from the ledger,
    /// asks the plane, clamps a misbehaving router to worker 0, and
    /// records the placement in the ledger.
    fn route_and_ledger(
        &mut self,
        id: u64,
        spec: &RequestSpec,
        steps: usize,
        now: fps_simtime::SimTime,
    ) -> usize {
        let ControlState {
            plane,
            ledger,
            views,
            ..
        } = self;
        views.truncate(ledger.len());
        while views.len() < ledger.len() {
            views.push(WorkerView {
                id: 0,
                outstanding: Vec::new(),
                max_batch: 0,
                model_tokens: 0,
                health: WorkerHealth::Healthy,
            });
        }
        for (w, (v, outstanding)) in views.iter_mut().zip(ledger.iter()).enumerate() {
            v.id = w;
            v.max_batch = self.max_batch;
            v.model_tokens = self.model_tokens;
            v.health = WorkerHealth::Healthy;
            v.outstanding.clear();
            v.outstanding
                .extend(outstanding.iter().map(|(_, r)| OutstandingReq {
                    mask_ratio: r.mask_ratio,
                    steps_left: r.steps_left,
                }));
        }
        let w = plane.route(id, spec, views, now);
        let w = if w < ledger.len() { w } else { 0 };
        ledger[w].push((
            id,
            OutstandingReq {
                mask_ratio: spec.mask_ratio,
                steps_left: steps,
            },
        ));
        w
    }
}

/// Holds one ledger slot; dropping it removes the entry, so the
/// ledger counts *unresolved* jobs exactly — through queues, session
/// setup, the inflight batch, stalled hand-offs and panic requeues.
///
/// `Drop` takes the control lock: never drop a guard while holding it.
struct SlotGuard {
    control: Arc<Mutex<ControlState>>,
    /// Plane-assigned request id (stable across requeues).
    id: u64,
    /// The denoise worker the plane routed this dispatch to.
    worker: usize,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.control.lock().release(self.worker, self.id);
    }
}

/// One trip through the control plane, first submission or requeue:
/// id → assess (admission and rung) → route → ledger slot. A first
/// submission (`prior: None`) takes a fresh id and faces the admission
/// gates. A panic requeue brings the slot it holds: it has paid for
/// admission, so only the ladder re-assesses it, at the pressure
/// prevailing now (same contract as the simulator's retries), and its
/// slot moves to the new placement under one lock — the ledger never
/// reads empty while the job is unresolved.
///
/// # Errors
///
/// The shed verdict, when admission refuses the job.
fn dispatch(
    control: &Arc<Mutex<ControlState>>,
    job: &EditJob,
    prior: Option<SlotGuard>,
) -> Result<(Option<Rung>, SlotGuard)> {
    let mut ctl = control.lock();
    let now = ctl.plane.time().now();
    let id = match &prior {
        // The plane must see the system without this job, as it does
        // on a first submission.
        Some(slot) => {
            ctl.release(slot.worker, slot.id);
            slot.id
        }
        // Ids are consumed per submission, shed or served — the same
        // numbering a trace gives the simulator.
        None => {
            let id = ctl.next_id;
            ctl.next_id += 1;
            id
        }
    };
    let (backlog, capacity) = (ctl.backlog(), ctl.capacity());
    let retry = prior.is_some();
    let (rung, steps) = match ctl.plane.assess(id, now, backlog, capacity, retry) {
        Assessment::Serve { rung, steps } => (rung, steps),
        Assessment::Shed(cause) => {
            // The full overload stack surfaces the shed cause; the
            // legacy depth cap keeps its historical error. Unreachable
            // for a requeue (already-admitted work is never shed), which
            // would fail loudly through its ticket rather than silently
            // if the plane's contract ever changed.
            let shed = if ctl.plane.overload_enabled() {
                FlashPsError::Rejected(RejectReason::Shed(cause))
            } else {
                FlashPsError::Overloaded
            };
            // `prior` drops on return and takes the lock to do it.
            drop(ctl);
            return Err(shed);
        }
    };
    let spec = RequestSpec {
        id,
        arrival_ns: now.as_nanos(),
        template_id: job.template_id,
        mask_ratio: job.masked_idx.len() as f64 / ctl.model_tokens as f64,
        mask_shape: MaskShapeSpec::Rect,
        seed: job.seed,
    };
    let worker = ctl.route_and_ledger(id, &spec, steps, now);
    drop(ctl);
    let slot = match prior {
        Some(mut slot) => {
            slot.worker = worker;
            slot
        }
        None => SlotGuard {
            control: Arc::clone(control),
            id,
            worker,
        },
    };
    Ok((rung, slot))
}

/// A dispatched job on its way to a session: what `submit` and a panic
/// requeue put on a job queue.
struct QueuedJob {
    job: EditJob,
    reply: Sender<Result<EditResult>>,
    /// Attempts already consumed (0 on first submission).
    attempt: u32,
    /// When the job was first submitted (deadline anchor; requeues
    /// keep the original).
    enqueued_at: Instant,
    /// Degradation rung the plane assigned this dispatch.
    rung: Option<Rung>,
    /// Ledger slot: released when the job resolves.
    slot: SlotGuard,
}

/// A handle to a submitted job.
pub struct Ticket {
    rx: Receiver<Result<EditResult>>,
}

impl Ticket {
    /// Blocks until the edit completes.
    ///
    /// # Errors
    ///
    /// Returns [`FlashPsError::ServerClosed`] if the worker died, or
    /// the edit's own error.
    pub fn wait(self) -> Result<EditResult> {
        self.rx.recv().map_err(|_| FlashPsError::ServerClosed)?
    }
}

/// The multi-threaded continuous-batching server.
pub struct ThreadedServer {
    /// The context each stage thread runs over a copy of; the server
    /// submits and shuts down through the original.
    ctx: WorkerCtx,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadedServer {
    /// Starts worker threads over a (template-registered) system, with
    /// a minimal control plane: least-loaded routing and the legacy
    /// [`ServerConfig::max_queue_depth`] bound.
    ///
    /// # Panics
    ///
    /// Panics when `config.trace` is a virtual-clock sink: the server
    /// timestamps with real [`Instant`]s, and wall and virtual
    /// nanoseconds must never mix in one trace.
    pub fn start(system: FlashPs, config: ServerConfig) -> Self {
        Self::spawn(system, config, None, None)
    }

    /// Starts worker threads routed through a caller-built control
    /// plane — the full policy stack (SLO-aware admission, the
    /// degradation ladder, mask-aware routing) when the plane carries
    /// an overload state.
    ///
    /// # Panics
    ///
    /// Panics when `plane.time()` is virtual or `config.trace` is a
    /// virtual-clock sink: this execution plane runs on the wall
    /// clock.
    pub fn start_with_plane(
        system: FlashPs,
        config: ServerConfig,
        plane: ControlPlane<Box<dyn Router + Send>>,
    ) -> Self {
        Self::spawn(system, config, None, Some(plane))
    }

    /// Starts the server in *staged* (disaggregated) mode with a
    /// minimal control plane: session setup, denoising, and decode run
    /// on separate pools joined by bounded queues, so CPU-side work
    /// never blocks a denoise step. Outputs are byte-identical to the
    /// monolithic mode — the stages call the exact same
    /// `begin`/`step`/`finish` pipeline seams.
    ///
    /// # Panics
    ///
    /// Panics when `config.trace` is a virtual-clock sink.
    pub fn start_staged(system: FlashPs, config: ServerConfig, staged: StagedServerConfig) -> Self {
        Self::spawn(system, config, Some(staged), None)
    }

    /// The one constructor: `staged` picks where the denoise loop's
    /// two ends attach (`None` = both inline, the monolithic mode) and
    /// `plane` the policy (`None` = the minimal plane).
    fn spawn(
        system: FlashPs,
        config: ServerConfig,
        staged: Option<StagedServerConfig>,
        plane: Option<ControlPlane<Box<dyn Router + Send>>>,
    ) -> Self {
        let plane = plane.unwrap_or_else(|| {
            ControlPlane::new(
                Box::new(LeastLoadedRouter) as Box<dyn Router + Send>,
                TimeSource::wall(),
                system.config().model.steps,
            )
            .with_queue_cap(config.max_queue_depth)
        });
        assert_ne!(
            config.trace.clock(),
            Some(Clock::Virtual),
            "ThreadedServer records wall-clock timestamps; use \
             TraceSink::recording(Clock::Wall) (virtual clocks belong to ClusterSim)"
        );
        assert!(
            plane.time().is_wall(),
            "ThreadedServer is the wall-clock execution plane; build its \
             ControlPlane with TimeSource::wall() (virtual clocks belong to ClusterSim)"
        );
        // Decision events land in the server's own sink, stamped with
        // the plane's (wall) clock domain.
        let plane = plane.with_trace(config.trace.clone());
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let control = Arc::new(Mutex::new(ControlState {
            plane,
            ledger: vec![Vec::new(); workers],
            views: Vec::new(),
            next_id: 0,
            model_tokens: system.config().model.tokens(),
            max_batch: config.max_batch.max(1),
        }));
        let mut ctx = WorkerCtx {
            system: Arc::new(system),
            control,
            txs: Vec::new(),
            own: 0,
            track: Track::new(0, 0),
            closing: Arc::new(AtomicBool::new(false)),
            paused: Arc::new(AtomicBool::new(config.start_paused)),
            config,
        };
        let mut handles = Vec::new();
        match staged {
            None => {
                let (txs, rxs): (Vec<_>, Vec<_>) =
                    (0..workers).map(|_| unbounded::<QueuedJob>()).unzip();
                ctx.txs = txs;
                for (w, rx) in rxs.into_iter().enumerate() {
                    handles.push(ctx.spawn_stage("worker", 0, w, move |ctx| {
                        denoise_loop(ctx, Intake::Jobs(rx), Outlet::Inline)
                    }));
                }
            }
            Some(staged) => {
                let cap = staged.stage_queue_capacity.max(1);
                let (entry_tx, entry_rx) = unbounded::<QueuedJob>();
                // Panic requeues re-enter through the encode pool too
                // (a lost session must be rebuilt), so every job queue
                // in the table is the entry.
                ctx.txs = vec![entry_tx; workers];
                let (decode_tx, decode_rx) = bounded::<Inflight>(cap);
                // Per-denoise-worker bounded queues (PR 5 shape): the
                // submit-time placement is honored, and a full queue
                // backpressures the encode pool.
                let mut denoise_txs = Vec::with_capacity(workers);
                for w in 0..workers {
                    let (tx, rx) = bounded::<Inflight>(cap);
                    denoise_txs.push(tx);
                    let decode_tx = decode_tx.clone();
                    handles.push(ctx.spawn_stage("worker", 0, w, move |ctx| {
                        denoise_loop(ctx, Intake::Sessions(rx), Outlet::Decode(decode_tx))
                    }));
                }
                // Encode and decode pools: MPMC over a shared queue.
                for e in 0..staged.encode_workers.max(1) {
                    let (rx, txs) = (entry_rx.clone(), denoise_txs.clone());
                    handles.push(
                        ctx.spawn_stage("encode", 5, e, move |ctx| encode_loop(ctx, &rx, &txs)),
                    );
                }
                for d in 0..staged.decode_workers.max(1) {
                    let rx = decode_rx.clone();
                    handles.push(ctx.spawn_stage("decode", 6, d, move |ctx| decode_loop(ctx, &rx)));
                }
            }
        }
        Self { ctx, handles }
    }

    /// The shared system (templates can no longer be mutated once the
    /// server owns it).
    pub fn system(&self) -> &FlashPs {
        &self.ctx.system
    }

    /// Outstanding jobs: queued plus inflight, requeues included.
    pub fn queue_depth(&self) -> usize {
        self.ctx.control.lock().backlog()
    }

    /// Unpauses workers started with [`ServerConfig::start_paused`].
    pub fn resume(&self) {
        self.ctx.paused.store(false, Ordering::SeqCst);
    }

    /// The control plane's recorded decision sequence (empty unless
    /// the plane was built with recording enabled).
    pub fn decisions(&self) -> Vec<Decision> {
        self.ctx.control.lock().plane.decisions().to_vec()
    }

    /// Submits a job; returns a ticket to await the result.
    ///
    /// The control plane decides the job's fate before it is queued:
    /// admission (or the legacy depth cap), the degradation rung under
    /// overload, and the target worker.
    ///
    /// # Errors
    ///
    /// Returns [`FlashPsError::ServerClosed`] after shutdown,
    /// [`FlashPsError::Overloaded`] when the legacy queue cap sheds
    /// it, or [`FlashPsError::Rejected`] when overload-control
    /// admission sheds it.
    pub fn submit(&self, job: EditJob) -> Result<Ticket> {
        if self.ctx.closing.load(Ordering::SeqCst) {
            return Err(FlashPsError::ServerClosed);
        }
        let (rung, slot) = dispatch(&self.ctx.control, &job, None)?;
        let (reply, rx) = bounded(1);
        // A failed send drops the job (and its slot guard, which locks
        // to clean the ledger).
        self.ctx.txs[slot.worker]
            .send(QueuedJob {
                job,
                reply,
                attempt: 0,
                enqueued_at: Instant::now(),
                rung,
                slot,
            })
            .map_err(|_| FlashPsError::ServerClosed)?;
        Ok(Ticket { rx })
    }

    /// Gracefully drains the queue (every already-submitted ticket
    /// resolves) and joins all workers.
    pub fn shutdown(mut self) {
        self.close();
    }

    /// Shared drain path for [`Self::shutdown`] and `Drop`: flips the
    /// closing flag (and unpauses) and joins the stage threads — who
    /// keep serving until the ledger is empty, i.e. until every
    /// submitted job (requeues included) has resolved.
    fn close(&mut self) {
        self.ctx.closing.store(true, Ordering::SeqCst);
        self.ctx.paused.store(false, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ThreadedServer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Everything a stage thread needs, bundled so the loops, the session
/// seams and the requeue path share one context.
#[derive(Clone)]
struct WorkerCtx {
    system: Arc<FlashPs>,
    control: Arc<Mutex<ControlState>>,
    /// The job queue behind each denoise worker, indexed by the
    /// plane's placement; stage threads hold it so a panic requeue can
    /// follow the plane's re-route. Staged mode has one queue — the
    /// encode pool's shared entry — in every position: routing to a
    /// specific denoise worker still happens at submit time (the
    /// ledger slot carries the placement), and the encode pool
    /// forwards the built session to that worker's bounded queue.
    txs: Vec<Sender<QueuedJob>>,
    /// This thread's index within its pool.
    own: usize,
    /// The trace timeline this thread draws on.
    track: Track,
    closing: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    config: ServerConfig,
}

impl WorkerCtx {
    /// Spawns stage thread `{stage}{own}` over a copy of this context,
    /// drawing on trace track (`lane`, `own`).
    fn spawn_stage(
        &self,
        stage: &str,
        lane: u32,
        own: usize,
        run: impl FnOnce(&WorkerCtx) + Send + 'static,
    ) -> JoinHandle<()> {
        let name = format!("{stage}{own}");
        let ctx = WorkerCtx {
            own,
            track: Track::new(lane, own as u32),
            ..self.clone()
        };
        ctx.config.trace.name_track(ctx.track, name.clone());
        fps_tensor::pool::spawn_service(&name, move || run(&ctx))
    }

    /// The exit rule of every stage thread: shutdown was requested and
    /// no job is unresolved anywhere in the server. Takes the control
    /// lock, so only idle threads ask.
    fn drained(&self) -> bool {
        self.closing.load(Ordering::SeqCst) && self.control.lock().backlog() == 0
    }

    /// The deadline rule of every boundary a job crosses: when its
    /// wall-clock deadline has passed, resolves the ticket to
    /// [`FlashPsError::JobTimeout`] and returns `true` — the caller
    /// drops the job, freeing whatever slot it held.
    fn timed_out(&self, q: &QueuedJob) -> bool {
        let expired = self
            .config
            .job_timeout
            .is_some_and(|t| q.enqueued_at.elapsed() > t);
        if expired {
            let trace = &self.config.trace;
            if trace.is_enabled() {
                trace.event_at(
                    "job_timeout",
                    "server",
                    self.track,
                    trace.now_ns(),
                    vec![("seed", Json::U64(q.job.seed))],
                );
            }
            let _ = q.reply.send(Err(FlashPsError::JobTimeout));
        }
        expired
    }
}

/// A job with its session built: a member of a denoise batch, or on a
/// stage queue on its way into or out of one.
struct Inflight {
    /// The dispatch this session serves, kept whole so a panic can
    /// requeue it.
    q: QueuedJob,
    session: EditSession,
    use_cache: Vec<bool>,
    mask_ratio: f64,
    /// Root "request" span id for this attempt (0 when disabled).
    trace_root: u64,
    /// Wall nanoseconds when this attempt joined the batch.
    admitted_ns: u64,
}

/// Builds the session for a dispatch: the control plane's rung picks
/// the strategy (via [`rung_strategy`]); without a ladder the plain
/// mask-aware plan is used, as always.
fn begin_job(
    system: &FlashPs,
    job: &EditJob,
    rung: Option<Rung>,
) -> Result<(EditSession, Vec<bool>, f64)> {
    let (image, _) = system.template(job.template_id)?;
    let cfg = &system.config().model;
    let mask_ratio = job.masked_idx.len() as f64 / cfg.tokens() as f64;
    let strategy = match rung {
        None => Strategy::MaskAware {
            use_cache: system.plan_for_ratio(mask_ratio),
            kv: system.config().capture_kv,
        },
        Some(r) => {
            let mut s = rung_strategy(r, system, mask_ratio, cfg.steps);
            // The premium rung asks for K/V reuse; honor it only when
            // this system captured K/V at priming.
            if let Strategy::MaskAware { kv, .. } = &mut s {
                *kv = *kv && system.config().capture_kv;
            }
            s
        }
    };
    let use_cache = match &strategy {
        Strategy::MaskAware { use_cache, .. } => use_cache.clone(),
        _ => vec![false; cfg.blocks],
    };
    let session = system.pipeline().begin_guided(
        image,
        job.template_id,
        &job.masked_idx,
        &job.prompt,
        job.seed,
        strategy,
        job.guidance.clone(),
    )?;
    Ok((session, use_cache, mask_ratio))
}

/// Session setup for one dispatch — the encode stage's body, which the
/// monolithic mode runs `inline` on the denoise thread: deadline check
/// → [`begin_job`] → `queue` span (and `text_encode`, where setup is a
/// stage of its own) → [`Inflight`]. `None` when the job resolved here
/// instead: its deadline had passed, or setup failed.
fn build_session(ctx: &WorkerCtx, q: QueuedJob, inline: bool) -> Option<Inflight> {
    if ctx.timed_out(&q) {
        return None;
    }
    let trace = &ctx.config.trace;
    let encode_start = trace.now_ns();
    let (session, use_cache, mask_ratio) = match begin_job(&ctx.system, &q.job, q.rung) {
        Ok(built) => built,
        Err(e) => {
            let _ = q.reply.send(Err(e));
            return None;
        }
    };
    // The root "request" span is recorded when the job resolves;
    // children reference its pre-allocated id (0, like every
    // timestamp here, when tracing is off).
    let trace_root = trace.next_id();
    let admitted_ns = trace.now_ns();
    if trace.is_enabled() {
        // Inline, setup is time the job spent waiting for its worker.
        let queue_end = if inline { admitted_ns } else { encode_start };
        trace.span_at(
            "queue",
            "stage",
            ctx.track,
            trace.instant_ns(q.enqueued_at),
            queue_end,
            trace_root,
            vec![
                ("attempt", Json::U64(q.attempt.into())),
                (
                    "rung",
                    Json::Str(q.rung.map(|r| r.label()).unwrap_or("no-ladder").into()),
                ),
            ],
        );
        if !inline {
            trace.span_at(
                "text_encode",
                "stage",
                ctx.track,
                encode_start,
                admitted_ns,
                trace_root,
                Vec::new(),
            );
        }
    }
    Some(Inflight {
        q,
        session,
        use_cache,
        mask_ratio,
        trace_root,
        admitted_ns,
    })
}

/// Crash recovery: the engine process died mid-batch. Every inflight
/// session is lost; jobs with attempts left are re-routed through the
/// control plane, the rest resolve to
/// [`FlashPsError::WorkerPanicked`]. Jobs whose submit-time deadline
/// already passed are dropped here with [`FlashPsError::JobTimeout`]
/// instead of burning another batch slot: the deadline elapsed while
/// the job was inflight, so requeueing could only waste a slot on an
/// answer nobody is waiting for.
fn requeue_batch(inflight: &mut Vec<Inflight>, ctx: &WorkerCtx) {
    for Inflight { mut q, .. } in inflight.drain(..) {
        q.attempt += 1;
        if q.attempt >= ctx.config.max_job_attempts.max(1) {
            let _ = q.reply.send(Err(FlashPsError::WorkerPanicked));
            continue;
        }
        if ctx.timed_out(&q) {
            continue;
        }
        let (rung, slot) = match dispatch(&ctx.control, &q.job, Some(q.slot)) {
            Ok(placed) => placed,
            Err(shed) => {
                let _ = q.reply.send(Err(shed));
                continue;
            }
        };
        let worker = slot.worker;
        (q.rung, q.slot) = (rung, slot);
        // A send fails only when the routed worker's thread is gone,
        // which the exit rule excludes while this job holds a slot —
        // short of that thread dying. Our own queue is always alive
        // (we are running), so fall back to it rather than stranding
        // the job.
        if let Err(e) = ctx.txs[worker].send(q) {
            if let Err(e) = ctx.txs[ctx.own].send(e.into_inner()) {
                let _ = e.into_inner().reply.send(Err(FlashPsError::ServerClosed));
            }
        }
    }
}

/// Decodes a finished session and resolves its ticket — the decode
/// stage's body, which the monolithic mode runs inline on the denoise
/// thread. Records the `vae_decode` span and the root `request` span.
fn resolve_finish(ctx: &WorkerCtx, item: Inflight) {
    let trace = &ctx.config.trace;
    let cfg = &ctx.system.config().model;
    let full = fps_diffusion::flops::step_flops_full(cfg, 1) * cfg.steps as u64;
    let Inflight {
        q,
        session,
        use_cache,
        mask_ratio,
        trace_root,
        ..
    } = item;
    let result = {
        let _decode_span = trace.start("vae_decode", "stage", ctx.track, trace_root);
        ctx.system
            .pipeline()
            .finish(session)
            .map(|output| {
                let speedup = full as f64 / output.flops.max(1) as f64;
                EditResult {
                    output,
                    use_cache,
                    speedup_vs_full: speedup,
                    mask_ratio,
                    rung: q.rung,
                }
            })
            .map_err(FlashPsError::from)
    };
    if trace.is_enabled() {
        trace.span_with_id(
            trace_root,
            "request",
            "request",
            ctx.track,
            trace.instant_ns(q.enqueued_at),
            trace.now_ns(),
            0,
            vec![
                ("template", Json::U64(q.job.template_id)),
                ("seed", Json::U64(q.job.seed)),
                ("attempt", Json::U64(q.attempt.into())),
                ("mask_ratio", Json::F64(mask_ratio)),
            ],
        );
    }
    // The ledger slot goes with `q`, after the ticket has its answer.
    let _ = q.reply.send(result);
}

/// Emits a `stage_enqueue`/`stage_dequeue` boundary event on the
/// inter-stage edge track (edge 0: encode→denoise, 1: denoise→decode)
/// so bubble analysis can attribute a stall to a specific edge.
fn edge_event(trace: &TraceSink, name: &'static str, edge: u32, id: u64) {
    if trace.is_enabled() {
        trace.event_at(
            name,
            "stage_edge",
            Track::new(3, edge),
            trace.now_ns(),
            vec![("id", Json::U64(id))],
        );
    }
}

/// Takes the next item off a stage queue: an idle thread waits one
/// poll interval for it, a busy one takes only what is already there.
/// Disconnection reads as "nothing yet" — the exit rule is
/// [`WorkerCtx::drained`], not the state of any one channel.
fn poll<T>(rx: &Receiver<T>, idle: bool) -> Option<T> {
    if idle {
        rx.recv_timeout(IDLE_POLL).ok()
    } else {
        rx.try_recv().ok()
    }
}

/// Where a denoise worker's sessions come from.
enum Intake {
    /// Monolithic: the worker's own job queue; sessions are built on
    /// its thread, between steps.
    Jobs(Receiver<QueuedJob>),
    /// Staged: the worker's bounded queue of sessions the encode pool
    /// built.
    Sessions(Receiver<Inflight>),
}

/// Where a denoise worker's finished sessions go.
enum Outlet {
    /// Monolithic: decoded on the worker's thread, between steps.
    Inline,
    /// Staged: the decode pool's bounded queue.
    Decode(Sender<Inflight>),
}

impl Outlet {
    /// Retires a finished session. A full decode queue hands it back
    /// through `stalled` instead (backpressure): it keeps its batch
    /// slot until a later retry gets through.
    fn retire(&self, ctx: &WorkerCtx, item: Inflight, stalled: &mut Vec<Inflight>) {
        match self {
            Outlet::Inline => resolve_finish(ctx, item),
            Outlet::Decode(tx) => {
                let id = item.q.slot.id;
                match tx.try_send(item) {
                    Ok(()) => edge_event(&ctx.config.trace, "stage_enqueue", 1, id),
                    Err(TrySendError::Full(item)) => stalled.push(item),
                    Err(TrySendError::Disconnected(item)) => {
                        let _ = item.q.reply.send(Err(FlashPsError::ServerClosed));
                    }
                }
            }
        }
    }
}

/// Staged mode, stage 1: session setup (preprocess + text encode).
/// Pulls from the shared entry queue, builds the session through the
/// same [`build_session`] the monolithic loop runs inline, and
/// forwards it to the submit-time-routed denoise worker's bounded
/// queue — blocking there when it is full (backpressure).
fn encode_loop(ctx: &WorkerCtx, rx: &Receiver<QueuedJob>, denoise_txs: &[Sender<Inflight>]) {
    loop {
        if ctx.paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let Some(q) = poll(rx, true) else {
            if ctx.drained() {
                return;
            }
            continue;
        };
        let Some(item) = build_session(ctx, q, false) else {
            continue;
        };
        edge_event(&ctx.config.trace, "stage_enqueue", 0, item.q.slot.id);
        if let Err(e) = denoise_txs[item.q.slot.worker].send(item) {
            let _ = e.into_inner().q.reply.send(Err(FlashPsError::ServerClosed));
        }
    }
}

/// Stage 2, and in monolithic mode the whole pipeline: denoising with
/// step-level continuous batching. Admits sessions from `intake` at
/// step boundaries, takes one denoising step for every inflight
/// session, and retires finished ones through `outlet` — where a
/// session the decode queue has no room for keeps its batch slot until
/// it drains. Jobs whose deadline lapses at a boundary are dropped
/// there, freeing the slot immediately. A panic requeues the batch
/// through the job queues (the sessions died with the "engine process"
/// and must be rebuilt).
fn denoise_loop(ctx: &WorkerCtx, intake: Intake, outlet: Outlet) {
    let system = &*ctx.system;
    let config = &ctx.config;
    let max_batch = config.max_batch.max(1);
    let trace = &config.trace;
    let track = ctx.track;
    let mut inflight: Vec<Inflight> = Vec::new();
    // Finished sessions blocked on a full decode queue (backpressure):
    // they occupy batch slots until the queue drains. Always empty
    // with an inline outlet.
    let mut stalled: Vec<Inflight> = Vec::new();
    loop {
        if ctx.paused.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        // Retry stalled handoffs first: decode may have drained.
        for item in std::mem::take(&mut stalled) {
            outlet.retire(ctx, item, &mut stalled);
        }
        // Admission at the step boundary, batch slots shared with
        // stalled handoffs: wait when idle, otherwise take whatever is
        // queued — a join costs at most one denoising step (§4.3).
        while inflight.len() + stalled.len() < max_batch {
            let idle = inflight.is_empty() && stalled.is_empty();
            let admitted = match &intake {
                Intake::Jobs(rx) => {
                    let Some(q) = poll(rx, idle) else { break };
                    build_session(ctx, q, true)
                }
                Intake::Sessions(rx) => {
                    let Some(mut item) = poll(rx, idle) else {
                        break;
                    };
                    edge_event(trace, "stage_dequeue", 0, item.q.slot.id);
                    item.admitted_ns = trace.now_ns();
                    // Deadline drop at the stage boundary: the batch
                    // slot is never occupied.
                    (!ctx.timed_out(&item.q)).then_some(item)
                }
            };
            inflight.extend(admitted);
        }
        if inflight.is_empty() {
            if !stalled.is_empty() {
                // Nothing to step; wait for decode to drain.
                std::thread::sleep(Duration::from_millis(1));
            } else if ctx.drained() {
                // Graceful drain: nothing here and nothing anywhere
                // else that could still be routed or requeued here.
                return;
            }
            continue;
        }
        // One denoising step for every inflight session. A panic here
        // kills the whole batch (the "engine process" died): caught,
        // sessions dropped, jobs requeued.
        let mut i = 0;
        let mut crashed = false;
        while i < inflight.len() {
            let item = &mut inflight[i];
            if ctx.timed_out(&item.q) {
                inflight.swap_remove(i);
                continue;
            }
            let chaos_panic =
                config.chaos_panic_seed == Some(item.q.job.seed) && item.q.attempt == 0;
            let step_result = {
                // RAII: the span records on drop, panics included.
                let _step_span = trace.start("step", "gpu", track, item.trace_root);
                let session = &mut item.session;
                let template_id = item.q.job.template_id;
                catch_unwind(AssertUnwindSafe(|| {
                    assert!(!chaos_panic, "injected worker panic (chaos hook)");
                    match system.template(template_id) {
                        Ok((_, cache)) => system
                            .pipeline()
                            .step(session, Some(cache))
                            .map_err(FlashPsError::from),
                        Err(e) => Err(e),
                    }
                }))
            };
            let step_result = match step_result {
                Ok(r) => r,
                Err(_panic) => {
                    crashed = true;
                    break;
                }
            };
            if let Err(e) = step_result {
                let item = inflight.swap_remove(i);
                let _ = item.q.reply.send(Err(e));
                continue;
            }
            if inflight[i].session.is_done() {
                let item = inflight.swap_remove(i);
                if trace.is_enabled() {
                    trace.span_at(
                        "denoise",
                        "stage",
                        track,
                        item.admitted_ns,
                        trace.now_ns(),
                        item.trace_root,
                        Vec::new(),
                    );
                }
                outlet.retire(ctx, item, &mut stalled);
                continue;
            }
            i += 1;
        }
        if crashed {
            if trace.is_enabled() {
                trace.event_at(
                    "worker_panic",
                    "server",
                    track,
                    trace.now_ns(),
                    vec![("lost_batch", Json::U64(inflight.len() as u64))],
                );
            }
            // Stalled sessions died with the engine too: rebuild them.
            inflight.append(&mut stalled);
            requeue_batch(&mut inflight, ctx);
        }
    }
}

/// Staged mode, stage 3: VAE decode + postprocess. Pulls finished
/// sessions from the shared decode queue (MPMC) and resolves tickets
/// through the same [`resolve_finish`] tail the monolithic loop runs
/// inline.
fn decode_loop(ctx: &WorkerCtx, rx: &Receiver<Inflight>) {
    loop {
        let Some(item) = poll(rx, true) else {
            if ctx.drained() {
                return;
            }
            continue;
        };
        edge_event(&ctx.config.trace, "stage_dequeue", 1, item.q.slot.id);
        if ctx.timed_out(&item.q) {
            continue;
        }
        resolve_finish(ctx, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FlashPsConfig;
    use fps_diffusion::{Image, ModelConfig};

    fn server(workers: usize, max_batch: usize) -> ThreadedServer {
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        for id in 0..3u64 {
            let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), id);
            sys.register_template(id, &img).unwrap();
        }
        ThreadedServer::start(
            sys,
            ServerConfig {
                workers,
                max_batch,
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
    fn serves_a_single_job() {
        let server = server(1, 2);
        let ticket = server.submit(job(0, 1)).unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.output.image.data().iter().all(|v| v.is_finite()));
        assert!(result.speedup_vs_full > 1.0);
        assert_eq!(result.rung, None, "no ladder without an overload plane");
        server.shutdown();
    }

    #[test]
    fn zero_workers_auto_sizes_from_available_parallelism() {
        // `workers: 0` runs one worker per hardware thread, and the
        // named service threads still serve jobs correctly.
        let server = server(0, 2);
        assert_eq!(
            server.handles.len(),
            std::thread::available_parallelism().map_or(1, usize::from),
            "worker count should match the host's parallelism"
        );
        let ticket = server.submit(job(0, 1)).unwrap();
        assert!(ticket.wait().is_ok());
        server.shutdown();
    }

    #[test]
    fn serves_many_jobs_concurrently() {
        let server = server(2, 3);
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| server.submit(job(i % 3, i)).unwrap())
            .collect();
        for t in tickets {
            let r = t.wait().unwrap();
            assert!(r.mask_ratio > 0.0);
        }
        server.shutdown();
    }

    #[test]
    fn results_match_direct_edits() {
        // Continuous batching must not change outputs: the server's
        // result equals the synchronous API's, whatever the
        // interleaving.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let direct = sys.edit_tokens(0, &[1, 2, 5, 6], "edit", 42).unwrap();
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 2,
                max_batch: 4,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..4).map(|_| server.submit(job(0, 42)).unwrap()).collect();
        for t in tickets {
            let served = t.wait().unwrap();
            assert_eq!(served.output.image, direct.output.image);
        }
        server.shutdown();
    }

    #[test]
    fn guided_jobs_serve_and_differ_from_unguided() {
        let server = server(1, 2);
        let plain = server.submit(job(0, 1)).unwrap().wait().unwrap();
        let mut guided_job = job(0, 1);
        guided_job.guidance = Some(Guidance::cfg(5.0));
        let guided = server.submit(guided_job).unwrap().wait().unwrap();
        assert_ne!(plain.output.image, guided.output.image);
        assert_eq!(guided.output.flops, 2 * plain.output.flops);
        server.shutdown();
    }

    #[test]
    fn unknown_template_errors_through_ticket() {
        let server = server(1, 2);
        let ticket = server.submit(job(99, 1)).unwrap();
        assert!(matches!(
            ticket.wait(),
            Err(FlashPsError::UnknownTemplate { template_id: 99 })
        ));
        server.shutdown();
    }

    #[test]
    fn worker_panic_mid_batch_requeues_and_serves() {
        // The chaos hook panics the worker on the poisoned job's first
        // attempt, killing the whole inflight batch. Every ticket must
        // still resolve: the batch is requeued and served on retry.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        for id in 0..3u64 {
            let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), id);
            sys.register_template(id, &img).unwrap();
        }
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 4,
                chaos_panic_seed: Some(7777),
                ..ServerConfig::default()
            },
        );
        // Fill the batch, with the poisoned job in the middle.
        let tickets = vec![
            server.submit(job(0, 1)).unwrap(),
            server.submit(job(1, 7777)).unwrap(),
            server.submit(job(2, 2)).unwrap(),
        ];
        for t in tickets {
            let r = t.wait().expect("requeued after worker panic");
            assert!(r.output.image.data().iter().all(|v| v.is_finite()));
        }
        server.shutdown();
    }

    #[test]
    fn panic_retry_budget_exhausts_explicitly() {
        // A job whose every attempt panics must resolve to
        // WorkerPanicked, not hang. max_job_attempts = 1 means the
        // first panic already exhausts the budget.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 2,
                max_job_attempts: 1,
                chaos_panic_seed: Some(13),
                ..ServerConfig::default()
            },
        );
        let ticket = server.submit(job(0, 13)).unwrap();
        assert!(matches!(ticket.wait(), Err(FlashPsError::WorkerPanicked)));
        // The worker survives for later jobs.
        let ok = server.submit(job(0, 1)).unwrap();
        assert!(ok.wait().is_ok());
        server.shutdown();
    }

    #[test]
    fn expired_jobs_resolve_to_timeout() {
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 1,
                job_timeout: Some(std::time::Duration::ZERO),
                ..ServerConfig::default()
            },
        );
        // A zero deadline is already expired at admission.
        let ticket = server.submit(job(0, 1)).unwrap();
        assert!(matches!(ticket.wait(), Err(FlashPsError::JobTimeout)));
        server.shutdown();
    }

    #[test]
    fn requeue_drops_expired_jobs_with_timeout() {
        // Satellite: a job whose deadline passes while it is inflight
        // must not re-enter the queue after a worker panic — it
        // resolves to JobTimeout at requeue time, with no extra batch
        // slot burned.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let sink = TraceSink::recording(Clock::Wall);
        let timeout = Duration::from_millis(1);
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 2,
                job_timeout: Some(timeout),
                // The crashed batch is handed to `requeue_batch` below;
                // the worker only lends its state.
                start_paused: true,
                trace: sink.clone(),
                ..ServerConfig::default()
            },
        );
        // A job queue the test owns, so a requeue would be seen.
        let (queue_tx, queue_rx) = unbounded::<QueuedJob>();
        let ctx = WorkerCtx {
            txs: vec![queue_tx],
            ..server.ctx.clone()
        };
        // The batch member: dispatched now, but submitted — as far as
        // its deadline can tell — well before the timeout ago. The
        // lapse is a fact of the input, not a race with the unwind.
        let job = job(0, 55);
        let (rung, slot) = dispatch(&ctx.control, &job, None).unwrap();
        let (session, use_cache, mask_ratio) = begin_job(&ctx.system, &job, rung).unwrap();
        let (reply, rx) = bounded(1);
        let item = Inflight {
            q: QueuedJob {
                job,
                reply,
                attempt: 0,
                enqueued_at: Instant::now().checked_sub(timeout * 1000).unwrap(),
                rung,
                slot,
            },
            session,
            use_cache,
            mask_ratio,
            trace_root: 0,
            admitted_ns: 0,
        };
        assert_eq!(server.queue_depth(), 1);
        requeue_batch(&mut vec![item], &ctx);
        assert!(matches!(
            Ticket { rx }.wait(),
            Err(FlashPsError::JobTimeout)
        ));
        assert!(queue_rx.is_empty(), "an expired job must not be enqueued");
        assert_eq!(server.queue_depth(), 0, "its ledger slot is released");
        server.shutdown();
        let trace = sink.drain().unwrap();
        assert!(
            trace.events.iter().any(|e| e.name == "job_timeout"),
            "the requeue-time drop must be observable in the trace"
        );
    }

    #[test]
    fn drop_with_queued_jobs_drains_gracefully() {
        // Dropping the server with a backlog must neither hang nor
        // leave tickets dangling: workers drain the queue first.
        let server = server(2, 2);
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| server.submit(job(i % 3, i)).unwrap())
            .collect();
        drop(server);
        for t in tickets {
            assert!(t.wait().is_ok(), "queued job must be served, not lost");
        }
    }

    #[test]
    fn queue_cap_sheds_with_overloaded() {
        // One slow worker, a cap of 4, and a burst of 50 instant
        // submits: the burst outruns service, so submits beyond the
        // cap must shed with Overloaded — and every accepted ticket
        // must still resolve successfully.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 1,
                max_queue_depth: Some(4),
                ..ServerConfig::default()
            },
        );
        let mut tickets = Vec::new();
        let mut shed = 0u32;
        for i in 0..50u64 {
            match server.submit(job(0, i)) {
                Ok(t) => tickets.push(t),
                Err(FlashPsError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            assert!(server.queue_depth() <= 4, "depth may never exceed the cap");
        }
        assert!(shed > 0, "the burst must overflow the cap");
        assert!(!tickets.is_empty(), "the cap admits up to its depth");
        for t in tickets {
            assert!(t.wait().is_ok(), "admitted jobs are served normally");
        }
        // Depth drains back to zero: the server accepts again.
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        assert!(server.submit(job(0, 999)).unwrap().wait().is_ok());
        server.shutdown();
    }

    #[test]
    fn uncapped_queue_never_sheds() {
        let server = server(1, 1);
        let tickets: Vec<Ticket> = (0..20)
            .map(|i| server.submit(job(i % 3, i)).expect("no cap, no shed"))
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        server.shutdown();
    }

    #[test]
    fn depth_survives_panic_requeues() {
        // A panic requeue re-registers the job's ledger slot: the slot
        // is released exactly once, when the ticket resolves.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 2,
                chaos_panic_seed: Some(31),
                max_queue_depth: Some(8),
                ..ServerConfig::default()
            },
        );
        let poisoned = server.submit(job(0, 31)).unwrap();
        let clean = server.submit(job(0, 1)).unwrap();
        assert!(poisoned.wait().is_ok(), "requeued after the panic");
        assert!(clean.wait().is_ok());
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        assert_eq!(server.queue_depth(), 0, "slots released exactly once");
        server.shutdown();
    }

    #[test]
    fn paused_server_queues_then_serves_on_resume() {
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 2,
                max_batch: 2,
                start_paused: true,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..4).map(|i| server.submit(job(0, i)).unwrap()).collect();
        // Paused workers admit nothing: the backlog is fully visible.
        assert_eq!(server.queue_depth(), 4);
        server.resume();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        server.shutdown();
    }

    #[test]
    fn wall_clock_tracing_captures_the_request_path() {
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let sink = TraceSink::recording(Clock::Wall);
        let server = ThreadedServer::start(
            sys,
            ServerConfig {
                workers: 2,
                max_batch: 2,
                trace: sink.clone(),
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..4).map(|i| server.submit(job(0, i)).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        server.shutdown();
        let trace = sink.drain().unwrap();
        assert_eq!(trace.clock, Clock::Wall);
        assert_eq!(trace.spans_named("request").count(), 4);
        assert_eq!(trace.spans_named("queue").count(), 4);
        assert_eq!(trace.spans_named("denoise").count(), 4);
        assert_eq!(trace.spans_named("vae_decode").count(), 4);
        assert!(trace.spans_named("step").count() >= 4 * cfg.steps);
        // Children link to their root and nest inside its window.
        for root in trace.spans_named("request") {
            let kids: Vec<_> = trace.spans.iter().filter(|s| s.parent == root.id).collect();
            assert!(!kids.is_empty());
            for k in kids {
                assert!(k.start_ns >= root.start_ns && k.end_ns <= root.end_ns);
            }
        }
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    #[should_panic(expected = "wall-clock")]
    fn virtual_sink_is_rejected() {
        let cfg = ModelConfig::tiny();
        let sys = FlashPs::new(FlashPsConfig::new(cfg)).unwrap();
        let _ = ThreadedServer::start(
            sys,
            ServerConfig {
                trace: TraceSink::recording(Clock::Virtual),
                ..ServerConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "wall-clock execution plane")]
    fn virtual_plane_is_rejected() {
        let cfg = ModelConfig::tiny();
        let sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let plane = ControlPlane::new(
            Box::new(LeastLoadedRouter) as Box<dyn Router + Send>,
            TimeSource::virtual_clock(),
            cfg.steps,
        );
        let _ = ThreadedServer::start_with_plane(sys, ServerConfig::default(), plane);
    }

    fn staged_server(
        workers: usize,
        max_batch: usize,
        staged: StagedServerConfig,
    ) -> ThreadedServer {
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        for id in 0..3u64 {
            let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), id);
            sys.register_template(id, &img).unwrap();
        }
        ThreadedServer::start_staged(
            sys,
            ServerConfig {
                workers,
                max_batch,
                ..ServerConfig::default()
            },
            staged,
        )
    }

    #[test]
    fn staged_results_match_direct_edits() {
        // Disaggregation must not change outputs: encode → denoise →
        // decode over bounded queues produces the same bytes as the
        // synchronous API (and therefore as the monolithic server).
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let direct = sys.edit_tokens(0, &[1, 2, 5, 6], "edit", 42).unwrap();
        let server = ThreadedServer::start_staged(
            sys,
            ServerConfig {
                workers: 2,
                max_batch: 4,
                ..ServerConfig::default()
            },
            StagedServerConfig::default(),
        );
        let tickets: Vec<Ticket> = (0..4).map(|_| server.submit(job(0, 42)).unwrap()).collect();
        for t in tickets {
            let served = t.wait().unwrap();
            assert_eq!(served.output.image, direct.output.image);
        }
        server.shutdown();
    }

    #[test]
    fn staged_serves_many_jobs_across_pools() {
        let server = staged_server(2, 3, StagedServerConfig::default());
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| server.submit(job(i % 3, i)).unwrap())
            .collect();
        for t in tickets {
            let r = t.wait().unwrap();
            assert!(r.mask_ratio > 0.0);
        }
        server.shutdown();
    }

    #[test]
    fn staged_backpressure_with_tiny_queues_loses_nothing() {
        // Queue capacity 1 everywhere: every edge backpressures, and
        // every ticket must still resolve (conservation, wall-clock
        // edition).
        let server = staged_server(
            1,
            2,
            StagedServerConfig {
                encode_workers: 2,
                decode_workers: 1,
                stage_queue_capacity: 1,
            },
        );
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| server.submit(job(i % 3, i)).unwrap())
            .collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        server.shutdown();
    }

    #[test]
    fn staged_expired_jobs_drop_at_stage_boundaries() {
        // A zero deadline expires at the first boundary it crosses:
        // the ticket resolves to JobTimeout and no batch slot is ever
        // occupied.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let server = ThreadedServer::start_staged(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 1,
                job_timeout: Some(std::time::Duration::ZERO),
                ..ServerConfig::default()
            },
            StagedServerConfig::default(),
        );
        let ticket = server.submit(job(0, 1)).unwrap();
        assert!(matches!(ticket.wait(), Err(FlashPsError::JobTimeout)));
        server.shutdown();
    }

    #[test]
    fn staged_panic_requeues_through_encode_pool() {
        // A denoise panic kills the built sessions; the requeue path
        // re-enters through the encode pool (sessions must be rebuilt)
        // and every ticket still resolves.
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        for id in 0..3u64 {
            let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), id);
            sys.register_template(id, &img).unwrap();
        }
        let server = ThreadedServer::start_staged(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 4,
                chaos_panic_seed: Some(7777),
                ..ServerConfig::default()
            },
            StagedServerConfig::default(),
        );
        let tickets = vec![
            server.submit(job(0, 1)).unwrap(),
            server.submit(job(1, 7777)).unwrap(),
            server.submit(job(2, 2)).unwrap(),
        ];
        for t in tickets {
            let r = t.wait().expect("requeued after worker panic");
            assert!(r.output.image.data().iter().all(|v| v.is_finite()));
        }
        server.shutdown();
    }

    #[test]
    fn staged_drop_with_queued_jobs_drains_gracefully() {
        let server = staged_server(2, 2, StagedServerConfig::default());
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| server.submit(job(i % 3, i)).unwrap())
            .collect();
        drop(server);
        for t in tickets {
            assert!(t.wait().is_ok(), "queued job must be served, not lost");
        }
    }

    #[test]
    fn staged_tracing_captures_stage_path_and_edges() {
        let cfg = ModelConfig::tiny();
        let mut sys = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
        let img = Image::template(cfg.pixel_h(), cfg.pixel_w(), 0);
        sys.register_template(0, &img).unwrap();
        let sink = TraceSink::recording(Clock::Wall);
        let server = ThreadedServer::start_staged(
            sys,
            ServerConfig {
                workers: 1,
                max_batch: 2,
                trace: sink.clone(),
                ..ServerConfig::default()
            },
            StagedServerConfig::default(),
        );
        let tickets: Vec<Ticket> = (0..4).map(|i| server.submit(job(0, i)).unwrap()).collect();
        for t in tickets {
            t.wait().unwrap();
        }
        server.shutdown();
        let trace = sink.drain().unwrap();
        assert_eq!(trace.spans_named("request").count(), 4);
        assert_eq!(trace.spans_named("queue").count(), 4);
        assert_eq!(trace.spans_named("text_encode").count(), 4);
        assert_eq!(trace.spans_named("denoise").count(), 4);
        assert_eq!(trace.spans_named("vae_decode").count(), 4);
        // Each request crosses both edges exactly once.
        for name in ["stage_enqueue", "stage_dequeue"] {
            assert_eq!(
                trace.events.iter().filter(|e| e.name == name).count(),
                8,
                "{name} events should cover both edges for all four jobs"
            );
        }
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn shutdown_then_submit_fails() {
        let s = server(1, 1);
        let system_alive = {
            let ticket = s.submit(job(0, 1)).unwrap();
            ticket.wait().is_ok()
        };
        assert!(system_alive);
        // After drop, the struct is gone; emulate by explicit
        // shutdown on a fresh server and checking drop path runs.
        let s2 = server(1, 1);
        s2.shutdown();
    }
}
