//! The shared control plane: policy decisions, separated from the
//! execution substrate that carries them out.
//!
//! FlashPS has two execution planes — the virtual-time [`ClusterSim`]
//! and the wall-clock `ThreadedServer` in fps-core — and one set of
//! serving policies: SLO-aware admission, the five-rung degradation
//! ladder, the cache-read circuit breaker, and mask-aware routing.
//! [`ControlPlane`] owns those policies behind a clock-generic
//! interface (every method takes an explicit [`SimTime`] stamp; a
//! [`TimeSource`] names the clock domain the stamps come from), so
//! both planes consult the exact same code and, given the same inputs,
//! produce the exact same [`Decision`] sequence. That property is what
//! the decision-parity differential test in
//! `tests/integration_control.rs` locks in.
//!
//! The split is strict: the plane decides (*admit or shed? which rung?
//! which worker?*) and the execution plane acts (schedules events or
//! sends on channels, charges batches, completes requests). The plane
//! never blocks, sleeps, or touches a queue.
//!
//! [`ClusterSim`]: crate::cluster::ClusterSim

use fps_json::Json;
use fps_overload::{
    AdmissionConfig, AdmissionVerdict, BreakerConfig, CircuitBreaker, LadderConfig, Rung,
    ShedCause, TimeSource,
};
use fps_simtime::{SimDuration, SimTime};
use fps_trace::{TraceSink, Track};
use fps_workload::RequestSpec;

use crate::cost::CostModel;
use crate::overload::{rung_steps, OverloadConfig, OverloadState};
use crate::router::{HealthAwareRouter, LeastLoadedRouter, Router, WorkerView};

/// One policy decision, in the order the plane made it.
///
/// The recorded sequence is the plane's observable behaviour: two
/// execution planes fed the same workload through the same policies
/// must produce identical sequences, even though their clocks (and
/// therefore outcome timings) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The request passed admission control.
    Admitted {
        /// Request id.
        id: u64,
    },
    /// The request was shed at admission.
    Shed {
        /// Request id.
        id: u64,
        /// Which admission gate rejected it.
        cause: ShedCause,
    },
    /// The ladder assigned this dispatch a degradation rung.
    Rung {
        /// Request id.
        id: u64,
        /// The rung in effect for this dispatch.
        rung: Rung,
    },
    /// The router chose a worker (pre-clamp: the raw router output).
    Routed {
        /// Request id.
        id: u64,
        /// Chosen worker index.
        worker: usize,
    },
}

/// What the plane decided to do with a submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Assessment {
    /// Serve the request, at `steps` denoising steps; `rung` is the
    /// degradation rung when overload control is active.
    Serve {
        /// Ladder rung for this dispatch (None without overload
        /// control).
        rung: Option<Rung>,
        /// Denoising steps to run (rung-scaled under overload).
        steps: usize,
    },
    /// Shed the request at admission.
    Shed(ShedCause),
}

/// Clock-generic policy pipeline: admission → ladder → routing, with
/// the cache-read breaker held for the execution plane's fetch path.
///
/// Construction picks the policy set: [`ControlPlane::with_overload`]
/// installs the full stack; [`ControlPlane::with_queue_cap`] installs
/// only the legacy bounded-queue gate (the threaded server's original
/// single policy, kept for configurations that opt out of overload
/// control). With neither, every submission is admitted at full
/// steps.
#[derive(Debug)]
pub struct ControlPlane<R> {
    router: HealthAwareRouter<R>,
    overload: Option<OverloadState>,
    queue_cap: Option<usize>,
    time: TimeSource,
    full_steps: usize,
    decisions: Option<Vec<Decision>>,
    trace: TraceSink,
    control_track: Track,
}

/// The default trace track decision events land on: distinct from the
/// per-worker execution tracks so policy and mechanism stay visually
/// separate in exported traces. Fleet shards override it (one control
/// track per shard) via [`ControlPlane::with_control_track`].
const CONTROL_TRACK: Track = Track::new(1, 0);

impl ControlPlane<LeastLoadedRouter> {
    /// The virtual-clock plane of one simulated serving unit (a fleet
    /// shard, a stage pool), with the full overload stack sized for it.
    ///
    /// The admission bucket is sized from the unit's own service model
    /// rather than [`OverloadConfig::for_cluster`]'s full-batch waves:
    /// `admission_lanes` concurrent lanes of the pool the gate protects,
    /// each turning over once per `per_req_secs`. `lanes` is one
    /// worker's batch width, which sizes the ladder's wave estimates at
    /// the offered load's `mean_mask_ratio`. With `allow_degradation`
    /// off, unreachable enter thresholds pin the ladder at the premium
    /// rung: admission still sheds, but every served request gets full
    /// quality.
    pub fn for_pool(
        cost: &CostModel,
        lanes: usize,
        mean_mask_ratio: f64,
        deadline_secs: f64,
        admission_lanes: usize,
        per_req_secs: f64,
        allow_degradation: bool,
    ) -> Self {
        let mut ladder = LadderConfig::default();
        if !allow_degradation {
            ladder.enter = [f64::INFINITY; 4];
        }
        let config = OverloadConfig {
            admission: AdmissionConfig::for_capacity(admission_lanes, per_req_secs, deadline_secs),
            ladder,
            breaker: BreakerConfig::default(),
            deadline: SimDuration::from_secs_f64(deadline_secs),
        };
        let state = OverloadState::new(config, cost, lanes, mean_mask_ratio);
        Self::new(
            LeastLoadedRouter,
            TimeSource::virtual_clock(),
            cost.model.steps,
        )
        .with_overload(Some(state))
    }
}

impl<R: Router> ControlPlane<R> {
    /// A plane with no overload control and no queue bound: routing
    /// only.
    pub fn new(router: R, time: TimeSource, full_steps: usize) -> Self {
        ControlPlane {
            router: HealthAwareRouter::new(router),
            overload: None,
            queue_cap: None,
            time,
            full_steps,
            decisions: None,
            trace: TraceSink::disabled(),
            control_track: CONTROL_TRACK,
        }
    }

    /// Overrides the trace track decision events land on. A fleet runs
    /// one plane per shard; giving each its own track keeps per-shard
    /// policy streams separable in one exported trace.
    pub fn with_control_track(mut self, track: Track) -> Self {
        self.control_track = track;
        self
    }

    /// Attaches a trace sink: every decision is emitted as an event
    /// whose args carry the plane's clock domain
    /// ([`TimeSource::clock_label`]), so a trace reader always knows
    /// which clock the decision stamps come from.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Installs the full overload-control stack (admission, ladder,
    /// breaker).
    pub fn with_overload(mut self, overload: Option<OverloadState>) -> Self {
        self.overload = overload;
        self
    }

    /// Installs the legacy queue-depth bound, consulted only when no
    /// overload stack is installed.
    pub fn with_queue_cap(mut self, cap: Option<usize>) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Enables (or disables) recording of the decision sequence.
    pub fn record_decisions(mut self, on: bool) -> Self {
        self.decisions = if on { Some(Vec::new()) } else { None };
        self
    }

    /// The clock domain this plane's stamps are expected from.
    pub fn time(&self) -> &TimeSource {
        &self.time
    }

    /// Whether the full overload stack is installed.
    pub fn overload_enabled(&self) -> bool {
        self.overload.is_some()
    }

    /// The overload state, when installed.
    pub fn overload(&self) -> Option<&OverloadState> {
        self.overload.as_ref()
    }

    /// The cache-read circuit breaker, for the execution plane's
    /// guarded fetch path.
    pub fn breaker_mut(&mut self) -> Option<&mut CircuitBreaker> {
        self.overload.as_mut().map(|ov| &mut ov.breaker)
    }

    /// The SLO deadline work must meet at batch join, when overload
    /// control is active.
    pub fn slo_deadline(&self) -> Option<SimDuration> {
        self.overload.as_ref().map(|ov| ov.config.deadline)
    }

    /// The recorded decision sequence (empty unless recording was
    /// enabled).
    pub fn decisions(&self) -> &[Decision] {
        self.decisions.as_deref().unwrap_or(&[])
    }

    fn log(&mut self, d: Decision, now: SimTime) {
        if let Some(log) = self.decisions.as_mut() {
            log.push(d);
        }
        if !self.trace.is_enabled() {
            return;
        }
        // Stamp in the sink's own domain: a wall sink keeps one epoch
        // for the whole trace, a virtual sink takes the explicit
        // simulator stamp. The clock arg names the domain either way.
        let ts = if self.time.is_wall() {
            self.trace.now_ns()
        } else {
            now.as_nanos()
        };
        let clock = ("clock", Json::Str(self.time.clock_label().into()));
        let (name, mut args) = match d {
            Decision::Admitted { id } => ("admit", vec![("id", Json::U64(id))]),
            Decision::Shed { id, cause } => (
                "shed",
                vec![
                    ("id", Json::U64(id)),
                    ("cause", Json::Str(cause.label().into())),
                ],
            ),
            Decision::Rung { id, rung } => (
                "rung",
                vec![
                    ("id", Json::U64(id)),
                    ("rung", Json::Str(rung.label().into())),
                ],
            ),
            Decision::Routed { id, worker } => (
                "route_decision",
                vec![("id", Json::U64(id)), ("worker", Json::U64(worker as u64))],
            ),
        };
        args.push(clock);
        self.trace
            .event_at(name, "control", self.control_track, ts, args);
    }

    /// Admission and rung selection for one submission attempt.
    ///
    /// `backlog` is the work already in the system (outstanding plus
    /// parked/queued), *not* counting this request; `capacity` is the
    /// live concurrent service slots. `already_admitted` marks retries
    /// and parked re-dispatches, which have paid for their admission
    /// slot but are re-assessed by the ladder at the pressure
    /// prevailing when they re-enter.
    pub fn assess(
        &mut self,
        id: u64,
        now: SimTime,
        backlog: usize,
        capacity: usize,
        already_admitted: bool,
    ) -> Assessment {
        if self.overload.is_some() {
            if !already_admitted {
                let ov = self.overload.as_mut().expect("checked above");
                let est_floor = ov.est_completion_secs(backlog, capacity, ov.wave_floor);
                match ov.admission.check(now, backlog, est_floor) {
                    AdmissionVerdict::Admit => self.log(Decision::Admitted { id }, now),
                    AdmissionVerdict::Shed(cause) => {
                        self.log(Decision::Shed { id, cause }, now);
                        return Assessment::Shed(cause);
                    }
                }
            }
            let ov = self.overload.as_mut().expect("checked above");
            let pressure = ov.pressure(backlog, capacity);
            let rung = ov.ladder.observe(pressure, now);
            self.log(Decision::Rung { id, rung }, now);
            return Assessment::Serve {
                rung: Some(rung),
                steps: rung_steps(rung, self.full_steps),
            };
        }
        if let Some(cap) = self.queue_cap {
            if !already_admitted && backlog >= cap {
                self.log(
                    Decision::Shed {
                        id,
                        cause: ShedCause::QueueFull,
                    },
                    now,
                );
                return Assessment::Shed(ShedCause::QueueFull);
            }
        }
        if !already_admitted {
            self.log(Decision::Admitted { id }, now);
        }
        Assessment::Serve {
            rung: None,
            steps: self.full_steps,
        }
    }

    /// Routes a request over the given worker views, returning the
    /// raw (unclamped) router choice. Execution planes clamp
    /// out-of-range ids to a safe worker themselves, so a buggy custom
    /// router degrades instead of wedging the run.
    pub fn route(
        &mut self,
        id: u64,
        spec: &RequestSpec,
        views: &[WorkerView],
        now: SimTime,
    ) -> usize {
        let w = self.router.route(spec, views, now);
        self.log(Decision::Routed { id, worker: w }, now);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, GpuSpec};
    use crate::overload::OverloadConfig;
    use crate::router::LeastLoadedRouter;
    use crate::worker::WorkerHealth;
    use fps_diffusion::ModelConfig;
    use fps_simtime::SimDuration;
    use fps_workload::trace::MaskShapeSpec;

    fn view(id: usize) -> WorkerView {
        WorkerView {
            id,
            outstanding: Vec::new(),
            max_batch: 4,
            model_tokens: 4096,
            health: WorkerHealth::Healthy,
        }
    }

    fn spec(id: u64) -> RequestSpec {
        RequestSpec {
            id,
            arrival_ns: 0,
            template_id: 0,
            mask_ratio: 0.25,
            mask_shape: MaskShapeSpec::Rect,
            seed: id,
        }
    }

    fn overloaded_plane() -> ControlPlane<LeastLoadedRouter> {
        let cost = CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl());
        let config =
            OverloadConfig::for_cluster(&cost, 2, 4, 0.25, SimDuration::from_secs_f64(6.0));
        let state = OverloadState::new(config, &cost, 4, 0.25);
        ControlPlane::new(LeastLoadedRouter, TimeSource::virtual_clock(), 50)
            .with_overload(Some(state))
            .record_decisions(true)
    }

    #[test]
    fn plain_plane_admits_everything_at_full_steps() {
        let mut plane = ControlPlane::new(LeastLoadedRouter, TimeSource::virtual_clock(), 50)
            .record_decisions(true);
        for i in 0..100 {
            let got = plane.assess(i, SimTime::ZERO, i as usize, 4, false);
            assert_eq!(
                got,
                Assessment::Serve {
                    rung: None,
                    steps: 50
                }
            );
        }
        assert_eq!(plane.decisions().len(), 100);
    }

    #[test]
    fn queue_cap_sheds_above_bound_only() {
        let mut plane = ControlPlane::new(LeastLoadedRouter, TimeSource::virtual_clock(), 50)
            .with_queue_cap(Some(2));
        assert!(matches!(
            plane.assess(0, SimTime::ZERO, 1, 4, false),
            Assessment::Serve { .. }
        ));
        assert_eq!(
            plane.assess(1, SimTime::ZERO, 2, 4, false),
            Assessment::Shed(ShedCause::QueueFull)
        );
        // Retries never re-pay the queue bound.
        assert!(matches!(
            plane.assess(2, SimTime::ZERO, 99, 4, true),
            Assessment::Serve { .. }
        ));
    }

    #[test]
    fn overload_plane_sheds_and_degrades_under_pressure() {
        let mut plane = overloaded_plane();
        // A burst of fresh submissions all at t=0: the token bucket
        // never refills, so the tail of the burst must shed.
        let mut shed = 0;
        for i in 0..200 {
            if let Assessment::Shed(_) = plane.assess(i, SimTime::ZERO, 4, 8, false) {
                shed += 1;
            }
        }
        assert!(shed > 0, "admission never shed under saturation");
        // A retry re-entering against an enormous backlog skips
        // admission but is re-assessed by the ladder, which jumps
        // straight to the cheapest rung under unbounded pressure.
        match plane.assess(999, SimTime::ZERO, 1_000_000, 8, true) {
            Assessment::Serve { rung, steps } => {
                assert_eq!(rung, Some(Rung::ReducedSteps));
                assert_eq!(steps, rung_steps(Rung::ReducedSteps, 50));
                assert!(steps < 50);
            }
            other => panic!("retry path shed unexpectedly: {other:?}"),
        }
        // The decision log interleaves admits, sheds, and rungs.
        assert!(plane
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::Shed { .. })));
        assert!(plane
            .decisions()
            .iter()
            .any(|d| matches!(d, Decision::Rung { .. })));
    }

    #[test]
    fn pool_plane_pins_the_ladder_only_without_degradation() {
        let cost = CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl());
        let plane = |degrade| ControlPlane::for_pool(&cost, 4, 0.11, 6.0, 8, 1.5, degrade);
        let (mut pinned, mut free) = (plane(false), plane(true));
        let ov = pinned.overload().expect("overload installed");
        let want = fps_overload::AdmissionConfig::for_capacity(8, 1.5, 6.0);
        let got = &ov.config.admission;
        assert_eq!(
            (
                got.rate_per_sec,
                got.burst,
                got.max_queue_depth,
                got.deadline_secs
            ),
            (
                want.rate_per_sec,
                want.burst,
                want.max_queue_depth,
                want.deadline_secs
            )
        );
        assert_eq!(ov.config.deadline, SimDuration::from_secs_f64(6.0));
        // A re-dispatch against an unbounded backlog: the free ladder
        // drops to its cheapest rung, the pinned one holds premium.
        let serve =
            |p: &mut ControlPlane<LeastLoadedRouter>| p.assess(1, SimTime::ZERO, 1 << 20, 8, true);
        assert_eq!(
            serve(&mut pinned),
            Assessment::Serve {
                rung: Some(Rung::FlashPsKv),
                steps: 50
            }
        );
        assert!(matches!(
            serve(&mut free),
            Assessment::Serve {
                rung: Some(Rung::ReducedSteps),
                ..
            }
        ));
    }

    #[test]
    fn route_logs_raw_choice() {
        let mut plane = overloaded_plane();
        let views = [view(0), view(1)];
        let w = plane.route(7, &spec(7), &views, SimTime::ZERO);
        assert_eq!(w, 0);
        assert!(plane
            .decisions()
            .contains(&Decision::Routed { id: 7, worker: 0 }));
    }

    #[test]
    fn decision_events_carry_the_clock_domain() {
        let sink = fps_trace::TraceSink::recording(fps_trace::Clock::Virtual);
        let mut plane = overloaded_plane().with_trace(sink.clone());
        let got = plane.assess(1, SimTime::ZERO, 0, 8, false);
        assert!(matches!(got, Assessment::Serve { .. }));
        let views = [view(0), view(1)];
        plane.route(1, &spec(1), &views, SimTime::ZERO);
        let t = sink.drain().expect("recording sink");
        for name in ["admit", "rung", "route_decision"] {
            let ev = t
                .events
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("missing {name} event"));
            assert_eq!(ev.cat, "control");
            assert_eq!(
                ev.arg("clock"),
                Some(&Json::Str("virtual".into())),
                "decision events must name the plane's clock domain"
            );
        }
    }

    #[test]
    fn breaker_is_shared_not_cloned() {
        let mut plane = overloaded_plane();
        for _ in 0..3 {
            let b = plane.breaker_mut().expect("overload installed");
            b.record_failure(SimTime::ZERO);
        }
        // Failures recorded through the accessor mutate the plane's
        // own breaker: the trip is visible through the shared state.
        assert_eq!(plane.overload().unwrap().breaker.trips(), 1);
    }
}
