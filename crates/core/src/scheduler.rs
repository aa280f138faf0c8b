//! Algorithm 2: the mask-aware scheduling policy.
//!
//! For each candidate worker, the scheduler forms the hypothetical
//! batch `running_batch + new_request`, estimates its per-step compute
//! and cache-load latencies with the offline-fitted regression models
//! (Fig. 11), runs Algorithm 1's pipeline planner over those estimates, and
//! scores the worker by the pipeline latency scaled by the batch's
//! remaining denoising work. The request goes to the lowest-scoring
//! worker.

use fps_json::Json;
use fps_maskcache::pipeline::plan_uniform;
use fps_maskcache::BlockCosts;
use fps_serving::cost::{BatchItem, CostModel};
use fps_serving::profiler::{fit_latency_model, LatencyModel};
use fps_serving::router::{Router, WorkerView};
use fps_simtime::SimTime;
use fps_trace::{Clock, TraceSink, Track};
use fps_workload::RequestSpec;

use crate::Result;

/// The mask-aware router (Algorithm 2).
#[derive(Debug)]
pub struct MaskAwareRouter {
    cost: CostModel,
    latency: LatencyModel,
    decisions: u64,
    trace: TraceSink,
}

impl MaskAwareRouter {
    /// Fits the regression models offline and builds the router.
    ///
    /// # Errors
    ///
    /// Propagates profiler fitting failures.
    pub fn new(cost: CostModel) -> Result<Self> {
        let (latency, _, _) = fit_latency_model(&cost)?;
        Ok(Self {
            cost,
            latency,
            decisions: 0,
            trace: TraceSink::disabled(),
        })
    }

    /// Attaches a trace sink; every routing decision becomes a
    /// scheduler-track instant event carrying the chosen worker and
    /// its estimated cost.
    ///
    /// # Panics
    ///
    /// Panics on a wall-clock sink: `route` timestamps with the
    /// simulator's [`SimTime`], so the sink must be virtual (share the
    /// one passed to `ClusterConfig::trace`).
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        assert_ne!(
            sink.clock(),
            Some(Clock::Wall),
            "MaskAwareRouter routes on virtual time; attach the ClusterSim's \
             virtual-clock sink"
        );
        self.trace = sink;
        self
    }

    /// The fitted latency models (for inspection and the Fig. 11
    /// bench).
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Scheduling decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Algorithm 2's `CalcCost`: the estimated serving latency of a
    /// worker if `req` joined its outstanding batch.
    pub fn calc_cost(&self, req: &RequestSpec, worker: &WorkerView) -> f64 {
        // new_batch ← worker.running_batch + req.
        let mut batch: Vec<BatchItem> = worker
            .outstanding
            .iter()
            .map(|r| BatchItem {
                mask_ratio: r.mask_ratio,
            })
            .collect();
        batch.push(BatchItem {
            mask_ratio: req.mask_ratio,
        });

        // Per-block latency estimates from the regression models.
        let blocks = self.cost.model.blocks.max(1);
        let compute_cached = self
            .latency
            .predict_compute(&self.cost, &batch)
            .mul_f64(1.0 / blocks as f64);
        let load = self
            .latency
            .predict_load(&self.cost, &batch)
            .mul_f64(1.0 / blocks as f64);
        // C_w/o: the compute estimate at mask ratio 1 for the same
        // batch size.
        let full_batch: Vec<BatchItem> = batch
            .iter()
            .map(|_| BatchItem { mask_ratio: 1.0 })
            .collect();
        let compute_full = self
            .latency
            .predict_compute(&self.cost, &full_batch)
            .mul_f64(1.0 / blocks as f64);

        // dp(new_batch, Comp(·), Load(·)) — Algorithm 1 extended with
        // the estimated costs.
        let plan = plan_uniform(
            blocks,
            BlockCosts {
                compute_cached,
                compute_full,
                load,
            },
        );

        // Scale per-step latency by the batch's remaining denoising
        // work (steps left of outstanding requests; the new request
        // runs the full schedule).
        let total_remaining: usize = worker
            .outstanding
            .iter()
            .map(|r| r.steps_left)
            .sum::<usize>()
            + self.cost.model.steps;
        let mean_remaining = total_remaining as f64 / batch.len() as f64;
        // Overflow beyond the batch capacity queues behind the batch:
        // penalize proportionally.
        let overflow = (batch.len() as f64 / worker.max_batch.max(1) as f64).max(1.0);
        plan.latency.as_secs_f64() * mean_remaining * overflow
    }
}

impl Router for MaskAwareRouter {
    fn route(&mut self, req: &RequestSpec, workers: &[WorkerView], now: SimTime) -> usize {
        self.decisions += 1;
        let (chosen, cost) = workers
            .iter()
            .map(|w| (w.id, self.calc_cost(req, w)))
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })
            .unwrap_or((0, 0.0));
        if self.trace.is_enabled() {
            self.trace.event_at(
                "route",
                "scheduler",
                Track::new(0, 0),
                now.as_nanos(),
                vec![
                    ("id", Json::U64(req.id)),
                    ("worker", Json::U64(chosen as u64)),
                    ("est_cost_secs", Json::F64(cost)),
                ],
            );
        }
        chosen
    }

    fn name(&self) -> &'static str {
        "mask-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_diffusion::ModelConfig;
    use fps_serving::cost::GpuSpec;
    use fps_serving::worker::OutstandingReq;
    use fps_workload::trace::MaskShapeSpec;

    fn router() -> MaskAwareRouter {
        MaskAwareRouter::new(CostModel::new(GpuSpec::h800(), ModelConfig::paper_sdxl())).unwrap()
    }

    fn req(m: f64) -> RequestSpec {
        RequestSpec {
            id: 0,
            arrival_ns: 0,
            template_id: 0,
            mask_ratio: m,
            mask_shape: MaskShapeSpec::Rect,
            seed: 0,
        }
    }

    fn view(id: usize, ratios: &[f64], steps_left: usize) -> WorkerView {
        WorkerView {
            id,
            outstanding: ratios
                .iter()
                .map(|&m| OutstandingReq {
                    mask_ratio: m,
                    steps_left,
                })
                .collect(),
            max_batch: 8,
            model_tokens: 4096,
            health: fps_serving::worker::WorkerHealth::Healthy,
        }
    }

    #[test]
    fn prefers_idle_workers() {
        let mut r = router();
        let ws = vec![view(0, &[0.3, 0.3], 40), view(1, &[], 0)];
        assert_eq!(r.route(&req(0.2), &ws, SimTime::ZERO), 1);
        assert_eq!(r.decisions(), 1);
        assert_eq!(r.name(), "mask-aware");
    }

    #[test]
    fn sees_mask_sizes_not_just_counts() {
        // Worker 0: one huge mask; worker 1: two tiny masks. A
        // request-count balancer picks 0; mask-aware picks 1.
        let mut r = router();
        let ws = vec![view(0, &[0.9], 50), view(1, &[0.05, 0.05], 50)];
        assert_eq!(r.route(&req(0.1), &ws, SimTime::ZERO), 1);
    }

    #[test]
    fn cost_grows_with_load() {
        let r = router();
        let idle = view(0, &[], 0);
        let busy = view(0, &[0.3, 0.3, 0.3], 50);
        let c_idle = r.calc_cost(&req(0.2), &idle);
        let c_busy = r.calc_cost(&req(0.2), &busy);
        assert!(c_busy > c_idle, "busy {c_busy} vs idle {c_idle}");
        assert!(c_idle > 0.0);
    }

    #[test]
    fn overflow_beyond_capacity_is_penalized() {
        let r = router();
        let mut full = view(0, &[0.2; 8], 50);
        full.max_batch = 8;
        let mut half = view(1, &[0.2; 4], 50);
        half.max_batch = 8;
        let c_full = r.calc_cost(&req(0.2), &full);
        let c_half = r.calc_cost(&req(0.2), &half);
        assert!(c_full > c_half);
    }

    #[test]
    fn empty_worker_list_defaults_to_zero() {
        let mut r = router();
        assert_eq!(r.route(&req(0.2), &[], SimTime::ZERO), 0);
    }

    #[test]
    fn routing_decisions_are_traced() {
        let sink = TraceSink::recording(Clock::Virtual);
        let mut r = router().with_trace(sink.clone());
        let ws = vec![view(0, &[], 0), view(1, &[0.5, 0.5], 40)];
        r.route(&req(0.2), &ws, SimTime::from_nanos(5_000));
        let t = sink.drain().unwrap();
        assert_eq!(t.events.len(), 1);
        let ev = &t.events[0];
        assert_eq!(ev.name, "route");
        assert_eq!(ev.ts_ns, 5_000);
        assert_eq!(ev.arg("worker").and_then(Json::as_u64), Some(0));
    }

    #[test]
    #[should_panic(expected = "virtual-clock")]
    fn wall_clock_sink_is_rejected() {
        let _ = router().with_trace(TraceSink::recording(Clock::Wall));
    }
}
