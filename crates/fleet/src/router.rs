//! Fleet-level request routing: which *shard* serves a request.
//!
//! Affinity routing hashes the request's `template_id` onto the ring so
//! repeat edits of one template land where its activations are cached.
//! Raw consistent hashing, though, happily melts a shard when Zipf
//! skew concentrates traffic on one hot template; the affinity policy
//! is therefore consistent hashing with *bounded load* (in the spirit
//! of Mirrokni et al.): a shard may hold at most `load_factor ×` its
//! own service capacity in outstanding requests, and overflow walks
//! the key's preference list so each hot key spills to a consistent
//! secondary (whose cache then warms too). The bound is absolute —
//! tied to lanes, not to the fleet-average backlog — because each
//! shard's admission control sheds on its own rate and queue depth: a
//! backlog-relative bound grows exactly when the fleet queues up, and
//! would keep concentrating load on the hot shard until admission
//! sheds it.
//!
//! **Feedback affinity** goes one step further: among the candidates
//! under the load bound, it asks the [`CacheFeedback`] signal what the
//! template actually *costs* on each shard (measured hit/fetch EWMAs,
//! seeded by placement hints) and picks the cheapest. Blind affinity
//! assumes the preference order still matches where the bytes are;
//! after churn, a wipe, or a budget-refused admission it does not, and
//! the measured costs say so.

use std::sync::{Arc, Mutex};

use fps_metrics::{CacheFeedback, FetchOutcome};
use fps_serving::{Router, WorkerView};
use fps_simtime::SimTime;
use fps_workload::RequestSpec;

use crate::ring::HashRing;

/// What the fleet router sees of each shard when placing a request.
#[derive(Debug, Clone, Copy)]
pub struct ShardLoad {
    /// Shard id (must be on the ring for affinity routing).
    pub shard: u32,
    /// Requests admitted to the shard and not yet completed.
    pub outstanding: usize,
    /// Concurrent service lanes (workers × batch slots): the capacity
    /// the affinity load bound multiplies.
    pub lanes: usize,
}

/// Shard-selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteStrategy {
    /// Bounded-load consistent hashing on `template_id`.
    Affinity {
        /// Per-shard cap on outstanding requests as a multiple of the
        /// shard's service lanes (must exceed 1; ~1.1–1.25 keeps hot
        /// shards below their admission shed thresholds).
        load_factor: f64,
    },
    /// Ignore templates; cycle through shards.
    RoundRobin,
    /// Ignore templates; pick pseudo-randomly by request id.
    Random,
    /// Bounded-load consistent hashing that breaks ties among
    /// under-bound candidates by measured cache cost: the request goes
    /// to the shard where its template is cheapest to serve, per the
    /// [`CacheFeedback`] fetch-cost EWMAs.
    FeedbackAffinity {
        /// Same per-shard cap as [`RouteStrategy::Affinity`].
        load_factor: f64,
    },
}

impl RouteStrategy {
    /// Policy name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Affinity { .. } => "affinity",
            Self::RoundRobin => "round-robin",
            Self::Random => "random",
            Self::FeedbackAffinity { .. } => "feedback-affinity",
        }
    }
}

/// The bounded-load preference walk every affinity policy shares.
///
/// Walks `ring`'s preference list for `template_id` and keeps the
/// candidates under their load bound: `load_factor ×` their lanes in
/// outstanding requests, at least one so an empty pool still admits.
/// `load` reports `(outstanding, lanes)` for a listed id, or `None` for
/// an id the caller cannot place on. Without `feedback` the first
/// candidate under its bound wins; with it, the candidate with the
/// lowest [`CacheFeedback::routing_key`] (pair cost, then shard churn),
/// ties to the earlier preference rank — so with no observations the
/// keys tie and this is the blind walk. Returns the winner and its
/// rank, or `None` when every listed candidate is at its bound — each
/// caller then falls back on its own least-loaded rule.
fn bounded_walk(
    ring: &HashRing,
    template_id: u64,
    load_factor: f64,
    load: impl Fn(u32) -> Option<(usize, usize)>,
    feedback: Option<&CacheFeedback>,
) -> Option<(u32, usize)> {
    let mut best: Option<((f64, f64), u32, usize)> = None;
    for (rank, id) in ring.preference(template_id).into_iter().enumerate() {
        let Some((outstanding, lanes)) = load(id) else {
            continue;
        };
        let cap = ((load_factor * lanes as f64).ceil() as usize).max(1);
        if outstanding >= cap {
            continue;
        }
        let Some(feedback) = feedback else {
            return Some((id, rank));
        };
        let key = feedback.routing_key(id, template_id);
        let cheaper =
            best.is_none_or(|(b, _, _)| key.0.total_cmp(&b.0).then(key.1.total_cmp(&b.1)).is_lt());
        if cheaper {
            best = Some((key, id, rank));
        }
    }
    best.map(|(_, id, rank)| (id, rank))
}

/// Routing outcome: the chosen shard, and whether affinity had to
/// spill past the key's primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChoice {
    /// The shard to serve on.
    pub shard: u32,
    /// True when affinity routing bypassed the primary because it was
    /// over its load bound.
    pub spilled: bool,
}

/// Fleet router: one strategy plus the ring and round-robin cursor.
#[derive(Debug, Clone)]
pub struct FleetRouter {
    strategy: RouteStrategy,
    ring: HashRing,
    rr_next: usize,
}

impl FleetRouter {
    /// A router over the given ring.
    pub fn new(strategy: RouteStrategy, ring: HashRing) -> Self {
        Self {
            strategy,
            ring,
            rr_next: 0,
        }
    }

    /// The ring (for cache pre-priming by primary ownership).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Adds a shard to the ring mid-run (join/rejoin); minimal-churn
    /// rebalancing moves only the keys the new shard now owns.
    pub fn add_shard(&mut self, shard: u32) {
        self.ring.add_shard(shard);
    }

    /// Removes a shard from the ring mid-run (leave/crash); only the
    /// departed shard's keys move.
    pub fn remove_shard(&mut self, shard: u32) {
        self.ring.remove_shard(shard);
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> RouteStrategy {
        self.strategy
    }

    /// Chooses a shard for `template_id` given current per-shard load.
    /// `shards` must be non-empty and list every live shard.
    /// `feedback` is consulted only by
    /// [`RouteStrategy::FeedbackAffinity`]; the blind strategies ignore
    /// it, so pass `None` or anything.
    pub fn choose(
        &mut self,
        request_id: u64,
        template_id: u64,
        shards: &[ShardLoad],
        feedback: Option<&CacheFeedback>,
    ) -> ShardChoice {
        debug_assert!(!shards.is_empty());
        match self.strategy {
            RouteStrategy::RoundRobin => {
                let s = shards[self.rr_next % shards.len()].shard;
                self.rr_next = self.rr_next.wrapping_add(1);
                ShardChoice {
                    shard: s,
                    spilled: false,
                }
            }
            RouteStrategy::Random => {
                // Hash the request id so the stream is deterministic
                // but uncorrelated with template popularity.
                let mut x = request_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                ShardChoice {
                    shard: shards[(x % shards.len() as u64) as usize].shard,
                    spilled: false,
                }
            }
            RouteStrategy::Affinity { load_factor } => {
                self.affinity(template_id, shards, load_factor, None)
            }
            RouteStrategy::FeedbackAffinity { load_factor } => {
                self.affinity(template_id, shards, load_factor, feedback)
            }
        }
    }

    /// Bounded-load affinity over `shards`: a pick past the key's
    /// primary is a spill. When every listed shard is at its bound (or
    /// the ring is out of sync), falls back to least relative load,
    /// ties by shard id for determinism.
    fn affinity(
        &self,
        template_id: u64,
        shards: &[ShardLoad],
        load_factor: f64,
        feedback: Option<&CacheFeedback>,
    ) -> ShardChoice {
        let load = |id: u32| {
            shards
                .iter()
                .find(|l| l.shard == id)
                .map(|l| (l.outstanding, l.lanes))
        };
        if let Some((shard, rank)) =
            bounded_walk(&self.ring, template_id, load_factor, load, feedback)
        {
            return ShardChoice {
                shard,
                spilled: rank > 0,
            };
        }
        // `choose` requires a non-empty slice: FleetSim parks a
        // request instead of routing it when no shard is routable.
        let shard = shards
            .iter()
            .min_by_key(|l| (l.outstanding.saturating_mul(1024) / l.lanes.max(1), l.shard))
            .expect("choose is never called without a shard")
            .shard;
        ShardChoice {
            shard,
            spilled: true,
        }
    }
}

/// [`fps_serving::Router`] adapter: template-affinity placement over
/// *workers* instead of shards, for the ThreadedServer path where one
/// process owns all workers and affinity decides which worker's
/// activation cache a request warms. Builds a ring over the worker ids
/// it sees; bounded-load spillover uses outstanding request counts
/// from the views.
#[derive(Debug)]
pub struct TemplateAffinityRouter {
    ring: HashRing,
    known: Vec<usize>,
    load_factor: f64,
    /// Shared cache feedback; when present, under-bound candidates are
    /// ranked by measured cost (the worker-level analogue of
    /// [`RouteStrategy::FeedbackAffinity`]). Shared behind a mutex
    /// because the ThreadedServer's result loop records outcomes while
    /// the control plane routes.
    feedback: Option<Arc<Mutex<CacheFeedback>>>,
}

impl TemplateAffinityRouter {
    /// An affinity router with the classic 1.25 load bound.
    pub fn new() -> Self {
        Self::with_load_factor(1.25)
    }

    /// An affinity router with an explicit load bound (> 1).
    pub fn with_load_factor(load_factor: f64) -> Self {
        Self {
            ring: HashRing::default(),
            known: Vec::new(),
            load_factor: load_factor.max(1.01),
            feedback: None,
        }
    }

    /// Attaches a shared [`CacheFeedback`]: routing then prefers the
    /// under-bound worker where the template measured cheapest. Record
    /// outcomes into the same handle (e.g. via
    /// [`TemplateAffinityRouter::record_outcome`]) as results complete.
    pub fn with_feedback(mut self, feedback: Arc<Mutex<CacheFeedback>>) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// The shared feedback handle, when one is attached.
    pub fn feedback(&self) -> Option<Arc<Mutex<CacheFeedback>>> {
        self.feedback.clone()
    }

    /// Records one served request's cache outcome against the shared
    /// feedback (no-op without one). `worker` is the worker id the
    /// request served on.
    pub fn record_outcome(
        feedback: &Arc<Mutex<CacheFeedback>>,
        worker: usize,
        template_id: u64,
        outcome: FetchOutcome,
    ) {
        feedback.lock().expect("feedback lock poisoned").observe(
            worker as u32,
            template_id,
            outcome,
        );
    }

    fn sync_ring(&mut self, workers: &[WorkerView]) {
        for w in workers {
            if !self.known.contains(&w.id) {
                self.known.push(w.id);
                self.ring.add_shard(w.id as u32);
            }
        }
    }
}

impl Default for TemplateAffinityRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl Router for TemplateAffinityRouter {
    fn route(&mut self, req: &RequestSpec, workers: &[WorkerView], _now: SimTime) -> usize {
        self.sync_ring(workers);
        let load = |id: u32| {
            workers
                .iter()
                .find(|w| w.id == id as usize)
                .map(|w| (w.outstanding.len(), w.max_batch.max(1)))
        };
        let feedback = self
            .feedback
            .as_ref()
            .map(|f| f.lock().expect("feedback lock poisoned"));
        match bounded_walk(
            &self.ring,
            req.template_id,
            self.load_factor,
            load,
            feedback.as_deref(),
        ) {
            Some((id, _)) => id as usize,
            // All at their bound: least outstanding, ties by id. An
            // empty slice routes to 0, which the plane clamps.
            None => workers
                .iter()
                .min_by_key(|w| (w.outstanding.len(), w.id))
                .map_or(0, |w| w.id),
        }
    }

    fn name(&self) -> &'static str {
        if self.feedback.is_some() {
            "template-affinity+feedback"
        } else {
            "template-affinity"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_serving::WorkerHealth;
    use fps_workload::trace::MaskShapeSpec;

    fn loads(outstanding: &[usize]) -> Vec<ShardLoad> {
        outstanding
            .iter()
            .enumerate()
            .map(|(i, &o)| ShardLoad {
                shard: i as u32,
                outstanding: o,
                lanes: 8,
            })
            .collect()
    }

    #[test]
    fn affinity_is_sticky_per_template() {
        let mut r = FleetRouter::new(
            RouteStrategy::Affinity { load_factor: 1.25 },
            HashRing::with_shards(4),
        );
        let ls = loads(&[0, 0, 0, 0]);
        for template in 0..20u64 {
            let first = r.choose(0, template, &ls, None);
            for req in 1..5u64 {
                assert_eq!(r.choose(req, template, &ls, None), first);
            }
            assert!(!first.spilled);
            assert_eq!(first.shard, r.ring().primary(template).unwrap());
        }
    }

    #[test]
    fn bounded_load_spills_a_hot_template() {
        let mut r = FleetRouter::new(
            RouteStrategy::Affinity { load_factor: 1.25 },
            HashRing::with_shards(4),
        );
        let template = 7u64;
        let primary = r.ring().primary(template).unwrap();
        // Primary drowning, everyone else idle.
        let mut ls = loads(&[1, 1, 1, 1]);
        ls[primary as usize].outstanding = 100;
        let got = r.choose(0, template, &ls, None);
        assert_ne!(got.shard, primary);
        assert!(got.spilled);
        // The spill target is the key's consistent secondary.
        assert_eq!(got.shard, r.ring().preference(template)[1]);
    }

    #[test]
    fn round_robin_cycles_and_random_is_deterministic() {
        let ls = loads(&[0, 0, 0]);
        let mut rr = FleetRouter::new(RouteStrategy::RoundRobin, HashRing::with_shards(3));
        let picks: Vec<u32> = (0..6).map(|i| rr.choose(i, 99, &ls, None).shard).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        let mut ra = FleetRouter::new(RouteStrategy::Random, HashRing::with_shards(3));
        let a: Vec<u32> = (0..20).map(|i| ra.choose(i, 99, &ls, None).shard).collect();
        let mut rb = FleetRouter::new(RouteStrategy::Random, HashRing::with_shards(3));
        let b: Vec<u32> = (0..20).map(|i| rb.choose(i, 99, &ls, None).shard).collect();
        assert_eq!(a, b, "random strategy must be replayable");
        // And it actually spreads.
        assert!(a.iter().any(|&s| s != a[0]));
    }

    fn view(id: usize, outstanding: usize) -> WorkerView {
        WorkerView {
            id,
            outstanding: (0..outstanding)
                .map(|_| fps_serving::worker::OutstandingReq {
                    mask_ratio: 0.2,
                    steps_left: 50,
                })
                .collect(),
            max_batch: 4,
            model_tokens: 4096,
            health: WorkerHealth::Healthy,
        }
    }

    fn spec(id: u64, template: u64) -> RequestSpec {
        RequestSpec {
            id,
            arrival_ns: 0,
            template_id: template,
            mask_ratio: 0.2,
            mask_shape: MaskShapeSpec::Rect,
            seed: id,
        }
    }

    #[test]
    fn worker_adapter_is_sticky_and_bounded() {
        let mut r = TemplateAffinityRouter::new();
        let ws = vec![view(0, 0), view(1, 0), view(2, 0)];
        let first = r.route(&spec(0, 5), &ws, SimTime::ZERO);
        for i in 1..5 {
            assert_eq!(r.route(&spec(i, 5), &ws, SimTime::ZERO), first);
        }
        // Overload the sticky worker: the route must move off it.
        let mut hot = ws.clone();
        hot[first] = view(first, 50);
        let moved = r.route(&spec(9, 5), &hot, SimTime::ZERO);
        assert_ne!(moved, first);
        assert_eq!(r.name(), "template-affinity");
    }

    #[test]
    fn worker_adapter_returns_ids_not_positions() {
        let mut r = TemplateAffinityRouter::new();
        // Sparse ids, as a health-filtered slice would present.
        let ws = vec![view(3, 0), view(7, 0)];
        for t in 0..10 {
            let got = r.route(&spec(t, t), &ws, SimTime::ZERO);
            assert!(got == 3 || got == 7);
        }
    }

    /// Seeded splitmix64 stream, `next(n)` uniform in `0..n`.
    fn stream(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |n| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) % n
        }
    }

    #[test]
    fn feedback_affinity_without_signal_matches_blind_affinity() {
        // A sweep over templates × load vectors × sparse shard subsets
        // where the load bound binds: each shard's outstanding count
        // straddles its cap, and one case in four puts every listed
        // shard over it (the fallback). Blind affinity must equal
        // feedback affinity without a signal, ignore a signal it is
        // handed, match a first-fit reference walk, and agree with the
        // worker-level router on views whose `max_batch` is the lanes.
        const SHARDS: u32 = 8;
        const LOAD_FACTOR: f64 = 1.25;
        let ring = HashRing::with_shards(SHARDS);
        let mut blind = FleetRouter::new(
            RouteStrategy::Affinity {
                load_factor: LOAD_FACTOR,
            },
            ring.clone(),
        );
        let mut unsignalled = FleetRouter::new(
            RouteStrategy::FeedbackAffinity {
                load_factor: LOAD_FACTOR,
            },
            ring.clone(),
        );
        let mut workers = TemplateAffinityRouter::with_load_factor(LOAD_FACTOR);
        let all: Vec<WorkerView> = (0..SHARDS as usize).map(|id| view(id, 0)).collect();
        workers.route(&spec(0, 0), &all, SimTime::ZERO);
        // A live, uneven cost signal that blind affinity must not read.
        let mut noise = CacheFeedback::new(SHARDS, 0.3, 5.0);
        let mut next = stream(0xAFF1);
        for t in 0..64u64 {
            for s in 0..SHARDS {
                let cost_secs = next(50) as f64 / 10.0;
                noise.observe(s, t, FetchOutcome::Failover { cost_secs });
            }
        }
        let (mut fallbacks, mut spills) = (0, 0);
        for case in 0..2000u64 {
            let template = next(64);
            let all_over = next(4) == 0;
            let loads: Vec<ShardLoad> = (0..SHARDS)
                .filter_map(|shard| {
                    if next(3) == 0 {
                        return None;
                    }
                    let lanes = 1 + next(8) as usize;
                    let cap = ((LOAD_FACTOR * lanes as f64).ceil() as usize).max(1);
                    let outstanding = if all_over {
                        cap + next(3) as usize
                    } else {
                        next(cap as u64 + 2) as usize
                    };
                    Some(ShardLoad {
                        shard,
                        outstanding,
                        lanes,
                    })
                })
                .collect();
            if loads.is_empty() {
                continue;
            }
            let got = blind.choose(case, template, &loads, Some(&noise));
            assert_eq!(
                got,
                unsignalled.choose(case, template, &loads, None),
                "case {case}: no feedback signal must degrade to blind affinity"
            );
            assert_eq!(got, blind.choose(case, template, &loads, None));
            // Reference: the first listed shard under its cap in
            // preference order, else least relative load.
            let pref = blind.ring().preference(template);
            let first_fit = pref.into_iter().enumerate().find_map(|(rank, s)| {
                let l = loads.iter().find(|l| l.shard == s)?;
                let cap = ((LOAD_FACTOR * l.lanes as f64).ceil() as usize).max(1);
                (l.outstanding < cap).then_some((s, rank))
            });
            let want = match first_fit {
                Some((shard, rank)) => ShardChoice {
                    shard,
                    spilled: rank > 0,
                },
                None => ShardChoice {
                    shard: loads
                        .iter()
                        .min_by_key(|l| (l.outstanding * 1024 / l.lanes, l.shard))
                        .unwrap()
                        .shard,
                    spilled: true,
                },
            };
            assert_eq!(got, want, "case {case}");
            // The worker router walks the same preference list; its own
            // fallback is fewest outstanding, ties by id.
            let views: Vec<WorkerView> = loads
                .iter()
                .map(|l| WorkerView {
                    max_batch: l.lanes,
                    ..view(l.shard as usize, l.outstanding)
                })
                .collect();
            let worker_want = match first_fit {
                Some((shard, _)) => shard as usize,
                None => {
                    let l = loads
                        .iter()
                        .min_by_key(|l| (l.outstanding, l.shard))
                        .unwrap();
                    l.shard as usize
                }
            };
            assert_eq!(
                workers.route(&spec(case, template), &views, SimTime::ZERO),
                worker_want,
                "case {case}: worker router left the shared walk"
            );
            fallbacks += u32::from(first_fit.is_none());
            spills += u32::from(first_fit.is_some_and(|(_, rank)| rank > 0));
        }
        assert!(
            fallbacks > 200 && spills > 200,
            "{fallbacks} fallbacks, {spills} spills"
        );
    }

    #[test]
    fn feedback_affinity_prefers_the_cheapest_under_bound_shard() {
        let mut r = FleetRouter::new(
            RouteStrategy::FeedbackAffinity { load_factor: 1.25 },
            HashRing::with_shards(4),
        );
        let template = 7u64;
        let pref = r.ring().preference(template);
        let (primary, secondary) = (pref[0], pref[1]);
        // The primary lost its copy (say a budget-refused admission):
        // the feedback signal prices it at the miss prior while the
        // secondary holds a replica.
        let mut fb = CacheFeedback::new(4, 0.3, 5.0);
        fb.hint_placement(template, &[secondary, primary], 0.0, 4.0);
        fb.observe(primary, template, FetchOutcome::Miss { cost_secs: 5.0 });
        let ls = loads(&[0, 0, 0, 0]);
        let got = r.choose(0, template, &ls, Some(&fb));
        assert_eq!(got.shard, secondary, "routes to the shard with the bytes");
        assert!(got.spilled);
        // Over-bound shards stay excluded even when cheapest.
        let mut hot = loads(&[1, 1, 1, 1]);
        hot[secondary as usize].outstanding = 100;
        let got = r.choose(1, template, &hot, Some(&fb));
        assert_ne!(got.shard, secondary, "load bound beats cache cost");
    }

    #[test]
    fn worker_adapter_feedback_steers_to_the_warm_worker() {
        let fb = Arc::new(Mutex::new(CacheFeedback::new(3, 0.3, 5.0)));
        let mut r = TemplateAffinityRouter::new().with_feedback(Arc::clone(&fb));
        assert_eq!(r.name(), "template-affinity+feedback");
        let ws = vec![view(0, 0), view(1, 0), view(2, 0)];
        let blind = TemplateAffinityRouter::new().route(&spec(0, 5), &ws, SimTime::ZERO);
        let warm = (blind + 1) % 3;
        fb.lock()
            .unwrap()
            .hint_placement(5, &[warm as u32], 0.0, 4.0);
        TemplateAffinityRouter::record_outcome(
            &fb,
            blind,
            5,
            FetchOutcome::Miss { cost_secs: 5.0 },
        );
        let got = r.route(&spec(1, 5), &ws, SimTime::ZERO);
        assert_eq!(got, warm, "feedback moves the route onto the warm worker");
    }
}
