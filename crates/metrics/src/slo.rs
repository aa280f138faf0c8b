//! SLO-attainment accounting for overload-controlled runs.
//!
//! Under overload, raw throughput stops being the figure of merit: a
//! request served long after its deadline is wasted work, and a
//! request shed at admission is cheaper than one rejected after
//! queueing for thirty seconds. An [`SloReport`] summarizes one run
//! against a deadline: goodput *at the deadline*, the split between
//! admission sheds and in-queue deadline rejections, and — when the
//! degradation ladder was active — how much work each rung served and
//! at what output quality. A simulated serving unit accumulates one in
//! an [`SloLedger`] and derives the report from it.

use fps_json::{Json, ToJson};
use fps_simtime::SimDuration;

use crate::histogram::Histogram;

/// Queueing behaviour of one pipeline stage (or one bounded
/// inter-stage edge) over a run.
///
/// Percentiles are carried alongside the histogram they were computed
/// from, so cross-run (or cross-shard) aggregation can *pool* the
/// histograms and recompute — the same never-average-percentiles
/// contract the fleet rollup enforces.
#[derive(Debug, Clone, PartialEq)]
pub struct StageQueueStats {
    /// Stage label ("text-encode", "denoise", ...).
    pub stage: String,
    /// Requests that passed through the stage's queue.
    pub entered: u64,
    /// Peak queue depth observed.
    pub max_depth: u64,
    /// Median queue wait (enqueue → dequeue), seconds.
    pub queue_wait_p50_secs: f64,
    /// P95 queue wait, seconds.
    pub queue_wait_p95_secs: f64,
    /// The wait histogram the percentiles came from; kept so merges
    /// pool counts instead of averaging percentiles.
    pub wait_hist: Histogram,
}

impl StageQueueStats {
    /// Builds stats from a wait histogram; percentiles are derived
    /// here so they can never drift from the histogram.
    pub fn from_hist(
        stage: impl Into<String>,
        entered: u64,
        max_depth: u64,
        wait_hist: Histogram,
    ) -> Self {
        Self {
            stage: stage.into(),
            entered,
            max_depth,
            queue_wait_p50_secs: wait_hist.percentile(0.50),
            queue_wait_p95_secs: wait_hist.percentile(0.95),
            wait_hist,
        }
    }

    /// Pools per-stage stats from many reports by stage label: counts
    /// sum, depths max, histograms merge, and the percentiles are
    /// recomputed from the *merged* counts. Returns `None` when two
    /// same-label histograms have mismatched geometry (pooling them
    /// would be meaningless), mirroring the fleet merge.
    pub fn pool(groups: &[&[StageQueueStats]]) -> Option<Vec<StageQueueStats>> {
        let mut pooled: Vec<StageQueueStats> = Vec::new();
        for group in groups {
            for s in *group {
                match pooled.iter_mut().find(|p| p.stage == s.stage) {
                    Some(p) => {
                        if !p.wait_hist.merge(&s.wait_hist) {
                            return None;
                        }
                        p.entered += s.entered;
                        p.max_depth = p.max_depth.max(s.max_depth);
                        p.queue_wait_p50_secs = p.wait_hist.percentile(0.50);
                        p.queue_wait_p95_secs = p.wait_hist.percentile(0.95);
                    }
                    None => pooled.push(s.clone()),
                }
            }
        }
        Some(pooled)
    }
}

impl ToJson for StageQueueStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("stage", self.stage.as_str())
            .with("entered", self.entered)
            .with("max_depth", self.max_depth)
            .with("queue_wait_p50_secs", self.queue_wait_p50_secs)
            .with("queue_wait_p95_secs", self.queue_wait_p95_secs)
    }
}

/// Work served at one degradation rung.
#[derive(Debug, Clone, PartialEq)]
pub struct RungServed {
    /// Rung label ("flashps-kv", "teacache-0.35", ...).
    pub label: String,
    /// Requests served at this rung.
    pub served: u64,
    /// Output quality at this rung versus the full-quality reference
    /// (e.g. SSIM), when a quality probe was run.
    pub quality: Option<f64>,
    /// Median queue wait (arrival → batch join) of requests served at
    /// this rung, seconds. `None` when no trace-derived aggregates
    /// were computed.
    pub queue_wait_p50_secs: Option<f64>,
    /// P95 queue wait at this rung, seconds.
    pub queue_wait_p95_secs: Option<f64>,
}

impl RungServed {
    /// A rung entry with no trace-derived aggregates.
    pub fn new(label: impl Into<String>, served: u64, quality: Option<f64>) -> Self {
        Self {
            label: label.into(),
            served,
            quality,
            queue_wait_p50_secs: None,
            queue_wait_p95_secs: None,
        }
    }
}

impl ToJson for RungServed {
    fn to_json(&self) -> Json {
        let mut j = Json::object()
            .with("label", self.label.as_str())
            .with("served", self.served);
        if let Some(q) = self.quality {
            j = j.with("quality", q);
        }
        if let Some(p) = self.queue_wait_p50_secs {
            j = j.with("queue_wait_p50_secs", p);
        }
        if let Some(p) = self.queue_wait_p95_secs {
            j = j.with("queue_wait_p95_secs", p);
        }
        j
    }
}

/// SLO attainment of one run under a deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Run label ("overload-on", "overload-off", ...).
    pub label: String,
    /// SLO deadline, seconds from arrival.
    pub deadline_secs: f64,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests served to completion (at any latency).
    pub served: u64,
    /// Served requests that completed within the deadline.
    pub served_within_deadline: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests rejected in the queue after their deadline passed.
    pub deadline_rejected: u64,
    /// Requests rejected for any other reason (retry budget, ...).
    pub other_rejected: u64,
    /// Served requests per second of virtual time.
    pub goodput_rps: f64,
    /// Deadline-meeting requests per second of virtual time — the
    /// figure of merit under overload.
    pub goodput_at_deadline_rps: f64,
    /// P95 end-to-end latency of served requests, seconds.
    pub p95_latency_secs: f64,
    /// Mean end-to-end latency of served requests, seconds.
    pub mean_latency_secs: f64,
    /// Served work by degradation rung, ladder order. Empty when the
    /// run had no overload control.
    pub rungs: Vec<RungServed>,
    /// Per-stage queue stats when the run executed as a stage graph
    /// (queue depth and pooled queue-wait percentiles per stage).
    /// Empty for monolithic runs.
    pub stages: Vec<StageQueueStats>,
    /// GPU bubble fraction over the run — idle GPU time inside the
    /// serving window divided by the window, derived from a trace
    /// (`fps-trace::bubble_in_window`). `None` when the run was not
    /// traced.
    pub bubble_fraction: Option<f64>,
}

impl SloReport {
    /// Requests that vanished without being served, shed, or rejected.
    /// The conservation contract keeps this at zero.
    pub fn lost(&self) -> u64 {
        self.submitted
            .saturating_sub(self.served + self.shed + self.deadline_rejected + self.other_rejected)
    }

    /// Fraction of *submitted* requests that met the deadline — the
    /// strictest attainment measure: sheds and rejections all count
    /// against it.
    pub fn attainment(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.served_within_deadline as f64 / self.submitted as f64
        }
    }

    /// Fraction of *served* requests that met the deadline.
    pub fn served_attainment(&self) -> f64 {
        if self.served == 0 {
            1.0
        } else {
            self.served_within_deadline as f64 / self.served as f64
        }
    }

    /// Fraction of submitted requests turned away before service
    /// (admission sheds plus in-queue rejections).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.shed + self.deadline_rejected + self.other_rejected) as f64
                / self.submitted as f64
        }
    }
}

/// One serving unit's request ledger: how every submission ended, the
/// rungs served work ran at, and the latency and queue-wait histograms
/// the unit's [`SloReport`] derives from.
///
/// The fleet simulator keeps one per shard and the stage-graph
/// simulator one per run. Ledgers [`merge`](SloLedger::merge) by adding
/// counts and pooling histograms, so a fleet rollup is the report of
/// the merged shard ledgers, with its p95 taken over pooled counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SloLedger {
    /// Requests submitted to the unit.
    pub submitted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests rejected because their deadline had passed or could
    /// no longer be met.
    pub deadline_rejected: u64,
    /// Requests ended for any other reason (a crash-killed attempt).
    pub other_rejected: u64,
    // Served work is counted only by `serve`, which keeps these two,
    // the rung tally and the latency histogram in step.
    served: u64,
    served_within_deadline: u64,
    deadline_secs: f64,
    deadline: SimDuration,
    /// Served work per rung, in first-served order.
    rungs: Vec<RungServed>,
    latency: Histogram,
    queue_wait: Histogram,
}

impl SloLedger {
    /// An empty ledger judging service against `deadline_secs`.
    pub fn new(deadline_secs: f64) -> Self {
        Self {
            submitted: 0,
            served: 0,
            served_within_deadline: 0,
            shed: 0,
            deadline_rejected: 0,
            other_rejected: 0,
            deadline_secs,
            deadline: SimDuration::from_secs_f64(deadline_secs),
            rungs: Vec::new(),
            latency: Self::histogram(deadline_secs),
            queue_wait: Self::histogram(deadline_secs),
        }
    }

    /// An empty histogram in the ledger's geometry for `deadline_secs`:
    /// 512 buckets over `[0, 4 × deadline)`, at least `[0, 1)` s. Other
    /// per-request seconds a unit records (cache-fetch cost) use it too.
    pub fn histogram(deadline_secs: f64) -> Histogram {
        // The upper edge is finite and >= 1 for every input (`max`
        // maps NaN to 1), so `new` always accepts the geometry.
        let hi = (deadline_secs * 4.0).max(1.0);
        let hi = if hi.is_finite() { hi } else { f64::MAX };
        Histogram::new(0.0, hi, 512).expect("finite range, non-zero buckets")
    }

    /// Records one served request, `e2e` from its arrival to its
    /// completion, at `rung` (`None` without overload control).
    /// Returns whether it met the deadline.
    pub fn serve(&mut self, e2e: SimDuration, rung: Option<&str>) -> bool {
        self.served += 1;
        let within = e2e <= self.deadline;
        if within {
            self.served_within_deadline += 1;
        }
        if let Some(label) = rung {
            self.tally_rung(label, 1, None);
        }
        self.latency.record(e2e.as_secs_f64());
        within
    }

    /// Records one served request's queue wait, seconds.
    pub fn record_queue_wait(&mut self, secs: f64) {
        self.queue_wait.record(secs);
    }

    fn tally_rung(&mut self, label: &str, served: u64, quality: Option<f64>) {
        match self.rungs.iter_mut().find(|r| r.label == label) {
            Some(r) => r.served += served,
            None => self.rungs.push(RungServed::new(label, served, quality)),
        }
    }

    /// End-to-end latency of served requests, seconds.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Queue wait of served requests, seconds.
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Submitted requests with no outcome; zero once a run has drained.
    pub fn lost(&self) -> u64 {
        self.submitted
            .saturating_sub(self.served + self.shed + self.deadline_rejected + self.other_rejected)
    }

    /// Folds `other` into this ledger: counts add, rungs merge by label
    /// (this ledger's first), histograms pool, and this ledger's
    /// deadline stays. Returns `false` and changes nothing when the
    /// histogram geometries differ, which pooling would misbin.
    pub fn merge(&mut self, other: &SloLedger) -> bool {
        if !self.latency.merge(&other.latency) {
            return false;
        }
        // A ledger's two histograms are built for one deadline, so the
        // latency check above covers this merge too.
        let pooled = self.queue_wait.merge(&other.queue_wait);
        debug_assert!(pooled, "a ledger's histograms share one geometry");
        self.submitted += other.submitted;
        self.served += other.served;
        self.served_within_deadline += other.served_within_deadline;
        self.shed += other.shed;
        self.deadline_rejected += other.deadline_rejected;
        self.other_rejected += other.other_rejected;
        for r in &other.rungs {
            self.tally_rung(&r.label, r.served, r.quality);
        }
        true
    }

    /// The unit's report over a serving window of `window_secs` virtual
    /// seconds (goodput 0 for an empty window). `stages` and
    /// `bubble_fraction` are left for the caller to attach.
    pub fn report(&self, label: &str, window_secs: f64) -> SloReport {
        let per_sec = |n: u64| {
            if window_secs > 0.0 {
                n as f64 / window_secs
            } else {
                0.0
            }
        };
        SloReport {
            label: label.to_string(),
            deadline_secs: self.deadline_secs,
            submitted: self.submitted,
            served: self.served,
            served_within_deadline: self.served_within_deadline,
            shed: self.shed,
            deadline_rejected: self.deadline_rejected,
            other_rejected: self.other_rejected,
            goodput_rps: per_sec(self.served),
            goodput_at_deadline_rps: per_sec(self.served_within_deadline),
            p95_latency_secs: self.latency.percentile(0.95),
            mean_latency_secs: self.latency.mean(),
            rungs: self.rungs.clone(),
            stages: Vec::new(),
            bubble_fraction: None,
        }
    }
}

impl ToJson for SloReport {
    fn to_json(&self) -> Json {
        let j = Json::object()
            .with("label", self.label.as_str())
            .with("deadline_secs", self.deadline_secs)
            .with("submitted", self.submitted)
            .with("served", self.served)
            .with("served_within_deadline", self.served_within_deadline)
            .with("shed", self.shed)
            .with("deadline_rejected", self.deadline_rejected)
            .with("other_rejected", self.other_rejected)
            .with("lost", self.lost())
            .with("goodput_rps", self.goodput_rps)
            .with("goodput_at_deadline_rps", self.goodput_at_deadline_rps)
            .with("p95_latency_secs", self.p95_latency_secs)
            .with("mean_latency_secs", self.mean_latency_secs)
            .with("attainment", self.attainment())
            .with("shed_rate", self.shed_rate())
            .with("rungs", self.rungs.to_json());
        let j = if self.stages.is_empty() {
            j
        } else {
            j.with("stages", self.stages.to_json())
        };
        match self.bubble_fraction {
            Some(b) => j.with("bubble_fraction", b),
            None => j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SloReport {
        SloReport {
            label: "overload-on".into(),
            deadline_secs: 30.0,
            submitted: 200,
            served: 140,
            served_within_deadline: 126,
            shed: 50,
            deadline_rejected: 8,
            other_rejected: 2,
            goodput_rps: 1.4,
            goodput_at_deadline_rps: 1.26,
            p95_latency_secs: 22.0,
            mean_latency_secs: 9.0,
            rungs: vec![
                RungServed {
                    label: "flashps-kv".into(),
                    served: 90,
                    quality: Some(1.0),
                    queue_wait_p50_secs: Some(0.8),
                    queue_wait_p95_secs: Some(4.0),
                },
                RungServed::new("teacache-0.35", 50, Some(0.92)),
            ],
            stages: Vec::new(),
            bubble_fraction: Some(0.015),
        }
    }

    #[test]
    fn conservation_and_rates() {
        let r = report();
        assert_eq!(r.lost(), 0);
        assert!((r.attainment() - 0.63).abs() < 1e-12);
        assert!((r.served_attainment() - 0.9).abs() < 1e-12);
        assert!((r.shed_rate() - 0.3).abs() < 1e-12);
        let mut broken = report();
        broken.shed = 0;
        assert_eq!(broken.lost(), 50);
    }

    #[test]
    fn empty_run_is_vacuously_attained() {
        let r = SloReport {
            label: "empty".into(),
            deadline_secs: 30.0,
            submitted: 0,
            served: 0,
            served_within_deadline: 0,
            shed: 0,
            deadline_rejected: 0,
            other_rejected: 0,
            goodput_rps: 0.0,
            goodput_at_deadline_rps: 0.0,
            p95_latency_secs: 0.0,
            mean_latency_secs: 0.0,
            rungs: Vec::new(),
            stages: Vec::new(),
            bubble_fraction: None,
        };
        assert_eq!(r.lost(), 0);
        assert_eq!(r.attainment(), 1.0);
        assert_eq!(r.served_attainment(), 1.0);
        assert_eq!(r.shed_rate(), 0.0);
    }

    #[test]
    fn serializes_with_rung_breakdown() {
        let j = report().to_json();
        assert_eq!(j.get("shed").and_then(Json::as_u64), Some(50));
        assert_eq!(j.get("lost").and_then(Json::as_u64), Some(0));
        let rungs = j.get("rungs").and_then(Json::as_array).unwrap();
        assert_eq!(rungs.len(), 2);
        assert_eq!(
            rungs[0].get("label").and_then(Json::as_str),
            Some("flashps-kv")
        );
        let text = j.to_string_compact();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("served_within_deadline").and_then(Json::as_u64),
            Some(126)
        );
        assert_eq!(
            back.get("bubble_fraction").and_then(Json::as_f64),
            Some(0.015)
        );
        assert_eq!(
            rungs[0].get("queue_wait_p95_secs").and_then(Json::as_f64),
            Some(4.0)
        );
        assert!(rungs[1].get("queue_wait_p50_secs").is_none());
    }

    #[test]
    fn ledger_tallies_outcomes_rungs_and_the_deadline() {
        let secs = SimDuration::from_secs_f64;
        let mut l = SloLedger::new(10.0);
        l.submitted = 6;
        l.shed = 1;
        l.deadline_rejected = 1;
        assert!(l.serve(secs(2.0), Some("flashps")));
        assert!(
            l.serve(secs(10.0), Some("flashps-kv")),
            "the deadline is inclusive"
        );
        assert!(!l.serve(secs(12.0), Some("flashps")));
        assert_eq!(l.lost(), 1);
        l.serve(secs(1.0), None);
        assert_eq!(l.lost(), 0);
        let r = l.report("unit", 4.0);
        assert_eq!((r.served, r.served_within_deadline), (4, 3));
        assert_eq!(r.goodput_rps, 1.0);
        assert_eq!(r.goodput_at_deadline_rps, 0.75);
        let rungs: Vec<(&str, u64)> = r
            .rungs
            .iter()
            .map(|x| (x.label.as_str(), x.served))
            .collect();
        assert_eq!(
            rungs,
            [("flashps", 2), ("flashps-kv", 1)],
            "first-served order"
        );
        assert_eq!(l.report("empty-window", 0.0).goodput_rps, 0.0);
        // Merging a ledger for a far longer deadline would misbin.
        let before = l.clone();
        assert!(!l.merge(&SloLedger::new(100.0)));
        assert_eq!(l, before, "a refused merge changes nothing");
        assert!(l.merge(&before.clone()));
        assert_eq!(l.report("x", 1.0).rungs[0].served, 4);
    }

    #[test]
    fn ledger_histogram_accepts_every_deadline() {
        for d in [0.0, -3.0, 1e-9, 30.0, 1e300, f64::INFINITY, f64::NAN] {
            let mut l = SloLedger::new(d);
            l.serve(SimDuration::from_secs_f64(0.5), None);
            assert_eq!(l.latency().total(), 1);
        }
    }

    fn stage_stats(stage: &str, waits: &[f64], max_depth: u64) -> StageQueueStats {
        let mut h = Histogram::new(0.0, 60.0, 600).unwrap();
        for &w in waits {
            h.record(w);
        }
        StageQueueStats::from_hist(stage, waits.len() as u64, max_depth, h)
    }

    #[test]
    fn stage_stats_pool_histograms_not_percentiles() {
        // One run saw fast denoise waits, another saw a slow tail. The
        // pooled p95 must land in the tail; averaging the two per-run
        // p95s would not.
        let fast: Vec<f64> = (0..900).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
        let slow: Vec<f64> = (0..100).map(|i| 40.0 + (i % 10) as f64 * 0.01).collect();
        let a = vec![stage_stats("denoise", &fast, 4)];
        let b = vec![stage_stats("denoise", &slow, 9)];
        let naive = (a[0].queue_wait_p95_secs + b[0].queue_wait_p95_secs) / 2.0;
        let pooled = StageQueueStats::pool(&[&a, &b]).unwrap();
        assert_eq!(pooled.len(), 1);
        assert_eq!(pooled[0].entered, 1000);
        assert_eq!(pooled[0].max_depth, 9, "depths max, not sum");
        assert!(pooled[0].queue_wait_p95_secs > 35.0, "pooled p95 in tail");
        assert!((naive - pooled[0].queue_wait_p95_secs).abs() > 10.0);
    }

    #[test]
    fn stage_stats_pool_refuses_mismatched_geometry_and_keeps_labels() {
        let a = vec![stage_stats("text-encode", &[1.0], 1)];
        let mut b = vec![stage_stats("text-encode", &[1.0], 1)];
        b[0].wait_hist = Histogram::new(0.0, 10.0, 10).unwrap();
        assert!(StageQueueStats::pool(&[&a, &b]).is_none());
        // Distinct labels never merge.
        let c = vec![stage_stats("vae-decode", &[2.0], 3)];
        let pooled = StageQueueStats::pool(&[&a, &c]).unwrap();
        assert_eq!(pooled.len(), 2);
    }

    #[test]
    fn stages_serialize_only_when_present() {
        let mut r = report();
        assert!(r.to_json().get("stages").is_none());
        r.stages = vec![stage_stats("denoise", &[0.5, 1.5], 2)];
        let j = r.to_json();
        let stages = j.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(stages.len(), 1);
        assert_eq!(
            stages[0].get("stage").and_then(Json::as_str),
            Some("denoise")
        );
        assert_eq!(stages[0].get("max_depth").and_then(Json::as_u64), Some(2));
    }
}
