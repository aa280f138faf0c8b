//! Cross-shard SLO aggregation.
//!
//! A fleet run keeps one [`SloLedger`] per shard. Folding them into a
//! fleet-level view is mostly addition — counts sum, goodput is total
//! served over the common window — with one trap: **percentiles do not
//! average**. The mean of ten per-shard p95s says nothing about the
//! fleet p95 (one slow shard dominates the pooled tail while barely
//! moving the average). The rollup here is the report of the *merged*
//! ledger, whose percentiles come from pooled histogram counts — exact
//! up to bucket resolution.

use crate::feedback::PopularityHistogram;
use crate::slo::{SloLedger, SloReport, StageQueueStats};
use fps_json::{Json, ToJson};

/// One shard's contribution to a fleet report: its SLO report and the
/// ledger it was derived from, whose histograms make cross-shard
/// percentiles mergeable.
#[derive(Debug, Clone)]
pub struct ShardSloReport {
    /// Shard id within the fleet.
    pub shard: u32,
    /// The shard's own SLO accounting.
    pub report: SloReport,
    /// The shard's ledger: end-to-end latency and queue wait
    /// (arrival → service start) of its served requests.
    pub ledger: SloLedger,
}

impl ToJson for ShardSloReport {
    fn to_json(&self) -> Json {
        Json::object()
            .with("shard", self.shard as u64)
            .with("report", self.report.to_json())
            .with("latency_p50_secs", self.ledger.latency().percentile(0.50))
            .with("latency_p95_secs", self.ledger.latency().percentile(0.95))
            .with(
                "queue_wait_p95_secs",
                self.ledger.queue_wait().percentile(0.95),
            )
    }
}

/// Fleet-wide cache and failover counters, surfaced on the SLO rollup
/// so chaos experiments report them without scraping traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCacheCounters {
    /// Requests served from the shard's own host-resident cache.
    pub local_hits: u64,
    /// Requests served from a peer replica after a local miss.
    pub failover_hits: u64,
    /// Requests that recomputed cold.
    pub misses: u64,
    /// Peer-cache reads short-circuited by an open circuit breaker.
    pub breaker_short_circuits: u64,
    /// Replica copies re-primed onto new owners by churn.
    pub re_primes: u64,
}

impl FleetCacheCounters {
    /// Folds another set of counters into this one (multi-run or
    /// multi-cell aggregation).
    pub fn absorb(&mut self, other: &FleetCacheCounters) {
        self.local_hits += other.local_hits;
        self.failover_hits += other.failover_hits;
        self.misses += other.misses;
        self.breaker_short_circuits += other.breaker_short_circuits;
        self.re_primes += other.re_primes;
    }

    /// Fraction of requests that avoided a cold recompute (local or
    /// failover), in `[0, 1]`.
    pub fn effective_hit_rate(&self) -> f64 {
        let total = self.local_hits + self.failover_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.local_hits + self.failover_hits) as f64 / total as f64
        }
    }
}

impl ToJson for FleetCacheCounters {
    fn to_json(&self) -> Json {
        Json::object()
            .with("local_hits", self.local_hits)
            .with("failover_hits", self.failover_hits)
            .with("misses", self.misses)
            .with("breaker_short_circuits", self.breaker_short_circuits)
            .with("re_primes", self.re_primes)
            .with("effective_hit_rate", self.effective_hit_rate())
    }
}

/// A fleet-level rollup: the report of the merged shard ledgers.
#[derive(Debug, Clone)]
pub struct FleetSloReport {
    /// Merged fleet-wide accounting; percentiles come from the pooled
    /// histograms of the ledger below, not from averaging shard
    /// percentiles.
    pub fleet: SloReport,
    /// The shard ledgers merged in shard order.
    pub ledger: SloLedger,
    /// Shards that contributed.
    pub shards: u32,
    /// Cache/failover counters, when the run collected them.
    pub cache: Option<FleetCacheCounters>,
    /// Per-template request histogram, when the run collected one —
    /// makes placement decisions inspectable post-run.
    pub popularity: Option<PopularityHistogram>,
}

impl FleetSloReport {
    /// Merges per-shard reports over a common serving window of
    /// `window_secs` virtual seconds. Returns `None` when `shards` is
    /// empty or their histograms have mismatched geometry (which would
    /// make the pooled percentiles meaningless).
    pub fn merge(label: &str, window_secs: f64, shards: &[ShardSloReport]) -> Option<Self> {
        let (first, rest) = shards.split_first()?;
        let mut ledger = first.ledger.clone();
        for s in rest {
            if !ledger.merge(&s.ledger) {
                return None;
            }
        }
        let mut fleet = ledger.report(label, window_secs);
        // Per-stage queue stats pool across shards exactly like the
        // ledgers: merged counts, recomputed percentiles.
        let stage_groups: Vec<&[StageQueueStats]> =
            shards.iter().map(|s| s.report.stages.as_slice()).collect();
        fleet.stages = StageQueueStats::pool(&stage_groups)?;
        Some(Self {
            fleet,
            ledger,
            shards: shards.len() as u32,
            cache: None,
            popularity: None,
        })
    }

    /// Attaches fleet-wide cache/failover counters to the rollup.
    pub fn with_cache(mut self, cache: FleetCacheCounters) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches the run's per-template popularity histogram.
    pub fn with_popularity(mut self, popularity: PopularityHistogram) -> Self {
        self.popularity = Some(popularity);
        self
    }

    /// Pooled queue-wait p95 across the fleet, seconds.
    pub fn queue_wait_p95_secs(&self) -> f64 {
        self.ledger.queue_wait().percentile(0.95)
    }
}

impl ToJson for FleetSloReport {
    fn to_json(&self) -> Json {
        let mut j = Json::object()
            .with("shards", self.shards as u64)
            .with("fleet", self.fleet.to_json())
            .with("queue_wait_p95_secs", self.queue_wait_p95_secs());
        if let Some(cache) = &self.cache {
            j = j.with("cache", cache.to_json());
        }
        if let Some(popularity) = &self.popularity {
            j = j.with("popularity", popularity.to_json());
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fps_simtime::SimDuration;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    /// A shard that served one request per latency at the premium rung
    /// and shed ten more.
    fn shard(id: u32, latencies: &[f64]) -> ShardSloReport {
        let mut ledger = SloLedger::new(15.0);
        for &l in latencies {
            ledger.submitted += 1;
            ledger.serve(secs(l), Some("flashps-kv"));
            ledger.record_queue_wait(l / 2.0);
        }
        ledger.submitted += 10;
        ledger.shed += 10;
        ShardSloReport {
            shard: id,
            report: ledger.report(&format!("shard-{id}"), 0.0),
            ledger,
        }
    }

    #[test]
    fn counts_sum_and_rungs_merge_by_label() {
        let a = shard(0, &[1.0; 100]);
        let b = shard(1, &[2.0; 50]);
        let f = FleetSloReport::merge("fleet", 100.0, &[a, b]).unwrap();
        assert_eq!(f.fleet.submitted, 170);
        assert_eq!(f.fleet.served, 150);
        assert_eq!(f.fleet.shed, 20);
        assert_eq!(f.fleet.lost(), 0);
        assert!((f.fleet.goodput_rps - 1.5).abs() < 1e-12);
        assert_eq!(f.fleet.rungs.len(), 1);
        assert_eq!(f.fleet.rungs[0].served, 150);
        assert_eq!(f.shards, 2);
    }

    #[test]
    fn fleet_p95_is_pooled_not_averaged() {
        // Shard 0: 900 fast requests around 1s; shard 1: 100 slow
        // around 40s. Pooled p95 lands in the slow tail; the average of
        // per-shard p95s does not.
        let fast: Vec<f64> = (0..900).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
        let slow: Vec<f64> = (0..100).map(|i| 40.0 + (i % 10) as f64 * 0.01).collect();
        let a = shard(0, &fast);
        let b = shard(1, &slow);
        let naive = (a.report.p95_latency_secs + b.report.p95_latency_secs) / 2.0;
        let f = FleetSloReport::merge("fleet", 100.0, &[a, b]).unwrap();
        assert!(
            f.fleet.p95_latency_secs > 35.0,
            "pooled p95 sits in the tail"
        );
        assert!((naive - f.fleet.p95_latency_secs).abs() > 10.0);
    }

    #[test]
    fn mismatched_geometry_and_empty_input_refuse() {
        assert!(FleetSloReport::merge("fleet", 1.0, &[]).is_none());
        let a = shard(0, &[1.0]);
        let mut b = shard(1, &[1.0]);
        b.ledger = SloLedger::new(2.0);
        assert!(FleetSloReport::merge("fleet", 1.0, &[a, b]).is_none());
    }

    #[test]
    fn serializes_round_trip() {
        let f = FleetSloReport::merge("fleet", 10.0, &[shard(0, &[1.0; 10])]).unwrap();
        let j = f.to_json();
        assert_eq!(j.get("shards").and_then(Json::as_u64), Some(1));
        let back = Json::parse(&j.to_string_compact()).unwrap();
        assert_eq!(
            back.get("fleet")
                .and_then(|f| f.get("served"))
                .and_then(Json::as_u64),
            Some(10)
        );
    }

    #[test]
    fn merge_is_the_report_of_the_merged_ledgers_to_the_bit() {
        const RUNGS: [&str; 4] = ["flashps-kv", "flashps", "teacache-0.6", "reduced-steps"];
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) % n
        };
        for _ in 0..50 {
            let n_shards = 1 + next(5) as u32;
            // One ledger that saw every shard's samples directly: the
            // pooled reference the merged histogram must match.
            let mut pooled = SloLedger::new(8.0);
            let mut expected_rungs: Vec<&str> = Vec::new();
            let shards: Vec<ShardSloReport> = (0..n_shards)
                .map(|id| {
                    let mut ledger = SloLedger::new(8.0);
                    for _ in 0..next(200) {
                        ledger.submitted += 1;
                        match next(10) {
                            0 => ledger.shed += 1,
                            1 => ledger.deadline_rejected += 1,
                            2 => ledger.other_rejected += 1,
                            _ => {
                                let e2e = SimDuration::from_nanos(next(40_000_000_000));
                                let rung = RUNGS[next(4) as usize];
                                if !expected_rungs.contains(&rung) {
                                    expected_rungs.push(rung);
                                }
                                ledger.serve(e2e, Some(rung));
                                pooled.serve(e2e, Some(rung));
                            }
                        }
                    }
                    ShardSloReport {
                        shard: id,
                        report: ledger.report(&format!("shard-{id}"), 60.0),
                        ledger,
                    }
                })
                .collect();
            let rollup = FleetSloReport::merge("fleet", 60.0, &shards).unwrap();
            let mut merged = shards[0].ledger.clone();
            for s in &shards[1..] {
                assert!(merged.merge(&s.ledger));
            }
            assert_eq!(rollup.fleet, merged.report("fleet", 60.0));
            assert_eq!(rollup.ledger, merged);
            // Counts are the shard sums; rungs keep first-served order
            // across shards in shard order.
            let sum = |f: fn(&SloReport) -> u64| shards.iter().map(|s| f(&s.report)).sum::<u64>();
            assert_eq!(rollup.fleet.submitted, sum(|r| r.submitted));
            assert_eq!(rollup.fleet.served, sum(|r| r.served));
            assert_eq!(
                rollup.fleet.served_within_deadline,
                sum(|r| r.served_within_deadline)
            );
            assert_eq!(rollup.fleet.shed, sum(|r| r.shed));
            assert_eq!(rollup.fleet.deadline_rejected, sum(|r| r.deadline_rejected));
            assert_eq!(rollup.fleet.other_rejected, sum(|r| r.other_rejected));
            assert_eq!(rollup.fleet.lost(), 0);
            let order: Vec<&str> = rollup
                .fleet
                .rungs
                .iter()
                .map(|r| r.label.as_str())
                .collect();
            assert_eq!(order, expected_rungs);
            assert_eq!(
                rollup.fleet.rungs.iter().map(|r| r.served).sum::<u64>(),
                rollup.fleet.served
            );
            // Percentiles depend only on the pooled counts.
            assert_eq!(
                rollup.fleet.p95_latency_secs.to_bits(),
                pooled.latency().percentile(0.95).to_bits()
            );
        }
    }
}
