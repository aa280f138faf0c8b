//! Hierarchical activation storage: host memory over disk with LRU
//! eviction and prefetch-while-queued (§4.2).
//!
//! The store tracks *residency and timing*, not tensor payloads: the
//! numeric substrate keeps live activations in
//! `fps_diffusion::TemplateCache`, while serving experiments need to
//! know *where* a template's bytes live and *when* they become
//! host-resident. Disk→host transfers serialize on a disk read stream;
//! host→HBM transfer latency is the worker cost model's job
//! (`fps-serving`), because it contends with that worker's PCIe link.
//!
//! An optional [`bytes::Bytes`] payload per entry lets integration
//! tests exercise real byte movement (serialized activations) through
//! the same code path.
//!
//! One store serves both clock planes: the simulators stamp it with
//! virtual time, and the wall-clock `flashps::FlashPs` with stamps from
//! `fps_overload::TimeSource::wall`, keeping its host-tier caches in
//! memory and its disk tier as spill files beside the store.

use std::collections::HashMap;

use bytes::Bytes;
use fps_json::Json;
use fps_overload::CircuitBreaker;
use fps_simtime::{Resource, SimDuration, SimTime};
use fps_trace::{Clock, TraceSink, Track};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::error::CacheError;
use crate::Result;

/// Where a template's activations currently reside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Host DRAM: ready for pipeline loading immediately.
    Host,
    /// Disk / distributed storage: must be prefetched to host first.
    Disk,
}

/// Capacities and bandwidths of the storage hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Host-memory budget for cached activations, in bytes.
    pub host_capacity: u64,
    /// Disk budget, in bytes (`u64::MAX` for effectively unbounded).
    pub disk_capacity: u64,
    /// Disk→host read bandwidth, bytes/second (GiB/s order per §4.2).
    pub disk_read_bw: f64,
}

impl StoreConfig {
    /// A production-like default: 2 TiB host (the paper's EC2 P5-class
    /// figure), unbounded disk at 2 GiB/s.
    pub fn production_like() -> Self {
        Self {
            host_capacity: 2 << 40,
            disk_capacity: u64::MAX,
            disk_read_bw: 2.0 * (1u64 << 30) as f64,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    tier: Tier,
    /// When the entry becomes host-resident (for in-flight prefetches).
    host_ready_at: SimTime,
    /// LRU clock of the last touch.
    last_used: u64,
    payload: Option<Bytes>,
    /// Set by fault injection: the entry's bytes are garbage and the
    /// verified-read path must detect this.
    corrupt: bool,
}

/// Counters describing store behaviour over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found the entry host-resident.
    pub host_hits: u64,
    /// Lookups that triggered or waited on a disk prefetch.
    pub disk_hits: u64,
    /// Lookups for templates never inserted.
    pub misses: u64,
    /// Entries demoted host→disk by LRU pressure.
    pub evictions: u64,
    /// Entries dropped by fault-injected cache loss.
    pub invalidations: u64,
    /// Corrupt entries caught by the verified-read path.
    pub corruptions_detected: u64,
    /// Verified reads that had to fall back to full recompute.
    pub fallbacks: u64,
    /// Guarded reads short-circuited to recompute by an open circuit
    /// breaker (no disk I/O issued at all).
    pub breaker_short_circuits: u64,
    /// Reads served *from this store* on behalf of another shard whose
    /// own copy was missing (replica failover sources).
    pub failovers: u64,
    /// Entries copied onto this store by churn-driven re-priming
    /// (replica directory rebuilds after shard leave/join/crash).
    pub re_primes: u64,
}

impl StoreStats {
    /// Adds another stats snapshot into this one (used to carry the
    /// counters of a wiped-and-replaced store across a shard crash).
    pub fn absorb(&mut self, other: StoreStats) {
        self.host_hits += other.host_hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
        self.corruptions_detected += other.corruptions_detected;
        self.fallbacks += other.fallbacks;
        self.breaker_short_circuits += other.breaker_short_circuits;
        self.failovers += other.failovers;
        self.re_primes += other.re_primes;
    }
}

/// The two-tier activation store.
#[derive(Debug)]
pub struct HierarchicalStore {
    config: StoreConfig,
    entries: HashMap<u64, Entry>,
    host_used: u64,
    disk_used: u64,
    disk_stream: Resource,
    clock: u64,
    stats: StoreStats,
    /// Disk-bandwidth divisor while the disk tier is degraded (≥ 1).
    disk_slow_factor: f64,
    /// Trace sink for disk-promote spans and fallback events
    /// (virtual-clock timestamps only — the store speaks `SimTime`).
    trace: TraceSink,
    /// Trace track disk-stream spans land on.
    trace_track: Track,
}

impl HierarchicalStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
            host_used: 0,
            disk_used: 0,
            disk_stream: Resource::new(),
            clock: 0,
            stats: StoreStats::default(),
            disk_slow_factor: 1.0,
            trace: TraceSink::disabled(),
            trace_track: Track::default(),
        }
    }

    /// Attaches a trace sink; disk→host promotions become spans on
    /// `track` (serialized, so they visualize the read stream) and
    /// verification failures become instant events.
    ///
    /// # Panics
    ///
    /// Panics on a wall-clock sink: all store timestamps are
    /// [`SimTime`], so recording them against a wall epoch would mix
    /// clock domains in one trace.
    pub fn set_trace(&mut self, sink: TraceSink, track: Track) {
        assert_ne!(
            sink.clock(),
            Some(Clock::Wall),
            "HierarchicalStore timestamps are virtual (SimTime); attach a \
             TraceSink::recording(Clock::Virtual) sink"
        );
        sink.name_track(track, "disk stream");
        self.trace = sink;
        self.trace_track = track;
    }

    /// Behaviour counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Bytes currently host-resident.
    pub fn host_used(&self) -> u64 {
        self.host_used
    }

    /// Number of templates tracked (either tier).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store tracks no templates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current tier of a template, if present.
    pub fn locate(&self, template_id: u64) -> Option<Tier> {
        self.entries.get(&template_id).map(|e| e.tier)
    }

    /// Optional byte payload of a template, if present and attached.
    pub fn payload(&self, template_id: u64) -> Option<Bytes> {
        self.entries
            .get(&template_id)
            .and_then(|e| e.payload.clone())
    }

    /// Inserts (or replaces) a template's activations into host memory,
    /// evicting least-recently-used entries to disk as needed.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TooLarge`] when the entry exceeds the host
    /// capacity outright.
    pub fn insert(
        &mut self,
        template_id: u64,
        bytes: u64,
        now: SimTime,
        payload: Option<Bytes>,
    ) -> Result<()> {
        if bytes > self.config.host_capacity {
            return Err(CacheError::TooLarge {
                template_id,
                bytes,
                capacity: self.config.host_capacity,
            });
        }
        // Replacing an entry frees its old accounting first.
        self.remove(template_id);
        self.make_host_room(bytes, template_id);
        self.clock += 1;
        self.host_used += bytes;
        self.entries.insert(
            template_id,
            Entry {
                bytes,
                tier: Tier::Host,
                host_ready_at: now,
                last_used: self.clock,
                payload,
                corrupt: false,
            },
        );
        Ok(())
    }

    /// Inserts (or replaces) a template's activations directly into the
    /// disk tier, without disturbing host residency — the write path of
    /// replica copies and churn-driven re-priming, which land durable
    /// bytes a later fetch promotes on demand.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::TooLarge`] when the entry exceeds the disk
    /// capacity outright.
    pub fn insert_disk(
        &mut self,
        template_id: u64,
        bytes: u64,
        payload: Option<Bytes>,
    ) -> Result<()> {
        if bytes > self.config.disk_capacity {
            return Err(CacheError::TooLarge {
                template_id,
                bytes,
                capacity: self.config.disk_capacity,
            });
        }
        self.remove(template_id);
        self.clock += 1;
        self.disk_used += bytes;
        self.entries.insert(
            template_id,
            Entry {
                bytes,
                tier: Tier::Disk,
                host_ready_at: SimTime::ZERO,
                last_used: self.clock,
                payload,
                corrupt: false,
            },
        );
        Ok(())
    }

    /// The store's configured capacities and bandwidth.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Records that this store served a replica-failover read for
    /// another shard (counted here so fleet stats aggregate for free).
    pub fn note_failover(&mut self) {
        self.stats.failovers += 1;
    }

    /// Records that churn-driven re-priming copied an entry onto this
    /// store.
    pub fn note_re_prime(&mut self) {
        self.stats.re_primes += 1;
    }

    /// Removes a template entirely; returns whether it existed.
    pub fn remove(&mut self, template_id: u64) -> bool {
        match self.entries.remove(&template_id) {
            Some(e) => {
                match e.tier {
                    Tier::Host => self.host_used -= e.bytes,
                    Tier::Disk => self.disk_used -= e.bytes,
                }
                true
            }
            None => false,
        }
    }

    /// Requests a template's activations for use at `now` (typically a
    /// request's arrival, so the disk→host prefetch overlaps queueing,
    /// §4.2). Returns the time the activations are host-resident.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Missing`] for unknown templates.
    pub fn fetch(&mut self, template_id: u64, now: SimTime) -> Result<SimTime> {
        let entry = match self.entries.get(&template_id) {
            Some(e) => e.clone(),
            None => {
                self.stats.misses += 1;
                return Err(CacheError::Missing { template_id });
            }
        };
        self.clock += 1;
        match entry.tier {
            Tier::Host => {
                self.stats.host_hits += 1;
                let ready = entry.host_ready_at.max(now);
                if let Some(e) = self.entries.get_mut(&template_id) {
                    e.last_used = self.clock;
                }
                Ok(ready)
            }
            Tier::Disk => {
                self.stats.disk_hits += 1;
                let duration = SimDuration::from_secs_f64(
                    entry.bytes as f64 * self.disk_slow_factor / self.config.disk_read_bw,
                );
                let (start, finish) = self.disk_stream.acquire(now, duration);
                if self.trace.is_enabled() {
                    self.trace.span_at(
                        "disk_promote",
                        "cache",
                        self.trace_track,
                        start.as_nanos(),
                        finish.as_nanos(),
                        0,
                        vec![
                            ("template", Json::U64(template_id)),
                            ("bytes", Json::U64(entry.bytes)),
                        ],
                    );
                }
                // Promote to host; the bytes occupy host memory from now
                // (reservation) and are usable at `finish`.
                self.make_host_room(entry.bytes, template_id);
                self.disk_used -= entry.bytes;
                self.host_used += entry.bytes;
                let clock = self.clock;
                if let Some(e) = self.entries.get_mut(&template_id) {
                    e.tier = Tier::Host;
                    e.host_ready_at = finish;
                    e.last_used = clock;
                }
                Ok(finish)
            }
        }
    }

    /// Drops a template as if its cached bytes were lost (fault
    /// injection); returns whether an entry existed.
    pub fn invalidate(&mut self, template_id: u64) -> bool {
        let existed = self.remove(template_id);
        if existed {
            self.stats.invalidations += 1;
        }
        existed
    }

    /// Marks a template's cached bytes as silently corrupted (fault
    /// injection); returns whether an entry existed.
    pub fn corrupt(&mut self, template_id: u64) -> bool {
        match self.entries.get_mut(&template_id) {
            Some(e) => {
                e.corrupt = true;
                true
            }
            None => false,
        }
    }

    /// Degrades (or restores, with `1.0`) disk read bandwidth by the
    /// given divisor. Transfers already in flight keep their original
    /// finish times; only new fetches pay the degraded rate.
    pub fn set_disk_degradation(&mut self, factor: f64) {
        self.disk_slow_factor = factor.max(1.0);
    }

    /// Current disk-bandwidth divisor.
    pub fn disk_degradation(&self) -> f64 {
        self.disk_slow_factor
    }

    /// Fetches a template with integrity checking: a missing or
    /// corrupt entry is reported as a fallback instead of an error, so
    /// callers recompute the template Diffusers-style rather than
    /// failing the request. Corrupt entries are dropped on detection.
    pub fn fetch_verified(&mut self, template_id: u64, now: SimTime) -> VerifiedFetch {
        if self.entries.get(&template_id).is_some_and(|e| e.corrupt) {
            // The checksum mismatch is only discovered by reading the
            // bytes, which pays the fetch (and any disk transfer).
            let _ = self.fetch(template_id, now);
            self.reject_corrupt(template_id, now);
            return VerifiedFetch::Fallback(FallbackReason::Corrupt);
        }
        match self.fetch(template_id, now) {
            Ok(ready) => VerifiedFetch::Intact(ready),
            Err(_) => {
                self.stats.fallbacks += 1;
                VerifiedFetch::Fallback(FallbackReason::Missing)
            }
        }
    }

    /// Drops an entry whose bytes failed verification, counting the
    /// detection and the caller's fallback to recompute — what
    /// [`fetch_verified`] does on a corrupt entry, for callers that
    /// verify the bytes themselves after a [`fetch`] (a wall-clock
    /// spill tier parsing its file).
    ///
    /// [`fetch_verified`]: HierarchicalStore::fetch_verified
    /// [`fetch`]: HierarchicalStore::fetch
    pub fn reject_corrupt(&mut self, template_id: u64, now: SimTime) {
        self.remove(template_id);
        self.stats.corruptions_detected += 1;
        self.stats.fallbacks += 1;
        if self.trace.is_enabled() {
            self.trace.event_at(
                "corruption_detected",
                "cache",
                self.trace_track,
                now.as_nanos(),
                vec![("template", Json::U64(template_id))],
            );
        }
    }

    /// Fetches a template through a [`CircuitBreaker`]: the stateful
    /// replacement for the per-read fallback of [`fetch_verified`].
    ///
    /// While the breaker is Open, the read short-circuits to
    /// [`FallbackReason::BreakerOpen`] without issuing any disk I/O —
    /// under a persistently corrupt or browned-out disk, recompute is
    /// faster than queueing on the degraded read stream. Otherwise the
    /// verified read runs and its outcome feeds the breaker: a
    /// verification failure or a read slower than the breaker's
    /// slow-read threshold counts as a failure; a fast intact read as
    /// a success (which also re-closes a half-open breaker).
    ///
    /// [`fetch_verified`]: HierarchicalStore::fetch_verified
    pub fn fetch_guarded(
        &mut self,
        breaker: &mut CircuitBreaker,
        template_id: u64,
        now: SimTime,
    ) -> VerifiedFetch {
        if !breaker.allow(now) {
            self.stats.fallbacks += 1;
            self.stats.breaker_short_circuits += 1;
            if self.trace.is_enabled() {
                self.trace.event_at(
                    "breaker_short_circuit",
                    "cache",
                    self.trace_track,
                    now.as_nanos(),
                    vec![("template", Json::U64(template_id))],
                );
            }
            return VerifiedFetch::Fallback(FallbackReason::BreakerOpen);
        }
        match self.fetch_verified(template_id, now) {
            VerifiedFetch::Intact(ready) => {
                breaker.record_read(now, ready.since(now), true);
                VerifiedFetch::Intact(ready)
            }
            VerifiedFetch::Fallback(reason) => {
                breaker.record_failure(now);
                VerifiedFetch::Fallback(reason)
            }
        }
    }

    /// Evicts LRU host entries (never `protect`) until `bytes` fit.
    fn make_host_room(&mut self, bytes: u64, protect: u64) {
        while self.host_used + bytes > self.config.host_capacity {
            let victim = self
                .entries
                .iter_mut()
                .filter(|(id, e)| e.tier == Tier::Host && **id != protect)
                .min_by_key(|(_, e)| e.last_used);
            let Some((_, e)) = victim else { break };
            e.tier = Tier::Disk;
            self.host_used -= e.bytes;
            self.disk_used += e.bytes;
            self.stats.evictions += 1;
        }
    }
}

/// Why a verified read could not use the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No entry for the template (never inserted, or lost).
    Missing,
    /// The entry failed integrity verification.
    Corrupt,
    /// An open circuit breaker short-circuited the read before any
    /// disk I/O was issued.
    BreakerOpen,
}

impl FallbackReason {
    /// Short label for reports and trace events.
    pub fn label(self) -> &'static str {
        match self {
            Self::Missing => "missing",
            Self::Corrupt => "corrupt",
            Self::BreakerOpen => "breaker-open",
        }
    }
}

/// Outcome of [`HierarchicalStore::fetch_verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifiedFetch {
    /// Cache usable; activations host-resident at the instant.
    Intact(SimTime),
    /// Cache unusable; the caller must recompute the template from
    /// scratch (full, unmasked denoising).
    Fallback(FallbackReason),
}

impl VerifiedFetch {
    /// Whether the read fell back to recompute.
    pub fn is_fallback(&self) -> bool {
        matches!(self, Self::Fallback(_))
    }
}

/// A store shared between threads (the real-threaded serving mode).
pub type SharedStore = Arc<Mutex<HierarchicalStore>>;

/// Wraps a store for cross-thread sharing.
pub fn shared(store: HierarchicalStore) -> SharedStore {
    Arc::new(Mutex::new(store))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(host: u64, bw: f64) -> StoreConfig {
        StoreConfig {
            host_capacity: host,
            disk_capacity: u64::MAX,
            disk_read_bw: bw,
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_nanos((secs * 1e9) as u64)
    }

    #[test]
    fn insert_and_fetch_host_hit() {
        let mut s = HierarchicalStore::new(cfg(1000, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        assert_eq!(s.locate(1), Some(Tier::Host));
        let ready = s.fetch(1, t(1.0)).unwrap();
        assert_eq!(ready, t(1.0), "host-resident data is ready immediately");
        assert_eq!(s.stats().host_hits, 1);
    }

    #[test]
    fn oversized_insert_rejected_and_missing_fetch_fails() {
        let mut s = HierarchicalStore::new(cfg(100, 100.0));
        assert!(matches!(
            s.insert(1, 200, SimTime::ZERO, None),
            Err(CacheError::TooLarge { .. })
        ));
        assert!(matches!(
            s.fetch(9, SimTime::ZERO),
            Err(CacheError::Missing { .. })
        ));
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_cold_entries_to_disk() {
        let mut s = HierarchicalStore::new(cfg(1000, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        s.insert(2, 400, SimTime::ZERO, None).unwrap();
        // Touch 1 so 2 becomes LRU.
        s.fetch(1, t(0.1)).unwrap();
        s.insert(3, 400, SimTime::ZERO, None).unwrap();
        assert_eq!(s.locate(2), Some(Tier::Disk), "LRU victim demoted");
        assert_eq!(s.locate(1), Some(Tier::Host));
        assert_eq!(s.locate(3), Some(Tier::Host));
        assert_eq!(s.stats().evictions, 1);
        assert!(s.host_used() <= 1000);
    }

    #[test]
    fn disk_fetch_pays_bandwidth_and_promotes() {
        // 400 B at 100 B/s = 4 s transfer.
        let mut s = HierarchicalStore::new(cfg(400, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        s.insert(2, 400, SimTime::ZERO, None).unwrap(); // evicts 1
        assert_eq!(s.locate(1), Some(Tier::Disk));
        let ready = s.fetch(1, t(10.0)).unwrap();
        assert_eq!(ready, t(14.0));
        assert_eq!(s.locate(1), Some(Tier::Host));
        assert_eq!(s.stats().disk_hits, 1);
    }

    #[test]
    fn disk_transfers_serialize_on_the_read_stream() {
        let mut s = HierarchicalStore::new(cfg(800, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        s.insert(2, 400, SimTime::ZERO, None).unwrap();
        s.insert(3, 400, SimTime::ZERO, None).unwrap(); // evicts 1
        s.insert(4, 400, SimTime::ZERO, None).unwrap(); // evicts 2
        assert_eq!(s.locate(1), Some(Tier::Disk));
        assert_eq!(s.locate(2), Some(Tier::Disk));
        // Both fetched at t=0: second transfer queues behind the first.
        let r1 = s.fetch(1, SimTime::ZERO).unwrap();
        let r2 = s.fetch(2, SimTime::ZERO).unwrap();
        assert_eq!(r1, t(4.0));
        assert_eq!(r2, t(8.0));
    }

    #[test]
    fn prefetch_while_queued_hides_disk_latency() {
        // §4.2: a request that queues for ≥ the transfer time sees a
        // host-ready cache when it starts.
        let mut s = HierarchicalStore::new(cfg(400, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        s.insert(2, 400, SimTime::ZERO, None).unwrap(); // evicts 1
        let ready = s.fetch(1, t(0.0)).unwrap(); // prefetch at arrival
        let dequeue = t(6.0); // request leaves the queue at 6 s
        assert!(ready <= dequeue, "transfer finished during queueing");
        // A second fetch is now a host hit with no extra delay.
        let again = s.fetch(1, dequeue).unwrap();
        assert_eq!(again, dequeue);
    }

    #[test]
    fn replacement_updates_accounting() {
        let mut s = HierarchicalStore::new(cfg(1000, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        s.insert(1, 100, SimTime::ZERO, None).unwrap();
        assert_eq!(s.host_used(), 100);
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert!(s.is_empty());
    }

    #[test]
    fn payload_round_trips() {
        let mut s = HierarchicalStore::new(cfg(1000, 100.0));
        let data = Bytes::from_static(b"activations");
        s.insert(5, 11, SimTime::ZERO, Some(data.clone())).unwrap();
        assert_eq!(s.payload(5).unwrap(), data);
        assert!(s.payload(6).is_none());
    }

    #[test]
    fn invalidation_forces_fallback_on_next_read() {
        let mut s = HierarchicalStore::new(cfg(1000, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        assert!(s.invalidate(1));
        assert!(!s.invalidate(1), "already gone");
        assert_eq!(
            s.fetch_verified(1, t(1.0)),
            VerifiedFetch::Fallback(FallbackReason::Missing)
        );
        assert_eq!(s.stats().invalidations, 1);
        assert_eq!(s.stats().fallbacks, 1);
    }

    #[test]
    fn corruption_is_detected_once_then_recovers_via_reinsert() {
        let mut s = HierarchicalStore::new(cfg(1000, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        assert!(s.corrupt(1));
        assert!(!s.corrupt(9), "unknown template");
        let read = s.fetch_verified(1, t(1.0));
        assert_eq!(read, VerifiedFetch::Fallback(FallbackReason::Corrupt));
        assert!(read.is_fallback());
        assert_eq!(s.stats().corruptions_detected, 1);
        assert_eq!(s.locate(1), None, "corrupt entry dropped");
        // Recompute reinserts; the next read is intact again.
        s.insert(1, 400, t(2.0), None).unwrap();
        assert_eq!(s.fetch_verified(1, t(3.0)), VerifiedFetch::Intact(t(3.0)));
        assert_eq!(s.stats().fallbacks, 1);
    }

    #[test]
    fn verified_read_matches_plain_fetch_when_intact() {
        let mut s = HierarchicalStore::new(cfg(400, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        s.insert(2, 400, SimTime::ZERO, None).unwrap(); // evicts 1
        match s.fetch_verified(1, t(10.0)) {
            VerifiedFetch::Intact(ready) => assert_eq!(ready, t(14.0)),
            other => panic!("expected intact disk promote, got {other:?}"),
        }
    }

    #[test]
    fn disk_degradation_slows_only_new_transfers() {
        let mut s = HierarchicalStore::new(cfg(400, 100.0));
        s.insert(1, 400, SimTime::ZERO, None).unwrap();
        s.insert(2, 400, SimTime::ZERO, None).unwrap(); // evicts 1
        s.set_disk_degradation(4.0);
        assert_eq!(s.disk_degradation(), 4.0);
        // 400 B at 100/4 B/s = 16 s.
        assert_eq!(s.fetch(1, SimTime::ZERO).unwrap(), t(16.0));
        s.set_disk_degradation(1.0);
        s.insert(3, 400, t(16.0), None).unwrap(); // evicts 2 (LRU)
        assert_eq!(s.locate(2), Some(Tier::Disk));
        // Restored bandwidth, but the stream is busy until 16 s.
        assert_eq!(s.fetch(2, t(16.0)).unwrap(), t(20.0));
        // Factors below 1 clamp: degradation can't speed the disk up.
        s.set_disk_degradation(0.25);
        assert_eq!(s.disk_degradation(), 1.0);
    }

    #[test]
    fn breaker_trips_on_repeated_corruption_and_short_circuits() {
        use fps_overload::{BreakerConfig, BreakerState};
        let mut s = HierarchicalStore::new(cfg(10_000, 100.0));
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs_f64(10.0),
            slow_read_threshold: SimDuration::from_secs_f64(1.0),
        });
        // Three corrupt reads in a row trip the breaker.
        for i in 0..3u64 {
            s.insert(i, 100, SimTime::ZERO, None).unwrap();
            s.corrupt(i);
            assert_eq!(
                s.fetch_guarded(&mut b, i, t(i as f64)),
                VerifiedFetch::Fallback(FallbackReason::Corrupt)
            );
        }
        assert_eq!(b.state(t(2.0)), BreakerState::Open);
        // While open: short-circuit with zero disk I/O, even for an
        // entry that is perfectly intact.
        s.insert(9, 100, SimTime::ZERO, None).unwrap();
        let before = s.stats();
        assert_eq!(
            s.fetch_guarded(&mut b, 9, t(3.0)),
            VerifiedFetch::Fallback(FallbackReason::BreakerOpen)
        );
        let after = s.stats();
        assert_eq!(after.breaker_short_circuits, 1);
        assert_eq!(after.host_hits, before.host_hits, "no read issued");
        assert_eq!(after.disk_hits, before.disk_hits);
        // After the cooldown a probe runs for real and heals.
        assert_eq!(
            s.fetch_guarded(&mut b, 9, t(13.0)),
            VerifiedFetch::Intact(t(13.0))
        );
        assert_eq!(b.state(t(13.0)), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn breaker_trips_on_slow_disk_reads() {
        use fps_overload::{BreakerConfig, BreakerState};
        // 400 B at 100 B/s = 4 s per disk read, over the 1 s slow
        // threshold: intact results still come back, but the breaker
        // learns and eventually short-circuits.
        let mut s = HierarchicalStore::new(cfg(400, 100.0));
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_secs_f64(60.0),
            slow_read_threshold: SimDuration::from_secs_f64(1.0),
        });
        for i in 0..3u64 {
            s.insert(100 + i, 400, SimTime::ZERO, None).unwrap();
        }
        // 102 is host-resident; 100 and 101 were evicted to disk.
        assert!(matches!(
            s.fetch_guarded(&mut b, 100, t(0.0)),
            VerifiedFetch::Intact(_)
        ));
        assert!(matches!(
            s.fetch_guarded(&mut b, 101, t(0.0)),
            VerifiedFetch::Intact(_)
        ));
        assert_eq!(b.state(t(0.0)), BreakerState::Open, "two slow reads");
        assert_eq!(
            s.fetch_guarded(&mut b, 102, t(1.0)),
            VerifiedFetch::Fallback(FallbackReason::BreakerOpen)
        );
    }

    #[test]
    fn shared_store_is_usable_across_threads() {
        let s = shared(HierarchicalStore::new(cfg(1000, 100.0)));
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.lock().insert(1, 10, SimTime::ZERO, None).unwrap();
        });
        h.join().unwrap();
        assert_eq!(s.lock().locate(1), Some(Tier::Host));
    }
}
