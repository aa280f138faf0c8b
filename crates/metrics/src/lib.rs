//! Measurement utilities for the FlashPS experiments.
//!
//! - [`stats`] — percentiles and moment summaries for latency samples.
//! - [`histogram`] — fixed-width histograms (the mask-ratio
//!   distributions of Fig. 3).
//! - [`regression`] — least-squares linear fits with R², the latency
//!   estimators of Fig. 11 and Algorithm 2.
//! - [`latency`] — a recorder that accumulates per-request latency
//!   breakdowns (queueing, loading, compute) and summarizes them.
//! - [`report`] — fixed-width text tables for experiment binaries.
//! - [`degradation`] — resilience accounting (goodput, retries,
//!   fallback rate, lost-request conservation) under fault injection.
//! - [`slo`] — SLO-attainment accounting (goodput at deadline, shed
//!   rate, per-rung quality) for overload-controlled runs, and the
//!   mergeable per-unit ledger both simulators derive it from.
//! - [`fleet`] — cross-shard SLO aggregation with histogram-merged
//!   percentiles (fleet p95 is pooled, never averaged).
//! - [`recovery`] — goodput timelines and time-to-recover / dip-area
//!   accounting for fleet chaos runs.
//! - [`autoscaler`] — hysteretic pool scaling from windowed SLO
//!   signals (shed rate, queue-wait p95, utilization, cache pressure),
//!   shared by the fleet's per-shard pools and the stage-graph's
//!   per-stage pools.
//! - [`feedback`] — windowed per-shard/per-template cache hit rate and
//!   fetch-cost EWMAs, published by the cache tier and consumed as a
//!   routing cost term and an autoscaler signal.

pub mod autoscaler;
pub mod degradation;
pub mod feedback;
pub mod fleet;
pub mod histogram;
pub mod latency;
pub mod plot;
pub mod recovery;
pub mod regression;
pub mod report;
pub mod slo;
pub mod stats;
pub mod throughput;

pub use autoscaler::{
    Autoscaler, AutoscalerConfig, ScaleDecision, ScaleGuard, ScaleWindow, ShardSignal,
};
pub use degradation::DegradationReport;
pub use feedback::{CacheFeedback, FetchOutcome, PopularityHistogram};
pub use fleet::{FleetCacheCounters, FleetSloReport, ShardSloReport};
pub use histogram::Histogram;
pub use latency::{LatencyBreakdown, LatencyRecorder};
pub use plot::{line_plot, Series};
pub use recovery::{FleetRecoveryReport, GoodputTimeline};
pub use regression::LinearRegression;
pub use report::Table;
pub use slo::{RungServed, SloLedger, SloReport, StageQueueStats};
pub use stats::Summary;
pub use throughput::ThroughputCounter;
