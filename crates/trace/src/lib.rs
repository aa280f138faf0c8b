//! Structured span tracing for the FlashPS serving stack.
//!
//! The paper's headline claim — a *bubble-free* pipeline that overlaps
//! cache loading with computation (§4.2, Fig. 9) — is a statement about
//! time: where each stream spends it and where it idles. This crate is
//! the observability layer that turns that claim from a cost-model
//! assertion into a measurement:
//!
//! - [`SpanRecord`] / [`EventRecord`] — structured records with ids,
//!   parent links, and nanosecond timestamps on named [`Track`]s.
//! - [`Clock`] — every collector is pinned to **one** clock domain:
//!   wall time for the real [`ThreadedServer`], virtual time for the
//!   discrete-event `ClusterSim`. Mixing domains in one trace is a
//!   bug this crate refuses at the API level.
//! - [`TraceSink`] — a cheap, cloneable handle. A disabled sink is a
//!   single `Option` check; instrumentation can stay in hot paths.
//! - [`Collector`] — per-thread bounded ring buffers with drop
//!   counters, so tracing never grows memory without bound and never
//!   blocks the traced thread on another thread's buffer.
//! - [`export`] — Chrome `chrome://tracing` JSON (via `fps-json`) and
//!   flamegraph collapsed-stack text.
//! - [`analysis`] — per-request critical-path extraction, the
//!   *bubble-fraction* metric (GPU idle while waiting on cache load),
//!   and queue-wait/service-time decomposition.
//!
//! [`ThreadedServer`]: https://chromium.googlesource.com/catapult/+/HEAD/tracing

pub mod analysis;
pub mod export;
pub mod sink;
pub mod span;

pub use analysis::{
    bubble_in_window, critical_path, critical_path_nanos, merged_intervals, stage_breakdown,
    BubbleReport, PathSegment, StageBreakdown,
};
pub use export::{chrome_trace_json, chrome_trace_string, flamegraph_collapsed};
pub use sink::{Collector, SpanGuard, Trace, TraceSink, DEFAULT_THREAD_CAPACITY};
pub use span::{Clock, EventRecord, SpanRecord, Track};
