//! The FlashPS cache engine (§4.2 of the paper).
//!
//! Two halves:
//!
//! - [`pipeline`] implements **Algorithm 1**: the dynamic program that
//!   decides, per transformer block, whether to consume cached
//!   activations (and pay their load latency on the copy stream) or to
//!   recompute all tokens (and pay full compute), minimizing the
//!   bubble-free pipeline's end-to-end latency. Both the O(N²)
//!   uniform-block DP and a general Pareto-frontier DP for
//!   heterogeneous blocks are provided, plus the naive / strawman /
//!   ideal reference schedules of Fig. 9 and Fig. 4-left.
//! - [`store`] implements the **hierarchical activation store**: host
//!   memory in front of disk with LRU eviction, byte-level sizing per
//!   Table 1, and prefetch-while-queued from disk to host (the
//!   state-of-practice KV-cache trick the paper adopts).

pub mod error;
pub mod pipeline;
pub mod placement;
pub mod replica;
pub mod store;

pub use error::CacheError;
pub use pipeline::{BlockCosts, PipelinePlan, TailPlan};
pub use placement::{
    PlacementContext, PlacementPlan, PlacementPolicy, PlacementSpec, PopularityPolicy,
    RingOrderPolicy, ShardBudget,
};
pub use replica::{ReplicaDirectory, ReplicaFetch, ReplicatedStore};
pub use store::{FallbackReason, HierarchicalStore, StoreConfig, StoreStats, Tier, VerifiedFetch};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, CacheError>;
