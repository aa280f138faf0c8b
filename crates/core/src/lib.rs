//! # FlashPS
//!
//! A reproduction of *FlashPS: Efficient Generative Image Editing with
//! Mask-aware Caching and Scheduling* (EuroSys '26) as a Rust library.
//!
//! FlashPS serves mask-guided image-editing requests efficiently by:
//!
//! 1. **Mask-aware caching** (§3): reusing cached transformer
//!    activations of *unmasked* tokens across requests that edit the
//!    same template, so only masked tokens are computed;
//! 2. **Bubble-free pipelined cache loading** (§4.2, Algorithm 1): a
//!    dynamic program chooses which transformer blocks consume cached
//!    activations so host→HBM loads hide behind computation;
//! 3. **Continuous batching with CPU/GPU disaggregation** (§4.3):
//!    requests join/leave the running batch at denoising-step
//!    boundaries, with pre/post-processing on separate processes;
//! 4. **Mask-aware load balancing** (§4.4, Algorithm 2): regression
//!    latency models route requests to the least-loaded worker.
//!
//! The crate exposes three layers:
//!
//! - [`FlashPs`] — the numeric editing system over the toy-scale
//!   diffusion substrate: register templates (priming their activation
//!   caches), then edit with any [`fps_diffusion::Strategy`].
//! - [`server::ThreadedServer`] — a real multi-threaded serving front
//!   end with step-level continuous batching over [`FlashPs`]. Its
//!   admission, degradation, and routing decisions come from the same
//!   clock-generic `fps_serving::ControlPlane` the cluster simulator
//!   uses, so policies validated in simulation carry over unchanged.
//! - [`scheduler::MaskAwareRouter`] + [`experiment`] — the cluster
//!   scheduler and the simulation harness reproducing the paper's
//!   serving experiments.
//!
//! ## Quickstart
//!
//! ```
//! use flashps::{FlashPs, FlashPsConfig};
//! use fps_diffusion::{Image, ModelConfig};
//! use fps_workload::{Mask, MaskShape};
//!
//! let cfg = ModelConfig::tiny();
//! let mut system = FlashPs::new(FlashPsConfig::new(cfg.clone())).unwrap();
//! let template = Image::template(cfg.pixel_h(), cfg.pixel_w(), 42);
//! system.register_template(7, &template).unwrap();
//!
//! let mut rng = rand::rngs::mock::StepRng::new(1, 1);
//! let mask = Mask::generate(cfg.pixel_h(), cfg.pixel_w(), MaskShape::Rect, 0.25, &mut rng);
//! let result = system.edit(7, &mask, "add a red scarf", 1).unwrap();
//! assert!(result.output.image.data().iter().all(|v| v.is_finite()));
//! assert!(result.speedup_vs_full > 1.0);
//! ```

pub mod experiment;
pub mod scheduler;
pub mod server;
pub mod system;

pub use experiment::{run_serving, ServingPoint};
pub use scheduler::MaskAwareRouter;
pub use server::{EditJob, ServerConfig, StagedServerConfig, ThreadedServer, Ticket};
pub use system::{rung_strategy, EditResult, FlashPs, FlashPsConfig};

/// Errors surfaced by the FlashPS system.
#[derive(Debug)]
pub enum FlashPsError {
    /// Underlying numeric pipeline error.
    Diffusion(fps_diffusion::DiffusionError),
    /// Underlying serving simulator error.
    Serving(fps_serving::ServingError),
    /// The template cache store refused an entry (a cache larger than
    /// the whole host budget).
    Cache(fps_maskcache::CacheError),
    /// Template was never registered.
    UnknownTemplate {
        /// The missing template id.
        template_id: u64,
    },
    /// The server is shutting down or a worker died.
    ServerClosed,
    /// The server's request queue is at its configured depth cap; the
    /// job was shed at admission instead of queued.
    Overloaded,
    /// The control plane rejected the job (overload-control admission:
    /// rate limit, queue bound, or deadline infeasibility).
    Rejected(fps_serving::RejectReason),
    /// The job exceeded its wall-clock deadline before completing.
    JobTimeout,
    /// A worker panicked while serving the job and the retry budget
    /// ran out.
    WorkerPanicked,
}

impl core::fmt::Display for FlashPsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Diffusion(e) => write!(f, "diffusion error: {e}"),
            Self::Serving(e) => write!(f, "serving error: {e}"),
            Self::Cache(e) => write!(f, "cache store error: {e}"),
            Self::UnknownTemplate { template_id } => {
                write!(f, "template {template_id} was never registered")
            }
            Self::ServerClosed => write!(f, "server closed"),
            Self::Overloaded => {
                write!(f, "server overloaded: request queue at capacity")
            }
            Self::Rejected(reason) => {
                write!(f, "control plane rejected the job: {}", reason.label())
            }
            Self::JobTimeout => write!(f, "job exceeded its deadline"),
            Self::WorkerPanicked => {
                write!(f, "worker panicked serving the job; retries exhausted")
            }
        }
    }
}

impl std::error::Error for FlashPsError {}

impl From<fps_diffusion::DiffusionError> for FlashPsError {
    fn from(e: fps_diffusion::DiffusionError) -> Self {
        Self::Diffusion(e)
    }
}

impl From<fps_serving::ServingError> for FlashPsError {
    fn from(e: fps_serving::ServingError) -> Self {
        Self::Serving(e)
    }
}

impl From<fps_maskcache::CacheError> for FlashPsError {
    fn from(e: fps_maskcache::CacheError) -> Self {
        Self::Cache(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, FlashPsError>;
