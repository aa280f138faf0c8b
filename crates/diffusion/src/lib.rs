//! Toy-scale diffusion-transformer substrate for the FlashPS
//! reproduction.
//!
//! This crate implements a real (CPU, `f32`) latent diffusion pipeline —
//! patch VAE, prompt/timestep conditioning, a stack of transformer
//! blocks, and a deterministic DDIM-style inpainting sampler — small
//! enough to run in milliseconds yet structurally faithful to the models
//! the paper serves (SD2.1, SDXL, Flux). Every serving strategy the
//! paper evaluates is expressed as a *compute plan* over this model:
//!
//! - **Full recompute** (Diffusers baseline): every block computes every
//!   token.
//! - **Mask-aware with cached Y** (FlashPS, Fig. 5-bottom): blocks
//!   compute only masked tokens and replenish unmasked rows from the
//!   activation cache; the bubble-free pipeline plan decides per block.
//! - **Mask-aware with cached K/V** (Fig. 7 alternative): masked queries
//!   attend over cached full-length keys/values.
//! - **Masked-only** (FISEdit-style): masked tokens only, no cache, no
//!   cross-region context.
//! - **Step skipping** (TeaCache-style): whole denoising steps reuse the
//!   previous step's prediction when the timestep-embedding drift is
//!   small.
//! - **Naive disregard** (Fig. 1-rightmost): the masked region is
//!   generated without any template context and pasted back.
//!
//! Because weights are deterministic functions of a seed, experiments
//! are bit-reproducible, and because the *same* model underlies every
//! strategy, quality comparisons between strategies (Table 2 of the
//! paper) are meaningful.

pub mod block;
pub mod cache;
pub mod config;
pub mod embedding;
pub mod error;
pub mod flops;
pub mod image;
pub mod model;
pub mod pipeline;
pub mod resblock;
pub mod sampler;
pub mod vae;

pub use cache::{BlockCache, StepCache, TemplateCache};
pub use config::{Architecture, ModelConfig};
pub use error::DiffusionError;
pub use image::Image;
pub use model::{BlockMode, DiffusionModel, StepPlan};
pub use pipeline::{EditOutput, EditPipeline, EditSession, Guidance, PipelineStage, Strategy};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, DiffusionError>;
