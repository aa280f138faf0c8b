//! Dense `f32` tensor library for the FlashPS reproduction.
//!
//! This crate is the numeric substrate beneath the toy-scale diffusion
//! models in `fps-diffusion`. It provides exactly the operators a
//! transformer block needs — matrix multiplication, softmax, layer/group
//! normalization, GeLU/SiLU, token gather/scatter — plus the symmetric
//! eigendecomposition used by the Fréchet-distance metric in
//! `fps-quality`.
//!
//! Design notes:
//!
//! - Tensors are contiguous, row-major, and own their storage. There are
//!   no views or strides; slicing copies. At the toy scales FlashPS runs
//!   at (hundreds of tokens, hidden dims ≤ 256) this is simpler and fast
//!   enough.
//! - Fallible operations (anything that can hit a shape mismatch) return
//!   [`Result`] with a structured [`TensorError`]; nothing in the public
//!   API panics on bad shapes.
//! - All randomness flows through [`rng::DetRng`], a deterministic
//!   splitmix64/xoshiro generator, so model weights and experiments are
//!   bit-reproducible across runs and platforms.
//! - Every kernel runs on the calling thread, over its whole output;
//!   a server parallelizes across requests, one per worker thread, not
//!   inside a kernel. Short-lived intermediates draw storage from a
//!   thread-local [`scratch`] pool, and [`ktrace`] exposes an opt-in
//!   per-kernel timing hook.
//! - The hot row kernels (the GEMM rows, the GeLU epilogue, the
//!   attention stages) are one source compiled twice, for the
//!   target's baseline and for AVX2, and the AVX2 build runs where a
//!   runtime check finds it; both give the same bits.
//! - The crate's one `unsafe` is in [`pool`]: the call into the AVX2
//!   build behind its runtime feature check (`scripts/check.sh` fails
//!   on `unsafe` anywhere else under `crates/`).

pub mod error;
pub mod ktrace;
pub mod linalg;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, TensorError>;
