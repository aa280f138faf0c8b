//! Tensor operators used by transformer blocks.
//!
//! Each submodule hosts one family of operations:
//!
//! - [`mod@matmul`] — matrix multiplication kernels.
//! - [`softmax`] — numerically stable row-wise softmax.
//! - [`activation`] — GeLU and SiLU non-linearities.
//! - [`norm`] — LayerNorm, GroupNorm, and AdaLN modulation.
//! - [`gather`] — token gather/scatter, the primitive behind mask-aware
//!   computation (extracting masked-token rows, replenishing cached
//!   unmasked rows).
//! - [`conv`] — 3×3 grid convolution, the UNet scaffold operator; it
//!   mixes spatially, so mask-aware computation leaves it dense.
//! - [`reduce`] — axis reductions, cosine similarity, mean/covariance.
//! - [`fused`] — fused AdaLN+modulate, per-head attention, and
//!   matmul+GeLU kernels, bitwise identical to their compositions.
//! - [`sparse`] — the per-edit mask plan ([`sparse::SparsePlan`]) and
//!   the one plan-taking GEMM the benchmarks time against it.
//!
//! There is one kernel family: every operator has one implementation,
//! and whether it fans out over the pool is decided per call by
//! [`crate::pool::for_each_row_chunk`], never by a mode.

pub mod activation;
pub mod conv;
pub mod fused;
pub mod gather;
pub mod matmul;
pub mod norm;
pub mod reduce;
pub mod softmax;
pub mod sparse;

pub use activation::{gelu, silu};
pub use conv::conv3x3;
pub use fused::{ada_layer_norm, matmul_gelu, mha_fused, mha_fused_split, FreshKv};
pub use gather::{gather_rows, scatter_rows_into};
pub use matmul::{matmul, matmul_bt, matmul_naive};
pub use norm::{group_norm, layer_norm, modulate};
pub use reduce::{cosine_similarity, mean_axis0, row_covariance};
pub use softmax::softmax_rows;
pub use sparse::SparsePlan;
