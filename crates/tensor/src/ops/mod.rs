//! Tensor operators used by transformer blocks.
//!
//! Each submodule hosts one family of operations:
//!
//! - [`mod@matmul`] — matrix multiplication kernels.
//! - [`softmax`] — numerically stable row-wise softmax.
//! - [`activation`] — GeLU and SiLU non-linearities.
//! - [`norm`] — LayerNorm, RMSNorm, and AdaLN modulation.
//! - [`gather`] — token gather/scatter, the primitive behind mask-aware
//!   computation (extracting masked-token rows, replenishing cached
//!   unmasked rows).
//! - [`conv`] — 3×3 grid convolution, the UNet scaffold operator whose
//!   spatial mixing forces the sparse path to dilate its masks.
//! - [`reduce`] — axis reductions, cosine similarity, mean/covariance.
//! - [`fused`] — fused AdaLN+modulate, per-head attention, and
//!   matmul+GeLU kernels, bitwise identical to their compositions.
//! - [`sparse`] — mask-sparse gather→compute→scatter variants of the
//!   measured kernels, driven by a per-edit [`sparse::SparsePlan`];
//!   their FLOPs (and wall time) scale with the mask ratio.

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
pub use gather::{gather_rows, scatter_rows, scatter_rows_into};
pub use matmul::{matmul, matmul_bt, matmul_naive, matmul_tb};
pub use norm::{group_norm, layer_norm, modulate, rms_norm};
pub use reduce::{cosine_similarity, mean_axis0, row_covariance};
pub use softmax::softmax_rows;
pub use sparse::SparsePlan;
