//! Error types for the diffusion substrate.

use core::fmt;
use fps_tensor::TensorError;

/// Errors produced by model construction and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffusionError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A model configuration is internally inconsistent.
    InvalidConfig {
        /// Description of the inconsistency.
        reason: String,
    },
    /// A mask's token count disagrees with the model's token length.
    MaskLengthMismatch {
        /// Token length expected by the model.
        expected: usize,
        /// Token length of the provided mask.
        actual: usize,
    },
    /// A request needed cached activations that were not available.
    CacheMiss {
        /// Denoising step index of the miss.
        step: usize,
        /// Transformer block index of the miss.
        block: usize,
    },
    /// A block or the all-rows output read the unmasked rows a cached
    /// block left, but that block's cache entry holds K/V panels, not
    /// its output `Y`.
    YNotCached {
        /// Denoising step index of the read.
        step: usize,
        /// Transformer block whose `Y` was needed.
        block: usize,
    },
    /// A compute plan is incompatible with the request (for example, a
    /// cached-K/V plan mixing in non-K/V blocks).
    InvalidPlan {
        /// Description of the incompatibility.
        reason: String,
    },
    /// An image's dimensions are incompatible with the model's VAE.
    ImageShapeMismatch {
        /// Pixel height and width expected by the model.
        expected: (usize, usize),
        /// Pixel height and width of the provided image.
        actual: (usize, usize),
    },
}

impl fmt::Display for DiffusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::InvalidConfig { reason } => write!(f, "invalid model config: {reason}"),
            Self::MaskLengthMismatch { expected, actual } => {
                write!(f, "mask has {actual} tokens, model expects {expected}")
            }
            Self::CacheMiss { step, block } => {
                write!(f, "activation cache miss at step {step}, block {block}")
            }
            Self::YNotCached { step, block } => write!(
                f,
                "step {step}, block {block}: the cache holds K/V panels, not the output rows read"
            ),
            Self::InvalidPlan { reason } => write!(f, "invalid compute plan: {reason}"),
            Self::ImageShapeMismatch { expected, actual } => write!(
                f,
                "image is {}x{}, model expects {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for DiffusionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DiffusionError {
    fn from(e: TensorError) -> Self {
        Self::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_errors_convert() {
        let te = TensorError::Empty { op: "x" };
        let de: DiffusionError = te.clone().into();
        assert_eq!(de, DiffusionError::Tensor(te));
    }

    #[test]
    fn display_is_informative() {
        let e = DiffusionError::CacheMiss { step: 3, block: 7 };
        let s = e.to_string();
        assert!(s.contains("step 3"));
        assert!(s.contains("block 7"));
    }
}
