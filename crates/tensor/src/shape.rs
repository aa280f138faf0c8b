//! Shape handling for row-major tensors.

use crate::error::TensorError;
use crate::Result;

/// The shape of a tensor: a list of dimension sizes, outermost first.
///
/// Shapes are cheap to clone and compare. A rank-0 shape (no dimensions)
/// denotes a scalar with one element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a list of dimension sizes.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Self(dims.into())
    }

    /// Returns the dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Returns the number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Returns row-major strides (in elements) for this shape.
    ///
    /// The innermost dimension has stride 1.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Computes the flat row-major offset of a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index rank differs from the shape rank or
    /// any coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.0.len() {
            return Err(TensorError::RankMismatch {
                op: "shape.offset",
                expected: self.0.len(),
                actual: index.len(),
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (axis, (&i, (&d, &s))) in index
            .iter()
            .zip(self.0.iter().zip(strides.iter()))
            .enumerate()
        {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    op: "shape.offset",
                    index: i,
                    bound: self.0[axis],
                });
            }
            off += i * s;
        }
        Ok(off)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Self(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Self(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Self(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(Vec::new());
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_computes_flat_index() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[0, 1, 2]).unwrap(), 6);
    }

    #[test]
    fn offset_rejects_bad_rank_and_bounds() {
        let s = Shape::from([2, 3]);
        assert!(matches!(
            s.offset(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }
}
