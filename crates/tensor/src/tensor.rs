//! The core owned, contiguous, row-major `f32` tensor.

use crate::error::TensorError;
use crate::rng::DetRng;
use crate::shape::Shape;
use crate::Result;

/// An owned, contiguous, row-major tensor of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when the element count
    /// implied by `shape` differs from `data.len()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.numel()];
        Self { shape, data }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.numel()];
        Self { shape, data }
    }

    /// Creates a tensor of i.i.d. standard normal samples.
    pub fn randn(shape: impl Into<Shape>, rng: &mut DetRng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        Self { shape, data }
    }

    /// Creates a Xavier/Glorot-initialized weight matrix of shape
    /// `[fan_in, fan_out]`.
    ///
    /// Samples are normal with standard deviation `sqrt(2 / (in + out))`,
    /// the standard initialization for linear projections.
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut DetRng) -> Self {
        let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
        let data = (0..fan_in * fan_out).map(|_| rng.normal() * std).collect();
        Self {
            shape: Shape::from([fan_in, fan_out]),
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns the underlying data slice in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data slice mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and hands its storage to the calling
    /// thread's [`scratch`](crate::scratch) pool so a later kernel can
    /// reuse it. Call this on dead intermediates in hot loops; dropping
    /// a tensor normally is always still correct, just allocates more.
    pub fn recycle(self) {
        crate::scratch::give(self.data);
    }

    /// Reads the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index has the wrong rank or is out of
    /// bounds.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns an error if the index has the wrong rank or is out of
    /// bounds.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] when element counts
    /// differ.
    pub fn reshape(self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: self.data.len(),
            });
        }
        Ok(Self {
            shape,
            data: self.data,
        })
    }

    /// Returns row `i` of a rank-2 tensor as a slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix tensors or out-of-bounds rows.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds {
                op: "row",
                index: i,
                bound: rows,
            });
        }
        Ok(&self.data[i * cols..(i + 1) * cols])
    }

    /// Returns row `i` of a rank-2 tensor as a mutable slice.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix tensors or out-of-bounds rows.
    pub fn row_mut(&mut self, i: usize) -> Result<&mut [f32]> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row_mut",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds {
                op: "row_mut",
                index: i,
                bound: rows,
            });
        }
        Ok(&mut self.data[i * cols..(i + 1) * cols])
    }

    /// Applies a function to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, k: f32) -> Self {
        self.map(|x| x * k)
    }

    /// In-place `self += k * other` (AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, k: f32, other: &Self) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
        Ok(())
    }

    /// Returns the sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns the mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Returns the L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Returns the maximum absolute element-wise difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Returns the transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix tensors.
    pub fn transpose(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Self::from_vec(out, [cols, rows])
    }

    /// Concatenates rank-2 tensors along axis 0 (rows).
    ///
    /// # Errors
    ///
    /// Returns an error when the input list is empty or column counts
    /// differ.
    pub fn vcat(parts: &[&Self]) -> Result<Self> {
        let first = parts.first().ok_or(TensorError::Empty { op: "vcat" })?;
        if first.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "vcat",
                expected: 2,
                actual: first.rank(),
            });
        }
        let cols = first.dims()[1];
        let mut rows = 0usize;
        for p in parts {
            if p.rank() != 2 || p.dims()[1] != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vcat",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            rows += p.dims()[0];
        }
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Self::from_vec(data, [rows, cols])
    }

    fn zip_with(
        &self,
        other: &Self,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], [2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], [2, 2]).is_ok());
    }

    #[test]
    fn zeros_full_eye() {
        assert_eq!(Tensor::zeros([2, 3]).sum(), 0.0);
        assert_eq!(Tensor::full([2, 3], 2.0).sum(), 12.0);
        let i = Tensor::eye(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i.at(&[1, 1]).unwrap(), 1.0);
        assert_eq!(i.at(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], [3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn elementwise_rejects_shape_mismatch() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn axpy_accumulates_scaled_other() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 4.0], [2]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = DetRng::new(1);
        let a = Tensor::randn([3, 5], &mut rng);
        let att = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(a, att);
        assert_eq!(
            a.at(&[1, 4]).unwrap(),
            a.transpose().unwrap().at(&[4, 1]).unwrap()
        );
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [2, 3]).unwrap();
        let b = a.clone().reshape([3, 2]).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.reshape([4, 2]).is_err());
    }

    #[test]
    fn rows_access() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), [2, 3]).unwrap();
        assert_eq!(a.row(1).unwrap(), &[3.0, 4.0, 5.0]);
        assert!(a.row(2).is_err());
        let mut b = a.clone();
        b.row_mut(0).unwrap()[0] = 9.0;
        assert_eq!(b.at(&[0, 0]).unwrap(), 9.0);
    }

    #[test]
    fn vcat_stacks_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], [2, 2]).unwrap();
        let c = Tensor::vcat(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(Tensor::vcat(&[]).is_err());
    }

    #[test]
    fn statistics() {
        let a = Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap();
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.mean(), 3.5);
        let b = Tensor::from_vec(vec![3.0, 7.0], [2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 3.0);
    }

    #[test]
    fn randn_is_deterministic() {
        let a = Tensor::randn([4, 4], &mut DetRng::new(5));
        let b = Tensor::randn([4, 4], &mut DetRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let small = Tensor::xavier(4, 4, &mut DetRng::new(1));
        let large = Tensor::xavier(1024, 1024, &mut DetRng::new(1));
        let var_small = small.data().iter().map(|x| x * x).sum::<f32>() / small.numel() as f32;
        let var_large = large.data().iter().map(|x| x * x).sum::<f32>() / large.numel() as f32;
        assert!(var_large < var_small);
    }
}
