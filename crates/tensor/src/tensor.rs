//! Dense row-major f32 tensors.

use crate::shape::numel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, `f32` tensor of arbitrary rank.
///
/// This is the value type flowing through the autograd [`crate::Graph`]; it is
/// deliberately simple — owned contiguous storage, no views. Kernels borrow
/// their operands (`&Tensor`, `&[f32]`) and write only the output they
/// return, so a value is copied only where an op's result must be a new
/// tensor (e.g. [`Tensor::permuted`] materializes the permuted layout in one
/// strided pass). Callers that merely read a value should borrow it, never
/// clone it.
///
/// Storage is drawn from the thread-local [`crate::pool`] and handed back on
/// drop, so the constructors and elementwise combinators here allocate
/// nothing once the pool is warm (the train-loop steady state).
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self { shape: self.shape.clone(), data: crate::pool::take_copy(&self.data) }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        crate::pool::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a tensor from a shape and matching data vector.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn new(shape: impl Into<Vec<usize>>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {:?} does not match data length {}",
            shape,
            data.len()
        );
        Self { shape, data }
    }

    /// Creates an all-zero tensor (pooled storage).
    pub fn zeros(shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Self { shape, data: crate::pool::take(n) }
    }

    /// Creates an all-one tensor (pooled storage).
    pub fn ones(shape: impl Into<Vec<usize>>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value` (pooled storage).
    pub fn full(shape: impl Into<Vec<usize>>, value: f32) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Self { shape, data: crate::pool::take_filled(n, value) }
    }

    /// Creates a scalar tensor of shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Self { shape: vec![1], data: crate::pool::take_filled(1, value) }
    }

    /// Creates a rank-1 tensor from a slice (pooled storage).
    pub fn from_slice(values: &[f32]) -> Self {
        Self { shape: vec![values.len()], data: crate::pool::take_copy(values) }
    }

    /// Stacks same-shaped tensors along a new leading axis: `K` tensors of
    /// shape `S` become one `[K, ..S]` tensor in a single pooled write pass.
    /// The serving micro-batcher uses this to coalesce per-request inputs
    /// into one batched forward.
    ///
    /// # Panics
    /// Panics if `items` is empty or the shapes disagree.
    pub fn stack(items: &[&Tensor]) -> Self {
        let first = items.first().expect("stack of zero tensors");
        let mut data = crate::pool::take_empty(items.len() * first.len());
        let mut shape = Vec::with_capacity(first.rank() + 1);
        shape.push(items.len());
        shape.extend_from_slice(first.shape());
        for t in items {
            assert_eq!(t.shape(), first.shape(), "stack of mismatched shapes");
            data.extend_from_slice(t.data());
        }
        Self { shape, data }
    }

    /// The inverse of [`Tensor::stack`]: splits along axis 0 into per-row
    /// tensors (the batcher's per-request demux).
    ///
    /// # Panics
    /// Panics on a rank-0 tensor.
    pub fn unstack(&self) -> Vec<Tensor> {
        assert!(self.rank() >= 1, "unstack needs a leading axis");
        let rows = self.shape[0];
        let row_shape: Vec<usize> = self.shape[1..].to_vec();
        let stride = numel(&row_shape);
        (0..rows)
            .map(|r| Tensor {
                shape: row_shape.clone(),
                data: crate::pool::take_copy(&self.data[r * stride..(r + 1) * stride]),
            })
            .collect()
    }

    /// An `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage (which then bypasses the
    /// pool: the caller owns the buffer outright).
    pub fn into_data(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Value of a scalar (single-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Element accessor by multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[crate::shape::ravel(idx, &self.shape)]
    }

    /// Mutable element accessor by multi-dimensional index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = crate::shape::ravel(idx, &self.shape);
        &mut self.data[off]
    }

    /// Returns a copy with a new shape (same number of elements).
    pub fn reshaped(&self, shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        assert_eq!(numel(&shape), self.data.len(), "reshape {:?} -> {:?}", self.shape, shape);
        Self { shape, data: crate::pool::take_copy(&self.data) }
    }

    /// In-place reshape (same number of elements).
    pub fn reshape_in_place(&mut self, shape: impl Into<Vec<usize>>) {
        let shape = shape.into();
        assert_eq!(numel(&shape), self.data.len());
        self.shape = shape;
    }

    /// Permutes axes into a new contiguous tensor (the strided kernel
    /// [`crate::ops::shapeops::permute`]).
    pub fn permuted(&self, axes: &[usize]) -> Self {
        crate::ops::shapeops::permute(self, axes)
    }

    /// Transposes the last two axes.
    pub fn transposed(&self) -> Self {
        let r = self.rank();
        assert!(r >= 2, "transpose needs rank >= 2");
        let mut axes: Vec<usize> = (0..r).collect();
        axes.swap(r - 1, r - 2);
        self.permuted(&axes)
    }

    /// Applies `f` elementwise, returning a new tensor (pooled storage).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = crate::pool::take_empty(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Self { shape: self.shape.clone(), data }
    }

    /// Combines two same-shaped tensors elementwise (pooled storage).
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let mut data = crate::pool::take_empty(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Self { shape: self.shape.clone(), data }
    }

    /// Adds `other * scale` into `self` (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (NaN-ignoring; -inf for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (NaN-ignoring; +inf for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Plain (non-autograd) 2-D matrix multiply, used by data utilities.
    ///
    /// # Panics
    /// Panics unless `self` is `[m, k]` and `other` is `[k, n]`.
    pub fn matmul2(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert_eq!(other.rank(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul2 inner dims: {k} vs {k2}");
        let mut out = Tensor::zeros([m, n]);
        crate::ops::matmul::matmul_kernel(&self.data, &other.data, &mut out.data, m, k, n);
        out
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 16 {
            write!(f, "Tensor{:?} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{:?} [{} elems, mean {:.4}, norm {:.4}]",
                self.shape,
                self.data.len(),
                self.mean(),
                self.norm()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 21.0);
        assert!((t.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn mismatched_shape_panics() {
        let _ = Tensor::new([2, 2], vec![1.0; 3]);
    }

    #[test]
    fn permute_transpose() {
        let t = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transposed();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.at(&[0, 1]), 4.0);

        let t3 = Tensor::new([2, 2, 2], (0..8).map(|x| x as f32).collect());
        let p = t3.permuted(&[2, 0, 1]);
        assert_eq!(p.shape(), &[2, 2, 2]);
        assert_eq!(p.at(&[1, 0, 1]), t3.at(&[0, 1, 1]));
    }

    #[test]
    fn matmul2_identity() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul2(&i), a);
        let b = Tensor::new([2, 3], vec![1., 0., 1., 0., 1., 0.]);
        let c = a.matmul2(&b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1., 2., 1., 3., 4., 3.]);
    }

    #[test]
    fn eye_and_full() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 2]), 0.0);
        let f = Tensor::full([2, 2], 7.0);
        assert_eq!(f.sum(), 28.0);
    }

    #[test]
    fn norm_and_finite() {
        let t = Tensor::from_slice(&[3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert!(t.all_finite());
        let bad = Tensor::from_slice(&[f32::NAN]);
        assert!(!bad.all_finite());
    }

    #[test]
    fn stack_unstack_roundtrip() {
        let a = Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new([2, 3], vec![7., 8., 9., 10., 11., 12.]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2, 3]);
        assert_eq!(s.at(&[0, 1, 2]), 6.0);
        assert_eq!(s.at(&[1, 0, 0]), 7.0);
        let rows = s.unstack();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], a);
        assert_eq!(rows[1], b);
    }

    #[test]
    #[should_panic(expected = "mismatched shapes")]
    fn stack_rejects_mismatched_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([3, 2]);
        let _ = Tensor::stack(&[&a, &b]);
    }
}
