//! Structural ops: axis permutation, concat and axis slicing (forward +
//! gradient helpers).
//!
//! [`permute`] is the strided kernel behind `Tensor::permuted` (and so
//! `Var::permute`, its backward, `transposed` and the frozen `Permute` step);
//! the original per-element odometer is kept in [`naive`] as its
//! differential-testing and benchmark reference.

use crate::tensor::Tensor;

/// Permutes axes into a new contiguous tensor: output axis `j` is input axis
/// `axes[j]`.
///
/// Output storage is a cleared pooled buffer filled in one sequential pass
/// (no zero-fill). Size-1 axes are dropped and output axes whose source
/// strides line up are merged, so the walk runs over the fewest axes. The
/// two innermost run in a tight loop: each innermost row is copied as one
/// `extend_from_slice` when its source stride is 1, as a strided gather
/// otherwise. The remaining outer axes advance a base offset incrementally.
///
/// # Panics
/// Panics unless `axes` is a permutation of `0..x.rank()`.
pub fn permute(x: &Tensor, axes: &[usize]) -> Tensor {
    let shape = x.shape();
    assert_permutation(axes, shape.len());
    let out_shape: Vec<usize> = axes.iter().map(|&a| shape[a]).collect();
    let mut data = crate::pool::take_empty(x.len());
    let src = x.data();
    if src.is_empty() {
        return Tensor::new(out_shape, data);
    }

    // (extent, source stride) per output axis, size-1 axes dropped and
    // adjacent axes merged where the outer one steps exactly over the inner.
    let mut dims: Vec<(usize, usize)> = Vec::with_capacity(axes.len());
    for &a in axes {
        let extent = shape[a];
        if extent == 1 {
            continue;
        }
        let stride: usize = shape[a + 1..].iter().product();
        match dims.last_mut() {
            Some((e, s)) if *s == extent * stride => {
                *e *= extent;
                *s = stride;
            }
            _ => dims.push((extent, stride)),
        }
    }
    let (run, run_stride) = dims.pop().unwrap_or((1, 1));
    let (rows, row_stride) = dims.pop().unwrap_or((1, 0));
    let outer = dims;
    let mut idx = vec![0usize; outer.len()];
    let mut base = 0usize;
    loop {
        for r in 0..rows {
            let start = base + r * row_stride;
            if run_stride == 1 {
                data.extend_from_slice(&src[start..start + run]);
            } else {
                let row = &src[start..=start + (run - 1) * run_stride];
                data.extend((0..run).map(|k| row[k * run_stride]));
            }
        }
        // Advance the outer odometer, carrying the base offset with it.
        let mut d = outer.len();
        loop {
            if d == 0 {
                return Tensor::new(out_shape, data);
            }
            d -= 1;
            let (extent, stride) = outer[d];
            idx[d] += 1;
            base += stride;
            if idx[d] < extent {
                break;
            }
            idx[d] = 0;
            base -= extent * stride;
        }
    }
}

fn assert_permutation(axes: &[usize], rank: usize) {
    assert_eq!(axes.len(), rank, "permute needs one axis per dimension");
    let mut seen = 0u64;
    for &a in axes {
        assert!(a < rank && a < 64 && seen & (1 << a) == 0, "{axes:?} is not a permutation");
        seen |= 1 << a;
    }
}

/// Reference kernels kept for differential tests and `kernel_bench`.
pub mod naive {
    use crate::shape::strides_for;
    use crate::tensor::Tensor;

    /// The original permute: a per-element odometer over the output index,
    /// writing into a zero-filled tensor.
    pub fn permute(x: &Tensor, axes: &[usize]) -> Tensor {
        assert_eq!(axes.len(), x.rank());
        let new_shape: Vec<usize> = axes.iter().map(|&a| x.shape()[a]).collect();
        let old_strides = strides_for(x.shape());
        let new_strides_in_old: Vec<usize> = axes.iter().map(|&a| old_strides[a]).collect();
        let mut out = Tensor::zeros(new_shape.clone());
        let mut idx = vec![0usize; new_shape.len()];
        for o in out.data_mut().iter_mut() {
            let off: usize = idx.iter().zip(&new_strides_in_old).map(|(&i, &s)| i * s).sum();
            *o = x.data()[off];
            // increment odometer
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < new_shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }
}

/// Concatenates tensors along `axis`. All other dimensions must match.
pub fn concat(xs: &[&Tensor], axis: usize) -> Tensor {
    assert!(!xs.is_empty(), "concat of zero tensors");
    let rank = xs[0].rank();
    assert!(axis < rank);
    for t in xs {
        assert_eq!(t.rank(), rank, "concat rank mismatch");
        for (d, (&a, &b)) in xs[0].shape().iter().zip(t.shape()).enumerate() {
            assert!(d == axis || a == b, "concat shape mismatch at dim {d}");
        }
    }
    let outer: usize = xs[0].shape()[..axis].iter().product();
    let inner: usize = xs[0].shape()[axis + 1..].iter().product();
    let total_axis: usize = xs.iter().map(|t| t.shape()[axis]).sum();
    let mut out_shape = xs[0].shape().to_vec();
    out_shape[axis] = total_axis;
    let mut out = Tensor::zeros(out_shape);
    let od = out.data_mut();
    let row = total_axis * inner;
    let mut axis_off = 0usize;
    for t in xs {
        let d = t.shape()[axis];
        let td = t.data();
        for o in 0..outer {
            let src = &td[o * d * inner..(o + 1) * d * inner];
            let dst = &mut od[o * row + axis_off * inner..o * row + (axis_off + d) * inner];
            dst.copy_from_slice(src);
        }
        axis_off += d;
    }
    out
}

/// Splits a concat gradient back to the inputs: accumulates the slice of
/// `dout` corresponding to input `idx` (with `axis` extent `d`, offset
/// `axis_off`) into `dx`.
#[allow(clippy::too_many_arguments)]
pub fn concat_backward_into(
    dout: &[f32],
    dx: &mut [f32],
    outer: usize,
    total_axis: usize,
    inner: usize,
    axis_off: usize,
    d: usize,
) {
    let row = total_axis * inner;
    for o in 0..outer {
        let src = &dout[o * row + axis_off * inner..o * row + (axis_off + d) * inner];
        let dst = &mut dx[o * d * inner..(o + 1) * d * inner];
        for (a, &b) in dst.iter_mut().zip(src) {
            *a += b;
        }
    }
}

/// Extracts `len` entries starting at `start` along `axis`.
pub fn slice_axis(x: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    let shape = x.shape();
    assert!(axis < shape.len());
    assert!(start + len <= shape[axis], "slice {start}+{len} beyond {:?}", shape[axis]);
    let outer: usize = shape[..axis].iter().product();
    let d = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let mut out_shape = shape.to_vec();
    out_shape[axis] = len;
    let mut out = Tensor::zeros(out_shape);
    let od = out.data_mut();
    let xd = x.data();
    for o in 0..outer {
        let src = &xd[(o * d + start) * inner..(o * d + start + len) * inner];
        let dst = &mut od[o * len * inner..(o + 1) * len * inner];
        dst.copy_from_slice(src);
    }
    out
}

/// Scatters a slice gradient back into the source position.
pub fn slice_axis_backward_into(
    dout: &[f32],
    dx: &mut [f32],
    outer: usize,
    d: usize,
    inner: usize,
    start: usize,
    len: usize,
) {
    for o in 0..outer {
        let src = &dout[o * len * inner..(o + 1) * len * inner];
        let dst = &mut dx[(o * d + start) * inner..(o * d + start + len) * inner];
        for (a, &b) in dst.iter_mut().zip(src) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::new([1, 2], vec![1., 2.]);
        let b = Tensor::new([1, 2], vec![3., 4.]);
        let c0 = concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.data(), &[1., 2., 3., 4.]);
        let c1 = concat(&[&a, &b], 1);
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn concat_then_slice_roundtrip() {
        let a = Tensor::new([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::new([2, 3], vec![5., 6., 7., 8., 9., 10.]);
        let c = concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(slice_axis(&c, 1, 0, 2), a);
        assert_eq!(slice_axis(&c, 1, 2, 3), b);
    }

    #[test]
    fn slice_middle() {
        let x = Tensor::new([1, 4, 2], (0..8).map(|v| v as f32).collect());
        let s = slice_axis(&x, 1, 1, 2);
        assert_eq!(s.shape(), &[1, 2, 2]);
        assert_eq!(s.data(), &[2., 3., 4., 5.]);
    }

    #[test]
    fn slice_backward_scatter() {
        let dout = [1.0, 2.0, 3.0, 4.0];
        let mut dx = [0.0; 8];
        // x [1,4,2], slice axis1 start1 len2
        slice_axis_backward_into(&dout, &mut dx, 1, 4, 2, 1, 2);
        assert_eq!(dx, [0., 0., 1., 2., 3., 4., 0., 0.]);
    }
}
