//! Indexing, selection and assembly kernels.
//!
//! These are the tensor lowerings of relational data movement: `WHERE`
//! becomes [`Tensor::filter_rows`], joins and sorts shuffle rows with
//! [`Tensor::select_rows`], gradient scatter uses [`Tensor::scatter_add_rows`],
//! and operators that assemble batches use [`concat_rows`]/[`stack`].

use crate::device::PAR_THRESHOLD;
use crate::element::{Element, Num};
use crate::tensor::Tensor;

impl<T: Element> Tensor<T> {
    /// Gather whole rows (leading-dimension entries) by index, with
    /// repetition allowed. `idx` entries must be in `[0, rows)`.
    pub fn select_rows(&self, idx: &Tensor<i64>) -> Tensor<T> {
        assert!(self.ndim() >= 1, "select_rows on a scalar");
        assert_eq!(idx.ndim(), 1, "row index tensor must be 1-d");
        let n = self.rows();
        let stride: usize = self.shape()[1..].iter().product();
        let data = self.data();
        let ids = idx.data();
        let src_row = |i: usize| {
            let src = ids[i];
            assert!(
                src >= 0 && (src as usize) < n,
                "row index {src} out of bounds for {n} rows"
            );
            src as usize
        };
        let mut out = vec![T::default(); ids.len() * stride];
        if stride == 1 {
            // Plain columns: one element per row is cheaper than a row copy.
            self.device().fill_indexed(&mut out, |i| data[src_row(i)]);
        } else {
            self.device()
                .fill_rows(&mut out, ids.len(), PAR_THRESHOLD, |i, dst| {
                    let src = src_row(i);
                    dst.copy_from_slice(&data[src * stride..][..stride]);
                });
        }
        let mut dims = self.shape().to_vec();
        dims[0] = ids.len();
        Tensor::from_vec(out, &dims).to(self.device())
    }

    /// Keep the rows where `mask` is true. `mask` must be 1-d with one entry
    /// per row. This is the exact (non-differentiable) filter operator.
    pub fn filter_rows(&self, mask: &Tensor<bool>) -> Tensor<T> {
        assert_eq!(mask.ndim(), 1, "filter mask must be 1-d");
        assert_eq!(
            mask.numel(),
            self.rows(),
            "mask of {} entries cannot filter {} rows",
            mask.numel(),
            self.rows()
        );
        let idx: Vec<i64> = mask
            .data()
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as i64))
            .collect();
        let n = idx.len();
        self.select_rows(&Tensor::from_vec(idx, &[n]))
    }

    /// Contiguous sub-range along a dimension.
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Tensor<T> {
        assert!(dim < self.ndim(), "narrow dim {dim} out of range");
        let dims = self.shape();
        assert!(
            start + len <= dims[dim],
            "narrow [{start}, {start}+{len}) exceeds dim {dim} of size {}",
            dims[dim]
        );
        let outer: usize = dims[..dim].iter().product();
        let inner: usize = dims[dim + 1..].iter().product();
        let d = self.data();
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * dims[dim] + start) * inner;
            out.extend_from_slice(&d[base..base + len * inner]);
        }
        let mut new_dims = dims.to_vec();
        new_dims[dim] = len;
        Tensor::from_vec(out, &new_dims).to(self.device())
    }

    /// Gather along `dim`: `out[i][j] = self[index[i][j]][j]` (for dim 0),
    /// with `index` shaped like the output.
    pub fn gather(&self, dim: usize, index: &Tensor<i64>) -> Tensor<T> {
        assert_eq!(self.ndim(), index.ndim(), "gather rank mismatch");
        assert!(dim < self.ndim(), "gather dim out of range");
        let out_shape = index.shape().to_vec();
        let self_strides = self.shape_obj().strides();
        let out_sh = crate::shape::Shape::new(&out_shape);
        let out_strides = out_sh.strides();
        let d = self.data();
        let ix = index.data();
        let dim_size = self.shape()[dim];
        let mut out = vec![T::default(); out_sh.numel()];
        for (flat, o) in out.iter_mut().enumerate() {
            let mut rem = flat;
            let mut src = 0usize;
            for dd in 0..out_shape.len() {
                let i = rem / out_strides[dd];
                rem %= out_strides[dd];
                let pos = if dd == dim {
                    let g = ix[flat];
                    assert!(
                        g >= 0 && (g as usize) < dim_size,
                        "gather index {g} out of bounds for dim of {dim_size}"
                    );
                    g as usize
                } else {
                    i
                };
                src += pos * self_strides[dd];
            }
            *o = d[src];
        }
        Tensor::from_vec(out, &out_shape).to(self.device())
    }
}

impl<T: Num> Tensor<T> {
    /// Scatter-add rows of `src` into `self` at row positions `idx`:
    /// `out[idx[i]] += src[i]`. Duplicates accumulate — the adjoint of
    /// [`Tensor::select_rows`].
    pub fn scatter_add_rows(&self, idx: &Tensor<i64>, src: &Tensor<T>) -> Tensor<T> {
        assert_eq!(idx.ndim(), 1, "scatter index must be 1-d");
        assert_eq!(idx.numel(), src.rows(), "index count must match src rows");
        assert_eq!(
            self.shape()[1..],
            src.shape()[1..],
            "scatter row shapes differ"
        );
        let stride: usize = self.shape()[1..].iter().product();
        let n = self.rows();
        let mut out = self.to_vec();
        let s = src.data();
        for (i, &target) in idx.data().iter().enumerate() {
            assert!(
                target >= 0 && (target as usize) < n,
                "scatter index {target} out of bounds for {n} rows"
            );
            let base = target as usize * stride;
            for j in 0..stride {
                out[base + j] += s[i * stride + j];
            }
        }
        Tensor::from_vec(out, self.shape()).to(self.device())
    }

    /// Segmented sum: rows of `self` sharing the same `segment` id are
    /// added together, producing `num_segments` rows. Segment ids must be in
    /// `[0, num_segments)`. This is the tensor lowering of grouped SUM.
    pub fn segment_sum(&self, segments: &Tensor<i64>, num_segments: usize) -> Tensor<T> {
        assert_eq!(segments.numel(), self.rows(), "one segment id per row");
        let mut dims = self.shape().to_vec();
        if dims.is_empty() {
            dims = vec![1];
        }
        dims[0] = num_segments;
        Tensor::<T>::zeros(&dims)
            .to(self.device())
            .scatter_add_rows(segments, self)
    }
}

/// Concatenate tensors along the leading dimension. Trailing dims must match.
pub fn concat_rows<T: Element>(parts: &[&Tensor<T>]) -> Tensor<T> {
    assert!(!parts.is_empty(), "concat of zero tensors");
    let tail = &parts[0].shape()[1..];
    let mut total = 0usize;
    for p in parts {
        assert_eq!(&p.shape()[1..], tail, "concat_rows trailing shape mismatch");
        total += p.rows();
    }
    let mut out = Vec::with_capacity(total * tail.iter().product::<usize>().max(1));
    for p in parts {
        out.extend_from_slice(p.data());
    }
    let mut dims = vec![total];
    dims.extend_from_slice(tail);
    Tensor::from_vec(out, &dims).to(parts[0].device())
}

/// Concatenate along an arbitrary dimension.
pub fn concat<T: Element>(parts: &[&Tensor<T>], dim: usize) -> Tensor<T> {
    assert!(!parts.is_empty(), "concat of zero tensors");
    if dim == 0 {
        return concat_rows(parts);
    }
    let rank = parts[0].ndim();
    assert!(dim < rank, "concat dim out of range");
    for p in parts {
        assert_eq!(p.ndim(), rank, "concat rank mismatch");
        for d in 0..rank {
            if d != dim {
                assert_eq!(
                    p.shape()[d],
                    parts[0].shape()[d],
                    "concat non-target dims must match"
                );
            }
        }
    }
    let outer: usize = parts[0].shape()[..dim].iter().product();
    let inner: usize = parts[0].shape()[dim + 1..].iter().product();
    let total_dim: usize = parts.iter().map(|p| p.shape()[dim]).sum();
    let mut out = Vec::with_capacity(outer * total_dim * inner);
    for o in 0..outer {
        for p in parts {
            let pd = p.shape()[dim];
            let d = p.data();
            out.extend_from_slice(&d[o * pd * inner..(o + 1) * pd * inner]);
        }
    }
    let mut dims = parts[0].shape().to_vec();
    dims[dim] = total_dim;
    Tensor::from_vec(out, &dims).to(parts[0].device())
}

/// Stack equally-shaped tensors along a new leading dimension.
pub fn stack<T: Element>(parts: &[&Tensor<T>]) -> Tensor<T> {
    assert!(!parts.is_empty(), "stack of zero tensors");
    let shape = parts[0].shape();
    let mut out = Vec::with_capacity(parts.len() * parts[0].numel());
    for p in parts {
        assert_eq!(p.shape(), shape, "stack shape mismatch");
        out.extend_from_slice(p.data());
    }
    let mut dims = vec![parts.len()];
    dims.extend_from_slice(shape);
    Tensor::from_vec(out, &dims).to(parts[0].device())
}

/// One-hot encode class ids into a `[n, num_classes]` f32 matrix.
pub fn one_hot(ids: &Tensor<i64>, num_classes: usize) -> Tensor<f32> {
    assert_eq!(ids.ndim(), 1, "one_hot expects 1-d class ids");
    let n = ids.numel();
    let mut out = vec![0.0f32; n * num_classes];
    for (i, &c) in ids.data().iter().enumerate() {
        assert!(
            c >= 0 && (c as usize) < num_classes,
            "class id {c} out of range 0..{num_classes}"
        );
        out[i * num_classes + c as usize] = 1.0;
    }
    Tensor::from_vec(out, &[n, num_classes]).to(ids.device())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(v, s)
    }

    fn idx(v: Vec<i64>) -> Tensor<i64> {
        let n = v.len();
        Tensor::from_vec(v, &[n])
    }

    #[test]
    fn select_rows_with_repeats() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let s = a.select_rows(&idx(vec![2, 0, 2]));
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_rows_bounds_checked() {
        t(vec![1.0, 2.0], &[2, 1]).select_rows(&idx(vec![5]));
    }

    #[test]
    fn filter_rows_mask() {
        let a = t(vec![10.0, 20.0, 30.0, 40.0], &[4]);
        let m = Tensor::from_vec(vec![true, false, true, false], &[4]);
        assert_eq!(a.filter_rows(&m).to_vec(), vec![10.0, 30.0]);
        let none = Tensor::from_vec(vec![false; 4], &[4]);
        assert_eq!(a.filter_rows(&none).numel(), 0);
    }

    #[test]
    fn filter_rows_keeps_row_payloads() {
        // Filtering a [n, 2, 2] image column keeps whole images.
        let imgs = t((0..12).map(|i| i as f32).collect(), &[3, 2, 2]);
        let m = Tensor::from_vec(vec![false, true, false], &[3]);
        let f = imgs.filter_rows(&m);
        assert_eq!(f.shape(), &[1, 2, 2]);
        assert_eq!(f.to_vec(), vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn narrow_middle_dim() {
        let a = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let n = a.narrow(1, 1, 2);
        assert_eq!(n.shape(), &[2, 2, 4]);
        assert_eq!(n.get(&[0, 0, 0]), a.get(&[0, 1, 0]));
        assert_eq!(n.get(&[1, 1, 3]), a.get(&[1, 2, 3]));
    }

    #[test]
    fn gather_dim1() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let ix = Tensor::from_vec(vec![2i64, 0, 1, 1], &[2, 2]);
        let g = a.gather(1, &ix);
        assert_eq!(g.to_vec(), vec![3.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let base = Tensor::<f32>::zeros(&[3, 2]);
        let src = t(vec![1.0, 1.0, 2.0, 2.0, 4.0, 4.0], &[3, 2]);
        let out = base.scatter_add_rows(&idx(vec![1, 1, 0]), &src);
        assert_eq!(out.to_vec(), vec![4.0, 4.0, 3.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn segment_sum_grouped_totals() {
        let vals = t(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[5]);
        let segs = idx(vec![0, 1, 0, 2, 1]);
        let out = vals.segment_sum(&segs, 3);
        assert_eq!(out.to_vec(), vec![4.0, 7.0, 4.0]);
    }

    #[test]
    fn concat_and_stack() {
        let a = t(vec![1.0, 2.0], &[1, 2]);
        let b = t(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);

        let x = t(vec![1.0, 2.0], &[2]);
        let y = t(vec![3.0, 4.0], &[2]);
        let s = stack(&[&x, &y]);
        assert_eq!(s.shape(), &[2, 2]);

        let m1 = t(vec![1.0, 2.0], &[2, 1]);
        let m2 = t(vec![3.0, 4.0], &[2, 1]);
        let cc = concat(&[&m1, &m2], 1);
        assert_eq!(cc.shape(), &[2, 2]);
        assert_eq!(cc.to_vec(), vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn one_hot_rows() {
        let oh = one_hot(&idx(vec![1, 0, 2]), 3);
        assert_eq!(oh.shape(), &[3, 3]);
        assert_eq!(
            oh.to_vec(),
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        );
        // one-hot PE columns are exactly the bridge between exact and soft
        // group-by; each row must be a valid distribution.
        assert_eq!(oh.sum_dim(1, false).to_vec(), vec![1.0; 3]);
    }
}
