//! Reduction kernels: full and per-dimension sums, means, extrema, argmax.

use crate::element::{Element, Float, Num};
use crate::tensor::Tensor;

impl<T: Num> Tensor<T> {
    /// Sum of all elements.
    pub fn sum(&self) -> T {
        let mut acc = T::zero();
        for &v in self.data() {
            acc += v;
        }
        acc
    }

    /// Mean of all elements (in f64 to avoid f32 drift on large tensors).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        self.data().iter().map(|v| v.to_f64()).sum::<f64>() / self.numel() as f64
    }

    /// Largest element. Panics on an empty tensor.
    pub fn max_all(&self) -> T {
        assert!(!self.is_empty(), "max of empty tensor");
        let mut m = T::min_value();
        for &v in self.data() {
            if v > m {
                m = v;
            }
        }
        m
    }

    /// Smallest element. Panics on an empty tensor.
    pub fn min_all(&self) -> T {
        assert!(!self.is_empty(), "min of empty tensor");
        let mut m = T::max_value();
        for &v in self.data() {
            if v < m {
                m = v;
            }
        }
        m
    }

    /// Flat index of the largest element.
    pub fn argmax_flat(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0usize;
        let d = self.data();
        for i in 1..d.len() {
            if d[i] > d[best] {
                best = i;
            }
        }
        best
    }

    /// Reduce one dimension with `+`. `keepdim` keeps a size-1 axis.
    pub fn sum_dim(&self, dim: usize, keepdim: bool) -> Tensor<T> {
        self.reduce_dim(dim, keepdim, T::zero(), |acc, v| acc + v)
    }

    /// Mean along one dimension.
    pub fn mean_dim(&self, dim: usize, keepdim: bool) -> Tensor<T> {
        let n = self.shape()[dim];
        let s = self.sum_dim(dim, keepdim);
        s.map(move |v| T::from_f64(v.to_f64() / n as f64))
    }

    /// Maximum along one dimension.
    pub fn max_dim(&self, dim: usize, keepdim: bool) -> Tensor<T> {
        self.reduce_dim(
            dim,
            keepdim,
            T::min_value(),
            |acc, v| if v > acc { v } else { acc },
        )
    }

    /// Minimum along one dimension.
    pub fn min_dim(&self, dim: usize, keepdim: bool) -> Tensor<T> {
        self.reduce_dim(
            dim,
            keepdim,
            T::max_value(),
            |acc, v| if v < acc { v } else { acc },
        )
    }

    /// Index of the maximum along one dimension.
    pub fn argmax_dim(&self, dim: usize) -> Tensor<i64> {
        let (outer, reduce, inner) = self.split_at_dim(dim);
        let d = self.data();
        let mut out = vec![0i64; outer * inner];
        for o in 0..outer {
            for i in 0..inner {
                let mut best = 0usize;
                let mut best_v = d[o * reduce * inner + i];
                for r in 1..reduce {
                    let v = d[(o * reduce + r) * inner + i];
                    if v > best_v {
                        best_v = v;
                        best = r;
                    }
                }
                out[o * inner + i] = best as i64;
            }
        }
        let mut dims = self.shape().to_vec();
        dims.remove(dim);
        Tensor::from_vec(out, &dims).to(self.device())
    }

    /// Cumulative sum along one dimension.
    pub fn cumsum(&self, dim: usize) -> Tensor<T> {
        let (outer, reduce, inner) = self.split_at_dim(dim);
        let d = self.data();
        let mut out = vec![T::zero(); d.len()];
        for o in 0..outer {
            for i in 0..inner {
                let mut acc = T::zero();
                for r in 0..reduce {
                    let idx = (o * reduce + r) * inner + i;
                    acc += d[idx];
                    out[idx] = acc;
                }
            }
        }
        Tensor::from_vec(out, self.shape()).to(self.device())
    }

    fn reduce_dim(
        &self,
        dim: usize,
        keepdim: bool,
        init: T,
        f: impl Fn(T, T) -> T + Sync,
    ) -> Tensor<T> {
        let (outer, reduce, inner) = self.split_at_dim(dim);
        let d = self.data();
        let mut out = vec![init; outer * inner];
        self.device().fill_indexed(&mut out, |flat| {
            let o = flat / inner;
            let i = flat % inner;
            let mut acc = init;
            for r in 0..reduce {
                acc = f(acc, d[(o * reduce + r) * inner + i]);
            }
            acc
        });
        let mut dims = self.shape().to_vec();
        if keepdim {
            dims[dim] = 1;
        } else {
            dims.remove(dim);
        }
        Tensor::from_vec(out, &dims).to(self.device())
    }

    /// Decompose the shape around `dim` as (outer, len(dim), inner).
    fn split_at_dim(&self, dim: usize) -> (usize, usize, usize) {
        assert!(
            dim < self.ndim(),
            "reduce dim {dim} out of range for rank {}",
            self.ndim()
        );
        let dims = self.shape();
        let outer: usize = dims[..dim].iter().product();
        let inner: usize = dims[dim + 1..].iter().product();
        (outer, dims[dim], inner)
    }
}

impl<T: Float> Tensor<T> {
    /// Numerically-stable softmax along `dim`.
    pub fn softmax(&self, dim: usize) -> Tensor<T> {
        let max = self.max_dim(dim, true);
        let shifted = self.sub(&max);
        let e = shifted.map(T::exp);
        let denom = e.sum_dim(dim, true);
        e.div(&denom)
    }

    /// Numerically-stable log-softmax along `dim`.
    pub fn log_softmax(&self, dim: usize) -> Tensor<T> {
        let max = self.max_dim(dim, true);
        let shifted = self.sub(&max);
        let lse = shifted.map(T::exp).sum_dim(dim, true).map(T::ln);
        shifted.sub(&lse)
    }

    /// Euclidean (L2) norm of the whole tensor.
    pub fn norm(&self) -> f64 {
        self.data()
            .iter()
            .map(|v| v.to_f64() * v.to_f64())
            .sum::<f64>()
            .sqrt()
    }
}

impl<T: Element> Tensor<T> {
    /// Count of elements equal to `v`.
    pub fn count_eq(&self, v: T) -> usize {
        self.data().iter().filter(|&&x| x == v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn full_reductions() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max_all(), 4.0);
        assert_eq!(a.min_all(), 1.0);
        assert_eq!(a.argmax_flat(), 3);
    }

    #[test]
    fn sum_dim_matrix() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum_dim(0, false).to_vec(), vec![5.0, 7.0, 9.0]);
        assert_eq!(a.sum_dim(1, false).to_vec(), vec![6.0, 15.0]);
        assert_eq!(a.sum_dim(1, true).shape(), &[2, 1]);
        assert_eq!(a.mean_dim(1, false).to_vec(), vec![2.0, 5.0]);
    }

    #[test]
    fn sum_dim_3d_middle() {
        let a = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let s = a.sum_dim(1, false);
        assert_eq!(s.shape(), &[2, 4]);
        // Element (0,0) = a[0,0,0]+a[0,1,0]+a[0,2,0] = 0+4+8
        assert_eq!(s.get(&[0, 0]), 12.0);
        assert_eq!(s.get(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn extrema_dims_and_argmax() {
        let a = t(vec![1.0, 9.0, 3.0, 7.0, 5.0, 2.0], &[2, 3]);
        assert_eq!(a.max_dim(1, false).to_vec(), vec![9.0, 7.0]);
        assert_eq!(a.min_dim(0, false).to_vec(), vec![1.0, 5.0, 2.0]);
        assert_eq!(a.argmax_dim(1).to_vec(), vec![1, 0]);
        assert_eq!(a.argmax_dim(0).to_vec(), vec![1, 0, 0]);
    }

    #[test]
    fn cumsum_rows() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.cumsum(1).to_vec(), vec![1.0, 3.0, 3.0, 7.0]);
        assert_eq!(a.cumsum(0).to_vec(), vec![1.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = t(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = a.softmax(1);
        for r in 0..2 {
            let row_sum: f32 = (0..3).map(|c| s.get(&[r, c])).sum();
            assert!((row_sum - 1.0).abs() < 1e-5, "row {r} sums to {row_sum}");
        }
        assert!(s.all_finite(), "softmax must be stable for large inputs");
        assert!(s.get(&[0, 2]) > s.get(&[0, 0]));
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let a = t(vec![0.5, -1.0, 2.0], &[1, 3]);
        let ls = a.log_softmax(1);
        let ref_ = a.softmax(1).ln();
        assert!(ls.allclose(&ref_, 1e-5));
    }

    #[test]
    fn norm_and_counts() {
        let a = t(vec![3.0, 4.0], &[2]);
        assert!((a.norm() - 5.0).abs() < 1e-9);
        let m = Tensor::from_vec(vec![1i64, 2, 2, 3], &[4]);
        assert_eq!(m.count_eq(2), 2);
    }

    #[test]
    fn integer_reductions() {
        let a = Tensor::from_vec(vec![5i64, -2, 7], &[3]);
        assert_eq!(a.sum(), 10);
        assert_eq!(a.max_all(), 7);
        assert_eq!(a.min_all(), -2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reduce_bad_dim_panics() {
        t(vec![0.0; 4], &[2, 2]).sum_dim(2, false);
    }
}
