//! Dense linear algebra: matmul, batched matmul, and the row kernels every
//! vector hot path runs on.
//!
//! The matmul kernel is the hot path of the whole platform — group-by over
//! probability-encoded columns, dense layers, im2col convolution and the
//! CLIP-sim similarity kernel all lower to it. The implementation uses the
//! i-k-j loop order (unit-stride inner loop) and parallelises over row
//! blocks on the simulated accelerator. Zeros are not skipped: `0 · ∞` and
//! `0 · NaN` are NaN here exactly as in [`dot`].
//!
//! ## Row kernels
//!
//! [`dot`], [`sq_dist`] and [`dot_and_sq_norm`] reduce two equal-length
//! slices in [`LANES`] independent accumulators: element `i` is added into
//! lane `i % LANES`, in index order, and the lanes are then folded
//! pairwise, `((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))`. That
//! order is the summation-order contract: a row's result depends only on
//! the row and the other operand — never on the row's position, the
//! device, or how many threads the device runs. Independent lanes are
//! also what lets LLVM keep the sums in vector registers at the baseline
//! target, with no intrinsics. [`Tensor::dot`], [`Tensor::matvec`] (and so
//! `matmul` with a one-column right-hand side), [`Tensor::normalize_rows`],
//! the vector-index metrics and k-means all reduce through these kernels.

use crate::device::PAR_THRESHOLD;
use crate::element::{Float, Num};
use crate::tensor::Tensor;

/// Independent accumulators of the row kernels.
pub const LANES: usize = 8;

/// Fold the lanes of a row kernel: `((l0 + l4) + (l2 + l6)) + ((l1 + l5) +
/// (l3 + l7))` — halves first, then quarters, then the last pair, the
/// order a horizontal vector reduction takes.
#[inline(always)]
fn fold_lanes<T: Num>(l: [T; LANES]) -> T {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// `K` sums of `terms(a[i], b[i])` over equal-length slices, each in
/// [`LANES`] lanes folded by [`fold_lanes`].
#[inline(always)]
fn lane_sums<T: Num, const K: usize>(a: &[T], b: &[T], terms: impl Fn(T, T) -> [T; K]) -> [T; K] {
    assert_eq!(
        a.len(),
        b.len(),
        "row kernel length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    let mut acc = [[T::zero(); LANES]; K];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = ca.remainder().iter().zip(cb.remainder());
    for (x, y) in ca.zip(cb) {
        for l in 0..LANES {
            let t = terms(x[l], y[l]);
            for (lanes, v) in acc.iter_mut().zip(t) {
                lanes[l] += v;
            }
        }
    }
    for (l, (&x, &y)) in tail.enumerate() {
        for (lanes, v) in acc.iter_mut().zip(terms(x, y)) {
            lanes[l] += v;
        }
    }
    acc.map(fold_lanes)
}

/// `Σ a[i]·b[i]` over equal-length slices.
pub fn dot<T: Num>(a: &[T], b: &[T]) -> T {
    let [s] = lane_sums(a, b, |x, y| [x * y]);
    s
}

/// Squared Euclidean distance `Σ (a[i] − b[i])²` over equal-length
/// slices. Fused, so near-identical vectors keep their precision (no
/// `‖a‖² − 2a·b + ‖b‖²` cancellation) and the result is never negative.
pub fn sq_dist<T: Num>(a: &[T], b: &[T]) -> T {
    let [s] = lane_sums(a, b, |x, y| {
        let d = x - y;
        [d * d]
    });
    s
}

/// `(x·q, x·x)` in one pass over `x` — cosine scoring's dot product and
/// the row's squared norm.
pub fn dot_and_sq_norm<T: Num>(x: &[T], q: &[T]) -> (T, T) {
    let [d, n] = lane_sums(x, q, |x, q| [x * q, x * x]);
    (d, n)
}

impl<T: Float> Tensor<T> {
    /// Matrix product. `self` is `[m, k]`, `other` is `[k, n]`. A
    /// one-column right-hand side is [`Tensor::matvec`], bit for bit.
    pub fn matmul(&self, other: &Tensor<T>) -> Tensor<T> {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-d, got {:?}",
            self.shape()
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-d, got {:?}",
            other.shape()
        );
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(k, k2, "matmul inner dims: [{m},{k}] x [{k2},{n}]");
        if n == 1 {
            return self.matvec(&other.reshape(&[k])).reshape(&[m, 1]);
        }

        let device = self.device().combine(other.device());
        let a = self.data();
        let b = other.data();
        let mut out = vec![T::zero(); m * n];
        device.fill_rows(&mut out, m, PAR_THRESHOLD, |i, orow| {
            let arow = &a[i * k..(i + 1) * k];
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        });
        Tensor::from_vec(out, &[m, n]).to(device)
    }

    /// Batched matmul: `[b, m, k] x [b, k, n] -> [b, m, n]`.
    pub fn bmm(&self, other: &Tensor<T>) -> Tensor<T> {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-d");
        assert_eq!(other.ndim(), 3, "bmm rhs must be 3-d");
        let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        assert_eq!(other.shape()[0], b, "bmm batch mismatch");
        assert_eq!(other.shape()[1], k, "bmm inner dim mismatch");
        let n = other.shape()[2];
        let mut out = Vec::with_capacity(b * m * n);
        for i in 0..b {
            out.extend_from_slice(self.row(i).matmul(&other.row(i)).data());
        }
        Tensor::from_vec(out, &[b, m, n]).to(self.device().combine(other.device()))
    }

    /// Inner product of two 1-d tensors, through the [`dot`] row kernel.
    pub fn dot(&self, other: &Tensor<T>) -> T {
        assert_eq!(self.ndim(), 1, "dot lhs must be 1-d");
        assert_eq!(self.shape(), other.shape(), "dot length mismatch");
        dot(self.data(), other.data())
    }

    /// Matrix-vector product: `[m, k] x [k] -> [m]`, one [`dot`] per row.
    pub fn matvec(&self, v: &Tensor<T>) -> Tensor<T> {
        assert_eq!(v.ndim(), 1, "matvec rhs must be 1-d");
        assert_eq!(self.ndim(), 2, "matvec lhs must be 2-d");
        assert_eq!(
            self.shape()[1],
            v.numel(),
            "matvec inner dims: {:?} x {:?}",
            self.shape(),
            v.shape()
        );
        let device = self.device().combine(v.device());
        let v = v.data();
        self.to(device).map_rows(|row| dot(row, v))
    }

    /// `f(row)` for every row of a `[n, d]` matrix, as a `[n]` tensor on
    /// the same device. Rows are split into contiguous blocks across the
    /// device's lanes; each row is computed whole by one lane, so the bits
    /// do not depend on the lane count.
    pub fn map_rows(&self, f: impl Fn(&[T]) -> T + Sync) -> Tensor<T> {
        assert_eq!(self.ndim(), 2, "map_rows needs a matrix");
        let (n, d) = (self.shape()[0], self.shape()[1]);
        let data = self.data();
        let mut out = vec![T::zero(); n];
        self.device()
            .fill_indexed(&mut out, |i| f(&data[i * d..(i + 1) * d]));
        Tensor::from_vec(out, &[n]).to(self.device())
    }

    /// Outer product of two 1-d tensors: `[m] x [n] -> [m, n]`.
    pub fn outer(&self, other: &Tensor<T>) -> Tensor<T> {
        assert_eq!(self.ndim(), 1, "outer lhs must be 1-d");
        assert_eq!(other.ndim(), 1, "outer rhs must be 1-d");
        self.reshape(&[self.numel(), 1])
            .matmul(&other.reshape(&[1, other.numel()]))
    }

    /// Row-wise L2 normalisation of a `[n, d]` matrix (unit embeddings for
    /// cosine similarity). Each row is divided by `max(‖row‖, eps)`, so a
    /// zero row stays zero.
    pub fn normalize_rows(&self, eps: f64) -> Tensor<T> {
        assert_eq!(self.ndim(), 2, "normalize_rows needs a matrix");
        let norms = self
            .map_rows(|row| dot(row, row))
            .map(|v| T::from_f64(v.to_f64().sqrt().max(eps)));
        self.div(&norms.reshape(&[self.shape()[0], 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PAR_THRESHOLD;
    use crate::Device;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn matmul_small() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(a.matmul(&b).to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular_and_identity() {
        let a = t((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let i3 = Tensor::<f32>::eye(3);
        assert_eq!(a.matmul(&i3).to_vec(), a.to_vec());
        let b = t((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 4]);
        // c[1,2] = 3*2 + 4*6 + 5*10 = 80
        assert_eq!(c.get(&[1, 2]), 80.0);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch() {
        t(vec![0.0; 6], &[2, 3]).matmul(&t(vec![0.0; 8], &[2, 4]));
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Enough rows to take the parallel branch.
        let m = PAR_THRESHOLD + 3;
        let k = 12;
        let n = 7;
        let mut rng = crate::Rng64::new(1);
        let a = Tensor::<f32>::randn(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::<f32>::randn(&[k, n], 0.0, 1.0, &mut rng);
        let cpu = a.matmul(&b);
        let acc = a.to(Device::Accel(4)).matmul(&b);
        assert!(cpu.allclose(&acc, 1e-5));
        assert!(acc.device().is_accel());
    }

    #[test]
    fn bmm_batches_independently() {
        let a = t((0..8).map(|i| i as f32).collect(), &[2, 2, 2]);
        let b = Tensor::<f32>::eye(2)
            .reshape(&[1, 2, 2])
            .broadcast_to(&[2, 2, 2]);
        assert_eq!(a.bmm(&b).to_vec(), a.to_vec());
    }

    #[test]
    fn dot_matvec_outer() {
        let x = t(vec![1.0, 2.0, 3.0], &[3]);
        let y = t(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(x.dot(&y), 32.0);
        let m = t(vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0], &[2, 3]);
        assert_eq!(m.matvec(&x).to_vec(), vec![1.0, 4.0]);
        let o = t(vec![1.0, 2.0], &[2]).outer(&t(vec![3.0, 4.0], &[2]));
        assert_eq!(o.to_vec(), vec![3.0, 4.0, 6.0, 8.0]);
    }

    fn randn(n: usize, seed: u64) -> Vec<f32> {
        Tensor::<f32>::randn(&[n], 0.0, 1.0, &mut crate::Rng64::new(seed)).to_vec()
    }

    #[test]
    fn row_kernels_match_an_f64_reference_at_every_tail_length() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let a = randn(len, 1 + len as u64);
            let b = randn(len, 100 + len as u64);
            let pairs = || {
                a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| (f64::from(x), f64::from(y)))
            };
            // Mixed signs cancel, so the dot is held to the scale of Σ|a·b|.
            let dot_ref: f64 = pairs().map(|(x, y)| x * y).sum();
            let dot_scale: f64 = pairs().map(|(x, y)| (x * y).abs()).sum();
            let dist_ref: f64 = pairs().map(|(x, y)| (x - y) * (x - y)).sum();
            let got = f64::from(dot(&a, &b));
            assert!(
                (got - dot_ref).abs() <= 1e-6 * dot_scale,
                "dot, len {len}: {got} vs {dot_ref}"
            );
            let got = f64::from(sq_dist(&a, &b));
            assert!(
                (got - dist_ref).abs() <= 1e-6 * dist_ref,
                "sq_dist, len {len}: {got} vs {dist_ref}"
            );
            let (d, n) = dot_and_sq_norm(&a, &b);
            assert_eq!(d.to_bits(), dot(&a, &b).to_bits(), "len {len}");
            assert_eq!(n.to_bits(), dot(&a, &a).to_bits(), "len {len}");
        }
        assert_eq!(dot::<f32>(&[], &[]), 0.0);
        assert_eq!(sq_dist::<f32>(&[], &[]), 0.0);
    }

    #[test]
    fn row_kernels_sum_in_the_documented_lane_order() {
        // Element i goes to lane i % LANES in index order; the lanes fold
        // ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
        for len in [9usize, 23, 65] {
            let a = randn(len, 7);
            let b = randn(len, 8);
            let mut lanes = [0.0f32; LANES];
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                lanes[i % LANES] += x * y;
            }
            let l = lanes;
            let want = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
            assert_eq!(dot(&a, &b).to_bits(), want.to_bits(), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn row_kernels_refuse_unequal_lengths() {
        dot(&[1.0f32, 2.0], &[1.0]);
    }

    #[test]
    fn matvec_is_a_dot_per_row_and_matmul_one_column_is_matvec() {
        let (m, k) = (37, 65);
        let a = t(randn(m * k, 3), &[m, k]);
        let v = t(randn(k, 4), &[k]);
        let got = a.matvec(&v);
        for (i, &g) in got.data().iter().enumerate() {
            let want = dot(&a.data()[i * k..(i + 1) * k], v.data());
            assert_eq!(g.to_bits(), want.to_bits(), "row {i}");
        }
        let col = a.matmul(&v.reshape(&[k, 1]));
        assert_eq!(col.shape(), &[m, 1]);
        let bits = |x: &Tensor<f32>| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&col), bits(&got));
    }

    #[test]
    fn matvec_bits_do_not_depend_on_the_device() {
        let (m, k) = (PAR_THRESHOLD + 5, 9);
        let a = t(randn(m * k, 5), &[m, k]);
        let v = t(randn(k, 6), &[k]);
        let cpu = a.matvec(&v);
        let acc = a.to(Device::Accel(3)).matvec(&v);
        assert!(acc.device().is_accel());
        let bits = |x: &Tensor<f32>| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cpu), bits(&acc));
    }

    #[test]
    fn matmul_matvec_and_dot_agree_on_non_finite_input() {
        // 0·∞ and 0·NaN are NaN: no product is skipped because one factor
        // is zero.
        for bad in [f32::INFINITY, f32::NAN] {
            let x = t(vec![0.0, 1.0], &[2]);
            let y = t(vec![bad, 1.0], &[2]);
            let d = x.dot(&y);
            let mv = x.reshape(&[1, 2]).matvec(&y).data()[0];
            let mm = x.reshape(&[1, 2]).matmul(&y.reshape(&[2, 1])).data()[0];
            assert!(d.is_nan(), "dot of 0·{bad} gave {d}");
            assert_eq!(mv.to_bits(), d.to_bits());
            assert_eq!(mm.to_bits(), d.to_bits());
            // The general (multi-column) kernel does not skip zeros either.
            let wide = x
                .reshape(&[1, 2])
                .matmul(&t(vec![bad, 2.0, 1.0, 3.0], &[2, 2]));
            assert!(wide.data()[0].is_nan(), "{:?}", wide.to_vec());
            assert_eq!(wide.data()[1], 3.0);
        }
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let m = t(vec![3.0, 4.0, 0.0, 5.0], &[2, 2]).normalize_rows(1e-12);
        for r in 0..2 {
            let n: f32 = (0..2).map(|c| m.get(&[r, c]).powi(2)).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn soft_groupby_shape_identity() {
        // The PE group-by kernel is A^T B; verify on one-hot inputs it
        // reduces to an exact contingency table.
        let digit = t(
            vec![
                1.0, 0.0, 0.0, // row 0 -> class 0
                0.0, 0.0, 1.0, // row 1 -> class 2
                0.0, 0.0, 1.0, // row 2 -> class 2
            ],
            &[3, 3],
        );
        let size = t(
            vec![
                1.0, 0.0, // small
                0.0, 1.0, // large
                0.0, 1.0, // large
            ],
            &[3, 2],
        );
        let counts = digit.transpose().matmul(&size);
        assert_eq!(counts.shape(), &[3, 2]);
        assert_eq!(counts.get(&[0, 0]), 1.0);
        assert_eq!(counts.get(&[2, 1]), 2.0);
        assert_eq!(counts.sum(), 3.0);
    }
}
