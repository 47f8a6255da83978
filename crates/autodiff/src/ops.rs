//! Differentiable tensor operations on [`Var`].
//!
//! Each op computes the forward value eagerly with `tdp-tensor` kernels and
//! records a backward closure. Binary arithmetic is broadcast-aware: the
//! backward pass sums gradients over broadcast dimensions so parameters of
//! any shape (biases, thresholds, per-class scales) train correctly.

use tdp_tensor::conv::{col2im, im2col, Conv2dGeom};
use tdp_tensor::index::concat_rows as t_concat_rows;
use tdp_tensor::ops::broadcast_zip;
use tdp_tensor::{F32Tensor, I64Tensor, Tensor};

use crate::var::Var;

/// Sum `g` down to `shape`, undoing NumPy-style broadcasting. The inverse of
/// `broadcast_to` in the adjoint sense.
pub fn reduce_to_shape(g: &F32Tensor, shape: &[usize]) -> F32Tensor {
    if g.shape() == shape {
        return g.clone();
    }
    let mut cur = g.clone();
    // Collapse leading extra dims.
    while cur.ndim() > shape.len() {
        cur = cur.sum_dim(0, false);
    }
    // Sum dims where the target is 1 but the gradient is larger.
    #[allow(clippy::needless_range_loop)] // d indexes two slices in lockstep
    for d in 0..shape.len() {
        if shape[d] == 1 && cur.shape()[d] != 1 {
            cur = cur.sum_dim(d, true);
        }
    }
    assert_eq!(cur.shape(), shape, "gradient not reducible to target shape");
    cur
}

impl Var {
    // ------------------------------------------------------------------
    // Binary arithmetic (broadcasting)
    // ------------------------------------------------------------------

    pub fn add(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let value = self.value().add(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| vec![reduce_to_shape(g, &sa), reduce_to_shape(g, &sb)]),
        )
    }

    pub fn sub(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let value = self.value().sub(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| vec![reduce_to_shape(g, &sa), reduce_to_shape(&g.neg(), &sb)]),
        )
    }

    pub fn mul(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let (av, bv) = (self.value(), other.value());
        let value = av.mul(&bv);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                vec![
                    reduce_to_shape(&g.mul(&bv), &sa),
                    reduce_to_shape(&g.mul(&av), &sb),
                ]
            }),
        )
    }

    pub fn div(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let (av, bv) = (self.value(), other.value());
        let value = av.div(&bv);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                let ga = g.div(&bv);
                // d/db (a/b) = -a / b^2
                let gb = g.mul(&av).div(&bv.mul(&bv)).neg();
                vec![reduce_to_shape(&ga, &sa), reduce_to_shape(&gb, &sb)]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Scalar arithmetic
    // ------------------------------------------------------------------

    pub fn add_scalar(&self, v: f32) -> Var {
        Var::from_op(
            self.value().add_scalar(v),
            vec![self.clone()],
            Box::new(move |g| vec![g.clone()]),
        )
    }

    pub fn sub_scalar(&self, v: f32) -> Var {
        self.add_scalar(-v)
    }

    pub fn mul_scalar(&self, v: f32) -> Var {
        Var::from_op(
            self.value().mul_scalar(v),
            vec![self.clone()],
            Box::new(move |g| vec![g.mul_scalar(v)]),
        )
    }

    pub fn div_scalar(&self, v: f32) -> Var {
        self.mul_scalar(1.0 / v)
    }

    pub fn neg(&self) -> Var {
        self.mul_scalar(-1.0)
    }

    // ------------------------------------------------------------------
    // Unary maps
    // ------------------------------------------------------------------

    pub fn relu(&self) -> Var {
        let v = self.value();
        let mask = v.gt_scalar(0.0).to_f32_mask();
        Var::from_op(
            v.relu(),
            vec![self.clone()],
            Box::new(move |g| vec![g.mul(&mask)]),
        )
    }

    pub fn sigmoid(&self) -> Var {
        let s = self.value().sigmoid();
        let s2 = s.clone();
        Var::from_op(
            s,
            vec![self.clone()],
            // σ' = σ·(1 − σ), in one pass over the gradient.
            Box::new(move |g| vec![broadcast_zip(g, &s2, |g, s| g * s * (-s + 1.0))]),
        )
    }

    pub fn tanh(&self) -> Var {
        let t = self.value().tanh_t();
        let t2 = t.clone();
        Var::from_op(
            t,
            vec![self.clone()],
            Box::new(move |g| {
                let d = t2.mul(&t2).neg().add_scalar(1.0);
                vec![g.mul(&d)]
            }),
        )
    }

    pub fn exp(&self) -> Var {
        let e = Tensor::exp(&self.value());
        let e2 = e.clone();
        Var::from_op(e, vec![self.clone()], Box::new(move |g| vec![g.mul(&e2)]))
    }

    pub fn ln(&self) -> Var {
        let v = self.value();
        Var::from_op(
            Tensor::ln(&v),
            vec![self.clone()],
            Box::new(move |g| vec![g.div(&v)]),
        )
    }

    pub fn sqrt(&self) -> Var {
        let r = self.value().sqrt();
        let r2 = r.clone();
        Var::from_op(
            r,
            vec![self.clone()],
            Box::new(move |g| vec![g.div(&r2.mul_scalar(2.0))]),
        )
    }

    /// Elementwise square — common enough in losses to deserve a fused op.
    pub fn square(&self) -> Var {
        let v = self.value();
        Var::from_op(
            v.mul(&v),
            vec![self.clone()],
            Box::new(move |g| vec![g.mul(&v.mul_scalar(2.0))]),
        )
    }

    pub fn abs(&self) -> Var {
        let v = self.value();
        let sign = v.map(|x| if x >= 0.0 { 1.0f32 } else { -1.0 });
        Var::from_op(
            v.abs(),
            vec![self.clone()],
            Box::new(move |g| vec![g.mul(&sign)]),
        )
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    pub fn reshape(&self, shape: &[usize]) -> Var {
        let orig = self.shape();
        Var::from_op(
            self.value().reshape(shape),
            vec![self.clone()],
            Box::new(move |g| vec![g.reshape(&orig)]),
        )
    }

    pub fn flatten(&self) -> Var {
        let n = self.numel();
        self.reshape(&[n])
    }

    pub fn permute(&self, dims: &[usize]) -> Var {
        let dims_v = dims.to_vec();
        let mut inverse = vec![0usize; dims.len()];
        for (i, &d) in dims.iter().enumerate() {
            inverse[d] = i;
        }
        Var::from_op(
            self.value().permute(&dims_v),
            vec![self.clone()],
            Box::new(move |g| vec![g.permute(&inverse)]),
        )
    }

    pub fn transpose(&self) -> Var {
        self.permute(&[1, 0])
    }

    pub fn broadcast_to(&self, shape: &[usize]) -> Var {
        let orig = self.shape();
        Var::from_op(
            self.value().broadcast_to(shape),
            vec![self.clone()],
            Box::new(move |g| vec![reduce_to_shape(g, &orig)]),
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, as a scalar-shaped Var.
    pub fn sum(&self) -> Var {
        let shape = self.shape();
        let total = self.value().sum();
        Var::from_op(
            Tensor::scalar(total),
            vec![self.clone()],
            Box::new(move |g| vec![Tensor::full(&shape, g.item())]),
        )
    }

    /// Mean of all elements, as a scalar-shaped Var.
    pub fn mean(&self) -> Var {
        let n = self.numel() as f32;
        self.sum().div_scalar(n)
    }

    pub fn sum_dim(&self, dim: usize, keepdim: bool) -> Var {
        let orig = self.shape();
        Var::from_op(
            self.value().sum_dim(dim, keepdim),
            vec![self.clone()],
            Box::new(move |g| {
                // Re-expand the reduced axis and broadcast back.
                let mut with_axis = g.clone();
                if with_axis.ndim() < orig.len() {
                    with_axis = with_axis.unsqueeze(dim);
                }
                vec![with_axis.broadcast_to(&orig)]
            }),
        )
    }

    pub fn mean_dim(&self, dim: usize, keepdim: bool) -> Var {
        let n = self.shape()[dim] as f32;
        self.sum_dim(dim, keepdim).div_scalar(n)
    }

    // ------------------------------------------------------------------
    // Softmax family
    // ------------------------------------------------------------------

    pub fn softmax(&self, dim: usize) -> Var {
        let s = self.value().softmax(dim);
        let s2 = s.clone();
        Var::from_op(
            s,
            vec![self.clone()],
            Box::new(move |g| {
                // dx = s ⊙ (g − ⟨g, s⟩ along dim)
                let inner = g.mul(&s2).sum_dim(dim, true);
                vec![s2.mul(&g.sub(&inner))]
            }),
        )
    }

    pub fn log_softmax(&self, dim: usize) -> Var {
        let ls = self.value().log_softmax(dim);
        let soft = Tensor::exp(&ls);
        Var::from_op(
            ls,
            vec![self.clone()],
            Box::new(move |g| {
                let gsum = g.sum_dim(dim, true);
                vec![g.sub(&soft.mul(&gsum))]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    pub fn matmul(&self, other: &Var) -> Var {
        let (av, bv) = (self.value(), other.value());
        let value = av.matmul(&bv);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                let ga = g.matmul(&bv.transpose());
                let gb = av.transpose().matmul(g);
                vec![ga, gb]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Convolution and pooling
    // ------------------------------------------------------------------

    /// Differentiable 2-d convolution; `self` is NCHW input, `weight` is
    /// `[o, c, kh, kw]`, optional `bias` `[o]`. Gradients flow to all three.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, stride: usize, pad: usize) -> Var {
        let input_v = self.value();
        let weight_v = weight.value();
        let (n, c, h, w) = (
            input_v.shape()[0],
            input_v.shape()[1],
            input_v.shape()[2],
            input_v.shape()[3],
        );
        let (o, kh, kw) = (
            weight_v.shape()[0],
            weight_v.shape()[2],
            weight_v.shape()[3],
        );
        let g = Conv2dGeom::new(kh, kw, stride, pad);
        let (oh, ow) = g.out_size(h, w);

        let cols = im2col(&input_v, g); // [n*oh*ow, c*kh*kw]
        let wmat = weight_v.reshape(&[o, c * kh * kw]); // [o, ckk]
        let mut out = cols.matmul(&wmat.transpose()); // [n*oh*ow, o]
        if let Some(b) = bias {
            out = out.add(&b.value().reshape(&[1, o]));
        }
        let value = out.reshape(&[n, oh, ow, o]).permute(&[0, 3, 1, 2]);

        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        let has_bias = bias.is_some();
        Var::from_op(
            value,
            parents,
            Box::new(move |grad| {
                // [n, o, oh, ow] -> [n*oh*ow, o]
                let gmat = grad.permute(&[0, 2, 3, 1]).reshape(&[n * oh * ow, o]);
                let d_w = gmat.transpose().matmul(&cols).reshape(&[o, c, kh, kw]);
                let d_cols = gmat.matmul(&wmat); // [n*oh*ow, ckk]
                let d_x = col2im(&d_cols, n, c, h, w, g);
                let mut grads = vec![d_x, d_w];
                if has_bias {
                    grads.push(gmat.sum_dim(0, false));
                }
                grads
            }),
        )
    }

    /// Differentiable max pooling (kernel `k`, stride `stride`).
    pub fn max_pool2d(&self, k: usize, stride: usize) -> Var {
        let input_v = self.value();
        let (n, c, h, w) = (
            input_v.shape()[0],
            input_v.shape()[1],
            input_v.shape()[2],
            input_v.shape()[3],
        );
        let (vals, idx) = input_v.max_pool2d(k, stride);
        let (oh, ow) = (vals.shape()[2], vals.shape()[3]);
        Var::from_op(
            vals,
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; n * c * h * w];
                let gd = g.data();
                let id = idx.data();
                for bc in 0..n * c {
                    for p in 0..oh * ow {
                        let flat = bc * oh * ow + p;
                        dx[bc * h * w + id[flat] as usize] += gd[flat];
                    }
                }
                vec![Tensor::from_vec(dx, &[n, c, h, w])]
            }),
        )
    }

    /// Global average pooling `[n, c, h, w] -> [n, c]`.
    pub fn global_avg_pool(&self) -> Var {
        let s = self.shape();
        assert_eq!(s.len(), 4, "global_avg_pool expects NCHW");
        self.reshape(&[s[0], s[1], s[2] * s[3]]).mean_dim(2, false)
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Differentiable row gather: output row i is input row `idx[i]`.
    /// Backward scatter-adds, so repeated rows accumulate gradient.
    pub fn select_rows(&self, idx: &I64Tensor) -> Var {
        let orig = self.shape();
        let idx2 = idx.clone();
        Var::from_op(
            self.value().select_rows(idx),
            vec![self.clone()],
            Box::new(move |g| vec![F32Tensor::zeros(&orig).scatter_add_rows(&idx2, g)]),
        )
    }

    /// Contiguous sub-range along a dimension (differentiable).
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Var {
        let orig = self.shape();
        Var::from_op(
            self.value().narrow(dim, start, len),
            vec![self.clone()],
            Box::new(move |g| {
                // Pad the gradient back with zeros around the window.
                let mut full = F32Tensor::zeros(&orig);
                let outer: usize = orig[..dim].iter().product();
                let inner: usize = orig[dim + 1..].iter().product();
                let gd = g.data().to_vec();
                let fd = full.data_mut();
                for o in 0..outer {
                    for l in 0..len {
                        let src = (o * len + l) * inner;
                        let dst = (o * orig[dim] + start + l) * inner;
                        fd[dst..dst + inner].copy_from_slice(&gd[src..src + inner]);
                    }
                }
                vec![full]
            }),
        )
    }

    /// Concatenate along the leading dimension (differentiable).
    pub fn concat_rows(parts: &[&Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero Vars");
        let values: Vec<F32Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&F32Tensor> = values.iter().collect();
        let value = t_concat_rows(&refs);
        let row_counts: Vec<usize> = values.iter().map(|v| v.rows()).collect();
        Var::from_op(
            value,
            parts.iter().map(|p| (*p).clone()).collect(),
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(row_counts.len());
                let mut start = 0usize;
                for &rc in &row_counts {
                    grads.push(g.narrow(0, start, rc));
                    start += rc;
                }
                grads
            }),
        )
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean-squared error against a constant target.
    pub fn mse_loss(&self, target: &F32Tensor) -> Var {
        let t = Var::constant(target.clone());
        self.sub(&t).square().mean()
    }

    /// Cross-entropy with integer class targets; `self` is `[n, classes]`
    /// logits. Uses the log-softmax lowering.
    pub fn cross_entropy(&self, targets: &I64Tensor) -> Var {
        let n = self.shape()[0];
        let classes = self.shape()[1];
        assert_eq!(targets.numel(), n, "one target per row");
        let onehot = tdp_tensor::index::one_hot(targets, classes);
        let ls = self.log_softmax(1);
        ls.mul(&Var::constant(onehot))
            .sum()
            .div_scalar(n as f32)
            .neg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use tdp_tensor::Rng64;

    fn v(data: Vec<f32>, shape: &[usize]) -> Var {
        Var::param(Tensor::from_vec(data, shape))
    }

    #[test]
    fn reduce_to_shape_handles_broadcast_axes() {
        let g = Tensor::from_vec(vec![1.0f32; 6], &[2, 3]);
        assert_eq!(reduce_to_shape(&g, &[2, 3]).shape(), &[2, 3]);
        assert_eq!(reduce_to_shape(&g, &[3]).to_vec(), vec![2.0, 2.0, 2.0]);
        assert_eq!(reduce_to_shape(&g, &[2, 1]).to_vec(), vec![3.0, 3.0]);
        assert_eq!(reduce_to_shape(&g, &[1, 3]).to_vec(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn broadcast_add_bias_gradient() {
        // [2,3] + [3] — the classic dense-layer bias pattern.
        let x = v(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = v(vec![0.1, 0.2, 0.3], &[3]);
        let y = x.add(&b).sum();
        y.backward();
        assert_eq!(b.grad().unwrap().to_vec(), vec![2.0, 2.0, 2.0]);
        assert_eq!(x.grad().unwrap().to_vec(), vec![1.0; 6]);
    }

    #[test]
    fn mul_div_gradients() {
        let a = v(vec![2.0], &[1]);
        let b = v(vec![4.0], &[1]);
        let y = a.mul(&b).div(&a.add_scalar(2.0)); // y = 2*4/(2+2) = 2
        y.backward();
        assert!((y.value().item() - 2.0).abs() < 1e-6);
        // Finite-difference verify both parameters.
        check_gradients(
            &[vec![2.0], vec![4.0]],
            &[vec![1], vec![1]],
            |vars| vars[0].mul(&vars[1]).div(&vars[0].add_scalar(2.0)),
            1e-2,
        );
    }

    #[test]
    fn matmul_gradient_matches_finite_difference() {
        let mut rng = Rng64::new(5);
        let a: Vec<f32> = (0..6).map(|_| rng.normal() as f32).collect();
        let b: Vec<f32> = (0..12).map(|_| rng.normal() as f32).collect();
        check_gradients(
            &[a, b],
            &[vec![2, 3], vec![3, 4]],
            |vars| vars[0].matmul(&vars[1]).sum(),
            1e-2,
        );
    }

    #[test]
    fn unary_gradients_match_finite_difference() {
        let xs = vec![0.5f32, -1.25, 2.0, 0.1];
        for f in [
            (|v: &Var| v.sigmoid().sum()) as fn(&Var) -> Var,
            |v| v.tanh().sum(),
            |v| v.exp().sum(),
            |v| v.square().sum(),
            |v| v.relu().sum(),
            |v| v.abs().sum(),
        ] {
            check_gradients(
                std::slice::from_ref(&xs),
                &[vec![4]],
                |vars| f(&vars[0]),
                1e-2,
            );
        }
        // ln and sqrt need positive inputs.
        let pos = vec![0.5f32, 1.25, 2.0, 0.1];
        check_gradients(
            std::slice::from_ref(&pos),
            &[vec![4]],
            |vars| vars[0].ln().sum(),
            1e-2,
        );
        check_gradients(&[pos], &[vec![4]], |vars| vars[0].sqrt().sum(), 1e-2);
    }

    #[test]
    fn softmax_gradient() {
        let xs = vec![0.2f32, -0.4, 1.1, 0.0, 0.7, -1.0];
        check_gradients(
            std::slice::from_ref(&xs),
            &[vec![2, 3]],
            |vars| {
                // weighted sum so the gradient is not trivially zero
                let w = Var::constant(Tensor::from_vec(
                    vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    &[2, 3],
                ));
                vars[0].softmax(1).mul(&w).sum()
            },
            1e-2,
        );
        check_gradients(
            &[xs],
            &[vec![2, 3]],
            |vars| {
                let w = Var::constant(Tensor::from_vec(
                    vec![0.5, -1.0, 2.0, 1.0, 0.0, -0.5],
                    &[2, 3],
                ));
                vars[0].log_softmax(1).mul(&w).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn reductions_and_reshape_gradients() {
        let xs: Vec<f32> = (0..12).map(|i| i as f32 / 3.0 - 2.0).collect();
        check_gradients(
            std::slice::from_ref(&xs),
            &[vec![3, 4]],
            |vars| vars[0].sum_dim(0, false).square().sum(),
            1e-2,
        );
        check_gradients(
            std::slice::from_ref(&xs),
            &[vec![3, 4]],
            |vars| vars[0].mean_dim(1, true).square().sum(),
            1e-2,
        );
        check_gradients(
            &[xs],
            &[vec![3, 4]],
            |vars| vars[0].reshape(&[4, 3]).transpose().square().mean(),
            1e-2,
        );
    }

    #[test]
    fn broadcast_to_gradient_sums_over_copies() {
        // The trainable-threshold path: a [1] parameter broadcast to [n]
        // must receive the *sum* of the per-row gradients.
        let theta = Var::param(Tensor::from_vec(vec![0.5f32], &[1]));
        let weights = Var::constant(Tensor::from_vec(vec![1.0f32, 2.0, 3.0], &[3]));
        theta.broadcast_to(&[3]).mul(&weights).sum().backward();
        assert_eq!(theta.grad().unwrap().to_vec(), vec![6.0]);
        // Finite-difference check through a nonlinearity.
        check_gradients(
            &[vec![0.3f32]],
            &[vec![1]],
            |vars| vars[0].broadcast_to(&[4]).sigmoid().sum(),
            1e-2,
        );
    }

    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let mut rng = Rng64::new(9);
        let x: Vec<f32> = (0..32).map(|_| rng.normal() as f32).collect(); // [1,2,4,4]
        let w: Vec<f32> = (0..36).map(|_| rng.normal() as f32 * 0.5).collect(); // [2,2,3,3]
        let b: Vec<f32> = vec![0.1, -0.2];
        check_gradients(
            &[x, w, b],
            &[vec![1, 2, 4, 4], vec![2, 2, 3, 3], vec![2]],
            |vars| {
                vars[0]
                    .conv2d(&vars[1], Some(&vars[2]), 1, 1)
                    .square()
                    .mean()
            },
            2e-2,
        );
    }

    #[test]
    fn max_pool_routes_gradient_to_argmax() {
        let x = v(vec![1.0, 3.0, 2.0, 0.0], &[1, 1, 2, 2]);
        let y = x.max_pool2d(2, 2).sum();
        y.backward();
        assert_eq!(x.grad().unwrap().to_vec(), vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn select_rows_scatter_gradient() {
        let x = v(vec![1.0, 2.0, 3.0], &[3]);
        let idx = Tensor::from_vec(vec![2i64, 2, 0], &[3]);
        let y = x.select_rows(&idx).sum();
        y.backward();
        assert_eq!(x.grad().unwrap().to_vec(), vec![1.0, 0.0, 2.0]);
    }

    #[test]
    fn narrow_and_concat_gradients() {
        let a = v(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let b = v(vec![5.0, 6.0], &[2]);
        let y = Var::concat_rows(&[&a, &b]).narrow(0, 3, 2).sum();
        y.backward();
        assert_eq!(a.grad().unwrap().to_vec(), vec![0.0, 0.0, 0.0, 1.0]);
        assert_eq!(b.grad().unwrap().to_vec(), vec![1.0, 0.0]);
    }

    #[test]
    fn mse_loss_value_and_gradient() {
        let x = v(vec![1.0, 2.0], &[2]);
        let target = Tensor::from_vec(vec![0.0f32, 0.0], &[2]);
        let loss = x.mse_loss(&target);
        assert!((loss.value().item() - 2.5).abs() < 1e-6); // (1+4)/2
        loss.backward();
        assert_eq!(x.grad().unwrap().to_vec(), vec![1.0, 2.0]); // 2(x-t)/n
    }

    #[test]
    fn cross_entropy_decreases_with_correct_logit() {
        let good = v(vec![5.0, -5.0], &[1, 2]);
        let bad = v(vec![-5.0, 5.0], &[1, 2]);
        let t = Tensor::from_vec(vec![0i64], &[1]);
        assert!(good.cross_entropy(&t).value().item() < bad.cross_entropy(&t).value().item());
        let loss = bad.cross_entropy(&t);
        loss.backward();
        let g = bad.grad().unwrap();
        assert!(g.at(0) < 0.0, "gradient must push the correct logit up");
        assert!(g.at(1) > 0.0);
    }

    #[test]
    fn training_converges_linear_regression() {
        // y = 2x - 1 learned by gradient descent through the tape.
        let mut rng = Rng64::new(77);
        let xs: Vec<f32> = (0..64)
            .map(|_| rng.uniform_range(-1.0, 1.0) as f32)
            .collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        let x = Tensor::from_vec(xs, &[64, 1]);
        let y = Tensor::from_vec(ys, &[64, 1]);
        let w = Var::param(Tensor::from_vec(vec![0.0f32], &[1, 1]));
        let b = Var::param(Tensor::from_vec(vec![0.0f32], &[1]));
        let mut last = f32::MAX;
        for _ in 0..200 {
            w.zero_grad();
            b.zero_grad();
            let pred = Var::constant(x.clone()).matmul(&w).add(&b);
            let loss = pred.mse_loss(&y);
            loss.backward();
            let lv = loss.value().item();
            assert!(lv.is_finite());
            last = lv;
            for p in [&w, &b] {
                let g = p.grad().unwrap();
                p.set_value(p.value().sub(&g.mul_scalar(0.5)));
            }
        }
        assert!(last < 1e-3, "regression should converge, loss={last}");
        assert!((w.value().item() - 2.0).abs() < 0.05);
        assert!((b.value().item() + 1.0).abs() < 0.05);
    }
}
