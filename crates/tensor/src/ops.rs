//! Elementwise kernels: broadcast binary arithmetic, comparisons, unary maps.

use crate::element::{Element, Float, Num};
use crate::shape::{broadcast_shapes, Shape};
use crate::tensor::Tensor;

/// Core broadcast combinator: apply `f` elementwise over the broadcast of
/// `a` and `b`. Output element type is chosen by the closure.
pub fn broadcast_zip<A, B, O, F>(a: &Tensor<A>, b: &Tensor<B>, f: F) -> Tensor<O>
where
    A: Element,
    B: Element,
    O: Element,
    F: Fn(A, B) -> O + Sync,
{
    let device = a.device().combine(b.device());
    let out_dims = broadcast_shapes(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!(
            "shapes {} and {} are not broadcastable",
            Shape::new(a.shape()),
            Shape::new(b.shape())
        )
    });

    // Fast path: identical shapes, no index arithmetic.
    if a.shape() == b.shape() {
        let ad = a.data();
        let bd = b.data();
        let mut out = vec![O::default(); ad.len()];
        device.fill_indexed(&mut out, |i| f(ad[i], bd[i]));
        return Tensor::from_vec(out, a.shape()).to(device);
    }

    // Fast path: right operand is a scalar (or 1-element).
    if b.numel() == 1 {
        let bv = b.at(0);
        let ad = a.data();
        let mut out = vec![O::default(); ad.len()];
        device.fill_indexed(&mut out, |i| f(ad[i], bv));
        return Tensor::from_vec(out, a.shape()).to(device);
    }
    if a.numel() == 1 {
        let av = a.at(0);
        let bd = b.data();
        let mut out = vec![O::default(); bd.len()];
        device.fill_indexed(&mut out, |i| f(av, bd[i]));
        return Tensor::from_vec(out, b.shape()).to(device);
    }

    // General case: compute per-output-dim effective strides for both sides.
    let out_shape = Shape::new(&out_dims);
    let out_strides = out_shape.strides();
    let eff = |t_dims: &[usize], t_strides: &[usize]| -> Vec<usize> {
        let pad = out_dims.len() - t_dims.len();
        (0..out_dims.len())
            .map(|d| {
                if d < pad || t_dims[d - pad] == 1 {
                    0
                } else {
                    t_strides[d - pad]
                }
            })
            .collect()
    };
    let ea = eff(a.shape(), &a.shape_obj().strides());
    let eb = eff(b.shape(), &b.shape_obj().strides());
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![O::default(); out_shape.numel()];
    device.fill_indexed(&mut out, |flat| {
        let mut rem = flat;
        let mut ia = 0usize;
        let mut ib = 0usize;
        for d in 0..out_dims.len() {
            let i = rem / out_strides[d];
            rem %= out_strides[d];
            ia += i * ea[d];
            ib += i * eb[d];
        }
        f(ad[ia], bd[ib])
    });
    Tensor::from_vec(out, &out_dims).to(device)
}

/// The numerically stable logistic function of one element: `1 / (1 +
/// e^−x)` for `x ≥ 0`, `e^x / (1 + e^x)` otherwise, so `exp` never
/// overflows, the form chosen by select rather than by a branch on the
/// sign. It binds the engine's kernel: for `f32`,
/// [`crate::math::sigmoid`] (branch-free, host-independent bits); for
/// `f64`, the same select form around std's `exp` ([`Float::sigmoid`]).
#[inline(always)]
pub fn sigmoid<T: Float>(x: T) -> T {
    x.sigmoid()
}

impl<T: Num> Tensor<T> {
    pub fn add(&self, other: &Tensor<T>) -> Tensor<T> {
        broadcast_zip(self, other, |a, b| a + b)
    }

    pub fn sub(&self, other: &Tensor<T>) -> Tensor<T> {
        broadcast_zip(self, other, |a, b| a - b)
    }

    pub fn mul(&self, other: &Tensor<T>) -> Tensor<T> {
        broadcast_zip(self, other, |a, b| a * b)
    }

    pub fn div(&self, other: &Tensor<T>) -> Tensor<T> {
        broadcast_zip(self, other, |a, b| a / b)
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &Tensor<T>) -> Tensor<T> {
        broadcast_zip(self, other, |a, b| if a > b { a } else { b })
    }

    /// Elementwise minimum with broadcasting.
    pub fn minimum(&self, other: &Tensor<T>) -> Tensor<T> {
        broadcast_zip(self, other, |a, b| if a < b { a } else { b })
    }

    pub fn add_scalar(&self, v: T) -> Tensor<T> {
        self.map(move |x| x + v)
    }

    pub fn sub_scalar(&self, v: T) -> Tensor<T> {
        self.map(move |x| x - v)
    }

    pub fn mul_scalar(&self, v: T) -> Tensor<T> {
        self.map(move |x| x * v)
    }

    pub fn div_scalar(&self, v: T) -> Tensor<T> {
        self.map(move |x| x / v)
    }

    pub fn neg(&self) -> Tensor<T> {
        self.map(|x| -x)
    }

    /// In-place accumulate `other` (same shape) into `self`. Used by
    /// gradient accumulation and optimizers, where allocation churn matters.
    pub fn add_assign(&mut self, other: &Tensor<T>) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        let o = other.data().to_vec(); // detach in case buffers are shared
        for (d, s) in self.data_mut().iter_mut().zip(o) {
            *d += s;
        }
    }

    /// Clamp every element into `[lo, hi]`.
    pub fn clamp(&self, lo: T, hi: T) -> Tensor<T> {
        self.map(move |x| {
            if x < lo {
                lo
            } else if x > hi {
                hi
            } else {
                x
            }
        })
    }
}

// Comparison kernels produce boolean masks — the substrate of WHERE.
impl<T: Element> Tensor<T> {
    pub fn eq_t(&self, other: &Tensor<T>) -> Tensor<bool> {
        broadcast_zip(self, other, |a, b| a == b)
    }

    pub fn ne_t(&self, other: &Tensor<T>) -> Tensor<bool> {
        broadcast_zip(self, other, |a, b| a != b)
    }

    pub fn lt_t(&self, other: &Tensor<T>) -> Tensor<bool> {
        broadcast_zip(self, other, |a, b| a < b)
    }

    pub fn le_t(&self, other: &Tensor<T>) -> Tensor<bool> {
        broadcast_zip(self, other, |a, b| a <= b)
    }

    pub fn gt_t(&self, other: &Tensor<T>) -> Tensor<bool> {
        broadcast_zip(self, other, |a, b| a > b)
    }

    pub fn ge_t(&self, other: &Tensor<T>) -> Tensor<bool> {
        broadcast_zip(self, other, |a, b| a >= b)
    }

    pub fn eq_scalar(&self, v: T) -> Tensor<bool> {
        self.map(move |x| x == v)
    }

    pub fn gt_scalar(&self, v: T) -> Tensor<bool> {
        self.map(move |x| x > v)
    }

    pub fn ge_scalar(&self, v: T) -> Tensor<bool> {
        self.map(move |x| x >= v)
    }

    pub fn lt_scalar(&self, v: T) -> Tensor<bool> {
        self.map(move |x| x < v)
    }

    pub fn le_scalar(&self, v: T) -> Tensor<bool> {
        self.map(move |x| x <= v)
    }
}

impl<T: Float> Tensor<T> {
    pub fn exp(&self) -> Tensor<T> {
        self.map(T::exp)
    }

    pub fn ln(&self) -> Tensor<T> {
        self.map(T::ln)
    }

    pub fn sqrt(&self) -> Tensor<T> {
        self.map(|x| x.sqrt())
    }

    pub fn abs(&self) -> Tensor<T> {
        self.map(|x| x.abs())
    }

    pub fn tanh_t(&self) -> Tensor<T> {
        self.map(T::tanh)
    }

    pub fn powf_scalar(&self, e: T) -> Tensor<T> {
        self.map(move |x| T::powf(x, e))
    }

    /// Numerically-stable logistic function ([`sigmoid`] per element).
    pub fn sigmoid(&self) -> Tensor<T> {
        self.map(sigmoid)
    }

    pub fn relu(&self) -> Tensor<T> {
        self.map(|x| if x > T::zero() { x } else { T::zero() })
    }

    /// Maximum absolute difference against another tensor of the same shape.
    /// Test helper for approximate comparisons.
    pub fn max_abs_diff(&self, other: &Tensor<T>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| (a - b).abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// `true` when elementwise within `tol` of `other`.
    pub fn allclose(&self, other: &Tensor<T>, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

// Operator sugar on references: `&a + &b`, `&a * &b`, etc.
macro_rules! impl_binop {
    ($trait:ident, $method:ident, $kernel:ident) => {
        impl<'a, T: Num> std::ops::$trait<&'a Tensor<T>> for &'a Tensor<T> {
            type Output = Tensor<T>;
            fn $method(self, rhs: &'a Tensor<T>) -> Tensor<T> {
                self.$kernel(rhs)
            }
        }
    };
}

impl_binop!(Add, add, add);
impl_binop!(Sub, sub, sub);
impl_binop!(Mul, mul, mul);
impl_binop!(Div, div, div);

impl<T: Num> std::ops::Neg for &Tensor<T> {
    type Output = Tensor<T>;
    fn neg(self) -> Tensor<T> {
        Tensor::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn same_shape_arithmetic() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(a.add(&b).to_vec(), vec![11.0, 22.0, 33.0]);
        assert_eq!(b.sub(&a).to_vec(), vec![9.0, 18.0, 27.0]);
        assert_eq!(a.mul(&b).to_vec(), vec![10.0, 40.0, 90.0]);
        assert_eq!(b.div(&a).to_vec(), vec![10.0, 10.0, 10.0]);
        assert_eq!((&a + &b).to_vec(), vec![11.0, 22.0, 33.0]);
        assert_eq!((-&a).to_vec(), vec![-1.0, -2.0, -3.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let a = t(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar(10.0f32);
        assert_eq!(a.add(&s).to_vec(), vec![11.0, 12.0]);
        assert_eq!(s.sub(&a).to_vec(), vec![9.0, 8.0]);
        assert_eq!(a.mul_scalar(3.0).to_vec(), vec![3.0, 6.0]);
    }

    #[test]
    fn row_and_column_broadcast() {
        let m = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        let col = t(vec![100.0, 200.0], &[2, 1]);
        assert_eq!(
            m.add(&row).to_vec(),
            vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
        assert_eq!(
            m.add(&col).to_vec(),
            vec![101.0, 102.0, 103.0, 204.0, 205.0, 206.0]
        );
        // Outer broadcast: [2,1] vs [1,3] -> [2,3]
        let a = t(vec![1.0, 2.0], &[2, 1]);
        let b = t(vec![10.0, 20.0, 30.0], &[1, 3]);
        assert_eq!(a.mul(&b).to_vec(), vec![10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
    }

    #[test]
    #[should_panic(expected = "not broadcastable")]
    fn incompatible_shapes_panic() {
        t(vec![0.0; 6], &[2, 3]).add(&t(vec![0.0; 8], &[2, 4]));
    }

    #[test]
    fn comparisons_produce_masks() {
        let a = t(vec![1.0, 5.0, 3.0], &[3]);
        let b = t(vec![2.0, 5.0, 1.0], &[3]);
        assert_eq!(a.lt_t(&b).to_vec(), vec![true, false, false]);
        assert_eq!(a.eq_t(&b).to_vec(), vec![false, true, false]);
        assert_eq!(a.ge_t(&b).to_vec(), vec![false, true, true]);
        assert_eq!(a.gt_scalar(2.0).to_vec(), vec![false, true, true]);
        assert_eq!(a.le_scalar(3.0).to_vec(), vec![true, false, true]);
    }

    #[test]
    fn unary_float_kernels() {
        let a = t(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(a.relu().to_vec(), vec![0.0, 0.0, 2.0]);
        assert_eq!(a.abs().to_vec(), vec![1.0, 0.0, 2.0]);
        let s = a.sigmoid();
        assert!((s.at(1) - 0.5).abs() < 1e-6);
        assert!(s.at(0) < 0.5 && s.at(2) > 0.5);
        assert!(a.clamp(-0.5, 1.0).to_vec() == vec![-0.5, 0.0, 1.0]);
        let e = t(vec![0.0, 1.0], &[2]).exp();
        assert!((e.at(1) - std::f32::consts::E).abs() < 1e-5);
    }

    /// The branching form `sigmoid` replaced, kept as its oracle, around
    /// the engine's `exp`.
    fn branching_sigmoid(x: f32) -> f32 {
        if x.to_f64() >= 0.0 {
            let z = crate::math::exp(-x);
            1.0 / (1.0 + z)
        } else {
            let z = crate::math::exp(x);
            z / (1.0 + z)
        }
    }

    #[test]
    fn sigmoid_selects_the_bits_of_the_branching_form() {
        let mut xs = vec![
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-45,
            -1e-45,
            88.7,
            -88.7,
            104.0,
            -104.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut rng = crate::Rng64::new(7);
        xs.extend((0..4096).map(|_| (rng.normal() * 30.0) as f32));
        let n = xs.len();
        let got = t(xs.clone(), &[n]).sigmoid();
        for (x, g) in xs.iter().zip(got.data()) {
            assert_eq!(
                g.to_bits(),
                branching_sigmoid(*x).to_bits(),
                "sigmoid({x}) moved"
            );
            // And within the kernel's 2 ulp of the f64 reference.
            let want = (1.0 / (1.0 + (-f64::from(*x)).exp())) as f32;
            let ulps = (g.to_bits() as i64 - want.to_bits() as i64).abs();
            assert!(x.is_nan() || ulps <= 2, "sigmoid({x}) = {g}, want {want}");
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let a = t(vec![-100.0, 100.0], &[2]).sigmoid();
        assert!(a.at(0) >= 0.0 && a.at(0) < 1e-20);
        assert!((a.at(1) - 1.0).abs() < 1e-6);
        assert!(a.all_finite());
    }

    #[test]
    fn min_max_elementwise() {
        let a = t(vec![1.0, 5.0], &[2]);
        let b = t(vec![3.0, 2.0], &[2]);
        assert_eq!(a.maximum(&b).to_vec(), vec![3.0, 5.0]);
        assert_eq!(a.minimum(&b).to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = t(vec![1.0, 2.0], &[2]);
        let b = a.clone(); // shares the buffer — COW must kick in
        a.add_assign(&b);
        assert_eq!(a.to_vec(), vec![2.0, 4.0]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn device_propagates_through_ops() {
        let a = t(vec![1.0, 2.0], &[2]).to(Device::Accel(2));
        let b = t(vec![3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).device(), Device::Accel(2));
        assert_eq!(b.add(&a).device(), Device::Accel(2));
        assert_eq!(b.exp().device(), Device::Cpu);
    }

    #[test]
    fn large_parallel_kernel_matches_serial() {
        let n = 70_000;
        let v: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
        let cpu = t(v.clone(), &[n]);
        let acc = cpu.to(Device::Accel(4));
        let r1 = cpu.mul(&cpu).add_scalar(1.0);
        let r2 = acc.mul(&acc).add_scalar(1.0);
        assert_eq!(r1.to_vec(), r2.to_vec());
    }

    #[test]
    fn allclose_tolerance() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0 + 1e-7, 2.0], &[2]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-9));
    }
}
