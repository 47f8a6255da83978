//! Scalar element traits.
//!
//! Tensors are generic over their element type. Three capability levels are
//! distinguished: [`Element`] (anything storable), [`Num`] (arithmetic), and
//! [`Float`] (transcendental functions needed by ML kernels).

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use crate::math;

/// Any scalar that can live inside a [`crate::Tensor`].
pub trait Element:
    Copy + Clone + Send + Sync + Debug + Default + PartialEq + PartialOrd + 'static
{
    /// Human-readable name of the element type ("f32", "i64", ...).
    const DTYPE: &'static str;
}

/// Numeric elements supporting ring arithmetic and f64 round-trips.
pub trait Num:
    Element
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + Neg<Output = Self>
{
    fn zero() -> Self;
    fn one() -> Self;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    /// Smallest representable value (used as the identity of `max` folds).
    fn min_value() -> Self;
    /// Largest representable value (used as the identity of `min` folds).
    fn max_value() -> Self;
}

/// Floating-point elements with the transcendental kernel surface. For
/// `f32` the transcendentals are the engine's own ([`crate::math`]), so
/// their bits do not depend on the host's libm; `f64` keeps std's.
pub trait Float: Num {
    fn exp(self) -> Self;
    fn ln(self) -> Self;
    fn sqrt(self) -> Self;
    fn powf(self, e: Self) -> Self;
    fn abs(self) -> Self;
    fn tanh(self) -> Self;
    /// The logistic function `1/(1 + e^−x)`, in a form whose `exp` never
    /// overflows.
    fn sigmoid(self) -> Self;
    fn is_nan(self) -> bool;
    fn is_finite(self) -> bool;
}

macro_rules! impl_element {
    ($t:ty, $name:literal) => {
        impl Element for $t {
            const DTYPE: &'static str = $name;
        }
    };
}

impl_element!(f32, "f32");
impl_element!(f64, "f64");
impl_element!(i64, "i64");
impl_element!(i32, "i32");
impl_element!(u8, "u8");
impl_element!(bool, "bool");

macro_rules! impl_num_float {
    ($t:ty) => {
        impl Num for $t {
            #[inline]
            fn zero() -> Self {
                0.0
            }
            #[inline]
            fn one() -> Self {
                1.0
            }
            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn min_value() -> Self {
                <$t>::NEG_INFINITY
            }
            #[inline]
            fn max_value() -> Self {
                <$t>::INFINITY
            }
        }
    };
}

impl_num_float!(f32);
impl_num_float!(f64);

impl Float for f32 {
    #[inline(always)]
    fn exp(self) -> f32 {
        math::exp(self)
    }
    #[inline(always)]
    fn ln(self) -> f32 {
        math::ln(self)
    }
    #[inline]
    fn sqrt(self) -> f32 {
        self.sqrt()
    }
    #[inline(always)]
    fn powf(self, e: f32) -> f32 {
        math::powf(self, e)
    }
    #[inline]
    fn abs(self) -> f32 {
        self.abs()
    }
    #[inline(always)]
    fn tanh(self) -> f32 {
        math::tanh(self)
    }
    #[inline(always)]
    fn sigmoid(self) -> f32 {
        math::sigmoid(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.is_finite()
    }
}

/// std's functions, called by path.
impl Float for f64 {
    #[inline]
    fn exp(self) -> f64 {
        f64::exp(self)
    }
    #[inline]
    fn ln(self) -> f64 {
        f64::ln(self)
    }
    #[inline]
    fn sqrt(self) -> f64 {
        self.sqrt()
    }
    #[inline]
    fn powf(self, e: f64) -> f64 {
        f64::powf(self, e)
    }
    #[inline]
    fn abs(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn tanh(self) -> f64 {
        f64::tanh(self)
    }
    /// `1/(1 + e^−x)` for `x ≥ 0`, `e^x/(1 + e^x)` below, chosen by
    /// select around one `exp`.
    #[inline]
    fn sigmoid(self) -> f64 {
        let nonneg = self >= 0.0;
        let z = f64::exp(if nonneg { -self } else { self });
        (if nonneg { 1.0 } else { z }) / (1.0 + z)
    }
    #[inline]
    fn is_nan(self) -> bool {
        self.is_nan()
    }
    #[inline]
    fn is_finite(self) -> bool {
        self.is_finite()
    }
}

macro_rules! impl_num_int {
    ($t:ty) => {
        impl Num for $t {
            #[inline]
            fn zero() -> Self {
                0
            }
            #[inline]
            fn one() -> Self {
                1
            }
            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn min_value() -> Self {
                <$t>::MIN
            }
            #[inline]
            fn max_value() -> Self {
                <$t>::MAX
            }
        }
    };
}

impl_num_int!(i64);
impl_num_int!(i32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names() {
        assert_eq!(f32::DTYPE, "f32");
        assert_eq!(i64::DTYPE, "i64");
        assert_eq!(bool::DTYPE, "bool");
    }

    #[test]
    fn num_round_trips() {
        assert_eq!(f32::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(i64::from_f64(3.9), 3);
        assert_eq!(f64::zero() + f64::one(), 1.0);
    }

    #[test]
    fn fold_identities() {
        assert!(<f32 as Num>::min_value() < -1e30);
        assert_eq!(<i64 as Num>::max_value(), i64::MAX);
    }

    #[test]
    fn float_surface() {
        assert!((2.0f32.ln().exp() - 2.0).abs() < 1e-6);
        assert!(f32::NAN.is_nan());
        assert!(0.5f64.tanh() < 0.5);
    }
}
