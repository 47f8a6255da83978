//! # tdp-autodiff
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`tdp_tensor::F32Tensor`]. This is the autograd half of the Tensor
//! Computation Runtime substrate: it gives the Tensor Data Platform the
//! capability the paper gets from PyTorch's autograd — *trainable queries*
//! whose relational operators, UDFs and TVFs are differentiated end-to-end
//! (paper §4).
//!
//! ## Model
//!
//! A [`Var`] wraps a tensor value plus an optional backward edge into the
//! dynamically-built computation graph. Calling an op on `Var`s computes the
//! forward value eagerly and records a closure that maps the output gradient
//! to input gradients. [`Var::backward`] runs the closures in reverse
//! topological order and accumulates gradients into every node but a
//! constant leaf ([`Var::constant`], whose gradient nothing reads); parameters
//! (created with [`Var::param`]) keep their gradient until
//! [`Var::zero_grad`].
//!
//! ```
//! use tdp_autodiff::Var;
//! use tdp_tensor::Tensor;
//!
//! let w = Var::param(Tensor::from_vec(vec![3.0f32], &[1]));
//! let x = Var::constant(Tensor::from_vec(vec![2.0f32], &[1]));
//! let y = w.mul(&x).add_scalar(1.0); // y = 3*2 + 1
//! y.backward();
//! assert_eq!(y.value().item(), 7.0);
//! assert_eq!(w.grad().unwrap().item(), 2.0); // dy/dw = x
//! ```

pub mod gradcheck;
pub mod ops;
pub mod var;

pub use ops::reduce_to_shape;
pub use var::Var;
