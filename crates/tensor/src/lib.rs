//! # tdp-tensor
//!
//! A dense, n-dimensional tensor runtime written in safe Rust: the workspace
//! forbids `unsafe_code`. This crate is the Tensor Computation Runtime (TCR)
//! substrate of `tdp-rs`, playing the role PyTorch plays in the Tensor Data
//! Platform paper (CIDR 2023): every relational operator, encoding, neural
//! network and differentiable query in the upper layers is expressed in
//! terms of the kernels defined here.
//!
//! ## Design
//!
//! * [`Tensor<T>`] is a contiguous, row-major buffer (`Arc<Vec<T>>`) plus a
//!   shape and a [`Device`] tag. Clones are O(1); mutation is copy-on-write.
//! * Broadcasting follows NumPy semantics (trailing-dimension alignment).
//! * [`Device::Cpu`] executes kernels on the calling thread.
//!   [`Device::accel()`] simulates a hardware accelerator by running large
//!   kernels data-parallel across a set of worker threads, spawned in one
//!   place ([`device`]) that hands each thread `&mut` rows of the output
//!   and never nests inside parallel work. This reproduces the *device
//!   portability* story of the paper (the same compiled query runs
//!   unchanged on CPU or "GPU") without requiring GPU hardware.
//! * Kernels are organised by module: elementwise ([`ops`]), reductions
//!   ([`reduce`]), linear algebra ([`linalg`]), convolution ([`conv`]),
//!   indexing/selection ([`index`]), sorting and grouping ([`sort`]) and the
//!   join/DISTINCT hash table ([`keytable`]).
//!
//! ## Quick start
//!
//! ```
//! use tdp_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::full(&[2, 2], 10.0f32);
//! let c = a.add(&b).matmul(&Tensor::eye(2));
//! assert_eq!(c.to_vec(), vec![11.0, 12.0, 13.0, 14.0]);
//! ```

pub mod conv;
pub mod device;
pub mod einops;
pub mod element;
pub mod index;
pub mod keytable;
pub mod linalg;
pub mod math;
pub mod ops;
pub mod reduce;
pub mod rng;
pub mod shape;
pub mod sort;
pub mod tensor;

pub use device::Device;
pub use element::{Element, Float, Num};
pub use rng::Rng64;
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;

/// Tensor of 32-bit floats — the workhorse type of the platform.
pub type F32Tensor = Tensor<f32>;
/// Tensor of 64-bit floats, used where numeric robustness matters.
pub type F64Tensor = Tensor<f64>;
/// Tensor of 64-bit signed integers (dictionary codes, indices, counts).
pub type I64Tensor = Tensor<i64>;
/// Tensor of booleans (selection masks, comparison results).
pub type BoolTensor = Tensor<bool>;
