//! # tdp-encoding
//!
//! Encoded tensors: tensors with attached metadata describing how data is
//! stored in them (paper §2, "Data Encoding"). Like a columnar database,
//! TDP never operates on raw buffers directly; operators inspect the
//! encoding metadata to pick an execution strategy (e.g. string equality
//! becomes integer comparison on dictionary codes, grouped counting over
//! probability-encoded columns becomes a matrix product).
//!
//! Encodings implemented:
//!
//! * **Plain** — numeric data stored as-is (f32 / i64 / bool), any rank:
//!   1-d scalar columns, 2-d vector columns, 3-d/4-d image columns.
//! * **Order-preserving dictionary** — string columns as i64 codes into a
//!   sorted dictionary, so range predicates work directly on codes.
//! * **Run-length** — repetitive i64 columns as (value, run) pairs.
//! * **Probability Encoding (PE)** — a `[N, C]` row-stochastic tensor plus
//!   the class value each column represents. PE is the bridge between ML
//!   and relational processing: TVFs emit PE columns, soft operators
//!   consume them differentiably, and exact operators decode them by argmax.
//! * **Bit-packed** and **delta** — narrow-range and near-monotonic i64
//!   columns at a few bits per row.
//!
//! Rows move through one family — [`EncodedTensor::slice_rows`] (rows
//! `start..end` — a morsel), [`EncodedTensor::select_rows`] (the rows at
//! a list of ids, O(ids) when ascending — a selection's survivors) and
//! [`EncodedTensor::filter_rows`] (a mask's survivors) — under one rule:
//! plain, dictionary and PE layouts keep their encoding, the
//! integer-compressed layouts are *read* and come back as plain `i64`.
//! A plain, dictionary or PE window — a `slice_rows`, or survivors that
//! are one ascending run — shares the column's buffer in O(1); the
//! integer-compressed layouts decode the window alone. Compressed
//! columns share their buffers: cloning one is O(1), like a tensor.

pub mod bitpack;
pub mod delta;
pub mod dict;
pub mod encoded;
pub mod pe;
pub mod rle;

pub use bitpack::BitPackedColumn;
pub use delta::DeltaColumn;
pub use dict::StringDict;
pub use encoded::{EncodedTensor, EncodingKind};
pub use pe::PeTensor;
pub use rle::RleColumn;
