//! The encoded-tensor column representation.

use std::sync::Arc;

use tdp_tensor::{BoolTensor, F32Tensor, I64Tensor, Tensor};

use crate::bitpack::BitPackedColumn;
use crate::delta::DeltaColumn;
use crate::dict::StringDict;
use crate::pe::PeTensor;
use crate::rle::RleColumn;

/// Metadata tag describing how a column is stored — what the paper calls
/// the encoded tensor's metadata, used by operators to pick kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingKind {
    PlainF32,
    PlainI64,
    PlainBool,
    Dictionary,
    RunLength,
    Probability,
    BitPacked,
    Delta,
}

/// A column of a TDP table: a tensor plus its encoding.
///
/// The leading dimension is always the row dimension; trailing dimensions
/// carry per-row payloads (vectors, images, ...).
///
/// **The row-movement rule.** Run-length, bit-packed and delta are
/// *storage* layouts: rows read out of one — a range
/// ([`EncodedTensor::slice_rows`]), a list of positions
/// ([`EncodedTensor::select_rows`]), a mask's survivors
/// ([`EncodedTensor::filter_rows`]) — are plain `I64`, for every caller
/// and at every size; whoever reads a subset is about to compute on it,
/// and picking a fresh smallest layout for it would only be undone by the
/// next read. Plain, dictionary and PE layouts keep theirs. A compressed
/// layout is produced in three places only: `Table::compress`
/// ([`EncodedTensor::compress_i64`] on a stored column),
/// [`EncodedTensor::concat`] of integer pieces (which is how
/// [`EncodedTensor::append`] grows a compressed column: it re-encodes the
/// whole column) and loading a TDPF file. An append grows plain columns,
/// dictionary columns sharing one dictionary and PE columns with the same
/// classes in their stored buffers instead, copy-on-write.
#[derive(Debug, Clone)]
pub enum EncodedTensor {
    /// Plain numeric data of any rank (`[N]`, `[N, d]`, `[N, c, h, w]`...).
    F32(F32Tensor),
    /// Plain 64-bit integers (ids, timestamps, counts).
    I64(I64Tensor),
    /// Plain booleans.
    Bool(BoolTensor),
    /// Order-preserving dictionary-encoded strings.
    Dict {
        codes: I64Tensor,
        dict: Arc<StringDict>,
    },
    /// Run-length-encoded integers.
    Rle(RleColumn),
    /// Probability-encoded classification output.
    Pe(PeTensor),
    /// Bit-packed integers (low-cardinality / narrow-range columns).
    BitPacked(BitPackedColumn),
    /// Delta-encoded integers (timestamps, sorted keys).
    Delta(DeltaColumn),
}

/// A 1-d plain `i64` column owning `values`.
fn plain_i64(values: Vec<i64>) -> EncodedTensor {
    let n = values.len();
    EncodedTensor::I64(Tensor::from_vec(values, &[n]))
}

impl EncodedTensor {
    /// Encode a string column (order-preserving dictionary).
    pub fn from_strings(strings: &[impl AsRef<str>]) -> EncodedTensor {
        let (dict, codes) = StringDict::encode(strings);
        EncodedTensor::Dict { codes, dict }
    }

    /// Encode a 1-d f32 column.
    pub fn from_f32_slice(values: &[f32]) -> EncodedTensor {
        EncodedTensor::F32(Tensor::from_vec(values.to_vec(), &[values.len()]))
    }

    /// Encode a 1-d i64 column.
    pub fn from_i64_slice(values: &[i64]) -> EncodedTensor {
        plain_i64(values.to_vec())
    }

    /// The encoding tag.
    pub fn kind(&self) -> EncodingKind {
        match self {
            EncodedTensor::F32(_) => EncodingKind::PlainF32,
            EncodedTensor::I64(_) => EncodingKind::PlainI64,
            EncodedTensor::Bool(_) => EncodingKind::PlainBool,
            EncodedTensor::Dict { .. } => EncodingKind::Dictionary,
            EncodedTensor::Rle(_) => EncodingKind::RunLength,
            EncodedTensor::Pe(_) => EncodingKind::Probability,
            EncodedTensor::BitPacked(_) => EncodingKind::BitPacked,
            EncodedTensor::Delta(_) => EncodingKind::Delta,
        }
    }

    /// Pick the smallest integer encoding for a 1-d i64 column among
    /// plain, run-length, bit-packed and delta — the metadata-driven
    /// strategy selection of paper §2 applied at encode time.
    pub fn compress_i64(values: &I64Tensor) -> EncodedTensor {
        let mut best = EncodedTensor::I64(values.clone());
        let mut best_bytes = best.memory_bytes();
        let mut consider = |cand: EncodedTensor| {
            let b = cand.memory_bytes();
            if b < best_bytes {
                best_bytes = b;
                best = cand;
            }
        };
        consider(EncodedTensor::Rle(RleColumn::encode(values)));
        consider(EncodedTensor::BitPacked(BitPackedColumn::encode(values)));
        if let Some(d) = DeltaColumn::encode(values) {
            consider(EncodedTensor::Delta(d));
        }
        best
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            EncodedTensor::F32(t) => t.rows(),
            EncodedTensor::I64(t) => t.rows(),
            EncodedTensor::Bool(t) => t.rows(),
            EncodedTensor::Dict { codes, .. } => codes.rows(),
            EncodedTensor::Rle(r) => r.len(),
            EncodedTensor::Pe(p) => p.rows(),
            EncodedTensor::BitPacked(b) => b.len(),
            EncodedTensor::Delta(d) => d.len(),
        }
    }

    /// Shape of the per-row payload (empty for scalar columns).
    pub fn row_shape(&self) -> Vec<usize> {
        match self {
            EncodedTensor::F32(t) => t.shape().get(1..).unwrap_or(&[]).to_vec(),
            _ => Vec::new(),
        }
    }

    /// Approximate in-memory footprint of the encoded data, in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            EncodedTensor::F32(t) => t.numel() * 4,
            EncodedTensor::I64(t) => t.numel() * 8,
            EncodedTensor::Bool(t) => t.numel(),
            EncodedTensor::Dict { codes, dict } => {
                codes.numel() * 8 + dict.values().iter().map(|s| s.len()).sum::<usize>()
            }
            EncodedTensor::Rle(r) => r.num_runs() * 12,
            EncodedTensor::Pe(p) => (p.rows() * p.num_classes() + p.num_classes()) * 4,
            EncodedTensor::BitPacked(b) => b.memory_bytes(),
            EncodedTensor::Delta(d) => d.memory_bytes(),
        }
    }

    /// Decode to plain f32 values (`[N]` or higher-rank for payload
    /// columns). Dictionary columns decode to their codes (the numeric view
    /// used by ORDER BY); PE columns decode exactly by argmax.
    pub fn decode_f32(&self) -> F32Tensor {
        match self {
            EncodedTensor::F32(t) => t.clone(),
            EncodedTensor::I64(t) => t.to_f32(),
            EncodedTensor::Bool(t) => t.to_f32_mask(),
            EncodedTensor::Dict { codes, .. } => codes.to_f32(),
            EncodedTensor::Rle(r) => r.decode().to_f32(),
            EncodedTensor::Pe(p) => p.decode_values(),
            EncodedTensor::BitPacked(b) => b.decode().to_f32(),
            EncodedTensor::Delta(d) => d.decode().to_f32(),
        }
    }

    /// Decode to i64 (exact decode for PE; cast for f32).
    pub fn decode_i64(&self) -> I64Tensor {
        match self {
            EncodedTensor::F32(t) => t.to_i64(),
            EncodedTensor::I64(t) => t.clone(),
            EncodedTensor::Bool(t) => t.to_i64_mask(),
            EncodedTensor::Dict { codes, .. } => codes.clone(),
            EncodedTensor::Rle(r) => r.decode(),
            EncodedTensor::Pe(p) => p.decode_values().to_i64(),
            EncodedTensor::BitPacked(b) => b.decode(),
            EncodedTensor::Delta(d) => d.decode(),
        }
    }

    /// Decode to strings where meaningful (dictionary columns); other
    /// encodings render their numeric values.
    pub fn decode_strings(&self) -> Vec<String> {
        match self {
            EncodedTensor::Dict { codes, dict } => dict.decode(codes),
            EncodedTensor::F32(t) if t.ndim() == 1 => {
                t.data().iter().map(|v| format!("{v}")).collect()
            }
            EncodedTensor::I64(t) => t.data().iter().map(|v| v.to_string()).collect(),
            EncodedTensor::Bool(t) => t.data().iter().map(|v| v.to_string()).collect(),
            EncodedTensor::Rle(r) => r.decode().data().iter().map(|v| v.to_string()).collect(),
            EncodedTensor::Pe(p) => p
                .decode_values()
                .data()
                .iter()
                .map(|v| format!("{v}"))
                .collect(),
            EncodedTensor::BitPacked(_) | EncodedTensor::Delta(_) => self
                .decode_i64()
                .data()
                .iter()
                .map(|v| v.to_string())
                .collect(),
            EncodedTensor::F32(_) => vec![String::from("<tensor>"); self.rows()],
        }
    }

    /// Keep only rows where the mask is true:
    /// [`EncodedTensor::select_rows`] at the ids the mask keeps.
    pub fn filter_rows(&self, mask: &BoolTensor) -> EncodedTensor {
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

    /// First `n` rows (clamped).
    pub fn head(&self, n: usize) -> EncodedTensor {
        self.slice_rows(0, n)
    }

    /// Rows `start..end` (bounds clamped) — the window primitive of
    /// morsel execution. Plain, dictionary and PE layouts return an O(1)
    /// window sharing the column's buffer ([`Tensor::slice_rows`];
    /// dictionary windows share the parent's dictionary too, so codes stay
    /// globally comparable across morsels). The integer-compressed layouts
    /// decode the window alone, in O(end − start), and come back as plain
    /// `I64` holding exactly `decode_i64()[start..end]`.
    pub fn slice_rows(&self, start: usize, end: usize) -> EncodedTensor {
        let end = end.min(self.rows());
        let start = start.min(end);
        match self {
            EncodedTensor::Rle(r) => plain_i64(r.window(start, end)),
            EncodedTensor::BitPacked(b) => plain_i64(b.window(start, end)),
            EncodedTensor::Delta(d) => plain_i64(d.window(start, end)),
            EncodedTensor::F32(t) => EncodedTensor::F32(t.slice_rows(start, end)),
            EncodedTensor::I64(t) => EncodedTensor::I64(t.slice_rows(start, end)),
            EncodedTensor::Bool(t) => EncodedTensor::Bool(t.slice_rows(start, end)),
            EncodedTensor::Dict { codes, dict } => EncodedTensor::Dict {
                codes: codes.slice_rows(start, end),
                dict: Arc::clone(dict),
            },
            EncodedTensor::Pe(p) => EncodedTensor::Pe(PeTensor::new(
                p.probs().slice_rows(start, end),
                p.class_values().clone(),
            )),
        }
    }

    /// The rows at `idx`, in any order, repeats allowed — the positional
    /// primitive of gathers, reorders and late materialization. Plain,
    /// dictionary and PE layouts gather their buffers, or share them when
    /// `idx` is one ascending run ([`Tensor::select_rows`]); the
    /// integer-compressed layouts come back as plain `I64` holding
    /// exactly `decode_i64()` indexed by `idx`. An ascending `idx` (a
    /// selection's survivors) costs O(`idx`) — bit-packed rows are
    /// random-access, run-length columns take one merge walk over their
    /// runs, delta columns walk forward from the nearest anchor
    /// ([`crate::delta::ANCHOR_STRIDE`]). Any other order (a join's build
    /// side, a sort's output) reads bit-packed at the same cost,
    /// run-length and delta from one whole-column decode.
    pub fn select_rows(&self, idx: &I64Tensor) -> EncodedTensor {
        let ids = idx.data();
        let ascending = || ids.windows(2).all(|w| w[0] <= w[1]);
        match self {
            EncodedTensor::F32(t) => EncodedTensor::F32(t.select_rows(idx)),
            EncodedTensor::I64(t) => EncodedTensor::I64(t.select_rows(idx)),
            EncodedTensor::Bool(t) => EncodedTensor::Bool(t.select_rows(idx)),
            EncodedTensor::Dict { codes, dict } => EncodedTensor::Dict {
                codes: codes.select_rows(idx),
                dict: Arc::clone(dict),
            },
            EncodedTensor::Pe(p) => EncodedTensor::Pe(p.select_rows(idx)),
            EncodedTensor::BitPacked(b) => plain_i64(b.at(ids)),
            EncodedTensor::Rle(r) if ascending() => plain_i64(r.at(ids)),
            EncodedTensor::Delta(d) if ascending() => plain_i64(d.at(ids)),
            EncodedTensor::Rle(_) | EncodedTensor::Delta(_) => {
                EncodedTensor::I64(self.decode_i64().select_rows(idx))
            }
        }
    }

    /// Plain `I64` or one of the integer-compressed layouts.
    fn int_like(&self) -> bool {
        matches!(
            self,
            EncodedTensor::I64(_)
                | EncodedTensor::Rle(_)
                | EncodedTensor::BitPacked(_)
                | EncodedTensor::Delta(_)
        )
    }

    /// Whether [`EncodedTensor::append`] of `other` keeps this column's
    /// type: the integer family (plain / run-length / bit-packed / delta)
    /// with itself, `F32` with the same row shape, and `Bool`, dictionary
    /// and PE each with their own kind. Any other pair would turn the
    /// column into strings, or not fit its rows.
    pub fn can_append(&self, other: &EncodedTensor) -> bool {
        use EncodedTensor as E;
        match (self, other) {
            (E::F32(a), E::F32(b)) => a.shape().get(1..) == b.shape().get(1..),
            (E::Bool(_), E::Bool(_)) | (E::Dict { .. }, E::Dict { .. }) | (E::Pe(_), E::Pe(_)) => {
                true
            }
            (a, b) => a.int_like() && b.int_like(),
        }
    }

    /// The pairs [`EncodedTensor::append`] grows in their stored buffer:
    /// `other`'s rows go after this column's as they are.
    fn same_layout(&self, other: &EncodedTensor) -> bool {
        use EncodedTensor as E;
        match (self, other) {
            (E::F32(a), E::F32(b)) => a.shape().get(1..) == b.shape().get(1..),
            (E::I64(_), E::I64(_)) | (E::Bool(_), E::Bool(_)) => true,
            (E::Dict { dict: a, .. }, E::Dict { dict: b, .. }) => Arc::ptr_eq(a, b),
            (E::Pe(a), E::Pe(b)) => a.class_values() == b.class_values(),
            _ => false,
        }
    }

    /// Append `other`'s rows after this column's. A pair of one layout —
    /// plain `F32` of one row shape, plain `I64`, `Bool`, dictionary
    /// columns sharing one dictionary, PE columns with the same class
    /// values — grows the stored buffer copy-on-write
    /// ([`Tensor::append_rows`]): where it is when nothing else holds it,
    /// otherwise copied once, so every other holder keeps its rows. Any
    /// other pair becomes exactly [`EncodedTensor::concat`] of the two,
    /// encoding included: distinct dictionaries and integer-compressed
    /// layouts re-encode the whole column.
    pub fn append(&mut self, other: &EncodedTensor) {
        use EncodedTensor as E;
        if !self.same_layout(other) {
            *self = EncodedTensor::concat(&[&*self, other]);
            return;
        }
        match (self, other) {
            (E::F32(a), E::F32(b)) => a.append_rows(b),
            (E::I64(a), E::I64(b)) => a.append_rows(b),
            (E::Bool(a), E::Bool(b)) => a.append_rows(b),
            (E::Dict { codes, .. }, E::Dict { codes: more, .. }) => codes.append_rows(more),
            (E::Pe(a), E::Pe(b)) => a.probs_mut().append_rows(b.probs()),
            _ => unreachable!("a pair of one layout"),
        }
    }

    /// Whether [`EncodedTensor::append`] of `other` would grow this column
    /// where it is stored, copying `other`'s rows only: a pair of one
    /// layout whose buffer nothing else holds and has room for them.
    pub fn appends_in_place(&mut self, other: &EncodedTensor) -> bool {
        if !self.same_layout(other) {
            return false;
        }
        let spare = match self {
            EncodedTensor::F32(t) => t.spare_rows(),
            EncodedTensor::I64(t) | EncodedTensor::Dict { codes: t, .. } => t.spare_rows(),
            EncodedTensor::Bool(t) => t.spare_rows(),
            EncodedTensor::Pe(p) => p.probs_mut().spare_rows(),
            _ => 0,
        };
        spare >= other.rows()
    }

    /// Concatenate column pieces row-wise, preserving the encoding where
    /// the pieces agree — the merge half of morsel execution. Plain
    /// layouts concatenate buffers; dictionary pieces sharing one
    /// dictionary (the common case: morsels sliced from one parent
    /// column) concatenate codes; PE pieces with identical class values
    /// concatenate probability rows; integer-compressed pieces re-encode.
    /// Heterogeneous pieces fall back to a decoded common representation.
    ///
    /// Panics on an empty `parts` slice — callers always have ≥1 morsel.
    pub fn concat(parts: &[&EncodedTensor]) -> EncodedTensor {
        use tdp_tensor::index::concat_rows;
        assert!(!parts.is_empty(), "concat of zero column pieces");
        if parts.len() == 1 {
            return parts[0].clone();
        }
        if parts.iter().all(|p| matches!(p, EncodedTensor::F32(_))) {
            let ts: Vec<&F32Tensor> = parts
                .iter()
                .map(|p| match p {
                    EncodedTensor::F32(t) => t,
                    _ => unreachable!(),
                })
                .collect();
            return EncodedTensor::F32(concat_rows(&ts));
        }
        if parts.iter().all(|p| matches!(p, EncodedTensor::Bool(_))) {
            let ts: Vec<&BoolTensor> = parts
                .iter()
                .map(|p| match p {
                    EncodedTensor::Bool(t) => t,
                    _ => unreachable!(),
                })
                .collect();
            return EncodedTensor::Bool(concat_rows(&ts));
        }
        // Same-dictionary string pieces: concatenate codes, keep the dict.
        if let EncodedTensor::Dict { dict: first, .. } = parts[0] {
            let same_dict = parts
                .iter()
                .all(|p| matches!(p, EncodedTensor::Dict { dict, .. } if Arc::ptr_eq(dict, first)));
            if same_dict {
                let codes: Vec<&I64Tensor> = parts
                    .iter()
                    .map(|p| match p {
                        EncodedTensor::Dict { codes, .. } => codes,
                        _ => unreachable!(),
                    })
                    .collect();
                return EncodedTensor::Dict {
                    codes: concat_rows(&codes),
                    dict: Arc::clone(first),
                };
            }
        }
        if parts
            .iter()
            .any(|p| matches!(p, EncodedTensor::Dict { .. }))
        {
            // Distinct dictionaries — or strings mixed with non-strings:
            // re-encode the decoded strings (the order-preserving
            // dictionary keeps code order = string order).
            let mut strings = Vec::new();
            for p in parts {
                strings.extend(p.decode_strings());
            }
            return EncodedTensor::from_strings(&strings);
        }
        if let EncodedTensor::Pe(first) = parts[0] {
            let cv = first.class_values().to_vec();
            let same_classes = parts
                .iter()
                .all(|p| matches!(p, EncodedTensor::Pe(q) if q.class_values().to_vec() == cv));
            if same_classes {
                let probs: Vec<F32Tensor> = parts
                    .iter()
                    .map(|p| match p {
                        EncodedTensor::Pe(q) => q.probs().clone(),
                        _ => unreachable!(),
                    })
                    .collect();
                let refs: Vec<&F32Tensor> = probs.iter().collect();
                return EncodedTensor::Pe(PeTensor::new(
                    concat_rows(&refs),
                    first.class_values().clone(),
                ));
            }
        }
        // Integer family (plain i64 / RLE / bit-packed / delta, mixed or
        // not): concatenate decoded values and pick the best layout once.
        if parts.iter().all(|p| matches!(p, EncodedTensor::I64(_))) {
            // All-plain fast path: keep the plain layout (no surprise
            // re-compression of an uncompressed column).
            let ts: Vec<&I64Tensor> = parts
                .iter()
                .map(|p| match p {
                    EncodedTensor::I64(t) => t,
                    _ => unreachable!(),
                })
                .collect();
            return EncodedTensor::I64(concat_rows(&ts));
        }
        if parts.iter().all(|p| p.int_like()) {
            let decoded: Vec<I64Tensor> = parts.iter().map(|p| p.decode_i64()).collect();
            let refs: Vec<&I64Tensor> = decoded.iter().collect();
            return EncodedTensor::compress_i64(&concat_rows(&refs));
        }
        // Heterogeneous pieces: decode to exact string values (i64 has no
        // lossless f32 embedding — values above 2^24 would round).
        let mut strings = Vec::new();
        for p in parts {
            strings.extend(p.decode_strings());
        }
        EncodedTensor::from_strings(&strings)
    }

    /// Move plain tensor payloads to a device (no-op for CPU-resident
    /// encodings like RLE whose kernels are scalar).
    pub fn to_device(&self, device: tdp_tensor::Device) -> EncodedTensor {
        match self {
            EncodedTensor::F32(t) => EncodedTensor::F32(t.to(device)),
            EncodedTensor::I64(t) => EncodedTensor::I64(t.to(device)),
            EncodedTensor::Bool(t) => EncodedTensor::Bool(t.to(device)),
            EncodedTensor::Dict { codes, dict } => EncodedTensor::Dict {
                codes: codes.to(device),
                dict: Arc::clone(dict),
            },
            EncodedTensor::Rle(r) => EncodedTensor::Rle(r.clone()),
            EncodedTensor::BitPacked(b) => EncodedTensor::BitPacked(b.clone()),
            EncodedTensor::Delta(d) => EncodedTensor::Delta(d.clone()),
            EncodedTensor::Pe(p) => EncodedTensor::Pe(PeTensor::new(
                p.probs().to(device),
                p.class_values().clone(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_rows() {
        let f = EncodedTensor::from_f32_slice(&[1.0, 2.0]);
        assert_eq!(f.kind(), EncodingKind::PlainF32);
        assert_eq!(f.rows(), 2);

        let s = EncodedTensor::from_strings(&["a", "b", "a"]);
        assert_eq!(s.kind(), EncodingKind::Dictionary);
        assert_eq!(s.rows(), 3);

        let img = EncodedTensor::F32(Tensor::zeros(&[4, 1, 8, 8]));
        assert_eq!(img.rows(), 4);
        assert_eq!(img.row_shape(), vec![1, 8, 8]);
    }

    #[test]
    fn decode_paths() {
        let s = EncodedTensor::from_strings(&["b", "a"]);
        assert_eq!(s.decode_strings(), vec!["b", "a"]);
        assert_eq!(s.decode_i64().to_vec(), vec![1, 0]);

        let pe = EncodedTensor::Pe(PeTensor::from_class_ids(
            &Tensor::from_vec(vec![1i64, 0], &[2]),
            PeTensor::range_classes(2),
        ));
        assert_eq!(pe.decode_f32().to_vec(), vec![1.0, 0.0]);
    }

    #[test]
    fn filter_preserves_encoding() {
        let s = EncodedTensor::from_strings(&["x", "y", "z"]);
        let mask = Tensor::from_vec(vec![true, false, true], &[3]);
        let f = s.filter_rows(&mask);
        assert_eq!(f.kind(), EncodingKind::Dictionary);
        assert_eq!(f.decode_strings(), vec!["x", "z"]);

        // Rows read out of an integer-compressed column are plain i64.
        let rle = EncodedTensor::Rle(RleColumn::encode(&Tensor::from_vec(vec![7i64, 7, 8], &[3])));
        let fr = rle.filter_rows(&mask);
        assert_eq!(fr.kind(), EncodingKind::PlainI64);
        assert_eq!(fr.decode_i64().to_vec(), vec![7, 8]);
    }

    #[test]
    fn slice_rows_preserves_encoding_and_values() {
        let s = EncodedTensor::from_strings(&["a", "b", "c", "d"]);
        let sl = s.slice_rows(1, 3);
        assert_eq!(sl.decode_strings(), vec!["b", "c"]);
        match (&s, &sl) {
            (EncodedTensor::Dict { dict: d0, .. }, EncodedTensor::Dict { dict: d1, .. }) => {
                assert!(Arc::ptr_eq(d0, d1), "slices share the parent dictionary");
            }
            other => panic!("expected dict slices, got {other:?}"),
        }
        let f = EncodedTensor::F32(Tensor::from_vec(vec![0.0f32; 8], &[4, 2]));
        assert_eq!(f.slice_rows(1, 3).decode_f32().shape(), &[2, 2]);
        assert_eq!(f.slice_rows(3, 99).rows(), 1, "end clamps");
        assert_eq!(f.slice_rows(9, 99).rows(), 0, "empty past the end");
        let rle = EncodedTensor::Rle(RleColumn::encode(&Tensor::from_vec(
            vec![7i64, 7, 8, 8],
            &[4],
        )));
        assert_eq!(rle.slice_rows(1, 4).decode_i64().to_vec(), vec![7, 8, 8]);
    }

    #[test]
    fn concat_preserves_encodings_and_exact_values() {
        // Same-dict pieces concatenate codes and share the dictionary.
        let s = EncodedTensor::from_strings(&["x", "y", "x", "z"]);
        let (a, b) = (s.slice_rows(0, 2), s.slice_rows(2, 4));
        let joined = EncodedTensor::concat(&[&a, &b]);
        assert_eq!(joined.kind(), EncodingKind::Dictionary);
        assert_eq!(joined.decode_strings(), vec!["x", "y", "x", "z"]);
        // Plain i64 pieces stay plain.
        let i = EncodedTensor::from_i64_slice(&[1, 2]);
        let j = EncodedTensor::from_i64_slice(&[3]);
        assert_eq!(
            EncodedTensor::concat(&[&i, &j]).kind(),
            EncodingKind::PlainI64
        );
        // Heterogeneous pieces decode to exact strings: i64 above 2^24
        // must not round through f32.
        let big = EncodedTensor::from_i64_slice(&[16_777_217]);
        let f = EncodedTensor::from_f32_slice(&[0.5]);
        let mixed = EncodedTensor::concat(&[&big, &f]);
        assert_eq!(mixed.decode_strings(), vec!["16777217", "0.5"]);
    }

    /// The buffer a same-layout append grows, as an address.
    fn buffer(c: &EncodedTensor) -> *const u8 {
        match c {
            EncodedTensor::F32(t) => t.data().as_ptr().cast(),
            EncodedTensor::I64(t) | EncodedTensor::Dict { codes: t, .. } => {
                t.data().as_ptr().cast()
            }
            EncodedTensor::Bool(t) => t.data().as_ptr().cast(),
            EncodedTensor::Pe(p) => p.probs().data().as_ptr().cast(),
            other => panic!("no growable buffer in {other:?}"),
        }
    }

    #[test]
    fn append_is_concat_and_grows_one_layout_in_place() {
        let s = EncodedTensor::from_strings(&["x", "y", "z", "x"]);
        let ids = |v: Vec<i64>| Tensor::from_vec(v.clone(), &[v.len()]);
        let pe = |v: Vec<i64>, c: usize| {
            EncodedTensor::Pe(PeTensor::from_class_ids(
                &ids(v),
                PeTensor::range_classes(c),
            ))
        };
        let rle = |v: Vec<i64>| EncodedTensor::Rle(RleColumn::encode(&ids(v)));
        // (stored, appended, whether the pair grows in place)
        let pairs = [
            (
                EncodedTensor::from_f32_slice(&[1.0, 2.0]),
                EncodedTensor::from_f32_slice(&[3.0]),
                true,
            ),
            (
                EncodedTensor::F32(Tensor::zeros(&[2, 3])),
                EncodedTensor::F32(Tensor::ones(&[1, 3])),
                true,
            ),
            (
                EncodedTensor::from_i64_slice(&[1, 2]),
                EncodedTensor::from_i64_slice(&[3]),
                true,
            ),
            (
                EncodedTensor::Bool(Tensor::from_vec(vec![true, false], &[2])),
                EncodedTensor::Bool(Tensor::from_vec(vec![true], &[1])),
                true,
            ),
            (s.slice_rows(0, 3), s.slice_rows(3, 4), true),
            (pe(vec![0, 1], 2), pe(vec![1], 2), true),
            // Distinct dictionaries, distinct classes and the integer
            // family re-encode, exactly as `concat` does.
            (
                EncodedTensor::from_strings(&["b"]),
                EncodedTensor::from_strings(&["a"]),
                false,
            ),
            (pe(vec![0, 1], 2), pe(vec![2], 3), false),
            (
                rle(vec![7, 7, 8]),
                EncodedTensor::from_i64_slice(&[8, 9]),
                false,
            ),
            (
                EncodedTensor::from_i64_slice(&[1, 2]),
                rle(vec![3, 3]),
                false,
            ),
        ];
        for (stored, more, in_place) in pairs {
            let want = EncodedTensor::concat(&[&stored, &more]);
            let before = format!("{stored:?}");
            // A column sharing its buffers with `stored` copies them.
            let mut grown = stored.clone();
            assert!(!grown.appends_in_place(&more), "{before}: shared");
            grown.append(&more);
            assert_eq!(format!("{grown:?}"), format!("{want:?}"));
            assert_eq!(grown.rows(), stored.rows() + more.rows());
            assert_eq!(
                format!("{stored:?}"),
                before,
                "the other holder keeps its rows"
            );
            // The copy left room: the next append grows where it is.
            assert_eq!(grown.appends_in_place(&more), in_place, "{want:?}");
            if in_place {
                let at = buffer(&grown);
                grown.append(&more);
                assert_eq!(buffer(&grown), at, "{want:?}");
                assert_eq!(
                    format!("{grown:?}"),
                    format!("{:?}", EncodedTensor::concat(&[&want, &more]))
                );
            }
        }
    }

    #[test]
    fn can_append_keeps_the_column_type() {
        let f = |shape: &[usize]| EncodedTensor::F32(Tensor::zeros(shape));
        let int = EncodedTensor::from_i64_slice(&[1, 2]);
        let rle = EncodedTensor::Rle(RleColumn::encode(&Tensor::from_vec(vec![7i64, 7], &[2])));
        let s = EncodedTensor::from_strings(&["a"]);
        let pe = EncodedTensor::Pe(PeTensor::from_class_ids(
            &Tensor::from_vec(vec![0i64], &[1]),
            PeTensor::range_classes(2),
        ));
        let flags = EncodedTensor::Bool(Tensor::from_vec(vec![true], &[1]));
        assert!(
            int.can_append(&rle) && rle.can_append(&int),
            "the integer family"
        );
        assert!(f(&[3, 4]).can_append(&f(&[1, 4])));
        assert!(!f(&[3, 4]).can_append(&f(&[1, 8])), "row shapes differ");
        assert!(!f(&[3]).can_append(&f(&[1, 4])));
        assert!(!int.can_append(&f(&[2])) && !f(&[2]).can_append(&int));
        assert!(s.can_append(&EncodedTensor::from_strings(&["b"])));
        assert!(!s.can_append(&int) && !int.can_append(&s));
        assert!(pe.can_append(&pe) && !pe.can_append(&f(&[1])));
        assert!(flags.can_append(&flags) && !flags.can_append(&int));
    }

    #[test]
    fn select_rows_reorders_all_encodings() {
        let idx = Tensor::from_vec(vec![2i64, 0], &[2]);
        let f = EncodedTensor::from_f32_slice(&[10.0, 20.0, 30.0]).select_rows(&idx);
        assert_eq!(f.decode_f32().to_vec(), vec![30.0, 10.0]);
        let d = EncodedTensor::from_strings(&["p", "q", "r"]).select_rows(&idx);
        assert_eq!(d.decode_strings(), vec!["r", "p"]);
    }

    #[test]
    fn head_slices_all_encodings() {
        let f = EncodedTensor::from_f32_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(f.head(2).decode_f32().to_vec(), vec![1.0, 2.0]);
        assert_eq!(f.head(9).rows(), 3, "clamps");
        let s = EncodedTensor::from_strings(&["x", "y", "z"]);
        assert_eq!(s.head(2).decode_strings(), vec!["x", "y"]);
        assert_eq!(s.head(2).kind(), EncodingKind::Dictionary);
        let rle = EncodedTensor::Rle(RleColumn::encode(&Tensor::from_vec(
            vec![7i64, 7, 8, 8],
            &[4],
        )));
        assert_eq!(rle.head(3).decode_i64().to_vec(), vec![7, 7, 8]);
        // Payload columns keep their trailing shape.
        let img = EncodedTensor::F32(Tensor::zeros(&[4, 2, 2]));
        assert_eq!(img.head(1).decode_f32().shape(), &[1, 2, 2]);
        let pe = EncodedTensor::Pe(PeTensor::from_class_ids(
            &Tensor::from_vec(vec![1i64, 0, 1], &[3]),
            PeTensor::range_classes(2),
        ));
        assert_eq!(pe.head(2).decode_f32().to_vec(), vec![1.0, 0.0]);
    }

    #[test]
    fn memory_accounting_favours_compression() {
        let repetitive: Vec<i64> = vec![3; 10_000];
        let plain = EncodedTensor::I64(Tensor::from_vec(repetitive.clone(), &[10_000]));
        let rle = EncodedTensor::Rle(RleColumn::encode(&plain.decode_i64()));
        assert!(rle.memory_bytes() * 100 < plain.memory_bytes());
    }

    #[test]
    fn device_movement_keeps_values() {
        let c = EncodedTensor::from_f32_slice(&[1.0, 2.0]);
        let moved = c.to_device(tdp_tensor::Device::Accel(2));
        assert_eq!(moved.decode_f32().to_vec(), vec![1.0, 2.0]);
        match moved {
            EncodedTensor::F32(t) => assert!(t.device().is_accel()),
            _ => panic!("encoding changed"),
        }
    }
}
