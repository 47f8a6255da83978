//! Probability Encoding (PE).
//!
//! PE attaches *structured* information to numerical data (paper §2): a
//! column is stored as a `[N, C]` row-stochastic probability tensor, where
//! column `c` carries the probability that the row's value is
//! `class_values[c]`. Classifier TVFs emit PE columns; the differentiable
//! `soft_groupby` / `soft_count` operators consume them using only additions
//! and multiplications (paper §4), and exact operators decode them by
//! argmax at inference time, eliminating the approximation error.

use tdp_tensor::{F32Tensor, I64Tensor};

/// A probability-encoded column.
#[derive(Debug, Clone, PartialEq)]
pub struct PeTensor {
    /// `[N, C]`, each row a probability distribution over the classes.
    probs: F32Tensor,
    /// The numeric value represented by each class column (`[C]`).
    class_values: F32Tensor,
}

impl PeTensor {
    /// Wrap an already-normalised probability matrix.
    ///
    /// Panics if shapes disagree; rows are validated to sum to ~1 in debug
    /// builds (training-time soft outputs come straight from a softmax, so
    /// the check is redundant but cheap insurance against misuse).
    pub fn new(probs: F32Tensor, class_values: F32Tensor) -> PeTensor {
        assert_eq!(probs.ndim(), 2, "PE probabilities must be [N, C]");
        assert_eq!(class_values.ndim(), 1, "class values must be [C]");
        assert_eq!(
            probs.shape()[1],
            class_values.numel(),
            "one class value per probability column"
        );
        debug_assert!(
            probs.rows() == 0
                || probs
                    .sum_dim(1, false)
                    .data()
                    .iter()
                    .all(|&s| (s - 1.0).abs() < 1e-3),
            "PE rows must be (approximately) stochastic"
        );
        PeTensor {
            probs,
            class_values,
        }
    }

    /// Encode raw classifier logits: softmax-normalise then wrap.
    pub fn from_logits(logits: &F32Tensor, class_values: F32Tensor) -> PeTensor {
        PeTensor::new(logits.softmax(1), class_values)
    }

    /// Encode exact class ids as one-hot PE (the lossless embedding of
    /// exact data into the soft domain).
    pub fn from_class_ids(ids: &I64Tensor, class_values: F32Tensor) -> PeTensor {
        let onehot = tdp_tensor::index::one_hot(ids, class_values.numel());
        PeTensor::new(onehot, class_values)
    }

    /// Default class values `0..c` (digit-style labels).
    pub fn range_classes(c: usize) -> F32Tensor {
        F32Tensor::arange(c)
    }

    pub fn probs(&self) -> &F32Tensor {
        &self.probs
    }

    /// The probability rows, to grow by rows of the same classes.
    pub(crate) fn probs_mut(&mut self) -> &mut F32Tensor {
        &mut self.probs
    }

    pub fn class_values(&self) -> &F32Tensor {
        &self.class_values
    }

    pub fn rows(&self) -> usize {
        self.probs.rows()
    }

    pub fn num_classes(&self) -> usize {
        self.class_values.numel()
    }

    /// Exact decode: argmax class id per row.
    pub fn decode_ids(&self) -> I64Tensor {
        self.probs.argmax_dim(1)
    }

    /// Exact decode: the numeric class value per row (`[N]` f32).
    pub fn decode_values(&self) -> F32Tensor {
        self.class_values.select_rows(&self.decode_ids())
    }

    /// Soft decode: the expected value per row, `E[v] = Σ p_c · v_c`.
    /// Differentiable counterpart of [`PeTensor::decode_values`].
    pub fn expected_values(&self) -> F32Tensor {
        self.probs.matvec(&self.class_values)
    }

    /// Soft per-class count: column sums of the probability matrix — the
    /// paper's `soft_count` for a single-column GROUP BY.
    pub fn soft_counts(&self) -> F32Tensor {
        self.probs.sum_dim(0, false)
    }

    /// Restrict to a subset of rows, preserving the encoding.
    pub fn select_rows(&self, idx: &I64Tensor) -> PeTensor {
        PeTensor {
            probs: self.probs.select_rows(idx),
            class_values: self.class_values.clone(),
        }
    }

    /// Largest per-row probability (confidence); useful for filters like
    /// `WHERE confidence > θ`.
    pub fn confidence(&self) -> F32Tensor {
        self.probs.max_dim(1, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_tensor::Tensor;

    fn pe_2rows() -> PeTensor {
        // Row 0 favours class 2, row 1 favours class 0.
        let probs = Tensor::from_vec(vec![0.1, 0.2, 0.7, /* row 1 */ 0.8, 0.1, 0.1], &[2, 3]);
        PeTensor::new(probs, PeTensor::range_classes(3))
    }

    #[test]
    fn shapes_and_metadata() {
        let pe = pe_2rows();
        assert_eq!(pe.rows(), 2);
        assert_eq!(pe.num_classes(), 3);
        assert_eq!(pe.class_values().to_vec(), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn exact_decode_argmax() {
        let pe = pe_2rows();
        assert_eq!(pe.decode_ids().to_vec(), vec![2, 0]);
        assert_eq!(pe.decode_values().to_vec(), vec![2.0, 0.0]);
    }

    #[test]
    fn expected_value_is_probability_weighted() {
        let pe = pe_2rows();
        let ev = pe.expected_values();
        assert!((ev.at(0) - (0.2 + 1.4)).abs() < 1e-6);
        assert!((ev.at(1) - (0.1 + 0.2)).abs() < 1e-6);
    }

    #[test]
    fn soft_counts_sum_to_row_count() {
        let pe = pe_2rows();
        let counts = pe.soft_counts();
        assert_eq!(counts.numel(), 3);
        assert!((counts.sum() - 2.0).abs() < 1e-6, "probability mass = rows");
    }

    #[test]
    fn one_hot_round_trip_soft_equals_exact() {
        // On one-hot PE, soft aggregation must agree exactly with counting.
        let ids = Tensor::from_vec(vec![2i64, 2, 0, 1, 2], &[5]);
        let pe = PeTensor::from_class_ids(&ids, PeTensor::range_classes(3));
        assert_eq!(pe.soft_counts().to_vec(), vec![1.0, 1.0, 3.0]);
        assert_eq!(pe.decode_ids().to_vec(), ids.to_vec());
    }

    #[test]
    fn from_logits_normalises() {
        let logits = Tensor::from_vec(vec![0.0f32, 10.0, -10.0, 0.0], &[2, 2]);
        let pe = PeTensor::from_logits(&logits, PeTensor::range_classes(2));
        let sums = pe.probs().sum_dim(1, false);
        assert!(sums.data().iter().all(|&s| (s - 1.0).abs() < 1e-5));
        assert_eq!(pe.decode_ids().to_vec(), vec![1, 1]);
    }

    #[test]
    fn select_rows_preserves_classes() {
        let pe = pe_2rows();
        let sel = pe.select_rows(&Tensor::from_vec(vec![1i64], &[1]));
        assert_eq!(sel.rows(), 1);
        assert_eq!(sel.decode_ids().to_vec(), vec![0]);
        assert_eq!(sel.class_values(), pe.class_values());
    }

    #[test]
    fn confidence_is_row_max() {
        let pe = pe_2rows();
        let c = pe.confidence();
        assert!((c.at(0) - 0.7).abs() < 1e-6);
        assert!((c.at(1) - 0.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "one class value per probability column")]
    fn class_value_arity_checked() {
        PeTensor::new(Tensor::ones(&[1, 3]), Tensor::ones(&[2]));
    }
}
