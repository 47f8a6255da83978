//! Exact brute-force search: the un-indexed baseline.

use tdp_tensor::F32Tensor;

use crate::{top_k, Hit, Metric};

/// An exact top-k index: scores every stored vector against the query with
/// one tensor kernel pass. This is precisely what the paper's multimodal
/// top-k query (`ORDER BY score DESC LIMIT 2`) executes without an index,
/// and it is the ground truth [`crate::IvfFlatIndex`] is measured against.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    data: F32Tensor,
    metric: Metric,
}

impl FlatIndex {
    /// Wrap an `[n, d]` embedding matrix.
    pub fn build(data: F32Tensor, metric: Metric) -> FlatIndex {
        assert_eq!(data.ndim(), 2, "FlatIndex expects [n, d] data");
        FlatIndex { data, metric }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.shape()[0]
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.data.shape()[1]
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Exact top-k: best `k` rows by metric score, descending.
    pub fn search(&self, query: &F32Tensor, k: usize) -> Vec<Hit> {
        let scores = self.metric.scores(&self.data, query);
        let hits = scores
            .data()
            .iter()
            .enumerate()
            .map(|(id, &score)| Hit { id, score })
            .collect();
        top_k(hits, k)
    }

    /// Scores for every stored vector (used by SQL execution when the full
    /// score column is projected rather than only the top-k rows).
    pub fn all_scores(&self, query: &F32Tensor) -> F32Tensor {
        self.metric.scores(&self.data, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_tensor::{Rng64, Tensor};

    fn index() -> FlatIndex {
        // Rows 0..4 along one axis with growing magnitude.
        let data = Tensor::from_vec(vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 1.0], &[4, 2]);
        FlatIndex::build(data, Metric::InnerProduct)
    }

    #[test]
    fn exact_topk_orders_by_score() {
        let hits = index().search(&Tensor::from_vec(vec![1.0, 0.0], &[2]), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[0].score, 3.0);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let hits = index().search(&Tensor::from_vec(vec![1.0, 0.0], &[2]), 10);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn k_zero_returns_nothing() {
        let hits = index().search(&Tensor::from_vec(vec![1.0, 0.0], &[2]), 0);
        assert!(hits.is_empty());
    }

    #[test]
    fn l2_metric_prefers_nearest() {
        let data = Tensor::from_vec(vec![0.0, 0.0, 5.0, 5.0], &[2, 2]);
        let idx = FlatIndex::build(data, Metric::L2);
        let hits = idx.search(&Tensor::from_vec(vec![4.0, 4.0], &[2]), 1);
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn all_scores_matches_search_order() {
        let mut rng = Rng64::new(9);
        let data = F32Tensor::randn(&[32, 8], 0.0, 1.0, &mut rng);
        let idx = FlatIndex::build(data, Metric::Cosine);
        let q = F32Tensor::randn(&[8], 0.0, 1.0, &mut rng);
        let scores = idx.all_scores(&q);
        let best = idx.search(&q, 1)[0];
        let argmax = scores
            .data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best.id, argmax);
    }
}
