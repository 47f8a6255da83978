//! # tdp-index
//!
//! Vector indexing for the Tensor Data Platform. The paper's §5.1 closes
//! with *"We are currently integrating approximate indexing \[Milvus\] into
//! TDP for speeding up top-k queries"* — this crate is that feature:
//!
//! * [`FlatIndex`] — exact brute-force top-k over an embedding matrix,
//!   expressed as tensor kernels (one fused row-kernel pass + top-k
//!   selection). This is what an un-indexed `ORDER BY score DESC LIMIT k`
//!   query executes.
//! * [`IvfFlatIndex`] — the classic IVF-Flat approximate index: k-means
//!   partitions the vectors into `nlist` cells; a query probes only the
//!   `nprobe` nearest cells, trading recall for latency.
//! * [`Metric`] — inner-product, cosine and (negated) Euclidean scoring.
//! * [`recall_at_k`] — evaluation helper comparing an approximate result
//!   list against exact ground truth.
//!
//! ```
//! use tdp_index::{FlatIndex, IvfFlatIndex, IvfParams, Metric};
//! use tdp_tensor::{Rng64, Tensor};
//!
//! let mut rng = Rng64::new(7);
//! let data = Tensor::<f32>::randn(&[256, 16], 0.0, 1.0, &mut rng);
//! let exact = FlatIndex::build(data.clone(), Metric::Cosine);
//! let ivf = IvfFlatIndex::train(data, Metric::Cosine, IvfParams::new(16), &mut rng);
//!
//! let q = Tensor::<f32>::randn(&[16], 0.0, 1.0, &mut rng);
//! let truth = exact.search(&q, 10);
//! let approx = ivf.search(&q, 10, 4);
//! assert!(tdp_index::recall_at_k(&truth, &approx) >= 0.5);
//! ```

mod flat;
mod ivf;
mod kmeans;
mod metric;

pub use flat::FlatIndex;
pub use ivf::{IvfFlatIndex, IvfParams};
pub use kmeans::{kmeans, KMeansResult};
pub use metric::Metric;

/// One search hit: the row id of the vector and its score under the
/// index's metric (higher is better for every metric — L2 is negated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub id: usize,
    pub score: f32,
}

/// Fraction of the exact top-k ids that the approximate result recovered.
///
/// The conventional recall@k of the ANN literature: order is ignored,
/// only membership counts. Returns 1.0 for two empty lists.
pub fn recall_at_k(exact: &[Hit], approx: &[Hit]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let found = exact
        .iter()
        .filter(|e| approx.iter().any(|a| a.id == e.id))
        .count();
    found as f64 / exact.len() as f64
}

/// Keep the k best hits: descending score under IEEE 754's total order
/// (`f32::total_cmp`: NaN of either sign, ±∞ and ±0 each in their place),
/// ties broken by id. Shared by the flat and IVF search paths.
///
/// It is the order the SQL sort gives the same expression, whose f32
/// keys compare by the same total order with ties by row position: a
/// similarity score sorted descending, and `distance` (the L2 score with
/// its sign flipped, which reverses the total order) ascending. So
/// `ORDER BY distance(emb, ?) LIMIT k` returns the same rows in the same
/// order from this leaf as from a scan and a sort, NaN scores included.
///
/// Uses partial selection rather than a full sort: only the k best hits
/// are moved to the front (O(n) expected), then just that prefix is
/// sorted. For top-k over a large candidate set this is the dominant
/// non-kernel cost, and k is typically orders of magnitude below n.
pub(crate) fn top_k(mut hits: Vec<Hit>, k: usize) -> Vec<Hit> {
    let cmp = |a: &Hit, b: &Hit| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id));
    if k == 0 {
        return Vec::new();
    }
    if k < hits.len() {
        hits.select_nth_unstable_by(k - 1, cmp);
        hits.truncate(k);
    }
    hits.sort_by(cmp);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_of_identical_lists_is_one() {
        let hits = vec![Hit { id: 1, score: 0.9 }, Hit { id: 2, score: 0.5 }];
        assert_eq!(recall_at_k(&hits, &hits), 1.0);
    }

    #[test]
    fn recall_counts_membership_not_order() {
        let exact = vec![Hit { id: 1, score: 0.9 }, Hit { id: 2, score: 0.5 }];
        let approx = vec![Hit { id: 2, score: 0.4 }, Hit { id: 3, score: 0.3 }];
        assert_eq!(recall_at_k(&exact, &approx), 0.5);
    }

    #[test]
    fn recall_of_empty_truth_is_one() {
        assert_eq!(recall_at_k(&[], &[Hit { id: 0, score: 1.0 }]), 1.0);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let hits = vec![
            Hit { id: 0, score: 0.1 },
            Hit { id: 1, score: 0.9 },
            Hit { id: 2, score: 0.5 },
        ];
        let top = top_k(hits, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id, 1);
        assert_eq!(top[1].id, 2);
    }

    /// NaN scores of both signs, ±∞ and ±0 among finite ones: every k
    /// gives the total order's prefix, where a comparison that calls
    /// NaN equal to everything once panicked the sort.
    #[test]
    fn top_k_ranks_nan_scores_by_the_total_order() {
        let neg_nan = f32::from_bits(0xffc0_0000);
        let scores = [
            0.5,
            f32::NAN,
            -1.0,
            neg_nan,
            f32::INFINITY,
            0.0,
            -0.0,
            f32::NEG_INFINITY,
            0.5,
            f32::NAN,
            2.0,
        ];
        let hits: Vec<Hit> = (scores.iter().enumerate())
            .map(|(id, &score)| Hit { id, score })
            .collect();
        let want = [1, 9, 4, 10, 0, 8, 5, 6, 2, 7, 3];
        for k in 0..=hits.len() + 1 {
            let ids: Vec<usize> = top_k(hits.clone(), k).iter().map(|h| h.id).collect();
            assert_eq!(ids, want[..k.min(want.len())], "k = {k}");
        }
    }

    #[test]
    fn top_k_breaks_score_ties_by_id() {
        let hits = vec![Hit { id: 5, score: 0.5 }, Hit { id: 2, score: 0.5 }];
        let top = top_k(hits, 2);
        assert_eq!(top[0].id, 2);
        assert_eq!(top[1].id, 5);
    }
}
