//! Similarity metrics for vector search.

use tdp_tensor::linalg::{dot_and_sq_norm, sq_dist};
use tdp_tensor::F32Tensor;

/// Floor of a norm a vector is divided by, so zero rows score (and
/// normalise to) zero rather than NaN.
const NORM_EPS: f32 = 1e-12;

/// How query/vector similarity is scored. All metrics are oriented so that
/// **higher scores are better**, which keeps `ORDER BY score DESC LIMIT k`
/// semantics uniform across metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Raw dot product `x·q` — what CLIP-style logit scoring uses.
    InnerProduct,
    /// Dot product of L2-normalised vectors.
    Cosine,
    /// Negated squared Euclidean distance `-(‖x-q‖²)`.
    L2,
}

impl Metric {
    /// Score every row of `data` (`[n, d]`) against `query` (`[d]`),
    /// returning `[n]` scores. One fused pass per row through the
    /// `tdp_tensor::linalg` row kernels, with no `[n, d]` temporary:
    /// inner product is a dot, L2 is `−Σ(x−q)²`, and cosine is
    /// `x·q̂ / max(‖x‖, 1e-12)` with the row's norm taken in the same pass
    /// (so a zero row, or a zero query, scores 0). A row's score depends
    /// only on the row and the query, never on its position in `data`.
    pub fn scores(self, data: &F32Tensor, query: &F32Tensor) -> F32Tensor {
        assert_eq!(data.ndim(), 2, "data must be [n, d]");
        assert_eq!(query.ndim(), 1, "query must be [d]");
        assert_eq!(data.shape()[1], query.numel(), "dimension mismatch");
        let rows = data.to(data.device().combine(query.device()));
        match self {
            Metric::InnerProduct => data.matvec(query),
            Metric::Cosine => {
                let qn = normalize_vec(query);
                let q = qn.data();
                rows.map_rows(|x| {
                    let (dot, sq_norm) = dot_and_sq_norm(x, q);
                    dot / sq_norm.sqrt().max(NORM_EPS)
                })
            }
            Metric::L2 => {
                let q = query.data();
                rows.map_rows(|x| -sq_dist(x, q))
            }
        }
    }

    /// Whether the metric scores through normalised vectors; IVF stores
    /// normalised copies up front for such metrics.
    pub(crate) fn wants_normalized(self) -> bool {
        matches!(self, Metric::Cosine)
    }
}

/// L2-normalise each row of a `[n, d]` matrix. Zero rows are left as-is.
pub(crate) fn normalize_rows(m: &F32Tensor) -> F32Tensor {
    m.normalize_rows(f64::from(NORM_EPS))
}

/// L2-normalise a single vector.
pub(crate) fn normalize_vec(v: &F32Tensor) -> F32Tensor {
    let n = (v.data().iter().map(|x| (x * x) as f64).sum::<f64>()).sqrt() as f32;
    if n <= NORM_EPS {
        v.clone()
    } else {
        v.div_scalar(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_tensor::Tensor;

    fn data() -> F32Tensor {
        Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2])
    }

    #[test]
    fn inner_product_scores() {
        let s = Metric::InnerProduct.scores(&data(), &Tensor::from_vec(vec![2.0, 1.0], &[2]));
        assert_eq!(s.to_vec(), vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let q1 = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let q2 = Tensor::from_vec(vec![10.0, 10.0], &[2]);
        let s1 = Metric::Cosine.scores(&data(), &q1);
        let s2 = Metric::Cosine.scores(&data(), &q2);
        assert!(s1.max_abs_diff(&s2) < 1e-6);
        // The parallel vector scores 1.
        assert!((s1.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn l2_score_is_negated_distance() {
        let q = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let s = Metric::L2.scores(&data(), &q);
        assert!((s.data()[0] - 0.0).abs() < 1e-6); // identical vector
        assert!((s.data()[1] + 2.0).abs() < 1e-6); // (1,0) vs (0,1): d² = 2
        assert!((s.data()[2] + 1.0).abs() < 1e-6); // (1,0) vs (1,1): d² = 1
    }

    /// Each metric's score of every row, computed in f64 from its
    /// definition.
    fn reference(metric: Metric, data: &F32Tensor, q: &F32Tensor) -> Vec<f64> {
        let q: Vec<f64> = q.data().iter().map(|&v| f64::from(v)).collect();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        data.data()
            .chunks(q.len())
            .map(|row| {
                let x: Vec<f64> = row.iter().map(|&v| f64::from(v)).collect();
                let dot: f64 = x.iter().zip(&q).map(|(a, b)| a * b).sum();
                match metric {
                    Metric::InnerProduct => dot,
                    Metric::L2 => -x
                        .iter()
                        .zip(&q)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>(),
                    Metric::Cosine => {
                        let (nx, nq) = (norm(&x), norm(&q));
                        if nx == 0.0 || nq == 0.0 {
                            0.0
                        } else {
                            dot / (nx * nq)
                        }
                    }
                }
            })
            .collect()
    }

    #[test]
    fn scores_match_an_f64_reference() {
        let mut rng = tdp_tensor::Rng64::new(17);
        let d = 67;
        let mut data = F32Tensor::randn(&[40, d], 0.0, 1.0, &mut rng).to_vec();
        data[5 * d..6 * d].fill(0.0); // a zero row
        let data = Tensor::from_vec(data, &[40, d]);
        let q = F32Tensor::randn(&[d], 0.0, 1.0, &mut rng);
        for metric in [Metric::InnerProduct, Metric::L2, Metric::Cosine] {
            let got = metric.scores(&data, &q);
            for (i, (&g, r)) in got
                .data()
                .iter()
                .zip(reference(metric, &data, &q))
                .enumerate()
            {
                assert!(
                    (f64::from(g) - r).abs() <= 1e-5 * r.abs().max(1.0),
                    "{metric:?} row {i}: {g} vs {r}"
                );
            }
            // A score depends on the row alone, not on where it sits.
            let row = Tensor::from_vec(data.data()[7 * d..8 * d].to_vec(), &[1, d]);
            assert_eq!(
                metric.scores(&row, &q).data()[0].to_bits(),
                got.data()[7].to_bits()
            );
        }
    }

    #[test]
    fn cosine_scores_zero_rows_and_zero_queries_as_zero() {
        let m = Tensor::from_vec(vec![0.0, 0.0, 3.0, 4.0], &[2, 2]);
        let s = Metric::Cosine.scores(&m, &Tensor::from_vec(vec![1.0, 0.0], &[2]));
        assert_eq!(s.data()[0], 0.0);
        assert!((s.data()[1] - 0.6).abs() < 1e-6);
        let s = Metric::Cosine.scores(&m, &F32Tensor::zeros(&[2]));
        assert_eq!(s.to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn normalize_rows_handles_zero_rows() {
        let m = Tensor::from_vec(vec![0.0, 0.0, 3.0, 4.0], &[2, 2]);
        let n = normalize_rows(&m);
        assert_eq!(&n.data()[..2], &[0.0, 0.0]);
        assert!((n.data()[2] - 0.6).abs() < 1e-6);
        assert!((n.data()[3] - 0.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        Metric::InnerProduct.scores(&data(), &Tensor::from_vec(vec![1.0], &[1]));
    }
}
