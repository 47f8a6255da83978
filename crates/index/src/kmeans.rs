//! Lloyd's k-means over tensor rows — the coarse quantizer of IVF.

use tdp_tensor::linalg::sq_dist;
use tdp_tensor::{F32Tensor, Rng64, Tensor};

use crate::metric::normalize_rows;
use crate::Metric;

/// Output of [`kmeans`]: centroids plus the final assignment.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// `[k, d]` centroid matrix.
    pub centroids: F32Tensor,
    /// Cluster id per input row, `[n]`.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of rows to their centroid (inertia) at
    /// convergence — useful for picking `nlist`.
    pub inertia: f64,
    /// Iterations actually run (≤ `max_iters`; stops early on a fixed
    /// point).
    pub iterations: usize,
}

/// Lloyd's algorithm with k-means++-style seeding (first centroid uniform,
/// subsequent centroids sampled proportionally to squared distance).
///
/// `metric` only affects preprocessing: for [`Metric::Cosine`] the rows are
/// L2-normalised first (spherical k-means); clustering itself is Euclidean,
/// which is the standard IVF construction.
///
/// Distances — seeding, assignment and inertia — are f32, through the
/// `tdp_tensor::linalg::sq_dist` row kernel (the one `Metric::L2` scores
/// with); a row goes to its nearest centroid, ties to the lowest id. The
/// centroid update and the seeding weights and inertia totals are summed
/// in f64.
pub fn kmeans(
    data: &F32Tensor,
    k: usize,
    max_iters: usize,
    metric: Metric,
    rng: &mut Rng64,
) -> KMeansResult {
    assert_eq!(data.ndim(), 2, "kmeans expects [n, d] data");
    let n = data.shape()[0];
    let d = data.shape()[1];
    assert!(k >= 1, "k must be at least 1");
    assert!(n >= k, "cannot build {k} clusters from {n} rows");

    let work = if metric.wants_normalized() {
        normalize_rows(data)
    } else {
        data.clone()
    };
    let rows = work.data();
    let row = |i: usize| &rows[i * d..(i + 1) * d];

    // --- k-means++ seeding -------------------------------------------------
    let mut centroids: Vec<f32> = Vec::with_capacity(k * d);
    let first = rng.below(n);
    centroids.extend_from_slice(row(first));
    let mut min_d2 = vec![f64::INFINITY; n];
    for c in 1..k {
        // Update min distance to the newest centroid.
        let newest = &centroids[(c - 1) * d..c * d];
        for (i, md) in min_d2.iter_mut().enumerate() {
            *md = md.min(f64::from(sq_dist(row(i), newest)));
        }
        let total: f64 = min_d2.iter().sum();
        let pick = if total <= 0.0 {
            rng.below(n)
        } else {
            let mut target = rng.uniform() * total;
            let mut chosen = n - 1;
            for (i, &w) in min_d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.extend_from_slice(row(pick));
    }

    // --- Lloyd iterations ---------------------------------------------------
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..max_iters.max(1) {
        iterations = it + 1;
        // Assign step.
        let mut changed = false;
        for (i, slot) in assignments.iter_mut().enumerate() {
            let best = nearest(row(i), &centroids, d);
            if *slot != best {
                *slot = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // Update step. Empty clusters keep their previous centroid.
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignments[i];
            counts[c] += 1;
            for j in 0..d {
                sums[c * d + j] += rows[i * d + j] as f64;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..d {
                    centroids[c * d + j] = (sums[c * d + j] / counts[c] as f64) as f32;
                }
            }
        }
    }

    let inertia = assignments
        .iter()
        .enumerate()
        .map(|(i, &c)| f64::from(sq_dist(row(i), &centroids[c * d..(c + 1) * d])))
        .sum();

    KMeansResult {
        centroids: Tensor::from_vec(centroids, &[k, d]),
        assignments,
        inertia,
        iterations,
    }
}

/// Id of the centroid (rows of the flat `[k, d]` `centroids`) nearest to
/// `row` by [`sq_dist`]; ties go to the lowest id.
fn nearest(row: &[f32], centroids: &[f32], d: usize) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, cent) in centroids.chunks_exact(d.max(1)).enumerate() {
        let dist = sq_dist(row, cent);
        if dist < best_d {
            best_d = dist;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs around (0,0) and (10,10).
    fn blobs(rng: &mut Rng64) -> F32Tensor {
        let mut v = Vec::new();
        for i in 0..40 {
            let cx = if i < 20 { 0.0 } else { 10.0 };
            v.push((cx + rng.normal() * 0.3) as f32);
            v.push((cx + rng.normal() * 0.3) as f32);
        }
        Tensor::from_vec(v, &[40, 2])
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = Rng64::new(3);
        let data = blobs(&mut rng);
        let r = kmeans(&data, 2, 20, Metric::L2, &mut rng);
        assert_eq!(r.centroids.shape(), &[2, 2]);
        // All first-blob points share a cluster; all second-blob points the other.
        let first = r.assignments[0];
        assert!(r.assignments[..20].iter().all(|&a| a == first));
        assert!(r.assignments[20..].iter().all(|&a| a != first));
        // Centroids land near the blob centers.
        let c = r.centroids.data();
        let near_zero = c.chunks(2).any(|p| p[0].abs() < 1.0 && p[1].abs() < 1.0);
        let near_ten = c.chunks(2).any(|p| (p[0] - 10.0).abs() < 1.0);
        assert!(near_zero && near_ten, "centroids {c:?}");
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = Rng64::new(11);
        let data = F32Tensor::randn(&[100, 4], 0.0, 1.0, &mut rng);
        let r2 = kmeans(&data, 2, 25, Metric::L2, &mut rng.fork());
        let r8 = kmeans(&data, 8, 25, Metric::L2, &mut rng.fork());
        assert!(r8.inertia < r2.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let mut rng = Rng64::new(5);
        let data = F32Tensor::randn(&[6, 3], 0.0, 1.0, &mut rng);
        let r = kmeans(&data, 6, 30, Metric::L2, &mut rng);
        assert!(r.inertia < 1e-6, "inertia {}", r.inertia);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut r1 = Rng64::new(42);
        let mut r2 = Rng64::new(42);
        let data = F32Tensor::randn(&[50, 3], 0.0, 1.0, &mut Rng64::new(1));
        let a = kmeans(&data, 4, 15, Metric::L2, &mut r1);
        let b = kmeans(&data, 4, 15, Metric::L2, &mut r2);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.to_vec(), b.centroids.to_vec());
    }

    #[test]
    fn converged_rows_sit_in_their_nearest_cell() {
        let mut rng = Rng64::new(8);
        let data = F32Tensor::randn(&[300, 19], 0.0, 1.0, &mut rng);
        let r = kmeans(&data, 6, 200, Metric::L2, &mut rng);
        assert!(r.iterations < 200, "did not converge");
        let (rows, cents) = (data.data(), r.centroids.data());
        for (i, &a) in r.assignments.iter().enumerate() {
            let row = &rows[i * 19..(i + 1) * 19];
            let dists: Vec<f32> = cents.chunks(19).map(|c| sq_dist(row, c)).collect();
            let best = (0..6).fold(0, |b, c| if dists[c] < dists[b] { c } else { b });
            assert_eq!(a, best, "row {i}: {dists:?}");
        }
        let inertia: f64 = r
            .assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                f64::from(sq_dist(
                    &rows[i * 19..(i + 1) * 19],
                    &cents[c * 19..(c + 1) * 19],
                ))
            })
            .sum();
        assert_eq!(inertia, r.inertia);
    }

    #[test]
    fn ties_go_to_the_lowest_centroid() {
        let data = F32Tensor::full(&[5, 3], 2.0);
        let r = kmeans(&data, 3, 5, Metric::L2, &mut Rng64::new(1));
        assert_eq!(r.assignments, vec![0; 5]);
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot build")]
    fn more_clusters_than_rows_panics() {
        let data = F32Tensor::zeros(&[2, 2]);
        kmeans(&data, 3, 5, Metric::L2, &mut Rng64::new(0));
    }
}
