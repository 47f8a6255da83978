//! IVF-Flat: inverted-file index with flat (uncompressed) residuals.
//!
//! The approximate index of Milvus/FAISS lineage the paper names as its
//! in-progress top-k accelerator. Build: k-means over the vectors gives
//! `nlist` cells; each vector lands in the inverted list of its nearest
//! centroid. Search: score the query against the centroids, probe the
//! `nprobe` best cells, and run exact scoring only inside those lists.

use tdp_tensor::{F32Tensor, Rng64, Tensor};

use crate::kmeans::kmeans;
use crate::metric::normalize_rows;
use crate::{top_k, Hit, Metric};

/// Build-time parameters for [`IvfFlatIndex`].
#[derive(Debug, Clone, Copy)]
pub struct IvfParams {
    /// Number of k-means cells. Rule of thumb: `~sqrt(n)`.
    pub nlist: usize,
    /// Lloyd iterations for the coarse quantizer.
    pub train_iters: usize,
}

impl IvfParams {
    pub fn new(nlist: usize) -> IvfParams {
        IvfParams {
            nlist,
            train_iters: 20,
        }
    }

    pub fn train_iters(mut self, iters: usize) -> IvfParams {
        self.train_iters = iters;
        self
    }
}

/// The trained index. Immutable after construction (TDP is an analytical
/// engine; re-register + re-train to refresh).
#[derive(Debug, Clone)]
pub struct IvfFlatIndex {
    metric: Metric,
    /// `[nlist, d]` coarse centroids.
    centroids: F32Tensor,
    /// Per-cell row ids into the original data.
    lists: Vec<Vec<u32>>,
    /// Per-cell `[len, d]` vector slabs (normalised already for cosine).
    slabs: Vec<F32Tensor>,
    dim: usize,
    len: usize,
}

impl IvfFlatIndex {
    /// Train the coarse quantizer and build the inverted lists. Zero rows
    /// build an index with no cells, whose searches return no hits.
    pub fn train(
        data: F32Tensor,
        metric: Metric,
        params: IvfParams,
        rng: &mut Rng64,
    ) -> IvfFlatIndex {
        assert_eq!(data.ndim(), 2, "IvfFlatIndex expects [n, d] data");
        let n = data.shape()[0];
        let d = data.shape()[1];
        if n == 0 {
            return IvfFlatIndex {
                metric,
                centroids: Tensor::zeros(&[0, d]),
                lists: Vec::new(),
                slabs: Vec::new(),
                dim: d,
                len: 0,
            };
        }
        let nlist = params.nlist.clamp(1, n);

        let work = if metric.wants_normalized() {
            normalize_rows(&data)
        } else {
            data
        };
        let km = kmeans(&work, nlist, params.train_iters, Metric::L2, rng);

        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (row, &cell) in km.assignments.iter().enumerate() {
            lists[cell].push(row as u32);
        }
        let rows = work.data();
        let slabs = lists
            .iter()
            .map(|ids| {
                let mut buf = Vec::with_capacity(ids.len() * d);
                for &id in ids {
                    let id = id as usize;
                    buf.extend_from_slice(&rows[id * d..(id + 1) * d]);
                }
                Tensor::from_vec(buf, &[ids.len(), d])
            })
            .collect();

        IvfFlatIndex {
            metric,
            centroids: km.centroids,
            lists,
            slabs,
            dim: d,
            len: n,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Cell sizes — exposed for balance diagnostics and tests.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(Vec::len).collect()
    }

    /// Approximate top-k probing the `nprobe` most promising non-empty
    /// cells. `nprobe >= nlist` degenerates to exact search.
    pub fn search(&self, query: &F32Tensor, k: usize, nprobe: usize) -> Vec<Hit> {
        assert_eq!(query.numel(), self.dim, "query dimensionality mismatch");
        if self.lists.is_empty() {
            return Vec::new();
        }
        let nprobe = nprobe.clamp(1, self.nlist());

        // The query is normalised once here for cosine; the slabs already
        // hold normalised vectors, so inner product below is cosine.
        let q = if self.metric.wants_normalized() {
            crate::metric::normalize_vec(query)
        } else {
            query.clone()
        };

        // Rank the non-empty cells by centroid distance (L2 on the same
        // space k-means ran in — matching the build-side assignment rule),
        // a NaN score last, under a total order so the sort cannot panic.
        // An empty cell holds no candidate, so it takes no probe: a NaN
        // centroid, say, must not be passed over for empty cells that
        // kept their finite seeds.
        let cell_scores = Metric::L2.scores(&self.centroids, &q);
        let score = |c: usize| match cell_scores.data()[c] {
            s if s.is_nan() => f32::NEG_INFINITY,
            s => s,
        };
        let mut order: Vec<usize> = (0..self.nlist())
            .filter(|&c| !self.lists[c].is_empty())
            .collect();
        order.sort_by(|&a, &b| score(b).total_cmp(&score(a)));

        let scan_metric = match self.metric {
            Metric::Cosine => Metric::InnerProduct, // slabs pre-normalised
            m => m,
        };
        let mut hits = Vec::new();
        for &cell in order.iter().take(nprobe) {
            let scores = scan_metric.scores(&self.slabs[cell], &q);
            hits.extend(
                scores
                    .data()
                    .iter()
                    .zip(&self.lists[cell])
                    .map(|(&score, &id)| Hit {
                        id: id as usize,
                        score,
                    }),
            );
        }
        top_k(hits, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recall_at_k, FlatIndex};

    fn clustered_data(rng: &mut Rng64) -> F32Tensor {
        // 8 clusters of 32 points in 8-d.
        let mut v = Vec::new();
        for c in 0..8 {
            for _ in 0..32 {
                for j in 0..8 {
                    let center = if j == c { 5.0 } else { 0.0 };
                    v.push((center + rng.normal() * 0.2) as f32);
                }
            }
        }
        Tensor::from_vec(v, &[256, 8])
    }

    #[test]
    fn every_vector_lands_in_exactly_one_list() {
        let mut rng = Rng64::new(1);
        let data = clustered_data(&mut rng);
        let ivf = IvfFlatIndex::train(data, Metric::L2, IvfParams::new(8), &mut rng);
        let total: usize = ivf.list_sizes().iter().sum();
        assert_eq!(total, 256);
        let mut seen = vec![false; 256];
        for cell in 0..ivf.nlist() {
            for &id in &ivf.lists[cell] {
                assert!(!seen[id as usize], "row {id} in two lists");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_probe_matches_exact_search() {
        let mut rng = Rng64::new(2);
        let data = clustered_data(&mut rng);
        let flat = FlatIndex::build(data.clone(), Metric::L2);
        let ivf = IvfFlatIndex::train(data, Metric::L2, IvfParams::new(8), &mut rng);
        let q = F32Tensor::randn(&[8], 0.0, 2.0, &mut rng);
        let exact = flat.search(&q, 10);
        let approx = ivf.search(&q, 10, ivf.nlist());
        assert_eq!(
            exact.iter().map(|h| h.id).collect::<Vec<_>>(),
            approx.iter().map(|h| h.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let mut rng = Rng64::new(3);
        let data = clustered_data(&mut rng);
        let flat = FlatIndex::build(data.clone(), Metric::Cosine);
        let ivf = IvfFlatIndex::train(data, Metric::Cosine, IvfParams::new(16), &mut rng);
        let mut r1_sum = 0.0;
        let mut r8_sum = 0.0;
        for i in 0..10 {
            let q = F32Tensor::randn(&[8], 0.0, 2.0, &mut Rng64::new(100 + i));
            let truth = flat.search(&q, 10);
            r1_sum += recall_at_k(&truth, &ivf.search(&q, 10, 1));
            r8_sum += recall_at_k(&truth, &ivf.search(&q, 10, 8));
        }
        assert!(
            r8_sum >= r1_sum,
            "recall@nprobe=8 {r8_sum} < recall@nprobe=1 {r1_sum}"
        );
        assert!(
            r8_sum / 10.0 > 0.8,
            "recall with 8 probes too low: {}",
            r8_sum / 10.0
        );
    }

    #[test]
    fn probing_one_cell_on_clustered_queries_finds_the_cluster() {
        let mut rng = Rng64::new(4);
        let data = clustered_data(&mut rng);
        let ivf = IvfFlatIndex::train(data, Metric::L2, IvfParams::new(8), &mut rng);
        // Query at a cluster center: the probed cell must contain the hits.
        let mut q = vec![0.0f32; 8];
        q[3] = 5.0;
        let hits = ivf.search(&Tensor::from_vec(q, &[8]), 5, 1);
        assert_eq!(hits.len(), 5);
        // All hits come from cluster 3's id range [96, 128).
        assert!(hits.iter().all(|h| (96..128).contains(&h.id)), "{hits:?}");
    }

    /// A cell whose centroid is NaN (k-means over rows holding NaN
    /// leaves one so) ranks after every finite one, and an empty cell
    /// takes no probe: one probe here reaches row 2, not the empty cell
    /// nearest the query.
    #[test]
    fn probes_skip_empty_cells_and_rank_nan_centroids_last() {
        let ivf = IvfFlatIndex {
            metric: Metric::L2,
            centroids: Tensor::from_vec(vec![f32::NAN, 0.0, 0.0, 0.0, 5.0, 5.0], &[3, 2]),
            lists: vec![vec![0, 1], Vec::new(), vec![2]],
            slabs: vec![
                Tensor::from_vec(vec![f32::NAN, 0.0, 0.1, 0.0], &[2, 2]),
                Tensor::zeros(&[0, 2]),
                Tensor::from_vec(vec![5.0, 5.0], &[1, 2]),
            ],
            dim: 2,
            len: 3,
        };
        let ids = |nprobe| -> Vec<usize> {
            let hits = ivf.search(&F32Tensor::zeros(&[2]), 3, nprobe);
            hits.iter().map(|h| h.id).collect()
        };
        assert_eq!(ids(1), [2]);
        assert_eq!(ids(2), [1, 2, 0], "row 0's NaN distance ranks last");
    }

    #[test]
    fn nlist_clamped_to_data_size() {
        let mut rng = Rng64::new(5);
        let data = F32Tensor::randn(&[4, 2], 0.0, 1.0, &mut rng);
        let ivf = IvfFlatIndex::train(data, Metric::L2, IvfParams::new(64), &mut rng);
        assert!(ivf.nlist() <= 4);
        let hits = ivf.search(&F32Tensor::zeros(&[2]), 2, 100);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn zero_rows_build_an_index_with_no_cells() {
        let data = F32Tensor::zeros(&[0, 4]);
        let ivf = IvfFlatIndex::train(data, Metric::L2, IvfParams::new(4), &mut Rng64::new(1));
        assert_eq!((ivf.len(), ivf.dim(), ivf.nlist()), (0, 4, 0));
        assert!(ivf.search(&F32Tensor::zeros(&[4]), 10, 2).is_empty());
    }

    #[test]
    fn cosine_ivf_agrees_with_flat_on_direction() {
        let mut rng = Rng64::new(6);
        // Vectors of wildly different magnitude but two directions.
        let mut v = Vec::new();
        for i in 0..64 {
            let (x, y) = if i % 2 == 0 { (1.0, 0.05) } else { (0.05, 1.0) };
            let scale = 1.0 + (i as f32);
            v.push(x * scale);
            v.push(y * scale);
        }
        let data = Tensor::from_vec(v, &[64, 2]);
        let ivf = IvfFlatIndex::train(data, Metric::Cosine, IvfParams::new(2), &mut rng);
        let hits = ivf.search(&Tensor::from_vec(vec![1.0, 0.0], &[2]), 8, 2);
        assert!(
            hits.iter().all(|h| h.id % 2 == 0),
            "cosine ignored magnitude: {hits:?}"
        );
    }
}
