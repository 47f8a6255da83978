//! Catalog-resident vector index registry.
//!
//! ANN indexes live *in the catalog*, next to the tables they index, so
//! invalidation rides the existing catalog-version machinery: any write
//! to a table (re-registration or drop) removes that table's index
//! entries, and queries planned against a now-stale index fall back to
//! the exact flat path at execution time.

use tdp_index::{FlatIndex, Hit, IvfFlatIndex, IvfParams, Metric};
use tdp_tensor::{F32Tensor, Rng64};

/// Which physical index to build.
#[derive(Debug, Clone, Copy)]
pub enum IndexKind {
    /// Brute-force scan (exact; no training step).
    Flat,
    /// Inverted-file with flat storage; approximate, trained by k-means.
    /// `nprobe` is the probe width registered for query time.
    IvfFlat(IvfParams, usize),
}

/// A built index over one embedding column.
#[derive(Debug, Clone)]
pub enum VectorIndex {
    /// Exact brute-force index (one kernel pass per query).
    Flat(FlatIndex),
    /// IVF-Flat approximate index with its declared probe width, and the
    /// training parameters and seed it was built with — what a rebuild
    /// retrains it with.
    Ivf {
        index: IvfFlatIndex,
        params: IvfParams,
        nprobe: usize,
        seed: u64,
    },
}

impl VectorIndex {
    /// Build `kind` over `data` (`[n, d]`, one vector per row) — the one
    /// place an index is trained, for the session API, `CREATE INDEX` and
    /// a stale rebuild ([`VectorIndexEntry::retrain`]). IVF training is
    /// deterministic for a given `seed`.
    pub fn build(data: F32Tensor, metric: Metric, kind: IndexKind, seed: u64) -> VectorIndex {
        match kind {
            IndexKind::Flat => VectorIndex::Flat(FlatIndex::build(data, metric)),
            IndexKind::IvfFlat(params, nprobe) => VectorIndex::Ivf {
                index: IvfFlatIndex::train(data, metric, params, &mut Rng64::new(seed)),
                params,
                nprobe: nprobe.max(1),
                seed,
            },
        }
    }
}

/// One registry entry: a named index on `table.column` under `metric`.
#[derive(Debug, Clone)]
pub struct VectorIndexEntry {
    pub name: String,
    pub table: String,
    pub column: String,
    pub metric: Metric,
    /// Row count of the table at build time (staleness check).
    pub rows: usize,
    pub index: VectorIndex,
}

impl VectorIndexEntry {
    /// This IVF entry retrained over `data`, the `rows` rows its table
    /// holds now, with the parameters and seed it was built with — the
    /// index the user built, over the current contents. `None` for a
    /// flat entry, which has nothing to retrain.
    pub fn retrain(&self, data: F32Tensor, rows: usize) -> Option<VectorIndexEntry> {
        let VectorIndex::Ivf {
            params,
            nprobe,
            seed,
            ..
        } = self.index
        else {
            return None;
        };
        Some(VectorIndexEntry {
            name: self.name.clone(),
            table: self.table.clone(),
            column: self.column.clone(),
            metric: self.metric,
            rows,
            index: VectorIndex::build(data, self.metric, IndexKind::IvfFlat(params, nprobe), seed),
        })
    }

    /// Top-k search through the built index. For IVF the registered
    /// `nprobe` applies; flat search is exact.
    pub fn search(&self, query: &F32Tensor, k: usize) -> Vec<Hit> {
        match &self.index {
            VectorIndex::Flat(f) => f.search(query, k),
            VectorIndex::Ivf { index, nprobe, .. } => index.search(query, k, *nprobe),
        }
    }

    /// Access-path description for EXPLAIN (`flat exact` or
    /// `ivf nlist=.. nprobe=..`).
    pub fn describe(&self) -> String {
        match &self.index {
            VectorIndex::Flat(_) => "flat exact".to_owned(),
            VectorIndex::Ivf { params, nprobe, .. } => {
                format!("ivf nlist={} nprobe={nprobe}", params.nlist)
            }
        }
    }
}
