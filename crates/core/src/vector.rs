//! Vector-index management on a TDP session.
//!
//! The paper's §5.1 runs top-k image search as plain SQL (`ORDER BY score
//! DESC LIMIT 2`) and notes that approximate indexing à la Milvus is being
//! integrated to accelerate exactly that query shape. This module is that
//! integration's management surface: building flat (exact) and IVF-Flat
//! (approximate) indexes over embedding columns, plus a direct
//! `vector_topk` fast path the examples/benches use.
//!
//! Since PR 8 the indexes themselves live in the **catalog**
//! ([`tdp_storage::Catalog::register_vector_index`]), next to the tables
//! they cover — so every session of an engine sees them, table writes
//! invalidate them, and the physical planner's ANN lowering
//! (`ORDER BY distance(col, ?) LIMIT k` → `AnnTopK`) finds them by
//! `table.column` lookup at execution time.

use tdp_index::{Hit, Metric};
pub use tdp_storage::IndexKind;
use tdp_storage::{VectorIndex, VectorIndexEntry};
use tdp_tensor::F32Tensor;

use crate::error::TdpError;
use crate::session::Session;

impl Session {
    /// Build (or rebuild) a vector index over an embedding column and
    /// register it in the catalog under `name`.
    ///
    /// The column must hold one vector per row (a 2-d tensor). Index
    /// construction is deterministic for a given `seed`. Any write to
    /// the table invalidates the index; queries planned against a stale
    /// entry fall back to the exact flat path.
    pub fn create_named_vector_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
        metric: Metric,
        kind: IndexKind,
        seed: u64,
    ) -> Result<(), TdpError> {
        let t = self
            .catalog()
            .get(table)
            .ok_or_else(|| TdpError::Session(format!("unknown table '{table}'")))?;
        let col = t.column(column).ok_or_else(|| {
            TdpError::Session(format!("table '{table}' has no column '{column}'"))
        })?;
        let data = col.data.decode_f32();
        if data.ndim() != 2 {
            return Err(TdpError::Session(format!(
                "vector index needs a [n, d] embedding column; '{column}' rows have shape {:?}",
                &data.shape()[1..]
            )));
        }
        self.catalog().register_vector_index(VectorIndexEntry {
            name: name.to_owned(),
            table: table.to_owned(),
            column: column.to_owned(),
            metric,
            rows: t.rows(),
            index: VectorIndex::build(data, metric, kind, seed),
        });
        // Index availability changes access-path choice; cached physical
        // plans in every session may now lower differently.
        self.engine().invalidate_plans();
        Ok(())
    }

    /// [`Self::create_named_vector_index`] with the conventional
    /// `<table>_<column>_idx` name.
    pub fn create_vector_index(
        &self,
        table: &str,
        column: &str,
        metric: Metric,
        kind: IndexKind,
        seed: u64,
    ) -> Result<(), TdpError> {
        let name = format!("{table}_{column}_idx");
        self.create_named_vector_index(&name, table, column, metric, kind, seed)
    }

    /// Drop the index covering `table.column`; returns whether it existed.
    pub fn drop_vector_index(&self, table: &str, column: &str) -> bool {
        let Some(entry) = self.catalog().vector_index(table, column) else {
            return false;
        };
        let dropped = self.catalog().drop_vector_index(&entry.name);
        if dropped {
            self.engine().invalidate_plans();
        }
        dropped
    }

    /// Top-k search against a previously created index. `nprobe`
    /// overrides the registered probe width for IVF indexes (useful for
    /// sweeping the recall/latency trade-off) and is ignored by flat
    /// ones.
    pub fn vector_topk(
        &self,
        table: &str,
        column: &str,
        query: &F32Tensor,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Hit>, TdpError> {
        let entry = self.catalog().vector_index(table, column).ok_or_else(|| {
            TdpError::Session(format!(
                "no vector index on {table}.{column}; call create_vector_index first"
            ))
        })?;
        Ok(match &entry.index {
            VectorIndex::Flat(f) => f.search(query, k),
            VectorIndex::Ivf { index, .. } => index.search(query, k, nprobe),
        })
    }

    /// Whether an index exists for `table.column`.
    pub fn has_vector_index(&self, table: &str, column: &str) -> bool {
        self.catalog().vector_index(table, column).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Tdp;
    use tdp_index::IvfParams;
    use tdp_storage::TableBuilder;
    use tdp_tensor::{Rng64, Tensor};

    fn embeddings_table() -> tdp_storage::Table {
        // 3 unit vectors along distinct axes.
        let data = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        TableBuilder::new().col_tensor("emb", data).build("vecs")
    }

    #[test]
    fn flat_index_round_trip() {
        let tdp = Tdp::new();
        tdp.register_table(embeddings_table());
        tdp.create_vector_index("vecs", "emb", Metric::Cosine, IndexKind::Flat, 0)
            .unwrap();
        assert!(tdp.has_vector_index("vecs", "emb"));
        let hits = tdp
            .vector_topk(
                "vecs",
                "emb",
                &Tensor::from_vec(vec![0.9, 0.1, 0.0], &[3]),
                1,
                1,
            )
            .unwrap();
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn ivf_index_round_trip() {
        let tdp = Tdp::new();
        let mut rng = Rng64::new(8);
        let data = F32Tensor::randn(&[128, 8], 0.0, 1.0, &mut rng);
        tdp.register_table(TableBuilder::new().col_tensor("emb", data).build("vecs"));
        tdp.create_vector_index(
            "vecs",
            "emb",
            Metric::L2,
            IndexKind::IvfFlat(IvfParams::new(8), 8),
            42,
        )
        .unwrap();
        let q = F32Tensor::randn(&[8], 0.0, 1.0, &mut rng);
        let hits = tdp.vector_topk("vecs", "emb", &q, 5, 8).unwrap();
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn errors_on_missing_table_column_or_index() {
        let tdp = Tdp::new();
        assert!(matches!(
            tdp.create_vector_index("nope", "emb", Metric::L2, IndexKind::Flat, 0),
            Err(TdpError::Session(_))
        ));
        tdp.register_table(embeddings_table());
        assert!(matches!(
            tdp.create_vector_index("vecs", "nope", Metric::L2, IndexKind::Flat, 0),
            Err(TdpError::Session(_))
        ));
        assert!(matches!(
            tdp.vector_topk("vecs", "emb", &F32Tensor::zeros(&[3]), 1, 1),
            Err(TdpError::Session(_))
        ));
    }

    #[test]
    fn rejects_non_vector_columns() {
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0, 2.0]).build("t"));
        assert!(matches!(
            tdp.create_vector_index("t", "x", Metric::L2, IndexKind::Flat, 0),
            Err(TdpError::Session(_))
        ));
    }

    #[test]
    fn drop_vector_index_works() {
        let tdp = Tdp::new();
        tdp.register_table(embeddings_table());
        tdp.create_vector_index("vecs", "emb", Metric::Cosine, IndexKind::Flat, 0)
            .unwrap();
        assert!(tdp.drop_vector_index("vecs", "emb"));
        assert!(!tdp.drop_vector_index("vecs", "emb"));
        assert!(!tdp.has_vector_index("vecs", "emb"));
    }

    #[test]
    fn table_write_invalidates_index() {
        let tdp = Tdp::new();
        tdp.register_table(embeddings_table());
        tdp.create_vector_index("vecs", "emb", Metric::L2, IndexKind::Flat, 0)
            .unwrap();
        assert!(tdp.has_vector_index("vecs", "emb"));
        tdp.register_table(embeddings_table());
        assert!(
            !tdp.has_vector_index("vecs", "emb"),
            "re-registration invalidates"
        );
    }
}
