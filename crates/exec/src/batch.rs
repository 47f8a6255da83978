//! Batches: the unit of data flowing between physical operators.

use tdp_autodiff::Var;
use tdp_encoding::{EncodedTensor, PeTensor};
use tdp_storage::{Column, Table};
use tdp_tensor::F32Tensor;

use crate::error::ExecError;

/// A differentiable column: a [`Var`] whose value is either a plain `[N]`
/// column or, when `class_values` is present, a probability-encoded
/// `[N, C]` matrix (the Var-domain twin of [`PeTensor`]).
#[derive(Clone)]
pub struct DiffColumn {
    pub var: Var,
    pub class_values: Option<F32Tensor>,
}

impl DiffColumn {
    /// Plain differentiable value column (`[N]`).
    pub fn plain(var: Var) -> DiffColumn {
        DiffColumn {
            var,
            class_values: None,
        }
    }

    /// Probability-encoded differentiable column (`[N, C]`).
    pub fn pe(var: Var, class_values: F32Tensor) -> DiffColumn {
        assert_eq!(
            var.shape().len(),
            2,
            "PE diff column must be [N, C], got {:?}",
            var.shape()
        );
        assert_eq!(
            var.shape()[1],
            class_values.numel(),
            "one class value per probability column"
        );
        DiffColumn {
            var,
            class_values: Some(class_values),
        }
    }

    pub fn is_pe(&self) -> bool {
        self.class_values.is_some()
    }

    pub fn rows(&self) -> usize {
        self.var.shape().first().copied().unwrap_or(1)
    }

    /// Detach into an exact encoded column (PE → [`PeTensor`]).
    pub fn to_exact(&self) -> EncodedTensor {
        match &self.class_values {
            Some(cv) => EncodedTensor::Pe(PeTensor::new(self.var.value(), cv.clone())),
            None => EncodedTensor::F32(self.var.value()),
        }
    }
}

impl std::fmt::Debug for DiffColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DiffColumn(shape={:?}, pe={})",
            self.var.shape(),
            self.is_pe()
        )
    }
}

/// A column inside a batch: exact (encoded tensor) or differentiable.
#[derive(Clone, Debug)]
pub enum ColumnData {
    Exact(EncodedTensor),
    Diff(DiffColumn),
}

impl ColumnData {
    pub fn rows(&self) -> usize {
        match self {
            ColumnData::Exact(e) => e.rows(),
            ColumnData::Diff(d) => d.rows(),
        }
    }

    pub fn is_diff(&self) -> bool {
        matches!(self, ColumnData::Diff(_))
    }

    /// Exact view (detaching diff columns).
    pub fn to_exact(&self) -> EncodedTensor {
        match self {
            ColumnData::Exact(e) => e.clone(),
            ColumnData::Diff(d) => d.to_exact(),
        }
    }
}

/// An ordered set of named columns (plus, in trainable mode, soft row
/// weights produced by relaxed predicates).
///
/// Columns are addressed two ways: by **slot index** (the hot path — the
/// physical plan resolves names to slots at compile time) or by name
/// through an O(1) lowercase name→slot map kept in sync on every push.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    columns: Vec<(String, ColumnData)>,
    /// Lowercased name → first slot carrying it (mirrors the
    /// first-match-wins semantics of the former linear scan).
    index: std::collections::HashMap<String, usize>,
    /// Soft filter weights (`[N]` Var in (0,1)); `None` means all-ones.
    pub weights: Option<Var>,
}

impl Batch {
    pub fn new() -> Batch {
        Batch::default()
    }

    pub fn from_table(table: &Table) -> Batch {
        let mut out = Batch::new();
        for c in table.columns() {
            out.push(c.name.clone(), ColumnData::Exact(c.data.clone()));
        }
        out
    }

    /// Convert to a storage table (detaching differentiable columns).
    pub fn to_table(&self, name: &str) -> Table {
        Table::new(
            name,
            self.columns
                .iter()
                .map(|(n, c)| Column::new(n.clone(), c.to_exact()))
                .collect(),
        )
    }

    pub fn push(&mut self, name: impl Into<String>, data: ColumnData) {
        let name = name.into();
        let slot = self.columns.len();
        self.index.entry(name.to_ascii_lowercase()).or_insert(slot);
        self.columns.push((name, data));
    }

    pub fn columns(&self) -> &[(String, ColumnData)] {
        &self.columns
    }

    pub fn rows(&self) -> usize {
        self.columns.first().map(|(_, c)| c.rows()).unwrap_or(0)
    }

    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Case-insensitive column lookup, O(1) via the name index.
    pub fn column(&self, name: &str) -> Result<&ColumnData, ExecError> {
        self.slot(name)
            .map(|s| &self.columns[s].1)
            .ok_or_else(|| ExecError::UnknownColumn(name.to_owned()))
    }

    /// Slot carrying `name` (case-insensitive, first occurrence).
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.index.get(&name.to_ascii_lowercase()).copied()
    }

    /// Column at a physical slot index.
    pub fn column_at(&self, slot: usize) -> Option<&ColumnData> {
        self.columns.get(slot).map(|(_, c)| c)
    }

    /// Name of the column at a slot.
    pub fn name_at(&self, slot: usize) -> Option<&str> {
        self.columns.get(slot).map(|(n, _)| n.as_str())
    }

    /// First `n` rows of every column as a new batch.
    pub fn head(&self, n: usize) -> Batch {
        self.slice_rows(0, n)
    }

    /// Rows `start..end` of every column as a new batch — the morsel
    /// slice. Each column is read through [`EncodedTensor::slice_rows`]:
    /// plain, dictionary and PE columns are windows sharing their buffers
    /// (dictionary windows share the parent dictionary, so codes stay
    /// comparable across morsels); no index tensor, no gather. Soft weights are dropped: the
    /// differentiable walker refuses to cut a weighted batch (LIMIT is
    /// gated like every exact operator), so no caller holds any.
    pub fn slice_rows(&self, start: usize, end: usize) -> Batch {
        let mut out = Batch::new();
        for (name, col) in &self.columns {
            out.push(
                name.clone(),
                ColumnData::Exact(col.to_exact().slice_rows(start, end)),
            );
        }
        out
    }

    /// Concatenate batches row-wise, preserving column encodings where
    /// the pieces agree (see [`EncodedTensor::concat`]) — the
    /// order-preserving merge of morsel outputs. Column names and order
    /// come from the first batch; every batch must have the same arity.
    pub fn concat(parts: &[Batch]) -> Batch {
        assert!(!parts.is_empty(), "concat of zero batches");
        if parts.len() == 1 {
            return parts[0].clone();
        }
        let mut out = Batch::new();
        let exact: Vec<Vec<EncodedTensor>> = parts
            .iter()
            .map(|b| b.columns().iter().map(|(_, c)| c.to_exact()).collect())
            .collect();
        for (i, (name, _)) in parts[0].columns().iter().enumerate() {
            let pieces: Vec<&EncodedTensor> = exact.iter().map(|cols| &cols[i]).collect();
            out.push(
                name.clone(),
                ColumnData::Exact(EncodedTensor::concat(&pieces)),
            );
        }
        out
    }

    /// Whether any column is differentiable.
    pub fn has_diff(&self) -> bool {
        self.columns.iter().any(|(_, c)| c.is_diff())
    }

    /// First tensor-payload column (used by FROM-position TVFs whose input
    /// is a registered bare tensor).
    pub fn first_tensor(&self) -> Result<F32Tensor, ExecError> {
        for (_, c) in &self.columns {
            if let ColumnData::Exact(EncodedTensor::F32(t)) = c {
                return Ok(t.clone());
            }
        }
        Err(ExecError::TypeMismatch(
            "TVF input has no plain tensor column".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_storage::TableBuilder;
    use tdp_tensor::Tensor;

    #[test]
    fn batch_round_trips_table() {
        let t = TableBuilder::new()
            .col_f32("v", vec![1.0, 2.0])
            .col_str("s", &["a", "b"])
            .build("t");
        let b = Batch::from_table(&t);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.names(), vec!["v", "s"]);
        let back = b.to_table("out");
        assert_eq!(
            back.column("s").unwrap().data.decode_strings(),
            vec!["a", "b"]
        );
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = TableBuilder::new().col_f32("Digit", vec![1.0]).build("t");
        let b = Batch::from_table(&t);
        assert!(b.column("digit").is_ok());
        assert!(matches!(b.column("nope"), Err(ExecError::UnknownColumn(_))));
    }

    #[test]
    fn diff_columns_flagged_and_detached() {
        let mut b = Batch::new();
        let probs = Var::param(Tensor::from_vec(vec![0.3f32, 0.7, 0.9, 0.1], &[2, 2]));
        b.push(
            "Income",
            ColumnData::Diff(DiffColumn::pe(probs, Tensor::arange(2))),
        );
        assert!(b.has_diff());
        assert_eq!(b.rows(), 2);
        let t = b.to_table("out");
        // PE detaches to an encoded PE column that decodes by argmax.
        assert_eq!(
            t.column("Income").unwrap().data.decode_f32().to_vec(),
            vec![1.0, 0.0]
        );
    }

    #[test]
    fn first_tensor_finds_payload() {
        let imgs = Tensor::<f32>::zeros(&[3, 1, 2, 2]);
        let t = TableBuilder::new()
            .col_i64("id", vec![1, 2, 3])
            .col_tensor("images", imgs)
            .build("docs");
        // i64 column is skipped; the f32 payload is found.
        let b = Batch::from_table(&t);
        assert_eq!(b.first_tensor().unwrap().shape(), &[3, 1, 2, 2]);
    }

    #[test]
    fn slot_index_tracks_pushes_first_match_wins() {
        let mut b = Batch::new();
        b.push(
            "A",
            ColumnData::Exact(EncodedTensor::from_f32_slice(&[1.0])),
        );
        b.push(
            "b",
            ColumnData::Exact(EncodedTensor::from_f32_slice(&[2.0])),
        );
        // Duplicate name: the map must keep pointing at the first slot.
        b.push(
            "a",
            ColumnData::Exact(EncodedTensor::from_f32_slice(&[3.0])),
        );
        assert_eq!(b.slot("a"), Some(0));
        assert_eq!(b.slot("B"), Some(1));
        assert_eq!(b.slot("missing"), None);
        assert_eq!(b.name_at(2), Some("a"));
        assert_eq!(
            b.column("A").unwrap().to_exact().decode_f32().to_vec(),
            vec![1.0]
        );
        assert!(b.column_at(3).is_none());
    }

    #[test]
    fn head_takes_prefix_rows() {
        let t = TableBuilder::new()
            .col_f32("v", vec![1.0, 2.0, 3.0])
            .col_str("s", &["a", "b", "c"])
            .build("t");
        let b = Batch::from_table(&t);
        let h = b.head(2);
        assert_eq!(h.rows(), 2);
        assert_eq!(
            h.column("s").unwrap().to_exact().decode_strings(),
            vec!["a", "b"]
        );
        assert_eq!(b.head(10).rows(), 3, "head clamps to the row count");
        assert_eq!(b.head(0).rows(), 0);
    }

    #[test]
    #[should_panic(expected = "PE diff column must be")]
    fn pe_diff_column_validates_rank() {
        DiffColumn::pe(Var::constant(Tensor::<f32>::zeros(&[4])), Tensor::arange(2));
    }
}
