//! Batches: the unit of data flowing between physical operators.
//!
//! One column list, two column types. A [`Batch`] — what every exact
//! operator, stage and kernel reads and writes — is a [`NamedColumns`] of
//! [`EncodedTensor`]s: plain data, `Send + Sync` by type, so a stage's
//! workers borrow its columns directly. The differentiable walker
//! ([`crate::diff`]) alone moves [`DiffBatch`]es: [`ColumnData`] columns,
//! exact or on the `Rc`-based autodiff tape, plus the soft row weights
//! its relaxed predicates produce. Tape state cannot reach the exact
//! executor: the walker's gate is the one conversion from a `DiffBatch`
//! to a `Batch`, `From<Batch>` the way back, and [`DiffBatch::detach`]
//! the exact view its off-tape expressions are evaluated on.
//!
//! Columns are addressed two ways: by **slot index** (the hot path — the
//! physical plan resolves names to slots at lowering) or by name,
//! case-insensitively with the first match winning, scanning what are
//! always short column lists.

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

/// An ordered list of named columns of one type — the name and slot
/// bookkeeping both batch types share.
#[derive(Clone, Debug)]
pub struct NamedColumns<C> {
    columns: Vec<(String, C)>,
}

/// The exact executor's batch.
pub type Batch = NamedColumns<EncodedTensor>;

impl<C> Default for NamedColumns<C> {
    fn default() -> Self {
        NamedColumns {
            columns: Vec::new(),
        }
    }
}

impl<C> NamedColumns<C> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, name: impl Into<String>, col: C) {
        self.columns.push((name.into(), col));
    }

    pub fn columns(&self) -> &[(String, C)] {
        &self.columns
    }

    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Case-insensitive column lookup (first occurrence).
    pub fn column(&self, name: &str) -> Result<&C, ExecError> {
        self.slot(name)
            .map(|s| &self.columns[s].1)
            .ok_or_else(|| ExecError::UnknownColumn(name.to_owned()))
    }

    /// Slot carrying `name` (case-insensitive, first occurrence).
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n.eq_ignore_ascii_case(name))
    }

    /// Column at a physical slot index.
    pub fn column_at(&self, slot: usize) -> Option<&C> {
        self.columns.get(slot).map(|(_, c)| c)
    }

    pub fn into_columns(self) -> Vec<(String, C)> {
        self.columns
    }
}

impl<C> FromIterator<(String, C)> for NamedColumns<C> {
    fn from_iter<I: IntoIterator<Item = (String, C)>>(iter: I) -> Self {
        NamedColumns {
            columns: iter.into_iter().collect(),
        }
    }
}

impl Batch {
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.rows())
    }

    pub fn from_table(table: &Table) -> Batch {
        table
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.data.clone()))
            .collect()
    }

    /// Convert to a storage table.
    pub fn to_table(&self, name: &str) -> Table {
        Table::new(
            name,
            self.columns
                .iter()
                .map(|(n, c)| Column::new(n.clone(), c.clone()))
                .collect(),
        )
    }

    /// First `n` rows of every column as a new batch.
    pub fn head(&self, n: usize) -> Batch {
        self.slice_rows(0, n)
    }

    /// Rows `start..end` of every column as a new batch — the morsel
    /// slice. Each column is read through [`EncodedTensor::slice_rows`]:
    /// plain, dictionary and PE columns are windows sharing their buffers
    /// (dictionary windows share the parent dictionary, so codes stay
    /// comparable across morsels); no index tensor, no gather.
    pub fn slice_rows(&self, start: usize, end: usize) -> Batch {
        let window =
            |(name, col): &(String, EncodedTensor)| (name.clone(), col.slice_rows(start, end));
        self.columns.iter().map(window).collect()
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
        let column = |i: usize| {
            let pieces: Vec<&EncodedTensor> = parts.iter().map(|b| &b.columns[i].1).collect();
            EncodedTensor::concat(&pieces)
        };
        let names = parts[0].columns.iter().map(|(name, _)| name.clone());
        names
            .enumerate()
            .map(|(i, name)| (name, column(i)))
            .collect()
    }

    /// First tensor-payload column (used by FROM-position TVFs whose input
    /// is a registered bare tensor).
    pub fn first_tensor(&self) -> Result<F32Tensor, ExecError> {
        for (_, c) in &self.columns {
            if let EncodedTensor::F32(t) = c {
                return Ok(t.clone());
            }
        }
        Err(ExecError::TypeMismatch(
            "TVF input has no plain tensor column".into(),
        ))
    }
}

/// The differentiable walker's batch: exact and tape columns, plus (in
/// trainable mode) the soft row weights produced by relaxed predicates.
/// It reads as its column list.
#[derive(Clone, Debug, Default)]
pub struct DiffBatch {
    pub cols: NamedColumns<ColumnData>,
    /// Soft filter weights (`[N]` Var in (0,1)); `None` means all-ones.
    pub weights: Option<Var>,
}

impl DiffBatch {
    pub fn new() -> DiffBatch {
        DiffBatch::default()
    }

    pub fn rows(&self) -> usize {
        self.cols.columns.first().map_or(0, |(_, c)| c.rows())
    }

    /// Whether any column is on the tape.
    pub fn has_diff(&self) -> bool {
        self.cols.columns.iter().any(|(_, c)| c.is_diff())
    }

    /// The exact view: every tape column detached (PE → [`PeTensor`]),
    /// the weights dropped.
    pub fn detach(&self) -> Batch {
        let exact = |(name, col): &(String, ColumnData)| (name.clone(), col.to_exact());
        self.cols.columns.iter().map(exact).collect()
    }
}

impl From<Batch> for DiffBatch {
    fn from(batch: Batch) -> DiffBatch {
        DiffBatch {
            cols: (batch.columns.into_iter())
                .map(|(n, c)| (n, ColumnData::Exact(c)))
                .collect(),
            weights: None,
        }
    }
}

impl std::ops::Deref for DiffBatch {
    type Target = NamedColumns<ColumnData>;

    fn deref(&self) -> &Self::Target {
        &self.cols
    }
}

impl std::ops::DerefMut for DiffBatch {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_storage::TableBuilder;
    use tdp_tensor::Tensor;

    #[test]
    fn batch_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Batch>();
    }

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
        let mut b = DiffBatch::new();
        let probs = Var::param(Tensor::from_vec(vec![0.3f32, 0.7, 0.9, 0.1], &[2, 2]));
        b.push(
            "Income",
            ColumnData::Diff(DiffColumn::pe(probs, Tensor::arange(2))),
        );
        assert!(b.has_diff());
        assert_eq!(b.rows(), 2);
        let t = b.detach().to_table("out");
        // PE detaches to an encoded PE column that decodes by argmax.
        assert_eq!(
            t.column("Income").unwrap().data.decode_f32().to_vec(),
            vec![1.0, 0.0]
        );
        // An exact batch crosses over unchanged, with no weights.
        let back = DiffBatch::from(Batch::from_table(&t));
        assert!(!back.has_diff() && back.weights.is_none());
        assert_eq!(
            back.detach()
                .column("Income")
                .unwrap()
                .decode_f32()
                .to_vec(),
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
        b.push("A", EncodedTensor::from_f32_slice(&[1.0]));
        b.push("b", EncodedTensor::from_f32_slice(&[2.0]));
        // Duplicate name: lookups keep resolving to the first slot.
        b.push("a", EncodedTensor::from_f32_slice(&[3.0]));
        assert_eq!(b.slot("a"), Some(0));
        assert_eq!(b.slot("B"), Some(1));
        assert_eq!(b.slot("missing"), None);
        assert_eq!(b.columns()[2].0, "a");
        assert_eq!(b.column("A").unwrap().decode_f32().to_vec(), vec![1.0]);
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
        assert_eq!(h.column("s").unwrap().decode_strings(), vec!["a", "b"]);
        assert_eq!(b.head(10).rows(), 3, "head clamps to the row count");
        assert_eq!(b.head(0).rows(), 0);
    }

    #[test]
    #[should_panic(expected = "PE diff column must be")]
    fn pe_diff_column_validates_rank() {
        DiffColumn::pe(Var::constant(Tensor::<f32>::zeros(&[4])), Tensor::arange(2));
    }
}
