//! Tables, columns and the table builder.

use tdp_encoding::{EncodedTensor, EncodingKind};
use tdp_tensor::{BoolTensor, Device, F32Tensor, I64Tensor, Tensor};

/// A named, encoded column.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub data: EncodedTensor,
}

impl Column {
    pub fn new(name: impl Into<String>, data: EncodedTensor) -> Column {
        Column {
            name: name.into(),
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    pub fn kind(&self) -> EncodingKind {
        self.data.kind()
    }
}

/// Size/statistics summary of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    pub rows: usize,
    pub columns: usize,
    pub bytes: usize,
}

/// A columnar table: equal-length encoded columns with unique names.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
}

impl Table {
    /// Assemble a table, validating column arity.
    ///
    /// Panics if column names repeat or row counts disagree — malformed
    /// tables must not enter the catalog.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Table {
        let name = name.into();
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|p| p.name == c.name),
                "duplicate column '{}' in table '{name}'",
                c.name
            );
        }
        if let Some(first) = columns.first() {
            let n = first.rows();
            for c in &columns {
                assert_eq!(
                    c.rows(),
                    n,
                    "column '{}' has {} rows, expected {n}",
                    c.name,
                    c.rows()
                );
            }
        }
        Table { name, columns }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn rows(&self) -> usize {
        self.columns.first().map(|c| c.rows()).unwrap_or(0)
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Look up a column by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Statistics for catalog listings and memory accounting.
    pub fn stats(&self) -> TableStats {
        TableStats {
            rows: self.rows(),
            columns: self.columns.len(),
            bytes: self.columns.iter().map(|c| c.data.memory_bytes()).sum(),
        }
    }

    /// Whether [`Table::append_rows`] takes `rows`: the same column names
    /// in the same order (case-insensitive), each column of a type its
    /// stored column can take ([`EncodedTensor::can_append`]).
    pub fn can_append(&self, rows: &Table) -> bool {
        self.columns.len() == rows.columns.len()
            && self.columns.iter().zip(&rows.columns).all(|(c, more)| {
                c.name.eq_ignore_ascii_case(&more.name) && c.data.can_append(&more.data)
            })
    }

    /// Append `rows` after this table's rows, column by column
    /// ([`EncodedTensor::append`]). Plain, shared-dictionary and PE
    /// columns grow their stored buffers copy-on-write: a buffer nothing
    /// else holds grows where it is, and whoever holds one too — another
    /// `Table` value, a query result — keeps exactly the rows it saw.
    /// Every column is checked before any changes: unless
    /// [`Table::can_append`], returns `false` and leaves the table as it
    /// was.
    pub fn append_rows(&mut self, rows: &Table) -> bool {
        if !self.can_append(rows) {
            return false;
        }
        for (c, more) in self.columns.iter_mut().zip(&rows.columns) {
            c.data.append(&more.data);
        }
        true
    }

    /// Whether [`Table::append_rows`] would grow every column where it is
    /// stored, copying `rows` only: no column buffer is held elsewhere,
    /// and each has room ([`EncodedTensor::appends_in_place`]).
    pub fn appends_in_place(&mut self, rows: &Table) -> bool {
        self.can_append(rows)
            && self
                .columns
                .iter_mut()
                .zip(&rows.columns)
                .all(|(c, more)| c.data.appends_in_place(&more.data))
    }

    /// Row subset, applied to every column.
    pub fn filter_rows(&self, mask: &BoolTensor) -> Table {
        Table {
            name: self.name.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Column::new(c.name.clone(), c.data.filter_rows(mask)))
                .collect(),
        }
    }

    /// Row gather/reorder, applied to every column.
    pub fn select_rows(&self, idx: &I64Tensor) -> Table {
        Table {
            name: self.name.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Column::new(c.name.clone(), c.data.select_rows(idx)))
                .collect(),
        }
    }

    /// Re-encode every integer column with the smallest layout among
    /// plain / run-length / bit-packed / delta (see
    /// [`EncodedTensor::compress_i64`]). Other encodings pass through.
    pub fn compress(&self) -> Table {
        Table {
            name: self.name.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let data = match &c.data {
                        EncodedTensor::I64(t) => EncodedTensor::compress_i64(t),
                        other => other.clone(),
                    };
                    Column::new(c.name.clone(), data)
                })
                .collect(),
        }
    }

    /// Total approximate memory footprint of all columns, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.data.memory_bytes()).sum()
    }

    /// Move all column payloads to a device.
    pub fn to_device(&self, device: Device) -> Table {
        Table {
            name: self.name.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Column::new(c.name.clone(), c.data.to_device(device)))
                .collect(),
        }
    }

    /// Render the first `limit` rows as an aligned text table (the
    /// `toPandas=True` analog for terminals).
    pub fn pretty(&self, limit: usize) -> String {
        let n = self.rows().min(limit);
        let mut cols: Vec<Vec<String>> = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            let mut rendered = c.data.decode_strings();
            rendered.truncate(n);
            cols.push(rendered);
        }
        let widths: Vec<usize> = self
            .columns
            .iter()
            .zip(&cols)
            .map(|(c, vals)| {
                vals.iter()
                    .map(|v| v.len())
                    .chain(std::iter::once(c.name.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("{:>w$}  ", c.name, w = w));
        }
        out.push('\n');
        for r in 0..n {
            for (vals, w) in cols.iter().zip(&widths) {
                out.push_str(&format!("{:>w$}  ", vals[r], w = w));
            }
            out.push('\n');
        }
        if self.rows() > n {
            out.push_str(&format!("... ({} rows total)\n", self.rows()));
        }
        out
    }
}

/// Fluent builder for assembling tables from host data — the ingestion
/// surface behind `register_df`-style APIs.
#[derive(Debug, Default)]
pub struct TableBuilder {
    columns: Vec<Column>,
}

impl TableBuilder {
    pub fn new() -> TableBuilder {
        TableBuilder {
            columns: Vec::new(),
        }
    }

    /// 1-d f32 column.
    pub fn col_f32(mut self, name: impl Into<String>, values: Vec<f32>) -> TableBuilder {
        let n = values.len();
        self.columns.push(Column::new(
            name,
            EncodedTensor::F32(Tensor::from_vec(values, &[n])),
        ));
        self
    }

    /// 1-d i64 column.
    pub fn col_i64(mut self, name: impl Into<String>, values: Vec<i64>) -> TableBuilder {
        let n = values.len();
        self.columns.push(Column::new(
            name,
            EncodedTensor::I64(Tensor::from_vec(values, &[n])),
        ));
        self
    }

    /// Dictionary-encoded string column.
    pub fn col_str(mut self, name: impl Into<String>, values: &[impl AsRef<str>]) -> TableBuilder {
        self.columns
            .push(Column::new(name, EncodedTensor::from_strings(values)));
        self
    }

    /// Boolean column.
    pub fn col_bool(mut self, name: impl Into<String>, values: Vec<bool>) -> TableBuilder {
        let n = values.len();
        self.columns.push(Column::new(
            name,
            EncodedTensor::Bool(Tensor::from_vec(values, &[n])),
        ));
        self
    }

    /// Multi-dimensional payload column (vectors, images): leading dim is
    /// the row dimension.
    pub fn col_tensor(mut self, name: impl Into<String>, tensor: F32Tensor) -> TableBuilder {
        assert!(
            tensor.ndim() >= 1,
            "payload columns need a leading row dimension"
        );
        self.columns
            .push(Column::new(name, EncodedTensor::F32(tensor)));
        self
    }

    /// Pre-encoded column.
    pub fn col_encoded(mut self, name: impl Into<String>, data: EncodedTensor) -> TableBuilder {
        self.columns.push(Column::new(name, data));
        self
    }

    pub fn build(self, name: impl Into<String>) -> Table {
        Table::new(name, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        TableBuilder::new()
            .col_f32("price", vec![9.5, 1.0, 4.25])
            .col_i64("qty", vec![2, 7, 1])
            .col_str("item", &["pen", "ink", "pad"])
            .build("orders")
    }

    #[test]
    fn compress_shrinks_integer_columns_and_preserves_values() {
        let ts: Vec<i64> = (0..5_000).map(|i| 1_700_000_000 + i).collect();
        let cat: Vec<i64> = (0..5_000).map(|i| i % 3).collect();
        let t = TableBuilder::new()
            .col_i64("ts", ts.clone())
            .col_i64("cat", cat.clone())
            .col_f32("v", vec![0.5; 5_000])
            .build("log");
        let c = t.compress();
        assert!(
            c.memory_bytes() * 3 < t.memory_bytes(),
            "{} vs {}",
            c.memory_bytes(),
            t.memory_bytes()
        );
        assert_eq!(c.column("ts").unwrap().data.decode_i64().to_vec(), ts);
        assert_eq!(c.column("cat").unwrap().data.decode_i64().to_vec(), cat);
        // Float column untouched.
        assert_eq!(
            c.column("v").unwrap().data.kind(),
            tdp_encoding::EncodingKind::PlainF32
        );
    }

    #[test]
    fn table_shape_and_lookup() {
        let t = sample();
        assert_eq!(t.name(), "orders");
        assert_eq!(t.rows(), 3);
        assert_eq!(t.column_names(), vec!["price", "qty", "item"]);
        assert!(t.column("PRICE").is_some(), "lookups are case-insensitive");
        assert!(t.column("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        TableBuilder::new()
            .col_f32("x", vec![1.0])
            .col_i64("x", vec![1])
            .build("bad");
    }

    #[test]
    #[should_panic(expected = "rows, expected")]
    fn ragged_columns_rejected() {
        TableBuilder::new()
            .col_f32("a", vec![1.0, 2.0])
            .col_f32("b", vec![1.0])
            .build("bad");
    }

    #[test]
    fn filter_and_select_apply_to_all_columns() {
        let t = sample();
        let mask = Tensor::from_vec(vec![true, false, true], &[3]);
        let f = t.filter_rows(&mask);
        assert_eq!(f.rows(), 2);
        assert_eq!(
            f.column("item").unwrap().data.decode_strings(),
            vec!["pen", "pad"]
        );

        let idx = Tensor::from_vec(vec![2i64, 2, 0], &[3]);
        let s = t.select_rows(&idx);
        assert_eq!(
            s.column("qty").unwrap().data.decode_i64().to_vec(),
            vec![1, 1, 2]
        );
    }

    #[test]
    fn image_payload_column() {
        let imgs = Tensor::<f32>::zeros(&[5, 1, 4, 4]);
        let t = TableBuilder::new()
            .col_tensor("images", imgs)
            .col_i64("ts", vec![1, 1, 2, 2, 3])
            .build("docs");
        assert_eq!(t.rows(), 5);
        assert_eq!(t.column("images").unwrap().data.row_shape(), vec![1, 4, 4]);
    }

    #[test]
    fn stats_accounting() {
        let t = sample();
        let s = t.stats();
        assert_eq!(s.rows, 3);
        assert_eq!(s.columns, 3);
        assert!(s.bytes > 3 * 4 + 3 * 8);
    }

    #[test]
    fn pretty_renders_header_and_rows() {
        let out = sample().pretty(2);
        assert!(out.contains("price"));
        assert!(out.contains("pen"));
        assert!(out.contains("(3 rows total)"));
        assert!(!out.contains("pad"), "limit must truncate");
    }

    #[test]
    fn device_round_trip() {
        let t = sample().to_device(Device::Accel(2));
        assert_eq!(t.rows(), 3);
        assert_eq!(
            t.column("price").unwrap().data.decode_f32().to_vec(),
            vec![9.5, 1.0, 4.25]
        );
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", vec![]);
        assert_eq!(t.rows(), 0);
        assert_eq!(t.stats().bytes, 0);
    }
}
