//! Run-length encoding for repetitive integer columns.
//!
//! Timestamp-like and low-cardinality columns (the `Document.timestamp`
//! metadata of the OCR experiment is a canonical example) compress to a
//! fraction of their plain size, and equality predicates can be evaluated
//! per-run instead of per-row.

use std::sync::Arc;

use tdp_tensor::{BoolTensor, I64Tensor, Tensor};

/// An i64 column stored as (value, run-length) pairs. Cloning is O(1):
/// the pairs are shared, like a tensor's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleColumn {
    values: Arc<Vec<i64>>,
    runs: Arc<Vec<u32>>,
    len: usize,
}

impl RleColumn {
    /// Encode a plain column.
    pub fn encode(col: &I64Tensor) -> RleColumn {
        assert_eq!(col.ndim(), 1, "RLE expects a 1-d column");
        let mut values = Vec::new();
        let mut runs: Vec<u32> = Vec::new();
        for &v in col.data() {
            if values.last() == Some(&v) {
                *runs.last_mut().expect("runs tracks values") += 1;
            } else {
                values.push(v);
                runs.push(1);
            }
        }
        RleColumn::from_parts(values, runs)
    }

    /// Rebuild from raw (values, runs) pairs — the deserialization path.
    /// Panics when the two vectors disagree in length.
    pub fn from_parts(values: Vec<i64>, runs: Vec<u32>) -> RleColumn {
        assert_eq!(values.len(), runs.len(), "one run length per value");
        let len = runs.iter().map(|&r| r as usize).sum();
        RleColumn {
            values: Arc::new(values),
            runs: Arc::new(runs),
            len,
        }
    }

    /// The distinct run values, in order.
    pub fn run_values(&self) -> &[i64] {
        &self.values
    }

    /// The run lengths, aligned with [`RleColumn::run_values`].
    pub fn run_lengths(&self) -> &[u32] {
        &self.runs
    }

    /// Values of rows `start..end` (bounds clamped): exactly
    /// `decode()[start..end]`. The first run is located by walking the
    /// run lengths (O(runs), no per-row work), then runs are filled until
    /// the window is.
    pub fn window(&self, start: usize, end: usize) -> Vec<i64> {
        let end = end.min(self.len);
        let start = start.min(end);
        let mut out = Vec::with_capacity(end - start);
        let mut row = 0usize;
        for (&v, &r) in self.values.iter().zip(self.runs.iter()) {
            if row >= end {
                break;
            }
            let next = row + r as usize;
            if next > start {
                out.extend(std::iter::repeat_n(v, next.min(end) - row.max(start)));
            }
            row = next;
        }
        out
    }

    /// Values at `rows`. One merge walk over the runs when `rows` ascend
    /// (O(rows + runs)); a row behind the cursor restarts the walk, so
    /// any order is answered, unordered lists just not cheaply.
    pub fn at(&self, rows: &[i64]) -> Vec<i64> {
        let (mut run, mut run_start) = (0usize, 0usize);
        rows.iter()
            .map(|&row| {
                let row = row as usize;
                assert!(
                    row < self.len,
                    "row {row} out of bounds for {} rows",
                    self.len
                );
                if row < run_start {
                    (run, run_start) = (0, 0);
                }
                while row >= run_start + self.runs[run] as usize {
                    run_start += self.runs[run] as usize;
                    run += 1;
                }
                self.values[run]
            })
            .collect()
    }

    /// Decode to a plain column.
    pub fn decode(&self) -> I64Tensor {
        Tensor::from_vec(self.window(0, self.len), &[self.len])
    }

    /// Logical number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs (compressed length).
    pub fn num_runs(&self) -> usize {
        self.values.len()
    }

    /// Equality predicate evaluated run-at-a-time, returning a row mask.
    pub fn eq_mask(&self, v: i64) -> BoolTensor {
        let mut out = Vec::with_capacity(self.len);
        for (&val, &r) in self.values.iter().zip(self.runs.iter()) {
            out.extend(std::iter::repeat_n(val == v, r as usize));
        }
        Tensor::from_vec(out, &[self.len])
    }

    /// Value at a logical row index.
    pub fn get(&self, row: usize) -> i64 {
        self.at(&[row as i64])[0]
    }

    /// Compression ratio (plain size / encoded size), in elements.
    pub fn compression_ratio(&self) -> f64 {
        if self.num_runs() == 0 {
            return 1.0;
        }
        self.len as f64 / (2.0 * self.num_runs() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(v: Vec<i64>) -> I64Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n])
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = col(vec![5, 5, 5, 7, 7, 2, 5, 5]);
        let rle = RleColumn::encode(&c);
        assert_eq!(rle.num_runs(), 4);
        assert_eq!(rle.len(), 8);
        assert_eq!(rle.decode(), c);
    }

    #[test]
    fn eq_mask_matches_plain_comparison() {
        let c = col(vec![1, 1, 2, 3, 3, 3]);
        let rle = RleColumn::encode(&c);
        assert_eq!(rle.eq_mask(3).to_vec(), c.eq_scalar(3).to_vec());
        assert_eq!(rle.eq_mask(9).count_true(), 0);
    }

    #[test]
    fn point_access() {
        let c = col(vec![4, 4, 9, 9, 9, 1]);
        let rle = RleColumn::encode(&c);
        for i in 0..6 {
            assert_eq!(rle.get(i), c.at(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn point_access_checked() {
        RleColumn::encode(&col(vec![1])).get(1);
    }

    #[test]
    fn compression_ratio_reflects_repetition() {
        let repetitive = RleColumn::encode(&col(vec![7; 1000]));
        assert!(repetitive.compression_ratio() > 100.0);
        let unique = RleColumn::encode(&col((0..100).collect()));
        assert!(unique.compression_ratio() <= 1.0);
    }

    #[test]
    fn empty_column() {
        let rle = RleColumn::encode(&col(vec![]));
        assert!(rle.is_empty());
        assert_eq!(rle.decode().numel(), 0);
    }
}
