//! Delta encoding for near-monotonic integer columns.
//!
//! Stores the first value plus zig-zag-coded successive differences,
//! bit-packed via [`BitPackedColumn`]. Timestamps, auto-increment ids and
//! sorted keys — the columns the paper's OCR scenario filters on — shrink
//! to a few bits per row. Access is sequential (decode materialises a
//! prefix sum), which suits the scan-oriented execution model; an
//! **anchor** — the decoded value of every [`ANCHOR_STRIDE`]-th row —
//! bounds how far any read has to walk, so a morsel-sized window or a
//! list of survivor rows costs its own length plus at most one stride.
//! Anchors are derived from the deltas whenever a column is built
//! ([`DeltaColumn::encode`], [`DeltaColumn::from_parts`]) and are not
//! part of [`DeltaColumn::parts`]: serialised bytes do not know them.

use std::sync::Arc;

use tdp_tensor::{I64Tensor, Tensor};

use crate::bitpack::BitPackedColumn;

/// Rows between two anchors — the zone-map chunk
/// (`tdp_storage::zonemap::ZONE_MAP_CHUNK_ROWS` is defined as this), so
/// a pruned scan starts decoding exactly where its first live chunk does.
pub const ANCHOR_STRIDE: usize = 4096;

/// Zig-zag: map signed deltas to unsigned so small magnitudes pack small.
/// Wrapping shift in the u64 domain keeps the map a bijection on all i64.
fn zigzag(v: i64) -> i64 {
    (((v as u64) << 1) as i64) ^ (v >> 63)
}

fn unzigzag(v: i64) -> i64 {
    ((v as u64 >> 1) as i64) ^ -(v & 1)
}

/// An immutable delta-encoded i64 column. Cloning is O(1).
#[derive(Debug, Clone)]
pub struct DeltaColumn {
    first: i64,
    /// Zig-zag deltas, bit-packed. Empty for columns of length ≤ 1.
    deltas: BitPackedColumn,
    len: usize,
    /// `anchors[j]` is the value of row `j * ANCHOR_STRIDE`. Derived.
    anchors: Arc<Vec<i64>>,
}

impl DeltaColumn {
    /// Encode a 1-d i64 tensor.
    ///
    /// Returns `None` when a pairwise difference overflows i64 (pack such
    /// columns plain instead).
    pub fn encode(values: &I64Tensor) -> Option<DeltaColumn> {
        assert_eq!(values.ndim(), 1, "delta encoding applies to 1-d columns");
        let data = values.data();
        let len = data.len();
        if len <= 1 {
            return Some(DeltaColumn {
                first: data.first().copied().unwrap_or(0),
                deltas: BitPackedColumn::encode(&Tensor::from_vec(vec![], &[0])),
                len,
                anchors: Arc::new(data.to_vec()),
            });
        }
        let mut zz = Vec::with_capacity(len - 1);
        for w in data.windows(2) {
            let d = w[1].checked_sub(w[0])?;
            zz.push(zigzag(d));
        }
        let deltas = BitPackedColumn::encode(&Tensor::from_vec(zz, &[len - 1]));
        Some(DeltaColumn {
            first: data[0],
            deltas,
            len,
            anchors: Arc::new(data.iter().step_by(ANCHOR_STRIDE).copied().collect()),
        })
    }

    /// Rebuild from raw parts — the deserialization path. The packed
    /// deltas must hold exactly `len.saturating_sub(1)` values.
    pub fn from_parts(first: i64, deltas: BitPackedColumn, len: usize) -> DeltaColumn {
        assert_eq!(
            deltas.len(),
            len.saturating_sub(1),
            "one delta per successive pair"
        );
        let mut anchors = Vec::with_capacity(len.div_ceil(ANCHOR_STRIDE));
        let mut cur = first;
        for start in (0..len).step_by(ANCHOR_STRIDE) {
            anchors.push(cur);
            for z in deltas.window(start, start + ANCHOR_STRIDE) {
                cur = cur.wrapping_add(unzigzag(z));
            }
        }
        DeltaColumn {
            first,
            deltas,
            len,
            anchors: Arc::new(anchors),
        }
    }

    /// Raw parts `(first, packed zig-zag deltas, len)` for serialization.
    pub fn parts(&self) -> (i64, &BitPackedColumn, usize) {
        (self.first, &self.deltas, self.len)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values of rows `start..end` (bounds clamped): exactly
    /// `decode()[start..end]`. The prefix sum starts at the anchor at or
    /// before `start`, so the cost is O(end − start) plus at most one
    /// stride of lead-in.
    pub fn window(&self, start: usize, end: usize) -> Vec<i64> {
        let end = end.min(self.len);
        let start = start.min(end);
        let mut out = Vec::with_capacity(end - start);
        if start == end {
            return out;
        }
        let anchor = start / ANCHOR_STRIDE;
        let mut cur = self.anchors[anchor];
        // Delta `k` takes row `k` to row `k + 1`.
        let deltas = self.deltas.window(anchor * ANCHOR_STRIDE, end - 1);
        let (lead, body) = deltas.split_at(start - anchor * ANCHOR_STRIDE);
        for &z in lead {
            cur = cur.wrapping_add(unzigzag(z));
        }
        out.push(cur);
        for &z in body {
            cur = cur.wrapping_add(unzigzag(z));
            out.push(cur);
        }
        out
    }

    /// Values at `rows`. Ascending rows walk forward from the previous
    /// row, or from the nearest anchor when that is closer — never more
    /// than one stride per row, never more than the column in total; a
    /// row behind the cursor re-enters at its anchor, so any order is
    /// answered, unordered lists just not cheaply.
    pub fn at(&self, rows: &[i64]) -> Vec<i64> {
        let (mut at, mut cur) = (usize::MAX, 0i64);
        rows.iter()
            .map(|&row| {
                let row = row as usize;
                assert!(
                    row < self.len,
                    "row {row} out of bounds ({} rows)",
                    self.len
                );
                let anchor = row / ANCHOR_STRIDE;
                if at > row || at < anchor * ANCHOR_STRIDE {
                    (at, cur) = (anchor * ANCHOR_STRIDE, self.anchors[anchor]);
                }
                while at < row {
                    cur = cur.wrapping_add(unzigzag(self.deltas.get(at)));
                    at += 1;
                }
                cur
            })
            .collect()
    }

    /// Decode the whole column (prefix sum over the deltas).
    pub fn decode(&self) -> I64Tensor {
        Tensor::from_vec(self.window(0, self.len), &[self.len])
    }

    /// Value at row `i`: a walk from the nearest anchor.
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        self.window(i, i + 1)[0]
    }

    /// Encoded payload size in bytes.
    pub fn memory_bytes(&self) -> usize {
        8 + self.deltas.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(vals: Vec<i64>) {
        let t = Tensor::from_vec(vals.clone(), &[vals.len()]);
        let d = DeltaColumn::encode(&t).expect("encodable");
        assert_eq!(d.decode().to_vec(), vals);
    }

    #[test]
    fn zigzag_inverts() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX / 2,
            i64::MIN / 2,
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
    }

    #[test]
    fn round_trips() {
        round_trip(vec![]);
        round_trip(vec![9]);
        round_trip(vec![10, 11, 12, 13]);
        round_trip(vec![100, 90, 95, 95, -3]);
    }

    #[test]
    fn sequential_get_matches_decode() {
        let vals = vec![5i64, 8, 2, 2, 40];
        let d = DeltaColumn::encode(&Tensor::from_vec(vals.clone(), &[5])).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(d.get(i), v);
        }
    }

    #[test]
    fn timestamps_compress_well() {
        // 1-second cadence with jitter: deltas fit in a few bits.
        let vals: Vec<i64> = (0..10_000)
            .scan(1_660_000_000i64, |t, i| {
                *t += 1 + (i % 3);
                Some(*t)
            })
            .collect();
        let t = Tensor::from_vec(vals, &[10_000]);
        let d = DeltaColumn::encode(&t).unwrap();
        assert!(
            d.memory_bytes() * 10 < 10_000 * 8,
            "expected ≥10x compression, got {} bytes",
            d.memory_bytes()
        );
        assert_eq!(d.decode().to_vec(), t.to_vec());
    }

    #[test]
    fn overflowing_differences_refuse_to_encode() {
        let t = Tensor::from_vec(vec![i64::MIN, i64::MAX], &[2]);
        assert!(DeltaColumn::encode(&t).is_none());
    }
}
