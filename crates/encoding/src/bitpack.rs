//! Bit-packed integer encoding.
//!
//! Stores an i64 column as `(min, width)` metadata plus offsets packed at
//! `width` bits each — the classic low-cardinality / small-range layout of
//! columnar stores. Random access is O(1), so operators can probe packed
//! columns without decompressing.

use std::sync::Arc;

use tdp_tensor::{I64Tensor, Tensor};

/// An immutable bit-packed i64 column. Cloning is O(1): the packed words
/// are shared, like a tensor's buffer.
#[derive(Debug, Clone)]
pub struct BitPackedColumn {
    /// Minimum of the original values; stored values are offsets from it.
    min: i64,
    /// Bits per value (0 when every value equals `min`).
    width: u32,
    /// Packed offsets, little-endian within each u64 word.
    words: Arc<Vec<u64>>,
    len: usize,
}

impl BitPackedColumn {
    /// Pack a 1-d i64 tensor.
    pub fn encode(values: &I64Tensor) -> BitPackedColumn {
        assert_eq!(values.ndim(), 1, "bit-packing applies to 1-d columns");
        let data = values.data();
        let len = data.len();
        if len == 0 {
            return BitPackedColumn {
                min: 0,
                width: 0,
                words: Arc::default(),
                len: 0,
            };
        }
        let min = data.iter().copied().min().expect("non-empty");
        let max = data.iter().copied().max().expect("non-empty");
        let range = (max as i128 - min as i128) as u128;
        let width = if range == 0 {
            0
        } else {
            128 - range.leading_zeros()
        };
        assert!(width <= 64, "range does not fit in 64 bits");
        let width = width.min(64);

        let total_bits = len * width as usize;
        let mut words = vec![0u64; total_bits.div_ceil(64)];
        if width > 0 {
            for (i, &v) in data.iter().enumerate() {
                let off = (v as i128 - min as i128) as u64;
                let bit = i * width as usize;
                let (w, s) = (bit / 64, (bit % 64) as u32);
                words[w] |= off << s;
                if s + width > 64 {
                    words[w + 1] |= off >> (64 - s);
                }
            }
        }
        BitPackedColumn {
            min,
            width,
            words: Arc::new(words),
            len,
        }
    }

    /// Rebuild from raw parts — the deserialization path. Panics when the
    /// word buffer cannot hold `len` values of `width` bits.
    pub fn from_parts(min: i64, width: u32, words: Vec<u64>, len: usize) -> BitPackedColumn {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        let needed = (len * width as usize).div_ceil(64);
        assert!(
            words.len() >= needed,
            "word buffer too short for {len} x {width}-bit values"
        );
        BitPackedColumn {
            min,
            width,
            words: Arc::new(words),
            len,
        }
    }

    /// Raw parts `(min, width, words, len)` for serialization.
    pub fn parts(&self) -> (i64, u32, &[u64], usize) {
        (self.min, self.width, &self.words, self.len)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// O(1) random access.
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        if self.width == 0 {
            return self.min;
        }
        let bit = i * self.width as usize;
        let (w, s) = (bit / 64, (bit % 64) as u32);
        let mut off = self.words[w] >> s;
        if s + self.width > 64 {
            off |= self.words[w + 1] << (64 - s);
        }
        let mask = if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        self.min.wrapping_add((off & mask) as i64)
    }

    /// Values of rows `start..end` (bounds clamped): exactly
    /// `decode()[start..end]` in O(end − start). The words are streamed —
    /// each value is one shift of the 128-bit pair of words it can
    /// straddle, with no per-value bounds assert — so a morsel-sized
    /// window costs its own width, not the column's.
    pub fn window(&self, start: usize, end: usize) -> Vec<i64> {
        let end = end.min(self.len);
        let start = start.min(end);
        if self.width == 0 {
            return vec![self.min; end - start];
        }
        let (min, w, words) = (self.min, self.width as usize, self.words.as_slice());
        let mask = u64::MAX >> (64 - self.width);
        // Rows whose two-word read stays inside the buffer; the few
        // values packed into the last word go through `get`.
        let paired = (words.len().saturating_sub(1) * 64)
            .div_ceil(w)
            .clamp(start, end);
        let mut out = Vec::with_capacity(end - start);
        out.extend((start..paired).map(|i| {
            let bit = i * w;
            let pair = words[bit >> 6] as u128 | (words[(bit >> 6) + 1] as u128) << 64;
            min.wrapping_add(((pair >> (bit & 63)) as u64 & mask) as i64)
        }));
        out.extend((paired..end).map(|i| self.get(i)));
        out
    }

    /// Values at `rows`, in any order, repeats allowed: O(1) per row.
    pub fn at(&self, rows: &[i64]) -> Vec<i64> {
        rows.iter().map(|&r| self.get(r as usize)).collect()
    }

    /// Decode the whole column.
    pub fn decode(&self) -> I64Tensor {
        Tensor::from_vec(self.window(0, self.len), &[self.len])
    }

    /// Packed payload size in bytes (metadata excluded).
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(vals: Vec<i64>) {
        let t = Tensor::from_vec(vals.clone(), &[vals.len()]);
        let packed = BitPackedColumn::encode(&t);
        assert_eq!(packed.decode().to_vec(), vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(packed.get(i), v, "row {i}");
        }
    }

    #[test]
    fn round_trips_small_ranges() {
        round_trip(vec![0, 1, 2, 3, 2, 1, 0]);
        round_trip(vec![100, 101, 100, 103]);
        round_trip(vec![-5, 5, -5, 0]);
    }

    #[test]
    fn constant_column_needs_zero_bits() {
        let t = Tensor::from_vec(vec![42i64; 1000], &[1000]);
        let p = BitPackedColumn::encode(&t);
        assert_eq!(p.width(), 0);
        assert!(p.memory_bytes() < 32);
        assert_eq!(p.decode().to_vec(), vec![42; 1000]);
    }

    #[test]
    fn wide_values_still_round_trip() {
        round_trip(vec![i64::MIN, 0, i64::MAX]);
        round_trip(vec![i64::MAX, i64::MAX - 1]);
    }

    #[test]
    fn empty_column() {
        let p = BitPackedColumn::encode(&Tensor::from_vec(Vec::<i64>::new(), &[0]));
        assert!(p.is_empty());
        assert_eq!(p.decode().to_vec(), Vec::<i64>::new());
    }

    #[test]
    fn straddles_word_boundaries() {
        // width 7 over > 64 values forces cross-word reads.
        let vals: Vec<i64> = (0..200).map(|i| i % 100).collect();
        round_trip(vals);
    }

    #[test]
    fn compression_ratio_on_low_cardinality() {
        let vals: Vec<i64> = (0..10_000).map(|i| i % 4).collect();
        let t = Tensor::from_vec(vals, &[10_000]);
        let p = BitPackedColumn::encode(&t);
        assert_eq!(p.width(), 2);
        // 2 bits/value vs 64: ~32x smaller.
        assert!(p.memory_bytes() * 20 < 10_000 * 8, "{}", p.memory_bytes());
    }
}
