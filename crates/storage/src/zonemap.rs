//! Per-chunk column statistics (zone maps) for scan pruning.
//!
//! Every table registered in the [`crate::Catalog`] gets a
//! [`TableZoneMaps`]: for each numeric 1-d column, min/max (and
//! null-count) statistics over fixed-size row chunks of
//! [`ZONE_MAP_CHUNK_ROWS`] rows. The execution layer compiles eligible
//! filter conjuncts into chunk-pruning predicates and consults
//! [`TableZoneMaps::range`] to skip whole morsels before any kernel runs.
//!
//! ## Precision contract
//!
//! Statistics are stored in **f32 — the precision filter kernels compare
//! in**. Integer columns are cast with the same `as f32`
//! round-to-nearest conversion `decode_f32` applies at evaluation time,
//! so a pruning decision made against these bounds mirrors the kernel
//! comparison bit-for-bit: a chunk is only skipped when *no* row in it
//! could pass the f32 comparison the filter would actually execute.
//! Chunks containing NaN report no statistics (unprunable), as do
//! non-numeric and multi-dimensional payload columns.
//!
//! Null counts are carried per chunk for format compatibility with
//! conventional zone maps; this NULL-free dialect always records zero.

use tdp_encoding::EncodedTensor;

use crate::table::Table;

/// Rows per statistics chunk. A divisor of the default morsel size
/// (65 536) so default morsels align exactly to chunk boundaries, and
/// small enough that tiny custom morsels (`set_morsel_rows(7)`) still
/// get usable bounds from the chunk union. Delta columns keep a decode
/// anchor at the same stride, so a pruned scan's first live chunk starts
/// on one.
pub const ZONE_MAP_CHUNK_ROWS: usize = tdp_encoding::delta::ANCHOR_STRIDE;

/// Min/max/null statistics of one chunk of one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStat {
    pub min: f32,
    pub max: f32,
    /// Always zero in this NULL-free dialect; kept so the stat layout
    /// matches conventional zone maps.
    pub null_count: usize,
}

/// Zone map of a single column: one optional stat per chunk (`None`
/// marks an unprunable chunk, e.g. one containing NaN).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZoneMap {
    chunks: Vec<Option<ChunkStat>>,
}

impl ColumnZoneMap {
    /// One stat per chunk of `values`, read without a branch per value:
    /// [`LANES`] running minima, maxima and NaN flags, each updated by a
    /// select, then folded. A chunk holding NaN has no stat.
    fn from_f32(values: &[f32]) -> ColumnZoneMap {
        const LANES: usize = 8;
        let lower = |m: f32, v: f32| if v < m { v } else { m };
        let upper = |m: f32, v: f32| if v > m { v } else { m };
        let chunks = values
            .chunks(ZONE_MAP_CHUNK_ROWS)
            .map(|chunk| {
                let mut lo = [f32::INFINITY; LANES];
                let mut hi = [f32::NEG_INFINITY; LANES];
                let mut nan = [false; LANES];
                let mut blocks = chunk.chunks_exact(LANES);
                for block in &mut blocks {
                    for (l, &v) in block.iter().enumerate() {
                        nan[l] |= v.is_nan();
                        lo[l] = lower(lo[l], v);
                        hi[l] = upper(hi[l], v);
                    }
                }
                for &v in blocks.remainder() {
                    nan[0] |= v.is_nan();
                    lo[0] = lower(lo[0], v);
                    hi[0] = upper(hi[0], v);
                }
                (!nan.contains(&true)).then(|| ChunkStat {
                    min: lo.into_iter().fold(f32::INFINITY, lower),
                    max: hi.into_iter().fold(f32::NEG_INFINITY, upper),
                    null_count: 0,
                })
            })
            .collect();
        ColumnZoneMap { chunks }
    }

    /// Conservative `[min, max]` over the chunks overlapping the row
    /// range `[start, end)`. `None` when any overlapping chunk is
    /// unprunable or missing (so callers must scan): bounds are only ever
    /// those of every row in the range.
    pub fn range(&self, start: usize, end: usize) -> Option<(f32, f32)> {
        if start >= end {
            return None;
        }
        let first = start / ZONE_MAP_CHUNK_ROWS;
        let last = (end - 1) / ZONE_MAP_CHUNK_ROWS;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for c in first..=last {
            let stat = self.chunks.get(c).copied().flatten()?;
            min = min.min(stat.min);
            max = max.max(stat.max);
        }
        if min.is_infinite() && max.is_infinite() {
            return None;
        }
        Some((min, max))
    }

    /// Number of chunks covered.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Keep the first `complete` chunks verbatim and append chunks
    /// computed from `tail` — the rows from
    /// `complete * ZONE_MAP_CHUNK_ROWS` onward. The previously-partial
    /// last chunk is recomputed from `tail` rather than patched, so the
    /// result is identical to a from-scratch build over the full column.
    fn extended(&self, complete: usize, tail: &[f32]) -> ColumnZoneMap {
        let mut chunks: Vec<Option<ChunkStat>> =
            self.chunks[..complete.min(self.chunks.len())].to_vec();
        chunks.extend(ColumnZoneMap::from_f32(tail).chunks);
        ColumnZoneMap { chunks }
    }
}

/// Zone maps of every column of one table, indexed by column position
/// (the slot numbering physical plans resolve column refs to).
#[derive(Debug, Clone, PartialEq)]
pub struct TableZoneMaps {
    rows: usize,
    columns: Vec<Option<ColumnZoneMap>>,
}

impl TableZoneMaps {
    /// Compute statistics for every eligible column: plain 1-d f32 and
    /// the integer encodings (plain, run-length, bit-packed, delta).
    /// Strings, booleans, probability columns and multi-dimensional
    /// payloads get no stats (their filters never prune).
    pub fn build(table: &Table) -> TableZoneMaps {
        let columns = table
            .columns()
            .iter()
            .map(|c| Self::column_stats(&c.data))
            .collect();
        TableZoneMaps {
            rows: table.rows(),
            columns,
        }
    }

    /// Full-column statistics for one encoded column; `None` for
    /// stat-less kinds.
    fn column_stats(data: &EncodedTensor) -> Option<ColumnZoneMap> {
        match data {
            EncodedTensor::F32(t) if t.ndim() == 1 => Some(ColumnZoneMap::from_f32(t.data())),
            EncodedTensor::I64(_)
            | EncodedTensor::Rle(_)
            | EncodedTensor::BitPacked(_)
            | EncodedTensor::Delta(_) => {
                // Same `as f32` cast decode_f32 performs at filter
                // time, so bounds match evaluation exactly.
                let vals: Vec<f32> = data.decode_i64().data().iter().map(|&v| v as f32).collect();
                Some(ColumnZoneMap::from_f32(&vals))
            }
            _ => None,
        }
    }

    /// Incrementally extend these statistics to describe `table`, whose
    /// first `self.rows()` rows are unchanged and whose remainder was
    /// appended. Chunks fully covered by the old row count are reused
    /// verbatim; only the previously-partial tail chunk plus the new
    /// rows are rescanned, so append cost tracks the appended size, not
    /// the table size. (Integer-compressed columns still pay one full
    /// decode — there is no partial-decode API — but the stat scan
    /// itself stays incremental.) The result is equal to
    /// [`TableZoneMaps::build`] over the full table.
    pub fn extend(&self, table: &Table) -> TableZoneMaps {
        debug_assert!(table.rows() >= self.rows, "extend cannot shrink a table");
        let complete = self.rows / ZONE_MAP_CHUNK_ROWS;
        let tail_start = complete * ZONE_MAP_CHUNK_ROWS;
        let columns = table
            .columns()
            .iter()
            .enumerate()
            .map(|(slot, c)| {
                let old = self.columns.get(slot).and_then(|z| z.as_ref());
                match (&c.data, old) {
                    (EncodedTensor::F32(t), Some(oldz)) if t.ndim() == 1 => {
                        Some(oldz.extended(complete, &t.data()[tail_start..]))
                    }
                    (
                        EncodedTensor::I64(_)
                        | EncodedTensor::Rle(_)
                        | EncodedTensor::BitPacked(_)
                        | EncodedTensor::Delta(_),
                        Some(oldz),
                    ) => {
                        let vals: Vec<f32> = c.data.decode_i64().data()[tail_start..]
                            .iter()
                            .map(|&v| v as f32)
                            .collect();
                        Some(oldz.extended(complete, &vals))
                    }
                    // No prior stats (or the column changed shape):
                    // fall back to a full build for this column.
                    _ => Self::column_stats(&c.data),
                }
            })
            .collect();
        TableZoneMaps {
            rows: table.rows(),
            columns,
        }
    }

    /// Row count the stats were computed over (staleness check).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Per-column zone map by slot; `None` for stat-less columns.
    pub fn column(&self, slot: usize) -> Option<&ColumnZoneMap> {
        self.columns.get(slot).and_then(|c| c.as_ref())
    }

    /// Conservative bounds of `[start, end)` of column `slot`, `None`
    /// when the column or any overlapping chunk lacks stats.
    pub fn range(&self, slot: usize, start: usize, end: usize) -> Option<(f32, f32)> {
        self.column(slot)?.range(start, end.min(self.rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use tdp_tensor::Tensor;

    #[test]
    fn f32_column_bounds_per_chunk() {
        let n = ZONE_MAP_CHUNK_ROWS * 2 + 100;
        let t = TableBuilder::new()
            .col_f32("v", (0..n).map(|i| i as f32).collect())
            .build("t");
        let zm = TableZoneMaps::build(&t);
        assert_eq!(zm.rows(), n);
        // First chunk alone.
        assert_eq!(
            zm.range(0, 0, ZONE_MAP_CHUNK_ROWS),
            Some((0.0, (ZONE_MAP_CHUNK_ROWS - 1) as f32))
        );
        // Straddling two chunks unions their bounds.
        let r = zm.range(0, ZONE_MAP_CHUNK_ROWS - 1, ZONE_MAP_CHUNK_ROWS + 1);
        assert_eq!(r, Some((0.0, (2 * ZONE_MAP_CHUNK_ROWS - 1) as f32)));
        // Tail chunk is partial but still bounded.
        let r = zm.range(0, 2 * ZONE_MAP_CHUNK_ROWS, n);
        assert_eq!(r, Some(((2 * ZONE_MAP_CHUNK_ROWS) as f32, (n - 1) as f32)));
    }

    #[test]
    fn i64_column_uses_filter_cast() {
        let t = TableBuilder::new()
            .col_i64("q", vec![5, -3, 10, 7])
            .build("t");
        let zm = TableZoneMaps::build(&t);
        assert_eq!(zm.range(0, 0, 4), Some((-3.0, 10.0)));
    }

    /// The per-value branching form `from_f32` replaced, as its oracle.
    fn branching_stats(values: &[f32]) -> Vec<Option<(f32, f32)>> {
        values
            .chunks(ZONE_MAP_CHUNK_ROWS)
            .map(|chunk| {
                let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
                for &v in chunk {
                    if v.is_nan() {
                        return None;
                    }
                    min = min.min(v);
                    max = max.max(v);
                }
                Some((min, max))
            })
            .collect()
    }

    #[test]
    fn chunk_stats_equal_the_branching_scan() {
        let n = ZONE_MAP_CHUNK_ROWS;
        let mut rng = tdp_tensor::Rng64::new(3);
        let mut values: Vec<f32> = (0..5 * n + 13).map(|_| rng.normal() as f32).collect();
        values[n + 7] = f32::NAN; // chunk 1: NaN mid-chunk
        values[2 * n..3 * n].fill(-0.0); // chunk 2: all −0, one +0
        values[2 * n + 100] = 0.0;
        values[3 * n + 1] = f32::INFINITY; // chunk 3: ±∞
        values[3 * n + 2] = f32::NEG_INFINITY;
        values[4 * n..5 * n].fill(f32::NEG_INFINITY); // chunk 4: only −∞
        values[5 * n + 12] = f32::NAN; // the partial tail, NaN in its last row
        let want = branching_stats(&values);
        let got: Vec<Option<(f32, f32)>> = ColumnZoneMap::from_f32(&values)
            .chunks
            .iter()
            .map(|c| c.map(|s| (s.min, s.max)))
            .collect();
        // As values: ±0 compare equal, whichever sign either scan keeps.
        assert_eq!(got, want);
        assert_eq!(got[1], None);
        assert_eq!(got[2], Some((0.0, 0.0)));
        assert_eq!(got[3], Some((f32::NEG_INFINITY, f32::INFINITY)));
        assert_eq!(got[5], None);
        // A tail shorter than one lane block, and one without NaN.
        for tail in [3, 13] {
            let v = &values[..5 * n + tail - 1];
            let got: Vec<_> = (ColumnZoneMap::from_f32(v).chunks.iter())
                .map(|c| c.map(|s| (s.min, s.max)))
                .collect();
            assert_eq!(got, branching_stats(v));
        }
    }

    #[test]
    fn nan_chunk_is_unprunable() {
        let t = TableBuilder::new()
            .col_f32("v", vec![1.0, f32::NAN, 3.0])
            .build("t");
        let zm = TableZoneMaps::build(&t);
        assert_eq!(zm.range(0, 0, 3), None);
    }

    #[test]
    fn string_and_payload_columns_have_no_stats() {
        let t = TableBuilder::new()
            .col_str("s", &["a", "b"])
            .col_tensor("emb", Tensor::<f32>::zeros(&[2, 4]))
            .col_f32("v", vec![1.0, 2.0])
            .build("t");
        let zm = TableZoneMaps::build(&t);
        assert!(zm.column(0).is_none());
        assert!(zm.column(1).is_none());
        assert_eq!(zm.range(2, 0, 2), Some((1.0, 2.0)));
    }

    #[test]
    fn extend_matches_wholesale_build() {
        // Old table ends mid-chunk, so extend must recompute the
        // partial tail chunk and append fresh ones.
        let old_n = ZONE_MAP_CHUNK_ROWS + 123;
        let new_n = 3 * ZONE_MAP_CHUNK_ROWS + 7;
        let vals: Vec<f32> = (0..new_n).map(|i| ((i * 37) % 1009) as f32).collect();
        let ints: Vec<i64> = (0..new_n).map(|i| (i as i64 % 97) - 48).collect();
        let old = TableBuilder::new()
            .col_f32("v", vals[..old_n].to_vec())
            .col_i64("q", ints[..old_n].to_vec())
            .col_str("s", &vec!["x"; old_n])
            .build("t");
        let new = TableBuilder::new()
            .col_f32("v", vals.clone())
            .col_i64("q", ints.clone())
            .col_str("s", &vec!["x"; new_n])
            .build("t");
        let extended = TableZoneMaps::build(&old).extend(&new);
        let rebuilt = TableZoneMaps::build(&new);
        assert_eq!(extended.rows(), rebuilt.rows());
        for slot in 0..3 {
            assert_eq!(
                extended.column(slot).map(ColumnZoneMap::chunk_count),
                rebuilt.column(slot).map(ColumnZoneMap::chunk_count),
                "slot {slot}"
            );
            for start in (0..new_n).step_by(ZONE_MAP_CHUNK_ROWS / 2) {
                let end = (start + ZONE_MAP_CHUNK_ROWS).min(new_n);
                assert_eq!(
                    extended.range(slot, start, end),
                    rebuilt.range(slot, start, end),
                    "slot {slot} rows {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn extend_on_chunk_boundary_reuses_all_old_chunks() {
        let old_n = 2 * ZONE_MAP_CHUNK_ROWS;
        let new_n = old_n + 10;
        let vals: Vec<f32> = (0..new_n).map(|i| i as f32).collect();
        let old = TableBuilder::new()
            .col_f32("v", vals[..old_n].to_vec())
            .build("t");
        let new = TableBuilder::new().col_f32("v", vals).build("t");
        let extended = TableZoneMaps::build(&old).extend(&new);
        assert_eq!(extended.column(0).unwrap().chunk_count(), 3);
        assert_eq!(
            extended.range(0, old_n, new_n),
            Some((old_n as f32, (new_n - 1) as f32))
        );
    }

    #[test]
    fn out_of_range_rows_clamp() {
        let t = TableBuilder::new().col_f32("v", vec![1.0, 2.0]).build("t");
        let zm = TableZoneMaps::build(&t);
        assert_eq!(zm.range(0, 0, 100), Some((1.0, 2.0)));
        assert_eq!(zm.range(0, 5, 5), None, "empty range has no bounds");
    }
}
