//! Seeded table generators. The same `(seed, scale)` gives the same
//! bytes; the program under test only ever sees the generated tables.
//!
//! Every generator draws from its own [`Rng64`] stream (`seed` mixed with
//! a per-table constant), so adding a table never shifts another's data.

use tdp_core::storage::{Table, TableBuilder};
use tdp_core::tensor::{F32Tensor, Rng64, Tensor};

/// Days covered by `lineitem.l_shipday` (seven years, as in TPC-H).
pub const SHIP_DAYS: i64 = 2556;
/// Distinct order keys at full scale (`orders` row count).
pub const ORDER_KEYS: usize = 50_000;
/// Embedding width of every vector table.
pub const DIM: usize = 64;
/// Gaussian-mixture components the embeddings are drawn from.
pub const CLUSTERS: usize = 32;
/// Rows in one `ingest_embedded` append batch (one zone-map chunk).
pub const APPEND_ROWS: usize = 4096;
/// Distinct `device` values in `events`.
pub const DEVICES: usize = 101;
/// The cutoff `train_step` has to learn.
pub const TRUE_CUTOFF: f32 = 0.62;

const FLAGS: [&str; 3] = ["A", "N", "R"];
const REGIONS: [&str; 5] = ["amer", "apac", "emea", "latam", "mea"];

fn rng(seed: u64, stream: u64) -> Rng64 {
    Rng64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// `lineitem`: sorted `l_shipday` (zone maps prune a date window),
/// `l_orderkey` (bit-packed once set-up compresses the table), three
/// numeric measures, a dictionary flag and `l_v ~ N(0,1)`, the dial
/// every selectivity is set with.
pub fn lineitem(seed: u64, rows: usize, order_keys: usize) -> Table {
    let mut r = rng(seed, 1);
    let flags: Vec<&str> = (0..rows).map(|_| FLAGS[r.below(FLAGS.len())]).collect();
    TableBuilder::new()
        .col_i64(
            "l_shipday",
            (0..rows)
                .map(|i| (i as i64 * SHIP_DAYS) / rows as i64)
                .collect(),
        )
        .col_i64(
            "l_orderkey",
            (0..rows).map(|_| r.below(order_keys) as i64).collect(),
        )
        .col_f32(
            "l_qty",
            (0..rows).map(|_| 1.0 + r.below(50) as f32).collect(),
        )
        .col_f32(
            "l_price",
            (0..rows)
                .map(|_| r.uniform_range(900.0, 105_000.0) as f32)
                .collect(),
        )
        .col_f32(
            "l_disc",
            (0..rows).map(|_| r.below(11) as f32 * 0.01).collect(),
        )
        .col_str("l_flag", &flags)
        .col_f32("l_v", (0..rows).map(|_| r.normal() as f32).collect())
        .build("lineitem")
}

/// `orders`: one row per order key, the join's build side.
pub fn orders(seed: u64, rows: usize) -> Table {
    let mut r = rng(seed, 2);
    TableBuilder::new()
        .col_i64("o_orderkey", (0..rows as i64).collect())
        .col_i64("o_prio", (0..rows).map(|_| r.below(5) as i64).collect())
        .col_f32(
            "o_total",
            (0..rows)
                .map(|_| r.uniform_range(1e3, 5e5) as f32)
                .collect(),
        )
        .build("orders")
}

/// `accounts`: sorted `id`, looked up by point and by short range.
pub fn accounts(seed: u64, rows: usize) -> Table {
    let mut r = rng(seed, 3);
    let regions: Vec<&str> = (0..rows).map(|_| REGIONS[r.below(REGIONS.len())]).collect();
    TableBuilder::new()
        .col_i64("id", (0..rows as i64).collect())
        .col_f32(
            "balance",
            (0..rows)
                .map(|_| r.uniform_range(0.0, 10_000.0) as f32)
                .collect(),
        )
        .col_i64("tier", (0..rows).map(|_| r.below(7) as i64).collect())
        .col_str("region", &regions)
        .build("accounts")
}

/// `small`: a second, smaller table for whole-table statements.
pub fn small(seed: u64, rows: usize) -> Table {
    let mut r = rng(seed, 4);
    TableBuilder::new()
        .col_i64("k", (0..rows).map(|_| r.below(50) as i64).collect())
        .col_f32("v", (0..rows).map(|_| r.normal() as f32).collect())
        .col_f32("w", (0..rows).map(|_| r.uniform() as f32).collect())
        .build("small")
}

/// Gaussian-mixture embeddings (the shape of a learned embedding
/// table): `CLUSTERS` centres, rows assigned round-robin.
pub fn embeddings(seed: u64, stream: u64, rows: usize) -> F32Tensor {
    let mut r = rng(seed, stream);
    let centres: Vec<f32> = (0..CLUSTERS * DIM)
        .map(|_| r.normal() as f32 * 3.0)
        .collect();
    let mut v = Vec::with_capacity(rows * DIM);
    for i in 0..rows {
        let c = i % CLUSTERS;
        for j in 0..DIM {
            v.push(centres[c * DIM + j] + r.normal() as f32 * 0.7);
        }
    }
    Tensor::from_vec(v, &[rows, DIM])
}

/// A vector table (`vecs`, `vecs_small`, `docs`): `id` plus `emb`.
pub fn vector_table(seed: u64, stream: u64, name: &str, rows: usize) -> Table {
    TableBuilder::new()
        .col_i64("id", (0..rows as i64).collect())
        .col_tensor("emb", embeddings(seed, stream, rows))
        .build(name)
}

/// ANN probes: stored vectors of `data` plus small noise (realistic
/// near-duplicates, so IVF recall is meaningful).
pub fn probes(seed: u64, data: &F32Tensor, count: usize) -> Vec<F32Tensor> {
    let mut r = rng(seed, 5);
    let rows = data.shape()[0];
    let flat = data.data();
    (0..count)
        .map(|_| {
            let base = r.below(rows);
            let q: Vec<f32> = flat[base * DIM..(base + 1) * DIM]
                .iter()
                .map(|&x| x + r.normal() as f32 * 0.05)
                .collect();
            Tensor::from_vec(q, &[DIM])
        })
        .collect()
}

/// One `readings` batch for `train_step`, with its supervision target
/// (how many readings pass the true cutoff).
pub fn readings(r: &mut Rng64, rows: usize) -> (Table, f32) {
    let vals: Vec<f32> = (0..rows).map(|_| r.uniform() as f32).collect();
    let target = vals.iter().filter(|&&v| v > TRUE_CUTOFF).count() as f32;
    (
        TableBuilder::new().col_f32("v", vals).build("readings"),
        target,
    )
}

/// `rows` events with consecutive `ts` starting at `first_ts` — the
/// initial `events` table and every append batch share this shape.
pub fn events(r: &mut Rng64, first_ts: i64, rows: usize) -> Table {
    TableBuilder::new()
        .col_i64("ts", (first_ts..first_ts + rows as i64).collect())
        .col_i64(
            "device",
            (0..rows).map(|_| r.below(DEVICES) as i64).collect(),
        )
        .col_f32("val", (0..rows).map(|_| r.normal() as f32).collect())
        .build("events")
}

/// The RNG stream schedules and per-op data are drawn from.
pub fn schedule_rng(seed: u64, client: u64) -> Rng64 {
    rng(seed, 100 + client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::table_digest;

    fn digests(seed: u64) -> Vec<u64> {
        let mut r = schedule_rng(seed, 60);
        let mut tables = vec![
            lineitem(seed, 5000, 100),
            orders(seed, 100),
            accounts(seed, 1000),
            small(seed, 300),
            vector_table(seed, 10, "vecs", 200),
            events(&mut r, 0, 1000),
            events(&mut r, 1000, 100),
            readings(&mut r, 500).0,
        ];
        let emb = tables[4].column("emb").unwrap().data.decode_f32();
        for (i, p) in probes(seed, &emb, 3).into_iter().enumerate() {
            tables.push(
                TableBuilder::new()
                    .col_tensor("p", p.reshape(&[1, DIM]))
                    .build(format!("p{i}")),
            );
        }
        tables.iter().map(table_digest).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(digests(11), digests(11));
        let (a, b) = (digests(11), digests(12));
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x, y, "table {i} does not depend on the seed");
        }
    }

    #[test]
    fn lineitem_has_the_encodings_the_workload_relies_on() {
        use tdp_core::encoding::EncodingKind;
        let t = lineitem(1, 20_000, 1000).compress();
        let kind = |name: &str| t.column(name).unwrap().kind();
        assert_eq!(kind("l_orderkey"), EncodingKind::BitPacked);
        assert_eq!(kind("l_flag"), EncodingKind::Dictionary);
        let days = t.column("l_shipday").unwrap().data.decode_i64();
        assert!(
            days.data().windows(2).all(|w| w[0] <= w[1]),
            "l_shipday must be sorted"
        );
        assert_eq!(*days.data().last().unwrap(), SHIP_DAYS - 1);
    }
}
