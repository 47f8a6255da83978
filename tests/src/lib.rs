//! Shared fixtures for the cross-crate integration tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, ExecContext, ExecError};
use tdp_core::storage::{Table, TableBuilder};
use tdp_core::tensor::{F32Tensor, Rng64, Tensor};
use tdp_core::{ArgType, FunctionSpec, ScalarUdf, Volatility};

pub mod lattice;

/// A small orders/items fixture used by several SQL integration tests.
pub fn orders_table() -> Table {
    TableBuilder::new()
        .col_f32("price", vec![3.0, 1.0, 2.0, 5.0, 4.0, 2.5])
        .col_str("item", &["b", "a", "a", "c", "b", "a"])
        .col_i64("qty", vec![10, 20, 30, 40, 50, 60])
        .build("orders")
}

/// `pics(id, images)`: a per-row key beside a `[rows, 2, 3]` payload
/// column.
pub fn pics_table(rows: usize) -> Table {
    use tdp_core::tensor::Tensor;
    let pixels: Vec<f32> = (0..rows * 6).map(|i| (i % 5) as f32).collect();
    TableBuilder::new()
        .col_i64("id", (0..rows as i64).collect())
        .col_tensor("images", Tensor::from_vec(pixels, &[rows, 2, 3]))
        .build("pics")
}

/// The simplest statements that combine the payload column of
/// [`pics_table`] with a per-row operand, reduce it to one boolean per
/// *element*, or aggregate it in a window: each is a typed error, not a
/// panic.
pub const PAYLOAD_MISUSE: [&str; 10] = [
    "SELECT id FROM pics WHERE images > 1",
    "SELECT id FROM pics WHERE id > images",
    "SELECT images + 1 AS d FROM pics",
    "SELECT images * id AS d FROM pics",
    "SELECT id FROM pics WHERE images IN (1, 2)",
    "SELECT id FROM pics WHERE images BETWEEN 0 AND 1",
    "SELECT CASE WHEN id > 3 THEN images ELSE 0 END AS d FROM pics",
    "SELECT id FROM pics WHERE images = images",
    "SELECT POW(images, id) AS d FROM pics",
    "SELECT id, SUM(images) OVER (PARTITION BY id) AS s FROM pics",
];

/// Aggregates over the dictionary-encoded string column `flag` of a
/// table `c` (beside an integer `key` and an f32 `dial`), each paired
/// with the function its type error names: `<FUNC> over a string column`
/// — ungrouped, grouped and window forms. The `None` rows are the
/// controls: COUNT and COUNT(DISTINCT) tell strings apart without
/// reading them as numbers, and must still succeed.
pub const STRING_AGGREGATE_MISUSE: [(&str, Option<&str>); 7] = [
    (
        "SELECT MIN(flag), MAX(flag), SUM(flag), AVG(flag) FROM c",
        Some("MIN"),
    ),
    (
        "SELECT key, SUM(flag) AS s FROM c WHERE dial > 0.5 GROUP BY key",
        Some("SUM"),
    ),
    (
        "SELECT flag, COUNT(*) AS n, VARIANCE(flag) AS v, STDDEV(flag) AS d FROM c GROUP BY flag",
        Some("VARIANCE"),
    ),
    (
        "SELECT flag, SUM(flag) OVER (PARTITION BY key) AS s FROM c",
        Some("SUM"),
    ),
    (
        "SELECT key, MAX(flag) OVER (PARTITION BY key ORDER BY dial) AS m FROM c WHERE dial > 0.9",
        Some("MAX"),
    ),
    (
        "SELECT COUNT(flag) AS n, COUNT(DISTINCT flag) AS d FROM c",
        None,
    ),
    (
        "SELECT flag, COUNT(flag) OVER (PARTITION BY key) AS n FROM c WHERE dial > 0.99",
        None,
    ),
];

/// Byte-identity of two result tables — the contract every scheduler
/// configuration is held to: same row count, same column order, and per
/// column the same f32 **bit patterns** (so `NaN == NaN`, `-0.0 != 0.0`)
/// and the same string view.
pub fn assert_tables_identical(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row count");
    let names = |t: &Table| -> Vec<String> { t.columns().iter().map(|c| c.name.clone()).collect() };
    assert_eq!(names(a), names(b), "{what}: column order");
    for (x, y) in a.columns().iter().zip(b.columns()) {
        let bits = |c: &tdp_core::storage::Column| -> Vec<u32> {
            let v = c.data.decode_f32().to_vec();
            v.iter().map(|f| f.to_bits()).collect()
        };
        assert_eq!(bits(x), bits(y), "{what}: column {}", x.name);
        assert_eq!(
            x.data.decode_strings(),
            y.data.decode_strings(),
            "{what}: column {} (string view)",
            x.name
        );
    }
}

/// `halve(column)` — a stateless, declared-signature, parallel-safe
/// scalar UDF (the fixture for morsel-scheduler UDF tests). Register it
/// through [`tdp_core::Session::register_udf_parallel`] to let chains
/// applying it cross worker threads.
pub struct HalveUdf;

impl ScalarUdf for HalveUdf {
    fn name(&self) -> &str {
        "halve"
    }

    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name(), vec![ArgType::Column])
            .volatility(Volatility::Immutable)
            .parallel_safe(true)
    }

    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        Ok(EncodedTensor::F32(
            args[0].as_column()?.decode_f32().mul_scalar(0.5),
        ))
    }
}

/// `f(x) = 2x + 1`, counting its invocations. Thread-safe, so it runs on
/// the worker pool when registered with `register_udf_parallel`.
pub struct Counting {
    pub volatility: Volatility,
    pub calls: Arc<AtomicUsize>,
}

impl ScalarUdf for Counting {
    fn name(&self) -> &str {
        "f"
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar("f", vec![ArgType::Column])
            .volatility(self.volatility)
            .parallel_safe(true)
    }
    fn invoke(&self, args: &[ArgValue], _: &ExecContext) -> Result<EncodedTensor, ExecError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let x = args[0].as_column()?.decode_f32();
        Ok(EncodedTensor::F32(x.mul_scalar(2.0).add_scalar(1.0)))
    }
}

/// `t(k, x)`: `k` ascending (so zone maps prune on it), `x ~ N(0, 1)`.
pub fn normal_table(rows: usize) -> Table {
    let mut rng = Rng64::new(44);
    TableBuilder::new()
        .col_i64("k", (0..rows as i64).collect())
        .col_f32("x", (0..rows).map(|_| rng.normal() as f32).collect())
        .build("t")
}

/// A table whose `v` column is block-ordered: chunk-sized runs of rising
/// values, so range predicates can rule out whole 4096-row chunks. `k`
/// cycles 0..=9 (never prunable), `tag` exercises dictionary columns.
pub fn blocked_table(rows: usize) -> Table {
    let vs: Vec<f32> = (0..rows).map(|i| i as f32).collect();
    let ks: Vec<i64> = (0..rows).map(|i| (i % 10) as i64).collect();
    let tags: Vec<String> = (0..rows).map(|i| format!("g{}", i % 4)).collect();
    TableBuilder::new()
        .col_f32("v", vs)
        .col_i64("k", ks)
        .col_str("tag", &tags)
        .build("t")
}

/// Clustered embeddings: `nclusters` well-separated centers with small
/// jitter, so IVF's k-means finds real structure and recall is stable.
pub fn clustered_vectors(n: usize, d: usize, nclusters: usize, seed: u64) -> F32Tensor {
    let mut rng = Rng64::new(seed);
    let centers = F32Tensor::randn(&[nclusters, d], 0.0, 10.0, &mut rng);
    let jitter = F32Tensor::randn(&[n, d], 0.0, 0.1, &mut rng);
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        let c = i % nclusters;
        for j in 0..d {
            data.push(centers.data()[c * d + j] + jitter.data()[i * d + j]);
        }
    }
    Tensor::from_vec(data, &[n, d])
}

/// `vecs(id, emb)`: `n` rows of [`clustered_vectors`] in 8 clusters.
pub fn vecs_table(n: usize, d: usize, seed: u64) -> Table {
    let ids: Vec<i64> = (0..n as i64).collect();
    TableBuilder::new()
        .col_i64("id", ids)
        .col_tensor("emb", clustered_vectors(n, d, 8, seed))
        .build("vecs")
}

/// Composite dense keys, for joins and DISTINCT: `cp` probes with 103
/// rows over `(a, b)` in `0..9 × 0..6` — so some rows hold one key in
/// the build's range and the other outside it — with a dictionary `tag`
/// and a boolean `hot` beside them; `cu` holds each pair of `0..8 ×
/// 0..5` once, `cr` the same pairs with three repeated. The build sides'
/// `name` is a dictionary encoded apart from `cp.tag` (two strings
/// shared, one of its own). 40-odd build rows span several seven-row
/// morsels.
pub fn composite_key_tables() -> [Table; 3] {
    let n = 103;
    let tags: Vec<String> = (0..n).map(|i| format!("g{}", i * 5 % 4)).collect();
    let probe = TableBuilder::new()
        .col_i64("a", (0..n).map(|i| (i * 7 % 9) as i64).collect())
        .col_i64("b", (0..n).map(|i| ((i * 5 + i / 9) % 6) as i64).collect())
        .col_str("tag", &tags)
        .col_bool("hot", (0..n).map(|i| i % 3 == 0).collect())
        .col_f32("v", (0..n).map(|i| (i % 13) as f32 - 6.0).collect())
        .build("cp");
    let build = |name: &str, pairs: Vec<(i64, i64)>| {
        let rows = pairs.len();
        let names: Vec<&str> = (0..rows).map(|i| ["g1", "zz", "g3"][i % 3]).collect();
        TableBuilder::new()
            .col_i64("a", pairs.iter().map(|p| p.0).collect())
            .col_i64("b", pairs.iter().map(|p| p.1).collect())
            .col_str("name", &names)
            .col_bool("hot", (0..rows).map(|i| i % 4 == 1).collect())
            .col_f32("w", (0..rows).map(|i| (i * 31 % 17) as f32 / 4.0).collect())
            .build(name)
    };
    let pairs: Vec<(i64, i64)> = (0..8).flat_map(|a| (0..5).map(move |b| (a, b))).collect();
    let repeated = pairs
        .iter()
        .copied()
        .chain([(3, 1), (0, 4), (7, 3)])
        .collect();
    [probe, build("cu", pairs), build("cr", repeated)]
}

/// Joins and DISTINCT over the composite keys of
/// [`composite_key_tables`]: two integer keys, unique and repeated build
/// keys, LEFT joins whose misses include rows with one key in range,
/// selection-fed probe and build sides, a dictionary × bool pair, and
/// two-key DISTINCT.
pub const COMPOSITE_KEYS: &[(&str, &str)] = &[
    (
        "two-key join, unique build keys",
        "SELECT cp.v, cu.w FROM cp JOIN cu ON cp.a = cu.a AND cp.b = cu.b",
    ),
    (
        "two-key join, repeated build keys",
        "SELECT cp.v, cr.w FROM cp JOIN cr ON cp.a = cr.a AND cp.b = cr.b",
    ),
    (
        "two-key left join with misses",
        "SELECT cp.v, cu.name FROM cp LEFT JOIN cu ON cp.a = cu.a AND cp.b = cu.b",
    ),
    (
        "two-key left join, selection-fed probe side",
        "SELECT s.v, cr.w FROM (SELECT a, b, v FROM cp WHERE v > 0.0) AS s \
         LEFT JOIN cr ON s.a = cr.a AND s.b = cr.b",
    ),
    (
        "two-key join, selection-fed build side",
        "SELECT cp.v, s.w FROM cp JOIN (SELECT a, b, w FROM cu WHERE w > 2.0) AS s \
         ON cp.a = s.a AND cp.b = s.b",
    ),
    (
        "dictionary × bool join",
        "SELECT cp.v, cu.w FROM cp JOIN cu ON cp.tag = cu.name AND cp.hot = cu.hot",
    ),
    (
        "dictionary × bool left join",
        "SELECT cp.v, cr.a FROM cp LEFT JOIN cr ON cp.tag = cr.name AND cp.hot = cr.hot",
    ),
    ("two-key distinct", "SELECT DISTINCT a, b FROM cp"),
    (
        "dictionary × bool distinct, selection-fed",
        "SELECT DISTINCT tag, hot FROM cp WHERE v > 0.0",
    ),
];
