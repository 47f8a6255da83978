//! Shared fixtures for the cross-crate integration tests.

use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, ExecContext, ExecError};
use tdp_core::storage::{Table, TableBuilder};
use tdp_core::{ArgType, FunctionSpec, ScalarUdf, Volatility};

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
