//! The configuration lattice's corpus and the session it runs in: the
//! tables every statement reads, the statements (one per plan shape the
//! walker distinguishes, then the ones that fail while running), the
//! prepared scans whose bounds arrive as parameters, and the barrier
//! statements only the golden files pin. The lattice
//! (`tests/config_lattice.rs`) runs the corpus at every configuration
//! point; the golden files (`tests/explain_golden.rs`) hold every
//! statement's plan and result digest.

use std::sync::Arc;

use tdp_core::storage::{Table, TableBuilder};
use tdp_core::{Session, TdpEngine};

use crate::{pics_table, HalveUdf};

/// Three 4096-row zone-map chunks with `v` ascending, so range filters
/// prune whole chunks, and `x` spread over nine decades, so f32 sums
/// are visibly non-associative.
const ROWS: usize = 9_000;

fn fact() -> Table {
    let vs: Vec<f32> = (0..ROWS).map(|i| i as f32).collect();
    let xs: Vec<f32> = (0..ROWS)
        .map(|i| ((i * 7919) % 1000) as f32 * 10f32.powi((i % 9) as i32 - 4))
        .collect();
    let ks: Vec<i64> = (0..ROWS).map(|i| ((i * 31) % 11) as i64).collect();
    let tags: Vec<String> = (0..ROWS).map(|i| format!("g{}", (i * 7) % 5)).collect();
    TableBuilder::new()
        .col_f32("v", vs)
        .col_f32("x", xs)
        .col_i64("k", ks)
        .col_str("tag", &tags)
        .build("t")
}

fn dim() -> Table {
    TableBuilder::new()
        .col_i64("k", vec![0, 1, 2, 3, 4, 0, 1, 20])
        .col_f32("w", vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5])
        .build("d")
}

/// A 40-row build side that spans several 7-row morsels: `ek` repeats
/// every key of `t.k` (plus strangers), `etag` is a dictionary column
/// encoded apart from `t.tag` (two shared strings, two of its own), `p`
/// is bit-packed, and `w` crosses the `w > 24` filter late in the table.
fn dim2() -> Table {
    use tdp_core::encoding::{BitPackedColumn, EncodedTensor};
    use tdp_core::tensor::Tensor;
    const N: usize = 40;
    let etags: Vec<&str> = (0..N).map(|i| ["g0", "zz", "g3", "aa"][i % 4]).collect();
    let ps: Vec<i64> = (0..N).map(|i| ((i * 5) % 16) as i64).collect();
    TableBuilder::new()
        .col_i64("ek", (0..N).map(|i| ((i * 3) % 14) as i64).collect())
        .col_str("etag", &etags)
        .col_encoded(
            "p",
            EncodedTensor::BitPacked(BitPackedColumn::encode(&Tensor::from_vec(ps, &[N]))),
        )
        .col_f32("w", (0..N).map(|i| i as f32 * 0.75).collect())
        .build("e")
}

/// `u`: the unique dense keys `0..37`, their decimal renderings as a
/// dictionary (a string key that an integer key matches under the
/// mixed-class join), and a payload.
fn unique_dim() -> Table {
    const N: usize = 37;
    let names: Vec<String> = (0..N).map(|i| i.to_string()).collect();
    TableBuilder::new()
        .col_i64("id", (0..N as i64).collect())
        .col_str("name", &names)
        .col_f32("w", (0..N).map(|i| (i * 31 % 17) as f32 / 4.0).collect())
        .build("u")
}

/// Rows of the `compress()`ed fact table `c` at a morsel size: two
/// default-sized morsels, or 643 seven-row ones either side of a delta
/// anchor (a seven-row window of a delta column walks in from its
/// anchor, so the tiny-morsel legs keep the table short).
fn packed_rows(morsel_rows: usize) -> usize {
    match morsel_rows {
        7 => 4_500,
        _ => 70_000,
    }
}

/// `album(id, images)`: the layout of [`pics_table`] — a `[rows, 2, 3]`
/// payload beside a key — at the row count of `c`, so a bare scan of it
/// spans several morsels at every morsel size.
fn album(rows: usize) -> Table {
    use tdp_core::tensor::Tensor;
    let pixels: Vec<f32> = (0..rows * 6).map(|i| (i % 5) as f32).collect();
    TableBuilder::new()
        .col_i64("id", (0..rows as i64).collect())
        .col_tensor("images", Tensor::from_vec(pixels, &[rows, 2, 3]))
        .build("album")
}

/// Rows of `s`, the same table cut to fit one default-sized morsel — a
/// single window over stored compressed columns — and 215 seven-row ones.
const SMALL_PACKED_ROWS: usize = 1_500;

/// A `compress()`ed fact table: `day` sorted in runs of 700
/// (run-length, so zone maps prune date windows), `key` narrow
/// (bit-packed), `ts` near-monotonic (delta, anchors every 4,096 rows),
/// `flag` a dictionary, `dial` the f32 every selectivity is set with.
fn packed(name: &str, n: usize) -> Table {
    use tdp_core::encoding::EncodingKind as K;
    let flags: Vec<String> = (0..n).map(|i| format!("f{}", (i * 7) % 5)).collect();
    let table = TableBuilder::new()
        .col_i64("day", (0..n).map(|i| (i / 700) as i64).collect())
        .col_i64(
            "key",
            (0..n)
                .map(|i| ((i.wrapping_mul(2_654_435_761) >> 11) % 50) as i64)
                .collect(),
        )
        .col_i64(
            "ts",
            (0..n)
                .map(|i| 1_700_000_000 + 3 * i as i64 + (i % 3) as i64)
                .collect(),
        )
        .col_str("flag", &flags)
        .col_f32(
            "dial",
            (0..n)
                .map(|i| ((i * 7919) % 1000) as f32 / 1000.0)
                .collect(),
        )
        .build(name)
        .compress();
    let kinds: Vec<K> = table.columns().iter().map(|c| c.kind()).collect();
    assert_eq!(
        kinds,
        [
            K::RunLength,
            K::BitPacked,
            K::Delta,
            K::Dictionary,
            K::PlainF32
        ],
        "the shapes below rely on these layouts"
    );
    table
}

/// One query per plan shape the walker distinguishes.
pub const CORPUS: &[(&str, &str)] = &[
    (
        "scan-filter-project",
        "SELECT v * 2 + k AS s, tag FROM t WHERE v >= 4000 AND v < 4500 AND k > 1",
    ),
    (
        "ungrouped float aggregate",
        "SELECT SUM(x), AVG(x), VARIANCE(x) FROM t WHERE x > 0.5",
    ),
    (
        "grouped float aggregate",
        "SELECT tag, SUM(x), AVG(x), VARIANCE(x) FROM t WHERE x > 0.5 GROUP BY tag",
    ),
    // The TPC-H Q1 shape — dictionary key, five aggregates, one computed
    // and one repeated argument — at 0% / 1% / 50% / 100% selectivity:
    // all-empty morsels, the sparse survivor-index fold, the dense
    // masked fold, and a mask that keeps everything.
    (
        "q1 shape 0%",
        "SELECT tag, SUM(k) AS q, SUM(x) AS p, SUM(x * (1 - v)) AS net, AVG(x) AS d, COUNT(*) AS n \
         FROM t WHERE v < 0 GROUP BY tag",
    ),
    (
        "q1 shape 1%",
        "SELECT tag, SUM(k) AS q, SUM(x) AS p, SUM(x * (1 - v)) AS net, AVG(x) AS d, COUNT(*) AS n \
         FROM t WHERE v < 90 GROUP BY tag",
    ),
    (
        "q1 shape 50%",
        "SELECT tag, SUM(k) AS q, SUM(x) AS p, SUM(x * (1 - v)) AS net, AVG(x) AS d, COUNT(*) AS n \
         FROM t WHERE v >= 4500 GROUP BY tag",
    ),
    (
        "q1 shape 100%",
        "SELECT tag, SUM(k) AS q, SUM(x) AS p, SUM(x * (1 - v)) AS net, AVG(x) AS d, COUNT(*) AS n \
         FROM t WHERE v < 100000 GROUP BY tag",
    ),
    // Ungrouped plain-column aggregates ride the same selection-fed fold
    // as the grouped shapes — every accumulator kind, same four
    // selectivities.
    (
        "ungrouped 0%",
        "SELECT COUNT(*), COUNT(v > 4000), SUM(x), MIN(x), MAX(x), STDDEV(x) FROM t WHERE v < 0",
    ),
    (
        "ungrouped 1%",
        "SELECT COUNT(*), COUNT(v > 4000), SUM(x), MIN(x), MAX(x), STDDEV(x) FROM t WHERE v < 90",
    ),
    (
        "ungrouped 50%",
        "SELECT COUNT(*), COUNT(v > 4000), SUM(x), MIN(x), MAX(x), STDDEV(x) FROM t \
         WHERE v >= 4500",
    ),
    (
        "ungrouped 100%",
        "SELECT COUNT(*), COUNT(v > 4000), SUM(x), MIN(x), MAX(x), STDDEV(x) FROM t \
         WHERE v < 100000",
    ),
    (
        "two-key (i64, dict) aggregate",
        "SELECT k, tag, SUM(x), MIN(x), MAX(x), STDDEV(x), COUNT(v > 4000) FROM t \
         WHERE x > 0.5 GROUP BY k, tag",
    ),
    // Keys the combine groups over hundreds of partials at 7-row
    // morsels: a span too wide for the direct-index table in every
    // partial and in the combine, and a string key every window encodes
    // with a dictionary of its own.
    (
        "wide-span key in every morsel",
        "SELECT k * 1000003 AS kk, COUNT(*) AS n, SUM(x) AS s, MIN(x) AS lo, MAX(x) AS hi \
         FROM t WHERE x > 0.5 GROUP BY k * 1000003",
    ),
    (
        "per-window dictionary key",
        "SELECT c, tag, COUNT(*) AS n, SUM(x) AS s FROM (SELECT 'lit' AS c, tag, x FROM t) AS q \
         GROUP BY c, tag",
    ),
    (
        "join",
        "SELECT t.v, d.w FROM t JOIN d ON t.k = d.k WHERE t.v < 700",
    ),
    (
        "composite-key join",
        "SELECT t.v, e.w FROM t JOIN e ON t.k = e.ek AND t.tag = e.etag WHERE t.v < 700",
    ),
    (
        "dictionary-key join across two dictionaries",
        "SELECT t.v, e.p FROM t JOIN e ON t.tag = e.etag WHERE t.v < 300",
    ),
    (
        "join with duplicate build keys",
        "SELECT t.v, e.w, e.p FROM t JOIN e ON t.k = e.ek WHERE t.v < 200",
    ),
    (
        "left join, unmatched rows, a chain on both sides",
        "SELECT s.v, r.w, r.etag, r.p FROM (SELECT v, k FROM t WHERE v < 500) AS s \
         LEFT JOIN (SELECT ek, w, etag, p FROM e WHERE w > 24) AS r ON s.k = r.ek",
    ),
    (
        "join with an empty probe side",
        "SELECT s.v, e.w FROM (SELECT v, k FROM t WHERE v < 0) AS s JOIN e ON s.k = e.ek",
    ),
    // The right side is empty: there is no first row to pad from, so
    // i64, dictionary and bit-packed columns pad with their zero value.
    (
        "left join with an empty right side",
        "SELECT s.v, r.ek, r.etag, r.p, r.w FROM (SELECT v, k FROM t WHERE v < 60) AS s \
         LEFT JOIN (SELECT ek, etag, p, w FROM e WHERE w > 100) AS r ON s.k = r.ek",
    ),
    (
        "sort",
        "SELECT v, k FROM t WHERE v >= 8000 ORDER BY k, v DESC",
    ),
    (
        "top-k",
        "SELECT x, v FROM t WHERE k < 6 ORDER BY x DESC LIMIT 17",
    ),
    ("distinct", "SELECT DISTINCT tag, k FROM t WHERE v > 100"),
    (
        "distinct (dictionary, f32)",
        "SELECT DISTINCT tag, x FROM t WHERE v > 100",
    ),
    ("limit", "SELECT v FROM t WHERE k = 3 LIMIT 41"),
    (
        "window",
        "SELECT v, SUM(x) OVER (PARTITION BY k ORDER BY v) AS run FROM t WHERE v < 300 ORDER BY v",
    ),
    (
        "scalar subquery",
        "SELECT v FROM t WHERE x > (SELECT AVG(x) FROM t WHERE k < 5) AND v < 2000",
    ),
    (
        "udf-pinned chain",
        "SELECT halve(x) AS h FROM t WHERE halve(v) > 4400",
    ),
    // The front end over stored encodings (table `c`): every morsel is a
    // row window over the compressed columns, pruned morsels are never
    // scheduled, and barriers read survivors out of the packed layouts.
    (
        "packed q6: two conjuncts on run-length, two on f32, most morsels pruned",
        "SELECT SUM(dial * key) AS r, COUNT(*) AS n FROM c \
         WHERE day >= 2 AND day < 4 AND dial >= 0.2 AND dial <= 0.8",
    ),
    (
        "packed sort payload",
        "SELECT dial, key, ts FROM c WHERE dial > 0.99 ORDER BY dial DESC",
    ),
    (
        "packed top-k payload",
        "SELECT dial, key, day FROM c WHERE dial > 0.9 ORDER BY dial DESC LIMIT 9",
    ),
    (
        "packed distinct key",
        "SELECT DISTINCT key, day FROM c WHERE dial > 0.97",
    ),
    (
        "packed join key and payload",
        "SELECT s.key, s.ts, e.w, e.p FROM (SELECT key, ts FROM c WHERE dial > 0.98) AS s \
         JOIN e ON s.key = e.ek",
    ),
    (
        "packed left-join pads on both sides",
        "SELECT s.key, s.ts, r.p FROM (SELECT key, ts FROM c WHERE dial > 0.995) AS s \
         LEFT JOIN (SELECT ek, p FROM e WHERE w > 3) AS r ON s.key = r.ek",
    ),
    (
        "packed SUM argument, dense",
        "SELECT flag, SUM(key) AS s, MAX(ts) AS t, COUNT(*) AS n FROM c WHERE dial > 0.4 \
         GROUP BY flag",
    ),
    (
        "packed SUM argument and key, sparse",
        "SELECT day, SUM(key) AS s, COUNT(*) AS n FROM c WHERE dial > 0.99 GROUP BY day",
    ),
    (
        "packed pass-through under a computed projection",
        "SELECT key, ts, day, flag, dial * 2 AS d FROM c WHERE dial > 0.97",
    ),
    (
        "packed pass-through, no filter, limit",
        "SELECT key, ts FROM c LIMIT 4400",
    ),
    // Consecutive conjuncts over a bit-packed column: one window at the
    // default size, many at 7 rows and over `c` — the same kernel path,
    // the same plain `i64` out.
    (
        "three conjuncts over bit-packed, small",
        "SELECT ek, p, w FROM e WHERE p > 2 AND w < 28 AND p < 14",
    ),
    (
        "three conjuncts over bit-packed, large",
        "SELECT key, ts, dial FROM c WHERE key > 5 AND dial > 0.5 AND key < 45",
    ),
    (
        "packed, every morsel pruned, gather exit",
        "SELECT key, ts, dial + 1 AS d FROM c WHERE day > 1000",
    ),
    (
        "packed, every morsel pruned, aggregate",
        "SELECT COUNT(*), SUM(key), MIN(ts) FROM c WHERE day > 1000",
    ),
    (
        "packed, every morsel pruned, sort",
        "SELECT key, ts FROM c WHERE ts < 5 ORDER BY key",
    ),
    (
        "packed, nothing pruned, nothing survives",
        "SELECT key, ts, flag FROM c WHERE dial > 5 ORDER BY key",
    ),
    (
        "packed, nothing pruned, nothing survives, distinct",
        "SELECT DISTINCT key, day FROM c WHERE dial > 5",
    ),
    // Aggregates over a bare scan fold every window in place: only the
    // columns they name are read, where they are stored — every
    // accumulator kind, over plain and compressed columns, ungrouped and
    // grouped by a dictionary and a bit-packed key.
    (
        "bare ungrouped, plain",
        "SELECT COUNT(*), COUNT(v > 4000), SUM(x), AVG(x), MIN(x), MAX(x), VARIANCE(x), \
         STDDEV(x), SUM(k) FROM t",
    ),
    (
        "bare ungrouped, packed",
        "SELECT COUNT(*), COUNT(dial > 0.5), SUM(key), AVG(dial), MIN(ts), MAX(ts), \
         VARIANCE(day), STDDEV(dial) FROM c",
    ),
    (
        "bare, grouped by a dictionary key",
        "SELECT flag, COUNT(*) AS n, SUM(key) AS s, MAX(ts) AS hi FROM c GROUP BY flag",
    ),
    (
        "bare, grouped by a bit-packed key",
        "SELECT key, COUNT(*) AS n, SUM(dial) AS s, MIN(ts) AS lo FROM c GROUP BY key",
    ),
    // A computed key the kernel evaluates over a compressed leaf, under
    // a selection, at every morsel size.
    (
        "selection-fed computed key",
        "SELECT key * 1000003 AS kk, COUNT(*) AS n, SUM(dial) AS s FROM c WHERE dial > 0.3 \
         GROUP BY key * 1000003",
    ),
    // The same stored encodings in a table that fits one default-sized
    // morsel (`s`): the chain is a single window, barriers take their
    // sequential kernels, and rows read out of a compressed column are
    // plain `i64` exactly as they are at 7-row morsels.
    (
        "small packed, three conjuncts and a computed projection",
        "SELECT key, ts, day, flag, dial * 2 AS d FROM s WHERE key > 5 AND dial > 0.5 AND key < 45",
    ),
    ("small packed, project only", "SELECT key, ts, day FROM s"),
    ("small packed, bare scan", "SELECT * FROM s"),
    ("small packed, bare scan, limit", "SELECT * FROM s LIMIT 40"),
    (
        "small packed, limit past the end",
        "SELECT ts, key FROM s WHERE dial > 0.9 LIMIT 4000",
    ),
    (
        "small packed, group by a run-length key",
        "SELECT day, SUM(key) AS s, MAX(ts) AS t, COUNT(*) AS n FROM s WHERE dial > 0.2 GROUP BY day",
    ),
    (
        "small packed, sort payload",
        "SELECT dial, key, ts FROM s WHERE dial > 0.9 ORDER BY dial DESC",
    ),
    (
        "small packed, distinct key",
        "SELECT DISTINCT key, day FROM s WHERE dial > 0.5",
    ),
    (
        "small packed, left-join pads over stored columns",
        "SELECT s.key, s.ts, s.day, e.p FROM s LEFT JOIN e ON s.key = e.ek",
    ),
    (
        "small packed, pinned chain",
        "SELECT halve(dial) AS h, key, ts FROM s WHERE halve(dial) > 0.45",
    ),
    (
        "small packed, pinned projection",
        "SELECT halve(dial) AS h, key FROM s",
    ),
    // Survivors that are one run, starting mid-morsel and crossing
    // morsel boundaries at every morsel size: each morsel's output is a
    // window of a window of the stored payload, or a gather of one run.
    (
        "payload column, one run of survivors",
        "SELECT id, images FROM album WHERE id >= 4000",
    ),
];

/// Statements that fail while running: the chain kernel bails on the
/// first live morsel it meets (zone maps decide which that is), the
/// interpreter re-runs it, and the error text must not depend on any of
/// that. With kernels on, each execution counts exactly one kernel
/// fallback, however many windows bail.
pub const FAILING: &[(&str, &str)] = &[
    (
        "type error under a barrier, leading morsels pruned",
        "SELECT key FROM c WHERE day >= 5 AND dial + 'x' > 1 ORDER BY key",
    ),
    // The aggregate selects and folds each window in one task: the bail
    // happens inside the first live window's task, which re-runs that
    // window on the interpreter.
    (
        "type error under an aggregate, leading morsels pruned",
        "SELECT COUNT(*), SUM(key) FROM c WHERE day >= 5 AND dial + 'x' > 1",
    ),
    (
        "type error under a grouped aggregate, leading morsels pruned",
        "SELECT flag, SUM(key) FROM c WHERE day >= 5 AND dial + 'x' > 1 GROUP BY flag",
    ),
    (
        "type error under an aggregate, every morsel pruned",
        "SELECT COUNT(*) FROM c WHERE day > 1000 AND dial + 'x' > 1",
    ),
    // Every morsel pruned under the barriers that take the selection
    // hand-off: no task runs, and the statement must still fail.
    (
        "type error under a sort, every morsel pruned",
        "SELECT key FROM c WHERE day > 1000 AND dial + 'x' > 1 ORDER BY key",
    ),
    (
        "type error under DISTINCT, every morsel pruned",
        "SELECT DISTINCT key FROM c WHERE day > 1000 AND dial + 'x' > 1",
    ),
    (
        "type error under a join, every morsel pruned",
        "SELECT s.key, e.p FROM (SELECT key FROM c WHERE day > 1000 AND dial + 'x' > 1) AS s \
         JOIN e ON s.key = e.ek",
    ),
    (
        "type error in a projection",
        "SELECT key, dial + 'x' AS d FROM c WHERE day >= 5",
    ),
    // A bare scan folds in place: the kernel bails on a string read as
    // numbers and on a payload column, and the interpreter names them.
    (
        "numeric aggregate over a string column, bare scan",
        "SELECT SUM(flag) FROM c",
    ),
    (
        "payload argument, bare scan",
        "SELECT COUNT(*), SUM(images) FROM album",
    ),
];

/// Barrier statements whose inputs fit one default-sized morsel, so the
/// session defaults run them as one sort run, one join table or one
/// DISTINCT table, while seven-row morsels stage them: single-key
/// DISTINCT, unique and duplicate dense-key joins, LEFT-join misses, a
/// mixed-class key pair and a duplicate-key top-k. Then the edge paths
/// of a one-run barrier: sort keys pinned by the session UDF `halve`,
/// `LIMIT 0` over a multi-morsel input, a zero-row DISTINCT over a
/// payload column (no codes are read) and a zero-row sort on a payload
/// key (its keys are still evaluated, and fail).
pub const BARRIERS: &[(&str, &str)] = &[
    ("distinct, one dense key", "SELECT DISTINCT k FROM t"),
    (
        "distinct, one dictionary key, selection-fed",
        "SELECT DISTINCT tag FROM t WHERE x > 0.5",
    ),
    (
        "join, unique dense build keys",
        "SELECT t.v, u.w FROM t JOIN u ON t.k = u.id WHERE t.v < 500",
    ),
    (
        "join, duplicate dense build keys",
        "SELECT t.v, t.tag, d.w FROM t JOIN d ON t.k = d.k",
    ),
    (
        "left join, misses against unique keys of a selection-fed build side",
        "SELECT t.v, s.name FROM t LEFT JOIN (SELECT id, name FROM u WHERE id < 6) AS s \
         ON t.k = s.id WHERE t.v < 400",
    ),
    (
        "left join, misses against duplicate keys",
        "SELECT t.v, d.w FROM t LEFT JOIN d ON t.k = d.k WHERE t.v < 300",
    ),
    (
        "join, mixed-class key pair",
        "SELECT t.v, u.w FROM t JOIN u ON t.k = u.name WHERE t.v < 300",
    ),
    (
        "top-k over duplicate keys, descending",
        "SELECT v, k FROM t ORDER BY k DESC LIMIT 23",
    ),
    (
        "sort key pinned by a session UDF",
        "SELECT v, k FROM t WHERE v < 300 ORDER BY halve(x), v",
    ),
    (
        "top-k key pinned by a session UDF",
        "SELECT v, x FROM t ORDER BY halve(x) DESC LIMIT 9",
    ),
    (
        "limit 0 over a multi-morsel input",
        "SELECT key, ts FROM c ORDER BY key LIMIT 0",
    ),
    (
        "limit 0 over a multi-morsel selection",
        "SELECT key, ts FROM c WHERE dial > 0.5 ORDER BY dial LIMIT 0",
    ),
    (
        "zero-row distinct over a payload column",
        "SELECT DISTINCT images FROM album WHERE id < 0",
    ),
    (
        "zero-row sort on a multi-dimensional key",
        "SELECT id FROM album WHERE id < 0 ORDER BY images",
    ),
];

/// The `$n`-bound scan of the delta column: the bound arrives as a
/// parameter, pruning resolves it per execution, and the surviving tail
/// starts mid-chunk, between two anchors.
pub const RECENT_SCAN: &str = "SELECT ts, key FROM c WHERE ts >= ?";

/// The `$n`-bound range scan: bounds arrive as parameters, so zone-map
/// pruning resolves them per execution.
pub const RANGE_SCAN: &str = "SELECT v, x FROM t WHERE v BETWEEN ? AND ?";

/// A float aggregate spelled at top level and as a scalar subquery.
pub const SUB_TOP: &str = "SELECT SUM(x) AS s FROM t WHERE k < 7";
pub const SUB_NESTED: &str = "SELECT (SELECT SUM(x) FROM t WHERE k < 7) AS s FROM t LIMIT 1";

pub fn session(budget: Option<u64>, morsel_rows: usize) -> Session {
    let tdp = match budget {
        Some(b) => TdpEngine::with_memory_budget(b),
        None => TdpEngine::new(),
    }
    .session();
    tdp.register_table(fact());
    tdp.register_table(dim());
    tdp.register_table(dim2());
    tdp.register_table(unique_dim());
    tdp.register_table(packed("c", packed_rows(morsel_rows)));
    tdp.register_table(packed("s", SMALL_PACKED_ROWS));
    tdp.register_table(pics_table(20));
    tdp.register_table(album(packed_rows(morsel_rows)));
    tdp.set_morsel_rows(morsel_rows);
    // Session-bound (no Send + Sync proof): pins its chain to the
    // session thread at every thread count.
    tdp.register_udf(Arc::new(HalveUdf));
    tdp
}
