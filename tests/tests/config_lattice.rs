//! The in-process configuration lattice: one fixed query corpus run at
//! every point of threads × morsel rows × chain kernels × zone maps ×
//! memory budget, each compared bytewise to the sequential oracle
//! (threads = 1, kernels off, zone maps off) at the same morsel size —
//! morsel boundaries are the one knob allowed to move a float's last
//! bit. Every point also checks that `run_profiled()` returns the bytes
//! `run()` does, and that a scalar subquery returns the bytes the same
//! query returns at top level: all three ride one plan walker.
//!
//! This replaces re-running the whole suite once per `TDP_*` switch in
//! CI; the setters and `TdpEngine::with_memory_budget` reach every point
//! without touching the process environment.

use std::sync::Arc;

use tdp_core::storage::{Table, TableBuilder};
use tdp_core::{ParamValues, Session, TdpEngine};
use tdp_integration::{assert_tables_identical, HalveUdf};

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

/// One query per plan shape the walker distinguishes.
const CORPUS: &[(&str, &str)] = &[
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
];

/// The `$n`-bound range scan: bounds arrive as parameters, so zone-map
/// pruning resolves them per execution.
const RANGE_SCAN: &str = "SELECT v, x FROM t WHERE v BETWEEN ? AND ?";

/// A float aggregate spelled at top level and as a scalar subquery.
const SUB_TOP: &str = "SELECT SUM(x) AS s FROM t WHERE k < 7";
const SUB_NESTED: &str = "SELECT (SELECT SUM(x) FROM t WHERE k < 7) AS s FROM t LIMIT 1";

fn session(budget: Option<u64>) -> Session {
    let tdp = match budget {
        Some(b) => TdpEngine::with_memory_budget(b),
        None => TdpEngine::new(),
    }
    .session();
    tdp.register_table(fact());
    tdp.register_table(dim());
    tdp.register_table(dim2());
    // Session-bound (no Send + Sync proof): pins its chain to the
    // session thread at every thread count.
    tdp.register_udf(Arc::new(HalveUdf));
    tdp
}

/// Run the corpus at the session's current configuration.
fn run_corpus(tdp: &Session) -> Vec<(String, Table)> {
    let mut out: Vec<(String, Table)> = CORPUS
        .iter()
        .map(|(name, sql)| (name.to_string(), tdp.query(sql).unwrap().run().unwrap()))
        .collect();
    let ranged = tdp.prepare(RANGE_SCAN).unwrap();
    for (lo, hi) in [(4090.0, 4200.0), (0.0, 50.0)] {
        let params = ParamValues::new().number(lo).number(hi);
        out.push((
            format!("range scan {lo}..{hi}"),
            ranged.bind(params).unwrap().run().unwrap(),
        ));
    }
    out
}

#[test]
fn every_lattice_point_matches_the_sequential_oracle() {
    let default_morsel = tdp_core::exec::DEFAULT_MORSEL_ROWS;
    for morsel_rows in [7, default_morsel] {
        let oracle = {
            let tdp = session(None);
            tdp.set_threads(1);
            tdp.set_morsel_rows(morsel_rows);
            tdp.set_chain_kernels(false);
            tdp.set_zone_maps(false);
            run_corpus(&tdp)
        };
        for budget in [None, Some(256 << 20)] {
            let tdp = session(budget);
            tdp.set_morsel_rows(morsel_rows);
            for threads in [1, 4] {
                for kernels in [true, false] {
                    for zone_maps in [true, false] {
                        tdp.set_threads(threads);
                        tdp.set_chain_kernels(kernels);
                        tdp.set_zone_maps(zone_maps);
                        let point = format!(
                            "threads={threads} morsel_rows={morsel_rows} kernels={kernels} \
                             zone_maps={zone_maps} budget={budget:?}"
                        );
                        let got = run_corpus(&tdp);
                        for ((name, got), (_, want)) in got.iter().zip(&oracle) {
                            assert_tables_identical(got, want, &format!("{name} @ {point}"));
                        }
                        // PROFILE is the same walk with the recorder on.
                        for ((name, sql), (_, plain)) in CORPUS.iter().zip(&got) {
                            let (profiled, _) = tdp.query(sql).unwrap().run_profiled().unwrap();
                            assert_tables_identical(
                                &profiled,
                                plain,
                                &format!("profiled {name} @ {point}"),
                            );
                        }
                        // A subquery is the same walk, re-entered.
                        assert_tables_identical(
                            &tdp.query(SUB_NESTED).unwrap().run().unwrap(),
                            &tdp.query(SUB_TOP).unwrap().run().unwrap(),
                            &format!("subquery vs top level @ {point}"),
                        );
                    }
                }
            }
        }
    }
}
