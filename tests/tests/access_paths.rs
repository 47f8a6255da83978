//! PR 8 access paths, end to end: zone-map chunk pruning must be a pure
//! performance substitution (byte-identical results across thread
//! counts, morsel sizes, and `set_zone_maps` settings), the `AnnTopK`
//! operator must match the scan+sort oracle exactly on the flat path and
//! within a declared recall bound on IVF, SQL `CREATE INDEX` must round
//! trip, stale indexes must fall back to exact, and the counters behind
//! `STATS` / `run_profiled` must move.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tdp_core::storage::{Table, TableBuilder};
use tdp_core::tensor::{F32Tensor, Rng64, Tensor};
use tdp_core::{ParamValue, ParamValues, StatementOutcome, Tdp, Volatility};
use tdp_integration::{
    assert_tables_identical, blocked_table, clustered_vectors, vecs_table, vecs_with_nans, Counting,
};

// ----------------------------------------------------------------------
// Zone-map pruning: byte identity across the whole knob matrix
// ----------------------------------------------------------------------

#[test]
fn pruning_is_invisible_across_threads_morsels_and_zone_maps() {
    let blocked = |tdp: &Tdp| tdp.register_table(blocked_table(10_000));
    for sql in [
        "SELECT v, k, tag FROM t WHERE v < 100",
        "SELECT v, k FROM t WHERE v >= 4100 AND v < 4200 AND k > 2",
        "SELECT SUM(v) AS s, COUNT(*) AS c FROM t WHERE v BETWEEN 5000 AND 5100",
        "SELECT v FROM t WHERE v IN (3, 4096, 9999) ORDER BY v",
        "SELECT tag, COUNT(*) AS c FROM t WHERE v > 9990 GROUP BY tag ORDER BY tag",
        "SELECT v FROM t WHERE v < 50 LIMIT 7",
        SUBQUERY,
    ] {
        invisible_at_every_point(&blocked, sql, &ParamValues::new());
    }

    // Morsels the zone maps prove wholly inside the filter: folded with
    // no mask by an aggregate, handed on whole by a selection exit. Each
    // statement has proven, partly proven and excluded morsels, and each
    // is checked against zone maps off at one thread.
    let proving = |tdp: &Tdp| tdp.register_table(proof_table(10_000));
    let appended = |tdp: &Tdp| {
        tdp.register_table(proof_table(10_000));
        assert!(tdp.append_rows("p", &proof_table(3_000)));
    };
    for sql in [
        // A bound equal to chunk 0's max (4095) and chunk 1's min (4096):
        // the closed side proves, the strict side does not.
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE v <= 4095",
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE v < 4095",
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE v >= 4096",
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE v > 4096",
        "SELECT g, SUM(c) AS s, MIN(w) AS lo, COUNT(*) AS n FROM p WHERE v <= 9000 \
         GROUP BY g ORDER BY g",
        "SELECT v, g FROM p WHERE v >= 4096 AND v < 9000 ORDER BY g, v",
        "SELECT DISTINCT g FROM p WHERE v <= 5000",
        // ±0 are one value: `z` is ±0 over chunk 0.
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE z = 0",
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE z = -0.0",
        "SELECT v, z FROM p WHERE z >= 0 ORDER BY v",
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE z <= -0.0 AND v < 8000",
        // Past 2²⁴ `big <= 16781311` compares in f32, where the bound is
        // 16781312: chunk 0 (max 16781311) is proven, and chunk 1's first
        // rows pass although they exceed the bound.
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE big <= 16781311",
        "SELECT v, big FROM p WHERE big <= 16781313 ORDER BY v",
        // Chunk 1 of `w` holds a NaN: no stats, nothing decided there.
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE w < 9000",
        "SELECT v FROM p WHERE w >= 0 ORDER BY v DESC LIMIT 5",
        // IN and OR: chunk-constant `c`, and same-column arms.
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE c IN (0, 2)",
        "SELECT v, c FROM p WHERE c IN (1) ORDER BY v",
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE v < 100 OR v >= 4096",
        "SELECT v FROM p WHERE v < 100 OR v > 8191 ORDER BY v",
        // A conjunct the pruner cannot compile: nothing is proven.
        "SELECT SUM(c) AS s, MAX(v) AS hi, COUNT(*) AS n FROM p WHERE v <= 9000 AND SQRT(v) > 50",
    ] {
        invisible_at_every_point(&proving, sql, &ParamValues::new());
        invisible_at_every_point(&appended, sql, &ParamValues::new());
    }
    // A `$n` bound to a number proves; bound to NaN or to a string it is
    // inert and proves nothing — the string binding's error included.
    let bound = "SELECT g, SUM(c) AS s, COUNT(*) AS n FROM p WHERE v <= ? GROUP BY g ORDER BY g";
    for params in [
        ParamValues::new().number(9000.0),
        ParamValues::new().number(f64::NAN),
        ParamValues::new().string("9000"),
    ] {
        invisible_at_every_point(&proving, bound, &params);
    }
    // Every morsel lies inside the first arm, but the inert second arm
    // still has to be evaluated (and fail) for the filter to.
    let either = "SELECT SUM(c) AS s, COUNT(*) AS n FROM p WHERE v <= 20000 OR v > ?";
    for params in [
        ParamValues::new().number(5.0),
        ParamValues::new().string("5"),
    ] {
        invisible_at_every_point(&proving, either, &params);
    }
}

/// `rows` rows over 4096-row zone-map chunks: `v` = the row, `w` the row
/// with a NaN at row 5000, `z` ±0 over chunk 0 then 1.0, `big` = 2²⁴ +
/// the row, `c` = the chunk, `g` a three-way group key.
fn proof_table(rows: usize) -> Table {
    TableBuilder::new()
        .col_f32("v", (0..rows).map(|i| i as f32).collect())
        .col_f32(
            "w",
            (0..rows)
                .map(|i| if i == 5_000 { f32::NAN } else { i as f32 })
                .collect(),
        )
        .col_f32(
            "z",
            (0..rows)
                .map(|i| match (i < 4096, i % 2) {
                    (true, 0) => 0.0,
                    (true, _) => -0.0,
                    (false, _) => 1.0,
                })
                .collect(),
        )
        .col_i64("big", (0..rows).map(|i| (1 << 24) + i as i64).collect())
        .col_i64("c", (0..rows).map(|i| (i / 4096) as i64).collect())
        .col_str(
            "g",
            &(0..rows)
                .map(|i| ["a", "b", "c"][i % 3])
                .collect::<Vec<_>>(),
        )
        .build("p")
}

/// `sql` bound to `params` over the tables `setup` registers: the same
/// bytes — or the same error — with zone maps on and off, at 1, 2 and 7
/// threads, at 7-row and default morsels, as zone maps off at one thread.
fn invisible_at_every_point(setup: &dyn Fn(&Tdp), sql: &str, params: &ParamValues) {
    let run = |zone_maps: bool, threads: usize, morsel_rows: Option<usize>| {
        let tdp = Tdp::new();
        setup(&tdp);
        tdp.set_zone_maps(zone_maps);
        tdp.set_threads(threads);
        if let Some(m) = morsel_rows {
            tdp.set_morsel_rows(m);
        }
        let prepared = tdp.prepare(sql).unwrap();
        prepared
            .bind(params.clone())
            .and_then(|q| q.run())
            .map_err(|e| e.to_string())
    };
    let baseline = run(false, 1, None);
    for zone_maps in [true, false] {
        for threads in [1usize, 2, 7] {
            for morsel_rows in [Some(7usize), None] {
                let what = format!("{sql} [zm={zone_maps} t={threads} m={morsel_rows:?}]");
                match (&baseline, run(zone_maps, threads, morsel_rows)) {
                    (Ok(want), Ok(got)) => assert_tables_identical(want, &got, &what),
                    (Err(want), Err(got)) => assert_eq!(want, &got, "{what}"),
                    (want, got) => panic!("{what}: {want:?} vs {got:?}"),
                }
            }
        }
    }
}

proptest! {
    /// Random range predicates over random block-sorted data: pruned and
    /// unpruned runs agree bitwise at an awkward morsel size.
    #[test]
    fn random_ranges_prune_identically(
        lo in 0i64..9_000,
        width in 0i64..2_000,
        threads in 1usize..8,
    ) {
        let sql = format!(
            "SELECT v, k FROM t WHERE v >= {lo} AND v < {}",
            lo + width
        );
        let tdp = Tdp::new();
        tdp.register_table(blocked_table(9_500));
        tdp.set_threads(threads);
        tdp.set_morsel_rows(7);
        tdp.set_zone_maps(false);
        let unpruned = tdp.query(&sql).unwrap().run().unwrap();
        tdp.set_zone_maps(true);
        let pruned = tdp.query(&sql).unwrap().run().unwrap();
        prop_assert_eq!(unpruned.rows(), pruned.rows());
        assert_tables_identical(&unpruned, &pruned, &sql);
    }
}

/// Chunk-boundary regression: morsels of 7 rows straddle the 4096-row
/// zone-map chunk boundary (4096 % 7 != 0), so a skipped morsel's rows
/// can span two chunks; a morsel survives if EITHER chunk might match.
#[test]
fn morsels_straddling_chunk_boundaries_prune_correctly() {
    let tdp = Tdp::new();
    tdp.register_table(blocked_table(8_192));
    tdp.set_morsel_rows(7);
    // Rows 4090..4102 straddle the chunk-0/chunk-1 boundary.
    let sql = "SELECT v FROM t WHERE v >= 4090 AND v < 4102";
    tdp.set_zone_maps(true);
    let got = tdp.query(sql).unwrap().run().unwrap();
    assert_eq!(got.rows(), 12);
    let vals = got.column("v").unwrap().data.decode_f32().to_vec();
    assert_eq!(vals, (4090..4102).map(|i| i as f32).collect::<Vec<_>>());
}

/// Pruning composes with the plan cache: a `$1` bound at BIND time must
/// re-evaluate the pruner bounds per execution, not bake in the first
/// binding's.
#[test]
fn param_bounds_evaluate_at_bind_time() {
    let tdp = Tdp::new();
    tdp.register_table(blocked_table(10_000));
    let prepared = tdp
        .prepare("SELECT COUNT(*) AS c FROM t WHERE v < ?")
        .unwrap();
    for bound in [10.0f64, 5_000.0, 9_999.0, 0.0] {
        let mut params = ParamValues::new();
        params.push(ParamValue::Number(bound));
        let got = prepared.bind(params).unwrap().run().unwrap();
        let c = got.column("c").unwrap().data.decode_i64().to_vec()[0];
        assert_eq!(c, bound as i64, "COUNT(v < {bound})");
    }
}

// ----------------------------------------------------------------------
// Access-path observability: profiler counters, engine stats, EXPLAIN
// ----------------------------------------------------------------------

#[test]
fn profiled_runs_report_pruned_and_scanned_morsels() {
    let tdp = Tdp::new();
    tdp.register_table(blocked_table(10_000));
    tdp.set_zone_maps(true);
    // Morsels smaller than the 4096-row zone-map chunks, so morsels
    // beyond chunk 0 are provably empty under v < 100.
    tdp.set_morsel_rows(1024);
    let q = tdp.query("SELECT v FROM t WHERE v < 100").unwrap();
    let (_, profile) = q.run_profiled().unwrap();
    assert!(
        profile.morsels_pruned > 0,
        "only chunk 0 can match; later chunks must prune: {profile:?}"
    );
    assert!(profile.morsels_scanned > 0);
    assert!(
        profile.pretty().contains("zone-maps:"),
        "{}",
        profile.pretty()
    );

    // Zone maps off: the same query consults no pruner at all.
    tdp.set_zone_maps(false);
    let (_, profile) = tdp
        .query("SELECT v FROM t WHERE v < 100")
        .unwrap()
        .run_profiled()
        .unwrap();
    assert_eq!(profile.morsels_pruned, 0);
    assert_eq!(profile.morsels_scanned, 0);
}

/// The TPC-H Q1 shape over a sorted, compressed day column of 16
/// morsels: the bound proves the first 14 whole, the 15th straddles it
/// and the 16th lies past it. Proven morsels are folded with no mask and
/// still count as scanned; the pruned and scanned counts are what they
/// were before morsels could be proven, and the bytes are zone maps off's.
#[test]
fn q1_shape_proves_the_morsels_inside_its_bound() {
    const MORSEL: usize = 4096;
    let rows = 16 * MORSEL;
    let flags = ["A", "N", "R"];
    let table = TableBuilder::new()
        .col_i64("day", (0..rows).map(|i| (i / 256) as i64).collect())
        .col_f32("qty", (0..rows).map(|i| 1.0 + (i % 50) as f32).collect())
        .col_f32(
            "price",
            (0..rows).map(|i| ((i * 7919) % 1000) as f32).collect(),
        )
        .col_str("flag", &(0..rows).map(|i| flags[i % 3]).collect::<Vec<_>>())
        .build("li")
        .compress();
    let sql = "SELECT flag, SUM(qty) AS q, SUM(price) AS p, AVG(qty) AS a, COUNT(*) AS n \
               FROM li WHERE day <= ? GROUP BY flag ORDER BY flag";
    // Morsel m spans days 16m..16m+15: 13 × 16 + 15 = 223 <= 231 < 239.
    let bound = ParamValues::new().number(231.0);
    let run = |zone_maps: bool, threads: usize| {
        let tdp = Tdp::new();
        tdp.register_table(table.clone());
        tdp.set_morsel_rows(MORSEL);
        tdp.set_threads(threads);
        tdp.set_zone_maps(zone_maps);
        let q = tdp.prepare(sql).unwrap().bind(bound.clone()).unwrap();
        q.run_profiled().unwrap()
    };
    let (want, _) = run(false, 1);
    for threads in [1, 2] {
        let (got, profile) = run(true, threads);
        assert_tables_identical(&want, &got, &format!("q1 shape @ {threads} threads"));
        assert_eq!(
            (
                profile.morsels_pruned,
                profile.morsels_proven,
                profile.morsels_scanned
            ),
            (1, 14, 15),
            "{}",
            profile.pretty()
        );
        assert!(
            profile
                .pretty()
                .contains("[zone-maps: 1 pruned / 14 proven / 15 scanned]"),
            "{}",
            profile.pretty()
        );
    }
}

#[test]
fn engine_access_path_stats_accumulate() {
    let tdp = Tdp::new();
    tdp.register_table(blocked_table(10_000));
    tdp.set_zone_maps(true);
    tdp.set_morsel_rows(1024);
    let before = tdp.engine().access_path_stats();
    tdp.query("SELECT v FROM t WHERE v < 10")
        .unwrap()
        .run()
        .unwrap();
    let after = tdp.engine().access_path_stats();
    assert!(after.morsels_pruned > before.morsels_pruned);
    assert!(after.morsels_scanned > before.morsels_scanned);
}

/// Under a LIMIT stop bound, `morsels_scanned` counts the live windows
/// the reassembly consumed — a plan property — not whatever a racing
/// worker finished past the bound: identical at every thread count and
/// on every run.
#[test]
fn limit_early_exit_scans_the_same_morsels_at_every_thread_count() {
    let tdp = Tdp::new();
    tdp.register_table(blocked_table(10_000));
    tdp.set_zone_maps(true);
    tdp.set_morsel_rows(7);
    let q = tdp.query("SELECT v FROM t WHERE k = 3 LIMIT 41").unwrap();
    let mut scanned = std::collections::BTreeSet::new();
    for threads in [1usize, 4] {
        tdp.set_threads(threads);
        for _ in 0..20 {
            let (out, profile) = q.run_profiled().unwrap();
            assert_eq!(out.rows(), 41);
            scanned.insert(profile.morsels_scanned);
        }
    }
    assert_eq!(scanned.len(), 1, "morsels_scanned varied: {scanned:?}");
}

/// A chain pinned to the session thread by a session-local UDF prunes
/// the morsels its scan's zone maps rule out, exactly as the same chain
/// on the workers does: same bytes, same pruned count, and the session
/// UDF still called once per run.
#[test]
fn a_pinned_chain_prunes_like_a_parallel_one() {
    let ks: Vec<i64> = (0..20_000).collect();
    let xs: Vec<f32> = (0..20_000)
        .map(|i| ((i * 7919) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let table = TableBuilder::new()
        .col_i64("k", ks)
        .col_f32("x", xs)
        .build("t");
    let session = |local: bool| {
        let tdp = Tdp::new();
        tdp.register_table(table.clone());
        tdp.set_threads(2);
        tdp.set_morsel_rows(2_000);
        tdp.set_zone_maps(true);
        tdp.set_chain_kernels(true);
        let calls = Arc::new(AtomicUsize::new(0));
        let f = Arc::new(Counting {
            volatility: Volatility::Volatile,
            calls: Arc::clone(&calls),
        });
        match local {
            true => tdp.register_udf(f),
            false => tdp.register_udf_parallel(f),
        }
        (tdp, calls)
    };
    let ((pinned, calls), (parallel, _)) = (session(true), session(false));
    for sql in [
        "SELECT COUNT(*) AS n FROM t WHERE f(x) > 0.5 AND k < 4000",
        "SELECT k, x FROM t WHERE f(x) > 0.5 AND k < 4000",
        "SELECT k FROM t WHERE f(x) > 0.5 AND k < 4000 ORDER BY x, k",
    ] {
        let q = pinned.query(sql).unwrap();
        assert!(
            q.explain().contains("udf-not-parallel-safe(f)"),
            "{}",
            q.explain()
        );
        let before = calls.load(Ordering::Relaxed);
        let (got, prof) = q.run_profiled().unwrap();
        assert_eq!(calls.load(Ordering::Relaxed) - before, 1, "{sql}");
        let (want, want_prof) = parallel.query(sql).unwrap().run_profiled().unwrap();
        assert_tables_identical(&want, &got, sql);
        assert_eq!(
            (prof.morsels_pruned, prof.morsels_scanned),
            (7, 3),
            "{sql}: rows 0..6000 touch the first zone-map chunk"
        );
        assert_eq!(
            (want_prof.morsels_pruned, want_prof.morsels_scanned),
            (7, 3),
            "{sql}"
        );
    }
}

/// A scalar subquery whose scan only the subquery's filter can prune.
const SUBQUERY: &str = "SELECT (SELECT SUM(v) FROM t WHERE v < 100) AS s FROM t LIMIT 1";

/// A scalar subquery's scan prunes like a statement's; its bytes are
/// checked in `pruning_is_invisible_across_threads_morsels_and_zone_maps`.
#[test]
fn a_scalar_subquery_prunes_its_scan() {
    let tdp = Tdp::new();
    tdp.register_table(blocked_table(10_000));
    tdp.set_morsel_rows(1024);
    let before = tdp.engine().access_path_stats().morsels_pruned;
    tdp.query(SUBQUERY).unwrap().run().unwrap();
    assert!(tdp.engine().access_path_stats().morsels_pruned > before);
}

#[test]
fn explain_renders_access_paths() {
    let tdp = Tdp::new();
    tdp.register_table(blocked_table(100));
    // Two prunable conjuncts on the scan line.
    let plan = tdp
        .prepare("SELECT v FROM t WHERE v > 1 AND v < 9 AND SQRT(v) > 0")
        .unwrap()
        .explain();
    assert!(plan.contains("[zone-maps: 2 predicates]"), "{plan}");
    // Nothing a zone map can evaluate: named full-scan reason.
    let plan = tdp
        .prepare("SELECT v FROM t WHERE SQRT(v) < 2")
        .unwrap()
        .explain();
    assert!(plan.contains("[full scan: no-eligible-conjunct]"), "{plan}");
}

// ----------------------------------------------------------------------
// AnnTopK: flat byte-identity oracle, IVF recall bound, DDL round trip
// ----------------------------------------------------------------------

fn query_vec(d: usize, seed: u64) -> F32Tensor {
    let mut rng = Rng64::new(seed);
    F32Tensor::randn(&[d], 0.0, 10.0, &mut rng)
}

fn ann_ids(table: &Table) -> Vec<i64> {
    table.column("id").unwrap().data.decode_i64().to_vec()
}

/// Run `ORDER BY distance(emb, $1) LIMIT k` (which lowers to AnnTopK)
/// and its sort-only oracle (which cannot), returning both id lists.
fn ann_vs_oracle(tdp: &Tdp, q: &F32Tensor, k: usize) -> (Vec<i64>, Vec<i64>) {
    let bind = |sql: &str| {
        let mut params = ParamValues::new();
        params.push(ParamValue::Tensor(q.clone()));
        tdp.prepare(sql)
            .unwrap()
            .bind(params)
            .unwrap()
            .run()
            .unwrap()
    };
    let ann = bind(&format!(
        "SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT {k}"
    ));
    // No LIMIT → Sort, not TopK → never AnnTopK: the exact oracle.
    let oracle = bind("SELECT id FROM vecs ORDER BY distance(emb, ?)");
    (ann_ids(&ann), ann_ids(&oracle)[..k].to_vec())
}

#[test]
fn flat_ann_topk_matches_scan_sort_oracle_exactly() {
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(300, 8, 11));
    let plan = tdp
        .prepare("SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10")
        .unwrap()
        .explain();
    assert!(plan.contains("AnnTopK"), "{plan}");
    assert!(plan.contains("[flat exact]"), "{plan}");
    for seed in [1u64, 2, 3, 4, 5] {
        let q = query_vec(8, seed);
        let (ann, oracle) = ann_vs_oracle(&tdp, &q, 10);
        assert_eq!(ann, oracle, "flat AnnTopK must be exact (seed {seed})");
    }
}

/// The flat and IVF ANN leaves rank NaN distances where the scan+sort
/// plan does — a positive NaN after every number, a negative one before
/// — with ties by row id, at k = 1, n − 1 and n. A comparison that calls
/// NaN equal to everything returned another order (here from k = 1) and
/// could panic the leaf's sort.
#[test]
fn ann_topk_ranks_nan_distances_like_the_sort() {
    let n = 300;
    for index in [None, Some("ivf(4, 4)")] {
        let tdp = Tdp::new();
        tdp.register_table(vecs_with_nans(n, 8, 11));
        if let Some(using) = index {
            tdp.execute(&format!(
                "CREATE INDEX vi ON vecs (emb) USING {using} METRIC l2"
            ))
            .unwrap();
        }
        let plan = tdp
            .prepare("SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10")
            .unwrap()
            .explain();
        let leaf = match index {
            None => "[flat exact]",
            Some(_) => "ivf nlist=4 nprobe=4",
        };
        assert!(plan.contains("AnnTopK") && plan.contains(leaf), "{plan}");
        for seed in [1u64, 2, 3] {
            let q = query_vec(8, seed);
            for k in [1, n - 1, n] {
                let (ann, oracle) = ann_vs_oracle(&tdp, &q, k);
                assert_eq!(ann, oracle, "{leaf} at k = {k}, seed {seed}");
            }
        }
    }
}

#[test]
fn distance_is_exact_for_near_duplicates() {
    // Every probe sits 1e-3 per coordinate from its own row: a distance
    // computed as ‖x‖² − 2x·q + ‖q‖² cancels to noise (negative for about
    // a quarter of the rows); the fused Σ(x − q)² stays exact.
    let (n, d) = (2000, 64);
    let emb = F32Tensor::randn(&[n, d], 0.0, 3.0, &mut Rng64::new(5));
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_i64("id", (0..n as i64).collect())
            .col_tensor("emb", emb.clone())
            .build("vecs"),
    );
    let stmt = tdp
        .prepare("SELECT distance(emb, ?) AS dist FROM vecs WHERE id = ?")
        .unwrap();
    for (i, row) in emb.data().chunks(d).enumerate() {
        let probe: Vec<f32> = row.iter().map(|v| v + 1e-3).collect();
        let want: f64 = row
            .iter()
            .zip(&probe)
            .map(|(&x, &q)| (f64::from(x) - f64::from(q)).powi(2))
            .sum();
        let out = stmt
            .bind(
                ParamValues::new()
                    .tensor(Tensor::from_vec(probe, &[d]))
                    .number(i as f64),
            )
            .unwrap()
            .run()
            .unwrap();
        let got = out.column("dist").unwrap().data.decode_f32().to_vec();
        assert_eq!(got.len(), 1, "row {i}");
        let got = f64::from(got[0]);
        assert!(got >= 0.0, "row {i}: negative distance {got}");
        assert!(
            (got - want).abs() <= 1e-4 * want,
            "row {i}: {got} vs f64 reference {want}"
        );
    }
}

#[test]
fn ivf_index_meets_declared_recall_bound() {
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(512, 8, 7));
    match tdp
        .execute("CREATE INDEX vi ON vecs (emb) USING ivf(8, 4) METRIC l2")
        .unwrap()
    {
        StatementOutcome::Ack(msg) => assert_eq!(msg, "CREATE INDEX vi"),
        StatementOutcome::Rows(_) => panic!("DDL must ack, not return rows"),
    }
    let plan = tdp
        .prepare("SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10")
        .unwrap()
        .explain();
    assert!(plan.contains("ivf nlist=8 nprobe=4"), "{plan}");

    // Probing half the cells of well-clustered data: declared bound is
    // recall@10 ≥ 0.8 averaged over seeds (per-seed ≥ 0.5).
    let mut total = 0.0;
    let seeds = [21u64, 22, 23, 24, 25];
    for &seed in &seeds {
        let q = query_vec(8, seed);
        let (ann, oracle) = ann_vs_oracle(&tdp, &q, 10);
        let hits = ann.iter().filter(|id| oracle.contains(id)).count();
        let recall = hits as f64 / 10.0;
        assert!(recall >= 0.5, "seed {seed}: recall {recall}");
        total += recall;
    }
    assert!(
        total / seeds.len() as f64 >= 0.8,
        "mean recall {}",
        total / seeds.len() as f64
    );

    let ann_count_before = tdp.engine().access_path_stats().ann_queries;
    let q = query_vec(8, 99);
    ann_vs_oracle(&tdp, &q, 5);
    assert!(tdp.engine().access_path_stats().ann_queries > ann_count_before);
}

#[test]
fn stale_index_falls_back_to_exact() {
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(256, 8, 3));
    tdp.execute("CREATE INDEX vi ON vecs (emb) USING ivf(4, 1) METRIC l2")
        .unwrap();
    assert!(tdp.has_vector_index("vecs", "emb"));
    // A table write invalidates the catalog entry outright…
    tdp.register_table(vecs_table(320, 8, 4));
    assert!(!tdp.has_vector_index("vecs", "emb"));
    // …so the query answers exactly, from the new data.
    for seed in [31u64, 32, 33] {
        let q = query_vec(8, seed);
        let (ann, oracle) = ann_vs_oracle(&tdp, &q, 10);
        assert_eq!(ann, oracle, "stale index must not serve (seed {seed})");
    }
}

#[test]
fn append_keeps_index_stale_and_counts_fallbacks() {
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(256, 8, 7));
    tdp.execute("CREATE INDEX vi ON vecs (emb) USING ivf(4, 2) METRIC l2")
        .unwrap();
    assert!(tdp.has_vector_index("vecs", "emb"));

    // An append keeps the index entry (unlike a wholesale re-register):
    // the executor re-validates row counts at run time, answers from the
    // exact flat path, and counts the stale fallback.
    let more = TableBuilder::new()
        .col_i64("id", (256..320).collect())
        .col_tensor("emb", clustered_vectors(64, 8, 8, 9))
        .build("vecs");
    assert!(tdp.append_rows("vecs", &more));
    assert!(
        tdp.has_vector_index("vecs", "emb"),
        "append keeps the index for later rebuild"
    );

    let before = tdp.engine().access_path_stats().ivf_stale_fallbacks;
    for seed in [41u64, 42, 43] {
        let q = query_vec(8, seed);
        let (ann, oracle) = ann_vs_oracle(&tdp, &q, 10);
        assert_eq!(
            ann, oracle,
            "stale-index fallback must be exact (seed {seed})"
        );
    }
    let after = tdp.engine().access_path_stats().ivf_stale_fallbacks;
    assert_eq!(
        after - before,
        3,
        "every ANN run on the stale index counted"
    );
}

#[test]
fn ivf_index_over_an_empty_table_serves_no_rows_then_falls_back() {
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_i64("id", Vec::new())
            .col_tensor("emb", F32Tensor::zeros(&[0, 8]))
            .build("vecs"),
    );
    tdp.execute("CREATE INDEX v ON vecs (emb) USING ivf(4, 2) METRIC l2")
        .unwrap();
    let sql = "SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10";
    let plan = tdp.prepare(sql).unwrap().explain();
    assert!(plan.contains("ivf nlist=4 nprobe=2"), "{plan}");
    let q = query_vec(8, 62);
    let mut params = ParamValues::new();
    params.push(ParamValue::Tensor(q.clone()));
    let out = tdp.prepare(sql).unwrap().bind(params).unwrap().run();
    assert_eq!(out.unwrap().rows(), 0, "an empty index serves no rows");

    // After an append the index is stale: the exact fallback answers.
    let more = TableBuilder::new()
        .col_i64("id", (0..64).collect())
        .col_tensor("emb", clustered_vectors(64, 8, 8, 9))
        .build("vecs");
    assert!(tdp.append_rows("vecs", &more));
    let (ann, oracle) = ann_vs_oracle(&tdp, &q, 10);
    assert_eq!(ann, oracle, "stale empty index must fall back to exact");
}

#[test]
fn stale_ivf_rebuilds_in_place_at_the_configured_threshold() {
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(256, 8, 7));
    tdp.execute("CREATE INDEX vi ON vecs (emb) USING ivf(4, 4) METRIC l2")
        .unwrap();
    tdp.set_ivf_rebuild_after(2);

    // Append: the entry survives but its row count is stale.
    let more = TableBuilder::new()
        .col_i64("id", (256..320).collect())
        .col_tensor("emb", clustered_vectors(64, 8, 8, 9))
        .build("vecs");
    assert!(tdp.append_rows("vecs", &more));

    // Fallback #1: under the threshold — exact answer, no rebuild.
    let q = query_vec(8, 51);
    let (ann, oracle) = ann_vs_oracle(&tdp, &q, 10);
    assert_eq!(ann, oracle, "below threshold the fallback stays exact");
    assert_eq!(tdp.engine().access_path_stats().ivf_rebuilds, 0);

    // Fallback #2 reaches the threshold: the index is retrained in
    // place before searching, the rebuild is counted, and the profiled
    // run flags it.
    let mut params = ParamValues::new();
    params.push(ParamValue::Tensor(query_vec(8, 52)));
    let (out, profile) = tdp
        .prepare("SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10")
        .unwrap()
        .bind(params)
        .unwrap()
        .run_profiled()
        .unwrap();
    assert_eq!(out.rows(), 10);
    assert_eq!(profile.ivf_rebuilds, 1, "{profile:?}");
    assert!(
        profile.pretty().contains("[ivf rebuilt]"),
        "{}",
        profile.pretty()
    );
    assert_eq!(tdp.engine().access_path_stats().ivf_rebuilds, 1);

    // The fresh index now serves: no further stale fallbacks, recall on
    // the full (appended) table meets the probe-everything bound.
    let stale_before = tdp.engine().access_path_stats().ivf_stale_fallbacks;
    for seed in [61u64, 62, 63] {
        let q = query_vec(8, seed);
        let (ann, oracle) = ann_vs_oracle(&tdp, &q, 10);
        // nprobe = nlist: IVF probes every cell, so top-k is exact.
        assert_eq!(ann, oracle, "rebuilt index must cover appended rows");
    }
    assert_eq!(
        tdp.engine().access_path_stats().ivf_stale_fallbacks,
        stale_before,
        "the rebuilt index is fresh — no more fallbacks"
    );
}

/// A stale rebuild retrains the index the user built — its IVF
/// parameters and seed, not `CREATE INDEX`'s defaults: after an append,
/// the rebuilt index is the one a fresh build over the appended table
/// trains with the same parameters.
#[test]
fn stale_ivf_rebuild_keeps_the_build_parameters() {
    use tdp_core::index::{IvfParams, Metric};
    use tdp_core::storage::VectorIndex;
    use tdp_core::IndexKind;
    let kind = IndexKind::IvfFlat(IvfParams::new(6).train_iters(3), 2);
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(256, 8, 7));
    tdp.create_vector_index("vecs", "emb", Metric::L2, kind, 7)
        .unwrap();
    let more = TableBuilder::new()
        .col_i64("id", (256..320).collect())
        .col_tensor("emb", clustered_vectors(64, 8, 8, 9))
        .build("vecs");
    assert!(tdp.append_rows("vecs", &more));
    tdp.set_ivf_rebuild_after(1);
    let mut params = ParamValues::new();
    params.push(ParamValue::Tensor(query_vec(8, 71)));
    tdp.prepare("SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10")
        .unwrap()
        .bind(params)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(tdp.engine().access_path_stats().ivf_rebuilds, 1);

    let fresh = Tdp::new();
    fresh.register_table(Table::clone(&tdp.catalog().get("vecs").unwrap()));
    fresh
        .create_vector_index("vecs", "emb", Metric::L2, kind, 7)
        .unwrap();
    let sizes = |t: &Tdp| match &t.catalog().vector_index("vecs", "emb").unwrap().index {
        VectorIndex::Ivf { index, .. } => index.list_sizes(),
        VectorIndex::Flat(_) => panic!("an IVF index was built"),
    };
    assert_eq!(sizes(&tdp), sizes(&fresh));
    for seed in [72u64, 73, 74] {
        let q = query_vec(8, seed);
        let ids = |t: &Tdp| -> Vec<usize> {
            let hits = t.vector_topk("vecs", "emb", &q, 10, 2).unwrap();
            hits.iter().map(|h| h.id).collect()
        };
        assert_eq!(ids(&tdp), ids(&fresh), "seed {seed}");
    }
}

#[test]
fn index_ddl_round_trip() {
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(64, 4, 1));
    tdp.execute("CREATE INDEX vi ON vecs (emb) USING FLAT METRIC cosine")
        .unwrap();
    assert!(tdp.has_vector_index("vecs", "emb"));
    // Metric mismatch (index is cosine, query is L2 distance): planner
    // reports the flat path, and execution stays exact.
    let plan = tdp
        .prepare("SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 3")
        .unwrap()
        .explain();
    assert!(plan.contains("[flat exact]"), "{plan}");
    match tdp.execute("DROP INDEX vi").unwrap() {
        StatementOutcome::Ack(msg) => assert_eq!(msg, "DROP INDEX vi"),
        StatementOutcome::Rows(_) => panic!("DDL must ack"),
    }
    assert!(!tdp.has_vector_index("vecs", "emb"));
    assert!(tdp.execute("DROP INDEX vi").is_err());
    // Plain queries still route through execute().
    match tdp.execute("SELECT COUNT(*) AS c FROM vecs").unwrap() {
        StatementOutcome::Rows(t) => assert_eq!(t.rows(), 1),
        StatementOutcome::Ack(_) => panic!("query must return rows"),
    }
}

/// Every named reason a vector top-k stays a full-scan TopK, one
/// statement each, pinned as the TopK line EXPLAIN renders.
#[test]
fn explain_names_every_ann_fallback_reason() {
    let tdp = Tdp::new();
    tdp.register_table(vecs_table(32, 4, 5));
    let cases = [
        (
            "SELECT id FROM vecs ORDER BY distance(emb, ?), id LIMIT 3",
            "TopK: distance(emb@1, $1), id@0 LIMIT 3 [full scan: multiple-sort-keys]",
        ),
        (
            "SELECT id FROM vecs ORDER BY distance(emb, ?) + 1 LIMIT 3",
            "TopK: (distance(emb@1, $1) + $2) LIMIT 3 [full scan: distance-not-topmost]",
        ),
        (
            "SELECT id FROM vecs ORDER BY distance(emb, emb) LIMIT 3",
            "TopK: distance(emb@1, emb@1) LIMIT 3 [full scan: query-not-param-or-literal]",
        ),
        (
            "SELECT id FROM vecs ORDER BY distance(emb * 2, ?) LIMIT 3",
            "TopK: distance((emb@1 * $2), $1) LIMIT 3 [full scan: column-arg-unresolved]",
        ),
        (
            "SELECT id FROM vecs ORDER BY distance(emb, ?) DESC LIMIT 3",
            "TopK: distance(emb@1, $1) DESC LIMIT 3 [full scan: wrong-direction]",
        ),
        (
            "SELECT emb FROM ghosts ORDER BY distance(emb, ?) LIMIT 3",
            "TopK: distance(emb@0, $1) LIMIT 3 [full scan: schema-unresolved]",
        ),
        (
            "SELECT emb * 2 AS e FROM vecs ORDER BY distance(e, ?) LIMIT 3",
            "TopK: distance(e@0, $1) LIMIT 3 [full scan: projected-key-not-base-column]",
        ),
        (
            "SELECT id, emb FROM vecs WHERE id > 3 ORDER BY distance(emb, ?) LIMIT 3",
            "TopK: distance(emb@1, $1) LIMIT 3 [full scan: input-not-base-scan]",
        ),
    ];
    for (sql, line) in cases {
        let plan = tdp.prepare(sql).unwrap().explain();
        // The physical tree's line (the logical tree names no reason).
        let topk = (plan.lines().map(str::trim))
            .find(|l| l.starts_with("TopK: ") && l.contains("[full scan: "));
        assert_eq!(topk, Some(line), "{sql}:\n{plan}");
    }
}
