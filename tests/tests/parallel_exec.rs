//! Morsel-driven parallel execution: determinism across thread counts,
//! staged barrier operators (partitioned hash join, parallel merge
//! sort, parallel top-k, shared-nothing DISTINCT) against the
//! sequential oracle, LIMIT early-exit correctness at morsel
//! boundaries, the parameterised `LIMIT ?` path, and the scheduler's
//! session configuration surface.

use proptest::prelude::*;
use tdp_core::exec::ExecError;
use tdp_core::storage::{Table, TableBuilder};
use tdp_core::{ParamValues, Tdp, TdpError};
use tdp_integration::{assert_tables_identical, composite_key_tables, COMPOSITE_KEYS};

fn table(n: usize, seed: u64) -> Table {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let vs: Vec<f32> = (0..n)
        .map(|_| (next() % 2000) as f32 / 100.0 - 10.0)
        .collect();
    let ks: Vec<i64> = (0..n).map(|_| (next() % 11) as i64).collect();
    let tags: Vec<String> = (0..n).map(|_| format!("g{}", next() % 5)).collect();
    TableBuilder::new()
        .col_f32("v", vs)
        .col_i64("k", ks)
        .col_str("tag", &tags)
        .build("t")
}

/// Join dimension table: integer keys 0..=6 (0, 1, 2 duplicated, so
/// probes multi-match) plus 20/21, which never occur in `t` — LEFT JOIN
/// probes hit the unmatched pass. `name` mirrors the same pattern over
/// `t.tag`'s string domain (dictionary keys decode through different
/// dicts on each side). `id` is a dense primary key 0..12, the target of
/// a foreign-key join from `t.k`. 12 rows, so small morsels split the
/// build.
fn dim(seed: u64) -> Table {
    let ks: Vec<i64> = vec![0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 20, 21];
    let names: Vec<String> = ks.iter().map(|k| format!("g{k}")).collect();
    let ws: Vec<f32> = (0..ks.len())
        .map(|i| ((seed as usize * 7 + i * 13) % 97) as f32 / 10.0)
        .collect();
    TableBuilder::new()
        .col_i64("k", ks)
        .col_i64("id", (0..12).collect())
        .col_str("name", &names)
        .col_f32("w", ws)
        .build("d")
}

fn run_at(tdp: &Tdp, sql: &str, threads: usize) -> Table {
    tdp.set_threads(threads);
    tdp.query(sql).expect("compile").run().expect("run")
}

/// SQL pipeline shapes stressed by the determinism property: fused
/// chains, every parallel aggregate, LIMIT early exit, and the staged
/// barriers — partitioned hash join (inner and LEFT with its unmatched
/// pass), parallel merge sort over duplicate keys (tie-break
/// stability), parallel top-k, and shared-nothing DISTINCT — both
/// standalone and stacked downstream of parallel pipelines.
const PIPELINES: &[&str] = &[
    "SELECT v FROM t WHERE v > 0.0",
    "SELECT v * 2 + k AS s, tag FROM t WHERE v < 5.0 AND k > 1",
    "SELECT tag FROM t WHERE tag <> 'g2'",
    "SELECT v FROM t WHERE v > -5.0 LIMIT 41",
    "SELECT k, COUNT(*) FROM t GROUP BY k",
    "SELECT tag, SUM(v), AVG(v), MIN(v), MAX(v) FROM t WHERE v > -8.0 GROUP BY tag",
    "SELECT k, tag, COUNT(*), VARIANCE(v) FROM t GROUP BY k, tag",
    "SELECT COUNT(*), SUM(v), STDDEV(v) FROM t WHERE k < 7",
    "SELECT k, COUNT(v > 0.0) FROM t GROUP BY k",
    "SELECT v FROM t WHERE v > 0.5 ORDER BY v DESC LIMIT 13",
    "SELECT DISTINCT tag FROM t WHERE v > 0.0",
    "SELECT tag, COUNT(*) FROM t GROUP BY tag HAVING COUNT(*) > 2",
    // Staged barriers: partitioned joins (multi-match keys 0..=2,
    // unmatched keys 7..=10 on the LEFT pass; `tag = name` joins
    // dictionary columns through *different* dictionaries)…
    "SELECT t.v, d.w FROM t JOIN d ON t.k = d.k",
    "SELECT t.tag, d.w FROM t LEFT JOIN d ON t.k = d.k",
    "SELECT t.v, d.w FROM t JOIN d ON t.k = d.k WHERE t.v > 0.0",
    "SELECT t.v, d.name FROM t JOIN d ON t.tag = d.name",
    // …parallel merge sort over duplicate keys (k has 11 distinct
    // values, v duplicates too: input position must break ties)…
    "SELECT v, k FROM t ORDER BY k, v DESC",
    "SELECT tag, v FROM t ORDER BY tag, k",
    // …parallel top-k with massive key duplication…
    "SELECT v, k FROM t ORDER BY k LIMIT 17",
    // …shared-nothing DISTINCT, alone and under a sort barrier…
    "SELECT DISTINCT k, tag FROM t",
    "SELECT DISTINCT tag FROM t ORDER BY tag",
    // …a full barrier stack: join, then sort…
    "SELECT t.v, d.w FROM t JOIN d ON t.k = d.k ORDER BY d.w, t.v",
    // …and filter→barrier shapes where a compiled chain can hand its
    // selection vector straight to the barrier (derived tables place
    // the chain directly under a join probe side).
    "SELECT s.v, d.w FROM (SELECT v, k FROM t WHERE v > 0.0) AS s JOIN d ON s.k = d.k",
    "SELECT s.tag, d.w FROM (SELECT tag, k FROM t WHERE v < 2.0) AS s LEFT JOIN d ON s.k = d.k",
    "SELECT v, k FROM t WHERE v > 1.0 ORDER BY v DESC, k",
    "SELECT v, tag FROM t WHERE v < 0.0 ORDER BY tag, v LIMIT 9",
    "SELECT DISTINCT tag FROM t WHERE v > 0.5",
    "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE v > 0.0",
    "SELECT tag, COUNT(*), SUM(v) FROM t WHERE v > 1.0 GROUP BY tag",
    // The fused grouped fold: the Q1 shape (dictionary key, five
    // aggregates, one computed and one repeated argument) at 0% / ~1% /
    // ~50% / 100% selectivity — empty morsels, the sparse
    // survivor-index fold, the dense masked fold — and a two-key
    // `(i64, dict)` shape.
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < -100.0 GROUP BY tag",
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < -9.8 GROUP BY tag",
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < 0.0 GROUP BY tag",
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < 100.0 GROUP BY tag",
    "SELECT k, tag, SUM(v), MIN(v), MAX(v), STDDEV(v), COUNT(v > 0.0) FROM t \
     WHERE v > -5.0 GROUP BY k, tag",
    // Dense keys index tables directly: a foreign-key join into the
    // dense primary key `d.id` (and a join on a float key, whose span
    // never does), DISTINCT over one dense key, and a dictionary GROUP BY
    // over a bare scan with every accumulator kind — each against the
    // hash tables and `group_rows` of the sequential oracle.
    "SELECT t.v, t.k, d.w FROM t JOIN d ON t.k = d.id",
    "SELECT s.v, d.name FROM (SELECT v, k FROM t WHERE v < 3.0) AS s LEFT JOIN d ON s.k = d.id",
    "SELECT t.k, d.w FROM t JOIN d ON t.v = d.w",
    "SELECT DISTINCT k FROM t WHERE v > 0.0",
    "SELECT tag, SUM(v), SUM(k), AVG(v), MIN(v), MAX(v), VARIANCE(v), COUNT(v > 1.0), COUNT(*) \
     FROM t GROUP BY tag",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `run()` returns identical batches — values *and* column order —
    /// at every thread count, on random tables across every pipeline
    /// shape, with morsels small enough that every query splits. Each
    /// case runs all of [`PIPELINES`], so no shape depends on which
    /// cases the generator draws.
    #[test]
    fn run_is_identical_across_thread_counts(
        seed in 1u64..1_000_000,
        rows in 1usize..400,
        morsel in 1usize..64,
    ) {
        let tdp = Tdp::new();
        tdp.register_table(table(rows, seed));
        tdp.register_table(dim(seed));
        tdp.set_morsel_rows(morsel);
        for sql in PIPELINES {
            // threads=1 with chain kernels off is the oracle; every other
            // run is checked against it: threads=1 with kernels on, and the
            // staged barrier paths at 2 and 7 threads with chain kernels
            // off (gathered barrier inputs) and on (selection-fed where
            // the chain qualifies).
            tdp.set_chain_kernels(false);
            let one = run_at(&tdp, sql, 1);
            for kernels in [false, true] {
                tdp.set_chain_kernels(kernels);
                let threads: &[usize] = if kernels { &[1, 2, 7] } else { &[2, 7] };
                for &threads in threads {
                    let out = run_at(&tdp, sql, threads);
                    assert_tables_identical(
                        &one,
                        &out,
                        &format!("{sql} @ {threads} threads kernels={kernels}"),
                    );
                }
            }
        }
    }

    /// A query applying a `parallel_safe` declared-signature UDF — which
    /// runs through the worker pool rather than the sequential fallback —
    /// is thread-count-invariant too: identical batches at 1, 2 and 7
    /// threads for any table/morsel-size combination.
    #[test]
    fn parallel_safe_udf_is_thread_count_invariant(
        seed in 1u64..1_000_000,
        rows in 1usize..300,
        morsel in 1usize..48,
        which in 0usize..3usize,
    ) {
        let tdp = Tdp::new();
        tdp.register_table(table(rows, seed));
        tdp.register_udf_parallel(std::sync::Arc::new(tdp_integration::HalveUdf));
        tdp.set_morsel_rows(morsel);
        let sql = [
            "SELECT halve(v) AS h, k FROM t WHERE halve(v) > -2.0",
            "SELECT k, SUM(halve(v)) FROM t GROUP BY k",
            "SELECT halve(v) AS h FROM t WHERE v > 0.0 LIMIT 23",
        ][which];
        let one = run_at(&tdp, sql, 1);
        for threads in [2usize, 7] {
            let out = run_at(&tdp, sql, threads);
            assert_tables_identical(&one, &out, &format!("{sql} @ {threads} threads"));
        }
    }
}

#[test]
fn limit_early_exit_never_drops_or_duplicates_rows() {
    // A LIMIT that lands on, before, and after morsel boundaries must
    // return exactly the input prefix — no dropped rows, no duplicates —
    // while skipping morsels past the satisfied prefix.
    let n = 100;
    let tdp = Tdp::new();
    let ids: Vec<i64> = (0..n as i64).collect();
    tdp.register_table(TableBuilder::new().col_i64("id", ids).build("seq"));
    tdp.set_morsel_rows(8);
    for threads in [1usize, 3, 8] {
        tdp.set_threads(threads);
        for limit in [0usize, 1, 7, 8, 9, 16, 17, 50, 99, 100, 250] {
            let out = tdp
                .query(&format!("SELECT id FROM seq LIMIT {limit}"))
                .unwrap()
                .run()
                .unwrap();
            let expect: Vec<i64> = (0..limit.min(n) as i64).collect();
            assert_eq!(
                out.column("id").unwrap().data.decode_i64().to_vec(),
                expect,
                "LIMIT {limit} @ {threads} threads"
            );
        }
        // Early exit composed with a filter: the prefix is of the
        // *filtered* stream, still in input order.
        let out = tdp
            .query("SELECT id FROM seq WHERE id % 2 = 0 LIMIT 10")
            .unwrap()
            .run()
            .unwrap();
        let expect: Vec<i64> = (0..10).map(|i| i * 2).collect();
        assert_eq!(out.column("id").unwrap().data.decode_i64().to_vec(), expect);
    }
}

#[test]
fn parameterised_limit_binds_and_reuses_the_plan() {
    let tdp = Tdp::new();
    tdp.register_table(table(50, 3));
    tdp.set_morsel_rows(7);
    let p = tdp.prepare("SELECT v FROM t LIMIT ?").unwrap();
    assert_eq!(p.param_count(), 1);
    for k in [0u32, 3, 49, 50, 99] {
        let out = p
            .bind(ParamValues::new().number(k as f64))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.rows(), (k as usize).min(50), "LIMIT {k}");
    }
    // The slot renders in EXPLAIN and the plan is shared across binds.
    assert!(p.explain().contains("Limit: $1"), "{}", p.explain());
    // ORDER BY … LIMIT ? fuses into a parameterised TopK.
    let topk = tdp
        .prepare("SELECT v FROM t ORDER BY v DESC LIMIT ?")
        .unwrap();
    assert!(topk.explain().contains("TopK"), "{}", topk.explain());
    let out = topk
        .bind(ParamValues::new().number(5.0))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.rows(), 5);
    let vs = out.column("v").unwrap().data.decode_f32().to_vec();
    assert!(vs.windows(2).all(|w| w[0] >= w[1]), "{vs:?}");
}

#[test]
fn parameterised_limit_rejects_bad_bindings() {
    let tdp = Tdp::new();
    tdp.register_table(table(10, 4));
    let p = tdp.prepare("SELECT v FROM t LIMIT ?").unwrap();
    for (params, what) in [
        (ParamValues::new().number(-1.0), "negative"),
        (ParamValues::new().number(2.5), "non-integer"),
        (ParamValues::new().string("nope"), "string"),
        (ParamValues::new().bool(true), "boolean"),
        (ParamValues::new().null(), "NULL"),
    ] {
        let err = p.bind(params).unwrap().run().unwrap_err();
        assert!(
            matches!(err, TdpError::Exec(ExecError::Param(_))),
            "{what} binding must be a clean parameter error, got {err:?}"
        );
    }
}

#[test]
fn staged_barriers_match_sequential_oracle_at_tiny_morsels() {
    // The 7-row-morsel regression: 7-row morsels land mid-key-run
    // (t's keys repeat every ~11 rows, d's build side splits into two
    // morsels), so exchange buckets, sorted runs and probe morsels all
    // cut across partition boundaries. Staged barrier output must stay
    // byte-identical to the sequential kernels (threads=1 falls back to
    // them) at every thread count.
    let tdp = Tdp::new();
    tdp.register_table(table(100, 11));
    tdp.register_table(dim(5));
    for t in dense_join_tables()
        .into_iter()
        .chain(composite_key_tables())
    {
        tdp.register_table(t);
    }
    tdp.set_morsel_rows(7);
    for sql in [
        "SELECT t.v, t.tag, d.w FROM t JOIN d ON t.k = d.k",
        "SELECT t.v, d.w FROM t LEFT JOIN d ON t.k = d.k",
        "SELECT t.v, d.w FROM t JOIN d ON t.tag = d.name",
        "SELECT v, k, tag FROM t ORDER BY k, tag",
        "SELECT v, k FROM t ORDER BY k DESC LIMIT 23",
        "SELECT DISTINCT k, tag FROM t",
        "SELECT DISTINCT t.k, d.w FROM t JOIN d ON t.k = d.k ORDER BY d.w DESC",
        // One dense key: a direct-index table against the oracle's hash
        // table — first occurrences, duplicate chains, unmatched rows.
        "SELECT DISTINCT k FROM t",
        "SELECT DISTINCT tag FROM t WHERE v > 0.0",
        "SELECT t.v, d.w FROM t JOIN d ON t.k = d.id",
        "SELECT t.v, d.name FROM t LEFT JOIN d ON t.k = d.id WHERE t.v < 0.0",
        // Dense build keys: unique (one slot per probe row), one key
        // repeated (the chained walk), a LEFT join whose probe keys past
        // 36 miss, a selection-fed build side and probe side, and a
        // mixed-class pair whose left codes were interned with the
        // right's. 103 probe rows split unevenly over 2 and 7 tasks.
        "SELECT p.v, u.w FROM p JOIN u ON p.key = u.id",
        "SELECT p.v, r.w FROM p JOIN r ON p.key = r.id",
        "SELECT p.v, u.name FROM p LEFT JOIN u ON p.key = u.id",
        "SELECT p.v, s.w FROM p JOIN (SELECT id, w FROM u WHERE w > 2.0) AS s ON p.key = s.id",
        "SELECT s.v, u.name FROM (SELECT key, v FROM p WHERE v > 0.0) AS s \
         LEFT JOIN u ON s.key = u.id",
        "SELECT p.v, u.w FROM p JOIN u ON p.key = u.name",
    ]
    .into_iter()
    // Composite dense keys: two integer keys and a dictionary × bool
    // pair, INNER and LEFT, unique and repeated build keys, probe rows
    // with one key in range and the other not, selection-fed sides, and
    // two-key DISTINCT.
    .chain(COMPOSITE_KEYS.iter().map(|(_, sql)| *sql))
    {
        let oracle = run_at(&tdp, sql, 1);
        for threads in [2usize, 7] {
            let out = run_at(&tdp, sql, threads);
            assert_tables_identical(&oracle, &out, &format!("{sql} @ {threads} threads"));
        }
    }
}

/// Dense join sides for the staged-join oracle: `p` probes with 103
/// keys in 0..45, `u` holds the unique keys 0..37, `r` the same keys
/// with 5 repeated.
fn dense_join_tables() -> [Table; 3] {
    let n = 103;
    let probe = TableBuilder::new()
        .col_i64("key", (0..n).map(|i| (i * 7 % 45) as i64).collect())
        .col_f32("v", (0..n).map(|i| (i % 13) as f32 - 6.0).collect())
        .build("p");
    let build = |name: &str, ids: Vec<i64>| {
        let names: Vec<String> = ids.iter().map(|i| i.to_string()).collect();
        let ws = (0..ids.len()).map(|i| (i * 31 % 17) as f32 / 4.0).collect();
        TableBuilder::new()
            .col_i64("id", ids)
            .col_str("name", &names)
            .col_f32("w", ws)
            .build(name)
    };
    let repeated = (0..37).chain([5]).collect();
    [probe, build("u", (0..37).collect()), build("r", repeated)]
}

#[test]
fn explain_and_profile_report_barrier_strategy() {
    let tdp = Tdp::new();
    tdp.register_table(table(200, 3));
    tdp.register_table(dim(4));
    tdp.set_threads(3);
    tdp.set_morsel_rows(16);

    // EXPLAIN resolves each barrier's strategy against the session.
    let q = tdp
        .query("SELECT t.v, d.w FROM t JOIN d ON t.k = d.k ORDER BY t.v DESC")
        .unwrap();
    let text = q.explain();
    assert!(text.contains("barrier Join"), "{text}");
    assert!(text.contains("[partitioned ×16]"), "{text}");
    assert!(text.contains("[merge-sort]"), "{text}");

    // Profiled runs report what actually happened: strategy with morsel
    // counts on the barrier traces, partitions in the totals. `d.k`
    // spans 22 values over 12 rows, so the join the plan staged as
    // partitioned runs as one direct-index table the probe tasks share
    // (one per thread), chosen from the data — no exchange.
    let (_, prof) = q.run_profiled().unwrap();
    let join_op = prof
        .ops
        .iter()
        .find(|o| o.label.starts_with("Join"))
        .expect("join trace");
    assert_eq!(
        join_op.strategy.as_deref(),
        Some("direct-index (one table + 3 probe tasks)"),
        "{}",
        prof.pretty()
    );
    let sort_op = prof
        .ops
        .iter()
        .find(|o| o.label.starts_with("Sort"))
        .expect("sort trace");
    assert!(
        sort_op.strategy.as_deref().unwrap().contains("merge-sort"),
        "{:?}",
        sort_op.strategy
    );
    assert_eq!(prof.partitions, 0, "a direct-index join exchanges nothing");

    // Two dense keys are one direct-index table too: `cu`'s 40 rows
    // span 8 × 5 key pairs. So is a two-key DISTINCT over them.
    for t in composite_key_tables() {
        tdp.register_table(t);
    }
    let strategy = |sql: &str, label: &str| {
        let (_, prof) = tdp.query(sql).unwrap().run_profiled().unwrap();
        let op = prof.ops.iter().find(|o| o.label.starts_with(label));
        op.and_then(|o| o.strategy.clone())
            .expect("a staged barrier")
    };
    assert_eq!(
        strategy(COMPOSITE_KEYS[0].1, "Join"),
        "direct-index (one table + 3 probe tasks)"
    );
    assert_eq!(
        strategy("SELECT DISTINCT a, b FROM cp", "Distinct"),
        "direct-index (one sweep)"
    );

    // A float key spans far more codes than the build side has rows: the
    // join is hashed and exchanged.
    let sparse = tdp
        .query("SELECT t.v, d.w FROM t JOIN d ON t.v = d.w")
        .unwrap();
    assert!(
        sparse.explain().contains("[partitioned ×16]"),
        "{}",
        sparse.explain()
    );
    let (_, prof) = sparse.run_profiled().unwrap();
    let join_op = prof
        .ops
        .iter()
        .find(|o| o.label.starts_with("Join"))
        .expect("join trace");
    let strat = join_op.strategy.as_deref().expect("join strategy recorded");
    assert!(strat.contains("partitioned ×16"), "{strat}");
    assert!(strat.contains("probe tasks"), "{strat}");
    assert_eq!(prof.partitions, 16, "join exchange partitions in totals");
    assert!(
        prof.pretty().contains("partitioned ×16"),
        "{}",
        prof.pretty()
    );

    // TopK renders its own strategy.
    let topk = tdp
        .query("SELECT v FROM t ORDER BY v DESC LIMIT 5")
        .unwrap();
    assert!(
        topk.explain().contains("[parallel top-k]"),
        "{}",
        topk.explain()
    );
    // …but a LIMIT 0 top-k short-circuits to the sequential kernel, and
    // the profile must say so (no phantom staged strategy).
    let (_, prof0) = tdp
        .query("SELECT v FROM t ORDER BY v DESC LIMIT 0")
        .unwrap()
        .run_profiled()
        .unwrap();
    let topk_op = prof0
        .ops
        .iter()
        .find(|o| o.label.starts_with("TopK"))
        .expect("topk trace");
    assert!(topk_op.strategy.is_none(), "{:?}", topk_op.strategy);

    // DISTINCT partitions too — on a dictionary key of five entries, a
    // direct-index sweep at run time.
    let distinct = tdp.query("SELECT DISTINCT tag FROM t").unwrap();
    assert!(
        distinct.explain().contains("[partitioned ×16]"),
        "{}",
        distinct.explain()
    );
    let (_, prof) = distinct.run_profiled().unwrap();
    let op = prof
        .ops
        .iter()
        .find(|o| o.label.starts_with("Distinct"))
        .expect("distinct trace");
    assert_eq!(op.strategy.as_deref(), Some("direct-index (one sweep)"));
    let (_, prof) = tdp
        .query("SELECT DISTINCT v FROM t")
        .unwrap()
        .run_profiled()
        .unwrap();
    let op = prof
        .ops
        .iter()
        .find(|o| o.label.starts_with("Distinct"))
        .expect("distinct trace");
    assert_eq!(
        op.strategy.as_deref(),
        Some("partitioned ×16 (13 morsels)"),
        "{}",
        prof.pretty()
    );
    // A dictionary GROUP BY folds into its codes' slots.
    let (_, prof) = tdp
        .query("SELECT tag, COUNT(*) AS n FROM t GROUP BY tag")
        .unwrap()
        .run_profiled()
        .unwrap();
    assert!(prof.pretty().contains("keys: codes"), "{}", prof.pretty());

    // Single-threaded sessions render the sequential decision…
    tdp.set_threads(1);
    assert!(
        q.explain().contains("[sequential: threads=1]"),
        "{}",
        q.explain()
    );
    tdp.set_threads(3);

    // …and a sort key the workers cannot evaluate (session-bound UDF)
    // reports the same capability reason chains do, in EXPLAIN and in
    // the profiled run.
    tdp.register_udf(std::sync::Arc::new(tdp_integration::HalveUdf));
    let udf_sort = tdp.query("SELECT v FROM t ORDER BY halve(v)").unwrap();
    assert!(
        udf_sort
            .explain()
            .contains("[sequential: udf-not-parallel-safe(halve)]"),
        "{}",
        udf_sort.explain()
    );
    let (_, prof2) = udf_sort.run_profiled().unwrap();
    assert!(
        prof2
            .fallback_reasons()
            .contains(&"udf-not-parallel-safe(halve)"),
        "{:?}",
        prof2.fallback_reasons()
    );

    // At one thread the capability reason still comes first, in EXPLAIN
    // and in the profile alike; only a barrier nothing pins says
    // `threads=1`.
    tdp.set_threads(1);
    let udf_topk = tdp
        .query("SELECT v FROM t ORDER BY halve(v) LIMIT 5")
        .unwrap();
    for query in [&udf_sort, &udf_topk] {
        let text = query.explain();
        let barrier = text
            .lines()
            .find(|l| l.trim_start().starts_with("barrier"))
            .expect("a barrier line");
        assert!(
            barrier.contains("[sequential: udf-not-parallel-safe(halve)]"),
            "{text}"
        );
        let (_, prof) = query.run_profiled().unwrap();
        assert_eq!(
            prof.fallback_reasons(),
            vec!["udf-not-parallel-safe(halve)"],
            "{}",
            prof.pretty()
        );
    }
    assert!(
        q.explain().contains("[sequential: threads=1]"),
        "{}",
        q.explain()
    );
}

#[test]
fn scheduler_configuration_surface() {
    let tdp = Tdp::new();
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(tdp.threads(), machine, "the default is the machine's");
    tdp.set_threads(0);
    assert_eq!(tdp.threads(), 1, "clamped");
    tdp.set_threads(6);
    assert_eq!(tdp.threads(), 6);
    tdp.set_morsel_rows(0);
    assert_eq!(tdp.morsel_rows(), 1, "clamped");
    tdp.set_morsel_rows(1024);
    assert_eq!(tdp.morsel_rows(), 1024);
}

/// A fresh session starts from the documented defaults, whatever the
/// process environment holds: the engine reads none of it.
#[test]
fn a_fresh_session_has_the_documented_defaults() {
    let engine = tdp_core::TdpEngine::new();
    let session = engine.session();
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(session.threads(), machine);
    assert_eq!(session.morsel_rows(), tdp_core::exec::DEFAULT_MORSEL_ROWS);
    assert!(session.chain_kernels_enabled());
    assert!(session.zone_maps_enabled());
    assert_eq!(session.ivf_rebuild_after(), 0);
    assert_eq!(engine.stats().mem_budget_bytes, None);
}

#[test]
fn plan_cache_stats_report_evictions() {
    let tdp = Tdp::new();
    tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0]).build("t"));
    let s0 = tdp.plan_cache_stats();
    assert_eq!((s0.evictions, s0.entries), (0, 0));
    // Overflow the cache with structurally distinct statements (literal
    // variants share one entry, LIMIT counts are structural).
    for i in 0..300 {
        tdp.query(&format!("SELECT x FROM t LIMIT {i}")).unwrap();
    }
    let s = tdp.plan_cache_stats();
    assert_eq!(s.entries, 256, "bounded at capacity");
    assert_eq!(
        s.evictions as usize,
        300 - 256,
        "each overflow insert evicts exactly one entry"
    );
    assert_eq!(s.misses, 300);
    // Explicit clears are not evictions.
    tdp.clear_plan_cache();
    let s2 = tdp.plan_cache_stats();
    assert_eq!(s2.entries, 0);
    assert_eq!(s2.evictions, s.evictions);
}

#[test]
fn profiled_run_reports_scheduler_counters() {
    let tdp = Tdp::new();
    tdp.register_table(table(100, 9));
    tdp.set_morsel_rows(16);
    tdp.set_threads(3);
    let (out, prof) = tdp
        .query("SELECT k, COUNT(*) FROM t WHERE v > 0.0 GROUP BY k")
        .unwrap()
        .run_profiled()
        .unwrap();
    assert!(out.rows() > 0);
    assert_eq!(prof.threads, 3);
    assert!(
        prof.morsels >= 7,
        "filter (7) + aggregate morsels: {}",
        prof.morsels
    );
    assert!(prof.pretty().starts_with("threads=3"), "{}", prof.pretty());
}

#[test]
fn explain_renders_the_pipeline_breakdown() {
    let tdp = Tdp::new();
    tdp.register_table(table(10, 2));
    let q = tdp
        .query("SELECT k, COUNT(*) FROM t WHERE v > 0.0 GROUP BY k ORDER BY k")
        .unwrap();
    let text = q.explain();
    assert!(text.contains("== pipelines =="), "{text}");
    assert!(text.contains("barrier Sort"), "{text}");
    assert!(text.contains("partial aggregate"), "{text}");
    assert!(text.contains("[Filter]"), "{text}");
}

#[test]
fn trainable_soft_count_matches_the_exact_count_at_eight_threads() {
    // A trainable run hands its off-tape scan to the exact walker at the
    // session's eight threads; the soft COUNT over it still agrees with
    // the exact one.
    let tdp = Tdp::new();
    tdp.register_table(table(60, 5));
    tdp.set_threads(8);
    tdp.set_morsel_rows(4);
    let q = tdp
        .query_with(
            "SELECT COUNT(*) FROM t WHERE v > 0.0",
            tdp_core::QueryConfig::default().trainable(true),
        )
        .unwrap();
    let exact = q.run().unwrap();
    let soft = q.run_diff().unwrap();
    let hard_count = exact.column("COUNT(*)").unwrap().data.decode_f32().at(0);
    let soft_count = match soft.column("COUNT(*)").unwrap() {
        tdp_core::exec::ColumnData::Diff(d) => d.var.value().at(0),
        tdp_core::exec::ColumnData::Exact(e) => e.decode_f32().at(0),
    };
    assert!(
        (hard_count - soft_count).abs() < 1e-3,
        "{hard_count} vs {soft_count}"
    );
}

/// A parallel-safe UDF that maps its argument column on the session's
/// device and records every thread the map's body runs on.
struct ThreadProbe(
    std::sync::Arc<std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
);

impl tdp_core::ScalarUdf for ThreadProbe {
    fn name(&self) -> &str {
        "probe"
    }

    fn spec(&self) -> tdp_core::FunctionSpec {
        tdp_core::FunctionSpec::scalar(self.name(), vec![tdp_core::ArgType::Column])
            .volatility(tdp_core::Volatility::Immutable)
            .parallel_safe(true)
    }

    fn invoke(
        &self,
        args: &[tdp_core::exec::ArgValue],
        ctx: &tdp_core::exec::ExecContext,
    ) -> Result<tdp_core::encoding::EncodedTensor, ExecError> {
        let col = args[0].as_column()?.decode_f32().to(ctx.device);
        let out = col.map(|v| {
            self.0.lock().unwrap().insert(std::thread::current().id());
            v
        });
        Ok(tdp_core::encoding::EncodedTensor::F32(out))
    }
}

#[test]
fn a_parallel_stage_on_an_accelerator_session_runs_at_most_threads_threads() {
    // Two morsels past the accelerator's cut-off on two workers: each
    // worker is a lane, so the UDF's device map inside it runs on that
    // worker's thread instead of spawning `Accel(4)` lanes of its own.
    let rows = 2 * (tdp_core::tensor::device::PAR_THRESHOLD + 1000);
    let tdp = Tdp::new();
    tdp.set_default_device(tdp_core::Device::Accel(4));
    tdp.register_table(table(rows, 9));
    let seen = std::sync::Arc::default();
    tdp.register_udf_parallel(std::sync::Arc::new(ThreadProbe(std::sync::Arc::clone(
        &seen,
    ))));
    tdp.set_threads(2);
    tdp.set_morsel_rows(rows / 2);
    let out = tdp
        .query("SELECT probe(v) AS p FROM t")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.rows(), rows);
    let seen = seen.lock().unwrap().len();
    assert!((1..=2).contains(&seen), "{seen} threads ran the UDF's map");
}

/// `halve` that counts calls to its `spec()`: the registry snapshots a
/// spec once, at registration, so the count must never move after it.
struct CountedSpec(std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl tdp_core::ScalarUdf for CountedSpec {
    fn name(&self) -> &str {
        "halve"
    }

    fn spec(&self) -> tdp_core::FunctionSpec {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        tdp_integration::HalveUdf.spec()
    }

    fn invoke(
        &self,
        args: &[tdp_core::exec::ArgValue],
        ctx: &tdp_core::exec::ExecContext,
    ) -> Result<tdp_core::encoding::EncodedTensor, ExecError> {
        tdp_integration::HalveUdf.invoke(args, ctx)
    }
}

#[test]
fn workers_never_call_a_registered_udfs_spec() {
    let tdp = Tdp::new();
    tdp.register_table(table(1000, 11));
    let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    tdp.register_udf_parallel(std::sync::Arc::new(CountedSpec(std::sync::Arc::clone(
        &calls,
    ))));
    let registered = calls.load(std::sync::atomic::Ordering::Relaxed);
    tdp.set_threads(4);
    tdp.set_morsel_rows(64);
    let chain = tdp
        .query("SELECT halve(v) AS h FROM t WHERE v > 0.0")
        .unwrap();
    for _ in 0..2 {
        assert!(chain.run().unwrap().rows() > 64, "a multi-morsel chain");
    }
    for (sql, rows) in [
        ("SELECT SUM(halve(v)) AS s FROM t", 1),
        ("SELECT v FROM t ORDER BY halve(v)", 1000),
    ] {
        assert_eq!(tdp.query(sql).unwrap().run().unwrap().rows(), rows, "{sql}");
    }
    assert_eq!(
        calls.load(std::sync::atomic::Ordering::Relaxed),
        registered,
        "spec() ran after registration"
    );
}
