//! Compiled chain kernels: the interpreter is the byte-identity oracle
//! at every thread count and morsel size, with kernels on or off; a
//! chain is vetted on every run, so a shadowing UDF takes over at once;
//! EXPLAIN and profiled runs name each chain's strategy.

use proptest::prelude::*;
use tdp_core::storage::{Table, TableBuilder};
use tdp_core::{ParamValues, Tdp};
use tdp_integration::assert_tables_identical;

/// Deterministic mixed-encoding table: f32 values, small-domain i64
/// keys (dictionary-friendly), and a dictionary-encoded tag column.
fn table(vs: &[f32]) -> Table {
    let n = vs.len();
    let ks: Vec<i64> = (0..n).map(|i| (i % 13) as i64 - 3).collect();
    let tags: Vec<String> = (0..n).map(|i| format!("g{}", i % 5)).collect();
    TableBuilder::new()
        .col_f32("v", vs.to_vec())
        .col_i64("k", ks)
        .col_str("tag", &tags)
        .build("t")
}

/// Chain shapes the kernel compiles: multi-conjunct filters, computed
/// projections, dictionary comparisons and LIKE, CASE (searched and
/// with operand), IN lists, built-ins, negation, and literal columns.
const CHAINS: &[&str] = &[
    "SELECT v FROM t WHERE v > 0.0 AND k < 7",
    "SELECT v * 2 - k AS s, tag FROM t WHERE v < 5.0",
    "SELECT tag FROM t WHERE tag LIKE 'g_' AND v > -5.0",
    "SELECT tag, v FROM t WHERE tag >= 'g2' AND tag <> 'g4'",
    "SELECT CASE WHEN v > 0.0 THEN v ELSE -v END AS a, k FROM t WHERE k IN (0, 2, 5)",
    "SELECT CASE k WHEN 1 THEN v WHEN 2 THEN -v ELSE 0.5 END AS c FROM t WHERE v <> 0.25",
    "SELECT sqrt(v * v) AS r, 1.5 AS one FROM t WHERE NOT (v > 0.0)",
    "SELECT v + k AS s FROM t WHERE v > -2.0 AND v < 2.0 AND k <> 3",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Compiled chains are byte-identical to the interpreter across
    /// thread counts, morsel sizes, and arbitrary f32 data (including
    /// values that fail every predicate).
    #[test]
    fn compiled_chains_match_interpreter(
        vs in proptest::collection::vec(-10.0f32..10.0, 0..200),
    ) {
        let tdp = Tdp::new();
        tdp.register_table(table(&vs));
        for sql in CHAINS {
            // Oracle: interpreter, single thread, whole-batch morsels.
            tdp.set_chain_kernels(false);
            tdp.set_threads(1);
            tdp.set_morsel_rows(tdp_core::exec::DEFAULT_MORSEL_ROWS);
            let oracle = tdp.query(sql).unwrap().run().unwrap();
            for threads in [1usize, 2, 7] {
                tdp.set_threads(threads);
                for morsel in [7usize, tdp_core::exec::DEFAULT_MORSEL_ROWS] {
                    tdp.set_morsel_rows(morsel);
                    for kernels in [false, true] {
                        tdp.set_chain_kernels(kernels);
                        let out = tdp.query(sql).unwrap().run().unwrap();
                        assert_tables_identical(
                            &oracle,
                            &out,
                            &format!("{sql} @ {threads}t/{morsel}m kernels={kernels}"),
                        );
                    }
                }
            }
        }
    }
}

/// A small dimension table joinable on `t.k` (which ranges over
/// `[-3, 9]`): every key matches, plus two keys with no fact rows.
fn dim() -> Table {
    TableBuilder::new()
        .col_i64("k", (-3..10).collect())
        .col_f32("w", (0..13).map(|i| i as f32 * 0.5 - 2.0).collect())
        .build("d")
}

/// Selective chains feeding each barrier kind. Derived tables place the
/// filter chain directly under the join; ORDER BY / DISTINCT queries
/// get their chain from predicate pushdown. Join, sort, top-k and
/// DISTINCT only move input bytes, so one sequential whole-batch oracle
/// covers every thread count, morsel size, and kernel setting.
const BARRIER_CHAINS: &[&str] = &[
    "SELECT s.v, d.w FROM (SELECT v, k FROM t WHERE v > 0.0) AS s JOIN d ON s.k = d.k",
    "SELECT s.v, d.w FROM (SELECT v, k FROM t WHERE v > 2.5) AS s LEFT JOIN d ON s.k = d.k",
    "SELECT v, k FROM t WHERE v > 0.0 ORDER BY v DESC, k",
    "SELECT v, tag FROM t WHERE v < 1.0 ORDER BY tag, v LIMIT 5",
    "SELECT DISTINCT tag FROM t WHERE v > 0.5",
];

/// Filter→aggregate shapes, all through the one fused per-morsel fold:
/// plain ungrouped columns, GROUP BY, computed arguments, and the
/// f64-moment aggregates. The Q1 shape — dictionary key, five
/// aggregates, one computed and one repeated argument — and an
/// ungrouped shape with every accumulator kind both run at 0% / ~1% /
/// ~50% / 100% selectivity, so all-empty morsels, the sparse
/// survivor-index fold and the dense masked fold are all hit; the
/// two-key shape groups on `(i64, dict)`.
const AGGREGATE_CHAINS: &[&str] = &[
    "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE v > 0.0",
    "SELECT AVG(v), VARIANCE(v), STDDEV(v) FROM t WHERE v < 1.0",
    "SELECT tag, COUNT(*), SUM(v) FROM t WHERE v > 0.0 GROUP BY tag",
    "SELECT SUM(v * 2.0 - k) AS s FROM t WHERE k > 0",
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < -100.0 GROUP BY tag",
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < -9.8 GROUP BY tag",
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < 0.0 GROUP BY tag",
    "SELECT tag, SUM(k) AS q, SUM(v) AS p, SUM(v * (1 - k)) AS net, AVG(v) AS d, COUNT(*) AS n \
     FROM t WHERE v < 100.0 GROUP BY tag",
    "SELECT k, tag, SUM(v), MIN(v), MAX(v), VARIANCE(v), COUNT(v > 0.0) FROM t \
     WHERE v > -5.0 GROUP BY k, tag",
    "SELECT COUNT(*), COUNT(k > 4), SUM(v), MIN(v), MAX(v), STDDEV(v) FROM t WHERE v < -100.0",
    "SELECT COUNT(*), COUNT(k > 4), SUM(v), MIN(v), MAX(v), STDDEV(v) FROM t WHERE v < -9.8",
    "SELECT COUNT(*), COUNT(k > 4), SUM(v), MIN(v), MAX(v), STDDEV(v) FROM t WHERE v < 0.0",
    "SELECT COUNT(*), COUNT(k > 4), SUM(v), MIN(v), MAX(v), STDDEV(v) FROM t WHERE v < 100.0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Selection-fed barriers are byte-identical to the sequential
    /// whole-batch oracle at every thread/morsel/kernel configuration.
    #[test]
    fn selection_fed_barriers_match_oracle(
        vs in proptest::collection::vec(-10.0f32..10.0, 0..200),
    ) {
        let tdp = Tdp::new();
        tdp.register_table(table(&vs));
        tdp.register_table(dim());
        for sql in BARRIER_CHAINS {
            tdp.set_chain_kernels(false);
            tdp.set_threads(1);
            tdp.set_morsel_rows(tdp_core::exec::DEFAULT_MORSEL_ROWS);
            let oracle = tdp.query(sql).unwrap().run().unwrap();
            for threads in [1usize, 2, 7] {
                tdp.set_threads(threads);
                for morsel in [7usize, tdp_core::exec::DEFAULT_MORSEL_ROWS] {
                    tdp.set_morsel_rows(morsel);
                    for kernels in [false, true] {
                        tdp.set_chain_kernels(kernels);
                        let out = tdp.query(sql).unwrap().run().unwrap();
                        assert_tables_identical(
                            &oracle,
                            &out,
                            &format!("{sql} @ {threads}t/{morsel}m kernels={kernels}"),
                        );
                    }
                }
            }
        }
    }

    /// Selection-fed aggregation chunks partials by *input* morsel
    /// boundaries, so each morsel size is byte-identical to its own
    /// single-threaded gathered run — across thread counts and with
    /// kernels on or off.
    #[test]
    fn selection_fed_aggregates_match_gathered_partials(
        vs in proptest::collection::vec(-10.0f32..10.0, 0..200),
    ) {
        let tdp = Tdp::new();
        tdp.register_table(table(&vs));
        for sql in AGGREGATE_CHAINS {
            for morsel in [7usize, tdp_core::exec::DEFAULT_MORSEL_ROWS] {
                tdp.set_morsel_rows(morsel);
                // Oracle per morsel size: float partial order follows the
                // input morsel grid, which both paths share.
                tdp.set_chain_kernels(false);
                tdp.set_threads(1);
                let oracle = tdp.query(sql).unwrap().run().unwrap();
                for threads in [1usize, 2, 7] {
                    tdp.set_threads(threads);
                    for kernels in [false, true] {
                        tdp.set_chain_kernels(kernels);
                        let out = tdp.query(sql).unwrap().run().unwrap();
                        assert_tables_identical(
                            &oracle,
                            &out,
                            &format!("{sql} @ {threads}t/{morsel}m kernels={kernels}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn selection_feeding_is_observable() {
    let tdp = Tdp::new();
    tdp.register_table(table(
        &(0..200).map(|i| i as f32 / 7.0 - 10.0).collect::<Vec<_>>(),
    ));
    tdp.set_threads(3);
    tdp.set_morsel_rows(16);
    tdp.set_chain_kernels(true);

    // EXPLAIN marks the barrier as selection-capable…
    let q = tdp
        .query("SELECT v, k FROM t WHERE v > 17.0 ORDER BY v DESC")
        .unwrap();
    assert!(
        q.explain().contains("[barrier: selection-fed]"),
        "{}",
        q.explain()
    );

    // …and the profiled run records what actually happened: the chain's
    // selection density and the barrier's feeding mode, mirrored in the
    // run totals.
    let (out, prof) = q.run_profiled().unwrap();
    assert!(
        out.rows() > 0 && out.rows() < 60,
        "selective: {}",
        out.rows()
    );
    assert!(
        prof.barriers_selection_fed >= 1,
        "sort fed by selection: {prof:?}"
    );
    let text = prof.pretty();
    assert!(text.contains("[barrier: selection-fed ("), "{text}");
    assert!(text.contains("[selection: "), "{text}");
    assert!(text.contains("selection-fed / "), "{text}");

    // A filtered derived table places the chain directly under a join
    // probe side; it selection-feeds too.
    tdp.register_table(dim());
    let jq = tdp
        .query("SELECT s.v, d.w FROM (SELECT v, k FROM t WHERE v > 17.0) AS s JOIN d ON s.k = d.k")
        .unwrap();
    assert!(
        jq.explain().contains("[barrier: selection-fed]"),
        "{}",
        jq.explain()
    );
    let (_, jprof) = jq.run_profiled().unwrap();
    assert!(jprof.barriers_selection_fed >= 1, "{jprof:?}");

    // Disabled kernels gather, and both renderings say why.
    tdp.set_chain_kernels(false);
    assert!(
        q.explain()
            .contains("[barrier: gathered: chain-kernels-disabled]"),
        "{}",
        q.explain()
    );
    let (_, gprof) = q.run_profiled().unwrap();
    assert!(
        gprof.barriers_gathered >= 1 && gprof.barriers_selection_fed == 0,
        "{gprof:?}"
    );
    assert!(
        gprof
            .pretty()
            .contains("[barrier: gathered: chain-kernels-disabled]"),
        "{}",
        gprof.pretty()
    );
}

#[test]
fn parameterised_chains_share_one_kernel_across_bindings() {
    let tdp = Tdp::new();
    tdp.register_table(table(
        &(0..100).map(|i| i as f32 / 10.0 - 5.0).collect::<Vec<_>>(),
    ));
    // Kernels on, set here rather than assumed: the test counts
    // kernel binds, which only exist on the compiled path.
    tdp.set_chain_kernels(true);
    let before = tdp.chain_kernel_stats();
    let prepared = tdp.prepare("SELECT v FROM t WHERE v > $1").unwrap();
    for (i, threshold) in [-2.0, 0.0, 3.5].iter().enumerate() {
        let out = prepared
            .bind(ParamValues::new().number(*threshold))
            .unwrap()
            .run()
            .unwrap();
        assert!(out.rows() > 0, "threshold {threshold}");
        let s = tdp.chain_kernel_stats();
        assert_eq!(s.hits, before.hits + i as u64 + 1, "every binding binds");
        assert_eq!(s.fallbacks, before.fallbacks, "no binding falls back");
    }
    // Literal variants of the same statement share the plan, `$n` slots
    // and all, and bind the kernel like any other binding.
    tdp.query("SELECT v FROM t WHERE v > 1.0")
        .unwrap()
        .run()
        .unwrap();
    tdp.query("SELECT v FROM t WHERE v > 4.5")
        .unwrap()
        .run()
        .unwrap();
    let s = tdp.chain_kernel_stats();
    assert_eq!(s.hits, before.hits + 5);
    assert_eq!((s.misses, s.fallbacks), (0, before.fallbacks));
}

/// A `$n` leaf in a *projection*: the kernel reads the bound literal at
/// evaluation (number, string and boolean alike) and broadcasts it as
/// the interpreter does.
#[test]
fn param_leaf_in_projection_matches_the_interpreter() {
    let tdp = Tdp::new();
    tdp.register_table(table(
        &(0..100).map(|i| i as f32 / 10.0 - 5.0).collect::<Vec<_>>(),
    ));
    let prepared = tdp.prepare("SELECT ? AS c, v FROM t WHERE v > ?").unwrap();
    let bindings = [
        ParamValues::new().number(7.5).number(0.0),
        ParamValues::new().string("tagged").number(3.5),
        ParamValues::new().bool(true).number(-6.0),
        ParamValues::new().number(1.0).number(100.0),
    ];
    for params in bindings {
        tdp.set_chain_kernels(false);
        tdp.set_threads(1);
        tdp.set_morsel_rows(tdp_core::exec::DEFAULT_MORSEL_ROWS);
        let oracle = prepared.bind(params.clone()).unwrap().run().unwrap();
        tdp.set_chain_kernels(true);
        for threads in [1usize, 3] {
            tdp.set_threads(threads);
            for morsel in [7usize, tdp_core::exec::DEFAULT_MORSEL_ROWS] {
                tdp.set_morsel_rows(morsel);
                let bound = prepared.bind(params.clone()).unwrap();
                assert!(
                    bound.explain().contains("[compiled ×2 ops]"),
                    "{}",
                    bound.explain()
                );
                assert_tables_identical(
                    &oracle,
                    &bound.run().unwrap(),
                    &format!("{params:?} @ {threads}t/{morsel}m"),
                );
            }
        }
    }
}

#[test]
fn null_param_falls_back_and_reproduces_the_interpreter_error() {
    let tdp = Tdp::new();
    tdp.register_table(table(&[1.0, 2.0, 3.0]));
    // Kernels on, set here rather than assumed: the bind-time
    // refusal this test counts only happens on the compiled path.
    tdp.set_chain_kernels(true);
    let prepared = tdp.prepare("SELECT v FROM t WHERE v > $1").unwrap();
    let with_kernels = prepared.bind(ParamValues::new().null()).unwrap().run();
    tdp.set_chain_kernels(false);
    let interpreted = prepared.bind(ParamValues::new().null()).unwrap().run();
    match (with_kernels, interpreted) {
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => {
            assert_eq!(
                a.map(|t| t.rows()).ok(),
                b.map(|t| t.rows()).ok(),
                "both paths must agree"
            );
        }
    }
    tdp.set_chain_kernels(true);
    let s = tdp.chain_kernel_stats();
    assert!(s.fallbacks >= 1, "bind-time refusal counted: {s:?}");
}

#[test]
fn shadowing_udf_takes_over_on_the_next_run() {
    let tdp = Tdp::new();
    let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
    tdp.register_table(table(&data));
    // Kernels on, set here rather than assumed: the built-in
    // chain must have run compiled before the shadowing registration.
    tdp.set_chain_kernels(true);
    let sql = "SELECT sqrt(v) AS r FROM t WHERE v > 10.0";
    let first_r = |out: &Table| out.column("r").unwrap().data.decode_f32().at(0);
    let q = tdp.query(sql).unwrap();
    let s0 = tdp.chain_kernel_stats();
    assert!((first_r(&q.run().unwrap()) - 11f32.sqrt()).abs() < 1e-6);
    assert_eq!(tdp.chain_kernel_stats().hits, s0.hits + 1, "runs compiled");

    // Re-registering the table changes nothing a chain is vetted on.
    tdp.register_table(table(&data));
    assert!((first_r(&q.run().unwrap()) - 11f32.sqrt()).abs() < 1e-6);
    assert_eq!(tdp.chain_kernel_stats().hits, s0.hits + 2);

    // A UDF shadowing the built-in takes over on this session's next
    // run — of a fresh compilation and of the query compiled before it
    // was registered alike…
    tdp.register_udf(std::sync::Arc::new(ShiftUdf("sqrt")));
    for out in [tdp.query(sql).unwrap().run().unwrap(), q.run().unwrap()] {
        let r = first_r(&out);
        assert!(
            (r - (11.0 + 100.0)).abs() < 1e-3,
            "shadowing UDF executed, got {r}"
        );
    }
    // …and never on another session of the same engine.
    let other = tdp.engine().session();
    other.set_chain_kernels(true);
    let out = other.query(sql).unwrap().run().unwrap();
    assert!((first_r(&out) - 11f32.sqrt()).abs() < 1e-6);

    // Every other site that applies the rule takes the UDF on a held
    // plan too, on the session thread and on workers…
    for threads in [1, 4] {
        shadowing_reaches_every_site(threads);
    }
    // …and a session-local function shadows an engine one of its name
    // for that session alone, its workers included.
    let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
    let engine = tdp_core::TdpEngine::new();
    engine.register_table(table(&data));
    engine.register_udf_shared(std::sync::Arc::new(tdp_integration::HalveUdf));
    let (local, other) = (engine.session(), engine.session());
    local.register_udf(std::sync::Arc::new(ShiftUdf("halve")));
    let sql = "SELECT SUM(halve(v)) AS s FROM t WHERE v > 3.0";
    for (session, want) in [(&local, 8010.0), (&other, 1005.0)] {
        session.set_threads(4);
        session.set_morsel_rows(16);
        let out = session.query(sql).unwrap().run().unwrap();
        assert_eq!(out.column("s").unwrap().data.decode_f32().at(0), want);
    }
}

/// Statements holding `sqrt` at each site that applies the shadowing
/// rule, prepared before `ShiftUdf` is registered and run after: each
/// held run equals a fresh compilation and took the UDF's values over
/// `v = 0..63` (`sqrt(v) - v` is then 100 on every row).
fn shadowing_reaches_every_site(threads: usize) {
    let tdp = Tdp::new();
    tdp.register_table(table(&(0..64).map(|i| i as f32).collect::<Vec<_>>()));
    tdp.set_chain_kernels(true);
    tdp.set_threads(threads);
    tdp.set_morsel_rows(16);
    let v = |rows: std::ops::Range<i32>| rows.map(|i| i as f32).collect::<Vec<_>>();
    let cases = [
        ("SELECT v FROM t ORDER BY sqrt(v) - v LIMIT 3", "v", v(0..3)),
        ("SELECT v FROM t ORDER BY sqrt(v) - v", "v", v(0..64)),
        ("SELECT SUM(sqrt(v)) AS s FROM t", "s", vec![8416.0]),
        (
            "SELECT SUM(sqrt(v)) AS s FROM t WHERE v > 3.0",
            "s",
            vec![8010.0],
        ),
        (
            "SELECT COUNT(*) AS n FROM t GROUP BY sqrt(v) - v",
            "n",
            vec![64.0],
        ),
        (
            "SELECT v, SUM(v) OVER (PARTITION BY sqrt(v) - v) AS w FROM t",
            "w",
            vec![2016.0; 64],
        ),
        ("SELECT v FROM t WHERE sqrt(v) > 105.0", "v", v(6..64)),
    ];
    let held: Vec<_> = cases
        .iter()
        .map(|(sql, ..)| tdp.query(sql).unwrap())
        .collect();
    let soft = "SELECT SUM(sqrt(v)) AS s FROM t";
    let trainable = tdp_core::QueryConfig::default().trainable(true);
    let held_soft = tdp.query_with(soft, trainable).unwrap();

    tdp.register_udf(std::sync::Arc::new(ShiftUdf("sqrt")));
    for ((sql, col, want), q) in cases.iter().zip(&held) {
        let out = q.run().unwrap();
        let fresh = tdp.query(sql).unwrap().run().unwrap();
        assert_tables_identical(&out, &fresh, &format!("{sql} @ {threads} threads"));
        let got = out.column(col).unwrap().data.decode_f32().to_vec();
        assert_eq!(&got, want, "{sql} @ {threads} threads");
    }
    let soft_sum = |q: &tdp_core::CompiledQuery| match q.run_diff().unwrap().column("s").unwrap() {
        tdp_core::exec::ColumnData::Diff(d) => d.var.value().at(0),
        tdp_core::exec::ColumnData::Exact(e) => e.decode_f32().at(0),
    };
    let fresh_soft = tdp.query_with(soft, trainable).unwrap();
    assert_eq!(soft_sum(&held_soft), soft_sum(&fresh_soft));
    assert_eq!(
        soft_sum(&held_soft),
        8416.0,
        "trainable run @ {threads} threads"
    );
}

/// `name(x) := x + 100` — deliberately disagrees with the built-in (or
/// engine function) it shadows so any stale compiled kernel is
/// unmissable.
struct ShiftUdf(&'static str);
impl tdp_core::ScalarUdf for ShiftUdf {
    fn name(&self) -> &str {
        self.0
    }
    fn invoke(
        &self,
        args: &[tdp_core::exec::udf::ArgValue],
        _ctx: &tdp_core::exec::ExecContext,
    ) -> Result<tdp_core::encoding::EncodedTensor, tdp_core::exec::ExecError> {
        Ok(tdp_core::encoding::EncodedTensor::F32(
            args[0].as_column()?.decode_f32().add_scalar(100.0),
        ))
    }
}

#[test]
fn explain_and_profile_report_chain_strategy() {
    let tdp = Tdp::new();
    tdp.register_table(table(
        &(0..200).map(|i| i as f32 / 7.0 - 10.0).collect::<Vec<_>>(),
    ));
    tdp.set_threads(3);
    tdp.set_morsel_rows(16);
    // Kernels on, set here rather than assumed: the strategies
    // this test asserts only render on the compiled path.
    tdp.set_chain_kernels(true);

    // A fused filter→project chain compiles: EXPLAIN counts its ops.
    let q = tdp.query("SELECT v * 2 AS d FROM t WHERE v > 0.0").unwrap();
    assert!(q.explain().contains("[compiled ×2 ops]"), "{}", q.explain());
    // The profile describes the fused run: the chain's verdict lands
    // once, on the stage's top node, with the filter fused below it.
    let (_, prof) = q.run_profiled().unwrap();
    assert!(prof.ops[0].label.starts_with("Project"), "{:?}", prof.ops);
    assert_eq!(prof.ops[0].strategy.as_deref(), Some("compiled"));
    assert!(prof.ops[1].label.starts_with("Filter"), "{:?}", prof.ops);
    assert_eq!(prof.ops[1].strategy, None);
    assert_eq!(prof.ops[1].rows_out, prof.ops[0].rows_out);

    // Disabled kernels are a named interpreter verdict, not silence.
    tdp.set_chain_kernels(false);
    assert!(
        q.explain()
            .contains("[interpreted: chain-kernels-disabled]"),
        "{}",
        q.explain()
    );
    tdp.set_chain_kernels(true);

    // A session-bound UDF pins the chain to the session thread; the
    // profile folds that reason into the chain strategy.
    tdp.register_udf(std::sync::Arc::new(tdp_integration::HalveUdf));
    let uq = tdp
        .query("SELECT halve(v) AS h FROM t WHERE v > 0.0")
        .unwrap();
    let (_, uprof) = uq.run_profiled().unwrap();
    let proj = uprof
        .ops
        .iter()
        .find(|o| o.strategy.is_some())
        .expect("a chain trace");
    assert_eq!(
        proj.strategy.as_deref(),
        Some("interpreted: udf-not-parallel-safe(halve)"),
        "{:?}",
        uprof.ops
    );
}

#[test]
fn chain_kernel_session_surface() {
    let tdp = Tdp::new();
    assert!(tdp.chain_kernels_enabled(), "kernels are on by default");
    tdp.set_chain_kernels(false);
    assert!(!tdp.chain_kernels_enabled());

    // Disabled sessions never count a kernel verdict.
    tdp.register_table(table(&[1.0, 2.0, 3.0, 4.0]));
    tdp.query("SELECT v FROM t WHERE v > 2.0")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(tdp.chain_kernel_stats(), Default::default());

    tdp.set_chain_kernels(true);
    let out = tdp
        .query("SELECT v FROM t WHERE v > 2.0")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.rows(), 2);
    let s = tdp.chain_kernel_stats();
    assert_eq!((s.hits, s.misses, s.fallbacks), (1, 0, 0), "{s:?}");
}
