//! A repeated deterministic call is computed once: a call that a filter
//! and the aggregate or projection it feeds both evaluate becomes one
//! projected slot under the filter — the plan of the derived-table form
//! `SELECT … FROM (SELECT f(x) AS s FROM t) WHERE s > ?`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tdp_core::autodiff::Var;
use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, ExecContext, ExecError};
use tdp_core::tensor::Tensor;
use tdp_core::{FunctionSpec, ScalarUdf, Tdp, Volatility};
use tdp_integration::{assert_tables_identical, normal_table, Counting};

const ROWS: usize = 20_000;
const MORSEL: usize = 2_000;

/// [`Counting`] with a trainable parameter, which puts the call on the
/// tape. Its `Var` keeps it on the session thread.
struct Trainable(Counting, Var);

impl ScalarUdf for Trainable {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn spec(&self) -> FunctionSpec {
        self.0.spec()
    }
    fn invoke(&self, args: &[ArgValue], ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        self.0.invoke(args, ctx)
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.1.clone()]
    }
}

/// Register `f` on the worker pool (or, `local`, on the session only)
/// and return its invocation counter.
fn register(tdp: &Tdp, volatility: Volatility, local: bool) -> Arc<AtomicUsize> {
    let calls = Arc::new(AtomicUsize::new(0));
    let f = Counting {
        volatility,
        calls: Arc::clone(&calls),
    };
    if local {
        tdp.register_udf(Arc::new(f));
    } else {
        tdp.register_udf_parallel(Arc::new(f));
    }
    calls
}

fn fixture() -> Tdp {
    let tdp = Tdp::new();
    tdp.register_table(normal_table(ROWS));
    tdp
}

/// Invocations of `f` by one run of `sql` at two threads, `MORSEL`-row
/// morsels and chain kernels on, `f` registered by `register`.
fn invocations(register: impl FnOnce(&Tdp) -> Arc<AtomicUsize>, sql: &str) -> usize {
    let tdp = fixture();
    tdp.set_threads(2);
    tdp.set_morsel_rows(MORSEL);
    tdp.set_chain_kernels(true);
    let calls = register(&tdp);
    let q = tdp.query(sql).unwrap();
    let before = calls.load(Ordering::Relaxed);
    q.run().unwrap();
    calls.load(Ordering::Relaxed) - before
}

const SHARED: &str = "SELECT COUNT(*) AS n, SUM(f(x)) AS s FROM t WHERE f(x) > 0.5";

#[test]
fn a_deterministic_call_in_a_filter_and_its_aggregate_runs_once_per_morsel() {
    let morsels = ROWS / MORSEL;
    let on_pool = |v| move |tdp: &Tdp| register(tdp, v, false);
    for v in [Volatility::Immutable, Volatility::Stable] {
        assert_eq!(invocations(on_pool(v), SHARED), morsels, "{v:?}");
    }
    // A volatile call is evaluated where it is written: by the filter,
    // then by the aggregate.
    assert_eq!(
        invocations(on_pool(Volatility::Volatile), SHARED),
        2 * morsels
    );
    // A session-only function runs its chain once over the whole input;
    // on the tape, the call is left where it is written too.
    let local = |tdp: &Tdp| register(tdp, Volatility::Immutable, true);
    assert_eq!(invocations(local, SHARED), 1);
    let on_tape = |tdp: &Tdp| {
        let calls = Arc::new(AtomicUsize::new(0));
        let f = Counting {
            volatility: Volatility::Immutable,
            calls: Arc::clone(&calls),
        };
        let theta = Var::param(Tensor::from_vec(vec![1.0], &[1]));
        tdp.register_udf(Arc::new(Trainable(f, theta)));
        calls
    };
    assert_eq!(invocations(on_tape, SHARED), 2);
}

/// A scalar subquery is planned like a statement: its shared call runs
/// once per morsel too, and it returns the bytes of its top-level twin.
#[test]
fn a_shared_call_inside_a_scalar_subquery_runs_once_per_morsel() {
    let nested = "SELECT (SELECT SUM(f(x)) FROM t WHERE f(x) > 0.5) AS s FROM t LIMIT 1";
    let on_pool = |tdp: &Tdp| register(tdp, Volatility::Immutable, false);
    assert_eq!(invocations(on_pool, nested), ROWS / MORSEL);
    let tdp = fixture();
    register(&tdp, Volatility::Immutable, false);
    let got = tdp.query(nested).unwrap().run().unwrap();
    let top = "SELECT SUM(f(x)) AS s FROM t WHERE f(x) > 0.5";
    let want = tdp.query(top).unwrap().run().unwrap();
    assert_tables_identical(&got, &want, nested);
}

#[test]
fn explain_shows_the_slot_and_the_exact_conjunct_still_prunes() {
    let tdp = fixture();
    tdp.set_threads(2);
    tdp.set_morsel_rows(MORSEL);
    tdp.set_chain_kernels(true);
    tdp.set_zone_maps(true);
    register(&tdp, Volatility::Immutable, false);
    let sql = "SELECT COUNT(*) AS n, SUM(f(x)) AS s FROM t WHERE f(x) > 0.5 AND k < 4000";
    let plan = tdp.prepare(sql).unwrap().explain();
    for line in [
        "Aggregate: keys=[] aggs=[COUNT(*), SUM(#0@0)]",
        "Filter: (#0@0 > $1)",
        "Project: f(x@1) AS #0",
        "Filter: (k@0 < $2)",
        "[zone-maps: 1 predicate]",
    ] {
        assert!(plan.contains(line), "missing `{line}` in\n{plan}");
    }
    let before = tdp.engine().access_path_stats().morsels_pruned;
    let out = tdp.query(sql).unwrap().run().unwrap();
    assert!(
        tdp.engine().access_path_stats().morsels_pruned > before,
        "{plan}"
    );
    let names: Vec<&str> = out.columns().iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["n", "s"]);
}

/// Each statement beside its hand-written derived-table twin: the same
/// bytes and names at one and four threads, with default and tiny
/// morsels.
const TWINS: [(&str, &str); 5] = [
    (
        SHARED,
        "SELECT COUNT(*) AS n, SUM(s) AS s FROM (SELECT f(x) AS s FROM t) WHERE s > 0.5",
    ),
    (
        "SELECT k % 5 AS g, SUM(f(x)) AS s, MAX(f(x)) AS m FROM t \
         WHERE f(x) > 0.5 AND k < 15000 GROUP BY k % 5 ORDER BY g",
        "SELECT k % 5 AS g, SUM(s) AS s, MAX(s) AS m FROM \
         (SELECT f(x) AS s, k FROM t WHERE k < 15000) WHERE s > 0.5 GROUP BY k % 5 ORDER BY g",
    ),
    (
        "SELECT k, f(x) AS y FROM t WHERE f(x) > 2.5",
        "SELECT k, s AS y FROM (SELECT f(x) AS s, k FROM t) WHERE s > 2.5",
    ),
    (
        "SELECT f(x) AS y, COUNT(*) AS c FROM t WHERE f(x) > 4 GROUP BY f(x) ORDER BY y",
        "SELECT s AS y, COUNT(*) AS c FROM (SELECT f(x) AS s FROM t) \
         WHERE s > 4 GROUP BY s ORDER BY y",
    ),
    (
        "SELECT COUNT(*) AS n, AVG(sqrt(x)) AS a FROM t WHERE sqrt(x) < 0.5 AND x <> 0.25",
        "SELECT COUNT(*) AS n, AVG(r) AS a FROM (SELECT sqrt(x) AS r, x FROM t) \
         WHERE r < 0.5 AND x <> 0.25",
    ),
];

#[test]
fn a_computed_slot_returns_the_bytes_of_its_derived_table_twin() {
    for (threads, morsel) in [(1, None), (4, None), (4, Some(7))] {
        let tdp = fixture();
        tdp.set_threads(threads);
        if let Some(rows) = morsel {
            tdp.set_morsel_rows(rows);
        }
        register(&tdp, Volatility::Immutable, false);
        for (sql, twin) in TWINS {
            let point = format!("threads={threads} morsel={morsel:?}: {sql}");
            assert!(
                tdp.prepare(sql).unwrap().explain().contains("AS #0"),
                "{point}"
            );
            let got = tdp.query(sql).unwrap().run().unwrap();
            let want = tdp.query(twin).unwrap().run().unwrap();
            assert!(got.rows() > 0, "{point}");
            assert_tables_identical(&got, &want, &point);
        }
    }
}
