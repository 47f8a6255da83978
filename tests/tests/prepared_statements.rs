//! Integration tests of the prepared-statement API: `prepare`/`bind`/`run`
//! across the exact, profiled and differentiable executors, parameter
//! edge cases (NULL, rebind type changes, arity), literal-invariant
//! plan-cache reuse, and a property check that prepare+bind always equals
//! inlining the literals into the SQL text.

use std::sync::Arc;

use proptest::prelude::*;
use tdp_core::autodiff::Var;
use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, DiffColumn, ExecContext, ExecError, ScalarUdf};
use tdp_core::storage::TableBuilder;
use tdp_core::tensor::Tensor;
use tdp_core::{ParamValues, QueryConfig, Tdp, TdpError};
use tdp_integration::assert_tables_identical;

fn session() -> Tdp {
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", vec![0.5, 1.5, 2.5, 3.5, 4.5])
            .col_i64("k", vec![0, 1, 0, 1, 0])
            .col_str("tag", &["a", "b", "a", "c", "b"])
            .build("t"),
    );
    tdp
}

#[test]
fn bind_and_run_matches_inlined_literals_on_all_executors() {
    let tdp = session();
    let prepared = tdp
        .prepare("SELECT k, COUNT(*), SUM(v) FROM t WHERE v > ? GROUP BY k ORDER BY k")
        .unwrap();
    for threshold in [0.0, 1.0, 2.6, 9.9] {
        let bound = prepared.bind(ParamValues::new().number(threshold)).unwrap();
        let inlined = tdp
            .query(&format!(
                "SELECT k, COUNT(*), SUM(v) FROM t WHERE v > {threshold} GROUP BY k ORDER BY k"
            ))
            .unwrap();
        // Exact executor.
        assert_tables_identical(
            &bound.run().unwrap(),
            &inlined.run().unwrap(),
            &format!("exact @ {threshold}"),
        );
        // Profiled executor returns the same table plus a profile.
        let (pt, profile) = bound.run_profiled().unwrap();
        assert_tables_identical(&pt, &inlined.run().unwrap(), "profiled");
        assert!(profile.ops.len() >= 2);
        // One plan, two bindings: fingerprints (and the plan itself) shared.
        assert_eq!(bound.fingerprint(), inlined.fingerprint());
        assert!(std::ptr::eq(bound.physical_plan(), inlined.physical_plan()));
    }
}

/// Scalar UDF emitting a differentiable per-row score from a parameter.
struct ScoreUdf {
    scores: Var,
}

impl ScalarUdf for ScoreUdf {
    fn name(&self) -> &str {
        "score"
    }
    fn invoke(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        Ok(EncodedTensor::F32(self.scores.value()))
    }
    fn invoke_diff(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<DiffColumn, ExecError> {
        Ok(DiffColumn::plain(self.scores.clone()))
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.scores.clone()]
    }
}

#[test]
fn bind_and_run_diff_matches_inlined_literals() {
    let tdp = session();
    let scores = Var::param(Tensor::from_vec(vec![0.1f32, 0.9, 0.4, 0.8, 0.2], &[5]));
    tdp.register_udf(Arc::new(ScoreUdf { scores }));
    let config = QueryConfig::default().trainable(true).temperature(0.05);
    let prepared = tdp
        .prepare_with("SELECT COUNT(*) FROM t WHERE score(v) > ?", config)
        .unwrap();
    for threshold in [0.3, 0.5, 0.7] {
        let soft_bound = prepared
            .bind(ParamValues::new().number(threshold))
            .unwrap()
            .run_counts()
            .unwrap();
        let soft_inline = tdp
            .query_with(
                &format!("SELECT COUNT(*) FROM t WHERE score(v) > {threshold}"),
                config,
            )
            .unwrap()
            .run_counts()
            .unwrap();
        let (a, b) = (soft_bound.value(), soft_inline.value());
        assert_eq!(a.to_vec(), b.to_vec(), "diff executor @ {threshold}");
        // Gradients still flow through the bound plan.
        soft_bound.sum().backward();
    }
}

#[test]
fn binding_null_reports_a_parameter_error() {
    let tdp = session();
    let prepared = tdp.prepare("SELECT COUNT(*) FROM t WHERE v > ?").unwrap();
    // Binding NULL succeeds (the slot is covered)…
    let bound = prepared.bind(ParamValues::new().null()).unwrap();
    // …but evaluation rejects it: this dialect is NULL-free.
    match bound.run() {
        Err(TdpError::Exec(ExecError::Param(msg))) => {
            assert!(msg.contains("$1") && msg.contains("NULL"), "{msg}");
        }
        other => panic!("expected a parameter error, got {other:?}"),
    }
}

#[test]
fn arity_mismatch_is_rejected_at_bind_time() {
    let tdp = session();
    let prepared = tdp
        .prepare("SELECT COUNT(*) FROM t WHERE v > ? AND k = ?")
        .unwrap();
    assert_eq!(prepared.param_count(), 2);
    for bad in [
        ParamValues::new(),
        ParamValues::new().number(1.0),
        ParamValues::new().number(1.0).number(0.0).number(3.0),
    ] {
        match prepared.bind(bad) {
            Err(TdpError::Session(msg)) => {
                assert!(msg.contains("expects 2 parameter(s)"), "{msg}")
            }
            other => panic!("expected arity error, got {other:?}"),
        }
    }
    let ok = prepared
        .bind(ParamValues::new().number(2.0).number(0.0))
        .unwrap();
    assert_eq!(
        ok.run()
            .unwrap()
            .column("COUNT(*)")
            .unwrap()
            .data
            .decode_i64()
            .to_vec(),
        vec![2]
    );
}

#[test]
fn type_mismatched_rebind_of_the_same_plan() {
    // One prepared plan, rebound with values of different types: numbers
    // work, a string in a numeric comparison fails at run time with a
    // type error, and the plan stays usable afterwards.
    let tdp = session();
    let prepared = tdp.prepare("SELECT COUNT(*) FROM t WHERE v > ?").unwrap();
    let good = prepared.bind(ParamValues::new().number(2.0)).unwrap();
    assert_eq!(
        good.run()
            .unwrap()
            .column("COUNT(*)")
            .unwrap()
            .data
            .decode_i64()
            .to_vec(),
        vec![3]
    );
    let bad = prepared.bind(ParamValues::new().string("oops")).unwrap();
    assert!(
        matches!(bad.run(), Err(TdpError::Exec(ExecError::TypeMismatch(_)))),
        "string in numeric comparison must be a type error"
    );
    // The shared plan is not poisoned by the failed binding.
    let again = prepared.bind(ParamValues::new().number(4.0)).unwrap();
    assert_eq!(
        again
            .run()
            .unwrap()
            .column("COUNT(*)")
            .unwrap()
            .data
            .decode_i64()
            .to_vec(),
        vec![1]
    );
    // String params work where strings are expected — same plan shape,
    // dictionary comparison path.
    let by_tag = tdp.prepare("SELECT COUNT(*) FROM t WHERE tag = ?").unwrap();
    assert_eq!(
        by_tag
            .bind(ParamValues::new().string("b"))
            .unwrap()
            .run()
            .unwrap()
            .column("COUNT(*)")
            .unwrap()
            .data
            .decode_i64()
            .to_vec(),
        vec![2]
    );
}

#[test]
fn tensor_params_bind_whole_columns() {
    let tdp = session();
    let prepared = tdp.prepare("SELECT v + ? AS shifted FROM t").unwrap();
    let offsets = Tensor::from_vec(vec![10.0f32, 20.0, 30.0, 40.0, 50.0], &[5]);
    let out = prepared
        .bind(ParamValues::new().tensor(offsets))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        out.column("shifted").unwrap().data.decode_f32().to_vec(),
        vec![10.5, 21.5, 32.5, 43.5, 54.5]
    );
    // A row-count mismatch is a clean runtime error, not a panic.
    let wrong = prepared
        .bind(ParamValues::new().tensor(Tensor::<f32>::zeros(&[2])))
        .unwrap();
    match wrong.run() {
        Err(TdpError::Exec(ExecError::Param(msg))) => {
            assert!(msg.contains("5 row(s)"), "{msg}");
        }
        other => panic!("expected a parameter error, got {other:?}"),
    }
}

#[test]
fn numbered_params_bind_by_slot_not_occurrence() {
    let tdp = session();
    let prepared = tdp
        .prepare("SELECT COUNT(*) FROM t WHERE v > $2 AND v < $1")
        .unwrap();
    assert_eq!(prepared.param_count(), 2);
    // $1 = 4.0 (upper), $2 = 1.0 (lower): keeps 1.5, 2.5, 3.5.
    let out = prepared
        .bind(ParamValues::new().number(4.0).number(1.0))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        out.column("COUNT(*)").unwrap().data.decode_i64().to_vec(),
        vec![3]
    );
}

#[test]
fn explain_renders_param_slots_and_trailer() {
    let tdp = session();
    let prepared = tdp
        .prepare("SELECT COUNT(*) FROM t WHERE v > ? AND k = 1")
        .unwrap();
    let text = prepared.explain();
    // $1 is the explicit placeholder; the literal 1 was auto-extracted
    // into $2. Both render in the physical tree and in the trailer.
    assert!(text.contains("$1"), "{text}");
    assert!(text.contains("$2"), "{text}");
    assert!(
        text.contains("params: 2 [$1, $2] (1 explicit, 1 auto-extracted)"),
        "{text}"
    );
    // Parameter-free statements say so.
    let none = tdp.prepare("SELECT k FROM t").unwrap();
    assert!(
        none.explain().contains("params: none"),
        "{}",
        none.explain()
    );
    // The bound view reports its binding.
    let bound = prepared.bind(ParamValues::new().number(0.5)).unwrap();
    assert!(bound.explain().contains("params: 2"), "{}", bound.explain());
}

#[test]
fn prepared_explain_resolves_pipelines_like_a_run() {
    // Both EXPLAINs build their context through the builder a run uses,
    // so the unbound statement reports the barriers the session's
    // scheduler will actually run; only the params trailer differs.
    let tdp = session();
    tdp.set_threads(4);
    let prepared = tdp
        .prepare("SELECT a.k, a.v FROM t AS a JOIN t AS b ON a.k = b.k WHERE a.v > 3 ORDER BY a.v")
        .unwrap();
    let bound = prepared.bind(ParamValues::new()).unwrap();
    let pipelines = |text: &str| -> String {
        let (_, rest) = text
            .split_once("== pipelines ==")
            .expect("pipelines section");
        rest.rsplit_once("params:")
            .expect("params trailer")
            .0
            .to_owned()
    };
    let (p, b) = (prepared.explain(), bound.explain());
    assert_eq!(pipelines(&p), pipelines(&b), "{p}\n---\n{b}");
    assert!(!pipelines(&p).contains("threads=1"), "{p}");
}

#[test]
fn plan_cache_stats_prove_literal_invariant_reuse() {
    let tdp = session();
    for (i, thr) in [0.1f32, 0.7, 1.3, 2.9].iter().enumerate() {
        tdp.query(&format!("SELECT COUNT(*) FROM t WHERE v > {thr}"))
            .unwrap()
            .run()
            .unwrap();
        let stats = tdp.plan_cache_stats();
        assert_eq!(stats.entries, 1, "one shared entry");
        assert_eq!(stats.misses, 1, "only the first text compiles");
        assert_eq!(stats.hits, i as u64, "every later text hits");
    }
    // prepare() shares the same cache as query().
    let p = tdp.prepare("SELECT COUNT(*) FROM t WHERE v > ?").unwrap();
    let stats = tdp.plan_cache_stats();
    assert_eq!(
        (stats.entries, stats.hits),
        (1, 4),
        "explicit-param text normalizes onto the literal-variant entry"
    );
    assert_eq!(p.param_count(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// prepare+bind equals inlined-literal query on random
    /// filter → aggregate → order → limit pipelines, across random data,
    /// thresholds, scales and limits.
    #[test]
    fn prepare_bind_equals_inlined_query_on_random_pipelines(
        values in proptest::collection::vec(-20.0f32..20.0, 1..40),
        keys in proptest::collection::vec(0i64..4, 40),
        threshold in -20.0f32..20.0,
        scale in -3.0f32..3.0,
        limit in 1u64..8
    ) {
        let n = values.len();
        let tdp = Tdp::new();
        tdp.register_table(
            TableBuilder::new()
                .col_f32("v", values.clone())
                .col_i64("k", keys[..n].to_vec())
                .build("t"),
        );
        let inlined_sql = format!(
            "SELECT k, COUNT(*), SUM(v * {scale}) AS s FROM t WHERE v > {threshold} \
             GROUP BY k ORDER BY k LIMIT {limit}"
        );
        let prepared_sql = format!(
            "SELECT k, COUNT(*), SUM(v * ?) AS s FROM t WHERE v > ? \
             GROUP BY k ORDER BY k LIMIT {limit}"
        );
        let inlined = tdp.query(&inlined_sql).unwrap().run().unwrap();
        let bound = tdp
            .prepare(&prepared_sql)
            .unwrap()
            .bind(ParamValues::new().number(scale as f64).number(threshold as f64))
            .unwrap()
            .run()
            .unwrap();
        prop_assert_eq!(inlined.rows(), bound.rows());
        for (a, b) in inlined.columns().iter().zip(bound.columns().iter()) {
            prop_assert_eq!(&a.name, &b.name);
            let (av, bv) = (a.data.decode_f32().to_vec(), b.data.decode_f32().to_vec());
            prop_assert_eq!(av, bv, "column {} differs", &a.name);
        }
    }
}
