//! Typed function signatures: prepare-time arity/type validation, TVF
//! position checks, declared-schema slot resolution through TVF outputs,
//! Immutable-UDF constant folding, parallel-safe UDF scheduling, and
//! sequential-fallback observability.

use std::sync::Arc;

use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, Batch, ExecContext, ExecError, TableFunction};
use tdp_core::storage::TableBuilder;
use tdp_core::tensor::Tensor;
use tdp_core::{ArgType, FunctionSpec, ParamValues, ScalarUdf, Tdp, TdpError, Volatility};
use tdp_integration::HalveUdf;

fn session() -> Tdp {
    let tdp = Tdp::new();
    let n = 400;
    let tags: Vec<String> = (0..n).map(|i| format!("t{}", i % 5)).collect();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|i| (i as f32 * 0.11).sin()).collect())
            .col_i64("k", (0..n).map(|i| (i % 7) as i64).collect())
            .col_str("tag", &tags)
            .build("t"),
    );
    tdp
}

/// `scale(column, number)` — declared two-arg signature for type tests.
struct ScaleUdf;

impl ScalarUdf for ScaleUdf {
    fn name(&self) -> &str {
        "scale"
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name(), vec![ArgType::Column, ArgType::Number])
            .volatility(Volatility::Immutable)
            .parallel_safe(true)
    }
    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let col = args[0].as_column()?.decode_f32();
        let k = args[1].as_number()? as f32;
        Ok(EncodedTensor::F32(col.mul_scalar(k)))
    }
}

/// `add_tax(number)` — Immutable over a scalar, so calls on literals
/// fold into constants at prepare time.
struct AddTaxUdf {
    volatility: Volatility,
    name: &'static str,
}

impl ScalarUdf for AddTaxUdf {
    fn name(&self) -> &str {
        self.name
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name, vec![ArgType::Number]).volatility(self.volatility)
    }
    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let x = args[0].as_number()? as f32;
        Ok(EncodedTensor::F32(Tensor::from_vec(vec![x * 1.1], &[1])))
    }
}

/// A FROM-position TVF with a declared `[Label, Score]` output schema.
struct LabelerTvf;

impl TableFunction for LabelerTvf {
    fn name(&self) -> &str {
        "labeler"
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
            .returns(vec!["Label".into(), "Score".into()])
            .from_only()
    }
    fn invoke_table(&self, input: &Batch, _ctx: &ExecContext) -> Result<Batch, ExecError> {
        let n = input.rows();
        let labels: Vec<String> = (0..n).map(|i| format!("L{}", i % 3)).collect();
        let scores: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut out = Batch::new();
        out.push("Label", EncodedTensor::from_strings(&labels));
        out.push("Score", EncodedTensor::F32(Tensor::from_vec(scores, &[n])));
        Ok(out)
    }
}

/// A TVF that *lies* about its output schema — declares `[Expected]` but
/// emits `[Surprise]`.
struct DriftingTvf;

impl TableFunction for DriftingTvf {
    fn name(&self) -> &str {
        "drifting"
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
            .returns(vec!["Expected".into()])
            .from_only()
    }
    fn invoke_table(&self, input: &Batch, _ctx: &ExecContext) -> Result<Batch, ExecError> {
        let n = input.rows();
        let mut out = Batch::new();
        out.push(
            "Surprise",
            EncodedTensor::F32(Tensor::from_vec(vec![1.0; n], &[n])),
        );
        Ok(out)
    }
}

/// A column-preserving TVF whose schema derives from its input.
struct PassthroughTvf;

impl TableFunction for PassthroughTvf {
    fn name(&self) -> &str {
        "passthru"
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
            .returns_derived(|cols| Some(cols.to_vec()))
            .from_only()
    }
    fn invoke_table(&self, input: &Batch, _ctx: &ExecContext) -> Result<Batch, ExecError> {
        Ok(input.clone())
    }
}

fn expect_signature_err(result: Result<impl Sized, TdpError>, needle: &str, what: &str) {
    match result {
        Err(TdpError::Exec(ExecError::Signature(msg))) => {
            assert!(msg.contains(needle), "{what}: {msg}");
        }
        Err(other) => panic!("{what}: expected a signature error, got {other:?}"),
        Ok(_) => panic!("{what}: expected a signature error, got success"),
    }
}

// ----------------------------------------------------------------------
// Prepare-time arity / type validation
// ----------------------------------------------------------------------

#[test]
fn declared_arity_checked_at_prepare_time() {
    let tdp = session();
    tdp.register_udf_parallel(Arc::new(HalveUdf));
    expect_signature_err(
        tdp.query("SELECT halve(v, k) FROM t"),
        "expects 1 argument(s), got 2",
        "over-application",
    );
    expect_signature_err(
        tdp.query("SELECT halve() FROM t"),
        "expects 1 argument(s)",
        "under-application",
    );
    // The declared arity is fine — compiles and runs.
    let out = tdp.query("SELECT halve(v) AS h FROM t").unwrap();
    assert_eq!(out.run().unwrap().rows(), 400);
}

#[test]
fn declared_types_checked_at_prepare_time() {
    let tdp = session();
    tdp.register_udf_parallel(Arc::new(ScaleUdf));
    // A string literal where a column is declared (the literal rides an
    // auto-extracted parameter slot, so the check sees its value type).
    expect_signature_err(
        tdp.query("SELECT scale('nope', 2) FROM t"),
        "must be a column",
        "string for column",
    );
    // A number literal where... the second slot wants a number but gets a
    // string.
    expect_signature_err(
        tdp.query("SELECT scale(v, 'two') FROM t"),
        "must be a number",
        "string for number",
    );
    // A column where a scalar number is declared.
    expect_signature_err(
        tdp.query("SELECT scale(v, k) FROM t"),
        "must be a number",
        "column for number",
    );
    // Correct usage computes.
    let out = tdp
        .query("SELECT scale(v, 2) AS d FROM t WHERE v > 0.0")
        .unwrap()
        .run()
        .unwrap();
    assert!(out.rows() > 0);
}

#[test]
fn plan_cache_hit_still_rejects_wrongly_typed_literals() {
    // Literal auto-parameterisation gives `scale(v, 2)` and
    // `scale(v, 'two')` the SAME normalized cache key; serving the cached
    // plan must not skip the declared-type check of the new text's
    // extracted values.
    let tdp = session();
    tdp.register_udf_parallel(Arc::new(ScaleUdf));
    let ok = tdp.query("SELECT scale(v, 2) AS d FROM t").unwrap();
    assert_eq!(ok.run().unwrap().rows(), 400);
    let hits_before = tdp.plan_cache_stats().hits;
    expect_signature_err(
        tdp.query("SELECT scale(v, 'two') AS d FROM t"),
        "must be a number",
        "type error on the cache-hit path",
    );
    assert_eq!(
        tdp.plan_cache_stats().hits,
        hits_before + 1,
        "the invalid text shares the entry (same normalized key)"
    );
    // The entry stays healthy for valid literal variants.
    assert_eq!(
        tdp.query("SELECT scale(v, 3) AS d FROM t")
            .unwrap()
            .run()
            .unwrap()
            .rows(),
        400
    );
}

#[test]
fn bind_time_type_check_covers_explicit_params() {
    let tdp = session();
    tdp.register_udf_parallel(Arc::new(ScaleUdf));
    let p = tdp.prepare("SELECT scale(v, ?) AS d FROM t").unwrap();
    // Prepare succeeds — the explicit slot's type is unknown until bound.
    assert_eq!(p.param_count(), 1);
    // A string binding violates the declared Number argument at bind time.
    match p.bind(ParamValues::new().string("two")) {
        Err(TdpError::Exec(ExecError::Signature(msg))) => {
            assert!(msg.contains("must be a number"), "{msg}");
        }
        other => panic!("expected bind-time signature error, got {other:?}"),
    }
    // A numeric binding runs.
    let out = p
        .bind(ParamValues::new().number(3.0))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.rows(), 400);
}

#[test]
fn one_type_check_on_every_path() {
    // Rows: where the function is registered (so which cache tier holds
    // the plan). Columns: a miss, a hit on that tier with a wrongly typed
    // literal, and a bind with a wrongly typed value. Every cell reports
    // the same error.
    let want = "function signature error: argument 2 of 'scale' must be a number, got string ($1)";
    for (tier, shared_entries) in [("engine", 1), ("session", 0)] {
        let tdp = session();
        if tier == "engine" {
            tdp.engine().register_udf_shared(Arc::new(ScaleUdf));
        } else {
            tdp.register_udf(Arc::new(ScaleUdf));
        }
        let message = |result: Result<(), TdpError>, what: &str| match result {
            Err(err @ TdpError::Exec(ExecError::Signature(_))) => err.to_string(),
            other => panic!("{tier} {what}: expected a signature error, got {other:?}"),
        };
        let miss = message(
            tdp.query("SELECT scale(v, 'two') AS d FROM t").map(drop),
            "miss",
        );
        assert_eq!(tdp.plan_cache_stats().entries, 0, "{tier}: nothing cached");
        tdp.query("SELECT scale(v, 2) AS d FROM t").unwrap();
        assert_eq!(tdp.engine().plan_cache_stats().entries, shared_entries);
        let hits = tdp.plan_cache_stats().hits;
        let hit = message(
            tdp.query("SELECT scale(v, 'two') AS d FROM t").map(drop),
            "hit",
        );
        assert_eq!(tdp.plan_cache_stats().hits, hits + 1, "{tier}: served");
        let prepared = tdp.prepare("SELECT scale(v, ?) AS d FROM t").unwrap();
        let bind = message(
            prepared.bind(ParamValues::new().string("two")).map(drop),
            "bind",
        );
        for (what, got) in [("miss", miss), ("hit", hit), ("bind", bind)] {
            assert_eq!(got, want, "{tier} {what}");
        }
    }
}

#[test]
fn arity_error_wins_over_kind_error() {
    // Arity is enforced while the plan is lowered, before any argument
    // kind is checked, whichever call comes first.
    let tdp = session();
    tdp.register_udf_parallel(Arc::new(ScaleUdf));
    tdp.register_udf_parallel(Arc::new(HalveUdf));
    for sql in [
        "SELECT scale(v, k) AS a, halve(v, k) AS b FROM t",
        "SELECT halve(v, k) AS b, scale(v, k) AS a FROM t",
    ] {
        expect_signature_err(tdp.query(sql), "'halve' expects 1 argument(s), got 2", sql);
    }
}

#[test]
fn legacy_undeclared_udfs_keep_dynamic_behaviour() {
    struct Legacy;
    impl ScalarUdf for Legacy {
        fn name(&self) -> &str {
            "legacy"
        }
        fn invoke(
            &self,
            args: &[ArgValue],
            _ctx: &ExecContext,
        ) -> Result<EncodedTensor, ExecError> {
            Ok(EncodedTensor::F32(
                args[0].as_column()?.decode_f32().mul_scalar(2.0),
            ))
        }
    }
    let tdp = session();
    tdp.register_udf(Arc::new(Legacy));
    // No declared signature: any arity compiles (and fails at run time if
    // the implementation objects), exactly as before this API existed.
    let q = tdp.query("SELECT legacy(v, k, tag) FROM t").unwrap();
    assert!(q.run().is_ok(), "legacy impl reads args[0] only");
}

// ----------------------------------------------------------------------
// TVF positions
// ----------------------------------------------------------------------

#[test]
fn tvf_position_misuse_rejected_at_prepare_time() {
    let tdp = session();
    tdp.register_tvf(Arc::new(LabelerTvf));
    // FROM-only TVF used in projection position.
    expect_signature_err(
        tdp.query("SELECT labeler(v) FROM t"),
        "cannot be used in projection position",
        "projection misuse",
    );
    // The error names the function and the allowed position.
    match tdp.query("SELECT labeler(v) FROM t") {
        Err(TdpError::Exec(ExecError::Signature(msg))) => {
            assert!(msg.contains("labeler"), "{msg}");
            assert!(msg.contains("FROM labeler(...)"), "{msg}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Projection-only TVF used in FROM position (extract_table's shape).
    struct ProjOnly;
    impl TableFunction for ProjOnly {
        fn name(&self) -> &str {
            "proj_only"
        }
        fn spec(&self) -> FunctionSpec {
            FunctionSpec::dynamic(self.name())
                .returns(vec!["A".into()])
                .projection_only()
        }
        fn invoke_cols(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<Batch, ExecError> {
            let mut out = Batch::new();
            out.push("A", EncodedTensor::F32(Tensor::from_vec(vec![1.0], &[1])));
            Ok(out)
        }
    }
    tdp.register_tvf(Arc::new(ProjOnly));
    expect_signature_err(
        tdp.query("SELECT v FROM proj_only(t)"),
        "cannot be used in FROM position",
        "FROM misuse",
    );
}

// ----------------------------------------------------------------------
// Declared-schema slot resolution
// ----------------------------------------------------------------------

#[test]
fn declared_tvf_schema_slot_resolves_downstream_expressions() {
    let tdp = session();
    tdp.register_tvf(Arc::new(LabelerTvf));
    let q = tdp
        .query("SELECT Label, Score FROM labeler(t) WHERE Score > 100 ORDER BY Score DESC")
        .unwrap();
    let text = q.explain();
    // The TVF's declared schema renders in EXPLAIN…
    assert!(
        text.contains("TvfScan: labeler -> [Label@0, Score@1]"),
        "{text}"
    );
    // …and the downstream filter / sort / projection reference its
    // outputs by slot, not by name.
    assert!(text.contains("(Score@1 > $1)"), "{text}");
    assert!(text.contains("Score@1 DESC"), "{text}");
    assert!(text.contains("Label@0"), "{text}");
    let out = q.run().unwrap();
    assert_eq!(out.rows(), 299, "rows 101..=399 pass the filter");
    let scores = out.column("Score").unwrap().data.decode_f32().to_vec();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]), "sorted descending");
}

#[test]
fn unknown_tvf_output_column_fails_at_prepare_time() {
    let tdp = session();
    tdp.register_tvf(Arc::new(LabelerTvf));
    // Pre-declaration this error only surfaced at run time; now the
    // declared schema catches it in lower().
    let err = tdp.query("SELECT Missing FROM labeler(t)");
    assert!(
        matches!(err, Err(TdpError::Exec(ExecError::UnknownColumn(ref c))) if c == "Missing"),
        "{err:?}"
    );
}

#[test]
fn derived_tvf_schema_follows_the_input() {
    let tdp = session();
    tdp.register_tvf(Arc::new(PassthroughTvf));
    let q = tdp
        .query("SELECT v, k FROM passthru(t) WHERE k > 3")
        .unwrap();
    let text = q.explain();
    assert!(
        text.contains("TvfScan: passthru -> [v@0, k@1, tag@2]"),
        "{text}"
    );
    assert!(text.contains("(k@1 > $1)"), "{text}");
    let out = q.run().unwrap();
    assert!(out.rows() > 0);
}

#[test]
fn tvf_output_drift_fails_loudly_at_run_time() {
    let tdp = session();
    tdp.register_tvf(Arc::new(DriftingTvf));
    // Compiles against the declared schema…
    let q = tdp.query("SELECT Expected FROM drifting(t)").unwrap();
    // …but the implementation emits different columns: the slot contract
    // is broken, so execution must fail loudly, not read wrong slots.
    match q.run() {
        Err(TdpError::Exec(ExecError::Signature(msg))) => {
            assert!(msg.contains("drifting"), "{msg}");
            assert!(msg.contains("Expected"), "{msg}");
            assert!(msg.contains("Surprise"), "{msg}");
        }
        other => panic!("expected schema-drift error, got {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Immutable-UDF constant folding
// ----------------------------------------------------------------------

#[test]
fn immutable_udf_calls_over_literals_fold_at_prepare_time() {
    let tdp = session();
    tdp.register_udf(Arc::new(AddTaxUdf {
        volatility: Volatility::Immutable,
        name: "add_tax",
    }));
    let q = tdp.query("SELECT v FROM t WHERE v > add_tax(100)").unwrap();
    let text = q.explain();
    assert!(
        !text.contains("add_tax("),
        "immutable call over a literal must fold away: {text}"
    );
    // The folded constant shares the plan-cache entry with the literal
    // spelling — the literal-invariance contract extends through folding.
    let plain = tdp.query("SELECT v FROM t WHERE v > 110").unwrap();
    assert_eq!(q.fingerprint(), plain.fingerprint());
    assert!(std::ptr::eq(q.physical_plan(), plain.physical_plan()));
}

#[test]
fn volatile_and_stable_udf_calls_never_fold() {
    let tdp = session();
    tdp.register_udf(Arc::new(AddTaxUdf {
        volatility: Volatility::Stable,
        name: "stable_tax",
    }));
    tdp.register_udf(Arc::new(AddTaxUdf {
        volatility: Volatility::Volatile,
        name: "volatile_tax",
    }));
    for name in ["stable_tax", "volatile_tax"] {
        let q = tdp
            .query(&format!("SELECT v FROM t WHERE v > {name}(100)"))
            .unwrap();
        assert!(
            q.explain().contains(&format!("{name}(")),
            "{name} must stay a run-time call: {}",
            q.explain()
        );
    }
}

#[test]
fn immutable_udf_over_column_args_still_runs_rowwise() {
    let tdp = session();
    tdp.register_udf_parallel(Arc::new(HalveUdf));
    // Column arguments cannot fold; the call must still compute per row.
    let out = tdp
        .query("SELECT halve(v) AS h FROM t LIMIT 3")
        .unwrap()
        .run()
        .unwrap();
    let h = out.column("h").unwrap().data.decode_f32().to_vec();
    let expect: Vec<f32> = (0..3).map(|i| (i as f32 * 0.11).sin() * 0.5).collect();
    assert_eq!(h, expect);
}

// ----------------------------------------------------------------------
// Parallel-safe UDF scheduling (the tentpole acceptance)
// ----------------------------------------------------------------------

#[test]
fn parallel_safe_udf_chain_runs_through_the_morsel_scheduler() {
    let tdp = session();
    tdp.register_udf_parallel(Arc::new(HalveUdf));
    tdp.set_morsel_rows(50); // 400 rows -> 8 morsels
    tdp.set_threads(4);
    let sql = "SELECT halve(v) AS h, k FROM t WHERE halve(v) > -0.4";
    let (out4, prof) = tdp.query(sql).unwrap().run_profiled().unwrap();
    assert!(
        prof.morsels > 1,
        "a parallel-safe UDF chain must split into morsels: {}",
        prof.pretty()
    );
    assert_eq!(prof.threads, 4);
    assert!(
        prof.fallback_reasons().is_empty(),
        "no sequential fallback expected: {:?}",
        prof.fallback_reasons()
    );
    // …and the result is identical to the single-threaded run.
    tdp.set_threads(1);
    let out1 = tdp.query(sql).unwrap().run().unwrap();
    assert_eq!(out1.rows(), out4.rows());
    let bits = |t: &tdp_core::storage::Table| -> Vec<u32> {
        t.column("h")
            .unwrap()
            .data
            .decode_f32()
            .to_vec()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(bits(&out1), bits(&out4), "bitwise identical across threads");
}

#[test]
fn session_bound_udf_still_falls_back_and_says_why() {
    let tdp = session();
    // Same implementation, but registered without Send + Sync proof:
    // the chain must stay on the session thread, observably.
    tdp.register_udf(Arc::new(HalveUdf));
    tdp.set_morsel_rows(50);
    tdp.set_threads(4);
    let q = tdp.query("SELECT halve(v) AS h FROM t").unwrap();
    assert!(
        q.explain()
            .contains("[sequential: udf-not-parallel-safe(halve)]"),
        "{}",
        q.explain()
    );
    let (_, prof) = q.run_profiled().unwrap();
    assert_eq!(
        prof.fallback_reasons(),
        vec!["udf-not-parallel-safe(halve)"],
        "{}",
        prof.pretty()
    );
}

// ----------------------------------------------------------------------
// Fallback-reason observability (EXPLAIN + run_profiled)
// ----------------------------------------------------------------------

#[test]
fn explain_annotates_scalar_subquery_fallback() {
    let tdp = session();
    let q = tdp
        .query("SELECT v FROM t WHERE v > (SELECT AVG(v) FROM t)")
        .unwrap();
    assert!(
        q.explain().contains("[sequential: scalar-subquery]"),
        "{}",
        q.explain()
    );
    let (_, prof) = q.run_profiled().unwrap();
    assert_eq!(prof.fallback_reasons(), vec!["scalar-subquery"]);
}

#[test]
fn explain_annotates_count_distinct_fallback() {
    let tdp = session();
    let q = tdp.query("SELECT COUNT(DISTINCT tag) FROM t").unwrap();
    assert!(
        q.explain().contains("[sequential: count-distinct]"),
        "{}",
        q.explain()
    );
}

#[test]
fn bound_explain_annotates_tensor_param_fallback() {
    let tdp = session();
    let p = tdp.prepare("SELECT v FROM t WHERE v > ?").unwrap();
    // Unbound, the slot is assumed scalar — no annotation…
    assert!(!p.explain().contains("tensor-param"), "{}", p.explain());
    // …but a tensor binding pins the chain to the session thread.
    let bound = p
        .bind(ParamValues::new().tensor(Tensor::<f32>::zeros(&[400])))
        .unwrap();
    assert!(
        bound.explain().contains("[sequential: tensor-param($1)]"),
        "{}",
        bound.explain()
    );
    // Parallel-safe chains carry no annotation at all.
    let clean = tdp.query("SELECT v FROM t WHERE v > 0.0").unwrap();
    assert!(
        !clean.explain().contains("[sequential:"),
        "{}",
        clean.explain()
    );
}
