//! Integration tests of the differentiable-SQL machinery: soft/exact
//! agreement, gradient flow, weight-threading, and the operator-swap
//! contract of paper §4.

use std::sync::Arc;

use tdp_core::autodiff::Var;
use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{
    ArgValue, Batch, ColumnData, DiffBatch, DiffColumn, ExecContext, ExecError, FunctionSpec,
    ScalarUdf, TableFunction,
};
use tdp_core::nn::{Adam, Optimizer};
use tdp_core::storage::TableBuilder;
use tdp_core::tensor::F32Tensor;
use tdp_core::tensor::Tensor;
use tdp_core::{BoundQuery, QueryConfig, Tdp};
use tdp_integration::assert_tables_identical;

/// TVF emitting a PE column driven by a trainable logits parameter.
struct LogitClassifier {
    logits: Var,
    classes: usize,
}

impl TableFunction for LogitClassifier {
    fn name(&self) -> &str {
        "classify"
    }
    fn invoke_table(&self, input: &Batch, ctx: &ExecContext) -> Result<Batch, ExecError> {
        Ok(self.invoke_table_diff(&input.clone().into(), ctx)?.detach())
    }
    fn invoke_table_diff(
        &self,
        _input: &DiffBatch,
        _ctx: &ExecContext,
    ) -> Result<DiffBatch, ExecError> {
        let mut out = DiffBatch::new();
        out.push(
            "Label",
            ColumnData::Diff(DiffColumn::pe(
                self.logits.softmax(1),
                Tensor::arange(self.classes),
            )),
        );
        Ok(out)
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.logits.clone()]
    }
}

fn fixture(n: usize, classes: usize) -> (Tdp, Var) {
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("x", (0..n).map(|i| i as f32).collect())
            .build("rows"),
    );
    let logits = Var::param(Tensor::<f32>::zeros(&[n, classes]));
    tdp.register_tvf(Arc::new(LogitClassifier {
        logits: logits.clone(),
        classes,
    }));
    (tdp, logits)
}

#[test]
fn soft_counts_conserve_mass() {
    let (tdp, _) = fixture(12, 4);
    let q = tdp
        .query_with(
            "SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label",
            QueryConfig::default().trainable(true),
        )
        .unwrap();
    let counts = q.run_counts().unwrap().value();
    assert_eq!(counts.numel(), 4);
    assert!((counts.sum() - 12.0).abs() < 1e-4, "soft mass = row count");
}

#[test]
fn soft_equals_exact_for_confident_models() {
    // With near-one-hot logits, soft counts must agree with the exact
    // (argmax-decoded) counts — the inference swap is then error-free.
    let (tdp, logits) = fixture(6, 2);
    let sharp: Vec<f32> = (0..6)
        .flat_map(|i| {
            if i % 3 == 0 {
                [30.0, -30.0]
            } else {
                [-30.0, 30.0]
            }
        })
        .collect();
    logits.set_value(Tensor::from_vec(sharp, &[6, 2]));
    let sql = "SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label";
    let q = tdp
        .query_with(sql, QueryConfig::default().trainable(true))
        .unwrap();
    let soft = q.run_counts().unwrap().value();
    let exact = q.run().unwrap();
    let exact_counts = exact.column("COUNT(*)").unwrap().data.decode_f32();
    assert!((soft.at(0) - 2.0).abs() < 1e-4);
    assert!((soft.at(1) - 4.0).abs() < 1e-4);
    assert_eq!(exact_counts.to_vec(), vec![2.0, 4.0]);
}

#[test]
fn trainable_count_supervision_converges_and_transfers() {
    let (tdp, logits) = fixture(8, 2);
    let q = tdp
        .query_with(
            "SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label",
            QueryConfig::default().trainable(true),
        )
        .unwrap();
    let target = Tensor::from_vec(vec![5.0f32, 3.0], &[2]);
    let mut opt = Adam::new(q.parameters(), 0.2);
    let mut last = f32::MAX;
    for _ in 0..150 {
        opt.zero_grad();
        let loss = q.run_counts().unwrap().mse_loss(&target);
        loss.backward();
        opt.step();
        last = loss.value().item();
    }
    // Count supervision alone admits fractional optima (every row at
    // p = 5/8 also yields soft counts [5, 3]); what must hold is that the
    // soft counts fit the target and total mass is conserved exactly.
    assert!(last < 1e-3, "soft counts must fit the target: loss {last}");
    let soft = q.run_counts().unwrap().value();
    assert!((soft.at(0) - 5.0).abs() < 0.05 && (soft.at(1) - 3.0).abs() < 0.05);
    let exact = q.run().unwrap();
    assert_eq!(
        exact.column("COUNT(*)").unwrap().data.decode_i64().sum(),
        8,
        "exact decode conserves rows"
    );
    let _ = logits;
}

#[test]
fn weighted_soft_filter_flows_gradients() {
    // Trainable threshold-style UDF: score(x) = x * w, filter > 1.
    struct ScoreUdf {
        w: Var,
    }
    impl ScalarUdf for ScoreUdf {
        fn name(&self) -> &str {
            "score"
        }
        fn invoke(&self, args: &[ArgValue], _: &ExecContext) -> Result<EncodedTensor, ExecError> {
            let x = args[0].as_column()?.decode_f32();
            Ok(EncodedTensor::F32(x.mul_scalar(self.w.value().item())))
        }
        fn invoke_diff(&self, args: &[ArgValue], _: &ExecContext) -> Result<DiffColumn, ExecError> {
            let x = match &args[0] {
                ArgValue::Column(c) => Var::constant(c.decode_f32()),
                ArgValue::DiffColumn(d) => d.var.clone(),
                other => return Err(ExecError::TypeMismatch(format!("{other:?}"))),
            };
            Ok(DiffColumn::plain(
                x.mul(&self.w.broadcast_to(&[x.shape()[0]])),
            ))
        }
        fn parameters(&self) -> Vec<Var> {
            vec![self.w.clone()]
        }
    }

    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("x", vec![0.5, 1.0, 1.5, 2.0])
            .build("t"),
    );
    let w = Var::param(Tensor::from_vec(vec![1.0f32], &[1]));
    tdp.register_udf(Arc::new(ScoreUdf { w: w.clone() }));
    let q = tdp
        .query_with(
            "SELECT COUNT(*) FROM t WHERE score(x) > 1.0",
            QueryConfig::default().trainable(true).temperature(0.5),
        )
        .unwrap();
    // Train the weight so the soft count reaches 2. (A generous temperature
    // and a small step size keep the relaxed predicate out of the saturated
    // sigmoid region, where gradients vanish.)
    let target = Tensor::from_vec(vec![2.0f32], &[1]);
    let mut opt = Adam::new(q.parameters(), 0.02);
    let mut last = f32::MAX;
    for _ in 0..300 {
        opt.zero_grad();
        let loss = q.run_counts().unwrap().mse_loss(&target);
        loss.backward();
        opt.step();
        last = loss.value().item();
    }
    assert!(
        last < 0.05,
        "trainable filter should fit the target count: {last}"
    );
    // Exact execution of the trained query returns an integer count near 2.
    let exact = q.run().unwrap();
    let c = exact.column("COUNT(*)").unwrap().data.decode_i64().at(0);
    assert!((1..=3).contains(&c), "exact count after training: {c}");
}

#[test]
fn non_trainable_query_rejects_diff_run() {
    let (tdp, _) = fixture(4, 2);
    let q = tdp
        .query("SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label")
        .unwrap();
    assert!(q.run_diff().is_err());
    assert!(q.run().is_ok());
}

#[test]
fn group_order_is_lexicographic_in_both_modes() {
    let (tdp, logits) = fixture(4, 3);
    // Confident: classes 2, 1, 0, 2.
    let mut l = vec![-20.0f32; 12];
    for (i, c) in [2usize, 1, 0, 2].iter().enumerate() {
        l[i * 3 + c] = 20.0;
    }
    logits.set_value(Tensor::from_vec(l, &[4, 3]));
    let sql = "SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label";
    let q = tdp
        .query_with(sql, QueryConfig::default().trainable(true))
        .unwrap();
    // Soft mode: dense table over all classes 0,1,2.
    let soft_batch = q.run_diff().unwrap();
    let labels = soft_batch.column("Label").unwrap().to_exact().decode_f32();
    assert_eq!(labels.to_vec(), vec![0.0, 1.0, 2.0]);
    // Exact mode: observed classes in ascending order.
    let exact = q.run().unwrap();
    assert_eq!(
        exact.column("Label").unwrap().data.decode_f32().to_vec(),
        vec![0.0, 1.0, 2.0]
    );
    assert_eq!(
        exact.column("COUNT(*)").unwrap().data.decode_i64().to_vec(),
        vec![1, 1, 2]
    );
}

/// `score(x) = w · x` with one trainable weight.
struct WeightedScore {
    w: Var,
}

impl ScalarUdf for WeightedScore {
    fn name(&self) -> &str {
        "score"
    }
    fn invoke(&self, args: &[ArgValue], _: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let x = args[0].as_column()?.decode_f32();
        Ok(EncodedTensor::F32(x.mul_scalar(self.w.value().item())))
    }
    fn invoke_diff(&self, args: &[ArgValue], _: &ExecContext) -> Result<DiffColumn, ExecError> {
        let x = match &args[0] {
            ArgValue::Column(c) => Var::constant(c.decode_f32()),
            ArgValue::DiffColumn(d) => d.var.clone(),
            other => return Err(ExecError::TypeMismatch(format!("{other:?}"))),
        };
        Ok(DiffColumn::plain(
            x.mul(&self.w.broadcast_to(&[x.shape()[0]])),
        ))
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.w.clone()]
    }
}

/// A trainable UDF is a parameter of every statement that calls it, wherever
/// the call sits: in a fused ORDER BY … LIMIT key, a window argument or a
/// scalar subquery.
#[test]
fn parameters_cover_topk_keys_windows_and_subqueries() {
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("price", vec![3.0, 1.0, 2.0, 5.0])
            .col_str("item", &["b", "a", "a", "c"])
            .build("demo"),
    );
    let w = Var::param(Tensor::from_vec(vec![1.0f32], &[1]));
    tdp.register_udf(Arc::new(WeightedScore { w: w.clone() }));
    for sql in [
        "SELECT price FROM demo ORDER BY score(price) DESC LIMIT 3",
        "SELECT item, SUM(score(price)) OVER (PARTITION BY item) AS s FROM demo",
        "SELECT price FROM demo WHERE price > (SELECT MAX(score(price)) FROM demo)",
    ] {
        let q = tdp
            .query_with(sql, QueryConfig::default().trainable(true))
            .unwrap();
        assert_eq!(q.num_parameters(), 1, "{sql}");
        assert_eq!(q.parameters()[0].id(), w.id(), "{sql}");
    }
}

/// `lift(t)`: `t`'s `x` and `g`, with `x` put on the tape as `w · x` — a
/// FROM-position TVF emitting a differentiable column.
struct Lift {
    w: Var,
}

impl TableFunction for Lift {
    fn name(&self) -> &str {
        "lift"
    }
    fn invoke_table(&self, input: &Batch, ctx: &ExecContext) -> Result<Batch, ExecError> {
        Ok(self.invoke_table_diff(&input.clone().into(), ctx)?.detach())
    }
    fn invoke_table_diff(
        &self,
        input: &DiffBatch,
        _ctx: &ExecContext,
    ) -> Result<DiffBatch, ExecError> {
        let x = input.column("x")?.to_exact().decode_f32();
        let n = x.numel();
        let mut out = DiffBatch::new();
        out.push(
            "x",
            ColumnData::Diff(DiffColumn::plain(
                Var::constant(x).mul(&self.w.broadcast_to(&[n])),
            )),
        );
        out.push("g", input.column("g")?.clone());
        Ok(out)
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.w.clone()]
    }
}

/// `ident(x)`: its argument column, as `x` — a projection-position TVF.
struct Ident;

impl TableFunction for Ident {
    fn name(&self) -> &str {
        "ident"
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
            .returns(vec!["x".into()])
            .projection_only()
    }
    fn invoke_cols(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<Batch, ExecError> {
        let mut out = Batch::new();
        out.push("x", args[0].as_column()?.clone());
        Ok(out)
    }
}

const ROWS: usize = 10_000;

/// `t(id, x, g)` with 10,000 rows in ten 1,024-row morsels, a 7-row `u(h,
/// y)` to join it with, the trainable `score` UDF, the `lift` TVF and the
/// `ident` TVF.
fn wide_fixture() -> (Tdp, Var) {
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_i64("id", (0..ROWS as i64).collect())
            .col_f32("x", (0..ROWS).map(|i| (i % 97) as f32 * 0.05).collect())
            .col_i64("g", (0..ROWS).map(|i| (i % 7) as i64).collect())
            .build("t"),
    );
    tdp.register_table(
        TableBuilder::new()
            .col_i64("h", (0..7).collect())
            .col_f32("y", (0..7).map(|i| i as f32 * 10.0).collect())
            .build("u"),
    );
    let w = Var::param(Tensor::from_vec(vec![1.0f32], &[1]));
    tdp.register_udf(Arc::new(WeightedScore { w: w.clone() }));
    tdp.register_tvf(Arc::new(Lift { w: w.clone() }));
    tdp.register_tvf(Arc::new(Ident));
    tdp.set_morsel_rows(1024);
    (tdp, w)
}

/// Every operator a trainable run does not relax, over `{src}`.
const BARRIERS: [&str; 7] = [
    "SELECT x, y FROM {src} JOIN u ON g = h",
    "SELECT x FROM {src} ORDER BY x",
    "SELECT x FROM {src} LIMIT 3",
    "SELECT DISTINCT x FROM {src}",
    "SELECT x FROM {src} UNION ALL SELECT x FROM t",
    "SELECT x, SUM(x) OVER (PARTITION BY g) AS s FROM {src}",
    "SELECT ident(x) FROM {src}",
];

/// The inputs of [`BARRIERS`]: exact rows, a differentiable column, and
/// rows carrying soft filter weights.
const EXACT_SRC: &str = "t";
const DIFF_SRC: &str = "lift(t)";
const SOFT_SRC: &str = "(SELECT x, g FROM t WHERE score(x) > 1.0) AS s";

fn trainable<'a>(tdp: &'a Tdp, sql: &str) -> BoundQuery<'a> {
    tdp.query_with(sql, QueryConfig::default().trainable(true))
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// An exact operator in a trainable run sees exact rows or nothing: over
/// exact input it returns `run()`'s bytes, and over a differentiable
/// column or soft row weights it refuses instead of dropping them.
#[test]
fn exact_operators_refuse_what_they_cannot_relax() {
    let (tdp, _) = wide_fixture();
    for template in BARRIERS {
        let sql = template.replace("{src}", EXACT_SRC);
        let q = trainable(&tdp, &sql);
        let diff = q.run_diff().unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(diff.weights.is_none() && !diff.has_diff(), "{sql}");
        assert_tables_identical(&diff.detach().to_table("result"), &q.run().unwrap(), &sql);
        for src in [DIFF_SRC, SOFT_SRC] {
            let sql = template.replace("{src}", src);
            match trainable(&tdp, &sql).run_diff() {
                Err(tdp_core::TdpError::Exec(ExecError::NotDifferentiable(m))) => {
                    assert!(
                        m.ends_with("over differentiable columns or soft weights"),
                        "{sql}: {m}"
                    )
                }
                other => panic!("{sql}: expected NotDifferentiable, got {other:?}"),
            }
        }
    }
}

/// A soft GROUP BY over an exact float key groups like the exact walker:
/// one group per distinct value, keys in `run()`'s order.
#[test]
fn soft_group_by_keeps_float_keys() {
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("k", vec![1.5, 1.7, 1.5, 2.0])
            .build("t"),
    );
    let q = trainable(&tdp, "SELECT k, COUNT(*) FROM t GROUP BY k");
    let soft = q.run_diff().unwrap();
    let keys = soft.column("k").unwrap().to_exact().decode_f32().to_vec();
    assert_eq!(keys, vec![1.5, 1.7, 2.0]);
    assert_eq!(
        q.run_counts().unwrap().value().to_vec(),
        vec![2.0, 1.0, 1.0]
    );
    let exact = q.run().unwrap();
    assert_eq!(exact.column("k").unwrap().data.decode_f32().to_vec(), keys);
}

const TOPK: &str = "SELECT x FROM t WHERE id < 100 ORDER BY score(x) DESC LIMIT 5";

/// The exact chain under a soft top-k runs on the exact walker: its scan
/// is pruned by the zone maps, and the top-k still weights every row.
#[test]
fn exact_children_of_a_trainable_run_prune_morsels() {
    let (tdp, _) = wide_fixture();
    let q = trainable(&tdp, TOPK);
    let before = tdp.engine().access_path_stats().morsels_pruned;
    let out = q.run_diff().unwrap();
    assert!(tdp.engine().access_path_stats().morsels_pruned > before);
    assert_eq!(out.rows(), 100);
    let w = out.weights.expect("soft top-k weights").value();
    assert!(
        w.all_finite() && (w.sum() - 5.0).abs() < 0.5,
        "{:?}",
        w.to_vec()
    );
}

/// One trainable run as bits: every output column, the soft row weights,
/// then each parameter's gradient of a loss over all of them.
fn run_bits(q: &BoundQuery<'_>, params: &[Var]) -> Vec<Vec<u32>> {
    let bits = |t: &F32Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    params.iter().for_each(Var::zero_grad);
    let batch = q.run_diff().unwrap();
    let mut out = Vec::new();
    let mut loss: Option<Var> = None;
    let mut add = |v: Var| loss = Some(loss.take().map_or(v.clone(), |l| l.add(&v)));
    for (_, col) in batch.columns() {
        match col {
            ColumnData::Diff(d) => {
                out.push(bits(&d.var.value()));
                add(d.var.sum());
            }
            ColumnData::Exact(e) => out.push(bits(&e.decode_f32())),
        }
    }
    if let Some(w) = &batch.weights {
        out.push(bits(&w.value()));
        let n = batch.rows();
        let ramp = Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n]);
        add(w.mul(&Var::constant(ramp)).sum());
    }
    if let Some(l) = loss {
        l.backward();
    }
    out.extend(
        params
            .iter()
            .map(|p| p.grad().map_or(Vec::new(), |g| bits(&g))),
    );
    out
}

/// A trainable run's forward value and every gradient are the same bits
/// at every thread count, with chain kernels and zone maps on or off, and
/// each run gives back every byte it charged to the memory pool.
#[test]
fn trainable_runs_are_bitwise_stable_across_the_scheduler() {
    let (tdp, w) = wide_fixture();
    let mut statements = vec![
        "SELECT COUNT(*), SUM(x) FROM t WHERE score(x) > 1.0".to_string(),
        "SELECT g, COUNT(*), SUM(x) FROM t WHERE score(x) > 1.0 GROUP BY g".to_string(),
        "SELECT g, COUNT(*), SUM(x) FROM lift(t) GROUP BY g".to_string(),
        TOPK.to_string(),
    ];
    statements.extend(BARRIERS.iter().map(|b| b.replace("{src}", EXACT_SRC)));
    let mut oracle: Vec<Vec<Vec<u32>>> = Vec::new();
    for threads in [1, 2] {
        for kernels in [false, true] {
            for zone_maps in [false, true] {
                tdp.set_threads(threads);
                tdp.set_chain_kernels(kernels);
                tdp.set_zone_maps(zone_maps);
                let point = format!("threads={threads} kernels={kernels} zone_maps={zone_maps}");
                for (i, sql) in statements.iter().enumerate() {
                    let got = run_bits(&trainable(&tdp, sql), std::slice::from_ref(&w));
                    assert_eq!(tdp.engine().memory_pool().used(), 0, "{sql} @ {point}");
                    match oracle.get(i) {
                        Some(want) => assert!(&got == want, "{sql} @ {point}"),
                        None => oracle.push(got),
                    }
                }
            }
        }
    }
}
