//! Differentiable (trainable-query) execution of compiled physical plans.
//!
//! This is the lowering selected by the `TRAINABLE` compilation flag
//! (paper Listing 6). It consumes the *same* [`PhysicalPlan`] as
//! [`crate::pipeline::execute`] — one compile step, two kernel families:
//!
//! * TVFs run their differentiable implementations, emitting
//!   [`DiffColumn`]s whose `Var`s carry the tape;
//! * predicates over differentiable scores become soft row weights
//!   instead of hard masks — exact predicates over exact columns still
//!   filter hard (gradients flow through the surviving rows via
//!   differentiable row gather). A relaxed `>`, `>=`, `<` or `<=` is one
//!   tape node ([`crate::soft::soft_compare`]): one forward pass over
//!   both operands, one backward pass yielding both gradients; `AND`,
//!   `OR` and `NOT` combine those weights;
//! * GROUP BY + COUNT/SUM/AVG lower to the soft kernels of
//!   [`crate::soft`], and `ORDER BY score DESC LIMIT k` over a score on
//!   the tape to NeuralSort membership weights;
//! * every other operator is exact: it runs only when nothing
//!   differentiable reaches it — no differentiable column, no soft row
//!   weights — and reports [`ExecError::NotDifferentiable`] otherwise.
//!
//! This walker runs only what it relaxes, and it alone holds tape
//! state: its rows are [`DiffBatch`]es, while the exact executor's
//! [`Batch`] has no column type for the tape. A subtree is **on the
//! tape** when it holds a TVF or a call to a scalar UDF with trainable
//! parameters — a static test over the shared
//! [`crate::pipeline::decompose`] tree. Every child off the tape runs on
//! the exact walker (`pipeline::exec_node`) with the session's threads,
//! chain kernels, zone maps and the query's memory ledger, and comes
//! back through `From<Batch>`. Every exact operator here — LIMIT, and
//! each barrier it does not relax, projection-position TVFs included —
//! sits behind the gate, the one conversion from a `DiffBatch` to a
//! `Batch`: it refuses a column on the tape or soft weights, and hands
//! the rest to the exact operator (`pipeline::run_barrier` for a
//! barrier). An off-tape expression is evaluated by the exact
//! evaluator over the operator's detached input, built at most once per
//! operator ([`DiffBatch::detach`]). What stays here — the root, the
//! chains and sinks on the tape, soft aggregates and top-k — runs on the
//! session thread, where the `Rc`-based tape lives.

use std::cell::OnceCell;

use tdp_autodiff::Var;
use tdp_encoding::EncodedTensor;
use tdp_sql::ast::{AggFunc, BinOp, UnOp};
use tdp_tensor::{F32Tensor, Tensor};

use crate::batch::{Batch, ColumnData, DiffBatch, DiffColumn};
use crate::error::ExecError;
use crate::exact;
use crate::expr::{eval_expr, resolve_limit, Value};
use crate::morsel::BarrierInput;
use crate::physical::{CompiledExpr, PhysAggregate, PhysKey, PhysProjectItem, PhysicalPlan};
use crate::pipeline::{exec_node, run_barrier, MorselOp, PipeNode};
use crate::soft;
use crate::udf::{ArgValue, ExecContext, UdfRegistry};

/// Execute a physical plan differentiably. The root always runs here, so
/// a root aggregate returns a tape column even over exact data.
pub fn execute_diff(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<DiffBatch, ExecError> {
    exec_diff_node(&crate::pipeline::decompose(plan), ctx)
}

/// A call that resolves to a scalar UDF with trainable parameters. Such
/// calls take the differentiable path even when no input column is
/// differentiable (e.g. a learnable filter threshold). Resolved through
/// the registry's shadowing rule, so a trainable session UDF registered
/// after compilation counts where it shadows a built-in.
pub(crate) fn trainable_call(e: &CompiledExpr, udfs: &UdfRegistry) -> Option<()> {
    let udf = udfs.scalar(udfs.udf_call(e)?).ok()?;
    (!udf.parameters().is_empty()).then_some(())
}

/// Whether `plan`'s subtree holds a TVF or a call that resolves to a
/// trainable scalar UDF — the static "on the tape" test over a plan.
pub(crate) fn plan_on_tape(plan: &PhysicalPlan, udfs: &UdfRegistry) -> bool {
    plan.find_map(&mut |p| {
        let mut hit = matches!(
            p,
            PhysicalPlan::TvfScan { .. } | PhysicalPlan::TvfProject { .. }
        );
        p.for_each_expr_node(&mut |e| hit |= trainable_call(e, udfs).is_some());
        hit.then_some(())
    })
    .is_some()
}

/// Whether `node`'s subtree is on the tape: it holds a TVF, or a call
/// that resolves to a trainable scalar UDF.
fn node_on_tape(node: &PipeNode<'_>, ctx: &ExecContext) -> bool {
    let call = &mut |e: &CompiledExpr| trainable_call(e, ctx.udfs);
    let pipe = match node {
        PipeNode::Scan { .. } => return false,
        PipeNode::Barrier { plan, .. } => return plan_on_tape(plan, ctx.udfs),
        PipeNode::Aggregate {
            keys, aggregates, ..
        } if (keys.iter().map(|k| &k.expr))
            .chain(aggregates.iter().filter_map(|a| a.arg.as_ref()))
            .any(|e| e.find_map(call).is_some()) =>
        {
            return true
        }
        PipeNode::Stream(pipe)
        | PipeNode::Limit { pipe, .. }
        | PipeNode::Aggregate { pipe, .. } => pipe,
    };
    pipe.ops.iter().any(|op| op.find_map(call).is_some()) || node_on_tape(&pipe.input, ctx)
}

/// Run a child on this walker when it is on the tape, on the exact
/// walker otherwise.
fn run_child(node: &PipeNode<'_>, ctx: &ExecContext) -> Result<DiffBatch, ExecError> {
    match node_on_tape(node, ctx) {
        true => exec_diff_node(node, ctx),
        false => Ok(exec_node(node, ctx, None)?.into()),
    }
}

/// The gate in front of every operator this walker does not relax, and
/// the one conversion from a tape batch to an exact one: `op` may only
/// see exact rows — no column on the tape, no soft weights.
fn gate(op: &str, batch: DiffBatch) -> Result<Batch, ExecError> {
    let exact = |(name, col)| match col {
        ColumnData::Exact(e) => Some((name, e)),
        ColumnData::Diff(_) => None,
    };
    match batch.cols.into_columns().into_iter().map(exact).collect() {
        Some(exact) if batch.weights.is_none() => Ok(exact),
        _ => Err(ExecError::NotDifferentiable(format!(
            "{op} over differentiable columns or soft weights"
        ))),
    }
}

/// Multiply soft membership weights into a batch's row weights.
fn weigh(batch: &mut DiffBatch, w: Var) {
    batch.weights = Some(match batch.weights.take() {
        Some(prev) => prev.mul(&w),
        None => w,
    });
}

/// Apply a fused chain with the differentiable operator kernels.
fn apply_ops_diff(
    mut batch: DiffBatch,
    ops: &[MorselOp<'_>],
    ctx: &ExecContext,
) -> Result<DiffBatch, ExecError> {
    for op in ops {
        batch = match op {
            MorselOp::Filter(pred) => filter_diff(batch, pred, ctx)?,
            MorselOp::Project(items) => project_diff(&batch, items, ctx)?,
        };
    }
    Ok(batch)
}

fn exec_diff_node(node: &PipeNode<'_>, ctx: &ExecContext) -> Result<DiffBatch, ExecError> {
    match node {
        PipeNode::Scan { .. } => Ok(exec_node(node, ctx, None)?.into()),
        PipeNode::Stream(pipe) => apply_ops_diff(run_child(&pipe.input, ctx)?, &pipe.ops, ctx),
        PipeNode::Aggregate {
            keys,
            aggregates,
            pipe,
        } => {
            let inp = apply_ops_diff(run_child(&pipe.input, ctx)?, &pipe.ops, ctx)?;
            aggregate_diff(&inp, keys, aggregates, ctx)
        }
        PipeNode::Limit { n, pipe } => {
            let inp = apply_ops_diff(run_child(&pipe.input, ctx)?, &pipe.ops, ctx)?;
            Ok(gate("LIMIT", inp)?.head(resolve_limit(n, ctx)?).into())
        }
        PipeNode::Barrier { plan, inputs } => exec_diff_barrier(plan, inputs, ctx),
    }
}

fn exec_diff_barrier(
    plan: &PhysicalPlan,
    inputs: &[PipeNode<'_>],
    ctx: &ExecContext,
) -> Result<DiffBatch, ExecError> {
    let mut batches = inputs
        .iter()
        .map(|input| run_child(input, ctx))
        .collect::<Result<Vec<_>, _>>()?;
    match plan {
        PhysicalPlan::TvfScan { name, schema, .. } => {
            let tvf = ctx.udfs.table_fn(name)?.clone();
            let mut out = tvf.invoke_table_diff(&batches[0], ctx)?;
            crate::udf::check_tvf_output(name, schema.as_deref(), &out.cols)?;
            // Input weights survive a row-preserving TVF.
            if out.weights.is_none() {
                out.weights = batches[0].weights.clone();
            }
            Ok(out)
        }
        // `ORDER BY score DESC LIMIT k` over a single key on the tape
        // relaxes to NeuralSort top-k: every row survives, carrying a soft
        // membership weight that downstream soft aggregates consume (the
        // §4 operator relaxation applied to top-k, as in the paper's
        // multimodal search queries).
        PhysicalPlan::TopK { keys, n, .. }
            if keys.len() == 1 && on_tape(&keys[0].expr, &batches[0], ctx) =>
        {
            let mut inp = batches.remove(0);
            let scores =
                eval_diff(&keys[0].expr, &Operand::new(&inp), ctx)?.into_var(inp.rows())?;
            let k = resolve_limit(n, ctx)?;
            weigh(
                &mut inp,
                soft::soft_topk_weights(&scores, k, keys[0].desc, ctx.temperature),
            );
            Ok(inp)
        }
        _ => {
            let op = operator_name(plan);
            let exact = batches
                .into_iter()
                .map(|b| Ok(BarrierInput::gathered(gate(op, b)?, None)))
                .collect::<Result<_, ExecError>>()?;
            Ok(run_barrier(plan, exact, ctx, None)?.into())
        }
    }
}

/// How a `NotDifferentiable` error names a gated operator.
fn operator_name(plan: &PhysicalPlan) -> &str {
    match plan {
        PhysicalPlan::Join { .. } => "JOIN",
        PhysicalPlan::Sort { .. } | PhysicalPlan::TopK { .. } => "ORDER BY",
        PhysicalPlan::Window { .. } => "window functions",
        PhysicalPlan::Distinct { .. } => "DISTINCT",
        PhysicalPlan::UnionAll { .. } => "UNION ALL",
        PhysicalPlan::TvfProject { name, .. } => name,
        // AnnTopK: FROM-position TVFs and TopK's relaxation are handled
        // before the gate, and streamable operators never reach a barrier.
        _ => "ANN top-k",
    }
}

// ----------------------------------------------------------------------
// Differentiable expression values
// ----------------------------------------------------------------------

/// One operator's input: the tape batch, and the exact view of it that
/// off-tape expressions are evaluated on — detached on first use, so at
/// most once per operator.
struct Operand<'b> {
    batch: &'b DiffBatch,
    detached: OnceCell<Batch>,
}

impl<'b> Operand<'b> {
    fn new(batch: &'b DiffBatch) -> Operand<'b> {
        Operand {
            batch,
            detached: OnceCell::new(),
        }
    }

    fn detached(&self) -> &Batch {
        self.detached.get_or_init(|| self.batch.detach())
    }
}

/// Value of an expression in the differentiable domain.
enum DiffVal {
    /// Plain differentiable `[N]` column.
    Var(Var),
    /// Probability-encoded differentiable column.
    Pe(DiffColumn),
    /// Exact column (no gradient flows through it).
    Exact(EncodedTensor),
    Num(f64),
    Str(String),
}

/// An exact value as a constant of the differentiable domain.
impl From<Value> for DiffVal {
    fn from(v: Value) -> DiffVal {
        match v {
            Value::Column(c) => DiffVal::Exact(c),
            Value::Num(n) => DiffVal::Num(n),
            Value::Str(s) => DiffVal::Str(s),
            Value::Bool(b) => DiffVal::Num(if b { 1.0 } else { 0.0 }),
        }
    }
}

impl DiffVal {
    fn into_arg(self) -> ArgValue {
        match self {
            DiffVal::Var(v) => ArgValue::DiffColumn(DiffColumn::plain(v)),
            DiffVal::Pe(p) => ArgValue::DiffColumn(p),
            DiffVal::Exact(e) => ArgValue::Column(e),
            DiffVal::Num(n) => ArgValue::Number(n),
            DiffVal::Str(s) => ArgValue::Str(s),
        }
    }

    /// Coerce to a `[n]` Var (PE decodes softly to expected values; exact
    /// columns become constants).
    fn into_var(self, n: usize) -> Result<Var, ExecError> {
        match self {
            DiffVal::Var(v) => Ok(v),
            DiffVal::Pe(p) => {
                // E[value] = probs · class_values, kept on the tape.
                let cv = p.class_values.clone().expect("Pe always has classes");
                let c = cv.numel();
                Ok(p.var
                    .matmul(&Var::constant(cv.reshape(&[c, 1])))
                    .reshape(&[n]))
            }
            DiffVal::Exact(e) => Ok(Var::constant(e.decode_f32())),
            DiffVal::Num(v) => Ok(Var::constant(Tensor::full(&[n], v as f32))),
            DiffVal::Str(s) => Err(ExecError::TypeMismatch(format!(
                "string '{s}' in numeric context"
            ))),
        }
    }
}

/// Whether an expression touches any differentiable column.
fn references_diff(expr: &CompiledExpr, batch: &DiffBatch) -> bool {
    expr.find_map(&mut |e| match e {
        CompiledExpr::Column(c) => c
            .resolve(&batch.cols)
            .is_ok_and(|d| d.is_diff())
            .then_some(()),
        _ => None,
    })
    .is_some()
}

/// An expression is "on the tape" when it touches a differentiable column
/// or calls a parameterized UDF.
fn on_tape(expr: &CompiledExpr, batch: &DiffBatch, ctx: &ExecContext) -> bool {
    references_diff(expr, batch)
        || expr
            .find_map(&mut |e| trainable_call(e, ctx.udfs))
            .is_some()
}

/// Evaluate a compiled expression in the differentiable domain.
fn eval_diff(
    expr: &CompiledExpr,
    input: &Operand<'_>,
    ctx: &ExecContext,
) -> Result<DiffVal, ExecError> {
    match expr {
        CompiledExpr::Column(c) => match c.resolve(&input.batch.cols)? {
            ColumnData::Diff(d) if d.is_pe() => Ok(DiffVal::Pe(d.clone())),
            ColumnData::Diff(d) => Ok(DiffVal::Var(d.var.clone())),
            ColumnData::Exact(e) => Ok(DiffVal::Exact(e.clone())),
        },
        // Literals, parameters and scalar subqueries are constants of the
        // differentiable domain: no gradient flows into a binding or
        // crosses a subquery boundary (its tables are catalog constants).
        CompiledExpr::Num(_)
        | CompiledExpr::Str(_)
        | CompiledExpr::Bool(_)
        | CompiledExpr::Param { .. }
        | CompiledExpr::ScalarSubquery(_) => exact_as_diff(expr, input, ctx),
        CompiledExpr::Unary {
            op: UnOp::Neg,
            expr,
        } => {
            let n = input.batch.rows();
            Ok(DiffVal::Var(
                eval_diff(expr, input, ctx)?.into_var(n)?.neg(),
            ))
        }
        CompiledExpr::Unary { op: UnOp::Not, .. } => Err(ExecError::NotDifferentiable(
            "NOT outside a predicate".into(),
        )),
        CompiledExpr::Binary { op, left, right } => {
            // Pure-exact subtrees evaluate exactly (keeps dictionary
            // predicates etc. available inside trainable queries).
            if !on_tape(expr, input.batch, ctx) {
                return exact_as_diff(expr, input, ctx);
            }
            let n = input.batch.rows();
            let l = eval_diff(left, input, ctx)?;
            let r = eval_diff(right, input, ctx)?;
            let (lv, rv) = (l.into_var(n)?, r.into_var(n)?);
            let out = match op {
                BinOp::Add => lv.add(&rv),
                BinOp::Sub => lv.sub(&rv),
                BinOp::Mul => lv.mul(&rv),
                BinOp::Div => lv.div(&rv),
                other => {
                    return Err(ExecError::NotDifferentiable(format!(
                        "operator {other:?} over differentiable columns outside WHERE"
                    )))
                }
            };
            Ok(DiffVal::Var(out))
        }
        CompiledExpr::Builtin { name, args, .. } if ctx.udfs.udf_call(expr).is_none() => {
            // Built-in math functions: exact off the tape, Var ops on it
            // (only the ones autodiff provides).
            if !args.iter().any(|a| on_tape(a, input.batch, ctx)) {
                return exact_as_diff(expr, input, ctx);
            }
            let n = input.batch.rows();
            if args.len() == 1 {
                let x = eval_diff(&args[0], input, ctx)?.into_var(n)?;
                let out = match name.to_ascii_lowercase().as_str() {
                    "abs" => x.abs(),
                    "sqrt" => x.sqrt(),
                    "exp" => Var::exp(&x),
                    "ln" => Var::ln(&x),
                    other => {
                        return Err(ExecError::NotDifferentiable(format!(
                            "built-in {other} over differentiable columns"
                        )))
                    }
                };
                return Ok(DiffVal::Var(out));
            }
            Err(ExecError::NotDifferentiable(format!(
                "built-in {name} over differentiable columns"
            )))
        }
        CompiledExpr::Udf { name, args } | CompiledExpr::Builtin { name, args, .. } => {
            invoke_udf_diff(name, args, input, ctx)
        }
        e @ (CompiledExpr::Case { .. }
        | CompiledExpr::InList { .. }
        | CompiledExpr::Like { .. }) => {
            // CASE/IN/LIKE run exactly when they do not touch the tape;
            // relaxing them is future work (the paper only relaxes
            // comparisons and aggregates).
            if on_tape(e, input.batch, ctx) {
                return Err(ExecError::NotDifferentiable(format!(
                    "'{e}' over differentiable columns"
                )));
            }
            exact_as_diff(e, input, ctx)
        }
    }
}

/// Invoke a session scalar UDF in the differentiable domain: the diff
/// implementation when gradients may flow, the exact one otherwise.
fn invoke_udf_diff(
    name: &str,
    args: &[CompiledExpr],
    input: &Operand<'_>,
    ctx: &ExecContext,
) -> Result<DiffVal, ExecError> {
    let any_diff = args.iter().any(|a| references_diff(a, input.batch));
    let udf = ctx.udfs.scalar(name)?;
    let mut arg_values = Vec::with_capacity(args.len());
    for a in args {
        arg_values.push(eval_diff(a, input, ctx)?.into_arg());
    }
    if any_diff || !udf.parameters().is_empty() {
        let out = udf.invoke_diff(&arg_values, ctx)?;
        Ok(if out.is_pe() {
            DiffVal::Pe(out)
        } else {
            DiffVal::Var(out.var)
        })
    } else {
        Ok(DiffVal::Exact(udf.invoke(&arg_values, ctx)?))
    }
}

/// Evaluate an off-tape expression with the exact evaluator over the
/// detached input and wrap the result as a constant in the
/// differentiable domain.
fn exact_as_diff(
    expr: &CompiledExpr,
    input: &Operand<'_>,
    ctx: &ExecContext,
) -> Result<DiffVal, ExecError> {
    Ok(eval_expr(expr, input.detached(), ctx)?.into())
}

// ----------------------------------------------------------------------
// Operators
// ----------------------------------------------------------------------

/// Soft weights for a predicate over differentiable values.
fn soft_predicate(
    expr: &CompiledExpr,
    input: &Operand<'_>,
    ctx: &ExecContext,
) -> Result<Var, ExecError> {
    let n = input.batch.rows();
    match expr {
        CompiledExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let lw = soft_predicate(left, input, ctx)?;
            let rw = soft_predicate(right, input, ctx)?;
            Ok(lw.mul(&rw))
        }
        CompiledExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            // Probabilistic OR: w1 + w2 − w1·w2.
            let lw = soft_predicate(left, input, ctx)?;
            let rw = soft_predicate(right, input, ctx)?;
            Ok(lw.add(&rw).sub(&lw.mul(&rw)))
        }
        CompiledExpr::Unary {
            op: UnOp::Not,
            expr,
        } => {
            let w = soft_predicate(expr, input, ctx)?;
            Ok(w.neg().add_scalar(1.0))
        }
        CompiledExpr::Binary { op, left, right } if op.is_comparison() => {
            if !on_tape(expr, input.batch, ctx) {
                // Exact sub-predicate: 0/1 weights, constants on the tape.
                let mask = eval_expr(expr, input.detached(), ctx)?.into_mask(n)?;
                return Ok(Var::constant(mask.to_f32_mask()));
            }
            let l = eval_diff(left, input, ctx)?.into_var(n)?;
            let r = eval_diff(right, input, ctx)?.into_var(n)?;
            let towards = |t| soft::soft_compare(&l, &r, t, ctx.temperature);
            Ok(match op {
                BinOp::Gt | BinOp::GtEq => towards(soft::Towards::Greater),
                BinOp::Lt | BinOp::LtEq => towards(soft::Towards::Less),
                // Relaxed equality: Gaussian kernel of the margin.
                BinOp::Eq => {
                    let z = l.sub(&r).div_scalar(ctx.temperature);
                    Var::exp(&z.square().neg())
                }
                BinOp::NotEq => {
                    let z = l.sub(&r).div_scalar(ctx.temperature);
                    Var::exp(&z.square().neg()).neg().add_scalar(1.0)
                }
                _ => unreachable!("guarded by is_comparison"),
            })
        }
        // Any remaining predicate shape (IN, LIKE, CASE…) participates with
        // hard 0/1 weights as long as it stays off the tape.
        other if !on_tape(other, input.batch, ctx) => {
            let mask = eval_expr(other, input.detached(), ctx)?.into_mask(n)?;
            Ok(Var::constant(mask.to_f32_mask()))
        }
        other => Err(ExecError::NotDifferentiable(format!(
            "predicate '{other}' cannot be relaxed"
        ))),
    }
}

fn filter_diff(
    mut batch: DiffBatch,
    predicate: &CompiledExpr,
    ctx: &ExecContext,
) -> Result<DiffBatch, ExecError> {
    let n = batch.rows();
    if !on_tape(predicate, &batch, ctx) {
        // Hard filter; differentiable columns are gathered on-tape so
        // gradients still flow into surviving rows.
        let mask = eval_expr(predicate, &batch.detach(), ctx)?.into_mask(n)?;
        let kept: Vec<i64> = mask
            .data()
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as i64))
            .collect();
        let k = kept.len();
        let idx = Tensor::from_vec(kept, &[k]);
        let mut out = DiffBatch::new();
        for (name, col) in batch.columns() {
            let new_col = match col {
                ColumnData::Exact(e) => ColumnData::Exact(e.select_rows(&idx)),
                ColumnData::Diff(d) => ColumnData::Diff(DiffColumn {
                    var: d.var.select_rows(&idx),
                    class_values: d.class_values.clone(),
                }),
            };
            out.push(name.clone(), new_col);
        }
        out.weights = batch.weights.as_ref().map(|w| w.select_rows(&idx));
        return Ok(out);
    }

    // Soft filter: multiply the relaxed predicate into the row weights.
    let w = soft_predicate(predicate, &Operand::new(&batch), ctx)?;
    weigh(&mut batch, w);
    Ok(batch)
}

fn project_diff(
    batch: &DiffBatch,
    items: &[PhysProjectItem],
    ctx: &ExecContext,
) -> Result<DiffBatch, ExecError> {
    let mut out = DiffBatch::new();
    out.weights = batch.weights.clone();
    let (input, n) = (Operand::new(batch), batch.rows());
    for item in items {
        let name = item.name.clone();
        match eval_diff(&item.expr, &input, ctx)? {
            DiffVal::Var(v) => out.push(name, ColumnData::Diff(DiffColumn::plain(v))),
            DiffVal::Pe(p) => out.push(name, ColumnData::Diff(p)),
            DiffVal::Exact(e) => out.push(name, ColumnData::Exact(e)),
            DiffVal::Num(v) => out.push(
                name,
                ColumnData::Exact(EncodedTensor::F32(Tensor::full(&[n], v as f32))),
            ),
            DiffVal::Str(s) => out.push(
                name,
                ColumnData::Exact(EncodedTensor::from_strings(&vec![s; n])),
            ),
        }
    }
    Ok(out)
}

/// One-hot (constant) PE view of an exact key column, allowing exact keys
/// to participate in soft GROUP BY next to PE keys. Rows group by the
/// exact walker's rule ([`exact::key_codes`]), groups in code order, and
/// a float key's value is read back from its rows (its code is not its
/// value; every row of a group holds the same bits).
fn exact_key_as_pe(col: &EncodedTensor) -> Result<(Var, F32Tensor), ExecError> {
    if let EncodedTensor::Pe(p) = col {
        // Exact PE column (already detached): one-hot by argmax.
        return Ok((
            Var::constant(tdp_tensor::index::one_hot(&p.decode_ids(), p.num_classes())),
            p.class_values().clone(),
        ));
    }
    let codes = exact::key_codes(col, exact::Rows::All)?.into_owned();
    let u = tdp_tensor::sort::unique_i64(&Tensor::from_vec(codes, &[col.rows()]));
    let onehot = tdp_tensor::index::one_hot(&u.inverse, u.values.numel());
    let values = match col {
        EncodedTensor::F32(t) => {
            let mut keys = vec![0.0; u.values.numel()];
            for (&g, &v) in u.inverse.data().iter().zip(t.data()) {
                keys[g as usize] = v;
            }
            Tensor::from_vec(keys, &[u.values.numel()])
        }
        _ => u.values.to_f32(),
    };
    Ok((Var::constant(onehot), values))
}

fn aggregate_diff(
    batch: &DiffBatch,
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    ctx: &ExecContext,
) -> Result<DiffBatch, ExecError> {
    let (input, n) = (Operand::new(batch), batch.rows());
    let weights = batch.weights.clone();

    // Global aggregation (no keys): scalar soft aggregates.
    if keys.is_empty() {
        let mut out = DiffBatch::new();
        let w = weights.unwrap_or_else(|| Var::constant(F32Tensor::ones(&[n])));
        for agg in aggregates {
            let var = match (agg.func, &agg.arg) {
                (AggFunc::Count, _) => soft::soft_global_count(&w).reshape(&[1]),
                (AggFunc::Sum, Some(e)) => {
                    let vals = eval_diff(e, &input, ctx)?.into_var(n)?;
                    vals.mul(&w).sum().reshape(&[1])
                }
                (AggFunc::Avg, Some(e)) => {
                    let vals = eval_diff(e, &input, ctx)?.into_var(n)?;
                    let num = vals.mul(&w).sum();
                    let den = w.sum().add_scalar(1e-9);
                    num.div(&den).reshape(&[1])
                }
                (f, _) => {
                    return Err(ExecError::NotDifferentiable(format!(
                        "soft {} is not implemented",
                        f.name()
                    )))
                }
            };
            out.push(agg.output.clone(), ColumnData::Diff(DiffColumn::plain(var)));
        }
        return Ok(out);
    }

    // Keyed aggregation: every key must be (or become) probability-encoded.
    let mut membership: Vec<Var> = Vec::with_capacity(keys.len());
    let mut class_values: Vec<F32Tensor> = Vec::with_capacity(keys.len());
    let mut key_names: Vec<String> = Vec::with_capacity(keys.len());
    for k in keys {
        let CompiledExpr::Column(col_ref) = &k.expr else {
            return Err(ExecError::NotDifferentiable(format!(
                "soft GROUP BY key '{}' must be a plain column",
                k.name
            )));
        };
        key_names.push(k.name.clone());
        match col_ref.resolve(&batch.cols)? {
            ColumnData::Diff(d) if d.is_pe() => {
                membership.push(d.var.clone());
                class_values.push(d.class_values.clone().expect("pe column"));
            }
            ColumnData::Diff(_) => {
                return Err(ExecError::NotDifferentiable(format!(
                    "cannot group by continuous differentiable column '{}' \
                     (probability-encode it first)",
                    col_ref.name()
                )))
            }
            ColumnData::Exact(e) => {
                let (onehot, values) = exact_key_as_pe(e)?;
                membership.push(onehot);
                class_values.push(values);
            }
        }
    }

    let member_refs: Vec<&Var> = membership.iter().collect();
    let joint = soft::joint_membership(&member_refs);
    let cv_refs: Vec<&F32Tensor> = class_values.iter().collect();
    let key_cols = soft::expand_group_keys(&cv_refs);

    let mut out = DiffBatch::new();
    for (name, col) in key_names.into_iter().zip(key_cols) {
        out.push(name, ColumnData::Exact(EncodedTensor::F32(col)));
    }
    for agg in aggregates {
        let var = match (agg.func, &agg.arg) {
            (AggFunc::Count, _) => soft::soft_groupby_count(&joint, weights.as_ref()),
            (AggFunc::Sum, Some(e)) => {
                let vals = eval_diff(e, &input, ctx)?.into_var(n)?;
                soft::soft_groupby_sum(&joint, &vals, weights.as_ref())
            }
            (AggFunc::Avg, Some(e)) => {
                let vals = eval_diff(e, &input, ctx)?.into_var(n)?;
                soft::soft_groupby_avg(&joint, &vals, weights.as_ref())
            }
            (f, _) => {
                return Err(ExecError::NotDifferentiable(format!(
                    "soft {} is not implemented",
                    f.name()
                )))
            }
        };
        out.push(agg.output.clone(), ColumnData::Diff(DiffColumn::plain(var)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::lower;
    use crate::udf::{ScalarUdf, TableFunction, UdfRegistry};
    use std::sync::Arc;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::{Catalog, TableBuilder};

    /// TVF producing a PE column from a logits parameter — a stand-in for
    /// a classifier over the input rows.
    struct PeEmitter {
        logits: Var,
    }

    impl TableFunction for PeEmitter {
        fn name(&self) -> &str {
            "classify"
        }
        fn invoke_table(&self, input: &Batch, ctx: &ExecContext) -> Result<Batch, ExecError> {
            // Exact path: decode PE by argmax.
            Ok(self.invoke_table_diff(&input.clone().into(), ctx)?.detach())
        }
        fn invoke_table_diff(
            &self,
            _input: &DiffBatch,
            _ctx: &ExecContext,
        ) -> Result<DiffBatch, ExecError> {
            let mut out = DiffBatch::new();
            let probs = self.logits.softmax(1);
            out.push(
                "Label",
                ColumnData::Diff(DiffColumn::pe(probs, Tensor::arange(2))),
            );
            Ok(out)
        }
        fn parameters(&self) -> Vec<Var> {
            vec![self.logits.clone()]
        }
    }

    fn setup(logits: Var) -> (Catalog, UdfRegistry) {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", vec![1.0, 2.0, 3.0, 4.0])
                .build("rows"),
        );
        let mut udfs = UdfRegistry::new();
        udfs.register_table_fn(Arc::new(PeEmitter { logits }));
        (catalog, udfs)
    }

    fn fresh_logits() -> Var {
        Var::param(Tensor::from_vec(
            vec![2.0f32, -2.0, 2.0, -2.0, -2.0, 2.0, 2.0, -2.0],
            &[4, 2],
        ))
    }

    fn compile(catalog: &Catalog, udfs: &UdfRegistry, sql: &str) -> PhysicalPlan {
        let q = parse(sql).unwrap();
        let plan = optimizer::optimize(
            build_plan(
                &q,
                &PlannerContext {
                    is_tvf: &|n| udfs.is_table_fn(n),
                },
            )
            .unwrap(),
        );
        lower(&plan, catalog, udfs).unwrap()
    }

    fn run_diff(catalog: &Catalog, udfs: &UdfRegistry, sql: &str) -> DiffBatch {
        let ctx = ExecContext::new(catalog, udfs);
        let plan = compile(catalog, udfs, sql);
        execute_diff(&plan, &ctx).unwrap()
    }

    fn counts_of(batch: &DiffBatch) -> (Var, Vec<f32>) {
        match batch.column("COUNT(*)").unwrap() {
            ColumnData::Diff(d) => (d.var.clone(), d.var.value().to_vec()),
            other => panic!("expected diff counts, got {other:?}"),
        }
    }

    #[test]
    fn trainable_groupby_count_produces_soft_counts() {
        let logits = fresh_logits();
        let (catalog, udfs) = setup(logits.clone());
        let b = run_diff(
            &catalog,
            &udfs,
            "SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label",
        );
        let (_, counts) = counts_of(&b);
        // logits favour classes [0, 0, 1, 0] -> about 3 vs 1, softly.
        assert_eq!(counts.len(), 2);
        assert!((counts[0] + counts[1] - 4.0).abs() < 1e-4);
        assert!(counts[0] > 2.5 && counts[1] < 1.5);
        // Key column materialised as class values.
        assert_eq!(
            b.column("Label").unwrap().to_exact().decode_f32().to_vec(),
            vec![0.0, 1.0]
        );
    }

    #[test]
    fn gradients_reach_tvf_parameters_through_group_by() {
        let logits = fresh_logits();
        let (catalog, udfs) = setup(logits.clone());
        let b = run_diff(
            &catalog,
            &udfs,
            "SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label",
        );
        let (counts_var, _) = counts_of(&b);
        let target = Tensor::from_vec(vec![2.0f32, 2.0], &[2]);
        let loss = counts_var.mse_loss(&target);
        loss.backward();
        let g = logits
            .grad()
            .expect("gradient must reach the TVF parameter");
        assert!(g.norm() > 0.0);
    }

    #[test]
    fn training_counts_to_target_converges() {
        // End-to-end trainable query: adjust logits so that the grouped
        // counts match a target — the minimal LLP setting. The four rows
        // move alike, so a step maps the logit gap d to
        // d − 4·lr·σ(1 − σ)(4σ − 3); at lr = 2 its fixed point σ = 3/4
        // attracts (slope −1/8). At lr = 5 (slope −1.81) it repels and the
        // 200th loss is chaotic: a 1e-9 change of the start, or of one
        // `exp` bit, moves it by orders of magnitude.
        let logits = Var::param(Tensor::from_vec(vec![0.0f32; 8], &[4, 2]));
        let (catalog, udfs) = setup(logits.clone());
        let target = Tensor::from_vec(vec![1.0f32, 3.0], &[2]);
        let mut loss_v = f32::MAX;
        for _ in 0..200 {
            logits.zero_grad();
            let b = run_diff(
                &catalog,
                &udfs,
                "SELECT Label, COUNT(*) FROM classify(rows) GROUP BY Label",
            );
            let (counts_var, _) = counts_of(&b);
            let loss = counts_var.mse_loss(&target);
            loss.backward();
            loss_v = loss.value().item();
            let g = logits.grad().unwrap();
            logits.set_value(logits.value().sub(&g.mul_scalar(2.0)));
        }
        assert!(
            loss_v < 1e-3,
            "count-supervised training must converge: {loss_v}"
        );
    }

    /// Scalar UDF emitting a differentiable score column from a parameter.
    struct ScoreUdf {
        scores: Var,
    }

    impl ScalarUdf for ScoreUdf {
        fn name(&self) -> &str {
            "score"
        }
        fn invoke(
            &self,
            _args: &[ArgValue],
            _ctx: &ExecContext,
        ) -> Result<EncodedTensor, ExecError> {
            Ok(EncodedTensor::F32(self.scores.value()))
        }
        fn invoke_diff(
            &self,
            _args: &[ArgValue],
            _ctx: &ExecContext,
        ) -> Result<DiffColumn, ExecError> {
            Ok(DiffColumn::plain(self.scores.clone()))
        }
        fn parameters(&self) -> Vec<Var> {
            vec![self.scores.clone()]
        }
    }

    #[test]
    fn trainable_order_by_limit_relaxes_to_soft_topk_weights() {
        let scores = Var::param(Tensor::from_vec(vec![0.3f32, 0.9, 0.1, 0.5], &[4]));
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", vec![10.0, 20.0, 30.0, 40.0])
                .build("rows"),
        );
        let mut udfs = UdfRegistry::new();
        udfs.register_scalar(Arc::new(ScoreUdf {
            scores: scores.clone(),
        }));

        let mut ctx = ExecContext::new(&catalog, &udfs);
        ctx.temperature = 0.01;
        let plan = compile(
            &catalog,
            &udfs,
            "SELECT x, score(x) AS s FROM rows ORDER BY s DESC LIMIT 2",
        );
        let out = execute_diff(&plan, &ctx).unwrap();

        // All rows survive; soft membership lives in the batch weights.
        assert_eq!(out.rows(), 4);
        let w = out.weights.as_ref().expect("soft top-k weights");
        let wv = w.value();
        assert!(wv.at(1) > 0.99 && wv.at(3) > 0.99, "{:?}", wv.to_vec());
        assert!(wv.at(0) < 0.01 && wv.at(2) < 0.01, "{:?}", wv.to_vec());

        // Gradients flow from a weighted loss back into the score parameter.
        let vals = Var::constant(Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], &[4]));
        w.mul(&vals).sum().backward();
        assert!(scores.grad().expect("grad on scores").norm() > 0.0);
    }

    #[test]
    fn trainable_order_by_limit_without_diff_key_cuts_exactly() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", vec![3.0, 1.0, 2.0])
                .build("rows"),
        );
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        // Unoptimised Limit(Sort(…)) shape: exercised via the raw lowering.
        let q = parse("SELECT x FROM rows ORDER BY x DESC LIMIT 2").unwrap();
        let plan = build_plan(&q, &PlannerContext { is_tvf: &|_| false }).unwrap();
        let phys = lower(&plan, &catalog, &udfs).unwrap();
        let out = execute_diff(&phys, &ctx).unwrap();
        assert_eq!(out.rows(), 2);
        assert!(out.weights.is_none());
        assert_eq!(
            out.column("x").unwrap().to_exact().decode_f32().to_vec(),
            vec![3.0, 2.0]
        );
    }

    #[test]
    fn global_count_uses_weights() {
        struct Score;
        impl ScalarUdf for Score {
            fn name(&self) -> &str {
                "score"
            }
            fn invoke(
                &self,
                args: &[ArgValue],
                _: &ExecContext,
            ) -> Result<EncodedTensor, ExecError> {
                Ok(args[0].as_column()?.clone())
            }
            fn invoke_diff(
                &self,
                args: &[ArgValue],
                _: &ExecContext,
            ) -> Result<DiffColumn, ExecError> {
                match &args[0] {
                    ArgValue::Column(c) => Ok(DiffColumn::plain(Var::constant(c.decode_f32()))),
                    ArgValue::DiffColumn(d) => Ok(d.clone()),
                    other => Err(ExecError::TypeMismatch(format!("{other:?}"))),
                }
            }
            fn parameters(&self) -> Vec<Var> {
                // Pretend-trainable so the diff path is taken.
                vec![Var::param(Tensor::from_vec(vec![0.0f32], &[1]))]
            }
        }
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", vec![0.0, 0.5, 1.0, 1.5])
                .build("t"),
        );
        let mut udfs = UdfRegistry::new();
        udfs.register_scalar(Arc::new(Score));
        let b = run_diff(
            &catalog,
            &udfs,
            "SELECT COUNT(*) FROM t WHERE score(x) > 0.75",
        );
        let (_, counts) = counts_of(&b);
        // Soft count: rows 1.0, 1.5 nearly in; 0.5 partially; 0.0 nearly out.
        assert_eq!(counts.len(), 1);
        assert!(
            counts[0] > 1.5 && counts[0] < 2.5,
            "soft count = {}",
            counts[0]
        );
    }

    #[test]
    fn exact_predicate_filters_hard_in_diff_mode() {
        let logits = fresh_logits();
        let (catalog, udfs) = setup(logits);
        // x > 2.5 keeps rows 2 and 3 (exact filter before the aggregate).
        let b = run_diff(&catalog, &udfs, "SELECT COUNT(*) FROM rows WHERE x > 2.5");
        let (_, counts) = counts_of(&b);
        assert!((counts[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn group_by_exact_key_in_diff_mode() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_i64("k", vec![7, 8, 7, 7])
                .col_f32("v", vec![1.0, 2.0, 3.0, 4.0])
                .build("t"),
        );
        let udfs = UdfRegistry::new();
        let b = run_diff(
            &catalog,
            &udfs,
            "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
        );
        assert_eq!(
            b.column("k").unwrap().to_exact().decode_f32().to_vec(),
            vec![7.0, 8.0]
        );
        let (_, counts) = counts_of(&b);
        assert_eq!(counts, vec![3.0, 1.0]);
        match b.column("SUM(v)").unwrap() {
            ColumnData::Diff(d) => assert_eq!(d.var.value().to_vec(), vec![8.0, 2.0]),
            other => panic!("expected diff sum, got {other:?}"),
        }
    }

    #[test]
    fn sort_and_limit_pass_through_when_exact() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("v", vec![3.0, 1.0, 2.0])
                .build("t"),
        );
        let udfs = UdfRegistry::new();
        let b = run_diff(&catalog, &udfs, "SELECT v FROM t ORDER BY v DESC LIMIT 2");
        assert_eq!(
            b.column("v").unwrap().to_exact().decode_f32().to_vec(),
            vec![3.0, 2.0]
        );
    }

    #[test]
    fn not_differentiable_reported_for_diff_sort() {
        let logits = fresh_logits();
        let (catalog, udfs) = setup(logits);
        let ctx = ExecContext::new(&catalog, &udfs);
        let q = parse("SELECT Label FROM classify(rows) ORDER BY Label").unwrap();
        let plan = build_plan(
            &q,
            &PlannerContext {
                is_tvf: &|n| udfs.is_table_fn(n),
            },
        )
        .unwrap();
        let phys = lower(&plan, &catalog, &udfs).unwrap();
        assert!(matches!(
            execute_diff(&phys, &ctx),
            Err(ExecError::NotDifferentiable(_))
        ));
    }
}
