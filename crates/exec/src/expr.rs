//! Exact evaluation of compiled expression programs over batches.
//!
//! Expressions arrive here already lowered by [`crate::physical::lower`]:
//! columns are slot indices, built-ins are resolved kernels, scalar
//! subqueries are nested physical plans. Evaluation dispatches straight to
//! tensor kernels — comparisons become mask kernels, arithmetic becomes
//! elementwise kernels, string predicates become integer predicates on
//! dictionary codes (the encoding-aware strategy selection of paper §2).
//!
//! This interpreter is a permanent execution tier *and* the oracle, not
//! a `#[cfg(test)]` candidate. It is what runs every expression the
//! chain kernels ([`crate::kernel`]) do not: UDF calls, scalar
//! subqueries, vector built-ins, arithmetic on payload (rank > 1)
//! columns, chains pinned to the session thread, every run-time
//! bail-out, and everything outside a fused chain — sort, window and
//! join key expressions, TVF arguments, and aggregate arguments and group
//! keys wherever the aggregate does not fold in place. The kernels replicate its dispatch exactly and are
//! compared against it, byte for byte, at every point of the
//! configuration lattice; keeping the oracle on the production path is
//! what keeps it honest.

use tdp_encoding::EncodedTensor;
use tdp_index::Metric;
use tdp_sql::ast::{AggFunc, BinOp, UnOp};
use tdp_tensor::{BoolTensor, F32Tensor, Tensor};

use crate::batch::Batch;
use crate::error::ExecError;
use crate::physical::{CompiledExpr, PhysicalPlan, ScalarFn};
use crate::udf::{ArgValue, ExecContext};

/// Result of evaluating an expression: a column or a scalar.
#[derive(Clone, Debug)]
pub enum Value {
    Column(EncodedTensor),
    Num(f64),
    Str(String),
    Bool(bool),
}

impl Value {
    /// View as a row mask for `n` rows: one boolean per row (a
    /// comparison of payload columns yields one per element, which
    /// selects no rows).
    pub fn into_mask(self, n: usize) -> Result<BoolTensor, ExecError> {
        match self {
            Value::Column(EncodedTensor::Bool(b)) if b.shape() == [n] => Ok(b),
            Value::Column(EncodedTensor::Bool(b)) => Err(ExecError::TypeMismatch(format!(
                "predicate must yield one boolean per row, got shape {:?} for {n} row(s)",
                b.shape()
            ))),
            Value::Bool(b) => Ok(Tensor::full(&[n], b)),
            other => Err(ExecError::TypeMismatch(format!(
                "predicate did not evaluate to a boolean mask: {other:?}"
            ))),
        }
    }

    /// View as an f32 column for `n` rows (scalars broadcast).
    pub fn into_f32_column(self, n: usize) -> Result<F32Tensor, ExecError> {
        match self {
            Value::Column(c) => Ok(c.decode_f32()),
            Value::Num(v) => Ok(Tensor::full(&[n], v as f32)),
            Value::Bool(b) => Ok(Tensor::full(&[n], if b { 1.0 } else { 0.0 })),
            Value::Str(s) => Err(ExecError::TypeMismatch(format!(
                "string '{s}' used in numeric context"
            ))),
        }
    }

    /// View as the f32 argument of aggregate `func` over `n` rows. The
    /// numeric aggregates refuse a string column — its dictionary codes
    /// are not values; COUNT and COUNT(DISTINCT) only tell rows apart.
    pub(crate) fn into_agg_f32(self, func: AggFunc, n: usize) -> Result<F32Tensor, ExecError> {
        let counts = matches!(func, AggFunc::Count | AggFunc::CountDistinct);
        if !counts && matches!(self, Value::Column(EncodedTensor::Dict { .. })) {
            let what = format!("{} over a string column", func.name());
            return Err(ExecError::TypeMismatch(what));
        }
        self.into_f32_column(n)
    }

    /// Convert into a UDF argument.
    pub fn into_arg(self) -> ArgValue {
        match self {
            Value::Column(c) => ArgValue::Column(c),
            Value::Num(n) => ArgValue::Number(n),
            Value::Str(s) => ArgValue::Str(s),
            Value::Bool(b) => ArgValue::Bool(b),
        }
    }
}

/// Elementwise operands must agree in shape. Scalars have already been
/// broadcast to one value per row, so what differs here is a payload
/// column (`[n, …]`) meeting a per-row one (`[n]`), or two payloads.
fn same_shape(what: impl std::fmt::Display, l: &F32Tensor, r: &F32Tensor) -> Result<(), ExecError> {
    if l.shape() == r.shape() {
        return Ok(());
    }
    Err(ExecError::TypeMismatch(format!(
        "{what}: operands of shape {:?} and {:?} do not combine elementwise",
        l.shape(),
        r.shape()
    )))
}

/// Evaluate a compiled expression against `batch`.
pub fn eval_expr(
    expr: &CompiledExpr,
    batch: &Batch,
    ctx: &ExecContext,
) -> Result<Value, ExecError> {
    match expr {
        CompiledExpr::Column(c) => Ok(Value::Column(c.resolve(batch)?.to_exact())),
        CompiledExpr::Num(n) => Ok(Value::Num(*n)),
        CompiledExpr::Str(s) => Ok(Value::Str(s.clone())),
        CompiledExpr::Bool(b) => Ok(Value::Bool(*b)),
        CompiledExpr::Unary {
            op: UnOp::Neg,
            expr,
        } => match eval_expr(expr, batch, ctx)? {
            Value::Num(n) => Ok(Value::Num(-n)),
            Value::Column(c) => Ok(Value::Column(EncodedTensor::F32(c.decode_f32().neg()))),
            other => Err(ExecError::TypeMismatch(format!("cannot negate {other:?}"))),
        },
        CompiledExpr::Unary {
            op: UnOp::Not,
            expr,
        } => match eval_expr(expr, batch, ctx)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Column(EncodedTensor::Bool(m)) => {
                Ok(Value::Column(EncodedTensor::Bool(m.not())))
            }
            other => Err(ExecError::TypeMismatch(format!("cannot NOT {other:?}"))),
        },
        CompiledExpr::Binary { op, left, right } => {
            let l = eval_expr(left, batch, ctx)?;
            let r = eval_expr(right, batch, ctx)?;
            eval_binary(*op, l, r, batch.rows())
        }
        CompiledExpr::Builtin { name, func, args } if ctx.udfs.udf_call(expr).is_none() => {
            // Vector similarity takes a whole [n, d] column plus a
            // row-constant query — its arguments do not follow the
            // scalar broadcast rules, so it dispatches before them.
            if let ScalarFn::Vector(metric) = func {
                return eval_vector_builtin(name, *metric, args, batch, ctx);
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, batch, ctx)?);
            }
            eval_builtin(name, *func, &vals, batch.rows())
        }
        CompiledExpr::Udf { name, args } | CompiledExpr::Builtin { name, args, .. } => {
            invoke_udf(name, args, batch, ctx)
        }
        CompiledExpr::Case {
            operand,
            branches,
            else_expr,
        } => eval_case(
            operand.as_deref(),
            branches,
            else_expr.as_deref(),
            batch,
            ctx,
        ),
        CompiledExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, batch, ctx)?;
            let mut mask: Option<BoolTensor> = None;
            let n = batch.rows();
            for item in list {
                let rhs = eval_expr(item, batch, ctx)?;
                let eq = eval_binary(BinOp::Eq, v.clone(), rhs, n)?.into_mask(n)?;
                mask = Some(match mask {
                    Some(m) => m.or(&eq),
                    None => eq,
                });
            }
            let m =
                mask.ok_or_else(|| ExecError::TypeMismatch("IN requires a non-empty list".into()))?;
            Ok(Value::Column(EncodedTensor::Bool(if *negated {
                m.not()
            } else {
                m
            })))
        }
        CompiledExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let mask = match eval_expr(expr, batch, ctx)? {
                Value::Column(EncodedTensor::Dict { codes, dict }) => {
                    // Evaluate the pattern once per dictionary entry, then
                    // broadcast the verdicts through the codes — the
                    // encoding-aware strategy of paper §2.
                    let verdicts: Vec<bool> = dict
                        .values()
                        .iter()
                        .map(|v| like_match(pattern, v))
                        .collect();
                    codes.map(|c| verdicts[c as usize])
                }
                Value::Str(s) => Tensor::full(&[batch.rows()], like_match(pattern, &s)),
                other => {
                    return Err(ExecError::TypeMismatch(format!(
                        "LIKE applies to string columns, got {other:?}"
                    )))
                }
            };
            Ok(Value::Column(EncodedTensor::Bool(if *negated {
                mask.not()
            } else {
                mask
            })))
        }
        CompiledExpr::ScalarSubquery(plan) => eval_scalar_subquery(plan, ctx),
        CompiledExpr::Param { idx } => eval_param(*idx, batch.rows(), ctx),
    }
}

/// Resolve a parameter slot against the context binding. `rows` is the
/// row count of the batch the value will combine with: tensor bindings do
/// not broadcast, so their leading dimension must match.
fn eval_param(idx: usize, rows: usize, ctx: &ExecContext) -> Result<Value, ExecError> {
    use crate::params::ParamValue;
    match ctx.params.get(idx) {
        Some(ParamValue::Number(n)) => Ok(Value::Num(*n)),
        Some(ParamValue::String(s)) => Ok(Value::Str(s.clone())),
        Some(ParamValue::Bool(b)) => Ok(Value::Bool(*b)),
        Some(ParamValue::Tensor(t)) => {
            if t.shape().first() != Some(&rows) {
                return Err(ExecError::Param(format!(
                    "parameter ${} is a tensor of shape {:?}, but the batch has {rows} row(s) \
                     (tensor bindings do not broadcast)",
                    idx + 1,
                    t.shape()
                )));
            }
            Ok(Value::Column(EncodedTensor::F32(t.clone())))
        }
        Some(ParamValue::Null) => Err(ExecError::Param(format!(
            "parameter ${} is bound to NULL, which this NULL-free dialect cannot evaluate",
            idx + 1
        ))),
        None => Err(ExecError::Param(format!(
            "parameter ${} is not bound ({} value(s) provided)",
            idx + 1,
            ctx.params.len()
        ))),
    }
}

/// Resolve a LIMIT count against the context binding: structural
/// constants pass through; `LIMIT ?` slots must be bound to a
/// non-negative integer number, anything else is a clean
/// [`ExecError::Param`].
pub(crate) fn resolve_limit(
    n: &tdp_sql::ast::LimitCount,
    ctx: &ExecContext,
) -> Result<usize, ExecError> {
    use crate::params::ParamValue;
    use tdp_sql::ast::LimitCount;
    match n {
        LimitCount::Const(v) => Ok(*v as usize),
        LimitCount::Param { idx } => match ctx.params.get(*idx) {
            Some(ParamValue::Number(v)) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as usize),
            Some(ParamValue::Number(v)) => Err(ExecError::Param(format!(
                "LIMIT parameter ${} must be a non-negative integer, got {v}",
                idx + 1
            ))),
            Some(other) => Err(ExecError::Param(format!(
                "LIMIT parameter ${} must be an integer number, got {other:?}",
                idx + 1
            ))),
            None => Err(ExecError::Param(format!(
                "LIMIT parameter ${} is not bound ({} value(s) provided)",
                idx + 1,
                ctx.params.len()
            ))),
        },
    }
}

/// Evaluate arguments and invoke a session scalar UDF by name.
fn invoke_udf(
    name: &str,
    args: &[CompiledExpr],
    batch: &Batch,
    ctx: &ExecContext,
) -> Result<Value, ExecError> {
    let udf = ctx.udfs.scalar(name)?;
    let mut arg_values = Vec::with_capacity(args.len());
    for a in args {
        arg_values.push(eval_expr(a, batch, ctx)?.into_arg());
    }
    Ok(Value::Column(udf.invoke(&arg_values, ctx)?))
}

/// Execute a lowered scalar-subquery plan; it must return exactly one
/// row and one column. The nested plan re-enters the one exact walker
/// ([`crate::pipeline::execute`]) with the caller's context — same
/// thread count, morsel size, kernel switch, zone maps and memory ledger
/// — so a subquery obeys the same thread-invariance contract and yields
/// the same bytes as that query run at top level. The *enclosing* chain
/// still stays on the session thread (`scalar-subquery` fallback):
/// workers carry no catalog to run a nested plan against.
fn eval_scalar_subquery(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Value, ExecError> {
    let batch = crate::pipeline::execute(plan, ctx)?;
    if batch.rows() != 1 || batch.columns().len() != 1 {
        return Err(ExecError::TypeMismatch(format!(
            "scalar subquery must return 1 row x 1 column, got {} x {}",
            batch.rows(),
            batch.columns().len()
        )));
    }
    let col = batch.columns()[0].1.to_exact();
    Ok(match col {
        EncodedTensor::Dict { codes, dict } => Value::Str(dict.decode_one(codes.at(0)).to_owned()),
        EncodedTensor::Bool(b) => Value::Bool(b.at(0)),
        other => Value::Num(other.decode_f32().at(0) as f64),
    })
}

/// SQL `LIKE` with `%` (any run) and `_` (any one char); case-sensitive.
/// Shared with the compiled chain kernels ([`crate::kernel`]) so both
/// paths match byte-for-byte.
pub(crate) fn like_match(pattern: &str, s: &str) -> bool {
    fn rec(p: &[char], s: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|i| rec(rest, &s[i..])),
            Some(('_', rest)) => !s.is_empty() && rec(rest, &s[1..]),
            Some((c, rest)) => s.first() == Some(c) && rec(rest, &s[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let sc: Vec<char> = s.chars().collect();
    rec(&p, &sc)
}

/// Evaluate `CASE` by blending branch outputs under masks. Branches are
/// tested in order; earlier matches win. The NULL-free dialect defaults a
/// missing ELSE to 0.
fn eval_case(
    operand: Option<&CompiledExpr>,
    branches: &[(CompiledExpr, CompiledExpr)],
    else_expr: Option<&CompiledExpr>,
    batch: &Batch,
    ctx: &ExecContext,
) -> Result<Value, ExecError> {
    let n = batch.rows();
    let operand_val = operand.map(|o| eval_expr(o, batch, ctx)).transpose()?;

    // Start from the ELSE value and overwrite backwards so the *first*
    // matching WHEN wins.
    let mut out = match else_expr {
        Some(e) => eval_expr(e, batch, ctx)?.into_f32_column(n)?,
        None => F32Tensor::zeros(&[n]),
    };
    for (when, then) in branches.iter().rev() {
        let cond = match &operand_val {
            Some(op_v) => {
                let rhs = eval_expr(when, batch, ctx)?;
                eval_binary(BinOp::Eq, op_v.clone(), rhs, n)?.into_mask(n)?
            }
            None => eval_expr(when, batch, ctx)?.into_mask(n)?,
        };
        let then_col = eval_expr(then, batch, ctx)?.into_f32_column(n)?;
        let cf = cond.to_f32_mask();
        same_shape("CASE", &cf, &then_col)?;
        same_shape("CASE", &cf, &out)?;
        out = cf.mul(&then_col).add(&cf.neg().add_scalar(1.0).mul(&out));
    }
    Ok(Value::Column(EncodedTensor::F32(out)))
}

/// Dispatch a pre-resolved built-in math kernel. Scalar-only arguments
/// stay scalar so literals keep folding through plans.
fn eval_builtin(name: &str, func: ScalarFn, args: &[Value], n: usize) -> Result<Value, ExecError> {
    if args.len() != func.arity() {
        return Err(ExecError::TypeMismatch(format!(
            "{name} expects {} argument(s), got {}",
            func.arity(),
            args.len()
        )));
    }
    let all_scalar = args.iter().all(|a| matches!(a, Value::Num(_)));
    match func {
        ScalarFn::Unary(f) => {
            if all_scalar {
                let Value::Num(x) = args[0] else {
                    unreachable!()
                };
                return Ok(Value::Num(f(x as f32) as f64));
            }
            let c = args[0].clone().into_f32_column(n)?;
            Ok(Value::Column(EncodedTensor::F32(c.map(f))))
        }
        ScalarFn::Binary(f) => {
            if all_scalar {
                let (Value::Num(a), Value::Num(b)) = (&args[0], &args[1]) else {
                    unreachable!()
                };
                return Ok(Value::Num(f(*a as f32, *b as f32) as f64));
            }
            let a = args[0].clone().into_f32_column(n)?;
            let b = args[1].clone().into_f32_column(n)?;
            same_shape(name, &a, &b)?;
            let out: Vec<f32> = a
                .data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| f(x, y))
                .collect();
            Ok(Value::Column(EncodedTensor::F32(Tensor::from_vec(
                out,
                a.shape(),
            ))))
        }
        // Intercepted in the Builtin arm of `eval_expr`.
        ScalarFn::Vector(_) => Err(ExecError::TypeMismatch(format!(
            "{name} is a vector builtin and cannot broadcast as a scalar kernel"
        ))),
    }
}

/// Evaluate a vector-similarity builtin: score every row of an `[n, d]`
/// embedding column against one query vector. The score kernel is
/// [`Metric::scores`] — the same kernel the vector indexes run, and a row's
/// score depends only on the row and the query, never on the batch or
/// morsel it sits in — so a sequential scan computing this expression
/// agrees bit-for-bit with the flat index path. `distance` returns positive squared L2 distance
/// (ascending-better); `inner_product`/`cosine_sim` return
/// descending-better scores.
fn eval_vector_builtin(
    name: &str,
    metric: Metric,
    args: &[CompiledExpr],
    batch: &Batch,
    ctx: &ExecContext,
) -> Result<Value, ExecError> {
    let [col_expr, query_expr] = args else {
        return Err(ExecError::TypeMismatch(format!(
            "{name} expects 2 arguments, got {}",
            args.len()
        )));
    };
    let data = match eval_expr(col_expr, batch, ctx)? {
        Value::Column(c) => c.decode_f32(),
        other => {
            return Err(ExecError::TypeMismatch(format!(
                "argument 1 of {name} must be an embedding column, got {other:?}"
            )))
        }
    };
    if data.ndim() != 2 {
        return Err(ExecError::TypeMismatch(format!(
            "argument 1 of {name} must be an [n, d] embedding column, got shape {:?}",
            data.shape()
        )));
    }
    let query = vector_query(name, query_expr, ctx)?;
    if query.numel() != data.shape()[1] {
        return Err(ExecError::TypeMismatch(format!(
            "{name} query has {} element(s), but the embedding column is {}-dimensional",
            query.numel(),
            data.shape()[1]
        )));
    }
    let scores = metric.scores(&data, &query);
    // `Metric::L2.scores` is *negated* squared distance (higher-better,
    // matching the indexes). The SQL function reports the positive
    // distance; negation is exact, so ORDER BY distance ASC selects the
    // same rows as top-k by score.
    let out = if matches!(metric, Metric::L2) {
        scores.neg()
    } else {
        scores
    };
    Ok(Value::Column(EncodedTensor::F32(out)))
}

/// Resolve the query-vector argument of a vector builtin to a 1-d f32
/// tensor. A `$n` tensor binding is taken whole — deliberately bypassing
/// [`eval_param`]'s leading-dimension check, since a query vector's
/// length is the embedding dimension, not the batch's row count. Numbers
/// become single-element vectors (1-d embeddings).
pub(crate) fn vector_query(
    name: &str,
    expr: &CompiledExpr,
    ctx: &ExecContext,
) -> Result<F32Tensor, ExecError> {
    use crate::params::ParamValue;
    match expr {
        CompiledExpr::Param { idx } => match ctx.params.get(*idx) {
            Some(ParamValue::Tensor(t)) => match t.ndim() {
                1 => Ok(t.clone()),
                2 if t.shape()[0] == 1 => Ok(Tensor::from_vec(t.data().to_vec(), &[t.shape()[1]])),
                _ => Err(ExecError::Param(format!(
                    "parameter ${} must be a [d] query vector for {name}, got shape {:?}",
                    idx + 1,
                    t.shape()
                ))),
            },
            Some(ParamValue::Number(v)) => Ok(Tensor::from_vec(vec![*v as f32], &[1])),
            Some(other) => Err(ExecError::Param(format!(
                "parameter ${} must be a tensor query vector for {name}, got {other:?}",
                idx + 1
            ))),
            None => Err(ExecError::Param(format!(
                "parameter ${} is not bound ({} value(s) provided)",
                idx + 1,
                ctx.params.len()
            ))),
        },
        CompiledExpr::Num(v) => Ok(Tensor::from_vec(vec![*v as f32], &[1])),
        other => Err(ExecError::TypeMismatch(format!(
            "argument 2 of {name} must be a parameter or literal query vector, got {other}"
        ))),
    }
}

pub(crate) fn eval_binary(op: BinOp, l: Value, r: Value, rows: usize) -> Result<Value, ExecError> {
    use BinOp::*;

    // Logical connectives.
    if op.is_logical() {
        let lm = l.into_mask(rows)?;
        let rm = r.into_mask(rows)?;
        let out = match op {
            And => lm.and(&rm),
            Or => lm.or(&rm),
            _ => unreachable!(),
        };
        return Ok(Value::Column(EncodedTensor::Bool(out)));
    }

    // String comparisons against dictionary columns run on codes.
    match (&l, &r) {
        (Value::Column(EncodedTensor::Dict { codes, dict }), Value::Str(s)) => {
            return Ok(Value::Column(EncodedTensor::Bool(compare_dict(
                op, codes, dict, s, false,
            )?)))
        }
        (Value::Str(s), Value::Column(EncodedTensor::Dict { codes, dict })) => {
            return Ok(Value::Column(EncodedTensor::Bool(compare_dict(
                op, codes, dict, s, true,
            )?)))
        }
        _ => {}
    }

    // Scalar-scalar fast paths.
    if let (Value::Num(a), Value::Num(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            Add => Value::Num(a + b),
            Sub => Value::Num(a - b),
            Mul => Value::Num(a * b),
            Div => Value::Num(a / b),
            Mod => Value::Num(a % b),
            Eq => Value::Bool(a == b),
            NotEq => Value::Bool(a != b),
            Lt => Value::Bool(a < b),
            LtEq => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            GtEq => Value::Bool(a >= b),
            And | Or => unreachable!(),
        });
    }
    if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
        return Ok(match op {
            Eq => Value::Bool(a == b),
            NotEq => Value::Bool(a != b),
            Lt => Value::Bool(a < b),
            LtEq => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            GtEq => Value::Bool(a >= b),
            other => {
                return Err(ExecError::TypeMismatch(format!(
                    "operator {other:?} on strings"
                )))
            }
        });
    }

    // Numeric column paths.
    let lc = l.into_f32_column(rows)?;
    let rc = r.into_f32_column(rows)?;
    same_shape(format_args!("operator {op:?}"), &lc, &rc)?;
    Ok(match op {
        Add => Value::Column(EncodedTensor::F32(lc.add(&rc))),
        Sub => Value::Column(EncodedTensor::F32(lc.sub(&rc))),
        Mul => Value::Column(EncodedTensor::F32(lc.mul(&rc))),
        Div => Value::Column(EncodedTensor::F32(lc.div(&rc))),
        Mod => {
            let out: Vec<f32> = lc
                .data()
                .iter()
                .zip(rc.data())
                .map(|(a, b)| a % b)
                .collect();
            Value::Column(EncodedTensor::F32(Tensor::from_vec(out, lc.shape())))
        }
        Eq => Value::Column(EncodedTensor::Bool(lc.eq_t(&rc))),
        NotEq => Value::Column(EncodedTensor::Bool(lc.ne_t(&rc))),
        Lt => Value::Column(EncodedTensor::Bool(lc.lt_t(&rc))),
        LtEq => Value::Column(EncodedTensor::Bool(lc.le_t(&rc))),
        Gt => Value::Column(EncodedTensor::Bool(lc.gt_t(&rc))),
        GtEq => Value::Column(EncodedTensor::Bool(lc.ge_t(&rc))),
        And | Or => unreachable!(),
    })
}

/// Compare a dictionary column against a string literal using codes only.
/// `flipped` means the literal was on the left (`'x' < col`).
fn compare_dict(
    op: BinOp,
    codes: &Tensor<i64>,
    dict: &tdp_encoding::StringDict,
    s: &str,
    flipped: bool,
) -> Result<BoolTensor, ExecError> {
    let op = if flipped {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    } else {
        op
    };
    Ok(match op {
        BinOp::Eq => match dict.code_of(s) {
            Some(c) => codes.eq_scalar(c),
            None => Tensor::full(&[codes.numel()], false),
        },
        BinOp::NotEq => match dict.code_of(s) {
            Some(c) => codes.eq_scalar(c).not(),
            None => Tensor::full(&[codes.numel()], true),
        },
        // Order-preserving property: value < s  <=>  code < lower_bound(s).
        BinOp::Lt => codes.lt_scalar(dict.lower_bound(s)),
        BinOp::GtEq => codes.ge_scalar(dict.lower_bound(s)),
        BinOp::LtEq => {
            // value <= s <=> value < next(s); with codes: code < lb(s) or code == code_of(s)
            match dict.code_of(s) {
                Some(c) => codes.le_scalar(c),
                None => codes.lt_scalar(dict.lower_bound(s)),
            }
        }
        BinOp::Gt => match dict.code_of(s) {
            Some(c) => codes.gt_scalar(c),
            None => codes.ge_scalar(dict.lower_bound(s)),
        },
        other => {
            return Err(ExecError::TypeMismatch(format!(
                "operator {other:?} between dictionary column and string"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{lower_expr, Schema};
    use crate::udf::UdfRegistry;
    use tdp_sql::parse;
    use tdp_storage::{Catalog, TableBuilder};

    fn test_batch() -> Batch {
        Batch::from_table(
            &TableBuilder::new()
                .col_f32("x", vec![1.0, 2.0, 3.0, 4.0])
                .col_f32("y", vec![10.0, 20.0, 30.0, 40.0])
                .col_str("tag", &["a", "b", "a", "c"])
                .col_i64("ts", vec![5, 6, 5, 7])
                .build("t"),
        )
    }

    fn compile(sql_expr: &str, batch: &Batch, udfs: &UdfRegistry) -> CompiledExpr {
        let q = parse(&format!("SELECT {sql_expr} FROM t")).unwrap();
        let schema = Schema::new(batch.names().iter().map(|n| n.to_string()).collect());
        let catalog = Catalog::new();
        lower_expr(&q.select[0].expr, Some(&schema), &catalog, udfs).unwrap()
    }

    fn eval(sql_expr: &str, batch: &Batch) -> Value {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let compiled = compile(sql_expr, batch, &udfs);
        let ctx = ExecContext::new(&catalog, &udfs);
        eval_expr(&compiled, batch, &ctx).unwrap()
    }

    fn as_f32(v: Value) -> Vec<f32> {
        v.into_f32_column(4).unwrap().to_vec()
    }

    fn as_mask(v: Value) -> Vec<bool> {
        v.into_mask(4).unwrap().to_vec()
    }

    #[test]
    fn arithmetic_on_columns() {
        let b = test_batch();
        assert_eq!(as_f32(eval("x + y", &b)), vec![11.0, 22.0, 33.0, 44.0]);
        assert_eq!(as_f32(eval("y / x", &b)), vec![10.0, 10.0, 10.0, 10.0]);
        assert_eq!(as_f32(eval("x * 2 + 1", &b)), vec![3.0, 5.0, 7.0, 9.0]);
        assert_eq!(as_f32(eval("-x", &b)), vec![-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn comparisons_and_logic() {
        let b = test_batch();
        assert_eq!(as_mask(eval("x > 2", &b)), vec![false, false, true, true]);
        assert_eq!(
            as_mask(eval("x > 1 AND y < 40", &b)),
            vec![false, true, true, false]
        );
        assert_eq!(
            as_mask(eval("NOT (x >= 2)", &b)),
            vec![true, false, false, false]
        );
        assert_eq!(
            as_mask(eval("x = 1 OR ts = 7", &b)),
            vec![true, false, false, true]
        );
        assert_eq!(
            as_mask(eval("x BETWEEN 2 AND 3", &b)),
            vec![false, true, true, false]
        );
    }

    #[test]
    fn dictionary_string_predicates() {
        let b = test_batch();
        assert_eq!(
            as_mask(eval("tag = 'a'", &b)),
            vec![true, false, true, false]
        );
        assert_eq!(
            as_mask(eval("tag <> 'a'", &b)),
            vec![false, true, false, true]
        );
        assert_eq!(
            as_mask(eval("tag >= 'b'", &b)),
            vec![false, true, false, true]
        );
        // Absent literal: equality is empty, ranges still work.
        assert_eq!(as_mask(eval("tag = 'zz'", &b)), vec![false; 4]);
        assert_eq!(
            as_mask(eval("tag < 'b'", &b)),
            vec![true, false, true, false]
        );
        // Flipped operand order.
        assert_eq!(
            as_mask(eval("'b' <= tag", &b)),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn scalar_folding_at_runtime() {
        let b = test_batch();
        match eval("1 + 2 * 3", &b) {
            Value::Num(n) => assert_eq!(n, 7.0),
            other => panic!("expected scalar, got {other:?}"),
        }
        match eval("'a' = 'a'", &b) {
            Value::Bool(b) => assert!(b),
            other => panic!("expected bool, got {other:?}"),
        }
    }

    #[test]
    fn unknown_column_is_reported_at_compile_time() {
        let b = test_batch();
        let q = parse("SELECT missing FROM t").unwrap();
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let schema = Schema::new(b.names().iter().map(|n| n.to_string()).collect());
        assert!(matches!(
            lower_expr(&q.select[0].expr, Some(&schema), &catalog, &udfs),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn name_fallback_resolves_through_batch_index() {
        // Downstream of a TVF the schema is unknown: refs lower to names
        // and resolve per batch via the O(1) map.
        let b = test_batch();
        let q = parse("SELECT x + 1 FROM t").unwrap();
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let compiled = lower_expr(&q.select[0].expr, None, &catalog, &udfs).unwrap();
        let ctx = ExecContext::new(&catalog, &udfs);
        assert_eq!(
            eval_expr(&compiled, &b, &ctx)
                .unwrap()
                .into_f32_column(4)
                .unwrap()
                .to_vec(),
            vec![2.0, 3.0, 4.0, 5.0]
        );
    }

    #[test]
    fn udf_registered_after_compile_shadows_builtin() {
        use std::sync::Arc;
        struct NegAbs;
        impl crate::udf::ScalarUdf for NegAbs {
            fn name(&self) -> &str {
                "abs"
            }
            fn invoke(
                &self,
                args: &[ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, ExecError> {
                Ok(EncodedTensor::F32(
                    args[0].as_column()?.decode_f32().map(|v| -v.abs()),
                ))
            }
        }
        let b = test_batch();
        // Compiled while 'abs' resolves to the built-in…
        let compiled = compile("ABS(x)", &b, &UdfRegistry::new());
        assert!(matches!(compiled, CompiledExpr::Builtin { .. }));
        // …but a UDF of the same name registered afterwards wins at
        // evaluation, matching pre-compilation resolution order.
        let catalog = Catalog::new();
        let mut udfs = UdfRegistry::new();
        udfs.register_scalar(Arc::new(NegAbs));
        let ctx = ExecContext::new(&catalog, &udfs);
        assert_eq!(
            eval_expr(&compiled, &b, &ctx)
                .unwrap()
                .into_f32_column(4)
                .unwrap()
                .to_vec(),
            vec![-1.0, -2.0, -3.0, -4.0]
        );
    }

    #[test]
    fn scalar_udf_call_in_expression() {
        use std::sync::Arc;
        struct PlusTen;
        impl crate::udf::ScalarUdf for PlusTen {
            fn name(&self) -> &str {
                "plus_ten"
            }
            fn invoke(
                &self,
                args: &[ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, ExecError> {
                Ok(EncodedTensor::F32(
                    args[0].as_column()?.decode_f32().add_scalar(10.0),
                ))
            }
        }
        let b = test_batch();
        let catalog = Catalog::new();
        let mut udfs = UdfRegistry::new();
        udfs.register_scalar(Arc::new(PlusTen));
        let compiled = compile("plus_ten(x) > 12", &b, &udfs);
        let ctx = ExecContext::new(&catalog, &udfs);
        let v = eval_expr(&compiled, &b, &ctx).unwrap();
        assert_eq!(
            v.into_mask(4).unwrap().to_vec(),
            vec![false, false, true, true]
        );
    }
}
