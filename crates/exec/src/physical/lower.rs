//! Lowering: a logical plan to the slot-resolved physical plan, names
//! resolved to slots and function calls bound, then the declared
//! argument types of every call checked against a binding.

use std::sync::Arc;

use tdp_index::Metric;
use tdp_sql::ast::{AggFunc, BinOp, Expr, Literal, OrderItem, SelectItem, WindowFunc};
use tdp_sql::plan::{AggregateExpr, LogicalPlan, WindowExpr};
use tdp_storage::Catalog;
use tdp_tensor::math;

use super::{
    ColumnRef, CompiledExpr, JoinOn, PhysAggregate, PhysKey, PhysOrderKey, PhysProjectItem,
    PhysWindow, PhysWindowFunc, PhysicalPlan, ScalarFn, ScanAccess, Schema,
};
use crate::error::ExecError;
use crate::params::ParamValue;
use crate::udf::{ArgType, UdfRegistry};

/// Lower a logical plan into a slot-resolved physical plan. This is the
/// single compile step shared by the exact and differentiable executors:
/// schema propagation, column→slot resolution, function resolution and
/// scalar-subquery lowering all happen here, once. Plan decisions are
/// the passes (`passes::run`) it then runs.
///
/// A statement's result columns are addressed by name, case-insensitively
/// (as batches resolve names), so its output schema — after `*`
/// expansion; nested queries may repeat names they never return — must
/// not name a column twice: a typed error here, not a panic in
/// `Table::new` when the result is built.
pub fn lower(
    plan: &LogicalPlan,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<PhysicalPlan, ExecError> {
    let (physical, schema) = lower_node(plan, catalog, udfs)?;
    let names = schema.as_ref().map_or(&[][..], Schema::names);
    for (i, name) in names.iter().enumerate() {
        if names[..i].iter().any(|n| n.eq_ignore_ascii_case(name)) {
            return Err(ExecError::Unsupported(format!(
                "'{name}' appears twice in the select list; alias one"
            )));
        }
    }
    Ok(crate::passes::run(physical, catalog, udfs))
}

fn lower_node(
    plan: &LogicalPlan,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<(PhysicalPlan, Option<Schema>), ExecError> {
    match plan {
        LogicalPlan::Scan { table } => match catalog.get(table) {
            Some(t) => {
                let names: Vec<String> = t.columns().iter().map(|c| c.name.clone()).collect();
                Ok((
                    PhysicalPlan::Scan {
                        table: table.clone(),
                        schema: Some(names.clone()),
                        access: ScanAccess::Full,
                    },
                    Some(Schema::new(names)),
                ))
            }
            // Unknown at compile time: keep the run-time error (and the
            // register-later workflow) by emitting a schema-less scan.
            None => Ok((
                PhysicalPlan::Scan {
                    table: table.clone(),
                    schema: None,
                    access: ScanAccess::Full,
                },
                None,
            )),
        },
        LogicalPlan::TvfScan { name, input } => {
            let spec = udfs
                .table_fn_spec(name)
                .ok_or_else(|| ExecError::UnknownFunction(name.clone()))?;
            if !spec.from_position {
                return Err(ExecError::Signature(format!(
                    "table function '{name}' cannot be used in FROM position; it is declared \
                     for projection position (SELECT {name}(...) FROM ...)"
                )));
            }
            let (inp, in_schema) = lower_node(input, catalog, udfs)?;
            // A declared output relation lets downstream refs slot-resolve;
            // dynamic TVFs keep the by-name fallback.
            let out_schema = spec.output_schema(in_schema.as_ref().map(|s| s.names()));
            Ok((
                PhysicalPlan::TvfScan {
                    name: name.clone(),
                    schema: out_schema.clone(),
                    input: Box::new(inp),
                },
                out_schema.map(Schema::new),
            ))
        }
        LogicalPlan::TvfProject { name, args, input } => {
            let spec = udfs
                .table_fn_spec(name)
                .ok_or_else(|| ExecError::UnknownFunction(name.clone()))?;
            if !spec.projection_position {
                return Err(ExecError::Signature(format!(
                    "table function '{name}' cannot be used in projection position; it is \
                     declared for FROM position (FROM {name}(...))"
                )));
            }
            if let Some(declared) = &spec.args {
                if args.len() != declared.len() {
                    return Err(ExecError::Signature(format!(
                        "table function '{name}' expects {} argument(s), got {}",
                        declared.len(),
                        args.len()
                    )));
                }
            }
            let (inp, in_schema) = lower_node(input, catalog, udfs)?;
            let args = args
                .iter()
                .map(|a| lower_expr(a, in_schema.as_ref(), catalog, udfs))
                .collect::<Result<_, _>>()?;
            let out_schema = spec.output_schema(in_schema.as_ref().map(|s| s.names()));
            Ok((
                PhysicalPlan::TvfProject {
                    name: name.clone(),
                    args,
                    schema: out_schema.clone(),
                    input: Box::new(inp),
                },
                out_schema.map(Schema::new),
            ))
        }
        LogicalPlan::Filter { predicate, input } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            let predicate = lower_expr(predicate, schema.as_ref(), catalog, udfs)?;
            Ok((
                PhysicalPlan::Filter {
                    predicate,
                    input: Box::new(inp),
                },
                schema,
            ))
        }
        LogicalPlan::Project { items, input } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            let compiled = lower_select_items(items, schema.as_ref(), catalog, udfs)?;
            let out_schema = Schema::new(compiled.iter().map(|i| i.name.clone()).collect());
            Ok((
                PhysicalPlan::Project {
                    items: compiled,
                    input: Box::new(inp),
                },
                Some(out_schema),
            ))
        }
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            input,
        } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            let keys = group_by
                .iter()
                .map(|g| {
                    Ok(PhysKey {
                        name: g.display_name(),
                        expr: lower_expr(g, schema.as_ref(), catalog, udfs)?,
                    })
                })
                .collect::<Result<Vec<_>, ExecError>>()?;
            let aggs = aggregates
                .iter()
                .map(|a| lower_aggregate(a, schema.as_ref(), catalog, udfs))
                .collect::<Result<Vec<_>, _>>()?;
            let mut names: Vec<String> = keys.iter().map(|k| k.name.clone()).collect();
            names.extend(aggs.iter().map(|a| a.output.clone()));
            Ok((
                PhysicalPlan::Aggregate {
                    keys,
                    aggregates: aggs,
                    input: Box::new(inp),
                },
                Some(Schema::new(names)),
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let (l, ls) = lower_node(left, catalog, udfs)?;
            let (r, rs) = lower_node(right, catalog, udfs)?;
            let on_expr = on
                .as_ref()
                .ok_or_else(|| ExecError::Unsupported("joins require an ON clause".into()))?;
            let mut pairs = Vec::new();
            collect_equi_pairs(on_expr, &mut pairs)?;
            let on = match (&ls, &rs) {
                (Some(ls), Some(rs)) => {
                    let mut resolved = Vec::with_capacity(pairs.len());
                    for (a, b) in &pairs {
                        let pick = |ln: &str, rn: &str| -> Option<(ColumnRef, ColumnRef)> {
                            let lslot = ls.slot(ln)?;
                            let rslot = rs.slot(rn)?;
                            Some((
                                ColumnRef::Slot {
                                    slot: lslot,
                                    name: ln.to_owned(),
                                },
                                ColumnRef::Slot {
                                    slot: rslot,
                                    name: rn.to_owned(),
                                },
                            ))
                        };
                        let pair = pick(a, b).or_else(|| pick(b, a)).ok_or_else(|| {
                            ExecError::UnknownColumn(format!("{a} / {b} in join"))
                        })?;
                        resolved.push(pair);
                    }
                    JoinOn::Resolved(resolved)
                }
                _ => JoinOn::Deferred(pairs),
            };
            let schema = match (ls, rs) {
                (Some(ls), Some(rs)) => {
                    // Replicate the executor's collision renaming: right
                    // columns that clash with anything already emitted get
                    // a `right_` prefix.
                    let mut names: Vec<String> = ls.names().to_vec();
                    for n in rs.names() {
                        let clash = names.iter().any(|m| m.eq_ignore_ascii_case(n));
                        names.push(if clash {
                            format!("right_{n}")
                        } else {
                            n.clone()
                        });
                    }
                    Some(Schema::new(names))
                }
                _ => None,
            };
            Ok((
                PhysicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind: *kind,
                    on,
                },
                schema,
            ))
        }
        LogicalPlan::Sort { keys, input } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            let keys = lower_order_keys(keys, schema.as_ref(), catalog, udfs)?;
            Ok((
                PhysicalPlan::Sort {
                    keys,
                    input: Box::new(inp),
                },
                schema,
            ))
        }
        LogicalPlan::Limit { n, input } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            Ok((
                PhysicalPlan::Limit {
                    n: *n,
                    input: Box::new(inp),
                },
                schema,
            ))
        }
        LogicalPlan::TopK { keys, n, input } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            let keys = lower_order_keys(keys, schema.as_ref(), catalog, udfs)?;
            Ok((
                PhysicalPlan::TopK {
                    keys,
                    n: *n,
                    input: Box::new(inp),
                },
                schema,
            ))
        }
        LogicalPlan::Window { windows, input } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            let compiled = windows
                .iter()
                .map(|w| lower_window(w, schema.as_ref(), catalog, udfs))
                .collect::<Result<Vec<_>, _>>()?;
            let schema = schema.map(|s| {
                let mut names = s.names().to_vec();
                names.extend(compiled.iter().map(|w| w.output.clone()));
                Schema::new(names)
            });
            Ok((
                PhysicalPlan::Window {
                    windows: compiled,
                    input: Box::new(inp),
                },
                schema,
            ))
        }
        LogicalPlan::Distinct { input } => {
            let (inp, schema) = lower_node(input, catalog, udfs)?;
            Ok((
                PhysicalPlan::Distinct {
                    input: Box::new(inp),
                },
                schema,
            ))
        }
        LogicalPlan::UnionAll { left, right } => {
            let (l, ls) = lower_node(left, catalog, udfs)?;
            let (r, rs) = lower_node(right, catalog, udfs)?;
            if let (Some(ls), Some(rs)) = (&ls, &rs) {
                if ls.len() != rs.len() {
                    return Err(ExecError::TypeMismatch(format!(
                        "UNION ALL arity mismatch: {} vs {} columns",
                        ls.len(),
                        rs.len()
                    )));
                }
            }
            // SQL semantics: column names come from the left side.
            Ok((
                PhysicalPlan::UnionAll {
                    left: Box::new(l),
                    right: Box::new(r),
                },
                ls,
            ))
        }
    }
}

fn lower_select_items(
    items: &[SelectItem],
    schema: Option<&Schema>,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<Vec<PhysProjectItem>, ExecError> {
    items
        .iter()
        .map(|item| {
            Ok(PhysProjectItem {
                name: item.output_name(),
                expr: lower_expr(&item.expr, schema, catalog, udfs)?,
            })
        })
        .collect()
}

fn lower_aggregate(
    agg: &AggregateExpr,
    schema: Option<&Schema>,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<PhysAggregate, ExecError> {
    if agg.arg.is_none() && agg.func != AggFunc::Count {
        return Err(ExecError::Unsupported(format!(
            "{}(*) is not meaningful",
            agg.func.name()
        )));
    }
    Ok(PhysAggregate {
        func: agg.func,
        arg: agg
            .arg
            .as_ref()
            .map(|e| lower_expr(e, schema, catalog, udfs))
            .transpose()?,
        output: agg.output.clone(),
    })
}

fn lower_order_keys(
    keys: &[OrderItem],
    schema: Option<&Schema>,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<Vec<PhysOrderKey>, ExecError> {
    keys.iter()
        .map(|k| {
            Ok(PhysOrderKey {
                expr: lower_expr(&k.expr, schema, catalog, udfs)?,
                desc: k.desc,
            })
        })
        .collect()
}

fn lower_window(
    w: &WindowExpr,
    schema: Option<&Schema>,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<PhysWindow, ExecError> {
    let func = match &w.func {
        WindowFunc::RowNumber => PhysWindowFunc::RowNumber,
        WindowFunc::Rank => PhysWindowFunc::Rank,
        WindowFunc::DenseRank => PhysWindowFunc::DenseRank,
        WindowFunc::Agg { func, arg } => PhysWindowFunc::Agg {
            func: *func,
            arg: arg
                .as_ref()
                .map(|e| lower_expr(e, schema, catalog, udfs))
                .transpose()?,
        },
    };
    Ok(PhysWindow {
        func,
        partition_by: w
            .partition_by
            .iter()
            .map(|e| lower_expr(e, schema, catalog, udfs))
            .collect::<Result<_, _>>()?,
        order_by: lower_order_keys(&w.order_by, schema, catalog, udfs)?,
        output: w.output.clone(),
    })
}

/// Extract the `(a, b)` column pairs of a conjunction of equality
/// predicates — the only join condition shape the executor supports.
fn collect_equi_pairs(on: &Expr, out: &mut Vec<(String, String)>) -> Result<(), ExecError> {
    match on {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_equi_pairs(left, out)?;
            collect_equi_pairs(right, out)
        }
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let (Expr::Column { name: a, .. }, Expr::Column { name: b, .. }) = (&**left, &**right)
            else {
                return Err(ExecError::Unsupported(
                    "join conditions must be column equalities".into(),
                ));
            };
            out.push((a.clone(), b.clone()));
            Ok(())
        }
        other => Err(ExecError::Unsupported(format!(
            "join condition '{other}' (only conjunctions of equalities)"
        ))),
    }
}

/// Lower one scalar expression against a (possibly unknown) input schema.
/// Public so tests and tools can compile stand-alone expressions.
pub fn lower_expr(
    expr: &Expr,
    schema: Option<&Schema>,
    catalog: &Catalog,
    udfs: &UdfRegistry,
) -> Result<CompiledExpr, ExecError> {
    match expr {
        Expr::Column { name, .. } => match schema {
            Some(s) => match s.slot(name) {
                Some(slot) => Ok(CompiledExpr::Column(ColumnRef::Slot {
                    slot,
                    name: name.clone(),
                })),
                None => Err(ExecError::UnknownColumn(name.clone())),
            },
            None => Ok(CompiledExpr::Column(ColumnRef::Name(name.clone()))),
        },
        Expr::Literal(Literal::Number(n)) => Ok(CompiledExpr::Num(*n)),
        Expr::Literal(Literal::String(s)) => Ok(CompiledExpr::Str(s.clone())),
        Expr::Literal(Literal::Bool(b)) => Ok(CompiledExpr::Bool(*b)),
        Expr::Literal(Literal::Null) => Err(ExecError::Unsupported(
            "NULL literals are not supported".into(),
        )),
        Expr::Param { idx } => Ok(CompiledExpr::Param { idx: *idx }),
        Expr::Binary { op, left, right } => Ok(CompiledExpr::Binary {
            op: *op,
            left: Box::new(lower_expr(left, schema, catalog, udfs)?),
            right: Box::new(lower_expr(right, schema, catalog, udfs)?),
        }),
        Expr::Unary { op, expr } => Ok(CompiledExpr::Unary {
            op: *op,
            expr: Box::new(lower_expr(expr, schema, catalog, udfs)?),
        }),
        Expr::Func { name, args } => {
            let args: Vec<CompiledExpr> = args
                .iter()
                .map(|a| lower_expr(a, schema, catalog, udfs))
                .collect::<Result<_, _>>()?;
            // Session UDFs take precedence over built-ins, matching the
            // pre-compilation resolution order.
            if udfs.is_scalar(name) {
                // Declared arity is checked here, at compile time; argument
                // *types* are checked by `check_args` once the
                // (auto-extracted) parameter values are known.
                if let Some(declared) = udfs.scalar_spec(name).and_then(|s| s.args.as_ref()) {
                    if args.len() != declared.len() {
                        return Err(ExecError::Signature(format!(
                            "function '{name}' expects {} argument(s), got {}",
                            declared.len(),
                            args.len()
                        )));
                    }
                }
                return Ok(CompiledExpr::Udf {
                    name: name.clone(),
                    args,
                });
            }
            if let Some(func) = builtin_scalar(name) {
                if args.len() != func.arity() {
                    return Err(ExecError::TypeMismatch(format!(
                        "{name} expects {} argument(s), got {}",
                        func.arity(),
                        args.len()
                    )));
                }
                return Ok(CompiledExpr::Builtin {
                    name: name.clone(),
                    func,
                    args,
                });
            }
            Err(ExecError::UnknownFunction(name.clone()))
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Ok(CompiledExpr::Case {
            operand: operand
                .as_deref()
                .map(|o| lower_expr(o, schema, catalog, udfs).map(Box::new))
                .transpose()?,
            branches: branches
                .iter()
                .map(|(w, t)| {
                    Ok((
                        lower_expr(w, schema, catalog, udfs)?,
                        lower_expr(t, schema, catalog, udfs)?,
                    ))
                })
                .collect::<Result<_, ExecError>>()?,
            else_expr: else_expr
                .as_deref()
                .map(|e| lower_expr(e, schema, catalog, udfs).map(Box::new))
                .transpose()?,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            if list.is_empty() {
                return Err(ExecError::TypeMismatch(
                    "IN requires a non-empty list".into(),
                ));
            }
            Ok(CompiledExpr::InList {
                expr: Box::new(lower_expr(expr, schema, catalog, udfs)?),
                list: list
                    .iter()
                    .map(|i| lower_expr(i, schema, catalog, udfs))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(CompiledExpr::Like {
            expr: Box::new(lower_expr(expr, schema, catalog, udfs)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        Expr::ScalarSubquery(q) => {
            let plan = tdp_sql::plan::build_plan(
                q,
                &tdp_sql::plan::PlannerContext {
                    is_tvf: &|n| udfs.is_table_fn(n),
                },
            )
            .map_err(|e| ExecError::Unsupported(format!("scalar subquery: {e}")))?;
            let plan = tdp_sql::optimizer::optimize(plan);
            let (sub, _) = lower_node(&plan, catalog, udfs)?;
            let sub = crate::passes::run(sub, catalog, udfs);
            Ok(CompiledExpr::ScalarSubquery(Arc::new(sub)))
        }
        Expr::Aggregate { .. } => Err(ExecError::Unsupported(
            "aggregate outside of an Aggregate plan node".into(),
        )),
        Expr::Window { .. } => Err(ExecError::Unsupported(
            "window function outside of a Window plan node".into(),
        )),
        Expr::Star => Err(ExecError::Unsupported("'*' outside of COUNT(*)".into())),
    }
}

// ----------------------------------------------------------------------
// Prepare-time argument-type validation
// ----------------------------------------------------------------------

/// What a compiled expression is statically known to evaluate to, for
/// checking against a declared [`ArgType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticKind {
    Column,
    Number,
    Str,
    Bool,
    /// Not statically determinable (composite expression, unbound slot).
    Unknown,
}

impl StaticKind {
    fn describe(self) -> &'static str {
        match self {
            StaticKind::Column => "column",
            StaticKind::Number => "number",
            StaticKind::Str => "string",
            StaticKind::Bool => "boolean",
            StaticKind::Unknown => "unknown",
        }
    }
}

/// One argument of a declared-signature UDF/TVF call, recorded by
/// [`declared_args`] in plan order.
#[derive(Debug)]
pub struct DeclaredArg {
    function: String,
    /// 0-based argument position (rendered 1-based in errors).
    position: usize,
    declared: ArgType,
    source: ArgSource,
}

/// Where a declared argument's kind comes from.
#[derive(Debug)]
enum ArgSource {
    /// A parameter slot: its kind is the kind of the value it holds.
    Slot(usize),
    /// Any other expression: the plan alone fixes its kind. Carries the
    /// rendered expression for error messages.
    Fixed(StaticKind, String),
}

/// Record every argument of every declared-signature call in a lowered
/// plan, in plan order (each node, then its scalar subqueries — which
/// share the statement's parameter space — then its children).
/// Arity was already enforced where each call was lowered.
pub fn declared_args(plan: &PhysicalPlan, udfs: &UdfRegistry) -> Vec<DeclaredArg> {
    let mut out = Vec::new();
    let mut record = |name: &str, declared: &[ArgType], args: &[CompiledExpr]| {
        for (position, (want, arg)) in declared.iter().zip(args).enumerate() {
            let source = match arg {
                CompiledExpr::Param { idx } => ArgSource::Slot(*idx),
                _ => ArgSource::Fixed(static_kind(arg), arg.to_string()),
            };
            out.push(DeclaredArg {
                function: name.to_owned(),
                position,
                declared: *want,
                source,
            });
        }
    };
    plan.for_each(&mut |p| {
        if let PhysicalPlan::TvfProject { name, args, .. } = p {
            if let Some(declared) = udfs.table_fn_spec(name).and_then(|s| s.args.as_deref()) {
                record(name, declared, args);
            }
        }
        p.for_each_expr_node(&mut |e| {
            if let CompiledExpr::Udf { name, args } = e {
                if let Some(declared) = udfs.scalar_spec(name).and_then(|s| s.args.as_deref()) {
                    record(name, declared, args);
                }
            }
        });
    });
    out
}

/// Check [`declared_args`] against the statement's parameter values, in
/// order, reporting the first mismatch as [`ExecError::Signature`]. Slot
/// `i` holds `values[i - unbound]`: the first `unbound` slots have no
/// value yet (placeholders at prepare time) and match any declared type.
/// Prepare passes its explicit-placeholder count and the auto-extracted
/// literals; bind passes 0 and the full binding.
pub fn check_args(
    args: &[DeclaredArg],
    unbound: usize,
    values: &[ParamValue],
) -> Result<(), ExecError> {
    for arg in args {
        let got = match &arg.source {
            ArgSource::Fixed(kind, _) => *kind,
            ArgSource::Slot(idx) => match idx.checked_sub(unbound).and_then(|i| values.get(i)) {
                Some(ParamValue::Number(_)) => StaticKind::Number,
                Some(ParamValue::String(_)) => StaticKind::Str,
                Some(ParamValue::Bool(_)) => StaticKind::Bool,
                Some(ParamValue::Tensor(_)) => StaticKind::Column,
                Some(ParamValue::Null) | None => StaticKind::Unknown,
            },
        };
        if !kind_compatible(arg.declared, got) {
            let text = match &arg.source {
                ArgSource::Slot(idx) => format!("${}", idx + 1),
                ArgSource::Fixed(_, text) => text.clone(),
            };
            return Err(ExecError::Signature(format!(
                "argument {} of '{}' must be a {}, got {} ({text})",
                arg.position + 1,
                arg.function,
                arg.declared.describe(),
                got.describe(),
            )));
        }
    }
    Ok(())
}

fn static_kind(e: &CompiledExpr) -> StaticKind {
    match e {
        CompiledExpr::Num(_) => StaticKind::Number,
        CompiledExpr::Str(_) => StaticKind::Str,
        CompiledExpr::Bool(_) => StaticKind::Bool,
        // Column refs and UDF calls always evaluate to columns; string
        // predicates evaluate to boolean mask columns.
        CompiledExpr::Column(_)
        | CompiledExpr::Udf { .. }
        | CompiledExpr::InList { .. }
        | CompiledExpr::Like { .. } => StaticKind::Column,
        // Arithmetic, CASE, built-ins and subqueries may produce scalars
        // or columns depending on their operands — unchecked. Slots are
        // resolved per binding by `check_args`.
        CompiledExpr::Param { .. }
        | CompiledExpr::Binary { .. }
        | CompiledExpr::Unary { .. }
        | CompiledExpr::Builtin { .. }
        | CompiledExpr::Case { .. }
        | CompiledExpr::ScalarSubquery(_) => StaticKind::Unknown,
    }
}

fn kind_compatible(declared: ArgType, actual: StaticKind) -> bool {
    matches!(
        (declared, actual),
        (ArgType::Any, _)
            | (_, StaticKind::Unknown)
            | (ArgType::Column, StaticKind::Column)
            | (ArgType::Number, StaticKind::Number)
            | (ArgType::Str, StaticKind::Str)
            | (ArgType::Bool, StaticKind::Bool)
    )
}

/// Built-in scalar math functions (resolved after session UDFs). `EXP`,
/// `LN`, `LOG10` and `POWER` bind the engine's kernels in
/// [`tdp_tensor::math`], so their bits do not depend on the host's libm;
/// the rest are IEEE operations (`SQRT`, `ABS`) or exact roundings.
pub(crate) fn builtin_scalar(name: &str) -> Option<ScalarFn> {
    let lower = name.to_ascii_lowercase();
    Some(match lower.as_str() {
        "abs" => ScalarFn::Unary(f32::abs),
        "round" => ScalarFn::Unary(f32::round),
        "floor" => ScalarFn::Unary(f32::floor),
        "ceil" | "ceiling" => ScalarFn::Unary(f32::ceil),
        "sqrt" => ScalarFn::Unary(f32::sqrt),
        "exp" => ScalarFn::Unary(math::exp),
        "ln" => ScalarFn::Unary(math::ln),
        "log10" => ScalarFn::Unary(math::log10),
        "sign" => ScalarFn::Unary(sql_sign),
        "power" | "pow" => ScalarFn::Binary(math::powf),
        // Vector similarity over an embedding column. `distance` is
        // ascending-better (squared L2); the other two descending-better.
        "distance" => ScalarFn::Vector(Metric::L2),
        "inner_product" => ScalarFn::Vector(Metric::InnerProduct),
        "cosine_sim" => ScalarFn::Vector(Metric::Cosine),
        _ => return None,
    })
}

/// SQL SIGN: −1, 0 or 1 (unlike `f32::signum`, zero maps to zero).
fn sql_sign(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}
