//! Logical query plans and the AST → plan builder.

use std::fmt;

use crate::ast::{
    AggFunc, Expr, JoinKind, LimitCount, OrderItem, Query, SelectItem, TableRef, WindowFunc,
};
use crate::SqlError;

/// One aggregate computed by an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateExpr {
    pub func: AggFunc,
    /// `None` encodes `COUNT(*)`.
    pub arg: Option<Expr>,
    /// Output column name.
    pub output: String,
}

/// One window computation of a [`LogicalPlan::Window`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExpr {
    pub func: WindowFunc,
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderItem>,
    /// Output column name.
    pub output: String,
}

/// Relational algebra tree. `tdp-exec` lowers each node onto tensor
/// kernels (and, in trainable mode, onto their differentiable twins).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base table scan.
    Scan { table: String },
    /// Table-valued function applied to an input relation
    /// (`FROM parse_mnist_grid(MNIST_Grid)`).
    TvfScan {
        name: String,
        input: Box<LogicalPlan>,
    },
    /// Table-valued function in projection position
    /// (`SELECT extract_table(images) FROM …`): evaluates the TVF on the
    /// argument columns of each input row and emits the TVF's output table.
    TvfProject {
        name: String,
        args: Vec<Expr>,
        input: Box<LogicalPlan>,
    },
    /// Row filter.
    Filter {
        predicate: Expr,
        input: Box<LogicalPlan>,
    },
    /// Column projection / expression evaluation.
    Project {
        items: Vec<SelectItem>,
        input: Box<LogicalPlan>,
    },
    /// Grouped (or global, when `group_by` is empty) aggregation.
    Aggregate {
        group_by: Vec<Expr>,
        aggregates: Vec<AggregateExpr>,
        input: Box<LogicalPlan>,
    },
    /// Binary join.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        on: Option<Expr>,
    },
    /// Sort by keys.
    Sort {
        keys: Vec<OrderItem>,
        input: Box<LogicalPlan>,
    },
    /// Row-count cap: a structural constant or a `LIMIT ?` parameter slot.
    Limit {
        n: LimitCount,
        input: Box<LogicalPlan>,
    },
    /// Window-function evaluation: appends one column per window
    /// expression, preserving row order and the input columns.
    Window {
        windows: Vec<WindowExpr>,
        input: Box<LogicalPlan>,
    },
    /// Fused `ORDER BY … LIMIT n`: partial top-k selection, produced by
    /// the optimizer from `Limit(Sort(…))`. Output order matches the full
    /// sort (ties broken by input position).
    TopK {
        keys: Vec<OrderItem>,
        n: LimitCount,
        input: Box<LogicalPlan>,
    },
    /// Row deduplication (`SELECT DISTINCT`).
    Distinct { input: Box<LogicalPlan> },
    /// Bag union of two relations with compatible schemas.
    UnionAll {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Children of this node (0, 1 or 2).
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::TvfScan { input, .. }
            | LogicalPlan::TvfProject { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::TopK { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::UnionAll { left, right } => {
                vec![left, right]
            }
        }
    }

    /// Indented EXPLAIN-style rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::Scan { table } => out.push_str(&format!("Scan: {table}\n")),
            LogicalPlan::TvfScan { name, .. } => out.push_str(&format!("TvfScan: {name}\n")),
            LogicalPlan::TvfProject { name, args, .. } => {
                let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                out.push_str(&format!("TvfProject: {name}({})\n", rendered.join(", ")));
            }
            LogicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!("Filter: {predicate}\n"))
            }
            LogicalPlan::Project { items, .. } => {
                let rendered: Vec<String> = items.iter().map(|i| i.to_string()).collect();
                out.push_str(&format!("Project: {}\n", rendered.join(", ")));
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let keys: Vec<String> = group_by.iter().map(|g| g.to_string()).collect();
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| match &a.arg {
                        Some(e) => format!("{}({e})", a.func.name()),
                        None => format!("{}(*)", a.func.name()),
                    })
                    .collect();
                out.push_str(&format!(
                    "Aggregate: keys=[{}] aggs=[{}]\n",
                    keys.join(", "),
                    aggs.join(", ")
                ));
            }
            LogicalPlan::Join { kind, on, .. } => {
                let on_txt = on.as_ref().map(|o| format!(" ON {o}")).unwrap_or_default();
                out.push_str(&format!("Join: {kind:?}{on_txt}\n"));
            }
            LogicalPlan::Sort { keys, .. } => {
                let rendered: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                out.push_str(&format!("Sort: {}\n", rendered.join(", ")));
            }
            LogicalPlan::Limit { n, .. } => out.push_str(&format!("Limit: {n}\n")),
            LogicalPlan::TopK { keys, n, .. } => {
                let rendered: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                out.push_str(&format!("TopK: {} LIMIT {n}\n", rendered.join(", ")));
            }
            LogicalPlan::Window { windows, .. } => {
                let rendered: Vec<String> = windows
                    .iter()
                    .map(|w| {
                        Expr::Window {
                            func: w.func.clone(),
                            partition_by: w.partition_by.clone(),
                            order_by: w.order_by.clone(),
                        }
                        .to_string()
                    })
                    .collect();
                out.push_str(&format!("Window: {}\n", rendered.join(", ")));
            }
            LogicalPlan::Distinct { .. } => out.push_str("Distinct\n"),
            LogicalPlan::UnionAll { .. } => out.push_str("UnionAll\n"),
        }
        for child in self.inputs() {
            child.explain_into(out, depth + 1);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// Name-resolution hooks the planner needs from the session: which function
/// names denote table-valued functions (they change plan shape).
pub struct PlannerContext<'a> {
    pub is_tvf: &'a dyn Fn(&str) -> bool,
}

impl Default for PlannerContext<'static> {
    fn default() -> Self {
        PlannerContext { is_tvf: &|_| false }
    }
}

/// Build a logical plan from a parsed query.
pub fn build_plan(query: &Query, ctx: &PlannerContext<'_>) -> Result<LogicalPlan, SqlError> {
    let from = query
        .from
        .as_ref()
        .ok_or_else(|| SqlError::new("queries must have a FROM clause"))?;
    let mut plan = plan_table_ref(from, ctx)?;

    if let Some(pred) = &query.where_clause {
        if pred.contains_aggregate() {
            return Err(SqlError::new(
                "aggregates are not allowed in WHERE (use HAVING)",
            ));
        }
        if pred.contains_window() {
            return Err(SqlError::new("window functions are not allowed in WHERE"));
        }
        plan = LogicalPlan::Filter {
            predicate: pred.clone(),
            input: Box::new(plan),
        };
    }

    let has_window = query.select.iter().any(|i| i.expr.contains_window());
    if has_window
        && (!query.group_by.is_empty() || query.select.iter().any(|i| i.expr.contains_aggregate()))
    {
        return Err(SqlError::new(
            "window functions cannot be mixed with GROUP BY aggregation in this dialect              (window over an aggregated subquery instead)",
        ));
    }

    let needs_agg = !query.group_by.is_empty()
        || query.select.iter().any(|i| i.expr.contains_aggregate())
        || query.having.as_ref().is_some_and(Expr::contains_aggregate);

    if needs_agg {
        plan = plan_aggregate(query, plan)?;
    } else {
        if query.having.is_some() {
            return Err(SqlError::new("HAVING requires aggregation"));
        }
        if has_window {
            let mut windows = Vec::new();
            let items: Vec<SelectItem> = query
                .select
                .iter()
                .map(|i| SelectItem {
                    expr: extract_windows(&i.expr, &mut windows),
                    alias: i.alias.clone(),
                })
                .collect();
            plan = LogicalPlan::Window {
                windows,
                input: Box::new(plan),
            };
            plan = plan_projection(&items, plan, ctx)?;
        } else {
            plan = plan_projection(&query.select, plan, ctx)?;
        }
    }

    if query.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }

    if !query.order_by.is_empty() {
        // Above an aggregation, a sort key equal to a GROUP BY expression
        // must reference the key's output column — its input columns are
        // gone post-grouping.
        let order_by: Vec<OrderItem> = query
            .order_by
            .iter()
            .map(|o| OrderItem {
                expr: reference_group_keys(&o.expr, &query.group_by),
                desc: o.desc,
            })
            .collect();
        // ORDER BY may reference columns the projection drops (SQL scoping:
        // sort keys resolve against the FROM scope as well as aliases). If
        // any key is missing from the projection's output, sort *below* it.
        plan = match plan {
            LogicalPlan::Project { items, input }
                if sort_needs_input_columns(&order_by, &items) =>
            {
                LogicalPlan::Project {
                    items,
                    input: Box::new(LogicalPlan::Sort {
                        keys: order_by,
                        input,
                    }),
                }
            }
            other => LogicalPlan::Sort {
                keys: order_by,
                input: Box::new(other),
            },
        };
    }
    if let Some(n) = query.limit {
        plan = LogicalPlan::Limit {
            n,
            input: Box::new(plan),
        };
    }
    if let Some(next) = &query.union_all {
        plan = LogicalPlan::UnionAll {
            left: Box::new(plan),
            right: Box::new(build_plan(next, ctx)?),
        };
    }
    Ok(plan)
}

fn plan_table_ref(t: &TableRef, ctx: &PlannerContext<'_>) -> Result<LogicalPlan, SqlError> {
    match t {
        TableRef::Named { name, .. } => Ok(LogicalPlan::Scan {
            table: name.clone(),
        }),
        TableRef::Tvf { name, input, .. } => Ok(LogicalPlan::TvfScan {
            name: name.clone(),
            input: Box::new(plan_table_ref(input, ctx)?),
        }),
        TableRef::Subquery { query, .. } => build_plan(query, ctx),
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => Ok(LogicalPlan::Join {
            left: Box::new(plan_table_ref(left, ctx)?),
            right: Box::new(plan_table_ref(right, ctx)?),
            kind: *kind,
            on: on.clone(),
        }),
    }
}

fn plan_projection(
    items: &[SelectItem],
    input: LogicalPlan,
    ctx: &PlannerContext<'_>,
) -> Result<LogicalPlan, SqlError> {
    // `SELECT *` — no projection node needed.
    if items.len() == 1 && matches!(items[0].expr, Expr::Star) {
        return Ok(input);
    }
    // Table-valued function in projection position expands to a full table.
    if items.len() == 1 {
        if let Expr::Func { name, args } = &items[0].expr {
            if (ctx.is_tvf)(name) {
                return Ok(LogicalPlan::TvfProject {
                    name: name.clone(),
                    args: args.clone(),
                    input: Box::new(input),
                });
            }
        }
    }
    for item in items {
        if matches!(item.expr, Expr::Star) {
            return Err(SqlError::new(
                "'*' may not be mixed with other select items in this dialect",
            ));
        }
    }
    Ok(LogicalPlan::Project {
        items: items.to_vec(),
        input: Box::new(input),
    })
}

fn plan_aggregate(query: &Query, input: LogicalPlan) -> Result<LogicalPlan, SqlError> {
    let mut aggregates: Vec<AggregateExpr> = Vec::new();

    // Rewrite select/having expressions, pulling aggregate calls out into
    // Aggregate-node outputs referenced by name.
    let mut rewritten_select = Vec::with_capacity(query.select.len());
    for item in &query.select {
        let expr = extract_aggregates(&item.expr, &mut aggregates);
        rewritten_select.push(SelectItem {
            expr,
            alias: item.alias.clone(),
        });
    }
    let rewritten_having = query
        .having
        .as_ref()
        .map(|h| reference_group_keys(&extract_aggregates(h, &mut aggregates), &query.group_by));

    // Non-aggregate select expressions must be grouping keys.
    for (item, rewritten) in query.select.iter().zip(&mut rewritten_select) {
        if item.expr.contains_aggregate() {
            continue;
        }
        // Constants (inline or auto-parameterised) need no grouping key.
        if matches!(item.expr, Expr::Literal(_) | Expr::Param { .. }) {
            continue;
        }
        let is_key = query.group_by.contains(&item.expr);
        if !is_key {
            return Err(SqlError::new(format!(
                "select item '{}' must appear in GROUP BY or inside an aggregate",
                rewritten.expr
            )));
        }
        // Expression keys (`GROUP BY x + 1`) are computed by the
        // Aggregate node and exposed under their display name; the
        // projection above it must reference that output column, not
        // re-evaluate the expression (its inputs are gone post-grouping).
        if !matches!(item.expr, Expr::Column { .. }) {
            rewritten.expr = Expr::col(&item.expr.display_name());
        }
    }

    // Final projection for ordering, aliasing and dropping what only
    // HAVING reads. Skip it only when the select list names exactly the
    // aggregate node's output, in order: its keys (expression keys under
    // their display name), then its aggregates.
    let output = query
        .group_by
        .iter()
        .map(|k| match k {
            Expr::Column { .. } => k.clone(),
            other => Expr::col(&other.display_name()),
        })
        .chain(aggregates.iter().map(|a| Expr::col(&a.output)));
    let identity = rewritten_select.len() == query.group_by.len() + aggregates.len()
        && rewritten_select
            .iter()
            .zip(output)
            .all(|(item, out)| item.alias.is_none() && item.expr == out);

    let mut plan = LogicalPlan::Aggregate {
        group_by: query.group_by.clone(),
        aggregates,
        input: Box::new(input),
    };
    if let Some(h) = rewritten_having {
        plan = LogicalPlan::Filter {
            predicate: h,
            input: Box::new(plan),
        };
    }
    if identity {
        Ok(plan)
    } else {
        Ok(LogicalPlan::Project {
            items: rewritten_select,
            input: Box::new(plan),
        })
    }
}

/// Replace every subexpression equal to a GROUP BY key with a column
/// reference to the key's aggregate output (named by its display text),
/// so expressions evaluated *above* the Aggregate node — sort keys,
/// HAVING residue — resolve against its schema instead of re-evaluating
/// an expression whose input columns are gone post-grouping. Plain
/// column keys need no rewrite (the key output keeps the column name);
/// aggregate arguments, windows and subqueries keep their own scopes.
fn reference_group_keys(expr: &Expr, keys: &[Expr]) -> Expr {
    if keys.is_empty() {
        return expr.clone();
    }
    if !matches!(
        expr,
        Expr::Column { .. } | Expr::Literal(_) | Expr::Param { .. }
    ) && keys.contains(expr)
    {
        return Expr::col(&expr.display_name());
    }
    match expr {
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(reference_group_keys(left, keys)),
            right: Box::new(reference_group_keys(right, keys)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(reference_group_keys(expr, keys)),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| reference_group_keys(a, keys)).collect(),
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(reference_group_keys(o, keys))),
            branches: branches
                .iter()
                .map(|(w, t)| (reference_group_keys(w, keys), reference_group_keys(t, keys)))
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(reference_group_keys(e, keys))),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(reference_group_keys(expr, keys)),
            list: list.iter().map(|i| reference_group_keys(i, keys)).collect(),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(reference_group_keys(expr, keys)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        // Aggregate arguments evaluate against the pre-grouping input;
        // windows and subqueries carry their own scopes.
        other => other.clone(),
    }
}

/// True when some ORDER BY key references a column that the projection
/// does not expose under that name (neither as a passthrough column nor as
/// an alias) — the sort must then run before the projection.
fn sort_needs_input_columns(keys: &[OrderItem], items: &[SelectItem]) -> bool {
    let outputs: Vec<String> = items.iter().map(|i| i.output_name()).collect();
    keys.iter().any(|k| {
        k.expr
            .referenced_columns()
            .iter()
            .any(|c| !outputs.iter().any(|o| o.eq_ignore_ascii_case(c)))
    })
}

/// Replace window calls with column references to the Window node's
/// outputs, registering each distinct window once.
fn extract_windows(expr: &Expr, out: &mut Vec<WindowExpr>) -> Expr {
    match expr {
        Expr::Window {
            func,
            partition_by,
            order_by,
        } => {
            let name = expr.to_string();
            if !out.iter().any(|w| w.output == name) {
                out.push(WindowExpr {
                    func: func.clone(),
                    partition_by: partition_by.clone(),
                    order_by: order_by.clone(),
                    output: name.clone(),
                });
            }
            Expr::Column {
                qualifier: None,
                name,
            }
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(extract_windows(left, out)),
            right: Box::new(extract_windows(right, out)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(extract_windows(expr, out)),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| extract_windows(a, out)).collect(),
        },
        other => other.clone(),
    }
}

/// Replace aggregate calls with column references to aggregate outputs,
/// registering each distinct aggregate once.
fn extract_aggregates(expr: &Expr, out: &mut Vec<AggregateExpr>) -> Expr {
    match expr {
        Expr::Aggregate { func, arg } => {
            let name = expr.display_name();
            if !out.iter().any(|a| a.output == name) {
                out.push(AggregateExpr {
                    func: *func,
                    arg: arg.as_deref().cloned(),
                    output: name.clone(),
                });
            }
            Expr::Column {
                qualifier: None,
                name,
            }
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(extract_aggregates(left, out)),
            right: Box::new(extract_aggregates(right, out)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(extract_aggregates(expr, out)),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| extract_aggregates(a, out)).collect(),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn plan(sql: &str) -> LogicalPlan {
        build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap()
    }

    fn plan_with_tvf(sql: &str, tvfs: &[&str]) -> LogicalPlan {
        let names: Vec<String> = tvfs.iter().map(|s| s.to_string()).collect();
        let is_tvf = move |n: &str| names.iter().any(|t| t == n);
        build_plan(&parse(sql).unwrap(), &PlannerContext { is_tvf: &is_tvf }).unwrap()
    }

    #[test]
    fn scan_filter_project_shape() {
        let p = plan("SELECT a, b FROM t WHERE a > 1");
        match p {
            LogicalPlan::Project { items, input } => {
                assert_eq!(items.len(), 2);
                assert!(matches!(*input, LogicalPlan::Filter { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn select_star_elides_projection() {
        let p = plan("SELECT * FROM t WHERE x = 1");
        assert!(matches!(p, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn groupby_count_plan() {
        let p = plan("SELECT Digit, Size, COUNT(*) FROM g GROUP BY Digit, Size");
        match p {
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                assert_eq!(group_by.len(), 2);
                assert_eq!(aggregates.len(), 1);
                assert_eq!(aggregates[0].output, "COUNT(*)");
                assert!(aggregates[0].arg.is_none());
            }
            other => panic!("expected bare aggregate (trivial projection), got {other:?}"),
        }
    }

    #[test]
    fn non_grouped_select_item_rejected() {
        let q = parse("SELECT a, COUNT(*) FROM t GROUP BY b").unwrap();
        let err = build_plan(&q, &PlannerContext::default()).unwrap_err();
        assert!(err.0.contains("GROUP BY"));
    }

    #[test]
    fn having_becomes_filter_over_aggregate() {
        let p = plan("SELECT d, COUNT(*) FROM t GROUP BY d HAVING COUNT(*) > 5");
        match p {
            LogicalPlan::Filter { predicate, input } => {
                assert!(format!("{predicate}").contains("COUNT(*)"));
                assert!(matches!(*input, LogicalPlan::Aggregate { .. }));
            }
            other => panic!("expected having-filter, got {other:?}"),
        }
    }

    #[test]
    fn tvf_in_from_plans_tvfscan() {
        let p = plan("SELECT Digit, COUNT(*) FROM parse_mnist_grid(MNIST_Grid) GROUP BY Digit");
        let mut node = &p;
        loop {
            match node {
                LogicalPlan::TvfScan { name, input } => {
                    assert_eq!(name, "parse_mnist_grid");
                    assert!(matches!(**input, LogicalPlan::Scan { .. }));
                    return;
                }
                other => {
                    let inputs = other.inputs();
                    assert!(!inputs.is_empty(), "TvfScan not found");
                    node = inputs[0];
                }
            }
        }
    }

    #[test]
    fn tvf_in_projection_expands() {
        let p = plan_with_tvf(
            "SELECT extract_table(images) FROM Document WHERE ts = 'x'",
            &["extract_table"],
        );
        match p {
            LogicalPlan::TvfProject { name, args, input } => {
                assert_eq!(name, "extract_table");
                assert_eq!(args.len(), 1);
                assert!(matches!(*input, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected TvfProject, got {other:?}"),
        }
    }

    #[test]
    fn non_tvf_function_stays_scalar() {
        let p = plan("SELECT f(x) FROM t");
        assert!(matches!(p, LogicalPlan::Project { .. }));
    }

    #[test]
    fn order_limit_nest_on_top() {
        let p = plan("SELECT a FROM t ORDER BY a DESC LIMIT 3");
        match p {
            LogicalPlan::Limit {
                n: LimitCount::Const(3),
                input,
            } => match *input {
                LogicalPlan::Sort { ref keys, .. } => assert!(keys[0].desc),
                other => panic!("expected sort under limit, got {other:?}"),
            },
            other => panic!("expected limit on top, got {other:?}"),
        }
    }

    #[test]
    fn subquery_plans_recursively() {
        let p = plan("SELECT AVG(v) FROM (SELECT v FROM t WHERE k = 1)");
        match p {
            LogicalPlan::Aggregate { input, .. } => {
                assert!(matches!(*input, LogicalPlan::Project { .. }));
            }
            other => panic!("expected aggregate over subquery, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_aggregates_computed_once() {
        let p = plan("SELECT SUM(x), SUM(x) / COUNT(*) FROM t");
        fn find_agg(p: &LogicalPlan) -> Option<&Vec<AggregateExpr>> {
            match p {
                LogicalPlan::Aggregate { aggregates, .. } => Some(aggregates),
                _ => p.inputs().iter().find_map(|c| find_agg(c)),
            }
        }
        let aggs = find_agg(&p).expect("aggregate node");
        assert_eq!(aggs.len(), 2, "SUM(x) deduplicated, COUNT(*) added");
    }

    #[test]
    fn where_with_aggregate_rejected() {
        let q = parse("SELECT a FROM t WHERE COUNT(*) > 1").unwrap();
        assert!(build_plan(&q, &PlannerContext::default()).is_err());
    }

    #[test]
    fn explain_renders_tree() {
        let p = plan("SELECT a, COUNT(*) FROM t WHERE b > 0 GROUP BY a ORDER BY a LIMIT 1");
        let text = p.explain();
        for needle in ["Limit: 1", "Sort: a", "Aggregate:", "Filter:", "Scan: t"] {
            assert!(text.contains(needle), "explain missing {needle}:\n{text}");
        }
    }
}
