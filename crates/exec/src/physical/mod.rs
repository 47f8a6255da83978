//! The physical plan: a logical plan lowered once, executed many times.
//!
//! This is the compile step the paper's "query as a PyTorch model" story
//! implies (and that TQP makes explicit): [`lower`] walks the logical
//! plan a single time, propagating output schemas through the
//! operator tree, resolving every column reference to a **slot index**,
//! resolving functions (session UDF vs. built-in) and lowering scalar
//! subqueries into nested physical plans. The exact and differentiable
//! executors both consume the result, so per-run work is pure kernel
//! dispatch — no name lookups, no AST re-walking, no function-registry
//! probing on the per-batch path.
//!
//! Schemas are not always statically known: table-valued functions emit
//! whatever relation their implementation builds, so expressions above a
//! TVF fall back to [`ColumnRef::Name`], resolved per batch through the
//! O(1) name→slot map on [`crate::Batch`]. Tables missing from the
//! catalog at compile time likewise lower to schema-less scans and keep
//! their "unknown table" error at run time, which preserves the
//! re-registration workflow of paper Listing 5.

use std::sync::Arc;

use tdp_index::Metric;
use tdp_sql::ast::{AggFunc, BinOp, JoinKind, LimitCount, UnOp};

use crate::access::{AnnPath, ChunkPruner};
use crate::batch::NamedColumns;
use crate::error::ExecError;
use crate::passes::access_paths::ann_shape;

mod lower;

pub use lower::{check_args, declared_args, lower, lower_expr, DeclaredArg};

// ----------------------------------------------------------------------
// Schemas
// ----------------------------------------------------------------------

/// Ordered output column names of a plan node, as propagated at compile
/// time. Lookup is case-insensitive, first match wins — the same
/// resolution rule the batches apply at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    names: Vec<String>,
}

impl Schema {
    pub fn new(names: Vec<String>) -> Schema {
        Schema { names }
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// First slot whose name matches, case-insensitively.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n.eq_ignore_ascii_case(name))
    }
}

// ----------------------------------------------------------------------
// Compiled expressions
// ----------------------------------------------------------------------

/// A column reference after compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnRef {
    /// Resolved to a slot index at compile time; the name is kept for
    /// diagnostics and EXPLAIN output.
    Slot { slot: usize, name: String },
    /// Schema was unknown at compile time (downstream of a TVF); resolved
    /// per batch by name.
    Name(String),
}

impl ColumnRef {
    pub fn name(&self) -> &str {
        match self {
            ColumnRef::Slot { name, .. } | ColumnRef::Name(name) => name,
        }
    }

    /// Resolve against a batch's columns, exact or on the tape.
    pub fn resolve<'a, C>(&self, batch: &'a NamedColumns<C>) -> Result<&'a C, ExecError> {
        match self {
            ColumnRef::Slot { slot, name } => batch.column_at(*slot).ok_or_else(|| {
                ExecError::TypeMismatch(format!(
                    "slot {slot} ('{name}') out of range — plan and batch schema diverged"
                ))
            }),
            ColumnRef::Name(name) => batch.column(name),
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnRef::Slot { slot, name } => write!(f, "{name}@{slot}"),
            ColumnRef::Name(name) => write!(f, "{name}"),
        }
    }
}

/// A built-in scalar math kernel, resolved at compile time.
#[derive(Debug, Clone, Copy)]
pub enum ScalarFn {
    Unary(fn(f32) -> f32),
    Binary(fn(f32, f32) -> f32),
    /// Vector-similarity kernel: `f(embedding_col, query)` scores every
    /// row of an `[n, d]` embedding column against one query vector
    /// (`distance`, `inner_product`, `cosine_sim`). The score math is
    /// [`Metric::scores`] — the same kernel the vector indexes use, so a
    /// sequential scan computing this expression is bit-identical to the
    /// flat index path.
    Vector(Metric),
}

impl PartialEq for ScalarFn {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ScalarFn::Unary(a), ScalarFn::Unary(b)) => std::ptr::fn_addr_eq(*a, *b),
            (ScalarFn::Binary(a), ScalarFn::Binary(b)) => std::ptr::fn_addr_eq(*a, *b),
            (ScalarFn::Vector(a), ScalarFn::Vector(b)) => a == b,
            _ => false,
        }
    }
}

impl ScalarFn {
    pub fn arity(self) -> usize {
        match self {
            ScalarFn::Unary(_) => 1,
            ScalarFn::Binary(_) | ScalarFn::Vector(_) => 2,
        }
    }
}

/// An expression program with columns resolved to slots. Shared by the
/// exact and differentiable evaluators; they differ only in the kernels
/// they dispatch to.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    Column(ColumnRef),
    Num(f64),
    Str(String),
    Bool(bool),
    Binary {
        op: BinOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<CompiledExpr>,
    },
    /// Session scalar UDF, re-resolved from the registry per run so UDF
    /// re-registration keeps working.
    Udf {
        name: String,
        args: Vec<CompiledExpr>,
    },
    /// Built-in math function with its kernel resolved at compile time
    /// (the name is kept for the differentiable lowering and EXPLAIN).
    Builtin {
        name: String,
        func: ScalarFn,
        args: Vec<CompiledExpr>,
    },
    Case {
        operand: Option<Box<CompiledExpr>>,
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_expr: Option<Box<CompiledExpr>>,
    },
    InList {
        expr: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
    },
    Like {
        expr: Box<CompiledExpr>,
        pattern: String,
        negated: bool,
    },
    /// Uncorrelated scalar subquery, lowered into its own physical plan at
    /// compile time.
    ScalarSubquery(Arc<PhysicalPlan>),
    /// Statement parameter slot (`$1`-style). Plans carry no value for it;
    /// the executors resolve it against [`crate::ExecContext::params`],
    /// which is what makes a compiled plan reusable across bindings.
    Param {
        idx: usize,
    },
}

impl CompiledExpr {
    /// Visit this expression and every sub-expression, pre-order, until
    /// `f` returns `Some` — the first hit wins. Scalar subqueries are
    /// visited as single nodes — their nested plans are not entered;
    /// match on [`CompiledExpr::ScalarSubquery`] in the callback to
    /// descend explicitly. The one read-only traversal: [`for_each`],
    /// the chain-kernel vetting pass, the scheduler's parallel-safety
    /// analysis and the differentiable executor's tape checks are all
    /// closures over it.
    ///
    /// [`for_each`]: CompiledExpr::for_each
    pub fn find_map<'e, T>(&'e self, f: &mut impl FnMut(&'e Self) -> Option<T>) -> Option<T> {
        if let Some(hit) = f(self) {
            return Some(hit);
        }
        match self {
            CompiledExpr::Binary { left, right, .. } => {
                left.find_map(f).or_else(|| right.find_map(f))
            }
            CompiledExpr::Unary { expr, .. } | CompiledExpr::Like { expr, .. } => expr.find_map(f),
            CompiledExpr::Udf { args, .. } | CompiledExpr::Builtin { args, .. } => {
                args.iter().find_map(|a| a.find_map(f))
            }
            CompiledExpr::Case {
                operand,
                branches,
                else_expr,
            } => operand
                .as_deref()
                .and_then(|o| o.find_map(f))
                .or_else(|| {
                    branches
                        .iter()
                        .find_map(|(w, t)| w.find_map(f).or_else(|| t.find_map(f)))
                })
                .or_else(|| else_expr.as_deref().and_then(|e| e.find_map(f))),
            CompiledExpr::InList { expr, list, .. } => expr
                .find_map(f)
                .or_else(|| list.iter().find_map(|i| i.find_map(f))),
            CompiledExpr::Column(_)
            | CompiledExpr::Num(_)
            | CompiledExpr::Str(_)
            | CompiledExpr::Bool(_)
            | CompiledExpr::Param { .. }
            | CompiledExpr::ScalarSubquery(_) => None,
        }
    }

    /// [`CompiledExpr::find_map`] that never stops: visit every node,
    /// pre-order.
    pub fn for_each(&self, f: &mut impl FnMut(&CompiledExpr)) {
        self.find_map(&mut |e| {
            f(e);
            None::<()>
        });
    }

    /// Rebuild this node with each direct child replaced by `f(child)`,
    /// in [`CompiledExpr::find_map`] order — the owned one-level rewriter
    /// plan passes recurse with. A scalar subquery is a leaf here too.
    pub(crate) fn map_children(self, mut f: impl FnMut(CompiledExpr) -> CompiledExpr) -> Self {
        match self {
            CompiledExpr::Binary { op, left, right } => {
                let left = Box::new(f(*left));
                CompiledExpr::Binary {
                    op,
                    left,
                    right: Box::new(f(*right)),
                }
            }
            CompiledExpr::Unary { op, expr } => CompiledExpr::Unary {
                op,
                expr: Box::new(f(*expr)),
            },
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => CompiledExpr::Like {
                expr: Box::new(f(*expr)),
                pattern,
                negated,
            },
            CompiledExpr::Udf { name, args } => CompiledExpr::Udf {
                name,
                args: args.into_iter().map(f).collect(),
            },
            CompiledExpr::Builtin { name, func, args } => CompiledExpr::Builtin {
                name,
                func,
                args: args.into_iter().map(f).collect(),
            },
            CompiledExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let operand = operand.map(|o| Box::new(f(*o)));
                let branches = branches
                    .into_iter()
                    .map(|(w, t)| {
                        let w = f(w);
                        (w, f(t))
                    })
                    .collect();
                CompiledExpr::Case {
                    operand,
                    branches,
                    else_expr: else_expr.map(|e| Box::new(f(*e))),
                }
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let expr = Box::new(f(*expr));
                CompiledExpr::InList {
                    expr,
                    list: list.into_iter().map(f).collect(),
                    negated,
                }
            }
            leaf @ (CompiledExpr::Column(_)
            | CompiledExpr::Num(_)
            | CompiledExpr::Str(_)
            | CompiledExpr::Bool(_)
            | CompiledExpr::Param { .. }
            | CompiledExpr::ScalarSubquery(_)) => leaf,
        }
    }
}

impl std::fmt::Display for CompiledExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompiledExpr::Column(c) => write!(f, "{c}"),
            CompiledExpr::Num(n) => write!(f, "{n}"),
            CompiledExpr::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            CompiledExpr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            CompiledExpr::Binary { op, left, right } => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                    BinOp::Eq => "=",
                    BinOp::NotEq => "<>",
                    BinOp::Lt => "<",
                    BinOp::LtEq => "<=",
                    BinOp::Gt => ">",
                    BinOp::GtEq => ">=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({left} {sym} {right})")
            }
            CompiledExpr::Unary {
                op: UnOp::Neg,
                expr,
            } => write!(f, "(-{expr})"),
            CompiledExpr::Unary {
                op: UnOp::Not,
                expr,
            } => write!(f, "(NOT {expr})"),
            CompiledExpr::Udf { name, args } | CompiledExpr::Builtin { name, args, .. } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            CompiledExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "))")
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE '{}')",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            ),
            // The nested tree would wreck single-line rendering; its
            // fingerprint keeps the parent's explain (and therefore the
            // parent's fingerprint) sensitive to the subquery's content.
            CompiledExpr::ScalarSubquery(p) => {
                write!(f, "(<subquery fp:{:016x}>)", p.fingerprint())
            }
            CompiledExpr::Param { idx } => write!(f, "${}", idx + 1),
        }
    }
}

// ----------------------------------------------------------------------
// Physical operator tree
// ----------------------------------------------------------------------

/// One compiled projection item.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysProjectItem {
    pub name: String,
    pub expr: CompiledExpr,
}

/// One compiled GROUP BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysKey {
    pub name: String,
    pub expr: CompiledExpr,
}

/// One compiled aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysAggregate {
    pub func: AggFunc,
    /// `None` encodes `COUNT(*)`.
    pub arg: Option<CompiledExpr>,
    pub output: String,
}

/// One compiled sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysOrderKey {
    pub expr: CompiledExpr,
    pub desc: bool,
}

impl std::fmt::Display for PhysOrderKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.expr, if self.desc { " DESC" } else { "" })
    }
}

/// Window function with its argument compiled.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysWindowFunc {
    RowNumber,
    Rank,
    DenseRank,
    Agg {
        func: AggFunc,
        arg: Option<CompiledExpr>,
    },
}

/// One compiled window computation.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysWindow {
    pub func: PhysWindowFunc,
    pub partition_by: Vec<CompiledExpr>,
    pub order_by: Vec<PhysOrderKey>,
    pub output: String,
}

/// Join keys after compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinOn {
    /// Key sides resolved at compile time: `(left column, right column)`.
    Resolved(Vec<(ColumnRef, ColumnRef)>),
    /// An input schema was unknown at compile time; each `(a, b)` equality
    /// is side-probed against the actual batches per run.
    Deferred(Vec<(String, String)>),
}

/// How a base-table scan reads its morsels, decided by `passes::access_paths`.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanAccess {
    /// No leading filter above this scan: every morsel is read.
    Full,
    /// Eligible conjuncts of the leading filter compiled into a
    /// [`ChunkPruner`]; the morsel scheduler consults per-chunk zone maps
    /// and skips whole morsels before any chain kernel runs.
    Pruned(ChunkPruner),
    /// A leading filter exists but no conjunct was eligible for pruning;
    /// the named reason surfaces in EXPLAIN as `[full scan: <reason>]`.
    Unpruned(&'static str),
}

/// The slot-resolved operator tree both executors run.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    Scan {
        table: String,
        /// Column names observed at compile time; `None` when the table
        /// was not in the catalog yet. Validated against the live table on
        /// every run so stale slots fail loudly instead of silently
        /// reading the wrong column.
        schema: Option<Vec<String>>,
        /// Zone-map access path, decided by `passes::access_paths`.
        access: ScanAccess,
    },
    TvfScan {
        name: String,
        /// Output columns the TVF declared at compile time
        /// ([`crate::udf::OutputSchema`]); `None` keeps the dynamic
        /// by-name behaviour. When present, downstream expressions are
        /// slot-resolved through it and the executor checks the actual
        /// output against it.
        schema: Option<Vec<String>>,
        input: Box<PhysicalPlan>,
    },
    TvfProject {
        name: String,
        args: Vec<CompiledExpr>,
        /// Declared output columns (same contract as the `schema` field
        /// of [`PhysicalPlan::TvfScan`]).
        schema: Option<Vec<String>>,
        input: Box<PhysicalPlan>,
    },
    Filter {
        predicate: CompiledExpr,
        input: Box<PhysicalPlan>,
    },
    Project {
        items: Vec<PhysProjectItem>,
        input: Box<PhysicalPlan>,
    },
    Aggregate {
        keys: Vec<PhysKey>,
        aggregates: Vec<PhysAggregate>,
        input: Box<PhysicalPlan>,
    },
    Join {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        kind: JoinKind,
        on: JoinOn,
    },
    Sort {
        keys: Vec<PhysOrderKey>,
        input: Box<PhysicalPlan>,
    },
    Limit {
        n: LimitCount,
        input: Box<PhysicalPlan>,
    },
    TopK {
        keys: Vec<PhysOrderKey>,
        n: LimitCount,
        input: Box<PhysicalPlan>,
    },
    Window {
        windows: Vec<PhysWindow>,
        input: Box<PhysicalPlan>,
    },
    Distinct {
        input: Box<PhysicalPlan>,
    },
    UnionAll {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
    },
    /// Index-accelerated vector top-k: `ORDER BY distance(col, $q) LIMIT k`
    /// (and the similarity variants) recognized over a bare base-table
    /// scan. A leaf — it reads the table directly through
    /// [`crate::access::AnnPath`], either exact (flat) or via a registered
    /// IVF index with a declared recall trade-off.
    AnnTopK {
        table: String,
        /// Compile-time schema of the base table (recognition requires it).
        schema: Vec<String>,
        /// The embedding column, slot-resolved.
        column: ColumnRef,
        /// Row-constant query vector: a `$n` parameter slot or a literal.
        query: CompiledExpr,
        metric: Metric,
        n: LimitCount,
        path: AnnPath,
    },
}

/// What [`PhysicalPlan::explain_with`] calls for each scalar subquery:
/// `(plan, out, depth)`.
pub(crate) type SubqueryRender<'s> = dyn FnMut(&PhysicalPlan, &mut String, usize) + 's;

impl PhysicalPlan {
    /// Children of this node (0, 1 or 2).
    pub fn inputs(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::AnnTopK { .. } => vec![],
            PhysicalPlan::TvfScan { input, .. }
            | PhysicalPlan::TvfProject { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::TopK { input, .. }
            | PhysicalPlan::Window { input, .. }
            | PhysicalPlan::Distinct { input } => vec![input],
            PhysicalPlan::Join { left, right, .. } | PhysicalPlan::UnionAll { left, right } => {
                vec![left, right]
            }
        }
    }

    /// Rebuild this node with each child replaced by `f(child)`, left
    /// before right — the owned one-level rewriter plan passes recurse
    /// with ([`crate::passes`]). Scalar-subquery plans are not children.
    pub(crate) fn map_children(self, mut f: impl FnMut(PhysicalPlan) -> PhysicalPlan) -> Self {
        let mut boxed = |p: Box<PhysicalPlan>| Box::new(f(*p));
        match self {
            leaf @ (PhysicalPlan::Scan { .. } | PhysicalPlan::AnnTopK { .. }) => leaf,
            PhysicalPlan::TvfScan {
                name,
                schema,
                input,
            } => PhysicalPlan::TvfScan {
                name,
                schema,
                input: boxed(input),
            },
            PhysicalPlan::TvfProject {
                name,
                args,
                schema,
                input,
            } => PhysicalPlan::TvfProject {
                name,
                args,
                schema,
                input: boxed(input),
            },
            PhysicalPlan::Filter { predicate, input } => PhysicalPlan::Filter {
                predicate,
                input: boxed(input),
            },
            PhysicalPlan::Project { items, input } => PhysicalPlan::Project {
                items,
                input: boxed(input),
            },
            PhysicalPlan::Aggregate {
                keys,
                aggregates,
                input,
            } => PhysicalPlan::Aggregate {
                keys,
                aggregates,
                input: boxed(input),
            },
            PhysicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => {
                let left = boxed(left);
                PhysicalPlan::Join {
                    left,
                    right: boxed(right),
                    kind,
                    on,
                }
            }
            PhysicalPlan::Sort { keys, input } => PhysicalPlan::Sort {
                keys,
                input: boxed(input),
            },
            PhysicalPlan::Limit { n, input } => PhysicalPlan::Limit {
                n,
                input: boxed(input),
            },
            PhysicalPlan::TopK { keys, n, input } => PhysicalPlan::TopK {
                keys,
                n,
                input: boxed(input),
            },
            PhysicalPlan::Window { windows, input } => PhysicalPlan::Window {
                windows,
                input: boxed(input),
            },
            PhysicalPlan::Distinct { input } => PhysicalPlan::Distinct {
                input: boxed(input),
            },
            PhysicalPlan::UnionAll { left, right } => {
                let left = boxed(left);
                PhysicalPlan::UnionAll {
                    left,
                    right: boxed(right),
                }
            }
        }
    }

    /// EXPLAIN-style rendering with resolved slots
    /// (`Filter: (price@0 > 2.5)`). A scalar subquery shows as its
    /// fingerprint only; [`crate::pipeline::explain_physical`] renders
    /// its plan too.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_with(&mut out, 0, None);
        out
    }

    /// [`PhysicalPlan::explain`] at `depth`, calling `subquery(plan, out,
    /// depth)` after each operator's line for each scalar subquery the
    /// operator holds, at one level deeper than the operator. With no
    /// `subquery` (the fingerprint's rendering) expressions are not
    /// walked for subqueries at all.
    pub(crate) fn explain_with<'s>(
        &self,
        out: &mut String,
        depth: usize,
        mut subquery: Option<&mut SubqueryRender<'s>>,
    ) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            PhysicalPlan::Scan {
                table,
                schema,
                access,
            } => {
                let note = match access {
                    ScanAccess::Full => String::new(),
                    ScanAccess::Pruned(p) => format!(
                        " [zone-maps: {} predicate{}]",
                        p.len(),
                        if p.len() == 1 { "" } else { "s" }
                    ),
                    ScanAccess::Unpruned(reason) => format!(" [full scan: {reason}]"),
                };
                match schema {
                    Some(names) => {
                        let cols: Vec<String> = names
                            .iter()
                            .enumerate()
                            .map(|(i, n)| format!("{n}@{i}"))
                            .collect();
                        out.push_str(&format!("Scan: {table} [{}]{note}\n", cols.join(", ")));
                    }
                    None => out.push_str(&format!("Scan: {table} [schema unresolved]{note}\n")),
                }
            }
            PhysicalPlan::TvfScan { name, schema, .. } => {
                out.push_str(&format!("TvfScan: {name}{}\n", render_tvf_schema(schema)))
            }
            PhysicalPlan::TvfProject {
                name, args, schema, ..
            } => {
                let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                out.push_str(&format!(
                    "TvfProject: {name}({}){}\n",
                    rendered.join(", "),
                    render_tvf_schema(schema)
                ));
            }
            PhysicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!("Filter: {predicate}\n"))
            }
            PhysicalPlan::Project { items, .. } => {
                let rendered: Vec<String> = items
                    .iter()
                    .map(|i| format!("{} AS {}", i.expr, i.name))
                    .collect();
                out.push_str(&format!("Project: {}\n", rendered.join(", ")));
            }
            PhysicalPlan::Aggregate {
                keys, aggregates, ..
            } => {
                let key_txt: Vec<String> = keys.iter().map(|k| k.expr.to_string()).collect();
                let agg_txt: Vec<String> = aggregates
                    .iter()
                    .map(|a| match &a.arg {
                        Some(e) => format!("{}({e})", a.func.name()),
                        None => format!("{}(*)", a.func.name()),
                    })
                    .collect();
                out.push_str(&format!(
                    "Aggregate: keys=[{}] aggs=[{}]\n",
                    key_txt.join(", "),
                    agg_txt.join(", ")
                ));
            }
            PhysicalPlan::Join { kind, on, .. } => {
                let on_txt = match on {
                    JoinOn::Resolved(pairs) => pairs
                        .iter()
                        .map(|(l, r)| format!("{l} = {r}"))
                        .collect::<Vec<_>>()
                        .join(" AND "),
                    JoinOn::Deferred(pairs) => pairs
                        .iter()
                        .map(|(l, r)| format!("{l} = {r} [deferred]"))
                        .collect::<Vec<_>>()
                        .join(" AND "),
                };
                out.push_str(&format!("Join: {kind:?} ON {on_txt}\n"));
            }
            PhysicalPlan::Sort { keys, .. } => {
                let rendered: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                out.push_str(&format!("Sort: {}\n", rendered.join(", ")));
            }
            PhysicalPlan::Limit { n, .. } => out.push_str(&format!("Limit: {n}\n")),
            PhysicalPlan::TopK { keys, n, input } => {
                let rendered: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                let note = match ann_shape(keys, input) {
                    Err(Some(reason)) => format!(" [full scan: {reason}]"),
                    _ => String::new(),
                };
                out.push_str(&format!("TopK: {} LIMIT {n}{note}\n", rendered.join(", ")));
            }
            PhysicalPlan::Window { windows, .. } => {
                let rendered: Vec<String> = windows.iter().map(|w| w.output.clone()).collect();
                out.push_str(&format!("Window: {}\n", rendered.join(", ")));
            }
            PhysicalPlan::Distinct { .. } => out.push_str("Distinct\n"),
            PhysicalPlan::UnionAll { .. } => out.push_str("UnionAll\n"),
            PhysicalPlan::AnnTopK {
                table,
                column,
                query,
                metric,
                n,
                path,
                ..
            } => {
                out.push_str(&format!(
                    "AnnTopK: {table} ORDER BY {}({column}, {query}) LIMIT {n} [{path}]\n",
                    metric_fn_name(*metric)
                ));
            }
        }
        if let Some(render) = subquery.as_deref_mut() {
            self.for_each_expr_node(&mut |e| {
                if let CompiledExpr::ScalarSubquery(p) = e {
                    render(p, out, depth + 1);
                }
            });
        }
        for child in self.inputs() {
            child.explain_with(out, depth + 1, subquery.as_deref_mut());
        }
    }

    /// Stable fingerprint of the compiled plan (FNV-1a over the explain
    /// rendering, which captures operators, slots and literals). Two
    /// compilations of the same SQL against the same catalog/registry
    /// state produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.explain().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Visit this node, then the plans of its scalar subqueries (each
    /// walked the same way), then its children, until `f` returns `Some`.
    /// The one whole-plan walk: parameter slots, scans, function names and
    /// signature checks are closures over it.
    pub(crate) fn find_map<T>(&self, f: &mut impl FnMut(&PhysicalPlan) -> Option<T>) -> Option<T> {
        if let Some(hit) = f(self) {
            return Some(hit);
        }
        let mut hit = None;
        self.for_each_expr_node(&mut |e| {
            if let (None, CompiledExpr::ScalarSubquery(p)) = (&hit, e) {
                hit = p.find_map(f);
            }
        });
        hit.or_else(|| self.inputs().into_iter().find_map(|c| c.find_map(f)))
    }

    /// [`PhysicalPlan::find_map`] that never stops.
    fn for_each(&self, f: &mut impl FnMut(&PhysicalPlan)) {
        self.find_map(&mut |p| {
            f(p);
            None::<()>
        });
    }

    /// Sorted, deduplicated parameter slots referenced anywhere in the
    /// plan (including scalar subqueries) — what EXPLAIN reports and what
    /// a binding must cover.
    pub fn param_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each(&mut |p| {
            p.for_each_expr_node(&mut |e| {
                if let CompiledExpr::Param { idx } = e {
                    out.push(*idx);
                }
            });
            // LIMIT slots are node-level, not expression-level.
            if let PhysicalPlan::Limit {
                n: LimitCount::Param { idx },
                ..
            }
            | PhysicalPlan::TopK {
                n: LimitCount::Param { idx },
                ..
            }
            | PhysicalPlan::AnnTopK {
                n: LimitCount::Param { idx },
                ..
            } = p
            {
                out.push(*idx);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every base-table scan in the tree with the schema it was compiled
    /// against — the validity condition a plan cache checks against the
    /// live catalog. Includes scans inside lowered scalar subqueries.
    pub fn scans(&self) -> Vec<(String, Option<Vec<String>>)> {
        let mut out = Vec::new();
        self.for_each(&mut |p| match p {
            PhysicalPlan::Scan { table, schema, .. } => out.push((table.clone(), schema.clone())),
            // AnnTopK reads its base table directly; its compiled schema
            // pins cache validity exactly like a Scan's.
            PhysicalPlan::AnnTopK { table, schema, .. } => {
                out.push((table.clone(), Some(schema.clone())));
            }
            _ => {}
        });
        out
    }

    /// Lowercased, sorted, deduplicated names of every function call
    /// anywhere in the plan — UDFs, TVFs and built-ins alike, including
    /// calls inside lowered scalar subqueries. These are the plan's
    /// name-resolution dependencies: a cache sharing compiled plans
    /// across sessions must reject a hit for any session whose local
    /// registrations could resolve one of these names differently.
    pub fn function_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each(&mut |p| {
            if let PhysicalPlan::TvfScan { name, .. } | PhysicalPlan::TvfProject { name, .. } = p {
                out.push(name.to_ascii_lowercase());
            }
            p.for_each_expr_node(&mut |e| {
                if let CompiledExpr::Udf { name, .. } | CompiledExpr::Builtin { name, .. } = e {
                    out.push(name.to_ascii_lowercase());
                }
            });
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Call `f` on every expression node held directly by this plan node,
    /// pre-order per expression ([`CompiledExpr::for_each`]: subquery
    /// plans are not entered, nor are the node's children).
    pub(crate) fn for_each_expr_node(&self, f: &mut impl FnMut(&CompiledExpr)) {
        let mut f = |root: &CompiledExpr| root.for_each(f);
        match self {
            PhysicalPlan::TvfProject { args, .. } => args.iter().for_each(&mut f),
            PhysicalPlan::Filter { predicate, .. } => f(predicate),
            PhysicalPlan::Project { items, .. } => {
                items.iter().for_each(|i| f(&i.expr));
            }
            PhysicalPlan::Aggregate {
                keys, aggregates, ..
            } => {
                keys.iter().for_each(|k| f(&k.expr));
                aggregates
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .for_each(&mut f);
            }
            PhysicalPlan::Sort { keys, .. } | PhysicalPlan::TopK { keys, .. } => {
                keys.iter().for_each(|k| f(&k.expr));
            }
            PhysicalPlan::AnnTopK { query, .. } => f(query),
            PhysicalPlan::Window { windows, .. } => {
                for w in windows {
                    if let PhysWindowFunc::Agg { arg: Some(a), .. } = &w.func {
                        f(a);
                    }
                    w.partition_by.iter().for_each(&mut f);
                    w.order_by.iter().for_each(|k| f(&k.expr));
                }
            }
            PhysicalPlan::Scan { .. }
            | PhysicalPlan::TvfScan { .. }
            | PhysicalPlan::Join { .. }
            | PhysicalPlan::Limit { .. }
            | PhysicalPlan::Distinct { .. }
            | PhysicalPlan::UnionAll { .. } => {}
        }
    }
}

/// ` -> [col@0, col@1]` for a declared TVF schema, empty when dynamic.
fn render_tvf_schema(schema: &Option<Vec<String>>) -> String {
    match schema {
        Some(names) => {
            let cols: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("{n}@{i}"))
                .collect();
            format!(" -> [{}]", cols.join(", "))
        }
        None => String::new(),
    }
}

impl std::fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// The SQL surface name of a vector-similarity metric — what
/// [`builtin_scalar`] resolves and EXPLAIN renders.
pub(crate) fn metric_fn_name(metric: Metric) -> &'static str {
    match metric {
        Metric::L2 => "distance",
        Metric::InnerProduct => "inner_product",
        Metric::Cosine => "cosine_sim",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::UdfRegistry;
    use tdp_sql::plan::{build_plan, AggregateExpr, LogicalPlan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::{Catalog, TableBuilder};

    fn setup() -> Catalog {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("price", vec![3.0, 1.0, 2.0])
                .col_str("item", &["b", "a", "a"])
                .col_i64("qty", vec![10, 20, 30])
                .build("orders"),
        );
        catalog
    }

    fn lowered(catalog: &Catalog, sql: &str) -> PhysicalPlan {
        let udfs = UdfRegistry::new();
        let plan = optimizer::optimize(
            build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
        );
        lower(&plan, catalog, &udfs).unwrap()
    }

    #[test]
    fn columns_resolve_to_slots() {
        let c = setup();
        let p = lowered(
            &c,
            "SELECT price * qty AS total FROM orders WHERE item = 'a'",
        );
        let text = p.explain();
        assert!(text.contains("price@0"), "{text}");
        assert!(text.contains("qty@2"), "{text}");
        assert!(text.contains("item@1"), "{text}");
    }

    #[test]
    fn unknown_column_fails_at_compile_time() {
        let c = setup();
        let udfs = UdfRegistry::new();
        let plan = build_plan(
            &parse("SELECT nope FROM orders").unwrap(),
            &PlannerContext::default(),
        )
        .unwrap();
        assert!(matches!(
            lower(&plan, &c, &udfs),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn unknown_table_defers_to_run_time() {
        let c = setup();
        let udfs = UdfRegistry::new();
        let plan = build_plan(
            &parse("SELECT x FROM missing").unwrap(),
            &PlannerContext::default(),
        )
        .unwrap();
        // Compiles (schema-less scan, name-resolved refs)…
        let p = lower(&plan, &c, &udfs).unwrap();
        assert!(p.explain().contains("schema unresolved"), "{}", p.explain());
        // …and the unknown-table error surfaces when executed.
        assert!(matches!(
            crate::pipeline::execute(&p, &crate::udf::ExecContext::new(&c, &udfs)),
            Err(ExecError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_function_fails_at_compile_time() {
        let c = setup();
        let udfs = UdfRegistry::new();
        let plan = build_plan(
            &parse("SELECT nope(price) FROM orders").unwrap(),
            &PlannerContext::default(),
        )
        .unwrap();
        assert!(matches!(
            lower(&plan, &c, &udfs),
            Err(ExecError::UnknownFunction(_))
        ));
    }

    #[test]
    fn join_keys_resolve_sides() {
        let c = setup();
        c.register(
            TableBuilder::new()
                .col_str("item", &["a", "b"])
                .col_f32("w", vec![1.0, 2.0])
                .build("items"),
        );
        let p = lowered(
            &c,
            "SELECT price, w FROM orders JOIN items ON items.item = orders.item",
        );
        fn find_join(p: &PhysicalPlan) -> Option<&JoinOn> {
            if let PhysicalPlan::Join { on, .. } = p {
                return Some(on);
            }
            p.inputs().iter().find_map(|c| find_join(c))
        }
        match find_join(&p).expect("join node") {
            JoinOn::Resolved(pairs) => {
                assert_eq!(pairs.len(), 1);
                // Sides swapped so the left ref targets the left input.
                assert!(matches!(&pairs[0].0, ColumnRef::Slot { slot: 1, .. }));
                assert!(matches!(&pairs[0].1, ColumnRef::Slot { slot: 0, .. }));
            }
            other => panic!("expected resolved keys, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_stable_across_compilations() {
        let c = setup();
        let sql = "SELECT item, COUNT(*) FROM orders GROUP BY item ORDER BY item LIMIT 2";
        let a = lowered(&c, sql).fingerprint();
        let b = lowered(&c, sql).fingerprint();
        assert_eq!(a, b);
        let other = lowered(&c, "SELECT item FROM orders").fingerprint();
        assert_ne!(a, other);
    }

    #[test]
    fn params_lower_to_slots_and_are_collected() {
        let c = setup();
        let p = lowered(
            &c,
            "SELECT price FROM orders WHERE price > ? AND qty < (SELECT MAX(qty) FROM orders WHERE qty < ?)",
        );
        let text = p.explain();
        assert!(text.contains("$1"), "{text}");
        assert_eq!(p.param_indices(), vec![0, 1], "subquery slot included");
        // The fingerprint is literal-free but parameter-sensitive.
        let q = lowered(&c, "SELECT price FROM orders WHERE price > ?");
        assert_ne!(p.fingerprint(), q.fingerprint());
        assert_eq!(
            q.fingerprint(),
            lowered(&c, "SELECT price FROM orders WHERE price > ?").fingerprint()
        );
    }

    #[test]
    fn scans_report_compiled_schemas() {
        let c = setup();
        let p = lowered(&c, "SELECT price FROM orders");
        let scans = p.scans();
        assert_eq!(scans.len(), 1);
        assert_eq!(scans[0].0, "orders");
        assert_eq!(scans[0].1.as_deref().unwrap(), ["price", "item", "qty"]);
    }

    #[test]
    fn union_arity_checked_at_compile_time() {
        let c = setup();
        let udfs = UdfRegistry::new();
        let plan = build_plan(
            &parse("SELECT price FROM orders UNION ALL SELECT price, qty FROM orders").unwrap(),
            &PlannerContext::default(),
        )
        .unwrap();
        assert!(matches!(
            lower(&plan, &c, &udfs),
            Err(ExecError::TypeMismatch(_))
        ));
    }

    #[test]
    fn aggregate_star_only_for_count() {
        let c = setup();
        let udfs = UdfRegistry::new();
        // Hand-built: SUM(*) is representable in the plan but must not lower.
        let plan = LogicalPlan::Aggregate {
            group_by: vec![],
            aggregates: vec![AggregateExpr {
                func: AggFunc::Sum,
                arg: None,
                output: "SUM(*)".into(),
            }],
            input: Box::new(LogicalPlan::Scan {
                table: "orders".into(),
            }),
        };
        assert!(matches!(
            lower(&plan, &c, &udfs),
            Err(ExecError::Unsupported(_))
        ));
    }
}
