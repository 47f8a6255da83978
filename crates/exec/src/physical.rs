//! The physical plan: a logical plan lowered once, executed many times.
//!
//! This is the compile step the paper's "query as a PyTorch model" story
//! implies (and that TQP makes explicit): [`lower`] walks the
//! [`LogicalPlan`] a single time, propagating output schemas through the
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
use tdp_sql::ast::{
    AggFunc, BinOp, Expr, JoinKind, LimitCount, Literal, OrderItem, SelectItem, UnOp, WindowFunc,
};
use tdp_sql::plan::{AggregateExpr, LogicalPlan, WindowExpr};
use tdp_storage::Catalog;

use crate::access::{AnnPath, ChunkPruner};
use crate::batch::NamedColumns;
use crate::error::ExecError;
use crate::params::ParamValue;
use crate::udf::{ArgType, UdfRegistry};

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

/// How a base-table scan reads its morsels, decided once at lower time.
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
        /// Zone-map access path chosen when a filter sits directly above.
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

    /// EXPLAIN-style rendering with resolved slots
    /// (`Filter: (price@0 > 2.5)`).
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
        for child in self.inputs() {
            child.explain_into(out, depth + 1);
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

// ----------------------------------------------------------------------
// Lowering
// ----------------------------------------------------------------------

/// Lower a logical plan into a slot-resolved physical plan. This is the
/// single compile step shared by the exact and differentiable executors:
/// schema propagation, column→slot resolution, function resolution and
/// scalar-subquery lowering all happen here, once.
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
    Ok(physical)
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
            let (mut inp, schema) = lower_node(input, catalog, udfs)?;
            let predicate = lower_expr(predicate, schema.as_ref(), catalog, udfs)?;
            // A filter directly over a base-table scan is the zone-map
            // access-path decision point: compile the eligible conjuncts
            // into a pruner (or record why none were eligible).
            if let PhysicalPlan::Scan {
                schema: scan_schema,
                access: access @ ScanAccess::Full,
                ..
            } = &mut inp
            {
                *access = if scan_schema.is_none() {
                    ScanAccess::Unpruned("schema-unresolved")
                } else {
                    match ChunkPruner::compile(&predicate) {
                        Ok(pruner) => ScanAccess::Pruned(pruner),
                        Err(reason) => ScanAccess::Unpruned(reason),
                    }
                };
            }
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
            if let Ok(shape) = ann_shape(&keys, &inp) {
                return Ok((lower_ann_topk(shape, *n, catalog), schema));
            }
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

/// Built-in scalar math functions (resolved after session UDFs).
pub(crate) fn builtin_scalar(name: &str) -> Option<ScalarFn> {
    let lower = name.to_ascii_lowercase();
    Some(match lower.as_str() {
        "abs" => ScalarFn::Unary(f32::abs),
        "round" => ScalarFn::Unary(f32::round),
        "floor" => ScalarFn::Unary(f32::floor),
        "ceil" | "ceiling" => ScalarFn::Unary(f32::ceil),
        "sqrt" => ScalarFn::Unary(f32::sqrt),
        "exp" => ScalarFn::Unary(f32::exp),
        "ln" => ScalarFn::Unary(f32::ln),
        "log10" => ScalarFn::Unary(f32::log10),
        "sign" => ScalarFn::Unary(sql_sign),
        "power" | "pow" => ScalarFn::Binary(f32::powf),
        // Vector similarity over an embedding column. `distance` is
        // ascending-better (squared L2); the other two descending-better.
        "distance" => ScalarFn::Vector(Metric::L2),
        "inner_product" => ScalarFn::Vector(Metric::InnerProduct),
        "cosine_sim" => ScalarFn::Vector(Metric::Cosine),
        _ => return None,
    })
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

/// A top-k the [`PhysicalPlan::AnnTopK`] leaf serves: `ORDER BY
/// <vector-fn>(col, q) LIMIT k` over a base-table scan, or over a pure
/// projection of one.
struct AnnShape<'p> {
    metric: Metric,
    table: &'p str,
    schema: &'p [String],
    /// The key column, mapped back to the scan through a projection.
    column: &'p ColumnRef,
    query: &'p CompiledExpr,
    /// The projection the leaf sits under, when there is one.
    reproject: Option<&'p [PhysProjectItem]>,
}

/// Whether `ORDER BY keys` over `input` is a vector top-k the ANN leaf
/// serves — decided once, here, for lowering and for EXPLAIN's TopK
/// line: the leaf's shape, or the named reason it stays a full-scan
/// TopK (`Err(None)`: no vector function in the keys, an ordinary
/// top-k).
///
/// The sort key may sit directly over the base scan, or over a pure
/// projection of it (the planner places Sort above Project whenever the
/// key's columns survive projection). Projection is per-row and pure, so
/// it commutes with top-k row selection: that shape lowers as
/// Project(AnnTopK) with the key column mapped back through the
/// projected item — which must be a bare base column.
fn ann_shape<'p>(
    keys: &'p [PhysOrderKey],
    input: &'p PhysicalPlan,
) -> Result<AnnShape<'p>, Option<&'static str>> {
    let vector = |e: &CompiledExpr| {
        let call = matches!(
            e,
            CompiledExpr::Builtin {
                func: ScalarFn::Vector(_),
                ..
            }
        );
        call.then_some(())
    };
    if keys
        .iter()
        .all(|k| k.expr.find_map(&mut |e| vector(e)).is_none())
    {
        return Err(None);
    }
    let [key] = keys else {
        return Err(Some("multiple-sort-keys"));
    };
    let CompiledExpr::Builtin {
        func: ScalarFn::Vector(metric),
        args,
        ..
    } = &key.expr
    else {
        return Err(Some("distance-not-topmost"));
    };
    let [CompiledExpr::Column(column @ ColumnRef::Slot { slot, .. }), query] = args.as_slice()
    else {
        return Err(Some("column-arg-unresolved"));
    };
    if !matches!(query, CompiledExpr::Param { .. } | CompiledExpr::Num(_)) {
        return Err(Some("query-not-param-or-literal"));
    }
    // `distance` selects nearest rows when ascending; the similarity
    // scores select best rows when descending. Any other direction is a
    // bottom-k query the index cannot serve.
    if key.desc != vector_fn_descends(*metric) {
        return Err(Some("wrong-direction"));
    }
    let (scan, column, reproject) = match input {
        PhysicalPlan::Project { items, input } => {
            let inner = match items.get(*slot).map(|i| &i.expr) {
                Some(CompiledExpr::Column(inner @ ColumnRef::Slot { .. })) => Some(inner),
                _ => None,
            };
            (input.as_ref(), inner, Some(items.as_slice()))
        }
        scan => (scan, Some(column), None),
    };
    let PhysicalPlan::Scan { table, schema, .. } = scan else {
        return Err(Some("input-not-base-scan"));
    };
    let Some(schema) = schema else {
        return Err(Some("schema-unresolved"));
    };
    let column = column.ok_or(Some("projected-key-not-base-column"))?;
    Ok(AnnShape {
        metric: *metric,
        table,
        schema,
        column,
        query,
        reproject,
    })
}

/// Lower an [`ann_shape`] to [`PhysicalPlan::AnnTopK`]. The path is
/// chosen here at compile time: a registered index on `(table, column)`
/// with a matching metric selects IVF; otherwise flat exact.
fn lower_ann_topk(shape: AnnShape<'_>, n: LimitCount, catalog: &Catalog) -> PhysicalPlan {
    let AnnShape {
        metric,
        table,
        schema,
        column,
        query,
        reproject,
    } = shape;
    let path = match catalog.vector_index(table, column.name()) {
        Some(entry) if entry.metric == metric => match &entry.index {
            tdp_storage::VectorIndex::Flat(_) => AnnPath::Flat,
            tdp_storage::VectorIndex::Ivf { params, nprobe, .. } => AnnPath::Ivf {
                nlist: params.nlist,
                nprobe: *nprobe,
            },
        },
        _ => AnnPath::Flat,
    };
    let ann = PhysicalPlan::AnnTopK {
        table: table.to_owned(),
        schema: schema.to_vec(),
        column: column.clone(),
        query: query.clone(),
        metric,
        n,
        path,
    };
    match reproject {
        None => ann,
        Some(items) => PhysicalPlan::Project {
            items: items.to_vec(),
            input: Box::new(ann),
        },
    }
}

/// Whether best-first order for this metric's SQL function is DESC.
fn vector_fn_descends(metric: Metric) -> bool {
    !matches!(metric, Metric::L2)
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

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::TableBuilder;

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
