//! Pipeline decomposition of physical plans — the morsel-driven execution
//! model (Leis et al., adapted to tensor-kernel operators).
//!
//! A [`PhysicalPlan`] is a tree of operators; most of them are
//! **streamable**: filters and projections transform each row
//! independently, so a scheduler can partition their input into morsels
//! (~64k-row horizontal slices) and run the *fused* filter→project chain
//! over every morsel concurrently. Other operators are **barriers**: an
//! aggregate, sort, join build, window or DISTINCT needs (a digest of)
//! all its input rows before it can emit anything.
//!
//! [`decompose`] walks the plan once and produces a [`PipeNode`] tree:
//!
//! * barrier-free `Filter`/`Project` runs fuse into one [`Pipeline`]
//!   (a chain of [`MorselOp`]s applied per morsel, source → sink);
//! * `Aggregate` terminates its pipeline with a **parallel partial
//!   aggregation** sink — every morsel folds into per-group partial
//!   states, merged by a deterministic combine step;
//! * `Limit` terminates its pipeline with an **early-exit** sink that
//!   stops claiming morsels once the contiguous output prefix holds
//!   enough rows;
//! * everything else becomes a [`PipeNode::Barrier`] executed on its
//!   materialised children.
//!
//! ## Staged barrier execution
//!
//! A barrier's *input* must be complete before it emits anything, but
//! its *work* still splits. Joins, ORDER BY, TopK and DISTINCT execute
//! as short stage sequences (chains → exchange → barrier stages, see
//! [`crate::morsel`]). The chain feeding one is itself a stage — each
//! morsel a row window over the scan's stored columns, filtered on a
//! worker, pruned morsels never scheduled and proven ones never
//! filtered — that hands over either a
//! gathered batch or a selection over columns kept **as stored**, which
//! the barrier reads at survivor rows only:
//!
//! * **Join** — an array program over integer key tensors: every key
//!   pair is normalised to two `i64` code columns in one shared code
//!   space (grouping codes; a dictionary pair maps the right
//!   dictionary's entries into the left's once; a mixed-class pair
//!   interns its textual renderings), each row's composite hash is
//!   computed **once** and reused by the exchange, the build and the
//!   probe; build-side positions are scattered into
//!   [`DEFAULT_PARTITIONS`] buckets, one flat table
//!   (`tdp_tensor::keytable`) is built per partition (shared-nothing),
//!   the probe survivors split evenly over the session's threads, each
//!   task reading its own range's keys, reassembled in range order, and
//!   the output columns are gathered as one claimed task per column;
//! * **Sort / TopK** — each morsel produces a sorted run (top-k runs
//!   for `ORDER BY … LIMIT`), k-way merged under the stable
//!   `(keys…, input position)` order;
//! * **DISTINCT** — the same codes, hash, exchange and table: each
//!   partition keeps the first row of every key (insert-if-absent), and
//!   the kept positions are swept back out in input order.
//!
//! Windows, TVFs and UNION ALL remain whole-batch. The partition count
//! is a constant ([`DEFAULT_PARTITIONS`]), independent of the worker
//! count, so staged barriers keep the determinism contract below.
//!
//! The decomposition is shared: [`execute`] — the one exact walker,
//! which plain runs, profiled runs and scalar subqueries all take — and
//! [`crate::diff::execute_diff`] both consume the same `PipeNode` tree.
//! The differentiable walker keeps only the operators it relaxes: it
//! hands every subtree off the tape to `exec_node`, and every exact
//! barrier it gates to `run_barrier`: a barrier runs in two halves —
//! materialise the inputs, then run the operator on them — and the
//! differentiable walker enters at the second. Results are bitwise identical across thread counts —
//! morsel boundaries depend only on [`crate::ExecContext::morsel_rows`],
//! never on the worker count.
//!
//! EXPLAIN's `== pipelines ==` section renders the decomposition with
//! each barrier's strategy resolved against the session:
//!
//! ```text
//! barrier Sort: total DESC [merge-sort]
//!   barrier Join: Inner ON k = k [partitioned ×16]
//!     pipeline [Filter] -> collect
//!       source Scan: orders
//!     source Scan: items
//! ```

use tdp_sql::ast::LimitCount;

use crate::access::MorselVerdict;
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::expr::{eval_expr, resolve_limit};
use crate::morsel::{self, ChainVerdict};
use crate::physical::{PhysAggregate, PhysKey, PhysProjectItem, PhysicalPlan, ScanAccess};
use crate::profile::Recorder;
use crate::udf::ExecContext;
use crate::verdict::Reason;

/// Default rows per morsel: large enough that per-morsel dispatch cost is
/// noise, small enough that a scan splits across a worker pool.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Default partition count for barrier exchanges (join build, DISTINCT).
/// A plan property, deliberately independent of the thread count:
/// partition assignment depends only on the key hash and this number, so
/// results cannot vary with the worker pool. 16 keeps every partition
/// busy on today's typical core counts without fragmenting small builds.
pub const DEFAULT_PARTITIONS: usize = 16;

/// One fused per-morsel operator. Borrowed from the compiled plan — the
/// decomposition adds no allocation beyond the chain vectors.
#[derive(Clone, Copy, Debug)]
pub enum MorselOp<'p> {
    Filter(&'p crate::physical::CompiledExpr),
    Project(&'p [PhysProjectItem]),
}

impl<'p> MorselOp<'p> {
    /// First hit of `f` over this op's expression nodes, each expression
    /// walked pre-order ([`crate::physical::CompiledExpr::find_map`]).
    pub(crate) fn find_map<T>(
        &self,
        f: &mut impl FnMut(&'p crate::physical::CompiledExpr) -> Option<T>,
    ) -> Option<T> {
        match self {
            MorselOp::Filter(pred) => pred.find_map(f),
            MorselOp::Project(items) => items.iter().find_map(|it| it.expr.find_map(f)),
        }
    }
}

/// A fused, barrier-free operator chain over a morsel source.
#[derive(Debug)]
pub struct Pipeline<'p> {
    /// Ops in source→sink order (applied left to right per morsel).
    pub ops: Vec<MorselOp<'p>>,
    /// Where the rows come from: a scan, or a materialised barrier.
    pub input: Box<PipeNode<'p>>,
}

/// A node of the pipeline decomposition.
#[derive(Debug)]
pub enum PipeNode<'p> {
    /// Leaf: a base-table scan (the canonical morsel source).
    Scan {
        table: &'p str,
        schema: Option<&'p [String]>,
        /// The access path `passes::access_paths` decided; a pipeline fed
        /// directly by a pruned scan consults it for per-morsel verdicts.
        access: &'p ScanAccess,
    },
    /// A pipeline whose sink is an order-preserving concat of morsel
    /// outputs.
    Stream(Pipeline<'p>),
    /// A pipeline terminated by LIMIT: morsel processing early-exits once
    /// the contiguous output prefix reaches `n` rows.
    Limit { n: LimitCount, pipe: Pipeline<'p> },
    /// A pipeline terminated by grouped aggregation: morsels fold into
    /// per-group partial states, merged by a combine step.
    Aggregate {
        keys: &'p [PhysKey],
        aggregates: &'p [PhysAggregate],
        pipe: Pipeline<'p>,
    },
    /// A barrier operator (sort, join, window, TVF, …), executed on its
    /// materialised children.
    Barrier {
        plan: &'p PhysicalPlan,
        inputs: Vec<PipeNode<'p>>,
    },
}

/// Decompose a physical plan into pipelines broken at barriers, fusing
/// barrier-free filter→project chains. Performed once per execution (it
/// only borrows the plan); both the scheduled exact executor and the
/// differentiable executor consume the result.
pub fn decompose(plan: &PhysicalPlan) -> PipeNode<'_> {
    match plan {
        PhysicalPlan::Scan {
            table,
            schema,
            access,
        } => PipeNode::Scan {
            table,
            schema: schema.as_deref(),
            access,
        },
        PhysicalPlan::Filter { predicate, input } => {
            extend_chain(decompose(input), MorselOp::Filter(predicate))
        }
        PhysicalPlan::Project { items, input } => {
            extend_chain(decompose(input), MorselOp::Project(items))
        }
        PhysicalPlan::Limit { n, input } => PipeNode::Limit {
            n: *n,
            pipe: into_pipeline(decompose(input)),
        },
        PhysicalPlan::Aggregate {
            keys,
            aggregates,
            input,
        } => PipeNode::Aggregate {
            keys,
            aggregates,
            pipe: into_pipeline(decompose(input)),
        },
        other => PipeNode::Barrier {
            plan: other,
            inputs: other.inputs().into_iter().map(decompose).collect(),
        },
    }
}

/// Append one morsel op to a node, fusing into an existing chain.
fn extend_chain<'p>(node: PipeNode<'p>, op: MorselOp<'p>) -> PipeNode<'p> {
    match node {
        PipeNode::Stream(mut pipe) => {
            pipe.ops.push(op);
            PipeNode::Stream(pipe)
        }
        other => PipeNode::Stream(Pipeline {
            ops: vec![op],
            input: Box::new(other),
        }),
    }
}

/// View a node as the pipeline feeding a sink (LIMIT / aggregate),
/// absorbing an existing fused chain.
fn into_pipeline(node: PipeNode<'_>) -> Pipeline<'_> {
    match node {
        PipeNode::Stream(pipe) => pipe,
        other => Pipeline {
            ops: Vec::new(),
            input: Box::new(other),
        },
    }
}

// ----------------------------------------------------------------------
// Rendering (EXPLAIN's pipeline section)
// ----------------------------------------------------------------------

/// Render the pipeline breakdown of a plan — fused chains, their sinks,
/// and the barriers between them — resolved against a session context:
/// each chain carries its static verdict (`[sequential:
/// udf-not-parallel-safe(f)]`, `[interpreted: udf(f)]`, `[compiled ×2
/// ops]`) and each staged barrier its staging verdict and hand-off
/// (`[merge-sort] [barrier: selection-fed]`), so fallbacks are observable
/// before running anything.
pub fn explain_ctx(plan: &PhysicalPlan, ctx: &ExecContext) -> String {
    let mut out = String::new();
    explain_node(&decompose(plan), ctx, &mut out, 0);
    out
}

/// The physical tree as EXPLAIN shows it: [`PhysicalPlan::explain`]'s
/// lines, with each scalar subquery's own plan as an indented block under
/// the operator that holds it — its operators, access paths and plan-pass
/// rewrites, then its pipelines resolved against `ctx`, the context the
/// subquery runs with. [`PhysicalPlan::fingerprint`] hashes the lines
/// without the blocks, so they do not move it.
pub fn explain_physical(plan: &PhysicalPlan, ctx: &ExecContext) -> String {
    let mut out = String::new();
    plan.explain_with(
        &mut out,
        0,
        Some(&mut |sub, out, depth| subquery_block(sub, ctx, out, depth)),
    );
    out
}

/// One scalar subquery's block at `depth`, nested subqueries included.
fn subquery_block(plan: &PhysicalPlan, ctx: &ExecContext, out: &mut String, depth: usize) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!("{pad}subquery fp:{:016x}\n", plan.fingerprint()));
    plan.explain_with(
        out,
        depth + 1,
        Some(&mut |sub, out, depth| subquery_block(sub, ctx, out, depth)),
    );
    out.push_str(&format!("{pad}  pipelines:\n"));
    explain_node(&decompose(plan), ctx, out, depth + 2);
}

/// EXPLAIN's verdict for a fused chain (and aggregate sink): what pins
/// it, else how the kernel would run it; nothing for an empty chain.
fn chain_note(
    ops: &[MorselOp<'_>],
    sink: Option<(&[PhysKey], &[PhysAggregate])>,
    ctx: &ExecContext,
) -> String {
    match ChainVerdict::of(ops, sink, ctx) {
        ChainVerdict::Pinned(why) => format!(" [sequential: {why}]"),
        ChainVerdict::Off(Reason::NoChain) => String::new(),
        ChainVerdict::Off(why) | ChainVerdict::Vetted(Err(why)) => format!(" [interpreted: {why}]"),
        ChainVerdict::Vetted(Ok(())) => format!(" [compiled ×{} ops]", ops.len()),
    }
}

fn chain_label(ops: &[MorselOp<'_>]) -> String {
    let rendered: Vec<&str> = ops
        .iter()
        .map(|op| match op {
            MorselOp::Filter(_) => "Filter",
            MorselOp::Project(_) => "Project",
        })
        .collect();
    format!("[{}]", rendered.join(" -> "))
}

fn explain_node(node: &PipeNode<'_>, ctx: &ExecContext, out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    match node {
        PipeNode::Scan { table, .. } => {
            out.push_str(&format!("source Scan: {table}\n"));
        }
        PipeNode::Stream(pipe) => {
            out.push_str(&format!(
                "pipeline {} -> collect{}\n",
                chain_label(&pipe.ops),
                chain_note(&pipe.ops, None, ctx)
            ));
            explain_node(&pipe.input, ctx, out, depth + 1);
        }
        PipeNode::Limit { n, pipe } => {
            out.push_str(&format!(
                "pipeline {} -> limit {n} (early exit){}\n",
                chain_label(&pipe.ops),
                chain_note(&pipe.ops, None, ctx)
            ));
            explain_node(&pipe.input, ctx, out, depth + 1);
        }
        PipeNode::Aggregate {
            keys,
            aggregates,
            pipe,
        } => {
            out.push_str(&format!(
                "pipeline {} -> partial aggregate ({} keys, {} aggs) + combine{}\n",
                chain_label(&pipe.ops),
                keys.len(),
                aggregates.len(),
                chain_note(&pipe.ops, Some((keys, aggregates)), ctx)
            ));
            explain_node(&pipe.input, ctx, out, depth + 1);
        }
        PipeNode::Barrier { plan, inputs } => {
            let label = plan.explain();
            let first = label.lines().next().unwrap_or("?").trim();
            out.push_str(&format!("barrier {first}"));
            if let Some((staged, keys)) = morsel::staged_form(plan) {
                // Before any input exists: an input that turns out to fit
                // one morsel still runs sequentially, as profiles report.
                let staging = morsel::staging(staged, keys, None, ctx);
                out.push_str(&format!(" [{staging}]"));
                // Whether its fused chain child hands over a selection or
                // gathers first. Sizing is a run-time property — a chain
                // that turns out to fit one morsel still gathers, which
                // profiles report as `gathered: single-morsel`.
                let chain = inputs.iter().find(|i| matches!(i, PipeNode::Stream(_)));
                if let Some(PipeNode::Stream(pipe)) = chain {
                    let refusal = ChainVerdict::of(&pipe.ops, None, ctx).refusal();
                    match morsel::gather_reason(&pipe.ops, refusal, ctx) {
                        None => out.push_str(" [barrier: selection-fed]"),
                        Some(why) => out.push_str(&format!(" [barrier: gathered: {why}]")),
                    }
                }
            }
            out.push('\n');
            for input in inputs {
                explain_node(input, ctx, out, depth + 1);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Scheduled execution
// ----------------------------------------------------------------------

/// Execute a physical plan through the morsel scheduler — the one exact
/// plan walker. With `ctx.threads == 1` every morsel runs on the calling
/// thread; higher thread counts only change *who* processes each morsel,
/// never the result. Scalar subqueries re-enter here with the caller's
/// context, and [`crate::profile::execute_profiled`] is this same walk
/// with a recorder attached.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<Batch, ExecError> {
    exec_node(&decompose(plan), ctx, None)
}

/// Execute one node of the decomposition. `rec` observes at **stage**
/// granularity only — a stage is entered before its inputs run and left
/// once its sink has produced output; nothing is recorded per morsel, so
/// a plain run (`None`) pays one branch per stage.
pub(crate) fn exec_node(
    node: &PipeNode<'_>,
    ctx: &ExecContext,
    mut rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    if let Some(r) = rec.as_deref_mut() {
        // Plan nodes fused into this stage: the chain plus its sink.
        r.enter(match node {
            PipeNode::Scan { .. } | PipeNode::Barrier { .. } => 1,
            PipeNode::Stream(pipe) => pipe.ops.len(),
            PipeNode::Limit { pipe, .. } | PipeNode::Aggregate { pipe, .. } => 1 + pipe.ops.len(),
        });
    }
    let out = match node {
        PipeNode::Scan { table, schema, .. } => exact::scan_table(table, *schema, ctx)?,
        PipeNode::Stream(pipe) => run_pipe(
            pipe,
            None,
            ctx,
            rec.as_deref_mut(),
            |input, chain, verdicts, _| morsel::run_ops(input, chain, None, verdicts, ctx),
        )?,
        PipeNode::Limit { n, pipe } => {
            let limit = resolve_limit(n, ctx)?;
            run_pipe(
                pipe,
                None,
                ctx,
                rec.as_deref_mut(),
                |input, chain, verdicts, _| {
                    morsel::run_ops(input, chain, Some(limit), verdicts, ctx)
                },
            )?
        }
        PipeNode::Aggregate {
            keys,
            aggregates,
            pipe,
        } => {
            let sink = Some((*keys, *aggregates));
            run_pipe(
                pipe,
                sink,
                ctx,
                rec.as_deref_mut(),
                |input, chain, verdicts, rec| {
                    morsel::run_aggregate(input, chain, keys, aggregates, verdicts, ctx, rec)
                },
            )?
        }
        PipeNode::Barrier { plan, inputs } => exec_barrier(plan, inputs, ctx, rec.as_deref_mut())?,
    };
    if let Some(r) = rec {
        r.exit(out.rows());
    }
    Ok(out)
}

/// Materialise a pipeline's source, resolve its fused chain against it
/// — morsel count, pinning reason, chain-kernel verdict, once — then
/// `run` the chain and sink over it, with the zone maps' per-morsel
/// verdicts when the source is a pruned base-table scan, and tell the
/// recorder how the chain was scheduled.
fn run_pipe<'a, T>(
    pipe: &'a Pipeline<'a>,
    sink: Option<(&'a [PhysKey], &'a [PhysAggregate])>,
    ctx: &'a ExecContext,
    mut rec: Option<&mut Recorder>,
    run: impl FnOnce(
        &Batch,
        &morsel::ChainRun<'a>,
        Option<&[MorselVerdict]>,
        Option<&mut Recorder>,
    ) -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    let input = exec_node(&pipe.input, ctx, rec.as_deref_mut())?;
    let verdicts = scan_verdicts(pipe, input.rows(), ctx);
    let chain = morsel::ChainRun::resolve(&input, &pipe.ops, sink, ctx);
    let out = run(&input, &chain, verdicts.as_deref(), rec.as_deref_mut())?;
    if let Some(r) = rec {
        r.note_chain(&chain);
    }
    Ok(out)
}

/// Zone-map verdicts for a pipeline fed directly by a pruned base-table
/// scan: one per morsel, `Pruned` = every row of that morsel is provably
/// excluded by the compiled filter conjuncts, `Proven` = every row
/// provably passes the chain's filter. A proof speaks for the leading
/// filter only, so a chain that filters again further on gets none.
/// `None` when pruning is off (`ctx.zone_maps`), the source is not a
/// pruned scan, or no zone map exists for the table. The verdicts
/// themselves handle stale stats and unresolvable bounds conservatively
/// (nothing skipped, nothing proven).
fn scan_verdicts(
    pipe: &Pipeline<'_>,
    rows: usize,
    ctx: &ExecContext,
) -> Option<Vec<MorselVerdict>> {
    if !ctx.zone_maps {
        return None;
    }
    let PipeNode::Scan {
        table,
        access: ScanAccess::Pruned(pruner),
        ..
    } = &*pipe.input
    else {
        return None;
    };
    let zm = ctx.catalog.zone_map(table)?;
    let mut verdicts = pruner.verdicts(&zm, rows, ctx.morsel_rows, &ctx.params);
    let filters = pipe
        .ops
        .iter()
        .filter(|op| matches!(op, MorselOp::Filter(_)));
    if filters.count() > 1 {
        for v in verdicts.iter_mut().filter(|v| **v == MorselVerdict::Proven) {
            *v = MorselVerdict::Evaluate;
        }
    }
    Some(verdicts)
}

/// Materialise (or selection-feed) one barrier child. A Stream child —
/// a fused filter→project chain — is its own stage, given the chance to
/// hand its stored columns plus survivor ids straight to the barrier;
/// every other child executes normally and arrives as a dense batch.
fn barrier_input<'a>(
    node: &'a PipeNode<'a>,
    ctx: &'a ExecContext,
    mut rec: Option<&mut Recorder>,
) -> Result<morsel::BarrierInput<'a>, ExecError> {
    let PipeNode::Stream(pipe) = node else {
        let batch = exec_node(node, ctx, rec)?;
        return Ok(morsel::BarrierInput::gathered(batch, None));
    };
    if let Some(r) = rec.as_deref_mut() {
        r.enter(pipe.ops.len());
    }
    let out = run_pipe(
        pipe,
        None,
        ctx,
        rec.as_deref_mut(),
        |input, chain, verdicts, _| morsel::chain_barrier_input(input, chain, verdicts, ctx),
    )?;
    if let Some(r) = rec {
        r.exit_chain(&out);
    }
    Ok(out)
}

/// Execute a barrier operator over its children (the caller has opened
/// the barrier's stage and closes it): materialise its inputs, then run
/// it on them.
fn exec_barrier(
    plan: &PhysicalPlan,
    inputs: &[PipeNode<'_>],
    ctx: &ExecContext,
    mut rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    // Staged barriers — join, ORDER BY, TopK and DISTINCT — read a chain
    // child's selection; every other barrier reads dense batches.
    let selection_fed = morsel::staged_form(plan).is_some();
    let mut materialised = Vec::with_capacity(inputs.len());
    for input in inputs {
        let rec = rec.as_deref_mut();
        materialised.push(match selection_fed {
            true => barrier_input(input, ctx, rec)?,
            false => morsel::BarrierInput::gathered(exec_node(input, ctx, rec)?, None),
        });
    }
    run_barrier(plan, materialised, ctx, rec)
}

/// Run a barrier operator on its materialised inputs, one per child in
/// plan order. The differentiable walker hands its gated exact batches
/// to the same entry point. Streamable operators never reach here.
pub(crate) fn run_barrier(
    plan: &PhysicalPlan,
    inputs: Vec<morsel::BarrierInput<'_>>,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let mut inputs = inputs.into_iter();
    let mut next = || inputs.next().expect("one input per barrier child");
    match plan {
        PhysicalPlan::TvfScan { name, schema, .. } => {
            let inp = next().into_gathered();
            let tvf = ctx.udfs.table_fn(name)?.clone();
            let out = tvf.invoke_table(&inp, ctx)?;
            crate::udf::check_tvf_output(name, schema.as_deref(), &out)?;
            Ok(out)
        }
        PhysicalPlan::TvfProject {
            name, args, schema, ..
        } => {
            let inp = next().into_gathered();
            let tvf = ctx.udfs.table_fn(name)?.clone();
            let mut arg_values = Vec::with_capacity(args.len());
            for a in args {
                arg_values.push(eval_expr(a, &inp, ctx)?.into_arg());
            }
            let out = tvf.invoke_cols(&arg_values, ctx)?;
            crate::udf::check_tvf_output(name, schema.as_deref(), &out)?;
            Ok(out)
        }
        PhysicalPlan::Join { kind, on, .. } => {
            let (l, r) = (next(), next());
            morsel::run_join(l, r, *kind, on, ctx, rec)
        }
        PhysicalPlan::Sort { keys, .. } => morsel::run_sort(next(), keys, None, ctx, rec),
        PhysicalPlan::TopK { keys, n, .. } => {
            let k = resolve_limit(n, ctx)?;
            morsel::run_sort(next(), keys, Some(k), ctx, rec)
        }
        PhysicalPlan::Window { windows, .. } => {
            exact::window_batch(&next().into_gathered(), windows, ctx)
        }
        PhysicalPlan::Distinct { .. } => morsel::run_distinct(next(), ctx, rec),
        PhysicalPlan::UnionAll { .. } => {
            let (l, r) = (next().into_gathered(), next().into_gathered());
            exact::union_all_batches(&l, &r)
        }
        PhysicalPlan::AnnTopK {
            table,
            schema,
            column,
            query,
            metric,
            n,
            path,
        } => exact::ann_topk(table, schema, column, query, *metric, n, path, ctx),
        // Streamable operators are fused into pipelines by `decompose`.
        PhysicalPlan::Scan { .. }
        | PhysicalPlan::Filter { .. }
        | PhysicalPlan::Project { .. }
        | PhysicalPlan::Aggregate { .. }
        | PhysicalPlan::Limit { .. } => {
            unreachable!("streamable operator reached the barrier executor")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::lower;
    use crate::udf::UdfRegistry;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::{Catalog, TableBuilder};

    fn setup() -> Catalog {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("v", (0..100).map(|i| i as f32).collect())
                .col_i64("k", (0..100).map(|i| i % 5).collect())
                .build("t"),
        );
        catalog
    }

    fn compile(catalog: &Catalog, sql: &str) -> PhysicalPlan {
        let udfs = UdfRegistry::new();
        let plan = optimizer::optimize(
            build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
        );
        lower(&plan, catalog, &udfs).unwrap()
    }

    #[test]
    fn filter_project_chains_fuse() {
        let c = setup();
        let plan = compile(&c, "SELECT v * 2 AS d FROM t WHERE v > 10");
        let node = decompose(&plan);
        match node {
            PipeNode::Stream(pipe) => {
                assert_eq!(pipe.ops.len(), 2, "filter and project fuse into one chain");
                assert!(matches!(pipe.ops[0], MorselOp::Filter(_)));
                assert!(matches!(pipe.ops[1], MorselOp::Project(_)));
                assert!(matches!(*pipe.input, PipeNode::Scan { .. }));
            }
            other => panic!("expected fused stream, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_breaks_the_pipeline() {
        let c = setup();
        let plan = compile(&c, "SELECT k, COUNT(*) FROM t WHERE v > 10 GROUP BY k");
        match decompose(&plan) {
            PipeNode::Aggregate { pipe, .. } => {
                assert_eq!(pipe.ops.len(), 1, "the filter fuses below the aggregate");
                assert!(matches!(*pipe.input, PipeNode::Scan { .. }));
            }
            other => panic!("expected aggregate sink, got {other:?}"),
        }
    }

    #[test]
    fn sort_is_a_barrier() {
        let c = setup();
        let plan = compile(&c, "SELECT v FROM t WHERE v > 10 ORDER BY v");
        // Sort sits on top; the filter chain streams below it.
        match decompose(&plan) {
            PipeNode::Barrier { plan, inputs } => {
                assert!(matches!(plan, PhysicalPlan::Sort { .. }));
                assert!(matches!(inputs[0], PipeNode::Stream(_)));
            }
            other => panic!("expected sort barrier, got {other:?}"),
        }
    }

    #[test]
    fn explain_renders_chains_and_barriers() {
        let c = setup();
        let udfs = UdfRegistry::new();
        let text = explain_ctx(
            &compile(
                &c,
                "SELECT k, COUNT(*) FROM t WHERE v > 10 GROUP BY k ORDER BY k",
            ),
            &ExecContext::new(&c, &udfs),
        );
        assert!(text.contains("barrier Sort"), "{text}");
        assert!(text.contains("partial aggregate"), "{text}");
        assert!(text.contains("[Filter]"), "{text}");
        assert!(text.contains("source Scan: t"), "{text}");
    }

    #[test]
    fn limit_sink_carries_early_exit() {
        let c = setup();
        let plan = compile(&c, "SELECT v FROM t WHERE v > 3 LIMIT 7");
        match decompose(&plan) {
            PipeNode::Limit { n, pipe } => {
                assert_eq!(n, LimitCount::Const(7));
                assert!(!pipe.ops.is_empty());
            }
            other => panic!("expected limit sink, got {other:?}"),
        }
        let udfs = UdfRegistry::new();
        let text = explain_ctx(&plan, &ExecContext::new(&c, &udfs));
        assert!(text.contains("limit 7 (early exit)"), "{text}");
    }
}
