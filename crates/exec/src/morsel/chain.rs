//! Fused filter→project chains: the parallel-safety analysis that
//! decides whether a chain may leave the session thread, the per-run
//! resolution of a chain ([`ChainRun`]: morsel count, pinning reason,
//! chain-kernel verdict — computed once at the execution boundary and
//! shared by every path that runs or describes the chain), the streaming
//! run with its optional LIMIT sink ([`run_ops`]), and the chain→barrier
//! hand-off ([`chain_barrier_input`]: selection exit or gathered).
//!
//! Nothing here runs ahead of the workers: a multi-morsel chain is a
//! stage whose tasks address their morsel as a row window over the
//! input's own stored columns (`apply_window`, `selection_exit`), over
//! the unpruned morsels only; the session thread concatenates parts or
//! stitches window-local selections, and that is all.

use super::sched::{
    claim_eval, from_cols, live_windows, num_morsels, slice_cols, to_cols, MorselCols, StopAfter,
};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::expr::eval_expr;
use crate::kernel::{self, ChainInstance, Refusal, SelVec};
use crate::memory;
use crate::params::ParamValue;
use crate::physical::{CompiledExpr, PhysAggregate, PhysKey};
use crate::pipeline::MorselOp;
use crate::udf::ExecContext;
use tdp_encoding::EncodedTensor;
use tdp_tensor::I64Tensor;

// ----------------------------------------------------------------------
// Parallel-safety analysis
// ----------------------------------------------------------------------

/// Why an expression must stay on the session thread — the first reason
/// in pre-order; `None` = parallel-safe. Session UDFs without a
/// `parallel_safe` declaration (and built-ins currently shadowed by
/// one) may hold non-`Send` parameters; scalar subqueries execute
/// nested plans against the session; tensor bindings are row-aligned
/// with the *whole* input, not a morsel of it. UDFs registered through
/// [`crate::udf::UdfRegistry::register_scalar_parallel`] with a
/// `parallel_safe` spec cross threads freely.
pub(super) fn expr_fallback(e: &CompiledExpr, ctx: &ExecContext) -> Option<String> {
    e.find_map(&mut |node| node_fallback(node, ctx))
}

fn node_fallback(node: &CompiledExpr, ctx: &ExecContext) -> Option<String> {
    match node {
        CompiledExpr::Udf { name, .. } if !ctx.udfs.is_parallel_safe_scalar(name) => {
            Some(format!("udf-not-parallel-safe({name})"))
        }
        // A session UDF registered after lowering shadows the built-in
        // at evaluation time; the shadow decides.
        CompiledExpr::Builtin { name, .. }
            if ctx.udfs.is_scalar(name) && !ctx.udfs.is_parallel_safe_scalar(name) =>
        {
            Some(format!("udf-not-parallel-safe({name})"))
        }
        CompiledExpr::ScalarSubquery(_) => Some("scalar-subquery".into()),
        CompiledExpr::Param { idx } => matches!(ctx.params.get(*idx), Some(ParamValue::Tensor(_)))
            .then(|| format!("tensor-param(${})", idx + 1)),
        _ => None,
    }
}

/// First reason the aggregate sink cannot fold morsels in parallel.
fn aggregate_fallback(
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    ctx: &ExecContext,
) -> Option<String> {
    keys.iter()
        .find_map(|k| expr_fallback(&k.expr, ctx))
        .or_else(|| {
            aggregates.iter().find_map(|a| {
                // COUNT(DISTINCT …) needs a cross-morsel value set; it
                // stays on the sequential path.
                if a.func == tdp_sql::ast::AggFunc::CountDistinct {
                    return Some("count-distinct".into());
                }
                a.arg.as_ref().and_then(|e| expr_fallback(e, ctx))
            })
        })
}

/// First reason a fused chain (and optional aggregate sink) cannot leave
/// the session thread — the single source of truth for the sequential
/// fallback, reported by EXPLAIN and profiled runs so fallbacks are
/// observable instead of silent. `None` = the chain is parallel-safe.
pub(crate) fn chain_fallback_reason(
    ops: &[MorselOp<'_>],
    sink: Option<(&[PhysKey], &[PhysAggregate])>,
    ctx: &ExecContext,
) -> Option<String> {
    ops.iter()
        .find_map(|op| op.find_map(&mut |node| node_fallback(node, ctx)))
        .or_else(|| sink.and_then(|(keys, aggs)| aggregate_fallback(keys, aggs, ctx)))
}

// ----------------------------------------------------------------------
// One chain, resolved once per execution
// ----------------------------------------------------------------------

/// A fused chain (and optional aggregate sink) resolved against one
/// materialised input and one context — built once per chain per
/// execution by the plan walker, then shared by whichever of
/// [`run_ops`], [`chain_barrier_input`] and
/// [`super::run_aggregate`] runs it and by the recorder that describes
/// it, so none of them re-derives a verdict. Unlike
/// [`chain_fallback_reason`] this sees the input, so it also covers
/// differentiable batches flowing out of trainable TVFs.
pub(crate) struct ChainRun<'a> {
    pub(super) ops: &'a [MorselOp<'a>],
    /// Morsels the input splits into; 1 when the chain is pinned.
    pub(crate) morsels: usize,
    /// Why the chain stays whole-batch on the session thread (`None` =
    /// morsel-parallel).
    pub(crate) seq_reason: Option<String>,
    /// The chain-kernel verdict: the bound kernel, or why the interpreter
    /// runs the chain — what pins it, `no-chain` when there is nothing
    /// to run, else the kernel's own vet- or bind-time refusal.
    kernel: Result<ChainInstance<'a>, Refusal>,
}

impl<'a> ChainRun<'a> {
    pub(crate) fn resolve(
        input: &Batch,
        ops: &'a [MorselOp<'a>],
        sink: Option<(&[PhysKey], &[PhysAggregate])>,
        ctx: &'a ExecContext,
    ) -> ChainRun<'a> {
        let seq_reason = if input.has_diff() {
            Some("differentiable-input".into())
        } else {
            chain_fallback_reason(ops, sink, ctx)
        };
        let morsels = match seq_reason {
            Some(_) => 1,
            None => num_morsels(input.rows(), ctx.morsel_rows),
        };
        // Chains pinned to the session thread keep the plain
        // interpreter; otherwise bind the chain kernel, once.
        let kernel = match &seq_reason {
            Some(reason) if input.has_diff() => Err(Refusal::Run(reason.clone())),
            Some(reason) => Err(Refusal::Plan(reason.clone())),
            None if ops.is_empty() => Err(Refusal::Plan("no-chain".into())),
            None => kernel::bind(ops, ctx),
        };
        ChainRun {
            ops,
            morsels,
            seq_reason,
            kernel,
        }
    }

    /// The bound chain kernel, when the chain runs compiled.
    pub(super) fn kern(&self) -> Option<&ChainInstance<'a>> {
        self.kernel.as_ref().ok()
    }

    /// Chain-kernel verdict for the chain's trace: `"compiled"` when it
    /// runs on the kernel, otherwise `"interpreted: <reason>"`; `None`
    /// for an empty chain. Sequential-path chains report their pinning
    /// reason as the interpretation reason —
    /// `interpreted: udf-not-parallel-safe(f)`.
    pub(crate) fn strategy_note(&self) -> Option<String> {
        if self.ops.is_empty() {
            return None;
        }
        Some(match &self.kernel {
            Ok(_) => "compiled".into(),
            Err(refusal) => format!("interpreted: {}", refusal.reason()),
        })
    }

    /// The kernel a barrier's selection exit runs, or the named reason
    /// the barrier consumes a gathered batch instead: EXPLAIN's verdict
    /// first, in EXPLAIN's order ([`kernel::selection_decline`]), then
    /// what only a run sees: the input's size, its bindings, its
    /// differentiable columns.
    pub(crate) fn selection_kernel(
        &self,
        input: &Batch,
        ctx: &ExecContext,
    ) -> Result<&ChainInstance<'a>, String> {
        kernel::selection_decline(self.ops, ctx, || match &self.kernel {
            Err(Refusal::Plan(reason)) => Some(reason.clone()),
            _ => None,
        })?;
        if num_morsels(input.rows(), ctx.morsel_rows) <= 1 {
            return Err("single-morsel".into());
        }
        match &self.kernel {
            Ok(kern) => Ok(kern),
            // The kernel bails on differentiable columns; a binding with
            // no scalar form leaves no kernel to run.
            Err(_) if input.has_diff() => Err("kernel-bailout".into()),
            Err(_) => Err("kernel-compile".into()),
        }
    }

    /// Apply the chain to an input it is not split over (`morsels <= 1`),
    /// on the session thread. An input that fits one morsel is the
    /// one-window case `0..rows` of [`ChainRun::apply_window`], kernel
    /// and interpreter re-run alike; only a pinned chain (`seq_reason`)
    /// has no window form: the interpreter over the whole batch, with the
    /// session's context. A skip mask describing exactly this input as
    /// one morsel applies either way — pruning depends on zone maps and
    /// the predicate, not on scheduling — and makes it its empty window:
    /// the chain still runs, so schema, encodings and errors match the
    /// unpruned run.
    pub(super) fn apply(
        &self,
        input: &Batch,
        skip: Option<&[bool]>,
        ctx: &ExecContext,
    ) -> Result<Batch, ExecError> {
        let one = num_morsels(input.rows(), ctx.morsel_rows) == 1;
        let skip = skip.filter(|s| s.len() == 1 && one);
        if let Some(s) = skip {
            ctx.access.note_morsels(s[0] as u64, !s[0] as u64);
        }
        let end = match skip {
            Some([true]) => 0,
            _ => input.rows(),
        };
        match (&self.seq_reason, end) {
            (None, _) => Ok(from_cols(self.apply_window(
                &to_cols(input),
                0,
                end,
                ctx,
            )?)),
            (Some(_), 0) => apply_ops(input.slice_rows(0, 0), self.ops, ctx),
            (Some(_), _) => apply_ops(input.clone(), self.ops, ctx),
        }
    }

    /// Apply the chain to rows `start..end` of a stage's input columns —
    /// one window of the gather exit: the kernel runs it when it can,
    /// addressing the window in place; any bail-out (or no kernel)
    /// re-runs the interpreter over the window's slice, which reproduces
    /// the identical result (or the identical error).
    pub(super) fn apply_window(
        &self,
        cols: &[(String, EncodedTensor)],
        start: usize,
        end: usize,
        ctx: &ExecContext,
    ) -> Result<MorselCols, ExecError> {
        let kern = self.kern();
        if let Some(out) = kern.and_then(|k| k.run_window(cols, start, end, ctx)) {
            return Ok(out);
        }
        let (batch, _slice) = slice_cols(cols, start, end, "morsel materialization", ctx)?;
        Ok(to_cols(&apply_ops(batch, self.ops, ctx)?))
    }
}

/// Apply a fused operator chain to one (morsel) batch, interpreted.
pub(super) fn apply_ops(
    mut batch: Batch,
    ops: &[MorselOp<'_>],
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    for op in ops {
        batch = match op {
            MorselOp::Filter(pred) => {
                let mask = eval_expr(pred, &batch, ctx)?.into_mask(batch.rows())?;
                exact::filter_batch(&batch, &mask)
            }
            MorselOp::Project(items) => exact::project_batch(&batch, items, ctx)?,
        };
    }
    Ok(batch)
}

// ----------------------------------------------------------------------
// Streaming run (collect / LIMIT sinks)
// ----------------------------------------------------------------------

/// Run a fused chain over a materialised input, morsel-parallel where
/// safe, with an optional LIMIT sink (early exit + truncation) and an
/// optional zone-map skip mask (`skip[i]` = morsel `i` provably produces
/// no rows under the chain's leading filter, so it is not scheduled);
/// a task's morsel is a row window over the input's own columns
/// ([`ChainRun::apply_window`]). Pruning never changes results.
pub(crate) fn run_ops(
    input: &Batch,
    chain: &ChainRun<'_>,
    limit: Option<usize>,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let rows = input.rows();
    let morsels = chain.morsels;
    // Single-morsel inputs, unsafe chains and differentiable inputs run
    // on the session thread — identical at every thread count.
    if morsels <= 1 {
        let out = chain.apply(input, skip, ctx)?;
        return Ok(match limit {
            Some(n) => out.head(n),
            None => out,
        });
    }

    let cols = to_cols(input);
    // Every morsel's output, charged until reassembly returns.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    let skip = skip.filter(|s| s.len() == morsels);
    let windows = live_windows(skip, ctx.morsel_rows, rows);
    // Entries past a LIMIT stop bound stay `None`.
    let stop = limit.map(|rows| StopAfter {
        rows,
        rows_of: |c: &MorselCols| c.first().map_or(0, |(_, t)| t.rows()),
    });
    // A chain without a filter emits every row it reads, so its first
    // window sizes the whole stage and charges all of it: a query that
    // cannot hold its output is refused with none of it on its ledger,
    // not after growing window by window to the budget its neighbours
    // share.
    let filters = chain.ops.iter().any(|op| matches!(op, MorselOp::Filter(_)));
    let whole = (limit.is_none() && !filters).then_some(rows as u64);
    let results = claim_eval(windows.len(), ctx, stop, |j, wctx| {
        let (start, end) = windows[j];
        let out = chain.apply_window(&cols, start, end, wctx)?;
        let bytes = memory::cols_bytes(&out);
        match whole {
            None => charges.add("morsel output", bytes)?,
            Some(rows) if j == 0 => {
                charges.add("morsel output", bytes * rows / (end - start).max(1) as u64)?
            }
            Some(_) => {}
        }
        Ok(out)
    })?;

    // Order-preserving reassembly; with a LIMIT sink, take the shortest
    // morsel prefix that covers `n` rows and truncate.
    let mut parts: Vec<Batch> = Vec::new();
    let mut have = 0usize;
    for r in results {
        let part = from_cols(r.expect("prefix morsels are always processed"));
        have += part.rows();
        parts.push(part);
        if limit.is_some_and(|n| have >= n) {
            break;
        }
    }
    if let Some(s) = skip {
        // Pruned morsels were never scheduled. Scanned = the live windows
        // reassembly consumed — a plan property: windows a racing worker
        // finished past a LIMIT stop bound do not count, and the empty
        // window of an all-pruned stage is no morsel.
        let pruned = s.iter().filter(|&&b| b).count();
        let scanned = parts.len().min(s.len() - pruned);
        ctx.access.note_morsels(pruned as u64, scanned as u64);
    }
    let out = Batch::concat(&parts);
    Ok(match limit {
        Some(n) => out.head(n),
        None => out,
    })
}

// ----------------------------------------------------------------------
// Selection-fed barrier inputs (late materialization)
// ----------------------------------------------------------------------

/// Survivor-fraction bound for demoting a selection mask to an index
/// list at a chain→barrier hand-off: demote only when at most rows/4
/// survive. The kernel's internal rows/2 bound is tuned for
/// intersecting *further conjuncts*; barrier consumers instead replace
/// branchless full-width passes (masked folds, sequential filters) with
/// per-survivor indexed reads, which only pays off when survivors are
/// genuinely sparse.
const HANDOFF_IDX_DIVISOR: usize = 4;

/// A chain's selection exit, as every barrier consumes it: the chain's
/// output columns (the input's stored columns, remapped, never copied)
/// and the selection over them. One stage over the morsels the zone
/// maps left, each task evaluating the chain's filters over its row
/// window with its worker's context ([`ChainInstance::select_window`]).
/// The window-local selections are stitched here, in morsel order, into
/// the one global `SelVec` consumers walk: a survivor index list when
/// at most `rows / HANDOFF_IDX_DIVISOR` rows survive **in total**, else
/// a mask — however survivors spread over morsels. Third comes the
/// survivor-count prefix over *input* morsel boundaries: morsel `i`'s
/// survivors occupy `[offs[i], offs[i + 1])` in selection space. `None`
/// = the kernel bailed at run time, in any task.
pub(super) fn selection_exit(
    input: &Batch,
    kern: &ChainInstance<'_>,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<Option<(MorselCols, SelVec, Vec<usize>)>, ExecError> {
    let (rows, morsel_rows) = (input.rows(), ctx.morsel_rows);
    let src = to_cols(input);
    // Global row ids are `u32`: a wider input has no selection form.
    let Some(cols) = kern
        .selection_cols(&src)
        .filter(|_| rows <= u32::MAX as usize)
    else {
        return Ok(None);
    };
    let morsels = num_morsels(rows, morsel_rows);
    let windows = live_windows(skip, morsel_rows, rows);
    let locals = claim_eval(windows.len(), ctx, None, |j, wctx| {
        let (start, end) = windows[j];
        // Demoted in the task, in parallel: the stitch copies ids.
        Ok(kern.select_window(&src, start, end, wctx).map(|sv| {
            match sv.len() * HANDOFF_IDX_DIVISOR <= end - start {
                true => SelVec::Idx(sv.into_idx()),
                false => sv,
            }
        }))
    })?;
    let Some(locals) = locals
        .into_iter()
        .flatten()
        .collect::<Option<Vec<SelVec>>>()
    else {
        return Ok(None);
    };
    let mut offs = vec![0; morsels + 1];
    for ((start, _), local) in windows.iter().zip(&locals) {
        offs[start / morsel_rows + 1] = local.len();
    }
    for i in 0..morsels {
        offs[i + 1] += offs[i];
    }
    let survivors = offs[morsels];
    let locals = windows.iter().map(|&(start, _)| start).zip(locals);
    let sel = if survivors * HANDOFF_IDX_DIVISOR <= rows {
        let mut idx = Vec::with_capacity(survivors);
        for (start, local) in locals {
            idx.extend(local.into_idx().into_iter().map(|r| start as u32 + r));
        }
        SelVec::Idx(idx)
    } else {
        let mut mask = vec![false; rows];
        for (start, local) in locals {
            match local {
                SelVec::Mask(m, _) => mask[start..start + m.len()].copy_from_slice(&m),
                SelVec::Idx(s) => s.iter().for_each(|&r| mask[start + r as usize] = true),
            }
        }
        SelVec::Mask(mask, survivors)
    };
    Ok(Some((cols, sel, offs)))
}

/// Account a selection exit's zone-map outcome: the chain never touched
/// the pruned morsels' rows.
pub(super) fn note_skipped(skip: Option<&[bool]>, ctx: &ExecContext) {
    if let Some(s) = skip {
        let pruned = s.iter().filter(|&&b| b).count();
        ctx.access
            .note_morsels(pruned as u64, (s.len() - pruned) as u64);
    }
}

/// A chain's selection-exit hand-off: the (remapped, still full-width)
/// output columns plus the surviving-row selection, consumed by the
/// barrier `run_*` entry points through [`BarrierInput::Selected`]. The
/// single payload gather the gathered path performs per morsel is
/// deferred to the barrier's own assembly step, so memory charges scale
/// with survivors, not morsel width.
pub(crate) struct SelScan {
    /// Chain output columns at full input width, **as stored**. Values
    /// are read at survivor rows through [`EncodedTensor::select_rows`]
    /// ([`SelScan::gather`], key extraction, the join assembly), which
    /// hands integer-compressed layouts over as plain `i64`: the bytes
    /// the gathered path's per-morsel windows produce.
    pub(super) batch: Batch,
    pub(super) sel: SelVec,
    /// Human-readable density note (`3% dense→sparse`) for profiles.
    density: String,
    /// Holds the selection-vector bytes on the query's ledger for the
    /// scan's lifetime.
    _charge: memory::ChargeGuard,
}

impl SelScan {
    /// Global surviving row ids, ascending.
    pub(super) fn ids(&self) -> I64Tensor {
        self.sel.ids(0)
    }

    /// The deferred gather: every column read at the global row ids
    /// `idx` (survivors, in whatever order the barrier emits them).
    pub(super) fn gather(&self, idx: &I64Tensor) -> Batch {
        exact::select_batch(&self.batch, idx)
    }
}

/// One barrier input: either a densely materialized batch (with the
/// named reason selection was declined, when a chain was a candidate)
/// or a live selection over full-width chain output.
pub(crate) enum BarrierInput {
    Gathered(Batch, Option<String>),
    Selected(SelScan),
}

impl BarrierInput {
    /// Logical (post-filter) row count.
    pub(crate) fn rows_out(&self) -> usize {
        match self {
            BarrierInput::Gathered(b, _) => b.rows(),
            BarrierInput::Selected(s) => s.sel.len(),
        }
    }

    pub(super) fn has_diff(&self) -> bool {
        match self {
            BarrierInput::Gathered(b, _) => b.has_diff(),
            // Selection-exit chains bail on differentiable inputs.
            BarrierInput::Selected(_) => false,
        }
    }

    pub(super) fn columns_len(&self) -> usize {
        match self {
            BarrierInput::Gathered(b, _) => b.columns().len(),
            BarrierInput::Selected(s) => s.batch.columns().len(),
        }
    }

    pub(super) fn into_gathered(self) -> Batch {
        match self {
            BarrierInput::Gathered(b, _) => b,
            BarrierInput::Selected(s) => s.gather(&s.ids()),
        }
    }

    /// The profile note for this input: `selection-fed (3% dense→sparse)`
    /// or `gathered: <reason>`; `None` when no chain was in play.
    pub(crate) fn note(&self) -> Option<String> {
        match self {
            BarrierInput::Selected(s) => Some(format!("selection-fed ({})", s.density)),
            BarrierInput::Gathered(_, Some(reason)) => Some(format!("gathered: {reason}")),
            BarrierInput::Gathered(_, None) => None,
        }
    }

    /// Selection density note (`3% dense→sparse`) when selection-fed.
    pub(crate) fn density(&self) -> Option<&str> {
        match self {
            BarrierInput::Selected(s) => Some(&s.density),
            BarrierInput::Gathered(..) => None,
        }
    }
}

/// Build a barrier's input from its upstream chain: selection exit when
/// the chain supports it, otherwise the ordinary gathered morsel run
/// with the named decline reason attached. The one place the
/// selection-fed / gathered barrier counters tick, so plain and
/// profiled executions account identically.
pub(crate) fn chain_barrier_input(
    input: &Batch,
    chain: &ChainRun<'_>,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<BarrierInput, ExecError> {
    Ok(match selection_scan(input, chain, skip, ctx)? {
        Ok(scan) => {
            ctx.access.note_barrier_selection_fed();
            BarrierInput::Selected(scan)
        }
        Err(reason) => {
            ctx.access.note_barrier_gathered();
            let batch = run_ops(input, chain, None, skip, ctx)?;
            BarrierInput::Gathered(batch, Some(reason))
        }
    })
}

/// Run a barrier's upstream chain in selection exit mode. `Err` carries
/// the named decline reason (verdict, capability, sizing, bail-out); the
/// caller then takes the gathered path, which does its own zone-map
/// accounting — morsel counters are only recorded here on success.
fn selection_scan(
    input: &Batch,
    chain: &ChainRun<'_>,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<Result<SelScan, String>, ExecError> {
    let kern = match chain.selection_kernel(input, ctx) {
        Ok(kern) => kern,
        Err(reason) => return Ok(Err(reason)),
    };
    let skip = skip.filter(|s| s.len() == chain.morsels);
    let Some((cols, sel, _)) = selection_exit(input, kern, skip, ctx)? else {
        return Ok(Err("kernel-bailout".into()));
    };
    note_skipped(skip, ctx);
    let (rows, survivors) = (input.rows(), sel.len());
    let charge = memory::charge(&ctx.memory, "selection vector", (survivors as u64 + 1) * 8)?;
    let pct = if rows == 0 {
        0
    } else {
        (survivors * 100).div_ceil(rows)
    };
    let density = match &sel {
        SelVec::Mask(..) => format!("{pct}% dense"),
        SelVec::Idx(_) => format!("{pct}% dense→sparse"),
    };
    Ok(Ok(SelScan {
        batch: from_cols(cols),
        sel,
        density,
        _charge: charge,
    }))
}
