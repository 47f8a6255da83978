//! Fused filter→project chains: the parallel-safety analysis that
//! decides whether a chain may leave the session thread, the per-run
//! resolution of a chain ([`ChainRun`]: morsel count, pinning reason,
//! chain-kernel verdict — computed once at the execution boundary and
//! shared by every path that runs or describes the chain), the streaming
//! run with its optional LIMIT sink ([`run_ops`]), and the chain→barrier
//! hand-off ([`chain_barrier_input`]): one [`BarrierInput`] shape, stored
//! columns plus survivor ids from the selection exit, or a gathered batch.
//!
//! Nothing here runs ahead of the workers: a multi-morsel chain is a
//! stage whose tasks address their morsel as a row window over the
//! input's own stored columns (`apply_window`, `selection_exit`), over
//! the unpruned morsels only; the session thread concatenates the
//! windows' parts — gathered rows or global survivor ids — and that is
//! all.

use super::sched::{claim_eval, live_windows, num_morsels, slice_window, StopAfter};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::expr::eval_expr;
use crate::kernel::{self, ChainInstance};
use crate::memory;
use crate::params::ParamValue;
use crate::physical::{CompiledExpr, PhysAggregate, PhysKey};
use crate::pipeline::MorselOp;
use crate::udf::ExecContext;
use crate::verdict::Reason;
use tdp_tensor::{I64Tensor, Tensor};

// ----------------------------------------------------------------------
// Parallel-safety analysis
// ----------------------------------------------------------------------

/// Why an expression must stay on the session thread — the first pinning
/// [`Reason`] in pre-order; `None` = parallel-safe. UDFs registered
/// through [`crate::udf::UdfRegistry::register_scalar_parallel`] with a
/// `parallel_safe` spec cross threads freely.
pub(super) fn expr_fallback<'p>(e: &'p CompiledExpr, ctx: &ExecContext) -> Option<Reason<'p>> {
    e.find_map(&mut |node| node_fallback(node, ctx))
}

fn node_fallback<'p>(node: &'p CompiledExpr, ctx: &ExecContext) -> Option<Reason<'p>> {
    match node {
        _ if let Some(name) = ctx.udfs.udf_call(node) => {
            (!ctx.udfs.is_parallel_safe_scalar(name)).then_some(Reason::UdfNotParallelSafe(name))
        }
        CompiledExpr::ScalarSubquery(_) => Some(Reason::ScalarSubquery),
        CompiledExpr::Param { idx } => matches!(ctx.params.get(*idx), Some(ParamValue::Tensor(_)))
            .then_some(Reason::TensorParam(*idx)),
        _ => None,
    }
}

/// First reason a fused chain (and optional aggregate sink) cannot leave
/// the session thread; `None` = parallel-safe. COUNT(DISTINCT …) needs a
/// cross-morsel value set, so it stays on the sequential path.
fn chain_fallback_reason<'p>(
    ops: &[MorselOp<'p>],
    sink: Option<(&'p [PhysKey], &'p [PhysAggregate])>,
    ctx: &ExecContext,
) -> Option<Reason<'p>> {
    let (keys, aggregates) = sink.unwrap_or_default();
    ops.iter()
        .find_map(|op| op.find_map(&mut |node| node_fallback(node, ctx)))
        .or_else(|| keys.iter().find_map(|k| expr_fallback(&k.expr, ctx)))
        .or_else(|| {
            aggregates.iter().find_map(|a| match a.func {
                tdp_sql::ast::AggFunc::CountDistinct => Some(Reason::CountDistinct),
                _ => a.arg.as_ref().and_then(|e| expr_fallback(e, ctx)),
            })
        })
}

// ----------------------------------------------------------------------
// One chain, decided before the run and resolved once per execution
// ----------------------------------------------------------------------

/// A fused chain's static verdict, decided from the plan and the session
/// alone — no input, no binding, no counter: what pins it to the session
/// thread comes first, then why the interpreter would run it. EXPLAIN
/// prints it; [`ChainRun::resolve`] starts from it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ChainVerdict<'p> {
    /// Pinned to the session thread and interpreted whole-batch.
    Pinned(Reason<'p>),
    /// Nothing for the kernel to do: `no-chain`, or the session switch.
    Off(Reason<'p>),
    /// The kernel's vet: `Ok` unless it refuses a node, by name.
    Vetted(Result<(), Reason<'p>>),
}

impl<'p> ChainVerdict<'p> {
    pub(crate) fn of(
        ops: &[MorselOp<'p>],
        sink: Option<(&'p [PhysKey], &'p [PhysAggregate])>,
        ctx: &ExecContext,
    ) -> ChainVerdict<'p> {
        match chain_fallback_reason(ops, sink, ctx) {
            Some(why) => ChainVerdict::Pinned(why),
            None if ops.is_empty() => ChainVerdict::Off(Reason::NoChain),
            None if !ctx.chain_kernels => ChainVerdict::Off(Reason::ChainKernelsDisabled),
            None => ChainVerdict::Vetted(kernel::vet(ops, ctx).map_or(Ok(()), Err)),
        }
    }

    /// Why the interpreter runs the chain; `None` = the kernel would.
    pub(crate) fn refusal(self) -> Option<Reason<'p>> {
        match self {
            ChainVerdict::Pinned(why) | ChainVerdict::Off(why) => Some(why),
            ChainVerdict::Vetted(vetted) => vetted.err(),
        }
    }
}

/// Why a barrier above a chain is handed a gathered batch, as far as the
/// plan tells: no chain, the session switch, the chain's `refusal` when
/// it is static (what pins it, then the vet), then a computed projection.
/// This is EXPLAIN's whole verdict, and the first half of the run's
/// ([`ChainRun::selection_kernel`]).
pub(crate) fn gather_reason<'p>(
    ops: &[MorselOp<'p>],
    refusal: Option<Reason<'p>>,
    ctx: &ExecContext,
) -> Option<Reason<'p>> {
    match () {
        _ if ops.is_empty() => Some(Reason::NoChain),
        _ if !ctx.chain_kernels => Some(Reason::ChainKernelsDisabled),
        _ => refusal
            .filter(|why| why.is_static())
            .or_else(|| kernel::computed_projection(ops)),
    }
}

/// A fused chain (and optional aggregate sink) resolved against one
/// materialised input and one context — built once per chain per
/// execution by the plan walker, then shared by whichever of
/// [`run_ops`], [`chain_barrier_input`] and
/// [`super::run_aggregate`] runs it and by the recorder that describes
/// it, so none of them re-derives a verdict. It starts from the static
/// [`ChainVerdict`] and adds what only a run sees: the morsel count and
/// the `$n` bindings.
pub(crate) struct ChainRun<'a> {
    pub(crate) ops: &'a [MorselOp<'a>],
    /// Morsels the input splits into; 1 when the chain is pinned.
    pub(crate) morsels: usize,
    /// Why the chain stays whole-batch on the session thread (`None` =
    /// morsel-parallel).
    pub(crate) pin: Option<Reason<'a>>,
    /// The chain-kernel verdict: the bound kernel, or why the interpreter
    /// runs the chain.
    kernel: Result<ChainInstance<'a>, Reason<'a>>,
}

impl<'a> ChainRun<'a> {
    pub(crate) fn resolve(
        input: &Batch,
        ops: &'a [MorselOp<'a>],
        sink: Option<(&'a [PhysKey], &'a [PhysAggregate])>,
        ctx: &'a ExecContext,
    ) -> ChainRun<'a> {
        // Chains pinned to the session thread keep the plain
        // interpreter; otherwise bind the chain kernel, once.
        let (pin, kernel) = match ChainVerdict::of(ops, sink, ctx) {
            ChainVerdict::Pinned(why) => (Some(why), Err(why)),
            ChainVerdict::Off(why) => (None, Err(why)),
            ChainVerdict::Vetted(vetted) => (None, kernel::bind(ops, ctx, vetted)),
        };
        let morsels = match pin {
            Some(_) => 1,
            None => num_morsels(input.rows(), ctx.morsel_rows),
        };
        ChainRun {
            ops,
            morsels,
            pin,
            kernel,
        }
    }

    /// Why the interpreter runs the chain this execution; `None` = the
    /// kernel does.
    pub(crate) fn interpreted(&self) -> Option<Reason<'a>> {
        self.kernel.as_ref().err().copied()
    }

    /// The bound chain kernel, when the chain runs compiled.
    pub(super) fn kern(&self) -> Option<&ChainInstance<'a>> {
        self.kernel.as_ref().ok()
    }

    /// The kernel a barrier's selection exit runs, or the named reason
    /// the barrier consumes a gathered batch instead: EXPLAIN's verdict
    /// first ([`gather_reason`]), then what only a run sees: the input's
    /// size and its bindings.
    pub(crate) fn selection_kernel(
        &self,
        input: &Batch,
        ctx: &ExecContext,
    ) -> Result<&ChainInstance<'a>, Reason<'a>> {
        if let Some(why) = gather_reason(self.ops, self.interpreted(), ctx) {
            return Err(why);
        }
        if num_morsels(input.rows(), ctx.morsel_rows) <= 1 {
            return Err(Reason::SingleMorsel);
        }
        // A binding with no scalar form leaves no kernel to run.
        self.kernel.as_ref().or(Err(Reason::KernelCompile))
    }

    /// Apply the chain to an input it is not split over (`morsels <= 1`),
    /// on the session thread. An input that fits one morsel is the
    /// one-window case `0..rows` of [`ChainRun::apply_window`], kernel
    /// and interpreter re-run alike; only a pinned chain (`pin`)
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
        match (self.pin, end) {
            (None, _) => self.apply_window(input, 0, end, ctx),
            (Some(_), 0) => apply_ops(input.slice_rows(0, 0), self.ops, ctx),
            (Some(_), _) => apply_ops(input.clone(), self.ops, ctx),
        }
    }

    /// Apply the chain to rows `start..end` of a stage's input —
    /// one window of the gather exit: the kernel runs it when it can,
    /// addressing the window in place; any bail-out (or no kernel)
    /// re-runs the interpreter over the window's slice, which reproduces
    /// the identical result (or the identical error).
    pub(super) fn apply_window(
        &self,
        input: &Batch,
        start: usize,
        end: usize,
        ctx: &ExecContext,
    ) -> Result<Batch, ExecError> {
        let kern = self.kern();
        if let Some(out) = kern.and_then(|k| k.run_window(input, start, end, ctx)) {
            return Ok(out);
        }
        let (batch, _slice) = slice_window(input, start, end, "morsel materialization", ctx)?;
        apply_ops(batch, self.ops, ctx)
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
    // Single-morsel inputs and unsafe chains run on the session thread —
    // identical at every thread count.
    if morsels <= 1 {
        let out = chain.apply(input, skip, ctx)?;
        return Ok(match limit {
            Some(n) => out.head(n),
            None => out,
        });
    }

    // Every morsel's output, charged until reassembly returns.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    let skip = skip.filter(|s| s.len() == morsels);
    let windows = live_windows(skip, ctx.morsel_rows, rows);
    // Entries past a LIMIT stop bound stay `None`.
    let stop = limit.map(|rows| StopAfter {
        rows,
        rows_of: |b: &Batch| b.rows(),
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
        let out = chain.apply_window(input, start, end, wctx)?;
        let bytes = memory::batch_bytes(&out);
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
        let part = r.expect("prefix morsels are always processed");
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
// The chain→barrier hand-off (late materialization)
// ----------------------------------------------------------------------

/// Survivor-fraction bound at a chain→barrier hand-off: a selection
/// keeping at most `rows / HANDOFF_IDX_DIVISOR` of its rows is sparse. It
/// sets how an aggregate task folds its window (survivors read by
/// position when sparse, the whole window under its mask otherwise) and
/// the density note a selection-fed barrier reports (`3% dense→sparse`).
/// The kernel's internal rows/2 bound is tuned for intersecting *further
/// conjuncts*; a barrier instead trades branchless full-width passes for
/// per-survivor indexed reads, which only pays off when survivors are
/// genuinely sparse.
pub(super) const HANDOFF_IDX_DIVISOR: usize = 4;

/// What a barrier (join, sort, top-k, DISTINCT) is handed: a batch and,
/// when a chain's selection exit fed it, the survivors' ascending global
/// row ids in it — the shape [`exact::JoinInput`] names. `ids: None` is a
/// dense batch whose position is its row id. With ids, `batch` is the
/// chain's output columns at full input width, **as stored**: values are
/// read at survivor rows through [`tdp_encoding::EncodedTensor::select_rows`], which
/// hands integer-compressed layouts over as plain `i64` — the bytes the
/// gathered path's per-morsel windows produce — and the one payload
/// gather is the barrier's own last step, so memory charges scale with
/// survivors, not input width.
pub(crate) struct BarrierInput<'p> {
    pub(super) batch: Batch,
    pub(super) ids: Option<I64Tensor>,
    /// Without ids, why a chain's selection exit was declined (`None`: no
    /// chain in play).
    declined: Option<Reason<'p>>,
    /// Holds the survivor ids on the query's ledger while they live.
    _charge: Option<memory::ChargeGuard>,
}

impl<'p> BarrierInput<'p> {
    /// A dense input, with the reason a candidate chain's selection exit
    /// was declined.
    pub(crate) fn gathered(batch: Batch, declined: Option<Reason<'p>>) -> BarrierInput<'p> {
        BarrierInput {
            batch,
            ids: None,
            declined,
            _charge: None,
        }
    }

    /// Logical (post-filter) row count.
    pub(crate) fn rows_out(&self) -> usize {
        self.ids
            .as_ref()
            .map_or(self.batch.rows(), I64Tensor::numel)
    }

    pub(super) fn input(&self) -> exact::JoinInput<'_> {
        (&self.batch, self.ids.as_ref())
    }

    /// Every column read at the global row ids `idx` (survivors, in
    /// whatever order the barrier emits them).
    pub(super) fn gather(&self, idx: &I64Tensor) -> Batch {
        exact::select_batch(&self.batch, idx)
    }

    pub(crate) fn into_gathered(self) -> Batch {
        match &self.ids {
            Some(ids) => self.gather(ids),
            None => self.batch,
        }
    }

    /// How the input arrived, for a profile: `Ok` with the selection
    /// density (`3% dense→sparse`) when selection-fed, `Err` with the
    /// reason a chain gathered instead; `None` when no chain was in play.
    pub(crate) fn handoff(&self) -> Option<Result<String, Reason<'p>>> {
        let Some(ids) = &self.ids else {
            return self.declined.map(Err);
        };
        let (survivors, rows) = (ids.numel(), self.batch.rows());
        let pct = (survivors * 100).div_ceil(rows.max(1));
        let sparse = match survivors * HANDOFF_IDX_DIVISOR <= rows {
            true => "→sparse",
            false => "",
        };
        Some(Ok(format!("{pct}% dense{sparse}")))
    }
}

/// Build a barrier's input from its upstream chain: the selection exit
/// when the chain supports it, otherwise the ordinary gathered morsel run
/// with the named decline reason attached. Ticks the selection-fed /
/// gathered barrier counter once per hand-off, so plain and profiled
/// executions account identically ([`super::run_aggregate`] ticks the
/// same pair for the stage it selects and folds itself).
pub(crate) fn chain_barrier_input<'p>(
    input: &Batch,
    chain: &ChainRun<'p>,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<BarrierInput<'p>, ExecError> {
    let declined = match chain.selection_kernel(input, ctx) {
        Ok(kern) => {
            let skip = skip.filter(|s| s.len() == chain.morsels);
            if let Some(selected) = selection_exit(input, kern, skip, ctx)? {
                ctx.access.note_barrier_selection_fed();
                return Ok(selected);
            }
            Reason::KernelBailout
        }
        Err(why) => why,
    };
    ctx.access.note_barrier_gathered();
    let batch = run_ops(input, chain, None, skip, ctx)?;
    Ok(BarrierInput::gathered(batch, Some(declined)))
}

/// A chain's selection exit: its output columns (the input's stored
/// columns, remapped, never copied) and the survivors' ascending global
/// row ids. One stage over the morsels the zone maps left, each task
/// evaluating the chain's filters over its row window with its worker's
/// context ([`ChainInstance::select_window`]) and turning the survivors
/// into global ids there; the session thread only concatenates them.
/// `None` = the kernel bailed at run time, in any task: the caller
/// gathers instead, and does its own zone-map accounting.
fn selection_exit<'p>(
    input: &Batch,
    kern: &ChainInstance<'_>,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<Option<BarrierInput<'p>>, ExecError> {
    let Some(cols) = kern.selection_cols(input) else {
        return Ok(None);
    };
    let windows = live_windows(skip, ctx.morsel_rows, input.rows());
    let parts = claim_eval(windows.len(), ctx, None, |j, wctx| {
        let (start, end) = windows[j];
        Ok(kern
            .select_window(input, start, end, wctx)
            .map(|sv| sv.ids(start)))
    })?;
    let Some(parts) = parts.into_iter().flatten().collect::<Option<Vec<_>>>() else {
        return Ok(None);
    };
    note_skipped(skip, ctx);
    let survivors: usize = parts.iter().map(I64Tensor::numel).sum();
    let charge = memory::charge(&ctx.memory, "selection vector", (survivors as u64 + 1) * 8)?;
    let ids = parts
        .iter()
        .map(I64Tensor::data)
        .collect::<Vec<_>>()
        .concat();
    Ok(Some(BarrierInput {
        batch: cols,
        ids: Some(Tensor::from_vec(ids, &[survivors])),
        declined: None,
        _charge: Some(charge),
    }))
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
