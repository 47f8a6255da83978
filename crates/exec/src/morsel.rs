//! The morsel scheduler: partitions a batch into fixed-size row ranges
//! and runs operator stages over them across a worker pool.
//!
//! Execution is **staged**: barrier-free chains stream per morsel with
//! an order-preserving concat sink; grouped aggregation folds morsels
//! into partial states merged in morsel order; and the barrier
//! operators run as short stage sequences over materialised inputs —
//! chains → exchange → barrier stages:
//!
//! * **partitioned hash join** (`run_join`) — an `exchange` buckets
//!   build-side rows by composite-key hash into
//!   [`crate::ExecContext::partitions`] partitions, workers build one
//!   hash table per partition (shared-nothing, rows ascending), then
//!   probe morsels run in parallel and reassemble in morsel order; the
//!   LEFT-join unmatched pass rides the same reassembly;
//! * **parallel merge sort** (`run_sort`) — workers sort per-morsel
//!   runs under the stable `(keys…, input position)` total order, k-way
//!   merged by a tournament heap; `run_topk` keeps only k rows per
//!   run and merges O(k·m);
//! * **shared-nothing DISTINCT** (`run_distinct`) — rows exchange by
//!   grouping-code hash, each partition dedups independently (a key
//!   lives in exactly one partition), survivors re-sort to input order.
//!
//! Determinism is the contract: morsel boundaries depend only on
//! [`crate::ExecContext::morsel_rows`], partition assignment only on the
//! key hash and the partition count (`TDP_PARTITIONS` — deliberately
//! *not* the thread count), and every combine walks morsels/partitions
//! in index order — so every thread count (including 1) produces
//! bitwise-identical batches, byte-equal to the sequential kernels in
//! [`crate::exact`], which remain the fallback and the test oracle.
//! Parallelism only changes *who* processes each morsel.
//!
//! Work distribution is work-stealing-lite: workers claim the next
//! morsel index from a shared atomic counter, so a slow morsel never
//! stalls the queue behind it. The LIMIT sink additionally publishes a
//! stop bound once the contiguous output prefix holds enough rows;
//! morsels past the bound are never claimed (early exit).
//!
//! # Chain exit modes: gathered vs selection-fed barriers
//!
//! A compiled filter→project chain feeding a barrier has two ways to
//! hand over its result (`BarrierInput`):
//!
//! * **Gathered** — the classic exit: the chain materialises survivors
//!   into a dense [`Batch`] (one gather per column) and the barrier
//!   consumes it like any other input. Always available; the only exit
//!   for non-chain children.
//! * **Selected** — late materialisation: the chain returns its input
//!   columns *plus* a `kernel::SelVec` (dense mask or sparse index
//!   list, whichever is smaller for the survivor density), and the
//!   barrier operates on survivor row ids directly. The single gather
//!   is deferred to final assembly — join output positions, sorted
//!   order, DISTINCT representatives — so dropped rows are never
//!   copied, and memory charges scale with survivors instead of input
//!   width (`SelScan`).
//!
//! `chain_barrier_input` is the one constructor: it tries the
//! selection exit and falls back to the gathered one, recording which
//! barrier feeding mode happened (`barriers_selection_fed` /
//! `barriers_gathered` in [`crate::access`]).
//!
//! What each barrier does with a selection:
//!
//! | barrier            | selection-fed behaviour                             |
//! |--------------------|-----------------------------------------------------|
//! | aggregate          | folds survivors straight into partial states: plain  column aggregates use branchless masked accumulation (dense) or survivor iteration (sparse); computed arguments / GROUP BY gather only *referenced* columns into mini-batches per input morsel |
//! | join (`run_join`)  | builds/probes survivor rows only; exchange buckets survivor ids; `join_assemble` gathers once on matched output positions |
//! | sort / top-k       | evaluates keys on survivors; payload gather happens  once, in final sorted order |
//! | DISTINCT           | exchanges survivor grouping codes; representatives   gather at the end |
//!
//! Byte-identity is preserved in every mode: reorder/gather barriers
//! (join, sort, top-k, DISTINCT) move bytes without arithmetic, and
//! selection-fed aggregation chunks its partials by *input* morsel
//! boundaries (`survivor_offsets`), replicating the gathered path's
//! float-accumulation order exactly.
//!
//! # Fallback taxonomy
//!
//! Every decline is named, and lands in EXPLAIN (`barrier_note`,
//! statically) and profiled runs (each `run_*` reports the decision it
//! took to the recorder, when one is attached):
//!
//! * **Selection-exit declines** (chain gathers instead):
//!   `chain-kernels-disabled`, `computed-projection` (a projection
//!   rewrites columns, so survivors alone cannot represent the output),
//!   `single-morsel` (nothing to parallelise), `kernel-compile` /
//!   `kernel-bailout` (the compiled kernel was unavailable or bailed at
//!   run time — the per-morsel interpreter re-run remains the fallback).
//! * **Parallelism declines** (the stage runs whole-batch on the
//!   session thread, through the [`crate::exact`] kernels — still inside
//!   the one plan walker, there is no separate sequential executor):
//!   session UDFs holding `Rc`-based autodiff parameters
//!   (`udf-not-parallel-safe(<name>)`), expressions holding a scalar
//!   subquery (`scalar-subquery`: workers carry no catalog to run the
//!   nested plan against — the nested plan itself re-enters
//!   [`crate::pipeline::execute`] with the session's context and is
//!   scheduled like any top-level query), tensor-valued bindings
//!   (row-aligned with the whole batch, not a morsel), `threads=1`.
//!   Sort keys containing such expressions fall back too, since key
//!   expressions are evaluated per morsel on workers.
//!
//! Both fallbacks are equally deterministic — they are the oracle the
//! staged paths are tested against, at every thread count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tdp_encoding::EncodedTensor;
use tdp_sql::ast::{AggFunc, JoinKind};
use tdp_storage::Catalog;
use tdp_tensor::{F32Tensor, I64Tensor, Tensor};

use crate::batch::{Batch, ColumnData};
use crate::error::ExecError;
use crate::exact;
use crate::expr::{eval_expr, Value};
use crate::kernel;
use crate::memory;
use crate::params::ParamValue;
use crate::physical::{CompiledExpr, JoinOn, PhysAggregate, PhysKey, PhysicalPlan};
use crate::pipeline::MorselOp;
use crate::profile::Recorder;
use crate::udf::{ExecContext, UdfRegistry};

// ----------------------------------------------------------------------
// Parallel-safety analysis
// ----------------------------------------------------------------------

/// Why a chain must stay on the session thread. `None` = parallel-safe.
/// Session UDFs without a `parallel_safe` declaration (and built-ins
/// currently shadowed by one) may hold non-`Send` parameters; scalar
/// subqueries execute nested plans against the session; tensor bindings
/// are row-aligned with the *whole* input, not a morsel of it.
/// UDFs registered through
/// [`crate::udf::UdfRegistry::register_scalar_parallel`] with a
/// `parallel_safe` spec cross threads freely.
fn expr_fallback(e: &CompiledExpr, ctx: &ExecContext) -> Option<String> {
    match e {
        CompiledExpr::Udf { name, args } => {
            if !ctx.udfs.is_parallel_safe_scalar(name) {
                return Some(format!("udf-not-parallel-safe({name})"));
            }
            args.iter().find_map(|a| expr_fallback(a, ctx))
        }
        CompiledExpr::ScalarSubquery(_) => Some("scalar-subquery".into()),
        CompiledExpr::Builtin { name, args, .. } => {
            // A session UDF registered after compilation shadows the
            // built-in at evaluation time; the shadow decides.
            if ctx.udfs.is_scalar(name) && !ctx.udfs.is_parallel_safe_scalar(name) {
                return Some(format!("udf-not-parallel-safe({name})"));
            }
            args.iter().find_map(|a| expr_fallback(a, ctx))
        }
        CompiledExpr::Param { idx } => matches!(ctx.params.get(*idx), Some(ParamValue::Tensor(_)))
            .then(|| format!("tensor-param(${})", idx + 1)),
        CompiledExpr::Binary { left, right, .. } => {
            expr_fallback(left, ctx).or_else(|| expr_fallback(right, ctx))
        }
        CompiledExpr::Unary { expr, .. } => expr_fallback(expr, ctx),
        CompiledExpr::Case {
            operand,
            branches,
            else_expr,
        } => operand
            .as_deref()
            .and_then(|o| expr_fallback(o, ctx))
            .or_else(|| {
                branches
                    .iter()
                    .find_map(|(w, t)| expr_fallback(w, ctx).or_else(|| expr_fallback(t, ctx)))
            })
            .or_else(|| else_expr.as_deref().and_then(|e| expr_fallback(e, ctx))),
        CompiledExpr::InList { expr, list, .. } => {
            expr_fallback(expr, ctx).or_else(|| list.iter().find_map(|i| expr_fallback(i, ctx)))
        }
        CompiledExpr::Like { expr, .. } => expr_fallback(expr, ctx),
        CompiledExpr::Column(_)
        | CompiledExpr::Num(_)
        | CompiledExpr::Str(_)
        | CompiledExpr::Bool(_) => None,
    }
}

fn op_fallback(op: &MorselOp<'_>, ctx: &ExecContext) -> Option<String> {
    match op {
        MorselOp::Filter(pred) => expr_fallback(pred, ctx),
        MorselOp::Project(items) => items.iter().find_map(|i| expr_fallback(&i.expr, ctx)),
    }
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
        .find_map(|op| op_fallback(op, ctx))
        .or_else(|| sink.and_then(|(keys, aggs)| aggregate_fallback(keys, aggs, ctx)))
}

// ----------------------------------------------------------------------
// Fused-chain execution
// ----------------------------------------------------------------------

/// Apply a fused operator chain to one (morsel) batch.
fn apply_ops(
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

/// [`apply_ops`] with an optional compiled chain kernel: the kernel
/// runs the morsel when it can; any bail-out re-runs the interpreter,
/// which reproduces the identical result (or the identical error).
fn apply_ops_k(
    batch: Batch,
    ops: &[MorselOp<'_>],
    kern: Option<&kernel::ChainInstance>,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    if let Some(k) = kern {
        if let Some(out) = k.run(&batch) {
            return Ok(out);
        }
    }
    apply_ops(batch, ops, ctx)
}

/// Owned, `Send` view of a batch's columns (exact encodings only).
type MorselCols = Vec<(String, EncodedTensor)>;

fn to_cols(batch: &Batch) -> MorselCols {
    batch
        .columns()
        .iter()
        .map(|(n, c)| (n.clone(), c.to_exact()))
        .collect()
}

/// Owned view of a partition *source*: integer-compressed layouts
/// (RLE / bit-packed / delta) are decoded to plain i64 once, up front —
/// their `slice_rows` otherwise decodes the whole column per morsel,
/// turning partitioning into O(rows × morsels). Plain, dictionary and PE
/// layouts slice in a single memcpy and stay as they are.
fn to_partition_cols(batch: &Batch) -> MorselCols {
    batch
        .columns()
        .iter()
        .map(|(n, c)| {
            let col = match c.to_exact() {
                e @ (EncodedTensor::Rle(_)
                | EncodedTensor::BitPacked(_)
                | EncodedTensor::Delta(_)) => EncodedTensor::I64(e.decode_i64()),
                other => other,
            };
            (n.clone(), col)
        })
        .collect()
}

fn from_cols(cols: MorselCols) -> Batch {
    let mut out = Batch::new();
    for (name, col) in cols {
        out.push(name, ColumnData::Exact(col));
    }
    out
}

fn slice_cols(cols: &[(String, EncodedTensor)], start: usize, end: usize) -> Batch {
    let mut out = Batch::new();
    for (name, col) in cols {
        out.push(name.clone(), ColumnData::Exact(col.slice_rows(start, end)));
    }
    out
}

/// The `Send` subset of an [`ExecContext`] a worker needs. The session
/// context itself cannot cross threads (the UDF registry may hold
/// `Rc`-based autodiff parameters), but parallel-safe chains reference
/// only the binding, the device knobs, and the `Send + Sync` slice of
/// the function registry (UDFs registered through
/// [`UdfRegistry::register_scalar_parallel`]).
struct WorkerCfg {
    device: tdp_tensor::Device,
    temperature: f32,
    params: crate::params::ParamValues,
    morsel_rows: usize,
    partitions: usize,
    /// Thread-safe scalar UDFs, rebuilt into a per-worker registry so
    /// `CompiledExpr::Udf` resolution works identically off-thread.
    shared_udfs: crate::udf::SharedScalars,
    /// The query's memory ledger, shared so worker-side charges land on
    /// the same reservation the session thread charges.
    memory: std::sync::Arc<tdp_mem::MemoryReservation>,
}

impl WorkerCfg {
    fn of(ctx: &ExecContext) -> WorkerCfg {
        WorkerCfg {
            device: ctx.device,
            temperature: ctx.temperature,
            params: ctx.params.clone(),
            morsel_rows: ctx.morsel_rows,
            partitions: ctx.partitions,
            shared_udfs: ctx.udfs.shared_snapshot(),
            memory: std::sync::Arc::clone(&ctx.memory),
        }
    }
}

/// Build a worker-side context over a thread-local registry holding the
/// shared (parallel-safe) functions and an empty catalog.
fn worker_ctx<'a>(catalog: &'a Catalog, udfs: &'a UdfRegistry, cfg: &WorkerCfg) -> ExecContext<'a> {
    ExecContext {
        catalog,
        udfs,
        device: cfg.device,
        trainable: false,
        temperature: cfg.temperature,
        params: cfg.params.clone(),
        threads: 1,
        morsel_rows: cfg.morsel_rows,
        partitions: cfg.partitions,
        // Workers receive an already-instantiated kernel by reference;
        // they never consult the session cache themselves.
        chain_kernels: None,
        // Pruning decisions are made by the scheduler before morsels are
        // claimed; workers never consult zone maps or record counters.
        zone_maps: false,
        access: std::sync::Arc::new(crate::access::AccessPathCounters::default()),
        // Index maintenance is a scheduler-thread decision; workers
        // never touch the catalog's index registry.
        ivf_rebuild_after: 0,
        memory: std::sync::Arc::clone(&cfg.memory),
    }
}

/// Run `work` on `workers` threads (or inline when 1), each with its own
/// worker context.
fn run_workers(workers: usize, cfg: &WorkerCfg, work: &(impl Fn(&ExecContext) + Sync)) {
    if workers <= 1 {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::from_shared(cfg.shared_udfs.clone());
        work(&worker_ctx(&catalog, &udfs, cfg));
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                let catalog = Catalog::new();
                let udfs = UdfRegistry::from_shared(cfg.shared_udfs.clone());
                work(&worker_ctx(&catalog, &udfs, cfg));
            });
        }
    });
}

/// Number of morsels a batch splits into.
fn num_morsels(rows: usize, morsel_rows: usize) -> usize {
    rows.div_ceil(morsel_rows.max(1))
}

/// Morsel count and sequential-fallback reason (`None` = the run is
/// morsel-parallel) for a chain over a materialised input — the one
/// analysis `run_ops`, `run_aggregate` and profiled runs share. Unlike
/// [`chain_fallback_reason`] this sees the input, so it also covers
/// differentiable batches flowing out of trainable TVFs.
pub(crate) fn planned_and_reason(
    input: &Batch,
    ops: &[MorselOp<'_>],
    sink: Option<(&[PhysKey], &[PhysAggregate])>,
    ctx: &ExecContext,
) -> (usize, Option<String>) {
    let reason = if input.has_diff() {
        Some("differentiable-input".into())
    } else {
        chain_fallback_reason(ops, sink, ctx)
    };
    let morsels = if reason.is_none() {
        num_morsels(input.rows(), ctx.morsel_rows)
    } else {
        1
    };
    (morsels, reason)
}

/// Run a fused chain over a materialised input, morsel-parallel where
/// safe, with an optional LIMIT sink (early exit + truncation) and an
/// optional zone-map skip mask (`skip[i]` = morsel `i` provably produces
/// no rows under the chain's leading filter, so it runs over an empty
/// slice). Pruning never changes results — only which rows the chain
/// kernels actually touch.
pub(crate) fn run_ops(
    input: &Batch,
    ops: &[MorselOp<'_>],
    limit: Option<usize>,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let rows = input.rows();
    let (morsels, seq_reason) = planned_and_reason(input, ops, None, ctx);
    // Chains pinned to the session thread keep the plain interpreter;
    // otherwise compile (or fetch) the chain kernel once per run.
    let kern = if seq_reason.is_none() {
        kernel::prepare(ops, ctx)
    } else {
        None
    };
    // Single-morsel inputs, unsafe chains and differentiable inputs take
    // the whole-batch path — identical at every thread count. A skip mask
    // covering exactly this one morsel still applies: pruning depends on
    // zone maps and the predicate, not on how the chain is scheduled.
    if morsels <= 1 {
        let whole = single_morsel_input(input, rows, skip, ctx);
        let out = match kern.as_deref().and_then(|k| k.run(&whole)) {
            Some(b) => b,
            None => apply_ops(whole, ops, ctx)?,
        };
        return Ok(match limit {
            Some(n) => out.head(n),
            None => out,
        });
    }

    let cols = to_partition_cols(input);
    // Charged until reassembly returns: the decoded partition columns
    // plus (inside the claim loop) every morsel's materialised output.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    charges.add("morsel materialization", memory::cols_bytes(&cols))?;
    let skip = skip.filter(|s| s.len() == morsels);
    let results = process_morsels(
        &cols,
        rows,
        morsels,
        ops,
        limit,
        skip,
        kern.as_deref(),
        &charges,
        ctx,
    )?;

    // Order-preserving reassembly; with a LIMIT sink, take the shortest
    // morsel prefix that covers `n` rows and truncate.
    let mut parts: Vec<Batch> = Vec::new();
    let mut have = 0usize;
    for r in results {
        let part = from_cols(r.expect("prefix morsels are always processed"));
        have += part.rows();
        parts.push(part);
        if let Some(n) = limit {
            if have >= n {
                break;
            }
        }
    }
    let out = Batch::concat(&parts);
    Ok(match limit {
        Some(n) => out.head(n),
        None => out,
    })
}

/// Whole-batch input for the single-morsel path, with zone-map pruning
/// applied when the skip mask describes exactly this input (one entry at
/// the session's morsel size). A pruned batch becomes the 0-row head —
/// the chain still runs, so schema and encodings match the unpruned run.
fn single_morsel_input(
    input: &Batch,
    rows: usize,
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Batch {
    let Some(skip) = skip.filter(|s| s.len() == 1 && num_morsels(rows, ctx.morsel_rows) == 1)
    else {
        return input.clone();
    };
    ctx.access.note_morsels(skip[0] as u64, !skip[0] as u64);
    if skip[0] {
        input.head(0)
    } else {
        input.clone()
    }
}

/// Claim-and-process loop shared by the worker pool. Returns per-morsel
/// outputs in morsel order; entries past a LIMIT stop bound may be
/// `None`.
#[allow(clippy::too_many_arguments)]
fn process_morsels(
    cols: &[(String, EncodedTensor)],
    rows: usize,
    morsels: usize,
    ops: &[MorselOp<'_>],
    limit: Option<usize>,
    skip: Option<&[bool]>,
    kern: Option<&kernel::ChainInstance>,
    charges: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Vec<Option<MorselCols>>, ExecError> {
    struct Shared {
        /// Per-morsel output (None = not yet / never processed).
        results: Vec<Option<Result<MorselCols, ExecError>>>,
        /// Longest contiguous prefix of completed morsels and its rows.
        prefix_idx: usize,
        prefix_rows: usize,
    }

    let next = AtomicUsize::new(0);
    // Morsels with index >= stop bound are never claimed (LIMIT early exit).
    let stop = AtomicUsize::new(usize::MAX);
    let shared = Mutex::new(Shared {
        results: (0..morsels).map(|_| None).collect(),
        prefix_idx: 0,
        prefix_rows: 0,
    });
    let morsel_rows = ctx.morsel_rows;
    let pruned = AtomicUsize::new(0);
    let scanned = AtomicUsize::new(0);

    let work = |wctx: &ExecContext| {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= morsels || i >= stop.load(Ordering::Acquire) {
                break;
            }
            let start = i * morsel_rows;
            // A zone-map-pruned morsel provably yields no rows: run the
            // chain over an empty slice so the output schema, encodings
            // and reassembly stay identical to the unpruned run.
            let end = if skip.is_some_and(|s| s[i]) {
                pruned.fetch_add(1, Ordering::Relaxed);
                start
            } else {
                if skip.is_some() {
                    scanned.fetch_add(1, Ordering::Relaxed);
                }
                (start + morsel_rows).min(rows)
            };
            let out = apply_ops_k(slice_cols(cols, start, end), ops, kern, wctx)
                .map(|b| to_cols(&b))
                .and_then(|c| {
                    charges
                        .add("morsel output", memory::cols_bytes(&c))
                        .map(|()| c)
                });
            let mut s = shared.lock().expect("morsel state poisoned");
            s.results[i] = Some(out);
            // Advance the contiguous prefix; once it covers the limit,
            // publish the stop bound so later morsels are skipped.
            while s.prefix_idx < morsels {
                let Some(done) = &s.results[s.prefix_idx] else {
                    break;
                };
                if let Ok(c) = done {
                    s.prefix_rows += c.first().map_or(0, |(_, t)| t.rows());
                }
                s.prefix_idx += 1;
            }
            if let Some(n) = limit {
                if s.prefix_rows >= n {
                    stop.store(s.prefix_idx, Ordering::Release);
                }
            }
        }
    };

    let workers = ctx.threads.min(morsels).max(1);
    run_workers(workers, &WorkerCfg::of(ctx), &work);
    if skip.is_some() {
        ctx.access.note_morsels(
            pruned.load(Ordering::Relaxed) as u64,
            scanned.load(Ordering::Relaxed) as u64,
        );
    }

    let state = shared.into_inner().expect("morsel state poisoned");
    let mut out = Vec::with_capacity(morsels);
    for r in state.results {
        match r {
            // First error in morsel order wins — deterministic reporting.
            Some(Err(e)) => return Err(e),
            Some(Ok(c)) => out.push(Some(c)),
            None => out.push(None),
        }
    }
    Ok(out)
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

/// A chain's selection-exit hand-off: the (remapped, still full-width)
/// output columns plus the surviving-row selection, produced by
/// [`selection_scan`] and consumed by the barrier `run_*` entry points
/// through [`BarrierInput::Selected`]. The single payload gather the
/// gathered path performs per morsel is deferred to the barrier's own
/// assembly step — or skipped entirely (masked aggregation) — so memory
/// charges scale with survivors, not morsel width.
pub(crate) struct SelScan {
    /// Chain output columns at full input width, integer-compressed
    /// layouts decoded exactly as [`to_partition_cols`] does, so a late
    /// gather yields the same bytes the staged gathered path produces.
    batch: Batch,
    sel: kernel::SelVec,
    /// Full (pre-selection) input width.
    rows: usize,
    /// Human-readable density note (`3% dense→sparse`) for profiles.
    density: String,
    /// Holds the selection-vector bytes on the query's ledger for the
    /// scan's lifetime.
    _charge: memory::ChargeGuard,
}

impl SelScan {
    /// Surviving row count — the logical row count every scheduling
    /// decision uses, identical to the gathered batch's `rows()`.
    fn survivors(&self) -> usize {
        self.sel.len()
    }

    /// Global surviving row ids, ascending.
    fn ids(&self) -> Vec<i64> {
        match &self.sel {
            kernel::SelVec::Idx(s) => s.iter().map(|&i| i as i64).collect(),
            kernel::SelVec::Mask(m, n) => {
                let mut out = Vec::with_capacity(*n);
                for (i, &keep) in m.iter().enumerate() {
                    if keep {
                        out.push(i as i64);
                    }
                }
                out
            }
        }
    }

    /// The one deferred gather: compact every column to survivors. Used
    /// when a barrier shape (or scheduling decision) needs dense rows
    /// after all; byte-identical to the gathered path's output.
    fn materialize(&self) -> Batch {
        let mask = self.sel.gather_mask(self.rows);
        let mut out = Batch::new();
        for (name, col) in self.batch.columns() {
            out.push(
                name.clone(),
                ColumnData::Exact(col.to_exact().filter_rows(&mask)),
            );
        }
        out
    }
}

/// One barrier input: either a densely materialized batch (with the
/// named reason selection was declined, when a compiled chain was a
/// candidate) or a live selection over full-width chain output.
pub(crate) enum BarrierInput {
    Gathered(Batch, Option<String>),
    Selected(SelScan),
}

impl BarrierInput {
    /// Logical (post-filter) row count.
    pub(crate) fn rows_out(&self) -> usize {
        match self {
            BarrierInput::Gathered(b, _) => b.rows(),
            BarrierInput::Selected(s) => s.survivors(),
        }
    }

    fn has_diff(&self) -> bool {
        match self {
            BarrierInput::Gathered(b, _) => b.has_diff(),
            // Selection-exit chains bail on differentiable inputs.
            BarrierInput::Selected(_) => false,
        }
    }

    fn columns_len(&self) -> usize {
        match self {
            BarrierInput::Gathered(b, _) => b.columns().len(),
            BarrierInput::Selected(s) => s.batch.columns().len(),
        }
    }

    fn into_gathered(self) -> Batch {
        match self {
            BarrierInput::Gathered(b, _) => b,
            BarrierInput::Selected(s) => s.materialize(),
        }
    }

    /// The profile note for this input: `selection-fed (3% dense→sparse)`
    /// or `gathered: <reason>`; `None` when no compiled chain was in play.
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
    ops: &[MorselOp<'_>],
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<BarrierInput, ExecError> {
    let out = match selection_scan(input, ops, skip, ctx)? {
        ScanResult::Selected(s) => BarrierInput::Selected(s),
        ScanResult::Declined(reason) => {
            let batch = run_ops(input, ops, None, skip, ctx)?;
            BarrierInput::Gathered(batch, Some(reason))
        }
    };
    match &out {
        BarrierInput::Selected(_) => ctx.access.note_barrier_selection_fed(),
        BarrierInput::Gathered(..) => ctx.access.note_barrier_gathered(),
    }
    Ok(out)
}

/// Outcome of a selection-exit attempt over a barrier's Stream child.
pub(crate) enum ScanResult {
    Selected(SelScan),
    /// The chain must gather; the reason lands in profiles and EXPLAIN.
    Declined(String),
}

/// Seed selection for zone-map pruning: pruned morsel row ranges start
/// deselected, so the chain never resurrects provably-empty rows.
fn skip_init(skip: Option<&[bool]>, rows: usize, morsel_rows: usize) -> Option<kernel::SelVec> {
    let skip = skip?;
    if !skip.iter().any(|&s| s) {
        return None;
    }
    let mut mask = vec![true; rows];
    for (i, &s) in skip.iter().enumerate() {
        if s {
            let start = i * morsel_rows;
            let end = (start + morsel_rows).min(rows);
            mask[start..end].fill(false);
        }
    }
    Some(kernel::SelVec::from_mask(mask))
}

/// Run a barrier's upstream chain in selection exit mode. `Declined`
/// carries the named reason (capability, bail-out, sizing); the caller
/// then takes the gathered path, which does its own zone-map accounting
/// — morsel counters are only recorded here on success.
pub(crate) fn selection_scan(
    input: &Batch,
    ops: &[MorselOp<'_>],
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<ScanResult, ExecError> {
    if let Err(reason) = kernel::selection_verdict(ops, ctx) {
        return Ok(ScanResult::Declined(reason));
    }
    let rows = input.rows();
    let morsels = num_morsels(rows, ctx.morsel_rows);
    if morsels <= 1 {
        return Ok(ScanResult::Declined("single-morsel".into()));
    }
    let Some(kern) = kernel::prepare(ops, ctx) else {
        return Ok(ScanResult::Declined("kernel-compile".into()));
    };
    let skip = skip.filter(|s| s.len() == morsels);
    let init = skip_init(skip, rows, ctx.morsel_rows);
    let Some(mut out) = kern.run_selection(input, init) else {
        return Ok(ScanResult::Declined("kernel-bailout".into()));
    };
    // Selective chains demote the mask to a survivor index list once,
    // here at the hand-off, so every barrier consumer (id mapping, key
    // gathers, probe loops) walks survivors instead of full width.
    if matches!(out.sel, kernel::SelVec::Mask(..)) && out.sel.len() * HANDOFF_IDX_DIVISOR <= rows {
        out.sel = kernel::SelVec::Idx(out.sel.into_idx());
    }
    if let Some(s) = skip {
        let pruned = s.iter().filter(|&&b| b).count() as u64;
        ctx.access.note_morsels(pruned, morsels as u64 - pruned);
    }
    let survivors = out.sel.len();
    let charge = memory::charge(&ctx.memory, "selection vector", (survivors as u64 + 1) * 8)?;
    let pct = if rows == 0 {
        0
    } else {
        (survivors * 100).div_ceil(rows)
    };
    let density = match &out.sel {
        kernel::SelVec::Mask(..) => format!("{pct}% dense"),
        kernel::SelVec::Idx(_) => format!("{pct}% dense→sparse"),
    };
    let mut batch = Batch::new();
    for (name, col) in out.cols {
        let col = match col {
            e @ (EncodedTensor::Rle(_) | EncodedTensor::BitPacked(_) | EncodedTensor::Delta(_)) => {
                EncodedTensor::I64(e.decode_i64())
            }
            other => other,
        };
        batch.push(name, ColumnData::Exact(col));
    }
    Ok(ScanResult::Selected(SelScan {
        batch,
        sel: out.sel,
        rows,
        density,
        _charge: charge,
    }))
}

/// Survivor-count prefix over *input* morsel boundaries: `offs[i]` is
/// the number of survivors before morsel `i`, so survivors of morsel
/// `i` occupy `[offs[i], offs[i+1])` in selection space. Partial
/// aggregation chunks by these offsets, which makes its float partials
/// byte-identical to the gathered per-morsel path.
fn survivor_offsets(
    sel: &kernel::SelVec,
    rows: usize,
    morsel_rows: usize,
    morsels: usize,
) -> Vec<usize> {
    let mut offs = Vec::with_capacity(morsels + 1);
    offs.push(0);
    match sel {
        kernel::SelVec::Idx(s) => {
            let mut j = 0usize;
            for i in 1..=morsels {
                let bound = ((i * morsel_rows).min(rows)) as u32;
                while j < s.len() && s[j] < bound {
                    j += 1;
                }
                offs.push(j);
            }
        }
        kernel::SelVec::Mask(m, _) => {
            let mut c = 0usize;
            for i in 0..morsels {
                let start = i * morsel_rows;
                let end = (start + morsel_rows).min(rows);
                c += m[start..end].iter().filter(|&&b| b).count();
                offs.push(c);
            }
        }
    }
    offs
}

// ----------------------------------------------------------------------
// Staged barrier execution: partition exchange + parallel barrier ops
// ----------------------------------------------------------------------
//
// Barriers (join, sort, TopK, DISTINCT) need all their input before they
// can emit anything, so they cannot stream per morsel — but their *work*
// still splits. Each parallel barrier below runs as a short sequence of
// **stages** over its materialised input: a morsel-claiming scan stage,
// optionally a partition-claiming stage after an exchange, and a
// deterministic sequential combine. The partition count
// ([`crate::ExecContext::partitions`], `TDP_PARTITIONS`) is a plan
// property independent of the worker count, and every combine walks
// morsels/partitions in index order — so the staged paths return batches
// byte-identical to the sequential kernels in [`crate::exact`], which
// remain both the fallback and the oracle for equivalence tests.

/// Run `work` on `workers` plain threads (or inline when ≤ 1). Unlike
/// [`run_workers`] there is no per-worker evaluation context: barrier
/// stages that only shuffle precomputed keys/indices need no registry.
fn run_pool(workers: usize, work: &(impl Fn() + Sync)) {
    if workers <= 1 {
        work();
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(work);
        }
    });
}

/// Shared claim-loop state: a claim counter plus ordered result slots.
/// Workers repeatedly grab the next index and store the item's output
/// at its slot, so outputs come back in index order no matter which
/// worker processed what — the deterministic backbone of every stage.
struct ClaimSlots<T> {
    count: usize,
    next: AtomicUsize,
    slots: Mutex<Vec<Option<T>>>,
}

impl<T: Send> ClaimSlots<T> {
    fn new(count: usize) -> ClaimSlots<T> {
        ClaimSlots {
            count,
            next: AtomicUsize::new(0),
            slots: Mutex::new((0..count).map(|_| None).collect()),
        }
    }

    /// One worker's claim loop: process items until none are left.
    fn drain(&self, f: impl Fn(usize) -> T) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                break;
            }
            let out = f(i);
            self.slots.lock().expect("stage state poisoned")[i] = Some(out);
        }
    }

    /// Outputs in index order (call after every worker has finished).
    fn take(self) -> Vec<T> {
        self.slots
            .into_inner()
            .expect("stage state poisoned")
            .into_iter()
            .map(|s| s.expect("every claimed index is processed"))
            .collect()
    }
}

/// Claim-loop over `count` items on plain threads (no evaluation
/// context): returns `f(i)` outputs in index order.
fn claim_indexed<T: Send>(count: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots = ClaimSlots::new(count);
    run_pool(workers.min(count), &|| slots.drain(&f));
    slots.take()
}

/// Partition-exchange primitive: distribute `rows` input rows into
/// `partitions` buckets by key hash. Workers claim morsels and bucket
/// their rows locally; buckets are then concatenated in morsel order, so
/// every partition lists its rows in **ascending input order** at any
/// thread count (the hash, morsel boundaries and partition count are all
/// plan properties — workers only decide *who* buckets each morsel).
fn exchange(
    rows: usize,
    partitions: usize,
    morsel_rows: usize,
    workers: usize,
    hash_of: &(impl Fn(usize) -> u64 + Sync),
) -> Vec<Vec<i64>> {
    let morsels = num_morsels(rows, morsel_rows);
    let per_morsel = claim_indexed(morsels, workers, |i| {
        let start = i * morsel_rows;
        let end = (start + morsel_rows).min(rows);
        let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); partitions];
        for r in start..end {
            buckets[(hash_of(r) % partitions as u64) as usize].push(r as i64);
        }
        buckets
    });
    let mut out: Vec<Vec<i64>> = vec![Vec::new(); partitions];
    for buckets in per_morsel {
        for (p, b) in buckets.into_iter().enumerate() {
            out[p].extend(b);
        }
    }
    out
}

/// `(staged?, capability fallback reason)` for a join barrier. Joins
/// carry no key expressions (keys are resolved column refs), so the only
/// capability reason is a differentiable input. Row counts are the
/// logical (post-selection) counts, so the decision is identical whether
/// an input arrives gathered or selection-fed.
fn join_decision(
    left_rows: usize,
    right_rows: usize,
    diff: bool,
    ctx: &ExecContext,
) -> (bool, Option<String>) {
    let reason = diff.then(|| "differentiable-input".to_string());
    let splits =
        num_morsels(left_rows, ctx.morsel_rows) > 1 || num_morsels(right_rows, ctx.morsel_rows) > 1;
    (reason.is_none() && ctx.threads > 1 && splits, reason)
}

/// `(staged?, capability fallback reason)` for sort/TopK barriers. Key
/// expressions are evaluated per morsel on worker threads, so the same
/// analysis as fused chains applies (UDFs, subqueries, tensor params).
fn sort_decision(
    rows: usize,
    diff: bool,
    keys: &[crate::physical::PhysOrderKey],
    ctx: &ExecContext,
) -> (bool, Option<String>) {
    let reason = if diff {
        Some("differentiable-input".to_string())
    } else {
        keys.iter().find_map(|k| expr_fallback(&k.expr, ctx))
    };
    let splits = num_morsels(rows, ctx.morsel_rows) > 1;
    (reason.is_none() && ctx.threads > 1 && splits, reason)
}

/// `(staged?, capability fallback reason)` for a DISTINCT barrier.
fn distinct_decision(
    rows: usize,
    ncols: usize,
    diff: bool,
    ctx: &ExecContext,
) -> (bool, Option<String>) {
    let reason = diff.then(|| "differentiable-input".to_string());
    let splits = num_morsels(rows, ctx.morsel_rows) > 1;
    (
        reason.is_none() && ctx.threads > 1 && splits && ncols > 0,
        reason,
    )
}

/// Tell an attached recorder this barrier ran on the sequential kernel
/// (`fallback` = the capability reason, `None` when merely too small).
fn note_sequential(rec: Option<&mut Recorder>, fallback: Option<String>) {
    if let Some(r) = rec {
        r.note_barrier(1, 0, None, fallback);
    }
}

/// Tell an attached recorder how a barrier staged: `morsels` claimed
/// across its stages, `partitions` exchanged into (0 = no exchange),
/// and the strategy label (`what` plus the `detail` counts).
fn note_staged(
    rec: Option<&mut Recorder>,
    morsels: usize,
    partitions: usize,
    what: &str,
    detail: std::fmt::Arguments<'_>,
) {
    if let Some(r) = rec {
        r.note_barrier(morsels, partitions, Some(format!("{what} {detail}")), None);
    }
}

/// Byte estimate of a hash-join build table over `rows` build rows: one
/// row id per row plus hash-entry overhead for the (≤ rows) keys.
fn join_build_bytes(rows: usize) -> u64 {
    rows as u64 * 24
}

/// One join input normalized for the staged stages: a (possibly
/// full-width) batch plus the optional global survivor-id list. `None`
/// ids = a dense batch whose position *is* its row id. Positions map to
/// ascending global ids, so bucketing/probing positions in order visits
/// exactly the rows the gathered path would, in the same order.
struct JoinSide {
    batch: Batch,
    ids: Option<Vec<i64>>,
}

impl JoinSide {
    fn of(input: BarrierInput) -> JoinSide {
        match input {
            BarrierInput::Gathered(batch, _) => JoinSide { batch, ids: None },
            BarrierInput::Selected(s) => {
                let ids = s.ids();
                JoinSide {
                    batch: s.batch,
                    ids: Some(ids),
                }
            }
        }
    }

    fn rows(&self) -> usize {
        self.ids.as_ref().map_or(self.batch.rows(), Vec::len)
    }
}

/// Position-indexed key atoms for both join sides. A selection-fed side
/// atomizes each resolved key column at survivor positions only —
/// plain-layout keys by indexed reads straight off the full-width
/// column, anything else through one `filter_rows` pass — producing
/// exactly the atoms the gathered batch's key columns would (those are
/// `filter_rows` of the same full-width columns), so a selective chain
/// never pays full-width key evaluation.
fn join_side_atoms(
    left: &JoinSide,
    right: &JoinSide,
    on: &JoinOn,
) -> Result<(exact::SideAtoms, exact::SideAtoms), ExecError> {
    let (lcols, rcols) = exact::resolve_join_keys(on, &left.batch, &right.batch)?;
    let (lrows, rrows) = (left.ids.as_deref(), right.ids.as_deref());
    let mut latoms = Vec::with_capacity(lcols.len());
    let mut ratoms = Vec::with_capacity(rcols.len());
    for (l, r) in lcols.iter().zip(&rcols) {
        let (a, b) = exact::join_pair_atoms_at(l, lrows, r, rrows)?;
        latoms.push(a);
        ratoms.push(b);
    }
    Ok((latoms, ratoms))
}

/// Partitioned hash join: exchange the build (right) side into
/// per-partition hash tables, then probe left morsels in parallel.
///
/// Stage 1 buckets build rows by composite-key hash (morsel-claiming);
/// stage 2 builds one hash table per partition (partition-claiming),
/// inserting rows in ascending build order; stage 3 probes left morsels
/// and reassembles match lists in morsel order. The resulting index
/// pairs — and the unmatched-left pass — are exactly the sequential
/// kernel's, so [`exact::join_assemble`] finishes both paths. A
/// selection-fed input skips its gather entirely: key columns alone are
/// filtered to survivor width for atomization, stages hash and probe by
/// survivor position, and the assemble step gathers matched global row
/// ids straight out of the full-width batch.
pub(crate) fn run_join(
    left: BarrierInput,
    right: BarrierInput,
    kind: JoinKind,
    on: &JoinOn,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let diff = left.has_diff() || right.has_diff();
    let (staged, reason) = join_decision(left.rows_out(), right.rows_out(), diff, ctx);
    if !staged {
        note_sequential(rec, reason);
        let (left, right) = (left.into_gathered(), right.into_gathered());
        // The sequential kernel builds one hash table over the whole
        // build side; charge the same per-row estimate the staged build
        // uses so enforcement is thread-count-invariant.
        let _charge = memory::charge(&ctx.memory, "join build", join_build_bytes(right.rows()))?;
        return exact::join_batches(&left, &right, kind, on);
    }
    let (lside, rside) = (JoinSide::of(left), JoinSide::of(right));
    let (latoms, ratoms) = join_side_atoms(&lside, &rside, on)?;
    let partitions = ctx.partitions.max(1);
    let build = num_morsels(rside.rows(), ctx.morsel_rows);
    let probe = num_morsels(lside.rows(), ctx.morsel_rows);
    note_staged(
        rec,
        build + probe,
        partitions,
        "partitioned",
        format_args!("×{partitions} ({build} build + {probe} probe morsels)"),
    );
    // Held until the joined batch is assembled: exchange buckets, the
    // per-partition build tables and the probe index vectors.
    let charges = memory::ScopedCharges::new(&ctx.memory);

    // Stage 1: exchange build-side rows into partitions by key hash.
    // Survivor positions (not morsel width) are what gets bucketed, so a
    // selective chain charges and shuffles only what survived. Atoms are
    // position-indexed (survivor space), so every stage hashes and
    // probes by position; global ids appear only in the emitted index
    // lists the assembly gathers on.
    charges.add("join exchange", rside.rows() as u64 * 8)?;
    // Workers must not capture the batches (autodiff columns are not
    // `Sync`); the bare id slices carry everything the stages emit.
    let (lids, rids) = (lside.ids.as_deref(), rside.ids.as_deref());
    let gid = |ids: Option<&[i64]>, pos: usize| ids.map_or(pos as i64, |v| v[pos]);
    let parts: Vec<Vec<i64>> = exchange(
        rside.rows(),
        partitions,
        ctx.morsel_rows,
        ctx.threads,
        &|pos| exact::row_hash(&ratoms, pos),
    );

    // Stage 2: shared-nothing per-partition table build (ascending rows).
    let tables: Vec<exact::JoinTable> = claim_indexed(partitions, ctx.threads, |p| {
        charges
            .add("join build", join_build_bytes(parts[p].len()))
            .map(|()| exact::JoinTable::build(&ratoms, parts[p].iter().copied()))
    })
    .into_iter()
    // First error in partition order wins — deterministic reporting.
    .collect::<Result<_, _>>()?;

    // Stage 3: probe left morsels in parallel; morsel-order reassembly.
    let rows = lside.rows();
    let morsel_rows = ctx.morsel_rows;
    let probe_morsels = num_morsels(rows, morsel_rows);
    let probes = claim_indexed(probe_morsels, ctx.threads, |i| {
        let start = i * morsel_rows;
        let end = (start + morsel_rows).min(rows);
        let mut li: Vec<i64> = Vec::new();
        let mut ri: Vec<i64> = Vec::new();
        let mut unmatched: Vec<i64> = Vec::new();
        for pos in start..end {
            let p = (exact::row_hash(&latoms, pos) % partitions as u64) as usize;
            match tables[p].get(&latoms, pos) {
                Some(matches) => {
                    for &m in matches {
                        li.push(gid(lids, pos));
                        ri.push(gid(rids, m as usize));
                    }
                }
                None if kind == JoinKind::Left => unmatched.push(gid(lids, pos)),
                None => {}
            }
        }
        charges
            .add(
                "join probe",
                ((li.len() + ri.len() + unmatched.len()) * 8) as u64,
            )
            .map(|()| (li, ri, unmatched))
    });

    let mut left_idx: Vec<i64> = Vec::new();
    let mut right_idx: Vec<i64> = Vec::new();
    let mut left_unmatched: Vec<i64> = Vec::new();
    for res in probes {
        let (li, ri, un) = res?;
        left_idx.extend(li);
        right_idx.extend(ri);
        left_unmatched.extend(un);
    }
    Ok(exact::join_assemble(
        &lside.batch,
        &rside.batch,
        kind,
        left_idx,
        right_idx,
        left_unmatched,
    ))
}

/// One evaluated sort-key column of a morsel run. Numeric, boolean and
/// compressed keys keep their integer grouping codes (8 bytes per row,
/// exactly what `exact::sort_batch` compares); dictionary keys keep
/// their codes *plus* the shared dictionary. Morsel slices of one
/// column share the same `Arc`'d dictionary, so run-vs-run comparisons
/// stay integer compares; only expression-generated per-morsel dicts
/// pay a decode — and because dictionaries are order-preserving
/// (sorted), code order equals string order either way, matching the
/// sequential kernel.
enum SortKeyCol {
    Ints(Vec<i64>),
    Dict {
        codes: Vec<i64>,
        dict: std::sync::Arc<tdp_encoding::StringDict>,
    },
}

impl SortKeyCol {
    fn of(col: &EncodedTensor) -> Result<SortKeyCol, ExecError> {
        Ok(match col {
            EncodedTensor::Dict { codes, dict } => SortKeyCol::Dict {
                codes: codes.to_vec(),
                dict: dict.clone(),
            },
            other => SortKeyCol::Ints(exact::key_codes(other)?.to_vec()),
        })
    }

    /// Row range `[start, end)` of this key column. Dictionary slices
    /// share the parent's `Arc`'d dictionary, so slice-vs-slice
    /// comparisons stay integer compares.
    fn slice(&self, start: usize, end: usize) -> SortKeyCol {
        match self {
            SortKeyCol::Ints(v) => SortKeyCol::Ints(v[start..end].to_vec()),
            SortKeyCol::Dict { codes, dict } => SortKeyCol::Dict {
                codes: codes[start..end].to_vec(),
                dict: dict.clone(),
            },
        }
    }

    /// Compare row `a` of this column against row `b` of `other`. A key
    /// expression always evaluates to one encoding family, so
    /// cross-variant comparisons are unreachable; they still order
    /// deterministically (ints before strings) rather than panic.
    #[inline]
    fn cmp_rows(&self, a: usize, other: &SortKeyCol, b: usize) -> std::cmp::Ordering {
        match (self, other) {
            (SortKeyCol::Ints(x), SortKeyCol::Ints(y)) => x[a].cmp(&y[b]),
            (SortKeyCol::Dict { codes: x, dict: dx }, SortKeyCol::Dict { codes: y, dict: dy }) => {
                if std::sync::Arc::ptr_eq(dx, dy) {
                    x[a].cmp(&y[b])
                } else {
                    dx.decode_one(x[a]).cmp(dy.decode_one(y[b]))
                }
            }
            (SortKeyCol::Ints(_), SortKeyCol::Dict { .. }) => std::cmp::Ordering::Less,
            (SortKeyCol::Dict { .. }, SortKeyCol::Ints(_)) => std::cmp::Ordering::Greater,
        }
    }
}

/// Byte estimate of sorting `rows` rows on `nkeys` keys sequentially:
/// the evaluated key codes plus the argsort permutation.
fn sort_bytes(rows: usize, nkeys: usize) -> u64 {
    (rows * (8 + 8 * nkeys)) as u64
}

/// One sorted per-morsel run: local row order plus the evaluated key
/// columns (kept in *original* local order; `order` permutes into them).
struct SortRun {
    start: usize,
    order: Vec<u32>,
    keys: Vec<SortKeyCol>,
}

/// Build per-morsel sorted runs: workers claim morsels, evaluate the key
/// expressions over the morsel slice, and sort local rows by
/// `(keys…, input position)` — the stable-sort total order. With
/// `take_k`, each run keeps only its k best rows (per-morsel top-k).
fn sort_runs(
    input: &Batch,
    keys: &[crate::physical::PhysOrderKey],
    take_k: Option<usize>,
    charges: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Vec<SortRun>, ExecError> {
    let rows = input.rows();
    let morsel_rows = ctx.morsel_rows;
    let morsels = num_morsels(rows, morsel_rows);
    let cols = to_partition_cols(input);
    charges.add("sort materialization", memory::cols_bytes(&cols))?;

    let make_run = |i: usize, wctx: &ExecContext| -> Result<SortRun, ExecError> {
        let start = i * morsel_rows;
        let end = (start + morsel_rows).min(rows);
        // A run holds the evaluated key codes (8 B/row/key) plus the
        // local permutation (4 B/row).
        charges.add("sort run", ((end - start) * (4 + 8 * keys.len())) as u64)?;
        let batch = slice_cols(&cols, start, end);
        let mut key_cols = Vec::with_capacity(keys.len());
        for k in keys {
            match eval_expr(&k.expr, &batch, wctx)? {
                Value::Column(c) => key_cols.push(SortKeyCol::of(&c)?),
                other => {
                    return Err(ExecError::TypeMismatch(format!(
                        "ORDER BY expression must be a column, got {other:?}"
                    )))
                }
            }
        }
        let order = sorted_order(&key_cols, keys, end - start, take_k);
        Ok(SortRun {
            start,
            order,
            keys: key_cols,
        })
    };

    let slots = ClaimSlots::new(morsels);
    let workers = ctx.threads.min(morsels).max(1);
    run_workers(workers, &WorkerCfg::of(ctx), &|wctx: &ExecContext| {
        slots.drain(|i| make_run(i, wctx))
    });

    // First error in morsel order wins — deterministic reporting.
    slots.take().into_iter().collect()
}

/// Local row order of one run under the stable `(keys…, position)`
/// total order, optionally truncated to the run's k best rows.
fn sorted_order(
    key_cols: &[SortKeyCol],
    keys: &[crate::physical::PhysOrderKey],
    len: usize,
    take_k: Option<usize>,
) -> Vec<u32> {
    let mut order: Vec<u32> = (0..len as u32).collect();
    let cmp = |a: &u32, b: &u32| {
        for (col, k) in key_cols.iter().zip(keys) {
            let (a, b) = (*a as usize, *b as usize);
            let ord = if k.desc {
                col.cmp_rows(b, col, a)
            } else {
                col.cmp_rows(a, col, b)
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(b) // input position breaks ties, as in the stable sort
    };
    if let Some(k) = take_k {
        if k > 0 && k < len {
            order.select_nth_unstable_by(k - 1, cmp);
            order.truncate(k);
        }
    }
    order.sort_unstable_by(cmp);
    order
}

/// Selection-fed sort/top-k core: evaluate nothing — the keys must be
/// plain column refs (checked by the caller), already gathered to
/// survivor width. Runs chunk **selection space** by the session morsel
/// size; run-local ties break on survivor position, which is ascending
/// global position, so the merged order equals the stable whole-batch
/// sort and the single payload gather happens once, at the end.
fn sort_selected(
    s: &SelScan,
    gathered_keys: Vec<SortKeyCol>,
    keys: &[crate::physical::PhysOrderKey],
    take_k: Option<usize>,
    limit: Option<usize>,
    charges: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let n = s.survivors();
    let morsel_rows = ctx.morsel_rows;
    let morsels = num_morsels(n, morsel_rows);
    let runs: Vec<SortRun> = claim_indexed(morsels, ctx.threads, |i| {
        let start = i * morsel_rows;
        let end = (start + morsel_rows).min(n);
        charges.add("sort run", ((end - start) * (4 + 8 * keys.len())) as u64)?;
        let key_cols: Vec<SortKeyCol> = gathered_keys.iter().map(|k| k.slice(start, end)).collect();
        let order = sorted_order(&key_cols, keys, end - start, take_k);
        Ok(SortRun {
            start,
            order,
            keys: key_cols,
        })
    })
    .into_iter()
    // First error in morsel order wins — deterministic reporting.
    .collect::<Result<_, ExecError>>()?;
    let ids = s.ids();
    let idx: Vec<i64> = merge_runs(&runs, keys, limit)
        .into_iter()
        .map(|p| ids[p as usize])
        .collect();
    let len = idx.len();
    Ok(exact::select_batch(
        &s.batch,
        &Tensor::from_vec(idx, &[len]),
    ))
}

/// Resolve sort keys as plain column refs over a selection's full-width
/// batch and gather them to survivor width — the only evaluation the
/// selection-fed sort path needs. `None` when any key is a computed
/// expression (the caller gathers and takes the staged path).
fn gather_sort_keys(
    s: &SelScan,
    keys: &[crate::physical::PhysOrderKey],
) -> Result<Option<Vec<SortKeyCol>>, ExecError> {
    let mut srcs = Vec::with_capacity(keys.len());
    for k in keys {
        let CompiledExpr::Column(r) = &k.expr else {
            return Ok(None);
        };
        match resolve_col(&s.batch, r) {
            Some(c) => srcs.push(c),
            None => return Ok(None),
        }
    }
    let mask = s.sel.gather_mask(s.rows);
    let mut out = Vec::with_capacity(srcs.len());
    for c in srcs {
        out.push(SortKeyCol::of(&c.filter_rows(&mask))?);
    }
    Ok(Some(out))
}

/// Resolve a physical column ref against a batch exactly as the
/// expression evaluator does ([`crate::physical::ColumnRef::resolve`]).
fn resolve_col(batch: &Batch, r: &crate::physical::ColumnRef) -> Option<EncodedTensor> {
    r.resolve(batch).ok().map(|c| c.to_exact())
}

/// K-way merge of sorted runs into a global row-index order, stopping
/// after `limit` rows when given. A binary tournament heap keyed by the
/// same `(keys…, input position)` total order as the runs themselves,
/// so the merge is stable and the output equals the full stable sort.
fn merge_runs(
    runs: &[SortRun],
    keys: &[crate::physical::PhysOrderKey],
    limit: Option<usize>,
) -> Vec<i64> {
    // `less(a, b)`: does run-cursor `a` come strictly before `b`?
    let less = |a: &(usize, usize), b: &(usize, usize)| -> bool {
        let (ra, rb) = (&runs[a.0], &runs[b.0]);
        let (la, lb) = (ra.order[a.1] as usize, rb.order[b.1] as usize);
        for (j, k) in keys.iter().enumerate() {
            let ord = if k.desc {
                rb.keys[j].cmp_rows(lb, &ra.keys[j], la)
            } else {
                ra.keys[j].cmp_rows(la, &rb.keys[j], lb)
            };
            match ord {
                std::cmp::Ordering::Less => return true,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => {}
            }
        }
        (ra.start + la) < (rb.start + lb)
    };

    // Min-heap of (run, position-within-run) cursors.
    let mut heap: Vec<(usize, usize)> = (0..runs.len())
        .filter(|&m| !runs[m].order.is_empty())
        .map(|m| (m, 0))
        .collect();
    let sift_down = |heap: &mut Vec<(usize, usize)>, mut i: usize| loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut best = i;
        if l < heap.len() && less(&heap[l], &heap[best]) {
            best = l;
        }
        if r < heap.len() && less(&heap[r], &heap[best]) {
            best = r;
        }
        if best == i {
            break;
        }
        heap.swap(i, best);
        i = best;
    };
    for i in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, i);
    }

    let total: usize = runs.iter().map(|r| r.order.len()).sum();
    let cap = limit.map_or(total, |n| n.min(total));
    let mut out = Vec::with_capacity(cap);
    while out.len() < cap {
        let (m, pos) = heap[0];
        out.push((runs[m].start + runs[m].order[pos] as usize) as i64);
        if pos + 1 < runs[m].order.len() {
            heap[0] = (m, pos + 1);
        } else {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
            if heap.is_empty() {
                break;
            }
        }
        sift_down(&mut heap, 0);
    }
    out
}

/// Parallel merge sort: per-morsel sorted runs, k-way merged under the
/// stable `(keys…, input position)` order. Byte-identical to
/// [`exact::sort_batch`], which remains the fallback and the oracle. A
/// selection-fed input whose keys are plain column refs gathers only
/// the key columns up front; the payload gather happens once, on the
/// merged order.
pub(crate) fn run_sort(
    input: BarrierInput,
    keys: &[crate::physical::PhysOrderKey],
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let (staged, reason) = sort_decision(input.rows_out(), input.has_diff(), keys, ctx);
    if !staged {
        note_sequential(rec, reason);
        let input = input.into_gathered();
        // The sequential argsort holds the same key codes + permutation.
        let _charge = memory::charge(&ctx.memory, "sort", sort_bytes(input.rows(), keys.len()))?;
        return exact::sort_batch(&input, keys, ctx);
    }
    let runs = num_morsels(input.rows_out(), ctx.morsel_rows);
    note_staged(rec, runs, 0, "merge-sort", format_args!("×{runs} runs"));
    if let BarrierInput::Selected(s) = &input {
        // Held until the sorted batch is assembled: gathered key
        // columns plus every run's keys and permutation.
        let charges = memory::ScopedCharges::new(&ctx.memory);
        charges.add("sort key gather", (s.survivors() * 8 * keys.len()) as u64)?;
        if let Some(gathered) = gather_sort_keys(s, keys)? {
            return sort_selected(s, gathered, keys, None, None, &charges, ctx);
        }
        // Computed keys need per-morsel expression evaluation over
        // dense rows; gather once and take the staged path below.
    }
    let input = input.into_gathered();
    let charges = memory::ScopedCharges::new(&ctx.memory);
    let runs = sort_runs(&input, keys, None, &charges, ctx)?;
    let idx = merge_runs(&runs, keys, None);
    let n = idx.len();
    Ok(exact::select_batch(&input, &Tensor::from_vec(idx, &[n])))
}

/// Parallel top-k: per-morsel `top-k` runs (selection + short sort)
/// merged O(k·m) into the global k best. Byte-identical to
/// [`exact::topk_batch`] (= the first k rows of the full stable sort).
pub(crate) fn run_topk(
    input: BarrierInput,
    keys: &[crate::physical::PhysOrderKey],
    k: usize,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let k = k.min(input.rows_out());
    if k == 0 {
        note_sequential(rec, None);
        return exact::topk_batch(&input.into_gathered(), keys, k, ctx);
    }
    let (staged, reason) = sort_decision(input.rows_out(), input.has_diff(), keys, ctx);
    if !staged {
        note_sequential(rec, reason);
        let input = input.into_gathered();
        let _charge = memory::charge(&ctx.memory, "top-k", sort_bytes(input.rows(), keys.len()))?;
        return exact::topk_batch(&input, keys, k, ctx);
    }
    let runs = num_morsels(input.rows_out(), ctx.morsel_rows);
    note_staged(rec, runs, 0, "parallel top-k", format_args!("×{runs} runs"));
    if let BarrierInput::Selected(s) = &input {
        let charges = memory::ScopedCharges::new(&ctx.memory);
        charges.add("sort key gather", (s.survivors() * 8 * keys.len()) as u64)?;
        if let Some(gathered) = gather_sort_keys(s, keys)? {
            return sort_selected(s, gathered, keys, Some(k), Some(k), &charges, ctx);
        }
    }
    let input = input.into_gathered();
    let charges = memory::ScopedCharges::new(&ctx.memory);
    let runs = sort_runs(&input, keys, Some(k), &charges, ctx)?;
    let idx = merge_runs(&runs, keys, Some(k));
    let n = idx.len();
    Ok(exact::select_batch(&input, &Tensor::from_vec(idx, &[n])))
}

/// Shared-nothing DISTINCT: exchange rows by composite grouping-code
/// hash, dedup each partition independently (a key lives in exactly one
/// partition, so a partition's first occurrence is the global one), then
/// re-sort the surviving row ids into input order — byte-identical to
/// [`exact::distinct_batch`]'s first-occurrence output.
pub(crate) fn run_distinct(
    input: BarrierInput,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let rows = input.rows_out();
    let ncols = input.columns_len();
    let (staged, reason) = distinct_decision(rows, ncols, input.has_diff(), ctx);
    if !staged {
        note_sequential(rec, reason);
        let input = input.into_gathered();
        // The sequential kernel holds the same key codes and one big
        // seen-set; charge the per-row estimate of the staged path so
        // enforcement is thread-count-invariant.
        let _charge = memory::charge(&ctx.memory, "distinct", (rows * (8 * ncols + 16)) as u64)?;
        return exact::distinct_batch(&input);
    }
    let (morsels, partitions) = (num_morsels(rows, ctx.morsel_rows), ctx.partitions.max(1));
    note_staged(
        rec,
        morsels,
        partitions,
        "partitioned",
        format_args!("×{partitions} ({morsels} morsels)"),
    );
    // Held until the surviving rows are selected out: key codes,
    // exchange buckets and the per-partition seen-sets. The codes are
    // survivor-width either way — a selection-fed input extracts them
    // through the selection and defers the payload gather to the final
    // representative select.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    charges.add("distinct key codes", (rows * 8 * ncols) as u64)?;
    match input {
        BarrierInput::Gathered(b, _) => {
            let codes: Vec<Vec<i64>> = b
                .columns()
                .iter()
                .map(|(_, c)| exact::key_codes(&c.to_exact()).map(|t| t.to_vec()))
                .collect::<Result<_, _>>()?;
            let rep = distinct_reps(&codes, rows, ncols, &charges, ctx)?;
            let n = rep.len();
            Ok(exact::select_batch(&b, &Tensor::from_vec(rep, &[n])))
        }
        BarrierInput::Selected(s) => {
            let mask = s.sel.gather_mask(s.rows);
            let codes: Vec<Vec<i64>> = s
                .batch
                .columns()
                .iter()
                .map(|(_, c)| {
                    exact::key_codes(&c.to_exact().filter_rows(&mask)).map(|t| t.to_vec())
                })
                .collect::<Result<_, _>>()?;
            // Representatives come back as survivor positions; map them
            // to global ids for the one deferred gather.
            let ids = s.ids();
            let rep: Vec<i64> = distinct_reps(&codes, rows, ncols, &charges, ctx)?
                .into_iter()
                .map(|p| ids[p as usize])
                .collect();
            let n = rep.len();
            Ok(exact::select_batch(&s.batch, &Tensor::from_vec(rep, &[n])))
        }
    }
}

/// Exchange + shared-nothing dedup over precomputed grouping codes:
/// returns the first-occurrence row positions, ascending. Positions are
/// whatever space the codes live in (dense rows or selection space).
fn distinct_reps(
    codes: &[Vec<i64>],
    rows: usize,
    ncols: usize,
    charges: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Vec<i64>, ExecError> {
    let partitions = ctx.partitions.max(1);
    charges.add("distinct exchange", rows as u64 * 8)?;
    let parts = exchange(rows, partitions, ctx.morsel_rows, ctx.threads, &|r| {
        exact::code_hash(codes, r)
    });

    // Per-partition dedup, keeping first occurrences (rows ascending).
    let survivors = claim_indexed(partitions, ctx.threads, |p| {
        // Worst case (all keys distinct) the seen-set holds every key.
        charges.add("distinct set", (parts[p].len() * (8 * ncols + 16)) as u64)?;
        let mut keep: Vec<i64> = Vec::new();
        if codes.len() == 1 {
            let col = &codes[0];
            let mut seen: std::collections::HashSet<i64> = std::collections::HashSet::new();
            for &r in &parts[p] {
                if seen.insert(col[r as usize]) {
                    keep.push(r);
                }
            }
        } else {
            let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
            for &r in &parts[p] {
                let key: Vec<i64> = codes.iter().map(|c| c[r as usize]).collect();
                if seen.insert(key) {
                    keep.push(r);
                }
            }
        }
        Ok(keep)
    })
    .into_iter()
    // First error in partition order wins — deterministic reporting.
    .collect::<Result<Vec<Vec<i64>>, ExecError>>()?;

    let mut rep: Vec<i64> = survivors.into_iter().flatten().collect();
    rep.sort_unstable(); // first-occurrence input order, as sequential
    Ok(rep)
}

// ----------------------------------------------------------------------
// Barrier observability (EXPLAIN strategy notes)
// ----------------------------------------------------------------------

/// Compile-time-visible scheduling note for a barrier node: how the
/// staged scheduler will run it (`partitioned ×16`, `merge-sort ×runs`)
/// or why it must stay sequential. `None` for barriers the scheduler
/// never stages (window, TVFs, UNION ALL) — those are whole-batch by
/// nature. Input sizes are unknown before execution, so a barrier that
/// turns out to fit one morsel still runs sequentially at run time (a
/// profiled run reports the decision each `run_*` actually took).
pub(crate) fn barrier_note(plan: &PhysicalPlan, ctx: &ExecContext) -> Option<String> {
    use crate::physical::PhysicalPlan as P;
    match plan {
        P::Join { .. } | P::Distinct { .. } if ctx.threads > 1 => {
            Some(format!("partitioned ×{}", ctx.partitions.max(1)))
        }
        P::Sort { keys, .. } | P::TopK { keys, .. } if ctx.threads > 1 => {
            match keys.iter().find_map(|k| expr_fallback(&k.expr, ctx)) {
                Some(reason) => Some(format!("sequential: {reason}")),
                None if matches!(plan, P::Sort { .. }) => Some("merge-sort".into()),
                None => Some("parallel top-k".into()),
            }
        }
        P::Join { .. } | P::Distinct { .. } | P::Sort { .. } | P::TopK { .. } => {
            Some("sequential: threads=1".into())
        }
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Parallel partial aggregation
// ----------------------------------------------------------------------

/// Cross-morsel group identity for one key column. Dictionary columns
/// merge on decoded strings (the order-preserving dictionary makes
/// string order = code order, so the combine's sorted output matches the
/// sequential kernel's); everything else merges on its grouping code.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum MergeKey {
    Int(i64),
    Str(String),
}

/// Per-aggregate partial state over one morsel's groups.
enum AccColumn {
    /// COUNT(*) / COUNT(expr): rows (or trues) per group.
    Count(Vec<i64>),
    /// SUM partials (f32, matching the sequential segment-sum kernel).
    Sum(Vec<f32>),
    /// AVG: sum partials; the divisor is the merged group size.
    Avg(Vec<f32>),
    Min(Vec<f32>),
    Max(Vec<f32>),
    /// VARIANCE / STDDEV: f64 power sums, as in the sequential kernel.
    Moments {
        sum: Vec<f64>,
        sumsq: Vec<f64>,
    },
}

/// Partial aggregation state of one morsel.
struct PartialAgg {
    /// Representative key rows (first in-morsel occurrence), encoding
    /// preserved; one `[groups]` column per GROUP BY key.
    key_reps: Vec<EncodedTensor>,
    /// Cross-morsel merge identity, `[num_keys][groups]`.
    merge_keys: Vec<Vec<MergeKey>>,
    /// Group sizes.
    counts: Vec<i64>,
    accs: Vec<AccColumn>,
    groups: usize,
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
                if a.func == AggFunc::CountDistinct {
                    return Some("count-distinct".into());
                }
                a.arg.as_ref().and_then(|e| expr_fallback(e, ctx))
            })
        })
}

/// Run a fused chain + grouped aggregation, morsel-parallel where safe:
/// each morsel folds into per-group partial states, merged by a combine
/// step that walks morsels in index order (deterministic at any thread
/// count).
pub(crate) fn run_aggregate(
    input: &Batch,
    ops: &[MorselOp<'_>],
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    skip: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let rows = input.rows();
    let (morsels, seq_reason) = planned_and_reason(input, ops, Some((keys, aggregates)), ctx);
    let kern = if seq_reason.is_none() {
        kernel::prepare(ops, ctx)
    } else {
        None
    };
    if morsels <= 1 {
        let whole = single_morsel_input(input, rows, skip, ctx);
        let inp = match kern.as_deref().and_then(|k| k.run(&whole)) {
            Some(b) => b,
            None => apply_ops(whole, ops, ctx)?,
        };
        return exact::aggregate_batch(&inp, keys, aggregates, ctx);
    }

    // Selection exit: when the chain compiled and is selection-capable,
    // fold the aggregation straight over its `SelVec` — no survivor
    // gather at all on the ungrouped fast path, one referenced-columns
    // gather on the grouped path. Partials chunk by *input* morsel
    // boundaries, so they are byte-identical to the gathered loop below
    // and `None` (a run-time bail or unresolvable shape) falls through
    // to it with nothing recorded.
    if let Some(k) = kern.as_deref() {
        if k.selection_capable().is_ok() {
            if let Some(out) =
                aggregate_selection(input, k, ops, keys, aggregates, skip, morsels, ctx)?
            {
                ctx.access.note_barrier_selection_fed();
                return Ok(out);
            }
        }
        ctx.access.note_barrier_gathered();
    }

    type PartialSlot = Option<Result<Option<PartialAgg>, ExecError>>;
    let cols = to_partition_cols(input);
    // Partial states are per-group (small); the decoded input columns
    // dominate, charged until the merged batch is built.
    let _charge = memory::charge(
        &ctx.memory,
        "aggregate materialization",
        memory::cols_bytes(&cols),
    )?;
    let morsel_rows = ctx.morsel_rows;
    let skip = skip.filter(|s| s.len() == morsels);
    let next = AtomicUsize::new(0);
    let pruned = AtomicUsize::new(0);
    let scanned = AtomicUsize::new(0);
    let slots: Mutex<Vec<PartialSlot>> = Mutex::new((0..morsels).map(|_| None).collect());

    let work = |wctx: &ExecContext| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= morsels {
            break;
        }
        let start = i * morsel_rows;
        // Pruned morsels contribute no groups; the empty partial keeps
        // the combine walk identical to the unpruned run.
        let end = if skip.is_some_and(|s| s[i]) {
            pruned.fetch_add(1, Ordering::Relaxed);
            start
        } else {
            if skip.is_some() {
                scanned.fetch_add(1, Ordering::Relaxed);
            }
            (start + morsel_rows).min(rows)
        };
        let out = apply_ops_k(slice_cols(&cols, start, end), ops, kern.as_deref(), wctx)
            .and_then(|b| partial_aggregate(&b, keys, aggregates, wctx));
        slots.lock().expect("agg state poisoned")[i] = Some(out);
    };

    let workers = ctx.threads.min(morsels).max(1);
    run_workers(workers, &WorkerCfg::of(ctx), &work);
    if skip.is_some() {
        ctx.access.note_morsels(
            pruned.load(Ordering::Relaxed) as u64,
            scanned.load(Ordering::Relaxed) as u64,
        );
    }

    let mut partials = Vec::with_capacity(morsels);
    for slot in slots.into_inner().expect("agg state poisoned") {
        match slot.expect("aggregate morsels are never skipped") {
            Err(e) => return Err(e),
            Ok(Some(p)) => partials.push(p),
            Ok(None) => {} // empty morsel after filtering
        }
    }
    merge_partials(partials, keys, aggregates, input, ops, ctx)
}

/// Fold one morsel into per-group partial states. Returns `None` for an
/// empty morsel (every row filtered out) — it contributes no groups.
fn partial_aggregate(
    batch: &Batch,
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    ctx: &ExecContext,
) -> Result<Option<PartialAgg>, ExecError> {
    use tdp_tensor::sort::group_ids;
    let n = batch.rows();
    if n == 0 {
        return Ok(None);
    }

    let mut key_cols: Vec<EncodedTensor> = Vec::with_capacity(keys.len());
    for k in keys {
        match eval_expr(&k.expr, batch, ctx)? {
            Value::Column(c) => key_cols.push(c),
            other => {
                return Err(ExecError::TypeMismatch(format!(
                    "GROUP BY expression must be a column, got {other:?}"
                )))
            }
        }
    }

    let (ids, groups, rep_rows) = if key_cols.is_empty() {
        (
            Tensor::from_vec(vec![0i64; n], &[n]),
            1usize,
            Tensor::from_vec(vec![0i64], &[1]),
        )
    } else {
        let codes: Vec<I64Tensor> = key_cols
            .iter()
            .map(exact::key_codes)
            .collect::<Result<_, _>>()?;
        let refs: Vec<&I64Tensor> = codes.iter().collect();
        let (ids, distinct) = group_ids(&refs);
        let groups = distinct.shape()[0];
        let mut rep = vec![-1i64; groups];
        for (row, &g) in ids.data().iter().enumerate() {
            if rep[g as usize] < 0 {
                rep[g as usize] = row as i64;
            }
        }
        (ids, groups, Tensor::from_vec(rep, &[groups]))
    };

    let key_reps: Vec<EncodedTensor> = key_cols.iter().map(|c| c.select_rows(&rep_rows)).collect();
    let merge_keys: Vec<Vec<MergeKey>> = key_cols
        .iter()
        .map(|c| {
            Ok(match c {
                EncodedTensor::Dict { codes, dict } => rep_rows
                    .data()
                    .iter()
                    .map(|&r| MergeKey::Str(dict.decode_one(codes.at(r as usize)).to_owned()))
                    .collect(),
                other => {
                    let codes = exact::key_codes(other)?;
                    rep_rows
                        .data()
                        .iter()
                        .map(|&r| MergeKey::Int(codes.at(r as usize)))
                        .collect()
                }
            })
        })
        .collect::<Result<_, ExecError>>()?;

    let counts: Vec<i64> = {
        let ones = F32Tensor::ones(&[n]);
        ones.segment_sum(&ids, groups)
            .data()
            .iter()
            .map(|&c| c as i64)
            .collect()
    };

    let mut accs = Vec::with_capacity(aggregates.len());
    for agg in aggregates {
        let acc = match (agg.func, &agg.arg) {
            (AggFunc::Count, None) => AccColumn::Count(counts.clone()),
            (AggFunc::Count, Some(e)) => match eval_expr(e, batch, ctx)? {
                Value::Column(EncodedTensor::Bool(m)) => AccColumn::Count(
                    m.to_f32_mask()
                        .segment_sum(&ids, groups)
                        .data()
                        .iter()
                        .map(|&v| v as i64)
                        .collect(),
                ),
                _ => AccColumn::Count(counts.clone()),
            },
            (AggFunc::Sum, Some(e)) => {
                let vals = eval_expr(e, batch, ctx)?.into_f32_column(n)?;
                AccColumn::Sum(vals.segment_sum(&ids, groups).to_vec())
            }
            (AggFunc::Avg, Some(e)) => {
                let vals = eval_expr(e, batch, ctx)?.into_f32_column(n)?;
                AccColumn::Avg(vals.segment_sum(&ids, groups).to_vec())
            }
            (AggFunc::Min, Some(e)) | (AggFunc::Max, Some(e)) => {
                let vals = eval_expr(e, batch, ctx)?.into_f32_column(n)?;
                let is_min = agg.func == AggFunc::Min;
                let init = if is_min {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
                let mut acc = vec![init; groups];
                for (row, &g) in ids.data().iter().enumerate() {
                    let v = vals.at(row);
                    let slot = &mut acc[g as usize];
                    if (is_min && v < *slot) || (!is_min && v > *slot) {
                        *slot = v;
                    }
                }
                if is_min {
                    AccColumn::Min(acc)
                } else {
                    AccColumn::Max(acc)
                }
            }
            (AggFunc::Variance, Some(e)) | (AggFunc::Stddev, Some(e)) => {
                let vals = eval_expr(e, batch, ctx)?.into_f32_column(n)?;
                let mut sum = vec![0.0f64; groups];
                let mut sumsq = vec![0.0f64; groups];
                for (row, &g) in ids.data().iter().enumerate() {
                    let v = vals.at(row) as f64;
                    sum[g as usize] += v;
                    sumsq[g as usize] += v * v;
                }
                AccColumn::Moments { sum, sumsq }
            }
            (AggFunc::CountDistinct, _) => {
                unreachable!("COUNT(DISTINCT) is filtered by aggregate_fallback")
            }
            (f, None) => {
                return Err(ExecError::Unsupported(format!(
                    "{}(*) is not meaningful",
                    f.name()
                )))
            }
        };
        accs.push(acc);
    }

    Ok(Some(PartialAgg {
        key_reps,
        merge_keys,
        counts,
        accs,
        groups,
    }))
}

// ----------------------------------------------------------------------
// Selection-fed aggregation
// ----------------------------------------------------------------------

/// Fold the aggregation directly over a chain's selection exit.
/// Ungrouped aggregates over plain numeric columns accumulate through
/// the mask (dense) or the survivor index list (sparse) with **zero**
/// gathers; grouped or computed shapes gather only the referenced
/// columns once and feed per-morsel mini-batches through the ordinary
/// [`partial_aggregate`]. Both chunk partials by input morsel
/// boundaries, so every float partial is byte-identical to the gathered
/// loop's. `Ok(None)` = decline (run-time bail, unresolvable column
/// ref): the caller's gathered loop reproduces the identical result or
/// error, and all counter accounting is left to it.
#[allow(clippy::too_many_arguments)]
fn aggregate_selection(
    input: &Batch,
    kern: &kernel::ChainInstance,
    ops: &[MorselOp<'_>],
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    skip: Option<&[bool]>,
    morsels: usize,
    ctx: &ExecContext,
) -> Result<Option<Batch>, ExecError> {
    let rows = input.rows();
    let morsel_rows = ctx.morsel_rows;
    let skip = skip.filter(|s| s.len() == morsels);
    let Some(mut out) = kern.run_selection(input, skip_init(skip, rows, morsel_rows)) else {
        return Ok(None);
    };
    // Selective chains demote the mask to a survivor index list once so
    // every fold below visits survivors instead of full morsel width.
    // Identical numerics either way (the dense arms are branchless but
    // bit-preserving), so this is purely a cost choice.
    if matches!(out.sel, kernel::SelVec::Mask(..)) && out.sel.len() * HANDOFF_IDX_DIVISOR <= rows {
        out.sel = kernel::SelVec::Idx(out.sel.into_idx());
    }
    let raw: MorselCols = out.cols;
    // An unresolvable reference would decline on both paths below;
    // catching it here keeps the decode loop referenced-columns-only.
    let Some(used) = referenced_cols(keys, aggregates, &raw) else {
        return Ok(None);
    };
    // Decode integer-compressed layouts exactly as the gathered loop's
    // `to_partition_cols` does, so mini-batch bytes match its slices —
    // but only where a key or aggregate actually reads the column;
    // unreferenced columns are never touched by either path.
    let cols: MorselCols = raw
        .into_iter()
        .zip(&used)
        .map(|((n, c), &u)| {
            let c = match c {
                e @ (EncodedTensor::Rle(_)
                | EncodedTensor::BitPacked(_)
                | EncodedTensor::Delta(_))
                    if u =>
                {
                    EncodedTensor::I64(e.decode_i64())
                }
                other => other,
            };
            (n, c)
        })
        .collect();
    let _charge = memory::charge(
        &ctx.memory,
        "selection vector",
        (out.sel.len() as u64 + 1) * 8,
    )?;
    let offs = survivor_offsets(&out.sel, rows, morsel_rows, morsels);

    let partials = if let Some(fast) = fast_aggs(keys, aggregates, &cols) {
        masked_partials(&fast, &out.sel, &offs, rows, morsel_rows, ctx)?
    } else {
        match minibatch_partials(&cols, &out.sel, &offs, keys, aggregates, rows, ctx)? {
            Some(p) => p,
            None => return Ok(None),
        }
    };
    if let Some(s) = skip {
        let pruned = s.iter().filter(|&&b| b).count();
        ctx.access
            .note_morsels(pruned as u64, (morsels - pruned) as u64);
    }
    merge_partials(partials, keys, aggregates, input, ops, ctx).map(Some)
}

/// One ungrouped aggregate the masked fast path can fold with no
/// gather: the full-width argument data is decoded once up front.
enum FastAgg {
    /// COUNT(*) — and COUNT(col) of a non-boolean column, which the
    /// sequential kernel also counts as group size.
    CountStar,
    /// COUNT(bool_col): trues among survivors.
    CountMask(Vec<bool>),
    /// SUM/AVG/MIN/MAX/VARIANCE/STDDEV over a plain numeric column. The
    /// decoded argument is `Arc`-shared so several folds over the same
    /// column (`SUM(v), AVG(v), MIN(v)…`) decode it once.
    Fold {
        func: AggFunc,
        vals: std::sync::Arc<F32Tensor>,
    },
}

/// Compile the aggregate list for the masked fast path: ungrouped, and
/// every aggregate a plain column (or `*`) over a numeric/bool column.
/// `None` = take the mini-batch path instead.
fn fast_aggs(
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    cols: &[(String, EncodedTensor)],
) -> Option<Vec<FastAgg>> {
    if !keys.is_empty() {
        return None;
    }
    let mut decoded: std::collections::HashMap<usize, std::sync::Arc<F32Tensor>> =
        std::collections::HashMap::new();
    let mut out = Vec::with_capacity(aggregates.len());
    for a in aggregates {
        let fast = match (a.func, &a.arg) {
            (AggFunc::Count, None) => FastAgg::CountStar,
            (AggFunc::Count, Some(CompiledExpr::Column(r))) => {
                match cols[resolve_idx(cols, r)?].1 {
                    EncodedTensor::Bool(ref m) => FastAgg::CountMask(m.to_vec()),
                    _ => FastAgg::CountStar,
                }
            }
            (
                AggFunc::Sum
                | AggFunc::Avg
                | AggFunc::Min
                | AggFunc::Max
                | AggFunc::Variance
                | AggFunc::Stddev,
                Some(CompiledExpr::Column(r)),
            ) => {
                let idx = resolve_idx(cols, r)?;
                let col = &cols[idx].1;
                if !matches!(col, EncodedTensor::F32(_) | EncodedTensor::I64(_)) {
                    return None;
                }
                FastAgg::Fold {
                    func: a.func,
                    vals: decoded
                        .entry(idx)
                        .or_insert_with(|| std::sync::Arc::new(col.decode_f32()))
                        .clone(),
                }
            }
            _ => return None,
        };
        out.push(fast);
    }
    Some(out)
}

/// Resolve a column ref to its slot in a raw column list, mirroring
/// batch resolution (slot position / case-insensitive first name).
fn resolve_idx(cols: &[(String, EncodedTensor)], r: &crate::physical::ColumnRef) -> Option<usize> {
    use crate::physical::ColumnRef;
    match r {
        ColumnRef::Slot { slot, .. } => (*slot < cols.len()).then_some(*slot),
        ColumnRef::Name(name) => cols.iter().position(|(n, _)| n.eq_ignore_ascii_case(name)),
    }
}

/// One morsel's survivor view: the dense row range with its mask, the
/// sparse survivor id slice, or a survivor-space range over columns
/// already compacted by [`compact_fast`].
enum SurvView<'a> {
    Dense {
        mask: &'a [bool],
        start: usize,
        end: usize,
    },
    Sparse(&'a [u32]),
    Compact {
        start: usize,
        end: usize,
    },
}

impl SurvView<'_> {
    /// f32 running sum over survivors, in row order from `+0.0` — the
    /// dense arm adds a masked `0.0` for dropped rows (branchless
    /// select), which is bit-preserving: the running sum of a
    /// round-to-nearest f32 accumulation is never `-0.0`.
    fn sum_f32(&self, vals: &[f32]) -> f32 {
        let mut s = 0.0f32;
        match self {
            SurvView::Dense { mask, start, end } => {
                for r in *start..*end {
                    s += if mask[r] { vals[r] } else { 0.0 };
                }
            }
            SurvView::Sparse(ids) => {
                for &r in *ids {
                    s += vals[r as usize];
                }
            }
            SurvView::Compact { start, end } => {
                for &v in &vals[*start..*end] {
                    s += v;
                }
            }
        }
        s
    }

    /// Survivor count accumulated in f32, replicating the gathered
    /// path's ones-segment-sum numerics exactly.
    fn count_f32(&self) -> f32 {
        let mut c = 0.0f32;
        match self {
            SurvView::Dense { mask, start, end } => {
                for r in *start..*end {
                    c += if mask[r] { 1.0 } else { 0.0 };
                }
            }
            SurvView::Sparse(ids) => {
                for _ in *ids {
                    c += 1.0;
                }
            }
            SurvView::Compact { start, end } => {
                for _ in *start..*end {
                    c += 1.0;
                }
            }
        }
        c
    }

    /// Trues among survivors, in f32 like the gathered bool-mask
    /// segment sum.
    fn count_trues(&self, arg: &[bool]) -> f32 {
        let mut c = 0.0f32;
        match self {
            SurvView::Dense { mask, start, end } => {
                for r in *start..*end {
                    c += if mask[r] && arg[r] { 1.0 } else { 0.0 };
                }
            }
            SurvView::Sparse(ids) => {
                for &r in *ids {
                    c += if arg[r as usize] { 1.0 } else { 0.0 };
                }
            }
            SurvView::Compact { start, end } => {
                for &a in &arg[*start..*end] {
                    c += if a { 1.0 } else { 0.0 };
                }
            }
        }
        c
    }

    /// MIN/MAX with the sequential kernel's exact comparison (strict
    /// `<` / `>` against the running slot, NaN-insensitive).
    fn min_max(&self, vals: &[f32], is_min: bool) -> f32 {
        let mut slot = if is_min {
            f32::INFINITY
        } else {
            f32::NEG_INFINITY
        };
        let mut step = |v: f32| {
            if (is_min && v < slot) || (!is_min && v > slot) {
                slot = v;
            }
        };
        match self {
            SurvView::Dense { mask, start, end } => {
                for r in *start..*end {
                    if mask[r] {
                        step(vals[r]);
                    }
                }
            }
            SurvView::Sparse(ids) => {
                for &r in *ids {
                    step(vals[r as usize]);
                }
            }
            SurvView::Compact { start, end } => {
                for &v in &vals[*start..*end] {
                    step(v);
                }
            }
        }
        slot
    }

    /// f64 power sums for VARIANCE/STDDEV, both accumulators advanced
    /// per row as in the gathered loop.
    fn moments(&self, vals: &[f32]) -> (f64, f64) {
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        let mut step = |v: f64| {
            sum += v;
            sumsq += v * v;
        };
        match self {
            SurvView::Dense { mask, start, end } => {
                for r in *start..*end {
                    let v = if mask[r] { vals[r] as f64 } else { 0.0 };
                    sum += v;
                    sumsq += v * v;
                }
            }
            SurvView::Sparse(ids) => {
                for &r in *ids {
                    step(vals[r as usize] as f64);
                }
            }
            SurvView::Compact { start, end } => {
                for &v in &vals[*start..*end] {
                    step(v as f64);
                }
            }
        }
        (sum, sumsq)
    }
}

/// Compact a dense selection's fold columns (and boolean COUNT args) to
/// survivor width — one masked pass per distinct column, shared by
/// every fold over it through the same `Arc` slot. `None` = keep the
/// masked walk: the selection is already an index list, or no column is
/// folded more than once (one masked walk costs less than compacting).
fn compact_fast(
    fast: &[FastAgg],
    sel: &kernel::SelVec,
    ctx: &ExecContext,
) -> Result<Option<(Vec<FastAgg>, memory::ChargeGuard)>, ExecError> {
    use std::sync::Arc;
    let kernel::SelVec::Mask(mask, _) = sel else {
        return Ok(None);
    };
    let mut uses: std::collections::HashMap<*const F32Tensor, usize> =
        std::collections::HashMap::new();
    for f in fast {
        if let FastAgg::Fold { vals, .. } = f {
            *uses.entry(Arc::as_ptr(vals)).or_default() += 1;
        }
    }
    if !uses.values().any(|&c| c >= 2) {
        return Ok(None);
    }
    let n = sel.len();
    let charge = memory::charge(
        &ctx.memory,
        "aggregate fold compaction",
        (n * 4 * uses.len().max(1)) as u64,
    )?;
    let mut cache: std::collections::HashMap<*const F32Tensor, Arc<F32Tensor>> =
        std::collections::HashMap::new();
    let out = fast
        .iter()
        .map(|f| match f {
            FastAgg::CountStar => FastAgg::CountStar,
            FastAgg::CountMask(arg) => FastAgg::CountMask(
                arg.iter()
                    .zip(mask)
                    .filter_map(|(&a, &keep)| keep.then_some(a))
                    .collect(),
            ),
            FastAgg::Fold { func, vals } => FastAgg::Fold {
                func: *func,
                vals: cache
                    .entry(Arc::as_ptr(vals))
                    .or_insert_with(|| {
                        let d = vals.data();
                        let mut c = Vec::with_capacity(n);
                        for (r, &keep) in mask.iter().enumerate() {
                            if keep {
                                c.push(d[r]);
                            }
                        }
                        Arc::new(Tensor::from_vec(c, &[n]))
                    })
                    .clone(),
            },
        })
        .collect();
    Ok(Some((out, charge)))
}

/// The masked/indexed fast path: one ungrouped partial per input
/// morsel, accumulated straight off the selection — no gather, no
/// evaluation context, plain worker threads. A dense selection whose
/// columns are folded more than once compacts them first via
/// [`compact_fast`]: re-walking full morsel width per aggregate costs
/// more than one shared compaction pass. Survivor values, visit order
/// and accumulation ops are identical in all three views, so partials
/// stay byte-identical to the gathered loop's.
fn masked_partials(
    fast: &[FastAgg],
    sel: &kernel::SelVec,
    offs: &[usize],
    rows: usize,
    morsel_rows: usize,
    ctx: &ExecContext,
) -> Result<Vec<PartialAgg>, ExecError> {
    let compacted = compact_fast(fast, sel, ctx)?;
    let fast = compacted.as_ref().map_or(fast, |(f, _)| f.as_slice());
    let morsels = offs.len() - 1;
    Ok(
        claim_indexed(morsels, ctx.threads.min(morsels).max(1), |i| {
            if offs[i + 1] == offs[i] {
                return None; // empty morsel after filtering: no partial
            }
            let start = i * morsel_rows;
            let end = (start + morsel_rows).min(rows);
            let view = if compacted.is_some() {
                SurvView::Compact {
                    start: offs[i],
                    end: offs[i + 1],
                }
            } else {
                match sel {
                    kernel::SelVec::Mask(m, _) => SurvView::Dense {
                        mask: m,
                        start,
                        end,
                    },
                    kernel::SelVec::Idx(s) => SurvView::Sparse(&s[offs[i]..offs[i + 1]]),
                }
            };
            let count = view.count_f32() as i64;
            let accs = fast
                .iter()
                .map(|f| match f {
                    FastAgg::CountStar => AccColumn::Count(vec![count]),
                    FastAgg::CountMask(arg) => AccColumn::Count(vec![view.count_trues(arg) as i64]),
                    FastAgg::Fold { func, vals } => {
                        let vals = vals.data();
                        match func {
                            AggFunc::Sum => AccColumn::Sum(vec![view.sum_f32(vals)]),
                            AggFunc::Avg => AccColumn::Avg(vec![view.sum_f32(vals)]),
                            AggFunc::Min => AccColumn::Min(vec![view.min_max(vals, true)]),
                            AggFunc::Max => AccColumn::Max(vec![view.min_max(vals, false)]),
                            AggFunc::Variance | AggFunc::Stddev => {
                                let (sum, sumsq) = view.moments(vals);
                                AccColumn::Moments {
                                    sum: vec![sum],
                                    sumsq: vec![sumsq],
                                }
                            }
                            _ => unreachable!("fast_aggs admits folds only"),
                        }
                    }
                })
                .collect();
            Some(PartialAgg {
                key_reps: Vec::new(),
                merge_keys: Vec::new(),
                counts: vec![count],
                accs,
                groups: 1,
            })
        })
        .into_iter()
        .flatten()
        .collect(),
    )
}

/// The grouped/computed path: gather the referenced columns once
/// (survivor width), then feed each morsel's survivor slice — padded
/// with zero-width placeholders at unreferenced slots so slot indexing
/// is undisturbed — through the ordinary [`partial_aggregate`].
/// `Ok(None)` = an expression references a column this batch cannot
/// resolve; the gathered loop reproduces the identical error.
#[allow(clippy::too_many_arguments)]
fn minibatch_partials(
    cols: &MorselCols,
    sel: &kernel::SelVec,
    offs: &[usize],
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    rows: usize,
    ctx: &ExecContext,
) -> Result<Option<Vec<PartialAgg>>, ExecError> {
    let Some(used) = referenced_cols(keys, aggregates, cols) else {
        return Ok(None);
    };
    let n = sel.len();
    let mask = sel.gather_mask(rows);
    let gathered: Vec<Option<EncodedTensor>> = cols
        .iter()
        .zip(&used)
        .map(|((_, c), &u)| u.then(|| c.filter_rows(&mask)))
        .collect();
    let refs = used.iter().filter(|&&u| u).count().max(1);
    let _charge = memory::charge(&ctx.memory, "aggregate gather", (n * 8 * refs) as u64)?;

    let morsels = offs.len() - 1;
    type PartialSlot = Option<Result<Option<PartialAgg>, ExecError>>;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<PartialSlot>> = Mutex::new((0..morsels).map(|_| None).collect());
    let work = |wctx: &ExecContext| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= morsels {
            break;
        }
        let (a, b) = (offs[i], offs[i + 1]);
        let mut mini = Batch::new();
        for ((name, _), g) in cols.iter().zip(&gathered) {
            let col = match g {
                Some(g) => g.slice_rows(a, b),
                // Placeholder: keeps slot positions and arity, never read.
                None => EncodedTensor::F32(Tensor::from_vec(vec![0.0; b - a], &[b - a])),
            };
            mini.push(name.clone(), ColumnData::Exact(col));
        }
        let out = partial_aggregate(&mini, keys, aggregates, wctx);
        slots.lock().expect("agg state poisoned")[i] = Some(out);
    };
    let workers = ctx.threads.min(morsels).max(1);
    run_workers(workers, &WorkerCfg::of(ctx), &work);

    let mut partials = Vec::with_capacity(morsels);
    for slot in slots.into_inner().expect("agg state poisoned") {
        match slot.expect("aggregate morsels are never skipped") {
            // First error in morsel order wins — deterministic reporting.
            Err(e) => return Err(e),
            Ok(Some(p)) => partials.push(p),
            Ok(None) => {}
        }
    }
    Ok(Some(partials))
}

/// Which column slots the key and aggregate expressions touch. `None`
/// when any reference fails to resolve (or a scalar subquery slips
/// through) — the mini-batch would silently feed it placeholder zeros.
fn referenced_cols(
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    cols: &[(String, EncodedTensor)],
) -> Option<Vec<bool>> {
    let mut used = vec![false; cols.len()];
    for k in keys {
        mark_refs(&k.expr, cols, &mut used)?;
    }
    for a in aggregates {
        if let Some(e) = &a.arg {
            mark_refs(e, cols, &mut used)?;
        }
    }
    Some(used)
}

fn mark_refs(e: &CompiledExpr, cols: &[(String, EncodedTensor)], used: &mut [bool]) -> Option<()> {
    match e {
        CompiledExpr::Column(r) => {
            used[resolve_idx(cols, r)?] = true;
            Some(())
        }
        CompiledExpr::Num(_)
        | CompiledExpr::Str(_)
        | CompiledExpr::Bool(_)
        | CompiledExpr::Param { .. } => Some(()),
        CompiledExpr::Binary { left, right, .. } => {
            mark_refs(left, cols, used)?;
            mark_refs(right, cols, used)
        }
        CompiledExpr::Unary { expr, .. } => mark_refs(expr, cols, used),
        CompiledExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand.as_deref() {
                mark_refs(o, cols, used)?;
            }
            for (w, t) in branches {
                mark_refs(w, cols, used)?;
                mark_refs(t, cols, used)?;
            }
            if let Some(e) = else_expr.as_deref() {
                mark_refs(e, cols, used)?;
            }
            Some(())
        }
        CompiledExpr::InList { expr, list, .. } => {
            mark_refs(expr, cols, used)?;
            for i in list {
                mark_refs(i, cols, used)?;
            }
            Some(())
        }
        CompiledExpr::Like { expr, .. } => mark_refs(expr, cols, used),
        CompiledExpr::Udf { args, .. } | CompiledExpr::Builtin { args, .. } => {
            for a in args {
                mark_refs(a, cols, used)?;
            }
            Some(())
        }
        // Conservative: nested plans see their own batches, but the
        // parallel-safety analysis already pins these to the session
        // thread, so the fast paths never meet one.
        CompiledExpr::ScalarSubquery(_) => None,
    }
}

/// Merged accumulator of one output group.
struct MergedGroup {
    /// `(partial index, group index)` of the first-seen representative.
    rep: (usize, usize),
    count: i64,
    accs: Vec<AccVal>,
}

#[derive(Clone, Copy)]
enum AccVal {
    Count(i64),
    Sum(f32),
    Avg(f32),
    Min(f32),
    Max(f32),
    Moments { sum: f64, sumsq: f64 },
}

/// Combine morsel partials into the final grouped batch. Walks partials
/// in morsel order (first occurrence picks the representative key rows,
/// matching the sequential kernel's first-occurrence rule) and emits
/// groups in merge-key order, which equals the sequential kernel's
/// code-sorted group order.
fn merge_partials(
    partials: Vec<PartialAgg>,
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    input: &Batch,
    ops: &[MorselOp<'_>],
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    if partials.is_empty() {
        // Every morsel filtered to nothing: the sequential kernel's
        // zero-row behaviour (e.g. a global COUNT of 0) is authoritative.
        let empty = apply_ops(input.slice_rows(0, 0), ops, ctx)?;
        return exact::aggregate_batch(&empty, keys, aggregates, ctx);
    }

    let mut merged: BTreeMap<Vec<MergeKey>, MergedGroup> = BTreeMap::new();
    for (pi, p) in partials.iter().enumerate() {
        for g in 0..p.groups {
            let key: Vec<MergeKey> = p.merge_keys.iter().map(|col| col[g].clone()).collect();
            let entry = merged.entry(key).or_insert_with(|| MergedGroup {
                rep: (pi, g),
                count: 0,
                accs: p
                    .accs
                    .iter()
                    .map(|a| match a {
                        AccColumn::Count(_) => AccVal::Count(0),
                        AccColumn::Sum(_) => AccVal::Sum(0.0),
                        AccColumn::Avg(_) => AccVal::Avg(0.0),
                        AccColumn::Min(_) => AccVal::Min(f32::INFINITY),
                        AccColumn::Max(_) => AccVal::Max(f32::NEG_INFINITY),
                        AccColumn::Moments { .. } => AccVal::Moments {
                            sum: 0.0,
                            sumsq: 0.0,
                        },
                    })
                    .collect(),
            });
            entry.count += p.counts[g];
            for (acc, col) in entry.accs.iter_mut().zip(&p.accs) {
                match (acc, col) {
                    (AccVal::Count(t), AccColumn::Count(v)) => *t += v[g],
                    (AccVal::Sum(t), AccColumn::Sum(v)) => *t += v[g],
                    (AccVal::Avg(t), AccColumn::Avg(v)) => *t += v[g],
                    (AccVal::Min(t), AccColumn::Min(v)) => *t = t.min(v[g]),
                    (AccVal::Max(t), AccColumn::Max(v)) => *t = t.max(v[g]),
                    (AccVal::Moments { sum, sumsq }, AccColumn::Moments { sum: s, sumsq: q }) => {
                        *sum += s[g];
                        *sumsq += q[g];
                    }
                    _ => unreachable!("partial accumulator kinds are per-aggregate"),
                }
            }
        }
    }

    let groups: Vec<(&Vec<MergeKey>, &MergedGroup)> = merged.iter().collect();
    let num_groups = groups.len();

    let mut out = Batch::new();
    // Key columns: gather first-seen representatives out of the
    // concatenated per-morsel representative columns (encoding-preserving
    // concat + one gather per key).
    let mut offsets = Vec::with_capacity(partials.len());
    let mut total = 0usize;
    for p in &partials {
        offsets.push(total);
        total += p.groups;
    }
    for (ki, key) in keys.iter().enumerate() {
        let parts: Vec<&EncodedTensor> = partials.iter().map(|p| &p.key_reps[ki]).collect();
        let combined = EncodedTensor::concat(&parts);
        let idx: Vec<i64> = groups
            .iter()
            .map(|(_, m)| (offsets[m.rep.0] + m.rep.1) as i64)
            .collect();
        out.push(
            key.name.clone(),
            ColumnData::Exact(combined.select_rows(&Tensor::from_vec(idx, &[num_groups]))),
        );
    }

    for (ai, agg) in aggregates.iter().enumerate() {
        let col = match agg.func {
            AggFunc::Count => EncodedTensor::I64(Tensor::from_vec(
                groups
                    .iter()
                    .map(|(_, m)| match m.accs[ai] {
                        AccVal::Count(v) => v,
                        _ => unreachable!(),
                    })
                    .collect(),
                &[num_groups],
            )),
            AggFunc::Sum => f32_out(&groups, |m| match m.accs[ai] {
                AccVal::Sum(v) => v,
                _ => unreachable!(),
            }),
            AggFunc::Avg => f32_out(&groups, |m| match m.accs[ai] {
                AccVal::Avg(v) => v / m.count as f32,
                _ => unreachable!(),
            }),
            AggFunc::Min => f32_out(&groups, |m| match m.accs[ai] {
                AccVal::Min(v) => v,
                _ => unreachable!(),
            }),
            AggFunc::Max => f32_out(&groups, |m| match m.accs[ai] {
                AccVal::Max(v) => v,
                _ => unreachable!(),
            }),
            AggFunc::Variance | AggFunc::Stddev => {
                let is_stddev = agg.func == AggFunc::Stddev;
                f32_out(&groups, |m| match m.accs[ai] {
                    AccVal::Moments { sum, sumsq } => {
                        let c = m.count as f64;
                        if c <= 1.0 {
                            return 0.0;
                        }
                        let var = ((sumsq - sum * sum / c) / (c - 1.0)).max(0.0);
                        if is_stddev {
                            var.sqrt() as f32
                        } else {
                            var as f32
                        }
                    }
                    _ => unreachable!(),
                })
            }
            AggFunc::CountDistinct => unreachable!("filtered by aggregate_fallback"),
        };
        out.push(agg.output.clone(), ColumnData::Exact(col));
    }
    Ok(out)
}

fn f32_out(
    groups: &[(&Vec<MergeKey>, &MergedGroup)],
    f: impl Fn(&MergedGroup) -> f32,
) -> EncodedTensor {
    EncodedTensor::F32(Tensor::from_vec(
        groups.iter().map(|(_, m)| f(m)).collect(),
        &[groups.len()],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::lower;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::TableBuilder;

    fn setup(n: usize) -> Catalog {
        let catalog = Catalog::new();
        let tags: Vec<String> = (0..n).map(|i| format!("t{}", i % 7)).collect();
        catalog.register(
            TableBuilder::new()
                .col_f32("v", (0..n).map(|i| (i as f32 * 0.37).sin()).collect())
                .col_i64("k", (0..n).map(|i| (i % 13) as i64).collect())
                .col_str("tag", &tags)
                .build("t"),
        );
        catalog
    }

    fn run_with(catalog: &Catalog, sql: &str, threads: usize, morsel_rows: usize) -> Batch {
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(catalog, &udfs).with_scheduler(threads, morsel_rows);
        let plan = optimizer::optimize(
            build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
        );
        let phys = lower(&plan, catalog, &udfs).unwrap();
        crate::pipeline::execute(&phys, &ctx).unwrap()
    }

    fn assert_batches_equal(a: &Batch, b: &Batch, sql: &str) {
        assert_eq!(a.rows(), b.rows(), "{sql}");
        assert_eq!(a.names(), b.names(), "{sql}");
        for (name, col) in a.columns() {
            assert_eq!(
                col.to_exact().decode_strings(),
                b.column(name).unwrap().to_exact().decode_strings(),
                "{sql} / {name}"
            );
        }
    }

    #[test]
    fn morselized_chains_match_whole_batch_execution() {
        let c = setup(500);
        for sql in [
            "SELECT v FROM t WHERE v > 0.0",
            "SELECT v * 2 AS d, k FROM t WHERE k < 9",
            "SELECT tag, v FROM t WHERE tag = 't3'",
            "SELECT v FROM t WHERE v > 0.2 LIMIT 37",
            "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY k",
            "SELECT tag, AVG(v), VARIANCE(v) FROM t WHERE v > -0.5 GROUP BY tag",
            "SELECT COUNT(*), SUM(v) FROM t WHERE v > 0.1",
        ] {
            let whole = run_with(&c, sql, 1, usize::MAX >> 1);
            for (threads, morsel) in [(1, 64), (3, 64), (2, 7), (5, 499)] {
                let m = run_with(&c, sql, threads, morsel);
                // Aggregated floats may differ in the last bit between the
                // whole-batch and morselized paths, but across thread
                // counts with a fixed morsel size they must be identical;
                // compare against the single-thread morselized run.
                let base = run_with(&c, sql, 1, morsel);
                assert_batches_equal(&m, &base, sql);
                // Row-wise pipelines are exactly equal to the whole batch.
                if !sql.contains("SUM") && !sql.contains("AVG") && !sql.contains("VARIANCE") {
                    assert_batches_equal(&m, &whole, sql);
                }
            }
        }
    }

    #[test]
    fn grouped_aggregates_match_sequential_values() {
        // Integer-exact aggregates are identical under any morselization.
        let c = setup(1000);
        let whole = run_with(
            &c,
            "SELECT k, COUNT(*) FROM t GROUP BY k",
            1,
            usize::MAX >> 1,
        );
        let m = run_with(&c, "SELECT k, COUNT(*) FROM t GROUP BY k", 4, 33);
        assert_batches_equal(&whole, &m, "count");
        // Float sums agree to tolerance.
        let ws = run_with(&c, "SELECT SUM(v) FROM t", 1, usize::MAX >> 1);
        let ms = run_with(&c, "SELECT SUM(v) FROM t", 4, 100);
        let a = ws.column("SUM(v)").unwrap().to_exact().decode_f32().at(0);
        let b = ms.column("SUM(v)").unwrap().to_exact().decode_f32().at(0);
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn limit_early_exit_is_a_clean_prefix() {
        let c = setup(200);
        for limit in [0, 1, 6, 7, 8, 63, 64, 65, 199, 200, 500] {
            let sql = format!("SELECT k FROM t LIMIT {limit}");
            let out = run_with(&c, &sql, 3, 8);
            let expect: Vec<i64> = (0..200i64.min(limit)).map(|i| i % 13).collect();
            assert_eq!(
                out.column("k").unwrap().to_exact().decode_i64().to_vec(),
                expect,
                "{sql}"
            );
        }
    }

    #[test]
    fn unsafe_chains_fall_back_to_sequential() {
        use crate::udf::{ArgValue, ScalarUdf};
        use std::sync::Arc;
        struct PlusOne;
        impl ScalarUdf for PlusOne {
            fn name(&self) -> &str {
                "plus_one"
            }
            fn invoke(
                &self,
                args: &[ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, ExecError> {
                Ok(EncodedTensor::F32(
                    args[0].as_column()?.decode_f32().add_scalar(1.0),
                ))
            }
        }
        let c = setup(100);
        let mut udfs = UdfRegistry::new();
        udfs.register_scalar(Arc::new(PlusOne));
        let ctx = ExecContext::new(&c, &udfs).with_scheduler(4, 10);
        let plan = optimizer::optimize(
            build_plan(
                &parse("SELECT plus_one(v) AS w FROM t WHERE plus_one(v) > 1.0").unwrap(),
                &PlannerContext::default(),
            )
            .unwrap(),
        );
        let phys = lower(&plan, &c, &udfs).unwrap();
        let out = crate::pipeline::execute(&phys, &ctx).unwrap();
        assert!(out.rows() > 0);
        assert!(out
            .column("w")
            .unwrap()
            .to_exact()
            .decode_f32()
            .to_vec()
            .iter()
            .all(|&w| w > 1.0));
    }
}
