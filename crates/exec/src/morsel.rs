//! The morsel scheduler: partitions a batch into fixed-size row ranges
//! and runs operator stages over them across a worker pool.
//!
//! Execution is **staged**: barrier-free chains stream per morsel with
//! an order-preserving concat sink; grouped aggregation folds each
//! morsel into partial states — group ids resolved in one O(n) pass, every
//! accumulator advanced in one row-order sweep — merged in morsel
//! order; and the barrier
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
//! | aggregate          | folds survivors straight into partial states, one per input morsel: ungrouped plain-column aggregates use branchless masked accumulation (dense) or survivor iteration (sparse); GROUP BY / computed arguments run the fused per-morsel fold over the *referenced* columns — the morsel's row range under its mask slice (dense) or its survivors read by index (sparse) — so nothing is gathered at table width |
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

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tdp_encoding::EncodedTensor;
use tdp_sql::ast::{AggFunc, JoinKind};
use tdp_storage::Catalog;
use tdp_tensor::sort::{group_rows, Groups};
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
// Grouped aggregation: one compiled program, one fold per morsel
// ----------------------------------------------------------------------

/// Cross-morsel group identity for one key column. Dictionary columns
/// merge on decoded strings (the order-preserving dictionary makes
/// string order = code order, so the combine's sorted output matches the
/// single-batch group order); everything else merges on its grouping
/// code.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum MergeKey {
    Int(i64),
    Str(String),
}

/// How an accumulator consumes its argument column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AccKind {
    /// COUNT(expr): trues of a boolean column, the group size for
    /// anything else (a pragmatic choice in this NULL-free dialect).
    Count,
    /// COUNT(DISTINCT expr). Distinct counts do not add across morsels,
    /// so [`aggregate_fallback`] pins these queries to one whole-batch
    /// partial.
    CountDistinct,
    /// f32 running sum in row order from `0.0` — SUM, and AVG's
    /// numerator (the divisor is the merged group size).
    Sum,
    Min,
    Max,
    /// f64 power sums, finalised as VARIANCE or STDDEV.
    Moments,
}

#[derive(Clone, Copy, Debug)]
struct AccSpec {
    kind: AccKind,
    /// Index into [`AggProgram::args`].
    arg: usize,
}

/// The aggregate list of one query, compiled once — not per morsel.
/// Argument expressions are de-duplicated (`SUM(x)`, `AVG(x)` and
/// `VARIANCE(x)` evaluate `x` once per morsel) and so are accumulators
/// (`SUM(x)` and `AVG(x)` share one running sum, `VARIANCE(x)` and
/// `STDDEV(x)` one pair of power sums); COUNT(*) needs no accumulator at
/// all, it reads the group size.
pub(crate) struct AggProgram<'q> {
    keys: &'q [PhysKey],
    aggregates: &'q [PhysAggregate],
    /// `keys[i].expr`, or its re-addressed copy after [`Self::rebind`].
    key_exprs: Vec<Cow<'q, CompiledExpr>>,
    /// Distinct argument expressions in first-use order.
    args: Vec<Cow<'q, CompiledExpr>>,
    /// Distinct `(kind, argument)` accumulators.
    accs: Vec<AccSpec>,
    /// Per aggregate, the accumulator it finalises from; `None` is
    /// COUNT(*).
    outs: Vec<Option<usize>>,
}

impl<'q> AggProgram<'q> {
    pub(crate) fn compile(
        keys: &'q [PhysKey],
        aggregates: &'q [PhysAggregate],
    ) -> Result<AggProgram<'q>, ExecError> {
        let mut args: Vec<Cow<'q, CompiledExpr>> = Vec::new();
        let mut accs: Vec<AccSpec> = Vec::new();
        let mut outs = Vec::with_capacity(aggregates.len());
        for agg in aggregates {
            let Some(e) = &agg.arg else {
                if agg.func == AggFunc::Count {
                    outs.push(None);
                    continue;
                }
                return Err(ExecError::Unsupported(format!(
                    "{}(*) is not meaningful",
                    agg.func.name()
                )));
            };
            let kind = match agg.func {
                AggFunc::Count => AccKind::Count,
                AggFunc::CountDistinct => AccKind::CountDistinct,
                AggFunc::Sum | AggFunc::Avg => AccKind::Sum,
                AggFunc::Min => AccKind::Min,
                AggFunc::Max => AccKind::Max,
                AggFunc::Variance | AggFunc::Stddev => AccKind::Moments,
            };
            let arg = args
                .iter()
                .position(|a| a.as_ref() == e)
                .unwrap_or_else(|| {
                    args.push(Cow::Borrowed(e));
                    args.len() - 1
                });
            let acc = accs
                .iter()
                .position(|a| a.kind == kind && a.arg == arg)
                .unwrap_or_else(|| {
                    accs.push(AccSpec { kind, arg });
                    accs.len() - 1
                });
            outs.push(Some(acc));
        }
        Ok(AggProgram {
            keys,
            aggregates,
            key_exprs: keys.iter().map(|k| Cow::Borrowed(&k.expr)).collect(),
            args,
            accs,
            outs,
        })
    }

    /// The same program over a batch holding only the columns `refs`
    /// (ascending slots of `cols`), in that order: every column
    /// reference is re-addressed to its position in `refs`. Accumulator
    /// layout is untouched, so partials of the rebound program merge
    /// under the original.
    fn rebind(&self, cols: &[(String, EncodedTensor)], refs: &[usize]) -> AggProgram<'q> {
        let readdress = |e: &CompiledExpr| {
            let mut e = e.clone();
            e.for_each_mut(&mut |node| {
                if let CompiledExpr::Column(r) = node {
                    let slot = resolve_idx(cols, r).expect("referenced_cols resolved every ref");
                    *r = crate::physical::ColumnRef::Slot {
                        slot: refs.binary_search(&slot).expect("slot is referenced"),
                        name: r.name().to_owned(),
                    };
                }
            });
            Cow::Owned(e)
        };
        AggProgram {
            keys: self.keys,
            aggregates: self.aggregates,
            key_exprs: self.key_exprs.iter().map(|e| readdress(e)).collect(),
            args: self.args.iter().map(|e| readdress(e)).collect(),
            accs: self.accs.clone(),
            outs: self.outs.clone(),
        }
    }
}

/// Per-accumulator partial state over one morsel's groups.
enum AccColumn {
    Count(Vec<i64>),
    Sum(Vec<f32>),
    Min(Vec<f32>),
    Max(Vec<f32>),
    Moments { sum: Vec<f64>, sumsq: Vec<f64> },
}

/// Partial aggregation state of one morsel.
pub(crate) struct PartialAgg {
    /// Representative key rows (first in-morsel occurrence), encoding
    /// preserved; one `[groups]` column per GROUP BY key.
    key_reps: Vec<EncodedTensor>,
    /// Cross-morsel merge identity, `[num_keys][groups]`.
    merge_keys: Vec<Vec<MergeKey>>,
    /// Group sizes.
    counts: Vec<i64>,
    /// One column per [`AggProgram::accs`] entry.
    accs: Vec<AccColumn>,
    groups: usize,
    /// Whether the keys went through the hash arm of `group_rows`.
    hashed: bool,
}

impl PartialAgg {
    /// Ledger estimate of the state this partial keeps alive until the
    /// combine step.
    fn state_bytes(&self) -> u64 {
        let per_group: usize = 8
            + self
                .accs
                .iter()
                .map(|a| match a {
                    AccColumn::Count(_) => 8,
                    AccColumn::Sum(_) | AccColumn::Min(_) | AccColumn::Max(_) => 4,
                    AccColumn::Moments { .. } => 16,
                })
                .sum::<usize>()
            + 16 * self.merge_keys.len();
        let reps: usize = self.key_reps.iter().map(|c| c.memory_bytes()).sum();
        (self.groups * per_group + reps) as u64
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
/// count). A single-morsel input is the same thing with one partial.
pub(crate) fn run_aggregate(
    input: &Batch,
    ops: &[MorselOp<'_>],
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    skip: Option<&[bool]>,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let rows = input.rows();
    let (morsels, seq_reason) = planned_and_reason(input, ops, Some((keys, aggregates)), ctx);
    let kern = if seq_reason.is_none() {
        kernel::prepare(ops, ctx)
    } else {
        None
    };
    let prog = AggProgram::compile(keys, aggregates)?;
    // Accumulator state the selection-fed fold keeps alive until the
    // combine step below has consumed it.
    let state = memory::ScopedCharges::new(&ctx.memory);

    // `(how the input arrived, why a selection hand-off was declined)`.
    let (mut partials, path) = if morsels <= 1 {
        let whole = single_morsel_input(input, rows, skip, ctx);
        let inp = match kern.as_deref().and_then(|k| k.run(&whole)) {
            Some(b) => b,
            None => apply_ops(whole, ops, ctx)?,
        };
        let partial = partial_aggregate(&prog, &inp, None, ctx)?;
        (vec![partial], ("single-morsel", None))
    } else {
        // Selection exit: when the chain compiled and is
        // selection-capable, fold straight over its `SelVec` — nothing
        // is gathered at table width. Partials chunk by *input* morsel
        // boundaries, so they are byte-identical to the gathered loop's;
        // a decline (run-time bail, unresolvable shape) falls through to
        // that loop with nothing recorded.
        let selected = match kern.as_deref() {
            // No compiled chain: its own note already says why.
            None => Err(None),
            Some(k) => match k.selection_capable() {
                Ok(()) => {
                    aggregate_selection(input, k, &prog, skip, morsels, &state, ctx)?.map_err(Some)
                }
                Err(why) => Err(Some(why)),
            },
        };
        match selected {
            Ok(partials) => {
                ctx.access.note_barrier_selection_fed();
                (partials, ("selection-fed", None))
            }
            Err(why) => {
                if kern.is_some() {
                    ctx.access.note_barrier_gathered();
                }
                let partials =
                    gathered_partials(input, ops, &prog, skip, morsels, kern.as_deref(), ctx)?;
                (partials, ("gathered", why))
            }
        }
    };
    if partials.is_empty() {
        // Every morsel filtered to nothing: fold the chain's zero-row
        // output, so schema, encodings and the zero-row aggregate values
        // (a global COUNT of 0) match the single-morsel run.
        let empty = apply_ops(input.slice_rows(0, 0), ops, ctx)?;
        partials.push(partial_aggregate(&prog, &empty, None, ctx)?);
    }
    let hashed = partials.iter().any(|p| p.hashed);
    let out = merge_partials(&prog, partials);
    if let Some(r) = rec {
        r.note_aggregate(aggregate_note(&prog, out.rows(), hashed, path));
    }
    Ok(out)
}

/// The aggregate stage's profile note: what the fold consisted of and
/// how its input arrived. Out of line — only profiled runs format it.
#[inline(never)]
fn aggregate_note(
    prog: &AggProgram<'_>,
    groups: usize,
    hashed: bool,
    (mode, why): (&str, Option<&str>),
) -> String {
    let keys = match (prog.keys.is_empty(), hashed) {
        (true, _) => "none",
        (false, false) => "direct",
        (false, true) => "hash",
    };
    let why = why.map(|w| format!(": {w}")).unwrap_or_default();
    format!(
        "aggregate: fused {} acc / {} args, {groups} groups, keys: {keys}, {mode}{why}",
        prog.accs.len(),
        prog.args.len(),
    )
}

/// Claim morsels `0..morsels` across the worker pool. `fold(i, wctx)`
/// yields morsel `i`'s partial, or `None` when no row of it survived
/// (it contributes no groups). Partials come back in morsel order; the
/// first error in morsel order wins — deterministic reporting.
fn claim_partials(
    morsels: usize,
    ctx: &ExecContext,
    fold: impl Fn(usize, &ExecContext) -> Result<Option<PartialAgg>, ExecError> + Sync,
) -> Result<Vec<PartialAgg>, ExecError> {
    let slots = ClaimSlots::new(morsels);
    let workers = ctx.threads.min(morsels).max(1);
    run_workers(workers, &WorkerCfg::of(ctx), &|wctx| {
        slots.drain(|i| fold(i, wctx))
    });
    let mut partials = Vec::with_capacity(morsels);
    for out in slots.take() {
        partials.extend(out?);
    }
    Ok(partials)
}

/// The gathered loop: every morsel runs the chain to a dense batch and
/// folds it. Taken when no compiled chain can hand over a selection.
fn gathered_partials(
    input: &Batch,
    ops: &[MorselOp<'_>],
    prog: &AggProgram<'_>,
    skip: Option<&[bool]>,
    morsels: usize,
    kern: Option<&kernel::ChainInstance>,
    ctx: &ExecContext,
) -> Result<Vec<PartialAgg>, ExecError> {
    let rows = input.rows();
    let cols = to_partition_cols(input);
    // Partial states are per-group (small); the decoded input columns
    // dominate, charged until the partials are built.
    let _charge = memory::charge(
        &ctx.memory,
        "aggregate materialization",
        memory::cols_bytes(&cols),
    )?;
    let morsel_rows = ctx.morsel_rows;
    let skip = skip.filter(|s| s.len() == morsels);
    let pruned = AtomicUsize::new(0);
    let partials = claim_partials(morsels, ctx, |i, wctx| {
        let start = i * morsel_rows;
        // A pruned morsel still runs the chain, over an empty slice, so
        // chain errors surface exactly as in the unpruned run.
        let end = if skip.is_some_and(|s| s[i]) {
            pruned.fetch_add(1, Ordering::Relaxed);
            start
        } else {
            (start + morsel_rows).min(rows)
        };
        let batch = apply_ops_k(slice_cols(&cols, start, end), ops, kern, wctx)?;
        if batch.rows() == 0 {
            return Ok(None);
        }
        partial_aggregate(prog, &batch, None, wctx).map(Some)
    })?;
    if skip.is_some() {
        let pruned = pruned.load(Ordering::Relaxed);
        ctx.access
            .note_morsels(pruned as u64, (morsels - pruned) as u64);
    }
    Ok(partials)
}

/// One fold's accumulators, viewed by kind over the partial's own
/// columns (one slot per group plus the spare). SUM state is the
/// exception: it is interleaved per group (`sums[g * w + j]`) while
/// folding, so a row touches one cache line of it however many sums the
/// query carries.
struct Fold<'a> {
    counts: &'a mut [i64],
    sum_args: Vec<&'a [f32]>,
    sums: Vec<f32>,
    trues: Vec<(&'a [bool], &'a mut [i64])>,
    mins: Vec<(&'a [f32], &'a mut [f32])>,
    maxs: Vec<(&'a [f32], &'a mut [f32])>,
    moments: Vec<(&'a [f32], &'a mut [f64], &'a mut [f64])>,
}

impl<'a> Fold<'a> {
    fn over(counts: &'a mut [i64]) -> Fold<'a> {
        Fold {
            counts,
            sum_args: Vec::new(),
            sums: Vec::new(),
            trues: Vec::new(),
            mins: Vec::new(),
            maxs: Vec::new(),
            moments: Vec::new(),
        }
    }

    /// Fold every position once, in row order: position `p` goes to slot
    /// `ids[p]`. Each f32 sum therefore adds its group's values in row
    /// order starting from `0.0` — the arithmetic of a per-aggregate
    /// scatter-add, with all accumulators advancing in one sweep. Counts
    /// are integers end to end (an f32 counter sticks at 2²⁴).
    fn run(&mut self, ids: &[u32]) {
        let w = self.sum_args.len();
        self.sums.resize(self.counts.len() * w, 0.0);
        for (p, &g) in ids.iter().enumerate() {
            let g = g as usize;
            self.counts[g] += 1;
            for (acc, vals) in self.sums[g * w..][..w].iter_mut().zip(&self.sum_args) {
                *acc += vals[p];
            }
            for (arg, acc) in &mut self.trues {
                acc[g] += arg[p] as i64;
            }
            // MIN/MAX keep the strict comparison against the running
            // slot: NaN never wins, and an all-NaN group stays ±inf.
            for (vals, acc) in &mut self.mins {
                if vals[p] < acc[g] {
                    acc[g] = vals[p];
                }
            }
            for (vals, acc) in &mut self.maxs {
                if vals[p] > acc[g] {
                    acc[g] = vals[p];
                }
            }
            for (vals, sum, sumsq) in &mut self.moments {
                let v = vals[p] as f64;
                sum[g] += v;
                sumsq[g] += v * v;
            }
        }
    }
}

/// Fold one batch into per-group partial states: resolve group ids
/// once, evaluate each distinct argument once, then advance every
/// accumulator in a single row-order sweep ([`Fold::run`]).
///
/// `mask` marks the rows of `batch` that count (a dense selection's
/// slice): deselected rows get no group and fold into a spare slot that
/// is dropped, so the sweep stays branchless and every real group sees
/// exactly its surviving rows, in row order. Arguments are evaluated at
/// batch width either way — expressions are row-local, so a survivor's
/// value does not depend on its neighbours.
pub(crate) fn partial_aggregate(
    prog: &AggProgram<'_>,
    batch: &Batch,
    mask: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<PartialAgg, ExecError> {
    let n = batch.rows();

    let mut key_cols: Vec<EncodedTensor> = Vec::with_capacity(prog.key_exprs.len());
    for k in &prog.key_exprs {
        match eval_expr(k, batch, ctx)? {
            Value::Column(c) => key_cols.push(c),
            other => {
                return Err(ExecError::TypeMismatch(format!(
                    "GROUP BY expression must be a column, got {other:?}"
                )))
            }
        }
    }
    let key_codes: Vec<I64Tensor> = key_cols
        .iter()
        .map(exact::key_codes)
        .collect::<Result<_, _>>()?;
    let Groups {
        ids,
        groups,
        hashed,
        ..
    } = if key_cols.is_empty() {
        // Global aggregate: one group holding every surviving row.
        Groups {
            ids: match mask {
                None => vec![0; n],
                Some(m) => m.iter().map(|&keep| !keep as u32).collect(),
            },
            distinct: Vec::new(),
            groups: 1,
            hashed: false,
        }
    } else {
        let slices: Vec<&[i64]> = key_codes.iter().map(|c| c.data()).collect();
        group_rows(&slices, mask)
    };

    // First-occurrence representative row per group: key output keeps
    // the original encoding, and dictionary keys merge on its string.
    let rep: Vec<i64> = if key_cols.is_empty() {
        Vec::new()
    } else {
        let mut rep = vec![-1i64; groups + 1];
        for (row, &g) in ids.iter().enumerate() {
            if rep[g as usize] < 0 {
                rep[g as usize] = row as i64;
            }
        }
        rep.truncate(groups);
        rep
    };
    let rep_rows = {
        let len = rep.len();
        Tensor::from_vec(rep, &[len])
    };
    let key_reps: Vec<EncodedTensor> = key_cols.iter().map(|c| c.select_rows(&rep_rows)).collect();
    let merge_keys: Vec<Vec<MergeKey>> = key_cols
        .iter()
        .zip(&key_codes)
        .map(|(col, int_codes)| {
            let reps = rep_rows.data().iter().map(|&r| r as usize);
            match col {
                EncodedTensor::Dict { codes, dict } => reps
                    .map(|r| MergeKey::Str(dict.decode_one(codes.at(r)).to_owned()))
                    .collect(),
                _ => reps.map(|r| MergeKey::Int(int_codes.at(r))).collect(),
            }
        })
        .collect();

    // Each distinct argument once, in the forms its accumulators read:
    // f32 values, a boolean column's flags, the raw column for DISTINCT.
    let mut f32s: Vec<Option<F32Tensor>> = Vec::with_capacity(prog.args.len());
    let mut flags: Vec<Option<tdp_tensor::BoolTensor>> = Vec::with_capacity(prog.args.len());
    let mut raws: Vec<Option<EncodedTensor>> = Vec::with_capacity(prog.args.len());
    for (ai, e) in prog.args.iter().enumerate() {
        let kinds: Vec<AccKind> = prog
            .accs
            .iter()
            .filter_map(|a| (a.arg == ai).then_some(a.kind))
            .collect();
        let v = eval_expr(e, batch, ctx)?;
        flags.push(match &v {
            Value::Column(EncodedTensor::Bool(m)) if kinds.contains(&AccKind::Count) => {
                Some(m.clone())
            }
            _ => None,
        });
        raws.push(match &v {
            _ if !kinds.contains(&AccKind::CountDistinct) => None,
            Value::Column(c) => Some(c.clone()),
            other => {
                return Err(ExecError::TypeMismatch(format!(
                    "COUNT(DISTINCT …) needs a column, got {other:?}"
                )))
            }
        });
        f32s.push(
            if kinds
                .iter()
                .any(|k| !matches!(k, AccKind::Count | AccKind::CountDistinct))
            {
                let vals = v.into_f32_column(n)?;
                if vals.ndim() != 1 {
                    return Err(ExecError::TypeMismatch(format!(
                        "cannot aggregate a multi-dimensional payload column (shape {:?})",
                        vals.shape()
                    )));
                }
                Some(vals)
            } else {
                None
            },
        );
    }

    // One sweep over (group id, args…). The slot past the last group
    // absorbs the rows the mask deselected.
    let slots = groups + 1;
    let mut counts = vec![0i64; slots];
    let mut accs: Vec<AccColumn> = prog
        .accs
        .iter()
        .map(|acc| match acc.kind {
            AccKind::Count | AccKind::CountDistinct => AccColumn::Count(vec![0; slots]),
            AccKind::Sum => AccColumn::Sum(Vec::new()), // filled from the interleaved state
            AccKind::Min => AccColumn::Min(vec![f32::INFINITY; slots]),
            AccKind::Max => AccColumn::Max(vec![f32::NEG_INFINITY; slots]),
            AccKind::Moments => AccColumn::Moments {
                sum: vec![0.0; slots],
                sumsq: vec![0.0; slots],
            },
        })
        .collect();
    let mut fold = Fold::over(&mut counts);
    for (acc, col) in prog.accs.iter().zip(&mut accs) {
        let vals = || f32s[acc.arg].as_ref().expect("evaluated above").data();
        match col {
            AccColumn::Sum(_) => fold.sum_args.push(vals()),
            AccColumn::Min(m) => fold.mins.push((vals(), m)),
            AccColumn::Max(m) => fold.maxs.push((vals(), m)),
            AccColumn::Moments { sum, sumsq } => fold.moments.push((vals(), sum, sumsq)),
            AccColumn::Count(t) => {
                if let Some(m) = &flags[acc.arg] {
                    fold.trues.push((m.data(), t));
                }
            }
        }
    }
    fold.run(&ids);
    let (sums, w) = (fold.sums, fold.sum_args.len());

    counts.truncate(groups);
    let mut sum_slot = 0..w;
    for (acc, col) in prog.accs.iter().zip(&mut accs) {
        match col {
            AccColumn::Sum(v) => {
                let j = sum_slot.next().expect("one interleaved slot per sum");
                v.extend((0..groups).map(|g| sums[g * w + j]));
            }
            AccColumn::Count(t) if acc.kind == AccKind::CountDistinct => {
                // Distinct (group, value-code) pairs, counted per group.
                let col = raws[acc.arg].as_ref().expect("evaluated above");
                let codes = exact::key_codes(col)?;
                let gids: Vec<i64> = ids.iter().map(|&g| g as i64).collect();
                let pairs = group_rows(&[&gids, codes.data()], mask);
                t.truncate(groups);
                for pair in pairs.distinct.chunks_exact(2) {
                    t[pair[0] as usize] += 1;
                }
            }
            // COUNT of a non-boolean argument is the group size.
            AccColumn::Count(t) if flags[acc.arg].is_none() => t.clone_from(&counts),
            AccColumn::Count(t) => t.truncate(groups),
            AccColumn::Min(v) | AccColumn::Max(v) => v.truncate(groups),
            AccColumn::Moments { sum, sumsq } => {
                sum.truncate(groups);
                sumsq.truncate(groups);
            }
        }
    }

    Ok(PartialAgg {
        key_reps,
        merge_keys,
        counts,
        accs,
        groups,
        hashed,
    })
}

// ----------------------------------------------------------------------
// Selection-fed aggregation
// ----------------------------------------------------------------------

/// Fold the aggregation directly over a chain's selection exit, one
/// partial per *input* morsel, with nothing gathered at table width:
///
/// * ungrouped aggregates over plain numeric columns accumulate through
///   the mask (dense) or the survivor index list (sparse) with **zero**
///   copies ([`masked_partials`]);
/// * grouped or computed shapes run the ordinary [`partial_aggregate`]
///   per morsel over the columns the program references
///   ([`selected_partials`]): a dense selection folds the morsel's row
///   range under its mask slice, a sparse one reads just the survivors
///   by index.
///
/// Both chunk partials by input morsel boundaries and visit survivors
/// in row order, so every float partial is byte-identical to the
/// gathered loop's. `Err(reason)` = decline (run-time bail, or a shape
/// whose expressions must not see filtered-out rows): the caller's
/// gathered loop reproduces the identical result or error, and all
/// counter accounting is left to it.
fn aggregate_selection(
    input: &Batch,
    kern: &kernel::ChainInstance,
    prog: &AggProgram<'_>,
    skip: Option<&[bool]>,
    morsels: usize,
    state: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Result<Vec<PartialAgg>, &'static str>, ExecError> {
    let rows = input.rows();
    let morsel_rows = ctx.morsel_rows;
    let skip = skip.filter(|s| s.len() == morsels);
    let Some(mut out) = kern.run_selection(input, skip_init(skip, rows, morsel_rows)) else {
        return Ok(Err("kernel-bailout"));
    };
    // Selective chains demote the mask to a survivor index list once so
    // every fold below visits survivors instead of full morsel width.
    // Identical numerics either way (the dense arms are branchless but
    // bit-preserving), so this is purely a cost choice.
    if matches!(out.sel, kernel::SelVec::Mask(..)) && out.sel.len() * HANDOFF_IDX_DIVISOR <= rows {
        out.sel = kernel::SelVec::Idx(out.sel.into_idx());
    }
    let raw: MorselCols = out.cols;
    let refs = match referenced_cols(prog, &raw, ctx) {
        Ok(refs) => refs,
        Err(why) => return Ok(Err(why)),
    };
    // Decode integer-compressed layouts exactly as the gathered loop's
    // `to_partition_cols` does, so key encodings match its slices — but
    // only where a key or aggregate actually reads the column;
    // unreferenced columns are never touched by either path.
    let cols: MorselCols = raw
        .into_iter()
        .enumerate()
        .map(|(slot, (n, c))| {
            let c = match c {
                e @ (EncodedTensor::Rle(_)
                | EncodedTensor::BitPacked(_)
                | EncodedTensor::Delta(_))
                    if refs.binary_search(&slot).is_ok() =>
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

    let partials = if let Some(fast) = fast_aggs(prog, &cols) {
        masked_partials(&fast, &out.sel, &offs, rows, morsel_rows, ctx)?
    } else {
        selected_partials(prog, &cols, &refs, &out.sel, &offs, rows, state, ctx)?
    };
    if let Some(s) = skip {
        let pruned = s.iter().filter(|&&b| b).count();
        ctx.access
            .note_morsels(pruned as u64, (morsels - pruned) as u64);
    }
    Ok(Ok(partials))
}

/// Ascending column slots the program's key and argument expressions
/// read. `Err` names why the selection-fed fold must decline: a
/// reference this column list cannot resolve (the gathered loop raises
/// the proper error), a scalar subquery, or a session UDF — the dense
/// fold evaluates arguments over whole morsels, and only built-in
/// expressions are known to be indifferent to rows the filter removed.
fn referenced_cols(
    prog: &AggProgram<'_>,
    cols: &[(String, EncodedTensor)],
    ctx: &ExecContext,
) -> Result<Vec<usize>, &'static str> {
    let mut used = vec![false; cols.len()];
    let mut decline = None;
    for e in prog.key_exprs.iter().chain(&prog.args) {
        e.for_each(&mut |node| match node {
            CompiledExpr::Column(r) => match resolve_idx(cols, r) {
                Some(slot) => used[slot] = true,
                None => decline = Some("unresolved-column"),
            },
            CompiledExpr::ScalarSubquery(_) => decline = Some("scalar-subquery"),
            CompiledExpr::Udf { .. } => decline = Some("udf-argument"),
            CompiledExpr::Builtin { name, .. } if ctx.udfs.is_scalar(name) => {
                decline = Some("udf-argument")
            }
            _ => {}
        });
    }
    match decline {
        Some(why) => Err(why),
        None => Ok((0..cols.len()).filter(|&slot| used[slot]).collect()),
    }
}

/// The grouped/computed path: per input morsel, run the rebound program
/// over just the referenced columns — the morsel's row range under its
/// mask slice when the selection is dense, the survivors read by index
/// when it is sparse. Only per-morsel scratch and the partial states
/// are ever allocated, and that is what the ledger is charged.
#[allow(clippy::too_many_arguments)]
fn selected_partials(
    prog: &AggProgram<'_>,
    cols: &MorselCols,
    refs: &[usize],
    sel: &kernel::SelVec,
    offs: &[usize],
    rows: usize,
    state: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Vec<PartialAgg>, ExecError> {
    let bound = prog.rebind(cols, refs);
    let morsel_rows = ctx.morsel_rows;
    claim_partials(offs.len() - 1, ctx, |i, wctx| {
        let (a, b) = (offs[i], offs[i + 1]);
        if a == b {
            return Ok(None); // empty morsel after filtering: no partial
        }
        let start = i * morsel_rows;
        let end = (start + morsel_rows).min(rows);
        let (width, mask, survivors) = match sel {
            kernel::SelVec::Mask(m, _) => (end - start, Some(&m[start..end]), None),
            kernel::SelVec::Idx(s) => {
                let ids: Vec<i64> = s[a..b].iter().map(|&r| r as i64).collect();
                (b - a, None, Some(Tensor::from_vec(ids, &[b - a])))
            }
        };
        let mut mini = Batch::new();
        if refs.is_empty() {
            // A program that reads no column at all (`SUM(2)`) still
            // needs one to carry the row count.
            let rows = EncodedTensor::Bool(Tensor::full(&[width], true));
            mini.push("", ColumnData::Exact(rows));
        }
        for &slot in refs {
            let (name, col) = &cols[slot];
            let col = match &survivors {
                Some(ids) => col.select_rows(ids),
                None => col.slice_rows(start, end),
            };
            mini.push(name.clone(), ColumnData::Exact(col));
        }
        // Scratch of this fold: the column slices, the group ids and one
        // f32 buffer per evaluated argument; released with the morsel.
        let scratch: usize = mini
            .columns()
            .iter()
            .map(|(_, c)| c.to_exact().memory_bytes())
            .sum::<usize>()
            + width * 4 * (1 + bound.args.len());
        let _scratch = memory::charge(&wctx.memory, "aggregate scratch", scratch as u64)?;
        let partial = partial_aggregate(&bound, &mini, mask, wctx)?;
        state.add("aggregate state", partial.state_bytes())?;
        Ok(Some(partial))
    })
}

/// One accumulator the masked fast path can fold with no copy: the
/// full-width argument data is decoded once up front.
enum FastAgg {
    /// COUNT(col) of a non-boolean column — the group size.
    GroupSize,
    /// COUNT(bool_col): trues among survivors.
    CountMask(Vec<bool>),
    /// A sum / min / max / moments fold over a plain numeric column. The
    /// decoded argument is `Arc`-shared so several folds over the same
    /// column (`SUM(v), MIN(v), VARIANCE(v)…`) decode it once.
    Fold {
        kind: AccKind,
        vals: std::sync::Arc<F32Tensor>,
    },
}

/// Compile the program's accumulators for the masked fast path:
/// ungrouped, and every argument a plain numeric/bool column. `None` =
/// take [`selected_partials`] instead.
fn fast_aggs(prog: &AggProgram<'_>, cols: &[(String, EncodedTensor)]) -> Option<Vec<FastAgg>> {
    if !prog.keys.is_empty() {
        return None;
    }
    let mut decoded: Vec<Option<std::sync::Arc<F32Tensor>>> = vec![None; prog.args.len()];
    let mut out = Vec::with_capacity(prog.accs.len());
    for acc in &prog.accs {
        let CompiledExpr::Column(r) = prog.args[acc.arg].as_ref() else {
            return None;
        };
        let col = &cols[resolve_idx(cols, r)?].1;
        out.push(match (acc.kind, col) {
            (AccKind::CountDistinct, _) => return None,
            (AccKind::Count, EncodedTensor::Bool(m)) => FastAgg::CountMask(m.to_vec()),
            (AccKind::Count, _) => FastAgg::GroupSize,
            (_, EncodedTensor::F32(t)) if t.ndim() != 1 => return None,
            (kind, EncodedTensor::F32(_) | EncodedTensor::I64(_)) => FastAgg::Fold {
                kind,
                vals: decoded[acc.arg]
                    .get_or_insert_with(|| std::sync::Arc::new(col.decode_f32()))
                    .clone(),
            },
            _ => return None,
        });
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

    /// Trues among survivors.
    fn count_trues(&self, arg: &[bool]) -> i64 {
        (match self {
            SurvView::Dense { mask, start, end } => {
                (*start..*end).filter(|&r| mask[r] && arg[r]).count()
            }
            SurvView::Sparse(ids) => ids.iter().filter(|&&r| arg[r as usize]).count(),
            SurvView::Compact { start, end } => arg[*start..*end].iter().filter(|&&a| a).count(),
        }) as i64
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
            FastAgg::GroupSize => FastAgg::GroupSize,
            FastAgg::CountMask(arg) => FastAgg::CountMask(
                arg.iter()
                    .zip(mask)
                    .filter_map(|(&a, &keep)| keep.then_some(a))
                    .collect(),
            ),
            FastAgg::Fold { kind, vals } => FastAgg::Fold {
                kind: *kind,
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
            let count = (offs[i + 1] - offs[i]) as i64;
            let accs = fast
                .iter()
                .map(|f| match f {
                    FastAgg::GroupSize => AccColumn::Count(vec![count]),
                    FastAgg::CountMask(arg) => AccColumn::Count(vec![view.count_trues(arg)]),
                    FastAgg::Fold { kind, vals } => {
                        let vals = vals.data();
                        match kind {
                            AccKind::Sum => AccColumn::Sum(vec![view.sum_f32(vals)]),
                            AccKind::Min => AccColumn::Min(vec![view.min_max(vals, true)]),
                            AccKind::Max => AccColumn::Max(vec![view.min_max(vals, false)]),
                            AccKind::Moments => {
                                let (sum, sumsq) = view.moments(vals);
                                AccColumn::Moments {
                                    sum: vec![sum],
                                    sumsq: vec![sumsq],
                                }
                            }
                            AccKind::Count | AccKind::CountDistinct => {
                                unreachable!("fast_aggs admits folds only")
                            }
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
                hashed: false,
            })
        })
        .into_iter()
        .flatten()
        .collect(),
    )
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
    Min(f32),
    Max(f32),
    Moments { sum: f64, sumsq: f64 },
}

/// Combine morsel partials (at least one) into the final grouped batch.
/// Walks partials in morsel order — the first occurrence of a group
/// picks its representative key rows, and float partials add in morsel
/// order — and emits groups in merge-key order, which is the
/// lexicographic code order a single partial already has. A lone
/// partial passes through unchanged (`0.0 + s` is `s` bit for bit: a
/// round-to-nearest running sum from `+0.0` is never `-0.0`).
pub(crate) fn merge_partials(prog: &AggProgram<'_>, partials: Vec<PartialAgg>) -> Batch {
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
                    (AccVal::Min(t), AccColumn::Min(v)) => *t = t.min(v[g]),
                    (AccVal::Max(t), AccColumn::Max(v)) => *t = t.max(v[g]),
                    (AccVal::Moments { sum, sumsq }, AccColumn::Moments { sum: s, sumsq: q }) => {
                        *sum += s[g];
                        *sumsq += q[g];
                    }
                    _ => unreachable!("partials of one program share its accumulator layout"),
                }
            }
        }
    }

    let groups: Vec<&MergedGroup> = merged.values().collect();
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
    for (ki, key) in prog.keys.iter().enumerate() {
        let parts: Vec<&EncodedTensor> = partials.iter().map(|p| &p.key_reps[ki]).collect();
        let combined = EncodedTensor::concat(&parts);
        let idx: Vec<i64> = groups
            .iter()
            .map(|m| (offsets[m.rep.0] + m.rep.1) as i64)
            .collect();
        out.push(
            key.name.clone(),
            ColumnData::Exact(combined.select_rows(&Tensor::from_vec(idx, &[num_groups]))),
        );
    }

    // The one place an aggregate function is turned into an output
    // column: each reads its accumulator (COUNT(*) the group size).
    for (agg, acc) in prog.aggregates.iter().zip(&prog.outs) {
        let f32_col = |f: &dyn Fn(&MergedGroup, AccVal) -> f32| {
            let ai = acc.expect("only COUNT(*) has no accumulator");
            EncodedTensor::F32(Tensor::from_vec(
                groups.iter().map(|m| f(m, m.accs[ai])).collect(),
                &[num_groups],
            ))
        };
        let col = match agg.func {
            AggFunc::Count | AggFunc::CountDistinct => EncodedTensor::I64(Tensor::from_vec(
                groups
                    .iter()
                    .map(|m| match acc.map(|ai| m.accs[ai]) {
                        None => m.count,
                        Some(AccVal::Count(v)) => v,
                        Some(_) => unreachable!("COUNT folds into a Count accumulator"),
                    })
                    .collect(),
                &[num_groups],
            )),
            AggFunc::Sum => f32_col(&|_, a| match a {
                AccVal::Sum(v) => v,
                _ => unreachable!("SUM folds into a Sum accumulator"),
            }),
            AggFunc::Avg => f32_col(&|m, a| match a {
                AccVal::Sum(v) => v / m.count as f32,
                _ => unreachable!("AVG folds into a Sum accumulator"),
            }),
            AggFunc::Min => f32_col(&|_, a| match a {
                AccVal::Min(v) => v,
                _ => unreachable!("MIN folds into a Min accumulator"),
            }),
            AggFunc::Max => f32_col(&|_, a| match a {
                AccVal::Max(v) => v,
                _ => unreachable!("MAX folds into a Max accumulator"),
            }),
            AggFunc::Variance | AggFunc::Stddev => {
                let is_stddev = agg.func == AggFunc::Stddev;
                // Sample variance via the sum-of-squares identity, in f64
                // for numeric robustness; singleton groups yield 0 in
                // this NULL-free dialect.
                f32_col(&|m, a| match a {
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
                    _ => unreachable!("VARIANCE/STDDEV fold into Moments"),
                })
            }
        };
        out.push(agg.output.clone(), ColumnData::Exact(col));
    }
    out
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

    /// An f32 counter — what `ones.segment_sum(..)` was — stops at
    /// 2²⁴; the fold counts rows and trues in i64. Seeded just below the
    /// boundary, so no 16M-row input is needed.
    #[test]
    fn counts_pass_the_f32_integer_limit() {
        const EDGE: i64 = 1 << 24;
        let flags = [true, false, true, true];
        let (mut rows, mut trues) = ([EDGE - 1], [EDGE - 1]);
        let mut fold = Fold::over(&mut rows);
        fold.trues.push((&flags, &mut trues));
        fold.run(&[0, 0, 0, 0]);
        assert_eq!((rows, trues), ([EDGE + 3], [EDGE + 2]));

        let mut f32_counter = (EDGE - 1) as f32;
        for _ in 0..4 {
            f32_counter += 1.0;
        }
        assert_eq!(f32_counter as i64, EDGE, "the counter this replaced");
    }

    /// Bit patterns of one aggregate's partial state, per group.
    type StateBits = Vec<u64>;

    /// The parent commit's partial-aggregation arithmetic, kept as the
    /// byte-identity reference: one `segment_sum` scatter pass (or row
    /// loop) per aggregate over the dense batch.
    fn reference_partial(
        batch: &Batch,
        keys: &[PhysKey],
        aggregates: &[PhysAggregate],
        ctx: &ExecContext,
    ) -> Vec<StateBits> {
        let n = batch.rows();
        let codes: Vec<I64Tensor> = keys
            .iter()
            .map(|k| match eval_expr(&k.expr, batch, ctx).unwrap() {
                Value::Column(c) => exact::key_codes(&c).unwrap(),
                other => panic!("key {other:?}"),
            })
            .collect();
        let (ids, groups) = if codes.is_empty() {
            (Tensor::from_vec(vec![0i64; n], &[n]), 1)
        } else {
            // Ids come from `group_ids`, itself proptested against the
            // sort-based reference in `tdp_tensor::sort`.
            let (ids, distinct) = tdp_tensor::sort::group_ids(&codes.iter().collect::<Vec<_>>());
            let groups = distinct.shape()[0];
            (ids, groups)
        };
        let f32_bits = |t: F32Tensor| t.data().iter().map(|v| v.to_bits() as u64).collect();
        aggregates
            .iter()
            .map(|agg| {
                let vals = || {
                    eval_expr(agg.arg.as_ref().unwrap(), batch, ctx)
                        .unwrap()
                        .into_f32_column(n)
                        .unwrap()
                };
                match agg.func {
                    AggFunc::Count => F32Tensor::ones(&[n])
                        .segment_sum(&ids, groups)
                        .data()
                        .iter()
                        .map(|&c| c as i64 as u64)
                        .collect(),
                    AggFunc::Sum | AggFunc::Avg => f32_bits(vals().segment_sum(&ids, groups)),
                    AggFunc::Min | AggFunc::Max => {
                        let is_min = agg.func == AggFunc::Min;
                        let mut acc = vec![
                            if is_min {
                                f32::INFINITY
                            } else {
                                f32::NEG_INFINITY
                            };
                            groups
                        ];
                        let vals = vals();
                        for (row, &g) in ids.data().iter().enumerate() {
                            let (v, slot) = (vals.at(row), &mut acc[g as usize]);
                            if (is_min && v < *slot) || (!is_min && v > *slot) {
                                *slot = v;
                            }
                        }
                        acc.iter().map(|v| v.to_bits() as u64).collect()
                    }
                    AggFunc::Variance | AggFunc::Stddev => {
                        let (mut sum, mut sumsq) = (vec![0.0f64; groups], vec![0.0f64; groups]);
                        let vals = vals();
                        for (row, &g) in ids.data().iter().enumerate() {
                            let v = vals.at(row) as f64;
                            sum[g as usize] += v;
                            sumsq[g as usize] += v * v;
                        }
                        sum.iter().chain(&sumsq).map(|v| v.to_bits()).collect()
                    }
                    AggFunc::CountDistinct => unreachable!("not a morsel-parallel aggregate"),
                }
            })
            .collect()
    }

    /// The same layout out of a fused partial.
    fn partial_bits(prog: &AggProgram<'_>, p: &PartialAgg) -> Vec<StateBits> {
        prog.outs
            .iter()
            .map(|out| match out.map(|acc| &p.accs[acc]) {
                None => p.counts.iter().map(|&c| c as u64).collect(),
                Some(AccColumn::Count(c)) => c.iter().map(|&c| c as u64).collect(),
                Some(AccColumn::Sum(v) | AccColumn::Min(v) | AccColumn::Max(v)) => {
                    v.iter().map(|v| v.to_bits() as u64).collect()
                }
                Some(AccColumn::Moments { sum, sumsq }) => {
                    sum.iter().chain(sumsq).map(|v| v.to_bits()).collect()
                }
            })
            .collect()
    }

    /// Fused partials are bit-for-bit the parent's, on the floats where
    /// order and representation show: NaN, ±inf, −0.0, denormals, and
    /// magnitudes nine decades apart — over the dense batch, under a
    /// mask (against the reference over the *gathered* survivors), and
    /// over survivors read by index.
    #[test]
    fn fused_partials_are_bitwise_the_segment_sum_reference() {
        let n = 257usize;
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::MAX,
            -f32::MAX,
        ];
        let x: Vec<f32> = (0..n)
            .map(|i| match i % 11 {
                0 => special[(i / 11) % special.len()],
                _ => ((i * 7919) % 1000) as f32 * 10f32.powi(i as i32 % 9 - 4) - 3.0,
            })
            .collect();
        // A tamer column: finite, so its sums are not all NaN.
        let y: Vec<f32> = (0..n)
            .map(|i| ((i * 104_729) % 977) as f32 * 10f32.powi(i as i32 % 7 - 3))
            .collect();
        let flags: Vec<String> = (0..n).map(|i| format!("f{}", (i * i) % 3)).collect();
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", x)
                .col_f32("y", y)
                .col_i64(
                    "k",
                    (0..n).map(|i| (i % 5) as i64 * 1_000_000_007 - 9).collect(),
                )
                .col_str("flag", &flags)
                .col_i64("q", (0..n).map(|i| (i % 50) as i64).collect())
                .build("t"),
        );
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let batch = exact::scan_table("t", None, &ctx).unwrap();

        for sql in [
            // Q1 shape: dict key, one computed and one repeated argument.
            "SELECT flag, SUM(q), SUM(y), SUM(y * (1 - x)), AVG(x), COUNT(*) FROM t GROUP BY flag",
            // Two keys (wide-span i64 forces the hash arm, dict rides along).
            "SELECT k, flag, SUM(x), MIN(x), MAX(x), VARIANCE(y), STDDEV(y), AVG(y) \
             FROM t GROUP BY k, flag",
            // Ungrouped, computed.
            "SELECT SUM(x * 2), MAX(y - x), COUNT(*) FROM t",
        ] {
            let plan = optimizer::optimize(
                build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
            );
            let phys = lower(&plan, &catalog, &udfs).unwrap();
            let PhysicalPlan::Aggregate {
                keys, aggregates, ..
            } = &phys
            else {
                panic!("expected an aggregate root for {sql}");
            };
            let prog = AggProgram::compile(keys, aggregates).unwrap();

            let dense = partial_aggregate(&prog, &batch, None, &ctx).unwrap();
            assert_eq!(
                partial_bits(&prog, &dense),
                reference_partial(&batch, keys, aggregates, &ctx),
                "dense: {sql}"
            );

            for modulus in [1usize, 2, 3, 100] {
                // modulus 1 keeps nothing but row 0 … 100 keeps ~99%.
                let keep: Vec<bool> = (0..n)
                    .map(|i| {
                        if modulus == 1 {
                            i == 0
                        } else {
                            i % modulus != 0
                        }
                    })
                    .collect();
                let gathered = exact::filter_batch(&batch, &Tensor::from_vec(keep.clone(), &[n]));
                let want = reference_partial(&gathered, keys, aggregates, &ctx);
                let masked = partial_aggregate(&prog, &batch, Some(&keep), &ctx).unwrap();
                assert_eq!(partial_bits(&prog, &masked), want, "mask/{modulus}: {sql}");
                let ids: Vec<i64> = (0..n as i64).filter(|&i| keep[i as usize]).collect();
                let picked =
                    exact::select_batch(&batch, &Tensor::from_vec(ids.clone(), &[ids.len()]));
                let sparse = partial_aggregate(&prog, &picked, None, &ctx).unwrap();
                assert_eq!(partial_bits(&prog, &sparse), want, "idx/{modulus}: {sql}");
            }
        }
    }

    #[test]
    fn program_shares_arguments_and_accumulators() {
        let c = setup(10);
        let udfs = UdfRegistry::new();
        let plan = optimizer::optimize(
            build_plan(
                &parse(
                    "SELECT tag, SUM(v), AVG(v), VARIANCE(v), STDDEV(v), SUM(v * k), COUNT(*), \
                     COUNT(k) FROM t GROUP BY tag",
                )
                .unwrap(),
                &PlannerContext::default(),
            )
            .unwrap(),
        );
        let phys = lower(&plan, &c, &udfs).unwrap();
        let PhysicalPlan::Aggregate {
            keys, aggregates, ..
        } = &phys
        else {
            panic!("aggregate root");
        };
        let prog = AggProgram::compile(keys, aggregates).unwrap();
        // v, v * k, k — and SUM/AVG share a sum, VARIANCE/STDDEV the moments.
        assert_eq!(prog.args.len(), 3);
        assert_eq!(prog.accs.len(), 4);
        assert_eq!(prog.outs[0], prog.outs[1]);
        assert_eq!(prog.outs[2], prog.outs[3]);
        assert_eq!(prog.outs[5], None, "COUNT(*) reads the group size");
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
