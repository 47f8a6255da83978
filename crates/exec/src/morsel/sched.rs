//! The scheduler: the one place worker threads are spawned and the one
//! loop that claims work. Everything staged — chains, partial
//! aggregation, join build/probe, sort runs, DISTINCT dedup, the
//! exchange — is a [`claim`]/[`claim_eval`] call over an item count.
//!
//! Work distribution is work-stealing-lite: workers claim the next item
//! index from a shared atomic counter, so a slow item never stalls the
//! queue behind it, and each output lands in its index's slot — results
//! come back in index order no matter which worker produced what, and
//! the first error *in index order* is the one reported. A stage with a
//! [`StopAfter`] bound (the LIMIT sink) additionally publishes a stop
//! index once the contiguous output prefix holds enough rows; items past
//! it are never claimed.
//!
//! Threads live exactly as long as one stage (a scoped spawn per call;
//! the caller is one of the workers, so `n` workers spawn `n − 1`). In a
//! stage of two or more workers each one, the caller included, runs as a
//! `tdp_tensor` device lane, so tensor kernels inside a task never spawn
//! lanes of their own: a stage on an `Accel(n)` session runs at most
//! `max(threads, n)` threads. An engine-owned persistent pool replaces
//! `run_stage`'s spawn block and `Device`'s one splitter, and nothing else.
//!
//! What a worker shares with the session thread is what crosses threads
//! by type: the stage's input [`Batch`]es, borrowed in place (exact
//! encoded columns, `Send + Sync` — tape columns live only in the
//! differentiable walker's `DiffBatch`), the stage's closure, and a
//! `WorkerCfg`. A [`claim_eval`] worker evaluates with an empty catalog
//! and a registry that is the run's thread-safe function table by
//! pointer ([`UdfRegistry::worker`]): setting one up copies no map and
//! calls no user code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tdp_storage::Catalog;
use tdp_tensor::keytable::partition_of;

use super::chain::expr_fallback;
use crate::batch::Batch;
use crate::error::ExecError;
use crate::memory;
use crate::physical::PhysOrderKey;
use crate::profile::Recorder;
use crate::udf::{ExecContext, SharedUdfRegistry, UdfRegistry};
use crate::verdict::{Reason, Staging};

/// Number of morsels a batch splits into.
pub(super) fn num_morsels(rows: usize, morsel_rows: usize) -> usize {
    rows.div_ceil(morsel_rows.max(1))
}

/// Row range `[start, end)` of morsel `i`.
pub(super) fn morsel_range(i: usize, morsel_rows: usize, rows: usize) -> (usize, usize) {
    let start = i * morsel_rows;
    (start, (start + morsel_rows).min(rows))
}

/// The `Send` subset of an [`ExecContext`] a worker needs. The session
/// context itself cannot cross threads (the UDF registry may hold
/// `Rc`-based autodiff parameters), but parallel-safe chains reference
/// only the binding, the device knobs, and the run's thread-safe
/// function table (UDFs registered through
/// [`UdfRegistry::register_scalar_parallel`]), carried by pointer.
struct WorkerCfg {
    device: tdp_tensor::Device,
    temperature: f32,
    params: crate::params::ParamValues,
    morsel_rows: usize,
    /// The run's thread-safe function table: a worker's registry is this
    /// pointer plus nothing session-bound, so `CompiledExpr::Udf`
    /// resolution works identically off-thread.
    udfs: SharedUdfRegistry,
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
            udfs: ctx.udfs.thread_safe().clone(),
            memory: std::sync::Arc::clone(&ctx.memory),
        }
    }
}

/// Build a worker-side context over the run's thread-safe functions and
/// an empty catalog.
fn worker_ctx<'a>(catalog: &'a Catalog, udfs: &'a UdfRegistry, cfg: &WorkerCfg) -> ExecContext<'a> {
    ExecContext {
        catalog,
        udfs,
        device: cfg.device,
        temperature: cfg.temperature,
        params: cfg.params.clone(),
        threads: 1,
        morsel_rows: cfg.morsel_rows,
        // Workers receive an already-bound kernel by reference; they
        // never vet or bind a chain themselves.
        chain_kernels: false,
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

/// LIMIT-sink stop bound for a stage: once the contiguous prefix of
/// completed items holds `rows` rows (as counted by `rows_of`), later
/// items are no longer claimed and come back as `None`.
pub(super) struct StopAfter<T> {
    pub(super) rows: usize,
    pub(super) rows_of: fn(&T) -> usize,
}

/// The claim loop. Runs `f(i, worker context)` for every `i < count` on
/// up to `threads` workers — the caller and `threads − 1` spawned beside
/// it, nobody when one suffices — and returns the
/// outputs in index order; `None` marks an item a `stop` bound let the
/// stage skip. Worker contexts are built only when `eval` asks for them
/// — stages that merely shuffle precomputed keys need no registry.
fn run_stage<T: Send>(
    count: usize,
    threads: usize,
    eval: Option<&WorkerCfg>,
    stop: Option<StopAfter<T>>,
    f: impl Fn(usize, Option<&ExecContext>) -> Result<T, ExecError> + Sync,
) -> Result<Vec<Option<T>>, ExecError> {
    struct Slots<T> {
        /// Per-item output (`None` = not yet / never processed).
        results: Vec<Option<Result<T, ExecError>>>,
        /// Longest contiguous prefix of completed items and its rows.
        prefix_idx: usize,
        prefix_rows: usize,
    }
    let next = AtomicUsize::new(0);
    // Items with index >= bound are never claimed (LIMIT early exit).
    let bound = AtomicUsize::new(usize::MAX);
    let slots = Mutex::new(Slots {
        results: (0..count).map(|_| None).collect(),
        prefix_idx: 0,
        prefix_rows: 0,
    });

    let drain = |wctx: Option<&ExecContext>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count || i >= bound.load(Ordering::Acquire) {
            break;
        }
        let out = f(i, wctx);
        let mut guard = slots.lock().expect("stage state poisoned");
        let s = &mut *guard;
        s.results[i] = Some(out);
        let Some(stop) = &stop else { continue };
        // Advance the contiguous prefix; once it covers the limit,
        // publish the bound so later items are skipped.
        while let Some(Some(done)) = s.results.get(s.prefix_idx) {
            let rows = done.as_ref().map_or(0, stop.rows_of);
            s.prefix_rows += rows;
            s.prefix_idx += 1;
        }
        if s.prefix_rows >= stop.rows {
            bound.store(s.prefix_idx, Ordering::Release);
        }
    };
    let worker = || match eval {
        Some(cfg) => {
            let catalog = Catalog::new();
            let udfs = UdfRegistry::worker(&cfg.udfs);
            drain(Some(&worker_ctx(&catalog, &udfs, cfg)));
        }
        None => drain(None),
    };
    let workers = threads.min(count);
    if workers <= 1 {
        worker();
    } else {
        let lane = || tdp_tensor::device::run_as_lane(worker);
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(lane);
            }
            lane();
        });
    }

    // First error in index order wins — deterministic reporting.
    slots
        .into_inner()
        .expect("stage state poisoned")
        .results
        .into_iter()
        .map(Option::transpose)
        .collect()
}

/// Claim `0..count` on plain threads (no evaluation context): `f(i)`
/// outputs in index order.
pub(crate) fn claim<T: Send>(
    count: usize,
    threads: usize,
    f: impl Fn(usize) -> Result<T, ExecError> + Sync,
) -> Result<Vec<T>, ExecError> {
    let out = run_stage(count, threads, None, None, |i, _| f(i))?;
    Ok(out
        .into_iter()
        .map(|t| t.expect("every index is claimed without a stop bound"))
        .collect())
}

/// Claim `0..count` on workers that each carry their own evaluation
/// context (the `Send` subset of `ctx`), optionally under a LIMIT stop
/// bound: `f(i, worker context)` outputs in index order, `None` past
/// the bound.
pub(super) fn claim_eval<T: Send>(
    count: usize,
    ctx: &ExecContext,
    stop: Option<StopAfter<T>>,
    f: impl Fn(usize, &ExecContext) -> Result<T, ExecError> + Sync,
) -> Result<Vec<Option<T>>, ExecError> {
    let cfg = WorkerCfg::of(ctx);
    run_stage(count, ctx.threads, Some(&cfg), stop, |i, wctx| {
        f(i, wctx.expect("the stage asked for worker contexts"))
    })
}

/// An exchange's output: one `u32` position buffer holding every
/// partition's rows back to back.
pub(super) struct Partitions {
    positions: Vec<u32>,
    /// Partition `p` is `positions[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
}

impl Partitions {
    /// Rows of partition `p`, ascending.
    pub(super) fn part(&self, p: usize) -> &[u32] {
        &self.positions[self.starts[p]..self.starts[p + 1]]
    }
}

/// Partition-exchange primitive: distribute the rows behind `hashes`
/// (one precomputed composite-key hash per row — the same hashes the
/// consumer's tables reuse) into `partitions` buckets. Two claimed
/// passes over the morsels: a histogram per morsel, then — after prefix
/// sums turn the counts into one disjoint output range per (partition,
/// morsel) — a scatter straight into the shared position buffer. Ranges
/// are laid out partition-major, morsel-minor, and a morsel writes its
/// rows in order, so every partition lists its rows in **ascending
/// input order** at any thread count (the hash, morsel boundaries and
/// partition count are all plan properties — workers only decide *who*
/// scatters each morsel).
pub(super) fn exchange(
    hashes: &[u64],
    partitions: usize,
    ctx: &ExecContext,
) -> Result<Partitions, ExecError> {
    let rows = hashes.len();
    assert!(rows < u32::MAX as usize, "exchanged positions are 32-bit");
    let (morsel_rows, morsels) = (ctx.morsel_rows, num_morsels(rows, ctx.morsel_rows));
    let morsel = |i: usize| {
        let (start, end) = morsel_range(i, morsel_rows, rows);
        (start, &hashes[start..end])
    };
    let counts = claim(morsels, ctx.threads, |i| {
        let mut count = vec![0usize; partitions];
        for &h in morsel(i).1 {
            count[partition_of(h, partitions)] += 1;
        }
        Ok(count)
    })?;

    // Carve the buffer into its (partition, morsel) ranges, regrouped
    // per morsel so each scatter task owns exactly the slices it fills.
    let mut positions = vec![0u32; rows];
    let mut starts = Vec::with_capacity(partitions + 1);
    let mut outs: Vec<Vec<&mut [u32]>> = (0..morsels).map(|_| Vec::new()).collect();
    let mut rest = positions.as_mut_slice();
    for p in 0..partitions {
        starts.push(rows - rest.len());
        for (count, out) in counts.iter().zip(&mut outs) {
            let (range, tail) = std::mem::take(&mut rest).split_at_mut(count[p]);
            out.push(range);
            rest = tail;
        }
    }
    starts.push(rows);
    let outs: Vec<Mutex<Vec<&mut [u32]>>> = outs.into_iter().map(Mutex::new).collect();
    claim(morsels, ctx.threads, |i| {
        let mut out = outs[i].lock().expect("scatter ranges poisoned");
        let mut fill = vec![0usize; partitions];
        let (start, hashes) = morsel(i);
        for (r, &h) in hashes.iter().enumerate() {
            let p = partition_of(h, partitions);
            out[p][fill[p]] = (start + r) as u32;
            fill[p] += 1;
        }
        Ok(())
    })?;
    drop(outs);
    Ok(Partitions { positions, starts })
}

// ----------------------------------------------------------------------
// Morsel slicing
// ----------------------------------------------------------------------

/// Rows `start..end` of a stage's input as a batch of its own —
/// what the interpreter evaluates a morsel on (chain kernels address the
/// window in place). Read through [`Batch::slice_rows`] inside
/// the task, and charged as `operator` until the guard drops with it. A
/// window over the whole input is the input and charges nothing. Plain
/// windows share their column's buffer too, but a partial window is
/// still charged its bytes, on purpose: the charge bounds what the
/// interpreter's evaluation of the morsel materialises, and
/// `memory_budget.rs::selection_fed_aggregate_fits_budget_the_gathered_path_exceeds`
/// depends on it.
pub(super) fn slice_window(
    input: &Batch,
    start: usize,
    end: usize,
    operator: &str,
    ctx: &ExecContext,
) -> Result<(Batch, memory::ChargeGuard), ExecError> {
    let window = input.slice_rows(start, end);
    let whole = start == 0 && input.columns().iter().all(|(_, col)| end >= col.rows());
    let bytes = match whole {
        true => 0,
        false => memory::batch_bytes(&window),
    };
    let charge = memory::charge(&ctx.memory, operator, bytes)?;
    Ok((window, charge))
}

/// The row windows a stage schedules: the morsels the zone maps did not
/// prune (`skip[i]`) — a pruned morsel is never claimed, sliced or
/// decoded. When every morsel is pruned the stage still runs once, over
/// an empty window: outputs keep their schema and encodings, and a chain
/// that can only fail (a type error) fails exactly as in the unpruned run.
pub(super) fn live_windows(
    skip: Option<&[bool]>,
    morsel_rows: usize,
    rows: usize,
) -> Vec<(usize, usize)> {
    let live: Vec<(usize, usize)> = (0..num_morsels(rows, morsel_rows))
        .filter(|&i| !skip.is_some_and(|s| s[i]))
        .map(|i| morsel_range(i, morsel_rows, rows))
        .collect();
    match live.is_empty() {
        true => vec![(0, 0)],
        false => live,
    }
}

// ----------------------------------------------------------------------
// Barrier staging: the decision, and reporting it to profiled runs
// ----------------------------------------------------------------------

/// The one staging decision for a join, sort, top-k or DISTINCT — what
/// EXPLAIN prints and the run takes: `staged` unless something pins the
/// operator's own work to the session thread (a sort key the workers
/// cannot evaluate), the session has one thread, or
/// — at run, where `rows` (logical, post-selection) is known — the input
/// fits one morsel.
pub(crate) fn staging<'p>(
    staged: Staging<'p>,
    keys: &'p [PhysOrderKey],
    rows: Option<usize>,
    ctx: &ExecContext,
) -> Staging<'p> {
    let pin = keys.iter().find_map(|k| expr_fallback(&k.expr, ctx));
    let one_morsel = rows.is_some_and(|rows| num_morsels(rows, ctx.morsel_rows) <= 1);
    pin.or_else(|| (ctx.threads <= 1).then_some(Reason::Threads1))
        .or_else(|| one_morsel.then_some(Reason::SingleMorsel))
        .map_or(staged, Staging::Sequential)
}

/// Tell an attached recorder how a barrier ran: its staging verdict, and
/// the morsels each of its stages claimed — a join's build and probe,
/// DISTINCT's or a sort's one stage, `[1]` whole-batch.
pub(super) fn note_barrier(rec: Option<&mut Recorder>, staging: Staging<'_>, morsels: &[usize]) {
    if let Some(r) = rec {
        r.note_barrier(staging, morsels);
    }
}
