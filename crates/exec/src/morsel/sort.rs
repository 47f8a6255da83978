//! Parallel merge sort and top-k: per-morsel sorted runs under the
//! stable `(keys…, input position)` total order, k-way merged by a
//! tournament heap; top-k keeps only k rows per run and merges O(k·m).

use tdp_encoding::EncodedTensor;
use tdp_tensor::{I64Tensor, Tensor};

use super::chain::BarrierInput;
use super::sched::{
    claim, claim_eval, morsel_range, note_barrier, num_morsels, slice_cols, staging, to_cols,
};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::expr::{eval_expr, Value};
use crate::memory;
use crate::physical::{CompiledExpr, PhysOrderKey};
use crate::profile::Recorder;
use crate::udf::ExecContext;
use crate::verdict::{Reason, Staging};

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
    keys: &[PhysOrderKey],
    take_k: Option<usize>,
    charges: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Vec<SortRun>, ExecError> {
    let rows = input.rows();
    let morsel_rows = ctx.morsel_rows;
    let morsels = num_morsels(rows, morsel_rows);
    let cols = to_cols(input);

    // First error in morsel order wins — the scheduler's contract.
    let runs = claim_eval(morsels, ctx, None, |i, wctx| {
        let (start, end) = morsel_range(i, morsel_rows, rows);
        // A run holds the evaluated key codes (8 B/row/key) plus the
        // local permutation (4 B/row).
        charges.add("sort run", ((end - start) * (4 + 8 * keys.len())) as u64)?;
        // Key expressions run on the interpreter, which wants a batch.
        let (batch, _slice) = slice_cols(&cols, start, end, "sort materialization", wctx)?;
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
    })?;
    Ok(runs.into_iter().flatten().collect())
}

/// Local row order of one run under the stable `(keys…, position)`
/// total order, optionally truncated to the run's k best rows.
fn sorted_order(
    key_cols: &[SortKeyCol],
    keys: &[PhysOrderKey],
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
    batch: &Batch,
    ids: &I64Tensor,
    gathered_keys: Vec<SortKeyCol>,
    keys: &[PhysOrderKey],
    take_k: Option<usize>,
    charges: &memory::ScopedCharges,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let n = ids.numel();
    let morsel_rows = ctx.morsel_rows;
    let morsels = num_morsels(n, morsel_rows);
    let runs: Vec<SortRun> = claim(morsels, ctx.threads, |i| {
        let (start, end) = morsel_range(i, morsel_rows, n);
        charges.add("sort run", ((end - start) * (4 + 8 * keys.len())) as u64)?;
        let key_cols: Vec<SortKeyCol> = gathered_keys.iter().map(|k| k.slice(start, end)).collect();
        let order = sorted_order(&key_cols, keys, end - start, take_k);
        Ok(SortRun {
            start,
            order,
            keys: key_cols,
        })
    })?;
    let idx: Vec<i64> = merge_runs(&runs, keys, take_k)
        .into_iter()
        .map(|p| ids.at(p as usize))
        .collect();
    let len = idx.len();
    Ok(exact::select_batch(batch, &Tensor::from_vec(idx, &[len])))
}

/// Resolve sort keys as plain column refs over a selection's full-width
/// batch — exactly as the expression evaluator resolves them — and read
/// them at the survivor rows `ids`: the only evaluation the selection-fed
/// sort path needs. `None` when any key is a computed expression (the
/// caller gathers and takes the staged path).
fn gather_sort_keys(
    batch: &Batch,
    ids: &I64Tensor,
    keys: &[PhysOrderKey],
) -> Result<Option<Vec<SortKeyCol>>, ExecError> {
    let srcs: Option<Vec<EncodedTensor>> = keys
        .iter()
        .map(|k| match &k.expr {
            CompiledExpr::Column(r) => r.resolve(batch).ok().map(|c| c.to_exact()),
            _ => None,
        })
        .collect();
    let Some(srcs) = srcs else {
        return Ok(None);
    };
    let cols = srcs.iter().map(|c| SortKeyCol::of(&c.select_rows(ids)));
    cols.collect::<Result<_, _>>().map(Some)
}

/// K-way merge of sorted runs into a global row-index order, stopping
/// after `limit` rows when given. A binary tournament heap keyed by the
/// same `(keys…, input position)` total order as the runs themselves,
/// so the merge is stable and the output equals the full stable sort.
fn merge_runs(runs: &[SortRun], keys: &[PhysOrderKey], limit: Option<usize>) -> Vec<i64> {
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

/// Parallel merge sort — or top-`k`, whose runs keep only their k best
/// rows and merge O(k·m): per-morsel sorted runs, k-way merged under the
/// stable `(keys…, input position)` order. Byte-identical to
/// [`exact::sort_batch`] / [`exact::topk_batch`] (the first k rows of the
/// full stable sort), which remain the fallback and the oracle. A
/// selection-fed input whose keys are plain column refs reads only the
/// key columns, at its survivors, and gathers the payload once, in
/// sorted order; computed keys need per-morsel evaluation over dense
/// rows, so such an input is gathered first.
pub(crate) fn run_sort(
    input: BarrierInput<'_>,
    keys: &[PhysOrderKey],
    k: Option<usize>,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let k = k.map(|k| k.min(input.rows_out()));
    if k == Some(0) {
        // No rows to keep: nothing to split.
        note_barrier(rec, Staging::Sequential(Reason::SingleMorsel), &[1]);
        return exact::topk_batch(&input.into_gathered(), keys, 0, ctx);
    }
    // Key expressions are evaluated per morsel on worker threads, so the
    // same analysis as fused chains applies (UDFs, subqueries, tensor
    // params).
    let sort = k.map_or(Staging::MergeSort, |_| Staging::TopK);
    let diff = input.batch.has_diff();
    let staged = staging(sort, keys, diff, Some(input.rows_out()), ctx);
    if let Staging::Sequential(_) = staged {
        note_barrier(rec, staged, &[1]);
        let input = input.into_gathered();
        // The sequential argsort holds the same key codes + permutation.
        let bytes = sort_bytes(input.rows(), keys.len());
        let _charge = memory::charge(&ctx.memory, k.map_or("sort", |_| "top-k"), bytes)?;
        return match k {
            None => exact::sort_batch(&input, keys, ctx),
            Some(k) => exact::topk_batch(&input, keys, k, ctx),
        };
    }
    let runs = num_morsels(input.rows_out(), ctx.morsel_rows);
    note_barrier(rec, staged, &[runs]);
    // Held until the sorted batch is assembled: gathered key columns
    // plus every run's keys and permutation.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    if let Some(ids) = &input.ids {
        charges.add("sort key gather", (ids.numel() * 8 * keys.len()) as u64)?;
        if let Some(gathered) = gather_sort_keys(&input.batch, ids, keys)? {
            return sort_selected(&input.batch, ids, gathered, keys, k, &charges, ctx);
        }
    }
    let input = input.into_gathered();
    let runs = sort_runs(&input, keys, k, &charges, ctx)?;
    let idx = merge_runs(&runs, keys, k);
    let n = idx.len();
    Ok(exact::select_batch(&input, &Tensor::from_vec(idx, &[n])))
}
