//! Merge sort and top-k: sorted runs under the stable `(keys…, input
//! position)` total order, k-way merged by a tournament heap; top-k
//! keeps only k rows per run and merges O(k·m). A staged sort has one
//! run per morsel; a sequential one is one run over its whole input.
//! The run's key reader ([`run_keys`]) and comparator ([`run_cmp`])
//! also order a window's rows.

use std::cmp::Ordering;

use tdp_encoding::EncodedTensor;
use tdp_tensor::{I64Tensor, Tensor};

use super::chain::BarrierInput;
use super::sched::{claim_eval, morsel_range, note_barrier, num_morsels, slice_window, staging};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact::{self, Rows};
use crate::expr::{eval_expr, Value};
use crate::memory;
use crate::physical::{CompiledExpr, PhysOrderKey};
use crate::profile::Recorder;
use crate::udf::ExecContext;
use crate::verdict::{Reason, Staging};

/// One sort-key column of a run. Numeric, boolean and compressed keys
/// keep their integer grouping codes (8 bytes per row); dictionary keys
/// keep their codes *plus* the shared dictionary. Runs over one stored
/// column share its `Arc`'d dictionary, so run-vs-run comparisons stay
/// integer compares; only expression-generated per-run dicts pay a
/// decode — and because dictionaries are order-preserving (sorted), code
/// order equals string order either way.
pub(crate) enum SortKeyCol {
    Ints(Vec<i64>),
    Dict {
        codes: Vec<i64>,
        dict: std::sync::Arc<tdp_encoding::StringDict>,
    },
}

impl SortKeyCol {
    /// The codes of `col` at `rows` ([`exact::key_codes`]), a
    /// dictionary's with its dictionary.
    fn of(col: &EncodedTensor, rows: Rows<'_>) -> Result<SortKeyCol, ExecError> {
        let codes = exact::key_codes(col, rows)?.into_owned();
        Ok(match col {
            EncodedTensor::Dict { dict, .. } => SortKeyCol::Dict {
                codes,
                dict: dict.clone(),
            },
            _ => SortKeyCol::Ints(codes),
        })
    }

    /// Compare row `a` of this column against row `b` of `other`. A key
    /// expression always evaluates to one encoding family, so
    /// cross-variant comparisons are unreachable; they still order
    /// deterministically (ints before strings) rather than panic.
    #[inline]
    fn cmp_rows(&self, a: usize, other: &SortKeyCol, b: usize) -> Ordering {
        match (self, other) {
            (SortKeyCol::Ints(x), SortKeyCol::Ints(y)) => x[a].cmp(&y[b]),
            (SortKeyCol::Dict { codes: x, dict: dx }, SortKeyCol::Dict { codes: y, dict: dy }) => {
                if std::sync::Arc::ptr_eq(dx, dy) {
                    x[a].cmp(&y[b])
                } else {
                    dx.decode_one(x[a]).cmp(dy.decode_one(y[b]))
                }
            }
            (SortKeyCol::Ints(_), SortKeyCol::Dict { .. }) => Ordering::Less,
            (SortKeyCol::Dict { .. }, SortKeyCol::Ints(_)) => Ordering::Greater,
        }
    }
}

/// Row `a` of the key columns `x` against row `b` of `y` in the order
/// `keys` give (each ascending or descending); `Equal` for peers. The
/// merge's comparator: two runs' computed dictionary keys may hold two
/// dictionaries.
#[inline]
fn cmp_keys(
    keys: &[PhysOrderKey],
    x: &[SortKeyCol],
    a: usize,
    y: &[SortKeyCol],
    b: usize,
) -> Ordering {
    for ((cx, cy), k) in x.iter().zip(y).zip(keys) {
        let ord = cx.cmp_rows(a, cy, b);
        if ord.is_ne() {
            return if k.desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// One sorted run: local row order plus the key columns (kept in
/// *original* local order; `order` permutes into them).
struct SortRun {
    start: usize,
    order: Vec<u32>,
    keys: Vec<SortKeyCol>,
}

/// A key that is a plain column ref of `batch` — resolved exactly as
/// the expression evaluator resolves it — read where it is stored.
fn stored<'b>(batch: &'b Batch, key: &PhysOrderKey) -> Option<&'b EncodedTensor> {
    match &key.expr {
        CompiledExpr::Column(r) => r.resolve(batch).ok(),
        _ => None,
    }
}

/// The key columns of rows `start..end` of `batch`, or of the survivors
/// `ids[start..end]` when `ids` is given — the one key reader of a sort
/// run and of a window's order. A plain column ref is read where it is
/// stored ([`exact::key_codes`]); any other key is evaluated over the
/// rows' own batch on `ctx`, which only a dense input has (a
/// selection-fed input with a computed key is gathered first). `clause`
/// names the keys in the error for one that is not a column.
pub(crate) fn run_keys(
    batch: &Batch,
    ids: Option<&I64Tensor>,
    (start, end): (usize, usize),
    keys: &[PhysOrderKey],
    clause: &str,
    ctx: &ExecContext,
) -> Result<Vec<SortKeyCol>, ExecError> {
    let at = ids.map(|ids| ids.slice_rows(start, end));
    let rows = at.as_ref().map_or(Rows::Window(start, end), Rows::At);
    // Computed keys run on the interpreter, which wants a batch of the
    // run's own rows: the input itself when the run covers it.
    let computed = keys.iter().any(|k| stored(batch, k).is_none());
    let window = match computed && (start, end) != (0, batch.rows()) {
        true => Some(slice_window(
            batch,
            start,
            end,
            "sort materialization",
            ctx,
        )?),
        false => None,
    };
    let rows_batch = window.as_ref().map_or(batch, |(w, _)| w);
    let key = |k: &PhysOrderKey| match stored(batch, k) {
        Some(col) => SortKeyCol::of(col, rows),
        None => match eval_expr(&k.expr, rows_batch, ctx)? {
            Value::Column(c) => SortKeyCol::of(&c, Rows::All),
            other => Err(ExecError::TypeMismatch(format!(
                "{clause} expression must be a column, got {other:?}"
            ))),
        },
    };
    keys.iter().map(key).collect()
}

/// Rows `a` and `b` of one run's key columns `cols` in the order `keys`
/// give (each ascending or descending); `Equal` for peers. Within one run
/// — or one window's batch — a dictionary key holds one dictionary, so
/// every key compares as its codes.
pub(crate) fn run_cmp<'c>(
    cols: &'c [SortKeyCol],
    keys: &[PhysOrderKey],
) -> impl Fn(usize, usize) -> Ordering + 'c {
    let codes: Vec<(&[i64], bool)> = (cols.iter().zip(keys))
        .map(|(col, k)| match col {
            SortKeyCol::Ints(codes) | SortKeyCol::Dict { codes, .. } => (&codes[..], k.desc),
        })
        .collect();
    move |a, b| {
        for &(v, desc) in &codes {
            let ord = if desc {
                v[b].cmp(&v[a])
            } else {
                v[a].cmp(&v[b])
            };
            if ord.is_ne() {
                return ord;
            }
        }
        Ordering::Equal
    }
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
    let key = run_cmp(key_cols, keys);
    // Input position breaks ties, as in a stable sort.
    let cmp = |a: &u32, b: &u32| key(*a as usize, *b as usize).then(a.cmp(b));
    if let Some(k) = take_k {
        if k > 0 && k < len {
            order.select_nth_unstable_by(k - 1, cmp);
            order.truncate(k);
        }
    }
    order.sort_unstable_by(cmp);
    order
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
        let ord = cmp_keys(keys, &ra.keys, la, &rb.keys, lb);
        ord.then((ra.start + la).cmp(&(rb.start + lb))).is_lt()
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

/// Merge sort — or top-`k`, whose runs keep only their k best rows and
/// merge O(k·m): sorted runs, k-way merged under the stable `(keys…,
/// input position)` order, so the output is the first k rows of the
/// full stable sort at every run count. A staged sort has one run per
/// morsel, its keys evaluated on the workers; a sequential one is one
/// run over the whole input, its keys evaluated on the session thread,
/// as a pinned key (a session UDF, a scalar subquery, a tensor
/// parameter) requires. A selection-fed input over several runs whose
/// keys are plain column refs reads only the key columns, at its
/// survivors, and gathers the payload once, in sorted order; one run, or
/// a computed key, gathers the survivors first.
pub(crate) fn run_sort(
    input: BarrierInput<'_>,
    keys: &[PhysOrderKey],
    k: Option<usize>,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let rows = input.rows_out();
    let k = k.map(|k| k.min(rows));
    if k == Some(0) {
        // No rows to keep: nothing to split, and no key to read.
        note_barrier(rec, Staging::Sequential(Reason::SingleMorsel), &[1]);
        return Ok(input.gather(&Tensor::from_vec(vec![], &[0])));
    }
    // Key expressions are evaluated per run on worker threads, so the
    // same analysis as fused chains applies (UDFs, subqueries, tensor
    // params).
    let sort = k.map_or(Staging::MergeSort, |_| Staging::TopK);
    let staged = staging(sort, keys, Some(rows), ctx);
    let (runs, run_rows) = match staged {
        Staging::Sequential(_) => (1, rows),
        _ => (num_morsels(rows, ctx.morsel_rows), ctx.morsel_rows),
    };
    note_barrier(rec, staged, &[runs]);
    // Held until the sorted batch is assembled: a gathered input, and
    // every run's keys and permutation.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    let selected = runs > 1 && keys.iter().all(|k| stored(&input.batch, k).is_some());
    let gathered = match &input.ids {
        Some(ids) if !selected => {
            let batch = input.gather(ids);
            charges.add("sort gather", memory::batch_bytes(&batch))?;
            Some(batch)
        }
        _ => None,
    };
    let (batch, ids) = match &gathered {
        Some(batch) => (batch, None),
        None => (&input.batch, input.ids.as_ref()),
    };
    let run = |i: usize, wctx: &ExecContext| {
        let (start, end) = morsel_range(i, run_rows, rows);
        // A run holds its key codes (8 B/row/key) plus its local
        // permutation (4 B/row).
        charges.add("sort run", ((end - start) * (4 + 8 * keys.len())) as u64)?;
        let cols = run_keys(batch, ids, (start, end), keys, "ORDER BY", wctx)?;
        let order = sorted_order(&cols, keys, end - start, k);
        Ok(SortRun {
            start,
            order,
            keys: cols,
        })
    };
    // First error in run order wins — the scheduler's contract.
    let runs = match runs {
        1 => vec![run(0, ctx)?],
        n => claim_eval(n, ctx, None, run)?
            .into_iter()
            .flatten()
            .collect(),
    };
    let mut idx = merge_runs(&runs, keys, k);
    if let Some(ids) = ids {
        for p in &mut idx {
            *p = ids.at(*p as usize);
        }
    }
    let n = idx.len();
    Ok(exact::select_batch(batch, &Tensor::from_vec(idx, &[n])))
}
