//! Exact (inference-time) operator kernels over slot-indexed batches.
//!
//! A kernel library, not an executor: there is no plan walker here. All
//! name resolution, schema propagation and function lookup happened at
//! lowering time ([`crate::physical::lower`]), and the one exact walker
//! ([`crate::pipeline::execute`]) decides *when* each kernel runs — per
//! morsel (filters, projections, partial aggregation) through the
//! scheduler in [`crate::morsel`], or per barrier over materialised
//! inputs. Sorts, joins and DISTINCT are not here: each has one
//! implementation in [`crate::morsel`], whose sequential form is its
//! staged form with one run, one partition and one task. This module
//! holds what they share (key codes, join codes, the probe and the
//! join assembly) and the whole-batch kernels with no staged form
//! (scan, ANN top-k, windows, UNION ALL). [`crate::diff`] reaches them
//! only through its gate, which hands them exact batches.

use std::borrow::Cow;

use tdp_encoding::EncodedTensor;
use tdp_sql::ast::JoinKind;
use tdp_tensor::keytable::{partition_of, KeyTable};
use tdp_tensor::sort::group_rows;
use tdp_tensor::{F32Tensor, I64Tensor, Tensor};

use crate::batch::Batch;
use crate::error::ExecError;
use crate::expr::{eval_expr, resolve_limit, Value};
use crate::physical::{JoinOn, PhysAggregate, PhysProjectItem, PhysWindow, PhysWindowFunc};
use crate::udf::ExecContext;

/// Resolve a base table, checking a compile-time schema (when present)
/// against the live catalog so stale slot assignments fail loudly.
pub(crate) fn scan_table(
    table: &str,
    schema: Option<&[String]>,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let t = live_table(table, schema, ctx)?;
    Ok(Batch::from_table(&t.to_device(ctx.device)))
}

/// The catalog's table `table`, its columns checked against a
/// compile-time schema (when present) — the one staleness check of a
/// scan and an ANN leaf.
fn live_table(
    table: &str,
    schema: Option<&[String]>,
    ctx: &ExecContext,
) -> Result<std::sync::Arc<tdp_storage::Table>, ExecError> {
    let t = ctx
        .catalog
        .get(table)
        .ok_or_else(|| ExecError::UnknownTable(table.to_owned()))?;
    if let Some(expected) = schema {
        let live = t.columns();
        let matches = live.len() == expected.len()
            && live
                .iter()
                .zip(expected)
                .all(|(c, e)| c.name.eq_ignore_ascii_case(e));
        if !matches {
            return Err(ExecError::TypeMismatch(format!(
                "schema of table '{table}' changed since the query was compiled; recompile"
            )));
        }
    }
    Ok(t)
}

/// Execute an [`PhysicalPlan::AnnTopK`] leaf: top-k rows of a base table
/// by vector score against a query vector, in the exact order the
/// scan+sort plan would produce (score desc, ties by row id asc — the
/// same order [`tdp_index::top_k`] emits).
///
/// The IVF path consults the catalog's index registry at execution time
/// and silently degrades to the exact flat scan when the registered
/// entry is stale (metric mismatch or the table's row count changed
/// since build) — correctness never depends on index freshness.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ann_topk(
    table: &str,
    schema: &[String],
    column: &crate::physical::ColumnRef,
    query: &crate::physical::CompiledExpr,
    metric: tdp_index::Metric,
    n: &tdp_sql::ast::LimitCount,
    path: &crate::access::AnnPath,
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let t = live_table(table, Some(schema), ctx)?;
    let k = resolve_limit(n, ctx)?;
    let fn_name = crate::physical::metric_fn_name(metric);
    let q = crate::expr::vector_query(fn_name, query, ctx)?;

    let decode_data = || -> Result<F32Tensor, ExecError> {
        let col = t
            .column(column.name())
            .ok_or_else(|| ExecError::UnknownColumn(column.name().to_owned()))?;
        let data = col.data.decode_f32();
        if data.ndim() != 2 {
            return Err(ExecError::TypeMismatch(format!(
                "{fn_name}() needs a [n, d] embedding column; '{}' rows have shape {:?}",
                column.name(),
                &data.shape()[1..]
            )));
        }
        if data.shape()[1] != q.numel() {
            return Err(ExecError::TypeMismatch(format!(
                "{fn_name}() dimensionality mismatch: column '{}' is d={}, query is d={}",
                column.name(),
                data.shape()[1],
                q.numel()
            )));
        }
        Ok(data)
    };

    let hits = match path {
        crate::access::AnnPath::Flat => {
            tdp_index::FlatIndex::build(decode_data()?, metric).search(&q, k)
        }
        crate::access::AnnPath::Ivf { .. } => {
            match ctx.catalog.vector_index(table, column.name()) {
                Some(entry) if entry.metric == metric && entry.rows == t.rows() => {
                    entry.search(&q, k)
                }
                // Stale or vanished index: exact flat fallback — counted
                // so silently-exact ANN after a table write is observable.
                // With `ctx.ivf_rebuild_after` set, enough fallbacks on
                // one index trigger an in-place retrain instead.
                _ => {
                    ctx.access.note_ivf_stale_fallback();
                    let stale = ctx.catalog.note_stale_ann(table, column.name());
                    let rebuilt = if ctx.ivf_rebuild_after > 0 && stale >= ctx.ivf_rebuild_after {
                        rebuild_stale_ivf(table, column, metric, t.rows(), &decode_data, ctx)?
                    } else {
                        None
                    };
                    match rebuilt {
                        Some(entry) => entry.search(&q, k),
                        None => tdp_index::FlatIndex::build(decode_data()?, metric).search(&q, k),
                    }
                }
            }
        }
    };
    ctx.access.note_ann_query();

    let ids: Vec<i64> = hits.iter().map(|h| h.id as i64).collect();
    let len = ids.len();
    let sel = t.select_rows(&I64Tensor::from_vec(ids, &[len]));
    Ok(Batch::from_table(&sel.to_device(ctx.device)))
}

/// Retrain a stale IVF index over the table's current contents and
/// re-register it under its old name, with the parameters and seed it
/// was built with ([`tdp_storage::VectorIndexEntry::retrain`]). Returns
/// `None` — leaving the caller on the exact fallback — when the
/// registered entry vanished (a full-table rewrite dropped it, so its
/// parameters are gone), is not IVF, or covers a different metric than
/// the query; auto-rebuild only restores an index the user explicitly
/// built for this shape. On success the catalog's stale tally for the
/// key resets (registration clears it) and the rebuild is counted for
/// STATS / profiled runs.
fn rebuild_stale_ivf(
    table: &str,
    column: &crate::physical::ColumnRef,
    metric: tdp_index::Metric,
    rows: usize,
    decode_data: &impl Fn() -> Result<F32Tensor, ExecError>,
    ctx: &ExecContext,
) -> Result<Option<std::sync::Arc<tdp_storage::VectorIndexEntry>>, ExecError> {
    let old = ctx.catalog.vector_index(table, column.name());
    let Some(old) = old.filter(|old| old.metric == metric) else {
        return Ok(None);
    };
    let Some(fresh) = old.retrain(decode_data()?, rows) else {
        return Ok(None);
    };
    let entry = ctx.catalog.register_vector_index(fresh);
    ctx.access.note_ivf_rebuild();
    Ok(Some(entry))
}

/// Bag union of two batches with positionally-compatible schemas
/// (`UNION ALL`). Column names come from the left side, as in SQL.
pub fn union_all_batches(left: &Batch, right: &Batch) -> Result<Batch, ExecError> {
    if left.columns().len() != right.columns().len() {
        return Err(ExecError::TypeMismatch(format!(
            "UNION ALL arity mismatch: {} vs {} columns",
            left.columns().len(),
            right.columns().len()
        )));
    }
    Ok(Batch::concat(&[left.clone(), right.clone()]))
}

/// Apply a row mask to every column of a batch.
pub fn filter_batch(batch: &Batch, mask: &tdp_tensor::BoolTensor) -> Batch {
    let filter = |(name, col): &(String, EncodedTensor)| (name.clone(), col.filter_rows(mask));
    batch.columns().iter().map(filter).collect()
}

/// Gather rows of every column of a batch.
pub fn select_batch(batch: &Batch, idx: &I64Tensor) -> Batch {
    let select = |(name, col): &(String, EncodedTensor)| (name.clone(), col.select_rows(idx));
    batch.columns().iter().map(select).collect()
}

pub fn project_batch(
    batch: &Batch,
    items: &[PhysProjectItem],
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let n = batch.rows();
    let mut out = Batch::new();
    for item in items {
        let col = match eval_expr(&item.expr, batch, ctx)? {
            Value::Column(c) => c,
            Value::Num(v) => EncodedTensor::F32(Tensor::full(&[n], v as f32)),
            Value::Bool(b) => EncodedTensor::Bool(Tensor::full(&[n], b)),
            Value::Str(s) => EncodedTensor::from_strings(&vec![s; n]),
        };
        out.push(item.name.clone(), col);
    }
    Ok(out)
}

/// Order-preserving map from f32 to i64 (total order including sign).
fn f32_order_key(v: f32) -> i64 {
    let b = v.to_bits();
    let u = if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    };
    u as i64
}

/// The rows of a column a codes read covers.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'r> {
    /// Every row.
    All,
    /// The rows `start..end`.
    Window(usize, usize),
    /// The ascending survivor rows listed.
    At(&'r I64Tensor),
}

/// A key column's integer grouping codes at `rows` — the one place a key
/// column becomes codes, for GROUP BY's fold and combine,
/// COUNT(DISTINCT), DISTINCT, joins, sort keys and window partitions. A
/// plain `i64` or dictionary column read at every row or over a window
/// is borrowed; at survivor rows it is gathered by index, as are bool
/// and f32 columns; every other read is decoded — at survivors through
/// the positional read ([`EncodedTensor::select_rows`]: compressed
/// layouts are read at the survivors, never decoded whole).
pub(crate) fn key_codes<'c>(
    col: &'c EncodedTensor,
    rows: Rows<'_>,
) -> Result<Cow<'c, [i64]>, ExecError> {
    fn gather<T: Copy>(d: &[T], at: &I64Tensor, f: impl Fn(T) -> i64) -> Cow<'static, [i64]> {
        Cow::Owned(at.data().iter().map(|&r| f(d[r as usize])).collect())
    }
    Ok(match (col, rows) {
        (EncodedTensor::I64(t) | EncodedTensor::Dict { codes: t, .. }, rows) => match rows {
            Rows::All => Cow::Borrowed(t.data()),
            Rows::Window(start, end) => Cow::Borrowed(&t.data()[start..end]),
            Rows::At(at) => gather(t.data(), at, |v| v),
        },
        (EncodedTensor::Bool(t), Rows::At(at)) => gather(t.data(), at, i64::from),
        // Multi-dimensional payloads go through `decode_codes`' shape
        // guard (a gather preserves dimensionality).
        (EncodedTensor::F32(t), Rows::At(at)) if t.ndim() == 1 => {
            gather(t.data(), at, f32_order_key)
        }
        (_, Rows::At(at)) => Cow::Owned(decode_codes(&col.select_rows(at))?),
        (_, Rows::Window(start, end)) => Cow::Owned(decode_codes(&col.slice_rows(start, end))?),
        (_, Rows::All) => Cow::Owned(decode_codes(col)?),
    })
}

/// Every row's grouping code, chosen by encoding: a dictionary's codes, a
/// bool's 0/1, an f32's order-preserving bits, every integer layout's
/// values, a probability column's argmax class.
fn decode_codes(col: &EncodedTensor) -> Result<Vec<i64>, ExecError> {
    Ok(match col {
        EncodedTensor::I64(t) | EncodedTensor::Dict { codes: t, .. } => t.to_vec(),
        EncodedTensor::Bool(t) => t.data().iter().map(|&b| b.into()).collect(),
        EncodedTensor::Rle(r) => r.decode().to_vec(),
        EncodedTensor::Pe(p) => p.decode_ids().to_vec(),
        EncodedTensor::BitPacked(b) => b.decode().to_vec(),
        EncodedTensor::Delta(d) => d.decode().to_vec(),
        EncodedTensor::F32(t) => {
            if t.ndim() != 1 {
                return Err(ExecError::TypeMismatch(
                    "cannot group by a multi-dimensional payload column".into(),
                ));
            }
            t.data().iter().map(|&v| f32_order_key(v)).collect()
        }
    })
}

/// Resolve compiled join keys into `(left, right)` exact key columns.
pub(crate) fn resolve_join_keys<'a>(
    on: &JoinOn,
    left: &'a Batch,
    right: &'a Batch,
) -> Result<(Vec<&'a EncodedTensor>, Vec<&'a EncodedTensor>), ExecError> {
    match on {
        JoinOn::Resolved(pairs) => {
            let mut l = Vec::with_capacity(pairs.len());
            let mut r = Vec::with_capacity(pairs.len());
            for (lk, rk) in pairs {
                l.push(lk.resolve(left)?);
                r.push(rk.resolve(right)?);
            }
            Ok((l, r))
        }
        JoinOn::Deferred(pairs) => {
            // Input schema was unknown at compile time: probe which side
            // carries which column, per run.
            let mut l = Vec::with_capacity(pairs.len());
            let mut r = Vec::with_capacity(pairs.len());
            for (a, b) in pairs {
                if left.column(a).is_ok() && right.column(b).is_ok() {
                    l.push(left.column(a)?);
                    r.push(right.column(b)?);
                } else if left.column(b).is_ok() && right.column(a).is_ok() {
                    l.push(left.column(b)?);
                    r.push(right.column(a)?);
                } else {
                    return Err(ExecError::UnknownColumn(format!("{a} / {b} in join")));
                }
            }
            Ok((l, r))
        }
    }
}

/// Row key used for hash joins between *mixed-class* key pairs: exact
/// per-encoding string renderings (the historical textual join
/// semantics). Same-class pairs compare grouping codes instead.
fn join_key(col: &EncodedTensor, row: usize) -> String {
    match col {
        EncodedTensor::Dict { codes, dict } => dict.decode_one(codes.at(row)).to_owned(),
        EncodedTensor::I64(t) => t.at(row).to_string(),
        EncodedTensor::Bool(t) => t.at(row).to_string(),
        EncodedTensor::F32(t) => f32_order_key(t.at(row)).to_string(),
        EncodedTensor::Rle(r) => r.get(row).to_string(),
        EncodedTensor::Pe(p) => p.decode_ids().at(row).to_string(),
        EncodedTensor::BitPacked(b) => b.get(row).to_string(),
        // Delta columns have sequential access; joins decode them once per
        // row, which only matters for pathological join keys.
        EncodedTensor::Delta(d) => d.get(row).to_string(),
    }
}

/// Encoding class of a join key column: two columns produce directly
/// comparable integer codes iff they share a class (dictionaries once
/// their codes are mapped into one dictionary's space).
fn key_class(col: &EncodedTensor) -> u8 {
    match col {
        EncodedTensor::Dict { .. } => 0,
        EncodedTensor::Bool(_) => 1,
        EncodedTensor::I64(_)
        | EncodedTensor::Rle(_)
        | EncodedTensor::BitPacked(_)
        | EncodedTensor::Delta(_) => 2,
        EncodedTensor::F32(_) => 3,
        EncodedTensor::Pe(_) => 4,
    }
}

/// Column-major key codes of one join side or DISTINCT input:
/// `[key][row]`, each column borrowed where it is stored.
pub(crate) type KeyCodes<'c> = Vec<Cow<'c, [i64]>>;

/// One join input: a dense batch whose position *is* its row id, or —
/// with the ascending survivor row ids — a selection over a full-width
/// batch whose columns are as stored.
pub(crate) type JoinInput<'a> = (&'a Batch, Option<&'a I64Tensor>);

/// A join's key codes: per key pair, two code columns in one **shared**
/// code space, so rows match iff their codes are equal. Either side may
/// be restricted to an ascending survivor row list and is read at
/// survivor width; the class decision is taken on the full-width
/// columns, which is safe because rows read out of a column stay in its
/// key class (plain `i64` shares the integer-compressed layouts').
///
/// * Same class: each side's grouping codes ([`key_codes`]).
/// * Dictionary × dictionary: strings decide. The right dictionary's
///   *entries* are looked up in the left's once — O(|dict|) string
///   work, none per row — and entries the left lacks get codes past its
///   end; a shared dictionary passes through.
/// * Mixed classes (a string column against an integer, say) keep the
///   historical textual equality: both sides' [`join_key`] renderings
///   are interned into one id space.
///
/// The right side's codes are read whole, since the build needs every
/// one. The left side's are read per probe range ([`JoinCodes::left_at`]),
/// so each probe task reads its own — except a mixed-class pair's, which
/// share the one interning pass with the right's.
pub(crate) struct JoinCodes<'a> {
    pub(crate) right: KeyCodes<'a>,
    left: Vec<LeftKey<'a>>,
}

/// Where one key pair's left codes come from.
enum LeftKey<'a> {
    /// A same-class pair: the left column's own grouping codes.
    Own(&'a EncodedTensor),
    /// A mixed-class pair: interned with the right's, at survivor width.
    Interned(Vec<i64>),
}

/// Resolve `on` over both inputs and read the right side's codes, and
/// each mixed-class pair's left codes with them.
pub(crate) fn join_codes<'a>(
    on: &JoinOn,
    (left, lrows): JoinInput<'a>,
    (right, rrows): JoinInput<'a>,
) -> Result<JoinCodes<'a>, ExecError> {
    let (lcols, rcols) = resolve_join_keys(on, left, right)?;
    let mut codes = JoinCodes {
        right: Vec::with_capacity(rcols.len()),
        left: Vec::with_capacity(lcols.len()),
    };
    for (l, r) in lcols.into_iter().zip(rcols) {
        if key_class(l) != key_class(r) {
            let (lcodes, rcodes) = intern_pair(l, lrows, r, rrows);
            codes.left.push(LeftKey::Interned(lcodes));
            codes.right.push(Cow::Owned(rcodes));
        } else {
            codes.left.push(LeftKey::Own(l));
            codes.right.push(right_codes(l, r, rrows)?);
        }
    }
    Ok(codes)
}

impl JoinCodes<'_> {
    /// The left codes of probe positions `range` (survivor positions
    /// when `lrows` lists the survivors), one column per key pair.
    pub(crate) fn left_at(
        &self,
        lrows: Option<&I64Tensor>,
        range: std::ops::Range<usize>,
    ) -> Result<Vec<Cow<'_, [i64]>>, ExecError> {
        let (start, end) = (range.start, range.end);
        self.left
            .iter()
            .map(|key| match key {
                LeftKey::Interned(codes) => Ok(Cow::Borrowed(&codes[range.clone()])),
                LeftKey::Own(col) => match lrows {
                    Some(ids) => key_codes(col, Rows::At(&ids.slice_rows(start, end))),
                    None => key_codes(col, Rows::Window(start, end)),
                },
            })
            .collect()
    }
}

/// A mixed-class pair's codes: both sides' [`join_key`] renderings
/// interned into one id space, left first.
fn intern_pair(
    left: &EncodedTensor,
    lrows: Option<&I64Tensor>,
    right: &EncodedTensor,
    rrows: Option<&I64Tensor>,
) -> (Vec<i64>, Vec<i64>) {
    let mut ids: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
    let mut intern = |col: &EncodedTensor, rows: Option<&I64Tensor>| -> Vec<i64> {
        // Both reads hand sequential-access layouts over as plain
        // i64, so the per-row rendering stays O(1); PE columns decode
        // to their class *ids* — what `join_key` renders.
        let read = match rows {
            Some(rows) => col.select_rows(rows),
            None => col.slice_rows(0, col.rows()),
        };
        let norm = match read {
            EncodedTensor::Pe(p) => EncodedTensor::I64(p.decode_ids()),
            other => other,
        };
        (0..norm.rows())
            .map(|r| {
                let fresh = ids.len() as i64;
                *ids.entry(join_key(&norm, r)).or_insert(fresh)
            })
            .collect()
    };
    (intern(left, lrows), intern(right, rrows))
}

/// A same-class pair's right codes, in the left's code space: its own
/// grouping codes at `rrows` — borrowed where they are stored — or, for
/// a second dictionary, owned and mapped into the left's.
fn right_codes<'a>(
    left: &EncodedTensor,
    right: &'a EncodedTensor,
    rrows: Option<&I64Tensor>,
) -> Result<Cow<'a, [i64]>, ExecError> {
    let mut rcodes = key_codes(right, rrows.map_or(Rows::All, Rows::At))?;
    if let (EncodedTensor::Dict { dict: ld, .. }, EncodedTensor::Dict { dict: rd, .. }) =
        (left, right)
    {
        if !std::sync::Arc::ptr_eq(ld, rd) {
            // Both dictionaries are sorted: one merge walk.
            let (lv, rv) = (ld.values(), rd.values());
            let mut shared = Vec::with_capacity(rv.len());
            let mut l = 0;
            for (r, s) in rv.iter().enumerate() {
                while l < lv.len() && lv[l] < *s {
                    l += 1;
                }
                let found = l < lv.len() && lv[l] == *s;
                shared.push(if found { l } else { lv.len() + r } as i64);
            }
            for c in rcodes.to_mut() {
                *c = shared[*c as usize];
            }
        }
    }
    Ok(rcodes)
}

/// Borrowed `[key][row]` view of code columns, as the hash and the
/// table take them.
pub(crate) fn code_refs<C: AsRef<[i64]>>(codes: &[C]) -> Vec<&[i64]> {
    codes.iter().map(AsRef::as_ref).collect()
}

/// What a probe emits: matched `(left, right)` row-id pairs in output
/// order, and the left rows a LEFT join has to pad.
#[derive(Default)]
pub(crate) struct JoinPairs {
    pub(crate) left: Vec<i64>,
    pub(crate) right: Vec<i64>,
    pub(crate) unmatched: Vec<i64>,
}

impl JoinPairs {
    pub(crate) fn bytes(&self) -> u64 {
        ((self.left.len() + self.right.len() + self.unmatched.len()) * 8) as u64
    }
}

/// Probe the left positions `range` against the build side's
/// per-partition tables (`tables.len()` is the exchange's partition
/// count; one table = no exchange, or a direct-index table). `keys` hold
/// the range's own codes, position `range.start` first, each row located
/// by the tables' arm ([`KeyTable::locate`]: its hash, or its direct
/// slot); `lids` / `rids` translate positions to the row ids emitted
/// (`None` = a dense side whose position *is* its row id). Each left
/// row's matches come out in ascending build order — against a
/// [`KeyTable::unique`] table, its one match, read from one slot.
pub(crate) fn probe_rows(
    tables: &[KeyTable<'_>],
    keys: &[&[i64]],
    range: std::ops::Range<usize>,
    kind: JoinKind,
    lids: Option<&[i64]>,
    rids: Option<&[i64]>,
) -> JoinPairs {
    let gid = |ids: Option<&[i64]>, pos: usize| ids.map_or(pos as i64, |v| v[pos]);
    // Sized for one match per probe row (a foreign-key join): growing
    // the pair lists from empty re-copies them at every doubling.
    let mut out = JoinPairs {
        left: Vec::with_capacity(range.len()),
        right: Vec::with_capacity(range.len()),
        unmatched: Vec::new(),
    };
    let located = tables[0].locate(keys, range.len());
    if let [table] = tables {
        if table.unique() {
            for (pos, &at) in range.zip(&located) {
                match table.row_of(at) {
                    Some(m) => {
                        out.left.push(gid(lids, pos));
                        out.right.push(gid(rids, m as usize));
                    }
                    None if kind == JoinKind::Left => out.unmatched.push(gid(lids, pos)),
                    None => {}
                }
            }
            return out;
        }
    }
    let first = range.start;
    for pos in range {
        let (row, at) = (pos - first, located[pos - first]);
        let before = out.left.len();
        for m in tables[partition_of(at, tables.len())].matches(keys, row, at) {
            out.left.push(gid(lids, pos));
            out.right.push(gid(rids, m as usize));
        }
        if kind == JoinKind::Left && out.left.len() == before {
            out.unmatched.push(gid(lids, pos));
        }
    }
    out
}

/// Assemble the join output from the probe's row-id pairs — the same
/// pairs at every partition and task count. Every output column is one gather task claimed off
/// the scheduler (slot order preserved), read at the matched row ids
/// through [`EncodedTensor::select_rows`] — pad rows of a LEFT join
/// included, on a dense side as on a selection-fed one — so an
/// integer-compressed source comes out as plain `I64`.
pub(crate) fn join_assemble(
    left: &Batch,
    (right, rids): JoinInput<'_>,
    kind: JoinKind,
    pairs: JoinPairs,
    threads: usize,
) -> Result<Batch, ExecError> {
    let matched = pairs.left.len();
    let li = Tensor::from_vec(pairs.left, &[matched]);
    let ri = Tensor::from_vec(pairs.right, &[matched]);
    let sources: Vec<(&EncodedTensor, &I64Tensor)> = left
        .columns()
        .iter()
        .map(|(_, c)| (c, &li))
        .chain(right.columns().iter().map(|(_, c)| (c, &ri)))
        .collect();
    let gathered = crate::morsel::claim(sources.len(), threads, |c| {
        let (col, idx) = &sources[c];
        Ok(col.select_rows(idx))
    })?;

    // Right columns are renamed on collision (mirrored by the
    // compile-time schema propagation in `physical::lower`).
    let names = left.columns().iter().chain(right.columns()).map(|(n, _)| n);
    let mut out = Batch::new();
    for (name, col) in names.zip(gathered) {
        let out_name = if out.column(name).is_ok() {
            format!("right_{name}")
        } else {
            name.clone()
        };
        out.push(out_name, col);
    }

    if kind == JoinKind::Left && !pairs.unmatched.is_empty() {
        let un = pairs.unmatched.len();
        let pad = select_batch(left, &Tensor::from_vec(pairs.unmatched, &[un]));
        return Ok(Batch::concat(&[out, pad_right(&pad, (right, rids), un)]));
    }
    Ok(out)
}

/// `n` rows of a layout's zero value (`0` / `false` / `""` / the first
/// class) — the pad for a right side that has no first row to repeat.
fn zero_rows(col: &EncodedTensor, n: usize) -> EncodedTensor {
    match col {
        EncodedTensor::Bool(_) => EncodedTensor::Bool(Tensor::full(&[n], false)),
        EncodedTensor::Dict { .. } => EncodedTensor::from_strings(&vec![""; n]),
        EncodedTensor::Pe(p) => EncodedTensor::Pe(tdp_encoding::PeTensor::from_class_ids(
            &Tensor::full(&[n], 0),
            p.class_values().clone(),
        )),
        _ => EncodedTensor::I64(Tensor::full(&[n], 0)),
    }
}

/// `left_pad` extended by `n` pad rows for every right column. The pad
/// columns keep the right side's names: [`Batch::concat`] names its
/// output after its first part, the matched rows, which carry the
/// renamed ones.
/// Documented limitation: without NULLs, unmatched left rows pad
/// right-side numeric columns with NaN and other encodings with the
/// value of the right side's first row (their zero value when it has
/// none); prefer INNER JOIN unless pads are acceptable. A selection-fed
/// right side's first row is its first survivor, not row 0 of the
/// full-width batch.
fn pad_right(left_pad: &Batch, (right, rids): JoinInput<'_>, n: usize) -> Batch {
    let first = match rids {
        Some(ids) => ids.data().first().copied(),
        None => (right.rows() > 0).then_some(0),
    };
    let mut out = left_pad.clone();
    for (name, col) in right.columns() {
        let padded = match col {
            EncodedTensor::F32(t) => {
                let mut shape = t.shape().to_vec();
                shape[0] = n;
                EncodedTensor::F32(Tensor::full(&shape, f32::NAN))
            }
            other => match first {
                Some(row) => other.select_rows(&Tensor::from_vec(vec![row; n], &[n])),
                None => zero_rows(other, n),
            },
        };
        out.push(name.clone(), padded);
    }
    out
}

/// Evaluate window expressions, appending one output column per window
/// while preserving the input columns and row order.
///
/// Semantics (the common SQL defaults): rows are grouped by the PARTITION
/// BY keys; within a partition the ORDER BY keys define the window order
/// (ties = peers). One sort orders the rows by (partition, ORDER BY
/// grouping codes as the sort barrier reads them, input position), and
/// each (partition, peer group) is one group. Ranking functions read the
/// sort: ROW_NUMBER the row's position in its partition, RANK its peer
/// group's start, DENSE_RANK its peer group's index. An aggregate is
/// GROUP BY's fold of the peer groups (`morsel::window_aggregate`):
/// without ORDER BY, the GROUP BY fold of the row's partition; with
/// ORDER BY, the ordered combine of the peer-group folds up to and
/// including the row's peer group (`RANGE UNBOUNDED PRECEDING`, SQL's
/// default frame). COUNT(DISTINCT) counts distinct grouping codes.
pub fn window_batch(
    batch: &Batch,
    windows: &[PhysWindow],
    ctx: &ExecContext,
) -> Result<Batch, ExecError> {
    let n = batch.rows();
    let mut out = batch.clone();
    for w in windows {
        let part_ids: Vec<u32> = if w.partition_by.is_empty() {
            vec![0; n]
        } else {
            let cols: Vec<EncodedTensor> = w
                .partition_by
                .iter()
                .map(|e| match eval_expr(e, batch, ctx)? {
                    Value::Column(c) => Ok(c),
                    other => Err(ExecError::TypeMismatch(format!(
                        "PARTITION BY expression must be a column, got {other:?}"
                    ))),
                })
                .collect::<Result<_, _>>()?;
            let codes: Vec<Cow<[i64]>> = (cols.iter())
                .map(|c| key_codes(c, Rows::All))
                .collect::<Result<_, _>>()?;
            group_rows(&code_refs(&codes), None).ids
        };
        let keys = &w.order_by;
        let order = crate::morsel::run_keys(batch, None, (0, n), keys, "window ORDER BY", ctx)?;
        let peer = crate::morsel::run_cmp(&order, keys);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            (part_ids[a].cmp(&part_ids[b]))
                .then(peer(a, b))
                .then(a.cmp(&b))
        });

        // Peer groups in window order, and each row's rank numbers.
        let (mut peers, mut opens) = (vec![0u32; n], Vec::new());
        let mut ranks = vec![0i64; n];
        let (mut part_start, mut peer_start, mut first_peer) = (0, 0, 0);
        for (pos, &r) in idx.iter().enumerate() {
            let new_part = pos == 0 || part_ids[idx[pos - 1]] != part_ids[r];
            if new_part {
                (part_start, first_peer) = (pos, opens.len());
            }
            if new_part || peer(idx[pos - 1], r).is_ne() {
                peer_start = pos;
                opens.push(new_part);
            }
            let peer = opens.len() - 1;
            peers[r] = peer as u32;
            ranks[r] = 1 + match w.func {
                PhysWindowFunc::RowNumber => pos - part_start,
                PhysWindowFunc::Rank => peer_start - part_start,
                _ => peer - first_peer,
            } as i64;
        }

        let col = match &w.func {
            PhysWindowFunc::Agg { func, arg } => {
                let agg = PhysAggregate {
                    func: *func,
                    arg: arg.clone(),
                    output: w.output.clone(),
                };
                crate::morsel::window_aggregate(batch, &agg, &peers, &opens, ctx)?
            }
            _ => EncodedTensor::I64(Tensor::from_vec(ranks, &[n])),
        };
        out.push(w.output.clone(), col);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{lower, PhysicalPlan};
    use crate::pipeline::execute;
    use crate::udf::UdfRegistry;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::{Catalog, TableBuilder};

    fn setup() -> Catalog {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("price", vec![3.0, 1.0, 2.0, 5.0, 4.0])
                .col_str("item", &["b", "a", "a", "c", "b"])
                .col_i64("qty", vec![10, 20, 30, 40, 50])
                .build("orders"),
        );
        catalog.register(
            TableBuilder::new()
                .col_str("item", &["a", "b", "c"])
                .col_f32("weight", vec![0.5, 1.5, 2.5])
                .build("items"),
        );
        catalog
    }

    fn compile(catalog: &Catalog, udfs: &UdfRegistry, sql: &str) -> PhysicalPlan {
        let q = parse(sql).unwrap();
        let plan = optimizer::optimize(
            build_plan(
                &q,
                &PlannerContext {
                    is_tvf: &|n| udfs.is_table_fn(n),
                },
            )
            .unwrap(),
        );
        lower(&plan, catalog, udfs).unwrap()
    }

    fn run(catalog: &Catalog, sql: &str) -> Batch {
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(catalog, &udfs);
        let plan = compile(catalog, &udfs, sql);
        execute(&plan, &ctx).unwrap()
    }

    fn f32_col(b: &Batch, name: &str) -> Vec<f32> {
        b.column(name).unwrap().decode_f32().to_vec()
    }

    #[test]
    fn scan_and_filter() {
        let c = setup();
        let b = run(&c, "SELECT * FROM orders WHERE price > 2.5");
        assert_eq!(b.rows(), 3);
        assert_eq!(f32_col(&b, "price"), vec![3.0, 5.0, 4.0]);
    }

    #[test]
    fn string_filter_on_dictionary() {
        let c = setup();
        let b = run(&c, "SELECT qty FROM orders WHERE item = 'a'");
        assert_eq!(f32_col(&b, "qty"), vec![20.0, 30.0]);
    }

    #[test]
    fn projection_expressions_and_aliases() {
        let c = setup();
        let b = run(
            &c,
            "SELECT price * qty AS total FROM orders WHERE qty <= 20",
        );
        assert_eq!(b.names(), vec!["total"]);
        assert_eq!(f32_col(&b, "total"), vec![30.0, 20.0]);
    }

    #[test]
    fn group_by_count_matches_hand_count() {
        let c = setup();
        let b = run(&c, "SELECT item, COUNT(*) FROM orders GROUP BY item");
        // Groups in lexicographic order: a=2, b=2, c=1.
        assert_eq!(
            b.column("item").unwrap().decode_strings(),
            vec!["a", "b", "c"]
        );
        assert_eq!(
            b.column("COUNT(*)").unwrap().decode_i64().to_vec(),
            vec![2, 2, 1]
        );
    }

    #[test]
    fn grouped_sum_avg_min_max() {
        let c = setup();
        let b = run(
            &c,
            "SELECT item, SUM(price), AVG(qty), MIN(price), MAX(price) FROM orders GROUP BY item",
        );
        assert_eq!(f32_col(&b, "SUM(price)"), vec![3.0, 7.0, 5.0]);
        assert_eq!(f32_col(&b, "AVG(qty)"), vec![25.0, 30.0, 40.0]);
        assert_eq!(f32_col(&b, "MIN(price)"), vec![1.0, 3.0, 5.0]);
        assert_eq!(f32_col(&b, "MAX(price)"), vec![2.0, 4.0, 5.0]);
    }

    #[test]
    fn global_aggregate_single_row() {
        let c = setup();
        let b = run(&c, "SELECT COUNT(*), SUM(qty), AVG(price) FROM orders");
        assert_eq!(b.rows(), 1);
        assert_eq!(b.column("COUNT(*)").unwrap().decode_i64().to_vec(), vec![5]);
        assert_eq!(f32_col(&b, "SUM(qty)"), vec![150.0]);
        assert_eq!(f32_col(&b, "AVG(price)"), vec![3.0]);
    }

    #[test]
    fn having_filters_groups() {
        let c = setup();
        let b = run(
            &c,
            "SELECT item, COUNT(*) FROM orders GROUP BY item HAVING COUNT(*) > 1",
        );
        assert_eq!(b.rows(), 2);
        assert_eq!(b.column("item").unwrap().decode_strings(), vec!["a", "b"]);
    }

    #[test]
    fn order_by_asc_desc_and_strings() {
        let c = setup();
        let b = run(&c, "SELECT price FROM orders ORDER BY price DESC");
        assert_eq!(f32_col(&b, "price"), vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        let b2 = run(
            &c,
            "SELECT item, price FROM orders ORDER BY item ASC, price DESC",
        );
        assert_eq!(
            b2.column("item").unwrap().decode_strings(),
            vec!["a", "a", "b", "b", "c"]
        );
        assert_eq!(f32_col(&b2, "price"), vec![2.0, 1.0, 4.0, 3.0, 5.0]);
    }

    #[test]
    fn order_by_negative_floats() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("v", vec![0.5, -1.5, -0.25, 2.0, 0.0])
                .build("t"),
        );
        let b = run(&catalog, "SELECT v FROM t ORDER BY v");
        assert_eq!(f32_col(&b, "v"), vec![-1.5, -0.25, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn limit_and_topk() {
        let c = setup();
        let b = run(
            &c,
            "SELECT item, price FROM orders ORDER BY price DESC LIMIT 2",
        );
        assert_eq!(b.rows(), 2);
        assert_eq!(f32_col(&b, "price"), vec![5.0, 4.0]);
        let empty = run(&c, "SELECT * FROM orders LIMIT 0");
        assert_eq!(empty.rows(), 0);
        // Plain LIMIT without a sort slices the scan prefix.
        let head = run(&c, "SELECT price FROM orders LIMIT 3");
        assert_eq!(f32_col(&head, "price"), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn inner_join_matches_pairs() {
        let c = setup();
        let b = run(
            &c,
            "SELECT item, price, weight FROM orders JOIN items ON orders.item = items.item ORDER BY price",
        );
        assert_eq!(b.rows(), 5);
        // price 1.0 & 2.0 are item 'a' (weight .5); 3,4 'b'(1.5); 5 'c'(2.5)
        assert_eq!(f32_col(&b, "weight"), vec![0.5, 0.5, 1.5, 1.5, 2.5]);
    }

    #[test]
    fn join_then_aggregate() {
        let c = setup();
        let b = run(
            &c,
            "SELECT item, SUM(weight * qty) AS load FROM orders JOIN items ON orders.item = items.item GROUP BY item",
        );
        assert_eq!(f32_col(&b, "load"), vec![25.0, 90.0, 100.0]);
    }

    #[test]
    fn subquery_pipeline() {
        let c = setup();
        let b = run(
            &c,
            "SELECT AVG(total) FROM (SELECT price * qty AS total FROM orders WHERE item = 'a')",
        );
        assert_eq!(f32_col(&b, "AVG(total)"), vec![40.0]);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let c = setup();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&c, &udfs);
        // Unknown table: compiles to a schema-less scan, fails at run time
        // (preserving the register-after-compile workflow).
        let q = parse("SELECT * FROM missing").unwrap();
        let plan = build_plan(&q, &PlannerContext::default()).unwrap();
        let phys = lower(&plan, &c, &udfs).unwrap();
        assert!(matches!(
            execute(&phys, &ctx),
            Err(ExecError::UnknownTable(_))
        ));
        // Unknown column over a known table: caught at compile time.
        let q2 = parse("SELECT nope FROM orders").unwrap();
        let plan2 = build_plan(&q2, &PlannerContext::default()).unwrap();
        assert!(matches!(
            lower(&plan2, &c, &udfs),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn stale_schema_detected_at_run_time() {
        let c = setup();
        let udfs = UdfRegistry::new();
        let plan = compile(&c, &udfs, "SELECT price FROM orders");
        // Re-register 'orders' with a different shape: slots are stale.
        c.register(
            TableBuilder::new()
                .col_f32("other", vec![1.0])
                .build("orders"),
        );
        let ctx = ExecContext::new(&c, &udfs);
        match execute(&plan, &ctx) {
            Err(ExecError::TypeMismatch(msg)) => assert!(msg.contains("recompile"), "{msg}"),
            other => panic!("expected stale-schema error, got {other:?}"),
        }
    }

    #[test]
    fn count_of_boolean_expression() {
        let c = setup();
        let b = run(
            &c,
            "SELECT item, COUNT(price > 1.5) FROM orders GROUP BY item",
        );
        assert_eq!(
            b.column("COUNT((price > 1.5))")
                .unwrap()
                .decode_i64()
                .to_vec(),
            vec![1, 2, 1]
        );
    }

    #[test]
    fn select_distinct_dedupes_preserving_order() {
        let c = setup();
        let b = run(&c, "SELECT DISTINCT item FROM orders");
        assert_eq!(
            b.column("item").unwrap().decode_strings(),
            vec!["b", "a", "c"] // first-occurrence order
        );
        let b2 = run(&c, "SELECT DISTINCT item, price FROM orders");
        assert_eq!(b2.rows(), 5, "no duplicate (item, price) pairs here");
    }

    #[test]
    fn union_all_concatenates() {
        let c = setup();
        let b = run(
            &c,
            "SELECT price FROM orders WHERE price > 4 UNION ALL SELECT price FROM orders WHERE price < 2",
        );
        assert_eq!(f32_col(&b, "price"), vec![5.0, 1.0]);
        // Arity mismatch is now a compile-time error.
        let udfs = UdfRegistry::new();
        let q = parse("SELECT price FROM orders UNION ALL SELECT price, qty FROM orders").unwrap();
        let plan = build_plan(&q, &PlannerContext::default()).unwrap();
        assert!(matches!(
            lower(&plan, &c, &udfs),
            Err(ExecError::TypeMismatch(_))
        ));
    }

    #[test]
    fn in_list_and_like_filters() {
        let c = setup();
        let b = run(&c, "SELECT qty FROM orders WHERE item IN ('a', 'c')");
        assert_eq!(f32_col(&b, "qty"), vec![20.0, 30.0, 40.0]);
        let b2 = run(&c, "SELECT qty FROM orders WHERE item NOT IN ('a', 'c')");
        assert_eq!(f32_col(&b2, "qty"), vec![10.0, 50.0]);
        let b3 = run(&c, "SELECT qty FROM orders WHERE price IN (1, 5)");
        assert_eq!(f32_col(&b3, "qty"), vec![20.0, 40.0]);
    }

    #[test]
    fn like_patterns_on_dictionary() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_str("name", &["receipt_jan", "receipt_feb", "logo", "photo_cat"])
                .col_i64("id", vec![1, 2, 3, 4])
                .build("files"),
        );
        let b = run(&catalog, "SELECT id FROM files WHERE name LIKE 'receipt%'");
        assert_eq!(f32_col(&b, "id"), vec![1.0, 2.0]);
        let b2 = run(&catalog, "SELECT id FROM files WHERE name LIKE '%cat'");
        assert_eq!(f32_col(&b2, "id"), vec![4.0]);
        let b3 = run(&catalog, "SELECT id FROM files WHERE name LIKE 'l_go'");
        assert_eq!(f32_col(&b3, "id"), vec![3.0]);
        let b4 = run(&catalog, "SELECT id FROM files WHERE name NOT LIKE '%o%'");
        assert_eq!(f32_col(&b4, "id"), vec![1.0, 2.0]);
    }

    #[test]
    fn case_expression_projection() {
        let c = setup();
        let b = run(
            &c,
            "SELECT CASE WHEN price > 3 THEN 1 ELSE 0 END AS expensive FROM orders ORDER BY price",
        );
        assert_eq!(f32_col(&b, "expensive"), vec![0.0, 0.0, 0.0, 1.0, 1.0]);
        // Operand form with strings; first matching WHEN wins.
        let b2 = run(
            &c,
            "SELECT CASE item WHEN 'a' THEN 10 WHEN 'b' THEN 20 END AS code FROM orders ORDER BY qty",
        );
        assert_eq!(f32_col(&b2, "code"), vec![20.0, 10.0, 10.0, 0.0, 20.0]);
    }

    #[test]
    fn count_distinct_variance_stddev() {
        let c = setup();
        let b = run(
            &c,
            "SELECT COUNT(DISTINCT item), VARIANCE(price), STDDEV(price) FROM orders",
        );
        assert_eq!(
            b.column("COUNT(DISTINCT item)")
                .unwrap()
                .decode_i64()
                .to_vec(),
            vec![3]
        );
        // prices 1..5: sample variance 2.5, stddev sqrt(2.5).
        let var = f32_col(&b, "VARIANCE(price)")[0];
        let sd = f32_col(&b, "STDDEV(price)")[0];
        assert!((var - 2.5).abs() < 1e-5, "{var}");
        assert!((sd - 2.5f32.sqrt()).abs() < 1e-5, "{sd}");
        // Grouped + singleton group yields 0 variance.
        let b2 = run(&c, "SELECT item, VARIANCE(price) FROM orders GROUP BY item");
        assert_eq!(f32_col(&b2, "VARIANCE(price)"), vec![0.5, 0.5, 0.0]);
        // COUNT(DISTINCT) per group.
        let b3 = run(
            &c,
            "SELECT item, COUNT(DISTINCT qty) FROM orders GROUP BY item",
        );
        assert_eq!(
            b3.column("COUNT(DISTINCT qty)")
                .unwrap()
                .decode_i64()
                .to_vec(),
            vec![2, 2, 1]
        );
    }

    #[test]
    fn builtin_scalar_functions() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("v", vec![-2.25, 0.0, 2.25])
                .build("t"),
        );
        let b = run(
            &catalog,
            "SELECT ABS(v) AS a, ROUND(v) AS r, FLOOR(v) AS fl, CEIL(v) AS ce, SIGN(v) AS s FROM t",
        );
        assert_eq!(f32_col(&b, "a"), vec![2.25, 0.0, 2.25]);
        assert_eq!(f32_col(&b, "r"), vec![-2.0, 0.0, 2.0]);
        assert_eq!(f32_col(&b, "fl"), vec![-3.0, 0.0, 2.0]);
        assert_eq!(f32_col(&b, "ce"), vec![-2.0, 0.0, 3.0]);
        assert_eq!(f32_col(&b, "s"), vec![-1.0, 0.0, 1.0]);
        let b2 = run(
            &catalog,
            "SELECT POWER(v, 2) AS p, SQRT(ABS(v)) AS q FROM t",
        );
        assert_eq!(f32_col(&b2, "p"), vec![5.0625, 0.0, 5.0625]);
        assert!((f32_col(&b2, "q")[0] - 1.5).abs() < 1e-6);
        // Scalars fold: EXP(0) is a literal 1 broadcast to every row.
        let b3 = run(&catalog, "SELECT EXP(0) AS e FROM t");
        assert_eq!(f32_col(&b3, "e"), vec![1.0, 1.0, 1.0]);
        // Unknown functions error at compile time.
        let udfs = UdfRegistry::new();
        let q = parse("SELECT nope(v) FROM t").unwrap();
        let plan = build_plan(&q, &PlannerContext::default()).unwrap();
        assert!(matches!(
            lower(&plan, &catalog, &udfs),
            Err(ExecError::UnknownFunction(_))
        ));
    }

    #[test]
    fn window_row_number_and_ranks() {
        let c = setup();
        // orders: price [3,1,2,5,4], item [b,a,a,c,b], qty [10,20,30,40,50]
        let b = run(
            &c,
            "SELECT item, price, \
             ROW_NUMBER() OVER (PARTITION BY item ORDER BY price) AS rn \
             FROM orders ORDER BY item, price",
        );
        assert_eq!(
            b.column("rn").unwrap().decode_i64().to_vec(),
            vec![1, 2, 1, 2, 1] // a: 1,2 | b: 3,4 -> 1,2 | c: 1
        );
        // RANK vs DENSE_RANK with ties.
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("v", vec![10.0, 20.0, 20.0, 30.0])
                .build("t"),
        );
        let b2 = run(
            &catalog,
            "SELECT v, RANK() OVER (ORDER BY v) AS r, DENSE_RANK() OVER (ORDER BY v) AS d \
             FROM t ORDER BY v",
        );
        assert_eq!(
            b2.column("r").unwrap().decode_i64().to_vec(),
            vec![1, 2, 2, 4]
        );
        assert_eq!(
            b2.column("d").unwrap().decode_i64().to_vec(),
            vec![1, 2, 2, 3]
        );
    }

    #[test]
    fn window_running_and_partition_aggregates() {
        let c = setup();
        // Running revenue per item, ordered by qty.
        let b = run(
            &c,
            "SELECT item, qty, \
             SUM(price) OVER (PARTITION BY item ORDER BY qty) AS run_sum, \
             SUM(price) OVER (PARTITION BY item) AS total \
             FROM orders ORDER BY item, qty",
        );
        // item a: prices by qty: (20,1),(30,2) -> run 1,3; total 3
        // item b: (10,3),(50,4) -> run 3,7; total 7 ; item c: (40,5) -> 5,5
        assert_eq!(f32_col(&b, "run_sum"), vec![1.0, 3.0, 3.0, 7.0, 5.0]);
        assert_eq!(f32_col(&b, "total"), vec![3.0, 3.0, 7.0, 7.0, 5.0]);
        // Running COUNT and AVG, global window.
        let b2 = run(
            &c,
            "SELECT qty, COUNT(*) OVER (ORDER BY qty) AS n, \
             AVG(price) OVER (ORDER BY qty) AS m FROM orders ORDER BY qty",
        );
        assert_eq!(
            b2.column("n").unwrap().decode_i64().to_vec(),
            vec![1, 2, 3, 4, 5]
        );
        // prices in qty order: 3,1,2,5,4 -> running means
        let m = f32_col(&b2, "m");
        assert!((m[0] - 3.0).abs() < 1e-6);
        assert!((m[2] - 2.0).abs() < 1e-6);
        assert!((m[4] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn window_peers_share_frame_end() {
        // SQL's default RANGE frame: tied order keys see the same running
        // total (peers-inclusive).
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("k", vec![1.0, 1.0, 2.0])
                .col_f32("v", vec![10.0, 20.0, 5.0])
                .build("t"),
        );
        let b = run(
            &catalog,
            "SELECT SUM(v) OVER (ORDER BY k) AS s FROM t ORDER BY k, v",
        );
        assert_eq!(f32_col(&b, "s"), vec![30.0, 30.0, 35.0]);
    }

    #[test]
    fn window_in_expression_and_errors() {
        let c = setup();
        // Window output used inside an arithmetic expression.
        let b = run(
            &c,
            "SELECT price, price - AVG(price) OVER () AS centered FROM orders ORDER BY price",
        );
        let centered = f32_col(&b, "centered");
        assert!((centered.iter().sum::<f32>()).abs() < 1e-5);
        assert_eq!(centered[0], 1.0 - 3.0);
        // Windows in WHERE and mixed with GROUP BY are planner errors.
        assert!(parse("SELECT 1 FROM t WHERE RANK() OVER () > 1")
            .map(|q| build_plan(&q, &PlannerContext::default()))
            .unwrap()
            .is_err());
        assert!(
            parse("SELECT item, COUNT(*), RANK() OVER () FROM t GROUP BY item")
                .map(|q| build_plan(&q, &PlannerContext::default()))
                .unwrap()
                .is_err()
        );
    }

    #[test]
    fn scalar_subqueries_in_predicates_and_projections() {
        let c = setup();
        // Rows above the average price (avg = 3.0).
        let b = run(
            &c,
            "SELECT price FROM orders WHERE price > (SELECT AVG(price) FROM orders)",
        );
        assert_eq!(f32_col(&b, "price"), vec![5.0, 4.0]);
        // Scalar subquery inside a projection expression.
        let b2 = run(
            &c,
            "SELECT price - (SELECT MIN(price) FROM orders) AS above_min FROM orders ORDER BY price",
        );
        assert_eq!(f32_col(&b2, "above_min"), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        // Nested: subquery inside a subquery.
        let b3 = run(
            &c,
            "SELECT COUNT(*) FROM orders WHERE qty > (SELECT AVG(qty) FROM orders WHERE price > (SELECT MIN(price) FROM orders))",
        );
        assert_eq!(
            b3.column("COUNT(*)").unwrap().decode_i64().to_vec(),
            vec![2] // avg qty of non-min-price rows = 32.5 -> qty 40, 50
        );
        // String-valued scalar subquery compares against dict columns.
        let b4 = run(
            &c,
            "SELECT COUNT(*) FROM orders WHERE item = (SELECT item FROM orders ORDER BY price DESC LIMIT 1)",
        );
        assert_eq!(
            b4.column("COUNT(*)").unwrap().decode_i64().to_vec(),
            vec![1] // the most expensive item is 'c'
        );
        // Multi-row subqueries are rejected at run time.
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&c, &udfs);
        let q = parse("SELECT 1 FROM orders WHERE price > (SELECT price FROM orders)").unwrap();
        let plan = build_plan(&q, &PlannerContext::default()).unwrap();
        let phys = lower(&plan, &c, &udfs).unwrap();
        assert!(matches!(
            execute(&phys, &ctx),
            Err(ExecError::TypeMismatch(_))
        ));
    }

    #[test]
    fn compressed_columns_execute_identically() {
        // GROUP BY / filter / join over bit-packed and delta columns must
        // match plain-i64 execution exactly.
        let ts: Vec<i64> = (0..200).map(|i| 1_000_000 + i * 3).collect();
        let cat: Vec<i64> = (0..200).map(|i| i % 5).collect();
        let plain = TableBuilder::new()
            .col_i64("ts", ts.clone())
            .col_i64("cat", cat.clone())
            .build("log");
        let compressed = plain.compress();
        assert_ne!(
            compressed.column("cat").unwrap().data.kind(),
            tdp_encoding::EncodingKind::PlainI64,
            "expected cat to compress"
        );
        for sql in [
            "SELECT cat, COUNT(*) FROM log GROUP BY cat",
            "SELECT COUNT(*) FROM log WHERE ts > 1000300",
            "SELECT cat FROM log ORDER BY ts DESC LIMIT 7",
            "SELECT cat FROM log LIMIT 5",
            "SELECT DISTINCT cat FROM log",
            // Window partition/order keys over compressed columns.
            "SELECT ROW_NUMBER() OVER (PARTITION BY cat ORDER BY ts DESC) AS rn FROM log ORDER BY ts LIMIT 9",
        ] {
            let c1 = Catalog::new();
            c1.register(plain.clone());
            let c2 = Catalog::new();
            c2.register(compressed.clone());
            let a = run(&c1, sql);
            let b = run(&c2, sql);
            assert_eq!(a.rows(), b.rows(), "{sql}");
            for (name, col) in a.columns() {
                assert_eq!(
                    col.decode_i64().to_vec(),
                    b.column(name).unwrap().decode_i64().to_vec(),
                    "{sql} / {name}"
                );
            }
        }
    }

    #[test]
    fn group_by_float_column() {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("v", vec![1.5, -2.0, 1.5, -2.0, 1.5])
                .build("t"),
        );
        let b = run(&catalog, "SELECT v, COUNT(*) FROM t GROUP BY v");
        assert_eq!(f32_col(&b, "v"), vec![-2.0, 1.5]);
        assert_eq!(
            b.column("COUNT(*)").unwrap().decode_i64().to_vec(),
            vec![2, 3]
        );
    }
}
