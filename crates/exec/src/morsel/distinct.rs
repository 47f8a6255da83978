//! Staged DISTINCT over integer grouping codes. Keys [`Direct`] admits —
//! any number of columns whose spans multiply within its limit — are one
//! first-occurrence sweep over a direct-index table; any other keys
//! exchange rows by composite-code hash, each partition keeps first
//! occurrences in a flat table (a key lives in exactly one partition),
//! and survivors re-sort to input order.

use std::borrow::Cow;

use tdp_tensor::keytable::{hash_rows, Direct, Index, KeyTable};
use tdp_tensor::Tensor;

use super::chain::BarrierInput;
use super::sched::{claim, exchange, note_barrier, num_morsels, staging};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact::{self, Rows};
use crate::memory;
use crate::pipeline::DEFAULT_PARTITIONS;
use crate::profile::Recorder;
use crate::udf::ExecContext;
use crate::verdict::{Reason, Staging};

/// Byte estimate of DISTINCT's seen-set over `rows` rows, whatever the
/// key width (keys are read out of the code columns, never copied): the
/// 8-byte hash column plus the table's `u32` slots — two to four per
/// row, charged at the upper end. Linear in `rows`, so per-partition
/// charges sum to the one-set charge. A direct-index set (at most four
/// `u32` slots a row, or 64 slots, plus the row list and the rows' own
/// slots) is charged the same unless a tiny input's table needs more.
fn distinct_set_bytes(rows: usize) -> u64 {
    rows as u64 * (8 + 16)
}

/// Staged DISTINCT: grouping codes at survivor positions, then by key
/// shape either
///
/// * **direct** — keys [`Direct`] admits over the rows: one
///   insert-if-absent sweep over a table indexed by the keys' [`Direct`]
///   slot, in row order, which keeps each key's first occurrence
///   ascending as it goes; or
/// * **partitioned** — one composite hash per row ([`hash_rows`]) that
///   both the exchange and the per-partition tables use, an
///   insert-if-absent sweep per partition (a key lives in exactly one
///   partition and a partition lists its rows ascending, so the row a
///   partition keeps is the global first occurrence), then the kept
///   rows swept back into input order —
///
/// byte-identical to [`exact::distinct_batch`]'s first-occurrence
/// output either way.
pub(crate) fn run_distinct(
    input: BarrierInput<'_>,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let (rows, partitions) = (input.rows_out(), DEFAULT_PARTITIONS);
    let ncols = input.batch.columns().len();
    let staged = match staging(Staging::Partitioned(partitions), &[], Some(rows), ctx) {
        // No columns: every row is one key, nothing to split.
        _ if ncols == 0 => Staging::Sequential(Reason::SingleMorsel),
        staged => staged,
    };
    if let Staging::Sequential(_) = staged {
        note_barrier(rec, staged, &[1]);
        let input = input.into_gathered();
        // The sequential kernel holds the same key codes and one big
        // seen-set; charge the per-row estimates of the staged path so
        // enforcement is thread-count-invariant.
        let bytes = (rows * 8 * ncols) as u64 + distinct_set_bytes(rows);
        let _charge = memory::charge(&ctx.memory, "distinct", bytes)?;
        return exact::distinct_batch(&input);
    }
    // Held until the surviving rows are selected out: key codes, the
    // exchanged positions and the per-partition seen-sets. The codes are
    // survivor-width either way — a selection-fed input reads them at
    // its survivor ids (by index for plain layouts) and defers the
    // payload gather to the final representative select.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    charges.add("distinct key codes", (rows * 8 * ncols) as u64)?;
    let rows_read = input.ids.as_ref().map_or(Rows::All, Rows::At);
    let codes: exact::KeyCodes = (input.batch.columns().iter())
        .map(|(_, c)| exact::key_codes(c, rows_read))
        .collect::<Result<_, _>>()?;
    // Representatives come back as survivor positions; map them to
    // global ids (still ascending) for the one deferred gather.
    let mut rep = distinct_reps(&codes, rows, &charges, ctx, rec)?;
    if let Some(ids) = &input.ids {
        for r in &mut rep {
            *r = ids.at(*r as usize);
        }
    }
    let n = rep.len();
    Ok(input.gather(&Tensor::from_vec(rep, &[n])))
}

/// The first-occurrence row positions of `codes`, ascending — one sweep
/// over a direct-index table, or exchange + shared-nothing dedup.
/// Positions are whatever space the codes live in (dense rows or
/// selection space).
fn distinct_reps(
    codes: &[Cow<[i64]>],
    rows: usize,
    charges: &memory::ScopedCharges,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Vec<i64>, ExecError> {
    let keys = exact::code_refs(codes);
    let all: Vec<u32> = (0..rows as u32).collect();
    if let Some(direct) = Direct::of(&keys, None) {
        note_barrier(rec, Staging::DirectIndex, &[1]);
        let table = (direct.slots() + 2 * rows) as u64 * 4;
        charges.add("distinct set", distinct_set_bytes(rows).max(table))?;
        let mut seen = KeyTable::new(&keys, Index::Direct(&direct), &all);
        return Ok((0..rows)
            .filter(|&i| seen.insert_if_absent(i))
            .map(|i| i as i64)
            .collect());
    }
    let partitions = DEFAULT_PARTITIONS;
    note_barrier(
        rec,
        Staging::Partitioned(partitions),
        &[num_morsels(rows, ctx.morsel_rows)],
    );
    let hashes = hash_rows(&keys, rows);
    charges.add("distinct exchange", rows as u64 * 4)?;
    let parts = exchange(&hashes, partitions, ctx)?;

    // Per-partition dedup, keeping first occurrences (rows ascending).
    let survivors: Vec<Vec<u32>> = claim(partitions, ctx.threads, |p| {
        let part = parts.part(p);
        // Sized for the worst case: every key distinct.
        charges.add("distinct set", distinct_set_bytes(part.len()))?;
        let mut seen = KeyTable::new(&keys, Index::Hash(&hashes), part);
        Ok((0..part.len())
            .filter(|&i| seen.insert_if_absent(i))
            .map(|i| part[i])
            .collect())
    })?;

    // Back to first-occurrence input order, as sequential: flag the kept
    // positions and sweep them out ascending — no sort.
    let mut kept = vec![false; rows];
    for &r in survivors.iter().flatten() {
        kept[r as usize] = true;
    }
    Ok((0..rows as i64).filter(|&r| kept[r as usize]).collect())
}
