//! Shared-nothing DISTINCT: rows exchange by grouping-code hash, each
//! partition dedups independently (a key lives in exactly one
//! partition), survivors re-sort to input order.

use tdp_tensor::Tensor;

use super::chain::BarrierInput;
use super::sched::{claim, exchange, note_sequential, note_staged, num_morsels, stage_decision};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::memory;
use crate::profile::Recorder;
use crate::udf::ExecContext;

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
    let diff = input.has_diff();
    let (staged, reason) =
        stage_decision(rows, diff.then(|| "differentiable-input".to_string()), ctx);
    if !(staged && ncols > 0) {
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
            let mask = s.gather_mask();
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
    let parts = exchange(rows, partitions, ctx, &|r| exact::code_hash(codes, r))?;

    // Per-partition dedup, keeping first occurrences (rows ascending).
    let survivors: Vec<Vec<i64>> = claim(partitions, ctx.threads, |p| {
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
    })?;

    let mut rep: Vec<i64> = survivors.into_iter().flatten().collect();
    rep.sort_unstable(); // first-occurrence input order, as sequential
    Ok(rep)
}
