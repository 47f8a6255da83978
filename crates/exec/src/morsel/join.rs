//! Partitioned hash join: exchange the build side into per-partition
//! hash tables, probe morsels in parallel, reassemble in morsel order.

use tdp_sql::ast::JoinKind;

use super::chain::BarrierInput;
use super::sched::{
    claim, exchange, morsel_range, note_sequential, note_staged, num_morsels, stage_decision,
};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::memory;
use crate::physical::JoinOn;
use crate::profile::Recorder;
use crate::udf::ExecContext;

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
    // Joins carry no key expressions (keys are resolved column refs), so
    // the only capability reason is a differentiable input; either side
    // spanning more than one morsel is enough to stage.
    let diff = left.has_diff() || right.has_diff();
    let (staged, reason) = stage_decision(
        left.rows_out().max(right.rows_out()),
        diff.then(|| "differentiable-input".to_string()),
        ctx,
    );
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
    let parts = exchange(rside.rows(), partitions, ctx, &|pos| {
        exact::row_hash(&ratoms, pos)
    })?;

    // Stage 2: shared-nothing per-partition table build (ascending rows).
    let tables: Vec<exact::JoinTable> = claim(partitions, ctx.threads, |p| {
        charges.add("join build", join_build_bytes(parts[p].len()))?;
        Ok(exact::JoinTable::build(&ratoms, parts[p].iter().copied()))
    })?;

    // Stage 3: probe left morsels in parallel; morsel-order reassembly.
    let rows = lside.rows();
    let morsel_rows = ctx.morsel_rows;
    let probes = claim(probe, ctx.threads, |i| {
        let (start, end) = morsel_range(i, morsel_rows, rows);
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
        charges.add(
            "join probe",
            ((li.len() + ri.len() + unmatched.len()) * 8) as u64,
        )?;
        Ok((li, ri, unmatched))
    })?;

    let mut left_idx: Vec<i64> = Vec::new();
    let mut right_idx: Vec<i64> = Vec::new();
    let mut left_unmatched: Vec<i64> = Vec::new();
    for (li, ri, un) in probes {
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
