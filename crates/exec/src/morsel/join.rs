//! Partitioned hash join over integer key codes: both sides' keys are
//! normalised to `i64` code columns in one shared code space, each row's
//! composite hash is computed once, the build side is exchanged into
//! per-partition flat tables, probe morsels run in parallel and
//! reassemble in morsel order.

use tdp_sql::ast::JoinKind;
use tdp_tensor::keytable::{hash_rows, KeyTable};
use tdp_tensor::I64Tensor;

use super::chain::BarrierInput;
use super::sched::{claim, exchange, morsel_range, note_barrier, num_morsels, staging};
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::memory;
use crate::physical::JoinOn;
use crate::pipeline::DEFAULT_PARTITIONS;
use crate::profile::Recorder;
use crate::udf::ExecContext;
use crate::verdict::Staging;

/// Byte estimate of the build side's hash structures over `rows` build
/// rows: the 8-byte hash column, the 4-byte `next` chain, and the
/// table's `u32` slots — two to four per row (twice the row count,
/// rounded up to a power of two), charged at the upper end. Linear in
/// `rows`, so per-partition charges sum to the one-table charge.
fn join_build_bytes(rows: usize) -> u64 {
    rows as u64 * (8 + 4 + 16)
}

/// Partitioned hash join: exchange the build (right) side into
/// per-partition tables, then probe left morsels in parallel.
///
/// Keys first: [`exact::join_key_codes`] turns every key pair into two
/// code columns at survivor positions (a selection-fed side reads
/// plain-layout keys by index and never filters at full width), and
/// [`hash_rows`] hashes each row's composite key **once** — the exchange
/// partitions by that hash, the build slots by it, the probe looks up
/// with it. Stage 1 scatters build positions into partitions
/// (morsel-claiming); stage 2 builds one [`KeyTable`] per partition
/// (partition-claiming) — duplicates chain in ascending build order
/// because a partition lists its rows ascending; stage 3 probes left
/// morsels and reassembles the pair lists in morsel order. The pairs —
/// and the unmatched-left list — are exactly the sequential kernel's
/// (the same table with one partition), so [`exact::join_assemble`]
/// finishes both paths. Codes, hashes and tables are position-indexed
/// (survivor space); global row ids appear only in the emitted pairs,
/// which the assembly gathers straight out of the full-width batch.
pub(crate) fn run_join(
    left: BarrierInput<'_>,
    right: BarrierInput<'_>,
    kind: JoinKind,
    on: &JoinOn,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    // Joins carry no key expressions (keys are resolved column refs), so
    // nothing pins one; either side spanning more than one morsel is
    // enough to stage.
    let partitions = DEFAULT_PARTITIONS;
    let rows = left.rows_out().max(right.rows_out());
    let staged = staging(Staging::Partitioned(partitions), &[], Some(rows), ctx);
    if let Staging::Sequential(_) = staged {
        note_barrier(rec, staged, &[1]);
        let (left, right) = (left.into_gathered(), right.into_gathered());
        // The sequential kernel builds one table over the whole build
        // side; charge the same per-row estimate the staged build uses
        // so enforcement is thread-count-invariant.
        let _charge = memory::charge(&ctx.memory, "join build", join_build_bytes(right.rows()))?;
        return exact::join_batches(&left, &right, kind, on);
    }
    let (lcodes, rcodes) = exact::join_key_codes(on, left.input(), right.input())?;
    let lids = left.ids.as_ref().map(I64Tensor::data);
    let rids = right.ids.as_ref().map(I64Tensor::data);
    let (lkeys, rkeys) = (exact::code_refs(&lcodes), exact::code_refs(&rcodes));
    let (rows, rrows) = (left.rows_out(), right.rows_out());
    let lhashes = hash_rows(&lkeys, rows);
    let rhashes = hash_rows(&rkeys, rrows);
    let build = num_morsels(rrows, ctx.morsel_rows);
    let probe = num_morsels(rows, ctx.morsel_rows);
    note_barrier(rec, staged, &[build, probe]);
    // Held until the joined batch is assembled: the exchanged positions,
    // the per-partition build tables and the probe pair lists.
    let charges = memory::ScopedCharges::new(&ctx.memory);

    // Stage 1: exchange build-side positions into partitions. Survivor
    // positions (not morsel width) are what gets scattered, so a
    // selective chain charges and shuffles only what survived.
    charges.add("join exchange", rrows as u64 * 4)?;
    let parts = exchange(&rhashes, partitions, ctx)?;

    // Stage 2: shared-nothing per-partition table build.
    let tables: Vec<KeyTable> = claim(partitions, ctx.threads, |p| {
        charges.add("join build", join_build_bytes(parts.part(p).len()))?;
        Ok(KeyTable::build(&rkeys, &rhashes, parts.part(p)))
    })?;

    // Stage 3: probe left morsels in parallel; morsel-order reassembly.
    let morsel_rows = ctx.morsel_rows;
    let probes = claim(probe, ctx.threads, |i| {
        let (start, end) = morsel_range(i, morsel_rows, rows);
        let pairs = exact::probe_rows(&tables, &lkeys, &lhashes, start..end, kind, lids, rids);
        charges.add("join probe", pairs.bytes())?;
        Ok(pairs)
    })?;
    let mut probes = probes.into_iter();
    let mut pairs = probes.next().unwrap_or_default();
    for p in probes {
        pairs.left.extend(p.left);
        pairs.right.extend(p.right);
        pairs.unmatched.extend(p.unmatched);
    }
    exact::join_assemble(&left.batch, right.input(), kind, pairs, ctx.threads)
}
