//! Join over integer key codes: both sides' keys are normalised to
//! `i64` code columns in one shared code space. A build side whose
//! keys [`Direct`] admits — any number of key columns, the product of
//! their spans within its limit — is one direct-index table (slot =
//! the keys' [`Direct`] slot; one slot per key when no key repeats);
//! any other is hashed once per row and exchanged into per-partition
//! flat tables — one partition, unexchanged, when staging is
//! sequential. Either way the probe survivors split evenly over the
//! probe tasks (one per thread, or one), and the tasks' pairs
//! reassemble in range order.

use tdp_sql::ast::JoinKind;
use tdp_tensor::keytable::{hash_rows, Direct, Index, KeyTable};
use tdp_tensor::I64Tensor;

use super::chain::BarrierInput;
use super::sched::{claim, exchange, note_barrier, num_morsels, staging};
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
/// `rows`, so per-partition charges sum to the one-partition charge.
fn join_build_bytes(rows: usize) -> u64 {
    rows as u64 * (8 + 4 + 16)
}

/// Byte estimate of a direct-index build over `rows` rows into `slots`
/// slots: the `u32` slots, the rows' own slots, the `next` chain and the
/// row list. Within [`Direct`]'s limit of four slots a row that is at
/// most 28 B a row, so it is charged as the hash build, unless a tiny
/// input's table (64 slots at least) needs more.
fn direct_build_bytes(rows: usize, slots: usize) -> u64 {
    join_build_bytes(rows).max((slots + 3 * rows) as u64 * 4)
}

/// Join: build the right side's table(s), then probe even ranges of the
/// left survivors. A staged join has [`crate::DEFAULT_PARTITIONS`]
/// partitions and one probe task per thread; a sequential one has one
/// partition and one task, which also assembles the output.
///
/// Keys first: [`exact::join_codes`] reads every key pair's right codes
/// at survivor positions (a selection-fed side reads plain-layout keys
/// by index and never filters at full width), at any partition count.
/// Then the build, by the right side's keys:
///
/// * **direct** — keys [`Direct`] admits over the build rows (a foreign
///   key into a dense primary key, a dictionary, a dense composite key):
///   one [`KeyTable`] indexed by the keys' [`Direct`] slot, built on the
///   session thread. No hash is computed and nothing is exchanged. When
///   no build key repeats, the table is unique and a probe row reads one
///   slot ([`KeyTable::row_of`]).
/// * **partitioned** — [`hash_rows`] hashes each row's composite key
///   **once**: the exchange partitions by that hash (one partition is
///   every row, unmoved), the build slots by it, the probe looks up with
///   it. Stage 1 scatters build positions into partitions
///   (morsel-claiming); stage 2 builds one table per partition
///   (partition-claiming).
///
/// Duplicates chain in ascending build order either way (a partition
/// lists its rows ascending). The last stage splits the left survivors
/// into one even range per task — not by `morsel_rows`, which left a
/// short last task — each task reading its range's left codes (a
/// mixed-class pair's were interned with the right's) and locating them
/// in the tables' arm (their hash, or their direct slot), and
/// reassembles the pair lists in range order. The pairs — and the
/// unmatched-left list — are the same at every partition and task
/// count, because a key's build rows all live in one table, ascending;
/// [`exact::join_assemble`] finishes every path. Codes, hashes and
/// tables are position-indexed (survivor space); global row ids appear
/// only in the emitted pairs, which the assembly gathers straight out of
/// the full-width batch.
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
    // enough to stage. A sequential join is one partition, probed and
    // assembled by one task.
    let rows = left.rows_out().max(right.rows_out());
    let staged = staging(
        Staging::Partitioned(DEFAULT_PARTITIONS),
        &[],
        Some(rows),
        ctx,
    );
    let (partitions, threads) = match staged {
        Staging::Partitioned(partitions) => (partitions, ctx.threads),
        _ => (1, 1),
    };
    let codes = exact::join_codes(on, left.input(), right.input())?;
    let lids = left.ids.as_ref().map(I64Tensor::data);
    let rids = right.ids.as_ref().map(I64Tensor::data);
    let rkeys = exact::code_refs(&codes.right);
    let (rows, rrows) = (left.rows_out(), right.rows_out());
    // At least one task, so an empty probe side still reads its codes
    // and fails as a non-empty one would.
    let probe = threads.min(rows).max(1);
    // Held until the joined batch is assembled: the build rows or
    // exchanged positions, the build table(s) and the probe pair lists.
    let charges = memory::ScopedCharges::new(&ctx.memory);
    let direct = Direct::of(&rkeys, None);
    let rhashes = match direct {
        Some(_) => Vec::new(),
        None => hash_rows(&rkeys, rrows),
    };
    let (all, parts);
    let tables: Vec<KeyTable> = match &direct {
        Some(d) => {
            note_barrier(rec, staged.ran(Staging::DirectIndex), &[1, probe]);
            charges.add("join build", direct_build_bytes(rrows, d.slots()))?;
            all = (0..rrows as u32).collect::<Vec<_>>();
            vec![KeyTable::build(&rkeys, Index::Direct(d), &all)]
        }
        None => {
            note_barrier(rec, staged, &[num_morsels(rrows, ctx.morsel_rows), probe]);
            // Stage 1: exchange build-side positions into partitions.
            // Survivor positions (not morsel width) are what gets
            // scattered, so a selective chain charges and shuffles only
            // what survived.
            charges.add("join exchange", rrows as u64 * 4)?;
            parts = exchange(&rhashes, partitions, ctx)?;
            // Stage 2: shared-nothing per-partition table build.
            claim(partitions, threads, |p| {
                charges.add("join build", join_build_bytes(parts.part(p).len()))?;
                Ok(KeyTable::build(
                    &rkeys,
                    Index::Hash(&rhashes),
                    parts.part(p),
                ))
            })?
        }
    };

    // Probe even survivor ranges in parallel; range-order reassembly.
    let probes = claim(probe, threads, |i| {
        let range = rows * i / probe..rows * (i + 1) / probe;
        let lcodes = codes.left_at(left.ids.as_ref(), range.clone())?;
        let lkeys = exact::code_refs(&lcodes);
        let pairs = exact::probe_rows(&tables, &lkeys, range, kind, lids, rids);
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
    exact::join_assemble(&left.batch, right.input(), kind, pairs, threads)
}
