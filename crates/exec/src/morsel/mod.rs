//! The morsel scheduler and everything staged on it: a batch is
//! partitioned into fixed-size row ranges and operator stages run over
//! them across a worker pool.
//!
//! | module        | owns |
//! |---------------|------|
//! | `sched`       | worker contexts, the one thread-spawn site, the one claim loop (ordered result slots, first error in index order, the LIMIT stop bound), the partition `exchange`, morsel ranges and the interpreter's window slices (`slice_window`, a [`Batch`](crate::Batch) of the input's rows) |
//! | `chain`       | parallel-safety analysis, the per-execution `ChainRun`, the streaming chain run with its LIMIT sink, the per-morsel selection stage and the chain→barrier hand-off (`BarrierInput`: the stored columns as a `Batch` plus survivor ids, or a gathered `Batch`) |
//! | `aggregate`   | `AggProgram`, the one per-morsel fold — into the keys' `Direct` slots, compacted in slot order, or ids from `group_hashed` (a zero-key fold keeps each accumulator in a local) — the one claim that folds each window in place — selected by the chain's kernel, or every row of a bare scan, keys and arguments read where they are stored — or, failing that, folds its gathered window, the combine — which groups the partials' key rows with `group_rows`, in the fold's lexicographic order, and scatters their states in morsel order — and the one finisher turning states into output columns. A window aggregate (`window_aggregate`, called by `exact::window_batch`) is the same program with no keys: one fold over its peer groups, frames chained in window order by the combine's arithmetic, the same finisher |
//! | `join`        | join over `i64` key codes: one direct-index table when `Direct` admits the build keys, else hash once → exchange → per-partition flat table; then parallel probe → per-column assembly |
//! | `sort`        | merge sort and top-k: per-morsel runs → k-way merge |
//! | `distinct`    | DISTINCT on the same codes, `Direct` rule and table: one direct-index sweep, or exchange → per-partition insert-if-absent |
//!
//! The barrier modules share nothing but the scheduler API and the
//! `BarrierInput` shape they are handed. Every stage reads its input
//! [`Batch`](crate::Batch) in place: a batch is exact encoded columns,
//! `Send + Sync` by type, so workers borrow it (`batch.columns()`) and
//! hand back batches of their own. Tape columns never get here: they
//! live only in the differentiable walker's
//! [`DiffBatch`](crate::DiffBatch).
//!
//! Determinism is the contract: morsel boundaries depend only on
//! [`crate::ExecContext::morsel_rows`], partition assignment only on the
//! key hash and the partition count
//! ([`crate::DEFAULT_PARTITIONS`] — deliberately *not* the thread
//! count), and every combine walks morsels/partitions
//! in index order — so every thread count (including 1) produces
//! bitwise-identical batches, byte-equal to the sequential kernels in
//! [`crate::exact`], which remain the fallback and the test oracle.
//! Parallelism only changes *who* processes each morsel.
//!
//! # Chain exit modes: gathered vs selection-fed barriers
//!
//! A chain running on the kernel and feeding a barrier has two ways to
//! hand over its result. Either way a morsel is a row window over the
//! input's own stored columns, evaluated by the worker that claimed it;
//! morsels the zone maps pruned are never scheduled.
//!
//! * **Gathered** — the classic exit: every morsel gathers its
//!   survivors (one read per output column, straight out of the stored
//!   column), the parts concatenate into a dense
//!   [`Batch`](crate::Batch). Always available; the only exit for
//!   non-chain children.
//! * **Selection-fed** — late materialisation: per-morsel filter
//!   evaluations over the chain's output columns, which stay **as
//!   stored** — nothing is decoded or copied for the hand-off, and no
//!   table-wide mask exists. An aggregate selects and folds each window
//!   in one task; join, sort, top-k and DISTINCT take one
//!   `BarrierInput` — the stored columns plus the survivors' ascending
//!   global row ids, each task turning its window's survivors into ids.
//!   Values are read through the one row-movement family
//!   (`EncodedTensor::slice_rows` / `select_rows`); the single gather is
//!   deferred to final assembly — join output positions, sorted order,
//!   DISTINCT representatives — so dropped rows are never copied, and
//!   memory charges scale with survivors instead of input width.
//!
//! | barrier    | selection-fed behaviour |
//! |------------|-------------------------|
//! | aggregate  | one task per input morsel selects it and folds the columns the aggregate names, where they are stored — the row window under the window's mask (dense) or its survivors read by position (sparse: at most a quarter survive); grouped or not, nothing is copied into a batch of the fold's own and no table-wide selection exists. An aggregate over a bare scan (no chain) folds every row of each window the same way (`unfiltered`), with no hand-off to count |
//! | join       | key codes are read at survivor rows only; the exchange, tables and probe work on survivor positions; `join_assemble` reads each output column once, at the matched global row ids |
//! | sort/top-k | reads keys at survivor rows; payload gather happens once, in final sorted order |
//! | DISTINCT   | grouping codes are read at survivor rows only; first occurrences gather at the end |
//!
//! Byte-identity is preserved in every mode: reorder/gather barriers
//! (join, sort, top-k, DISTINCT) move bytes without arithmetic, and
//! selection-fed aggregation chunks its partials by *input* morsel
//! boundaries, replicating the gathered path's float-accumulation order
//! exactly.
//!
//! # Fallback taxonomy
//!
//! Every decline is named, once: a `verdict::Reason`, whose variant docs
//! are the taxonomy. EXPLAIN prints the verdicts that follow from the
//! plan and the session, and a profiled run reports the ones each stage
//! took. A chain declines the worker pool, the kernel ([`crate::kernel`])
//! or the selection hand-off (`ChainVerdict`, `ChainRun`); a barrier
//! declines staging (`verdict::Staging`, decided by `staging`); an
//! aggregate folds gathered windows. Sort keys the workers cannot
//! evaluate decline staging too, since key expressions are evaluated per
//! morsel on workers.

mod aggregate;
mod chain;
mod distinct;
mod join;
mod sched;
mod sort;

pub(crate) use aggregate::{run_aggregate, window_aggregate, AggregateNote};
pub(crate) use chain::{
    chain_barrier_input, gather_reason, run_ops, BarrierInput, ChainRun, ChainVerdict,
};
pub(crate) use distinct::run_distinct;
pub(crate) use join::run_join;
pub(crate) use sched::{claim, staging};
pub(crate) use sort::run_sort;

use crate::physical::{PhysOrderKey, PhysicalPlan};
use crate::pipeline::DEFAULT_PARTITIONS;
use crate::verdict::Staging;

/// The staged form of a join, sort, top-k or DISTINCT, with the sort keys
/// its staging decision reads ([`staging`]); `None` for barriers the
/// scheduler never stages (window, TVFs, UNION ALL) — those are
/// whole-batch by nature.
pub(crate) fn staged_form(plan: &PhysicalPlan) -> Option<(Staging<'_>, &[PhysOrderKey])> {
    use PhysicalPlan as P;
    match plan {
        P::Join { .. } | P::Distinct { .. } => {
            Some((Staging::Partitioned(DEFAULT_PARTITIONS), &[]))
        }
        P::Sort { keys, .. } => Some((Staging::MergeSort, keys)),
        P::TopK { keys, .. } => Some((Staging::TopK, keys)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::batch::Batch;
    use crate::error::ExecError;
    use crate::physical::lower;
    use crate::udf::{ExecContext, UdfRegistry};
    use tdp_encoding::EncodedTensor;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::Catalog;
    use tdp_storage::TableBuilder;

    pub(super) fn setup(n: usize) -> Catalog {
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
                col.decode_strings(),
                b.column(name).unwrap().decode_strings(),
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

    /// A zone-map proof speaks for the filter its pruner was compiled
    /// from, the one directly over the scan. Stacked on it, a second
    /// filter (a shape SQL lowering merges away) still runs over every
    /// proven morsel, in the aggregate's fold and the selection exit.
    #[test]
    fn a_proof_skips_only_the_leading_filter() {
        use crate::physical::{CompiledExpr, PhysicalPlan};
        let c = setup(500);
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&c, &udfs)
            .with_scheduler(2, 64)
            .with_chain_kernels(true);
        let lowered = |sql: &str| {
            let plan = optimizer::optimize(
                build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
            );
            lower(&plan, &c, &udfs).unwrap()
        };
        // `k < 13` holds on every row, so the zone maps prove every morsel.
        fn stack(plan: PhysicalPlan, outer: &CompiledExpr) -> PhysicalPlan {
            match plan {
                inner @ PhysicalPlan::Filter { .. } => PhysicalPlan::Filter {
                    predicate: outer.clone(),
                    input: Box::new(inner),
                },
                other => other.map_children(|child| stack(child, outer)),
            }
        }
        let outer = lowered("SELECT v FROM t WHERE v > 0.5")
            .find_map(&mut |p| match p {
                PhysicalPlan::Filter { predicate, .. } => Some(predicate.clone()),
                _ => None,
            })
            .unwrap();
        for (proven, want) in [
            (
                "SELECT COUNT(*) AS n, MAX(v) AS m FROM t WHERE k < 13",
                "SELECT COUNT(*) AS n, MAX(v) AS m FROM t WHERE v > 0.5",
            ),
            (
                "SELECT v, k FROM t WHERE k < 13 ORDER BY v",
                "SELECT v, k FROM t WHERE v > 0.5 ORDER BY v",
            ),
        ] {
            let stacked = stack(lowered(proven), &outer);
            let got = crate::pipeline::execute(&stacked, &ctx).unwrap();
            let want = crate::pipeline::execute(&lowered(want), &ctx).unwrap();
            assert_batches_equal(&got, &want, proven);
            let (_, profile) = crate::profile::execute_profiled(&lowered(proven), &ctx).unwrap();
            assert_eq!(profile.morsels_proven, 8, "{proven}: {}", profile.pretty());
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
        let a = ws.column("SUM(v)").unwrap().decode_f32().at(0);
        let b = ms.column("SUM(v)").unwrap().decode_f32().at(0);
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn limit_early_exit_is_a_clean_prefix() {
        let c = setup(200);
        for limit in [0, 1, 6, 7, 8, 63, 64, 65, 199, 200, 500] {
            let sql = format!("SELECT k FROM t LIMIT {limit}");
            let out = run_with(&c, &sql, 3, 8);
            let expect: Vec<i64> = (0..200i64.min(limit)).map(|i| i % 13).collect();
            assert_eq!(
                out.column("k").unwrap().decode_i64().to_vec(),
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
            .decode_f32()
            .to_vec()
            .iter()
            .all(|&w| w > 1.0));
    }
}
