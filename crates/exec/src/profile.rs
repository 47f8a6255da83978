//! Per-operator query profiling.
//!
//! The paper's §2 notes a compiled TDP query can be "profiled using
//! TensorBoard" because it *is* a tensor program. Our equivalent:
//! [`execute_profiled`] runs the one exact plan walker (the
//! `exec_node`/`exec_barrier` pair behind [`crate::pipeline::execute`])
//! with a recorder attached. There is no second executor — the profile
//! describes the fused run that actually happened, and a profiled run
//! returns byte-identical batches to a plain run at every configuration.
//!
//! The walker reports at **stage** granularity (never per morsel), and
//! [`QueryProfile::ops`] keeps one row per plan node in pre-order, so a
//! fused stage — a filter→project chain with its LIMIT or aggregate
//! sink — spans several rows. The attribution rule:
//!
//! * the stage's wall-clock, ledger bytes, fallback reason, kernel
//!   strategy and selection density land once, on the row of its
//!   **top** plan node;
//! * the rows fused below it carry no self-time and report the stage's
//!   output row count — a fused run has no intermediate cardinalities;
//! * a node's wall-clock aggregates all of its morsels across the
//!   worker pool; the report carries the thread count and the total
//!   number of morsels scheduled.

use std::sync::Arc;
use std::time::Instant;

use crate::batch::Batch;
use crate::error::ExecError;
use crate::morsel;
use crate::physical::PhysicalPlan;
use crate::udf::ExecContext;
use crate::verdict::Staging;

/// One profiled plan node.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    /// First line of the node's EXPLAIN rendering (e.g. `Filter: (x@0 > 1)`).
    pub label: String,
    /// Depth in the plan tree (root = 0).
    pub depth: usize,
    /// Rows the node produced.
    pub rows_out: usize,
    /// Wall-clock seconds including children.
    pub total_seconds: f64,
    /// Wall-clock seconds excluding children (the node's own kernels).
    pub self_seconds: f64,
    /// Why an operator ran on the sequential whole-batch path instead
    /// of the morsel pool: a rendered `verdict::Reason` that pins it
    /// (`udf-not-parallel-safe(name)`, …); `None` when nothing did.
    /// Staged barriers (join, sort, TopK, DISTINCT) report here too.
    pub fallback: Option<String>,
    /// How a fused chain ran (`compiled`, `interpreted: <reason>`)
    /// or how a staged barrier did (`partitioned ×16 (31 build + 2
    /// probe tasks)`, `direct-index (one table + 2 probe tasks)`,
    /// `direct-index (one sweep)`, `merge-sort ×8 runs`); `None`
    /// otherwise.
    pub strategy: Option<String>,
    /// How a sink consumed its input. On a fused chain feeding a
    /// barrier: its selection density (`selection: 3% dense→sparse`). On
    /// the barrier itself: how its input arrived (`barrier: selection-fed
    /// (3% dense→sparse)` or `barrier: gathered: <reason>`). On an
    /// aggregate stage: what the fold ran and how its input arrived
    /// (`aggregate: fused 5 acc / 4 args, 3 groups, keys: codes,
    /// selection-fed` — `keys:` is `codes` when every partial folded into
    /// its keys' direct slots, `hash` when one grouped them by hash, `none`
    /// without keys; `unfiltered` when it folded every row of a bare
    /// scan in place, `gathered: <reason>` or `single-morsel` when it
    /// folded dense windows). `None` when there is nothing to say.
    pub selection: Option<String>,
    /// Bytes this operator charged against the query's memory ledger
    /// (materialised columns, exchange buckets, build tables, sort runs,
    /// DISTINCT sets); 0 for operators that charge nothing.
    pub charged_bytes: u64,
}

/// Execution profile of one query run, in pre-order plan order.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    pub ops: Vec<OpTrace>,
    /// Worker threads the morsel scheduler ran with.
    pub threads: usize,
    /// Total morsels scheduled across all operators (streamable chains
    /// plus staged barrier stages — a partitioned join counts its build
    /// morsels and probe tasks).
    pub morsels: usize,
    /// Total exchange partitions scheduled across staged barrier
    /// operators (0 when no barrier was partitioned; a direct-index
    /// barrier exchanges nothing).
    pub partitions: usize,
    /// Morsels skipped outright by zone-map pruning during this run.
    pub morsels_pruned: u64,
    /// Scanned morsels the zone maps proved wholly inside the leading
    /// filter, so the filter never ran over them during this run.
    pub morsels_proven: u64,
    /// Morsels actually executed by pruning-eligible chains (pruned +
    /// scanned = total morsels of those chains), proven ones included.
    pub morsels_scanned: u64,
    /// ANN top-k operator executions during this run.
    pub ann_queries: u64,
    /// ANN queries that found their IVF index stale and fell back to
    /// the flat exact path during this run.
    pub ivf_stale_fallbacks: u64,
    /// Stale IVF indexes rebuilt in-query by the auto-rebuild policy
    /// (`Session::set_ivf_rebuild_after`) during this run.
    pub ivf_rebuilds: u64,
    /// Barrier inputs handed over as live selection vectors (late
    /// materialization) during this run.
    pub barriers_selection_fed: u64,
    /// Barrier inputs a compiled chain had to gather densely before the
    /// barrier could consume them during this run.
    pub barriers_gathered: u64,
    /// Peak bytes the query's memory ledger reached during this run.
    pub peak_memory_bytes: u64,
}

impl QueryProfile {
    /// Total wall-clock of the root node.
    pub fn total_seconds(&self) -> f64 {
        self.ops.first().map(|o| o.total_seconds).unwrap_or(0.0)
    }

    /// The trace with the largest self-time — where the query spent its
    /// kernels.
    pub fn hottest(&self) -> Option<&OpTrace> {
        self.ops
            .iter()
            .max_by(|a, b| a.self_seconds.total_cmp(&b.self_seconds))
    }

    /// Every sequential-fallback reason observed during the run, in plan
    /// order — each a rendered `verdict::Reason` that pins, the
    /// profiled-run view of the EXPLAIN `[sequential: …]` annotations.
    /// Empty when nothing was pinned to the session thread.
    pub fn fallback_reasons(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter_map(|o| o.fallback.as_deref())
            .collect()
    }

    /// Fixed-width table rendering, one row per operator, headed by the
    /// scheduler configuration.
    pub fn pretty(&self) -> String {
        let mut access = String::new();
        if self.morsels_pruned + self.morsels_scanned > 0 {
            access.push_str(&format!(
                " [zone-maps: {} pruned / {} proven / {} scanned]",
                self.morsels_pruned, self.morsels_proven, self.morsels_scanned
            ));
        }
        if self.ann_queries > 0 {
            access.push_str(&format!(" [ann queries: {}]", self.ann_queries));
        }
        if self.ivf_stale_fallbacks > 0 {
            access.push_str(&format!(
                " [ivf stale fallbacks: {}]",
                self.ivf_stale_fallbacks
            ));
        }
        if self.ivf_rebuilds > 0 {
            access.push_str(" [ivf rebuilt]");
        }
        if self.barriers_selection_fed + self.barriers_gathered > 0 {
            access.push_str(&format!(
                " [barriers: {} selection-fed / {} gathered]",
                self.barriers_selection_fed, self.barriers_gathered
            ));
        }
        if self.peak_memory_bytes > 0 {
            access.push_str(&format!(" [mem peak: {} B]", self.peak_memory_bytes));
        }
        let mut out = format!(
            "threads={} morsels={} partitions={}{access}\n\
             operator                                          rows    self ms   total ms\n",
            self.threads, self.morsels, self.partitions
        );
        for op in &self.ops {
            let indent = "  ".repeat(op.depth);
            let label = format!("{indent}{}", op.label);
            let mut note = match (&op.fallback, &op.strategy) {
                (Some(reason), _) => format!("  [sequential: {reason}]"),
                (None, Some(strategy)) => format!("  [{strategy}]"),
                (None, None) => String::new(),
            };
            if let Some(sel) = &op.selection {
                note.push_str(&format!("  [{sel}]"));
            }
            if op.charged_bytes > 0 {
                note.push_str(&format!("  [charged: {} B]", op.charged_bytes));
            }
            out.push_str(&format!(
                "{label:<48} {rows:>7} {self_ms:>10.3} {total_ms:>10.3}{note}\n",
                rows = op.rows_out,
                self_ms = op.self_seconds * 1e3,
                total_ms = op.total_seconds * 1e3,
            ));
        }
        out
    }
}

/// Execute a physical plan exactly while recording a per-operator
/// profile: [`crate::pipeline::decompose`] plus the same walk a plain
/// run takes, with the recorder on.
pub fn execute_profiled(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
) -> Result<(Batch, QueryProfile), ExecError> {
    let mut rec = Recorder::new(plan, ctx);
    let before = ctx.access.snapshot();
    let batch = crate::pipeline::exec_node(&crate::pipeline::decompose(plan), ctx, Some(&mut rec))?;
    let after = ctx.access.snapshot();
    let mut profile = rec.profile;
    profile.morsels_pruned = after.morsels_pruned - before.morsels_pruned;
    profile.morsels_proven = after.morsels_proven - before.morsels_proven;
    profile.morsels_scanned = after.morsels_scanned - before.morsels_scanned;
    profile.ann_queries = after.ann_queries - before.ann_queries;
    profile.ivf_stale_fallbacks = after.ivf_stale_fallbacks - before.ivf_stale_fallbacks;
    profile.ivf_rebuilds = after.ivf_rebuilds - before.ivf_rebuilds;
    profile.barriers_selection_fed = after.barriers_selection_fed - before.barriers_selection_fed;
    profile.barriers_gathered = after.barriers_gathered - before.barriers_gathered;
    profile.peak_memory_bytes = ctx.memory.peak();
    Ok((batch, profile))
}

/// A stage the walker has entered and not yet left.
struct OpenStage {
    /// Trace row of the stage's top plan node; the nodes fused below it
    /// occupy the following `nodes - 1` rows.
    slot: usize,
    nodes: usize,
    start: Instant,
    /// Ledger charged-total at entry.
    charged: u64,
    /// Wall-clock and ledger bytes of the stages that ran inside this
    /// one, so its self-time and self-charges can be derived.
    child_seconds: f64,
    child_charged: u64,
}

/// What the plan walker reports to while profiling. Trace rows are laid
/// out up front, one per plan node in pre-order; the walk visits stages
/// in that same order, so a cursor is all it takes to pair each stage
/// with its rows.
pub(crate) struct Recorder {
    profile: QueryProfile,
    /// First trace row no stage has claimed yet.
    next: usize,
    /// Entered stages, innermost last.
    open: Vec<OpenStage>,
    memory: Arc<tdp_mem::MemoryReservation>,
}

impl Recorder {
    fn new(plan: &PhysicalPlan, ctx: &ExecContext) -> Recorder {
        fn rows(plan: &PhysicalPlan, depth: usize, out: &mut Vec<OpTrace>) {
            out.push(OpTrace {
                label: node_label(plan),
                depth,
                ..OpTrace::default()
            });
            for child in plan.inputs() {
                rows(child, depth + 1, out);
            }
        }
        let mut profile = QueryProfile {
            threads: ctx.threads,
            ..QueryProfile::default()
        };
        rows(plan, 0, &mut profile.ops);
        Recorder {
            profile,
            next: 0,
            open: Vec::new(),
            memory: Arc::clone(&ctx.memory),
        }
    }

    /// Enter a stage fusing the next `nodes` plan nodes.
    pub(crate) fn enter(&mut self, nodes: usize) {
        self.open.push(OpenStage {
            slot: self.next,
            nodes,
            start: Instant::now(),
            charged: self.memory.charged_total(),
            child_seconds: 0.0,
            child_charged: 0,
        });
        self.next += nodes;
    }

    /// Leave the innermost stage, which produced `rows_out` rows.
    pub(crate) fn exit(&mut self, rows_out: usize) {
        let stage = self.open.pop().expect("exit pairs with enter");
        let total = stage.start.elapsed().as_secs_f64();
        let charged = self.memory.charged_total() - stage.charged;
        for op in &mut self.profile.ops[stage.slot..stage.slot + stage.nodes] {
            op.rows_out = rows_out;
            op.total_seconds = stage.child_seconds;
        }
        let top = &mut self.profile.ops[stage.slot];
        top.total_seconds = total;
        top.self_seconds = (total - stage.child_seconds).max(0.0);
        top.charged_bytes = charged.saturating_sub(stage.child_charged);
        if let Some(parent) = self.open.last_mut() {
            parent.child_seconds += total;
            parent.child_charged += charged;
        }
    }

    /// Trace row of the innermost stage's top plan node.
    fn top(&mut self) -> &mut OpTrace {
        let slot = self.open.last().expect("a stage is open").slot;
        &mut self.profile.ops[slot]
    }

    /// Record how the innermost stage's fused chain (and aggregate sink)
    /// was scheduled: morsel count, sequential-fallback reason and
    /// chain-kernel verdict, all as the run itself resolved them.
    pub(crate) fn note_chain(&mut self, chain: &morsel::ChainRun<'_>) {
        self.profile.morsels += chain.morsels;
        let top = self.top();
        (top.strategy, top.fallback) = chain_trace(chain);
    }

    /// Leave a chain stage that fed a barrier: its selection density
    /// lands on the chain, and how the input arrived (`selection-fed
    /// (<density>)` / `gathered: <reason>`) on the barrier that is now
    /// innermost — the first input with something to say wins.
    pub(crate) fn exit_chain(&mut self, out: &morsel::BarrierInput<'_>) {
        let handoff = out.handoff();
        let density = handoff.as_ref().and_then(|h| h.as_ref().ok());
        self.top().selection = density.map(|d| format!("selection: {d}"));
        self.exit(out.rows_out());
        let barrier = self.top();
        if barrier.selection.is_none() {
            barrier.selection = handoff.map(|h| match h {
                Ok(density) => format!("barrier: selection-fed ({density})"),
                Err(why) => format!("barrier: gathered: {why}"),
            });
        }
    }

    /// Record what the innermost stage's aggregate sink ran, reported by
    /// `morsel::run_aggregate`: the fused fold's shape, how the group
    /// keys were resolved and how the input arrived. Rides the
    /// `selection` slot — `strategy` and `fallback` belong to the fused
    /// chain ([`Recorder::note_chain`]).
    pub(crate) fn note_aggregate(&mut self, note: &morsel::AggregateNote<'_>) {
        self.top().selection = Some(note.to_string());
    }

    /// Record the staging verdict a barrier (join, sort, top-k, DISTINCT)
    /// took, reported by its `morsel::run_*` kernel, with the morsels each
    /// of its stages claimed: the strategy with its counts, or — when the
    /// reason pins the work — why it stayed sequential. A sequential
    /// barrier counts one morsel, whatever its stages claimed.
    pub(crate) fn note_barrier(&mut self, staging: Staging<'_>, morsels: &[usize]) {
        self.profile.morsels += match staging {
            Staging::Sequential(_) => 1,
            _ => morsels.iter().sum::<usize>(),
        };
        if let Staging::Partitioned(partitions) = staging {
            self.profile.partitions += partitions;
        }
        let top = self.top();
        (top.strategy, top.fallback) = match (staging, morsels) {
            (Staging::Sequential(why), _) => (None, why.pins().then(|| why.to_string())),
            (Staging::Partitioned(_), [build, probe]) => (
                Some(format!("{staging} ({build} build + {probe} probe tasks)")),
                None,
            ),
            (Staging::Partitioned(_), [n]) => (Some(format!("{staging} ({n} morsels)")), None),
            (Staging::DirectIndex, [_, probe]) => (
                Some(format!("{staging} (one table + {probe} probe tasks)")),
                None,
            ),
            (Staging::DirectIndex, _) => (Some(format!("{staging} (one sweep)")), None),
            (_, [runs]) => (Some(format!("{staging} ×{runs} runs")), None),
            _ => unreachable!("a staged barrier reports one count per stage"),
        };
    }
}

/// A fused chain's `(OpTrace::strategy, OpTrace::fallback)`: `compiled`
/// or `interpreted: <reason>` (`None` with no chain), and what pinned it
/// to the session thread.
pub(crate) fn chain_trace(chain: &morsel::ChainRun<'_>) -> (Option<String>, Option<String>) {
    let strategy = match chain.interpreted() {
        _ if chain.ops.is_empty() => None,
        None => Some("compiled".to_string()),
        Some(why) => Some(format!("interpreted: {why}")),
    };
    (strategy, chain.pin.map(|why| why.to_string()))
}

/// First line of a node's EXPLAIN rendering.
fn node_label(plan: &PhysicalPlan) -> String {
    plan.explain()
        .lines()
        .next()
        .unwrap_or("?")
        .trim()
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::lower;
    use crate::udf::UdfRegistry;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::{Catalog, TableBuilder};

    fn setup() -> Catalog {
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", (0..100).map(|v| v as f32).collect())
                .col_str(
                    "tag",
                    &(0..100).map(|v| format!("t{}", v % 3)).collect::<Vec<_>>(),
                )
                .build("t"),
        );
        catalog
    }

    fn profiled(catalog: &Catalog, sql: &str) -> (Batch, QueryProfile) {
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(catalog, &udfs);
        let plan = optimizer::optimize(
            build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
        );
        let phys = lower(&plan, catalog, &udfs).unwrap();
        execute_profiled(&phys, &ctx).unwrap()
    }

    #[test]
    fn profile_matches_plan_shape_and_result() {
        let c = setup();
        let (batch, prof) = profiled(&c, "SELECT tag, COUNT(*) FROM t WHERE x >= 10 GROUP BY tag");
        assert_eq!(batch.rows(), 3);
        let labels: Vec<&str> = prof.ops.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels.len(), 3, "{labels:?}");
        assert!(labels[0].starts_with("Aggregate"), "{labels:?}");
        assert!(labels[1].starts_with("Filter"), "{labels:?}");
        assert!(labels[2].starts_with("Scan"), "{labels:?}");
        // Labels carry resolved slots.
        assert!(labels[1].contains("x@0"), "{labels:?}");
        // Depths follow the tree.
        assert_eq!(
            prof.ops.iter().map(|o| o.depth).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Cardinalities: the filter is fused below the aggregate, so it
        // reports the stage's output count; the scan is its own stage.
        assert_eq!(prof.ops[2].rows_out, 100);
        assert_eq!(prof.ops[1].rows_out, 3);
        assert_eq!(prof.ops[0].rows_out, 3);
        // The stage's time lands once, on its top node.
        assert_eq!(prof.ops[1].self_seconds, 0.0);
    }

    #[test]
    fn self_time_sums_to_total() {
        let c = setup();
        let (_, prof) = profiled(&c, "SELECT x FROM t WHERE x > 50 ORDER BY x DESC LIMIT 5");
        let self_sum: f64 = prof.ops.iter().map(|o| o.self_seconds).sum();
        let total = prof.total_seconds();
        assert!(
            (self_sum - total).abs() <= total * 0.5 + 1e-6,
            "self {self_sum} vs total {total}"
        );
        assert!(prof.hottest().is_some());
    }

    /// The profiled walk *is* the plain walk: float aggregates — whose
    /// last bit depends on where partial sums are cut — come back
    /// byte-identical, filtered or not, grouped or not, at tiny morsels
    /// and at every thread count.
    #[test]
    fn profiled_run_is_bytewise_the_plain_run() {
        let catalog = Catalog::new();
        // Magnitudes spread over nine decades: f32 addition over these is
        // visibly non-associative, so a different morsel cut shows.
        let x: Vec<f32> = (0..200)
            .map(|i| ((i * 7919) % 1000) as f32 * 10f32.powi(i % 9 - 4))
            .collect();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", x)
                .col_str(
                    "tag",
                    &(0..200).map(|v| format!("t{}", v % 3)).collect::<Vec<_>>(),
                )
                .build("t"),
        );
        let udfs = UdfRegistry::new();
        let bits = |b: &Batch| -> Vec<(String, Vec<u32>)> {
            b.columns()
                .iter()
                .map(|(n, c)| {
                    let exact = c;
                    let v = exact.decode_f32().to_vec();
                    (n.clone(), v.iter().map(|f| f.to_bits()).collect())
                })
                .collect()
        };
        for sql in [
            "SELECT SUM(x), AVG(x), VARIANCE(x) FROM t",
            "SELECT SUM(x), AVG(x), VARIANCE(x) FROM t WHERE x > 0.5",
            "SELECT tag, SUM(x), AVG(x), VARIANCE(x) FROM t GROUP BY tag",
            "SELECT tag, SUM(x), AVG(x), VARIANCE(x) FROM t WHERE x > 0.5 GROUP BY tag",
            "SELECT tag, SUM(x * 2) AS s FROM t WHERE x > 0.5 AND x < 900000 GROUP BY tag ORDER BY s",
        ] {
            let plan = optimizer::optimize(
                build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
            );
            let phys = lower(&plan, &catalog, &udfs).unwrap();
            for threads in [1, 4] {
                let ctx = ExecContext::new(&catalog, &udfs).with_scheduler(threads, 7);
                let plain = crate::pipeline::execute(&phys, &ctx).unwrap();
                let (profiled, _) = execute_profiled(&phys, &ctx).unwrap();
                assert_eq!(bits(&profiled), bits(&plain), "{sql} @ threads={threads}");
            }
        }
    }

    #[test]
    fn pretty_renders_one_line_per_op() {
        let c = setup();
        let (_, prof) = profiled(&c, "SELECT DISTINCT tag FROM t");
        let text = prof.pretty();
        assert_eq!(text.lines().count(), 2 + prof.ops.len());
        assert!(text.starts_with("threads="), "{text}");
        assert!(text.contains("Distinct"));
        assert!(text.contains("Scan: t"));
    }

    #[test]
    fn join_profile_has_two_children() {
        let c = setup();
        c.register(
            TableBuilder::new()
                .col_str("tag", &["t0", "t1", "t2"])
                .col_f32("w", vec![1.0, 2.0, 3.0])
                .build("weights"),
        );
        let (_, prof) = profiled(
            &c,
            "SELECT t.x, weights.w FROM t JOIN weights ON t.tag = weights.tag LIMIT 3",
        );
        let join_idx = prof
            .ops
            .iter()
            .position(|o| o.label.starts_with("Join"))
            .expect("join node");
        let children: Vec<_> = prof
            .ops
            .iter()
            .filter(|o| o.depth == prof.ops[join_idx].depth + 1)
            .collect();
        assert_eq!(children.len(), 2);
    }
}
