//! Access-path planning: zone-map chunk pruning and ANN top-k.
//!
//! This module is the planner half of the engine's two index-accelerated
//! access paths. Both are chosen **at `prepare()` time** by
//! `passes::access_paths` and carried on the physical plan, so they
//! compose with the normalized plan cache (parameter-slot bounds are
//! resolved at bind time, not compile time).
//!
//! ## Zone-map pruning — eligibility rules
//!
//! The filter directly above a base-table scan with a resolved schema is
//! split on top-level `AND`. A conjunct compiles into a
//! [`PrunePredicate`] when it is
//!
//! * a comparison (`<`, `<=`, `>`, `>=`, `=`) between a slot-resolved
//!   column and a numeric literal or `$n` parameter slot (either operand
//!   order — the operator is mirrored), or
//! * a non-negated `IN` list of numeric literals / parameter slots
//!   (`BETWEEN` needs no case of its own: the parser desugars it into
//!   two comparisons), or
//! * an `OR` whose arms are each individually eligible by the two rules
//!   above **and** all name the same column — the pruner then skips a
//!   chunk only when every arm excludes it (the union of the arms'
//!   surviving ranges).
//!
//! Everything else (string predicates, UDF calls, column-column
//! comparisons, `NOT IN`, mixed-column or partially-eligible `OR`s) is
//! ignored; if *no* conjunct qualifies the scan stays a full scan and
//! EXPLAIN names the reason (`full scan: no-eligible-conjunct`, or
//! `full scan: or-arm-ineligible` when a disjunction was present but an
//! arm disqualified it, or `schema-unresolved`).
//!
//! ## Pruning vs. kernels
//!
//! The [`ChunkPruner`] runs **before** the fused chain kernels: the
//! morsel scheduler asks it for a per-morsel skip mask (computed from
//! the catalog's [`TableZoneMaps`] in the same f32 precision the filter
//! kernels compare in) and pruned morsels contribute an empty slice to
//! the order-preserving reassembly without ever reaching a kernel. A
//! skipped morsel is by construction one the leading filter would have
//! emptied, so pruned and unpruned executions are byte-identical at
//! every thread count and morsel size.
//!
//! ## ANN recall contract
//!
//! `ORDER BY distance(col, $q) LIMIT k` (and the `inner_product` /
//! `cosine_sim` descending forms) lowers to the `AnnTopK` operator. With
//! no index registered — or a stale one — it runs the **flat exact**
//! path: identical scores, ordering and bytes as the scan+sort oracle.
//! With a `CREATE INDEX … USING ivf(nlist, nprobe)` index it trades
//! recall for latency; the trade-off is declared in EXPLAIN
//! (`[ivf nlist=64 nprobe=8]`) and bounded by the recall property tests.

use std::sync::atomic::{AtomicU64, Ordering};

use tdp_sql::ast::BinOp;
use tdp_storage::TableZoneMaps;

use crate::params::{ParamValue, ParamValues};
use crate::physical::{ColumnRef, CompiledExpr};

// ----------------------------------------------------------------------
// Observability counters
// ----------------------------------------------------------------------

/// Monotonic access-path counters. One shared set hangs off the engine
/// for cumulative `access_path_stats()`; profiled runs attach a fresh
/// set to report per-query numbers. Chain-kernel verdicts count here
/// too: one bind or one fallback per chain execution.
#[derive(Debug, Default)]
pub struct AccessPathCounters {
    morsels_pruned: AtomicU64,
    morsels_scanned: AtomicU64,
    ann_queries: AtomicU64,
    ivf_stale_fallbacks: AtomicU64,
    ivf_rebuilds: AtomicU64,
    barriers_selection_fed: AtomicU64,
    barriers_gathered: AtomicU64,
    kernel_binds: AtomicU64,
    kernel_fallbacks: AtomicU64,
}

/// A point-in-time snapshot of [`AccessPathCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessPathStats {
    /// Morsels skipped wholesale by zone-map pruning.
    pub morsels_pruned: u64,
    /// Morsels that reached the chain kernels of a prunable scan.
    pub morsels_scanned: u64,
    /// Queries served by the `AnnTopK` operator.
    pub ann_queries: u64,
    /// ANN queries planned against an IVF index that had gone stale (a
    /// table write invalidated it) and silently ran flat-exact instead.
    pub ivf_stale_fallbacks: u64,
    /// Stale IVF indexes rebuilt in place under the auto-rebuild policy
    /// ([`crate::ExecContext::ivf_rebuild_after`]).
    pub ivf_rebuilds: u64,
    /// Barrier stages (aggregate/join/sort/top-k/DISTINCT) fed a
    /// `(Batch, SelVec)` pair directly by a compiled chain, skipping the
    /// full gather.
    pub barriers_selection_fed: u64,
    /// Barrier stages that had a compiled chain upstream but consumed a
    /// gathered batch instead (the named reason lands in EXPLAIN).
    pub barriers_gathered: u64,
    /// Chain executions bound to the chain kernel.
    pub kernel_binds: u64,
    /// Chain executions that ran interpreted while kernels were enabled:
    /// a vet- or bind-time refusal, or a run-time bail-out.
    pub kernel_fallbacks: u64,
}

impl AccessPathCounters {
    pub fn note_morsels(&self, pruned: u64, scanned: u64) {
        self.morsels_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.morsels_scanned.fetch_add(scanned, Ordering::Relaxed);
    }

    pub fn note_ann_query(&self) {
        self.ann_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// An IVF plan found its index stale at execution and fell back to
    /// the flat exact path.
    pub fn note_ivf_stale_fallback(&self) {
        self.ivf_stale_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// A stale IVF index was rebuilt in place by the auto-rebuild policy
    /// before serving the query.
    pub fn note_ivf_rebuild(&self) {
        self.ivf_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// A barrier stage consumed a compiled chain's selection directly.
    pub fn note_barrier_selection_fed(&self) {
        self.barriers_selection_fed.fetch_add(1, Ordering::Relaxed);
    }

    /// A barrier stage below a compiled-chain candidate fell back to the
    /// gathered batch path.
    pub fn note_barrier_gathered(&self) {
        self.barriers_gathered.fetch_add(1, Ordering::Relaxed);
    }

    /// A chain execution bound the chain kernel.
    pub fn note_kernel_bind(&self) {
        self.kernel_binds.fetch_add(1, Ordering::Relaxed);
    }

    /// A chain execution fell back to the interpreter with kernels on.
    pub fn note_kernel_fallback(&self) {
        self.kernel_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> AccessPathStats {
        AccessPathStats {
            morsels_pruned: self.morsels_pruned.load(Ordering::Relaxed),
            morsels_scanned: self.morsels_scanned.load(Ordering::Relaxed),
            ann_queries: self.ann_queries.load(Ordering::Relaxed),
            ivf_stale_fallbacks: self.ivf_stale_fallbacks.load(Ordering::Relaxed),
            ivf_rebuilds: self.ivf_rebuilds.load(Ordering::Relaxed),
            barriers_selection_fed: self.barriers_selection_fed.load(Ordering::Relaxed),
            barriers_gathered: self.barriers_gathered.load(Ordering::Relaxed),
            kernel_binds: self.kernel_binds.load(Ordering::Relaxed),
            kernel_fallbacks: self.kernel_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Add another counter set's totals into this one (per-query →
    /// engine accumulation after a profiled run).
    pub fn absorb(&self, stats: AccessPathStats) {
        self.morsels_pruned
            .fetch_add(stats.morsels_pruned, Ordering::Relaxed);
        self.morsels_scanned
            .fetch_add(stats.morsels_scanned, Ordering::Relaxed);
        self.ann_queries
            .fetch_add(stats.ann_queries, Ordering::Relaxed);
        self.ivf_stale_fallbacks
            .fetch_add(stats.ivf_stale_fallbacks, Ordering::Relaxed);
        self.ivf_rebuilds
            .fetch_add(stats.ivf_rebuilds, Ordering::Relaxed);
        self.barriers_selection_fed
            .fetch_add(stats.barriers_selection_fed, Ordering::Relaxed);
        self.barriers_gathered
            .fetch_add(stats.barriers_gathered, Ordering::Relaxed);
        self.kernel_binds
            .fetch_add(stats.kernel_binds, Ordering::Relaxed);
        self.kernel_fallbacks
            .fetch_add(stats.kernel_fallbacks, Ordering::Relaxed);
    }
}

// ----------------------------------------------------------------------
// Chunk pruning
// ----------------------------------------------------------------------

/// A pruning bound: resolved at compile time for literals, at bind time
/// for parameter slots.
#[derive(Debug, Clone, PartialEq)]
pub enum PruneBound {
    Num(f64),
    Param(usize),
}

impl PruneBound {
    /// Resolve to the f32 value filter kernels compare against. `None`
    /// makes the owning predicate inert for this binding (unbound slot,
    /// non-numeric binding, NaN).
    fn resolve(&self, params: &ParamValues) -> Option<f32> {
        let v = match self {
            PruneBound::Num(v) => *v,
            PruneBound::Param(idx) => match params.get(*idx) {
                Some(ParamValue::Number(v)) => *v,
                _ => return None,
            },
        };
        let f = v as f32;
        (!f.is_nan()).then_some(f)
    }
}

/// One compiled conjunct: `column(slot) OP bound`, oriented so the
/// column is always on the left.
#[derive(Debug, Clone, PartialEq)]
pub enum PrunePredicate {
    Cmp {
        slot: usize,
        op: BinOp,
        bound: PruneBound,
    },
    In {
        slot: usize,
        list: Vec<PruneBound>,
    },
    /// A disjunction whose arms are all individually prunable ranges
    /// over the **same** column. The excluded chunk set is the
    /// intersection of the arms' exclusions — equivalently, the pruner
    /// keeps the union of the arms' surviving chunk ranges.
    Or {
        slot: usize,
        arms: Vec<PrunePredicate>,
    },
}

impl PrunePredicate {
    /// Whether chunk bounds `[min, max]` definitely contain **no** row
    /// passing this predicate under the current binding. Inert
    /// predicates (unresolvable bound) never prune.
    fn excludes(&self, min: f32, max: f32, params: &ParamValues) -> bool {
        match self {
            PrunePredicate::Cmp { op, bound, .. } => {
                let Some(b) = bound.resolve(params) else {
                    return false;
                };
                match op {
                    BinOp::Gt => max <= b,
                    BinOp::GtEq => max < b,
                    BinOp::Lt => min >= b,
                    BinOp::LtEq => min > b,
                    BinOp::Eq => b < min || b > max,
                    _ => false,
                }
            }
            PrunePredicate::In { list, .. } => list.iter().all(|bound| {
                let Some(b) = bound.resolve(params) else {
                    return false;
                };
                b < min || b > max
            }),
            // A row surviving *any* arm survives the OR, so the chunk is
            // excluded only when every arm excludes it.
            PrunePredicate::Or { arms, .. } => {
                arms.iter().all(|arm| arm.excludes(min, max, params))
            }
        }
    }

    fn slot(&self) -> usize {
        match self {
            PrunePredicate::Cmp { slot, .. }
            | PrunePredicate::In { slot, .. }
            | PrunePredicate::Or { slot, .. } => *slot,
        }
    }
}

/// The compiled chunk pruner a physical scan node carries: every
/// eligible conjunct of the leading filter, evaluated against zone maps
/// per morsel. Skipping is conjunct-wise sound: a morsel is skipped as
/// soon as *one* conjunct excludes its whole row range, because a row
/// must pass every conjunct to survive the filter.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPruner {
    predicates: Vec<PrunePredicate>,
}

impl ChunkPruner {
    /// Compile the eligible conjuncts of `predicate`. `Err(reason)` when
    /// nothing qualifies — the reason lands on the EXPLAIN scan line.
    pub fn compile(predicate: &CompiledExpr) -> Result<ChunkPruner, &'static str> {
        let mut predicates = Vec::new();
        let mut or_ineligible = false;
        collect_conjuncts(predicate, &mut predicates, &mut or_ineligible);
        if predicates.is_empty() {
            Err(if or_ineligible {
                "or-arm-ineligible"
            } else {
                "no-eligible-conjunct"
            })
        } else {
            Ok(ChunkPruner { predicates })
        }
    }

    /// Number of compiled pruning predicates (EXPLAIN's
    /// `[zone-maps: N predicates]`).
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Per-morsel skip mask over `rows` rows split into `morsel_rows`
    /// morsels: `mask[i]` is true when morsel `i` cannot contain a
    /// surviving row. Missing stats (NaN chunks, stat-less columns,
    /// stale row counts) make the morsel unprunable, never wrong.
    pub fn skip_mask(
        &self,
        zone_maps: &TableZoneMaps,
        rows: usize,
        morsel_rows: usize,
        params: &ParamValues,
    ) -> Vec<bool> {
        let morsel_rows = morsel_rows.max(1);
        let morsels = rows.div_ceil(morsel_rows);
        if zone_maps.rows() != rows {
            // Stats describe a different table generation: scan all.
            return vec![false; morsels];
        }
        (0..morsels)
            .map(|i| {
                let start = i * morsel_rows;
                let end = (start + morsel_rows).min(rows);
                self.predicates.iter().any(|p| {
                    zone_maps
                        .range(p.slot(), start, end)
                        .is_some_and(|(min, max)| p.excludes(min, max, params))
                })
            })
            .collect()
    }
}

/// Recursively split on AND and harvest eligible conjuncts.
/// `or_ineligible` records that a disjunction was seen but could not be
/// compiled (an arm was ineligible or the arms mix columns) — it names
/// the full-scan reason when nothing else qualifies.
fn collect_conjuncts(expr: &CompiledExpr, out: &mut Vec<PrunePredicate>, or_ineligible: &mut bool) {
    match expr {
        CompiledExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out, or_ineligible);
            collect_conjuncts(right, out, or_ineligible);
        }
        CompiledExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => match compile_disjunction(left, right) {
            Some(p) => out.push(p),
            None => *or_ineligible = true,
        },
        CompiledExpr::Binary { op, left, right } => {
            if let Some(p) = compile_comparison(*op, left, right) {
                out.push(p);
            }
        }
        CompiledExpr::InList {
            expr,
            list,
            negated: false,
        } => {
            if let Some(p) = compile_in_list(expr, list) {
                out.push(p);
            }
        }
        _ => {}
    }
}

/// Compile `left OR right` into a single same-column
/// [`PrunePredicate::Or`]. Nested ORs flatten into one arm list; every
/// arm must itself be an eligible comparison or `IN` list, and all arms
/// must resolve to the same column slot.
fn compile_disjunction(left: &CompiledExpr, right: &CompiledExpr) -> Option<PrunePredicate> {
    let mut arms = Vec::new();
    collect_or_arms(left, &mut arms)?;
    collect_or_arms(right, &mut arms)?;
    let slot = arms.first()?.slot();
    if arms.iter().any(|arm| arm.slot() != slot) {
        return None;
    }
    Some(PrunePredicate::Or { slot, arms })
}

/// Flatten an OR tree into eligible leaf predicates. `None` as soon as
/// any leaf fails to compile — a partially-compiled OR would wrongly
/// widen the exclusion.
fn collect_or_arms(expr: &CompiledExpr, arms: &mut Vec<PrunePredicate>) -> Option<()> {
    match expr {
        CompiledExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            collect_or_arms(left, arms)?;
            collect_or_arms(right, arms)
        }
        CompiledExpr::Binary { op, left, right } => {
            arms.push(compile_comparison(*op, left, right)?);
            Some(())
        }
        CompiledExpr::InList {
            expr,
            list,
            negated: false,
        } => {
            arms.push(compile_in_list(expr, list)?);
            Some(())
        }
        _ => None,
    }
}

fn compile_in_list(expr: &CompiledExpr, list: &[CompiledExpr]) -> Option<PrunePredicate> {
    let slot = slot_of(expr)?;
    let bounds: Option<Vec<PruneBound>> = list.iter().map(bound_of).collect();
    let list = bounds?;
    if list.is_empty() {
        return None;
    }
    Some(PrunePredicate::In { slot, list })
}

fn compile_comparison(
    op: BinOp,
    left: &CompiledExpr,
    right: &CompiledExpr,
) -> Option<PrunePredicate> {
    if !matches!(
        op,
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq | BinOp::Eq
    ) {
        return None;
    }
    if let (Some(slot), Some(bound)) = (slot_of(left), bound_of(right)) {
        return Some(PrunePredicate::Cmp { slot, op, bound });
    }
    // Mirrored operand order: `10 < x` ≡ `x > 10`.
    if let (Some(bound), Some(slot)) = (bound_of(left), slot_of(right)) {
        let op = match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            BinOp::Eq => BinOp::Eq,
            _ => return None,
        };
        return Some(PrunePredicate::Cmp { slot, op, bound });
    }
    None
}

fn slot_of(expr: &CompiledExpr) -> Option<usize> {
    match expr {
        CompiledExpr::Column(ColumnRef::Slot { slot, .. }) => Some(*slot),
        _ => None,
    }
}

fn bound_of(expr: &CompiledExpr) -> Option<PruneBound> {
    match expr {
        CompiledExpr::Num(v) => Some(PruneBound::Num(*v)),
        CompiledExpr::Param { idx } => Some(PruneBound::Param(*idx)),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// ANN access path
// ----------------------------------------------------------------------

/// How an `AnnTopK` node reaches its vectors, chosen from the catalog's
/// index registry (`passes::access_paths`) and re-validated at execution
/// (a stale IVF plan silently degrades to the exact flat path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnPath {
    /// Exact brute-force scoring — the default, byte-identical to the
    /// scan+sort oracle.
    Flat,
    /// Approximate IVF probe with its declared trade-off.
    Ivf { nlist: usize, nprobe: usize },
}

impl std::fmt::Display for AnnPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnPath::Flat => write!(f, "flat exact"),
            AnnPath::Ivf { nlist, nprobe } => write!(f, "ivf nlist={nlist} nprobe={nprobe}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::ColumnRef;

    fn col(slot: usize) -> CompiledExpr {
        CompiledExpr::Column(ColumnRef::Slot {
            slot,
            name: format!("c{slot}"),
        })
    }

    fn num(v: f64) -> CompiledExpr {
        CompiledExpr::Num(v)
    }

    fn cmp(op: BinOp, l: CompiledExpr, r: CompiledExpr) -> CompiledExpr {
        CompiledExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn conjuncts_split_and_mirror() {
        let pred = cmp(
            BinOp::And,
            cmp(BinOp::Gt, col(0), num(10.0)),
            cmp(BinOp::Lt, num(5.0), col(1)),
        );
        let p = ChunkPruner::compile(&pred).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.predicates[1],
            PrunePredicate::Cmp {
                slot: 1,
                op: BinOp::Gt,
                bound: PruneBound::Num(5.0)
            },
            "mirrored literal-first comparison"
        );
    }

    #[test]
    fn ineligible_predicates_report_reason() {
        let pred = cmp(BinOp::Lt, col(0), col(1));
        assert_eq!(
            ChunkPruner::compile(&pred),
            Err("no-eligible-conjunct"),
            "column-column comparisons cannot use zone maps"
        );
    }

    #[test]
    fn same_column_disjunction_prunes_union_of_ranges() {
        use tdp_storage::{TableBuilder, TableZoneMaps};
        let t = TableBuilder::new()
            .col_f32("v", (0..10_000).map(|i| i as f32).collect())
            .build("t");
        let zm = TableZoneMaps::build(&t);
        // v < 100 OR v > 9000: the middle morsel is excluded by both
        // arms, the outer morsels each survive one arm.
        let pred = cmp(
            BinOp::Or,
            cmp(BinOp::Lt, col(0), num(100.0)),
            cmp(BinOp::Gt, col(0), num(9_000.0)),
        );
        let p = ChunkPruner::compile(&pred).unwrap();
        assert_eq!(p.len(), 1);
        let mask = p.skip_mask(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(mask, vec![false, true, false]);
        // Nested OR arms flatten; IN lists qualify as arms.
        let pred = cmp(
            BinOp::Or,
            cmp(
                BinOp::Or,
                cmp(BinOp::Lt, col(0), num(50.0)),
                CompiledExpr::InList {
                    expr: Box::new(col(0)),
                    list: vec![num(60.0)],
                    negated: false,
                },
            ),
            cmp(BinOp::Gt, col(0), num(9_500.0)),
        );
        let p = ChunkPruner::compile(&pred).unwrap();
        let mask = p.skip_mask(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(mask, vec![false, true, false]);
    }

    #[test]
    fn ineligible_or_arms_name_full_scan_reason() {
        // Arms over different columns cannot share one zone-map range.
        let mixed = cmp(
            BinOp::Or,
            cmp(BinOp::Lt, col(0), num(1.0)),
            cmp(BinOp::Gt, col(1), num(2.0)),
        );
        assert_eq!(ChunkPruner::compile(&mixed), Err("or-arm-ineligible"));
        // One ineligible arm poisons the whole disjunction.
        let partial = cmp(
            BinOp::Or,
            cmp(BinOp::Lt, col(0), num(1.0)),
            cmp(BinOp::Lt, col(0), col(1)),
        );
        assert_eq!(ChunkPruner::compile(&partial), Err("or-arm-ineligible"));
        // ...but an eligible AND sibling still compiles alongside it.
        let sibling = cmp(BinOp::And, partial, cmp(BinOp::Gt, col(0), num(3.0)));
        assert_eq!(ChunkPruner::compile(&sibling).unwrap().len(), 1);
    }

    #[test]
    fn skip_mask_prunes_out_of_range_morsels() {
        use tdp_storage::{TableBuilder, TableZoneMaps};
        let t = TableBuilder::new()
            .col_f32("v", (0..10_000).map(|i| i as f32).collect())
            .build("t");
        let zm = TableZoneMaps::build(&t);
        let p = ChunkPruner::compile(&cmp(BinOp::Gt, col(0), num(9_000.0))).unwrap();
        let mask = p.skip_mask(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(mask, vec![true, true, false]);
        // Unbound parameter bound: predicate inert, nothing pruned.
        let p =
            ChunkPruner::compile(&cmp(BinOp::Gt, col(0), CompiledExpr::Param { idx: 0 })).unwrap();
        let mask = p.skip_mask(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(mask, vec![false, false, false]);
    }

    #[test]
    fn stale_row_count_disables_pruning() {
        use tdp_storage::{TableBuilder, TableZoneMaps};
        let t = TableBuilder::new().col_f32("v", vec![1.0, 2.0]).build("t");
        let zm = TableZoneMaps::build(&t);
        let p = ChunkPruner::compile(&cmp(BinOp::Gt, col(0), num(100.0))).unwrap();
        assert_eq!(p.skip_mask(&zm, 5, 2, &ParamValues::new()), vec![false; 3]);
    }
}
