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
//! ## What a morsel's stats decide
//!
//! Per morsel, [`ChunkPruner::verdicts`] reads each compiled conjunct's
//! column range `[min, max]` over the zone-map chunks covering the
//! morsel (f32, as the filter compares; `b` is the bound as f32):
//!
//! | conjunct        | excludes the morsel (`Pruned`) | holds for every row       |
//! |-----------------|--------------------------------|---------------------------|
//! | `col > b`       | `max <= b`                     | `min > b`                 |
//! | `col >= b`      | `max < b`                      | `min >= b`                |
//! | `col < b`       | `min >= b`                     | `max < b`                 |
//! | `col <= b`      | `min > b`                      | `max <= b`                |
//! | `col = b`       | `b < min` or `b > max`         | `min == b == max`         |
//! | `col IN (…)`    | every item excluded as by `=`  | `min == max`, listed      |
//! | arms `OR`ed     | every arm excludes             | some arm holds            |
//!
//! One excluding conjunct prunes the morsel. A morsel is `Proven` only
//! when the pruner compiled **every** conjunct of the filter, every bound
//! resolves under the binding (no string, NULL or NaN `$n`), and every
//! conjunct holds. A NaN chunk, a stat-less column, a stale map or a
//! chunk range short of the morsel decides nothing (`Evaluate`). The
//! comparisons are the filter's own (`-0.0 == 0.0`; an `i64` compares as
//! its nearest f32, so past 2²⁴ a row above the bound may pass, and
//! its chunk's f32 max says so), so a verdict is never wrong.
//!
//! ## Pruning vs. kernels
//!
//! The [`ChunkPruner`] runs **before** the fused chain kernels: the
//! morsel scheduler asks it for the per-morsel verdicts (computed from
//! the catalog's [`TableZoneMaps`] in the same f32 precision the filter
//! kernels compare in). Pruned morsels contribute an empty slice to the
//! order-preserving reassembly without ever reaching a kernel. A skipped
//! morsel is by construction one the leading filter would have emptied,
//! so pruned and unpruned executions are byte-identical at every thread
//! count and morsel size.
//!
//! A proven morsel skips the filter instead: the in-place aggregate
//! folds it with no selection (bitwise its fold under an all-true
//! mask: the same rows, in the same order, into the same accumulators),
//! and the selection exit hands on `start..end` as its survivor ids (the
//! ids an all-true selection yields). The filter could not have dropped
//! a row nor raised an error there: every conjunct is a comparison of a
//! stat-carrying numeric column with a resolved number. A proof speaks
//! for the leading filter only, so a chain that filters again gets none,
//! and the paths that do not take proofs (the gather exit, interpreted
//! and pinned chains, a single-morsel input) filter proven morsels as
//! before. Verdicts depend on the binding, so EXPLAIN shows none.
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
    morsels_proven: AtomicU64,
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
    /// Morsels the zone maps proved wholly inside the leading filter, so
    /// the filter never ran over them: an aggregate folded them with no
    /// mask, a selection exit handed on their every row. They count in
    /// `morsels_scanned` too — they were read, only not filtered.
    pub morsels_proven: u64,
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
    pub fn note_morsels(&self, pruned: u64, proven: u64, scanned: u64) {
        self.morsels_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.morsels_proven.fetch_add(proven, Ordering::Relaxed);
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
            morsels_proven: self.morsels_proven.load(Ordering::Relaxed),
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
        self.morsels_proven
            .fetch_add(stats.morsels_proven, Ordering::Relaxed);
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

    /// Whether **every** row of chunk bounds `[min, max]` passes this
    /// predicate: the mirror of [`Self::excludes`], with the same f32
    /// comparisons. Only asked of a predicate whose every bound resolves
    /// ([`Self::resolves`]); an unresolved one never holds.
    fn holds(&self, min: f32, max: f32, params: &ParamValues) -> bool {
        match self {
            PrunePredicate::Cmp { op, bound, .. } => {
                let Some(b) = bound.resolve(params) else {
                    return false;
                };
                match op {
                    BinOp::Gt => min > b,
                    BinOp::GtEq => min >= b,
                    BinOp::Lt => max < b,
                    BinOp::LtEq => max <= b,
                    BinOp::Eq => min == b && max == b,
                    _ => false,
                }
            }
            // Every row holds the one value `min == max`, and it is listed.
            PrunePredicate::In { list, .. } => {
                min == max && list.iter().any(|bound| bound.resolve(params) == Some(min))
            }
            // A row passing *any* arm passes the OR.
            PrunePredicate::Or { arms, .. } => arms.iter().any(|arm| arm.holds(min, max, params)),
        }
    }

    /// Whether every bound of this predicate resolves under the binding.
    /// An inert bound (a string, NULL or NaN binding) may make the filter
    /// fail or reject rows the stats cannot see, so it never proves.
    fn resolves(&self, params: &ParamValues) -> bool {
        match self {
            PrunePredicate::Cmp { bound, .. } => bound.resolve(params).is_some(),
            PrunePredicate::In { list, .. } => list.iter().all(|b| b.resolve(params).is_some()),
            PrunePredicate::Or { arms, .. } => arms.iter().all(|arm| arm.resolves(params)),
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

/// What the zone maps say about one morsel under the leading filter, for
/// one binding ([`ChunkPruner::verdicts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorselVerdict {
    /// The stats decide nothing: the filter runs over the morsel.
    Evaluate,
    /// No row of the morsel can pass: it is never scheduled.
    Pruned,
    /// Every row of the morsel passes: a path that takes the verdict
    /// hands the morsel on without running the filter.
    Proven,
}

/// The compiled chunk pruner a physical scan node carries: every
/// eligible conjunct of the leading filter, evaluated against zone maps
/// per morsel. Skipping is conjunct-wise sound: a morsel is skipped as
/// soon as *one* conjunct excludes its whole row range, because a row
/// must pass every conjunct to survive the filter. Proving needs the
/// whole filter: every conjunct compiled, and each one holding over the
/// morsel's whole range.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPruner {
    predicates: Vec<PrunePredicate>,
    /// Every top-level conjunct of the filter compiled into `predicates`.
    complete: bool,
}

impl ChunkPruner {
    /// Compile the eligible conjuncts of `predicate`. `Err(reason)` when
    /// nothing qualifies — the reason lands on the EXPLAIN scan line.
    pub fn compile(predicate: &CompiledExpr) -> Result<ChunkPruner, &'static str> {
        let mut predicates = Vec::new();
        let mut or_ineligible = false;
        let mut complete = true;
        collect_conjuncts(
            predicate,
            &mut predicates,
            &mut or_ineligible,
            &mut complete,
        );
        if predicates.is_empty() {
            Err(if or_ineligible {
                "or-arm-ineligible"
            } else {
                "no-eligible-conjunct"
            })
        } else {
            Ok(ChunkPruner {
                predicates,
                complete,
            })
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

    /// One verdict per morsel of `rows` rows split into `morsel_rows`
    /// morsels, each conjunct's range read once: `Pruned` when a conjunct
    /// excludes the morsel's whole range, `Proven` when the pruner holds
    /// the whole filter, every bound resolves and each conjunct holds over
    /// the whole range, `Evaluate` otherwise. Missing stats (NaN chunks,
    /// stat-less columns, a chunk range short of the morsel, stale row
    /// counts) make a morsel `Evaluate`, never wrong.
    pub fn verdicts(
        &self,
        zone_maps: &TableZoneMaps,
        rows: usize,
        morsel_rows: usize,
        params: &ParamValues,
    ) -> Vec<MorselVerdict> {
        let morsel_rows = morsel_rows.max(1);
        let morsels = rows.div_ceil(morsel_rows);
        if zone_maps.rows() != rows {
            // Stats describe a different table generation: scan all.
            return vec![MorselVerdict::Evaluate; morsels];
        }
        let provable = self.complete && self.predicates.iter().all(|p| p.resolves(params));
        (0..morsels)
            .map(|i| {
                let start = i * morsel_rows;
                let end = (start + morsel_rows).min(rows);
                let mut proven = provable;
                for p in &self.predicates {
                    match zone_maps.range(p.slot(), start, end) {
                        Some((min, max)) if p.excludes(min, max, params) => {
                            return MorselVerdict::Pruned
                        }
                        Some((min, max)) => proven = proven && p.holds(min, max, params),
                        None => proven = false,
                    }
                }
                match proven {
                    true => MorselVerdict::Proven,
                    false => MorselVerdict::Evaluate,
                }
            })
            .collect()
    }
}

/// Recursively split on AND and harvest eligible conjuncts.
/// `or_ineligible` records that a disjunction was seen but could not be
/// compiled (an arm was ineligible or the arms mix columns) — it names
/// the full-scan reason when nothing else qualifies. `complete` is
/// cleared by any conjunct left out.
fn collect_conjuncts(
    expr: &CompiledExpr,
    out: &mut Vec<PrunePredicate>,
    or_ineligible: &mut bool,
    complete: &mut bool,
) {
    let compiled = match expr {
        CompiledExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out, or_ineligible, complete);
            collect_conjuncts(right, out, or_ineligible, complete);
            return;
        }
        CompiledExpr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let p = compile_disjunction(left, right);
            *or_ineligible |= p.is_none();
            p
        }
        CompiledExpr::Binary { op, left, right } => compile_comparison(*op, left, right),
        CompiledExpr::InList {
            expr,
            list,
            negated: false,
        } => compile_in_list(expr, list),
        _ => None,
    };
    match compiled {
        Some(p) => out.push(p),
        None => *complete = false,
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
    use MorselVerdict::{Evaluate as E, Proven as V, Pruned as P};

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
        let verdicts = p.verdicts(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(verdicts, vec![E, P, E]);
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
        let verdicts = p.verdicts(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(verdicts, vec![E, P, E]);
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
        let verdicts = p.verdicts(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(verdicts, vec![P, P, E]);
        // Unbound parameter bound: predicate inert, nothing pruned.
        let p =
            ChunkPruner::compile(&cmp(BinOp::Gt, col(0), CompiledExpr::Param { idx: 0 })).unwrap();
        let verdicts = p.verdicts(&zm, 10_000, 4096, &ParamValues::new());
        assert_eq!(verdicts, vec![E, E, E]);
    }

    #[test]
    fn stale_row_count_disables_pruning() {
        use tdp_storage::{TableBuilder, TableZoneMaps};
        let t = TableBuilder::new().col_f32("v", vec![1.0, 2.0]).build("t");
        let zm = TableZoneMaps::build(&t);
        let p = ChunkPruner::compile(&cmp(BinOp::Gt, col(0), num(100.0))).unwrap();
        assert_eq!(p.verdicts(&zm, 5, 2, &ParamValues::new()), vec![E; 3]);
    }

    /// Each verdict of one conjunct over one morsel of `vals`, whole.
    fn one_morsel(vals: Vec<f32>, pred: &CompiledExpr, params: &ParamValues) -> MorselVerdict {
        use tdp_storage::{TableBuilder, TableZoneMaps};
        let n = vals.len();
        let t = TableBuilder::new().col_f32("v", vals).build("t");
        let zm = TableZoneMaps::build(&t);
        let p = ChunkPruner::compile(pred).unwrap();
        p.verdicts(&zm, n, n, params)[0]
    }

    #[test]
    fn verdicts_prove_morsels_the_bounds_contain() {
        let none = ParamValues::new();
        let at = |op, b: f64| cmp(op, col(0), num(b));
        let vals = || vec![2.0, 5.0, 3.0];
        // A bound equal to the min or the max: the strict side proves
        // nothing, the closed side proves every row.
        assert_eq!(one_morsel(vals(), &at(BinOp::LtEq, 5.0), &none), V);
        assert_eq!(one_morsel(vals(), &at(BinOp::Lt, 5.0), &none), E);
        assert_eq!(one_morsel(vals(), &at(BinOp::GtEq, 2.0), &none), V);
        assert_eq!(one_morsel(vals(), &at(BinOp::Gt, 2.0), &none), E);
        assert_eq!(one_morsel(vals(), &at(BinOp::Gt, 5.0), &none), P);
        // Equality proves only a one-value range; ±0 are one value.
        assert_eq!(one_morsel(vals(), &at(BinOp::Eq, 2.0), &none), E);
        assert_eq!(one_morsel(vec![0.0, -0.0], &at(BinOp::Eq, -0.0), &none), V);
        assert_eq!(one_morsel(vec![-0.0, 0.0], &at(BinOp::GtEq, 0.0), &none), V);
        // IN and OR: one listed value, or one arm holding the whole range.
        let in_list = |items: Vec<f64>| CompiledExpr::InList {
            expr: Box::new(col(0)),
            list: items.into_iter().map(num).collect(),
            negated: false,
        };
        assert_eq!(one_morsel(vec![4.0; 3], &in_list(vec![1.0, 4.0]), &none), V);
        assert_eq!(one_morsel(vals(), &in_list(vec![2.0, 3.0, 5.0]), &none), E);
        let either = cmp(BinOp::Or, at(BinOp::Lt, 0.0), at(BinOp::LtEq, 9.0));
        assert_eq!(one_morsel(vals(), &either, &none), V);
        // A NaN chunk has no stats: nothing is decided.
        assert_eq!(
            one_morsel(vec![1.0, f32::NAN], &at(BinOp::Lt, 9.0), &none),
            E
        );
        // An inert `$n` (a string binding) never proves, nor does a filter
        // with a conjunct the pruner could not compile.
        let param = cmp(BinOp::Lt, col(0), CompiledExpr::Param { idx: 0 });
        assert_eq!(one_morsel(vals(), &param, &none.clone().number(9.0)), V);
        assert_eq!(one_morsel(vals(), &param, &none.clone().string("9")), E);
        let partial = cmp(
            BinOp::And,
            at(BinOp::Lt, 9.0),
            cmp(BinOp::Lt, col(0), col(0)),
        );
        assert_eq!(one_morsel(vals(), &partial, &none), E);
        let or_inert = cmp(BinOp::Or, at(BinOp::Lt, 9.0), param);
        assert_eq!(one_morsel(vals(), &or_inert, &none), E);
    }
}
